//! The app programming model: the [`App`] trait and the [`AppCtx`] handle
//! through which every interaction with the controller flows.
//!
//! In the SDNShield architecture the context marshals each call over an
//! inter-thread channel to a Kernel Service Deputy (paper §VI-A); in the
//! monolithic baseline it calls the kernel directly. The output a batched
//! handler *returns* ([`BurstOutput`]) is the exception: the app runtime
//! applies it on the app's thread without a crossing. Apps are written once
//! and run unmodified under either architecture — mirroring the paper's
//! claim that legacy apps need no changes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use sdnshield_core::api::{ApiCall, ApiCallKind, AppId, EventKind};
use sdnshield_core::token::PermissionToken;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, FlowStats, PacketOut, StatsReply, StatsRequest};
use sdnshield_openflow::types::{BufferId, DatapathId, Ipv4, PortNo};

use crate::api::{ApiError, ApiResponse, DeputyRequest, FlowOp, TopologyView};
use crate::events::Event;
use crate::hostsys::ConnId;
use crate::isolation::DEPUTY_SPIN_TRIES;
use crate::kernel::{Kernel, OutboundEvent};

/// A controller application.
///
/// Implementations must be `Send`: under the isolation architecture each app
/// runs on its own unprivileged thread.
pub trait App: Send {
    /// The app's name (diagnostics, audit).
    fn name(&self) -> &str;

    /// Tokens the app cannot function without — checked at loading time
    /// (paper §VIII-B). Registration fails if any is missing, so no runtime
    /// checking is spent on an app that could never run.
    fn required_tokens(&self) -> Vec<PermissionToken> {
        Vec::new()
    }

    /// Called once, on the app's thread, after registration.
    fn on_start(&mut self, ctx: &AppCtx) {
        let _ = ctx;
    }

    /// Called for every event the app is subscribed to.
    fn on_event(&mut self, ctx: &AppCtx, event: &Event) {
        let _ = (ctx, event);
    }

    /// Called with the batch of events delivered in one wake-up (vectored
    /// delivery). The default forwards each event to [`App::on_event`] and
    /// returns no output, so existing apps run unchanged.
    ///
    /// Overriders may instead accumulate the burst's packet-outs and flow
    /// operations and return them. Under isolation the app runtime applies
    /// that output on the app's own thread, after the handler returns and
    /// *before* acknowledging the events: the packet-outs as one
    /// best-effort group, then the flow operations as one atomic batch.
    /// Each is permission-checked, journaled and audited as this app,
    /// exactly as a loop of [`AppCtx::send_packet_out`] calls and one
    /// [`AppCtx::submit_batch`] would be, but without a deputy crossing. A
    /// synchronous delivery still means "fully processed, output included".
    /// Calls the handler makes through `ctx` cross to a deputy as usual.
    fn on_events(&mut self, ctx: &AppCtx, events: &[&Event]) -> BurstOutput {
        for event in events {
            self.on_event(ctx, event);
        }
        BurstOutput::default()
    }
}

/// What an [`App::on_events`] burst returns for the runtime to apply on its
/// behalf once the handler is done.
#[derive(Debug, Default)]
pub struct BurstOutput {
    /// Packet-outs, applied first, in order; each is checked on its own
    /// (as [`AppCtx::send_packet_out`]) and a denial skips only that one.
    pub packet_outs: Vec<(DatapathId, PacketOut)>,
    /// Flow operations, applied next as one atomic batch (as
    /// [`AppCtx::submit_batch`]): one denial applies none of them.
    pub flow_ops: Vec<FlowOp>,
}

impl BurstOutput {
    /// Nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.packet_outs.is_empty() && self.flow_ops.is_empty()
    }
}

/// How an [`AppCtx`] reaches the kernel.
#[derive(Clone)]
pub(crate) enum CallRoute {
    /// Through the deputy channel (SDNShield isolation architecture).
    Deputy {
        tx: Sender<DeputyRequest>,
        /// Work counter shared with the controller's quiesce logic.
        inflight: Arc<std::sync::atomic::AtomicUsize>,
        /// Per-call reply deadline: a deputy that dies (or a fault that
        /// swallows the reply) surfaces as [`ApiError::Timeout`] instead of
        /// blocking the app forever.
        timeout: Duration,
        /// App-side read fast path; `None` when disabled by configuration
        /// (every call then crosses the channel).
        fast: Option<Arc<FastLane>>,
    },
    /// Direct invocation (monolithic baseline). Derived events queue up for
    /// the dispatcher loop.
    Direct {
        kernel: Arc<Kernel>,
        pending: Arc<Mutex<VecDeque<OutboundEvent>>>,
    },
}

/// The app-side read fast path (DESIGN.md "Read fast path & vectored
/// delivery"): the app thread checks *and serves* side-effect-free reads
/// itself, with zero channel crossings.
///
/// There is nothing cached to invalidate: each call loads the active kernel
/// from the cell and [`Kernel::try_serve_read`] pins its published registry
/// view once, deciding and reading through the same snapshot. That method
/// makes only call-only permission decisions (anything stateful returns
/// `None` and rides the deputy), re-validates the kernel's context epoch
/// around the decision, and serves only the read-only handler kinds.
pub(crate) struct FastLane {
    cell: Arc<crate::isolation::KernelCell>,
    /// Controller-wide hit counter (observability, tests).
    hits: Arc<std::sync::atomic::AtomicU64>,
}

impl FastLane {
    pub(crate) fn new(
        cell: Arc<crate::isolation::KernelCell>,
        hits: Arc<std::sync::atomic::AtomicU64>,
    ) -> Self {
        FastLane { cell, hits }
    }

    /// Serves the call on the calling thread if it is fast-path eligible.
    /// `None` means "cross the channel" — never "denied".
    fn try_serve(&self, call: &ApiCall) -> Option<Result<ApiResponse, ApiError>> {
        let result = self.cell.load().try_serve_read(call)?;
        self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(result)
    }
}

/// Sends a deputy request, maintaining the in-flight counter.
pub(crate) fn send_deputy(
    tx: &Sender<DeputyRequest>,
    inflight: &std::sync::atomic::AtomicUsize,
    req: DeputyRequest,
) -> Result<(), ApiError> {
    inflight.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    tx.send(req).map_err(|_| {
        inflight.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        ApiError::Shutdown
    })
}

/// Waits for a deputy reply with a deadline. Disconnection (controller
/// shutting down, or the serving deputy died taking the sender with it)
/// surfaces immediately; silence past the deadline becomes a timeout.
///
/// Before parking, the wait yields for as many tries as a deputy spins
/// for requests: an awake deputy answers within microseconds, and a reply
/// caught without parking spares the caller's wake-up and sends the next
/// call while that deputy still spins — back-to-back calls then cross
/// without a futex wake on either side.
fn await_reply<T>(rx: &Receiver<T>, timeout: Duration) -> Result<T, ApiError> {
    for _ in 0..DEPUTY_SPIN_TRIES {
        match rx.try_recv() {
            Ok(reply) => return Ok(reply),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return Err(ApiError::Shutdown),
        }
    }
    match rx.recv_timeout(timeout) {
        Ok(reply) => Ok(reply),
        Err(RecvTimeoutError::Disconnected) => Err(ApiError::Shutdown),
        Err(RecvTimeoutError::Timeout) => Err(ApiError::Timeout),
    }
}

/// The handle apps use for every controller and host interaction.
#[derive(Clone)]
pub struct AppCtx {
    app: AppId,
    route: CallRoute,
}

impl AppCtx {
    pub(crate) fn new(app: AppId, route: CallRoute) -> Self {
        AppCtx { app, route }
    }

    /// This app's identity.
    pub fn id(&self) -> AppId {
        self.app
    }

    fn call(&self, kind: ApiCallKind) -> Result<ApiResponse, ApiError> {
        let call = ApiCall::new(self.app, kind);
        match &self.route {
            CallRoute::Deputy {
                tx,
                inflight,
                timeout,
                fast,
            } => {
                if let Some(lane) = fast {
                    if let Some(result) = lane.try_serve(&call) {
                        return result;
                    }
                }
                let (reply_tx, reply_rx) = bounded(1);
                send_deputy(
                    tx,
                    inflight,
                    DeputyRequest::Call {
                        call,
                        reply: reply_tx,
                    },
                )?;
                await_reply(&reply_rx, *timeout)?
            }
            CallRoute::Direct { kernel, pending } => {
                let (result, events) = kernel.execute(&call);
                pending.lock().extend(events);
                result
            }
        }
    }

    /// Reads the topology view this app is allowed to see.
    ///
    /// # Errors
    ///
    /// [`ApiError::PermissionDenied`] without `visible_topology`.
    pub fn read_topology(&self) -> Result<TopologyView, ApiError> {
        match self.call(ApiCallKind::ReadTopology)? {
            ApiResponse::Topology(view) => Ok(view),
            other => unreachable!("topology call returned {other:?}"),
        }
    }

    /// Installs (or modifies) a flow rule.
    ///
    /// # Errors
    ///
    /// Permission denials and switch errors.
    pub fn insert_flow(&self, dpid: DatapathId, flow_mod: FlowMod) -> Result<(), ApiError> {
        self.call(ApiCallKind::InsertFlow { dpid, flow_mod })
            .map(|_| ())
    }

    /// Deletes flow rules.
    ///
    /// # Errors
    ///
    /// Permission denials and switch errors.
    pub fn delete_flow(&self, dpid: DatapathId, flow_mod: FlowMod) -> Result<(), ApiError> {
        self.call(ApiCallKind::DeleteFlow { dpid, flow_mod })
            .map(|_| ())
    }

    /// Reads flow entries subsumed by `query` (visibility-filtered).
    ///
    /// # Errors
    ///
    /// Permission denials and switch errors.
    pub fn read_flow_table(
        &self,
        dpid: DatapathId,
        query: FlowMatch,
    ) -> Result<Vec<FlowStats>, ApiError> {
        match self.call(ApiCallKind::ReadFlowTable { dpid, query })? {
            ApiResponse::FlowEntries(entries) => Ok(entries),
            other => unreachable!("flow read returned {other:?}"),
        }
    }

    /// Requests statistics.
    ///
    /// # Errors
    ///
    /// Permission denials (including statistics-level filters) and switch
    /// errors.
    pub fn read_statistics(
        &self,
        dpid: DatapathId,
        request: StatsRequest,
    ) -> Result<StatsReply, ApiError> {
        match self.call(ApiCallKind::ReadStatistics { dpid, request })? {
            ApiResponse::Stats(reply) => Ok(reply),
            other => unreachable!("stats call returned {other:?}"),
        }
    }

    /// Sends a packet-out.
    ///
    /// # Errors
    ///
    /// Permission denials (e.g. `FROM_PKT_IN` provenance) and switch errors.
    pub fn send_packet_out(&self, dpid: DatapathId, packet_out: PacketOut) -> Result<(), ApiError> {
        self.call(ApiCallKind::SendPacketOut { dpid, packet_out })
            .map(|_| ())
    }

    /// Convenience: packet-out of a raw frame through one port.
    ///
    /// # Errors
    ///
    /// As [`AppCtx::send_packet_out`].
    pub fn packet_out_port(
        &self,
        dpid: DatapathId,
        port: PortNo,
        payload: Bytes,
    ) -> Result<(), ApiError> {
        self.send_packet_out(
            dpid,
            PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port: PortNo::NONE,
                actions: sdnshield_openflow::actions::ActionList::output(port),
                payload,
            },
        )
    }

    /// Subscribes to an event stream.
    ///
    /// # Errors
    ///
    /// [`ApiError::PermissionDenied`] without the event token.
    pub fn subscribe(&self, kind: EventKind) -> Result<(), ApiError> {
        self.call(ApiCallKind::Subscribe { kind }).map(|_| ())
    }

    /// Subscribes to a custom app-published topic (ALTO-style services).
    ///
    /// # Errors
    ///
    /// [`ApiError::Shutdown`] when the controller is stopping.
    pub fn subscribe_topic(&self, topic: &str) -> Result<(), ApiError> {
        match &self.route {
            CallRoute::Deputy {
                tx,
                inflight,
                timeout,
                ..
            } => {
                let (reply_tx, reply_rx) = bounded(1);
                send_deputy(
                    tx,
                    inflight,
                    DeputyRequest::SubscribeTopic {
                        app: self.app,
                        topic: topic.to_owned(),
                        reply: reply_tx,
                    },
                )?;
                await_reply(&reply_rx, *timeout)??;
                Ok(())
            }
            CallRoute::Direct { kernel, .. } => {
                kernel.subscribe_topic(self.app, topic);
                Ok(())
            }
        }
    }

    /// Publishes a custom event to topic subscribers (service apps).
    ///
    /// # Errors
    ///
    /// [`ApiError::Shutdown`] when the controller is stopping.
    pub fn publish(&self, topic: &str, data: Bytes) -> Result<(), ApiError> {
        let event = Event::Custom {
            topic: topic.to_owned(),
            data,
        };
        match &self.route {
            CallRoute::Deputy {
                tx,
                inflight,
                timeout,
                ..
            } => {
                let (reply_tx, reply_rx) = bounded(1);
                send_deputy(
                    tx,
                    inflight,
                    DeputyRequest::Publish {
                        event,
                        reply: reply_tx,
                    },
                )?;
                await_reply(&reply_rx, *timeout)??;
                Ok(())
            }
            CallRoute::Direct { pending, .. } => {
                pending.lock().push_back(OutboundEvent { event });
                Ok(())
            }
        }
    }

    /// Issues an atomic flow transaction (paper §VI-B2).
    ///
    /// # Errors
    ///
    /// [`ApiError::TransactionAborted`] naming the first offending
    /// operation; nothing is applied in that case.
    pub fn transaction(&self, ops: Vec<FlowOp>) -> Result<(), ApiError> {
        match &self.route {
            CallRoute::Deputy {
                tx,
                inflight,
                timeout,
                ..
            } => {
                let (reply_tx, reply_rx) = bounded(1);
                send_deputy(
                    tx,
                    inflight,
                    DeputyRequest::Transaction {
                        app: self.app,
                        ops,
                        reply: reply_tx,
                    },
                )?;
                await_reply(&reply_rx, *timeout)??;
                Ok(())
            }
            CallRoute::Direct { kernel, pending } => {
                let (result, events) = kernel.execute_transaction(self.app, &ops);
                pending.lock().extend(events);
                result.map(|_| ())
            }
        }
    }

    /// Submits a batch of flow operations in a single app→KSD channel
    /// crossing, checked under one engine snapshot and applied atomically
    /// (the transaction rollback machinery backs it). Returns the number of
    /// operations applied.
    ///
    /// Prefer this over a loop of [`AppCtx::insert_flow`] for bulk rule
    /// pushes: it pays the channel crossing, engine fetch, tracker read
    /// guard, and audit record once per batch instead of once per op.
    ///
    /// # Errors
    ///
    /// [`ApiError::TransactionAborted`] naming the first offending
    /// operation; nothing is applied in that case.
    pub fn submit_batch(&self, ops: Vec<FlowOp>) -> Result<usize, ApiError> {
        let n = ops.len();
        match &self.route {
            CallRoute::Deputy {
                tx,
                inflight,
                timeout,
                ..
            } => {
                let (reply_tx, reply_rx) = bounded(1);
                send_deputy(
                    tx,
                    inflight,
                    DeputyRequest::Batch {
                        app: self.app,
                        ops,
                        reply: reply_tx,
                    },
                )?;
                await_reply(&reply_rx, *timeout)??;
                Ok(n)
            }
            CallRoute::Direct { kernel, pending } => {
                let (result, events) = kernel.execute_batch(self.app, &ops);
                pending.lock().extend(events);
                result.map(|_| n)
            }
        }
    }

    /// Opens a connection from the controller host (Class-2 channel).
    ///
    /// # Errors
    ///
    /// [`ApiError::PermissionDenied`] without `host_network` (or outside
    /// its destination filter).
    pub fn host_connect(&self, dst_ip: Ipv4, dst_port: u16) -> Result<ConnId, ApiError> {
        match self.call(ApiCallKind::HostConnect { dst_ip, dst_port })? {
            ApiResponse::Connection(id) => Ok(id),
            other => unreachable!("connect returned {other:?}"),
        }
    }

    /// Sends data on an established host connection.
    ///
    /// # Errors
    ///
    /// Permission denials (destination re-validated) and unknown handles.
    pub fn host_send(&self, conn: ConnId, data: Bytes) -> Result<(), ApiError> {
        match &self.route {
            CallRoute::Deputy {
                tx,
                inflight,
                timeout,
                ..
            } => {
                let (reply_tx, reply_rx) = bounded(1);
                send_deputy(
                    tx,
                    inflight,
                    DeputyRequest::HostSend {
                        app: self.app,
                        conn,
                        data,
                        reply: reply_tx,
                    },
                )?;
                await_reply(&reply_rx, *timeout)??;
                Ok(())
            }
            CallRoute::Direct { kernel, .. } => kernel.host_send(self.app, conn, data),
        }
    }

    /// Opens a file on the controller host.
    ///
    /// # Errors
    ///
    /// [`ApiError::PermissionDenied`] without `file_system`.
    pub fn open_file(&self, path: &str, write: bool) -> Result<(), ApiError> {
        self.call(ApiCallKind::FileOpen {
            path: path.to_owned(),
            write,
        })
        .map(|_| ())
    }

    /// Spawns a process on the controller host.
    ///
    /// # Errors
    ///
    /// [`ApiError::PermissionDenied`] without `process_runtime`.
    pub fn exec(&self, program: &str) -> Result<(), ApiError> {
        self.call(ApiCallKind::ProcessExec {
            program: program.to_owned(),
        })
        .map(|_| ())
    }
}
