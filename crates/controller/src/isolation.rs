//! The SDNShield thread-based isolation architecture (paper §VI-A).
//!
//! * every app runs on its own unprivileged OS thread;
//! * every request app code makes crosses one typed crossbeam channel as a
//!   `DeputyRequest`: a kernel [`Command`] to submit, or a custom-event
//!   publish. The only references an app holds are its [`AppCtx`] handle
//!   and the events it is delivered (data isolation). The output a
//!   batched handler *returns* is the one thing that does not cross: the
//!   app runtime, which is trusted code, submits it on the app's thread
//!   after the handler;
//! * a pool of privileged *Kernel Service Deputy* threads drains the
//!   request queue and submits each command to the kernel on the app's
//!   behalf, where it is permission-checked and applied (the choke point
//!   is a queue, not a serialization point: deputies run in parallel,
//!   matching the paper's "multiple instances of KSDs can run in parallel
//!   to offload the API requests from apps").
//!
//! On top of the isolation boundary sits a supervision layer (fault
//! containment, DESIGN.md "Fault model & supervision"):
//!
//! * an app that panics inside `on_event` is *reaped*: its flow entries,
//!   subscriptions and host connections are reclaimed, the crash is
//!   audited, and its [`RestartPolicy`] decides whether it comes back
//!   (exponential backoff on the virtual clock) or stays down;
//! * deputies submit each command under an unwind guard — a command that
//!   panics the kernel logic kills that command, not the deputy — and a
//!   watchdog respawns any deputy thread that dies anyway;
//! * per-app event queues are bounded: under overload the oldest pending
//!   event is shed (audited as `Dropped`) rather than growing without limit.
//!
//! The hot paths avoid crossings where they can (DESIGN.md "Read fast path
//! & vectored delivery"):
//!
//! * read-only calls whose compiled permission plan is call-only are checked
//!   and served on the app's own thread ([`crate::app::FastLane`]) with zero
//!   channel crossings, falling back to the deputy for any stateful or
//!   mutating call;
//! * deputies use a spin-then-park receive and drain request bursts, so a
//!   pipelined workload pays one wake-up per burst instead of one per call;
//! * event fan-out shares one `Arc<Event>` view across subscribers and
//!   [`Dispatcher::dispatch_vectored`] enqueues whole event batches per app
//!   (one wake-up, N events), with app handlers able to return a burst's
//!   packet-outs and flow-ops through [`crate::app::App::on_events`] for
//!   the runtime to apply without a deputy crossing.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};

use sdnshield_core::api::AppId;
use sdnshield_core::perm::PermissionSet;
use sdnshield_core::token::PermissionToken;
use sdnshield_netsim::network::Network;
use sdnshield_openflow::messages::PacketIn;
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::types::DatapathId;

use crate::api::{ApiError, DeputyRequest};
use crate::app::{send_deputy, App, AppCtx, BurstOutput, CallRoute, FastLane};
use crate::arena;
use crate::command::{Command, CommandOutcome, KernelSnapshot};
use crate::events::Event;
use crate::fault::{DeputyFault, FaultPlan, FaultRegistry};
use crate::journal::Journal;
use crate::kernel::{Kernel, OutboundEvent};

/// Outcome of pushing an event onto an [`AppQueue`].
enum PushOutcome {
    /// The event was queued.
    Queued,
    /// The queue was full: the event was queued and the *oldest* pending
    /// event was shed. Its ack sender (if any) is handed back so the caller
    /// can unblock waiters and fix the accounting.
    Shed(Option<Sender<()>>),
    /// The queue no longer accepts events (app stopped or crashed).
    Closed,
}

/// A queued event view plus the ack sender of a synchronous delivery
/// (`None` for asynchronous/vectored deliveries).
type QueuedEvent = (Arc<Event>, Option<Sender<()>>);

/// Accounting for a batched push (see [`AppQueue::push_batch`]).
#[derive(Default)]
struct BatchPushOutcome {
    /// Ack senders of the events shed to make room — one entry per shed
    /// event, `None` when the shed event carried no ack. The caller must
    /// acknowledge each and release its in-flight count.
    shed_acks: Vec<Option<Sender<()>>>,
    /// Events refused outright because the queue was closed or stopping.
    refused: usize,
}

/// A bounded per-app event queue with a shed-oldest overload policy.
///
/// Replaces an unbounded channel: a slow or stalled app can hold at most
/// `capacity` undelivered events; beyond that the oldest is discarded
/// (freshest-state-wins, the usual choice for network event streams) and
/// audited as [`crate::audit::AuditOutcome::Dropped`].
///
/// Events are `Arc`-shared: one fan-out builds at most two views of an
/// event (full and payload-stripped) no matter how many apps subscribe.
struct AppQueue {
    inner: StdMutex<AppQueueInner>,
    readable: Condvar,
    capacity: usize,
}

struct AppQueueInner {
    queue: VecDeque<QueuedEvent>,
    /// Stop requested: delivered after already-queued events drain.
    stop: bool,
    /// Closed: the app thread is gone; pushes are refused.
    closed: bool,
}

impl AppQueue {
    fn new(capacity: usize) -> Self {
        AppQueue {
            inner: StdMutex::new(AppQueueInner {
                queue: VecDeque::new(),
                stop: false,
                closed: false,
            }),
            readable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn push_event(&self, event: Arc<Event>, ack: Option<Sender<()>>) -> PushOutcome {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.closed || inner.stop {
            return PushOutcome::Closed;
        }
        let shed = if inner.queue.len() >= self.capacity {
            inner.queue.pop_front().map(|(_, old_ack)| old_ack)
        } else {
            None
        };
        inner.queue.push_back((event, ack));
        self.readable.notify_one();
        match shed {
            Some(old_ack) => PushOutcome::Shed(old_ack),
            None => PushOutcome::Queued,
        }
    }

    /// Enqueues a whole batch under one lock acquisition and wakes the app
    /// thread once — the vectored-delivery counterpart of
    /// [`AppQueue::push_event`]. The shed-oldest policy applies per slot.
    ///
    /// Drains `batch` rather than consuming it, so the caller can recycle
    /// the buffer through the [`crate::arena`] pool.
    fn push_batch(&self, batch: &mut Vec<Arc<Event>>) -> BatchPushOutcome {
        let mut out = BatchPushOutcome::default();
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.closed || inner.stop {
            out.refused = batch.len();
            batch.clear();
            return out;
        }
        for event in batch.drain(..) {
            if inner.queue.len() >= self.capacity {
                if let Some((_, old_ack)) = inner.queue.pop_front() {
                    out.shed_acks.push(old_ack);
                }
            }
            inner.queue.push_back((event, None));
        }
        self.readable.notify_one();
        out
    }

    fn push_stop(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.stop = true;
        self.readable.notify_all();
    }

    /// Blocks for the next burst of messages: clears `buf`, then drains up
    /// to `max` queued events into it in one lock acquisition. Returns the
    /// stop flag; stop is reported (with an empty buffer) only once queued
    /// events have drained. Taking the buffer from the caller lets the app
    /// thread reuse one allocation across its whole life.
    fn pop_batch_into(&self, buf: &mut Vec<QueuedEvent>, max: usize) -> bool {
        buf.clear();
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !inner.queue.is_empty() {
                let n = inner.queue.len().min(max.max(1));
                buf.extend(inner.queue.drain(..n));
                return false;
            }
            if inner.stop || inner.closed {
                return true;
            }
            inner = self.readable.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Refuses further pushes and hands back whatever was still queued so
    /// the caller can acknowledge and account for it.
    fn close_and_drain(&self) -> Vec<QueuedEvent> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.closed = true;
        inner.queue.drain(..).collect()
    }
}

struct AppHandle {
    queue: Arc<AppQueue>,
    thread: Option<JoinHandle<()>>,
}

/// Routes events to subscribed app threads.
pub(crate) struct Dispatcher {
    apps: Mutex<HashMap<AppId, AppHandle>>,
    /// Outstanding work items: undelivered app events plus unfinished deputy
    /// requests. Zero ⇒ the controller is quiescent.
    inflight: Arc<AtomicUsize>,
}

impl Dispatcher {
    fn new(inflight: Arc<AtomicUsize>) -> Self {
        Dispatcher {
            apps: Mutex::new(HashMap::new()),
            inflight,
        }
    }

    /// The subscribed targets for one event, as `(app, is_interceptor)`.
    fn targets_for(kernel: &Kernel, event: &Event) -> Vec<(AppId, bool)> {
        match event {
            Event::Custom { topic, .. } => kernel
                .topic_subscribers(topic)
                .into_iter()
                .map(|a| (a, false))
                .collect(),
            other => match other.kind() {
                Some(kind) => kernel.subscribers_phased(kind),
                None => Vec::new(),
            },
        }
    }

    /// Snapshots the live queue handles for `targets`, dropping the apps
    /// lock before any kernel call (provenance recording takes the tracker
    /// lock; holding the apps map across it would nest unrelated locks).
    fn queues_for(&self, targets: &[AppId]) -> Vec<(AppId, Arc<AppQueue>)> {
        let apps = self.apps.lock();
        targets
            .iter()
            .filter_map(|t| apps.get(t).map(|h| (*t, Arc::clone(&h.queue))))
            .collect()
    }

    /// Delivers events; when `sync`, blocks until every receiving app's
    /// handler has returned.
    ///
    /// Interceptors (apps whose event-token filter carries
    /// `EVENT_INTERCEPTION`) process each event to completion before
    /// non-interceptors see it; non-interceptors then process concurrently,
    /// all sharing one `Arc` view per (event, payload-visibility) pair.
    fn dispatch(&self, kernel: &Kernel, events: Vec<OutboundEvent>, sync: bool) {
        for out in events {
            self.dispatch_one(kernel, &out.event, sync);
        }
    }

    /// Asynchronous dispatch from an app thread (the events the app's
    /// returned output derived). Events with no interceptor target fan out
    /// here, as [`Dispatcher::dispatch`] would fan them out; the rest are
    /// handed back for a deputy to dispatch, because the interceptor phase
    /// waits and an app thread must never wait on an app.
    fn dispatch_unintercepted(
        &self,
        kernel: &Kernel,
        events: Vec<OutboundEvent>,
    ) -> Vec<OutboundEvent> {
        let mut intercepted = Vec::new();
        for out in events {
            let targets = Self::targets_for(kernel, &out.event);
            if targets.iter().any(|(_, i)| *i) {
                intercepted.push(out);
                continue;
            }
            let receivers: Vec<AppId> = targets.into_iter().map(|(a, _)| a).collect();
            self.fan_out(kernel, &out.event, &receivers, false, &mut Vec::new());
        }
        intercepted
    }

    fn dispatch_one(&self, kernel: &Kernel, event: &Event, sync: bool) {
        let targets = Self::targets_for(kernel, event);
        // Phase 1: interceptors, one at a time, to completion.
        for (target, _) in targets.iter().filter(|(_, i)| *i) {
            if let Some(ack) = self.send_event(kernel, *target, event, true) {
                let _ = ack.recv();
            }
        }
        // Phase 2: everyone else, concurrently, on shared views.
        let receivers: Vec<AppId> = targets
            .iter()
            .filter(|(_, i)| !*i)
            .map(|(a, _)| *a)
            .collect();
        let mut acks = Vec::new();
        self.fan_out(kernel, event, &receivers, sync, &mut acks);
        for ack in acks {
            let _ = ack.recv();
        }
    }

    /// Fans one event out to `targets` sharing at most two materialized
    /// views: the full event for apps holding `read_payload` (whose
    /// packet-in provenance is recorded in a single tracker pass) and a
    /// lazily built payload-stripped view for the rest. Non-packet-in
    /// events share a single view.
    fn fan_out(
        &self,
        kernel: &Kernel,
        event: &Event,
        targets: &[AppId],
        with_ack: bool,
        acks: &mut Vec<Receiver<()>>,
    ) {
        let live = self.queues_for(targets);
        if live.is_empty() {
            return;
        }
        if let Event::PacketIn { packet_in, .. } = event {
            let mut grants: Vec<(AppId, Bytes)> = Vec::new();
            let mut granted = Vec::new();
            let mut stripped_targets = Vec::new();
            for (target, queue) in live {
                if kernel.payload_access_for(target) {
                    grants.push((target, packet_in.payload.clone()));
                    granted.push((target, queue));
                } else {
                    stripped_targets.push((target, queue));
                }
            }
            kernel.record_pkt_ins(&grants);
            if !granted.is_empty() {
                let full = Arc::new(event.clone());
                for (target, queue) in granted {
                    if let Some(ack) =
                        self.push_shared(kernel, target, &queue, Arc::clone(&full), with_ack)
                    {
                        acks.push(ack);
                    }
                }
            }
            if !stripped_targets.is_empty() {
                let stripped = Arc::new(event.with_stripped_payload());
                for (target, queue) in stripped_targets {
                    if let Some(ack) =
                        self.push_shared(kernel, target, &queue, Arc::clone(&stripped), with_ack)
                    {
                        acks.push(ack);
                    }
                }
            }
        } else {
            let shared = Arc::new(event.clone());
            for (target, queue) in live {
                if let Some(ack) =
                    self.push_shared(kernel, target, &queue, Arc::clone(&shared), with_ack)
                {
                    acks.push(ack);
                }
            }
        }
    }

    /// Vectored delivery: enqueues a whole batch of events with one queue
    /// wake-up per receiving app and one provenance pass for every granted
    /// packet-in in the batch. Asynchronous by design — pair with
    /// [`ShieldedController::quiesce`]. Events with interceptor targets
    /// fall back to per-event dispatch (interception is a serialization
    /// point incompatible with batching).
    fn dispatch_vectored(&self, kernel: &Kernel, events: Vec<OutboundEvent>) {
        let mut per_app: HashMap<AppId, Vec<Arc<Event>>> = HashMap::new();
        let mut grants: Vec<(AppId, Bytes)> = Vec::new();
        for out in events {
            let event = out.event;
            let targets = Self::targets_for(kernel, &event);
            if targets.iter().any(|(_, i)| *i) {
                self.dispatch_one(kernel, &event, false);
                continue;
            }
            if let Event::PacketIn { packet_in, .. } = &event {
                let mut full: Option<Arc<Event>> = None;
                let mut stripped: Option<Arc<Event>> = None;
                for (target, _) in &targets {
                    let view = if kernel.payload_access_for(*target) {
                        grants.push((*target, packet_in.payload.clone()));
                        full.get_or_insert_with(|| Arc::new(event.clone()))
                    } else {
                        stripped.get_or_insert_with(|| Arc::new(event.with_stripped_payload()))
                    };
                    per_app
                        .entry(*target)
                        .or_insert_with(arena::lease_event_batch)
                        .push(Arc::clone(view));
                }
            } else {
                let shared = Arc::new(event);
                for (target, _) in &targets {
                    per_app
                        .entry(*target)
                        .or_insert_with(arena::lease_event_batch)
                        .push(Arc::clone(&shared));
                }
            }
        }
        kernel.record_pkt_ins(&grants);
        let mut batches: Vec<(AppId, Arc<AppQueue>, Vec<Arc<Event>>)> =
            Vec::with_capacity(per_app.len());
        {
            let apps = self.apps.lock();
            for (target, batch) in per_app {
                match apps.get(&target) {
                    Some(h) => batches.push((target, Arc::clone(&h.queue), batch)),
                    None => arena::recycle_event_batch(batch),
                }
            }
        }
        for (target, queue, mut batch) in batches {
            self.inflight.fetch_add(batch.len(), Ordering::SeqCst);
            let outcome = queue.push_batch(&mut batch);
            arena::recycle_event_batch(batch);
            let undone = outcome.shed_acks.len() + outcome.refused;
            for old_ack in outcome.shed_acks {
                if let Some(old_ack) = old_ack {
                    let _ = old_ack.send(());
                }
                kernel.audit_dropped(target, "event_shed");
            }
            if undone > 0 {
                self.inflight.fetch_sub(undone, Ordering::SeqCst);
            }
        }
    }

    /// Sends one event view to one app; returns the ack receiver when the
    /// send is acknowledged (`with_ack`). An event shed from a full queue is
    /// acknowledged on the spot and audited; a closed queue (crashed or
    /// stopped app) refuses the event with the accounting undone.
    fn send_event(
        &self,
        kernel: &Kernel,
        target: AppId,
        event: &Event,
        with_ack: bool,
    ) -> Option<crossbeam::channel::Receiver<()>> {
        let queue = {
            let apps = self.apps.lock();
            Arc::clone(&apps.get(&target)?.queue)
        };
        let view = kernel.event_view_for(target, event)?;
        self.push_shared(kernel, target, &queue, Arc::new(view), with_ack)
    }

    /// Pushes an already-materialized shared view onto one app queue, with
    /// the in-flight/shed/closed accounting shared by every delivery path.
    fn push_shared(
        &self,
        kernel: &Kernel,
        target: AppId,
        queue: &AppQueue,
        view: Arc<Event>,
        with_ack: bool,
    ) -> Option<crossbeam::channel::Receiver<()>> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let (ack_tx, ack_rx) = if with_ack {
            let (tx, rx) = bounded(1);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        match queue.push_event(view, ack_tx) {
            PushOutcome::Queued => ack_rx,
            PushOutcome::Shed(old_ack) => {
                if let Some(old_ack) = old_ack {
                    let _ = old_ack.send(());
                }
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                kernel.audit_dropped(target, "event_shed");
                ack_rx
            }
            PushOutcome::Closed => {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                None
            }
        }
    }
}

/// Errors registering an app.
#[derive(Debug, Clone, PartialEq)]
pub enum RegisterError {
    /// Loading-time check failed: these required tokens are not granted.
    MissingTokens(Vec<PermissionToken>),
    /// The manifest's virtual topology is invalid for this network.
    InvalidManifest(String),
    /// The app panicked inside `on_start`; it was not started.
    StartupPanic,
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::MissingTokens(ts) => {
                write!(f, "app requires ungranted tokens: ")?;
                let mut sep = "";
                for t in ts {
                    write!(f, "{sep}{t}")?;
                    sep = ", ";
                }
                Ok(())
            }
            RegisterError::InvalidManifest(m) => write!(f, "invalid manifest: {m}"),
            RegisterError::StartupPanic => write!(f, "app panicked during on_start"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Lifecycle state of a registered app, as seen by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// Processing events normally.
    Running,
    /// Just crashed; the restart policy has not been applied yet. Observable
    /// only transiently — the supervisor immediately moves the app to
    /// [`AppState::Quarantined`] or [`AppState::Stopped`].
    Crashed,
    /// Crashed and waiting out its restart backoff; the supervisor restarts
    /// it once the virtual clock reaches `until`.
    Quarantined {
        /// Virtual time (seconds) at which the restart becomes due.
        until: u64,
    },
    /// A restart is in progress (`on_start` of the fresh instance running).
    Restarting,
    /// Terminal: stopped by policy ([`RestartPolicy::Never`] or restart
    /// budget exhausted) or by controller shutdown.
    Stopped,
}

/// What the supervisor does with an app that crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Never restart: one crash and the app stays down.
    #[default]
    Never,
    /// Restart up to `max_restarts` times, with exponential backoff on the
    /// virtual clock: the k-th restart (1-based) waits
    /// `backoff_base_secs * 2^(k-1)` virtual seconds in quarantine.
    UpTo {
        /// Restart budget.
        max_restarts: u32,
        /// First backoff, in virtual seconds; doubles per restart.
        backoff_base_secs: u64,
    },
}

/// Tunables for the isolation + supervision machinery.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Kernel Service Deputy threads (must be ≥ 1; service apps publishing
    /// synchronous custom events need ≥ 2).
    pub num_deputies: usize,
    /// Bound on each app's undelivered-event queue; beyond it the oldest
    /// pending event is shed.
    pub app_queue_capacity: usize,
    /// Per-call reply deadline on the app side.
    pub call_timeout: Duration,
    /// Serve call-only read calls on the app's own thread (zero channel
    /// crossings), falling back to the deputy for every stateful or
    /// mutating call. On by default; turn off to force the pure-deputy path
    /// (baseline measurements, differentials).
    pub read_fast_path: bool,
    /// No effect; kept only because `benchmark/src/common.rs` names it.
    /// ROADMAP item 1(a)'s `[benchmark]` PR deletes it.
    pub switch_lanes: usize,
    /// Pin deputy threads to cores round-robin (best-effort
    /// `sched_setaffinity`; a no-op where unsupported). Off by default.
    pub pin_threads: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            num_deputies: 4,
            app_queue_capacity: 1024,
            call_timeout: Duration::from_secs(10),
            read_fast_path: true,
            switch_lanes: 0,
            pin_threads: false,
        }
    }
}

type AppFactory = Box<dyn Fn() -> Box<dyn App> + Send>;

/// Supervisor bookkeeping for one registered app.
struct Supervised {
    name: String,
    manifest: PermissionSet,
    policy: RestartPolicy,
    /// Builds a fresh instance for restarts; `None` ⇒ not restartable.
    factory: Option<AppFactory>,
    state: AppState,
    crashes: u32,
    restarts: u32,
}

/// Lifecycle state for every registered app, shared between the controller
/// front-end and the app threads (which report their own crashes).
#[derive(Default)]
pub(crate) struct Supervisor {
    entries: Mutex<HashMap<AppId, Supervised>>,
}

impl Supervised {
    /// The state after one more crash, given the policy and current budget.
    fn state_after_crash(&self, now: u64) -> AppState {
        match self.policy {
            RestartPolicy::Never => AppState::Stopped,
            RestartPolicy::UpTo {
                max_restarts,
                backoff_base_secs,
            } => {
                if self.factory.is_some() && self.restarts < max_restarts {
                    AppState::Quarantined {
                        until: now + (backoff_base_secs << self.restarts),
                    }
                } else {
                    AppState::Stopped
                }
            }
        }
    }
}

/// Reaps a crashed app end-to-end. Runs on the crashed app's own thread
/// (for `on_event` crashes): unroutes it, reclaims its kernel state and
/// flows, audits the crash, and applies the restart policy.
fn handle_crash(
    kernel: &Kernel,
    dispatcher: &Dispatcher,
    supervisor: &Supervisor,
    id: AppId,
    phase: &str,
) {
    // Stop routing events to the dead thread. (The JoinHandle is dropped:
    // this IS that thread, so joining is neither possible nor needed.)
    dispatcher.apps.lock().remove(&id);
    // Reclaim everything the app held; surviving subscribers learn of the
    // reclaimed flows exactly as they would of a timeout expiry.
    let events = kernel.deregister_app(id);
    kernel.audit_crash(id, phase);
    dispatcher.dispatch(kernel, events, false);
    // Apply the restart policy.
    let mut entries = supervisor.entries.lock();
    if let Some(sup) = entries.get_mut(&id) {
        sup.crashes += 1;
        sup.state = AppState::Crashed;
        sup.state = sup.state_after_crash(kernel.now());
    }
}

/// The deputy pool plus the shared state its watchdog needs to respawn
/// members that die.
struct DeputyPool {
    cell: Arc<KernelCell>,
    dispatcher: Arc<Dispatcher>,
    call_rx: Receiver<DeputyRequest>,
    inflight: Arc<AtomicUsize>,
    faults: Arc<FaultRegistry>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_deputy: AtomicUsize,
    respawns: AtomicUsize,
    shutting_down: AtomicBool,
    /// Core-affine deputy shards: pin each deputy to a core, round-robin,
    /// best-effort (the ROADMAP's "NUMA/core-pinned deputy shards" lever).
    pin_threads: bool,
}

impl DeputyPool {
    fn spawn_deputy(&self) {
        let i = self.next_deputy.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::clone(&self.cell);
        let dispatcher = Arc::clone(&self.dispatcher);
        let rx = self.call_rx.clone();
        let inflight = Arc::clone(&self.inflight);
        let faults = Arc::clone(&self.faults);
        let pin = self.pin_threads;
        let handle = std::thread::Builder::new()
            .name(format!("ksd-{i}"))
            .spawn(move || {
                if pin {
                    let _ = affinity::pin_to_core(i);
                }
                deputy_loop(cell, dispatcher, rx, inflight, faults)
            })
            .expect("spawn deputy");
        self.handles.lock().push(handle);
    }

    /// Joins any deputy thread that died and spawns a replacement. Returns
    /// how many were replaced.
    fn reap_and_respawn(&self) -> usize {
        let mut dead = 0;
        {
            let mut handles = self.handles.lock();
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    let _ = handles.swap_remove(i).join();
                    dead += 1;
                } else {
                    i += 1;
                }
            }
        }
        for _ in 0..dead {
            self.spawn_deputy();
        }
        self.respawns.fetch_add(dead, Ordering::SeqCst);
        dead
    }
}

/// Polls the pool for dead deputies until shutdown.
fn watchdog_loop(pool: Arc<DeputyPool>) {
    while !pool.shutting_down.load(Ordering::SeqCst) {
        pool.reap_and_respawn();
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The swappable handle to the active kernel (warm-standby failover,
/// DESIGN.md §12).
///
/// Deputies, app threads and the controller front-end no longer pin an
/// `Arc<Kernel>` for their lifetime; they hold the cell and load the active
/// kernel at the point of use. [`ShieldedController::promote`] swaps a
/// caught-up standby in; nothing caches per-kernel state across loads, so
/// there is nothing to invalidate.
///
/// Loads take an uncontended `RwLock` read — promotion is rare, reads are
/// the common case — and each load is a self-contained `Arc` clone, so a
/// component that loaded the old kernel mid-failover finishes its current
/// operation against the sealed primary (observing [`ApiError::Shutdown`]
/// for mutations) and picks up the promoted kernel on its next load.
pub struct KernelCell {
    current: RwLock<Arc<Kernel>>,
}

impl KernelCell {
    /// Wraps the initial kernel.
    pub fn new(kernel: Arc<Kernel>) -> Self {
        KernelCell {
            current: RwLock::new(kernel),
        }
    }

    /// The active kernel.
    pub fn load(&self) -> Arc<Kernel> {
        Arc::clone(&self.current.read())
    }

    /// Swaps in a new active kernel (failover promotion).
    pub fn store(&self, kernel: Arc<Kernel>) {
        *self.current.write() = kernel;
    }
}

/// A warm-standby kernel tailing the primary's command journal
/// (DESIGN.md §12).
///
/// The standby is stood up from a [`KernelSnapshot`] over its own simulated
/// network replica and catches up by replaying journal records past its
/// `last_applied` watermark. Replay is idempotent (keyed by sequence
/// number), so tailing while the primary still appends is safe: a record
/// replayed early is skipped when seen again.
///
/// Promotion ([`ShieldedController::promote`]) seals the primary first —
/// the seal is a barrier behind the commit lock, so by the time the final
/// [`WarmStandby::catch_up`] runs, the journal holds every command whose
/// reply was acknowledged to a caller. Zero acknowledged commands are lost;
/// duplicate applies are impossible.
pub struct WarmStandby {
    kernel: Arc<Kernel>,
    journal: Arc<Journal>,
}

impl WarmStandby {
    /// Recovers a standby kernel from `snapshot` over `network` and tails
    /// `journal` from the snapshot's watermark.
    pub fn new(network: Network, snapshot: &KernelSnapshot, journal: Arc<Journal>) -> Self {
        let kernel = Arc::new(Kernel::recover(network, snapshot, &journal));
        WarmStandby { kernel, journal }
    }

    /// Replays every journal record the standby has not applied yet.
    /// Returns how many were applied. Call periodically while tailing, and
    /// once more (via [`ShieldedController::promote`]) after the primary is
    /// sealed.
    pub fn catch_up(&self) -> usize {
        let records = self.journal.records_since(self.kernel.last_applied());
        self.kernel.replay_records(&records)
    }

    /// The standby kernel, for inspection (it is not serving apps yet).
    pub fn kernel(&self) -> Arc<Kernel> {
        Arc::clone(&self.kernel)
    }
}

/// The SDNShield-enabled controller: kernel + deputy pool + isolated apps.
///
/// # Examples
///
/// ```
/// use sdnshield_controller::isolation::ShieldedController;
/// use sdnshield_netsim::network::Network;
/// use sdnshield_netsim::topology::builders;
///
/// let controller = ShieldedController::new(Network::new(builders::linear(2), 1024), 2);
/// controller.shutdown();
/// ```
pub struct ShieldedController {
    cell: Arc<KernelCell>,
    call_tx: Sender<DeputyRequest>,
    dispatcher: Arc<Dispatcher>,
    pool: Arc<DeputyPool>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    supervisor: Arc<Supervisor>,
    faults: Arc<FaultRegistry>,
    next_app: AtomicU16,
    inflight: Arc<AtomicUsize>,
    fast_hits: Arc<AtomicU64>,
    config: ControllerConfig,
}

impl ShieldedController {
    /// Builds a controller over a network with `num_deputies` Kernel Service
    /// Deputy threads and default supervision tunables.
    ///
    /// # Panics
    ///
    /// Panics when `num_deputies == 0`. Note that service apps publishing
    /// synchronous custom events need at least 2 deputies (the publisher's
    /// deputy blocks on subscriber acknowledgment while subscribers issue
    /// their own calls).
    pub fn new(network: Network, num_deputies: usize) -> Self {
        Self::new_with_config(
            network,
            ControllerConfig {
                num_deputies,
                ..ControllerConfig::default()
            },
        )
    }

    /// Builds a controller with explicit supervision tunables.
    ///
    /// # Panics
    ///
    /// Panics when `config.num_deputies == 0`.
    pub fn new_with_config(network: Network, config: ControllerConfig) -> Self {
        assert!(config.num_deputies > 0, "need at least one deputy");
        let kernel = Arc::new(Kernel::new(network, true));
        let cell = Arc::new(KernelCell::new(kernel));
        let inflight = Arc::new(AtomicUsize::new(0));
        let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&inflight)));
        let faults = Arc::new(FaultRegistry::default());
        let (call_tx, call_rx) = unbounded::<DeputyRequest>();
        let pool = Arc::new(DeputyPool {
            cell: Arc::clone(&cell),
            dispatcher: Arc::clone(&dispatcher),
            call_rx,
            inflight: Arc::clone(&inflight),
            faults: Arc::clone(&faults),
            handles: Mutex::new(Vec::new()),
            next_deputy: AtomicUsize::new(0),
            respawns: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            pin_threads: config.pin_threads,
        });
        for _ in 0..config.num_deputies {
            pool.spawn_deputy();
        }
        let watchdog = {
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("ksd-watchdog".into())
                .spawn(move || watchdog_loop(pool))
                .expect("spawn watchdog")
        };
        ShieldedController {
            cell,
            call_tx,
            dispatcher,
            pool,
            watchdog: Mutex::new(Some(watchdog)),
            supervisor: Arc::new(Supervisor::default()),
            faults,
            next_app: AtomicU16::new(1),
            inflight,
            fast_hits: Arc::new(AtomicU64::new(0)),
            config,
        }
    }

    /// How many API calls the app-side read fast path has served without a
    /// deputy crossing (all registered apps combined).
    pub fn fast_path_hits(&self) -> u64 {
        self.fast_hits.load(Ordering::Relaxed)
    }

    /// Write-pipeline counters of the *active* kernel (DESIGN.md §16):
    /// submits, journal writes, and records written by another submitter's
    /// write. After a [`ShieldedController::promote`] the counters restart
    /// with the promoted kernel, like every other per-kernel statistic.
    pub fn combiner_stats(&self) -> crate::kernel::CombinerStats {
        self.cell.load().combiner_stats()
    }

    /// Blocks until all in-flight events and calls have drained — including
    /// cascades the synchronous delivery calls do not wait for (e.g. the
    /// packet-ins a flooded packet-out generates on downstream switches).
    pub fn quiesce(&self) {
        while !self.quiesce_timeout(Duration::from_millis(100)) {}
    }

    /// Like [`ShieldedController::quiesce`], but gives up at the deadline.
    /// Returns whether the controller actually went quiescent — `false`
    /// means work was still outstanding (e.g. an app stalled inside
    /// `on_event`), and the caller decides what to do about it instead of
    /// spinning forever.
    pub fn quiesce_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable = 0;
        loop {
            if self.inflight.load(Ordering::SeqCst) == 0 {
                stable += 1;
                if stable >= 3 {
                    return true;
                }
            } else {
                stable = 0;
            }
            if Instant::now() >= deadline {
                return self.inflight.load(Ordering::SeqCst) == 0;
            }
            std::thread::yield_now();
        }
    }

    /// The active kernel, for inspection (tests, benches, forensics).
    ///
    /// The returned handle is a point-in-time load: after a
    /// [`ShieldedController::promote`] it refers to the sealed old primary;
    /// load again to observe the promoted kernel.
    pub fn kernel(&self) -> Arc<Kernel> {
        self.cell.load()
    }

    /// The kernel cell (components that must track failover hold this).
    pub fn kernel_cell(&self) -> Arc<KernelCell> {
        Arc::clone(&self.cell)
    }

    /// Attaches a command journal to the active kernel: every subsequent
    /// state-changing command is appended in commit order (see
    /// [`crate::journal`]).
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        self.cell.load().attach_journal(journal);
    }

    /// A consistent snapshot of the active kernel — the starting point for
    /// standing up a [`WarmStandby`] or writing a checkpoint to disk.
    pub fn snapshot(&self) -> KernelSnapshot {
        self.cell.load().snapshot()
    }

    /// Fails over to `standby` and returns the promoted kernel.
    ///
    /// Protocol (DESIGN.md §12): seal the active kernel — the seal is a
    /// barrier, so every command whose reply was acknowledged has finished
    /// appending to the journal — then replay the journal tail into the
    /// standby, hand the journal over to the promoted kernel, and swap it
    /// into the cell. Deputies and app threads pick the promoted kernel up
    /// on their next load; calls that raced the seal observe
    /// [`ApiError::Shutdown`] and can be retried against the new primary.
    pub fn promote(&self, standby: &WarmStandby) -> Arc<Kernel> {
        let old = self.cell.load();
        old.seal();
        standby.catch_up();
        let promoted = standby.kernel();
        if let Some(journal) = old.journal() {
            promoted.attach_journal(journal);
        }
        self.cell.store(Arc::clone(&promoted));
        promoted
    }

    /// Registers an app with its (reconciled) permission manifest: compiles
    /// the permission engine, runs the loading-time token check, spawns the
    /// app's unprivileged thread, and runs `on_start` to completion. The
    /// app is supervised with [`RestartPolicy::Never`]: a crash reaps it
    /// permanently.
    ///
    /// # Errors
    ///
    /// [`RegisterError`] on loading-time failures; the app is not started
    /// and no kernel state survives the failure.
    pub fn register(
        &self,
        app: Box<dyn App>,
        manifest: &PermissionSet,
    ) -> Result<AppId, RegisterError> {
        self.register_inner(app, manifest, RestartPolicy::Never, None)
    }

    /// Registers a *restartable* app: `factory` builds a fresh instance for
    /// the initial start and for every supervised restart after a crash,
    /// per `policy`. Restarts keep the same [`AppId`] (audit continuity)
    /// and re-run `on_start` on the fresh instance once the quarantine
    /// backoff elapses on the virtual clock (see
    /// [`ShieldedController::advance_clock`]).
    ///
    /// # Errors
    ///
    /// As [`ShieldedController::register`].
    pub fn register_supervised(
        &self,
        factory: impl Fn() -> Box<dyn App> + Send + 'static,
        manifest: &PermissionSet,
        policy: RestartPolicy,
    ) -> Result<AppId, RegisterError> {
        let app = factory();
        self.register_inner(app, manifest, policy, Some(Box::new(factory)))
    }

    fn register_inner(
        &self,
        app: Box<dyn App>,
        manifest: &PermissionSet,
        policy: RestartPolicy,
        factory: Option<AppFactory>,
    ) -> Result<AppId, RegisterError> {
        let id = AppId(self.next_app.fetch_add(1, Ordering::Relaxed));
        let name = app.name().to_owned();
        let kernel = self.cell.load();
        kernel
            .register_app(id, &name, manifest)
            .map_err(|e| RegisterError::InvalidManifest(e.to_string()))?;
        let missing = kernel.missing_tokens(id, &app.required_tokens());
        if !missing.is_empty() {
            // Roll the registration back: without this the rejected app
            // would stay resident in the kernel (engine + name) forever.
            kernel.deregister_app(id);
            return Err(RegisterError::MissingTokens(missing));
        }
        self.supervisor.entries.lock().insert(
            id,
            Supervised {
                name: name.clone(),
                manifest: manifest.clone(),
                policy,
                factory,
                state: AppState::Running,
                crashes: 0,
                restarts: 0,
            },
        );
        match self.spawn_app(id, &name, app) {
            Ok(()) => Ok(id),
            Err(e) => {
                // Registration-time startup panic is a registration failure,
                // not a crash: undo everything.
                kernel.deregister_app(id);
                self.supervisor.entries.lock().remove(&id);
                Err(e)
            }
        }
    }

    /// Spawns the app thread and waits for `on_start` to finish.
    fn spawn_app(&self, id: AppId, name: &str, app: Box<dyn App>) -> Result<(), RegisterError> {
        let fast = self.config.read_fast_path.then(|| {
            Arc::new(FastLane::new(
                Arc::clone(&self.cell),
                Arc::clone(&self.fast_hits),
            ))
        });
        let ctx = AppCtx::new(
            id,
            CallRoute::Deputy {
                tx: self.call_tx.clone(),
                inflight: Arc::clone(&self.inflight),
                timeout: self.config.call_timeout,
            },
            fast,
        );
        let queue = Arc::new(AppQueue::new(self.config.app_queue_capacity));
        let (ready_tx, ready_rx) = bounded(1);
        let thread_name = format!("app-{}-{name}", id.0);
        let thread = {
            let queue = Arc::clone(&queue);
            let cell = Arc::clone(&self.cell);
            let dispatcher = Arc::clone(&self.dispatcher);
            let supervisor = Arc::clone(&self.supervisor);
            let inflight = Arc::clone(&self.inflight);
            let faults = Arc::clone(&self.faults);
            let deputies = self.call_tx.clone();
            std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || {
                    app_loop(
                        app, ctx, id, queue, ready_tx, cell, dispatcher, supervisor, inflight,
                        faults, deputies,
                    )
                })
                .expect("spawn app thread")
        };
        self.dispatcher.apps.lock().insert(
            id,
            AppHandle {
                queue,
                thread: Some(thread),
            },
        );
        // Wait for on_start so subscriptions exist before events flow.
        if !ready_rx.recv().unwrap_or(false) {
            if let Some(mut handle) = self.dispatcher.apps.lock().remove(&id) {
                if let Some(t) = handle.thread.take() {
                    let _ = t.join();
                }
            }
            return Err(RegisterError::StartupPanic);
        }
        Ok(())
    }

    /// Arms a fault-injection plan for an app's mediated calls (the
    /// deputy-side faults; app-side faults live in the app under test —
    /// see [`crate::fault`]).
    pub fn arm_faults(&self, app: AppId, plan: FaultPlan) {
        let journal_faults = plan.journal_faults();
        if !journal_faults.is_none() {
            if let Some(journal) = self.cell.load().journal() {
                journal.arm_faults(journal_faults);
            }
        }
        self.faults.arm(app, plan);
    }

    /// The supervisor's view of an app's lifecycle state.
    pub fn app_state(&self, app: AppId) -> Option<AppState> {
        self.supervisor
            .entries
            .lock()
            .get(&app)
            .map(|sup| sup.state)
    }

    /// How many times an app has crashed (any phase).
    pub fn crash_count(&self, app: AppId) -> u32 {
        self.supervisor
            .entries
            .lock()
            .get(&app)
            .map_or(0, |sup| sup.crashes)
    }

    /// How many restart attempts the supervisor has made for an app.
    pub fn restart_count(&self, app: AppId) -> u32 {
        self.supervisor
            .entries
            .lock()
            .get(&app)
            .map_or(0, |sup| sup.restarts)
    }

    /// How many dead deputy threads the watchdog has replaced.
    pub fn deputy_respawns(&self) -> usize {
        self.pool.respawns.load(Ordering::SeqCst)
    }

    /// Deputy threads currently alive.
    pub fn deputies_alive(&self) -> usize {
        self.pool
            .handles
            .lock()
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// The registered name of an app (survives crashes, for forensics).
    pub fn app_name(&self, app: AppId) -> Option<String> {
        self.supervisor
            .entries
            .lock()
            .get(&app)
            .map(|sup| sup.name.clone())
    }

    /// Delivers a packet-in to subscribed apps, blocking until every app has
    /// processed it (the measurement boundary for the paper's latency
    /// experiments).
    pub fn deliver_packet_in(&self, dpid: DatapathId, packet_in: PacketIn) {
        let kernel = self.cell.load();
        let events = kernel.feed_packet_in(dpid, packet_in);
        self.dispatcher.dispatch(&kernel, events, true);
    }

    /// Delivers a packet-in without waiting for app processing — the
    /// pipelined pressure-test mode (paper Fig 7: CBench keeps many
    /// packet-ins outstanding). Pair with [`ShieldedController::quiesce`].
    pub fn deliver_packet_in_nowait(&self, dpid: DatapathId, packet_in: PacketIn) {
        let kernel = self.cell.load();
        let events = kernel.feed_packet_in(dpid, packet_in);
        self.dispatcher.dispatch(&kernel, events, false);
    }

    /// Delivers a whole batch of packet-ins with vectored dispatch: events
    /// are grouped per subscribing app and enqueued with one wake-up per
    /// app, sharing `Arc` views and a single provenance pass. Asynchronous —
    /// pair with [`ShieldedController::quiesce`]. This is the high-rate
    /// ingestion path the paper's Fig 7 CBench workload exercises.
    pub fn deliver_packet_in_batch(&self, batch: Vec<(DatapathId, PacketIn)>) {
        let kernel = self.cell.load();
        let mut events = Vec::new();
        for (dpid, packet_in) in batch {
            events.extend(kernel.feed_packet_in(dpid, packet_in));
        }
        self.dispatcher.dispatch_vectored(&kernel, events);
    }

    /// Injects a data-plane frame from a host and synchronously processes
    /// the resulting packet-ins.
    pub fn inject_host_frame(&self, frame: EthernetFrame) {
        let kernel = self.cell.load();
        let events = kernel.inject_host_frame(frame);
        self.dispatcher.dispatch(&kernel, events, true);
    }

    /// Publishes a custom event from outside the app layer (test drivers:
    /// e.g. simulating an inbound web request waking an app), blocking until
    /// subscribers have processed it.
    pub fn publish_topic(&self, topic: &str, data: bytes::Bytes) {
        let events = vec![crate::kernel::OutboundEvent {
            event: Event::Custom {
                topic: topic.to_owned(),
                data,
            },
        }];
        self.dispatcher.dispatch(&self.cell.load(), events, true);
    }

    /// Fails a physical link and synchronously notifies topology
    /// subscribers. Returns whether the link existed.
    pub fn fail_link(&self, a: DatapathId, b: DatapathId) -> bool {
        let kernel = self.cell.load();
        match kernel.fail_link(a, b) {
            Some(event) => {
                self.dispatcher.dispatch(&kernel, vec![event], true);
                true
            }
            None => false,
        }
    }

    /// Fires a topology-change notification to subscribed apps (the ALTO
    /// scenario driver), blocking until processed.
    pub fn deliver_topology_change(&self, description: &str) {
        let events = vec![crate::kernel::OutboundEvent {
            event: Event::TopologyChanged {
                description: description.to_owned(),
            },
        }];
        self.dispatcher.dispatch(&self.cell.load(), events, true);
    }

    /// Advances the virtual clock: flow-removed events dispatch
    /// synchronously, then any quarantined app whose backoff has elapsed is
    /// restarted.
    pub fn advance_clock(&self, secs: u64) {
        let kernel = self.cell.load();
        let events = kernel.advance_clock(secs);
        self.dispatcher.dispatch(&kernel, events, true);
        self.process_due_restarts();
    }

    /// Restarts every quarantined app whose backoff deadline has passed.
    fn process_due_restarts(&self) {
        loop {
            let kernel = self.cell.load();
            let now = kernel.now();
            // Claim one due entry at a time so the entries lock is not held
            // across the restart itself (on_start runs app code).
            let due = {
                let mut entries = self.supervisor.entries.lock();
                entries.iter_mut().find_map(|(id, sup)| match sup.state {
                    AppState::Quarantined { until } if until <= now => {
                        let fresh = sup.factory.as_ref().map(|f| f());
                        fresh.map(|app| {
                            sup.state = AppState::Restarting;
                            sup.restarts += 1;
                            (*id, sup.name.clone(), sup.manifest.clone(), app)
                        })
                    }
                    _ => None,
                })
            };
            let Some((id, name, manifest, app)) = due else {
                return;
            };
            // The crash reaping removed the app's engine; re-register it.
            if kernel.register_app(id, &name, &manifest).is_err() {
                if let Some(sup) = self.supervisor.entries.lock().get_mut(&id) {
                    sup.state = AppState::Stopped;
                }
                continue;
            }
            match self.spawn_app(id, &name, app) {
                Ok(()) => {
                    if let Some(sup) = self.supervisor.entries.lock().get_mut(&id) {
                        sup.state = AppState::Running;
                    }
                }
                Err(_) => {
                    // The fresh instance crashed in on_start: that is a
                    // crash like any other — reap, audit, re-apply policy.
                    kernel.deregister_app(id);
                    kernel.audit_crash(id, "on_start");
                    let now = kernel.now();
                    if let Some(sup) = self.supervisor.entries.lock().get_mut(&id) {
                        sup.crashes += 1;
                        sup.state = sup.state_after_crash(now);
                    }
                }
            }
        }
    }

    /// Stops all app threads and deputies, waiting for them to exit.
    pub fn shutdown(&self) {
        // Collect join handles first and release the apps lock before
        // joining: a deputy may be waiting on that lock to dispatch a
        // derived event while an app waits on that deputy's reply — joining
        // with the lock held would deadlock the triangle.
        let handles: Vec<JoinHandle<()>> = {
            let mut apps = self.dispatcher.apps.lock();
            apps.iter_mut()
                .filter_map(|(_, handle)| {
                    handle.queue.push_stop();
                    handle.thread.take()
                })
                .collect()
        };
        for t in handles {
            let _ = t.join();
        }
        // Stop the watchdog before the deputies, so it does not resurrect
        // them as they exit.
        self.pool.shutting_down.store(true, Ordering::SeqCst);
        if let Some(w) = self.watchdog.lock().take() {
            let _ = w.join();
        }
        let mut deputies = self.pool.handles.lock();
        for _ in deputies.iter() {
            let _ = self.call_tx.send(DeputyRequest::Stop);
        }
        for t in deputies.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ShieldedController {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[allow(clippy::too_many_arguments)]
fn app_loop(
    mut app: Box<dyn App>,
    ctx: AppCtx,
    id: AppId,
    queue: Arc<AppQueue>,
    ready: Sender<bool>,
    cell: Arc<KernelCell>,
    dispatcher: Arc<Dispatcher>,
    supervisor: Arc<Supervisor>,
    inflight: Arc<AtomicUsize>,
    faults: Arc<FaultRegistry>,
    deputies: Sender<DeputyRequest>,
) {
    // Panics inside app code stay inside the app's thread — the isolation
    // property the paper's thread containers provide. A panicking app is
    // reaped by the supervisor; the controller and its peers keep running.
    let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        app.on_start(&ctx);
    }))
    .is_ok();
    let _ = ready.send(started);
    if !started {
        // The registration (or restart) path owns the rollback.
        return;
    }
    // One reusable event buffer for the life of the app thread — cleared
    // and refilled per burst, never reallocated once grown to the batch cap.
    let mut batch: Vec<QueuedEvent> = Vec::new();
    loop {
        let stop = queue.pop_batch_into(&mut batch, APP_BATCH_MAX);
        if batch.is_empty() {
            if stop {
                break;
            }
            continue;
        }
        let views: Vec<&Event> = batch.iter().map(|(event, _)| event.as_ref()).collect();
        // A panic in the handler is the app's crash. Its output is applied
        // afterwards under a guard of its own, and the acks only fire after
        // that: a synchronous delivery observes the event's full effect,
        // returned packet-outs and flow-mods included.
        let output =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| app.on_events(&ctx, &views)));
        let crashed = output.is_err();
        if let Ok(output) = output {
            apply_output(
                &cell,
                &dispatcher,
                &faults,
                &deputies,
                &inflight,
                id,
                output,
            );
        }
        // Always acknowledge and account, even on a crash, so synchronous
        // deliveries and quiesce() never wedge.
        for (_, ack) in &batch {
            if let Some(ack) = ack {
                let _ = ack.send(());
            }
        }
        inflight.fetch_sub(batch.len(), Ordering::SeqCst);
        if crashed {
            let kernel = cell.load();
            drain_queue(&queue, &kernel, id, &inflight, true);
            handle_crash(&kernel, &dispatcher, &supervisor, id, "on_event");
            return;
        }
    }
    // Graceful stop: account for anything still queued so quiesce() and
    // synchronous dispatchers stay accurate.
    drain_queue(&queue, &cell.load(), id, &inflight, false);
}

/// Applies the output a handler burst returned, on the app's own thread
/// and as the app, against the kernel loaded once for the burst: the
/// packet-outs, then the flow operations as one batch. Order, commands,
/// journal, audit and decision-trace records are those a deputy would
/// produce executing the same two groups. Like a deputy,
/// this is trusted code under its own unwind guard: a kernel panic here is
/// contained and never counted as the app's crash, and the app's armed
/// [`FaultPlan`] panic fires here too.
///
/// Derived events dispatch asynchronously, as a deputy's do. Those with
/// an interceptor target go to the deputy pool in one fire-and-forget
/// request, so a deputy waits for the interceptors, and the app thread
/// never waits on an app (itself included).
fn apply_output(
    cell: &KernelCell,
    dispatcher: &Dispatcher,
    faults: &FaultRegistry,
    deputies: &Sender<DeputyRequest>,
    inflight: &AtomicUsize,
    id: AppId,
    output: BurstOutput,
) {
    if output.is_empty() {
        return;
    }
    let BurstOutput {
        packet_outs,
        flow_ops,
    } = output;
    let kernel = cell.load();
    let mut intercepted = Vec::new();
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if faults.output_panic(id) {
            panic!("injected fault: panic while applying a burst's output");
        }
        if !packet_outs.is_empty() {
            let cmd = Command::PacketOuts {
                app: id,
                outs: packet_outs,
            };
            let (_, events) = kernel.submit(cmd);
            intercepted.extend(dispatcher.dispatch_unintercepted(&kernel, events));
        }
        if !flow_ops.is_empty() {
            let cmd = Command::Batch {
                app: id,
                ops: flow_ops,
            };
            let (_, events) = kernel.submit(cmd);
            intercepted.extend(dispatcher.dispatch_unintercepted(&kernel, events));
        }
    }));
    if !intercepted.is_empty() {
        let request = DeputyRequest::Dispatch {
            events: intercepted,
        };
        let _ = send_deputy(deputies, inflight, request);
    }
}

/// How many queued events an app thread drains per wake-up.
const APP_BATCH_MAX: usize = 128;

/// Closes an app queue and acknowledges/uncounts every event left in it.
/// Crash-time drains additionally audit each discarded event.
fn drain_queue(queue: &AppQueue, kernel: &Kernel, id: AppId, inflight: &AtomicUsize, audit: bool) {
    for (_, ack) in queue.close_and_drain() {
        if let Some(ack) = ack {
            let _ = ack.send(());
        }
        inflight.fetch_sub(1, Ordering::SeqCst);
        if audit {
            kernel.audit_dropped(id, "event_discarded_on_crash");
        }
    }
}

/// How many `try_recv` attempts a deputy burns before parking on the
/// blocking `recv` — long enough to catch back-to-back pipelined requests,
/// short enough not to hurt an idle machine. An app waiting for a reply
/// tries as often before it parks (`app::await_reply`).
pub(crate) const DEPUTY_SPIN_TRIES: usize = 64;

/// Upper bound on the requests a deputy drains into one local burst.
const DEPUTY_BURST_MAX: usize = 32;

/// Spin-then-park receive: a deputy under load takes the next request off
/// the queue without a park/wake syscall round trip; an idle deputy falls
/// back to the blocking `recv` after a short spin.
fn recv_adaptive(rx: &Receiver<DeputyRequest>) -> Option<DeputyRequest> {
    for _ in 0..DEPUTY_SPIN_TRIES {
        match rx.try_recv() {
            Ok(req) => return Some(req),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

/// Requests a deputy has drained into its local burst but not yet served.
/// The deque is borrowed from the deputy loop's frame and reset per burst
/// (an arena in the reset-per-burst sense: one allocation for the thread's
/// whole life). If the deputy dies mid-burst (the injected `KillDeputy`
/// fault), the drop guard uncounts every unserved request and drops its
/// reply sender, so callers observe a disconnect and `quiesce()` never
/// waits on work no thread will do.
struct Burst<'a> {
    pending: &'a mut VecDeque<DeputyRequest>,
    inflight: &'a AtomicUsize,
}

impl Drop for Burst<'_> {
    fn drop(&mut self) {
        for req in self.pending.drain(..) {
            if !matches!(req, DeputyRequest::Stop) {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

fn deputy_loop(
    cell: Arc<KernelCell>,
    dispatcher: Arc<Dispatcher>,
    rx: Receiver<DeputyRequest>,
    inflight: Arc<AtomicUsize>,
    faults: Arc<FaultRegistry>,
) {
    // The burst deque outlives individual bursts: drained empty each time,
    // its capacity (at most `DEPUTY_BURST_MAX`) is allocated once.
    let mut pending: VecDeque<DeputyRequest> = VecDeque::with_capacity(DEPUTY_BURST_MAX);
    loop {
        let Some(first) = recv_adaptive(&rx) else {
            return;
        };
        // One load per burst: after a failover promotion the next burst
        // executes against the promoted kernel; requests in the current
        // burst that raced the seal see `ApiError::Shutdown` and retry.
        let kernel = cell.load();
        let burst = Burst {
            pending: &mut pending,
            inflight: &inflight,
        };
        burst.pending.push_back(first);
        // Wake batching: whatever else is already queued rides the same
        // wake-up. A `Publish`, `Dispatch` or `Stop` must be the LAST
        // request drained: a publish (or an intercepted dispatch) waits on
        // subscribers whose own pending calls could be trapped *behind* it
        // in this local burst (un-stealable by peer deputies — deadlock),
        // and a swallowed Stop would starve a peer deputy of its shutdown
        // signal.
        while burst.pending.len() < DEPUTY_BURST_MAX
            && !matches!(
                burst.pending.back(),
                Some(
                    DeputyRequest::Publish { .. }
                        | DeputyRequest::Dispatch { .. }
                        | DeputyRequest::Stop
                )
            )
        {
            match rx.try_recv() {
                Ok(req) => burst.pending.push_back(req),
                Err(_) => break,
            }
        }
        while let Some(req) = burst.pending.pop_front() {
            let counted = !matches!(req, DeputyRequest::Stop);
            match req {
                DeputyRequest::Submit { cmd, reply } => {
                    // Only calls count towards a fault plan's N (see
                    // `crate::fault`).
                    let fault = match &cmd {
                        Command::Call(call) => faults.deputy_action(call.app),
                        _ => DeputyFault::None,
                    };
                    if fault == DeputyFault::KillDeputy {
                        // The work item must be uncounted before the thread
                        // dies, or quiesce() would wait for it forever. The
                        // reply sender drops with the stack, so the caller sees
                        // an immediate disconnect, and the watchdog respawns
                        // this deputy.
                        inflight.fetch_sub(1, Ordering::SeqCst);
                        panic!("injected fault: deputy killed");
                    }
                    // The unwind guard is the containment boundary: a command
                    // that panics kernel logic (or an injected fault) poisons
                    // that one command, not the deputy serving it.
                    let failed = CommandOutcome::error_for(&cmd);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if fault == DeputyFault::Panic {
                            panic!("injected fault: panic during call execution");
                        }
                        kernel.submit(cmd)
                    }));
                    match outcome {
                        Ok((outcome, events)) => {
                            if fault == DeputyFault::DropReply {
                                // Keep the sender alive so the caller times out
                                // rather than seeing a disconnect.
                                faults.park(Box::new(reply));
                            } else {
                                let _ = reply.send(outcome);
                            }
                            // Derived events (packet-ins from packet-outs,
                            // flow-removed from deletes) dispatch
                            // asynchronously: the issuing app must not block
                            // on other apps.
                            dispatcher.dispatch(&kernel, events, false);
                        }
                        Err(_) => {
                            let _ = reply.send(failed(ApiError::Internal(
                                "deputy panicked executing the command".into(),
                            )));
                        }
                    }
                }
                DeputyRequest::Dispatch { events } => {
                    // An app's derived events with an interceptor target:
                    // this deputy, not the app thread, waits for the
                    // interceptors (see `apply_output`).
                    dispatcher.dispatch(&kernel, events, false);
                }
                DeputyRequest::Publish { event, reply } => {
                    // Publish is synchronous: subscribers finish processing
                    // before the publisher resumes, giving deterministic
                    // event chains (requires ≥ 2 deputies, see `new`).
                    dispatcher.dispatch(&kernel, vec![OutboundEvent { event }], true);
                    let _ = reply.send(Ok(()));
                }
                DeputyRequest::Stop => return,
            }
            if counted {
                inflight.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_netsim::topology::builders;

    fn dead_handle(queue: Arc<AppQueue>) -> AppHandle {
        AppHandle {
            queue,
            thread: None,
        }
    }

    fn desc_of(event: &Event) -> &str {
        match event {
            Event::TopologyChanged { description } => description,
            _ => panic!("expected a topology event"),
        }
    }

    #[test]
    fn app_queue_sheds_oldest_beyond_capacity() {
        let q = AppQueue::new(2);
        let ev = |d: &str| {
            Arc::new(Event::TopologyChanged {
                description: d.into(),
            })
        };
        assert!(matches!(q.push_event(ev("a"), None), PushOutcome::Queued));
        assert!(matches!(q.push_event(ev("b"), None), PushOutcome::Queued));
        // Full: pushing "c" sheds "a".
        assert!(matches!(q.push_event(ev("c"), None), PushOutcome::Shed(_)));
        let mut batch = Vec::new();
        let stop = q.pop_batch_into(&mut batch, 8);
        assert!(!stop);
        let got: Vec<&str> = batch.iter().map(|(e, _)| desc_of(e)).collect();
        assert_eq!(got, ["b", "c"]);
    }

    #[test]
    fn app_queue_delivers_stop_after_drain_then_closes() {
        let q = AppQueue::new(4);
        let ev = Arc::new(Event::TopologyChanged {
            description: "x".into(),
        });
        assert!(matches!(
            q.push_event(Arc::clone(&ev), None),
            PushOutcome::Queued
        ));
        q.push_stop();
        // Events queued before the stop still drain first.
        let mut batch = Vec::new();
        let stop = q.pop_batch_into(&mut batch, 8);
        assert_eq!(batch.len(), 1);
        assert!(!stop);
        let stop = q.pop_batch_into(&mut batch, 8);
        assert!(batch.is_empty());
        assert!(stop);
        // After stop, pushes are refused.
        assert!(matches!(q.push_event(ev, None), PushOutcome::Closed));
    }

    #[test]
    fn push_batch_sheds_per_slot_and_reports_refusals() {
        let q = AppQueue::new(2);
        let ev = |d: &str| {
            Arc::new(Event::TopologyChanged {
                description: d.into(),
            })
        };
        // Four events into a capacity-2 queue: the two oldest are shed.
        let mut incoming = vec![ev("a"), ev("b"), ev("c"), ev("d")];
        let outcome = q.push_batch(&mut incoming);
        assert_eq!(outcome.shed_acks.len(), 2);
        assert_eq!(outcome.refused, 0);
        assert!(incoming.is_empty(), "push_batch must drain the buffer");
        let mut batch = Vec::new();
        q.pop_batch_into(&mut batch, 8);
        let got: Vec<&str> = batch.iter().map(|(e, _)| desc_of(e)).collect();
        assert_eq!(got, ["c", "d"]);
        // A closed queue refuses the whole batch (and still drains it, so
        // the caller's recycled buffer comes back empty).
        q.close_and_drain();
        let mut incoming = vec![ev("e"), ev("f")];
        let outcome = q.push_batch(&mut incoming);
        assert!(outcome.shed_acks.is_empty());
        assert_eq!(outcome.refused, 2);
        assert!(incoming.is_empty());
    }

    #[test]
    fn pop_batch_respects_max() {
        let q = AppQueue::new(8);
        for d in ["a", "b", "c"] {
            let ev = Arc::new(Event::TopologyChanged {
                description: d.into(),
            });
            assert!(matches!(q.push_event(ev, None), PushOutcome::Queued));
        }
        let mut batch = Vec::new();
        let stop = q.pop_batch_into(&mut batch, 2);
        assert_eq!(batch.len(), 2);
        assert!(!stop);
        let stop = q.pop_batch_into(&mut batch, 2);
        assert_eq!(batch.len(), 1);
        assert!(!stop);
    }

    #[test]
    fn send_event_to_closed_queue_keeps_inflight_balanced() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let dispatcher = Dispatcher::new(Arc::clone(&inflight));
        let kernel = Kernel::new(Network::new(builders::linear(1), 16), true);
        let queue = Arc::new(AppQueue::new(4));
        queue.close_and_drain();
        dispatcher.apps.lock().insert(AppId(9), dead_handle(queue));
        let event = Event::TopologyChanged {
            description: "link flap".into(),
        };
        let ack = dispatcher.send_event(&kernel, AppId(9), &event, true);
        assert!(ack.is_none(), "closed queue must not promise an ack");
        assert_eq!(
            inflight.load(Ordering::SeqCst),
            0,
            "refused delivery must not leak an in-flight count"
        );
    }

    #[test]
    fn send_event_shed_accounts_and_audits() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let dispatcher = Dispatcher::new(Arc::clone(&inflight));
        let kernel = Kernel::new(Network::new(builders::linear(1), 16), true);
        let queue = Arc::new(AppQueue::new(1));
        dispatcher
            .apps
            .lock()
            .insert(AppId(5), dead_handle(Arc::clone(&queue)));
        let event = Event::TopologyChanged {
            description: "e".into(),
        };
        // First delivery fills the queue; second sheds the first.
        let first_ack = dispatcher.send_event(&kernel, AppId(5), &event, true);
        assert!(first_ack.is_some());
        let second_ack = dispatcher.send_event(&kernel, AppId(5), &event, true);
        assert!(second_ack.is_some());
        // The shed event was acknowledged on the spot...
        assert!(first_ack.unwrap().try_recv().is_ok());
        // ...its in-flight count was released (one event remains queued)...
        assert_eq!(inflight.load(Ordering::SeqCst), 1);
        // ...and the drop is on the audit trail.
        let audit = kernel.audit_records_since(0);
        assert!(audit.iter().any(|r| r.app == AppId(5)
            && r.outcome == crate::audit::AuditOutcome::Dropped
            && r.operation == "event_shed"));
    }
}
