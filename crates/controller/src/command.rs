//! The deterministic command layer: every state-changing kernel entry point
//! reified as a serializable [`Command`], plus the [`KernelSnapshot`] record
//! a kernel's whole mutable state round-trips through.
//!
//! The kernel applies commands through a single seam
//! ([`crate::kernel::Kernel::submit`]) and appends them to a
//! [`crate::journal::Journal`]; replaying the journal over a snapshot
//! reconstructs the kernel bit-for-bit (DESIGN.md §12 "Durability, recovery
//! & failover"). Both the command and the snapshot carry a self-consistent
//! byte codec built from the `sdnshield-openflow` snapshot primitives, so
//! journals and snapshots survive a process crash on disk.
//!
//! Determinism contract: applying the same command sequence to the same
//! starting state yields the same ending state. Nothing here reads wall
//! clocks or randomness — time only moves via [`Command::AdvanceClock`] on
//! the virtual clock, and every kernel decision (permission checks included)
//! is a pure function of kernel state plus the command.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sdnshield_core::api::{ApiCall, ApiCallKind, AppId, EventKind};
use sdnshield_core::engine::TrackerSnapshot;
use sdnshield_openflow::flow_table::FlowEntry;
use sdnshield_openflow::messages::{PacketOut, PortStats};
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::snapshot as codec;
use sdnshield_openflow::types::{DatapathId, EthAddr, Ipv4, Priority};
use sdnshield_openflow::wire::WireError;

use crate::api::{ApiError, ApiResponse, FlowOp};
use crate::hostsys::HostSnapshot;

/// A serializable kernel mutation: the single vocabulary every
/// state-changing entry point is expressed in before it is applied and
/// journaled. Read-only calls ride [`Command::Call`] too when submitted
/// through the deputy path, so one seam decides and audits every call; but
/// a query ([`Command::is_query`]) is never sequenced or journaled. Replay
/// still applies a query record — journals written before that rule hold
/// them — and it mutates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Register an app under its reconciled manifest (carried as canonical
    /// manifest text so replay recompiles the identical engine).
    RegisterApp {
        /// The app identity being registered.
        app: AppId,
        /// The app's name (diagnostics, audit).
        name: String,
        /// Canonical manifest text (`PermissionSet` `Display` form).
        manifest: String,
    },
    /// Reap every trace of an app (crash reaping / deregistration).
    DeregisterApp {
        /// The app being reaped.
        app: AppId,
    },
    /// One mediated API call (the [`crate::kernel::Kernel::execute`] seam).
    Call(ApiCall),
    /// An atomic flow transaction.
    Transaction {
        /// The calling app.
        app: AppId,
        /// The operations, applied all-or-nothing.
        ops: Vec<FlowOp>,
    },
    /// A batched group of flow operations (atomic, audited as `batch`).
    Batch {
        /// The calling app.
        app: AppId,
        /// The operations, applied all-or-nothing.
        ops: Vec<FlowOp>,
    },
    /// A best-effort group of packet-outs.
    PacketOuts {
        /// The calling app.
        app: AppId,
        /// The packet-outs in emission order.
        outs: Vec<(DatapathId, PacketOut)>,
    },
    /// A host-network send carrying real payload bytes.
    HostSend {
        /// The sending app.
        app: AppId,
        /// The connection handle (`ConnId` inner value).
        conn: u64,
        /// The payload.
        data: Bytes,
    },
    /// A custom-topic subscription.
    SubscribeTopic {
        /// The subscribing app.
        app: AppId,
        /// The topic.
        topic: String,
    },
    /// Advance the virtual clock (flow expiry is a deterministic function
    /// of clock position, so time itself is a journaled command).
    AdvanceClock {
        /// Seconds to advance.
        secs: u64,
    },
    /// Fail the link between two switches.
    FailLink {
        /// One endpoint.
        a: DatapathId,
        /// The other endpoint.
        b: DatapathId,
    },
    /// Inject a data-plane frame from a host NIC.
    InjectHostFrame {
        /// The frame.
        frame: EthernetFrame,
    },
    /// Record packet-in payload provenance grants (the tracker mutation the
    /// event fan-out performs on behalf of `read_payload` subscribers).
    RecordPktIns {
        /// `(app, payload)` pairs granted payload access.
        grants: Vec<(AppId, Bytes)>,
    },
    /// Reap every flow on a switch whose control connection died (the
    /// southbound reactor's teardown), releasing the owners' rule quotas.
    ReapSwitch {
        /// The disconnected switch.
        dpid: DatapathId,
    },
}

impl Command {
    /// Is this a query — a [`Command::Call`] whose kind
    /// [`ApiCallKind::is_query`]? Queries change no state, so the seam
    /// serves and audits them but gives them no journal record.
    pub fn is_query(&self) -> bool {
        matches!(self, Command::Call(call) if call.kind.is_query())
    }

    /// A short operation name for logs and journal inspection.
    pub fn name(&self) -> &'static str {
        match self {
            Command::RegisterApp { .. } => "register_app",
            Command::DeregisterApp { .. } => "deregister_app",
            Command::Call(call) => call.kind.name(),
            Command::Transaction { .. } => "transaction",
            Command::Batch { .. } => "batch",
            Command::PacketOuts { .. } => "packet_outs",
            Command::HostSend { .. } => "host_send",
            Command::SubscribeTopic { .. } => "subscribe_topic",
            Command::AdvanceClock { .. } => "advance_clock",
            Command::FailLink { .. } => "fail_link",
            Command::InjectHostFrame { .. } => "inject_host_frame",
            Command::RecordPktIns { .. } => "record_pkt_ins",
            Command::ReapSwitch { .. } => "reap_switch",
        }
    }
}

/// The typed result of submitting a [`Command`]: each entry-point family
/// keeps its native reply shape, so the public wrappers around
/// [`crate::kernel::Kernel::submit`] hand back exactly what their
/// signatures promise.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutcome {
    /// An API-call style reply.
    Api(Result<ApiResponse, ApiError>),
    /// A sent-count reply (packet-out groups).
    Count(Result<usize, ApiError>),
    /// A bare acknowledgment.
    Ack(Result<(), ApiError>),
}

impl CommandOutcome {
    /// The API-call reply, for commands submitted through call-shaped
    /// wrappers.
    ///
    /// # Panics
    ///
    /// Panics when the outcome is not [`CommandOutcome::Api`] — the wrappers
    /// and [`crate::kernel::Kernel::submit`] keep command and outcome shapes
    /// in lockstep.
    pub fn into_api(self) -> Result<ApiResponse, ApiError> {
        match self {
            CommandOutcome::Api(r) => r,
            other => unreachable!("call-shaped command yielded {other:?}"),
        }
    }

    /// The sent-count reply.
    ///
    /// # Panics
    ///
    /// Panics when the outcome is not [`CommandOutcome::Count`].
    pub fn into_count(self) -> Result<usize, ApiError> {
        match self {
            CommandOutcome::Count(r) => r,
            other => unreachable!("count-shaped command yielded {other:?}"),
        }
    }

    /// The bare acknowledgment.
    ///
    /// # Panics
    ///
    /// Panics when the outcome is not [`CommandOutcome::Ack`].
    pub fn into_ack(self) -> Result<(), ApiError> {
        match self {
            CommandOutcome::Ack(r) => r,
            other => unreachable!("ack-shaped command yielded {other:?}"),
        }
    }

    /// How `cmd` fails without being applied: the returned constructor
    /// wraps an error in the outcome shape the command's wrapper expects.
    /// A sealed kernel fails commands with [`ApiError::Shutdown`], a deputy
    /// whose command panicked with [`ApiError::Internal`]. It is read
    /// before the command moves into [`crate::kernel::Kernel::submit`].
    pub(crate) fn error_for(cmd: &Command) -> fn(ApiError) -> CommandOutcome {
        match cmd {
            Command::Call(_) | Command::Transaction { .. } | Command::Batch { .. } => {
                |e| CommandOutcome::Api(Err(e))
            }
            Command::PacketOuts { .. } => |e| CommandOutcome::Count(Err(e)),
            _ => |e| CommandOutcome::Ack(Err(e)),
        }
    }
}

/// A decoding failure: the bytes do not form a valid command or snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    reason: String,
}

impl DecodeError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        DecodeError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed record: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

impl From<WireError> for DecodeError {
    fn from(e: WireError) -> Self {
        DecodeError::new(e.to_string())
    }
}

fn need(b: &Bytes, n: usize) -> Result<(), DecodeError> {
    if b.len() < n {
        return Err(DecodeError::new("truncated record"));
    }
    Ok(())
}

fn put_event_kind(kind: EventKind, out: &mut BytesMut) {
    out.put_u8(match kind {
        EventKind::PacketIn => 0,
        EventKind::Flow => 1,
        EventKind::Topology => 2,
        EventKind::Error => 3,
    });
}

fn get_event_kind(b: &mut Bytes) -> Result<EventKind, DecodeError> {
    need(b, 1)?;
    Ok(match b.get_u8() {
        0 => EventKind::PacketIn,
        1 => EventKind::Flow,
        2 => EventKind::Topology,
        3 => EventKind::Error,
        _ => return Err(DecodeError::new("bad event kind")),
    })
}

fn put_api_call(call: &ApiCall, out: &mut BytesMut) {
    out.put_u16(call.app.0);
    match &call.kind {
        ApiCallKind::ReadFlowTable { dpid, query } => {
            out.put_u8(0);
            out.put_u64(dpid.0);
            codec::put_flow_match(query, out);
        }
        ApiCallKind::InsertFlow { dpid, flow_mod } => {
            out.put_u8(1);
            out.put_u64(dpid.0);
            codec::put_flow_mod(flow_mod, out);
        }
        ApiCallKind::DeleteFlow { dpid, flow_mod } => {
            out.put_u8(2);
            out.put_u64(dpid.0);
            codec::put_flow_mod(flow_mod, out);
        }
        ApiCallKind::ReadTopology => out.put_u8(3),
        ApiCallKind::ModifyTopology { dpid } => {
            out.put_u8(4);
            out.put_u64(dpid.0);
        }
        ApiCallKind::ReadStatistics { dpid, request } => {
            out.put_u8(5);
            out.put_u64(dpid.0);
            codec::put_stats_request(request, out);
        }
        ApiCallKind::ReadPayload { dpid } => {
            out.put_u8(6);
            out.put_u64(dpid.0);
        }
        ApiCallKind::SendPacketOut { dpid, packet_out } => {
            out.put_u8(7);
            out.put_u64(dpid.0);
            codec::put_packet_out(packet_out, out);
        }
        ApiCallKind::Subscribe { kind } => {
            out.put_u8(8);
            put_event_kind(*kind, out);
        }
        ApiCallKind::HostConnect { dst_ip, dst_port } => {
            out.put_u8(9);
            out.put_u32(dst_ip.0);
            out.put_u16(*dst_port);
        }
        ApiCallKind::HostSend { conn, len } => {
            out.put_u8(10);
            out.put_u64(*conn);
            out.put_u64(*len as u64);
        }
        ApiCallKind::FileOpen { path, write } => {
            out.put_u8(11);
            codec::put_string(path, out);
            codec::put_bool(*write, out);
        }
        ApiCallKind::ProcessExec { program } => {
            out.put_u8(12);
            codec::put_string(program, out);
        }
    }
}

fn get_api_call(b: &mut Bytes) -> Result<ApiCall, DecodeError> {
    need(b, 3)?;
    let app = AppId(b.get_u16());
    let kind = match b.get_u8() {
        0 => {
            need(b, 8)?;
            ApiCallKind::ReadFlowTable {
                dpid: DatapathId(b.get_u64()),
                query: codec::get_flow_match(b)?,
            }
        }
        1 => {
            need(b, 8)?;
            ApiCallKind::InsertFlow {
                dpid: DatapathId(b.get_u64()),
                flow_mod: codec::get_flow_mod(b)?,
            }
        }
        2 => {
            need(b, 8)?;
            ApiCallKind::DeleteFlow {
                dpid: DatapathId(b.get_u64()),
                flow_mod: codec::get_flow_mod(b)?,
            }
        }
        3 => ApiCallKind::ReadTopology,
        4 => {
            need(b, 8)?;
            ApiCallKind::ModifyTopology {
                dpid: DatapathId(b.get_u64()),
            }
        }
        5 => {
            need(b, 8)?;
            ApiCallKind::ReadStatistics {
                dpid: DatapathId(b.get_u64()),
                request: codec::get_stats_request(b)?,
            }
        }
        6 => {
            need(b, 8)?;
            ApiCallKind::ReadPayload {
                dpid: DatapathId(b.get_u64()),
            }
        }
        7 => {
            need(b, 8)?;
            ApiCallKind::SendPacketOut {
                dpid: DatapathId(b.get_u64()),
                packet_out: codec::get_packet_out(b)?,
            }
        }
        8 => ApiCallKind::Subscribe {
            kind: get_event_kind(b)?,
        },
        9 => {
            need(b, 6)?;
            ApiCallKind::HostConnect {
                dst_ip: Ipv4(b.get_u32()),
                dst_port: b.get_u16(),
            }
        }
        10 => {
            need(b, 16)?;
            ApiCallKind::HostSend {
                conn: b.get_u64(),
                len: b.get_u64() as usize,
            }
        }
        11 => ApiCallKind::FileOpen {
            path: codec::get_string(b)?,
            write: codec::get_bool(b)?,
        },
        12 => ApiCallKind::ProcessExec {
            program: codec::get_string(b)?,
        },
        _ => return Err(DecodeError::new("bad api-call kind")),
    };
    Ok(ApiCall { app, kind })
}

fn put_flow_ops(ops: &[FlowOp], out: &mut BytesMut) {
    out.put_u32(ops.len() as u32);
    for op in ops {
        out.put_u64(op.dpid.0);
        codec::put_flow_mod(&op.flow_mod, out);
    }
}

fn get_flow_ops(b: &mut Bytes) -> Result<Vec<FlowOp>, DecodeError> {
    need(b, 4)?;
    let n = b.get_u32() as usize;
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        need(b, 8)?;
        ops.push(FlowOp {
            dpid: DatapathId(b.get_u64()),
            flow_mod: codec::get_flow_mod(b)?,
        });
    }
    Ok(ops)
}

fn put_frame(frame: &EthernetFrame, out: &mut BytesMut) {
    codec::put_bytes(&frame.to_bytes(), out);
}

fn get_frame(b: &mut Bytes) -> Result<EthernetFrame, DecodeError> {
    let raw = codec::get_bytes(b)?;
    EthernetFrame::from_bytes(raw).map_err(|e| DecodeError::new(e.to_string()))
}

/// Serializes a command into `out` (self-delimiting; commands concatenate).
pub fn encode_command(cmd: &Command, out: &mut BytesMut) {
    match cmd {
        Command::RegisterApp {
            app,
            name,
            manifest,
        } => {
            out.put_u8(0);
            out.put_u16(app.0);
            codec::put_string(name, out);
            codec::put_string(manifest, out);
        }
        Command::DeregisterApp { app } => {
            out.put_u8(1);
            out.put_u16(app.0);
        }
        Command::Call(call) => {
            out.put_u8(2);
            put_api_call(call, out);
        }
        Command::Transaction { app, ops } => {
            out.put_u8(3);
            out.put_u16(app.0);
            put_flow_ops(ops, out);
        }
        Command::Batch { app, ops } => {
            out.put_u8(4);
            out.put_u16(app.0);
            put_flow_ops(ops, out);
        }
        Command::PacketOuts { app, outs } => {
            out.put_u8(5);
            out.put_u16(app.0);
            out.put_u32(outs.len() as u32);
            for (dpid, po) in outs {
                out.put_u64(dpid.0);
                codec::put_packet_out(po, out);
            }
        }
        Command::HostSend { app, conn, data } => {
            out.put_u8(6);
            out.put_u16(app.0);
            out.put_u64(*conn);
            codec::put_bytes(data, out);
        }
        Command::SubscribeTopic { app, topic } => {
            out.put_u8(7);
            out.put_u16(app.0);
            codec::put_string(topic, out);
        }
        Command::AdvanceClock { secs } => {
            out.put_u8(8);
            out.put_u64(*secs);
        }
        Command::FailLink { a, b } => {
            out.put_u8(9);
            out.put_u64(a.0);
            out.put_u64(b.0);
        }
        Command::InjectHostFrame { frame } => {
            out.put_u8(10);
            put_frame(frame, out);
        }
        Command::RecordPktIns { grants } => {
            out.put_u8(11);
            out.put_u32(grants.len() as u32);
            for (app, payload) in grants {
                out.put_u16(app.0);
                codec::put_bytes(payload, out);
            }
        }
        Command::ReapSwitch { dpid } => {
            out.put_u8(12);
            out.put_u64(dpid.0);
        }
    }
}

/// Reads one command from the front of `b`.
///
/// # Errors
///
/// [`DecodeError`] on truncation or unknown tags.
pub fn decode_command(b: &mut Bytes) -> Result<Command, DecodeError> {
    need(b, 1)?;
    Ok(match b.get_u8() {
        0 => {
            need(b, 2)?;
            Command::RegisterApp {
                app: AppId(b.get_u16()),
                name: codec::get_string(b)?,
                manifest: codec::get_string(b)?,
            }
        }
        1 => {
            need(b, 2)?;
            Command::DeregisterApp {
                app: AppId(b.get_u16()),
            }
        }
        2 => Command::Call(get_api_call(b)?),
        3 => {
            need(b, 2)?;
            Command::Transaction {
                app: AppId(b.get_u16()),
                ops: get_flow_ops(b)?,
            }
        }
        4 => {
            need(b, 2)?;
            Command::Batch {
                app: AppId(b.get_u16()),
                ops: get_flow_ops(b)?,
            }
        }
        5 => {
            need(b, 6)?;
            let app = AppId(b.get_u16());
            let n = b.get_u32() as usize;
            let mut outs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(b, 8)?;
                let dpid = DatapathId(b.get_u64());
                outs.push((dpid, codec::get_packet_out(b)?));
            }
            Command::PacketOuts { app, outs }
        }
        6 => {
            need(b, 10)?;
            Command::HostSend {
                app: AppId(b.get_u16()),
                conn: b.get_u64(),
                data: codec::get_bytes(b)?,
            }
        }
        7 => {
            need(b, 2)?;
            Command::SubscribeTopic {
                app: AppId(b.get_u16()),
                topic: codec::get_string(b)?,
            }
        }
        8 => {
            need(b, 8)?;
            Command::AdvanceClock { secs: b.get_u64() }
        }
        9 => {
            need(b, 16)?;
            Command::FailLink {
                a: DatapathId(b.get_u64()),
                b: DatapathId(b.get_u64()),
            }
        }
        10 => Command::InjectHostFrame {
            frame: get_frame(b)?,
        },
        11 => {
            need(b, 4)?;
            let n = b.get_u32() as usize;
            let mut grants = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(b, 2)?;
                let app = AppId(b.get_u16());
                grants.push((app, codec::get_bytes(b)?));
            }
            Command::RecordPktIns { grants }
        }
        12 => {
            need(b, 8)?;
            Command::ReapSwitch {
                dpid: DatapathId(b.get_u64()),
            }
        }
        _ => return Err(DecodeError::new("bad command tag")),
    })
}

/// Full mutable state of one switch, restore-exact (entries in table
/// iteration order, counters included).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSnapshot {
    /// The switch.
    pub dpid: DatapathId,
    /// Flow entries in the table's iteration order.
    pub entries: Vec<FlowEntry>,
    /// Table lookup counter.
    pub lookup_count: u64,
    /// Table match counter.
    pub matched_count: u64,
    /// Per-port counters.
    pub port_stats: Vec<PortStats>,
}

/// A serializable image of the kernel's entire mutable state — both the
/// restart format ([`crate::kernel::Kernel::recover`] rebuilds a kernel
/// from it) and the equivalence digest the differential recovery tests
/// compare with [`KernelSnapshot::state_eq`].
///
/// Audit *content* is deliberately excluded: audit sequence numbering is
/// preserved across recovery (via [`crate::journal::JournalRecord`]'s
/// `audit_seq_after`), but replayed records are re-derived with a `replay:`
/// tag rather than restored verbatim (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelSnapshot {
    /// Journal sequence of the last command folded into this snapshot.
    pub last_seq: u64,
    /// Audit sequence watermark at snapshot time.
    pub audit_seq: u64,
    /// Virtual clock position (seconds).
    pub clock: u64,
    /// Whether permission checks run (shielded vs monolithic baseline).
    pub checks_enabled: bool,
    /// CBench mode flag.
    pub absorb_packet_outs: bool,
    /// Registration-time lint flag.
    pub lint_on_register: bool,
    /// The registry epoch counter.
    pub registry_epoch: u64,
    /// Registered apps as `(id, name, canonical manifest text)`, sorted by
    /// id. Engines and virtual topologies recompile from the text.
    pub apps: Vec<(AppId, String, String)>,
    /// Event subscriptions by kind key, delivery order preserved.
    pub subs_by_kind: Vec<(String, Vec<(AppId, bool)>)>,
    /// Custom-topic subscriptions.
    pub subs_custom: Vec<(String, Vec<AppId>)>,
    /// Ownership/quota tracker state (epoch preserved exactly).
    pub tracker: TrackerSnapshot,
    /// Surviving inter-switch links as dpid pairs (recovery prunes the
    /// fresh topology down to these).
    pub links: Vec<(DatapathId, DatapathId)>,
    /// Per-switch tables and counters, ascending dpid.
    pub switches: Vec<SwitchSnapshot>,
    /// The simulated host OS state.
    pub host: HostSnapshot,
    /// Frames delivered to host NICs.
    pub host_inbox: Vec<(EthAddr, Vec<EthernetFrame>)>,
}

impl KernelSnapshot {
    /// Structural state equality, ignoring the positional watermarks
    /// (`last_seq`, `audit_seq`) that legitimately differ between a live
    /// kernel and its recovered twin — recovery replays commands (advancing
    /// `last_seq` identically) but re-derives audit records under `replay:`
    /// tags at fresh sequence numbers.
    pub fn state_eq(&self, other: &KernelSnapshot) -> bool {
        let mut a = self.clone();
        let mut b = other.clone();
        a.last_seq = 0;
        a.audit_seq = 0;
        b.last_seq = 0;
        b.audit_seq = 0;
        a == b
    }

    /// Serializes the snapshot.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u8(SNAPSHOT_VERSION);
        out.put_u64(self.last_seq);
        out.put_u64(self.audit_seq);
        out.put_u64(self.clock);
        codec::put_bool(self.checks_enabled, &mut out);
        codec::put_bool(self.absorb_packet_outs, &mut out);
        codec::put_bool(self.lint_on_register, &mut out);
        out.put_u64(self.registry_epoch);
        out.put_u32(self.apps.len() as u32);
        for (app, name, manifest) in &self.apps {
            out.put_u16(app.0);
            codec::put_string(name, &mut out);
            codec::put_string(manifest, &mut out);
        }
        out.put_u32(self.subs_by_kind.len() as u32);
        for (kind, subs) in &self.subs_by_kind {
            codec::put_string(kind, &mut out);
            out.put_u32(subs.len() as u32);
            for (app, intercepts) in subs {
                out.put_u16(app.0);
                codec::put_bool(*intercepts, &mut out);
            }
        }
        out.put_u32(self.subs_custom.len() as u32);
        for (topic, subs) in &self.subs_custom {
            codec::put_string(topic, &mut out);
            out.put_u32(subs.len() as u32);
            for app in subs {
                out.put_u16(app.0);
            }
        }
        put_tracker(&self.tracker, &mut out);
        out.put_u32(self.links.len() as u32);
        for (a, b) in &self.links {
            out.put_u64(a.0);
            out.put_u64(b.0);
        }
        out.put_u32(self.switches.len() as u32);
        for sw in &self.switches {
            out.put_u64(sw.dpid.0);
            out.put_u32(sw.entries.len() as u32);
            for e in &sw.entries {
                codec::put_flow_entry(e, &mut out);
            }
            out.put_u64(sw.lookup_count);
            out.put_u64(sw.matched_count);
            out.put_u32(sw.port_stats.len() as u32);
            for p in &sw.port_stats {
                codec::put_port_stats(p, &mut out);
            }
        }
        put_host(&self.host, &mut out);
        out.put_u32(self.host_inbox.len() as u32);
        for (mac, frames) in &self.host_inbox {
            out.put_slice(&mac.0);
            out.put_u32(frames.len() as u32);
            for f in frames {
                put_frame(f, &mut out);
            }
        }
        out.freeze()
    }

    /// Deserializes a snapshot produced by [`KernelSnapshot::encode`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, bad tags, or a version mismatch.
    pub fn decode(mut b: Bytes) -> Result<KernelSnapshot, DecodeError> {
        need(&b, 1)?;
        if b.get_u8() != SNAPSHOT_VERSION {
            return Err(DecodeError::new("unsupported snapshot version"));
        }
        need(&b, 24)?;
        let last_seq = b.get_u64();
        let audit_seq = b.get_u64();
        let clock = b.get_u64();
        let checks_enabled = codec::get_bool(&mut b)?;
        let absorb_packet_outs = codec::get_bool(&mut b)?;
        let lint_on_register = codec::get_bool(&mut b)?;
        need(&b, 12)?;
        let registry_epoch = b.get_u64();
        let napps = b.get_u32() as usize;
        let mut apps = Vec::with_capacity(napps.min(1024));
        for _ in 0..napps {
            need(&b, 2)?;
            let app = AppId(b.get_u16());
            let name = codec::get_string(&mut b)?;
            let manifest = codec::get_string(&mut b)?;
            apps.push((app, name, manifest));
        }
        need(&b, 4)?;
        let nkinds = b.get_u32() as usize;
        let mut subs_by_kind = Vec::with_capacity(nkinds.min(1024));
        for _ in 0..nkinds {
            let kind = codec::get_string(&mut b)?;
            need(&b, 4)?;
            let n = b.get_u32() as usize;
            let mut subs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(&b, 2)?;
                let app = AppId(b.get_u16());
                subs.push((app, codec::get_bool(&mut b)?));
            }
            subs_by_kind.push((kind, subs));
        }
        need(&b, 4)?;
        let ntopics = b.get_u32() as usize;
        let mut subs_custom = Vec::with_capacity(ntopics.min(1024));
        for _ in 0..ntopics {
            let topic = codec::get_string(&mut b)?;
            need(&b, 4)?;
            let n = b.get_u32() as usize;
            let mut subs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(&b, 2)?;
                subs.push(AppId(b.get_u16()));
            }
            subs_custom.push((topic, subs));
        }
        let tracker = get_tracker(&mut b)?;
        need(&b, 4)?;
        let nlinks = b.get_u32() as usize;
        let mut links = Vec::with_capacity(nlinks.min(1024));
        for _ in 0..nlinks {
            need(&b, 16)?;
            links.push((DatapathId(b.get_u64()), DatapathId(b.get_u64())));
        }
        need(&b, 4)?;
        let nswitches = b.get_u32() as usize;
        let mut switches = Vec::with_capacity(nswitches.min(1024));
        for _ in 0..nswitches {
            need(&b, 12)?;
            let dpid = DatapathId(b.get_u64());
            let nentries = b.get_u32() as usize;
            let mut entries = Vec::with_capacity(nentries.min(4096));
            for _ in 0..nentries {
                entries.push(codec::get_flow_entry(&mut b)?);
            }
            need(&b, 20)?;
            let lookup_count = b.get_u64();
            let matched_count = b.get_u64();
            let nports = b.get_u32() as usize;
            let mut port_stats = Vec::with_capacity(nports.min(1024));
            for _ in 0..nports {
                port_stats.push(codec::get_port_stats(&mut b)?);
            }
            switches.push(SwitchSnapshot {
                dpid,
                entries,
                lookup_count,
                matched_count,
                port_stats,
            });
        }
        let host = get_host(&mut b)?;
        need(&b, 4)?;
        let ninbox = b.get_u32() as usize;
        let mut host_inbox = Vec::with_capacity(ninbox.min(1024));
        for _ in 0..ninbox {
            need(&b, 10)?;
            let mut mac = [0u8; 6];
            b.copy_to_slice(&mut mac);
            let n = b.get_u32() as usize;
            let mut frames = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                frames.push(get_frame(&mut b)?);
            }
            host_inbox.push((EthAddr(mac), frames));
        }
        Ok(KernelSnapshot {
            last_seq,
            audit_seq,
            clock,
            checks_enabled,
            absorb_packet_outs,
            lint_on_register,
            registry_epoch,
            apps,
            subs_by_kind,
            subs_custom,
            tracker,
            links,
            switches,
            host,
            host_inbox,
        })
    }
}

const SNAPSHOT_VERSION: u8 = 1;

fn put_tracker(t: &TrackerSnapshot, out: &mut BytesMut) {
    out.put_u64(t.epoch);
    out.put_u64(t.pkt_in_window as u64);
    out.put_u32(t.rules.len() as u32);
    for (dpid, rules) in &t.rules {
        out.put_u64(dpid.0);
        out.put_u32(rules.len() as u32);
        for (app, m, prio) in rules {
            out.put_u16(app.0);
            codec::put_flow_match(m, out);
            out.put_u16(prio.0);
        }
    }
    out.put_u32(t.pkt_in_seen.len() as u32);
    for (app, hashes) in &t.pkt_in_seen {
        out.put_u16(app.0);
        out.put_u32(hashes.len() as u32);
        for h in hashes {
            out.put_u64(*h);
        }
    }
}

fn get_tracker(b: &mut Bytes) -> Result<TrackerSnapshot, DecodeError> {
    need(b, 20)?;
    let epoch = b.get_u64();
    let pkt_in_window = b.get_u64() as usize;
    let ndpids = b.get_u32() as usize;
    let mut rules = Vec::with_capacity(ndpids.min(1024));
    for _ in 0..ndpids {
        need(b, 12)?;
        let dpid = DatapathId(b.get_u64());
        let n = b.get_u32() as usize;
        let mut per = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            need(b, 2)?;
            let app = AppId(b.get_u16());
            let m = codec::get_flow_match(b)?;
            need(b, 2)?;
            per.push((app, m, Priority(b.get_u16())));
        }
        rules.push((dpid, per));
    }
    need(b, 4)?;
    let napps = b.get_u32() as usize;
    let mut pkt_in_seen = Vec::with_capacity(napps.min(1024));
    for _ in 0..napps {
        need(b, 6)?;
        let app = AppId(b.get_u16());
        let n = b.get_u32() as usize;
        need(b, n * 8)?;
        let mut hashes = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            hashes.push(b.get_u64());
        }
        pkt_in_seen.push((app, hashes));
    }
    Ok(TrackerSnapshot {
        epoch,
        pkt_in_window,
        rules,
        pkt_in_seen,
    })
}

fn put_host(h: &HostSnapshot, out: &mut BytesMut) {
    out.put_u32(h.connections.len() as u32);
    for c in &h.connections {
        out.put_u64(c.id.0);
        out.put_u16(c.app.0);
        out.put_u32(c.dst_ip.0);
        out.put_u16(c.dst_port);
        out.put_u32(c.sent.len() as u32);
        for data in &c.sent {
            codec::put_bytes(data, out);
        }
        codec::put_bool(c.closed, out);
    }
    out.put_u32(h.files.len() as u32);
    for f in &h.files {
        out.put_u16(f.app.0);
        codec::put_string(&f.path, out);
        codec::put_bool(f.write, out);
    }
    out.put_u32(h.processes.len() as u32);
    for p in &h.processes {
        out.put_u16(p.app.0);
        codec::put_string(&p.program, out);
    }
    out.put_u64(h.next_conn);
}

fn get_host(b: &mut Bytes) -> Result<HostSnapshot, DecodeError> {
    use crate::hostsys::{ConnId, Connection, FileAccess, SpawnedProcess};
    need(b, 4)?;
    let nconns = b.get_u32() as usize;
    let mut connections = Vec::with_capacity(nconns.min(1024));
    for _ in 0..nconns {
        need(b, 20)?;
        let id = ConnId(b.get_u64());
        let app = AppId(b.get_u16());
        let dst_ip = Ipv4(b.get_u32());
        let dst_port = b.get_u16();
        let nsent = b.get_u32() as usize;
        let mut sent = Vec::with_capacity(nsent.min(4096));
        for _ in 0..nsent {
            sent.push(codec::get_bytes(b)?);
        }
        let closed = codec::get_bool(b)?;
        connections.push(Connection {
            id,
            app,
            dst_ip,
            dst_port,
            sent,
            closed,
        });
    }
    need(b, 4)?;
    let nfiles = b.get_u32() as usize;
    let mut files = Vec::with_capacity(nfiles.min(1024));
    for _ in 0..nfiles {
        need(b, 2)?;
        let app = AppId(b.get_u16());
        let path = codec::get_string(b)?;
        files.push(FileAccess {
            app,
            path,
            write: codec::get_bool(b)?,
        });
    }
    need(b, 4)?;
    let nprocs = b.get_u32() as usize;
    let mut processes = Vec::with_capacity(nprocs.min(1024));
    for _ in 0..nprocs {
        need(b, 2)?;
        let app = AppId(b.get_u16());
        processes.push(SpawnedProcess {
            app,
            program: codec::get_string(b)?,
        });
    }
    need(b, 8)?;
    let next_conn = b.get_u64();
    Ok(HostSnapshot {
        connections,
        files,
        processes,
        next_conn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostsys::{ConnId, Connection};
    use sdnshield_openflow::actions::ActionList;
    use sdnshield_openflow::flow_match::FlowMatch;
    use sdnshield_openflow::messages::{FlowMod, StatsRequest};
    use sdnshield_openflow::types::{BufferId, Cookie, PortNo};

    fn sample_commands() -> Vec<Command> {
        vec![
            Command::RegisterApp {
                app: AppId(1),
                name: "fw".into(),
                manifest: "grant insert_flow;".into(),
            },
            Command::DeregisterApp { app: AppId(2) },
            Command::Call(ApiCall::new(
                AppId(1),
                ApiCallKind::InsertFlow {
                    dpid: DatapathId(3),
                    flow_mod: FlowMod::add(
                        FlowMatch::default().with_tp_dst(80),
                        Priority(7),
                        ActionList::output(PortNo(2)),
                    ),
                },
            )),
            Command::Call(ApiCall::new(AppId(4), ApiCallKind::ReadTopology)),
            Command::Call(ApiCall::new(
                AppId(4),
                ApiCallKind::ReadStatistics {
                    dpid: DatapathId(1),
                    request: StatsRequest::Table,
                },
            )),
            Command::Call(ApiCall::new(
                AppId(4),
                ApiCallKind::Subscribe {
                    kind: EventKind::PacketIn,
                },
            )),
            Command::Call(ApiCall::new(
                AppId(4),
                ApiCallKind::HostConnect {
                    dst_ip: Ipv4::new(10, 0, 0, 1),
                    dst_port: 443,
                },
            )),
            Command::Call(ApiCall::new(
                AppId(4),
                ApiCallKind::FileOpen {
                    path: "/etc/hosts".into(),
                    write: false,
                },
            )),
            Command::Transaction {
                app: AppId(1),
                ops: vec![FlowOp {
                    dpid: DatapathId(2),
                    flow_mod: FlowMod::add(
                        FlowMatch::any(),
                        Priority(1),
                        ActionList::output(PortNo(1)),
                    ),
                }],
            },
            Command::Batch {
                app: AppId(1),
                ops: Vec::new(),
            },
            Command::PacketOuts {
                app: AppId(1),
                outs: vec![(
                    DatapathId(1),
                    PacketOut {
                        buffer_id: BufferId::NO_BUFFER,
                        in_port: PortNo::NONE,
                        actions: ActionList::output(PortNo(1)),
                        payload: Bytes::from_static(b"frame"),
                    },
                )],
            },
            Command::HostSend {
                app: AppId(1),
                conn: 9,
                data: Bytes::from_static(b"exfil"),
            },
            Command::SubscribeTopic {
                app: AppId(5),
                topic: "alto".into(),
            },
            Command::AdvanceClock { secs: 30 },
            Command::FailLink {
                a: DatapathId(1),
                b: DatapathId(2),
            },
            Command::RecordPktIns {
                grants: vec![(AppId(1), Bytes::from_static(b"payload"))],
            },
            Command::ReapSwitch {
                dpid: DatapathId(2),
            },
        ]
    }

    #[test]
    fn commands_roundtrip() {
        for cmd in sample_commands() {
            let mut out = BytesMut::new();
            encode_command(&cmd, &mut out);
            let mut b = out.freeze();
            assert_eq!(decode_command(&mut b).unwrap(), cmd);
            assert!(b.is_empty(), "self-delimiting: {}", cmd.name());
        }
    }

    #[test]
    fn command_stream_concatenates() {
        let cmds = sample_commands();
        let mut out = BytesMut::new();
        for cmd in &cmds {
            encode_command(cmd, &mut out);
        }
        let mut b = out.freeze();
        for cmd in &cmds {
            assert_eq!(&decode_command(&mut b).unwrap(), cmd);
        }
        assert!(b.is_empty());
    }

    #[test]
    fn truncated_command_is_an_error() {
        let mut out = BytesMut::new();
        encode_command(
            &Command::SubscribeTopic {
                app: AppId(1),
                topic: "topic".into(),
            },
            &mut out,
        );
        let full = out.freeze();
        for cut in 0..full.len() {
            let mut b = full.slice(0..cut);
            assert!(decode_command(&mut b).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn error_for_has_the_shape_the_kernel_replies_in() {
        use sdnshield_netsim::network::Network;
        use sdnshield_netsim::topology::builders;
        use std::mem::discriminant;
        let kernel = crate::kernel::Kernel::new(Network::new(builders::linear(2), 64), true);
        for cmd in sample_commands() {
            let failed = CommandOutcome::error_for(&cmd)(ApiError::Shutdown);
            let (applied, _) = kernel.submit(cmd.clone());
            let name = cmd.name();
            assert_eq!(discriminant(&failed), discriminant(&applied), "{name}");
        }
    }

    fn sample_snapshot() -> KernelSnapshot {
        KernelSnapshot {
            last_seq: 42,
            audit_seq: 99,
            clock: 17,
            checks_enabled: true,
            absorb_packet_outs: false,
            lint_on_register: true,
            registry_epoch: 5,
            apps: vec![(AppId(1), "fw".into(), "grant insert_flow;".into())],
            subs_by_kind: vec![("packet_in".into(), vec![(AppId(1), false)])],
            subs_custom: vec![("alto".into(), vec![AppId(1)])],
            tracker: TrackerSnapshot {
                epoch: 12,
                pkt_in_window: 1024,
                rules: vec![(
                    DatapathId(1),
                    vec![(AppId(1), FlowMatch::default().with_tp_dst(80), Priority(7))],
                )],
                pkt_in_seen: vec![(AppId(1), vec![0xdead, 0xbeef])],
            },
            links: vec![(DatapathId(1), DatapathId(2))],
            switches: vec![SwitchSnapshot {
                dpid: DatapathId(1),
                entries: vec![FlowEntry {
                    flow_match: FlowMatch::default().with_tp_dst(80),
                    priority: Priority(7),
                    actions: ActionList::output(PortNo(2)),
                    cookie: Cookie::with_owner(1, 0),
                    idle_timeout: 0,
                    hard_timeout: 0,
                    notify_when_removed: false,
                    installed_at: 3,
                    last_hit_at: 9,
                    packet_count: 4,
                    byte_count: 256,
                }],
                lookup_count: 11,
                matched_count: 7,
                port_stats: Vec::new(),
            }],
            host: HostSnapshot {
                connections: vec![Connection {
                    id: ConnId(1),
                    app: AppId(1),
                    dst_ip: Ipv4::new(8, 8, 8, 8),
                    dst_port: 53,
                    sent: vec![Bytes::from_static(b"q")],
                    closed: false,
                }],
                files: Vec::new(),
                processes: Vec::new(),
                next_conn: 1,
            },
            host_inbox: Vec::new(),
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample_snapshot();
        let decoded = KernelSnapshot::decode(snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn state_eq_ignores_watermarks_only() {
        let snap = sample_snapshot();
        let mut other = snap.clone();
        other.last_seq += 10;
        other.audit_seq += 10;
        assert!(snap.state_eq(&other), "watermarks are positional");
        let mut diverged = snap.clone();
        diverged.tracker.epoch += 1;
        assert!(!snap.state_eq(&diverged), "tracker epochs are state");
    }

    #[test]
    fn truncated_snapshot_is_an_error() {
        let full = sample_snapshot().encode();
        assert!(KernelSnapshot::decode(full.slice(0..full.len() / 2)).is_err());
        assert!(KernelSnapshot::decode(Bytes::from_static(b"\xff")).is_err());
    }
}
