//! The controller kernel: the single owner of network state, the permission
//! engines, and the book-keeping behind stateful filters.
//!
//! All mutation goes through one seam, [`Kernel::submit`] — the choke point
//! the paper calls the Kernel Service Deputy boundary (§VI-A). Every
//! state-changing entry point reifies its work as a [`Command`]; the seam
//! applies it under the commit lock: the call is checked against the
//! calling app's compiled permission engine (unless checks are disabled —
//! the monolithic baseline), executed, recorded in the audit log, appended
//! to the journal when one is attached, and any events the execution
//! generated are returned for the dispatcher to deliver.
//!
//! # Concurrency
//!
//! One lock, one owner. Everything a command can change — journal handle,
//! app registry, subscriptions, ownership tracker, host system, host
//! inbox — is a plain field of [`State`], owned by the commit
//! mutex. Writers serialize at the seam: check and apply are one step under
//! the commit guard, so a quota can never be overshot by racing checks and
//! a [`Kernel::snapshot`] never cuts a transaction in half (DESIGN.md §6,
//! §16). A `&mut State` exists only while the guard does, so "holds the
//! lock" is a fact the compiler checks.
//!
//! Readers never take the commit lock. The registry and the subscription
//! table are additionally published as immutable RCU views
//! ([`crossbeam::epoch::RcuCell`]); the few commands that change them
//! republish before they return, so a revocation is visible off-lock the
//! moment `deregister_app` does. The read fast lane, the dispatcher's
//! subscriber lookups and the loading-time token check read those views and
//! nothing else of the guarded state. What remains is independently
//! synchronized and owned elsewhere: the `netsim` network (per-switch
//! mutexes and its own RCU views — the reactor writes it too),
//! the audit log (one leaf mutex), the decision-trace buffer, and the
//! atomic tracker-epoch mirror.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::epoch::{self, RcuCell};
use parking_lot::Mutex;

use sdnshield_core::api::{ApiCall, ApiCallKind, AppId, EventKind};
use sdnshield_core::engine::{Decision, OwnershipTracker, PermissionEngine};
use sdnshield_core::filter::{FilterExpr, SingletonFilter};
use sdnshield_core::perm::PermissionSet;
use sdnshield_core::token::PermissionToken;
use sdnshield_core::vtopo::{PhysView, VirtualTopology};
use sdnshield_netsim::network::{Delivery, Network, RemovedFlow};
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{
    FlowMod, FlowRemoved, OfError, PacketIn, PacketOut, StatsReply, StatsRequest,
};
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::types::{Cookie, DatapathId, EthAddr};

use crate::api::{ApiError, ApiResponse, FlowOp, SwitchView, TopologyView};
use crate::audit::{AuditLog, AuditOutcome};
use crate::command::{Command, CommandOutcome, KernelSnapshot, SwitchSnapshot};
use crate::events::Event;
use crate::hostsys::{ConnId, HostSystem};
use crate::journal::{Journal, JournalRecord};

/// An event produced by executing a call, to be routed by the dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundEvent {
    /// The event body (payload stripping happens per receiving app at
    /// dispatch).
    pub event: Event,
}

/// What the seam hands back for one command: its typed outcome plus the
/// events its application generated.
type Submitted = (CommandOutcome, Vec<OutboundEvent>);

/// What [`Kernel::commit_one`] leaves for [`Kernel::submit`] to finish once
/// the commit lock is gone.
enum Committed {
    /// A query: applied and audited, but given no sequence number and no
    /// journal record.
    Query,
    /// A command that took a sequence number (or was refused by a sealed
    /// kernel); `Some` carries the journal that queued its record and the
    /// sequence to sync.
    Sequenced(Option<(Arc<Journal>, u64)>),
}

/// Write-pipeline counters, updated with relaxed atomics on the write path
/// and snapshotted by [`Kernel::combiner_stats`].
#[derive(Default)]
struct CombinerCounters {
    /// Commands that entered [`Kernel::submit`], queries excluded.
    submitted: AtomicU64,
    /// Journal writes: one per queued group stored through the file
    /// journal's mapped window, or one per command when no file journal
    /// group-commits.
    writes: AtomicU64,
    /// Commands whose record another submitter's write covered.
    combined: AtomicU64,
}

/// A point-in-time snapshot of the write pipeline's journal group commit,
/// surfaced through `ShieldedController::combiner_stats` next to
/// `fast_path_hits` (DESIGN.md §16).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CombinerStats {
    /// Commands that entered `submit`, queries excluded: a query takes no
    /// sequence number and writes no journal record.
    pub submitted: u64,
    /// Journal writes: write-outs that stored a queued group through the
    /// file journal's mapped window, or one per command on a kernel without
    /// a file journal.
    pub writes: u64,
    /// Commands whose journal record another submitter's write covered.
    pub combined: u64,
}

impl CombinerStats {
    /// Mean commands per journal write (1.0 when uncontended).
    pub fn mean_batch(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.submitted as f64 / self.writes as f64
        }
    }
}

/// Read-mostly app registry: written only at register/deregister time, read
/// on every checked call.
#[derive(Clone, Default)]
struct Registry {
    engines: HashMap<AppId, Arc<PermissionEngine>>,
    /// App names for diagnostics.
    app_names: HashMap<AppId, String>,
    /// Per-app virtual topology mappers (apps granted a VIRTUAL filter).
    vtopos: HashMap<AppId, Arc<VirtualTopology>>,
    /// Canonical manifest text per app, kept so snapshots and journaled
    /// registrations can recompile the identical engine after a restart.
    manifests: HashMap<AppId, String>,
    /// Counts registry mutations (app registered or reaped); carried in
    /// [`KernelSnapshot`].
    epoch: u64,
}

/// Event routing state.
#[derive(Clone, Default)]
struct Subscriptions {
    /// Event subscriptions by kind: (app, intercepts) in delivery order,
    /// interceptors first.
    by_kind: BTreeMap<&'static str, Vec<(AppId, bool)>>,
    /// Custom-topic subscriptions (service apps, e.g. ALTO).
    custom: BTreeMap<String, Vec<AppId>>,
}

/// The write-side state, owned by the commit mutex: a `&mut State` exists
/// only while the commit guard does, so every applier that takes one is
/// statically inside the critical section.
struct State {
    /// The attached journal (`None` = nothing to append to). Only the lock
    /// holder appends, so journal order is commit order.
    journal: Option<Arc<Journal>>,
    /// Mutated only through [`Kernel::registry_mut`], which republishes
    /// [`Kernel::registry_view`].
    registry: Arc<Registry>,
    /// Mutated only through [`Kernel::subs_mut`], which republishes
    /// [`Kernel::subs_view`].
    subs: Arc<Subscriptions>,
    /// Mutated only through [`Kernel::tracker_mut`], which republishes
    /// [`Kernel::tracker_epoch`].
    tracker: OwnershipTracker,
    host: HostSystem,
    /// Frames delivered to host NICs, for data-plane observation in tests.
    host_inbox: BTreeMap<EthAddr, Vec<EthernetFrame>>,
}

/// The kernel: shared, internally synchronized controller state.
pub struct Kernel {
    /// Everything a command can change, behind the commit lock: it
    /// serializes every command's check+apply+append, making journal order
    /// identical to commit order. Reads never take it.
    commit: Mutex<State>,
    /// Off-lock view of `State::registry`, republished by the commands that
    /// change it (register, deregister, recover) before they return.
    registry_view: RcuCell<Registry>,
    /// Off-lock view of `State::subs`, republished likewise (subscribe,
    /// subscribe-topic, deregister, recover).
    subs_view: RcuCell<Subscriptions>,
    /// Lock-free mirror of the tracker's epoch, republished by
    /// [`Kernel::tracker_mut`]. Lets [`Kernel::context_epoch`] — and
    /// through it every call-only permission check and the app-side read
    /// fast lane — validate a decision without the commit lock.
    tracker_epoch: AtomicU64,
    network: Arc<Network>,
    audit: AuditLog,
    /// Whether permission checks run (false = monolithic baseline).
    checks_enabled: bool,
    /// CBench mode: packet-outs are permission-checked and counted but not
    /// walked through the simulated data plane (emulated benchmark switches
    /// absorb them, exactly like CBench's fake switches).
    absorb_packet_outs: std::sync::atomic::AtomicBool,
    /// Opt-in: run the `sdnshield-analysis` lint pass over manifests at
    /// registration time, rejecting manifests with error-severity findings.
    lint_on_register: std::sync::atomic::AtomicBool,
    /// Write-pipeline observability counters.
    combiner: CombinerCounters,
    /// Set by [`Kernel::seal`]: every later submit is refused with
    /// [`ApiError::Shutdown`] instead of being applied. This is how failover
    /// fences the old primary.
    sealed: AtomicBool,
    /// Sequence of the last applied command (== last journal seq).
    last_applied: AtomicU64,
    /// Decision-trace recorder (DESIGN.md §14). When armed, every
    /// permission decision — whichever lane made it — plus app
    /// (de)registrations are appended here for `shieldcheck certify`.
    /// Debug/verification tooling: excluded from snapshots and replay.
    trace_armed: AtomicBool,
    decision_trace: Mutex<Vec<sdnshield_core::trace::TraceEvent>>,
    /// True while this kernel is replaying journal records: audit records
    /// are re-derived under a `replay:` tag and nothing is re-appended.
    replaying: AtomicBool,
}

fn kind_key(kind: EventKind) -> &'static str {
    match kind {
        EventKind::PacketIn => "packet_in",
        EventKind::Flow => "flow",
        EventKind::Topology => "topology",
        EventKind::Error => "error",
    }
}

/// Maps a snapshot's owned kind key back to the `'static` key the
/// subscription table uses (inverse of [`kind_key`]).
fn static_kind(s: &str) -> Option<&'static str> {
    match s {
        "packet_in" => Some("packet_in"),
        "flow" => Some("flow"),
        "topology" => Some("topology"),
        "error" => Some("error"),
        _ => None,
    }
}

impl Kernel {
    /// Creates a kernel over a simulated network.
    ///
    /// `checks_enabled = false` builds the monolithic baseline: calls are
    /// executed without permission checks, as in the unmodified controller
    /// the paper compares against.
    pub fn new(network: Network, checks_enabled: bool) -> Self {
        let registry = Arc::new(Registry::default());
        let subs = Arc::new(Subscriptions::default());
        Kernel {
            registry_view: RcuCell::new(Arc::clone(&registry)),
            subs_view: RcuCell::new(Arc::clone(&subs)),
            commit: Mutex::new(State {
                journal: None,
                registry,
                subs,
                tracker: OwnershipTracker::new(),
                host: HostSystem::new(),
                host_inbox: BTreeMap::new(),
            }),
            tracker_epoch: AtomicU64::new(0),
            network: Arc::new(network),
            audit: AuditLog::default(),
            checks_enabled,
            absorb_packet_outs: std::sync::atomic::AtomicBool::new(false),
            lint_on_register: std::sync::atomic::AtomicBool::new(false),
            combiner: CombinerCounters::default(),
            sealed: AtomicBool::new(false),
            last_applied: AtomicU64::new(0),
            replaying: AtomicBool::new(false),
            trace_armed: AtomicBool::new(false),
            decision_trace: Mutex::new(Vec::new()),
        }
    }

    /// Arms the decision-trace recorder, clearing any prior buffer. While
    /// armed, every permission decision (deputy, fast lane, vectored
    /// packet-outs, batches) and every (de)registration is recorded as a
    /// [`sdnshield_core::trace::TraceEvent`] for `shieldcheck certify`.
    pub fn enable_decision_trace(&self) {
        self.decision_trace.lock().clear();
        self.trace_armed.store(true, Ordering::Release);
    }

    /// Disarms the recorder and returns everything recorded since
    /// [`Kernel::enable_decision_trace`].
    pub fn take_decision_trace(&self) -> Vec<sdnshield_core::trace::TraceEvent> {
        self.trace_armed.store(false, Ordering::Release);
        std::mem::take(&mut *self.decision_trace.lock())
    }

    /// Appends one trace event if the recorder is armed. The closure keeps
    /// event construction off the hot path when tracing is off.
    fn trace_event(&self, ev: impl FnOnce() -> sdnshield_core::trace::TraceEvent) {
        if self.trace_armed.load(Ordering::Acquire) {
            self.decision_trace.lock().push(ev());
        }
    }

    /// Records one permission decision under the named lane.
    fn trace_decision(&self, call: &ApiCall, allowed: bool, lane: &'static str) {
        self.trace_event(|| sdnshield_core::trace::TraceEvent::Decision {
            lane: lane.to_owned(),
            allowed,
            call: call.clone(),
        });
    }

    /// Are permission checks enabled (i.e. is this a shielded kernel rather
    /// than the monolithic baseline)?
    pub fn checks_enabled(&self) -> bool {
        self.checks_enabled
    }

    /// Runs `f` over the published registry view. Pins once, so everything
    /// `f` looks up belongs to the same registration state.
    fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> R {
        f(self.registry_view.load(&epoch::pin()))
    }

    /// A shared snapshot of an app's compiled permission engine (the same
    /// `Arc` the deputies check against, so its decision cache is shared
    /// across both sides of the channel). `None` when the app is not
    /// registered.
    pub fn engine_snapshot(&self, app: AppId) -> Option<Arc<PermissionEngine>> {
        self.with_registry(|reg| reg.engines.get(&app).cloned())
    }

    /// Enables/disables the registration-time manifest lint (see
    /// [`Kernel::register_app`]). Off by default: linting is the app
    /// market's job; the kernel check is a defense-in-depth backstop.
    pub fn set_lint_on_register(&self, lint: bool) {
        self.lint_on_register
            .store(lint, std::sync::atomic::Ordering::SeqCst);
    }

    /// Mutates the registry and republishes the off-lock view before
    /// returning, so a reader that starts after the command's reply already
    /// sees the change. All registry mutations go through here.
    fn registry_mut<R>(&self, state: &mut State, f: impl FnOnce(&mut Registry) -> R) -> R {
        let r = f(Arc::make_mut(&mut state.registry));
        self.registry_view.store(Arc::clone(&state.registry));
        r
    }

    /// [`Kernel::registry_mut`] for the subscription table.
    fn subs_mut<R>(&self, state: &mut State, f: impl FnOnce(&mut Subscriptions) -> R) -> R {
        let r = f(Arc::make_mut(&mut state.subs));
        self.subs_view.store(Arc::clone(&state.subs));
        r
    }

    /// Mutates the ownership tracker and republishes its epoch into the
    /// lock-free mirror before the commit guard can drop, so the mirror can
    /// never run ahead of (or permanently lag) the tracker. All tracker
    /// mutations go through here.
    fn tracker_mut<R>(&self, state: &mut State, f: impl FnOnce(&mut OwnershipTracker) -> R) -> R {
        let r = f(&mut state.tracker);
        self.tracker_epoch
            .store(state.tracker.epoch(), Ordering::Release);
        r
    }

    /// Records a mediated-call audit record, tagging the operation with
    /// `replay:` while this kernel is replaying journal records — forensic
    /// readers can tell re-derived records from originals, and the recovery
    /// tests can prove nothing is double-counted.
    fn record_audit(
        &self,
        app: AppId,
        operation: &str,
        token: PermissionToken,
        outcome: AuditOutcome,
    ) {
        if self.replaying.load(Ordering::SeqCst) {
            self.audit
                .record(app, &format!("replay:{operation}"), token, outcome);
        } else {
            self.audit.record(app, operation, token, outcome);
        }
    }

    /// Decides `call` against the calling app's `engine` — the one place a
    /// permission decision is made, whichever lane asks. Side-effect free.
    ///
    /// With a `tracker` — which only the commit-guard holder can supply — a
    /// stateful plan is decided against it and the answer is always `Some`.
    /// Without one, a call-only decision is returned as is: it is a pure
    /// function of the call, so a tracker write racing it cannot change the
    /// verdict. `None` means "needs live state" (a stateful plan) and the
    /// caller routes the call to a lane that holds the commit lock.
    fn decide(
        &self,
        engine: Option<&PermissionEngine>,
        call: &ApiCall,
        tracker: Option<&OwnershipTracker>,
    ) -> Option<Decision> {
        if !self.checks_enabled {
            return Some(Decision::Allowed);
        }
        // No engine: the app was never registered, or has been reaped.
        let Some(engine) = engine else {
            return Some(Decision::Denied {
                token: call.required_token(),
                reason: sdnshield_core::engine::DenyReason::MissingToken,
            });
        };
        engine
            .check_call_only(call, self.context_epoch())
            .or_else(|| tracker.map(|tracker| engine.check(call, tracker)))
    }

    /// Records a decision: traced under `lane`, and a denial audited as
    /// `op` and turned into the caller's error.
    fn admit(
        &self,
        call: &ApiCall,
        op: &str,
        lane: &'static str,
        decision: Decision,
    ) -> Result<(), ApiError> {
        if self.checks_enabled {
            self.trace_decision(call, decision.is_allowed(), lane);
        }
        if decision.is_allowed() {
            return Ok(());
        }
        self.record_audit(call.app, op, call.required_token(), AuditOutcome::Denied);
        Err(ApiError::from_decision(decision))
    }

    /// The authorize step of every mediated call that holds the commit
    /// lock: decide against live state, trace, audit a denial.
    fn authorize(
        &self,
        engine: Option<&PermissionEngine>,
        tracker: &OwnershipTracker,
        call: &ApiCall,
        op: &str,
        lane: &'static str,
    ) -> Result<(), ApiError> {
        let decision = self
            .decide(engine, call, Some(tracker))
            .expect("a live decision always resolves");
        self.admit(call, op, lane, decision)
    }

    /// The audit-outcome step: an authorized operation either took effect
    /// or failed downstream of the permission check.
    fn audit_outcome(&self, app: AppId, op: &str, token: PermissionToken, ok: bool) {
        let outcome = if ok {
            AuditOutcome::Allowed
        } else {
            AuditOutcome::Failed
        };
        self.record_audit(app, op, token, outcome);
    }

    /// [`Kernel::audit_outcome`] for a performed call: operation and token
    /// are the call's own.
    fn audit_call_outcome(&self, call: &ApiCall, ok: bool) {
        self.audit_outcome(call.app, call.kind.name(), call.required_token(), ok);
    }

    /// Enables/disables CBench mode (see the field documentation).
    pub fn set_absorb_packet_outs(&self, absorb: bool) {
        self.absorb_packet_outs
            .store(absorb, std::sync::atomic::Ordering::SeqCst);
    }

    /// The engine a checked kernel authorizes `app` against. `None` on the
    /// monolithic baseline (which never consults one) and for an
    /// unregistered app (which [`Kernel::decide`] denies).
    fn checked_engine<'r>(
        &self,
        registry: &'r Registry,
        app: AppId,
    ) -> Option<&'r PermissionEngine> {
        if self.checks_enabled {
            registry.engines.get(&app).map(|e| &**e)
        } else {
            None
        }
    }

    /// Registers an app's reconciled manifest, compiling its permission
    /// engine and materializing any virtual-topology filter.
    ///
    /// When the registration-time lint is enabled
    /// ([`Kernel::set_lint_on_register`]), the manifest first runs through
    /// the `sdnshield-analysis` semantic checks: every finding is recorded
    /// in the audit log (`lint:SH0xx` operations), and error-severity
    /// findings (e.g. an unsatisfiable filter conjunction) reject the
    /// registration outright.
    ///
    /// # Errors
    ///
    /// [`ApiError::Vtopo`] when a granted virtual topology names switches
    /// that do not exist; [`ApiError::ManifestRejected`] when the lint pass
    /// finds an error-severity defect.
    pub fn register_app(
        &self,
        app: AppId,
        name: &str,
        manifest: &PermissionSet,
    ) -> Result<(), ApiError> {
        let (outcome, _) = self.submit(Command::RegisterApp {
            app,
            name: name.to_owned(),
            manifest: manifest.to_string(),
        });
        outcome.into_ack()
    }

    /// Applies a registration. `text` is the canonical manifest text
    /// retained for snapshots; `lint` gates the registration-time lint
    /// (recovery re-registers snapshot apps with `lint = false` — those
    /// manifests were admitted before the crash).
    fn apply_register(
        &self,
        state: &mut State,
        app: AppId,
        name: &str,
        manifest: &PermissionSet,
        text: &str,
        lint: bool,
    ) -> Result<(), ApiError> {
        if lint {
            self.lint_manifest(app, name, manifest)?;
        }
        let engine = PermissionEngine::compile(manifest);
        // Materialize a virtual topology if the visible_topology filter
        // carries a VIRTUAL spec.
        let mut vtopo = None;
        if let Some(filter) = engine.filter_for(PermissionToken::VisibleTopology) {
            if let Some(spec) = find_vtopo_spec(filter) {
                let phys = phys_view(&self.network);
                let vt = VirtualTopology::build(&spec, &phys)
                    .map_err(|e| ApiError::Vtopo(e.to_string()))?;
                vtopo = Some(Arc::new(vt));
            }
        }
        self.registry_mut(state, |reg| {
            if let Some(vt) = vtopo {
                reg.vtopos.insert(app, vt);
            }
            reg.engines.insert(app, Arc::new(engine));
            reg.app_names.insert(app, name.to_owned());
            reg.manifests.insert(app, text.to_owned());
            reg.epoch += 1;
        });
        self.trace_event(|| sdnshield_core::trace::TraceEvent::Register {
            app,
            name: name.to_owned(),
            manifest: text.to_owned(),
        });
        Ok(())
    }

    /// The registration-time lint backstop: runs the static analyzer over
    /// the already-parsed manifest (span-less, so findings carry no source
    /// positions), records every finding in the audit log, and rejects on
    /// error severity.
    fn lint_manifest(
        &self,
        app: AppId,
        name: &str,
        manifest: &PermissionSet,
    ) -> Result<(), ApiError> {
        use sdnshield_analysis::Severity;
        let diags = sdnshield_analysis::analyze_permission_set(manifest);
        let replay = if self.replaying.load(Ordering::SeqCst) {
            "replay:"
        } else {
            ""
        };
        for d in &diags {
            self.audit.record_system(
                app,
                &format!("{replay}lint:{}", d.code),
                if d.severity >= Severity::Error {
                    AuditOutcome::Denied
                } else {
                    AuditOutcome::Allowed
                },
            );
        }
        if sdnshield_analysis::has_severity(&diags, Severity::Error) {
            let first = diags
                .iter()
                .find(|d| d.severity >= Severity::Error)
                .expect("an error-severity finding exists");
            return Err(ApiError::ManifestRejected(format!(
                "{name}: [{}] {}",
                first.code, first.message
            )));
        }
        Ok(())
    }

    /// Loading-time access control (paper §VIII-B): are all `required`
    /// tokens granted at all? Returns the missing tokens.
    pub fn missing_tokens(&self, app: AppId, required: &[PermissionToken]) -> Vec<PermissionToken> {
        self.with_registry(|reg| match reg.engines.get(&app) {
            Some(engine) => required
                .iter()
                .copied()
                .filter(|t| !engine.has_token(*t))
                .collect(),
            None => required.to_vec(),
        })
    }

    /// Executes one mediated call: permission check, execution, audit.
    /// Returns the response plus any events to dispatch.
    ///
    /// The call is reified as a [`Command`] and routed through
    /// [`Kernel::submit`] — checked and applied under the commit lock. A
    /// call that can change state is then sequenced and (with a journal
    /// attached) appended, denials included: replay re-derives the same
    /// denials, which is what keeps tracker epochs (a count of tracker
    /// mutations) identical between a live kernel and its recovered twin.
    /// A query ([`ApiCallKind::is_query`]) is decided against the live
    /// tracker and audited the same way, but takes no sequence number and
    /// is never journaled.
    pub fn execute(&self, call: &ApiCall) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        let (outcome, events) = self.submit(Command::Call(call.clone()));
        (outcome.into_api(), events)
    }

    /// Applies one mediated call: authorize, perform, audit the outcome.
    fn apply_call(
        &self,
        state: &mut State,
        call: &ApiCall,
    ) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        let engine = self.checked_engine(&state.registry, call.app);
        let op = call.kind.name();
        if let Err(denied) = self.authorize(engine, &state.tracker, call, op, "deputy") {
            return (Err(denied), Vec::new());
        }
        self.perform_audited(state, call)
    }

    /// Performs an authorized call and audits its outcome. In CBench mode
    /// a packet-out skips the data-plane walk, but a wire-attached switch
    /// still gets the mediated reply on its socket — audited before it
    /// leaves, so a switch that sees the reply can already find the record.
    fn perform_audited(
        &self,
        state: &mut State,
        call: &ApiCall,
    ) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        if let ApiCallKind::SendPacketOut { dpid, packet_out } = &call.kind {
            if self.absorb_packet_outs.load(Ordering::SeqCst) {
                self.audit_call_outcome(call, true);
                self.network.notify_wire_packet_out(*dpid, packet_out);
                return (Ok(ApiResponse::Unit), Vec::new());
            }
        }
        let (result, events) = self.perform(state, call);
        self.audit_call_outcome(call, result.is_ok());
        (result, events)
    }

    /// Serves a side-effect-free read entirely on the calling thread — the
    /// app-side fast path (DESIGN.md "Read fast path & vectored delivery").
    ///
    /// Returns `Some` only when *both* halves of the call are pure:
    ///
    /// * the permission decision is a pure function of the call
    ///   ([`PermissionEngine::check_call_only`] — constant or call-only
    ///   plan; stateful literals route to the deputy), and
    /// * the call is a query ([`ApiCallKind::is_query`]), which
    ///   [`Kernel::serve_read`] answers from the registry view and the
    ///   network alone.
    ///
    /// The thread pins once: the engine the call is checked against and the
    /// registry the read is filtered through are one published view, so a
    /// registration change is seen entirely or not at all. A call-only
    /// decision cannot depend on the ownership tracker, so a tracker write
    /// racing it never sends the call back to the deputy. Denials and
    /// served reads are audited exactly as [`Kernel::execute`] would audit
    /// them, and neither lane journals a query, so forensics cannot tell
    /// the two paths apart.
    ///
    /// `None` always means "route through the deputy", never "denied": it
    /// is returned only for a stateful plan or an unregistered app.
    pub fn try_serve_read(&self, call: &ApiCall) -> Option<Result<ApiResponse, ApiError>> {
        if !call.kind.is_query() {
            return None;
        }
        self.with_registry(|registry| {
            let engine = self.checked_engine(registry, call.app);
            if self.checks_enabled && engine.is_none() {
                // Unregistered or reaped: the deputy lane denies it.
                return None;
            }
            // No commit guard here, so there is no tracker to consult: a
            // stateful plan abandons the hit and the deputy decides it
            // against live state.
            let decision = self.decide(engine, call, None)?;
            if let Err(denied) = self.admit(call, call.kind.name(), "fastlane", decision) {
                return Some(Err(denied));
            }
            let result = self.serve_read(registry, call);
            self.audit_call_outcome(call, result.is_ok());
            Some(result)
        })
    }

    /// Executes an atomic group of flow operations (paper §VI-B2): all
    /// operations are permission-checked first; execution applies all or —
    /// on a mid-flight switch error — rolls back the already-applied prefix.
    /// Check and apply are one step at the seam, so no other writer or
    /// [`Kernel::snapshot`] observes the group half-applied.
    pub fn execute_transaction(
        &self,
        app: AppId,
        ops: &[FlowOp],
    ) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        let (outcome, events) = self.submit(Command::Transaction {
            app,
            ops: ops.to_vec(),
        });
        (outcome.into_api(), events)
    }

    /// Executes a batch of flow operations submitted through the batched
    /// deputy API (`AppCtx::submit_batch`) or returned by a batched handler
    /// (`BurstOutput::flow_ops`, applied by the app runtime): the same
    /// atomic check/apply/rollback machinery as
    /// [`Kernel::execute_transaction`], but audited as a `batch`. The win
    /// over N singleton calls is amortization — at most one channel
    /// crossing, one engine fetch, one commit, and one audit record for the
    /// whole group.
    pub fn execute_batch(
        &self,
        app: AppId,
        ops: &[FlowOp],
    ) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        let (outcome, events) = self.submit(Command::Batch {
            app,
            ops: ops.to_vec(),
        });
        (outcome.into_api(), events)
    }

    /// Checks and applies the group of packet-outs a batched handler
    /// returned (`BurstOutput::packet_outs`, applied by the app runtime) —
    /// the vectored counterpart of N singleton `send_pkt_out` calls.
    /// Best-effort like a loop of singleton calls: one denial or switch
    /// error skips that packet-out, audited individually, and the rest
    /// still go out. The win is amortization — one engine fetch and one
    /// journal record for the whole group. Returns the number actually
    /// sent plus derived events (packet-ins absorbed from the data-plane
    /// walk).
    pub fn execute_packet_outs(
        &self,
        app: AppId,
        outs: &[(DatapathId, PacketOut)],
    ) -> (Result<usize, ApiError>, Vec<OutboundEvent>) {
        let (outcome, events) = self.submit(Command::PacketOuts {
            app,
            outs: outs.to_vec(),
        });
        (outcome.into_count(), events)
    }

    fn apply_packet_outs(
        &self,
        state: &mut State,
        app: AppId,
        outs: &[(DatapathId, PacketOut)],
    ) -> (Result<usize, ApiError>, Vec<OutboundEvent>) {
        // Checks and applies interleave, so the engine is borrowed from a
        // local handle on the registry rather than through `state`.
        let registry = Arc::clone(&state.registry);
        let engine = self.checked_engine(&registry, app);
        let mut sent = 0usize;
        let mut events = Vec::new();
        for (dpid, packet_out) in outs {
            let call = ApiCall {
                app,
                kind: ApiCallKind::SendPacketOut {
                    dpid: *dpid,
                    packet_out: packet_out.clone(),
                },
            };
            if let Err(denied) =
                self.authorize(engine, &state.tracker, &call, call.kind.name(), "vectored")
            {
                if engine.is_none() {
                    // Unregistered or reaped: the whole group is refused.
                    return (Err(denied), events);
                }
                continue;
            }
            let (result, evs) = self.perform_audited(state, &call);
            if result.is_ok() {
                sent += 1;
            }
            events.extend(evs);
        }
        (Ok(sent), events)
    }

    /// The current context epoch: advances whenever the ownership tracker
    /// mutates, invalidating engine decision caches keyed on it (see
    /// [`sdnshield_core::eval::CheckContext::epoch`]). Every tracker
    /// mutation routes through its `record_*` methods, which bump the
    /// counter unconditionally — no kernel call site can forget.
    pub fn context_epoch(&self) -> u64 {
        self.tracker_epoch.load(Ordering::Acquire)
    }

    /// Shared atomic check/apply/rollback for transactions and batches.
    fn run_atomic(
        &self,
        state: &mut State,
        app: AppId,
        ops: &[FlowOp],
        audit_op: &'static str,
    ) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        // Phase 1: check everything before touching any state. The commit
        // lock is held, so every check sees one consistent tracker view.
        let engine = self.checked_engine(&state.registry, app);
        for (i, op) in ops.iter().enumerate() {
            let call = flow_op_call(app, op);
            if let Err(denied) = self.authorize(engine, &state.tracker, &call, audit_op, "batch") {
                let err = if engine.is_none() {
                    // Unregistered or reaped: the whole group is refused.
                    denied
                } else {
                    ApiError::TransactionAborted {
                        failed_index: i,
                        cause: Box::new(denied),
                    }
                };
                return (Err(err), Vec::new());
            }
        }
        // Phase 2: apply, with rollback on switch errors.
        let mut applied: Vec<(usize, Vec<sdnshield_openflow::flow_table::RemovedEntry>)> =
            Vec::new();
        let mut events = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let stamped = stamp_cookie(app, &op.flow_mod);
            match self.network.apply_flow_mod(op.dpid, &stamped) {
                Ok(removed) => {
                    self.tracker_mut(state, |t| t.record_flow_mod(app, op.dpid, &stamped));
                    events.extend(removed_events(op.dpid, &removed));
                    applied.push((i, removed));
                }
                Err(e) => {
                    // Roll back the applied prefix in reverse order.
                    for (j, removed) in applied.into_iter().rev() {
                        self.rollback(state, app, &ops[j], removed);
                    }
                    self.audit_outcome(app, audit_op, PermissionToken::InsertFlow, false);
                    return (
                        Err(ApiError::TransactionAborted {
                            failed_index: i,
                            cause: Box::new(ApiError::Switch(e)),
                        }),
                        Vec::new(),
                    );
                }
            }
        }
        self.audit_outcome(app, audit_op, PermissionToken::InsertFlow, true);
        (Ok(ApiResponse::Unit), events)
    }

    /// Injects a data-plane frame from a host NIC (the simulation driver),
    /// returning packet-in events for dispatch.
    pub fn inject_host_frame(&self, frame: EthernetFrame) -> Vec<OutboundEvent> {
        self.submit(Command::InjectHostFrame { frame }).1
    }

    /// Feeds a fabricated packet-in (CBench-style benchmarking) without a
    /// data-plane walk.
    pub fn feed_packet_in(&self, dpid: DatapathId, packet_in: PacketIn) -> Vec<OutboundEvent> {
        vec![OutboundEvent {
            event: Event::PacketIn { dpid, packet_in },
        }]
    }

    /// Fails the link between two switches: removes it from the topology
    /// and produces a topology-changed event for subscribed apps. Returns
    /// `None` when no such link existed (no event is produced).
    pub fn fail_link(&self, a: DatapathId, b: DatapathId) -> Option<OutboundEvent> {
        self.submit(Command::FailLink { a, b }).1.into_iter().next()
    }

    /// Advances the virtual clock, expiring flows and producing
    /// flow-removed events. Time itself is a journaled command: flow expiry
    /// is a deterministic function of clock position, so replaying the
    /// clock replays the expiries.
    pub fn advance_clock(&self, secs: u64) -> Vec<OutboundEvent> {
        self.submit(Command::AdvanceClock { secs }).1
    }

    /// Records entries that left the data plane without a flow-mod (timeout
    /// expiry, owner or switch reaped) in the ownership tracker and returns
    /// their flow-removed events.
    fn expire(&self, state: &mut State, removed: Vec<RemovedFlow>) -> Vec<OutboundEvent> {
        let mut events = Vec::new();
        if removed.is_empty() {
            return events;
        }
        self.tracker_mut(state, |tracker| {
            for r in removed {
                tracker.record_expiry(
                    r.dpid,
                    &r.removed.entry.flow_match,
                    r.removed.entry.priority,
                );
                events.push(OutboundEvent {
                    event: Event::FlowRemoved {
                        dpid: r.dpid,
                        flow_removed: to_flow_removed(&r.removed),
                    },
                });
            }
        });
        events
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> u64 {
        self.network.now()
    }

    /// Reaps every trace of an app from the kernel: its permission engine,
    /// virtual topology, event and topic subscriptions, open host
    /// connections, and — via cookie ownership — every flow entry it
    /// installed on any switch. Called by the supervisor when the app
    /// crashes (and by registration rollback).
    ///
    /// Returns flow-removed events for the reclaimed entries so surviving
    /// subscribers can react, exactly as they would to a timeout expiry.
    /// Crash forensics (the app's name, crash counts) live with the
    /// supervisor, which outlives the kernel-side registration; the removals
    /// are recorded in the ownership tracker so later reads of the reclaimed
    /// matches are not misattributed. The registry and subscription views
    /// are republished before this returns: from then on no off-lock reader
    /// finds the app's engine or routes an event to it.
    pub fn deregister_app(&self, app: AppId) -> Vec<OutboundEvent> {
        self.submit(Command::DeregisterApp { app }).1
    }

    fn apply_deregister(&self, state: &mut State, app: AppId) -> Vec<OutboundEvent> {
        self.trace_event(|| sdnshield_core::trace::TraceEvent::Deregister { app });
        self.registry_mut(state, |reg| {
            reg.engines.remove(&app);
            reg.app_names.remove(&app);
            reg.vtopos.remove(&app);
            reg.manifests.remove(&app);
            reg.epoch += 1;
        });
        self.subs_mut(state, |subs| {
            for subs in subs.by_kind.values_mut() {
                subs.retain(|(a, _)| *a != app);
            }
            for subs in subs.custom.values_mut() {
                subs.retain(|a| *a != app);
            }
        });
        state.host.close_connections(app);
        let removed = self.network.remove_flows_owned_by(app.0);
        self.expire(state, removed)
    }

    /// Reaps every flow on a switch whose control connection died, through
    /// the seam: the deletion is journaled and each removed entry reaches
    /// the ownership tracker, so its owner's rule quota is released and a
    /// recovered kernel agrees. The flow-removed events are returned like
    /// [`Kernel::deregister_app`]'s; the southbound reactor — the one
    /// caller — has no dispatcher to hand them to and drops them.
    pub fn reap_switch(&self, dpid: DatapathId) -> Vec<OutboundEvent> {
        self.submit(Command::ReapSwitch { dpid }).1
    }

    /// Records an app crash in the audit log (`phase` says where it died,
    /// e.g. `on_event`).
    pub fn audit_crash(&self, app: AppId, phase: &str) {
        self.audit
            .record_system(app, &format!("crash:{phase}"), AuditOutcome::Crashed);
    }

    /// Records an event discarded before the app saw it (overload shedding
    /// or crash reaping).
    pub fn audit_dropped(&self, app: AppId, reason: &str) {
        self.audit
            .record_system(app, reason, crate::audit::AuditOutcome::Dropped);
    }

    /// Apps subscribed to an event kind, in delivery order (interceptors
    /// first).
    pub fn subscribers(&self, kind: EventKind) -> Vec<AppId> {
        self.subs_view
            .load(&epoch::pin())
            .by_kind
            .get(kind_key(kind))
            .map(|subs| subs.iter().map(|(a, _)| *a).collect())
            .unwrap_or_default()
    }

    /// Apps subscribed to an event kind with their interception flag, in
    /// delivery order. Interceptors must finish processing an event before
    /// non-interceptors see it (paper §IV-B, `EVENT_INTERCEPTION`).
    pub fn subscribers_phased(&self, kind: EventKind) -> Vec<(AppId, bool)> {
        self.subs_view
            .load(&epoch::pin())
            .by_kind
            .get(kind_key(kind))
            .cloned()
            .unwrap_or_default()
    }

    /// Apps subscribed to a custom topic.
    pub fn topic_subscribers(&self, topic: &str) -> Vec<AppId> {
        self.subs_view
            .load(&epoch::pin())
            .custom
            .get(topic)
            .cloned()
            .unwrap_or_default()
    }

    /// Subscribes an app to a custom topic (not permission-gated: topics are
    /// app-published data, mediated by the publishing app).
    ///
    /// # Errors
    ///
    /// [`ApiError::Shutdown`] when the kernel is sealed: the subscription
    /// is not made.
    pub fn subscribe_topic(&self, app: AppId, topic: &str) -> Result<(), ApiError> {
        let (outcome, _) = self.submit(Command::SubscribeTopic {
            app,
            topic: topic.to_owned(),
        });
        outcome.into_ack()
    }

    /// May this app read packet-in payloads (`read_payload`)? Always true on
    /// the monolithic baseline. The fan-out path uses this to pick between
    /// the shared full view and the shared stripped view of a packet-in
    /// instead of cloning a per-app event.
    pub(crate) fn payload_access_for(&self, app: AppId) -> bool {
        if !self.checks_enabled {
            return true;
        }
        self.with_registry(|reg| {
            reg.engines
                .get(&app)
                .is_some_and(|e| e.has_token(PermissionToken::ReadPayload))
        })
    }

    /// Records packet-in payload provenance for a batch of deliveries in one
    /// command (one epoch bump per `record_pkt_in`, exactly as the per-app
    /// [`Kernel::event_view_for`] would do, but without a submit per app per
    /// event).
    pub(crate) fn record_pkt_ins(&self, grants: &[(AppId, Bytes)]) {
        if grants.is_empty() {
            return;
        }
        let _ = self.submit(Command::RecordPktIns {
            grants: grants.to_vec(),
        });
    }

    /// Prepares the per-app view of an event: strips packet-in payloads for
    /// apps without `read_payload`, and records payload provenance for those
    /// with it. Returns `None` if the app should not receive the event.
    pub fn event_view_for(&self, app: AppId, event: &Event) -> Option<Event> {
        match event {
            Event::PacketIn { dpid, packet_in } => {
                let mut pi = packet_in.clone();
                if self.payload_access_for(app) {
                    // Routed through the seam: the provenance grant is a
                    // tracker mutation and must replay.
                    self.record_pkt_ins(&[(app, pi.payload.clone())]);
                } else {
                    pi.payload = Bytes::new();
                }
                Some(Event::PacketIn {
                    dpid: *dpid,
                    packet_in: pi,
                })
            }
            other => Some(other.clone()),
        }
    }

    /// Snapshot of the audit log (prefer [`Kernel::audit_records_since`]
    /// for repeated reads).
    pub fn audit_records(&self) -> Vec<crate::audit::AuditRecord> {
        self.audit.records()
    }

    /// Incremental audit read: records with sequence number greater than
    /// `since`, oldest first. A reader advancing its cursor to the last
    /// returned `seq` sees every record exactly once, without cloning the
    /// whole log on each poll.
    pub fn audit_records_since(&self, since: u64) -> Vec<crate::audit::AuditRecord> {
        self.audit.records_since(since)
    }

    /// The registered name of an app (diagnostics/forensics).
    pub fn app_name(&self, app: AppId) -> Option<String> {
        self.with_registry(|reg| reg.app_names.get(&app).cloned())
    }

    /// Sends real bytes on an app's host connection, re-validating the
    /// destination against the app's `host_network` filter (so a filter
    /// narrowed after connect still applies).
    pub fn host_send(&self, app: AppId, conn: ConnId, data: Bytes) -> Result<(), ApiError> {
        let (outcome, _) = self.submit(Command::HostSend {
            app,
            conn: conn.0,
            data,
        });
        outcome.into_ack()
    }

    fn apply_host_send(
        &self,
        state: &mut State,
        app: AppId,
        conn: ConnId,
        data: Bytes,
    ) -> Result<(), ApiError> {
        let dst = state
            .host
            .connections_by(app)
            .find(|c| c.id == conn)
            .map(|c| (c.dst_ip, c.dst_port));
        let Some((dst_ip, dst_port)) = dst else {
            return Err(ApiError::Switch(OfError::BadRequest(
                "unknown connection handle".into(),
            )));
        };
        // The decision is the one `host_connect` to this destination would
        // get today, so it is checked — and traced — as that call.
        let connect = ApiCall::new(app, ApiCallKind::HostConnect { dst_ip, dst_port });
        let engine = self.checked_engine(&state.registry, app);
        self.authorize(engine, &state.tracker, &connect, "host_send", "deputy")?;
        state.host.send(app, conn, data);
        self.audit_outcome(app, "host_send", PermissionToken::HostNetwork, true);
        Ok(())
    }

    /// Bytes an app has sent to the outside world via the host network.
    /// Forensics: takes the commit lock, like the two accessors below.
    pub fn bytes_exfiltrated_by(&self, app: AppId) -> usize {
        self.commit.lock().host.bytes_exfiltrated_by(app)
    }

    /// Host connections opened by an app (forensics).
    pub fn connections_by(&self, app: AppId) -> Vec<crate::hostsys::Connection> {
        let state = self.commit.lock();
        state.host.connections_by(app).cloned().collect()
    }

    /// Frames received by a host NIC during the simulation (forensics).
    pub fn host_received(&self, mac: EthAddr) -> Vec<EthernetFrame> {
        let state = self.commit.lock();
        state.host_inbox.get(&mac).cloned().unwrap_or_default()
    }

    /// Runs a closure with read access to the network (tests, benches).
    pub fn with_network<R>(&self, f: impl FnOnce(&Network) -> R) -> R {
        f(&self.network)
    }

    /// Number of flow entries currently installed on a switch, served from
    /// the network's RCU view without taking the switch lock.
    pub fn flow_count(&self, dpid: DatapathId) -> usize {
        self.network.flow_count(dpid).unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // The deterministic command pipeline (DESIGN.md §12).
    // ------------------------------------------------------------------

    /// Attaches a command journal: every subsequent command is queued on it
    /// under the commit lock, right after it is applied, and written before
    /// its submit returns. Attach AFTER
    /// any recovery replay has finished — replay must never re-append the
    /// records it is consuming.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        let mut state = self.commit.lock();
        let seq = journal
            .last_seq()
            .max(self.last_applied.load(Ordering::SeqCst));
        self.last_applied.store(seq, Ordering::SeqCst);
        state.journal = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.commit.lock().journal.clone()
    }

    /// Sequence number of the last applied command (0 before any).
    pub fn last_applied(&self) -> u64 {
        self.last_applied.load(Ordering::SeqCst)
    }

    /// Fences this kernel: every later [`Kernel::submit`] is refused with
    /// [`ApiError::Shutdown`] instead of being applied. Locking and
    /// unlocking the commit mutex makes seal a barrier — every in-flight
    /// submit has committed and queued its record — and writing the
    /// journal's queue out then puts every committed record on file, so the
    /// journal holds every command whose reply was acknowledged. This is how
    /// failover fences the old primary before promoting the standby.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
        let journal = self.commit.lock().journal.clone();
        if let Some(journal) = journal {
            journal.flush();
        }
    }

    /// Has this kernel been sealed?
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// The single mutation seam (DESIGN.md §16): take the commit lock, apply
    /// the command, queue its journal record, drop the lock, then wait for
    /// the record to be written. Journal order is commit order, and every
    /// record's `audit_seq_after` watermark is captured right after that
    /// command's audit records land. The file write-out happens outside
    /// the lock: a group of submitters that committed meanwhile shares one
    /// store through the journal file's mapped window (see
    /// [`crate::journal`]). A kernel with no journal attached runs the same
    /// seam and appends nothing. A query ([`Command::is_query`]) is applied
    /// under the lock like any command, so a stateful plan is decided
    /// against the live tracker, but it is not sequenced, journaled or
    /// waited for, and the combiner counters do not count it.
    pub fn submit(&self, cmd: Command) -> (CommandOutcome, Vec<OutboundEvent>) {
        // One yield and one retry before blocking: on an oversubscribed
        // host a failed try_lock usually means the holder was preempted
        // mid-commit; handing it the core lets it finish, and the retry
        // wins without a futex sleep and wake.
        let mut guard = self
            .commit
            .try_lock()
            .or_else(|| {
                std::thread::yield_now();
                self.commit.try_lock()
            })
            .unwrap_or_else(|| self.commit.lock());
        let (out, committed) = self.commit_one(&mut guard, cmd);
        drop(guard);
        let Committed::Sequenced(queued) = committed else {
            return out;
        };
        let c = &self.combiner;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        match queued {
            Some((journal, seq)) if journal.sync(seq) == 0 => {
                c.combined.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                c.writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    /// Commits one command under the held lock: apply, then — unless it is
    /// a query — sequence and journal. Returns the outcome plus what the
    /// caller must do once the lock is gone.
    fn commit_one(&self, state: &mut State, cmd: Command) -> (Submitted, Committed) {
        if self.sealed.load(Ordering::SeqCst) {
            let sealed = CommandOutcome::error_for(&cmd)(ApiError::Shutdown);
            return ((sealed, Vec::new()), Committed::Sequenced(None));
        }
        let out = self.apply_command(state, &cmd);
        if cmd.is_query() {
            return (out, Committed::Query);
        }
        let seq = self.last_applied.load(Ordering::SeqCst) + 1;
        self.last_applied.store(seq, Ordering::SeqCst);
        let queued = state
            .journal
            .as_ref()
            .filter(|journal| journal.append(seq, self.audit.seen(), cmd))
            .map(|journal| (Arc::clone(journal), seq));
        (out, Committed::Sequenced(queued))
    }

    /// Snapshot of the write pipeline's counters.
    pub fn combiner_stats(&self) -> CombinerStats {
        let c = &self.combiner;
        CombinerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            combined: c.combined.load(Ordering::Relaxed),
        }
    }

    /// Applies one command — the only way kernel state changes. Pure
    /// function of kernel state plus the command: no wall clock, no
    /// randomness — the determinism the whole recovery story rests on.
    /// `state` is the commit guard's, so the caller holds the lock.
    fn apply_command(&self, state: &mut State, cmd: &Command) -> Submitted {
        let ack = |events| (CommandOutcome::Ack(Ok(())), events);
        match cmd {
            Command::RegisterApp {
                app,
                name,
                manifest,
            } => {
                let result = match sdnshield_core::lang::parse_manifest(manifest) {
                    Ok(set) => {
                        // Lint per the (snapshot-restored) runtime flag, so
                        // replaying a lint-rejected registration re-derives
                        // the same rejection.
                        let lint = self.lint_on_register.load(Ordering::SeqCst);
                        self.apply_register(state, *app, name, &set, manifest, lint)
                    }
                    Err(e) => Err(ApiError::ManifestRejected(e.to_string())),
                };
                (CommandOutcome::Ack(result), Vec::new())
            }
            Command::DeregisterApp { app } => ack(self.apply_deregister(state, *app)),
            Command::Call(call) => {
                let (result, events) = self.apply_call(state, call);
                (CommandOutcome::Api(result), events)
            }
            Command::Transaction { app, ops } => {
                let (result, events) = self.run_atomic(state, *app, ops, "transaction");
                (CommandOutcome::Api(result), events)
            }
            Command::Batch { app, ops } => {
                let (result, events) = self.run_atomic(state, *app, ops, "batch");
                (CommandOutcome::Api(result), events)
            }
            Command::PacketOuts { app, outs } => {
                let (result, events) = self.apply_packet_outs(state, *app, outs);
                (CommandOutcome::Count(result), events)
            }
            Command::HostSend { app, conn, data } => {
                let result = self.apply_host_send(state, *app, ConnId(*conn), data.clone());
                (CommandOutcome::Ack(result), Vec::new())
            }
            Command::SubscribeTopic { app, topic } => {
                self.subs_mut(state, |subs| {
                    let subs = subs.custom.entry(topic.clone()).or_default();
                    if !subs.contains(app) {
                        subs.push(*app);
                    }
                });
                ack(Vec::new())
            }
            Command::AdvanceClock { secs } => {
                let removed = self.network.advance_clock(*secs);
                ack(self.expire(state, removed))
            }
            Command::FailLink { a, b } => {
                let failed = self.network.with_topology_mut(|t| t.remove_link(*a, *b));
                ack(failed
                    .then(|| OutboundEvent {
                        event: Event::TopologyChanged {
                            description: format!("link {a} <-> {b} failed"),
                        },
                    })
                    .into_iter()
                    .collect())
            }
            Command::InjectHostFrame { frame } => {
                ack(match self.network.inject_from_host(frame.clone()) {
                    Ok(deliveries) => self.absorb_deliveries(state, deliveries),
                    Err(_) => Vec::new(),
                })
            }
            Command::RecordPktIns { grants } => {
                self.tracker_mut(state, |tracker| {
                    for (app, payload) in grants {
                        tracker.record_pkt_in(*app, payload);
                    }
                });
                ack(Vec::new())
            }
            Command::ReapSwitch { dpid } => {
                // Delete-all, then the expiry path: every removed entry
                // reaches `record_expiry`, releasing its owner's quota.
                let removed = self
                    .network
                    .apply_flow_mod(*dpid, &FlowMod::delete(FlowMatch::any()))
                    .unwrap_or_default()
                    .into_iter()
                    .map(|removed| RemovedFlow {
                        dpid: *dpid,
                        removed,
                    })
                    .collect();
                ack(self.expire(state, removed))
            }
        }
    }

    /// Applies journal records in order, skipping any with `seq` at or
    /// below [`Kernel::last_applied`] — idempotent replay keyed by command
    /// sequence, so a record delivered twice (recovery then catch-up, say)
    /// is applied exactly once. Audit records re-derived during replay are
    /// tagged `replay:`. Returns how many records were applied.
    pub fn replay_records(&self, records: &[JournalRecord]) -> usize {
        let mut state = self.commit.lock();
        self.replaying.store(true, Ordering::SeqCst);
        let mut applied = 0;
        for rec in records {
            if rec.seq <= self.last_applied.load(Ordering::SeqCst) {
                continue;
            }
            let _ = self.apply_command(&mut state, &rec.cmd);
            self.last_applied.store(rec.seq, Ordering::SeqCst);
            applied += 1;
        }
        self.replaying.store(false, Ordering::SeqCst);
        applied
    }

    /// Serializes the kernel's entire mutable state. Taken under the commit
    /// lock, so the image is a consistent cut: no command is half-included.
    /// The result doubles as the equivalence digest the differential
    /// recovery tests compare ([`KernelSnapshot::state_eq`]).
    pub fn snapshot(&self) -> KernelSnapshot {
        let state = self.commit.lock();
        let apps = {
            let reg = &state.registry;
            let mut apps: Vec<(AppId, String, String)> = reg
                .app_names
                .iter()
                .map(|(id, name)| {
                    (
                        *id,
                        name.clone(),
                        reg.manifests.get(id).cloned().unwrap_or_default(),
                    )
                })
                .collect();
            apps.sort_by_key(|(id, _, _)| *id);
            apps
        };
        let (subs_by_kind, subs_custom) = {
            let subs = &state.subs;
            (
                subs.by_kind
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
                subs.custom
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            )
        };
        let tracker = state.tracker.snapshot();
        let (links, mut dpids) = {
            let topo = self.network.topology();
            let links: Vec<(DatapathId, DatapathId)> =
                topo.link_ids().into_iter().map(|l| (l.0, l.1)).collect();
            let dpids: Vec<DatapathId> = topo.switches().map(|s| s.dpid).collect();
            (links, dpids)
        };
        dpids.sort_unstable();
        let mut switches = Vec::with_capacity(dpids.len());
        for dpid in dpids {
            if let Some(sw) = self.network.switch(dpid) {
                let stats = sw.table().table_stats();
                switches.push(SwitchSnapshot {
                    dpid,
                    entries: sw.table().iter().cloned().collect(),
                    lookup_count: stats.lookup_count,
                    matched_count: stats.matched_count,
                    port_stats: sw.port_stats().cloned().collect(),
                });
            }
        }
        let host = state.host.snapshot();
        let host_inbox = state
            .host_inbox
            .iter()
            .map(|(mac, frames)| (*mac, frames.clone()))
            .collect();
        KernelSnapshot {
            last_seq: self.last_applied.load(Ordering::SeqCst),
            audit_seq: self.audit.seen(),
            clock: self.network.now(),
            checks_enabled: self.checks_enabled,
            absorb_packet_outs: self
                .absorb_packet_outs
                .load(std::sync::atomic::Ordering::SeqCst),
            lint_on_register: self
                .lint_on_register
                .load(std::sync::atomic::Ordering::SeqCst),
            registry_epoch: state.registry.epoch,
            apps,
            subs_by_kind,
            subs_custom,
            tracker,
            links,
            switches,
            host,
            host_inbox,
        }
    }

    /// Rebuilds a kernel from a snapshot, then replays the journal suffix
    /// after it (`seq > snapshot.last_seq`) — the crash-recovery restart
    /// path. `network` must be a FRESH simulation built from the same
    /// topology blueprint the crashed kernel ran on (same switches, hosts,
    /// table capacity); recovery prunes the links the snapshot recorded as
    /// failed and overwrites per-switch state on top.
    ///
    /// The journal is NOT attached: replay must never re-append the records
    /// it consumes. Attach it afterwards with [`Kernel::attach_journal`] if
    /// the recovered kernel should keep journaling.
    pub fn recover(network: Network, snapshot: &KernelSnapshot, journal: &Journal) -> Kernel {
        let kernel = Kernel::new(network, snapshot.checks_enabled);
        kernel.set_absorb_packet_outs(snapshot.absorb_packet_outs);
        kernel.set_lint_on_register(snapshot.lint_on_register);
        kernel.network.set_clock(snapshot.clock);
        // Prune links that had already failed by snapshot time.
        let fresh: Vec<(DatapathId, DatapathId)> = kernel
            .network
            .topology()
            .link_ids()
            .into_iter()
            .map(|l| (l.0, l.1))
            .collect();
        for (a, b) in fresh {
            let survived = snapshot
                .links
                .iter()
                .any(|&(x, y)| (x, y) == (a, b) || (y, x) == (a, b));
            if !survived {
                kernel.network.with_topology_mut(|t| t.remove_link(a, b));
            }
        }
        {
            let mut state = kernel.commit.lock();
            // Re-register apps from canonical manifest text, recompiling the
            // identical engines. No lint: these manifests were admitted
            // before the crash.
            for (app, name, text) in &snapshot.apps {
                if let Ok(set) = sdnshield_core::lang::parse_manifest(text) {
                    let _ = kernel.apply_register(&mut state, *app, name, &set, text, false);
                }
            }
            kernel.registry_mut(&mut state, |reg| reg.epoch = snapshot.registry_epoch);
            kernel.subs_mut(&mut state, |subs| {
                subs.by_kind = snapshot
                    .subs_by_kind
                    .iter()
                    .filter_map(|(kind, list)| Some((static_kind(kind)?, list.clone())))
                    .collect();
                subs.custom = snapshot.subs_custom.iter().cloned().collect();
            });
            kernel.tracker_mut(&mut state, |tracker| {
                *tracker = OwnershipTracker::restore(&snapshot.tracker)
            });
            for sw in &snapshot.switches {
                if let Some(mut s) = kernel.network.switch(sw.dpid) {
                    s.restore_state(
                        sw.entries.clone(),
                        sw.lookup_count,
                        sw.matched_count,
                        sw.port_stats.clone(),
                    );
                }
            }
            state.host = HostSystem::restore(&snapshot.host);
            state.host_inbox = snapshot.host_inbox.iter().cloned().collect();
        }
        kernel
            .last_applied
            .store(snapshot.last_seq, Ordering::SeqCst);
        // The suffix is replayed in place, under the journal's lock: this
        // kernel has no journal attached, so it never takes that lock itself.
        journal.with_records_since(snapshot.last_seq, |suffix| {
            // Seed audit numbering at the watermark of the last durable
            // record (or the snapshot's, when the suffix is empty): replayed
            // audit records extend the sequence from there under `replay:`
            // tags, and pre-crash cursors resume without reading the
            // renumbering as loss.
            let audit_watermark = suffix
                .last()
                .map_or(snapshot.audit_seq, |r| r.audit_seq_after);
            kernel.audit.seed(audit_watermark);
            kernel.replay_records(suffix);
        });
        kernel
    }

    /// Replays a recorded command trace onto a fresh kernel — the
    /// record/replay debugging path: a trace captured from a crashed run
    /// re-executes deterministically on the virtual clock as a
    /// single-threaded unit test. Audit records carry `replay:` tags.
    pub fn replay_trace(network: Network, checks_enabled: bool, trace: &[JournalRecord]) -> Kernel {
        let kernel = Kernel::new(network, checks_enabled);
        kernel.replay_records(trace);
        kernel
    }

    /// Serves an already-authorized read — one of the three kinds that
    /// mutate nothing and emit no events — from the network and `registry`
    /// alone. Shared by the fast lane (the published view) and the seam
    /// (the guard's own copy).
    fn serve_read(&self, registry: &Registry, call: &ApiCall) -> Result<ApiResponse, ApiError> {
        let app = call.app;
        match &call.kind {
            ApiCallKind::ReadFlowTable { dpid, query } => {
                let reply = self
                    .network
                    .stats(*dpid, &StatsRequest::Flow(query.clone()))
                    .map_err(ApiError::Switch)?;
                let StatsReply::Flow(entries) = reply else {
                    unreachable!("flow request yields flow reply");
                };
                let visible = if self.checks_enabled {
                    let engine = registry.engines.get(&app);
                    entries
                        .into_iter()
                        .filter(|e| {
                            engine.is_some_and(|engine| {
                                engine.entry_visible(
                                    PermissionToken::ReadFlowTable,
                                    &e.flow_match,
                                    *dpid,
                                    e.cookie.owner() == app.0,
                                )
                            })
                        })
                        .collect()
                } else {
                    entries
                };
                Ok(ApiResponse::FlowEntries(visible))
            }
            ApiCallKind::ReadTopology => {
                Ok(ApiResponse::Topology(self.topology_view_for(registry, app)))
            }
            ApiCallKind::ReadStatistics { dpid, request } => {
                // Virtual-topology apps fan out to members and aggregate.
                if let Some(vt) = registry.vtopos.get(&app) {
                    let members = vt
                        .expand_members(*dpid)
                        .map_err(|e| ApiError::Vtopo(e.to_string()))?;
                    let mut replies = Vec::new();
                    for m in members {
                        replies.push(self.network.stats(m, request).map_err(ApiError::Switch)?);
                    }
                    return Ok(ApiResponse::Stats(vt.aggregate_stats(replies)));
                }
                self.network
                    .stats(*dpid, request)
                    .map(ApiResponse::Stats)
                    .map_err(ApiError::Switch)
            }
            _ => unreachable!("serve_read is only handed the three read kinds"),
        }
    }

    /// Performs an already-authorized call.
    fn perform(
        &self,
        state: &mut State,
        call: &ApiCall,
    ) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        let app = call.app;
        match &call.kind {
            ApiCallKind::ReadTopology
            | ApiCallKind::ReadFlowTable { .. }
            | ApiCallKind::ReadStatistics { .. } => {
                (self.serve_read(&state.registry, call), Vec::new())
            }
            ApiCallKind::InsertFlow { dpid, flow_mod }
            | ApiCallKind::DeleteFlow { dpid, flow_mod } => {
                self.apply_flow(state, app, *dpid, flow_mod)
            }
            ApiCallKind::ModifyTopology { dpid } => {
                // Simulated: announce a change only.
                let ev = OutboundEvent {
                    event: Event::TopologyChanged {
                        description: format!("modified around {dpid}"),
                    },
                };
                (Ok(ApiResponse::Unit), vec![ev])
            }
            ApiCallKind::ReadPayload { .. } => (Ok(ApiResponse::Unit), Vec::new()),
            ApiCallKind::SendPacketOut { dpid, packet_out } => {
                let frame = match EthernetFrame::from_bytes(packet_out.payload.clone()) {
                    Ok(f) => f,
                    Err(e) => {
                        return (
                            Err(ApiError::Switch(
                                sdnshield_openflow::messages::OfError::BadRequest(e.to_string()),
                            )),
                            Vec::new(),
                        )
                    }
                };
                // Resolve virtual output ports for vtopo apps.
                let (phys_dpid, actions) = match state.registry.vtopos.get(&app) {
                    Some(vt) => match resolve_vtopo_packet_out(vt, *dpid, packet_out) {
                        Ok(x) => x,
                        Err(e) => return (Err(ApiError::Vtopo(e)), Vec::new()),
                    },
                    None => (*dpid, packet_out.actions.0.clone()),
                };
                match self
                    .network
                    .inject_packet_out(phys_dpid, packet_out.in_port, frame, actions)
                {
                    Ok(deliveries) => {
                        let events = self.absorb_deliveries(state, deliveries);
                        (Ok(ApiResponse::Unit), events)
                    }
                    Err(e) => (Err(ApiError::Switch(e)), Vec::new()),
                }
            }
            ApiCallKind::Subscribe { kind } => {
                // The EVENT_INTERCEPTION callback filter (paper §IV-B) lets
                // an app consume events ahead of others: interceptors sort
                // to the front of the delivery order.
                let intercepts = state
                    .registry
                    .engines
                    .get(&app)
                    .and_then(|e| {
                        e.filter_for(call.required_token()).map(|f| {
                            f.atoms().iter().any(|a| {
                                matches!(
                                    a,
                                    SingletonFilter::Callback(
                                        sdnshield_core::filter::CallbackCap::EventInterception
                                    )
                                )
                            })
                        })
                    })
                    .unwrap_or(false);
                self.subs_mut(state, |subs| {
                    let subs = subs.by_kind.entry(kind_key(*kind)).or_default();
                    if !subs.iter().any(|(a, _)| *a == app) {
                        if intercepts {
                            subs.insert(0, (app, true));
                        } else {
                            subs.push((app, false));
                        }
                    }
                });
                (Ok(ApiResponse::Subscribed(*kind)), Vec::new())
            }
            ApiCallKind::HostConnect { dst_ip, dst_port } => {
                let id = state.host.connect(app, *dst_ip, *dst_port);
                (Ok(ApiResponse::Connection(id)), Vec::new())
            }
            ApiCallKind::HostSend { conn, len } => {
                // The deputy pre-validated the destination; record the send.
                let ok = state
                    .host
                    .send(app, ConnId(*conn), Bytes::from(vec![0u8; *len]));
                if ok {
                    (Ok(ApiResponse::Unit), Vec::new())
                } else {
                    (
                        Err(ApiError::Switch(
                            sdnshield_openflow::messages::OfError::BadRequest(
                                "unknown connection handle".into(),
                            ),
                        )),
                        Vec::new(),
                    )
                }
            }
            ApiCallKind::FileOpen { path, write } => {
                state.host.open_file(app, path.clone(), *write);
                (Ok(ApiResponse::Unit), Vec::new())
            }
            ApiCallKind::ProcessExec { program } => {
                state.host.exec(app, program.clone());
                (Ok(ApiResponse::Unit), Vec::new())
            }
        }
    }

    /// Applies a flow-mod, translating through the app's virtual topology
    /// when one is granted, stamping ownership cookies, and recording
    /// ownership.
    fn apply_flow(
        &self,
        state: &mut State,
        app: AppId,
        dpid: DatapathId,
        flow_mod: &FlowMod,
    ) -> (Result<ApiResponse, ApiError>, Vec<OutboundEvent>) {
        let targets: Vec<(DatapathId, FlowMod)> = match state.registry.vtopos.get(&app) {
            Some(vt) => match vt.translate_flow_mod(dpid, flow_mod) {
                Ok(t) => t,
                Err(e) => return (Err(ApiError::Vtopo(e.to_string())), Vec::new()),
            },
            None => vec![(dpid, flow_mod.clone())],
        };
        let mut events = Vec::new();
        for (d, fm) in targets {
            let stamped = stamp_cookie(app, &fm);
            match self.network.apply_flow_mod(d, &stamped) {
                Ok(removed) => {
                    self.tracker_mut(state, |t| t.record_flow_mod(app, d, &stamped));
                    events.extend(removed_events(d, &removed));
                }
                Err(e) => return (Err(ApiError::Switch(e)), events),
            }
        }
        (Ok(ApiResponse::Unit), events)
    }

    /// Rolls back one applied transaction operation.
    fn rollback(
        &self,
        state: &mut State,
        app: AppId,
        op: &FlowOp,
        removed: Vec<sdnshield_openflow::flow_table::RemovedEntry>,
    ) {
        use sdnshield_openflow::messages::FlowModCommand;
        let stamped = stamp_cookie(app, &op.flow_mod);
        match stamped.command {
            FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let mut undo = stamped.clone();
                undo.command = FlowModCommand::DeleteStrict;
                let _ = self.network.apply_flow_mod(op.dpid, &undo);
                self.tracker_mut(state, |t| t.record_flow_mod(app, op.dpid, &undo));
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {}
        }
        // Restore entries the op deleted.
        for r in removed {
            let mut restore = FlowMod::add(
                r.entry.flow_match.clone(),
                r.entry.priority,
                r.entry.actions.clone(),
            );
            restore.cookie = r.entry.cookie;
            restore.idle_timeout = r.entry.idle_timeout;
            restore.hard_timeout = r.entry.hard_timeout;
            let _ = self.network.apply_flow_mod(op.dpid, &restore);
        }
    }

    /// Converts data-plane deliveries into inbox records + packet-in events.
    fn absorb_deliveries(
        &self,
        state: &mut State,
        deliveries: Vec<Delivery>,
    ) -> Vec<OutboundEvent> {
        let mut events = Vec::new();
        for d in deliveries {
            match d {
                Delivery::ToHost { mac, frame } => {
                    state.host_inbox.entry(mac).or_default().push(frame);
                }
                Delivery::ToController { dpid, packet_in } => {
                    events.push(OutboundEvent {
                        event: Event::PacketIn { dpid, packet_in },
                    });
                }
                Delivery::Dropped { .. } => {}
            }
        }
        events
    }

    /// Builds the topology view an app is allowed to see.
    fn topology_view_for(&self, registry: &Registry, app: AppId) -> TopologyView {
        let (vtopo, engine) = if self.checks_enabled {
            (registry.vtopos.get(&app), registry.engines.get(&app))
        } else {
            (None, None)
        };
        let topo = self.network.topology();
        // Virtual topology: present the big switches.
        if let Some(vt) = vtopo {
            let switches = vt
                .switches()
                .iter()
                .map(|vs| SwitchView {
                    dpid: vs.dpid,
                    ports: vs.ports.iter().map(|p| p.vport).collect(),
                })
                .collect();
            return TopologyView {
                switches,
                links: Vec::new(),
                hosts: topo.hosts().to_vec(),
                link_ports: Vec::new(),
            };
        }
        let phys_filter: Option<&SingletonFilter> = engine
            .and_then(|e| e.filter_for(PermissionToken::VisibleTopology))
            .and_then(find_phys_topo_atom);
        let visible_switch = |d: DatapathId| match phys_filter {
            Some(SingletonFilter::PhysTopo(t)) => t.contains_switch(d),
            _ => true,
        };
        let visible_link = |a: DatapathId, b: DatapathId| match phys_filter {
            Some(SingletonFilter::PhysTopo(t)) => t.contains_link(a, b),
            _ => true,
        };
        let switches = topo
            .switches()
            .filter(|s| visible_switch(s.dpid))
            .map(|s| SwitchView {
                dpid: s.dpid,
                ports: s.ports.clone(),
            })
            .collect();
        let links = topo
            .link_ids()
            .into_iter()
            .filter(|l| visible_switch(l.0) && visible_switch(l.1) && visible_link(l.0, l.1))
            .map(|l| (l.0, l.1))
            .collect();
        let hosts = topo
            .hosts()
            .iter()
            .filter(|h| visible_switch(h.switch))
            .cloned()
            .collect();
        let link_ports = topo
            .links()
            .iter()
            .filter(|l| {
                visible_switch(l.src) && visible_switch(l.dst) && visible_link(l.src, l.dst)
            })
            .map(|l| (l.src, l.src_port, l.dst, l.dst_port))
            .collect();
        TopologyView {
            switches,
            links,
            hosts,
            link_ports,
        }
    }
}

/// Stamps the app's identity into the rule cookie (ownership convention).
fn stamp_cookie(app: AppId, fm: &FlowMod) -> FlowMod {
    let mut stamped = fm.clone();
    stamped.cookie = Cookie::with_owner(app.0, fm.cookie.tag());
    stamped
}

fn flow_op_call(app: AppId, op: &FlowOp) -> ApiCall {
    use sdnshield_openflow::messages::FlowModCommand;
    let kind = match op.flow_mod.command {
        FlowModCommand::Delete | FlowModCommand::DeleteStrict => ApiCallKind::DeleteFlow {
            dpid: op.dpid,
            flow_mod: op.flow_mod.clone(),
        },
        _ => ApiCallKind::InsertFlow {
            dpid: op.dpid,
            flow_mod: op.flow_mod.clone(),
        },
    };
    ApiCall::new(app, kind)
}

fn removed_events(
    dpid: DatapathId,
    removed: &[sdnshield_openflow::flow_table::RemovedEntry],
) -> Vec<OutboundEvent> {
    removed
        .iter()
        .filter(|r| r.entry.notify_when_removed)
        .map(|r| OutboundEvent {
            event: Event::FlowRemoved {
                dpid,
                flow_removed: to_flow_removed(r),
            },
        })
        .collect()
}

fn to_flow_removed(r: &sdnshield_openflow::flow_table::RemovedEntry) -> FlowRemoved {
    FlowRemoved {
        flow_match: r.entry.flow_match.clone(),
        priority: r.entry.priority,
        cookie: r.entry.cookie,
        reason: r.reason,
        packet_count: r.entry.packet_count,
        byte_count: r.entry.byte_count,
        duration_secs: 0,
    }
}

/// Extracts a VIRTUAL spec from a filter expression, if present as a
/// positive atom.
fn find_vtopo_spec(filter: &FilterExpr) -> Option<sdnshield_core::vtopo::VirtualTopologySpec> {
    filter.atoms().into_iter().find_map(|a| match a {
        SingletonFilter::VirtTopo(spec) => Some(spec.clone()),
        _ => None,
    })
}

/// Extracts a physical-topology atom from a filter expression.
fn find_phys_topo_atom(filter: &FilterExpr) -> Option<&SingletonFilter> {
    filter
        .atoms()
        .into_iter()
        .find(|a| matches!(a, SingletonFilter::PhysTopo(_)))
}

/// Builds the core-local physical view the vtopo mapper needs.
fn phys_view(network: &Network) -> PhysView {
    let topo = network.topology();
    PhysView {
        switches: topo.switches().map(|s| s.dpid.0).collect(),
        links: topo
            .links()
            .iter()
            .map(|l| (l.src.0, l.src_port.0, l.dst.0, l.dst_port.0))
            .collect(),
        edge_ports: topo
            .hosts()
            .iter()
            .map(|h| (h.switch.0, h.port.0))
            .collect(),
    }
}

/// Resolves a packet-out issued against a virtual switch into a physical
/// injection point and actions.
fn resolve_vtopo_packet_out(
    vt: &VirtualTopology,
    dpid: DatapathId,
    packet_out: &sdnshield_openflow::messages::PacketOut,
) -> Result<(DatapathId, Vec<sdnshield_openflow::actions::Action>), String> {
    use sdnshield_openflow::actions::Action;
    let vs = vt
        .switch(dpid)
        .ok_or_else(|| format!("unknown virtual switch {dpid}"))?;
    let mut phys_dpid = None;
    let mut actions = Vec::new();
    for a in &packet_out.actions {
        match a {
            Action::Output(p) if !p.is_reserved() => {
                let vp = vs
                    .ports
                    .iter()
                    .find(|vp| vp.vport == *p)
                    .ok_or_else(|| format!("unknown virtual port {p}"))?;
                phys_dpid.get_or_insert(vp.phys_dpid);
                actions.push(Action::Output(vp.phys_port));
            }
            other => actions.push(other.clone()),
        }
    }
    let phys = phys_dpid
        .or_else(|| vs.members.iter().next().map(|m| DatapathId(*m)))
        .ok_or_else(|| "virtual switch has no members".to_string())?;
    Ok((phys, actions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_core::lang::parse_manifest;
    use sdnshield_netsim::topology::builders;
    use sdnshield_openflow::actions::ActionList;
    use sdnshield_openflow::types::PortNo;
    use sdnshield_openflow::types::{Ipv4, Priority};

    fn kernel_with(manifest: &str) -> (Kernel, AppId) {
        let kernel = Kernel::new(Network::new(builders::linear(3), 1024), true);
        let app = AppId(1);
        kernel
            .register_app(app, "test", &parse_manifest(manifest).unwrap())
            .unwrap();
        (kernel, app)
    }

    fn insert(app: AppId, dpid: u64, tp_dst: u16) -> ApiCall {
        ApiCall::new(
            app,
            ApiCallKind::InsertFlow {
                dpid: DatapathId(dpid),
                flow_mod: FlowMod::add(
                    FlowMatch::default().with_tp_dst(tp_dst),
                    Priority(10),
                    ActionList::output(PortNo(1)),
                ),
            },
        )
    }

    #[test]
    fn allowed_insert_lands_with_ownership_cookie() {
        let (kernel, app) = kernel_with("PERM insert_flow");
        let (res, _) = kernel.execute(&insert(app, 1, 80));
        assert_eq!(res.unwrap(), ApiResponse::Unit);
        kernel.with_network(|n| {
            let entry = n
                .switch(DatapathId(1))
                .unwrap()
                .table()
                .iter()
                .next()
                .unwrap()
                .clone();
            assert_eq!(entry.cookie.owner(), app.0);
        });
    }

    #[test]
    fn denied_insert_never_touches_switch_and_audits() {
        let (kernel, app) = kernel_with("PERM read_statistics");
        let (res, _) = kernel.execute(&insert(app, 1, 80));
        assert!(res.unwrap_err().is_denied());
        assert_eq!(kernel.flow_count(DatapathId(1)), 0);
        let audit = kernel.audit_records();
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].outcome, AuditOutcome::Denied);
    }

    #[test]
    fn lint_on_register_rejects_unsatisfiable_manifest() {
        let kernel = Kernel::new(Network::new(builders::linear(2), 64), true);
        kernel.set_lint_on_register(true);
        let manifest =
            parse_manifest("PERM insert_flow LIMITING IP_DST 10.0.0.1 AND IP_DST 10.0.0.2")
                .unwrap();
        let err = kernel
            .register_app(AppId(1), "bad-app", &manifest)
            .unwrap_err();
        let ApiError::ManifestRejected(msg) = err else {
            panic!("expected ManifestRejected, got {err:?}");
        };
        assert!(msg.contains("SH001"), "{msg}");
        // The finding is on the audit trail, and the app never registered.
        let audit = kernel.audit_records();
        assert!(audit
            .iter()
            .any(|r| r.operation == "lint:SH001" && r.outcome == AuditOutcome::Denied));
        assert_eq!(kernel.app_name(AppId(1)), None);
    }

    #[test]
    fn lint_on_register_accepts_warnings() {
        let kernel = Kernel::new(Network::new(builders::linear(2), 64), true);
        kernel.set_lint_on_register(true);
        // Unrestricted write-class token: SH004 warning, accepted.
        let manifest = parse_manifest("PERM insert_flow").unwrap();
        kernel
            .register_app(AppId(1), "broad-app", &manifest)
            .unwrap();
        let audit = kernel.audit_records();
        assert!(audit
            .iter()
            .any(|r| r.operation == "lint:SH004" && r.outcome == AuditOutcome::Allowed));
        assert_eq!(kernel.app_name(AppId(1)).as_deref(), Some("broad-app"));
    }

    #[test]
    fn lint_off_by_default_registers_unsatisfiable_manifest() {
        let kernel = Kernel::new(Network::new(builders::linear(2), 64), true);
        let manifest =
            parse_manifest("PERM insert_flow LIMITING IP_DST 10.0.0.1 AND IP_DST 10.0.0.2")
                .unwrap();
        kernel
            .register_app(AppId(1), "legacy-app", &manifest)
            .unwrap();
        assert_eq!(kernel.app_name(AppId(1)).as_deref(), Some("legacy-app"));
    }

    fn out(port: u16) -> (DatapathId, PacketOut) {
        let packet_out = PacketOut {
            buffer_id: sdnshield_openflow::types::BufferId::NO_BUFFER,
            in_port: PortNo(1),
            actions: ActionList::output(PortNo(port)),
            payload: Bytes::from_static(b"x"),
        };
        (DatapathId(1), packet_out)
    }

    #[test]
    fn unregistered_app_denied() {
        let kernel = Kernel::new(Network::new(builders::linear(2), 64), true);
        kernel.enable_decision_trace();
        let ghost = AppId(9);
        let (res, _) = kernel.execute(&insert(ghost, 1, 80));
        assert!(res.unwrap_err().is_denied());
        let op = FlowOp {
            dpid: DatapathId(1),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_tp_dst(81),
                Priority(10),
                ActionList::output(PortNo(1)),
            ),
        };
        let (res, _) = kernel.execute_transaction(ghost, &[op]);
        assert!(matches!(res, Err(ApiError::PermissionDenied { .. })));
        let (res, _) = kernel.execute_packet_outs(ghost, &[out(1), out(2)]);
        assert!(matches!(res, Err(ApiError::PermissionDenied { .. })));
        assert_eq!(kernel.flow_count(DatapathId(1)), 0);
        // Every one of the three denials is on the audit trail...
        let audit = kernel.audit_records();
        let ops: Vec<&str> = audit.iter().map(|r| r.operation.as_str()).collect();
        assert_eq!(ops, ["insert_flow", "transaction", "send_packet_out"]);
        assert!(audit
            .iter()
            .all(|r| r.app == ghost && r.outcome == AuditOutcome::Denied));
        // ...and in the decision trace `shieldcheck certify` reads.
        let lanes: Vec<(String, bool)> = kernel
            .take_decision_trace()
            .into_iter()
            .filter_map(|ev| match ev {
                sdnshield_core::trace::TraceEvent::Decision { lane, allowed, .. } => {
                    Some((lane, allowed))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            lanes,
            [
                ("deputy".to_owned(), false),
                ("batch".to_owned(), false),
                ("vectored".to_owned(), false)
            ]
        );
    }

    #[test]
    fn host_send_decisions_are_traced_and_audited() {
        let (kernel, app) = kernel_with("PERM network_access");
        let (res, _) = kernel.execute(&ApiCall::new(
            app,
            ApiCallKind::HostConnect {
                dst_ip: Ipv4::new(8, 8, 8, 8),
                dst_port: 80,
            },
        ));
        let ApiResponse::Connection(conn) = res.unwrap() else {
            panic!("expected connection")
        };
        kernel.enable_decision_trace();
        kernel
            .host_send(app, conn, Bytes::from_static(b"hello"))
            .unwrap();
        // Narrow the grant after connect: the open handle stops working.
        let narrowed =
            parse_manifest("PERM network_access LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0").unwrap();
        kernel.register_app(app, "test", &narrowed).unwrap();
        let err = kernel
            .host_send(app, conn, Bytes::from_static(b"again"))
            .unwrap_err();
        assert!(err.is_denied());
        assert_eq!(kernel.bytes_exfiltrated_by(app), 5);
        let decisions: Vec<(String, bool, ApiCallKind)> = kernel
            .take_decision_trace()
            .into_iter()
            .filter_map(|ev| match ev {
                sdnshield_core::trace::TraceEvent::Decision {
                    lane,
                    allowed,
                    call,
                } => Some((lane, allowed, call.kind)),
                _ => None,
            })
            .collect();
        let connect = ApiCallKind::HostConnect {
            dst_ip: Ipv4::new(8, 8, 8, 8),
            dst_port: 80,
        };
        assert_eq!(
            decisions,
            [
                ("deputy".to_owned(), true, connect.clone()),
                ("deputy".to_owned(), false, connect)
            ]
        );
        let sends: Vec<AuditOutcome> = kernel
            .audit_records()
            .into_iter()
            .filter(|r| r.operation == "host_send")
            .map(|r| r.outcome)
            .collect();
        assert_eq!(sends, [AuditOutcome::Allowed, AuditOutcome::Denied]);
    }

    #[test]
    fn monolithic_kernel_skips_checks() {
        let kernel = Kernel::new(Network::new(builders::linear(2), 64), false);
        let (res, _) = kernel.execute(&insert(AppId(9), 1, 80));
        assert!(res.is_ok(), "no registration, no checks, still executes");
        assert_eq!(kernel.flow_count(DatapathId(1)), 1);
    }

    #[test]
    fn read_flow_table_visibility_filtered() {
        let (kernel, app) = kernel_with(
            "PERM insert_flow\n\
             PERM read_flow_table LIMITING OWN_FLOWS",
        );
        // App 1 installs one rule; a second app installs another.
        kernel
            .register_app(
                AppId(2),
                "other",
                &parse_manifest("PERM insert_flow").unwrap(),
            )
            .unwrap();
        kernel.execute(&insert(app, 1, 80)).0.unwrap();
        kernel.execute(&insert(AppId(2), 1, 443)).0.unwrap();
        let (res, _) = kernel.execute(&ApiCall::new(
            app,
            ApiCallKind::ReadFlowTable {
                dpid: DatapathId(1),
                query: FlowMatch::any(),
            },
        ));
        match res.unwrap() {
            ApiResponse::FlowEntries(entries) => {
                assert_eq!(entries.len(), 1, "only own flow visible");
                assert_eq!(entries[0].flow_match.tp_dst, Some(80));
            }
            other => panic!("expected entries, got {other:?}"),
        }
    }

    #[test]
    fn topology_view_respects_phys_filter() {
        let (kernel, app) = kernel_with("PERM visible_topology LIMITING SWITCH 1,2 LINK 1-2");
        let (res, _) = kernel.execute(&ApiCall::new(app, ApiCallKind::ReadTopology));
        match res.unwrap() {
            ApiResponse::Topology(view) => {
                assert_eq!(view.switches.len(), 2);
                assert_eq!(view.links, vec![(DatapathId(1), DatapathId(2))]);
            }
            other => panic!("expected topology, got {other:?}"),
        }
    }

    #[test]
    fn virtual_topology_registration_and_view() {
        let (kernel, app) = kernel_with(
            "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH\n\
             PERM insert_flow",
        );
        let (res, _) = kernel.execute(&ApiCall::new(app, ApiCallKind::ReadTopology));
        match res.unwrap() {
            ApiResponse::Topology(view) => {
                assert_eq!(view.switches.len(), 1, "one big switch");
                // linear(3) has 3 hosts = 3 external edge ports.
                assert_eq!(view.switches[0].ports.len(), 3);
            }
            other => panic!("expected topology, got {other:?}"),
        }
        // A flow inserted on the big switch lands on physical switches.
        let vport_out = PortNo(3); // host on switch 3
        let call = ApiCall::new(
            app,
            ApiCallKind::InsertFlow {
                dpid: DatapathId(1),
                flow_mod: FlowMod::add(
                    FlowMatch::default().with_ip_dst(Ipv4::new(10, 0, 0, 3)),
                    Priority(10),
                    ActionList::output(vport_out),
                ),
            },
        );
        kernel.execute(&call).0.unwrap();
        let total: usize = (1..=3).map(|d| kernel.flow_count(DatapathId(d))).sum();
        assert!(total >= 3, "rules along the path, got {total}");
    }

    #[test]
    fn virtual_topology_stats_aggregate_across_members() {
        let (kernel, app) = kernel_with(
            "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH\n\
             PERM insert_flow\n\
             PERM read_statistics",
        );
        // One big-switch rule → one physical rule per member switch.
        kernel
            .execute(&ApiCall::new(
                app,
                ApiCallKind::InsertFlow {
                    dpid: DatapathId(1),
                    flow_mod: FlowMod::add(
                        FlowMatch::default().with_ip_dst(Ipv4::new(10, 0, 0, 3)),
                        Priority(10),
                        ActionList::output(PortNo(3)),
                    ),
                },
            ))
            .0
            .unwrap();
        let (res, _) = kernel.execute(&ApiCall::new(
            app,
            ApiCallKind::ReadStatistics {
                dpid: DatapathId(1),
                request: sdnshield_openflow::messages::StatsRequest::Table,
            },
        ));
        match res.unwrap() {
            ApiResponse::Stats(sdnshield_openflow::messages::StatsReply::Table(t)) => {
                // Aggregated over 3 member switches, one rule each.
                assert_eq!(t.active_count, 3);
                assert_eq!(t.max_entries, 3 * 1024);
            }
            other => panic!("expected table stats, got {other:?}"),
        }
    }

    #[test]
    fn transaction_atomicity_on_denial() {
        let (kernel, app) =
            kernel_with("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0");
        let good = FlowOp {
            dpid: DatapathId(1),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_ip_dst(Ipv4::new(10, 13, 0, 1)),
                Priority(10),
                ActionList::output(PortNo(1)),
            ),
        };
        let bad = FlowOp {
            dpid: DatapathId(1),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_ip_dst(Ipv4::new(10, 99, 0, 1)),
                Priority(10),
                ActionList::output(PortNo(1)),
            ),
        };
        let (res, _) = kernel.execute_transaction(app, &[good.clone(), bad]);
        match res.unwrap_err() {
            ApiError::TransactionAborted {
                failed_index,
                cause,
            } => {
                assert_eq!(failed_index, 1);
                assert!(cause.is_denied());
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(kernel.flow_count(DatapathId(1)), 0, "nothing applied");
        // The same transaction without the bad op commits.
        let (res, _) = kernel.execute_transaction(app, &[good]);
        assert!(res.is_ok());
        assert_eq!(kernel.flow_count(DatapathId(1)), 1);
    }

    #[test]
    fn transaction_rollback_on_switch_error() {
        // Capacity-1 table: second op fails, first must roll back.
        let kernel = Kernel::new(Network::new(builders::linear(2), 1), true);
        let app = AppId(1);
        kernel
            .register_app(app, "t", &parse_manifest("PERM insert_flow").unwrap())
            .unwrap();
        let op = |tp: u16| FlowOp {
            dpid: DatapathId(1),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_tp_dst(tp),
                Priority(10),
                ActionList::output(PortNo(1)),
            ),
        };
        let (res, _) = kernel.execute_transaction(app, &[op(1), op(2)]);
        match res.unwrap_err() {
            ApiError::TransactionAborted { failed_index, .. } => assert_eq!(failed_index, 1),
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(kernel.flow_count(DatapathId(1)), 0, "rolled back");
    }

    #[test]
    fn event_payload_stripping() {
        let (kernel, app) = kernel_with("PERM pkt_in_event");
        kernel
            .register_app(
                AppId(2),
                "reader",
                &parse_manifest("PERM pkt_in_event\nPERM read_payload").unwrap(),
            )
            .unwrap();
        let pi = PacketIn {
            buffer_id: sdnshield_openflow::types::BufferId::NO_BUFFER,
            in_port: PortNo(1),
            reason: sdnshield_openflow::messages::PacketInReason::NoMatch,
            payload: Bytes::from_static(b"secret"),
        };
        let event = Event::PacketIn {
            dpid: DatapathId(1),
            packet_in: pi,
        };
        match kernel.event_view_for(app, &event).unwrap() {
            Event::PacketIn { packet_in, .. } => assert!(packet_in.payload.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match kernel.event_view_for(AppId(2), &event).unwrap() {
            Event::PacketIn { packet_in, .. } => {
                assert_eq!(packet_in.payload.as_ref(), b"secret")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subscriptions_routed() {
        let (kernel, app) = kernel_with("PERM pkt_in_event");
        let (res, _) = kernel.execute(&ApiCall::new(
            app,
            ApiCallKind::Subscribe {
                kind: EventKind::PacketIn,
            },
        ));
        assert_eq!(res.unwrap(), ApiResponse::Subscribed(EventKind::PacketIn));
        assert_eq!(kernel.subscribers(EventKind::PacketIn), vec![app]);
        // Unpermitted subscription denied.
        let (res, _) = kernel.execute(&ApiCall::new(
            app,
            ApiCallKind::Subscribe {
                kind: EventKind::Topology,
            },
        ));
        assert!(res.unwrap_err().is_denied());
        // Custom topics are unmediated pub/sub.
        kernel.subscribe_topic(app, "alto").unwrap();
        kernel.subscribe_topic(app, "alto").unwrap();
        assert_eq!(kernel.topic_subscribers("alto"), vec![app]);
    }

    #[test]
    fn sealed_kernel_refuses_a_topic_subscription() {
        let (kernel, app) = kernel_with("PERM pkt_in_event");
        kernel.seal();
        assert!(matches!(
            kernel.subscribe_topic(app, "alto"),
            Err(ApiError::Shutdown)
        ));
        assert!(kernel.topic_subscribers("alto").is_empty());
    }

    #[test]
    fn host_network_accounting() {
        let (kernel, app) = kernel_with("PERM network_access");
        let (res, _) = kernel.execute(&ApiCall::new(
            app,
            ApiCallKind::HostConnect {
                dst_ip: Ipv4::new(8, 8, 8, 8),
                dst_port: 80,
            },
        ));
        let ApiResponse::Connection(conn) = res.unwrap() else {
            panic!("expected connection")
        };
        kernel
            .execute(&ApiCall::new(
                app,
                ApiCallKind::HostSend {
                    conn: conn.0,
                    len: 1000,
                },
            ))
            .0
            .unwrap();
        assert_eq!(kernel.bytes_exfiltrated_by(app), 1000);
    }

    #[test]
    fn loading_time_token_check() {
        let (kernel, app) = kernel_with("PERM read_statistics");
        let missing = kernel.missing_tokens(
            app,
            &[PermissionToken::ReadStatistics, PermissionToken::InsertFlow],
        );
        assert_eq!(missing, vec![PermissionToken::InsertFlow]);
        assert!(kernel
            .missing_tokens(AppId(99), &[PermissionToken::ReadStatistics])
            .contains(&PermissionToken::ReadStatistics));
    }

    #[test]
    fn clock_expiry_generates_flow_removed() {
        let (kernel, app) = kernel_with("PERM insert_flow\nPERM flow_event");
        let mut fm = FlowMod::add(
            FlowMatch::default().with_tp_dst(80),
            Priority(10),
            ActionList::output(PortNo(1)),
        )
        .with_hard_timeout(5);
        fm.notify_when_removed = true;
        kernel
            .execute(&ApiCall::new(
                app,
                ApiCallKind::InsertFlow {
                    dpid: DatapathId(1),
                    flow_mod: fm,
                },
            ))
            .0
            .unwrap();
        let events = kernel.advance_clock(10);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].event, Event::FlowRemoved { .. }));
    }

    #[test]
    fn reaping_a_switch_releases_its_owners_rule_quota() {
        let (kernel, app) = kernel_with("PERM insert_flow LIMITING MAX_RULE_COUNT 2");
        kernel.execute(&insert(app, 1, 80)).0.unwrap();
        kernel.execute(&insert(app, 1, 81)).0.unwrap();
        assert!(kernel
            .execute(&insert(app, 1, 82))
            .0
            .unwrap_err()
            .is_denied());
        // The switch's control connection dies: both entries leave the
        // table AND the ownership tracker.
        assert_eq!(kernel.reap_switch(DatapathId(1)).len(), 2);
        assert_eq!(kernel.flow_count(DatapathId(1)), 0);
        kernel.execute(&insert(app, 1, 82)).0.unwrap();
    }

    #[test]
    fn audit_records_since_cursor() {
        let (kernel, app) = kernel_with("PERM insert_flow");
        kernel.execute(&insert(app, 1, 80)).0.unwrap();
        kernel.execute(&insert(app, 1, 81)).0.unwrap();
        let first = kernel.audit_records_since(0);
        assert_eq!(first.len(), 2);
        let cursor = first.last().unwrap().seq;
        assert!(kernel.audit_records_since(cursor).is_empty());
        kernel.execute(&insert(app, 1, 82)).0.unwrap();
        let next = kernel.audit_records_since(cursor);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].seq, cursor + 1);
    }
}
