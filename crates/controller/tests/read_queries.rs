//! Reads are queries, not commands. `read_topology`, `read_flow_table` and
//! `read_statistics` change no state, so on every lane — the app-side fast
//! lane, the deputy channel, a direct `Kernel::execute`, and the commit
//! seam a stateful (`OWN_FLOWS`) plan always takes — a read is decided and
//! audited but never sequenced or journaled. These tests pin that rule,
//! that journals written before it (which do hold read records) still
//! replay, and that a call-only read never leaves the fast lane however
//! fast the tracker moves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sdnshield_controller::api::{ApiError, ApiResponse};
use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::command::Command;
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController};
use sdnshield_controller::journal::{Journal, JournalRecord};
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, StatsRequest};
use sdnshield_openflow::types::{DatapathId, Ipv4, PortNo, Priority};

const DPID: DatapathId = DatapathId(1);
/// The reader on a directly driven kernel.
const READER: AppId = AppId(1);
/// A second reader on a directly driven kernel, under `OWN_FLOWS`.
const OWN_READER: AppId = AppId(2);
/// Another app whose rule shares the reader's switch. Far above the ids a
/// controller hands out, so the two never collide.
const OTHER: AppId = AppId(900);

/// Every read decision here is call-only: the fast lane may serve them all.
const CALL_ONLY: &str = "\
PERM insert_flow
PERM visible_topology
PERM read_flow_table LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0
PERM read_statistics LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0
";

/// `OWN_FLOWS` is stateful: every flow-table read takes the commit seam.
const OWN_FLOWS: &str = "\
PERM insert_flow
PERM visible_topology
PERM read_flow_table LIMITING OWN_FLOWS
PERM read_statistics LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0
";

fn network() -> Network {
    Network::new(builders::linear(2), 4096)
}

/// A rule on the shared switch, inside the readers' 10/8 grant.
fn rule(host: u8) -> FlowMod {
    FlowMod::add(
        FlowMatch::default().with_ip_dst(Ipv4::new(10, 1, 0, host)),
        Priority(10),
        ActionList::output(PortNo(1)),
    )
}

fn insert(app: AppId, host: u8) -> ApiCall {
    ApiCall::new(
        app,
        ApiCallKind::InsertFlow {
            dpid: DPID,
            flow_mod: rule(host),
        },
    )
}

fn inside() -> FlowMatch {
    FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 1, 0, 0), 16)
}

fn outside() -> FlowMatch {
    FlowMatch::default().with_ip_dst_prefix(Ipv4::new(11, 0, 0, 0), 8)
}

/// Allowed and denied reads of all three query kinds.
fn reads() -> Vec<ApiCallKind> {
    vec![
        ApiCallKind::ReadTopology,
        ApiCallKind::ReadFlowTable {
            dpid: DPID,
            query: inside(),
        },
        ApiCallKind::ReadFlowTable {
            dpid: DPID,
            query: outside(),
        },
        ApiCallKind::ReadStatistics {
            dpid: DPID,
            request: StatsRequest::Flow(inside()),
        },
        ApiCallKind::ReadStatistics {
            dpid: DPID,
            request: StatsRequest::Flow(outside()),
        },
    ]
}

/// What a read returned, reduced to what every route can compare: denied,
/// or allowed with the owners (ascending) of the flow entries a flow-table
/// read saw.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Denied,
    Allowed(Vec<u16>),
}

fn seen(result: Result<ApiResponse, ApiError>) -> Seen {
    match result {
        Ok(ApiResponse::FlowEntries(entries)) => {
            let mut owners: Vec<u16> = entries.iter().map(|e| e.cookie.owner()).collect();
            owners.sort_unstable();
            Seen::Allowed(owners)
        }
        Ok(_) => Seen::Allowed(Vec::new()),
        Err(e) => {
            assert!(e.is_denied(), "a read failed for another reason: {e:?}");
            Seen::Denied
        }
    }
}

/// One route's reads and what they left behind.
#[derive(Debug, Default)]
struct Run {
    reader: u16,
    seen: Vec<Seen>,
    journal_len: (usize, usize),
    last_applied: (u64, u64),
    audit_gained: usize,
    fast_path_hits: u64,
}

/// Issues every read through `issue` and measures the journal, the seam's
/// sequence and the audit log around them.
fn measure(
    kernel: &Kernel,
    journal: &Journal,
    reader: AppId,
    mut issue: impl FnMut(ApiCallKind) -> Result<ApiResponse, ApiError>,
) -> Run {
    let before = (
        journal.len(),
        kernel.last_applied(),
        kernel.audit_records().len(),
    );
    let seen = reads().into_iter().map(|kind| seen(issue(kind))).collect();
    Run {
        reader: reader.0,
        seen,
        journal_len: (before.0, journal.len()),
        last_applied: (before.1, kernel.last_applied()),
        audit_gained: kernel.audit_records().len() - before.2,
        ..Run::default()
    }
}

/// Sends one read through the app's own typed API.
fn issue_via_ctx(ctx: &AppCtx, kind: ApiCallKind) -> Result<ApiResponse, ApiError> {
    match kind {
        ApiCallKind::ReadTopology => ctx.read_topology().map(ApiResponse::Topology),
        ApiCallKind::ReadFlowTable { dpid, query } => ctx
            .read_flow_table(dpid, query)
            .map(ApiResponse::FlowEntries),
        ApiCallKind::ReadStatistics { dpid, request } => {
            ctx.read_statistics(dpid, request).map(ApiResponse::Stats)
        }
        other => unreachable!("not a read: {other:?}"),
    }
}

/// Installs its own rule, then issues every read from `on_start`.
struct ReaderApp {
    kernel: Arc<Kernel>,
    journal: Arc<Journal>,
    run: Arc<Mutex<Option<Run>>>,
}

impl App for ReaderApp {
    fn name(&self) -> &str {
        "reader"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        ctx.insert_flow(DPID, rule(1)).expect("own rule");
        let run = measure(&self.kernel, &self.journal, ctx.id(), |kind| {
            issue_via_ctx(ctx, kind)
        });
        *self.run.lock().unwrap() = Some(run);
    }
}

/// Runs the reads through a `ShieldedController`: on the fast lane when
/// `read_fast_path`, across the deputy channel otherwise.
fn run_controller(manifest: &str, read_fast_path: bool) -> Run {
    let c = ShieldedController::new_with_config(
        network(),
        ControllerConfig {
            num_deputies: 2,
            read_fast_path,
            ..ControllerConfig::default()
        },
    );
    let journal = Arc::new(Journal::in_memory());
    c.attach_journal(Arc::clone(&journal));
    let kernel = c.kernel();
    kernel
        .register_app(OTHER, "other", &parse_manifest("PERM insert_flow").unwrap())
        .unwrap();
    kernel.execute(&insert(OTHER, 2)).0.unwrap();
    let run = Arc::new(Mutex::new(None));
    c.register(
        Box::new(ReaderApp {
            kernel,
            journal,
            run: Arc::clone(&run),
        }),
        &parse_manifest(manifest).unwrap(),
    )
    .unwrap();
    c.quiesce();
    let fast_path_hits = c.fast_path_hits();
    c.shutdown();
    let run = run.lock().unwrap().take().expect("the reader ran");
    Run {
        fast_path_hits,
        ..run
    }
}

/// A journaled kernel holding the reader's rule (host 1) and the other
/// app's (host 2) on the same switch.
fn journaled_kernel(reader: AppId, manifest: &str) -> (Kernel, Arc<Journal>) {
    let kernel = Kernel::new(network(), true);
    let journal = Arc::new(Journal::in_memory());
    kernel.attach_journal(Arc::clone(&journal));
    kernel
        .register_app(reader, "reader", &parse_manifest(manifest).unwrap())
        .unwrap();
    kernel
        .register_app(OTHER, "other", &parse_manifest("PERM insert_flow").unwrap())
        .unwrap();
    kernel.execute(&insert(reader, 1)).0.unwrap();
    kernel.execute(&insert(OTHER, 2)).0.unwrap();
    (kernel, journal)
}

fn run_direct() -> Run {
    let (kernel, journal) = journaled_kernel(READER, CALL_ONLY);
    measure(&kernel, &journal, READER, |kind| {
        kernel.execute(&ApiCall::new(READER, kind)).0
    })
}

/// The journal did not move, and the audit log gained one record per read.
fn assert_left_no_record(route: &str, run: &Run) {
    let reads = reads().len();
    assert_eq!(run.seen.len(), reads, "{route}: every read answered");
    assert_eq!(
        run.journal_len.0, run.journal_len.1,
        "{route}: a read grew the journal"
    );
    assert_eq!(
        run.last_applied.0, run.last_applied.1,
        "{route}: a read took a sequence number"
    );
    assert_eq!(
        run.audit_gained, reads,
        "{route}: one audit record per read"
    );
}

/// The call-only verdicts: topology and the 10/8 reads allowed, the 11/8
/// reads denied; the inside flow-table read sees both apps' rules.
fn call_only_verdicts(reader: u16) -> Vec<Seen> {
    vec![
        Seen::Allowed(Vec::new()),
        Seen::Allowed(vec![reader, OTHER.0]),
        Seen::Denied,
        Seen::Allowed(Vec::new()),
        Seen::Denied,
    ]
}

#[test]
fn no_read_is_journaled_on_any_lane() {
    let fast = run_controller(CALL_ONLY, true);
    let deputy = run_controller(CALL_ONLY, false);
    let direct = run_direct();
    for (route, run) in [
        ("fast lane", &fast),
        ("deputy", &deputy),
        ("direct", &direct),
    ] {
        assert_left_no_record(route, run);
        assert_eq!(run.seen, call_only_verdicts(run.reader), "{route}");
    }
    assert_eq!(fast.fast_path_hits, reads().len() as u64);
    assert_eq!(deputy.fast_path_hits, 0);
}

#[test]
fn a_stateful_read_takes_the_seam_and_leaves_no_record() {
    let run = run_controller(OWN_FLOWS, true);
    assert_left_no_record("OWN_FLOWS", &run);
    // The two flow-table reads fell back to the deputy; the other three
    // are call-only and stayed on the fast lane.
    assert_eq!(run.fast_path_hits, 3);
    // Decided against the live tracker: only the reader's own rule is
    // visible, though the other app's rule sits on the same switch.
    assert_eq!(
        run.seen,
        vec![
            Seen::Allowed(Vec::new()),
            Seen::Allowed(vec![run.reader]),
            Seen::Allowed(Vec::new()),
            Seen::Allowed(Vec::new()),
            Seen::Denied,
        ]
    );
}

#[test]
fn a_journal_holding_read_records_still_recovers() {
    // A live kernel with a call-only reader and an OWN_FLOWS reader.
    let (live, journal) = journaled_kernel(READER, CALL_ONLY);
    live.register_app(OWN_READER, "own", &parse_manifest(OWN_FLOWS).unwrap())
        .unwrap();
    live.execute(&insert(OWN_READER, 3)).0.unwrap();
    for kind in reads() {
        for app in [READER, OWN_READER] {
            let _ = live.execute(&ApiCall::new(app, kind.clone()));
        }
    }
    let commands = journal.trace();
    assert!(!commands.iter().any(|r| r.cmd.is_query()));

    // The journal an older kernel would have written for the same run: a
    // record for every read too, here after every command, numbered densely.
    let mut old: Vec<JournalRecord> = Vec::new();
    for rec in commands {
        let audit_seq_after = rec.audit_seq_after;
        let mut calls = vec![rec.cmd];
        for kind in reads() {
            for app in [READER, OWN_READER] {
                calls.push(Command::Call(ApiCall::new(app, kind.clone())));
            }
        }
        for cmd in calls {
            old.push(JournalRecord {
                seq: old.len() as u64 + 1,
                audit_seq_after,
                cmd,
            });
        }
    }
    let old = Journal::from_trace(old);
    assert!(old.trace().iter().any(|r| r.cmd.is_query()));

    let empty = Kernel::new(network(), true).snapshot();
    let recovered = Kernel::recover(network(), &empty, &old);
    assert_eq!(recovered.last_applied(), old.last_seq());
    assert!(
        recovered.snapshot().state_eq(&live.snapshot()),
        "a journal holding read records must replay to the live state"
    );
}

#[test]
fn the_fast_lane_serves_every_call_only_read_under_write_contention() {
    const N: usize = 10_000;
    let (kernel, _journal) = journaled_kernel(READER, CALL_ONLY);
    let calls: Vec<ApiCall> = reads()
        .into_iter()
        .map(|kind| ApiCall::new(READER, kind))
        .collect();
    let expected: Vec<bool> = calls
        .iter()
        .map(|call| kernel.execute(call).0.is_ok())
        .collect();

    let stop = AtomicBool::new(false);
    let (fallbacks, epoch_moves) = std::thread::scope(|s| {
        // Every insert records a flow-mod, which moves the tracker epoch.
        s.spawn(|| {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let _ = kernel.execute(&insert(OTHER, (i % 200) as u8 + 2));
                i += 1;
            }
        });
        let wait_for_a_write = || {
            let seen = kernel.context_epoch();
            while kernel.context_epoch() == seen {
                std::thread::yield_now();
            }
        };
        let first = kernel.context_epoch();
        let mut fallbacks = 0usize;
        for i in 0..N {
            // The writer moves the epoch inside every block of 1 000 reads,
            // however the two threads are scheduled.
            if i % 1_000 == 0 {
                wait_for_a_write();
            }
            let k = i % calls.len();
            match kernel.try_serve_read(&calls[k]) {
                Some(result) => assert_eq!(
                    result.is_ok(),
                    expected[k],
                    "read {i} disagreed with Kernel::execute on {:?}",
                    calls[k].kind
                ),
                None => fallbacks += 1,
            }
        }
        let moves = kernel.context_epoch() - first;
        stop.store(true, Ordering::Relaxed);
        (fallbacks, moves)
    });
    assert_eq!(
        fallbacks, 0,
        "{fallbacks} of {N} call-only reads left the fast lane \
         ({epoch_moves} epoch moves meanwhile)"
    );
}
