//! Crash recovery, record/replay, and warm-standby failover (DESIGN.md §12).
//!
//! What is proved here:
//!
//! * **Snapshot + log-replay restart**: a kernel rebuilt from a
//!   [`KernelSnapshot`] plus the journal suffix is observationally
//!   equivalent to the kernel that never crashed — registry, tracker
//!   epochs, flow tables, switch counters, subscriptions, host state.
//! * **Crash consistency under injected journal faults**: a torn write,
//!   a corrupted CRC, or a crash in the apply→append window each leave a
//!   journal that recovery either fully replays or cleanly truncates —
//!   never a half-applied command.
//! * **Audit continuity**: replayed commands re-audit under `replay:` tags
//!   with numbering that extends the pre-crash sequence, so audit cursors
//!   survive the restart without double-counting or phantom loss.
//! * **Differential recovery at scale**: 256+ generated command traces ×
//!   randomized snapshot/crash points, recovered ≡ live (proptest).
//! * **Warm-standby failover**: under concurrent submitters,
//!   `promote()` loses zero acknowledged commands and installs none twice.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use sdnshield_controller::audit::AuditOutcome;
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController, WarmStandby};
use sdnshield_controller::journal::{Journal, JournalFaults};
use sdnshield_controller::kernel::Kernel;
use sdnshield_controller::{ApiError, ApiResponse, FlowOp, KernelSnapshot};
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::perm::PermissionSet;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, PacketOut};
use sdnshield_openflow::types::{BufferId, DatapathId, Ipv4, PortNo, Priority};

const PRIV: AppId = AppId(1);
const UNPRIV: AppId = AppId(2);
const EXTRA: AppId = AppId(3);

fn net() -> Network {
    Network::new(builders::linear(3), 1024)
}

fn priv_manifest() -> PermissionSet {
    parse_manifest(
        "PERM insert_flow\nPERM delete_flow\nPERM read_flow_table\n\
         PERM send_pkt_out\nPERM visible_topology\nPERM host_network",
    )
    .unwrap()
}

fn unpriv_manifest() -> PermissionSet {
    parse_manifest("PERM visible_topology").unwrap()
}

fn insert_call(app: AppId, tp_dst: u16, prio: u16, hard: u16, dpid: u64) -> ApiCall {
    ApiCall::new(
        app,
        ApiCallKind::InsertFlow {
            dpid: DatapathId(dpid),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_tp_dst(tp_dst),
                Priority(prio),
                ActionList::output(PortNo(1)),
            )
            .with_hard_timeout(hard),
        },
    )
}

fn delete_call(tp_dst: u16) -> ApiCall {
    ApiCall::new(
        PRIV,
        ApiCallKind::DeleteFlow {
            dpid: DatapathId(1),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_tp_dst(tp_dst),
                Priority(0),
                ActionList::drop(),
            ),
        },
    )
}

fn read_call(app: AppId) -> ApiCall {
    ApiCall::new(
        app,
        ApiCallKind::ReadFlowTable {
            dpid: DatapathId(1),
            query: FlowMatch::any(),
        },
    )
}

fn pkt_out_call(which: u8) -> ApiCall {
    ApiCall::new(
        PRIV,
        ApiCallKind::SendPacketOut {
            dpid: DatapathId(1),
            packet_out: PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port: PortNo(1),
                actions: ActionList::output(PortNo(2)),
                payload: bytes::Bytes::from(vec![which; 4]),
            },
        },
    )
}

/// One scripted command, applied through the kernel's journaled wrappers.
/// Each step submits exactly one command. Every step but `Read` leaves one
/// journal record; a `Read` is a query and leaves none, so journal
/// positions map 1:1 onto the script's non-read steps.
#[derive(Debug, Clone)]
enum Step {
    Insert {
        denied: bool,
        tp: u16,
        prio: u16,
        hard: u16,
        dpid: u64,
    },
    Delete {
        tp: u16,
    },
    Read {
        denied: bool,
    },
    PacketOut {
        which: u8,
    },
    HostConnect,
    Advance {
        secs: u64,
    },
    FailLink,
    Subscribe {
        topic: u8,
    },
    RegisterExtra,
    DeregisterExtra,
    ReapSwitch {
        dpid: u64,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<bool>(), 1u16..64, 0u16..200, 0u16..4, 1u64..=3).prop_map(
            |(denied, tp, prio, hard, dpid)| Step::Insert {
                denied,
                tp,
                prio,
                hard,
                dpid
            }
        ),
        (1u16..64).prop_map(|tp| Step::Delete { tp }),
        any::<bool>().prop_map(|denied| Step::Read { denied }),
        (0u8..8).prop_map(|which| Step::PacketOut { which }),
        Just(Step::HostConnect),
        (1u64..4).prop_map(|secs| Step::Advance { secs }),
        Just(Step::FailLink),
        (0u8..3).prop_map(|topic| Step::Subscribe { topic }),
        Just(Step::RegisterExtra),
        Just(Step::DeregisterExtra),
        (1u64..=3).prop_map(|dpid| Step::ReapSwitch { dpid }),
    ]
}

fn apply_step(kernel: &Kernel, step: &Step) {
    match step {
        Step::Insert {
            denied,
            tp,
            prio,
            hard,
            dpid,
        } => {
            let app = if *denied { UNPRIV } else { PRIV };
            let _ = kernel.execute(&insert_call(app, *tp, *prio, *hard, *dpid));
        }
        Step::Delete { tp } => {
            let _ = kernel.execute(&delete_call(*tp));
        }
        Step::Read { denied } => {
            let app = if *denied { UNPRIV } else { PRIV };
            let _ = kernel.execute(&read_call(app));
        }
        Step::PacketOut { which } => {
            let _ = kernel.execute(&pkt_out_call(*which));
        }
        Step::HostConnect => {
            let _ = kernel.execute(&ApiCall::new(
                PRIV,
                ApiCallKind::HostConnect {
                    dst_ip: Ipv4::new(10, 0, 0, 1),
                    dst_port: 443,
                },
            ));
        }
        Step::Advance { secs } => {
            let _ = kernel.advance_clock(*secs);
        }
        Step::FailLink => {
            let _ = kernel.fail_link(DatapathId(1), DatapathId(2));
        }
        Step::Subscribe { topic } => {
            let _ = kernel.subscribe_topic(PRIV, &format!("topic-{topic}"));
        }
        Step::RegisterExtra => {
            let _ = kernel.register_app(EXTRA, "extra", &unpriv_manifest());
        }
        Step::DeregisterExtra => {
            let _ = kernel.deregister_app(EXTRA);
        }
        Step::ReapSwitch { dpid } => {
            let _ = kernel.reap_switch(DatapathId(*dpid));
        }
    }
}

/// A live kernel with both base apps registered *through the journal*, so
/// the trace is self-contained (replaying it on a fresh kernel re-registers
/// them).
fn journaled_kernel() -> (Kernel, Arc<Journal>) {
    let kernel = Kernel::new(net(), true);
    let journal = Arc::new(Journal::in_memory());
    kernel.attach_journal(Arc::clone(&journal));
    kernel.register_app(PRIV, "priv", &priv_manifest()).unwrap();
    kernel
        .register_app(UNPRIV, "unpriv", &unpriv_manifest())
        .unwrap();
    (kernel, journal)
}

/// The unjournaled reference twin: same registrations, no journal.
fn reference_kernel() -> Kernel {
    let kernel = Kernel::new(net(), true);
    kernel.register_app(PRIV, "priv", &priv_manifest()).unwrap();
    kernel
        .register_app(UNPRIV, "unpriv", &unpriv_manifest())
        .unwrap();
    kernel
}

fn unique_journal_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sdnshield-recovery-{}-{name}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A representative mixed script for the non-property tests.
fn demo_script() -> Vec<Step> {
    vec![
        Step::Insert {
            denied: false,
            tp: 80,
            prio: 100,
            hard: 0,
            dpid: 1,
        },
        Step::Insert {
            denied: false,
            tp: 443,
            prio: 50,
            hard: 2,
            dpid: 2,
        },
        Step::Insert {
            denied: true,
            tp: 22,
            prio: 10,
            hard: 0,
            dpid: 1,
        },
        Step::Subscribe { topic: 1 },
        Step::HostConnect,
        Step::PacketOut { which: 3 },
        Step::Advance { secs: 3 },
        Step::FailLink,
        Step::Delete { tp: 80 },
        Step::RegisterExtra,
    ]
}

#[test]
fn snapshot_plus_suffix_replay_matches_live() {
    let (live, journal) = journaled_kernel();
    let script = demo_script();
    let mut snap: Option<KernelSnapshot> = None;
    for (i, step) in script.iter().enumerate() {
        if i == 4 {
            snap = Some(live.snapshot());
        }
        apply_step(&live, step);
    }
    let snap = snap.unwrap();
    let recovered = Kernel::recover(net(), &snap, &journal);
    assert!(
        recovered.snapshot().state_eq(&live.snapshot()),
        "snapshot + journal suffix must reproduce the live kernel"
    );
    assert_eq!(recovered.last_applied(), journal.last_seq());
}

#[test]
fn reaped_switch_replays_from_the_suffix() {
    let (live, journal) = journaled_kernel();
    for tp in [80, 81] {
        live.execute(&insert_call(PRIV, tp, 10, 0, 1)).0.unwrap();
    }
    live.execute(&insert_call(PRIV, 82, 10, 0, 2)).0.unwrap();
    let snap = live.snapshot();
    // The switch's control connection dies after the snapshot: the reap is
    // a journaled command, so recovery must not resurrect its flows.
    assert_eq!(live.reap_switch(DatapathId(1)).len(), 2);
    live.execute(&insert_call(PRIV, 83, 10, 0, 1)).0.unwrap();
    let trace = journal.trace();
    assert_eq!(trace[trace.len() - 2].cmd.name(), "reap_switch");
    let recovered = Kernel::recover(net(), &snap, &journal);
    assert_eq!(recovered.flow_count(DatapathId(1)), 1);
    assert_eq!(recovered.flow_count(DatapathId(2)), 1);
    assert!(
        recovered.snapshot().state_eq(&live.snapshot()),
        "a reap in the suffix must replay to the live kernel's tables and tracker"
    );
}

#[test]
fn file_backed_journal_survives_restart_roundtrip() {
    let path = unique_journal_path("roundtrip");
    let empty_snap = Kernel::new(net(), true).snapshot();
    let live_digest;
    {
        let live = Kernel::new(net(), true);
        live.attach_journal(Arc::new(Journal::open(&path).unwrap()));
        live.register_app(PRIV, "priv", &priv_manifest()).unwrap();
        live.register_app(UNPRIV, "unpriv", &unpriv_manifest())
            .unwrap();
        for step in demo_script() {
            apply_step(&live, &step);
        }
        live_digest = live.snapshot();
        // Process "crashes" here: journal file closed by drop, no shutdown
        // handshake of any kind.
    }
    let reopened = Arc::new(Journal::open(&path).unwrap());
    assert_eq!(reopened.len(), 12, "2 registrations + 10 script commands");
    let recovered = Kernel::recover(net(), &empty_snap, &reopened);
    assert!(
        recovered.snapshot().state_eq(&live_digest),
        "recovery from the on-disk journal must reproduce the crashed kernel"
    );
    // The recovered kernel keeps journaling where the crashed one stopped.
    recovered.attach_journal(Arc::clone(&reopened));
    let before = reopened.last_seq();
    let _ = recovered.execute(&insert_call(PRIV, 999, 1, 0, 1));
    assert_eq!(reopened.last_seq(), before + 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_trace_is_deterministic() {
    let (live, journal) = journaled_kernel();
    for step in demo_script() {
        apply_step(&live, &step);
    }
    let trace = journal.trace();
    let first = Kernel::replay_trace(net(), true, &trace);
    let second = Kernel::replay_trace(net(), true, &trace);
    assert!(
        first.snapshot().state_eq(&second.snapshot()),
        "two replays of one trace must agree"
    );
    assert!(
        first.snapshot().state_eq(&live.snapshot()),
        "replaying the full trace must reproduce the live kernel"
    );
}

/// Drives `total` inserts against a file-journaled kernel with `faults`
/// armed, "crashes", reopens the journal, and asserts the recovered kernel
/// equals a reference kernel that applied exactly the surviving prefix —
/// the never-half-applies contract.
fn fault_roundtrip(name: &str, faults: JournalFaults, total: u16) -> (usize, Kernel, Arc<Journal>) {
    let path = unique_journal_path(name);
    let empty_snap = Kernel::new(net(), true).snapshot();
    {
        let live = Kernel::new(net(), true);
        let journal = Arc::new(Journal::open(&path).unwrap());
        journal.arm_faults(faults);
        live.attach_journal(Arc::clone(&journal));
        live.register_app(PRIV, "priv", &priv_manifest()).unwrap();
        for tp in 1..=total {
            let _ = live.execute(&insert_call(PRIV, tp, 100, 0, 1));
        }
    }
    let reopened = Arc::new(Journal::open(&path).unwrap());
    let survivors = reopened.len();
    let recovered = Kernel::recover(net(), &empty_snap, &reopened);
    // Reference: a kernel that lived exactly the surviving prefix.
    // Record 1 is the registration; records 2..=survivors are inserts.
    let reference = Kernel::new(net(), true);
    if survivors >= 1 {
        reference
            .register_app(PRIV, "priv", &priv_manifest())
            .unwrap();
    }
    for tp in 1..survivors as u16 {
        let _ = reference.execute(&insert_call(PRIV, tp, 100, 0, 1));
    }
    assert!(
        recovered.snapshot().state_eq(&reference.snapshot()),
        "{name}: recovered state must equal the surviving journal prefix, \
         nothing more, nothing less"
    );
    let _ = std::fs::remove_file(&path);
    (survivors, recovered, reopened)
}

#[test]
fn torn_journal_write_truncates_cleanly() {
    // Registration is record 1 (a large frame); tearing at byte 600 lands
    // inside one of the insert frames that follow.
    let faults = JournalFaults {
        torn_write_at_byte: Some(600),
        ..JournalFaults::default()
    };
    let (survivors, recovered, _) = fault_roundtrip("torn", faults, 12);
    assert!(
        survivors > 1 && survivors < 13,
        "the tear must land mid-stream, got {survivors} survivors"
    );
    assert_eq!(recovered.flow_count(DatapathId(1)), survivors - 1);
}

#[test]
fn corrupt_crc_truncates_at_the_corrupt_record() {
    let faults = JournalFaults {
        corrupt_crc_on_record: Some(5),
        ..JournalFaults::default()
    };
    let (survivors, recovered, _) = fault_roundtrip("crc", faults, 8);
    // Records 1..=4 verify; record 5 fails its CRC and truncates the rest.
    assert_eq!(survivors, 4);
    assert_eq!(recovered.flow_count(DatapathId(1)), 3);
}

#[test]
fn crash_between_apply_and_append_loses_only_the_unjournaled_suffix() {
    let faults = JournalFaults {
        crash_before_append_on_record: Some(5),
        ..JournalFaults::default()
    };
    let (survivors, recovered, reopened) = fault_roundtrip("window", faults, 8);
    // The command with seq 5 was applied live but never journaled; the
    // journal holds exactly the prefix before the crash window.
    assert_eq!(survivors, 4);
    assert_eq!(recovered.flow_count(DatapathId(1)), 3);
    assert_eq!(recovered.last_applied(), reopened.last_seq());
}

#[test]
fn corrupt_crc_does_not_disturb_the_in_memory_tail() {
    // The CRC corruption models silent media damage: the writing process
    // survives, so its in-memory journal (the warm-standby feed) keeps the
    // full record stream even though a disk reopen truncates.
    let (live, journal) = journaled_kernel();
    journal.arm_faults(JournalFaults {
        corrupt_crc_on_record: Some(4),
        ..JournalFaults::default()
    });
    for tp in 1..=5u16 {
        let _ = live.execute(&insert_call(PRIV, tp, 100, 0, 1));
    }
    assert!(!journal.is_dead());
    assert_eq!(journal.len(), 7, "2 registrations + 5 inserts all retained");
    let standby = Kernel::recover(net(), &Kernel::new(net(), true).snapshot(), &journal);
    assert!(standby.snapshot().state_eq(&live.snapshot()));
}

#[test]
fn replayed_commands_are_retagged_and_cursors_survive() {
    let (live, journal) = journaled_kernel();
    let snap = live.snapshot(); // checkpoint right after registration
    for tp in 1..=3u16 {
        let _ = live.execute(&insert_call(PRIV, tp, 100, 0, 1));
    }
    let _ = live.execute(&insert_call(UNPRIV, 9, 1, 0, 1)); // denied, audited
    let denied_op = FlowOp {
        dpid: DatapathId(1),
        flow_mod: FlowMod::add(
            FlowMatch::default().with_tp_dst(10),
            Priority(1),
            ActionList::output(PortNo(1)),
        ),
    };
    let (res, _) = live.execute_transaction(UNPRIV, &[denied_op]); // denied as a group
    assert!(res.unwrap_err().is_denied());
    // A forensic consumer has read everything up to the crash.
    let cursor = live
        .audit_records_since(0)
        .last()
        .map(|r| r.seq)
        .unwrap_or(0);
    assert!(cursor > 0);

    let recovered = Kernel::recover(net(), &snap, &journal);
    let replayed = recovered.audit_records_since(0);
    assert!(
        !replayed.is_empty(),
        "replaying the suffix must re-derive audit records"
    );
    assert!(
        replayed.iter().all(|r| r.operation.starts_with("replay:")),
        "every post-recovery record must carry the replay: tag, got {:?}",
        replayed
            .iter()
            .map(|r| r.operation.clone())
            .collect::<Vec<_>>()
    );
    // Cursor survival: numbering extends the pre-crash sequence densely —
    // the consumer's records_since(cursor) resumes at cursor + 1 and never
    // re-serves a pre-crash record under a new number.
    let resumed = recovered.audit_records_since(cursor);
    assert_eq!(resumed.first().map(|r| r.seq), Some(cursor + 1));
    assert_eq!(
        resumed.len(),
        replayed.len(),
        "no replayed record may be numbered at or below the consumed cursor"
    );
    // The denial replayed as a denial: same decision, replay-tagged.
    assert!(replayed
        .iter()
        .any(|r| r.app == UNPRIV && r.operation == "replay:insert_flow"));
    assert!(replayed.iter().any(|r| r.app == UNPRIV
        && r.operation == "replay:transaction"
        && r.outcome == AuditOutcome::Denied));
}

#[test]
fn denied_commands_replay_to_identical_tracker_epochs() {
    let (live, journal) = journaled_kernel();
    // A mix where most commands are denials: the epoch accounting of
    // denied commands must replay exactly.
    for tp in 1..=4u16 {
        let _ = live.execute(&insert_call(UNPRIV, tp, 1, 0, 1));
    }
    let _ = live.execute(&insert_call(PRIV, 80, 100, 0, 1));
    let _ = live.execute(&read_call(UNPRIV));
    let live_snap = live.snapshot();
    let replayed = Kernel::replay_trace(net(), true, &journal.trace());
    let replay_snap = replayed.snapshot();
    assert_eq!(live_snap.tracker.epoch, replay_snap.tracker.epoch);
    assert!(replay_snap.state_eq(&live_snap));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The differential-recovery property (satellite of DESIGN.md §12):
    /// for arbitrary command traces, an arbitrary snapshot point, and an
    /// arbitrary crash point at or after it, the recovered kernel is
    /// state-equal to a live kernel that executed exactly the journaled
    /// prefix — registry, tracker epochs, flow tables, subscriptions,
    /// switch counters, host state.
    #[test]
    fn recovered_equals_live_at_every_crash_point(
        script in proptest::collection::vec(arb_step(), 1..14),
        snap_sel in any::<u16>(),
        crash_sel in any::<u16>(),
    ) {
        let (live, journal) = journaled_kernel();
        // Registrations occupy records 1..=2; the script's j-th non-read
        // step becomes record 3 + j.
        let snap_at = snap_sel as usize % (script.len() + 1);
        let mut snap: Option<KernelSnapshot> = None;
        for (i, step) in script.iter().enumerate() {
            if i == snap_at {
                snap = Some(live.snapshot());
            }
            apply_step(&live, step);
        }
        let snap = snap.unwrap_or_else(|| live.snapshot());

        // Crash somewhere at or after the snapshot: the journal survives
        // only up to `crash` records.
        let trace = journal.trace();
        let min_keep = snap.last_seq as usize;
        let crash = min_keep + (crash_sel as usize % (trace.len() - min_keep + 1));
        let truncated = Journal::from_trace(trace[..crash].to_vec());

        let recovered = Kernel::recover(net(), &snap, &truncated);

        // Reference: a kernel that lived exactly those `crash` records —
        // 2 registrations + the script prefix holding (crash - 2) journaled
        // steps (a `Step::Read` journals nothing).
        let reference = reference_kernel();
        let mut journaled = crash.saturating_sub(2);
        for step in &script {
            if journaled == 0 {
                break;
            }
            apply_step(&reference, step);
            if !matches!(step, Step::Read { .. }) {
                journaled -= 1;
            }
        }
        prop_assert!(
            recovered.snapshot().state_eq(&reference.snapshot()),
            "snapshot at step {snap_at}, crash at record {crash}: \
             recovered kernel diverged from the live reference"
        );
    }
}

#[test]
fn standby_tails_a_live_primary_and_converges() {
    let (primary, journal) = journaled_kernel();
    let standby = WarmStandby::new(net(), &primary.snapshot(), Arc::clone(&journal));
    for tp in 1..=4u16 {
        let _ = primary.execute(&insert_call(PRIV, tp, 100, 0, 1));
    }
    assert_eq!(standby.catch_up(), 4);
    for tp in 5..=6u16 {
        let _ = primary.execute(&insert_call(PRIV, tp, 100, 0, 1));
    }
    assert_eq!(standby.catch_up(), 2);
    assert_eq!(standby.catch_up(), 0, "catch-up is idempotent");
    assert!(standby.kernel().snapshot().state_eq(&primary.snapshot()));
}

#[test]
fn promote_loses_no_acknowledged_commands_under_concurrent_submitters() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 150;

    let c = ShieldedController::new(Network::new(builders::linear(2), 16_384), 2);
    let journal = Arc::new(Journal::in_memory());
    c.attach_journal(Arc::clone(&journal));
    c.kernel()
        .register_app(PRIV, "driver", &priv_manifest())
        .unwrap();

    let standby = Arc::new(WarmStandby::new(
        Network::new(builders::linear(2), 16_384),
        &c.snapshot(),
        Arc::clone(&journal),
    ));

    let acked: Arc<Mutex<Vec<u16>>> = Arc::new(Mutex::new(Vec::new()));
    let cell = c.kernel_cell();
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let cell = Arc::clone(&cell);
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tp = (t * 1000 + i + 1) as u16;
                    loop {
                        let kernel = cell.load();
                        match kernel.execute(&insert_call(PRIV, tp, 100, 0, 1)).0 {
                            Ok(_) => {
                                acked.lock().unwrap().push(tp);
                                break;
                            }
                            // Raced the seal: the old primary refused the
                            // command un-applied; retry on the next load,
                            // which observes the promoted kernel.
                            Err(ApiError::Shutdown) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected error: {e:?}"),
                        }
                    }
                }
            })
        })
        .collect();

    // Tail while the storm is in flight, then fail over mid-storm.
    for _ in 0..5 {
        standby.catch_up();
        std::thread::yield_now();
    }
    let promoted = c.promote(&standby);
    assert!(promoted.is_sealed() || !promoted.is_sealed()); // reachable
    for t in submitters {
        t.join().unwrap();
    }

    let acked = acked.lock().unwrap().clone();
    assert_eq!(acked.len() as u64, THREADS * PER_THREAD);
    let final_kernel = c.kernel();
    assert!(
        Arc::ptr_eq(&final_kernel, &promoted),
        "the cell must serve the promoted kernel"
    );
    // Every acknowledged insert is present exactly once — nothing lost by
    // the failover, nothing double-installed by idempotent replay.
    for tp in &acked {
        let (result, _) = final_kernel.execute(&ApiCall::new(
            PRIV,
            ApiCallKind::ReadFlowTable {
                dpid: DatapathId(1),
                query: FlowMatch::default().with_tp_dst(*tp),
            },
        ));
        match result {
            Ok(ApiResponse::FlowEntries(entries)) => assert_eq!(
                entries.len(),
                1,
                "acknowledged flow tp_dst={tp} must survive failover exactly once"
            ),
            other => panic!("read failed for tp_dst={tp}: {other:?}"),
        }
    }
    // The promoted kernel took over the journal: commands submitted after
    // failover kept appending to the same log.
    assert_eq!(journal.last_seq(), final_kernel.last_applied());
    c.shutdown();
}

// ---------------------------------------------------------------------------
// Group-commit write pipeline (DESIGN.md §16): the submit path must keep
// every recovery guarantee the serial path had — the journal a concurrent
// storm leaves behind is a linearization of that storm, and replaying it
// reproduces the live kernel.
// ---------------------------------------------------------------------------

/// Asserts the journal carries dense sequence numbers 1..=len — batched
/// group appends must be indistinguishable from N serial appends.
fn assert_dense_seqs(journal: &Journal) {
    let records = journal.records_since(0);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64 + 1, "journal seqs dense and gap-free");
    }
}

/// 8 submitters storm a journaled kernel. Whatever interleaving the
/// scheduler produced, the journal must be a linearization: dense seqs, one
/// record per acknowledged command, and a replay that is state-equal to the
/// live kernel.
#[test]
fn group_commit_journal_is_a_linearization_of_the_storm() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 250;

    let (live, journal) = journaled_kernel();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let live = &live;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let tp = (t * PER_THREAD + i + 1) as u16;
                    let dpid = t % 3 + 1;
                    live.execute(&insert_call(PRIV, tp, 100, 0, dpid))
                        .0
                        .expect("storm insert acked");
                }
            });
        }
    });

    let stats = live.combiner_stats();
    // 2 journaled registrations + every acknowledged insert, exactly once.
    let total = 2 + THREADS * PER_THREAD;
    assert_eq!(journal.len() as u64, total, "one record per command");
    assert_eq!(
        stats.submitted, total,
        "every command routed through submit"
    );
    assert_dense_seqs(&journal);

    // The journal is a linearization: replaying it serially reproduces the
    // concurrent kernel, flow for flow.
    let empty_snap = Kernel::new(net(), true).snapshot();
    let recovered = Kernel::recover(net(), &empty_snap, &journal);
    assert!(
        recovered.snapshot().state_eq(&live.snapshot()),
        "replay of the batch-written journal must equal the live kernel"
    );
    let installed: usize = (1u64..=3)
        .map(|d| recovered.flow_count(DatapathId(d)))
        .sum();
    assert_eq!(installed as u64, THREADS * PER_THREAD);
}

/// One concurrently-issued op for the differential proptest below.
fn arb_storm_op() -> impl Strategy<Value = (u8, u16, u64)> {
    (0u8..4, 1u16..48, 1u64..=3)
}

fn run_storm_op(kernel: &Kernel, thread: usize, op: (u8, u16, u64)) {
    let (kind, tp, dpid) = op;
    // Per-thread tp ranges keep insert identities disjoint across threads;
    // deletes target the same range, so they race only with the thread's
    // own inserts (any interleaving is a valid linearization either way).
    let tp = (thread * 1000) as u16 + tp;
    match kind {
        0 => {
            let _ = kernel.execute(&insert_call(PRIV, tp, 100, 0, dpid));
        }
        1 => {
            let _ = kernel.execute(&delete_call(tp));
        }
        2 => {
            let _ = kernel.execute(&read_call(PRIV));
        }
        _ => {
            let _ = kernel.execute(&pkt_out_call(tp as u8));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Differential group-commit property: for arbitrary concurrent command
    /// traces — four threads, each with its own generated op list — the
    /// journal the storm leaves behind replays to a kernel state-equal to
    /// the live one, with a dense record per submitted command (reads, being
/// queries, submit none). Whatever
    /// order the commit lock chose, the kernel committed, journaled, and
    /// acknowledged the *same* history.
    #[test]
    fn concurrent_group_commit_replays_to_live_state(
        traces in proptest::collection::vec(
            proptest::collection::vec(arb_storm_op(), 1..24),
            4..5,
        ),
    ) {
        let (live, journal) = journaled_kernel();
        // Op kind 2 is a read: a query, which journals nothing.
        let total_ops = traces.iter().flatten().filter(|(kind, _, _)| *kind != 2).count();
        std::thread::scope(|s| {
            for (t, trace) in traces.iter().enumerate() {
                let live = &live;
                s.spawn(move || {
                    for op in trace {
                        run_storm_op(live, t, *op);
                    }
                });
            }
        });
        prop_assert_eq!(journal.len(), 2 + total_ops, "one record per non-read op");
        assert_dense_seqs(&journal);
        let empty_snap = Kernel::new(net(), true).snapshot();
        let recovered = Kernel::recover(net(), &empty_snap, &journal);
        prop_assert!(
            recovered.snapshot().state_eq(&live.snapshot()),
            "batched journal must replay to the live kernel's state"
        );
    }
}

/// The promote-mid-storm ack guarantee, re-proved on a controller built
/// from an explicit [`ControllerConfig`]: sealing the old primary refuses
/// every later command only *after* every acknowledged one is journaled,
/// so no acknowledged command can be lost in the failover, and the journal
/// stays dense across it.
#[test]
fn promote_with_controller_config_loses_no_acknowledged_commands() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 100;

    let c = ShieldedController::new_with_config(
        Network::new(builders::linear(2), 16_384),
        ControllerConfig {
            num_deputies: 2,
            ..ControllerConfig::default()
        },
    );
    let journal = Arc::new(Journal::in_memory());
    c.attach_journal(Arc::clone(&journal));
    c.kernel()
        .register_app(PRIV, "driver", &priv_manifest())
        .unwrap();

    let standby = Arc::new(WarmStandby::new(
        Network::new(builders::linear(2), 16_384),
        &c.snapshot(),
        Arc::clone(&journal),
    ));

    let acked: Arc<Mutex<Vec<u16>>> = Arc::new(Mutex::new(Vec::new()));
    let cell = c.kernel_cell();
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let cell = Arc::clone(&cell);
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tp = (t * 1000 + i + 1) as u16;
                    loop {
                        let kernel = cell.load();
                        match kernel.execute(&insert_call(PRIV, tp, 100, 0, 1)).0 {
                            Ok(_) => {
                                acked.lock().unwrap().push(tp);
                                break;
                            }
                            Err(ApiError::Shutdown) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected error: {e:?}"),
                        }
                    }
                }
            })
        })
        .collect();

    for _ in 0..3 {
        standby.catch_up();
        std::thread::yield_now();
    }
    let promoted = c.promote(&standby);
    for t in submitters {
        t.join().unwrap();
    }

    let acked = acked.lock().unwrap().clone();
    assert_eq!(acked.len() as u64, THREADS * PER_THREAD);
    let final_kernel = c.kernel();
    assert!(Arc::ptr_eq(&final_kernel, &promoted));
    for tp in &acked {
        let (result, _) = final_kernel.execute(&ApiCall::new(
            PRIV,
            ApiCallKind::ReadFlowTable {
                dpid: DatapathId(1),
                query: FlowMatch::default().with_tp_dst(*tp),
            },
        ));
        match result {
            Ok(ApiResponse::FlowEntries(entries)) => assert_eq!(
                entries.len(),
                1,
                "acknowledged flow tp_dst={tp} must survive failover exactly once"
            ),
            other => panic!("read failed for tp_dst={tp}: {other:?}"),
        }
    }
    assert_eq!(journal.last_seq(), final_kernel.last_applied());
    assert_dense_seqs(&journal);
    c.shutdown();
}
