//! Integration proofs for the audit log (DESIGN.md §13): records appended
//! by concurrent producers land in the store with **zero loss** and
//! **gap-free sequence numbers**, whether readers query after the storm,
//! tail it with an exactly-once cursor, or straddle a warm-standby
//! `promote()` that seals the old primary mid-storm.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdnshield_controller::audit::{AuditLog, AuditOutcome};
use sdnshield_controller::isolation::{ShieldedController, WarmStandby};
use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_controller::{ApiError, ApiResponse};
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::perm::PermissionSet;
use sdnshield_core::token::PermissionToken;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, PortNo, Priority};

const PRIV: AppId = AppId(1);

fn priv_manifest() -> PermissionSet {
    parse_manifest("PERM insert_flow\nPERM delete_flow\nPERM read_flow_table\nPERM read_statistics")
        .unwrap()
}

fn insert_call(app: AppId, tp_dst: u16, dpid: u64) -> ApiCall {
    ApiCall::new(
        app,
        ApiCallKind::InsertFlow {
            dpid: DatapathId(dpid),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_tp_dst(tp_dst),
                Priority(100),
                ActionList::output(PortNo(1)),
            ),
        },
    )
}

fn read_call(app: AppId, dpid: u64) -> ApiCall {
    ApiCall::new(
        app,
        ApiCallKind::ReadFlowTable {
            dpid: DatapathId(dpid),
            query: FlowMatch::any(),
        },
    )
}

/// Assert `records` carries strictly consecutive sequence numbers — the
/// append-time assignment can never leave a hole or a duplicate.
fn assert_contiguous(records: &[sdnshield_controller::audit::AuditRecord], what: &str) {
    for pair in records.windows(2) {
        assert_eq!(
            pair[1].seq,
            pair[0].seq + 1,
            "{what}: audit seqs must be gap-free, got {} then {}",
            pair[0].seq,
            pair[1].seq
        );
    }
}

/// With **no reader in the loop**, every record concurrent producers
/// append is numbered and stored: producers push, then we wait (bounded)
/// for `seen()` to reach the append count, and only then verify the store
/// contents.
#[test]
fn background_drainer_hands_off_every_record() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 500;

    let log = Arc::new(AuditLog::new(65_536));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    log.record(
                        AppId(t as u16 + 1),
                        &format!("op-{t}-{i}"),
                        PermissionToken::InsertFlow,
                        AuditOutcome::Allowed,
                    );
                }
            });
        }
    });

    // `seen()` is the append watermark; poll it against a deadline rather
    // than busy-reading.
    let total = THREADS * PER_THREAD;
    let deadline = Instant::now() + Duration::from_secs(5);
    while log.seen() < total {
        assert!(
            Instant::now() < deadline,
            "drainer stalled at {} of {total}",
            log.seen()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let records = log.records();
    assert_eq!(records.len() as u64, total, "every claimed record stored");
    assert_contiguous(&records, "background drain");
    assert_eq!(records.first().map(|r| r.seq), Some(1));
    assert_eq!(log.dropped(), 0, "no capacity eviction below 64k records");
}

/// Concurrent writers through the full kernel path while reader threads pump
/// `audit_records_since` as an exactly-once cursor: the cursors observe a
/// gap-free, duplicate-free stream, and after the storm the log holds exactly
/// one record per executed call.
#[test]
fn concurrent_cursors_observe_every_record_exactly_once() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;

    let kernel = Arc::new(Kernel::new(
        Network::new(builders::linear(THREADS + 1), 16_384),
        true,
    ));
    let apps: Vec<AppId> = (1..=THREADS as u16).map(AppId).collect();
    for app in &apps {
        kernel
            .register_app(*app, &format!("writer-{}", app.0), &priv_manifest())
            .unwrap();
    }
    let baseline = kernel.audit_records().len() as u64;

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for (t, app) in apps.iter().enumerate() {
            let kernel = Arc::clone(&kernel);
            let app = *app;
            s.spawn(move || {
                let own = t as u64 + 2;
                for i in 0..PER_THREAD {
                    let call = if i % 4 == 3 {
                        read_call(app, own)
                    } else {
                        insert_call(app, (i % 4096) as u16 + 1, own)
                    };
                    kernel.execute(&call).0.expect("permissioned call");
                }
            });
        }
        for _ in 0..2 {
            let kernel = Arc::clone(&kernel);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                // Exactly-once tail: every batch must start right after the
                // previous cursor and be internally contiguous.
                let mut cursor = 0u64;
                let mut pulled = 0u64;
                loop {
                    let batch = kernel.audit_records_since(cursor);
                    if let Some(first) = batch.first() {
                        assert_eq!(
                            first.seq,
                            cursor + 1,
                            "cursor tail must resume without a gap"
                        );
                        assert_contiguous(&batch, "cursor tail");
                        cursor = batch.last().unwrap().seq;
                        pulled += batch.len() as u64;
                    } else if stop.load(Ordering::Acquire) {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                }
                assert!(pulled > 0, "reader made progress during the storm");
            });
        }
        // Release the readers once every writer call is provably audited.
        let total = baseline + (THREADS * PER_THREAD) as u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        while (kernel.audit_records().len() as u64) < total {
            assert!(Instant::now() < deadline, "audit storm did not complete");
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
    });

    let records = kernel.audit_records();
    assert_eq!(
        records.len(),
        baseline as usize + THREADS * PER_THREAD,
        "exactly one audit record per executed call"
    );
    assert_contiguous(&records, "final log");
    assert_eq!(records.first().map(|r| r.seq), Some(1));
    assert!(records.iter().all(|r| r.outcome != AuditOutcome::Denied));
}

/// Warm-standby failover mid-storm loses no audit records: every
/// acknowledged insert appears exactly once as a non-replay record — on the
/// sealed old primary's log or the promoted kernel's log — and both logs
/// stay gap-free across the seal/catch-up/publish window.
#[test]
fn promote_preserves_audit_trail_across_failover() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 150;

    let c = ShieldedController::new(Network::new(builders::linear(2), 16_384), 2);
    let journal = Arc::new(Journal::in_memory());
    c.attach_journal(Arc::clone(&journal));
    c.kernel()
        .register_app(PRIV, "driver", &priv_manifest())
        .unwrap();
    let old = c.kernel();

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
                        match kernel.execute(&insert_call(PRIV, tp, 1)).0 {
                            Ok(_) => {
                                acked.lock().unwrap().push(tp);
                                break;
                            }
                            // Raced the seal — the old primary refused the
                            // command un-applied and un-audited; retry on
                            // the promoted kernel.
                            Err(ApiError::Shutdown) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected error: {e:?}"),
                        }
                    }
                }
            })
        })
        .collect();

    // The failover must land mid-storm: wait for the first acknowledgment,
    // or a slow-starting storm finds the primary already sealed and its
    // log (asserted non-empty below) never gets a record.
    while acked.lock().unwrap().is_empty() {
        std::thread::yield_now();
    }
    for _ in 0..5 {
        standby.catch_up();
        std::thread::yield_now();
    }
    let promoted = c.promote(&standby);
    for t in submitters {
        t.join().unwrap();
    }

    let acked = acked.lock().unwrap().clone();
    assert_eq!(acked.len() as u64, THREADS * PER_THREAD);
    assert!(Arc::ptr_eq(&c.kernel(), &promoted));

    // The sealed primary's log is gap-free from seq 1 with no evicted
    // records.
    let old_records = old.audit_records();
    assert_contiguous(&old_records, "sealed primary");
    assert_eq!(old_records.first().map(|r| r.seq), Some(1));

    // The promoted kernel's numbering extends the snapshot watermark it was
    // seeded with — contiguous, and disjoint from nothing (replay records
    // are tagged, originals live on the old log).
    let new_records = promoted.audit_records();
    assert_contiguous(&new_records, "promoted kernel");

    // Zero loss, zero double-count: each acknowledged insert was executed
    // exactly once, so exactly one *non-replay* insert_flow record exists
    // across the two logs.
    let originals = |records: &[sdnshield_controller::audit::AuditRecord]| {
        records
            .iter()
            .filter(|r| r.operation == "insert_flow" && r.outcome == AuditOutcome::Allowed)
            .count() as u64
    };
    let replays = new_records
        .iter()
        .filter(|r| r.operation == "replay:insert_flow")
        .count() as u64;
    assert_eq!(
        originals(&old_records) + originals(&new_records),
        THREADS * PER_THREAD,
        "every acknowledged call audited exactly once (plus {replays} tagged replays)"
    );
    // Replays re-derive only commands the old primary already audited.
    assert!(replays <= originals(&old_records));

    // Flow-table spot check, mirroring the recovery suite: the audit claim
    // above is about the trail, this one about effects.
    for tp in acked.iter().take(32) {
        let (result, _) = promoted.execute(&ApiCall::new(
            PRIV,
            ApiCallKind::ReadFlowTable {
                dpid: DatapathId(1),
                query: FlowMatch::default().with_tp_dst(*tp),
            },
        ));
        match result {
            Ok(ApiResponse::FlowEntries(entries)) => assert_eq!(entries.len(), 1),
            other => panic!("read failed for tp_dst={tp}: {other:?}"),
        }
    }
    c.shutdown();
}

/// The same exactly-once audit discipline, re-proved on the group-commit
/// write pipeline (DESIGN.md §16): a journaled kernel under a concurrent
/// storm. Each command is audited in commit order with a per-record
/// watermark, so the storm must still leave one gap-free record per
/// executed call — forensics cannot tell a contended command from an
/// uncontended one.
#[test]
fn group_commit_storm_audits_every_call_exactly_once() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;

    let kernel = Arc::new(Kernel::new(
        Network::new(builders::linear(THREADS + 1), 16_384),
        true,
    ));
    let journal = Arc::new(Journal::in_memory());
    kernel.attach_journal(Arc::clone(&journal));
    let apps: Vec<AppId> = (1..=THREADS as u16).map(AppId).collect();
    for app in &apps {
        kernel
            .register_app(*app, &format!("writer-{}", app.0), &priv_manifest())
            .unwrap();
    }
    let baseline = kernel.audit_records().len() as u64;

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for (t, app) in apps.iter().enumerate() {
            let kernel = Arc::clone(&kernel);
            let app = *app;
            s.spawn(move || {
                let own = t as u64 + 2;
                for i in 0..PER_THREAD {
                    let call = if i % 4 == 3 {
                        read_call(app, own)
                    } else {
                        insert_call(app, (i % 4096) as u16 + 1, own)
                    };
                    kernel.execute(&call).0.expect("permissioned call");
                }
            });
        }
        // An exactly-once cursor tails the log while the combiner batches.
        let cursor_kernel = Arc::clone(&kernel);
        let cursor_stop = Arc::clone(&stop);
        s.spawn(move || {
            let mut cursor = 0u64;
            loop {
                let batch = cursor_kernel.audit_records_since(cursor);
                if let Some(first) = batch.first() {
                    assert_eq!(first.seq, cursor + 1, "cursor resumes without a gap");
                    assert_contiguous(&batch, "group-commit cursor tail");
                    cursor = batch.last().unwrap().seq;
                } else if cursor_stop.load(Ordering::Acquire) {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        // Writers joined when the inner spawns drop out of scope — but the
        // cursor needs the stop flag; raise it from a watcher thread once
        // the expected record count lands.
        let watcher_kernel = Arc::clone(&kernel);
        let watcher_stop = Arc::clone(&stop);
        s.spawn(move || {
            let total = baseline + (THREADS * PER_THREAD) as u64;
            let deadline = Instant::now() + Duration::from_secs(30);
            while (watcher_kernel.audit_records().len() as u64) < total {
                assert!(Instant::now() < deadline, "audit records stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
            watcher_stop.store(true, Ordering::Release);
        });
    });

    let records = kernel.audit_records();
    assert_eq!(
        records.len() as u64,
        baseline + (THREADS * PER_THREAD) as u64,
        "one audit record per executed call, combined or not"
    );
    assert_contiguous(&records, "group-commit storm");
    // The journal agrees call-for-call on every call that can change state
    // (the reads, one call in four, are queries and journal nothing):
    // every journaled record carries the audit watermark observed right
    // after its own apply, so watermarks are non-decreasing in commit order
    // even across batched appends.
    let journal_records = journal.records_since(0);
    assert_eq!(
        journal_records.len(),
        THREADS + THREADS * (PER_THREAD - PER_THREAD / 4),
        "registrations + every non-read call journaled"
    );
    for pair in journal_records.windows(2) {
        assert!(
            pair[1].audit_seq_after >= pair[0].audit_seq_after,
            "per-record audit watermarks must be monotone in commit order"
        );
    }
}
