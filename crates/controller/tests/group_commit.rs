//! Journal group commit on a file-backed kernel (DESIGN.md §16): the commit
//! lock holder only queues its record, and the write happens after the lock
//! drops, shared by every submitter whose record it covers. The file must
//! still hold the commit order, densely sequenced, one record per
//! acknowledged command, and `seal()` must leave every acknowledged command
//! on file before it returns.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdnshield_controller::command::Command;
use sdnshield_controller::journal::{Journal, JournalRecord};
use sdnshield_controller::kernel::Kernel;
use sdnshield_controller::ApiError;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, PortNo, Priority};

const THREADS: u16 = 8;
const PER_THREAD: u16 = 500;

fn net() -> Network {
    Network::new(builders::linear(THREADS.into()), 16_384)
}

/// A checked kernel journaling to a fresh file, one writer app per thread.
fn file_kernel(name: &str) -> (Arc<Kernel>, Arc<Journal>, PathBuf) {
    let dir = std::env::temp_dir().join("sdnshield-group-commit-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let kernel = Arc::new(Kernel::new(net(), true));
    let journal = Arc::new(Journal::open(&path).unwrap());
    kernel.attach_journal(Arc::clone(&journal));
    let manifest = parse_manifest("PERM insert_flow").unwrap();
    for t in 0..THREADS {
        kernel
            .register_app(AppId(t + 1), "writer", &manifest)
            .unwrap();
    }
    (kernel, journal, path)
}

/// Thread `t`'s `i`-th insert, on its own switch: identity `tp_dst`.
fn tp(t: u16, i: u16) -> u16 {
    t * PER_THREAD + i + 1
}

fn insert(t: u16, i: u16) -> ApiCall {
    let m = FlowMatch::default().with_tp_dst(tp(t, i));
    ApiCall::new(
        AppId(t + 1),
        ApiCallKind::InsertFlow {
            dpid: DatapathId(u64::from(t) + 1),
            flow_mod: FlowMod::add(m, Priority(100), ActionList::output(PortNo(1))),
        },
    )
}

/// The `tp_dst` of every insert a trace holds, in trace order.
fn inserted(records: &[JournalRecord]) -> Vec<u16> {
    records
        .iter()
        .filter_map(|r| match &r.cmd {
            Command::Call(ApiCall {
                kind: ApiCallKind::InsertFlow { flow_mod, .. },
                ..
            }) => flow_mod.flow_match.tp_dst,
            _ => None,
        })
        .collect()
}

/// Runs `THREADS` writers of `PER_THREAD` inserts each (a writer stops at
/// its first `Shutdown`) while `during` runs on this thread. Returns the
/// identities of the acknowledged inserts and `during`'s result.
fn storm<R>(kernel: &Kernel, during: impl FnOnce(&Mutex<Vec<u16>>) -> R) -> (Vec<u16>, R) {
    let acked = Mutex::new(Vec::new());
    let out = std::thread::scope(|s| {
        for t in 0..THREADS {
            let acked = &acked;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    match kernel.execute(&insert(t, i)).0 {
                        Ok(_) => acked.lock().unwrap().push(tp(t, i)),
                        Err(ApiError::Shutdown) => return,
                        Err(e) => panic!("unexpected error: {e:?}"),
                    }
                }
            });
        }
        during(&acked)
    });
    (acked.into_inner().unwrap(), out)
}

#[test]
fn concurrent_writers_leave_a_dense_commit_ordered_file() {
    let (kernel, journal, path) = file_kernel("storm");
    let (acked, ()) = storm(&kernel, |_| ());
    let total = u64::from(THREADS) + acked.len() as u64;
    assert_eq!(acked.len(), usize::from(THREADS * PER_THREAD));
    let stats = kernel.combiner_stats();
    assert_eq!(stats.submitted, total);
    // Every submit either wrote its record or found it written.
    assert_eq!(stats.writes + stats.combined, total, "{stats:?}");

    let on_file = Journal::open(&path).unwrap().trace();
    assert!(on_file.iter().zip(1..).all(|(r, seq)| r.seq == seq));
    assert_eq!(on_file.len() as u64, total, "dense, one record per ack");
    assert_eq!(on_file, journal.trace(), "the file is the commit order");
    // Each thread's inserts are on file once each, in program order.
    let tps = inserted(&on_file);
    for t in 0..THREADS {
        let own = tps.iter().copied().filter(|x| (x - 1) / PER_THREAD == t);
        assert!(own.eq((0..PER_THREAD).map(|i| tp(t, i))), "thread {t}");
    }
    let empty = Kernel::new(net(), true).snapshot();
    let recovered = Kernel::recover(net(), &empty, &Journal::open(&path).unwrap());
    assert!(recovered.snapshot().state_eq(&kernel.snapshot()));
    std::fs::remove_file(&path).unwrap();
}

/// A record is unwritten only between its submitter's unlock and sync, a
/// narrow window: the storm is sealed in several rounds to land in one.
#[test]
fn seal_mid_storm_leaves_every_acked_command_on_file() {
    for round in 0..16 {
        let (kernel, journal, path) = file_kernel(&format!("seal-{round}"));
        let (acked, on_file) = storm(&kernel, |acked| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while acked.lock().unwrap().len() < usize::from(THREADS * PER_THREAD) / 4 {
                assert!(Instant::now() < deadline, "storm stalled");
                std::thread::yield_now();
            }
            kernel.seal();
            // The file itself, not the live journal (whose readers write
            // the queue out first): seal alone must have put it there.
            Journal::open(&path).unwrap().trace()
        });
        // Every acknowledged insert was on file when seal returned, and
        // nothing reached the journal after it.
        let acked: BTreeSet<u16> = acked.into_iter().collect();
        assert_eq!(acked, inserted(&on_file).into_iter().collect());
        assert_eq!(journal.trace(), on_file);
        std::fs::remove_file(&path).unwrap();
    }
}
