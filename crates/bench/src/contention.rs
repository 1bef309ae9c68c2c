//! The Figure-9 contention workload: worker threads playing Kernel Service
//! Deputies drive [`Kernel::execute`] directly, measuring how mediated-call
//! throughput scales with deputy count (paper §IX-B2: checks are stateless
//! per call and scale out across deputy threads). Every write serializes
//! at the kernel's one mutation seam, the flat-combining group commit of
//! DESIGN.md §16; what scales is the lock-free read side and the combiner's
//! batching.
//!
//! Two workload shapes:
//!
//! * [`Workload::Disjoint`] — each deputy hammers its own switch with flow
//!   insertions: the best case for per-datapath sharding (threads share only
//!   the ownership tracker and the segmented audit log).
//! * [`Workload::Mixed`] — the realistic shape: a mix of inserts, deletes,
//!   flow-table reads and statistics reads, mostly on the deputy's own
//!   switch with periodic calls against a shared switch.
//!
//! And two harness shapes:
//!
//! * [`ContentionHarness::new`] — no journal attached: every call (reads
//!   included) goes through `Kernel::execute`, so the combiner has nothing
//!   to append. Measured on [`Workload::Disjoint`] only; on the mixed
//!   workload it would be the group-commit series minus the append.
//! * [`ContentionHarness::new_group_commit`] — the production shape: the
//!   kernel journals every mutation with batched group-appends, and reads
//!   are served on the calling thread via the lock-free RCU fast lane with
//!   a mediated-path fallback — exactly what `ShieldedController` gives
//!   real apps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, FlowModCommand, StatsRequest};
use sdnshield_openflow::types::{DatapathId, PortNo, Priority};

/// The shape of per-deputy traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pure flow insertions, one private switch per deputy.
    Disjoint,
    /// Mixed inserts/deletes/reads, mostly private with a shared hot switch.
    Mixed,
}

impl Workload {
    /// Both workloads, disjoint first.
    pub const ALL: [Workload; 2] = [Workload::Disjoint, Workload::Mixed];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Disjoint => "disjoint",
            Workload::Mixed => "mixed",
        }
    }

    /// Fraction of calls that are reads (flow-table or statistics).
    pub fn read_fraction(self) -> f64 {
        match self {
            Workload::Disjoint => 0.0,
            // 2 flow-table reads + 1 stats read per 8 calls.
            Workload::Mixed => 3.0 / 8.0,
        }
    }

    /// The op mix, human-readable, as issued by [`ContentionHarness`].
    pub fn mix(self) -> &'static str {
        match self {
            Workload::Disjoint => "8 insert_flow per 8 calls",
            Workload::Mixed => {
                "4 insert_flow / 2 read_flow_table / 1 read_statistics / 1 delete_strict per 8 calls"
            }
        }
    }
}

/// A kernel plus per-deputy registered apps, reusable across measurement
/// batches.
pub struct ContentionHarness {
    kernel: Arc<Kernel>,
    apps: Vec<AppId>,
    /// `Some` in group-commit mode: the journal the kernel batch-appends
    /// to, compacted between batches so long runs stay bounded.
    journal: Option<Arc<Journal>>,
    /// Serve read calls on the issuing thread via the RCU fast lane
    /// (production `read_fast_path` shape) instead of `Kernel::execute`.
    fast_reads: bool,
}

/// The maximum deputy count the harness provisions switches and apps for.
pub const MAX_DEPUTIES: usize = 8;

/// The per-switch match-identity cycle: call `i` targets tp-dst
/// `i % TP_SPACE + 1` (salted per app on the shared switch), so
/// steady-state tables hold a few hundred entries. Deliberately small: the
/// combined working set of all eight deputies' tables must fit in cache,
/// otherwise the speedup column conflates cache-capacity thrash (each
/// timesliced deputy evicting its peers' tables) with the mediation-path
/// contention under test.
pub const TP_SPACE: usize = 256;

impl ContentionHarness {
    /// Builds a kernel over `MAX_DEPUTIES` + 1 switches (one private switch
    /// per deputy plus the shared hot switch) and registers one app per
    /// deputy with flow-write and read permissions.
    pub fn new() -> Self {
        Self::build(false)
    }

    /// The production write-pipeline variant: the kernel journals every
    /// mutation — the flat-combining group commit amortizes the appends
    /// into one group-append per drain — and reads are served on the calling
    /// thread via [`Kernel::try_serve_read`] (falling back to the mediated
    /// path on epoch races), mirroring the `ShieldedController` defaults.
    /// Single-writer switch lanes are enabled when the host has the ≥ 4
    /// cores they need to pay off; below that the combiner applies batches
    /// inline, same as the production default.
    pub fn new_group_commit() -> Self {
        Self::build(true)
    }

    fn build(group_commit: bool) -> Self {
        let kernel = Arc::new(Kernel::new(
            Network::new(builders::linear(MAX_DEPUTIES + 1), 1_000_000),
            true,
        ));
        let journal = group_commit.then(|| {
            let journal = Arc::new(Journal::in_memory());
            kernel.attach_journal(Arc::clone(&journal));
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            if cores >= 4 {
                kernel.set_switch_lanes(4, false);
            }
            journal
        });
        let manifest = parse_manifest(
            "PERM insert_flow\n\
             PERM delete_flow\n\
             PERM read_flow_table\n\
             PERM read_statistics",
        )
        .expect("contention manifest");
        let apps: Vec<AppId> = (1..=MAX_DEPUTIES as u16).map(AppId).collect();
        for app in &apps {
            kernel
                .register_app(*app, &format!("deputy-{}", app.0), &manifest)
                .expect("register deputy app");
        }
        ContentionHarness {
            kernel,
            apps,
            journal,
            fast_reads: group_commit,
        }
    }

    /// Drives every switch to the workload's steady-state table *before*
    /// measurement, so per-call cost does not depend on how many calls a
    /// row happens to issue per deputy:
    ///
    /// * private switches get exactly the set of match identities the
    ///   workload's inserts can (re)produce — minus anything its deletes
    ///   target — so from call 0 every insert is a replacement, every
    ///   strict delete is a no-op, and every `FlowMatch::any()` read scans
    ///   the same number of entries;
    /// * the shared hot switch (mixed only) gets every app's full salted
    ///   tp range, for all [`MAX_DEPUTIES`] apps — not just the ones a
    ///   given row will run — so its table size is deputy-count-independent
    ///   and shared inserts are same-owner replacements.
    ///
    /// Without this, rows with more (or longer-running) deputies read and
    /// probe larger tables, and the speedup column measures table growth
    /// rather than mediation overhead.
    pub fn prime(&self, workload: Workload) {
        let exec = |app: AppId, dpid: DatapathId, tp: u16| {
            let call = ApiCall::new(
                app,
                ApiCallKind::InsertFlow {
                    dpid,
                    flow_mod: insert_mod(tp),
                },
            );
            self.kernel
                .execute(&call)
                .0
                .expect("steady-state priming insert");
        };
        for (t, app) in self.apps.iter().enumerate() {
            let own = DatapathId(t as u64 + 2);
            for tp in 1..=TP_SPACE as u16 {
                match workload {
                    // Disjoint inserts every tp in the cycle.
                    Workload::Disjoint => exec(*app, own, tp),
                    // Mixed: tp = i % TP_SPACE + 1; insert arms are i % 8
                    // in {0, 2, 4} (tp = 1, 3, 5 mod 8) and the strict-
                    // delete arm is i % 8 == 6 (tp = 7 mod 8). Install
                    // everything except the deleted residue so the table
                    // never drifts.
                    Workload::Mixed => {
                        if tp % 8 != 7 {
                            exec(*app, own, tp);
                        }
                    }
                }
            }
        }
        if workload == Workload::Mixed {
            for app in &self.apps {
                for k in 1..=(TP_SPACE / 8) as u16 {
                    exec(*app, DatapathId(1), k * 8 + (app.0 - 1) * TP_SPACE as u16);
                }
            }
        }
        if let Some(journal) = &self.journal {
            journal.compact(journal.last_seq());
        }
    }

    /// The kernel under test.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Runs one batch: `deputies` threads issue `calls_per_deputy` mediated
    /// calls each, returning the wall-clock time for the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `deputies` exceeds [`MAX_DEPUTIES`] or any call is denied
    /// (the apps are registered with every needed permission).
    pub fn run_batch(
        &self,
        deputies: usize,
        calls_per_deputy: usize,
        workload: Workload,
    ) -> Duration {
        assert!(deputies <= MAX_DEPUTIES, "harness sized for 8 deputies");
        let fast_reads = self.fast_reads;
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..deputies {
                let kernel = Arc::clone(&self.kernel);
                let app = self.apps[t];
                s.spawn(move || {
                    // Private switch t+2; switch 1 is the shared hot spot.
                    let own = DatapathId(t as u64 + 2);
                    for i in 0..calls_per_deputy {
                        let call = build_call(app, own, i, workload);
                        if fast_reads {
                            if let Some(res) = kernel.try_serve_read(&call) {
                                res.expect("fully-permissioned read succeeds");
                                continue;
                            }
                        }
                        let (res, _) = kernel.execute(&call);
                        res.expect("fully-permissioned call succeeds");
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        // Journal maintenance stays outside the timed window: compaction is
        // a between-batch chore, not part of the mediation cost under test.
        if let Some(journal) = &self.journal {
            journal.compact(journal.last_seq());
        }
        elapsed
    }

    /// Calls per second for one batch.
    pub fn throughput(&self, deputies: usize, calls_per_deputy: usize, workload: Workload) -> f64 {
        let elapsed = self.run_batch(deputies, calls_per_deputy, workload);
        (deputies * calls_per_deputy) as f64 / elapsed.as_secs_f64()
    }
}

impl Default for ContentionHarness {
    fn default() -> Self {
        Self::new()
    }
}

fn insert_mod(tp_dst: u16) -> FlowMod {
    FlowMod::add(
        FlowMatch::default().with_tp_dst(tp_dst),
        Priority(100),
        ActionList::output(PortNo(1)),
    )
}

/// The i-th call a deputy issues under a workload. Match identities cycle
/// through a bounded space so long runs replace entries instead of filling
/// the table.
fn build_call(app: AppId, own: DatapathId, i: usize, workload: Workload) -> ApiCall {
    let tp = (i % TP_SPACE) as u16 + 1;
    let kind = match workload {
        Workload::Disjoint => ApiCallKind::InsertFlow {
            dpid: own,
            flow_mod: insert_mod(tp),
        },
        Workload::Mixed => {
            // Every 8th call targets the shared switch; the op mix is
            // 4 inserts : 2 reads : 1 stats : 1 delete. Shared-switch
            // inserts salt the match identity per app (as the contention
            // integration tests do) so deputies contend on the shard lock
            // rather than silently replacing each other's entries — cross-
            // app replacement churn would scale with deputy count and
            // masquerade as mediation overhead.
            let shared = i % 8 == 7;
            let dpid = if shared { DatapathId(1) } else { own };
            let tp = if shared {
                (i % TP_SPACE) as u16 + 1 + (app.0 - 1) * TP_SPACE as u16
            } else {
                tp
            };
            match i % 8 {
                0 | 2 | 4 | 7 => ApiCallKind::InsertFlow {
                    dpid,
                    flow_mod: insert_mod(tp),
                },
                1 | 5 => ApiCallKind::ReadFlowTable {
                    dpid,
                    query: FlowMatch::any(),
                },
                3 => ApiCallKind::ReadStatistics {
                    dpid,
                    request: StatsRequest::Table,
                },
                _ => {
                    let mut fm = insert_mod(tp);
                    fm.command = FlowModCommand::DeleteStrict;
                    ApiCallKind::DeleteFlow { dpid, flow_mod: fm }
                }
            }
        }
    };
    ApiCall::new(app, kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_run_denial_free_on_both_workloads() {
        let h = ContentionHarness::new();
        for workload in Workload::ALL {
            h.prime(workload);
            for deputies in [1, 2] {
                let elapsed = h.run_batch(deputies, 64, workload);
                assert!(elapsed.as_nanos() > 0);
            }
        }
        // All calls audited as non-denied.
        let records = h.kernel().audit_records_since(0);
        assert!(records
            .iter()
            .all(|r| r.outcome != sdnshield_controller::audit::AuditOutcome::Denied));
    }

    #[test]
    fn group_commit_batches_run_denial_free_and_journal_stays_bounded() {
        let h = ContentionHarness::new_group_commit();
        h.prime(Workload::Mixed);
        for deputies in [1, 4] {
            let elapsed = h.run_batch(deputies, 64, Workload::Mixed);
            assert!(elapsed.as_nanos() > 0);
        }
        // Mutations really routed through the flat-combining submit path.
        let stats = h.kernel().combiner_stats();
        assert!(stats.submitted > 0, "writes go through the combiner");
        // Between-batch compaction keeps the in-memory journal bounded.
        assert_eq!(h.journal.as_ref().unwrap().len(), 0);
        let records = h.kernel().audit_records_since(0);
        assert!(records
            .iter()
            .all(|r| r.outcome != sdnshield_controller::audit::AuditOutcome::Denied));
    }
}
