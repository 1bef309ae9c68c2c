//! Replaying a workload's journaled tail: `Kernel::recover` from a snapshot
//! plus the records the tail left, timed and checked against the live kernel.

use std::time::{Duration, Instant};

use sdnshield_controller::command::KernelSnapshot;
use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_netsim::network::Network;

use crate::common::{RunOutput, REPLAY_REPEATS};
use crate::stats;

/// The tail a workload journaled, ready to be replayed: the snapshot taken
/// before it, the records it left, and the live kernel's state after it.
///
/// Recoveries are spread over the run (a few after every timed round)
/// rather than done in one burst: this host's speed changes in plateaus of
/// several seconds, and the median of recoveries spread over the whole run
/// sees through a plateau that a burst would land in.
pub struct ReplayJob {
    base: KernelSnapshot,
    journal: Journal,
    live: KernelSnapshot,
    fresh_network: fn() -> Network,
    records: usize,
    operations: u64,
    secs: Vec<f64>,
    equal: bool,
}

impl ReplayJob {
    /// Captures the journal suffix after `base`.
    ///
    /// `operations` is the fixed number of operations the tail served
    /// (`None`: one per journal record). How many records a batching
    /// controller folds them into depends on timing, so the rate is counted
    /// in operations, which do not.
    pub fn new(
        base: KernelSnapshot,
        journal: &Journal,
        live: KernelSnapshot,
        operations: Option<u64>,
        fresh_network: fn() -> Network,
    ) -> Self {
        let suffix = journal.records_since(base.last_seq);
        let records = suffix.len();
        ReplayJob {
            base,
            journal: Journal::from_trace(suffix),
            live,
            fresh_network,
            records,
            operations: operations.unwrap_or(records as u64),
            secs: Vec::new(),
            equal: true,
        }
    }

    /// Recovers fresh kernels from the tail until `budget` is spent (at
    /// least once). The first [`REPLAY_REPEATS`] recovered kernels are
    /// compared with the live one.
    pub fn recover_for(&mut self, budget: Duration) {
        let start = Instant::now();
        loop {
            let network = (self.fresh_network)();
            let t = Instant::now();
            let recovered = Kernel::recover(network, &self.base, &self.journal);
            self.secs.push(t.elapsed().as_secs_f64());
            if self.secs.len() <= REPLAY_REPEATS {
                self.equal &= recovered.snapshot().state_eq(&self.live);
            }
            if start.elapsed() >= budget {
                return;
            }
        }
    }

    /// Operations replayed per second (median over every recovery); also
    /// records the `state_eq` check and the per-record replay time.
    pub fn finish(self, out: &mut RunOutput) -> f64 {
        out.check(
            "recovered kernel state_eq live kernel",
            self.equal && self.records > 0 && self.secs.len() >= REPLAY_REPEATS,
            format!(
                "{} records from {} operations, recovered {} times",
                self.records,
                self.operations,
                self.secs.len()
            ),
        );
        let secs = stats::median(&self.secs);
        out.set(
            "journal.replay_ns_per_cmd",
            1e9 * secs / self.records.max(1) as f64,
        );
        self.operations as f64 / secs
    }
}
