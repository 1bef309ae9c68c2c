//! Pieces every workload shares: the harness clock, the fixed controller
//! sizing, metric declarations and the per-run result record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sdnshield_apps::l2_learning::{L2LearningSwitch, L2_MANIFEST};
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController};
use sdnshield_core::lang::parse_manifest;

use crate::json::Json;
use crate::l2mix;
use crate::stats;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Deputy threads of every controller the benchmark builds. A constant, not
/// `nproc`: the load must not change shape with the host (`nproc` is
/// recorded in the output instead).
pub const NUM_DEPUTIES: usize = 2;
/// Driver threads of the kernel workloads.
pub const DRIVER_THREADS: usize = 2;
/// Timed rounds per untraced run (one mediated + one baseline segment each).
pub const ROUNDS: usize = 10;
/// Timed rounds per traced run (traced + untraced mediated, traced baseline).
pub const TRACED_ROUNDS: usize = 6;
/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Recovered kernels per run that are compared with the live kernel.
pub const REPLAY_REPEATS: usize = 3;
/// Time spent in `Kernel::recover` after every timed round; `replay_per_s`
/// is the median over all the recoveries of the run.
pub const REPLAY_SLICE: Duration = Duration::from_millis(30);

/// The controller sizing every workload uses.
pub fn controller_config() -> ControllerConfig {
    ControllerConfig {
        num_deputies: NUM_DEPUTIES,
        switch_lanes: 0,
        pin_threads: false,
        read_fast_path: true,
        ..ControllerConfig::default()
    }
}

/// A shielded controller over a fresh `l2mix` network with the L2 learning
/// app registered and packet-outs absorbed (CBench mode: emulated switches
/// only count responses).
pub fn shielded_l2() -> Arc<ShieldedController> {
    let controller = Arc::new(ShieldedController::new_with_config(
        l2mix::network(),
        controller_config(),
    ));
    controller.kernel().set_absorb_packet_outs(true);
    controller
        .register(
            Box::new(L2LearningSwitch::new()),
            &parse_manifest(L2_MANIFEST).expect("L2 manifest parses"),
        )
        .expect("L2 app registers");
    controller
}

/// `benchmark/out/` under the current directory (the checkout root),
/// created on first use. Journals and traces live here and nowhere else.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark").join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which side of `mediated_over_baseline` a segment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The shielded, checked, journaled path.
    Mediated,
    /// The same operations with no mediation.
    Baseline,
}

/// What one timed segment completed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Flow set-ups completed and verified.
    pub flowsetups: u64,
    /// API calls completed (denied-as-designed included).
    pub calls: u64,
    /// Time the counted operations took: the segment's wall-clock length,
    /// except on `wire_lat`'s baseline, which times only its echoes.
    pub secs: f64,
    /// Median latency of the segment's operations in nanoseconds, on the
    /// workload whose `mediated_over_baseline` compares latencies
    /// (`wire_lat`); `None` where it compares rates.
    pub median_ns: Option<f64>,
}

/// End-to-end metrics: `(name, unit)`. Mirrors `BENCHMARK.json`; the suite
/// runner fails when the two disagree.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flowsetup_p50_us", "us"),
    ("flowsetup_per_s", "1/s"),
    ("calls_per_s", "1/s"),
    ("mediated_over_baseline", "ratio"),
    ("replay_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, outermost layer last.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("openflow.decode_ns_per_frame", "ns"),
    ("openflow.encode_ns_per_frame", "ns"),
    ("openflow.wire_bytes_per_flowsetup", "B"),
    ("netsim.apply_flow_mod_ns", "ns"),
    ("netsim.stats_ns", "ns"),
    ("netsim.flow_entries", "count"),
    ("core.check_ns_l2", "ns"),
    ("core.check_ns_large_repeat", "ns"),
    ("core.check_ns_large_unique", "ns"),
    ("core.deny_frac", "ratio"),
    ("core.reconcile_compile_us", "us"),
    ("kernel.execute_write_ns_nojournal", "ns"),
    ("kernel.execute_write_ns_memjournal", "ns"),
    ("kernel.execute_write_ns_filejournal", "ns"),
    ("kernel.write_scaling_2v1", "ratio"),
    ("kernel.try_serve_read_ns", "ns"),
    ("kernel.fast_read_hit_frac", "ratio"),
    ("kernel.combiner_mean_batch", "count"),
    ("kernel.combiner_combined_frac", "ratio"),
    ("journal.append_ns_per_cmd", "ns"),
    ("journal.bytes_per_cmd", "B"),
    ("journal.replay_ns_per_cmd", "ns"),
    ("journal.file_mb", "MiB"),
    ("audit.record_ns", "ns"),
    ("audit.records_per_op", "ratio"),
    ("audit.dropped", "count"),
    ("audit.shed", "count"),
    ("isolation.singleton_call_ns", "ns"),
    ("isolation.channel_crossing_ns", "ns"),
    ("isolation.batch_call_ns_per_op", "ns"),
    ("isolation.dispatch_ns_per_event", "ns"),
    ("isolation.deliver_sync_us", "us"),
    ("isolation.quiesce_wait_frac", "ratio"),
    ("isolation.fast_path_hits", "count"),
    ("isolation.events_shed", "count"),
    ("monolithic.ns_per_event", "ns"),
    ("southbound.poll_once_ns_per_frame", "ns"),
    ("southbound.wire_tax_us", "us"),
    ("southbound.wire_probe_p50_us", "us"),
    ("southbound.shed", "count"),
    ("southbound.protocol_errors", "count"),
    ("southbound.frames_rx_per_flowsetup", "ratio"),
    ("flowsetup_p99_us", "us"),
    ("process.allocs_per_op", "count"),
    ("process.alloc_bytes_per_op", "B"),
    ("trace_overhead_frac", "ratio"),
];

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted in timed and verified phases.
    pub attempted: u64,
    /// Operations that failed (see README "What fails an operation").
    pub failed: u64,
    /// Named correctness checks with their verdict and detail.
    pub checks: Vec<(String, bool, String)>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form facts printed with the run (sample counts, sizes).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a named check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_owned(), ok, detail));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The result object the contract asks for, restricted to `decl`.
    /// A per-layer metric a workload does not exercise reads 0; a missing
    /// end-to-end metric is a harness bug and fails the run.
    pub fn result_json(&mut self, decl: &[(&'static str, &'static str)], required: bool) -> Json {
        let mut metrics = BTreeMap::new();
        for (name, unit) in decl {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None => {
                    if required {
                        self.check(
                            "every end-to-end metric reported",
                            false,
                            format!("{name} missing"),
                        );
                    }
                    0.0
                }
            };
            metrics.insert(
                (*name).to_owned(),
                Json::obj([
                    ("value".to_owned(), Json::Num(value)),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ]),
            );
        }
        Json::obj([
            ("correct".to_owned(), Json::Bool(self.correct())),
            (
                "attempted".to_owned(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
    }
}

/// What a run reports from its latency samples.
pub struct LatencySummary {
    /// Midmean (mean of the central half of the samples), µs.
    pub p50_us: f64,
    /// 99th percentile in µs, when at least ten samples lie beyond it.
    pub p99_us: Option<f64>,
    /// Highest supported percentile and its value in µs, if any.
    pub tail: Option<(f64, f64)>,
    /// Samples kept.
    pub n: usize,
}

/// Latency samples in nanoseconds, bounded: once [`LatencySamples::CAP`]
/// samples are held, every other one is dropped and from then on only every
/// second (fourth, ...) new sample is kept. Memory therefore does not grow
/// with throughput, so faster code cannot show up as a larger
/// `peak_rss_mb`.
#[derive(Debug)]
pub struct LatencySamples {
    kept: Vec<u32>,
    stride: u32,
    skip: u32,
}

impl Default for LatencySamples {
    fn default() -> Self {
        LatencySamples {
            kept: Vec::new(),
            stride: 1,
            skip: 0,
        }
    }
}

impl LatencySamples {
    /// Most samples ever held.
    pub const CAP: usize = 1 << 19;

    /// Offers one sample.
    #[inline]
    pub fn push_ns(&mut self, ns: u64) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.skip = self.stride - 1;
        self.kept.push(ns.min(u64::from(u32::MAX)) as u32);
        if self.kept.len() == Self::CAP {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
        }
    }

    /// Forgets every sample (end of warm-up).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Moves another store's samples into this one (per-thread stores).
    pub fn absorb(&mut self, other: &mut LatencySamples) {
        self.kept.append(&mut other.kept);
    }

    /// Sorts the samples and summarises them.
    pub fn summarize(&mut self) -> LatencySummary {
        self.kept.sort_unstable();
        let samples = &self.kept;
        let tail = stats::highest_percentile(samples).map(|(p, v)| (p, v / 1000.0));
        LatencySummary {
            p50_us: stats::midmean(samples) / 1000.0,
            p99_us: tail
                .filter(|(p, _)| *p >= 99.0)
                .map(|_| stats::percentile(samples, 99.0) / 1000.0),
            tail,
            n: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_store_stays_bounded_and_keeps_the_distribution() {
        let mut s = LatencySamples::default();
        let n = 5 * LatencySamples::CAP as u64;
        for i in 0..n {
            s.push_ns(i % 1000 * 1000);
        }
        assert!(s.kept.len() < LatencySamples::CAP);
        assert!(s.kept.len() >= LatencySamples::CAP / 4);
        let summary = s.summarize();
        assert!((summary.p50_us - 500.0).abs() < 10.0, "{}", summary.p50_us);
        assert!((summary.p99_us.unwrap() - 990.0).abs() < 10.0);
    }
}
