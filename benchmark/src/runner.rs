//! Runs one workload the way the contract asks: repeated set-up, a
//! journaled tail on an instance that is then torn down, timed rounds
//! alternating the mediated path with its baseline (the tail is replayed a
//! little after each), verification, and one result line.

use std::time::{Duration, Instant};

use crate::common::{
    nproc, out_dir, peak_rss_mb, LatencySummary, RunOutput, Segment, Side, END_TO_END, PER_LAYER,
    REPLAY_SLICE, ROUNDS, SETUP_REPEATS, TRACED_ROUNDS,
};
use crate::ladder;
use crate::replay::ReplayJob;
use crate::stats::{median, median_rate};
use crate::trace::Tracer;

/// Allocation counters of the traced binary (absent in the untraced one).
pub trait AllocStats: Sync {
    /// `(allocations, bytes)` since process start.
    fn snapshot(&self) -> (u64, u64);
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The name `BENCHMARK.json` lists it under.
    const NAME: &'static str;

    /// Builds the system under test and warms it with a fixed number of
    /// operations. Everything here is `setup_s`.
    fn setup(seed: u64) -> Self;

    /// Runs one timed segment on one side.
    fn segment(&mut self, side: Side, dur: Duration, tracer: &mut Tracer) -> Segment;

    /// Summary of the latency samples of the mediated segments so far.
    fn latency_summary(&mut self) -> LatencySummary;

    /// Serves a fixed number of journaled operations and hands back what
    /// is needed to replay them. Called on an instance that is torn down
    /// afterwards, never on the one that is timed.
    fn journaled_tail(&mut self) -> ReplayJob;

    /// Final verification and workload-specific counters; tears down.
    fn finish(self, out: &mut RunOutput, tracer: &Tracer);
}

/// Arguments of one contract-mode run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

fn rate(segments: &[Segment], pick: impl Fn(&Segment) -> u64) -> f64 {
    let pairs: Vec<(u64, f64)> = segments.iter().map(|s| (pick(s), s.secs)).collect();
    median_rate(&pairs)
}

/// Runs workload `W` and prints its report; the last line is the result
/// object. Returns whether the run was correct.
pub fn run<W: Workload>(args: &RunArgs, alloc: Option<&'static dyn AllocStats>) -> bool {
    let mut out = RunOutput::default();
    let mut tracer = Tracer::new(false);

    // Set up several times over; the instances that are not timed later
    // are torn down, the first of them after serving the journaled tail.
    let mut setups = Vec::new();
    let mut replay = None;
    let mut workload: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut previous) = workload.take() {
            replay.get_or_insert_with(|| previous.journaled_tail());
            // Dropped here, so two instances never run side by side.
        }
        let t = Instant::now();
        workload = Some(W::setup(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let mut replay = replay.expect("SETUP_REPEATS >= 2");
    out.set("setup_s", median(&setups));

    // Two thirds of the timed budget go to the mediated path, one third to
    // its baseline (traced runs: traced mediated, untraced mediated, traced
    // baseline, so tracing overhead is measured inside the same run).
    let rounds = if args.trace { TRACED_ROUNDS } else { ROUNDS };
    let unit = args.seconds / (ROUNDS as f64 * 3.0);
    let (med_len, base_len) = (
        Duration::from_secs_f64(2.0 * unit),
        Duration::from_secs_f64(unit),
    );
    let mut mediated = Vec::new();
    let mut mediated_traced = Vec::new();
    let mut baseline = Vec::new();
    let alloc_before = alloc.map(|a| a.snapshot());
    for _ in 0..rounds {
        if args.trace {
            tracer.set_enabled(true);
            mediated_traced.push(w.segment(Side::Mediated, med_len, &mut tracer));
            tracer.set_enabled(false);
        }
        mediated.push(w.segment(Side::Mediated, med_len, &mut tracer));
        tracer.set_enabled(args.trace);
        baseline.push(w.segment(Side::Baseline, base_len, &mut tracer));
        tracer.set_enabled(false);
        replay.recover_for(REPLAY_SLICE);
    }
    let alloc_after = alloc.map(|a| a.snapshot());

    let per_segment = |segs: &[Segment]| -> String {
        segs.iter()
            .map(|s| format!("{:.0}", s.flowsetups as f64 / s.secs))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note(format!(
        "mediated segment rates [flow set-ups/s]: {}",
        per_segment(&mediated)
    ));
    out.note(format!(
        "baseline segment rates [flow set-ups/s]: {}",
        per_segment(&baseline)
    ));
    let flows = rate(&mediated, |s| s.flowsetups);
    let calls = rate(&mediated, |s| s.calls);
    // Each round's mediated segment is divided by the baseline segment that
    // ran right after it, so that a slow stretch of the host slows both
    // sides of a ratio; the metric is the median of the per-round ratios.
    // Segments that carry a median latency are compared by it: the rate of
    // one operation at a time at that latency.
    let ratios: Vec<f64> = mediated
        .iter()
        .zip(&baseline)
        .filter(|(_, b)| b.flowsetups > 0)
        .map(|(m, b)| match (m.median_ns, b.median_ns) {
            (Some(m_ns), Some(b_ns)) => b_ns / m_ns,
            _ => (m.flowsetups as f64 / m.secs) / (b.flowsetups as f64 / b.secs),
        })
        .collect();
    out.note(format!(
        "mediated over baseline, per round: {}",
        ratios
            .iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.set("flowsetup_per_s", flows);
    out.set("calls_per_s", calls);
    out.set("mediated_over_baseline", median(&ratios));
    let lat = w.latency_summary();
    out.set("flowsetup_p50_us", lat.p50_us);
    if let Some(p99) = lat.p99_us {
        out.set("flowsetup_p99_us", p99);
    }
    out.note(match lat.tail {
        Some((p, v)) => format!(
            "latency: n={} samples; highest percentile with >=10 samples beyond it: p{p} = {v:.1} us",
            lat.n
        ),
        None => format!("latency: n={} samples support no percentile", lat.n),
    });
    if args.trace {
        let traced = rate(&mediated_traced, |s| s.flowsetups);
        out.set(
            "trace_overhead_frac",
            if flows > 0.0 {
                1.0 - traced / flows
            } else {
                0.0
            },
        );
        let ops: u64 = mediated
            .iter()
            .chain(&mediated_traced)
            .chain(&baseline)
            .map(|s| s.flowsetups.max(s.calls))
            .sum();
        if let (Some((a0, b0)), Some((a1, b1))) = (alloc_before, alloc_after) {
            out.set(
                "process.allocs_per_op",
                (a1 - a0) as f64 / ops.max(1) as f64,
            );
            out.set(
                "process.alloc_bytes_per_op",
                (b1 - b0) as f64 / ops.max(1) as f64,
            );
        }
        let mono = tracer.total("monolithic.deliver_batch");
        let base_events: u64 = baseline.iter().map(|s| s.flowsetups).sum();
        if mono.count > 0 && base_events > 0 {
            out.set(
                "monolithic.ns_per_event",
                mono.total_ns as f64 / base_events as f64,
            );
        }
    }

    w.finish(&mut out, &tracer);
    let replay_rate = replay.finish(&mut out);
    out.set("replay_per_s", replay_rate);
    if args.trace {
        ladder::run(args.seed, &mut out);
        let path = out_dir().join(format!("trace_{}.json", W::NAME));
        let _ = std::fs::write(&path, tracer.to_json(W::NAME).render_pretty());
        out.note(format!("trace written to {}", path.display()));
    }
    out.set("peak_rss_mb", peak_rss_mb());

    print_report(W::NAME, args, &mut out);
    out.correct()
}

fn print_report(name: &str, args: &RunArgs, out: &mut RunOutput) {
    println!(
        "workload {name} seed {} seconds {} trace {} nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    let decl = if args.trace { PER_LAYER } else { END_TO_END };
    for (metric, unit) in decl {
        if let Some(v) = out.metrics.get(metric) {
            println!("  {metric:<40} {v:>16.4} {unit}");
        }
    }
    if args.trace {
        ladder::print(out);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<40} {:>16.6} ratio ({} failed / {} attempted)",
        "failed_frac", failed_frac, out.failed, out.attempted
    );
    for (check, ok, detail) in &out.checks {
        println!(
            "  check {}: {check} ({detail})",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    let json = out.result_json(decl, !args.trace);
    println!("{}", json.render());
}
