//! Figure 9: mediated-call throughput vs deputy count — the paper's §IX-B2
//! claim that stateless permission checks "scale out across deputy
//! threads". Every write goes through the kernel's one mutation seam
//! (DESIGN.md §16), journal or not.
//!
//! Two series per deputy count:
//!
//! * `disjoint` — pure inserts, one private switch per deputy, no journal
//!   attached: the seam with nothing to append.
//! * `group_commit` — the realistic op mix on the production pipeline:
//!   journaled kernel with reads served via the
//!   lock-free RCU fast lane. This is the configuration real apps get, so
//!   the headline `speedup_mixed_*` keys are computed from this series.
//!
//! Emits a machine-readable `BENCH_fig9.json` next to the table so later
//! PRs have a throughput baseline to compare against.
//!
//! Run with: `cargo run --release -p sdnshield-bench --bin fig9_table`
//! (`--fast` shrinks the batches for CI smoke runs).

use std::fmt::Write as _;
use std::fs;

use sdnshield_bench::contention::{ContentionHarness, Workload};

const DEPUTIES: [usize; 4] = [1, 2, 4, 8];

/// One measured series: a label plus (deputies, calls/sec) rows.
struct Series {
    label: &'static str,
    rows: Vec<(usize, f64)>,
}

fn measure_series(
    label: &'static str,
    mk_harness: impl Fn() -> ContentionHarness,
    workload: Workload,
    calls_total: usize,
    reps: usize,
) -> Series {
    let mut rows = Vec::new();
    let mut last: Option<ContentionHarness> = None;
    for &deputies in &DEPUTIES {
        // Strong scaling: the TOTAL batch is constant and split across the
        // deputies, so every row commits (and journals) the same history
        // length between compactions. Fixing per-deputy work instead would
        // hand higher-deputy rows proportionally longer journal retention
        // windows — measurable as allocator pressure, not mediation cost.
        let calls_per_deputy = calls_total / deputies;
        // Best of `reps` batches: contention benches are noisy and the
        // max is the least-perturbed observation.
        //
        // Every (row, rep) measurement runs on a FRESH, steady-state-primed
        // harness, so every deputy's switches hold the same table sizes no
        // matter the deputy count or per-deputy call count. Reusing one
        // kernel across rows (as this table once did) silently handicaps
        // the later, higher-deputy rows: their reads scan tables the
        // earlier rows already populated, and the "speedup" column ends
        // up measuring table growth, not contention.
        let best = (0..reps)
            .map(|_| {
                let harness = mk_harness();
                // Steady-state tables from call 0 (see `prime` docs), then a
                // short warmup batch to page in code and thread stacks.
                harness.prime(workload);
                harness.run_batch(deputies, calls_per_deputy.min(512), workload);
                let cps = harness.throughput(deputies, calls_per_deputy, workload);
                last = Some(harness);
                cps
            })
            .fold(f64::MIN, f64::max);
        rows.push((deputies, best));
    }
    if let Some(harness) = last {
        let stats = harness.kernel().combiner_stats();
        if stats.submitted > 0 {
            println!(
                "{label}: last batch — {} submits, {} journal writes (mean batch {:.2}), \
                 {} written by a peer's flush",
                stats.submitted,
                stats.writes,
                stats.mean_batch(),
                stats.combined
            );
        }
    }
    Series { label, rows }
}

fn measure(calls_total: usize, reps: usize) -> Vec<Series> {
    let out = vec![
        measure_series(
            "disjoint",
            ContentionHarness::new,
            Workload::Disjoint,
            calls_total,
            reps,
        ),
        measure_series(
            "group_commit",
            ContentionHarness::new_group_commit,
            Workload::Mixed,
            calls_total,
            reps,
        ),
    ];
    println!();
    out
}

/// Throughput ratio of `deputies` deputies over one, within one series.
fn speedup(series: &[Series], label: &str, deputies: usize) -> f64 {
    let rows = &series
        .iter()
        .find(|s| s.label == label)
        .expect("series measured")
        .rows;
    let at = |d: usize| {
        rows.iter()
            .find(|(dep, _)| *dep == d)
            .map(|(_, cps)| *cps)
            .expect("deputy count measured")
    };
    at(deputies) / at(1)
}

/// Hand-rolled JSON (the workspace deliberately carries no serde).
fn to_json(series: &[Series], calls_total: usize) -> String {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig9_contention\",\n");
    s.push_str("  \"unit\": \"calls_per_sec\",\n");
    let _ = writeln!(s, "  \"host_parallelism\": {parallelism},");
    let _ = writeln!(s, "  \"calls_total_per_batch\": {calls_total},");
    s.push_str("  \"workloads\": {\n");
    for (wi, sr) in series.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\": {{", sr.label);
        for (ri, (deputies, cps)) in sr.rows.iter().enumerate() {
            let comma = if ri + 1 < sr.rows.len() { "," } else { "" };
            let _ = writeln!(s, "      \"{deputies}\": {cps:.0}{comma}");
        }
        let comma = if wi + 1 < series.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  },\n");
    s.push_str("  \"series_notes\": {\n");
    s.push_str("    \"disjoint\": \"no journal attached, per-deputy private switches\",\n");
    s.push_str(
        "    \"group_commit\": \"journaled kernel: lock fast path + journal group commit + RCU read fast lane (production path)\"\n",
    );
    s.push_str("  },\n");
    let _ = writeln!(
        s,
        "  \"mixed_read_fraction\": {:.3},",
        Workload::Mixed.read_fraction()
    );
    let _ = writeln!(s, "  \"mixed_op_mix\": \"{}\",", Workload::Mixed.mix());
    let _ = writeln!(
        s,
        "  \"speedup_mixed_4_vs_1\": {:.2},",
        speedup(series, "group_commit", 4)
    );
    let _ = writeln!(
        s,
        "  \"speedup_mixed_8_vs_1\": {:.2}",
        speedup(series, "group_commit", 8)
    );
    s.push_str("}\n");
    s
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    // Total calls per measured batch, split across the row's deputies.
    // Sized so a batch runs for hundreds of milliseconds at the ~150k
    // calls/sec the cache-resident steady-state workload sustains —
    // shorter batches drown in scheduler noise.
    let (calls, reps) = if fast { (8_000, 2) } else { (200_000, 5) };

    println!("Figure 9 — kernel call throughput vs deputies (best of {reps} batches)\n");
    let series = measure(calls, reps);
    println!(
        "{:<14} {:>10} {:>16} {:>12}",
        "series", "deputies", "calls/sec", "vs 1 deputy"
    );
    for sr in &series {
        let base = sr.rows[0].1;
        for (deputies, cps) in &sr.rows {
            println!(
                "{:<14} {:>10} {:>16.0} {:>11.2}x",
                sr.label,
                deputies,
                cps,
                cps / base
            );
        }
    }

    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nhost parallelism: {parallelism} hardware threads");
    println!("mixed-workload mix: {}", Workload::Mixed.mix());
    println!(
        "group-commit (production path) speedup 4 vs 1 deputies: {:.2}x",
        speedup(&series, "group_commit", 4)
    );
    println!(
        "group-commit (production path) speedup 8 vs 1 deputies: {:.2}x",
        speedup(&series, "group_commit", 8)
    );
    if parallelism < 4 {
        println!(
            "note: scaling cannot materialize below 4 hardware threads; the\n\
             tier-2 test `mixed_workload_scales_1p5x_at_4_deputies` asserts\n\
             the >=1.5x bar on capable hosts (cargo test -- --ignored)."
        );
    }

    let json = to_json(&series, calls);
    fs::write("BENCH_fig9.json", &json).expect("write BENCH_fig9.json");
    println!("\nwrote BENCH_fig9.json");
}
