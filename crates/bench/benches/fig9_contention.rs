//! Criterion bench for Figure 9: mediated-call throughput under deputy
//! contention at 1/2/4/8 deputies, disjoint vs mixed per-switch workloads.
//! Companion to the `fig9_table` bin, which emits `BENCH_fig9.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use sdnshield_bench::contention::{ContentionHarness, Workload};

const CALLS_PER_DEPUTY: usize = 1_000;

fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_contention");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    for workload in Workload::ALL {
        // The same pairing as `fig9_table`: disjoint with no journal
        // attached, mixed on the production group-commit pipeline.
        let harness = match workload {
            Workload::Disjoint => ContentionHarness::new(),
            Workload::Mixed => ContentionHarness::new_group_commit(),
        };
        // Drive every switch to steady-state table size before measuring.
        harness.prime(workload);
        for deputies in [1usize, 2, 4, 8] {
            group.throughput(Throughput::Elements((deputies * CALLS_PER_DEPUTY) as u64));
            group.bench_with_input(
                BenchmarkId::new(workload.label(), deputies),
                &deputies,
                |b, &d| {
                    b.iter(|| harness.run_batch(d, CALLS_PER_DEPUTY, workload));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
