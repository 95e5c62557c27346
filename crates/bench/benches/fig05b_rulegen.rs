//! Regenerates Fig. 5(b) and benchmarks its generation.
use criterion::{criterion_group, criterion_main, Criterion};
use spade_bench::{run_experiment, WorkloadScale};

fn bench(c: &mut Criterion) {
    let out = run_experiment("fig05b", WorkloadScale::Reduced).expect("known experiment id");
    println!("{out}");
    let mut group = c.benchmark_group("fig05b");
    group.sample_size(10);
    group.bench_function("generate", |b| {
        b.iter(|| run_experiment("fig05b", WorkloadScale::Reduced))
    });
    group.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
