//! Executor substrate microbenches: per-call overhead of the persistent
//! `partree-exec` pool, plus raw `join` fan-out latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rayon::prelude::*;

fn bench_exec(c: &mut Criterion) {
    let width = partree_pram::model::processors().clamp(2, 8);
    let mut g = c.benchmark_group("exec_substrate");
    g.sample_size(10);

    // par_iter map+sum: the shim's hottest path, one submission per op.
    for &n in &[65_536usize, 1_048_576] {
        let xs: Vec<f64> = (1..=n).map(|i| 1.0 / i as f64).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("par_sum_pool", n), &n, |b, _| {
            b.iter(|| {
                partree_pram::model::with_threads(width, || {
                    xs.par_iter().map(|&x| x * 1.000_000_1).sum::<f64>()
                })
            })
        });
    }

    // Tiny-join latency: fork/sync cost with near-zero useful work.
    g.throughput(Throughput::Elements(1));
    g.bench_with_input(BenchmarkId::new("tiny_join_pool", 2), &2, |b, _| {
        b.iter(|| {
            partree_pram::model::with_threads(width, || {
                rayon::join(
                    || std::hint::black_box(1u64) + 1,
                    || std::hint::black_box(2u64) + 2,
                )
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
