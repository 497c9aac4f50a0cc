//! Ablation bench for the streaming extension: sliding a paired KS window
//! with the incremental treap (`O(log w)` per observation) against
//! recomputing the batch statistic at every slide (`O(w log w)` per
//! observation). The gap is what makes the monitor deployable at high
//! ingest rates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moche_core::ks_statistic;
use moche_data::dist::normal;
use moche_data::rng::rng_from_seed;
use moche_stream::SlidingKs;
use std::hint::black_box;

fn stream_of(len: usize) -> Vec<f64> {
    let mut rng = rng_from_seed(99);
    (0..len).map(|_| normal(&mut rng, 0.0, 1.0)).collect()
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_vs_batch_slide");
    group.sample_size(10);
    for &w in &[500usize, 2_000, 8_000] {
        let slides = 200usize;
        let series = stream_of(2 * w + slides);

        group.bench_with_input(BenchmarkId::new("batch_recompute", w), &w, |b, _| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for s in 0..slides {
                    let r = &series[s..s + w];
                    let t = &series[s + w..s + 2 * w];
                    acc += ks_statistic(black_box(r), black_box(t)).unwrap();
                }
                acc
            })
        });

        group.bench_with_input(BenchmarkId::new("incremental_treap", w), &w, |b, _| {
            b.iter(|| {
                let mut ks = SlidingKs::new(w);
                for &v in &series[..2 * w] {
                    ks.push(v);
                }
                let mut acc = ks.statistic().unwrap();
                for s in 0..slides {
                    // Promote the oldest test point to the reference side
                    // and admit the next observation: three O(log w)
                    // weight updates in one treap.
                    ks.push(series[2 * w + s]);
                    acc += ks.statistic().unwrap();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
