//! Criterion micro-benches for the decomposition pipelines (Table 1
//! algorithms).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_clustering::{decompose_with_strong_carver, decompose_with_weak_carver};
use sdnd_congest::RoundLedger;
use sdnd_core::Params;
use sdnd_graph::gen;
use sdnd_weak::{Ls93, Rg20};

fn bench_decompositions(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    group.sample_size(10);
    for side in [8usize, 12] {
        let g = gen::grid(side, side);
        let n = g.n();

        group.bench_with_input(BenchmarkId::new("rg20-weak", n), &g, |b, g| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                decompose_with_weak_carver(g, &Rg20::rg20(), 0.5, &mut l)
            })
        });
        group.bench_with_input(BenchmarkId::new("ls93-weak", n), &g, |b, g| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                decompose_with_weak_carver(g, &Ls93::new(3), 0.5, &mut l)
            })
        });
        group.bench_with_input(BenchmarkId::new("en16-strong", n), &g, |b, g| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                decompose_with_strong_carver(g, &sdnd_baselines::Mpx13::new(3), 0.5, &mut l)
            })
        });
        group.bench_with_input(BenchmarkId::new("ls93-sequential-strong", n), &g, |b, g| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                decompose_with_strong_carver(
                    g,
                    &sdnd_baselines::SequentialGreedy::new(),
                    0.5,
                    &mut l,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("cg21-thm2.3-strong", n), &g, |b, g| {
            b.iter(|| sdnd_core::decompose_strong(g, &Params::default()))
        });
        group.bench_with_input(BenchmarkId::new("cg21-thm3.4-strong", n), &g, |b, g| {
            b.iter(|| sdnd_core::decompose_strong_improved(g, &Params::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decompositions);
criterion_main!(benches);
