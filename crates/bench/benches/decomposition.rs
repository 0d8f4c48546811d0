//! Criterion micro-benches for the decomposition pipelines (Table 1
//! algorithms).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_clustering::CarveCtx;
use sdnd_congest::RoundLedger;
use sdnd_core::{registry, Params};
use sdnd_graph::gen;

fn bench_decompositions(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    group.sample_size(10);
    for side in [8usize, 12] {
        let g = gen::grid(side, side);
        let n = g.n();

        // The LS93 reduction over the weak carvers and the baselines,
        // through the registry; `seed` only reaches ls93 and en16.
        for (row, name) in [
            ("rg20-weak", "rg20"),
            ("ls93-weak", "ls93"),
            ("en16-strong", "en16"),
            ("ls93-sequential-strong", "sequential"),
        ] {
            let algo = registry::find_decompose(name).expect("registered");
            group.bench_with_input(BenchmarkId::new(row, n), &g, |b, g| {
                b.iter(|| {
                    let mut l = RoundLedger::new();
                    algo.decompose_in(3, g, &mut l, &mut CarveCtx::new())
                        .expect("unarmed ctx never cancels")
                })
            });
        }
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
