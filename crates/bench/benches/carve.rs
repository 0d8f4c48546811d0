//! Criterion benches for the sequential carving pipeline itself: the
//! CG21 theorem paths (2.2 carve, 2.3 decompose, 3.3 carve), the
//! Lemma 3.1 cut primitive, and the exact validators they are checked
//! with. Wall-clock of the *simulation*; the simulated round counts live
//! in the table binaries.
//!
//! Sizes: grids at n = 256 and 1024 always; the order-of-magnitude
//! larger `scaling` bins (64x64 = 4096, 102x102 = 10404) join when
//! `SDND_N` allows, mirroring `src/bin/scaling.rs`. Expander and G(n,p)
//! rows pin the non-grid topologies at n = 1024.
//!
//! Rows come in pairs where it matters: `X` runs with a fresh context
//! per call (the `carve_strong` trait method, or the `_in` form with
//! `&mut CarveCtx::new()`), `X-ctx` reuses one [`CarveCtx`] across
//! iterations — the carving analogue of the engine's session rows.
//! `ggr21-weak-ctx` isolates the weak-carving layer: one
//! full-graph GGR21 carving at the Theorem 2.1 inner boundary.
//! `thm3.4-decompose-ctx` runs on every graph, the largest grid
//! included, because its Lemma 3.1 phase is the tail of a cold
//! decompose.
//! `BENCH_carve.json` records the committed pre→post baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_bench::env_usize;
use sdnd_clustering::{
    validate_carving, validate_carving_in, BallCarving, CarveCtx, StrongCarver, WeakCarver,
};
use sdnd_congest::RoundLedger;
use sdnd_core::{sparse_cut, Params, Theorem22Carver, Theorem33Carver};
use sdnd_graph::{gen, Graph, NodeSet};
use sdnd_weak::Rg20;

fn graphs() -> Vec<(String, Graph)> {
    let n_max = env_usize("SDND_N", 1024);
    let mut out = vec![
        ("grid-16x16".to_string(), gen::grid(16, 16)),
        ("grid-32x32".to_string(), gen::grid(32, 32)),
        (
            "expander-1024".to_string(),
            gen::random_regular_connected(1024, 4, 7).expect("valid expander"),
        ),
        (
            "gnp-1024".to_string(),
            gen::gnp_connected(1024, 6.0 / 1024.0, 7),
        ),
    ];
    if n_max >= 4096 {
        out.push(("grid-64x64".to_string(), gen::grid(64, 64)));
    }
    if n_max >= 10404 {
        out.push(("grid-102x102".to_string(), gen::grid(102, 102)));
    }
    out
}

fn bench_carve(c: &mut Criterion) {
    let params = Params::default();
    let mut group = c.benchmark_group("carve");
    group.sample_size(10);

    for (name, g) in graphs() {
        let alive = NodeSet::full(g.n());
        let big = g.n() > 4096;

        group.bench_with_input(BenchmarkId::new("cut_or_component", &name), &g, |b, g| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                sparse_cut::cut_or_component_in(
                    g,
                    &alive,
                    0.5,
                    &params,
                    &mut l,
                    &mut CarveCtx::new(),
                )
            })
        });

        group.bench_with_input(
            BenchmarkId::new("cut_or_component-ctx", &name),
            &g,
            |b, g| {
                let mut ctx = CarveCtx::new();
                b.iter(|| {
                    let mut l = RoundLedger::new();
                    sparse_cut::cut_or_component_in(g, &alive, 0.5, &params, &mut l, &mut ctx)
                })
            },
        );

        group.bench_with_input(BenchmarkId::new("thm2.2-carve", &name), &g, |b, g| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                Theorem22Carver::new(params.clone()).carve_strong(g, &alive, 0.5, &mut l)
            })
        });

        group.bench_with_input(BenchmarkId::new("thm2.2-carve-ctx", &name), &g, |b, g| {
            let mut ctx = CarveCtx::new();
            b.iter(|| {
                let mut l = RoundLedger::new();
                Theorem22Carver::new(params.clone())
                    .carve_strong_in(g, &alive, 0.5, &mut l, &mut ctx)
            })
        });

        // The weak carver alone: full-graph GGR21 at the Theorem 2.1
        // inner boundary, the call that dominates a cold decompose.
        group.bench_with_input(BenchmarkId::new("ggr21-weak-ctx", &name), &g, |b, g| {
            let eps = params.inner_eps(0.5, g.n());
            let mut ctx = CarveCtx::new();
            b.iter(|| {
                let mut l = RoundLedger::new();
                Rg20::ggr21().carve_weak_in(g, &alive, eps, &mut l, &mut ctx)
            })
        });

        group.bench_with_input(BenchmarkId::new("thm2.3-decompose", &name), &g, |b, g| {
            b.iter(|| sdnd_core::decompose_strong(g, &params))
        });

        group.bench_with_input(
            BenchmarkId::new("thm2.3-decompose-ctx", &name),
            &g,
            |b, g| {
                let mut ctx = CarveCtx::new();
                b.iter(|| {
                    let mut l = RoundLedger::new();
                    sdnd_core::decompose_strong_with_in(g, &params, &mut l, &mut ctx)
                })
            },
        );

        // Theorem 3.4 on every graph, the largest grid included: the
        // cold decompose whose Lemma 3.1 phase sets the serve tail.
        group.bench_with_input(
            BenchmarkId::new("thm3.4-decompose-ctx", &name),
            &g,
            |b, g| {
                let mut ctx = CarveCtx::new();
                b.iter(|| {
                    let mut l = RoundLedger::new();
                    sdnd_core::decompose_strong_improved_with_in(g, &params, &mut l, &mut ctx)
                })
            },
        );

        // Theorem 3.3 multiplies the 2.2 cost by its recursion levels;
        // keep it off the largest grid so the suite stays re-runnable.
        if !big {
            group.bench_with_input(BenchmarkId::new("thm3.3-carve", &name), &g, |b, g| {
                b.iter(|| {
                    let mut l = RoundLedger::new();
                    Theorem33Carver::new(params.clone()).carve_strong(g, &alive, 0.5, &mut l)
                })
            });

            group.bench_with_input(BenchmarkId::new("thm3.3-carve-ctx", &name), &g, |b, g| {
                let mut ctx = CarveCtx::new();
                b.iter(|| {
                    let mut l = RoundLedger::new();
                    Theorem33Carver::new(params.clone())
                        .carve_strong_in(g, &alive, 0.5, &mut l, &mut ctx)
                })
            });
        }

        // Validators: exact strong+weak diameters over a fixed carving.
        if !big {
            let carving: BallCarving = {
                let mut l = RoundLedger::new();
                Theorem22Carver::new(params.clone()).carve_strong(&g, &alive, 0.5, &mut l)
            };
            group.bench_with_input(BenchmarkId::new("validate-carving", &name), &g, |b, g| {
                b.iter(|| validate_carving(g, &carving))
            });
            group.bench_with_input(
                BenchmarkId::new("validate-carving-ctx", &name),
                &g,
                |b, g| {
                    let mut ctx = CarveCtx::new();
                    b.iter(|| validate_carving_in(g, &carving, &mut ctx))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_carve);
criterion_main!(benches);
