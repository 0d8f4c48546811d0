//! Criterion benches for the validation tier: the exact all-pairs
//! diameter validators against the HyperBall estimator tier over the
//! same carvings.
//!
//! The exact strong-diameter check is `O(Σ |C| · |C|)` BFS work by
//! definition — one sweep per member of every cluster. The approximate
//! tier replaces those sweeps with one synchronous HyperBall sweep per
//! cluster (`O(iterations · Σ |C| · 2^p)` register merges), keeping the
//! structural gates (non-adjacency, connectivity, dead fraction) exact.
//!
//! Sizes mirror `carve.rs`: grids at n = 256 and 1024 always; the
//! `scaling` bins (64x64 = 4096, 102x102 = 10404) join when `SDND_N`
//! allows. Two flat-diameter inputs of the benchmark's validate-flat
//! workload always run too: a U[1,8]-weighted geometric graph on 600
//! nodes (mean degree 20), whose weighted diameters take one Dijkstra
//! per iFUB source, and a 4-regular expander on 2000 nodes. `-ctx` rows
//! reuse one [`CarveCtx`] across iterations.
//!
//! The `validate-decomposition` rows validate the decompositions the
//! benchmark's carve-grid and validate-flat workloads validate, over one
//! warm context as they do: Theorem 2.3 on gnp-2000 (mean degree 8),
//! expander-2000 and geometric-5000 (mean degree 12), and Theorem 2.3
//! and 3.4 on grid-102x102 when `SDND_N` allows. An en16 decomposition
//! of geometric-5000 adds small clusters, whose validation views leave
//! out most neighbours of their members. `BENCH_validate.json`
//! records the committed exact-vs-approx baseline and the same-host A/B
//! rows of the exact tier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_bench::env_usize;
use sdnd_clustering::{
    validate_carving, validate_carving_approx, validate_carving_approx_in, validate_carving_in,
    validate_decomposition_in, BallCarving, CarveCtx, StrongCarver,
};
use sdnd_congest::RoundLedger;
use sdnd_core::{registry, Params, Theorem22Carver};
use sdnd_graph::algo::HyperBallParams;
use sdnd_graph::gen::WeightDist;
use sdnd_graph::{gen, Graph, NodeSet};

fn graphs() -> Vec<(String, Graph)> {
    let n_max = env_usize("SDND_N", 1024);
    let mut out = vec![
        ("grid-16x16".to_string(), gen::grid(16, 16)),
        ("grid-32x32".to_string(), gen::grid(32, 32)),
        (
            "gnp-1024".to_string(),
            gen::gnp_connected(1024, 6.0 / 1024.0, 7),
        ),
        ("geometric-w8-600".to_string(), {
            let radius = (20.0 / (std::f64::consts::PI * 600.0)).sqrt();
            let geo = gen::random_geometric(600, radius, 7).expect("valid geometric parameters");
            gen::reweight(&geo, WeightDist::UniformInt { lo: 1, hi: 8 }, 7).expect("valid weights")
        }),
        (
            "expander-2000".to_string(),
            gen::random_regular_connected(2000, 4, 7).expect("expander generates"),
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

fn bench_validate(c: &mut Criterion) {
    let params = Params::default();
    let hb = HyperBallParams::default();
    let mut group = c.benchmark_group("validate");
    group.sample_size(10);

    for (name, g) in graphs() {
        let alive = NodeSet::full(g.n());
        // One fixed carving per graph: every row validates the same input.
        let carving: BallCarving = {
            let mut l = RoundLedger::new();
            Theorem22Carver::new(params.clone()).carve_strong(&g, &alive, 0.5, &mut l)
        };

        group.bench_with_input(BenchmarkId::new("exact", &name), &g, |b, g| {
            b.iter(|| validate_carving(g, &carving))
        });

        group.bench_with_input(BenchmarkId::new("exact-ctx", &name), &g, |b, g| {
            let mut ctx = CarveCtx::new();
            b.iter(|| validate_carving_in(g, &carving, &mut ctx))
        });

        group.bench_with_input(BenchmarkId::new("approx", &name), &g, |b, g| {
            b.iter(|| validate_carving_approx(g, &carving, hb))
        });

        group.bench_with_input(BenchmarkId::new("approx-ctx", &name), &g, |b, g| {
            let mut ctx = CarveCtx::new();
            b.iter(|| validate_carving_approx_in(g, &carving, hb, &mut ctx))
        });
    }
    group.finish();
}

/// The workloads' validated decompositions: each graph with the
/// registry names that decompose it.
fn decompositions() -> Vec<(&'static str, Graph, Vec<&'static str>)> {
    let radius = (12.0 / (std::f64::consts::PI * 5000.0)).sqrt();
    let mut out = vec![
        (
            "gnp-2000",
            gen::gnp_connected(2000, 8.0 / 2000.0, 7),
            vec!["thm2.3"],
        ),
        (
            "expander-2000",
            gen::random_regular_connected(2000, 4, 7).expect("expander generates"),
            vec!["thm2.3"],
        ),
        // en16's clusters are small, so most neighbours of a validated
        // cluster lie outside its view: the sparse-view row.
        (
            "geometric-5000",
            gen::random_geometric(5000, radius, 7).expect("valid geometric parameters"),
            vec!["thm2.3", "en16"],
        ),
    ];
    if env_usize("SDND_N", 1024) >= 10404 {
        out.push((
            "grid-102x102",
            gen::grid(102, 102),
            vec!["thm2.3", "thm3.4"],
        ));
    }
    out
}

fn bench_validate_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("validate-decomposition");
    group.sample_size(10);

    for (name, g, algos) in decompositions() {
        for algo in algos {
            let entry = registry::find_decompose(algo).expect("registered name");
            let mut ctx = CarveCtx::new();
            let d = entry
                .decompose_in(0, &g, &mut RoundLedger::new(), &mut ctx)
                .expect("unarmed ctx never cancels");
            let id = BenchmarkId::new("exact-ctx", format!("{name}-{algo}"));
            group.bench_with_input(id, &g, |b, g| {
                b.iter(|| validate_decomposition_in(g, &d, &mut ctx).expect("unarmed ctx"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_validate, bench_validate_decomposition);
criterion_main!(benches);
