//! Criterion benches for the bit-parallel MS-BFS engine: batched
//! eccentricity sweeps and exact carving validation against their
//! per-source counterparts.
//!
//! The batched rows run 64 sources per shared adjacency pass
//! (`⌈n/64⌉` passes for an all-sources sweep); the `per-source` rows
//! run the same sweep one `bfs_in` at a time, which is exactly the
//! pre-batch cost. `validate-exact` reruns the exact validator rows
//! from `validate.rs` — those route the per-cluster diameter checks
//! through the MS-BFS automatically, so the row is the end-to-end
//! consumer-side win.
//!
//! Bins: grid (high-diameter, where levels are many and frontiers
//! thin), gnp (log diameter, wide frontiers), a random 4-regular
//! expander (log diameter, and the widest frontiers: the kernel runs
//! its middle levels bottom-up there), and torus (uniform locality —
//! the carving case MS-BFS is built for).
//! `SDND_N` gates the large bins as in the other suites;
//! `BENCH_msbfs.json` records the committed same-host A/B.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_bench::env_usize;
use sdnd_clustering::{validate_carving_in, BallCarving, CarveCtx, StrongCarver};
use sdnd_congest::RoundLedger;
use sdnd_core::{Params, Theorem22Carver};
use sdnd_graph::algo::{bfs_in, eccentricities_in, TraversalWorkspace};
use sdnd_graph::{gen, Adjacency, Graph, NodeId, NodeSet};

fn graphs() -> Vec<(String, Graph)> {
    let n_max = env_usize("SDND_N", 1024);
    let mut out = vec![
        ("grid-16x16".to_string(), gen::grid(16, 16)),
        ("grid-32x32".to_string(), gen::grid(32, 32)),
        (
            "gnp-1024".to_string(),
            gen::gnp_connected(1024, 6.0 / 1024.0, 7),
        ),
        ("torus-32x32".to_string(), gen::torus(32, 32)),
        (
            "expander-2000".to_string(),
            gen::random_regular_connected(2000, 4, 1).expect("4-regular on 2000 nodes"),
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

/// The pre-batch all-sources eccentricity sweep: one BFS per node.
fn eccentricities_per_source<A: Adjacency>(view: &A, ws: &mut TraversalWorkspace) -> u64 {
    let sources: Vec<NodeId> = view.nodes().collect();
    let mut acc = 0u64;
    for &s in &sources {
        if let Some(e) = bfs_in(ws, view, [s]).eccentricity() {
            acc += u64::from(e);
        }
    }
    acc
}

fn bench_msbfs(c: &mut Criterion) {
    let params = Params::default();
    let mut group = c.benchmark_group("msbfs");
    group.sample_size(10);

    for (name, g) in graphs() {
        let view = g.full_view();
        let sources: Vec<NodeId> = view.nodes().collect();

        group.bench_with_input(BenchmarkId::new("ecc-batched", &name), &g, |b, _| {
            let mut ws = TraversalWorkspace::new();
            b.iter(|| {
                eccentricities_in(&view, &sources, &mut ws)
                    .iter()
                    .flatten()
                    .map(|&e| u64::from(e))
                    .sum::<u64>()
            })
        });

        group.bench_with_input(BenchmarkId::new("ecc-per-source", &name), &g, |b, _| {
            let mut ws = TraversalWorkspace::new();
            b.iter(|| eccentricities_per_source(&view, &mut ws))
        });

        // End-to-end consumer row: the exact validator with the batched
        // diameter backend (same fixed carving recipe as validate.rs).
        let alive = NodeSet::full(g.n());
        let carving: BallCarving = {
            let mut l = RoundLedger::new();
            Theorem22Carver::new(params.clone()).carve_strong(&g, &alive, 0.5, &mut l)
        };
        group.bench_with_input(BenchmarkId::new("validate-exact", &name), &g, |b, g| {
            let mut ctx = CarveCtx::new();
            b.iter(|| validate_carving_in(g, &carving, &mut ctx))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_msbfs);
criterion_main!(benches);
