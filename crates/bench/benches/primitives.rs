//! Criterion micro-benches for the CONGEST simulator primitives: fast
//! path vs message-passing kernel, quantifying what the dual-level
//! design buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_congest::{primitives, CostModel, Engine, RoundLedger};
use sdnd_graph::algo::TraversalWorkspace;
use sdnd_graph::{gen, NodeId};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    for side in [16usize, 32] {
        let g = gen::grid(side, side);
        let n = g.n();
        let view = g.full_view();

        group.bench_with_input(BenchmarkId::new("bfs-fast", n), &g, |b, _| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                primitives::bfs(&view, [NodeId::new(0)], u32::MAX, &mut l)
            })
        });
        group.bench_with_input(BenchmarkId::new("bfs-kernel", n), &g, |b, _| {
            let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
            let engine = Engine::new(CostModel::congest_for(n));
            b.iter(|| engine.run(&view, &kernel).expect("kernel BFS runs"))
        });
        // The repeated-run form every pipeline should use: one session,
        // arenas amortized across iterations.
        let mut session = Engine::new(CostModel::congest_for(n)).session(&g);
        group.bench_with_input(BenchmarkId::new("bfs-kernel-session", n), &g, |b, _| {
            let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
            b.iter(|| session.run(&view, &kernel).expect("kernel BFS runs"))
        });
        group.bench_with_input(BenchmarkId::new("layer-census-fast", n), &g, |b, _| {
            let mut ws = TraversalWorkspace::new();
            b.iter(|| {
                let mut l = RoundLedger::new();
                primitives::layer_census_in(&view, NodeId::new(0), u32::MAX, &mut l, &mut ws)
                    .ball_size(u32::MAX)
            })
        });
        group.bench_with_input(BenchmarkId::new("leader-election", n), &g, |b, _| {
            b.iter(|| {
                let mut l = RoundLedger::new();
                primitives::elect_leader(&view, &mut l)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
