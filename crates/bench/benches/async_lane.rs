//! Criterion benches for the async execution lane: the synchronous
//! engine vs the α-synchronizer lane (zero-fault, 1 and 2 workers) vs
//! lightly faulted runs on grid / expander / clique flood, plus leader
//! election on the two congest-sim graphs. `BENCH_async.json` at the
//! repo root pins the measured trajectory.
//!
//! The zero-fault rows measure the lane's own overhead, and every run
//! must still produce a bit-for-bit identical `RunOutcome`. A one-worker
//! run is the engine's sequential core with the seeded transport, on the
//! caller's thread; two workers spawn real threads and exchange acks and
//! safety notices over channels. The lane's acceptance bar is overhead
//! `<= 3x` the synchronous engine on the zero-fault grid/4096 row. The
//! faulted rows additionally pay per-send adversary hashing plus
//! retransmit bookkeeping: `faulted1` uses congest-sim's adversary (1%
//! drop, 1% duplicate, delay up to 2) on one worker, `faulted2` 1% drop
//! and 1% duplicate on two.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_congest::{primitives, run_async, Adversary, AsyncConfig, CostModel, Engine};
use sdnd_graph::{gen, Graph, NodeId};

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid", gen::grid(32, 32)),
        ("grid", gen::grid(64, 64)),
        (
            "expander",
            gen::random_regular_connected(1024, 4, 42).expect("expander generates"),
        ),
        ("clique", gen::complete(256)),
    ]
}

/// congest-sim's faulted lane: its adversary on one worker.
fn faulted1() -> AsyncConfig {
    let adversary = Adversary::new(1)
        .with_drop_rate(0.01)
        .with_duplicate_rate(0.01)
        .with_max_delay(2);
    AsyncConfig::new(adversary).with_workers(1)
}

fn bench_async_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("async-flood");
    for (family, g) in families() {
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = Engine::new(CostModel::congest_for(g.n()));
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-sync"), g.n()),
            &g,
            |b, _| b.iter(|| engine.run(&view, &kernel).expect("flood runs")),
        );
        for workers in [1usize, 2] {
            let cfg = AsyncConfig::default().with_workers(workers);
            group.bench_with_input(
                BenchmarkId::new(format!("{family}-async{workers}"), g.n()),
                &g,
                |b, _| b.iter(|| run_async(&engine, &view, &kernel, &cfg).expect("lane runs")),
            );
        }
        // Faulted rows: enough loss to exercise retransmits and the
        // dedup path, little enough that the flood still completes.
        let cfg = faulted1();
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-faulted1"), g.n()),
            &g,
            |b, _| b.iter(|| run_async(&engine, &view, &kernel, &cfg).expect("lane runs")),
        );
        let adversary = Adversary::new(7)
            .with_drop_rate(0.01)
            .with_duplicate_rate(0.01);
        let cfg = AsyncConfig::new(adversary).with_workers(2);
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-faulted2"), g.n()),
            &g,
            |b, _| b.iter(|| run_async(&engine, &view, &kernel, &cfg).expect("lane runs")),
        );
    }
    group.finish();
}

/// Leader election on congest-sim's two unweighted graphs (seed 1): the
/// grid one is that workload's slowest op on the async lanes.
fn bench_async_leader(c: &mut Criterion) {
    let mut group = c.benchmark_group("async-leader");
    let graphs = [
        ("grid", gen::grid(64, 64)),
        (
            "expander",
            gen::random_regular_connected(4096, 4, 1).expect("expander generates"),
        ),
    ];
    for (family, g) in graphs {
        let view = g.full_view();
        let kernel = primitives::LeaderKernel::new(&view);
        let engine = Engine::new(CostModel::congest_for(g.n()));
        let mut session = engine.session(&g);
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-sync-session"), g.n()),
            &g,
            |b, _| b.iter(|| session.run(&view, &kernel).expect("election runs")),
        );
        let cfg = AsyncConfig::default().with_workers(1);
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-async1"), g.n()),
            &g,
            |b, _| b.iter(|| run_async(&engine, &view, &kernel, &cfg).expect("lane runs")),
        );
        let cfg = faulted1();
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-faulted1"), g.n()),
            &g,
            |b, _| b.iter(|| run_async(&engine, &view, &kernel, &cfg).expect("lane runs")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_async_flood, bench_async_leader);
criterion_main!(benches);
