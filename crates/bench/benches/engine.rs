//! Criterion benches for the message-passing engine itself: flood
//! (BFS kernel) and convergecast on grid/expander/clique families, the
//! parallel stepping lane, and — since the session API — every case in
//! both one-shot (`Engine::run`, pays the `O(m)` arena setup per run)
//! and session (`EngineSession::run`, arenas amortized across runs)
//! form. `BENCH_engine.json` at the repo root pins the measured
//! trajectory; the shim prints mean/median/min/max, and the JSON records
//! mean and min per row.
//!
//! The flood cases are traffic-heavy (every node broadcasts once), where
//! setup is a small fraction of the work; the clique convergecast is the
//! deliberate worst case for one-shot runs (traffic `O(n)` on `O(n^2)`
//! edges) and therefore the case the session API exists for.
//!
//! `engine-congest` runs congest-sim's shapes (grid-64x64 and a 4-regular
//! expander-4096, BFS flood and leader election) on a sequential and a
//! two-thread session: rounds too light to fork, where the two-thread
//! lane must cost what the sequential one does. `engine-fork` times one
//! scoped spawn and join, the price of a forked round.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_congest::{primitives, CostModel, Engine, RoundLedger};
use sdnd_graph::{gen, Graph, NodeId};

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid", gen::grid(16, 16)),
        ("grid", gen::grid(32, 32)),
        (
            "expander",
            gen::random_regular_connected(256, 4, 42).expect("expander generates"),
        ),
        (
            "expander",
            gen::random_regular_connected(1024, 4, 42).expect("expander generates"),
        ),
        ("clique", gen::complete(128)),
        ("clique", gen::complete(256)),
        ("clique", gen::complete(512)),
        ("clique", gen::complete(1024)),
    ]
}

fn bench_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-flood");
    for (family, g) in families() {
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = Engine::new(CostModel::congest_for(g.n()));
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-seq"), g.n()),
            &g,
            |b, _| b.iter(|| engine.run(&view, &kernel).expect("flood runs")),
        );
        let mut session = engine.session(&g);
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-session"), g.n()),
            &g,
            |b, _| b.iter(|| session.run(&view, &kernel).expect("flood runs")),
        );
    }
    // Threads on the densest cases: bit-identical outcome, heavy rounds
    // forked over scoped helpers (speedup requires actual cores;
    // BENCH_engine.json compares these rows with the matching
    // `clique-session` rows above).
    for (n, threads) in [(256usize, 2usize), (256, 4), (512, 2), (1024, 2)] {
        let g = gen::complete(n);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = Engine::new(CostModel::congest_for(g.n())).with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new(format!("clique-par{threads}"), g.n()),
            &g,
            |b, _| b.iter(|| engine.run(&view, &kernel).expect("flood runs")),
        );
        let mut session = engine.session(&g);
        group.bench_with_input(
            BenchmarkId::new(format!("clique-par{threads}-session"), g.n()),
            &g,
            |b, _| b.iter(|| session.run(&view, &kernel).expect("flood runs")),
        );
    }
    group.finish();
}

fn bench_convergecast(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-convergecast");
    for (family, g) in [
        ("grid", gen::grid(32, 32)),
        ("clique", gen::complete(256)),
        ("clique", gen::complete(512)),
    ] {
        let view = g.full_view();
        let mut l = RoundLedger::new();
        let bfs = primitives::bfs(&view, [NodeId::new(0)], u32::MAX, &mut l);
        let values: Vec<u64> = (0..g.n() as u64).map(|i| i % 9 + 1).collect();
        let kernel = primitives::ConvergeCastKernel::new(
            g.n(),
            NodeId::new(0),
            bfs.parents(),
            &values,
            sdnd_congest::bits_for_value(values.iter().sum()),
        );
        let engine = Engine::new(CostModel::congest_for(g.n()));
        group.bench_with_input(BenchmarkId::new(family, g.n()), &g, |b, _| {
            b.iter(|| engine.run(&view, &kernel).expect("cast runs"))
        });
        // The session rows are the ISSUE-3 acceptance metric: amortized
        // per-run time proportional to traffic (O(n)), not edges (O(n²)).
        let mut session = engine.session(&g);
        group.bench_with_input(
            BenchmarkId::new(format!("{family}-session"), g.n()),
            &g,
            |b, _| b.iter(|| session.run(&view, &kernel).expect("cast runs")),
        );
    }
    group.finish();
}

fn bench_congest_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-congest");
    for (name, g) in [
        ("grid-64x64", gen::grid(64, 64)),
        (
            "expander-4096",
            gen::random_regular_connected(4096, 4, 1).expect("expander generates"),
        ),
    ] {
        let view = g.full_view();
        let bfs = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let leader = primitives::LeaderKernel::new(&view);
        for (lane, threads) in [("session", 1), ("par2-session", 2)] {
            let engine = Engine::new(CostModel::congest_for(g.n())).with_threads(threads);
            let mut session = engine.session(&g);
            group.bench_with_input(BenchmarkId::new(format!("bfs-{lane}"), name), &g, |b, _| {
                b.iter(|| session.run(&view, &bfs).expect("flood runs"))
            });
            group.bench_with_input(
                BenchmarkId::new(format!("leader-{lane}"), name),
                &g,
                |b, _| b.iter(|| session.run(&view, &leader).expect("election runs")),
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("engine-fork");
    group.bench_function("scope-spawn-join", |b| {
        b.iter(|| std::thread::scope(|s| s.spawn(|| black_box(1)).join().expect("joins")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flood,
    bench_convergecast,
    bench_congest_shapes
);
criterion_main!(benches);
