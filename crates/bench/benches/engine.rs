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
//! lane must cost what the sequential one does. Its sequential session
//! also runs congest-sim's other two kernels: a convergecast up the BFS
//! tree, and the SpBfs flood on a U[1,8]-weighted copy of each graph.
//! `engine-fork` times one scoped spawn and join, the price of a forked
//! round.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_congest::{primitives, CostModel, Engine, RoundLedger};
use sdnd_graph::gen::{self, WeightDist};
use sdnd_graph::{Graph, NodeId};

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

/// The BFS tree from node 0 of `g`, and the values `i % 9 + 1` that
/// the convergecast rows sum up it.
fn cast_inputs(g: &Graph) -> (Vec<Option<NodeId>>, Vec<u64>) {
    let mut l = RoundLedger::new();
    let bfs = primitives::bfs(&g.full_view(), [NodeId::new(0)], u32::MAX, &mut l);
    let values = (0..g.n() as u64).map(|i| i % 9 + 1).collect();
    (bfs.parents().to_vec(), values)
}

/// The convergecast of `values` up the tree `parents` to node 0.
fn convergecast<'a>(
    parents: &'a [Option<NodeId>],
    values: &'a [u64],
) -> primitives::ConvergeCastKernel<'a> {
    let bits = sdnd_congest::bits_for_value(values.iter().sum());
    primitives::ConvergeCastKernel::new(values.len(), NodeId::new(0), parents, values, bits)
}

fn bench_convergecast(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-convergecast");
    for (family, g) in [
        ("grid", gen::grid(32, 32)),
        ("clique", gen::complete(256)),
        ("clique", gen::complete(512)),
    ] {
        let view = g.full_view();
        let (parents, values) = cast_inputs(&g);
        let kernel = convergecast(&parents, &values);
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
        let engine = Engine::new(CostModel::congest_for(g.n()));
        let mut session = engine.session(&g);
        let (parents, values) = cast_inputs(&g);
        let cast = convergecast(&parents, &values);
        group.bench_with_input(
            BenchmarkId::new("convergecast-session", name),
            &g,
            |b, _| b.iter(|| session.run(&view, &cast).expect("cast runs")),
        );
        let weighted =
            gen::reweight(&g, WeightDist::UniformInt { lo: 1, hi: 8 }, 1).expect("valid weights");
        let view = weighted.full_view();
        let sp_bfs = primitives::SpBfsKernel::new(&view, [NodeId::new(0)], f64::INFINITY);
        let mut session = engine.session(&weighted);
        group.bench_with_input(
            BenchmarkId::new("sp-bfs-session", name),
            &weighted,
            |b, _| b.iter(|| session.run(&view, &sp_bfs).expect("flood runs")),
        );
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
