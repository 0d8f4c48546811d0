//! Deterministic-seed smoke tests.
//!
//! The experiment harness, the cross-validation suites, and the paper's
//! own claims (the CG21 algorithms are *deterministic*) all rely on
//! bit-identical reruns: the same seed must produce the same graph, and
//! the same graph must produce the same decomposition. These tests pin
//! that contract across the seeded generators, both deterministic
//! decomposition pipelines, and the seeded randomized baselines.

use proptest::prelude::*;
use sdnd::baselines::Mpx13;
use sdnd::congest::{primitives, Engine};
use sdnd::core::{decompose_strong, decompose_strong_improved, Params};
use sdnd::prelude::*;
use sdnd::weak::Ls93;
use sdnd_graph::gen;

/// A spread of graph families, all at CI-friendly sizes.
fn graph_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid-6x7", gen::grid(6, 7)),
        ("cycle-40", gen::cycle(40)),
        ("hypercube-5", gen::hypercube(5)),
        ("balanced-tree-3x3", gen::balanced_tree(3, 3)),
        ("caterpillar-6x3", gen::caterpillar(6, 3)),
        ("gnp-connected-48", gen::gnp_connected(48, 0.08, 11)),
        ("random-tree-40", gen::random_tree(40, 5)),
    ]
}

#[test]
fn seeded_generators_are_deterministic() {
    for seed in [0u64, 1, 42, u64::MAX] {
        assert_eq!(
            gen::gnp(32, 0.15, seed),
            gen::gnp(32, 0.15, seed),
            "gnp(seed={seed})"
        );
        assert_eq!(
            gen::gnp_connected(32, 0.1, seed),
            gen::gnp_connected(32, 0.1, seed),
            "gnp_connected(seed={seed})"
        );
        assert_eq!(
            gen::random_tree(33, seed),
            gen::random_tree(33, seed),
            "random_tree(seed={seed})"
        );
        let r1 = gen::random_regular(24, 3, seed).expect("3-regular on 24 nodes exists");
        let r2 = gen::random_regular(24, 3, seed).expect("3-regular on 24 nodes exists");
        assert_eq!(r1, r2, "random_regular(seed={seed})");
    }
}

#[test]
fn seeded_generators_vary_with_the_seed() {
    // Not a correctness requirement per se, but if every seed collapsed
    // to one output the determinism tests above would be vacuous.
    assert_ne!(gen::gnp(32, 0.15, 1), gen::gnp(32, 0.15, 2));
    assert_ne!(gen::random_tree(33, 1), gen::random_tree(33, 2));
}

#[test]
fn decompose_strong_is_deterministic_across_families() {
    let params = Params::default();
    for (name, g) in graph_families() {
        let (d1, l1) = decompose_strong(&g, &params);
        let (d2, l2) = decompose_strong(&g, &params);
        assert_eq!(d1, d2, "decomposition differs across reruns on {name}");
        assert_eq!(l1, l2, "round ledger differs across reruns on {name}");
    }
}

#[test]
fn decompose_strong_improved_is_deterministic_across_families() {
    let params = Params::default();
    for (name, g) in graph_families() {
        let (d1, l1) = decompose_strong_improved(&g, &params);
        let (d2, l2) = decompose_strong_improved(&g, &params);
        assert_eq!(d1, d2, "decomposition differs across reruns on {name}");
        assert_eq!(l1, l2, "round ledger differs across reruns on {name}");
    }
}

#[test]
fn seeded_randomized_baselines_are_deterministic() {
    for (name, g) in graph_families() {
        let alive = NodeSet::full(g.n());
        for seed in [0u64, 7, 1234] {
            let mut l1 = RoundLedger::new();
            let mut l2 = RoundLedger::new();
            let c1 = StrongCarver::carve_strong(&Mpx13::new(seed), &g, &alive, 0.5, &mut l1);
            let c2 = StrongCarver::carve_strong(&Mpx13::new(seed), &g, &alive, 0.5, &mut l2);
            assert_eq!(c1, c2, "Mpx13(seed={seed}) differs on {name}");
            assert_eq!(l1, l2, "Mpx13(seed={seed}) ledger differs on {name}");

            let mut l1 = RoundLedger::new();
            let mut l2 = RoundLedger::new();
            let w1 = WeakCarver::carve_weak(&Ls93::new(seed), &g, &alive, 0.5, &mut l1);
            let w2 = WeakCarver::carve_weak(&Ls93::new(seed), &g, &alive, 0.5, &mut l2);
            assert_eq!(w1, w2, "Ls93(seed={seed}) differs on {name}");
            assert_eq!(l1, l2, "Ls93(seed={seed}) ledger differs on {name}");
        }
    }
}

/// Asserts that the engine's parallel stepping lane, at each thread
/// count of `threads`, reproduces the sequential lane bit for bit:
/// states, round count, and ledger.
fn assert_lanes_agree<A, P>(view: &A, protocol: &P, threads: &[usize], label: &str)
where
    A: Adjacency,
    P: sdnd::congest::Protocol + Sync,
    P::State: Send + PartialEq + std::fmt::Debug,
    P::Msg: Send + Sync,
{
    let cost = CostModel::congest_for(view.universe());
    let seq = Engine::new(cost)
        .run(view, protocol)
        .expect("sequential lane runs");
    for &t in threads {
        let par = Engine::new(cost)
            .with_threads(t)
            .run(view, protocol)
            .expect("parallel lane runs");
        assert_eq!(seq.rounds, par.rounds, "{label} x{t}: rounds");
        assert_eq!(seq.ledger, par.ledger, "{label} x{t}: ledger");
        assert_eq!(seq.states, par.states, "{label} x{t}: states");
    }
}

/// The engine's shipped fork threshold: a round forks when the nodes it
/// steps times `⌈2m/n⌉` reach it.
const FORK_WORK: usize = 32_768;

/// A dense random subset view of `g` on which the threaded lanes fork:
/// asserts that its init round, which steps every alive node, reaches
/// [`FORK_WORK`].
fn forking_subset(g: &Graph, keep: f64, seed: u64) -> NodeSet {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let alive = NodeSet::from_nodes(g.n(), g.nodes().filter(|_| rng.gen_bool(keep)));
    let per_node = g.directed_edges().div_ceil(g.n());
    assert!(
        alive.len() * per_node >= FORK_WORK,
        "{} alive x {per_node} stays below the fork threshold",
        alive.len()
    );
    alive
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine determinism property: on dense random graphs under
    /// random subset views, where the threaded lanes fork their heavy
    /// rounds, sequential and parallel engine executions produce
    /// bit-identical `RunOutcome`s.
    #[test]
    fn engine_lanes_are_bit_identical(
        n in 250usize..280,
        p in 0.8f64..0.9,
        seed in 0u64..1_000_000,
        keep in 0.8f64..=1.0,
        src in 0usize..280,
        threads in 2usize..9,
    ) {
        let g = gen::gnp_connected(n, p, seed);
        let alive = forking_subset(&g, keep, seed);
        let view = g.view(&alive);
        let src = alive.iter().nth(src % alive.len()).expect("nonempty");

        let bfs = primitives::BfsKernel::new(&view, [src], u32::MAX);
        assert_lanes_agree(&view, &bfs, &[threads], "bfs kernel");

        let leader = primitives::LeaderKernel::new(&view);
        assert_lanes_agree(&view, &leader, &[threads], "leader kernel");
    }
}

/// Runs `kernel` on a fresh engine and on `session`, asserting the
/// outcomes are bit-identical (states, rounds, ledger).
fn assert_session_matches_fresh<A, P>(
    session: &mut sdnd::congest::EngineSession<'_>,
    view: &A,
    kernel: &P,
    label: &str,
) where
    A: Adjacency,
    P: sdnd::congest::Protocol + Sync,
    P::State: Send + PartialEq + std::fmt::Debug,
    P::Msg: Send + Sync + 'static,
{
    let fresh = session
        .engine()
        .run(view, kernel)
        .expect("fresh engine runs");
    let sess = session.run(view, kernel).expect("session runs");
    assert_eq!(fresh.rounds, sess.rounds, "{label}: rounds");
    assert_eq!(fresh.ledger, sess.ledger, "{label}: ledger");
    assert_eq!(fresh.states, sess.states, "{label}: states");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The session determinism property (ISSUE 3): N back-to-back runs on
    /// one session — mixed protocols (distinct message types), mixed
    /// subset views, both stepping lanes — are bit-identical to N runs on
    /// fresh engines, i.e. arena reuse leaks no state between runs.
    #[test]
    fn session_runs_are_bit_identical_to_fresh_engines(
        n in 4usize..36,
        raw_edges in prop::collection::vec((0usize..36, 0usize..36), 0..110),
        view_seeds in prop::collection::vec(0u64..1_000, 2..6),
        threads in 1usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .filter(|&(u, v)| u != v)
            .collect();
        let g = Graph::from_edges(n, edges).expect("valid edges");
        let engine = sdnd::congest::Engine::new(CostModel::congest_for(n)).with_threads(threads);
        let mut session = engine.session(&g);

        for (k, &seed) in view_seeds.iter().enumerate() {
            // A different random subset view per run.
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let alive = NodeSet::from_nodes(n, g.nodes().filter(|_| rng.gen_bool(0.8)));
            if alive.is_empty() {
                continue;
            }
            let view = g.view(&alive);
            let src = alive.iter().next().expect("nonempty");
            // Alternate protocols so arenas of different message types
            // interleave on the same session.
            if k % 2 == 0 {
                let kernel = primitives::BfsKernel::new(&view, [src], u32::MAX);
                assert_session_matches_fresh(&mut session, &view, &kernel, "bfs run");
            } else {
                let kernel = primitives::LeaderKernel::new(&view);
                assert_session_matches_fresh(&mut session, &view, &kernel, "leader run");
            }
            // Every other pass, also hit the full view: mixed views on
            // one session within a single property case.
            if k % 2 == 1 {
                let full = g.full_view();
                let kernel = primitives::BfsKernel::new(&full, [NodeId::new(0)], u32::MAX);
                assert_session_matches_fresh(&mut session, &full, &kernel, "full-view bfs");
            }
        }
    }
}

#[test]
fn engine_lanes_agree_across_seeds_and_views() {
    // The fixed-seed counterpart of the property above: three seeded
    // dense random graphs whose threaded runs fork, full and subset
    // views, several lane widths.
    for seed in [1u64, 7, 1234] {
        let g = gen::gnp_connected(260, 0.8, seed);
        let alive = forking_subset(&g, 0.85, seed);
        let threads = [2usize, 3, 16];
        let view = g.full_view();
        let bfs = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        assert_lanes_agree(&view, &bfs, &threads, "full view bfs");
        let leader = primitives::LeaderKernel::new(&view);
        assert_lanes_agree(&view, &leader, &threads, "full view leader");

        let sub = g.view(&alive);
        let src = alive.iter().next().expect("nonempty");
        let bfs = primitives::BfsKernel::new(&sub, [src], u32::MAX);
        assert_lanes_agree(&sub, &bfs, &threads, "subset view bfs");
        let leader = primitives::LeaderKernel::new(&sub);
        assert_lanes_agree(&sub, &leader, &threads, "subset view leader");
    }
}

#[test]
fn dense_runs_that_fork_some_rounds_match_the_sequential_lane() {
    // Inputs dense enough to reach the engine's fork threshold (nodes
    // stepped × ⌈2m/n⌉ ≥ 32,768). On gnp(300, 0.5) and gnp(280, 0.6) a
    // BFS flood forks its init round and the rounds that step every node,
    // but runs round 1 (the source's neighbors only) inline; the clique
    // forks every round. On two 150-cliques joined by one edge, a
    // two-thread fork puts one clique in each shard, so each shard's
    // receivers are its own.
    let clique =
        |base: usize| (0..150).flat_map(move |u| (u + 1..150).map(move |v| (base + u, base + v)));
    let two_cliques = clique(0).chain(clique(150)).chain([(149, 150)]);
    let graphs = [
        ("complete-256", gen::complete(256)),
        ("gnp-300-0.5", gen::gnp_connected(300, 0.5, 3)),
        ("gnp-280-0.6", gen::gnp_connected(280, 0.6, 8)),
        (
            "two-cliques-300",
            Graph::from_edges(300, two_cliques).expect("valid edges"),
        ),
    ];
    for (name, g) in &graphs {
        let view = g.full_view();
        let bfs = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let leader = primitives::LeaderKernel::new(&view);
        assert_lanes_agree(&view, &bfs, &[2, 3, 4], &format!("{name} bfs"));
        assert_lanes_agree(&view, &leader, &[2, 3, 4], &format!("{name} leader"));
    }

    // One three-thread session interleaving message types and views.
    let (_, g) = &graphs[1];
    let alive = NodeSet::from_nodes(g.n(), g.nodes().filter(|v| v.index() % 9 != 4));
    let (full, sub) = (g.full_view(), g.view(&alive));
    let engine = Engine::new(CostModel::congest_for(g.n())).with_threads(3);
    let mut session = engine.session(g);
    for src in [0, 1].map(NodeId::new) {
        let bfs = primitives::BfsKernel::new(&full, [src], u32::MAX);
        assert_session_matches_fresh(&mut session, &full, &bfs, "session bfs");
        let leader = primitives::LeaderKernel::new(&sub);
        assert_lanes_agree(&sub, &leader, &[3], "subset leader");
        assert_session_matches_fresh(&mut session, &sub, &leader, "session subset leader");
        let bfs = primitives::BfsKernel::new(&sub, [src], u32::MAX);
        assert_lanes_agree(&sub, &bfs, &[3], "subset bfs");
        assert_session_matches_fresh(&mut session, &sub, &bfs, "session subset bfs");
    }
}

#[test]
fn decompositions_survive_a_serde_round_trip() {
    // Determinism extends to persistence: a decomposition written to JSON
    // and read back must be the same decomposition.
    let g = gen::gnp_connected(40, 0.1, 3);
    let (d, _) = decompose_strong(&g, &Params::default());
    let json = serde_json::to_string(&d).expect("serializable");
    let back: NetworkDecomposition = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, d);
}
