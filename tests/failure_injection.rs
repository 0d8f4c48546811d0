//! Failure-injection tests: the validators must *detect* corrupted
//! outputs, not just accept correct ones. Each test takes a valid
//! artifact, breaks one invariant deliberately, and asserts the checker
//! flags it.

use sdnd::core::Params;
use sdnd::prelude::*;
use sdnd_clustering::{
    validate_carving, validate_decomposition, validate_edge_carving, validate_weak_carving,
    BallCarving, EdgeCarving, NetworkDecomposition, SteinerForest, SteinerTree, WeakCarving,
};
use sdnd_graph::gen;

#[test]
fn carving_validator_catches_adjacent_clusters() {
    let g = gen::path(6);
    // Valid: {0,1,2} | dead 3 | {4,5}. Corrupt: move 3 into the first
    // cluster, making clusters {0..3} and {4,5} adjacent.
    let bad = BallCarving::new(
        NodeSet::full(6),
        vec![
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3),
            ],
            vec![NodeId::new(4), NodeId::new(5)],
        ],
    )
    .unwrap();
    let report = validate_carving(&g, &bad);
    assert!(!report.clusters_nonadjacent);
    assert!(!report.is_valid_strong(1.0));
    assert!(report
        .violations
        .iter()
        .any(|v| v.contains("joins clusters")));
}

#[test]
fn carving_validator_catches_dead_budget() {
    let g = gen::path(10);
    // Only 2 of 10 nodes clustered: dead fraction 0.8 > eps 0.5.
    let c = BallCarving::new(
        NodeSet::full(10),
        vec![vec![NodeId::new(0), NodeId::new(1)]],
    )
    .unwrap();
    let report = validate_carving(&g, &c);
    assert!(report.clusters_nonadjacent, "structurally fine");
    assert!(!report.is_valid_strong(0.5), "but over the eps budget");
    assert!(report.is_valid_strong(0.9));
}

#[test]
fn weak_validator_catches_stolen_terminal() {
    let g = gen::path(4);
    // Cluster {0, 1} but the tree only contains node 0.
    let carving =
        BallCarving::new(NodeSet::full(4), vec![vec![NodeId::new(0), NodeId::new(1)]]).unwrap();
    let forest = SteinerForest::from_trees(vec![SteinerTree::singleton(NodeId::new(0))]);
    let wc = WeakCarving::new(carving, forest).unwrap();
    let report = validate_weak_carving(&g, &wc);
    assert!(!report.terminals_covered);
    assert!(!report.satisfies_contract(1.0, 100, 100));
}

#[test]
fn weak_validator_catches_phantom_edge_and_cycles() {
    let g = gen::path(4);
    let carving = BallCarving::new(NodeSet::full(4), vec![vec![NodeId::new(0)]]).unwrap();
    // (a) a tree edge that does not exist in G.
    let phantom = SteinerForest::from_trees(vec![SteinerTree::from_parents(
        NodeId::new(0),
        vec![(NodeId::new(2), NodeId::new(0))],
    )]);
    let wc = WeakCarving::new(carving.clone(), phantom).unwrap();
    assert!(!validate_weak_carving(&g, &wc).trees_well_formed);

    // (b) cyclic parent pointers.
    let cyclic = SteinerForest::from_trees(vec![SteinerTree::from_parents(
        NodeId::new(0),
        vec![
            (NodeId::new(1), NodeId::new(2)),
            (NodeId::new(2), NodeId::new(1)),
        ],
    )]);
    let wc = WeakCarving::new(carving, cyclic).unwrap();
    let report = validate_weak_carving(&g, &wc);
    assert!(!report.trees_well_formed);
    assert!(report.max_depth.is_none());
}

#[test]
fn decomposition_validator_catches_color_collision() {
    let g = gen::path(4);
    let bad = NetworkDecomposition::new(
        &NodeSet::full(4),
        vec![
            (vec![NodeId::new(0), NodeId::new(1)], 0),
            (vec![NodeId::new(2), NodeId::new(3)], 0), // same color, adjacent
        ],
    )
    .unwrap();
    let report = validate_decomposition(&g, &bad);
    assert!(!report.colors_separate);
    assert!(!report.is_valid());
}

#[test]
fn decomposition_validator_catches_disconnected_cluster() {
    let g = gen::path(5);
    let bad = NetworkDecomposition::new(
        &NodeSet::full(5),
        vec![
            (vec![NodeId::new(0), NodeId::new(2)], 0), // skips node 1
            (vec![NodeId::new(1)], 1),
            (vec![NodeId::new(3), NodeId::new(4)], 2),
        ],
    )
    .unwrap();
    let report = validate_decomposition(&g, &bad);
    assert!(!report.clusters_connected);
    assert!(report.max_strong_diameter.is_none());
    assert!(report.is_valid_weak(), "weak contract tolerates it");
    assert!(!report.is_valid(), "strong contract does not");
}

#[test]
fn edge_validator_catches_uncut_boundary() {
    let g = gen::cycle(6);
    // Two arcs but only one of the two separating edges cut.
    let bad = EdgeCarving::new(
        NodeSet::full(6),
        vec![
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)],
        ],
        vec![(NodeId::new(2), NodeId::new(3))], // missing (5, 0)
    )
    .unwrap();
    let report = validate_edge_carving(&g, &bad);
    assert!(!report.separation_ok);
    assert!(report.violations.iter().any(|v| v.contains("uncut edge")));
}

#[test]
fn edge_validator_counts_cut_budget() {
    let g = gen::cycle(8);
    // Cut every other edge: fraction 0.5.
    let cut: Vec<(NodeId, NodeId)> = (0..8)
        .step_by(2)
        .map(|i| (NodeId::new(i), NodeId::new((i + 1) % 8)))
        .collect();
    let clusters: Vec<Vec<NodeId>> = (0..8)
        .step_by(2)
        .map(|i| vec![NodeId::new((i + 1) % 8), NodeId::new((i + 2) % 8)])
        .collect();
    let ec = EdgeCarving::new(NodeSet::full(8), clusters, cut).unwrap();
    let report = validate_edge_carving(&g, &ec);
    assert!(report.separation_ok, "{:?}", report.violations);
    assert!((report.cut_fraction - 0.5).abs() < 1e-9);
    assert!(report.is_valid(0.5));
    assert!(!report.is_valid(0.4));
}

#[test]
fn construction_rejects_malformed_inputs_outright() {
    // The types themselves refuse overlaps/coverage gaps, so a corrupted
    // pipeline cannot even produce an object to validate.
    let overlap = BallCarving::new(
        NodeSet::full(3),
        vec![vec![NodeId::new(0), NodeId::new(1)], vec![NodeId::new(1)]],
    );
    assert!(overlap.is_err());

    let gap = NetworkDecomposition::new(&NodeSet::full(3), vec![(vec![NodeId::new(0)], 0)]);
    assert!(gap.is_err());

    let uncovered_edge_carving =
        EdgeCarving::new(NodeSet::full(2), vec![vec![NodeId::new(0)]], vec![]);
    assert!(uncovered_edge_carving.is_err());
}

#[test]
fn end_to_end_outputs_survive_reinjection() {
    // Sanity: real outputs pass the same checkers the corrupted ones
    // fail (guards against over-strict validators).
    let g = gen::grid(6, 6);
    let (d, _) = sdnd::core::decompose_strong(&g, &Params::default());
    assert!(validate_decomposition(&g, &d).is_valid());
}

// ===== Transport-fault injection (async lane) =====
//
// The α-synchronizer lane has a two-sided contract. Zero-fault runs are
// *bit-for-bit identical* to the synchronous engine — pinned here by
// property tests across all four kernels, subset views, and weighted
// metrics. Faulted runs (drops, duplicates, delays, crashes) either
// produce an outcome the validators accept, or fail with a structured
// diagnostic — never a panic, never a hang (the pulse/wall-clock
// watchdog turns hangs into typed errors).

use proptest::prelude::*;
use sdnd::congest::{
    bits_for_value, primitives, run_async, Adversary, AsyncConfig, Engine, FaultReport, Protocol,
};
use sdnd::core::decompose_under_faults;
use sdnd_graph::gen::WeightDist;

fn arb_fault_graph() -> impl Strategy<Value = Graph> {
    // The vendored proptest shim has no `prop_oneof!`; pick the family
    // by index and derive sizes from the shared seed instead.
    (0usize..4, 0u64..1_000_000, 3usize..8, 3usize..8).prop_map(|(kind, seed, r, c)| match kind {
        0 => gen::grid(r, c),
        1 => gen::cycle(8 + (seed as usize) % 32),
        2 => gen::gnp_connected(12 + (seed as usize) % 28, 0.12, seed),
        _ => gen::random_tree(10 + (seed as usize) % 22, seed),
    })
}

/// Runs `kernel` on both lanes and asserts bit-identity (states, rounds,
/// ledger) plus a clean transport report.
fn assert_bit_identity<A, P>(
    g: &Graph,
    view: &A,
    kernel: &P,
    workers: usize,
) -> Result<(), TestCaseError>
where
    A: Adjacency,
    P: Protocol + Sync,
    P::State: Send + PartialEq + std::fmt::Debug,
    P::Msg: Send + Sync,
{
    let engine = Engine::new(CostModel::congest_for(g.n()));
    let sync = engine.run(view, kernel).expect("sync run succeeds");
    let cfg = AsyncConfig::default().with_workers(workers);
    let lane = run_async(&engine, view, kernel, &cfg).expect("zero-fault async run succeeds");
    prop_assert_eq!(lane.outcome.rounds, sync.rounds, "rounds");
    prop_assert_eq!(lane.outcome.ledger, sync.ledger, "ledger");
    prop_assert_eq!(lane.outcome.states, sync.states, "states");
    prop_assert!(lane.report.is_clean(), "zero-fault report must be clean");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zero-fault async ≡ synchronous engine, bit for bit, on all four
    /// kernels (BFS, weighted SpBfs, leader election, convergecast) over
    /// full views, for any worker count.
    #[test]
    fn zero_fault_async_is_bit_identical_on_every_kernel(
        g in arb_fault_graph(),
        workers in 1usize..6,
        src in 0usize..64,
        wseed in 0u64..1000,
    ) {
        let view = g.full_view();
        let src = NodeId::new(src % g.n());

        let bfs_kernel = primitives::BfsKernel::new(&view, [src], u32::MAX);
        assert_bit_identity(&g, &view, &bfs_kernel, workers)?;

        let leader = primitives::LeaderKernel::new(&view);
        assert_bit_identity(&g, &view, &leader, workers)?;

        // Convergecast over the BFS tree, summing node ids.
        let mut ledger = RoundLedger::new();
        let bfs = primitives::bfs(&view, [src], u32::MAX, &mut ledger);
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let bits = bits_for_value(g.n() as u64 * g.n() as u64);
        let cast = primitives::ConvergeCastKernel::new(g.n(), src, bfs.parents(), &values, bits);
        assert_bit_identity(&g, &view, &cast, workers)?;

        // Weighted SpBfs on the reweighted graph.
        let wg = gen::reweight(&g, WeightDist::Uniform { lo: 0.5, hi: 4.0 }, wseed)
            .expect("valid weights");
        let wview = wg.full_view();
        let sp = primitives::SpBfsKernel::new(&wview, [src], f64::INFINITY);
        assert_bit_identity(&wg, &wview, &sp, workers)?;
    }

    /// Bit-identity also holds on subset views (dead nodes excluded from
    /// both lanes identically).
    #[test]
    fn zero_fault_async_is_bit_identical_on_subset_views(
        g in arb_fault_graph(),
        workers in 1usize..5,
        mask_seed in 0u64..256,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mask_seed);
        let alive = NodeSet::from_nodes(g.n(), g.nodes().filter(|_| rng.gen_bool(0.8)));
        prop_assume!(!alive.is_empty());
        let view = g.view(&alive);
        let src = alive.iter().next().expect("nonempty");
        let kernel = primitives::BfsKernel::new(&view, [src], u32::MAX);
        assert_bit_identity(&g, &view, &kernel, workers)?;
    }
}

proptest! {
    // The acceptance bar for the fault model: across 256+ seeded
    // adversary schedules (drop rates up to 5%, duplicates, delays, at
    // least one crash), every end-to-end run either validates or returns
    // a structured diagnostic. Panics and hangs fail the suite outright
    // (proptest propagates panics; the watchdog bounds runtime).
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn faulted_runs_validate_or_diagnose_cleanly(
        g in arb_fault_graph(),
        workers in 1usize..5,
        fault_seed in 0u64..u64::MAX,
        drop_pm in 0u32..=50,     // per-mille drop rate: 0..=5%
        dup_pm in 0u32..=50,
        delay in 0u64..3,
        crashes in 1u32..4,       // at least one crash fault per case
        band in 1u32..4,
    ) {
        let adversary = Adversary::new(fault_seed)
            .with_drop_rate(drop_pm as f64 / 1000.0)
            .with_duplicate_rate(dup_pm as f64 / 1000.0)
            .with_max_delay(delay)
            .with_crashes(crashes);
        let cfg = AsyncConfig::new(adversary).with_workers(workers);
        match decompose_under_faults(&g, band, &cfg) {
            Ok(d) => {
                // Accepted outcomes really are valid decompositions.
                prop_assert!(d.report.is_valid());
                prop_assert!(validate_decomposition(&g, &d.decomposition).is_valid());
                let covered: usize = d.decomposition.clusters().iter().map(Vec::len).sum();
                prop_assert_eq!(covered, g.n() - d.crashed.len());
            }
            Err(diag) => {
                // Structured diagnostic: a reason and the transport
                // accounting, suitable for a nonzero CLI exit.
                prop_assert!(!diag.reason.is_empty());
                prop_assert!(!diag.to_string().is_empty());
            }
        }
    }

    /// Faulted outcomes are a pure function of the seed: same schedule →
    /// same result, across worker counts.
    #[test]
    fn faulted_runs_are_reproducible(
        g in arb_fault_graph(),
        fault_seed in 0u64..u64::MAX,
    ) {
        let adversary = Adversary::new(fault_seed)
            .with_drop_rate(0.03)
            .with_duplicate_rate(0.03)
            .with_crashes(1);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = Engine::new(CostModel::congest_for(g.n()));
        let run = |workers: usize| {
            run_async(&engine, &view, &kernel, &AsyncConfig::new(adversary.clone()).with_workers(workers))
                .expect("bounded drop rates cannot stall the lane")
        };
        let a = run(1);
        let b = run(1);
        let c = run(3);
        prop_assert_eq!(&a.outcome.states, &b.outcome.states, "same seed, same worker count");
        prop_assert_eq!(a.report.class_rows(), b.report.class_rows());
        prop_assert_eq!(&a.outcome.states, &c.outcome.states, "same seed, different worker count");
        prop_assert_eq!(a.report.class_rows(), c.report.class_rows());
    }
}

/// Runs `kernel` under `cfg` on one worker shard (inline, through the
/// engine's sequential core) and on three (the gated α-synchronizer), and
/// asserts the two agree: states, rounds, ledger, fault-class rows and
/// crash events on completion, or the same error and class rows on a
/// budget trip. Crash events are compared in (pulse, node) order — the
/// report lists them per shard.
fn assert_shard_count_independent<A, P>(
    g: &Graph,
    view: &A,
    kernel: &P,
    cfg: &AsyncConfig,
) -> Result<(), TestCaseError>
where
    A: Adjacency,
    P: Protocol + Sync,
    P::State: Send + PartialEq + std::fmt::Debug,
    P::Msg: Send + Sync,
{
    let engine = Engine::new(CostModel::congest_for(g.n()));
    let run = |workers| run_async(&engine, view, kernel, &cfg.clone().with_workers(workers));
    let crashes = |r: &FaultReport| {
        let mut events = r.crashed.clone();
        events.sort_by_key(|c| (c.pulse, c.node));
        events
    };
    match (run(1), run(3)) {
        (Ok(one), Ok(three)) => {
            prop_assert_eq!(&one.outcome.states, &three.outcome.states, "states");
            prop_assert_eq!(one.outcome.rounds, three.outcome.rounds, "rounds");
            prop_assert_eq!(&one.outcome.ledger, &three.outcome.ledger, "ledger");
            prop_assert_eq!(one.report.class_rows(), three.report.class_rows());
            prop_assert_eq!(crashes(&one.report), crashes(&three.report));
        }
        (Err(one), Err(three)) => {
            prop_assert_eq!(&one.error, &three.error, "error");
            prop_assert_eq!(one.report.class_rows(), three.report.class_rows());
            prop_assert_eq!(crashes(&one.report), crashes(&three.report));
        }
        (one, three) => prop_assert!(
            false,
            "one shard {:?} but three shards {:?}",
            one.map(|o| o.outcome.rounds).map_err(|f| f.error),
            three.map(|o| o.outcome.rounds).map_err(|f| f.error)
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One shard ≡ three shards under heavy faults: drops up to 60% (so
    /// the 8-retry budget sometimes runs out and messages are lost),
    /// duplicates up to 30%, delays of 0–3 pulses and up to 5 crashes
    /// within horizons of 1–8 pulses, on all four kernels and on subset
    /// views. A third of the cases trip a pulse budget of 1–3 or a zero
    /// wall clock instead of completing.
    #[test]
    fn single_shard_lane_matches_the_synchronizer(
        g in arb_fault_graph(),
        fault_seed in 0u64..u64::MAX,
        drop_pc in 0u32..=60,
        dup_pc in 0u32..=30,
        delay in 0u64..=3,
        crashes in 0u32..=5,
        horizon in 1u64..=8,
        budget in 0u32..6,
        mask_seed in 0u64..256,
        wseed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let adversary = Adversary::new(fault_seed)
            .with_drop_rate(f64::from(drop_pc) / 100.0)
            .with_duplicate_rate(f64::from(dup_pc) / 100.0)
            .with_max_delay(delay)
            .with_crashes(crashes)
            .with_crash_horizon(horizon);
        let cfg = match budget {
            1..=3 => AsyncConfig::new(adversary).with_max_pulses(u64::from(budget)),
            4 => AsyncConfig::new(adversary).with_wall_clock(std::time::Duration::ZERO),
            _ => AsyncConfig::new(adversary),
        };

        let mut rng = rand::rngs::SmallRng::seed_from_u64(mask_seed);
        let alive = NodeSet::from_nodes(g.n(), g.nodes().filter(|_| rng.gen_bool(0.8)));
        prop_assume!(!alive.is_empty());
        let subset = g.view(&alive);
        let src = alive.iter().next().expect("nonempty");
        let bfs = primitives::BfsKernel::new(&subset, [src], u32::MAX);
        assert_shard_count_independent(&g, &subset, &bfs, &cfg)?;
        let leader = primitives::LeaderKernel::new(&subset);
        assert_shard_count_independent(&g, &subset, &leader, &cfg)?;

        let view = g.full_view();
        let root = NodeId::new(0);
        let leader = primitives::LeaderKernel::new(&view);
        assert_shard_count_independent(&g, &view, &leader, &cfg)?;
        let mut ledger = RoundLedger::new();
        let tree = primitives::bfs(&view, [root], u32::MAX, &mut ledger);
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let bits = bits_for_value(g.n() as u64 * g.n() as u64);
        let cast = primitives::ConvergeCastKernel::new(g.n(), root, tree.parents(), &values, bits);
        assert_shard_count_independent(&g, &view, &cast, &cfg)?;

        let wg = gen::reweight(&g, WeightDist::Uniform { lo: 0.5, hi: 4.0 }, wseed)
            .expect("valid weights");
        let wview = wg.full_view();
        let sp = primitives::SpBfsKernel::new(&wview, [root], f64::INFINITY);
        assert_shard_count_independent(&wg, &wview, &sp, &cfg)?;
    }
}
