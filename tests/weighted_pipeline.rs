//! Property-based and end-to-end tests for the weighted pipeline:
//! weighted distances against an independent oracle, weight propagation
//! through graph transformations, hop-path equivalence of the
//! oracle-parameterized carving, and a full weighted
//! decompose-and-validate run.

use proptest::prelude::*;
use sdnd::core::{transform, Params};
use sdnd::prelude::*;
use sdnd::weak::Rg20;
use sdnd_graph::algo::{self, DistanceOracle, HopOracle, MetricOracle};
use sdnd_graph::gen::{self, WeightDist};

/// Strategy: a connected weighted random graph (uniform integer weights
/// in `[1, w_hi]`) with 8..=60 nodes.
fn arb_weighted_graph() -> impl Strategy<Value = Graph> {
    (8usize..=60, 0u64..1000, 1u64..=9).prop_map(|(n, seed, w_hi)| {
        gen::gnp_connected_weighted(
            n,
            2.5 / n as f64,
            seed,
            WeightDist::UniformInt { lo: 1, hi: w_hi },
        )
        .expect("valid distribution")
    })
}

/// Strategy: a connected *fractionally* weighted graph (exercises
/// non-integer arithmetic).
fn arb_fractional_graph() -> impl Strategy<Value = Graph> {
    (8usize..=40, 0u64..1000).prop_map(|(n, seed)| {
        gen::gnp_connected_weighted(
            n,
            3.0 / n as f64,
            seed,
            WeightDist::Uniform { lo: 0.25, hi: 4.0 },
        )
        .expect("valid distribution")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dijkstra distances match the Bellman–Ford oracle — an
    /// implementation too simple to share the priority queue's bugs.
    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_weighted_graph(), src in 0usize..8) {
        let view = g.full_view();
        let s = NodeId::new(src.min(g.n() - 1));
        let d = algo::dijkstra(&view, [s]);
        let bf = algo::bellman_ford(&view, [s]);
        for v in g.nodes() {
            prop_assert_eq!(d.dist(v), bf[v.index()], "node {}", v);
        }
    }

    /// Same check under fractional weights and on an induced view.
    #[test]
    fn dijkstra_matches_bellman_ford_fractional(g in arb_fractional_graph(), drop in 0usize..5) {
        let alive = NodeSet::from_nodes(
            g.n(),
            g.nodes().filter(|v| v.index() % 7 != drop),
        );
        let view = g.view(&alive);
        let s = match view.nodes().next() {
            Some(s) => s,
            None => return Ok(()),
        };
        let d = algo::dijkstra(&view, [s]);
        let bf = algo::bellman_ford(&view, [s]);
        for v in g.nodes() {
            prop_assert_eq!(d.dist(v), bf[v.index()], "node {}", v);
        }
    }

    /// On unit weights the weighted oracle IS the hop oracle.
    #[test]
    fn unit_weighted_oracle_equals_hop_oracle(n in 8usize..50, seed in 0u64..500) {
        let g = gen::gnp_connected(n, 2.5 / n as f64, seed);
        let unit = gen::reweight(&g, WeightDist::Unit, seed).unwrap();
        let hop = HopOracle.distances(&g.full_view(), NodeId::new(0));
        let w = algo::WeightedOracle.distances(&unit.full_view(), NodeId::new(0));
        for v in g.nodes() {
            prop_assert_eq!(hop.dist(v), w.dist(v), "node {}", v);
        }
    }

    /// The refactored (oracle-parameterized) carving path is bit-identical
    /// to the hop-count implementation on unweighted inputs: the auto
    /// oracle and the explicitly forced hop oracle agree cluster-for-
    /// cluster, node-for-node, round-for-round — and the full seeded
    /// decomposition pipeline remains deterministic on top of it.
    #[test]
    fn hop_oracle_carving_is_bit_identical_on_unweighted_inputs(
        n in 10usize..60,
        seed in 0u64..500,
        eps in 0.25f64..0.75,
    ) {
        let g = gen::gnp_connected(n, 2.5 / n as f64, seed);
        let alive = NodeSet::full(g.n());
        let params = Params::default();
        let carver = Rg20::ggr21();
        let mut l_auto = RoundLedger::new();
        let auto = transform::weak_to_strong(&g, &alive, eps, &carver, &params, &mut l_auto);
        let mut l_hop = RoundLedger::new();
        let forced = transform::weak_to_strong_with_oracle(
            &g, &alive, eps, &carver, &params, MetricOracle::Hop(HopOracle), &mut l_hop,
        );
        prop_assert_eq!(auto.clusters(), forced.clusters());
        prop_assert_eq!(l_auto.rounds(), l_hop.rounds());
        prop_assert_eq!(l_auto.messages(), l_hop.messages());

        let (d1, r1) = sdnd::core::decompose_strong(&g, &params);
        let (d2, r2) = sdnd::core::decompose_strong(&g, &params);
        prop_assert_eq!(d1.clusters(), d2.clusters());
        prop_assert_eq!(r1.rounds(), r2.rounds());
    }

    /// Weighted end-to-end: Theorem 2.2/2.3 on weighted graphs keeps
    /// every contract (eps budget, non-adjacency, connectivity) and the
    /// weighted diameters it reports dominate the hop diameters.
    #[test]
    fn weighted_decomposition_contract(g in arb_weighted_graph()) {
        let (d, ledger) = sdnd::core::decompose_strong(&g, &Params::default());
        let report = validate_decomposition(&g, &d);
        prop_assert!(report.is_valid(), "violations: {:?}", report.violations);
        prop_assert!(ledger.complies_with(&CostModel::congest_for(g.n())));
        let hop = report.max_strong_diameter.expect("connected clusters");
        let weighted = report
            .weighted_strong_diameter
            .expect("weighted graphs report weighted diameters");
        // Weights are >= 1, so the weighted diameter dominates the hop
        // diameter; both are bounded by hop * w_max.
        prop_assert!(weighted >= hop as f64, "weighted {} < hop {}", weighted, hop);
        prop_assert!(
            weighted <= hop as f64 * g.max_edge_weight() + 1e-9,
            "weighted {} vs hop {} * wmax {}",
            weighted, hop, g.max_edge_weight()
        );
    }

    /// Weight propagation: induced subgraphs and graph powers preserve
    /// the metric (weighted distances in the extract equal the view's).
    #[test]
    fn induced_subgraph_preserves_weighted_distances(g in arb_weighted_graph()) {
        let alive = NodeSet::from_nodes(g.n(), g.nodes().filter(|v| v.index() % 5 != 4));
        let view = g.view(&alive);
        let ind = algo::induced_subgraph(&view);
        prop_assert!(ind.graph().is_weighted());
        let inner = algo::dijkstra(&ind.graph().full_view(), ind.graph().nodes().take(1));
        let outer = match ind.graph().n() {
            0 => return Ok(()),
            _ => algo::dijkstra(&view, [ind.original_of(NodeId::new(0))]),
        };
        for c in ind.graph().nodes() {
            prop_assert_eq!(inner.dist(c), outer.dist(ind.original_of(c)), "compact {}", c);
        }
    }

    /// SpBfs (distributed Bellman–Ford fast path) agrees with Dijkstra on
    /// arbitrary weighted views.
    #[test]
    fn sp_bfs_matches_dijkstra(g in arb_weighted_graph(), src in 0usize..8) {
        let s = NodeId::new(src.min(g.n() - 1));
        let mut ledger = RoundLedger::new();
        let sp = sdnd::congest::primitives::sp_bfs(&g.full_view(), [s], f64::INFINITY, &mut ledger);
        let d = algo::dijkstra(&g.full_view(), [s]);
        for v in g.nodes() {
            prop_assert_eq!(sp.dist(v), d.dist(v), "node {}", v);
        }
        prop_assert!(ledger.rounds() > 0 || g.degree(s) == 0);
    }
}

/// Deterministic end-to-end: the CLI acceptance scenario as a library
/// call — seeded weighted expander, thm2.3 decomposition, weighted
/// validation.
#[test]
fn weighted_expander_end_to_end() {
    let g =
        gen::random_regular_connected_weighted(128, 4, 42, WeightDist::UniformInt { lo: 1, hi: 8 })
            .unwrap();
    assert!(g.is_weighted());
    let (d, ledger) = sdnd::core::decompose_strong(&g, &Params::default());
    let report = validate_decomposition(&g, &d);
    assert!(report.is_valid(), "violations: {:?}", report.violations);
    assert!(report.weighted_strong_diameter.is_some());
    assert!(ledger.complies_with(&CostModel::congest_for(g.n())));

    // Rerun is bit-identical (seeded weights, deterministic pipeline).
    let g2 =
        gen::random_regular_connected_weighted(128, 4, 42, WeightDist::UniformInt { lo: 1, hi: 8 })
            .unwrap();
    assert_eq!(g, g2);
    let (d2, ledger2) = sdnd::core::decompose_strong(&g2, &Params::default());
    assert_eq!(d.clusters(), d2.clusters());
    assert_eq!(ledger.rounds(), ledger2.rounds());
}
