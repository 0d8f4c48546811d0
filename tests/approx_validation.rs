//! Property-based tests (proptest) for the approximate validation tier:
//! the HyperBall estimators stay inside their documented error model,
//! Dijkstra is distance-identical to Bellman–Ford on full and subset
//! views, and the approximate validator's accept/reject gates coincide
//! with the exact validator's.

use proptest::prelude::*;
use sdnd::graph::algo::{self, bellman_ford, dijkstra, HyperBall, HyperBallParams};
use sdnd::graph::{gen, Graph, NodeId, NodeSet};
use sdnd_clustering::{validate_carving, validate_carving_approx, BallCarving};

/// Strategy: a connected random graph with 8..=96 nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..=96, 0u64..1000).prop_map(|(n, seed)| gen::gnp_connected(n, 2.5 / n as f64, seed))
}

/// Strategy: the same, reweighted with integer or fractional weights.
fn arb_weighted_graph() -> impl Strategy<Value = Graph> {
    (arb_graph(), 0u64..100, prop::bool::ANY).prop_map(|(g, seed, integral)| {
        let dist = if integral {
            gen::WeightDist::UniformInt { lo: 1, hi: 9 }
        } else {
            gen::WeightDist::Uniform { lo: 0.25, hi: 4.0 }
        };
        gen::reweight(&g, dist, seed).expect("positive weights")
    })
}

/// A (possibly invalid) carving: every node is dealt to one of `k`
/// clusters or left dead by a splitmix-style hash of `seed`.
fn arb_carving(g: &Graph, k: usize, seed: u64) -> BallCarving {
    let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in g.nodes() {
        let mut h = seed ^ (v.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 29;
        // k + 1 lanes: the extra lane leaves the node dead.
        let lane = (h % (k as u64 + 1)) as usize;
        if lane < k {
            clusters[lane].push(v);
        }
    }
    clusters.retain(|c| !c.is_empty());
    BallCarving::new(NodeSet::full(g.n()), clusters).expect("lanes are disjoint")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HyperBall's diameter estimate is one-sided (never exceeds the
    /// exact diameter) and the cardinality estimate of the full sweep
    /// lands within 3 standard errors of the true count.
    #[test]
    fn hyperball_respects_its_error_model(g in arb_graph()) {
        let exact = algo::diameter_exact_in(&g.full_view(), &mut algo::TraversalWorkspace::new())
            .expect("connected");
        let params = HyperBallParams::new(8);
        let mut hb = HyperBall::new(params);
        let s = hb.sweep(&g.full_view());
        prop_assert!(
            s.seed_diameter_est <= exact,
            "estimate {} exceeds exact diameter {exact}",
            s.seed_diameter_est
        );
        // Connected graph: every sketch stabilizes at the whole node set,
        // so min and max count estimates agree and approximate n.
        let rel = (s.max_seed_count - g.n() as f64).abs() / g.n() as f64;
        prop_assert!(
            rel <= 3.0 * params.rel_std_error(),
            "count {} vs n = {} is {:.1}% off (band ±{:.1}%)",
            s.max_seed_count,
            g.n(),
            rel * 100.0,
            3.0 * params.rel_std_error() * 100.0
        );
    }

    /// Dijkstra and Bellman–Ford agree on every distance — on integer
    /// and fractional weights, on the full view and on a random subset
    /// view.
    #[test]
    fn dijkstra_matches_bellman_ford_on_full_and_subset_views(
        g in arb_weighted_graph(),
        source in 0usize..8,
        drop_mod in 5usize..12,
    ) {
        let full = g.full_view();
        let src = NodeId::new(source % g.n());

        let dj = dijkstra(&full, [src]);
        let bf = bellman_ford(&full, [src]);
        for v in g.nodes() {
            prop_assert_eq!(dj.dist(v), bf[v.index()], "dijkstra vs bellman-ford at {}", v);
        }

        // Subset view: drop a deterministic residue class (keeping the
        // source); reachability may shrink, equality must not.
        let alive = NodeSet::from_nodes(
            g.n(),
            g.nodes()
                .filter(|v| v.index() % drop_mod != drop_mod - 1 || *v == src),
        );
        let view = g.view(&alive);
        let dj = dijkstra(&view, [src]);
        let bf = bellman_ford(&view, [src]);
        for v in g.nodes() {
            prop_assert_eq!(dj.dist(v), bf[v.index()], "subset dijkstra vs bellman-ford at {}", v);
        }
    }

    /// The approximate validator's gates coincide with the exact
    /// validator's on arbitrary (valid and invalid) carvings: in
    /// particular it never accepts a carving the exact tier rejects.
    #[test]
    fn approx_gates_never_accept_what_exact_rejects(
        g in arb_graph(),
        k in 1usize..6,
        seed in 0u64..1000,
        eps in 0.0f64..0.9,
    ) {
        let carving = arb_carving(&g, k, seed);
        let exact = validate_carving(&g, &carving);
        let approx = validate_carving_approx(&g, &carving, HyperBallParams::default());

        prop_assert_eq!(exact.clusters_nonadjacent, approx.clusters_nonadjacent);
        prop_assert_eq!(exact.clusters_connected, approx.clusters_connected);
        prop_assert_eq!(exact.dead_fraction.to_bits(), approx.dead_fraction.to_bits());
        prop_assert_eq!(
            exact.is_valid_strong(eps),
            approx.is_valid_strong(eps),
            "strong gate diverged at eps = {}",
            eps
        );
        prop_assert_eq!(
            exact.is_valid_weak(eps),
            approx.is_valid_weak(eps),
            "weak gate diverged at eps = {}",
            eps
        );

        // Estimated diameters are one-sided against the exact sweep.
        if let (Some(est), Some(ex)) = (approx.est_max_strong_diameter, exact.max_strong_diameter) {
            prop_assert!(est <= ex, "strong estimate {est} exceeds exact {ex}");
        }
        prop_assert_eq!(
            approx.est_max_strong_diameter.is_some(),
            exact.max_strong_diameter.is_some()
        );
        // The weak estimate's documented bound direction: for connected
        // clusters the strong estimate stands in (weak ≤ strong), so it
        // is one-sided against the *strong* exact maximum; for
        // disconnected clusters the seeded sweep lower-bounds the weak
        // exact maximum. Either way it never exceeds the larger of the
        // two exact maxima that exist.
        if let Some(est) = approx.est_max_weak_diameter {
            let cap = exact.max_strong_diameter.max(exact.max_weak_diameter);
            prop_assert!(
                Some(est) <= cap,
                "weak estimate {} exceeds both exact maxima {:?}",
                est,
                cap
            );
        }
        prop_assert_eq!(
            approx.est_max_weak_diameter.is_some(),
            exact.max_weak_diameter.is_some()
        );
    }
}
