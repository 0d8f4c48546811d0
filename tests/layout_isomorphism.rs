//! Relabeling must be invisible to the decomposition stack: running
//! Theorem 2.3 on a graph relabeled under any [`NodeOrder`] and mapping
//! the clusters back through the [`Relabeling`] yields a decomposition
//! of the *original* graph that passes the same validators with the
//! same verdicts and identical quality envelopes (cluster count, color
//! count, strong/weak diameters — weighted ones too).
//!
//! This is the contract the CLI's `--layout` flag relies on: layouts
//! change memory traffic, never results.

use proptest::prelude::*;
use sdnd::clustering::{validate_decomposition, ClusterId, NetworkDecomposition};
use sdnd::core::{decompose_strong, Params};
use sdnd::graph::{gen, Graph, NodeOrder, NodeSet};

/// Strategy: a connected random graph (sometimes with exact integer
/// weights, so weighted distance sums compare bitwise) plus one of the
/// four node orders.
fn arb_case() -> impl Strategy<Value = (Graph, NodeOrder)> {
    (8usize..=48, 0u64..1000, prop::bool::ANY, 0usize..4).prop_map(|(n, seed, weighted, order)| {
        let g = gen::gnp_connected(n, 2.5 / n as f64, seed);
        let g = if weighted {
            // Integer weights keep every shortest-path sum exactly
            // representable, so f64 equality below is legitimate.
            gen::reweight(&g, gen::WeightDist::UniformInt { lo: 1, hi: 8 }, seed)
                .expect("valid distribution")
        } else {
            g
        };
        (g, NodeOrder::ALL[order])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decomposition_commutes_with_relabeling(case in arb_case()) {
        let (g, order) = case;
        let params = Params::default();

        // Decompose the relabeled graph...
        let (gl, relab) = g.relabeled(order);
        let (d, _) = decompose_strong(&gl, &params);

        // ...and map every cluster back to original labels, keeping
        // colors.
        let mapped: Vec<_> = d
            .clusters()
            .iter()
            .enumerate()
            .map(|(i, members)| (relab.cluster_to_old(members), d.color(ClusterId(i as u32))))
            .collect();
        let md = NetworkDecomposition::new(&NodeSet::full(g.n()), mapped)
            .expect("mapped clusters still partition the node set");

        // The mapped-back decomposition validates on the original graph
        // with the same verdicts the relabeled one gets on its graph.
        let on_original = validate_decomposition(&g, &md);
        let on_relabeled = validate_decomposition(&gl, &d);
        prop_assert!(
            on_original.is_valid(),
            "violations on original labels: {:?}",
            on_original.violations
        );
        prop_assert_eq!(on_original.colors_separate, on_relabeled.colors_separate);
        prop_assert_eq!(on_original.clusters_connected, on_relabeled.clusters_connected);

        // Quality envelopes are label-independent: identical counts and
        // diameters in both metrics.
        let (q_original, q_relabeled) = (&on_original, &on_relabeled);
        prop_assert_eq!(q_original.colors, q_relabeled.colors);
        prop_assert_eq!(md.num_clusters(), d.num_clusters());
        prop_assert_eq!(md.max_cluster_size(), d.max_cluster_size());
        prop_assert_eq!(q_original.max_strong_diameter, q_relabeled.max_strong_diameter);
        prop_assert_eq!(q_original.max_weak_diameter, q_relabeled.max_weak_diameter);
        prop_assert_eq!(
            q_original.weighted_strong_diameter,
            q_relabeled.weighted_strong_diameter
        );
        prop_assert_eq!(
            q_original.weighted_weak_diameter,
            q_relabeled.weighted_weak_diameter
        );
        prop_assert_eq!(q_original.cd_product(), q_relabeled.cd_product());
    }
}
