//! Property-based tests (proptest): the decomposition stack's invariants
//! must hold on arbitrary random graphs, seeds, boundary parameters, and
//! identifier permutations.

use proptest::prelude::*;
use sdnd::core::{transform, CarveCtx, Params};
use sdnd::prelude::*;
use sdnd::weak::{Ls93, Rg20};
use sdnd_clustering::{validate_carving, validate_weak_carving};
use sdnd_graph::gen;

/// Strategy: a connected random graph with 8..=60 nodes plus a random
/// identifier permutation.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..=60, 0u64..1000, prop::bool::ANY).prop_map(|(n, seed, permute)| {
        let g = gen::gnp_connected(n, 2.5 / n as f64, seed);
        if permute {
            // Reverse-shifted ids: adversarial but injective.
            let ids: Vec<u64> = (0..g.n() as u64)
                .map(|i| (g.n() as u64 - i) * 3 + 7)
                .collect();
            g.with_ids(ids).expect("injective")
        } else {
            g
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rg20_weak_contract_holds(g in arb_graph(), eps in 0.1f64..0.9) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let wc = Rg20::rg20().carve_weak(&g, &alive, eps, &mut ledger);
        let report = validate_weak_carving(&g, &wc);
        prop_assert!(report.carving.is_valid_weak(eps), "violations: {:?}", report.violations);
        prop_assert!(report.trees_well_formed);
        prop_assert!(report.terminals_covered);
        prop_assert!(ledger.complies_with(&CostModel::congest_for(g.n())));
    }

    #[test]
    fn ls93_weak_contract_holds(g in arb_graph(), seed in 0u64..500) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let wc = Ls93::new(seed).carve_weak(&g, &alive, 0.5, &mut ledger);
        let report = validate_weak_carving(&g, &wc);
        prop_assert!(report.carving.clusters_nonadjacent, "violations: {:?}", report.violations);
        prop_assert!(report.trees_well_formed);
        prop_assert!(report.terminals_covered);
    }

    #[test]
    fn theorem21_strong_contract_holds(g in arb_graph(), eps in 0.2f64..0.8) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let carver = Rg20::ggr21();
        let out = transform::weak_to_strong_in(
            &g, &alive, eps, &carver, &Params::default(), &mut ledger, &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        let report = validate_carving(&g, &out);
        prop_assert!(
            report.is_valid_strong(eps),
            "dead {:.3}, violations: {:?}",
            report.dead_fraction,
            report.violations
        );
    }

    #[test]
    fn theorem23_decomposition_valid(g in arb_graph()) {
        let (d, ledger) = sdnd::core::decompose_strong(&g, &Params::default());
        let report = sdnd_clustering::validate_decomposition(&g, &d);
        prop_assert!(report.is_valid(), "violations: {:?}", report.violations);
        prop_assert!(ledger.complies_with(&CostModel::congest_for(g.n())));
        // Cover check is internal to the type; colors bounded.
        prop_assert!((d.num_colors() as f64) <= 2.0 * (g.n().max(2) as f64).log2() + 2.0);
    }

    #[test]
    fn mpx_strong_carving_valid(g in arb_graph(), seed in 0u64..500) {
        use sdnd_clustering::StrongCarver;
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let c = sdnd::baselines::Mpx13::new(seed).carve_strong(&g, &alive, 0.5, &mut ledger);
        let report = validate_carving(&g, &c);
        prop_assert!(report.clusters_nonadjacent, "violations: {:?}", report.violations);
        prop_assert!(report.clusters_connected, "violations: {:?}", report.violations);
    }

    #[test]
    fn lemma31_outcomes_are_structurally_sound(g in arb_graph(), eps in 0.2f64..0.8) {
        use sdnd::core::CutOrComponent;
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let out = sdnd::core::sparse_cut::cut_or_component_in(
            &g, &alive, eps, &Params::default(), &mut ledger, &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        let n = g.n();
        match out {
            CutOrComponent::SparseCut { v1, v2, middle } => {
                prop_assert!(v1.len() >= n / 3);
                prop_assert!(v2.len() >= n / 3);
                prop_assert_eq!(v1.len() + v2.len() + middle.len(), n);
                for (a, b) in g.edges() {
                    let cross = (v1.contains(a) && v2.contains(b)) || (v1.contains(b) && v2.contains(a));
                    prop_assert!(!cross, "edge ({}, {}) crosses the cut", a, b);
                }
            }
            CutOrComponent::Component { u, boundary } => {
                prop_assert!(u.len() >= n / 3);
                for (a, b) in g.edges() {
                    if u.contains(a) && !u.contains(b) {
                        prop_assert!(boundary.contains(b));
                    }
                    if u.contains(b) && !u.contains(a) {
                        prop_assert!(boundary.contains(a));
                    }
                }
            }
        }
    }

    #[test]
    fn mis_template_valid_on_random_graphs(g in arb_graph()) {
        use sdnd::core::apply;
        let (d, _) = sdnd::core::decompose_strong(&g, &Params::default());
        let mut ledger = RoundLedger::new();
        let mis = apply::mis_via_decomposition(&g, &d, &mut ledger);
        prop_assert!(apply::is_mis(&g, &mis));
    }

    #[test]
    fn carving_respects_alive_subsets(g in arb_graph(), mask_seed in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mask_seed);
        let alive = NodeSet::from_nodes(
            g.n(),
            g.nodes().filter(|_| rng.gen_bool(0.8)),
        );
        if alive.is_empty() {
            return Ok(());
        }
        let mut ledger = RoundLedger::new();
        let wc = Rg20::rg20().carve_weak(&g, &alive, 0.5, &mut ledger);
        // All clusters within the alive set; dead fraction within budget.
        for c in wc.carving().clusters() {
            for &v in c {
                prop_assert!(alive.contains(v));
            }
        }
        prop_assert!(wc.carving().dead_fraction() <= 0.5 + 1e-9);
    }
}
