//! Property: the validators accept every output of the sequential
//! baseline on random connected graphs.
//!
//! [`SequentialGreedy`] is the Linial–Saks existential argument run as a
//! centralized algorithm — the simplest correct producer of strong
//! `(O(log n), O(log n))` decompositions in the codebase. If
//! [`validate_decomposition`] or [`validate_carving`] ever rejects its
//! output, either the baseline or the validator has drifted; both are
//! load-bearing for the comparison tables, so this suite pins their
//! agreement.

use proptest::prelude::*;
use sdnd::prelude::*;
use sdnd_baselines::SequentialGreedy;
use sdnd_clustering::{decompose_with_strong_carver_in, validate_carving, CarveCtx};
use sdnd_graph::gen;

/// Strategy: a connected random graph with 8..=56 nodes, optionally
/// under an adversarial identifier permutation.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (8usize..=56, 0u64..1000, prop::bool::ANY).prop_map(|(n, seed, permute)| {
        let g = gen::gnp_connected(n, 2.5 / n as f64, seed);
        if permute {
            let ids: Vec<u64> = (0..g.n() as u64)
                .map(|i| (g.n() as u64 - i) * 3 + 7)
                .collect();
            g.with_ids(ids).expect("injective ids")
        } else {
            g
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_decompositions_validate(g in arb_connected_graph()) {
        let mut ledger = RoundLedger::new();
        let d = decompose_with_strong_carver_in(
            &g, &SequentialGreedy::new(), 0.5, &mut ledger, &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        let report = validate_decomposition(&g, &d);
        prop_assert!(report.is_valid(), "violations: {:?}", report.violations);
        // LS93-style analysis: O(log n) color classes.
        let bound = 2.0 * (g.n().max(2) as f64).log2() + 2.0;
        prop_assert!(
            (d.num_colors() as f64) <= bound,
            "{} colors exceeds the O(log n) bound {:.1} at n = {}",
            d.num_colors(),
            bound,
            g.n()
        );
    }

    #[test]
    fn sequential_carvings_validate(g in arb_connected_graph(), eps in 0.2f64..0.8) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let c = StrongCarver::carve_strong(&SequentialGreedy::new(), &g, &alive, eps, &mut ledger);
        let report = validate_carving(&g, &c);
        prop_assert!(
            report.is_valid_strong(eps),
            "dead {:.3}, violations: {:?}",
            report.dead_fraction,
            report.violations
        );
    }
}
