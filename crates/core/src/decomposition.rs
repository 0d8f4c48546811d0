//! Theorems 2.3 and 3.4: strong-diameter network decompositions.
//!
//! Both follow from the ball carvings by the standard LS93 reduction:
//! `O(log n)` repetitions at `eps = 1/2`, each clustering at least half
//! of the remaining nodes; repetition `i` becomes color `i`. The
//! [`registry`](crate::registry) runs the same reduction over every
//! carver of the experiment tables.

use crate::{Params, Theorem22Carver, Theorem33Carver};
use sdnd_clustering::{decompose_with_strong_carver_in, Cancelled, CarveCtx, NetworkDecomposition};
use sdnd_congest::RoundLedger;
use sdnd_graph::Graph;

/// Theorem 2.3: a deterministic strong-diameter network decomposition
/// with `O(log n)` colors and `O(log^3 n)` cluster diameter, with a
/// fresh ledger returned alongside. Thin wrapper over
/// [`decompose_strong_with_in`] with a throwaway context.
pub fn decompose_strong(g: &Graph, params: &Params) -> (NetworkDecomposition, RoundLedger) {
    let mut ledger = RoundLedger::new();
    let d = decompose_strong_with_in(g, params, &mut ledger, &mut CarveCtx::new())
        .expect("unarmed ctx never cancels");
    (d, ledger)
}

/// Theorem 2.3 with caller-provided ledger and [`CarveCtx`]: one
/// traversal workspace serves every carving repetition of the LS93
/// reduction (and stays warm across repeated decompositions). The
/// context's armed deadline is honored at every carving phase boundary.
///
/// # Errors
///
/// [`Cancelled`] when the armed deadline trips mid-reduction; the
/// context stays safely reusable.
pub fn decompose_strong_with_in(
    g: &Graph,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<NetworkDecomposition, Cancelled> {
    let carver = Theorem22Carver::new(params.clone());
    decompose_with_strong_carver_in(g, &carver, 0.5, ledger, ctx)
}

/// Theorem 3.4: the improved decomposition with `O(log n)` colors and
/// `O(log^2 n)` cluster diameter. Thin wrapper over
/// [`decompose_strong_improved_with_in`] with a throwaway context.
pub fn decompose_strong_improved(
    g: &Graph,
    params: &Params,
) -> (NetworkDecomposition, RoundLedger) {
    let mut ledger = RoundLedger::new();
    let d = decompose_strong_improved_with_in(g, params, &mut ledger, &mut CarveCtx::new())
        .expect("unarmed ctx never cancels");
    (d, ledger)
}

/// Theorem 3.4 with caller-provided ledger and [`CarveCtx`].
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips mid-reduction.
pub fn decompose_strong_improved_with_in(
    g: &Graph,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<NetworkDecomposition, Cancelled> {
    let carver = Theorem33Carver::new(params.clone());
    decompose_with_strong_carver_in(g, &carver, 0.5, ledger, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_decomposition;
    use sdnd_graph::gen;

    #[test]
    fn theorem23_on_suite() {
        let graphs = vec![
            ("grid", gen::grid(8, 8)),
            ("cycle", gen::cycle(48)),
            ("tree", gen::balanced_tree(2, 6)),
            ("gnp", gen::gnp_connected(60, 0.08, 2)),
        ];
        for (name, g) in graphs {
            let (d, ledger) = decompose_strong(&g, &Params::default());
            let report = validate_decomposition(&g, &d);
            assert!(report.is_valid(), "{name}: {:?}", report.violations);

            let n = g.n() as f64;
            let color_bound = 2.0 * n.log2().ceil() + 2.0;
            assert!(
                (d.num_colors() as f64) <= color_bound,
                "{name}: {} colors exceed O(log n) envelope {color_bound}",
                d.num_colors()
            );
            let diam_bound = (8.0 * n.ln().powi(3)).ceil() as u32 + 8;
            let diam = report.max_strong_diameter.unwrap();
            assert!(
                diam <= diam_bound,
                "{name}: diameter {diam} vs {diam_bound}"
            );
            assert!(ledger.rounds() > 0);
        }
    }

    #[test]
    fn theorem34_improves_diameter_class() {
        let g = gen::grid(9, 9);
        let (d23, _) = decompose_strong(&g, &Params::default());
        let (d34, _) = decompose_strong_improved(&g, &Params::default());
        let q23 = validate_decomposition(&g, &d23);
        let q34 = validate_decomposition(&g, &d34);
        assert!(q34.is_valid());
        // Not a strict per-instance guarantee, but the improved variant
        // must stay within a small factor on a benign grid.
        let (a, b) = (
            q34.max_strong_diameter.unwrap(),
            q23.max_strong_diameter.unwrap(),
        );
        assert!(a <= 3 * b.max(4), "improved {a} vs base {b}");
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let (d, _) = decompose_strong(&g, &Params::default());
        assert_eq!(d.num_clusters(), 0);
    }
}
