//! Theorem 2.2: deterministic strong-diameter ball carving with diameter
//! `O(log^3 n / eps)`.
//!
//! The proof is one line given Theorem 2.1: plug the
//! Ghaffari–Grunau–Rozhoň weak carver (`R = O(log^2 n/eps)`,
//! `L = O(log n)`, here the GGR21-style [`sdnd_weak::Rg20::ggr21`]
//! stand-in) into the weak→strong transformation.

use crate::{transform, Params};
use sdnd_clustering::{BallCarving, Cancelled, CarveCtx, StrongCarver};
use sdnd_congest::RoundLedger;
use sdnd_graph::{Graph, NodeSet};

/// The Theorem 2.2 strong-diameter ball carver.
///
/// A [`StrongCarver`] whose `carve_strong` removes at most an `eps`
/// fraction of the alive set and leaves connected components of strong
/// diameter `O(log^3 n / eps)`.
#[derive(Debug, Clone, Default)]
pub struct Theorem22Carver {
    params: Params,
}

impl Theorem22Carver {
    /// Creates the carver with the given parameter constants.
    pub fn new(params: Params) -> Self {
        Theorem22Carver { params }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &Params {
        &self.params
    }
}

impl StrongCarver for Theorem22Carver {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        self.carve_strong_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn carve_strong_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<BallCarving, Cancelled> {
        let weak = self.params.weak_carver();
        transform::weak_to_strong_in(g, alive, eps, &weak, &self.params, ledger, ctx)
    }

    fn name(&self) -> &'static str {
        "cg21-thm2.2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_carving;
    use sdnd_graph::gen;

    #[test]
    fn theorem22_contract_on_suite() {
        let graphs = vec![
            ("grid", gen::grid(8, 8)),
            ("cycle", gen::cycle(60)),
            ("tree", gen::random_tree(64, 3)),
            ("gnp", gen::gnp_connected(64, 0.07, 1)),
        ];
        for (name, g) in graphs {
            let mut ledger = RoundLedger::new();
            let out = Theorem22Carver::default().carve_strong(
                &g,
                &NodeSet::full(g.n()),
                0.5,
                &mut ledger,
            );
            let report = validate_carving(&g, &out);
            assert!(
                report.is_valid_strong(0.5),
                "{name}: dead {:.3}, violations {:?}",
                report.dead_fraction,
                report.violations
            );
            // The log^3 n / eps envelope with an explicit constant.
            let n = g.n() as f64;
            let bound = (4.0 * n.ln().powi(3) / 0.5).ceil() as u32 + 8;
            let d = report.max_strong_diameter.unwrap();
            assert!(d <= bound, "{name}: diameter {d} exceeds envelope {bound}");
        }
    }

    #[test]
    fn carver_name() {
        assert_eq!(Theorem22Carver::default().name(), "cg21-thm2.2");
    }
}
