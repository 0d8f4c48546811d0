//! The Linial–Saks existential argument, run as an algorithm.
//!
//! LS93 observed that every graph *has* a strong-diameter decomposition
//! with `O(log n)` colors and `O(log n)` diameter: repeatedly grow a
//! ball around an arbitrary remaining node until a layer fails to
//! double the ball, output the ball, kill the layer. This is a
//! perfectly good *centralized* procedure but an awful distributed one —
//! the balls are grown one at a time, so the round complexity is linear
//! in `n`. It serves as the quality yardstick (best-possible parameters)
//! against which the polylogarithmic-round algorithms are compared.

use sdnd_clustering::{BallCarving, StrongCarver};
use sdnd_congest::{bits_for_value, primitives, RoundLedger};
use sdnd_graph::{Graph, NodeId, NodeSet};

/// The token-sequential greedy ball carver.
#[derive(Debug, Clone, Default)]
pub struct SequentialGreedy {
    _private: (),
}

impl SequentialGreedy {
    /// Creates the carver.
    pub fn new() -> Self {
        SequentialGreedy::default()
    }
}

impl StrongCarver for SequentialGreedy {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        let mut remaining = alive.clone();
        let mut out_clusters: Vec<Vec<NodeId>> = Vec::new();
        let b = bits_for_value(g.n().max(2) as u64 - 1);

        // A global token visits remaining nodes in identifier order.
        let mut order: Vec<NodeId> = remaining.iter().collect();
        order.sort_by_key(|&v| g.id_of(v));

        for &center in &order {
            if !remaining.contains(center) {
                continue;
            }
            let view = g.view(&remaining);
            let mut scratch = RoundLedger::new();
            let bfs = primitives::bfs(&view, [center], u32::MAX, &mut scratch);
            // Clamped accessor: safe past the eccentricity (where the
            // ball stops growing) and on an empty run.
            let at = |r: usize| bfs.ball_size(r as u32);
            let mut r_star = 0;
            while (at(r_star) as f64) < (1.0 - eps) * at(r_star + 1) as f64 {
                r_star += 1;
            }

            let ball: Vec<NodeId> = bfs.ball(r_star as u32).collect();
            for v in bfs.order() {
                if bfs.dist(*v) <= r_star as u32 + 1 {
                    remaining.remove(*v);
                }
            }
            // Distributed cost of one event: growing and reporting the
            // ball (the token is sequential — nothing else runs).
            ledger.charge_rounds(2 * (r_star as u64 + 2));
            ledger.record_messages(2 * ball.len() as u64, 2 * b);
            out_clusters.push(ball);
        }

        BallCarving::new(alive.clone(), out_clusters).expect("sequential balls are disjoint")
    }

    fn name(&self) -> &'static str {
        "ls93-sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::{
        decompose_with_strong_carver_in, validate_carving, validate_decomposition, CarveCtx,
    };
    use sdnd_graph::gen;

    #[test]
    fn carving_is_valid_and_tight() {
        for g in [
            gen::grid(9, 9),
            gen::cycle(64),
            gen::gnp_connected(80, 0.05, 1),
        ] {
            let alive = NodeSet::full(g.n());
            let mut ledger = RoundLedger::new();
            let out = SequentialGreedy::new().carve_strong(&g, &alive, 0.5, &mut ledger);
            let report = validate_carving(&g, &out);
            assert!(
                report.is_valid_strong(0.5),
                "dead {:.3}: {:?}",
                report.dead_fraction,
                report.violations
            );
            // Greedy doubling gives radius <= log2 n: the existential
            // O(log n) strong diameter.
            let bound = 2 * (g.n() as f64).log2().ceil() as u32 + 2;
            assert!(report.max_strong_diameter.unwrap() <= bound);
        }
    }

    #[test]
    fn decomposition_has_log_log_parameters() {
        let g = gen::grid(10, 10);
        let carver = SequentialGreedy::new();
        let mut ledger = RoundLedger::new();
        let d =
            decompose_with_strong_carver_in(&g, &carver, 0.5, &mut ledger, &mut CarveCtx::new())
                .expect("unarmed ctx never cancels");
        let report = validate_decomposition(&g, &d);
        assert!(report.is_valid(), "{:?}", report.violations);
        let log2n = (100f64).log2();
        assert!(d.num_colors() as f64 <= 2.0 * log2n + 2.0);
        assert!(report.max_strong_diameter.unwrap() as f64 <= 4.0 * log2n + 4.0);
    }

    #[test]
    fn rounds_scale_linearly_on_paths() {
        // The defining weakness: token-sequential rounds grow linearly.
        let short = gen::path(50);
        let long = gen::path(400);
        let mut l1 = RoundLedger::new();
        let mut l2 = RoundLedger::new();
        let _ = SequentialGreedy::new().carve_strong(&short, &NodeSet::full(50), 0.5, &mut l1);
        let _ = SequentialGreedy::new().carve_strong(&long, &NodeSet::full(400), 0.5, &mut l2);
        assert!(
            l2.rounds() >= 4 * l1.rounds(),
            "rounds {} vs {} did not scale with n",
            l2.rounds(),
            l1.rounds()
        );
    }

    #[test]
    fn empty_input() {
        let g = gen::path(3);
        let mut ledger = RoundLedger::new();
        let out = SequentialGreedy::new().carve_strong(&g, &NodeSet::empty(3), 0.5, &mut ledger);
        assert_eq!(out.num_clusters(), 0);
    }
}
