//! The LS93 reduction from ball carving to network decomposition.
//!
//! The classic observation of Linial–Saks, used by Theorems 2.3 and 3.4
//! of the paper: repeat a ball carving with boundary parameter
//! `eps = 1/2` on the yet-unclustered nodes; each repetition clusters at
//! least half of what remains, so after `log n` repetitions everything is
//! clustered, and the clusters of repetition `i` form color class `i`
//! (clusters of one repetition are pairwise non-adjacent by the carving
//! guarantee).
//!
//! [`try_decompose_by_carving`] is the reduction over any carving
//! closure — weak carvers included, by dropping their Steiner forests —
//! and [`decompose_with_strong_carver_in`] is its form over a
//! [`StrongCarver`] and a caller-held [`CarveCtx`]. Callers without a
//! context pass `&mut CarveCtx::new()`.

use crate::{BallCarving, CarveCtx, NetworkDecomposition, StrongCarver};
use sdnd_congest::RoundLedger;
use sdnd_graph::{Cancelled, Graph, NodeSet};

/// Repeatedly applies `carve` with boundary parameter `eps` until every
/// node of `start` is clustered; clusters of repetition `i` get color
/// `i`.
///
/// The closure receives `(graph, alive set, eps, ledger)` and must
/// return a carving of that alive set. Repetitions run on the *dead*
/// remainder of the previous one. A weak carver plugs in by dropping
/// its Steiner forest (`carving.into_parts().0`), giving a weak-diameter
/// decomposition.
///
/// A repetition that clusters nothing (possible for randomized carvers
/// on tiny remnants — e.g. LS93 when every node draws radius 0) is
/// retried without consuming a color.
///
/// The closure may return [`Cancelled`] (deadline tripped inside a
/// carving phase), which aborts the repetition loop and propagates;
/// completed repetitions are simply dropped — re-running on the same
/// context after a cancellation is bit-identical to a fresh run.
///
/// # Errors
///
/// Whatever the closure returns; the reduction adds no checkpoints of
/// its own (every carving attempt starts with one).
///
/// # Panics
///
/// Panics if the attempt count exceeds `16 (log2 n + 2)` — far beyond
/// any valid carver at `eps = 1/2`, indicating a broken carver.
pub fn try_decompose_by_carving<F>(
    g: &Graph,
    start: &NodeSet,
    eps: f64,
    ledger: &mut RoundLedger,
    mut carve: F,
) -> Result<NetworkDecomposition, Cancelled>
where
    F: FnMut(&Graph, &NodeSet, f64, &mut RoundLedger) -> Result<BallCarving, Cancelled>,
{
    let max_attempts = 16 * ((g.n().max(2) as f64).log2() as u32 + 2);
    let mut alive = start.clone();
    let mut colored: Vec<(Vec<sdnd_graph::NodeId>, u32)> = Vec::new();
    let mut color = 0u32;
    let mut attempts = 0u32;
    while !alive.is_empty() {
        attempts += 1;
        assert!(
            attempts < max_attempts,
            "carving repetition {attempts} exceeded the attempt budget; the \
             carver is not clustering a constant fraction per repetition"
        );
        let carving = carve(g, &alive, eps, ledger)?;
        if carving.clustered_count() == 0 {
            // Nothing clustered (possible for randomized carvers on tiny
            // remnants): retry without consuming a color.
            continue;
        }
        for members in carving.clusters() {
            colored.push((members.clone(), color));
        }
        alive = carving.dead().clone();
        color += 1;
    }
    Ok(NetworkDecomposition::new(start, colored)
        .expect("repetition clusters partition the start set"))
}

/// [`try_decompose_by_carving`] over a [`StrongCarver`] on all of `g`,
/// producing a strong-diameter network decomposition. One traversal
/// workspace, the context's, serves every carving repetition (and stays
/// warm for the caller's next decomposition), and the context's armed
/// deadline is honored at every carving phase boundary.
///
/// # Errors
///
/// [`Cancelled`] when the context's deadline trips mid-reduction; the
/// context stays safely reusable.
pub fn decompose_with_strong_carver_in<C: StrongCarver + ?Sized>(
    g: &Graph,
    carver: &C,
    eps: f64,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<NetworkDecomposition, Cancelled> {
    let start = NodeSet::full(g.n());
    try_decompose_by_carving(g, &start, eps, ledger, |g, alive, eps, ledger| {
        carver.carve_strong_in(g, alive, eps, ledger, ctx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_graph::{algo, gen, NodeId};

    /// A toy strong carver: per connected component, takes the BFS ball
    /// of radius 1 around the min-id node and kills its boundary.
    fn toy_carve(
        g: &Graph,
        alive: &NodeSet,
        _eps: f64,
        ledger: &mut RoundLedger,
    ) -> Result<BallCarving, Cancelled> {
        ledger.charge_rounds(3);
        let view = g.view(alive);
        let comps = algo::connected_components(&view);
        let mut clusters: Vec<Vec<NodeId>> = Vec::new();
        for c in 0..comps.count() {
            let members = comps.members(c);
            let center = members
                .iter()
                .min_by_key(|&v| g.id_of(v))
                .expect("nonempty component");
            let comp_view = g.view(&members);
            let bfs = algo::bfs(&comp_view, [center]);
            let ball: Vec<NodeId> = bfs.ball(1).collect();
            clusters.push(ball);
        }
        Ok(BallCarving::new(alive.clone(), clusters).expect("balls are disjoint per component"))
    }

    #[test]
    fn reduction_covers_everything() {
        let g = gen::cycle(12);
        let start = NodeSet::full(12);
        let mut ledger = RoundLedger::new();
        let d = try_decompose_by_carving(&g, &start, 0.5, &mut ledger, toy_carve).unwrap();
        let report = crate::validate_decomposition(&g, &d);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
        assert!(d.num_colors() >= 2);
        assert!(ledger.rounds() >= 3 * d.num_colors() as u64);
    }

    #[test]
    fn colors_reflect_repetitions() {
        let g = gen::path(9);
        let start = NodeSet::full(9);
        let mut ledger = RoundLedger::new();
        let d = try_decompose_by_carving(&g, &start, 0.5, &mut ledger, toy_carve).unwrap();
        // First repetition clusters the radius-1 ball around node 0.
        assert_eq!(d.color_of(NodeId::new(0)), Some(0));
        crate::validate::assert_strong_decomposition(&g, &d, d.num_colors(), 2);
    }

    #[test]
    #[should_panic(expected = "attempt budget")]
    fn broken_carver_detected() {
        let g = gen::path(4);
        let start = NodeSet::full(4);
        let mut ledger = RoundLedger::new();
        let _ = try_decompose_by_carving(&g, &start, 0.5, &mut ledger, |_, alive, _, _| {
            Ok(BallCarving::new(alive.clone(), vec![]).unwrap())
        });
    }
}
