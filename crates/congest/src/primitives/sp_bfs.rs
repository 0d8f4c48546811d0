//! Distributed weighted BFS (shortest-path flooding).
//!
//! The weighted analogue of [`super::bfs`]: synchronous distributed
//! Bellman–Ford. Every node keeps its best known distance from the
//! source set; whenever it improves, it broadcasts the new value to all
//! alive neighbors in the next round, and receivers relax over the
//! weight of the delivering edge. On a graph with positive integer
//! weights bounded by `W` this is the textbook `SpBfs` primitive:
//! messages carry a distance value of `O(log(nW))` bits (the standard
//! weighted-CONGEST assumption of polynomially bounded weights) and the
//! execution quiesces after at most `hop-diameter + 1` rounds per
//! improvement wave.
//!
//! Two forms, proven equivalent by the cross-validation tests:
//!
//! - [`sp_bfs_in`] — the fast path: a literal synchronous simulation of
//!   the relaxation waves in a [`TraversalWorkspace`], charging the same
//!   rounds/messages to a [`RoundLedger`] and returning the weighted run
//!   view ([`SpRun`]) with its round count; [`sp_bfs`] returns the
//!   owned copy ([`SpResult`]). Its distances equal sequential Dijkstra
//!   ([`sdnd_graph::algo::dijkstra`]), which the tests also pin.
//! - [`SpBfsKernel`] — the node program on the message-passing
//!   [`Engine`](crate::Engine).

use crate::{bits_for_value, Outbox, Protocol, RoundLedger};
use sdnd_graph::algo::{SpResult, SpRun, TraversalWorkspace, W_UNREACHED};
use sdnd_graph::{Adjacency, Graph, NodeId};

/// Bit size of one distance message on `view`: distances are at most
/// `(n - 1) · ceil(max weight)`, the standard `O(log (n W))` encoding.
fn dist_bits<A: Adjacency>(view: &A) -> u32 {
    let n = view.universe().max(2) as u64;
    let w = view.graph().max_edge_weight().ceil().max(1.0) as u64;
    bits_for_value((n - 1).saturating_mul(w))
}

/// Runs a distributed weighted BFS from `sources` over `view`, truncated
/// at weighted distance `r_max` (inclusive), charging rounds and
/// messages to `ledger`, into a throwaway workspace; returns the owned
/// copy of the [`sp_bfs_in`] run. Its parents are the relaxation
/// parents: the neighbour whose message set the final distance
/// (minimum-index tie-break).
pub fn sp_bfs<A, I>(view: &A, sources: I, r_max: f64, ledger: &mut RoundLedger) -> SpResult
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    let mut ws = TraversalWorkspace::new();
    let (run, _rounds) = sp_bfs_in(view, sources, r_max, ledger, &mut ws);
    SpResult::from_run(view.universe(), &run)
}

/// The distributed weighted BFS into a caller-held workspace: the
/// relaxation waves run over the stamped weighted arena (candidates in
/// the auxiliary lane) with no per-call allocation. Returns the run and
/// the number of synchronous rounds the flooding used (the round charge
/// made to `ledger`).
///
/// Semantics: a node adopts a candidate distance only if it is at most
/// `r_max`; a node at distance `d < r_max` re-broadcasts each time its
/// distance improves. The round charge is the last round in which any
/// message is delivered.
pub fn sp_bfs_in<'w, A, I>(
    view: &A,
    sources: I,
    r_max: f64,
    ledger: &mut RoundLedger,
    ws: &'w mut TraversalWorkspace,
) -> (SpRun<'w>, u64)
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    const NO_NODE: u32 = u32::MAX;
    let bits = dist_bits(view);
    let mut sends = 0u64;
    let mut last_delivery = 0u64;
    let mut round = 0u64;
    {
        let mut p = ws.begin_sp(view.universe());
        for s in sources {
            if view.contains(s) && !p.reached(s) {
                p.set_dist(s, 0.0, NO_NODE);
                p.frontier.push(s);
            }
        }
        p.frontier.sort_unstable();

        while !p.frontier.is_empty() {
            round += 1;
            let mut delivered = false;
            p.touched.clear();
            // Senders broadcast in ascending index order — together with
            // the strict `<` below this reproduces the kernel's
            // sorted-inbox, minimum-sender tie-break exactly.
            for fi in 0..p.frontier.len() {
                let v = p.frontier[fi];
                if p.dist[v.index()] >= r_max {
                    continue;
                }
                for (u, w) in view.neighbors_weighted(v) {
                    delivered = true;
                    sends += 1;
                    // Saturate: an overflowing sum must stay a finite
                    // (huge) distance rather than aliasing the
                    // `W_UNREACHED` infinity sentinel.
                    let c = (p.dist[v.index()] + w).min(f64::MAX);
                    let ui = u.index();
                    // Candidate lane: unstamped entries read as
                    // unreached, and entries are reset (not unstamped)
                    // at the end of each round.
                    let cur = if p.aux_stamp[ui] == p.epoch {
                        p.aux_dist[ui]
                    } else {
                        W_UNREACHED
                    };
                    if c < cur {
                        if cur == W_UNREACHED {
                            p.touched.push(u);
                        }
                        p.aux_stamp[ui] = p.epoch;
                        p.aux_dist[ui] = c;
                        p.aux_from[ui] = v.index() as u32;
                    }
                }
            }
            if delivered {
                last_delivery = round;
            }
            p.frontier.clear();
            p.touched.sort_unstable();
            for ti in 0..p.touched.len() {
                let u = p.touched[ti];
                let ui = u.index();
                let c = p.aux_dist[ui];
                if c <= r_max && c < p.dist_of(u) {
                    let from = p.aux_from[ui];
                    p.set_dist(u, c, from);
                    p.frontier.push(u);
                }
                p.aux_dist[ui] = W_UNREACHED;
            }
        }
        let dist = &*p.dist;
        p.order
            .sort_unstable_by(|&a, &b| dist[a.index()].total_cmp(&dist[b.index()]).then(a.cmp(&b)));
    }
    ledger.charge_rounds(last_delivery);
    ledger.record_messages(sends, bits);
    (ws.sp_run(), last_delivery)
}

/// Kernel node program computing the same weighted BFS on the
/// [`Engine`](crate::Engine); cross-validated against [`sp_bfs`] and
/// sequential Dijkstra by the test suite.
///
/// The program holds the base [`Graph`] to look up the weight of the
/// delivering edge, walking the receiver's CSR row alongside its
/// sender-sorted inbox; forwarding uses [`Outbox::broadcast`], so the
/// kernel runs unchanged under any view.
pub struct SpBfsKernel<'g> {
    g: &'g Graph,
    is_source: Vec<bool>,
    r_max: f64,
    bits: u32,
}

impl<'g> SpBfsKernel<'g> {
    /// Creates the kernel program for the given sources and weighted
    /// radius bound.
    pub fn new<A, I>(view: &'g A, sources: I, r_max: f64) -> Self
    where
        A: Adjacency,
        I: IntoIterator<Item = NodeId>,
    {
        let mut is_source = vec![false; view.universe()];
        for s in sources {
            if view.contains(s) {
                is_source[s.index()] = true;
            }
        }
        SpBfsKernel {
            g: view.graph(),
            is_source,
            r_max,
            bits: dist_bits(view),
        }
    }
}

/// Per-node state of [`SpBfsKernel`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpBfsState {
    /// Best known weighted distance, if any.
    pub dist: Option<f64>,
    /// Minimum-index neighbor whose message set the current distance.
    pub parent: Option<NodeId>,
}

impl Protocol for SpBfsKernel<'_> {
    type State = SpBfsState;
    type Msg = f64; // the sender's current distance

    fn init(&self, node: NodeId, out: &mut Outbox<'_, f64>) -> SpBfsState {
        if self.is_source[node.index()] {
            if 0.0 < self.r_max {
                out.broadcast(0.0);
            }
            SpBfsState {
                dist: Some(0.0),
                parent: None,
            }
        } else {
            SpBfsState {
                dist: None,
                parent: None,
            }
        }
    }

    fn step(
        &self,
        node: NodeId,
        state: &mut SpBfsState,
        inbox: &[(NodeId, f64)],
        out: &mut Outbox<'_, f64>,
    ) {
        let mut best = state.dist.unwrap_or(W_UNREACHED);
        let mut best_from = None;
        // The inbox is sorted by sender, and so is the node's CSR row:
        // one walk along the row finds the slot of every delivering edge,
        // `O(deg)` per step.
        let (row, first_slot) = (self.g.neighbors(node), self.g.out_slot_range(node).start);
        let mut rank = 0;
        for &(from, d_from) in inbox {
            while row[rank] != from {
                rank += 1;
            }
            let w = self.g.weight(first_slot + rank);
            // Same saturation as the fast path: keep overflowing sums
            // finite instead of aliasing the unreached sentinel.
            let c = (d_from + w).min(f64::MAX);
            if c <= self.r_max && c < best {
                best = c;
                best_from = Some(from);
            }
        }
        if let Some(from) = best_from {
            state.dist = Some(best);
            state.parent = Some(from);
            if best < self.r_max {
                out.broadcast(best);
            }
        }
    }

    fn bits(&self, _msg: &f64) -> u32 {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Engine};
    use sdnd_graph::{algo, gen, Graph, NodeSet};

    fn cross_validate<A: Adjacency>(view: &A, sources: &[NodeId], r_max: f64) {
        let mut ledger = RoundLedger::new();
        let fast = sp_bfs(view, sources.iter().copied(), r_max, &mut ledger);

        let kernel = SpBfsKernel::new(view, sources.iter().copied(), r_max);
        let engine = Engine::new(CostModel::congest_for(view.universe()));
        let mut session = engine.session(view.graph());
        let out = session.run(view, &kernel).expect("kernel run succeeds");
        let rerun = session.run(view, &kernel).expect("kernel rerun succeeds");
        assert_eq!(out.rounds, rerun.rounds, "session rerun rounds");
        assert_eq!(out.states, rerun.states, "session rerun states");

        for i in 0..view.universe() {
            let v = NodeId::new(i);
            let kdist = out.states[i].as_ref().and_then(|s| s.dist);
            let fdist = fast.reached(v).then(|| fast.dist(v));
            assert_eq!(kdist, fdist, "dist mismatch at {v:?}");
            if view.contains(v) {
                let kparent = out.states[i].as_ref().and_then(|s| s.parent);
                assert_eq!(kparent, fast.parent(v), "parent mismatch at {v:?}");
            }
        }
        assert_eq!(out.rounds, ledger.rounds(), "round charge mismatch");
        assert_eq!(
            out.ledger.messages(),
            ledger.messages(),
            "message count mismatch"
        );
        assert_eq!(
            out.ledger.total_bits(),
            ledger.total_bits(),
            "bit count mismatch"
        );

        // The fast path's distances are Dijkstra's (unbounded runs).
        if r_max == f64::INFINITY {
            let d = algo::dijkstra(view, sources.iter().copied());
            for i in 0..view.universe() {
                let v = NodeId::new(i);
                assert_eq!(fast.dist(v), d.dist(v), "dijkstra mismatch at {v:?}");
            }
        }
    }

    fn weighted_gnp(n: usize, p: f64, seed: u64) -> Graph {
        gen::reweight(
            &gen::gnp_connected(n, p, seed),
            gen::WeightDist::UniformInt { lo: 1, hi: 8 },
            seed,
        )
        .unwrap()
    }

    #[test]
    fn cross_validate_weighted_grid() {
        let g = gen::grid_weighted(5, 6, gen::WeightDist::UniformInt { lo: 1, hi: 5 }, 3).unwrap();
        cross_validate(&g.full_view(), &[NodeId::new(0)], f64::INFINITY);
    }

    #[test]
    fn cross_validate_multi_source_and_bounds() {
        let g = weighted_gnp(30, 0.1, 1);
        cross_validate(
            &g.full_view(),
            &[NodeId::new(0), NodeId::new(7)],
            f64::INFINITY,
        );
        cross_validate(&g.full_view(), &[NodeId::new(3)], 6.0);
        cross_validate(&g.full_view(), &[NodeId::new(3)], 0.0);
    }

    #[test]
    fn cross_validate_subset_view() {
        let g = weighted_gnp(24, 0.15, 2);
        let alive = NodeSet::from_nodes(24, (0..24).filter(|&i| i % 5 != 4).map(NodeId::new));
        let view = g.view(&alive);
        cross_validate(&view, &[NodeId::new(0)], f64::INFINITY);
    }

    #[test]
    fn cross_validate_random_seeds() {
        for seed in 0..4 {
            let g = weighted_gnp(32, 0.12, seed);
            cross_validate(&g.full_view(), &[NodeId::new(5)], f64::INFINITY);
        }
    }

    #[test]
    fn unweighted_graph_degenerates_to_bfs() {
        let g = gen::gnp_connected(40, 0.08, 9);
        let mut wl = RoundLedger::new();
        let sp = sp_bfs(&g.full_view(), [NodeId::new(0)], f64::INFINITY, &mut wl);
        let mut hl = RoundLedger::new();
        let hop = super::super::bfs(&g.full_view(), [NodeId::new(0)], u32::MAX, &mut hl);
        for v in g.nodes() {
            assert_eq!(sp.dist(v), hop.dist(v) as f64, "distance at {v}");
        }
        assert_eq!(wl.rounds(), hl.rounds(), "same waves, same rounds");
        assert_eq!(wl.messages(), hl.messages(), "same broadcasts");
    }

    #[test]
    fn heavy_edge_forces_late_correction() {
        // 0 -10- 2 and 0 -1- 1 -1- 2: node 2 first hears 10, then 2.
        let g = Graph::from_weighted_edges(3, [(0, 2, 10.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        cross_validate(&g.full_view(), &[NodeId::new(0)], f64::INFINITY);
        let mut ws = TraversalWorkspace::new();
        let mut ledger = RoundLedger::new();
        let (sp, rounds) = sp_bfs_in(
            &g.full_view(),
            [NodeId::new(0)],
            f64::INFINITY,
            &mut ledger,
            &mut ws,
        );
        assert_eq!(sp.dist(NodeId::new(2)), 2.0);
        assert_eq!(sp.parent(NodeId::new(2)), Some(NodeId::new(1)));
        // Round 1 delivers 10 to node 2; round 2 corrects to 2 via node 1;
        // round 3 is node 2's (useless) re-broadcast.
        assert_eq!(rounds, 3);
        assert_eq!(ledger.rounds(), rounds);
    }

    #[test]
    fn ball_queries_and_order() {
        let g = Graph::from_weighted_edges(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 3.0)]).unwrap();
        let mut ledger = RoundLedger::new();
        let sp = sp_bfs(&g.full_view(), [NodeId::new(0)], f64::INFINITY, &mut ledger);
        assert_eq!(sp.eccentricity(), Some(5.5));
        assert_eq!(sp.ball_count(2.5), 3);
        assert_eq!(sp.ball(2.0).count(), 2);
        let dists: Vec<f64> = sp.order().iter().map(|&v| sp.dist(v)).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn extreme_weights_saturate_instead_of_reading_unreached() {
        // Two f64::MAX hops in a row: the naive sum is +inf, which would
        // alias the unreached sentinel and make node 2 look unreachable.
        let g = Graph::from_weighted_edges(3, [(0, 1, f64::MAX), (1, 2, f64::MAX)]).unwrap();
        let mut ledger = RoundLedger::new();
        let sp = sp_bfs(&g.full_view(), [NodeId::new(0)], f64::INFINITY, &mut ledger);
        assert!(
            sp.reached(NodeId::new(2)),
            "saturated distance stays finite"
        );
        assert_eq!(sp.dist(NodeId::new(2)), f64::MAX);
        // (No kernel cross-check here: a distance this large exceeds the
        // CONGEST message-bit budget by construction.)
    }

    #[test]
    fn isolated_source_charges_nothing() {
        let g = Graph::empty(3);
        let mut ledger = RoundLedger::new();
        let sp = sp_bfs(&g.full_view(), [NodeId::new(1)], f64::INFINITY, &mut ledger);
        assert_eq!(sp.reached_count(), 1);
        assert_eq!(ledger.rounds(), 0);
        assert_eq!(ledger.messages(), 0);
    }

    #[test]
    fn message_bits_fit_congest_for_small_weights() {
        let g = weighted_gnp(64, 0.08, 4);
        let cost = CostModel::congest_for(64);
        assert!(
            cost.fits(dist_bits(&g.full_view())),
            "O(log nW) distances fit the CONGEST budget for W = 8"
        );
    }
}
