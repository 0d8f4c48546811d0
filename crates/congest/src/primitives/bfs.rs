//! Distributed breadth-first search.
//!
//! BFS tokens carry the hop count, so a message costs
//! `bits_for_value(universe)` bits — comfortably within the CONGEST
//! budget. A node at distance `d < r_max` forwards the token to all its
//! neighbors in the round after it is discovered; discovery of layer `d`
//! therefore happens in round `d`, and the run quiesces one round after
//! the last forwarding layer.

use crate::{bits_for_value, Outbox, Protocol, RoundLedger};
use sdnd_graph::algo::{BfsResult, BfsRun, TraversalWorkspace, MAX_HOP_DIST};
use sdnd_graph::{Adjacency, NodeId};

/// Runs a distributed BFS from `sources` over `view`, truncated at
/// distance `r_max` (inclusive), charging rounds and messages to
/// `ledger`, into a throwaway workspace; returns the owned copy of the
/// [`bfs_in`] run. Its parents are the kernel's: the *minimum-index*
/// neighbour one layer closer.
///
/// Round charge: every node at distance `d < r_max` with at least one
/// alive neighbor forwards the token in round `d + 1`; the charge is the
/// last such delivery round (0 if nobody forwards).
pub fn bfs<A, I>(view: &A, sources: I, r_max: u32, ledger: &mut RoundLedger) -> BfsResult
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    let mut ws = TraversalWorkspace::new();
    let run = bfs_in(view, sources, r_max, ledger, &mut ws);
    BfsResult::from_run(view.universe(), &run)
}

/// The distributed BFS of [`bfs`] into a caller-held workspace: no
/// per-call allocation, and the discovery loop is **fused
/// single-pass** — the kernel-consistent minimum-index parents and the
/// round/message charges are accumulated during discovery itself (each
/// node's alive neighborhood is swept exactly once).
pub fn bfs_in<'w, A, I>(
    view: &A,
    sources: I,
    r_max: u32,
    ledger: &mut RoundLedger,
    ws: &'w mut TraversalWorkspace,
) -> BfsRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    const NO_NODE: u32 = u32::MAX;
    // `du + 1` below must never mint the `UNREACHED` sentinel: with an
    // unbounded `r_max = u32::MAX` a (hypothetical) path of 2^32 hops
    // would wrap a discovered distance into "unreached". Clamping the
    // bound to `MAX_HOP_DIST` is value-identical for every realizable
    // input (hop distances are < universe < 2^32 - 1).
    let r_max = r_max.min(MAX_HOP_DIST);
    let n = view.universe();
    let token_bits = bits_for_value(n.max(2) as u64 - 1);
    let mut sends = 0u64;
    let mut last_delivery = 0u64;
    {
        let mut p = ws.begin_hop(n);
        for s in sources {
            if view.contains(s) && !p.reached(s) {
                p.visit(s, 0, NO_NODE);
            }
        }
        if !p.order.is_empty() {
            p.layer_sizes.push(p.order.len());
        }
        let mut head = 0usize;
        while head < p.order.len() {
            let u = p.order[head];
            head += 1;
            let du = p.dist[u.index()];
            let forwards = du < r_max;
            if !forwards && du == 0 {
                // A source barred from forwarding needs no parent either:
                // skip the neighborhood sweep entirely (and charge
                // nothing), exactly like the unfused accounting.
                continue;
            }
            // One fused sweep: discover the next layer, pick the
            // minimum-index parent among the previous layer, and count
            // the alive degree for the message charge.
            let mut min_parent = NO_NODE;
            let mut deg = 0u64;
            for v in view.neighbors(u) {
                deg += 1;
                let vi = v.index();
                if p.reached(v) {
                    // Everything at distance du - 1 is final before u is
                    // popped (FIFO layer invariant), so the parent choice
                    // here equals the post-hoc minimum of the unfused path.
                    if du > 0 && p.dist[vi] == du - 1 && (vi as u32) < min_parent {
                        min_parent = vi as u32;
                    }
                } else if forwards {
                    if p.layer_sizes.len() <= (du + 1) as usize {
                        p.layer_sizes.push(0);
                    }
                    p.layer_sizes[(du + 1) as usize] += 1;
                    p.visit(v, du + 1, NO_NODE);
                }
            }
            if du > 0 {
                p.parent[u.index()] = min_parent;
            }
            if forwards && deg > 0 {
                sends += deg;
                last_delivery = last_delivery.max(du as u64 + 1);
            }
        }
        p.seal();
    }
    ledger.charge_rounds(last_delivery);
    ledger.record_messages(sends, token_bits);
    ws.hop_run()
}

/// Kernel node program computing the same BFS on the
/// [`Engine`](crate::Engine); used by the cross-validation tests.
///
/// The program is view-independent: forwarding uses
/// [`Outbox::broadcast`], which reaches exactly the alive neighbors, so
/// the kernel only carries the source set and the radius bound.
pub struct BfsKernel {
    is_source: Vec<bool>,
    r_max: u32,
    token_bits: u32,
}

impl BfsKernel {
    /// Creates the kernel program for the given sources and radius bound.
    pub fn new<A, I>(view: &A, sources: I, r_max: u32) -> Self
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
        let token_bits = bits_for_value(view.universe().max(2) as u64 - 1);
        BfsKernel {
            is_source,
            // Same sentinel guard as `bfs_in`: `d + 1` in `step` must not
            // overflow when the caller passes an unbounded radius.
            r_max: r_max.min(MAX_HOP_DIST),
            token_bits,
        }
    }
}

/// Per-node state of [`BfsKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsKernelState {
    /// Discovered distance, if any.
    pub dist: Option<u32>,
    /// Minimum-index sender that delivered the first token.
    pub parent: Option<NodeId>,
}

impl Protocol for BfsKernel {
    type State = BfsKernelState;
    type Msg = u32; // hop count of the sender + 1

    fn init(&self, node: NodeId, out: &mut Outbox<'_, u32>) -> BfsKernelState {
        if self.is_source[node.index()] {
            if self.r_max > 0 {
                out.broadcast(1);
            }
            BfsKernelState {
                dist: Some(0),
                parent: None,
            }
        } else {
            BfsKernelState {
                dist: None,
                parent: None,
            }
        }
    }

    fn step(
        &self,
        _node: NodeId,
        state: &mut BfsKernelState,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<'_, u32>,
    ) {
        if state.dist.is_some() {
            return;
        }
        let d = inbox
            .iter()
            .map(|&(_, h)| h)
            .min()
            .expect("step with nonempty inbox");
        state.dist = Some(d);
        state.parent = inbox
            .iter()
            .filter(|&&(_, h)| h == d)
            .map(|&(from, _)| from)
            .min();
        if d < self.r_max {
            out.broadcast(d + 1);
        }
    }

    fn bits(&self, _msg: &u32) -> u32 {
        self.token_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Engine};
    use sdnd_graph::{gen, NodeSet};

    fn cross_validate<A: Adjacency>(view: &A, sources: &[NodeId], r_max: u32) {
        let mut ledger = RoundLedger::new();
        let fast = bfs(view, sources.iter().copied(), r_max, &mut ledger);

        let kernel = BfsKernel::new(view, sources.iter().copied(), r_max);
        let engine = Engine::new(CostModel::congest_for(view.universe()));
        // Kernel runs go through a session, twice, so the suite also pins
        // that back-to-back arena reuse changes nothing.
        let mut session = engine.session(view.graph());
        let out = session.run(view, &kernel).expect("kernel run succeeds");
        let rerun = session.run(view, &kernel).expect("kernel rerun succeeds");
        assert_eq!(out.rounds, rerun.rounds, "session rerun rounds");
        assert_eq!(out.ledger, rerun.ledger, "session rerun ledger");
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
    }

    #[test]
    fn cross_validate_grid() {
        let g = gen::grid(5, 6);
        cross_validate(&g.full_view(), &[NodeId::new(0)], u32::MAX);
    }

    #[test]
    fn cross_validate_multi_source() {
        let g = gen::cycle(17);
        cross_validate(&g.full_view(), &[NodeId::new(0), NodeId::new(8)], u32::MAX);
    }

    #[test]
    fn cross_validate_bounded() {
        let g = gen::path(12);
        cross_validate(&g.full_view(), &[NodeId::new(0)], 4);
        cross_validate(&g.full_view(), &[NodeId::new(5)], 0);
    }

    #[test]
    fn cross_validate_subset_view() {
        let g = gen::grid(4, 4);
        let alive = NodeSet::from_nodes(16, (0..16).filter(|&i| i != 5 && i != 6).map(NodeId::new));
        let view = g.view(&alive);
        cross_validate(&view, &[NodeId::new(0)], u32::MAX);
    }

    #[test]
    fn cross_validate_random() {
        for seed in 0..4 {
            let g = gen::gnp_connected(40, 0.08, seed);
            cross_validate(&g.full_view(), &[NodeId::new(3)], u32::MAX);
            cross_validate(&g.full_view(), &[NodeId::new(3)], 2);
        }
    }

    #[test]
    fn ball_and_layers() {
        let g = gen::path(8);
        let mut ledger = RoundLedger::new();
        let r = bfs(&g.full_view(), [NodeId::new(0)], u32::MAX, &mut ledger);
        assert_eq!(r.ball_sizes(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(r.ball(3).count(), 4);
        assert_eq!(r.eccentricity(), Some(7));
        assert_eq!(
            ledger.rounds(),
            8,
            "layer 6 forwards in round 7; node 7 forwards in round 8"
        );
    }

    #[test]
    fn ball_size_clamps_beyond_eccentricity() {
        let g = gen::path(5);
        let mut ledger = RoundLedger::new();
        let r = bfs(&g.full_view(), [NodeId::new(0)], u32::MAX, &mut ledger);
        // In range: agrees with the raw slice.
        assert_eq!(r.ball_size(0), 1);
        assert_eq!(r.ball_size(4), 5);
        // Beyond the eccentricity the ball has stopped growing; the raw
        // slice would panic here.
        assert_eq!(r.ball_size(5), 5);
        assert_eq!(r.ball_size(u32::MAX), 5);

        // Nothing reached: no sources at all.
        let mut ledger = RoundLedger::new();
        let empty = bfs(&g.full_view(), std::iter::empty(), u32::MAX, &mut ledger);
        assert_eq!(empty.ball_size(0), 0);
        assert_eq!(empty.ball_size(7), 0);
    }

    #[test]
    fn unbounded_radius_is_clamped_below_the_sentinel() {
        // `r_max = u32::MAX` must behave exactly like `MAX_HOP_DIST`:
        // the forwarding guard may never produce `du + 1 == UNREACHED`.
        let g = gen::path(9);
        let mut a = RoundLedger::new();
        let mut b = RoundLedger::new();
        let unbounded = bfs(&g.full_view(), [NodeId::new(0)], u32::MAX, &mut a);
        let clamped = bfs(&g.full_view(), [NodeId::new(0)], MAX_HOP_DIST, &mut b);
        for i in 0..9 {
            let v = NodeId::new(i);
            assert_eq!(unbounded.dist(v), clamped.dist(v));
            assert_eq!(unbounded.parent(v), clamped.parent(v));
        }
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.messages(), b.messages());
        // The kernel stores the clamped bound too, so its `d + 1`
        // broadcast can't wrap either.
        cross_validate(&g.full_view(), &[NodeId::new(0)], u32::MAX);
    }

    #[test]
    fn isolated_source_charges_nothing() {
        let g = sdnd_graph::Graph::empty(3);
        let mut ledger = RoundLedger::new();
        let r = bfs(&g.full_view(), [NodeId::new(1)], u32::MAX, &mut ledger);
        assert_eq!(r.reached_count(), 1);
        assert_eq!(ledger.rounds(), 0);
        assert_eq!(ledger.messages(), 0);
    }
}
