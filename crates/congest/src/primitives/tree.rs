//! Converge-cast and broadcast over rooted trees.
//!
//! Trees are given by parent pointers (`parent[v] = Some(p)` where `p`
//! must be a view-neighbor of `v`); the tree consists of every node whose
//! parent chain reaches `root`. A converge-cast aggregates a value to the
//! root in `height` rounds with one message per tree edge; a broadcast
//! disseminates the root's value in the same cost.
//!
//! For a *family* of trees sharing edges (the Steiner forests of
//! weak-diameter clusterings), [`charge_family_op`] applies the paper's
//! `R · L` costing: depth `R`, edge-congestion `L`.

use crate::{Outbox, Protocol, RoundLedger};
use sdnd_graph::{Adjacency, NodeId};

/// Structure of a rooted tree extracted from parent pointers.
#[derive(Debug, Clone)]
pub(crate) struct TreeShape {
    /// Nodes of the tree in root-first BFS order.
    pub order: Vec<NodeId>,
    /// Height of the tree (maximum depth), 0 for a singleton.
    pub height: u32,
}

/// Number of tree nodes (the root plus everything with a parent chain).
pub(crate) fn tree_shape(universe: usize, root: NodeId, parent: &[Option<NodeId>]) -> TreeShape {
    let (start, children) = sdnd_graph::algo::children_csr(universe, parent);
    let mut depth = vec![u32::MAX; universe];
    let mut order = Vec::new();
    depth[root.index()] = 0;
    order.push(root);
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &c in &children[start[v.index()]..start[v.index() + 1]] {
            if depth[c.index()] == u32::MAX {
                depth[c.index()] = depth[v.index()] + 1;
                order.push(c);
            }
        }
    }
    let height = order.iter().map(|&v| depth[v.index()]).max().unwrap_or(0);
    TreeShape { order, height }
}

/// Converge-casts the sum of `values` over the tree to the root.
///
/// Charges `height` rounds and one `value_bits`-bit message per non-root
/// tree node. Returns the total.
///
/// # Panics
///
/// Panics (in debug builds) if a parent pointer is not a view edge.
pub fn converge_cast_sum<A: Adjacency>(
    view: &A,
    root: NodeId,
    parent: &[Option<NodeId>],
    values: &[u64],
    value_bits: u32,
    ledger: &mut RoundLedger,
) -> u64 {
    let shape = tree_shape(view.universe(), root, parent);
    debug_assert!(shape
        .order
        .iter()
        .all(|&v| { parent[v.index()].is_none_or(|p| view.neighbors(v).any(|u| u == p)) }));
    let total: u64 = shape.order.iter().map(|&v| values[v.index()]).sum();
    ledger.charge_rounds(shape.height as u64);
    ledger.record_messages(shape.order.len() as u64 - 1, value_bits);
    total
}

/// Broadcasts a `value_bits`-bit value from the root to every tree node.
///
/// Charges `height` rounds and one message per non-root tree node.
/// Returns the set of nodes reached (the tree nodes) in root-first order.
pub fn broadcast_from_root<A: Adjacency>(
    view: &A,
    root: NodeId,
    parent: &[Option<NodeId>],
    value_bits: u32,
    ledger: &mut RoundLedger,
) -> Vec<NodeId> {
    let shape = tree_shape(view.universe(), root, parent);
    debug_assert!(shape
        .order
        .iter()
        .all(|&v| { parent[v.index()].is_none_or(|p| view.neighbors(v).any(|u| u == p)) }));
    ledger.charge_rounds(shape.height as u64);
    ledger.record_messages(shape.order.len() as u64 - 1, value_bits);
    shape.order
}

/// Charges one aggregation/broadcast pass over a *family* of trees with
/// maximum depth `depth` and edge-congestion `congestion`: `depth ·
/// congestion` rounds (the Theorem 2.1 costing) and `messages` messages
/// of `bits_each` bits.
pub fn charge_family_op(
    ledger: &mut RoundLedger,
    depth: u64,
    congestion: u64,
    messages: u64,
    bits_each: u32,
) {
    ledger.charge_rounds(depth * congestion);
    ledger.record_messages(messages, bits_each);
}

/// Kernel program for [`converge_cast_sum`]: each node learns its child
/// count up front (the shape is input, as it is for the fast path), sends
/// its subtree sum once all children have reported.
pub struct ConvergeCastKernel<'a> {
    parent: &'a [Option<NodeId>],
    child_count: Vec<u32>,
    in_tree: Vec<bool>,
    values: &'a [u64],
    value_bits: u32,
}

impl<'a> ConvergeCastKernel<'a> {
    /// Builds the kernel program for the tree rooted at `root`.
    pub fn new(
        universe: usize,
        root: NodeId,
        parent: &'a [Option<NodeId>],
        values: &'a [u64],
        value_bits: u32,
    ) -> Self {
        let shape = tree_shape(universe, root, parent);
        let mut in_tree = vec![false; universe];
        let mut child_count = vec![0u32; universe];
        for &v in &shape.order {
            in_tree[v.index()] = true;
        }
        for &v in &shape.order {
            if let Some(p) = parent[v.index()] {
                child_count[p.index()] += 1;
            }
        }
        ConvergeCastKernel {
            parent,
            child_count,
            in_tree,
            values,
            value_bits,
        }
    }
}

/// Per-node state of [`ConvergeCastKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastState {
    /// Children yet to report.
    pub waiting: u32,
    /// Accumulated subtree sum.
    pub acc: u64,
    /// Whether this node already reported to its parent.
    pub sent: bool,
}

impl Protocol for ConvergeCastKernel<'_> {
    type State = CastState;
    type Msg = u64;

    fn init(&self, node: NodeId, out: &mut Outbox<'_, u64>) -> CastState {
        if !self.in_tree[node.index()] {
            return CastState {
                waiting: 0,
                acc: 0,
                sent: true,
            };
        }
        let waiting = self.child_count[node.index()];
        let acc = self.values[node.index()];
        let mut st = CastState {
            waiting,
            acc,
            sent: false,
        };
        if waiting == 0 {
            if let Some(p) = self.parent[node.index()] {
                out.send(p, st.acc);
                st.sent = true;
            }
        }
        st
    }

    fn step(
        &self,
        _node: NodeId,
        state: &mut CastState,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        for &(_, v) in inbox {
            state.acc += v;
            state.waiting -= 1;
        }
        if state.waiting == 0 && !state.sent {
            if let Some(p) = self.parent[_node.index()] {
                out.send(p, state.acc);
            }
            state.sent = true;
        }
    }

    fn bits(&self, _msg: &u64) -> u32 {
        self.value_bits
    }
}

/// Kernel program for [`broadcast_from_root`].
pub struct BroadcastKernel<'a> {
    children: Vec<Vec<NodeId>>,
    root: NodeId,
    value: u64,
    value_bits: u32,
    _parent: &'a [Option<NodeId>],
}

impl<'a> BroadcastKernel<'a> {
    /// Builds the kernel program broadcasting `value` down the tree.
    pub fn new(
        universe: usize,
        root: NodeId,
        parent: &'a [Option<NodeId>],
        value: u64,
        value_bits: u32,
    ) -> Self {
        let shape = tree_shape(universe, root, parent);
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); universe];
        for &v in &shape.order {
            if let Some(p) = parent[v.index()] {
                children[p.index()].push(v);
            }
        }
        BroadcastKernel {
            children,
            root,
            value,
            value_bits,
            _parent: parent,
        }
    }
}

impl Protocol for BroadcastKernel<'_> {
    type State = Option<u64>;
    type Msg = u64;

    fn init(&self, node: NodeId, out: &mut Outbox<'_, u64>) -> Option<u64> {
        if node == self.root {
            for &c in &self.children[node.index()] {
                out.send(c, self.value);
            }
            Some(self.value)
        } else {
            None
        }
    }

    fn step(
        &self,
        node: NodeId,
        state: &mut Option<u64>,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        if state.is_none() {
            *state = Some(inbox[0].1);
            for &c in &self.children[node.index()] {
                out.send(c, inbox[0].1);
            }
        }
    }

    fn bits(&self, _msg: &u64) -> u32 {
        self.value_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Engine};
    use sdnd_graph::{gen, Adjacency};

    /// Builds a BFS tree over the view and returns (root, parents).
    fn bfs_tree<A: Adjacency>(view: &A, root: NodeId) -> Vec<Option<NodeId>> {
        let mut ledger = RoundLedger::new();
        let b = super::super::bfs(view, [root], u32::MAX, &mut ledger);
        b.parents().to_vec()
    }

    #[test]
    fn shape_of_path_tree() {
        let g = gen::path(5);
        let parents = bfs_tree(&g.full_view(), NodeId::new(0));
        let shape = tree_shape(5, NodeId::new(0), &parents);
        assert_eq!(shape.height, 4);
        assert_eq!(shape.order.len(), 5);
    }

    #[test]
    fn converge_cast_cross_validation() {
        for (g, root) in [
            (gen::grid(4, 5), NodeId::new(7)),
            (gen::path(9), NodeId::new(0)),
            (gen::gnp_connected(30, 0.1, 5), NodeId::new(2)),
        ] {
            let view = g.full_view();
            let parents = bfs_tree(&view, root);
            let values: Vec<u64> = (0..g.n() as u64).map(|i| i % 7 + 1).collect();
            let bits = crate::bits_for_value(values.iter().sum());

            let mut ledger = RoundLedger::new();
            let fast = converge_cast_sum(&view, root, &parents, &values, bits, &mut ledger);

            let kernel = ConvergeCastKernel::new(g.n(), root, &parents, &values, bits);
            // Session-run twice: casts are the sparse-traffic shape the
            // arena-reuse path exists for.
            let mut session = Engine::new(CostModel::congest_for(g.n())).session(&g);
            let out = session.run(&view, &kernel).unwrap();
            let rerun = session.run(&view, &kernel).unwrap();
            assert_eq!(out.states, rerun.states, "session rerun states");
            assert_eq!(out.ledger, rerun.ledger, "session rerun ledger");
            let kernel_sum = out.states[root.index()].as_ref().unwrap().acc;

            assert_eq!(fast, kernel_sum);
            assert_eq!(fast, values.iter().sum::<u64>());
            assert_eq!(out.rounds, ledger.rounds(), "round mismatch");
            assert_eq!(out.ledger.messages(), ledger.messages(), "message mismatch");
            assert_eq!(out.ledger.total_bits(), ledger.total_bits());
        }
    }

    #[test]
    fn broadcast_cross_validation() {
        let g = gen::grid(5, 5);
        let view = g.full_view();
        let root = NodeId::new(12);
        let parents = bfs_tree(&view, root);

        let mut ledger = RoundLedger::new();
        let reached = broadcast_from_root(&view, root, &parents, 16, &mut ledger);
        assert_eq!(reached.len(), 25);

        let kernel = BroadcastKernel::new(g.n(), root, &parents, 99, 16);
        let out = Engine::new(CostModel::congest_for(g.n()))
            .run(&view, &kernel)
            .unwrap();
        assert!(out.states.iter().all(|s| *s == Some(Some(99))));
        assert_eq!(out.rounds, ledger.rounds());
        assert_eq!(out.ledger.messages(), ledger.messages());
    }

    #[test]
    fn singleton_tree_costs_nothing() {
        let g = gen::path(3);
        let parents = vec![None, None, None];
        let mut ledger = RoundLedger::new();
        let sum = converge_cast_sum(
            &g.full_view(),
            NodeId::new(1),
            &parents,
            &[5, 7, 9],
            8,
            &mut ledger,
        );
        assert_eq!(sum, 7);
        assert_eq!(ledger.rounds(), 0);
        assert_eq!(ledger.messages(), 0);
    }

    #[test]
    fn partial_tree_only_aggregates_members() {
        // Path 0-1-2-3; tree contains only 0 <- 1 (2 and 3 detached).
        let g = gen::path(4);
        let parents = vec![None, Some(NodeId::new(0)), None, None];
        let mut ledger = RoundLedger::new();
        let sum = converge_cast_sum(
            &g.full_view(),
            NodeId::new(0),
            &parents,
            &[1, 2, 4, 8],
            8,
            &mut ledger,
        );
        assert_eq!(sum, 3);
        assert_eq!(ledger.rounds(), 1);
    }

    #[test]
    fn family_charge() {
        let mut ledger = RoundLedger::new();
        charge_family_op(&mut ledger, 10, 3, 100, 8);
        assert_eq!(ledger.rounds(), 30);
        assert_eq!(ledger.messages(), 100);
    }
}
