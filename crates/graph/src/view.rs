//! Induced-subgraph views.
//!
//! The carving algorithms of the paper repeatedly operate on the subgraph
//! `G[S]` induced by the alive set `S`, shrinking `S` as nodes are carved
//! or declared dead. Materializing each induced subgraph would be
//! quadratic over the life of the algorithm, so the crate exposes *views*:
//! lightweight adapters that filter the adjacency of the underlying
//! [`Graph`] through a [`NodeSet`] mask. Every traversal in [`crate::algo`]
//! is generic over [`Adjacency`] and therefore works on both.

use crate::{Graph, NodeId, NodeSet};

/// Read-only adjacency access for a (possibly induced) graph.
///
/// Implementors present a graph over the *index space* `0..universe()`;
/// only indices for which [`contains`](Self::contains) holds are part of
/// the graph. This trait is sealed in spirit — downstream code should not
/// need to implement it — but it is left open so the simulator can wrap
/// views with instrumentation.
///
/// Every implementation obeys one law: `neighbors(v)` is
/// `graph().neighbors(v)` filtered by `contains`, in the same order. The
/// hop BFS ([`crate::algo::bfs_in`] and its bounded and targeted forms)
/// and the MS-BFS's bottom-up levels rely on it: they walk the base CSR
/// row and drop out-of-view neighbours by their own checks (the hop BFS
/// tests `contains` after its cheaper visited stamp; an out-of-view node
/// never carries an MS-BFS frontier bit).
pub trait Adjacency {
    /// Size of the node index space (not the number of alive nodes).
    fn universe(&self) -> usize;

    /// Whether node `v` is part of this view.
    fn contains(&self, v: NodeId) -> bool;

    /// Number of alive nodes.
    fn len(&self) -> usize;

    /// Whether the view has no alive node.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the alive neighbors of `v`.
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Iterates over the alive nodes.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_;

    /// The underlying full graph.
    fn graph(&self) -> &Graph;

    /// The unique identifier of node `v` (delegates to the base graph).
    fn id_of(&self, v: NodeId) -> u64 {
        self.graph().id_of(v)
    }

    /// Number of directed-edge slots of the *base* graph (`2 m`).
    ///
    /// Directed-edge ids live in the index space of the base CSR, not the
    /// view: an induced view keeps the ids of its base graph and simply
    /// leaves the slots of dead-adjacent edges unused. This is what lets
    /// the CONGEST engine address mailboxes in `O(1)` under any view.
    fn directed_edges(&self) -> usize {
        self.graph().directed_edges()
    }

    /// The rank of `to` within `from`'s *base-graph* neighbor list
    /// (`O(log deg(from))`), or `None` if the base edge is absent.
    /// Aliveness is not consulted; combine with
    /// [`contains`](Self::contains) for view-level adjacency.
    fn neighbor_rank(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.graph().neighbor_rank(from, to)
    }

    /// The base-graph directed-edge id of `from -> to`, or `None` if the
    /// base edge is absent (aliveness is not consulted).
    fn directed_edge(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.graph().directed_edge(from, to)
    }

    /// Whether the base graph carries edge weights (delegates to
    /// [`Graph::is_weighted`]).
    fn is_weighted(&self) -> bool {
        self.graph().is_weighted()
    }

    /// The weight of base-graph directed edge slot `e` (1 when
    /// unweighted). Slots are shared with the base graph, so this is
    /// well-defined under any view.
    fn edge_weight(&self, e: usize) -> f64 {
        self.graph().weight(e)
    }

    /// Iterates over the alive neighbors of `v` together with the weight
    /// of the connecting edge (1 on unweighted graphs).
    ///
    /// The iteration order matches [`neighbors`](Self::neighbors)
    /// restricted to alive nodes.
    fn neighbors_weighted(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let g = self.graph();
        g.out_slot_range(v)
            .zip(g.neighbors(v).iter().copied())
            .filter(|&(_, u)| self.contains(u))
            .map(move |(e, u)| (u, self.edge_weight(e)))
    }

    /// The alive node with minimum identifier, or `None` if empty.
    fn min_id_node(&self) -> Option<NodeId> {
        self.nodes().min_by_key(|&v| self.id_of(v))
    }

    /// Collects the alive set into a [`NodeSet`].
    fn to_node_set(&self) -> NodeSet {
        NodeSet::from_nodes(self.universe(), self.nodes())
    }
}

/// View of an entire [`Graph`] (every node alive).
#[derive(Clone, Copy, Debug)]
pub struct FullView<'a> {
    g: &'a Graph,
}

impl<'a> FullView<'a> {
    /// Creates a view over all of `g`.
    pub fn new(g: &'a Graph) -> Self {
        FullView { g }
    }
}

impl Adjacency for FullView<'_> {
    #[inline]
    fn universe(&self) -> usize {
        self.g.n()
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        v.index() < self.g.n()
    }

    #[inline]
    fn len(&self) -> usize {
        self.g.n()
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.g.neighbors(v).iter().copied()
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.g.nodes()
    }

    #[inline]
    fn graph(&self) -> &Graph {
        self.g
    }
}

/// The induced view `G[S]` for an alive set `S`.
#[derive(Clone, Copy, Debug)]
pub struct SubsetView<'a> {
    g: &'a Graph,
    alive: &'a NodeSet,
}

impl<'a> SubsetView<'a> {
    /// Creates the induced view of `alive` in `g`.
    ///
    /// # Panics
    ///
    /// Panics if `alive.universe() != g.n()`.
    pub fn new(g: &'a Graph, alive: &'a NodeSet) -> Self {
        assert_eq!(
            alive.universe(),
            g.n(),
            "alive-set universe must match graph size"
        );
        SubsetView { g, alive }
    }

    /// The alive mask backing this view.
    pub fn alive(&self) -> &'a NodeSet {
        self.alive
    }
}

impl Adjacency for SubsetView<'_> {
    #[inline]
    fn universe(&self) -> usize {
        self.g.n()
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        self.alive.contains(v)
    }

    #[inline]
    fn len(&self) -> usize {
        self.alive.len()
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| self.alive.contains(u))
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive.iter()
    }

    #[inline]
    fn graph(&self) -> &Graph {
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path5() -> Graph {
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn full_view_matches_graph() {
        let g = path5();
        let v = g.full_view();
        assert_eq!(v.len(), 5);
        assert_eq!(v.universe(), 5);
        assert_eq!(
            v.neighbors(NodeId::new(2))
                .map(|u| u.index())
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(v.min_id_node(), Some(NodeId::new(0)));
    }

    #[test]
    fn subset_view_filters_neighbors() {
        let g = path5();
        let alive = NodeSet::from_nodes(5, [0, 1, 2, 4].map(NodeId::new));
        let v = g.view(&alive);
        assert_eq!(v.len(), 4);
        assert!(!v.contains(NodeId::new(3)));
        // Node 2's neighbor 3 is filtered out; node 4 is isolated in the view.
        assert_eq!(
            v.neighbors(NodeId::new(2))
                .map(|u| u.index())
                .collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(v.neighbors(NodeId::new(4)).count(), 0);
        assert_eq!(v.to_node_set(), alive);
    }

    #[test]
    #[should_panic(expected = "universe must match")]
    fn universe_mismatch_panics() {
        let g = path5();
        let alive = NodeSet::empty(4);
        let _ = g.view(&alive);
    }
}
