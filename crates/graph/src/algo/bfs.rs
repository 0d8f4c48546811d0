//! Breadth-first search: the owned copy of a workspace run.

use crate::{Adjacency, NodeId};

/// Distance value for nodes not reached by a BFS.
pub const UNREACHED: u32 = u32::MAX;

/// An owned copy of one hop traversal ([`super::BfsRun`]), for callers
/// that keep a result past the workspace's next run.
///
/// Distances are measured in the view the search ran on; nodes outside the
/// view or in other components carry [`UNREACHED`]. Parents are the
/// run's: discovery order for [`bfs`] and [`super::bfs_in`], the
/// minimum-index neighbour one layer closer for the CONGEST primitives.
#[derive(Debug, Clone)]
pub struct BfsResult {
    dist: Vec<u32>,
    parent: Vec<Option<NodeId>>,
    order: Vec<NodeId>,
    layer_sizes: Vec<usize>,
    ball_sizes: Vec<usize>,
}

impl BfsResult {
    /// Copies a workspace run over a view of `universe` nodes.
    pub fn from_run(universe: usize, run: &super::BfsRun<'_>) -> BfsResult {
        let mut dist = vec![UNREACHED; universe];
        let mut parent: Vec<Option<NodeId>> = vec![None; universe];
        for &v in run.order() {
            dist[v.index()] = run.dist(v);
            parent[v.index()] = run.parent(v);
        }
        BfsResult {
            dist,
            parent,
            order: run.order().to_vec(),
            layer_sizes: run.layer_sizes().to_vec(),
            ball_sizes: run.ball_sizes().to_vec(),
        }
    }

    /// Distance from the source set to `v`, or [`UNREACHED`].
    #[inline]
    pub fn dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()] != UNREACHED
    }

    /// BFS-tree parent of `v` (`None` for sources and unreached nodes).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The full parent vector, indexed by node.
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// The reached nodes in non-decreasing distance order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of reached nodes.
    pub fn reached_count(&self) -> usize {
        self.order.len()
    }

    /// `layer_sizes()[d]` is the number of nodes at distance exactly `d`.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// Cumulative ball sizes: `ball_sizes()[r] = |B_r|`, the number of
    /// nodes within distance `r` of the source set. Prefix sums are
    /// computed once when the search finishes, not per call.
    pub fn ball_sizes(&self) -> &[usize] {
        &self.ball_sizes
    }

    /// Number of reached nodes within distance `r`, clamped: any `r`
    /// beyond the eccentricity returns the total reached count, and an
    /// empty result returns 0 (where `ball_sizes()[r]` would panic).
    pub fn ball_size(&self, r: u32) -> usize {
        match self.ball_sizes.len() {
            0 => 0,
            len => self.ball_sizes[(r as usize).min(len - 1)],
        }
    }

    /// The largest distance reached, i.e. the eccentricity of the source
    /// set within its component. `None` if nothing was reached.
    pub fn eccentricity(&self) -> Option<u32> {
        if self.layer_sizes.is_empty() {
            None
        } else {
            Some(self.layer_sizes.len() as u32 - 1)
        }
    }

    /// All reached nodes with distance at most `r`, in BFS order.
    pub fn ball(&self, r: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.order
            .iter()
            .copied()
            .take_while(move |&v| self.dist(v) <= r)
    }
}

/// Runs a full BFS from the given source set over `view` into a
/// throwaway workspace and returns the owned result; repeated callers
/// hold a [`super::TraversalWorkspace`] and use [`super::bfs_in`].
///
/// Sources not contained in the view are ignored.
pub fn bfs<A, I>(view: &A, sources: I) -> BfsResult
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    let mut ws = super::TraversalWorkspace::new();
    let run = super::bfs_in(&mut ws, view, sources);
    BfsResult::from_run(view.universe(), &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Graph, NodeSet};

    #[test]
    fn single_source_path() {
        let g = gen::path(5);
        let r = bfs(&g.full_view(), [NodeId::new(0)]);
        for v in 0..5 {
            assert_eq!(r.dist(NodeId::new(v)), v as u32);
        }
        assert_eq!(r.eccentricity(), Some(4));
        assert_eq!(r.layer_sizes(), &[1, 1, 1, 1, 1]);
        assert_eq!(r.ball_sizes(), vec![1, 2, 3, 4, 5]);
        assert_eq!(r.parent(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(r.parent(NodeId::new(0)), None);
    }

    #[test]
    fn multi_source() {
        let g = gen::path(7);
        let r = bfs(&g.full_view(), [NodeId::new(0), NodeId::new(6)]);
        assert_eq!(r.dist(NodeId::new(3)), 3);
        assert_eq!(r.dist(NodeId::new(5)), 1);
        assert_eq!(r.eccentricity(), Some(3));
        assert_eq!(r.layer_sizes(), &[2, 2, 2, 1]);
    }

    #[test]
    fn respects_view() {
        let g = gen::path(5);
        let alive = NodeSet::from_nodes(5, [0, 1, 3, 4].map(NodeId::new));
        let r = bfs(&g.view(&alive), [NodeId::new(0)]);
        assert!(r.reached(NodeId::new(1)));
        assert!(!r.reached(NodeId::new(2)));
        assert!(!r.reached(NodeId::new(3)), "must not cross dead node 2");
    }

    #[test]
    fn bounded_truncates() {
        let g = gen::path(10);
        let mut ws = crate::algo::TraversalWorkspace::new();
        let r = crate::algo::bfs_bounded_in(&mut ws, &g.full_view(), [NodeId::new(0)], 3);
        assert_eq!(r.reached_count(), 4);
        assert!(!r.reached(NodeId::new(4)));
        assert_eq!(r.ball(2).count(), 3);
    }

    #[test]
    fn disconnected_source_in_dead_set_ignored() {
        let g = gen::path(4);
        let alive = NodeSet::from_nodes(4, [1, 2, 3].map(NodeId::new));
        let r = bfs(&g.view(&alive), [NodeId::new(0)]);
        assert_eq!(r.reached_count(), 0);
        assert_eq!(r.eccentricity(), None);
    }

    #[test]
    fn order_is_nondecreasing_distance() {
        let g = gen::grid(5, 5);
        let r = bfs(&g.full_view(), [NodeId::new(12)]);
        let dists: Vec<u32> = r.order().iter().map(|&v| r.dist(v)).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.reached_count(), 25);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let r = bfs(&g.full_view(), []);
        assert_eq!(r.reached_count(), 0);
    }

    #[test]
    fn ball_size_clamps_beyond_eccentricity() {
        let g = gen::path(5);
        let r = bfs(&g.full_view(), [NodeId::new(0)]);
        assert_eq!(r.ball_size(2), 3);
        assert_eq!(r.ball_size(4), 5);
        assert_eq!(
            r.ball_size(999),
            5,
            "clamped, where ball_sizes()[999] panics"
        );
        // A BFS that reached nothing reports 0 for every radius.
        let alive = NodeSet::from_nodes(4, [1, 2, 3].map(NodeId::new));
        let g4 = gen::path(4);
        let empty = bfs(&g4.view(&alive), [NodeId::new(0)]);
        assert_eq!(empty.ball_size(0), 0);
        assert_eq!(empty.ball_size(3), 0);
    }
}
