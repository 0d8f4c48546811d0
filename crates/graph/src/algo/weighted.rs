//! Weighted shortest paths: the owned copy of a Dijkstra run and a
//! Bellman–Ford reference oracle.
//!
//! This module mirrors the hop-count [`super::bfs`] for graphs built with
//! [`GraphBuilder::weighted_edge`](crate::GraphBuilder::weighted_edge);
//! the traversals themselves run in a [`super::TraversalWorkspace`]
//! ([`super::dijkstra_in`] and its bounded and targeted forms).
//! Weights are finite non-negative `f64`s (enforced at build time), so
//! every comparison below is total and the traversals are deterministic:
//! the priority queue breaks distance ties by node index.
//!
//! On an *unweighted* graph every edge counts as weight 1, so
//! [`dijkstra`] computes exactly the BFS hop distances — the test suite
//! pins this equivalence.

use crate::{Adjacency, NodeId};

/// Distance value for nodes not reached by a weighted search.
pub const W_UNREACHED: f64 = f64::INFINITY;

/// An owned copy of one weighted traversal ([`super::SpRun`]), for
/// callers that keep a result past the workspace's next run.
///
/// Distances are measured in the view the search ran on; nodes outside
/// the view or in other components carry [`W_UNREACHED`].
#[derive(Debug, Clone)]
pub struct SpResult {
    dist: Vec<f64>,
    parent: Vec<Option<NodeId>>,
    order: Vec<NodeId>,
}

impl SpResult {
    /// Copies a workspace run over a view of `universe` nodes.
    pub fn from_run(universe: usize, run: &super::SpRun<'_>) -> SpResult {
        let mut dist = vec![W_UNREACHED; universe];
        let mut parent: Vec<Option<NodeId>> = vec![None; universe];
        for &v in run.order() {
            dist[v.index()] = run.dist(v);
            parent[v.index()] = run.parent(v);
        }
        SpResult {
            dist,
            parent,
            order: run.order().to_vec(),
        }
    }

    /// Distance from the source set to `v`, or [`W_UNREACHED`].
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        self.dist[v.index()]
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()] != W_UNREACHED
    }

    /// Shortest-path-tree parent of `v` (`None` for sources and
    /// unreached nodes). The parent satisfies
    /// `dist(parent) + w(parent, v) == dist(v)`.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The reached nodes in non-decreasing distance order (ties by node
    /// index).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of reached nodes.
    pub fn reached_count(&self) -> usize {
        self.order.len()
    }

    /// The largest distance reached — the weighted eccentricity of the
    /// source set within its component. `None` if nothing was reached.
    pub fn eccentricity(&self) -> Option<f64> {
        self.order.last().map(|&v| self.dist(v))
    }

    /// All reached nodes with distance at most `r`, in search order.
    pub fn ball(&self, r: f64) -> impl Iterator<Item = NodeId> + '_ {
        self.order
            .iter()
            .copied()
            .take_while(move |&v| self.dist(v) <= r)
    }

    /// Number of reached nodes with distance at most `r` (`O(log n)` via
    /// binary search over the sorted visit order).
    pub fn ball_count(&self, r: f64) -> usize {
        self.order.partition_point(|&v| self.dist(v) <= r)
    }
}

/// Runs Dijkstra from the given source set over `view`, using the base
/// graph's edge weights (1 per edge on unweighted graphs), into a
/// throwaway workspace and returns the owned result; repeated callers
/// hold a [`super::TraversalWorkspace`] and use [`super::dijkstra_in`].
///
/// Sources not contained in the view are ignored. The priority queue is
/// a max-heap of `Reverse((distance-bits, node))`: f64 bit patterns of
/// non-negative finite values order like the values themselves, and the
/// node index breaks ties deterministically.
pub fn dijkstra<A, I>(view: &A, sources: I) -> SpResult
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    let mut ws = super::TraversalWorkspace::new();
    let run = super::dijkstra_in(&mut ws, view, sources);
    SpResult::from_run(view.universe(), &run)
}

/// Bellman–Ford reference oracle: the same distances as [`dijkstra`],
/// computed by `O(n)` rounds of edge relaxation.
///
/// `O(n · m)` and completely independent of the priority-queue machinery
/// — this exists so the property-based tests can check Dijkstra against
/// an implementation too simple to share its bugs.
pub fn bellman_ford<A, I>(view: &A, sources: I) -> Vec<f64>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    let n = view.universe();
    let mut dist = vec![W_UNREACHED; n];
    for s in sources {
        if view.contains(s) {
            dist[s.index()] = 0.0;
        }
    }
    for _ in 0..n.max(1) {
        let mut changed = false;
        for v in view.nodes() {
            if dist[v.index()] == W_UNREACHED {
                continue;
            }
            for (u, w) in view.neighbors_weighted(v) {
                let cand = dist[v.index()] + w;
                if cand < dist[u.index()] {
                    dist[u.index()] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs, UNREACHED};
    use crate::{gen, Graph, NodeSet};

    fn weighted_path() -> Graph {
        // 0 -2.0- 1 -0.5- 2 -3.0- 3
        Graph::from_weighted_edges(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 3.0)]).unwrap()
    }

    #[test]
    fn weighted_path_distances() {
        let g = weighted_path();
        let r = dijkstra(&g.full_view(), [NodeId::new(0)]);
        assert_eq!(r.dist(NodeId::new(0)), 0.0);
        assert_eq!(r.dist(NodeId::new(1)), 2.0);
        assert_eq!(r.dist(NodeId::new(2)), 2.5);
        assert_eq!(r.dist(NodeId::new(3)), 5.5);
        assert_eq!(r.eccentricity(), Some(5.5));
        assert_eq!(r.parent(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(r.parent(NodeId::new(0)), None);
        assert_eq!(r.ball_count(2.5), 3);
        assert_eq!(r.ball(2.0).count(), 2);
    }

    #[test]
    fn dijkstra_takes_light_detours() {
        // Direct heavy edge vs a lighter two-hop path.
        let g = Graph::from_weighted_edges(3, [(0, 2, 10.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let r = dijkstra(&g.full_view(), [NodeId::new(0)]);
        assert_eq!(r.dist(NodeId::new(2)), 2.0);
        assert_eq!(r.parent(NodeId::new(2)), Some(NodeId::new(1)));
    }

    #[test]
    fn unit_weights_match_bfs_exactly() {
        for seed in 0..3 {
            let g = gen::gnp(40, 0.1, seed);
            let unit =
                Graph::from_weighted_edges(40, g.edges().map(|(u, v)| (u.index(), v.index(), 1.0)))
                    .unwrap();
            let b = bfs(&g.full_view(), [NodeId::new(0)]);
            let d = dijkstra(&unit.full_view(), [NodeId::new(0)]);
            for v in g.nodes() {
                let hop = b.dist(v);
                if hop == UNREACHED {
                    assert!(!d.reached(v));
                } else {
                    assert_eq!(d.dist(v), hop as f64, "node {v}");
                }
            }
        }
    }

    #[test]
    fn respects_view_and_bound() {
        let g = weighted_path();
        let alive = NodeSet::from_nodes(4, [0, 1, 3].map(NodeId::new));
        let r = dijkstra(&g.view(&alive), [NodeId::new(0)]);
        assert!(r.reached(NodeId::new(1)));
        assert!(!r.reached(NodeId::new(2)), "dead node");
        assert!(!r.reached(NodeId::new(3)), "must not cross dead node 2");

        let mut ws = crate::algo::TraversalWorkspace::new();
        let b = crate::algo::dijkstra_bounded_in(&mut ws, &g.full_view(), [NodeId::new(0)], 2.5);
        assert_eq!(b.reached_count(), 3);
        assert!(!b.reached(NodeId::new(3)));
    }

    #[test]
    fn multi_source_and_order_sorted() {
        let g = weighted_path();
        let r = dijkstra(&g.full_view(), [NodeId::new(0), NodeId::new(3)]);
        assert_eq!(r.dist(NodeId::new(2)), 2.5);
        let dists: Vec<f64> = r.order().iter().map(|&v| r.dist(v)).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "order sorted");
        assert_eq!(r.reached_count(), 4);
    }

    #[test]
    fn weighted_eccentricity() {
        let g = weighted_path();
        let r = dijkstra(&g.full_view(), [NodeId::new(1)]);
        assert_eq!(r.eccentricity(), Some(3.5));
        let alive = NodeSet::from_nodes(4, [0, 1].map(NodeId::new));
        let outside = dijkstra(&g.view(&alive), [NodeId::new(3)]);
        assert_eq!(outside.eccentricity(), None);
    }

    #[test]
    fn bellman_ford_agrees_on_random_weighted_graphs() {
        for seed in 0..4 {
            let base = gen::gnp(30, 0.12, seed);
            let g = Graph::from_weighted_edges(
                30,
                base.edges()
                    .enumerate()
                    .map(|(i, (u, v))| (u.index(), v.index(), ((i * 7 + 13) % 9) as f64 + 0.25)),
            )
            .unwrap();
            let d = dijkstra(&g.full_view(), [NodeId::new(0)]);
            let bf = bellman_ford(&g.full_view(), [NodeId::new(0)]);
            for v in g.nodes() {
                assert_eq!(d.dist(v), bf[v.index()], "node {v} seed {seed}");
            }
        }
    }

    #[test]
    fn distances_are_symmetric() {
        let g = Graph::from_weighted_edges(4, [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 5.0), (2, 3, 1.0)])
            .unwrap();
        let d: Vec<SpResult> = g.nodes().map(|v| dijkstra(&g.full_view(), [v])).collect();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(d[u.index()].dist(v), d[v.index()].dist(u), "pair ({u},{v})");
            }
        }
        assert_eq!(
            d[0].dist(NodeId::new(2)),
            4.0,
            "detour through 1 beats the direct edge"
        );
    }

    #[test]
    fn zero_weights_are_handled() {
        let g = Graph::from_weighted_edges(3, [(0, 1, 0.0), (1, 2, 0.0)]).unwrap();
        let r = dijkstra(&g.full_view(), [NodeId::new(0)]);
        assert_eq!(r.dist(NodeId::new(2)), 0.0);
        assert_eq!(r.ball_count(0.0), 3);
    }

    #[test]
    fn empty_view() {
        let g = Graph::empty(0);
        let r = dijkstra(&g.full_view(), []);
        assert_eq!(r.reached_count(), 0);
        assert_eq!(r.eccentricity(), None);
    }
}
