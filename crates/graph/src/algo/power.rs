//! Power graphs `G^k`.
//!
//! The ABCP96 transformation (and many classic network-decomposition
//! constructions) run a decomposition algorithm on the power graph
//! `G^{2d}`, in which any two nodes at distance at most `2d` in `G` become
//! adjacent. Simulating one round on `G^k` costs `k` rounds on `G` (and, in
//! CONGEST, blows up message sizes — which is exactly the point of the
//! paper's comparison).

use crate::algo::{bfs_bounded_in, dijkstra_in, TraversalWorkspace};
use crate::{Adjacency, Graph, NodeId};

/// Builds the `k`-th power of `view`: nodes are the alive nodes of the
/// view (in the same index space), and `{u, v}` is an edge iff
/// `dist_view(u, v) <= k` and `u != v` (hop distance — powers are a
/// LOCAL-model construct, so adjacency is always decided in hops).
///
/// On a weighted base graph the power is weighted too: each power edge
/// `{u, v}` carries the *weighted* shortest-path distance between `u`
/// and `v` in the view, so weighted metrics contract consistently with
/// the topology.
///
/// Cost is one truncated BFS per node (plus one Dijkstra per node when
/// weighted), `O(n · m_k)` where `m_k` is the size of the explored
/// balls; fine for the moderate instance sizes the LOCAL baseline is
/// evaluated on. Every traversal runs in one workspace.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn power_graph<A: Adjacency>(view: &A, k: u32) -> Graph {
    assert!(k > 0, "power k must be positive");
    let n = view.universe();
    let mut builder = Graph::builder(n);
    let weighted = view.is_weighted();
    if weighted {
        builder.weighted();
    }
    let mut ws = TraversalWorkspace::new();
    let mut ball: Vec<NodeId> = Vec::new();
    for v in view.nodes() {
        ball.clear();
        let run = bfs_bounded_in(&mut ws, view, [v], k);
        ball.extend(run.order().iter().filter(|u| u.index() > v.index()));
        if weighted {
            let d = dijkstra_in(&mut ws, view, [v]);
            for &u in &ball {
                builder.weighted_edge(v.index(), u.index(), d.dist(u));
            }
        } else {
            for &u in &ball {
                builder.edge(v.index(), u.index());
            }
        }
    }
    builder
        .build()
        .expect("power graph construction cannot fail")
}

/// Convenience: the `k`-th power of a whole graph, preserving identifiers.
pub fn graph_power(g: &Graph, k: u32) -> Graph {
    let ids: Vec<u64> = g.nodes().map(|v| g.id_of(v)).collect();
    power_graph(&g.full_view(), k)
        .with_ids(ids)
        .expect("id assignment preserved from a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo, gen, NodeId, NodeSet};

    #[test]
    fn path_square() {
        let g = gen::path(5);
        let g2 = power_graph(&g.full_view(), 2);
        assert!(g2.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g2.has_edge(NodeId::new(0), NodeId::new(3)));
        assert_eq!(g2.m(), 4 + 3); // distance-1 plus distance-2 pairs
    }

    #[test]
    fn power_one_is_identity() {
        let g = gen::grid(3, 4);
        let g1 = power_graph(&g.full_view(), 1);
        assert_eq!(g1.m(), g.m());
        for (u, v) in g.edges() {
            assert!(g1.has_edge(u, v));
        }
    }

    #[test]
    fn large_power_is_complete_per_component() {
        let g = gen::path(6);
        let gk = power_graph(&g.full_view(), 10);
        assert_eq!(gk.m(), 6 * 5 / 2);
    }

    #[test]
    fn respects_view_boundaries() {
        let g = gen::path(5);
        let alive = NodeSet::from_nodes(5, [0, 1, 3, 4].map(NodeId::new));
        let gk = power_graph(&g.view(&alive), 4);
        // 2 is dead, so {0,1} and {3,4} stay separate cliques.
        assert!(gk.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(gk.has_edge(NodeId::new(3), NodeId::new(4)));
        assert!(!gk.has_edge(NodeId::new(1), NodeId::new(3)));
    }

    #[test]
    fn weighted_power_carries_weighted_distances() {
        // 0 -3.0- 1 -0.5- 2 -0.5- 3, plus a heavy shortcut 0-2.
        let g = crate::Graph::from_weighted_edges(
            4,
            [(0, 1, 3.0), (1, 2, 0.5), (2, 3, 0.5), (0, 2, 9.0)],
        )
        .unwrap();
        let g2 = power_graph(&g.full_view(), 2);
        assert!(g2.is_weighted());
        // The 0-2 power edge carries the weighted distance (detour via 1
        // beats the direct weight-9 edge).
        assert_eq!(g2.edge_weight(NodeId::new(0), NodeId::new(2)), Some(3.5));
        assert_eq!(g2.edge_weight(NodeId::new(1), NodeId::new(3)), Some(1.0));
        // 0-3 is hop distance 2 via the shortcut, so it is a power edge —
        // weighted by the cheapest path 0-1-2-3.
        assert_eq!(g2.edge_weight(NodeId::new(0), NodeId::new(3)), Some(4.0));
        // Unweighted bases give unweighted powers.
        assert!(!power_graph(&gen::path(5).full_view(), 2).is_weighted());
    }

    #[test]
    fn power_distances_contract() {
        let g = gen::cycle(12);
        let g3 = graph_power(&g, 3);
        let mut ws = algo::TraversalWorkspace::new();
        let d1 = algo::pairwise_distances_in(&g.full_view(), &mut ws);
        let d3 = algo::pairwise_distances_in(&g3.full_view(), &mut ws);
        for u in 0..12 {
            for v in 0..12 {
                if u != v {
                    assert_eq!(d3[u][v], d1[u][v].div_ceil(3), "pair ({u},{v})");
                }
            }
        }
    }
}
