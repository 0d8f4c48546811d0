//! Distance oracles: one interface over hop-count BFS and weighted
//! Dijkstra.
//!
//! The validators only ever ask one question of a graph metric —
//! "distances from this node, within this view" — so they take it from a
//! [`DistanceOracle`] instead of calling a concrete traversal. Every
//! answer is a borrowed [`DistanceMapIn`] over a caller-held
//! [`TraversalWorkspace`] run. [`HopOracle`] answers with BFS hop counts
//! (the paper's CONGEST metric, and the fast path for unweighted
//! graphs); [`WeightedOracle`] answers with Dijkstra over the edge
//! weights. Hop distances are integers, exactly representable as `f64`,
//! and the hop oracle runs the very same BFS as the `u32` API.

use crate::algo::{
    bfs_in, bfs_to_in, dijkstra_in, dijkstra_to_in, msbfs_in, msbfs_to_in, BfsRun, MsBfsRun, SpRun,
    TraversalWorkspace, UNREACHED,
};
use crate::{Adjacency, NodeId, NodeSet};

/// Distance value for unreached nodes, shared by both metrics.
pub const ORACLE_UNREACHED: f64 = f64::INFINITY;

/// Per-node distances from a single source, in some metric: a borrowed
/// view of a [`TraversalWorkspace`] run, produced by
/// [`DistanceOracle::distances_in`].
///
/// Hop distances are integers embedded in `f64` (exact up to `2^53`), so
/// comparisons against integer bounds behave identically to the `u32`
/// BFS API.
#[derive(Clone, Copy)]
pub enum DistanceMapIn<'w> {
    /// Backed by a hop BFS run.
    Hop(BfsRun<'w>),
    /// Backed by a weighted (Dijkstra) run.
    Weighted(SpRun<'w>),
}

impl DistanceMapIn<'_> {
    /// Distance to `v`, or [`ORACLE_UNREACHED`].
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        match self {
            DistanceMapIn::Hop(r) => {
                let d = r.dist(v);
                if d == UNREACHED {
                    ORACLE_UNREACHED
                } else {
                    d as f64
                }
            }
            DistanceMapIn::Weighted(r) => r.dist(v),
        }
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        match self {
            DistanceMapIn::Hop(r) => r.reached(v),
            DistanceMapIn::Weighted(r) => r.reached(v),
        }
    }
}

/// A single-source distance computation over a view, in a fixed metric.
pub trait DistanceOracle {
    /// Distances from `source` within `view` (unreached nodes carry
    /// [`ORACLE_UNREACHED`]), into a caller-held workspace.
    fn distances_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w>;

    /// Like [`distances_in`](Self::distances_in), but the sweep may stop
    /// as soon as every member of `targets` is reached — only target
    /// distances are guaranteed final. Used by the early-terminating
    /// weak-diameter validators.
    fn distances_to_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        targets: &NodeSet,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w>;

    /// Batched counterpart of [`distances_in`](Self::distances_in): up
    /// to [`crate::algo::MS_LANES`] sources swept in one bit-parallel
    /// MS-BFS pass, lane `l` seeded from `sources[l]`.
    ///
    /// Returns `None` when the metric has no batched backend — the
    /// weighted oracle orders its relaxations by `f64` distance, which
    /// does not decompose into shared lane-word levels. Callers must
    /// treat `None` as "run [`distances_in`](Self::distances_in) per
    /// source", which is value-identical; the exact diameter sweeps of
    /// `sdnd_clustering::metrics` then run one early-stopping Dijkstra
    /// per source, with the same iFUB cut-off as the batched passes.
    fn batch_distances_in<'w, A: Adjacency>(
        &self,
        _view: &A,
        _sources: &[NodeId],
        _ws: &'w mut TraversalWorkspace,
    ) -> Option<MsBfsRun<'w>> {
        None
    }

    /// Batched counterpart of
    /// [`distances_to_in`](Self::distances_to_in): each lane stops as
    /// soon as *its* sweep has reached every member of `targets`
    /// (per-lane remaining-targets counts); only target distances are
    /// guaranteed final per lane. `None` means "no batched backend",
    /// as for [`batch_distances_in`](Self::batch_distances_in).
    fn batch_distances_to_in<'w, A: Adjacency>(
        &self,
        _view: &A,
        _sources: &[NodeId],
        _targets: &NodeSet,
        _ws: &'w mut TraversalWorkspace,
    ) -> Option<MsBfsRun<'w>> {
        None
    }

    /// Whether this oracle measures edge weights (as opposed to hops).
    fn is_weighted_metric(&self) -> bool;
}

/// Hop-count metric: BFS layers, every edge length 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopOracle;

impl DistanceOracle for HopOracle {
    fn distances_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w> {
        DistanceMapIn::Hop(bfs_in(ws, view, [source]))
    }

    fn distances_to_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        targets: &NodeSet,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w> {
        DistanceMapIn::Hop(bfs_to_in(ws, view, [source], targets))
    }

    fn batch_distances_in<'w, A: Adjacency>(
        &self,
        view: &A,
        sources: &[NodeId],
        ws: &'w mut TraversalWorkspace,
    ) -> Option<MsBfsRun<'w>> {
        Some(msbfs_in(ws, view, sources))
    }

    fn batch_distances_to_in<'w, A: Adjacency>(
        &self,
        view: &A,
        sources: &[NodeId],
        targets: &NodeSet,
        ws: &'w mut TraversalWorkspace,
    ) -> Option<MsBfsRun<'w>> {
        Some(msbfs_to_in(ws, view, sources, targets))
    }

    fn is_weighted_metric(&self) -> bool {
        false
    }
}

/// Weighted metric: Dijkstra over the base graph's edge weights.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedOracle;

impl DistanceOracle for WeightedOracle {
    fn distances_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w> {
        DistanceMapIn::Weighted(dijkstra_in(ws, view, [source]))
    }

    fn distances_to_in<'w, A: Adjacency>(
        &self,
        view: &A,
        source: NodeId,
        targets: &NodeSet,
        ws: &'w mut TraversalWorkspace,
    ) -> DistanceMapIn<'w> {
        DistanceMapIn::Weighted(dijkstra_to_in(ws, view, [source], targets))
    }

    fn is_weighted_metric(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bfs;
    use crate::{gen, Graph};

    #[test]
    fn hop_oracle_matches_bfs() {
        let g = gen::grid(4, 5);
        let mut ws = TraversalWorkspace::new();
        let m = HopOracle.distances_in(&g.full_view(), NodeId::new(0), &mut ws);
        let b = bfs(&g.full_view(), [NodeId::new(0)]);
        for v in g.nodes() {
            assert_eq!(m.dist(v), b.dist(v) as f64);
        }
    }

    #[test]
    fn weighted_oracle_uses_weights() {
        let g = Graph::from_weighted_edges(3, [(0, 1, 2.5), (1, 2, 0.25)]).unwrap();
        let mut ws = TraversalWorkspace::new();
        let m = WeightedOracle.distances_in(&g.full_view(), NodeId::new(0), &mut ws);
        assert_eq!(m.dist(NodeId::new(2)), 2.75);
        assert!(WeightedOracle.is_weighted_metric());
    }

    #[test]
    fn metrics_agree_on_unit_weights() {
        let base = gen::gnp(25, 0.15, 3);
        let unit =
            Graph::from_weighted_edges(25, base.edges().map(|(u, v)| (u.index(), v.index(), 1.0)))
                .unwrap();
        let (mut hop_ws, mut w_ws) = (TraversalWorkspace::new(), TraversalWorkspace::new());
        let hop = HopOracle.distances_in(&base.full_view(), NodeId::new(0), &mut hop_ws);
        let w = WeightedOracle.distances_in(&unit.full_view(), NodeId::new(0), &mut w_ws);
        for v in base.nodes() {
            assert_eq!(hop.dist(v), w.dist(v), "node {v}");
        }
    }
}
