//! The edge version of ball carving.
//!
//! The paper (end of Section 1.3) notes that every Table 2 result also
//! holds in the *edge version*: instead of removing at most an `eps`
//! fraction of the **nodes**, the carving removes at most an `eps`
//! fraction of the **edges**, and every node ends up clustered. Clusters
//! must be pairwise non-adjacent *after* deleting the cut edges, and the
//! strong diameter of a cluster is measured in its induced subgraph
//! minus the cut edges.

use crate::{metrics, CarveCtx, ClusteringError};
use sdnd_congest::RoundLedger;
use sdnd_graph::{Graph, NodeId, NodeSet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// An edge ball carving: a *full* partition of the alive nodes into
/// clusters, plus the set of cut edges that separates them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeCarving {
    universe: usize,
    input: NodeSet,
    clusters: Vec<Vec<NodeId>>,
    cluster_of: Vec<u32>,
    cut: Vec<(NodeId, NodeId)>,
}

impl EdgeCarving {
    /// Assembles an edge carving of `input`.
    ///
    /// `clusters` must partition `input` exactly; `cut` lists the removed
    /// edges (normalized or not — they are normalized internally).
    ///
    /// # Errors
    ///
    /// Returns [`ClusteringError`] on overlaps, out-of-input members,
    /// uncovered nodes, or empty clusters.
    pub fn new(
        input: NodeSet,
        clusters: Vec<Vec<NodeId>>,
        cut: Vec<(NodeId, NodeId)>,
    ) -> Result<EdgeCarving, ClusteringError> {
        let universe = input.universe();
        let mut cluster_of = vec![u32::MAX; universe];
        for (i, c) in clusters.iter().enumerate() {
            if c.is_empty() {
                return Err(ClusteringError::EmptyCluster);
            }
            for &v in c {
                if !input.contains(v) {
                    return Err(ClusteringError::OutsideInput { node: v });
                }
                if cluster_of[v.index()] != u32::MAX {
                    return Err(ClusteringError::Overlap { node: v });
                }
                cluster_of[v.index()] = i as u32;
            }
        }
        for v in input.iter() {
            if cluster_of[v.index()] == u32::MAX {
                return Err(ClusteringError::NotCovered { node: v });
            }
        }
        let cut = cut
            .into_iter()
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        Ok(EdgeCarving {
            universe,
            input,
            clusters,
            cluster_of,
            cut,
        })
    }

    /// The alive set the carving covers.
    pub fn input(&self) -> &NodeSet {
        &self.input
    }

    /// The clusters (a partition of the input).
    pub fn clusters(&self) -> &[Vec<NodeId>] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster id of `v`, if `v` is in the input.
    pub fn cluster_of(&self, v: NodeId) -> Option<usize> {
        match self.cluster_of.get(v.index()) {
            Some(&u32::MAX) | None => None,
            Some(&c) => Some(c as usize),
        }
    }

    /// The removed edges (normalized as `(min, max)`).
    pub fn cut_edges(&self) -> &[(NodeId, NodeId)] {
        &self.cut
    }

    /// Fraction of the alive subgraph's edges that were cut.
    pub fn cut_fraction(&self, g: &Graph) -> f64 {
        let view = g.view(&self.input);
        let m: usize = self
            .input
            .iter()
            .map(|v| sdnd_graph::Adjacency::neighbors(&view, v).count())
            .sum::<usize>()
            / 2;
        if m == 0 {
            0.0
        } else {
            self.cut.len() as f64 / m as f64
        }
    }

    /// Set-lookup of the cut edges.
    pub fn cut_set(&self) -> HashSet<(NodeId, NodeId)> {
        self.cut.iter().copied().collect()
    }
}

/// An edge-version ball carving algorithm (the edge analogue of
/// [`StrongCarver`](crate::StrongCarver)).
pub trait EdgeCarver {
    /// Carves `G[alive]`, cutting at most an `eps` fraction of its edges,
    /// leaving every node clustered.
    fn carve_edges(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> EdgeCarving;

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;
}

/// Validation report for an [`EdgeCarving`].
#[derive(Debug, Clone)]
pub struct EdgeCarvingReport {
    /// Every inter-cluster edge of `G[input]` appears in the cut set.
    pub separation_ok: bool,
    /// Every cluster is connected in `G[cluster] - cut`.
    pub clusters_connected: bool,
    /// Max strong diameter measured in `G[cluster] - cut`.
    pub max_strong_diameter: Option<u32>,
    /// Fraction of alive-subgraph edges cut.
    pub cut_fraction: f64,
    /// Human-readable violations.
    pub violations: Vec<String>,
}

impl EdgeCarvingReport {
    /// Whether the carving satisfies the edge-version contract at `eps`.
    pub fn is_valid(&self, eps: f64) -> bool {
        self.separation_ok && self.clusters_connected && self.cut_fraction <= eps + 1e-9
    }
}

/// Validates an edge carving against `g`.
pub fn validate_edge_carving(g: &Graph, ec: &EdgeCarving) -> EdgeCarvingReport {
    let mut violations = Vec::new();
    let cut = ec.cut_set();

    // Separation: inter-cluster edges must be cut.
    let mut separation_ok = true;
    for (u, v) in g.edges() {
        if let (Some(cu), Some(cv)) = (ec.cluster_of(u), ec.cluster_of(v)) {
            if cu != cv && !cut.contains(&(u.min(v), u.max(v))) {
                separation_ok = false;
                violations.push(format!(
                    "uncut edge ({u}, {v}) joins clusters {cu} and {cv}"
                ));
            }
        }
    }

    // Per-cluster connectivity and strong diameter in G[C] - cut: one
    // `G - cut` for every cluster, one exact iFUB per cluster under a
    // shared context.
    let uncut = Graph::from_edges(
        g.n(),
        g.edges()
            .filter(|e| !cut.contains(e))
            .map(|(u, v)| (u.index(), v.index())),
    )
    .expect("a subgraph of a valid graph");
    let mut ctx = CarveCtx::new();
    let mut connected = true;
    let mut max_diam = Some(0u32);
    for (i, members) in ec.clusters().iter().enumerate() {
        match metrics::strong_diameter_of_in(&uncut, members, &mut ctx) {
            Some(d) => max_diam = max_diam.map(|m| m.max(d)),
            None => {
                connected = false;
                max_diam = None;
                violations.push(format!("cluster {i} disconnected after edge cuts"));
            }
        }
    }

    EdgeCarvingReport {
        separation_ok,
        clusters_connected: connected,
        max_strong_diameter: max_diam,
        cut_fraction: ec.cut_fraction(g),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_graph::gen;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn assembles_and_validates() {
        let g = gen::path(6);
        // Clusters {0,1,2} and {3,4,5}, cutting the (2,3) edge.
        let ec = EdgeCarving::new(
            NodeSet::full(6),
            vec![vec![v(0), v(1), v(2)], vec![v(3), v(4), v(5)]],
            vec![(v(3), v(2))],
        )
        .unwrap();
        assert_eq!(ec.num_clusters(), 2);
        assert_eq!(ec.cluster_of(v(4)), Some(1));
        assert!((ec.cut_fraction(&g) - 0.2).abs() < 1e-9);
        let report = validate_edge_carving(&g, &ec);
        assert!(report.is_valid(0.25), "{:?}", report.violations);
        assert_eq!(report.max_strong_diameter, Some(2));
    }

    #[test]
    fn detects_missing_cut() {
        let g = gen::path(4);
        let ec = EdgeCarving::new(
            NodeSet::full(4),
            vec![vec![v(0), v(1)], vec![v(2), v(3)]],
            vec![],
        )
        .unwrap();
        let report = validate_edge_carving(&g, &ec);
        assert!(!report.separation_ok);
    }

    #[test]
    fn detects_internal_disconnection() {
        let g = gen::path(3);
        // One cluster covering everything but with the middle edge cut.
        let ec = EdgeCarving::new(
            NodeSet::full(3),
            vec![vec![v(0), v(1), v(2)]],
            vec![(v(0), v(1))],
        )
        .unwrap();
        let report = validate_edge_carving(&g, &ec);
        assert!(!report.clusters_connected);
        assert_eq!(report.max_strong_diameter, None);
    }

    #[test]
    fn rejects_uncovered_nodes() {
        assert!(matches!(
            EdgeCarving::new(NodeSet::full(3), vec![vec![v(0), v(1)]], vec![]),
            Err(ClusteringError::NotCovered { .. })
        ));
    }

    #[test]
    fn rejects_overlap() {
        assert!(matches!(
            EdgeCarving::new(NodeSet::full(2), vec![vec![v(0), v(1)], vec![v(1)]], vec![]),
            Err(ClusteringError::Overlap { .. })
        ));
    }

    #[test]
    fn empty_input_is_fine() {
        let ec = EdgeCarving::new(NodeSet::empty(4), vec![], vec![]).unwrap();
        assert_eq!(ec.num_clusters(), 0);
        assert_eq!(ec.cut_fraction(&gen::path(4)), 0.0);
    }
}
