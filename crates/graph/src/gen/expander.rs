//! Expanders, edge subdivision, and the Section 3 barrier construction.
//!
//! The paper closes with a lower-bound witness: take a constant-degree
//! expander `G_1` on `n' = O(eps n / log n)` nodes and subdivide every edge
//! into a path of length `ceil(log n / eps)`, yielding an `n`-node graph
//! `G_2` with conductance `Theta(eps / log n)` in which every subgraph of
//! polynomially many nodes has diameter `Omega(log^2 n / eps)`. On such
//! graphs Lemma 3.1's parameters are optimal. [`barrier_graph`] builds
//! `G_2` and records the bookkeeping needed by the barrier experiment.

use crate::{algo, Graph, GraphError, NodeId};

/// A connected random `d`-regular graph (an expander with high
/// probability), retrying seeds until connected.
///
/// # Errors
///
/// Propagates [`GraphError::InvalidParameter`] from the underlying
/// configuration-model generator, or reports failure to reach
/// connectivity within the retry budget.
pub fn random_regular_connected(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    for attempt in 0..50 {
        let g = super::random_regular(n, d, seed.wrapping_add(attempt * 0x51ed_2701))?;
        if algo::is_connected(&g.full_view()) {
            return Ok(g);
        }
    }
    Err(GraphError::InvalidParameter {
        reason: format!("no connected {d}-regular graph found for n={n}"),
    })
}

/// A connected random `d`-regular expander with seeded edge weights:
/// [`random_regular_connected`] followed by [`super::reweight`] — the
/// instance family of the weighted-decomposition experiments.
///
/// # Errors
///
/// Propagates expander-construction failures and invalid weight
/// distributions.
pub fn random_regular_connected_weighted(
    n: usize,
    d: usize,
    seed: u64,
    dist: super::WeightDist,
) -> Result<Graph, GraphError> {
    let g = random_regular_connected(n, d, seed)?;
    super::reweight(&g, dist, seed ^ 0x57e1_6175)
}

/// Subdivides every edge of `g` into a path with `length` edges
/// (`length - 1` fresh internal nodes per original edge).
///
/// `length == 1` returns a copy of `g`. Original nodes keep their indices;
/// internal nodes are appended after index `g.n() - 1`.
///
/// # Panics
///
/// Panics if `length == 0`.
pub fn subdivide(g: &Graph, length: usize) -> Graph {
    assert!(length > 0, "subdivision length must be positive");
    if length == 1 {
        return g.clone();
    }
    let extra_per_edge = length - 1;
    let n = g.n() + g.m() * extra_per_edge;
    let mut b = Graph::builder(n);
    let mut next = g.n();
    for (u, v) in g.edges() {
        let mut prev = u.index();
        for _ in 0..extra_per_edge {
            b.edge(prev, next);
            prev = next;
            next += 1;
        }
        b.edge(prev, v.index());
    }
    b.build().expect("subdivision edges are valid")
}

/// The barrier construction of Section 3, with its provenance.
#[derive(Debug, Clone)]
pub struct BarrierGraph {
    graph: Graph,
    base_n: usize,
    degree: usize,
    path_length: usize,
}

impl BarrierGraph {
    /// The subdivided expander `G_2`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes `self`, returning `G_2`.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Number of nodes of the base expander `G_1`.
    pub fn base_n(&self) -> usize {
        self.base_n
    }

    /// Degree of the base expander.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Each `G_1` edge was subdivided into a path of this many edges
    /// (the paper's `log n / eps`).
    pub fn path_length(&self) -> usize {
        self.path_length
    }

    /// Whether a node of `G_2` is an original expander node (as opposed to
    /// a subdivision node).
    pub fn is_base_node(&self, v: NodeId) -> bool {
        v.index() < self.base_n
    }
}

/// Builds the Section 3 barrier graph targeting roughly `n_target` nodes.
///
/// Sets the subdivision length to `ceil(ln(n_target) / eps)`, solves for
/// the base expander size `n'` so that `n' + m' (len - 1) ≈ n_target`,
/// and subdivides a connected random `degree`-regular expander.
///
/// # Errors
///
/// Propagates expander-construction failures; also rejects parameter
/// combinations too small to leave at least 4 base nodes.
pub fn barrier_graph(
    n_target: usize,
    eps: f64,
    degree: usize,
    seed: u64,
) -> Result<BarrierGraph, GraphError> {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
    let len = ((n_target.max(2) as f64).ln() / eps).ceil().max(1.0) as usize;
    // n' base nodes contribute n' + (n' d / 2)(len - 1) total nodes.
    let per_base = 1.0 + degree as f64 / 2.0 * (len - 1) as f64;
    let mut base = ((n_target as f64) / per_base).round() as usize;
    if base * degree % 2 == 1 {
        base += 1; // keep the configuration model feasible
    }
    if base < 4 {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "barrier parameters (n={n_target}, eps={eps}) leave only {base} base nodes"
            ),
        });
    }
    let g1 = random_regular_connected(base, degree, seed)?;
    let g2 = subdivide(&g1, len);
    Ok(BarrierGraph {
        graph: g2,
        base_n: base,
        degree,
        path_length: len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn subdivide_path_lengths() {
        let g = super::super::cycle(4); // 4 nodes, 4 edges
        let s = subdivide(&g, 3);
        assert_eq!(s.n(), 4 + 4 * 2);
        assert_eq!(s.m(), 4 * 3);
        // Distances between original neighbors stretch to `length`.
        let d = algo::pairwise_distances_in(&s.full_view(), &mut algo::TraversalWorkspace::new());
        assert_eq!(d[0][1], 3);
    }

    #[test]
    fn subdivide_length_one_is_identity() {
        let g = super::super::grid(3, 3);
        let s = subdivide(&g, 1);
        assert_eq!(s.n(), g.n());
        assert_eq!(s.m(), g.m());
    }

    #[test]
    fn subdivision_preserves_connectivity() {
        let g = random_regular_connected(20, 4, 3).unwrap();
        let s = subdivide(&g, 5);
        assert!(algo::is_connected(&s.full_view()));
        assert_eq!(s.n(), 20 + g.m() * 4);
    }

    #[test]
    fn connected_regular_is_connected() {
        let g = random_regular_connected(50, 3, 7).unwrap();
        assert!(algo::is_connected(&g.full_view()));
        assert!(g.nodes().all(|v| g.degree(v) == 3));
    }

    #[test]
    fn barrier_graph_size_and_diameter() {
        let bg = barrier_graph(800, 0.5, 4, 11).unwrap();
        let g = bg.graph();
        // Size lands within a factor-2 window of the target.
        assert!(g.n() >= 400 && g.n() <= 1600, "n = {}", g.n());
        assert!(algo::is_connected(&g.full_view()));
        // Subdivision stretches the base diameter by path_length.
        let diam = algo::diameter_two_sweep_in(&g.full_view(), &mut algo::TraversalWorkspace::new())
            .unwrap() as usize;
        assert!(diam >= bg.path_length(), "diameter {diam} too small");
        assert!(bg.is_base_node(NodeId::new(0)));
        assert!(!bg.is_base_node(NodeId::new(bg.base_n())));
    }

    #[test]
    fn barrier_rejects_tiny() {
        assert!(barrier_graph(4, 0.5, 4, 1).is_err());
    }
}
