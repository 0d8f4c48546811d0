//! Deterministic graph families.

use crate::Graph;

/// The path `P_n` on nodes `0 — 1 — … — n-1`.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("path edges are valid")
}

/// The cycle `C_n` (requires `n >= 3`; smaller `n` degrade to a path).
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return path(n);
    }
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).expect("cycle edges are valid")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let edges = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
    Graph::from_edges(n, edges).expect("complete-graph edges are valid")
}

/// The star `K_{1,n-1}` with node 0 at the center.
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|v| (0, v))).expect("star edges are valid")
}

/// The `rows × cols` grid; node `(r, c)` has index `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = Graph::builder(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.edge(v, v + 1);
            }
            if r + 1 < rows {
                b.edge(v, v + cols);
            }
        }
    }
    b.build().expect("grid edges are valid")
}

/// The `rows × cols` grid with seeded edge weights: [`grid`] followed by
/// [`super::reweight`].
///
/// # Errors
///
/// Propagates [`crate::GraphError::InvalidParameter`] from an invalid
/// weight distribution.
pub fn grid_weighted(
    rows: usize,
    cols: usize,
    dist: super::WeightDist,
    seed: u64,
) -> Result<Graph, crate::GraphError> {
    super::reweight(&grid(rows, cols), dist, seed)
}

/// The `rows × cols` torus (grid with wraparound).
///
/// Requires `rows, cols >= 3` to stay simple; smaller dimensions degrade
/// to the corresponding grid.
pub fn torus(rows: usize, cols: usize) -> Graph {
    if rows < 3 || cols < 3 {
        return grid(rows, cols);
    }
    let mut b = Graph::builder(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            b.edge(v, r * cols + (c + 1) % cols);
            b.edge(v, ((r + 1) % rows) * cols + c);
        }
    }
    b.build().expect("torus edges are valid")
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let edges = (0..n).flat_map(move |v| {
        (0..d)
            .map(move |b| (v, v ^ (1 << b)))
            .filter(move |&(u, w)| u < w)
    });
    Graph::from_edges(n, edges).expect("hypercube edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!((g.n(), g.m()), (6, 5));
        assert_eq!(
            algo::diameter_exact_in(&g.full_view(), &mut algo::TraversalWorkspace::new()),
            Some(5)
        );
    }

    #[test]
    fn tiny_paths() {
        assert_eq!(path(0).n(), 0);
        assert_eq!(path(1).m(), 0);
        assert_eq!(path(2).m(), 1);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8);
        assert_eq!((g.n(), g.m()), (8, 8));
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert_eq!(
            algo::diameter_exact_in(&g.full_view(), &mut algo::TraversalWorkspace::new()),
            Some(1)
        );
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(crate::NodeId::new(0)), 6);
        assert_eq!(
            algo::diameter_exact_in(&g.full_view(), &mut algo::TraversalWorkspace::new()),
            Some(2)
        );
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!((g.n(), g.m()), (12, 3 * 3 + 2 * 4));
        assert!(algo::is_connected(&g.full_view()));
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(4, 5);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.m(), 2 * 20);
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!((g.n(), g.m()), (16, 32));
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(
            algo::diameter_exact_in(&g.full_view(), &mut algo::TraversalWorkspace::new()),
            Some(4)
        );
    }
}
