//! Eccentricity, diameter, and pairwise distances, each into a
//! caller-held [`TraversalWorkspace`] (lane-word plus ordering scratch).
//!
//! The all-pairs sweeps ([`diameter_exact_in`], [`pairwise_distances_in`],
//! and the batched [`eccentricities_in`]) run their sources through the
//! bit-parallel MS-BFS [`crate::algo::msbfs_in`] 64 lanes at a time, so
//! an `n`-source sweep costs `⌈n / 64⌉` shared adjacency passes instead
//! of `n`. Batches are composed by [`crate::algo::ms_batch_order_in`]
//! so the 64 lanes of each pass start near each other — without that,
//! 64 row-major-consecutive sources on a high-diameter graph string out
//! into a line and the shared frontier degenerates to per-source cost.

use super::msbfs::lanes_of;
use crate::algo::{bfs_in, ms_batch_order_in, msbfs_in, TraversalWorkspace, MS_LANES, UNREACHED};
use crate::{Adjacency, NodeId};

/// Eccentricity of `v` within its component of `view` (max BFS distance).
///
/// Returns `None` if `v` is not in the view.
pub fn eccentricity_in<A: Adjacency>(
    view: &A,
    v: NodeId,
    ws: &mut TraversalWorkspace,
) -> Option<u32> {
    if !view.contains(v) {
        return None;
    }
    bfs_in(ws, view, [v]).eccentricity()
}

/// Eccentricities of many sources in one batched sweep: `out[i]` is the
/// eccentricity of `sources[i]` (or `None` when that source is outside
/// the view), computed `MS_LANES` sources per shared MS-BFS pass.
pub fn eccentricities_in<A: Adjacency>(
    view: &A,
    sources: &[NodeId],
    ws: &mut TraversalWorkspace,
) -> Vec<Option<u32>> {
    // Pack locality-tight batches and scatter each lane's result back
    // to its source's input position.
    let order = ms_batch_order_in(ws, view, sources);
    let mut out = vec![None; sources.len()];
    let mut batch = [NodeId::new(0); MS_LANES];
    for chunk in order.chunks(MS_LANES) {
        for (i, &oi) in chunk.iter().enumerate() {
            batch[i] = sources[oi as usize];
        }
        let run = msbfs_in(ws, view, &batch[..chunk.len()]);
        for (lane, &oi) in chunk.iter().enumerate() {
            out[oi as usize] = run.eccentricity(lane);
        }
    }
    out
}

/// Exact diameter of `view` via an all-pairs sweep of BFS runs.
///
/// Cost is `O(⌈n/64⌉ · (n + m))` shared MS-BFS passes; intended for
/// validation and for the modest graph sizes of the experiment suite,
/// not for huge inputs. Every 64-lane batch reuses the same lane-word
/// scratch, and batches are packed as BFS balls so the shared frontier
/// stays shared.
///
/// Returns `None` for an empty view and [`UNREACHED`]-free semantics
/// otherwise: if the view is disconnected, the diameter of the *largest
/// distance within any single component* is returned (distances across
/// components are ignored).
pub fn diameter_exact_in<A: Adjacency>(view: &A, ws: &mut TraversalWorkspace) -> Option<u32> {
    let sources: Vec<NodeId> = view.nodes().collect();
    let order = ms_batch_order_in(ws, view, &sources);
    let mut batch = [NodeId::new(0); MS_LANES];
    let mut best: Option<u32> = None;
    for chunk in order.chunks(MS_LANES) {
        for (i, &oi) in chunk.iter().enumerate() {
            batch[i] = sources[oi as usize];
        }
        let run = msbfs_in(ws, view, &batch[..chunk.len()]);
        for lane in 0..chunk.len() {
            // Every source is in the view, so its lane reached at least
            // itself and has an eccentricity.
            let e = run.eccentricity(lane).expect("in-view source lane");
            best = Some(best.map_or(e, |b| b.max(e)));
        }
    }
    best
}

/// Two-sweep lower bound on the diameter: BFS from an arbitrary node, then
/// BFS from the farthest node found. Exact on trees; a lower bound in
/// general, and a widely used estimator.
///
/// Returns `None` for an empty view.
pub fn diameter_two_sweep_in<A: Adjacency>(view: &A, ws: &mut TraversalWorkspace) -> Option<u32> {
    let start = view.nodes().next()?;
    let far = {
        let first = bfs_in(ws, view, [start]);
        *first.order().last()?
    };
    bfs_in(ws, view, [far]).eccentricity()
}

/// All-pairs distances (only for small graphs; `O(n^2)` memory).
///
/// `result[u][v]` is the distance from `u` to `v`, or [`UNREACHED`] when
/// `v` is unreachable from `u` or either endpoint is outside the view.
/// Sources run 64 lanes per shared MS-BFS pass, each scattered into the
/// result from the pass's discovery log, and the per-call allocation is
/// the `O(n^2)` result matrix itself.
pub fn pairwise_distances_in<A: Adjacency>(view: &A, ws: &mut TraversalWorkspace) -> Vec<Vec<u32>> {
    let n = view.universe();
    let mut out = vec![vec![UNREACHED; n]; n];
    let sources: Vec<NodeId> = view.nodes().collect();
    let order = ms_batch_order_in(ws, view, &sources);
    let mut batch = [NodeId::new(0); MS_LANES];
    for chunk in order.chunks(MS_LANES) {
        for (i, &oi) in chunk.iter().enumerate() {
            batch[i] = sources[oi as usize];
        }
        let run = msbfs_in(ws, view, &batch[..chunk.len()]);
        for (d, nodes, words) in run.levels() {
            for (&v, &w) in nodes.iter().zip(words) {
                for lane in lanes_of(w) {
                    out[sources[chunk[lane] as usize].index()][v.index()] = d;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Graph, NodeSet};

    fn diameter<A: Adjacency>(view: &A) -> Option<u32> {
        diameter_exact_in(view, &mut TraversalWorkspace::new())
    }

    fn two_sweep<A: Adjacency>(view: &A) -> Option<u32> {
        diameter_two_sweep_in(view, &mut TraversalWorkspace::new())
    }

    #[test]
    fn path_diameter() {
        let g = gen::path(9);
        assert_eq!(diameter(&g.full_view()), Some(8));
        assert_eq!(two_sweep(&g.full_view()), Some(8));
    }

    #[test]
    fn cycle_diameter() {
        let g = gen::cycle(10);
        assert_eq!(diameter(&g.full_view()), Some(5));
    }

    #[test]
    fn grid_diameter() {
        let g = gen::grid(4, 7);
        assert_eq!(diameter(&g.full_view()), Some(3 + 6));
    }

    #[test]
    fn eccentricity_center_vs_leaf() {
        let g = gen::path(9);
        let mut ws = TraversalWorkspace::new();
        assert_eq!(
            eccentricity_in(&g.full_view(), NodeId::new(4), &mut ws),
            Some(4)
        );
        assert_eq!(
            eccentricity_in(&g.full_view(), NodeId::new(0), &mut ws),
            Some(8)
        );
    }

    #[test]
    fn eccentricity_outside_view() {
        let g = gen::path(3);
        let alive = NodeSet::from_nodes(3, [0, 1].map(NodeId::new));
        let mut ws = TraversalWorkspace::new();
        assert_eq!(
            eccentricity_in(&g.view(&alive), NodeId::new(2), &mut ws),
            None
        );
    }

    #[test]
    fn batched_eccentricities_match_single_source() {
        let g = gen::gnp(90, 0.05, 13);
        let view = g.full_view();
        let mut ws = TraversalWorkspace::new();
        let sources: Vec<NodeId> = (0..90).map(NodeId::new).collect();
        let batched = eccentricities_in(&view, &sources, &mut ws);
        assert_eq!(batched.len(), 90);
        for (i, &e) in batched.iter().enumerate() {
            assert_eq!(e, eccentricity_in(&view, sources[i], &mut ws), "source {i}");
        }
    }

    #[test]
    fn two_sweep_is_lower_bound() {
        let g = gen::gnp(60, 0.08, 7);
        let exact = diameter(&g.full_view()).unwrap();
        let approx = two_sweep(&g.full_view()).unwrap();
        assert!(approx <= exact);
    }

    #[test]
    fn pairwise_matches_bfs() {
        let g = gen::grid(3, 3);
        let d = pairwise_distances_in(&g.full_view(), &mut TraversalWorkspace::new());
        assert_eq!(d[0][8], 4);
        assert_eq!(d[4][4], 0);
        for (u, row) in d.iter().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                assert_eq!(duv, d[v][u], "symmetry at ({u},{v})");
            }
        }
    }

    #[test]
    fn pairwise_in_reuses_the_workspace_across_views() {
        let g = gen::grid(9, 9); // 81 nodes: one full batch plus a ragged one
        let mut ws = TraversalWorkspace::new();
        let full = pairwise_distances_in(&g.full_view(), &mut ws);
        let fresh = pairwise_distances_in(&g.full_view(), &mut TraversalWorkspace::new());
        assert_eq!(full, fresh);
        let alive = NodeSet::from_nodes(81, (0..81).filter(|&i| i % 5 != 2).map(NodeId::new));
        let sub = pairwise_distances_in(&g.view(&alive), &mut ws);
        let fresh = pairwise_distances_in(&g.view(&alive), &mut TraversalWorkspace::new());
        assert_eq!(sub, fresh);
        for i in (0..81).filter(|&i| i % 5 == 2) {
            assert!(sub[i].iter().all(|&d| d == UNREACHED), "dead row {i}");
        }
    }

    #[test]
    fn disconnected_diameter_is_within_components() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]).unwrap();
        assert_eq!(diameter(&g.full_view()), Some(2));
    }

    #[test]
    fn empty_view() {
        let g = Graph::empty(0);
        assert_eq!(diameter(&g.full_view()), None);
        assert_eq!(two_sweep(&g.full_view()), None);
    }
}
