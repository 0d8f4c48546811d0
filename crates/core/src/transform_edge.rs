//! The edge version of the Theorem 2.1 transformation.
//!
//! The paper notes (end of Section 1.3) that every ball-carving result
//! also holds when removing an `eps` fraction of **edges** instead of
//! nodes, with essentially the same proofs. This module is that variant:
//! the weak→strong transformation consumes an edge-version weak carver
//! ([`WeakEdgeCarver`]) and produces an [`EdgeCarving`] — every node
//! clustered, at most `eps · m` edges cut, clusters non-adjacent after
//! the cuts, strong diameter `2R + O(log m / eps)`.
//!
//! The iteration mirrors the node version, with edge accounting:
//!
//! - Case I (no giant cluster): keep the carver's cuts, recurse on the
//!   components of the cut graph (each inside one cluster).
//! - Case II (giant cluster): grow a ball around the giant's tree root
//!   until the *edge boundary* `X(r)` (edges from layer `r` to `r+1`)
//!   is at most `(eps/2) · |E(B_r)|`; output the ball, cut its boundary
//!   edges, recurse on the remainder. Failing radii multiply
//!   `|E(B_r)| + 1` by `1 + eps/2`, so a good radius appears within
//!   `O(log m / eps)` steps; cut edges charge to the ball's internal
//!   edges, which are removed with it, so the total stays below
//!   `eps m / 2`.

use crate::Params;
use sdnd_clustering::{Cancelled, CarveCtx, EdgeCarving, WeakEdgeCarver};
use sdnd_congest::{bits_for_value, primitives, RoundLedger};
use sdnd_graph::{algo, Adjacency, Graph, NodeId, NodeSet};
use std::collections::HashSet;

/// Runs the edge version of Theorem 2.1 over the black-box edge-weak
/// carver `a`. The Case II layer censuses run through the context's
/// traversal workspace; the per-iteration filtered graphs are still
/// materialized, as the cut set changes the edge structure itself. The
/// armed deadline is honored once per processed component.
///
/// # Errors
///
/// [`Cancelled`] when the armed deadline trips at a component boundary;
/// the context stays safely reusable.
///
/// # Panics
///
/// Panics if `eps` is not in `(0, 1)` or the iteration bound is
/// exceeded.
pub fn weak_to_strong_edges_in<A: WeakEdgeCarver + ?Sized>(
    g: &Graph,
    alive: &NodeSet,
    eps: f64,
    a: &A,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<EdgeCarving, Cancelled> {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
    let n0 = alive.len();
    if n0 == 0 {
        return Ok(EdgeCarving::new(alive.clone(), vec![], vec![]).expect("empty carving"));
    }
    let log2n = Params::log2n(n0);
    let eps_inner = params.inner_eps(eps, n0);
    let m0 = {
        let view = g.view(alive);
        alive
            .iter()
            .map(|v| view.neighbors(v).count())
            .sum::<usize>()
            / 2
    };
    let window = params.growth_window(eps, m0.max(n0)) + 2;
    let max_iter = log2n + 2;

    let mut cut: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut out_clusters: Vec<Vec<NodeId>> = Vec::new();
    let mut work: Vec<NodeSet> = {
        let view = g.view(alive);
        algo::connected_components(&view).into_sets()
    };

    for i in 1..=max_iter {
        if work.is_empty() {
            break;
        }
        let threshold = n0 as f64 / 2f64.powi(i as i32);
        let mut next_work: Vec<NodeSet> = Vec::new();
        let mut branch_ledgers: Vec<RoundLedger> = Vec::new();

        for s in work {
            ctx.checkpoint("weak-to-strong-edges-component")?;
            let mut branch = RoundLedger::new();
            process_component(
                g,
                &s,
                eps,
                eps_inner,
                threshold,
                window,
                a,
                &mut cut,
                &mut out_clusters,
                &mut next_work,
                &mut branch,
                ctx,
            );
            branch_ledgers.push(branch);
        }
        ledger.merge_parallel(branch_ledgers);
        work = next_work;
    }
    assert!(
        work.is_empty(),
        "edge transformation iteration bound exceeded"
    );

    Ok(
        EdgeCarving::new(alive.clone(), out_clusters, cut.into_iter().collect())
            .expect("output clusters partition the alive set"),
    )
}

/// The subgraph of `G[S]` with `cut` edges removed, materialized with
/// the original index space and identifiers.
fn filtered_graph(g: &Graph, s: &NodeSet, cut: &HashSet<(NodeId, NodeId)>) -> Graph {
    let mut b = Graph::builder(g.n());
    for v in s.iter() {
        for &u in g.neighbors(v) {
            if v < u && s.contains(u) && !cut.contains(&(v, u)) {
                b.edge(v.index(), u.index());
            }
        }
    }
    let ids: Vec<u64> = g.nodes().map(|v| g.id_of(v)).collect();
    b.build()
        .expect("filtered edges are valid")
        .with_ids(ids)
        .expect("ids preserved")
}

#[allow(clippy::too_many_arguments)]
fn process_component<A: WeakEdgeCarver + ?Sized>(
    g: &Graph,
    s: &NodeSet,
    eps: f64,
    eps_inner: f64,
    threshold: f64,
    window: u32,
    a: &A,
    cut: &mut HashSet<(NodeId, NodeId)>,
    out_clusters: &mut Vec<Vec<NodeId>>,
    next_work: &mut Vec<NodeSet>,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) {
    if s.is_empty() {
        return;
    }
    if s.len() == 1 {
        out_clusters.push(s.iter().collect());
        return;
    }

    // The current working graph: G[S] minus the cuts accumulated so far.
    let work_graph = filtered_graph(g, s, cut);

    // Step 1: black-box edge-weak carving.
    let wc = a.carve_weak_edges(&work_graph, s, eps_inner, ledger);
    for &(u, v) in wc.carving().cut_edges() {
        cut.insert((u.min(v), u.max(v)));
    }

    // Giant detection over the Steiner trees (same costing as the node
    // version).
    let depth = wc.forest().max_depth().expect("valid trees") as u64;
    let congestion = wc.forest().congestion() as u64;
    let tree_nodes: u64 = wc.forest().trees().iter().map(|t| t.len() as u64).sum();
    primitives::charge_family_op(
        ledger,
        depth,
        congestion,
        tree_nodes,
        bits_for_value(g.n().max(2) as u64),
    );

    let giant = wc
        .carving()
        .clusters()
        .iter()
        .position(|c| c.len() as f64 > threshold);

    match giant {
        None => {
            // Case I: recurse on components of the (freshly cut) graph.
            let after = filtered_graph(g, s, cut);
            let view = after.view(s);
            next_work.extend(
                algo::connected_components(&view)
                    .into_sets()
                    .into_iter()
                    .filter(|c| !c.is_empty()),
            );
        }
        Some(ci) => {
            // Case II: ball-grow from the giant's root in the working
            // graph (pre-carver cuts of this iteration do not apply to
            // the ball — the carver's cuts separate its own clusters, but
            // the ball may swallow several of them; we grow in the graph
            // *with* this iteration's cuts to keep the accounting simple
            // and the separation sound).
            let after = filtered_graph(g, s, cut);
            let view = after.view(s);
            let root = wc.forest().tree(ci).root();
            let r_lo = wc.forest().tree(ci).depth().expect("valid tree");
            let r_hi = r_lo + window;

            let bfs = primitives::layer_census_in(&view, root, r_hi + 1, ledger, &mut ctx.ws);

            // Edge census per radius: E_in[r] (edges inside B_r) and
            // X[r] (edges from layer r to r+1).
            let max_layer = bfs.eccentricity().unwrap_or(0);
            let mut e_in = vec![0u64; max_layer as usize + 2];
            let mut x = vec![0u64; max_layer as usize + 2];
            for v in bfs.order() {
                let dv = bfs.dist(*v);
                for u in view.neighbors(*v) {
                    if *v < u && bfs.reached(u) {
                        let du = bfs.dist(u);
                        let hi = dv.max(du) as usize;
                        e_in[hi] += 1;
                        if dv.abs_diff(du) == 1 {
                            x[dv.min(du) as usize] += 1;
                        }
                    }
                }
            }
            // Prefix-sum E_in: edges inside B_r = edges with max level <= r.
            for r in 1..e_in.len() {
                e_in[r] += e_in[r - 1];
            }
            let at = |arr: &[u64], r: u32| -> u64 { arr[(r as usize).min(arr.len() - 1)] };

            let mut r_star = r_hi;
            for r in r_lo..=r_hi {
                if r as usize >= x.len() || at(&x, r) as f64 <= (eps / 2.0) * at(&e_in, r) as f64 {
                    r_star = r;
                    break;
                }
            }

            let ball: Vec<NodeId> = bfs.ball(r_star).collect();
            // Cut the boundary edges (layer r* to r*+1).
            for v in bfs.order() {
                if bfs.dist(*v) == r_star {
                    for u in view.neighbors(*v) {
                        if bfs.reached(u) && bfs.dist(u) == r_star + 1 {
                            cut.insert((*v.min(&u), *v.max(&u)));
                        }
                    }
                }
            }
            out_clusters.push(ball.clone());

            let mut remaining = s.clone();
            for v in ball {
                remaining.remove(v);
            }
            if !remaining.is_empty() {
                let after2 = filtered_graph(g, &remaining, cut);
                let view2 = after2.view(&remaining);
                next_work.extend(
                    algo::connected_components(&view2)
                        .into_sets()
                        .into_iter()
                        .filter(|c| !c.is_empty()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_edge_carving;
    use sdnd_graph::gen;
    use sdnd_weak::Rg20Edge;

    fn check(g: &Graph, eps: f64) -> EdgeCarving {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let out = weak_to_strong_edges_in(
            g,
            &alive,
            eps,
            &Rg20Edge::new(),
            &Params::default(),
            &mut ledger,
            &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        let report = validate_edge_carving(g, &out);
        assert!(
            report.is_valid(eps),
            "cut {:.3}, violations: {:?}",
            report.cut_fraction,
            report.violations
        );
        assert!(ledger.rounds() > 0);
        out
    }

    #[test]
    fn edge_transform_on_suite() {
        check(&gen::grid(8, 8), 0.5);
        check(&gen::cycle(60), 0.5);
        check(&gen::gnp_connected(64, 0.07, 3), 0.5);
    }

    #[test]
    fn every_node_clustered() {
        let g = gen::random_tree(70, 4);
        let out = check(&g, 0.5);
        let covered: usize = out.clusters().iter().map(Vec::len).sum();
        assert_eq!(covered, 70);
    }

    #[test]
    fn tight_eps_respected() {
        let g = gen::grid(10, 10);
        let out = check(&g, 0.2);
        assert!(out.cut_fraction(&g) <= 0.2 + 1e-9);
    }

    #[test]
    fn empty_input() {
        let g = gen::path(4);
        let mut ledger = RoundLedger::new();
        let out = weak_to_strong_edges_in(
            &g,
            &NodeSet::empty(4),
            0.5,
            &Rg20Edge::new(),
            &Params::default(),
            &mut ledger,
            &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        assert_eq!(out.num_clusters(), 0);
    }
}
