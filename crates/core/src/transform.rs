//! Theorem 2.1: the weak→strong ball carving transformation.
//!
//! Given a black-box weak-diameter ball carving algorithm `A` (clusters
//! with Steiner trees of depth `R` and congestion `L`), algorithm `B`
//! computes a *strong*-diameter ball carving with diameter
//! `2 R(n, eps / (2 log n)) + O(log n / eps)` — the core technical
//! contribution of the paper.
//!
//! # The iteration (paper, Section 2)
//!
//! `B` runs `log n` iterations; at the start of iteration `i` every
//! connected component of alive nodes has at most `n / 2^(i-1)` nodes,
//! and each component `S` is processed independently and in parallel:
//!
//! 1. Run `A` on `G[S]` with boundary `eps' = eps / (2 log n)`.
//! 2. **Case I** — every cluster has at most `n / 2^i` nodes: declare
//!    `A`'s unclustered nodes dead and recurse on the connected
//!    components of the alive nodes (each lies inside one cluster, so
//!    the size bound holds).
//! 3. **Case II** — some *giant* cluster `C` exceeds `n / 2^i` (at most
//!    one can): let `a` be the root of `C`'s Steiner tree. Grow a ball
//!    around `a` in the whole of `G[S]`, starting from radius `R` (which
//!    covers `C`), until a radius `r*` with
//!    `|B_r| / |B_{r+1}| >= 1 - eps/2` is found — at most
//!    `O(log n / eps)` growth steps, since each failure multiplies the
//!    ball size by `1/(1 - eps/2)`. Output `B_{r*}(a)` as a
//!    strong-diameter cluster, kill the boundary layer `r* + 1`, and
//!    recurse on the components of the remainder (`A`'s unclustered
//!    nodes stay alive in this case).
//!
//! Dead nodes: at most `eps/2` from the `log n` invocations of `A` plus
//! at most `eps/2` from ball boundaries (each boundary is an `eps/2`
//! fraction of its removed ball, and removed balls are disjoint).
//!
//! The balls grow in the input's own metric: hop layers on an
//! unweighted graph, weighted balls grown in steps of the largest edge
//! weight on a weighted one (see [`weak_to_strong_in`]).

use crate::Params;
use sdnd_clustering::{BallCarving, Cancelled, CarveCtx, WeakCarver};
use sdnd_congest::{bits_for_value, primitives, RoundLedger};
use sdnd_graph::{algo, Adjacency as _, Graph, NodeId, NodeSet};

/// Runs the Theorem 2.1 transformation: a strong-diameter ball carving
/// of `G[alive]` removing at most an `eps` fraction of `alive`, via
/// black-box invocations of the weak carver `a`.
///
/// The Case II ball growth runs in the graph's own metric. On an
/// unweighted graph it is the paper's: integer radii, layer censuses,
/// boundary layer `r* + 1` killed. On a weighted graph
/// ([`Graph::is_weighted`]) the radius grows in steps of `W` (the
/// largest alive edge weight in the component) starting from the
/// weighted eccentricity of the giant cluster, over weighted
/// [`primitives::sp_bfs_in`] balls: every topological neighbor of `B_r`
/// lies inside `B_{r + W}`, so the ratio condition
/// `|B_r| >= (1 - eps/2) |B_{r+W}|` bounds the killed shell exactly as
/// the unit-step rule does in hops, and a failed step still multiplies
/// the ball size by `1 / (1 - eps/2)` — the growth window and the
/// dead-fraction budget carry over unchanged. The killed shell itself is
/// computed topologically (alive neighbors of the ball outside it),
/// which is what non-adjacency of the output clusters actually requires.
/// A unit-weighted graph yields the clusters of its unweighted twin.
///
/// Every Case II ball growth (layer census or weighted flood) and
/// component scan reuses the context's traversal workspace. The armed
/// deadline is honored once per processed component (each component
/// costs at least one full weak carving — the traversal-epoch
/// granularity), plus whatever checkpoints the weak carver adds.
///
/// # Errors
///
/// [`Cancelled`] when the armed deadline trips at a component boundary
/// (or inside the weak carver); the context stays safely reusable.
///
/// # Panics
///
/// Panics if `eps` is not in `(0, 1)` or if the iteration bound is
/// exceeded (which would indicate a broken weak carver).
pub fn weak_to_strong_in<A: WeakCarver + ?Sized>(
    g: &Graph,
    alive: &NodeSet,
    eps: f64,
    a: &A,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<BallCarving, Cancelled> {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
    let n0 = alive.len();
    if n0 == 0 {
        return Ok(BallCarving::new(alive.clone(), vec![]).expect("empty carving"));
    }

    let log2n = Params::log2n(n0);
    let eps_inner = params.inner_eps(eps, n0);
    let window = params.growth_window(eps, n0);
    let max_iter = log2n + 2;

    let mut out_clusters: Vec<Vec<NodeId>> = Vec::new();
    // Components to process this iteration.
    let mut work: Vec<NodeSet> = {
        let view = g.view(alive);
        algo::connected_components(&view).into_sets()
    };

    for i in 1..=max_iter {
        if work.is_empty() {
            break;
        }
        assert!(
            i <= max_iter,
            "Theorem 2.1 iteration bound exceeded; weak carver is broken"
        );
        // Threshold for a giant cluster: |C| > n0 / 2^i.
        let threshold = n0 as f64 / 2f64.powi(i as i32);
        let mut next_work: Vec<NodeSet> = Vec::new();
        let mut branch_ledgers: Vec<RoundLedger> = Vec::new();

        for s in work {
            ctx.checkpoint("weak-to-strong-component")?;
            let mut branch = RoundLedger::new();
            process_component(
                g,
                &s,
                eps,
                eps_inner,
                threshold,
                window,
                a,
                &mut out_clusters,
                &mut next_work,
                &mut branch,
                ctx,
            )?;
            branch_ledgers.push(branch);
            ctx.ws.give_set(s);
        }
        ledger.merge_parallel(branch_ledgers);
        work = next_work;
    }
    assert!(
        work.is_empty(),
        "components remain after the iteration bound; weak carver is broken"
    );

    Ok(BallCarving::new(alive.clone(), out_clusters)
        .expect("output balls are disjoint subsets of the alive set"))
}

/// One component, one iteration: the Case I / Case II dichotomy.
#[allow(clippy::too_many_arguments)]
fn process_component<A: WeakCarver + ?Sized>(
    g: &Graph,
    s: &NodeSet,
    eps: f64,
    eps_inner: f64,
    threshold: f64,
    window: u32,
    a: &A,
    out_clusters: &mut Vec<Vec<NodeId>>,
    next_work: &mut Vec<NodeSet>,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<(), Cancelled> {
    if s.is_empty() {
        return Ok(());
    }
    if s.len() == 1 {
        out_clusters.push(s.iter().collect());
        return Ok(());
    }

    // Step 1: the black-box weak carving on G[S] (workspace-threaded
    // for carvers that support it).
    let wc = a.carve_weak_in(g, s, eps_inner, ledger, ctx)?;

    // Giant detection: sizes are gathered over the Steiner trees
    // (depth x congestion rounds, one counter message per tree node).
    let depth = wc
        .forest()
        .max_depth()
        .expect("carver produced valid trees") as u64;
    let congestion = wc.forest().congestion() as u64;
    let tree_nodes: u64 = wc.forest().trees().iter().map(|t| t.len() as u64).sum();
    let count_bits = bits_for_value(g.n().max(2) as u64);
    primitives::charge_family_op(ledger, depth, congestion, tree_nodes, count_bits);

    let giant = wc
        .carving()
        .clusters()
        .iter()
        .position(|c| c.len() as f64 > threshold);

    match giant {
        None => {
            // Case I: drop the carver's dead nodes, recurse on components.
            let mut remaining = ctx.ws.take_set(g.n());
            remaining.assign(s);
            remaining.subtract(wc.carving().dead());
            if !remaining.is_empty() {
                let view = g.view(&remaining);
                next_work.extend(algo::connected_components(&view).into_sets());
            }
            ctx.ws.give_set(remaining);
        }
        Some(ci) if !g.is_weighted() => {
            // Case II: ball-grow from the giant cluster's tree root
            // over the whole component (the carver's dead stay alive
            // here).
            let root = wc.forest().tree(ci).root();
            let tree_depth = wc.forest().tree(ci).depth().expect("valid tree");
            let r_lo = tree_depth;
            let r_hi = r_lo + window;

            let view = g.view(s);
            let census = primitives::layer_census_in(&view, root, r_hi + 1, ledger, &mut ctx.ws);
            debug_assert!(
                wc.carving().clusters()[ci]
                    .iter()
                    .all(|&m| census.reached(m) && census.dist(m) <= r_lo),
                "tree depth bounds the root-to-member distance in G[S]"
            );

            // Clamped accessor: safe past the deepest census layer
            // and (vacuously) on an empty census.
            let ball_at = |r: u32| census.ball_size(r);
            let mut r_star = r_hi;
            for r in r_lo..=r_hi {
                if ball_at(r) as f64 >= (1.0 - eps / 2.0) * ball_at(r + 1) as f64 {
                    r_star = r;
                    break;
                }
            }
            assert!(
                ball_at(r_star) as f64 >= (1.0 - eps / 2.0) * ball_at(r_star + 1) as f64,
                "no good radius in the growth window — ball sizes would exceed n"
            );

            let ball: Vec<NodeId> = census.ball(r_star).collect();
            let boundary: Vec<NodeId> = census
                .order()
                .iter()
                .copied()
                .filter(|&v| census.dist(v) == r_star + 1)
                .collect();

            out_clusters.push(ball.clone());

            let mut remaining = ctx.ws.take_set(g.n());
            remaining.assign(s);
            for v in ball.into_iter().chain(boundary) {
                remaining.remove(v);
            }
            if !remaining.is_empty() {
                let view = g.view(&remaining);
                next_work.extend(algo::connected_components(&view).into_sets());
            }
            ctx.ws.give_set(remaining);
        }
        Some(ci) => {
            // Case II in the weighted metric: grow `B_r(a)` in steps
            // of the largest alive edge weight `W`. Every neighbor
            // of `B_r` lies inside `B_{r + W}`, so the usual ratio
            // condition between consecutive steps bounds the killed
            // shell, and each failed step still multiplies the ball
            // size by `1 / (1 - eps/2)`.
            let root = wc.forest().tree(ci).root();
            let tree_depth = wc.forest().tree(ci).depth().expect("valid tree");

            // Scratch sets for the shell computation, taken before
            // the flood so the pool and the run view never borrow
            // the workspace at the same time.
            let mut in_ball = ctx.ws.take_set(g.n());
            let mut shell = ctx.ws.take_set(g.n());

            let view = g.view(s);
            let w_max = s
                .iter()
                .flat_map(|v| view.neighbors_weighted(v))
                .fold(0.0_f64, |acc, (_, w)| acc.max(w));
            let step = if w_max > 0.0 { w_max } else { 1.0 };
            // Truncate the flood like the hop branch truncates its
            // census at `r_hi + 1`: members sit within weighted
            // distance `tree_depth · W` of the root (the Steiner
            // tree's edges are real edges), so everything the growth
            // rule can inspect lies within one window past that —
            // flooding the whole component would inflate the round
            // charge far beyond the paper's window-bounded analysis.
            let r_cap = tree_depth as f64 * step.max(1.0) + (window as f64 + 1.0) * step;
            let (sp, rounds) = primitives::sp_bfs_in(&view, [root], r_cap, ledger, &mut ctx.ws);
            // Ball counts and the component's max edge weight reach
            // the root by a convergecast over the relaxation tree:
            // its height is at most the flooding round count, with
            // one counter message per reached node (the weighted
            // mirror of the layer-census upcast charge).
            let count_bits = bits_for_value(g.n().max(2) as u64);
            ledger.charge_rounds(rounds);
            ledger.record_messages(sp.reached_count() as u64, count_bits);

            let member_ecc = wc.carving().clusters()[ci]
                .iter()
                .fold(0.0_f64, |acc, &m| acc.max(sp.dist(m)));
            // Start no lower than the hop rule would (the tree depth
            // covers the members whenever weights are at most 1, and
            // keeps unit-weight runs identical to hop runs) and no
            // lower than the weighted eccentricity of the members
            // (which covers them in general).
            let r_lo = (tree_depth as f64).max(member_ecc);
            debug_assert!(
                wc.carving().clusters()[ci]
                    .iter()
                    .all(|&m| sp.reached(m) && sp.dist(m) <= r_lo),
                "r_lo covers the giant cluster in the weighted metric"
            );

            let mut r_star = r_lo + window as f64 * step;
            for k in 0..=window {
                let r = r_lo + k as f64 * step;
                if sp.ball_count(r) as f64 >= (1.0 - eps / 2.0) * sp.ball_count(r + step) as f64 {
                    r_star = r;
                    break;
                }
            }
            assert!(
                sp.ball_count(r_star) as f64
                    >= (1.0 - eps / 2.0) * sp.ball_count(r_star + step) as f64,
                "no good radius in the growth window — ball sizes would exceed n"
            );

            let ball: Vec<NodeId> = sp.ball(r_star).collect();
            // The killed shell is all of `B_{r*+step} \ B_{r*}` —
            // the removed region is then exactly `B_{r*+step}`, so
            // the ratio condition bounds the shell by `eps/2` of it,
            // and removed regions stay disjoint across Case II
            // invocations (the paper's accounting, with `B_{r+1}`
            // generalized to `B_{r+W}`). Any topological neighbor of
            // the ball is also killed outright: mathematically it
            // already lies in the shell, but doing it by adjacency
            // keeps non-adjacency of the output immune to `f64`
            // rounding at the shell's outer rim. Under unit weights
            // both sets are exactly the hop layer `r* + 1`.
            for &v in &ball {
                in_ball.insert(v);
            }
            for v in sp.ball(r_star + step) {
                if !in_ball.contains(v) {
                    shell.insert(v);
                }
            }
            for &v in &ball {
                for u in view.neighbors(v) {
                    if !in_ball.contains(u) {
                        shell.insert(u);
                    }
                }
            }

            out_clusters.push(ball.clone());

            let mut remaining = ctx.ws.take_set(g.n());
            remaining.assign(s);
            for v in ball {
                remaining.remove(v);
            }
            remaining.subtract(&shell);
            if !remaining.is_empty() {
                let view = g.view(&remaining);
                next_work.extend(algo::connected_components(&view).into_sets());
            }
            ctx.ws.give_set(remaining);
            ctx.ws.give_set(in_ball);
            ctx.ws.give_set(shell);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::{validate_carving, WeakCarving};
    use sdnd_graph::gen;
    use sdnd_weak::{Ls93, Rg20};

    fn weak_to_strong(
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        a: &dyn WeakCarver,
        params: &Params,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        weak_to_strong_in(g, alive, eps, a, params, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn check(g: &Graph, eps: f64, carver: &dyn WeakCarver) -> (BallCarving, RoundLedger) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let out = weak_to_strong(g, &alive, eps, carver, &Params::default(), &mut ledger);
        let report = validate_carving(g, &out);
        assert!(
            report.is_valid_strong(eps),
            "strong contract violated (dead {:.3}): {:?}",
            report.dead_fraction,
            report.violations
        );
        (out, ledger)
    }

    #[test]
    fn transforms_rg20_on_grid() {
        let g = gen::grid(8, 8);
        let (out, ledger) = check(&g, 0.5, &Rg20::ggr21());
        assert!(out.num_clusters() >= 1);
        assert!(ledger.rounds() > 0);
    }

    #[test]
    fn transforms_rg20_on_path_and_cycle() {
        check(&gen::path(64), 0.5, &Rg20::ggr21());
        check(&gen::cycle(50), 0.5, &Rg20::ggr21());
    }

    #[test]
    fn transforms_rg20_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::gnp_connected(70, 0.06, seed);
            check(&g, 0.5, &Rg20::ggr21());
        }
    }

    #[test]
    fn transforms_on_expander() {
        let g = gen::random_regular_connected(64, 4, 5).unwrap();
        check(&g, 0.5, &Rg20::ggr21());
    }

    #[test]
    fn works_with_randomized_weak_carver_too() {
        // Theorem 2.1 is black-box: plugging the LS93 carver also yields
        // a valid strong carving (the resulting algorithm is randomized).
        let g = gen::grid(7, 7);
        check(&g, 0.5, &Ls93::new(3));
    }

    #[test]
    fn small_eps_kills_fewer() {
        let g = gen::grid(10, 10);
        let (out, _) = check(&g, 0.25, &Rg20::ggr21());
        assert!(out.dead_fraction() <= 0.25);
    }

    #[test]
    fn diameter_within_theorem_bound() {
        // Theorem 2.1: strong diameter <= 2 R(n, eps') + O(log n / eps).
        // Measure R from a direct weak carving at the same eps' and
        // compare.
        let g = gen::grid(9, 9);
        let alive = NodeSet::full(g.n());
        let params = Params::default();
        let eps = 0.5;
        let carver = Rg20::ggr21();

        let mut scratch = RoundLedger::new();
        let wc: WeakCarving =
            carver.carve_weak(&g, &alive, params.inner_eps(eps, 81), &mut scratch);
        let r = wc.forest().max_depth().unwrap();

        let mut ledger = RoundLedger::new();
        let out = weak_to_strong(&g, &alive, eps, &carver, &params, &mut ledger);
        let report = validate_carving(&g, &out);
        let bound = 2 * r + params.growth_window(eps, 81) + 2;
        let measured = report.max_strong_diameter.unwrap();
        assert!(
            measured <= 2 * bound,
            "measured {measured} vs theorem-shaped bound {bound}"
        );
    }

    #[test]
    fn disconnected_input_processed_per_component() {
        let mut b = Graph::builder(20);
        // Two disjoint paths.
        for i in 1..10 {
            b.edge(i - 1, i);
        }
        for i in 11..20 {
            b.edge(i - 1, i);
        }
        let g = b.build().unwrap();
        check(&g, 0.5, &Rg20::ggr21());
    }

    #[test]
    fn empty_and_singleton() {
        let g = gen::path(5);
        let mut ledger = RoundLedger::new();
        let empty = weak_to_strong(
            &g,
            &NodeSet::empty(5),
            0.5,
            &Rg20::rg20(),
            &Params::default(),
            &mut ledger,
        );
        assert_eq!(empty.num_clusters(), 0);

        let one = NodeSet::from_nodes(5, [NodeId::new(2)]);
        let out = weak_to_strong(
            &g,
            &one,
            0.5,
            &Rg20::rg20(),
            &Params::default(),
            &mut ledger,
        );
        assert_eq!(out.num_clusters(), 1);
        assert_eq!(out.dead_fraction(), 0.0);
    }

    #[test]
    fn weighted_inputs_grow_weighted_balls() {
        // The strong contract (non-adjacency, connectivity, eps budget)
        // holds on weighted inputs, where Case II runs the sp-bfs growth.
        for seed in 0..3 {
            let g = gen::gnp_connected_weighted(
                64,
                0.07,
                seed,
                gen::WeightDist::UniformInt { lo: 1, hi: 8 },
            )
            .unwrap();
            check(&g, 0.5, &Rg20::ggr21());
        }
        let grid =
            gen::grid_weighted(8, 8, gen::WeightDist::Uniform { lo: 0.5, hi: 4.0 }, 5).unwrap();
        check(&grid, 0.5, &Rg20::ggr21());
    }

    #[test]
    fn unit_weights_reproduce_hop_carving_exactly() {
        // A unit-weighted graph runs the weighted branch (sp-bfs balls,
        // W = 1 steps, topological shell) and must produce byte-for-byte
        // the clusters of the hop branch on the unweighted twin — the
        // strongest equivalence between the two Case II implementations.
        for seed in 0..4 {
            let g = gen::gnp_connected(70, 0.06, seed);
            let unit = gen::reweight(&g, gen::WeightDist::Unit, seed).unwrap();
            let alive = NodeSet::full(g.n());
            let params = Params::default();
            let carver = Rg20::ggr21();
            let mut l1 = RoundLedger::new();
            let hop = weak_to_strong(&g, &alive, 0.5, &carver, &params, &mut l1);
            let mut l2 = RoundLedger::new();
            let weighted = weak_to_strong(&unit, &alive, 0.5, &carver, &params, &mut l2);
            // Cluster *membership* must agree exactly; the node order
            // within a cluster is discovery order (BFS layers vs sorted
            // distances) and is not part of the carving's meaning.
            let sorted = |c: &BallCarving| -> Vec<Vec<NodeId>> {
                c.clusters()
                    .iter()
                    .map(|m| {
                        let mut m = m.clone();
                        m.sort_unstable();
                        m
                    })
                    .collect()
            };
            assert_eq!(sorted(&hop), sorted(&weighted), "seed {seed}");
            assert_eq!(
                hop.dead().iter().collect::<Vec<_>>(),
                weighted.dead().iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn congest_compliance() {
        let g = gen::grid(7, 7);
        let mut ledger = RoundLedger::new();
        let _ = weak_to_strong(
            &g,
            &NodeSet::full(49),
            0.5,
            &Rg20::ggr21(),
            &Params::default(),
            &mut ledger,
        );
        let cost = sdnd_congest::CostModel::congest_for(49);
        assert!(
            ledger.complies_with(&cost),
            "max message {} bits vs budget {}",
            ledger.max_message_bits(),
            cost.bits_per_message()
        );
    }
}
