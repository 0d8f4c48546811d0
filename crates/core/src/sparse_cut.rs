//! Lemma 3.1: balanced sparse cut or large small-diameter component.
//!
//! On a `D`-diameter graph the algorithm returns, in `O(D log n)`
//! rounds, either
//!
//! - a **balanced sparse cut**: non-adjacent sets `V1, V2` with
//!   `|V1|, |V2| >= n/3` separated by a middle layer of
//!   `O(eps n / log n)` nodes, or
//! - a **large small-diameter component**: `U` with `|U| >= n/3`,
//!   diameter `O(log^2 n / eps)`, and only `O(eps n / log n)` outside
//!   nodes adjacent to it.
//!
//! The search maintains a shrinking seed set `S` (initially everything).
//! Let `a` / `b` be the smallest radii whose `S`-neighborhoods reach
//! `n/3` / `2n/3` nodes. If the annulus `b - a` is wide, its thinnest
//! layer is a balanced sparse cut. Otherwise `S` is split into two
//! halves along the DFS order of a BFS tree (so both halves stay
//! coherent), and the half whose `a`-radius is smaller is kept — the
//! paper's observation `min(a1, a2) <= b` bounds the drift per
//! iteration by `O(log n / eps)`. After `O(log n)` halvings `S` is a
//! single node whose `n/3`-ball has radius `O(log^2 n / eps)`; growing
//! it to the thinnest layer within one more window yields `U`.
//!
//! The BFS tree is the leader's, elected once per call; its DFS
//! pre-order is computed once and ranks every `S`. The probe that picks
//! the kept half is a BFS from that half, so its ball sizes and charges
//! are the next iteration's census of `S`: the census is charged again
//! there, as the distributed algorithm pays for it, but not re-run.

use crate::Params;
use sdnd_clustering::{Cancelled, CarveCtx};
use sdnd_congest::{bits_for_value, primitives, RoundLedger};
use sdnd_graph::algo::{self, TraversalWorkspace};
use sdnd_graph::{Adjacency, Graph, NodeSet};

/// The two possible outcomes of Lemma 3.1.
#[derive(Debug, Clone)]
pub enum CutOrComponent {
    /// Non-adjacent `v1`, `v2` (each at least a third of the nodes)
    /// separated by the thin `middle` layer.
    SparseCut {
        /// One side of the cut (`B_{r*}(S)`).
        v1: NodeSet,
        /// The other side (`V \ B_{r*+1}(S)`).
        v2: NodeSet,
        /// The removed middle layer (distance exactly `r* + 1` from `S`).
        middle: NodeSet,
    },
    /// A component `u` of at least a third of the nodes with small
    /// diameter; `boundary` is the set of outside nodes adjacent to it.
    Component {
        /// The small-diameter set `B_{r*}(v)`.
        u: NodeSet,
        /// Nodes outside `u` adjacent to it (distance exactly `r* + 1`).
        boundary: NodeSet,
    },
}

impl CutOrComponent {
    /// The nodes removed by this outcome (middle layer or boundary).
    pub fn removed(&self) -> &NodeSet {
        match self {
            CutOrComponent::SparseCut { middle, .. } => middle,
            CutOrComponent::Component { boundary, .. } => boundary,
        }
    }
}

/// Runs Lemma 3.1 on the connected set `alive` (diameter `D`), charging
/// `O(D log n)` rounds.
///
/// The BFS runs of an invocation share the context's traversal
/// workspace and the split halves come from its NodeSet pool, so a
/// whole invocation performs `O(1)` heap allocations per traversal. The
/// context's armed deadline is honored once per halving iteration (each
/// iteration probes both halves with a full multi-source BFS — the
/// traversal-epoch granularity).
///
/// # Errors
///
/// [`Cancelled`] when the armed deadline trips at an iteration
/// boundary; pooled sets held mid-iteration are dropped (the pool
/// re-grows on demand) and the context stays safely reusable.
///
/// # Panics
///
/// Panics if `eps` is not in `(0, 1)` or `alive` is empty. `alive`
/// should induce a connected subgraph; if it does not, the multi-source
/// structure still yields a valid outcome for the union, but the
/// diameter guarantee applies per component.
pub fn cut_or_component_in(
    g: &Graph,
    alive: &NodeSet,
    eps: f64,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<CutOrComponent, Cancelled> {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
    assert!(!alive.is_empty(), "Lemma 3.1 needs a nonempty set");
    let n = alive.len();
    let view = g.view(alive);
    let window = params.cut_window(eps, n);
    let third = n.div_ceil(3);
    let two_thirds = (2 * n).div_ceil(3);

    // One leader election up front: gives the BFS tree used for both
    // aggregation charges and the DFS-order splits.
    let leader_info = primitives::elect_leader(&view, ledger);
    let leader = view
        .min_id_node()
        .expect("nonempty view has a minimum-identifier node");
    let tree = primitives::SubsetDfsRanks::new(&view, leader, leader_info.parents());
    let tree_height = tree.height() as u64;
    let count_bits = bits_for_value(g.n().max(2) as u64);

    let mut s: NodeSet = {
        let mut s = ctx.ws.take_set(g.n());
        s.assign(alive);
        s
    };
    let max_iters = Params::log2n(n) + 2;
    // The previous iteration's probe of the kept half: the census of S.
    let mut carried: Option<Census> = None;

    for _ in 0..max_iters {
        if s.len() <= 1 {
            break;
        }
        if let Err(c) = ctx.checkpoint("cut-halving-iteration") {
            ctx.ws.give_set(s);
            return Err(c);
        }
        // Layer census from the source set S.
        let census = carried
            .take()
            .unwrap_or_else(|| Census::run(&view, &s, &mut ctx.ws));
        ledger.merge_sequential(&census.charge);
        let balls = &census.balls;
        // Aggregating the layer counts to the leader: pipelined over the
        // leader's BFS tree.
        ledger.charge_rounds(tree_height + balls.len() as u64);
        ledger.record_messages(s.len() as u64 + balls.len() as u64, count_bits);

        let a = smallest_radius_reaching(balls, third);
        let b = smallest_radius_reaching(balls, two_thirds);

        if b.saturating_sub(a) >= window {
            // Wide annulus: cut along the thinnest layer in [a, b-2]. The
            // census holds ball sizes only, so the distances come from an
            // uncharged re-run of the BFS it already paid for.
            let r_star = thinnest_layer(balls, a, b - 2);
            let bfs = algo::bfs_in(&mut ctx.ws, &view, s.iter());
            let mut v1 = NodeSet::empty(g.n());
            let mut middle = NodeSet::empty(g.n());
            let mut v2 = NodeSet::empty(g.n());
            for v in alive.iter() {
                let d = bfs.dist(v);
                if d <= r_star {
                    v1.insert(v);
                } else if d == r_star + 1 {
                    middle.insert(v);
                } else {
                    v2.insert(v);
                }
            }
            debug_assert!(
                v1.len() >= third && v2.len() + middle.len() >= n - balls[b as usize - 1]
            );
            ctx.ws.give_set(s);
            return Ok(CutOrComponent::SparseCut { v1, v2, middle });
        }

        // Narrow annulus: split S along the DFS order of the leader tree.
        // Members outside the tree (a disconnected remnant) stay with the
        // second half.
        let mut s1 = ctx.ws.take_set(g.n());
        for v in tree.ranked(&s, ledger).take(s.len().div_ceil(2)) {
            s1.insert(v);
        }
        let mut s2 = ctx.ws.take_set(g.n());
        s2.assign(&s);
        s2.subtract(&s1);
        // Keep the half with the smaller a-radius; its probe is the next
        // iteration's census.
        let p1 = Census::run(&view, &s1, &mut ctx.ws);
        let p2 = Census::run(&view, &s2, &mut ctx.ws);
        ledger.merge_sequential(&p1.charge);
        ledger.merge_sequential(&p2.charge);
        ledger.charge_rounds(2 * tree_height);
        let (winner, loser, probe) = if p1.radius(third) <= p2.radius(third) {
            (s1, s2, p1)
        } else {
            (s2, s1, p2)
        };
        carried = Some(probe);
        ctx.ws.give_set(loser);
        ctx.ws.give_set(std::mem::replace(&mut s, winner));
    }

    // S is a single seed: grow to the thinnest layer past the n/3 ball.
    let seed = s.iter().next().expect("seed remains");
    ctx.ws.give_set(s);
    ctx.checkpoint("cut-final-growth")?;
    let bfs = primitives::bfs_in(&view, [seed], u32::MAX, ledger, &mut ctx.ws);
    let balls = bfs.ball_sizes();
    ledger.charge_rounds(tree_height + balls.len() as u64);
    let a = smallest_radius_reaching(balls, third);
    let r_star = thinnest_layer(balls, a, a + window);

    let mut u = NodeSet::empty(g.n());
    let mut boundary = NodeSet::empty(g.n());
    for v in alive.iter() {
        let d = bfs.dist(v);
        if d <= r_star {
            u.insert(v);
        } else if d == r_star + 1 {
            boundary.insert(v);
        }
    }
    Ok(CutOrComponent::Component { u, boundary })
}

/// A layer census from a seed set: the cumulative ball sizes of a BFS
/// from it and what that BFS charged. An empty seed set gives an empty
/// census that charges nothing.
struct Census {
    balls: Vec<usize>,
    charge: RoundLedger,
}

impl Census {
    fn run<A: Adjacency>(view: &A, seeds: &NodeSet, ws: &mut TraversalWorkspace) -> Census {
        let mut charge = RoundLedger::new();
        let bfs = primitives::bfs_in(view, seeds.iter(), u32::MAX, &mut charge, ws);
        Census {
            balls: bfs.ball_sizes().to_vec(),
            charge,
        }
    }

    /// The smallest radius whose ball reaches `target` nodes (`u32::MAX`
    /// for an empty seed set, which never wins a comparison).
    fn radius(&self, target: usize) -> u32 {
        if self.balls.is_empty() {
            u32::MAX
        } else {
            smallest_radius_reaching(&self.balls, target)
        }
    }
}

/// Smallest radius `r` with `balls[r] >= target` (or the last layer if
/// never reached — only possible for disconnected inputs).
fn smallest_radius_reaching(balls: &[usize], target: usize) -> u32 {
    balls
        .iter()
        .position(|&c| c >= target)
        .unwrap_or(balls.len().saturating_sub(1)) as u32
}

/// The radius `r` in `[lo, hi]` minimizing `balls[r+1] / balls[r]`
/// (layers past the BFS frontier count as ratio 1).
fn thinnest_layer(balls: &[usize], lo: u32, hi: u32) -> u32 {
    // Clamped lookup: radii past the frontier read the final ball size,
    // and an empty run (no prefix sums at all) reads 0 instead of
    // underflowing `len - 1`.
    let at = |r: u32| -> usize {
        match balls.len() {
            0 => 0,
            len => balls[(r as usize).min(len - 1)],
        }
    };
    let mut best = lo;
    let mut best_ratio = f64::INFINITY;
    for r in lo..=hi {
        let ratio = at(r + 1) as f64 / at(r).max(1) as f64;
        if ratio < best_ratio {
            best_ratio = ratio;
            best = r;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_graph::{gen, NodeId};

    fn cut_or_component(
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        params: &Params,
        ledger: &mut RoundLedger,
    ) -> CutOrComponent {
        cut_or_component_in(g, alive, eps, params, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn run(g: &Graph, eps: f64) -> (CutOrComponent, usize) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let out = cut_or_component(g, &alive, eps, &Params::default(), &mut ledger);
        assert!(ledger.rounds() > 0);
        (out, g.n())
    }

    fn assert_valid(g: &Graph, out: &CutOrComponent, n: usize) {
        match out {
            CutOrComponent::SparseCut { v1, v2, middle } => {
                assert!(v1.len() >= n / 3, "v1 too small: {}", v1.len());
                assert!(v2.len() >= n / 3, "v2 too small: {}", v2.len());
                assert!(v1.is_disjoint(v2) && v1.is_disjoint(middle) && v2.is_disjoint(middle));
                assert_eq!(v1.len() + v2.len() + middle.len(), n);
                // Non-adjacency of v1 and v2.
                for (a, b) in g.edges() {
                    let cross =
                        (v1.contains(a) && v2.contains(b)) || (v1.contains(b) && v2.contains(a));
                    assert!(!cross, "edge ({a},{b}) crosses the cut");
                }
            }
            CutOrComponent::Component { u, boundary } => {
                assert!(u.len() >= n / 3, "component too small: {}", u.len());
                assert!(u.is_disjoint(boundary));
                // Every outside neighbor of u lies in boundary.
                for (a, b) in g.edges() {
                    if u.contains(a) && !u.contains(b) {
                        assert!(boundary.contains(b), "neighbor {b} of u missed");
                    }
                    if u.contains(b) && !u.contains(a) {
                        assert!(boundary.contains(a), "neighbor {a} of u missed");
                    }
                }
            }
        }
    }

    #[test]
    fn long_path_yields_sparse_cut() {
        // A long path has a huge b - a annulus: must find a cut of a
        // single node.
        let g = gen::path(600);
        let (out, n) = run(&g, 0.5);
        assert_valid(&g, &out, n);
        match &out {
            CutOrComponent::SparseCut { middle, .. } => {
                assert!(middle.len() <= 6, "middle layer of a path should be tiny");
            }
            CutOrComponent::Component { .. } => panic!("expected a sparse cut on a long path"),
        }
    }

    #[test]
    fn small_diameter_graph_yields_component() {
        // A complete-ish graph has no wide annulus: must return a large
        // small-diameter component.
        let g = gen::complete(30);
        let (out, n) = run(&g, 0.5);
        assert_valid(&g, &out, n);
        match &out {
            CutOrComponent::Component { u, boundary } => {
                assert_eq!(u.len() + boundary.len(), 30, "K30 ball swallows everything");
            }
            CutOrComponent::SparseCut { .. } => panic!("K30 has no balanced sparse cut"),
        }
    }

    #[test]
    fn grid_outcome_is_valid() {
        for (r, c) in [(10, 10), (4, 50), (15, 7)] {
            let g = gen::grid(r, c);
            let (out, n) = run(&g, 0.5);
            assert_valid(&g, &out, n);
        }
    }

    #[test]
    fn expander_yields_component_with_small_diameter() {
        let g = gen::random_regular_connected(90, 4, 7).unwrap();
        let (out, n) = run(&g, 0.5);
        assert_valid(&g, &out, n);
        if let CutOrComponent::Component { u, .. } = &out {
            let members: Vec<NodeId> = u.iter().collect();
            let d =
                sdnd_clustering::metrics::strong_diameter_of_in(&g, &members, &mut CarveCtx::new())
                    .expect("connected");
            // O(log^2 n / eps) envelope with explicit constant.
            let bound = (8.0 * (90f64).ln().powi(2) / 0.5) as u32 + 4;
            assert!(d <= bound, "component diameter {d} vs {bound}");
        }
    }

    #[test]
    fn outcome_respects_eps_budget() {
        let g = gen::grid(12, 12);
        let alive = NodeSet::full(144);
        let mut ledger = RoundLedger::new();
        for eps in [0.5, 0.25] {
            let out = cut_or_component(&g, &alive, eps, &Params::default(), &mut ledger);
            let budget = (eps * 144.0 / (144f64).log2() * 8.0).ceil() as usize + 2;
            assert!(
                out.removed().len() <= budget,
                "removed {} exceeds O(eps n / log n) envelope {budget}",
                out.removed().len()
            );
        }
    }

    #[test]
    fn singleton_input() {
        let g = gen::path(3);
        let alive = NodeSet::from_nodes(3, [NodeId::new(1)]);
        let mut ledger = RoundLedger::new();
        let out = cut_or_component(&g, &alive, 0.5, &Params::default(), &mut ledger);
        match out {
            CutOrComponent::Component { u, boundary } => {
                assert_eq!(u.len(), 1);
                assert!(boundary.is_empty());
            }
            _ => panic!("singleton must be a component"),
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_input_panics() {
        let g = gen::path(3);
        let mut ledger = RoundLedger::new();
        let _ = cut_or_component(&g, &NodeSet::empty(3), 0.5, &Params::default(), &mut ledger);
    }
}
