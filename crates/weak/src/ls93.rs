//! The Linial–Saks randomized weak-diameter ball carving.
//!
//! Every alive node `v` draws a radius `r_v` from a truncated geometric
//! distribution and offers membership to every node within distance
//! `r_v`. A node `u` joins the *highest-identifier* node `v` covering it
//! (`dist(u, v) <= r_v`), and survives only if it is strictly interior
//! (`dist(u, v) < r_v`); boundary nodes die. The memoryless radius makes
//! each node die with probability about `p`, and the classic argument
//! shows surviving neighbors always share a cluster, so clusters are
//! pairwise non-adjacent with weak diameter at most `2 r_max`.
//!
//! This is the `[LS93]` randomized row of the paper's tables: weak
//! diameter `O(log n / eps)` in `O(log n / eps)` rounds, with Steiner
//! trees given by the shortest-path tree toward each winning center.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdnd_clustering::{BallCarving, SteinerForest, SteinerTree, WeakCarver, WeakCarving};
use sdnd_congest::{bits_for_value, primitives, RoundLedger};
use sdnd_graph::{Graph, NodeId, NodeSet};
use std::cell::Cell;
use std::collections::HashMap;

/// A node's winning center: `(center id, center, dist, parent toward center)`.
type Winner = (u64, NodeId, u32, Option<NodeId>);

/// The LS93 randomized weak-diameter carver.
///
/// Each call to [`carve_weak`](WeakCarver::carve_weak) advances the
/// internal seed so repeated invocations (e.g. by the
/// carving→decomposition reduction) draw fresh radii.
#[derive(Debug, Clone)]
pub struct Ls93 {
    seed: Cell<u64>,
}

impl Ls93 {
    /// Creates a carver with the given base seed.
    pub fn new(seed: u64) -> Self {
        Ls93 {
            seed: Cell::new(seed),
        }
    }

    /// Maximum radius for boundary parameter `eps` on an `n`-node
    /// alive set: the geometric distribution truncated at
    /// `ceil(2 ln(n) / eps)`.
    pub fn radius_cap(n: usize, eps: f64) -> u32 {
        ((2.0 * (n.max(2) as f64).ln()) / eps).ceil() as u32
    }
}

impl WeakCarver for Ls93 {
    /// Runs the carving on `G[alive]`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    fn carve_weak(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> WeakCarving {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        let seed = self.seed.get();
        self.seed.set(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let mut rng = SmallRng::seed_from_u64(seed);

        if alive.is_empty() {
            let carving = BallCarving::new(alive.clone(), vec![]).expect("empty carving");
            return WeakCarving::new(carving, SteinerForest::new()).expect("empty forest");
        }

        let n_alive = alive.len();
        let cap = Self::radius_cap(n_alive, eps);
        // P(die) ~ p with the radius geometric(p); p = eps/2 leaves slack
        // for the truncation.
        let p = eps / 2.0;

        // Draw radii.
        let view = g.view(alive);
        let mut radius: HashMap<u32, u32> = HashMap::with_capacity(n_alive);
        for v in alive.iter() {
            let mut r = 0u32;
            while r < cap && rng.gen_bool(1.0 - p) {
                r += 1;
            }
            radius.insert(u32::from(v), r);
        }

        // Winner per node: the maximum-identifier center covering it,
        // computed by truncated BFS per center (the distributed version
        // is a shifted BFS; rounds are charged below).
        // winner[u] = (id of center, center, dist, parent toward center).
        let mut winner: Vec<Option<Winner>> = vec![None; g.n()];
        let mut explored_edges = 0u64;
        let mut max_used_radius = 0u32;
        for v in alive.iter() {
            let r_v = radius[&u32::from(v)];
            let mut scratch = RoundLedger::new();
            let bfs = primitives::bfs(&view, [v], r_v, &mut scratch);
            explored_edges += scratch.messages();
            let id_v = g.id_of(v);
            for u in bfs.order() {
                let better = match winner[u.index()] {
                    None => true,
                    Some((best_id, ..)) => id_v > best_id,
                };
                if better {
                    winner[u.index()] = Some((id_v, v, bfs.dist(*u), bfs.parent(*u)));
                    max_used_radius = max_used_radius.max(bfs.dist(*u));
                }
            }
        }

        // Distributed cost: a shifted BFS wave over `cap` rounds; each
        // explored edge carries one (id, budget) message.
        let b = bits_for_value(g.n().max(2) as u64 - 1);
        ledger.charge_rounds(cap as u64 + 2);
        ledger.record_messages(explored_edges, 2 * b);

        // Assemble clusters: survivors are strictly interior to their
        // winning center's radius. (A radius-0 center dies unless a
        // higher-identifier center strictly covers it — the strict rule
        // is what guarantees surviving neighbors share a cluster.)
        let mut members_by_center: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for u in alive.iter() {
            let (_, center, dist, _) = winner[u.index()].expect("every alive node covers itself");
            let r_c = radius[&u32::from(center)];
            if dist < r_c {
                members_by_center
                    .entry(u32::from(center))
                    .or_default()
                    .push(u);
            }
        }

        // Steiner trees: for each winning center, the shortest-path tree
        // of its ball pruned to the root-to-member paths. Helper nodes on
        // those paths may be dead or belong to other clusters — that is
        // what makes the diameter weak.
        let mut centers: Vec<u32> = members_by_center.keys().copied().collect();
        centers.sort_unstable();
        let mut clusters = Vec::with_capacity(centers.len());
        let mut trees = Vec::with_capacity(centers.len());
        for c in centers {
            let center = NodeId::new(c as usize);
            let members = members_by_center.remove(&c).expect("center present");
            let r_c = radius[&c];
            let mut scratch = RoundLedger::new();
            let bfs = primitives::bfs(&view, [center], r_c, &mut scratch);
            let mut tree = SteinerTree::singleton(center);
            let mut in_tree = NodeSet::empty(g.n());
            in_tree.insert(center);
            for &m in &members {
                let mut cur = m;
                while !in_tree.contains(cur) {
                    let p = bfs.parent(cur).expect("member lies in the center's ball");
                    tree.attach(cur, p);
                    in_tree.insert(cur);
                    cur = p;
                }
            }
            clusters.push(members);
            trees.push(tree);
        }
        let carving =
            BallCarving::new(alive.clone(), clusters).expect("winner assignment is a partition");
        WeakCarving::new(carving, SteinerForest::from_trees(trees))
            .expect("one tree per cluster by construction")
    }

    fn name(&self) -> &'static str {
        "ls93"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_weak_carving;
    use sdnd_graph::gen;

    fn check(g: &Graph, eps: f64, seed: u64) -> WeakCarving {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let wc = Ls93::new(seed).carve_weak(g, &alive, eps, &mut ledger);
        let report = validate_weak_carving(g, &wc);
        assert!(
            report.carving.clusters_nonadjacent,
            "violations: {:?}",
            report.violations
        );
        assert!(report.trees_well_formed, "{:?}", report.violations);
        assert!(report.terminals_covered, "{:?}", report.violations);
        assert!(ledger.rounds() > 0);
        wc
    }

    #[test]
    fn carves_grid() {
        for seed in 0..5 {
            let wc = check(&gen::grid(8, 8), 0.5, seed);
            // With eps = 1/2 the expected dead fraction is ~1/4; allow a
            // generous margin but catch catastrophic failures.
            assert!(
                wc.carving().dead_fraction() < 0.8,
                "seed {seed}: dead {:.2}",
                wc.carving().dead_fraction()
            );
        }
    }

    #[test]
    fn carves_expander_and_tree() {
        check(&gen::random_regular_connected(64, 4, 9).unwrap(), 0.5, 1);
        check(&gen::random_tree(60, 4), 0.5, 2);
    }

    #[test]
    fn weak_diameter_within_radius_bound() {
        let g = gen::grid(10, 10);
        let wc = check(&g, 0.5, 11);
        let cap = Ls93::radius_cap(100, 0.5);
        let report = validate_weak_carving(&g, &wc);
        if let Some(w) = report.carving.max_weak_diameter {
            assert!(w <= 2 * cap, "weak diameter {w} exceeds 2*cap {}", 2 * cap);
        }
        // Steiner depth is at most the radius cap.
        assert!(report.max_depth.unwrap() <= cap);
    }

    #[test]
    fn dead_fraction_concentrates() {
        // Average over seeds: dead fraction should be near eps/2, well
        // under eps.
        let g = gen::gnp_connected(150, 0.04, 3);
        let alive = NodeSet::full(150);
        let mut total = 0.0;
        for seed in 0..10 {
            let mut ledger = RoundLedger::new();
            let wc = Ls93::new(seed).carve_weak(&g, &alive, 0.5, &mut ledger);
            total += wc.carving().dead_fraction();
        }
        let avg = total / 10.0;
        assert!(avg < 0.5, "average dead fraction {avg:.3} exceeds eps");
    }

    #[test]
    fn successive_carves_differ() {
        let g = gen::grid(6, 6);
        let alive = NodeSet::full(36);
        let carver = Ls93::new(7);
        let mut ledger = RoundLedger::new();
        let a = carver.carve_weak(&g, &alive, 0.5, &mut ledger);
        let b = carver.carve_weak(&g, &alive, 0.5, &mut ledger);
        // Same carver, consecutive calls: fresh randomness (generically
        // different clusterings).
        assert_ne!(
            a.carving().clusters(),
            b.carving().clusters(),
            "two draws produced identical clusterings"
        );
    }

    #[test]
    fn empty_input() {
        let g = gen::path(3);
        let mut ledger = RoundLedger::new();
        let wc = Ls93::new(0).carve_weak(&g, &NodeSet::empty(3), 0.5, &mut ledger);
        assert_eq!(wc.carving().num_clusters(), 0);
    }
}
