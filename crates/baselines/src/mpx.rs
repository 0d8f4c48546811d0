//! Miller–Peng–Xu random-shift clustering, the carver behind the
//! Elkin–Neiman decomposition.
//!
//! Every node `v` draws an integer shift `delta_v` (discretized
//! exponential with rate `beta = eps/4`, capped at `O(log n / beta)`).
//! Node `u` is assigned to the center minimizing
//! `key_v(u) = dist(u, v) - delta_v` (ties to the smaller identifier),
//! and **dies** when the best key of any *other* cell comes within 1 of
//! its own — the contested boundary. Standard MPX arguments give:
//!
//! - surviving neighbors share a cell (so clusters are non-adjacent),
//! - survivors of a cell are connected with radius at most
//!   `max delta = O(log n / eps)` around the center (strong diameter),
//! - each node is contested with probability `O(beta)`, so the expected
//!   dead fraction is below `eps`.
//!
//! Distributedly this is one *shifted-start* BFS: center `v` wakes at
//! time `delta_max - delta_v`; the implementation performs the same
//! wavefront computation centrally and charges `delta_max + O(1)`
//! rounds.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdnd_clustering::{BallCarving, StrongCarver};
use sdnd_congest::{bits_for_value, primitives, RoundLedger};
use sdnd_graph::{Adjacency, Graph, NodeId, NodeSet};
use std::cell::Cell;
use std::collections::HashMap;

/// The MPX13 random-shift strong-diameter carver.
///
/// Each call advances the internal seed, so repeated invocations (the
/// LS93 reduction) draw fresh shifts.
#[derive(Debug, Clone)]
pub struct Mpx13 {
    seed: Cell<u64>,
}

impl Mpx13 {
    /// Creates a carver with the given base seed.
    pub fn new(seed: u64) -> Self {
        Mpx13 {
            seed: Cell::new(seed),
        }
    }

    /// Shift cap for boundary parameter `eps`: `ceil(8 ln n / eps)`.
    pub fn shift_cap(n: usize, eps: f64) -> u32 {
        ((8.0 * (n.max(2) as f64).ln()) / eps).ceil() as u32
    }
}

impl StrongCarver for Mpx13 {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        let seed = self.seed.get();
        self.seed.set(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let mut rng = SmallRng::seed_from_u64(seed);

        if alive.is_empty() {
            return BallCarving::new(alive.clone(), vec![]).expect("empty carving");
        }
        let n_alive = alive.len();
        let cap = Self::shift_cap(n_alive, eps);
        let beta = eps / 4.0;
        let q = 1.0 - (-beta).exp(); // geometric success prob ~ Exp(beta)

        // Integer shifts.
        let view = g.view(alive);
        let mut shift: HashMap<u32, u32> = HashMap::with_capacity(n_alive);
        for v in alive.iter() {
            let mut d = 0u32;
            while d < cap && !rng.gen_bool(q) {
                d += 1;
            }
            shift.insert(u32::from(v), d);
        }

        // Best and second-best (distinct-cell) keys per node, via one
        // truncated BFS per center: key_v(u) = dist - delta_v is relevant
        // only while <= 1, i.e. dist <= delta_v + 1.
        // best[u] = (key, center); second[u] = best key among other cells.
        let mut best: Vec<Option<(i64, NodeId)>> = vec![None; g.n()];
        let mut second: Vec<i64> = vec![i64::MAX; g.n()];
        let mut explored = 0u64;
        for v in alive.iter() {
            let dv = shift[&u32::from(v)];
            let mut scratch = RoundLedger::new();
            let bfs = primitives::bfs(&view, [v], dv + 1, &mut scratch);
            explored += scratch.messages();
            for u in bfs.order() {
                let key = bfs.dist(*u) as i64 - dv as i64;
                match best[u.index()] {
                    None => best[u.index()] = Some((key, v)),
                    Some((bk, bc)) => {
                        if (key, g.id_of(v)) < (bk, g.id_of(bc)) {
                            second[u.index()] = second[u.index()].min(bk);
                            best[u.index()] = Some((key, v));
                        } else {
                            second[u.index()] = second[u.index()].min(key);
                        }
                    }
                }
            }
        }

        // Distributed cost: the shifted-start BFS runs for cap + 2 rounds.
        let b = bits_for_value(g.n().max(2) as u64 - 1);
        ledger.charge_rounds(cap as u64 + 2);
        ledger.record_messages(explored, 2 * b);

        // Survivors: cells minus contested boundary.
        let mut members_by_center: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for u in alive.iter() {
            let (bk, bc) = best[u.index()].expect("every node is its own center");
            if second[u.index()] > bk + 1 {
                members_by_center.entry(u32::from(bc)).or_default().push(u);
            }
        }
        let mut centers: Vec<u32> = members_by_center.keys().copied().collect();
        centers.sort_unstable();
        let clusters: Vec<Vec<NodeId>> = centers
            .into_iter()
            .map(|c| members_by_center.remove(&c).expect("center present"))
            .collect();
        BallCarving::new(alive.clone(), clusters).expect("cells partition the survivors")
    }

    fn name(&self) -> &'static str {
        "mpx13"
    }
}

impl sdnd_clustering::EdgeCarver for Mpx13 {
    /// The edge version of MPX: every node joins its best shifted
    /// center (no deaths); all edges between different cells are cut.
    /// Each cell is connected with radius at most its center's shift, and
    /// an edge is cut with probability `O(beta)`, so the expected cut
    /// fraction stays below `eps`.
    fn carve_edges(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> sdnd_clustering::EdgeCarving {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        let seed = self.seed.get();
        self.seed.set(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let mut rng = SmallRng::seed_from_u64(seed);

        if alive.is_empty() {
            return sdnd_clustering::EdgeCarving::new(alive.clone(), vec![], vec![])
                .expect("empty carving");
        }
        let n_alive = alive.len();
        let cap = Self::shift_cap(n_alive, eps);
        let beta = eps / 4.0;
        let q = 1.0 - (-beta).exp();

        let view = g.view(alive);
        let mut shift: HashMap<u32, u32> = HashMap::with_capacity(n_alive);
        for v in alive.iter() {
            let mut d = 0u32;
            while d < cap && !rng.gen_bool(q) {
                d += 1;
            }
            shift.insert(u32::from(v), d);
        }

        let mut best: Vec<Option<(i64, NodeId)>> = vec![None; g.n()];
        let mut explored = 0u64;
        for v in alive.iter() {
            let dv = shift[&u32::from(v)];
            let mut scratch = RoundLedger::new();
            let bfs = primitives::bfs(&view, [v], dv, &mut scratch);
            explored += scratch.messages();
            for u in bfs.order() {
                let key = bfs.dist(*u) as i64 - dv as i64;
                match best[u.index()] {
                    None => best[u.index()] = Some((key, v)),
                    Some((bk, bc)) => {
                        if (key, g.id_of(v)) < (bk, g.id_of(bc)) {
                            best[u.index()] = Some((key, v));
                        }
                    }
                }
            }
        }
        let b = bits_for_value(g.n().max(2) as u64 - 1);
        ledger.charge_rounds(cap as u64 + 2);
        ledger.record_messages(explored, 2 * b);

        let mut members_by_center: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for u in alive.iter() {
            let (_, c) = best[u.index()].expect("every node is its own center");
            members_by_center.entry(u32::from(c)).or_default().push(u);
        }
        let mut cut: Vec<(NodeId, NodeId)> = Vec::new();
        for u in alive.iter() {
            for w in view.neighbors(u) {
                if u < w {
                    let cu = best[u.index()].expect("assigned").1;
                    let cw = best[w.index()].expect("assigned").1;
                    if cu != cw {
                        cut.push((u, w));
                    }
                }
            }
        }
        let mut centers: Vec<u32> = members_by_center.keys().copied().collect();
        centers.sort_unstable();
        let clusters: Vec<Vec<NodeId>> = centers
            .into_iter()
            .map(|c| members_by_center.remove(&c).expect("present"))
            .collect();
        sdnd_clustering::EdgeCarving::new(alive.clone(), clusters, cut)
            .expect("cells partition the alive set")
    }

    fn name(&self) -> &'static str {
        "mpx13-edge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::{decompose_with_strong_carver, validate_carving, validate_decomposition};
    use sdnd_graph::gen;

    fn check_carving(g: &Graph, eps: f64, seed: u64) -> BallCarving {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let out = Mpx13::new(seed).carve_strong(g, &alive, eps, &mut ledger);
        let report = validate_carving(g, &out);
        assert!(
            report.clusters_nonadjacent && report.clusters_connected,
            "violations: {:?}",
            report.violations
        );
        assert!(ledger.rounds() > 0);
        out
    }

    #[test]
    fn carves_suite() {
        for (g, seed) in [
            (gen::grid(9, 9), 1),
            (gen::cycle(70), 2),
            (gen::random_regular_connected(64, 4, 3).unwrap(), 3),
            (gen::random_tree(60, 4), 4),
        ] {
            let out = check_carving(&g, 0.5, seed);
            assert!(
                out.dead_fraction() < 0.9,
                "catastrophic dead fraction {:.2}",
                out.dead_fraction()
            );
        }
    }

    #[test]
    fn diameter_within_radius_envelope() {
        let g = gen::grid(10, 10);
        let out = check_carving(&g, 0.5, 7);
        let report = validate_carving(&g, &out);
        let bound = 2 * Mpx13::shift_cap(100, 0.5) + 2;
        assert!(report.max_strong_diameter.unwrap() <= bound);
    }

    #[test]
    fn expected_dead_fraction_small() {
        let g = gen::gnp_connected(150, 0.04, 9);
        let alive = NodeSet::full(150);
        let mut total = 0.0;
        for seed in 0..10 {
            let mut ledger = RoundLedger::new();
            let out = Mpx13::new(seed).carve_strong(&g, &alive, 0.5, &mut ledger);
            total += out.dead_fraction();
        }
        assert!(total / 10.0 < 0.5, "avg dead {:.3}", total / 10.0);
    }

    #[test]
    fn en16_is_valid_strong_decomposition() {
        for seed in 0..3 {
            let g = gen::grid(8, 8);
            let mut ledger = RoundLedger::new();
            let d = decompose_with_strong_carver(&g, &Mpx13::new(seed), 0.5, &mut ledger);
            let report = validate_decomposition(&g, &d);
            assert!(report.is_valid(), "seed {seed}: {:?}", report.violations);
            let n = 64f64;
            assert!(
                d.num_colors() as f64 <= 4.0 * n.log2(),
                "colors {} too many",
                d.num_colors()
            );
        }
    }

    #[test]
    fn empty_input() {
        let g = gen::path(4);
        let mut ledger = RoundLedger::new();
        let out = Mpx13::new(0).carve_strong(&g, &NodeSet::empty(4), 0.5, &mut ledger);
        assert_eq!(out.num_clusters(), 0);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use sdnd_clustering::{validate_edge_carving, EdgeCarver};
    use sdnd_graph::gen;

    #[test]
    fn mpx_edge_version_valid() {
        for (g, seed) in [
            (gen::grid(9, 9), 1u64),
            (gen::cycle(64), 2),
            (gen::random_regular_connected(64, 4, 5).unwrap(), 3),
        ] {
            let alive = NodeSet::full(g.n());
            let mut ledger = RoundLedger::new();
            let ec = Mpx13::new(seed).carve_edges(&g, &alive, 0.5, &mut ledger);
            let report = validate_edge_carving(&g, &ec);
            assert!(report.separation_ok, "violations: {:?}", report.violations);
            assert!(
                report.clusters_connected,
                "violations: {:?}",
                report.violations
            );
            // Every node clustered.
            let covered: usize = ec.clusters().iter().map(Vec::len).sum();
            assert_eq!(covered, g.n());
        }
    }

    #[test]
    fn mpx_edge_expected_cut_fraction_small() {
        let g = gen::gnp_connected(120, 0.05, 7);
        let alive = NodeSet::full(120);
        let mut total = 0.0;
        for seed in 0..10 {
            let mut ledger = RoundLedger::new();
            let ec = Mpx13::new(seed).carve_edges(&g, &alive, 0.5, &mut ledger);
            total += ec.cut_fraction(&g);
        }
        assert!(total / 10.0 < 0.5, "avg cut {:.3}", total / 10.0);
    }

    #[test]
    fn mpx_edge_diameter_within_shift_bound() {
        let g = gen::grid(10, 10);
        let alive = NodeSet::full(100);
        let mut ledger = RoundLedger::new();
        let ec = Mpx13::new(11).carve_edges(&g, &alive, 0.5, &mut ledger);
        let report = validate_edge_carving(&g, &ec);
        let bound = 2 * Mpx13::shift_cap(100, 0.5) + 2;
        assert!(report.max_strong_diameter.unwrap() <= bound);
    }
}
