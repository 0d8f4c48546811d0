//! The ABCP96 weak→strong transformation — a LOCAL-model baseline.
//!
//! The classic recipe (paper, Section 1.4 recap): run a weak-diameter
//! network decomposition on the power graph `G^{2d+2}` (so same-colored
//! clusters are far apart), then process colors one by one; per color,
//! each cluster center *gathers the entire topology* of its cluster and
//! its `d`-hop neighborhood and runs a sequential ball carving locally
//! (grow a ball around an unclustered node until the next layer grows it
//! by less than a `1/(1-eps)` factor; the ball is a strong cluster, its
//! boundary dies).
//!
//! The transformation is correct — and this implementation produces
//! valid strong carvings — but it is *inherently LOCAL*: simulating the
//! power graph multiplies message sizes, and the topology gathering
//! sends entire subgraphs in single messages. The ledger records those
//! message sizes faithfully, which is the measured contrast against the
//! paper's CONGEST transformation (experiment E4).

use sdnd_clustering::{try_decompose_by_carving, BallCarving, CarveCtx, StrongCarver, WeakCarver};
use sdnd_congest::{bits_for_value, primitives, RoundLedger};
use sdnd_graph::{algo, Adjacency, Graph, NodeId, NodeSet};
use sdnd_weak::Rg20;

/// The ABCP96 LOCAL-model strong carver.
#[derive(Debug, Clone, Default)]
pub struct Abcp96 {
    _private: (),
}

impl Abcp96 {
    /// Creates the carver.
    pub fn new() -> Self {
        Abcp96::default()
    }

    /// Ball-growth bound `d = ceil(ln n / eps) + 1` for boundary `eps`.
    pub fn growth_bound(n: usize, eps: f64) -> u32 {
        ((n.max(2) as f64).ln() / eps).ceil() as u32 + 1
    }
}

impl StrongCarver for Abcp96 {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        if alive.is_empty() {
            return BallCarving::new(alive.clone(), vec![]).expect("empty carving");
        }
        let n_alive = alive.len();
        let d = Self::growth_bound(n_alive, eps);
        let power = 2 * d + 2;
        let id_bits = bits_for_value(g.n().max(2) as u64 - 1);

        // Step 1: the power graph G^{2d+2} of the alive view. Each
        // simulated round costs `power` real rounds; neighborhood
        // discovery alone requires LOCAL-sized messages.
        let view = g.view(alive);
        let gp = algo::power_graph(&view, power);

        // Step 2: a weak-diameter decomposition of the power graph
        // (we use the deterministic RG20 carver through the LS93
        // reduction, as the original construction does with its own
        // weak decomposition).
        let mut power_ledger = RoundLedger::new();
        let weak = Rg20::rg20();
        let mut ctx = CarveCtx::new();
        let start = NodeSet::full(gp.n());
        let weak_decomp =
            try_decompose_by_carving(&gp, &start, 0.5, &mut power_ledger, |g, alive, eps, l| {
                Ok(weak
                    .carve_weak_in(g, alive, eps, l, &mut ctx)?
                    .into_parts()
                    .0)
            })
            .expect("unarmed ctx never cancels");
        // Simulating those rounds on G: factor `power`; message sizes in
        // the simulation carry per-hop aggregations of up to deg^power
        // identifiers — we record the (conservative) size of one
        // power-graph adjacency list as the LOCAL message unit.
        ledger.charge_rounds(power_ledger.rounds() * power as u64);
        let max_power_degree = gp.max_degree() as u64;
        ledger.record_messages(
            power_ledger.messages(),
            (max_power_degree as u32 + 1) * id_bits,
        );

        // Step 3: per color, per cluster: gather topology, carve locally.
        let mut remaining = alive.clone();
        let mut out_clusters: Vec<Vec<NodeId>> = Vec::new();

        for color in 0..weak_decomp.num_colors() {
            let mut branches: Vec<RoundLedger> = Vec::new();
            for cid in weak_decomp.clusters_of_color(color) {
                let members = weak_decomp.members(cid);
                let mut branch = RoundLedger::new();

                // The gathered region: members still remaining plus their
                // d-hop neighborhood among remaining nodes.
                let seeds: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|&v| remaining.contains(v))
                    .collect();
                if seeds.is_empty() {
                    continue;
                }
                let rview = g.view(&remaining);
                let region_bfs = primitives::bfs(&rview, seeds.iter().copied(), d + 1, &mut branch);
                let region: NodeSet =
                    NodeSet::from_nodes(g.n(), region_bfs.order().iter().copied());

                // Topology gathering: the whole region's edge set travels
                // to the center in one LOCAL message.
                let region_edges: u64 = region
                    .iter()
                    .map(|v| rview.neighbors(v).filter(|u| region.contains(*u)).count() as u64)
                    .sum::<u64>()
                    / 2;
                branch.charge_rounds(2 * d as u64);
                branch.record_messages(1, ((2 * region_edges + 2) as u32) * id_bits);

                // Sequential local carving of the cluster's members.
                let mut local_remaining = region.clone();
                loop {
                    let next = seeds.iter().copied().find(|&v| local_remaining.contains(v));
                    let Some(center) = next else { break };
                    let lview = g.view(&local_remaining);
                    let mut scratch = RoundLedger::new();
                    let bfs = primitives::bfs(&lview, [center], d + 1, &mut scratch);
                    let at = |r: u32| bfs.ball_size(r);
                    let mut r_star = d;
                    for r in 0..=d {
                        if at(r) as f64 >= (1.0 - eps) * at(r + 1) as f64 {
                            r_star = r;
                            break;
                        }
                    }
                    let ball: Vec<NodeId> = bfs.ball(r_star).collect();
                    for v in bfs.order() {
                        if bfs.dist(*v) <= r_star + 1 {
                            local_remaining.remove(*v);
                            remaining.remove(*v);
                        }
                    }
                    out_clusters.push(ball);
                }
                // Broadcasting assignments back: one more LOCAL message.
                branch.charge_rounds(2 * d as u64);
                branch.record_messages(1, (region.len() as u32 + 1) * id_bits);
                branches.push(branch);
            }
            ledger.merge_parallel(branches);
        }

        BallCarving::new(alive.clone(), out_clusters).expect("locally carved balls are disjoint")
    }

    fn name(&self) -> &'static str {
        "abcp96-local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_carving;
    use sdnd_graph::gen;

    fn check(g: &Graph, eps: f64) -> (BallCarving, RoundLedger) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let out = Abcp96::new().carve_strong(g, &alive, eps, &mut ledger);
        let report = validate_carving(g, &out);
        assert!(
            report.is_valid_strong(eps),
            "dead {:.3}, violations: {:?}",
            report.dead_fraction,
            report.violations
        );
        (out, ledger)
    }

    #[test]
    fn carves_grid_and_cycle() {
        check(&gen::grid(7, 7), 0.5);
        check(&gen::cycle(40), 0.5);
    }

    #[test]
    fn carves_random_graph() {
        check(&gen::gnp_connected(50, 0.08, 5), 0.5);
    }

    #[test]
    fn messages_are_local_sized() {
        // The defining property: ABCP96 needs messages far beyond the
        // CONGEST budget.
        let g = gen::grid(7, 7);
        let (_, ledger) = check(&g, 0.5);
        let congest = sdnd_congest::CostModel::congest_for(49);
        assert!(
            !ledger.complies_with(&congest),
            "ABCP96 unexpectedly fit the CONGEST budget ({} bits)",
            ledger.max_message_bits()
        );
    }

    #[test]
    fn diameter_within_growth_bound() {
        let g = gen::grid(8, 8);
        let (out, _) = check(&g, 0.5);
        let report = validate_carving(&g, &out);
        let bound = 2 * Abcp96::growth_bound(64, 0.5) + 2;
        assert!(report.max_strong_diameter.unwrap() <= bound);
    }

    #[test]
    fn empty_input() {
        let g = gen::path(3);
        let mut ledger = RoundLedger::new();
        let out = Abcp96::new().carve_strong(&g, &NodeSet::empty(3), 0.5, &mut ledger);
        assert_eq!(out.num_clusters(), 0);
    }
}
