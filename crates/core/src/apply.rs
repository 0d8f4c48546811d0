//! Applications of network decomposition — the Section 1.1 template.
//!
//! "We process the colors of the decomposition one by one. Per color, we
//! process all clusters of this color at the same time; since they are
//! non-adjacent they can be processed simultaneously, and their small
//! diameter facilitates fast computation inside each cluster." The
//! template turns any greedy-sequential graph problem into a
//! `C · D`-round distributed algorithm; MIS and (Δ+1)-coloring are the
//! classic instances (and the motivation cited in the paper's intro).

use sdnd_clustering::NetworkDecomposition;
use sdnd_congest::{bits_for_value, RoundLedger};
use sdnd_graph::{Graph, NodeId, NodeSet};

/// Computes a maximal independent set of `g` by processing the
/// decomposition color by color; within a cluster, nodes decide greedily
/// in BFS order (a token sweep inside the cluster, `O(|C| + D)` rounds,
/// all clusters of one color in parallel).
///
/// Returns the MIS. The round charge follows the template: colors are
/// sequential, same-color clusters parallel.
pub fn mis_via_decomposition(
    g: &Graph,
    d: &NetworkDecomposition,
    ledger: &mut RoundLedger,
) -> NodeSet {
    let mut in_mis = NodeSet::empty(g.n());
    let mut decided = NodeSet::empty(g.n());
    let bits = bits_for_value(g.n().max(2) as u64 - 1);

    for color in 0..d.num_colors() {
        let mut branches: Vec<RoundLedger> = Vec::new();
        for c in d.clusters_of_color(color) {
            let members = d.members(c);
            let mut branch = RoundLedger::new();
            // Token sweep: nodes decide in identifier order along the
            // cluster; each decision is announced to neighbors (1 round).
            let mut order: Vec<NodeId> = members.to_vec();
            order.sort_by_key(|&v| g.id_of(v));
            for &v in &order {
                let blocked = g
                    .neighbors(v)
                    .iter()
                    .any(|&u| decided.contains(u) && in_mis.contains(u));
                if !blocked {
                    in_mis.insert(v);
                }
                decided.insert(v);
            }
            branch.charge_rounds(2 * order.len() as u64);
            branch.record_messages(order.iter().map(|&v| g.degree(v) as u64).sum::<u64>(), bits);
            branches.push(branch);
        }
        ledger.merge_parallel(branches);
    }
    in_mis
}

/// Whether `set` is a maximal independent set of `g`.
pub fn is_mis(g: &Graph, set: &NodeSet) -> bool {
    // Independence.
    for (u, v) in g.edges() {
        if set.contains(u) && set.contains(v) {
            return false;
        }
    }
    // Maximality.
    for v in g.nodes() {
        if !set.contains(v) && !g.neighbors(v).iter().any(|&u| set.contains(u)) {
            return false;
        }
    }
    true
}

/// Computes a (Δ+1)-coloring by the same template: per decomposition
/// color, clusters decide greedily (smallest color unused by decided
/// neighbors), in identifier order within the cluster.
///
/// Returns `colors[v]` for every node.
pub fn coloring_via_decomposition(
    g: &Graph,
    d: &NetworkDecomposition,
    ledger: &mut RoundLedger,
) -> Vec<u32> {
    const UNDECIDED: u32 = u32::MAX;
    let mut color_of = vec![UNDECIDED; g.n()];
    let bits = bits_for_value(g.max_degree() as u64 + 1);

    for color in 0..d.num_colors() {
        let mut branches: Vec<RoundLedger> = Vec::new();
        for c in d.clusters_of_color(color) {
            let members = d.members(c);
            let mut branch = RoundLedger::new();
            let mut order: Vec<NodeId> = members.to_vec();
            order.sort_by_key(|&v| g.id_of(v));
            for &v in &order {
                let mut used: Vec<u32> = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| color_of[u.index()])
                    .filter(|&c| c != UNDECIDED)
                    .collect();
                used.sort_unstable();
                used.dedup();
                let mut pick = 0u32;
                for u in used {
                    if u == pick {
                        pick += 1;
                    } else if u > pick {
                        break;
                    }
                }
                color_of[v.index()] = pick;
            }
            branch.charge_rounds(2 * order.len() as u64);
            branch.record_messages(order.iter().map(|&v| g.degree(v) as u64).sum::<u64>(), bits);
            branches.push(branch);
        }
        ledger.merge_parallel(branches);
    }
    color_of
}

/// Whether `colors` is a proper coloring of `g` with at most
/// `max_degree + 1` colors.
pub fn is_proper_coloring(g: &Graph, colors: &[u32]) -> bool {
    if colors.len() != g.n() {
        return false;
    }
    let delta = g.max_degree() as u32;
    for (u, v) in g.edges() {
        if colors[u.index()] == colors[v.index()] {
            return false;
        }
    }
    g.nodes().all(|v| colors[v.index()] <= delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompose_strong, Params};
    use sdnd_graph::gen;

    fn decompose(g: &Graph) -> NetworkDecomposition {
        decompose_strong(g, &Params::default()).0
    }

    #[test]
    fn mis_on_suite() {
        for g in [
            gen::grid(7, 7),
            gen::cycle(30),
            gen::gnp_connected(50, 0.1, 5),
        ] {
            let d = decompose(&g);
            let mut ledger = RoundLedger::new();
            let mis = mis_via_decomposition(&g, &d, &mut ledger);
            assert!(is_mis(&g, &mis), "not a valid MIS");
            assert!(ledger.rounds() > 0);
        }
    }

    #[test]
    fn coloring_on_suite() {
        for g in [gen::grid(6, 8), gen::complete(9), gen::random_tree(40, 2)] {
            let d = decompose(&g);
            let mut ledger = RoundLedger::new();
            let colors = coloring_via_decomposition(&g, &d, &mut ledger);
            assert!(is_proper_coloring(&g, &colors), "improper coloring");
        }
    }

    #[test]
    fn mis_checker_rejects_bad_sets() {
        let g = gen::path(4);
        // Adjacent pair: not independent.
        let bad = NodeSet::from_nodes(4, [NodeId::new(0), NodeId::new(1)]);
        assert!(!is_mis(&g, &bad));
        // Empty: not maximal.
        assert!(!is_mis(&g, &NodeSet::empty(4)));
        // {0, 2} is maximal independent... node 3 has neighbor 2. Valid.
        let good = NodeSet::from_nodes(4, [NodeId::new(0), NodeId::new(2)]);
        assert!(is_mis(&g, &good));
    }

    #[test]
    fn coloring_checker_rejects_bad() {
        let g = gen::path(3);
        assert!(!is_proper_coloring(&g, &[0, 0, 1]));
        assert!(!is_proper_coloring(&g, &[0, 1])); // wrong length
        assert!(is_proper_coloring(&g, &[0, 1, 0]));
        // Color exceeding Δ+1 budget.
        assert!(!is_proper_coloring(&g, &[0, 5, 0]));
    }

    #[test]
    fn template_cost_scales_with_colors_and_diameter() {
        let g = gen::grid(8, 8);
        let d = decompose(&g);
        let mut ledger = RoundLedger::new();
        let _ = mis_via_decomposition(&g, &d, &mut ledger);
        // Rounds are bounded by colors x (2 x max cluster size) in this
        // token-sweep implementation.
        let bound = d.num_colors() as u64 * 2 * d.max_cluster_size() as u64 + 4;
        assert!(ledger.rounds() <= bound, "{} vs {}", ledger.rounds(), bound);
    }
}
