//! The edge version of the RG20 weak-diameter carving.
//!
//! Same bit-by-bit cluster competition as [`super::Rg20`], but instead of
//! killing nodes the algorithm **cuts edges**: a blue node requests its
//! smallest adjacent red cluster *with all its (uncut) edges to it*; the
//! red cluster compares the requesting-edge count against
//! `eps' · max(|E(C)|, 1)` internal edges. Accepting absorbs the
//! requesters (their request edges become internal); declining cuts the
//! requesting edges — strictly fewer than `eps' · |E(C)|` of them, and a
//! cluster whose threshold is below one edge can never decline, so total
//! cuts stay below `eps' · m` per phase. With `eps' = eps / b` the
//! overall cut fraction is below `eps`, every node ends up clustered,
//! and the separation invariant (adjacent-through-uncut-edges clusters
//! agree on processed bits) goes through exactly as in the node version.

use sdnd_clustering::{EdgeCarving, SteinerForest, SteinerTree, WeakEdgeCarver, WeakEdgeCarving};
use sdnd_congest::RoundLedger;
use sdnd_graph::{Graph, NodeId, NodeSet};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// The edge-version RG20 carver.
#[derive(Debug, Clone, Default)]
pub struct Rg20Edge {
    _private: (),
}

impl Rg20Edge {
    /// Creates the carver.
    pub fn new() -> Self {
        Rg20Edge::default()
    }
}

struct EdgeRun<'g> {
    g: &'g Graph,
    input: NodeSet,
    label: Vec<u64>,
    /// Cut edges, normalized.
    cut: HashSet<(u32, u32)>,
    /// Per-label tree data: root, entries, internal-edge count, members.
    trees: HashMap<u64, EdgeTreeData>,
    max_depth: u32,
    id_bits: u32,
}

struct EdgeTreeData {
    root: NodeId,
    entries: HashMap<u32, (Option<NodeId>, u32)>,
    members: u64,
    internal_edges: u64,
    depth: u32,
}

impl<'g> EdgeRun<'g> {
    fn new(g: &'g Graph, alive: &NodeSet) -> Self {
        let mut label = vec![0u64; g.n()];
        let mut trees = HashMap::with_capacity(alive.len());
        for v in alive.iter() {
            let id = g.id_of(v);
            label[v.index()] = id;
            let mut entries = HashMap::new();
            entries.insert(u32::from(v), (None, 0));
            trees.insert(
                id,
                EdgeTreeData {
                    root: v,
                    entries,
                    members: 1,
                    internal_edges: 0,
                    depth: 0,
                },
            );
        }
        EdgeRun {
            g,
            input: alive.clone(),
            label,
            cut: HashSet::new(),
            trees,
            max_depth: 0,
            id_bits: g.id_bits(),
        }
    }

    fn is_cut(&self, u: NodeId, v: NodeId) -> bool {
        let key = (
            u32::from(u).min(u32::from(v)),
            u32::from(u).max(u32::from(v)),
        );
        self.cut.contains(&key)
    }

    fn is_red(&self, v: NodeId, bit: u32) -> bool {
        self.label[v.index()] >> bit & 1 == 1
    }

    /// Uncut alive neighbors of `v`.
    fn live_neighbors<'a>(&'a self, v: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.g
            .neighbors(v)
            .iter()
            .copied()
            .filter(move |&u| self.input.contains(u) && !self.is_cut(v, u))
    }

    fn phase(&mut self, bit: u32, eps_p: f64, ledger: &mut RoundLedger) {
        let mut candidates: Vec<NodeId> = self.input.iter().collect();
        let step_cap = 64 * (self.g.m() as u64 + 4) * (self.id_bits as u64 + 1);
        let mut steps = 0u64;

        loop {
            // Requests: blue v targets its min adjacent red label with all
            // its uncut edges to that cluster's members.
            let mut by_label: HashMap<u64, Vec<(NodeId, Vec<NodeId>)>> = HashMap::new();
            let mut any = false;
            for &v in &candidates {
                if self.is_red(v, bit) {
                    continue;
                }
                let mut best: Option<u64> = None;
                for w in self.live_neighbors(v) {
                    if self.is_red(w, bit) {
                        let lw = self.label[w.index()];
                        best = Some(best.map_or(lw, |b: u64| b.min(lw)));
                    }
                }
                let Some(target) = best else { continue };
                let gateways: Vec<NodeId> = self
                    .live_neighbors(v)
                    .filter(|&w| self.is_red(w, bit) && self.label[w.index()] == target)
                    .collect();
                debug_assert!(!gateways.is_empty());
                any = true;
                by_label.entry(target).or_default().push((v, gateways));
            }
            if !any {
                break;
            }
            steps += 1;
            assert!(steps <= step_cap, "edge-RG20 phase failed to terminate");

            // Cost: request round + tree aggregation + announce, as in the
            // node version.
            let mut request_edges_total = 0u64;
            let mut tree_msgs = 0u64;
            for (l, reqs) in &by_label {
                request_edges_total += reqs.iter().map(|(_, gw)| gw.len() as u64).sum::<u64>();
                tree_msgs += 2 * self.trees[l].entries.len() as u64;
            }
            ledger.charge_rounds(2 + 2 * self.max_depth.max(1) as u64);
            ledger.record_messages(request_edges_total + tree_msgs, 2 * self.id_bits);

            let mut exposed: Vec<NodeId> = Vec::new();
            let mut labels: Vec<u64> = by_label.keys().copied().collect();
            labels.sort_unstable();
            for l in labels {
                let reqs = &by_label[&l];
                let request_edges: u64 = reqs.iter().map(|(_, gw)| gw.len() as u64).sum();
                let internal = self.trees[&l].internal_edges;
                let threshold = eps_p * internal.max(1) as f64;
                // A cluster whose threshold is below one edge can never
                // decline (cutting nothing would leave the adjacency).
                let accept = threshold <= 1.0 || request_edges as f64 >= threshold;
                if accept {
                    for (v, gateways) in reqs {
                        self.join(*v, l, gateways);
                        exposed.push(*v);
                    }
                } else {
                    for (v, gateways) in reqs {
                        for &w in gateways {
                            let key = (
                                u32::from(*v).min(u32::from(w)),
                                u32::from(*v).max(u32::from(w)),
                            );
                            self.cut.insert(key);
                        }
                    }
                }
            }

            let mut next: Vec<NodeId> = Vec::new();
            for &v in &exposed {
                next.push(v);
                for w in self.g.neighbors(v) {
                    next.push(*w);
                }
            }
            next.sort_unstable();
            next.dedup();
            candidates = next;
        }
    }

    /// Moves `v` into cluster `l` through one of `gateways`.
    fn join(&mut self, v: NodeId, l: u64, gateways: &[NodeId]) {
        let old = self.label[v.index()];
        debug_assert_ne!(old, l);
        // Internal edges of the old cluster incident to v become external.
        let old_internal = self
            .live_neighbors(v)
            .filter(|&u| self.label[u.index()] == old)
            .count() as u64;
        if let Some(t) = self.trees.get_mut(&old) {
            t.members -= 1;
            t.internal_edges -= old_internal.min(t.internal_edges);
        }
        self.label[v.index()] = l;
        // v's uncut edges into l (including non-gateway ones) become internal.
        let new_internal = self
            .live_neighbors(v)
            .filter(|&u| self.label[u.index()] == l && u != v)
            .count() as u64;
        let w = *gateways.iter().min().expect("at least one gateway");
        let w_depth = self.trees[&l].entries[&u32::from(w)].1;
        let t = self.trees.get_mut(&l).expect("target exists");
        t.members += 1;
        t.internal_edges += new_internal;
        if let Entry::Vacant(entry) = t.entries.entry(u32::from(v)) {
            let d = w_depth + 1;
            entry.insert((Some(w), d));
            t.depth = t.depth.max(d);
            self.max_depth = self.max_depth.max(d);
        }
    }

    fn finish(self) -> WeakEdgeCarving {
        let mut clusters_by_label: HashMap<u64, Vec<NodeId>> = HashMap::new();
        for v in self.input.iter() {
            clusters_by_label
                .entry(self.label[v.index()])
                .or_default()
                .push(v);
        }
        let mut labels: Vec<u64> = clusters_by_label.keys().copied().collect();
        labels.sort_unstable();
        let mut clusters = Vec::with_capacity(labels.len());
        let mut trees = Vec::with_capacity(labels.len());
        for l in labels {
            clusters.push(clusters_by_label.remove(&l).expect("present"));
            let data = &self.trees[&l];
            let mut tree = SteinerTree::singleton(data.root);
            let mut pairs: Vec<(u32, NodeId)> = data
                .entries
                .iter()
                .filter_map(|(&vi, &(p, _))| p.map(|p| (vi, p)))
                .collect();
            pairs.sort_unstable();
            for (vi, p) in pairs {
                tree.attach(NodeId::new(vi as usize), p);
            }
            trees.push(tree);
        }
        let cut: Vec<(NodeId, NodeId)> = self
            .cut
            .iter()
            .map(|&(a, b)| (NodeId::new(a as usize), NodeId::new(b as usize)))
            .collect();
        let carving =
            EdgeCarving::new(self.input, clusters, cut).expect("label classes partition the input");
        WeakEdgeCarving::new(carving, SteinerForest::from_trees(trees))
            .expect("one tree per cluster")
    }
}

impl WeakEdgeCarver for Rg20Edge {
    /// Runs the edge carving on `G[alive]`, cutting at most an `eps`
    /// fraction of its edges.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    fn carve_weak_edges(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> WeakEdgeCarving {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        if alive.is_empty() {
            let carving = EdgeCarving::new(alive.clone(), vec![], vec![]).expect("empty");
            return WeakEdgeCarving::new(carving, SteinerForest::new()).expect("empty");
        }
        let mut run = EdgeRun::new(g, alive);
        let b = run.id_bits;
        let eps_p = eps / b as f64;
        for bit in (0..b).rev() {
            run.phase(bit, eps_p, ledger);
        }
        run.finish()
    }

    fn name(&self) -> &'static str {
        "rg20-edge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_edge_carving;
    use sdnd_graph::gen;

    fn check(g: &Graph, eps: f64) -> WeakEdgeCarving {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let wc = Rg20Edge::new().carve_weak_edges(g, &alive, eps, &mut ledger);
        // Separation after cuts and the cut budget (clusters may be
        // internally disconnected — this is a *weak* carving).
        let report = validate_edge_carving(g, wc.carving());
        assert!(report.separation_ok, "violations: {:?}", report.violations);
        assert!(
            report.cut_fraction <= eps + 1e-9,
            "cut fraction {:.3} exceeds eps {eps}",
            report.cut_fraction
        );
        // Trees cover their members.
        for (i, tree) in wc.forest().trees().iter().enumerate() {
            let nodes: std::collections::HashSet<_> = tree.nodes().collect();
            for &m in &wc.carving().clusters()[i] {
                assert!(
                    nodes.contains(&m),
                    "cluster {i} member {m} missing from tree"
                );
            }
        }
        assert!(wc.forest().max_depth().is_some(), "malformed tree");
        assert!(ledger.rounds() > 0);
        wc
    }

    #[test]
    fn carves_grid_and_cycle() {
        check(&gen::grid(8, 8), 0.5);
        check(&gen::cycle(50), 0.5);
    }

    #[test]
    fn carves_random_and_expander() {
        check(&gen::gnp_connected(70, 0.06, 3), 0.5);
        check(&gen::random_regular_connected(60, 4, 9).unwrap(), 0.5);
    }

    #[test]
    fn small_eps_cuts_fewer_edges() {
        let g = gen::grid(9, 9);
        let alive = NodeSet::full(g.n());
        let mut l1 = RoundLedger::new();
        let mut l2 = RoundLedger::new();
        let loose = Rg20Edge::new().carve_weak_edges(&g, &alive, 0.5, &mut l1);
        let tight = Rg20Edge::new().carve_weak_edges(&g, &alive, 0.1, &mut l2);
        assert!(tight.carving().cut_fraction(&g) <= 0.1 + 1e-9);
        assert!(loose.carving().cut_fraction(&g) <= 0.5 + 1e-9);
    }

    #[test]
    fn every_node_clustered() {
        let g = gen::random_tree(60, 2);
        let wc = check(&g, 0.5);
        let covered: usize = wc.carving().clusters().iter().map(Vec::len).sum();
        assert_eq!(covered, 60, "edge version never removes nodes");
    }

    #[test]
    fn empty_input() {
        let g = gen::path(3);
        let mut ledger = RoundLedger::new();
        let wc = Rg20Edge::new().carve_weak_edges(&g, &NodeSet::empty(3), 0.5, &mut ledger);
        assert_eq!(wc.carving().num_clusters(), 0);
    }
}
