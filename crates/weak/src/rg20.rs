//! The Rozhoň–Ghaffari deterministic weak-diameter ball carving.
//!
//! # Algorithm
//!
//! Every alive node starts as a singleton cluster labelled by its own
//! `b`-bit identifier. The algorithm runs `b` phases, processing label
//! bits from most to least significant. In the phase for bit `k`,
//! clusters whose label has bit `k` clear are **blue**, the others
//! **red**. The phase repeats *steps* until no blue node neighbors a red
//! cluster:
//!
//! 1. Every blue node adjacent to at least one red member picks the
//!    smallest adjacent red label and sends a join request through the
//!    smallest-index neighbor carrying it.
//! 2. Each requested red cluster `C` counts its requests by a
//!    converge-cast over its Steiner tree. If the count is at least
//!    `eps' · |C|` it **accepts**: all requesters join, relabelling to
//!    `C`'s label and attaching to the tree at their request edge.
//!    Otherwise it **declines**: its requesters die.
//!
//! A node that leaves a cluster stays in the old tree as a *helper*
//! (non-terminal) — this is what makes the diameter weak. Declines kill
//! fewer than `eps' · |C|` nodes and are never repeated (a declined
//! cluster is never requested again), so with `eps' = eps / b` the total
//! death fraction is below `eps`.
//!
//! **Separation invariant** (why the output clusters are pairwise
//! non-adjacent): throughout the run, any two adjacent clusters agree on
//! all already-processed bits. New adjacencies only arise when a red
//! cluster absorbs a node `v`; `v`'s old cluster was adjacent to both
//! the absorber and every cluster `v` touches, so by induction they all
//! agree on the processed bits, and the phase-end guarantee (no blue–red
//! adjacency) extends the agreement to the current bit. After the last
//! phase, adjacent nodes agree on every bit — i.e. they share a label.
//!
//! # Run state
//!
//! All bookkeeping is dense and indexed by node: each node's current
//! root (a cluster's label is its root's identifier), tree records at
//! the root's index, edge congestion counts at CSR edge slots, and per
//! node a short list of `(root, depth)` entries, one for each tree the
//! node is a non-root entry of (the tree it joined and the older ones it
//! stays in as a helper). Requests are grouped by a stable sort on
//! label. The next growth step's candidates, the neighbours of the nodes
//! that joined, are deduplicated with per-step stamps rather than a
//! sort: their order is immaterial, because a label group's joins
//! commute. The GGR21 rebuild runs a distance-only workspace BFS
//! truncated at the old tree's depth and recovers the CONGEST BFS
//! kernel's minimum-index parents only along root-to-member paths.
//! Every loop visits trees in ascending label order, so outputs and
//! charged rounds are the same on every call.

use sdnd_clustering::{
    BallCarving, Cancelled, CarveCtx, SteinerForest, SteinerTree, WeakCarver, WeakCarving,
};
use sdnd_congest::RoundLedger;
use sdnd_graph::algo::bfs_bounded_in;
use sdnd_graph::{Graph, NodeId, NodeSet};

/// The GGR21 variant rebuilds only trees deeper than this (rebuilding is
/// pointless for shallow trees and singletons).
const REBUILD_DEPTH_THRESHOLD: u32 = 4;

/// The RG20 deterministic weak-diameter ball carver (see module docs).
#[derive(Debug, Clone)]
pub struct Rg20 {
    /// Rebuild Steiner trees after each phase with a truncated BFS (the
    /// GGR21-style depth improvement).
    rebuild_trees: bool,
}

impl Rg20 {
    /// The plain RG20 algorithm.
    // The constructor shares the type's name on purpose: call sites read
    // as the algorithm row label (`Rg20::rg20()` vs `Rg20::ggr21()`).
    #[allow(clippy::self_named_constructors)]
    pub fn rg20() -> Self {
        Rg20 {
            rebuild_trees: false,
        }
    }

    /// The GGR21-style variant with per-phase tree rebuilding.
    pub fn ggr21() -> Self {
        Rg20 {
            rebuild_trees: true,
        }
    }
}

impl Default for Rg20 {
    fn default() -> Self {
        Self::rg20()
    }
}

/// Tree membership: for every node, the `(root, depth)` of each tree it
/// is a non-root entry of. A node sits in the tree it joined and in the
/// few older trees it stays in as a helper, so each list is short.
struct Entries(Vec<Vec<(NodeId, u32)>>);

impl Entries {
    /// Depth of non-root entry `v` in the tree rooted at `r`.
    fn depth(&self, r: NodeId, v: NodeId) -> Option<u32> {
        self.0[v.index()]
            .iter()
            .find(|&&(root, _)| root == r)
            .map(|&(_, d)| d)
    }

    /// Records `v` at depth `d` in the tree rooted at `r`, unless `v` is
    /// already an entry of it; returns whether it was new.
    fn insert(&mut self, r: NodeId, v: NodeId, d: u32) -> bool {
        let list = &mut self.0[v.index()];
        let new = list.iter().all(|&(root, _)| root != r);
        if new {
            list.push((r, d));
        }
        new
    }

    fn remove(&mut self, r: NodeId, v: NodeId) {
        let list = &mut self.0[v.index()];
        if let Some(i) = list.iter().position(|&(root, _)| root == r) {
            list.swap_remove(i);
        }
    }
}

/// Per-cluster bookkeeping, indexed by the root's node index.
#[derive(Default)]
struct Tree {
    /// Non-root entries `(node, parent)`; depths live in [`Entries`].
    edges: Vec<(NodeId, NodeId)>,
    /// Current number of members (terminals).
    members: u32,
    /// Deepest entry.
    depth: u32,
    /// Whether the tree or its member set changed since the last
    /// rebuild. A clean tree would rebuild to the identical result (the
    /// BFS is deterministic over fixed root, members, and input set), so
    /// rebuilding it — and charging rounds for it — is pure waste.
    dirty: bool,
}

impl Tree {
    /// Number of entries, root included.
    fn len(&self) -> u64 {
        self.edges.len() as u64 + 1
    }
}

/// Edge congestion: the number of trees using each edge, stored at the
/// CSR slot of the edge's `min → max` orientation.
struct Congestion {
    uses: Vec<u32>,
    /// High-water mark of `uses`.
    max: u32,
}

impl Congestion {
    fn slot(g: &Graph, a: NodeId, b: NodeId) -> usize {
        g.directed_edge(a.min(b), a.max(b))
            .expect("tree edges are graph edges")
    }

    fn add(&mut self, g: &Graph, a: NodeId, b: NodeId) {
        let c = &mut self.uses[Self::slot(g, a, b)];
        *c += 1;
        self.max = self.max.max(*c);
    }

    fn remove(&mut self, g: &Graph, a: NodeId, b: NodeId) {
        self.uses[Self::slot(g, a, b)] -= 1;
    }
}

struct Run<'g> {
    g: &'g Graph,
    input: NodeSet,
    alive: NodeSet,
    /// Root of each node's current cluster (valid only for input nodes).
    root: Vec<NodeId>,
    trees: Vec<Tree>,
    entries: Entries,
    congestion: Congestion,
    max_depth: u32,
    id_bits: u32,
    /// Growth-step stamps that deduplicate the next step's candidates.
    seen: Vec<u32>,
    step: u32,
}

impl<'g> Run<'g> {
    fn new(g: &'g Graph, alive0: &NodeSet) -> Self {
        let mut trees: Vec<Tree> = std::iter::repeat_with(Tree::default).take(g.n()).collect();
        for v in alive0.iter() {
            trees[v.index()] = Tree {
                members: 1,
                dirty: true,
                ..Tree::default()
            };
        }
        Run {
            g,
            input: alive0.clone(),
            alive: alive0.clone(),
            root: g.nodes().collect(),
            trees,
            entries: Entries(vec![Vec::new(); g.n()]),
            congestion: Congestion {
                uses: vec![0; g.directed_edges()],
                max: 0,
            },
            max_depth: 0,
            id_bits: g.id_bits(),
            seen: vec![0; g.n()],
            step: 0,
        }
    }

    /// The label of `v`'s cluster: its root's identifier.
    fn label(&self, v: NodeId) -> u64 {
        self.g.id_of(self.root[v.index()])
    }

    fn is_red(&self, v: NodeId, bit: u32) -> bool {
        self.label(v) >> bit & 1 == 1
    }

    /// Depth of `v` in the tree rooted at `r`, or `None` if `v` is not
    /// in that tree.
    fn depth_in(&self, r: NodeId, v: NodeId) -> Option<u32> {
        if v == r {
            Some(0)
        } else {
            self.entries.depth(r, v)
        }
    }

    /// Collects the requests of one step: for every alive blue node in
    /// `candidates` adjacent to an alive red member, the chosen target
    /// `(label, requester, gateway neighbor)`.
    fn collect_requests(&self, bit: u32, candidates: &[NodeId]) -> Vec<(u64, NodeId, NodeId)> {
        let mut requests = Vec::new();
        for &v in candidates {
            if !self.alive.contains(v) || self.is_red(v, bit) {
                continue;
            }
            let mut best: Option<(u64, NodeId)> = None;
            for &w in self.g.neighbors(v) {
                if self.alive.contains(w) && self.is_red(w, bit) {
                    let target = (self.label(w), w);
                    if best.is_none_or(|b| target < b) {
                        best = Some(target);
                    }
                }
            }
            if let Some((l, w)) = best {
                requests.push((l, v, w));
            }
        }
        requests
    }

    /// One phase for `bit`. Returns per-phase step count.
    ///
    /// An armed deadline on `ctx` is honored once per growth step (each
    /// step is one traversal epoch: a request sweep plus the accepted
    /// joins), so a single phase on a large graph cannot overshoot the
    /// budget by more than one epoch.
    fn phase(
        &mut self,
        bit: u32,
        eps_p: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<u64, Cancelled> {
        let mut steps = 0u64;
        // First step scans every alive node; later steps only nodes
        // exposed by the previous step's joins.
        let mut candidates: Vec<NodeId> = self.alive.iter().collect();
        let step_cap = 16 * (self.alive.len() as u64 + 4) * (self.id_bits as u64 + 1);

        loop {
            ctx.checkpoint("rg20-growth-step")?;
            let mut requests = self.collect_requests(bit, &candidates);
            if requests.is_empty() {
                break;
            }
            steps += 1;
            assert!(steps <= step_cap, "RG20 phase failed to terminate");

            // Group requests by target label, ascending; the stable sort
            // keeps each group in requester order.
            requests.sort_by_key(|&(l, _, _)| l);
            let by_label = || requests.chunk_by(|a, b| a.0 == b.0);

            // Cost of the step: one request round, one converge-cast and
            // one decision broadcast over the requested trees (depth x
            // congestion, the paper's costing), one label-announce round.
            let b = self.id_bits;
            let tree_msgs: u64 = by_label()
                .map(|reqs| 2 * self.trees[self.root[reqs[0].2.index()].index()].len())
                .sum();
            ledger.charge_rounds(2);
            ledger.charge_rounds(
                2 * self.max_depth.max(1) as u64 * self.congestion.max.max(1) as u64,
            );
            ledger.record_messages(requests.len() as u64, 2 * b);
            ledger.record_messages(tree_msgs, 2 * b);

            // Decisions and applications.
            let mut exposed: Vec<NodeId> = Vec::new();
            for reqs in by_label() {
                let r = self.root[reqs[0].2.index()];
                let accept = reqs.len() as f64 >= eps_p * f64::from(self.trees[r.index()].members);
                if accept {
                    for &(_, v, w) in reqs {
                        self.join(v, r, w);
                        exposed.push(v);
                    }
                    // Announce the new labels (one round, already charged;
                    // messages to each neighbor).
                    let announce: u64 = reqs.iter().map(|&(_, v, _)| self.g.degree(v) as u64).sum();
                    ledger.record_messages(announce, b);
                } else {
                    for &(_, v, _) in reqs {
                        self.kill(v);
                    }
                }
            }

            // Next step's candidates: neighbors of newly joined nodes,
            // each once. Their order is immaterial: requests are grouped
            // by label, and a group's joins commute.
            self.step = self.step.wrapping_add(1);
            if self.step == 0 {
                self.seen.fill(0);
                self.step = 1;
            }
            candidates.clear();
            for &v in &exposed {
                for &w in self.g.neighbors(v) {
                    if self.seen[w.index()] != self.step {
                        self.seen[w.index()] = self.step;
                        candidates.push(w);
                    }
                }
            }
        }
        Ok(steps)
    }

    /// Moves `v` into the cluster rooted at `r` via gateway `w`.
    fn join(&mut self, v: NodeId, r: NodeId, w: NodeId) {
        let old = &mut self.trees[self.root[v.index()].index()];
        debug_assert_ne!(self.root[v.index()], r);
        // v stays in the old tree as a helper.
        old.members -= 1;
        old.dirty = true;
        self.root[v.index()] = r;
        let d = self.depth_in(r, w).expect("gateway is in the target tree") + 1;
        let t = &mut self.trees[r.index()];
        t.members += 1;
        t.dirty = true;
        // If v is already r itself or a helper in r's tree, its old
        // attachment is reused — no new edge, no depth change.
        if v != r && self.entries.insert(r, v, d) {
            t.edges.push((v, w));
            t.depth = t.depth.max(d);
            self.max_depth = self.max_depth.max(t.depth);
            self.congestion.add(self.g, v, w);
        }
    }

    /// Kills `v` (declined requester). It stays a helper in its tree.
    fn kill(&mut self, v: NodeId) {
        let t = &mut self.trees[self.root[v.index()].index()];
        t.members -= 1;
        t.dirty = true;
        self.alive.remove(v);
    }

    /// GGR21-style rebuild: replace deep trees with truncated BFS trees
    /// from their roots over the *input* set (dead nodes may serve as
    /// helpers, exactly as the incremental trees allow).
    ///
    /// Trees are swapped in ascending label order, so the congestion
    /// high-water mark the swaps raise — and with it the charged rounds
    /// — is the same on every call.
    fn rebuild_trees(
        &mut self,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<(), Cancelled> {
        let picked = |t: &Tree| t.dirty && t.members >= 2 && t.depth > REBUILD_DEPTH_THRESHOLD;
        // The members of every rebuilt tree, grouped by label; the stable
        // sort keeps each group in ascending node order.
        let mut members: Vec<(u64, NodeId)> = self
            .alive
            .iter()
            .filter(|v| picked(&self.trees[self.root[v.index()].index()]))
            .map(|v| (self.label(v), v))
            .collect();
        if members.is_empty() {
            return Ok(());
        }
        members.sort_by_key(|&(l, _)| l);

        let g = self.g;
        let view = g.view(&self.input);
        let mut max_new_depth = 0u64;
        let mut rebuild_msgs = 0u64;
        for group in members.chunk_by(|a, b| a.0 == b.0) {
            ctx.checkpoint("rg20-tree-rebuild")?;
            let r = self.root[group[0].1.index()];
            let tree = &mut self.trees[r.index()];
            let mut edges = std::mem::take(&mut tree.edges);
            for &(v, p) in &edges {
                self.congestion.remove(g, v, p);
                self.entries.remove(r, v);
            }
            edges.clear();
            // Every member is a terminal of the old tree, whose
            // root-to-member paths are real edges in the input view, so
            // all members lie within the old depth of the root — the BFS
            // can truncate there instead of flooding the whole component.
            let bfs = bfs_bounded_in(&mut ctx.ws, &view, [r], tree.depth);
            // Prune to the union of root-to-member paths. Each path node
            // takes the minimum-index input neighbor one layer closer
            // (the first one in its sorted adjacency): the parent the
            // CONGEST BFS kernel picks.
            let mut depth = 0u32;
            for &(_, m) in group {
                debug_assert!(bfs.reached(m), "member must be reachable from root");
                depth = depth.max(bfs.dist(m));
                let mut cur = m;
                while cur != r {
                    let d = bfs.dist(cur);
                    if !self.entries.insert(r, cur, d) {
                        break;
                    }
                    let p = *g
                        .neighbors(cur)
                        .iter()
                        .find(|&&x| bfs.dist(x) == d - 1)
                        .expect("non-root reached node has a parent");
                    edges.push((cur, p));
                    self.congestion.add(g, cur, p);
                    cur = p;
                }
            }
            tree.edges = edges;
            tree.depth = depth;
            tree.dirty = false;
            rebuild_msgs += tree.len();
            max_new_depth = max_new_depth.max(depth as u64);
        }
        // Parallel truncated BFS over all rebuilt clusters, congested.
        ledger.charge_rounds(2 * max_new_depth * self.congestion.max.max(1) as u64);
        ledger.record_messages(rebuild_msgs, 2 * self.id_bits);
        // Depth high-water mark resets to the current maximum.
        self.max_depth = self
            .trees
            .iter()
            .filter(|t| t.members > 0)
            .map(|t| t.depth)
            .max()
            .unwrap_or(0);
        Ok(())
    }

    /// Final clusters (ascending label) and forest.
    fn finish(mut self) -> WeakCarving {
        let mut by_label: Vec<(u64, NodeId)> =
            self.alive.iter().map(|v| (self.label(v), v)).collect();
        by_label.sort_by_key(|&(l, _)| l);

        let mut clusters = Vec::new();
        let mut trees = Vec::new();
        for group in by_label.chunk_by(|a, b| a.0 == b.0) {
            let r = self.root[group[0].1.index()];
            let mut parents = std::mem::take(&mut self.trees[r.index()].edges);
            parents.sort_unstable();
            clusters.push(group.iter().map(|&(_, v)| v).collect());
            trees.push(SteinerTree::from_parents(r, parents));
        }
        let carving =
            BallCarving::new(self.input, clusters).expect("label classes partition the alive set");
        WeakCarving::new(carving, SteinerForest::from_trees(trees))
            .expect("one tree per cluster by construction")
    }
}

impl WeakCarver for Rg20 {
    /// Runs the carving on `G[alive]`, removing at most an `eps`
    /// fraction of `alive` and returning non-adjacent clusters with
    /// Steiner trees.
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
        self.carve_weak_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    /// The carving with a caller-held [`CarveCtx`]: the per-phase tree
    /// rebuilds (the GGR21 variant) run their BFS through the context's
    /// traversal workspace, and the context's armed deadline is honored
    /// at every traversal epoch — once per bit phase, once per growth
    /// step inside a phase, and once per rebuilt tree — so the abort
    /// latency is bounded by a single epoch, not a whole blue/red sweep.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the armed deadline trips at an epoch boundary;
    /// the context stays safely reusable.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    fn carve_weak_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<WeakCarving, Cancelled> {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        if alive.is_empty() {
            let carving = BallCarving::new(alive.clone(), vec![]).expect("empty carving");
            return Ok(WeakCarving::new(carving, SteinerForest::new()).expect("empty forest"));
        }
        let mut run = Run::new(g, alive);
        let b = run.id_bits;
        let eps_p = eps / b as f64;
        for bit in (0..b).rev() {
            ctx.checkpoint("rg20-bit-phase")?;
            run.phase(bit, eps_p, ledger, ctx)?;
            if self.rebuild_trees {
                run.rebuild_trees(ledger, ctx)?;
            }
        }
        let out = run.finish();
        debug_assert!(out.carving().dead_fraction() <= eps + 1e-9);
        Ok(out)
    }

    fn name(&self) -> &'static str {
        if self.rebuild_trees {
            "ggr21"
        } else {
            "rg20"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_clustering::validate_weak_carving;
    use sdnd_graph::gen;

    fn check(g: &Graph, eps: f64, carver: &Rg20) -> (WeakCarving, RoundLedger) {
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let wc = carver.carve_weak(g, &alive, eps, &mut ledger);
        let report = validate_weak_carving(g, &wc);
        assert!(
            report.carving.is_valid_weak(eps),
            "weak contract violated (dead {:.3}): {:?}",
            report.carving.dead_fraction,
            report.violations
        );
        assert!(report.trees_well_formed, "trees: {:?}", report.violations);
        assert!(
            report.terminals_covered,
            "terminals: {:?}",
            report.violations
        );
        (wc, ledger)
    }

    #[test]
    fn carves_path() {
        let g = gen::path(32);
        let (wc, ledger) = check(&g, 0.5, &Rg20::rg20());
        assert!(wc.carving().num_clusters() >= 1);
        assert!(ledger.rounds() > 0);
    }

    #[test]
    fn carves_grid_with_small_eps() {
        let g = gen::grid(8, 8);
        let (wc, _) = check(&g, 0.25, &Rg20::rg20());
        assert!(wc.carving().dead_fraction() <= 0.25);
    }

    #[test]
    fn carves_random_graph() {
        let g = gen::gnp_connected(80, 0.05, 7);
        check(&g, 0.5, &Rg20::rg20());
    }

    #[test]
    fn carves_expander() {
        let g = gen::random_regular_connected(60, 4, 3).unwrap();
        check(&g, 0.5, &Rg20::rg20());
    }

    #[test]
    fn ggr21_variant_also_valid() {
        let g = gen::grid(9, 9);
        let (wc_plain, _) = check(&g, 0.5, &Rg20::rg20());
        let (wc_rebuilt, _) = check(&g, 0.5, &Rg20::ggr21());
        // The rebuild variant never has deeper trees.
        let d_plain = wc_plain.forest().max_depth().unwrap();
        let d_rebuilt = wc_rebuilt.forest().max_depth().unwrap();
        assert!(
            d_rebuilt <= d_plain.max(4),
            "rebuilt {d_rebuilt} vs plain {d_plain}"
        );
    }

    #[test]
    fn adversarial_ids_still_valid() {
        let n = 49;
        let g = gen::grid(7, 7);
        // Reverse identifiers: high ids in the corner.
        let ids: Vec<u64> = (0..n as u64).rev().collect();
        let g = g.with_ids(ids).unwrap();
        check(&g, 0.5, &Rg20::rg20());
    }

    #[test]
    fn respects_alive_subset() {
        let g = gen::grid(6, 6);
        let alive = NodeSet::from_nodes(36, (0..36).filter(|&i| i % 7 != 3).map(NodeId::new));
        let mut ledger = RoundLedger::new();
        let wc = Rg20::rg20().carve_weak(&g, &alive, 0.5, &mut ledger);
        let report = validate_weak_carving(&g, &wc);
        assert!(report.carving.is_valid_weak(0.5), "{:?}", report.violations);
        // No cluster contains a node outside the alive set (checked by
        // construction, but assert the input set matched).
        assert_eq!(wc.carving().input(), &alive);
    }

    #[test]
    fn singleton_and_empty_inputs() {
        let g = gen::path(3);
        let mut ledger = RoundLedger::new();
        let empty = Rg20::rg20().carve_weak(&g, &NodeSet::empty(3), 0.5, &mut ledger);
        assert_eq!(empty.carving().num_clusters(), 0);

        let one = NodeSet::from_nodes(3, [NodeId::new(1)]);
        let wc = Rg20::rg20().carve_weak(&g, &one, 0.5, &mut ledger);
        assert_eq!(wc.carving().num_clusters(), 1);
        assert_eq!(wc.carving().dead_fraction(), 0.0);
    }

    #[test]
    fn congest_compliance() {
        let g = gen::grid(6, 6);
        let alive = NodeSet::full(36);
        let mut ledger = RoundLedger::new();
        let _ = Rg20::rg20().carve_weak(&g, &alive, 0.5, &mut ledger);
        let cost = sdnd_congest::CostModel::congest_for(36);
        assert!(
            ledger.complies_with(&cost),
            "max message {} bits exceeds budget {}",
            ledger.max_message_bits(),
            cost.bits_per_message()
        );
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn rejects_bad_eps() {
        let g = gen::path(4);
        let mut ledger = RoundLedger::new();
        let _ = Rg20::rg20().carve_weak(&g, &NodeSet::full(4), 1.5, &mut ledger);
    }
}
