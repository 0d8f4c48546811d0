//! Pipelined layer census: the root of a BFS learns `|B_r|` for every
//! radius `r`.
//!
//! This is the primitive behind the radius-growth steps of Theorem 2.1
//! (case II) and Lemma 3.1: "gather the sizes of the BFS layers around
//! the chosen node". After the BFS itself, counts stream up the BFS tree
//! in a pipelined schedule — a node at depth `d` forwards the merged
//! count for layer `l` exactly `l - d` rounds after the census starts —
//! so the upcast finishes in `L` extra rounds for `L` layers, matching
//! the paper's `O(r*)` bound for computing `r*`. The counts the root
//! learns are the layer sizes of the BFS run itself, so
//! [`layer_census_in`] returns that [`BfsRun`] and charges the upcast;
//! [`CensusKernel`] replays the upcast on the engine.

use super::bfs::bfs_in;
use crate::{bits_for_value, Outbox, Protocol, RoundLedger};
use sdnd_graph::algo::{BfsRun, TraversalWorkspace, UNREACHED};
use sdnd_graph::{Adjacency, NodeId};

/// Runs a BFS from `root` truncated at `r_max` and pipelines the layer
/// counts back to the root. Charges the BFS cost plus `L` upcast rounds
/// (where `L` is the deepest non-empty layer) and the pipelined upcast
/// messages.
///
/// Returns the BFS run the census was taken on: the counts the root
/// learns are its [`layer_sizes`](BfsRun::layer_sizes), with
/// [`ball_sizes`](BfsRun::ball_sizes) and the clamped
/// [`ball_size`](BfsRun::ball_size) as their prefix sums. The BFS runs
/// through the fused [`bfs_in`] and the upcast accounting reuses a
/// pooled buffer — no per-call allocation.
pub fn layer_census_in<'w, A: Adjacency>(
    view: &A,
    root: NodeId,
    r_max: u32,
    ledger: &mut RoundLedger,
    ws: &'w mut TraversalWorkspace,
) -> BfsRun<'w> {
    let count_bits = bits_for_value(view.universe().max(2) as u64);
    let mut sub_max = ws.take_aux_u32();
    {
        let outcome = bfs_in(view, [root], r_max, ledger, ws);
        // Upcast accounting. sub_max[v] = deepest layer in v's BFS
        // subtree; node v sends one count message per layer in
        // d(v)..=sub_max(v). Only reached entries are (re)initialized,
        // so the pooled buffer needs no O(n) clear.
        if sub_max.len() < view.universe() {
            sub_max.resize(view.universe(), 0);
        }
        for &v in outcome.order() {
            sub_max[v.index()] = outcome.dist(v);
        }
        for &v in outcome.order().iter().rev() {
            if let Some(p) = outcome.parent(v) {
                let up = sub_max[v.index()];
                if up > sub_max[p.index()] {
                    sub_max[p.index()] = up;
                }
            }
        }
        let mut messages = 0u64;
        for &v in outcome.order() {
            if outcome.parent(v).is_some() {
                messages += (sub_max[v.index()] - outcome.dist(v) + 1) as u64;
            }
        }
        let upcast_rounds = outcome.eccentricity().unwrap_or(0) as u64;
        ledger.charge_rounds(upcast_rounds);
        ledger.record_messages(messages, count_bits);
    }
    ws.give_aux_u32(sub_max);
    ws.hop_run()
}

/// Kernel program for the pipelined upcast, given the BFS tree (dist and
/// parent per node). The root's final state holds the layer counts.
pub struct CensusKernel<'a> {
    dist: &'a [u32],
    parent: &'a [Option<NodeId>],
    count_bits: u32,
}

impl<'a> CensusKernel<'a> {
    /// Creates the upcast program over an existing BFS tree.
    pub fn new(dist: &'a [u32], parent: &'a [Option<NodeId>], count_bits: u32) -> Self {
        CensusKernel {
            dist,
            parent,
            count_bits,
        }
    }
}

/// Per-node state of [`CensusKernel`]: the layer counts accumulated so
/// far (only meaningful at the root).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CensusState {
    /// At the root: `counts[d]` = census of layer `d`. Elsewhere: empty.
    pub counts: Vec<u64>,
}

impl Protocol for CensusKernel<'_> {
    type State = CensusState;
    type Msg = u64; // merged count for the layer implied by the schedule

    fn init(&self, node: NodeId, out: &mut Outbox<'_, u64>) -> CensusState {
        let i = node.index();
        if self.dist[i] == UNREACHED {
            return CensusState::default();
        }
        match self.parent[i] {
            Some(p) => {
                // Non-root tree node: contribute own record (layer d, count 1).
                out.send(p, 1);
                CensusState::default()
            }
            None if self.dist[i] == 0 => {
                // Root: own record is local.
                CensusState { counts: vec![1] }
            }
            None => CensusState::default(),
        }
    }

    fn step(
        &self,
        node: NodeId,
        state: &mut CensusState,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        let i = node.index();
        let merged: u64 = inbox.iter().map(|&(_, c)| c).sum();
        match self.parent[i] {
            Some(p) => out.send(p, merged),
            None => {
                // Root: rounds arrive in layer order 1, 2, 3, ...
                state.counts.push(merged);
            }
        }
    }

    fn bits(&self, _msg: &u64) -> u32 {
        self.count_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Engine};
    use sdnd_graph::gen;

    fn cross_validate<A: Adjacency>(view: &A, root: NodeId, r_max: u32) {
        let mut ws = TraversalWorkspace::new();
        let mut ledger = RoundLedger::new();
        let census = layer_census_in(view, root, r_max, &mut ledger, &mut ws);

        // Kernel phase 1: BFS.
        let mut bfs_ledger = RoundLedger::new();
        let outcome = crate::primitives::bfs(view, [root], r_max, &mut bfs_ledger);
        let dists: Vec<u32> = (0..view.universe())
            .map(|i| outcome.dist(NodeId::new(i)))
            .collect();

        // Kernel phase 2: pipelined upcast.
        let count_bits = bits_for_value(view.universe().max(2) as u64);
        let kernel = CensusKernel::new(&dists, outcome.parents(), count_bits);
        let out = Engine::new(CostModel::congest_for(view.universe()))
            .run(view, &kernel)
            .unwrap();

        let root_counts = &out.states[root.index()].as_ref().unwrap().counts;
        let census_counts: Vec<u64> = census.layer_sizes().iter().map(|&c| c as u64).collect();
        assert_eq!(root_counts, &census_counts, "census mismatch");

        // The fast path charged: BFS cost + upcast cost. Kernel upcast
        // rounds/messages must match the upcast part exactly.
        let upcast_rounds = ledger.rounds() - bfs_ledger.rounds();
        let upcast_msgs = ledger.messages() - bfs_ledger.messages();
        assert_eq!(out.rounds, upcast_rounds, "upcast round mismatch");
        assert_eq!(
            out.ledger.messages(),
            upcast_msgs,
            "upcast message mismatch"
        );
    }

    #[test]
    fn census_on_path() {
        let g = gen::path(7);
        let mut ws = TraversalWorkspace::new();
        let mut ledger = RoundLedger::new();
        let census = layer_census_in(
            &g.full_view(),
            NodeId::new(0),
            u32::MAX,
            &mut ledger,
            &mut ws,
        );
        assert_eq!(census.layer_sizes(), &[1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(census.ball_sizes(), &[1, 2, 3, 4, 5, 6, 7]);
        // BFS: 7 rounds (last forwarder at distance 6 delivers in round 7);
        // upcast: 6 rounds.
        assert_eq!(ledger.rounds(), 7 + 6);
    }

    #[test]
    fn cross_validate_families() {
        cross_validate(&gen::grid(4, 6).full_view(), NodeId::new(0), u32::MAX);
        cross_validate(&gen::star(9).full_view(), NodeId::new(0), u32::MAX);
        cross_validate(&gen::star(9).full_view(), NodeId::new(3), u32::MAX);
        cross_validate(
            &gen::gnp_connected(35, 0.1, 9).full_view(),
            NodeId::new(1),
            u32::MAX,
        );
        cross_validate(&gen::path(11).full_view(), NodeId::new(4), 3);
    }

    #[test]
    fn bounded_census_truncates() {
        let g = gen::path(10);
        let mut ws = TraversalWorkspace::new();
        let mut ledger = RoundLedger::new();
        let census = layer_census_in(&g.full_view(), NodeId::new(0), 4, &mut ledger, &mut ws);
        assert_eq!(census.layer_sizes().len(), 5);
        assert_eq!(census.ball_sizes().last(), Some(&5));
    }

    #[test]
    fn ball_size_clamps_beyond_the_deepest_layer() {
        let g = gen::path(6);
        let mut ws = TraversalWorkspace::new();
        let mut ledger = RoundLedger::new();
        let census = layer_census_in(
            &g.full_view(),
            NodeId::new(0),
            u32::MAX,
            &mut ledger,
            &mut ws,
        );
        assert_eq!(census.ball_size(0), 1);
        assert_eq!(census.ball_size(5), 6);
        // Indexing `ball_sizes()` here would be out of bounds.
        assert_eq!(census.ball_size(6), 6);
        assert_eq!(census.ball_size(u32::MAX), 6);

        let census = layer_census_in(&g.full_view(), NodeId::new(2), 1, &mut ledger, &mut ws);
        assert_eq!(census.ball_size(1), 3);
        assert_eq!(census.ball_size(400), 3);
    }

    #[test]
    fn singleton_census() {
        let g = sdnd_graph::Graph::empty(2);
        let mut ws = TraversalWorkspace::new();
        let mut ledger = RoundLedger::new();
        let census = layer_census_in(
            &g.full_view(),
            NodeId::new(0),
            u32::MAX,
            &mut ledger,
            &mut ws,
        );
        assert_eq!(census.layer_sizes(), &[1]);
        assert_eq!(ledger.rounds(), 0);
    }
}
