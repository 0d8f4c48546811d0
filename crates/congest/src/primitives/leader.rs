//! Leader election by minimum-identifier flooding, with a BFS tree.
//!
//! [`LeaderKernel`] is the distributed algorithm: every node floods the
//! best `(id, dist)` pair it knows and re-broadcasts whenever that pair
//! improves. After `ecc(leader) + 1` delivery rounds the network
//! quiesces: every node knows the minimum identifier of its component,
//! its distance to that leader, and a parent pointer toward it — i.e. a
//! BFS tree rooted at the leader, as used by Lemma 3.1 and the
//! cluster-local computations.
//!
//! The fast path [`elect_leader`] does not replay the flooding. It
//! computes the kernel's final state and charges in closed form:
//!
//! - Identifiers travel one hop per round, so after round `r` node `v`
//!   holds the minimum identifier within distance `r`, paired with its
//!   distance: a new minimum at distance exactly `r` reaches `v` in round
//!   `r` along shortest paths, from the neighbors that adopted it one
//!   round earlier. The leader's pair arrives in round `d(leader, v)`
//!   from exactly the neighbors one layer closer, and the kernel keeps
//!   the minimum-index sender: leader, distances and parents are one BFS
//!   from the component's minimum-identifier node with minimum-index
//!   parents.
//! - The last improvement happens at the node farthest from the leader,
//!   so the run takes the largest leader eccentricity plus 1 delivery
//!   rounds (0 when the view has no edge).
//! - `v` adopts `id(u)` exactly when `u` is strictly closer to `v` than
//!   every smaller identifier, and broadcasts to its `deg(v)` neighbors
//!   at start-up and after each adoption. The region that adopts `id(u)`
//!   contains every shortest path from `u` into it (a smaller identifier
//!   at least as close to a node on the path would be at least as close
//!   to its end), so a BFS from `u` that stops wherever a smaller
//!   identifier is at least as close visits exactly that region. One
//!   such BFS per node, in ascending identifier order, counts the
//!   messages with as much work as there are messages.
//!
//! The cross-validation suites check outputs, rounds, messages and bits
//! of the fast path against [`LeaderKernel`].

use crate::{bits_for_value, Outbox, Protocol, RoundLedger};
use sdnd_graph::{Adjacency, NodeId};

/// Outcome of leader election over one connected view.
///
/// If the view is disconnected, each component elects its own leader;
/// per-node fields refer to the component-local leader.
#[derive(Debug, Clone)]
pub struct LeaderInfo {
    best_id: Vec<u64>,
    dist: Vec<u32>,
    parent: Vec<Option<NodeId>>,
}

impl LeaderInfo {
    /// The elected leader of the component containing `v` (the alive node
    /// with minimum identifier), or `None` if `v` is not in the view.
    pub fn leader_id_at(&self, v: NodeId) -> Option<u64> {
        (self.dist[v.index()] != u32::MAX).then(|| self.best_id[v.index()])
    }

    /// Distance from `v` to its component leader (`u32::MAX` outside).
    pub fn dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }

    /// Parent of `v` in the BFS tree rooted at its leader.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Parent pointers, indexed by node.
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }
}

/// Elects the minimum-identifier node of every component of `view` and
/// builds BFS trees rooted at the leaders, charging the flooding cost of
/// [`LeaderKernel`] (see the module docs for the closed form).
pub fn elect_leader<A: Adjacency>(view: &A, ledger: &mut RoundLedger) -> LeaderInfo {
    let n = view.universe();
    let msg_bits = 2 * bits_for_value(n.max(2) as u64 - 1) + 2;
    let mut best_id = vec![u64::MAX; n];
    let mut dist = vec![u32::MAX; n];
    let mut parent = vec![None; n];
    // `near[v]`: distance from `v` to the nearest identifier processed so
    // far (`u32::MAX` while none shares its component).
    let mut near = vec![u32::MAX; n];
    let mut by_id: Vec<NodeId> = view.nodes().collect();
    by_id.sort_unstable_by_key(|&v| view.id_of(v));

    let mut queue: Vec<NodeId> = Vec::new();
    let mut messages = 0u64;
    let mut max_ecc = 0u32;
    for &u in &by_id {
        // No smaller identifier reached `u`: it leads its component, and
        // its BFS is never pruned.
        let leads = near[u.index()] == u32::MAX;
        near[u.index()] = 0;
        queue.clear();
        queue.push(u);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let d = near[v.index()] + 1;
            for w in view.neighbors(v) {
                messages += 1;
                if d < near[w.index()] {
                    near[w.index()] = d;
                    queue.push(w);
                }
            }
        }
        if leads {
            // The BFS spans `u`'s component. The kernel keeps the
            // minimum-index sender of the leader's pair: the
            // minimum-index neighbor one layer closer.
            let id = view.id_of(u);
            for &v in &queue {
                let d = near[v.index()];
                best_id[v.index()] = id;
                dist[v.index()] = d;
                parent[v.index()] = view.neighbors(v).filter(|w| near[w.index()] + 1 == d).min();
                max_ecc = max_ecc.max(d);
            }
        }
    }

    let rounds = if max_ecc > 0 { max_ecc as u64 + 1 } else { 0 };
    ledger.charge_rounds(rounds);
    ledger.record_messages(messages, msg_bits);
    LeaderInfo {
        best_id,
        dist,
        parent,
    }
}

/// Kernel program for [`elect_leader`].
///
/// View-independent: flooding uses [`Outbox::broadcast`] (exactly the
/// alive neighbors), so the kernel only carries the identifier table.
pub struct LeaderKernel {
    ids: Vec<u64>,
    msg_bits: u32,
}

impl LeaderKernel {
    /// Creates the flooding program.
    pub fn new<A: Adjacency>(view: &A) -> Self {
        let ids = (0..view.universe())
            .map(|i| view.id_of(NodeId::new(i)))
            .collect();
        let msg_bits = 2 * bits_for_value(view.universe().max(2) as u64 - 1) + 2;
        LeaderKernel { ids, msg_bits }
    }
}

/// Per-node state of [`LeaderKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderState {
    /// Best identifier heard so far.
    pub id: u64,
    /// Distance to that identifier's origin.
    pub dist: u32,
    /// Neighbor that delivered the best pair.
    pub parent: Option<NodeId>,
}

impl Protocol for LeaderKernel {
    type State = LeaderState;
    type Msg = (u64, u32); // (best id, dist of sender to it)

    fn init(&self, node: NodeId, out: &mut Outbox<'_, (u64, u32)>) -> LeaderState {
        let id = self.ids[node.index()];
        out.broadcast((id, 0));
        LeaderState {
            id,
            dist: 0,
            parent: None,
        }
    }

    fn step(
        &self,
        _node: NodeId,
        state: &mut LeaderState,
        inbox: &[(NodeId, (u64, u32))],
        out: &mut Outbox<'_, (u64, u32)>,
    ) {
        let mut improved = false;
        for &(from, (id, d)) in inbox {
            let cand = (id, d + 1);
            if cand < (state.id, state.dist) {
                state.id = id;
                state.dist = d + 1;
                state.parent = Some(from);
                improved = true;
            } else if cand == (state.id, state.dist)
                && improved
                && state.parent.is_some_and(|p| from < p)
            {
                state.parent = Some(from);
            }
        }
        if improved {
            out.broadcast((state.id, state.dist));
        }
    }

    fn bits(&self, _msg: &(u64, u32)) -> u32 {
        self.msg_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Engine};
    use sdnd_graph::{gen, NodeSet};

    fn cross_validate<A: Adjacency>(view: &A) {
        let mut ledger = RoundLedger::new();
        let fast = elect_leader(view, &mut ledger);

        let kernel = LeaderKernel::new(view);
        let engine = Engine::new(CostModel::congest_for(view.universe()));
        let mut session = engine.session(view.graph());
        let out = session.run(view, &kernel).unwrap();
        let rerun = session.run(view, &kernel).unwrap();
        assert_eq!(out.rounds, rerun.rounds, "session rerun rounds");
        assert_eq!(out.states, rerun.states, "session rerun states");

        for v in view.nodes() {
            let ks = out.states[v.index()].as_ref().unwrap();
            assert_eq!(Some(ks.id), fast.leader_id_at(v), "id at {v:?}");
            assert_eq!(ks.dist, fast.dist(v), "dist at {v:?}");
            assert_eq!(ks.parent, fast.parent(v), "parent at {v:?}");
        }
        assert_eq!(out.rounds, ledger.rounds(), "round mismatch");
        assert_eq!(out.ledger.messages(), ledger.messages(), "message mismatch");
    }

    #[test]
    fn elects_min_id() {
        let g = gen::cycle(9)
            .with_ids(vec![5, 3, 8, 1, 9, 0, 7, 2, 6])
            .unwrap();
        let mut ledger = RoundLedger::new();
        let info = elect_leader(&g.full_view(), &mut ledger);
        for v in g.nodes() {
            assert_eq!(info.leader_id_at(v), Some(0));
        }
        // Node 5 has id 0; distances follow the cycle metric.
        assert_eq!(info.dist(NodeId::new(5)), 0);
        assert_eq!(info.dist(NodeId::new(1)), 4);
        assert!(ledger.rounds() > 0);
    }

    #[test]
    fn bfs_tree_parents_point_to_leader() {
        let g = gen::grid(4, 4);
        let mut ledger = RoundLedger::new();
        let info = elect_leader(&g.full_view(), &mut ledger);
        // Default ids: leader is node 0. Walk parents from node 15.
        let mut v = NodeId::new(15);
        let mut hops = 0;
        while let Some(p) = info.parent(v) {
            assert_eq!(info.dist(p), info.dist(v) - 1);
            v = p;
            hops += 1;
            assert!(hops <= 16);
        }
        assert_eq!(v, NodeId::new(0));
        assert_eq!(hops, info.dist(NodeId::new(15)));
    }

    #[test]
    fn per_component_leaders() {
        let g = sdnd_graph::Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)])
            .unwrap()
            .with_ids(vec![9, 4, 7, 2, 8])
            .unwrap();
        let mut ledger = RoundLedger::new();
        let info = elect_leader(&g.full_view(), &mut ledger);
        assert_eq!(info.leader_id_at(NodeId::new(0)), Some(4));
        assert_eq!(info.leader_id_at(NodeId::new(2)), Some(2));
    }

    #[test]
    fn cross_validate_various() {
        cross_validate(&gen::grid(4, 5).full_view());
        cross_validate(
            &gen::cycle(11)
                .with_ids(vec![5, 3, 8, 1, 9, 0, 7, 2, 6, 10, 4])
                .unwrap()
                .full_view(),
        );
        cross_validate(&gen::gnp_connected(30, 0.1, 3).full_view());

        let g = gen::grid(4, 4);
        let alive = NodeSet::from_nodes(16, (0..16).filter(|&i| i % 5 != 2).map(NodeId::new));
        cross_validate(&g.view(&alive));
    }

    #[test]
    fn isolated_nodes_self_elect_free() {
        let g = sdnd_graph::Graph::empty(3);
        let mut ledger = RoundLedger::new();
        let info = elect_leader(&g.full_view(), &mut ledger);
        assert_eq!(ledger.rounds(), 0);
        for v in g.nodes() {
            assert_eq!(info.leader_id_at(v), Some(v.index() as u64));
            assert_eq!(info.dist(v), 0);
        }
    }
}
