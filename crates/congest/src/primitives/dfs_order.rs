//! Distributed DFS numbering of a marked subset along a tree.
//!
//! Lemma 3.1 splits a set `S` into two halves "according to the in-order
//! traversal" of a BFS tree. In CONGEST this is done with two passes over
//! the tree: a converge-cast in which every node learns how many members
//! of `S` live in its subtree, followed by a broadcast of prefix offsets,
//! after which every member knows its rank in the depth-first traversal
//! (children in index order). Total cost: `2 · height` rounds and two
//! messages per tree edge.
//!
//! The fast path computes the tree's DFS pre-order once
//! ([`SubsetDfsRanks::new`]) and ranks every subset along it
//! ([`SubsetDfsRanks::ranked`]), charging exactly that cost per subset.
//! Its building blocks (converge-cast, broadcast) are kernel-validated in
//! [`super::tree`], and the rank computation itself is pure tree algebra
//! over [`sdnd_graph::algo::dfs_order_of_tree`].

use crate::{bits_for_value, RoundLedger};
use sdnd_graph::algo::{self, TreeOrder};
use sdnd_graph::{Adjacency, NodeId, NodeSet};

/// The DFS pre-order of a rooted tree (every node whose parent chain
/// reaches the root), computed once and used to rank any number of
/// member subsets.
#[derive(Debug, Clone)]
pub struct SubsetDfsRanks {
    order: TreeOrder,
    msg_bits: u32,
}

impl SubsetDfsRanks {
    /// Builds the pre-order of the tree rooted at `root`.
    pub fn new<A: Adjacency>(view: &A, root: NodeId, parent: &[Option<NodeId>]) -> Self {
        let n = view.universe();
        SubsetDfsRanks {
            order: algo::dfs_order_of_tree(n, root, parent),
            msg_bits: 2 * bits_for_value(n.max(2) as u64 - 1),
        }
    }

    /// Height of the tree (maximum depth, 0 for a singleton).
    pub fn height(&self) -> u32 {
        self.order.height()
    }

    /// The members of `members` that lie in the tree, in the DFS
    /// pre-order of the tree restricted to them: the `r`-th item has rank
    /// `r`. Non-members and nodes outside the tree are skipped.
    ///
    /// Charges `2 · height` rounds and `2 · (tree size - 1)` messages of
    /// `2 log n` bits (subtree count up, prefix offset down).
    pub fn ranked<'a>(
        &'a self,
        members: &'a NodeSet,
        ledger: &mut RoundLedger,
    ) -> impl Iterator<Item = NodeId> + 'a {
        ledger.charge_rounds(2 * self.height() as u64);
        ledger.record_messages(2 * (self.order.order().len() as u64 - 1), self.msg_bits);
        self.order
            .order()
            .iter()
            .copied()
            .filter(|&v| members.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_graph::gen;

    #[test]
    fn ranks_follow_dfs_order() {
        // Star rooted at center 0: children visited in index order.
        let g = gen::star(5);
        let parent: Vec<Option<NodeId>> = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
        ];
        let members = NodeSet::from_nodes(5, [0, 2, 4].map(NodeId::new));
        let mut ledger = RoundLedger::new();
        let tree = SubsetDfsRanks::new(&g.full_view(), NodeId::new(0), &parent);
        let ranked: Vec<NodeId> = tree.ranked(&members, &mut ledger).collect();
        assert_eq!(ranked, [0, 2, 4].map(NodeId::new));
        // Star has height 1: 2 rounds, 8 messages.
        assert_eq!(ledger.rounds(), 2);
        assert_eq!(ledger.messages(), 8);
    }

    #[test]
    fn full_membership_gives_preorder_positions() {
        let g = gen::path(6);
        let mut bfs_ledger = RoundLedger::new();
        let bfs = super::super::bfs(&g.full_view(), [NodeId::new(0)], u32::MAX, &mut bfs_ledger);
        let mut ledger = RoundLedger::new();
        let tree = SubsetDfsRanks::new(&g.full_view(), NodeId::new(0), bfs.parents());
        assert_eq!(tree.height(), 5);
        let ranked: Vec<NodeId> = tree.ranked(&NodeSet::full(6), &mut ledger).collect();
        assert_eq!(ranked, (0..6).map(NodeId::new).collect::<Vec<_>>());
        assert_eq!(ledger.rounds(), 2 * 5);
    }

    #[test]
    fn one_tree_ranks_many_subsets() {
        // Subset rankings restrict the full pre-order, and each pays its
        // own two passes over the height-4 tree.
        let g = gen::grid(5, 5);
        let mut l0 = RoundLedger::new();
        let bfs = super::super::bfs(&g.full_view(), [NodeId::new(12)], u32::MAX, &mut l0);
        let tree = SubsetDfsRanks::new(&g.full_view(), NodeId::new(12), bfs.parents());
        let mut ledger = RoundLedger::new();
        let full: Vec<NodeId> = tree.ranked(&NodeSet::full(25), &mut ledger).collect();
        assert_eq!(full.len(), 25);
        for parity in 0..2 {
            let members = NodeSet::from_nodes(25, (parity..25).step_by(2).map(NodeId::new));
            let ranked: Vec<NodeId> = tree.ranked(&members, &mut ledger).collect();
            let restricted: Vec<NodeId> = full
                .iter()
                .copied()
                .filter(|&v| members.contains(v))
                .collect();
            assert_eq!(ranked, restricted);
        }
        assert_eq!(ledger.rounds(), 3 * 2 * 4);
        assert_eq!(ledger.messages(), 3 * 2 * 24);
    }

    #[test]
    fn nodes_outside_the_tree_are_skipped() {
        let g = gen::path(4);
        // Tree {2 -> 1}: nodes 0 and 3 have no parent chain to the root.
        let parent = vec![None, Some(NodeId::new(2)), None, None];
        let tree = SubsetDfsRanks::new(&g.full_view(), NodeId::new(2), &parent);
        let mut ledger = RoundLedger::new();
        let ranked: Vec<NodeId> = tree.ranked(&NodeSet::full(4), &mut ledger).collect();
        assert_eq!(ranked, [2, 1].map(NodeId::new));
        assert_eq!(ledger.rounds(), 2);
        assert_eq!(ledger.messages(), 2);
    }
}
