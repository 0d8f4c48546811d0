//! DFS numbering of rooted trees.
//!
//! Lemma 3.1 of the paper splits a node set `S` into two halves "according
//! to the in-order traversal" of a BFS tree. For trees of arbitrary arity
//! the natural analogue is the depth-first (pre-order) traversal, with
//! children visited in index order; that is what the CONGEST primitive
//! computes (via subtree-size converge-cast and prefix offsets), and this
//! module is its centralized counterpart.

use crate::NodeId;

/// DFS pre-order of a rooted tree given by parent pointers.
#[derive(Debug, Clone)]
pub struct TreeOrder {
    order: Vec<NodeId>,
    height: u32,
}

impl TreeOrder {
    /// The visited nodes in DFS pre-order (root first).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Height of the tree (maximum depth, 0 for a lone root).
    pub fn height(&self) -> u32 {
        self.height
    }
}

/// Child lists of a parent-pointer forest as a flat CSR: node `p`'s
/// children are `children[start[p.index()]..start[p.index() + 1]]`, in
/// increasing index order.
///
/// A counting sort over the parent pointers: filling in increasing
/// child index leaves every parent's children already sorted, with
/// three flat arrays instead of one `Vec` per node. Shared by the DFS
/// numbering here and the congest tree primitives.
pub fn children_csr(universe: usize, parent: &[Option<NodeId>]) -> (Vec<usize>, Vec<NodeId>) {
    assert_eq!(
        parent.len(),
        universe,
        "parent vector must cover the index space"
    );
    let mut start = vec![0usize; universe + 1];
    for p in parent.iter().flatten() {
        start[p.index() + 1] += 1;
    }
    for i in 0..universe {
        start[i + 1] += start[i];
    }
    let mut children = vec![NodeId::new(0); start[universe]];
    let mut cursor = start.clone();
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[cursor[p.index()]] = NodeId::new(i);
            cursor[p.index()] += 1;
        }
    }
    (start, children)
}

/// Computes the DFS pre-order of the tree rooted at `root`, where
/// `parent[v] = Some(p)` links `v` to its parent and the root has
/// `parent[root] = None`. Children are visited in increasing index order.
///
/// Nodes whose parent chains never reach `root` are not visited.
///
/// # Panics
///
/// Panics if the parent pointers contain a cycle reachable from a child
/// list (detected as a visit count exceeding `n`).
pub fn dfs_order_of_tree(n: usize, root: NodeId, parent: &[Option<NodeId>]) -> TreeOrder {
    let (start, children) = children_csr(n, parent);

    let mut order = Vec::new();
    let mut height = 0;
    // Iterative DFS, children pushed in reverse so smallest pops first.
    let mut stack = vec![(root, 0)];
    while let Some((v, depth)) = stack.pop() {
        order.push(v);
        height = height.max(depth);
        assert!(order.len() <= n, "cycle in parent pointers");
        for &c in children[start[v.index()]..start[v.index() + 1]]
            .iter()
            .rev()
        {
            stack.push((c, depth + 1));
        }
    }
    TreeOrder { order, height }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: usize) -> Option<NodeId> {
        Some(NodeId::new(v))
    }

    #[test]
    fn line_tree() {
        // 0 -> 1 -> 2 -> 3 rooted at 0.
        let parent = vec![None, p(0), p(1), p(2)];
        let o = dfs_order_of_tree(4, NodeId::new(0), &parent);
        assert_eq!(
            o.order().iter().map(|v| v.index()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(o.height(), 3);
    }

    #[test]
    fn branching_tree_children_in_index_order() {
        // Root 2 with children 0 and 4; 4 has children 1 and 3.
        let parent = vec![p(2), p(4), None, p(4), p(2)];
        let o = dfs_order_of_tree(5, NodeId::new(2), &parent);
        assert_eq!(
            o.order().iter().map(|v| v.index()).collect::<Vec<_>>(),
            vec![2, 0, 4, 1, 3]
        );
    }

    #[test]
    fn nodes_outside_tree_are_not_visited() {
        let parent = vec![None, p(0), None, None];
        let o = dfs_order_of_tree(4, NodeId::new(0), &parent);
        assert_eq!(o.order(), [0, 1].map(NodeId::new));
        assert_eq!(o.height(), 1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        // 0 <-> 1 cycle, with 0 nominally the root but 1's child chain loops.
        let parent = vec![p(1), p(0)];
        let _ = dfs_order_of_tree(2, NodeId::new(0), &parent);
    }
}
