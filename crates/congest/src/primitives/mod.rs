//! Distributed primitives with round accounting.
//!
//! Each primitive exists in two forms that the test suite proves
//! equivalent:
//!
//! - a **kernel** node program (suffix `Kernel`) run on the
//!   message-passing [`Engine`](crate::Engine), and
//! - a **fast path** (the plain function) that computes the same output
//!   directly and charges the same rounds and message statistics to a
//!   [`RoundLedger`](crate::RoundLedger). Traversal fast paths run in a
//!   caller-held [`TraversalWorkspace`](sdnd_graph::algo::TraversalWorkspace)
//!   (suffix `_in`) and return its run views, `BfsRun` and `SpRun`;
//!   [`bfs`] and [`sp_bfs`] return their owned copies, `BfsResult` and
//!   `SpResult`.
//!
//! The cost formulas follow the standard CONGEST folklore the paper
//! invokes: BFS costs one round per layer; a pipelined layer census costs
//! `BFS + L` rounds for `L` layers; converge-casts and broadcasts over a
//! tree cost its height; and operations over a *family* of Steiner trees
//! with depth `R` and edge-congestion `L` cost `R · L` rounds (the bound
//! used in Theorem 2.1's round analysis). Weighted BFS ([`sp_bfs`]) is
//! synchronous Bellman–Ford: one round per relaxation wave, with
//! `O(log (n W))`-bit distance messages.

mod bfs;
mod census;
mod dfs_order;
mod leader;
mod sp_bfs;
mod tree;

pub use bfs::{bfs, bfs_in, BfsKernel};
pub use census::{layer_census_in, CensusKernel};
pub use dfs_order::SubsetDfsRanks;
pub use leader::{elect_leader, LeaderInfo, LeaderKernel};
pub use sp_bfs::{sp_bfs, sp_bfs_in, SpBfsKernel, SpBfsState};
pub use tree::{
    broadcast_from_root, charge_family_op, converge_cast_sum, BroadcastKernel, ConvergeCastKernel,
};
