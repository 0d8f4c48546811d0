//! Graph algorithms used by the decomposition stack.
//!
//! All traversals are generic over [`Adjacency`](crate::Adjacency) so they
//! run unchanged on whole graphs and on induced alive-set views `G[S]`.

mod bfs;
mod components;
mod dfs;
mod distance;
mod hyperball;
mod induced;
mod msbfs;
mod oracle;
mod power;
mod weighted;
mod workspace;

pub use bfs::{bfs, BfsResult, UNREACHED};
pub use components::{component_of, connected_components, is_connected, Components};
pub use dfs::{children_csr, dfs_order_of_tree, TreeOrder};
pub use distance::{
    diameter_exact_in, diameter_two_sweep_in, eccentricities_in, eccentricity_in,
    pairwise_distances_in,
};
pub use hyperball::{HyperBall, HyperBallParams, HyperBallSummary};
pub use induced::{induced_subgraph, InducedSubgraph};
pub use msbfs::{ms_batch_order_in, msbfs_bounded_in, msbfs_in, msbfs_to_in, MsBfsRun, MS_LANES};
pub use oracle::{DistanceMapIn, DistanceOracle, HopOracle, WeightedOracle, ORACLE_UNREACHED};
pub use power::{graph_power, power_graph};
pub use weighted::{bellman_ford, dijkstra, SpResult, W_UNREACHED};
pub use workspace::{
    bfs_bounded_in, bfs_in, bfs_to_in, dijkstra_bounded_in, dijkstra_in, dijkstra_to_in, BfsRun,
    HopParts, SpParts, SpRun, TraversalWorkspace, MAX_HOP_DIST,
};
