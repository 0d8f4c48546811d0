//! # SDND — Strong-Diameter Network Decomposition
//!
//! A Rust reproduction of *Strong-Diameter Network Decomposition* by
//! Yi-Jun Chang and Mohsen Ghaffari (PODC 2021, arXiv:2102.09820): the
//! first polylogarithmic-round deterministic CONGEST algorithm computing a
//! strong-diameter network decomposition with polylogarithmic parameters,
//! together with the full substrate it runs on (a CONGEST round
//! simulator), the weak-diameter carving it consumes as a black box, and
//! the randomized/LOCAL baselines it is compared against.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace. See the individual modules for details:
//!
//! - [`graph`] — CSR graphs, generators, traversals ([`sdnd_graph`]).
//! - [`congest`] — the CONGEST/LOCAL round simulator ([`sdnd_congest`]).
//! - [`clustering`] — decomposition/carving types, contracts, validators
//!   ([`sdnd_clustering`]).
//! - [`weak`] — deterministic weak-diameter ball carving (RG20/GGR21) and
//!   the LS93 randomized carving ([`sdnd_weak`]).
//! - [`core`] — the paper's contribution: Theorems 2.1–2.3, Lemma 3.1,
//!   Theorems 3.2–3.4, and the registry of every algorithm by name
//!   ([`sdnd_core`]).
//! - [`baselines`] — MPX13/EN16 random shifts, the ABCP96 LOCAL
//!   transformation, and the sequential existential carving
//!   ([`sdnd_baselines`]).
//! - [`serve`] — the `sdnd serve` daemon: graphs load once, requests
//!   (decompose, carve, point queries, validate) arrive over a framed
//!   line protocol with cooperative deadlines, admission control, and
//!   an LRU of finished decompositions ([`sdnd_serve`]).
//!
//! # Quickstart
//!
//! ```
//! use sdnd::prelude::*;
//!
//! // A 16x16 grid network.
//! let g = sdnd::graph::gen::grid(16, 16);
//!
//! // Deterministic strong-diameter network decomposition (Theorem 2.3).
//! let (decomp, ledger) = sdnd::core::decompose_strong(&g, &Params::default());
//!
//! // Every node is clustered, same-colored clusters are non-adjacent, and
//! // every cluster has small strong diameter.
//! let report = validate_decomposition(&g, &decomp);
//! assert!(report.is_valid());
//! println!(
//!     "colors = {}, max strong diameter = {:?}, rounds = {}",
//!     decomp.num_colors(),
//!     report.max_strong_diameter,
//!     ledger.rounds()
//! );
//! ```

pub use sdnd_baselines as baselines;
pub use sdnd_clustering as clustering;
pub use sdnd_congest as congest;
pub use sdnd_core as core;
pub use sdnd_graph as graph;
pub use sdnd_serve as serve;
pub use sdnd_weak as weak;

/// Commonly used items, re-exported for `use sdnd::prelude::*`.
pub mod prelude {
    pub use sdnd_clustering::{
        validate_carving, validate_carving_approx, validate_decomposition,
        validate_decomposition_approx, BallCarving, NetworkDecomposition, StrongCarver, WeakCarver,
    };
    pub use sdnd_congest::{CostModel, RoundLedger};
    pub use sdnd_core::Params;
    pub use sdnd_graph::algo::HyperBallParams;
    pub use sdnd_graph::{Adjacency, Graph, NodeId, NodeSet};
}
