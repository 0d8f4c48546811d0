//! # Strong-Diameter Network Decomposition
//!
//! The primary contribution of *Strong-Diameter Network Decomposition*
//! (Yi-Jun Chang and Mohsen Ghaffari, PODC 2021): deterministic CONGEST
//! algorithms that compute strong-diameter ball carvings and network
//! decompositions with polylogarithmic parameters and small messages.
//!
//! | Paper artifact | API |
//! |---|---|
//! | Theorem 2.1 — weak→strong carving transformation | [`transform::weak_to_strong_in`] |
//! | Theorem 2.2 — strong carving, diameter `O(log^3 n/eps)` | [`Theorem22Carver`] |
//! | Theorem 2.3 — strong decomposition `(O(log n), O(log^3 n))` | [`decompose_strong`] |
//! | Lemma 3.1 — balanced sparse cut or large small-diameter component | [`sparse_cut::cut_or_component_in`] |
//! | Theorem 3.2 — diameter-improving transformation | [`improve::improve_diameter_in`] |
//! | Theorem 3.3 — strong carving, diameter `O(log^2 n/eps)` | [`Theorem33Carver`] |
//! | Theorem 3.4 — strong decomposition `(O(log n), O(log^2 n))` | [`decompose_strong_improved`] |
//! | §1.3 note — the *edge version* of the carvings | [`transform_edge::weak_to_strong_edges_in`] |
//! | §1.1 template — applications (MIS, Δ+1 coloring) | [`apply`] |
//! | §3 barrier construction analysis | [`barrier`] |
//! | Tables 1 and 2 — every carver and its LS93 decomposition, by name | [`registry`] |
//!
//! # Example
//!
//! ```
//! use sdnd_core::{decompose_strong, Params};
//! use sdnd_clustering::validate_decomposition;
//!
//! let g = sdnd_graph::gen::grid(8, 8);
//! let (decomp, ledger) = decompose_strong(&g, &Params::default());
//! let report = validate_decomposition(&g, &decomp);
//! assert!(report.is_valid());
//! assert!(ledger.rounds() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod barrier;
mod carving;
mod decomposition;
pub mod improve;
mod params;
pub mod registry;
pub mod sparse_cut;
pub mod transform;
pub mod transform_edge;
pub mod under_faults;

pub use carving::Theorem22Carver;
pub use decomposition::{
    decompose_strong, decompose_strong_improved, decompose_strong_improved_with_in,
    decompose_strong_with_in,
};
pub use improve::Theorem33Carver;
pub use params::Params;
pub use sdnd_clustering::CarveCtx;
pub use sparse_cut::CutOrComponent;
pub use under_faults::{decompose_under_faults, FaultedDecomposition};
