//! Clustering vocabulary for the SDND project.
//!
//! This crate defines the objects of Section 1.1 of the Chang–Ghaffari
//! paper and the black-box contracts of its transformations:
//!
//! - [`BallCarving`]: a partial clustering of an alive set into disjoint,
//!   pairwise non-adjacent clusters, with the unclustered remainder
//!   *dead* (at most an `eps` fraction).
//! - [`SteinerTree`] / [`SteinerForest`]: the per-cluster trees that give
//!   weak-diameter carvings their structure — depth `R`, and every edge
//!   in at most `L` trees (congestion).
//! - [`WeakCarving`]: a ball carving augmented with its Steiner forest —
//!   exactly the interface algorithm `A` of Theorem 2.1 must provide.
//! - [`NetworkDecomposition`]: a full partition into colored clusters
//!   such that same-colored clusters are non-adjacent.
//! - [`WeakCarver`] / [`StrongCarver`]: object-safe traits for the
//!   black-box algorithms consumed by Theorems 2.1 and 3.2.
//! - [`validate`]: exhaustive checkers for every invariant above,
//!   used by the test suite and the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod carving;
mod ctx;
mod decomposition;
pub mod edge;
mod error;
pub mod metrics;
pub mod reduction;
mod steiner;
mod traits;
pub mod validate;
mod weak_edge;

pub use carving::{BallCarving, WeakCarving};
pub use ctx::CarveCtx;
pub use decomposition::{ClusterId, NetworkDecomposition};
pub use edge::{validate_edge_carving, EdgeCarver, EdgeCarving};
pub use error::ClusteringError;
pub use reduction::{decompose_with_strong_carver_in, try_decompose_by_carving};
pub use sdnd_graph::{Cancelled, Deadline};
pub use steiner::{SteinerForest, SteinerTree};
pub use traits::{StrongCarver, WeakCarver};
pub use validate::{
    validate_carving, validate_carving_approx, validate_carving_approx_in, validate_carving_in,
    validate_decomposition, validate_decomposition_approx, validate_decomposition_approx_in,
    validate_decomposition_in, validate_decomposition_timed_in, validate_weak_carving,
    ApproxCarvingReport, ApproxDecompositionReport, DecompositionReport, ValidationTiming,
    VALIDATION_TOLERANCE,
};
pub use weak_edge::{WeakEdgeCarver, WeakEdgeCarving};
