//! Deterministic weak-diameter ball carving — the black box `A` that the
//! paper's Theorem 2.1 transformation consumes.
//!
//! The main algorithm is the bit-by-bit cluster competition of Rozhoň
//! and Ghaffari \[RG20\] (STOC 2020): nodes start as singleton clusters
//! labelled by their `b`-bit identifiers; for each bit, clusters whose
//! label has the bit set ("red") absorb adjacent nodes of "blue" clusters
//! or, when too few nodes request to join, kill the requesters. The
//! surviving label classes are pairwise non-adjacent, each with a
//! Steiner tree of depth `R = O(log^3 n / eps)` and edge congestion
//! `L = O(log n)`, and at most an `eps` fraction of nodes die.
//!
//! Two configurations are exported:
//!
//! - [`Rg20::rg20`] — the plain algorithm, matching the `[RG20]` rows of
//!   the paper's tables.
//! - [`Rg20::ggr21`] — a variant that rebuilds long Steiner trees after
//!   each phase by a truncated BFS, standing in for the
//!   Ghaffari–Grunau–Rozhoň \[GGR21\] depth improvement
//!   (`R = O(log^2 n / eps)`). The true GGR21 potential argument is out
//!   of scope; the stand-in satisfies the same black-box interface with
//!   shorter measured trees (see DESIGN.md).
//!
//! The crate also provides [`Ls93`], the classic randomized
//! weak-diameter carving of Linial and Saks, used as the randomized
//! baseline row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ls93;
mod rg20;
mod rg20_edge;

pub use ls93::Ls93;
pub use rg20::Rg20;
pub use rg20_edge::Rg20Edge;
