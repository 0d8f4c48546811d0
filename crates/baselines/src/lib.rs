//! Baseline algorithms for the paper's comparison tables.
//!
//! - [`Mpx13`]: the Miller–Peng–Xu random-shift clustering \[MPX13\], the
//!   randomized *strong*-diameter carving used by Elkin–Neiman \[EN16\]
//!   (`O(log n / eps)` diameter in `O(log n / eps)` rounds, w.h.p.).
//!   The LS93 reduction over it is the `(O(log n), O(log n))`
//!   randomized strong-diameter decomposition of EN16 (`en16` in
//!   `sdnd_core::registry`).
//! - [`Abcp96`]: the classic weak→strong transformation of Awerbuch,
//!   Berger, Cowen and Peleg \[ABCP96\] — runs a weak decomposition on
//!   the power graph `G^{2d}` and then gathers whole cluster
//!   neighborhoods at cluster centers. Correct, but inherently a LOCAL
//!   model algorithm: the gathered topologies blow the per-message bit
//!   budget, which is exactly the comparison motivating the paper.
//! - [`SequentialGreedy`]: the Linial–Saks existential argument run as a
//!   (centralized, token-sequential) algorithm: `(O(log n), O(log n))`
//!   parameters, but round complexity linear in `n`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abcp96;
mod mpx;
mod sequential;

pub use abcp96::Abcp96;
pub use mpx::Mpx13;
pub use sequential::SequentialGreedy;
