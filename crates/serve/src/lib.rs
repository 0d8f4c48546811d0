//! Decomposition as a long-lived service.
//!
//! The amortization machinery elsewhere in the workspace —
//! [`EngineSession`](../sdnd_congest/struct.EngineSession.html) for
//! message-passing state, [`CarveCtx`](sdnd_clustering::CarveCtx) for
//! traversal scratch — exists so repeated queries against one graph are
//! nearly free. This crate puts a daemon in front of it: load graphs
//! once, then serve a request mix (`decompose`, `carve`, `cluster-of`,
//! `distance-in-cluster`, `validate`, `stats`) over a newline-framed
//! line protocol on stdin/stdout or a Unix socket, with an LRU of
//! finished decompositions keyed by `(graph content hash, algorithm,
//! eps, seed)`. `decompose` and `carve` answer every name of
//! [`sdnd_core::registry`] and run it through the registry's
//! [`decompose_in`](sdnd_core::registry::Algorithm::decompose_in) and
//! [`carve_in`](sdnd_core::registry::Algorithm::carve_in); the request
//! seed seeds the randomized entries (`ls93`, `en16`).
//!
//! The robustness spine:
//!
//! - **Cooperative deadlines** — `deadline=<ms>` arms a
//!   [`Deadline`](sdnd_graph::Deadline) at *admission*; the carving
//!   pipeline, the validators, and the engine lanes all check it at
//!   phase boundaries and abort with a typed
//!   `err cancelled phase=<p> elapsed-ms=<t>` frame.
//! - **Admission control** — a bounded queue; beyond capacity the
//!   reader sheds with `err overloaded retry-after-ms=<hint>` and the
//!   worker never sees the request.
//! - **Graceful degradation** — `validate` auto-downgrades exact→approx
//!   when the remaining budget cannot cover the learned per-graph
//!   exact-tier cost; the response reports which tier answered.
//! - **Panic isolation** — a panicking request poisons only the carving
//!   session, which is rebuilt; graphs and the LRU survive.
//!
//! See [`protocol`] for the grammar, [`state`] for the service core,
//! [`daemon`] for transports and threading. The `sdnd-loadgen` binary
//! is the closed-loop zipf traffic generator behind
//! `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod protocol;
pub mod state;

pub use daemon::{run_stdio, spawn_unix, DaemonHandle, ServeConfig};
pub use protocol::{
    classify_response, parse_request, split_prefix, Request, ResponseKind, ValidateTier, CARVE_SEED,
};
pub use state::{CostEstimator, DecompKey, DecompLru, ServeState, SharedCounters};
