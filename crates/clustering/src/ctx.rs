//! The carving context: one reusable traversal workspace threaded
//! through the whole sequential pipeline, plus the request deadline the
//! pipeline checks at phase boundaries.
//!
//! Every `_in` entry point in this crate and in `sdnd_core` takes a
//! `&mut CarveCtx`, and is the only public form of its stage; a one-off
//! caller passes `&mut CarveCtx::new()`. The few non-`_in` wrappers left
//! (the validators of the prelude, the decomposition reductions and the
//! `carve_strong` / `carve_weak` trait methods) spin up a throwaway
//! context, the same wrapper-vs-session pattern as `Engine::run` vs
//! `EngineSession`. Hold one `CarveCtx` across repeated carvings,
//! decompositions, and validations on a thread to amortize every
//! traversal's `O(n + m)` scratch down to `O(1)` allocations.
//!
//! The context also carries the request [`Deadline`]: arm it before an
//! `_in` call and the pipeline aborts with a typed
//! [`Cancelled`] at its next phase boundary (per carve attempt, per
//! halving iteration, per validated cluster — never per edge).
//! Abandoning work mid-pipeline is safe for the same reason panicking
//! out of it is: the workspace's next traversal advances the stamp
//! epoch, invalidating partial state wholesale.
//!
//! The context is deliberately orthogonal to the CONGEST engine's
//! [`EngineSession`](../sdnd_congest/struct.EngineSession.html): a
//! session amortizes *message-passing* state per graph, a `CarveCtx`
//! amortizes *traversal* state across any sequence of graphs. A
//! kernel-level carver run composes them side by side — one session for
//! its protocol executions, one context for its charged fast paths.

use sdnd_graph::algo::TraversalWorkspace;
use sdnd_graph::{Cancelled, Deadline};

/// Reusable state for the carving pipeline: the traversal workspace
/// (stamped scratch + NodeSet pool) and the request deadline.
///
/// Safe to reuse after a carve that panicked *or was cancelled* out of
/// the pipeline: the workspace's next traversal advances the stamp
/// epoch, which invalidates any partially written state wholesale.
#[derive(Debug, Default)]
pub struct CarveCtx {
    /// The epoch-stamped traversal workspace.
    pub ws: TraversalWorkspace,
    /// The armed request deadline (unarmed by default, so the plain
    /// wrappers never trip it).
    deadline: Deadline,
}

impl CarveCtx {
    /// Creates an empty context (arrays grow on first use), unarmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh context already armed with `deadline`.
    #[must_use]
    pub fn with_deadline(deadline: Deadline) -> Self {
        CarveCtx {
            ws: TraversalWorkspace::default(),
            deadline,
        }
    }

    /// Arms `deadline` for the following `_in` calls (replacing any
    /// previously armed one). Typically called per request on a pooled
    /// context; pair with [`disarm`](Self::disarm).
    pub fn arm(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Clears the armed deadline; subsequent checkpoints never trip.
    pub fn disarm(&mut self) {
        self.deadline = Deadline::unarmed();
    }

    /// The currently armed deadline.
    #[must_use]
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// The phase-boundary checkpoint the pipeline calls between units
    /// of work. One branch when unarmed.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the armed deadline has expired or was
    /// cancelled.
    #[inline]
    pub fn checkpoint(&self, phase: &'static str) -> Result<(), Cancelled> {
        self.deadline.check(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_contexts_never_trip() {
        let ctx = CarveCtx::new();
        assert!(ctx.checkpoint("x").is_ok());
        assert!(!ctx.deadline().is_armed());
    }

    #[test]
    fn arm_checkpoint_disarm_cycle() {
        let mut ctx = CarveCtx::new();
        ctx.arm(Deadline::within(Duration::ZERO));
        let err = ctx.checkpoint("phase-a").unwrap_err();
        assert_eq!(err.phase, "phase-a");
        ctx.disarm();
        assert!(ctx.checkpoint("phase-b").is_ok());

        let armed = CarveCtx::with_deadline(Deadline::within(Duration::ZERO));
        assert!(armed.checkpoint("phase-c").is_err());
    }
}
