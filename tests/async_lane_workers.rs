//! The async lane's teardown audit as a regression test: every exit path
//! of `run_async` — clean completion, a watchdog failure, a faulted run —
//! drops every worker it started before it returns, and a one-shard run,
//! which steps inline on the caller's thread, starts none.
//!
//! The check reads the lane's own live-worker count, which a drop guard
//! on each worker keeps. That count is process-wide, so this file is a
//! test binary of its own with a single test: no other test runs async
//! lanes beside it. Counting OS threads instead (`/proc/self/status`)
//! is racy: `std::thread::scope` returns once each worker's closure has
//! finished, which can be before its thread has exited.

use std::sync::atomic::{AtomicUsize, Ordering};

use sdnd::congest::async_lane::live_workers;
use sdnd::congest::{primitives, run_async, Adversary, AsyncConfig, Engine, Outbox, Protocol};
use sdnd::prelude::*;
use sdnd_graph::gen;

/// Delegates to `inner` and records the largest live-worker count any
/// of its inits and steps observes: at least its own worker when the run
/// has two or more shards, 0 when a one-shard run steps inline.
struct Observed<'a, P> {
    inner: &'a P,
    seen: AtomicUsize,
}

impl<P: Protocol> Protocol for Observed<'_, P> {
    type State = P::State;
    type Msg = P::Msg;

    fn init(&self, node: NodeId, out: &mut Outbox<'_, Self::Msg>) -> Self::State {
        self.seen.fetch_max(live_workers(), Ordering::SeqCst);
        self.inner.init(node, out)
    }

    fn step(
        &self,
        node: NodeId,
        state: &mut Self::State,
        inbox: &[(NodeId, Self::Msg)],
        out: &mut Outbox<'_, Self::Msg>,
    ) {
        self.seen.fetch_max(live_workers(), Ordering::SeqCst);
        self.inner.step(node, state, inbox, out);
    }

    fn bits(&self, msg: &Self::Msg) -> u32 {
        self.inner.bits(msg)
    }
}

#[test]
fn async_lane_never_leaks_threads() {
    let g = gen::grid(8, 8);
    let view = g.full_view();
    let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
    let observed = Observed {
        inner: &kernel,
        seen: AtomicUsize::new(0),
    };
    let engine = Engine::new(CostModel::congest_for(g.n()));
    assert_eq!(live_workers(), 0, "no async run has started yet");
    for i in 0..40 {
        // Alternate clean completions, watchdog failures, and faulted
        // runs — every exit path must drop its workers — each on one
        // shard and on several.
        let workers = 1 + i % 4;
        let cfg = match i % 3 {
            0 => AsyncConfig::default(),
            1 => AsyncConfig::default().with_max_pulses(1),
            _ => AsyncConfig::new(Adversary::new(i as u64).with_drop_rate(0.5).with_crashes(2)),
        }
        .with_workers(workers);
        observed.seen.store(0, Ordering::SeqCst);
        let _ = run_async(&engine, &view, &observed, &cfg);
        let seen = observed.seen.load(Ordering::SeqCst);
        if workers == 1 {
            assert_eq!(seen, 0, "run {i}: one shard runs inline, without workers");
        } else {
            assert!(seen >= 1, "run {i}: the count sees the workers it guards");
        }
        assert_eq!(live_workers(), 0, "run {i} returned with a worker alive");
    }
}
