//! Timing wrappers around the carving stack's public black-box traits.
//!
//! The traced run rebuilds Theorems 2.3 and 3.4 exactly as
//! `Theorem22Carver` and `Theorem33Carver` compose them, but from parts
//! that time each layer from the outside: a [`TimedWeak`] around
//! `Params::weak_carver()` is handed to `weak_to_strong_in` (Thm 2.1),
//! a [`TimedThm22`] built on it is handed to `improve_diameter_in`
//! (Thm 3.2) or straight to the LS93 reduction. Each wrapper adds its
//! wall clock and the ledger charges made inside its calls (nested
//! layers included) to a [`Span`]; self times are differences of spans.

use sdnd_clustering::{
    decompose_with_strong_carver_in, BallCarving, Cancelled, CarveCtx, NetworkDecomposition,
    StrongCarver, WeakCarver, WeakCarving,
};
use sdnd_congest::RoundLedger;
use sdnd_core::{
    decompose_strong_improved_with_in, decompose_strong_with_in, improve, transform, Params,
};
use sdnd_graph::{Graph, NodeSet};
use sdnd_weak::Rg20;
use std::cell::Cell;
use std::time::Instant;

/// The two decompositions the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Theorem 2.3: Thm 2.2 carvings under the LS93 reduction.
    Thm23,
    /// Theorem 3.4: Thm 3.3 (= Thm 3.2 over Thm 2.2) under LS93.
    Thm34,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Thm23 => "thm2.3",
            Algo::Thm34 => "thm3.4",
        }
    }
}

/// Calls, wall clock and ledger charges accumulated by one wrapper.
#[derive(Debug, Default)]
pub struct Span {
    pub calls: Cell<u64>,
    pub nanos: Cell<u64>,
    pub rounds: Cell<u64>,
    pub messages: Cell<u64>,
}

impl Span {
    fn record<T>(&self, ledger: &mut RoundLedger, call: impl FnOnce(&mut RoundLedger) -> T) -> T {
        let (rounds, messages) = (ledger.rounds(), ledger.messages());
        let start = Instant::now();
        let out = call(ledger);
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls.set(self.calls.get() + 1);
        self.nanos.set(self.nanos.get() + nanos);
        self.rounds
            .set(self.rounds.get() + (ledger.rounds() - rounds));
        self.messages
            .set(self.messages.get() + (ledger.messages() - messages));
        out
    }

    pub fn ms(&self) -> f64 {
        self.nanos.get() as f64 / 1e6
    }
}

/// One span per layer of a traced decomposition.
#[derive(Debug, Default)]
pub struct LayerSpans {
    /// RG20/GGR21 weak carvings.
    pub weak: Span,
    /// Theorem 2.1 transform calls (weak carvings inside).
    pub transform: Span,
    /// Theorem 3.2 improvement calls (transform calls inside).
    pub improve: Span,
    /// The whole LS93 reduction (every carving inside).
    pub reduction: Span,
}

/// The weak carver with every call timed into a [`Span`].
pub struct TimedWeak<'s> {
    inner: Rg20,
    span: &'s Span,
}

impl WeakCarver for TimedWeak<'_> {
    fn carve_weak(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> WeakCarving {
        self.span
            .record(ledger, |l| self.inner.carve_weak(g, alive, eps, l))
    }

    fn carve_weak_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<WeakCarving, Cancelled> {
        self.span
            .record(ledger, |l| self.inner.carve_weak_in(g, alive, eps, l, ctx))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Theorem 2.2 as `Theorem22Carver` composes it, over [`TimedWeak`].
pub struct TimedThm22<'s> {
    params: Params,
    weak: TimedWeak<'s>,
    span: &'s Span,
}

impl StrongCarver for TimedThm22<'_> {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        self.carve_strong_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn carve_strong_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<BallCarving, Cancelled> {
        self.span.record(ledger, |l| {
            transform::weak_to_strong_in(g, alive, eps, &self.weak, &self.params, l, ctx)
        })
    }

    fn name(&self) -> &'static str {
        "cg21-thm2.2"
    }
}

/// Theorem 3.3 as `Theorem33Carver` composes it, over [`TimedThm22`].
pub struct TimedThm33<'s> {
    a1: TimedThm22<'s>,
    span: &'s Span,
}

impl StrongCarver for TimedThm33<'_> {
    fn carve_strong(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
    ) -> BallCarving {
        self.carve_strong_in(g, alive, eps, ledger, &mut CarveCtx::new())
            .expect("unarmed ctx never cancels")
    }

    fn carve_strong_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<BallCarving, Cancelled> {
        let params = &self.a1.params;
        self.span.record(ledger, |l| {
            improve::improve_diameter_in(g, alive, eps, &self.a1, params, l, ctx)
        })
    }

    fn name(&self) -> &'static str {
        "cg21-thm3.3"
    }
}

/// The library's own entry point for `algo`.
pub fn decompose(
    g: &Graph,
    algo: Algo,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
) -> Result<NetworkDecomposition, Cancelled> {
    match algo {
        Algo::Thm23 => decompose_strong_with_in(g, params, ledger, ctx),
        Algo::Thm34 => decompose_strong_improved_with_in(g, params, ledger, ctx),
    }
}

/// `algo` rebuilt from timed parts; must match [`decompose`] bit for bit.
pub fn decompose_traced(
    g: &Graph,
    algo: Algo,
    params: &Params,
    ledger: &mut RoundLedger,
    ctx: &mut CarveCtx,
    spans: &LayerSpans,
) -> Result<NetworkDecomposition, Cancelled> {
    let thm22 = TimedThm22 {
        params: params.clone(),
        weak: TimedWeak {
            inner: params.weak_carver(),
            span: &spans.weak,
        },
        span: &spans.transform,
    };
    match algo {
        Algo::Thm23 => spans.reduction.record(ledger, |l| {
            decompose_with_strong_carver_in(g, &thm22, 0.5, l, ctx)
        }),
        Algo::Thm34 => {
            let thm33 = TimedThm33 {
                a1: thm22,
                span: &spans.improve,
            };
            spans.reduction.record(ledger, |l| {
                decompose_with_strong_carver_in(g, &thm33, 0.5, l, ctx)
            })
        }
    }
}

/// Per-op layer totals of traced decompositions, as self times.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub ops: u64,
    pub weak_ms: f64,
    pub weak_calls: u64,
    pub weak_rounds: u64,
    pub weak_messages: u64,
    pub transform_ms: f64,
    pub transform_calls: u64,
    pub transform_rounds: u64,
    pub improve_ms: f64,
    pub improve_calls: u64,
    pub improve_rounds: u64,
    pub reduction_ms: f64,
    pub reduction_carvings: u64,
}

impl LayerTotals {
    /// Folds the spans of one traced decomposition of `algo`.
    pub fn add(&mut self, algo: Algo, s: &LayerSpans) {
        // The carver the reduction called directly.
        let top = match algo {
            Algo::Thm23 => &s.transform,
            Algo::Thm34 => &s.improve,
        };
        self.ops += 1;
        self.weak_ms += s.weak.ms();
        self.weak_calls += s.weak.calls.get();
        self.weak_rounds += s.weak.rounds.get();
        self.weak_messages += s.weak.messages.get();
        self.transform_ms += s.transform.ms() - s.weak.ms();
        self.transform_calls += s.transform.calls.get();
        self.transform_rounds += s.transform.rounds.get();
        if algo == Algo::Thm34 {
            self.improve_ms += s.improve.ms() - s.transform.ms();
        }
        self.improve_calls += s.improve.calls.get();
        self.improve_rounds += s.improve.rounds.get();
        self.reduction_ms += s.reduction.ms() - top.ms();
        self.reduction_carvings += top.calls.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_graph::gen;

    #[test]
    fn timed_composition_is_transparent() {
        let params = Params::default();
        for g in [gen::grid(12, 12), gen::cycle(96)] {
            for algo in [Algo::Thm23, Algo::Thm34] {
                let mut ctx = CarveCtx::new();
                let mut plain_ledger = RoundLedger::new();
                let plain = decompose(&g, algo, &params, &mut plain_ledger, &mut ctx).unwrap();
                let spans = LayerSpans::default();
                let mut traced_ledger = RoundLedger::new();
                let traced =
                    decompose_traced(&g, algo, &params, &mut traced_ledger, &mut ctx, &spans)
                        .unwrap();
                assert_eq!(traced, plain, "{}: decomposition", algo.name());
                assert_eq!(traced_ledger, plain_ledger, "{}: ledger", algo.name());
                assert!(spans.weak.calls.get() > 0);
                assert_eq!(spans.reduction.calls.get(), 1);
                assert_eq!(spans.reduction.rounds.get(), plain_ledger.rounds());
                assert_eq!(spans.improve.calls.get() > 0, algo == Algo::Thm34);
            }
        }
    }

    #[test]
    fn totals_split_self_time() {
        let params = Params::default();
        let g = gen::grid(10, 10);
        let spans = LayerSpans::default();
        let mut ledger = RoundLedger::new();
        decompose_traced(
            &g,
            Algo::Thm34,
            &params,
            &mut ledger,
            &mut CarveCtx::new(),
            &spans,
        )
        .unwrap();
        let mut t = LayerTotals::default();
        t.add(Algo::Thm34, &spans);
        let parts = t.weak_ms + t.transform_ms + t.improve_ms + t.reduction_ms;
        assert!(
            (parts - spans.reduction.ms()).abs() < 1e-6,
            "self times sum to the whole"
        );
        assert_eq!(t.reduction_carvings, spans.improve.calls.get());
        assert_eq!(t.reduction_carvings as u32, {
            let mut l = RoundLedger::new();
            decompose(&g, Algo::Thm34, &params, &mut l, &mut CarveCtx::new())
                .unwrap()
                .num_colors()
        });
    }
}
