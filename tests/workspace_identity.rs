//! Bit-identity of the workspace-threaded carving pipeline.
//!
//! The `_in` entry points reuse one [`CarveCtx`] across arbitrarily many
//! runs; these tests pin the contract: clusters, colors, dead sets, and
//! every `RoundLedger` charge are **bit-identical** to a fresh context
//! (`&mut CarveCtx::new()`, or the `carve_strong` trait method and the
//! `decompose_strong{,_improved}` and `validate_*` wrappers, which make
//! one), across theorem paths, metrics, weights, and eps values — and a
//! context that survives a panicking carve stays safely reusable.

use proptest::prelude::*;
use sdnd::clustering::{
    metrics, validate_carving, validate_carving_in, validate_decomposition,
    validate_decomposition_in, BallCarving, Cancelled, CarveCtx, StrongCarver,
};
use sdnd::congest::RoundLedger;
use sdnd::core::{sparse_cut, Params, Theorem22Carver, Theorem33Carver};
use sdnd::prelude::*;
use sdnd_graph::algo::WeightedOracle;
use sdnd_graph::gen;

fn unweighted(n: usize, seed: u64) -> Graph {
    gen::gnp_connected(n, 0.09, seed)
}

fn weighted(n: usize, seed: u64) -> Graph {
    gen::reweight(
        &unweighted(n, seed),
        gen::WeightDist::UniformInt { lo: 1, hi: 8 },
        seed,
    )
    .expect("valid weights")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: N back-to-back decompositions (Theorem 2.2
    /// and 3.3 carvings plus the Theorem 2.3/3.4 reductions, weighted and
    /// unweighted, mixed eps) on ONE shared workspace produce clusters,
    /// colors, and ledgers identical to fresh-allocation runs.
    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh(
        seeds in prop::collection::vec((20usize..44, 0u64..50, 0usize..4), 3..6),
    ) {
        let params = Params::default();
        let mut ctx = CarveCtx::new();
        for (n, seed, mode) in seeds {
            let g = if mode % 2 == 0 { unweighted(n, seed) } else { weighted(n, seed) };
            let alive = NodeSet::full(g.n());
            let eps = [0.5, 0.3][mode / 2];

            // Theorem 2.2 carving.
            let mut lf = RoundLedger::new();
            let fresh = Theorem22Carver::new(params.clone())
                .carve_strong(&g, &alive, eps, &mut lf);
            let mut lw = RoundLedger::new();
            let shared = Theorem22Carver::new(params.clone())
                .carve_strong_in(&g, &alive, eps, &mut lw, &mut ctx)
                .expect("unarmed ctx never cancels");
            prop_assert_eq!(fresh.clusters(), shared.clusters(), "thm2.2 clusters");
            prop_assert_eq!(fresh.dead(), shared.dead(), "thm2.2 dead set");
            prop_assert_eq!(lf, lw, "thm2.2 ledger");

            // Theorem 3.3 carving on the same warm workspace.
            let mut lf = RoundLedger::new();
            let fresh = Theorem33Carver::new(params.clone())
                .carve_strong(&g, &alive, eps, &mut lf);
            let mut lw = RoundLedger::new();
            let shared = Theorem33Carver::new(params.clone())
                .carve_strong_in(&g, &alive, eps, &mut lw, &mut ctx)
                .expect("unarmed ctx never cancels");
            prop_assert_eq!(fresh.clusters(), shared.clusters(), "thm3.3 clusters");
            prop_assert_eq!(lf, lw, "thm3.3 ledger");

            // Theorem 2.3 / 3.4 reductions.
            let (fresh, lf) = sdnd::core::decompose_strong(&g, &params);
            let mut lw = RoundLedger::new();
            let shared = sdnd::core::decompose_strong_with_in(&g, &params, &mut lw, &mut ctx)
                .expect("unarmed ctx never cancels");
            prop_assert_eq!(&fresh, &shared, "thm2.3 decomposition");
            prop_assert_eq!(lf, lw, "thm2.3 ledger");

            let (fresh, lf) = sdnd::core::decompose_strong_improved(&g, &params);
            let mut lw = RoundLedger::new();
            let shared =
                sdnd::core::decompose_strong_improved_with_in(&g, &params, &mut lw, &mut ctx)
                    .expect("unarmed ctx never cancels");
            prop_assert_eq!(&fresh, &shared, "thm3.4 decomposition");
            prop_assert_eq!(lf, lw, "thm3.4 ledger");
        }
    }

    /// Lemma 3.1 through a shared workspace: outcome sets and ledger
    /// charges equal the fresh path, run after run.
    #[test]
    fn cut_or_component_shared_ctx_matches_fresh(
        seeds in prop::collection::vec((12usize..40, 0u64..60), 3..7),
    ) {
        let params = Params::default();
        let mut ctx = CarveCtx::new();
        for (n, seed) in seeds {
            let g = unweighted(n, seed);
            let alive = NodeSet::full(g.n());
            let mut lf = RoundLedger::new();
            let fresh = sparse_cut::cut_or_component_in(
                &g, &alive, 0.5, &params, &mut lf, &mut CarveCtx::new(),
            )
            .expect("unarmed ctx never cancels");
            let mut lw = RoundLedger::new();
            let shared =
                sparse_cut::cut_or_component_in(&g, &alive, 0.5, &params, &mut lw, &mut ctx)
                    .expect("unarmed ctx never cancels");
            prop_assert_eq!(lf, lw, "cut ledger");
            match (&fresh, &shared) {
                (
                    sparse_cut::CutOrComponent::SparseCut { v1, v2, middle },
                    sparse_cut::CutOrComponent::SparseCut { v1: w1, v2: w2, middle: wm },
                ) => {
                    prop_assert_eq!(v1, w1);
                    prop_assert_eq!(v2, w2);
                    prop_assert_eq!(middle, wm);
                }
                (
                    sparse_cut::CutOrComponent::Component { u, boundary },
                    sparse_cut::CutOrComponent::Component { u: wu, boundary: wb },
                ) => {
                    prop_assert_eq!(u, wu);
                    prop_assert_eq!(boundary, wb);
                }
                _ => prop_assert!(false, "outcome variants differ"),
            }
        }
    }

    /// Metrics and validators through a shared workspace (including the
    /// early-terminating weak-diameter sweeps) report the same values as
    /// the fresh path, on connected and disconnected member sets.
    #[test]
    fn metrics_and_validators_match_fresh(
        n in 14usize..40,
        seed in 0u64..60,
        weighted_mode in proptest::bool::ANY,
    ) {
        let g = if weighted_mode { weighted(n, seed) } else { unweighted(n, seed) };
        let mut ctx = CarveCtx::new();

        // A connected prefix and a scattered (likely disconnected) set.
        let prefix: Vec<NodeId> = (0..n / 2).map(NodeId::new).collect();
        let scattered: Vec<NodeId> = (0..n).step_by(3).map(NodeId::new).collect();
        let w = &WeightedOracle;
        for members in [&prefix, &scattered] {
            prop_assert_eq!(
                metrics::strong_diameter_of_in(&g, members, &mut CarveCtx::new()),
                metrics::strong_diameter_of_in(&g, members, &mut ctx)
            );
            prop_assert_eq!(
                metrics::weak_diameter_of_in(&g, members, &mut CarveCtx::new()),
                metrics::weak_diameter_of_in(&g, members, &mut ctx)
            );
            prop_assert_eq!(
                metrics::strong_diameter_of_with_in(&g, members, w, &mut CarveCtx::new()),
                metrics::strong_diameter_of_with_in(&g, members, w, &mut ctx)
            );
            prop_assert_eq!(
                metrics::weak_diameter_of_with_in(&g, members, w, &mut CarveCtx::new()),
                metrics::weak_diameter_of_with_in(&g, members, w, &mut ctx)
            );
        }

        // Full validation report over a real carving, fresh vs shared.
        let mut ledger = RoundLedger::new();
        let carving = Theorem22Carver::default()
            .carve_strong(&g, &NodeSet::full(g.n()), 0.5, &mut ledger);
        let fresh = validate_carving(&g, &carving);
        let shared =
            validate_carving_in(&g, &carving, &mut ctx).expect("unarmed ctx never cancels");
        prop_assert_eq!(format!("{fresh:?}"), format!("{shared:?}"), "carving report");

        let (d, _) = sdnd::core::decompose_strong(&g, &Params::default());
        let fresh = validate_decomposition(&g, &d);
        let shared =
            validate_decomposition_in(&g, &d, &mut ctx).expect("unarmed ctx never cancels");
        prop_assert_eq!(format!("{fresh:?}"), format!("{shared:?}"), "decomposition report");
    }
}

/// A carver that drives the real pipeline machinery through the shared
/// context and then panics mid-carve — simulating an unwind out of the
/// middle of a traversal-heavy phase.
struct PanickyCarver;

impl StrongCarver for PanickyCarver {
    fn carve_strong(
        &self,
        _g: &Graph,
        alive: &NodeSet,
        _eps: f64,
        _ledger: &mut RoundLedger,
    ) -> BallCarving {
        BallCarving::new(alive.clone(), vec![]).expect("empty carving")
    }

    fn carve_strong_in(
        &self,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<BallCarving, Cancelled> {
        // Exercise the workspace for real, then unwind with scratch and
        // pooled sets in a half-used state.
        let _ = sparse_cut::cut_or_component_in(g, alive, eps, &Params::default(), ledger, ctx);
        let _held = ctx.ws.take_set(g.n()); // deliberately never given back
        panic!("carve aborted mid-flight");
    }

    fn name(&self) -> &'static str {
        "panicky"
    }
}

#[test]
fn workspace_survives_a_panicking_carve() {
    let g = gen::gnp_connected(36, 0.1, 7);
    let alive = NodeSet::full(g.n());
    let mut ctx = CarveCtx::new();

    // Warm the workspace, then panic out of a carve that used it.
    let mut ledger = RoundLedger::new();
    let _ = Theorem22Carver::default().carve_strong_in(&g, &alive, 0.5, &mut ledger, &mut ctx);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ledger = RoundLedger::new();
        PanickyCarver.carve_strong_in(&g, &alive, 0.5, &mut ledger, &mut ctx)
    }));
    assert!(result.is_err(), "the carver must have panicked");

    // The surviving context must still produce bit-identical output: the
    // next traversal epoch invalidates all partially written state.
    let mut lf = RoundLedger::new();
    let fresh = Theorem22Carver::default().carve_strong(&g, &alive, 0.5, &mut lf);
    let mut lw = RoundLedger::new();
    let reused = Theorem22Carver::default()
        .carve_strong_in(&g, &alive, 0.5, &mut lw, &mut ctx)
        .expect("unarmed ctx never cancels");
    assert_eq!(fresh.clusters(), reused.clusters());
    assert_eq!(fresh.dead(), reused.dead());
    assert_eq!(lf, lw, "ledger after panic recovery");

    let report = validate_carving_in(&g, &reused, &mut ctx).expect("unarmed ctx never cancels");
    assert!(report.is_valid_strong(0.5), "{:?}", report.violations);
}

#[test]
fn one_context_across_many_graphs_and_universes() {
    // Universe sizes shrink and grow between runs; the workspace must
    // retarget without leaking state across graphs.
    let params = Params::default();
    let mut ctx = CarveCtx::new();
    for (n, seed) in [(40usize, 1u64), (9, 2), (64, 3), (17, 4), (33, 5)] {
        let g = unweighted(n, seed);
        let alive = NodeSet::full(g.n());
        let mut lf = RoundLedger::new();
        let fresh = Theorem33Carver::new(params.clone()).carve_strong(&g, &alive, 0.5, &mut lf);
        let mut lw = RoundLedger::new();
        let shared = Theorem33Carver::new(params.clone())
            .carve_strong_in(&g, &alive, 0.5, &mut lw, &mut ctx)
            .expect("unarmed ctx never cancels");
        assert_eq!(fresh.clusters(), shared.clusters(), "n={n}");
        assert_eq!(lf, lw, "n={n}");
    }
}
