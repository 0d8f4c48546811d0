//! Cancellation never corrupts session state: after any `Cancelled`
//! decompose, the same request without a deadline — on the SAME pooled
//! session — produces a decomposition bit-identical to a fresh engine's
//! run, and bit-identical to the library's direct entry point.

use proptest::prelude::*;
use sdnd_core::registry::find_decompose;
use sdnd_core::Params;
use sdnd_graph::Deadline;
use sdnd_serve::protocol::{classify_response, Request, ResponseKind};
use sdnd_serve::{ServeState, SharedCounters};
use std::sync::Arc;
use std::time::Duration;

fn state() -> ServeState {
    ServeState::new(4, Arc::new(SharedCounters::default()))
}

fn load(s: &mut ServeState, spec: &str) {
    let r = s.execute(
        &Request::Load {
            spec: spec.to_string(),
        },
        &Deadline::unarmed(),
    );
    assert!(r.starts_with("ok "), "{r}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arm a randomized (often-tripping) microsecond budget, let the
    /// decompose cancel wherever it happens to be in the pipeline, then
    /// rerun without a deadline and demand bit-identity with a session
    /// that never saw the cancellation.
    #[test]
    fn cancelled_decompose_leaves_session_bit_identical(
        n in 24usize..56,
        graph_seed in 0u64..40,
        improved in proptest::bool::ANY,
        budget_us in 0u64..1500,
    ) {
        let spec = format!("gnp:{n}:{graph_seed}");
        let algo = find_decompose(if improved { "thm3.4" } else { "thm2.3" }).unwrap();
        let req = Request::Decompose { algo, eps: 0.5, seed: 0 };

        // Session A: a possibly-cancelled attempt, then the real run.
        let mut a = state();
        load(&mut a, &spec);
        let first = a.execute(&req, &Deadline::within(Duration::from_micros(budget_us)));
        let first_kind = classify_response(&first);
        prop_assert!(
            matches!(first_kind, ResponseKind::Ok | ResponseKind::Cancelled),
            "unexpected frame: {first}"
        );
        let second = a.execute(&req, &Deadline::unarmed());
        prop_assert_eq!(classify_response(&second), ResponseKind::Ok, "{}", second);

        // Session B: fresh engine, no deadline ever armed.
        let mut b = state();
        load(&mut b, &spec);
        let fresh = b.execute(&req, &Deadline::unarmed());
        prop_assert_eq!(classify_response(&fresh), ResponseKind::Ok, "{}", fresh);

        let da = a.latest_decomposition().expect("session A holds a decomposition");
        let db = b.latest_decomposition().expect("session B holds a decomposition");
        prop_assert_eq!(da, db, "cancelled-then-retried vs fresh session");

        // And both match the library's direct (infallible) entry point.
        let g = sdnd_graph::gen::gnp_connected(n, 6.0 / n.max(7) as f64, graph_seed);
        let params = Params::default();
        let (direct, _) = if improved {
            sdnd_core::decompose_strong_improved(&g, &params)
        } else {
            sdnd_core::decompose_strong(&g, &params)
        };
        prop_assert_eq!(da, &direct, "serve session vs direct library call");

        // When the first attempt really cancelled, the session must have
        // recorded it (and only it).
        if first_kind == ResponseKind::Cancelled {
            prop_assert_eq!(a.stats().cancelled, 1);
        }
    }
}
