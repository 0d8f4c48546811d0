//! Theorem-bound tests: measured parameters stay within
//! explicit-constant envelopes of the paper's statements on a fixed
//! corpus. These are the per-theorem "paper vs measured" checks recorded
//! in EXPERIMENTS.md.

use sdnd::core::{sparse_cut, transform, CarveCtx, Params};
use sdnd::prelude::*;
use sdnd::weak::Rg20;
use sdnd_clustering::{metrics, validate_carving, validate_weak_carving, StrongCarver};
use sdnd_graph::gen;

fn ln(n: usize) -> f64 {
    (n.max(2) as f64).ln()
}

/// Theorem 2.1 interface of the weak carver: depth R and congestion L
/// within polylog envelopes, dead fraction within eps.
#[test]
fn weak_carver_interface_bounds() {
    for (name, g) in [("grid", gen::grid(9, 9)), ("cycle", gen::cycle(96))] {
        let alive = NodeSet::full(g.n());
        let eps = 0.25;
        let mut ledger = RoundLedger::new();
        let wc = Rg20::ggr21().carve_weak(&g, &alive, eps, &mut ledger);
        let report = validate_weak_carving(&g, &wc);
        assert!(report.carving.is_valid_weak(eps), "{name}");
        // R <= c log^3 n / eps with c = 2 (the GGR21-style rebuild keeps
        // measured depth far below; this is the RG20-grade envelope).
        let r_bound = (2.0 * ln(g.n()).powi(3) / eps).ceil() as u32 + 4;
        assert!(
            report.max_depth.unwrap() <= r_bound,
            "{name}: R = {} vs {r_bound}",
            report.max_depth.unwrap()
        );
        // L <= c log n with c = 4.
        let l_bound = (4.0 * ln(g.n())).ceil() as u32 + 2;
        assert!(
            report.congestion <= l_bound,
            "{name}: L = {}",
            report.congestion
        );
    }
}

/// Theorem 2.1: output strong diameter <= 2 R(measured) + window.
#[test]
fn theorem21_diameter_formula() {
    let g = gen::cycle(128);
    let alive = NodeSet::full(g.n());
    let params = Params::default();
    let eps = 0.5;
    let carver = Rg20::ggr21();

    // Measure R at the inner eps the transformation will use.
    let mut scratch = RoundLedger::new();
    let wc = carver.carve_weak(&g, &alive, params.inner_eps(eps, g.n()), &mut scratch);
    let r = wc.forest().max_depth().unwrap();

    let mut ledger = RoundLedger::new();
    let out = transform::weak_to_strong_in(
        &g,
        &alive,
        eps,
        &carver,
        &params,
        &mut ledger,
        &mut CarveCtx::new(),
    )
    .expect("unarmed ctx never cancels");
    let report = validate_carving(&g, &out);
    assert!(report.is_valid_strong(eps));
    let bound = 2 * (r + params.growth_window(eps, g.n())) + 2;
    assert!(
        report.max_strong_diameter.unwrap() <= bound,
        "{} vs 2R + window = {bound}",
        report.max_strong_diameter.unwrap()
    );
}

/// Theorem 2.2 / 2.3 / 3.3 / 3.4 envelopes on the corpus.
#[test]
fn theorem_envelope_suite() {
    let corpus = [
        ("grid", gen::grid(8, 8)),
        ("gnp", gen::gnp_connected(72, 0.06, 3)),
        ("tree", gen::random_tree(72, 3)),
    ];
    let params = Params::default();
    for (name, g) in corpus {
        let n = g.n();
        let alive = NodeSet::full(n);

        // Thm 2.2: strong carving diameter within 4 log^3 n / eps.
        let mut l = RoundLedger::new();
        let c22 = sdnd::core::Theorem22Carver::new(params.clone());
        let out = c22.carve_strong(&g, &alive, 0.5, &mut l);
        let q = validate_carving(&g, &out);
        let bound22 = (8.0 * ln(n).powi(3)).ceil() as u32 + 8;
        assert!(
            q.max_strong_diameter.unwrap() <= bound22,
            "{name}: thm2.2 diameter {} vs {bound22}",
            q.max_strong_diameter.unwrap()
        );
        assert!(q.dead_fraction <= 0.5 + 1e-9, "{name}: thm2.2 eps budget");

        // Thm 2.3: colors within 2 log2 n + 2; diameter same class.
        let (d23, _) = sdnd::core::decompose_strong(&g, &params);
        assert!(
            (d23.num_colors() as f64) <= 2.0 * (n as f64).log2() + 2.0,
            "{name}: thm2.3 colors {}",
            d23.num_colors()
        );

        // Thm 3.3: diameter within 32 log^2 n / eps.
        let mut l = RoundLedger::new();
        let c33 = sdnd::core::Theorem33Carver::new(params.clone());
        let out = c33.carve_strong(&g, &alive, 0.5, &mut l);
        let q33 = validate_carving(&g, &out);
        let bound33 = (64.0 * ln(n).powi(2)).ceil() as u32 + 8;
        assert!(
            q33.max_strong_diameter.unwrap() <= bound33,
            "{name}: thm3.3 diameter {} vs {bound33}",
            q33.max_strong_diameter.unwrap()
        );

        // Thm 3.4: full decomposition valid with bounded colors.
        let (d34, _) = sdnd::core::decompose_strong_improved(&g, &params);
        assert!(
            (d34.num_colors() as f64) <= 2.0 * (n as f64).log2() + 2.0,
            "{name}: thm3.4 colors {}",
            d34.num_colors()
        );
    }
}

/// Lemma 3.1: outcome parameters within the stated scales.
#[test]
fn lemma31_bounds() {
    let params = Params::default();
    for (name, g, expect_cut) in [
        ("long-path", gen::path(512), true),
        ("complete", gen::complete(48), false),
    ] {
        let alive = NodeSet::full(g.n());
        let n = g.n();
        let eps = 0.5;
        let mut ledger = RoundLedger::new();
        let out = sparse_cut::cut_or_component_in(
            &g,
            &alive,
            eps,
            &params,
            &mut ledger,
            &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        match out {
            sparse_cut::CutOrComponent::SparseCut { v1, v2, middle } => {
                assert!(expect_cut, "{name}: unexpected cut");
                assert!(v1.len() >= n / 3 && v2.len() >= n / 3);
                let budget =
                    (params.cut_window_c * eps * n as f64 / (n as f64).log2()).ceil() as usize + 2;
                assert!(
                    middle.len() <= budget,
                    "{name}: middle {} vs O(eps n / log n) = {budget}",
                    middle.len()
                );
            }
            sparse_cut::CutOrComponent::Component { u, .. } => {
                assert!(!expect_cut, "{name}: unexpected component");
                assert!(u.len() >= n / 3);
                let members: Vec<NodeId> = u.iter().collect();
                let diam =
                    metrics::strong_diameter_of_in(&g, &members, &mut CarveCtx::new()).unwrap();
                let bound = (8.0 * ln(n).powi(2) / eps).ceil() as u32 + 4;
                assert!(diam <= bound, "{name}: diameter {diam} vs {bound}");
            }
        }
    }
}

/// The improvement chain is consistent: instantiating Theorem 2.1 with a
/// shallow weak carving yields strong clusters with diameter within
/// 2R + window of that carving's measured R (the black-box property that
/// makes the whole paper compose).
#[test]
fn black_box_composition_with_shallow_carver() {
    let g = gen::cycle(1024);
    let alive = NodeSet::full(g.n());
    let params = Params::default();
    let eps = 0.5;
    let shallow = sdnd::weak::Ls93::new(5);

    let mut ledger = RoundLedger::new();
    let out = transform::weak_to_strong_in(
        &g,
        &alive,
        eps,
        &shallow,
        &params,
        &mut ledger,
        &mut CarveCtx::new(),
    )
    .expect("unarmed ctx never cancels");
    let report = validate_carving(&g, &out);
    assert!(report.is_valid_strong(eps), "{:?}", report.violations);
    // LS93's radius cap bounds R; diameter <= 2 (R + window).
    let r_cap = sdnd::weak::Ls93::radius_cap(g.n(), params.inner_eps(eps, g.n()));
    let bound = 2 * (r_cap + params.growth_window(eps, g.n())) + 2;
    assert!(
        report.max_strong_diameter.unwrap() <= bound,
        "{} vs {bound}",
        report.max_strong_diameter.unwrap()
    );
    // Non-trivial chopping at this scale: more than one cluster.
    assert!(out.num_clusters() > 1, "expected non-trivial clustering");
}
