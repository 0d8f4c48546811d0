//! Every entry of the algorithm registry keeps its class's contract,
//! under both verbs, on a grid, a gnp graph and its U[1,8]-weighted
//! copy — and the daemon answers each name with the direct call's
//! result. (The CLI side lives in `src/bin/sdnd.rs`'s tests, labels and
//! name uniqueness in the registry's own.)

use sdnd::clustering::{validate_carving, validate_decomposition, CarveCtx, Deadline};
use sdnd::congest::RoundLedger;
use sdnd::core::registry::{Class, ALGORITHMS};
use sdnd::core::Params;
use sdnd::graph::{gen, Graph, NodeSet};
use sdnd::serve::{parse_request, ServeState, SharedCounters, CARVE_SEED};
use std::sync::Arc;

const SEED: u64 = 7;

/// The carvings below that overshoot the `eps = 0.5` dead budget. LS93
/// and MPX13 bound each node's death probability, so the budget holds
/// only in expectation, and single 64-node carvings at seed 7 exceed
/// it (dead fractions 0.64 for ls93, 0.62–0.80 for mpx13). Pinned
/// exactly: a new overshoot, or a fix, changes this list.
const OVER_BUDGET: &[(&str, &str)] = &[
    ("ls93", "gnp-64"),
    ("ls93", "gnp-64-w1..8"),
    ("mpx13", "grid-8x8"),
    ("mpx13", "gnp-64"),
    ("mpx13", "gnp-64-w1..8"),
];

/// The three inputs, with the daemon spec that loads the same graph
/// (the weighted copy has none).
fn inputs() -> Vec<(&'static str, Graph, Option<&'static str>)> {
    let gnp = gen::gnp_connected(64, 6.0 / 64.0, 1);
    let weighted = gen::reweight(&gnp, gen::WeightDist::UniformInt { lo: 1, hi: 8 }, 1)
        .expect("valid weight distribution");
    vec![
        ("grid-8x8", gen::grid(8, 8), Some("grid:8x8")),
        ("gnp-64", gnp, Some("gnp:64:1")),
        ("gnp-64-w1..8", weighted, None),
    ]
}

#[test]
fn every_entry_keeps_its_contract_through_every_consumer() {
    let mut ctx = CarveCtx::new();
    let mut over_budget = Vec::new();
    for algo in &ALGORITHMS {
        for (graph, g, spec) in inputs() {
            let alive = NodeSet::full(g.n());
            let mut ledger = RoundLedger::new();
            let c = algo
                .carve_in(SEED, &g, &alive, 0.5, &mut ledger, &mut ctx)
                .expect("unarmed ctx never cancels");
            let report = validate_carving(&g, &c);
            let valid = match algo.class {
                Class::Strong => report.is_valid_strong(0.5),
                Class::Weak => report.is_valid_weak(0.5),
            };
            if !valid {
                // Only the dead budget may fail, and only where pinned.
                let connected = algo.class == Class::Weak || report.clusters_connected;
                assert!(
                    report.clusters_nonadjacent && connected,
                    "{algo:?} carve on {graph}: {:?}",
                    report.violations
                );
                over_budget.push((algo.carve_name, graph));
            }

            let mut ledger = RoundLedger::new();
            let d = algo
                .decompose_in(SEED, &g, &mut ledger, &mut ctx)
                .expect("unarmed ctx never cancels");
            let report = validate_decomposition(&g, &d);
            let valid = match algo.class {
                Class::Strong => report.is_valid(),
                Class::Weak => report.is_valid_weak(),
            };
            assert!(
                valid,
                "{algo:?} decompose on {graph}: {:?}",
                report.violations
            );
            let color_bound = 2 * Params::log2n(g.n()) + 2;
            assert!(
                d.num_colors() <= color_bound,
                "{algo:?} decompose on {graph}: {} colors > {color_bound}",
                d.num_colors()
            );

            let Some(spec) = spec else { continue };
            let mut s = ServeState::new(4, Arc::new(SharedCounters::default()));
            let mut ask = |line: String| {
                let req = parse_request(&line).expect("registry names parse");
                s.execute(&req, &Deadline::unarmed())
            };
            assert!(ask(format!("load {spec}")).starts_with("ok graph="));
            let frame = ask(format!("decompose {} 0.5 {SEED}", algo.decompose_name));
            assert!(frame.starts_with("ok decomposition"), "{frame}");
            assert_eq!(
                s.latest_decomposition(),
                Some(&d),
                "{algo:?} serve decompose"
            );

            let mut ledger = RoundLedger::new();
            let direct = algo
                .carve_in(CARVE_SEED, &g, &alive, 0.5, &mut ledger, &mut ctx)
                .expect("unarmed ctx never cancels");
            let frame = s.execute(
                &parse_request(&format!("carve {} 0.5", algo.carve_name)).expect("parses"),
                &Deadline::unarmed(),
            );
            let want = format!(
                "ok carving algo={} eps=0.5 clusters={} dead-fraction={:.4} ms=",
                algo.carve_name,
                direct.num_clusters(),
                direct.dead_fraction()
            );
            assert!(frame.starts_with(&want), "{frame} vs {want}");
        }
    }
    assert_eq!(
        over_budget, OVER_BUDGET,
        "carvings over the eps = 0.5 dead budget"
    );
}
