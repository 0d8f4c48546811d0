//! End-to-end integration tests: the full pipeline (graph → weak carving
//! → Theorem 2.1 transformation → LS93 reduction → decomposition →
//! application template) across every graph family and both paper
//! variants.

use sdnd::baselines::{Mpx13, SequentialGreedy};
use sdnd::core::{apply, decompose_strong, decompose_strong_improved, Params};
use sdnd::prelude::*;
use sdnd_clustering::validate_decomposition;
use sdnd_graph::gen;

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid", gen::grid(9, 9)),
        ("cycle", gen::cycle(72)),
        ("path", gen::path(80)),
        ("tree", gen::random_tree(80, 5)),
        ("gnp", gen::gnp_connected(80, 0.05, 5)),
        ("expander", gen::random_regular_connected(80, 4, 5).unwrap()),
        ("star", gen::star(60)),
        ("hypercube", gen::hypercube(6)),
    ]
}

#[test]
fn theorem23_end_to_end_on_all_families() {
    for (name, g) in families() {
        let (d, ledger) = decompose_strong(&g, &Params::default());
        let report = validate_decomposition(&g, &d);
        assert!(report.is_valid(), "{name}: {:?}", report.violations);
        assert!(
            ledger.complies_with(&CostModel::congest_for(g.n())),
            "{name}: message budget violated ({} bits)",
            ledger.max_message_bits()
        );
        // O(log n) colors with an explicit constant.
        let bound = 2.0 * (g.n() as f64).log2() + 2.0;
        assert!(
            (d.num_colors() as f64) <= bound,
            "{name}: {} colors exceed {bound}",
            d.num_colors()
        );
    }
}

#[test]
fn theorem34_end_to_end_on_all_families() {
    for (name, g) in families() {
        let (d, ledger) = decompose_strong_improved(&g, &Params::default());
        let report = validate_decomposition(&g, &d);
        assert!(report.is_valid(), "{name}: {:?}", report.violations);
        assert!(ledger.rounds() > 0, "{name}: free lunch");
    }
}

#[test]
fn decomposition_supports_the_template_everywhere() {
    for (name, g) in families() {
        let (d, _) = decompose_strong(&g, &Params::default());
        let mut ledger = RoundLedger::new();
        let mis = apply::mis_via_decomposition(&g, &d, &mut ledger);
        assert!(apply::is_mis(&g, &mis), "{name}: invalid MIS");
        let colors = apply::coloring_via_decomposition(&g, &d, &mut ledger);
        assert!(
            apply::is_proper_coloring(&g, &colors),
            "{name}: bad coloring"
        );
    }
}

#[test]
fn all_strong_carvers_agree_on_the_contract() {
    use sdnd_clustering::StrongCarver;
    let g = gen::grid(8, 8);
    let alive = NodeSet::full(g.n());
    let carvers: Vec<Box<dyn StrongCarver>> = vec![
        Box::new(Mpx13::new(3)),
        Box::new(SequentialGreedy::new()),
        Box::new(sdnd::core::Theorem22Carver::new(Params::default())),
        Box::new(sdnd::core::Theorem33Carver::new(Params::default())),
    ];
    for carver in carvers {
        let mut ledger = RoundLedger::new();
        let c = carver.carve_strong(&g, &alive, 0.5, &mut ledger);
        let report = sdnd_clustering::validate_carving(&g, &c);
        assert!(
            report.is_valid_strong(0.5),
            "{}: dead {:.3}, violations {:?}",
            carver.name(),
            report.dead_fraction,
            report.violations
        );
    }
}

#[test]
fn randomized_vs_deterministic_diameter_shape() {
    // Table 1 shape: on a high-diameter graph, the randomized MPX/EN16
    // diameter stays within the O(log n / eps) class — far below the
    // graph diameter — while both decompositions stay valid.
    let g = gen::cycle(512);
    let mut ledger = RoundLedger::new();
    let en16 = sdnd_clustering::decompose_with_strong_carver(&g, &Mpx13::new(9), 0.5, &mut ledger);
    let q = validate_decomposition(&g, &en16);
    let log_bound = 24.0 * (512f64).ln(); // generous constant on O(log n)
    assert!(
        (q.max_strong_diameter.unwrap() as f64) <= log_bound,
        "EN16 diameter {} exceeds O(log n) envelope {log_bound}",
        q.max_strong_diameter.unwrap()
    );
    assert!(q.is_valid());
}

#[test]
fn decompositions_partition_regardless_of_ids() {
    // Adversarial identifier assignment must not break anything.
    let g = gen::grid(7, 7);
    let ids: Vec<u64> = (0..49u64).map(|i| 48 - i + 1000).collect();
    let g = g.with_ids(ids).unwrap();
    let (d, _) = decompose_strong(&g, &Params::default());
    assert!(validate_decomposition(&g, &d).is_valid());
}

#[test]
fn disconnected_graphs_are_decomposed_per_component() {
    let mut b = Graph::builder(60);
    for i in 1..20 {
        b.edge(i - 1, i);
    }
    for i in 21..40 {
        b.edge(i - 1, i);
    }
    // Nodes 40..59 isolated.
    let g = b.build().unwrap();
    let (d, _) = decompose_strong(&g, &Params::default());
    let report = validate_decomposition(&g, &d);
    assert!(report.is_valid(), "{:?}", report.violations);
    // Isolated nodes become singleton clusters.
    assert!(d.num_clusters() >= 20);
}
