//! Experiment E2b — the **edge version** of Table 2 (paper, end of
//! Section 1.3: "all results in Table 2 ... also apply to the edge
//! version, where we remove at most an eps fraction of the edges").
//!
//! Rows: the randomized MPX13 edge carving, the deterministic RG20 edge
//! carving (weak), and the edge version of the Theorem 2.1
//! transformation (strong). Shape to check: every node is clustered,
//! cut fractions stay within `eps`, and the strong/weak and
//! deterministic/randomized relationships mirror the node version.
//!
//! Usage: `SDND_N=256 cargo run --release -p sdnd-bench --bin table2_edges`

use sdnd_baselines::Mpx13;
use sdnd_bench::{env_seed, env_usize, graph_suite, opt, Table};
use sdnd_clustering::{validate_edge_carving, CarveCtx, EdgeCarver, WeakEdgeCarver};
use sdnd_congest::RoundLedger;
use sdnd_core::{transform_edge, Params};
use sdnd_graph::NodeSet;
use sdnd_weak::Rg20Edge;

fn main() {
    let n = env_usize("SDND_N", 256);
    let seed = env_seed();
    let params = Params::default();
    let mut table = Table::new([
        "eps",
        "graph",
        "n",
        "m",
        "algorithm",
        "model",
        "class",
        "clusters",
        "strongD",
        "cut-frac",
        "rounds",
    ]);

    println!("# Table 2 (edge version) — edge ball carving in CONGEST (n ≈ {n})\n");

    for (name, g) in graph_suite(n, seed) {
        let alive = NodeSet::full(g.n());
        for eps in [0.5, 0.25] {
            eprintln!("running {name} at eps = {eps} ...");

            // Randomized strong row: MPX edge version.
            {
                let mut ledger = RoundLedger::new();
                let ec = Mpx13::new(seed).carve_edges(&g, &alive, eps, &mut ledger);
                let report = validate_edge_carving(&g, &ec);
                table.row([
                    format!("{eps}"),
                    name.clone(),
                    g.n().to_string(),
                    g.m().to_string(),
                    "mpx13-edge".into(),
                    "rand".into(),
                    "strong".into(),
                    ec.num_clusters().to_string(),
                    opt(report.max_strong_diameter),
                    format!("{:.3}", report.cut_fraction),
                    ledger.rounds().to_string(),
                ]);
            }
            // Deterministic weak row: RG20 edge version.
            {
                let mut ledger = RoundLedger::new();
                let wc = Rg20Edge::new().carve_weak_edges(&g, &alive, eps, &mut ledger);
                let report = validate_edge_carving(&g, wc.carving());
                table.row([
                    format!("{eps}"),
                    name.clone(),
                    g.n().to_string(),
                    g.m().to_string(),
                    "rg20-edge".into(),
                    "det".into(),
                    "weak".into(),
                    wc.carving().num_clusters().to_string(),
                    opt(report.max_strong_diameter),
                    format!("{:.3}", report.cut_fraction),
                    ledger.rounds().to_string(),
                ]);
            }
            // Deterministic strong row: Theorem 2.1, edge version.
            {
                let mut ledger = RoundLedger::new();
                let ec = transform_edge::weak_to_strong_edges_in(
                    &g,
                    &alive,
                    eps,
                    &Rg20Edge::new(),
                    &params,
                    &mut ledger,
                    &mut CarveCtx::new(),
                )
                .expect("unarmed ctx never cancels");
                let report = validate_edge_carving(&g, &ec);
                table.row([
                    format!("{eps}"),
                    name.clone(),
                    g.n().to_string(),
                    g.m().to_string(),
                    "cg21-thm2.1-edge".into(),
                    "det".into(),
                    "strong".into(),
                    ec.num_clusters().to_string(),
                    opt(report.max_strong_diameter),
                    format!("{:.3}", report.cut_fraction),
                    ledger.rounds().to_string(),
                ]);
            }
        }
    }

    println!("{}", table.to_markdown());
    println!(
        "\nExpected shape: every row clusters all n nodes; cut fractions stay within eps;\n\
         strong rows report a diameter while the weak row may not; the deterministic strong\n\
         row pays polylog-factor more rounds than the randomized one — as in the node version."
    );
    let _ = table.write_csv("table2_edges.csv");
}
