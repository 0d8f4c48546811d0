//! Experiment E7 — the Section 1.1 application template.
//!
//! Network decomposition exists to schedule distributed computation:
//! process colors one at a time, clusters of one color in parallel, for
//! a total cost proportional to `C · D`. This binary solves MIS and
//! (Δ+1)-coloring on top of the paper's decomposition (Theorem 2.3) and
//! the randomized EN16 decomposition, and reports the measured template
//! rounds against the `C · D` product.
//!
//! Usage: `cargo run --release -p sdnd-bench --bin applications`

use sdnd_bench::{env_seed, env_usize, graph_suite, opt, Table};
use sdnd_clustering::{decompose_with_strong_carver, validate_decomposition};
use sdnd_congest::RoundLedger;
use sdnd_core::{apply, Params};

fn main() {
    let seed = env_seed();
    let n = env_usize("SDND_N", 256);
    let mut table = Table::new([
        "graph",
        "decomposition",
        "colors C",
        "max strong D",
        "C*(D+1)",
        "MIS rounds",
        "coloring rounds",
        "MIS valid",
        "coloring valid",
    ]);

    println!("# Applications via the decomposition template (n ≈ {n})\n");

    for (name, g) in graph_suite(n, seed) {
        eprintln!("running {name} ...");
        let decomps = vec![
            (
                "cg21-thm2.3",
                sdnd_core::decompose_strong(&g, &Params::default()).0,
            ),
            ("mpx13/en16", {
                let mut l = RoundLedger::new();
                let mpx = sdnd_baselines::Mpx13::new(seed);
                decompose_with_strong_carver(&g, &mpx, 0.5, &mut l)
            }),
        ];
        for (dname, d) in decomps {
            let q = validate_decomposition(&g, &d);
            let mut mis_ledger = RoundLedger::new();
            let mis = apply::mis_via_decomposition(&g, &d, &mut mis_ledger);
            let mut col_ledger = RoundLedger::new();
            let colors = apply::coloring_via_decomposition(&g, &d, &mut col_ledger);
            table.row([
                name.clone(),
                dname.to_string(),
                q.colors.to_string(),
                opt(q.max_strong_diameter),
                opt(q.cd_product()),
                mis_ledger.rounds().to_string(),
                col_ledger.rounds().to_string(),
                if apply::is_mis(&g, &mis) {
                    "yes".into()
                } else {
                    "NO".to_string()
                },
                if apply::is_proper_coloring(&g, &colors) {
                    "yes".into()
                } else {
                    "NO".to_string()
                },
            ]);
        }
    }

    println!("{}", table.to_markdown());
    println!(
        "\nExpected shape: both validity columns all-yes; template rounds track the C*(D+1)\n\
         product (the token sweep is linear in cluster size, so rounds <= 2 C * max cluster)."
    );
    let _ = table.write_csv("applications.csv");
}
