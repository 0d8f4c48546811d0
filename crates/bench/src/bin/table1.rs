//! Experiment E1 — reproduces **Table 1** of the paper: network
//! decomposition in the CONGEST model.
//!
//! For every algorithm row of the paper's table (plus the ABCP96 LOCAL
//! transformation and the sequential existential baseline) we measure,
//! on each suite graph: colors, exact strong/weak cluster diameter,
//! simulated rounds, and the largest message. The *shape* to check
//! against the paper: randomized rows achieve `O(log n)` diameters;
//! deterministic weak rows pay `log^2..3 n`; our deterministic strong
//! rows (`cg21-thm2.3`, `cg21-thm3.4`) match the weak rows' diameter
//! class while keeping messages CONGEST-sized, unlike `abcp96-local`.
//!
//! Usage: `SDND_N=256 cargo run --release -p sdnd-bench --bin table1`

use sdnd_bench::{
    env_seed, env_usize, graph_suite, measurement_cells, measurement_headers, run_table1_row_set,
    Table,
};

fn main() {
    let n = env_usize("SDND_N", 256);
    let seed = env_seed();
    let mut table = Table::new(measurement_headers());

    println!("# Table 1 reproduction — network decomposition in CONGEST (n ≈ {n})\n");
    println!("Paper reference rows:");
    println!("  weak   rand  LS93        : C = O(log n), D = O(log n),   T = O(log^2 n)");
    println!("  weak   det   RG20        : C = O(log n), D = O(log^3 n), T = O(log^7 n)");
    println!("  weak   det   GGR21       : C = O(log n), D = O(log^2 n), T = O(log^5 n)");
    println!("  strong rand  MPX13/EN16  : C = O(log n), D = O(log n),   T = O(log^2 n)");
    println!("  strong det   CG21 Thm2.3 : C = O(log n), D = O(log^3 n), T = O(log^8 n)");
    println!("  strong det   CG21 Thm3.4 : C = O(log n), D = O(log^2 n), T = O(log^11 n)\n");

    for (name, g) in graph_suite(n, seed) {
        eprintln!("running {name} (n = {}, m = {}) ...", g.n(), g.m());
        for m in run_table1_row_set(&g, seed) {
            table.row(measurement_cells(&name, g.n(), &m));
        }
    }

    println!("{}", table.to_markdown());
    match table.write_csv("table1.csv") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv export failed: {e}"),
    }
}
