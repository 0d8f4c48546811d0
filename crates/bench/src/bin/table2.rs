//! Experiment E2 — reproduces **Table 2** of the paper: ball carving in
//! the CONGEST model, across a boundary-parameter sweep.
//!
//! Shape to check: every carver respects its `eps` budget; strong rows
//! report a strong diameter while weak rows may not (disconnected
//! clusters); diameters grow as `~1/eps`; the deterministic strong rows
//! (`cg21-thm2.2`, `cg21-thm3.3`) sit one to two `log n` factors above
//! the randomized `mpx13` row, exactly as in the paper's table.
//!
//! Usage: `SDND_N=256 cargo run --release -p sdnd-bench --bin table2`

use sdnd_bench::{
    env_seed, env_usize, graph_suite, measurement_cells, measurement_headers, run_table2_row_set,
    Table,
};

fn main() {
    let n = env_usize("SDND_N", 256);
    let seed = env_seed();
    let mut table = Table::new({
        let mut h = vec!["eps"];
        h.extend(measurement_headers());
        h
    });

    println!("# Table 2 reproduction — ball carving in CONGEST (n ≈ {n})\n");
    println!("Paper reference rows:");
    println!("  weak   rand  LS93        : D = O(log n / eps),   T = O(log n / eps)");
    println!("  weak   det   RG20        : D = O(log^3 n / eps), T = O(log^6 n / eps^2)");
    println!("  weak   det   GGR21       : D = O(log^2 n / eps), T = O(log^4 n / eps^2)");
    println!("  strong rand  MPX13       : D = O(log n / eps),   T = O(log n / eps)");
    println!("  strong det   CG21 Thm2.2 : D = O(log^3 n / eps), T = O(log^7 n / eps^2)");
    println!("  strong det   CG21 Thm3.3 : D = O(log^2 n / eps), T = O(log^10 n / eps^2)\n");

    for (name, g) in graph_suite(n, seed) {
        for eps in [0.5, 0.25, 0.125] {
            eprintln!("running {name} at eps = {eps} ...");
            for m in run_table2_row_set(&g, eps, seed) {
                let mut cells = vec![format!("{eps}")];
                cells.extend(measurement_cells(&name, g.n(), &m));
                table.row(cells);
            }
        }
    }

    println!("{}", table.to_markdown());
    match table.write_csv("table2.csv") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv export failed: {e}"),
    }
}
