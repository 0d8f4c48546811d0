//! Experiment E2w — the **weighted** experiment bins: ball carving and
//! network decomposition on weighted graphs, the setting of the
//! strongest related results (Elkin–Neiman 1602.05437, Filtser
//! 1906.09783), which benchmark on weighted instances.
//!
//! The suite graphs carry seeded uniform integer weights in `[1, 8]`.
//! Every algorithm runs on the weighted instance; the CG21 strong rows
//! (`thm2.2`, `thm2.3`) grow their Case II balls in the *weighted*
//! metric (Dijkstra oracle, `W`-step radius growth), while the
//! topology-driven baselines ignore the weights. Reported per row:
//! both hop and weighted diameters, rounds, and CONGEST compliance —
//! shape to check: hop diameters match the unweighted table's class,
//! weighted diameters sit between `hopD` and `hopD · W_max`, and the
//! weighted rows keep `O(log nW)`-bit messages.
//!
//! Results land in `table2_weighted.csv`, `table1_weighted.csv`, and —
//! for the repo baseline — `BENCH_weighted.json` (root, or
//! `$SDND_BENCH_JSON`).
//!
//! Usage: `SDND_N=256 cargo run --release -p sdnd_bench --bin table2_weighted`
//! (`SDND_BENCH_QUICK=1` shrinks the instances for the CI smoke run.)

use sdnd_bench::{
    env_seed, env_usize, measurement_cells, measurement_headers, run_table1_row_set,
    run_table2_row_set, weighted_graph_suite, Measurement, Table,
};
use std::fmt::Write as _;

fn json_row(kind: &str, graph: &str, n: usize, eps: Option<f64>, m: &Measurement) -> String {
    let fmt_opt_u32 = |v: Option<u32>| v.map_or("null".into(), |x| x.to_string());
    let fmt_opt_f64 = |v: Option<f64>| v.map_or("null".into(), |x| format!("{x:.3}"));
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{ \"kind\": \"{kind}\", \"graph\": \"{graph}\", \"n\": {n}, ",
    );
    if let Some(eps) = eps {
        let _ = write!(s, "\"eps\": {eps}, ");
    }
    let _ = write!(
        s,
        "\"algorithm\": \"{}\", \"class\": \"{}\", \"hop_strong_d\": {}, \"weighted_strong_d\": {}, \"weighted_weak_d\": {}, \"rounds\": {}, \"max_msg_bits\": {}, \"congest_ok\": {} }}",
        m.algorithm,
        m.class,
        fmt_opt_u32(m.strong_diameter),
        fmt_opt_f64(m.weighted_strong_diameter),
        fmt_opt_f64(m.weighted_weak_diameter),
        m.rounds,
        m.max_message_bits,
        m.congest_ok,
    );
    s
}

fn main() {
    let quick = std::env::var("SDND_BENCH_QUICK").is_ok_and(|v| v == "1");
    let n = if quick { 64 } else { env_usize("SDND_N", 256) };
    let seed = env_seed();
    let eps_sweep: &[f64] = if quick { &[0.5] } else { &[0.5, 0.25] };

    println!("# Weighted experiment bins — carving and decomposition on weighted graphs (n ≈ {n}, weights U[1,8])\n");
    println!("Related-work reference (weighted, strong diameter):");
    println!("  EN16    rand : strong D = O(log n · w-radius), T = O(log^2 n)");
    println!("  Filtser rand : strong-diameter padded decompositions, D = O(t · log n)");
    println!("  CG21 here    : hop guarantees per the paper; weighted balls grown in W-steps\n");

    let suite = weighted_graph_suite(n, seed);
    let mut json_rows: Vec<String> = Vec::new();

    // Carving sweep (Table 2 shape).
    let mut carve_table = Table::new({
        let mut h = vec!["eps"];
        h.extend(measurement_headers());
        h
    });
    for (name, g) in &suite {
        for &eps in eps_sweep {
            eprintln!("carving {name} at eps = {eps} ...");
            for m in run_table2_row_set(g, eps, seed) {
                let mut cells = vec![format!("{eps}")];
                cells.extend(measurement_cells(name, g.n(), &m));
                carve_table.row(cells);
                if m.algorithm.starts_with("cg21") || m.algorithm == "mpx13" {
                    json_rows.push(json_row("carve", name, g.n(), Some(eps), &m));
                }
            }
        }
    }
    println!("## Weighted ball carving\n\n{}", carve_table.to_markdown());
    match carve_table.write_csv("table2_weighted.csv") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv export failed: {e}"),
    }

    // Decomposition rows (Table 1 shape).
    let mut decomp_table = Table::new(measurement_headers());
    for (name, g) in &suite {
        eprintln!("decomposing {name} ...");
        for m in run_table1_row_set(g, seed) {
            decomp_table.row(measurement_cells(name, g.n(), &m));
            if m.algorithm.starts_with("cg21") || m.algorithm == "mpx13/en16" {
                json_rows.push(json_row("decompose", name, g.n(), None, &m));
            }
        }
    }
    println!(
        "\n## Weighted decomposition\n\n{}",
        decomp_table.to_markdown()
    );
    match decomp_table.write_csv("table1_weighted.csv") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv export failed: {e}"),
    }

    // Baseline JSON (skipped in quick mode: the smoke run's tiny
    // instances must not overwrite the recorded baseline).
    if !quick {
        let path =
            std::env::var("SDND_BENCH_JSON").unwrap_or_else(|_| "BENCH_weighted.json".to_string());
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"weighted-bins\",\n");
        out.push_str(
            "  \"source\": \"crates/bench/src/bin/table2_weighted.rs (SDND_N=256 cargo run --release -p sdnd_bench --bin table2_weighted); suite graphs re-weighted with seeded uniform integer weights in [1,8]\",\n",
        );
        out.push_str("  \"metric_note\": \"hop_strong_d is the paper's metric; weighted_*_d are exact Dijkstra-oracle diameters of the same clusters. cg21 rows grow Case II balls in the weighted metric (W-step growth); mpx13/en16 baselines are topology-driven\",\n");
        let _ = writeln!(out, "  \"n\": {n},\n  \"seed\": {seed},");
        out.push_str("  \"rows\": [\n");
        out.push_str(&json_rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        match std::fs::write(&path, out) {
            Ok(()) => println!("json baseline: {path}"),
            Err(e) => eprintln!("json export failed: {e}"),
        }
    }
}
