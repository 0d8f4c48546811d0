//! Experiment E3 — round-complexity scaling against the theorem
//! formulae.
//!
//! Sweeps `n` (at fixed `eps`) and `eps` (at fixed `n`) for the paper's
//! own algorithms and fits the polylog exponent `k` in
//! `rounds ~ (log n)^k` by regressing `ln rounds` on `ln ln n`. The
//! paper's statements put Thm 2.2 at `log^7`, Thm 2.3 at `log^8`,
//! Thm 3.3 at `log^10`, Thm 3.4 at `log^11` — worst-case bounds; the
//! measured exponents land well below, but the orderings
//! (2.2 < 2.3 < 3.3 < 3.4) and the `1/eps^2` trend must hold. The
//! sequential baseline is included to show a *non*-polylog row: its
//! fitted exponent keeps growing with `n` (linear rounds).
//!
//! Usage: `cargo run --release -p sdnd_bench --bin scaling`
//!
//! The engine no longer bounds simulation size (ROADMAP), so the sweep
//! extends an order of magnitude past the original 1024 cap: `SDND_N >=
//! 4096` adds a 4096-node grid, `SDND_N >= 10404` a ~10k one.
//! `SDND_BENCH_QUICK=1` truncates to the two smallest bins so the CI
//! smoke run stays fast.

use sdnd_bench::{env_seed, env_usize, ls_slope, Table};
use sdnd_clustering::CarveCtx;
use sdnd_congest::RoundLedger;
use sdnd_core::registry::{self, Algorithm};
use sdnd_graph::{gen, Graph, NodeSet};

/// The rounds one carving (or, with `decompose`, one LS93 reduction)
/// of `g` charges at `eps`.
fn rounds(
    algo: &Algorithm,
    decompose: bool,
    g: &Graph,
    eps: f64,
    seed: u64,
    ctx: &mut CarveCtx,
) -> u64 {
    let mut ledger = RoundLedger::new();
    if decompose {
        algo.decompose_in(seed, g, &mut ledger, ctx).map(drop)
    } else {
        let alive = NodeSet::full(g.n());
        algo.carve_in(seed, g, &alive, eps, &mut ledger, ctx)
            .map(drop)
    }
    .expect("unarmed ctx never cancels");
    ledger.rounds()
}

fn main() {
    let seed = env_seed();
    let quick = std::env::var("SDND_BENCH_QUICK").is_ok_and(|v| v == "1");
    let n_max = env_usize("SDND_N", 1024);

    // --- Sweep n at eps = 1/2 (grids: deterministic, structured). ---
    let mut ns: Vec<usize> = vec![64, 144, 256, 484];
    for bin in [1024, 4096, 10404] {
        if n_max >= bin {
            ns.push(bin);
        }
    }
    if quick {
        // CI smoke: the two smallest bins keep the sweep fast, plus the
        // largest requested bin (if any beyond them) so the big `SDND_N`
        // bins compile-and-run on every push.
        let largest = *ns.last().expect("nonempty bins");
        ns.truncate(2);
        if largest > *ns.last().expect("nonempty bins") {
            ns.push(largest);
        }
    }
    let mut table = Table::new(["algorithm", "n", "rounds", "rounds/dominant-term"]);
    let mut series: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();

    // Registry carve names; `true` runs the LS93 reduction over them.
    let runs = [
        ("thm2.2", false),
        ("thm2.2", true),
        ("thm3.3", false),
        ("thm3.3", true),
        ("sequential", true),
    ];

    println!("# Scaling in n (grids, eps = 1/2)\n");
    for (carver, decompose) in runs {
        let algo = registry::find_carve(carver).expect("registered");
        let name = if decompose {
            format!("{}-decompose", algo.decompose_label)
        } else {
            format!("{}-carve", algo.label)
        };
        // One warm context per row, held across its bins.
        let mut ctx = CarveCtx::new();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &n in &ns {
            let side = (n as f64).sqrt().round() as usize;
            let g = gen::grid(side, side);
            let rounds = rounds(algo, decompose, &g, 0.5, seed, &mut ctx);
            let logn = (g.n() as f64).ln();
            table.row([
                name.clone(),
                g.n().to_string(),
                rounds.to_string(),
                format!("{:.2}", rounds as f64 / logn.powi(3)),
            ]);
            xs.push(logn.ln());
            ys.push((rounds.max(1) as f64).ln());
            eprintln!("{name} n={} rounds={rounds}", g.n());
        }
        series.push((name, xs, ys));
    }
    println!("{}", table.to_markdown());

    let mut fit = Table::new(["algorithm", "fitted polylog exponent k (rounds ~ log^k n)"]);
    for (name, xs, ys) in &series {
        fit.row([name.clone(), format!("{:.2}", ls_slope(xs, ys))]);
    }
    println!("\n## Polylog exponent fits\n\n{}", fit.to_markdown());
    println!(
        "(paper worst-case exponents: thm2.2 = 7, thm2.3 = 8, thm3.3 = 10, thm3.4 = 11;\n\
         the sequential baseline is *not* polylog — its fit degrades as n grows)"
    );

    // --- Sweep eps at fixed n. ---
    let side = 16;
    let g = gen::grid(side, side);
    let mut eps_table = Table::new(["algorithm", "eps", "rounds", "rounds*eps^2"]);
    let mut ctx = CarveCtx::new();
    for eps in [0.5, 0.25, 0.125] {
        for carver in ["thm2.2", "thm3.3"] {
            let algo = registry::find_carve(carver).expect("registered");
            let r = rounds(algo, false, &g, eps, seed, &mut ctx);
            eps_table.row([
                format!("{}-carve", algo.label),
                format!("{eps}"),
                r.to_string(),
                format!("{:.1}", r as f64 * eps * eps),
            ]);
        }
    }
    println!(
        "\n# Scaling in eps (grid {side}x{side})\n\n{}",
        eps_table.to_markdown()
    );

    let _ = table.write_csv("scaling_n.csv");
    let _ = eps_table.write_csv("scaling_eps.csv");
}
