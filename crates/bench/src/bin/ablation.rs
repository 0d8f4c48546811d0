//! Experiment E6 — ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Theorem 3.2 on/off**: diameter and rounds of Thm 2.2 vs Thm 3.3
//!    (the improvement trades a polylog round factor for a `log n`
//!    diameter factor).
//! 2. **Inner boundary `eps' = eps/(2 log n)` vs naive `eps' = eps/2`**
//!    in Theorem 2.1: the naive choice blows the dead budget across the
//!    `log n` iterations.
//! 3. **Giant-cluster growth window constant**: the `O(log n / eps)`
//!    radius window of Case II.
//! 4. **GGR21 tree rebuilding on/off** inside the weak carver: measured
//!    Steiner depth `R` and congestion `L`.
//!
//! Usage: `cargo run --release -p sdnd-bench --bin ablation`

use sdnd_bench::{env_seed, env_usize, opt, Table};
use sdnd_clustering::{
    validate_carving, validate_weak_carving, CarveCtx, StrongCarver, WeakCarver,
};
use sdnd_congest::RoundLedger;
use sdnd_core::{transform, Params, Theorem22Carver, Theorem33Carver};
use sdnd_graph::{gen, NodeSet};
use sdnd_weak::Rg20;

fn main() {
    let seed = env_seed();
    let n = env_usize("SDND_N", 256);
    let side = (n as f64).sqrt().round() as usize;
    let g = gen::grid(side, side);
    let alive = NodeSet::full(g.n());
    let eps = 0.5;

    println!("# Ablations (grid-{side}x{side}, eps = {eps})\n");

    // (1) Improvement on/off.
    let mut t1 = Table::new(["variant", "strong diameter", "rounds"]);
    for (name, carver) in [
        (
            "thm2.2 (no improvement)",
            Box::new(Theorem22Carver::new(Params::default())) as Box<dyn StrongCarver>,
        ),
        (
            "thm3.3 (with thm3.2 improvement)",
            Box::new(Theorem33Carver::new(Params::default())),
        ),
    ] {
        let mut ledger = RoundLedger::new();
        let c = carver.carve_strong(&g, &alive, eps, &mut ledger);
        let q = validate_carving(&g, &c);
        t1.row([
            name.to_string(),
            opt(q.max_strong_diameter),
            ledger.rounds().to_string(),
        ]);
    }
    println!(
        "## 1. Theorem 3.2 improvement on/off\n\n{}",
        t1.to_markdown()
    );

    // (2) Inner eps' choice in Theorem 2.1.
    let mut t2 = Table::new(["inner eps'", "dead fraction", "within eps budget"]);
    for (name, divisor) in [("eps/(2 log n) [paper]", 2.0), ("eps/2 [naive]", f64::NAN)] {
        let params = if divisor.is_nan() {
            // Naive: no log n division — emulate by a divisor that
            // cancels the log factor.
            Params {
                inner_eps_divisor: 2.0 / Params::log2n(g.n()) as f64,
                ..Params::default()
            }
        } else {
            Params::default()
        };
        let weak = params.weak_carver();
        let mut ledger = RoundLedger::new();
        let out = transform::weak_to_strong_in(
            &g,
            &alive,
            eps,
            &weak,
            &params,
            &mut ledger,
            &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        t2.row([
            name.to_string(),
            format!("{:.3}", out.dead_fraction()),
            if out.dead_fraction() <= eps + 1e-9 {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    println!(
        "## 2. Theorem 2.1 inner boundary eps'\n\n{}",
        t2.to_markdown()
    );
    println!("(the naive eps' spends the whole budget in the first iterations; the paper's choice provisions for all log n of them)\n");

    // (3) Growth window constant.
    let mut t3 = Table::new([
        "growth window c",
        "strong diameter",
        "dead fraction",
        "rounds",
    ]);
    for c in [1.0, 2.0, 4.0, 8.0] {
        let params = Params {
            growth_window_c: c,
            ..Params::default()
        };
        let carver = Theorem22Carver::new(params);
        let mut ledger = RoundLedger::new();
        let out = carver.carve_strong(&g, &alive, eps, &mut ledger);
        let q = validate_carving(&g, &out);
        t3.row([
            format!("{c}"),
            opt(q.max_strong_diameter),
            format!("{:.3}", q.dead_fraction),
            ledger.rounds().to_string(),
        ]);
    }
    println!(
        "## 3. Case II radius-growth window constant\n\n{}",
        t3.to_markdown()
    );

    // (4) GGR21 tree rebuilding.
    let mut t4 = Table::new(["weak carver", "steiner depth R", "congestion L", "rounds"]);
    for (name, carver) in [
        ("rg20 (incremental trees)", Rg20::rg20()),
        ("ggr21 (rebuilt trees)", Rg20::ggr21()),
    ] {
        let mut ledger = RoundLedger::new();
        let wc = carver.carve_weak(&g, &alive, eps / 8.0, &mut ledger);
        let report = validate_weak_carving(&g, &wc);
        t4.row([
            name.to_string(),
            opt(report.max_depth),
            report.congestion.to_string(),
            ledger.rounds().to_string(),
        ]);
    }
    println!(
        "## 4. Weak-carver Steiner tree maintenance\n\n{}",
        t4.to_markdown()
    );

    // (5) Black-box instantiation of Theorem 2.1: the transformation's
    // output tracks the measured depth R of whatever weak carving it is
    // given. On a high-diameter cycle the shallow LS93 black box yields
    // non-trivial chopping where the deep RG20 trees cannot.
    let cyc = gen::cycle(1024);
    let cyc_alive = NodeSet::full(cyc.n());
    let mut t5 = Table::new([
        "black box A",
        "measured R",
        "clusters",
        "strong diameter",
        "dead",
    ]);
    {
        let params = Params::default();
        let shallow = sdnd_weak::Ls93::new(5);
        let mut scratch = RoundLedger::new();
        let wc = WeakCarver::carve_weak(
            &shallow,
            &cyc,
            &cyc_alive,
            params.inner_eps(eps, cyc.n()),
            &mut scratch,
        );
        let r_meas = wc.forest().max_depth().unwrap();
        let mut ledger = RoundLedger::new();
        let out = transform::weak_to_strong_in(
            &cyc,
            &cyc_alive,
            eps,
            &shallow,
            &params,
            &mut ledger,
            &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        let q = validate_carving(&cyc, &out);
        t5.row([
            "ls93 (shallow, rand)".to_string(),
            r_meas.to_string(),
            out.num_clusters().to_string(),
            opt(q.max_strong_diameter),
            format!("{:.3}", q.dead_fraction),
        ]);

        let deep = Rg20::ggr21();
        let mut scratch = RoundLedger::new();
        let wc = WeakCarver::carve_weak(
            &deep,
            &cyc,
            &cyc_alive,
            params.inner_eps(eps, cyc.n()),
            &mut scratch,
        );
        let r_meas = wc.forest().max_depth().unwrap();
        let mut ledger = RoundLedger::new();
        let out = transform::weak_to_strong_in(
            &cyc,
            &cyc_alive,
            eps,
            &deep,
            &params,
            &mut ledger,
            &mut CarveCtx::new(),
        )
        .expect("unarmed ctx never cancels");
        let q = validate_carving(&cyc, &out);
        t5.row([
            "ggr21 (deep, det)".to_string(),
            r_meas.to_string(),
            out.num_clusters().to_string(),
            opt(q.max_strong_diameter),
            format!("{:.3}", q.dead_fraction),
        ]);
    }
    println!(
        "## 5. Theorem 2.1 black-box instantiation (cycle-1024)\n\n{}",
        t5.to_markdown()
    );
    println!("(output diameter tracks 2R + O(log n/eps) of the supplied black box)\n");

    let _ = t5.write_csv("ablation_blackbox.csv");
    let _ = t1.write_csv("ablation_improvement.csv");
    let _ = t2.write_csv("ablation_inner_eps.csv");
    let _ = t3.write_csv("ablation_window.csv");
    let _ = t4.write_csv("ablation_trees.csv");
    let _ = seed;
}
