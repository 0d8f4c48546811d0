//! Quickstart: compute a strong-diameter network decomposition of a
//! network and inspect its guarantees.
//!
//! Run with: `cargo run --release --example quickstart`

use sdnd::prelude::*;

fn main() {
    // The network: a 16x16 grid of 256 processors.
    let g = sdnd::graph::gen::grid(16, 16);
    println!("network: {} nodes, {} edges", g.n(), g.m());

    // Theorem 2.3: deterministic strong-diameter network decomposition
    // with O(log n) colors and O(log^3 n) cluster diameter, computed in
    // the CONGEST model (O(log n)-bit messages).
    let params = Params::default();
    let (decomp, ledger) = sdnd::core::decompose_strong(&g, &params);

    // Validate every promise the definition makes.
    let report = validate_decomposition(&g, &decomp);
    assert!(report.is_valid(), "violations: {:?}", report.violations);

    println!("colors (C):                {}", report.colors);
    println!("clusters:                  {}", decomp.num_clusters());
    println!(
        "max strong diameter (D):   {}",
        report.max_strong_diameter.expect("clusters are connected")
    );
    println!(
        "C * (D + 1) template cost: {}",
        report.cd_product().expect("strong diameter defined")
    );
    println!("simulated CONGEST rounds:  {}", ledger.rounds());
    println!(
        "largest message:           {} bits",
        ledger.max_message_bits()
    );

    // The whole point of small messages: the run fits the CONGEST budget.
    let budget = CostModel::congest_for(g.n());
    assert!(
        ledger.complies_with(&budget),
        "decomposition exceeded the CONGEST budget"
    );
    println!(
        "CONGEST budget B(n):       {} bits — compliant",
        budget.bits_per_message()
    );

    // Every node knows its cluster and color:
    let v = NodeId::new(0);
    println!(
        "node {v}: cluster {:?}, color {:?}",
        decomp.cluster_of(v).map(|c| c.0),
        decomp.color_of(v)
    );
}
