//! The application the paper's introduction motivates: using a network
//! decomposition to schedule a global computation — here, computing a
//! maximal independent set (MIS) color class by color class.
//!
//! "Per color, we process all clusters of this color at the same time.
//! Since the clusters of one color are not adjacent, they can be
//! processed simultaneously. Moreover, their small diameter facilitates
//! fast computation... the overall time is proportional to C · D."
//!
//! Run with: `cargo run --release --example mis_scheduling`

use sdnd::core::{apply, Params};
use sdnd::prelude::*;

fn main() {
    // A mid-sized random network.
    let g = sdnd::graph::gen::gnp_connected(400, 0.015, 7);
    println!(
        "network: {} nodes, {} edges, max degree {}",
        g.n(),
        g.m(),
        g.max_degree()
    );

    // Step 1: the strong-diameter decomposition (Theorem 2.3).
    let (decomp, decomp_ledger) = sdnd::core::decompose_strong(&g, &Params::default());
    let q = validate_decomposition(&g, &decomp);
    println!(
        "decomposition: C = {} colors, D = {} strong diameter, {} rounds",
        q.colors,
        q.max_strong_diameter.expect("connected clusters"),
        decomp_ledger.rounds()
    );

    // Step 2: solve MIS through the template. Clusters of one color run
    // simultaneously (the ledger's parallel merge models exactly that);
    // colors run sequentially.
    let mut mis_ledger = RoundLedger::new();
    let mis = apply::mis_via_decomposition(&g, &decomp, &mut mis_ledger);
    assert!(apply::is_mis(&g, &mis), "template produced an invalid MIS");
    println!(
        "MIS: {} nodes selected, {} template rounds (<= 2 * C * max cluster = {})",
        mis.len(),
        mis_ledger.rounds(),
        2 * q.colors as usize * decomp.max_cluster_size()
    );

    // Step 3: same template, different problem — (Δ+1)-coloring.
    let mut col_ledger = RoundLedger::new();
    let colors = apply::coloring_via_decomposition(&g, &decomp, &mut col_ledger);
    assert!(
        apply::is_proper_coloring(&g, &colors),
        "template produced an improper coloring"
    );
    let used = colors
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    println!(
        "(Δ+1)-coloring: {} colors used (budget {}), {} template rounds",
        used,
        g.max_degree() + 1,
        col_ledger.rounds()
    );
}
