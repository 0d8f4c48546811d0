//! The Section 3 barrier: subdivided expanders where Lemma 3.1's
//! parameters are optimal.
//!
//! The construction: take a constant-degree expander on
//! `n' = O(eps n / log n)` nodes and subdivide every edge into a path of
//! length `log n / eps`. The resulting graph has conductance
//! `Theta(eps / log n)` — so there is no balanced sparse cut thinner
//! than `Omega(eps n / log n)` — and every subgraph with at least `n/3`
//! nodes has diameter `Omega(log^2 n / eps)` — so there is no large
//! component with better diameter. Running Lemma 3.1 on these graphs
//! therefore demonstrates empirically that neither outcome can beat its
//! stated bound, which is the paper's "barrier for further improvement".

use crate::sparse_cut::{cut_or_component_in, CutOrComponent};
use crate::Params;
use sdnd_clustering::{metrics, CarveCtx};
use sdnd_congest::RoundLedger;
use sdnd_graph::{gen, Graph, NodeId, NodeSet};

/// Measurements from one Lemma 3.1 run on a barrier graph.
#[derive(Debug, Clone)]
pub struct BarrierOutcome {
    /// Which case Lemma 3.1 returned.
    pub case: &'static str,
    /// `|removed| / n` — the middle layer (cut case) or boundary
    /// (component case).
    pub removed_fraction: f64,
    /// Exact strong diameter of the returned component, if that case.
    pub component_diameter: Option<u32>,
    /// Size of the returned component or smaller cut side, over `n`.
    pub part_fraction: f64,
    /// The `eps n / log n` reference scale for the removed fraction.
    pub sparse_scale: f64,
    /// The `log^2 n / eps` reference scale for the diameter.
    pub diameter_scale: f64,
    /// Rounds charged by the run.
    pub rounds: u64,
}

/// Builds the barrier graph for `(n_target, eps)` and runs Lemma 3.1 on
/// it, returning the measurements.
///
/// # Errors
///
/// Propagates construction failures for infeasible parameters.
pub fn run_barrier_experiment(
    n_target: usize,
    eps: f64,
    degree: usize,
    seed: u64,
    params: &Params,
) -> Result<BarrierOutcome, sdnd_graph::GraphError> {
    let bg = gen::barrier_graph(n_target, eps, degree, seed)?;
    Ok(measure_on(bg.graph(), eps, params))
}

/// Runs Lemma 3.1 on an arbitrary graph and reports the barrier-relevant
/// measurements.
pub fn measure_on(g: &Graph, eps: f64, params: &Params) -> BarrierOutcome {
    let n = g.n();
    let alive = NodeSet::full(n);
    let mut ledger = RoundLedger::new();
    let mut ctx = CarveCtx::new();
    let outcome = cut_or_component_in(g, &alive, eps, params, &mut ledger, &mut ctx)
        .expect("unarmed ctx never cancels");
    let nf = n as f64;
    let log2n = (nf.max(2.0)).log2();
    let (case, removed, part, diam) = match &outcome {
        CutOrComponent::SparseCut { v1, v2, middle } => {
            ("sparse-cut", middle.len(), v1.len().min(v2.len()), None)
        }
        CutOrComponent::Component { u, boundary } => {
            let members: Vec<NodeId> = u.iter().collect();
            (
                "component",
                boundary.len(),
                u.len(),
                metrics::strong_diameter_of_in(g, &members, &mut ctx),
            )
        }
    };
    BarrierOutcome {
        case,
        removed_fraction: removed as f64 / nf,
        component_diameter: diam,
        part_fraction: part as f64 / nf,
        sparse_scale: eps / log2n,
        diameter_scale: log2n * log2n / eps,
        rounds: ledger.rounds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_component_diameter_is_large() {
        // On the subdivided expander, if Lemma 3.1 returns a component it
        // must have diameter Omega(log^2 n / eps); if it returns a cut,
        // the middle cannot be asymptotically thinner than eps n / log n.
        let out = run_barrier_experiment(700, 0.5, 4, 3, &Params::default()).unwrap();
        assert!(
            out.part_fraction >= 0.3,
            "part too small: {}",
            out.part_fraction
        );
        match out.case {
            "component" => {
                let d = out.component_diameter.expect("connected component") as f64;
                // Within a constant of the log^2 n / eps scale from below.
                assert!(
                    d >= out.diameter_scale / 16.0,
                    "diameter {d} vs scale {}",
                    out.diameter_scale
                );
            }
            "sparse-cut" => {
                assert!(
                    out.removed_fraction >= out.sparse_scale / 64.0,
                    "cut {:.4} vs scale {:.4}",
                    out.removed_fraction,
                    out.sparse_scale
                );
            }
            other => panic!("unknown case {other}"),
        }
    }

    #[test]
    fn benign_graph_beats_barrier_scales() {
        // A long path is the anti-barrier: the cut is a single node,
        // far below the eps n / log n scale.
        let g = sdnd_graph::gen::path(400);
        let out = measure_on(&g, 0.5, &Params::default());
        assert_eq!(out.case, "sparse-cut");
        assert!(out.removed_fraction <= 0.01);
    }
}
