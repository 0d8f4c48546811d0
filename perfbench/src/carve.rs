//! `carve-grid` and `validate-flat`: cold decompositions, each followed
//! by validation, on one warm `CarveCtx` with a fresh `RoundLedger`.
//!
//! Every op is checked against the library's own output for its input
//! (computed in set-up), so a traced op also proves that the timed
//! composition is the program the untraced op runs.

use crate::calib::{self, Probe};
use crate::trace::{decompose, decompose_traced, Algo, LayerSpans, LayerTotals};
use crate::{color_bound, drive, Outcome, Quality, SETUP_REPS};
use sdnd_clustering::{
    validate_decomposition_approx_in, validate_decomposition_in, CarveCtx, NetworkDecomposition,
};
use sdnd_congest::RoundLedger;
use sdnd_core::Params;
use sdnd_graph::algo::HyperBallParams;
use sdnd_graph::gen::{self, WeightDist};
use sdnd_graph::Graph;
use std::time::Instant;

/// Named graphs, each with the decompositions to run on it.
type Inputs = Vec<(String, Graph, Vec<Algo>)>;

/// Geometric radius for mean degree `deg` on `n` uniform points.
fn geometric_radius(n: usize, deg: f64) -> f64 {
    (deg / (std::f64::consts::PI * n as f64)).sqrt()
}

/// The reported tail percentile: ops are slow enough that p99 would need
/// minutes of samples.
const TAIL_PCT: usize = 90;

/// carve-grid runs its two grid cases before each geometric one, so a
/// cycle is one third each of grid Theorem 2.3, grid Theorem 3.4 and
/// geometric ops. The grid is the same for every seed, and its two modes
/// hold the p50 and p90 ranks, so neither moves with the seeded
/// instances.
const GRID_PINNED: usize = 2;

/// One cycle of ops as indices into the cases: the first `pinned` cases
/// run before each of the others.
fn schedule(cases: usize, pinned: usize) -> Vec<usize> {
    (pinned..cases)
        .flat_map(|k| (0..pinned).chain([k]))
        .collect()
}

/// Instances per random family: each run averages over several
/// seeded graphs, so one unlucky instance moves its figures less.
const INSTANCES: u64 = 3;

/// The seed of instance `j` of a run seeded `seed`.
fn instance_seed(seed: u64, j: u64) -> u64 {
    seed ^ (j + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// High-diameter inputs: grid-102x102 under both decompositions, and
/// unweighted geometric graphs (mean degree 12) under Theorem 2.3. Some
/// geometric instances take twice as long as others, so they are kept
/// small enough to stay the fastest ops (see [`GRID_PINNED`]).
fn carve_grid_inputs(seed: u64) -> Inputs {
    let n = 5_000;
    let mut out = vec![(
        "grid-102x102".to_string(),
        gen::grid(102, 102),
        vec![Algo::Thm23, Algo::Thm34],
    )];
    for j in 0..INSTANCES {
        let geo = gen::random_geometric(n, geometric_radius(n, 12.0), instance_seed(seed, j))
            .expect("valid geometric parameters");
        out.push((format!("geometric-{n}#{j}"), geo, vec![Algo::Thm23]));
    }
    out
}

/// Flat-diameter inputs (gnp, 4-regular expander) and U[1,8]-weighted
/// geometric graphs (mean degree 20), Theorem 2.3 only.
fn validate_flat_inputs(seed: u64) -> Inputs {
    let (n_gnp, n_exp, n_wgeo) = (2_000, 2_000, 600);
    let mut out = Vec::new();
    for j in 0..INSTANCES {
        let s = instance_seed(seed, j);
        let gnp = gen::gnp_connected(n_gnp, 8.0 / n_gnp as f64, s);
        let exp = gen::random_regular_connected(n_exp, 4, s).expect("expander generates");
        let geo = gen::random_geometric(n_wgeo, geometric_radius(n_wgeo, 20.0), s)
            .expect("valid geometric parameters");
        let wgeo =
            gen::reweight(&geo, WeightDist::UniformInt { lo: 1, hi: 8 }, s).expect("valid weights");
        out.push((format!("gnp-{n_gnp}#{j}"), gnp, vec![Algo::Thm23]));
        out.push((format!("expander-{n_exp}#{j}"), exp, vec![Algo::Thm23]));
        out.push((
            format!("geometric-w8-{n_wgeo}#{j}"),
            wgeo,
            vec![Algo::Thm23],
        ));
    }
    out
}

/// One (graph, algorithm) pair with the library's reference output.
struct Case {
    label: String,
    graph: usize,
    algo: Algo,
    reference: NetworkDecomposition,
    ledger: RoundLedger,
}

struct Bench {
    graphs: Vec<Graph>,
    cases: Vec<Case>,
    /// One cycle of ops, as indices into `cases`.
    schedule: Vec<usize>,
    ctx: CarveCtx,
    params: Params,
    approx: bool,
    quality: Quality,
    totals: LayerTotals,
    exact_ms: f64,
    approx_ms: f64,
    /// Ops whose charged rounds differ from the set-up reference.
    round_drift: u64,
}

impl Bench {
    /// Generates the inputs, computes each reference on a fresh ctx that
    /// the timed ops then keep using, and validates each reference once
    /// (the warm-up).
    fn setup(inputs: Inputs, approx: bool, pinned: usize) -> Bench {
        let params = Params::default();
        let mut ctx = CarveCtx::new();
        let mut graphs = Vec::new();
        let mut cases = Vec::new();
        for (name, g, algos) in inputs {
            for algo in algos {
                let mut ledger = RoundLedger::new();
                let reference = decompose(&g, algo, &params, &mut ledger, &mut ctx)
                    .expect("unarmed ctx never cancels");
                validate_decomposition_in(&g, &reference, &mut ctx).expect("unarmed ctx");
                if approx {
                    validate_decomposition_approx_in(
                        &g,
                        &reference,
                        HyperBallParams::default(),
                        &mut ctx,
                    )
                    .expect("unarmed ctx");
                }
                cases.push(Case {
                    label: format!("{} on {name}", algo.name()),
                    graph: graphs.len(),
                    algo,
                    reference,
                    ledger,
                });
            }
            graphs.push(g);
        }
        Bench {
            graphs,
            schedule: schedule(cases.len(), pinned),
            cases,
            ctx,
            params,
            approx,
            quality: Quality::default(),
            totals: LayerTotals::default(),
            exact_ms: 0.0,
            approx_ms: 0.0,
            round_drift: 0,
        }
    }

    fn op(&mut self, i: usize, traced: bool) -> Result<(), String> {
        let case = &self.cases[self.schedule[i % self.schedule.len()]];
        let g = &self.graphs[case.graph];
        let mode = if traced { "traced" } else { "untraced" };
        let fail = |what: String| format!("{} ({mode}): {what}", case.label);

        let mut ledger = RoundLedger::new();
        let d = if traced {
            let spans = LayerSpans::default();
            let d = decompose_traced(
                g,
                case.algo,
                &self.params,
                &mut ledger,
                &mut self.ctx,
                &spans,
            );
            self.totals.add(case.algo, &spans);
            d
        } else {
            decompose(g, case.algo, &self.params, &mut ledger, &mut self.ctx)
        }
        .expect("unarmed ctx never cancels");
        if d != case.reference {
            return Err(fail(
                "clusters or colours differ from the library's output".into(),
            ));
        }
        // Rounds are compared apart: the RG20 tree rebuild raises its
        // congestion high-water mark in hash-map order, so the library
        // itself charges a few rounds more or less from call to call.
        let traffic = |l: &RoundLedger| (l.messages(), l.total_bits(), l.max_message_bits());
        if traffic(&ledger) != traffic(&case.ledger) {
            return Err(fail(format!(
                "ledger {ledger:?} differs from the library's {:?}",
                case.ledger
            )));
        }
        self.round_drift += u64::from(ledger.rounds() != case.ledger.rounds());
        self.quality
            .charge(ledger.rounds(), ledger.max_message_bits());

        let t = Instant::now();
        let exact = validate_decomposition_in(g, &d, &mut self.ctx).expect("unarmed ctx");
        if traced {
            self.exact_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        if !exact.is_valid() {
            return Err(fail(format!("exact validator: {:?}", exact.violations)));
        }
        if exact.colors > color_bound(g.n()) {
            return Err(fail(format!(
                "{} colours exceed 2 ceil(log2 n) + 2 = {}",
                exact.colors,
                color_bound(g.n())
            )));
        }
        let diameter = exact
            .max_strong_diameter
            .ok_or_else(|| fail("no strong diameter for a valid decomposition".into()))?;
        self.quality.colors(exact.colors);
        self.quality.diameter(diameter);

        if self.approx {
            let t = Instant::now();
            let approx =
                validate_decomposition_approx_in(g, &d, HyperBallParams::default(), &mut self.ctx)
                    .expect("unarmed ctx");
            if traced {
                self.approx_ms += t.elapsed().as_secs_f64() * 1e3;
            }
            if approx.is_valid() != exact.is_valid() {
                return Err(fail("approx verdict differs from the exact one".into()));
            }
            if approx.est_max_strong_diameter.is_some_and(|e| e > diameter) {
                return Err(fail(format!(
                    "approx diameter {:?} exceeds the exact {diameter}",
                    approx.est_max_strong_diameter
                )));
            }
        }
        Ok(())
    }

    fn layers(&self, traced_op_ms: f64) -> Vec<(&'static str, f64)> {
        let t = &self.totals;
        let per_op = |x: f64| x / t.ops.max(1) as f64;
        let count = |x: u64| per_op(x as f64);
        vec![
            ("weak.self_ms", per_op(t.weak_ms)),
            ("weak.calls", count(t.weak_calls)),
            ("weak.rounds", count(t.weak_rounds)),
            ("weak.messages", count(t.weak_messages)),
            ("transform.self_ms", per_op(t.transform_ms)),
            ("transform.calls", count(t.transform_calls)),
            ("transform.rounds", count(t.transform_rounds)),
            ("improve.self_ms", per_op(t.improve_ms)),
            ("improve.calls", count(t.improve_calls)),
            ("improve.rounds", count(t.improve_rounds)),
            ("reduction.self_ms", per_op(t.reduction_ms)),
            ("reduction.carvings", count(t.reduction_carvings)),
            ("validate.exact_ms", per_op(self.exact_ms)),
            ("validate.approx_ms", per_op(self.approx_ms)),
            (
                "validate.share",
                (self.exact_ms + self.approx_ms) / traced_op_ms.max(1e-9),
            ),
        ]
    }
}

fn run(
    inputs: fn(u64) -> Inputs,
    approx: bool,
    pinned: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: &mut Probe,
) -> Outcome {
    calib::pin_to_this_cpu();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let (b, s) = calib::timed(probe, || Bench::setup(inputs(seed), approx, pinned));
        bench = Some(b);
        setup_s.push(s);
    }
    let mut bench = bench.expect("at least one set-up");
    let cycle = bench.schedule.len();
    let drive = drive(seconds, trace, TAIL_PCT, cycle, probe, |i, traced| {
        bench.op(i, traced)
    });
    let layers = bench.layers(drive.traced_ms.iter().sum());
    if bench.round_drift > 0 {
        eprintln!(
            "note: {} of {} decompositions charged other rounds than the set-up reference",
            bench.round_drift, drive.attempted
        );
    }
    Outcome {
        setup_s,
        drive,
        quality: bench.quality,
        layers,
        tail_pct: TAIL_PCT,
    }
}

/// Cold Thm 2.3 / Thm 3.4 decompositions plus exact validation on
/// high-diameter inputs.
pub fn carve_grid(seed: u64, seconds: f64, trace: bool, probe: &mut Probe) -> Outcome {
    run(
        carve_grid_inputs,
        false,
        GRID_PINNED,
        seed,
        seconds,
        trace,
        probe,
    )
}

/// Thm 2.3 decompositions plus exact and approximate validation on
/// flat-diameter and weighted inputs.
pub fn validate_flat(seed: u64, seconds: f64, trace: bool, probe: &mut Probe) -> Outcome {
    run(validate_flat_inputs, true, 0, seed, seconds, trace, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_cases_run_before_each_other_case() {
        assert_eq!(schedule(5, 2), [0, 1, 2, 0, 1, 3, 0, 1, 4]);
        assert_eq!(schedule(3, 0), [0, 1, 2]);
    }
}
