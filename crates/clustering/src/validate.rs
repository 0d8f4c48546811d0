//! Invariant validation for carvings and decompositions.
//!
//! The checkers verify every promise the paper's definitions make:
//! disjointness and coverage (enforced at construction), pairwise
//! non-adjacency of carving clusters, color separation in
//! decompositions, connectivity and strong/weak diameters of clusters,
//! Steiner-tree structure (terminals present, edges real, depth,
//! congestion), and dead-fraction budgets. They power the unit,
//! property, and integration tests as well as the experiment harness's
//! self-checks.

use crate::{metrics, BallCarving, CarveCtx, NetworkDecomposition, WeakCarving};
use sdnd_graph::algo::{HyperBall, HyperBallParams};
use sdnd_graph::{Cancelled, Graph, NodeSet};

/// Absolute slack applied to every floating-point acceptance check in
/// this module: dead-fraction budgets (`dead <= eps +
/// VALIDATION_TOLERANCE`) and the estimator acceptance bands of the
/// approximate tier (`rel_err <= band + VALIDATION_TOLERANCE`).
///
/// Budgets like `eps` are produced by chains of f64 arithmetic (ratios
/// of counts, `1 - eps/2` ball-growth conditions), so comparing them
/// exactly would reject configurations that differ from a passing one
/// only in the last few ulps. `1e-9` is far above the rounding error of
/// any such chain on graphs that fit in memory and far below any
/// meaningful parameter difference. Weighted *diameters* are reported
/// raw (no tolerance): they are measurements, not acceptance checks.
pub const VALIDATION_TOLERANCE: f64 = 1e-9;

/// Per-phase wall clock of one exact validation pass, as measured by
/// the `_timed_` validator variants (and surfaced by
/// `sdnd validate --timing`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidationTiming {
    /// The structural gates: the whole-graph edge scan checking cluster
    /// non-adjacency / color separation.
    pub structural: std::time::Duration,
    /// The per-cluster diameter sweeps (connectivity is detected inside
    /// the strong-diameter traversal, so it is part of this phase).
    pub diameters: std::time::Duration,
}

/// Validation report for a [`BallCarving`].
#[derive(Debug, Clone)]
pub struct CarvingReport {
    /// No edge of `G` joins two distinct clusters.
    pub clusters_nonadjacent: bool,
    /// Every cluster induces a connected subgraph.
    pub clusters_connected: bool,
    /// Maximum exact strong diameter (`None` if some cluster is
    /// disconnected).
    pub max_strong_diameter: Option<u32>,
    /// Maximum exact weak diameter (`None` if some pair of cluster
    /// members is disconnected in `G`).
    pub max_weak_diameter: Option<u32>,
    /// Maximum exact strong diameter in the *weighted* metric; populated
    /// only when the graph carries weights.
    pub weighted_strong_diameter: Option<f64>,
    /// Maximum exact weak diameter in the weighted metric (weighted
    /// graphs only).
    pub weighted_weak_diameter: Option<f64>,
    /// Fraction of the input set left dead.
    pub dead_fraction: f64,
    /// Human-readable violations, empty when everything checks out.
    pub violations: Vec<String>,
}

impl CarvingReport {
    /// Whether the carving satisfies the *strong-diameter* contract:
    /// non-adjacent, connected clusters, dead fraction at most `eps`
    /// (within [`VALIDATION_TOLERANCE`]).
    pub fn is_valid_strong(&self, eps: f64) -> bool {
        self.clusters_nonadjacent
            && self.clusters_connected
            && self.dead_fraction <= eps + VALIDATION_TOLERANCE
    }

    /// Whether the carving satisfies the *weak-diameter* contract
    /// (clusters may be internally disconnected).
    pub fn is_valid_weak(&self, eps: f64) -> bool {
        self.clusters_nonadjacent && self.dead_fraction <= eps + VALIDATION_TOLERANCE
    }
}

/// Validates a ball carving against `g`.
///
/// Diameters are computed exactly, by the iFUB sweeps of
/// [`metrics`] (one sweep per cluster member in the worst case, so
/// `O(Σ|C| · m)`); intended for tests and experiment self-checks. Thin
/// wrapper over [`validate_carving_in`] with a throwaway context.
pub fn validate_carving(g: &Graph, carving: &BallCarving) -> CarvingReport {
    validate_carving_in(g, carving, &mut CarveCtx::new()).expect("unarmed ctx never cancels")
}

/// [`validate_carving`] with a caller-held context: the diameter sweeps
/// reuse one traversal workspace across sources and clusters, and each
/// cluster's weak-diameter sweep stops once every member is reached and
/// once it reaches the cluster's strong diameter. The context's armed
/// deadline is honored once per validated cluster (each cluster costs a
/// full diameter sweep, so that is the traversal-epoch granularity the
/// service contract promises).
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips; partial
/// report state is dropped and the context stays safely reusable.
pub fn validate_carving_in(
    g: &Graph,
    carving: &BallCarving,
    ctx: &mut CarveCtx,
) -> Result<CarvingReport, Cancelled> {
    ctx.checkpoint("validate-carving-structural")?;
    let mut violations = Vec::new();

    // Non-adjacency: an edge between two different clusters is forbidden.
    let mut nonadjacent = true;
    for (u, v) in g.edges() {
        if let (Some(cu), Some(cv)) = (carving.cluster_of(u), carving.cluster_of(v)) {
            if cu != cv {
                nonadjacent = false;
                violations.push(format!("edge ({u}, {v}) joins clusters {cu} and {cv}"));
            }
        }
    }

    // Connectivity and diameters.
    let mut connected = true;
    let mut diameters = metrics::DiameterFold::new(g);
    for (i, c) in carving.clusters().iter().enumerate() {
        ctx.checkpoint("validate-carving-cluster")?;
        let (strong, weak) = diameters.add(g, c, ctx);
        if strong.is_none() {
            connected = false;
            violations.push(format!("cluster {i} induces a disconnected subgraph"));
        }
        if weak.is_none() {
            // A silently-`None` weak diameter would make the report look
            // clean while the field vanishes: a weak carving tolerates
            // internal disconnection (reported above) but never members
            // in different components of `G`.
            violations.push(format!(
                "cluster {i}: some member pair is disconnected in G (weak diameter undefined)"
            ));
        }
    }

    Ok(CarvingReport {
        clusters_nonadjacent: nonadjacent,
        clusters_connected: connected,
        max_strong_diameter: diameters.strong,
        max_weak_diameter: diameters.weak,
        weighted_strong_diameter: diameters.weighted_strong,
        weighted_weak_diameter: diameters.weighted_weak,
        dead_fraction: carving.dead_fraction(),
        violations,
    })
}

/// Validation report of the **approximate tier**: exact structural
/// checks, estimated diameters.
///
/// The contract gates (`is_valid_strong` / `is_valid_weak`) depend only
/// on non-adjacency, connectivity, and the dead fraction — all of which
/// this tier still computes **exactly** (connectivity is one BFS per
/// cluster; the expensive part of exact validation is the per-member
/// diameter sweeps). So the approximate validator accepts a carving iff
/// the exact one does; only the *diameter observations* are estimates.
///
/// Diameter estimates are one-sided hop-metric lower bounds (HyperBall
/// sketches can stabilize early, never late), accurate to within the
/// estimator's error band with high probability. The sketch cardinality
/// at each cluster is compared against the exactly-known cluster size:
/// an out-of-band estimate is recorded as a violation, turning every
/// validation into a self-check of the estimator.
#[derive(Debug, Clone)]
pub struct ApproxCarvingReport {
    /// No edge of `G` joins two distinct clusters (exact).
    pub clusters_nonadjacent: bool,
    /// Every cluster induces a connected subgraph (exact).
    pub clusters_connected: bool,
    /// Fraction of the input set left dead (exact).
    pub dead_fraction: f64,
    /// One-sided estimate of the maximum strong (hop) diameter; `None`
    /// if some cluster is disconnected (then only the weak side below is
    /// meaningful).
    pub est_max_strong_diameter: Option<u32>,
    /// One-sided estimate of the maximum weak (hop) diameter; `None` if
    /// some member pair is disconnected even in `G`. For connected
    /// clusters the strong estimate stands in (weak ≤ strong, so the
    /// bound direction is preserved w.r.t. the strong metric); truly
    /// seeded full-graph sweeps run only for disconnected clusters.
    pub est_max_weak_diameter: Option<u32>,
    /// Register exponent the estimates were computed with.
    pub precision: u8,
    /// The estimator's relative standard error, `1.04 / √(2^p)`.
    pub rel_std_error: f64,
    /// Relative acceptance half-width (`sigmas · rel_std_error`).
    pub error_band: f64,
    /// Largest relative cardinality error observed across clusters
    /// (sketch estimate vs exactly-known `|C|`).
    pub max_cardinality_error: f64,
    /// Human-readable violations (exact checks plus out-of-band
    /// estimates).
    pub violations: Vec<String>,
}

impl ApproxCarvingReport {
    /// Same contract as [`CarvingReport::is_valid_strong`] — the inputs
    /// to this gate are exact even in the approximate tier.
    pub fn is_valid_strong(&self, eps: f64) -> bool {
        self.clusters_nonadjacent
            && self.clusters_connected
            && self.dead_fraction <= eps + VALIDATION_TOLERANCE
    }

    /// Same contract as [`CarvingReport::is_valid_weak`].
    pub fn is_valid_weak(&self, eps: f64) -> bool {
        self.clusters_nonadjacent && self.dead_fraction <= eps + VALIDATION_TOLERANCE
    }

    /// Whether every cluster's sketch cardinality landed inside the
    /// acceptance band (the estimator's self-check).
    pub fn estimator_in_band(&self) -> bool {
        self.max_cardinality_error <= self.error_band + VALIDATION_TOLERANCE
    }
}

/// Validates a carving with estimated diameters. Thin wrapper over
/// [`validate_carving_approx_in`] with a throwaway context.
pub fn validate_carving_approx(
    g: &Graph,
    carving: &BallCarving,
    params: HyperBallParams,
) -> ApproxCarvingReport {
    validate_carving_approx_in(g, carving, params, &mut CarveCtx::new())
        .expect("unarmed ctx never cancels")
}

/// [`validate_carving_approx`] with a caller-held context.
///
/// Cost: the edge scan, one BFS per cluster, and one HyperBall sweep per
/// cluster — `O(m + Σ D(C) · |E(C)| · 2^p / 8)` instead of the exact
/// tier's `O(Σ |C| · |E(C)|)` per-member sweeps, which is the difference
/// the committed `BENCH_validate.json` measures. The armed deadline is
/// honored once per validated cluster.
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips.
pub fn validate_carving_approx_in(
    g: &Graph,
    carving: &BallCarving,
    params: HyperBallParams,
    ctx: &mut CarveCtx,
) -> Result<ApproxCarvingReport, Cancelled> {
    ctx.checkpoint("validate-approx-structural")?;
    let mut violations = Vec::new();

    // Non-adjacency: exact, same scan as the exact tier.
    let mut nonadjacent = true;
    for (u, v) in g.edges() {
        if let (Some(cu), Some(cv)) = (carving.cluster_of(u), carving.cluster_of(v)) {
            if cu != cv {
                nonadjacent = false;
                violations.push(format!("edge ({u}, {v}) joins clusters {cu} and {cv}"));
            }
        }
    }

    let mut hb = HyperBall::new(params);
    let mut connected = true;
    let mut est_strong = Some(0u32);
    let mut est_weak = Some(0u32);
    let mut max_card_err = 0.0_f64;
    for (i, c) in carving.clusters().iter().enumerate() {
        ctx.checkpoint("validate-approx-cluster")?;
        match metrics::approx_strong_diameter_of_in(g, c, &mut hb, ctx)? {
            Some((d, count)) => {
                if let Some(m) = est_strong {
                    est_strong = Some(m.max(d));
                }
                // Weak ≤ strong: the strong estimate covers the weak
                // field for connected clusters.
                if let Some(m) = est_weak {
                    est_weak = Some(m.max(d));
                }
                let rel = (count - c.len() as f64).abs() / c.len().max(1) as f64;
                max_card_err = max_card_err.max(rel);
                if rel > params.error_band() + VALIDATION_TOLERANCE {
                    violations.push(format!(
                        "cluster {i}: sketch cardinality {count:.1} is off the exact size {} \
                         by {rel:.3} (band {:.3})",
                        c.len(),
                        params.error_band()
                    ));
                }
            }
            None => {
                connected = false;
                est_strong = None;
                violations.push(format!("cluster {i} induces a disconnected subgraph"));
                match metrics::approx_weak_diameter_of_in(g, c, &mut hb, ctx)? {
                    Some(d) => {
                        if let Some(m) = est_weak {
                            est_weak = Some(m.max(d));
                        }
                    }
                    None => {
                        est_weak = None;
                        violations.push(format!(
                            "cluster {i}: some member pair is disconnected in G \
                             (weak diameter undefined)"
                        ));
                    }
                }
            }
        }
    }

    Ok(ApproxCarvingReport {
        clusters_nonadjacent: nonadjacent,
        clusters_connected: connected,
        dead_fraction: carving.dead_fraction(),
        est_max_strong_diameter: est_strong,
        est_max_weak_diameter: est_weak,
        precision: params.precision,
        rel_std_error: params.rel_std_error(),
        error_band: params.error_band(),
        max_cardinality_error: max_card_err,
        violations,
    })
}

/// Approximate-tier report for a [`NetworkDecomposition`]: exact color
/// separation and connectivity, estimated diameters (see
/// [`ApproxCarvingReport`] for the error model).
#[derive(Debug, Clone)]
pub struct ApproxDecompositionReport {
    /// No edge joins two same-colored clusters (exact).
    pub colors_separate: bool,
    /// Every cluster induces a connected subgraph (exact).
    pub clusters_connected: bool,
    /// One-sided estimate of the maximum strong diameter.
    pub est_max_strong_diameter: Option<u32>,
    /// One-sided estimate of the maximum weak diameter.
    pub est_max_weak_diameter: Option<u32>,
    /// Number of colors used.
    pub colors: u32,
    /// Register exponent the estimates were computed with.
    pub precision: u8,
    /// The estimator's relative standard error.
    pub rel_std_error: f64,
    /// Relative acceptance half-width.
    pub error_band: f64,
    /// Largest relative cardinality error observed across clusters.
    pub max_cardinality_error: f64,
    /// Human-readable violations.
    pub violations: Vec<String>,
}

impl ApproxDecompositionReport {
    /// Same contract as [`DecompositionReport::is_valid`] (exact
    /// inputs).
    pub fn is_valid(&self) -> bool {
        self.colors_separate && self.clusters_connected
    }

    /// Same contract as [`DecompositionReport::is_valid_weak`].
    pub fn is_valid_weak(&self) -> bool {
        self.colors_separate
    }

    /// Whether every cluster's sketch cardinality landed inside the
    /// acceptance band.
    pub fn estimator_in_band(&self) -> bool {
        self.max_cardinality_error <= self.error_band + VALIDATION_TOLERANCE
    }
}

/// Validates a decomposition with estimated diameters. Thin wrapper over
/// [`validate_decomposition_approx_in`].
pub fn validate_decomposition_approx(
    g: &Graph,
    d: &NetworkDecomposition,
    params: HyperBallParams,
) -> ApproxDecompositionReport {
    validate_decomposition_approx_in(g, d, params, &mut CarveCtx::new())
        .expect("unarmed ctx never cancels")
}

/// [`validate_decomposition_approx`] with a caller-held context. The
/// armed deadline is honored once per validated cluster.
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips.
pub fn validate_decomposition_approx_in(
    g: &Graph,
    d: &NetworkDecomposition,
    params: HyperBallParams,
    ctx: &mut CarveCtx,
) -> Result<ApproxDecompositionReport, Cancelled> {
    ctx.checkpoint("validate-approx-structural")?;
    let mut violations = Vec::new();

    let mut colors_separate = true;
    for (u, v) in g.edges() {
        if let (Some(cu), Some(cv)) = (d.cluster_of(u), d.cluster_of(v)) {
            if cu != cv && d.color(cu) == d.color(cv) {
                colors_separate = false;
                violations.push(format!(
                    "edge ({u}, {v}) joins same-colored clusters {} and {}",
                    cu.0, cv.0
                ));
            }
        }
    }

    let mut hb = HyperBall::new(params);
    let mut connected = true;
    let mut est_strong = Some(0u32);
    let mut est_weak = Some(0u32);
    let mut max_card_err = 0.0_f64;
    for (i, c) in d.clusters().iter().enumerate() {
        ctx.checkpoint("validate-approx-cluster")?;
        match metrics::approx_strong_diameter_of_in(g, c, &mut hb, ctx)? {
            Some((diam, count)) => {
                if let Some(m) = est_strong {
                    est_strong = Some(m.max(diam));
                }
                if let Some(m) = est_weak {
                    est_weak = Some(m.max(diam));
                }
                let rel = (count - c.len() as f64).abs() / c.len().max(1) as f64;
                max_card_err = max_card_err.max(rel);
                if rel > params.error_band() + VALIDATION_TOLERANCE {
                    violations.push(format!(
                        "cluster {i}: sketch cardinality {count:.1} is off the exact size {} \
                         by {rel:.3} (band {:.3})",
                        c.len(),
                        params.error_band()
                    ));
                }
            }
            None => {
                connected = false;
                est_strong = None;
                violations.push(format!("cluster {i} induces a disconnected subgraph"));
                match metrics::approx_weak_diameter_of_in(g, c, &mut hb, ctx)? {
                    Some(diam) => {
                        if let Some(m) = est_weak {
                            est_weak = Some(m.max(diam));
                        }
                    }
                    None => {
                        est_weak = None;
                        violations.push(format!(
                            "cluster {i}: some member pair is disconnected in G \
                             (weak diameter undefined)"
                        ));
                    }
                }
            }
        }
    }

    Ok(ApproxDecompositionReport {
        colors_separate,
        clusters_connected: connected,
        est_max_strong_diameter: est_strong,
        est_max_weak_diameter: est_weak,
        colors: d.num_colors(),
        precision: params.precision,
        rel_std_error: params.rel_std_error(),
        error_band: params.error_band(),
        max_cardinality_error: max_card_err,
        violations,
    })
}

/// Validation report for a [`WeakCarving`] (carving checks plus the
/// Steiner-tree contract of Theorem 2.1).
#[derive(Debug, Clone)]
pub struct WeakCarvingReport {
    /// The underlying carving report.
    pub carving: CarvingReport,
    /// All tree edges are edges of `G` and all tree nodes lie in the
    /// input (alive) set.
    pub trees_well_formed: bool,
    /// Every cluster member appears in its cluster's tree.
    pub terminals_covered: bool,
    /// Maximum Steiner tree depth `R` (`None` if a tree is malformed).
    pub max_depth: Option<u32>,
    /// Edge congestion `L` across the forest.
    pub congestion: u32,
    /// Human-readable violations.
    pub violations: Vec<String>,
}

impl WeakCarvingReport {
    /// Whether the weak carving satisfies the full Theorem 2.1 interface
    /// with boundary `eps`, depth bound `r_bound`, and congestion bound
    /// `l_bound`.
    pub fn satisfies_contract(&self, eps: f64, r_bound: u32, l_bound: u32) -> bool {
        self.carving.is_valid_weak(eps)
            && self.trees_well_formed
            && self.terminals_covered
            && self.max_depth.is_some_and(|d| d <= r_bound)
            && self.congestion <= l_bound
    }
}

/// Validates a weak carving: the carving itself plus its Steiner forest.
pub fn validate_weak_carving(g: &Graph, wc: &WeakCarving) -> WeakCarvingReport {
    let carving_report = validate_carving(g, wc.carving());
    let mut violations = Vec::new();

    let input = wc.carving().input();
    let mut well_formed = true;
    let mut terminals_covered = true;

    for (i, tree) in wc.forest().trees().iter().enumerate() {
        // Edges must exist in G; nodes must lie in the input set.
        for (v, p) in tree.parent_pairs() {
            if !g.has_edge(v, p) {
                well_formed = false;
                violations.push(format!("tree {i}: ({v}, {p}) is not an edge of G"));
            }
        }
        for v in tree.nodes() {
            if !input.contains(v) {
                well_formed = false;
                violations.push(format!("tree {i}: node {v} is outside the input set"));
            }
        }
        // Terminals: every cluster member is in the tree.
        let tree_nodes: NodeSet =
            NodeSet::from_nodes(g.n(), tree.nodes().filter(|v| v.index() < g.n()));
        for &m in &wc.carving().clusters()[i] {
            if !tree_nodes.contains(m) {
                terminals_covered = false;
                violations.push(format!("tree {i}: member {m} is not a terminal"));
            }
        }
    }

    let max_depth = wc.forest().max_depth();
    if max_depth.is_none() {
        well_formed = false;
        violations.push("a tree has cyclic or dangling parent pointers".to_string());
    }

    WeakCarvingReport {
        carving: carving_report,
        trees_well_formed: well_formed,
        terminals_covered,
        max_depth,
        congestion: wc.forest().congestion(),
        violations,
    }
}

/// Validation report for a [`NetworkDecomposition`].
#[derive(Debug, Clone)]
pub struct DecompositionReport {
    /// No edge joins two same-colored clusters.
    pub colors_separate: bool,
    /// Every cluster induces a connected subgraph.
    pub clusters_connected: bool,
    /// Maximum exact strong diameter (`None` if a cluster is internally
    /// disconnected, as weak-diameter decompositions allow).
    pub max_strong_diameter: Option<u32>,
    /// Maximum exact weak diameter over clusters.
    pub max_weak_diameter: Option<u32>,
    /// Maximum exact strong diameter in the *weighted* metric (weighted
    /// graphs only).
    pub weighted_strong_diameter: Option<f64>,
    /// Maximum exact weak diameter in the weighted metric (weighted
    /// graphs only).
    pub weighted_weak_diameter: Option<f64>,
    /// Number of colors used.
    pub colors: u32,
    /// Human-readable violations.
    pub violations: Vec<String>,
}

impl DecompositionReport {
    /// Whether this is a valid *strong-diameter* decomposition (color
    /// separation plus connected clusters).
    pub fn is_valid(&self) -> bool {
        self.colors_separate && self.clusters_connected
    }

    /// Whether this is a valid *weak-diameter* decomposition (color
    /// separation only).
    pub fn is_valid_weak(&self) -> bool {
        self.colors_separate
    }
}

/// Validates a network decomposition against `g`. Thin wrapper over
/// [`validate_decomposition_in`] with a throwaway context.
pub fn validate_decomposition(g: &Graph, d: &NetworkDecomposition) -> DecompositionReport {
    validate_decomposition_in(g, d, &mut CarveCtx::new()).expect("unarmed ctx never cancels")
}

/// [`validate_decomposition`] with a caller-held context (shared
/// traversal workspace across all diameter checks). The armed deadline
/// is honored once per validated cluster.
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips.
pub fn validate_decomposition_in(
    g: &Graph,
    d: &NetworkDecomposition,
    ctx: &mut CarveCtx,
) -> Result<DecompositionReport, Cancelled> {
    Ok(validate_decomposition_timed_in(g, d, ctx)?.0)
}

/// [`validate_decomposition_in`] plus a per-phase wall-clock breakdown.
/// The report is the same value the untimed entry point returns.
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips.
pub fn validate_decomposition_timed_in(
    g: &Graph,
    d: &NetworkDecomposition,
    ctx: &mut CarveCtx,
) -> Result<(DecompositionReport, ValidationTiming), Cancelled> {
    ctx.checkpoint("validate-structural")?;
    let mut violations = Vec::new();

    let structural_start = std::time::Instant::now();
    let mut colors_separate = true;
    for (u, v) in g.edges() {
        if let (Some(cu), Some(cv)) = (d.cluster_of(u), d.cluster_of(v)) {
            if cu != cv && d.color(cu) == d.color(cv) {
                colors_separate = false;
                violations.push(format!(
                    "edge ({u}, {v}) joins same-colored clusters {} and {}",
                    cu.0, cv.0
                ));
            }
        }
    }
    let structural = structural_start.elapsed();

    let diameters_start = std::time::Instant::now();
    let mut connected = true;
    let mut fold = metrics::DiameterFold::new(g);
    for (i, c) in d.clusters().iter().enumerate() {
        ctx.checkpoint("validate-cluster")?;
        let (strong, weak) = fold.add(g, c, ctx);
        if strong.is_none() {
            connected = false;
            violations.push(format!("cluster {i} induces a disconnected subgraph"));
        }
        if weak.is_none() {
            // Same silent-`None` hazard as in `validate_carving_in`.
            violations.push(format!(
                "cluster {i}: some member pair is disconnected in G (weak diameter undefined)"
            ));
        }
    }
    let diameters = diameters_start.elapsed();

    Ok((
        DecompositionReport {
            colors_separate,
            clusters_connected: connected,
            max_strong_diameter: fold.strong,
            max_weak_diameter: fold.weak,
            weighted_strong_diameter: fold.weighted_strong,
            weighted_weak_diameter: fold.weighted_weak,
            colors: d.num_colors(),
            violations,
        },
        ValidationTiming {
            structural,
            diameters,
        },
    ))
}

/// Asserts that `carving` is a valid strong-diameter carving with dead
/// fraction at most `eps` and strong diameter at most `diam_bound`.
///
/// # Panics
///
/// Panics with the collected violations if any check fails (test
/// helper).
pub fn assert_strong_carving(g: &Graph, carving: &BallCarving, eps: f64, diam_bound: u32) {
    let report = validate_carving(g, carving);
    assert!(
        report.is_valid_strong(eps),
        "invalid strong carving (dead {:.3} vs eps {eps}): {:?}",
        report.dead_fraction,
        report.violations
    );
    let d = report
        .max_strong_diameter
        .expect("connected clusters have diameters");
    assert!(
        d <= diam_bound,
        "strong diameter {d} exceeds bound {diam_bound}"
    );
}

/// Asserts that `d` is a valid strong-diameter decomposition with at most
/// `color_bound` colors and strong diameter at most `diam_bound`.
///
/// # Panics
///
/// Panics with the collected violations if any check fails (test
/// helper).
pub fn assert_strong_decomposition(
    g: &Graph,
    d: &NetworkDecomposition,
    color_bound: u32,
    diam_bound: u32,
) {
    let report = validate_decomposition(g, d);
    assert!(
        report.is_valid(),
        "invalid decomposition: {:?}",
        report.violations
    );
    assert!(
        report.colors <= color_bound,
        "colors {} exceed bound {color_bound}",
        report.colors
    );
    let diam = report.max_strong_diameter.expect("connected clusters");
    assert!(
        diam <= diam_bound,
        "strong diameter {diam} exceeds bound {diam_bound}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SteinerForest, SteinerTree};
    use sdnd_graph::{gen, NodeId};

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn valid_strong_carving_on_path() {
        let g = gen::path(7);
        // Clusters {0,1,2} and {4,5,6}; node 3 dead — non-adjacent, connected.
        let carving =
            BallCarving::new(NodeSet::full(7), vec![ids(&[0, 1, 2]), ids(&[4, 5, 6])]).unwrap();
        let report = validate_carving(&g, &carving);
        assert!(report.clusters_nonadjacent);
        assert!(report.clusters_connected);
        assert_eq!(report.max_strong_diameter, Some(2));
        assert!(report.is_valid_strong(0.2));
        assert!(!report.is_valid_strong(0.1), "dead fraction 1/7 > 0.1");
    }

    #[test]
    fn adjacency_violation_detected() {
        let g = gen::path(4);
        let carving = BallCarving::new(NodeSet::full(4), vec![ids(&[0, 1]), ids(&[2, 3])]).unwrap();
        let report = validate_carving(&g, &carving);
        assert!(!report.clusters_nonadjacent);
        assert!(!report.violations.is_empty());
    }

    #[test]
    fn disconnected_cluster_detected() {
        let g = gen::path(5);
        let carving = BallCarving::new(NodeSet::full(5), vec![ids(&[0, 2, 1, 4])]).unwrap();
        let report = validate_carving(&g, &carving);
        assert!(!report.clusters_connected);
        assert_eq!(report.max_strong_diameter, None);
        assert_eq!(report.max_weak_diameter, Some(4));
        assert!(
            report.is_valid_weak(0.5),
            "weak contract tolerates disconnection"
        );
    }

    #[test]
    fn weak_carving_contract() {
        let g = gen::path(5);
        // Cluster {0, 2} with a Steiner tree through helper node 1.
        let carving = BallCarving::new(NodeSet::full(5), vec![ids(&[0, 2])]).unwrap();
        let tree = SteinerTree::from_parents(
            NodeId::new(0),
            vec![
                (NodeId::new(1), NodeId::new(0)),
                (NodeId::new(2), NodeId::new(1)),
            ],
        );
        let wc = WeakCarving::new(carving, SteinerForest::from_trees(vec![tree])).unwrap();
        let report = validate_weak_carving(&g, &wc);
        assert!(report.trees_well_formed);
        assert!(report.terminals_covered);
        assert_eq!(report.max_depth, Some(2));
        assert_eq!(report.congestion, 1);
        assert!(report.satisfies_contract(0.7, 2, 1));
        assert!(
            !report.satisfies_contract(0.7, 1, 1),
            "depth bound violated"
        );
    }

    #[test]
    fn weak_carving_detects_missing_terminal() {
        let g = gen::path(3);
        let carving = BallCarving::new(NodeSet::full(3), vec![ids(&[0, 1])]).unwrap();
        let tree = SteinerTree::singleton(NodeId::new(0)); // member 1 missing
        let wc = WeakCarving::new(carving, SteinerForest::from_trees(vec![tree])).unwrap();
        let report = validate_weak_carving(&g, &wc);
        assert!(!report.terminals_covered);
    }

    #[test]
    fn weak_carving_detects_fake_edge() {
        let g = gen::path(4);
        let carving = BallCarving::new(NodeSet::full(4), vec![ids(&[0, 3])]).unwrap();
        let tree =
            SteinerTree::from_parents(NodeId::new(0), vec![(NodeId::new(3), NodeId::new(0))]);
        let wc = WeakCarving::new(carving, SteinerForest::from_trees(vec![tree])).unwrap();
        let report = validate_weak_carving(&g, &wc);
        assert!(!report.trees_well_formed);
    }

    #[test]
    fn weighted_graphs_populate_weighted_report_fields() {
        let g = sdnd_graph::Graph::from_weighted_edges(
            7,
            [
                (0, 1, 3.0),
                (1, 2, 3.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 2.0),
                (5, 6, 2.0),
            ],
        )
        .unwrap();
        let carving =
            BallCarving::new(NodeSet::full(7), vec![ids(&[0, 1, 2]), ids(&[4, 5, 6])]).unwrap();
        let report = validate_carving(&g, &carving);
        assert_eq!(report.max_strong_diameter, Some(2), "hop metric");
        assert_eq!(report.weighted_strong_diameter, Some(6.0), "3.0 + 3.0");
        assert_eq!(report.weighted_weak_diameter, Some(6.0));
        assert!(report.is_valid_strong(0.2));

        let d = NetworkDecomposition::new(
            &NodeSet::full(7),
            vec![(ids(&[0, 1, 2]), 0), (ids(&[4, 5, 6]), 1), (ids(&[3]), 0)],
        )
        .unwrap();
        let dreport = validate_decomposition(&g, &d);
        assert_eq!(dreport.weighted_strong_diameter, Some(6.0));
        // Unweighted graphs leave the weighted fields empty.
        let plain = gen::path(7);
        let preport = validate_carving(&plain, &carving);
        assert_eq!(preport.weighted_strong_diameter, None);
        assert_eq!(preport.weighted_weak_diameter, None);
        assert_eq!(
            validate_decomposition(&plain, &d).weighted_strong_diameter,
            None
        );
    }

    #[test]
    fn weak_disconnection_records_a_violation() {
        // Two components of G, one cluster spanning both: the weak
        // diameter is undefined. Regression: `max_weak_diameter` used to
        // become `None` with no violations entry, so a weak-contract
        // report looked clean while the field silently vanished.
        let g = sdnd_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let carving = BallCarving::new(NodeSet::full(4), vec![ids(&[0, 1, 2, 3])]).unwrap();
        let report = validate_carving(&g, &carving);
        assert_eq!(report.max_weak_diameter, None);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("weak diameter undefined")),
            "weak-None must be recorded: {:?}",
            report.violations
        );
        assert!(
            report.is_valid_weak(0.0),
            "the gate itself still only checks adjacency + dead budget"
        );

        // Same hazard in the decomposition validator.
        let d =
            NetworkDecomposition::new(&NodeSet::full(4), vec![(ids(&[0, 1, 2, 3]), 0)]).unwrap();
        let dreport = validate_decomposition(&g, &d);
        assert_eq!(dreport.max_weak_diameter, None);
        assert!(dreport
            .violations
            .iter()
            .any(|v| v.contains("weak diameter undefined")));

        // An internally disconnected cluster whose members stay connected
        // in G keeps its weak diameter and gets no weak violation.
        let path = gen::path(5);
        let c2 = BallCarving::new(NodeSet::full(5), vec![ids(&[0, 2])]).unwrap();
        let r2 = validate_carving(&path, &c2);
        assert_eq!(r2.max_weak_diameter, Some(2));
        assert!(!r2.violations.iter().any(|v| v.contains("weak diameter")));
    }

    #[test]
    fn tolerance_is_applied_consistently() {
        // Dead fraction 1/7; an eps short of it by far less than the
        // documented tolerance still passes, a materially smaller eps
        // does not.
        let g = gen::path(7);
        let carving =
            BallCarving::new(NodeSet::full(7), vec![ids(&[0, 1, 2]), ids(&[4, 5, 6])]).unwrap();
        let report = validate_carving(&g, &carving);
        let dead = report.dead_fraction;
        assert!(report.is_valid_strong(dead - VALIDATION_TOLERANCE / 10.0));
        assert!(report.is_valid_weak(dead - VALIDATION_TOLERANCE / 10.0));
        assert!(!report.is_valid_strong(dead - 1e-3));
        // The approximate tier shares the same constant and behavior.
        let approx = validate_carving_approx(&g, &carving, HyperBallParams::default());
        assert!(approx.is_valid_strong(dead - VALIDATION_TOLERANCE / 10.0));
        assert!(!approx.is_valid_strong(dead - 1e-3));
    }

    #[test]
    fn approx_gates_match_exact_and_estimates_are_one_sided() {
        // Grid rows 0-1 and 3-4 as clusters, row 2 dead.
        let g = gen::grid(5, 5);
        let top: Vec<_> = (0..10).map(NodeId::new).collect();
        let bottom: Vec<_> = (15..25).map(NodeId::new).collect();
        let carving = BallCarving::new(NodeSet::full(25), vec![top, bottom]).unwrap();
        let exact = validate_carving(&g, &carving);
        let approx = validate_carving_approx(&g, &carving, HyperBallParams::default());
        for eps in [0.0, 0.1, 0.2, 0.5] {
            assert_eq!(approx.is_valid_strong(eps), exact.is_valid_strong(eps));
            assert_eq!(approx.is_valid_weak(eps), exact.is_valid_weak(eps));
        }
        assert!(approx.clusters_connected);
        assert!(
            approx.est_max_strong_diameter.unwrap() <= exact.max_strong_diameter.unwrap(),
            "estimates never exceed the exact diameter"
        );
        assert!(approx.estimator_in_band(), "{:?}", approx.violations);
        assert!(approx.violations.is_empty());

        // A cluster-joining edge is rejected by both tiers.
        let path = gen::path(4);
        let bad = BallCarving::new(NodeSet::full(4), vec![ids(&[0, 1]), ids(&[2, 3])]).unwrap();
        let bad_exact = validate_carving(&path, &bad);
        let bad_approx = validate_carving_approx(&path, &bad, HyperBallParams::default());
        assert!(!bad_approx.clusters_nonadjacent);
        assert_eq!(bad_approx.is_valid_weak(1.0), bad_exact.is_valid_weak(1.0));
    }

    #[test]
    fn approx_decomposition_reports_disconnection() {
        let g = sdnd_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d =
            NetworkDecomposition::new(&NodeSet::full(4), vec![(ids(&[0, 1, 2, 3]), 0)]).unwrap();
        let report = validate_decomposition_approx(&g, &d, HyperBallParams::default());
        assert!(!report.clusters_connected);
        assert_eq!(report.est_max_strong_diameter, None);
        assert_eq!(report.est_max_weak_diameter, None);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("weak diameter undefined")));
        // Members disconnected inside the cluster but connected in G:
        // the weak estimate survives.
        let path = gen::path(5);
        let d2 = NetworkDecomposition::new(
            &NodeSet::from_nodes(5, ids(&[0, 2])),
            vec![(ids(&[0, 2]), 0)],
        )
        .unwrap();
        let r2 = validate_decomposition_approx(&path, &d2, HyperBallParams::default());
        assert!(!r2.clusters_connected);
        assert_eq!(r2.est_max_weak_diameter, Some(2));
        assert!(r2.is_valid_weak());
    }

    #[test]
    fn armed_deadline_cancels_validators_and_ctx_stays_usable() {
        use crate::Deadline;
        use std::time::Duration;
        let g = gen::grid(6, 6);
        let carving = BallCarving::new(
            NodeSet::full(36),
            vec![(0..12).map(NodeId::new).collect(), ids(&[30, 31, 32])],
        )
        .unwrap();
        let d = NetworkDecomposition::new(
            &NodeSet::full(36),
            vec![
                ((0..12).map(NodeId::new).collect(), 0),
                ((12..36).map(NodeId::new).collect(), 1),
            ],
        )
        .unwrap();

        let mut ctx = CarveCtx::new();
        ctx.arm(Deadline::within(Duration::ZERO));
        let err = validate_carving_in(&g, &carving, &mut ctx).unwrap_err();
        assert!(err.phase.starts_with("validate-carving"), "{}", err.phase);
        let err = validate_decomposition_in(&g, &d, &mut ctx).unwrap_err();
        assert!(err.phase.starts_with("validate"), "{}", err.phase);
        let err = validate_carving_approx_in(&g, &carving, HyperBallParams::default(), &mut ctx)
            .unwrap_err();
        assert!(err.phase.starts_with("validate-approx"), "{}", err.phase);
        let err = validate_decomposition_approx_in(&g, &d, HyperBallParams::default(), &mut ctx)
            .unwrap_err();
        assert!(err.phase.starts_with("validate-approx"), "{}", err.phase);

        // Disarmed, the same context produces the same reports as a
        // fresh one — cancellation never corrupts the workspace.
        ctx.disarm();
        let after = validate_decomposition_in(&g, &d, &mut ctx).unwrap();
        let fresh = validate_decomposition(&g, &d);
        assert_eq!(after.max_strong_diameter, fresh.max_strong_diameter);
        assert_eq!(after.max_weak_diameter, fresh.max_weak_diameter);
        assert_eq!(after.violations, fresh.violations);
    }

    #[test]
    fn decomposition_color_separation() {
        let g = gen::path(4);
        let good = NetworkDecomposition::new(
            &NodeSet::full(4),
            vec![(ids(&[0, 1]), 0), (ids(&[2, 3]), 1)],
        )
        .unwrap();
        assert!(validate_decomposition(&g, &good).is_valid());

        let bad = NetworkDecomposition::new(
            &NodeSet::full(4),
            vec![(ids(&[0, 1]), 0), (ids(&[2, 3]), 0)],
        )
        .unwrap();
        let report = validate_decomposition(&g, &bad);
        assert!(!report.colors_separate);
        assert!(!report.is_valid());
    }

    #[test]
    fn assert_helpers_pass_on_valid_input() {
        let g = gen::path(7);
        let carving =
            BallCarving::new(NodeSet::full(7), vec![ids(&[0, 1, 2]), ids(&[4, 5, 6])]).unwrap();
        assert_strong_carving(&g, &carving, 0.2, 2);

        let d = NetworkDecomposition::new(
            &NodeSet::full(4),
            vec![(ids(&[0, 1]), 0), (ids(&[2, 3]), 1)],
        )
        .unwrap();
        assert_strong_decomposition(&gen::path(4), &d, 2, 1);
    }

    #[test]
    #[should_panic(expected = "strong diameter")]
    fn assert_helper_panics_on_big_diameter() {
        let g = gen::path(8);
        let carving = BallCarving::new(NodeSet::full(8), vec![ids(&[0, 1, 2, 3, 4])]).unwrap();
        assert_strong_carving(&g, &carving, 0.5, 2);
    }
}
