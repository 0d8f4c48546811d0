//! Experiment harness for the SDND reproduction.
//!
//! The paper's evaluation artifacts are **Table 1** (network
//! decomposition in CONGEST) and **Table 2** (ball carving in CONGEST),
//! plus the Section 3 barrier construction. The binaries in `src/bin/`
//! regenerate each of them empirically; this library provides the shared
//! machinery: the graph suite, the row sets (one row per entry of
//! [`sdnd_core::registry`]), measurement records, and table/CSV
//! emitters.
//!
//! Environment knobs:
//!
//! - `SDND_N` — target node count for the table binaries (default 256).
//! - `SDND_SEED` — base RNG seed (default 42).
//! - `SDND_OUT` — directory for CSV exports (default `bench_out/`).

#![forbid(unsafe_code)]

use sdnd_clustering::{validate_carving_in, validate_decomposition_in, CarveCtx};
use sdnd_congest::{CostModel, RoundLedger};
use sdnd_core::registry::{Algorithm, ALGORITHMS};
use sdnd_graph::{gen, Graph, NodeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Reads an environment knob with a default.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Base seed for randomized algorithms.
pub fn env_seed() -> u64 {
    env_usize("SDND_SEED", 42) as u64
}

/// Output directory for CSV exports.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("SDND_OUT").unwrap_or_else(|_| "bench_out".to_string());
    let path = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// The weighted graph families of the weighted experiment bins: the
/// suite graphs re-weighted with seeded uniform integer weights in
/// `[1, 8]` (the convention of the weighted-decomposition literature).
pub fn weighted_graph_suite(n_target: usize, seed: u64) -> Vec<(String, Graph)> {
    graph_suite(n_target, seed)
        .into_iter()
        .map(|(name, g)| {
            let w = gen::reweight(&g, gen::WeightDist::UniformInt { lo: 1, hi: 8 }, seed)
                .expect("valid weight distribution");
            (format!("{name}-w1..8"), w)
        })
        .collect()
}

/// The graph families every experiment runs on.
///
/// Each generator aims for roughly `n_target` nodes.
pub fn graph_suite(n_target: usize, seed: u64) -> Vec<(String, Graph)> {
    let side = (n_target as f64).sqrt().round().max(2.0) as usize;
    let mut suite = vec![
        (format!("grid-{side}x{side}"), gen::grid(side, side)),
        (format!("cycle-{n_target}"), gen::cycle(n_target)),
        (format!("tree-{n_target}"), gen::random_tree(n_target, seed)),
        (
            format!("gnp-{n_target}"),
            gen::gnp_connected(n_target, 6.0 / n_target.max(7) as f64, seed),
        ),
    ];
    if let Ok(g) = gen::random_regular_connected(n_target - n_target % 2, 4, seed) {
        suite.push((format!("expander-{}", g.n()), g));
    }
    suite
}

/// One measured row of a reproduction table.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm name.
    pub algorithm: String,
    /// `det` or `rand`.
    pub model: String,
    /// `strong` or `weak` guarantee class.
    pub class: String,
    /// Colors used (decompositions only).
    pub colors: Option<u32>,
    /// Max exact strong diameter (`None` when a cluster is internally
    /// disconnected, as weak-diameter outputs allow).
    pub strong_diameter: Option<u32>,
    /// Max exact weak diameter.
    pub weak_diameter: Option<u32>,
    /// Fraction of input nodes removed (carvings only).
    pub dead_fraction: Option<f64>,
    /// Max exact strong diameter in the *weighted* metric (populated
    /// only for weighted graphs).
    pub weighted_strong_diameter: Option<f64>,
    /// Max exact weak diameter in the weighted metric (weighted graphs
    /// only).
    pub weighted_weak_diameter: Option<f64>,
    /// Simulated round count.
    pub rounds: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u32,
    /// Whether every message fit the CONGEST budget for this `n`.
    pub congest_ok: bool,
}

impl Measurement {
    /// The columns every row shares: names from the registry entry,
    /// costs from the ledger, diameters left for the caller.
    fn new(algorithm: &str, algo: &Algorithm, g: &Graph, ledger: &RoundLedger) -> Measurement {
        Measurement {
            algorithm: algorithm.to_string(),
            model: algo.model.to_string(),
            class: algo.class.as_str().to_string(),
            colors: None,
            strong_diameter: None,
            weak_diameter: None,
            dead_fraction: None,
            weighted_strong_diameter: None,
            weighted_weak_diameter: None,
            rounds: ledger.rounds(),
            max_message_bits: ledger.max_message_bits(),
            congest_ok: ledger.complies_with(&CostModel::congest_for(g.n())),
        }
    }
}

/// Runs every Table 1 algorithm (network decomposition) on `g`: the
/// LS93 reduction over each registry entry.
///
/// One [`CarveCtx`] serves every pipeline run and every validation in
/// the row set, so repeated bins amortize traversal scratch.
pub fn run_table1_row_set(g: &Graph, seed: u64) -> Vec<Measurement> {
    let mut ctx = CarveCtx::new();
    ALGORITHMS
        .iter()
        .map(|algo| {
            let mut ledger = RoundLedger::new();
            let d = algo
                .decompose_in(seed, g, &mut ledger, &mut ctx)
                .expect("unarmed ctx never cancels");
            let report = validate_decomposition_in(g, &d, &mut ctx).expect("unarmed ctx");
            Measurement {
                colors: Some(report.colors),
                strong_diameter: report.max_strong_diameter,
                weak_diameter: report.max_weak_diameter,
                weighted_strong_diameter: report.weighted_strong_diameter,
                weighted_weak_diameter: report.weighted_weak_diameter,
                ..Measurement::new(algo.decompose_label, algo, g, &ledger)
            }
        })
        .collect()
}

/// Runs every Table 2 algorithm (ball carving) on `g` at `eps`: one
/// carving per registry entry.
pub fn run_table2_row_set(g: &Graph, eps: f64, seed: u64) -> Vec<Measurement> {
    let alive = NodeSet::full(g.n());
    let mut ctx = CarveCtx::new();
    ALGORITHMS
        .iter()
        .map(|algo| {
            let mut ledger = RoundLedger::new();
            let c = algo
                .carve_in(seed, g, &alive, eps, &mut ledger, &mut ctx)
                .expect("unarmed ctx never cancels");
            let report = validate_carving_in(g, &c, &mut ctx).expect("unarmed ctx");
            Measurement {
                strong_diameter: report.max_strong_diameter,
                weak_diameter: report.max_weak_diameter,
                dead_fraction: Some(report.dead_fraction),
                weighted_strong_diameter: report.weighted_strong_diameter,
                weighted_weak_diameter: report.weighted_weak_diameter,
                ..Measurement::new(algo.label, algo, g, &ledger)
            }
        })
        .collect()
}

/// A printable experiment table with CSV export.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV into the output directory.
    pub fn write_csv(&self, filename: &str) -> std::io::Result<PathBuf> {
        let path = out_dir().join(filename);
        let mut s = String::new();
        let escape = |c: &String| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        s.push_str(
            &self
                .headers
                .iter()
                .map(escape)
                .collect::<Vec<_>>()
                .join(","),
        );
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.iter().map(escape).collect::<Vec<_>>().join(","));
            s.push('\n');
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Formats an optional value with a dash fallback.
pub fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "—".to_string())
}

/// Formats a fraction to three decimals.
pub fn frac(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}"))
        .unwrap_or_else(|| "—".to_string())
}

/// Formats a weighted diameter: integer values print clean, fractional
/// ones with three decimals, `None` as a dash.
pub fn wopt(v: Option<f64>) -> String {
    match v {
        None => "—".to_string(),
        Some(x) if x.fract() == 0.0 => format!("{}", x as u64),
        Some(x) => format!("{x:.3}"),
    }
}

/// Least-squares slope of `y` against `x` (used for the polylog-exponent
/// fits in the scaling experiment: regress `ln rounds` on `ln ln n`).
pub fn ls_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// The standard measurement cells of one row, in the order of
/// [`measurement_headers`].
pub fn measurement_cells(graph: &str, n: usize, m: &Measurement) -> Vec<String> {
    vec![
        graph.to_string(),
        n.to_string(),
        m.algorithm.clone(),
        m.model.clone(),
        m.class.clone(),
        opt(m.colors),
        opt(m.strong_diameter),
        opt(m.weak_diameter),
        wopt(m.weighted_strong_diameter),
        wopt(m.weighted_weak_diameter),
        frac(m.dead_fraction),
        m.rounds.to_string(),
        m.max_message_bits.to_string(),
        if m.congest_ok {
            "yes".into()
        } else {
            "NO".into()
        },
    ]
}

/// The standard measurement column headers matching
/// [`measurement_cells`].
pub fn measurement_headers() -> Vec<&'static str> {
    vec![
        "graph",
        "n",
        "algorithm",
        "model",
        "class",
        "colors",
        "strongD",
        "weakD",
        "wStrongD",
        "wWeakD",
        "dead",
        "rounds",
        "maxMsgBits",
        "congest",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "x,y"]);
        let md = t.to_markdown();
        assert!(md.contains("| a"));
        assert!(md.lines().count() == 3);
        let path = t.write_csv("test_table.csv").unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("\"x,y\""));
    }

    #[test]
    fn slope_of_linear_data() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((ls_slope(&xs, &ys) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn suite_generates_connected_graphs() {
        for (name, g) in graph_suite(64, 1) {
            assert!(g.n() >= 32, "{name} too small");
            assert!(
                sdnd_graph::algo::is_connected(&g.full_view()),
                "{name} disconnected"
            );
        }
    }

    #[test]
    fn table2_rows_on_tiny_graph() {
        let g = sdnd_graph::gen::grid(5, 5);
        let rows = run_table2_row_set(&g, 0.5, 7);
        assert_eq!(rows.len(), 8);
        // Every strong row with connected clusters reports a diameter.
        for r in &rows {
            if r.class == "strong" {
                assert!(
                    r.strong_diameter.is_some(),
                    "{} lost connectivity",
                    r.algorithm
                );
            }
            if r.algorithm != "abcp96-local" && r.algorithm != "ls93-sequential" {
                assert!(r.congest_ok, "{} broke CONGEST", r.algorithm);
            }
        }
    }

    #[test]
    fn table1_rows_on_tiny_graph() {
        let g = sdnd_graph::gen::grid(5, 5);
        let rows = run_table1_row_set(&g, 7);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.colors.is_some());
            assert!(r.rounds > 0, "{} charged no rounds", r.algorithm);
        }
    }
}
