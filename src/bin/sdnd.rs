//! `sdnd` — command-line interface to the decomposition stack.
//!
//! A downstream-friendly entry point: generate graphs, run any of the
//! carvers/decomposers on an edge-list file, validate the output, and
//! export the clustering as CSV.
//!
//! ```console
//! $ sdnd gen --family grid --n 256 > grid.edges
//! $ sdnd decompose --algorithm thm2.3 --input grid.edges --output clusters.csv
//! $ sdnd carve --algorithm mpx13 --eps 0.25 --input grid.edges
//! ```
//!
//! Edge-list format: one `u v` pair per line (0-based indices), with an
//! optional third column holding the edge weight (`u v w`); lines
//! starting with `#` are ignored; node count is one past the largest
//! index (or `--nodes`). The `--weights` flag controls the metric:
//! `uniform:lo,hi` draws seeded weights (integer-valued when both
//! bounds are integers), `file` requires the third column, `unit`
//! stores weight 1 on every edge, and by default the third column is
//! used when present.

use sdnd::clustering::{validate_carving_in, validate_decomposition_in, CarveCtx};
use sdnd::congest::{primitives, Engine};
use sdnd::core::registry::{self, Algorithm, ALGORITHMS};
use sdnd::graph::dataset::{self, CacheStatus, LoadOptions, SourceStamp, WeightMode};
use sdnd::graph::{NodeOrder, Relabeling};
use sdnd::prelude::*;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            if e.show_usage {
                eprintln!();
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

/// A CLI failure. Argument and usage problems reprint the usage text;
/// runtime diagnostics (I/O failures, engine errors such as
/// `EngineError::RoundLimitExceeded`, round-budget violations) stand
/// alone.
#[derive(Debug)]
struct CliError {
    msg: String,
    show_usage: bool,
}

impl CliError {
    fn runtime(msg: impl Into<String>) -> Self {
        CliError {
            msg: msg.into(),
            show_usage: false,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError {
            msg,
            show_usage: true,
        }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::from(msg.to_string())
    }
}

const USAGE: &str = "\
usage: sdnd <command> [options]

commands:
  gen        --family <grid|cycle|path|tree|gnp|expander|barrier|rmat|geometric>
             --n <N> [--seed S] [--weights uniform:lo,hi|unit]
             [--edge-factor F] [--radius R] [--output edges.txt] [--cache]
             writes an edge list to stdout or --output (weighted: `u v w`
             lines); rmat (n rounds up to a power of two; --edge-factor
             attempted edges per node, default 8) and geometric
             (--radius, default the ~6-neighbor threshold) stream to
             millions of edges; --cache also writes the binary CSR form
             next to --output
  ingest     <file> [--nodes N] [--weights file] [--layout L]
             parses an edge list (gzip `.gz` transparently), writes the
             binary CSR cache next to it (`<file>.csrbin`), and reports
             load statistics; a second ingest hits the cache and skips
             the text parse entirely
  decompose  --algorithm <{decompose}>
             --input <edges.txt> [--nodes N] [--seed S] [--output out.csv]
             [--max-rounds R] [--weights uniform:lo,hi|file|unit]
             [--layout L] [--cache]
             computes a network decomposition and prints its quality;
             weighted inputs grow weighted balls (thm2.3) and report
             weighted diameters; fails cleanly if the simulated cost
             exceeds R rounds (post-hoc: the local computation runs to
             completion)
  carve      --algorithm <{carve}>
             --eps <f> --input <edges.txt> [--nodes N] [--seed S] [--output out.csv]
             [--weights uniform:lo,hi|file|unit] [--layout L] [--cache]
             computes a single ball carving
  simulate   --input <edges.txt> [--source V] [--threads T] [--max-rounds R]
             [--nodes N] [--repeat K] [--weights uniform:lo,hi|file|unit]
             [--layout L] [--cache] [--lane sync|async]
             [--faults drop=p,dup=q,delay=d,crash=k] [--fault-seed S]
             [--fault-report F]
             runs a BFS flood on the message-passing engine — the
             weighted SpBfs kernel when the graph carries weights (T > 1
             selects the deterministic parallel stepping lane); K > 1
             repeats the run on one engine session (slot arenas built
             once, reused) and reports the amortized per-run wall time.
             --lane async runs node tasks over real channels under an
             α-synchronizer with a seeded fault adversary (T = worker
             shards, T = 1 runs inline on the calling thread;
             --max-rounds bounds synchronizer pulses, default
             1000000); zero-fault async runs are cross-checked
             bit-for-bit against the synchronous engine, faulted runs
             are label-validated and exit nonzero with a structured
             diagnostic when the faults corrupted the outcome;
             --fault-report writes the per-class fault counters as CSV
  validate   --input <edges.txt> --clusters <out.csv> [--nodes N]
             [--weights uniform:lo,hi|file|unit] [--approx[=p]]
             [--layout L] [--cache] [--timing]
             re-checks a previously exported clustering (non-adjacency,
             connectivity, color separation); weighted inputs also
             report exact Dijkstra-oracle cluster diameters; --approx
             swaps the exact diameter sweep for HyperBall cardinality
             sketches with 2^p registers per node (default p = 6) —
             structural checks stay exact, diameters become one-sided
             estimates with a reported error band; --timing appends the
             per-phase wall clock (load, structural gates, diameter
             sweeps, total) to the exact-tier report
  serve      [--socket /path.sock] [--queue N] [--lru N] [--graph SPEC]
             runs the decomposition daemon: graphs load once, then a
             newline-framed request mix (load, decompose, carve,
             cluster-of, distance-in-cluster, validate[:approx], stats,
             shutdown) is served over stdin/stdout (default) or a Unix
             socket (--socket; the path must not exist). Finished
             decompositions live in an LRU keyed by (graph content
             hash, algorithm, eps, seed). `deadline=<ms>` on any
             request arms a cooperative wall-clock budget checked at
             pipeline phase boundaries (`err cancelled phase=...`);
             beyond --queue (default 32) in-flight requests, admission
             sheds with `err overloaded retry-after-ms=...`; `validate`
             under a tight budget degrades exact -> approx and reports
             the answering tier; a panicking request poisons only the
             carving session, which is rebuilt. --graph preloads a
             graph (a path, or grid:RxC | cycle:N | path:N | gnp:N:SEED)

weights:
  uniform:lo,hi  seeded per-edge weights, integer-valued when lo and hi
                 are integers (overrides any third column)
  file           use the edge list's third column (error if absent)
  unit           store weight 1 on every edge (weighted unit metric)
  (default)      third column when present, else unweighted

layouts (--layout, default natural):
  natural        keep the file's node labels
  bfs            BFS visitation order from per-component anchors
  hilbert        Hilbert curve through a BFS-coordinate embedding
  morton         Morton (Z-order) curve through the same embedding
  relabeling is internal: CSV exports, --source, and --clusters always
  speak the file's original node ids

caching (--cache):
  load through the binary CSR cache next to the input (`.csrbin`),
  writing it on the first (cold) run; stale caches are re-parsed";

/// [`USAGE`] with the registry's names filled in.
fn usage() -> String {
    let names = |name: fn(&Algorithm) -> &'static str| {
        ALGORITHMS.iter().map(name).collect::<Vec<_>>().join("|")
    };
    USAGE
        .replace("{decompose}", &names(|a| a.decompose_name))
        .replace("{carve}", &names(|a| a.carve_name))
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().ok_or("missing command")?;
    if cmd == "ingest" {
        // `ingest` takes its file positionally: `sdnd ingest edges.txt`.
        let path = args
            .get(1)
            .filter(|p| !p.starts_with("--"))
            .ok_or("ingest wants a file: sdnd ingest <edges.txt> [options]")?;
        let opts = parse_opts(&args[2..])?;
        return cmd_ingest(path, &opts);
    }
    let opts = parse_opts(&args[1..])?;
    match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "decompose" => cmd_decompose(&opts),
        "carve" => cmd_carve(&opts),
        "simulate" => cmd_simulate(&opts),
        "validate" => cmd_validate(&opts),
        "serve" => cmd_serve(&opts),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

struct Opts {
    map: std::collections::HashMap<String, String>,
}

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }
    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants an integer")),
        }
    }
    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a number")),
        }
    }
    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        self.u64_opt(key).map(|v| v.unwrap_or(default))
    }
    fn u64_opt(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key} wants an integer")))
            .transpose()
    }
}

/// Options that may appear bare (`--approx`, `--cache`) or inline
/// (`--approx=8`); everything else is a strict `--key value` pair.
const BARE_FLAGS: &[&str] = &["approx", "cache", "timing"];

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut map = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got `{}`", args[i]))?;
        if let Some((k, v)) = key.split_once('=') {
            map.insert(k.to_string(), v.to_string());
            i += 1;
            continue;
        }
        if BARE_FLAGS.contains(&key) {
            // Presence flag: an empty value means "use the default".
            map.insert(key.to_string(), String::new());
            i += 1;
            continue;
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), val.clone());
        i += 2;
    }
    Ok(Opts { map })
}

fn cmd_gen(opts: &Opts) -> Result<(), CliError> {
    let family = opts.require("family")?;
    let n = opts.usize_or("n", 256)?;
    let seed = opts.usize_or("seed", 42)? as u64;
    let g = match family {
        "grid" => {
            let side = (n as f64).sqrt().round().max(2.0) as usize;
            sdnd::graph::gen::grid(side, side)
        }
        "cycle" => sdnd::graph::gen::cycle(n),
        "path" => sdnd::graph::gen::path(n),
        "tree" => sdnd::graph::gen::random_tree(n, seed),
        "gnp" => sdnd::graph::gen::gnp_connected(n, 6.0 / n.max(7) as f64, seed),
        "expander" => sdnd::graph::gen::random_regular_connected(n - n % 2, 4, seed)
            .map_err(|e| e.to_string())?,
        "barrier" => sdnd::graph::gen::barrier_graph(n, 0.5, 4, seed)
            .map_err(|e| e.to_string())?
            .into_graph(),
        "rmat" => {
            // `--n` rounds up to the RMAT power-of-two node count.
            let scale = n.max(2).next_power_of_two().trailing_zeros();
            let edge_factor = opts.usize_or("edge-factor", 8)?;
            sdnd::graph::gen::rmat(scale, edge_factor, seed).map_err(|e| e.to_string())?
        }
        "geometric" => {
            // Default radius targets mean degree ~6 (pi r^2 n = 6):
            // comfortably above the connectivity threshold, sparse
            // enough that m stays linear in n.
            let radius = opts.f64_or("radius", (6.0 / (std::f64::consts::PI * n as f64)).sqrt())?;
            sdnd::graph::gen::random_geometric(n, radius, seed).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown family `{other}`").into()),
    };
    let spec = WeightSpec::parse(opts)?;
    if spec == WeightSpec::File {
        return Err("--weights file makes no sense for gen (there is no input file)".into());
    }
    let g = match spec.dist() {
        Some(dist) => sdnd::graph::gen::reweight(&g, dist, seed).map_err(|e| e.to_string())?,
        None => g,
    };
    let output = opts.get("output");
    if opts.get("cache").is_some() && output.is_none() {
        return Err(
            "--cache needs --output (the binary cache sits next to the written file)".into(),
        );
    }
    let runtime = |e: std::io::Error| CliError::runtime(e.to_string());
    let stdout = std::io::stdout();
    let mut out: Box<dyn std::io::Write> = match output {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| CliError::runtime(format!("{path}: {e}")))?,
        )),
        None => Box::new(stdout.lock()),
    };
    writeln!(out, "# sdnd {family} n={} m={}", g.n(), g.m()).map_err(runtime)?;
    if g.is_weighted() {
        for (u, v, w) in g.weighted_edges() {
            writeln!(out, "{u} {v} {w}").map_err(runtime)?;
        }
    } else {
        for (u, v) in g.edges() {
            writeln!(out, "{u} {v}").map_err(runtime)?;
        }
    }
    out.flush().map_err(runtime)?;
    drop(out);
    if let Some(path) = output {
        println!("edge list:      {path} (n = {}, m = {})", g.n(), g.m());
        if opts.get("cache").is_some() {
            // The graph is already in memory; caching it here makes the
            // first downstream `--cache` load warm.
            let source = Path::new(path);
            let stamp = SourceStamp::of(source).map_err(|e| CliError::runtime(e.to_string()))?;
            let cache = dataset::cache_path_for(source);
            dataset::write_cache(&cache, &g, Some(&stamp))
                .map_err(|e| CliError::runtime(e.to_string()))?;
            println!("csr cache:      {}", cache.display());
        }
    }
    Ok(())
}

fn cmd_ingest(path: &str, opts: &Opts) -> Result<(), CliError> {
    let spec = WeightSpec::parse(opts)?;
    if spec.dist().is_some() {
        return Err(
            "--weights unit/uniform are load-time transforms; ingest caches the file's \
             own content (use `--weights file` or the default)"
                .into(),
        );
    }
    let load_opts = LoadOptions {
        nodes: opts
            .get("nodes")
            .map(|v| {
                v.parse()
                    .map_err(|_| "--nodes wants an integer".to_string())
            })
            .transpose()?,
        weights: match spec {
            WeightSpec::File => WeightMode::Require,
            _ => WeightMode::Auto,
        },
    };
    let order = parse_layout(opts)?;
    let started = std::time::Instant::now();
    let (g, status) = dataset::load_cached(Path::new(path), &load_opts, true)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    let elapsed = started.elapsed();
    println!("graph:          n = {}, m = {}", g.n(), g.m());
    println!(
        "metric:         {}",
        if g.is_weighted() {
            "weighted (third column)"
        } else {
            "hop (no weight column)"
        }
    );
    println!(
        "cache:          {} ({})",
        dataset::cache_path_for(Path::new(path)).display(),
        match status {
            CacheStatus::Hit => "hit — text parse skipped",
            CacheStatus::Written => "written (cold parse)",
            CacheStatus::Bypassed => "bypassed",
        }
    );
    println!("load time:      {:.3} ms", elapsed.as_secs_f64() * 1e3);
    if !matches!(order, NodeOrder::Natural) {
        // Relabel once so the layout cost is visible to the user; the
        // cache itself always stores the file's natural labels.
        let started = std::time::Instant::now();
        let (rg, _) = g.relabeled(order);
        println!(
            "relabel:        {:?} in {:.3} ms (max degree {})",
            order,
            started.elapsed().as_secs_f64() * 1e3,
            rg.max_degree()
        );
    }
    Ok(())
}

/// How `--weights` asks for the metric of a loaded or generated graph.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WeightSpec {
    /// No flag: use the edge list's third column when present.
    Auto,
    /// `unit`: store weight 1 on every edge.
    Unit,
    /// `file`: require the third column.
    File,
    /// `uniform:lo,hi`: seeded per-edge weights, integer-valued when
    /// both bounds are integers.
    Uniform { lo: f64, hi: f64 },
}

impl WeightSpec {
    fn parse(opts: &Opts) -> Result<WeightSpec, String> {
        let Some(spec) = opts.get("weights") else {
            return Ok(WeightSpec::Auto);
        };
        match spec {
            "unit" => Ok(WeightSpec::Unit),
            "file" => Ok(WeightSpec::File),
            _ => {
                let range = spec.strip_prefix("uniform:").ok_or_else(|| {
                    format!("--weights wants uniform:lo,hi, file, or unit; got `{spec}`")
                })?;
                let (lo, hi) = range
                    .split_once(',')
                    .ok_or_else(|| format!("--weights uniform wants `lo,hi`, got `{range}`"))?;
                let parse = |t: &str| -> Result<f64, String> {
                    t.parse()
                        .map_err(|_| format!("--weights uniform: bad bound `{t}`"))
                };
                Ok(WeightSpec::Uniform {
                    lo: parse(lo)?,
                    hi: parse(hi)?,
                })
            }
        }
    }

    /// The generator distribution for a `uniform` or `unit` spec.
    fn dist(&self) -> Option<sdnd::graph::gen::WeightDist> {
        use sdnd::graph::gen::WeightDist;
        match *self {
            WeightSpec::Unit => Some(WeightDist::Unit),
            WeightSpec::Uniform { lo, hi } => {
                // Only well-ordered non-negative integer bounds take the
                // integer branch — a reversed range must NOT saturate
                // into UniformInt{0,0}, it must fall through so the
                // distribution's own validation rejects it.
                if lo.fract() == 0.0 && hi.fract() == 0.0 && lo >= 0.0 && hi >= lo {
                    Some(WeightDist::UniformInt {
                        lo: lo as u64,
                        hi: hi as u64,
                    })
                } else {
                    Some(WeightDist::Uniform { lo, hi })
                }
            }
            WeightSpec::Auto | WeightSpec::File => None,
        }
    }
}

/// Parses `--layout` into a [`NodeOrder`] (default: `natural`).
fn parse_layout(opts: &Opts) -> Result<NodeOrder, String> {
    Ok(match opts.get("layout").unwrap_or("natural") {
        "natural" => NodeOrder::Natural,
        "bfs" => NodeOrder::Bfs,
        "hilbert" => NodeOrder::Hilbert,
        "morton" => NodeOrder::Morton,
        other => {
            return Err(format!(
                "--layout wants natural|bfs|hilbert|morton, got `{other}`"
            ))
        }
    })
}

/// Loads `--input` through the dataset layer (gzip and `.csrbin` inputs
/// transparent, `--cache` opt-in), applies `--weights`, and relabels
/// per `--layout`. The returned [`Relabeling`] maps between the file's
/// original ids and the in-memory ids; it is the identity for the
/// default natural layout.
fn load_graph(opts: &Opts) -> Result<(Graph, Relabeling), String> {
    let path = opts.require("input")?;
    let spec = WeightSpec::parse(opts)?;
    let seed = opts.u64_or("seed", 42)?;
    let order = parse_layout(opts)?;
    let load_opts = LoadOptions {
        nodes: opts
            .get("nodes")
            .map(|v| {
                v.parse()
                    .map_err(|_| "--nodes wants an integer".to_string())
            })
            .transpose()?,
        weights: match spec {
            WeightSpec::File => WeightMode::Require,
            WeightSpec::Auto => WeightMode::Auto,
            // `unit`/`uniform` replace whatever the file carried, so the
            // third column is never materialized.
            WeightSpec::Unit | WeightSpec::Uniform { .. } => WeightMode::Ignore,
        },
    };
    let source = Path::new(path);
    let g = if opts.get("cache").is_some() || source.extension().is_some_and(|e| e == "csrbin") {
        dataset::load_cached(source, &load_opts, opts.get("cache").is_some())
            .map(|(g, _)| g)
            .map_err(|e| e.to_string())?
    } else {
        dataset::load_edge_list(source, &load_opts).map_err(|e| e.to_string())?
    };
    let g = match spec.dist() {
        Some(dist) => sdnd::graph::gen::reweight(&g, dist, seed).map_err(|e| e.to_string())?,
        None => g,
    };
    Ok(g.relabeled(order))
}

/// Formats a weighted diameter: integers print clean, fractions with
/// three decimals.
fn fmt_weighted(d: Option<f64>) -> String {
    match d {
        None => "—".into(),
        Some(d) if d.fract() == 0.0 => format!("{}", d as u64),
        Some(d) => format!("{d:.3}"),
    }
}

fn write_clusters(
    path: &str,
    assignments: impl Iterator<Item = (NodeId, usize, u32)>,
) -> Result<(), String> {
    let mut s = String::from("node,cluster,color\n");
    for (v, c, col) in assignments {
        s.push_str(&format!("{v},{c},{col}\n"));
    }
    std::fs::write(path, s).map_err(|e| e.to_string())
}

fn cmd_decompose(opts: &Opts) -> Result<(), CliError> {
    // Validate the round budget and the name up front — a bad flag must
    // not cost a full decomposition run.
    let round_budget = opts.u64_opt("max-rounds")?;
    let name = opts.require("algorithm")?;
    let algo =
        registry::find_decompose(name).ok_or_else(|| format!("unknown algorithm `{name}`"))?;
    let (g, relab) = load_graph(opts).map_err(CliError::runtime)?;
    let seed = opts.u64_or("seed", 42)?;
    let mut ledger = RoundLedger::new();
    let mut ctx = CarveCtx::new();
    let d = algo
        .decompose_in(seed, &g, &mut ledger, &mut ctx)
        .expect("unarmed ctx never cancels");

    if let Some(limit) = round_budget {
        if ledger.rounds() > limit {
            // Post-hoc budget check: the local computation completed;
            // only the *simulated* CONGEST cost is over budget (the
            // genuine mid-run `EngineError::RoundLimitExceeded` path is
            // exercised by `simulate`, which drives the real engine).
            return Err(CliError::runtime(format!(
                "round budget exceeded: the simulated CONGEST execution needs {} rounds, \
                 over --max-rounds {limit}",
                ledger.rounds()
            )));
        }
    }

    let report = validate_decomposition_in(&g, &d, &mut ctx).expect("unarmed ctx never cancels");
    println!("graph:          n = {}, m = {}", g.n(), g.m());
    println!("algorithm:      {name}");
    println!("metric:         {}", metric_line(&g));
    println!("colors (C):     {}", d.num_colors());
    println!("clusters:       {}", d.num_clusters());
    print_diameters(
        &g,
        report.max_strong_diameter,
        report.max_weak_diameter,
        report.weighted_strong_diameter,
        report.weighted_weak_diameter,
    );
    println!("rounds:         {}", ledger.rounds());
    println!("max msg bits:   {}", ledger.max_message_bits());
    println!(
        "color-valid:    {}",
        if report.is_valid_weak() { "yes" } else { "NO" }
    );
    if let Some(path) = opts.get("output") {
        // CSV exports always speak the file's original node ids, so a
        // clustering computed under any --layout validates against the
        // same input loaded under any other.
        write_clusters(
            path,
            g.nodes().map(|v| {
                let c = d.cluster_of(v).expect("decomposition covers all nodes");
                (relab.old_of(v), c.0 as usize, d.color(c))
            }),
        )
        .map_err(CliError::runtime)?;
        println!("clusters csv:   {path}");
    }
    Ok(())
}

fn cmd_carve(opts: &Opts) -> Result<(), CliError> {
    let name = opts.require("algorithm")?;
    let algo = registry::find_carve(name).ok_or_else(|| format!("unknown algorithm `{name}`"))?;
    let eps = opts.f64_or("eps", 0.5)?;
    if !(eps > 0.0 && eps < 1.0) {
        return Err(format!("--eps must lie in (0, 1), got {eps}").into());
    }
    let (g, relab) = load_graph(opts).map_err(CliError::runtime)?;
    let seed = opts.u64_or("seed", 42)?;
    let alive = NodeSet::full(g.n());
    let mut ledger = RoundLedger::new();
    let mut ctx = CarveCtx::new();
    let carving = algo
        .carve_in(seed, &g, &alive, eps, &mut ledger, &mut ctx)
        .expect("unarmed ctx never cancels");

    let report = validate_carving_in(&g, &carving, &mut ctx).expect("unarmed ctx never cancels");
    println!("graph:          n = {}, m = {}", g.n(), g.m());
    println!("algorithm:      {name} (eps = {eps})");
    println!("metric:         {}", metric_line(&g));
    println!("clusters:       {}", carving.num_clusters());
    println!("dead fraction:  {:.4}", report.dead_fraction);
    print_diameters(
        &g,
        report.max_strong_diameter,
        report.max_weak_diameter,
        report.weighted_strong_diameter,
        report.weighted_weak_diameter,
    );
    println!("rounds:         {}", ledger.rounds());
    if let Some(path) = opts.get("output") {
        write_clusters(
            path,
            g.nodes()
                .filter_map(|v| carving.cluster_of(v).map(|c| (relab.old_of(v), c, 0))),
        )
        .map_err(CliError::runtime)?;
        println!("clusters csv:   {path}");
    }
    Ok(())
}

/// The `metric:` line of `decompose` and `carve`.
fn metric_line(g: &Graph) -> &'static str {
    if g.is_weighted() {
        "weighted (Dijkstra oracle)"
    } else {
        "hop (unweighted input)"
    }
}

/// The diameter lines of `decompose` and `carve`; the weighted pair
/// only for weighted inputs.
fn print_diameters(
    g: &Graph,
    strong: Option<u32>,
    weak: Option<u32>,
    weighted_strong: Option<f64>,
    weighted_weak: Option<f64>,
) {
    println!(
        "strong D:       {}",
        strong.map_or("—".into(), |d| d.to_string())
    );
    println!(
        "weak D:         {}",
        weak.map_or("—".into(), |d| d.to_string())
    );
    if g.is_weighted() {
        println!("w strong D:     {}", fmt_weighted(weighted_strong));
        println!("w weak D:       {}", fmt_weighted(weighted_weak));
    }
}

fn cmd_simulate(opts: &Opts) -> Result<(), CliError> {
    let (g, relab) = load_graph(opts).map_err(CliError::runtime)?;
    let source = opts.usize_or("source", 0)?;
    if source >= g.n() {
        return Err(format!("--source {source} out of range (n = {})", g.n()).into());
    }
    // `--source` names the file's original id; the flood starts from its
    // in-memory counterpart.
    let source = relab.new_of(NodeId::new(source)).index();
    let threads = opts.usize_or("threads", 1)?;
    let max_rounds = opts.u64_or("max-rounds", 1_000_000)?;
    let repeat = opts.usize_or("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    match opts.get("lane").unwrap_or("sync") {
        "sync" => {}
        "async" => return simulate_async(opts, &g, source, threads, max_rounds, repeat),
        other => return Err(format!("unknown --lane `{other}` (sync|async)").into()),
    }
    for key in ["faults", "fault-seed", "fault-report"] {
        if opts.get(key).is_some() {
            return Err(format!("--{key} needs --lane async").into());
        }
    }

    let view = g.full_view();
    let cost = CostModel::congest_for(g.n());
    let engine = Engine::new(cost)
        .with_max_rounds(max_rounds)
        .with_threads(threads);

    // All repeats share one session: the slot arenas, reverse-edge table,
    // and shard layout are built once, so the amortized per-run time is
    // proportional to the protocol's traffic, not to m. Weighted inputs
    // run the SpBfs (distributed Bellman–Ford) kernel; unweighted inputs
    // the plain BFS kernel.
    let mut session = engine.session(&g);

    /// Runs `kernel` `repeat` times on one session, returning the last
    /// outcome's rounds/ledger plus the count of states matching
    /// `reached` (shared by the BFS and SpBfs arms, whose state types
    /// differ).
    fn run_repeated<P, F>(
        session: &mut sdnd::congest::EngineSession<'_>,
        view: &sdnd_graph::FullView<'_>,
        kernel: &P,
        repeat: usize,
        reached: F,
    ) -> Result<(u64, RoundLedger, usize), CliError>
    where
        P: sdnd::congest::Protocol + Sync,
        P::Msg: Send + Sync + 'static,
        P::State: Send,
        F: Fn(&P::State) -> bool,
    {
        let mut out = session
            .run(view, kernel)
            .map_err(|e| CliError::runtime(e.to_string()))?;
        for _ in 1..repeat {
            let rerun = session
                .run(view, kernel)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            debug_assert_eq!(rerun.rounds, out.rounds, "session reruns are deterministic");
            out = rerun;
        }
        let n = out.states.iter().flatten().filter(|s| reached(s)).count();
        Ok((out.rounds, out.ledger, n))
    }

    let started = std::time::Instant::now();
    let (rounds, run_ledger, reached) = if g.is_weighted() {
        let kernel = primitives::SpBfsKernel::new(&view, [NodeId::new(source)], f64::INFINITY);
        run_repeated(&mut session, &view, &kernel, repeat, |s| s.dist.is_some())?
    } else {
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(source)], u32::MAX);
        run_repeated(&mut session, &view, &kernel, repeat, |s| s.dist.is_some())?
    };
    let elapsed = started.elapsed();

    println!("graph:          n = {}, m = {}", g.n(), g.m());
    println!(
        "protocol:       {} flood from node {source}",
        if g.is_weighted() {
            "weighted sp-bfs (Bellman–Ford)"
        } else {
            "bfs"
        }
    );
    println!(
        "lane:           {}",
        if threads > 1 {
            format!("parallel x{threads}")
        } else {
            "sequential".into()
        }
    );
    println!("rounds:         {rounds}");
    println!("messages:       {}", run_ledger.messages());
    println!("total bits:     {}", run_ledger.total_bits());
    println!(
        "max msg bits:   {} (budget {})",
        run_ledger.max_message_bits(),
        cost.bits_per_message()
    );
    println!("reached:        {reached}");
    if repeat > 1 {
        println!("runs:           {repeat} (one engine session, arenas reused)");
        println!(
            "amortized:      {:.3} ms/run",
            elapsed.as_secs_f64() * 1e3 / repeat as f64
        );
    }
    Ok(())
}

/// Parses `--faults drop=p,dup=q,delay=d,crash=k` (any subset, any
/// order) plus `--fault-seed` into an [`Adversary`].
fn parse_adversary(opts: &Opts) -> Result<sdnd::congest::Adversary, CliError> {
    use sdnd::congest::Adversary;
    let seed = opts.u64_or("fault-seed", 42)?;
    let mut adversary = Adversary::new(seed);
    let Some(spec) = opts.get("faults") else {
        return Ok(adversary);
    };
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (knob, val) = part
            .split_once('=')
            .ok_or_else(|| format!("--faults: `{part}` is not knob=value"))?;
        fn parse<T: std::str::FromStr>(knob: &str, val: &str) -> Result<T, String> {
            val.parse()
                .map_err(|_| format!("--faults: `{val}` is not a number for {knob}"))
        }
        adversary = match knob {
            "drop" => adversary.with_drop_rate(parse(knob, val)?),
            "dup" => adversary.with_duplicate_rate(parse(knob, val)?),
            "delay" => adversary.with_max_delay(parse(knob, val)?),
            "crash" => adversary.with_crashes(parse(knob, val)?),
            other => {
                return Err(
                    format!("--faults: unknown knob `{other}` (drop|dup|delay|crash)").into(),
                )
            }
        };
    }
    Ok(adversary)
}

/// `sdnd simulate --lane async`: the same flood kernels over the
/// α-synchronizer lane with a seeded fault adversary. Zero-fault runs
/// are cross-checked bit-for-bit against the synchronous engine; faulted
/// runs are label-validated, and a corrupted outcome exits nonzero with
/// a structured [`FaultDiagnostic`](sdnd::congest::FaultDiagnostic).
fn simulate_async(
    opts: &Opts,
    g: &Graph,
    source: usize,
    workers: usize,
    max_pulses: u64,
    repeat: usize,
) -> Result<(), CliError> {
    use sdnd::congest::{run_async, AsyncConfig, FaultDiagnostic};

    let adversary = parse_adversary(opts)?;
    let zero_fault = adversary.is_zero_fault();
    let cfg = AsyncConfig::new(adversary)
        .with_workers(workers)
        .with_max_pulses(max_pulses);
    let view = g.full_view();
    let cost = CostModel::congest_for(g.n());
    let engine = Engine::new(cost);
    let source_node = NodeId::new(source);

    // The failure path is shared by both kernels: print the transport
    // accounting, then surface the typed error as a runtime diagnostic.
    let fail = |failure: Box<sdnd::congest::AsyncFailure>| {
        print!("{}", failure.report.summary_table());
        CliError::runtime(format!("async lane failed: {}", failure.error))
    };

    let started = std::time::Instant::now();
    let (rounds, run_ledger, reached, report, dists) = if g.is_weighted() {
        let kernel = primitives::SpBfsKernel::new(&view, [source_node], f64::INFINITY);
        let mut lane = run_async(&engine, &view, &kernel, &cfg).map_err(fail)?;
        for _ in 1..repeat {
            let rerun = run_async(&engine, &view, &kernel, &cfg).map_err(fail)?;
            debug_assert_eq!(rerun.outcome.rounds, lane.outcome.rounds);
            lane = rerun;
        }
        if zero_fault {
            let sync = engine
                .run(&view, &kernel)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            if lane.outcome.states != sync.states
                || lane.outcome.rounds != sync.rounds
                || lane.outcome.ledger != sync.ledger
            {
                return Err(CliError::runtime(
                    "internal error: zero-fault async run diverged from the synchronous engine",
                ));
            }
        }
        let dists: Vec<Option<f64>> = lane
            .outcome
            .states
            .iter()
            .map(|s| s.as_ref().and_then(|s| s.dist))
            .collect();
        let reached = dists.iter().flatten().count();
        (
            lane.outcome.rounds,
            lane.outcome.ledger,
            reached,
            lane.report,
            dists,
        )
    } else {
        let kernel = primitives::BfsKernel::new(&view, [source_node], u32::MAX);
        let mut lane = run_async(&engine, &view, &kernel, &cfg).map_err(fail)?;
        for _ in 1..repeat {
            let rerun = run_async(&engine, &view, &kernel, &cfg).map_err(fail)?;
            debug_assert_eq!(rerun.outcome.rounds, lane.outcome.rounds);
            lane = rerun;
        }
        if zero_fault {
            let sync = engine
                .run(&view, &kernel)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            if lane.outcome.states != sync.states
                || lane.outcome.rounds != sync.rounds
                || lane.outcome.ledger != sync.ledger
            {
                return Err(CliError::runtime(
                    "internal error: zero-fault async run diverged from the synchronous engine",
                ));
            }
        }
        let dists: Vec<Option<f64>> = lane
            .outcome
            .states
            .iter()
            .map(|s| s.as_ref().and_then(|s| s.dist).map(f64::from))
            .collect();
        let reached = dists.iter().flatten().count();
        (
            lane.outcome.rounds,
            lane.outcome.ledger,
            reached,
            lane.report,
            dists,
        )
    };
    let elapsed = started.elapsed();

    println!("graph:          n = {}, m = {}", g.n(), g.m());
    println!(
        "protocol:       {} flood from node {source}",
        if g.is_weighted() {
            "weighted sp-bfs (Bellman–Ford)"
        } else {
            "bfs"
        }
    );
    println!(
        "lane:           async x{workers} (α-synchronizer, fault seed {})",
        cfg.adversary.seed()
    );
    println!("pulses:         {rounds} (budget {max_pulses})");
    println!("messages:       {}", run_ledger.messages());
    println!("total bits:     {}", run_ledger.total_bits());
    println!(
        "max msg bits:   {} (budget {})",
        run_ledger.max_message_bits(),
        cost.bits_per_message()
    );
    println!("reached:        {reached}");
    if zero_fault {
        println!("cross-check:    bit-identical to the synchronous engine");
    }
    if repeat > 1 {
        println!("runs:           {repeat} (a fresh lane per run)");
        println!(
            "amortized:      {:.3} ms/run",
            elapsed.as_secs_f64() * 1e3 / repeat as f64
        );
    }
    print!("{}", report.summary_table());
    if let Some(path) = opts.get("fault-report") {
        std::fs::write(path, report.to_csv())
            .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        println!("fault report:   {path}");
    }

    // Label validation: triangle-inequality consistency of the surviving
    // flood labels over non-crashed nodes. A violated edge means the
    // faults corrupted the outcome — structured diagnostic, nonzero exit.
    let mut crashed = vec![false; g.n()];
    for c in &report.crashed {
        crashed[c.node.index()] = true;
    }
    let mut violations = Vec::new();
    let tolerance = 1e-9;
    for (u, v) in g.edges() {
        if crashed[u.index()] || crashed[v.index()] {
            continue;
        }
        let w = if g.is_weighted() {
            g.edge_weight(u, v).expect("edge exists")
        } else {
            1.0
        };
        match (dists[u.index()], dists[v.index()]) {
            (Some(du), Some(dv)) => {
                if (du - dv).abs() > w + tolerance {
                    violations.push(format!(
                        "edge ({u}, {v}): dists {du} and {dv} differ by more than the \
                         edge length {w}"
                    ));
                }
            }
            (Some(_), None) | (None, Some(_)) => violations.push(format!(
                "edge ({u}, {v}): one endpoint reached, the other never heard the flood"
            )),
            (None, None) => {}
        }
    }
    if !crashed[source] && dists[source] != Some(0.0) {
        violations.push(format!("source {source} does not hold distance 0"));
    }
    if !violations.is_empty() {
        let diagnostic = FaultDiagnostic {
            reason: format!(
                "faults corrupted the flood labels ({} violated edges)",
                violations.len()
            ),
            violations,
            report,
        };
        return Err(CliError::runtime(diagnostic.to_string()));
    }
    println!(
        "validation:     flood labels consistent on all non-crashed nodes{}",
        if report.crashed.is_empty() {
            String::new()
        } else {
            format!(" ({} crashed nodes excluded)", report.crashed.len())
        }
    );
    Ok(())
}

fn cmd_validate(opts: &Opts) -> Result<(), CliError> {
    // --timing: per-phase wall clock for the exact tier. "load" covers
    // everything before validation proper (graph load, clusters CSV,
    // decomposition construction).
    let timing = opts.get("timing").is_some();
    let total_start = std::time::Instant::now();
    let (g, relab) = load_graph(opts).map_err(CliError::runtime)?;
    let d = read_clusters(opts.require("clusters")?, &g, &relab)?;
    let load = total_start.elapsed();
    // --approx[=p] switches the diameter sweep to the HyperBall
    // estimator tier; the structural gates stay exact either way.
    let approx_params = match opts.get("approx") {
        None => None,
        Some("") => Some(sdnd::graph::algo::HyperBallParams::default()),
        Some(p) => {
            let precision: u8 = p
                .parse()
                .ok()
                .filter(|p| (4..=12).contains(p))
                .ok_or_else(|| "--approx wants a precision in 4..=12".to_string())?;
            Some(sdnd::graph::algo::HyperBallParams::new(precision))
        }
    };
    if let Some(params) = approx_params {
        let report = sdnd_clustering::validate_decomposition_approx(&g, &d, params);
        println!("clusters:       {}", d.num_clusters());
        println!("colors:         {}", d.num_colors());
        println!(
            "radius metric:  hop (HyperBall estimate, 2^{} registers)",
            report.precision
        );
        println!(
            "color-valid:    {}",
            if report.is_valid_weak() { "yes" } else { "NO" }
        );
        println!(
            "connected:      {}",
            if report.clusters_connected {
                "yes"
            } else {
                "NO"
            }
        );
        println!(
            "est strong D:   {}",
            report
                .est_max_strong_diameter
                .map_or("—".into(), |d| d.to_string())
        );
        println!(
            "est weak D:     {}",
            report
                .est_max_weak_diameter
                .map_or("—".into(), |d| d.to_string())
        );
        println!(
            "error band:     ±{:.1}% (observed cardinality error {:.1}%{})",
            report.error_band * 100.0,
            report.max_cardinality_error * 100.0,
            if report.estimator_in_band() {
                ", in band"
            } else {
                ", OUT OF BAND"
            }
        );
        for v in report.violations.iter().take(5) {
            println!("violation:      {v}");
        }
        return Ok(());
    }
    let (report, phases) = sdnd_clustering::validate_decomposition_timed_in(
        &g,
        &d,
        &mut sdnd_clustering::CarveCtx::new(),
    )
    .expect("unarmed ctx never cancels");
    println!("clusters:       {}", d.num_clusters());
    println!("colors:         {}", d.num_colors());
    // The structural checks (non-adjacency, connectivity, colors) are
    // metric-independent; the metric governs the reported diameters.
    println!(
        "radius metric:  {}",
        if g.is_weighted() {
            "weighted (Dijkstra oracle; diameters below)"
        } else {
            "hop (unweighted input)"
        }
    );
    println!(
        "color-valid:    {}",
        if report.is_valid_weak() { "yes" } else { "NO" }
    );
    println!(
        "connected:      {}",
        if report.clusters_connected {
            "yes"
        } else {
            "NO"
        }
    );
    println!(
        "strong D:       {}",
        report
            .max_strong_diameter
            .map_or("—".into(), |d| d.to_string())
    );
    if g.is_weighted() {
        println!(
            "w strong D:     {}",
            fmt_weighted(report.weighted_strong_diameter)
        );
        println!(
            "w weak D:       {}",
            fmt_weighted(report.weighted_weak_diameter)
        );
    }
    for v in report.violations.iter().take(5) {
        println!("violation:      {v}");
    }
    if timing {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!("time load:      {:.3} ms", ms(load));
        println!("time gates:     {:.3} ms", ms(phases.structural));
        println!("time sweeps:    {:.3} ms", ms(phases.diameters));
        println!("time total:     {:.3} ms", ms(total_start.elapsed()));
    }
    Ok(())
}

/// The decomposition a clusters CSV (`node,cluster[,color]`, original
/// node ids) describes over `g`. Clusters are numbered by ascending CSV
/// cluster id, so reports name the CSV's own ids when they are dense,
/// and the same file always gives the same numbering.
fn read_clusters(
    path: &str,
    g: &Graph,
    relab: &Relabeling,
) -> Result<sdnd_clustering::NetworkDecomposition, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    let mut colored: std::collections::BTreeMap<usize, (Vec<NodeId>, u32)> = Default::default();
    let mut covered = NodeSet::empty(g.n());
    for (lineno, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        // Malformed clusters files are runtime diagnostics (bad data, not
        // bad flags): no usage dump.
        let bad = |what: &str| CliError::runtime(format!("{path}: line {}: {what}", lineno + 1));
        let (v, c, col) = parse_cluster_line(line).map_err(bad)?;
        if v >= g.n() {
            return Err(bad(&format!("node {v} out of range (n = {})", g.n())));
        }
        let e = colored.entry(c).or_insert_with(|| (Vec::new(), col));
        if e.1 != col {
            return Err(bad(&format!(
                "cluster {c} already has color {}, not {col}",
                e.1
            )));
        }
        // The CSV speaks original ids; check against the loaded layout's
        // in-memory counterpart.
        let v = relab.new_of(NodeId::new(v));
        e.0.push(v);
        covered.insert(v);
    }
    let clusters: Vec<(Vec<NodeId>, u32)> = colored.into_values().collect();
    sdnd_clustering::NetworkDecomposition::new(&covered, clusters)
        .map_err(|e| CliError::runtime(e.to_string()))
}

/// One data line of a clusters CSV, `node,cluster[,color]`: the node
/// and cluster columns must parse, and so must the color column when
/// present; an absent one means color 0. Columns past the third are
/// ignored.
fn parse_cluster_line(line: &str) -> Result<(usize, usize, u32), &'static str> {
    let mut it = line.split(',');
    let v = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("bad node column")?;
    let c = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("bad cluster column")?;
    let col = match it.next() {
        None => 0,
        Some(t) => t.parse().map_err(|_| "bad color column")?,
    };
    Ok((v, c, col))
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    let config = sdnd_serve::ServeConfig {
        queue_cap: opts.usize_or("queue", 32)?,
        lru_cap: opts.usize_or("lru", 8)?,
        preload: opts.get("graph").map(String::from),
    };
    match opts.get("socket") {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            let handle = sdnd_serve::spawn_unix(&path, &config)
                .map_err(|e| CliError::runtime(format!("bind {}: {e}", path.display())))?;
            eprintln!("sdnd serve: listening on {}", path.display());
            handle.join();
            let _ = std::fs::remove_file(&path);
            Ok(())
        }
        None => sdnd_serve::run_stdio(&config)
            .map_err(|e| CliError::runtime(format!("stdio serve: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn opts(pairs: &[(&str, &str)]) -> Opts {
        let mut map = std::collections::HashMap::new();
        for (k, v) in pairs {
            map.insert(k.to_string(), v.to_string());
        }
        Opts { map }
    }

    #[test]
    fn parse_opts_accepts_pairs_and_rejects_stragglers() {
        let ok =
            parse_opts(&["--n".into(), "12".into(), "--family".into(), "grid".into()]).unwrap();
        assert_eq!(ok.get("n"), Some("12"));
        assert_eq!(ok.require("family").unwrap(), "grid");
        assert!(parse_opts(&["--n".into()]).is_err(), "missing value");
        assert!(
            parse_opts(&["n".into(), "12".into()]).is_err(),
            "missing dashes"
        );
    }

    #[test]
    fn parse_opts_handles_bare_and_inline_flags() {
        // Bare presence flag: empty value means "default precision".
        let bare = parse_opts(&["--approx".into(), "--n".into(), "12".into()]).unwrap();
        assert_eq!(bare.get("approx"), Some(""));
        assert_eq!(bare.get("n"), Some("12"));
        // Inline `=` form carries the value.
        let inline = parse_opts(&["--approx=8".into()]).unwrap();
        assert_eq!(inline.get("approx"), Some("8"));
        // Inline form works for ordinary options too.
        let pair = parse_opts(&["--eps=0.25".into()]).unwrap();
        assert_eq!(pair.get("eps"), Some("0.25"));
    }

    #[test]
    fn numeric_options_validate() {
        let o = opts(&[("eps", "0.25"), ("n", "100")]);
        assert_eq!(o.f64_or("eps", 0.5).unwrap(), 0.25);
        assert_eq!(o.usize_or("n", 7).unwrap(), 100);
        assert_eq!(o.usize_or("missing", 7).unwrap(), 7);
        let bad = opts(&[("eps", "abc")]);
        assert!(bad.f64_or("eps", 0.5).is_err());
    }

    #[test]
    fn load_graph_parses_edge_lists() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        std::fs::write(&path, "# comment\n0 1\n1 2\n\n2 3\n").unwrap();
        let o = opts(&[("input", path.to_str().unwrap())]);
        let (g, relab) = load_graph(&o).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(relab.is_identity(), "default layout is natural");
        // Explicit node count extends the universe.
        let o2 = opts(&[("input", path.to_str().unwrap()), ("nodes", "10")]);
        assert_eq!(load_graph(&o2).unwrap().0.n(), 10);
    }

    #[test]
    fn load_graph_reads_weight_columns() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weighted.txt");
        std::fs::write(&path, "0 1 2.5\n1 2 0.5\n2 3\n").unwrap();
        // Auto: third column present => weighted, missing entries = 1.
        let o = opts(&[("input", path.to_str().unwrap())]);
        let (g, _) = load_graph(&o).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(2.5));
        assert_eq!(g.edge_weight(NodeId::new(2), NodeId::new(3)), Some(1.0));
        // Explicit file spec on a weightless file is an error.
        let plain = dir.join("plain.txt");
        std::fs::write(&plain, "0 1\n1 2\n").unwrap();
        let o = opts(&[("input", plain.to_str().unwrap()), ("weights", "file")]);
        assert!(load_graph(&o).unwrap_err().contains("no third"));
        // uniform:lo,hi overrides the file and is seeded.
        let o = opts(&[
            ("input", path.to_str().unwrap()),
            ("weights", "uniform:1,8"),
            ("seed", "7"),
        ]);
        let (g, _) = load_graph(&o).unwrap();
        assert!(g.is_weighted());
        for (_, _, w) in g.weighted_edges() {
            assert!((1.0..=8.0).contains(&w) && w.fract() == 0.0, "weight {w}");
        }
        assert_eq!(g, load_graph(&o).unwrap().0, "seeded weights deterministic");
        // unit stores weight 1 everywhere.
        let o = opts(&[("input", path.to_str().unwrap()), ("weights", "unit")]);
        let (g, _) = load_graph(&o).unwrap();
        assert!(g.is_weighted());
        assert!(g.weighted_edges().all(|(_, _, w)| w == 1.0));
        // Bad specs and bad weight tokens report cleanly.
        let o = opts(&[("input", path.to_str().unwrap()), ("weights", "nope")]);
        assert!(load_graph(&o).is_err());
        let bad = dir.join("badw.txt");
        std::fs::write(&bad, "0 1 x\n").unwrap();
        let o = opts(&[("input", bad.to_str().unwrap())]);
        assert!(load_graph(&o).unwrap_err().contains("bad edge weight"));
    }

    #[test]
    fn weighted_end_to_end_through_the_cli() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("w_e2e.txt");
        std::fs::write(&edges, "0 1 4\n1 2 1\n2 3 2\n3 0 1\n2 0 8\n").unwrap();
        let clusters = dir.join("w_e2e.csv");
        // decompose (weighted balls) -> validate (weighted radius checks).
        let args: Vec<String> = [
            "decompose",
            "--algorithm",
            "thm2.3",
            "--input",
            edges.to_str().unwrap(),
            "--output",
            clusters.to_str().unwrap(),
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).is_ok());
        let args: Vec<String> = [
            "validate",
            "--input",
            edges.to_str().unwrap(),
            "--clusters",
            clusters.to_str().unwrap(),
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).is_ok());
        // --timing rides along on the exact tier without changing the
        // verdict path.
        let args: Vec<String> = [
            "validate",
            "--input",
            edges.to_str().unwrap(),
            "--clusters",
            clusters.to_str().unwrap(),
            "--timing",
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).is_ok(), "validate --timing");
        // simulate selects the SpBfs kernel on both lanes.
        for threads in ["1", "2"] {
            let args: Vec<String> = [
                "simulate",
                "--input",
                edges.to_str().unwrap(),
                "--threads",
                threads,
                "--repeat",
                "3",
            ]
            .map(String::from)
            .to_vec();
            assert!(run(&args).is_ok(), "weighted simulate x{threads}");
        }
    }

    #[test]
    fn async_lane_simulate_end_to_end() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("async_e2e.txt");
        let g = sdnd::graph::gen::grid(6, 6);
        let mut text = String::new();
        for (u, v) in g.edges() {
            text.push_str(&format!("{u} {v}\n"));
        }
        std::fs::write(&edges, text).unwrap();
        // Zero-fault: cross-checked bit-for-bit against the sync engine.
        for threads in ["1", "3"] {
            let args: Vec<String> = [
                "simulate",
                "--input",
                edges.to_str().unwrap(),
                "--lane",
                "async",
                "--threads",
                threads,
                "--repeat",
                "2",
            ]
            .map(String::from)
            .to_vec();
            assert!(run(&args).is_ok(), "zero-fault async x{threads}");
        }
        // Faulted: accept, or fail with a runtime diagnostic (no usage
        // dump) — never a panic.
        let csv = dir.join("async_e2e_faults.csv");
        let args: Vec<String> = [
            "simulate",
            "--input",
            edges.to_str().unwrap(),
            "--lane",
            "async",
            "--threads",
            "2",
            "--faults",
            "drop=0.02,dup=0.1,delay=1,crash=1",
            "--fault-seed",
            "11",
            "--fault-report",
            csv.to_str().unwrap(),
        ]
        .map(String::from)
        .to_vec();
        match run(&args) {
            Ok(()) => {
                let report = std::fs::read_to_string(&csv).unwrap();
                assert!(report.starts_with("class,count"), "{report}");
                assert!(report.contains("crashes_planned,1"), "{report}");
            }
            Err(e) => assert!(
                !e.show_usage,
                "faulted run fails as a diagnostic: {}",
                e.msg
            ),
        }
        // Fault flags demand the async lane; unknown lanes are rejected.
        let args: Vec<String> = [
            "simulate",
            "--input",
            edges.to_str().unwrap(),
            "--faults",
            "drop=0.5",
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).unwrap_err().msg.contains("--lane async"));
        let args: Vec<String> = [
            "simulate",
            "--input",
            edges.to_str().unwrap(),
            "--lane",
            "carrier-pigeon",
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).unwrap_err().msg.contains("unknown --lane"));
    }

    #[test]
    fn async_pulse_budget_is_a_runtime_diagnostic() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("async_budget.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n").unwrap();
        let args: Vec<String> = [
            "simulate",
            "--input",
            edges.to_str().unwrap(),
            "--lane",
            "async",
            "--max-rounds",
            "2",
        ]
        .map(String::from)
        .to_vec();
        let err = run(&args).unwrap_err();
        assert!(
            err.msg.contains("synchronizer pulses"),
            "pulse budget surfaces the typed error: {}",
            err.msg
        );
        assert!(!err.show_usage, "pulse-limit is a runtime diagnostic");
    }

    #[test]
    fn gen_emits_weight_columns() {
        // `gen --weights uniform` must produce a file that loads back
        // weighted; `--weights file` is rejected for gen.
        let o = opts(&[("family", "grid"), ("n", "16"), ("weights", "uniform:1,4")]);
        assert!(cmd_gen(&o).is_ok());
        let o = opts(&[("family", "grid"), ("n", "16"), ("weights", "file")]);
        assert!(cmd_gen(&o).is_err());
    }

    #[test]
    fn load_graph_reports_bad_lines() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "0 x\n").unwrap();
        let o = opts(&[("input", path.to_str().unwrap())]);
        let err = load_graph(&o).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn decompose_max_rounds_reports_clean_diagnostic() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("budget.txt");
        std::fs::write(&path, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        let args: Vec<String> = [
            "decompose",
            "--algorithm",
            "thm2.3",
            "--input",
            path.to_str().unwrap(),
            "--max-rounds",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let err = run(&args).unwrap_err();
        assert!(
            err.msg.contains("round budget exceeded") && err.msg.contains("--max-rounds 1"),
            "{}",
            err.msg
        );
        assert!(!err.show_usage, "round-limit is a runtime diagnostic");
        // A generous budget passes.
        let args: Vec<String> = [
            "decompose",
            "--algorithm",
            "thm2.3",
            "--input",
            path.to_str().unwrap(),
            "--max-rounds",
            "1000000",
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).is_ok());
    }

    #[test]
    fn simulate_runs_on_both_lanes() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.txt");
        std::fs::write(&path, "0 1\n1 2\n2 3\n").unwrap();
        for threads in ["1", "3"] {
            let args: Vec<String> = [
                "simulate",
                "--input",
                path.to_str().unwrap(),
                "--source",
                "0",
                "--threads",
                threads,
            ]
            .map(String::from)
            .to_vec();
            assert!(run(&args).is_ok(), "simulate with {threads} threads");
        }
        // --repeat reuses one session across runs on both lanes.
        for threads in ["1", "2"] {
            let args: Vec<String> = [
                "simulate",
                "--input",
                path.to_str().unwrap(),
                "--repeat",
                "5",
                "--threads",
                threads,
            ]
            .map(String::from)
            .to_vec();
            assert!(run(&args).is_ok(), "simulate --repeat 5 x{threads}");
        }
        // --repeat 0 is a usage error.
        let args: Vec<String> = [
            "simulate",
            "--input",
            path.to_str().unwrap(),
            "--repeat",
            "0",
        ]
        .map(String::from)
        .to_vec();
        let err = run(&args).unwrap_err();
        assert!(err.show_usage, "--repeat 0 is a usage problem");
        // Round budget violations surface the engine error cleanly.
        let args: Vec<String> = [
            "simulate",
            "--input",
            path.to_str().unwrap(),
            "--max-rounds",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let err = run(&args).unwrap_err();
        assert!(err.msg.contains("did not quiesce"), "{}", err.msg);
        assert!(!err.show_usage);
        // An out-of-range source is a usage problem.
        let args: Vec<String> = [
            "simulate",
            "--input",
            path.to_str().unwrap(),
            "--source",
            "99",
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).unwrap_err().show_usage);
    }

    #[test]
    fn validate_reports_bad_cluster_files_cleanly() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("val.txt");
        std::fs::write(&edges, "0 1\n1 2\n").unwrap();
        for (csv, needle) in [
            ("node,cluster,color\n99,0,0\n", "out of range"),
            ("node,cluster,color\nx,0,0\n", "bad node column"),
            ("node,cluster,color\n1,y,0\n", "bad cluster column"),
            (
                "node,cluster,color\n0,0,0\n2,1,x\n",
                "line 3: bad color column",
            ),
            (
                "node,cluster,color\n0,0,0\n1,0,1\n",
                "line 3: cluster 0 already has color 0, not 1",
            ),
        ] {
            let clusters = dir.join("val_clusters.csv");
            std::fs::write(&clusters, csv).unwrap();
            let args: Vec<String> = [
                "validate",
                "--input",
                edges.to_str().unwrap(),
                "--clusters",
                clusters.to_str().unwrap(),
            ]
            .map(String::from)
            .to_vec();
            let err = run(&args).unwrap_err();
            assert!(err.msg.contains(needle), "{needle}: {}", err.msg);
            assert!(!err.show_usage, "data problems are runtime diagnostics");
        }
    }

    #[test]
    fn validate_numbers_clusters_by_csv_id() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("path7.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n").unwrap();
        // Seven same-colored singletons, listed out of id order: every
        // path edge joins two of them.
        let clusters = dir.join("path7_clusters.csv");
        let rows: String = [4, 0, 6, 2, 1, 5, 3]
            .iter()
            .map(|v| format!("{v},{v},0\n"))
            .collect();
        std::fs::write(&clusters, format!("node,cluster,color\n{rows}")).unwrap();
        let o = opts(&[("input", edges.to_str().unwrap())]);
        let (g, relab) = load_graph(&o).unwrap();
        let read = || read_clusters(clusters.to_str().unwrap(), &g, &relab).unwrap();
        let first = read();
        let violations = sdnd_clustering::validate_decomposition(&g, &first).violations;
        assert_eq!(
            violations[0],
            "edge (0, 1) joins same-colored clusters 0 and 1"
        );
        for _ in 0..8 {
            let again = read();
            assert_eq!(again, first);
            assert_eq!(
                sdnd_clustering::validate_decomposition(&g, &again).violations,
                violations
            );
        }
    }

    #[test]
    fn gen_writes_output_files_and_caches() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("gen_cached.txt");
        let _ = std::fs::remove_file(dataset::cache_path_for(&edges));
        let args: Vec<String> = [
            "gen",
            "--family",
            "geometric",
            "--n",
            "64",
            "--output",
            edges.to_str().unwrap(),
            "--cache",
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).is_ok());
        let cache = dataset::cache_path_for(&edges);
        assert!(cache.exists(), "gen --cache writes the binary CSR form");
        // The cached form loads back identical to the text parse.
        let o = opts(&[("input", edges.to_str().unwrap()), ("cache", "")]);
        let (via_cache, _) = load_graph(&o).unwrap();
        let o = opts(&[("input", edges.to_str().unwrap())]);
        let (via_text, _) = load_graph(&o).unwrap();
        assert_eq!(via_cache, via_text);
        // The .csrbin itself is a valid --input.
        let o = opts(&[("input", cache.to_str().unwrap())]);
        assert_eq!(load_graph(&o).unwrap().0, via_text);
        // --cache without --output is a usage error; rmat rounds n up.
        let args: Vec<String> = ["gen", "--family", "rmat", "--n", "60", "--cache"]
            .map(String::from)
            .to_vec();
        assert!(run(&args).unwrap_err().show_usage);
    }

    #[test]
    fn ingest_writes_then_hits_the_cache() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("ingest.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        let cache = dataset::cache_path_for(&edges);
        let _ = std::fs::remove_file(&cache);
        let args: Vec<String> = ["ingest", edges.to_str().unwrap()]
            .map(String::from)
            .to_vec();
        assert!(run(&args).is_ok(), "cold ingest");
        assert!(cache.exists(), "ingest writes the cache");
        assert!(run(&args).is_ok(), "warm ingest hits the cache");
        // A positional file is mandatory; reweighting specs are rejected.
        assert!(run(&["ingest".to_string()]).unwrap_err().show_usage);
        let args: Vec<String> = ["ingest", edges.to_str().unwrap(), "--weights", "unit"]
            .map(String::from)
            .to_vec();
        assert!(run(&args).unwrap_err().show_usage);
    }

    #[test]
    fn layouts_round_trip_through_original_ids() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("layout.txt");
        // A 4x4 grid, listed in natural order.
        let mut text = String::new();
        for r in 0..4usize {
            for c in 0..4usize {
                let v = r * 4 + c;
                if c + 1 < 4 {
                    text.push_str(&format!("{v} {}\n", v + 1));
                }
                if r + 1 < 4 {
                    text.push_str(&format!("{v} {}\n", v + 4));
                }
            }
        }
        std::fs::write(&edges, text).unwrap();
        let clusters = dir.join("layout.csv");
        // Decompose under a Hilbert layout, export CSV …
        let args: Vec<String> = [
            "decompose",
            "--algorithm",
            "thm2.3",
            "--input",
            edges.to_str().unwrap(),
            "--layout",
            "hilbert",
            "--output",
            clusters.to_str().unwrap(),
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).is_ok());
        // … and validate it under the natural AND a different SFC
        // layout: the CSV speaks original ids, so both must pass.
        for layout in ["natural", "morton", "bfs"] {
            let args: Vec<String> = [
                "validate",
                "--input",
                edges.to_str().unwrap(),
                "--clusters",
                clusters.to_str().unwrap(),
                "--layout",
                layout,
            ]
            .map(String::from)
            .to_vec();
            assert!(run(&args).is_ok(), "validate --layout {layout}");
        }
        // simulate maps --source through the relabeling.
        let args: Vec<String> = [
            "simulate",
            "--input",
            edges.to_str().unwrap(),
            "--layout",
            "hilbert",
            "--source",
            "15",
        ]
        .map(String::from)
        .to_vec();
        assert!(run(&args).is_ok());
        // An unknown layout is a usage error.
        let o = opts(&[("input", edges.to_str().unwrap()), ("layout", "zorro")]);
        assert!(load_graph(&o).unwrap_err().contains("--layout"));
    }

    #[test]
    fn load_graph_reads_gzip_edge_lists() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let gz = dir.join("gzipped.txt.gz");
        std::fs::write(&gz, dataset::gzip_stored(b"0 1\n1 2\n2 0\n")).unwrap();
        let o = opts(&[("input", gz.to_str().unwrap())]);
        let (g, _) = load_graph(&o).unwrap();
        assert_eq!((g.n(), g.m()), (3, 3));
    }

    #[test]
    fn unknown_command_and_algorithm_error() {
        assert!(run(&["frobnicate".into()]).is_err());
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "0 1\n").unwrap();
        let args = vec![
            "carve".to_string(),
            "--algorithm".into(),
            "nope".into(),
            "--input".into(),
            path.to_str().unwrap().into(),
        ];
        assert!(run(&args).is_err());
    }

    #[test]
    fn every_registry_name_runs_through_the_cli() {
        let dir = std::env::temp_dir().join("sdnd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("registry.txt");
        let mut text = String::new();
        for (u, v) in sdnd::graph::gen::grid(6, 6).edges() {
            text.push_str(&format!("{u} {v}\n"));
        }
        std::fs::write(&edges, text).unwrap();
        let csv = dir.join("registry.csv");
        let (edges, csv) = (edges.to_str().unwrap(), csv.to_str().unwrap());
        let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        for algo in &ALGORITHMS {
            for (verb, name) in [
                ("decompose", algo.decompose_name),
                ("carve", algo.carve_name),
            ] {
                let run_verb =
                    args(&[verb, "--algorithm", name, "--input", edges, "--output", csv]);
                assert!(run(&run_verb).is_ok(), "{verb} {name}");
                // Every export validates: carvings as one color class.
                let validate = args(&["validate", "--input", edges, "--clusters", csv]);
                assert!(run(&validate).is_ok(), "validate after {verb} {name}");
            }
        }
        for verb in ["decompose", "carve"] {
            let err = run(&args(&[verb, "--algorithm", "nope", "--input", edges])).unwrap_err();
            assert_eq!(err.msg, "unknown algorithm `nope`");
            assert!(err.show_usage);
        }
    }

    /// Argument words the fuzzer mixes with junk: option names (bare,
    /// paired and inline), their values, clusters-CSV lines, and the
    /// registry's names.
    fn argv_word() -> impl Strategy<Value = String> {
        let words: Vec<&str> = "--weights --layout --algorithm --approx --cache --timing \
            --eps=0.5 --weights=uniform:1,8 --layout=hilbert -- - = uniform:1,8 uniform: \
            uniform:, uniform:x,y uniform:8,1 unit file natural hilbert morton bfs 0,0,0 1,2 \
            1,2,x x,0,0 ,, 3,1,4294967296"
            .split_whitespace()
            .chain(ALGORITHMS.iter().map(|a| a.decompose_name))
            .collect();
        let pick = 0..words.len() + 1;
        (pick, prop::collection::vec(0u8..=255, 0..12)).prop_map(move |(i, junk)| {
            words.get(i).map_or_else(
                || String::from_utf8_lossy(&junk).into_owned(),
                |w| w.to_string(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The option, weight, layout, registry and clusters-CSV parsers
        /// return errors on arbitrary input; none of them panics.
        #[test]
        fn cli_parsers_never_panic(argv in prop::collection::vec(argv_word(), 0..8)) {
            if let Ok(opts) = parse_opts(&argv) {
                let _ = WeightSpec::parse(&opts).map(|spec| spec.dist());
                let _ = parse_layout(&opts);
                if let Some(name) = opts.get("algorithm") {
                    let _ = (registry::find_carve(name), registry::find_decompose(name));
                }
            }
            for word in &argv {
                let _ = parse_cluster_line(word);
            }
        }
    }
}
