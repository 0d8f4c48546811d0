//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <carve-grid|validate-flat|serve-mix|congest-sim>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Generates the workload's inputs from the seed, sets up (five times;
//! the median is `setup_s`), then runs closed-loop operations for the
//! given seconds, and on past them until the untraced ops fill the tail
//! percentile, checking every output. Times are scaled to a reference
//! host speed measured by a probe between ops (see `calib`). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `METRICS.md` in this crate's directory defines
//! every metric.

mod calib;
mod carve;
mod congest;
mod serve;
mod stats;
mod trace;

use calib::{HostClock, Probe};
use stats::{median, percentile, Metrics};
use std::time::Instant;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Every per-layer metric, in print order. A layer a workload does not
/// call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("weak.self_ms", "ms"),
    ("weak.calls", "count"),
    ("weak.rounds", "rounds"),
    ("weak.messages", "count"),
    ("transform.self_ms", "ms"),
    ("transform.calls", "count"),
    ("transform.rounds", "rounds"),
    ("improve.self_ms", "ms"),
    ("improve.calls", "count"),
    ("improve.rounds", "rounds"),
    ("reduction.self_ms", "ms"),
    ("reduction.carvings", "count"),
    ("validate.exact_ms", "ms"),
    ("validate.approx_ms", "ms"),
    ("validate.share", "ratio"),
    ("engine.seq_ms", "ms"),
    ("engine.par2_ms", "ms"),
    ("engine.rounds", "rounds"),
    ("engine.messages", "count"),
    ("engine.us_per_round", "us"),
    ("async.run_ms", "ms"),
    ("async.pulses", "count"),
    ("async.faults", "count"),
    ("async.diagnosed", "ratio"),
    ("serve.cluster_of_ms.p50", "ms"),
    ("serve.distance_ms.p50", "ms"),
    ("serve.decompose_hit_ms.p50", "ms"),
    ("serve.decompose_miss_ms.p50", "ms"),
    ("serve.validate_ms.p50", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("dataset.load_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Op latencies and failure counts of one timed phase. Times are scaled
/// to the reference host speed (see [`calib`]).
#[derive(Debug, Default)]
pub struct Drive {
    /// Latencies (ms) of untraced ops.
    pub plain_ms: Vec<f64>,
    /// Latencies (ms) of traced ops.
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent in ops (s); `ops_per_s` divides by it.
    pub busy_s: f64,
    /// Wall clock of the whole timed phase, unscaled (s).
    pub wall_s: f64,
    /// Median time of the host-speed probe in the timed phase (ms).
    pub probe_ms: f64,
}

/// A timed phase still short of its sample floor stops after this many
/// seconds anyway, so a run always ends; its tail percentile then fails.
const MAX_SECONDS: f64 = 150.0;

/// Untraced ops an untraced run must record before it may stop: enough
/// for its `tail_pct` percentile. A traced run prints no percentile.
pub fn sample_floor(trace: bool, tail_pct: usize) -> usize {
    if trace {
        0
    } else {
        stats::min_samples(tail_pct)
    }
}

/// Whether a timed phase that has run `elapsed` seconds and recorded
/// `samples` untraced ops goes on: for `seconds` at least, then until
/// `samples` reaches `floor` or [`MAX_SECONDS`] have passed.
pub fn keep_going(elapsed: f64, seconds: f64, samples: usize, floor: usize) -> bool {
    elapsed < seconds || (samples < floor && elapsed < MAX_SECONDS)
}

/// Closed-loop single-threaded driver: calls `op(index, traced)` for
/// `seconds` and until the untraced ops fill the `tail_pct` percentile
/// (see [`keep_going`]), with the host-speed probe between ops every
/// [`calib::PACE_MS`]. With `trace`, whole schedule cycles of `cycle` ops
/// alternate between untraced and traced, so both modes see the same op
/// mix. A failed op is printed with what failed.
pub fn drive(
    seconds: f64,
    trace: bool,
    tail_pct: usize,
    cycle: usize,
    probe: &mut Probe,
    mut op: impl FnMut(usize, bool) -> Result<(), String>,
) -> Drive {
    let mut d = Drive::default();
    let floor = sample_floor(trace, tail_pct);
    // (traced, unscaled ms, calibration segment) of each op.
    let mut ops = Vec::new();
    let mut plain = 0;
    let mut clock = HostClock::start(probe);
    let start = Instant::now();
    let mut i = 0;
    while keep_going(start.elapsed().as_secs_f64(), seconds, plain, floor) {
        let traced = trace && (i / cycle) % 2 == 1;
        let t0 = Instant::now();
        let result = op(i, traced);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        d.attempted += 1;
        if let Err(e) = result {
            d.failed += 1;
            eprintln!("FAILED op {i}: {e}");
        }
        ops.push((traced, ms, clock.segment()));
        plain += usize::from(!traced);
        clock.after_op(ms);
        i += 1;
    }
    let (scales, probe_ms) = clock.finish();
    d.probe_ms = probe_ms;
    d.wall_s = start.elapsed().as_secs_f64();
    for (traced, ms, segment) in ops {
        let ms = ms * scales[segment];
        d.busy_s += ms / 1e3;
        if traced {
            d.traced_ms.push(ms);
        } else {
            d.plain_ms.push(ms);
        }
    }
    d
}

/// The paper quantities of a run's outputs.
#[derive(Debug, Default)]
pub struct Quality {
    rounds: u64,
    charged: u64,
    max_bits: u32,
    colors: u64,
    decompositions: u64,
    diameter: u32,
}

impl Quality {
    /// One op's charged rounds and largest message.
    pub fn charge(&mut self, rounds: u64, max_bits: u32) {
        self.rounds += rounds;
        self.charged += 1;
        self.max_bits = self.max_bits.max(max_bits);
    }

    /// One decomposition's colours.
    pub fn colors(&mut self, colors: u32) {
        self.colors += u64::from(colors);
        self.decompositions += 1;
    }

    /// One cluster strong diameter reported by the exact validator.
    pub fn diameter(&mut self, diameter: u32) {
        self.diameter = self.diameter.max(diameter);
    }
}

/// What a workload hands back for reporting.
pub struct Outcome {
    /// Time of each set-up repetition, scaled to the reference host
    /// speed (s).
    pub setup_s: Vec<f64>,
    pub drive: Drive,
    pub quality: Quality,
    /// Per-layer metrics this workload measures (traced ops only).
    pub layers: Vec<(&'static str, f64)>,
    /// The tail percentile reported as `latency_ms.tail`.
    pub tail_pct: usize,
}

/// The `O(log n)` colour envelope `2 ceil(log2 n) + 2`.
pub fn color_bound(n: usize) -> u32 {
    2 * sdnd_core::Params::log2n(n) + 2
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(o: &Outcome) -> Result<Metrics, String> {
    let mut sorted = o.drive.plain_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: usize| {
        percentile(&sorted, p).ok_or_else(|| {
            format!(
                "p{p} needs {} samples beyond it; only {} ops ran",
                stats::MIN_BEYOND,
                sorted.len()
            )
        })
    };
    let q = &o.quality;
    let mut m = Metrics::default();
    m.put("setup_s", median(&o.setup_s), "s");
    m.put(
        "ops_per_s",
        o.drive.attempted as f64 / o.drive.busy_s,
        "ops/s",
    );
    m.put("latency_ms.p50", pct(50)?, "ms");
    m.put("latency_ms.tail", pct(o.tail_pct)?, "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "rounds.mean",
        q.rounds as f64 / q.charged.max(1) as f64,
        "rounds",
    );
    m.put("message_bits.max", f64::from(q.max_bits), "bits");
    m.put(
        "colors.mean",
        q.colors as f64 / q.decompositions.max(1) as f64,
        "colours",
    );
    m.put("strong_diameter.max", f64::from(q.diameter), "hops");
    Ok(m)
}

fn per_layer(o: &Outcome) -> Metrics {
    // Ops per second of each mode over the time spent in its ops.
    let rate = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3).max(1e-9);
    let overhead = rate(&o.drive.traced_ms) / rate(&o.drive.plain_ms);
    let mut m = Metrics::default();
    for &(name, unit) in PER_LAYER {
        let value = if name == "trace.overhead" {
            overhead
        } else {
            o.layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        m.put(name, value, unit);
    }
    for (name, _) in &o.layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unlisted layer metric {name}"
        );
    }
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: perfbench --workload <carve-grid|validate-flat|serve-mix|congest-sim> [--seed N] [--seconds S] [--trace 0|1]");
        std::process::exit(2);
    });
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let probe = &mut Probe::new();
    let outcome = match args.workload.as_str() {
        "carve-grid" => carve::carve_grid(seed, secs, trace, probe),
        "validate-flat" => carve::validate_flat(seed, secs, trace, probe),
        "serve-mix" => serve::serve_mix(seed, secs, trace, probe),
        "congest-sim" => congest::congest_sim(seed, secs, trace, probe),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let metrics = if trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(3);
        })
    };
    let d = &outcome.drive;
    eprintln!(
        "{}: {} ops ({} untraced, {} traced) in {:.3} s wall clock, {:.3} s of ops at reference speed (probe {:.2} ms, reference {} ms), {} failed",
        args.workload,
        d.attempted,
        d.plain_ms.len(),
        d.traced_ms.len(),
        d.wall_s,
        d.busy_s,
        d.probe_ms,
        calib::REFERENCE_MS,
        d.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        d.failed == 0 && d.attempted > 0,
        d.attempted,
        d.failed,
        metrics.to_json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_goes_on_until_its_tail_percentile_is_filled() {
        let floor = sample_floor(false, 90);
        assert_eq!(floor, 100);
        assert!(keep_going(5.0, 20.0, 500, floor), "seconds come first");
        assert!(keep_going(25.0, 20.0, 99, floor), "short of the floor");
        assert!(!keep_going(25.0, 20.0, 100, floor));
        assert!(!keep_going(MAX_SECONDS, 20.0, 99, floor), "capped");
        assert!(!keep_going(25.0, 20.0, 0, sample_floor(true, 99)), "traced");
    }

    #[test]
    fn drive_passes_its_seconds_when_short_of_samples() {
        let d = drive(0.0, false, 90, 1, &mut Probe::new(), |_, _| Ok(()));
        assert_eq!(d.plain_ms.len(), 100);
        assert!(d.traced_ms.is_empty());
    }
}
