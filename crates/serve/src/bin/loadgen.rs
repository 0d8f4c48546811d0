//! Closed-loop traffic generator for the `sdnd serve` daemon.
//!
//! Each client thread holds one connection and drives it closed-loop:
//! send a request, wait for the response, pick the next request. Half
//! of the synthetic mix's decomposes run Theorems 2.3 and 3.4, which
//! ignore the seed (two LRU keys, missed on first use only); the other
//! half run the registry entries that read it (`ls93`, `en16`; see
//! `Algorithm::seeded`) with a seed drawn from a zipf distribution over
//! `--seeds` values, so `--seeds` and `--zipf` shape the daemon's LRU
//! hot set. Heavy requests (`decompose`, `validate`) can carry a
//! configurable deadline distribution. `err overloaded` responses are
//! retried with jittered exponential backoff (bounded attempts),
//! matching how a well-behaved client consumes the daemon's
//! `retry-after-ms` hint.
//!
//! ```text
//! sdnd-loadgen --socket /tmp/sdnd.sock [--requests N] [--clients C]
//!              [--graph SPEC] [--seeds K] [--zipf S]
//!              [--deadline-ms none|fixed:MS|uniform:LO,HI]
//!              [--seed S] [--replay FILE] [--quick] [--json PATH]
//! ```
//!
//! `--replay FILE` sends the file's request lines verbatim (split
//! round-robin across clients) instead of the synthetic mix — the CI
//! smoke test replays a committed fixture workload this way. Results
//! (qps, p50/p99, outcome counts, degraded fraction) are emitted as a
//! JSON object to stdout or `--json`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdnd_core::registry;
use sdnd_serve::protocol::{classify_response, retry_after_ms, ResponseKind};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-request deadline distribution for the heavy request classes.
#[derive(Debug, Clone, Copy)]
enum DeadlineDist {
    None,
    Fixed(u64),
    Uniform(u64, u64),
}

impl DeadlineDist {
    fn sample(self, rng: &mut SmallRng) -> Option<u64> {
        match self {
            DeadlineDist::None => None,
            DeadlineDist::Fixed(ms) => Some(ms),
            DeadlineDist::Uniform(lo, hi) => Some(rng.gen_range(lo..=hi)),
        }
    }
}

#[derive(Debug, Clone)]
struct Config {
    socket: String,
    requests: usize,
    clients: usize,
    graph: String,
    seeds: usize,
    zipf: f64,
    deadline: DeadlineDist,
    seed: u64,
    replay: Option<String>,
    json: Option<String>,
}

/// Zipf sampler over `1..=k` with exponent `s`: a hand-rolled CDF plus
/// binary search (the vendored rand shim has no zipf distribution).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(k);
        let mut total = 0.0;
        for rank in 1..=k {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Samples a 0-based rank.
    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[derive(Debug, Default)]
struct Outcomes {
    ok: u64,
    /// Valid negative answers (`err different-clusters`, `err unclustered`).
    negative: u64,
    cancelled: u64,
    /// Shed events observed (every `err overloaded`, including retries).
    overloaded: u64,
    /// Requests still shed after the retry budget.
    gave_up: u64,
    panicked: u64,
    other_err: u64,
    malformed: u64,
    /// Responses carrying `degraded=true`.
    degraded: u64,
    /// Responses carrying `cached=true` / `cached=false`.
    cached: u64,
    uncached: u64,
}

#[derive(Debug, Default)]
struct Tally {
    outcomes: Outcomes,
    /// (class, latency µs) per completed request (excluding retble sheds).
    latencies: Vec<(&'static str, u64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sdnd-loadgen: {e}");
            eprintln!(
                "usage: sdnd-loadgen --socket PATH [--requests N] [--clients C] [--graph SPEC] \
                 [--seeds K] [--zipf S] [--deadline-ms none|fixed:MS|uniform:LO,HI] [--seed S] \
                 [--replay FILE] [--quick] [--json PATH]"
            );
            std::process::exit(2);
        }
    };
    match run(&config) {
        Ok(json) => match &config.json {
            Some(path) => std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("sdnd-loadgen: writing {path}: {e}");
                std::process::exit(1);
            }),
            None => println!("{json}"),
        },
        Err(e) => {
            eprintln!("sdnd-loadgen: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut c = Config {
        socket: String::new(),
        requests: 400,
        clients: 4,
        graph: "grid:32x32".into(),
        seeds: 16,
        zipf: 1.1,
        deadline: DeadlineDist::None,
        seed: 42,
        replay: None,
        json: None,
    };
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("--{what} wants a value"))
        };
        match flag.as_str() {
            "--socket" => c.socket = value("socket")?,
            "--requests" => c.requests = num(&value("requests")?, "requests")?,
            "--clients" => c.clients = num(&value("clients")?, "clients")?,
            "--graph" => c.graph = value("graph")?,
            "--seeds" => c.seeds = num(&value("seeds")?, "seeds")?,
            "--zipf" => c.zipf = num(&value("zipf")?, "zipf")?,
            "--seed" => c.seed = num(&value("seed")?, "seed")?,
            "--replay" => c.replay = Some(value("replay")?),
            "--json" => c.json = Some(value("json")?),
            "--quick" => quick = true,
            "--deadline-ms" => {
                let v = value("deadline-ms")?;
                c.deadline = if v == "none" {
                    DeadlineDist::None
                } else if let Some(ms) = v.strip_prefix("fixed:") {
                    DeadlineDist::Fixed(num(ms, "deadline-ms")?)
                } else if let Some(range) = v.strip_prefix("uniform:") {
                    let (lo, hi) = range
                        .split_once(',')
                        .ok_or("uniform deadline wants LO,HI")?;
                    DeadlineDist::Uniform(num(lo, "deadline lo")?, num(hi, "deadline hi")?)
                } else {
                    return Err(format!("bad deadline spec `{v}`"));
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if c.socket.is_empty() {
        return Err("--socket is required".into());
    }
    if quick {
        c.requests = c.requests.min(60);
        c.clients = c.clients.min(2);
    }
    if c.clients == 0 || c.requests == 0 {
        return Err("--clients and --requests must be positive".into());
    }
    Ok(c)
}

fn num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{what}: bad value `{v}`"))
}

struct Client {
    reader: BufReader<UnixStream>,
    write: UnixStream,
}

impl Client {
    fn connect(path: &str) -> Result<Client, String> {
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(Path::new(path)) {
                let write = s.try_clone().map_err(|e| e.to_string())?;
                return Ok(Client {
                    reader: BufReader::new(s),
                    write,
                });
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(format!("cannot connect to daemon socket {path}"))
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.write, "{line}").map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(resp.trim_end().to_string())
    }
}

/// One request with bounded retry-on-overload: waits out the jittered
/// backoff (seeded with the daemon's own `retry-after-ms` hint) between
/// attempts. Returns the final response.
fn send_with_backoff(
    client: &mut Client,
    line: &str,
    rng: &mut SmallRng,
    outcomes: &mut Outcomes,
) -> Result<String, String> {
    const MAX_ATTEMPTS: u32 = 5;
    for attempt in 0..MAX_ATTEMPTS {
        let resp = client.roundtrip(line)?;
        if classify_response(&resp) != ResponseKind::Overloaded {
            return Ok(resp);
        }
        outcomes.overloaded += 1;
        if attempt + 1 == MAX_ATTEMPTS {
            outcomes.gave_up += 1;
            return Ok(resp);
        }
        let hint = retry_after_ms(&resp).unwrap_or(1);
        let jitter: f64 = 0.5 + rng.gen::<f64>();
        let backoff = (hint << attempt) as f64 * jitter;
        std::thread::sleep(Duration::from_micros((backoff * 1e3) as u64));
    }
    unreachable!("loop always returns")
}

/// Prologue-only send: retries overload shedding until the request is
/// admitted, honoring the daemon's `retry-after-ms` hint. Setup traffic
/// is not part of the measured workload, so it neither counts outcomes
/// nor ever gives up short of a pathological daemon.
fn send_patient(client: &mut Client, line: &str, rng: &mut SmallRng) -> Result<String, String> {
    for _ in 0..500 {
        let resp = client.roundtrip(line)?;
        if classify_response(&resp) != ResponseKind::Overloaded {
            return Ok(resp);
        }
        let hint = retry_after_ms(&resp).unwrap_or(1).max(1);
        let jitter: f64 = 0.5 + rng.gen::<f64>();
        std::thread::sleep(Duration::from_micros((hint as f64 * jitter * 1e3) as u64));
    }
    Err(format!("prologue never admitted: {line}"))
}

/// Builds one synthetic request line from the zipf-skewed mix.
fn synth_request(
    rng: &mut SmallRng,
    zipf: &Zipf,
    config: &Config,
    n: usize,
) -> (&'static str, String) {
    let deadline_prefix = |rng: &mut SmallRng| {
        config
            .deadline
            .sample(rng)
            .map_or(String::new(), |ms| format!("deadline={ms} "))
    };
    let roll: f64 = rng.gen();
    if roll < 0.40 {
        ("cluster-of", format!("cluster-of {}", rng.gen_range(0..n)))
    } else if roll < 0.65 {
        let u = rng.gen_range(0..n);
        // A node and a near neighbor: frequently the same cluster, and
        // the different-cluster answer is itself a served code path.
        let v = (u + rng.gen_range(0..3usize)).min(n - 1);
        (
            "distance-in-cluster",
            format!("distance-in-cluster {u} {v}"),
        )
    } else if roll < 0.85 {
        let seed = zipf.sample(rng);
        let algo = if rng.gen_bool(0.5) {
            ["thm2.3", "thm3.4"][rng.gen_range(0..2usize)]
        } else {
            let seeded: Vec<&str> = registry::ALGORITHMS
                .iter()
                .filter(|a| a.seeded)
                .map(|a| a.decompose_name)
                .collect();
            seeded[rng.gen_range(0..seeded.len())]
        };
        (
            "decompose",
            format!("{}decompose {algo} 0.5 {seed}", deadline_prefix(rng)),
        )
    } else if roll < 0.95 {
        ("validate", format!("{}validate", deadline_prefix(rng)))
    } else {
        ("stats", "stats".into())
    }
}

fn classify_and_count(resp: &str, outcomes: &mut Outcomes) -> bool {
    if resp.contains("degraded=true") {
        outcomes.degraded += 1;
    }
    if resp.contains("cached=true") {
        outcomes.cached += 1;
    } else if resp.contains("cached=false") {
        outcomes.uncached += 1;
    }
    match classify_response(resp) {
        ResponseKind::Ok => {
            outcomes.ok += 1;
            true
        }
        ResponseKind::Cancelled => {
            outcomes.cancelled += 1;
            true
        }
        ResponseKind::Overloaded => false, // counted by the retry loop
        ResponseKind::Panicked => {
            outcomes.panicked += 1;
            true
        }
        ResponseKind::OtherError => {
            if resp.contains("different-clusters") || resp.contains("unclustered") {
                outcomes.negative += 1;
            } else {
                outcomes.other_err += 1;
            }
            true
        }
        ResponseKind::Malformed => {
            outcomes.malformed += 1;
            true
        }
    }
}

fn client_loop(
    id: usize,
    config: &Config,
    script: Option<Vec<String>>,
    tally: &Mutex<Tally>,
) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(id as u64));
    let zipf = Zipf::new(config.seeds.max(1), config.zipf);
    // Stagger connection setup a little so eight prologues don't land
    // on the admission queue in the same instant.
    std::thread::sleep(Duration::from_millis(10 * id as u64));
    let mut client = Client::connect(&config.socket)?;

    // Prologue: make sure the daemon has the graph (idempotent across
    // clients — the daemon keys graphs by content hash). Setup uses the
    // patient path: shed prologues retry until admitted instead of
    // aborting the client.
    let mut local = Outcomes::default();
    let graph_n;
    {
        let resp = send_patient(&mut client, &format!("load {}", config.graph), &mut rng)?;
        if classify_response(&resp) != ResponseKind::Ok {
            return Err(format!("prologue load failed: {resp}"));
        }
        graph_n = resp
            .split_whitespace()
            .find_map(|t| t.strip_prefix("n="))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| format!("load response without n=: {resp}"))?;
        // Warm one decomposition so point queries have a target.
        let resp = send_patient(&mut client, "decompose thm2.3 0.5 0", &mut rng)?;
        if classify_response(&resp) != ResponseKind::Ok {
            return Err(format!("prologue decompose failed: {resp}"));
        }
    }

    let mut latencies = Vec::new();
    let per_client =
        config.requests / config.clients + usize::from(id < config.requests % config.clients);
    for i in 0..per_client {
        let (class, line) = match &script {
            Some(lines) => {
                let line = &lines[(i * config.clients + id) % lines.len()];
                ("replay", line.clone())
            }
            None => synth_request(&mut rng, &zipf, config, graph_n),
        };
        let started = Instant::now();
        let resp = send_with_backoff(&mut client, &line, &mut rng, &mut local)?;
        let us = started.elapsed().as_micros() as u64;
        if classify_and_count(&resp, &mut local) {
            latencies.push((class, us));
        }
    }

    let mut t = tally.lock().expect("tally lock");
    t.latencies.extend(latencies);
    let o = &mut t.outcomes;
    o.ok += local.ok;
    o.negative += local.negative;
    o.cancelled += local.cancelled;
    o.overloaded += local.overloaded;
    o.gave_up += local.gave_up;
    o.panicked += local.panicked;
    o.other_err += local.other_err;
    o.malformed += local.malformed;
    o.degraded += local.degraded;
    o.cached += local.cached;
    o.uncached += local.uncached;
    Ok(())
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

fn run(config: &Config) -> Result<String, String> {
    let script: Option<Vec<String>> = match &config.replay {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("replay file {path}: {e}"))?;
            let lines: Vec<String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            if lines.is_empty() {
                return Err(format!("replay file {path} has no requests"));
            }
            Some(lines)
        }
        None => None,
    };

    let tally = Arc::new(Mutex::new(Tally::default()));
    let started = Instant::now();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|id| {
                let tally = tally.clone();
                let script = script.clone();
                scope.spawn(move || client_loop(id, config, script, &tally))
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread never panics").err())
            .collect()
    });
    let wall = started.elapsed();
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    let tally = Arc::try_unwrap(tally)
        .expect("all clients joined")
        .into_inner()
        .expect("tally lock");
    Ok(render_json(config, &tally, wall))
}

fn render_json(config: &Config, tally: &Tally, wall: Duration) -> String {
    let o = &tally.outcomes;
    let mut all_us: Vec<u64> = tally.latencies.iter().map(|&(_, us)| us).collect();
    all_us.sort_unstable();
    let completed = all_us.len() as f64;
    let mean_ms = if all_us.is_empty() {
        0.0
    } else {
        all_us.iter().sum::<u64>() as f64 / completed / 1e3
    };

    let mut classes: Vec<&'static str> = tally.latencies.iter().map(|&(c, _)| c).collect();
    classes.sort_unstable();
    classes.dedup();
    let by_class: Vec<String> = classes
        .iter()
        .map(|class| {
            let mut us: Vec<u64> = tally
                .latencies
                .iter()
                .filter(|&&(c, _)| c == *class)
                .map(|&(_, v)| v)
                .collect();
            us.sort_unstable();
            format!(
                "    {{ \"name\": \"{class}\", \"count\": {}, \"p50_ms\": {:.3}, \
                 \"p99_ms\": {:.3} }}",
                us.len(),
                percentile(&us, 0.50),
                percentile(&us, 0.99),
            )
        })
        .collect();

    format!(
        "{{\n  \"bench\": \"serve-loadgen\",\n  \"graph\": \"{}\",\n  \"clients\": {},\n  \
         \"requests\": {},\n  \"wall_s\": {:.3},\n  \"qps\": {:.1},\n  \"latency_ms\": {{ \
         \"mean\": {mean_ms:.3}, \"p50\": {:.3}, \"p99\": {:.3} }},\n  \"outcomes\": {{ \
         \"ok\": {}, \"negative\": {}, \"cancelled\": {}, \"overloaded_sheds\": {}, \
         \"gave_up\": {}, \"panicked\": {}, \"other_err\": {}, \"malformed\": {} }},\n  \
         \"degraded\": {},\n  \"decompose_cached\": {},\n  \"decompose_uncached\": {},\n  \
         \"by_class\": [\n{}\n  ]\n}}",
        config.graph,
        config.clients,
        config.requests,
        wall.as_secs_f64(),
        completed / wall.as_secs_f64().max(1e-9),
        percentile(&all_us, 0.50),
        percentile(&all_us, 0.99),
        o.ok,
        o.negative,
        o.cancelled,
        o.overloaded,
        o.gave_up,
        o.panicked,
        o.other_err,
        o.malformed,
        o.degraded,
        o.cached,
        o.uncached,
        by_class.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_serve::protocol::{parse_request, Request};
    use sdnd_serve::DecompKey;
    use std::collections::HashSet;

    /// The synthetic mix's decomposes at `--seeds 16` fall on more than
    /// the two keys of the unseeded theorems: the seeded entries make
    /// one key per drawn seed.
    #[test]
    fn synthetic_decomposes_spread_over_seed_keys() {
        let args = ["--socket", "unused.sock", "--seeds", "16"].map(String::from);
        let config = parse_args(&args).expect("valid flags");
        let zipf = Zipf::new(config.seeds, config.zipf);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut keys = HashSet::new();
        let mut decomposes = 0;
        while decomposes < 200 {
            let (class, line) = synth_request(&mut rng, &zipf, &config, 64);
            if class != "decompose" {
                continue;
            }
            decomposes += 1;
            match parse_request(&line) {
                Ok(Request::Decompose { algo, seed, .. }) => {
                    keys.insert(DecompKey::new(0, algo, seed));
                }
                other => panic!("`{line}` parsed as {other:?}"),
            }
        }
        assert!(keys.len() > 2, "{} distinct keys", keys.len());
    }
}
