//! `serve-mix`: one closed-loop client against an in-process daemon.
//!
//! Set-up writes grid-102x102 as an edge list, starts the daemon with
//! `sdnd_serve::spawn_unix`, `load`s the file (a cold parse plus a
//! `.csrbin` write), computes the expected answers with direct library
//! calls on the same file, and warms the daemon with one decomposition
//! per algorithm. The client then sends a seeded request stream over one
//! Unix-socket connection, one request at a time:
//!
//! | share | request |
//! |---|---|
//! | 40% | `cluster-of v` |
//! | 25% | `distance-in-cluster u v` (same cluster under both algorithms) |
//! | 20% | `decompose thm2.3\|thm3.4 0.5 s`, `s` zipf(1.3) over 24 seeds |
//! | 10% | `validate` (auto tier, no deadline: always exact) |
//! | 5% | `stats` |
//!
//! The shares are exact per block of 20 requests, in seeded order. The 48
//! decomposition keys outnumber the daemon's 8 LRU slots, so cold
//! decompositions recur. No request carries a deadline.
//!
//! One client, not several: on two vCPUs a second client plus the
//! daemon's reader and worker threads outnumber the cores, and which
//! requests hit the LRU then depends on how the clients interleave. With
//! one client the hits and misses follow from the seed alone, and a miss
//! is timed as the cold decomposition it runs.
//!
//! The run pins itself, and so the daemon's threads, to one CPU (see
//! [`calib::pin_to_this_cpu`]): the host-speed probe runs on the client's
//! thread, and the daemon's work must run on the CPU the probe measures.
//! A closed loop with one client keeps one thread busy at a time, so the
//! pin costs no parallelism.

use crate::calib::{self, Probe};
use crate::stats::{mean, median};
use crate::trace::{decompose, Algo};
use crate::{drive, Outcome, Quality, SETUP_REPS};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdnd_clustering::{validate_decomposition_in, CarveCtx};
use sdnd_congest::RoundLedger;
use sdnd_core::Params;
use sdnd_graph::dataset::{load_edge_list, LoadOptions};
use sdnd_graph::{gen, NodeId};
use sdnd_serve::{classify_response, spawn_unix, DaemonHandle, ResponseKind, ServeConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The reported tail percentile.
const TAIL_PCT: usize = 99;
const GRID: usize = 102;
/// Seeds per algorithm in the `decompose` key space: 48 keys against the
/// daemon's 8 LRU slots, so about half the decompositions miss. The fast
/// answers (`cluster-of`, `stats`, LRU hits) then come to about 55% of
/// all requests, so the median lies inside them, clear of the slower
/// `distance-in-cluster` answers; p99 lies among the cold misses.
const ZIPF_KEYS: usize = 24;
const ZIPF_EXPONENT: f64 = 1.3;
/// One block of a client's stream: the request mix in exact shares
/// (40% `cluster-of`, 25% `distance-in-cluster`, 20% `decompose` split
/// evenly between the algorithms, 10% `validate`, 5% `stats`), shuffled
/// per block. A traced run alternates untraced and traced blocks.
const BLOCK: [Verb; 20] = {
    use Verb::*;
    const D23: Verb = Decompose(Algo::Thm23);
    const D34: Verb = Decompose(Algo::Thm34);
    [
        ClusterOf, ClusterOf, ClusterOf, ClusterOf, ClusterOf, ClusterOf, ClusterOf, ClusterOf,
        Distance, Distance, Distance, Distance, Distance, D23, D23, D34, D34, Validate, Validate,
        Stats,
    ]
};

/// Zipf sampler over ranks `1..=k` with exponent `s` (CDF + binary
/// search).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=k)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) + 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    ClusterOf,
    Distance,
    Decompose(Algo),
    Validate,
    Stats,
}

/// What the daemon must answer, from direct library calls.
struct Expect {
    n: usize,
    /// `(clusters, colours, max strong diameter, rounds, max message bits)`
    /// per algorithm.
    thm23: (usize, u32, u32, u64, u32),
    thm34: (usize, u32, u32, u64, u32),
    /// Nodes grouped by their cluster under both algorithms, and each
    /// node's group: any two nodes of a group share a cluster whichever
    /// decomposition the daemon currently holds.
    groups: Vec<Vec<NodeId>>,
    group_of: Vec<usize>,
}

impl Expect {
    fn of(&self, algo: Algo) -> (usize, u32, u32, u64, u32) {
        match algo {
            Algo::Thm23 => self.thm23,
            Algo::Thm34 => self.thm34,
        }
    }
}

/// The client's seeded request stream.
struct Stream {
    rng: SmallRng,
    zipf: Zipf,
    block: Vec<Verb>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed),
            zipf: Zipf::new(ZIPF_KEYS, ZIPF_EXPONENT),
            block: Vec::new(),
        }
    }

    fn next(&mut self, e: &Expect) -> (Verb, String) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.block.shuffle(&mut self.rng);
        }
        let rng = &mut self.rng;
        let verb = self.block.pop().expect("refilled above");
        let line = match verb {
            Verb::ClusterOf => format!("cluster-of {}", rng.gen_range(0..e.n)),
            Verb::Distance => {
                let u = rng.gen_range(0..e.n);
                let group = &e.groups[e.group_of[u]];
                let v = group[rng.gen_range(0..group.len())];
                format!("distance-in-cluster {u} {}", v.index())
            }
            Verb::Decompose(algo) => {
                format!("decompose {} 0.5 {}", algo.name(), self.zipf.sample(rng))
            }
            Verb::Validate => "validate".into(),
            Verb::Stats => "stats".into(),
        };
        (verb, line)
    }
}

/// `key=value` field of a response frame.
fn field<'a>(frame: &'a str, key: &str) -> Option<&'a str> {
    frame
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

fn num<T: std::str::FromStr>(frame: &str, key: &str) -> Result<T, String> {
    field(frame, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no numeric `{key}` in `{frame}`"))
}

/// Checks one response; returns the daemon-reported `ms=` where the
/// frame carries one.
fn check(verb: Verb, frame: &str, e: &Expect) -> Result<Option<f64>, String> {
    let bad = |why: &str| Err(format!("{why}: `{frame}`"));
    if classify_response(frame) != ResponseKind::Ok {
        return bad("not an ok frame");
    }
    match verb {
        Verb::ClusterOf if frame.starts_with("ok cluster=") => Ok(None),
        Verb::Distance if frame.starts_with("ok distance=") => {
            num::<u32>(frame, "distance")?;
            Ok(None)
        }
        Verb::Decompose(algo) if frame.starts_with("ok decomposition") => {
            let (clusters, colors, ..) = e.of(algo);
            if num::<usize>(frame, "clusters")? != clusters
                || num::<u32>(frame, "colors")? != colors
            {
                return bad("decomposition differs from the direct library call");
            }
            Ok(Some(num(frame, "ms")?))
        }
        Verb::Validate if frame.starts_with("ok valid=true tier=exact") => {
            let got = (
                num::<u32>(frame, "colors")?,
                num::<u32>(frame, "strong-diameter")?,
            );
            let want = |a: Algo| (e.of(a).1, e.of(a).2);
            if got != want(Algo::Thm23) && got != want(Algo::Thm34) {
                return bad("validation differs from the direct library call");
            }
            Ok(Some(num(frame, "ms")?))
        }
        Verb::Stats if frame.starts_with("ok stats") => Ok(None),
        _ => bad("unexpected frame"),
    }
}

/// One request/response exchange.
fn exchange(
    writer: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    line: &str,
    frame: &mut String,
) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    frame.clear();
    if reader.read_line(frame)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let trimmed = frame.trim_end().len();
    frame.truncate(trimmed);
    Ok(())
}

fn connect(path: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(path).expect("daemon accepts connections");
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    (stream, reader)
}

/// A running daemon in its own scratch directory, stopped on drop.
struct Daemon {
    handle: Option<DaemonHandle>,
    dir: PathBuf,
    socket: PathBuf,
    expect: Expect,
    load_ms: f64,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.stop();
            h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn expectations(path: &Path) -> Expect {
    let g = load_edge_list(path, &LoadOptions::default()).expect("edge list loads");
    let params = Params::default();
    let mut ctx = CarveCtx::new();
    let mut decomps = Vec::new();
    let mut summary = |algo| {
        let mut ledger = RoundLedger::new();
        let d = decompose(&g, algo, &params, &mut ledger, &mut ctx).expect("unarmed ctx");
        let report = validate_decomposition_in(&g, &d, &mut ctx).expect("unarmed ctx");
        let diameter = report.max_strong_diameter.expect("connected clusters");
        let s = (
            d.num_clusters(),
            d.num_colors(),
            diameter,
            ledger.rounds(),
            ledger.max_message_bits(),
        );
        decomps.push(d);
        s
    };
    let (thm23, thm34) = (summary(Algo::Thm23), summary(Algo::Thm34));
    let mut index: HashMap<(u32, u32), usize> = HashMap::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let group_of = g
        .nodes()
        .map(|v| {
            let key = (
                decomps[0].cluster_of(v).expect("covered").0,
                decomps[1].cluster_of(v).expect("covered").0,
            );
            let next = groups.len();
            let gi = *index.entry(key).or_insert(next);
            if gi == next {
                groups.push(Vec::new());
            }
            groups[gi].push(v);
            gi
        })
        .collect();
    Expect {
        n: g.n(),
        thm23,
        thm34,
        groups,
        group_of,
    }
}

fn start_daemon(run_dir: &Path) -> Daemon {
    let _ = std::fs::remove_dir_all(run_dir);
    std::fs::create_dir_all(run_dir).expect("create scratch directory");
    let edges = run_dir.join("grid.edges");
    let g = gen::grid(GRID, GRID);
    let mut text = String::with_capacity(g.m() * 12);
    for (u, v) in g.edges() {
        text.push_str(&format!("{} {}\n", u.index(), v.index()));
    }
    std::fs::write(&edges, text).expect("write edge list");

    let socket = run_dir.join("serve.sock");
    let handle = spawn_unix(&socket, &ServeConfig::default()).expect("daemon starts");
    let (mut w, mut r) = connect(&socket);
    let mut frame = String::new();
    let t = Instant::now();
    exchange(
        &mut w,
        &mut r,
        &format!("load {}", edges.display()),
        &mut frame,
    )
    .expect("load");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        frame.starts_with("ok graph=") && frame.ends_with("cache=written"),
        "load: {frame}"
    );

    let expect = expectations(&edges);
    for algo in [Algo::Thm23, Algo::Thm34] {
        exchange(
            &mut w,
            &mut r,
            &format!("decompose {} 0.5 0", algo.name()),
            &mut frame,
        )
        .expect("warm-up");
        check(Verb::Decompose(algo), &frame, &expect).expect("warm-up decomposition");
    }
    Daemon {
        handle: Some(handle),
        dir: run_dir.to_path_buf(),
        socket,
        expect,
        load_ms,
    }
}

/// Per-request records of the traced blocks.
#[derive(Default)]
struct ClientTrace {
    by_verb: HashMap<&'static str, Vec<f64>>,
    service_ms: Vec<f64>,
    wait_ms: Vec<f64>,
}

pub fn serve_mix(seed: u64, seconds: f64, trace: bool, probe: &mut Probe) -> Outcome {
    calib::pin_to_this_cpu();
    let run_dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        drop(daemon.take());
        let (d, s) = calib::timed(probe, || start_daemon(&run_dir));
        setup_s.push(s);
        load_ms.push(d.load_ms);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let e = &daemon.expect;

    let (mut w, mut r) = connect(&daemon.socket);
    let mut stream = Stream::new(seed);
    let mut frame = String::new();
    let mut quality = Quality::default();
    let mut tr = ClientTrace::default();
    let mut shed = 0;
    let drive = drive(seconds, trace, TAIL_PCT, BLOCK.len(), probe, |_, traced| {
        let (verb, line) = stream.next(e);
        let t = Instant::now();
        let sent = exchange(&mut w, &mut r, &line, &mut frame);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let result = sent
            .map_err(|err| err.to_string())
            .and_then(|()| check(verb, &frame, e))
            .map_err(|err| format!("`{line}`: {err}"));
        if classify_response(&frame) == ResponseKind::Overloaded {
            shed += 1;
        }
        match (&result, verb) {
            // The frame reports colours but no ledger: rounds and bits are
            // the direct library call's, constant per algorithm.
            (Ok(_), Verb::Decompose(algo)) => {
                let (_, _, _, rounds, bits) = e.of(algo);
                quality.charge(rounds, bits);
                quality.colors(num(&frame, "colors").unwrap_or(0));
            }
            (Ok(_), Verb::Validate) => {
                quality.diameter(num(&frame, "strong-diameter").unwrap_or(0));
            }
            _ => {}
        }
        if traced {
            if let Ok(Some(service)) = &result {
                tr.service_ms.push(*service);
                tr.wait_ms.push(ms - service);
            }
            let key = match verb {
                Verb::ClusterOf => "cluster_of",
                Verb::Distance => "distance",
                Verb::Decompose(_) if field(&frame, "cached") == Some("true") => "decompose_hit",
                Verb::Decompose(_) => "decompose_miss",
                Verb::Validate => "validate",
                Verb::Stats => "stats",
            };
            tr.by_verb.entry(key).or_default().push(ms);
        }
        result.map(|_| ())
    });

    exchange(&mut w, &mut r, "stats", &mut frame).expect("final stats");
    let hits: f64 = num(&frame, "lru-hits").expect("stats frame");
    let misses: f64 = num(&frame, "lru-misses").expect("stats frame");
    drop((w, r));
    drop(daemon);
    let _ = std::fs::remove_dir(".perfbench_tmp");

    let verb = |k: &str| tr.by_verb.get(k).map_or(0.0, |v| median(v));
    let layers = vec![
        ("serve.cluster_of_ms.p50", verb("cluster_of")),
        ("serve.distance_ms.p50", verb("distance")),
        ("serve.decompose_hit_ms.p50", verb("decompose_hit")),
        ("serve.decompose_miss_ms.p50", verb("decompose_miss")),
        ("serve.validate_ms.p50", verb("validate")),
        // Means, not medians: cache hits and cold runs make both bimodal.
        ("serve.service_ms", mean(&tr.service_ms)),
        ("serve.wait_ms", mean(&tr.wait_ms)),
        ("serve.lru_hit_ratio", hits / (hits + misses).max(1.0)),
        ("serve.shed", f64::from(shed)),
        ("dataset.load_ms", median(&load_ms)),
    ];
    Outcome {
        setup_s,
        drive,
        quality,
        layers,
        tail_pct: TAIL_PCT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_expect() -> Expect {
        Expect {
            n: 100,
            thm23: (10, 3, 5, 100, 8),
            thm34: (12, 4, 4, 200, 8),
            groups: (0..10)
                .map(|c| (c * 10..c * 10 + 10).map(NodeId::new).collect())
                .collect(),
            group_of: (0..100).map(|v| v / 10).collect(),
        }
    }

    #[test]
    fn zipf_stream_is_deterministic_per_seed() {
        let e = tiny_expect();
        let take = |seed| {
            let mut s = Stream::new(seed);
            (0..2000).map(|_| s.next(&e).1).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7), "same seed, same stream");
        assert_ne!(take(7), take(8), "seeds matter");
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_key_space() {
        let z = Zipf::new(ZIPF_KEYS, ZIPF_EXPONENT);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; ZIPF_KEYS + 1];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "ranks start at 1");
        assert!(counts[1] > counts[2] && counts[2] > counts[4] && counts[4] > counts[8]);
        assert!(counts[ZIPF_KEYS] > 0, "the tail is reachable");
        // P(rank 1) = 1 / H(24, 1.3) ~ 0.377.
        let p1 = f64::from(counts[1]) / 100_000.0;
        assert!((0.35..0.40).contains(&p1), "p1 = {p1}");
    }

    #[test]
    fn every_block_has_the_exact_mix() {
        let e = tiny_expect();
        let mut s = Stream::new(5);
        for _ in 0..3 {
            let mut counts = HashMap::new();
            for _ in 0..BLOCK.len() {
                *counts.entry(format!("{:?}", s.next(&e).0)).or_insert(0) += 1;
            }
            assert_eq!(counts["ClusterOf"], 8);
            assert_eq!(counts["Distance"], 5);
            assert_eq!(counts["Decompose(Thm23)"], 2);
            assert_eq!(counts["Decompose(Thm34)"], 2);
            assert_eq!(counts["Validate"], 2);
            assert_eq!(counts["Stats"], 1);
        }
    }

    #[test]
    fn distance_requests_stay_inside_a_shared_group() {
        let e = tiny_expect();
        let mut s = Stream::new(1);
        for _ in 0..1000 {
            if let (Verb::Distance, line) = s.next(&e) {
                let nums: Vec<usize> = line
                    .split(' ')
                    .skip(1)
                    .map(|x| x.parse().unwrap())
                    .collect();
                assert_eq!(nums[0] / 10, nums[1] / 10, "{line}");
            }
        }
    }

    #[test]
    fn frames_are_checked_against_expectations() {
        let e = tiny_expect();
        let ok =
            "ok decomposition algo=thm2.3 eps=0.5 seed=3 clusters=10 colors=3 cached=true ms=0.010";
        assert_eq!(check(Verb::Decompose(Algo::Thm23), ok, &e), Ok(Some(0.010)));
        assert!(
            check(Verb::Decompose(Algo::Thm34), ok, &e).is_err(),
            "wrong algorithm's counts"
        );
        let v = "ok valid=true tier=exact degraded=false colors=4 strong-diameter=4 ms=1.5";
        assert_eq!(check(Verb::Validate, v, &e), Ok(Some(1.5)));
        assert!(check(
            Verb::Validate,
            "ok valid=false tier=exact colors=4 strong-diameter=4 ms=1",
            &e
        )
        .is_err());
        assert!(check(Verb::ClusterOf, "err no-decomposition", &e).is_err());
        assert!(check(Verb::Distance, "ok distance=disconnected", &e).is_err());
    }
}
