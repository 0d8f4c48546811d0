//! `congest-sim`: CONGEST kernels stepped by the message-passing engine.
//!
//! BFS, leader election and convergecast run on a grid (many rounds,
//! little work per round) and an expander (few rounds), and `SpBfsKernel`
//! on U[1,8]-weighted copies of both. Each kernel runs on four lanes: the
//! sequential `EngineSession`, the parallel session with 2 threads,
//! `run_async` with 1 worker and no faults, and `run_async` with 1 worker
//! under one seeded drop/duplicate/delay adversary.
//!
//! Set-up checks each kernel's first sequential run against its fast
//! path (outputs, rounds, messages, total and max bits) and keeps that
//! run as the reference. Every zero-fault op must reproduce it exactly;
//! a faulted op must reproduce it or end in a diagnostic (a typed
//! failure, or a report of messages lost past the retry budget).

use crate::calib::{self, Probe};
use crate::{drive, Drive, Outcome, Quality, SETUP_REPS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdnd_clustering::{metrics, CarveCtx};
use sdnd_congest::{
    bits_for_value, primitives, run_async, Adversary, AsyncConfig, CostModel, Engine,
    EngineSession, Protocol, RoundLedger, RunOutcome,
};
use sdnd_graph::gen::{self, WeightDist};
use sdnd_graph::{Adjacency, FullView, Graph, NodeId};
use std::fmt::Debug;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Seq,
    Par2,
    Async,
    Faulted,
}

const LANES: [Lane; 4] = [Lane::Seq, Lane::Par2, Lane::Async, Lane::Faulted];

/// The reported tail percentile.
const TAIL_PCT: usize = 99;

/// One generated graph with its kernel inputs; the expander, weights and
/// convergecast values derive from the seed.
struct Input {
    name: String,
    g: Graph,
    source: NodeId,
    /// Fast-path BFS tree from `source` (unweighted inputs only).
    parent: Vec<Option<NodeId>>,
    /// Convergecast values (unweighted inputs only).
    values: Vec<u64>,
}

fn inputs(seed: u64) -> Vec<Input> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let grid = gen::grid(64, 64);
    let expander = gen::random_regular_connected(4096, 4, seed).expect("expander generates");
    let mut out = Vec::new();
    for (name, g) in [("grid-64x64", grid), ("expander-4096", expander)] {
        let weighted = gen::reweight(&g, WeightDist::UniformInt { lo: 1, hi: 8 }, rng.gen())
            .expect("valid weights");
        // Node 0 is a grid corner, so the grid floods take the full
        // diameter in rounds whatever the seed.
        let source = NodeId::new(0);
        let mut ledger = RoundLedger::new();
        let bfs = primitives::bfs(&g.full_view(), [source], u32::MAX, &mut ledger);
        let values = (0..g.n()).map(|_| rng.gen_range(1..=9u64)).collect();
        out.push(Input {
            name: name.into(),
            parent: bfs.parents().to_vec(),
            values,
            source,
            g,
        });
        out.push(Input {
            name: format!("{name}-w8"),
            g: weighted,
            source,
            parent: Vec::new(),
            values: Vec::new(),
        });
    }
    out
}

/// Engines and warm sessions of one graph.
struct Lanes<'g> {
    engine: Engine,
    seq: EngineSession<'g>,
    par: EngineSession<'g>,
}

/// What one kernel run cost, for the quality and layer metrics.
#[derive(Debug, Default)]
struct RunStats {
    rounds: u64,
    messages: u64,
    max_bits: u32,
    pulses: u64,
    faults: u64,
    diagnosed: bool,
}

trait Kernel {
    fn label(&self) -> &str;
    /// Index of the input graph, whose `Lanes` the kernel runs on.
    fn graph(&self) -> usize;
    fn run(&self, lane: Lane, lanes: &mut Lanes<'_>, cfg: &Configs) -> Result<RunStats, String>;
}

struct Configs {
    clean: AsyncConfig,
    faulted: AsyncConfig,
}

/// A kernel, its view, and the reference outcome every run must match.
struct Checked<'v, 'g, P: Protocol> {
    label: String,
    graph: usize,
    view: &'v FullView<'g>,
    kernel: P,
    reference: RunOutcome<P::State>,
}

impl<'v, 'g, P> Checked<'v, 'g, P>
where
    P: Protocol + Sync,
    P::State: Send + PartialEq + Debug,
    P::Msg: Send + Sync + 'static,
{
    /// Runs the kernel once on the sequential session and checks it
    /// against the fast path: `agrees` compares the states, and the
    /// charges must match `fast` exactly.
    fn new(
        label: String,
        index: usize,
        lanes: &mut Lanes<'g>,
        view: &'v FullView<'g>,
        kernel: P,
        fast: &RoundLedger,
        agrees: impl Fn(&[Option<P::State>]) -> Result<(), String>,
    ) -> Self {
        let reference = lanes.seq.run(view, &kernel).expect("reference run");
        let check = || -> Result<(), String> {
            agrees(&reference.states)?;
            let l = &reference.ledger;
            let charges = (
                reference.rounds,
                l.messages(),
                l.total_bits(),
                l.max_message_bits(),
            );
            let expect = (
                fast.rounds(),
                fast.messages(),
                fast.total_bits(),
                fast.max_message_bits(),
            );
            if charges != expect {
                return Err(format!(
                    "kernel (rounds, messages, bits, max bits) {charges:?} != fast path {expect:?}"
                ));
            }
            Ok(())
        };
        if let Err(e) = check() {
            panic!("{label}: kernel disagrees with its fast path: {e}");
        }
        Checked {
            label,
            graph: index,
            view,
            kernel,
            reference,
        }
    }

    fn matches(&self, out: &RunOutcome<P::State>) -> bool {
        out.rounds == self.reference.rounds
            && out.ledger == self.reference.ledger
            && out.states == self.reference.states
    }
}

impl<P> Kernel for Checked<'_, '_, P>
where
    P: Protocol + Sync,
    P::State: Send + PartialEq + Debug,
    P::Msg: Send + Sync + 'static,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn graph(&self) -> usize {
        self.graph
    }

    fn run(&self, lane: Lane, lanes: &mut Lanes<'_>, cfg: &Configs) -> Result<RunStats, String> {
        let stats = |out: &RunOutcome<P::State>| RunStats {
            rounds: out.rounds,
            messages: out.ledger.messages(),
            max_bits: out.ledger.max_message_bits(),
            ..RunStats::default()
        };
        let mismatch = || Err("outcome differs from the fast path".to_string());
        match lane {
            Lane::Seq | Lane::Par2 => {
                let session = if lane == Lane::Seq {
                    &mut lanes.seq
                } else {
                    &mut lanes.par
                };
                let out = session
                    .run(self.view, &self.kernel)
                    .map_err(|e| e.to_string())?;
                if !self.matches(&out) {
                    return mismatch();
                }
                Ok(stats(&out))
            }
            Lane::Async => {
                let run = run_async(&lanes.engine, self.view, &self.kernel, &cfg.clean)
                    .map_err(|e| e.to_string())?;
                if !self.matches(&run.outcome) || !run.report.is_clean() {
                    return mismatch();
                }
                Ok(RunStats {
                    pulses: run.report.pulses,
                    ..stats(&run.outcome)
                })
            }
            Lane::Faulted => {
                let faults = |r: &sdnd_congest::FaultReport| r.dropped + r.duplicated + r.delayed;
                match run_async(&lanes.engine, self.view, &self.kernel, &cfg.faulted) {
                    Ok(run) => {
                        let diagnosed = run.report.lost > 0 || !run.report.crashed.is_empty();
                        if !diagnosed && !self.matches(&run.outcome) {
                            return Err("faulted run diverged without a diagnostic".into());
                        }
                        Ok(RunStats {
                            pulses: run.report.pulses,
                            faults: faults(&run.report),
                            diagnosed,
                            ..stats(&run.outcome)
                        })
                    }
                    Err(failure) => Ok(RunStats {
                        pulses: failure.report.pulses,
                        faults: faults(&failure.report),
                        diagnosed: true,
                        ..RunStats::default()
                    }),
                }
            }
        }
    }
}

/// Builds the four kernels (three on unweighted inputs, `SpBfs` on
/// weighted ones) over `views`, checking each against its fast path.
fn kernels<'v, 'g>(
    inputs: &'g [Input],
    views: &'v [FullView<'g>],
    lanes: &mut [Lanes<'g>],
) -> Vec<Box<dyn Kernel + 'v>> {
    let mut out: Vec<Box<dyn Kernel + 'v>> = Vec::new();
    for (i, ((inp, view), lanes)) in inputs.iter().zip(views).zip(lanes.iter_mut()).enumerate() {
        let s = inp.source;
        let label = |k: &str| format!("{k} on {}", inp.name);
        if inp.g.is_weighted() {
            let mut fast = RoundLedger::new();
            let sp = primitives::sp_bfs(view, [s], f64::INFINITY, &mut fast);
            let kernel = primitives::SpBfsKernel::new(view, [s], f64::INFINITY);
            out.push(Box::new(Checked::new(
                label("sp-bfs"),
                i,
                lanes,
                view,
                kernel,
                &fast,
                |st| {
                    agree_all(view.graph(), |v| {
                        let k = st[v.index()].as_ref().map(|s| (s.dist, s.parent));
                        k == Some((sp.reached(v).then(|| sp.dist(v)), sp.parent(v)))
                    })
                },
            )));
            continue;
        }
        let mut fast = RoundLedger::new();
        let bfs = primitives::bfs(view, [s], u32::MAX, &mut fast);
        let kernel = primitives::BfsKernel::new(view, [s], u32::MAX);
        out.push(Box::new(Checked::new(
            label("bfs"),
            i,
            lanes,
            view,
            kernel,
            &fast,
            |st| {
                agree_all(view.graph(), |v| {
                    let k = st[v.index()].as_ref().map(|s| (s.dist, s.parent));
                    k == Some((bfs.reached(v).then(|| bfs.dist(v)), bfs.parent(v)))
                })
            },
        )));

        let mut fast = RoundLedger::new();
        let leader = primitives::elect_leader(view, &mut fast);
        let kernel = primitives::LeaderKernel::new(view);
        out.push(Box::new(Checked::new(
            label("leader"),
            i,
            lanes,
            view,
            kernel,
            &fast,
            |st| {
                agree_all(view.graph(), |v| {
                    let k = st[v.index()]
                        .as_ref()
                        .map(|s| (Some(s.id), s.dist, s.parent));
                    k == Some((leader.leader_id_at(v), leader.dist(v), leader.parent(v)))
                })
            },
        )));

        let bits = bits_for_value(inp.values.iter().sum());
        let mut fast = RoundLedger::new();
        let sum = primitives::converge_cast_sum(view, s, &inp.parent, &inp.values, bits, &mut fast);
        let kernel =
            primitives::ConvergeCastKernel::new(inp.g.n(), s, &inp.parent, &inp.values, bits);
        out.push(Box::new(Checked::new(
            label("convergecast"),
            i,
            lanes,
            view,
            kernel,
            &fast,
            |st| match &st[s.index()] {
                Some(root) if root.acc == sum => Ok(()),
                other => Err(format!("root holds {other:?}, fast path sums to {sum}")),
            },
        )));
    }
    out
}

fn agree_all(g: &Graph, same: impl Fn(NodeId) -> bool) -> Result<(), String> {
    match g.nodes().find(|&v| !same(v)) {
        Some(v) => Err(format!("kernel state at {v:?} differs from the fast path")),
        None => Ok(()),
    }
}

/// Exact hop diameter of the unweighted inputs: each is one cluster of
/// one colour for the kernels that flood it.
fn max_diameter(inputs: &[Input]) -> u32 {
    let mut ctx = CarveCtx::new();
    inputs
        .iter()
        .filter(|inp| !inp.g.is_weighted())
        .map(|inp| {
            let all: Vec<NodeId> = inp.g.nodes().collect();
            metrics::strong_diameter_of_in(&inp.g, &all, &mut ctx).expect("connected input")
        })
        .max()
        .unwrap_or(0)
}

#[derive(Default)]
struct Totals {
    seq_ms: f64,
    seq_runs: u64,
    seq_rounds: u64,
    par_ms: f64,
    par_runs: u64,
    engine_rounds: u64,
    engine_messages: u64,
    async_ms: f64,
    async_runs: u64,
    pulses: u64,
    faulted_runs: u64,
    faults: u64,
    diagnosed: u64,
}

pub fn congest_sim(seed: u64, seconds: f64, trace: bool, probe: &mut Probe) -> Outcome {
    let configs = Configs {
        clean: AsyncConfig::default().with_workers(1),
        faulted: AsyncConfig::new(
            Adversary::new(seed)
                .with_drop_rate(0.01)
                .with_duplicate_rate(0.01)
                .with_max_delay(2),
        )
        .with_workers(1),
    };
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let before = probe.time_ms();
        let start = Instant::now();
        let inputs = inputs(seed);
        let views: Vec<FullView<'_>> = inputs.iter().map(|inp| inp.g.full_view()).collect();
        let mut lanes: Vec<Lanes<'_>> = inputs
            .iter()
            .map(|inp| {
                let engine = Engine::new(CostModel::congest_for(inp.g.n()));
                Lanes {
                    seq: engine.session(&inp.g),
                    par: engine.clone().with_threads(2).session(&inp.g),
                    engine,
                }
            })
            .collect();
        let kernels = kernels(&inputs, &views, &mut lanes);
        let diameter = max_diameter(&inputs);
        let secs = start.elapsed().as_secs_f64();
        setup_s.push(secs * calib::scale(before, probe.time_ms()));
        if rep + 1 < SETUP_REPS {
            continue;
        }

        // The kernels flood each whole graph: one cluster of one colour.
        let mut quality = Quality::default();
        quality.colors(1);
        quality.diameter(diameter);
        let mut t = Totals::default();
        let cycle = kernels.len() * LANES.len();
        let drive: Drive = drive(seconds, trace, TAIL_PCT, cycle, probe, |i, traced| {
            let k = &kernels[(i / LANES.len()) % kernels.len()];
            let lane = LANES[i % LANES.len()];
            let start = Instant::now();
            let run = k
                .run(lane, &mut lanes[k.graph()], &configs)
                .map_err(|e| format!("{} on {lane:?}: {e}", k.label()))?;
            quality.charge(run.rounds, run.max_bits);
            if traced {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                match lane {
                    Lane::Seq => {
                        t.seq_ms += ms;
                        t.seq_runs += 1;
                        t.seq_rounds += run.rounds;
                    }
                    Lane::Par2 => {
                        t.par_ms += ms;
                        t.par_runs += 1;
                    }
                    Lane::Async | Lane::Faulted => {
                        t.async_ms += ms;
                        t.async_runs += 1;
                        t.pulses += run.pulses;
                    }
                }
                if matches!(lane, Lane::Seq | Lane::Par2) {
                    t.engine_rounds += run.rounds;
                    t.engine_messages += run.messages;
                }
                if lane == Lane::Faulted {
                    t.faulted_runs += 1;
                    t.faults += run.faults;
                    t.diagnosed += u64::from(run.diagnosed);
                }
            }
            Ok(())
        });
        let per = |x: f64, n: u64| x / n.max(1) as f64;
        let engine_runs = t.seq_runs + t.par_runs;
        let layers = vec![
            ("engine.seq_ms", per(t.seq_ms, t.seq_runs)),
            ("engine.par2_ms", per(t.par_ms, t.par_runs)),
            ("engine.rounds", per(t.engine_rounds as f64, engine_runs)),
            (
                "engine.messages",
                per(t.engine_messages as f64, engine_runs),
            ),
            ("engine.us_per_round", per(t.seq_ms * 1e3, t.seq_rounds)),
            ("async.run_ms", per(t.async_ms, t.async_runs)),
            ("async.pulses", per(t.pulses as f64, t.async_runs)),
            ("async.faults", per(t.faults as f64, t.faulted_runs)),
            ("async.diagnosed", per(t.diagnosed as f64, t.faulted_runs)),
        ];
        return Outcome {
            setup_s,
            drive,
            quality,
            layers,
            tail_pct: TAIL_PCT,
        };
    }
    unreachable!("the last set-up repetition runs the workload")
}
