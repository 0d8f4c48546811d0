//! Asynchronous execution lane: nodes as tasks over real channels, an
//! α-synchronizer, and a deterministic fault-injecting adversary.
//!
//! The synchronous [`Engine`] *is* the CONGEST model; real networks are
//! neither synchronous nor reliable. This module closes that gap the
//! classical way (Awerbuch's α-synchronizer): node tasks exchange typed
//! messages over per-edge channel routes, a node becomes *safe* for a
//! pulse once all its sends are acknowledged, and it advances once it and
//! all alive neighbors are safe — so every existing [`Protocol`] impl
//! runs **unmodified**. Between send and delivery sits a seeded
//! [`Adversary`] injecting drops (with a bounded retry budget), duplicate
//! deliveries (deduped by round-stamp, the transport analog of the
//! engine's `DuplicateEdgeMessage` rule), simulated delays (absorbed by
//! the synchronizer, reported in the [`FaultReport`]), and mid-pulse
//! crash faults. Every fault is a pure function of
//! `(seed, pulse, directed-edge id)`, so runs are reproducible and
//! shrinkable.
//!
//! # Execution shape
//!
//! Per-node OS threads would be ruinous at the scales this workspace
//! benches, so node tasks are multiplexed onto a small pool of worker
//! threads (contiguous, slot-mass-balanced shards — the same
//! [`ParLayout`](crate::engine) carving as the engine's parallel lane),
//! with one `std::thread::scope` per run. The per-node α-machinery
//! (payload acks, per-neighbor safety counters, crash notices) is real
//! and message-driven; on top of it, a conductor gates the global pulse
//! number and detects quiescence/termination — a termination-detection
//! layer that a fully decentralized deployment would replace with e.g. a
//! spanning-tree convergecast, at the cost of extra control rounds.
//!
//! With a single worker shard the α-condition is checkable entirely
//! locally, so the lane switches to a *streaming* mode: the worker
//! free-runs pulses back-to-back (frontier-driven stepping, no ack or
//! safety bookkeeping — none of it is observable without peers) while
//! the conductor consumes its per-pulse reports with the exact gated
//! accounting and budget semantics. Outcomes are identical either way;
//! what the solo mode removes is the per-pulse cross-thread round trips,
//! which dominate zero-fault overhead on high-diameter graphs (see
//! `BENCH_async.json`).
//!
//! # Bit-identity under zero faults
//!
//! Under a zero-fault adversary the lane is *bit-for-bit identical* to
//! [`Engine::run`]: states, round count, and [`RoundLedger`] charges
//! (property-pinned in `tests/failure_injection.rs`, for any worker
//! count). This holds because the lane reuses the engine's own `Outbox`
//! and accounting code paths, steps nodes in index order within shards,
//! sorts inboxes into the engine's sender order, gates steps on the same
//! has-mail rule, counts a round exactly when the engine would, and
//! reports the lowest-index erring node. The ledger stays the *logical*
//! CONGEST cost — a crashed node's accepted sends are charged even if
//! the transport then suppresses them, and retransmits/acks/duplicates
//! are transport artifacts accounted only in the [`FaultReport`].
//!
//! # Never panic, never hang
//!
//! Faulted runs either complete (and validation decides whether the
//! outcome is still acceptable) or fail with a typed error: the shared
//! [`Watchdog`] enforces a pulse budget
//! ([`EngineError::PulseLimitExceeded`]) and a wall-clock deadline
//! ([`EngineError::WallClockExceeded`], threaded into every blocking
//! conductor receive). Worker teardown is unconditional: workers block
//! only on their own event channel, and every conductor exit path either
//! sends `Abort`/`Collect` or drops the senders, so the thread scope
//! always joins. The one unguardable case is a single `Protocol::step`
//! call that itself never returns — the synchronous engine shares it.

mod adversary;
mod report;
mod worker;

pub use adversary::{Adversary, CrashSpec, Transmission, DEFAULT_CRASH_HORIZON, RETRY_LIMIT};
pub use report::{CrashEvent, FaultDiagnostic, FaultReport};
#[doc(hidden)]
pub use worker::live_workers;

use std::error::Error;
use std::fmt;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use sdnd_graph::{Adjacency, NodeId};

use crate::engine::{Engine, EngineError, ParLayout, Protocol, RunOutcome};
use crate::watchdog::Watchdog;
use crate::RoundLedger;

use worker::{Event, LaneCtx, Report, Worker};

/// Default pulse budget of the async lane — the documented analog of the
/// engine's one-million default round limit, *not* unbounded.
pub const DEFAULT_MAX_PULSES: u64 = 1_000_000;

/// Default wall-clock budget of the async lane.
pub const DEFAULT_WALL_CLOCK: Duration = Duration::from_secs(30);

/// Maximum worker threads node tasks may be multiplexed onto.
pub const MAX_WORKERS: usize = 64;

/// Configuration of one async-lane run: the adversary, the worker pool
/// width, and the watchdog budgets.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// The fault injector (zero-fault by default).
    pub adversary: Adversary,
    /// Worker threads node tasks are multiplexed onto (clamped to
    /// `1..=MAX_WORKERS`; outcomes are independent of this by
    /// construction).
    pub workers: usize,
    /// Pulse budget ([`DEFAULT_MAX_PULSES`] unless overridden).
    pub max_pulses: u64,
    /// Wall-clock budget ([`DEFAULT_WALL_CLOCK`] unless overridden).
    pub wall_clock: Duration,
    /// External request deadline/cancel token (unarmed by default);
    /// trips as [`EngineError::Cancelled`] at pulse boundaries and in
    /// blocking conductor receives.
    pub deadline: sdnd_graph::Deadline,
}

impl AsyncConfig {
    /// A config with the given adversary and default workers/budgets.
    pub fn new(adversary: Adversary) -> Self {
        AsyncConfig {
            adversary,
            workers: 2,
            max_pulses: DEFAULT_MAX_PULSES,
            wall_clock: DEFAULT_WALL_CLOCK,
            deadline: sdnd_graph::Deadline::unarmed(),
        }
    }

    /// Sets the worker pool width.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the pulse budget.
    pub fn with_max_pulses(mut self, max_pulses: u64) -> Self {
        self.max_pulses = max_pulses;
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_wall_clock(mut self, wall_clock: Duration) -> Self {
        self.wall_clock = wall_clock;
        self
    }

    /// Adopts an external request deadline/cancel token.
    pub fn with_deadline(mut self, deadline: sdnd_graph::Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

impl Default for AsyncConfig {
    /// Zero-fault adversary (seed 1), two workers, default budgets.
    fn default() -> Self {
        AsyncConfig::new(Adversary::new(1))
    }
}

/// A completed async-lane run: the engine-shaped outcome plus the
/// transport accounting.
#[derive(Debug)]
pub struct AsyncOutcome<S> {
    /// States, rounds, and ledger — bit-identical to [`Engine::run`]
    /// under a zero-fault adversary.
    pub outcome: RunOutcome<S>,
    /// What the transport and the adversary did underneath.
    pub report: FaultReport,
}

/// A failed async-lane run: the typed error plus the transport
/// accounting up to the failure (partial for the failing pulse).
#[derive(Debug)]
pub struct AsyncFailure {
    /// What stopped the run.
    pub error: EngineError,
    /// Transport accounting up to the failure.
    pub report: FaultReport,
}

impl fmt::Display for AsyncFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl Error for AsyncFailure {}

/// Runs `protocol` on every alive node of `view` on the asynchronous
/// lane, under `cfg`'s adversary and budgets, using `engine`'s cost
/// model (its `max_rounds` is *not* consulted — the pulse budget lives
/// in [`AsyncConfig::max_pulses`]).
///
/// # Errors
///
/// Fails with the same protocol errors as [`Engine::run`]
/// (budget/duplicate/neighbor violations, lowest-index node reported),
/// or with [`EngineError::PulseLimitExceeded`] /
/// [`EngineError::WallClockExceeded`] from the watchdog; the failure
/// carries the [`FaultReport`] accumulated so far (boxed — the report
/// is a couple dozen counters, too large for an inline `Err`).
pub fn run_async<A, P>(
    engine: &Engine,
    view: &A,
    protocol: &P,
    cfg: &AsyncConfig,
) -> Result<AsyncOutcome<P::State>, Box<AsyncFailure>>
where
    A: Adjacency,
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    let g = view.graph();
    let n = view.universe();
    let alive_list: Vec<NodeId> = view.nodes().collect();
    let mut alive = vec![false; n];
    for &v in &alive_list {
        alive[v.index()] = true;
    }
    let layout = ParLayout::carve(g, cfg.workers.clamp(1, MAX_WORKERS));
    let shards = layout.shards();
    let mut worker_of = vec![0u32; n];
    for s in 0..shards {
        for w in worker_of
            .iter_mut()
            .take(layout.node_bounds[s + 1])
            .skip(layout.node_bounds[s])
        {
            *w = s as u32;
        }
    }
    let crash_of = cfg.adversary.crash_schedule(n, &alive_list);
    let crashes_planned = crash_of.iter().filter(|c| c.is_some()).count() as u64;
    let ctx = LaneCtx {
        engine,
        g,
        protocol,
        alive: &alive,
        adversary: &cfg.adversary,
        crash_of: &crash_of,
        worker_of: &worker_of,
        node_bounds: &layout.node_bounds,
        slot_bounds: &layout.slot_bounds,
        rev: g.reverse_edges(),
    };
    let watchdog = Watchdog::pulses(cfg.max_pulses)
        .with_wall_clock(cfg.wall_clock)
        .with_deadline(cfg.deadline.clone());

    let mut event_txs: Vec<Sender<Event<P::Msg>>> = Vec::with_capacity(shards);
    let mut event_rxs: Vec<Receiver<Event<P::Msg>>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpsc::channel();
        event_txs.push(tx);
        event_rxs.push(rx);
    }
    let (report_tx, report_rx) = mpsc::channel::<Report<P::State>>();

    // Workers block only on their own event receiver, and the conductor
    // terminates every exit path with `Collect`/`Abort` (and drops the
    // event senders on return), so this scope always joins — no leaked
    // threads, on success, protocol error, or watchdog trip alike.
    std::thread::scope(|scope| {
        for (s, rx) in event_rxs.into_iter().enumerate() {
            let worker = Worker::new(&ctx, s as u32, rx, event_txs.clone(), report_tx.clone());
            scope.spawn(move || worker.run());
        }
        drop(report_tx);
        let mut conductor = Conductor {
            shards,
            event_txs,
            report_rx,
            watchdog,
            ledger: RoundLedger::new(),
            report: FaultReport {
                crashes_planned,
                ..FaultReport::default()
            },
        };
        conductor.drive(n)
    })
}

/// One shard's `PulseDone` payload as collected by the gate:
/// `(sent_any, first local error, traffic ledger, fault counters)`.
type PulseSlot = (bool, Option<EngineError>, RoundLedger, FaultReport);

/// The pulse gate: broadcasts pulse go-aheads, collects per-shard
/// reports, folds ledgers/faults/errors in shard order, and enforces the
/// watchdog.
struct Conductor<M, S> {
    shards: usize,
    event_txs: Vec<Sender<Event<M>>>,
    report_rx: Receiver<Report<S>>,
    watchdog: Watchdog,
    ledger: RoundLedger,
    report: FaultReport,
}

impl<M, S> Conductor<M, S> {
    fn drive(&mut self, n: usize) -> Result<AsyncOutcome<S>, Box<AsyncFailure>> {
        let pulses = if self.shards == 1 {
            self.stream_pulses()
        } else {
            self.gate_pulses()
        };
        let rounds = match pulses {
            Ok(r) => r,
            Err(e) => return Err(self.fail(e)),
        };
        for tx in &self.event_txs {
            let _ = tx.send(Event::Collect);
        }
        let mut chunks: Vec<Option<Vec<Option<S>>>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            match self.recv() {
                Ok(Report::States {
                    shard,
                    states,
                    faults,
                }) => {
                    // Residual counters from deliveries a shard processed
                    // after its last PulseDone (late duplicates, acks).
                    self.report.merge(&faults);
                    chunks[shard as usize] = Some(states);
                }
                Ok(Report::PulseDone { .. }) => unreachable!("no pulse in flight during collect"),
                Err(e) => return Err(self.fail(e)),
            }
        }
        let mut states: Vec<Option<S>> = Vec::with_capacity(n);
        for chunk in chunks {
            states.extend(chunk.expect("every shard reports its states"));
        }
        self.ledger.charge_rounds(rounds);
        Ok(AsyncOutcome {
            outcome: RunOutcome {
                states,
                rounds,
                ledger: std::mem::replace(&mut self.ledger, RoundLedger::new()),
            },
            report: std::mem::take(&mut self.report),
        })
    }

    /// The gated pulse loop (two or more shards): one go-ahead broadcast
    /// and one `PulseDone` barrier per pulse. Pulse 0 is the init phase,
    /// exactly like the engine's round 0.
    fn gate_pulses(&mut self) -> Result<u64, EngineError> {
        let mut rounds = 0u64;
        let mut any_pending = self.pulse(0)?;
        while any_pending {
            self.watchdog.check(rounds)?;
            rounds += 1;
            self.report.pulses = rounds;
            any_pending = self.pulse(rounds)?;
        }
        Ok(rounds)
    }

    /// The streaming pulse loop (single shard): the worker free-runs
    /// pulses on its own (see `Worker::free_run`) and the conductor
    /// consumes the `PulseDone` stream. Deltas merge in the same order
    /// and the watchdog fires at the same pulse index as the gated path,
    /// so the two modes are observationally identical — this one just
    /// never blocks the worker on a per-pulse grant.
    fn stream_pulses(&mut self) -> Result<u64, EngineError> {
        let _ = self.event_txs[0].send(Event::Pulse(0));
        let mut rounds = 0u64;
        loop {
            match self.recv()? {
                Report::PulseDone {
                    sent_any,
                    error,
                    traffic,
                    faults,
                    ..
                } => {
                    self.ledger.merge_traffic(&traffic);
                    self.report.merge(&faults);
                    if let Some(e) = error {
                        return Err(e);
                    }
                    if !sent_any {
                        return Ok(rounds);
                    }
                    self.watchdog.check(rounds)?;
                    rounds += 1;
                    self.report.pulses = rounds;
                }
                Report::States { .. } => unreachable!("no collect in flight while pulsing"),
            }
        }
    }

    /// Runs one global pulse: go-ahead to every worker, then one
    /// `PulseDone` per shard. Ledgers and fault deltas merge in shard
    /// (= node index) order; among erring shards the lowest wins,
    /// matching the engine's lowest-index-node error precedence.
    fn pulse(&mut self, r: u64) -> Result<bool, EngineError> {
        for tx in &self.event_txs {
            let _ = tx.send(Event::Pulse(r));
        }
        let mut done: Vec<Option<PulseSlot>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            match self.recv()? {
                Report::PulseDone {
                    shard,
                    sent_any,
                    error,
                    traffic,
                    faults,
                } => done[shard as usize] = Some((sent_any, error, traffic, faults)),
                Report::States { .. } => unreachable!("no collect in flight during a pulse"),
            }
        }
        let mut any = false;
        let mut first_error = None;
        for entry in done {
            let (sent_any, error, traffic, faults) = entry.expect("every shard reports the pulse");
            any |= sent_any;
            self.ledger.merge_traffic(&traffic);
            self.report.merge(&faults);
            if first_error.is_none() {
                first_error = error;
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(any),
        }
    }

    /// Receives one worker report under the earliest armed deadline
    /// (wall budget or external request deadline); a timeout reports
    /// whichever source actually expired.
    fn recv(&mut self) -> Result<Report<S>, EngineError> {
        match self.watchdog.deadline() {
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                if timeout.is_zero() {
                    return Err(self.watchdog.deadline_error("conductor-recv"));
                }
                self.report_rx.recv_timeout(timeout).map_err(|e| match e {
                    RecvTimeoutError::Timeout => self.watchdog.deadline_error("conductor-recv"),
                    // All workers gone without reporting: a worker died in
                    // a protocol panic; the scope join will re-raise it —
                    // surface the deadline error as the placeholder result.
                    RecvTimeoutError::Disconnected => {
                        self.watchdog.deadline_error("conductor-recv")
                    }
                })
            }
            None => self
                .report_rx
                .recv()
                .map_err(|_| self.watchdog.wall_error()),
        }
    }

    /// The single abort path: wake every worker so the scope joins, then
    /// package the typed error with the accounting so far.
    fn fail(&mut self, error: EngineError) -> Box<AsyncFailure> {
        for tx in &self.event_txs {
            let _ = tx.send(Event::Abort);
        }
        self.event_txs.clear();
        Box::new(AsyncFailure {
            error,
            report: std::mem::take(&mut self.report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{primitives, CostModel};
    use sdnd_graph::{gen, Graph, NodeSet};

    fn engine_for(g: &Graph) -> Engine {
        Engine::new(CostModel::congest_for(g.n()))
    }

    /// Asserts the async lane reproduces `Engine::run` bit for bit.
    fn assert_identical<A, P>(g: &Graph, view: &A, kernel: &P, cfg: &AsyncConfig)
    where
        A: Adjacency,
        P: Protocol + Sync,
        P::State: Send + PartialEq + std::fmt::Debug,
        P::Msg: Send + Sync,
    {
        let engine = engine_for(g);
        let sync = engine.run(view, kernel).expect("sync run succeeds");
        let lane = run_async(&engine, view, kernel, cfg).expect("async run succeeds");
        assert_eq!(lane.outcome.rounds, sync.rounds, "rounds");
        assert_eq!(lane.outcome.ledger, sync.ledger, "ledger");
        assert_eq!(lane.outcome.states, sync.states, "states");
        assert!(lane.report.is_clean(), "zero-fault run reports faults");
        assert_eq!(lane.report.pulses, sync.rounds);
    }

    #[test]
    fn zero_fault_bfs_is_bit_identical_for_every_worker_count() {
        let g = gen::grid(6, 7);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        for workers in [1usize, 2, 3, 5, 8] {
            let cfg = AsyncConfig::default().with_workers(workers);
            assert_identical(&g, &view, &kernel, &cfg);
        }
    }

    #[test]
    fn zero_fault_leader_matches_engine_on_gnp() {
        let g = gen::gnp_connected(40, 0.12, 3);
        let view = g.full_view();
        let kernel = primitives::LeaderKernel::new(&view);
        let cfg = AsyncConfig::default().with_workers(3);
        assert_identical(&g, &view, &kernel, &cfg);
    }

    #[test]
    fn zero_fault_identity_holds_on_subset_views() {
        let g = gen::gnp_connected(36, 0.15, 11);
        let alive = NodeSet::from_nodes(g.n(), g.nodes().filter(|v| v.index() % 5 != 0));
        let view = g.view(&alive);
        let src = alive.iter().next().expect("nonempty");
        let kernel = primitives::BfsKernel::new(&view, [src], u32::MAX);
        let cfg = AsyncConfig::default().with_workers(4);
        assert_identical(&g, &view, &kernel, &cfg);
    }

    #[test]
    fn faulted_outcome_is_worker_count_independent() {
        let g = gen::gnp_connected(32, 0.15, 5);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = engine_for(&g);
        let adversary = Adversary::new(77)
            .with_drop_rate(0.04)
            .with_duplicate_rate(0.05)
            .with_max_delay(2)
            .with_crashes(1);
        let run = |workers| {
            let cfg = AsyncConfig::new(adversary.clone()).with_workers(workers);
            run_async(&engine, &view, &kernel, &cfg).expect("faulted run still completes")
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(
            a.outcome.states, b.outcome.states,
            "states across worker counts"
        );
        assert_eq!(a.outcome.rounds, b.outcome.rounds);
        assert_eq!(a.outcome.ledger, b.outcome.ledger);
        // Fault-class counters are schedule-determined; only the remote
        // control-message counters may differ with the worker layout.
        assert_eq!(a.report.class_rows(), b.report.class_rows());
        assert_eq!(a.report.crashed, b.report.crashed);
    }

    #[test]
    fn heavy_drops_complete_with_loss_accounting() {
        let g = gen::cycle(30);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = engine_for(&g);
        let cfg = AsyncConfig::new(Adversary::new(13).with_drop_rate(0.8)).with_workers(2);
        let lane = run_async(&engine, &view, &kernel, &cfg).expect("lossy run completes");
        assert!(lane.report.dropped > 0, "p=0.8 must drop something");
        assert!(
            lane.report.lost > 0,
            "p=0.8 must exhaust some retry budgets"
        );
        assert!(!lane.report.is_clean());
    }

    #[test]
    fn duplicates_are_deduped_and_do_not_change_the_outcome_shape() {
        let g = gen::grid(5, 5);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = engine_for(&g);
        let sync = engine.run(&view, &kernel).expect("sync run");
        let cfg = AsyncConfig::new(Adversary::new(21).with_duplicate_rate(1.0)).with_workers(3);
        let lane = run_async(&engine, &view, &kernel, &cfg).expect("dup run completes");
        assert!(lane.report.duplicated > 0);
        assert_eq!(
            lane.report.deduped, lane.report.duplicated,
            "every duplicate copy is discarded by round-stamp"
        );
        // Duplicates are invisible to the algorithm: outcome still matches.
        assert_eq!(lane.outcome.states, sync.states);
        assert_eq!(lane.outcome.ledger, sync.ledger);
    }

    #[test]
    fn delays_are_absorbed_by_the_synchronizer() {
        let g = gen::grid(5, 6);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(4)], u32::MAX);
        let engine = engine_for(&g);
        let sync = engine.run(&view, &kernel).expect("sync run");
        let cfg = AsyncConfig::new(Adversary::new(5).with_max_delay(6)).with_workers(2);
        let lane = run_async(&engine, &view, &kernel, &cfg).expect("delayed run completes");
        assert!(lane.report.delayed > 0);
        assert!(lane.report.delay_pulses >= lane.report.delayed);
        assert_eq!(
            lane.outcome.states, sync.states,
            "delay is never outcome-visible"
        );
        assert_eq!(lane.outcome.rounds, sync.rounds);
    }

    #[test]
    fn crash_fault_fires_and_is_reported() {
        let g = gen::grid(6, 6);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = engine_for(&g);
        let adversary = Adversary::new(31).with_crashes(2).with_crash_horizon(3);
        let schedule = adversary.crash_schedule(g.n(), &view.nodes().collect::<Vec<_>>());
        let cfg = AsyncConfig::new(adversary).with_workers(3);
        let lane = run_async(&engine, &view, &kernel, &cfg).expect("crashed run completes");
        assert_eq!(lane.report.crashes_planned, 2);
        assert!(
            !lane.report.crashed.is_empty(),
            "horizon 3 crashes must fire"
        );
        for c in &lane.report.crashed {
            let spec = schedule[c.node.index()].expect("crash matches the schedule");
            assert_eq!(spec.pulse, c.pulse);
            assert!(
                lane.outcome.states[c.node.index()].is_some(),
                "pre-crash state kept"
            );
        }
    }

    #[test]
    fn pulse_budget_trips_with_typed_error() {
        let g = gen::grid(8, 8);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = engine_for(&g);
        let cfg = AsyncConfig::default().with_workers(2).with_max_pulses(2);
        let err = run_async(&engine, &view, &kernel, &cfg).expect_err("budget must trip");
        assert_eq!(err.error, EngineError::PulseLimitExceeded { max_pulses: 2 });
        assert_eq!(err.report.pulses, 2, "accounting survives the failure");
    }

    #[test]
    fn zero_wall_clock_budget_trips_cleanly() {
        let g = gen::grid(4, 4);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = engine_for(&g);
        let cfg = AsyncConfig::default()
            .with_workers(2)
            .with_wall_clock(Duration::ZERO);
        let err = run_async(&engine, &view, &kernel, &cfg).expect_err("deadline must trip");
        assert!(matches!(err.error, EngineError::WallClockExceeded { .. }));
    }

    #[test]
    fn repeated_failed_runs_always_tear_down() {
        let g = gen::grid(6, 6);
        let view = g.full_view();
        let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
        let engine = engine_for(&g);
        for i in 0..25 {
            let cfg = AsyncConfig::default()
                .with_workers(1 + i % 4)
                .with_max_pulses(1 + (i as u64) % 3);
            // The thread scope inside run_async cannot return while a
            // worker is still alive, so simply returning proves teardown.
            let err = run_async(&engine, &view, &kernel, &cfg).expect_err("tiny budget");
            assert!(matches!(err.error, EngineError::PulseLimitExceeded { .. }));
        }
    }
}
