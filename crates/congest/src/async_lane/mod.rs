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
//! A run with a single shard has no peers to synchronize with, so it
//! spawns no worker: it is the engine's sequential core with the lane's
//! seeded transport (`transport.rs`), on the caller's thread. The core
//! steps the nodes of its has-mail bitset from the engine's flat slot
//! arena; the transport applies each send's adversary fate, crash
//! prefix and crash schedule, with the same fault counters and crash
//! events as the workers, and sets the bits of the receivers a send
//! reaches and of the nodes a pulse crashes. Outcomes do not depend on
//! the shard count (property-pinned in `tests/failure_injection.rs`).
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
mod transport;
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

use transport::Seeded;
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
    /// Worker shards node tasks are multiplexed onto (clamped to
    /// `1..=MAX_WORKERS`; outcomes are independent of this by
    /// construction). One shard runs inline on the caller's thread.
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
    let crash_of = cfg.adversary.crash_schedule(n, &alive_list);
    let watchdog = Watchdog::pulses(cfg.max_pulses)
        .with_wall_clock(cfg.wall_clock)
        .with_deadline(cfg.deadline.clone());
    // One shard: `ParLayout::carve` never splits one worker or one node.
    if cfg.workers <= 1 || g.n() <= 1 {
        let mut transport = Seeded::new(&cfg.adversary, &crash_of);
        // A budget that is already spent fails before the first pulse,
        // as it does in the gated lane's first wait.
        let run = match watchdog.deadline() {
            Some(at) if at <= Instant::now() => Err(watchdog.deadline_error("synchronizer-pulse")),
            _ => engine.run_transported(view, protocol, &watchdog, &mut transport),
        };
        return match run {
            Ok(outcome) => Ok(AsyncOutcome {
                outcome,
                report: transport.report,
            }),
            Err(error) => Err(Box::new(AsyncFailure {
                error,
                report: transport.report,
            })),
        };
    }

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
            in_flight: 0,
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
    /// Shards whose `PulseDone` for the current pulse is still due.
    in_flight: usize,
    event_txs: Vec<Sender<Event<M>>>,
    report_rx: Receiver<Report<S>>,
    watchdog: Watchdog,
    ledger: RoundLedger,
    report: FaultReport,
}

impl<M, S> Conductor<M, S> {
    fn drive(&mut self, n: usize) -> Result<AsyncOutcome<S>, Box<AsyncFailure>> {
        let pulses = self.gate_pulses();
        if self.in_flight > 0 {
            // A wait timed out mid-pulse: the workers are still busy.
            let e = pulses.expect_err("only a failed wait leaves a pulse in flight");
            return Err(self.fail(e));
        }
        // Every other exit — quiescence, a budget trip, a protocol error
        // — finds the workers idle between pulses: collect, so a failed
        // run's report is as complete as a finished one's.
        match (pulses, self.collect(n)) {
            (Ok(rounds), Ok(states)) => {
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
            (Err(e), _) | (_, Err(e)) => Err(self.fail(e)),
        }
    }

    /// Ends the run at every (idle) worker: gathers the final states in
    /// shard order, plus the fault counters of deliveries a shard
    /// processed after its last `PulseDone` (late duplicates, acks, mail
    /// to crashed nodes).
    fn collect(&mut self, n: usize) -> Result<Vec<Option<S>>, EngineError> {
        for tx in &self.event_txs {
            let _ = tx.send(Event::Collect);
        }
        let mut chunks: Vec<Option<Vec<Option<S>>>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            match self.recv()? {
                Report::States {
                    shard,
                    states,
                    faults,
                } => {
                    self.report.merge(&faults);
                    chunks[shard as usize] = Some(states);
                }
                Report::PulseDone { .. } => unreachable!("no pulse in flight during collect"),
            }
        }
        let mut states: Vec<Option<S>> = Vec::with_capacity(n);
        for chunk in chunks {
            states.extend(chunk.expect("every shard reports its states"));
        }
        Ok(states)
    }

    /// The gated pulse loop: one go-ahead broadcast and one `PulseDone`
    /// barrier per pulse. Pulse 0 is the init phase, exactly like the
    /// engine's round 0.
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

    /// Runs one global pulse: go-ahead to every worker, then one
    /// `PulseDone` per shard. Ledgers and fault deltas merge in shard
    /// (= node index) order; among erring shards the lowest wins,
    /// matching the engine's lowest-index-node error precedence.
    fn pulse(&mut self, r: u64) -> Result<bool, EngineError> {
        for tx in &self.event_txs {
            let _ = tx.send(Event::Pulse(r));
        }
        self.in_flight = self.shards;
        let mut done: Vec<Option<PulseSlot>> = (0..self.shards).map(|_| None).collect();
        while self.in_flight > 0 {
            let report = self.recv()?;
            self.in_flight -= 1;
            match report {
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

    /// Floods from node 0; node `culprit` breaks one send rule at its
    /// first step instead of forwarding. A message declares its payload
    /// as its size in bits.
    struct Erring<'g> {
        g: &'g Graph,
        culprit: NodeId,
        rule: Rule,
    }

    #[derive(Clone, Copy, Debug)]
    enum Rule {
        Oversize,
        NotANeighbor,
        TwoOnOneEdge,
    }

    impl Protocol for Erring<'_> {
        type State = bool;
        type Msg = u32;

        fn init(&self, node: NodeId, out: &mut crate::Outbox<'_, u32>) -> bool {
            if node.index() == 0 {
                out.broadcast(1);
            }
            node.index() == 0
        }

        fn step(
            &self,
            node: NodeId,
            seen: &mut bool,
            _inbox: &[(NodeId, u32)],
            out: &mut crate::Outbox<'_, u32>,
        ) {
            if std::mem::replace(seen, true) {
                return;
            }
            if node != self.culprit {
                out.broadcast(1);
                return;
            }
            let first = self.g.neighbors(node)[0];
            match self.rule {
                Rule::Oversize => out.broadcast(10_000),
                Rule::NotANeighbor => out.send(NodeId::new(self.g.n() - 1), 1),
                Rule::TwoOnOneEdge => {
                    out.send(first, 1);
                    out.send(first, 1);
                }
            }
        }

        fn bits(&self, msg: &u32) -> u32 {
            *msg
        }
    }

    #[test]
    fn erring_protocols_fail_as_on_the_engine() {
        let g = gen::grid(5, 5);
        let view = g.full_view();
        let engine = engine_for(&g);
        for rule in [Rule::Oversize, Rule::NotANeighbor, Rule::TwoOnOneEdge] {
            let kernel = Erring {
                g: &g,
                culprit: NodeId::new(12),
                rule,
            };
            let sync = engine.run(&view, &kernel).expect_err("the culprit errs");
            assert!(matches!(
                (rule, &sync),
                (Rule::Oversize, EngineError::MessageTooLarge { .. })
                    | (Rule::NotANeighbor, EngineError::NotANeighbor { .. })
                    | (Rule::TwoOnOneEdge, EngineError::DuplicateEdgeMessage { .. })
            ));
            for workers in [1, 3] {
                let cfg = AsyncConfig::default().with_workers(workers);
                let lane = run_async(&engine, &view, &kernel, &cfg).expect_err("the culprit errs");
                assert_eq!(lane.error, sync, "{rule:?} on {workers} workers");
            }
        }
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
