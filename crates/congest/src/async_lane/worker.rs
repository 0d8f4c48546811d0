//! The async lane's worker tasks: event-driven hosts for contiguous node
//! shards, implementing the per-node α-synchronizer machinery.
//!
//! Workers serve runs of two or more shards only. A one-shard run needs
//! no synchronizer: it is the engine's sequential core with the seeded
//! transport (`transport.rs`), on the caller's thread.
//!
//! Each worker owns one `mpsc` receiver and blocks *only* on it; every
//! incoming event (pulse go-ahead, payload batch, ack batch, safety
//! notice, crash notice, collect, abort) is handled to completion without
//! further blocking, and outgoing traffic is batched per peer and flushed
//! after each event. That single-blocking-point shape is what makes the
//! teardown argument a one-liner: any worker, in any state, exits on an
//! `Abort`/`Collect` event or a closed channel, so the surrounding
//! `std::thread::scope` always joins.
//!
//! # α-synchronizer
//!
//! Per pulse `r`, node `v` steps iff its round-`r` buffer is nonempty
//! (mirroring the engine's has-mail gate), sending payloads stamped
//! `r + 1`. `v` becomes *safe* for `r` once every payload it sent has
//! been acknowledged (vacuously safe if it sent nothing or was delivered
//! only locally), and *ready* for `r + 1` once it is safe and has heard a
//! safety (or crash) notice from every alive neighbor. A worker reports
//! the pulse done when all its live nodes are ready; the conductor
//! advances the global pulse once all workers report — that last gate is
//! a termination-detection layer on top of the per-node machinery (see
//! the module docs in `mod.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};

use sdnd_graph::{Graph, NodeId};

use crate::engine::{slot_array, Engine, EngineError, Outbox, Protocol, Slot};
use crate::RoundLedger;

use super::adversary::{Adversary, CrashSpec};
use super::report::{CrashEvent, FaultReport};

/// Workers alive in this process, kept by each worker's [`LiveGuard`].
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The number of async-lane workers currently alive in this process:
/// constructed and not yet dropped. A worker drops at the end of its
/// thread's closure, before `std::thread::scope` can return, so the
/// count is 0 whenever no `run_async` call is in flight — a
/// deterministic leak check that does not depend on when the OS reaps
/// an exited thread.
#[doc(hidden)]
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Counts its [`Worker`] in [`LIVE_WORKERS`] from construction to drop.
struct LiveGuard;

impl LiveGuard {
    fn new() -> Self {
        LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
        LiveGuard
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Everything a pulse shares immutably across workers.
pub(crate) struct LaneCtx<'a, P: Protocol> {
    pub engine: &'a Engine,
    pub g: &'a Graph,
    pub protocol: &'a P,
    pub alive: &'a [bool],
    pub adversary: &'a Adversary,
    /// Per-node crash schedule (index space of the base graph).
    pub crash_of: &'a [Option<CrashSpec>],
    /// Which worker hosts each node.
    pub worker_of: &'a [u32],
    pub node_bounds: &'a [usize],
    pub slot_bounds: &'a [usize],
    /// Reverse-edge table of the base graph.
    pub rev: &'a [usize],
}

/// One transported protocol message: the directed edge it rides, the
/// round it is addressed to, and the payload.
pub(crate) struct Packet<M> {
    pub edge: u32,
    pub round: u64,
    pub msg: M,
}

/// Events a worker can receive (from the conductor or from peers).
pub(crate) enum Event<M> {
    /// Conductor: run synchronizer pulse `r`.
    Pulse(u64),
    /// Peer: a batch of protocol payloads.
    Packets(Vec<Packet<M>>),
    /// Peer: acknowledgements for payloads this worker's nodes sent
    /// (identified by directed-edge id).
    Acks(Vec<u32>),
    /// Peer: these nodes are safe for `pulse`.
    Safes { pulse: u64, nodes: Vec<u32> },
    /// Peer: these nodes crashed during `pulse`.
    Crashes { pulse: u64, nodes: Vec<u32> },
    /// Conductor: hand back the final states and exit.
    Collect,
    /// Conductor: exit now (error or watchdog path).
    Abort,
}

/// Reports a worker sends the conductor.
pub(crate) enum Report<S> {
    PulseDone {
        shard: u32,
        sent_any: bool,
        error: Option<EngineError>,
        traffic: RoundLedger,
        faults: FaultReport,
    },
    States {
        shard: u32,
        states: Vec<Option<S>>,
        /// Residual fault counters accrued after the shard's last
        /// `PulseDone` (late-arriving duplicates/acks processed once all
        /// local nodes were already safe).
        faults: FaultReport,
    },
}

/// Two round-parity delivery buffers of `(sender index, message)` for
/// one node — at most rounds `r` and `r + 1` are ever co-resident, so
/// parity suffices.
type ParityBufs<M> = [Vec<(u32, M)>; 2];

pub(crate) struct Worker<'a, P: Protocol> {
    ctx: &'a LaneCtx<'a, P>,
    id: u32,
    lo: usize,
    hi: usize,
    slot_lo: usize,
    rx: Receiver<Event<P::Msg>>,
    peers: Vec<Sender<Event<P::Msg>>>,
    report_tx: Sender<Report<P::State>>,

    // Protocol-facing buffers (exact engine machinery).
    states: Vec<Option<P::State>>,
    slots: Vec<Slot<P::Msg>>,
    sent: Vec<usize>,
    inbox: Vec<(NodeId, P::Msg)>,
    /// Per local node round-parity delivery buffers.
    bufs: Vec<ParityBufs<P::Msg>>,
    /// Last round delivered per directed edge (duplicate suppression by
    /// round-stamp, the transport analog of `DuplicateEdgeMessage`).
    in_stamp: Vec<u64>,

    // Per local node synchronizer state (index `v - lo`).
    dead: Vec<bool>,
    alive_deg: Vec<u32>,
    pending: Vec<u32>,
    safe: Vec<bool>,
    unsafe_nbrs: Vec<u32>,
    ready: Vec<bool>,
    unfinished: usize,
    pulse: u64,
    active: bool,
    done_sent: bool,

    /// Safety notices that arrived for a pulse this worker has not
    /// started yet (peers can be at most one pulse ahead; applied at
    /// `begin_pulse`).
    early_safes: Vec<(u64, u32)>,

    // Outgoing batches, flushed after every handled event.
    out_packets: Vec<Vec<Packet<P::Msg>>>,
    out_acks: Vec<Vec<u32>>,
    out_safes: Vec<Vec<u32>>,
    out_crashes: Vec<Vec<u32>>,

    // Per-pulse accumulators reported to the conductor.
    sent_any: bool,
    error: Option<EngineError>,
    traffic: RoundLedger,
    faults: FaultReport,

    _live: LiveGuard,
}

impl<'a, P: Protocol> Worker<'a, P> {
    pub(crate) fn new(
        ctx: &'a LaneCtx<'a, P>,
        id: u32,
        rx: Receiver<Event<P::Msg>>,
        peers: Vec<Sender<Event<P::Msg>>>,
        report_tx: Sender<Report<P::State>>,
    ) -> Self {
        let lo = ctx.node_bounds[id as usize];
        let hi = ctx.node_bounds[id as usize + 1];
        let slot_lo = ctx.slot_bounds[id as usize];
        let slot_hi = ctx.slot_bounds[id as usize + 1];
        let len = hi - lo;
        let shards = peers.len();
        let mut alive_deg = vec![0u32; len];
        for v in lo..hi {
            if ctx.alive[v] {
                alive_deg[v - lo] = ctx
                    .g
                    .neighbors(NodeId::new(v))
                    .iter()
                    .filter(|u| ctx.alive[u.index()])
                    .count() as u32;
            }
        }
        Worker {
            ctx,
            id,
            lo,
            hi,
            slot_lo,
            rx,
            peers,
            report_tx,
            states: (0..len).map(|_| None).collect(),
            slots: slot_array(slot_hi - slot_lo),
            sent: Vec::new(),
            inbox: Vec::new(),
            bufs: (0..len).map(|_| [Vec::new(), Vec::new()]).collect(),
            in_stamp: vec![0; ctx.g.directed_edges()],
            dead: vec![false; len],
            alive_deg,
            pending: vec![0; len],
            safe: vec![false; len],
            unsafe_nbrs: vec![0; len],
            ready: vec![false; len],
            unfinished: 0,
            pulse: 0,
            active: false,
            done_sent: true,
            early_safes: Vec::new(),
            out_packets: (0..shards).map(|_| Vec::new()).collect(),
            out_acks: (0..shards).map(|_| Vec::new()).collect(),
            out_safes: (0..shards).map(|_| Vec::new()).collect(),
            out_crashes: (0..shards).map(|_| Vec::new()).collect(),
            sent_any: false,
            error: None,
            traffic: RoundLedger::new(),
            faults: FaultReport::default(),
            _live: LiveGuard::new(),
        }
    }

    /// The event loop. Exits on `Collect`, `Abort`, or a closed channel.
    pub(crate) fn run(mut self) {
        loop {
            let ev = match self.rx.recv() {
                Ok(ev) => ev,
                Err(_) => break,
            };
            match ev {
                Event::Pulse(r) => self.begin_pulse(r),
                Event::Packets(batch) => {
                    for p in batch {
                        self.deliver_remote(p);
                    }
                }
                Event::Acks(batch) => {
                    for e in batch {
                        self.on_ack(e as usize);
                    }
                }
                Event::Safes { pulse, nodes } => {
                    for v in nodes {
                        self.on_safe(pulse, v);
                    }
                }
                Event::Crashes { pulse, nodes } => {
                    for v in nodes {
                        self.on_crash_notice(pulse, v);
                    }
                }
                Event::Collect => {
                    let _ = self.report_tx.send(Report::States {
                        shard: self.id,
                        states: std::mem::take(&mut self.states),
                        faults: std::mem::take(&mut self.faults),
                    });
                    break;
                }
                Event::Abort => break,
            }
            self.flush();
            self.maybe_done();
        }
    }

    fn begin_pulse(&mut self, r: u64) {
        self.pulse = r;
        self.active = true;
        self.done_sent = false;
        self.sent_any = false;
        self.error = None;
        self.traffic = RoundLedger::new();
        // `faults` is deliberately NOT reset here: `maybe_done` takes it
        // at PulseDone, and counters accrued since (late duplicates and
        // acks processed after all local nodes were safe) belong to the
        // run, not to any one pulse — they ride along with the next delta.
        self.unfinished = 0;
        for i in 0..(self.hi - self.lo) {
            let live = self.ctx.alive[self.lo + i] && !self.dead[i];
            self.safe[i] = false;
            self.ready[i] = false;
            self.pending[i] = 0;
            self.unsafe_nbrs[i] = if live { self.alive_deg[i] } else { 0 };
            if live {
                self.unfinished += 1;
            }
        }
        // Apply safety notices that raced ahead of our pulse go-ahead.
        // (Early *crash* notices need no stash: they already reduced
        // `alive_deg` on arrival, so the reset above excluded the dead
        // node from every `unsafe_nbrs` count.)
        let early_safes = std::mem::take(&mut self.early_safes);
        for (p, v) in early_safes {
            debug_assert_eq!(p, r, "peers run at most one pulse ahead");
            self.apply_safe(v as usize);
        }
        for v in self.lo..self.hi {
            let i = v - self.lo;
            if !self.ctx.alive[v] || self.dead[i] {
                continue;
            }
            if self.error.is_none() {
                self.step_node(v, r);
            } else if !self.safe[i] {
                // A lower-index node of this shard erred: skip the
                // remaining steps (the conductor aborts after this pulse)
                // but keep the synchronizer progressing so every shard
                // can finish and the lowest-index error gets reported —
                // unstepped nodes sent nothing, hence are vacuously safe.
                self.mark_safe(v);
            }
        }
    }

    fn step_node(&mut self, v: usize, r: u64) {
        let ctx = self.ctx;
        let node = NodeId::new(v);
        let i = v - self.lo;
        let crash = ctx.crash_of[v].filter(|c| c.pulse == r);
        let mut latched: Option<EngineError> = None;
        if r == 0 {
            let mut out = Outbox::for_step(
                node,
                ctx.g,
                ctx.alive,
                1,
                self.slot_lo,
                &mut self.slots,
                &mut self.sent,
                &mut latched,
            );
            let st = ctx.protocol.init(node, &mut out);
            self.states[i] = Some(st);
        } else {
            // A node with no round-`r` mail does not step (the engine's
            // has-mail gate); it still owes the pulse its safety.
            let buf = &mut self.bufs[i][(r % 2) as usize];
            if buf.is_empty() {
                match crash {
                    // Dies without having stepped: a zero-send crash.
                    Some(_) => {
                        self.faults.crashed.push(CrashEvent {
                            node,
                            pulse: r,
                            sent: 0,
                            suppressed: 0,
                        });
                        self.crash_local(v);
                    }
                    None => self.mark_safe(v),
                }
                return;
            }
            // The engine gathers in-slots in CSR neighbor order, so its
            // inbox is sender-sorted by construction; sort to match.
            buf.sort_unstable_by_key(|&(s, _)| s);
            self.inbox.clear();
            self.inbox
                .extend(buf.drain(..).map(|(s, m)| (NodeId::new(s as usize), m)));
            let st = self.states[i].as_mut().expect("alive node has state");
            let mut out = Outbox::for_step(
                node,
                ctx.g,
                ctx.alive,
                r + 1,
                self.slot_lo,
                &mut self.slots,
                &mut self.sent,
                &mut latched,
            );
            ctx.protocol.step(node, st, &self.inbox, &mut out);
        }
        // Budget-check and charge the ledger through the engine's own
        // accountant, keeping the send list for the transport below.
        if let Err(e) = ctx.engine.account(
            ctx.protocol,
            node,
            self.slot_lo,
            &self.slots,
            &self.sent,
            &mut latched,
            &mut self.traffic,
        ) {
            self.error = Some(e);
            self.sent.clear();
            self.mark_safe(v);
            return;
        }
        self.sent_any |= !self.sent.is_empty();
        // Transport: a crashing node emits only a prefix of its sends.
        let mut to_send = std::mem::take(&mut self.sent);
        let limit = match crash {
            Some(c) => c.prefix(to_send.len()),
            None => to_send.len(),
        };
        for &e in &to_send[..limit] {
            self.transmit_edge(v, e, r);
        }
        let suppressed = to_send.len() - limit;
        to_send.clear();
        self.sent = to_send;
        if let Some(_c) = crash {
            self.faults.suppressed_by_crash += suppressed as u64;
            self.faults.crashed.push(CrashEvent {
                node,
                pulse: r,
                sent: limit as u64,
                suppressed: suppressed as u64,
            });
            self.crash_local(v);
        } else if self.pending[i] == 0 {
            self.mark_safe(v);
        }
    }

    /// Runs one accepted send through the adversary and routes it.
    fn transmit_edge(&mut self, v: usize, e: usize, pulse: u64) {
        let ctx = self.ctx;
        let msg = self.slots[e - self.slot_lo]
            .msg
            .take()
            .expect("sent slot holds a message");
        let t = ctx.adversary.transmit(pulse, e);
        self.faults.dropped += t.retries as u64;
        if t.lost {
            // The synchronizer's retry budget is exhausted: give up
            // cleanly (the sender does not wait for an ack that will
            // never come). The loss is reported; if it corrupted the
            // outcome, validation says so.
            self.faults.retransmits += t.retries.saturating_sub(1) as u64;
            self.faults.lost += 1;
            return;
        }
        self.faults.retransmits += t.retries as u64;
        if t.delay > 0 {
            // Injected latency is absorbed by the synchronizer (that is
            // the synchronizer guarantee); it shows up here, never in
            // outcomes. Delays past the retry timeout are modeled by the
            // drop/retransmit knob instead.
            self.faults.delayed += 1;
            self.faults.delay_pulses += t.delay;
        }
        self.faults.delivered += 1;
        let dup = if t.duplicate {
            self.faults.duplicated += 1;
            Some(msg.clone())
        } else {
            None
        };
        let round = pulse + 1;
        let w = ctx.worker_of[ctx.g.edge_head(e).index()] as usize;
        if w == self.id as usize {
            self.deliver_local(e, round, msg);
            if let Some(copy) = dup {
                self.deliver_local(e, round, copy);
            }
        } else {
            let i = v - self.lo;
            self.pending[i] += 1 + dup.is_some() as u32;
            self.out_packets[w].push(Packet {
                edge: e as u32,
                round,
                msg,
            });
            if let Some(copy) = dup {
                self.out_packets[w].push(Packet {
                    edge: e as u32,
                    round,
                    msg: copy,
                });
            }
        }
    }

    /// Buffers a payload for one of this worker's nodes (both the local
    /// fast path and the tail of [`deliver_remote`](Self::deliver_remote)).
    fn deliver_local(&mut self, e: usize, round: u64, msg: P::Msg) {
        let dst = self.ctx.g.edge_head(e).index();
        let i = dst - self.lo;
        // Deliveries to a crashed node are decided by the *schedule*, not
        // by the dynamic `dead` flag: a packet carrying `round > c` can
        // physically arrive before this worker has processed the pulse
        // that kills `dst` (cross-worker queues have no global order), so
        // gating the counter on `dead` would make `to_crashed` depend on
        // the worker layout. `round = send pulse + 1`, so `round > c`
        // means the sender stepped at pulse `>= c` — the crash pulse was
        // reached globally and the message can never be consumed.
        let past_crash = self.ctx.crash_of[dst].is_some_and(|c| round > c.pulse);
        if past_crash || self.dead[i] {
            debug_assert!(
                past_crash,
                "dead flag set but delivery round {round} precedes the crash schedule"
            );
            self.faults.to_crashed += 1;
            return;
        }
        if self.in_stamp[e] == round {
            self.faults.deduped += 1;
            return;
        }
        let sender = self.ctx.g.edge_head(self.ctx.rev[e]).index() as u32;
        debug_assert!(
            !self.bufs[i][(round % 2) as usize]
                .iter()
                .any(|&(s, _)| s == sender),
            "round-stamp dedup must catch every duplicate copy"
        );
        self.in_stamp[e] = round;
        self.bufs[i][(round % 2) as usize].push((sender, msg));
    }

    fn deliver_remote(&mut self, p: Packet<P::Msg>) {
        let e = p.edge as usize;
        // Ack every received copy (transport level — even deliveries to
        // crashed nodes and deduped duplicates), so sender safety never
        // depends on receiver-side protocol state.
        let sender = self.ctx.g.edge_head(self.ctx.rev[e]).index();
        let sw = self.ctx.worker_of[sender] as usize;
        self.out_acks[sw].push(p.edge);
        self.faults.acks += 1;
        self.deliver_local(e, p.round, p.msg);
    }

    fn on_ack(&mut self, e: usize) {
        let v = self.ctx.g.edge_head(self.ctx.rev[e]).index();
        let i = v - self.lo;
        if self.dead[i] {
            return;
        }
        debug_assert!(self.pending[i] > 0, "ack without a pending send");
        self.pending[i] -= 1;
        if self.pending[i] == 0 && !self.safe[i] {
            self.mark_safe(v);
        }
    }

    /// Marks local node `v` safe for the current pulse: notify local
    /// neighbors directly, batch one notice per peer worker that hosts a
    /// neighbor.
    fn mark_safe(&mut self, v: usize) {
        let i = v - self.lo;
        debug_assert!(!self.safe[i]);
        self.safe[i] = true;
        let nbrs = self.ctx.g.neighbors(NodeId::new(v));
        let mut remote: u64 = 0;
        for &u in nbrs {
            let ui = u.index();
            if !self.ctx.alive[ui] {
                continue;
            }
            let w = self.ctx.worker_of[ui];
            if w == self.id {
                let j = ui - self.lo;
                if !self.dead[j] {
                    self.unsafe_nbrs[j] -= 1;
                    self.check_ready(j);
                }
            } else {
                remote |= 1u64 << w;
            }
        }
        while remote != 0 {
            let w = remote.trailing_zeros() as usize;
            remote &= remote - 1;
            self.out_safes[w].push(v as u32);
            self.faults.safe_notices += 1;
        }
        self.check_ready(i);
    }

    fn check_ready(&mut self, j: usize) {
        if !self.ready[j] && self.safe[j] && self.unsafe_nbrs[j] == 0 {
            self.ready[j] = true;
            self.unfinished -= 1;
        }
    }

    fn on_safe(&mut self, pulse: u64, vn: u32) {
        if !self.active || pulse > self.pulse {
            self.early_safes.push((pulse, vn));
            return;
        }
        debug_assert_eq!(pulse, self.pulse, "stale safety notice");
        self.apply_safe(vn as usize);
    }

    /// A remote node `v` is safe for the current pulse: release its local
    /// neighbors.
    fn apply_safe(&mut self, v: usize) {
        let nbrs = self.ctx.g.neighbors(NodeId::new(v));
        for &u in nbrs {
            let ui = u.index();
            if self.ctx.worker_of[ui] != self.id || !self.ctx.alive[ui] {
                continue;
            }
            let j = ui - self.lo;
            if self.dead[j] {
                continue;
            }
            self.unsafe_nbrs[j] -= 1;
            self.check_ready(j);
        }
    }

    fn on_crash_notice(&mut self, pulse: u64, vn: u32) {
        if !self.active || pulse > self.pulse {
            // We have finished the previous pulse (a peer can only run
            // ahead once every worker reported done) and not yet entered
            // `pulse`: reducing the degree now is the complete fix,
            // because `begin_pulse` derives `unsafe_nbrs` from it.
            self.apply_crash_degree(vn as usize);
            return;
        }
        debug_assert_eq!(pulse, self.pulse, "stale crash notice");
        self.apply_crash_degree(vn as usize);
        self.apply_crash_epoch(vn as usize);
    }

    /// Permanent effect of a remote crash: local neighbors stop counting
    /// the dead node in their alive degree.
    fn apply_crash_degree(&mut self, v: usize) {
        let nbrs = self.ctx.g.neighbors(NodeId::new(v));
        for &u in nbrs {
            let ui = u.index();
            if self.ctx.worker_of[ui] != self.id || !self.ctx.alive[ui] {
                continue;
            }
            let j = ui - self.lo;
            if self.dead[j] {
                continue;
            }
            debug_assert!(self.alive_deg[j] > 0);
            self.alive_deg[j] -= 1;
        }
    }

    /// This-pulse effect of a crash: the dead node will never send its
    /// safety, so it counts as heard-from.
    fn apply_crash_epoch(&mut self, v: usize) {
        let nbrs = self.ctx.g.neighbors(NodeId::new(v));
        for &u in nbrs {
            let ui = u.index();
            if self.ctx.worker_of[ui] != self.id || !self.ctx.alive[ui] {
                continue;
            }
            let j = ui - self.lo;
            if self.dead[j] {
                continue;
            }
            self.unsafe_nbrs[j] -= 1;
            self.check_ready(j);
        }
    }

    /// A node of this shard dies mid-pulse (after its send prefix).
    fn crash_local(&mut self, v: usize) {
        let i = v - self.lo;
        debug_assert!(!self.dead[i] && !self.ready[i]);
        self.dead[i] = true;
        self.bufs[i][0].clear();
        self.bufs[i][1].clear();
        self.unfinished -= 1;
        let nbrs = self.ctx.g.neighbors(NodeId::new(v));
        let mut remote: u64 = 0;
        for &u in nbrs {
            let ui = u.index();
            if !self.ctx.alive[ui] {
                continue;
            }
            let w = self.ctx.worker_of[ui];
            if w == self.id {
                let j = ui - self.lo;
                if !self.dead[j] {
                    debug_assert!(self.alive_deg[j] > 0);
                    self.alive_deg[j] -= 1;
                    self.unsafe_nbrs[j] -= 1;
                    self.check_ready(j);
                }
            } else {
                remote |= 1u64 << w;
            }
        }
        while remote != 0 {
            let w = remote.trailing_zeros() as usize;
            remote &= remote - 1;
            self.out_crashes[w].push(v as u32);
        }
    }

    /// Sends every nonempty outgoing batch to its peer. Payloads flush
    /// before safety notices, and a send to an exited peer (abort path)
    /// is silently dropped — the conductor is already unwinding.
    fn flush(&mut self) {
        for w in 0..self.peers.len() {
            if w == self.id as usize {
                continue;
            }
            if !self.out_packets[w].is_empty() {
                let batch = std::mem::take(&mut self.out_packets[w]);
                let _ = self.peers[w].send(Event::Packets(batch));
            }
            if !self.out_acks[w].is_empty() {
                let batch = std::mem::take(&mut self.out_acks[w]);
                let _ = self.peers[w].send(Event::Acks(batch));
            }
            if !self.out_safes[w].is_empty() {
                let batch = std::mem::take(&mut self.out_safes[w]);
                let _ = self.peers[w].send(Event::Safes {
                    pulse: self.pulse,
                    nodes: batch,
                });
            }
            if !self.out_crashes[w].is_empty() {
                let batch = std::mem::take(&mut self.out_crashes[w]);
                let _ = self.peers[w].send(Event::Crashes {
                    pulse: self.pulse,
                    nodes: batch,
                });
            }
        }
    }

    /// Reports the pulse done once every live node of the shard is ready.
    fn maybe_done(&mut self) {
        if self.active && !self.done_sent && self.unfinished == 0 {
            self.done_sent = true;
            let _ = self.report_tx.send(Report::PulseDone {
                shard: self.id,
                sent_any: self.sent_any,
                error: self.error.take(),
                traffic: std::mem::replace(&mut self.traffic, RoundLedger::new()),
                faults: std::mem::take(&mut self.faults),
            });
        }
    }
}
