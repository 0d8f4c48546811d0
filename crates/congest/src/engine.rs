//! The message-passing kernel.
//!
//! A [`Protocol`] describes one node's behaviour; the [`Engine`] runs one
//! instance per alive node, delivering messages synchronously. Per round,
//! a node may send at most one message to each alive neighbor (the CONGEST
//! rule); in [`ExecutionMode::Congest`](crate::ExecutionMode::Congest)
//! the per-message bit budget is enforced.
//!
//! # Edge-slot mailboxes
//!
//! The engine exploits the CONGEST invariant itself — one directed edge
//! carries at most one message per round — to run allocation-free: the
//! mailbox is a flat slot array indexed by the base graph's directed-edge
//! ids ([`sdnd_graph::Graph::directed_edge`]), double-buffered so the
//! slots written in round `r` are read in round `r + 1`. Each slot
//! carries the round its message is addressed to, so neither buffer is
//! ever cleared. The rule checks ride on the slot geometry:
//!
//! - **`NotANeighbor`** — resolving the send target to its slot walks the
//!   sender's own CSR neighbor row with a cursor, `O(1)` amortized for
//!   the dominant send-to-all-in-order pattern (`O(log deg)` worst case
//!   via binary search), instead of the old `O(deg)` linear scan.
//! - **`DuplicateEdgeMessage`** — an occupied-this-round stamp on the
//!   slot, `O(1)` instead of the old `O(k^2)` seen-list scan.
//!
//! Inboxes are materialized into a reusable scratch buffer by scanning
//! the receiver's in-slots in CSR neighbor order, so they arrive sorted
//! by sender *by construction* — the per-round sort is gone.
//!
//! # Sessions: amortizing the per-run setup
//!
//! Building the slot arenas and scratch buffers is `O(m)` work. A
//! one-shot [`Engine::run`] pays it on every call, which dominates
//! sparse-traffic protocols on dense graphs (the clique-convergecast rows
//! of `BENCH_engine.json`). Repeated runs on one graph — exactly what the
//! decomposition pipelines, the kernel cross-validation, and the benches
//! do — should instead open an [`EngineSession`] via [`Engine::session`]:
//! the session owns the arenas (one set per message type, allocated
//! lazily) and reuses them across arbitrarily many runs, so a run's cost
//! is proportional to its *traffic*, not to `m`.
//!
//! Reuse without clearing works through *stamp epochs*: every slot and
//! mailbox stamp is offset by a per-arena base that advances past all
//! stamps a run may have written, so a stale slot from an earlier run can
//! never alias a live round. Nothing is ever zeroed between runs, and a
//! session run is bit-identical to a fresh-engine run (property-tested in
//! `tests/determinism.rs`).
//!
//! # Determinism and the parallel lane
//!
//! Execution is fully deterministic: nodes step in index order, and
//! messages sent in round `r` are delivered at the start of round
//! `r + 1`. The engine stops at *quiescence* (a round in which no message
//! was sent) or at `max_rounds`.
//!
//! [`Engine::with_threads`] selects an opt-in parallel stepping lane that
//! is *bit-identical* to the sequential lane: a node writes only its own
//! out-edge slots — a contiguous CSR range, so shards receive disjoint
//! chunks — and reads only the immutable front buffer, so no two threads
//! ever touch the same memory mutably. Each node's step is a pure
//! function of its state and its (deterministically gathered) inbox,
//! hence the states, round count, and ledger cannot depend on the thread
//! count. The `tests/determinism.rs` property suite pins this.
//!
//! The lane is backed by a worker pool: one `std::thread::scope` per
//! *run* (not per round, as the pre-session engine paid) spawns
//! long-lived workers that receive one phase per round over a channel and
//! hand their buffers back. The back buffer lives as per-shard owned
//! chunks and the front buffer behind an `Arc`, rotated between rounds
//! without copying, which is what lets safe Rust keep the workers alive
//! across rounds. (A pool persisting across *runs* would need the worker
//! threads to outlive the borrows of each run's protocol — not
//! expressible without `unsafe`, which this crate forbids; the remaining
//! per-run cost is the thread spawns themselves, independent of `m`.)
//!
//! # Error precedence
//!
//! Structural violations (`NotANeighbor`, `DuplicateEdgeMessage`) are
//! detected at send time; budget violations (`MessageTooLarge`) after the
//! node's step returns. Among erring nodes of one round, the error of the
//! lowest-index node is reported (in both lanes).

use crate::watchdog::Watchdog;
use crate::{CostModel, RoundLedger};
use sdnd_graph::{Adjacency, Graph, NodeId};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{mpsc, Arc};

/// A distributed node program.
///
/// One `State` lives at every alive node; the engine calls
/// [`init`](Protocol::init) once, then [`step`](Protocol::step) every
/// round with the messages delivered from the previous round.
pub trait Protocol {
    /// Per-node state.
    type State;
    /// Message payload. `bits(msg)` declares its encoded size.
    type Msg: Clone;

    /// Creates the initial state of `node` and optionally emits the first
    /// messages (delivered in round 1).
    fn init(&self, node: NodeId, out: &mut Outbox<'_, Self::Msg>) -> Self::State;

    /// Processes one round at `node`: `inbox` holds `(sender, message)`
    /// pairs from the previous round, sorted by sender.
    fn step(
        &self,
        node: NodeId,
        state: &mut Self::State,
        inbox: &[(NodeId, Self::Msg)],
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// Declared bit size of a message (for budget enforcement).
    fn bits(&self, msg: &Self::Msg) -> u32;
}

/// One directed-edge mailbox slot: the round its message is addressed to
/// (0 = never used) and the message itself.
///
/// `pub(crate)` so the async lane's per-shard write buffers reuse the
/// exact slot/[`Outbox`] machinery (and thus the exact send-rule
/// semantics) of the synchronous engine.
#[derive(Debug, Clone)]
pub(crate) struct Slot<M> {
    pub(crate) round: u64,
    pub(crate) msg: Option<M>,
}

impl<M> Slot<M> {
    /// A slot no round reads.
    pub(crate) fn empty() -> Self {
        Slot {
            round: 0,
            msg: None,
        }
    }
}

pub(crate) fn slot_array<M>(len: usize) -> Vec<Slot<M>> {
    (0..len).map(|_| Slot::empty()).collect()
}

/// Reusable sequential-lane buffers for one message type on one graph:
/// the double-buffered slot arenas, the has-mail stamps, and the
/// send/inbox scratch vectors.
///
/// Nothing is cleared between runs. Run `k`'s round-`r` stamps are
/// `base + r`, and `base` advances past every stamp the run may have
/// written, so stale slots from earlier runs never alias a live round.
struct SeqArena<M> {
    cur: Vec<Slot<M>>,
    next: Vec<Slot<M>>,
    cur_mail: Vec<u64>,
    next_mail: Vec<u64>,
    sent: Vec<usize>,
    inbox: Vec<(NodeId, M)>,
    base: u64,
}

impl<M> SeqArena<M> {
    fn new(slots: usize, n: usize) -> Self {
        SeqArena {
            cur: slot_array(slots),
            next: slot_array(slots),
            cur_mail: vec![0; n],
            next_mail: vec![0; n],
            sent: Vec::new(),
            inbox: Vec::new(),
            base: 0,
        }
    }
}

/// Advances an arena's stamp epoch when dropped — including on unwind,
/// so a protocol panic caught by the caller cannot leave stale stamps
/// behind that a later run on the same session would mistake for live
/// mail. `next_base` is kept ahead of every stamp the current round may
/// write.
struct EpochGuard<'a> {
    base: &'a mut u64,
    next_base: u64,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        *self.base = self.next_base;
    }
}

/// What the sequential core does with the sends a step leaves in the
/// slot arena — the one seam between the engine and the async lane.
///
/// The engine's [`Reliable`] transport delivers every send and leaves
/// every other hook an inlined no-op, so [`Engine::run`] and sessions
/// compile to the plain loop. The async lane's seeded transport
/// (`async_lane::transport`) runs a single-shard lane through the same
/// loop: it fates each send by its adversary and drops what the
/// adversary or a crash loses.
pub(crate) trait Transport {
    /// Whether a round may visit a node with an empty inbox (the lane's
    /// crash faults fire at nodes without mail); such a node does not
    /// step, and its `carry` gets no sends. `false` compiles that check
    /// away.
    const VISITS_IDLE: bool;

    /// Round `r` begins (0 = the init phase); `mail` holds its has-mail
    /// stamps, `stamp` for a node that steps this round.
    fn begin_round(&mut self, _r: u64, _stamp: u64, _mail: &mut [u64]) {}

    /// Carries the round-`r` sends of `from`, listed in `sent` in send
    /// order and already charged to the ledger, to their receivers: marks
    /// `next_mail` with `stamp` for each receiver that gets its message,
    /// empties the slot of each one that does not, and clears `sent`.
    #[allow(clippy::too_many_arguments)]
    fn carry<M>(
        &mut self,
        g: &Graph,
        from: NodeId,
        r: u64,
        sent: &mut Vec<usize>,
        slots: &mut [Slot<M>],
        next_mail: &mut [u64],
        stamp: u64,
    );
}

/// The engine's transport: every send arrives.
pub(crate) struct Reliable;

impl Transport for Reliable {
    const VISITS_IDLE: bool = false;

    fn carry<M>(
        &mut self,
        g: &Graph,
        _from: NodeId,
        _r: u64,
        sent: &mut Vec<usize>,
        _slots: &mut [Slot<M>],
        next_mail: &mut [u64],
        stamp: u64,
    ) {
        for &e in sent.iter() {
            next_mail[g.edge_head(e).index()] = stamp;
        }
        sent.clear();
    }
}

/// Shard geometry of the parallel lane for one (graph, thread-count)
/// pair: contiguous node ranges balancing *slot* (degree) mass — on
/// degree-skewed graphs a hub's message work would otherwise serialize
/// onto one thread — the matching slot ranges, and a precomputed map from
/// each directed edge to the chunk location of its reverse edge. The
/// bounds are a pure function of graph and thread count, so determinism
/// is unaffected.
pub(crate) struct ParLayout {
    pub(crate) threads: usize,
    pub(crate) node_bounds: Vec<usize>,
    pub(crate) slot_bounds: Vec<usize>,
    /// `rev_loc[e] = (shard, offset)` locating the reverse of directed
    /// edge `e` in the chunked buffers.
    rev_loc: Vec<(u32, u32)>,
}

impl ParLayout {
    pub(crate) fn carve(g: &Graph, threads: usize) -> ParLayout {
        let n = g.n();
        let slots = g.directed_edges();
        assert!(slots <= u32::MAX as usize, "chunk offsets are u32");
        let threads = threads.min(n.max(1));
        let offset_of = |b: usize| {
            if b == n {
                slots
            } else {
                g.out_slot_range(NodeId::new(b)).start
            }
        };
        let mut node_bounds: Vec<usize> = Vec::with_capacity(threads + 1);
        node_bounds.push(0);
        for s in 1..threads {
            let target = slots * s / threads;
            let (mut lo, mut hi) = (*node_bounds.last().expect("nonempty"), n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if offset_of(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            node_bounds.push(lo);
        }
        node_bounds.push(n);
        let slot_bounds: Vec<usize> = node_bounds.iter().map(|&b| offset_of(b)).collect();

        let mut loc: Vec<(u32, u32)> = vec![(0, 0); slots];
        for s in 0..threads {
            for (off, e) in (slot_bounds[s]..slot_bounds[s + 1]).enumerate() {
                loc[e] = (s as u32, off as u32);
            }
        }
        let rev_loc = g.reverse_edges().iter().map(|&e| loc[e]).collect();
        ParLayout {
            threads,
            node_bounds,
            slot_bounds,
            rev_loc,
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.threads
    }
}

/// Reusable parallel-lane buffers for one message type: the two slot
/// buffers live as per-shard owned chunks (carved by a [`ParLayout`]) so
/// they can rotate through the worker pool without copying. Same stamp
/// epoch (`base`) scheme as [`SeqArena`].
struct ParArena<M> {
    front: Vec<Vec<Slot<M>>>,
    back: Vec<Vec<Slot<M>>>,
    cur_mail: Vec<u64>,
    next_mail: Vec<u64>,
    base: u64,
    /// Thread count the chunks were carved for (re-carved on change).
    threads: usize,
}

impl<M> ParArena<M> {
    fn new(layout: &ParLayout, n: usize) -> Self {
        let chunks = || {
            (0..layout.shards())
                .map(|s| slot_array(layout.slot_bounds[s + 1] - layout.slot_bounds[s]))
                .collect()
        };
        ParArena {
            front: chunks(),
            back: chunks(),
            cur_mail: vec![0; n],
            next_mail: vec![0; n],
            base: 0,
            threads: layout.threads,
        }
    }
}

/// One round of work handed to a pool worker: the shared front buffer and
/// mail stamps (read-only), plus this shard's owned back chunk, state
/// chunk, and recipient scratch, all returned in the [`PhaseResult`].
struct PhaseTask<M, S> {
    r: u64,
    base: u64,
    front: Arc<Vec<Vec<Slot<M>>>>,
    mail: Arc<Vec<u64>>,
    back_chunk: Vec<Slot<M>>,
    states: Vec<Option<S>>,
    recipients: Vec<NodeId>,
}

/// A worker's report for one phase: the owned buffers handed back, plus
/// what the conductor needs to fold shards deterministically.
struct PhaseResult<M, S> {
    back_chunk: Vec<Slot<M>>,
    states: Vec<Option<S>>,
    recipients: Vec<NodeId>,
    any: bool,
    ledger: RoundLedger,
    error: Option<EngineError>,
}

/// Main-thread side of the worker pool for one run: owns the rotating
/// buffers and the per-worker channels. Dropping it (or clearing
/// `task_txs`) shuts the workers down.
struct Conductor<M, S> {
    base: u64,
    front: Arc<Vec<Vec<Slot<M>>>>,
    mail: Arc<Vec<u64>>,
    back: Vec<Vec<Slot<M>>>,
    next_mail: Vec<u64>,
    state_chunks: Vec<Vec<Option<S>>>,
    recip_bufs: Vec<Vec<NodeId>>,
    task_txs: Vec<mpsc::Sender<PhaseTask<M, S>>>,
    result_rxs: Vec<mpsc::Receiver<PhaseResult<M, S>>>,
}

impl<M: Clone, S> Conductor<M, S> {
    /// Dispatches round `r` to every worker and folds the results back in
    /// shard order — so ledger totals and the reported error (the
    /// lowest-index erring node) match the sequential lane. Returns
    /// whether any message was sent.
    ///
    /// Each worker has its own result channel, received in shard order:
    /// collection is deterministic without reordering, and a worker that
    /// dies (protocol panic) surfaces as a closed channel here rather
    /// than a hang.
    fn phase(&mut self, r: u64, ledger: &mut RoundLedger) -> Result<bool, EngineError> {
        let shards = self.task_txs.len();
        for shard in 0..shards {
            let task = PhaseTask {
                r,
                base: self.base,
                front: Arc::clone(&self.front),
                mail: Arc::clone(&self.mail),
                back_chunk: std::mem::take(&mut self.back[shard]),
                states: std::mem::take(&mut self.state_chunks[shard]),
                recipients: std::mem::take(&mut self.recip_bufs[shard]),
            };
            self.task_txs[shard].send(task).expect("pool worker alive");
        }

        let stamp_next = self.base + r + 1;
        let mut any_pending = false;
        let mut first_error = None;
        for shard in 0..shards {
            let mut res = self.result_rxs[shard]
                .recv()
                .expect("pool worker reports its phase");
            self.back[shard] = res.back_chunk;
            self.state_chunks[shard] = res.states;
            any_pending |= res.any;
            ledger.merge_traffic(&res.ledger);
            for recv in res.recipients.drain(..) {
                self.next_mail[recv.index()] = stamp_next;
            }
            self.recip_bufs[shard] = res.recipients;
            if first_error.is_none() {
                first_error = res.error;
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(any_pending),
        }
    }

    /// Swaps the double buffers: last phase's back chunks become the
    /// shared front, and the old front — uncontended, since every worker
    /// dropped its handles before reporting — is reclaimed as the new
    /// back without copying.
    fn rotate(&mut self) {
        let old_front = Arc::try_unwrap(std::mem::replace(&mut self.front, Arc::new(Vec::new())))
            .unwrap_or_else(|arc| (*arc).clone());
        self.front = Arc::new(std::mem::replace(&mut self.back, old_front));
        let old_mail = Arc::try_unwrap(std::mem::replace(&mut self.mail, Arc::new(Vec::new())))
            .unwrap_or_else(|arc| (*arc).clone());
        self.mail = Arc::new(std::mem::replace(&mut self.next_mail, old_mail));
    }
}

/// Body of one pool worker: receives one [`PhaseTask`] per round, steps
/// the alive nodes of its shard, and hands the owned buffers back; exits
/// when the task channel closes.
#[allow(clippy::too_many_arguments)]
fn pool_worker<P: Protocol>(
    engine: &Engine,
    g: &Graph,
    protocol: &P,
    alive: &[bool],
    layout: &ParLayout,
    shard: usize,
    rx: mpsc::Receiver<PhaseTask<P::Msg, P::State>>,
    tx: mpsc::Sender<PhaseResult<P::Msg, P::State>>,
) {
    let node_lo = layout.node_bounds[shard];
    let node_hi = layout.node_bounds[shard + 1];
    let slot_base = layout.slot_bounds[shard];
    let mut sent: Vec<usize> = Vec::new();
    let mut inbox: Vec<(NodeId, P::Msg)> = Vec::new();
    while let Ok(task) = rx.recv() {
        let PhaseTask {
            r,
            base,
            front,
            mail,
            mut back_chunk,
            mut states,
            mut recipients,
        } = task;
        let stamp = base + r;
        let mut ledger = RoundLedger::new();
        let mut error: Option<EngineError> = None;
        let mut any = false;
        sent.clear();
        for i in node_lo..node_hi {
            if !alive[i] || (r > 0 && mail[i] != stamp) {
                continue;
            }
            let v = NodeId::new(i);
            let mut out = Outbox {
                from: v,
                nbrs: g.neighbors(v),
                slot_start: g.out_slot_range(v).start,
                cursor: 0,
                alive,
                stamp: stamp + 1,
                slot_base,
                slots: &mut back_chunk,
                sent: &mut sent,
                error: &mut error,
            };
            // Structural twin of the per-node body in
            // `run_sequential_with` (see the comment there); keep the two
            // in lockstep.
            if r == 0 {
                states[i - node_lo] = Some(protocol.init(v, &mut out));
            } else {
                inbox.clear();
                for (p, &u) in g.out_slot_range(v).zip(g.neighbors(v)) {
                    let (cs, co) = layout.rev_loc[p];
                    let slot = &front[cs as usize][co as usize];
                    if slot.round == stamp {
                        let msg = slot.msg.clone().expect("stamped slot holds a message");
                        inbox.push((u, msg));
                    }
                }
                let st = states[i - node_lo].as_mut().expect("alive node has state");
                protocol.step(v, st, &inbox, &mut out);
            }
            if let Err(e) = engine.account(
                protocol,
                v,
                slot_base,
                &back_chunk,
                &sent,
                &mut error,
                &mut ledger,
            ) {
                error = Some(e);
                break;
            }
            any |= !sent.is_empty();
            recipients.extend(sent.drain(..).map(|e| g.edge_head(e)));
        }
        // Release the shared buffers before reporting, so the conductor
        // can reclaim them without copying.
        drop(front);
        drop(mail);
        let report = PhaseResult {
            back_chunk,
            states,
            recipients,
            any,
            ledger,
            error,
        };
        if tx.send(report).is_err() {
            return;
        }
    }
}

/// Fetches (or lazily creates) the arena of type `T` in a session's
/// type-erased store. Keyed by the arena type itself, so `SeqArena<M>`
/// and `ParArena<M>` never collide.
fn typed_arena<T: 'static>(
    map: &mut HashMap<TypeId, Box<dyn Any>>,
    mk: impl FnOnce() -> T,
) -> &mut T {
    map.entry(TypeId::of::<T>())
        .or_insert_with(|| Box::new(mk()))
        .downcast_mut::<T>()
        .expect("arena store keyed by TypeId")
}

/// Handle through which a node emits messages during one round.
///
/// Sends are validated eagerly against the edge-slot mailbox: the target
/// must be an alive base-graph neighbor of the sender, and each directed
/// edge carries at most one message per round. The first violation is
/// latched (subsequent sends become no-ops) and reported by the engine
/// when the step returns.
pub struct Outbox<'a, M> {
    from: NodeId,
    /// Base-graph neighbors of `from` (CSR row, sorted by index).
    nbrs: &'a [NodeId],
    /// First out-slot id of `from` (aligned with `nbrs`).
    slot_start: usize,
    /// Next expected rank — makes in-neighbor-order sends `O(1)`.
    cursor: usize,
    alive: &'a [bool],
    /// Round the emitted messages are addressed to.
    stamp: u64,
    /// Global slot id of `slots[0]` (shard offset in the parallel lane).
    slot_base: usize,
    slots: &'a mut [Slot<M>],
    sent: &'a mut Vec<usize>,
    error: &'a mut Option<EngineError>,
}

impl<'a, M> Outbox<'a, M> {
    /// Assembles an outbox for one node's step. Shared by the synchronous
    /// lanes and the async lane so every send rule (neighbor check,
    /// aliveness, one-message-per-edge, latching) has exactly one
    /// implementation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_step(
        from: NodeId,
        g: &'a Graph,
        alive: &'a [bool],
        stamp: u64,
        slot_base: usize,
        slots: &'a mut [Slot<M>],
        sent: &'a mut Vec<usize>,
        error: &'a mut Option<EngineError>,
    ) -> Self {
        Outbox {
            from,
            nbrs: g.neighbors(from),
            slot_start: g.out_slot_range(from).start,
            cursor: 0,
            alive,
            stamp,
            slot_base,
            slots,
            sent,
            error,
        }
    }
}

impl<M> Outbox<'_, M> {
    /// Sends `msg` to `to` (must be an alive neighbor; violations are
    /// latched and reported by the engine after the step).
    pub fn send(&mut self, to: NodeId, msg: M) {
        if self.error.is_some() {
            return;
        }
        let rank = if self.cursor < self.nbrs.len() && self.nbrs[self.cursor] == to {
            self.cursor
        } else {
            match self.nbrs.binary_search(&to) {
                Ok(rank) => rank,
                Err(_) => {
                    *self.error = Some(EngineError::NotANeighbor {
                        from: self.from,
                        to,
                    });
                    return;
                }
            }
        };
        self.cursor = rank + 1;
        if !self.alive[to.index()] {
            *self.error = Some(EngineError::NotANeighbor {
                from: self.from,
                to,
            });
            return;
        }
        self.write_slot(rank, to, msg);
    }

    /// Sends a copy of `msg` to every alive neighbor, in neighbor order —
    /// the dominant flooding pattern, resolved without any rank lookups.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        if self.error.is_some() {
            return;
        }
        for (rank, &to) in self.nbrs.iter().enumerate() {
            if !self.alive[to.index()] {
                continue;
            }
            self.write_slot(rank, to, msg.clone());
            if self.error.is_some() {
                return;
            }
        }
        self.cursor = self.nbrs.len();
    }

    fn write_slot(&mut self, rank: usize, to: NodeId, msg: M) {
        let e = self.slot_start + rank;
        let slot = &mut self.slots[e - self.slot_base];
        if slot.round == self.stamp {
            *self.error = Some(EngineError::DuplicateEdgeMessage {
                from: self.from,
                to,
            });
            return;
        }
        slot.round = self.stamp;
        slot.msg = Some(msg);
        self.sent.push(e);
    }
}

/// Errors detected by the engine while running a protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A node sent a message larger than the CONGEST budget.
    MessageTooLarge {
        /// The sending node.
        from: NodeId,
        /// Declared message size in bits.
        bits: u32,
        /// The budget it exceeded.
        budget: u32,
    },
    /// A node sent two messages along the same edge in one round.
    DuplicateEdgeMessage {
        /// The sending node.
        from: NodeId,
        /// The receiving node.
        to: NodeId,
    },
    /// A node addressed a message to a non-neighbor or dead node.
    NotANeighbor {
        /// The sending node.
        from: NodeId,
        /// The invalid destination.
        to: NodeId,
    },
    /// `max_rounds` elapsed before quiescence.
    RoundLimitExceeded {
        /// The limit that was hit.
        max_rounds: u64,
    },
    /// The async lane's synchronizer pulse budget elapsed before
    /// quiescence (the pulse analog of
    /// [`RoundLimitExceeded`](Self::RoundLimitExceeded), enforced by
    /// the shared [`Watchdog`]).
    PulseLimitExceeded {
        /// The limit that was hit.
        max_pulses: u64,
    },
    /// The wall-clock budget elapsed before quiescence — the async lane's
    /// guard against a stalled (not merely busy) synchronizer.
    WallClockExceeded {
        /// The budget that was exhausted, in milliseconds.
        budget_ms: u64,
    },
    /// The caller's external [`Deadline`](sdnd_graph::Deadline) tripped:
    /// the request this run served was cancelled or ran out of its
    /// deadline budget. Distinct from
    /// [`WallClockExceeded`](Self::WallClockExceeded) (the run's *own*
    /// stall guard) so servers can tell an aborted request from a stuck
    /// protocol.
    Cancelled {
        /// The checkpoint that observed the trip (e.g. `"engine-round"`).
        phase: &'static str,
        /// Wall clock from arming the deadline to the trip, in
        /// milliseconds (integral, so the error stays `Eq`).
        elapsed_ms: u64,
    },
}

impl From<sdnd_graph::Cancelled> for EngineError {
    fn from(c: sdnd_graph::Cancelled) -> Self {
        EngineError::Cancelled {
            phase: c.phase,
            elapsed_ms: c.elapsed.as_millis().min(u64::MAX as u128) as u64,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MessageTooLarge { from, bits, budget } => write!(
                f,
                "node {from} sent a {bits}-bit message exceeding the {budget}-bit budget"
            ),
            EngineError::DuplicateEdgeMessage { from, to } => {
                write!(f, "node {from} sent two messages to {to} in one round")
            }
            EngineError::NotANeighbor { from, to } => {
                write!(f, "node {from} sent a message to non-neighbor {to}")
            }
            EngineError::RoundLimitExceeded { max_rounds } => {
                write!(f, "protocol did not quiesce within {max_rounds} rounds")
            }
            EngineError::PulseLimitExceeded { max_pulses } => {
                write!(
                    f,
                    "protocol did not quiesce within {max_pulses} synchronizer pulses"
                )
            }
            EngineError::WallClockExceeded { budget_ms } => {
                write!(
                    f,
                    "run exceeded its {budget_ms} ms wall-clock budget before quiescing"
                )
            }
            EngineError::Cancelled { phase, elapsed_ms } => {
                write!(f, "run cancelled at `{phase}` after {elapsed_ms} ms")
            }
        }
    }
}

impl Error for EngineError {}

/// Result of running a protocol to quiescence.
#[derive(Debug)]
pub struct RunOutcome<S> {
    /// Final per-node states, indexed by node index. Nodes outside the
    /// view keep `None`.
    pub states: Vec<Option<S>>,
    /// Number of rounds in which at least one message was delivered.
    pub rounds: u64,
    /// Cost accounting for the run.
    pub ledger: RoundLedger,
}

/// The synchronous executor.
#[derive(Debug, Clone)]
pub struct Engine {
    cost: CostModel,
    max_rounds: u64,
    threads: usize,
    deadline: sdnd_graph::Deadline,
}

impl Engine {
    /// Creates an engine under the given cost model with a round limit of
    /// one million (a safety net against non-quiescing protocols) and
    /// sequential stepping.
    pub fn new(cost: CostModel) -> Self {
        Engine {
            cost,
            max_rounds: 1_000_000,
            threads: 1,
            deadline: sdnd_graph::Deadline::unarmed(),
        }
    }

    /// Sets the round limit.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Adopts an external request [`Deadline`](sdnd_graph::Deadline):
    /// every run loop checks it once per round (at the same site as the
    /// round budget) and aborts with [`EngineError::Cancelled`] when it
    /// trips. Sessions cloned from this engine inherit the deadline.
    pub fn with_deadline(mut self, deadline: sdnd_graph::Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Selects the stepping lane: `threads <= 1` steps nodes sequentially;
    /// larger values shard the nodes over a pool of that many scoped
    /// threads. Both lanes produce bit-identical [`RunOutcome`]s (see the
    /// module docs for the argument); the parallel lane spawns its pool
    /// once per run, pays a channel round trip per round, and earns both
    /// back on message-heavy rounds.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured stepping-lane width (1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured round limit (also the async lane's default pulse
    /// budget).
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// Runs `protocol` on every alive node of `view` until quiescence,
    /// on the lane selected by [`with_threads`](Self::with_threads).
    ///
    /// The `Send`/`Sync` bounds exist for the parallel lane. This is the
    /// one-shot form: it builds a throwaway arena (`O(m)` setup), so
    /// repeated runs on one graph should go through [`Engine::session`].
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] on budget violations, invalid sends, or
    /// if the round limit is exceeded.
    pub fn run<A, P>(&self, view: &A, protocol: &P) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send + Sync,
    {
        if self.threads > 1 {
            self.run_parallel(view, protocol)
        } else {
            self.run_transported(view, protocol, &self.watchdog(), &mut Reliable)
        }
    }

    /// Surfaces the send-rule violation `from`'s outbox latched, if any,
    /// then budget-checks and charges the messages it just wrote into
    /// `slots` (listed in `sent`). `pub(crate)` so the async lane charges
    /// its ledger through the same code path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn account<P: Protocol>(
        &self,
        protocol: &P,
        from: NodeId,
        slot_base: usize,
        slots: &[Slot<P::Msg>],
        sent: &[usize],
        error: &mut Option<EngineError>,
        ledger: &mut RoundLedger,
    ) -> Result<(), EngineError> {
        if let Some(e) = error.take() {
            return Err(e);
        }
        for &e in sent {
            let msg = slots[e - slot_base]
                .msg
                .as_ref()
                .expect("sent slot holds a message");
            let bits = protocol.bits(msg);
            if !self.cost.fits(bits) {
                return Err(EngineError::MessageTooLarge {
                    from,
                    bits,
                    budget: self.cost.bits_per_message(),
                });
            }
            ledger.record_messages(1, bits);
        }
        Ok(())
    }

    /// The watchdog of one synchronous run: the round limit and the
    /// engine's request deadline.
    fn watchdog(&self) -> Watchdog {
        Watchdog::rounds(self.max_rounds).with_deadline(self.deadline.clone())
    }

    /// A one-shot sequential run through `transport` under `watchdog`:
    /// [`run`](Self::run)'s sequential lane with the reliable transport,
    /// and a single-shard async-lane run with its seeded one.
    pub(crate) fn run_transported<A, P, T>(
        &self,
        view: &A,
        protocol: &P,
        watchdog: &Watchdog,
        transport: &mut T,
    ) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol,
        T: Transport,
    {
        let g = view.graph();
        let n = view.universe();
        let alive_list: Vec<NodeId> = view.nodes().collect();
        let mut alive = vec![false; n];
        for &v in &alive_list {
            alive[v.index()] = true;
        }
        let mut arena = SeqArena::new(g.directed_edges(), n);
        self.run_sequential_with(
            view,
            protocol,
            &alive,
            &alive_list,
            &mut arena,
            watchdog,
            transport,
        )
    }

    /// The sequential core, stepping through a caller-provided arena
    /// (fresh for one-shot runs, reused by [`EngineSession`]) and handing
    /// every step's sends to `transport`.
    #[allow(clippy::too_many_arguments)]
    fn run_sequential_with<A, P, T>(
        &self,
        view: &A,
        protocol: &P,
        alive: &[bool],
        alive_list: &[NodeId],
        arena: &mut SeqArena<P::Msg>,
        watchdog: &Watchdog,
        transport: &mut T,
    ) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol,
        T: Transport,
    {
        let g = view.graph();
        let rev = g.reverse_edges();
        let n = view.universe();
        let mut states: Vec<Option<P::State>> = (0..n).map(|_| None).collect();
        let mut ledger = RoundLedger::new();
        let mut error: Option<EngineError> = None;
        let base = arena.base;
        // The guard writes the advanced epoch back on every exit path —
        // normal return, error return, and unwinding out of a panicking
        // protocol alike.
        let mut epoch = EpochGuard {
            base: &mut arena.base,
            next_base: base + 2,
        };
        arena.sent.clear();

        // Init phase (round 0): create states; first sends go to round 1.
        transport.begin_round(0, base, &mut arena.cur_mail);
        let mut any_pending = false;
        for &v in alive_list {
            let mut out = Outbox {
                from: v,
                nbrs: g.neighbors(v),
                slot_start: g.out_slot_range(v).start,
                cursor: 0,
                alive,
                stamp: base + 1,
                slot_base: 0,
                slots: &mut arena.next,
                sent: &mut arena.sent,
                error: &mut error,
            };
            let st = protocol.init(v, &mut out);
            states[v.index()] = Some(st);
            self.account(
                protocol,
                v,
                0,
                &arena.next,
                &arena.sent,
                &mut error,
                &mut ledger,
            )?;
            any_pending |= !arena.sent.is_empty();
            transport.carry(
                g,
                v,
                0,
                &mut arena.sent,
                &mut arena.next,
                &mut arena.next_mail,
                base + 1,
            );
        }

        let mut rounds = 0u64;
        while any_pending {
            watchdog.check(rounds)?;
            rounds += 1;
            any_pending = false;
            epoch.next_base = base + rounds + 2;
            std::mem::swap(&mut arena.cur, &mut arena.next);
            std::mem::swap(&mut arena.cur_mail, &mut arena.next_mail);
            let stamp = base + rounds;
            transport.begin_round(rounds, stamp, &mut arena.cur_mail);

            for &v in alive_list {
                if arena.cur_mail[v.index()] != stamp {
                    continue;
                }
                // Gather the inbox: in-slots in CSR neighbor order, so it
                // is sorted by sender by construction. This per-node body
                // has a structural twin in `pool_worker` (which clones
                // from the shared front buffer instead of taking, and
                // addresses shard-relative slot chunks) — any semantic
                // change here must be mirrored there; the lane-equivalence
                // property in tests/determinism.rs is the referee.
                arena.inbox.clear();
                for (p, &u) in g.out_slot_range(v).zip(g.neighbors(v)) {
                    let slot = &mut arena.cur[rev[p]];
                    if slot.round == stamp {
                        let msg = slot.msg.take().expect("stamped slot holds a message");
                        arena.inbox.push((u, msg));
                    }
                }
                if T::VISITS_IDLE && arena.inbox.is_empty() {
                    transport.carry(
                        g,
                        v,
                        rounds,
                        &mut arena.sent,
                        &mut arena.next,
                        &mut arena.next_mail,
                        stamp + 1,
                    );
                    continue;
                }
                let st = states[v.index()].as_mut().expect("alive node has state");
                let mut out = Outbox {
                    from: v,
                    nbrs: g.neighbors(v),
                    slot_start: g.out_slot_range(v).start,
                    cursor: 0,
                    alive,
                    stamp: stamp + 1,
                    slot_base: 0,
                    slots: &mut arena.next,
                    sent: &mut arena.sent,
                    error: &mut error,
                };
                protocol.step(v, st, &arena.inbox, &mut out);
                self.account(
                    protocol,
                    v,
                    0,
                    &arena.next,
                    &arena.sent,
                    &mut error,
                    &mut ledger,
                )?;
                any_pending |= !arena.sent.is_empty();
                transport.carry(
                    g,
                    v,
                    rounds,
                    &mut arena.sent,
                    &mut arena.next,
                    &mut arena.next_mail,
                    stamp + 1,
                );
            }
        }

        ledger.charge_rounds(rounds);
        Ok(RunOutcome {
            states,
            rounds,
            ledger,
        })
    }

    /// One-shot parallel run: carves a throwaway layout and arena, then
    /// drives the pooled core.
    fn run_parallel<A, P>(
        &self,
        view: &A,
        protocol: &P,
    ) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send + Sync,
    {
        let g = view.graph();
        let n = view.universe();
        let mut alive = vec![false; n];
        for v in view.nodes() {
            alive[v.index()] = true;
        }
        let layout = ParLayout::carve(g, self.threads);
        let mut arena = ParArena::new(&layout, n);
        self.run_parallel_with(view, protocol, &alive, &layout, &mut arena)
    }

    /// The parallel core: spawns the worker pool once for the whole run
    /// (`std::thread::scope`), then hands each worker one phase per round
    /// over its task channel. `r == 0` runs `init` on every alive node,
    /// `r >= 1` delivers round-`r` messages and steps the recipients
    /// (gated by the mail stamps, like the sequential lane); the mail
    /// stamps for round `r + 1` are written at the join point, which also
    /// merges the shard ledgers in index order — so ledger totals and the
    /// reported error (the lowest-index erring node) match the sequential
    /// lane.
    fn run_parallel_with<A, P>(
        &self,
        view: &A,
        protocol: &P,
        alive: &[bool],
        layout: &ParLayout,
        arena: &mut ParArena<P::Msg>,
    ) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send + Sync,
    {
        let g = view.graph();
        let shards = layout.shards();
        let base = arena.base;

        let mut task_txs = Vec::with_capacity(shards);
        let mut task_rxs = Vec::with_capacity(shards);
        let mut result_txs = Vec::with_capacity(shards);
        let mut result_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel::<PhaseTask<P::Msg, P::State>>();
            task_txs.push(tx);
            task_rxs.push(rx);
            let (tx, rx) = mpsc::channel::<PhaseResult<P::Msg, P::State>>();
            result_txs.push(tx);
            result_rxs.push(rx);
        }
        let conductor = Conductor {
            base,
            front: Arc::new(std::mem::take(&mut arena.front)),
            mail: Arc::new(std::mem::take(&mut arena.cur_mail)),
            back: std::mem::take(&mut arena.back),
            next_mail: std::mem::take(&mut arena.next_mail),
            state_chunks: (0..shards)
                .map(|s| {
                    (layout.node_bounds[s]..layout.node_bounds[s + 1])
                        .map(|_| None)
                        .collect()
                })
                .collect(),
            recip_bufs: (0..shards).map(|_| Vec::new()).collect(),
            task_txs,
            result_rxs,
        };
        // Poison the chunk geometry while the buffers are out on loan: if
        // a protocol panic unwinds through the scope below, the next
        // session run sees the mismatch and rebuilds fresh chunks instead
        // of indexing the emptied arena.
        arena.threads = usize::MAX;

        // The conductor moves *into* the scope closure: if a worker dies
        // (protocol panic), the conductor's phase() panics on the closed
        // result channel, unwinding drops the task channels, the
        // remaining workers exit, and the scope joins — no deadlock. On
        // the normal path the conductor is handed back out for buffer
        // reclamation.
        let (outcome, conductor) = std::thread::scope(|scope| {
            let mut conductor = conductor;
            for (shard, (rx, result_tx)) in task_rxs.into_iter().zip(result_txs).enumerate() {
                scope.spawn(move || {
                    pool_worker(self, g, protocol, alive, layout, shard, rx, result_tx)
                });
            }

            let res = (|| {
                let mut ledger = RoundLedger::new();
                let mut any_pending = conductor.phase(0, &mut ledger).map_err(|e| (e, 0))?;
                let watchdog = self.watchdog();
                let mut rounds = 0u64;
                while any_pending {
                    watchdog.check(rounds).map_err(|e| (e, rounds))?;
                    rounds += 1;
                    conductor.rotate();
                    any_pending = conductor
                        .phase(rounds, &mut ledger)
                        .map_err(|e| (e, rounds))?;
                }
                ledger.charge_rounds(rounds);
                Ok((rounds, ledger))
            })();
            // Closing the task channels lets the workers exit; the scope
            // then joins them before returning.
            conductor.task_txs.clear();
            (res, conductor)
        });

        // Reclaim the buffers for the next session run (the workers are
        // joined, so the Arcs are uncontended) and unpoison the geometry.
        let Conductor {
            front,
            mail,
            back,
            next_mail,
            state_chunks,
            ..
        } = conductor;
        arena.front = Arc::try_unwrap(front).unwrap_or_else(|arc| (*arc).clone());
        arena.cur_mail = Arc::try_unwrap(mail).unwrap_or_else(|arc| (*arc).clone());
        arena.back = back;
        arena.next_mail = next_mail;
        arena.threads = layout.threads;

        match outcome {
            Ok((rounds, ledger)) => {
                arena.base = base + rounds + 2;
                let mut states = Vec::with_capacity(view.universe());
                for chunk in state_chunks {
                    states.extend(chunk);
                }
                Ok(RunOutcome {
                    states,
                    rounds,
                    ledger,
                })
            }
            Err((e, rounds)) => {
                arena.base = base + rounds + 2;
                Err(e)
            }
        }
    }

    /// Opens a reusable execution [session](EngineSession) on `graph`,
    /// capturing this engine's configuration (cost model, round limit,
    /// stepping lane).
    pub fn session<'g>(&self, graph: &'g Graph) -> EngineSession<'g> {
        EngineSession {
            engine: self.clone(),
            graph,
            alive: Vec::new(),
            alive_list: Vec::new(),
            par_layout: None,
            arenas: HashMap::new(),
        }
    }
}

/// A reusable per-graph execution context.
///
/// Created by [`Engine::session`], a session builds the directed-edge
/// slot arenas, inbox scratch buffers, and parallel shard layout **once
/// per graph** (lazily, one arena set per message type) and reuses them —
/// together with the graph's cached reverse-edge table — across
/// arbitrarily many protocol runs. A session run therefore costs
/// `O(traffic + n)` instead of the one-shot `O(traffic + m)`, which is
/// the difference between 4 ms and microseconds for sparse-traffic
/// protocols on dense graphs (see `BENCH_engine.json`).
///
/// # Borrowing model
///
/// The session borrows the graph (`'g`) and is `&mut self` per run — runs
/// are strictly sequential, which is what lets the arenas be reused
/// without synchronization. Views passed to [`run`](Self::run) must
/// borrow the *same* `Graph` value (checked by address); protocols are
/// borrowed per run, so different protocol types can interleave freely on
/// one session. Outcomes are handed back by value and owe the session
/// nothing.
///
/// # Session vs one-shot
///
/// Use a session whenever more than one run touches the same graph (a
/// pipeline phase per cluster, cross-validation, benches, `sdnd simulate
/// --repeat`). A single run on a throwaway graph can stay on
/// [`Engine::run`], which is the same machinery with a throwaway arena.
/// Unlike [`Engine::run`], session runs require `P::Msg: 'static`
/// (message types index the arena store); every protocol in this
/// workspace satisfies that.
pub struct EngineSession<'g> {
    engine: Engine,
    graph: &'g Graph,
    alive: Vec<bool>,
    alive_list: Vec<NodeId>,
    par_layout: Option<ParLayout>,
    arenas: HashMap<TypeId, Box<dyn Any>>,
}

impl<'g> EngineSession<'g> {
    /// The graph this session executes on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The engine configuration captured at session creation.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Refreshes the alive mask and list for this run's view.
    fn prepare<A: Adjacency>(&mut self, view: &A) {
        assert!(
            std::ptr::eq(view.graph(), self.graph),
            "EngineSession requires a view of the session's own graph"
        );
        let n = self.graph.n();
        self.alive.clear();
        self.alive.resize(n, false);
        self.alive_list.clear();
        for v in view.nodes() {
            self.alive[v.index()] = true;
            self.alive_list.push(v);
        }
    }

    /// Runs `protocol` on every alive node of `view` until quiescence, on
    /// the lane the session's engine was configured with, reusing the
    /// session arenas. Bit-identical to [`Engine::run`] on a fresh
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `view` does not borrow the session's graph.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] on budget violations, invalid sends, or
    /// if the round limit is exceeded.
    pub fn run<A, P>(&mut self, view: &A, protocol: &P) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send + Sync + 'static,
    {
        if self.engine.threads > 1 {
            return self.run_parallel(view, protocol);
        }
        self.prepare(view);
        let slots = self.graph.directed_edges();
        let n = self.graph.n();
        let arena = typed_arena(&mut self.arenas, || SeqArena::<P::Msg>::new(slots, n));
        self.engine.run_sequential_with(
            view,
            protocol,
            &self.alive,
            &self.alive_list,
            arena,
            &self.engine.watchdog(),
            &mut Reliable,
        )
    }

    fn run_parallel<A, P>(
        &mut self,
        view: &A,
        protocol: &P,
    ) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send + Sync + 'static,
    {
        self.prepare(view);
        let n = self.graph.n();
        let threads = self.engine.threads.min(n.max(1));
        if self
            .par_layout
            .as_ref()
            .is_none_or(|l| l.threads != threads)
        {
            self.par_layout = Some(ParLayout::carve(self.graph, threads));
        }
        let layout = self.par_layout.as_ref().expect("layout just ensured");
        let arena = typed_arena(&mut self.arenas, || ParArena::<P::Msg>::new(layout, n));
        if arena.threads != layout.threads {
            // The engine was reconfigured between runs: re-carve the
            // chunks, but keep the stamp epoch monotonic.
            let rebuilt = ParArena {
                base: arena.base,
                ..ParArena::new(layout, n)
            };
            *arena = rebuilt;
        }
        self.engine
            .run_parallel_with(view, protocol, &self.alive, layout, arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_graph::{gen, NodeSet};

    /// Flooding protocol that knows the graph, sending `dist + 1` tokens.
    struct GraphFlood<'g> {
        g: &'g sdnd_graph::Graph,
        source: NodeId,
    }

    #[derive(Debug)]
    struct GfState {
        dist: Option<u64>,
    }

    impl Protocol for GraphFlood<'_> {
        type State = GfState;
        type Msg = u64;

        fn init(&self, node: NodeId, out: &mut Outbox<'_, u64>) -> GfState {
            if node == self.source {
                for u in self.g.neighbors(node) {
                    out.send(*u, 1);
                }
                GfState { dist: Some(0) }
            } else {
                GfState { dist: None }
            }
        }

        fn step(
            &self,
            _node: NodeId,
            state: &mut GfState,
            inbox: &[(NodeId, u64)],
            out: &mut Outbox<'_, u64>,
        ) {
            if state.dist.is_some() {
                return;
            }
            let d = inbox.iter().map(|&(_, h)| h).min().expect("nonempty inbox");
            state.dist = Some(d);
            out.broadcast(d + 1);
        }

        fn bits(&self, msg: &u64) -> u32 {
            crate::bits_for_value(*msg)
        }
    }

    #[test]
    fn flood_computes_bfs_distances() {
        let g = gen::grid(4, 4);
        let engine = Engine::new(CostModel::congest_for(16));
        let proto = GraphFlood {
            g: &g,
            source: NodeId::new(0),
        };
        let out = engine.run(&g.full_view(), &proto).unwrap();
        // Distances match BFS; rounds = eccentricity + 1 (one quiet-check
        // round of token deliveries to already-informed nodes).
        let bfs = sdnd_graph::algo::bfs(&g.full_view(), [NodeId::new(0)]);
        for v in g.nodes() {
            assert_eq!(
                out.states[v.index()].as_ref().unwrap().dist,
                Some(bfs.dist(v) as u64)
            );
        }
        assert_eq!(out.rounds, bfs.eccentricity().unwrap() as u64 + 1);
        assert!(out.ledger.messages() > 0);
    }

    #[test]
    fn parallel_lane_is_bit_identical() {
        let g = gen::gnp_connected(60, 0.08, 17);
        let proto = GraphFlood {
            g: &g,
            source: NodeId::new(3),
        };
        let seq = Engine::new(CostModel::congest_for(60))
            .run(&g.full_view(), &proto)
            .unwrap();
        for threads in [2, 3, 7, 64] {
            let par = Engine::new(CostModel::congest_for(60))
                .with_threads(threads)
                .run(&g.full_view(), &proto)
                .unwrap();
            assert_eq!(par.rounds, seq.rounds, "rounds with {threads} threads");
            assert_eq!(par.ledger, seq.ledger, "ledger with {threads} threads");
            for v in g.nodes() {
                assert_eq!(
                    par.states[v.index()].as_ref().unwrap().dist,
                    seq.states[v.index()].as_ref().unwrap().dist,
                    "state at {v} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn respects_view() {
        let g = gen::path(5);
        let alive = NodeSet::from_nodes(5, [0, 1, 3, 4].map(NodeId::new));
        struct ViewFlood<'a> {
            view: sdnd_graph::SubsetView<'a>,
            source: NodeId,
        }
        impl Protocol for ViewFlood<'_> {
            type State = Option<u64>;
            type Msg = u64;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u64>) -> Option<u64> {
                if node == self.source {
                    for u in self.view.neighbors(node) {
                        out.send(u, 1);
                    }
                    Some(0)
                } else {
                    None
                }
            }
            fn step(
                &self,
                node: NodeId,
                state: &mut Option<u64>,
                inbox: &[(NodeId, u64)],
                out: &mut Outbox<'_, u64>,
            ) {
                if state.is_none() {
                    *state = inbox.iter().map(|&(_, h)| h).min();
                    for u in self.view.neighbors(node) {
                        out.send(u, state.unwrap() + 1);
                    }
                }
            }
            fn bits(&self, _msg: &u64) -> u32 {
                8
            }
        }
        let view = g.view(&alive);
        let engine = Engine::new(CostModel::local());
        let out = engine
            .run(
                &view,
                &ViewFlood {
                    view,
                    source: NodeId::new(0),
                },
            )
            .unwrap();
        assert_eq!(out.states[1].as_ref().unwrap(), &Some(1));
        assert_eq!(out.states[2], None, "dead node has no state");
        assert_eq!(
            out.states[3].as_ref().unwrap(),
            &None,
            "unreachable across dead node"
        );
    }

    #[test]
    fn broadcast_skips_dead_neighbors() {
        // Star center broadcasts; the dead leaf must be skipped, not
        // rejected.
        let g = gen::star(4);
        let alive = NodeSet::from_nodes(4, [0, 1, 3].map(NodeId::new));
        struct CenterCast;
        impl Protocol for CenterCast {
            type State = bool;
            type Msg = u8;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) -> bool {
                if node.index() == 0 {
                    out.broadcast(7);
                }
                node.index() == 0
            }
            fn step(
                &self,
                _: NodeId,
                state: &mut bool,
                _: &[(NodeId, u8)],
                _: &mut Outbox<'_, u8>,
            ) {
                *state = true;
            }
            fn bits(&self, _: &u8) -> u32 {
                8
            }
        }
        let view = g.view(&alive);
        let out = Engine::new(CostModel::local())
            .run(&view, &CenterCast)
            .unwrap();
        assert_eq!(out.ledger.messages(), 2, "only alive leaves are reached");
        assert_eq!(out.states[1], Some(true));
        assert_eq!(out.states[2], None);
        assert_eq!(out.states[3], Some(true));
    }

    #[test]
    fn oversized_message_rejected() {
        let g = gen::path(2);
        struct Big;
        impl Protocol for Big {
            type State = ();
            type Msg = ();
            fn init(&self, node: NodeId, out: &mut Outbox<'_, ()>) {
                if node.index() == 0 {
                    out.send(NodeId::new(1), ());
                }
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, ())], _: &mut Outbox<'_, ()>) {}
            fn bits(&self, _: &()) -> u32 {
                1_000_000
            }
        }
        let engine = Engine::new(CostModel::congest(32));
        let err = engine.run(&g.full_view(), &Big).unwrap_err();
        assert!(matches!(err, EngineError::MessageTooLarge { .. }));
        // The same protocol is fine in LOCAL mode.
        assert!(Engine::new(CostModel::local())
            .run(&g.full_view(), &Big)
            .is_ok());
    }

    #[test]
    fn duplicate_edge_message_rejected() {
        let g = gen::path(2);
        struct Dup;
        impl Protocol for Dup {
            type State = ();
            type Msg = u8;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) {
                if node.index() == 0 {
                    out.send(NodeId::new(1), 1);
                    out.send(NodeId::new(1), 2);
                }
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {}
            fn bits(&self, _: &u8) -> u32 {
                8
            }
        }
        let err = Engine::new(CostModel::local())
            .run(&g.full_view(), &Dup)
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateEdgeMessage { .. }));
    }

    #[test]
    fn non_neighbor_send_rejected() {
        let g = gen::path(3);
        struct Skip;
        impl Protocol for Skip {
            type State = ();
            type Msg = u8;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) {
                if node.index() == 0 {
                    out.send(NodeId::new(2), 1); // not adjacent on a path
                }
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {}
            fn bits(&self, _: &u8) -> u32 {
                8
            }
        }
        let err = Engine::new(CostModel::local())
            .run(&g.full_view(), &Skip)
            .unwrap_err();
        assert!(matches!(err, EngineError::NotANeighbor { .. }));
    }

    #[test]
    fn send_to_dead_or_out_of_range_node_rejected() {
        let g = gen::path(3);
        let alive = NodeSet::from_nodes(3, [0, 1].map(NodeId::new));
        struct SendTo(NodeId);
        impl Protocol for SendTo {
            type State = ();
            type Msg = u8;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) {
                if node.index() == 1 {
                    out.send(self.0, 1);
                }
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {}
            fn bits(&self, _: &u8) -> u32 {
                8
            }
        }
        // Node 2 is a base-graph neighbor of 1 but dead in the view.
        let view = g.view(&alive);
        let err = Engine::new(CostModel::local())
            .run(&view, &SendTo(NodeId::new(2)))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NotANeighbor {
                from: NodeId::new(1),
                to: NodeId::new(2)
            }
        );
        // A target outside the universe is a non-neighbor, not a panic.
        let err = Engine::new(CostModel::local())
            .run(&g.full_view(), &SendTo(NodeId::new(17)))
            .unwrap_err();
        assert!(matches!(err, EngineError::NotANeighbor { .. }));
    }

    #[test]
    fn parallel_lane_reports_the_same_error() {
        let g = gen::path(3);
        struct Skip;
        impl Protocol for Skip {
            type State = ();
            type Msg = u8;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) {
                if node.index() == 0 {
                    out.send(NodeId::new(2), 1);
                }
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {}
            fn bits(&self, _: &u8) -> u32 {
                8
            }
        }
        let seq = Engine::new(CostModel::local())
            .run(&g.full_view(), &Skip)
            .unwrap_err();
        let par = Engine::new(CostModel::local())
            .with_threads(3)
            .run(&g.full_view(), &Skip)
            .unwrap_err();
        assert_eq!(seq, par);
    }

    #[test]
    fn round_limit_detects_livelock() {
        let g = gen::path(2);
        struct PingPong;
        impl Protocol for PingPong {
            type State = ();
            type Msg = u8;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) {
                let other = NodeId::new(1 - node.index());
                out.send(other, 0);
            }
            fn step(&self, node: NodeId, _: &mut (), _: &[(NodeId, u8)], out: &mut Outbox<'_, u8>) {
                let other = NodeId::new(1 - node.index());
                out.send(other, 0);
            }
            fn bits(&self, _: &u8) -> u32 {
                1
            }
        }
        for threads in [1, 2] {
            let err = Engine::new(CostModel::local())
                .with_max_rounds(50)
                .with_threads(threads)
                .run(&g.full_view(), &PingPong)
                .unwrap_err();
            assert!(matches!(
                err,
                EngineError::RoundLimitExceeded { max_rounds: 50 }
            ));
        }
    }

    /// Convergecast-ish counter: each node sends one token to its
    /// minimum neighbor, used as a second message type (`u8`) on shared
    /// sessions.
    struct MinPing;
    impl Protocol for MinPing {
        type State = u32;
        type Msg = u8;
        fn init(&self, _: NodeId, _: &mut Outbox<'_, u8>) -> u32 {
            0
        }
        fn step(&self, _: NodeId, state: &mut u32, inbox: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {
            *state += inbox.len() as u32;
        }
        fn bits(&self, _: &u8) -> u32 {
            8
        }
    }

    #[test]
    fn session_runs_match_fresh_engines_across_protocols_and_views() {
        let g = gen::gnp_connected(40, 0.12, 9);
        for threads in [1usize, 3] {
            let engine = Engine::new(CostModel::congest_for(g.n())).with_threads(threads);
            let mut session = engine.session(&g);
            // Interleave protocols with different message types and a
            // subset view; every session run must equal a fresh run.
            let alive = NodeSet::from_nodes(40, (0..40).filter(|i| i % 5 != 1).map(NodeId::new));
            for pass in 0..3 {
                let flood = GraphFlood {
                    g: &g,
                    source: NodeId::new(pass),
                };
                let fresh = engine.run(&g.full_view(), &flood).unwrap();
                let sess = session.run(&g.full_view(), &flood).unwrap();
                assert_eq!(sess.rounds, fresh.rounds, "rounds, pass {pass}");
                assert_eq!(sess.ledger, fresh.ledger, "ledger, pass {pass}");
                for v in g.nodes() {
                    assert_eq!(
                        sess.states[v.index()].as_ref().unwrap().dist,
                        fresh.states[v.index()].as_ref().unwrap().dist,
                        "state at {v}, pass {pass}"
                    );
                }

                let view = g.view(&alive);
                let leader = crate::primitives::LeaderKernel::new(&view);
                let fresh = engine.run(&view, &leader).unwrap();
                let sess = session.run(&view, &leader).unwrap();
                assert_eq!(sess.rounds, fresh.rounds);
                assert_eq!(sess.ledger, fresh.ledger);
                assert_eq!(sess.states, fresh.states);
            }
        }
    }

    #[test]
    fn session_arena_reuse_leaks_no_messages_between_runs() {
        // A chatty run followed by a silent protocol of the same message
        // type: stale slots from run 1 must be invisible to run 2, so the
        // silent run quiesces at round 0 with an empty ledger.
        let g = gen::complete(24);
        struct SilentU64;
        impl Protocol for SilentU64 {
            type State = u64;
            type Msg = u64;
            fn init(&self, _: NodeId, _: &mut Outbox<'_, u64>) -> u64 {
                7
            }
            fn step(
                &self,
                _: NodeId,
                st: &mut u64,
                inbox: &[(NodeId, u64)],
                _: &mut Outbox<'_, u64>,
            ) {
                *st += inbox.len() as u64; // would show up if mail leaked
            }
            fn bits(&self, _: &u64) -> u32 {
                8
            }
        }
        for threads in [1usize, 4] {
            let engine = Engine::new(CostModel::congest_for(24)).with_threads(threads);
            let mut session = engine.session(&g);
            let flood = GraphFlood {
                g: &g,
                source: NodeId::new(0),
            };
            let noisy = session.run(&g.full_view(), &flood).unwrap();
            assert!(noisy.ledger.messages() > 0);
            let silent = session.run(&g.full_view(), &SilentU64).unwrap();
            assert_eq!(silent.rounds, 0, "threads {threads}");
            assert_eq!(silent.ledger.messages(), 0);
            assert!(silent.states.iter().all(|s| *s == Some(7)));
        }
    }

    #[test]
    fn session_mixes_message_types_and_propagates_errors() {
        let g = gen::path(3);
        let engine = Engine::new(CostModel::local());
        let mut session = engine.session(&g);
        // A failing run must not poison the session for later runs.
        struct Skip;
        impl Protocol for Skip {
            type State = ();
            type Msg = u8;
            fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) {
                if node.index() == 0 {
                    out.send(NodeId::new(2), 1);
                }
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {}
            fn bits(&self, _: &u8) -> u32 {
                8
            }
        }
        let err = session.run(&g.full_view(), &Skip).unwrap_err();
        assert!(matches!(err, EngineError::NotANeighbor { .. }));
        let ping = session.run(&g.full_view(), &MinPing).unwrap();
        assert_eq!(ping.rounds, 0, "MinPing sends nothing");
        let flood = GraphFlood {
            g: &g,
            source: NodeId::new(0),
        };
        let out = session.run(&g.full_view(), &flood).unwrap();
        let fresh = engine.run(&g.full_view(), &flood).unwrap();
        assert_eq!(out.rounds, fresh.rounds);
        assert_eq!(out.ledger, fresh.ledger);
    }

    #[test]
    fn session_survives_a_caught_protocol_panic() {
        // A protocol that panics mid-run, caught by the caller: the
        // session must stay usable and exact afterwards — the sequential
        // lane advances its stamp epoch on unwind (EpochGuard), the
        // parallel lane rebuilds its loaned-out chunks (poisoned
        // geometry). Same message type as the follow-up flood, so the
        // very arena the panic tore through is the one reused.
        struct Bomb;
        impl Protocol for Bomb {
            type State = ();
            type Msg = u64;
            fn init(&self, _: NodeId, out: &mut Outbox<'_, u64>) {
                out.broadcast(1);
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u64)], _: &mut Outbox<'_, u64>) {
                panic!("injected protocol failure");
            }
            fn bits(&self, _: &u64) -> u32 {
                8
            }
        }
        let g = gen::grid(4, 4);
        for threads in [1usize, 3] {
            let engine = Engine::new(CostModel::local()).with_threads(threads);
            let mut session = engine.session(&g);
            let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.run(&g.full_view(), &Bomb)
            }));
            assert!(boom.is_err(), "panic propagates ({threads} threads)");
            let flood = GraphFlood {
                g: &g,
                source: NodeId::new(0),
            };
            let out = session.run(&g.full_view(), &flood).unwrap();
            let fresh = engine.run(&g.full_view(), &flood).unwrap();
            assert_eq!(out.rounds, fresh.rounds, "{threads} threads");
            assert_eq!(out.ledger, fresh.ledger, "{threads} threads");
            for v in g.nodes() {
                assert_eq!(
                    out.states[v.index()].as_ref().unwrap().dist,
                    fresh.states[v.index()].as_ref().unwrap().dist,
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "session's own graph")]
    fn session_rejects_views_of_other_graphs() {
        let g = gen::path(4);
        let h = gen::path(4);
        let engine = Engine::new(CostModel::local());
        let mut session = engine.session(&g);
        let _ = session.run(&h.full_view(), &MinPing);
    }

    #[test]
    fn session_survives_thread_reconfiguration() {
        // Same session type-erased arenas, re-carved when the lane width
        // changes between sessions of differently configured engines.
        let g = gen::gnp_connected(30, 0.15, 4);
        let flood = GraphFlood {
            g: &g,
            source: NodeId::new(2),
        };
        let seq = Engine::new(CostModel::congest_for(30))
            .run(&g.full_view(), &flood)
            .unwrap();
        for threads in [2usize, 5] {
            let engine = Engine::new(CostModel::congest_for(30)).with_threads(threads);
            let mut session = engine.session(&g);
            for _ in 0..2 {
                let out = session.run(&g.full_view(), &flood).unwrap();
                assert_eq!(out.rounds, seq.rounds);
                assert_eq!(out.ledger, seq.ledger);
            }
        }
    }

    #[test]
    fn silent_protocol_quiesces_immediately() {
        let g = gen::grid(3, 3);
        struct Silent;
        impl Protocol for Silent {
            type State = u8;
            type Msg = u8;
            fn init(&self, _: NodeId, _: &mut Outbox<'_, u8>) -> u8 {
                7
            }
            fn step(&self, _: NodeId, _: &mut u8, _: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {}
            fn bits(&self, _: &u8) -> u32 {
                1
            }
        }
        let out = Engine::new(CostModel::local())
            .run(&g.full_view(), &Silent)
            .unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.ledger.messages(), 0);
        assert!(out.states.iter().all(|s| *s == Some(7)));
    }
}
