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
//! Which nodes step is a double-buffered *has-mail bitset*, one bit per
//! node in `⌈n/64⌉` words: a send sets its receiver's bit in the next
//! round's bitset, and a round drains the current one word by word,
//! lowest set bit first, so nodes still step in index order. A round
//! therefore costs its mail plus `n/64` words, not a scan of every node.
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
//! lazily) and reuses them across arbitrarily many runs, so a run costs
//! its traffic, `O(n)` for its states, and `n/64` words a round, not
//! `O(m)`.
//!
//! Reuse works through *slot epochs* and *zeroed mail bitsets*. Every
//! slot stamp is offset by a per-arena base that advances past all
//! stamps a run may have written, so a stale slot from an earlier run can
//! never alias a live round, and no slot is ever cleared. The two
//! has-mail bitsets are zeroed at the start of every run (`n/64` words
//! each), because a run that errs or panics mid-round leaves bits
//! behind. A session run is bit-identical to a fresh-engine run
//! (property-tested in `tests/determinism.rs`).
//!
//! # Determinism and the parallel lane
//!
//! Execution is fully deterministic: nodes step in index order, and
//! messages sent in round `r` are delivered at the start of round
//! `r + 1`. The engine stops at *quiescence* (a round in which no message
//! was sent) or at `max_rounds`.
//!
//! Every lane runs on one sequential core over one flat slot arena, and
//! every node steps through one body. [`Engine::with_threads`] lets that
//! core *fork heavy rounds*. A round is heavy when its work estimate —
//! the nodes it steps (the popcount of its has-mail bitset) times the
//! graph's mean degree `⌈2m/n⌉` — reaches a fixed threshold. A heavy
//! round is cut into contiguous node shards balanced by slot (degree)
//! mass; the caller steps shard 0 while `std::thread::scope` helpers
//! step the others. Each shard reads the has-mail words of its node
//! range (masking the words it shares with a neighbouring shard), writes
//! only its own slice of the back buffer (a node's out-edge slots are a
//! contiguous CSR range) and of the states, collects its receivers in a
//! bitset of its own, and clones its inboxes from the shared, read-only
//! front buffer, so no two threads touch the same memory mutably. After
//! the join, the receiver bitsets are ORed into the next round's, shard
//! ledgers merged and the first error taken, all in shard order; a
//! helper's panic is resumed on the caller. Every other round runs
//! inline on the caller, because a scoped
//! spawn and join costs more than a light round (`BENCH_engine.json`'s
//! `parallel_lane` records the costs the threshold was chosen from). On
//! sparse graphs such as congest-sim's grid and expander no round is
//! heavy, so the lane costs what the sequential one does.
//!
//! Forking changes no outcome: each node's step is a pure function of
//! its state and its (deterministically gathered) inbox, and the fork
//! decision depends only on the run's traffic. The states, round count
//! and ledger therefore cannot depend on the thread count or on which
//! rounds forked; `tests/determinism.rs` pins this.
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

/// Work estimate (nodes stepped × `⌈2m/n⌉`) from which a lane with
/// threads forks a round. A scoped spawn and join costs tens of
/// microseconds, a sequential message a few nanoseconds; the
/// `parallel_lane` section of `BENCH_engine.json` records both and the
/// rows this value was chosen from.
const FORK_WORK: usize = 32_768;

#[cfg(not(test))]
fn fork_work() -> usize {
    FORK_WORK
}

/// The unit tests force every round to fork, or none, per test thread.
#[cfg(test)]
fn fork_work() -> usize {
    tests::FORK_WORK_OVERRIDE
        .with(std::cell::Cell::get)
        .unwrap_or(FORK_WORK)
}

/// Reusable buffers for one message type on one graph, shared by every
/// lane: the double-buffered slot arenas and has-mail bitsets, and the
/// send/inbox scratch (one entry per shard; the inline rounds use the
/// first).
///
/// No slot is cleared between runs. Run `k`'s round-`r` slot stamps are
/// `base + r`, and `base` advances past every stamp the run may have
/// written, so stale slots from earlier runs never alias a live round.
/// The bitsets are zeroed when a run starts.
struct SeqArena<M> {
    bufs: Buffers<M>,
    base: u64,
}

/// A [`SeqArena`]'s buffers, apart from its epoch so that a run can
/// borrow them while its [`EpochGuard`] holds the epoch. `cur_mail` and
/// `next_mail` hold bit `v % 64` of word `v / 64` for each node `v` that
/// steps in the current and the next round.
struct Buffers<M> {
    cur: Vec<Slot<M>>,
    next: Vec<Slot<M>>,
    cur_mail: Vec<u64>,
    next_mail: Vec<u64>,
    scratch: Vec<Scratch<M>>,
}

/// One stepping thread's scratch: the slots its node wrote (in send
/// order) and the inbox being gathered; in a forked round also the
/// shard's receivers, as a has-mail bitset (sized on the first fork).
struct Scratch<M> {
    sent: Vec<usize>,
    inbox: Vec<(NodeId, M)>,
    mail: Vec<u64>,
}

impl<M> Scratch<M> {
    fn new() -> Self {
        Scratch {
            sent: Vec::new(),
            inbox: Vec::new(),
            mail: Vec::new(),
        }
    }
}

impl<M> SeqArena<M> {
    fn new(slots: usize, n: usize) -> Self {
        SeqArena {
            bufs: Buffers {
                cur: slot_array(slots),
                next: slot_array(slots),
                cur_mail: vec![0; n.div_ceil(64)],
                next_mail: vec![0; n.div_ceil(64)],
                scratch: vec![Scratch::new()],
            },
            base: 0,
        }
    }
}

/// Sets node `v`'s bit in the has-mail bitset `mail`.
#[inline]
pub(crate) fn set_mail(mail: &mut [u64], v: NodeId) {
    mail[v.index() / 64] |= 1 << (v.index() % 64);
}

/// How many nodes the has-mail bitset `mail` holds.
fn count_mail(mail: &[u64]) -> usize {
    mail.iter().map(|w| w.count_ones() as usize).sum()
}

/// Advances an arena's stamp epoch when dropped — including on unwind,
/// so a protocol panic caught by the caller cannot leave stale slot
/// stamps behind that a later run on the same session would mistake for
/// live messages. `next_base` is kept ahead of every stamp the current
/// round may write.
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

    /// Round `r` begins (0 = the init phase); `mail` is its has-mail
    /// bitset, to which the hook may add nodes.
    fn begin_round(&mut self, _r: u64, _mail: &mut [u64]) {}

    /// Carries the round-`r` sends of `from`, listed in `sent` in send
    /// order and already charged to the ledger, to their receivers: sets
    /// the `next_mail` bit of each receiver that gets its message,
    /// empties the slot of each one that does not, and clears `sent`.
    fn carry<M>(
        &mut self,
        g: &Graph,
        from: NodeId,
        r: u64,
        sent: &mut Vec<usize>,
        slots: &mut [Slot<M>],
        next_mail: &mut [u64],
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
    ) {
        for &e in sent.iter() {
            set_mail(next_mail, g.edge_head(e));
        }
        sent.clear();
    }
}

/// Shard geometry for one (graph, thread-count) pair: contiguous node
/// ranges balancing *slot* (degree) mass — on degree-skewed graphs a
/// hub's message work would otherwise serialize onto one thread — and
/// the matching slot ranges. The bounds are a pure function of graph and
/// thread count, so determinism is unaffected.
pub(crate) struct ParLayout {
    pub(crate) node_bounds: Vec<usize>,
    pub(crate) slot_bounds: Vec<usize>,
}

impl ParLayout {
    pub(crate) fn carve(g: &Graph, threads: usize) -> ParLayout {
        let n = g.n();
        let slots = g.directed_edges();
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
        let slot_bounds = node_bounds.iter().map(|&b| offset_of(b)).collect();
        ParLayout {
            node_bounds,
            slot_bounds,
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.node_bounds.len() - 1
    }
}

/// What every step of one run reads.
struct RunCx<'a, P> {
    engine: &'a Engine,
    protocol: &'a P,
    g: &'a Graph,
    rev: &'a [usize],
    alive: &'a [bool],
}

impl<P: Protocol> RunCx<'_, P> {
    /// The per-node body of every lane: runs `v`'s `init` (round 0) or,
    /// in round `r`, gathers its inbox from the in-slots of `front`
    /// stamped `stamp` and steps it; then checks and charges the sends
    /// it wrote into `slots` (whose first slot has id `slot_base`),
    /// addressed to `stamp + 1`. The sends are appended to
    /// `scratch.sent`. With `visits_idle`, a node without mail does not
    /// step. Always inlined, so that both callers' constant arguments
    /// (`visits_idle`, a zero `slot_base`) fold away in the hot loop.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn step(
        &self,
        v: NodeId,
        r: u64,
        stamp: u64,
        front: &[Slot<P::Msg>],
        state: &mut Option<P::State>,
        scratch: &mut Scratch<P::Msg>,
        slot_base: usize,
        slots: &mut [Slot<P::Msg>],
        visits_idle: bool,
        ledger: &mut RoundLedger,
    ) -> Result<(), EngineError> {
        let (g, protocol) = (self.g, self.protocol);
        let first = scratch.sent.len();
        let mut error = None;
        let mut out = Outbox::for_step(
            v,
            g,
            self.alive,
            stamp + 1,
            slot_base,
            slots,
            &mut scratch.sent,
            &mut error,
        );
        if r == 0 {
            *state = Some(protocol.init(v, &mut out));
        } else {
            // In-slots in CSR neighbor order: the inbox is sorted by
            // sender by construction.
            scratch.inbox.clear();
            for (p, &u) in g.out_slot_range(v).zip(g.neighbors(v)) {
                let slot = &front[self.rev[p]];
                if slot.round == stamp {
                    let msg = slot.msg.clone().expect("stamped slot holds a message");
                    scratch.inbox.push((u, msg));
                }
            }
            if visits_idle && scratch.inbox.is_empty() {
                return Ok(());
            }
            let st = state.as_mut().expect("alive node has state");
            protocol.step(v, st, &scratch.inbox, &mut out);
        }
        self.engine.account(
            protocol,
            v,
            slot_base,
            slots,
            &scratch.sent[first..],
            &mut error,
            ledger,
        )
    }
}

/// Whether the sequential core may fork a heavy round onto helper
/// threads. [`Inline`] never does, and its `FORKS = false` compiles the
/// work estimate away; a lane with threads forks through its shard
/// layout.
trait Fork<P: Protocol> {
    const FORKS: bool;

    /// Steps round `r` over the shards, sets the receivers of its sends
    /// in `bufs.next_mail` and zeroes `bufs.cur_mail`. Returns whether
    /// any message was sent. Called only when `FORKS`.
    fn round(
        &self,
        _cx: &RunCx<'_, P>,
        _r: u64,
        _stamp: u64,
        _bufs: &mut Buffers<P::Msg>,
        _states: &mut [Option<P::State>],
        _ledger: &mut RoundLedger,
    ) -> Result<bool, EngineError> {
        unreachable!("a lane that never forks stepped a forked round")
    }
}

/// Every round on the calling thread: the one-thread lane and the async
/// lane.
struct Inline;

impl<P: Protocol> Fork<P> for Inline {
    const FORKS: bool = false;
}

/// One shard of a forked round: its node range `node_base..node_end`,
/// and its slices of the back buffer and the states.
struct Shard<'a, M, S> {
    node_base: usize,
    node_end: usize,
    slot_base: usize,
    slots: &'a mut [Slot<M>],
    states: &'a mut [Option<S>],
    scratch: &'a mut Scratch<M>,
}

impl<P> Fork<P> for ParLayout
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send + Sync,
{
    const FORKS: bool = true;

    fn round(
        &self,
        cx: &RunCx<'_, P>,
        r: u64,
        stamp: u64,
        bufs: &mut Buffers<P::Msg>,
        states: &mut [Option<P::State>],
        ledger: &mut RoundLedger,
    ) -> Result<bool, EngineError> {
        #[cfg(test)]
        tests::FORKED_ROUNDS.with(|c| c.set(c.get() + 1));
        let Buffers {
            cur,
            next,
            cur_mail,
            next_mail,
            scratch,
        } = bufs;
        scratch.resize_with(self.shards(), Scratch::new);
        let (mut slots, mut states) = (&mut next[..], states);
        let mut shards = Vec::with_capacity(self.shards());
        for (s, scratch) in scratch.iter_mut().enumerate() {
            let [node_base, node_end] = [self.node_bounds[s], self.node_bounds[s + 1]];
            let [slot_base, slot_end] = [self.slot_bounds[s], self.slot_bounds[s + 1]];
            let (shard_slots, rest) = std::mem::take(&mut slots).split_at_mut(slot_end - slot_base);
            slots = rest;
            let (shard_states, rest) =
                std::mem::take(&mut states).split_at_mut(node_end - node_base);
            states = rest;
            shards.push(Shard {
                node_base,
                node_end,
                slot_base,
                slots: shard_slots,
                states: shard_states,
                scratch,
            });
        }

        let (front, mail) = (&cur[..], &cur_mail[..]);
        // A shard steps its nodes with mail in index order, and collects
        // their receivers in a bitset of its own. Its first and last words
        // may hold nodes of the neighbouring shards: they are masked to
        // its range.
        let step = |sh: Shard<'_, P::Msg, P::State>| {
            let mut ledger = RoundLedger::new();
            let Shard {
                node_base: lo,
                node_end: hi,
                slot_base,
                slots,
                states,
                scratch,
            } = sh;
            scratch.sent.clear();
            scratch.mail.clear();
            scratch.mail.resize(mail.len(), 0);
            let mut stepped = Ok(());
            let words = mail[lo / 64..hi.div_ceil(64)].iter().copied();
            'shard: for (w, mut word) in (lo / 64..).zip(words) {
                if w == lo / 64 {
                    word &= u64::MAX << (lo % 64);
                }
                if w == hi / 64 {
                    word &= (1 << (hi % 64)) - 1;
                }
                while word != 0 {
                    let v = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    stepped = cx.step(
                        NodeId::new(v),
                        r,
                        stamp,
                        front,
                        &mut states[v - lo],
                        scratch,
                        slot_base,
                        slots,
                        false,
                        &mut ledger,
                    );
                    if stepped.is_err() {
                        break 'shard;
                    }
                    for &e in &scratch.sent {
                        set_mail(&mut scratch.mail, cx.g.edge_head(e));
                    }
                    scratch.sent.clear();
                }
            }
            (ledger, stepped)
        };
        let outcomes: Vec<std::thread::Result<_>> = std::thread::scope(|scope| {
            let mut shards = shards.into_iter();
            let first = shards.next().expect("a layout has a shard");
            let helpers: Vec<_> = shards.map(|sh| scope.spawn(move || step(sh))).collect();
            let mut outcomes = vec![Ok(step(first))];
            outcomes.extend(helpers.into_iter().map(|h| h.join()));
            outcomes
        });

        // Fold in shard order, as the inline lane would have met them:
        // the lowest shard's error or panic wins.
        let mut any = 0;
        for (outcome, scratch) in outcomes.into_iter().zip(scratch.iter()) {
            let (shard_ledger, stepped) =
                outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            stepped?;
            ledger.merge_traffic(&shard_ledger);
            for (word, &shard_word) in next_mail.iter_mut().zip(&scratch.mail) {
                *word |= shard_word;
                any |= shard_word;
            }
        }
        cur_mail.fill(0);
        Ok(any != 0)
    }
}

/// Fetches (or lazily creates) the arena of type `T` in a session's
/// type-erased store, keyed by the arena type itself.
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

    /// Sets how many threads may step a heavy round: with `threads > 1`
    /// a round whose work estimate reaches a fixed threshold is cut into
    /// that many node shards, stepped by the caller and `threads - 1`
    /// scoped helpers spawned for that round; every other round runs
    /// inline. `threads <= 1` never forks. The outcome is bit-identical
    /// either way (see the module docs); a fork pays a spawn and join,
    /// so only rounds of some 10^4 messages or more gain from it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured thread count (1 = every round inline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured round limit (also the async lane's default pulse
    /// budget).
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// Runs `protocol` on every alive node of `view` until quiescence,
    /// forking heavy rounds when [`with_threads`](Self::with_threads)
    /// asked for more than one thread.
    ///
    /// The `Send`/`Sync` bounds exist for the forked rounds. This is the
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
        let watchdog = self.watchdog();
        if self.threads > 1 {
            let layout = ParLayout::carve(view.graph(), self.threads);
            self.run_fresh(view, protocol, &watchdog, &mut Reliable, &layout)
        } else {
            self.run_fresh(view, protocol, &watchdog, &mut Reliable, &Inline)
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

    /// A single-shard async-lane run: the sequential core with the
    /// lane's seeded `transport`, under its `watchdog`.
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
        self.run_fresh(view, protocol, watchdog, transport, &Inline)
    }

    /// A one-shot run of the core on a throwaway arena.
    fn run_fresh<A, P, T, F>(
        &self,
        view: &A,
        protocol: &P,
        watchdog: &Watchdog,
        transport: &mut T,
        fork: &F,
    ) -> Result<RunOutcome<P::State>, EngineError>
    where
        A: Adjacency,
        P: Protocol,
        T: Transport,
        F: Fork<P>,
    {
        let g = view.graph();
        let n = view.universe();
        let alive_list: Vec<NodeId> = view.nodes().collect();
        let mut alive = vec![false; n];
        for &v in &alive_list {
            alive[v.index()] = true;
        }
        let mut arena = SeqArena::new(g.directed_edges(), n);
        let cx = RunCx {
            engine: self,
            protocol,
            g,
            rev: g.reverse_edges(),
            alive: &alive,
        };
        cx.run(&alive_list, &mut arena, watchdog, transport, fork)
    }

    /// Opens a reusable execution [session](EngineSession) on `graph`,
    /// capturing this engine's configuration (cost model, round limit,
    /// thread count).
    pub fn session<'g>(&self, graph: &'g Graph) -> EngineSession<'g> {
        EngineSession {
            engine: self.clone(),
            graph,
            alive: Vec::new(),
            alive_list: Vec::new(),
            layout: (self.threads > 1).then(|| ParLayout::carve(graph, self.threads)),
            arenas: HashMap::new(),
        }
    }
}

impl<P: Protocol> RunCx<'_, P> {
    /// The sequential core: runs the nodes of `alive_list` to
    /// quiescence through a caller-provided arena (fresh for one-shot
    /// runs, reused by [`EngineSession`]), hands every inline step's
    /// sends to `transport`, and lets `fork` step the heavy rounds.
    fn run<T, F>(
        &self,
        alive_list: &[NodeId],
        arena: &mut SeqArena<P::Msg>,
        watchdog: &Watchdog,
        transport: &mut T,
        fork: &F,
    ) -> Result<RunOutcome<P::State>, EngineError>
    where
        T: Transport,
        F: Fork<P>,
    {
        let g = self.g;
        // A forking lane's work estimate: the nodes a round steps (its
        // has-mail popcount) times `⌈2m/n⌉`. When not even every node
        // stepping reaches the threshold, no round can fork, and the run
        // goes inline without counting.
        let per_node = if F::FORKS {
            g.directed_edges().div_ceil(g.n().max(1))
        } else {
            0
        };
        if F::FORKS && alive_list.len().saturating_mul(per_node) < fork_work() {
            return self.run(alive_list, arena, watchdog, transport, &Inline);
        }
        let n = self.alive.len();
        let mut states: Vec<Option<P::State>> = (0..n).map(|_| None).collect();
        let mut ledger = RoundLedger::new();
        let base = arena.base;
        // The guard writes the advanced epoch back on every exit path —
        // normal return, error return, and unwinding out of a panicking
        // protocol alike.
        let mut epoch = EpochGuard {
            base: &mut arena.base,
            next_base: base + 2,
        };
        let bufs = &mut arena.bufs;
        bufs.scratch[0].sent.clear();
        // A run that erred or panicked may have left bits in either
        // bitset. Round 0 steps every alive node, as if each had mail.
        bufs.cur_mail.fill(0);
        bufs.next_mail.fill(0);
        for &v in alive_list {
            set_mail(&mut bufs.cur_mail, v);
        }

        let mut r = 0u64;
        loop {
            // Round 0 runs `init`; round `r` delivers the messages sent
            // in round `r - 1` and steps their receivers.
            let stamp = base + r;
            transport.begin_round(r, &mut bufs.cur_mail);
            let any_pending =
                if F::FORKS && count_mail(&bufs.cur_mail).saturating_mul(per_node) >= fork_work() {
                    fork.round(self, r, stamp, bufs, &mut states, &mut ledger)?
                } else {
                    let Buffers {
                        cur,
                        next,
                        cur_mail,
                        next_mail,
                        scratch,
                    } = &mut *bufs;
                    let scratch = &mut scratch[0];
                    let mut any = false;
                    // Drain the bitset word by word, lowest node first.
                    for (w, word) in cur_mail.iter_mut().enumerate() {
                        let mut word = std::mem::take(word);
                        while word != 0 {
                            let v = NodeId::new(w * 64 + word.trailing_zeros() as usize);
                            word &= word - 1;
                            self.step(
                                v,
                                r,
                                stamp,
                                cur,
                                &mut states[v.index()],
                                scratch,
                                0,
                                next,
                                T::VISITS_IDLE,
                                &mut ledger,
                            )?;
                            any |= !scratch.sent.is_empty();
                            transport.carry(g, v, r, &mut scratch.sent, next, next_mail);
                        }
                    }
                    any
                };
            if !any_pending {
                break;
            }
            watchdog.check(r)?;
            r += 1;
            epoch.next_base = base + r + 2;
            std::mem::swap(&mut bufs.cur, &mut bufs.next);
            std::mem::swap(&mut bufs.cur_mail, &mut bufs.next_mail);
        }

        ledger.charge_rounds(r);
        Ok(RunOutcome {
            states,
            rounds: r,
            ledger,
        })
    }
}

/// A reusable per-graph execution context.
///
/// Created by [`Engine::session`], a session builds the directed-edge
/// slot arenas, inbox scratch buffers, and shard layout **once per
/// graph** (lazily, one arena set per message type) and reuses them —
/// together with the graph's cached reverse-edge table — across
/// arbitrarily many protocol runs. A session run therefore costs
/// `O(traffic + n)` (plus `n/64` words a round to drain the has-mail
/// bitset) instead of the one-shot `O(traffic + m)`, which is
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
    /// Shards of the forked rounds (`None` on one thread).
    layout: Option<ParLayout>,
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

    /// Runs `protocol` on every alive node of `view` until quiescence, as
    /// the session's engine would (forking heavy rounds when it has
    /// threads), reusing the session arenas. Bit-identical to
    /// [`Engine::run`] on a fresh engine.
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
        let g = self.graph;
        assert!(
            std::ptr::eq(view.graph(), g),
            "EngineSession requires a view of the session's own graph"
        );
        self.alive.clear();
        self.alive.resize(g.n(), false);
        self.alive_list.clear();
        for v in view.nodes() {
            self.alive[v.index()] = true;
            self.alive_list.push(v);
        }
        let arena = typed_arena(&mut self.arenas, || {
            SeqArena::<P::Msg>::new(g.directed_edges(), g.n())
        });
        let cx = RunCx {
            engine: &self.engine,
            protocol,
            g,
            rev: g.reverse_edges(),
            alive: &self.alive,
        };
        let watchdog = self.engine.watchdog();
        match &self.layout {
            Some(layout) => cx.run(&self.alive_list, arena, &watchdog, &mut Reliable, layout),
            None => cx.run(&self.alive_list, arena, &watchdog, &mut Reliable, &Inline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::BfsKernel;
    use sdnd_graph::{gen, NodeSet};
    use std::cell::Cell;

    thread_local! {
        /// Replaces [`FORK_WORK`] for runs on this test's thread.
        pub(super) static FORK_WORK_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
        /// Rounds forked by runs on this test's thread.
        pub(super) static FORKED_ROUNDS: Cell<u64> = const { Cell::new(0) };
    }

    /// The two forced settings: every round forks, or none does.
    const FORCED: [usize; 2] = [0, usize::MAX];

    /// Runs `f` with the fork threshold forced to `work`, and returns its
    /// result with the number of rounds that forked.
    fn with_fork_work<R>(work: usize, f: impl FnOnce() -> R) -> (R, u64) {
        FORK_WORK_OVERRIDE.with(|o| o.set(Some(work)));
        let before = FORKED_ROUNDS.with(Cell::get);
        let out = f();
        FORK_WORK_OVERRIDE.with(|o| o.set(None));
        (out, FORKED_ROUNDS.with(Cell::get) - before)
    }

    /// An unbounded BFS flood from `source` over all of `g`.
    fn flood(g: &Graph, source: usize) -> BfsKernel {
        BfsKernel::new(&g.full_view(), [NodeId::new(source)], u32::MAX)
    }

    /// Sends nothing; each state is 7 plus the messages it ever received
    /// (none, unless stale mail leaked). Same message type as [`flood`].
    struct Silent;
    impl Protocol for Silent {
        type State = u32;
        type Msg = u32;
        fn init(&self, _: NodeId, _: &mut Outbox<'_, u32>) -> u32 {
            7
        }
        fn step(&self, _: NodeId, st: &mut u32, inbox: &[(NodeId, u32)], _: &mut Outbox<'_, u32>) {
            *st += inbox.len() as u32;
        }
        fn bits(&self, _: &u32) -> u32 {
            8
        }
    }

    #[test]
    fn flood_computes_bfs_distances() {
        let g = gen::grid(4, 4);
        let engine = Engine::new(CostModel::congest_for(16));
        let out = engine.run(&g.full_view(), &flood(&g, 0)).unwrap();
        // Distances match BFS; rounds = eccentricity + 1 (one quiet-check
        // round of token deliveries to already-informed nodes).
        let bfs = sdnd_graph::algo::bfs(&g.full_view(), [NodeId::new(0)]);
        for v in g.nodes() {
            assert_eq!(
                out.states[v.index()].as_ref().unwrap().dist,
                Some(bfs.dist(v))
            );
        }
        assert_eq!(out.rounds, bfs.eccentricity().unwrap() as u64 + 1);
        assert!(out.ledger.messages() > 0);
    }

    #[test]
    fn parallel_lane_is_bit_identical() {
        let g = gen::gnp_connected(60, 0.08, 17);
        let proto = flood(&g, 3);
        let seq = Engine::new(CostModel::congest_for(60))
            .run(&g.full_view(), &proto)
            .unwrap();
        for work in FORCED {
            for threads in [2, 3, 7, 64] {
                let (par, forked) = with_fork_work(work, || {
                    Engine::new(CostModel::congest_for(60))
                        .with_threads(threads)
                        .run(&g.full_view(), &proto)
                        .unwrap()
                });
                // The init round and every delivering round fork, or none.
                let expect = if work == 0 { seq.rounds + 1 } else { 0 };
                assert_eq!(forked, expect, "forked rounds with {threads} threads");
                assert_eq!(par.rounds, seq.rounds, "rounds with {threads} threads");
                assert_eq!(par.ledger, seq.ledger, "ledger with {threads} threads");
                assert_eq!(par.states, seq.states, "states with {threads} threads");
            }
        }
    }

    #[test]
    fn dense_runs_mix_forked_and_inline_rounds_at_the_shipped_threshold() {
        // The gnp inputs of `tests/determinism.rs`: at `FORK_WORK`, a BFS
        // flood forks its init round and the rounds that step every node,
        // but not round 1, which steps only the source's neighbors. A
        // grid's rounds never fork.
        for g in [
            gen::gnp_connected(300, 0.5, 3),
            gen::gnp_connected(280, 0.6, 8),
        ] {
            let view = g.full_view();
            let cost = CostModel::congest_for(g.n());
            let bfs = flood(&g, 0);
            let seq = Engine::new(cost).run(&view, &bfs).unwrap();
            let before = FORKED_ROUNDS.with(Cell::get);
            let par = Engine::new(cost).with_threads(2).run(&view, &bfs).unwrap();
            let forked = FORKED_ROUNDS.with(Cell::get) - before;
            assert!(
                forked > 0 && forked <= par.rounds,
                "{forked} of {} rounds",
                par.rounds + 1
            );
            assert_eq!(
                (par.rounds, par.ledger, par.states),
                (seq.rounds, seq.ledger, seq.states)
            );
        }

        let grid = gen::grid(64, 64);
        let view = grid.full_view();
        let leader = crate::primitives::LeaderKernel::new(&view);
        let engine = Engine::new(CostModel::congest_for(grid.n())).with_threads(2);
        let before = FORKED_ROUNDS.with(Cell::get);
        engine.run(&view, &leader).unwrap();
        assert_eq!(FORKED_ROUNDS.with(Cell::get), before, "a grid round forked");
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

    /// Sends, in `init`, one message along each `(from, to)` pair,
    /// neighbors or not.
    struct Sends(Vec<(usize, usize)>);
    impl Protocol for Sends {
        type State = ();
        type Msg = u8;
        fn init(&self, node: NodeId, out: &mut Outbox<'_, u8>) {
            for &(_, to) in self.0.iter().filter(|&&(from, _)| from == node.index()) {
                out.send(NodeId::new(to), 1);
            }
        }
        fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u8)], _: &mut Outbox<'_, u8>) {}
        fn bits(&self, _: &u8) -> u32 {
            8
        }
    }

    #[test]
    fn duplicate_edge_message_rejected() {
        let g = gen::path(2);
        let err = Engine::new(CostModel::local())
            .run(&g.full_view(), &Sends(vec![(0, 1), (0, 1)]))
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateEdgeMessage { .. }));
    }

    #[test]
    fn non_neighbor_send_rejected() {
        // 0 and 2 are not adjacent on a path.
        let g = gen::path(3);
        let err = Engine::new(CostModel::local())
            .run(&g.full_view(), &Sends(vec![(0, 2)]))
            .unwrap_err();
        assert!(matches!(err, EngineError::NotANeighbor { .. }));
    }

    #[test]
    fn send_to_dead_or_out_of_range_node_rejected() {
        let g = gen::path(3);
        let alive = NodeSet::from_nodes(3, [0, 1].map(NodeId::new));
        // Node 2 is a base-graph neighbor of 1 but dead in the view.
        let view = g.view(&alive);
        let err = Engine::new(CostModel::local())
            .run(&view, &Sends(vec![(1, 2)]))
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
            .run(&g.full_view(), &Sends(vec![(1, 17)]))
            .unwrap_err();
        assert!(matches!(err, EngineError::NotANeighbor { .. }));
    }

    #[test]
    fn parallel_lane_reports_the_same_error() {
        // On the 12-cycle, forked over 3 threads, the first case errs in
        // shard 0; the second in shards 1 and 2, where the lowest-index
        // node's error is reported, as inline.
        let g = gen::cycle(12);
        for sends in [vec![(0, 2)], vec![(5, 7), (9, 11)]] {
            let seq = Engine::new(CostModel::local())
                .run(&g.full_view(), &Sends(sends.clone()))
                .unwrap_err();
            let (from, to) = sends[0];
            let (from, to) = (NodeId::new(from), NodeId::new(to));
            assert_eq!(seq, EngineError::NotANeighbor { from, to });
            for work in FORCED {
                let (par, forked) = with_fork_work(work, || {
                    Engine::new(CostModel::local())
                        .with_threads(3)
                        .run(&g.full_view(), &Sends(sends.clone()))
                        .unwrap_err()
                });
                assert_eq!((par, forked), (seq.clone(), u64::from(work == 0)));
            }
        }
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
                let flood = flood(&g, pass);
                let fresh = engine.run(&g.full_view(), &flood).unwrap();
                let sess = session.run(&g.full_view(), &flood).unwrap();
                assert_eq!(sess.rounds, fresh.rounds, "rounds, pass {pass}");
                assert_eq!(sess.ledger, fresh.ledger, "ledger, pass {pass}");
                assert_eq!(sess.states, fresh.states, "states, pass {pass}");

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
        for threads in [1usize, 4] {
            let engine = Engine::new(CostModel::congest_for(24)).with_threads(threads);
            let mut session = engine.session(&g);
            let noisy = session.run(&g.full_view(), &flood(&g, 0)).unwrap();
            assert!(noisy.ledger.messages() > 0);
            let silent = session.run(&g.full_view(), &Silent).unwrap();
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
        let err = session
            .run(&g.full_view(), &Sends(vec![(0, 2)]))
            .unwrap_err();
        assert!(matches!(err, EngineError::NotANeighbor { .. }));
        let ping = session.run(&g.full_view(), &MinPing).unwrap();
        assert_eq!(ping.rounds, 0, "MinPing sends nothing");
        let flood = flood(&g, 0);
        let out = session.run(&g.full_view(), &flood).unwrap();
        let fresh = engine.run(&g.full_view(), &flood).unwrap();
        assert_eq!(out.rounds, fresh.rounds);
        assert_eq!(out.ledger, fresh.ledger);
    }

    #[test]
    fn session_survives_a_caught_protocol_panic() {
        // A protocol that panics mid-run, caught by the caller: the
        // session must stay usable and exact afterwards, since the slot
        // epoch advances on unwind (EpochGuard) and the next run zeroes
        // the has-mail bitsets. Same message type as the
        // follow-up flood, so the very arena the panic tore through is
        // the one reused. Forked, the panic at node 0 is the caller's
        // own and the one at node 15 a helper's, resumed on the caller.
        struct Bomb(usize);
        impl Protocol for Bomb {
            type State = ();
            type Msg = u32;
            fn init(&self, _: NodeId, out: &mut Outbox<'_, u32>) {
                out.broadcast(1);
            }
            fn step(&self, v: NodeId, _: &mut (), _: &[(NodeId, u32)], _: &mut Outbox<'_, u32>) {
                if v.index() == self.0 {
                    panic!("injected protocol failure");
                }
            }
            fn bits(&self, _: &u32) -> u32 {
                8
            }
        }
        let g = gen::grid(4, 4);
        for (work, threads, at) in [
            (usize::MAX, 1, 0),
            (usize::MAX, 3, 15),
            (0, 3, 0),
            (0, 3, 15),
        ] {
            let engine = Engine::new(CostModel::local()).with_threads(threads);
            let mut session = engine.session(&g);
            let (boom, forked) = with_fork_work(work, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.run(&g.full_view(), &Bomb(at))
                }))
            });
            let case = format!("{threads} threads, fork threshold {work}, bomb at {at}");
            let payload = boom.expect_err(&case);
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected protocol failure"),
                "{case}"
            );
            assert_eq!(forked, if work == 0 { 2 } else { 0 }, "{case}");
            let flood = flood(&g, 0);
            let (out, _) = with_fork_work(work, || session.run(&g.full_view(), &flood).unwrap());
            let fresh = Engine::new(CostModel::local())
                .run(&g.full_view(), &flood)
                .unwrap();
            assert_eq!(out.rounds, fresh.rounds, "{case}");
            assert_eq!(out.ledger, fresh.ledger, "{case}");
            assert_eq!(out.states, fresh.states, "{case}");
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
        // Sessions of differently configured engines on one graph carve
        // their own shard layouts; each reruns exactly, forked or not.
        let g = gen::gnp_connected(30, 0.15, 4);
        let flood = flood(&g, 2);
        let seq = Engine::new(CostModel::congest_for(30))
            .run(&g.full_view(), &flood)
            .unwrap();
        for work in FORCED {
            for threads in [2usize, 5] {
                let engine = Engine::new(CostModel::congest_for(30)).with_threads(threads);
                let mut session = engine.session(&g);
                for _ in 0..2 {
                    let (out, _) =
                        with_fork_work(work, || session.run(&g.full_view(), &flood).unwrap());
                    assert_eq!(out.rounds, seq.rounds);
                    assert_eq!(out.ledger, seq.ledger);
                }
            }
        }
    }

    /// A BFS flood from every 17th node in which each reached rogue of
    /// the `(rogue, stray)` pairs also sends to its stray: a
    /// non-neighbour, a dead node, or a neighbour its broadcast already
    /// used, so every reached rogue errs.
    struct RogueFlood(Vec<(usize, usize)>);
    impl Protocol for RogueFlood {
        type State = Option<u32>;
        type Msg = u32;
        fn init(&self, v: NodeId, out: &mut Outbox<'_, u32>) -> Option<u32> {
            v.index().is_multiple_of(17).then(|| {
                out.broadcast(1);
                0
            })
        }
        fn step(
            &self,
            v: NodeId,
            st: &mut Option<u32>,
            inbox: &[(NodeId, u32)],
            out: &mut Outbox<'_, u32>,
        ) {
            if st.is_some() {
                return;
            }
            let d = inbox
                .iter()
                .map(|&(_, d)| d)
                .min()
                .expect("stepped with mail");
            *st = Some(d);
            out.broadcast(d + 1);
            for &(_, stray) in self.0.iter().filter(|&&(rogue, _)| rogue == v.index()) {
                out.send(NodeId::new(stray), d);
            }
        }
        fn bits(&self, _: &u32) -> u32 {
            8
        }
    }

    /// What two runs are compared on: states, rounds and ledger, or the
    /// error.
    type Observed<S> = Result<(Vec<Option<S>>, u64, RoundLedger), EngineError>;

    fn observe<S>(run: Result<RunOutcome<S>, EngineError>) -> Observed<S> {
        run.map(|out| (out.states, out.rounds, out.ledger))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// On 1–300 nodes the has-mail bitset spans 1–5 words, and the
        /// shard bounds of 2–7 threads fall inside them. With every round
        /// forked, and with none, a threaded run — fresh, or on a session
        /// whose earlier runs erred — equals the one-thread lane's states,
        /// rounds, ledger and first error.
        #[test]
        fn forked_and_inline_rounds_drain_the_mail_bitset_alike(
            n in 1usize..=300,
            p in 0.0f64..0.06,
            seed in 0u64..1_000_000,
            keep in 0.5f64..=1.0,
            rogues in proptest::collection::vec((0usize..300, 0usize..300), 0..3),
            threads in 2usize..=7,
        ) {
            use rand::{Rng, SeedableRng};
            let g = gen::gnp(n, p, seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let alive = NodeSet::from_nodes(n, g.nodes().filter(|_| rng.gen_bool(keep)));
            let view = g.view(&alive);
            let rogue = RogueFlood(rogues);
            let leader = crate::primitives::LeaderKernel::new(&view);
            let one = Engine::new(CostModel::local());
            let (rogue_one, leader_one) = (observe(one.run(&view, &rogue)), observe(one.run(&view, &leader)));
            let engine = one.with_threads(threads);
            let mut session = engine.session(&g);
            for work in FORCED {
                let ((fresh, sess, fresh_leader, sess_leader), _) = with_fork_work(work, || {
                    (
                        observe(engine.run(&view, &rogue)),
                        observe(session.run(&view, &rogue)),
                        observe(engine.run(&view, &leader)),
                        observe(session.run(&view, &leader)),
                    )
                });
                proptest::prop_assert_eq!(&fresh, &rogue_one, "rogue flood, threshold {}", work);
                proptest::prop_assert_eq!(&sess, &rogue_one, "rogue flood session, threshold {}", work);
                proptest::prop_assert_eq!(&fresh_leader, &leader_one, "leader, threshold {}", work);
                proptest::prop_assert_eq!(&sess_leader, &leader_one, "leader session, threshold {}", work);
            }
        }
    }

    #[test]
    fn a_run_that_errs_mid_round_leaves_no_mail_behind() {
        // Every node broadcasts in `init`, and node 200 then also sends
        // to node 0, no neighbour of it on grid-16x16: the run errs with
        // the receivers of nodes 0..200 set in the next round's bitset
        // (forked, the shards before node 200's too). A flood on the
        // same session (same message type, so the same arena) must not
        // step any of them.
        struct Stray;
        impl Protocol for Stray {
            type State = ();
            type Msg = u32;
            fn init(&self, v: NodeId, out: &mut Outbox<'_, u32>) {
                out.broadcast(1);
                if v.index() == 200 {
                    out.send(NodeId::new(0), 1);
                }
            }
            fn step(&self, _: NodeId, _: &mut (), _: &[(NodeId, u32)], _: &mut Outbox<'_, u32>) {}
            fn bits(&self, _: &u32) -> u32 {
                8
            }
        }
        let g = gen::grid(16, 16);
        let flood = flood(&g, 255);
        let fresh = Engine::new(CostModel::local())
            .run(&g.full_view(), &flood)
            .unwrap();
        for (work, threads) in [(usize::MAX, 1), (usize::MAX, 3), (0, 3)] {
            let engine = Engine::new(CostModel::local()).with_threads(threads);
            let mut session = engine.session(&g);
            let (err, _) = with_fork_work(work, || session.run(&g.full_view(), &Stray));
            let (from, to) = (NodeId::new(200), NodeId::new(0));
            assert_eq!(err.unwrap_err(), EngineError::NotANeighbor { from, to });
            let (out, _) = with_fork_work(work, || session.run(&g.full_view(), &flood).unwrap());
            let case = format!("{threads} threads, fork threshold {work}");
            assert_eq!(out.rounds, fresh.rounds, "{case}");
            assert_eq!(out.ledger, fresh.ledger, "{case}");
            assert_eq!(out.states, fresh.states, "{case}");
        }
    }

    #[test]
    fn silent_protocol_quiesces_immediately() {
        let g = gen::grid(3, 3);
        let out = Engine::new(CostModel::local())
            .run(&g.full_view(), &Silent)
            .unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.ledger.messages(), 0);
        assert!(out.states.iter().all(|s| *s == Some(7)));
    }
}
