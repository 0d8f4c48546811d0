//! Bit-parallel multi-source BFS (MS-BFS).
//!
//! Runs up to [`MS_LANES`] = 64 independent BFS traversals in one shared
//! frontier pass over the adjacency structure: each node carries a `u64`
//! word per state array (`seen`, `visit`, `visit_next`), bit `l` of a
//! word belonging to traversal lane `l`. When a frontier node `u` scans
//! a neighbor `v`, the word operation `visit[u] & !seen[v]` discovers
//! `v` for *every* lane reaching it this level at once, so 64
//! traversals cost one adjacency scan per level instead of 64 (the
//! "more the merrier" batching of Then et al., VLDB 2014). The win is
//! largest when the lane sources are near each other — exactly the
//! validator situation, where every source is a member of one cluster —
//! because then the lanes' frontiers overlap and most nodes enter the
//! shared frontier once instead of 64 times.
//!
//! # Direction-optimizing levels
//!
//! Each level runs in one of two directions (Beamer, Asanović and
//! Patterson, SC'12). *Top-down*, every frontier node pushes its lane
//! word to its neighbours, as above. *Bottom-up*, every view node that
//! some active lane has not yet seen ORs the frontier words of its
//! neighbours and keeps the lanes it lacks: a branch-free gather with
//! one write per discovered node, where top-down does a read-modify-write
//! per edge. A level runs bottom-up when its frontier's degree sum
//! exceeds half the degree sum of the view nodes some active lane has
//! not yet seen, and the frontier is growing or the previous level
//! already ran bottom-up (so a thin frontier sweeping to the end of a
//! path stays top-down). With 64 ball-packed lanes, two thirds of the
//! levels of the all-sources sweeps over a random 4-regular or a gnp
//! graph run bottom-up, and more than half of those over a 32×32 grid
//! or torus or a 5,000-node geometric graph; over the 102×102 grid,
//! whose batches keep a frontier far smaller than the graph, and over
//! paths, every level runs top-down. Degrees are the base graph's, so
//! out-of-view neighbours are counted on both sides of the comparison,
//! and the gather reads them too: only view nodes are ever stamped in a
//! batch's epoch, and an unstamped word reads as 0.
//!
//! # The discovery log
//!
//! A batch keeps one log entry per node per level at which some lane
//! first reached it: the node (4 bytes) and the lanes that reached it
//! there (an 8-byte word) — the next frontier the level loop builds
//! anyway. Per-lane results are answered from the log:
//! [`MsBfsRun::levels`] walks it level by level, and
//! [`MsBfsRun::dist`], [`MsBfsRun::reached_count`] and
//! [`MsBfsRun::ball_size`] scan it, `O(entries)` per call. Bulk readers
//! (the exact validators' eccentricity bound, the all-pairs scatter)
//! walk [`MsBfsRun::levels`] once instead. The log replaces a
//! universe × lanes grid of `u32` distances (256 bytes per node at 64
//! lanes, written bit by bit on every discovery): on flat graphs a node
//! enters the log at the few distinct levels its lanes reach it, 12
//! bytes each. Lanes spread over a high-diameter cluster reach a node
//! at many levels, and there the log can outgrow the grid.
//! Eccentricities, target counts and last target levels are still kept
//! per lane as the levels close.
//!
//! Scratch lives in the [`TraversalWorkspace`] (epoch-stamped like the
//! hop and weighted arenas: starting a batch is one epoch increment, and
//! a run abandoned mid-flight by an unwinding caller is invalidated
//! wholesale by the next increment). Results are read through
//! [`MsBfsRun`], a borrowed view of the log and the per-lane censuses.
//!
//! Per-lane distances are value-identical to running [`super::bfs_in`]
//! once per lane source; the proptests in `tests/msbfs_equivalence.rs`
//! pin this on arbitrary graphs and subset views, bounded and unbounded,
//! including the targeted early-exit variant, in both directions.

use crate::{Adjacency, Graph, NodeId, NodeSet};

use super::bfs::UNREACHED;
use super::workspace::{TraversalWorkspace, MAX_HOP_DIST};

/// Number of traversal lanes per batch: the width of the `u64` state
/// words. Callers with more sources chunk them `MS_LANES` at a time.
pub const MS_LANES: usize = 64;

/// Per-lane eccentricity sentinel: nothing reached in that lane.
const ECC_NONE: u32 = u32::MAX;

/// Per-node lane-word scratch and the discovery log of MS-BFS batches,
/// pooled inside a [`TraversalWorkspace`]. Entries of `seen` / `visit` /
/// `visit_next` are meaningful only where `stamp` equals the current
/// epoch; nodes are lazily re-zeroed on first touch per epoch.
#[derive(Debug, Default)]
pub(super) struct MsScratch {
    epoch: u32,
    stamp: Vec<u32>,
    seen: Vec<u64>,
    /// Lane words of the current frontier (zero off the frontier).
    visit: Vec<u64>,
    visit_next: Vec<u64>,
    /// The discovery log: entry `i` is node `log_node[i]`, first reached
    /// by the lanes `log_lanes[i]` at its level. Level `d` holds entries
    /// `level_start[d]..level_start[d + 1]`.
    log_node: Vec<NodeId>,
    log_lanes: Vec<u64>,
    level_start: Vec<usize>,
    /// Bottom-up candidates: view nodes some active lane had not seen
    /// when the last bottom-up level ran (listed at a batch's first one).
    unseen: Vec<NodeId>,
    lanes: usize,
    ecc: Vec<u32>,
    remaining: Vec<usize>,
    target_last: Vec<u32>,
    /// Batch-ordering scratch ([`ms_batch_order_in`]): `src_*` map nodes
    /// to pending source indices per call, `ball_*` stamp the per-ball
    /// visited state, `queue` is the ball frontier.
    src_epoch: u32,
    src_stamp: Vec<u32>,
    src_idx: Vec<u32>,
    ball_epoch: u32,
    ball_stamp: Vec<u32>,
    queue: Vec<NodeId>,
}

impl MsScratch {
    fn begin(&mut self, universe: usize, lanes: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: one full clear re-arms the stamps.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if self.stamp.len() < universe {
            self.stamp.resize(universe, 0);
        }
        if self.seen.len() < universe {
            self.seen.resize(universe, 0);
        }
        if self.visit.len() < universe {
            self.visit.resize(universe, 0);
        }
        if self.visit_next.len() < universe {
            self.visit_next.resize(universe, 0);
        }
        self.lanes = lanes;
        self.log_node.clear();
        self.log_lanes.clear();
        self.level_start.clear();
        self.level_start.push(0);
        self.unseen.clear();
        self.ecc.clear();
        self.ecc.resize(lanes, ECC_NONE);
        self.remaining.clear();
        self.remaining.resize(lanes, 0);
        self.target_last.clear();
        self.target_last.resize(lanes, 0);
    }

    /// Lazily zeroes the lane words of `v` on its first touch this epoch.
    #[inline]
    fn touch(&mut self, v: usize) {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.seen[v] = 0;
            self.visit[v] = 0;
            self.visit_next[v] = 0;
        }
    }

    /// Seeds `s` into `lane` at level 0. Returns the lane bit when the
    /// seed took (in view), 0 otherwise — sources outside the view leave
    /// their lane empty, mirroring `bfs_in`'s source filtering.
    fn seed<A: Adjacency>(
        &mut self,
        view: &A,
        lane: usize,
        s: NodeId,
        targets: Option<&NodeSet>,
        active: &mut u64,
    ) -> u64 {
        if !view.contains(s) {
            return 0;
        }
        let si = s.index();
        self.touch(si);
        let bit = 1u64 << lane;
        self.seen[si] |= bit;
        if self.visit[si] == 0 {
            self.log_node.push(s);
        }
        self.visit[si] |= bit;
        if let Some(t) = targets {
            if t.contains(s) {
                self.remaining[lane] -= 1;
                if self.remaining[lane] == 0 {
                    *active &= !bit;
                }
            }
        }
        bit
    }

    /// Closes the level whose nodes were logged since the last close:
    /// logs each one's lanes from `visit` and records where the level
    /// ends (an empty level is not recorded).
    fn close_level(&mut self) {
        let start = self.log_lanes.len();
        for i in start..self.log_node.len() {
            self.log_lanes.push(self.visit[self.log_node[i].index()]);
        }
        if self.log_node.len() > start {
            self.level_start.push(self.log_node.len());
        }
    }

    /// Lists the view nodes some lane of `active` has not seen.
    fn list_unseen<A: Adjacency>(&mut self, view: &A, active: u64) {
        self.unseen.clear();
        for v in view.nodes() {
            let vi = v.index();
            if self.stamp[vi] != self.epoch || self.seen[vi] & active != active {
                self.unseen.push(v);
            }
        }
    }

    /// One top-down level: the frontier entries `lo..hi` push their
    /// active lanes to their in-view neighbours.
    fn top_down<A: Adjacency>(
        &mut self,
        view: &A,
        g: &Graph,
        (lo, hi): (usize, usize),
        st: &mut Sweep<'_>,
    ) {
        for i in lo..hi {
            let mu = self.log_lanes[i] & st.active;
            if mu == 0 {
                continue;
            }
            for v in view.neighbors(self.log_node[i]) {
                let vi = v.index();
                self.touch(vi);
                let seen = self.seen[vi];
                let new = mu & !seen & st.active;
                if new == 0 {
                    continue;
                }
                if self.visit_next[vi] == 0 {
                    self.log_node.push(v);
                    st.frontier_deg += g.degree(v);
                }
                self.visit_next[vi] |= new;
                self.seen[vi] = seen | new;
                if (seen | new) & st.active == st.active {
                    st.unseen_deg = st.unseen_deg.saturating_sub(g.degree(v));
                }
                st.found(self, v, new);
            }
        }
    }

    /// One bottom-up level: every listed node some active lane has not
    /// seen gathers its neighbours' frontier words and keeps the lanes
    /// it lacks. The list drops the nodes every active lane has now
    /// seen, and the unseen degree sum is recounted over what is left.
    fn bottom_up(&mut self, g: &Graph, st: &mut Sweep<'_>) {
        let epoch = self.epoch;
        let mut kept = 0;
        let mut unseen_deg = 0;
        for k in 0..self.unseen.len() {
            let v = self.unseen[k];
            let vi = v.index();
            let seen = self.seen[vi] & stamped(self.stamp[vi], epoch);
            let want = st.active & !seen;
            if want == 0 {
                continue;
            }
            let mut gathered = 0u64;
            for &u in g.neighbors(v) {
                let ui = u.index();
                gathered |= self.visit[ui] & stamped(self.stamp[ui], epoch);
            }
            let new = gathered & want;
            if new != 0 {
                self.touch(vi);
                self.seen[vi] = seen | new;
                self.visit_next[vi] = new;
                self.log_node.push(v);
                st.frontier_deg += g.degree(v);
                st.found(self, v, new);
                if new == want {
                    continue;
                }
            }
            self.unseen[kept] = v;
            kept += 1;
            unseen_deg += g.degree(v);
        }
        self.unseen.truncate(kept);
        st.unseen_deg = unseen_deg;
    }
}

/// All ones when `stamp` belongs to `epoch`, else 0: masks a lazily
/// zeroed word that has not been touched this epoch.
#[inline]
fn stamped(stamp: u32, epoch: u32) -> u64 {
    u64::from(stamp == epoch).wrapping_neg()
}

/// The lanes set in `bits`, lowest first.
pub(super) fn lanes_of(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            lane
        })
    })
}

/// The running state of one batch's level loop.
struct Sweep<'t> {
    /// Lanes still expanding: seeded, not yet done with their targets,
    /// and with a non-empty frontier.
    active: u64,
    targets: Option<&'t NodeSet>,
    /// The level being discovered.
    level: u32,
    /// Lanes that discovered a node at `level`.
    discovered: u64,
    /// Degree sum of the frontier `level` is building.
    frontier_deg: usize,
    /// Degree sum of the view nodes some active lane has not seen;
    /// exact after a bottom-up level, an upper bound between them (a
    /// lane that retires can leave nodes seen by every active lane).
    unseen_deg: usize,
}

impl Sweep<'_> {
    /// Records that `v` was first reached by the lanes `new` at this
    /// level: a lane whose last target `v` is retires.
    #[inline]
    fn found(&mut self, m: &mut MsScratch, v: NodeId, new: u64) {
        self.discovered |= new;
        if self.targets.is_some_and(|t| t.contains(v)) {
            for lane in lanes_of(new) {
                m.remaining[lane] -= 1;
                m.target_last[lane] = self.level;
                if m.remaining[lane] == 0 {
                    self.active &= !(1u64 << lane);
                }
            }
        }
    }
}

/// Runs one batch of up to 64 full BFS traversals over `view`; lane `l`
/// is seeded from `sources[l]`.
///
/// # Panics
///
/// Panics when `sources.len() > MS_LANES`; callers chunk.
pub fn msbfs_in<'w, A: Adjacency>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: &[NodeId],
) -> MsBfsRun<'w> {
    msbfs_core(ws, view, sources, u32::MAX, None)
}

/// [`msbfs_in`] truncated at distance `max_dist` (inclusive), the batch
/// counterpart of [`super::bfs_bounded_in`].
pub fn msbfs_bounded_in<'w, A: Adjacency>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: &[NodeId],
    max_dist: u32,
) -> MsBfsRun<'w> {
    msbfs_core(ws, view, sources, max_dist, None)
}

/// [`msbfs_in`] with per-lane early exit: a lane stops participating in
/// the shared frontier as soon as *its* copy of every member of
/// `targets` has been reached (the batch counterpart of
/// [`super::bfs_to_in`]'s remaining-targets count). Target distances are
/// final per lane; the rest of a finished lane's run is truncated.
pub fn msbfs_to_in<'w, A: Adjacency>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: &[NodeId],
    targets: &NodeSet,
) -> MsBfsRun<'w> {
    msbfs_core(ws, view, sources, u32::MAX, Some(targets))
}

/// Orders `sources` into locality-tight 64-lane batches, returning a
/// permutation of source *indices* (chunk the permuted sources
/// [`MS_LANES`] at a time and feed each chunk to [`msbfs_in`]).
///
/// Bit-parallel batching only beats per-source BFS when the lanes'
/// frontiers overlap: a node re-enters the shared frontier once per
/// distinct lane discovery level, so 64 sources strung along a line (say
/// consecutive row-major ids on a grid) cost nearly 64 separate sweeps
/// plus word-op overhead. This routine greedily packs each batch as a
/// BFS ball instead: it seeds a fresh traversal at the first pending
/// source and emits pending sources in discovery order until the batch
/// is full (or the component is exhausted), then restarts at the next
/// pending source. Within a batch, lane distances to any node then
/// spread over only the ball's radius, which caps re-expansion at the
/// ball diameter instead of the graph diameter.
///
/// Sources outside `view` and duplicate nodes keep exactly one pending
/// slot for the first occurrence; the leftover indices are appended at
/// the end in input order, so the result is always a permutation of
/// `0..sources.len()`. Cost is one bounded BFS per emitted batch —
/// negligible against the batch's own 64-lane sweep for the dense
/// source sets (cluster members, whole views) this is built for.
pub fn ms_batch_order_in<A: Adjacency>(
    ws: &mut TraversalWorkspace,
    view: &A,
    sources: &[NodeId],
) -> Vec<u32> {
    let m = &mut ws.ms;
    let universe = view.universe();
    m.src_epoch = m.src_epoch.wrapping_add(1);
    if m.src_epoch == 0 {
        m.src_stamp.iter_mut().for_each(|s| *s = 0);
        m.src_epoch = 1;
    }
    if m.src_stamp.len() < universe {
        m.src_stamp.resize(universe, 0);
    }
    if m.src_idx.len() < universe {
        m.src_idx.resize(universe, 0);
    }
    if m.ball_stamp.len() < universe {
        m.ball_stamp.resize(universe, 0);
    }

    // Deal each distinct in-view source node its first index; everything
    // else (duplicates, out-of-view) rides along at the end untouched.
    let mut order: Vec<u32> = Vec::with_capacity(sources.len());
    let mut leftovers: Vec<u32> = Vec::new();
    let mut pending = 0usize;
    for (i, &s) in sources.iter().enumerate() {
        let si = s.index();
        if view.contains(s) && m.src_stamp[si] != m.src_epoch {
            m.src_stamp[si] = m.src_epoch;
            m.src_idx[si] = i as u32;
            pending += 1;
        } else {
            leftovers.push(i as u32);
        }
    }

    let mut cursor = 0usize;
    while pending > 0 {
        // Next ball seed: the first input source still pending. The
        // cursor only moves forward, so seed scans are linear overall.
        while {
            let s = sources[cursor];
            !view.contains(s)
                || m.src_stamp[s.index()] != m.src_epoch
                || m.src_idx[s.index()] == u32::MAX
        } {
            cursor += 1;
        }
        let seed = sources[cursor];

        m.ball_epoch = m.ball_epoch.wrapping_add(1);
        if m.ball_epoch == 0 {
            m.ball_stamp.iter_mut().for_each(|s| *s = 0);
            m.ball_epoch = 1;
        }
        m.queue.clear();
        m.queue.push(seed);
        m.ball_stamp[seed.index()] = m.ball_epoch;
        let mut collected = 0usize;
        let mut qi = 0usize;
        while qi < m.queue.len() {
            let u = m.queue[qi];
            qi += 1;
            let ui = u.index();
            if m.src_stamp[ui] == m.src_epoch && m.src_idx[ui] != u32::MAX {
                order.push(m.src_idx[ui]);
                // Emitted: burn the slot but keep the stamp so the seed
                // scan's pending test stays one comparison.
                m.src_idx[ui] = u32::MAX;
                pending -= 1;
                collected += 1;
                if collected == MS_LANES || pending == 0 {
                    break;
                }
            }
            for v in view.neighbors(u) {
                let vi = v.index();
                if m.ball_stamp[vi] != m.ball_epoch {
                    m.ball_stamp[vi] = m.ball_epoch;
                    m.queue.push(v);
                }
            }
        }
    }
    order.extend_from_slice(&leftovers);
    order
}

fn msbfs_core<'w, A: Adjacency>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: &[NodeId],
    max_dist: u32,
    targets: Option<&NodeSet>,
) -> MsBfsRun<'w> {
    let lanes = sources.len();
    assert!(
        lanes <= MS_LANES,
        "msbfs: {lanes} sources exceed the {MS_LANES}-lane batch width; chunk the sources"
    );
    // Same sentinel guard as bfs_core: with `level < max_dist <=
    // MAX_HOP_DIST`, `level + 1` can never mint the UNREACHED sentinel.
    let max_dist = max_dist.min(MAX_HOP_DIST);
    let g = view.graph();
    let m = &mut ws.ms;
    m.begin(view.universe(), lanes);

    let mut active: u64 = if lanes == MS_LANES {
        !0u64
    } else {
        (1u64 << lanes) - 1
    };
    if let Some(t) = targets {
        let t_len = t.len();
        for lane in 0..lanes {
            m.remaining[lane] = t_len;
        }
        if t_len == 0 {
            // Vacuous target set: every lane stops at its sources
            // (mirroring bfs_core's `remaining > 0` loop gate).
            active = 0;
        }
    }
    let mut seeded = 0u64;
    for (lane, &s) in sources.iter().enumerate() {
        seeded |= m.seed(view, lane, s, targets, &mut active);
    }
    for lane in lanes_of(seeded) {
        m.ecc[lane] = 0;
    }
    m.close_level();

    // A lane whose source is outside the view reaches nothing: dropping
    // it lets a node count as seen once every lane that can reach it has.
    let mut st = Sweep {
        active: active & seeded,
        targets,
        level: 0,
        discovered: 0,
        frontier_deg: 0,
        unseen_deg: if view.len() == g.n() {
            g.directed_edges()
        } else {
            view.nodes().map(|v| g.degree(v)).sum()
        },
    };
    for &s in &m.log_node {
        st.frontier_deg += g.degree(s);
        if m.seen[s.index()] & st.active == st.active {
            st.unseen_deg -= g.degree(s);
        }
    }
    let mut last_deg = 0usize;
    let mut bottom_up = false;
    let mut listed = false;
    while st.active != 0 && st.level < max_dist && st.unseen_deg > 0 {
        // The frontier: the last logged level (an active lane was seeded,
        // so there is one).
        let k = m.level_start.len();
        let frontier = (m.level_start[k - 2], m.level_start[k - 1]);
        let frontier_deg = std::mem::take(&mut st.frontier_deg);
        bottom_up = frontier_deg * 2 > st.unseen_deg && (bottom_up || frontier_deg > last_deg);
        last_deg = frontier_deg;
        st.level += 1;
        st.discovered = 0;
        #[cfg(test)]
        tally_level(bottom_up);
        if bottom_up {
            if !listed {
                m.list_unseen(view, st.active);
                listed = true;
            }
            m.bottom_up(g, &mut st);
        } else {
            m.top_down(view, g, frontier, &mut st);
        }
        // Retire the expanded frontier and promote the next one. The
        // invariant "visit is nonzero exactly on the frontier" makes the
        // swapped array a clean `visit_next` for the coming level.
        for i in frontier.0..frontier.1 {
            let ui = m.log_node[i].index();
            m.visit[ui] = 0;
        }
        std::mem::swap(&mut m.visit, &mut m.visit_next);
        m.close_level();
        for lane in lanes_of(st.discovered) {
            m.ecc[lane] = st.level;
        }
        // A lane that discovered nothing has an empty frontier for good.
        st.active &= st.discovered;
    }

    ws.ms_run()
}

#[cfg(test)]
thread_local! {
    /// Test-only census of the calling thread's MS-BFS levels: how many
    /// ran top-down and how many bottom-up.
    static LEVELS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
fn tally_level(bottom_up: bool) {
    LEVELS.with(|t| {
        let (down, up) = t.get();
        t.set((down + usize::from(!bottom_up), up + usize::from(bottom_up)));
    });
}

impl TraversalWorkspace {
    /// A read view of the most recent MS-BFS batch (empty before the
    /// first batch runs).
    pub fn ms_run(&self) -> MsBfsRun<'_> {
        let m = &self.ms;
        MsBfsRun {
            epoch: m.epoch,
            lanes: m.lanes,
            stamp: &m.stamp,
            seen: &m.seen,
            nodes: &m.log_node,
            words: &m.log_lanes,
            level_start: &m.level_start,
            ecc: &m.ecc,
            remaining: &m.remaining,
            target_last: &m.target_last,
        }
    }
}

/// Borrowed view of one MS-BFS batch inside a [`TraversalWorkspace`]:
/// its discovery log and per-lane censuses.
///
/// Lane accessors are value-identical to the corresponding
/// [`super::BfsRun`] accessors of a sequential BFS from that lane's
/// source, with one census caveat: [`ball_size`](Self::ball_size)
/// clamps radii to the *batch's* deepest level rather than the lane's
/// own eccentricity (the clamped value is the lane's final reached
/// count either way — use [`eccentricity`](Self::eccentricity) to
/// recover the lane's own census length).
#[derive(Clone, Copy)]
pub struct MsBfsRun<'w> {
    epoch: u32,
    lanes: usize,
    stamp: &'w [u32],
    seen: &'w [u64],
    nodes: &'w [NodeId],
    words: &'w [u64],
    level_start: &'w [usize],
    ecc: &'w [u32],
    remaining: &'w [usize],
    target_last: &'w [u32],
}

impl<'w> MsBfsRun<'w> {
    /// Number of lanes in this batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The discovery log, one item per level `d = 0, 1, …` up to the
    /// batch's deepest: the nodes some lane first reached at distance
    /// `d`, each with the word of the lanes that reached it there. Every
    /// (node, lane) pair the batch reached appears in exactly one entry.
    pub fn levels(&self) -> impl Iterator<Item = (u32, &'w [NodeId], &'w [u64])> + 'w {
        let (nodes, words) = (self.nodes, self.words);
        self.level_start
            .windows(2)
            .enumerate()
            .map(move |(d, w)| (d as u32, &nodes[w[0]..w[1]], &words[w[0]..w[1]]))
    }

    /// Distance from lane `lane`'s sources to `v`, or [`UNREACHED`]: a
    /// scan of the log, `O(entries)`; bulk readers walk
    /// [`levels`](Self::levels) instead.
    pub fn dist(&self, v: NodeId, lane: usize) -> u32 {
        if !self.reached(v, lane) {
            return UNREACHED;
        }
        let bit = 1u64 << lane;
        let at = self
            .nodes
            .iter()
            .zip(self.words)
            .position(|(&u, &w)| u == v && w & bit != 0)
            .expect("a reached lane has a log entry");
        (self.level_start.partition_point(|&s| s <= at) - 1) as u32
    }

    /// Whether lane `lane` reached `v`.
    #[inline]
    pub fn reached(&self, v: NodeId, lane: usize) -> bool {
        debug_assert!(lane < self.lanes);
        let i = v.index();
        i < self.stamp.len() && self.stamp[i] == self.epoch && self.seen[i] >> lane & 1 != 0
    }

    /// Number of nodes lane `lane` reached (a scan of the log).
    pub fn reached_count(&self, lane: usize) -> usize {
        self.ball_size(lane, u32::MAX)
    }

    /// Largest distance lane `lane` reached (`None` if it reached
    /// nothing).
    pub fn eccentricity(&self, lane: usize) -> Option<u32> {
        (self.ecc[lane] != ECC_NONE).then(|| self.ecc[lane])
    }

    /// Number of nodes lane `lane` reached within distance `r` (a scan of
    /// the log's first `r + 1` levels), clamped like
    /// [`super::BfsRun::ball_size`]: radii beyond the batch's deepest
    /// level return the lane's total reached count, and a lane that
    /// reached nothing returns 0 for every radius.
    pub fn ball_size(&self, lane: usize, r: u32) -> usize {
        let end = match self.level_start.len() {
            0 => 0,
            k => self.level_start[(r as usize).saturating_add(1).min(k - 1)],
        };
        self.words[..end]
            .iter()
            .filter(|&&w| w >> lane & 1 != 0)
            .count()
    }

    /// Targets lane `lane` had not yet reached when the batch stopped
    /// (meaningful only for [`msbfs_to_in`] batches; 0 means the lane's
    /// sweep completed).
    pub fn targets_remaining(&self, lane: usize) -> usize {
        self.remaining[lane]
    }

    /// Largest distance at which lane `lane` discovered a target (0 when
    /// the lane's only targets were its own seeds, or when the batch had
    /// no target set). When
    /// [`targets_remaining`](Self::targets_remaining) is 0, this is the
    /// lane's eccentricity *restricted to the targets* — the
    /// farthest-member distance the weak-diameter validators fold,
    /// without an `O(|targets|)` per-lane distance read-back.
    pub fn last_target_level(&self, lane: usize) -> u32 {
        self.target_last[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs_bounded_in, bfs_to_in};
    use crate::{gen, Graph};

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    /// Per-lane outputs must match a sequential BFS from the same source.
    fn assert_lane_matches_bfs<A: Adjacency>(view: &A, sources: &[NodeId], max_dist: u32) {
        let mut ws = TraversalWorkspace::new();
        let mut seq = TraversalWorkspace::new();
        let run = msbfs_bounded_in(&mut ws, view, sources, max_dist);
        for (lane, &s) in sources.iter().enumerate() {
            let own = bfs_bounded_in(&mut seq, view, [s], max_dist);
            assert_eq!(run.reached_count(lane), own.reached_count(), "lane {lane}");
            assert_eq!(run.eccentricity(lane), own.eccentricity(), "lane {lane}");
            for i in 0..view.universe() {
                let v = NodeId::new(i);
                assert_eq!(run.dist(v, lane), own.dist(v), "lane {lane} node {i}");
                assert_eq!(run.reached(v, lane), own.reached(v), "lane {lane} node {i}");
            }
            if let Some(e) = own.eccentricity() {
                for r in 0..=e + 2 {
                    assert_eq!(
                        run.ball_size(lane, r),
                        own.ball_size(r),
                        "lane {lane} r {r}"
                    );
                }
            }
        }
    }

    /// The first 64 ball-packed sources of `view`: the batch shape of
    /// the exact validators' fringe passes.
    fn ball_packed<A: Adjacency>(view: &A) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = view.nodes().collect();
        let order = ms_batch_order_in(&mut TraversalWorkspace::new(), view, &nodes);
        order
            .iter()
            .take(MS_LANES)
            .map(|&i| nodes[i as usize])
            .collect()
    }

    /// The equivalence suite's instances exercise both directions: 64
    /// ball-packed lanes on a random 4-regular graph take bottom-up
    /// levels (also when targeted lanes retire), a path none.
    #[test]
    fn direction_switch_is_exercised_both_ways() {
        let regular = gen::random_regular_connected(256, 4, 3).unwrap();
        let path = gen::path(256);
        for (what, g, flat) in [("4-regular", &regular, true), ("path", &path, false)] {
            let view = g.full_view();
            let sources = ball_packed(&view);
            let mut ws = TraversalWorkspace::new();
            LEVELS.take();
            let _ = msbfs_in(&mut ws, &view, &sources);
            let (down, up) = LEVELS.take();
            assert!(down > 0, "{what}: {down} top-down levels");
            assert_eq!(up > 0, flat, "{what}: {up} bottom-up levels");
        }
        let view = regular.full_view();
        let sources = ball_packed(&view);
        let targets = NodeSet::from_nodes(256, (0..256).step_by(5).map(NodeId::new));
        let mut ws = TraversalWorkspace::new();
        LEVELS.take();
        let run = msbfs_to_in(&mut ws, &view, &sources, &targets);
        let (_, up) = LEVELS.take();
        assert!(up > 0, "targeted: {up} bottom-up levels");
        let mut seq = TraversalWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let own = bfs_to_in(&mut seq, &view, [s], &targets);
            assert_eq!(run.targets_remaining(lane), 0);
            assert_eq!(run.eccentricity(lane), own.eccentricity(), "lane {lane}");
            for t in targets.iter() {
                assert_eq!(run.dist(t, lane), own.dist(t), "lane {lane}");
            }
        }
    }

    #[test]
    fn matches_sequential_bfs_on_grid() {
        let g = gen::grid(7, 9);
        let sources: Vec<NodeId> = (0..63).map(NodeId::new).collect();
        assert_lane_matches_bfs(&g.full_view(), &sources, u32::MAX);
    }

    #[test]
    fn matches_sequential_bfs_full_64_lanes() {
        let g = gen::gnp_connected(80, 0.06, 11);
        let sources: Vec<NodeId> = (0..64).map(NodeId::new).collect();
        assert_lane_matches_bfs(&g.full_view(), &sources, u32::MAX);
        assert_lane_matches_bfs(&g.full_view(), &sources, 3);
    }

    #[test]
    fn subset_view_and_out_of_view_sources() {
        let g = gen::grid(6, 6);
        let alive = NodeSet::from_nodes(36, (0..36).filter(|&i| i % 7 != 3).map(NodeId::new));
        let view = g.view(&alive);
        // Source 3 is dead: its lane must stay empty.
        let sources = ids(&[0, 3, 35]);
        assert_lane_matches_bfs(&view, &sources, u32::MAX);
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_in(&mut ws, &view, &sources);
        assert_eq!(run.reached_count(1), 0);
        assert_eq!(run.eccentricity(1), None);
        assert_eq!(run.ball_size(1, 5), 0);
    }

    #[test]
    fn duplicate_sources_share_a_frontier_entry() {
        let g = gen::path(10);
        let sources = ids(&[4, 4, 0]);
        assert_lane_matches_bfs(&g.full_view(), &sources, u32::MAX);
    }

    #[test]
    fn bounded_truncates_each_lane() {
        let g = gen::path(12);
        let sources = ids(&[0, 11]);
        assert_lane_matches_bfs(&g.full_view(), &sources, 4);
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_bounded_in(&mut ws, &g.full_view(), &sources, 0);
        assert_eq!(run.reached_count(0), 1);
        assert_eq!(run.eccentricity(0), Some(0));
    }

    #[test]
    fn targeted_lanes_stop_early_with_final_target_distances() {
        let g = gen::path(20);
        let mut ws = TraversalWorkspace::new();
        let targets = NodeSet::from_nodes(20, ids(&[2, 4]));
        let sources = ids(&[0, 19]);
        let run = msbfs_to_in(&mut ws, &g.full_view(), &sources, &targets);
        // Lane 0 (source 0) covers its targets by level 4 and stops.
        assert_eq!(run.dist(NodeId::new(2), 0), 2);
        assert_eq!(run.dist(NodeId::new(4), 0), 4);
        assert_eq!(run.targets_remaining(0), 0);
        assert!(!run.reached(NodeId::new(10), 0), "lane 0 truncated");
        // With all targets reached, last_target_level is the lane's
        // farthest-target distance.
        assert_eq!(run.last_target_level(0), 4);
        // Lane 1 (source 19) must walk the whole path to reach node 2.
        assert_eq!(run.dist(NodeId::new(2), 1), 17);
        assert_eq!(run.targets_remaining(1), 0);
        assert_eq!(run.last_target_level(1), 17);
        // Target distances agree with the sequential targeted sweep.
        let mut seq = TraversalWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let own = bfs_to_in(&mut seq, &g.full_view(), [s], &targets);
            for t in targets.iter() {
                assert_eq!(run.dist(t, lane), own.dist(t), "lane {lane}");
            }
        }
    }

    #[test]
    fn unreachable_target_exhausts_the_lane() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut ws = TraversalWorkspace::new();
        let targets = NodeSet::from_nodes(6, ids(&[2, 4]));
        let run = msbfs_to_in(&mut ws, &g.full_view(), &ids(&[0, 3]), &targets);
        assert_eq!(run.dist(NodeId::new(2), 0), 2);
        assert_eq!(run.targets_remaining(0), 1, "node 4 unreachable from 0");
        assert_eq!(run.targets_remaining(1), 1, "node 2 unreachable from 3");
        assert_eq!(run.dist(NodeId::new(4), 1), 1);
        // last_target_level still reports the farthest *reached* target.
        assert_eq!(run.last_target_level(0), 2);
        assert_eq!(run.last_target_level(1), 1);
    }

    #[test]
    fn empty_batch_has_no_lanes() {
        let g = gen::path(5);
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_in(&mut ws, &g.full_view(), &[]);
        assert_eq!(run.lanes(), 0);
    }

    #[test]
    #[should_panic(expected = "64-lane batch width")]
    fn oversized_batch_panics() {
        let g = gen::path(70);
        let mut ws = TraversalWorkspace::new();
        let sources: Vec<NodeId> = (0..65).map(NodeId::new).collect();
        let _ = msbfs_in(&mut ws, &g.full_view(), &sources);
    }

    #[test]
    fn reuse_across_epochs_and_widths_stays_clean() {
        let mut ws = TraversalWorkspace::new();
        let g1 = gen::grid(5, 5);
        let g2 = gen::path(40);
        for round in 0..4 {
            let wide: Vec<NodeId> = (0..20).map(NodeId::new).collect();
            assert_lane_matches_bfs(&g1.full_view(), &wide, u32::MAX);
            let narrow = ids(&[round, 39 - round]);
            let run = msbfs_in(&mut ws, &g2.full_view(), &narrow);
            assert_eq!(run.reached_count(0), 40);
            assert_eq!(
                run.dist(NodeId::new(39), 0),
                39 - run.dist(NodeId::new(39), 1)
            );
        }
    }

    /// `ms_batch_order_in` must return a permutation of `0..len` with
    /// the leftover (duplicate / out-of-view) indices at the tail.
    fn assert_is_permutation(order: &[u32], len: usize) {
        assert_eq!(order.len(), len);
        let mut seen = vec![false; len];
        for &i in order {
            assert!(!seen[i as usize], "index {i} emitted twice");
            seen[i as usize] = true;
        }
    }

    #[test]
    fn batch_order_is_a_permutation_with_leftovers_last() {
        let g = gen::grid(6, 6);
        let alive = NodeSet::from_nodes(36, (0..36).filter(|&i| i != 7).map(NodeId::new));
        let view = g.view(&alive);
        // 5 appears twice; 7 is dead.
        let sources = ids(&[0, 5, 7, 5, 35, 12]);
        let mut ws = TraversalWorkspace::new();
        let order = ms_batch_order_in(&mut ws, &view, &sources);
        assert_is_permutation(&order, sources.len());
        // Leftovers (second 5 at index 3, dead 7 at index 2) close the
        // order in input order.
        assert_eq!(&order[4..], &[2, 3]);
        // The head starts at the first pending source.
        assert_eq!(order[0], 0);
    }

    #[test]
    fn batch_order_packs_locality_tight_balls() {
        // 2×200 grid: row-major ids run along the long axis, so input
        // order strings each 64-batch across half the graph. Ball
        // packing must keep every batch inside a contiguous window.
        let cols = 200usize;
        let g = gen::grid(2, cols);
        let sources: Vec<NodeId> = g.nodes().collect();
        let mut ws = TraversalWorkspace::new();
        let order = ms_batch_order_in(&mut ws, &g.full_view(), &sources);
        assert_is_permutation(&order, sources.len());
        for batch in order.chunks(MS_LANES) {
            let xs: Vec<usize> = batch
                .iter()
                .map(|&i| sources[i as usize].index() % cols)
                .collect();
            let spread = xs.iter().max().unwrap() - xs.iter().min().unwrap();
            // 64 nodes over 2 rows fit in a 32-column window; the greedy
            // ball stays within a small constant of that.
            assert!(spread <= 40, "batch spread {spread} columns");
        }
    }

    #[test]
    fn batch_order_covers_disconnected_components() {
        let g = Graph::from_edges(9, [(0, 1), (1, 2), (3, 4), (6, 7)]).unwrap();
        let sources = ids(&[8, 3, 0, 6, 4, 2]);
        let mut ws = TraversalWorkspace::new();
        let order = ms_batch_order_in(&mut ws, &g.full_view(), &sources);
        assert_is_permutation(&order, sources.len());
        // Same-component sources stay adjacent: 3 and 4 (indices 1, 4).
        let pos = |i: u32| order.iter().position(|&o| o == i).unwrap();
        assert_eq!(pos(1).abs_diff(pos(4)), 1);
        assert_eq!(pos(2).abs_diff(pos(5)), 1, "0..=2 component contiguous");
    }

    #[test]
    fn abandoned_batch_does_not_poison_the_workspace() {
        // An unwinding caller abandons a batch mid-run; the next epoch
        // must invalidate all of its half-written lane words.
        let g = gen::grid(4, 4);
        let mut ws = TraversalWorkspace::new();
        let _ = msbfs_in(&mut ws, &g.full_view(), &ids(&[5]));
        assert_lane_matches_bfs(&g.full_view(), &ids(&[0, 15]), u32::MAX);
        let run = msbfs_in(&mut ws, &g.full_view(), &ids(&[0]));
        assert_eq!(run.reached_count(0), 16);
        assert_eq!(run.dist(NodeId::new(5), 0), 2);
    }
}
