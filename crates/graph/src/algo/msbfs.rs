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
//! Scratch lives in the [`TraversalWorkspace`] (epoch-stamped like the
//! hop and weighted arenas: starting a batch is one epoch increment, and
//! a run abandoned mid-flight by an unwinding caller is invalidated
//! wholesale by the next increment). Results are read through
//! [`MsBfsRun`], a borrowed view with per-(node, lane) distances and
//! per-lane censuses (reached counts, eccentricities, cumulative ball
//! sizes).
//!
//! Per-lane distances are value-identical to running [`super::bfs_in`]
//! once per lane source; the proptests in `tests/msbfs_equivalence.rs`
//! pin this on arbitrary graphs and subset views, bounded and unbounded,
//! including the targeted early-exit variant.

use crate::{Adjacency, NodeId, NodeSet};

use super::bfs::UNREACHED;
use super::workspace::{TraversalWorkspace, MAX_HOP_DIST};

/// Number of traversal lanes per batch: the width of the `u64` state
/// words. Callers with more sources chunk them `MS_LANES` at a time.
pub const MS_LANES: usize = 64;

/// Per-lane eccentricity sentinel: nothing reached in that lane.
const ECC_NONE: u32 = u32::MAX;

/// Per-node lane-word scratch for MS-BFS batches, pooled inside a
/// [`TraversalWorkspace`]. Entries of `seen` / `visit` / `visit_next` /
/// `dist` are meaningful only where `stamp` equals the current epoch;
/// nodes are lazily re-zeroed on first touch per epoch.
#[derive(Debug, Default)]
pub(super) struct MsScratch {
    epoch: u32,
    stamp: Vec<u32>,
    seen: Vec<u64>,
    visit: Vec<u64>,
    visit_next: Vec<u64>,
    /// Per-(node, lane) distances, node-major with stride `lanes`.
    dist: Vec<u32>,
    cur: Vec<NodeId>,
    next: Vec<NodeId>,
    lanes: usize,
    reached: Vec<usize>,
    ecc: Vec<u32>,
    /// Level-major cumulative ball sizes: `balls[level * lanes + lane]`.
    balls: Vec<usize>,
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
        // The distance grid grows to universe × lanes of *this* run; a
        // narrower batch after a wide one simply indexes with a smaller
        // stride (stale entries are unreadable without a matching stamp
        // and seen bit).
        let need = universe.saturating_mul(lanes);
        if self.dist.len() < need {
            self.dist.resize(need, UNREACHED);
        }
        self.lanes = lanes;
        self.cur.clear();
        self.next.clear();
        self.reached.clear();
        self.reached.resize(lanes, 0);
        self.ecc.clear();
        self.ecc.resize(lanes, ECC_NONE);
        self.balls.clear();
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
            self.cur.push(s);
        }
        self.visit[si] |= bit;
        self.dist[si * self.lanes + lane] = 0;
        self.reached[lane] += 1;
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

    fn push_ball_row(&mut self) {
        for lane in 0..self.lanes {
            self.balls.push(self.reached[lane]);
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
    let m = &mut ws.ms;
    m.begin(view.universe(), lanes);

    let full: u64 = if lanes == MS_LANES {
        !0u64
    } else {
        (1u64 << lanes) - 1
    };
    let mut active = full;
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
    let mut bits = seeded;
    while bits != 0 {
        let lane = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        m.ecc[lane] = 0;
    }
    if !m.cur.is_empty() {
        m.push_ball_row();
    }

    let mut level: u32 = 0;
    while !m.cur.is_empty() && active != 0 && level < max_dist {
        let next_level = level + 1;
        // Lanes that discovered at least one node this level.
        let mut discovered = 0u64;
        let mut i = 0;
        while i < m.cur.len() {
            let u = m.cur[i];
            i += 1;
            let mu = m.visit[u.index()] & active;
            if mu == 0 {
                continue;
            }
            for v in view.neighbors(u) {
                let vi = v.index();
                m.touch(vi);
                let new = mu & !m.seen[vi] & active;
                if new == 0 {
                    continue;
                }
                if m.visit_next[vi] == 0 {
                    m.next.push(v);
                }
                m.visit_next[vi] |= new;
                m.seen[vi] |= new;
                discovered |= new;
                let base = vi * lanes;
                let mut bits = new;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    m.dist[base + lane] = next_level;
                    m.reached[lane] += 1;
                }
                if targets.is_some_and(|t| t.contains(v)) {
                    let mut bits = new;
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        m.remaining[lane] -= 1;
                        m.target_last[lane] = next_level;
                        if m.remaining[lane] == 0 {
                            active &= !(1u64 << lane);
                        }
                    }
                }
            }
        }
        // Retire the expanded frontier and promote the next one. The
        // invariant "visit is nonzero exactly on `cur`" makes the swapped
        // array a clean `visit_next` for the coming level.
        for idx in 0..m.cur.len() {
            let ui = m.cur[idx].index();
            m.visit[ui] = 0;
        }
        std::mem::swap(&mut m.visit, &mut m.visit_next);
        std::mem::swap(&mut m.cur, &mut m.next);
        m.next.clear();
        level = next_level;
        if discovered != 0 {
            let mut bits = discovered;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                m.ecc[lane] = level;
            }
            m.push_ball_row();
        }
    }

    ws.ms_run()
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
            dist: &m.dist,
            reached: &m.reached,
            ecc: &m.ecc,
            balls: &m.balls,
            remaining: &m.remaining,
            target_last: &m.target_last,
        }
    }
}

/// Borrowed view of one MS-BFS batch inside a [`TraversalWorkspace`].
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
    dist: &'w [u32],
    reached: &'w [usize],
    ecc: &'w [u32],
    balls: &'w [usize],
    remaining: &'w [usize],
    target_last: &'w [u32],
}

impl<'w> MsBfsRun<'w> {
    /// Number of lanes in this batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Distance from lane `lane`'s sources to `v`, or [`UNREACHED`].
    #[inline]
    pub fn dist(&self, v: NodeId, lane: usize) -> u32 {
        debug_assert!(lane < self.lanes);
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch && self.seen[i] >> lane & 1 != 0 {
            self.dist[i * self.lanes + lane]
        } else {
            UNREACHED
        }
    }

    /// Every lane's distance to `v` in one contiguous read (the grid is
    /// node-major): entry `l` is lane `l`'s [`dist`](Self::dist). `None`
    /// unless every lane reached `v`.
    #[inline]
    pub fn lane_dists(&self, v: NodeId) -> Option<&'w [u32]> {
        let i = v.index();
        let all = if self.lanes == MS_LANES {
            !0u64
        } else {
            (1u64 << self.lanes) - 1
        };
        (i < self.stamp.len() && self.stamp[i] == self.epoch && self.seen[i] == all)
            .then(|| &self.dist[i * self.lanes..(i + 1) * self.lanes])
    }

    /// Whether lane `lane` reached `v`.
    #[inline]
    pub fn reached(&self, v: NodeId, lane: usize) -> bool {
        debug_assert!(lane < self.lanes);
        let i = v.index();
        i < self.stamp.len() && self.stamp[i] == self.epoch && self.seen[i] >> lane & 1 != 0
    }

    /// Number of nodes lane `lane` reached.
    pub fn reached_count(&self, lane: usize) -> usize {
        self.reached[lane]
    }

    /// Largest distance lane `lane` reached (`None` if it reached
    /// nothing).
    pub fn eccentricity(&self, lane: usize) -> Option<u32> {
        (self.ecc[lane] != ECC_NONE).then(|| self.ecc[lane])
    }

    /// Number of nodes lane `lane` reached within distance `r`, clamped
    /// like [`super::BfsRun::ball_size`]: radii beyond the batch's
    /// deepest level return the lane's total reached count, and a lane
    /// that reached nothing returns 0 for every radius.
    pub fn ball_size(&self, lane: usize, r: u32) -> usize {
        if self.lanes == 0 {
            return 0;
        }
        match self.balls.len() / self.lanes {
            0 => 0,
            rows => self.balls[(r as usize).min(rows - 1) * self.lanes + lane],
        }
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
        // The node-major row holds exactly the per-lane distances, and
        // only where every lane reached the node.
        for i in 0..view.universe() {
            let v = NodeId::new(i);
            let every = (0..sources.len()).all(|lane| run.reached(v, lane));
            match run.lane_dists(v) {
                Some(row) => {
                    assert!(every, "node {i}: a row without every lane");
                    let per_lane: Vec<u32> = (0..sources.len()).map(|l| run.dist(v, l)).collect();
                    assert_eq!(row, &per_lane[..], "node {i}");
                }
                None => assert!(!every, "node {i}: every lane reached it"),
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
