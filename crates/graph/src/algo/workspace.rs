//! Reusable, epoch-stamped traversal workspaces.
//!
//! The carving pipeline runs thousands of traversals over one index
//! space; allocating `O(n)` scratch per call (and clearing it) dominates
//! the wall clock of the sequential stack. A [`TraversalWorkspace`]
//! amortizes that: every per-node array is guarded by a *stamp* that
//! must equal the workspace's current epoch for the entry to be
//! meaningful, so starting a new traversal is one epoch increment — no
//! `O(n)` clear, the same trick the CONGEST engine's slot arenas use.
//!
//! Three layers of API, from convenient to raw:
//!
//! - [`bfs_in`] / [`bfs_bounded_in`] / [`bfs_to_in`] and
//!   [`dijkstra_in`] / [`dijkstra_bounded_in`] / [`dijkstra_to_in`]:
//!   the traversals. They return borrowed run views ([`BfsRun`],
//!   [`SpRun`]) over the workspace, the one run type per metric; a
//!   caller that keeps a run past the workspace's next traversal copies
//!   it into [`super::BfsResult`] / [`super::SpResult`] with their
//!   `from_run` constructors.
//! - Pools: [`TraversalWorkspace::take_set`] /
//!   [`TraversalWorkspace::give_set`] recycle [`NodeSet`]s (cleared, not
//!   reallocated), [`TraversalWorkspace::take_aux_u32`] /
//!   [`TraversalWorkspace::give_aux_u32`] recycle plain `u32` buffers.
//!   Both hand out *owned* values, so a pooled set can be used while a
//!   run view borrows the workspace.
//! - Raw arenas: [`TraversalWorkspace::begin_hop`] /
//!   [`TraversalWorkspace::begin_sp`] expose the stamped arrays
//!   ([`HopParts`], [`SpParts`]) so traversal implementations in other
//!   crates (the `sdnd_congest` primitives) can run fused loops with
//!   their own accounting, then publish the result via
//!   [`TraversalWorkspace::hop_run`] / [`TraversalWorkspace::sp_run`].
//!
//! The workspace also pools the lane-word scratch of the bit-parallel
//! multi-source BFS ([`super::msbfs_in`] and friends), stamped with the
//! same epoch discipline; see [`super::msbfs`](super::MsBfsRun).
//!
//! Panic safety: a workspace that an unwinding traversal abandons
//! mid-run is safely reusable — the next `begin_*` advances the epoch,
//! which invalidates every partially written stamp at once.

use crate::{Adjacency, NodeId, NodeSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::bfs::UNREACHED;
use super::weighted::W_UNREACHED;

/// Sentinel for "no parent" in the packed parent arrays.
const NO_NODE: u32 = u32::MAX;

/// Largest hop distance a traversal can assign: one below the
/// [`UNREACHED`] sentinel. Bounded traversals clamp their radius here so
/// `dist + 1` arithmetic can never wrap a reached node's distance into
/// the sentinel (the `u32::MAX` boundary of `bfs_in(…) =
/// bfs_bounded_in(…, u32::MAX)`).
pub const MAX_HOP_DIST: u32 = UNREACHED - 1;

/// Per-node scratch for hop (BFS) traversals.
#[derive(Debug, Default)]
struct HopScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    parent: Vec<u32>,
    order: Vec<NodeId>,
    layer_sizes: Vec<usize>,
    ball_sizes: Vec<usize>,
}

/// Per-node scratch for weighted (Dijkstra / relaxation) traversals.
#[derive(Debug, Default)]
struct SpScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<f64>,
    parent: Vec<u32>,
    order: Vec<NodeId>,
    aux_stamp: Vec<u32>,
    aux_dist: Vec<f64>,
    aux_from: Vec<u32>,
    touched: Vec<NodeId>,
    frontier: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

/// A reusable traversal workspace: stamped hop and weighted scratch plus
/// small pools of [`NodeSet`]s and `u32` buffers.
///
/// One workspace serves one thread of traversals over any sequence of
/// graphs (arrays grow to the largest universe seen and are never
/// shrunk). Holding one across repeated carving runs turns every
/// traversal's `O(n + m)` worth of allocations into `O(1)`.
#[derive(Debug, Default)]
pub struct TraversalWorkspace {
    hop: HopScratch,
    sp: SpScratch,
    pub(super) ms: super::msbfs::MsScratch,
    sets: Vec<NodeSet>,
    aux_u32: Vec<Vec<u32>>,
}

fn grow_u32(v: &mut Vec<u32>, n: usize, fill: u32) {
    if v.len() < n {
        v.resize(n, fill);
    }
}

fn grow_f64(v: &mut Vec<f64>, n: usize, fill: f64) {
    if v.len() < n {
        v.resize(n, fill);
    }
}

impl TraversalWorkspace {
    /// Creates an empty workspace (arrays grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    // ---- NodeSet / buffer pools -------------------------------------

    /// Takes an empty [`NodeSet`] over `universe` from the pool,
    /// recycling a previously given-back set when available.
    pub fn take_set(&mut self, universe: usize) -> NodeSet {
        match self.sets.pop() {
            Some(mut s) => {
                s.reset_to_universe(universe);
                s
            }
            None => NodeSet::empty(universe),
        }
    }

    /// Takes a pooled set over `universe` pre-filled with `nodes` (the
    /// pooled counterpart of [`NodeSet::from_nodes`]).
    pub fn take_set_from<I: IntoIterator<Item = NodeId>>(
        &mut self,
        universe: usize,
        nodes: I,
    ) -> NodeSet {
        let mut s = self.take_set(universe);
        for v in nodes {
            s.insert(v);
        }
        s
    }

    /// Returns a set to the pool for reuse by [`take_set`](Self::take_set).
    ///
    /// The pool is capped: callers may give back more sets than they
    /// took (the pipeline funnels freshly allocated component sets
    /// through here), and without a cap a long-lived workspace would
    /// retain one set per component ever processed. Excess sets are
    /// simply dropped.
    pub fn give_set(&mut self, set: NodeSet) {
        const POOL_CAP: usize = 32;
        if self.sets.len() < POOL_CAP {
            self.sets.push(set);
        }
    }

    /// Takes an owned `u32` scratch buffer (contents unspecified).
    pub fn take_aux_u32(&mut self) -> Vec<u32> {
        self.aux_u32.pop().unwrap_or_default()
    }

    /// Returns a buffer taken with [`take_aux_u32`](Self::take_aux_u32).
    pub fn give_aux_u32(&mut self, buf: Vec<u32>) {
        self.aux_u32.push(buf);
    }

    // ---- hop arena --------------------------------------------------

    /// Starts a new hop-traversal epoch over `universe` and exposes the
    /// raw stamped arrays. Intended for traversal *implementations*
    /// (this module and the `sdnd_congest` primitives); most callers
    /// want [`bfs_in`].
    pub fn begin_hop(&mut self, universe: usize) -> HopParts<'_> {
        let h = &mut self.hop;
        h.epoch = h.epoch.wrapping_add(1);
        if h.epoch == 0 {
            // Epoch counter wrapped: one full clear re-arms the stamps.
            h.stamp.iter_mut().for_each(|s| *s = 0);
            h.epoch = 1;
        }
        grow_u32(&mut h.stamp, universe, 0);
        grow_u32(&mut h.dist, universe, UNREACHED);
        grow_u32(&mut h.parent, universe, NO_NODE);
        h.order.clear();
        h.layer_sizes.clear();
        h.ball_sizes.clear();
        HopParts {
            epoch: h.epoch,
            stamp: &mut h.stamp,
            dist: &mut h.dist,
            parent: &mut h.parent,
            order: &mut h.order,
            layer_sizes: &mut h.layer_sizes,
            ball_sizes: &mut h.ball_sizes,
        }
    }

    /// A read view of the most recent hop traversal (empty before the
    /// first [`begin_hop`](Self::begin_hop)).
    pub fn hop_run(&self) -> BfsRun<'_> {
        let h = &self.hop;
        BfsRun {
            epoch: h.epoch,
            stamp: &h.stamp,
            dist: &h.dist,
            parent: &h.parent,
            order: &h.order,
            layer_sizes: &h.layer_sizes,
            ball_sizes: &h.ball_sizes,
        }
    }

    // ---- weighted arena ---------------------------------------------

    /// Starts a new weighted-traversal epoch over `universe` and exposes
    /// the raw stamped arrays; the weighted sibling of
    /// [`begin_hop`](Self::begin_hop).
    pub fn begin_sp(&mut self, universe: usize) -> SpParts<'_> {
        let s = &mut self.sp;
        s.epoch = s.epoch.wrapping_add(1);
        if s.epoch == 0 {
            s.stamp.iter_mut().for_each(|x| *x = 0);
            s.aux_stamp.iter_mut().for_each(|x| *x = 0);
            s.epoch = 1;
        }
        grow_u32(&mut s.stamp, universe, 0);
        grow_f64(&mut s.dist, universe, W_UNREACHED);
        grow_u32(&mut s.parent, universe, NO_NODE);
        grow_u32(&mut s.aux_stamp, universe, 0);
        grow_f64(&mut s.aux_dist, universe, W_UNREACHED);
        grow_u32(&mut s.aux_from, universe, NO_NODE);
        s.order.clear();
        s.touched.clear();
        s.frontier.clear();
        s.heap.clear();
        SpParts {
            epoch: s.epoch,
            stamp: &mut s.stamp,
            dist: &mut s.dist,
            parent: &mut s.parent,
            order: &mut s.order,
            aux_stamp: &mut s.aux_stamp,
            aux_dist: &mut s.aux_dist,
            aux_from: &mut s.aux_from,
            touched: &mut s.touched,
            frontier: &mut s.frontier,
            heap: &mut s.heap,
        }
    }

    /// A read view of the most recent weighted traversal.
    pub fn sp_run(&self) -> SpRun<'_> {
        let s = &self.sp;
        SpRun {
            epoch: s.epoch,
            stamp: &s.stamp,
            dist: &s.dist,
            parent: &s.parent,
            order: &s.order,
        }
    }

    #[cfg(test)]
    fn force_hop_epoch(&mut self, epoch: u32) {
        self.hop.epoch = epoch;
    }
}

/// Raw mutable access to the hop arena for one traversal epoch.
///
/// Invariant: an entry of `dist` / `parent` is meaningful only when the
/// matching `stamp` entry equals `epoch`; [`visit`](Self::visit) is the
/// only sanctioned way to stamp a node. `layer_sizes` is maintained by
/// the traversal; [`seal`](Self::seal) derives the cumulative ball
/// sizes once at the end.
pub struct HopParts<'w> {
    /// The current epoch (what [`visit`](Self::visit) stamps with).
    pub epoch: u32,
    /// Per-node stamp; equal to `epoch` iff the node was visited.
    pub stamp: &'w mut [u32],
    /// Per-node hop distance (valid only when stamped).
    pub dist: &'w mut [u32],
    /// Per-node packed parent (`u32::MAX` = none; valid only when
    /// stamped).
    pub parent: &'w mut [u32],
    /// Visit order (doubles as the BFS queue).
    pub order: &'w mut Vec<NodeId>,
    /// `layer_sizes[d]` = number of nodes at distance exactly `d`.
    pub layer_sizes: &'w mut Vec<usize>,
    ball_sizes: &'w mut Vec<usize>,
}

impl HopParts<'_> {
    /// Whether `v` was visited in this epoch.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    /// Stamps `v` at distance `d` with packed parent `parent`
    /// (`u32::MAX` for none) and appends it to the visit order.
    ///
    /// The stored distance saturates at [`MAX_HOP_DIST`]: the arena
    /// cannot represent the [`UNREACHED`] sentinel as a real distance,
    /// so a `dist + 1` computed at the `u32::MAX` boundary must not wrap
    /// a reached node into "unreached".
    #[inline]
    pub fn visit(&mut self, v: NodeId, d: u32, parent: u32) {
        let i = v.index();
        self.stamp[i] = self.epoch;
        self.dist[i] = d.min(MAX_HOP_DIST);
        self.parent[i] = parent;
        self.order.push(v);
    }

    /// Finishes the traversal: computes the cumulative ball sizes from
    /// the layer sizes.
    pub fn seal(self) {
        let mut acc = 0usize;
        self.ball_sizes.clear();
        self.ball_sizes.extend(self.layer_sizes.iter().map(|&s| {
            acc += s;
            acc
        }));
    }
}

/// Raw mutable access to the weighted arena for one traversal epoch.
///
/// `dist` / `parent` follow the same stamp discipline as [`HopParts`].
/// The `aux_*` arrays are a second stamped lane (Dijkstra's settled
/// marks, the relaxation candidates of the congest `sp_bfs`); `touched`,
/// `frontier`, and `heap` are cleared by
/// [`begin_sp`](TraversalWorkspace::begin_sp).
pub struct SpParts<'w> {
    /// The current epoch.
    pub epoch: u32,
    /// Per-node stamp; equal to `epoch` iff the node has a distance.
    pub stamp: &'w mut [u32],
    /// Per-node weighted distance (valid only when stamped).
    pub dist: &'w mut [f64],
    /// Per-node packed parent (`u32::MAX` = none; valid only when
    /// stamped).
    pub parent: &'w mut [u32],
    /// Nodes in first-stamped order (sort before sealing if the caller
    /// needs distance order).
    pub order: &'w mut Vec<NodeId>,
    /// Stamp lane for the auxiliary per-node state.
    pub aux_stamp: &'w mut [u32],
    /// Auxiliary per-node distance (relaxation candidates).
    pub aux_dist: &'w mut [f64],
    /// Auxiliary per-node packed sender.
    pub aux_from: &'w mut [u32],
    /// Scratch list of nodes touched this round.
    pub touched: &'w mut Vec<NodeId>,
    /// Scratch frontier list.
    pub frontier: &'w mut Vec<NodeId>,
    /// Scratch priority queue (distance bits, node index).
    pub heap: &'w mut BinaryHeap<Reverse<(u64, usize)>>,
}

impl SpParts<'_> {
    /// Whether `v` has a distance in this epoch.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    /// The distance of `v`, or [`W_UNREACHED`] when unstamped.
    #[inline]
    pub fn dist_of(&self, v: NodeId) -> f64 {
        let i = v.index();
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            W_UNREACHED
        }
    }

    /// Sets the distance and packed parent of `v`, stamping it (and
    /// recording it in `order`) on first touch.
    #[inline]
    pub fn set_dist(&mut self, v: NodeId, d: f64, parent: u32) {
        let i = v.index();
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.order.push(v);
        }
        self.dist[i] = d;
        self.parent[i] = parent;
    }
}

/// Borrowed view of one hop traversal inside a [`TraversalWorkspace`],
/// whether run by [`bfs_in`] or by the `sdnd_congest` primitives.
///
/// Unstamped nodes report [`UNREACHED`] / `None`. `ball_sizes` returns
/// the prefix sums computed once at the end of the traversal.
/// [`super::BfsResult::from_run`] copies it into an owned result with the
/// same accessors.
#[derive(Clone, Copy)]
pub struct BfsRun<'w> {
    epoch: u32,
    stamp: &'w [u32],
    dist: &'w [u32],
    parent: &'w [u32],
    order: &'w [NodeId],
    layer_sizes: &'w [usize],
    ball_sizes: &'w [usize],
}

impl<'w> BfsRun<'w> {
    /// Distance from the source set to `v`, or [`UNREACHED`].
    #[inline]
    pub fn dist(&self, v: NodeId) -> u32 {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            UNREACHED
        }
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        let i = v.index();
        i < self.stamp.len() && self.stamp[i] == self.epoch
    }

    /// Tree parent of `v` (`None` for sources and unreached nodes).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch && self.parent[i] != NO_NODE {
            Some(NodeId::new(self.parent[i] as usize))
        } else {
            None
        }
    }

    /// The reached nodes in non-decreasing distance order.
    pub fn order(&self) -> &'w [NodeId] {
        self.order
    }

    /// Number of reached nodes.
    pub fn reached_count(&self) -> usize {
        self.order.len()
    }

    /// `layer_sizes()[d]` = number of nodes at distance exactly `d`.
    pub fn layer_sizes(&self) -> &'w [usize] {
        self.layer_sizes
    }

    /// Cumulative ball sizes `|B_r|` (prefix sums, computed once per
    /// traversal).
    pub fn ball_sizes(&self) -> &'w [usize] {
        self.ball_sizes
    }

    /// Number of reached nodes within distance `r`, clamped: any `r`
    /// beyond the eccentricity returns the total reached count, and an
    /// empty run returns 0 (where `ball_sizes()[r]` would panic).
    pub fn ball_size(&self, r: u32) -> usize {
        match self.ball_sizes.len() {
            0 => 0,
            len => self.ball_sizes[(r as usize).min(len - 1)],
        }
    }

    /// The largest distance reached (`None` if nothing was reached).
    pub fn eccentricity(&self) -> Option<u32> {
        (!self.layer_sizes.is_empty()).then(|| self.layer_sizes.len() as u32 - 1)
    }

    /// All reached nodes with distance at most `r`, in visit order.
    pub fn ball(self, r: u32) -> impl Iterator<Item = NodeId> + 'w {
        self.order
            .iter()
            .copied()
            .take_while(move |&v| self.dist(v) <= r)
    }
}

/// Borrowed view of one weighted traversal inside a
/// [`TraversalWorkspace`], whether run by [`dijkstra_in`] or by the
/// `sdnd_congest` weighted flood; [`super::SpResult::from_run`] copies
/// it into an owned result with the same accessors.
///
/// With a `_to_in` (targeted) traversal, only the distances of the
/// requested targets are guaranteed final — untargeted nodes may carry
/// tentative values or be missing.
#[derive(Clone, Copy)]
pub struct SpRun<'w> {
    epoch: u32,
    stamp: &'w [u32],
    dist: &'w [f64],
    parent: &'w [u32],
    order: &'w [NodeId],
}

impl<'w> SpRun<'w> {
    /// Distance from the source set to `v`, or [`W_UNREACHED`].
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            W_UNREACHED
        }
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        let i = v.index();
        i < self.stamp.len() && self.stamp[i] == self.epoch
    }

    /// Tree parent of `v` (`None` for sources and unreached nodes).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch && self.parent[i] != NO_NODE {
            Some(NodeId::new(self.parent[i] as usize))
        } else {
            None
        }
    }

    /// The reached nodes in non-decreasing distance order (ties by node
    /// index).
    pub fn order(&self) -> &'w [NodeId] {
        self.order
    }

    /// Number of reached nodes.
    pub fn reached_count(&self) -> usize {
        self.order.len()
    }

    /// The largest distance reached (`None` if nothing was reached).
    pub fn eccentricity(&self) -> Option<f64> {
        self.order.last().map(|&v| self.dist(v))
    }

    /// All reached nodes with distance at most `r`, in distance order.
    pub fn ball(self, r: f64) -> impl Iterator<Item = NodeId> + 'w {
        self.order
            .iter()
            .copied()
            .take_while(move |&v| self.dist(v) <= r)
    }

    /// Number of reached nodes with distance at most `r`.
    pub fn ball_count(&self, r: f64) -> usize {
        self.order.partition_point(|&v| self.dist(v) <= r)
    }
}

// ---- the traversals ------------------------------------------------

/// Full BFS from a source set (sources outside the view are ignored),
/// with discovery-order parents.
pub fn bfs_in<'w, A, I>(ws: &'w mut TraversalWorkspace, view: &A, sources: I) -> BfsRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    bfs_core(ws, view, sources, u32::MAX, None)
}

/// BFS truncated at `max_dist` (inclusive): nodes farther than
/// `max_dist` from every source are left [`UNREACHED`].
pub fn bfs_bounded_in<'w, A, I>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: I,
    max_dist: u32,
) -> BfsRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    bfs_core(ws, view, sources, max_dist, None)
}

/// BFS that stops once every member of `targets` is reached (targets'
/// distances are final; the rest of the run view is truncated). Used by
/// the early-terminating weak-diameter validators.
pub fn bfs_to_in<'w, A, I>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: I,
    targets: &NodeSet,
) -> BfsRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    bfs_core(ws, view, sources, u32::MAX, Some(targets))
}

fn bfs_core<'w, A, I>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: I,
    max_dist: u32,
    targets: Option<&NodeSet>,
) -> BfsRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    // Clamp so `du + 1` below can never reach the `UNREACHED` sentinel:
    // with `du < max_dist <= MAX_HOP_DIST`, `du + 1 <= MAX_HOP_DIST`.
    // Value-identical for every realizable input (distances are < n).
    let max_dist = max_dist.min(MAX_HOP_DIST);
    {
        let mut p = ws.begin_hop(view.universe());
        let mut remaining = targets.map_or(usize::MAX, NodeSet::len);
        for s in sources {
            if view.contains(s) && !p.reached(s) {
                p.visit(s, 0, NO_NODE);
                if targets.is_some_and(|t| t.contains(s)) {
                    remaining -= 1;
                }
            }
        }
        if !p.order.is_empty() {
            p.layer_sizes.push(p.order.len());
        }
        let mut head = 0usize;
        'run: while head < p.order.len() && remaining > 0 {
            let u = p.order[head];
            head += 1;
            let du = p.dist[u.index()];
            if du >= max_dist {
                continue;
            }
            for v in view.neighbors(u) {
                if !p.reached(v) {
                    if p.layer_sizes.len() <= (du + 1) as usize {
                        p.layer_sizes.push(0);
                    }
                    p.layer_sizes[(du + 1) as usize] += 1;
                    p.visit(v, du + 1, u.index() as u32);
                    if targets.is_some_and(|t| t.contains(v)) {
                        remaining -= 1;
                        if remaining == 0 {
                            break 'run;
                        }
                    }
                }
            }
        }
        p.seal();
    }
    ws.hop_run()
}

/// Dijkstra from a source set over the base graph's edge weights (1 per
/// edge on unweighted graphs); sources outside the view are ignored.
pub fn dijkstra_in<'w, A, I>(ws: &'w mut TraversalWorkspace, view: &A, sources: I) -> SpRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    dijkstra_core(ws, view, sources, W_UNREACHED, None)
}

/// Dijkstra truncated at distance `max_dist` (inclusive): nodes farther
/// than `max_dist` from every source are left [`W_UNREACHED`].
pub fn dijkstra_bounded_in<'w, A, I>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: I,
    max_dist: f64,
) -> SpRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    dijkstra_core(ws, view, sources, max_dist, None)
}

/// Dijkstra that stops once every member of `targets` is settled
/// (targets' distances are final; other nodes may carry tentative
/// values).
pub fn dijkstra_to_in<'w, A, I>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: I,
    targets: &NodeSet,
) -> SpRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    dijkstra_core(ws, view, sources, W_UNREACHED, Some(targets))
}

fn dijkstra_core<'w, A, I>(
    ws: &'w mut TraversalWorkspace,
    view: &A,
    sources: I,
    max_dist: f64,
    targets: Option<&NodeSet>,
) -> SpRun<'w>
where
    A: Adjacency,
    I: IntoIterator<Item = NodeId>,
{
    {
        let mut p = ws.begin_sp(view.universe());
        let mut remaining = targets.map_or(usize::MAX, NodeSet::len);
        for s in sources {
            if view.contains(s) && !p.reached(s) {
                p.set_dist(s, 0.0, NO_NODE);
                p.heap.push(Reverse((0, s.index())));
            }
        }
        // The workspace `order` collects nodes in first-stamp order; for
        // Dijkstra the settle order is the sorted order we publish, so
        // rebuild it from the pops below.
        p.order.clear();
        if remaining == 0 {
            // Vacuous target set: nothing to settle (mirrors bfs_core's
            // `remaining > 0` loop gate).
            p.heap.clear();
        }
        while let Some(Reverse((dbits, vi))) = p.heap.pop() {
            // `aux_stamp` is the settled lane.
            if p.aux_stamp[vi] == p.epoch {
                continue;
            }
            let dv = f64::from_bits(dbits);
            debug_assert_eq!(dv, p.dist[vi], "heap entry is stale iff settled");
            p.aux_stamp[vi] = p.epoch;
            let v = NodeId::new(vi);
            p.order.push(v);
            if let Some(t) = targets {
                if t.contains(v) {
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
            for (u, w) in view.neighbors_weighted(v) {
                // Saturate at f64::MAX: a sum of finite weights may
                // overflow to infinity, which is the `W_UNREACHED`
                // sentinel — a reached node must never carry it.
                let cand = (dv + w).min(f64::MAX);
                if cand <= max_dist && cand < p.dist_of(u) {
                    let ui = u.index();
                    if p.stamp[ui] != p.epoch {
                        p.stamp[ui] = p.epoch;
                    }
                    p.dist[ui] = cand;
                    p.parent[ui] = vi as u32;
                    p.heap.push(Reverse((cand.to_bits(), ui)));
                }
            }
        }
        // Unsettled tentative nodes (possible only when stopping early on
        // targets) stay stamped with tentative values; documented on
        // `SpRun`.
    }
    ws.sp_run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs, dijkstra};
    use crate::{gen, Graph};

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn bfs_in_matches_owned_bfs_across_reuses() {
        let mut ws = TraversalWorkspace::new();
        let graphs = [
            gen::grid(6, 7),
            gen::path(30),
            gen::gnp_connected(40, 0.1, 3),
        ];
        for round in 0..3 {
            for g in &graphs {
                let src = NodeId::new(round * 3 % g.n());
                let own = bfs(&g.full_view(), [src]);
                let run = bfs_in(&mut ws, &g.full_view(), [src]);
                assert_eq!(run.order(), own.order());
                assert_eq!(run.layer_sizes(), own.layer_sizes());
                assert_eq!(run.ball_sizes(), own.ball_sizes());
                for v in g.nodes() {
                    assert_eq!(run.dist(v), own.dist(v));
                    assert_eq!(run.parent(v), own.parent(v));
                    assert_eq!(run.reached(v), own.reached(v));
                }
            }
        }
    }

    #[test]
    fn bounded_run_is_the_truncated_full_run_on_subset_views() {
        let mut ws = TraversalWorkspace::new();
        let g = gen::grid(5, 5);
        let alive = NodeSet::from_nodes(25, (0..25).filter(|&i| i != 7).map(NodeId::new));
        let view = g.view(&alive);
        let full = bfs(&view, ids(&[0, 24]));
        let run = bfs_bounded_in(&mut ws, &view, ids(&[0, 24]), 3);
        let within: Vec<NodeId> = full.ball(3).collect();
        assert_eq!(run.order(), within, "the full run's order up to radius 3");
        assert_eq!(run.eccentricity(), Some(3));
        assert!(!run.reached(NodeId::new(7)), "dead node");
        for v in g.nodes() {
            let want = if full.dist(v) <= 3 {
                full.dist(v)
            } else {
                UNREACHED
            };
            assert_eq!(run.dist(v), want, "node {v}");
        }
        assert_eq!(run.ball(2).count(), full.ball(2).count());
    }

    #[test]
    fn bfs_to_in_reports_final_target_distances() {
        let mut ws = TraversalWorkspace::new();
        let g = gen::path(12);
        let targets = NodeSet::from_nodes(12, ids(&[0, 4]));
        let run = bfs_to_in(&mut ws, &g.full_view(), [NodeId::new(0)], &targets);
        assert_eq!(run.dist(NodeId::new(4)), 4);
        assert!(
            !run.reached(NodeId::new(11)),
            "sweep stops once the targets are covered"
        );
        // Unreachable target: the sweep exhausts and reports unreached.
        let alive = NodeSet::from_nodes(12, (0..6).map(NodeId::new));
        let view = g.view(&alive);
        let targets = NodeSet::from_nodes(12, ids(&[0, 9]));
        let run = bfs_to_in(&mut ws, &view, [NodeId::new(0)], &targets);
        assert!(!run.reached(NodeId::new(9)));
    }

    #[test]
    fn dijkstra_in_matches_owned_dijkstra() {
        let mut ws = TraversalWorkspace::new();
        for seed in 0..3 {
            let base = gen::gnp_connected(35, 0.1, seed);
            let g = Graph::from_weighted_edges(
                35,
                base.edges()
                    .enumerate()
                    .map(|(i, (u, v))| (u.index(), v.index(), ((i * 5 + 3) % 7) as f64 + 0.5)),
            )
            .unwrap();
            let own = dijkstra(&g.full_view(), [NodeId::new(1)]);
            let run = dijkstra_in(&mut ws, &g.full_view(), [NodeId::new(1)]);
            assert_eq!(run.order(), own.order());
            for v in g.nodes() {
                assert_eq!(run.dist(v), own.dist(v));
                assert_eq!(run.parent(v), own.parent(v));
            }
            assert_eq!(run.eccentricity(), own.eccentricity());
            assert_eq!(run.ball_count(4.0), own.ball_count(4.0));

            // The bounded run is the full run truncated at the radius.
            let runb = dijkstra_bounded_in(&mut ws, &g.full_view(), [NodeId::new(1)], 3.5);
            assert_eq!(runb.order(), own.ball(3.5).collect::<Vec<_>>());
            for v in g.nodes() {
                let want = if own.dist(v) <= 3.5 {
                    own.dist(v)
                } else {
                    W_UNREACHED
                };
                assert_eq!(runb.dist(v), want);
            }
        }
    }

    #[test]
    fn dijkstra_to_in_settles_targets_exactly() {
        let g = Graph::from_weighted_edges(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 3.0)]).unwrap();
        let mut ws = TraversalWorkspace::new();
        let targets = NodeSet::from_nodes(4, ids(&[2]));
        let run = dijkstra_to_in(&mut ws, &g.full_view(), [NodeId::new(0)], &targets);
        assert_eq!(run.dist(NodeId::new(2)), 2.5);
        assert!(!run.reached(NodeId::new(3)), "stopped before the far end");
    }

    #[test]
    fn pool_recycles_sets_and_buffers() {
        let mut ws = TraversalWorkspace::new();
        let mut s = ws.take_set(10);
        s.insert(NodeId::new(3));
        ws.give_set(s);
        let s2 = ws.take_set(70);
        assert_eq!(s2.universe(), 70);
        assert!(s2.is_empty(), "recycled set comes back empty");
        let filled = ws.take_set_from(70, ids(&[1, 5]));
        assert_eq!(filled.len(), 2);
        let mut b = ws.take_aux_u32();
        b.push(7);
        ws.give_aux_u32(b);
        assert!(ws.take_aux_u32().capacity() >= 1);
    }

    #[test]
    fn set_pool_is_capped() {
        // The pipeline funnels freshly allocated sets through give_set;
        // a long-lived workspace must not retain them all.
        let mut ws = TraversalWorkspace::new();
        for _ in 0..100 {
            ws.give_set(NodeSet::empty(64));
        }
        assert!(ws.sets.len() <= 32, "pool retained {} sets", ws.sets.len());
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let mut ws = TraversalWorkspace::new();
        let g = gen::path(5);
        let _ = bfs_in(&mut ws, &g.full_view(), [NodeId::new(0)]);
        // Force the next begin to wrap the epoch counter.
        ws.force_hop_epoch(u32::MAX);
        let run = bfs_in(&mut ws, &g.full_view(), [NodeId::new(4)]);
        assert_eq!(run.dist(NodeId::new(0)), 4);
        assert_eq!(run.reached_count(), 5);
        // And the run after the wrap is clean too.
        let run = bfs_in(&mut ws, &g.full_view(), [NodeId::new(2)]);
        assert_eq!(run.reached_count(), 5);
        assert_eq!(run.eccentricity(), Some(2));
    }

    #[test]
    fn visit_saturates_at_the_unreached_boundary() {
        // A traversal implementation (the congest fused loops use this
        // arena directly) computing `dist + 1` at the u32::MAX boundary
        // must not wrap a reached node's distance into the UNREACHED
        // sentinel: `visit` saturates at MAX_HOP_DIST.
        let mut ws = TraversalWorkspace::new();
        {
            let mut p = ws.begin_hop(4);
            p.visit(NodeId::new(0), MAX_HOP_DIST, NO_NODE);
            let du = p.dist[0];
            // The `du + 1` a fused discovery loop would compute.
            p.visit(NodeId::new(1), du.wrapping_add(1), 0);
            p.seal();
        }
        let run = ws.hop_run();
        assert!(run.reached(NodeId::new(1)));
        assert_ne!(
            run.dist(NodeId::new(1)),
            UNREACHED,
            "reached node must not report the UNREACHED sentinel"
        );
        assert_eq!(run.dist(NodeId::new(1)), MAX_HOP_DIST);
    }

    #[test]
    fn bounded_bfs_at_the_sentinel_bound_matches_unbounded() {
        let mut ws = TraversalWorkspace::new();
        let g = gen::grid(6, 6);
        let own = bfs(&g.full_view(), [NodeId::new(3)]);
        let run = bfs_bounded_in(&mut ws, &g.full_view(), [NodeId::new(3)], u32::MAX);
        assert_eq!(run.order(), own.order());
        assert_eq!(run.ball_sizes(), own.ball_sizes());
        for v in g.nodes() {
            assert_eq!(run.dist(v), own.dist(v));
        }
    }

    #[test]
    fn dijkstra_saturates_instead_of_overflowing_to_unreached() {
        // Two finite weights whose sum overflows f64: the far node is
        // reachable and must not carry the W_UNREACHED sentinel.
        let g = Graph::from_weighted_edges(3, [(0, 1, f64::MAX), (1, 2, f64::MAX)]).unwrap();
        let mut ws = TraversalWorkspace::new();
        let run = dijkstra_in(&mut ws, &g.full_view(), [NodeId::new(0)]);
        assert!(run.reached(NodeId::new(2)));
        assert!(
            run.dist(NodeId::new(2)).is_finite(),
            "reached node must not report the W_UNREACHED sentinel"
        );
        assert_eq!(run.dist(NodeId::new(2)), f64::MAX);
    }

    #[test]
    fn ball_size_clamps_out_of_range_radii() {
        let mut ws = TraversalWorkspace::new();
        let g = gen::path(5);
        let run = bfs_in(&mut ws, &g.full_view(), [NodeId::new(0)]);
        assert_eq!(run.ball_size(0), 1);
        assert_eq!(run.ball_size(4), 5);
        assert_eq!(run.ball_size(100), 5, "clamped to the total reached");
        assert_eq!(run.ball_size(u32::MAX), 5);
        // Empty run: every radius reports 0 instead of panicking.
        let empty = bfs_in(&mut ws, &g.full_view(), []);
        assert_eq!(empty.ball_size(0), 0);
        assert_eq!(empty.ball_size(7), 0);
    }

    #[test]
    fn abandoned_run_does_not_poison_the_workspace() {
        // Simulates a panicking carve: a traversal is begun and dropped
        // mid-flight, then the workspace is reused.
        let mut ws = TraversalWorkspace::new();
        let g = gen::grid(4, 4);
        {
            let mut p = ws.begin_hop(16);
            p.visit(NodeId::new(5), 0, NO_NODE);
            // ... unwound here: no seal, half-written state.
        }
        let own = bfs(&g.full_view(), [NodeId::new(0)]);
        let run = bfs_in(&mut ws, &g.full_view(), [NodeId::new(0)]);
        assert_eq!(run.order(), own.order());
        for v in g.nodes() {
            assert_eq!(run.dist(v), own.dist(v));
        }
    }
}
