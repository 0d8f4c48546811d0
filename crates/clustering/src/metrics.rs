//! Cluster diameters: the quantities the validators (and through their
//! reports, the experiment tables) measure.
//!
//! Every diameter is computed through a [`DistanceOracle`] in a
//! caller-held [`CarveCtx`]: the `u32` functions
//! ([`strong_diameter_of_in`], [`weak_diameter_of_in`]) fix the hop
//! metric (and are exact — hop distances are integers embedded in
//! `f64`), and the `_with_in` variants take any oracle, such as
//! [`WeightedOracle`] for the Dijkstra metric of a weighted graph.
//!
//! # One exact iFUB for every diameter
//!
//! Strong and weak diameters, in the hop and the weighted metric, all
//! come from one iFUB sweep (Crescenzi et al., "On computing the
//! diameter of real-world graphs"). Strong sweeps run in the member
//! view `G[C]`; weak sweeps run in `G` and stop once every member is
//! reached. The result is the largest distance the oracle computes over
//! ordered member pairs, so it is bit-identical to one sweep per member.
//!
//! The first sweep, the double sweep and the root sweeps are plain
//! single-source traversals. After them a member is *certified*, and
//! never swept, when either bound shows it cannot realize a distance
//! above the running maximum `lb`:
//!
//! - iFUB's level bound: `2·d_r(v)·(1 + m) ≤ lb` (`d_r` = distance from
//!   the root; `m` below);
//! - in an exact metric, its eccentricity bound `eu(v) ≤ lb`, where
//!   `eu(v) = min ecc(s) + d(s, v)` over swept sources `s` (the upper
//!   bound of Takes and Kosters' BoundingDiameters), folded from every
//!   sweep.
//!
//! The members certified neither way are swept by decreasing `d_r`, up
//! to 64 per MS-BFS pass when the oracle batches
//! ([`DistanceOracle::batch_distances_in`], the hop metric) and one
//! Dijkstra at a time otherwise; the open set is filtered again after
//! every pass, so a pass carries no member that an earlier one
//! certified. A pair farther apart than the final `lb` would have an
//! endpoint with `2·d_r > lb` and `eu ≥ ecc > lb`, and that endpoint is
//! swept, so the result is exact. On a grid the double sweep and its
//! roots leave a member or two to sweep; on flat gnp clusters the
//! eccentricity bound certifies most of what the level bound leaves; on
//! expanders, where nearly every eccentricity equals the diameter, it
//! certifies little (1,500 to 1,650 of a 2,000-node random 4-regular
//! graph's members are swept), and the passes themselves are the cost.
//! There the MS-BFS kernel runs each pass's middle levels bottom-up,
//! and a pass folds `eu` from its discovery log, one entry per member
//! and level at which some lane reached it, instead of reading 64 lane
//! distances per member (see [`sdnd_graph::algo::MsBfsRun::levels`]).
//!
//! Both bounds need nothing but the triangle inequality, and that holds
//! for exact distances. Dijkstra's computed distance is the minimum,
//! over paths, of the path's left-to-right rounded weight sum
//! (`fl(d + w)` is monotone in `d`), and such a sum of at most `n`
//! non-negative terms lies within a factor of about `1 ± n·ε/2` of the
//! exact sum. A weighted sweep therefore widens the level bound by
//! `1 + m` with `m = 2·n·ε` (`n` = the view's universe), does without
//! the eccentricity bound, and after the fringe sweeps every unprocessed
//! member whose largest computed distance `d` from a processed source
//! satisfies `d·(1 + m) > lb`, until none is left — the reverse
//! direction of a processed pair can round one ulp higher. Hop distances
//! are exact integers: `m = 0`, and the reverse step never fires.
//!
//! Every `G[C]` path is a `G` path with the same rounded sum, so the
//! computed weak diameter never exceeds the computed strong one. The
//! validators compute strong before weak and hand
//! the strong value to the weak sweep as an upper bound, which returns
//! as soon as its lower bound reaches it — on a cluster whose weak and
//! strong diameters agree, after a sweep or two.

use std::cmp::Reverse;

use crate::CarveCtx;
use sdnd_graph::algo::{
    self, DistanceOracle, HopOracle, HyperBall, MsBfsRun, TraversalWorkspace, WeightedOracle,
    MS_LANES,
};
use sdnd_graph::{Adjacency, Cancelled, Graph, NodeId, NodeSet};

/// Exact strong diameter of a node set under `oracle`: the diameter of
/// `G[members]` in the oracle's metric.
///
/// Returns `None` if the induced subgraph is disconnected (a weak
/// cluster may legitimately be), `Some(0.0)` for singletons. The member
/// set comes from the context's NodeSet pool and every sweep of the
/// module's iFUB reuses the same traversal scratch.
pub fn strong_diameter_of_with_in<O: DistanceOracle>(
    g: &Graph,
    members: &[NodeId],
    oracle: &O,
    ctx: &mut CarveCtx,
) -> Option<f64> {
    let set = ctx.ws.take_set_from(g.n(), members.iter().copied());
    let out = strong_in(g, &set, members, oracle, &mut ctx.ws);
    ctx.ws.give_set(set);
    out
}

/// Exact weak diameter of a node set under `oracle`: the maximum
/// distance *in `G`* between any two members. Returns `None` if some
/// pair is disconnected even in `G`, `Some(0.0)` for singletons. Each
/// sweep of the module's iFUB runs over the *full* graph but stops as
/// soon as every member has been reached, so validating a small cluster
/// does not pay `O(m)` of the whole graph per source.
pub fn weak_diameter_of_with_in<O: DistanceOracle>(
    g: &Graph,
    members: &[NodeId],
    oracle: &O,
    ctx: &mut CarveCtx,
) -> Option<f64> {
    let set = ctx.ws.take_set_from(g.n(), members.iter().copied());
    let out = weak_in(g, &set, members, oracle, f64::INFINITY, &mut ctx.ws);
    ctx.ws.give_set(set);
    out
}

/// Strong then weak diameter of one member set under `oracle`, the weak
/// sweep bounded by the strong value (computed weak ≤ computed strong;
/// see the module docs).
fn strong_and_weak_in<O: DistanceOracle>(
    g: &Graph,
    members: &[NodeId],
    oracle: &O,
    ctx: &mut CarveCtx,
) -> (Option<f64>, Option<f64>) {
    let set = ctx.ws.take_set_from(g.n(), members.iter().copied());
    let strong = strong_in(g, &set, members, oracle, &mut ctx.ws);
    let at_most = strong.unwrap_or(f64::INFINITY);
    let weak = weak_in(g, &set, members, oracle, at_most, &mut ctx.ws);
    ctx.ws.give_set(set);
    (strong, weak)
}

/// Strong diameter of `members` (node set `set`): iFUB in `G[set]`.
fn strong_in<O: DistanceOracle>(
    g: &Graph,
    set: &NodeSet,
    members: &[NodeId],
    oracle: &O,
    ws: &mut TraversalWorkspace,
) -> Option<f64> {
    let view = g.view(set);
    let sweeper = Sweeper::new(oracle, &view, None);
    ifub(g, set, members, sweeper, f64::INFINITY, ws)
}

/// Weak diameter of `members` (node set `set`), known to be at most
/// `at_most`: iFUB in `G`, each sweep targeted on the members.
fn weak_in<O: DistanceOracle>(
    g: &Graph,
    set: &NodeSet,
    members: &[NodeId],
    oracle: &O,
    at_most: f64,
    ws: &mut TraversalWorkspace,
) -> Option<f64> {
    let view = g.full_view();
    let sweeper = Sweeper::new(oracle, &view, Some(set));
    ifub(g, set, members, sweeper, at_most, ws)
}

/// Exact diameter of `members` (whose node set is `set`) in the
/// sweeper's view: the largest distance its oracle computes over ordered
/// member pairs, `None` when some member is unreachable from another.
/// The run returns as soon as its lower bound reaches `at_most`, a known
/// upper bound on the diameter.
///
/// iFUB roots the sweep at a low-eccentricity member `r`, found as a
/// path-midpoint proxy of the double sweep's far endpoints `a`, `b`
/// (see [`central_idx`]) and refined once against the proxy's own
/// distance vector, then sweeps members by decreasing `d_r`. Every
/// unprocessed pair `u, v` with `d_r ≤ L` satisfies `d(u, v) ≤ d_r(u) +
/// d_r(v) ≤ 2L` (triangle inequality), so a member with `2·d_r ≤ lb` —
/// `2·d_r·(1 + m) ≤ lb` under rounding, see the module docs — cannot
/// realize a larger distance. In an exact metric each sweep from `s`
/// also bounds every member's eccentricity by `ecc(s) + d(s, v)`, and a
/// member whose bound `eu` is at most `lb` is certified as well. Only
/// members certified neither way are swept, 64 lanes at a time with
/// ties ball-packed by [`algo::ms_batch_order_in`] when the oracle
/// batches and more than one pass is left.
fn ifub<O: DistanceOracle, A: Adjacency>(
    g: &Graph,
    set: &NodeSet,
    members: &[NodeId],
    sweeper: Sweeper<'_, O, A>,
    at_most: f64,
    ws: &mut TraversalWorkspace,
) -> Option<f64> {
    match members.len() {
        0 => return None,
        1 => return Some(0.0),
        _ => {}
    }
    // The first sweep checks connectivity (`G` is undirected, so one
    // member reaching every member puts the set in one component).
    let d0 = sweeper.row(members, 0, ws);
    if d0.contains(&f64::INFINITY) {
        return None;
    }
    let slack = if sweeper.oracle.is_weighted_metric() {
        2.0 * sweeper.view.universe() as f64 * f64::EPSILON
    } else {
        0.0
    };
    let mut st = Bounds::new(members.len(), slack, at_most);
    let (Ok(lb) | Err(lb)) = sweep_members(&mut st, &sweeper, g, set, members, &d0, ws);
    if let Some(slot) = st.slot.take() {
        ws.give_aux_u32(slot);
    }
    Some(lb)
}

/// The sweeps of one [`ifub`] run over a connected member set, given the
/// first member's distance row `d0`: `Ok` with the diameter, or `Err`
/// with a lower bound that reached the run's `at_most` — the diameter
/// too.
fn sweep_members<O: DistanceOracle, A: Adjacency>(
    st: &mut Bounds,
    sweeper: &Sweeper<'_, O, A>,
    g: &Graph,
    set: &NodeSet,
    members: &[NodeId],
    d0: &[f64],
    ws: &mut TraversalWorkspace,
) -> Result<f64, f64> {
    st.fold(0, d0)?;
    // Double sweep: far member `a` of the first, far member `b` of `a`.
    let da = st.row(sweeper, members, argmax(d0), ws)?;
    let db = st.row(sweeper, members, argmax(&da), ws)?;
    // Root: path-midpoint proxy of `a`-`b`, refined once against its own
    // distance vector (two reference distances cannot separate an L1
    // anti-diagonal; three can — see `central_idx`). Keep whichever of
    // proxy and refinement has the smaller eccentricity.
    let n = members.len();
    let r1 = central_idx(n, |i| (da[i].max(db[i]), da[i].min(db[i])));
    let dr1 = st.row(sweeper, members, r1, ws)?;
    let r2 = central_idx(n, |i| {
        (da[i].max(db[i]).max(dr1[i]), da[i].min(db[i]).min(dr1[i]))
    });
    let dr = if r2 == r1 {
        dr1
    } else {
        let dr2 = st.row(sweeper, members, r2, ws)?;
        if max_of(&dr2) < max_of(&dr1) {
            dr2
        } else {
            dr1
        }
    };

    // Fringe: the members neither bound certifies, by decreasing d_r. The
    // open set only shrinks (`lb` grows, `eu` falls), so it is filtered
    // again after every pass and never re-sorted; when more than one pass
    // is left, a batched oracle gets ties ball-packed for lane locality
    // within each level band (the packing sweep never leaves the member
    // view).
    let mut open: Vec<u32> = (0..n as u32).filter(|&i| st.open(i, &dr)).collect();
    let lanes = if open.len() > 1 { sweeper.lanes(ws) } else { 1 };
    if open.len() > lanes {
        let rank: Vec<u32> = if lanes > 1 {
            let pos = algo::ms_batch_order_in(ws, &g.view(set), members);
            let mut rank = vec![0u32; n];
            for (p, &i) in pos.iter().enumerate() {
                rank[i as usize] = p as u32;
            }
            rank
        } else {
            (0..n as u32).collect()
        };
        // Distances are non-negative, so their bit patterns sort like
        // their values.
        open.sort_unstable_by_key(|&i| (Reverse(dr[i as usize].to_bits()), rank[i as usize]));
    }
    while !open.is_empty() {
        st.sweep(sweeper, &open[..open.len().min(lanes)], members, ws)?;
        open.retain(|&i| st.open(i, &dr));
    }
    // Reverse pairs (weighted metrics only): a processed source `v` bounds
    // `d(v, u)` by `lb`, but `d(u, v)` may round higher.
    if !st.from_done.is_empty() {
        loop {
            let pending: Vec<u32> = (0..n as u32)
                .filter(|&i| {
                    let i = i as usize;
                    !st.done[i] && st.from_done[i] * st.grow > st.lb
                })
                .collect();
            if pending.is_empty() {
                break;
            }
            for i in pending {
                st.sweep(sweeper, &[i], members, ws)?;
            }
        }
    }
    Ok(st.lb)
}

/// The traversals of one [`ifub`] run: strong sweeps over the member
/// view, or weak sweeps over the full graph that stop once every member
/// (`targets`) is reached.
struct Sweeper<'a, O, A> {
    oracle: &'a O,
    view: &'a A,
    targets: Option<&'a NodeSet>,
}

impl<'a, O: DistanceOracle, A: Adjacency> Sweeper<'a, O, A> {
    fn new(oracle: &'a O, view: &'a A, targets: Option<&'a NodeSet>) -> Self {
        Sweeper {
            oracle,
            view,
            targets,
        }
    }

    /// Sources per pass: a lane word when the oracle batches, else one.
    /// An empty batch asks without sweeping anything.
    fn lanes(&self, ws: &mut TraversalWorkspace) -> usize {
        if self.batch(&[], ws).is_some() {
            MS_LANES
        } else {
            1
        }
    }

    /// One batched pass (`None`: the oracle has no batched backend).
    fn batch<'w>(
        &self,
        sources: &[NodeId],
        ws: &'w mut TraversalWorkspace,
    ) -> Option<MsBfsRun<'w>> {
        #[cfg(test)]
        tally(sources.len(), 0);
        match self.targets {
            None => self.oracle.batch_distances_in(self.view, sources, ws),
            Some(t) => self.oracle.batch_distances_to_in(self.view, sources, t, ws),
        }
    }

    /// One single-source sweep from member `i`, as its distances to the
    /// members in member order (infinite when unreached).
    fn row(&self, members: &[NodeId], i: usize, ws: &mut TraversalWorkspace) -> Vec<f64> {
        #[cfg(test)]
        tally(1, 0);
        let run = match self.targets {
            None => self.oracle.distances_in(self.view, members[i], ws),
            Some(t) => self.oracle.distances_to_in(self.view, members[i], t, ws),
        };
        members.iter().map(|&v| run.dist(v)).collect()
    }
}

/// The running state of one [`ifub`] run.
struct Bounds {
    /// Largest eccentricity of a processed source.
    lb: f64,
    /// Known upper bound on the diameter: reaching it ends the run.
    at_most: f64,
    /// `1 + m`, the metric's rounding slack (exactly 1 for hops).
    grow: f64,
    /// Members swept as sources.
    done: Vec<bool>,
    /// Per member, the largest computed distance from a processed
    /// source; empty for exact metrics, where the reverse step never
    /// fires.
    from_done: Vec<f64>,
    /// Per member, the eccentricity bound `min ecc(s) + d(s, v)` over
    /// processed sources `s`; empty for rounded metrics, where it would
    /// need the slack too.
    eu: Vec<f64>,
    /// Node index to member index, taken from the workspace's buffer
    /// pool at the first batched pass (meaningful on members only).
    slot: Option<Vec<u32>>,
}

impl Bounds {
    fn new(members: usize, slack: f64, at_most: f64) -> Self {
        let (from_done, eu) = if slack > 0.0 {
            (vec![0.0; members], Vec::new())
        } else {
            (Vec::new(), vec![f64::INFINITY; members])
        };
        Bounds {
            lb: 0.0,
            at_most,
            grow: 1.0 + slack,
            done: vec![false; members],
            from_done,
            eu,
            slot: None,
        }
    }

    /// `Err(lb)` once `lb` has reached `at_most`.
    fn check(&self) -> Result<(), f64> {
        if self.lb >= self.at_most {
            Err(self.lb)
        } else {
            Ok(())
        }
    }

    /// Whether member `i` is unswept and certified by neither iFUB's
    /// level bound (root distances `dr`) nor its eccentricity bound.
    fn open(&self, i: u32, dr: &[f64]) -> bool {
        let i = i as usize;
        !self.done[i]
            && 2.0 * dr[i] * self.grow > self.lb
            && self.eu.get(i).is_none_or(|&eu| eu > self.lb)
    }

    /// Folds the distance row of processed member `i`.
    fn fold(&mut self, i: usize, row: &[f64]) -> Result<(), f64> {
        self.done[i] = true;
        let ecc = max_of(row);
        self.lb = self.lb.max(ecc);
        for (m, &d) in self.from_done.iter_mut().zip(row) {
            *m = m.max(d);
        }
        for (eu, &d) in self.eu.iter_mut().zip(row) {
            *eu = eu.min(ecc + d);
        }
        self.check()
    }

    /// Sweeps member `i` alone and returns its folded distance row.
    fn row<O: DistanceOracle, A: Adjacency>(
        &mut self,
        sweeper: &Sweeper<'_, O, A>,
        members: &[NodeId],
        i: usize,
        ws: &mut TraversalWorkspace,
    ) -> Result<Vec<f64>, f64> {
        let row = sweeper.row(members, i, ws);
        self.fold(i, &row)?;
        Ok(row)
    }

    /// Sweeps the members indexed by `chunk` in one pass: a plain sweep
    /// for a lone source, else one batch, whose discovery log bounds
    /// `eu`.
    fn sweep<O: DistanceOracle, A: Adjacency>(
        &mut self,
        sweeper: &Sweeper<'_, O, A>,
        chunk: &[u32],
        members: &[NodeId],
        ws: &mut TraversalWorkspace,
    ) -> Result<(), f64> {
        #[cfg(test)]
        tally(0, chunk.len());
        if let [i] = *chunk {
            return self.row(sweeper, members, i as usize, ws).map(drop);
        }
        let mut sources = [NodeId::new(0); MS_LANES];
        for (s, &i) in sources.iter_mut().zip(chunk) {
            *s = members[i as usize];
        }
        let universe = sweeper.view.universe();
        let slot = self.slot.get_or_insert_with(|| {
            // Contents are unspecified: only member entries are written,
            // and only members are read.
            let mut slot = ws.take_aux_u32();
            if slot.len() < universe {
                slot.resize(universe, 0);
            }
            for (i, &v) in members.iter().enumerate() {
                slot[v.index()] = i as u32;
            }
            slot
        });
        let run = sweeper
            .batch(&sources[..chunk.len()], ws)
            .expect("a multi-source pass runs only on a batched oracle");
        // Batched distances are hop levels: exact, so `eu` is live.
        debug_assert!(self.from_done.is_empty());
        // The pass's distinct eccentricities, ascending, with their lanes.
        let mut by_ecc: Vec<(u32, u64)> = Vec::new();
        for (lane, &i) in chunk.iter().enumerate() {
            self.done[i as usize] = true;
            // The lane's farthest member: its eccentricity in the member
            // view, or its last target level in `G`.
            let ecc = match sweeper.targets {
                None => run.eccentricity(lane).unwrap_or(0),
                Some(_) => run.last_target_level(lane),
            };
            self.lb = self.lb.max(f64::from(ecc));
            match by_ecc.iter_mut().find(|(e, _)| *e == ecc) {
                Some((_, lanes)) => *lanes |= 1 << lane,
                None => by_ecc.push((ecc, 1 << lane)),
            }
        }
        by_ecc.sort_unstable();
        // An entry (v, d, w) bounds eu(v) by d plus the smallest
        // eccentricity among the lanes w. Every lane reaches every member
        // of a connected set, so this is the minimum over all lanes.
        for (d, nodes, words) in run.levels() {
            for (&v, &w) in nodes.iter().zip(words) {
                if sweeper.targets.is_some_and(|t| !t.contains(v)) {
                    continue;
                }
                let ecc = by_ecc
                    .iter()
                    .find(|&&(_, lanes)| w & lanes != 0)
                    .expect("an entry's lanes belong to the pass")
                    .0;
                let eu = &mut self.eu[slot[v.index()] as usize];
                *eu = eu.min(f64::from(d + ecc));
            }
        }
        self.check()
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only census of the calling thread's iFUB sweeps, read by
    /// the work pins below: sources swept, sources swept after the root,
    /// and the widest pass.
    static TALLY: std::cell::Cell<(usize, usize, usize)> =
        const { std::cell::Cell::new((0, 0, 0)) };
}

/// Records a pass over `swept` sources, and `fringe` sources swept after
/// the root (an empty batch asks whether the oracle batches).
#[cfg(test)]
fn tally(swept: usize, fringe: usize) {
    TALLY.with(|t| {
        let (s, f, w) = t.get();
        t.set((s + swept, f + fringe, w.max(swept)));
    });
}

/// Largest entry.
fn max_of(d: &[f64]) -> f64 {
    d.iter().copied().fold(0.0, f64::max)
}

/// Index of the largest entry (first on ties).
fn argmax(d: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &v) in d.iter().enumerate().skip(1) {
        if v > d[best] {
            best = i;
        }
    }
    best
}

/// Index minimizing the `max` of the reference distances, breaking ties
/// toward the *largest* `min` (then the earliest index).
///
/// The primary key is the classic iFUB midpoint proxy. The tiebreak
/// matters on degenerate geometries: on an L1 grid every node of the
/// anti-diagonal between two opposite corners `a`, `b` has the same
/// `max(d_a, d_b)` — including the *other two corners*, which are
/// terrible roots. Maximizing the `min` pushes the choice away from the
/// reference points toward the geometric center, and a second pass with
/// the first root's own distances as a third reference separates what
/// two references cannot.
fn central_idx(n: usize, key: impl Fn(usize) -> (f64, f64)) -> usize {
    let mut best = 0usize;
    let (mut bmax, mut bmin) = key(0);
    for i in 1..n {
        let (mx, mn) = key(i);
        if mx < bmax || (mx == bmax && mn > bmin) {
            best = i;
            bmax = mx;
            bmin = mn;
        }
    }
    best
}

/// Exact strong diameter of a node set in hops: the diameter of
/// `G[members]`.
///
/// Returns `None` if the induced subgraph is disconnected (a weak cluster
/// may legitimately be), `Some(0)` for singletons.
pub fn strong_diameter_of_in(g: &Graph, members: &[NodeId], ctx: &mut CarveCtx) -> Option<u32> {
    strong_diameter_of_with_in(g, members, &HopOracle, ctx).map(|d| d as u32)
}

/// Exact weak diameter of a node set in hops: the maximum distance *in
/// `G`* between any two members. Returns `None` if some pair is
/// disconnected even in `G`, `Some(0)` for singletons.
pub fn weak_diameter_of_in(g: &Graph, members: &[NodeId], ctx: &mut CarveCtx) -> Option<u32> {
    weak_diameter_of_with_in(g, members, &HopOracle, ctx).map(|d| d as u32)
}

/// Approximate (HyperBall) strong-diameter estimate of `G[members]`,
/// plus the estimator's count of the cluster it swept.
///
/// Connectivity is still checked **exactly** (one BFS in the induced
/// view — the cheap part; the `O(Σ|C| · m)` cost of exact validation is
/// the per-member diameter sweeps). For connected clusters the returned
/// hop-diameter estimate is *one-sided*: never larger than the exact
/// strong diameter (register collisions only stop the sketch early).
/// The count estimate approximates `|members|` with relative standard
/// error `hb.params().rel_std_error()` — since `|members|` is known
/// exactly, the caller can use it to check the estimator itself.
///
/// Returns `Ok(None)` if the induced subgraph is disconnected
/// (mirroring [`strong_diameter_of_in`]).
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips during the
/// sweep (checked once per HyperBall round); the context and estimator
/// both stay reusable.
pub fn approx_strong_diameter_of_in(
    g: &Graph,
    members: &[NodeId],
    hb: &mut HyperBall,
    ctx: &mut CarveCtx,
) -> Result<Option<(u32, f64)>, Cancelled> {
    if members.is_empty() {
        return Ok(None);
    }
    let set = ctx.ws.take_set_from(g.n(), members.iter().copied());
    let view = g.view(&set);
    let connected = algo::bfs_in(&mut ctx.ws, &view, [members[0]]).reached_count() == members.len();
    let out = if connected {
        hb.sweep_in(&view, ctx.deadline())
            .map(|s| Some((s.seed_diameter_est, s.max_seed_count)))
    } else {
        Ok(None)
    };
    ctx.ws.give_set(set);
    out
}

/// Approximate (HyperBall) weak-diameter estimate of a member set: the
/// members seed sketches that spread over the *full* graph, so the last
/// round a member's sketch changes bounds its distance to the farthest
/// member from below. One-sided like [`approx_strong_diameter_of_in`].
///
/// Member-pair reachability is checked exactly (one full-graph BFS,
/// early-terminating on the member set); returns `Ok(None)` if some
/// pair is disconnected in `G` (mirroring [`weak_diameter_of_in`]).
/// Each sweep iterates the whole graph, so this is meant for the rare
/// internally disconnected cluster, not as the bulk path.
///
/// # Errors
///
/// [`Cancelled`] when the context's armed deadline trips during the
/// sweep (checked once per HyperBall round); the context and estimator
/// both stay reusable.
pub fn approx_weak_diameter_of_in(
    g: &Graph,
    members: &[NodeId],
    hb: &mut HyperBall,
    ctx: &mut CarveCtx,
) -> Result<Option<u32>, Cancelled> {
    if members.is_empty() {
        return Ok(None);
    }
    let targets = ctx.ws.take_set_from(g.n(), members.iter().copied());
    let view = g.full_view();
    let reach = algo::bfs_to_in(&mut ctx.ws, &view, [members[0]], &targets);
    let connected = members.iter().all(|&u| reach.reached(u));
    let out = if connected {
        hb.sweep_seeded_in(&view, &targets, ctx.deadline())
            .map(|s| Some(s.seed_diameter_est))
    } else {
        Ok(None)
    };
    ctx.ws.give_set(targets);
    out
}

/// Largest per-cluster diameters over a cluster list, in every metric
/// the validators report: the one fold they share.
/// A `None` field stays `None` (some cluster has no diameter there); the
/// weighted fields are `None` from the start on unweighted graphs.
#[derive(Debug)]
pub(crate) struct DiameterFold {
    pub(crate) strong: Option<u32>,
    pub(crate) weak: Option<u32>,
    pub(crate) weighted_strong: Option<f64>,
    pub(crate) weighted_weak: Option<f64>,
}

impl DiameterFold {
    pub(crate) fn new(g: &Graph) -> Self {
        let weighted = g.is_weighted().then_some(0.0);
        DiameterFold {
            strong: Some(0),
            weak: Some(0),
            weighted_strong: weighted,
            weighted_weak: weighted,
        }
    }

    /// Folds one cluster's exact diameters, hop and (on weighted graphs)
    /// weighted, each metric's strong before its weak so the weak sweep
    /// is bounded by the strong value. Returns the cluster's hop
    /// `(strong, weak)` diameters for the validators' violation lists.
    /// The weighted values are `None` only for the connectivity reasons
    /// the hop pair already shows (reachability is metric-independent).
    pub(crate) fn add(
        &mut self,
        g: &Graph,
        members: &[NodeId],
        ctx: &mut CarveCtx,
    ) -> (Option<u32>, Option<u32>) {
        let (strong, weak) = strong_and_weak_in(g, members, &HopOracle, ctx);
        let (strong, weak) = (strong.map(|d| d as u32), weak.map(|d| d as u32));
        self.strong = fold_max(self.strong, strong, u32::max);
        self.weak = fold_max(self.weak, weak, u32::max);
        if g.is_weighted() {
            let (w_strong, w_weak) = strong_and_weak_in(g, members, &WeightedOracle, ctx);
            self.weighted_strong = fold_max(self.weighted_strong, w_strong, f64::max);
            self.weighted_weak = fold_max(self.weighted_weak, w_weak, f64::max);
        }
        (strong, weak)
    }
}

fn fold_max<T>(acc: Option<T>, x: Option<T>, max: fn(T, T) -> T) -> Option<T> {
    match (acc, x) {
        (Some(a), Some(b)) => Some(max(a, b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnd_graph::gen;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    fn strong(g: &Graph, members: &[NodeId]) -> Option<u32> {
        strong_diameter_of_in(g, members, &mut CarveCtx::new())
    }

    fn weak(g: &Graph, members: &[NodeId]) -> Option<u32> {
        weak_diameter_of_in(g, members, &mut CarveCtx::new())
    }

    #[test]
    fn strong_diameter_of_path_segment() {
        let g = gen::path(10);
        assert_eq!(strong(&g, &ids(&[2, 3, 4, 5])), Some(3));
        assert_eq!(strong(&g, &ids(&[2])), Some(0));
        // {2, 4} is disconnected inside the cluster but distance 2 in G.
        assert_eq!(strong(&g, &ids(&[2, 4])), None);
        assert_eq!(weak(&g, &ids(&[2, 4])), Some(2));
    }

    #[test]
    fn weak_le_strong() {
        let g = gen::grid(5, 5);
        let members = ids(&[0, 1, 2, 5, 6, 7]);
        let s = strong(&g, &members).unwrap();
        let w = weak(&g, &members).unwrap();
        assert!(w <= s);
    }

    #[test]
    fn empty_members() {
        let g = gen::path(3);
        assert_eq!(strong(&g, &[]), None);
        assert_eq!(weak(&g, &[]), None);
    }

    #[test]
    fn weighted_diameters_follow_the_weights() {
        // 0 -4.0- 1 -0.5- 2: hop diameter 2, weighted diameter 4.5.
        let g = sdnd_graph::Graph::from_weighted_edges(3, [(0, 1, 4.0), (1, 2, 0.5)]).unwrap();
        let members = ids(&[0, 1, 2]);
        let ctx = &mut CarveCtx::new();
        let w = &WeightedOracle;
        assert_eq!(strong(&g, &members), Some(2));
        assert_eq!(strong_diameter_of_with_in(&g, &members, w, ctx), Some(4.5));
        assert_eq!(weak_diameter_of_with_in(&g, &members, w, ctx), Some(4.5));
        // A member set disconnected inside the cluster has no strong
        // diameter, but a weak one.
        assert_eq!(strong_diameter_of_with_in(&g, &ids(&[0, 2]), w, ctx), None);
        assert_eq!(
            weak_diameter_of_with_in(&g, &ids(&[0, 2]), w, ctx),
            Some(4.5)
        );
    }

    #[test]
    fn oracle_variants_agree_with_hop_functions() {
        let g = gen::gnp_connected(30, 0.12, 5);
        let members: Vec<NodeId> = (0..12).map(NodeId::new).collect();
        let ctx = &mut CarveCtx::new();
        assert_eq!(
            strong(&g, &members).map(f64::from),
            strong_diameter_of_with_in(&g, &members, &HopOracle, ctx)
        );
        assert_eq!(
            weak(&g, &members).map(f64::from),
            weak_diameter_of_with_in(&g, &members, &HopOracle, ctx)
        );
    }

    /// The whole grid takes the first sweep, the double sweep, its roots
    /// and a lone fringe member: at most six sources per diameter, no
    /// pass wider than four lanes (the padded fringe swept one 64-lane
    /// pass here).
    #[test]
    fn whole_grid_sweeps_a_handful_of_sources() {
        let g = gen::grid(102, 102);
        let members: Vec<NodeId> = g.nodes().collect();
        TALLY.take();
        assert_eq!(strong(&g, &members), Some(202));
        let strong_tally = TALLY.take();
        assert_eq!(weak(&g, &members), Some(202));
        let weak_tally = TALLY.take();
        for (what, (sources, _, widest)) in [("strong", strong_tally), ("weak", weak_tally)] {
            assert!(
                sources <= 6 && widest <= 4,
                "{what}: {sources} sources, {widest} wide"
            );
        }
    }

    /// On a flat gnp graph (mean degree 8) the eccentricity bounds
    /// certify most of the members the level bound leaves: at most 600
    /// sources are swept after the root (the level bound alone swept
    /// 1,216 here).
    #[test]
    fn whole_gnp_fringe_is_mostly_certified() {
        let g = gen::gnp_connected(2000, 8.0 / 2000.0, 1);
        let members: Vec<NodeId> = g.nodes().collect();
        TALLY.take();
        assert_eq!(strong(&g, &members), Some(7));
        let (_, fringe, _) = TALLY.take();
        assert!(fringe <= 600, "{fringe} fringe sources");
    }

    #[test]
    fn approx_diameters_are_one_sided_and_detect_disconnection() {
        use sdnd_graph::algo::{HyperBall, HyperBallParams};
        let g = gen::grid(6, 6);
        let members: Vec<NodeId> = (0..12).map(NodeId::new).collect(); // rows 0-1
        let mut hb = HyperBall::new(HyperBallParams::default());
        let mut ctx = CarveCtx::new();
        let exact_strong = strong(&g, &members).unwrap();
        let exact_weak = weak(&g, &members).unwrap();
        let (est, count) = approx_strong_diameter_of_in(&g, &members, &mut hb, &mut ctx)
            .unwrap()
            .unwrap();
        assert!(est <= exact_strong, "est {est} > exact {exact_strong}");
        let band = hb.params().error_band();
        let rel = (count - members.len() as f64).abs() / members.len() as f64;
        assert!(rel <= band, "count {count} off by {rel} (band {band})");
        let west = approx_weak_diameter_of_in(&g, &members, &mut hb, &mut ctx)
            .unwrap()
            .unwrap();
        assert!(west <= exact_weak);
        // {0, 2} is disconnected inside the cluster but connected in G.
        let split = ids(&[0, 2]);
        assert_eq!(
            approx_strong_diameter_of_in(&g, &split, &mut hb, &mut ctx),
            Ok(None)
        );
        assert_eq!(
            approx_weak_diameter_of_in(&g, &split, &mut hb, &mut ctx),
            Ok(Some(2)),
            "two seeds are collision-free: exact"
        );
        // Disconnected even in G: both report None.
        let two = sdnd_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            approx_weak_diameter_of_in(&two, &ids(&[0, 2]), &mut hb, &mut ctx),
            Ok(None)
        );
        assert_eq!(
            approx_strong_diameter_of_in(&two, &[], &mut hb, &mut ctx),
            Ok(None)
        );
    }
}
