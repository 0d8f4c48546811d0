//! Cluster diameters: the quantities the validators (and through their
//! reports, the experiment tables) measure.
//!
//! Every diameter is computed through a
//! [`DistanceOracle`]: the `u32` functions fix the
//! hop metric (and are exact — hop distances are integers embedded in
//! `f64`), the `_with` variants take any oracle, and the
//! `weighted_*_diameter_of` helpers fix the Dijkstra metric for weighted
//! graphs.
//!
//! # One exact iFUB for every diameter
//!
//! Strong and weak diameters, in the hop and the weighted metric, all
//! come from one iFUB sweep (Crescenzi et al., "On computing the
//! diameter of real-world graphs"): 64 sources per MS-BFS pass when the
//! oracle has a batched backend ([`DistanceOracle::batch_distances_in`],
//! the hop metric), one Dijkstra per source otherwise. Strong sweeps run
//! in the member view `G[C]`; weak sweeps run in `G` and stop once every
//! member is reached. The result is the largest distance the oracle
//! computes over ordered member pairs, so it is bit-identical to one
//! sweep per member.
//!
//! iFUB's cut-off needs nothing but the triangle inequality, and that
//! holds for exact distances. Dijkstra's computed distance is the
//! minimum, over paths, of the path's left-to-right rounded weight sum
//! (`fl(d + w)` is monotone in `d`), and such a sum of at most `n`
//! non-negative terms lies within a factor of about `1 ± n·ε/2` of the
//! exact sum. A weighted sweep therefore widens its bounds by `1 + m`
//! with `m = 2·n·ε` (`n` = the view's universe): the fringe stops only
//! once `lb ≥ 2L·(1 + m)`, and afterwards every unprocessed member whose
//! largest computed distance `d` from a processed source satisfies
//! `d·(1 + m) > lb` is swept too, until none is left — the reverse
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
    self, DistanceMapIn, DistanceOracle, HopOracle, HyperBall, MsBfsRun, TraversalWorkspace,
    WeightedOracle, MS_LANES, UNREACHED,
};
use sdnd_graph::{Adjacency, Cancelled, Graph, NodeId, NodeSet};

/// Exact strong diameter of a node set under `oracle`: the diameter of
/// `G[members]` in the oracle's metric.
///
/// Returns `None` if the induced subgraph is disconnected (a weak
/// cluster may legitimately be), `Some(0.0)` for singletons. Thin
/// wrapper over [`strong_diameter_of_with_in`] with a throwaway context.
pub fn strong_diameter_of_with<O: DistanceOracle>(
    g: &Graph,
    members: &[NodeId],
    oracle: &O,
) -> Option<f64> {
    strong_diameter_of_with_in(g, members, oracle, &mut CarveCtx::new())
}

/// [`strong_diameter_of_with`] with a caller-held context: the member
/// set comes from the workspace's NodeSet pool and every sweep of the
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
/// pair is disconnected even in `G`, `Some(0.0)` for singletons. Thin
/// wrapper over [`weak_diameter_of_with_in`] with a throwaway context.
pub fn weak_diameter_of_with<O: DistanceOracle>(
    g: &Graph,
    members: &[NodeId],
    oracle: &O,
) -> Option<f64> {
    weak_diameter_of_with_in(g, members, oracle, &mut CarveCtx::new())
}

/// [`weak_diameter_of_with`] with a caller-held context. Each sweep of
/// the module's iFUB runs over the *full* graph but stops as soon as
/// every member has been reached, so validating a small cluster does not
/// pay `O(m)` of the whole graph per source.
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
/// d_r(v) ≤ 2L` (triangle inequality), so once the running maximum `lb`
/// of processed eccentricities reaches `2L` — `2L·(1 + m)` under
/// rounding, see the module docs — the remaining pairs cannot beat it.
/// On diameter-realizing geometries (grids, tori) the double sweep alone
/// reaches the bound; adversarial instances degrade to one sweep per
/// member, 64 lanes at a time with ties ball-packed by
/// [`algo::ms_batch_order_in`] when the oracle batches.
fn ifub<O: DistanceOracle, A: Adjacency>(
    g: &Graph,
    set: &NodeSet,
    members: &[NodeId],
    mut sweeper: Sweeper<'_, O, A>,
    at_most: f64,
    ws: &mut TraversalWorkspace,
) -> Option<f64> {
    match members.len() {
        0 => return None,
        1 => return Some(0.0),
        _ => {}
    }
    // The first sweep checks connectivity (`G` is undirected, so one
    // member reaching every member puts the set in one component) and
    // finds out whether the oracle batches.
    let d0 = match sweeper.batch(&members[..1], ws) {
        Some(run) => run.row(members, 0),
        None => {
            sweeper.batched = false;
            sweeper.single(members[0], ws).row(members, 0)
        }
    };
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

    // Fringe: unprocessed members by decreasing d_r; a batched oracle
    // gets ties ball-packed for lane locality within each level band
    // (the packing sweep never leaves the member view). When the root's
    // own eccentricity already certifies `lb` — the common case on
    // grid-like clusters — the fringe and its packing sweep are skipped.
    let lanes = sweeper.lanes();
    if st.lb < 2.0 * max_of(&dr) * st.grow {
        let rank: Vec<u32> = if sweeper.batched {
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
        let mut idx: Vec<u32> = (0..n as u32).filter(|&i| !st.done[i as usize]).collect();
        idx.sort_unstable_by_key(|&i| (Reverse(dr[i as usize].to_bits()), rank[i as usize]));
        for chunk in idx.chunks(lanes) {
            if st.lb >= 2.0 * dr[chunk[0] as usize] * st.grow {
                break;
            }
            st.sweep(sweeper, chunk, members, ws)?;
        }
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
            for chunk in pending.chunks(lanes) {
                st.sweep(sweeper, chunk, members, ws)?;
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
    /// Whether the oracle has a batched backend (assumed until the first
    /// sweep finds out).
    batched: bool,
}

impl<'a, O: DistanceOracle, A: Adjacency> Sweeper<'a, O, A> {
    fn new(oracle: &'a O, view: &'a A, targets: Option<&'a NodeSet>) -> Self {
        Sweeper {
            oracle,
            view,
            targets,
            batched: true,
        }
    }

    /// Sources per pass: a lane word when batched, else one.
    fn lanes(&self) -> usize {
        if self.batched {
            MS_LANES
        } else {
            1
        }
    }

    /// One batched pass (`None`: the oracle has no batched backend).
    fn batch<'w>(&self, sources: &[NodeId], ws: &'w mut TraversalWorkspace) -> Option<Run<'w>> {
        match self.targets {
            None => self.oracle.batch_distances_in(self.view, sources, ws),
            Some(t) => self.oracle.batch_distances_to_in(self.view, sources, t, ws),
        }
        .map(|run| Run::Batch(run, self.targets.is_some()))
    }

    /// One single-source sweep.
    fn single<'w>(&self, source: NodeId, ws: &'w mut TraversalWorkspace) -> Run<'w> {
        Run::Single(match self.targets {
            None => self.oracle.distances_in(self.view, source, ws),
            Some(t) => self.oracle.distances_to_in(self.view, source, t, ws),
        })
    }

    /// One pass over at most [`lanes`](Self::lanes) sources.
    fn run<'w>(&self, sources: &[NodeId], ws: &'w mut TraversalWorkspace) -> Run<'w> {
        if self.batched {
            self.batch(sources, ws)
                .expect("the batched backend answered the first sweep")
        } else {
            debug_assert_eq!(sources.len(), 1);
            self.single(sources[0], ws)
        }
    }
}

/// One finished pass of a [`Sweeper`].
enum Run<'w> {
    /// An MS-BFS batch; `true` when its lanes were targeted on the members.
    Batch(MsBfsRun<'w>, bool),
    /// One single-source sweep.
    Single(DistanceMapIn<'w>),
}

impl Run<'_> {
    /// Distance from lane `lane`'s source to member `v` (infinite when
    /// unreached).
    fn dist(&self, v: NodeId, lane: usize) -> f64 {
        match self {
            Run::Batch(run, _) => match run.dist(v, lane) {
                UNREACHED => f64::INFINITY,
                d => f64::from(d),
            },
            Run::Single(run) => run.dist(v),
        }
    }

    /// Lane `lane`'s distances to `members`, in member order.
    fn row(&self, members: &[NodeId], lane: usize) -> Vec<f64> {
        match self {
            Run::Batch(run, _) => members
                .iter()
                .map(|&v| match run.dist(v, lane) {
                    UNREACHED => f64::INFINITY,
                    d => f64::from(d),
                })
                .collect(),
            Run::Single(run) => members.iter().map(|&v| run.dist(v)).collect(),
        }
    }

    /// Lane `lane`'s largest member distance, read in `O(1)`: the
    /// eccentricity in the member view, or the last-target level of a
    /// targeted lane (a targeted single sweep settles its last target
    /// last).
    fn ecc(&self, lane: usize) -> f64 {
        match *self {
            Run::Batch(run, false) => f64::from(run.eccentricity(lane).unwrap_or(0)),
            Run::Batch(run, true) => f64::from(run.last_target_level(lane)),
            Run::Single(run) => run.eccentricity().unwrap_or(0.0),
        }
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
}

impl Bounds {
    fn new(members: usize, slack: f64, at_most: f64) -> Self {
        Bounds {
            lb: 0.0,
            at_most,
            grow: 1.0 + slack,
            done: vec![false; members],
            from_done: if slack > 0.0 {
                vec![0.0; members]
            } else {
                Vec::new()
            },
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

    /// Folds the distance row of processed member `i`.
    fn fold(&mut self, i: usize, row: &[f64]) -> Result<(), f64> {
        self.done[i] = true;
        self.lb = self.lb.max(max_of(row));
        for (m, &d) in self.from_done.iter_mut().zip(row) {
            *m = m.max(d);
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
        let row = sweeper.run(&[members[i]], ws).row(members, 0);
        self.fold(i, &row)?;
        Ok(row)
    }

    /// Sweeps the members indexed by `chunk` in one pass.
    fn sweep<O: DistanceOracle, A: Adjacency>(
        &mut self,
        sweeper: &Sweeper<'_, O, A>,
        chunk: &[u32],
        members: &[NodeId],
        ws: &mut TraversalWorkspace,
    ) -> Result<(), f64> {
        let mut sources = [NodeId::new(0); MS_LANES];
        for (s, &i) in sources.iter_mut().zip(chunk) {
            *s = members[i as usize];
        }
        let run = sweeper.run(&sources[..chunk.len()], ws);
        for (lane, &i) in chunk.iter().enumerate() {
            self.done[i as usize] = true;
            if self.from_done.is_empty() {
                self.lb = self.lb.max(run.ecc(lane));
            } else {
                for (m, &v) in self.from_done.iter_mut().zip(members) {
                    let d = run.dist(v, lane);
                    self.lb = self.lb.max(d);
                    *m = m.max(d);
                }
            }
        }
        self.check()
    }
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
pub fn strong_diameter_of(g: &Graph, members: &[NodeId]) -> Option<u32> {
    strong_diameter_of_with(g, members, &HopOracle).map(|d| d as u32)
}

/// [`strong_diameter_of`] with a caller-held context.
pub fn strong_diameter_of_in(g: &Graph, members: &[NodeId], ctx: &mut CarveCtx) -> Option<u32> {
    strong_diameter_of_with_in(g, members, &HopOracle, ctx).map(|d| d as u32)
}

/// Exact weak diameter of a node set in hops: the maximum distance *in
/// `G`* between any two members. Returns `None` if some pair is
/// disconnected even in `G`, `Some(0)` for singletons.
pub fn weak_diameter_of(g: &Graph, members: &[NodeId]) -> Option<u32> {
    weak_diameter_of_with(g, members, &HopOracle).map(|d| d as u32)
}

/// [`weak_diameter_of`] with a caller-held context.
pub fn weak_diameter_of_in(g: &Graph, members: &[NodeId], ctx: &mut CarveCtx) -> Option<u32> {
    weak_diameter_of_with_in(g, members, &HopOracle, ctx).map(|d| d as u32)
}

/// Exact strong diameter in the weighted metric (`None` if disconnected;
/// meaningful on weighted graphs, where it is the quantity the weighted
/// experiment bins report).
pub fn weighted_strong_diameter_of(g: &Graph, members: &[NodeId]) -> Option<f64> {
    strong_diameter_of_with(g, members, &WeightedOracle)
}

/// [`weighted_strong_diameter_of`] with a caller-held context.
pub fn weighted_strong_diameter_of_in(
    g: &Graph,
    members: &[NodeId],
    ctx: &mut CarveCtx,
) -> Option<f64> {
    strong_diameter_of_with_in(g, members, &WeightedOracle, ctx)
}

/// Exact weak diameter in the weighted metric (`None` if some pair is
/// disconnected in `G`).
pub fn weighted_weak_diameter_of(g: &Graph, members: &[NodeId]) -> Option<f64> {
    weak_diameter_of_with(g, members, &WeightedOracle)
}

/// [`weighted_weak_diameter_of`] with a caller-held context.
pub fn weighted_weak_diameter_of_in(
    g: &Graph,
    members: &[NodeId],
    ctx: &mut CarveCtx,
) -> Option<f64> {
    weak_diameter_of_with_in(g, members, &WeightedOracle, ctx)
}

/// Cheap strong-diameter estimate via two BFS sweeps inside the cluster.
/// A lower bound on the exact strong diameter; `None` if disconnected.
pub fn strong_diameter_two_sweep(g: &Graph, members: &[NodeId]) -> Option<u32> {
    strong_diameter_two_sweep_in(g, members, &mut CarveCtx::new())
}

/// [`strong_diameter_two_sweep`] with a caller-held context (pooled
/// member set, workspace-backed sweeps).
pub fn strong_diameter_two_sweep_in(
    g: &Graph,
    members: &[NodeId],
    ctx: &mut CarveCtx,
) -> Option<u32> {
    if members.is_empty() {
        return None;
    }
    let set = ctx.ws.take_set_from(g.n(), members.iter().copied());
    let view = g.view(&set);
    let first = algo::bfs_in(&mut ctx.ws, &view, [members[0]]);
    let ecc = if first.reached_count() != members.len() {
        None
    } else {
        let far = *first.order().last().expect("nonempty BFS");
        algo::bfs_in(&mut ctx.ws, &view, [far]).eccentricity()
    };
    ctx.ws.give_set(set);
    ecc
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

    #[test]
    fn strong_diameter_of_path_segment() {
        let g = gen::path(10);
        assert_eq!(strong_diameter_of(&g, &ids(&[2, 3, 4, 5])), Some(3));
        assert_eq!(strong_diameter_of(&g, &ids(&[2])), Some(0));
        // {2, 4} is disconnected inside the cluster but distance 2 in G.
        assert_eq!(strong_diameter_of(&g, &ids(&[2, 4])), None);
        assert_eq!(weak_diameter_of(&g, &ids(&[2, 4])), Some(2));
    }

    #[test]
    fn weak_le_strong() {
        let g = gen::grid(5, 5);
        let members = ids(&[0, 1, 2, 5, 6, 7]);
        let s = strong_diameter_of(&g, &members).unwrap();
        let w = weak_diameter_of(&g, &members).unwrap();
        assert!(w <= s);
    }

    #[test]
    fn two_sweep_lower_bounds_exact() {
        let g = gen::gnp_connected(40, 0.08, 2);
        let members: Vec<NodeId> = (0..20).map(NodeId::new).collect();
        if let Some(exact) = strong_diameter_of(&g, &members) {
            let ts = strong_diameter_two_sweep(&g, &members).unwrap();
            assert!(ts <= exact);
        }
    }

    #[test]
    fn empty_members() {
        let g = gen::path(3);
        assert_eq!(strong_diameter_of(&g, &[]), None);
        assert_eq!(weak_diameter_of(&g, &[]), None);
    }

    #[test]
    fn weighted_diameters_follow_the_weights() {
        // 0 -4.0- 1 -0.5- 2: hop diameter 2, weighted diameter 4.5.
        let g = sdnd_graph::Graph::from_weighted_edges(3, [(0, 1, 4.0), (1, 2, 0.5)]).unwrap();
        let members = ids(&[0, 1, 2]);
        assert_eq!(strong_diameter_of(&g, &members), Some(2));
        assert_eq!(weighted_strong_diameter_of(&g, &members), Some(4.5));
        assert_eq!(weighted_weak_diameter_of(&g, &members), Some(4.5));
        // Disconnected member sets report None in both metrics.
        assert_eq!(weighted_strong_diameter_of(&g, &ids(&[0, 2])), None);
        assert_eq!(weighted_weak_diameter_of(&g, &ids(&[0, 2])), Some(4.5));
    }

    #[test]
    fn oracle_variants_agree_with_hop_functions() {
        use sdnd_graph::algo::HopOracle;
        let g = gen::gnp_connected(30, 0.12, 5);
        let members: Vec<NodeId> = (0..12).map(NodeId::new).collect();
        assert_eq!(
            strong_diameter_of(&g, &members).map(f64::from),
            strong_diameter_of_with(&g, &members, &HopOracle)
        );
        assert_eq!(
            weak_diameter_of(&g, &members).map(f64::from),
            weak_diameter_of_with(&g, &members, &HopOracle)
        );
    }

    #[test]
    fn approx_diameters_are_one_sided_and_detect_disconnection() {
        use sdnd_graph::algo::{HyperBall, HyperBallParams};
        let g = gen::grid(6, 6);
        let members: Vec<NodeId> = (0..12).map(NodeId::new).collect(); // rows 0-1
        let mut hb = HyperBall::new(HyperBallParams::default());
        let mut ctx = CarveCtx::new();
        let exact_strong = strong_diameter_of(&g, &members).unwrap();
        let exact_weak = weak_diameter_of(&g, &members).unwrap();
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
