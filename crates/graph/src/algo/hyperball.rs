//! HyperBall: HyperLogLog neighborhood-function estimation.
//!
//! Boldi–Rosa–Vigna's HyperBall keeps one HyperLogLog sketch of `2^p`
//! 6-bit registers per node and iterates the rule
//! `M'[v] = max(M[v], max_{u ∈ N(v)} M[u])` (bytewise max = sketch
//! union). After `t` rounds, node `v`'s sketch describes the set of
//! *seeds* within distance `t` of `v`, so
//!
//! - the count estimate at `v` approximates `|B_t(v) ∩ seeds|` with
//!   relative standard error `≈ 1.04 / √(2^p)`, and
//! - the last round in which `v`'s sketch changed is a **one-sided**
//!   eccentricity estimate: it never exceeds the true distance from `v`
//!   to the farthest reachable seed (register collisions can only make
//!   the sketch stabilize *early*).
//!
//! Those two facts are exactly what the approximate validation tier in
//! `sdnd-clustering` consumes: seeding every node of an induced cluster
//! view bounds the strong diameter from below, seeding the cluster
//! members over the full graph bounds the weak diameter, and comparing
//! the final count estimate against the exactly-known cluster size gives
//! a free in-band/out-of-band check of the estimator itself.
//!
//! The sweep is synchronous (double-buffered): all round-`t` merges read
//! the round-`t−1` registers, so "rounds" are exactly BFS layers. Work
//! per round is limited to nodes with a changed neighbor, and all
//! buffers are reused across sweeps (cleaned up per-participant, so a
//! sweep over a small cluster never pays for the whole universe).

use crate::{Adjacency, Cancelled, Deadline, NodeId, NodeSet};

/// Configuration for a [`HyperBall`] estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperBallParams {
    /// Register-count exponent `p`: `2^p` registers (= bytes) per node,
    /// in `4..=12`.
    pub precision: u8,
    /// Hash seed; two estimators with the same seed are deterministic
    /// replicas.
    pub seed: u64,
    /// Width of the acceptance band in standard errors (`2.0` ≈ 95%).
    pub sigmas: f64,
}

impl HyperBallParams {
    /// Parameters with `2^precision` registers per node and default
    /// seed/band.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `4..=12`.
    pub fn new(precision: u8) -> Self {
        assert!(
            (4..=12).contains(&precision),
            "precision must be in 4..=12, got {precision}"
        );
        HyperBallParams {
            precision,
            seed: 0x9e37_79b9_7f4a_7c15,
            sigmas: 2.0,
        }
    }

    /// Number of registers per node.
    pub fn registers(&self) -> usize {
        1 << self.precision
    }

    /// The HyperLogLog relative standard error, `1.04 / √(2^p)`.
    pub fn rel_std_error(&self) -> f64 {
        1.04 / (self.registers() as f64).sqrt()
    }

    /// Relative half-width of the acceptance band:
    /// `sigmas · rel_std_error`.
    pub fn error_band(&self) -> f64 {
        self.sigmas * self.rel_std_error()
    }
}

impl Default for HyperBallParams {
    /// `p = 6` (64 registers, ≈13% standard error, 64 bytes per node)
    /// with a 2σ acceptance band — the validation-tier sweet spot.
    fn default() -> Self {
        HyperBallParams::new(6)
    }
}

/// What a [`HyperBall`] sweep learned, over the nodes that seeded it.
///
/// Distance-valued fields are one-sided: they never exceed the exact
/// quantity (see the module docs). Count-valued fields carry the usual
/// HyperLogLog error ([`HyperBallParams::rel_std_error`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperBallSummary {
    /// Nodes the sweep iterated over (the view size).
    pub participants: usize,
    /// Seeds that were inside the view.
    pub seeds: usize,
    /// Rounds until every sketch stabilized.
    pub iterations: u32,
    /// `max_s last_change(s)` over seeds: a lower bound on the largest
    /// seed-to-seed distance (the diameter when every node seeds).
    pub seed_diameter_est: u32,
    /// `min_s last_change(s)` over seeds: a lower bound on the smallest
    /// seed eccentricity (the radius when every node seeds).
    pub seed_radius_est: u32,
    /// Smallest final count estimate over the seeds.
    pub min_seed_count: f64,
    /// Largest final count estimate over the seeds.
    pub max_seed_count: f64,
}

impl HyperBallSummary {
    const EMPTY: HyperBallSummary = HyperBallSummary {
        participants: 0,
        seeds: 0,
        iterations: 0,
        seed_diameter_est: 0,
        seed_radius_est: 0,
        min_seed_count: 0.0,
        max_seed_count: 0.0,
    };
}

/// A reusable HyperBall estimator: all register and scratch buffers are
/// kept across sweeps, so amortized sweeps allocate nothing.
#[derive(Debug, Clone)]
pub struct HyperBall {
    params: HyperBallParams,
    /// `words_per_node` u64 words per node, 8 registers per word.
    regs: Vec<u64>,
    /// Double buffer for the synchronous round update.
    pending: Vec<u64>,
    /// Last round in which the node's sketch changed.
    last_change: Vec<u32>,
    /// Changed in the previous round / in the round being built.
    changed: Vec<bool>,
    changed_next: Vec<bool>,
    /// Nodes touched by the current sweep (cleanup list).
    participants: Vec<NodeId>,
}

impl HyperBall {
    /// An estimator with the given parameters and empty buffers.
    ///
    /// # Panics
    ///
    /// Panics if `params.precision` is outside `4..=12` (the fields are
    /// public, so a struct literal can bypass [`HyperBallParams::new`]).
    pub fn new(params: HyperBallParams) -> Self {
        assert!(
            (4..=12).contains(&params.precision),
            "precision must be in 4..=12, got {}",
            params.precision
        );
        HyperBall {
            params,
            regs: Vec::new(),
            pending: Vec::new(),
            last_change: Vec::new(),
            changed: Vec::new(),
            changed_next: Vec::new(),
            participants: Vec::new(),
        }
    }

    /// The estimator's parameters.
    pub fn params(&self) -> &HyperBallParams {
        &self.params
    }

    fn words_per_node(&self) -> usize {
        self.params.registers() / 8
    }

    /// Sweeps `view` with **every node seeding itself**: count estimates
    /// approximate ball sizes inside the view, and
    /// [`seed_diameter_est`](HyperBallSummary::seed_diameter_est) is a
    /// one-sided estimate of the view's diameter (per component: the
    /// largest finite pairwise distance).
    pub fn sweep<A: Adjacency>(&mut self, view: &A) -> HyperBallSummary {
        self.sweep_core(view, None, &Deadline::unarmed())
            .expect("unarmed deadline never cancels")
    }

    /// Sweeps `view` with only `seeds` seeding: count estimates
    /// approximate `|B_t(v) ∩ seeds|`, and the summary's distance fields
    /// bound the seed-to-seed metric — the weak-diameter side when
    /// `view` is the full graph and `seeds` a cluster.
    pub fn sweep_seeded<A: Adjacency>(&mut self, view: &A, seeds: &NodeSet) -> HyperBallSummary {
        self.sweep_core(view, Some(seeds), &Deadline::unarmed())
            .expect("unarmed deadline never cancels")
    }

    /// [`sweep`](Self::sweep) honoring an armed [`Deadline`] once per
    /// synchronous round (= BFS layer), so abort latency is bounded by a
    /// single layer even when one sweep spans the whole view. On
    /// cancellation the estimator's buffers are cleaned up exactly as on
    /// completion — the instance stays reusable.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the deadline trips at a round boundary.
    pub fn sweep_in<A: Adjacency>(
        &mut self,
        view: &A,
        deadline: &Deadline,
    ) -> Result<HyperBallSummary, Cancelled> {
        self.sweep_core(view, None, deadline)
    }

    /// [`sweep_seeded`](Self::sweep_seeded) honoring an armed
    /// [`Deadline`] once per synchronous round; see
    /// [`sweep_in`](Self::sweep_in).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the deadline trips at a round boundary.
    pub fn sweep_seeded_in<A: Adjacency>(
        &mut self,
        view: &A,
        seeds: &NodeSet,
        deadline: &Deadline,
    ) -> Result<HyperBallSummary, Cancelled> {
        self.sweep_core(view, Some(seeds), deadline)
    }

    fn sweep_core<A: Adjacency>(
        &mut self,
        view: &A,
        seeds: Option<&NodeSet>,
        deadline: &Deadline,
    ) -> Result<HyperBallSummary, Cancelled> {
        let wpn = self.words_per_node();
        let need = view.universe() * wpn;
        if self.regs.len() < need {
            self.regs.resize(need, 0);
            self.pending.resize(need, 0);
        }
        if self.last_change.len() < view.universe() {
            self.last_change.resize(view.universe(), 0);
            self.changed.resize(view.universe(), false);
            self.changed_next.resize(view.universe(), false);
        }
        debug_assert!(self.participants.is_empty(), "previous sweep cleaned up");

        // Seed round 0.
        let mut n_seeds = 0usize;
        for v in view.nodes() {
            self.participants.push(v);
            let is_seed = seeds.is_none_or(|s| s.contains(v));
            if is_seed {
                n_seeds += 1;
                self.add_node_hash(v);
                self.changed[v.index()] = true;
            }
        }
        if self.participants.is_empty() {
            return Ok(HyperBallSummary::EMPTY);
        }

        // Synchronous rounds: merge neighbors' round-(t-1) sketches.
        let mut rounds = 0u32;
        let mut t = 1u32;
        loop {
            if let Err(c) = deadline.check("hyperball-round") {
                self.release_participants(wpn);
                return Err(c);
            }
            let mut any = false;
            for pi in 0..self.participants.len() {
                let v = self.participants[pi];
                let vi = v.index();
                let near_change =
                    self.changed[vi] || view.neighbors(v).any(|u| self.changed[u.index()]);
                if !near_change {
                    continue;
                }
                // merged = own ∪ neighbors (bytewise max), into `pending`.
                let base = vi * wpn;
                self.pending[base..base + wpn].copy_from_slice(&self.regs[base..base + wpn]);
                for u in view.neighbors(v) {
                    let ub = u.index() * wpn;
                    for w in 0..wpn {
                        self.pending[base + w] =
                            byte_max(self.pending[base + w], self.regs[ub + w]);
                    }
                }
                if self.pending[base..base + wpn] != self.regs[base..base + wpn] {
                    self.changed_next[vi] = true;
                    self.last_change[vi] = t;
                    any = true;
                }
            }
            if !any {
                break;
            }
            rounds = t;
            // Commit the round and roll the change marks.
            for pi in 0..self.participants.len() {
                let vi = self.participants[pi].index();
                self.changed[vi] = self.changed_next[vi];
                if self.changed_next[vi] {
                    let base = vi * wpn;
                    self.regs[base..base + wpn].copy_from_slice(&self.pending[base..base + wpn]);
                    self.changed_next[vi] = false;
                }
            }
            t += 1;
        }

        // Summarize over the seeds, then release the buffers.
        let mut summary = HyperBallSummary {
            participants: self.participants.len(),
            seeds: n_seeds,
            iterations: rounds,
            seed_diameter_est: 0,
            seed_radius_est: u32::MAX,
            min_seed_count: f64::INFINITY,
            max_seed_count: 0.0,
        };
        for pi in 0..self.participants.len() {
            let v = self.participants[pi];
            if !seeds.is_none_or(|s| s.contains(v)) {
                continue;
            }
            let vi = v.index();
            summary.seed_diameter_est = summary.seed_diameter_est.max(self.last_change[vi]);
            summary.seed_radius_est = summary.seed_radius_est.min(self.last_change[vi]);
            let est = self.estimate(v);
            summary.min_seed_count = summary.min_seed_count.min(est);
            summary.max_seed_count = summary.max_seed_count.max(est);
        }
        if n_seeds == 0 {
            summary.seed_radius_est = 0;
            summary.min_seed_count = 0.0;
        }

        self.release_participants(wpn);
        Ok(summary)
    }

    /// Per-participant cleanup: the next sweep starts from zeroed state
    /// without an `O(universe)` clear. Runs on completion *and* on
    /// mid-sweep cancellation.
    fn release_participants(&mut self, wpn: usize) {
        for pi in 0..self.participants.len() {
            let vi = self.participants[pi].index();
            let base = vi * wpn;
            self.regs[base..base + wpn].fill(0);
            self.pending[base..base + wpn].fill(0);
            self.last_change[vi] = 0;
            self.changed[vi] = false;
            self.changed_next[vi] = false;
        }
        self.participants.clear();
    }

    /// Folds `v` itself into `v`'s sketch (round-0 seeding).
    fn add_node_hash(&mut self, v: NodeId) {
        let p = self.params.precision as u32;
        let h = splitmix64(v.index() as u64 ^ self.params.seed);
        let j = (h >> (64 - p)) as usize;
        // Rank of the remaining 64-p bits: position of the highest set
        // bit, capped so an all-zero tail still fits 6 bits.
        let rank = ((h << p).leading_zeros() + 1).min(64 - p + 1) as u8;
        let wpn = self.words_per_node();
        let word = v.index() * wpn + j / 8;
        let shift = (j % 8) * 8;
        let cur = ((self.regs[word] >> shift) & 0xFF) as u8;
        if rank > cur {
            self.regs[word] = (self.regs[word] & !(0xFFu64 << shift)) | ((rank as u64) << shift);
        }
    }

    /// HyperLogLog count estimate from `v`'s current sketch, with the
    /// standard small-range (linear counting) correction.
    fn estimate(&self, v: NodeId) -> f64 {
        let m = self.params.registers();
        let wpn = self.words_per_node();
        let base = v.index() * wpn;
        let mut inv_sum = 0.0f64;
        let mut zeros = 0usize;
        for w in 0..wpn {
            let mut word = self.regs[base + w];
            for _ in 0..8 {
                let r = (word & 0xFF) as u32;
                word >>= 8;
                if r == 0 {
                    zeros += 1;
                }
                // r <= 61 for p >= 4, so the shift is in range.
                inv_sum += 1.0 / (1u64 << r) as f64;
            }
        }
        let mf = m as f64;
        let raw = alpha(m) * mf * mf / inv_sum;
        if raw <= 2.5 * mf && zeros > 0 {
            mf * (mf / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// The HyperLogLog bias-correction constant `α_m`.
fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// Bytewise `max` of two u64s (eight 6-bit registers at a time).
///
/// Valid for bytes `< 128`: setting the high bit of each byte of `a`
/// makes the per-byte subtraction borrow-free, so bit 7 of each byte of
/// `(a | H) - b` is 1 exactly when `a_byte >= b_byte`.
#[inline]
fn byte_max(a: u64, b: u64) -> u64 {
    const H: u64 = 0x8080_8080_8080_8080;
    debug_assert_eq!(a & H, 0, "registers are 6-bit");
    debug_assert_eq!(b & H, 0, "registers are 6-bit");
    let ge = ((((a | H) - b) & H) >> 7) * 0xFF;
    (a & ge) | (b & !ge)
}

/// SplitMix64: a full-period mixer with good avalanche behaviour.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs, diameter_exact_in, TraversalWorkspace};
    use crate::gen;

    #[test]
    fn byte_max_is_bytewise() {
        let a = 0x0001_7f00_0a0b_0c0d;
        let b = 0x0100_007f_0d0c_0b0a;
        assert_eq!(byte_max(a, b), 0x0101_7f7f_0d0c_0c0d);
        assert_eq!(byte_max(0, 0), 0);
        assert_eq!(byte_max(a, a), a);
    }

    #[test]
    fn diameter_estimate_is_one_sided() {
        for (rows, cols) in [(4, 4), (6, 9), (1, 40)] {
            let g = gen::grid(rows, cols);
            let exact = diameter_exact_in(&g.full_view(), &mut TraversalWorkspace::new()).unwrap();
            let mut hb = HyperBall::new(HyperBallParams::new(6));
            let s = hb.sweep(&g.full_view());
            assert!(
                s.seed_diameter_est <= exact,
                "{rows}x{cols}: est {} > exact {exact}",
                s.seed_diameter_est
            );
            assert!(s.seed_radius_est <= s.seed_diameter_est);
            assert_eq!(s.participants, rows * cols);
            assert_eq!(s.seeds, rows * cols);
        }
    }

    #[test]
    fn counts_land_in_the_error_band() {
        // Deterministic given the seed; p = 8 keeps the band tight.
        let params = HyperBallParams::new(8);
        let mut hb = HyperBall::new(params);
        for n in [32usize, 100, 256] {
            let g = gen::complete(n);
            let s = hb.sweep(&g.full_view());
            // In a complete graph every sketch converges to the full set.
            for est in [s.min_seed_count, s.max_seed_count] {
                let rel = (est - n as f64).abs() / n as f64;
                assert!(
                    rel <= params.error_band(),
                    "n = {n}: estimate {est} off by {rel}, band {}",
                    params.error_band()
                );
            }
        }
    }

    #[test]
    fn seeded_sweep_bounds_the_weak_metric() {
        // Path 0-..-9; seeds {0, 9}: the largest seed-to-seed distance
        // is 9 and the sweep must not overshoot it.
        let g = gen::path(10);
        let seeds = crate::NodeSet::from_nodes(10, [NodeId::new(0), NodeId::new(9)]);
        let mut hb = HyperBall::new(HyperBallParams::new(6));
        let s = hb.sweep_seeded(&g.full_view(), &seeds);
        assert_eq!(s.seeds, 2);
        assert!(s.seed_diameter_est <= 9);
        // With only 2 seeds the sketches are collision-free: exact.
        assert_eq!(s.seed_diameter_est, 9);
    }

    #[test]
    fn sweep_state_does_not_leak_across_sweeps() {
        let g = gen::grid(5, 5);
        let mut hb = HyperBall::new(HyperBallParams::new(6));
        let a = hb.sweep(&g.full_view());
        let b = hb.sweep(&g.full_view());
        assert_eq!(a, b, "replayed sweep must be bit-identical");
        // A sweep over a sub-view after a full sweep sees clean state.
        let sub = crate::NodeSet::from_nodes(25, (0..5).map(NodeId::new));
        let s = hb.sweep(&g.view(&sub));
        assert_eq!(s.participants, 5);
        let exact_sub = bfs(&g.view(&sub), [NodeId::new(0)]).eccentricity().unwrap();
        assert!(s.seed_diameter_est <= exact_sub);
    }

    #[test]
    fn empty_and_seedless_views() {
        let g = gen::path(3);
        let empty = crate::NodeSet::empty(3);
        let mut hb = HyperBall::new(HyperBallParams::default());
        assert_eq!(hb.sweep(&g.view(&empty)), HyperBallSummary::EMPTY);
        let s = hb.sweep_seeded(&g.full_view(), &empty);
        assert_eq!(s.participants, 3);
        assert_eq!(s.seeds, 0);
        assert_eq!(s.seed_diameter_est, 0);
        assert_eq!(s.max_seed_count, 0.0);
    }

    #[test]
    #[should_panic(expected = "precision must be in 4..=12")]
    fn rejects_out_of_range_precision() {
        let _ = HyperBallParams::new(3);
    }
}
