//! The daemon's single-threaded service core: loaded graphs, the LRU of
//! finished decompositions, the pooled carving session, the learned
//! validation-cost estimator, and the request executor.
//!
//! [`ServeState::execute`] is deliberately synchronous — all concurrency
//! (admission queue, panic isolation, socket fan-in) lives in
//! [`daemon`](crate::daemon), so every robustness property of the core
//! can be tested without threads.

use crate::protocol::{Request, ValidateTier, CARVE_SEED};
use sdnd_clustering::{
    validate_decomposition_approx_in, validate_decomposition_timed_in, CarveCtx,
    NetworkDecomposition,
};
use sdnd_congest::RoundLedger;
use sdnd_core::registry::Algorithm;
use sdnd_graph::algo::{bfs_to_in, HyperBallParams};
use sdnd_graph::dataset::{load_cached, CacheStatus, LoadOptions, WeightMode};
use sdnd_graph::{gen, Cancelled, Deadline, Graph, NodeId, NodeSet, SubsetView};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cache key for a finished decomposition: the *content* hash of the
/// graph (provenance-independent, see [`Graph::content_hash`]), the
/// algorithm, the eps bits, and the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecompKey {
    /// [`Graph::content_hash`] of the input graph.
    pub graph: u64,
    /// The algorithm.
    pub algo: &'static Algorithm,
    /// `eps.to_bits()` — exact bit equality, no float fuzz.
    pub eps_bits: u64,
    /// The request seed.
    pub seed: u64,
}

/// A small exact-LRU over finished decompositions. Capacity is a
/// handful of entries, so recency order is a plain vector.
#[derive(Debug)]
pub struct DecompLru {
    cap: usize,
    /// Most recent first.
    entries: Vec<(DecompKey, Arc<NetworkDecomposition>)>,
}

impl DecompLru {
    /// An empty LRU holding at most `cap` decompositions (min 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        DecompLru {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &DecompKey) -> Option<Arc<NetworkDecomposition>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the least recent entry
    /// beyond capacity.
    pub fn insert(&mut self, key: DecompKey, value: Arc<NetworkDecomposition>) {
        self.entries.retain(|(k, _)| k != &key);
        self.entries.insert(0, (key, value));
        self.entries.truncate(self.cap);
    }

    /// Number of cached decompositions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Learned per-graph cost of the *exact* validation tier, used to decide
/// when a deadline-carrying `validate` must degrade to the approximate
/// tier. Exponentially weighted so the estimate tracks warm-cache
/// reality rather than the cold first run.
#[derive(Debug, Default)]
pub struct CostEstimator {
    ewma_ms: HashMap<u64, f64>,
}

impl CostEstimator {
    /// Smoothing factor: how much a fresh observation moves the mean.
    const ALPHA: f64 = 0.3;
    /// Degradation safety margin over the raw estimate.
    const SAFETY: f64 = 1.5;

    /// Records an observed exact-tier validation of `graph` taking `ms`.
    pub fn record(&mut self, graph: u64, ms: f64) {
        let e = self.ewma_ms.entry(graph).or_insert(ms);
        *e = Self::ALPHA * ms + (1.0 - Self::ALPHA) * *e;
    }

    /// The current estimate for `graph`, if one was ever recorded.
    #[must_use]
    pub fn estimate_ms(&self, graph: u64) -> Option<f64> {
        self.ewma_ms.get(&graph).copied()
    }

    /// Whether a request with `remaining_ms` of budget left should skip
    /// the exact tier for `graph`. Optimistic when no estimate exists
    /// yet (the cold run is how the estimator learns).
    #[must_use]
    pub fn must_degrade(&self, graph: u64, remaining_ms: Option<f64>) -> bool {
        match (self.estimate_ms(graph), remaining_ms) {
            (Some(est), Some(rem)) => rem < est * Self::SAFETY,
            _ => false,
        }
    }
}

/// Worker-local request counters, reported by `stats`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests executed (admitted and parsed).
    pub requests: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Requests that tripped their deadline.
    pub cancelled: u64,
    /// `validate` requests auto-degraded exact→approx.
    pub degraded: u64,
    /// Requests that panicked (session rebuilt each time).
    pub panics: u64,
    /// LRU hits / misses for `decompose`.
    pub lru_hits: u64,
    /// LRU misses for `decompose`.
    pub lru_misses: u64,
}

/// Counters shared with the daemon's reader threads (which shed load
/// without ever touching the worker's state).
#[derive(Debug, Default)]
pub struct SharedCounters {
    /// Requests rejected at admission with `err overloaded`.
    pub overloaded: AtomicU64,
}

/// The service core. One per daemon; owned by the single worker thread.
#[derive(Debug)]
pub struct ServeState {
    graphs: HashMap<u64, Arc<Graph>>,
    current_graph: Option<u64>,
    lru: DecompLru,
    /// Most recent decomposition: the target of `cluster-of`,
    /// `distance-in-cluster`, and `validate`.
    current: Option<(DecompKey, Arc<NetworkDecomposition>)>,
    /// The pooled carving session (traversal workspace + deadline slot).
    /// Rebuilt from scratch when a request panics out of the pipeline.
    ctx: CarveCtx,
    estimator: CostEstimator,
    stats: ServeStats,
    shared: Arc<SharedCounters>,
    /// Set while a `validate` that auto-degraded to the approx tier is
    /// in flight, so a mid-validate cancellation can still report which
    /// tier was answering.
    degraded_inflight: bool,
}

impl ServeState {
    /// A fresh core with an LRU of `lru_cap` decompositions.
    #[must_use]
    pub fn new(lru_cap: usize, shared: Arc<SharedCounters>) -> Self {
        ServeState {
            graphs: HashMap::new(),
            current_graph: None,
            lru: DecompLru::new(lru_cap),
            current: None,
            ctx: CarveCtx::new(),
            estimator: CostEstimator::default(),
            stats: ServeStats::default(),
            shared,
            degraded_inflight: false,
        }
    }

    /// Rebuilds the poisoned session after a request panicked out of
    /// `execute`. Immutable shared state (loaded graphs, finished
    /// decompositions in the LRU) survives; the mutable carving session
    /// is discarded wholesale.
    pub fn rebuild_session(&mut self) {
        self.ctx = CarveCtx::new();
        self.stats.panics += 1;
    }

    /// The request counters (primarily for tests).
    #[must_use]
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The decomposition the point queries currently target (the most
    /// recent successful `decompose`), if any. Exposed so tests can pin
    /// bit-identity of results across cancelled attempts.
    #[must_use]
    pub fn latest_decomposition(&self) -> Option<&NetworkDecomposition> {
        self.current.as_ref().map(|(_, d)| d.as_ref())
    }

    /// Executes one request under `deadline`, returning the response
    /// body (no tag). Never panics except for `debug-panic` (and
    /// genuine bugs) — the daemon wraps this call in `catch_unwind` and
    /// rebuilds the session when it unwinds.
    pub fn execute(&mut self, req: &Request, deadline: &Deadline) -> String {
        self.stats.requests += 1;
        self.degraded_inflight = false;
        self.ctx.arm(deadline.clone());
        let out = self.dispatch(req, deadline);
        self.ctx.disarm();
        match out {
            Ok(body) => {
                self.stats.ok += 1;
                body
            }
            Err(c) => {
                self.stats.cancelled += 1;
                let tier = if self.degraded_inflight {
                    " tier=approx degraded=true"
                } else {
                    ""
                };
                format!(
                    "err cancelled phase={} elapsed-ms={}{tier}",
                    c.phase,
                    c.elapsed.as_millis()
                )
            }
        }
    }

    fn dispatch(&mut self, req: &Request, deadline: &Deadline) -> Result<String, Cancelled> {
        // A request that spent its whole budget queued dies here without
        // touching the pipeline.
        deadline.check("admission")?;
        match req {
            Request::Load { spec } => Ok(self.load(spec)),
            Request::Decompose { algo, eps, seed } => self.decompose(algo, *eps, *seed),
            Request::Carve { algo, eps } => self.carve(algo, *eps),
            Request::ClusterOf { v } => Ok(self.cluster_of(*v)),
            Request::DistanceInCluster { u, v } => self.distance_in_cluster(*u, *v),
            Request::Validate { tier } => self.validate(*tier, deadline),
            Request::Stats => Ok(self.format_stats()),
            Request::DebugPanic => panic!("debug-panic requested over the wire"),
            Request::Shutdown => Ok("ok shutting-down".into()),
        }
    }

    fn load(&mut self, spec: &str) -> String {
        let (graph, status) = match load_spec(spec) {
            Ok(pair) => pair,
            Err(reason) => return format!("err load-failed {reason}"),
        };
        let hash = graph.content_hash();
        let (n, m) = (graph.n(), graph.m());
        self.graphs.entry(hash).or_insert_with(|| Arc::new(graph));
        self.current_graph = Some(hash);
        format!("ok graph={hash:016x} n={n} m={m} cache={status}")
    }

    fn current_graph(&self) -> Result<(u64, Arc<Graph>), String> {
        let hash = self.current_graph.ok_or("err no-graph")?;
        let g = self.graphs.get(&hash).expect("current graph is loaded");
        Ok((hash, g.clone()))
    }

    fn decompose(
        &mut self,
        algo: &'static Algorithm,
        eps: f64,
        seed: u64,
    ) -> Result<String, Cancelled> {
        let (hash, g) = match self.current_graph() {
            Ok(pair) => pair,
            Err(e) => return Ok(e),
        };
        let key = DecompKey {
            graph: hash,
            algo,
            eps_bits: eps.to_bits(),
            seed,
        };
        let started = Instant::now();
        if let Some(d) = self.lru.get(&key) {
            self.stats.lru_hits += 1;
            self.current = Some((key, d.clone()));
            return Ok(decompose_frame(algo, eps, seed, &d, true, started));
        }
        self.stats.lru_misses += 1;
        let mut ledger = RoundLedger::new();
        let d = Arc::new(algo.decompose_in(seed, &g, &mut ledger, &mut self.ctx)?);
        self.lru.insert(key, d.clone());
        self.current = Some((key, d.clone()));
        Ok(decompose_frame(algo, eps, seed, &d, false, started))
    }

    fn carve(&mut self, algo: &'static Algorithm, eps: f64) -> Result<String, Cancelled> {
        let (_, g) = match self.current_graph() {
            Ok(pair) => pair,
            Err(e) => return Ok(e),
        };
        let started = Instant::now();
        let alive = NodeSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let carving = algo.carve_in(CARVE_SEED, &g, &alive, eps, &mut ledger, &mut self.ctx)?;
        Ok(format!(
            "ok carving algo={} eps={eps} clusters={} dead-fraction={:.4} ms={:.3}",
            algo.carve_name,
            carving.num_clusters(),
            carving.dead_fraction(),
            started.elapsed().as_secs_f64() * 1e3,
        ))
    }

    fn current_decomposition(&self) -> Result<(DecompKey, Arc<NetworkDecomposition>), String> {
        self.current
            .clone()
            .ok_or_else(|| "err no-decomposition".to_string())
    }

    fn cluster_of(&mut self, v: usize) -> String {
        let (_, d) = match self.current_decomposition() {
            Ok(pair) => pair,
            Err(e) => return e,
        };
        if v >= d.universe() {
            return format!("err bad-request node {v} outside universe {}", d.universe());
        }
        match d.cluster_of(NodeId::new(v)) {
            Some(c) => format!(
                "ok cluster={} color={} size={}",
                c.0,
                d.color(c),
                d.members(c).len()
            ),
            None => "ok unclustered".into(),
        }
    }

    fn distance_in_cluster(&mut self, u: usize, v: usize) -> Result<String, Cancelled> {
        let (key, d) = match self.current_decomposition() {
            Ok(pair) => pair,
            Err(e) => return Ok(e),
        };
        let g = self
            .graphs
            .get(&key.graph)
            .expect("decomposition's graph is loaded")
            .clone();
        if u >= d.universe() || v >= d.universe() {
            return Ok(format!(
                "err bad-request node outside universe {}",
                d.universe()
            ));
        }
        let (cu, cv) = (d.cluster_of(NodeId::new(u)), d.cluster_of(NodeId::new(v)));
        let (Some(cu), Some(cv)) = (cu, cv) else {
            return Ok("err unclustered".into());
        };
        if cu != cv {
            return Ok(format!(
                "err different-clusters u-cluster={} v-cluster={}",
                cu.0, cv.0
            ));
        }
        self.ctx.checkpoint("distance-bfs")?;
        let mut members = NodeSet::empty(g.n());
        for &w in d.members(cu) {
            members.insert(w);
        }
        let mut target = NodeSet::empty(g.n());
        target.insert(NodeId::new(v));
        let view = SubsetView::new(&g, &members);
        let run = bfs_to_in(&mut self.ctx.ws, &view, [NodeId::new(u)], &target);
        Ok(if run.reached(NodeId::new(v)) {
            format!("ok distance={}", run.dist(NodeId::new(v)))
        } else {
            "ok distance=disconnected".into()
        })
    }

    fn validate(&mut self, tier: ValidateTier, deadline: &Deadline) -> Result<String, Cancelled> {
        let (key, d) = match self.current_decomposition() {
            Ok(pair) => pair,
            Err(e) => return Ok(e),
        };
        let g = self
            .graphs
            .get(&key.graph)
            .expect("decomposition's graph is loaded")
            .clone();
        let remaining_ms = deadline.remaining().map(|r| r.as_secs_f64() * 1e3);
        let degraded =
            tier == ValidateTier::Auto && self.estimator.must_degrade(key.graph, remaining_ms);
        if degraded {
            self.stats.degraded += 1;
            self.degraded_inflight = true;
        }
        let started = Instant::now();
        if matches!(tier, ValidateTier::Approx) || degraded {
            let report = validate_decomposition_approx_in(
                &g,
                &d,
                HyperBallParams::default(),
                &mut self.ctx,
            )?;
            Ok(format!(
                "ok valid={} tier=approx degraded={degraded} colors={} \
                 est-strong-diameter={} ms={:.3}",
                report.is_valid(),
                report.colors,
                opt(report.est_max_strong_diameter),
                started.elapsed().as_secs_f64() * 1e3,
            ))
        } else {
            let (report, _timing) = validate_decomposition_timed_in(&g, &d, &mut self.ctx)?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            self.estimator.record(key.graph, ms);
            Ok(format!(
                "ok valid={} tier=exact degraded=false colors={} strong-diameter={} ms={ms:.3}",
                report.is_valid(),
                report.colors,
                opt(report.max_strong_diameter),
            ))
        }
    }

    fn format_stats(&self) -> String {
        let s = &self.stats;
        format!(
            "ok stats requests={} ok={} cancelled={} degraded={} panics={} overloaded={} \
             lru-hits={} lru-misses={} lru-entries={} graphs={}",
            s.requests,
            s.ok,
            s.cancelled,
            s.degraded,
            s.panics,
            self.shared.overloaded.load(Ordering::Relaxed),
            s.lru_hits,
            s.lru_misses,
            self.lru.len(),
            self.graphs.len(),
        )
    }
}

fn opt(v: Option<u32>) -> String {
    v.map_or_else(|| "none".into(), |d| d.to_string())
}

fn decompose_frame(
    algo: &Algorithm,
    eps: f64,
    seed: u64,
    d: &NetworkDecomposition,
    cached: bool,
    started: Instant,
) -> String {
    format!(
        "ok decomposition algo={} eps={eps} seed={seed} clusters={} colors={} cached={cached} \
         ms={:.3}",
        algo.decompose_name,
        d.num_clusters(),
        d.num_colors(),
        started.elapsed().as_secs_f64() * 1e3,
    )
}

/// Loads a graph from a generator spec (`grid:RxC`, `cycle:N`, `path:N`,
/// `gnp:N:SEED`) or from an edge-list / `.csrbin` path through the
/// binary-cache dataset layer.
fn load_spec(spec: &str) -> Result<(Graph, &'static str), String> {
    if let Some(dims) = spec.strip_prefix("grid:") {
        let (r, c) = dims
            .split_once('x')
            .ok_or_else(|| format!("grid spec wants RxC, got `{dims}`"))?;
        let r: usize = r.parse().map_err(|_| format!("bad grid rows `{r}`"))?;
        let c: usize = c.parse().map_err(|_| format!("bad grid cols `{c}`"))?;
        return Ok((gen::grid(r, c), "generated"));
    }
    if let Some(n) = spec.strip_prefix("cycle:") {
        let n: usize = n.parse().map_err(|_| format!("bad cycle size `{n}`"))?;
        return Ok((gen::cycle(n), "generated"));
    }
    if let Some(n) = spec.strip_prefix("path:") {
        let n: usize = n.parse().map_err(|_| format!("bad path size `{n}`"))?;
        return Ok((gen::path(n), "generated"));
    }
    if let Some(rest) = spec.strip_prefix("gnp:") {
        let (n, seed) = rest
            .split_once(':')
            .ok_or_else(|| format!("gnp spec wants N:SEED, got `{rest}`"))?;
        let n: usize = n.parse().map_err(|_| format!("bad gnp size `{n}`"))?;
        let seed: u64 = seed.parse().map_err(|_| format!("bad gnp seed `{seed}`"))?;
        return Ok((
            gen::gnp_connected(n, 6.0 / n.max(7) as f64, seed),
            "generated",
        ));
    }
    let opts = LoadOptions {
        nodes: None,
        weights: WeightMode::Auto,
    };
    let (g, status) = load_cached(Path::new(spec), &opts, true).map_err(|e| e.to_string())?;
    Ok((
        g,
        match status {
            CacheStatus::Hit => "hit",
            CacheStatus::Written => "written",
            CacheStatus::Bypassed => "bypassed",
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::classify_response;
    use crate::protocol::ResponseKind;
    use sdnd_core::registry::{find_carve, find_decompose};
    use std::time::Duration;

    fn state() -> ServeState {
        ServeState::new(4, Arc::new(SharedCounters::default()))
    }

    fn unarmed() -> Deadline {
        Deadline::unarmed()
    }

    #[test]
    fn lru_evicts_least_recent_and_refreshes_on_hit() {
        let mut lru = DecompLru::new(2);
        let d = Arc::new(
            NetworkDecomposition::new(&NodeSet::full(1), vec![(vec![NodeId::new(0)], 0)])
                .expect("tiny decomp"),
        );
        let key = |seed| DecompKey {
            graph: 1,
            algo: find_decompose("thm2.3").unwrap(),
            eps_bits: 0.5f64.to_bits(),
            seed,
        };
        lru.insert(key(0), d.clone());
        lru.insert(key(1), d.clone());
        assert!(lru.get(&key(0)).is_some(), "refresh 0 above 1");
        lru.insert(key(2), d);
        assert!(lru.get(&key(1)).is_none(), "1 was least recent");
        assert!(lru.get(&key(0)).is_some());
        assert!(lru.get(&key(2)).is_some());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn estimator_learns_and_degrades() {
        let mut e = CostEstimator::default();
        assert!(!e.must_degrade(7, Some(0.01)), "optimistic when untrained");
        e.record(7, 100.0);
        assert!(e.must_degrade(7, Some(10.0)));
        assert!(!e.must_degrade(7, Some(1000.0)));
        assert!(!e.must_degrade(7, None), "no deadline, no degradation");
        // EWMA tracks downward as the cache warms.
        for _ in 0..20 {
            e.record(7, 10.0);
        }
        assert!(e.estimate_ms(7).unwrap() < 15.0);
    }

    #[test]
    fn request_mix_on_a_grid() {
        let mut s = state();
        let r = s.execute(
            &Request::Load {
                spec: "grid:8x8".into(),
            },
            &unarmed(),
        );
        assert!(r.starts_with("ok graph="), "{r}");
        assert!(r.contains("n=64"), "{r}");

        // Cold decompose, then the same key served from the LRU.
        let req = Request::Decompose {
            algo: find_decompose("thm2.3").unwrap(),
            eps: 0.5,
            seed: 0,
        };
        let cold = s.execute(&req, &unarmed());
        assert!(cold.contains("cached=false"), "{cold}");
        let warm = s.execute(&req, &unarmed());
        assert!(warm.contains("cached=true"), "{warm}");
        assert_eq!(s.stats().lru_hits, 1);
        assert_eq!(s.stats().lru_misses, 1);

        let r = s.execute(&Request::ClusterOf { v: 0 }, &unarmed());
        assert!(r.starts_with("ok cluster="), "{r}");

        // Distance inside node 0's cluster: pick a member of the same
        // cluster from the response mix by querying node 0 twice.
        let r = s.execute(&Request::DistanceInCluster { u: 0, v: 0 }, &unarmed());
        assert_eq!(r, "ok distance=0");

        let r = s.execute(
            &Request::Carve {
                algo: find_carve("thm3.3").unwrap(),
                eps: 0.5,
            },
            &unarmed(),
        );
        assert!(r.starts_with("ok carving algo=thm3.3"), "{r}");

        let r = s.execute(
            &Request::Validate {
                tier: ValidateTier::Auto,
            },
            &unarmed(),
        );
        assert!(r.contains("tier=exact degraded=false"), "{r}");
        let r = s.execute(
            &Request::Validate {
                tier: ValidateTier::Approx,
            },
            &unarmed(),
        );
        assert!(r.contains("tier=approx"), "{r}");

        let r = s.execute(&Request::Stats, &unarmed());
        assert!(r.starts_with("ok stats requests="), "{r}");
        assert_eq!(classify_response(&r), ResponseKind::Ok);
    }

    #[test]
    fn requests_without_graph_or_decomposition_fail_cleanly() {
        let mut s = state();
        assert_eq!(
            s.execute(
                &Request::Decompose {
                    algo: find_decompose("thm2.3").unwrap(),
                    eps: 0.5,
                    seed: 0
                },
                &unarmed()
            ),
            "err no-graph"
        );
        s.execute(
            &Request::Load {
                spec: "grid:4x4".into(),
            },
            &unarmed(),
        );
        assert_eq!(
            s.execute(&Request::ClusterOf { v: 0 }, &unarmed()),
            "err no-decomposition"
        );
        let r = s.execute(
            &Request::Load {
                spec: "grid:axb".into(),
            },
            &unarmed(),
        );
        assert!(r.starts_with("err load-failed"), "{r}");
    }

    #[test]
    fn expired_deadline_cancels_and_session_stays_usable() {
        let mut s = state();
        s.execute(
            &Request::Load {
                spec: "grid:12x12".into(),
            },
            &unarmed(),
        );
        let req = Request::Decompose {
            algo: find_decompose("thm3.4").unwrap(),
            eps: 0.5,
            seed: 3,
        };
        let r = s.execute(&req, &Deadline::within(Duration::ZERO));
        assert!(r.starts_with("err cancelled phase="), "{r}");
        assert_eq!(s.stats().cancelled, 1);
        // The same session then completes the same request undamaged.
        let r = s.execute(&req, &unarmed());
        assert!(r.contains("cached=false"), "{r}");
    }

    #[test]
    fn auto_validate_degrades_under_pressure_and_reports_tier() {
        let mut s = state();
        s.execute(
            &Request::Load {
                spec: "grid:10x10".into(),
            },
            &unarmed(),
        );
        s.execute(
            &Request::Decompose {
                algo: find_decompose("thm2.3").unwrap(),
                eps: 0.5,
                seed: 0,
            },
            &unarmed(),
        );
        // Train the estimator with one unhurried exact run.
        let r = s.execute(
            &Request::Validate {
                tier: ValidateTier::Auto,
            },
            &unarmed(),
        );
        assert!(r.contains("tier=exact"), "{r}");
        // A 1 ms budget cannot cover the learned exact cost of a
        // 100-node grid? It usually can — so force the decision by
        // training a pessimistic estimate.
        let (hash, _) = s.current_graph().unwrap();
        for _ in 0..30 {
            s.estimator.record(hash, 10_000.0);
        }
        let r = s.execute(
            &Request::Validate {
                tier: ValidateTier::Auto,
            },
            &Deadline::within(Duration::from_millis(200)),
        );
        assert!(r.contains("tier=approx degraded=true"), "{r}");
        assert_eq!(s.stats().degraded, 1);
    }

    #[test]
    fn rebuild_session_preserves_caches() {
        let mut s = state();
        s.execute(
            &Request::Load {
                spec: "grid:6x6".into(),
            },
            &unarmed(),
        );
        s.execute(
            &Request::Decompose {
                algo: find_decompose("thm2.3").unwrap(),
                eps: 0.5,
                seed: 0,
            },
            &unarmed(),
        );
        s.rebuild_session();
        assert_eq!(s.stats().panics, 1);
        let r = s.execute(
            &Request::Decompose {
                algo: find_decompose("thm2.3").unwrap(),
                eps: 0.5,
                seed: 0,
            },
            &unarmed(),
        );
        assert!(r.contains("cached=true"), "LRU must survive a rebuild: {r}");
    }
}
