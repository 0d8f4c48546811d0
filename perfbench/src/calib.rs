//! Host-speed calibration.
//!
//! On a shared host the same op can take 1.5–2x longer for tens of
//! seconds at a time while neighbours contend for the caches and memory.
//! The benchmark therefore runs a fixed probe workload of its own between
//! ops (once per [`PACE_MS`] of op time) and scales each op's wall clock
//! by `REFERENCE_MS / t`, where `t` is the mean of the probe times
//! measured just before and just after the op. A reported time is thus
//! the wall clock the op would take on a host on which the probe takes
//! [`REFERENCE_MS`]. The probe is the benchmark's own code on its own
//! fixed inputs, so no change to the program moves it.
//!
//! The probe mixes the two access patterns that tracked the library's
//! slow spells best on the shared 2-vCPU Xeon it was tuned on: BFS sweeps
//! over a 20000-node geometric graph and `HashMap` inserts and lookups of
//! 65536 keys (about 1 MB each). Over 4 minutes of 15-s windows, a grid
//! decomposition's wall clock varied with a standard deviation of 18%,
//! and its time scaled by the probe with one of 5%.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Probe time (ms) at the reference host speed: about its time on the
/// tuning host when no neighbour contends.
pub const REFERENCE_MS: f64 = 7.0;

/// The probe runs again once this much op time has passed since it last
/// ran.
pub const PACE_MS: f64 = 250.0;

/// BFS sources per probe run.
const SWEEPS: usize = 4;

/// xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Random geometric graph on `n` points of the unit square, adjacent
/// within `radius`, as CSR `(offsets, targets)`. Built here rather than
/// by the library, so that no change to the program moves the probe.
fn geometric(n: usize, radius: f64, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut x = seed;
    let unit = |x: &mut u64| (next(x) >> 11) as f64 / (1u64 << 53) as f64;
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (unit(&mut x), unit(&mut x))).collect();
    let cells = (1.0 / radius) as usize;
    let cell = |p: f64| ((p * cells as f64) as usize).min(cells - 1);
    let mut grid = vec![Vec::new(); cells * cells];
    for (i, &(px, py)) in pts.iter().enumerate() {
        grid[cell(py) * cells + cell(px)].push(i as u32);
    }
    let mut offsets = vec![0u32];
    let mut targets = Vec::new();
    for &(px, py) in &pts {
        let (cx, cy) = (cell(px), cell(py));
        for gy in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for gx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                for &j in &grid[gy * cells + gx] {
                    let (qx, qy) = pts[j as usize];
                    let d2 = (px - qx).powi(2) + (py - qy).powi(2);
                    if d2 > 0.0 && d2 <= radius * radius {
                        targets.push(j);
                    }
                }
            }
        }
        offsets.push(targets.len() as u32);
    }
    (offsets, targets)
}

/// `HashMap` with fixed SipHash keys, so every run builds the same table.
type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The probe workload and its inputs, the same for every seed and run.
/// It allocates nothing after set-up, so the program's use of the heap
/// cannot move it.
pub struct Probe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    keys: Vec<u64>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    table: FixedMap,
}

impl Probe {
    /// Builds the inputs and runs the probe once to warm it.
    pub fn new() -> Probe {
        let n = 20_000;
        let radius = (12.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let (offsets, targets) = geometric(n, radius, 0x5eed);
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let keys: Vec<u64> = (0..1 << 16).map(|_| next(&mut x)).collect();
        let mut p = Probe {
            offsets,
            targets,
            table: FixedMap::with_capacity_and_hasher(keys.len(), Default::default()),
            keys,
            dist: vec![0; n],
            queue: Vec::with_capacity(n),
        };
        p.time_ms();
        p
    }

    fn bfs(&mut self, source: usize) -> u64 {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[source] = 0;
        self.queue.push(source as u32);
        let mut head = 0;
        let mut sum = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u as usize];
            sum += u64::from(du);
            let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
            for &v in &self.targets[lo as usize..hi as usize] {
                if self.dist[v as usize] == u32::MAX {
                    self.dist[v as usize] = du + 1;
                    self.queue.push(v);
                }
            }
        }
        sum
    }

    fn hash(&mut self) -> u64 {
        let m = &mut self.table;
        m.clear();
        for (i, &k) in self.keys.iter().enumerate() {
            *m.entry(k).or_insert(0) += i as u64;
        }
        self.keys.iter().map(|k| m[k]).sum()
    }

    /// Runs the probe once and returns its wall clock (ms).
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.dist.len();
        for s in 0..SWEEPS {
            black_box(self.bfs(s * n / SWEEPS));
        }
        black_box(self.hash());
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the CPU it runs on now, so the probe measures the CPU the ops run on:
/// neighbours on a shared host need not slow both vCPUs alike. Does
/// nothing where that fails. Only for workloads that keep one thread
/// busy at a time.
pub fn pin_to_this_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are plain libc calls; the mask lives across the call
    // and its size in bytes is passed with it.
    unsafe {
        let Ok(cpu) = usize::try_from(sched_getcpu()) else {
            return;
        };
        let mut mask = [0u64; 16];
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word = 1 << (cpu % 64);
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

/// Factor that scales a time taken between probe times `before` and
/// `after` (ms) to the reference host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_MS / (before + after)
}

/// Probe times taken between the ops of one timed phase. Ops between
/// probe runs `k` and `k + 1` form segment `k`.
pub struct HostClock<'p> {
    probe: &'p mut Probe,
    points: Vec<f64>,
    /// Op time since the probe last ran (ms).
    since_ms: f64,
}

impl<'p> HostClock<'p> {
    /// Runs the probe once, opening segment 0.
    pub fn start(probe: &'p mut Probe) -> HostClock<'p> {
        let first = probe.time_ms();
        HostClock {
            probe,
            points: vec![first],
            since_ms: 0.0,
        }
    }

    /// The segment the next op falls in.
    pub fn segment(&self) -> usize {
        self.points.len() - 1
    }

    /// Counts an op's time (ms), running the probe once [`PACE_MS`] has
    /// passed.
    pub fn after_op(&mut self, ms: f64) {
        self.since_ms += ms;
        if self.since_ms >= PACE_MS {
            self.run_probe();
        }
    }

    fn run_probe(&mut self) {
        self.points.push(self.probe.time_ms());
        self.since_ms = 0.0;
    }

    /// Closes the last segment and returns each segment's [`scale`] and
    /// the median probe time (ms).
    pub fn finish(mut self) -> (Vec<f64>, f64) {
        self.run_probe();
        let scales = self.points.windows(2).map(|w| scale(w[0], w[1])).collect();
        (scales, crate::stats::median(&self.points))
    }
}

/// Runs `work` and returns its result with its wall clock (s) scaled to
/// the reference host speed by probe runs just before and after it.
pub fn timed<T>(probe: &mut Probe, work: impl FnOnce() -> T) -> (T, f64) {
    let before = probe.time_ms();
    let t = Instant::now();
    let out = work();
    let s = t.elapsed().as_secs_f64();
    (out, s * scale(before, probe.time_ms()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_inputs_are_fixed() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.bfs(0), b.bfs(0));
        assert_eq!(a.hash(), b.hash());
        let n = a.dist.len();
        let mean_degree = a.targets.len() as f64 / n as f64;
        assert!((11.0..13.0).contains(&mean_degree), "{mean_degree}");
        let reached = a.dist.iter().filter(|&&d| d != u32::MAX).count();
        assert!(reached > n / 2, "the BFS sweeps a giant component");
    }

    #[test]
    fn segments_average_the_probe_times_around_them() {
        let mut probe = Probe::new();
        let mut c = HostClock::start(&mut probe);
        c.after_op(PACE_MS / 2.0);
        assert_eq!(c.segment(), 0, "not yet due");
        c.after_op(PACE_MS / 2.0);
        assert_eq!(c.segment(), 1, "due after PACE_MS of ops");
        c.points = vec![REFERENCE_MS, 3.0 * REFERENCE_MS];
        let (scales, _) = c.finish();
        assert_eq!(scales.len(), 2);
        assert_eq!(scales[0], 0.5, "the probe ran twice as slow on average");
    }
}
