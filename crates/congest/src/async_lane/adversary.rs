//! The deterministic, seeded transport adversary.
//!
//! Every fault decision is a pure function of
//! `(seed, pulse, directed-edge id)` (plus the attempt index for retry
//! sequences), derived through splitmix64 finalizers. Nothing about the
//! execution — thread scheduling, worker count, wall-clock time — feeds
//! back into the schedule, so a faulted run is exactly reproducible from
//! its seed and shrinkable by a property tester.

use sdnd_graph::NodeId;

/// Retry budget per message: a transmission dropped this many times in a
/// row is abandoned as [`Transmission::lost`] (the synchronizer gives up
/// cleanly instead of retrying forever; the loss surfaces in the
/// [`FaultReport`](crate::async_lane::FaultReport) and, if it corrupted
/// the outcome, in validation).
pub const RETRY_LIMIT: u32 = 8;

/// Default crash-pulse horizon: scheduled crashes land in pulses
/// `1..=DEFAULT_CRASH_HORIZON` (mid-phase, after the init pulse).
pub const DEFAULT_CRASH_HORIZON: u64 = 8;

const SALT_DROP: u64 = 0x9b5a_d1c7_23e0_61b5;
const SALT_DUP: u64 = 0x6a09_e667_f3bc_c909;
const SALT_DELAY: u64 = 0xbb67_ae85_84ca_a73b;
const SALT_CRASH_PICK: u64 = 0x3c6e_f372_fe94_f82b;
const SALT_CRASH_PULSE: u64 = 0xa54f_f53a_5f1d_36f1;
const SALT_CRASH_PREFIX: u64 = 0x510e_527f_ade6_82d1;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The integer form of a probability draw: a hash's top 53 bits `x`
/// satisfy `x · 2^-53 < p` exactly when `x < ceil(p · 2^53)` (both sides
/// are exact in `f64`), so comparing against this cut gives the same
/// fates as the uniform-`[0, 1)` comparison, without a float per draw.
fn threshold(p: f64) -> u64 {
    (p * 9_007_199_254_740_992.0).ceil() as u64
}

/// The fate the adversary assigns one message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Attempts dropped before the delivering attempt (`RETRY_LIMIT` if
    /// the message was lost).
    pub retries: u32,
    /// The retry budget was exhausted: the message is never delivered.
    pub lost: bool,
    /// A duplicate copy is delivered alongside the original (the receiver
    /// dedups it by round-stamp, mirroring the engine's
    /// `DuplicateEdgeMessage` rule).
    pub duplicate: bool,
    /// Simulated extra latency in pulses (absorbed by the synchronizer;
    /// reported, never outcome-visible).
    pub delay: u64,
}

const CLEAN: Transmission = Transmission {
    retries: 0,
    lost: false,
    duplicate: false,
    delay: 0,
};

/// One scheduled crash fault: the node dies during `pulse`, after
/// emitting a deterministic prefix of that pulse's sends.
#[derive(Debug, Clone, Copy)]
pub struct CrashSpec {
    /// The pulse during which the node dies.
    pub pulse: u64,
    /// Hash key the send-prefix length is derived from (a pure function
    /// of the seed and node, modulated by how many sends the node
    /// actually attempted that pulse).
    prefix_key: u64,
}

impl CrashSpec {
    /// How many of `sends` attempted sends escape before the crash.
    pub fn prefix(&self, sends: usize) -> usize {
        (self.prefix_key % (sends as u64 + 1)) as usize
    }
}

/// A deterministic, seeded fault injector for the async lane.
///
/// The default adversary (any seed, no knobs turned) is **zero-fault**:
/// it delivers everything untouched, which is the configuration the
/// bit-identity cross-validation against [`Engine`](crate::Engine) runs
/// under. Knobs: per-attempt drop probability, duplicate-delivery
/// probability, maximum injected delay, and a number of crash faults.
#[derive(Debug, Clone)]
pub struct Adversary {
    seed: u64,
    /// `threshold` of the per-attempt drop probability.
    drop_cut: u64,
    /// `threshold` of the duplicate-delivery probability.
    dup_cut: u64,
    max_delay: u64,
    crashes: u32,
    crash_horizon: u64,
}

impl Adversary {
    /// A zero-fault adversary under `seed` (the seed only matters once a
    /// fault knob is turned).
    pub fn new(seed: u64) -> Self {
        Adversary {
            seed,
            drop_cut: 0,
            dup_cut: 0,
            max_delay: 0,
            crashes: 0,
            crash_horizon: DEFAULT_CRASH_HORIZON,
        }
    }

    /// Sets the per-attempt drop probability (clamped to `[0, 1]`).
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_cut = threshold(p.clamp(0.0, 1.0));
        self
    }

    /// Sets the duplicate-delivery probability (clamped to `[0, 1]`).
    pub fn with_duplicate_rate(mut self, p: f64) -> Self {
        self.dup_cut = threshold(p.clamp(0.0, 1.0));
        self
    }

    /// Sets the maximum injected delay, in pulses (per-message delays are
    /// drawn uniformly from `0..=max`).
    pub fn with_max_delay(mut self, max: u64) -> Self {
        self.max_delay = max;
        self
    }

    /// Schedules `k` crash faults (capped at the view size when the
    /// schedule is bound).
    pub fn with_crashes(mut self, k: u32) -> Self {
        self.crashes = k;
        self
    }

    /// Sets the crash-pulse horizon (crashes land in `1..=horizon`).
    pub fn with_crash_horizon(mut self, horizon: u64) -> Self {
        self.crash_horizon = horizon.max(1);
        self
    }

    /// The seed the schedule derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of crash faults this adversary schedules.
    pub fn crashes(&self) -> u32 {
        self.crashes
    }

    /// Whether every knob is at its fault-free setting.
    pub fn is_zero_fault(&self) -> bool {
        self.drop_cut == 0 && self.dup_cut == 0 && self.max_delay == 0 && self.crashes == 0
    }

    /// The fate of the message sent along directed edge `edge` during
    /// synchronizer pulse `pulse` — a pure function of
    /// `(seed, pulse, edge)`.
    pub fn transmit(&self, pulse: u64, edge: usize) -> Transmission {
        self.fate(self.pulse_key(pulse), edge)
    }

    /// The per-pulse half of the fate hash. A run derives it once per
    /// pulse and hands it to [`fate`](Self::fate) for every send.
    pub(crate) fn pulse_key(&self, pulse: u64) -> u64 {
        splitmix64(self.seed ^ pulse)
    }

    /// [`transmit`](Self::transmit) for the pulse whose
    /// [`pulse_key`](Self::pulse_key) is `key`.
    pub(crate) fn fate(&self, key: u64, edge: usize) -> Transmission {
        if self.drop_cut == 0 && self.dup_cut == 0 && self.max_delay == 0 {
            return CLEAN;
        }
        let h = splitmix64(key ^ (edge as u64));
        let mut retries = 0u32;
        if self.drop_cut > 0 {
            while retries < RETRY_LIMIT
                && (splitmix64(h ^ SALT_DROP ^ (retries as u64)) >> 11) < self.drop_cut
            {
                retries += 1;
            }
            if retries == RETRY_LIMIT {
                return Transmission {
                    retries,
                    lost: true,
                    duplicate: false,
                    delay: 0,
                };
            }
        }
        let duplicate = self.dup_cut > 0 && (splitmix64(h ^ SALT_DUP) >> 11) < self.dup_cut;
        let delay = if self.max_delay > 0 {
            splitmix64(h ^ SALT_DELAY) % (self.max_delay + 1)
        } else {
            0
        };
        Transmission {
            retries,
            lost: false,
            duplicate,
            delay,
        }
    }

    /// Binds the crash schedule to a concrete view: picks the `k` alive
    /// nodes with the smallest seeded hash keys and assigns each a crash
    /// pulse in `1..=crash_horizon` and a send-prefix key. Returns a
    /// per-node table over the `universe`-sized index space.
    pub fn crash_schedule(&self, universe: usize, alive: &[NodeId]) -> Vec<Option<CrashSpec>> {
        let mut table = vec![None; universe];
        if self.crashes == 0 {
            return table;
        }
        let mut keyed: Vec<(u64, NodeId)> = alive
            .iter()
            .map(|&v| {
                (
                    splitmix64(self.seed ^ SALT_CRASH_PICK ^ (v.index() as u64)),
                    v,
                )
            })
            .collect();
        keyed.sort_unstable();
        for &(_, v) in keyed.iter().take(self.crashes as usize) {
            let pulse = 1 + splitmix64(self.seed ^ SALT_CRASH_PULSE ^ (v.index() as u64))
                % self.crash_horizon;
            let prefix_key = splitmix64(self.seed ^ SALT_CRASH_PREFIX ^ (v.index() as u64));
            table[v.index()] = Some(CrashSpec { pulse, prefix_key });
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_adversary_is_clean_on_every_edge() {
        let adv = Adversary::new(42);
        assert!(adv.is_zero_fault());
        for pulse in 0..10 {
            for edge in 0..100 {
                assert_eq!(adv.transmit(pulse, edge), CLEAN);
            }
        }
        assert!(adv
            .crash_schedule(16, &(0..16).map(NodeId::new).collect::<Vec<_>>())
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn transmissions_are_reproducible_and_seed_sensitive() {
        let a = Adversary::new(7).with_drop_rate(0.3).with_max_delay(4);
        let b = Adversary::new(7).with_drop_rate(0.3).with_max_delay(4);
        let c = Adversary::new(8).with_drop_rate(0.3).with_max_delay(4);
        let same = (0..500).all(|e| a.transmit(3, e) == b.transmit(3, e));
        let differs = (0..500).any(|e| a.transmit(3, e) != c.transmit(3, e));
        assert!(same, "same seed must reproduce the same schedule");
        assert!(differs, "different seeds should diverge somewhere");
    }

    #[test]
    fn integer_cuts_draw_the_same_fates_as_uniform_floats() {
        // The comparison the cuts replace: a uniform in [0, 1) from a
        // hash's top 53 bits, against the probability itself.
        let u01 = |h: u64| (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        let probs = [0.0, 1e-300, 0.01, 0.05, 1.0 / 3.0, 0.5, 0.6, 0.999, 1.0];
        for p in probs {
            let cut = threshold(p);
            for i in 0..20_000u64 {
                let h = splitmix64(i ^ p.to_bits());
                assert_eq!((h >> 11) < cut, u01(h) < p, "p = {p}, draw {i}");
            }
            // Draws right at the cut, where rounding would show.
            for x in [cut.saturating_sub(1), cut, cut + 1] {
                let x = x.min((1 << 53) - 1);
                assert_eq!(x < cut, u01(x << 11) < p, "p = {p}, x = {x}");
            }
        }
    }

    #[test]
    fn heavy_drop_rates_exhaust_the_retry_budget() {
        let adv = Adversary::new(1).with_drop_rate(0.99);
        let lost = (0..1000).filter(|&e| adv.transmit(1, e).lost).count();
        assert!(lost > 800, "p=0.99 should lose most messages, lost {lost}");
        let adv = Adversary::new(1).with_drop_rate(0.01);
        let lost = (0..1000).filter(|&e| adv.transmit(1, e).lost).count();
        assert_eq!(lost, 0, "p=0.01 should essentially never lose a message");
    }

    #[test]
    fn crash_schedule_picks_exactly_k_alive_nodes_mid_phase() {
        let alive: Vec<NodeId> = (0..50).map(NodeId::new).collect();
        let adv = Adversary::new(9).with_crashes(3);
        let table = adv.crash_schedule(64, &alive);
        let picked: Vec<usize> = (0..64).filter(|&v| table[v].is_some()).collect();
        assert_eq!(picked.len(), 3);
        for v in picked {
            assert!(v < 50, "only alive nodes may crash");
            let spec = table[v].unwrap();
            assert!(spec.pulse >= 1 && spec.pulse <= DEFAULT_CRASH_HORIZON);
            assert!(spec.prefix(4) <= 4);
            assert_eq!(spec.prefix(0), 0);
        }
        assert_eq!(
            adv.crash_schedule(64, &alive)
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(v, _)| v)
                .collect::<Vec<_>>(),
            adv.crash_schedule(64, &alive)
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(v, _)| v)
                .collect::<Vec<_>>(),
            "schedule is a pure function of the seed"
        );
    }
}
