//! The single-shard async lane's transport.
//!
//! A one-shard run is `Engine::run_transported` with [`Seeded`]: the
//! engine's sequential core steps nodes and charges every accepted send,
//! and this transport decides what each send becomes, with the fates,
//! counters and crash events of the multi-shard workers
//! (`Worker::{transmit_edge, deliver_local}`). Sends past a crashing
//! node's prefix are suppressed; the rest draw their [`Adversary`]
//! fate. A send that is lost, suppressed or addressed past its
//! receiver's crash pulse has its slot emptied, so no inbox holds it;
//! one that arrives sets its receiver's bit in the next round's has-mail
//! bitset. A duplicate copy is always discarded by round-stamp, since
//! its original arrived on the same edge in the same round. A pulse's
//! crash nodes get their bit in the current bitset, so that the core
//! visits them even without mail.

use sdnd_graph::{Graph, NodeId};

use crate::engine::{set_mail, Reliable, Slot, Transport};

use super::adversary::{Adversary, CrashSpec};
use super::report::{CrashEvent, FaultReport};

/// The seeded transport of a single-shard run; `report` accumulates the
/// run's fault accounting.
pub(crate) struct Seeded<'a> {
    adversary: &'a Adversary,
    /// Per-node crash schedule (index space of the base graph).
    crash_of: &'a [Option<CrashSpec>],
    /// Scheduled crashes as `(pulse, node)`, in (pulse, node) order.
    crashes: Vec<(u64, NodeId)>,
    /// First entry of `crashes` whose pulse has not begun.
    next_crash: usize,
    /// The adversary's key of the current pulse.
    key: u64,
    /// The adversary injects no fault: every send arrives.
    zero_fault: bool,
    pub(crate) report: FaultReport,
}

impl<'a> Seeded<'a> {
    pub(crate) fn new(adversary: &'a Adversary, crash_of: &'a [Option<CrashSpec>]) -> Self {
        let mut crashes: Vec<(u64, NodeId)> = crash_of
            .iter()
            .enumerate()
            .filter_map(|(v, c)| c.map(|c| (c.pulse, NodeId::new(v))))
            .collect();
        crashes.sort_unstable();
        Seeded {
            adversary,
            crash_of,
            report: FaultReport {
                crashes_planned: crashes.len() as u64,
                ..FaultReport::default()
            },
            crashes,
            next_crash: 0,
            key: 0,
            zero_fault: adversary.is_zero_fault(),
        }
    }
}

impl Transport for Seeded<'_> {
    const VISITS_IDLE: bool = true;

    fn begin_round(&mut self, r: u64, mail: &mut [u64]) {
        self.report.pulses = r;
        self.key = self.adversary.pulse_key(r);
        // Crash faults fire even at nodes without mail: visit them.
        while let Some(&(pulse, v)) = self.crashes.get(self.next_crash) {
            if pulse > r {
                break;
            }
            if pulse == r {
                set_mail(mail, v);
            }
            self.next_crash += 1;
        }
    }

    fn carry<M>(
        &mut self,
        g: &Graph,
        from: NodeId,
        r: u64,
        sent: &mut Vec<usize>,
        slots: &mut [Slot<M>],
        next_mail: &mut [u64],
    ) {
        if self.zero_fault {
            self.report.delivered += sent.len() as u64;
            return Reliable.carry(g, from, r, sent, slots, next_mail);
        }
        let crash = self.crash_of[from.index()].filter(|c| c.pulse == r);
        let escaped = crash.map_or(sent.len(), |c| c.prefix(sent.len()));
        let f = &mut self.report;
        for &e in &sent[escaped..] {
            slots[e] = Slot::empty();
        }
        for &e in &sent[..escaped] {
            let t = self.adversary.fate(self.key, e);
            f.dropped += u64::from(t.retries);
            if t.lost {
                f.retransmits += u64::from(t.retries.saturating_sub(1));
                f.lost += 1;
                slots[e] = Slot::empty();
                continue;
            }
            f.retransmits += u64::from(t.retries);
            if t.delay > 0 {
                f.delayed += 1;
                f.delay_pulses += t.delay;
            }
            f.delivered += 1;
            let copies = 1 + u64::from(t.duplicate);
            f.duplicated += copies - 1;
            let to = g.edge_head(e);
            // The message arrives in round `r + 1`: past the receiver's
            // crash pulse, every copy is discarded.
            if self.crash_of[to.index()].is_some_and(|c| c.pulse <= r) {
                f.to_crashed += copies;
                slots[e] = Slot::empty();
            } else {
                f.deduped += copies - 1;
                set_mail(next_mail, to);
            }
        }
        // A crash node visited without mail dies here too, having sent
        // nothing.
        if crash.is_some() {
            let suppressed = (sent.len() - escaped) as u64;
            f.suppressed_by_crash += suppressed;
            f.crashed.push(CrashEvent {
                node: from,
                pulse: r,
                sent: escaped as u64,
                suppressed,
            });
        }
        sent.clear();
    }
}
