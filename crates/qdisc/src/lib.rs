//! Per-link traffic control: class-based shaping, Deficit Round Robin
//! scheduling, and CoDel-style ECN-capable AQM.
//!
//! This crate is the deterministic queueing discipline `simnet` mounts
//! on link egress. It is deliberately free of simulator types: time is
//! a `u64` microsecond count, packets are opaque payloads `T` with a
//! byte size, so the scheduler can be driven directly by proptests and
//! benches without a network around it.
//!
//! Structure of the plane, outermost first:
//!
//! * a [`ClassMap`] assigns each packet to one of four
//!   [`TrafficClass`]es by destination port;
//! * each class has a bounded FIFO (drop-tail on overflow) and an
//!   optional per-class [`TokenBucket`] shaper;
//! * a [Deficit Round Robin](https://en.wikipedia.org/wiki/Deficit_round_robin)
//!   scheduler shares the link between backlogged classes in
//!   proportion to their byte quanta;
//! * an optional link-level token bucket caps the aggregate rate;
//! * a per-class [`CoDel`] controller watches sojourn times at
//!   dequeue and signals congestion early — ECN-capable packets are
//!   marked and delivered, the rest are dropped.
//!
//! Everything is integer-deterministic: the same enqueue/dequeue call
//! sequence always yields the same schedule, marks, and drops.

mod class;
mod codel;
mod tbf;

pub use class::{ClassMap, TrafficClass, CLASS_COUNT};
pub use codel::{CoDel, DEFAULT_INTERVAL_US, DEFAULT_TARGET_US};
pub use tbf::{Shaper, TokenBucket};

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-class scheduling parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassConfig {
    /// DRR byte quantum: the class's share per scheduling round.
    pub quantum: u32,
    /// Queue depth in packets; arrivals beyond it are tail-dropped.
    pub queue_cap_pkts: usize,
    /// Optional per-class shaper.
    pub shaper: Option<Shaper>,
}

/// Full traffic-control configuration for one link.
#[derive(Clone, Debug, PartialEq)]
pub struct QdiscConfig {
    /// Per-class parameters, indexed by [`TrafficClass::index`].
    pub classes: [ClassConfig; CLASS_COUNT],
    /// Optional aggregate shaper for the whole link.
    pub link_shaper: Option<Shaper>,
    /// CoDel sojourn target (µs).
    pub codel_target_us: u64,
    /// CoDel observation interval (µs).
    pub codel_interval_us: u64,
    /// Port-to-class assignment.
    pub class_map: ClassMap,
}

impl QdiscConfig {
    /// A sensible default plane for a link of `rate_bps`: the link
    /// shaper enforces the rate with a 2-MTU burst; DRR quanta give
    /// `Control` 12.5%, `InteractiveMedia` 50%, `BulkMedia` 25% and
    /// `Background` 12.5% of a congested link; CoDel runs at the
    /// classic 5 ms / 100 ms.
    pub fn for_rate(rate_bps: u64) -> Self {
        let class = |quantum: u32, cap: usize| ClassConfig {
            quantum,
            queue_cap_pkts: cap,
            shaper: None,
        };
        QdiscConfig {
            classes: [
                class(1_500, 64),  // Control
                class(6_000, 256), // InteractiveMedia
                class(3_000, 256), // BulkMedia
                class(1_500, 256), // Background
            ],
            link_shaper: Some(Shaper {
                rate_bps,
                burst_bytes: 3_000,
            }),
            codel_target_us: DEFAULT_TARGET_US,
            codel_interval_us: DEFAULT_INTERVAL_US,
            class_map: ClassMap::collabqos_default(),
        }
    }

    /// Fraction of the aggregate quantum configured for `class`.
    pub fn quantum_share(&self, class: TrafficClass) -> f64 {
        let total: u64 = self.classes.iter().map(|c| c.quantum as u64).sum();
        self.classes[class.index()].quantum as f64 / total as f64
    }

    /// One-line summary (printed by the CI job on failure).
    pub fn summary(&self) -> String {
        let quanta: Vec<String> = TrafficClass::ALL
            .iter()
            .map(|c| format!("{}={}", c, self.classes[c.index()].quantum))
            .collect();
        format!(
            "quanta[{}] link_shaper={:?} codel={}us/{}us",
            quanta.join(" "),
            self.link_shaper,
            self.codel_target_us,
            self.codel_interval_us
        )
    }
}

impl fmt::Display for QdiscConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Mutable per-class counters, exact (not sampled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets released to the link.
    pub dequeued: u64,
    /// Arrivals rejected because the class queue was full.
    pub tail_dropped: u64,
    /// Non-ECT packets dropped by CoDel.
    pub aqm_dropped: u64,
    /// ECN-capable packets marked by CoDel (and still delivered).
    pub ecn_marked: u64,
    /// Current queue depth in packets.
    pub backlog_pkts: u64,
    /// Current queue depth in wire bytes.
    pub backlog_bytes: u64,
    /// Wire bytes released to the link.
    pub bytes_dequeued: u64,
}

/// Snapshot of all per-class counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QdiscStats {
    /// Indexed by [`TrafficClass::index`].
    pub classes: [ClassCounters; CLASS_COUNT],
}

impl QdiscStats {
    /// Counters for one class.
    pub fn class(&self, c: TrafficClass) -> &ClassCounters {
        &self.classes[c.index()]
    }

    /// Total backlog across classes, in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.backlog_bytes).sum()
    }

    /// Total backlog across classes, in packets.
    pub fn backlog_pkts(&self) -> u64 {
        self.classes.iter().map(|c| c.backlog_pkts).sum()
    }

    /// Total drops (tail + AQM) across classes.
    pub fn drops(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.tail_dropped + c.aqm_dropped)
            .sum()
    }

    /// Total ECN marks across classes.
    pub fn ecn_marks(&self) -> u64 {
        self.classes.iter().map(|c| c.ecn_marked).sum()
    }
}

/// Live aggregate counters shared with observers (the SNMP agent reads
/// these through [`StatsHandle`] clones while the qdisc keeps them
/// current). All updates happen on the single simulation thread;
/// relaxed ordering is sufficient.
#[derive(Debug, Default)]
pub struct SharedStats {
    /// Current total backlog in bytes.
    pub backlog_bytes: AtomicU64,
    /// Cumulative drops (tail + AQM).
    pub drops: AtomicU64,
    /// Cumulative ECN marks.
    pub ecn_marks: AtomicU64,
}

/// Cloneable handle to a qdisc's live aggregate counters.
pub type StatsHandle = Arc<SharedStats>;

/// Result of an enqueue attempt. A rejected payload is handed back so
/// the caller can account for it (and tests can inspect it).
#[derive(Debug)]
pub enum EnqueueOutcome<T> {
    /// Accepted into its class queue.
    Queued,
    /// Rejected: the class queue was at capacity.
    TailDropped(T),
}

/// A packet released by [`Qdisc::dequeue`].
#[derive(Debug)]
pub struct Released<T> {
    /// The payload handed to `enqueue`.
    pub payload: T,
    /// Class it was queued under.
    pub class: TrafficClass,
    /// Wire size.
    pub bytes: u32,
    /// Whether CoDel marked it (ECN Congestion Experienced).
    pub ecn_marked: bool,
    /// Time spent queued, µs.
    pub sojourn_us: u64,
}

/// Result of a dequeue attempt.
#[derive(Debug)]
pub struct DequeueOutcome<T> {
    /// The packet to put on the wire, if one was eligible.
    pub released: Option<Released<T>>,
    /// Non-ECT packets CoDel dropped while selecting it.
    pub aqm_dropped: Vec<(TrafficClass, T)>,
    /// When nothing was eligible: the earliest instant a head-of-line
    /// packet conforms to its shapers (`None` when all queues are
    /// empty).
    pub next_at: Option<u64>,
}

struct Entry<T> {
    payload: T,
    bytes: u32,
    ecn_capable: bool,
    enqueued_at: u64,
}

/// The per-link traffic-control plane. See the crate docs for the
/// component walk-through.
pub struct Qdisc<T> {
    cfg: QdiscConfig,
    queues: [VecDeque<Entry<T>>; CLASS_COUNT],
    class_tbf: [Option<TokenBucket>; CLASS_COUNT],
    link_tbf: Option<TokenBucket>,
    codel: [CoDel; CLASS_COUNT],
    /// DRR byte deficits.
    deficit: [u64; CLASS_COUNT],
    /// Class the scheduler is currently visiting.
    cursor: usize,
    /// Whether the cursor's class already received its quantum for the
    /// current visit.
    granted: bool,
    stats: QdiscStats,
    shared: StatsHandle,
}

impl<T> Qdisc<T> {
    /// A fresh plane with empty queues and full token buckets.
    pub fn new(cfg: QdiscConfig) -> Self {
        let class_tbf = std::array::from_fn(|i| cfg.classes[i].shaper.map(TokenBucket::new));
        let link_tbf = cfg.link_shaper.map(TokenBucket::new);
        let codel = std::array::from_fn(|_| CoDel::new(cfg.codel_target_us, cfg.codel_interval_us));
        Qdisc {
            cfg,
            queues: std::array::from_fn(|_| VecDeque::new()),
            class_tbf,
            link_tbf,
            codel,
            deficit: [0; CLASS_COUNT],
            cursor: 0,
            granted: false,
            stats: QdiscStats::default(),
            shared: Arc::new(SharedStats::default()),
        }
    }

    /// The configuration this plane was built with.
    pub fn config(&self) -> &QdiscConfig {
        &self.cfg
    }

    /// Class for a destination port, per the configured map.
    pub fn classify(&self, port: u16) -> TrafficClass {
        self.cfg.class_map.classify(port)
    }

    /// Snapshot of the per-class counters.
    pub fn stats(&self) -> &QdiscStats {
        &self.stats
    }

    /// Handle to the live aggregate counters (for SNMP instrumentation).
    pub fn shared_stats(&self) -> StatsHandle {
        Arc::clone(&self.shared)
    }

    /// Total packets currently queued.
    pub fn backlog_pkts(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Mirror the aggregate backlog into the shared counters so
    /// external observers (e.g. an SNMP agent) read a live value.
    fn publish_backlog(&self) {
        self.shared
            .backlog_bytes
            .store(self.stats.backlog_bytes(), Ordering::Relaxed);
    }

    /// Offer a packet of `bytes` wire bytes to class `class` at instant
    /// `now_us`. Bounded queue: overflow hands the payload back as
    /// [`EnqueueOutcome::TailDropped`].
    pub fn enqueue(
        &mut self,
        now_us: u64,
        class: TrafficClass,
        bytes: u32,
        ecn_capable: bool,
        payload: T,
    ) -> EnqueueOutcome<T> {
        let i = class.index();
        if self.queues[i].len() >= self.cfg.classes[i].queue_cap_pkts {
            self.stats.classes[i].tail_dropped += 1;
            self.shared.drops.fetch_add(1, Ordering::Relaxed);
            return EnqueueOutcome::TailDropped(payload);
        }
        self.queues[i].push_back(Entry {
            payload,
            bytes,
            ecn_capable,
            enqueued_at: now_us,
        });
        let c = &mut self.stats.classes[i];
        c.enqueued += 1;
        c.backlog_pkts += 1;
        c.backlog_bytes += bytes as u64;
        self.publish_backlog();
        EnqueueOutcome::Queued
    }

    /// Whether the head of class `i` conforms to both its shaper and
    /// the link shaper at `now`.
    fn head_conforms(&self, i: usize, now: u64) -> bool {
        let Some(head) = self.queues[i].front() else {
            return false;
        };
        self.class_tbf[i]
            .as_ref()
            .is_none_or(|tb| tb.conforms(now, head.bytes))
            && self
                .link_tbf
                .as_ref()
                .is_none_or(|tb| tb.conforms(now, head.bytes))
    }

    /// Earliest instant `>= after_us` at which some head-of-line packet
    /// conforms to its shapers, or `None` when every queue is empty.
    pub fn next_ready(&self, after_us: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        for i in 0..CLASS_COUNT {
            let Some(head) = self.queues[i].front() else {
                continue;
            };
            let mut t = after_us;
            if let Some(tb) = &self.class_tbf[i] {
                t = t.max(tb.next_conforming(after_us, head.bytes));
            }
            if let Some(tb) = &self.link_tbf {
                t = t.max(tb.next_conforming(after_us, head.bytes));
            }
            best = Some(best.map_or(t, |b: u64| b.min(t)));
        }
        best
    }

    fn advance_cursor(&mut self) {
        self.cursor = (self.cursor + 1) % CLASS_COUNT;
        self.granted = false;
    }

    /// Run the scheduler at instant `now_us` and release at most one
    /// packet. CoDel may additionally drop non-ECT packets on the way;
    /// they are returned for accounting. When nothing is eligible the
    /// outcome carries `next_at` so the caller can reschedule.
    pub fn dequeue(&mut self, now_us: u64) -> DequeueOutcome<T> {
        let mut aqm_dropped = Vec::new();
        loop {
            if !(0..CLASS_COUNT).any(|i| self.head_conforms(i, now_us)) {
                return DequeueOutcome {
                    released: None,
                    aqm_dropped,
                    next_at: self.next_ready(now_us),
                };
            }
            let i = self.cursor;
            if self.queues[i].is_empty() {
                self.deficit[i] = 0;
                self.advance_cursor();
                continue;
            }
            if !self.head_conforms(i, now_us) {
                // Shaper-blocked: the class is rate-limited elsewhere;
                // forfeit its deficit and let the others run.
                self.deficit[i] = 0;
                self.advance_cursor();
                continue;
            }
            if !self.granted {
                self.deficit[i] += self.cfg.classes[i].quantum as u64;
                self.granted = true;
            }
            let head_bytes = self.queues[i].front().expect("non-empty").bytes as u64;
            if self.deficit[i] < head_bytes {
                // Share spent for this round.
                self.advance_cursor();
                continue;
            }
            let entry = self.queues[i].pop_front().expect("non-empty");
            self.deficit[i] -= head_bytes;
            let stats = &mut self.stats.classes[i];
            stats.backlog_pkts -= 1;
            stats.backlog_bytes -= entry.bytes as u64;
            let sojourn = now_us.saturating_sub(entry.enqueued_at);
            let signal = self.codel[i].on_dequeue(now_us, sojourn);
            if signal && !entry.ecn_capable {
                stats.aqm_dropped += 1;
                self.shared.drops.fetch_add(1, Ordering::Relaxed);
                self.publish_backlog();
                aqm_dropped.push((TrafficClass::ALL[i], entry.payload));
                continue;
            }
            if signal {
                stats.ecn_marked += 1;
                self.shared.ecn_marks.fetch_add(1, Ordering::Relaxed);
            }
            stats.dequeued += 1;
            stats.bytes_dequeued += entry.bytes as u64;
            if let Some(tb) = &mut self.class_tbf[i] {
                tb.consume(now_us, entry.bytes);
            }
            if let Some(tb) = &mut self.link_tbf {
                tb.consume(now_us, entry.bytes);
            }
            if self.queues[i].is_empty() {
                self.deficit[i] = 0;
                self.advance_cursor();
            }
            self.publish_backlog();
            return DequeueOutcome {
                released: Some(Released {
                    payload: entry.payload,
                    class: TrafficClass::ALL[i],
                    bytes: entry.bytes,
                    ecn_marked: signal,
                    sojourn_us: sojourn,
                }),
                aqm_dropped,
                next_at: None,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config with no shapers and an effectively inert CoDel, for
    /// pure scheduling tests.
    fn drr_only() -> QdiscConfig {
        let mut cfg = QdiscConfig::for_rate(1_000_000);
        cfg.link_shaper = None;
        cfg.codel_target_us = u64::MAX / 2;
        cfg
    }

    #[test]
    fn empty_dequeue_reports_empty() {
        let mut q: Qdisc<u32> = Qdisc::new(drr_only());
        let out = q.dequeue(0);
        assert!(out.released.is_none());
        assert!(out.aqm_dropped.is_empty());
        assert_eq!(out.next_at, None);
    }

    #[test]
    fn fifo_within_class() {
        let mut q: Qdisc<u32> = Qdisc::new(drr_only());
        for n in 0..5u32 {
            q.enqueue(0, TrafficClass::Background, 100, false, n);
        }
        let got: Vec<u32> = (0..5)
            .map(|_| q.dequeue(0).released.unwrap().payload)
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drr_shares_follow_quanta() {
        let mut q: Qdisc<u32> = Qdisc::new(drr_only());
        // Keep every class deeply backlogged with unequal packet sizes.
        let sizes = [700u32, 1000, 500, 900];
        for _ in 0..200 {
            for (ci, &sz) in sizes.iter().enumerate() {
                q.enqueue(0, TrafficClass::ALL[ci], sz, false, 0);
            }
        }
        let mut served = [0u64; CLASS_COUNT];
        for _ in 0..400 {
            let rel = q.dequeue(0).released.expect("backlogged");
            served[rel.class.index()] += rel.bytes as u64;
        }
        let total: u64 = served.iter().sum();
        let quanta: u64 = q.config().classes.iter().map(|c| c.quantum as u64).sum();
        for (ci, &s) in served.iter().enumerate() {
            let expected = total as f64 * q.config().classes[ci].quantum as f64 / quanta as f64;
            let slack = (q.config().classes[ci].quantum + 1000) as f64;
            assert!(
                (s as f64 - expected).abs() <= slack,
                "class {ci}: served {s}, expected ~{expected:.0} ± {slack}"
            );
        }
    }

    #[test]
    fn tail_drop_returns_payload() {
        let mut cfg = drr_only();
        cfg.classes[TrafficClass::Control.index()].queue_cap_pkts = 2;
        let mut q: Qdisc<u32> = Qdisc::new(cfg);
        assert!(matches!(
            q.enqueue(0, TrafficClass::Control, 10, false, 1),
            EnqueueOutcome::Queued
        ));
        assert!(matches!(
            q.enqueue(0, TrafficClass::Control, 10, false, 2),
            EnqueueOutcome::Queued
        ));
        match q.enqueue(0, TrafficClass::Control, 10, false, 3) {
            EnqueueOutcome::TailDropped(p) => assert_eq!(p, 3),
            EnqueueOutcome::Queued => panic!("expected tail drop"),
        }
        assert_eq!(q.stats().class(TrafficClass::Control).tail_dropped, 1);
        assert_eq!(q.stats().drops(), 1);
    }

    #[test]
    fn link_shaper_paces_and_next_ready_predicts() {
        let mut cfg = drr_only();
        cfg.link_shaper = Some(Shaper {
            rate_bps: 8_000_000, // 1 byte/µs
            burst_bytes: 1_000,
        });
        let mut q: Qdisc<u32> = Qdisc::new(cfg);
        for n in 0..3u32 {
            q.enqueue(0, TrafficClass::Background, 1_000, false, n);
        }
        // First packet rides the burst.
        assert!(q.dequeue(0).released.is_some());
        // Bucket empty: next conforms 1000 µs later.
        let out = q.dequeue(0);
        assert!(out.released.is_none());
        assert_eq!(out.next_at, Some(1_000));
        assert!(q.dequeue(999).released.is_none());
        assert!(q.dequeue(1_000).released.is_some());
        assert_eq!(q.next_ready(1_000), Some(2_000));
    }

    #[test]
    fn codel_marks_ecn_and_drops_non_ect() {
        let mut cfg = drr_only();
        cfg.codel_target_us = 5_000;
        cfg.codel_interval_us = 2_000;
        let mut q: Qdisc<&'static str> = Qdisc::new(cfg);
        // Everything queued at t=0, drained starting well past the
        // interval: sojourn is persistently above target.
        for n in 0..20 {
            let ecn = n % 3 == 0;
            q.enqueue(
                0,
                TrafficClass::BulkMedia,
                100,
                ecn,
                if ecn { "ect" } else { "not" },
            );
        }
        let mut marked = 0;
        let mut dropped = 0;
        let mut t = 150_000;
        loop {
            let out = q.dequeue(t);
            dropped += out.aqm_dropped.len();
            match out.released {
                Some(rel) => {
                    if rel.ecn_marked {
                        assert_eq!(rel.payload, "ect", "only ECT packets are marked");
                        marked += 1;
                    }
                }
                None => break,
            }
            t += 1_000;
        }
        assert!(marked >= 1, "expected ECN marks, got {marked}");
        assert!(dropped >= 1, "expected non-ECT drops, got {dropped}");
        assert_eq!(q.stats().ecn_marks(), marked as u64);
        assert_eq!(
            q.stats().class(TrafficClass::BulkMedia).aqm_dropped,
            dropped as u64
        );
    }

    #[test]
    fn shared_stats_track_backlog_and_drops() {
        let mut cfg = drr_only();
        cfg.classes[TrafficClass::Background.index()].queue_cap_pkts = 1;
        let mut q: Qdisc<u32> = Qdisc::new(cfg);
        let h = q.shared_stats();
        q.enqueue(0, TrafficClass::Background, 500, false, 0);
        assert_eq!(h.backlog_bytes.load(Ordering::Relaxed), 500);
        q.enqueue(0, TrafficClass::Background, 500, false, 1);
        assert_eq!(h.drops.load(Ordering::Relaxed), 1);
        q.dequeue(0);
        assert_eq!(h.backlog_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn deterministic_schedule() {
        let run = || {
            let mut q: Qdisc<u32> = Qdisc::new(QdiscConfig::for_rate(1_000_000));
            let mut trace = Vec::new();
            for n in 0..50u32 {
                let class = TrafficClass::ALL[(n % 4) as usize];
                q.enqueue((n as u64) * 100, class, 300 + (n % 7) * 90, n % 3 == 0, n);
            }
            let mut t = 0u64;
            for _ in 0..200 {
                let out = q.dequeue(t);
                if let Some(rel) = out.released {
                    trace.push((t, rel.payload, rel.class, rel.ecn_marked));
                    t += 100;
                } else {
                    match out.next_at {
                        Some(at) => t = at.max(t + 1),
                        None => break,
                    }
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
