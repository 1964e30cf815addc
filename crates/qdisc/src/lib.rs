//! Traffic-control primitives and the flat class plane's configuration.
//!
//! This crate holds the parts every egress discipline in the workspace
//! is built from, free of simulator types: time is a `u64` microsecond
//! count, packets are opaque payloads `T` with a byte size, so the
//! parts can be driven directly by proptests and benches.
//!
//! * a [`ClassMap`] assigns each packet to one of four
//!   [`TrafficClass`]es by destination port;
//! * a [`TokenBucket`] shapes to a [`Shaper`]'s rate and burst in
//!   exact integer bit-µs;
//! * a [`CoDel`] controller watches sojourn times at dequeue and
//!   signals congestion early — ECN-capable packets are marked and
//!   delivered, the rest are dropped;
//! * [`SharedStats`] are the live counters an observer reads.
//!
//! The one scheduler is `htb::ShapingTree`. A [`QdiscConfig`] describes
//! the flat class plane and compiles to that tree at depth one: the
//! root carries the link shaper, and four leaves — one per class, in
//! [`TrafficClass::ALL`] order — each carry their class's DRR quantum,
//! queue cap and CoDel. [`QdiscStats`] reads those leaves back per
//! class. The outcome types ([`EnqueueOutcome`], [`DequeueOutcome`])
//! are the tree's.
//!
//! Everything is integer-deterministic: the same enqueue/dequeue call
//! sequence always yields the same schedule, marks, and drops.
#![forbid(unsafe_code)]

mod class;
mod codel;
mod tbf;

pub use class::{ClassMap, TrafficClass, CLASS_COUNT};
pub use codel::{CoDel, DEFAULT_INTERVAL_US, DEFAULT_TARGET_US};
pub use tbf::{Shaper, TokenBucket};

use std::fmt;
use std::sync::atomic::AtomicU64;

/// Per-class scheduling parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassConfig {
    /// DRR byte quantum: the class's share per scheduling round.
    pub quantum: u32,
    /// Queue depth in packets; arrivals beyond it are tail-dropped.
    pub queue_cap_pkts: usize,
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

/// Live counters for one node of a shaping tree, shared with observers
/// (an SNMP agent reads them through clones of the tree's handle while
/// the tree keeps them current). Backlog, drops, marks and bits sent
/// aggregate over the node's whole subtree, so the root's row is the
/// whole plane's; `borrowed_bits` is attributed to the borrowing leaf
/// alone. All updates happen on the single simulation thread; relaxed
/// ordering is sufficient.
#[derive(Debug, Default)]
pub struct SharedStats {
    /// Bytes currently queued in the subtree.
    pub backlog_bytes: AtomicU64,
    /// Packets currently queued in the subtree.
    pub backlog_pkts: AtomicU64,
    /// Cumulative drops (tail + AQM) in the subtree.
    pub drops: AtomicU64,
    /// Cumulative ECN marks in the subtree.
    pub ecn_marks: AtomicU64,
    /// Bits the leaf sent on borrowed (ancestor) tokens.
    pub borrowed_bits: AtomicU64,
    /// Bits released to the wire from the subtree.
    pub bits_sent: AtomicU64,
}

/// Result of an enqueue attempt. A rejected payload is handed back so
/// the caller can account for it (and tests can inspect it).
#[derive(Debug)]
pub enum EnqueueOutcome<T> {
    /// Accepted into its class queue.
    Queued,
    /// Rejected: the class queue was at capacity.
    TailDropped(T),
}

/// A packet released by a dequeue.
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
