//! The flat class plane as a tree: a [`QdiscConfig`] compiled to a root
//! that carries the link shaper and four leaves, one per traffic class,
//! each with its own DRR quantum, queue cap and CoDel — and [`Qdisc`],
//! the class-keyed front end over that tree.
//!
//! The tree's DRR walk over these four leaves is the flat scheduler:
//! the cursor visits the classes in [`TrafficClass::ALL`] order, an
//! empty or shaper-blocked class forfeits its deficit, and every path
//! ends at the one link bucket. `tests/qdisc.rs` holds the tree to the
//! flat walk, transcribed there over the `qdisc` primitives.

use super::{Leaf, Node, ShapingTree, TreeStatsHandle, ROOT};
use qdisc::{
    ClassCounters, CoDel, DequeueOutcome, EnqueueOutcome, QdiscConfig, QdiscStats, TokenBucket,
    TrafficClass, CLASS_COUNT,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

impl<T> ShapingTree<T> {
    /// Compile a flat class plane: the root carries `cfg.link_shaper`
    /// (no bucket when it is `None`), and leaf `i` under it serves
    /// class `i` with that class's quantum and queue cap. Leaves have
    /// no buckets of their own, so nothing is borrowed.
    pub fn for_classes(cfg: &QdiscConfig) -> ShapingTree<T> {
        let unshaped = |parent| Node {
            rate: None,
            ceil: None,
            parent,
        };
        let mut nodes = vec![Node {
            ceil: cfg.link_shaper.map(TokenBucket::new),
            ..unshaped(ROOT)
        }];
        let mut leaves = Vec::with_capacity(CLASS_COUNT);
        for class in &cfg.classes {
            leaves.push(Leaf::new(
                nodes.len(),
                class.quantum as u64,
                class.queue_cap_pkts,
                CoDel::new(cfg.codel_target_us, cfg.codel_interval_us),
            ));
            nodes.push(unshaped(ROOT));
        }
        ShapingTree::assemble(
            cfg.class_map.clone(),
            nodes,
            leaves,
            BTreeMap::new(),
            std::array::from_fn(|i| i),
        )
    }

    /// Per-class counters, read off the class leaves of a tree built by
    /// [`ShapingTree::for_classes`]; `None` for a [`super::TreeSpec`]
    /// tree, whose leaves are subscribers.
    pub fn class_stats(&self) -> Option<QdiscStats> {
        self.by_class.then(|| QdiscStats {
            classes: std::array::from_fn(|li| self.leaf_counters(li)),
        })
    }

    fn leaf_counters(&self, li: usize) -> ClassCounters {
        let leaf = &self.leaves[li];
        let live = self.shared.node(leaf.node);
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let backlog_pkts = load(&live.backlog_pkts);
        let aqm_dropped = load(&live.drops) - leaf.tail_dropped;
        ClassCounters {
            enqueued: leaf.enqueued,
            // An accepted packet was released, dropped by the AQM, or
            // is still queued.
            dequeued: leaf.enqueued - aqm_dropped - backlog_pkts,
            tail_dropped: leaf.tail_dropped,
            aqm_dropped,
            ecn_marked: load(&live.ecn_marks),
            backlog_pkts,
            backlog_bytes: load(&live.backlog_bytes),
            bytes_dequeued: load(&live.bits_sent) / 8,
        }
    }
}

/// The flat class plane, keyed by class: a [`ShapingTree`] compiled
/// from a [`QdiscConfig`], driven the same way (`enqueue` at arrival,
/// `dequeue` whenever the wire is free, reschedule at `next_at`).
pub struct Qdisc<T> {
    cfg: QdiscConfig,
    tree: ShapingTree<T>,
}

impl<T> Qdisc<T> {
    /// A fresh plane with empty queues and full token buckets.
    pub fn new(cfg: QdiscConfig) -> Self {
        Qdisc {
            tree: ShapingTree::for_classes(&cfg),
            cfg,
        }
    }

    /// The configuration this plane was built with.
    pub fn config(&self) -> &QdiscConfig {
        &self.cfg
    }

    /// Snapshot of the per-class counters.
    pub fn stats(&self) -> QdiscStats {
        self.tree
            .class_stats()
            .expect("compiled from a QdiscConfig")
    }

    /// Handle to the live counters; the root's are the aggregate.
    pub fn shared_stats(&self) -> TreeStatsHandle {
        self.tree.shared_stats()
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
        self.tree.push(i, i, now_us, bytes, ecn_capable, payload)
    }

    /// Earliest instant `>= after_us` at which some head-of-line packet
    /// conforms to the link shaper, or `None` when every queue is empty.
    pub fn next_ready(&self, after_us: u64) -> Option<u64> {
        self.tree.next_ready(after_us)
    }

    /// Release at most one packet at instant `now_us`; see
    /// [`ShapingTree::dequeue`].
    pub fn dequeue(&mut self, now_us: u64) -> DequeueOutcome<T> {
        self.tree.dequeue(now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdisc::Shaper;

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
