//! E2E + property acceptance for the hierarchical shaping tree (CI
//! job `htb`): borrow-ledger accounting under arbitrary plan
//! catalogs, work conservation under saturation, the indexed scheduler
//! against a linear-scan transcription of its definition, custody surviving
//! uplink flaps with a shaped inter-broker link, the `qosPlanAlert`
//! trap driving the congestion adaptation path at session level, and
//! replay bit-identity with a tree mounted.
//!
//! Deterministic: proptest cases come from the in-tree shim's
//! per-test seed, and scenario seeds shift with `CHAOS_SEED` so the
//! nightly soak sweeps fresh RNG streams over the same invariants.

use collabqos::broker::Overlay;
use collabqos::core::trapwatch::{decision_from_trap, qos_plan_alert_trap_oid};
use collabqos::dtn::StoreConfig;
use collabqos::htb::{EnqueueOutcome, RatePlan, ShapingTree, TreeSpec, DEFAULT_LEAF, ROOT};
use collabqos::prelude::*;
use collabqos::simnet::qdisc::{ClassMap, CoDel, Shaper, TokenBucket, TrafficClass, CLASS_COUNT};
use collabqos::simnet::rtp::ReceiverReport;
use collabqos::simnet::Network;
use collabqos::snmp::transport::TrapSink;
use collabqos::snmp::SnmpValue;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use testkit::{join_domain, topic_profile, Client, Scenario};

const PKT_BITS: u64 = 1_500 * 8;
/// Token-bucket depth (3000 B) plus one packet, as bit-budget slack.
const SLACK_BITS: u64 = 3_000 * 8 + PKT_BITS;

/// Base seed shifted by the `CHAOS_SEED` environment offset (`0` /
/// unset = the committed defaults). The nightly chaos-soak workflow
/// sweeps offsets `0..16`; failures replay with `CHAOS_SEED=<offset>`.
fn chaos_seed(base: u64) -> u64 {
    let offset = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    base.wrapping_add(offset)
}

/// Drain a saturated tree until `horizon_us`, leaving queues as they
/// fall; returns total released packets.
fn drain_until<T>(tree: &mut ShapingTree<T>, horizon_us: u64) -> u64 {
    let mut t = 0u64;
    let mut pkts = 0u64;
    loop {
        let out = tree.dequeue(t);
        if out.released.is_some() {
            pkts += 1;
            continue;
        }
        match out.next_at {
            Some(n) if n < horizon_us => t = n,
            _ => return pkts,
        }
    }
}

proptest! {
    /// Borrow accounting under arbitrary plan catalogs: a leaf never
    /// exceeds its ceiling, every bit beyond its assured rate is in
    /// its borrow ledger, and the sum of all borrows is funded by the
    /// ancestors' assured pools — a child cannot conjure tokens.
    #[test]
    fn borrow_ledger_accounts_every_bit_beyond_assured(
        subs in 2usize..6,
        assured_kbps in proptest::collection::vec(256u64..2_000, 6..7),
        ceil_mult in 2u64..4,
    ) {
        const UPLINK: u64 = 10_000_000;
        const T: u64 = 500_000;
        let mut spec = TreeSpec::new(UPLINK);
        let site = spec.add_site("site", UPLINK, UPLINK);
        let mut dsts = Vec::new();
        for (i, &kbps) in assured_kbps.iter().enumerate().take(subs) {
            let assured = kbps * 1_000;
            let plan = RatePlan::new(&format!("p{i}"), assured, assured * ceil_mult);
            let dst = 100 + i as u32;
            spec.add_subscriber(site, &format!("s{i}"), &plan, dst);
            dsts.push(dst);
        }
        let mut tree: ShapingTree<usize> = ShapingTree::new(spec);
        let stats = tree.shared_stats();
        for (i, &dst) in dsts.iter().enumerate() {
            for _ in 0..200 {
                let _ = tree.enqueue(0, dst, 0, 1_500, true, i);
            }
        }
        drain_until(&mut tree, T);

        let mut total_borrowed = 0u64;
        for &dst in &dsts {
            let leaf = tree.leaf_for_dst(dst);
            let sent = stats.bits_sent(leaf);
            let borrowed = stats.borrowed_bits(leaf);
            let assured_budget = stats.rate_bps(leaf) * T / 1_000_000;
            let ceil_budget = stats.ceil_bps(leaf) * T / 1_000_000;
            prop_assert!(
                sent <= ceil_budget + SLACK_BITS,
                "leaf {leaf} sent {sent} bits over a {ceil_budget}-bit ceiling budget"
            );
            prop_assert!(
                sent <= assured_budget + borrowed + SLACK_BITS,
                "leaf {leaf} sent {sent} bits with only {assured_budget} assured + {borrowed} borrowed"
            );
            total_borrowed += borrowed;
        }
        // Borrowed tokens come out of the site's and root's assured
        // pools (the only interior nodes here).
        let ancestor_budget = (stats.rate_bps(0) + stats.rate_bps(2)) * T / 1_000_000;
        prop_assert!(
            total_borrowed <= ancestor_budget + 2 * SLACK_BITS,
            "leaves borrowed {total_borrowed} bits against {ancestor_budget} of ancestor budget"
        );
        // Subtree aggregation: no interior node out-spends its ceiling.
        for n in 0..stats.node_count() {
            let budget = stats.ceil_bps(n) * T / 1_000_000 + SLACK_BITS;
            prop_assert!(stats.bits_sent(n) <= budget, "node {n} exceeded its subtree ceiling");
        }
    }

    /// Work conservation: when every leaf stays backlogged and the
    /// catalog's ceilings cover the uplink, the root moves at least
    /// 90% of capacity — surplus never idles while demand waits.
    #[test]
    fn saturated_tree_is_work_conserving(
        subs in 4usize..8,
        assured_kbps in proptest::collection::vec(400u64..1_200, 8..9),
    ) {
        const UPLINK: u64 = 4_000_000;
        const T: u64 = 500_000;
        let mut spec = TreeSpec::new(UPLINK);
        let site = spec.add_site("site", UPLINK, UPLINK);
        for (i, &kbps) in assured_kbps.iter().enumerate().take(subs) {
            let assured = kbps * 1_000;
            let plan = RatePlan::new(&format!("p{i}"), assured, 2_000_000);
            spec.add_subscriber(site, &format!("s{i}"), &plan, 100 + i as u32);
        }
        let mut tree: ShapingTree<usize> = ShapingTree::new(spec);
        let stats = tree.shared_stats();
        // 300 packets per leaf: more than any leaf can drain inside T.
        for i in 0..subs {
            for _ in 0..300 {
                let _ = tree.enqueue(0, 100 + i as u32, 0, 1_500, true, i);
            }
        }
        drain_until(&mut tree, T);
        let capacity = UPLINK * T / 1_000_000;
        let moved = stats.bits_sent(collabqos::htb::ROOT);
        prop_assert!(
            moved * 10 >= capacity * 9,
            "root moved {moved} of {capacity} bits with every leaf backlogged"
        );
    }
}

/// The 8-tier plan catalog (assured / ceiling, bits/s), copper to biz-l.
const TIERS: [(&str, u64, u64); 8] = [
    ("copper", 512_000, 1_000_000),
    ("bronze", 1_000_000, 2_000_000),
    ("silver", 1_500_000, 3_000_000),
    ("gold", 2_000_000, 4_000_000),
    ("platinum", 3_000_000, 6_000_000),
    ("biz-s", 4_000_000, 8_000_000),
    ("biz-m", 5_000_000, 10_000_000),
    ("biz-l", 6_000_000, 12_000_000),
];

/// An ISP's tree at scale: a 2.5 Gbit/s uplink, 4 sites, 16 APs and
/// 1 000 or 16 000 subscriber leaves on the 8 tiers, every leaf kept
/// 24 packets deep for one simulated second. No subscriber exceeds its
/// ceiling in any 100 ms window, no node's subtree out-spends its own
/// ceiling, the saturated tree never goes idle and the root moves at
/// least 93% of the uplink.
#[test]
fn an_isp_tree_holds_every_ceiling_and_conserves_work_at_scale() {
    const UPLINK: u64 = 2_500_000_000;
    const T: u64 = 1_000_000;
    const WINDOW: u64 = 100_000;
    for subs in [1_000usize, 16_000] {
        let mut spec = TreeSpec::new(UPLINK);
        let mut aps = Vec::new();
        for s in 0..4 {
            let site = spec.add_site(&format!("site{s}"), UPLINK / 4, UPLINK / 2);
            for a in 0..4 {
                aps.push(spec.add_ap(site, &format!("ap{s}.{a}"), UPLINK / 16, UPLINK / 4));
            }
        }
        for i in 0..subs {
            let (name, assured, ceil) = TIERS[i % TIERS.len()];
            let plan = RatePlan::new(name, assured, ceil);
            spec.add_subscriber(
                aps[i % aps.len()],
                &format!("sub{i}"),
                &plan,
                10_000 + i as u32,
            );
        }
        assert_eq!(spec.subscriber_count(), subs);
        let mut tree: ShapingTree<usize> = ShapingTree::new(spec);
        let stats = tree.shared_stats();
        let dst = |i: usize| 10_000 + i as u32;
        let leaf_of: Vec<usize> = (0..subs).map(|i| tree.leaf_for_dst(dst(i))).collect();
        for i in 0..subs {
            for _ in 0..24 {
                let queued = tree.enqueue(0, dst(i), 0, 1_500, true, i);
                assert!(
                    matches!(queued, EnqueueOutcome::Queued),
                    "prefill overflows leaf queue"
                );
            }
        }
        let check_window = |win_bits: &[u64]| {
            for (i, &bits) in win_bits.iter().enumerate() {
                let budget = stats.ceil_bps(leaf_of[i]) * WINDOW / 1_000_000;
                assert!(
                    bits <= budget + SLACK_BITS,
                    "{subs} subs: sub{i} sent {bits} bits in a window, ceiling budget {budget}"
                );
            }
        };
        let mut win_bits = vec![0u64; subs];
        let (mut window_end, mut t) = (WINDOW, 0u64);
        loop {
            let out = tree.dequeue(t);
            // ECT traffic is marked, not dropped; refill whatever CoDel
            // sheds all the same so the leaf stays saturated.
            for (_, i) in out.aqm_dropped {
                let _ = tree.enqueue(t, dst(i), 0, 1_500, true, i);
            }
            if let Some(rel) = out.released {
                let i = rel.payload;
                win_bits[i] += u64::from(rel.bytes) * 8;
                let _ = tree.enqueue(t, dst(i), 0, 1_500, true, i);
                continue;
            }
            let next = out.next_at.expect("a saturated tree never goes empty");
            if next >= T {
                break;
            }
            t = next;
            while t >= window_end {
                check_window(&win_bits);
                win_bits.iter_mut().for_each(|b| *b = 0);
                window_end += WINDOW;
            }
        }
        check_window(&win_bits);
        for n in 0..stats.node_count() {
            let budget = stats.ceil_bps(n) * T / 1_000_000 + SLACK_BITS;
            assert!(
                stats.bits_sent(n) <= budget,
                "{subs} subs: node {n} sent {} bits, ceiling budget {budget}",
                stats.bits_sent(n)
            );
        }
        let (moved, capacity) = (stats.bits_sent(ROOT), UPLINK * T / 1_000_000);
        assert!(
            moved as f64 >= 0.93 * capacity as f64,
            "{subs} subs: root moved {moved} of {capacity} bits"
        );
    }
}

/// A gold subscriber leaf offered 400 packets a second against a
/// ceiling that drains about 333 builds its sojourn slowly: CoDel's
/// first ECT mark lands strictly before the leaf FIFO's first tail
/// drop.
#[test]
fn a_subscriber_leaf_marks_before_it_drops() {
    let mut spec = TreeSpec::new(100_000_000);
    let site = spec.add_site("site", 100_000_000, 100_000_000);
    spec.add_subscriber(site, "sub", &RatePlan::new("gold", 2_000_000, 4_000_000), 1);
    let mut tree: ShapingTree<()> = ShapingTree::new(spec);
    let (mut first_mark, mut first_drop) = (None, None);
    let (mut t, mut t_enq) = (0u64, 0u64);
    while first_drop.is_none() && t_enq < 60_000_000 {
        while let Some(at) = tree.next_ready(t) {
            if at > t_enq {
                break;
            }
            t = at;
            if tree.dequeue(t).released.is_some_and(|r| r.ecn_marked) && first_mark.is_none() {
                first_mark = Some(t);
            }
        }
        t = t_enq;
        if let EnqueueOutcome::TailDropped(()) = tree.enqueue(t, 1, 0, 1_500, true, ()) {
            first_drop = Some(t);
        }
        t_enq += 2_500;
    }
    let mark = first_mark.expect("CoDel marked the standing queue");
    let drop = first_drop.expect("the FIFO eventually tail-dropped");
    assert!(
        mark < drop,
        "first mark at {mark} µs must precede first drop at {drop} µs"
    );
}

// ------------------------------------- scheduler vs. its definition

/// What one `dequeue` did, in a form both schedulers can produce:
/// the release as `(payload, bytes, CE mark, sojourn µs)`, the
/// payloads CoDel dropped on the way, and the reschedule instant.
#[derive(Debug, PartialEq, Eq)]
struct Served {
    released: Option<(u32, u32, bool, u64)>,
    aqm_dropped: Vec<u32>,
    next_at: Option<u64>,
}

/// Per-node counters, as `TreeStatsHandle` reports them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counters {
    bits_sent: u64,
    borrowed_bits: u64,
    drops: u64,
    ecn_marks: u64,
    backlog_bytes: u64,
}

struct ScanNode {
    rate: TokenBucket,
    ceil: TokenBucket,
    parent: usize,
}

struct ScanEntry {
    payload: u32,
    bytes: u32,
    ecn_capable: bool,
    enqueued_at: u64,
}

struct ScanLeaf {
    node: usize,
    queues: [VecDeque<ScanEntry>; CLASS_COUNT],
    codel: CoDel,
    deficit: u64,
    quantum: u64,
}

impl ScanLeaf {
    fn head_class(&self) -> Option<usize> {
        (0..CLASS_COUNT).find(|&c| !self.queues[c].is_empty())
    }

    fn head_bytes(&self) -> Option<u32> {
        self.head_class().map(|c| self.queues[c][0].bytes)
    }
}

/// The tree scheduler as it is *defined*: the linear-scan `ShapingTree`
/// core that preceded the indexed one, transcribed over the public
/// `qdisc` primitives. Every `next_ready` looks at every leaf and the
/// DRR cursor steps one leaf at a time, so nothing here can share a
/// bookkeeping bug with the ready/waiting index it is compared against.
struct ScanTree {
    nodes: Vec<ScanNode>,
    counters: Vec<Counters>,
    leaves: Vec<ScanLeaf>,
    dst_map: BTreeMap<u32, usize>,
    class_map: ClassMap,
    queue_cap: usize,
    cursor: usize,
    granted: bool,
}

impl ScanTree {
    /// Mirror of `ShapingTree::new` for a spec built with `knobs`
    /// (the spec keeps those private, so the caller passes them again).
    fn new(spec: &TreeSpec, knobs: &Knobs) -> ScanTree {
        let bucket = |rate_bps| {
            TokenBucket::new(Shaper {
                rate_bps,
                burst_bytes: knobs.burst_bytes,
            })
        };
        let nodes = (0..spec.node_count())
            .map(|n| ScanNode {
                rate: bucket(spec.node_assured_bps(n)),
                ceil: bucket(spec.node_ceil_bps(n)),
                parent: spec.node_parent(n),
            })
            .collect();
        // Leaf table order is node order: the default leaf, then the
        // subscribers as added. The default leaf catches unbound
        // destinations, so it needs no map entry.
        let mut leaf_nodes = vec![DEFAULT_LEAF];
        let mut dst_map = BTreeMap::new();
        for (node, dst) in spec.subscriber_nodes() {
            dst_map.insert(dst, leaf_nodes.len());
            leaf_nodes.push(node);
        }
        let leaves = leaf_nodes
            .into_iter()
            .map(|node| ScanLeaf {
                node,
                queues: std::array::from_fn(|_| VecDeque::new()),
                codel: CoDel::new(knobs.codel.0, knobs.codel.1),
                deficit: 0,
                quantum: (spec.node_assured_bps(node) / 8 / 10).max(1_514),
            })
            .collect();
        ScanTree {
            nodes,
            counters: vec![Counters::default(); spec.node_count()],
            leaves,
            dst_map,
            class_map: spec.class_map().clone(),
            queue_cap: knobs.queue_cap,
            cursor: 0,
            granted: false,
        }
    }

    fn for_path(&mut self, idx: usize, mut f: impl FnMut(&mut Counters)) {
        let mut at = idx;
        loop {
            f(&mut self.counters[at]);
            if at == ROOT {
                break;
            }
            at = self.nodes[at].parent;
        }
    }

    /// `true` when queued, `false` when tail-dropped.
    fn enqueue(
        &mut self,
        now: u64,
        dst: u32,
        port: u16,
        bytes: u32,
        ect: bool,
        payload: u32,
    ) -> bool {
        let li = self.dst_map.get(&dst).copied().unwrap_or(0);
        let class = self.class_map.classify(port).index();
        let node = self.leaves[li].node;
        if self.leaves[li].queues[class].len() >= self.queue_cap {
            self.for_path(node, |c| c.drops += 1);
            return false;
        }
        self.leaves[li].queues[class].push_back(ScanEntry {
            payload,
            bytes,
            ecn_capable: ect,
            enqueued_at: now,
        });
        self.for_path(node, |c| c.backlog_bytes += bytes as u64);
        true
    }

    fn payer_for(&self, li: usize, now: u64, bytes: u32) -> Option<usize> {
        let mut at = self.leaves[li].node;
        loop {
            if self.nodes[at].rate.conforms(now, bytes) {
                return Some(at);
            }
            if at == ROOT {
                return None;
            }
            at = self.nodes[at].parent;
        }
    }

    fn path_ceils_conform(&self, li: usize, now: u64, bytes: u32) -> bool {
        let mut at = self.leaves[li].node;
        loop {
            if !self.nodes[at].ceil.conforms(now, bytes) {
                return false;
            }
            if at == ROOT {
                return true;
            }
            at = self.nodes[at].parent;
        }
    }

    fn leaf_eligible(&self, li: usize, now: u64) -> bool {
        let Some(bytes) = self.leaves[li].head_bytes() else {
            return false;
        };
        self.path_ceils_conform(li, now, bytes) && self.payer_for(li, now, bytes).is_some()
    }

    fn next_ready(&self, after: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        for leaf in &self.leaves {
            let Some(bytes) = leaf.head_bytes() else {
                continue;
            };
            let mut ceil_at = after;
            let mut payer_at = u64::MAX;
            let mut at = leaf.node;
            loop {
                ceil_at = ceil_at.max(self.nodes[at].ceil.next_conforming(after, bytes));
                payer_at = payer_at.min(self.nodes[at].rate.next_conforming(after, bytes));
                if at == ROOT {
                    break;
                }
                at = self.nodes[at].parent;
            }
            let t = ceil_at.max(payer_at);
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        best
    }

    fn advance_cursor(&mut self) {
        self.cursor = (self.cursor + 1) % self.leaves.len();
        self.granted = false;
    }

    fn dequeue(&mut self, now: u64) -> Served {
        let mut aqm_dropped = Vec::new();
        loop {
            match self.next_ready(now) {
                Some(at) if at <= now => {}
                next_at => {
                    return Served {
                        released: None,
                        aqm_dropped,
                        next_at,
                    };
                }
            }
            let li = self.cursor;
            if !self.leaf_eligible(li, now) {
                // Empty, ceiling-blocked, or the whole path is out of
                // assured tokens: forfeit the deficit.
                self.leaves[li].deficit = 0;
                self.advance_cursor();
                continue;
            }
            if !self.granted {
                self.leaves[li].deficit += self.leaves[li].quantum;
                self.granted = true;
            }
            let class = self.leaves[li]
                .head_class()
                .expect("eligible leaves are backlogged");
            let head_bytes = self.leaves[li].queues[class][0].bytes as u64;
            if self.leaves[li].deficit < head_bytes {
                self.advance_cursor();
                continue;
            }
            let entry = self.leaves[li].queues[class]
                .pop_front()
                .expect("non-empty");
            self.leaves[li].deficit -= head_bytes;
            let node = self.leaves[li].node;
            self.for_path(node, |c| c.backlog_bytes -= entry.bytes as u64);
            let sojourn = now.saturating_sub(entry.enqueued_at);
            let signal = self.leaves[li].codel.on_dequeue(now, sojourn);
            if signal && !entry.ecn_capable {
                self.for_path(node, |c| c.drops += 1);
                aqm_dropped.push(entry.payload);
                continue;
            }
            if signal {
                self.for_path(node, |c| c.ecn_marks += 1);
            }
            let bits = entry.bytes as u64 * 8;
            let payer = self
                .payer_for(li, now, entry.bytes)
                .expect("eligibility checked");
            let mut at = node;
            loop {
                self.nodes[at].ceil.consume(now, entry.bytes);
                if at == ROOT {
                    break;
                }
                at = self.nodes[at].parent;
            }
            self.nodes[payer].rate.consume(now, entry.bytes);
            if payer != node {
                self.counters[node].borrowed_bits += bits;
            }
            self.for_path(node, |c| c.bits_sent += bits);
            if self.leaves[li].head_class().is_none() {
                self.leaves[li].deficit = 0;
                self.advance_cursor();
            }
            return Served {
                released: Some((entry.payload, entry.bytes, signal, sojourn)),
                aqm_dropped,
                next_at: None,
            };
        }
    }
}

/// The spec settings `TreeSpec` does not read back.
struct Knobs {
    burst_bytes: u64,
    queue_cap: usize,
    codel: (u64, u64),
}

/// A random tree: 1–3 sites × 1–3 APs × 1–11 subscribers, random
/// plans, on an uplink that may or may not cover their ceilings — so
/// cases land in the ceiling-bound regime, the root-saturated one and
/// between. Returns the spec, its knobs and the destinations to draw
/// from (the last one is bound to no leaf and rides the default leaf).
fn random_tree(rng: &mut StdRng) -> (TreeSpec, Knobs, Vec<u32>) {
    let knobs = Knobs {
        burst_bytes: [1_514, 3_000, 10_000][rng.random_range(0..3usize)],
        queue_cap: [4, 16, 64][rng.random_range(0..3usize)],
        codel: if rng.random() {
            (1_000, 2_000)
        } else {
            (5_000, 100_000)
        },
    };
    let uplink = rng.random_range(500_000u64..40_000_000);
    let classes = ClassMap::builder(TrafficClass::Background)
        .route(161, TrafficClass::Control)
        .route(5004, TrafficClass::InteractiveMedia)
        .route(9000, TrafficClass::BulkMedia)
        .build();
    let mut spec = TreeSpec::new(uplink)
        .with_class_map(classes)
        .with_burst_bytes(knobs.burst_bytes)
        .with_leaf_queue_cap(knobs.queue_cap)
        .with_codel(knobs.codel.0, knobs.codel.1);
    let mut dsts = Vec::new();
    for s in 0..rng.random_range(1..=3) {
        let site_ceil = rng.random_range(uplink / 4..=uplink);
        let site = spec.add_site(
            &format!("s{s}"),
            rng.random_range(site_ceil / 4..=site_ceil),
            site_ceil,
        );
        for a in 0..rng.random_range(1..=3) {
            let ap_ceil = rng.random_range(site_ceil / 4..=site_ceil);
            let ap = spec.add_ap(
                site,
                &format!("a{s}.{a}"),
                rng.random_range(ap_ceil / 4..=ap_ceil),
                ap_ceil,
            );
            for _ in 0..rng.random_range(1..=11) {
                let assured = rng.random_range(64_000u64..4_000_000);
                let plan = RatePlan::new("p", assured, assured * rng.random_range(1u64..=4));
                let dst = 100 + dsts.len() as u32;
                spec.add_subscriber(ap, &format!("d{dst}"), &plan, dst);
                dsts.push(dst);
            }
        }
    }
    dsts.push(9_999);
    (spec, knobs, dsts)
}

fn counters_of(tree: &ShapingTree<u32>) -> Vec<Counters> {
    let stats = tree.shared_stats();
    (0..stats.node_count())
        .map(|n| Counters {
            bits_sent: stats.bits_sent(n),
            borrowed_bits: stats.borrowed_bits(n),
            drops: stats.drops(n),
            ecn_marks: stats.ecn_marks(n),
            backlog_bytes: stats.backlog_bytes(n),
        })
        .collect()
}

proptest! {
    /// The indexed scheduler releases exactly what its definition
    /// releases: on random trees and random traffic, every enqueue
    /// verdict, every released payload / size / CE mark / sojourn,
    /// every AQM drop, every `next_at`, every `next_ready` probe and
    /// the final counters of every node match the linear scan.
    #[test]
    fn indexed_scheduler_matches_linear_scan(case_seed in any::<u64>()) {
        let seed = chaos_seed(case_seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let (spec, knobs, dsts) = random_tree(&mut rng);
        let line_bps = rng.random_range(1_000_000u64..100_000_000);
        let mut scan = ScanTree::new(&spec, &knobs);
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        let mut now = 0u64;
        let mut payload = 0u32;
        for _ in 0..rng.random_range(40..200) {
            match rng.random_range(0..10) {
                // A burst of mixed packets, all four classes, ECT or not.
                0..=3 => {
                    for _ in 0..rng.random_range(1..60) {
                        let dst = dsts[rng.random_range(0..dsts.len())];
                        let port = [161, 5004, 9000, 7_777][rng.random_range(0..4usize)];
                        // One packet in sixteen outweighs the smallest
                        // DRR quantum, so deficits carry across rounds.
                        let jumbo = rng.random_range(0..16) == 0;
                        let bytes = rng.random_range(40u32..=if jumbo { 9_000 } else { 1_514 });
                        let ect: bool = rng.random();
                        payload += 1;
                        let queued = matches!(
                            tree.enqueue(now, dst, port, bytes, ect, payload),
                            EnqueueOutcome::Queued
                        );
                        prop_assert_eq!(queued, scan.enqueue(now, dst, port, bytes, ect, payload), "seed {seed}");
                    }
                }
                // Drain as a link does: serialise each release, sleep
                // until `next_at` when nothing conforms.
                4..=7 => {
                    for _ in 0..rng.random_range(1..300) {
                        let out = tree.dequeue(now);
                        let got = Served {
                            released: out.released.map(|r| (r.payload, r.bytes, r.ecn_marked, r.sojourn_us)),
                            aqm_dropped: out.aqm_dropped.into_iter().map(|(_, p)| p).collect(),
                            next_at: out.next_at,
                        };
                        let want = scan.dequeue(now);
                        prop_assert_eq!(&got, &want, "dequeue at {now}; seed {seed}");
                        match (got.released, got.next_at) {
                            (Some((_, bytes, _, _)), _) => now += bytes as u64 * 8_000_000 / line_bps,
                            (None, Some(at)) => now = at,
                            (None, None) => break,
                        }
                    }
                }
                8 => now += rng.random_range(0u64..50_000),
                // Price a reschedule ahead of the clock, as simnet
                // does when the line is busy past `now`.
                _ => {
                    let after = now + rng.random_range(0u64..20_000);
                    prop_assert_eq!(tree.next_ready(after), scan.next_ready(after), "probe at {after}; seed {seed}");
                }
            }
        }
        prop_assert_eq!(counters_of(&tree), scan.counters, "seed {seed}");
    }
}

// ------------------------------------------------ custody + flaps

/// Three uplink flap cycles over a custody-enabled federation whose
/// inter-broker link is shaped by a tree: every message published
/// into an outage still arrives exactly once, in order, through the
/// subscriber's shaped leaf — the store absorbs the flaps and the
/// tree never loses what it throttles.
#[test]
fn uplink_flaps_with_custody_lose_nothing_through_the_tree() {
    let seed = chaos_seed(1901);
    let mut net = Network::new(seed);
    let mut ov = Overlay::new();
    ov.enable_custody(StoreConfig {
        retry_after: Ticks::from_millis(10),
        ..StoreConfig::default()
    });
    ov.add_broker(&mut net, "b0");
    ov.add_broker(&mut net, "b1");
    let l01 = ov.connect(&mut net, 0, 1, LinkSpec::lan());

    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &["local"]));
    let mut sub = join_domain(&mut net, &mut ov, 1, topic_profile("sub", &["remote"]));

    // Shape the inter-broker uplink. Federation forwards hop by hop,
    // so traffic on this link targets broker 1 itself: bind the plan
    // leaf to the broker's node (everything else — adverts, control —
    // rides the default leaf).
    let mut spec = TreeSpec::new(5_000_000);
    let site = spec.add_site("site", 5_000_000, 5_000_000);
    let plan = RatePlan::new("bronze", 1_000_000, 2_000_000);
    spec.add_subscriber(site, "b1", &plan, ov.node(1).0);
    let stats = net.attach_tree(l01, spec);
    let leaf = 3;

    let mut got = Vec::new();
    let mut sent = 0usize;
    for _cycle in 0..3 {
        net.topology_mut().set_link_up(l01, false);
        for _ in 0..15 {
            publisher
                .publish(
                    &mut net,
                    "chat",
                    "interested_in contains 'remote'",
                    BTreeMap::new(),
                    format!("msg {sent}").into_bytes(),
                )
                .expect("publishes");
            sent += 1;
        }
        ov.pump(&mut net, Ticks::from_millis(100));
        net.topology_mut().set_link_up(l01, true);
        ov.pump(&mut net, Ticks::from_millis(400));
        let raw = sub.drain_raw(&mut net);
        got.extend(
            sub.interpret_batch(raw)
                .into_iter()
                .map(|d| d.message.body().to_vec()),
        );
    }
    ov.pump(&mut net, Ticks::from_millis(400));
    let raw = sub.drain_raw(&mut net);
    got.extend(
        sub.interpret_batch(raw)
            .into_iter()
            .map(|d| d.message.body().to_vec()),
    );

    let expected: Vec<Vec<u8>> = (0..sent).map(|k| format!("msg {k}").into_bytes()).collect();
    assert_eq!(
        got, expected,
        "custody + shaped uplink must deliver exactly once, in order; seed {seed}"
    );
    assert!(
        stats.bits_sent(leaf) > 0,
        "deliveries actually traversed the subscriber leaf; seed {seed}"
    );
    let store = ov.store_stats(0).expect("custody enabled");
    assert_eq!(
        store.stored_bundles(),
        0,
        "store fully drained; seed {seed}"
    );
}

// ------------------------------------------- session-level pipeline

/// A session whose publisher uplink carries a shaping tree: pounding
/// a 128k/256k subscriber leaf saturates its ceiling, the armed
/// watcher turns that into a `qosPlanAlert` trap, and the trap's
/// utilisation varbind drives the congestion policy to downgrade
/// modality — plan enforcement feeding the adaptation loop.
#[test]
fn plan_alert_downgrades_modality_at_session_level() {
    let seed = chaos_seed(1902);
    let (mut session, ids) = Scenario {
        cfg: SessionConfig {
            seed,
            ..SessionConfig::default()
        },
        clients: vec![
            Client::passive("publisher", &["image"]),
            Client::passive("viewer", &["image"]),
        ],
    }
    .build();
    let [publisher, viewer] = ids.try_into().unwrap();

    let viewer_node = session.client(viewer).node;
    let mut spec = TreeSpec::new(8_000_000);
    let site = spec.add_site("site", 8_000_000, 8_000_000);
    let plan = RatePlan::new("starter", 32_000, 64_000);
    spec.add_subscriber(site, "viewer", &plan, viewer_node.0);
    let stats = session.attach_tree(publisher, spec);
    let viewer_leaf = 3;

    let station = session.add_router("station", 100_000_000).unwrap();
    let mut sink = TrapSink::bind(&mut session.net, station).unwrap();

    // Open the measurement window quiet, then pound the 64 kbit/s
    // leaf with far more image traffic than it can drain: it stays
    // saturated for the whole watch window.
    session.pump(Ticks::from_millis(50));
    assert_eq!(
        session.service_plan_alerts(station),
        0,
        "idle window; seed {seed}"
    );
    for round in 0..8u64 {
        for burst in 0..2u64 {
            let scene = synthetic_scene(64, 64, 1, 3, seed.wrapping_add(round * 2 + burst));
            session
                .share_image(publisher, &scene, "interested_in contains 'image'")
                .unwrap();
        }
        session.pump(Ticks::from_millis(250));
    }
    assert!(
        stats.backlog_bytes(viewer_leaf) > 0,
        "offered load must exceed the plan ceiling for this scenario; seed {seed}"
    );
    let fired = session.service_plan_alerts(station);
    assert_eq!(
        fired, 1,
        "the saturated leaf alerts exactly once; seed {seed}"
    );
    assert_eq!(
        session.service_plan_alerts(station),
        0,
        "edge-triggered; seed {seed}"
    );

    session.pump(Ticks::from_millis(10));
    assert_eq!(
        sink.service(&mut session.net),
        1,
        "trap reached the station; seed {seed}"
    );
    assert_eq!(
        sink.traps[0].pdu.varbinds[1].value,
        SnmpValue::Oid(qos_plan_alert_trap_oid())
    );
    let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
    let decision = decision_from_trap(&engine, &sink.traps[0]).expect("plan alert decodes");
    assert!(
        matches!(
            decision.modality,
            ModalityChoice::Sketch | ModalityChoice::Text
        ),
        "sustained ceiling saturation downgrades modality, got {:?}; seed {seed}",
        decision.modality
    );
}

/// A session with a tree on the publisher's uplink must replay a
/// bit-identical delivery trace from its seed: the tree lives in the
/// deterministic simulator, so nothing outside the seed perturbs
/// shaping.
fn run_session_with_tree(seed: u64) -> Vec<(usize, u64, u32, f64)> {
    let viewers = (0..3).map(|i| Client::passive(&format!("viewer{i}"), &["image"]));
    let (mut session, ids) = Scenario {
        cfg: SessionConfig {
            seed,
            ..SessionConfig::default()
        },
        clients: std::iter::once(Client::passive("publisher", &["image"]))
            .chain(viewers)
            .collect(),
    }
    .build();
    let (publisher, viewers) = (ids[0], &ids[1..]);
    // Tiered plans on the shared uplink, tight enough that borrowing
    // and per-leaf AQM actually shape the deliveries.
    let mut spec = TreeSpec::new(6_000_000);
    let site = spec.add_site("site", 6_000_000, 6_000_000);
    let plans = [
        RatePlan::new("gold", 2_000_000, 4_000_000),
        RatePlan::new("silver", 1_000_000, 2_000_000),
        RatePlan::new("bronze", 500_000, 1_000_000),
    ];
    for (i, &id) in viewers.iter().enumerate() {
        let node = session.client(id).node;
        spec.add_subscriber(site, &format!("v{i}"), &plans[i], node.0);
    }
    session.attach_tree(publisher, spec);

    let mut rows = Vec::new();
    for round in 0..3u64 {
        let scene = synthetic_scene(64, 64, 1, 3, seed.wrapping_add(round));
        session
            .share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        for (cid, viewed) in session.pump(Ticks::from_secs(2)) {
            rows.push((cid, viewed.object_id, viewed.packets_accepted, viewed.bpp));
        }
    }
    rows
}

#[test]
fn session_with_tree_replays_identically() {
    let seed = chaos_seed(1903);
    let first = run_session_with_tree(seed);
    assert!(!first.is_empty(), "no deliveries at seed {seed}");
    assert_eq!(
        run_session_with_tree(seed),
        first,
        "tree-shaped session trace diverged on a rerun; seed {seed}"
    );
}

// ------------------------------------------ quality vs. bandwidth

/// One engine's quality point on one tier: the shared uplink *is* the
/// tier's ceiling, one subscriber leaf on the tier's plan bound to the
/// viewer. Each 700 ms round the publisher shares the same 6-bpp colour
/// scene; the leaf's ceiling utilisation and AQM drops are echoed to
/// the viewer's engine as an RTP receiver report, which re-decides its
/// packet budget. After two warm-up rounds and two measured ones:
/// `(budget, delivered kbit/s, PSNR dB)`, `(budget, 0, 0)` when the
/// engine fell back to the caption.
fn quality_point(choice: EngineChoice, tier: (&str, u64, u64), scene: &Scene) -> (u32, f64, f64) {
    let (name, assured, ceil) = tier;
    let cfg = SessionConfig {
        seed: 11,
        color_transform: true,
        // Even the top tier's 16/16 budget is lossy: an infinite PSNR
        // point says nothing about the curve.
        full_stream_bpp: Some(6.0),
        engine: choice,
        ..SessionConfig::default()
    };
    // A graded budget ladder: the stock congestion policy jumps from
    // eight packets straight to modality caps.
    let mut ladder = PolicyDb::new();
    let bands = [
        (
            "cg-light",
            "congestion_pct >= 5 and congestion_pct < 15",
            12,
        ),
        ("cg-mild", "congestion_pct >= 15 and congestion_pct < 30", 8),
        (
            "cg-heavy",
            "congestion_pct >= 30 and congestion_pct < 60",
            4,
        ),
        ("cg-saturated", "congestion_pct >= 60", 2),
        ("loss-mild", "loss_pct >= 2 and loss_pct < 10", 8),
        ("loss-heavy", "loss_pct >= 10", 2),
    ];
    for (i, (rule, cond, packets)) in bands.into_iter().enumerate() {
        ladder
            .add_rule(
                rule,
                i as i32,
                cond,
                AdaptationAction::LimitPackets(packets),
            )
            .unwrap();
    }
    let (mut session, ids) = Scenario {
        cfg,
        clients: vec![
            Client::passive("publisher", &["image"]),
            Client::adaptive("viewer", &["image"], ladder),
        ],
    }
    .build();
    let [publisher, viewer] = ids.try_into().unwrap();
    // Lenient CoDel and a deep leaf queue: one image burst is never
    // AQM-dropped mid-prefix, so the tier's rate is what is measured.
    let mut spec = TreeSpec::new(ceil)
        .with_codel(400_000, 800_000)
        .with_leaf_queue_cap(256);
    let site = spec.add_site("site", ceil, ceil);
    spec.add_subscriber(
        site,
        "viewer",
        &RatePlan::new(name, assured, ceil),
        session.client(viewer).node.0,
    );
    let leaf = spec.subscriber_nodes()[0].0;
    let stats = session.attach_tree(publisher, spec);
    let (warmup, measured, round_s) = (2, 2, 0.7);
    let (mut budget, mut accepted_bytes, mut last_viewed) = (16, 0, None);
    for round in 0..warmup + measured {
        let (bits_before, drops_before) = (stats.bits_sent(leaf), stats.drops(leaf));
        session
            .share_image(publisher, scene, "interested_in contains 'image'")
            .unwrap();
        for (cid, viewed) in session.pump(Ticks::from_millis(700)) {
            if cid == viewer && round >= warmup {
                accepted_bytes += viewed.received_bytes;
                last_viewed = Some(viewed);
            }
        }
        let sent_bits = (stats.bits_sent(leaf) - bits_before) as f64;
        let dropped = (stats.drops(leaf) - drops_before) as f64;
        let pkts = 1.0 + session.config().packets_per_image as f64;
        let report = ReceiverReport {
            fraction_ecn_ce: (sent_bits / (ceil as f64 * round_s)).min(1.0),
            fraction_lost: (dropped / pkts).min(1.0),
            ..ReceiverReport::default()
        };
        session.ingest_rtp_report(viewer, &report);
        budget = session.adapt(viewer).max_packets;
    }
    match last_viewed {
        Some(v) => (
            budget,
            accepted_bytes as f64 * 8.0 / (measured as f64 * round_s) / 1_000.0,
            collabqos::media::psnr_color(&scene.image, &v.image),
        ),
        None => (budget, 0.0, 0.0),
    }
}

/// Quality against bandwidth, per engine, across the 8-tier catalog:
/// sorted by delivered kbit/s, the decoded PSNR never falls (the
/// embedded stream's prefix property, end to end through the session,
/// the encode cache, the shaping tree and the viewer), the sweep moves
/// the packet budget, and the top tier delivers more than the bottom.
#[test]
fn psnr_rises_with_delivered_rate_across_the_plan_tiers_for_every_engine() {
    let scene = synthetic_scene(256, 256, 3, 5, 11);
    for choice in EngineChoice::all() {
        let mut points: Vec<(u32, f64, f64)> = TIERS
            .iter()
            .map(|&tier| quality_point(choice, tier, &scene))
            .collect();
        let budgets: std::collections::BTreeSet<u32> = points.iter().map(|p| p.0).collect();
        assert!(
            budgets.len() >= 2,
            "{}: budget never moved ({budgets:?})",
            choice.name()
        );
        points.sort_by(|a, b| a.1.total_cmp(&b.1));
        for w in points.windows(2) {
            assert!(
                w[1].2 >= w[0].2 - 1e-9,
                "{}: PSNR not monotone in delivered rate: {:?} then {:?}",
                choice.name(),
                w[0],
                w[1]
            );
        }
        assert!(
            points[7].1 > points[0].1,
            "{}: every tier delivered the same rate",
            choice.name()
        );
    }
}
