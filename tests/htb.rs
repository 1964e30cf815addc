//! E2E + property acceptance for the hierarchical shaping tree (CI
//! job `htb`): borrow-ledger accounting under arbitrary plan
//! catalogs, work conservation under saturation, the indexed scheduler
//! against a linear-scan transcription of its definition, custody surviving
//! uplink flaps with a shaped inter-broker link, the `qosPlanAlert`
//! trap driving the congestion adaptation path at session level, and
//! worker-count bit-identity with a tree mounted.
//!
//! Deterministic: proptest cases come from the in-tree shim's
//! per-test seed, and scenario seeds shift with `CHAOS_SEED` so the
//! nightly soak sweeps fresh RNG streams over the same invariants.

use collabqos::broker::Overlay;
use collabqos::core::trapwatch::{decision_from_trap, qos_plan_alert_trap_oid};
use collabqos::dtn::StoreConfig;
use collabqos::htb::{EnqueueOutcome, RatePlan, ShapingTree, TreeSpec, DEFAULT_LEAF, ROOT};
use collabqos::prelude::*;
use collabqos::sempubsub::BusEndpoint;
use collabqos::simnet::packet::well_known;
use collabqos::simnet::qdisc::{ClassMap, CoDel, Shaper, TokenBucket, TrafficClass, CLASS_COUNT};
use collabqos::simnet::{Network, NodeId};
use collabqos::snmp::transport::TrapSink;
use collabqos::snmp::SnmpValue;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

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

fn topic_profile(name: &str, topics: &[&str]) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(topics.iter().map(|t| AttrValue::str(t)).collect()),
    );
    p
}

fn join_domain_at(
    net: &mut Network,
    ov: &mut Overlay,
    d: usize,
    profile: Profile,
) -> (BusEndpoint, NodeId) {
    let node = net.add_node(&profile.name.clone());
    net.connect(ov.node(d), node, LinkSpec::lan());
    ov.register_local(net, d, &profile);
    let bus = BusEndpoint::join(net, node, well_known::SESSION_DATA, ov.group(d), profile)
        .expect("endpoint joins");
    ov.settle(net);
    (bus, node)
}

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

    let (mut publisher, _) = join_domain_at(&mut net, &mut ov, 0, topic_profile("pub", &["local"]));
    let (mut sub, _sub_node) =
        join_domain_at(&mut net, &mut ov, 1, topic_profile("sub", &["remote"]));

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
    let cfg = SessionConfig {
        seed,
        ..SessionConfig::default()
    };
    let mut session = CollaborationSession::new(cfg);
    let mut profile = Profile::new("publisher");
    profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let publisher = session
        .add_wired_client(
            profile,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
        )
        .unwrap();
    let mut p = Profile::new("viewer");
    p.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let viewer = session
        .add_wired_client(
            p,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("viewer"),
        )
        .unwrap();

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

/// A session with a tree on the publisher's uplink must produce a
/// bit-identical delivery trace for 1 and 4 engine workers — the tree
/// lives in the single-threaded simulator, so sharding the adaptation
/// engines cannot perturb shaping.
fn run_session_with_tree(workers: usize, seed: u64) -> Vec<(usize, u64, u32, f64)> {
    let cfg = SessionConfig {
        seed,
        workers,
        ..SessionConfig::default()
    };
    let mut session = CollaborationSession::new(cfg);
    let mut profile = Profile::new("publisher");
    profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let publisher = session
        .add_wired_client(
            profile,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
        )
        .unwrap();
    let mut viewers = Vec::new();
    for i in 0..3 {
        let mut p = Profile::new(&format!("viewer{i}"));
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        let id = session
            .add_wired_client(
                p,
                InferenceEngine::new(PolicyDb::new(), QosContract::default()),
                SimHost::idle(&format!("viewer{i}")),
            )
            .unwrap();
        viewers.push(id);
    }
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
fn session_with_tree_identical_across_worker_counts() {
    let seed = chaos_seed(1903);
    let serial = run_session_with_tree(1, seed);
    assert!(!serial.is_empty(), "no deliveries at seed {seed}");
    let sharded = run_session_with_tree(4, seed);
    assert_eq!(
        sharded, serial,
        "tree-shaped session trace diverged across worker counts; seed {seed}"
    );
}
