//! ISP-scale hierarchical shaping: one shared uplink compiled into a
//! root → sites → APs → subscribers tree, 1 000 to 100 000 subscriber
//! leaves drawn from an 8-tier rate-plan catalog, every leaf kept
//! backlogged so aggregate demand exceeds uplink capacity for the
//! whole run. The sweep is the scheduler's scaling curve: `ns/pkt`
//! should not grow with the subscriber count.
//!
//! Every scenario *asserts* the tree's four fairness invariants while
//! it measures, so a shaping bug cannot masquerade as a fast run:
//!
//! 1. ceiling — no subscriber exceeds its plan ceiling over any
//!    100 ms window (checked per leaf, per window, plus burst slack);
//! 2. hierarchy — every node's subtree throughput stays within the
//!    node's own ceiling (children can never out-spend a parent);
//! 3. work conservation — with demand ≥ capacity the root uplink
//!    stays ≥ 93% utilised end to end;
//! 4. ECN before loss — for ECT traffic the first CoDel mark lands
//!    strictly before the first (tail) drop.
//!
//! `--quick` runs the reduced sweep CI runs as smoke: one simulated
//! second at 1 000 and at 16 000 subscribers.

use bench::{header, quick_mode, row};
use htb::{EnqueueOutcome, RatePlan, ShapingTree, TreeSpec};
use std::time::Instant;

/// Shared uplink capacity (bits/s).
const UPLINK: u64 = 2_500_000_000;
const SITES: usize = 4;
const APS_PER_SITE: usize = 4;
/// Wire size of every bench packet (bytes / bits).
const PKT_BYTES: u32 = 1_500;
const PKT_BITS: u64 = PKT_BYTES as u64 * 8;
/// Per-leaf standing backlog that keeps demand above capacity.
const BACKLOG_PKTS: usize = 24;
/// Ceiling-invariant observation window (µs).
const WINDOW_US: u64 = 100_000;
/// Token-bucket depth the spec defaults to, as slack in bit budgets.
const BURST_BITS: u64 = 3_000 * 8;

/// The 8-tier plan catalog (assured / ceiling, bits/s).
fn catalog() -> Vec<RatePlan> {
    vec![
        RatePlan::new("copper", 512_000, 1_000_000),
        RatePlan::new("bronze", 1_000_000, 2_000_000),
        RatePlan::new("silver", 1_500_000, 3_000_000),
        RatePlan::new("gold", 2_000_000, 4_000_000),
        RatePlan::new("platinum", 3_000_000, 6_000_000),
        RatePlan::new("biz-s", 4_000_000, 8_000_000),
        RatePlan::new("biz-m", 5_000_000, 10_000_000),
        RatePlan::new("biz-l", 6_000_000, 12_000_000),
    ]
}

/// Root → 4 sites → 16 APs → `subs` subscriber leaves, plans cycled
/// from the catalog, destination ids `10_000 + i`. The payload type is
/// the subscriber index so dequeues can be attributed per leaf.
fn build(subs: usize) -> (ShapingTree<usize>, Vec<u32>) {
    let plans = catalog();
    let mut spec = TreeSpec::new(UPLINK);
    let mut aps = Vec::new();
    for s in 0..SITES {
        let site = spec.add_site(&format!("site{s}"), UPLINK / 4, UPLINK / 2);
        for a in 0..APS_PER_SITE {
            aps.push(spec.add_ap(site, &format!("ap{s}.{a}"), UPLINK / 16, UPLINK / 4));
        }
    }
    let mut dsts = Vec::with_capacity(subs);
    for i in 0..subs {
        let dst = 10_000 + i as u32;
        let plan = &plans[i % plans.len()];
        spec.add_subscriber(aps[i % aps.len()], &format!("sub{i}"), plan, dst);
        dsts.push(dst);
    }
    assert!(spec.subscriber_count() >= 1_000 || subs < 1_000);
    (ShapingTree::new(spec), dsts)
}

struct Outcome {
    pkts: u64,
    root_util: f64,
    borrowed_mbit: f64,
    wall_secs: f64,
}

/// Run `sim_us` of saturated tree time, asserting invariants 1–3.
fn run(subs: usize, sim_us: u64) -> Outcome {
    let (mut tree, dsts) = build(subs);
    let stats = tree.shared_stats();
    let leaf_of: Vec<usize> = dsts.iter().map(|&d| tree.leaf_for_dst(d)).collect();

    for (i, &dst) in dsts.iter().enumerate() {
        for _ in 0..BACKLOG_PKTS {
            match tree.enqueue(0, dst, 0, PKT_BYTES, true, i) {
                EnqueueOutcome::Queued => {}
                EnqueueOutcome::TailDropped(_) => panic!("prefill overflows leaf queue"),
            }
        }
    }

    let check_window = |win_bits: &[u64]| {
        for (i, &bits) in win_bits.iter().enumerate() {
            let budget = stats.ceil_bps(leaf_of[i]) * WINDOW_US / 1_000_000;
            assert!(
                bits <= budget + BURST_BITS + PKT_BITS,
                "invariant 1: sub{i} sent {bits} bits in a {WINDOW_US} µs window, ceiling budget {budget}"
            );
        }
    };

    let mut win_bits = vec![0u64; subs];
    let mut window_end = WINDOW_US;
    let mut pkts = 0u64;
    let mut t = 0u64;
    let wall = Instant::now();
    loop {
        let out = tree.dequeue(t);
        // ECT prefill means CoDel marks instead of dropping, but refill
        // whatever it might shed so the leaf stays saturated.
        for (_, i) in out.aqm_dropped {
            let _ = tree.enqueue(t, dsts[i], 0, PKT_BYTES, true, i);
        }
        if let Some(rel) = out.released {
            let i = rel.payload;
            pkts += 1;
            win_bits[i] += rel.bytes as u64 * 8;
            let _ = tree.enqueue(t, dsts[i], 0, PKT_BYTES, true, i);
            continue;
        }
        let Some(next) = out.next_at else {
            panic!("saturated tree went empty")
        };
        if next >= sim_us {
            break;
        }
        t = next;
        while t >= window_end {
            check_window(&win_bits);
            win_bits.iter_mut().for_each(|b| *b = 0);
            window_end += WINDOW_US;
        }
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    check_window(&win_bits);

    // Invariant 2: subtree throughput within every node's ceiling.
    // `bits_sent` aggregates up the path, so each node's figure is its
    // whole subtree; slack covers its bucket depth plus one packet.
    for n in 0..stats.node_count() {
        let budget = stats.ceil_bps(n) * sim_us / 1_000_000 + BURST_BITS + PKT_BITS;
        assert!(
            stats.bits_sent(n) <= budget,
            "invariant 2: node {n} sent {} bits, ceiling budget {budget}",
            stats.bits_sent(n)
        );
    }

    // Invariant 3: demand ≥ capacity, so the root is never idle.
    let root_bits = stats.bits_sent(htb::ROOT);
    let capacity = UPLINK * sim_us / 1_000_000;
    let root_util = root_bits as f64 / capacity as f64;
    assert!(
        root_util >= 0.93,
        "invariant 3: root moved {root_bits} of {capacity} bits ({root_util:.3})"
    );

    let borrowed: u64 = (0..stats.node_count())
        .map(|n| stats.borrowed_bits(n))
        .sum();
    Outcome {
        pkts,
        root_util,
        borrowed_mbit: borrowed as f64 / 1e6,
        wall_secs,
    }
}

/// Invariant 4 on a small dedicated tree: a gold subscriber offered
/// ~20% over its ceiling builds sojourn slowly, so CoDel's first ECT
/// mark must land strictly before the FIFO's first tail drop.
fn ecn_precedes_drop() -> (u64, u64) {
    let mut spec = TreeSpec::new(100_000_000);
    let site = spec.add_site("site", 100_000_000, 100_000_000);
    let plan = RatePlan::new("gold", 2_000_000, 4_000_000);
    spec.add_subscriber(site, "sub", &plan, 1);
    let mut tree: ShapingTree<()> = ShapingTree::new(spec);

    let mut first_mark = None;
    let mut first_drop = None;
    let mut t_enq = 0u64;
    let mut t = 0u64;
    while first_drop.is_none() && t_enq < 60_000_000 {
        while let Some(at) = tree.next_ready(t) {
            if at > t_enq {
                break;
            }
            t = at;
            let out = tree.dequeue(t);
            if let Some(rel) = out.released {
                if rel.ecn_marked && first_mark.is_none() {
                    first_mark = Some(t);
                }
            }
        }
        t = t_enq;
        if let EnqueueOutcome::TailDropped(()) = tree.enqueue(t, 1, 0, PKT_BYTES, true, ()) {
            first_drop = Some(t);
        }
        // 400 pkt/s against a ceiling that drains ~333 pkt/s.
        t_enq += 2_500;
    }
    let mark = first_mark.expect("CoDel marked the standing queue");
    let drop = first_drop.expect("the FIFO eventually tail-dropped");
    assert!(
        mark < drop,
        "invariant 4: first mark at {mark} µs must precede first drop at {drop} µs"
    );
    (mark, drop)
}

fn main() {
    let quick = quick_mode();
    let scenarios: &[(usize, u64)] = if quick {
        &[(1_000, 1_000_000), (16_000, 1_000_000)]
    } else {
        &[
            (1_000, 1_000_000),
            (2_000, 500_000),
            (10_000, 1_000_000),
            (100_000, 1_000_000),
        ]
    };
    println!(
        "ISP-scale shaping — {SITES} sites x {APS_PER_SITE} APs on a {} Mbit/s uplink, \
         8-tier plan catalog, every leaf backlogged\n",
        UPLINK / 1_000_000
    );
    let widths = [6, 6, 8, 9, 10, 13, 9, 10, 8];
    header(
        &[
            "subs",
            "plans",
            "sim ms",
            "pkts",
            "root util",
            "borrowed Mbit",
            "wall ms",
            "pkt/s",
            "ns/pkt",
        ],
        &widths,
    );
    for &(subs, sim_us) in scenarios {
        let out = run(subs, sim_us);
        let rate = out.pkts as f64 / out.wall_secs.max(1e-9);
        row(
            &[
                subs.to_string(),
                catalog().len().to_string(),
                (sim_us / 1_000).to_string(),
                out.pkts.to_string(),
                format!("{:.3}", out.root_util),
                format!("{:.1}", out.borrowed_mbit),
                format!("{:.1}", out.wall_secs * 1e3),
                format!("{rate:.0}"),
                format!("{:.0}", 1e9 / rate),
            ],
            &widths,
        );
    }
    let (mark, drop) = ecn_precedes_drop();
    println!(
        "\ninvariants 1-3 asserted inline per scenario; invariant 4: first ECN mark at \
         {mark} µs precedes first drop at {drop} µs"
    );
}
