//! Quality-vs-bandwidth curves: sweep uplink rate across the 8-tier
//! `RatePlan` catalog (copper → biz-l) through a shaping tree mounted
//! on the publisher's access link, and report decoded PSNR against
//! delivered kbit/s for each adaptation engine — the measurement the
//! paper's figures imply but never plot (ROADMAP item 1).
//!
//! The loop is closed the way a deployment would close it: each round
//! the publisher shares the same colour scene (an encode-once
//! `MediaCache` hit after round one), the tree shapes delivery to the
//! tier's ceiling, the subscriber leaf's live counters are folded into
//! an RTP receiver report (`congestion_pct` = ceiling utilisation,
//! `loss_pct` = AQM drops), and the viewer's engine re-decides its
//! packet budget from that report. The viewer then accepts only a
//! prefix of the embedded EZW stream, so the budget maps directly to a
//! quality point: PSNR of the reconstruction vs the pristine scene
//! (`psnr_color`), at the application bytes/s the budget admitted. A
//! tier whose engine falls back to the text caption contributes the
//! curve's floor point (0 kbit/s, 0 dB).
//!
//! Asserted while measuring, per engine:
//!
//! * the curve is monotone — sorted by delivered kbit/s, PSNR never
//!   decreases (the embedded-stream property end-to-end through the
//!   session, cache, shaping tree, and viewer);
//! * it spans ≥ 4 tiers and ≥ 2 distinct packet budgets, so the sweep
//!   actually exercised adaptation rather than idling at full quality.
//!
//! `--quick` trims measurement rounds, never tiers or asserts.

use bench::{fmt, header, quick_mode, row};
use cqos_core::policy::AdaptationAction;
use cqos_core::{
    CollaborationSession, EngineChoice, InferenceEngine, PolicyDb, QosContract, SessionConfig,
};
use htb::{RatePlan, TreeSpec};
use media::image::{synthetic_scene, Scene};
use media::psnr_color;
use sempubsub::{AttrValue, Profile};
use simnet::rtp::ReceiverReport;
use simnet::Ticks;
use sysmon::SimHost;

/// The 8-tier plan catalog (assured / ceiling, bits/s) — the same
/// ladder `isp_shaping` saturates at scale.
const TIERS: &[(&str, u64, u64)] = &[
    ("copper", 512_000, 1_000_000),
    ("bronze", 1_000_000, 2_000_000),
    ("silver", 1_500_000, 3_000_000),
    ("gold", 2_000_000, 4_000_000),
    ("platinum", 3_000_000, 6_000_000),
    ("biz-s", 4_000_000, 8_000_000),
    ("biz-m", 5_000_000, 10_000_000),
    ("biz-l", 6_000_000, 12_000_000),
];

/// Wall-clock of one share/pump round, simulated time.
const ROUND_MS: u64 = 700;
/// Rounds before measurement starts (budget settles after the first
/// report → adapt cycle).
const WARMUP_ROUNDS: usize = 2;

/// A graded packet-budget ladder for the threshold engine: the stock
/// `congestion_policy` jumps straight from `LimitPackets(8)` to
/// modality caps, which never shrinks the budget further — fine for
/// modality studies, useless for a quality curve. This ladder is what
/// an operator wanting graceful image degradation would configure.
fn ladder_policies() -> PolicyDb {
    let mut db = PolicyDb::new();
    let bands: &[(&str, &str, u32)] = &[
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
    for (i, (name, cond, packets)) in bands.iter().enumerate() {
        db.add_rule(
            name,
            i as i32,
            cond,
            AdaptationAction::LimitPackets(*packets),
        )
        .expect("static rule parses");
    }
    db
}

fn image_profile(name: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    p
}

/// One swept point of an engine's curve.
struct CurvePoint {
    tier: &'static str,
    ceil_kbit: f64,
    budget: u32,
    delivered_kbit: f64,
    psnr_db: f64,
}

/// Run the closed loop for one engine on one plan tier and return its
/// quality point.
fn run_tier(
    choice: EngineChoice,
    tier: &'static str,
    assured: u64,
    ceil: u64,
    scene: &Scene,
    measure_rounds: usize,
) -> CurvePoint {
    let cfg = SessionConfig {
        seed: 11,
        color_transform: true,
        // Cap the embedded stream so even the top tier's 16/16 budget
        // is lossy — an infinite-PSNR point carries no curve signal.
        full_stream_bpp: Some(6.0),
        engine: choice,
        ..SessionConfig::default()
    };
    let mut session = CollaborationSession::new(cfg);
    let publisher = session
        .add_wired_client(
            image_profile("publisher"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
        )
        .expect("publisher joins");
    let viewer = session
        .add_adaptive_client(
            image_profile("viewer"),
            ladder_policies(),
            QosContract::default(),
            SimHost::idle("viewer"),
        )
        .expect("viewer joins");

    // The swept knob: the shared uplink *is* the tier's ceiling, with
    // one subscriber leaf on the tier's plan bound to the viewer.
    // CoDel is set lenient (one image burst must never be AQM-dropped
    // mid-prefix — this bench measures shaping rate, not AQM) and the
    // leaf queue deep enough for a whole packetised image.
    let viewer_node = session.client(viewer).node;
    let mut spec = TreeSpec::new(ceil)
        .with_codel(400_000, 800_000)
        .with_leaf_queue_cap(256);
    let site = spec.add_site("site", ceil, ceil);
    let plan = RatePlan::new(tier, assured, ceil);
    spec.add_subscriber(site, "viewer", &plan, viewer_node.0);
    let leaf = spec.subscriber_nodes()[0].0;
    let stats = session.attach_tree(publisher, spec);

    let window = Ticks::from_millis(ROUND_MS);
    let window_secs = ROUND_MS as f64 / 1_000.0;
    let mut budget = 16u32;
    let mut accepted_bytes = 0usize;
    let mut last_viewed = None;
    for round in 0..WARMUP_ROUNDS + measure_rounds {
        let bits_before = stats.bits_sent(leaf);
        let drops_before = stats.drops(leaf);
        session
            .share_image(publisher, scene, "interested_in contains 'image'")
            .expect("share succeeds");
        for (cid, viewed) in session.pump(window) {
            if cid == viewer && round >= WARMUP_ROUNDS {
                accepted_bytes += viewed.received_bytes;
                last_viewed = Some(viewed);
            }
        }
        // Fold the leaf's counters into the receiver report the engine
        // sees: ceiling utilisation as the ECN-CE fraction (the
        // pre-loss congestion echo), AQM drops as the loss fraction.
        let sent_bits = (stats.bits_sent(leaf) - bits_before) as f64;
        let dropped = (stats.drops(leaf) - drops_before) as f64;
        let pkts = 1.0 + session.config().packets_per_image as f64;
        let report = ReceiverReport {
            fraction_ecn_ce: (sent_bits / (ceil as f64 * window_secs)).min(1.0),
            fraction_lost: (dropped / pkts).min(1.0),
            ..ReceiverReport::default()
        };
        session.ingest_rtp_report(viewer, &report);
        budget = session.adapt(viewer).max_packets;
    }

    let measured_secs = measure_rounds as f64 * window_secs;
    let (delivered_kbit, psnr_db) = match &last_viewed {
        Some(v) => (
            accepted_bytes as f64 * 8.0 / measured_secs / 1_000.0,
            psnr_color(&scene.image, &v.image),
        ),
        // Text fallback (budget 0): the caption is the delivered
        // modality — the curve's floor.
        None => (0.0, 0.0),
    };
    CurvePoint {
        tier,
        ceil_kbit: ceil as f64 / 1_000.0,
        budget,
        delivered_kbit,
        psnr_db,
    }
}

fn main() {
    let measure_rounds = if quick_mode() { 2 } else { 4 };
    let scene = synthetic_scene(256, 256, 3, 5, 11);
    println!(
        "quality vs bandwidth: decoded PSNR against delivered kbit/s per engine,\n\
         uplink swept across the 8-tier rate-plan catalog ({} measured rounds/tier)",
        measure_rounds
    );

    let widths = [10, 14, 7, 15, 9];
    for choice in EngineChoice::all() {
        println!();
        println!("engine: {}", choice.name());
        header(
            &[
                "tier",
                "uplink kbit/s",
                "budget",
                "delivered kb/s",
                "psnr dB",
            ],
            &widths,
        );
        let mut points = Vec::new();
        for &(tier, assured, ceil) in TIERS {
            let p = run_tier(choice, tier, assured, ceil, &scene, measure_rounds);
            row(
                &[
                    p.tier.to_string(),
                    fmt(p.ceil_kbit),
                    p.budget.to_string(),
                    fmt(p.delivered_kbit),
                    fmt(p.psnr_db),
                ],
                &widths,
            );
            points.push(p);
        }

        // The acceptance invariants, per engine.
        assert!(points.len() >= 4, "curve must span at least 4 plan tiers");
        let budgets: std::collections::BTreeSet<u32> = points.iter().map(|p| p.budget).collect();
        assert!(
            budgets.len() >= 2,
            "{}: the sweep never changed the packet budget ({budgets:?}) — \
             adaptation did not engage",
            choice.name()
        );
        let mut sorted: Vec<&CurvePoint> = points.iter().collect();
        sorted.sort_by(|a, b| a.delivered_kbit.total_cmp(&b.delivered_kbit));
        for w in sorted.windows(2) {
            assert!(
                w[1].psnr_db >= w[0].psnr_db - 1e-9,
                "{}: PSNR not monotone in delivered rate: {} ({:.1} kbit/s, {:.2} dB) \
                 vs {} ({:.1} kbit/s, {:.2} dB)",
                choice.name(),
                w[0].tier,
                w[0].delivered_kbit,
                w[0].psnr_db,
                w[1].tier,
                w[1].delivered_kbit,
                w[1].psnr_db
            );
        }
        let top = sorted.last().expect("at least one point");
        assert!(
            top.delivered_kbit > sorted[0].delivered_kbit,
            "{}: curve is flat — every tier delivered the same rate",
            choice.name()
        );
    }
    println!();
    println!("monotone: PSNR never decreased with delivered rate on any engine's curve");
}
