//! Distance-learning under a degrading network (§1's motivating
//! dynamics + §5.5's network-element monitoring), in three acts:
//!
//! 1. **Bandwidth collapse** — a lecturer streams slides to students;
//!    an edge router's advertised bandwidth collapses mid-session, the
//!    bandwidth policy caps the students' modality, and a hysteresis
//!    filter keeps the level from flapping as the link recovers
//!    noisily.
//! 2. **Shaped vs unshaped bottleneck** — the same offered load (an
//!    interactive media stream plus a mid-run bulk flood) crosses a
//!    1 Mb/s access link twice: once through the link's plain bounded
//!    FIFO, once through the traffic-control plane (DRR + ECN-capable
//!    CoDel). The student counts loss and ECN marks from its own log
//!    of numbered arrivals. Side-by-side timelines show the unshaped
//!    run losing media packets and downgrading *after* the damage,
//!    while the shaped run is warned by ECN marks and downgrades with
//!    zero loss.
//! 3. **One trace, three engines** — the unshaped run's observed
//!    (loss, CE) phases replayed through every [`AdaptationPolicy`]
//!    implementation: the paper's threshold bands, the fuzzy
//!    controller, and the Bayesian engine, side by side.
//!
//! ```sh
//! cargo run --example degrading_network
//! ```

use collabqos::core::hysteresis::HysteresisFilter;
use collabqos::prelude::*;
use collabqos::simnet::qdisc::{QdiscConfig, TrafficClass};
use collabqos::simnet::{Addr, Port};
use std::collections::BTreeMap;

fn main() {
    bandwidth_collapse_demo();
    println!();
    let (unshaped, _shaped) = traffic_control_demo();
    println!();
    engine_comparison_demo(&unshaped);
}

// ---------------------------------------------- act 1: bandwidth collapse

fn bandwidth_collapse_demo() {
    let mut session = CollaborationSession::new(SessionConfig {
        full_stream_bpp: Some(2.1),
        ..SessionConfig::default()
    });

    let mut lecturer_profile = Profile::new("lecturer");
    lecturer_profile.set("role", AttrValue::str("lecturer"));
    let lecturer = session
        .add_wired_client(
            lecturer_profile,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("lecturer"),
        )
        .unwrap();

    let mut student_profile = Profile::new("student");
    student_profile.set("role", AttrValue::str("student"));
    student_profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let mut db = PolicyDb::paper_page_fault_policy();
    db.merge(PolicyDb::bandwidth_modality_policy());
    let student = session
        .add_wired_client(
            student_profile,
            InferenceEngine::new(db, QosContract::default()),
            SimHost::idle("student"),
        )
        .unwrap();

    // The student monitors its edge router's ifSpeed over SNMP.
    let router = session.add_router("edge-router", 10_000_000).unwrap();
    session.monitor_bandwidth(student, router);

    // A noisy link trace: healthy, collapsing, then flapping around the
    // sketch threshold during recovery.
    let trace_bps: [u64; 10] = [
        10_000_000, 10_000_000, 40_000, 40_000, 480_000, 520_000, 480_000, 520_000, 2_000_000,
        10_000_000,
    ];

    let mut filter = HysteresisFilter::new(3);
    let scene = synthetic_scene(128, 128, 1, 4, 77);
    println!("act 1: bandwidth collapse — slide: {}\n", scene.caption);
    println!(
        "{:<6} {:>12} {:>12} {:>14}",
        "step", "link (bps)", "raw", "with hysteresis"
    );
    for (step, &bps) in trace_bps.iter().enumerate() {
        session.set_router_speed(router, bps).unwrap();
        let raw = session.adapt(student);
        let smoothed = filter.filter(raw.clone());
        // Apply the smoothed decision to the viewer.
        session
            .client_mut(student)
            .viewer
            .set_packet_budget(smoothed.max_packets);
        println!(
            "{step:<6} {bps:>12} {:>12} {:>14}",
            format!("{:?}", raw.modality),
            format!("{:?}", smoothed.modality),
        );
        session
            .share_image(lecturer, &scene, "role == 'student'")
            .unwrap();
        session.pump(Ticks::from_millis(500));
    }

    let viewer = &session.client(student).viewer;
    println!(
        "\nstudent decoded {} image(s), {} text fallback(s), suppressed upgrades: {}",
        viewer.viewed.len(),
        viewer.text_fallbacks.len(),
        filter.suppressed_upgrades,
    );
}

// ------------------------------------------ act 2: shaped vs unshaped

const MEDIA_PORT: Port = Port(5004);
const BULK_PORT: Port = Port(9000);
const STEPS_PER_PHASE: u32 = 100; // x 2 ms = 200 ms per phase
const PHASES: u32 = 10;

/// One 200 ms slice of a bottleneck run.
struct PhaseRow {
    delivered: u64,
    loss_pct: f64,
    congestion_pct: f64,
    avg_latency_ms: f64,
    modality: ModalityChoice,
}

/// Drive the identical offered load over the 1 Mb/s access link —
/// media at ~0.85 Mb/s throughout, plus a bulk flood during phases
/// 2..=5 — with or without the traffic-control plane, and adapt from
/// what the arrival log counted after every phase.
fn run_bottleneck(shaped: bool) -> Vec<PhaseRow> {
    let mut net = Network::new(4242);
    let src = net.add_node("lecturer");
    let dst = net.add_node("student");
    // The access link itself: 1 Mb/s with a bounded drop-tail FIFO.
    let spec = LinkSpec::wireless().with_loss(0.0).with_queue_cap(12_000);
    let link = net.connect(src, dst, spec);
    if shaped {
        let mut cfg = QdiscConfig::for_rate(1_000_000);
        cfg.codel_target_us = 2_000;
        cfg.codel_interval_us = 10_000;
        cfg.class_map.assign(BULK_PORT.0, TrafficClass::BulkMedia);
        // Keep the bulk class on a short leash: a small quantum pins
        // its congested share to 20%, and a 32-packet queue lets its
        // backlog drain within a phase or two of the flood ending.
        let bulk = TrafficClass::BulkMedia.index();
        cfg.classes[bulk].quantum = 1_500;
        cfg.classes[bulk].queue_cap_pkts = 32;
        net.attach_qdisc(link, cfg);
    }

    let tx_media = net.bind(src, MEDIA_PORT).unwrap();
    let rx_media = net.bind(dst, MEDIA_PORT).unwrap();
    let tx_bulk = net.bind(src, BULK_PORT).unwrap();
    net.bind(dst, BULK_PORT).unwrap();
    net.set_ecn(tx_media, true);
    net.set_ecn(tx_bulk, true);

    // The arrival log: media packets received, and the highest
    // sequence number among them — every one below it that never came
    // is lost (the FIFO and the plane keep order).
    let (mut received, mut next_seq) = (0u64, 0u64);
    let mut db = PolicyDb::loss_policy();
    db.merge(PolicyDb::congestion_policy());
    let engine = InferenceEngine::new(db, QosContract::default());

    let mut sent_at_us = Vec::new();
    let mut rows = Vec::new();
    for phase in 0..PHASES {
        let flood = (2..=5).contains(&phase);
        let mut latencies = Vec::new();
        let mut delivered = 0u64;
        let mut marked = 0u64;
        for _ in 0..STEPS_PER_PHASE {
            // Flood first: on the unshaped FIFO, whoever reaches the
            // full queue first wins the freed slots, so the flood
            // starves the media stream — exactly the failure the
            // traffic-control plane exists to prevent.
            if flood {
                for _ in 0..5 {
                    let _ = net.send(tx_bulk, Addr::unicast(dst, BULK_PORT), vec![0u8; 182]);
                }
            }
            let seq = sent_at_us.len() as u32;
            let mut media = vec![0u8; 182];
            media[..4].copy_from_slice(&seq.to_be_bytes());
            sent_at_us.push(net.now().as_micros());
            let _ = net.send(tx_media, Addr::unicast(dst, MEDIA_PORT), media);
            net.run_for(Ticks::from_millis(2));
            while let Some(d) = net.recv(rx_media) {
                let seq = u32::from_be_bytes(d.payload[..4].try_into().unwrap());
                received += 1;
                next_seq = next_seq.max(u64::from(seq) + 1);
                delivered += 1;
                marked += u64::from(d.ecn_ce);
                let sent = sent_at_us[seq as usize];
                latencies.push((net.now().as_micros() - sent) as f64 / 1_000.0);
            }
        }
        let loss_pct = if next_seq == 0 {
            0.0
        } else {
            (next_seq - received) as f64 * 100.0 / next_seq as f64
        };
        let congestion_pct = if delivered == 0 {
            0.0
        } else {
            marked as f64 * 100.0 / delivered as f64
        };
        let mut state = BTreeMap::new();
        state.insert("loss_pct".to_string(), loss_pct);
        state.insert("congestion_pct".to_string(), congestion_pct);
        rows.push(PhaseRow {
            delivered,
            loss_pct,
            congestion_pct,
            avg_latency_ms: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            modality: engine.decide(&state).modality,
        });
    }
    rows
}

fn traffic_control_demo() -> (Vec<PhaseRow>, Vec<PhaseRow>) {
    println!("act 2: same offered load, without and with the traffic-control plane");
    println!("(media ~0.85 Mb/s on a 1 Mb/s link; bulk flood during phases 2-5)\n");
    let unshaped = run_bottleneck(false);
    let shaped = run_bottleneck(true);
    println!(
        "{:<6} | {:>5} {:>6} {:>6} {:>9} | {:>5} {:>5} {:>6} {:>9}",
        "phase", "dlvd", "loss%", "lat ms", "modality", "dlvd", "ce%", "lat ms", "modality"
    );
    println!("{:-<6}-+-{:-<30}-+-{:-<29}", "", " unshaped", " shaped");
    for (i, (u, s)) in unshaped.iter().zip(&shaped).enumerate() {
        println!(
            "{i:<6} | {:>5} {:>6.1} {:>6.1} {:>9} | {:>5} {:>5.1} {:>6.1} {:>9}",
            u.delivered,
            u.loss_pct,
            u.avg_latency_ms,
            format!("{:?}", u.modality),
            s.delivered,
            s.congestion_pct,
            s.avg_latency_ms,
            format!("{:?}", s.modality),
        );
    }
    let u_last = unshaped.last().unwrap();
    let s_last = shaped.last().unwrap();
    println!(
        "\nunshaped: {:.1}% of the media stream lost before the policy could react",
        u_last.loss_pct
    );
    println!(
        "shaped:   {:.1}% lost — ECN marks warned the policy while the queue was still building",
        s_last.loss_pct
    );
    (unshaped, shaped)
}

// --------------------------------------- act 3: one trace, three engines

/// Replay the unshaped run's observed per-phase state through each
/// adaptation engine. Same evidence, three readings: the threshold
/// bands step, the fuzzy controller glides its packet budget, and the
/// Bayesian engine tempers a lone noisy metric against the others.
fn engine_comparison_demo(rows: &[PhaseRow]) {
    println!("act 3: the unshaped trace decided by all three engines");
    println!("(modality/packet-budget per phase; engines see identical state)\n");
    let mut db = PolicyDb::loss_policy();
    db.merge(PolicyDb::congestion_policy());
    let engines: Vec<Box<dyn AdaptationPolicy>> = EngineChoice::all()
        .iter()
        .map(|c| c.build(db.clone(), QosContract::default()))
        .collect();
    println!(
        "{:<6} {:>6} {:>5} | {:>12} | {:>12} | {:>12}",
        "phase", "loss%", "ce%", "threshold", "fuzzy", "bayes"
    );
    for (i, row) in rows.iter().enumerate() {
        let mut state = BTreeMap::new();
        state.insert("loss_pct".to_string(), row.loss_pct);
        state.insert("congestion_pct".to_string(), row.congestion_pct);
        let cells: Vec<String> = engines
            .iter()
            .map(|e| {
                let d = e.decide(&state);
                format!("{:?}/{}", d.modality, d.max_packets)
            })
            .collect();
        println!(
            "{i:<6} {:>6.1} {:>5.1} | {:>12} | {:>12} | {:>12}",
            row.loss_pct, row.congestion_pct, cells[0], cells[1], cells[2]
        );
    }
}
