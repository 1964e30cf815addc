//! E2E acceptance for the per-link traffic-control plane: DRR holds
//! the interactive class at its configured share under overload, the
//! AQM signals congestion by ECN *before* anything is dropped, the
//! echoed marks drive a trap-based modality downgrade with zero RTP
//! loss, and every run is reproducible from its seed and config.
//!
//! This is the suite the CI `qdisc` job runs; assertion messages carry
//! the seed and [`QdiscConfig::summary`] so a failure in the log is
//! reproducible without the artifacts.

use collabqos::core::trapwatch::{decision_from_trap, EdgeWatcher};
use collabqos::prelude::*;
use collabqos::simnet::qdisc::{QdiscConfig, TrafficClass};
use collabqos::simnet::rtp::{RtpReceiver, RtpSender};
use collabqos::simnet::{Addr, Port};
use collabqos::snmp::transport::{AgentRuntime, TrapSink};
use collabqos::snmp::SnmpAgent;

const RTP_PORT: Port = Port(5004);

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

/// Under 2× aggregate overload with every class backlogged, DRR must
/// hold `InteractiveMedia` within 10% of its configured quantum share.
#[test]
fn drr_holds_interactive_share_under_overload() {
    let seed = chaos_seed(31);
    let mut net = Network::new(seed);
    let a = net.add_node("edge");
    let b = net.add_node("core");
    // Fast line: the 1 MB/s shaper is the only bottleneck.
    let link = net.connect(a, b, LinkSpec::lan());
    let mut cfg = QdiscConfig::for_rate(8_000_000); // 1 byte/µs
    cfg.class_map.assign(4000, TrafficClass::BulkMedia);
    let ctx = format!("seed {seed}, {}", cfg.summary());
    let share = cfg.quantum_share(TrafficClass::InteractiveMedia);
    net.attach_qdisc(link, cfg);

    // One flow per class, each offered 0.5 MB/s: 2 MB/s against 1 MB/s
    // of shaped capacity.
    let ports = [Port(5005), RTP_PORT, Port(4000), Port(9000)];
    let socks: Vec<_> = ports
        .iter()
        .map(|&p| (net.bind(a, p).unwrap(), p))
        .collect();
    for &p in &ports {
        net.bind(b, p).unwrap();
    }
    for _ in 0..1000 {
        for &(s, p) in &socks {
            let _ = net.send(s, Addr::unicast(b, p), vec![0u8; 1000]);
        }
        net.run_for(Ticks::from_millis(2));
    }

    let stats = net.qdisc_stats(link).expect("plane mounted");
    let total: u64 = stats.classes.iter().map(|c| c.bytes_dequeued).sum();
    let im = stats.class(TrafficClass::InteractiveMedia).bytes_dequeued;
    let got = im as f64 / total as f64;
    assert!(
        (got - share).abs() <= share * 0.10,
        "InteractiveMedia got {got:.3} of the link, configured share {share:.3} ± 10%\n{ctx}"
    );
    // The link really was overloaded: the losing classes shed traffic.
    assert!(stats.drops() > 0, "no overload pressure observed\n{ctx}");
    // Control never starves even at an eighth of the bandwidth.
    assert!(
        stats.class(TrafficClass::Control).bytes_dequeued > 0,
        "control class starved\n{ctx}"
    );
}

/// The AQM's whole purpose: an ECN-capable flow sees CE marks while
/// the queue is merely *building* — strictly before the first packet
/// of any kind is dropped.
#[test]
fn ecn_marks_precede_first_drop() {
    let seed = chaos_seed(32);
    let mut net = Network::new(seed);
    let a = net.add_node("edge");
    let b = net.add_node("core");
    let link = net.connect(a, b, LinkSpec::lan());
    let mut cfg = QdiscConfig::for_rate(800_000); // 0.1 byte/µs
    cfg.codel_target_us = 5_000;
    cfg.codel_interval_us = 20_000;
    // A shallow class queue so sustained overload eventually tail-drops.
    cfg.classes[TrafficClass::InteractiveMedia.index()].queue_cap_pkts = 64;
    let ctx = format!("seed {seed}, {}", cfg.summary());
    net.attach_qdisc(link, cfg);

    let sa = net.bind(a, RTP_PORT).unwrap();
    net.bind(b, RTP_PORT).unwrap();
    net.set_ecn(sa, true);

    // 2 Mb/s offered against 0.8 Mb/s shaped: the backlog grows without
    // bound until the 64-packet cap bites. Poll the counters at every
    // step and record when each signal first appears.
    let mut first_mark_at = None;
    let mut first_drop_at = None;
    for step in 0..800u64 {
        let _ = net.send(sa, Addr::unicast(b, RTP_PORT), vec![0u8; 500]);
        net.run_for(Ticks::from_millis(2));
        let s = net.qdisc_stats(link).unwrap();
        if s.ecn_marks() > 0 && first_mark_at.is_none() {
            first_mark_at = Some(step);
        }
        if s.drops() > 0 && first_drop_at.is_none() {
            first_drop_at = Some(step);
        }
    }
    let mark = first_mark_at.unwrap_or_else(|| panic!("AQM never marked\n{ctx}"));
    let drop = first_drop_at.unwrap_or_else(|| panic!("overload never dropped\n{ctx}"));
    assert!(
        mark < drop,
        "first mark at step {mark}, first drop at step {drop}: marks must lead\n{ctx}"
    );
}

/// Everything observable from one congestion-pipeline run.
#[derive(Debug, PartialEq)]
struct CongestionOutcome {
    delivered: Vec<(u64, u16, bool)>,
    lost: u64,
    fraction_ecn_ce: f64,
    trap_fired: bool,
    modality: Option<ModalityChoice>,
}

/// Stream RTP through a shaped, ECN-capable bottleneck at 2.5× the
/// shaper rate; echo the CE marks through a receiver report; let a
/// [`EdgeWatcher::congestion`] convert the crossing into a
/// `qosCongestionAlert` trap and the congestion policy into a
/// modality decision.
fn run_congestion_pipeline(seed: u64) -> CongestionOutcome {
    let mut net = Network::new(seed);
    let sender = net.add_node("sender");
    let receiver = net.add_node("receiver");
    let station = net.add_node("station");
    let link = net.connect(sender, receiver, LinkSpec::lan());
    net.connect(receiver, station, LinkSpec::lan());
    let mut cfg = QdiscConfig::for_rate(800_000);
    // Aggressive control law so a short test stream accumulates a
    // meaningful mark fraction.
    cfg.codel_target_us = 2_000;
    cfg.codel_interval_us = 10_000;
    net.attach_qdisc(link, cfg);

    let tx = net.bind(sender, RTP_PORT).unwrap();
    let rx = net.bind(receiver, RTP_PORT).unwrap();
    net.set_ecn(tx, true);

    let mut rtp_tx = RtpSender::new(0xECECEC, 96);
    let mut rtp_rx = RtpReceiver::new(64);
    let mut delivered = Vec::new();
    for n in 0..300u32 {
        // 500-byte media payload: 2.5x the shaped rate at 2 ms pacing.
        let mut media = vec![0u8; 500];
        media[..4].copy_from_slice(&n.to_be_bytes());
        let wire = rtp_tx.wrap(n, false, &media);
        net.send(tx, Addr::unicast(receiver, RTP_PORT), wire)
            .unwrap();
        net.run_for(Ticks::from_millis(2));
        while let Some(d) = net.recv(rx) {
            for pkt in rtp_rx.push_marked(&d.payload, d.ecn_ce) {
                delivered.push((net.now().as_micros(), pkt.header.seq, d.ecn_ce));
            }
        }
    }
    net.run_to_quiescence();
    while let Some(d) = net.recv(rx) {
        for pkt in rtp_rx.push_marked(&d.payload, d.ecn_ce) {
            delivered.push((net.now().as_micros(), pkt.header.seq, d.ecn_ce));
        }
    }
    let report = rtp_rx.report();

    // Receiver-side extension agent + watcher; trap sink on the station.
    let agent = SnmpAgent::new("receiver", "public", None);
    let mut rt = AgentRuntime::bind(&mut net, receiver, agent).unwrap();
    let mut sink = TrapSink::bind(&mut net, station).unwrap();
    let mut watcher = EdgeWatcher::congestion(10.0);
    let trap_fired = watcher.observe(&mut net, &mut rt, station, report.fraction_ecn_ce * 100.0);
    net.run_for(Ticks::from_millis(5));
    sink.service(&mut net);

    let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
    let modality = sink
        .traps
        .first()
        .and_then(|t| decision_from_trap(&engine, t))
        .map(|d| d.modality);
    CongestionOutcome {
        delivered,
        lost: report.lost,
        fraction_ecn_ce: report.fraction_ecn_ce,
        trap_fired,
        modality,
    }
}

/// The tentpole loop, end to end: sustained ECN marking with ZERO RTP
/// loss raises a congestion trap and the policy downgrades modality —
/// adaptation acts strictly before the first packet is lost.
#[test]
fn congestion_trap_downgrades_modality_with_zero_rtp_loss() {
    let seed = chaos_seed(33);
    let out = run_congestion_pipeline(seed);
    let ctx = format!(
        "seed {seed}, fraction_ecn_ce {:.3}, lost {}",
        out.fraction_ecn_ce, out.lost
    );
    assert_eq!(out.lost, 0, "adaptation must fire before loss\n{ctx}");
    assert_eq!(out.delivered.len(), 300, "full stream delivered\n{ctx}");
    assert!(
        out.fraction_ecn_ce >= 0.20,
        "expected heavy CE marking under 2.5x overload\n{ctx}"
    );
    assert!(out.trap_fired, "congestion watcher crossing\n{ctx}");
    // Which band fires depends on how hard the AQM marked; either way
    // the image stream must be capped down before anything is lost.
    assert!(
        matches!(
            out.modality,
            Some(ModalityChoice::Sketch) | Some(ModalityChoice::Text)
        ),
        "congestion bands downgrade image -> sketch -> text, got {:?}\n{ctx}",
        out.modality
    );
}

/// Same seed + same config ⇒ the same pipeline outcome, timestamps,
/// marks, trap and all.
#[test]
fn congestion_pipeline_is_deterministic() {
    let seed = chaos_seed(34);
    let a = run_congestion_pipeline(seed);
    let b = run_congestion_pipeline(seed);
    assert_eq!(a, b, "non-deterministic qdisc pipeline at seed {seed}");
    assert!(!a.delivered.is_empty());
}

/// A full collaboration session with a plane mounted on a viewer's
/// access link must produce a bit-identical delivery trace for 1 and 4
/// engine workers.
fn run_session_with_qdisc(workers: usize, seed: u64) -> Vec<(usize, u64, u32, f64)> {
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
    // Shape viewer0's access link hard enough that scheduling matters.
    session.attach_qdisc(viewers[0], QdiscConfig::for_rate(2_000_000));
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
fn session_with_qdisc_identical_across_worker_counts() {
    let seed = chaos_seed(35);
    let serial = run_session_with_qdisc(1, seed);
    assert!(!serial.is_empty(), "no deliveries at seed {seed}");
    let sharded = run_session_with_qdisc(4, seed);
    assert_eq!(
        sharded,
        serial,
        "qdisc-shaped session trace diverged across worker counts; seed {seed}, {}",
        QdiscConfig::for_rate(2_000_000).summary()
    );
}
