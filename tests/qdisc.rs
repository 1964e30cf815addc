//! E2E acceptance for the per-link traffic-control plane: DRR holds
//! the interactive class at its configured share under overload, the
//! AQM signals congestion by ECN *before* anything is dropped, the
//! marks an image viewer reports drive a trap-based modality downgrade
//! with zero loss, and every run is reproducible from its seed and
//! config.
//! A differential holds `Qdisc` to the flat DRR walk it replaced,
//! transcribed here over the public primitives.
//!
//! This is the suite the CI `qdisc` job runs; assertion messages carry
//! the seed and [`QdiscConfig::summary`] so a failure in the log is
//! reproducible without the artifacts.

use collabqos::core::trapwatch::{decision_from_trap, EdgeWatcher};
use collabqos::prelude::*;
use collabqos::simnet::qdisc::{
    CoDel, EnqueueOutcome, Qdisc, QdiscStats, TokenBucket, CLASS_COUNT,
};
use collabqos::simnet::qdisc::{QdiscConfig, TrafficClass};
use collabqos::simnet::rtp::ReceiverReport;
use collabqos::simnet::{Addr, Port};
use collabqos::snmp::transport::{AgentRuntime, TrapSink};
use collabqos::snmp::SnmpAgent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

const MEDIA_PORT: Port = Port(5004);

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
    let ports = [Port(5005), MEDIA_PORT, Port(4000), Port(9000)];
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

    let sa = net.bind(a, MEDIA_PORT).unwrap();
    net.bind(b, MEDIA_PORT).unwrap();
    net.set_ecn(sa, true);

    // 2 Mb/s offered against 0.8 Mb/s shaped: the backlog grows without
    // bound until the 64-packet cap bites. Poll the counters at every
    // step and record when each signal first appears.
    let mut first_mark_at = None;
    let mut first_drop_at = None;
    for step in 0..800u64 {
        let _ = net.send(sa, Addr::unicast(b, MEDIA_PORT), vec![0u8; 500]);
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
    /// (object id, packets accepted, pixels) of each completed view.
    views: Vec<(u64, u32, Vec<u8>)>,
    report: ReceiverReport,
    trap_fired: bool,
    modality: Option<ModalityChoice>,
}

/// Images shared in one congestion-pipeline run.
const PIPELINE_SHARES: u64 = 12;

/// Share images from an ECN-capable publisher to a viewer whose access
/// link is shaped to 800 kb/s, a share every 20 ms — about twice what
/// the link carries; take the viewer's receiver report, and let a
/// [`EdgeWatcher::congestion`] convert its CE fraction into a
/// `qosCongestionAlert` trap and the congestion policy into a modality
/// decision.
fn run_congestion_pipeline(seed: u64) -> CongestionOutcome {
    let mut s = CollaborationSession::new(SessionConfig {
        seed,
        ..SessionConfig::default()
    });
    let mut join = |name: &str| {
        let mut p = Profile::new(name);
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        s.add_wired_client(
            p,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle(name),
        )
        .unwrap()
    };
    let publisher = join("publisher");
    let viewer = join("viewer");
    let mut cfg = QdiscConfig::for_rate(800_000);
    // Aggressive control law so a short run accumulates a meaningful
    // mark fraction.
    cfg.codel_target_us = 2_000;
    cfg.codel_interval_us = 10_000;
    s.attach_qdisc(viewer, cfg);
    let socket = s.client(publisher).bus.socket();
    s.net.set_ecn(socket, true);

    let mut views = Vec::new();
    for round in 0..PIPELINE_SHARES {
        let scene = synthetic_scene(64, 64, 1, 3, seed.wrapping_add(round));
        s.share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        for (_, v) in s.pump(Ticks::from_millis(20)) {
            views.push((v.object_id, v.packets_accepted, v.image.data.clone()));
        }
    }
    for (_, v) in s.pump(Ticks::from_secs(2)) {
        views.push((v.object_id, v.packets_accepted, v.image.data.clone()));
    }
    let report = s.client(viewer).viewer.report();

    // An extension agent beside the viewer + watcher; trap sink on the
    // station.
    let net = &mut s.net;
    let edge = net.add_node("edge");
    let station = net.add_node("station");
    net.connect(edge, station, LinkSpec::lan());
    let agent = SnmpAgent::new("receiver", "public", None);
    let mut rt = AgentRuntime::bind(net, edge, agent).unwrap();
    let mut sink = TrapSink::bind(net, station).unwrap();
    let mut watcher = EdgeWatcher::congestion(10.0);
    let trap_fired = watcher.observe(net, &mut rt, station, report.fraction_ecn_ce * 100.0);
    net.run_for(Ticks::from_millis(5));
    sink.service(net);

    let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
    let modality = sink
        .traps
        .first()
        .and_then(|t| decision_from_trap(&engine, t))
        .map(|d| d.modality);
    CongestionOutcome {
        views,
        report,
        trap_fired,
        modality,
    }
}

/// The tentpole loop, end to end: sustained ECN marking with ZERO loss
/// in the viewer's report raises a congestion trap and the policy
/// downgrades modality — adaptation acts strictly before the first
/// packet is lost.
#[test]
fn congestion_trap_downgrades_modality_with_zero_rtp_loss() {
    let seed = chaos_seed(33);
    let out = run_congestion_pipeline(seed);
    let ctx = format!("seed {seed}, report {:?}", out.report);
    assert_eq!(
        out.report.lost, 0,
        "adaptation must fire before loss\n{ctx}"
    );
    assert_eq!(
        out.views.len() as u64,
        PIPELINE_SHARES,
        "every share viewed\n{ctx}"
    );
    assert_eq!(out.report.received, 16 * PIPELINE_SHARES, "{ctx}");
    assert!(
        out.report.fraction_ecn_ce >= 0.20,
        "expected heavy CE marking under 2x overload\n{ctx}"
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
    assert!(!a.views.is_empty());
}

/// A full collaboration session with a plane mounted on a viewer's
/// access link must replay a bit-identical delivery trace from its
/// seed.
fn run_session_with_qdisc(seed: u64) -> Vec<(usize, u64, u32, f64)> {
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
fn session_with_qdisc_replays_identically() {
    let seed = chaos_seed(35);
    let first = run_session_with_qdisc(seed);
    assert!(!first.is_empty(), "no deliveries at seed {seed}");
    assert_eq!(
        run_session_with_qdisc(seed),
        first,
        "qdisc-shaped session trace diverged on a rerun; seed {seed}, {}",
        QdiscConfig::for_rate(2_000_000).summary()
    );
}

// ------------------------------------------- flat walk differential

/// The flat class plane's scheduler, transcribed over the public
/// `qdisc` primitives: one FIFO, one CoDel and one DRR deficit per
/// class, the link's token bucket in front of all four, and a cursor
/// that visits the classes round robin. What it releases, marks and
/// drops is the definition `Qdisc` is held to.
struct FlatWalk {
    cfg: QdiscConfig,
    queues: [VecDeque<(u32, u32, bool, u64)>; CLASS_COUNT],
    link: Option<TokenBucket>,
    codel: [CoDel; CLASS_COUNT],
    deficit: [u64; CLASS_COUNT],
    cursor: usize,
    granted: bool,
    stats: QdiscStats,
    drops: u64,
    ecn_marks: u64,
}

/// One `dequeue` as both sides report it: the release as (payload,
/// class, bytes, CE mark, sojourn), the AQM drops, and `next_at`.
type Release = (u32, TrafficClass, u32, bool, u64);
type Served = (Option<Release>, Vec<(TrafficClass, u32)>, Option<u64>);

impl FlatWalk {
    fn new(cfg: QdiscConfig) -> FlatWalk {
        FlatWalk {
            queues: std::array::from_fn(|_| VecDeque::new()),
            link: cfg.link_shaper.map(TokenBucket::new),
            codel: std::array::from_fn(|_| CoDel::new(cfg.codel_target_us, cfg.codel_interval_us)),
            deficit: [0; CLASS_COUNT],
            cursor: 0,
            granted: false,
            stats: QdiscStats::default(),
            drops: 0,
            ecn_marks: 0,
            cfg,
        }
    }

    fn enqueue(&mut self, now: u64, class: TrafficClass, bytes: u32, ect: bool, p: u32) -> bool {
        let i = class.index();
        if self.queues[i].len() >= self.cfg.classes[i].queue_cap_pkts {
            self.stats.classes[i].tail_dropped += 1;
            self.drops += 1;
            return false;
        }
        self.queues[i].push_back((p, bytes, ect, now));
        let c = &mut self.stats.classes[i];
        c.enqueued += 1;
        c.backlog_pkts += 1;
        c.backlog_bytes += bytes as u64;
        true
    }

    fn conforms(&self, i: usize, now: u64) -> bool {
        self.queues[i].front().is_some_and(|&(_, bytes, _, _)| {
            self.link.as_ref().is_none_or(|tb| tb.conforms(now, bytes))
        })
    }

    fn next_ready(&self, after: u64) -> Option<u64> {
        let heads = self.queues.iter().filter_map(|q| q.front());
        heads
            .map(|&(_, bytes, _, _)| {
                self.link
                    .as_ref()
                    .map_or(after, |tb| tb.next_conforming(after, bytes))
            })
            .min()
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % CLASS_COUNT;
        self.granted = false;
    }

    fn dequeue(&mut self, now: u64) -> Served {
        let mut aqm = Vec::new();
        loop {
            if !(0..CLASS_COUNT).any(|i| self.conforms(i, now)) {
                return (None, aqm, self.next_ready(now));
            }
            let i = self.cursor;
            if !self.conforms(i, now) {
                // Empty or shaper-blocked: the class forfeits its deficit.
                self.deficit[i] = 0;
                self.advance();
                continue;
            }
            if !self.granted {
                self.deficit[i] += self.cfg.classes[i].quantum as u64;
                self.granted = true;
            }
            let head = self.queues[i][0].1 as u64;
            if self.deficit[i] < head {
                self.advance();
                continue;
            }
            let (p, bytes, ect, at) = self.queues[i].pop_front().unwrap();
            self.deficit[i] -= head;
            let c = &mut self.stats.classes[i];
            c.backlog_pkts -= 1;
            c.backlog_bytes -= bytes as u64;
            let sojourn = now.saturating_sub(at);
            let signal = self.codel[i].on_dequeue(now, sojourn);
            let class = TrafficClass::ALL[i];
            if signal && !ect {
                c.aqm_dropped += 1;
                self.drops += 1;
                aqm.push((class, p));
                continue;
            }
            if signal {
                c.ecn_marked += 1;
                self.ecn_marks += 1;
            }
            c.dequeued += 1;
            c.bytes_dequeued += bytes as u64;
            if let Some(tb) = &mut self.link {
                tb.consume(now, bytes);
            }
            if self.queues[i].is_empty() {
                self.deficit[i] = 0;
                self.advance();
            }
            return (Some((p, class, bytes, signal, sojourn)), aqm, None);
        }
    }
}

/// A random plane: `for_rate` at a random rate, then — each on a coin
/// flip — no link shaper, one of the CoDel pairs the suites use,
/// random quanta and queue caps, and a remapped classifier.
fn random_plane(rng: &mut StdRng) -> QdiscConfig {
    let mut cfg = QdiscConfig::for_rate(rng.random_range(500_000u64..40_000_000));
    if rng.random_range(0..4) == 0 {
        cfg.link_shaper = None;
    }
    (cfg.codel_target_us, cfg.codel_interval_us) = [
        (2_000, 10_000),
        (5_000, 20_000),
        (cfg.codel_target_us, cfg.codel_interval_us),
    ][rng.random_range(0..3usize)];
    if rng.random() {
        for c in cfg.classes.iter_mut() {
            c.quantum = rng.random_range(200u32..9_000);
            c.queue_cap_pkts = [2, 8, 64][rng.random_range(0..3usize)];
        }
    }
    if rng.random() {
        cfg.class_map.assign(5004, TrafficClass::BulkMedia);
        cfg.class_map.assign(4000, TrafficClass::InteractiveMedia);
        cfg.class_map.assign(161, TrafficClass::Background);
    }
    cfg
}

proptest! {
    /// `Qdisc` schedules exactly as the flat walk: on random planes and
    /// random ECT and non-ECT traffic, every enqueue verdict, every
    /// release (payload, class, size, CE mark, sojourn), every AQM drop,
    /// every `next_at` and `next_ready` probe, the final per-class
    /// counters and the live drop / mark / backlog counters match.
    #[test]
    fn qdisc_schedules_as_the_flat_drr_walk(case_seed in any::<u64>()) {
        let seed = chaos_seed(case_seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = random_plane(&mut rng);
        let ctx = format!("seed {seed}, {}", cfg.summary());
        let line_bps = rng.random_range(1_000_000u64..100_000_000);
        let mut walk = FlatWalk::new(cfg.clone());
        let mut q: Qdisc<u32> = Qdisc::new(cfg);
        let live = q.shared_stats();
        let mut now = 0u64;
        let mut payload = 0u32;
        for _ in 0..rng.random_range(40..200) {
            match rng.random_range(0..10) {
                0..=3 => {
                    for _ in 0..rng.random_range(1..60) {
                        let port = [161, 4000, 5004, 5005, 7_777][rng.random_range(0..5usize)];
                        // One packet in sixteen outweighs the smallest
                        // quantum, so deficits carry across rounds.
                        let jumbo = rng.random_range(0..16) == 0;
                        let bytes = rng.random_range(40u32..=if jumbo { 9_000 } else { 1_514 });
                        let ect: bool = rng.random();
                        payload += 1;
                        let class = q.config().class_map.classify(port);
                        let queued = matches!(
                            q.enqueue(now, class, bytes, ect, payload),
                            EnqueueOutcome::Queued
                        );
                        let want = walk.enqueue(now, walk.cfg.class_map.classify(port), bytes, ect, payload);
                        prop_assert_eq!(queued, want, "{}", ctx);
                    }
                }
                4..=7 => {
                    for _ in 0..rng.random_range(1..300) {
                        let out = q.dequeue(now);
                        let got: Served = (
                            out.released.map(|r| (r.payload, r.class, r.bytes, r.ecn_marked, r.sojourn_us)),
                            out.aqm_dropped,
                            out.next_at,
                        );
                        prop_assert_eq!(&got, &walk.dequeue(now), "dequeue at {}; {}", now, ctx);
                        match got {
                            (Some((_, _, bytes, _, _)), _, _) => now += bytes as u64 * 8_000_000 / line_bps,
                            (None, _, Some(at)) => now = at,
                            (None, _, None) => break,
                        }
                    }
                }
                8 => now += rng.random_range(0u64..50_000),
                _ => {
                    let after = now + rng.random_range(0u64..20_000);
                    prop_assert_eq!(q.next_ready(after), walk.next_ready(after), "probe at {}; {}", after, ctx);
                }
            }
        }
        prop_assert_eq!(q.stats().clone(), walk.stats.clone(), "{}", ctx);
        let live = [&live.drops, &live.ecn_marks, &live.backlog_bytes].map(|a| a.load(Ordering::Relaxed));
        prop_assert_eq!(live, [walk.drops, walk.ecn_marks, walk.stats.backlog_bytes()], "{}", ctx);
    }
}
