//! Chaos suite: scenario-driven fault injection over the deterministic
//! simulator. Every scenario is reproducible from the seed and
//! [`FaultPlan`] printed in its assertion messages; the suite asserts
//! what each fault lets through (every loss counted exactly, by
//! sequence number; arrivals resuming after a heal), that the image
//! viewer — the paper's thin in-order layer — shows nothing of
//! duplication and reordering but its report, and that inert fault
//! configuration leaves the paper's figure series bit-identical.

use collabqos::core::experiments::{run_fig10, run_fig6, run_fig7};
use collabqos::prelude::*;
use collabqos::simnet::rtp::ReceiverReport;
use collabqos::simnet::{
    Addr, FaultAction, FaultModel, FaultPlan, GilbertElliott, LinkId, Network, NodeId, Port,
};

const MEDIA_PORT: Port = Port(5004);

/// Base seed shifted by the `CHAOS_SEED` environment offset. Unset or
/// `0` leaves every scenario on its committed default seed, so the
/// regular test run is unchanged; the nightly chaos-soak workflow
/// sweeps offsets `0..16` to drive the same invariants over fresh RNG
/// streams. A failure log always carries the effective seed, so any
/// soak finding replays locally with `CHAOS_SEED=<offset>`.
fn chaos_seed(base: u64) -> u64 {
    let offset = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    base.wrapping_add(offset)
}

/// A scripted stream-over-faulty-link scenario. The harness topology is
/// fixed — node 0 streams to node 1 over a single wireless-grade link
/// (`LinkId(0)`, base loss zero) — so plans can name links and nodes
/// statically.
struct Scenario {
    name: &'static str,
    seed: u64,
    plan: FaultPlan,
    /// Media packets to stream, one every `send_every`.
    packets: u32,
    send_every: Ticks,
    /// Extra pump time after the last send (in-flight tail).
    drain_for: Ticks,
}

impl Scenario {
    /// Reproduction recipe printed on every assertion failure.
    fn ctx(&self) -> String {
        format!(
            "scenario `{}` is reproducible with seed {} and fault plan:\n{}",
            self.name, self.seed, self.plan
        )
    }
}

/// One datagram off the receiver's socket.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    seq: u64,
    at_us: u64,
}

/// Everything observable from one scenario run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// Every arrival, copies included, in arrival order.
    arrivals: Vec<Arrival>,
    /// Sends refused by the network (link down / partition).
    send_failures: u32,
}

impl Outcome {
    /// The distinct sequence numbers that arrived, ascending.
    fn seqs(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self.arrivals.iter().map(|a| a.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        seqs
    }

    /// The arrival log as a receiver report over `sent` packets: every
    /// packet that never arrived is lost.
    fn report(&self, sent: u32) -> ReceiverReport {
        let distinct = self.seqs().len() as u64;
        let arrivals = self.arrivals.len() as u64;
        ReceiverReport::from_counts(
            distinct,
            u64::from(sent) - distinct,
            arrivals - distinct,
            arrivals,
            0,
        )
    }
}

/// Bytes in each of a scenario's datagrams: its sequence number, then
/// padding.
const DATAGRAM_LEN: usize = 20;

/// Drive a scenario: stream numbered datagrams over the faulty link
/// (no feedback path: a lost packet stays lost) and log each arrival.
fn run_stream(sc: &Scenario) -> Outcome {
    let mut net = Network::new(sc.seed);
    let src = net.add_node("sender");
    let dst = net.add_node("receiver");
    net.connect(src, dst, LinkSpec::wireless().with_loss(0.0));
    net.set_fault_plan(sc.plan.clone());

    let tx_media = net.bind(src, MEDIA_PORT).unwrap();
    let rx_media = net.bind(dst, MEDIA_PORT).unwrap();

    let mut arrivals = Vec::new();
    let mut send_failures = 0u32;
    let step_us = sc.send_every.as_micros().max(1);
    let drain_steps = sc.drain_for.as_micros().div_ceil(step_us);

    for step in 0..(sc.packets as u64 + drain_steps) {
        if step < sc.packets as u64 {
            let mut wire = vec![0u8; DATAGRAM_LEN];
            wire[..8].copy_from_slice(&step.to_be_bytes());
            if net
                .send(tx_media, Addr::unicast(dst, MEDIA_PORT), wire)
                .is_err()
            {
                send_failures += 1;
            }
        }
        net.run_for(sc.send_every);
        let now = net.now().as_micros();
        while let Some(dgram) = net.recv(rx_media) {
            let seq = u64::from_be_bytes(dgram.payload[..8].try_into().unwrap());
            arrivals.push(Arrival { seq, at_us: now });
        }
    }
    Outcome {
        arrivals,
        send_failures,
    }
}

/// A Gilbert–Elliott model with ≥10% steady-state loss (bad-state
/// dwell ≈ 4 packets, π_bad = 1/6, 0.8 loss while bad ⇒ ≈13%).
fn heavy_burst() -> FaultModel {
    FaultModel::none().with_burst(GilbertElliott::bursty(0.05, 0.25, 0.8))
}

fn burst_scenario(seed: u64) -> Scenario {
    Scenario {
        name: "wireless-burst-loss",
        seed,
        // The first and the last packet cross clean: the first anchors
        // the receiver, and a loss only shows once a later sequence
        // number arrives. In between the link is bursty.
        plan: FaultPlan::new()
            .at(
                Ticks::from_millis(1),
                FaultAction::SetFault(LinkId(0), heavy_burst()),
            )
            .at(
                Ticks::from_millis(2_990),
                FaultAction::ClearFault(LinkId(0)),
            ),
        packets: 600,
        send_every: Ticks::from_millis(5),
        drain_for: Ticks::from_secs(2),
    }
}

// ------------------------------------------------- loss accounting

/// With burst loss ≥10% on the wireless link, every packet either
/// arrives once or is counted lost — none twice, none unaccounted —
/// and the reported fraction is the counted share.
#[test]
fn burst_loss_on_wireless_link_is_counted_exactly() {
    let sc = burst_scenario(chaos_seed(1002));
    let ctx = sc.ctx();
    let out = run_stream(&sc);
    let rep = out.report(sc.packets);
    assert_eq!(rep.duplicates, 0, "burst loss copies nothing\n{ctx}");
    assert!(
        rep.lost >= 30,
        "burst model barely bit: only {} lost\n{ctx}",
        rep.lost
    );
    assert_eq!(
        rep.received + rep.lost,
        u64::from(sc.packets),
        "arrived + lost covers the stream\n{ctx}"
    );
    assert_eq!(rep.received, out.arrivals.len() as u64, "{ctx}");
    assert_eq!(
        rep.fraction_lost,
        rep.lost as f64 / f64::from(sc.packets),
        "{ctx}"
    );
}

/// What one viewer saw of a session's shares, from 1 ms on over an
/// access link with `fault` on it: each view's object id, packets
/// accepted and pixels, and the viewer's report.
fn views_over(seed: u64, fault: FaultModel) -> (Vec<(u64, u32, Vec<u8>)>, ReceiverReport) {
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
    let link = s.client(viewer).link;
    s.net.set_fault_plan(
        FaultPlan::new().at(Ticks::from_millis(1), FaultAction::SetFault(link, fault)),
    );
    let mut views = Vec::new();
    for round in 0..DUP_SHARES {
        let scene = synthetic_scene(64, 64, 1, 3, seed.wrapping_add(round));
        s.share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        for (_, v) in s.pump(Ticks::from_millis(500)) {
            views.push((v.object_id, v.packets_accepted, v.image.data.clone()));
        }
    }
    (views, s.client(viewer).viewer.report())
}

/// Images shared over the duplicating link.
const DUP_SHARES: u64 = 4;

/// Duplication, reordering, and jitter on the viewer's access link
/// must never reach the application: every share is viewed exactly as
/// over a clean link, and only the viewer's report shows the copies.
#[test]
fn duplication_and_reorder_never_reach_the_app() {
    let seed = chaos_seed(2002);
    let fault = FaultModel::none()
        .with_duplicate(0.3)
        .with_reorder(0.2, Ticks::from_millis(10))
        .with_jitter(Ticks::from_millis(3));
    let ctx =
        format!("scenario `dup-reorder-jitter` is reproducible with seed {seed} and {fault:?}");
    let (clean, clean_report) = views_over(seed, FaultModel::none());
    let (views, report) = views_over(seed, fault);
    assert_eq!(clean.len() as u64, DUP_SHARES, "{ctx}");
    assert!(views == clean, "the faulty link's views differ\n{ctx}");
    assert_eq!(clean_report.duplicates, 0, "{ctx}");
    assert!(
        report.duplicates > 0,
        "duplication model never fired\n{ctx}"
    );
    assert_eq!(
        (report.received, report.lost),
        (clean_report.received, 0),
        "{ctx}"
    );
}

/// A single scripted drop is counted: the one packet in the blackout
/// is lost, and every other one arrives.
#[test]
fn single_drop_is_counted_lost_and_skipped() {
    let sc = Scenario {
        name: "single-drop",
        seed: chaos_seed(3003),
        plan: FaultPlan::new()
            .at(Ticks::from_millis(48), FaultAction::SetLoss(LinkId(0), 1.0))
            .at(Ticks::from_millis(52), FaultAction::SetLoss(LinkId(0), 0.0)),
        packets: 20,
        send_every: Ticks::from_millis(10),
        drain_for: Ticks::from_secs(1),
    };
    let ctx = sc.ctx();
    let out = run_stream(&sc);
    // Packet 5 (sent at t = 50 ms) fell in the blackout window.
    let expected: Vec<u64> = (0..u64::from(sc.packets)).filter(|&s| s != 5).collect();
    assert_eq!(out.seqs(), expected, "exactly seq 5 missing\n{ctx}");
    let rep = out.report(sc.packets);
    assert_eq!((rep.received, rep.lost), (19, 1), "{ctx}");
}

// ------------------------------------------------- flaps and partitions

/// Shared checks for the two outage scenarios: the ten sends made while
/// the receiver is unreachable fail and are counted lost, and arrivals
/// resume after the heal.
fn assert_outage_counted(sc: &Scenario, out: &Outcome) {
    let ctx = sc.ctx();
    assert_eq!(out.send_failures, 10, "sends during the outage fail\n{ctx}");
    // Sends 10..20 (t = 100..190 ms) fall in the 95..195 ms outage.
    let expected: Vec<u64> = (0..u64::from(sc.packets))
        .filter(|s| !(10..20).contains(s))
        .collect();
    assert_eq!(
        out.seqs(),
        expected,
        "every packet outside the outage arrives after heal\n{ctx}"
    );
    assert_eq!(out.report(sc.packets).lost, 10, "{ctx}");
}

#[test]
fn link_flap_loses_the_outage_and_resumes_in_order() {
    let sc = Scenario {
        name: "link-flap",
        seed: chaos_seed(4004),
        plan: FaultPlan::new()
            .at(Ticks::from_millis(95), FaultAction::LinkDown(LinkId(0)))
            .at(Ticks::from_millis(195), FaultAction::LinkUp(LinkId(0))),
        packets: 50,
        send_every: Ticks::from_millis(10),
        drain_for: Ticks::from_secs(1),
    };
    let out = run_stream(&sc);
    assert_outage_counted(&sc, &out);
}

#[test]
fn partition_heals_and_stream_recovers() {
    let sc = Scenario {
        name: "partition-heal",
        seed: chaos_seed(5005),
        plan: FaultPlan::new()
            .at(
                Ticks::from_millis(95),
                FaultAction::Partition(vec![NodeId(1)]),
            )
            .at(Ticks::from_millis(195), FaultAction::Heal),
        packets: 50,
        send_every: Ticks::from_millis(10),
        drain_for: Ticks::from_secs(1),
    };
    let out = run_stream(&sc);
    assert_outage_counted(&sc, &out);
}

// ------------------------------------------------- reproducibility

/// The whole point of the harness: same seed + same plan ⇒ the same
/// arrival trace, timestamps and all.
#[test]
fn scenario_trace_is_reproducible_from_seed() {
    let sc = burst_scenario(chaos_seed(6006));
    let first = run_stream(&sc);
    let second = run_stream(&sc);
    assert_eq!(first, second, "non-deterministic run!\n{}", sc.ctx());
    assert!(!first.arrivals.is_empty());
}

// ------------------------------------------------- ECN under congestion

/// Scripted congestion instead of scripted loss: a stream of numbered
/// media datagrams crosses a qdisc-shaped link comfortably until a
/// mid-run background flood squeezes it below its offered rate. The
/// AQM ECN-marks the (ECT) media packets instead of dropping anything,
/// the receiver report filled from the arrival log echoes the marks,
/// and the congestion watcher's trap downgrades modality — all while
/// the stream is delivered *complete*, with zero loss.
#[test]
fn ecn_congestion_downgrades_modality_with_zero_loss() {
    use collabqos::core::trapwatch::{decision_from_trap, EdgeWatcher};
    use collabqos::simnet::qdisc::QdiscConfig;
    use collabqos::snmp::transport::{AgentRuntime, TrapSink};
    use collabqos::snmp::SnmpAgent;

    let seed = chaos_seed(7007);
    let mut net = Network::new(seed);
    let src = net.add_node("sender");
    let dst = net.add_node("receiver");
    let station = net.add_node("station");
    let link = net.connect(src, dst, LinkSpec::lan());
    net.connect(dst, station, LinkSpec::lan());
    let mut cfg = QdiscConfig::for_rate(1_000_000);
    cfg.codel_target_us = 2_000;
    cfg.codel_interval_us = 10_000;
    // The flood rides the bulk class: its 3000-byte quantum squeezes
    // interactive media down to 2/3 of the link while both backlog.
    cfg.class_map
        .assign(9000, collabqos::simnet::qdisc::TrafficClass::BulkMedia);
    let ctx = format!("seed {seed}, {}", cfg.summary());
    net.attach_qdisc(link, cfg);

    let tx_media = net.bind(src, MEDIA_PORT).unwrap();
    let rx_media = net.bind(dst, MEDIA_PORT).unwrap();
    let tx_noise = net.bind(src, Port(9000)).unwrap();
    net.bind(dst, Port(9000)).unwrap();
    net.set_ecn(tx_media, true);
    // ECT flood: marked rather than AQM-dropped, so it keeps consuming
    // link tokens and genuinely competes with the media class.
    net.set_ecn(tx_noise, true);

    // Each media arrival's sequence number and CE mark.
    let mut arrivals: Vec<(u32, bool)> = Vec::new();
    let mut take = |net: &mut Network| {
        while let Some(d) = net.recv(rx_media) {
            let seq = u32::from_be_bytes(d.payload[..4].try_into().unwrap());
            arrivals.push((seq, d.ecn_ce));
        }
    };

    // ~0.85 Mb/s of media on a 1 Mb/s shaped link; steps 200..400 add
    // a ~4 Mb/s bulk flood of equal-size packets (a shaper-blocked
    // head forfeits its DRR visit, so only same-size competition
    // exercises the quanta) that squeezes the media class down to its
    // 2/3 share.
    for step in 0..600u32 {
        let mut media = vec![0u8; 182];
        media[..4].copy_from_slice(&step.to_be_bytes());
        net.send(tx_media, Addr::unicast(dst, MEDIA_PORT), media)
            .unwrap();
        if (200..400).contains(&step) {
            for _ in 0..5 {
                let _ = net.send(tx_noise, Addr::unicast(dst, Port(9000)), vec![0u8; 182]);
            }
        }
        net.run_for(Ticks::from_millis(2));
        take(&mut net);
    }
    net.run_to_quiescence();
    take(&mut net);
    let mut seqs: Vec<u32> = arrivals.iter().map(|&(seq, _)| seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    let (distinct, all) = (seqs.len() as u64, arrivals.len() as u64);
    let marked = arrivals.iter().filter(|&&(_, ce)| ce).count() as u64;
    let report = ReceiverReport::from_counts(distinct, 600 - distinct, all - distinct, all, marked);

    assert_eq!(report.lost, 0, "AQM marked instead of dropping\n{ctx}");
    assert_eq!(report.received, 600, "full stream delivered\n{ctx}");
    assert!(
        report.fraction_ecn_ce >= 0.05,
        "flood phase must leave a CE footprint, got {:.3}\n{ctx}",
        report.fraction_ecn_ce
    );

    // The echoed marks, not loss, drive the adaptation.
    let agent = SnmpAgent::new("receiver", "public", None);
    let mut rt = AgentRuntime::bind(&mut net, dst, agent).unwrap();
    let mut sink = TrapSink::bind(&mut net, station).unwrap();
    let mut watcher = EdgeWatcher::congestion(5.0);
    assert!(
        watcher.observe(&mut net, &mut rt, station, report.fraction_ecn_ce * 100.0),
        "congestion crossing must trap\n{ctx}"
    );
    net.run_for(Ticks::from_millis(5));
    assert_eq!(sink.service(&mut net), 1, "{ctx}");
    let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
    let decision = decision_from_trap(&engine, &sink.traps[0])
        .unwrap_or_else(|| panic!("trap must carry congestion_pct\n{ctx}"));
    assert_ne!(
        decision.modality,
        ModalityChoice::FullImage,
        "congestion policy must cap modality below full image\n{ctx}"
    );
}

// ------------------------------------------------- figure bit-identity

/// Acceptance: all-zero fault rates leave the paper's figure series
/// bit-identical — inert models draw nothing from the seeded RNG.
#[test]
fn zero_fault_rates_leave_figures_bit_identical() {
    let cfg = |seed, fault| SessionConfig {
        seed,
        fault,
        ..SessionConfig::default()
    };
    let inert = Some(FaultModel::none());
    assert_eq!(
        run_fig6(cfg(7, inert)),
        run_fig6(cfg(7, None)),
        "fig6 perturbed by an inert fault model"
    );
    assert_eq!(
        run_fig7(cfg(42, inert)),
        run_fig7(cfg(42, None)),
        "fig7 perturbed by an inert fault model"
    );
    // Fig 10 is network-free; it must simply stay deterministic.
    let a = run_fig10();
    let b = run_fig10();
    assert_eq!(a.series, b.series);
    assert_eq!(a.a_sir_by_count, b.a_sir_by_count);
}

/// An *active* burst model on every LAN link still yields the identical
/// figure series from run to run: the network RNG sequence is a
/// function of the seed alone.
#[test]
fn faulted_figures_replay_identically() {
    let active = Some(FaultModel::none().with_burst(GilbertElliott::bursty(0.02, 0.3, 0.5)));
    let cfg = |seed| SessionConfig {
        seed,
        fault: active,
        ..SessionConfig::default()
    };
    assert_eq!(run_fig6(cfg(7)), run_fig6(cfg(7)), "fig6, rerun");
    assert_eq!(run_fig7(cfg(42)), run_fig7(cfg(42)), "fig7, rerun");
}

// ------------------------------------------------- session under a plan

/// Full-session chaos: one publisher multicasts scenes to three viewers
/// while a scripted plan degrades and restores a viewer's link. The
/// delivery trace must replay bit-identically from the seed and plan.
fn run_session_under_plan(seed: u64, plan: &FaultPlan) -> Vec<(usize, u64, u32, f64)> {
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
            profile.clone(),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
        )
        .unwrap();
    for i in 0..3 {
        let mut p = Profile::new(&format!("viewer{i}"));
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        session
            .add_wired_client(
                p,
                InferenceEngine::new(PolicyDb::new(), QosContract::default()),
                SimHost::idle(&format!("viewer{i}")),
            )
            .unwrap();
    }
    session.net.set_fault_plan(plan.clone());
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

// ------------------------------------------------- engine head-to-head

/// Engines under test for the head-to-head scenarios. `CHAOS_ENGINE`
/// narrows the set to one engine (the soak workflow runs each engine
/// in its own pass); unset runs all three.
fn engines_under_test() -> Vec<EngineChoice> {
    match std::env::var("CHAOS_ENGINE") {
        Ok(name) => {
            let choice = EngineChoice::parse(&name)
                .unwrap_or_else(|| panic!("CHAOS_ENGINE={name} is not an engine"));
            vec![choice]
        }
        Err(_) => EngineChoice::all().to_vec(),
    }
}

/// The head-to-head policy mix: loss + ECN congestion bands, the same
/// databases every engine sees in `experiments::run_policy_comparison`.
fn head_to_head_engine(choice: EngineChoice) -> Box<dyn AdaptationPolicy> {
    let mut db = PolicyDb::loss_policy();
    db.merge(PolicyDb::congestion_policy());
    choice.build(db, QosContract::default())
}

/// One observation window of a degrading stream, as an engine input.
#[derive(Debug, Clone, Copy)]
struct Window {
    loss_pct: f64,
    congestion_pct: f64,
}

impl Window {
    fn state(&self) -> std::collections::BTreeMap<String, f64> {
        let mut s = std::collections::BTreeMap::new();
        s.insert("loss_pct".to_string(), self.loss_pct);
        s.insert("congestion_pct".to_string(), self.congestion_pct);
        s
    }
}

/// Stream plain datagrams over the single faulty link and measure loss
/// per window. The plan degrades the link after `lead` clean windows
/// and heals it `burst` windows later; each window sends
/// `per_window` packets at 2 ms spacing with a 20 ms settle so no
/// packet bleeds across a window boundary.
fn observe_loss_windows(seed: u64, lead: usize, burst: usize, tail: usize) -> Vec<Window> {
    const PER_WINDOW: u64 = 50;
    let window_us: u64 = PER_WINDOW * 2_000 + 20_000;
    let mut net = Network::new(seed);
    let src = net.add_node("sender");
    let dst = net.add_node("receiver");
    net.connect(src, dst, LinkSpec::wireless().with_loss(0.0));
    net.set_fault_plan(
        FaultPlan::new()
            .at(
                Ticks::from_micros(lead as u64 * window_us),
                FaultAction::SetFault(LinkId(0), heavy_burst()),
            )
            .at(
                Ticks::from_micros((lead + burst) as u64 * window_us),
                FaultAction::ClearFault(LinkId(0)),
            ),
    );
    let tx = net.bind(src, MEDIA_PORT).unwrap();
    let rx = net.bind(dst, MEDIA_PORT).unwrap();

    let mut windows = Vec::new();
    for _ in 0..(lead + burst + tail) {
        for pkt in 0..PER_WINDOW {
            let _ = net.send(
                tx,
                Addr::unicast(dst, MEDIA_PORT),
                pkt.to_be_bytes().to_vec(),
            );
            net.run_for(Ticks::from_micros(2_000));
        }
        net.run_for(Ticks::from_micros(20_000));
        let got = std::iter::from_fn(|| net.recv(rx)).count() as f64;
        windows.push(Window {
            loss_pct: 100.0 * (PER_WINDOW as f64 - got) / PER_WINDOW as f64,
            congestion_pct: 0.0,
        });
    }
    windows
}

/// Gilbert–Elliott head-to-head: every engine must push modality below
/// `FullImage` on any window whose measured loss reaches the heavy
/// band (≥ 10%), and must restore `FullImage` once the link heals.
/// The burst model and seed make the windows; the engines only read
/// them, so one network run serves all three.
#[test]
fn ge_burst_head_to_head_downgrades_and_recovers() {
    let seed = chaos_seed(8008);
    let (lead, burst, tail) = (3, 12, 3);
    let windows = observe_loss_windows(seed, lead, burst, tail);
    let ctx = format!(
        "GE burst head-to-head, seed {seed}, windows: {:?}",
        windows.iter().map(|w| w.loss_pct).collect::<Vec<_>>()
    );

    let heavy: Vec<usize> = (0..windows.len())
        .filter(|&i| windows[i].loss_pct >= 10.0)
        .collect();
    assert!(
        heavy.len() >= 2,
        "burst model barely bit: only {} heavy windows\n{ctx}",
        heavy.len()
    );
    for w in &windows[lead + burst..] {
        assert!(w.loss_pct < 2.0, "healed link still lossy\n{ctx}");
    }

    for choice in engines_under_test() {
        let engine = head_to_head_engine(choice);
        for &i in &heavy {
            let d = engine.decide(&windows[i].state());
            assert!(
                d.modality < ModalityChoice::FullImage,
                "engine `{}` held FullImage at window {i} ({:.1}% loss): {d:?}\n{ctx}",
                engine.name(),
                windows[i].loss_pct
            );
        }
        let healed = engine.decide(&windows[windows.len() - 1].state());
        assert_eq!(
            healed.modality,
            ModalityChoice::FullImage,
            "engine `{}` failed to recover after heal: {healed:?}\n{ctx}",
            engine.name()
        );
    }
}

/// Drive the ECN-flood scenario once (the qdisc topology of
/// `ecn_congestion_downgrades_modality_with_zero_loss`, windowed) and
/// return per-window observations: CE-mark percentage plus loss.
fn observe_ecn_windows(seed: u64) -> Vec<Window> {
    use collabqos::simnet::qdisc::QdiscConfig;

    let mut net = Network::new(seed);
    let src = net.add_node("sender");
    let dst = net.add_node("receiver");
    let link = net.connect(src, dst, LinkSpec::lan());
    let mut cfg = QdiscConfig::for_rate(1_000_000);
    cfg.codel_target_us = 2_000;
    cfg.codel_interval_us = 10_000;
    cfg.class_map
        .assign(9000, collabqos::simnet::qdisc::TrafficClass::BulkMedia);
    net.attach_qdisc(link, cfg);

    let tx_media = net.bind(src, MEDIA_PORT).unwrap();
    let rx_media = net.bind(dst, MEDIA_PORT).unwrap();
    let tx_noise = net.bind(src, Port(9000)).unwrap();
    net.bind(dst, Port(9000)).unwrap();
    net.set_ecn(tx_media, true);
    net.set_ecn(tx_noise, true);

    let mut windows = Vec::new();
    let mut sent_in_window = 0u32;
    let mut got = 0u32;
    let mut marked = 0u32;
    for step in 0..600u32 {
        // Same 182-byte wire size as the ECN scenario's media (and
        // as the flood): a shaper-blocked head
        // forfeits its DRR visit, so only same-size competition
        // exercises the quanta and backlogs the media class.
        net.send(tx_media, Addr::unicast(dst, MEDIA_PORT), vec![0u8; 182])
            .unwrap();
        sent_in_window += 1;
        if (200..400).contains(&step) {
            for _ in 0..5 {
                let _ = net.send(tx_noise, Addr::unicast(dst, Port(9000)), vec![0u8; 182]);
            }
        }
        net.run_for(Ticks::from_millis(2));
        while let Some(d) = net.recv(rx_media) {
            got += 1;
            if d.ecn_ce {
                marked += 1;
            }
        }
        if (step + 1) % 60 == 0 {
            net.run_to_quiescence();
            while let Some(d) = net.recv(rx_media) {
                got += 1;
                if d.ecn_ce {
                    marked += 1;
                }
            }
            windows.push(Window {
                loss_pct: 100.0 * f64::from(sent_in_window - got.min(sent_in_window))
                    / f64::from(sent_in_window),
                congestion_pct: 100.0 * f64::from(marked) / f64::from(got.max(1)),
            });
            sent_in_window = 0;
            got = 0;
            marked = 0;
        }
    }
    windows
}

/// ECN-flood head-to-head: during flood windows (CE ≥ 5%) every engine
/// must decide something strictly more conservative than its own
/// clean-window decision — a smaller packet budget or a lower modality
/// (the Bayesian engine, corroborated by zero loss, trims the budget
/// while holding modality; the threshold and fuzzy engines cap
/// modality too). After the flood drains, every engine returns to its
/// clean decision.
#[test]
fn ecn_flood_head_to_head_trims_before_loss() {
    let seed = chaos_seed(9009);
    let windows = observe_ecn_windows(seed);
    let ctx = format!(
        "ECN flood head-to-head, seed {seed}, windows (loss, ce): {:?}",
        windows
            .iter()
            .map(|w| (w.loss_pct, w.congestion_pct))
            .collect::<Vec<_>>()
    );

    let congested: Vec<usize> = (0..windows.len())
        .filter(|&i| windows[i].congestion_pct >= 5.0)
        .collect();
    assert!(congested.len() >= 2, "flood left no CE footprint\n{ctx}");
    let last = windows.len() - 1;
    assert!(
        windows[last].congestion_pct < 5.0,
        "flood never drained\n{ctx}"
    );

    let clean_window = Window {
        loss_pct: 0.0,
        congestion_pct: 0.0,
    };
    for choice in engines_under_test() {
        let engine = head_to_head_engine(choice);
        let clean = engine.decide(&clean_window.state());
        for &i in &congested {
            let d = engine.decide(&windows[i].state());
            assert!(
                d.max_packets < clean.max_packets || d.modality < clean.modality,
                "engine `{}` did not trim at window {i} ({:.1}% CE): {d:?} vs clean {clean:?}\n{ctx}",
                engine.name(),
                windows[i].congestion_pct
            );
        }
        let drained = engine.decide(&windows[last].state());
        assert_eq!(
            (drained.max_packets, drained.modality),
            (clean.max_packets, clean.modality),
            "engine `{}` failed to recover after drain\n{ctx}",
            engine.name()
        );
    }
}

/// Full-session chaos per engine: viewers built through
/// `SessionConfig::engine` + `add_adaptive_client`, adapted each round
/// while a scripted plan degrades a viewer link. Decision and delivery
/// traces must replay bit-identically from the seed and plan for every
/// engine.
fn run_adaptive_session_under_plan(
    seed: u64,
    plan: &FaultPlan,
    choice: EngineChoice,
) -> Vec<String> {
    let cfg = SessionConfig {
        seed,
        engine: choice,
        ..SessionConfig::default()
    };
    let mut session = CollaborationSession::new(cfg);
    let mut profile = Profile::new("publisher");
    profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let mut db = PolicyDb::loss_policy();
    db.merge(PolicyDb::congestion_policy());
    let publisher = session
        .add_adaptive_client(
            profile.clone(),
            db.clone(),
            QosContract::default(),
            SimHost::idle("publisher"),
        )
        .unwrap();
    for i in 0..3 {
        let mut p = Profile::new(&format!("viewer{i}"));
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        session
            .add_adaptive_client(
                p,
                db.clone(),
                QosContract::default(),
                SimHost::idle(&format!("viewer{i}")),
            )
            .unwrap();
    }
    session.net.set_fault_plan(plan.clone());
    let mut rows = Vec::new();
    for round in 0..3u64 {
        for d in session.adapt_all() {
            rows.push(format!("{d:?}"));
        }
        let scene = synthetic_scene(64, 64, 1, 3, seed.wrapping_add(round));
        session
            .share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        for (cid, viewed) in session.pump(Ticks::from_secs(2)) {
            rows.push(format!(
                "{cid} {} {} {:.4}",
                viewed.object_id, viewed.packets_accepted, viewed.bpp
            ));
        }
    }
    rows
}

#[test]
fn engine_sessions_replay_identically() {
    let plan = FaultPlan::new()
        .at(
            Ticks::from_millis(5),
            FaultAction::SetFault(LinkId(1), heavy_burst()),
        )
        .at(Ticks::from_millis(400), FaultAction::ClearFault(LinkId(1)));
    let seed = chaos_seed(1111);
    for choice in engines_under_test() {
        let first = run_adaptive_session_under_plan(seed, &plan, choice);
        assert!(
            !first.is_empty(),
            "engine `{}`: no deliveries completed; seed {seed}",
            choice.name()
        );
        assert_eq!(
            run_adaptive_session_under_plan(seed, &plan, choice),
            first,
            "engine `{}` trace diverged on a rerun; seed {seed}, plan:\n{plan}",
            choice.name()
        );
    }
}

// ------------------------------------------------- custody federation

/// Drive a 2-domain custody-enabled session through a scripted
/// inter-broker partition: publish `burst` chat lines while the link
/// is down, then heal and drain. Returns the texter's chat trace plus
/// the custody counters that describe what the store did.
fn run_custody_session_under_plan(
    seed: u64,
    lifetime: Ticks,
    heal_after: Ticks,
    burst: usize,
) -> (Vec<String>, u64, u64, u64, String) {
    use collabqos::dtn::StoreConfig;

    let mut session = CollaborationSession::new(SessionConfig {
        seed,
        domains: Some(2),
        custody: Some(StoreConfig {
            lifetime,
            retry_after: Ticks::from_millis(10),
            ..StoreConfig::default()
        }),
        ..SessionConfig::default()
    });
    let mut profile = Profile::new("publisher");
    profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let publisher = session
        .add_wired_client_in_domain(
            profile,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
            0,
        )
        .unwrap();
    let mut p = Profile::new("texter");
    p.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("text")]),
    );
    let texter = session
        .add_wired_client_in_domain(
            p,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("texter"),
            1,
        )
        .unwrap();

    let link = session.inter_broker_link(0, 1).unwrap();
    let t0 = session.net.now();
    let plan = FaultPlan::new()
        .at(t0 + Ticks::from_millis(2), FaultAction::LinkDown(link))
        .at(t0 + heal_after, FaultAction::LinkUp(link));
    let ctx = format!("seed {seed}, fault plan:\n{plan}");
    session.net.set_fault_plan(plan);

    // Into the outage, then the burst: every line is wrapped as a
    // bundle and parked in broker 0's custody store.
    session.pump(Ticks::from_millis(5));
    for k in 0..burst {
        session
            .share_chat(
                publisher,
                &format!("line {k}"),
                "interested_in contains 'text'",
            )
            .unwrap();
    }
    // Pump across the heal (and, in the expiry scenario, far past
    // every bundle's deadline) so the store fully drains or expires.
    session.pump(heal_after + Ticks::from_millis(200));
    let stats = session.store_stats(0).unwrap();
    (
        session
            .client(texter)
            .chat
            .log
            .iter()
            .map(|(_, line)| line.clone())
            .collect(),
        stats.stored_bundles(),
        stats.custody_transfers(),
        stats.expired(),
        ctx,
    )
}

/// Acceptance: partition + publish burst + heal delivers every
/// non-expired message exactly once, in publish order.
#[test]
fn custody_partition_burst_heal_delivers_exactly_once_in_order() {
    let seed = chaos_seed(1212);
    let lifetime = Ticks::from_secs(30);
    let heal_after = Ticks::from_millis(100);
    let (log, stored, transfers, expired, ctx) =
        run_custody_session_under_plan(seed, lifetime, heal_after, 6);
    assert_eq!(
        log,
        (0..6).map(|k| format!("line {k}")).collect::<Vec<_>>(),
        "every line delivered exactly once, in order, after the heal\n{ctx}"
    );
    assert_eq!(stored, 0, "store drained\n{ctx}");
    assert_eq!(transfers, 6, "each bundle released exactly once\n{ctx}");
    assert_eq!(expired, 0, "nothing expired under a 30 s lifetime\n{ctx}");
}

/// Lifetime expiry: when the partition outlasts every bundle's
/// lifetime, the store expires them in place — nothing is delivered
/// after the heal, nothing is duplicated, and the expiry counter
/// accounts for the whole burst.
#[test]
fn custody_lifetime_expiry_drops_the_burst_cleanly() {
    let seed = chaos_seed(1313);
    let lifetime = Ticks::from_millis(20);
    let heal_after = Ticks::from_millis(300);
    let (log, stored, transfers, expired, ctx) =
        run_custody_session_under_plan(seed, lifetime, heal_after, 4);
    assert_eq!(
        log,
        Vec::<String>::new(),
        "expired bundles must never be delivered\n{ctx}"
    );
    assert_eq!(stored, 0, "expired bundles leave the store\n{ctx}");
    assert_eq!(transfers, 0, "{ctx}");
    assert_eq!(expired, 4, "the whole burst expired in custody\n{ctx}");
}

#[test]
fn session_chaos_trace_replays_identically() {
    // Client links are created in join order: publisher = LinkId(0),
    // viewer0 = LinkId(1). Degrade viewer0's link mid-stream, restore
    // later.
    let plan = FaultPlan::new()
        .at(
            Ticks::from_millis(5),
            FaultAction::SetFault(LinkId(1), heavy_burst()),
        )
        .at(Ticks::from_millis(400), FaultAction::ClearFault(LinkId(1)));
    let seed = chaos_seed(99);
    let first = run_session_under_plan(seed, &plan);
    assert!(!first.is_empty(), "at least some deliveries complete");
    assert_eq!(
        run_session_under_plan(seed, &plan),
        first,
        "session delivery trace diverged on a rerun; seed {seed}, plan:\n{plan}"
    );
}
