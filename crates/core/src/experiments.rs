//! Closed-loop drivers regenerating the paper's evaluation (§6):
//! Figures 6–10 plus the §5.4 sketch-reduction headline. Used by the
//! repro binaries and the integration tests so that both report
//! identical series.
//!
//! One runner per figure. [`run_fig6`] and [`run_fig7`] take the whole
//! [`SessionConfig`] and set only the figure's own stream cap, so the
//! flat, brokered and faulted variants the suites compare are
//! configurations of one function, not functions of their own.

use crate::contract::QosContract;
use crate::inference::InferenceEngine;
use crate::policy::PolicyDb;
use crate::session::{CollaborationSession, SessionConfig};
use media::image::{synthetic_scene, Scene};
use media::Sketch;
use sempubsub::{AttrValue, Profile};
use simnet::Ticks;
use sysmon::{sweep, HostState, SimHost};
use wireless::channel::from_db;
use wireless::power::{equal_factor_scaling, foschini_miljanic, utility};
use wireless::sir::all_sirs_db;
use wireless::{
    BaseStation, ClientRadio, DistanceSchedule, Modality, ModalityThresholds, PathLossModel,
};

// ------------------------------------------------------- figures 6, 7

/// One row of the Figure 6 / Figure 7 series.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewerRow {
    /// The swept parameter (page faults for Fig 6, CPU load % for Fig 7).
    pub x: f64,
    /// Packets the inference engine accepted (graph 1).
    pub packets: u32,
    /// Compression ratio achieved (graph 2).
    pub compression_ratio: f64,
    /// Bits per pixel received (graph 3).
    pub bpp: f64,
}

fn viewer_profile(name: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    p
}

/// Shared driver for the two image-viewer experiments: force the
/// viewer's host to each swept state, adapt over SNMP, share the scene,
/// and record what the viewer displayed.
fn run_viewer_sweep(
    policies: PolicyDb,
    scene: &Scene,
    states: impl Iterator<Item = (f64, HostState)>,
    cfg: SessionConfig,
) -> Vec<ViewerRow> {
    let mut session = CollaborationSession::new(cfg);
    let publisher = session
        .add_wired_client(
            viewer_profile("publisher"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
        )
        .expect("publisher joins");
    let viewer = session
        .add_wired_client(
            viewer_profile("viewer"),
            InferenceEngine::new(policies, QosContract::default()),
            SimHost::idle("viewer"),
        )
        .expect("viewer joins");

    let mut rows = Vec::new();
    for (x, host_state) in states {
        session.client_mut(viewer).host.force(host_state);
        let decision = session.adapt(viewer);
        session
            .share_image(publisher, scene, "interested_in contains 'image'")
            .expect("share succeeds");
        let completed = session.pump(Ticks::from_secs(2));
        let done = completed.iter().find(|(cid, _)| *cid == viewer);
        match done {
            Some((_, viewed)) => rows.push(ViewerRow {
                x,
                packets: viewed.packets_accepted,
                compression_ratio: viewed.compression_ratio,
                bpp: viewed.bpp,
            }),
            None => rows.push(ViewerRow {
                // Zero packets accepted: text fallback, nothing decoded.
                x,
                packets: decision.max_packets,
                compression_ratio: f64::INFINITY,
                bpp: 0.0,
            }),
        }
    }
    rows
}

/// Figure 6: image-viewer parameters versus host page faults
/// (grayscale source, stream peak ≈ 2.1 bpp as in the paper).
///
/// The scene and the session are seeded from `cfg.seed`, and the figure
/// sets its own `full_stream_bpp`; every other field is the caller's.
/// An inert `fault` model and a brokered `domains` layout both produce
/// the series of `SessionConfig::default()` at that seed.
pub fn run_fig6(cfg: SessionConfig) -> Vec<ViewerRow> {
    let scene = synthetic_scene(256, 256, 1, 4, cfg.seed);
    let states = sweep(30.0, 100.0, 8).into_iter().map(|f| {
        (
            f,
            HostState {
                cpu_load: 20.0,
                page_faults: f,
                mem_avail_kb: 65_536.0,
            },
        )
    });
    run_viewer_sweep(
        PolicyDb::paper_page_fault_policy(),
        &scene,
        states,
        SessionConfig {
            full_stream_bpp: Some(2.1),
            ..cfg
        },
    )
}

/// Figure 7: image-viewer parameters versus CPU load (colour source,
/// stream peak ≈ 14.3 bpp as in the paper; packets reach 0 at 100%).
/// Seeded and configured as [`run_fig6`] is, with the figure's own
/// `full_stream_bpp`.
pub fn run_fig7(cfg: SessionConfig) -> Vec<ViewerRow> {
    let scene = synthetic_scene(256, 256, 3, 4, cfg.seed);
    let states = sweep(30.0, 100.0, 8).into_iter().map(|c| {
        (
            c,
            HostState {
                cpu_load: c,
                page_faults: 10.0,
                mem_avail_kb: 65_536.0,
            },
        )
    });
    run_viewer_sweep(
        PolicyDb::paper_cpu_load_policy(),
        &scene,
        states,
        SessionConfig {
            full_stream_bpp: Some(14.3),
            ..cfg
        },
    )
}

// ---------------------------------------------------- figures 8, 9, 10

/// One step of a wireless SIR experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SirRow {
    /// X-axis point.
    pub step: f64,
    /// Per-client SIR in dB, in client order.
    pub sirs_db: Vec<f64>,
    /// Modality the base station forwards for client 0 at this step.
    pub modality: Modality,
}

/// Figure 8: two wireless clients, client A's distance follows the
/// 100 m→50 m→100 m trajectory while B holds at 80 m; fixed powers.
pub fn run_fig8() -> Vec<SirRow> {
    let mut bs = BaseStation::new(PathLossModel::default(), ModalityThresholds::default());
    bs.join_unchecked(ClientRadio::new("a", 100.0, 100.0))
        .expect("a joins");
    bs.join_unchecked(ClientRadio::new("b", 80.0, 100.0))
        .expect("b joins");
    let schedule = DistanceSchedule::figure8_client_a();
    let mut rows = Vec::new();
    for step in 0..=5usize {
        bs.update_distance("a", schedule.at(step as f64)).unwrap();
        let assessments = bs.assess_all();
        rows.push(SirRow {
            step: step as f64,
            sirs_db: assessments.iter().map(|a| a.sir_db).collect(),
            modality: assessments[0].modality,
        });
    }
    rows
}

/// Figure 9: same two clients at fixed distances (A 70 m, B 80 m);
/// A's transmit power is stepped 50 → 250 mW.
pub fn run_fig9() -> Vec<SirRow> {
    let mut bs = BaseStation::new(PathLossModel::default(), ModalityThresholds::default());
    bs.join_unchecked(ClientRadio::new("a", 70.0, 50.0))
        .expect("a joins");
    bs.join_unchecked(ClientRadio::new("b", 80.0, 100.0))
        .expect("b joins");
    let mut rows = Vec::new();
    for (step, power) in [50.0, 100.0, 150.0, 200.0, 250.0].into_iter().enumerate() {
        bs.update_power("a", power).unwrap();
        let assessments = bs.assess_all();
        rows.push(SirRow {
            step: step as f64,
            sirs_db: assessments.iter().map(|a| a.sir_db).collect(),
            modality: assessments[0].modality,
        });
    }
    rows
}

/// The Figure 10 series plus the §6.3.3 join-degradation headline:
/// client A's SIR as clients 2 and 3 join, then a combined
/// distance-and-power variation across three clients.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// A's SIR (dB) with 1, 2, 3 clients attached.
    pub a_sir_by_count: Vec<f64>,
    /// Fractional drop of A's *linear* SIR when client 2 joined.
    pub drop_on_second_join: f64,
    /// Further fractional drop when client 3 joined.
    pub drop_on_third_join: f64,
    /// The stepwise three-client series (distance and power varying).
    pub series: Vec<SirRow>,
}

/// Figure 10: three wireless clients with varying distance and power.
pub fn run_fig10() -> Fig10Result {
    let mut bs = BaseStation::new(PathLossModel::default(), ModalityThresholds::default());
    fig10_series(&mut bs)
}

/// [`run_fig10`] with the base station attached as the gateway of a
/// 3-domain brokered session (promiscuous advertisement in domain 0)
/// instead of standing alone. The radio-level series is bit-identical
/// to [`run_fig10`]: the overlay moves session events, not SIR.
pub fn run_fig10_brokered() -> Fig10Result {
    let cfg = SessionConfig {
        domains: Some(3),
        ..SessionConfig::default()
    };
    let mut session = CollaborationSession::new(cfg);
    session
        .attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .expect("gateway attaches");
    // Let the wildcard advertisement flood the overlay before the
    // radio schedule runs, as a real deployment would.
    session.pump(Ticks::from_millis(50));
    let bs = &mut session.base_station.as_mut().expect("attached").station;
    fig10_series(bs)
}

fn fig10_series(bs: &mut BaseStation) -> Fig10Result {
    let mut a_sir_by_count = Vec::new();

    bs.join_unchecked(ClientRadio::new("a", 60.0, 100.0))
        .unwrap();
    a_sir_by_count.push(bs.assess("a").unwrap().sir_db);
    bs.join_unchecked(ClientRadio::new("b", 55.0, 100.0))
        .unwrap();
    a_sir_by_count.push(bs.assess("a").unwrap().sir_db);
    bs.join_unchecked(ClientRadio::new("c", 65.0, 100.0))
        .unwrap();
    a_sir_by_count.push(bs.assess("a").unwrap().sir_db);

    let lin = |db: f64| from_db(db);
    let drop_on_second_join = 1.0 - lin(a_sir_by_count[1]) / lin(a_sir_by_count[0]);
    let drop_on_third_join = 1.0 - lin(a_sir_by_count[2]) / lin(a_sir_by_count[1]);

    // Combined variation: A approaches, B raises power, C recedes.
    let a_dist = DistanceSchedule::new(&[(0.0, 60.0), (5.0, 30.0)]);
    let c_dist = DistanceSchedule::new(&[(0.0, 65.0), (5.0, 95.0)]);
    let mut series = Vec::new();
    for step in 0..=5usize {
        let s = step as f64;
        bs.update_distance("a", a_dist.at(s)).unwrap();
        bs.update_power("b", 100.0 + 30.0 * s).unwrap();
        bs.update_distance("c", c_dist.at(s)).unwrap();
        let assessments = bs.assess_all();
        series.push(SirRow {
            step: s,
            sirs_db: assessments.iter().map(|a| a.sir_db).collect(),
            modality: assessments[0].modality,
        });
    }
    Fig10Result {
        a_sir_by_count,
        drop_on_second_join,
        drop_on_third_join,
        series,
    }
}

/// Figure 8 with 4 dB log-normal shadowing enabled: the robustness
/// variant. Fades perturb every SIR but the trajectory's gross shape
/// (A better when close; B recovering as A recedes) must survive.
pub fn run_fig8_shadowed(sigma_db: f64) -> Vec<SirRow> {
    let model = PathLossModel::default().with_shadowing(sigma_db);
    let mut bs = BaseStation::new(model, ModalityThresholds::default());
    bs.join_unchecked(ClientRadio::new("a", 100.0, 100.0))
        .expect("a joins");
    bs.join_unchecked(ClientRadio::new("b", 80.0, 100.0))
        .expect("b joins");
    let schedule = DistanceSchedule::figure8_client_a();
    let mut rows = Vec::new();
    for step in 0..=5usize {
        bs.update_distance("a", schedule.at(step as f64)).unwrap();
        bs.advance_shadowing_epoch();
        let assessments = bs.assess_all();
        rows.push(SirRow {
            step: step as f64,
            sirs_db: assessments.iter().map(|a| a.sir_db).collect(),
            modality: assessments[0].modality,
        });
    }
    rows
}

// -------------------------------------------------- capacity limit

/// One point of the session-capacity curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityRow {
    /// Clients attached.
    pub clients: usize,
    /// Worst per-client SIR in dB.
    pub min_sir_db: f64,
    /// Modality available to the worst client.
    pub worst_modality: Modality,
}

/// The §6.3.3 upper limit, swept: attach identical clients one by one
/// (bypassing admission control) and record the worst SIR and modality
/// after each join; separately report how many clients *admission
/// control* would have accepted before the text threshold broke.
pub fn run_capacity_curve(max_clients: usize) -> (Vec<CapacityRow>, usize) {
    let model = PathLossModel::default();
    let thresholds = ModalityThresholds::default();
    let mk = |i: usize| ClientRadio::new(&format!("c{i}"), 60.0, 100.0);

    let mut unchecked = BaseStation::new(model, thresholds);
    let mut curve = Vec::with_capacity(max_clients);
    for i in 0..max_clients {
        unchecked.join_unchecked(mk(i)).expect("unique ids");
        let worst = unchecked
            .assess_all()
            .into_iter()
            .min_by(|a, b| a.sir_db.total_cmp(&b.sir_db))
            .expect("non-empty");
        curve.push(CapacityRow {
            clients: i + 1,
            min_sir_db: worst.sir_db,
            worst_modality: worst.modality,
        });
    }

    let mut checked = BaseStation::new(model, thresholds);
    let mut admitted = 0;
    for i in 0..max_clients {
        if checked.join(mk(i)).is_err() {
            break;
        }
        admitted += 1;
    }
    (curve, admitted)
}

// -------------------------------------------------- §6.3.2 observation

/// Quantifies the paper's §6.3.2 observation that "varying the distance
/// is more effective than a variation in power": the dB gain of client
/// A from halving its distance versus quadrupling its power, in an
/// otherwise identical two-client configuration.
pub fn distance_vs_power_leverage() -> (f64, f64) {
    let model = PathLossModel::default();
    let base = vec![
        ClientRadio::new("a", 80.0, 100.0),
        ClientRadio::new("b", 70.0, 100.0),
    ];
    let base_sir = all_sirs_db(&base, &model)[0];
    let closer = vec![
        ClientRadio::new("a", 40.0, 100.0),
        ClientRadio::new("b", 70.0, 100.0),
    ];
    let stronger = vec![
        ClientRadio::new("a", 80.0, 400.0),
        ClientRadio::new("b", 70.0, 100.0),
    ];
    (
        all_sirs_db(&closer, &model)[0] - base_sir,
        all_sirs_db(&stronger, &model)[0] - base_sir,
    )
}

// --------------------------------------------- power-control headline

/// The §6.3 power-control interplay: equal-factor reduction raises
/// every client's bits-per-joule utility, and Foschini–Miljanic finds
/// the minimal powers for a target SIR. Returns
/// `(utility_gain_ratio, fm_iterations)`.
pub fn run_power_control_study() -> (f64, usize) {
    let model = PathLossModel::default();
    let clients = vec![
        ClientRadio::new("a", 80.0, 100.0),
        ClientRadio::new("b", 60.0, 100.0),
        ClientRadio::new("c", 70.0, 100.0),
    ];
    let u_before = utility(0, &clients, &model, 80);
    let scaled = equal_factor_scaling(&clients, 0.5);
    let u_after = utility(0, &scaled, &model, 80);
    let fm = foschini_miljanic(&clients, &model, from_db(-6.0), 1e6, 1000);
    (u_after / u_before, fm.iterations)
}

// ------------------------------------------------ quality-rate curve

/// One point of the supplementary quality-rate curve: what image
/// quality each packet budget buys.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// Packets accepted.
    pub packets: u32,
    /// Bits per pixel received.
    pub bpp: f64,
    /// PSNR of the reconstruction vs the original, dB.
    pub psnr_db: f64,
}

/// Supplementary experiment: the PSNR-vs-packets curve behind Figures
/// 6/7's "wide range of compression ratios and quality of images".
pub fn run_quality_curve(seed: u64) -> Vec<QualityRow> {
    use media::ezw;
    use media::packetize::{reassemble_stripes, PacketView, Stripes};
    use media::wavelet::WaveletKind;

    let scene = synthetic_scene(256, 256, 1, 4, seed);
    let container = ezw::encode_image(&scene.image, 5, WaveletKind::Cdf53).expect("encodes");
    // The packets as a session sends and a viewer reads them: each
    // stripe's wire form, parsed in place.
    let stripes = Stripes::new(&container, 16).expect("16 stripes");
    let wires: Vec<Vec<u8>> = (0..16)
        .map(|i| {
            let mut wire = Vec::with_capacity(stripes.packet_len(i));
            stripes.write_packet(i, &mut wire);
            wire
        })
        .collect();
    let packets: Vec<PacketView<'_>> = wires
        .iter()
        .map(|wire| PacketView::parse(wire).expect("a written stripe parses"))
        .collect();
    let mut rows = Vec::new();
    let mut prefix = Vec::new();
    for k in 1..=16usize {
        reassemble_stripes(packets[..k].iter().copied(), &mut prefix).expect("prefix");
        let img = ezw::decode_image(&prefix).expect("decodes");
        let received: usize = packets[..k].iter().map(|p| p.payload.len()).sum();
        rows.push(QualityRow {
            packets: k as u32,
            bpp: media::bits_per_pixel(received, scene.image.pixels()),
            psnr_db: media::psnr(&scene.image, &img),
        });
    }
    rows
}

// ------------------------------------------------------- §5.4 headline

/// The sketch-reduction headline: returns `(original_bytes,
/// sketch_bytes, ratio)` for a 512×512 RGB scene.
pub fn run_headline_sketch(seed: u64) -> (usize, usize, f64) {
    let scene = synthetic_scene(512, 512, 3, 5, seed);
    let sketch = Sketch::extract(&scene.image, 8).expect("512 divisible by 8");
    (scene.image.byte_len(), sketch.byte_len(), sketch.ratio())
}

// ----------------------------------------------- engine comparison

/// One phase of an engine-comparison scenario: the channel's true
/// behaviour plus what the receiver reports observe (the two differ
/// in the measurement-noise scenario).
#[derive(Debug, Clone, Copy)]
pub struct ComparePhase {
    /// Per-packet delivery loss probability, percent.
    pub true_loss_pct: f64,
    /// Packets the link can deliver this phase; overshoot is dropped
    /// (queue overflow) and counts as loss.
    pub capacity: u32,
    /// `loss_pct` the engine sees (receiver-report estimate).
    pub observed_loss_pct: f64,
    /// `congestion_pct` the engine sees (ECN echo fraction).
    pub observed_congestion_pct: f64,
}

/// A named phase sequence for the engine head-to-head.
pub struct CompareScenario {
    /// Scenario name (appears in the EXPERIMENTS.md table).
    pub name: &'static str,
    /// The phase sequence.
    pub phases: Vec<ComparePhase>,
}

/// The three head-to-head scenarios, mirroring the chaos suite's
/// fault archetypes:
///
/// * `burst_loss` — a Gilbert–Elliott-style burst: sustained ~20%
///   exogenous loss with ample capacity; reported loss tracks truth.
/// * `ecn_flood` — an AQM bottleneck: capacity collapses to six
///   packets/phase and the ECN echo fraction reports it while raw
///   loss stays near zero until the budget overshoots.
/// * `noisy_spike` — a clean link with glitchy receiver reports that
///   oscillate around the threshold engine's 30% text band while the
///   ECN echo stays clean; true loss is ~1%.
fn comparison_scenarios() -> Vec<CompareScenario> {
    let phase = |true_loss: f64, capacity: u32, obs_loss: f64, obs_cong: f64| ComparePhase {
        true_loss_pct: true_loss,
        capacity,
        observed_loss_pct: obs_loss,
        observed_congestion_pct: obs_cong,
    };
    let clean = phase(1.0, 32, 1.0, 0.0);
    let mut burst = vec![clean; 12];
    for p in burst.iter_mut().take(9).skip(3) {
        *p = phase(20.0, 32, 20.0, 0.0);
    }
    let mut flood = vec![clean; 12];
    for p in flood.iter_mut().take(9).skip(3) {
        *p = phase(0.0, 6, 0.5, 35.0);
    }
    let mut spike = vec![clean; 12];
    for (p, obs) in spike
        .iter_mut()
        .take(9)
        .skip(3)
        .zip([33.0, 29.0, 35.0, 31.0, 33.0, 29.0])
    {
        *p = phase(1.0, 32, obs, 0.0);
    }
    vec![
        CompareScenario {
            name: "burst_loss",
            phases: burst,
        },
        CompareScenario {
            name: "ecn_flood",
            phases: flood,
        },
        CompareScenario {
            name: "noisy_spike",
            phases: spike,
        },
    ]
}

/// Delivered-utility score of one engine over one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineScore {
    /// Scenario name.
    pub scenario: &'static str,
    /// Engine name ([`crate::policy::AdaptationPolicy::name`]).
    pub engine: &'static str,
    /// Image packets offered to the link across all phases.
    pub sent: u64,
    /// Packets that survived loss and the capacity cap.
    pub delivered: u64,
    /// Packets lost (exogenous loss + capacity overshoot).
    pub lost: u64,
    /// Phases decided below [`crate::ModalityChoice::FullImage`].
    pub downgrades: u32,
    /// Total delivered utility (see [`score_engine`]).
    pub utility: f64,
}

/// How many delivered packets each modality can actually use: the
/// full progressive stream wants all 16, a sketch is ~4 packets'
/// worth, the text description one.
fn modality_need(m: crate::ModalityChoice) -> u32 {
    match m {
        crate::ModalityChoice::FullImage => 16,
        crate::ModalityChoice::Sketch => 4,
        crate::ModalityChoice::Text => 1,
        crate::ModalityChoice::None => 0,
    }
}

/// Per-useful-packet quality weight of each modality.
fn modality_weight(m: crate::ModalityChoice) -> f64 {
    match m {
        crate::ModalityChoice::FullImage => 1.0,
        crate::ModalityChoice::Sketch => 0.9,
        crate::ModalityChoice::Text => 0.8,
        crate::ModalityChoice::None => 0.0,
    }
}

/// Run one engine through one scenario and score delivered utility.
///
/// Per phase the engine sees the observed state, its decision's
/// `max_packets` go onto the link, and the phase scores
///
/// ```text
/// weight(modality) · min(delivered, need(modality))
///     − 0.1 · sent − 1.0 · lost
/// ```
///
/// — accepted packets weighted by modality (delivered packets beyond
/// what the modality can render are worthless), a per-packet send
/// cost (shared-channel bandwidth), and a penalty per lost packet
/// (retransmission pressure and decode stalls). Per-packet loss draws
/// come from a [`rand::rngs::StdRng`] seeded per engine/scenario, so
/// scores are deterministic and independent of evaluation order.
pub fn score_engine(
    engine: &dyn crate::AdaptationPolicy,
    scenario: &CompareScenario,
    seed: u64,
) -> EngineScore {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut stream_seed = seed;
    for b in engine.name().bytes().chain(scenario.name.bytes()) {
        stream_seed = stream_seed
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(b as u64);
    }
    let mut rng = StdRng::seed_from_u64(stream_seed);

    let mut score = EngineScore {
        scenario: scenario.name,
        engine: engine.name(),
        sent: 0,
        delivered: 0,
        lost: 0,
        downgrades: 0,
        utility: 0.0,
    };
    for phase in &scenario.phases {
        let mut state = std::collections::BTreeMap::new();
        state.insert("loss_pct".to_string(), phase.observed_loss_pct);
        state.insert("congestion_pct".to_string(), phase.observed_congestion_pct);
        let decision = engine.decide(&state);
        if decision.modality < crate::ModalityChoice::FullImage {
            score.downgrades += 1;
        }
        let sent = decision.max_packets;
        let mut delivered = 0u32;
        for _ in 0..sent {
            let survives = rng.random::<f64>() * 100.0 >= phase.true_loss_pct;
            if survives && delivered < phase.capacity {
                delivered += 1;
            }
        }
        let lost = sent - delivered;
        let useful = delivered.min(modality_need(decision.modality));
        score.sent += sent as u64;
        score.delivered += delivered as u64;
        score.lost += lost as u64;
        score.utility +=
            modality_weight(decision.modality) * useful as f64 - 0.1 * sent as f64 - lost as f64;
    }
    score
}

/// The full head-to-head: every engine through every scenario.
/// Scores group by scenario in `comparison_scenarios` order, each
/// scenario's rows in [`crate::EngineChoice::all`] order.
pub fn run_policy_comparison(seed: u64) -> Vec<EngineScore> {
    let mut scores = Vec::new();
    for scenario in comparison_scenarios() {
        for choice in crate::EngineChoice::all() {
            let engine = choice.build(default_comparison_policies(), QosContract::default());
            scores.push(score_engine(engine.as_ref(), &scenario, seed));
        }
    }
    scores
}

/// The threshold engine's policy set for the comparison: the two
/// measurement-driven bands the scenarios exercise.
pub fn default_comparison_policies() -> PolicyDb {
    let mut db = PolicyDb::loss_policy();
    db.merge(PolicyDb::congestion_policy());
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(seed: u64) -> SessionConfig {
        SessionConfig {
            seed,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn policy_comparison_is_deterministic() {
        let a = run_policy_comparison(7);
        let b = run_policy_comparison(7);
        assert_eq!(a, b, "same seed, same table");
        assert_eq!(a.len(), 9, "3 scenarios x 3 engines");
    }

    #[test]
    fn each_new_engine_beats_threshold_somewhere() {
        let scores = run_policy_comparison(7);
        let util = |scenario: &str, engine: &str| {
            scores
                .iter()
                .find(|s| s.scenario == scenario && s.engine == engine)
                .unwrap_or_else(|| panic!("missing {scenario}/{engine}"))
                .utility
        };
        let table: Vec<String> = scores
            .iter()
            .map(|s| format!("{}/{}: {:.1}", s.scenario, s.engine, s.utility))
            .collect();
        // The fuzzy controller's coupled budget+modality cuts win
        // under sustained degradation; the Bayesian posterior shrugs
        // off the glitchy loss reports. Pinned here so the
        // EXPERIMENTS.md table cannot silently rot.
        assert!(
            util("burst_loss", "fuzzy") > util("burst_loss", "threshold"),
            "fuzzy should win burst_loss: {table:?}"
        );
        assert!(
            util("ecn_flood", "fuzzy") > util("ecn_flood", "threshold"),
            "fuzzy should win ecn_flood: {table:?}"
        );
        assert!(
            util("noisy_spike", "bayes") > util("noisy_spike", "threshold"),
            "bayes should win noisy_spike: {table:?}"
        );
        assert!(
            util("ecn_flood", "bayes") > util("ecn_flood", "threshold"),
            "bayes should win ecn_flood: {table:?}"
        );
    }

    #[test]
    fn fig6_shape_matches_paper() {
        let rows = run_fig6(seeded(7));
        assert_eq!(rows.len(), 8);
        // Packets fall monotonically 16 -> 1 in powers of two.
        assert_eq!(rows.first().unwrap().packets, 16);
        assert_eq!(rows.last().unwrap().packets, 1);
        for w in rows.windows(2) {
            assert!(w[1].packets <= w[0].packets, "packets monotone");
            assert!(
                w[1].compression_ratio >= w[0].compression_ratio - 1e-9,
                "CR rises as packets fall"
            );
            assert!(w[1].bpp <= w[0].bpp + 1e-9, "BPP falls");
        }
        // Dynamic ranges in the ballpark of the paper (2.1 -> 0.1 bpp).
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            first.bpp > 1.5 && first.bpp <= 2.2,
            "top bpp {:.2}",
            first.bpp
        );
        assert!(last.bpp < 0.35, "bottom bpp {:.2}", last.bpp);
        assert!(first.compression_ratio < 6.0);
        assert!(last.compression_ratio > 25.0);
    }

    #[test]
    fn fig7_reaches_zero_packets() {
        let rows = run_fig7(seeded(7));
        assert_eq!(rows.first().unwrap().packets, 16);
        assert_eq!(rows.last().unwrap().packets, 0, "suspended at 100% CPU");
        assert_eq!(rows.last().unwrap().bpp, 0.0);
        let first = rows.first().unwrap();
        assert!(
            first.bpp > 8.0 && first.bpp <= 14.5,
            "colour top bpp {:.2}",
            first.bpp
        );
        // CR at full quality close to the paper's 1.6-ish.
        assert!(first.compression_ratio < 4.0);
    }

    #[test]
    fn fig8_b_improves_when_a_recedes() {
        let rows = run_fig8();
        assert_eq!(rows.len(), 6);
        // While A approaches (steps 0->3), A's SIR improves and B's falls.
        assert!(rows[3].sirs_db[0] > rows[0].sirs_db[0]);
        assert!(rows[3].sirs_db[1] < rows[0].sirs_db[1]);
        // A recedes again: B recovers.
        assert!(rows[5].sirs_db[1] > rows[3].sirs_db[1]);
    }

    #[test]
    fn fig9_power_helps_self_hurts_other() {
        let rows = run_fig9();
        assert!(rows.last().unwrap().sirs_db[0] > rows[0].sirs_db[0]);
        assert!(rows.last().unwrap().sirs_db[1] < rows[0].sirs_db[1]);
    }

    #[test]
    fn fig10_join_drops_match_paper_shape() {
        let r = run_fig10();
        assert!(
            r.drop_on_second_join > 0.8,
            "paper: ~90% drop, got {:.0}%",
            r.drop_on_second_join * 100.0
        );
        assert!(
            r.drop_on_third_join > 0.1 && r.drop_on_third_join < 0.8,
            "paper: further ~23%, got {:.0}%",
            r.drop_on_third_join * 100.0
        );
        assert_eq!(r.series.len(), 6);
    }

    #[test]
    fn fig8_shape_survives_moderate_shadowing() {
        let rows = run_fig8_shadowed(4.0);
        assert_eq!(rows.len(), 6);
        // The 25+ dB swing of the trajectory dominates 4 dB fades.
        assert!(rows[3].sirs_db[0] > rows[0].sirs_db[0]);
        assert!(rows[3].sirs_db[1] < rows[0].sirs_db[1]);
        // And shadowing really changed the numbers vs the clear channel.
        let clear = run_fig8();
        assert_ne!(rows[0].sirs_db, clear[0].sirs_db);
    }

    #[test]
    fn capacity_curve_saturates() {
        let (curve, admitted) = run_capacity_curve(40);
        assert_eq!(curve.len(), 40);
        // Worst SIR monotonically deteriorates with joins.
        for w in curve.windows(2) {
            assert!(w[1].min_sir_db <= w[0].min_sir_db + 1e-9);
        }
        // Modality ladder descends: full image solo, text-only at scale.
        assert_eq!(curve[0].worst_modality, Modality::FullImage);
        assert!(curve.last().unwrap().worst_modality <= Modality::TextOnly);
        // Admission control binds strictly before the sweep limit.
        assert!((2..40).contains(&admitted), "limit at {admitted}");
        // And the limit is where the unchecked curve crosses the text
        // threshold (-15 dB by default).
        assert!(curve[admitted - 1].min_sir_db >= -15.0);
        assert!(curve[admitted].min_sir_db < -15.0);
    }

    #[test]
    fn distance_beats_power() {
        let (d_gain, p_gain) = distance_vs_power_leverage();
        assert!(
            d_gain > p_gain,
            "distance {d_gain:.1} dB vs power {p_gain:.1} dB"
        );
        assert!(d_gain > 0.0 && p_gain > 0.0);
    }

    #[test]
    fn power_control_study_shows_gain() {
        let (gain, iters) = run_power_control_study();
        assert!(gain > 1.5, "utility roughly doubles, got {gain:.2}");
        assert!(iters < 1000, "FM converged");
    }

    #[test]
    fn quality_curve_monotone() {
        let rows = run_quality_curve(3);
        assert_eq!(rows.len(), 16);
        for w in rows.windows(2) {
            assert!(w[1].bpp > w[0].bpp, "rate grows with packets");
            assert!(
                w[1].psnr_db >= w[0].psnr_db - 0.9,
                "quality weakly monotone: {} then {}",
                w[0].psnr_db,
                w[1].psnr_db
            );
        }
        assert!(rows[15].psnr_db.is_infinite(), "16/16 lossless");
        assert!(rows[0].psnr_db > 10.0, "1 packet is already viewable");
    }

    #[test]
    fn headline_sketch_ratio() {
        let (orig, sk, ratio) = run_headline_sketch(42);
        assert_eq!(orig, 786_432);
        assert!(sk < orig / 500);
        assert!(ratio > 500.0, "three orders of magnitude, got {ratio:.0}");
    }
}
