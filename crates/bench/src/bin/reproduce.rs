//! Paper-reproduction driver: `reproduce <name>` prints one figure,
//! claim or comparison of the paper's evaluation, computed by
//! `cqos_core::experiments`, beside the values the paper reports;
//! `reproduce all` prints every one in table order.
//!
//! ```sh
//! cargo run --release -p bench --bin reproduce -- fig7
//! cargo run --release -p bench --bin reproduce -- all
//! ```
//!
//! Every line is deterministic except the wall-clock columns of
//! `policy_compare` and `ablations`, which are printed for humans and
//! never asserted on.

use bench::{fmt, header, row, time_best};
use cqos_core::baseline::compare_architectures;
use cqos_core::experiments::*;
use cqos_core::hysteresis::HysteresisFilter;
use cqos_core::inference::AdaptationDecision;
use cqos_core::session::SessionConfig;
use cqos_core::{AdaptationPolicy, EngineChoice, QosContract};
use media::image::synthetic_scene;
use media::Sketch;
use sempubsub::matching::interpret;
use sempubsub::{AttrValue, Profile, Selector, TransformCap};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use wireless::channel::from_db;
use wireless::power::power_reduction_suggestion;
use wireless::{ClientRadio, PathLossModel};

/// A reproduction: the name `reproduce` takes, and what it prints.
type Entry = (&'static str, fn());

/// Every reproduction, in `all`'s order.
const NAMES: [Entry; 11] = [
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("capacity_limit", capacity_limit),
    ("power_control", power_control),
    ("headline_sketch", headline_sketch),
    ("architecture_compare", architecture_compare),
    ("policy_compare", policy_compare),
    ("ablations", ablations),
];

/// The reproductions `arg` names: one, or all of them for `all`; the
/// usage line when it names none.
fn select(arg: Option<&str>) -> Result<&'static [Entry], String> {
    if arg == Some("all") {
        return Ok(&NAMES);
    }
    match NAMES.iter().position(|(name, _)| Some(*name) == arg) {
        Some(i) => Ok(&NAMES[i..=i]),
        None => {
            let names: Vec<&str> = NAMES.iter().map(|(name, _)| *name).collect();
            Err(format!("usage: reproduce <{}|all>", names.join("|")))
        }
    }
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    let chosen = match select(arg.as_deref()) {
        Ok(chosen) => chosen,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let all = chosen.len() > 1;
    for &(name, run) in chosen {
        if all {
            println!("== {name}\n");
        }
        run();
        if all {
            println!();
        }
    }
    ExitCode::SUCCESS
}

/// Figure 6 (§6.1): image-viewer parameters versus host page faults —
/// packets 16→1 in powers of two as page faults rise 30→100,
/// compression ratio 3.6→131, BPP 2.1→0.1 (grayscale source).
fn fig6() {
    println!("Figure 6 — ImageViewer parameters vs host page faults");
    println!("paper: packets 16->1 (powers of 2), CR 3.6->131, BPP 2.1->0.1\n");
    let widths = [12, 8, 18, 8];
    header(
        &["page_faults", "packets", "compression_ratio", "bpp"],
        &widths,
    );
    let rows = run_fig6(SessionConfig::default());
    viewer_rows(&rows, &widths);
    let first = rows.first().expect("rows");
    let last = rows.last().expect("rows");
    println!(
        "\nmeasured: packets {}->{}  CR {}->{}  BPP {}->{}",
        first.packets,
        last.packets,
        fmt(first.compression_ratio),
        fmt(last.compression_ratio),
        fmt(first.bpp),
        fmt(last.bpp),
    );
    println!("paper   : packets 16->1  CR 3.60->131  BPP 2.10->0.10");
}

/// Figure 7 (§6.2): image-viewer parameters versus CPU load — packets
/// drop 16→0 as CPU load rises 30→100 %, BPP 14.3→0.7, compression
/// ratio 1.6→32.7 (24-bit colour source).
fn fig7() {
    println!("Figure 7 — ImageViewer parameters vs CPU load");
    println!("paper: packets 16->0, BPP 14.3->0.7, CR 1.6->32.7 (colour)\n");
    let widths = [10, 8, 18, 8];
    header(
        &["cpu_load", "packets", "compression_ratio", "bpp"],
        &widths,
    );
    let rows = run_fig7(SessionConfig::default());
    viewer_rows(&rows, &widths);
    let first = rows.first().expect("rows");
    let last_nonzero = rows.iter().rev().find(|r| r.packets > 0).expect("rows");
    println!(
        "\nmeasured: packets {}->0  BPP {}->{} (last nonzero)  CR {}->{}",
        first.packets,
        fmt(first.bpp),
        fmt(last_nonzero.bpp),
        fmt(first.compression_ratio),
        fmt(last_nonzero.compression_ratio),
    );
    println!("paper   : packets 16->0  BPP 14.3->0.70  CR 1.60->32.7");
}

fn viewer_rows(rows: &[ViewerRow], widths: &[usize]) {
    for r in rows {
        row(
            &[
                fmt(r.x),
                r.packets.to_string(),
                fmt(r.compression_ratio),
                fmt(r.bpp),
            ],
            widths,
        );
    }
}

/// The two-client SIR tables of Figures 8 and 9.
fn sir_rows(rows: &[SirRow]) {
    let widths = [5, 12, 12, 16];
    header(
        &["step", "SIR_A (dB)", "SIR_B (dB)", "modality(A)"],
        &widths,
    );
    for r in rows {
        row(
            &[
                fmt(r.step),
                fmt(r.sirs_db[0]),
                fmt(r.sirs_db[1]),
                format!("{:?}", r.modality),
            ],
            &widths,
        );
    }
}

/// Figure 8 (§6.3.1): client A moves 100 m→50 m (steps 0–3) then back
/// out (3–5) at fixed power; A's SIR improves and B's degrades as A
/// approaches, recovering when A recedes. The base station picks the
/// forwarded modality from A's SIR at each step.
fn fig8() {
    println!("Figure 8 — performance of 2 wireless clients with varying distance");
    println!("paper: A approaches 100m->50m (steps 0-3) then recedes; B at 80m\n");
    let rows = run_fig8();
    sir_rows(&rows);
    println!(
        "\nshape check: A at step3 > A at step0: {}   B at step3 < B at step0: {}   B recovers by step5: {}",
        rows[3].sirs_db[0] > rows[0].sirs_db[0],
        rows[3].sirs_db[1] < rows[0].sirs_db[1],
        rows[5].sirs_db[1] > rows[3].sirs_db[1],
    );
}

/// Figure 9 (§6.3.2): A's transmit power is stepped up at fixed
/// distance; its SIR improves while B's falls. "Varying the distance is
/// more effective than a variation in power" — the closing leverage
/// line quantifies that.
fn fig9() {
    println!("Figure 9 — performance of 2 wireless clients with varying power");
    println!("paper: A's power stepped 50->250 mW at fixed distance\n");
    sir_rows(&run_fig9());
    let (d_gain, p_gain) = distance_vs_power_leverage();
    println!(
        "\nleverage: halving distance = +{} dB, quadrupling power = +{} dB -> distance {} power (paper: distance more effective)",
        fmt(d_gain),
        fmt(p_gain),
        if d_gain > p_gain { "beats" } else { "loses to" },
    );
}

/// Figure 10 (§6.3.3): three clients with varying distance and power,
/// and the join degradation — "for client 2 joining ... the SIR of
/// client A reduced by 90% and when client 3 joined ... further reduced
/// by 23%".
fn fig10() {
    println!("Figure 10 — performance of 3 wireless clients, varying distance & power\n");
    let r = run_fig10();
    println!(
        "A's SIR by client count: 1 client {} dB, 2 clients {} dB, 3 clients {} dB",
        fmt(r.a_sir_by_count[0]),
        fmt(r.a_sir_by_count[1]),
        fmt(r.a_sir_by_count[2]),
    );
    println!(
        "drop when client 2 joined: {:.0}% (paper ~90%)   further drop on client 3: {:.0}% (paper ~23%)\n",
        r.drop_on_second_join * 100.0,
        r.drop_on_third_join * 100.0,
    );
    let widths = [5, 12, 12, 12, 16];
    header(
        &[
            "step",
            "SIR_A (dB)",
            "SIR_B (dB)",
            "SIR_C (dB)",
            "modality(A)",
        ],
        &widths,
    );
    for s in &r.series {
        row(
            &[
                fmt(s.step),
                fmt(s.sirs_db[0]),
                fmt(s.sirs_db[1]),
                fmt(s.sirs_db[2]),
                format!("{:?}", s.modality),
            ],
            &widths,
        );
    }
}

/// §6.3.3: "there exists an upper limit to the number of clients that
/// can join in a session". Identical clients join one base station; the
/// worst per-client SIR and modality after each join, and where
/// admission control draws the line.
fn capacity_limit() {
    println!("§6.3.3 — session capacity limit (identical clients at 60 m, 100 mW)\n");
    let (curve, admitted) = run_capacity_curve(40);
    let widths = [8, 16, 16];
    header(&["clients", "min SIR (dB)", "worst modality"], &widths);
    let capacity_row = |r: &CapacityRow| {
        row(
            &[
                r.clients.to_string(),
                fmt(r.min_sir_db),
                format!("{:?}", r.worst_modality),
            ],
            &widths,
        );
    };
    curve.iter().take(12).for_each(capacity_row);
    println!("  ... (sweep continues to {} clients)", curve.len());
    capacity_row(curve.last().expect("non-empty"));
    println!(
        "\nadmission control (text threshold -15 dB) admits {admitted} clients before refusing"
    );
    println!("paper: an upper limit exists, set by inter-client interference");
}

/// §6.3 power control: equal-factor reduction (ref \[9\]) and the base
/// station's reduce-power request at SIR headroom.
fn power_control() {
    println!("§6.3 — power control interplay\n");
    let (gain, iters) = run_power_control_study();
    println!(
        "equal-factor halving of 3 clients' powers: bits-per-joule utility x{}",
        fmt(gain)
    );
    println!("Foschini-Miljanic to -6 dB target: converged in {iters} iterations\n");

    // The paper's worked example: image threshold 4 dB, achieved ~7 dB
    // -> BS requests lower transmit power.
    let model = PathLossModel::default();
    let clients = vec![
        ClientRadio::new("a", 40.0, 120.0),
        ClientRadio::new("b", 90.0, 60.0),
    ];
    let threshold = from_db(4.0);
    match power_reduction_suggestion(0, &clients, &model, threshold, 1.25) {
        Some(p) => println!(
            "client a has headroom above the 4 dB image threshold: BS suggests {} mW (was {} mW)",
            fmt(p),
            fmt(clients[0].tx_power_mw)
        ),
        None => println!("client a has no headroom above the 4 dB image threshold"),
    }
}

/// §5.4: the robust-segmentation sketch "requires up to 2000 times
/// lesser data than the original".
fn headline_sketch() {
    println!("§5.4 headline — sketch data reduction (512x512 RGB scenes)\n");
    let mut worst: f64 = f64::INFINITY;
    let mut best: f64 = 0.0;
    for seed in 0..10u64 {
        let (orig, sk, ratio) = run_headline_sketch(seed);
        println!("seed {seed}: original {orig} B  sketch {sk} B  reduction {ratio:.0}x");
        worst = worst.min(ratio);
        best = best.max(ratio);
    }
    println!("\nmeasured: {worst:.0}x - {best:.0}x reduction");
    println!("paper   : 'up to 2000 times lesser data'");
}

/// §2 / §7: the Habanero-style centralized arbitrator/router baseline
/// against the paper's peer semantic multicast on one chat fan-out.
fn architecture_compare() {
    println!("§2/§7 — centralized server baseline vs semantic peer multicast");
    println!("workload: client 0 sends 10 events to a fully interested session\n");
    let widths = [8, 14, 12, 12, 12, 12];
    header(
        &[
            "clients",
            "arch",
            "offered B",
            "fabric B",
            "deliveries",
            "completion",
        ],
        &widths,
    );
    for n in [2usize, 4, 8, 16, 32] {
        let (central, multicast) = compare_architectures(n, 10);
        for (clients, arch, o) in [
            (n.to_string(), "central", &central),
            (String::new(), "multicast", &multicast),
        ] {
            row(
                &[
                    clients,
                    arch.to_string(),
                    o.bytes_sent.to_string(),
                    o.bytes_delivered.to_string(),
                    o.deliveries.to_string(),
                    format!("{}", o.completion),
                ],
                &widths,
            );
        }
        let ratio = central.bytes_sent as f64 / multicast.bytes_sent as f64;
        println!(
            "  -> centralized offers {}x the app-layer bytes",
            fmt(ratio)
        );
    }
    println!("\npaper: centralized architectures 'are not scalable and cannot readily");
    println!("adapt to changing client interests and capabilities' (§2)");
}

/// The three adaptation engines — threshold, fuzzy, Bayesian — through
/// the scripted comparison scenarios, scored by
/// [`score_engine`]'s delivered-utility model, then raw `decide`
/// throughput per engine over one shared batch of states sweeping
/// both measured metrics across their bands.
fn policy_compare() {
    let seed = 7u64;
    let scores = run_policy_comparison(seed);

    let widths = [12, 10, 6, 10, 6, 11, 9];
    println!("engine comparison (seed {seed}): delivered utility per scenario");
    header(
        &[
            "scenario",
            "engine",
            "sent",
            "delivered",
            "lost",
            "downgrades",
            "utility",
        ],
        &widths,
    );
    for s in &scores {
        row(
            &[
                s.scenario.to_string(),
                s.engine.to_string(),
                s.sent.to_string(),
                s.delivered.to_string(),
                s.lost.to_string(),
                s.downgrades.to_string(),
                fmt(s.utility),
            ],
            &widths,
        );
    }
    println!();

    let mut batch = Vec::new();
    for loss_tenths in 0..200u32 {
        for cong in [0.0, 3.0, 12.0, 40.0, 75.0] {
            let mut s = BTreeMap::new();
            s.insert("loss_pct".to_string(), f64::from(loss_tenths) * 0.25);
            s.insert("congestion_pct".to_string(), cong);
            batch.push(s);
        }
    }
    let widths = [10, 13];
    header(&["engine", "decisions/s"], &widths);
    for choice in EngineChoice::all() {
        let engine = choice.build(default_comparison_policies(), QosContract::default());
        let (decisions, secs) = time_best(10, || {
            let mut n = 0u64;
            for state in &batch {
                let d = engine.decide(state);
                n += u64::from(d.max_packets != u32::MAX);
            }
            n
        });
        row(
            &[
                engine.name().to_string(),
                format!("{:.0}", decisions as f64 / secs),
            ],
            &widths,
        );
    }
}

/// Timings of the design choices no repo-benchmark per-layer metric
/// measures: sketch extraction (the modality-reduction hot path), the
/// transform-chain search of profile matching (Figure 3's client 3)
/// against a direct accept, and the hysteresis filter per decision.
fn ablations() {
    const WIDTHS: [usize; 3] = [26, 24, 12];
    // Best-of-5 nanoseconds per call of `op`, `iters` calls per sample.
    fn report(group: &str, name: &str, iters: u32, mut op: impl FnMut()) {
        let ((), secs) = time_best(5, || (0..iters).for_each(|_| op()));
        let ns = secs * 1e9 / f64::from(iters);
        row(
            &[group.to_string(), name.to_string(), format!("{ns:.0}")],
            &WIDTHS,
        );
    }
    let video_profile = |name: &str, interest: &str| {
        let mut p = Profile::new(name);
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("video")]),
        );
        p.set_interest(interest).expect("valid interest");
        p
    };

    header(&["ablation", "operation", "ns/op"], &WIDTHS);

    let scene = synthetic_scene(256, 256, 1, 5, 9);
    report("sketch", "extract_256px", 20, || {
        black_box(Sketch::extract(black_box(&scene.image), 8).expect("sketch extracts"));
    });

    let direct = video_profile("direct", "encoding == 'mpeg2'");
    let mut chained = video_profile("chained", "encoding == 'text'");
    for (from, to) in [("mpeg2", "jpeg"), ("jpeg", "sketch"), ("sketch", "text")] {
        chained.add_transform(TransformCap::new("encoding", from, to));
    }
    let selector = Selector::parse("interested_in contains 'video'").expect("valid selector");
    let content: BTreeMap<String, AttrValue> = [
        ("encoding".to_string(), AttrValue::str("mpeg2")),
        ("media".to_string(), AttrValue::str("video")),
    ]
    .into_iter()
    .collect();
    for (name, profile) in [("direct_accept", &direct), ("three_step_chain", &chained)] {
        report("transform_search", name, 20_000, || {
            black_box(interpret(profile, &selector, &content).expect("interprets"));
        });
    }

    let mut filter = HysteresisFilter::new(4);
    let noisy: Vec<AdaptationDecision> = (0..64)
        .map(|i| AdaptationDecision::unconstrained(if i % 2 == 0 { 4 } else { 8 }))
        .collect();
    report("hysteresis", "filter_64_decisions", 2_000, || {
        for d in &noisy {
            black_box(filter.filter(black_box(d.clone())));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_selects_itself_and_all_selects_the_table() {
        for (name, _) in NAMES {
            let chosen = select(Some(name)).expect("a listed name");
            assert_eq!(chosen.len(), 1);
            assert_eq!(chosen[0].0, name);
        }
        let all: Vec<&str> = select(Some("all")).unwrap().iter().map(|e| e.0).collect();
        let table: Vec<&str> = NAMES.iter().map(|e| e.0).collect();
        assert_eq!(all, table);
    }

    #[test]
    fn an_unknown_or_missing_name_is_refused_with_every_valid_name() {
        for arg in [None, Some("fig11"), Some(""), Some("reproduce_all")] {
            let usage = select(arg).expect_err("refused");
            for (name, _) in NAMES {
                assert!(usage.contains(name), "{usage:?} lacks {name}");
            }
            assert!(usage.contains("all"));
        }
    }
}
