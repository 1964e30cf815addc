//! Ablation timings for the design choices DESIGN.md calls out that no
//! repo-benchmark per-layer metric or other program measures:
//!
//! * sketch extraction (the modality-reduction hot path the base
//!   station runs per reduced contribution),
//! * transform-chain search in profile matching (Figure 3's client 3
//!   path) against a direct accept,
//! * the hysteresis filter per decision (it must be negligible next
//!   to the SNMP round trip it follows).
//!
//! Printed for humans; nothing here is asserted or gated.

use bench::{header, row, time_best};
use cqos_core::hysteresis::HysteresisFilter;
use cqos_core::inference::AdaptationDecision;
use media::image::synthetic_scene;
use media::Sketch;
use sempubsub::matching::interpret;
use sempubsub::{AttrValue, Profile, Selector, TransformCap};
use std::collections::BTreeMap;
use std::hint::black_box;

const WIDTHS: [usize; 3] = [26, 24, 12];

/// Best-of-5 nanoseconds per call of `op`, `iters` calls per sample.
fn report(group: &str, name: &str, iters: u32, mut op: impl FnMut()) {
    let ((), secs) = time_best(5, || (0..iters).for_each(|_| op()));
    let ns = secs * 1e9 / f64::from(iters);
    row(
        &[group.to_string(), name.to_string(), format!("{ns:.0}")],
        &WIDTHS,
    );
}

fn video_profile(name: &str, interest: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("video")]),
    );
    p.set_interest(interest).expect("valid interest");
    p
}

fn main() {
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
