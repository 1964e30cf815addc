//! Quickstart: the semantic interpretation process of the paper's
//! Figure 3, followed by a minimal adaptive collaboration session.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use collabqos::core::transformer::{MediaKind, TransformerRegistry};
use collabqos::prelude::*;
use collabqos::sempubsub::matching::{interpret, MatchOutcome};
use std::collections::BTreeMap;

fn main() {
    figure3_semantic_interpretation();
    minimal_session();
}

/// The Figure 3 walkthrough: an incoming colour MPEG2 video stream is
/// interpreted against three client profiles — accept, reject, and
/// accept-with-transformation.
fn figure3_semantic_interpretation() {
    println!("== Figure 3: semantic interpretation ==\n");

    // The incoming stream's content description: color video, MPEG2, 1 MB.
    let stream: BTreeMap<String, AttrValue> = [
        ("media".to_string(), AttrValue::str("video")),
        ("color".to_string(), AttrValue::Bool(true)),
        ("encoding".to_string(), AttrValue::str("mpeg2")),
        ("size_mb".to_string(), AttrValue::Float(1.0)),
    ]
    .into_iter()
    .collect();

    // The selector addresses any client interested in video.
    let selector = Selector::parse("interested_in contains 'video'").unwrap();

    let mut client1 = Profile::new("client-1");
    client1.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("video")]),
    );
    client1
        .set_interest("media == 'video' and color == true and encoding == 'mpeg2' and size_mb <= 1")
        .unwrap();

    let mut client2 = Profile::new("client-2");
    client2.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("video")]),
    );
    client2
        .set_interest("media == 'video' and color == false and not exists(encoding)")
        .unwrap();

    let mut client3 = Profile::new("client-3");
    client3.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("video")]),
    );
    client3
        .set_interest("media == 'video' and color == true and encoding == 'jpeg'")
        .unwrap();
    client3.add_transform(TransformCap::new("encoding", "mpeg2", "jpeg"));

    for profile in [&client1, &client2, &client3] {
        let outcome = interpret(profile, &selector, &stream).unwrap();
        let verdict = match &outcome {
            MatchOutcome::Accept => "ACCEPT".to_string(),
            MatchOutcome::AcceptWithTransform(steps) => format!(
                "ACCEPT with transform {}",
                steps
                    .iter()
                    .map(|s| format!("{}: {} -> {}", s.attr, s.from, s.to))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            MatchOutcome::Reject => "REJECT".to_string(),
        };
        println!("{:<10} {verdict}", profile.name);
    }
    println!();
}

/// A two-client session: the viewer's host gets loaded, the inference
/// engine reacts, and the same image arrives at two quality levels.
fn minimal_session() {
    println!("== Minimal adaptive session ==\n");
    let mut session = CollaborationSession::new(SessionConfig::default());

    let mut pub_profile = Profile::new("publisher");
    pub_profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let publisher = session
        .add_wired_client(
            pub_profile,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
        )
        .unwrap();

    let mut view_profile = Profile::new("viewer");
    view_profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let viewer = session
        .add_wired_client(
            view_profile,
            InferenceEngine::new(PolicyDb::paper_page_fault_policy(), QosContract::default()),
            SimHost::idle("viewer"),
        )
        .unwrap();

    let scene = synthetic_scene(128, 128, 1, 4, 7);
    println!("scene: {}", scene.caption);

    for (label, faults) in [("idle host", 10.0), ("thrashing host", 95.0)] {
        session.client_mut(viewer).host.force(HostState {
            cpu_load: 20.0,
            page_faults: faults,
            mem_avail_kb: 65_536.0,
        });
        let decision = session.adapt(viewer);
        session
            .share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        let completed = session.pump(Ticks::from_secs(1));
        let viewed = completed
            .iter()
            .find(|(c, _)| *c == viewer)
            .map(|(_, v)| v)
            .expect("image completed");
        println!(
            "{label:<15} page_faults={faults:>3}  -> {} packets, {:.2} bpp, CR {:.1} (rules: {})",
            viewed.packets_accepted,
            viewed.bpp,
            viewed.compression_ratio,
            decision.fired_rules.iter().collect::<Vec<_>>().join(","),
        );
    }

    // Image-to-text: the modality every client can afford.
    let registry = TransformerRegistry::with_defaults();
    let obj = collabqos::core::transformer::MediaObject::Image {
        encoded: collabqos::media::ezw::encode_image(
            &scene.image,
            5,
            collabqos::media::wavelet::WaveletKind::Cdf53,
        )
        .unwrap(),
        caption: scene.caption.clone(),
    };
    let text = registry.transform(&obj, MediaKind::Text).unwrap();
    println!(
        "\nimage ({} B) as text fallback ({} B): ok",
        obj.size_bytes(),
        text.size_bytes()
    );
}
