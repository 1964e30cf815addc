//! Cross-crate integration tests: full collaboration flows exercising
//! simnet + snmp + sysmon + sempubsub + media + wireless through the
//! cqos-core session layer, via the public facade.

use collabqos::core::transformer::{MediaKind, MediaObject, TransformerRegistry};
use collabqos::media::ezw;
use collabqos::media::wavelet::WaveletKind;
use collabqos::prelude::*;

fn image_profile(name: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(vec![
            AttrValue::str("image"),
            AttrValue::str("chat"),
            AttrValue::str("whiteboard"),
        ]),
    );
    p
}

fn plain_engine() -> InferenceEngine {
    InferenceEngine::new(PolicyDb::new(), QosContract::default())
}

#[test]
fn snmp_round_trip_feeds_inference_and_viewer() {
    let mut session = CollaborationSession::new(SessionConfig::default());
    let publisher = session
        .add_wired_client(image_profile("pub"), plain_engine(), SimHost::idle("pub"))
        .unwrap();
    let viewer = session
        .add_wired_client(
            image_profile("view"),
            InferenceEngine::new(PolicyDb::paper_page_fault_policy(), QosContract::default()),
            SimHost::idle("view"),
        )
        .unwrap();

    // Degrade the viewer's host; the decision must come via real SNMP.
    session.client_mut(viewer).host.force(HostState {
        cpu_load: 10.0,
        page_faults: 60.0,
        mem_avail_kb: 32_768.0,
    });
    let d = session.adapt(viewer);
    assert_eq!(d.max_packets, 4);
    assert!(d.fired_rules.contains("pf-high"));

    let scene = synthetic_scene(128, 128, 1, 4, 11);
    session
        .share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = session.pump(Ticks::from_secs(1));
    let viewed = completed
        .iter()
        .find(|(c, _)| *c == viewer)
        .map(|(_, v)| v)
        .expect("viewer completed an image");
    assert_eq!(viewed.packets_accepted, 4);
    assert!(viewed.bpp > 0.0);
    // The network really carried multicast traffic.
    assert!(session.net.stats().delivered > 10);
}

#[test]
fn profile_change_switches_modality_mid_session() {
    // The §2 scenario: user B flips to text mode; the same image-share
    // selector stops reaching B, while text still does.
    let mut session = CollaborationSession::new(SessionConfig::default());
    let a = session
        .add_wired_client(image_profile("user-a"), plain_engine(), SimHost::idle("a"))
        .unwrap();
    let mut b_profile = Profile::new("user-b");
    b_profile.set("mode", AttrValue::str("image"));
    b_profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let b = session
        .add_wired_client(b_profile, plain_engine(), SimHost::idle("b"))
        .unwrap();
    session.adapt(b);

    let scene = synthetic_scene(64, 64, 1, 2, 3);
    session.share_image(a, &scene, "mode == 'image'").unwrap();
    let completed = session.pump(Ticks::from_secs(1));
    assert!(completed.iter().any(|(c, _)| *c == b), "B got the image");

    // B runs low on power and flips to text mode — a purely local act.
    session
        .client_mut(b)
        .bus
        .profile
        .set("mode", AttrValue::str("text"));
    session.share_image(a, &scene, "mode == 'image'").unwrap();
    session
        .share_chat(a, "description instead", "mode == 'text'")
        .unwrap();
    let completed = session.pump(Ticks::from_secs(1));
    assert!(
        !completed.iter().any(|(c, _)| *c == b),
        "image no longer reaches B"
    );
    assert_eq!(session.client(b).chat.log.len(), 1, "text does");
}

#[test]
fn concurrent_strokes_converge_across_three_clients() {
    let mut session = CollaborationSession::new(SessionConfig::default());
    let ids: Vec<_> = ["c0", "c1", "c2"]
        .iter()
        .map(|n| {
            session
                .add_wired_client(image_profile(n), plain_engine(), SimHost::idle(n))
                .unwrap()
        })
        .collect();
    let object = session.new_object_id();
    // All three draw "at the same time" (before any pump).
    for (i, &id) in ids.iter().enumerate() {
        session
            .share_stroke(id, object, vec![(i as i16, 0)], i as u8, "true")
            .unwrap();
    }
    session.pump(Ticks::from_secs(1));
    let reference: Vec<_> = session.client(ids[0]).whiteboard.strokes(object).to_vec();
    assert_eq!(reference.len(), 3, "no stroke lost");
    for &id in &ids[1..] {
        assert_eq!(
            session.client(id).whiteboard.strokes(object),
            reference.as_slice(),
            "replicas converge"
        );
    }
}

#[test]
fn wireless_text_only_under_terrible_sir() {
    let mut session = CollaborationSession::new(SessionConfig::default());
    let viewer = session
        .add_wired_client(image_profile("desk"), plain_engine(), SimHost::idle("desk"))
        .unwrap();
    session.adapt(viewer);
    session
        .attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    session.wireless_join("far", 90.0, 100.0).unwrap();
    // A closer interferer drags the far client below the sketch
    // threshold but above the text threshold (bypassing admission
    // control, as in the §6.3.3 saturation experiment).
    session
        .base_station
        .as_mut()
        .unwrap()
        .station
        .join_unchecked(ClientRadio::new("near", 55.0, 50.0))
        .unwrap();

    let scene = synthetic_scene(64, 64, 1, 2, 4);
    let m = session
        .wireless_contribute("far", &scene, "interested_in contains 'image'")
        .unwrap();
    assert!(m <= Modality::TextOnly, "got {m:?}");
    session.pump(Ticks::from_secs(1));
    if m == Modality::TextOnly {
        let fallbacks = &session.client(viewer).viewer.text_fallbacks;
        assert_eq!(fallbacks.len(), 1);
        assert!(fallbacks[0].1.contains("synthetic scene"));
    }
}

#[test]
fn transformer_chain_round_trips_caption_through_speech() {
    let scene = synthetic_scene(64, 64, 1, 3, 12);
    let encoded = ezw::encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
    let registry = TransformerRegistry::with_defaults();
    let image = MediaObject::Image {
        encoded,
        caption: scene.caption.clone(),
    };
    let speech = registry.transform(&image, MediaKind::Speech).unwrap();
    assert!(speech.size_bytes() > 0);
    let text = registry.transform(&speech, MediaKind::Text).unwrap();
    let MediaObject::Text(t) = text else { panic!() };
    // Speech phonemes preserve alphanumerics; punctuation degrades.
    assert!(t.to_text().contains("synthetic scene"));
}

#[test]
fn lossy_network_still_converges_with_enough_time() {
    // Multicast over a lossy LAN: the paper's RTP-thin layer covers
    // sequencing, and the semantic layer tolerates missed messages.
    // Chat (single datagram) may be lost; repeated sends get through.
    let cfg = SessionConfig {
        link: LinkSpec::lan().with_loss(0.2),
        seed: 77,
        ..SessionConfig::default()
    };
    let mut session = CollaborationSession::new(cfg);
    let a = session
        .add_wired_client(image_profile("a"), plain_engine(), SimHost::idle("a"))
        .unwrap();
    let b = session
        .add_wired_client(image_profile("b"), plain_engine(), SimHost::idle("b"))
        .unwrap();
    for i in 0..20 {
        session
            .share_chat(a, &format!("line {i}"), "interested_in contains 'chat'")
            .unwrap();
    }
    session.pump(Ticks::from_secs(2));
    let got = session.client(b).chat.log.len();
    assert!((10..=20).contains(&got), "some but not all arrive: {got}");
    assert!(session.net.stats().dropped > 0, "loss actually happened");
}

#[test]
fn closed_loop_power_reduction_preserves_full_image() {
    // The paper's §6.3 worked example as a closed loop: the BS suggests
    // a lower power, the client applies it, and the reassessment still
    // clears the image threshold (battery saved, modality preserved).
    let mut session = CollaborationSession::new(SessionConfig::default());
    session
        .attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    let before = session.wireless_join("mobile", 20.0, 300.0).unwrap();
    assert_eq!(before.modality, Modality::FullImage);
    let suggested = before.suggested_power_mw.expect("headroom");
    assert!(suggested < 300.0);

    session
        .base_station
        .as_mut()
        .unwrap()
        .station
        .update_power("mobile", suggested)
        .unwrap();
    let after = session
        .base_station
        .as_ref()
        .unwrap()
        .station
        .assess("mobile")
        .unwrap();
    assert_eq!(after.modality, Modality::FullImage, "still above 4 dB");
    assert!(after.sir_db >= 4.0);
    assert!(
        after.suggested_power_mw.is_none(),
        "no further reduction once at threshold x margin"
    );
}

#[test]
fn base_station_power_suggestion_appears_with_headroom() {
    let mut session = CollaborationSession::new(SessionConfig::default());
    session
        .attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    let assessment = session.wireless_join("solo", 15.0, 400.0).unwrap();
    assert_eq!(assessment.modality, Modality::FullImage);
    let suggested = assessment
        .suggested_power_mw
        .expect("lone close client has headroom");
    assert!(suggested < 400.0);
}
