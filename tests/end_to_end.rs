//! Cross-crate integration tests: full collaboration flows exercising
//! simnet + snmp + sysmon + sempubsub + media + wireless through the
//! cqos-core session layer, via the public facade.

use collabqos::core::concurrency::{happened_before, LockManager};
use collabqos::core::session::ClientId;
use collabqos::core::transformer::{MediaKind, MediaObject, TransformerRegistry};
use collabqos::media::ezw;
use collabqos::media::wavelet::WaveletKind;
use collabqos::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Ordering;
use testkit::{Client, Engine, Scenario};

const TOPICS: &[&str] = &["image", "chat", "whiteboard"];

#[test]
fn snmp_round_trip_feeds_inference_and_viewer() {
    let (mut session, ids) = Scenario {
        cfg: SessionConfig::default(),
        clients: vec![
            Client::passive("pub", TOPICS),
            Client::threshold("view", TOPICS, PolicyDb::paper_page_fault_policy()),
        ],
    }
    .build();
    let [publisher, viewer] = ids.try_into().unwrap();

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
    let mut b_profile = testkit::topic_profile("user-b", &["image"]);
    b_profile.set("mode", AttrValue::str("image"));
    let (mut session, ids) = Scenario {
        cfg: SessionConfig::default(),
        clients: vec![
            Client::passive("user-a", TOPICS),
            Client::new(b_profile, Engine::Threshold(PolicyDb::new())),
        ],
    }
    .build();
    let [a, b] = ids.try_into().unwrap();
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
    let (mut session, ids) = Scenario {
        cfg: SessionConfig::default(),
        clients: ["c0", "c1", "c2"]
            .map(|n| Client::passive(n, TOPICS))
            .into(),
    }
    .build();
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
    let (mut session, ids) = Scenario {
        cfg: SessionConfig::default(),
        clients: vec![Client::passive("desk", TOPICS)],
    }
    .build();
    let viewer = ids[0];
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
    let (mut session, ids) = Scenario {
        cfg,
        clients: vec![Client::passive("a", TOPICS), Client::passive("b", TOPICS)],
    }
    .build();
    let [a, b] = ids.try_into().unwrap();
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

// ------------------------------------------------ lock order

/// 128 contending `(lamport, client)` requests — eight clients' sixteen
/// each, their stamps interleaved — reach a pinned lock in several
/// seeded arrival orders; once the holder lets go, grants follow the
/// `happened_before` total order exactly, whatever the arrival order:
/// the property that lets every replica's manager converge.
#[test]
fn lock_manager_grants_in_lamport_order_in_any_arrival_order() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 16;
    let object = 7u64;
    // Distinct stamps, one distinct client per request, as every
    // replica's manager sees all clients' Lock events.
    let requests: Vec<(u64, String)> = (0..CLIENTS)
        .flat_map(|t| {
            (0..PER_CLIENT).map(move |k| (1 + (k * CLIENTS + t) as u64, format!("client-{t}-{k}")))
        })
        .collect();
    let mut expected = requests.clone();
    expected.sort_by(|a, b| {
        if happened_before((a.0, &a.1), (b.0, &b.1)) {
            Ordering::Less
        } else if happened_before((b.0, &b.1), (a.0, &a.1)) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    });
    for seed in 0..8 {
        let mut arrivals = requests.clone();
        arrivals.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut manager = LockManager::new();
        // Pin the lock so every contending request queues.
        manager.request(object, "holder", 0);
        for (lamport, client) in &arrivals {
            manager.request(object, client, *lamport);
        }
        let mut current = "holder".to_string();
        while let Ok(Some(next)) = manager.release(object, &current) {
            current = next;
        }
        let granted: Vec<(u64, String)> = manager.history()[1..]
            .iter()
            .map(|(_, client, lamport)| (*lamport, client.clone()))
            .collect();
        assert_eq!(granted, expected, "arrival order of seed {seed}");
    }
}

// ------------------------------------------------ shared frames + store
//
// The session decodes each message buffer once and compiles each
// selector string once, whoever receives them; every decision stays
// with the receiving client. These tests pin what the shared things
// cost: one store lookup per buffer however its copies arrive, one
// program per distinct selector.

/// A chat-only session of `clients` clients, each subscribed to two of
/// `topics` topics — `event_storm`'s shape, scaled down.
fn topic_session(
    cfg: SessionConfig,
    clients: usize,
    topics: usize,
) -> (CollaborationSession, Vec<ClientId>) {
    let clients = (0..clients)
        .map(|i| {
            let mut p = Profile::new(&format!("client{i}"));
            let subscribed = [i % topics, (i * 7 + 3) % topics].map(|t| format!("t{t}"));
            p.set(
                "topics",
                AttrValue::List(subscribed.iter().map(|t| AttrValue::str(t)).collect()),
            );
            Client::new(p, Engine::Threshold(PolicyDb::new()))
        })
        .collect();
    Scenario { cfg, clients }.build()
}

/// The `k`-th of the `topics · (topics − 1) / 2` two-topic selectors.
fn pair_selector(topics: usize, k: usize) -> String {
    let pairs: Vec<(usize, usize)> = (0..topics)
        .flat_map(|a| (a + 1..topics).map(move |b| (a, b)))
        .collect();
    let (a, b) = pairs[k % pairs.len()];
    format!("topics contains 't{a}' or topics contains 't{b}'")
}

/// One buffer whose copies reach their receivers in different pumps
/// (fan-out serialised on a slow access link) costs one store lookup:
/// the frame rides the buffer, so it outlives the pump that resolved
/// it. (A per-pump frame table raised `image_fanout`'s allocations by
/// two thirds, PR 17.)
#[test]
fn buffer_spread_over_pumps_costs_one_store_lookup() {
    let cfg = SessionConfig {
        seed: 5,
        link: LinkSpec {
            bandwidth_bps: 1_000_000,
            ..LinkSpec::lan()
        },
        ..SessionConfig::default()
    };
    let (mut s, ids) = topic_session(cfg, 6, 1);
    let selector = "topics contains 't0'";
    let store = s.selector_store().stats();
    let lines = |s: &CollaborationSession| -> usize {
        ids.iter().map(|&c| s.client(c).chat.log.len()).sum()
    };

    s.share_chat(ids[0], "hello", selector).unwrap();
    assert_eq!((store.hits(), store.misses()), (0, 1), "publish compiles");
    let mut pumps_with_arrivals = 0;
    for _ in 0..40 {
        let before = lines(&s);
        s.pump(Ticks::from_micros(600));
        pumps_with_arrivals += usize::from(lines(&s) > before);
    }
    assert_eq!(lines(&s), 5, "every other client got the line");
    assert!(
        pumps_with_arrivals >= 2,
        "copies must arrive in different pumps for this test to mean anything"
    );
    assert_eq!(
        (store.hits(), store.misses()),
        (1, 1),
        "five receptions in {pumps_with_arrivals} pumps, one store lookup"
    );

    for round in 0..1_000 {
        s.share_chat(ids[round % ids.len()], "again", selector)
            .unwrap();
        s.pump(Ticks::from_millis(20));
    }
    assert_eq!(lines(&s), 5 + 5 * 1_000);
    assert_eq!(
        (store.hits(), store.misses()),
        (1 + 2 * 1_000, 1),
        "one publish + one resolve per message, never a recompile"
    );
}

/// A client changing state mid-session is the paper's whole point: the
/// next message is routed by the new profile, and the change costs no
/// compilation — the bus re-snapshots the one profile, O(attributes).
#[test]
fn profile_set_mid_session_reroutes_with_zero_store_misses() {
    let cfg = SessionConfig {
        seed: 9,
        ..SessionConfig::default()
    };
    let (mut s, ids) = topic_session(cfg, 3, 1);
    let (publisher, mover) = (ids[0], ids[1]);
    s.client_mut(mover).bus.profile.set("mode", "image");
    let round = |s: &mut CollaborationSession, tag: &str| {
        s.share_chat(publisher, &format!("{tag} image"), "mode == 'image'")
            .unwrap();
        s.share_chat(publisher, &format!("{tag} text"), "mode == 'text'")
            .unwrap();
        s.pump(Ticks::from_millis(20));
    };
    round(&mut s, "first");
    let store = s.selector_store().stats();
    let misses = store.misses();
    let stats_before = s.client(mover).bus.stats();

    s.client_mut(mover).bus.profile.set("mode", "text");
    round(&mut s, "second");

    let texts: Vec<&str> = s.client(mover).chat.log.iter().map(|(_, t)| &**t).collect();
    assert_eq!(texts, ["first image", "second text"]);
    let stats = s.client(mover).bus.stats();
    assert_eq!(stats.accepted, stats_before.accepted + 1);
    assert_eq!(stats.rejected, stats_before.rejected + 1);
    assert_eq!(
        store.misses(),
        misses,
        "a profile change recompiles nothing"
    );
}

/// `event_storm`'s selector working set over a scaled-down client
/// population: 276 two-topic selectors cycled for 300 rounds. The
/// session holds one program per distinct selector — not one per
/// client per selector — and none is ever evicted or recompiled.
#[test]
fn session_holds_one_program_per_distinct_selector() {
    let cfg = SessionConfig {
        seed: 31,
        domains: Some(3),
        ..SessionConfig::default()
    };
    let (mut s, ids) = topic_session(cfg, 48, 24);
    for round in 0..300 {
        for k in 0..16 {
            let n = round * 16 + k;
            // A stride coprime to 276 walks the whole deck.
            let selector = pair_selector(24, n * 5);
            s.share_chat(ids[(n * 11) % ids.len()], "storm", &selector)
                .unwrap();
        }
        s.pump(Ticks::from_millis(80));
    }
    let store = s.selector_store();
    assert_eq!(store.len(), 276, "programs held == distinct selectors");
    assert_eq!(store.stats().misses(), 276);
    assert_eq!(store.stats().evictions(), 0);
    // Lookups are per buffer (one at publish, one at the first
    // reception), not per reception.
    assert_eq!(store.stats().hits() + store.stats().misses(), 2 * 300 * 16);
    let received: u64 = ids
        .iter()
        .map(|&c| {
            let b = s.client(c).bus.stats();
            b.accepted + b.rejected
        })
        .sum();
    assert!(received > 10 * 300 * 16, "only {received} receptions");
}
