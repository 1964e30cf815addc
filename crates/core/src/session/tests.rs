use super::*;
use crate::contract::QosContract;
use crate::inference::{AdaptationDecision, InferenceEngine};
use crate::policy::PolicyDb;
use crate::state::StateVector;
use media::image::synthetic_scene;
use sempubsub::{AttrValue, Profile};
use simnet::packet::well_known;
use simnet::Port;
use sysmon::HostState;
use wireless::{Modality, ModalityThresholds, PathLossModel};

fn viewer_profile(name: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image"), AttrValue::str("chat")]),
    );
    p
}

fn engine_pf() -> InferenceEngine {
    InferenceEngine::new(PolicyDb::paper_page_fault_policy(), QosContract::default())
}

fn two_client_session() -> (CollaborationSession, ClientId, ClientId) {
    let mut s = CollaborationSession::new(SessionConfig::default());
    let publisher = s
        .add_wired_client(
            viewer_profile("publisher"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
        )
        .unwrap();
    let viewer = s
        .add_wired_client(
            viewer_profile("viewer"),
            engine_pf(),
            SimHost::idle("viewer"),
        )
        .unwrap();
    (s, publisher, viewer)
}

#[test]
fn brokered_session_delivers_across_domains_and_suppresses() {
    let mut s = CollaborationSession::new(SessionConfig {
        domains: Some(3),
        ..SessionConfig::default()
    });
    // publisher in domain 0, a text-only client on the transit
    // broker (domain 1), the image viewer at the far end (domain
    // 2): the image must cross broker 1 without entering its
    // local group.
    let publisher = s
        .add_wired_client_in_domain(
            viewer_profile("publisher"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("publisher"),
            0,
        )
        .unwrap();
    let mut texter = Profile::new("texter");
    texter.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("text")]),
    );
    let t = s
        .add_wired_client_in_domain(
            texter,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("texter"),
            1,
        )
        .unwrap();
    let viewer = s
        .add_wired_client_in_domain(
            viewer_profile("viewer"),
            engine_pf(),
            SimHost::idle("viewer"),
            2,
        )
        .unwrap();
    assert_eq!(s.client(publisher).domain, 0);
    assert_eq!(s.client(t).domain, 1);
    assert_eq!(s.client(viewer).domain, 2);

    s.adapt(viewer);
    let scene = synthetic_scene(64, 64, 1, 3, 5);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = s.pump(Ticks::from_millis(200));
    assert_eq!(completed.len(), 1, "viewer alone completes the image");
    assert_eq!(completed[0].0, viewer);
    assert_eq!(completed[0].1.image.data, scene.image.data);
    // Broker 1 relayed the image toward domain 2 but kept it out
    // of its own group, and the spared texter was credited.
    let b1 = s.overlay().unwrap().stats(1);
    assert!(b1.forwarded() > 0);
    assert!(b1.local_suppressed() > 0, "image kept out of domain 1");
    assert!(s.client(t).bus.stats().suppressed > 0);
    assert_eq!(s.client(t).bus.stats().accepted, 0);
    assert_eq!(s.client(t).bus.stats().rejected, 0, "never even decoded");
    // Broker MIB rows serve the same counters.
    use snmp::oid::arcs;
    assert_eq!(
        s.broker_mib_get(1, &arcs::broker_suppressed(1)),
        Some(snmp::SnmpValue::Counter32(b1.suppressed() as u32))
    );
}

#[test]
fn end_to_end_image_share_full_quality() {
    let (mut s, publisher, viewer) = two_client_session();
    s.adapt(viewer);
    let scene = synthetic_scene(64, 64, 1, 3, 5);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = s.pump(Ticks::from_millis(200));
    assert_eq!(completed.len(), 1);
    let (cid, viewed) = &completed[0];
    assert_eq!(*cid, viewer);
    assert_eq!(viewed.packets_accepted, 16);
    assert_eq!(viewed.image.data, scene.image.data, "lossless at 16/16");
}

#[test]
fn duplicating_links_leave_no_viewer_holding_a_finished_object() {
    let mut s = CollaborationSession::new(SessionConfig {
        fault: Some(simnet::FaultModel::none().with_duplicate(0.5)),
        ..SessionConfig::default()
    });
    let ids: Vec<ClientId> = ["publisher", "full", "half", "caption"]
        .into_iter()
        .map(|name| {
            s.add_wired_client(
                viewer_profile(name),
                InferenceEngine::new(PolicyDb::new(), QosContract::default()),
                SimHost::idle(name),
            )
            .unwrap()
        })
        .collect();
    s.client_mut(ids[2]).viewer.set_packet_budget(8);
    s.client_mut(ids[3]).viewer.set_packet_budget(0);
    let mut views = 0;
    for seed in 0..3 {
        let scene = synthetic_scene(64, 64, 1, 3, seed);
        s.share_image(ids[0], &scene, "interested_in contains 'image'")
            .unwrap();
        views += s.pump(Ticks::from_millis(400)).len();
    }
    assert!(s.net.stats().duplicated > 0, "the fault model fired");
    assert_eq!(views, 3 * 2, "one view per object and pixel viewer");
    for &id in &ids[1..] {
        let viewer = &s.client(id).viewer;
        assert_eq!(viewer.pending_len(), 0, "client {id} at quiescence");
    }
    assert_eq!(s.client(ids[3]).viewer.text_fallbacks.len(), 3);
}

#[test]
fn repeated_share_hits_media_cache() {
    let (mut s, publisher, _viewer) = two_client_session();
    let stats = s.media_cache_stats();
    let scene = synthetic_scene(64, 64, 1, 3, 5);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    assert_eq!((stats.hits(), stats.misses()), (0, 1));
    // Same content again: encode-once, the second share is served
    // from the shared stream.
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    assert_eq!((stats.hits(), stats.misses()), (1, 1));
    // Different content misses.
    let other = synthetic_scene(64, 64, 1, 3, 6);
    s.share_image(publisher, &other, "interested_in contains 'image'")
        .unwrap();
    assert_eq!((stats.hits(), stats.misses()), (1, 2));
    // Both shares of the first scene still delivered identically.
    let completed = s.pump(Ticks::from_millis(400));
    assert!(!completed.is_empty());
    for (_, viewed) in &completed {
        assert_eq!(viewed.image.width, 64);
    }
}

/// Over clean links a viewer's report holds exactly the packets its
/// views accepted: nothing lost, nothing copied, nothing marked.
#[test]
fn a_lossless_share_reports_its_accepted_packets_and_nothing_else() {
    let (mut s, publisher, viewer) = two_client_session();
    let mut accepted = 0;
    for seed in 5..8 {
        let scene = synthetic_scene(64, 64, 1, 3, seed);
        s.share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        for (id, viewed) in s.pump(Ticks::from_millis(200)) {
            assert_eq!(id, viewer);
            accepted += u64::from(viewed.packets_accepted);
        }
    }
    assert_eq!(accepted, 3 * 16);
    let report = s.client(viewer).viewer.report();
    assert_eq!(
        report,
        simnet::rtp::ReceiverReport::from_counts(accepted, 0, 0, 3 * 17, 0)
    );
}

#[test]
fn adaptation_reduces_accepted_packets_under_load() {
    let (mut s, publisher, viewer) = two_client_session();
    s.client_mut(viewer).host.force(HostState {
        cpu_load: 20.0,
        page_faults: 75.0, // -> 2 packets under the paper policy
        mem_avail_kb: 1024.0,
    });
    let d = s.adapt(viewer);
    assert_eq!(d.max_packets, 2);
    let scene = synthetic_scene(64, 64, 1, 3, 5);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = s.pump(Ticks::from_millis(200));
    assert_eq!(completed.len(), 1);
    let viewed = &completed[0].1;
    assert_eq!(viewed.packets_accepted, 2);
    assert_ne!(viewed.image.data, scene.image.data, "coarse image");
    assert!(viewed.bpp < 8.0);
    assert!(viewed.compression_ratio > 1.0);
}

#[test]
fn ingested_rtp_loss_drives_modality_switch() {
    let mut s = CollaborationSession::new(SessionConfig::default());
    let viewer = s
        .add_wired_client(
            viewer_profile("viewer"),
            InferenceEngine::new(PolicyDb::loss_policy(), QosContract::default()),
            SimHost::idle("viewer"),
        )
        .unwrap();
    // Clean stream: no loss_pct attribute, policy stays silent.
    let d = s.adapt(viewer);
    assert_eq!(d.modality, crate::inference::ModalityChoice::FullImage);
    // A receiver report measuring 20% loss caps modality at sketch.
    let report = simnet::rtp::ReceiverReport::from_counts(80, 20, 0, 80, 0);
    s.ingest_rtp_report(viewer, &report);
    let d = s.adapt(viewer);
    assert_eq!(d.modality, crate::inference::ModalityChoice::Sketch);
    // Recovery back to a clean stream restores full imagery.
    s.ingest_rtp_report(viewer, &simnet::rtp::ReceiverReport::default());
    let d = s.adapt(viewer);
    assert_eq!(d.modality, crate::inference::ModalityChoice::FullImage);
}

#[test]
fn chat_and_strokes_replicate() {
    let (mut s, a, b) = two_client_session();
    s.share_chat(a, "hello from a", "true").unwrap();
    let oid = s.new_object_id();
    s.share_stroke(a, oid, vec![(1, 2), (3, 4)], 1, "true")
        .unwrap();
    s.pump(Ticks::from_millis(50));
    assert_eq!(s.client(b).chat.log.len(), 1);
    assert_eq!(s.client(b).whiteboard.strokes(oid).len(), 1);
    // Repo recorded the stroke.
    assert!(s.client(b).repo.get(oid).is_some());
    // The author's local echo matches the remote replica.
    assert_eq!(
        s.client(a).whiteboard.strokes(oid),
        s.client(b).whiteboard.strokes(oid)
    );
}

#[test]
fn selector_excludes_uninterested_client() {
    let mut s = CollaborationSession::new(SessionConfig::default());
    let publisher = s
        .add_wired_client(
            viewer_profile("pub"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("pub"),
        )
        .unwrap();
    let mut text_profile = Profile::new("texter");
    text_profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("text")]),
    );
    let texter = s
        .add_wired_client(text_profile, engine_pf(), SimHost::idle("texter"))
        .unwrap();
    let scene = synthetic_scene(32, 32, 1, 2, 1);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = s.pump(Ticks::from_millis(100));
    assert!(completed.is_empty());
    assert_eq!(s.client(texter).viewer.viewed.len(), 0);
    assert!(s.client(texter).bus.stats().rejected > 0);
}

#[test]
fn wireless_modality_depends_on_sir() {
    let (mut s, _publisher, viewer) = two_client_session();
    s.adapt(viewer);
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    // A lone nearby client: full image goes through.
    let a = s.wireless_join("mobile-a", 30.0, 100.0).unwrap();
    assert_eq!(a.modality, Modality::FullImage);
    let scene = synthetic_scene(64, 64, 1, 3, 9);
    let m = s
        .wireless_contribute("mobile-a", &scene, "interested_in contains 'image'")
        .unwrap();
    assert_eq!(m, Modality::FullImage);
    let completed = s.pump(Ticks::from_millis(300));
    // Both wired clients are interested in images; the viewer is one.
    assert!(
        completed.iter().any(|(c, _)| *c == viewer),
        "wired viewer got the full image"
    );

    // A second, competing client drags SIR down: sketch or text only.
    s.wireless_join("mobile-b", 32.0, 100.0).unwrap();
    let m = s
        .wireless_contribute("mobile-a", &scene, "interested_in contains 'image'")
        .unwrap();
    assert!(m < Modality::FullImage, "modality degraded, got {m:?}");
    s.pump(Ticks::from_millis(300));
    match m {
        Modality::TextAndSketch => {
            assert_eq!(s.client(viewer).sketches.len(), 1);
        }
        Modality::TextOnly => {
            assert!(!s.client(viewer).viewer.text_fallbacks.is_empty());
        }
        other => panic!("unexpected modality {other:?}"),
    }
}

#[test]
fn color_transformed_session_share_is_lossless() {
    let cfg = SessionConfig {
        color_transform: true,
        ..SessionConfig::default()
    };
    let mut s = CollaborationSession::new(cfg);
    let publisher = s
        .add_wired_client(
            viewer_profile("pub"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("pub"),
        )
        .unwrap();
    let viewer = s
        .add_wired_client(
            viewer_profile("view"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("view"),
        )
        .unwrap();
    s.adapt(viewer);
    let scene = synthetic_scene(64, 64, 3, 3, 27);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = s.pump(Ticks::from_secs(1));
    let viewed = completed
        .iter()
        .find(|(c, _)| *c == viewer)
        .map(|(_, v)| v)
        .expect("completed");
    assert_eq!(viewed.image.data, scene.image.data);
}

#[test]
fn bandwidth_policy_via_router_agent() {
    // A router's ifSpeed collapses; the client's modality follows.
    let mut s = CollaborationSession::new(SessionConfig::default());
    let mut db = PolicyDb::paper_page_fault_policy();
    db.merge(PolicyDb::bandwidth_modality_policy());
    let viewer = s
        .add_wired_client(
            viewer_profile("viewer"),
            InferenceEngine::new(db, QosContract::default()),
            SimHost::idle("viewer"),
        )
        .unwrap();
    let router = s.add_router("edge-router", 10_000_000).unwrap();
    s.monitor_bandwidth(viewer, router);

    let d = s.adapt(viewer);
    assert_eq!(d.modality, crate::inference::ModalityChoice::FullImage);

    s.set_router_speed(router, 48_000).unwrap(); // below text cutoff
    let d = s.adapt(viewer);
    assert_eq!(d.modality, crate::inference::ModalityChoice::Text);

    s.set_router_speed(router, 256_000).unwrap(); // sketch band
    let d = s.adapt(viewer);
    assert_eq!(d.modality, crate::inference::ModalityChoice::Sketch);
}

/// One GET of `oid` from the agent on `node`, over the wire.
fn mib_row(
    s: &mut CollaborationSession,
    mgr: &mut snmp::SnmpManager,
    node: NodeId,
    oid: snmp::Oid,
) -> snmp::SnmpValue {
    let mut rt = s.agents.get_mut(node).expect("agent on the node");
    let binds = mgr
        .get(&mut s.net, std::slice::from_mut(&mut rt), node, &[oid])
        .expect("the agent answers");
    binds[0].value.clone()
}

#[test]
fn a_router_added_between_joins_does_not_shift_later_clients_agents() {
    use snmp::oid::arcs;
    use snmp::SnmpValue;

    let mut s = CollaborationSession::new(SessionConfig::default());
    let join = |s: &mut CollaborationSession, name: &str| {
        s.add_wired_client(viewer_profile(name), engine_pf(), SimHost::idle(name))
            .unwrap()
    };
    let first = join(&mut s, "first");
    // The router's agent lands between the clients' agents.
    let router = s.add_router("edge-router", 10_000_000).unwrap();
    let (shaped, planned) = (join(&mut s, "shaped"), join(&mut s, "planned"));
    let nodes = [first, shaped, planned].map(|id| s.client(id).node);

    // A link carries one egress plane: the flat one goes on one
    // later client's access link, the tree on the other's.
    let link = s.client(shaped).link;
    s.attach_qdisc(shaped, simnet::qdisc::QdiscConfig::for_rate(8_000_000));
    let mut spec = htb::TreeSpec::new(8_000_000);
    let site = spec.add_site("site", 8_000_000, 8_000_000);
    let plan = htb::RatePlan::new("starter", 32_000, 64_000);
    spec.add_subscriber(site, "first", &plan, nodes[0].0);
    s.attach_tree(planned, spec);

    let mut mgr = snmp::SnmpManager::bind(&mut s.net, nodes[0], Port(30_000), "public").unwrap();
    for (oid, owner) in [
        (arcs::qdisc_drops(link.0), nodes[1]),
        (arcs::htb_node_ceil(0), nodes[2]),
    ] {
        for node in nodes.into_iter().chain([router]) {
            let row = mib_row(&mut s, &mut mgr, node, oid.clone());
            if node == owner {
                assert!(row.as_u32().is_some(), "{oid} on its client: {row}");
            } else {
                assert_eq!(row, SnmpValue::NoSuchObject, "{oid} on {node}");
            }
        }
    }
    // The leaf's plan-alert watcher traps from the same agent.
    assert_eq!(s.plan_watchers.len(), 1);
    assert_eq!(s.plan_watchers[0].0, nodes[2]);
}

/// One adaptation pass the way it ran before the agent directory:
/// every client's GETs pumped with every agent of the session.
fn adapt_all_sweeping(s: &mut CollaborationSession) -> Vec<AdaptationDecision> {
    (0..s.clients.len())
        .map(|id| {
            let mut all: Vec<&mut AgentRuntime> = s.agents.iter_mut().collect();
            let client = &mut s.clients[id];
            let mut state = StateVector::new();
            client
                .netstate
                .sample_sweeping(&mut s.net, &mut all, &mut state);
            client.fold_rtp_report(&mut state);
            CollaborationSession::decide_and_apply(client, &state, &mut EvalStack::default())
        })
        .collect()
}

/// Build the same session twice; adapt one through the directory
/// and one by sweeping, with host loads stepped between passes, and
/// require the same decisions, clock and network counters.
fn directory_matches_sweep(build: impl Fn() -> CollaborationSession) {
    let (mut direct, mut swept) = (build(), build());
    assert!(direct.client_count() >= 3);
    for pass in 0..3u32 {
        for s in [&mut direct, &mut swept] {
            for id in 0..s.client_count() {
                s.client_mut(id).host.force(sysmon::HostState {
                    cpu_load: f64::from((id as u32 * 37 + pass * 23) % 101),
                    page_faults: f64::from((id as u32 * 11 + pass * 41) % 101),
                    mem_avail_kb: 4096.0,
                });
            }
        }
        let decided = direct.adapt_all();
        assert_eq!(decided, adapt_all_sweeping(&mut swept), "pass {pass}");
        assert!(
            decided.windows(2).any(|w| w[0] != w[1]),
            "pass {pass} exercises more than one decision"
        );
        assert_eq!(direct.net.now(), swept.net.now(), "pass {pass}");
        assert_eq!(direct.net.stats(), swept.net.stats(), "pass {pass}");
    }
}

fn adaptive_session(cfg: SessionConfig, clients: usize) -> CollaborationSession {
    let mut s = CollaborationSession::new(cfg);
    for i in 0..clients {
        let name = format!("c{i}");
        let mut db = PolicyDb::paper_cpu_load_policy();
        db.merge(PolicyDb::bandwidth_modality_policy());
        s.add_adaptive_client(
            viewer_profile(&name),
            db,
            QosContract::default(),
            SimHost::idle(&name),
        )
        .unwrap();
    }
    s
}

#[test]
fn directory_sampling_matches_the_all_agents_sweep_flat() {
    directory_matches_sweep(|| adaptive_session(SessionConfig::default(), 5));
}

#[test]
fn directory_sampling_matches_the_all_agents_sweep_brokered() {
    directory_matches_sweep(|| {
        let cfg = SessionConfig {
            domains: Some(3),
            ..SessionConfig::default()
        };
        adaptive_session(cfg, 7)
    });
}

#[test]
fn directory_sampling_matches_the_all_agents_sweep_with_two_targets() {
    directory_matches_sweep(|| {
        let mut s = adaptive_session(SessionConfig::default(), 4);
        let router = s.add_router("edge-router", 256_000).unwrap();
        s.monitor_bandwidth(2, router);
        s.ingest_rtp_report(1, &simnet::rtp::ReceiverReport::from_counts(3, 1, 0, 3, 0));
        s
    });
}

#[test]
fn distributed_lock_replicas_agree_on_holder() {
    let (mut s, a, b) = two_client_session();
    let oid = s.new_object_id();
    let got = s.request_lock(a, oid, "true").unwrap();
    assert_eq!(got, crate::concurrency::LockOutcome::Granted);
    s.pump(Ticks::from_millis(50));
    // B's replica sees A's request and grants it the same way.
    assert_eq!(s.client(b).locks.holder(oid), Some("publisher"));
    // B requests while held: queued on both replicas.
    let q = s.request_lock(b, oid, "true").unwrap();
    assert!(matches!(q, crate::concurrency::LockOutcome::Queued(_)));
    s.pump(Ticks::from_millis(50));
    assert_eq!(s.client(a).locks.holder(oid), Some("publisher"));
    assert_eq!(s.client(a).locks.queue_len(oid), 1);
    // A releases: both replicas hand the lock to B ("viewer").
    s.release_lock(a, oid, "true").unwrap();
    s.pump(Ticks::from_millis(50));
    assert_eq!(s.client(a).locks.holder(oid), Some("viewer"));
    assert_eq!(s.client(b).locks.holder(oid), Some("viewer"));
}

#[test]
fn failed_publish_leaves_every_replica_unchanged() {
    fn observe(s: &CollaborationSession, ids: [ClientId; 2], oid: u64) -> Vec<String> {
        ids.iter()
            .map(|&id| {
                let c = s.client(id);
                format!(
                    "{:?} {:?} {:?} {}",
                    c.whiteboard.strokes(oid),
                    c.locks.holder(oid),
                    c.repo.snapshot(),
                    c.bus.stats().published
                )
            })
            .collect()
    }
    let (mut s, a, b) = two_client_session();
    let oid = s.new_object_id();
    s.share_stroke(a, oid, vec![(1, 2)], 1, "true").unwrap();
    s.request_lock(a, oid, "true").unwrap();
    s.pump(Ticks::from_millis(50));
    let before = observe(&s, [a, b], oid);

    // Unparsable selector on each call; a stroke too large for one
    // datagram (4 bytes a point against the 65 507-byte limit).
    assert!(s.share_stroke(a, oid, vec![(5, 6)], 1, "((").is_err());
    assert!(s
        .share_stroke(a, oid, vec![(0, 0); 20_000], 1, "true")
        .is_err());
    // One point past what the stroke format counts: the codec refuses
    // it before the transport is asked.
    let err = s
        .share_stroke(a, oid, vec![(0, 0); 65_536], 1, "true")
        .unwrap_err();
    assert!(err.contains("at most 65535"), "{err}");
    assert!(s.release_lock(a, oid, "((").is_err());
    let other = s.new_object_id();
    assert!(s.request_lock(a, other, "((").is_err());
    s.pump(Ticks::from_millis(50));
    assert_eq!(observe(&s, [a, b], oid), before);
    for id in [a, b] {
        assert_eq!(s.client(id).locks.holder(other), None);
    }
    // `b` is granted what `a` never got, on both replicas.
    let got = s.request_lock(b, other, "true").unwrap();
    assert_eq!(got, crate::concurrency::LockOutcome::Granted);

    // Valid calls still replicate after the failures.
    s.share_stroke(a, oid, vec![(7, 8)], 2, "true").unwrap();
    s.release_lock(a, oid, "true").unwrap();
    s.pump(Ticks::from_millis(50));
    for id in [a, b] {
        assert_eq!(s.client(id).whiteboard.strokes(oid).len(), 2);
        assert_eq!(s.client(id).locks.holder(oid), None);
        assert_eq!(s.client(id).locks.holder(other), Some("viewer"));
    }
}

#[test]
fn latency_probe_feeds_the_engine() {
    let mut s = CollaborationSession::new(SessionConfig::default());
    let mut db = PolicyDb::paper_page_fault_policy();
    db.merge(PolicyDb::latency_policy());
    let viewer = s
        .add_wired_client(
            viewer_profile("viewer"),
            InferenceEngine::new(db, QosContract::default()),
            SimHost::idle("viewer"),
        )
        .unwrap();
    let echo = s.add_echo_node("reflector").unwrap();

    // Healthy LAN: latency in the hundreds of microseconds.
    let d = s.adapt_with_probe(viewer, echo, 4).unwrap();
    assert!(!d.fired_rules.iter().any(|r| r.starts_with("lat-")));

    // Degrade every link to a high-latency hop (tiny test topology).
    let n_links = s.net.topology().link_count() as u32;
    for i in 0..n_links {
        let l = simnet::LinkId(i);
        let spec = s.net.topology().link_spec(l);
        s.net
            .topology_mut()
            .set_link_spec(l, spec.with_latency(Ticks::from_millis(8)));
    }
    let d = s.adapt_with_probe(viewer, echo, 4).unwrap();
    assert!(
        d.fired_rules.iter().any(|r| r == "lat-high"),
        "8ms one-way hops must trip the latency rule: {:?}",
        d.fired_rules
    );
    assert_eq!(d.max_packets, 8);
}

#[test]
fn late_joiner_catches_up_via_archive() {
    let (mut s, a, b) = two_client_session();
    let oid = s.new_object_id();
    s.share_stroke(a, oid, vec![(5, 5)], 2, "true").unwrap();
    s.pump(Ticks::from_millis(50));
    assert!(s.client(b).repo.get(oid).is_some());

    // A newcomer joins after the fact and misses the stroke.
    let newcomer = s
        .add_wired_client(
            viewer_profile("late"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("late"),
        )
        .unwrap();
    assert!(s.client(newcomer).repo.get(oid).is_none());
    s.catch_up(b, newcomer);
    assert!(
        s.client(newcomer).repo.get(oid).is_some(),
        "history installed"
    );
}

#[test]
fn downlink_relays_in_sir_appropriate_modality() {
    let (mut s, publisher, viewer) = two_client_session();
    s.adapt(viewer);
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    // Near client: strong SIR. Far client behind interference: weak.
    s.wireless_join("near", 35.0, 100.0).unwrap();
    s.wireless_join("far", 60.0, 100.0).unwrap();
    let scene = synthetic_scene(64, 64, 1, 2, 9);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    s.pump(Ticks::from_secs(1));
    let bs = s.base_station.as_ref().unwrap();
    let near: Vec<_> = bs
        .downlink_log
        .iter()
        .filter(|d| &*d.client == "near")
        .collect();
    let far: Vec<_> = bs
        .downlink_log
        .iter()
        .filter(|d| &*d.client == "far")
        .collect();
    assert!(!near.is_empty(), "near client got the share");
    assert!(!far.is_empty(), "far client got something too");
    let near_best = near.iter().map(|d| d.modality).max().unwrap();
    let far_best = far.iter().map(|d| d.modality).max().unwrap();
    assert!(
        near_best > far_best,
        "radio conditions differentiate modality: {near_best:?} vs {far_best:?}"
    );
}

#[test]
fn downlink_respects_wireless_profiles() {
    let (mut s, publisher, _viewer) = two_client_session();
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    // A text-only profile never matches image shares.
    let mut text_profile = Profile::new("texter");
    text_profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("text")]),
    );
    s.wireless_join_with_profile(text_profile, 30.0, 100.0)
        .unwrap();
    let scene = synthetic_scene(32, 32, 1, 1, 3);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    s.pump(Ticks::from_secs(1));
    assert!(
        s.base_station.as_ref().unwrap().downlink_log.is_empty(),
        "selector must exclude the text-only wireless profile"
    );
    // Leaving removes radio and profile.
    s.wireless_leave("texter").unwrap();
    assert_eq!(s.base_station.as_ref().unwrap().station.client_count(), 0);
    assert!(s
        .base_station
        .as_ref()
        .unwrap()
        .wireless_profiles
        .is_empty());
}

#[test]
fn wireless_leave_drops_the_compiled_snapshot_too() {
    // Roaming thin clients: 1 000 distinct ids join, are matched
    // against one event, and leave. The matcher must hold compiled
    // snapshots for attached profiles only, not for every id that
    // ever joined.
    let (mut s, publisher, _viewer) = two_client_session();
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    let selector = "interested_in contains 'image'";
    s.wireless_join("resident", 20.0, 100.0).unwrap();
    for i in 0..1_000 {
        let id = format!("roamer-{i}");
        s.wireless_join(&id, 30.0, 100.0).unwrap();
        s.share_chat(publisher, "ping", selector).unwrap();
        s.pump(Ticks::from_millis(10));
        s.wireless_leave(&id).unwrap();
    }
    let bs = s.base_station.as_mut().unwrap();
    assert_eq!(bs.downlink_log.len(), 2 * 1_000, "everyone was matched");
    assert_eq!(bs.wireless_profiles.len(), 1);
    assert_eq!(
        bs.matcher.snapshots(),
        1,
        "snapshots for live profiles only"
    );

    // A recycled id with a different profile is matched by the new
    // profile, not by anything left over from the old one.
    bs.downlink_log.clear();
    let mut texter = Profile::new("roamer-7");
    texter.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("text")]),
    );
    s.wireless_join_with_profile(texter, 30.0, 100.0).unwrap();
    s.share_chat(publisher, "for images", selector).unwrap();
    s.share_chat(publisher, "for text", "interested_in contains 'text'")
        .unwrap();
    s.pump(Ticks::from_millis(10));
    let bs = s.base_station.as_ref().unwrap();
    let to_roamer = bs
        .downlink_log
        .iter()
        .filter(|d| &*d.client == "roamer-7")
        .count();
    assert_eq!(to_roamer, 1, "only the text line matches the new profile");
    assert_eq!(
        bs.downlink_log.len(),
        2,
        "plus the image line to the resident"
    );
    assert_eq!(bs.matcher.snapshots(), 2);
}

/// The gateway sees traffic no publish path would let through. It
/// relays neither a datagram that is not a message nor a message
/// whose selector does not parse, and books each under the counter
/// every wired endpoint books it under.
#[test]
fn gateway_counts_the_traffic_it_cannot_relay() {
    let (mut s, publisher, viewer) = two_client_session();
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    s.wireless_join("thin", 20.0, 100.0).unwrap();
    let intruder = s.net.add_node("intruder");
    s.connect_to_switch(intruder);
    let socket = s.net.bind(intruder, simnet::Port(9)).unwrap();
    let unparseable = sempubsub::SemanticMessage {
        sender: "intruder".to_string(),
        kind: "chat".to_string(),
        selector: "interested_in ==".to_string(),
        seq: 0,
        content: Default::default(),
        body: vec![],
    };
    for wire in [b"not a semantic message".to_vec(), unparseable.encode()] {
        let everyone = simnet::Addr::multicast(s.group, well_known::SESSION_DATA);
        s.net.send(socket, everyone, wire).unwrap();
    }
    s.share_chat(publisher, "hello", "interested_in contains 'chat'")
        .unwrap();
    s.pump(Ticks::from_millis(50));

    let bs = s.base_station.as_ref().unwrap();
    assert_eq!(bs.downlink_log.len(), 1, "the chat line is relayed");
    let (gateway, wired) = (bs.bus.stats(), s.client(viewer).bus.stats());
    assert_eq!((gateway.malformed, gateway.bad_selector), (1, 1));
    assert_eq!((wired.malformed, wired.bad_selector), (1, 1));
    assert_eq!(
        gateway.rejected + gateway.accepted,
        0,
        "no decision is the gateway's own"
    );
}

#[test]
fn wireless_contribute_unknown_client_errors() {
    let (mut s, _p, _v) = two_client_session();
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    let scene = synthetic_scene(32, 32, 1, 1, 0);
    assert!(s.wireless_contribute("ghost", &scene, "true").is_err());
    assert_eq!(s.new_object_id(), 1, "a refused contribution burns no id");
    // And without a base station at all:
    let (mut s2, _p, _v) = two_client_session();
    assert!(s2.wireless_contribute("x", &scene, "true").is_err());
    assert_eq!(s2.new_object_id(), 1, "a refused contribution burns no id");
}

#[test]
fn full_stream_bpp_caps_received_rate() {
    let cfg = SessionConfig {
        full_stream_bpp: Some(2.1),
        ..SessionConfig::default()
    };
    let mut s = CollaborationSession::new(cfg);
    let publisher = s
        .add_wired_client(
            viewer_profile("pub"),
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("pub"),
        )
        .unwrap();
    let viewer = s
        .add_wired_client(viewer_profile("view"), engine_pf(), SimHost::idle("view"))
        .unwrap();
    s.adapt(viewer);
    let scene = synthetic_scene(128, 128, 1, 4, 3);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = s.pump(Ticks::from_millis(300));
    let viewed = &completed[0].1;
    assert!(
        viewed.bpp <= 2.2,
        "stream capped at ~2.1 bpp, got {:.2}",
        viewed.bpp
    );
}

/// The manager and prober ports are fixed, not derived from the client
/// id: `10_000 + id as u16` wrapped at client 55 536 (45 536 for the
/// prober) onto ports the node already uses. Each client's node is its
/// own, so the same two ports are free on every one of them.
#[test]
fn manager_and_prober_ports_do_not_depend_on_the_client_id() {
    use super::clients::{MANAGER_PORT, PROBER_PORT};
    use simnet::net::NetError;

    let mut s = adaptive_session(SessionConfig::default(), 3);
    for id in 0..3 {
        s.enable_probing(id).unwrap();
        let node = s.client(id).node;
        for port in [MANAGER_PORT, PROBER_PORT] {
            assert_eq!(
                s.net.bind(node, port),
                Err(NetError::PortInUse(node, port)),
                "client {id}"
            );
        }
    }
    let also_bound_on_a_client_node = [
        well_known::SNMP_AGENT,
        well_known::SNMP_TRAP,
        well_known::SESSION_DATA,
        well_known::SESSION_CTRL,
        crate::probe::ECHO_PORT,
    ];
    assert_ne!(MANAGER_PORT, PROBER_PORT);
    for port in [MANAGER_PORT, PROBER_PORT] {
        assert!(!also_bound_on_a_client_node.contains(&port), "{port}");
    }
}

#[test]
fn a_failed_contribution_is_not_logged_as_forwarded() {
    let (mut s, _p, _v) = two_client_session();
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    s.wireless_join("mobile", 30.0, 100.0).unwrap();
    let scene = synthetic_scene(32, 32, 1, 1, 0);
    // A selector that does not parse fails the first publish; a 1x1
    // scene has no wavelet level to code and fails the encode.
    assert!(s.wireless_contribute("mobile", &scene, "((").is_err());
    let dot = media::image::Scene {
        image: media::Image::new(1, 1, 1),
        caption: "a dot".to_string(),
    };
    assert!(s.wireless_contribute("mobile", &dot, "true").is_err());
    assert!(s.base_station.as_ref().unwrap().forward_log.is_empty());

    s.wireless_contribute("mobile", &scene, "true").unwrap();
    assert_eq!(
        s.base_station.as_ref().unwrap().forward_log,
        [("mobile".to_string(), Modality::FullImage)]
    );
}

#[test]
fn a_contribution_too_weak_to_carry_anything_is_still_logged() {
    let (mut s, _p, viewer) = two_client_session();
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    s.wireless_join("mobile", 30.0, 100.0).unwrap();
    // Admitted in range, then out of it.
    let bs = s.base_station.as_mut().unwrap();
    bs.station.update_distance("mobile", 1.0e6).unwrap();
    let scene = synthetic_scene(32, 32, 1, 1, 0);
    assert_eq!(
        s.wireless_contribute("mobile", &scene, "true"),
        Ok(Modality::None)
    );
    s.pump(Ticks::from_millis(100));
    assert_eq!(
        s.base_station.as_ref().unwrap().forward_log,
        [("mobile".to_string(), Modality::None)]
    );
    assert_eq!(
        s.client(viewer).bus.stats().accepted,
        0,
        "nothing published"
    );
}

#[test]
fn an_out_of_range_packet_count_fails_the_share_and_spends_no_id() {
    let scene = synthetic_scene(32, 32, 1, 1, 0);
    for bad in [0, usize::from(u16::MAX) + 1] {
        let mut s = CollaborationSession::new(SessionConfig {
            packets_per_image: bad,
            ..SessionConfig::default()
        });
        let publisher = s
            .add_wired_client(viewer_profile("pub"), engine_pf(), SimHost::idle("pub"))
            .unwrap();
        let viewer = s
            .add_wired_client(viewer_profile("view"), engine_pf(), SimHost::idle("view"))
            .unwrap();
        s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
            .unwrap();
        s.wireless_join("mobile", 30.0, 100.0).unwrap();
        assert!(s.share_image(publisher, &scene, "true").is_err(), "{bad}");
        assert!(s.wireless_contribute("mobile", &scene, "true").is_err());
        assert!(s.base_station.as_ref().unwrap().forward_log.is_empty());

        // The next valid share gets the first id and is delivered.
        s.cfg.packets_per_image = 1;
        assert_eq!(s.share_image(publisher, &scene, "true"), Ok(1));
        let completed = s.pump(Ticks::from_millis(200));
        assert_eq!(completed.len(), 1);
        assert_eq!((completed[0].0, completed[0].1.total_packets), (viewer, 1));
    }
}
