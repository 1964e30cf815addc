//! Session pin: two scripted sessions whose every observable outcome
//! is folded into one FNV-1a digest each.
//!
//! The figure-identity suites pin the viewer path; this file pins the
//! seams around it — the base station's uplink and downlink, the
//! telemetry mounts (shaping tree, flat plane, router rows, plan and
//! store alerts), latency probing, and broker custody across a cut and
//! heal. The constants were captured at the commit before
//! `session.rs` was cut into `session/`; a refactor of the session
//! that moves one delivery, one counter or one trap byte changes them.

use collabqos::dtn::StoreConfig;
use collabqos::prelude::*;
use collabqos::simnet::qdisc::QdiscConfig;
use collabqos::simnet::rtp::ReceiverReport;
use collabqos::snmp::oid::arcs;
use collabqos::snmp::transport::TrapSink;
use testkit::{Client, Digest, Scenario};

const FLAT_DIGEST: u64 = 0x5d1e_543e_3d10_7387;
const BROKERED_DIGEST: u64 = 0x8cc1_b93d_37e2_f3f9;

const IMAGES: &str = "interested_in contains 'image'";
const CHAT: &str = "interested_in contains 'chat'";
const TEXT: &str = "interested_in contains 'text'";

fn full_policy() -> PolicyDb {
    let mut db = PolicyDb::paper_page_fault_policy();
    db.merge(PolicyDb::bandwidth_modality_policy());
    db.merge(PolicyDb::latency_policy());
    db.merge(PolicyDb::loss_policy());
    db
}

/// Each client's latest adaptation decision, as the script's passes
/// returned them, for [`digest_session`].
#[derive(Default)]
struct Latest(Vec<Option<AdaptationDecision>>);

impl Latest {
    /// Feed client `id`'s `decision` and keep it as its latest.
    fn one(&mut self, h: &mut Digest, id: usize, decision: AdaptationDecision) {
        h.debug(&decision);
        if self.0.len() <= id {
            self.0.resize(id + 1, None);
        }
        self.0[id] = Some(decision);
    }

    /// Feed a pass over every client and keep each client's decision.
    fn all(&mut self, h: &mut Digest, decisions: Vec<AdaptationDecision>) {
        h.debug(&decisions);
        self.0 = decisions.into_iter().map(Some).collect();
    }
}

/// Everything a session holds at the end of its script.
fn digest_session(h: &mut Digest, s: &CollaborationSession, objects: &[u64], latest: &Latest) {
    for id in 0..s.client_count() {
        let c = s.client(id);
        h.bytes(c.name.as_bytes());
        h.debug(&c.bus.stats());
        h.debug(&c.chat.log);
        for &oid in objects {
            h.debug(&c.whiteboard.strokes(oid));
            h.debug(&c.locks.holder(oid));
            h.num(c.locks.queue_len(oid) as u64);
            h.num(u64::from(c.repo.get(oid).is_some()));
        }
        for v in &c.viewer.viewed {
            h.num(v.object_id);
            h.num(u64::from(v.packets_accepted));
            h.bytes(&v.image.data);
        }
        h.debug(&c.viewer.text_fallbacks);
        h.num(c.viewer.packets_discarded);
        for (oid, sketch, caption) in &c.sketches {
            h.num(*oid);
            h.bytes(&sketch.encode());
            h.bytes(caption.as_bytes());
        }
        h.debug(&latest.0.get(id).and_then(Option::as_ref));
    }
    if let Some(bs) = &s.base_station {
        h.debug(&bs.bus.stats());
        h.debug(&bs.forward_log);
        h.debug(&bs.downlink_log);
    }
    h.debug(&s.net.stats());
    h.num(s.net.now().as_micros());
    let cache = s.media_cache_stats();
    h.num(cache.hits());
    h.num(cache.misses());
    h.num(s.view_store().hits());
    h.num(s.view_store().misses());
}

fn digest_traps(h: &mut Digest, sink: &TrapSink) {
    h.num(sink.traps.len() as u64);
    for trap in &sink.traps {
        h.bytes(&trap.encode());
    }
}

/// Flat mode: a shaping tree on the publisher, a flat plane on a
/// viewer, a router row, an echo node, the base station with one
/// wireless client per SIR tier, and every kind of session traffic.
fn flat_digest() -> u64 {
    let mut h = Digest::default();
    let (mut s, ids) = Scenario {
        cfg: SessionConfig {
            seed: 2401,
            ..SessionConfig::default()
        },
        clients: vec![
            Client::passive("publisher", &["image", "chat"]),
            Client::adaptive("viewer", &["image", "chat"], full_policy()),
            Client::adaptive("loaded", &["image", "chat"], full_policy()),
            Client::passive("texter", &["text"]),
        ],
    }
    .build();
    let [publisher, viewer, loaded, texter] = ids.try_into().unwrap();
    s.client_mut(loaded).host.force(HostState {
        cpu_load: 35.0,
        page_faults: 75.0,
        mem_avail_kb: 2048.0,
    });

    let router = s.add_router("edge-router", 10_000_000).unwrap();
    s.monitor_bandwidth(viewer, router);
    let station = s.add_router("station", 100_000_000).unwrap();
    let mut sink = TrapSink::bind(&mut s.net, station).unwrap();
    let echo = s.add_echo_node("reflector").unwrap();

    let mut spec = TreeSpec::new(8_000_000);
    let site = spec.add_site("site", 8_000_000, 8_000_000);
    let plan = RatePlan::new("starter", 32_000, 64_000);
    spec.add_subscriber(site, "viewer", &plan, s.client(viewer).node.0);
    let tree = s.attach_tree(publisher, spec);
    let plane = s.attach_qdisc(loaded, QdiscConfig::for_rate(8_000_000));

    s.attach_base_station(
        PathLossModel::default(),
        ModalityThresholds {
            text_db: -60.0,
            sketch_db: -20.0,
            image_db: 4.0,
        },
    )
    .unwrap();
    let mut tiers = Vec::new();
    for (id, distance_m) in [("near", 10.0), ("mid", 25.0), ("far", 80.0)] {
        let a = s.wireless_join(id, distance_m, 100.0).unwrap();
        h.debug(&a.modality);
    }
    for id in ["near", "mid", "far"] {
        let bs = s.base_station.as_ref().unwrap();
        tiers.push(bs.station.assess(id).unwrap().modality);
    }
    assert_eq!(
        tiers,
        [
            Modality::FullImage,
            Modality::TextAndSketch,
            Modality::TextOnly
        ],
        "one wireless client per SIR tier"
    );

    let mut latest = Latest::default();
    latest.all(&mut h, s.adapt_all());
    s.pump(Ticks::from_millis(50));
    assert_eq!(s.service_plan_alerts(station), 0, "quiet window");
    let scene = synthetic_scene(64, 64, 1, 3, 5);
    let mut objects = vec![s.share_image(publisher, &scene, IMAGES).unwrap()];
    h.num(s.pump(Ticks::from_millis(250)).len() as u64);
    h.num(s.service_plan_alerts(station) as u64);

    s.share_chat(publisher, "hello", CHAT).unwrap();
    s.share_chat(viewer, "for the texter", TEXT).unwrap();
    let board = s.new_object_id();
    objects.push(board);
    h.num(
        s.share_stroke(publisher, board, vec![(1, 2), (3, 4)], 1, "true")
            .unwrap(),
    );
    h.debug(&s.request_lock(publisher, board, "true").unwrap());
    s.pump(Ticks::from_millis(50));
    h.debug(&s.request_lock(viewer, board, "true").unwrap());
    h.num(
        s.share_stroke(viewer, board, vec![(9, 9)], 2, "true")
            .unwrap(),
    );
    s.pump(Ticks::from_millis(50));
    s.release_lock(publisher, board, "true").unwrap();
    s.pump(Ticks::from_millis(50));

    s.set_router_speed(router, 256_000).unwrap();
    latest.one(&mut h, viewer, s.adapt(viewer));
    latest.one(&mut h, loaded, s.adapt_with_probe(loaded, echo, 4).unwrap());
    s.ingest_rtp_report(
        viewer,
        &ReceiverReport {
            fraction_lost: 0.2,
            fraction_ecn_ce: 0.1,
            ..Default::default()
        },
    );
    latest.all(&mut h, s.adapt_all());
    s.set_router_speed(router, 10_000_000).unwrap();
    s.ingest_rtp_report(viewer, &ReceiverReport::default());
    latest.one(&mut h, viewer, s.adapt(viewer));

    for (k, id) in ["near", "mid", "far"].into_iter().enumerate() {
        let scene = synthetic_scene(64, 64, 1, 3, 40 + k as u64);
        h.debug(&s.wireless_contribute(id, &scene, IMAGES).unwrap());
        h.num(s.pump(Ticks::from_millis(300)).len() as u64);
    }

    // Pound the viewer's 64 kbit/s leaf until its watcher alerts.
    for round in 0..6u64 {
        for burst in 0..2u64 {
            let scene = synthetic_scene(64, 64, 1, 3, 100 + round * 2 + burst);
            objects.push(s.share_image(publisher, &scene, IMAGES).unwrap());
        }
        h.num(s.pump(Ticks::from_millis(250)).len() as u64);
    }
    h.num(s.service_plan_alerts(station) as u64);
    h.num(s.service_plan_alerts(station) as u64);
    s.pump(Ticks::from_millis(10));
    h.num(sink.service(&mut s.net) as u64);
    assert!(!sink.traps.is_empty(), "the saturated leaf alerted");

    let late = Client::passive("late", &["image", "chat"])
        .join(&mut s)
        .unwrap();
    s.catch_up(viewer, late);
    s.wireless_leave("mid").unwrap();
    s.share_chat(texter, "goodbye", CHAT).unwrap();
    h.num(s.pump(Ticks::from_secs(2)).len() as u64);

    digest_session(&mut h, &s, &objects, &latest);
    digest_traps(&mut h, &sink);
    for node in 0..tree.node_count() {
        h.num(tree.bits_sent(node));
        h.num(tree.drops(node));
        h.num(tree.borrowed_bits(node));
    }
    h.debug(&s.net.qdisc_stats(s.client(loaded).link));
    h.num(plane.drops.load(std::sync::atomic::Ordering::Relaxed));
    h.0
}

/// Every row the brokers serve locally.
fn digest_broker_rows(h: &mut Digest, s: &mut CollaborationSession, plane_link: u32) {
    for i in 0..3u32 {
        for oid in [
            arcs::broker_table_size(i),
            arcs::broker_forwarded(i),
            arcs::broker_suppressed(i),
            arcs::broker_adverts_merged(i),
            arcs::store_bundles(i),
            arcs::store_bytes(i),
            arcs::store_custody_transfers(i),
            arcs::store_expired(i),
            arcs::store_evicted(i),
            arcs::qdisc_backlog(plane_link),
            arcs::qdisc_drops(plane_link),
            arcs::qdisc_ecn_marks(plane_link),
        ] {
            h.debug(&s.broker_mib_get(i as usize, &oid));
        }
    }
    h.debug(&s.broker_mib_get(3, &arcs::broker_forwarded(3)));
}

/// Brokered mode: three domains with custody, a flat plane between
/// brokers 0 and 1, a cut and heal between brokers 1 and 2, store
/// alerts into a trap sink, and the gateway homed on broker 0.
fn brokered_digest() -> u64 {
    let mut h = Digest::default();
    let (mut s, ids) = Scenario {
        cfg: SessionConfig {
            seed: 2402,
            domains: Some(3),
            custody: Some(StoreConfig {
                max_bytes: 64 * 1024,
                high_watermark_pct: 1,
                ..StoreConfig::default()
            }),
            ..SessionConfig::default()
        },
        clients: vec![
            Client::passive("publisher", &["image", "chat", "text"]).in_domain(0),
            Client::passive("texter", &["text"]).in_domain(1),
            Client::adaptive("viewer", &["image", "chat"], full_policy()),
            Client::passive("second", &["image"]),
        ],
    }
    .build();
    let [publisher, texter, viewer, second] = ids.try_into().unwrap();
    h.debug(&[publisher, texter, viewer, second].map(|id| s.client(id).domain));
    assert!(Client::passive("x", &[]).in_domain(3).join(&mut s).is_err());

    let b0 = s.overlay().unwrap().node(0);
    let station = s.net.add_node("station");
    s.net.connect(station, b0, LinkSpec::lan());
    let mut sink = TrapSink::bind(&mut s.net, station).unwrap();
    let plane_link = s.inter_broker_link(0, 1).unwrap();
    let plane = s
        .attach_broker_qdisc(0, 1, QdiscConfig::for_rate(8_000_000))
        .unwrap();
    assert!(s
        .attach_broker_qdisc(0, 2, QdiscConfig::for_rate(1))
        .is_none());

    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .unwrap();
    h.debug(&s.wireless_join("mobile", 30.0, 100.0).unwrap().modality);

    let mut latest = Latest::default();
    latest.all(&mut h, s.adapt_all());
    let scene = synthetic_scene(64, 64, 1, 3, 7);
    let mut objects = vec![s.share_image(publisher, &scene, IMAGES).unwrap()];
    h.num(s.pump(Ticks::from_millis(300)).len() as u64);
    digest_broker_rows(&mut h, &mut s, plane_link.0);

    // Cut brokers 1–2: domain 2's traffic waits in custody at broker 1.
    let cut = s.inter_broker_link(1, 2).unwrap();
    s.net.topology_mut().set_link_up(cut, false);
    for k in 0..3 {
        s.share_chat(publisher, &format!("text {k}"), TEXT).unwrap();
        s.share_chat(publisher, &format!("chat {k}"), CHAT).unwrap();
    }
    let small = synthetic_scene(32, 32, 1, 2, 8);
    objects.push(s.share_image(publisher, &small, IMAGES).unwrap());
    h.num(s.pump(Ticks::from_millis(100)).len() as u64);
    assert_eq!(s.client(viewer).chat.log.len(), 0, "held behind the cut");
    assert!(s.store_stats(1).unwrap().stored_bundles() > 0);
    digest_broker_rows(&mut h, &mut s, plane_link.0);
    let alerts = s.service_store_alerts(station);
    assert!(alerts > 0, "a store crossed its watermark");
    h.num(alerts as u64);
    h.num(s.service_store_alerts(station) as u64);
    s.pump(Ticks::from_millis(10));
    h.num(sink.service(&mut s.net) as u64);

    // Heal: custody drains in order.
    s.net.topology_mut().set_link_up(cut, true);
    h.num(s.pump(Ticks::from_millis(400)).len() as u64);
    assert_eq!(s.client(viewer).chat.log.len(), 3, "drained after the heal");
    digest_broker_rows(&mut h, &mut s, plane_link.0);
    h.num(s.service_store_alerts(station) as u64);

    let board = s.new_object_id();
    objects.push(board);
    h.num(
        s.share_stroke(viewer, board, vec![(4, 4), (5, 6)], 3, "true")
            .unwrap(),
    );
    h.debug(&s.request_lock(viewer, board, "true").unwrap());
    s.pump(Ticks::from_millis(200));
    h.debug(&s.request_lock(publisher, board, "true").unwrap());
    s.pump(Ticks::from_millis(200));
    s.release_lock(viewer, board, "true").unwrap();
    s.pump(Ticks::from_millis(200));

    let scene = synthetic_scene(64, 64, 1, 3, 9);
    h.debug(&s.wireless_contribute("mobile", &scene, IMAGES).unwrap());
    h.num(s.pump(Ticks::from_millis(400)).len() as u64);
    latest.all(&mut h, s.adapt_all());

    digest_session(&mut h, &s, &objects, &latest);
    digest_traps(&mut h, &sink);
    digest_broker_rows(&mut h, &mut s, plane_link.0);
    for i in 0..3 {
        let b = s.overlay().unwrap().stats(i);
        h.num(b.forwarded());
        h.num(b.suppressed());
        h.num(b.local_suppressed());
        let st = s.store_stats(i).unwrap();
        h.num(st.stored_bundles());
        h.num(st.custody_transfers());
    }
    h.num(plane.drops.load(std::sync::atomic::Ordering::Relaxed));
    h.debug(&s.net.qdisc_stats(plane_link));
    h.0
}

#[test]
fn flat_session_digest_is_pinned() {
    let got = flat_digest();
    assert_eq!(got, FLAT_DIGEST, "got {got:#018x}");
}

#[test]
fn brokered_session_digest_is_pinned() {
    let got = brokered_digest();
    assert_eq!(got, BROKERED_DIGEST, "got {got:#018x}");
}
