//! Disruption-tolerant federation suite (CI job `dtn`): the bounded
//! custody store under real partitions — store-and-drain across a
//! link outage, hop-by-hop custody transfer toward the partition
//! edge with the exactly-one-owner invariant, refused transfers
//! keeping custody upstream, session-level MIB rows and
//! `qosStoreAlert` traps, and behavioural identity between a
//! custody-enabled session with no partitions and one with the store
//! disabled.

use collabqos::broker::Overlay;
use collabqos::dtn::StoreConfig;
use collabqos::prelude::*;
use collabqos::sempubsub::BusEndpoint;
use collabqos::simnet::packet::well_known;
use collabqos::simnet::Network;
use collabqos::snmp::oid::arcs;
use collabqos::snmp::transport::TrapSink;
use collabqos::snmp::SnmpValue;
use std::collections::BTreeMap;

fn topic_profile(name: &str, topics: &[&str]) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(topics.iter().map(|t| AttrValue::str(t)).collect()),
    );
    p
}

fn engine() -> InferenceEngine {
    InferenceEngine::new(
        collabqos::core::policy::PolicyDb::new(),
        QosContract::default(),
    )
}

fn join_domain(net: &mut Network, ov: &mut Overlay, d: usize, profile: Profile) -> BusEndpoint {
    let node = net.add_node(&profile.name.clone());
    net.connect(ov.node(d), node, LinkSpec::lan());
    ov.register_local(net, d, &profile);
    let bus = BusEndpoint::join(net, node, well_known::SESSION_DATA, ov.group(d), profile)
        .expect("endpoint joins");
    ov.settle(net);
    bus
}

fn accepted_bodies(net: &mut Network, bus: &mut BusEndpoint) -> Vec<Vec<u8>> {
    let raw = bus.drain_raw(net);
    bus.interpret_batch(raw)
        .into_iter()
        .map(|d| d.message.body().to_vec())
        .collect()
}

fn publish_n(net: &mut Network, bus: &mut BusEndpoint, selector: &str, n: usize) {
    for k in 0..n {
        bus.publish(
            net,
            "chat",
            selector,
            BTreeMap::new(),
            format!("msg {k}").into_bytes(),
        )
        .expect("publishes");
    }
}

fn expected_bodies(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|k| format!("msg {k}").into_bytes()).collect()
}

// --------------------------------------------- hop-by-hop custody

/// A 4-broker chain with the two far links down: bundles park at the
/// deepest reachable broker, then chase the partition edge hop by hop
/// as links heal — with exactly one broker owning each undelivered
/// bundle after every stage, and exactly-once in-order delivery at
/// the end.
#[test]
fn custody_moves_hop_by_hop_toward_the_partition_edge() {
    let mut net = Network::new(1801);
    let mut ov = Overlay::new();
    ov.enable_custody(StoreConfig {
        retry_after: Ticks::from_millis(10),
        ..StoreConfig::default()
    });
    for i in 0..4 {
        ov.add_broker(&mut net, &format!("b{i}"));
    }
    let _l01 = ov.connect(&mut net, 0, 1, LinkSpec::lan());
    let l12 = ov.connect(&mut net, 1, 2, LinkSpec::lan());
    let l23 = ov.connect(&mut net, 2, 3, LinkSpec::lan());

    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &["local"]));
    let mut sub = join_domain(&mut net, &mut ov, 3, topic_profile("sub", &["remote"]));

    let stored = |ov: &Overlay, i: usize| ov.custody_store(i).map_or(0, |s| s.len());
    let total_stored = |ov: &Overlay| {
        (0..4)
            .map(|i| ov.custody_store(i).map_or(0, |s| s.len()))
            .sum::<usize>()
    };

    // Partition the far half of the chain, then publish into it.
    net.topology_mut().set_link_up(l12, false);
    net.topology_mut().set_link_up(l23, false);
    publish_n(
        &mut net,
        &mut publisher,
        "interested_in contains 'remote'",
        3,
    );
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(stored(&ov, 1), 3, "bundles park at the partition edge");
    assert_eq!(total_stored(&ov), 3, "exactly one owner per bundle");
    assert_eq!(accepted_bodies(&mut net, &mut sub).len(), 0);

    // First heal: custody transfers one hop deeper, ownership moves.
    net.topology_mut().set_link_up(l12, true);
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(stored(&ov, 1), 0, "upstream released after accept");
    assert_eq!(stored(&ov, 2), 3, "downstream edge took custody");
    assert_eq!(total_stored(&ov), 3, "exactly one owner per bundle");
    assert_eq!(ov.store_stats(1).unwrap().custody_transfers(), 3);
    assert_eq!(
        accepted_bodies(&mut net, &mut sub).len(),
        0,
        "still cut off"
    );

    // Second heal: the edge broker drains to the destination domain.
    net.topology_mut().set_link_up(l23, true);
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(
        accepted_bodies(&mut net, &mut sub),
        expected_bodies(3),
        "exactly-once, in-order delivery after the staged heals"
    );
    assert_eq!(total_stored(&ov), 0, "every store drained");
    assert_eq!(ov.store_stats(2).unwrap().custody_transfers(), 3);
    assert_eq!(ov.store_stats(0).unwrap().custody_refused(), 0);
}

// --------------------------------------------- refused transfers

/// A transfer the downstream broker cannot take (its quota is a
/// fraction of one bundle) is refused, so the upstream broker keeps
/// custody and retries — and once the rest of the path heals the
/// downstream broker forwards instead of storing, accepts, and the
/// message still arrives exactly once.
#[test]
fn refused_transfer_keeps_custody_upstream_until_the_path_heals() {
    let mut net = Network::new(1802);
    let mut ov = Overlay::new();
    ov.enable_custody(StoreConfig {
        retry_after: Ticks::from_millis(10),
        ..StoreConfig::default()
    });
    for i in 0..3 {
        ov.add_broker(&mut net, &format!("b{i}"));
    }
    let l01 = ov.connect(&mut net, 0, 1, LinkSpec::lan());
    let l12 = ov.connect(&mut net, 1, 2, LinkSpec::lan());
    // The middle broker can hold far less than one bundle.
    ov.set_store_config(
        1,
        StoreConfig {
            max_bytes: 16,
            retry_after: Ticks::from_millis(10),
            ..StoreConfig::default()
        },
    );

    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &["local"]));
    let mut sub = join_domain(&mut net, &mut ov, 2, topic_profile("sub", &["remote"]));

    // Cut the whole path, publish, and confirm custody sits at b0.
    net.topology_mut().set_link_up(l01, false);
    net.topology_mut().set_link_up(l12, false);
    publish_n(
        &mut net,
        &mut publisher,
        "interested_in contains 'remote'",
        1,
    );
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(ov.custody_store(0).unwrap().len(), 1);

    // Heal only the first hop: b1 would have to store (b2 is still
    // unreachable) but its quota cannot fit the bundle, so it refuses
    // and b0 keeps custody across every retry.
    net.topology_mut().set_link_up(l01, true);
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(
        ov.custody_store(0).unwrap().len(),
        1,
        "custody stays upstream"
    );
    assert_eq!(ov.custody_store(1).unwrap().len(), 0);
    assert!(ov.store_stats(0).unwrap().custody_refused() >= 1);
    assert_eq!(ov.store_stats(0).unwrap().custody_transfers(), 0);
    assert_eq!(accepted_bodies(&mut net, &mut sub).len(), 0);

    // Heal the second hop: the re-offered bundle now forwards straight
    // through b1 (nothing to store), b0 is released, and the
    // subscriber sees the message exactly once.
    net.topology_mut().set_link_up(l12, true);
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(accepted_bodies(&mut net, &mut sub), expected_bodies(1));
    assert_eq!(ov.custody_store(0).unwrap().len(), 0);
    assert_eq!(ov.custody_store(1).unwrap().len(), 0);
    assert_eq!(ov.store_stats(0).unwrap().custody_transfers(), 1);
}

// --------------------------------------------- session-level wiring

/// The full management story over a session partition: `tassl.23` MIB
/// rows served by the broker agents track the live store, the
/// `qosStoreAlert` trap fires once when stored bytes cross the
/// high-watermark, and healing drains to exactly-once in-order chat
/// delivery.
#[test]
fn session_store_rows_alerts_and_drain_across_partition() {
    let mut s = CollaborationSession::new(SessionConfig {
        seed: 1803,
        domains: Some(2),
        custody: Some(StoreConfig {
            // Small quota, 1% watermark: 3 chat bundles (~450 bytes)
            // comfortably cross the ~82-byte alert threshold while
            // staying far below the 8 KiB eviction quota.
            max_bytes: 8192,
            high_watermark_pct: 1,
            ..StoreConfig::default()
        }),
        ..SessionConfig::default()
    });
    let publisher = s
        .add_wired_client_in_domain(
            topic_profile("pub", &["image"]),
            engine(),
            SimHost::idle("pub"),
            0,
        )
        .unwrap();
    let texter = s
        .add_wired_client_in_domain(
            topic_profile("texter", &["text"]),
            engine(),
            SimHost::idle("texter"),
            1,
        )
        .unwrap();
    // A management station peered with broker 0 collects store traps.
    let b0_node = s.overlay().unwrap().node(0);
    let station = s.net.add_node("station");
    s.net.connect(station, b0_node, LinkSpec::lan());
    let mut sink = TrapSink::bind(&mut s.net, station).unwrap();

    let link = s.inter_broker_link(0, 1).unwrap();
    s.net.topology_mut().set_link_up(link, false);
    for k in 0..3 {
        s.share_chat(
            publisher,
            &format!("line {k}"),
            "interested_in contains 'text'",
        )
        .unwrap();
    }
    s.pump(Ticks::from_millis(100));

    // Nothing delivered; the store holds all three and the MIB agrees.
    assert_eq!(s.client(texter).chat.log.len(), 0);
    let stats = s.store_stats(0).unwrap();
    assert_eq!(stats.stored_bundles(), 3);
    assert_eq!(
        s.broker_mib_get(0, &arcs::store_bundles(0)),
        Some(SnmpValue::Gauge32(3)),
        "storedBundles row tracks the live store"
    );
    assert_eq!(
        s.broker_mib_get(0, &arcs::store_bytes(0)),
        Some(SnmpValue::Gauge32(stats.stored_bytes() as u32))
    );
    // High-watermark crossing: exactly one trap, edge-triggered.
    assert_eq!(s.service_store_alerts(station), 1);
    assert_eq!(s.service_store_alerts(station), 0, "edge-triggered");
    s.pump(Ticks::from_millis(10));
    assert_eq!(sink.service(&mut s.net), 1);
    assert_eq!(
        sink.traps[0].pdu.varbinds[1].value,
        SnmpValue::Oid(collabqos::core::trapwatch::qos_store_alert_trap_oid())
    );

    // Heal: the store drains through the normal forward path.
    s.net.topology_mut().set_link_up(link, true);
    s.pump(Ticks::from_millis(200));
    assert_eq!(
        s.client(texter)
            .chat
            .log
            .iter()
            .map(|(_, line)| line.clone())
            .collect::<Vec<_>>(),
        vec!["line 0", "line 1", "line 2"],
        "exactly-once, in-order chat delivery after the heal"
    );
    let stats = s.store_stats(0).unwrap();
    assert_eq!(stats.stored_bundles(), 0);
    assert_eq!(stats.custody_transfers(), 3);
    assert_eq!(
        s.broker_mib_get(0, &arcs::store_bundles(0)),
        Some(SnmpValue::Gauge32(0)),
        "gauge follows the drain"
    );
    assert_eq!(
        s.broker_mib_get(0, &arcs::store_custody_transfers(0)),
        Some(SnmpValue::Counter32(3))
    );
    assert_eq!(s.service_store_alerts(station), 0, "drained: no re-alert");
}

// --------------------------------------------- behavioural identity

/// With no partitions, a custody-enabled session behaves exactly like
/// one with the store disabled: same deliveries, same client bus
/// stats, and the store never sees a single bundle.
#[test]
fn custody_enabled_session_is_identical_without_partitions() {
    let run = |custody: Option<StoreConfig>| {
        let mut s = CollaborationSession::new(SessionConfig {
            seed: 1804,
            domains: Some(3),
            custody,
            ..SessionConfig::default()
        });
        let publisher = s
            .add_wired_client(
                topic_profile("pub", &["image", "text"]),
                engine(),
                SimHost::idle("pub"),
            )
            .unwrap();
        let texter = s
            .add_wired_client(
                topic_profile("texter", &["text"]),
                engine(),
                SimHost::idle("texter"),
            )
            .unwrap();
        let viewer = s
            .add_wired_client(
                topic_profile("viewer", &["image"]),
                engine(),
                SimHost::idle("viewer"),
            )
            .unwrap();
        let scene = synthetic_scene(48, 48, 1, 2, 11);
        s.share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        s.share_chat(publisher, "hello", "interested_in contains 'text'")
            .unwrap();
        let completed = s.pump(Ticks::from_millis(300));
        let stored: u64 = (0..3)
            .filter_map(|i| s.store_stats(i))
            .map(|st| st.stored_bundles() + st.custody_transfers() + st.evicted())
            .sum();
        (
            completed.len(),
            s.client(texter).bus.stats(),
            s.client(viewer).bus.stats(),
            s.client(texter).chat.log.clone(),
            stored,
        )
    };

    let disabled = run(None);
    let enabled = run(Some(StoreConfig::default()));
    assert_eq!(enabled.0, disabled.0, "images completed");
    assert_eq!(enabled.1, disabled.1, "texter bus stats");
    assert_eq!(enabled.2, disabled.2, "viewer bus stats");
    assert_eq!(enabled.3, disabled.3, "chat log");
    assert_eq!(enabled.4, 0, "no partition: the store never engages");
}
