//! Broker-overlay integration suite (CI job `broker`): content-based
//! routing over multi-broker topologies, covering-based suppression,
//! figure bit-identity between flat and brokered sessions, robustness
//! of the advertisement protocol under link faults, the two hazards of
//! flooding deltas (un-covering by replacement, loss without resend),
//! what a join costs, as counts of datagrams and BFS sweeps, and what a
//! message costs the session's selector store: one lookup per buffer,
//! brokers and the gateway included. A flood of advertisements with
//! never-repeating attributes cannot grow a store's profile classes
//! past their bounds, and routing over what it left unclassed is still
//! the per-advertisement evaluation.

use collabqos::broker::Overlay;
use collabqos::core::experiments::{run_fig10, run_fig10_brokered, run_fig6, run_fig7};
use collabqos::prelude::*;
use collabqos::sempubsub::BusEndpoint;
use collabqos::simnet::packet::well_known;
use collabqos::simnet::qdisc::{QdiscConfig, TrafficClass};
use collabqos::simnet::{Addr, FaultAction, FaultPlan, Network, Port};
use std::collections::BTreeMap;

fn topic_profile(name: &str, topics: &[&str]) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(topics.iter().map(|t| AttrValue::str(t)).collect()),
    );
    p
}

fn engine() -> collabqos::prelude::InferenceEngine {
    InferenceEngine::new(PolicyDb::new(), QosContract::default())
}

/// Attach one endpoint to domain `d` of a raw overlay: advertise the
/// profile, join the domain group, and settle the flood.
fn join_domain(net: &mut Network, ov: &mut Overlay, d: usize, profile: Profile) -> BusEndpoint {
    let node = net.add_node(&profile.name.clone());
    net.connect(ov.node(d), node, LinkSpec::lan());
    ov.register_local(net, d, &profile);
    let bus = BusEndpoint::join(net, node, well_known::SESSION_DATA, ov.group(d), profile)
        .expect("endpoint joins");
    ov.settle(net);
    bus
}

/// Origins broker `i` has learnt from neighbor broker `from`, in
/// arrival order.
fn learnt_origins(ov: &Overlay, i: usize, from: usize) -> Vec<&str> {
    let table = ov.advertisements(i, Some(from));
    table.iter().map(|a| a.origin.as_str()).collect()
}

fn accepted_bodies(net: &mut Network, bus: &mut BusEndpoint) -> Vec<Vec<u8>> {
    let raw = bus.drain_raw(net);
    bus.interpret_batch(raw)
        .into_iter()
        .map(|d| d.message.body().to_vec())
        .collect()
}

// ---------------------------------------------------------- suppression

/// The acceptance scenario: 3 domains x 3 clients with domain-local
/// interests. Domain-local traffic dominates, so >= 50% of all
/// per-interface routing decisions at the brokers are suppressions —
/// those messages never reach uninterested domains at all.
#[test]
fn three_domain_scenario_suppresses_at_least_half_of_messages() {
    let mut net = Network::new(4242);
    let mut ov = Overlay::new();
    for i in 0..3 {
        ov.add_broker(&mut net, &format!("b{i}"));
    }
    ov.connect(&mut net, 0, 1, LinkSpec::lan());
    ov.connect(&mut net, 1, 2, LinkSpec::lan());

    // Per domain: one publisher and two subscribers interested only in
    // the domain's own topic (plus the session-wide "all" channel).
    let mut pubs = Vec::new();
    let mut subs = Vec::new();
    for d in 0..3usize {
        let topic = format!("d{d}");
        pubs.push(join_domain(
            &mut net,
            &mut ov,
            d,
            topic_profile(&format!("pub{d}"), &[&topic, "all"]),
        ));
        for k in 0..2 {
            subs.push((
                d,
                join_domain(
                    &mut net,
                    &mut ov,
                    d,
                    topic_profile(&format!("sub{d}{k}"), &[&topic, "all"]),
                ),
            ));
        }
    }

    // 5 domain-local messages per publisher, then 1 broadcast each.
    for (d, bus) in pubs.iter_mut().enumerate() {
        for n in 0..5 {
            bus.publish(
                &mut net,
                "chat",
                &format!("interested_in contains 'd{d}'"),
                BTreeMap::new(),
                format!("local {d}/{n}").into_bytes(),
            )
            .expect("publishes");
        }
        bus.publish(
            &mut net,
            "chat",
            "interested_in contains 'all'",
            BTreeMap::new(),
            format!("broadcast {d}").into_bytes(),
        )
        .expect("publishes");
    }
    ov.pump(&mut net, Ticks::from_millis(200));

    // Every subscriber saw its 5 local messages + 3 broadcasts.
    for (d, bus) in subs.iter_mut() {
        let got = accepted_bodies(&mut net, bus);
        assert_eq!(got.len(), 8, "domain {d} subscriber delivery count");
    }

    let (mut suppressed, mut forwarded) = (0u64, 0u64);
    for i in 0..3 {
        suppressed += ov.stats(i).suppressed();
        forwarded += ov.stats(i).forwarded();
    }
    let total = suppressed + forwarded;
    assert!(total > 0);
    let ratio = suppressed as f64 / total as f64;
    assert!(
        ratio >= 0.5,
        "covering must suppress >= 50% of routing decisions: \
         suppressed {suppressed} / total {total} = {ratio:.2}"
    );
    // Domain-local traffic never transited an inter-broker link.
    assert_eq!(
        ov.stats(0).dedup_dropped() + ov.stats(1).dedup_dropped() + ov.stats(2).dedup_dropped(),
        0,
        "chain topology produces no duplicate paths"
    );
}

// ------------------------------------------------- flat comparability

/// Flat and brokered sessions deliver the same content, and what a
/// flat endpoint decoded-and-rejected shows up at the brokered
/// transit-domain endpoint as `suppressed` instead: `rejected_flat ==
/// rejected_brokered + suppressed_brokered`, with identical `accepted`
/// everywhere.
#[test]
fn brokered_rejections_become_suppressions() {
    let run = |domains: Option<usize>| {
        let mut s = CollaborationSession::new(SessionConfig {
            seed: 77,
            domains,
            ..SessionConfig::default()
        });
        let publisher = s
            .add_wired_client(
                topic_profile("publisher", &["image", "text"]),
                engine(),
                SimHost::idle("publisher"),
            )
            .unwrap();
        // In brokered mode round-robin places these in domains 1 and 2:
        // the texter sits on the transit broker of the 0-1-2 chain.
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
        let scene = synthetic_scene(64, 64, 1, 3, 5);
        s.share_image(publisher, &scene, "interested_in contains 'image'")
            .unwrap();
        s.share_chat(publisher, "hello", "interested_in contains 'text'")
            .unwrap();
        s.pump(Ticks::from_millis(300));
        let stats = |id: usize| s.client(id).bus.stats();
        (
            stats(texter),
            stats(viewer),
            s.client(viewer).chat.log.len(),
            s.client(texter).chat.log.len(),
        )
    };

    let (flat_texter, flat_viewer, _, flat_chat) = run(None);
    let (brk_texter, brk_viewer, viewer_chat, brk_chat) = run(Some(3));

    assert_eq!(brk_chat, flat_chat, "texter still gets the chat line");
    assert_eq!(viewer_chat, 0, "viewer profile filters chat in both modes");
    assert_eq!(brk_viewer.accepted, flat_viewer.accepted);
    assert_eq!(brk_texter.accepted, flat_texter.accepted);
    // The 17 image messages (meta + 16 packets) the flat texter decoded
    // and rejected were routed away before its broker's domain.
    assert!(flat_texter.rejected >= 17);
    assert_eq!(
        flat_texter.rejected,
        brk_texter.rejected + brk_texter.suppressed,
        "flat rejections must reappear as broker suppressions"
    );
    assert!(brk_texter.suppressed >= 17);
}

// ------------------------------------------------- figure bit-identity

/// A Fig 6/7 session at `seed` with `workers` threads, flat or over a
/// 3-broker overlay.
fn viewer_cfg(seed: u64, workers: usize, domains: Option<usize>) -> SessionConfig {
    SessionConfig {
        seed,
        workers,
        domains,
        ..SessionConfig::default()
    }
}

#[test]
fn brokered_fig6_bit_identical_to_flat() {
    let flat = run_fig6(viewer_cfg(7, 1, None));
    assert_eq!(run_fig6(viewer_cfg(7, 1, Some(3))), flat, "workers 1");
    assert_eq!(run_fig6(viewer_cfg(7, 4, Some(3))), flat, "workers 4");
}

#[test]
fn brokered_fig7_bit_identical_to_flat() {
    let flat = run_fig7(viewer_cfg(42, 1, None));
    assert_eq!(run_fig7(viewer_cfg(42, 1, Some(3))), flat, "workers 1");
    assert_eq!(run_fig7(viewer_cfg(42, 4, Some(3))), flat, "workers 4");
}

#[test]
fn brokered_fig10_bit_identical_to_flat() {
    let flat = run_fig10();
    for workers in [1usize, 4] {
        let brokered = run_fig10_brokered(workers);
        assert_eq!(brokered.series, flat.series, "workers {workers}");
        assert_eq!(brokered.a_sir_by_count, flat.a_sir_by_count);
        assert_eq!(brokered.drop_on_second_join, flat.drop_on_second_join);
        assert_eq!(brokered.drop_on_third_join, flat.drop_on_third_join);
    }
}

// ---------------------------------------------------------- robustness

/// Flap an inter-broker link with the chaos harness's [`FaultPlan`]
/// while a subscriber joins: its advertisement is lost in the outage,
/// so even after the link heals its traffic stays suppressed — until
/// re-advertisement floods the tables again. Recovery must restore
/// delivery without duplicating anything (dedup ids).
#[test]
fn link_flap_readvertisement_restores_delivery_without_duplicates() {
    let seed = 9009;
    let mut net = Network::new(seed);
    let mut ov = Overlay::new();
    ov.add_broker(&mut net, "b0");
    ov.add_broker(&mut net, "b1");
    let link = ov.connect(&mut net, 0, 1, LinkSpec::lan());

    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &["image"]));

    // Schedule the outage relative to the settled clock, then advance
    // into it before the subscriber appears.
    let t0 = net.now();
    let down_at = t0 + Ticks::from_millis(10);
    let up_at = t0 + Ticks::from_millis(30);
    let plan = FaultPlan::new()
        .at(down_at, FaultAction::LinkDown(link))
        .at(up_at, FaultAction::LinkUp(link));
    let ctx = format!("seed {seed}, fault plan:\n{plan}");
    net.set_fault_plan(plan.clone());
    net.run_for(Ticks::from_millis(20));

    // Joins during the outage: the advertisement towards b0 is lost.
    let mut sub = join_domain(&mut net, &mut ov, 1, topic_profile("sub", &["image"]));

    // join_domain's settle ran the clock well past the heal; the link
    // is up again but b0's table still has no domain-1 advertisement.
    assert!(net.now() > up_at, "{ctx}");
    let before = ov.stats(0).suppressed();
    publisher
        .publish(
            &mut net,
            "chat",
            "interested_in contains 'image'",
            BTreeMap::new(),
            b"lost to the stale table".to_vec(),
        )
        .unwrap();
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(
        accepted_bodies(&mut net, &mut sub).len(),
        0,
        "stale routing table must still suppress\n{ctx}"
    );
    assert!(ov.stats(0).suppressed() > before, "{ctx}");

    // Recovery: re-flood every broker's advertisements.
    ov.readvertise(&mut net);
    ov.settle(&mut net);
    for n in 0..3 {
        publisher
            .publish(
                &mut net,
                "chat",
                "interested_in contains 'image'",
                BTreeMap::new(),
                format!("after heal {n}").into_bytes(),
            )
            .unwrap();
    }
    ov.pump(&mut net, Ticks::from_millis(100));
    let got = accepted_bodies(&mut net, &mut sub);
    assert_eq!(
        got,
        (0..3)
            .map(|n| format!("after heal {n}").into_bytes())
            .collect::<Vec<_>>(),
        "re-advertisement restores exactly-once, in-order delivery\n{ctx}"
    );
    assert_eq!(ov.stats(1).dedup_dropped(), 0, "{ctx}");
}

/// The un-cover hazard of flooding deltas. `wide` covers `narrow`
/// (same attributes, no interest against a narrower one), so broker 0
/// is only ever told about `wide`. When `wide` re-registers with other
/// attributes it stops covering — and a flood carrying just the
/// replaced entry would leave broker 0 with no advertisement an image
/// message matches. A replacement therefore re-exports the table:
/// the message `narrow` alone matches still crosses the link.
#[test]
fn replacing_a_covering_advertisement_uncovers_what_it_hid() {
    let mut net = Network::new(606);
    let mut ov = Overlay::new();
    ov.add_broker(&mut net, "b0");
    ov.add_broker(&mut net, "b1");
    ov.connect(&mut net, 0, 1, LinkSpec::lan());

    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &["none"]));
    let _wide = join_domain(&mut net, &mut ov, 1, topic_profile("wide", &["image"]));
    let mut narrow_profile = topic_profile("narrow", &["image"]);
    narrow_profile.set_interest("encoding == 'jpeg'").unwrap();
    let mut narrow = join_domain(&mut net, &mut ov, 1, narrow_profile);
    assert_eq!(learnt_origins(&ov, 0, 1), ["wide"], "covered: never sent");
    assert_eq!(ov.stats(1).adverts_merged(), 1, "one (entry, neighbor)");

    ov.register_local(&mut net, 1, &topic_profile("wide", &["text"]));
    ov.settle(&mut net);

    let jpeg: BTreeMap<String, AttrValue> =
        [("encoding".to_string(), AttrValue::str("jpeg"))].into();
    publisher
        .publish(
            &mut net,
            "chat",
            "interested_in contains 'image'",
            jpeg,
            b"only narrow matches".to_vec(),
        )
        .unwrap();
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(
        accepted_bodies(&mut net, &mut narrow),
        [b"only narrow matches".to_vec()]
    );
    assert_eq!(ov.stats(0).suppressed(), 0);
    assert_eq!(learnt_origins(&ov, 0, 1), ["wide", "narrow"]);
}

/// The contract that replaces the old flood's accidental anti-entropy:
/// an advertisement dropped on a lossy inter-broker link is *not*
/// repaired by later joins — not even by one with the same profile,
/// which the lost entry covers at its home broker — and *is* repaired
/// by `readvertise()`, after which delivery is exactly-once and in
/// order.
#[test]
fn a_lost_advertisement_is_repaired_by_readvertise_and_by_nothing_else() {
    let mut net = Network::new(707);
    let mut ov = Overlay::new();
    ov.add_broker(&mut net, "b0");
    ov.add_broker(&mut net, "b1");
    let link = ov.connect(&mut net, 0, 1, LinkSpec::lan());
    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &["none"]));

    // The subscriber joins while the link loses everything.
    let spec = net.topology().link_spec(link);
    net.topology_mut().set_link_spec(link, spec.with_loss(1.0));
    let mut sub = join_domain(&mut net, &mut ov, 1, topic_profile("sub", &["image"]));
    net.topology_mut().set_link_spec(link, spec);

    // Later joins cross the healthy link with their own entry only.
    let mut twin = join_domain(&mut net, &mut ov, 1, topic_profile("twin", &["image"]));
    let _other = join_domain(&mut net, &mut ov, 1, topic_profile("other", &["text"]));
    assert_eq!(learnt_origins(&ov, 0, 1), ["other"], "nothing was resent");
    let mut publish = |net: &mut Network, body: String| {
        publisher
            .publish(
                net,
                "chat",
                "interested_in contains 'image'",
                BTreeMap::new(),
                body.into_bytes(),
            )
            .unwrap();
    };
    publish(&mut net, "into the stale table".to_string());
    ov.pump(&mut net, Ticks::from_millis(100));
    assert!(accepted_bodies(&mut net, &mut sub).is_empty());
    assert!(accepted_bodies(&mut net, &mut twin).is_empty());
    assert_eq!(ov.stats(0).suppressed(), 1);

    ov.readvertise(&mut net);
    ov.settle(&mut net);
    for n in 0..3 {
        publish(&mut net, format!("after the sync {n}"));
    }
    ov.pump(&mut net, Ticks::from_millis(100));
    let expected: Vec<Vec<u8>> = (0..3)
        .map(|n| format!("after the sync {n}").into_bytes())
        .collect();
    assert_eq!(accepted_bodies(&mut net, &mut sub), expected);
    assert_eq!(accepted_bodies(&mut net, &mut twin), expected);
    assert_eq!(ov.stats(1).dedup_dropped(), 0);
}

// ---------------------------------------------- one lookup per buffer

/// A message buffer costs the session one selector-store lookup, made
/// by whichever party looks at it first — a broker, an endpoint or the
/// gateway — on top of the publisher's validation. Every broker hop and
/// every wireless profile at the base station reads the frame that
/// first look left on the buffer; the brokers hold no store but the
/// session's. Sharding cannot be seen in the counts.
#[test]
fn one_store_lookup_per_buffer_brokers_and_gateway_included() {
    const PUBLISHES: u64 = 90;
    let run = |workers: usize| {
        let mut s = CollaborationSession::new(SessionConfig {
            seed: 19,
            workers,
            domains: Some(3),
            ..SessionConfig::default()
        });
        let clients: Vec<usize> = (0..9)
            .map(|i| {
                let name = format!("c{i}");
                let topics = [format!("t{}", i % 4), format!("t{}", (i + 1) % 4)];
                let profile = topic_profile(&name, &[&topics[0], &topics[1]]);
                s.add_wired_client(profile, engine(), SimHost::idle(&name))
                    .expect("client joins")
            })
            .collect();
        s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
            .expect("gateway attaches");
        for (w, topic) in ["t0", "t2", "t3"].into_iter().enumerate() {
            let profile = topic_profile(&format!("w{w}"), &[topic]);
            s.wireless_join_with_profile(profile, 40.0 + 10.0 * w as f64, 100.0)
                .expect("wireless client joins");
        }
        let store = s.selector_store().stats();
        let lookups = || store.hits() + store.misses();

        let at_start = lookups();
        let mut validations = 0;
        for n in 0..PUBLISHES as usize {
            let selector = format!("interested_in contains 't{}'", n % 5);
            let before = lookups();
            s.share_chat(clients[n % clients.len()], "line", &selector)
                .expect("publishes");
            validations += lookups() - before;
            if n % 6 == 5 {
                s.pump(Ticks::from_millis(80));
            }
        }
        s.pump(Ticks::from_millis(200));
        assert_eq!(validations, PUBLISHES, "a publish validates once");
        assert_eq!(
            lookups() - at_start,
            validations + PUBLISHES,
            "workers = {workers}: one lookup per buffer on top of the publishers'"
        );

        let ov = s.overlay().expect("brokered session");
        let forwarded: u64 = (0..3).map(|i| ov.stats(i).forwarded()).sum();
        assert!(forwarded >= PUBLISHES, "only {forwarded} copies forwarded");
        for i in 0..3 {
            let broker = ov.cache_stats(i);
            assert_eq!(
                (broker.hits(), broker.misses()),
                (store.hits(), store.misses()),
                "broker {i} compiles through the session's store"
            );
        }
        let relayed = s
            .base_station
            .as_ref()
            .expect("attached")
            .downlink_log
            .len();
        assert!(relayed > 0, "the gateway relayed nothing");
        let received: Vec<_> = clients.iter().map(|&c| s.client(c).bus.stats()).collect();
        (received, relayed, store.hits(), store.misses())
    };
    assert_eq!(run(1), run(4));
}

// ------------------------------------------------ advertisement floods

/// `count` advertisements, each from a fresh origin with attributes no
/// other holds (`n`, plus `pad` bytes of filler), sent to broker 0's
/// control port from a socket on its neighbor broker 1's node — where
/// the broker accepts advertisements from — and settled.
fn flood(net: &mut Network, ov: &mut Overlay, from: u64, count: u64, pad: usize) {
    let hostile = net
        .bind(ov.node(1), Port(7_777 + from as u16 % 1_000))
        .expect("spare port on the neighbor's node");
    for chunk in (from..from + count).collect::<Vec<_>>().chunks(50) {
        for &n in chunk {
            let mut p = Profile::new(&format!("flood-{n}"));
            p.set("n", AttrValue::Int(n as i64));
            p.set("pad", AttrValue::str(&"x".repeat(pad)));
            let wire = collabqos::broker::Advertisement::from_profile(&p, n).encode();
            net.send(
                hostile,
                Addr::unicast(ov.node(0), well_known::SESSION_CTRL),
                wire,
            )
            .expect("neighbor reachable");
        }
        ov.settle(net);
    }
    net.close(hostile);
}

/// Routing over a flooded table is the per-advertisement evaluation:
/// a message published in domain 0 goes to broker 1 exactly when some
/// advertisement broker 0 learnt from it matches under `eval_map`.
fn assert_routes_as_eval_map(net: &mut Network, ov: &mut Overlay, publisher: &mut BusEndpoint) {
    use collabqos::sempubsub::{CompiledSelector, EvalStack, Interner};
    let mut stack = EvalStack::default();
    for selector in [
        "n == 3",
        "n == 1500",
        "n == 99999",
        "n and true",
        "exists(pad)",
        "false",
    ] {
        let program = CompiledSelector::compile(selector, &mut Interner::new()).unwrap();
        let wanted = ov
            .advertisements(0, Some(1))
            .iter()
            .any(|ad| ad.wildcard || program.eval_map(&ad.attrs, &mut stack) == Ok(true));
        let (forwarded, suppressed) = (ov.stats(0).forwarded(), ov.stats(0).suppressed());
        publisher
            .publish(net, "chat", selector, BTreeMap::new(), vec![])
            .unwrap();
        ov.pump(net, Ticks::from_millis(100));
        let sent = ov.stats(0).forwarded() - forwarded;
        let held = ov.stats(0).suppressed() - suppressed;
        assert_eq!(
            (sent, held),
            (u64::from(wanted), u64::from(!wanted)),
            "{selector}"
        );
    }
}

/// A flood of advertisements, each with attributes never seen before,
/// mints profile classes only until a bound: first of many small ones
/// (the class count's bound), then of a few large ones (the class
/// bytes'). Past the bound the store stops growing while the tables
/// keep every advertisement, and routing is unchanged.
#[test]
fn an_advertisement_flood_cannot_grow_the_class_table_past_its_bounds() {
    for (count, pad) in [(1_400, 0), (120, 4_000)] {
        let store = collabqos::sempubsub::SelectorStore::with_capacity(64);
        let mut net = Network::new(23);
        let mut ov = Overlay::with_store(store.clone());
        ov.add_broker(&mut net, "b0");
        ov.add_broker(&mut net, "b1");
        ov.connect(&mut net, 0, 1, LinkSpec::lan());
        let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &[]));

        flood(&mut net, &mut ov, 0, count / 2, pad);
        let half = store.classes();
        assert!(half.0 < count as usize / 2 + 2, "{half:?}");
        flood(&mut net, &mut ov, count / 2, count / 2, pad);
        let full = store.classes();
        assert_eq!(
            ov.advertisements(0, Some(1)).len(),
            count as usize,
            "every advertisement is held"
        );
        assert!(
            full.0 < count as usize,
            "{count} fresh attribute maps minted {full:?} classes"
        );
        flood(&mut net, &mut ov, count, count / 2, pad);
        assert_eq!(
            store.classes(),
            full,
            "saturated: another flood mints nothing"
        );
        assert_routes_as_eval_map(&mut net, &mut ov, &mut publisher);
    }
}

// ------------------------------------------------------ cost of a join

/// A brokered session on `event_storm`'s topic mix (24 topics, each
/// domain's clients on two slots of its own 12-topic window): the
/// control datagrams each join sent, and the session.
fn storm_session(clients: usize) -> (CollaborationSession, Vec<u64>) {
    const DOMAINS: usize = 3;
    let mut s = CollaborationSession::new(SessionConfig {
        seed: 11,
        domains: Some(DOMAINS),
        ..SessionConfig::default()
    });
    let mut per_join = Vec::new();
    for i in 0..clients {
        let (d, j) = (i % DOMAINS, i / DOMAINS);
        let a = j % 12;
        let b = (a + 1 + (j / 12) % 11) % 12;
        let name = format!("c{i}");
        let topics = [format!("t{:02}", 6 * d + a), format!("t{:02}", 6 * d + b)];
        let profile = topic_profile(&name, &[&topics[0], &topics[1]]);
        let before = s.net.stats().sent;
        s.add_wired_client(profile, engine(), SimHost::idle(&name))
            .expect("client joins");
        per_join.push(s.net.stats().sent - before);
    }
    (s, per_join)
}

/// Joining is pinned as counts, not times. A join sends a bounded
/// number of control datagrams whatever the size of its domain (at
/// most one per broker that is not its home), so set-up traffic grows
/// with the session, not with its square; and however many clients
/// publish, routing keeps one tree per broker plus the switch — never
/// one per source.
#[test]
fn a_join_costs_a_constant_and_routing_one_tree_per_broker() {
    const DOMAINS: u64 = 3;
    let (mut small, small_joins) = storm_session(60);
    let (_, large_joins) = storm_session(600);
    for joins in [&small_joins, &large_joins] {
        let worst = joins.iter().max().unwrap();
        assert!(*worst < DOMAINS, "a join sent {worst} control datagrams");
    }
    let (small_total, large_total): (u64, u64) =
        (small_joins.iter().sum(), large_joins.iter().sum());
    assert!(small_total > 0);
    assert!(
        large_total <= 12 * small_total,
        "set-up datagrams: {small_total} at 60 clients, {large_total} at 600"
    );

    let swept = small.net.topology().bfs_sweeps();
    for round in 0..50 {
        for k in 0..16 {
            let publisher = (16 * round + k) % 60;
            let selector = format!(
                "interested_in contains 't{:02}' or interested_in contains 't{:02}'",
                (round + k) % 24,
                (round + 2 * k + 1) % 24
            );
            small.share_chat(publisher, "a line", &selector).unwrap();
        }
        small.pump(Ticks::from_millis(80));
    }
    let logged: usize = (0..60).map(|c| small.client(c).chat.log.len()).sum();
    assert!(logged > 0, "the chats were delivered");
    let trees = small.net.topology().bfs_sweeps() - swept;
    assert!(trees <= DOMAINS + 1, "{trees} BFS trees for 60 publishers");
}

// ------------------------------------------------- control-plane qdisc

/// A traffic-control plane mounted on an inter-broker link classifies
/// advertisement floods as Control traffic (they ride the session
/// control port) while routed data rides the interactive media class.
#[test]
fn advertisements_ride_the_control_class_on_inter_broker_qdisc() {
    let mut net = Network::new(55);
    let mut ov = Overlay::new();
    ov.add_broker(&mut net, "b0");
    ov.add_broker(&mut net, "b1");
    let link = ov.connect(&mut net, 0, 1, LinkSpec::lan());
    net.attach_qdisc(link, QdiscConfig::for_rate(10_000_000));

    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", &["image"]));
    let mut sub = join_domain(&mut net, &mut ov, 1, topic_profile("sub", &["image"]));

    let stats = net.qdisc_stats(link).expect("qdisc mounted");
    let control = stats.class(TrafficClass::Control).dequeued;
    assert!(
        control > 0,
        "advertisement flood must cross the link in the Control class"
    );
    assert_eq!(stats.class(TrafficClass::InteractiveMedia).dequeued, 0);

    publisher
        .publish(
            &mut net,
            "chat",
            "interested_in contains 'image'",
            BTreeMap::new(),
            b"shaped data".to_vec(),
        )
        .unwrap();
    ov.pump(&mut net, Ticks::from_millis(100));
    assert_eq!(accepted_bodies(&mut net, &mut sub).len(), 1);
    let stats = net.qdisc_stats(link).expect("qdisc mounted");
    assert!(
        stats.class(TrafficClass::InteractiveMedia).dequeued > 0,
        "routed session data rides the media class"
    );
    assert_eq!(stats.drops(), 0);
}

// ------------------------------------------------- session-level wiring

/// Session-level inter-broker instrumentation: the link is reachable
/// for fault models and qdiscs, and the per-broker MIB rows served by
/// the broker agents track the live overlay counters.
#[test]
fn session_exposes_inter_broker_links_and_mib_rows() {
    use collabqos::snmp::oid::arcs;
    use collabqos::snmp::SnmpValue;

    let mut s = CollaborationSession::new(SessionConfig {
        seed: 31,
        domains: Some(3),
        ..SessionConfig::default()
    });
    let qdisc_stats = s
        .attach_broker_qdisc(0, 1, QdiscConfig::for_rate(10_000_000))
        .expect("brokers 0 and 1 are adjacent");
    assert!(s.inter_broker_link(0, 1).is_some());
    assert!(s.inter_broker_link(1, 2).is_some());
    assert!(s.inter_broker_link(0, 2).is_none(), "chain, not clique");

    let publisher = s
        .add_wired_client_in_domain(
            topic_profile("pub", &["image"]),
            engine(),
            SimHost::idle("pub"),
            0,
        )
        .unwrap();
    s.add_wired_client_in_domain(
        topic_profile("viewer", &["image"]),
        engine(),
        SimHost::idle("viewer"),
        2,
    )
    .unwrap();
    let scene = synthetic_scene(32, 32, 1, 2, 9);
    s.share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    let completed = s.pump(Ticks::from_millis(300));
    assert_eq!(completed.len(), 1, "image crosses two broker hops");

    for b in 0..3u32 {
        let table = s.broker_mib_get(b as usize, &arcs::broker_table_size(b));
        let fwd = s.broker_mib_get(b as usize, &arcs::broker_forwarded(b));
        let stats = s.overlay().unwrap().stats(b as usize);
        assert_eq!(
            table,
            Some(SnmpValue::Gauge32(stats.table_size() as u32)),
            "broker {b} tableSize row"
        );
        assert_eq!(
            fwd,
            Some(SnmpValue::Counter32(stats.forwarded() as u32)),
            "broker {b} forwarded row"
        );
    }
    assert!(
        s.overlay().unwrap().stats(1).forwarded() > 0,
        "transit broker"
    );
    // The advertisement floods crossed the instrumented 0-1 link.
    use std::sync::atomic::Ordering;
    let _ = qdisc_stats.backlog_bytes.load(Ordering::Relaxed);
    let snap = s
        .net
        .qdisc_stats(s.inter_broker_link(0, 1).unwrap())
        .unwrap();
    assert!(snap.class(TrafficClass::Control).dequeued > 0);
}
