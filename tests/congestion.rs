//! Congestion end-to-end: background cross-traffic loads the shared
//! LAN, the latency probe sees it, and the policy path reacts — the §2
//! scenario where "the network capability may change rapidly due to
//! link congestion".

use collabqos::core::probe::{EchoResponder, LatencyProbe};
use collabqos::simnet::packet::Port;
use collabqos::simnet::traffic::CbrSource;
use collabqos::simnet::{LinkSpec, Network, Ticks};

#[test]
fn probe_detects_congestion_from_cross_traffic() {
    // Star LAN with a deliberately slow spoke to the reflector.
    let measure = |congest: bool| -> f64 {
        let mut net = Network::new(21);
        let hub = net.add_node("hub");
        let client = net.add_node("client");
        let noisy = net.add_node("noisy");
        let reflector = net.add_node("reflector");
        let slow = LinkSpec::wireless().with_loss(0.0);
        net.connect(hub, client, slow);
        net.connect(hub, noisy, slow);
        net.connect(hub, reflector, slow);

        let mut probe = LatencyProbe::bind(&mut net, client, Port(9000)).unwrap();
        let mut echo = EchoResponder::bind(&mut net, reflector).unwrap();
        if congest {
            // Saturating CBR towards the reflector's link: 1500B every
            // 2ms over a 1 Mb/s link is ~6x overload.
            let mut cbr = CbrSource::new(
                &mut net,
                noisy,
                Port(3000),
                reflector,
                Port(3001),
                1500,
                Ticks::from_millis(2),
            )
            .unwrap();
            cbr.pump(&mut net, Ticks::from_millis(60));
        } else {
            net.run_until(Ticks::from_millis(60));
        }
        let report = probe.burst(&mut net, &mut echo, reflector, 4, Ticks::from_secs(3));
        assert!(report.received > 0, "probes must get through");
        report.latency_us
    };
    let clear = measure(false);
    let congested = measure(true);
    assert!(
        congested > clear * 2.0,
        "congestion must at least double measured latency: {clear:.0}us vs {congested:.0}us"
    );
}

#[test]
fn multicast_session_survives_competing_cbr() {
    use collabqos::prelude::*;

    use testkit::{Client, Scenario};

    let (mut session, ids) = Scenario {
        cfg: SessionConfig {
            link: LinkSpec::lan(),
            ..SessionConfig::default()
        },
        clients: vec![
            Client::passive("pub", &["image"]),
            Client::passive("view", &["image"]),
        ],
    }
    .build();
    let [publisher, viewer] = ids.try_into().unwrap();
    session.adapt(viewer);

    // Competing CBR between two extra nodes on the same switch.
    let n1 = session.net.add_node("cbr-src");
    let n2 = session.net.add_node("cbr-dst");
    let switch = {
        // The switch is node 0 by construction of the session LAN.
        collabqos::simnet::NodeId(0)
    };
    session.net.connect(switch, n1, LinkSpec::lan());
    session.net.connect(switch, n2, LinkSpec::lan());
    let mut cbr = CbrSource::new(
        &mut session.net,
        n1,
        Port(3000),
        n2,
        Port(3001),
        9000,
        Ticks::from_micros(800),
    )
    .unwrap();
    cbr.pump(&mut session.net, Ticks::from_millis(20));

    let scene = synthetic_scene(64, 64, 1, 3, 5);
    session
        .share_image(publisher, &scene, "interested_in contains 'image'")
        .unwrap();
    cbr.pump(&mut session.net, Ticks::from_millis(40));
    let completed = session.pump(Ticks::from_secs(2));
    let viewed = completed
        .iter()
        .find(|(c, _)| *c == viewer)
        .map(|(_, v)| v)
        .expect("image still completes under load");
    assert_eq!(viewed.image.data, scene.image.data);
    assert!(cbr.sent > 30, "cross traffic really ran: {}", cbr.sent);
}
