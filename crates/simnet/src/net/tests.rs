use super::*;
use crate::packet::MAX_DATAGRAM;
use crate::topology::LinkId;

fn pair() -> (Network, SocketHandle, SocketHandle, NodeId, NodeId) {
    let mut net = Network::new(42);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect(a, b, LinkSpec::lan());
    let sa = net.bind(a, Port(1000)).unwrap();
    let sb = net.bind(b, Port(1000)).unwrap();
    (net, sa, sb, a, b)
}

#[test]
fn unicast_delivery_and_latency() {
    let (mut net, sa, sb, _a, b) = pair();
    net.send(sa, Addr::unicast(b, Port(1000)), vec![1, 2, 3])
        .unwrap();
    assert!(net.recv(sb).is_none(), "not delivered before time passes");
    net.run_for(Ticks::from_millis(1));
    let d = net.recv(sb).unwrap();
    assert_eq!(d.payload, vec![1, 2, 3]);
    // LAN: 100us latency + serialization of 31 bytes at 100 Mb/s (~3us)
    assert!(d.arrived_at >= Ticks::from_micros(100));
    assert!(d.arrived_at <= Ticks::from_micros(110));
}

#[test]
fn send_batch_unicast_delivers_all_in_order() {
    let (mut net, sa, sb, _a, b) = pair();
    let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 3]).collect();
    let copies = net
        .send_batch(sa, Addr::unicast(b, Port(1000)), payloads.clone())
        .unwrap();
    assert_eq!(copies, 5);
    net.run_to_quiescence();
    for want in &payloads {
        assert_eq!(&net.recv(sb).unwrap().payload, want);
    }
    assert!(net.recv(sb).is_none());
    assert_eq!(net.stats().sent, 5, "one send per payload, as serial");
}

#[test]
fn send_batch_multicast_reaches_every_member() {
    let mut net = Network::new(1);
    let hub = net.add_node("hub");
    let group = net.new_group();
    let mut members = Vec::new();
    for i in 0..3 {
        let n = net.add_node(&format!("m{i}"));
        net.connect(hub, n, LinkSpec::lan());
        let s = net.bind(n, Port(2000)).unwrap();
        net.join(s, group).unwrap();
        members.push(s);
    }
    let sender = net.bind(hub, Port(2000)).unwrap();
    net.join(sender, group).unwrap();
    let payloads: Vec<Vec<u8>> = (0u8..4).map(|i| vec![i]).collect();
    let copies = net
        .send_batch(sender, Addr::multicast(group, Port(2000)), payloads.clone())
        .unwrap();
    assert_eq!(copies, 12, "4 payloads x 3 members (no loopback)");
    net.run_to_quiescence();
    for s in members {
        for want in &payloads {
            assert_eq!(&net.recv(s).unwrap().payload, want, "in-order per member");
        }
        assert!(net.recv(s).is_none());
    }
}

#[test]
fn double_bind_rejected() {
    let (mut net, _sa, _sb, a, _b) = pair();
    assert!(matches!(
        net.bind(a, Port(1000)),
        Err(NetError::PortInUse(_, _))
    ));
}

#[test]
fn send_to_unbound_port_is_silently_dropped() {
    let (mut net, sa, sb, _a, b) = pair();
    net.send(sa, Addr::unicast(b, Port(9)), vec![0]).unwrap();
    net.run_to_quiescence();
    assert!(net.recv(sb).is_none());
    assert_eq!(net.stats().sent, 1);
    assert_eq!(net.stats().delivered, 0);
}

#[test]
fn unreachable_destination_errors() {
    let mut net = Network::new(0);
    let a = net.add_node("a");
    let b = net.add_node("b"); // not connected
    let sa = net.bind(a, Port(1)).unwrap();
    let _sb = net.bind(b, Port(1)).unwrap();
    assert!(matches!(
        net.send(sa, Addr::unicast(b, Port(1)), vec![]),
        Err(NetError::Unreachable(_, _))
    ));
}

#[test]
fn oversized_payload_rejected() {
    let (mut net, sa, _sb, _a, b) = pair();
    let big = vec![0u8; MAX_DATAGRAM + 1];
    assert!(matches!(
        net.send(sa, Addr::unicast(b, Port(1000)), big),
        Err(NetError::PayloadTooLarge(_))
    ));
}

#[test]
fn multicast_fanout_excludes_sender() {
    let mut net = Network::new(3);
    let (_sw, hosts) = net.lan(&["h0", "h1", "h2", "h3"], LinkSpec::lan());
    let socks: Vec<_> = hosts
        .iter()
        .map(|&h| net.bind(h, Port(7000)).unwrap())
        .collect();
    let g = net.new_group();
    for &s in &socks {
        net.join(s, g).unwrap();
    }
    net.send(socks[0], Addr::multicast(g, Port(7000)), b"ev".to_vec())
        .unwrap();
    net.run_to_quiescence();
    assert_eq!(net.pending(socks[0]), 0, "no loopback");
    for &s in &socks[1..] {
        assert_eq!(net.pending(s), 1);
    }
}

#[test]
fn multicast_respects_membership() {
    let mut net = Network::new(3);
    let (_sw, hosts) = net.lan(&["h0", "h1", "h2"], LinkSpec::lan());
    let socks: Vec<_> = hosts
        .iter()
        .map(|&h| net.bind(h, Port(7000)).unwrap())
        .collect();
    let g = net.new_group();
    net.join(socks[0], g).unwrap();
    net.join(socks[1], g).unwrap();
    // socks[2] never joins; socks[1] joins then leaves.
    net.join(socks[2], g).unwrap();
    net.leave(socks[2], g).unwrap();
    net.send(socks[0], Addr::multicast(g, Port(7000)), vec![9])
        .unwrap();
    net.run_to_quiescence();
    assert_eq!(net.pending(socks[1]), 1);
    assert_eq!(net.pending(socks[2]), 0);
}

#[test]
fn lossy_link_drops_a_fraction() {
    let mut net = Network::new(1234);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect(a, b, LinkSpec::lan().with_loss(0.5));
    let sa = net.bind(a, Port(1)).unwrap();
    let sb = net.bind(b, Port(1)).unwrap();
    for _ in 0..1000 {
        net.send(sa, Addr::unicast(b, Port(1)), vec![0]).unwrap();
    }
    net.run_to_quiescence();
    let got = net.pending(sb) as f64;
    assert!((350.0..650.0).contains(&got), "got {got}, expected ~500");
    assert_eq!(net.stats().dropped + net.stats().delivered, 1000);
}

#[test]
fn identical_seeds_identical_runs() {
    let run = |seed: u64| -> (u64, u64) {
        let mut net = Network::new(seed);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, LinkSpec::wireless().with_loss(0.3));
        let sa = net.bind(a, Port(1)).unwrap();
        let _sb = net.bind(b, Port(1)).unwrap();
        for _ in 0..200 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0; 64])
                .unwrap();
        }
        net.run_to_quiescence();
        (net.stats().delivered, net.stats().dropped)
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99).0, 200); // some loss actually happened
}

#[test]
fn serialization_queueing_orders_arrivals() {
    // Two back-to-back packets on a slow link: second arrives later
    // by at least one serialization time.
    let mut net = Network::new(0);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect(a, b, LinkSpec::wireless().with_loss(0.0));
    let sa = net.bind(a, Port(1)).unwrap();
    let sb = net.bind(b, Port(1)).unwrap();
    net.send(sa, Addr::unicast(b, Port(1)), vec![0; 972])
        .unwrap(); // 1000 wire bytes
    net.send(sa, Addr::unicast(b, Port(1)), vec![1; 972])
        .unwrap();
    net.run_to_quiescence();
    let d1 = net.recv(sb).unwrap();
    let d2 = net.recv(sb).unwrap();
    let ser = Ticks::from_micros(8_000); // 1000B at 1 Mb/s
    assert_eq!(d2.arrived_at - d1.arrived_at, ser);
}

#[test]
fn link_utilization_accounts_serialization() {
    let mut net = Network::new(0);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let l = net.connect(a, b, LinkSpec::wireless().with_loss(0.0));
    let sa = net.bind(a, Port(1)).unwrap();
    let _sb = net.bind(b, Port(1)).unwrap();
    assert_eq!(net.topology().link_busy_time(l), Ticks::ZERO);
    // 972 + 28 = 1000 wire bytes at 1 Mb/s = 8 ms serialization.
    net.send(sa, Addr::unicast(b, Port(1)), vec![0; 972])
        .unwrap();
    assert_eq!(net.topology().link_busy_time(l), Ticks::from_millis(8));
    net.run_until(Ticks::from_millis(16));
    let u = net.topology().link_utilization(l, net.now());
    assert!((u - 0.5).abs() < 1e-9, "8ms busy of 16ms = 50%, got {u}");
}

#[test]
fn timers_fire_in_order() {
    let mut net = Network::new(0);
    net.set_timer(Ticks::from_millis(5), 55);
    net.set_timer(Ticks::from_millis(1), 11);
    net.run_for(Ticks::from_millis(2));
    assert_eq!(net.poll_timers(), vec![(Ticks::from_millis(1), 11)]);
    net.run_for(Ticks::from_millis(10));
    assert_eq!(net.poll_timers(), vec![(Ticks::from_millis(5), 55)]);
}

#[test]
fn inert_fault_model_changes_nothing() {
    use crate::faults::FaultModel;
    let run = |fault: Option<FaultModel>| -> (NetStats, Vec<Ticks>) {
        let mut net = Network::new(7);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.connect(a, b, LinkSpec::wireless().with_loss(0.2));
        net.topology_mut().set_link_fault(l, fault);
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        for _ in 0..300 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0; 100])
                .unwrap();
        }
        net.run_to_quiescence();
        let mut arrivals = Vec::new();
        while let Some(d) = net.recv(sb) {
            arrivals.push(d.arrived_at);
        }
        (net.stats(), arrivals)
    };
    // Attaching the all-zero model must be bit-identical to no model:
    // the RNG stream is untouched because zero-rate draws are skipped.
    assert_eq!(run(None), run(Some(FaultModel::none())));
}

#[test]
fn burst_loss_drops_in_bursts() {
    use crate::faults::{FaultModel, GilbertElliott};
    let mut net = Network::new(5);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let l = net.connect(a, b, LinkSpec::lan());
    // ~25% of time in a fully-lossy bad state, mean burst 10 packets.
    let model = FaultModel::none().with_burst(GilbertElliott::bursty(1.0 / 30.0, 0.1, 1.0));
    net.topology_mut().set_link_fault(l, Some(model));
    let sa = net.bind(a, Port(1)).unwrap();
    let _sb = net.bind(b, Port(1)).unwrap();
    for _ in 0..2000 {
        net.send(sa, Addr::unicast(b, Port(1)), vec![0]).unwrap();
    }
    net.run_to_quiescence();
    let rate = net.stats().loss_rate();
    let expect = model.burst.steady_state_loss();
    assert!(
        (rate - expect).abs() < 0.08,
        "measured {rate:.3}, steady state {expect:.3}"
    );
    assert_eq!(net.stats().dropped + net.stats().delivered, 2000);
}

#[test]
fn duplication_delivers_extra_copies() {
    use crate::faults::FaultModel;
    let mut net = Network::new(9);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let l = net.connect(a, b, LinkSpec::lan());
    net.topology_mut()
        .set_link_fault(l, Some(FaultModel::none().with_duplicate(1.0)));
    let sa = net.bind(a, Port(1)).unwrap();
    let sb = net.bind(b, Port(1)).unwrap();
    for i in 0..5u8 {
        net.send(sa, Addr::unicast(b, Port(1)), vec![i]).unwrap();
    }
    net.run_to_quiescence();
    assert_eq!(net.stats().duplicated, 5);
    assert_eq!(net.stats().delivered, 10);
    // Copies arrive back-to-back, preserving send order.
    let seen: Vec<u8> = std::iter::from_fn(|| net.recv(sb))
        .map(|d| d.payload[0])
        .collect();
    assert_eq!(seen, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
}

#[test]
fn reorder_hold_reorders_arrivals() {
    use crate::faults::FaultModel;
    let mut net = Network::new(11);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let l = net.connect(a, b, LinkSpec::lan());
    // Hold ~half the packets back far enough for several successors
    // to overtake.
    net.topology_mut().set_link_fault(
        l,
        Some(FaultModel::none().with_reorder(0.5, Ticks::from_millis(2))),
    );
    let sa = net.bind(a, Port(1)).unwrap();
    let sb = net.bind(b, Port(1)).unwrap();
    for i in 0..50u8 {
        net.send(sa, Addr::unicast(b, Port(1)), vec![i]).unwrap();
    }
    net.run_to_quiescence();
    let seen: Vec<u8> = std::iter::from_fn(|| net.recv(sb))
        .map(|d| d.payload[0])
        .collect();
    assert_eq!(seen.len(), 50, "reordering never loses packets");
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<u8>>());
    assert_ne!(seen, sorted, "some packets overtook others");
}

#[test]
fn fault_plan_flaps_link() {
    use crate::faults::{FaultAction, FaultPlan};
    let mut net = Network::new(0);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let l = net.connect(a, b, LinkSpec::lan());
    let sa = net.bind(a, Port(1)).unwrap();
    let sb = net.bind(b, Port(1)).unwrap();
    net.set_fault_plan(
        FaultPlan::new()
            .at(Ticks::from_millis(10), FaultAction::LinkDown(l))
            .at(Ticks::from_millis(20), FaultAction::LinkUp(l)),
    );
    assert_eq!(net.fault_actions_pending(), 2);
    net.send(sa, Addr::unicast(b, Port(1)), vec![1]).unwrap();
    net.run_until(Ticks::from_millis(15));
    assert_eq!(net.pending(sb), 1, "pre-flap packet delivered");
    assert!(
        matches!(
            net.send(sa, Addr::unicast(b, Port(1)), vec![2]),
            Err(NetError::Unreachable(_, _))
        ),
        "no route while the link is down"
    );
    net.run_until(Ticks::from_millis(25));
    assert_eq!(net.fault_actions_pending(), 0);
    net.send(sa, Addr::unicast(b, Port(1)), vec![3]).unwrap();
    net.run_to_quiescence();
    assert_eq!(net.pending(sb), 2, "traffic resumes after the flap");
}

#[test]
fn fault_plan_degrades_and_restores_loss() {
    use crate::faults::{FaultAction, FaultPlan};
    let mut net = Network::new(3);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let l = net.connect(a, b, LinkSpec::lan());
    net.set_fault_plan(
        FaultPlan::new()
            .at(Ticks::from_millis(1), FaultAction::SetLoss(l, 1.0))
            .at(Ticks::from_millis(2), FaultAction::SetLoss(l, 0.0)),
    );
    net.run_until(Ticks::from_millis(1));
    assert_eq!(net.topology().link_spec(l).loss, 1.0);
    net.run_to_quiescence();
    assert_eq!(net.topology().link_spec(l).loss, 0.0);
}

#[test]
fn closed_socket_stops_receiving() {
    let (mut net, sa, sb, _a, b) = pair();
    net.send(sa, Addr::unicast(b, Port(1000)), vec![1]).unwrap();
    net.close(sb);
    net.run_to_quiescence();
    assert_eq!(net.pending(sb), 0);
    // Port can be rebound after close.
    assert!(net.bind(b, Port(1000)).is_ok());
}

/// A slow link with a FIFO cap tail-drops the overflow instead of
/// queueing unboundedly; without the cap the same burst queues in
/// full (the historical behavior).
#[test]
fn bounded_fifo_tail_drops_overflow() {
    let run = |cap: Option<u64>| -> (u64, u64, usize) {
        let mut net = Network::new(7);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let mut spec = LinkSpec::wireless().with_loss(0.0); // 1 Mb/s
        if let Some(c) = cap {
            spec = spec.with_queue_cap(c);
        }
        net.connect(a, b, spec);
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        // 100 x 1000B back-to-back = 100 ms of backlog on this link.
        for _ in 0..100 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 1000])
                .unwrap();
        }
        net.run_to_quiescence();
        let mut delivered = 0;
        while net.recv(sb).is_some() {
            delivered += 1;
        }
        (net.stats().fifo_dropped, net.stats().dropped, delivered)
    };
    let (unbounded_fifo, unbounded_drops, unbounded_delivered) = run(None);
    assert_eq!(unbounded_fifo, 0);
    assert_eq!(unbounded_drops, 0);
    assert_eq!(unbounded_delivered, 100, "no cap: everything queues");

    // Cap the backlog at ~10 packets' worth of wire bytes.
    let (fifo, drops, delivered) = run(Some(10_300));
    assert!(fifo > 0, "cap must tail-drop the burst overflow");
    assert_eq!(drops, fifo, "FIFO drops are counted in `dropped` too");
    assert_eq!(delivered as u64 + fifo, 100, "every packet accounted");
    assert!(
        (9..=12).contains(&delivered),
        "roughly the cap's worth delivered, got {delivered}"
    );
}

/// The FIFO cap admits packets again as the backlog drains: spacing
/// the same offered load out over time loses nothing.
#[test]
fn bounded_fifo_admits_after_drain() {
    let mut net = Network::new(8);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect(
        a,
        b,
        LinkSpec::wireless().with_loss(0.0).with_queue_cap(4_000),
    );
    let sa = net.bind(a, Port(1)).unwrap();
    let sb = net.bind(b, Port(1)).unwrap();
    for _ in 0..30 {
        net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 1000])
            .unwrap();
        // 1000B wire takes ~8 ms at 1 Mb/s; 10 ms gaps keep the
        // queue shallow.
        net.run_for(Ticks::from_millis(10));
    }
    net.run_to_quiescence();
    assert_eq!(net.stats().fifo_dropped, 0, "paced load never overflows");
    let mut delivered = 0;
    while net.recv(sb).is_some() {
        delivered += 1;
    }
    assert_eq!(delivered, 30);
}

// ------------------------------------------------- qdisc egress

use qdisc::{QdiscConfig, TrafficClass};

/// 1 Mb/s shaped link: packets are paced at the token-bucket rate
/// rather than the (here unconstrained) link serialization rate.
#[test]
fn qdisc_shapes_egress_rate() {
    let mut net = Network::new(9);
    let a = net.add_node("a");
    let b = net.add_node("b");
    // Fast line so any pacing observed comes from the qdisc.
    let link = net.connect(a, b, LinkSpec::lan());
    net.attach_qdisc(link, QdiscConfig::for_rate(8_000_000)); // 1 B/us
    let sa = net.bind(a, Port(1)).unwrap();
    let sb = net.bind(b, Port(1)).unwrap();
    for _ in 0..10 {
        net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 1000])
            .unwrap();
    }
    net.run_to_quiescence();
    let mut arrivals = Vec::new();
    while let Some(d) = net.recv(sb) {
        arrivals.push(d.arrived_at);
    }
    assert_eq!(arrivals.len(), 10);
    // ~1031 wire bytes per packet at 1 B/µs: steady-state spacing
    // near 1 ms once the 3000-byte burst is spent.
    let gaps: Vec<u64> = arrivals
        .windows(2)
        .map(|w| (w[1] - w[0]).as_micros())
        .collect();
    let tail = &gaps[gaps.len() - 4..];
    for g in tail {
        assert!(
            (900..=1200).contains(g),
            "steady-state pacing ~1ms/packet, got gaps {gaps:?}"
        );
    }
    let stats = net.qdisc_stats(link).unwrap();
    assert_eq!(stats.class(TrafficClass::Background).dequeued, 10);
}

/// ECN-capable traffic through a congested qdisc arrives CE-marked
/// and undropped; the same overload drops non-ECT traffic instead.
#[test]
fn qdisc_marks_ect_instead_of_dropping() {
    let run = |ecn: bool| -> (usize, usize, u64, u64) {
        let mut net = Network::new(10);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = net.connect(a, b, LinkSpec::lan());
        let mut cfg = QdiscConfig::for_rate(800_000); // 0.1 B/us
        cfg.codel_target_us = 5_000;
        cfg.codel_interval_us = 20_000;
        net.attach_qdisc(link, cfg);
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        net.set_ecn(sa, ecn);
        // 500B every 2 ms = 2 Mb/s offered against 0.8 Mb/s of
        // shaped capacity: deep sustained backlog, CoDel far past
        // target.
        for _ in 0..60 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 500])
                .unwrap();
            net.run_for(Ticks::from_millis(2));
        }
        net.run_for(Ticks::from_secs(5));
        let mut total = 0;
        let mut marked = 0;
        while let Some(d) = net.recv(sb) {
            total += 1;
            if d.ecn_ce {
                marked += 1;
            }
        }
        (
            total,
            marked,
            net.stats().ecn_marked,
            net.stats().qdisc_dropped,
        )
    };
    let (ect_total, ect_marked, ect_mark_stat, ect_drops) = run(true);
    assert!(ect_marked > 0, "AQM must mark the ECT flow");
    assert_eq!(ect_marked as u64, ect_mark_stat);
    assert_eq!(ect_drops, 0, "ECT traffic is marked, not dropped");
    assert_eq!(ect_total, 60, "nothing lost");

    let (not_total, not_marked, not_mark_stat, not_drops) = run(false);
    assert_eq!(not_marked, 0, "non-ECT can never carry CE");
    assert_eq!(not_mark_stat, 0);
    assert!(not_drops > 0, "same overload drops non-ECT traffic");
    assert!(not_total < 60);
}

// ------------------------------------------------- shaping tree

use htb::{RatePlan, TreeSpec};

/// A hub topology: one core node behind the shared uplink, two
/// subscriber nodes behind a switch. Mounting the tree on the
/// core→switch uplink shapes per-destination traffic.
fn tree_world() -> (Network, NodeId, Vec<NodeId>, LinkId) {
    let mut net = Network::new(12);
    let core = net.add_node("core");
    let sw = net.add_node("switch");
    let uplink = net.connect(core, sw, LinkSpec::lan());
    let subs: Vec<NodeId> = (0..2)
        .map(|i| {
            let n = net.add_node(&format!("sub-{i}"));
            net.connect(sw, n, LinkSpec::lan());
            n
        })
        .collect();
    (net, core, subs, uplink)
}

/// Each subscriber's ceiling paces its own flow: a bronze plan is
/// held to its ceiling while a gold neighbour on the same uplink
/// runs faster.
#[test]
fn tree_enforces_per_subscriber_ceilings() {
    let (mut net, core, subs, uplink) = tree_world();
    let mut spec = TreeSpec::new(80_000_000);
    let ap = spec.add_ap(htb::ROOT, "ap", 80_000_000, 80_000_000);
    let gold = RatePlan::new("gold", 16_000_000, 40_000_000);
    let bronze = RatePlan::new("bronze", 2_000_000, 4_000_000);
    spec.add_subscriber(ap, "gold", &gold, subs[0].0);
    spec.add_subscriber(ap, "bronze", &bronze, subs[1].0);
    let stats = net.attach_tree(uplink, spec);
    let sa = net.bind(core, Port(1)).unwrap();
    let s0 = net.bind(subs[0], Port(5004)).unwrap();
    let s1 = net.bind(subs[1], Port(5004)).unwrap();
    net.set_ecn(sa, true);
    for _ in 0..200 {
        net.send(sa, Addr::unicast(subs[0], Port(5004)), vec![0u8; 1000])
            .unwrap();
        net.send(sa, Addr::unicast(subs[1], Port(5004)), vec![0u8; 1000])
            .unwrap();
        net.run_for(Ticks::from_micros(500));
    }
    let elapsed_us = 200u64 * 500;
    // Node layout: 0 root, 1 default, 2 ap, 3 gold, 4 bronze.
    let bronze_bits = stats.bits_sent(4);
    let gold_bits = stats.bits_sent(3);
    let bronze_cap = 4_000_000 * elapsed_us / 1_000_000 + 3_000 * 8;
    assert!(
        bronze_bits <= bronze_cap,
        "bronze {bronze_bits} bits exceeds ceiling cap {bronze_cap}"
    );
    assert!(
        gold_bits > bronze_bits,
        "gold ({gold_bits}) should outrun bronze ({bronze_bits})"
    );
    net.run_to_quiescence();
    let mut g = 0;
    while net.recv(s0).is_some() {
        g += 1;
    }
    let mut b = 0;
    while net.recv(s1).is_some() {
        b += 1;
    }
    assert!(g + b > 0, "traffic flows through the tree");
}

/// ECN-capable traffic through one congested subscriber leaf
/// arrives CE-marked; the idle neighbour's leaf stays clean.
#[test]
fn tree_marks_congested_subscriber_only() {
    let (mut net, core, subs, uplink) = tree_world();
    let mut spec = TreeSpec::new(80_000_000);
    let plan = RatePlan::new("slow", 800_000, 800_000); // 0.1 B/µs
    spec.add_subscriber(htb::ROOT, "hot", &plan, subs[0].0);
    spec.add_subscriber(htb::ROOT, "idle", &plan, subs[1].0);
    let spec = spec.with_codel(5_000, 20_000);
    let stats = net.attach_tree(uplink, spec);
    let sa = net.bind(core, Port(1)).unwrap();
    let s0 = net.bind(subs[0], Port(5004)).unwrap();
    let s1 = net.bind(subs[1], Port(5004)).unwrap();
    net.set_ecn(sa, true);
    // Overload subscriber 0 only; one late packet to subscriber 1.
    for _ in 0..60 {
        net.send(sa, Addr::unicast(subs[0], Port(5004)), vec![0u8; 500])
            .unwrap();
        net.run_for(Ticks::from_millis(2));
    }
    net.send(sa, Addr::unicast(subs[1], Port(5004)), vec![0u8; 500])
        .unwrap();
    net.run_for(Ticks::from_secs(5));
    let mut hot_total = 0;
    let mut hot_marked = 0;
    while let Some(d) = net.recv(s0) {
        hot_total += 1;
        if d.ecn_ce {
            hot_marked += 1;
        }
    }
    assert_eq!(hot_total, 60, "ECT flow is marked, never dropped");
    assert!(hot_marked > 0, "sustained overload must mark");
    let d = net.recv(s1).expect("idle subscriber's packet arrives");
    assert!(!d.ecn_ce, "fresh leaf has no CoDel state to mark with");
    assert_eq!(stats.ecn_marks(2), hot_marked as u64);
    assert_eq!(stats.ecn_marks(3), 0);
    assert_eq!(net.stats().qdisc_dropped, 0);
}

/// FNV-1a over every datagram's arrival instant, source, length
/// and CE bit, then every [`NetStats`] counter. The constants the
/// determinism tests compare it with were captured at the commit
/// before the two egress tables were folded into one slot, so they
/// pin identity with that datapath, not only run-to-run agreement.
fn run_digest(arrivals: &[Datagram], stats: &NetStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in arrivals {
        mix(d.arrived_at.as_micros());
        mix(u64::from(d.src_node.0));
        mix(u64::from(d.src_port.0));
        mix(d.payload.len() as u64);
        mix(u64::from(d.ecn_ce));
    }
    for v in [
        stats.sent,
        stats.delivered,
        stats.dropped,
        stats.bytes_sent,
        stats.bytes_delivered,
        stats.duplicated,
        stats.fifo_dropped,
        stats.qdisc_dropped,
        stats.ecn_marked,
    ] {
        mix(v);
    }
    h
}

/// Same seed + same tree spec ⇒ identical arrival trace, loss
/// rolls included — and the trace the parent commit produced.
#[test]
fn tree_runs_are_deterministic() {
    let run = || -> (Vec<Datagram>, NetStats) {
        let mut net = Network::new(13);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = net.connect(a, b, LinkSpec::wireless()); // has loss
        let mut spec = TreeSpec::new(1_000_000);
        let plan = RatePlan::new("only", 500_000, 800_000);
        spec.add_subscriber(htb::ROOT, "b", &plan, b.0);
        net.attach_tree(link, spec);
        let sa = net.bind(a, Port(5004)).unwrap();
        let sb = net.bind(b, Port(5004)).unwrap();
        net.set_ecn(sa, true);
        for n in 0..40u8 {
            net.send(sa, Addr::unicast(b, Port(5004)), vec![n; 200])
                .unwrap();
            net.run_for(Ticks::from_millis(2));
        }
        net.run_to_quiescence();
        let out: Vec<Datagram> = std::iter::from_fn(|| net.recv(sb)).collect();
        (out, net.stats())
    };
    let (arrivals, stats) = run();
    assert_eq!((arrivals.clone(), stats.clone()), run());
    assert_eq!(run_digest(&arrivals, &stats), 0x9b734bb9be29b1bf);
}

/// A link's egress slot is filled once: a second mount of either
/// kind, in either order, panics instead of discarding the queued
/// copies of the plane already there.
#[test]
fn tree_and_qdisc_are_mutually_exclusive() {
    type Mount = fn(&mut Network, LinkId);
    let flat: Mount = |net, link| {
        net.attach_qdisc(link, QdiscConfig::for_rate(1_000_000));
    };
    let tree: Mount = |net, link| {
        net.attach_tree(link, TreeSpec::new(1_000_000));
    };
    for (first, second) in [(flat, tree), (tree, flat), (flat, flat), (tree, tree)] {
        let mut net = Network::new(14);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = net.connect(a, b, LinkSpec::lan());
        first(&mut net, link);
        let second_mount = std::panic::AssertUnwindSafe(|| second(&mut net, link));
        let panic = std::panic::catch_unwind(second_mount).expect_err("occupied slot");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"link already has an egress plane")
        );
    }
}

/// A shaping tree on hop 1 and a flat qdisc on hop 2 of one path:
/// every copy suspends and resumes in both planes through the same
/// slot machinery. Whichever plane is the bottleneck sets CE, and
/// the mark survives the other plane to [`Datagram::ecn_ce`]; a
/// non-ECT flood beside it is dropped, and every copy is accounted
/// for.
#[test]
fn tree_then_qdisc_on_one_path() {
    // `(leaf_bps, flat_bps)` → arrivals at `b`, final stats, CE
    // marks the tree leaf set, CE marks the flat plane set.
    let run = |leaf_bps: u64, flat_bps: u64| -> (Vec<Datagram>, NetStats, u64, u64) {
        let mut net = Network::new(15);
        let a = net.add_node("a");
        let r = net.add_node("r");
        let b = net.add_node("b");
        let hop1 = net.connect(a, r, LinkSpec::lan());
        let hop2 = net.connect(r, b, LinkSpec::lan());
        let mut spec = TreeSpec::new(80_000_000);
        let plan = RatePlan::new("leaf", leaf_bps, leaf_bps);
        spec.add_subscriber(htb::ROOT, "b", &plan, b.0);
        let tree_stats = net.attach_tree(hop1, spec.with_codel(5_000, 20_000));
        let mut cfg = QdiscConfig::for_rate(flat_bps);
        cfg.codel_target_us = 5_000;
        cfg.codel_interval_us = 20_000;
        net.attach_qdisc(hop2, cfg);
        let ect = net.bind(a, Port(5004)).unwrap();
        let plain = net.bind(a, Port(9000)).unwrap();
        let media = net.bind(b, Port(5004)).unwrap();
        let other = net.bind(b, Port(9000)).unwrap();
        net.set_ecn(ect, true);
        for _ in 0..60 {
            net.send(ect, Addr::unicast(b, Port(5004)), vec![0u8; 500])
                .unwrap();
            net.send(plain, Addr::unicast(b, Port(9000)), vec![0u8; 500])
                .unwrap();
            net.run_for(Ticks::from_millis(2));
        }
        net.run_to_quiescence();
        let mut arrivals: Vec<Datagram> = std::iter::from_fn(|| net.recv(media)).collect();
        assert_eq!(arrivals.len(), 60, "ECT flow is marked, never dropped");
        arrivals.extend(std::iter::from_fn(|| net.recv(other)));
        let flat_marks = net.qdisc_stats(hop2).unwrap().ecn_marks();
        // Node layout: 0 root, 1 default, 2 the subscriber leaf.
        (arrivals, net.stats(), tree_stats.ecn_marks(2), flat_marks)
    };
    for (leaf_bps, flat_bps) in [(800_000, 8_000_000), (8_000_000, 800_000)] {
        let (arrivals, stats, tree_marks, flat_marks) = run(leaf_bps, flat_bps);
        let ce = arrivals.iter().filter(|d| d.ecn_ce).count() as u64;
        assert!(ce > 0, "the bottleneck plane must mark");
        assert_eq!(ce, tree_marks + flat_marks, "no mark lost on the way");
        if leaf_bps < flat_bps {
            assert_eq!((tree_marks, flat_marks), (ce, 0), "hop 1 marked");
        } else {
            assert_eq!((tree_marks, flat_marks), (0, ce), "hop 2 marked");
        }
        assert!(stats.qdisc_dropped > 0, "non-ECT flood is dropped");
        assert_eq!(stats.sent, 120);
        assert_eq!(stats.sent, stats.delivered + stats.dropped);
        assert_eq!(stats.delivered, arrivals.len() as u64);
        let (again, again_stats, ..) = run(leaf_bps, flat_bps);
        assert_eq!((arrivals, stats), (again, again_stats));
    }
}

/// Same seed + same qdisc config ⇒ identical arrival trace — and
/// the trace the parent commit produced.
#[test]
fn qdisc_runs_are_deterministic() {
    let run = || -> (Vec<Datagram>, NetStats) {
        let mut net = Network::new(11);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = net.connect(a, b, LinkSpec::wireless()); // has loss
        net.attach_qdisc(link, QdiscConfig::for_rate(500_000));
        let sa = net.bind(a, Port(5004)).unwrap();
        let sb = net.bind(b, Port(5004)).unwrap();
        net.set_ecn(sa, true);
        for n in 0..40u8 {
            net.send(sa, Addr::unicast(b, Port(5004)), vec![n; 200])
                .unwrap();
            net.run_for(Ticks::from_millis(2));
        }
        net.run_to_quiescence();
        let out: Vec<Datagram> = std::iter::from_fn(|| net.recv(sb)).collect();
        (out, net.stats())
    };
    let (arrivals, stats) = run();
    assert_eq!((arrivals.clone(), stats.clone()), run());
    assert_eq!(run_digest(&arrivals, &stats), 0x2f64a1310c6d4dea);
}

/// A four-host star with nothing mounted: every link has Bernoulli
/// loss plus a full fault model (burst loss, jitter, reorder,
/// duplication), every host has a socket in one multicast group.
/// `cut` isolates that host from the switch.
fn faulty_lan(seed: u64, cut: Option<usize>) -> (Network, GroupId, Vec<SocketHandle>) {
    use crate::faults::{FaultModel, GilbertElliott};
    let mut net = Network::new(seed);
    let (_switch, hosts) = net.lan(&["h0", "h1", "h2", "h3"], LinkSpec::lan().with_loss(0.05));
    let model = FaultModel::none()
        .with_burst(GilbertElliott::bursty(0.1, 0.3, 0.5))
        .with_jitter(Ticks::from_micros(300))
        .with_reorder(0.2, Ticks::from_millis(2))
        .with_duplicate(0.1);
    for l in 0..hosts.len() as u32 {
        net.topology_mut().set_link_fault(LinkId(l), Some(model));
    }
    let group = net.new_group();
    let socks: Vec<SocketHandle> = hosts
        .iter()
        .map(|&h| {
            let s = net.bind(h, Port(7000)).unwrap();
            net.join(s, group).unwrap();
            s
        })
        .collect();
    if let Some(i) = cut {
        net.topology_mut().partition(&[hosts[i]]);
    }
    (net, group, socks)
}

fn drain_all(net: &mut Network, socks: &[SocketHandle]) -> Vec<Datagram> {
    socks
        .iter()
        .flat_map(|&s| std::iter::from_fn(|| net.recv(s)).collect::<Vec<_>>())
        .collect()
}

/// The path no egress plane touches — multi-hop multicast over
/// lossy, faulty links — pinned to the trace the analytic hop loop
/// produced at the commit before it was folded into the in-flight
/// walk.
#[test]
fn planeless_runs_are_deterministic() {
    let run = || -> (Vec<Datagram>, NetStats) {
        let (mut net, group, socks) = faulty_lan(17, None);
        let dst = Addr::multicast(group, Port(7000));
        for n in 0..30u8 {
            net.send(socks[0], dst, vec![n; 100]).unwrap();
            let batch: Vec<Vec<u8>> = (1..4).map(|k| vec![n; 100 * k]).collect();
            assert_eq!(net.send_batch(socks[1], dst, batch), Ok(9));
            net.run_for(Ticks::from_micros(400));
        }
        net.run_to_quiescence();
        (drain_all(&mut net, &socks), net.stats())
    };
    let (arrivals, stats) = run();
    assert!(stats.dropped > 0 && stats.duplicated > 0, "faults fired");
    assert_eq!((arrivals.clone(), stats.clone()), run());
    assert_eq!(run_digest(&arrivals, &stats), 0x325dc244409ce5b3);
}

/// `send(p)` is `send_batch(vec![p])`: same copies, same RNG draws,
/// same counters, same errors — unicast and multicast, reachable or
/// not, oversized or not.
#[test]
fn send_is_the_one_packet_batch() {
    type Send1 = fn(&mut Network, SocketHandle, Addr, Vec<u8>) -> Result<(), NetError>;
    let single: Send1 = |net, s, dst, p| net.send(s, dst, p);
    let batch: Send1 = |net, s, dst, p| net.send_batch(s, dst, vec![p]).map(|_| ());
    let run = |send: Send1, cut: Option<usize>, unicast: bool| {
        let (mut net, group, socks) = faulty_lan(23, cut);
        let dst = if unicast {
            Addr::unicast(net.socket_node(socks[2]), Port(7000))
        } else {
            Addr::multicast(group, Port(7000))
        };
        let mut results = Vec::new();
        for n in 0..40u8 {
            results.push(send(&mut net, socks[0], dst, vec![n; 64]));
            net.run_for(Ticks::from_micros(200));
        }
        results.push(send(&mut net, socks[0], dst, vec![0; MAX_DATAGRAM + 1]));
        net.run_to_quiescence();
        let arrivals = drain_all(&mut net, &socks);
        (results, run_digest(&arrivals, &net.stats()), arrivals.len())
    };
    // Digests of the `send` runs at the commit before the fold.
    for (unicast, pinned) in [(true, 0xb80ddab524d93dab), (false, 0x2a80cc2c1a872d24)] {
        let (results, digest, arrived) = run(single, None, unicast);
        assert_eq!(digest, pinned);
        assert!(results[..40].iter().all(Result::is_ok));
        assert_eq!(
            results[40],
            Err(NetError::PayloadTooLarge(MAX_DATAGRAM + 1))
        );
        assert_eq!((results, digest, arrived), run(batch, None, unicast));
        // Host 2 cut off: unicast fails outright; multicast reaches
        // host 1, then fails at host 2 and never tries host 3.
        let (results, digest, arrived) = run(single, Some(2), unicast);
        assert!(matches!(results[0], Err(NetError::Unreachable(_, _))));
        assert_eq!(arrived > 0, !unicast);
        assert_eq!((results, digest, arrived), run(batch, Some(2), unicast));
    }
}

// ------------------------------------------------- buffer recycling

/// Send `bytes` from `s` to `dst` in a buffer from [`Network::buffer`].
fn send_in_buffer(net: &mut Network, s: SocketHandle, dst: Addr, bytes: &[u8]) {
    let mut buf = net.buffer();
    buf.as_mut().extend_from_slice(bytes);
    net.send(s, dst, buf).unwrap();
}

#[test]
fn a_recycled_buffer_carries_no_memo_into_its_next_message() {
    let (mut net, sa, sb, _a, b) = pair();
    let dst = Addr::unicast(b, Port(1000));
    let first_byte = |p: &Payload| p.memo_or_init(|| p[0]).copied();
    send_in_buffer(&mut net, sa, dst, b"old message");
    net.run_for(Ticks::from_millis(1));
    let old = net.recv(sb).unwrap().payload;
    assert_eq!(first_byte(&old), Some(b'o'));
    let at = old.as_ptr();
    net.recycle(old);
    let mut buf = net.buffer();
    let bytes = buf.as_mut();
    assert!(bytes.is_empty(), "a spare comes back empty");
    bytes.extend_from_slice(b"new message");
    assert_eq!(bytes.as_ptr(), at, "the old message's buffer is reused");
    net.send(sa, dst, buf).unwrap();
    net.run_for(Ticks::from_millis(1));
    let new = net.recv(sb).unwrap().payload;
    assert_eq!(new, b"new message");
    assert_eq!(first_byte(&new), Some(b'n'), "derived from the new bytes");
}

#[test]
fn a_payload_with_another_handle_is_never_reused() {
    use crate::faults::FaultModel;
    let mut net = Network::new(3);
    let (_switch, hosts) = net.lan(&["a", "b", "c"], LinkSpec::lan());
    let socks: Vec<SocketHandle> = hosts
        .iter()
        .map(|&h| net.bind(h, Port(9)).unwrap())
        .collect();
    let to = |i: usize| Addr::unicast(hosts[i], Port(9));
    // Every copy into b is delivered twice.
    net.topology_mut()
        .set_link_fault(LinkId(1), Some(FaultModel::none().with_duplicate(1.0)));
    send_in_buffer(&mut net, socks[0], to(1), b"duplicated");
    send_in_buffer(&mut net, socks[0], to(2), b"cloned");
    net.run_to_quiescence();
    let first = net.recv(socks[1]).unwrap().payload;
    net.recycle(first);
    let cloned = net.recv(socks[2]).unwrap().payload;
    let kept = cloned.clone();
    net.recycle(cloned);
    assert!(net.spares.is_empty(), "neither buffer had one handle left");
    for n in 0..128u8 {
        send_in_buffer(&mut net, socks[0], to(2), &[n; 16]);
        net.run_to_quiescence();
        let d = net.recv(socks[2]).unwrap().payload;
        assert_eq!(d, [n; 16]);
        net.recycle(d);
    }
    assert_eq!(net.spares.len(), 1, "the one spare went round");
    assert_eq!(kept, b"cloned");
    assert_eq!(net.recv(socks[1]).unwrap().payload, b"duplicated");
}

#[test]
fn the_spare_list_keeps_to_both_bounds() {
    let mut net = Network::new(1);
    net.recycle(Payload::from(vec![0; MAX_SPARE_CAPACITY + 1]));
    assert!(net.spares.is_empty(), "too large a buffer is not kept");
    let mut grown = net.buffer();
    grown.as_mut().resize(MAX_SPARE_CAPACITY + 1, 0);
    net.recycle(grown.into());
    assert!(net.spares.is_empty(), "nor one grown past the bound");
    for n in 0..2 * MAX_SPARES {
        net.recycle(Payload::from(vec![0; n]));
        assert!(net.spares.len() <= MAX_SPARES);
    }
    assert_eq!(net.spares.len(), MAX_SPARES);
    for spare in &mut net.spares {
        let bytes = spare.as_mut();
        assert!(bytes.is_empty() && bytes.capacity() <= MAX_SPARE_CAPACITY);
    }
}

mod recycling {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under loss, burst loss, reordering and duplication, with
        /// buffers recycled as soon as they are read — or while a
        /// clone is still held — every delivered payload is exactly
        /// the bytes its sender wrote, and every held clone keeps them.
        #[test]
        fn every_delivered_payload_is_the_bytes_sent(
            seed in 0u64..1_000,
            steps in proptest::collection::vec((0u8..8, 0usize..4, 0usize..4, 0usize..200), 1..120),
        ) {
            let (mut net, group, socks) = faulty_lan(seed, None);
            let mut sent: Vec<Vec<u8>> = Vec::new();
            let mut kept: Vec<Payload> = Vec::new();
            let mut check = |net: &mut Network, sent: &[Vec<u8>], d: Datagram, keep: bool| {
                let id = u32::from_be_bytes(d.payload[..4].try_into().unwrap());
                prop_assert_eq!(&d.payload, &sent[id as usize]);
                if keep {
                    kept.push(d.payload.clone());
                }
                net.recycle(d.payload);
                Ok(())
            };
            // `what` is 0 a unicast send of a plain vector, 1–2 one from
            // a network buffer, 3 a multicast send, 4–5 a read of socket
            // `to` that recycles every payload, 6 one that keeps a clone
            // of each and recycles it, 7 time passing.
            for &(what, from, to, len) in &steps {
                match what {
                    0..=3 => {
                        let id = sent.len() as u32;
                        let mut bytes = id.to_be_bytes().to_vec();
                        bytes.extend((0..len).map(|k| (k as u32 ^ id) as u8));
                        let dst = if what == 3 {
                            Addr::multicast(group, Port(7000))
                        } else {
                            Addr::unicast(net.socket_node(socks[to]), Port(7000))
                        };
                        if what == 0 {
                            net.send(socks[from], dst, bytes.clone()).unwrap();
                        } else {
                            send_in_buffer(&mut net, socks[from], dst, &bytes);
                        }
                        sent.push(bytes);
                    }
                    4..=6 => {
                        while let Some(d) = net.recv(socks[to]) {
                            check(&mut net, &sent, d, what == 6)?;
                        }
                    }
                    _ => net.run_for(Ticks::from_micros(50 * len as u64)),
                }
            }
            net.run_to_quiescence();
            for d in drain_all(&mut net, &socks) {
                check(&mut net, &sent, d, false)?;
            }
            for p in &kept {
                let id = u32::from_be_bytes(p[..4].try_into().unwrap());
                prop_assert_eq!(p, &sent[id as usize]);
            }
            prop_assert!(net.spares.len() <= MAX_SPARES);
        }
    }
}

/// Every scheduled copy of a lossless fan-out is delivered, whatever
/// the session's size: `ticks` batches of `batch` shared 256-byte
/// payloads, multicast on one switched star of `n` clients (each batch
/// reaching the `n - 1` peers) and relayed store-and-forward down a
/// chain of `domains` hubs, each relay republishing into its domain's
/// group (every client hears each event once, and each of the
/// `domains - 1` relay hops is one delivery more).
#[test]
fn fan_out_and_relay_chain_deliver_the_closed_form_counts() {
    const PORT: Port = Port(5004);
    const RELAY: Port = Port(9100);
    let (ticks, batch, domains) = (5, 8, 8);
    let payloads = |tick: usize| -> Vec<Payload> {
        (0..batch)
            .map(|m| Payload::from(vec![(tick * batch + m) as u8; 256]))
            .collect()
    };
    let drain = |net: &mut Network, sockets: &[SocketHandle]| {
        let mut got = 0u64;
        for &s in sockets {
            while net.recv(s).is_some() {
                got += 1;
            }
        }
        got
    };
    let edge = || LinkSpec::lan().with_bandwidth_bps(1_000_000_000);
    for n in [200usize, 1_000] {
        // Flat: one group of all `n`, member 0 publishes.
        let mut net = Network::new(42);
        let hub = net.add_node("hub");
        let group = net.new_group();
        let sockets: Vec<SocketHandle> = (0..n)
            .map(|i| {
                let node = net.add_node(&format!("c{i}"));
                net.connect(node, hub, edge());
                let s = net.bind(node, PORT).unwrap();
                net.join(s, group).unwrap();
                s
            })
            .collect();
        let stats = net.stats_handle();
        let mut received = 0;
        for tick in 0..ticks {
            net.send_batch(sockets[0], Addr::multicast(group, PORT), payloads(tick))
                .unwrap();
            net.run_to_quiescence();
            received += drain(&mut net, &sockets);
        }
        let expect = (ticks * batch * (n - 1)) as u64;
        assert_eq!(stats.delivered(), expect, "flat n={n}: lossless fan-out");
        assert_eq!(received, expect, "flat n={n}: every copy reached an inbox");

        // Brokered: hubs chained by a backbone, one relay and one
        // group per hub, clients split evenly; relay 0 publishes.
        let mut net = Network::new(42);
        let (mut hubs, mut relays, mut groups) = (Vec::new(), Vec::new(), Vec::new());
        for d in 0..domains {
            let hub = net.add_node(&format!("hub{d}"));
            if d > 0 {
                net.connect(hubs[d - 1], hub, edge());
            }
            relays.push(net.bind(hub, RELAY).unwrap());
            groups.push(net.new_group());
            hubs.push(hub);
        }
        let sockets: Vec<SocketHandle> = (0..n)
            .map(|i| {
                let node = net.add_node(&format!("c{i}"));
                net.connect(node, hubs[i % domains], edge());
                let s = net.bind(node, PORT).unwrap();
                net.join(s, groups[i % domains]).unwrap();
                s
            })
            .collect();
        let stats = net.stats_handle();
        let mut received = 0;
        for tick in 0..ticks {
            let first = payloads(tick);
            net.send_batch(relays[0], Addr::multicast(groups[0], PORT), first.clone())
                .unwrap();
            net.send_batch(relays[0], Addr::unicast(hubs[1], RELAY), first)
                .unwrap();
            // Settle, republish whatever arrived, until every relay is quiet.
            loop {
                net.run_to_quiescence();
                let mut moved = false;
                for d in 1..domains {
                    let mut arrived: Vec<Payload> = Vec::new();
                    while let Some(dgram) = net.recv(relays[d]) {
                        arrived.push(dgram.payload);
                    }
                    if arrived.is_empty() {
                        continue;
                    }
                    moved = true;
                    if d + 1 < domains {
                        net.send_batch(
                            relays[d],
                            Addr::unicast(hubs[d + 1], RELAY),
                            arrived.clone(),
                        )
                        .unwrap();
                    }
                    net.send_batch(relays[d], Addr::multicast(groups[d], PORT), arrived)
                        .unwrap();
                }
                if !moved {
                    break;
                }
            }
            received += drain(&mut net, &sockets);
        }
        let expect = (ticks * batch * (n + domains - 1)) as u64;
        assert_eq!(stats.delivered(), expect, "brokered n={n}: lossless relay");
        assert_eq!(
            received,
            (ticks * batch * n) as u64,
            "brokered n={n}: every client copy reached an inbox"
        );
    }
}
