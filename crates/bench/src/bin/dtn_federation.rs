//! Custody-federation throughput: an 8-domain broker chain with the
//! disruption-tolerant store enabled, driven through scripted
//! partition/heal cycles. Each cycle cuts one inter-broker link,
//! publishes a burst into the partition (far-side traffic parks in
//! the edge broker's custody store), then heals and measures the
//! drain. Delivery counts are asserted against the closed-form
//! lossless expectation — every subscriber sees every burst message
//! exactly once — so a custody bug cannot masquerade as a fast run.
//!
//! Output: a human-readable table (stored-bytes high-watermark, drain
//! rate, delivered ratio). `--quick` runs the reduced sweep CI runs as
//! smoke.

use bench::{header, quick_mode, row};
use broker::Overlay;
use dtn::StoreConfig;
use sempubsub::{AttrValue, BusEndpoint, Profile};
use simnet::packet::well_known;
use simnet::{LinkSpec, Network, Ticks};
use std::collections::BTreeMap;
use std::time::Instant;

const DOMAINS: usize = 8;

struct Outcome {
    delivered_live: u64,
    delivered_drained: u64,
    expected: u64,
    stored_bytes_hwm: u64,
    drain_secs: f64,
    transfers: u64,
}

fn topic_profile(name: &str, topic: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str(topic)]),
    );
    p
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

fn drain_count(net: &mut Network, subs: &mut [BusEndpoint]) -> u64 {
    let mut n = 0;
    for bus in subs.iter_mut() {
        let raw = bus.drain_raw(net);
        n += bus.interpret_batch(raw).len() as u64;
    }
    n
}

fn run(cycles: usize, burst: usize) -> Outcome {
    let mut net = Network::new(0x0DB1);
    let mut ov = Overlay::new();
    ov.enable_custody(StoreConfig {
        max_bytes: 4 << 20,
        max_bundles: 16_384,
        lifetime: Ticks::from_secs(60),
        retry_after: Ticks::from_millis(10),
        ..StoreConfig::default()
    });
    for i in 0..DOMAINS {
        ov.add_broker(&mut net, &format!("b{i}"));
    }
    let links: Vec<_> = (0..DOMAINS - 1)
        .map(|i| ov.connect(&mut net, i, i + 1, LinkSpec::lan()))
        .collect();

    let mut publisher = join_domain(&mut net, &mut ov, 0, topic_profile("pub", "control"));
    let mut subs: Vec<BusEndpoint> = (1..DOMAINS)
        .map(|d| {
            join_domain(
                &mut net,
                &mut ov,
                d,
                topic_profile(&format!("sub{d}"), "feed"),
            )
        })
        .collect();

    let mut delivered_live = 0u64;
    let mut delivered_drained = 0u64;
    let mut drain_secs = 0.0f64;
    for cycle in 0..cycles {
        // Cut a rotating inter-broker link, publish into the outage.
        let cut = links[cycle % links.len()];
        net.topology_mut().set_link_up(cut, false);
        for m in 0..burst {
            publisher
                .publish(
                    &mut net,
                    "chat",
                    "interested_in contains 'feed'",
                    BTreeMap::new(),
                    format!("cycle {cycle} msg {m}").into_bytes(),
                )
                .expect("publishes");
        }
        ov.pump(&mut net, Ticks::from_millis(100));
        delivered_live += drain_count(&mut net, &mut subs);

        // Heal and time the custody drain.
        net.topology_mut().set_link_up(cut, true);
        let t = Instant::now();
        ov.pump(&mut net, Ticks::from_millis(200));
        drain_secs += t.elapsed().as_secs_f64();
        delivered_drained += drain_count(&mut net, &mut subs);
    }

    let (mut hwm, mut transfers) = (0u64, 0u64);
    for i in 0..DOMAINS {
        let stats = ov.store_stats(i).expect("custody enabled");
        hwm = hwm.max(stats.peak_bytes());
        transfers += stats.custody_transfers();
        assert_eq!(stats.stored_bundles(), 0, "broker {i} fully drained");
    }
    Outcome {
        delivered_live,
        delivered_drained,
        expected: (cycles * burst * (DOMAINS - 1)) as u64,
        stored_bytes_hwm: hwm,
        drain_secs,
        transfers,
    }
}

fn main() {
    let quick = quick_mode();
    let scenarios: &[(usize, usize)] = if quick {
        &[(8, 128)]
    } else {
        &[(8, 128), (16, 256)]
    };
    println!(
        "custody federation — {DOMAINS}-domain broker chain, store-and-drain across \
         scripted partition/heal cycles\n"
    );
    let widths = [10, 8, 11, 11, 11, 12, 10];
    header(
        &[
            "cycles",
            "burst",
            "live",
            "drained",
            "hwm bytes",
            "drain msg/s",
            "delivered",
        ],
        &widths,
    );
    for &(cycles, burst) in scenarios {
        let out = run(cycles, burst);
        let total = out.delivered_live + out.delivered_drained;
        assert_eq!(
            total, out.expected,
            "every burst message delivered exactly once across the federation"
        );
        assert!(out.transfers > 0, "custody transfers must occur");
        let ratio = total as f64 / out.expected as f64;
        let drain_rate = out.delivered_drained as f64 / out.drain_secs.max(1e-9);
        row(
            &[
                cycles.to_string(),
                burst.to_string(),
                out.delivered_live.to_string(),
                out.delivered_drained.to_string(),
                out.stored_bytes_hwm.to_string(),
                format!("{drain_rate:.0}"),
                format!("{ratio:.3}"),
            ],
            &widths,
        );
    }
    println!(
        "\nlive = delivered while partitioned (near side); drained = delivered by the\n\
         custody store after each heal; counts asserted against the lossless expectation"
    );
}
