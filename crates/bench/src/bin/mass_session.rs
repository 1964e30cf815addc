//! Mass-session scaling: how far the slab-allocated simnet core
//! (dense-id tables, timing-wheel scheduler, reference-counted
//! payloads) carries a single collaborative session.
//!
//! Two topologies per scale, both pumped for a fixed number of
//! publish ticks with a fixed batch of 256-byte events per tick:
//!
//! * **flat** — every client on one switched star; the publisher
//!   multicasts each batch to one group holding all `n - 1` peers.
//!   Each event is encoded into a [`simnet::Payload`] exactly once and
//!   every scheduled copy shares the buffer, so fan-out cost is event
//!   scheduling, not memcpy.
//! * **brokered** — clients split evenly across 8 broker domains, one
//!   hub + relay per domain, hubs chained by a backbone. The domain-0
//!   relay publishes into its own group and forwards the batch down
//!   the relay chain; each relay republishes into its domain group —
//!   the store-and-forward shape of the broker overlay, again sharing
//!   one buffer per event end to end.
//!
//! Delivery counts come from the lock-free [`simnet::NetStatsHandle`]
//! and are asserted against the closed-form expectation (links are
//! lossless), so a scheduling bug cannot masquerade as a fast run.
//!
//! Output: a human-readable table (peak and sustained delivered
//! msgs/s, delivered bytes per client per tick, sim time per tick).
//! `--quick` selects the reduced sweep CI runs as smoke; the default
//! sweep climbs 1k -> 10k -> 100k clients.
//!
//! A second table prices one **adaptation pass**
//! (`CollaborationSession::adapt_all`: one SNMP GET round trip and one
//! engine decision per client) at 96 and 768 clients: µs, allocations
//! and allocated bytes per client per pass, and the simulated time a
//! pass advances. A client polls the agent on its own node, so what a
//! pass costs a client must not depend on the session's size: the
//! allocation and byte counts are asserted equal at both sizes (the µs
//! column is printed, never asserted).

use bench::{header, quick_mode, row};
use cqos_core::{CollaborationSession, PolicyDb, QosContract, SessionConfig};
use simnet::{Addr, GroupId, LinkSpec, Network, NodeId, Payload, Port, SocketHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Counts allocations (reallocations included) and the bytes they ask
/// for, so the adaptation-pass row can state a cost as a count.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is two relaxed atomic adds, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PORT: Port = Port(5004);
const RELAY_PORT: Port = Port(9100);
const TICKS: usize = 5;
const BATCH: usize = 8;
const PAYLOAD_BYTES: usize = 256;
const DOMAINS: usize = 8;

/// Switched-star edge: gigabit so serialization does not dominate the
/// simulated second at 100k clients.
fn edge() -> LinkSpec {
    LinkSpec::lan().with_bandwidth_bps(1_000_000_000)
}

struct Outcome {
    peak: f64,
    sustained: f64,
    bytes_per_client_tick: f64,
    sim_ms_per_tick: f64,
}

/// One batch of distinct payloads, encoded once; every copy the
/// network schedules shares these buffers.
fn batch(tick: usize) -> Vec<Payload> {
    (0..BATCH)
        .map(|m| Payload::from(vec![(tick * BATCH + m) as u8; PAYLOAD_BYTES]))
        .collect()
}

fn drain(net: &mut Network, sockets: &[SocketHandle]) -> u64 {
    let mut got = 0;
    for &s in sockets {
        while net.recv(s).is_some() {
            got += 1;
        }
    }
    got
}

/// Flat star: one group, `n` members, publisher = member 0.
fn run_flat(n: usize) -> Outcome {
    let mut net = Network::new(42);
    let hub = net.add_node("hub");
    let group = net.new_group();
    let mut sockets = Vec::with_capacity(n);
    for i in 0..n {
        let node = net.add_node(&format!("c{i}"));
        net.connect(node, hub, edge());
        let s = net.bind(node, PORT).expect("bind");
        net.join(s, group).expect("join");
        sockets.push(s);
    }
    let publisher = sockets[0];
    let stats = net.stats_handle();
    let (mut peak, mut last_delivered, mut received) = (0.0f64, 0u64, 0u64);
    let t0 = Instant::now();
    let sim0 = net.now();
    for tick in 0..TICKS {
        let t = Instant::now();
        net.send_batch(publisher, Addr::multicast(group, PORT), batch(tick))
            .expect("publish");
        net.run_to_quiescence();
        received += drain(&mut net, &sockets);
        let dt = t.elapsed().as_secs_f64();
        let d = stats.delivered() - last_delivered;
        last_delivered = stats.delivered();
        peak = peak.max(d as f64 / dt);
    }
    let wall = t0.elapsed().as_secs_f64();
    let expect = (TICKS * BATCH * (n - 1)) as u64;
    assert_eq!(stats.delivered(), expect, "flat n={n}: lossless fan-out");
    assert_eq!(received, expect, "flat n={n}: every copy reached an inbox");
    Outcome {
        peak,
        sustained: stats.delivered() as f64 / wall,
        bytes_per_client_tick: stats.bytes_delivered() as f64 / (n * TICKS) as f64,
        sim_ms_per_tick: (net.now() - sim0).as_millis() as f64 / TICKS as f64,
    }
}

/// Brokered: `DOMAINS` hubs chained by a backbone, one relay + one
/// group per domain, clients split evenly. The domain-0 relay is the
/// publisher; each relay republishes what arrives and forwards it on.
fn run_brokered(n: usize) -> Outcome {
    let mut net = Network::new(42);
    let mut hubs: Vec<NodeId> = Vec::with_capacity(DOMAINS);
    let mut relays: Vec<SocketHandle> = Vec::with_capacity(DOMAINS);
    let mut groups: Vec<GroupId> = Vec::with_capacity(DOMAINS);
    for d in 0..DOMAINS {
        let hub = net.add_node(&format!("hub{d}"));
        if d > 0 {
            net.connect(hubs[d - 1], hub, edge());
        }
        relays.push(net.bind(hub, RELAY_PORT).expect("bind relay"));
        groups.push(net.new_group());
        hubs.push(hub);
    }
    let mut sockets = Vec::with_capacity(n);
    for i in 0..n {
        let d = i % DOMAINS;
        let node = net.add_node(&format!("c{i}"));
        net.connect(node, hubs[d], edge());
        let s = net.bind(node, PORT).expect("bind");
        net.join(s, groups[d]).expect("join");
        sockets.push(s);
    }
    let stats = net.stats_handle();
    let (mut peak, mut last_delivered, mut received) = (0.0f64, 0u64, 0u64);
    let t0 = Instant::now();
    let sim0 = net.now();
    for tick in 0..TICKS {
        let t = Instant::now();
        let payloads = batch(tick);
        net.send_batch(
            relays[0],
            Addr::multicast(groups[0], PORT),
            payloads.clone(),
        )
        .expect("publish");
        net.send_batch(relays[0], Addr::unicast(hubs[1], RELAY_PORT), payloads)
            .expect("forward");
        // Store-and-forward down the relay chain: settle, republish
        // whatever arrived, repeat until every relay has gone quiet.
        loop {
            net.run_to_quiescence();
            let mut moved = false;
            for d in 1..DOMAINS {
                let mut arrived: Vec<Payload> = Vec::new();
                while let Some(dgram) = net.recv(relays[d]) {
                    arrived.push(dgram.payload);
                }
                if arrived.is_empty() {
                    continue;
                }
                moved = true;
                if d + 1 < DOMAINS {
                    net.send_batch(
                        relays[d],
                        Addr::unicast(hubs[d + 1], RELAY_PORT),
                        arrived.clone(),
                    )
                    .expect("forward");
                }
                net.send_batch(relays[d], Addr::multicast(groups[d], PORT), arrived)
                    .expect("republish");
            }
            if !moved {
                break;
            }
        }
        received += drain(&mut net, &sockets);
        let dt = t.elapsed().as_secs_f64();
        let d = stats.delivered() - last_delivered;
        last_delivered = stats.delivered();
        peak = peak.max(d as f64 / dt);
    }
    let wall = t0.elapsed().as_secs_f64();
    // Every client hears every event once; each of the DOMAINS-1 relay
    // hops also counts as a delivery.
    let expect = (TICKS * BATCH * (n + DOMAINS - 1)) as u64;
    assert_eq!(stats.delivered(), expect, "brokered n={n}: lossless relay");
    assert_eq!(
        received,
        (TICKS * BATCH * n) as u64,
        "brokered n={n}: every client copy reached an inbox"
    );
    Outcome {
        peak,
        sustained: stats.delivered() as f64 / wall,
        bytes_per_client_tick: stats.bytes_delivered() as f64 / (n * TICKS) as f64,
        sim_ms_per_tick: (net.now() - sim0).as_millis() as f64 / TICKS as f64,
    }
}

/// What one adaptation pass costs per client in a flat session.
struct PassCost {
    us: f64,
    allocs: u64,
    bytes: u64,
    sim_ms_per_pass: u64,
}

/// `adapt_all` over `n` adaptive clients on idle hosts: one warm-up
/// pass sizes every retained buffer, then `PASSES` passes are measured.
fn run_adapt_pass(n: usize) -> PassCost {
    const PASSES: u64 = 5;
    let mut s = CollaborationSession::new(SessionConfig::default());
    for i in 0..n {
        let name = format!("c{i}");
        s.add_adaptive_client(
            sempubsub::Profile::new(&name),
            PolicyDb::paper_cpu_load_policy(),
            QosContract::default(),
            sysmon::SimHost::idle(&name),
        )
        .expect("client joins");
    }
    assert_eq!(s.adapt_all().len(), n);
    let before = (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let (t0, sim0) = (Instant::now(), s.net.now());
    for _ in 0..PASSES {
        assert_eq!(s.adapt_all().len(), n);
    }
    let wall = t0.elapsed().as_secs_f64();
    // The pass's own result vector (a decision per client) is one
    // allocation whatever the size; every other allocation, and every
    // byte, is some client's.
    let allocs = ALLOCS.load(Relaxed) - before.0 - PASSES;
    let bytes = ALLOC_BYTES.load(Relaxed) - before.1;
    let per = n as u64 * PASSES;
    assert_eq!(allocs % per, 0, "n={n}: {allocs} allocations");
    assert_eq!(bytes % per, 0, "n={n}: {bytes} bytes");
    PassCost {
        us: wall * 1e6 / per as f64,
        allocs: allocs / per,
        bytes: bytes / per,
        sim_ms_per_pass: (s.net.now() - sim0).as_millis() / PASSES,
    }
}

fn adapt_pass_table() {
    println!("\nadaptation pass — adapt_all, one GET round trip + one decision per client\n");
    let widths = [8, 10, 14, 13, 12];
    header(
        &[
            "clients",
            "us/client",
            "allocs/client",
            "bytes/client",
            "sim ms/pass",
        ],
        &widths,
    );
    let costs = [96, 768].map(|n| (n, run_adapt_pass(n)));
    for (n, c) in &costs {
        row(
            &[
                n.to_string(),
                format!("{:.2}", c.us),
                c.allocs.to_string(),
                c.bytes.to_string(),
                c.sim_ms_per_pass.to_string(),
            ],
            &widths,
        );
        // Two 1 ms poll steps per GET, one GET per client.
        assert_eq!(c.sim_ms_per_pass, 2 * *n as u64, "n={n}: sim time a pass");
    }
    let [(_, small), (_, large)] = &costs;
    assert_eq!(
        (small.allocs, small.bytes),
        (large.allocs, large.bytes),
        "(allocations, bytes) per client per pass depend on the session size"
    );
    println!(
        "\nallocations and bytes per client asserted equal at both sizes; us/client is wall clock"
    );
}

fn main() {
    let quick = quick_mode();
    let scales: &[usize] = if quick {
        &[200, 1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    println!(
        "mass-session scaling — {BATCH} x {PAYLOAD_BYTES}B events per tick, {TICKS} ticks, \
         {DOMAINS} domains when brokered\n"
    );
    let widths = [8, 9, 14, 14, 13, 12];
    header(
        &[
            "clients",
            "mode",
            "peak msgs/s",
            "sustained",
            "B/client-tick",
            "sim ms/tick",
        ],
        &widths,
    );
    for &n in scales {
        for (mode, out) in [("flat", run_flat(n)), ("brokered", run_brokered(n))] {
            row(
                &[
                    n.to_string(),
                    mode.to_string(),
                    format!("{:.0}", out.peak),
                    format!("{:.0}", out.sustained),
                    format!("{:.1}", out.bytes_per_client_tick),
                    format!("{:.1}", out.sim_ms_per_tick),
                ],
                &widths,
            );
        }
    }
    println!(
        "\npeak = best single-tick delivered rate (wall clock); sustained = whole-run rate;\n\
         delivery counts asserted against the closed-form lossless expectation per scenario"
    );
    adapt_pass_table();
}
