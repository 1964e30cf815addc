//! Layer replays: outside-in attribution of a round's cost to crates.
//!
//! On traced rounds each workload records the inputs it can see
//! crossing a crate boundary ([`RoundRec`]). After the traced phase the
//! replays re-drive each crate's public functions alone with those
//! inputs, one span per call, parented on the session-call span of the
//! round the input came from. What the replays cannot account for
//! stays in `core.unattributed_ms_per_round`.
//!
//! A replay is an estimate, not a profile: it runs with warm caches and
//! an otherwise idle allocator, and work one crate does inside another
//! (the overlay's sends inside `Overlay::process`, the custody store
//! inside the overlay) is timed where the public call lands.

use crate::measure::{allocs_tagged, Layer, Tracer};
use crate::oracle;
use crate::workloads::{ladder_policies, IMAGE_SELECTOR};
use broker::Overlay;
use cqos_core::events::AppEvent;
use cqos_core::{EngineChoice, QosContract, SessionConfig};
use dtn::{Bundle, CustodyStore};
use htb::ShapingTree;
use media::ezw;
use media::image::Scene;
use media::packetize::{reassemble_prefix, split_packets, MediaPacket};
use media::wavelet;
use sempubsub::{AttrValue, BusEndpoint, MatchEngine, Profile, SemanticMessage};
use simnet::packet::well_known;
use simnet::qdisc::{Qdisc, QdiscConfig, TrafficClass, CLASS_COUNT};
use simnet::{Addr, GroupId, LinkId, Network, NodeId, Port, SocketHandle, Ticks};
use snmp::manager::SnmpManager;
use snmp::oid::arcs;
use snmp::pdu::{Message, Pdu, PduKind};
use snmp::transport::AgentRuntime;
use snmp::SnmpAgent;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use sysmon::{install_host_agent, SimHost};
use wireless::{BaseStation, ClientRadio, ModalityThresholds, PathLossModel};

/// One message a workload published.
#[derive(Clone, Debug)]
pub enum MsgRec {
    Chat {
        publisher: usize,
        selector: String,
        text: String,
    },
    /// A shared image: metadata plus `packets_per_image` packets.
    Image {
        publisher: usize,
        scene: usize,
        object_id: u64,
        cache_hit: bool,
    },
}

/// The inputs one traced round fed the layers.
#[derive(Clone, Debug, Default)]
pub struct RoundRec {
    pub round: u32,
    /// First span of each session call in the round, by name.
    pub calls: BTreeMap<&'static str, u32>,
    pub msgs: Vec<MsgRec>,
    /// `(scene, packets accepted)` of every view returned.
    pub views: Vec<(usize, u32)>,
    /// Payloads each client's endpoint interpreted.
    pub received: Vec<u32>,
    /// Bits each subscriber leaf moved.
    pub leaf_bits: Vec<u64>,
    /// Per inter-broker link and class: packets enqueued, bytes dequeued.
    pub qdisc_pkts: Vec<[(u64, u64); CLASS_COUNT]>,
    /// Bundles that changed custodian.
    pub bundles: u64,
    pub decisions: u64,
    /// `(loss, congestion)` fractions each viewer's engine saw.
    pub reports: Vec<(f64, f64)>,
}

/// The static inputs of a workload: what the session was built from.
pub struct Shape<'a> {
    pub cfg: &'a SessionConfig,
    /// Wired clients by id, and the broker domain of each.
    pub profiles: &'a [Profile],
    pub domains: &'a [usize],
    pub scenes: &'a [Scene],
    /// Wireless clients at the base station: profile, distance, power.
    pub wireless: &'a [(Profile, f64, f64)],
    /// The shaping tree on client 0's uplink.
    pub tree: Option<&'a htb::TreeSpec>,
    /// The flat plane on every inter-broker link.
    pub qdisc: Option<&'a QdiscConfig>,
    /// Whether viewers run the congestion ladder.
    pub adaptive: bool,
}

impl Shape<'_> {
    fn domain_count(&self) -> usize {
        self.cfg.domains.unwrap_or(1)
    }
}

/// One named replay total.
#[derive(Clone, Copy, Debug, Default)]
pub struct Op {
    /// Nanoseconds (or, for `media.stream_bytes`, bytes).
    pub ns: u64,
    /// Operations the total covers.
    pub n: u64,
    /// Allocations made inside the op's spans.
    pub allocs: u64,
}

/// Everything the replays measured.
#[derive(Debug, Default)]
pub struct ReplayResults {
    /// Recorded rounds actually replayed (the time budget may cut the
    /// list short).
    pub rounds: u64,
    /// Busy nanoseconds per layer over those rounds.
    pub busy_ns: BTreeMap<Layer, u64>,
    pub ops: BTreeMap<&'static str, Op>,
    /// Rounds whose predicted per-client message sets disagreed with
    /// the counts the endpoints reported.
    pub input_mismatches: u64,
}

/// Shared by every replay: the span log and the running totals.
struct Run<'a> {
    tracer: &'a mut Tracer,
    out: ReplayResults,
    /// The untimed first pass: nothing is recorded.
    warming: bool,
}

impl Run<'_> {
    /// Time `f` as one span of `layer` covering `n` operations. `busy`
    /// says whether the time counts towards the layer's busy time (a
    /// replay nested inside another's cost does not).
    #[allow(clippy::too_many_arguments)]
    fn op<R>(
        &mut self,
        key: &'static str,
        layer: Layer,
        round: u32,
        parent: Option<u32>,
        n: u64,
        busy: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.warming {
            return f();
        }
        let allocs = allocs_tagged(layer);
        let (out, idx) = self.tracer.span(key, layer, round, parent, f);
        let ns = idx.map_or(0, |i| self.tracer.spans[i as usize].dur_ns());
        let op = self.out.ops.entry(key).or_default();
        op.ns += ns;
        op.n += n;
        op.allocs += allocs_tagged(layer) - allocs;
        if busy {
            *self.out.busy_ns.entry(layer).or_default() += ns;
        }
        out
    }
}

/// One message on the wire, rebuilt from a [`MsgRec`].
struct Wire {
    publisher: usize,
    kind: &'static str,
    selector: String,
    content: BTreeMap<String, AttrValue>,
    payload: Vec<u8>,
    /// The publisher's domain, and the domains the message is
    /// delivered into (the home domain always is).
    home: usize,
    reach: Vec<bool>,
}

/// Replay every layer for the recorded rounds. The list is cut short
/// to what fits `budget_s` of wall time (a budget of zero replays all).
///
/// Every round is replayed twice: a first, unrecorded pass warms the
/// standalone instances (selector caches, route memos, inboxes) the
/// way the session's own warm-up rounds warmed the real ones, then the
/// timed pass runs over the same rounds.
pub fn run(
    shape: &Shape,
    recs: &[RoundRec],
    tracer: &mut Tracer,
    budget_s: f64,
    seed: u64,
) -> ReplayResults {
    let mut fix = Fixtures::new(shape, seed);
    let mut run = Run {
        tracer,
        out: ReplayResults::default(),
        warming: true,
    };
    let started = Instant::now();
    let mut warmed = 0;
    for rec in recs {
        // Half the budget for each pass.
        if warmed > 0 && budget_s > 0.0 && started.elapsed().as_secs_f64() > budget_s / 2.0 {
            break;
        }
        fix.replay_round(shape, rec, &mut run);
        warmed += 1;
    }
    run.warming = false;
    for rec in &recs[..warmed] {
        fix.replay_round(shape, rec, &mut run);
        run.out.rounds += 1;
    }
    run.out
}

/// The standalone instances each layer is replayed on.
struct Fixtures {
    /// Packets of each scene shared so far, so views decode without
    /// re-encoding.
    coded: HashMap<usize, Vec<MediaPacket>>,
    seqs: Vec<u64>,
    recipients: HashMap<(String, bool), Vec<usize>>,
    publish_engine: MatchEngine,
    match_engine: MatchEngine,
    /// One endpoint per client on a scratch network that never runs.
    endpoints: Vec<BusEndpoint>,
    overlay: Option<OverlayFix>,
    store: Option<CustodyStore>,
    qdisc: Option<Qdisc<Flight>>,
    tree: Option<(ShapingTree<Flight>, Vec<u32>)>,
    net: NetFix,
    snmp: Option<SnmpFix>,
    station: Option<BaseStation>,
    engine: Option<Box<dyn cqos_core::AdaptationPolicy>>,
    now_us: u64,
}

struct OverlayFix {
    net: Network,
    ov: Overlay,
    publishers: Vec<BusEndpoint>,
    cut: Option<LinkId>,
}

/// A raw network of the session's shape: one hub per domain, chained;
/// every client on its hub with a socket in the domain group.
struct NetFix {
    net: Network,
    groups: Vec<GroupId>,
    hubs: Vec<NodeId>,
    relays: Vec<SocketHandle>,
    sockets: Vec<SocketHandle>,
}

struct SnmpFix {
    net: Network,
    agents: Vec<AgentRuntime>,
    managers: Vec<SnmpManager>,
    nodes: Vec<NodeId>,
}

const RELAY_PORT: Port = Port(9100);

/// What the egress planes queue in the replays: as large as the
/// in-flight record `simnet` queues, so queue memory traffic matches.
type Flight = [u64; 11];
const FLIGHT: Flight = [0; 11];

impl Fixtures {
    fn new(shape: &Shape, seed: u64) -> Fixtures {
        let n = shape.profiles.len();
        let domains = shape.domain_count();

        let mut scratch = Network::new(seed);
        let group = scratch.new_group();
        let endpoints = shape
            .profiles
            .iter()
            .map(|p| {
                let node = scratch.add_node(&p.name);
                BusEndpoint::join(
                    &mut scratch,
                    node,
                    well_known::SESSION_DATA,
                    group,
                    p.clone(),
                )
                .expect("scratch endpoint joins")
            })
            .collect();

        let overlay = (domains > 1).then(|| {
            let mut net = Network::new(seed);
            let mut ov = Overlay::new();
            if let Some(cfg) = shape.cfg.custody {
                ov.enable_custody(cfg);
            }
            for d in 0..domains {
                ov.add_broker(&mut net, &format!("broker-{d}"));
                if d > 0 {
                    ov.connect(&mut net, d - 1, d, shape.cfg.link);
                }
            }
            for (p, &d) in shape.profiles.iter().zip(shape.domains) {
                ov.register_local(&mut net, d, p);
            }
            ov.settle(&mut net);
            let publishers = (0..domains)
                .map(|d| {
                    let profile = Profile::new(&format!("replay-pub-{d}"));
                    let node = net.add_node(&profile.name);
                    net.connect(ov.node(d), node, shape.cfg.link);
                    BusEndpoint::join(
                        &mut net,
                        node,
                        well_known::SESSION_DATA,
                        ov.group(d),
                        profile,
                    )
                    .expect("replay publisher joins")
                })
                .collect();
            // Custody workloads cut the last chain link.
            let cut = shape
                .cfg
                .custody
                .and_then(|_| ov.link_between(domains - 2, domains - 1));
            OverlayFix {
                net,
                ov,
                publishers,
                cut,
            }
        });

        let net = {
            let mut net = Network::new(seed);
            let (mut hubs, mut relays, mut groups) = (Vec::new(), Vec::new(), Vec::new());
            for d in 0..domains {
                let hub = net.add_node(&format!("hub{d}"));
                if d > 0 {
                    net.connect(hubs[d - 1], hub, shape.cfg.link);
                }
                relays.push(net.bind(hub, RELAY_PORT).expect("relay port is free"));
                groups.push(net.new_group());
                hubs.push(hub);
            }
            let sockets = shape
                .profiles
                .iter()
                .zip(shape.domains)
                .map(|(p, &d)| {
                    let node = net.add_node(&p.name);
                    net.connect(node, hubs[d], shape.cfg.link);
                    let s = net
                        .bind(node, well_known::SESSION_DATA)
                        .expect("data port is free");
                    net.join(s, groups[d]).expect("socket just bound");
                    s
                })
                .collect();
            NetFix {
                net,
                groups,
                hubs,
                relays,
                sockets,
            }
        };

        let snmp = shape.adaptive.then(|| {
            let mut net = Network::new(seed);
            let hub = net.add_node("switch");
            let (mut agents, mut managers, mut nodes) = (Vec::new(), Vec::new(), Vec::new());
            for (i, p) in shape.profiles.iter().enumerate() {
                let node = net.add_node(&p.name);
                net.connect(hub, node, shape.cfg.link);
                let mut agent = SnmpAgent::new(&p.name, &shape.cfg.community, None);
                install_host_agent(&SimHost::idle(&p.name).shared(), &mut agent);
                agents.push(AgentRuntime::bind(&mut net, node, agent).expect("agent port is free"));
                managers.push(
                    SnmpManager::bind(
                        &mut net,
                        node,
                        Port(10_000 + i as u16),
                        &shape.cfg.community,
                    )
                    .expect("manager port is free"),
                );
                nodes.push(node);
            }
            SnmpFix {
                net,
                agents,
                managers,
                nodes,
            }
        });

        let station = (!shape.wireless.is_empty()).then(|| {
            let mut bs = BaseStation::new(PathLossModel::default(), ModalityThresholds::default());
            for (p, distance, power) in shape.wireless {
                bs.join_unchecked(ClientRadio::new(&p.name, *distance, *power))
                    .expect("distinct wireless ids");
            }
            bs
        });

        Fixtures {
            coded: HashMap::new(),
            seqs: vec![0; n],
            recipients: HashMap::new(),
            publish_engine: MatchEngine::new(),
            match_engine: MatchEngine::new(),
            endpoints,
            overlay,
            store: shape.cfg.custody.map(CustodyStore::new),
            qdisc: shape.qdisc.map(|cfg| Qdisc::new(cfg.clone())),
            tree: shape.tree.map(|spec| {
                let dsts = spec
                    .subscriber_nodes()
                    .iter()
                    .map(|&(_, dst)| dst)
                    .collect();
                (ShapingTree::new(spec.clone()), dsts)
            }),
            net,
            snmp,
            station,
            engine: shape
                .adaptive
                .then(|| EngineChoice::Threshold.build(ladder_policies(), QosContract::default())),
            now_us: 0,
        }
    }

    fn replay_round(&mut self, shape: &Shape, rec: &RoundRec, run: &mut Run) {
        let share = rec
            .calls
            .get("share_image")
            .or_else(|| rec.calls.get("share_chat"))
            .copied();
        let pump = rec.calls.get("pump").copied();
        let adapt = rec.calls.get("adapt_all").copied();
        let round = rec.round;

        let wires = self.media_and_wires(shape, rec, run, share, pump);
        self.sempubsub(shape, rec, &wires, run, share, pump);
        if self.overlay.is_some() {
            self.broker(rec, &wires, run, pump);
        }
        self.simnet(&wires, run, round, pump);
        if let Some(store) = self.store.as_mut() {
            dtn_store(store, rec, &wires, run, pump, &mut self.now_us);
        }
        let line = Line {
            bps: shape.cfg.link.bandwidth_bps,
            round,
            parent: pump,
        };
        if let Some(q) = self.qdisc.as_mut() {
            for link in &rec.qdisc_pkts {
                qdisc_link(q, link, line, run, &mut self.now_us);
            }
        }
        if let Some((tree, dsts)) = self.tree.as_mut() {
            htb_tree(
                tree,
                dsts,
                rec,
                wires.len() as u64,
                line,
                run,
                &mut self.now_us,
            );
        }
        if let Some(fix) = self.snmp.as_mut() {
            snmp_gets(fix, rec, run, adapt);
        }
        if let (Some(engine), false) = (self.engine.as_ref(), rec.reports.is_empty()) {
            let states: Vec<BTreeMap<String, f64>> = rec
                .reports
                .iter()
                .map(|&(loss, congestion)| {
                    [
                        ("cpu_load", 5.0),
                        ("page_faults", 2.0),
                        ("mem_avail_kb", 131_072.0),
                        ("loss_pct", loss * 100.0),
                        ("congestion_pct", congestion * 100.0),
                    ]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
                })
                .collect();
            let n = states.len() as u64;
            run.op("core.decide", Layer::Core, round, adapt, n, false, || {
                for state in &states {
                    std::hint::black_box(engine.decide(state));
                }
            });
        }
        if let Some(bs) = self.station.as_ref() {
            // The base station assesses each wireless client once per
            // arriving message.
            let n = wires.len() as u64 * shape.wireless.len() as u64;
            run.op(
                "wireless.assess",
                Layer::Wireless,
                round,
                pump,
                n,
                true,
                || {
                    for _ in 0..wires.len() {
                        for (p, _, _) in shape.wireless {
                            std::hint::black_box(bs.assess(&p.name));
                        }
                    }
                },
            );
        }
    }

    /// Replays `media` for the round's shares and views and rebuilds
    /// the round's messages as they went on the wire.
    fn media_and_wires(
        &mut self,
        shape: &Shape,
        rec: &RoundRec,
        run: &mut Run,
        share: Option<u32>,
        pump: Option<u32>,
    ) -> Vec<Wire> {
        let cfg = shape.cfg;
        let round = rec.round;
        let mut wires = Vec::new();
        for msg in &rec.msgs {
            match msg {
                MsgRec::Chat {
                    publisher,
                    selector,
                    text,
                } => {
                    let ev = AppEvent::Chat {
                        author: shape.profiles[*publisher].name.clone(),
                        text: text.clone(),
                    };
                    wires.push((*publisher, ev, selector.clone(), BTreeMap::new()));
                }
                MsgRec::Image {
                    publisher,
                    scene,
                    object_id,
                    cache_hit,
                } => {
                    let scene_ref = &shape.scenes[*scene];
                    let img = &scene_ref.image;
                    let levels = wavelet::max_levels(img.width, img.height).min(5);
                    let color = cfg.color_transform && img.channels == 3;
                    let encode = || {
                        ezw::encode_image_opts(img, levels, cfg.wavelet, color)
                            .expect("scene encodes")
                    };
                    // A cache hit costs `media` nothing; it still
                    // counts as a share.
                    let full = if *cache_hit {
                        if !run.warming {
                            run.out.ops.entry("media.encode").or_default().n += 1;
                        }
                        encode()
                    } else {
                        run.op("media.encode", Layer::Media, round, share, 1, true, encode)
                    };
                    let packets = run.op(
                        "media.packetize",
                        Layer::Media,
                        round,
                        share,
                        1,
                        true,
                        || {
                            let budget = cfg
                                .full_stream_bpp
                                .map(|bpp| (img.pixels() as f64 * bpp / 8.0) as usize)
                                .filter(|&b| b < full.len());
                            match budget {
                                Some(b) => split_packets(
                                    &ezw::truncate_container(&full, b).expect("container cuts"),
                                    cfg.packets_per_image,
                                ),
                                None => split_packets(&full, cfg.packets_per_image),
                            }
                        },
                    );
                    if !run.warming {
                        let stream = run.out.ops.entry("media.stream_bytes").or_default();
                        stream.ns += packets.iter().map(|p| p.payload.len() as u64).sum::<u64>();
                        stream.n += 1;
                    }
                    let content = oracle::image_content(scene_ref);
                    let meta = AppEvent::ImageMeta {
                        object_id: *object_id,
                        caption: scene_ref.caption.clone(),
                        original_bytes: img.byte_len() as u64,
                        pixels: img.pixels() as u64,
                        total_packets: packets.len() as u16,
                    };
                    wires.push((
                        *publisher,
                        meta,
                        IMAGE_SELECTOR.to_string(),
                        content.clone(),
                    ));
                    for packet in &packets {
                        let ev = AppEvent::ImagePacket {
                            object_id: *object_id,
                            packet: packet.clone(),
                        };
                        wires.push((*publisher, ev, IMAGE_SELECTOR.to_string(), content.clone()));
                    }
                    self.coded.insert(*scene, packets);
                }
            }
        }
        for &(scene, keep) in &rec.views {
            let packets = &self.coded[&scene];
            let keep = (keep as usize).min(packets.len());
            run.op("media.decode", Layer::Media, round, pump, 1, true, || {
                let container = reassemble_prefix(&packets[..keep]).expect("prefix reassembles");
                std::hint::black_box(ezw::decode_image(&container).expect("prefix decodes"))
            });
        }

        // Encode each message as the publisher's endpoint does.
        let domains = shape.domain_count();
        wires
            .into_iter()
            .map(|(publisher, ev, selector, content)| {
                let seq = self.seqs[publisher];
                self.seqs[publisher] += 1;
                let engine = &mut self.publish_engine;
                let payload = run.op(
                    "sempubsub.publish",
                    Layer::Sempubsub,
                    round,
                    share,
                    1,
                    true,
                    || {
                        engine.compile(&selector).expect("workload selectors parse");
                        SemanticMessage {
                            sender: shape.profiles[publisher].name.clone(),
                            kind: ev.kind().to_string(),
                            selector: selector.clone(),
                            seq,
                            content: content.clone(),
                            body: ev.encode(),
                        }
                        .encode()
                    },
                );
                let to = self
                    .recipients
                    .entry((selector.clone(), content.is_empty()))
                    .or_insert_with(|| oracle::recipients(shape.profiles, &selector, &content));
                let mut reach = vec![false; domains];
                reach[shape.domains[publisher]] = true;
                for &c in to.iter().filter(|&&c| c != publisher) {
                    reach[shape.domains[c]] = true;
                }
                Wire {
                    publisher,
                    home: shape.domains[publisher],
                    kind: ev.kind(),
                    selector,
                    content,
                    payload,
                    reach,
                }
            })
            .collect()
    }

    /// `BusEndpoint::interpret_batch` per receiving client, the pure
    /// matching inside it (`MatchEngine::interpret`, nested, so not
    /// busy time of its own), and the base station's matching of every
    /// message against every wireless profile.
    fn sempubsub(
        &mut self,
        shape: &Shape,
        rec: &RoundRec,
        wires: &[Wire],
        run: &mut Run,
        share: Option<u32>,
        pump: Option<u32>,
    ) {
        let round = rec.round;
        let mut mismatch = false;
        for (c, endpoint) in self.endpoints.iter_mut().enumerate() {
            let got = rec.received.get(c).copied().unwrap_or(0) as usize;
            if got == 0 {
                continue;
            }
            let d = shape.domains[c];
            let mut mine: Vec<&Wire> = wires
                .iter()
                .filter(|w| w.publisher != c && w.reach[d])
                .collect();
            if mine.len() != got {
                // Keep the recorded count; the set is the best guess.
                mismatch = true;
                if mine.is_empty() {
                    mine = wires.iter().collect();
                }
                mine = mine.iter().copied().cycle().take(got).collect();
            }
            let payloads: Vec<&[u8]> = mine.iter().map(|w| w.payload.as_slice()).collect();
            let n = payloads.len() as u64;
            run.op(
                "sempubsub.interpret",
                Layer::Sempubsub,
                round,
                pump,
                n,
                true,
                || std::hint::black_box(endpoint.interpret_batch(payloads)),
            );
            let engine = &mut self.match_engine;
            let profile = &shape.profiles[c];
            run.op(
                "sempubsub.match",
                Layer::Sempubsub,
                round,
                pump,
                n,
                false,
                || {
                    for w in &mine {
                        engine
                            .compile(&w.selector)
                            .expect("workload selectors parse");
                        let _ = std::hint::black_box(engine.interpret(
                            profile,
                            &w.selector,
                            &w.content,
                        ));
                    }
                },
            );
        }
        run.out.input_mismatches += (mismatch && !run.warming) as u64;
        if !shape.wireless.is_empty() {
            let engine = &mut self.match_engine;
            let n = (wires.len() * shape.wireless.len()) as u64;
            run.op(
                "sempubsub.match",
                Layer::Sempubsub,
                round,
                share,
                n,
                true,
                || {
                    for w in wires {
                        engine
                            .compile(&w.selector)
                            .expect("workload selectors parse");
                        for (p, _, _) in shape.wireless {
                            let _ =
                                std::hint::black_box(engine.interpret(p, &w.selector, &w.content));
                        }
                    }
                },
            );
        }
    }

    /// `Overlay::process` on a hand-built overlay holding the same
    /// advertisements: publishing and advancing time are not timed,
    /// each `process` call is. The domain groups have no members, so
    /// fan-out into them costs nothing here (it is `simnet`'s). Each
    /// message's wire form rides as the body of the replayed one: a few
    /// header bytes more than the original, the same selector and
    /// content description.
    fn broker(&mut self, rec: &RoundRec, wires: &[Wire], run: &mut Run, pump: Option<u32>) {
        let fix = self.overlay.as_mut().expect("checked by the caller");
        let round = rec.round;
        if let Some(link) = fix.cut {
            fix.net.topology_mut().set_link_up(link, false);
        }
        for w in wires {
            fix.publishers[w.home]
                .publish(
                    &mut fix.net,
                    w.kind,
                    &w.selector,
                    w.content.clone(),
                    w.payload.clone(),
                )
                .expect("replay publish succeeds");
        }
        let brokers = fix.ov.broker_count();
        let msgs = wires.len() as u64;
        let process_until_quiet = |fix: &mut OverlayFix, run: &mut Run, mut n: u64| {
            let mut quiet = 0;
            for _ in 0..64 {
                fix.net.run_for(Ticks::from_millis(5));
                let mut activity = 0;
                for i in 0..brokers {
                    let (net, ov) = (&mut fix.net, &mut fix.ov);
                    activity += run.op(
                        "broker.process",
                        Layer::Broker,
                        round,
                        pump,
                        std::mem::take(&mut n),
                        true,
                        || ov.process(net, i),
                    );
                }
                quiet = if activity == 0 { quiet + 1 } else { 0 };
                if quiet >= 2 {
                    break;
                }
            }
        };
        process_until_quiet(fix, run, msgs);
        if let Some(link) = fix.cut {
            fix.net.topology_mut().set_link_up(link, true);
            process_until_quiet(fix, run, 0);
        }
        // Keep the replay publishers' inboxes from growing.
        for p in fix.publishers.iter_mut() {
            p.drain_raw(&mut fix.net);
        }
    }

    /// `send_batch` + `run_for` + `recv` on a raw network of the same
    /// shape: each message is multicast into its home domain, relayed
    /// hub to hub, and multicast again wherever it is delivered.
    fn simnet(&mut self, wires: &[Wire], run: &mut Run, round: u32, pump: Option<u32>) {
        let fix = &mut self.net;
        let stats = fix.net.stats_handle();
        let before = stats.delivered();
        run.op(
            "simnet.delivery",
            Layer::Simnet,
            round,
            pump,
            0,
            true,
            || {
                // Member-major batches per (publisher, reach), in order.
                let mut i = 0;
                while i < wires.len() {
                    let first = &wires[i];
                    let mut j = i + 1;
                    while j < wires.len()
                        && wires[j].publisher == first.publisher
                        && wires[j].reach == first.reach
                    {
                        j += 1;
                    }
                    let batch = || -> Vec<Vec<u8>> {
                        wires[i..j].iter().map(|w| w.payload.clone()).collect()
                    };
                    let home = first.home;
                    fix.net
                        .send_batch(
                            fix.sockets[first.publisher],
                            Addr::multicast(fix.groups[home], well_known::SESSION_DATA),
                            batch(),
                        )
                        .expect("replay multicast succeeds");
                    for (d, &hit) in first.reach.iter().enumerate() {
                        if !hit || d == home {
                            continue;
                        }
                        fix.net
                            .send_batch(
                                fix.relays[home],
                                Addr::unicast(fix.hubs[d], RELAY_PORT),
                                batch(),
                            )
                            .expect("replay relay succeeds");
                        fix.net
                            .send_batch(
                                fix.relays[d],
                                Addr::multicast(fix.groups[d], well_known::SESSION_DATA),
                                batch(),
                            )
                            .expect("replay multicast succeeds");
                    }
                    i = j;
                }
                fix.net.run_to_quiescence();
                for &s in fix.sockets.iter().chain(&fix.relays) {
                    while fix.net.recv(s).is_some() {}
                }
            },
        );
        if !run.warming {
            run.out.ops.entry("simnet.delivery").or_default().n += stats.delivered() - before;
        }
    }
}

/// Standalone `CustodyStore`: store the round's bundles, then drain
/// them in order (`due_for` + `release`), as a heal does.
fn dtn_store(
    store: &mut CustodyStore,
    rec: &RoundRec,
    wires: &[Wire],
    run: &mut Run,
    pump: Option<u32>,
    now_us: &mut u64,
) {
    if rec.bundles == 0 || wires.is_empty() {
        return;
    }
    *now_us += 1_000;
    let now = Ticks::from_micros(*now_us);
    let lifetime = store.config().lifetime;
    let bundles: Vec<Bundle> = (0..rec.bundles)
        .map(|i| Bundle {
            source: format!("replay-{}", rec.round),
            seq: i,
            src_domain: 0,
            dst_domain: 1,
            created_at: now,
            lifetime,
            custody: true,
            payload: wires[i as usize % wires.len()].payload.clone(),
        })
        .collect();
    let n = bundles.len() as u64;
    run.op("dtn.store", Layer::Dtn, rec.round, pump, n, true, || {
        for b in bundles {
            store.insert(b, now);
        }
    });
    run.op("dtn.drain", Layer::Dtn, rec.round, pump, n, true, || {
        for b in store.due_for(1, now) {
            store.release(&b.source, b.seq);
        }
    });
}

/// The line an egress plane feeds, and where its replay spans hang.
#[derive(Clone, Copy)]
struct Line {
    bps: u64,
    round: u32,
    parent: Option<u32>,
}

/// Microseconds a link of `bps` needs to serialise `bytes`.
fn serialisation_us(bytes: u32, bps: u64) -> u64 {
    (bytes as u64 * 8 * 1_000_000).div_ceil(bps)
}

/// Standalone `Qdisc`, driven the way `simnet` drives the plane on a
/// link: each arrival is followed by a `next_ready` probe, each
/// release occupies the line for its serialisation time, and the next
/// service instant is `next_ready(line idle)`.
fn qdisc_link(
    q: &mut Qdisc<Flight>,
    link: &[(u64, u64); CLASS_COUNT],
    at: Line,
    run: &mut Run,
    now_us: &mut u64,
) {
    let Line {
        bps: link_bps,
        round,
        parent: pump,
    } = at;
    let pkts: u64 = link.iter().map(|c| c.0).sum();
    if pkts == 0 {
        return;
    }
    run.op("qdisc.pkt", Layer::Qdisc, round, pump, pkts, true, || {
        let mut t = *now_us + 1_000_000;
        for (class, &(n, bytes)) in TrafficClass::ALL.iter().zip(link) {
            let size = bytes.checked_div(n).unwrap_or(0) as u32;
            // Arrivals trickle in over the session's pump slices; feed
            // them in bursts the shortest class queue holds.
            let mut left = n;
            while left > 0 {
                let burst = left.min(32);
                for _ in 0..burst {
                    let _ = q.enqueue(t, *class, size, false, FLIGHT);
                    std::hint::black_box(q.next_ready(t));
                }
                left -= burst;
                let mut busy = t;
                while let Some(at) = q.next_ready(busy.max(t)) {
                    t = at;
                    if let Some(rel) = q.dequeue(t).released {
                        busy = t + serialisation_us(rel.bytes, link_bps);
                    }
                }
            }
        }
        *now_us = t;
    });
}

/// Standalone `ShapingTree` with the session's `TreeSpec`, driven the
/// way `simnet` drives the tree on a link (see [`qdisc_link`]): each
/// leaf gets the round's packets (its recorded bits split evenly) at
/// one instant, as a multicast share enqueues them.
fn htb_tree(
    tree: &mut ShapingTree<Flight>,
    dsts: &[u32],
    rec: &RoundRec,
    msgs: u64,
    at: Line,
    run: &mut Run,
    now_us: &mut u64,
) {
    if msgs == 0 || rec.leaf_bits.iter().all(|&b| b == 0) {
        return;
    }
    let (link_bps, pump) = (at.bps, at.parent);
    let pkts = msgs * rec.leaf_bits.iter().filter(|&&b| b > 0).count() as u64;
    run.op("htb.pkt", Layer::Htb, rec.round, pump, pkts, true, || {
        // Every bucket refills between rounds, as during the session's
        // adaptation pause.
        let mut t = *now_us + 2_000_000;
        for (&dst, &bits) in dsts.iter().zip(&rec.leaf_bits) {
            let size = (bits / 8 / msgs) as u32;
            for _ in 0..if bits == 0 { 0 } else { msgs } {
                let _ = tree.enqueue(t, dst, well_known::SESSION_DATA.0, size, false, FLIGHT);
                std::hint::black_box(tree.next_ready(t));
            }
        }
        let mut busy = t;
        while let Some(at) = tree.next_ready(busy.max(t)) {
            t = at;
            if let Some(rel) = tree.dequeue(t).released {
                busy = t + serialisation_us(rel.bytes, link_bps);
            }
        }
        *now_us = t;
    });
}

/// One GET round trip per decision, each manager asking the agent on
/// its own node for the three host metrics (what `NetworkState
/// Interface::sample` does), with every agent serviced per poll step
/// as the session services them; plus the BER work of one exchange.
fn snmp_gets(fix: &mut SnmpFix, rec: &RoundRec, run: &mut Run, adapt: Option<u32>) {
    if rec.decisions == 0 {
        return;
    }
    let oids = [
        arcs::host_cpu_load(),
        arcs::host_page_faults(),
        arcs::host_mem_avail(),
    ];
    let n = (rec.decisions as usize).min(fix.managers.len());
    run.op(
        "snmp.get",
        Layer::Snmp,
        rec.round,
        adapt,
        n as u64,
        true,
        || {
            let mut refs: Vec<&mut AgentRuntime> = fix.agents.iter_mut().collect();
            for i in 0..n {
                fix.managers[i]
                    .get(&mut fix.net, &mut refs, fix.nodes[i], &oids)
                    .expect("replay GET succeeds");
            }
        },
    );
    run.op(
        "snmp.ber",
        Layer::Snmp,
        rec.round,
        adapt,
        2 * n as u64,
        false,
        || {
            for i in 0..n {
                let pdu = Pdu::request(PduKind::GetRequest, i as i32, oids.to_vec());
                let wire = Message::new("public", pdu).encode();
                let back = Message::decode(&wire).expect("own encoding decodes");
                std::hint::black_box(
                    Message::new("public", back.pdu.response(Vec::new())).encode(),
                );
            }
        },
    );
}
