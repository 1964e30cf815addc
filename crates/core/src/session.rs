//! The collaboration session: wired clients as multicast peers, the
//! base station as the wireless gateway (§4, §5).
//!
//! A [`CollaborationSession`] owns the simulated network and wires
//! together, per wired client: the semantic bus endpoint, the simulated
//! host with its SNMP extension agent, the SNMP-backed network state
//! interface, the inference engine, and the three application entities.
//! Wireless clients attach through the [`BsPeer`], which holds their
//! radio profiles, computes SIRs, and forwards their contributions in
//! the SIR-appropriate modality.

use crate::apps::{ChatArea, ImageViewer, ViewStore, ViewedImage, Whiteboard};
use crate::concurrency::{LamportClock, LockManager};
use crate::contract::QosContract;
use crate::engines::EngineChoice;
use crate::events::AppEvent;
use crate::inference::AdaptationDecision;
use crate::netstate::{AgentDirectory, NetworkStateInterface};
use crate::policy::{AdaptationPolicy, PolicyDb};
use crate::probe::{EchoResponder, LatencyProbe};
use crate::state_repo::{ObjectState, StateRepository};
use crate::transformer::{
    MediaCache, MediaCacheStatsHandle, MediaKind, MediaObject, TransformerRegistry,
};
use media::image::Scene;
use media::packetize::split_packets;
use media::wavelet::{self, WaveletKind};
use media::Sketch;
use sempubsub::{AttrValue, BusEndpoint, Frame, Profile, SelectorStore};
use simnet::packet::well_known;
use simnet::{GroupId, LinkSpec, Network, NodeId, Port, Ticks};
use snmp::transport::AgentRuntime;
use snmp::SnmpAgent;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sysmon::{install_host_agent, SimHost};
use wireless::{BaseStation, ClientRadio, Modality, ModalityThresholds, PathLossModel};

/// Session-wide configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Packets each shared image is split into (the paper uses 16).
    pub packets_per_image: usize,
    /// Wavelet filter for image coding.
    pub wavelet: WaveletKind,
    /// Cap the embedded stream at this many bits per pixel before
    /// splitting (None = ship the full lossless stream). The paper's
    /// image viewer peaks at ~2.1 bpp (grayscale) / ~14.3 bpp (colour).
    pub full_stream_bpp: Option<f64>,
    /// Apply reversible YCoCg-R decorrelation to colour images before
    /// coding (lossless; usually shrinks the stream).
    pub color_transform: bool,
    /// LAN link characteristics.
    pub link: LinkSpec,
    /// Fault-injection model attached to every session link as it is
    /// created (`None` = clean links). `Some(FaultModel::none())` is
    /// bit-identical to `None`: inert models draw no randomness.
    pub fault: Option<simnet::FaultModel>,
    /// SNMP community.
    pub community: String,
    /// Worker threads for per-client pipeline stages (event
    /// interpretation, media decoding, inference). `1` runs everything
    /// serially on the caller's thread; any value produces bit-identical
    /// results (see [`crate::shard`]).
    pub workers: usize,
    /// Brokered mode: `Some(n)` replaces the flat multicast session
    /// with an `n`-domain broker overlay (a chain of `broker::Overlay`
    /// nodes). Clients attach to their domain broker round-robin (or
    /// explicitly via
    /// [`CollaborationSession::add_wired_client_in_domain`]) and
    /// messages are routed by selector covering instead of flooded;
    /// delivery outcomes are bit-identical to `None`. Inter-broker
    /// links take the configured `link`/`fault`, and each broker
    /// serves `tassl.21.*` MIB rows through its own agent.
    pub domains: Option<usize>,
    /// Disruption-tolerant custody: `Some(cfg)` attaches a bounded
    /// custody store to every broker (brokered mode only). Messages
    /// addressed to a partitioned neighbor domain are stored as
    /// bundles and drained in order after heal instead of dropped;
    /// each broker serves `tassl.23.*` store rows and arms a
    /// `qosStoreAlert` trap at the quota high watermark. `None` (the
    /// default) is bit-identical to a session built before the store
    /// existed.
    pub custody: Option<dtn::StoreConfig>,
    /// Which adaptation engine
    /// [`CollaborationSession::add_adaptive_client`] builds per
    /// client: the paper's threshold bands (default), the fuzzy
    /// controller, or the Bayesian network. Clients added through
    /// [`CollaborationSession::add_wired_client`] carry whatever
    /// engine the caller constructed and ignore this setting.
    pub engine: EngineChoice,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 42,
            packets_per_image: 16,
            wavelet: WaveletKind::Cdf53,
            full_stream_bpp: None,
            color_transform: false,
            link: LinkSpec::lan(),
            fault: None,
            community: "public".to_string(),
            workers: 1,
            domains: None,
            custody: None,
            engine: EngineChoice::Threshold,
        }
    }
}

/// Index of a wired client within the session.
pub type ClientId = usize;

/// Capacity of the session's one selector store, in compiled programs.
/// Every endpoint, the base station and every publisher of the session
/// compile through it, so it must hold the *session's* working set of
/// distinct selector strings, not one endpoint's: a few hundred topic
/// selectors cycled through a reshuffled deck would evict each other
/// out of a per-endpoint-sized 256 on every round. 4 096 programs at
/// ≈1.1 KiB each is ≈4.5 MiB worst case — against clients × 256 when
/// every endpoint kept its own — and still bounds a hostile stream of
/// never-repeating selectors (eviction is O(1)).
const SESSION_SELECTOR_CAPACITY: usize = 4096;

/// One wired client's full runtime (§4.1).
pub struct ClientRuntime {
    /// Client name (profile identity; never used for addressing).
    pub name: String,
    /// The client's node.
    pub node: NodeId,
    /// Semantic bus endpoint (communication module).
    pub bus: BusEndpoint,
    /// The simulated host this client runs on.
    pub host: SimHost,
    /// SNMP-backed system/network state sampler.
    pub netstate: NetworkStateInterface,
    /// The adaptation engine (threshold, fuzzy, or Bayesian — any
    /// [`AdaptationPolicy`]).
    pub engine: Box<dyn AdaptationPolicy>,
    /// Image viewer application entity.
    pub viewer: ImageViewer,
    /// Chat area application entity.
    pub chat: ChatArea,
    /// Whiteboard application entity.
    pub whiteboard: Whiteboard,
    /// Client state repository.
    pub repo: StateRepository,
    /// Lamport clock for event ordering.
    pub clock: LamportClock,
    /// Lock manager for concurrency control.
    pub locks: LockManager,
    /// Sketches received (object id, sketch, caption).
    pub sketches: Vec<(u64, Sketch, String)>,
    /// Latency prober, when enabled.
    probe: Option<LatencyProbe>,
    /// The client's access link (switch ↔ client, or domain broker ↔
    /// client in brokered mode); the mount point for a per-link
    /// traffic-control plane ([`CollaborationSession::attach_qdisc`]).
    pub link: simnet::LinkId,
    /// Broker domain the client attached to (always 0 in flat mode).
    pub domain: usize,
    /// Measured RTP loss fraction in `[0, 1]` from the latest ingested
    /// receiver report; included in adaptation state as `loss_pct`.
    pub rtp_loss: Option<f64>,
    /// Measured ECN Congestion-Experienced fraction in `[0, 1]` from
    /// the latest ingested receiver report; included in adaptation
    /// state as `congestion_pct`. Moves before `loss_pct` does: the
    /// AQM marks ECN-capable traffic where it would drop anything
    /// else.
    pub rtp_congestion: Option<f64>,
    /// The latest adaptation decision.
    pub last_decision: Option<AdaptationDecision>,
}

impl ClientRuntime {
    /// Add the figures of the latest ingested RTP receiver report to a
    /// sampled `state`.
    fn fold_rtp_report(&self, state: &mut BTreeMap<String, f64>) {
        if let Some(loss) = self.rtp_loss {
            state.insert("loss_pct".to_string(), loss * 100.0);
        }
        if let Some(ce) = self.rtp_congestion {
            state.insert("congestion_pct".to_string(), ce * 100.0);
        }
    }
}

/// A downlink delivery record: what the base station relayed to one
/// wireless client for one session event.
#[derive(Debug, Clone, PartialEq)]
pub struct DownlinkDelivery {
    /// Wireless client id.
    pub client: String,
    /// Event kind relayed.
    pub kind: String,
    /// Modality the radio conditions allowed for this client.
    pub modality: Modality,
}

/// The base station peer: gateway of the wireless extension (§4.2).
pub struct BsPeer {
    /// Radio-level QoS manager.
    pub station: BaseStation,
    /// The BS's own bus endpoint (it is a peer in the session).
    pub bus: BusEndpoint,
    /// Transformer suite used for modality reduction.
    pub registry: TransformerRegistry,
    /// Node the BS occupies.
    pub node: NodeId,
    /// Forwarding log: (client, modality chosen).
    pub forward_log: Vec<(String, Modality)>,
    /// Semantic profiles of the attached wireless clients — "it
    /// maintains the profiles of all the wireless clients connected to
    /// it and manages QoS on their behalf" (§1, §4.2). Ordered map:
    /// the downlink relay iterates it per arriving event, and relay
    /// order must be deterministic (client-id order), not hash order.
    pub wireless_profiles: std::collections::BTreeMap<String, Profile>,
    /// Downlink relay log: session events delivered to wireless
    /// clients, with the modality their SIR allowed.
    pub downlink_log: Vec<DownlinkDelivery>,
    /// Compiled matcher for downlink interpretation: the BS evaluates
    /// every session event against *each* wireless profile, so one
    /// engine (the arriving frame's program, one snapshot per attached
    /// profile) replaces a parse per message and a tree walk per
    /// profile.
    pub matcher: sempubsub::MatchEngine,
}

/// The collaboration session.
pub struct CollaborationSession {
    /// The simulated network (public for test instrumentation).
    pub net: Network,
    group: GroupId,
    switch: NodeId,
    cfg: SessionConfig,
    clients: Vec<ClientRuntime>,
    /// Every SNMP agent of the session — client hosts, routers, brokers
    /// — under the node it is bound on.
    agents: AgentDirectory,
    next_object_id: u64,
    /// Router speed knobs, keyed by router node.
    routers: Vec<(NodeId, Arc<AtomicU64>)>,
    /// Echo reflectors for latency probing, keyed by node.
    echoes: Vec<(NodeId, EchoResponder)>,
    /// The wireless gateway, if attached.
    pub base_station: Option<BsPeer>,
    /// The broker overlay, when `SessionConfig::domains` is set.
    overlay: Option<broker::Overlay>,
    /// Per-broker `local_suppressed` totals already credited to client
    /// `BusStats` via `note_suppressed` (so pump credits only deltas).
    broker_credited: Vec<u64>,
    /// One custody-store high-watermark watcher per broker, when
    /// `SessionConfig::custody` is set, paired with the broker's node.
    store_watchers: Vec<(NodeId, crate::trapwatch::StoreWatcher)>,
    /// One plan-ceiling watcher per subscriber leaf of each mounted
    /// shaping tree, paired with the node of the client whose
    /// extension agent emits the trap.
    plan_watchers: Vec<(NodeId, crate::trapwatch::PlanWatcher)>,
    /// Encode-once transcode cache: shared image encodes are keyed by
    /// content hash so re-shares and multi-tier degradations reuse one
    /// embedded stream.
    media_cache: MediaCache,
    /// The session's one selector store: every endpoint, every broker
    /// and the base station compile through it, so a selector string
    /// is compiled once per session, and the frame the first of them
    /// leaves on a message buffer serves all the others.
    selectors: SelectorStore,
    /// The session's one view store: every client's image viewer
    /// decodes through it, so a prefix of a shared object is decoded
    /// once per session, not once per viewer holding it.
    views: ViewStore,
}

impl CollaborationSession {
    /// A fresh session with a switch-based LAN — or, when
    /// `cfg.domains` is `Some(n)`, a brokered session: a chain of `n`
    /// domain brokers (inter-broker links use the configured
    /// `link`/`fault`), each with its own SNMP extension agent serving
    /// the `tassl.21.*` rows, plus an uplink from the switch to broker
    /// 0 so routers, echo nodes, and the base station stay reachable.
    pub fn new(cfg: SessionConfig) -> CollaborationSession {
        let mut net = Network::new(cfg.seed);
        let switch = net.add_node("switch");
        let group = net.new_group();
        let mut overlay = None;
        let mut agents = AgentDirectory::new();
        let mut broker_credited = Vec::new();
        let mut store_watchers = Vec::new();
        let selectors = SelectorStore::with_capacity(SESSION_SELECTOR_CAPACITY);
        if let Some(n) = cfg.domains {
            assert!(n > 0, "brokered session needs at least one domain");
            let mut ov = broker::Overlay::with_store(selectors.clone());
            if let Some(store_cfg) = cfg.custody {
                ov.enable_custody(store_cfg);
            }
            for i in 0..n {
                let name = format!("broker-{i}");
                let b = ov.add_broker(&mut net, &name);
                if i > 0 {
                    let link = ov.connect(&mut net, i - 1, i, cfg.link);
                    fault_link(&mut net, &cfg, link);
                }
                let mut agent = SnmpAgent::new(&name, &cfg.community, None);
                broker::install_broker_metrics(&mut agent, i as u32, &ov.stats(b));
                if let (Some(store_cfg), Some(stats)) = (cfg.custody, ov.store_stats(b)) {
                    dtn::install_store_metrics(&mut agent, i as u32, &stats);
                    store_watchers.push((
                        ov.node(b),
                        crate::trapwatch::StoreWatcher::new(
                            i as u32,
                            stats,
                            store_cfg.high_watermark_bytes(),
                        ),
                    ));
                }
                let rt = AgentRuntime::bind(&mut net, ov.node(b), agent)
                    .expect("fresh broker node binds its agent port");
                agents.insert(rt);
                broker_credited.push(0);
            }
            let uplink = net.connect(switch, ov.node(0), cfg.link);
            fault_link(&mut net, &cfg, uplink);
            overlay = Some(ov);
        }
        CollaborationSession {
            selectors,
            net,
            group,
            switch,
            cfg,
            clients: Vec::new(),
            agents,
            next_object_id: 1,
            routers: Vec::new(),
            echoes: Vec::new(),
            base_station: None,
            overlay,
            broker_credited,
            store_watchers,
            plan_watchers: Vec::new(),
            media_cache: MediaCache::with_capacity(32),
            views: ViewStore::new(),
        }
    }

    /// Session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Live encode-once media-cache counters (hits/misses/evictions);
    /// the clone shares the cells, so it stays current as the session
    /// shares images.
    pub fn media_cache_stats(&self) -> MediaCacheStatsHandle {
        self.media_cache.stats()
    }

    /// The session's selector store (programs held, live hit / miss /
    /// eviction counters).
    pub fn selector_store(&self) -> &SelectorStore {
        &self.selectors
    }

    /// The session's view store (views held, live hit / miss counts).
    pub fn view_store(&self) -> &ViewStore {
        &self.views
    }

    /// Connect `node` to the session switch with the configured link
    /// and fault model.
    fn connect_to_switch(&mut self, node: NodeId) -> simnet::LinkId {
        let link = self.net.connect(self.switch, node, self.cfg.link);
        fault_link(&mut self.net, &self.cfg, link)
    }

    /// Number of wired clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Access a client runtime.
    pub fn client(&self, id: ClientId) -> &ClientRuntime {
        &self.clients[id]
    }

    /// Mutable access to a client runtime.
    pub fn client_mut(&mut self, id: ClientId) -> &mut ClientRuntime {
        &mut self.clients[id]
    }

    /// Add a wired client: joins the multicast session as a peer with
    /// its own host, extension agent, state interface, and engine. In
    /// brokered mode the client lands in domain `id % domains`
    /// (round-robin); use
    /// [`CollaborationSession::add_wired_client_in_domain`] to choose.
    pub fn add_wired_client(
        &mut self,
        profile: Profile,
        engine: impl AdaptationPolicy + 'static,
        host: SimHost,
    ) -> Result<ClientId, String> {
        let domain = match self.cfg.domains {
            Some(n) => self.clients.len() % n,
            None => 0,
        };
        self.add_wired_client_in_domain(profile, engine, host, domain)
    }

    /// Add a wired client whose engine is built from
    /// [`SessionConfig::engine`]: the threshold engine consumes the
    /// given policy database, while the fuzzy and Bayesian engines
    /// use their built-in knowledge plus the contract.
    pub fn add_adaptive_client(
        &mut self,
        profile: Profile,
        policies: PolicyDb,
        contract: QosContract,
        host: SimHost,
    ) -> Result<ClientId, String> {
        let engine = self.cfg.engine.build(policies, contract);
        self.add_wired_client(profile, engine, host)
    }

    /// Add a wired client to an explicit broker domain. In flat mode
    /// only `domain == 0` is valid. In brokered mode the client's
    /// access link runs to its domain broker, its profile is
    /// advertised into the overlay (and flooded broker-to-broker,
    /// merged by covering), and its bus joins the domain's local
    /// multicast group; the overlay is then settled so later publishes
    /// route immediately.
    pub fn add_wired_client_in_domain(
        &mut self,
        profile: Profile,
        engine: impl AdaptationPolicy + 'static,
        host: SimHost,
        domain: usize,
    ) -> Result<ClientId, String> {
        let id = self.clients.len();
        let name = profile.name.clone();
        let node = self.net.add_node(&name);
        let (link, group) = if let Some(ov) = self.overlay.as_mut() {
            if domain >= ov.broker_count() {
                return Err(format!(
                    "domain {domain} out of range (session has {} domains)",
                    ov.broker_count()
                ));
            }
            let link = self.net.connect(ov.node(domain), node, self.cfg.link);
            fault_link(&mut self.net, &self.cfg, link);
            ov.register_local(&mut self.net, domain, &profile);
            (link, ov.group(domain))
        } else {
            if domain != 0 {
                return Err(format!(
                    "domain {domain} requires brokered mode (SessionConfig::domains)"
                ));
            }
            (self.connect_to_switch(node), self.group)
        };

        let mut agent = SnmpAgent::new(&name, &self.cfg.community, None);
        install_host_agent(&host.shared(), &mut agent);
        let mut agent_rt =
            AgentRuntime::bind(&mut self.net, node, agent).map_err(|e| e.to_string())?;

        let mut netstate = NetworkStateInterface::bind(
            &mut self.net,
            node,
            Port(10_000 + id as u16),
            &self.cfg.community,
        )
        .map_err(|e| e.to_string())?;
        netstate.add_host_metrics(node);

        let bus = BusEndpoint::join_with_store(
            &mut self.net,
            node,
            well_known::SESSION_DATA,
            group,
            profile,
            self.selectors.clone(),
        )
        .map_err(|e| e.to_string())?;
        if let Some(ov) = self.overlay.as_mut() {
            ov.settle(&mut self.net);
        }
        // The session agent serves the session selector store's
        // counters (tassl.22.*) alongside the host metrics.
        crate::trapwatch::install_cache_metrics(&mut agent_rt.agent, &self.selectors.stats());

        self.agents.insert(agent_rt);
        self.clients.push(ClientRuntime {
            name,
            node,
            bus,
            host,
            netstate,
            engine: Box::new(engine),
            viewer: ImageViewer::with_store(16, self.views.clone()),
            chat: ChatArea::default(),
            whiteboard: Whiteboard::default(),
            repo: StateRepository::new(),
            clock: LamportClock::new(),
            locks: LockManager::new(),
            sketches: Vec::new(),
            probe: None,
            link,
            domain,
            rtp_loss: None,
            rtp_congestion: None,
            last_decision: None,
        });
        Ok(id)
    }

    /// Mount a traffic-control plane (token-bucket shaping, DRR class
    /// scheduling, ECN-capable CoDel AQM) on a client's access link
    /// and expose its live counters — `qdiscBacklog`, `qdiscDrops`,
    /// `qdiscEcnMarks` — through the client's SNMP extension agent.
    /// Returns the stats handle for direct inspection. Sessions
    /// without a plane behave bit-identically to before the plane
    /// existed.
    pub fn attach_qdisc(
        &mut self,
        id: ClientId,
        cfg: simnet::qdisc::QdiscConfig,
    ) -> simnet::qdisc::StatsHandle {
        let client = &self.clients[id];
        let rt = self
            .agents
            .get_mut(client.node)
            .expect("a client joins with its agent");
        mount_qdisc(&mut self.net, rt, client.link, cfg)
    }

    /// Mount a hierarchical shaping tree (HTB-style borrowing,
    /// per-subscriber CoDel, rate-plan enforcement) on a client's
    /// access link — in flat mode that link carries every outbound
    /// flow of the client, so the tree models a shared ISP uplink with
    /// one leaf per destination. Exposes the per-node counters as
    /// `tassl.24.*` table rows through the client's SNMP extension
    /// agent and arms one `qosPlanAlert` watcher (95% ceiling
    /// utilisation) per subscriber leaf; service them with
    /// [`CollaborationSession::service_plan_alerts`]. Returns the
    /// stats handle for direct inspection. Sessions without a tree
    /// behave bit-identically to before the tree existed.
    pub fn attach_tree(&mut self, id: ClientId, spec: htb::TreeSpec) -> htb::TreeStatsHandle {
        let subscribers = spec.subscriber_nodes();
        let client = &self.clients[id];
        let handle = self.net.attach_tree(client.link, spec);
        let rt = self
            .agents
            .get_mut(client.node)
            .expect("a client joins with its agent");
        crate::trapwatch::install_tree_metrics(&mut rt.agent, &handle);
        for (leaf, _dst) in subscribers {
            self.plan_watchers.push((
                client.node,
                crate::trapwatch::PlanWatcher::new(leaf as u32, handle.clone(), 95.0),
            ));
        }
        handle
    }

    // ------------------------------------------------------- brokered

    /// The broker overlay, in brokered mode.
    pub fn overlay(&self) -> Option<&broker::Overlay> {
        self.overlay.as_ref()
    }

    /// Mutable overlay access (e.g. to re-advertise after healing an
    /// inter-broker link fault).
    pub fn overlay_mut(&mut self) -> Option<&mut broker::Overlay> {
        self.overlay.as_mut()
    }

    /// Live counters of broker `i`, in brokered mode.
    pub fn broker_stats(&self, i: usize) -> Option<broker::BrokerStatsHandle> {
        self.overlay.as_ref().map(|ov| ov.stats(i))
    }

    /// The inter-broker link between adjacent brokers `a` and `b` —
    /// the mount point for fault models and traffic-control planes on
    /// the overlay's own paths.
    pub fn inter_broker_link(&self, a: usize, b: usize) -> Option<simnet::LinkId> {
        self.overlay.as_ref().and_then(|ov| ov.link_between(a, b))
    }

    /// Mount a traffic-control plane on the inter-broker link `a`–`b`
    /// and expose its counters through broker `a`'s extension agent.
    /// Advertisements travel on the control port and land in the
    /// Control class of the default classifier.
    pub fn attach_broker_qdisc(
        &mut self,
        a: usize,
        b: usize,
        cfg: simnet::qdisc::QdiscConfig,
    ) -> Option<simnet::qdisc::StatsHandle> {
        let link = self.inter_broker_link(a, b)?;
        let rt = self.agents.get_mut(self.overlay.as_ref()?.node(a))?;
        Some(mount_qdisc(&mut self.net, rt, link, cfg))
    }

    /// Read a row from broker `i`'s extension-agent MIB (the
    /// `tassl.21.*` subtree) without going over the network.
    pub fn broker_mib_get(&mut self, i: usize, oid: &snmp::oid::Oid) -> Option<snmp::SnmpValue> {
        let ov = self.overlay.as_ref().filter(|ov| i < ov.broker_count())?;
        self.agents.get_mut(ov.node(i))?.agent.mib_mut().get(oid)
    }

    /// Live custody-store counters of broker `i`, when
    /// [`SessionConfig::custody`] is set.
    pub fn store_stats(&self, i: usize) -> Option<dtn::StoreStatsHandle> {
        self.overlay.as_ref().and_then(|ov| ov.store_stats(i))
    }

    /// Evaluate every broker's custody-store high-watermark watch and
    /// emit `qosStoreAlert` traps to `sink_node` for brokers whose
    /// stored bytes just crossed the configured threshold. Returns the
    /// number of traps sent. Edge-triggered: a broker re-alerts only
    /// after its store drains back below the watermark.
    pub fn service_store_alerts(&mut self, sink_node: simnet::NodeId) -> usize {
        let mut sent = 0;
        for (node, w) in self.store_watchers.iter_mut() {
            let rt = self.agents.get_mut(*node).expect("a broker has its agent");
            if w.service(&mut self.net, rt, sink_node) {
                sent += 1;
            }
        }
        sent
    }

    /// Measure every subscriber leaf's ceiling utilisation over the
    /// window since the previous call and emit `qosPlanAlert` traps to
    /// `sink_node` for leaves that just crossed sustained saturation.
    /// Returns the number of traps sent. Edge-triggered: a leaf
    /// re-alerts only after a window back below the threshold.
    pub fn service_plan_alerts(&mut self, sink_node: simnet::NodeId) -> usize {
        let mut sent = 0;
        for (node, w) in self.plan_watchers.iter_mut() {
            let rt = self
                .agents
                .get_mut(*node)
                .expect("a client joins with its agent");
            if w.service(&mut self.net, rt, sink_node) {
                sent += 1;
            }
        }
        sent
    }

    /// Add a network element (router/switch with a standard agent) to
    /// the LAN, exposing `ifSpeed.1` over SNMP. Returns the node id;
    /// the advertised speed can be changed later with
    /// [`CollaborationSession::set_router_speed`] to model congestion
    /// or path changes.
    pub fn add_router(&mut self, name: &str, if_speed_bps: u64) -> Result<NodeId, String> {
        let node = self.net.add_node(name);
        self.connect_to_switch(node);
        let speed = Arc::new(AtomicU64::new(if_speed_bps));
        let mut agent = SnmpAgent::new(name, &self.cfg.community, None);
        let s = speed.clone();
        agent
            .mib_mut()
            .register_gauge32(snmp::oid::arcs::if_speed(1), move || {
                s.load(Ordering::Relaxed)
            });
        let rt = AgentRuntime::bind(&mut self.net, node, agent).map_err(|e| e.to_string())?;
        self.agents.insert(rt);
        self.routers.push((node, speed));
        Ok(node)
    }

    /// Change a router's advertised interface speed.
    pub fn set_router_speed(&mut self, router: NodeId, if_speed_bps: u64) -> Result<(), String> {
        let (_, knob) = self
            .routers
            .iter()
            .find(|(n, _)| *n == router)
            .ok_or_else(|| format!("unknown router {router}"))?;
        knob.store(if_speed_bps, Ordering::Relaxed);
        Ok(())
    }

    /// Have `id` include the router's `ifSpeed` in its sampled state as
    /// `bandwidth_bps` (consumed by the bandwidth modality policy).
    pub fn monitor_bandwidth(&mut self, id: ClientId, router: NodeId) {
        self.clients[id].netstate.add_bandwidth_metric(router, 1);
    }

    /// Bring a newcomer up to date with a veteran's session history
    /// (§2: "sessions can be archived to provide late clients with
    /// session history"). Copies the veteran's state-repository
    /// snapshot; newer local entries on the newcomer are preserved.
    pub fn catch_up(&mut self, veteran: ClientId, newcomer: ClientId) {
        assert_ne!(veteran, newcomer, "cannot catch up from oneself");
        let snapshot = self.clients[veteran].repo.snapshot();
        self.clients[newcomer].repo.install_snapshot(snapshot);
    }

    /// Sample a client's system state over SNMP and fold in the
    /// figures of its latest RTP receiver report — the state every
    /// adaptation pass decides on.
    fn sample_state(&mut self, id: ClientId) -> BTreeMap<String, f64> {
        let client = &mut self.clients[id];
        let mut state = client.netstate.sample(&mut self.net, &mut self.agents);
        client.fold_rtp_report(&mut state);
        state
    }

    /// Run the client's inference engine on `state` and apply the
    /// decision to its image viewer. Touches only the client, so the
    /// sharded engine runs it on worker threads.
    fn decide_and_apply(
        client: &mut ClientRuntime,
        state: &BTreeMap<String, f64>,
    ) -> AdaptationDecision {
        let decision = client.engine.decide(state);
        client.viewer.set_packet_budget(decision.max_packets);
        client.viewer.set_resolution(decision.resolution);
        client.last_decision = Some(decision.clone());
        decision
    }

    /// Run one adaptation pass for a client: sample its system state
    /// over SNMP, run the inference engine, and apply the decision to
    /// the image viewer. Returns the decision.
    pub fn adapt(&mut self, id: ClientId) -> AdaptationDecision {
        let state = self.sample_state(id);
        Self::decide_and_apply(&mut self.clients[id], &state)
    }

    /// Run one adaptation pass for every client. SNMP sampling walks
    /// the shared network serially; the inference-engine decisions and
    /// viewer updates are sharded across `SessionConfig::workers`
    /// threads and returned in client order (identical to calling
    /// [`CollaborationSession::adapt`] for each client in turn).
    pub fn adapt_all(&mut self) -> Vec<AdaptationDecision> {
        let states = (0..self.clients.len())
            .map(|id| self.sample_state(id))
            .collect();
        crate::shard::map_shards(
            &mut self.clients,
            states,
            self.cfg.workers,
            |_, client, state| Self::decide_and_apply(client, &state),
        )
    }

    /// Attach an RFC 862-style echo reflector on a new LAN node; probes
    /// target it to measure path latency and jitter.
    pub fn add_echo_node(&mut self, name: &str) -> Result<NodeId, String> {
        let node = self.net.add_node(name);
        self.connect_to_switch(node);
        let echo = EchoResponder::bind(&mut self.net, node).map_err(|e| e.to_string())?;
        self.echoes.push((node, echo));
        Ok(node)
    }

    /// Enable latency probing on a client (binds its prober socket).
    pub fn enable_probing(&mut self, id: ClientId) -> Result<(), String> {
        if self.clients[id].probe.is_some() {
            return Ok(());
        }
        let node = self.clients[id].node;
        let probe = LatencyProbe::bind(&mut self.net, node, Port(20_000 + id as u16))
            .map_err(|e| e.to_string())?;
        self.clients[id].probe = Some(probe);
        Ok(())
    }

    /// Adapt like [`CollaborationSession::adapt`], but additionally
    /// measure latency and jitter towards `echo_target` with a
    /// `probe_count`-packet burst and include `latency_us` / `jitter_us`
    /// in the state the inference engine sees (§5.5's full metric set).
    pub fn adapt_with_probe(
        &mut self,
        id: ClientId,
        echo_target: NodeId,
        probe_count: usize,
    ) -> Result<AdaptationDecision, String> {
        self.enable_probing(id)?;
        // SNMP sample first, then the active probe.
        let mut state = self.sample_state(id);
        let echo_idx = self
            .echoes
            .iter()
            .position(|(n, _)| *n == echo_target)
            .ok_or_else(|| format!("no echo responder on {echo_target}"))?;
        let (client, echoes, net) = (&mut self.clients[id], &mut self.echoes, &mut self.net);
        let probe = client.probe.as_mut().expect("enabled above");
        let report = probe.burst(
            net,
            &mut echoes[echo_idx].1,
            echo_target,
            probe_count,
            Ticks::from_secs(1),
        );
        if report.received > 0 {
            state.insert("latency_us".to_string(), report.latency_us);
            state.insert("jitter_us".to_string(), report.jitter_us);
        }
        Ok(Self::decide_and_apply(client, &state))
    }

    /// Feed a client the figures from an RTP receiver report so the
    /// next adaptation pass sees `loss_pct` (fraction lost × 100) and
    /// `congestion_pct` (fraction ECN-CE × 100). The measured-loss
    /// policy reacts to the former; the congestion policy reacts to
    /// the latter *before* any packet is actually lost.
    pub fn ingest_rtp_report(&mut self, id: ClientId, report: &simnet::rtp::ReceiverReport) {
        self.clients[id].rtp_loss = Some(report.fraction_lost);
        self.clients[id].rtp_congestion = Some(report.fraction_ecn_ce);
    }

    /// Allocate a fresh shared-object id.
    pub fn new_object_id(&mut self) -> u64 {
        let id = self.next_object_id;
        self.next_object_id += 1;
        id
    }

    fn image_content_attrs(scene: &Scene) -> BTreeMap<String, AttrValue> {
        [
            ("media".to_string(), AttrValue::str("image")),
            (
                "color".to_string(),
                AttrValue::Bool(scene.image.channels == 3),
            ),
            ("encoding".to_string(), AttrValue::str("ezw")),
            (
                "size_kb".to_string(),
                AttrValue::Int((scene.image.byte_len() / 1024) as i64),
            ),
        ]
        .into_iter()
        .collect()
    }

    /// Share an image from a wired client: encodes the scene with the
    /// session's progressive coder, announces the metadata (including
    /// the verbal description), and multicasts the packets. Returns the
    /// object id.
    pub fn share_image(
        &mut self,
        id: ClientId,
        scene: &Scene,
        selector: &str,
    ) -> Result<u64, String> {
        let object_id = self.new_object_id();
        let levels = wavelet::max_levels(scene.image.width, scene.image.height).min(5);
        let use_color = self.cfg.color_transform && scene.image.channels == 3;
        // Encode-once, and only to the session's rate limit: re-shares
        // of the same content under the same limit hit the cache and
        // reuse the shared stream, and the bits past the limit are
        // never coded.
        let byte_cap = self
            .cfg
            .full_stream_bpp
            .map(|bpp| (scene.image.pixels() as f64 * bpp / 8.0) as usize);
        let container = self
            .media_cache
            .encode_image(
                &scene.image,
                levels,
                self.cfg.wavelet,
                use_color,
                byte_cap,
                self.cfg.workers,
            )
            .map_err(|e| e.to_string())?;
        let packets = split_packets(&container, self.cfg.packets_per_image);
        // Metadata + every packet go out as one network batch: group
        // membership and routes are resolved once for the whole object
        // instead of per packet (the fan-out cost the paper's
        // communication module pays per event).
        let events = Self::image_events(object_id, scene, packets);
        let content = Self::image_content_attrs(scene);
        self.clients[id]
            .bus
            .publish_batch(&mut self.net, selector, content, events)
            .map_err(|e| e.to_string())?;
        Ok(object_id)
    }

    /// The `(kind, body)` events that carry one image: its metadata
    /// (announcing `packets.len()` packets — none for a caption-only
    /// relay), then one event per packet.
    fn image_events(
        object_id: u64,
        scene: &Scene,
        packets: Vec<media::packetize::MediaPacket>,
    ) -> Vec<(String, Vec<u8>)> {
        let meta = AppEvent::ImageMeta {
            object_id,
            caption: scene.caption.clone(),
            original_bytes: scene.image.byte_len() as u64,
            pixels: scene.image.pixels() as u64,
            total_packets: packets.len() as u16,
        };
        let packets = packets
            .into_iter()
            .map(|packet| AppEvent::ImagePacket { object_id, packet });
        std::iter::once(meta)
            .chain(packets)
            .map(|ev| (ev.kind().to_string(), ev.encode()))
            .collect()
    }

    /// Multicast one small application event from a wired client with
    /// an empty content description.
    fn publish_event(&mut self, id: ClientId, ev: &AppEvent, selector: &str) -> Result<(), String> {
        self.clients[id]
            .bus
            .publish(
                &mut self.net,
                ev.kind(),
                selector,
                BTreeMap::new(),
                ev.encode(),
            )
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Send a chat line.
    pub fn share_chat(&mut self, id: ClientId, text: &str, selector: &str) -> Result<(), String> {
        let ev = AppEvent::Chat {
            author: self.clients[id].name.clone(),
            text: text.to_string(),
        };
        self.publish_event(id, &ev, selector)
    }

    /// Draw a whiteboard stroke on a shared object.
    pub fn share_stroke(
        &mut self,
        id: ClientId,
        object_id: u64,
        points: Vec<(i16, i16)>,
        color: u8,
        selector: &str,
    ) -> Result<u64, String> {
        let lamport = self.clients[id].clock.tick();
        let ev = AppEvent::WhiteboardStroke {
            object_id,
            lamport,
            points,
            color,
        };
        self.publish_event(id, &ev, selector)?;
        // Local echo, only once the stroke is on the wire: a failed
        // publish must not leave the author with a stroke no other
        // replica ever hears of.
        let client = &mut self.clients[id];
        let name = client.name.clone();
        client.whiteboard.apply(&name, &ev);
        Ok(lamport)
    }

    /// Request the distributed lock on a shared object: multicasts the
    /// request so every replica arbitrates identically (same Lamport
    /// total order), then applies it to the local lock manager — only
    /// if the publish succeeded, so an `Err` leaves no replica changed.
    /// Returns the local outcome.
    pub fn request_lock(
        &mut self,
        id: ClientId,
        object_id: u64,
        selector: &str,
    ) -> Result<crate::concurrency::LockOutcome, String> {
        let lamport = self.clients[id].clock.tick();
        let name = self.clients[id].name.clone();
        let ev = AppEvent::Lock {
            object_id,
            client: name.clone(),
            lamport,
            op: 0,
        };
        self.publish_event(id, &ev, selector)?;
        Ok(self.clients[id].locks.request(object_id, &name, lamport))
    }

    /// Release the distributed lock on a shared object.
    pub fn release_lock(
        &mut self,
        id: ClientId,
        object_id: u64,
        selector: &str,
    ) -> Result<(), String> {
        let lamport = self.clients[id].clock.tick();
        let name = self.clients[id].name.clone();
        let ev = AppEvent::Lock {
            object_id,
            client: name.clone(),
            lamport,
            op: 1,
        };
        self.publish_event(id, &ev, selector)?;
        let _ = self.clients[id].locks.release(object_id, &name);
        Ok(())
    }

    /// Apply received frames to one client: interpret each against the
    /// client's profile and dispatch accepted events to the client's
    /// application entities. Per-client CPU work — the frames are
    /// immutable and everything mutated is the client's own, so the
    /// sharded engine runs it on worker threads; the one thing shared
    /// is the session's [`ViewStore`], which a completing viewer asks
    /// for its image: the store's lock covers the lookup, the decode
    /// runs outside it.
    fn apply_frames(client: &mut ClientRuntime, frames: Vec<Frame>) -> Vec<ViewedImage> {
        let mut completed = Vec::new();
        for delivery in client.bus.interpret_frames(&frames) {
            let Some(ev) = AppEvent::decode(&delivery.message.body) else {
                continue;
            };
            let sender = &delivery.message.sender;
            match &ev {
                AppEvent::Chat { .. } => client.chat.apply(&ev),
                AppEvent::WhiteboardStroke {
                    object_id, lamport, ..
                } => {
                    client.whiteboard.apply(sender, &ev);
                    client.clock.observe(*lamport);
                    client.repo.update(
                        *object_id,
                        *lamport,
                        sender,
                        ObjectState {
                            kind: "whiteboard".to_string(),
                            data: ev.encode(),
                        },
                    );
                }
                AppEvent::ImageMeta { .. } | AppEvent::ImagePacket { .. } => {
                    if let Some(viewed) = client.viewer.apply(&ev) {
                        completed.push(viewed);
                    }
                }
                AppEvent::SketchShare {
                    object_id,
                    data,
                    caption,
                } => {
                    if let Ok(sketch) = Sketch::decode(data) {
                        client.sketches.push((*object_id, sketch, caption.clone()));
                    }
                }
                AppEvent::Lock {
                    object_id,
                    client: requester,
                    lamport,
                    op,
                } => {
                    client.clock.observe(*lamport);
                    if *op == 0 {
                        client.locks.request(*object_id, requester, *lamport);
                    } else {
                        let _ = client.locks.release(*object_id, requester);
                    }
                }
            }
        }
        completed
    }

    /// Advance simulated time and dispatch everything that arrived.
    /// Returns images completed during this step, tagged by client.
    ///
    /// Reception is a three-phase pipeline: (1) the shared network is
    /// drained serially (one inbox per client) and each drained buffer
    /// resolved to its shared [`Frame`] — decoded and compiled once per
    /// session, not once per receiver, (2) interpretation against the
    /// client's own profile + application run per client, sharded
    /// across `SessionConfig::workers` threads, (3) results merge back
    /// in client order — the same order the serial loop produces, so
    /// any worker count is bit-identical to `workers: 1`, the selector
    /// store's counters included (only phase 1 touches that store) and
    /// the view store's too (in phase 2 the first viewer to ask for a
    /// prefix decodes it and the rest share that image, whoever is
    /// first).
    pub fn pump(&mut self, d: Ticks) -> Vec<(ClientId, ViewedImage)> {
        if let Some(ov) = self.overlay.as_mut() {
            // Interleave time slices with broker forwarding, then
            // settle, so everything published before this pump is
            // fully delivered — the same contract flat mode gives.
            ov.pump(&mut self.net, d);
        } else {
            self.net.run_for(d);
        }
        let received: Vec<Vec<Frame>> = self
            .clients
            .iter_mut()
            .map(|c| c.bus.receive(&mut self.net))
            .collect();
        let per_client = crate::shard::map_shards(
            &mut self.clients,
            received,
            self.cfg.workers,
            |_, client, frames| Self::apply_frames(client, frames),
        );
        let completed: Vec<(ClientId, ViewedImage)> = per_client
            .into_iter()
            .enumerate()
            .flat_map(|(id, viewed)| viewed.into_iter().map(move |v| (id, v)))
            .collect();
        // Credit broker-side suppression to the clients it spared:
        // messages a domain broker routed away never reached the
        // domain's endpoints, so flat-mode `rejected` shows up here as
        // `rejected + suppressed` (see `BusStats::suppressed`).
        if let Some(ov) = self.overlay.as_ref() {
            for (i, credited) in self.broker_credited.iter_mut().enumerate() {
                let total = ov.stats(i).local_suppressed();
                let delta = total - *credited;
                if delta == 0 {
                    continue;
                }
                *credited = total;
                for client in self.clients.iter_mut().filter(|c| c.domain == i) {
                    client.bus.note_suppressed(delta);
                }
            }
        }
        // The base station is a peer too: it interprets every arriving
        // session event *against each wireless client's profile* and
        // relays it over the radio downlink in the modality the
        // client's SIR allows (§4.2: the BS "manages QoS on their
        // behalf"; full radio-frame simulation is abstracted to the
        // delivery record).
        if let Some(bs) = &mut self.base_station {
            for frame in bs.bus.receive(&mut self.net) {
                let Frame::Message { message, program } = &frame else {
                    // Nothing to relay. The endpoint's one counting
                    // path books it as malformed or bad-selector; a
                    // frame without a program evaluates nothing.
                    bs.bus.interpret_frames(std::slice::from_ref(&frame));
                    continue;
                };
                for (id, profile) in &bs.wireless_profiles {
                    let matched = bs
                        .matcher
                        .interpret_program(profile, program, &message.content)
                        .is_ok_and(|o| o.is_accepted());
                    if !matched {
                        continue;
                    }
                    let modality = bs
                        .station
                        .assess(id)
                        .map(|a| a.modality)
                        .unwrap_or(Modality::None);
                    if modality > Modality::None {
                        bs.downlink_log.push(DownlinkDelivery {
                            client: id.clone(),
                            kind: message.kind.clone(),
                            modality,
                        });
                    }
                }
            }
        }
        completed
    }

    // ------------------------------------------------------- wireless

    /// Attach the base station peer to the session.
    pub fn attach_base_station(
        &mut self,
        model: PathLossModel,
        thresholds: ModalityThresholds,
    ) -> Result<(), String> {
        if self.base_station.is_some() {
            return Err("base station already attached".to_string());
        }
        let node = self.net.add_node("base-station");
        // In brokered mode the gateway homes on broker 0 and registers
        // a promiscuous (wildcard) advertisement: it interprets every
        // session event against the wireless profiles it holds, so the
        // overlay must not suppress anything on its behalf.
        let group = if let Some(ov) = self.overlay.as_mut() {
            let link = self.net.connect(ov.node(0), node, self.cfg.link);
            fault_link(&mut self.net, &self.cfg, link);
            ov.register_wildcard(&mut self.net, 0, "base-station");
            ov.group(0)
        } else {
            self.connect_to_switch(node);
            self.group
        };
        let mut profile = Profile::new("base-station");
        profile.set("role", AttrValue::str("gateway"));
        let bus = BusEndpoint::join_with_store(
            &mut self.net,
            node,
            well_known::SESSION_DATA,
            group,
            profile,
            self.selectors.clone(),
        )
        .map_err(|e| e.to_string())?;
        if let Some(ov) = self.overlay.as_mut() {
            ov.settle(&mut self.net);
        }
        self.base_station = Some(BsPeer {
            station: BaseStation::new(model, thresholds),
            bus,
            registry: TransformerRegistry::with_defaults(),
            node,
            forward_log: Vec::new(),
            wireless_profiles: std::collections::BTreeMap::new(),
            downlink_log: Vec::new(),
            matcher: sempubsub::MatchEngine::with_store(self.selectors.clone()),
        });
        Ok(())
    }

    /// A wireless client joins through the base station; returns its
    /// initial service assessment. A default profile interested in
    /// images and chat is registered; use
    /// [`CollaborationSession::wireless_join_with_profile`] for custom
    /// interests.
    pub fn wireless_join(
        &mut self,
        id: &str,
        distance_m: f64,
        tx_power_mw: f64,
    ) -> Result<wireless::ServiceAssessment, String> {
        let mut profile = Profile::new(id);
        profile.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image"), AttrValue::str("chat")]),
        );
        self.wireless_join_with_profile(profile, distance_m, tx_power_mw)
    }

    /// Join a wireless client with an explicit semantic profile, held
    /// at the base station on the client's behalf.
    pub fn wireless_join_with_profile(
        &mut self,
        profile: Profile,
        distance_m: f64,
        tx_power_mw: f64,
    ) -> Result<wireless::ServiceAssessment, String> {
        let bs = self
            .base_station
            .as_mut()
            .ok_or("no base station attached")?;
        let id = profile.name.clone();
        let assessment = bs
            .station
            .join(ClientRadio::new(&id, distance_m, tx_power_mw))
            .map_err(|e| e.to_string())?;
        bs.wireless_profiles.insert(id, profile);
        Ok(assessment)
    }

    /// A wireless client leaves: radio registry, profile and the
    /// matcher's compiled snapshot of it all drop.
    pub fn wireless_leave(&mut self, id: &str) -> Result<(), String> {
        let bs = self
            .base_station
            .as_mut()
            .ok_or("no base station attached")?;
        bs.station.leave(id).map_err(|e| e.to_string())?;
        bs.wireless_profiles.remove(id);
        bs.matcher.forget(id);
        Ok(())
    }

    /// A wireless client contributes an image. The base station
    /// receives it over the (simulated) radio uplink, assesses the
    /// client's SIR, reduces the modality accordingly, and forwards the
    /// result into the multicast session on the client's behalf.
    /// Returns the modality actually forwarded.
    pub fn wireless_contribute(
        &mut self,
        client_id: &str,
        scene: &Scene,
        selector: &str,
    ) -> Result<Modality, String> {
        let bs = self
            .base_station
            .as_mut()
            .ok_or("no base station attached")?;
        let assessment = bs
            .station
            .assess(client_id)
            .ok_or_else(|| format!("unknown wireless client '{client_id}'"))?;
        let modality = assessment.modality;
        bs.forward_log.push((client_id.to_string(), modality));

        let object_id = self.new_object_id();
        let levels = wavelet::max_levels(scene.image.width, scene.image.height).min(5);
        let encoded = self
            .media_cache
            .encode_image(
                &scene.image,
                levels,
                self.cfg.wavelet,
                false,
                None,
                self.cfg.workers,
            )
            .map_err(|e| e.to_string())?;
        let bs = self
            .base_station
            .as_mut()
            .expect("checked above when assessing");
        // One publish per event, not one batch: a batch would fan out
        // member-major on the gateway's access link and move simulated
        // arrival times.
        let events = match modality {
            Modality::None => Vec::new(), // nothing usable gets through
            Modality::TextOnly => Self::image_events(object_id, scene, Vec::new()),
            Modality::TextAndSketch => {
                let source = MediaObject::Image {
                    encoded: encoded.to_vec(),
                    caption: scene.caption.clone(),
                };
                let sketch_obj = bs
                    .registry
                    .transform(&source, MediaKind::Sketch)
                    .map_err(|e| e.to_string())?;
                let MediaObject::Sketch { sketch, caption } = sketch_obj else {
                    return Err("transform did not yield a sketch".to_string());
                };
                let ev = AppEvent::SketchShare {
                    object_id,
                    data: sketch.encode(),
                    caption,
                };
                vec![(ev.kind().to_string(), ev.encode())]
            }
            Modality::FullImage => {
                let packets = split_packets(&encoded, self.cfg.packets_per_image);
                Self::image_events(object_id, scene, packets)
            }
        };
        let content = Self::image_content_attrs(scene);
        for (kind, body) in events {
            bs.bus
                .publish(&mut self.net, &kind, selector, content.clone(), body)
                .map_err(|e| e.to_string())?;
        }
        Ok(modality)
    }
}

/// Attach the session's configured fault model (if any) to a link the
/// session just created.
fn fault_link(net: &mut Network, cfg: &SessionConfig, link: simnet::LinkId) -> simnet::LinkId {
    if let Some(model) = cfg.fault {
        net.topology_mut().set_link_fault(link, Some(model));
    }
    link
}

/// Mount a flat traffic-control plane on `link` and expose its live
/// counters through `rt`'s extension agent — the one mount path behind
/// client access links and inter-broker links alike.
fn mount_qdisc(
    net: &mut Network,
    rt: &mut AgentRuntime,
    link: simnet::LinkId,
    cfg: simnet::qdisc::QdiscConfig,
) -> simnet::qdisc::StatsHandle {
    let handle = net.attach_qdisc(link, cfg);
    crate::trapwatch::install_qdisc_metrics(&mut rt.agent, link, &handle);
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::QosContract;
    use crate::inference::InferenceEngine;
    use crate::policy::PolicyDb;
    use media::image::synthetic_scene;
    use sysmon::HostState;

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
        let b1 = s.broker_stats(1).unwrap();
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
        let report = simnet::rtp::ReceiverReport {
            fraction_lost: 0.2,
            ..Default::default()
        };
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

        let mut mgr =
            snmp::SnmpManager::bind(&mut s.net, nodes[0], Port(30_000), "public").unwrap();
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
                let mut state = client.netstate.sample_sweeping(&mut s.net, &mut all);
                client.fold_rtp_report(&mut state);
                CollaborationSession::decide_and_apply(client, &state)
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
            s.ingest_rtp_report(
                1,
                &simnet::rtp::ReceiverReport {
                    fraction_lost: 0.25,
                    ..Default::default()
                },
            );
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
            .filter(|d| d.client == "near")
            .collect();
        let far: Vec<_> = bs
            .downlink_log
            .iter()
            .filter(|d| d.client == "far")
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
            .filter(|d| d.client == "roamer-7")
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
}
