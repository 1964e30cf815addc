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
//!
//! One module per §5 component, each an `impl CollaborationSession`
//! block over the fields declared here: this file — configuration,
//! construction (flat or brokered) and [`CollaborationSession::pump`],
//! the one reception pipeline; `clients` — client state, profile and
//! the adaptation loop (§5.2); `sharing` — the information transformer
//! and the application entities' traffic (§5.4); `base_station` — the
//! gateway's uplink and downlink (§4.2); `telemetry` — what the
//! session serves over SNMP and the traps it raises (§5.5).

mod base_station;
mod clients;
mod sharing;
mod telemetry;
#[cfg(test)]
mod tests;

pub use base_station::{BsPeer, DownlinkDelivery};

use crate::apps::{ChatArea, ImageViewer, MediaStore, ViewedImage, Whiteboard};
use crate::concurrency::{LamportClock, LockManager};
use crate::engines::EngineChoice;
use crate::netstate::{AgentDirectory, NetworkStateInterface};
use crate::policy::AdaptationPolicy;
use crate::probe::{EchoResponder, LatencyProbe};
use crate::state_repo::StateRepository;
use media::wavelet::WaveletKind;
use media::Sketch;
use sempubsub::{BusEndpoint, CacheStatsHandle, EvalStack, SelectorStore};
use simnet::{GroupId, LinkSpec, Network, NodeId, Ticks};
use snmp::transport::AgentRuntime;
use snmp::SnmpAgent;
use std::cell::Cell;
use std::rc::Rc;
use sysmon::SimHost;

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
    /// Dead: the session runs every client on the caller's thread, and
    /// [`CollaborationSession::new`] asserts this is `1`. The field
    /// stays only because the repo benchmark's workload configs name
    /// it; the next change to `benchmark/` deletes those lines, then
    /// the field.
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
    routers: Vec<(NodeId, Rc<Cell<u64>>)>,
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
    /// The session's one selector store: every endpoint, every broker
    /// and the base station compile through it, so a selector string
    /// is compiled once per session, and the frame the first of them
    /// leaves on a message buffer serves all the others.
    selectors: SelectorStore,
    /// The session's one media store: every share encodes through it,
    /// so re-shares and multi-tier degradations reuse one embedded
    /// stream, and every client's image viewer decodes through it, so a
    /// prefix of a shared object is decoded once per session, not once
    /// per viewer holding it.
    media: MediaStore,
    /// The stack every client's engine evaluates on, one client after
    /// another: kept between passes, so a steady pass allocates none.
    stack: EvalStack,
}

impl CollaborationSession {
    /// A fresh session with a switch-based LAN — or, when
    /// `cfg.domains` is `Some(n)`, a brokered session: a chain of `n`
    /// domain brokers (inter-broker links use the configured
    /// `link`/`fault`), each with its own SNMP extension agent serving
    /// the `tassl.21.*` rows, plus an uplink from the switch to broker
    /// 0 so routers, echo nodes, and the base station stay reachable.
    ///
    /// Panics if `cfg.workers` is not 1.
    pub fn new(cfg: SessionConfig) -> CollaborationSession {
        assert_eq!(cfg.workers, 1, "the session runs on one thread");
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
            media: MediaStore::new(),
            stack: EvalStack::default(),
        }
    }

    /// Session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Live encode-once media-cache counters (hits/misses/evictions);
    /// the clone shares the cells, so it stays current as the session
    /// shares images.
    pub fn media_cache_stats(&self) -> CacheStatsHandle {
        self.media.encode_stats()
    }

    /// The session's selector store (programs held, live hit / miss /
    /// eviction counters).
    pub fn selector_store(&self) -> &SelectorStore {
        &self.selectors
    }

    /// The session's media store (views held, live view hit / miss /
    /// replay counts; its encode counters are
    /// [`media_cache_stats`](Self::media_cache_stats)).
    pub fn view_store(&self) -> &MediaStore {
        &self.media
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

    /// The broker overlay, in brokered mode.
    pub fn overlay(&self) -> Option<&broker::Overlay> {
        self.overlay.as_ref()
    }

    /// The inter-broker link between adjacent brokers `a` and `b` —
    /// the mount point for fault models and traffic-control planes on
    /// the overlay's own paths.
    pub fn inter_broker_link(&self, a: usize, b: usize) -> Option<simnet::LinkId> {
        self.overlay.as_ref().and_then(|ov| ov.link_between(a, b))
    }

    /// Advance simulated time and dispatch everything that arrived.
    /// Returns images completed during this step, tagged by client.
    ///
    /// Reception runs client after client, each datagram as it comes off
    /// the client's socket: its buffer's [`sempubsub::Frame`] — decoded
    /// and compiled once per session — is interpreted against the
    /// client's profile, an accepted event is read in place, and its
    /// application copies out only what it keeps (a completing viewer
    /// asks the session's media store, which decodes each prefix once);
    /// then the buffer goes back to the network.
    pub fn pump(&mut self, d: Ticks) -> Vec<(ClientId, ViewedImage)> {
        if let Some(ov) = self.overlay.as_mut() {
            // Interleave time slices with broker forwarding, then
            // settle, so everything published before this pump is
            // fully delivered — the same contract flat mode gives.
            ov.pump(&mut self.net, d);
        } else {
            self.net.run_for(d);
        }
        let mut completed = Vec::new();
        for (id, client) in self.clients.iter_mut().enumerate() {
            Self::apply_received(id, client, &mut self.net, &mut self.media, &mut completed);
        }
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
        if let Some(bs) = &mut self.base_station {
            bs.relay(&mut self.net);
        }
        completed
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
