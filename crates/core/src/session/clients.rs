//! Client state, profile and inference engine (§5.2): joining a wired
//! client with its host, agent, state interface and engine; catch-up;
//! the adaptation pass (sample over SNMP → decide → apply), with or
//! without a latency probe.

use super::{fault_link, ClientId, ClientRuntime, CollaborationSession};
use crate::apps::{ChatArea, ImageViewer, Whiteboard};
use crate::concurrency::{LamportClock, LockManager};
use crate::contract::QosContract;
use crate::inference::AdaptationDecision;
use crate::netstate::NetworkStateInterface;
use crate::policy::{AdaptationPolicy, PolicyDb};
use crate::probe::{EchoResponder, LatencyProbe};
use crate::state::{Metric, StateVector};
use crate::state_repo::StateRepository;
use sempubsub::{BusEndpoint, EvalStack, Profile};
use simnet::packet::well_known;
use simnet::{NodeId, Port, Ticks};
use snmp::transport::AgentRuntime;
use snmp::SnmpAgent;
use sysmon::{install_host_agent, SimHost};

/// Port of a client's SNMP manager (its network state interface).
/// Every client binds on a node of its own, so the port is the same
/// for all of them: one derived from the client id would wrap `u16`
/// past client 55 535 and land on ports the node already uses.
pub(super) const MANAGER_PORT: Port = Port(10_000);

/// Port of a client's latency prober; fixed for the same reason.
pub(super) const PROBER_PORT: Port = Port(20_000);

impl ClientRuntime {
    /// Add the figures of the latest ingested RTP receiver report to a
    /// sampled `state`.
    pub(super) fn fold_rtp_report(&self, state: &mut StateVector) {
        if let Some(loss) = self.rtp_loss {
            state.set(Metric::LossPct, loss * 100.0);
        }
        if let Some(ce) = self.rtp_congestion {
            state.set(Metric::CongestionPct, ce * 100.0);
        }
    }
}

impl CollaborationSession {
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
    /// [`SessionConfig::engine`](super::SessionConfig::engine): the threshold engine consumes the
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

        let mut netstate =
            NetworkStateInterface::bind(&mut self.net, node, MANAGER_PORT, &self.cfg.community)
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
            viewer: ImageViewer::new(16),
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
        });
        Ok(id)
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

    /// Sample a client's system state over SNMP and fold in the figures
    /// of its latest RTP receiver report — the state every adaptation
    /// pass decides on.
    fn sample_state(&mut self, id: ClientId) -> StateVector {
        let client = &mut self.clients[id];
        let mut state = StateVector::new();
        client
            .netstate
            .sample(&mut self.net, &mut self.agents, &mut state);
        client.fold_rtp_report(&mut state);
        state
    }

    /// Run the client's inference engine on `state`, evaluating on
    /// `stack`, and apply the decision to its image viewer.
    pub(super) fn decide_and_apply(
        client: &mut ClientRuntime,
        state: &StateVector,
        stack: &mut EvalStack,
    ) -> AdaptationDecision {
        let decision = client.engine.decide_state(state, stack);
        client.viewer.set_packet_budget(decision.max_packets);
        client.viewer.set_resolution(decision.resolution);
        decision
    }

    /// Run one adaptation pass for a client: sample its system state
    /// over SNMP, run the inference engine, and apply the decision to
    /// the image viewer. Returns the decision.
    pub fn adapt(&mut self, id: ClientId) -> AdaptationDecision {
        let state = self.sample_state(id);
        Self::decide_and_apply(&mut self.clients[id], &state, &mut self.stack)
    }

    /// Run [`CollaborationSession::adapt`] for every client in turn; the
    /// decisions come back in client order. What the pass allocates
    /// beyond the returned vector is the two datagrams of each client's
    /// GET.
    pub fn adapt_all(&mut self) -> Vec<AdaptationDecision> {
        (0..self.clients.len()).map(|id| self.adapt(id)).collect()
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
        let probe =
            LatencyProbe::bind(&mut self.net, node, PROBER_PORT).map_err(|e| e.to_string())?;
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
        let echo = self.echoes.iter().position(|(n, _)| *n == echo_target);
        // SNMP sample first, then the active probe.
        let mut state = self.sample_state(id);
        let Some(echo_idx) = echo else {
            return Err(format!("no echo responder on {echo_target}"));
        };
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
            state.set(Metric::LatencyUs, report.latency_us);
            state.set(Metric::JitterUs, report.jitter_us);
        }
        Ok(Self::decide_and_apply(client, &state, &mut self.stack))
    }

    /// Feed a client the figures from a receiver report (an image
    /// viewer's [`ImageViewer::report`](crate::apps::ImageViewer::report),
    /// or one the caller builds) so the next adaptation pass sees
    /// `loss_pct` (fraction lost × 100) and `congestion_pct` (fraction
    /// ECN-CE × 100). The measured-loss policy reacts to the former;
    /// the congestion policy reacts to the latter *before* any packet
    /// is actually lost.
    pub fn ingest_rtp_report(&mut self, id: ClientId, report: &simnet::rtp::ReceiverReport) {
        self.clients[id].rtp_loss = Some(report.fraction_lost);
        self.clients[id].rtp_congestion = Some(report.fraction_ecn_ce);
    }
}
