//! The observed side of the network state interface (§5.5): routers
//! and `ifSpeed`, traffic-control planes and their MIB rows, the
//! brokers' rows, and the edge-triggered store and plan watchers.

use super::{ClientId, CollaborationSession};
use crate::netstate::AgentDirectory;
use crate::trapwatch::{PlanWatcher, StoreWatcher};
use simnet::{Network, NodeId};
use snmp::transport::AgentRuntime;
use snmp::SnmpAgent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

impl CollaborationSession {
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
        let now_us = self.net.now().as_micros();
        let rt = self
            .agents
            .get_mut(client.node)
            .expect("a client joins with its agent");
        crate::trapwatch::install_tree_metrics(&mut rt.agent, &handle);
        for (leaf, _dst) in subscribers {
            self.plan_watchers.push((
                client.node,
                PlanWatcher::new(leaf as u32, handle.clone(), 95.0, now_us),
            ));
        }
        handle
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
    /// [`SessionConfig::custody`](super::SessionConfig::custody) is set.
    pub fn store_stats(&self, i: usize) -> Option<dtn::StoreStatsHandle> {
        self.overlay.as_ref().and_then(|ov| ov.store_stats(i))
    }

    /// Evaluate every broker's custody-store high-watermark watch and
    /// emit `qosStoreAlert` traps to `sink_node` for brokers whose
    /// stored bytes just crossed the configured threshold. Returns the
    /// number of traps sent. Edge-triggered: a broker re-alerts only
    /// after its store drains back below the watermark.
    pub fn service_store_alerts(&mut self, sink_node: simnet::NodeId) -> usize {
        service_watchers(
            &mut self.net,
            &mut self.agents,
            &mut self.store_watchers,
            sink_node,
            StoreWatcher::service,
        )
    }

    /// Measure every subscriber leaf's ceiling utilisation over the
    /// window since the previous call and emit `qosPlanAlert` traps to
    /// `sink_node` for leaves that just crossed sustained saturation.
    /// Returns the number of traps sent. Edge-triggered: a leaf
    /// re-alerts only after a window back below the threshold.
    pub fn service_plan_alerts(&mut self, sink_node: simnet::NodeId) -> usize {
        service_watchers(
            &mut self.net,
            &mut self.agents,
            &mut self.plan_watchers,
            sink_node,
            PlanWatcher::service,
        )
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
}

/// Service each watcher through the agent on the node it is paired
/// with — the node whose agent was there when the watcher was armed —
/// and count the traps sent towards `sink_node`.
fn service_watchers<W>(
    net: &mut Network,
    agents: &mut AgentDirectory,
    watchers: &mut [(NodeId, W)],
    sink_node: NodeId,
    service: impl Fn(&mut W, &mut Network, &mut AgentRuntime, NodeId) -> bool,
) -> usize {
    let mut sent = 0;
    for (node, watcher) in watchers {
        let rt = agents
            .get_mut(*node)
            .expect("a watcher is armed on a node that has its agent");
        if service(watcher, net, rt, sink_node) {
            sent += 1;
        }
    }
    sent
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
