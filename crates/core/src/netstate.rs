//! The network state interface (§5.5).
//!
//! "The network state interface is a generic component that
//! encapsulates the state of the system ... The current implementation
//! uses SNMP, which enables it to determine the state of network
//! elements and hosts." A [`NetworkStateInterface`] is configured with
//! named metrics — `(name, target node, OID)` triples — and samples
//! them over the simulated wire with real SNMP GETs, yielding the
//! numeric state map the inference engine consumes.

use simnet::{Network, NodeId, Port};
use snmp::manager::SnmpManager;
use snmp::oid::{arcs, Oid};
use snmp::transport::AgentRuntime;
use snmp::{SnmpError, VarBind};
use std::collections::BTreeMap;

/// The SNMP agents of one session, found by the node each is bound on.
///
/// A GET is answered by the agent on its target node and by no other,
/// so a sample looks that one agent up here instead of sweeping every
/// agent of the session on every poll step.
#[derive(Default)]
pub struct AgentDirectory {
    /// Agents in insertion order.
    agents: Vec<AgentRuntime>,
    /// `slots[node]` indexes `agents`; `u32::MAX` (past any index) for
    /// a node without an agent.
    slots: Vec<u32>,
}

impl AgentDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        AgentDirectory::default()
    }

    /// File `agent` under the node it is bound on. A node binds its
    /// agent port once, so it never holds a second agent.
    pub fn insert(&mut self, agent: AgentRuntime) {
        let node = agent.node().0 as usize;
        if self.slots.len() <= node {
            self.slots.resize(node + 1, u32::MAX);
        }
        self.slots[node] = self.agents.len() as u32;
        self.agents.push(agent);
    }

    /// The agent bound on `node`, if any.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut AgentRuntime> {
        let slot = *self.slots.get(node.0 as usize)?;
        self.agents.get_mut(slot as usize)
    }

    /// Every agent, in insertion order — what a sample used to sweep.
    #[cfg(test)]
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut AgentRuntime> {
        self.agents.iter_mut()
    }
}

/// The metrics polled on one target agent: one multi-varbind GET.
struct TargetMetrics {
    /// Agent's node.
    target: NodeId,
    /// State-map keys (e.g. `cpu_load`), in registration order.
    names: Vec<String>,
    /// Variable OIDs, parallel to `names`.
    oids: Vec<Oid>,
}

/// SNMP-backed sampler of system/network state.
pub struct NetworkStateInterface {
    manager: SnmpManager,
    /// Registered metrics, grouped by target in first-registration
    /// order.
    groups: Vec<TargetMetrics>,
    /// Metrics that failed on the last sample (timeouts, exceptions).
    pub last_errors: Vec<(String, SnmpError)>,
}

impl NetworkStateInterface {
    /// Bind the underlying manager socket on `node:port`.
    pub fn bind(
        net: &mut Network,
        node: NodeId,
        port: Port,
        community: &str,
    ) -> Result<Self, SnmpError> {
        Ok(NetworkStateInterface {
            manager: SnmpManager::bind(net, node, port, community)?,
            groups: Vec::new(),
            last_errors: Vec::new(),
        })
    }

    /// Register a metric: the variable `oid` of the agent on `target`,
    /// reported under `name`.
    fn add_metric(&mut self, name: &str, target: NodeId, oid: Oid) -> &mut Self {
        let at = match self.groups.iter().position(|g| g.target == target) {
            Some(at) => at,
            None => {
                self.groups.push(TargetMetrics {
                    target,
                    names: Vec::new(),
                    oids: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        let group = &mut self.groups[at];
        group.names.push(name.to_string());
        group.oids.push(oid);
        // Registered a handful of times at join, read on every pass by
        // every client of the session: hold what is registered, not a
        // vector's growth margin.
        group.names.shrink_to_fit();
        group.oids.shrink_to_fit();
        self.groups.shrink_to_fit();
        self
    }

    /// Register the standard host metrics (CPU load, page faults,
    /// available memory) of the extension agent on `target`.
    pub fn add_host_metrics(&mut self, target: NodeId) -> &mut Self {
        for (name, oid, ..) in sysmon::HOST_METRICS {
            self.add_metric(name, target, oid());
        }
        self
    }

    /// Register an interface-bandwidth metric (`ifSpeed`).
    pub fn add_bandwidth_metric(&mut self, target: NodeId, if_index: u32) -> &mut Self {
        self.add_metric("bandwidth_bps", target, arcs::if_speed(if_index))
    }

    /// Poll every registered metric; failed metrics are omitted from
    /// the result and recorded in [`Self::last_errors`].
    ///
    /// Metrics are batched per target agent into one multi-varbind GET,
    /// so sampling a host's CPU + page faults + memory costs a single
    /// round trip — and while it is in flight only the target's own
    /// agent, looked up in `agents`, is serviced.
    pub fn sample(
        &mut self,
        net: &mut Network,
        agents: &mut AgentDirectory,
    ) -> BTreeMap<String, f64> {
        self.sample_via(net, |manager, net, target, oids| {
            let mut bound = agents.get_mut(target);
            let serviced = bound.as_mut().map_or(&mut [][..], std::slice::from_mut);
            manager.get(net, serviced, target, oids)
        })
    }

    /// [`Self::sample`] as it worked before the directory: every GET
    /// pumped with every agent in `all` — the reference the directory
    /// is tested against.
    #[cfg(test)]
    pub(crate) fn sample_sweeping(
        &mut self,
        net: &mut Network,
        all: &mut [&mut AgentRuntime],
    ) -> BTreeMap<String, f64> {
        self.sample_via(net, |manager, net, target, oids| {
            manager.get(net, all, target, oids)
        })
    }

    /// One `get` per target group, folded into the state map.
    fn sample_via(
        &mut self,
        net: &mut Network,
        mut get: impl FnMut(
            &mut SnmpManager,
            &mut Network,
            NodeId,
            &[Oid],
        ) -> Result<Vec<VarBind>, SnmpError>,
    ) -> BTreeMap<String, f64> {
        self.last_errors.clear();
        let mut out = BTreeMap::new();
        for group in &self.groups {
            match get(&mut self.manager, net, group.target, &group.oids) {
                Ok(binds) => {
                    for (name, vb) in group.names.iter().zip(&binds) {
                        match vb.value.as_f64() {
                            Some(v) => {
                                out.insert(name.clone(), v);
                            }
                            None => self.last_errors.push((
                                name.clone(),
                                SnmpError::Malformed("non-numeric or missing value"),
                            )),
                        }
                    }
                }
                Err(e) => {
                    for name in &group.names {
                        self.last_errors.push((name.clone(), e.clone()));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::LinkSpec;
    use snmp::{SnmpAgent, SnmpValue};
    use sysmon::{install_host_agent, LoadProfile, SimHost};

    #[test]
    fn samples_host_and_router_metrics() {
        let mut net = Network::new(9);
        let (_sw, nodes) = net.lan(&["client", "router"], LinkSpec::lan());
        let (client, router) = (nodes[0], nodes[1]);

        // Host agent on the client's own node.
        let mut host = SimHost::new(
            "client",
            LoadProfile::Constant(62.0),
            LoadProfile::Constant(48.0),
            LoadProfile::Constant(4096.0),
        );
        let mut host_agent = SnmpAgent::new("client", "public", None);
        install_host_agent(&host.shared(), &mut host_agent);
        let mut agents = AgentDirectory::new();
        agents.insert(AgentRuntime::bind(&mut net, client, host_agent).unwrap());

        // Router agent exposing ifSpeed.
        let mut router_agent = SnmpAgent::new("router", "public", None);
        router_agent
            .mib_mut()
            .register_scalar(arcs::if_speed(1), SnmpValue::Gauge32(10_000_000));
        agents.insert(AgentRuntime::bind(&mut net, router, router_agent).unwrap());

        let mut iface =
            NetworkStateInterface::bind(&mut net, client, Port(40000), "public").unwrap();
        iface.add_host_metrics(client);
        iface.add_bandwidth_metric(router, 1);

        let state = iface.sample(&mut net, &mut agents);
        assert_eq!(state.len(), 4);
        assert_eq!(state["cpu_load"], 62.0);
        assert_eq!(state["page_faults"], 48.0);
        assert_eq!(state["mem_avail_kb"], 4096.0);
        assert_eq!(state["bandwidth_bps"], 10_000_000.0);
        assert!(iface.last_errors.is_empty());

        // Host evolves; next sample reflects it.
        host.force(sysmon::HostState {
            cpu_load: 99.0,
            page_faults: 80.0,
            mem_avail_kb: 100.0,
        });
        let state = iface.sample(&mut net, &mut agents);
        assert_eq!(state["cpu_load"], 99.0);
    }

    #[test]
    fn failed_metric_is_omitted_not_fatal() {
        let mut net = Network::new(9);
        let (_sw, nodes) = net.lan(&["client", "ghost"], LinkSpec::lan());
        let mut iface =
            NetworkStateInterface::bind(&mut net, nodes[0], Port(40000), "public").unwrap();
        // No agent on 'ghost': times out.
        iface.add_metric("cpu_load", nodes[1], arcs::host_cpu_load());
        let state = iface.sample(&mut net, &mut AgentDirectory::new());
        assert!(state.is_empty());
        assert_eq!(iface.last_errors.len(), 1);
        assert_eq!(iface.last_errors[0].1, SnmpError::Timeout);
    }
}
