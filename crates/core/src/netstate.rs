//! The network state interface (§5.5).
//!
//! "The network state interface is a generic component that
//! encapsulates the state of the system ... The current implementation
//! uses SNMP, which enables it to determine the state of network
//! elements and hosts." A [`NetworkStateInterface`] is configured with
//! metrics — `(metric, target node, OID)` triples — and samples them
//! over the simulated wire with real SNMP GETs, into the
//! [`StateVector`] the inference engine consumes.

use crate::state::{Metric, StateVector};
use simnet::{Network, NodeId, Port};
use snmp::manager::SnmpManager;
use snmp::oid::{arcs, Oid};
use snmp::transport::AgentRuntime;
use snmp::{SnmpError, SnmpValue};

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
    /// The metrics, in registration order.
    metrics: Vec<Metric>,
    /// Variable OIDs, parallel to `metrics`.
    oids: Vec<Oid>,
}

/// SNMP-backed sampler of system/network state.
///
/// A sample writes each registered metric into the caller's
/// [`StateVector`] in place: the value its GET read this time, or —
/// when the GET failed, timed out, or was answered with anything but a
/// number under the requested name at the requested position — absent,
/// never the value an earlier sample read. Each failure is recorded in
/// [`Self::last_errors`]. What a sample allocates is the two datagrams
/// of each GET.
pub struct NetworkStateInterface {
    manager: SnmpManager,
    /// Registered metrics, grouped by target in first-registration
    /// order.
    groups: Vec<TargetMetrics>,
    /// Metrics that failed on the last sample (timeouts, exceptions,
    /// responses that do not answer the request).
    pub last_errors: Vec<(Metric, SnmpError)>,
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
    /// reported as `metric`.
    fn add_metric(&mut self, metric: Metric, target: NodeId, oid: Oid) -> &mut Self {
        let at = match self.groups.iter().position(|g| g.target == target) {
            Some(at) => at,
            None => {
                self.groups.push(TargetMetrics {
                    target,
                    metrics: Vec::new(),
                    oids: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        let group = &mut self.groups[at];
        group.metrics.push(metric);
        group.oids.push(oid);
        // Registered a handful of times at join, read on every pass by
        // every client of the session: hold what is registered, not a
        // vector's growth margin.
        group.metrics.shrink_to_fit();
        group.oids.shrink_to_fit();
        self.groups.shrink_to_fit();
        self
    }

    /// Register the standard host metrics (CPU load, page faults,
    /// available memory) of the extension agent on `target`.
    pub fn add_host_metrics(&mut self, target: NodeId) -> &mut Self {
        for (name, oid, ..) in sysmon::HOST_METRICS {
            let metric = Metric::from_name(name).expect("host metrics are state metrics");
            self.add_metric(metric, target, oid());
        }
        self
    }

    /// Register an interface-bandwidth metric (`ifSpeed`).
    pub fn add_bandwidth_metric(&mut self, target: NodeId, if_index: u32) -> &mut Self {
        self.add_metric(Metric::BandwidthBps, target, arcs::if_speed(if_index))
    }

    /// Poll every registered metric into `state`; failed metrics read
    /// absent there and are recorded in [`Self::last_errors`].
    ///
    /// Metrics are batched per target agent into one multi-varbind GET,
    /// so sampling a host's CPU + page faults + memory costs a single
    /// round trip — and while it is in flight only the target's own
    /// agent, looked up in `agents`, is serviced.
    pub fn sample(
        &mut self,
        net: &mut Network,
        agents: &mut AgentDirectory,
        state: &mut StateVector,
    ) {
        self.sample_via(net, state, |manager, net, target, oids, each| {
            let mut bound = agents.get_mut(target);
            let serviced = bound.as_mut().map_or(&mut [][..], std::slice::from_mut);
            manager.get_each(net, serviced, target, oids, each)
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
        state: &mut StateVector,
    ) {
        self.sample_via(net, state, |manager, net, target, oids, each| {
            manager.get_each(net, all, target, oids, each)
        })
    }

    /// One `get` per target group, read into `state`.
    fn sample_via(
        &mut self,
        net: &mut Network,
        state: &mut StateVector,
        mut get: impl FnMut(
            &mut SnmpManager,
            &mut Network,
            NodeId,
            &[Oid],
            &mut dyn FnMut(usize, Result<&SnmpValue, SnmpError>),
        ) -> Result<(), SnmpError>,
    ) {
        let errors = &mut self.last_errors;
        errors.clear();
        for group in &self.groups {
            for &metric in &group.metrics {
                state.unset(metric);
            }
            let mut read = |at: usize, value: Result<&SnmpValue, SnmpError>| {
                let metric = group.metrics[at];
                let value = value.and_then(|v| {
                    v.as_f64()
                        .ok_or(SnmpError::Malformed("non-numeric or missing value"))
                });
                match value {
                    Ok(v) => state.set(metric, v),
                    Err(e) => errors.push((metric, e)),
                }
            };
            if let Err(e) = get(&mut self.manager, net, group.target, &group.oids, &mut read) {
                errors.extend(group.metrics.iter().map(|&m| (m, e.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::packet::well_known;
    use simnet::{Addr, LinkSpec};
    use snmp::{Message, Pdu, PduKind, SnmpAgent, VarBind};
    use sysmon::{install_host_agent, LoadProfile, SimHost};

    /// Every host metric at a value no agent here serves, as a state
    /// an earlier pass left behind.
    fn stale() -> StateVector {
        [Metric::CpuLoad, Metric::PageFaults, Metric::MemAvailKb]
            .into_iter()
            .map(|m| (m, 7.0))
            .collect()
    }

    /// Sample the host metrics of a node whose SNMP port is held by a
    /// hand-rolled responder instead of an agent. The responder has
    /// queued `answer` — a response to request 1, the manager's first —
    /// before the GET goes out, so the GET finds it waiting.
    fn sample_answered_by(answer: &[(Oid, u32)]) -> (StateVector, Vec<(Metric, SnmpError)>) {
        let mut net = Network::new(9);
        let (_sw, nodes) = net.lan(&["client", "host"], LinkSpec::lan());
        let mut iface =
            NetworkStateInterface::bind(&mut net, nodes[0], Port(40000), "public").unwrap();
        iface.add_host_metrics(nodes[1]);
        let responder = net.bind(nodes[1], well_known::SNMP_AGENT).unwrap();
        let binds = answer
            .iter()
            .map(|(oid, v)| VarBind::bound(oid.clone(), SnmpValue::Gauge32(*v)))
            .collect();
        let response = Pdu::request(PduKind::GetRequest, 1, Vec::new()).response(binds);
        let to_manager = Addr::unicast(nodes[0], Port(40000));
        net.send(
            responder,
            to_manager,
            Message::new("public", response).encode(),
        )
        .unwrap();
        let mut state = stale();
        iface.sample(&mut net, &mut AgentDirectory::new(), &mut state);
        (state, iface.last_errors)
    }

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

        let mut state = StateVector::new();
        iface.sample(&mut net, &mut agents, &mut state);
        assert_eq!(state.iter().count(), 4);
        assert_eq!(state.get(Metric::CpuLoad), Some(62.0));
        assert_eq!(state.get(Metric::PageFaults), Some(48.0));
        assert_eq!(state.get(Metric::MemAvailKb), Some(4096.0));
        assert_eq!(state.get(Metric::BandwidthBps), Some(10_000_000.0));
        assert!(iface.last_errors.is_empty());

        // Host evolves; next sample reflects it.
        host.force(sysmon::HostState {
            cpu_load: 99.0,
            page_faults: 80.0,
            mem_avail_kb: 100.0,
        });
        iface.sample(&mut net, &mut agents, &mut state);
        assert_eq!(state.get(Metric::CpuLoad), Some(99.0));
    }

    /// A response that answers two of the three requested variables
    /// answers none of them: the GET does not match its request, so
    /// every metric of it fails and reads absent.
    #[test]
    fn a_short_response_fails_every_metric_it_was_asked_for() {
        let (state, errors) =
            sample_answered_by(&[(arcs::host_cpu_load(), 62), (arcs::host_page_faults(), 48)]);
        assert!(state.is_empty(), "{state:?}");
        let malformed = SnmpError::Malformed("response varbinds do not match the request");
        assert_eq!(
            errors,
            [Metric::CpuLoad, Metric::PageFaults, Metric::MemAvailKb]
                .map(|m| (m, malformed.clone()))
        );
    }

    /// A response naming the variables in another order files no value
    /// under the wrong metric: each varbind whose name is not the one
    /// requested at its position fails, and the rest read.
    #[test]
    fn a_response_with_swapped_names_fails_the_swapped_metrics() {
        let (state, errors) = sample_answered_by(&[
            (arcs::host_page_faults(), 48),
            (arcs::host_cpu_load(), 62),
            (arcs::host_mem_avail(), 4096),
        ]);
        assert_eq!(state.get(Metric::CpuLoad), None);
        assert_eq!(state.get(Metric::PageFaults), None);
        assert_eq!(state.get(Metric::MemAvailKb), Some(4096.0));
        let malformed = SnmpError::Malformed("response names another variable");
        assert_eq!(
            errors,
            [Metric::CpuLoad, Metric::PageFaults].map(|m| (m, malformed.clone()))
        );
    }

    /// A metric whose GET fails reads absent, not the value the last
    /// pass read.
    #[test]
    fn a_failed_get_leaves_its_metrics_absent() {
        let mut net = Network::new(9);
        let (_sw, nodes) = net.lan(&["client"], LinkSpec::lan());
        let host = SimHost::idle("client");
        let mut agent = SnmpAgent::new("client", "public", None);
        install_host_agent(&host.shared(), &mut agent);
        let mut agents = AgentDirectory::new();
        agents.insert(AgentRuntime::bind(&mut net, nodes[0], agent).unwrap());
        let mut iface =
            NetworkStateInterface::bind(&mut net, nodes[0], Port(40000), "public").unwrap();
        iface.add_host_metrics(nodes[0]);
        let mut state = stale();
        iface.sample(&mut net, &mut agents, &mut state);
        assert_eq!(state.iter().count(), 3);
        assert!(state.iter().all(|(_, v)| v != 7.0), "{state:?}");
        state.set(Metric::LossPct, 1.0);
        // The agent is not serviced: the GET times out.
        iface.sample(&mut net, &mut AgentDirectory::new(), &mut state);
        assert_eq!(format!("{state:?}"), r#"{"loss_pct": 1.0}"#);
        assert_eq!(iface.last_errors.len(), 3);
    }

    #[test]
    fn failed_metric_is_omitted_not_fatal() {
        let mut net = Network::new(9);
        let (_sw, nodes) = net.lan(&["client", "ghost"], LinkSpec::lan());
        let mut iface =
            NetworkStateInterface::bind(&mut net, nodes[0], Port(40000), "public").unwrap();
        // No agent on 'ghost': times out.
        iface.add_metric(Metric::CpuLoad, nodes[1], arcs::host_cpu_load());
        let mut state = StateVector::new();
        iface.sample(&mut net, &mut AgentDirectory::new(), &mut state);
        assert!(state.is_empty());
        assert_eq!(iface.last_errors.len(), 1);
        assert_eq!(iface.last_errors[0].1, SnmpError::Timeout);
    }
}
