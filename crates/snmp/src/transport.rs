//! Glue binding agents and trap sinks to `simnet` sockets.

use crate::agent::SnmpAgent;
use crate::pdu::{Message, PduKind, VarBind};
use simnet::packet::well_known;
use simnet::{Addr, Network, NodeId, SocketHandle};

/// An agent bound to UDP/161 on a node, serviced by polling.
pub struct AgentRuntime {
    /// The agent logic.
    pub agent: SnmpAgent,
    socket: SocketHandle,
    node: NodeId,
}

impl AgentRuntime {
    /// Bind `agent` on `node`'s SNMP port.
    pub fn bind(
        net: &mut Network,
        node: NodeId,
        agent: SnmpAgent,
    ) -> Result<Self, simnet::net::NetError> {
        let socket = net.bind(node, well_known::SNMP_AGENT)?;
        Ok(AgentRuntime {
            agent,
            socket,
            node,
        })
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Service all pending requests, sending responses back to the
    /// requesters. Returns the number of requests handled. Each response
    /// is written into a buffer from [`Network::buffer`], and each
    /// request's buffer goes back with [`Network::recycle`].
    pub fn service(&mut self, net: &mut Network) -> usize {
        let mut handled = 0;
        while let Some(dgram) = net.recv(self.socket) {
            let mut response = net.buffer();
            let answered = self.agent.handle(&dgram.payload, response.as_mut());
            net.recycle(dgram.payload);
            if answered.is_some() {
                // Destination port is the requester's source port.
                let to = Addr::unicast(dgram.src_node, dgram.src_port);
                let _ = net.send(self.socket, to, response);
            } else {
                net.recycle(response.into());
            }
            handled += 1;
        }
        handled
    }

    /// Emit an SNMPv2-Trap towards `sink` (a trap collector node).
    pub fn send_trap(
        &mut self,
        net: &mut Network,
        sink: NodeId,
        trap_oid: crate::oid::Oid,
        binds: Vec<VarBind>,
    ) {
        let uptime = (net.now().as_millis() / 10) as u32; // TimeTicks = 10ms units
        let raw = self.agent.build_trap(uptime, trap_oid, binds);
        let _ = net.send(self.socket, Addr::unicast(sink, well_known::SNMP_TRAP), raw);
    }
}

/// A trap collector bound to UDP/162.
pub struct TrapSink {
    socket: SocketHandle,
    /// Decoded traps, oldest first.
    pub traps: Vec<Message>,
}

impl TrapSink {
    /// Bind a sink on `node`.
    pub fn bind(net: &mut Network, node: NodeId) -> Result<Self, simnet::net::NetError> {
        let socket = net.bind(node, well_known::SNMP_TRAP)?;
        Ok(TrapSink {
            socket,
            traps: Vec::new(),
        })
    }

    /// Collect pending traps; returns how many arrived.
    pub fn service(&mut self, net: &mut Network) -> usize {
        let mut n = 0;
        while let Some(dgram) = net.recv(self.socket) {
            if let Ok(msg) = Message::decode(&dgram.payload) {
                if msg.pdu.kind == PduKind::TrapV2 {
                    self.traps.push(msg);
                    n += 1;
                }
            }
        }
        n
    }
}

/// Advance the network in `step`-sized increments up to `budget`,
/// servicing every agent in `agents` after each step, until `done`
/// reports true. Returns whether `done` was satisfied within the budget.
///
/// Only the agents passed are serviced: a request addressed to any
/// other agent waits in its socket until a later call that includes it.
/// A zero `step` advances one tick at a time, so the budget always runs
/// out.
pub fn pump_until(
    net: &mut Network,
    agents: &mut [&mut AgentRuntime],
    step: simnet::Ticks,
    budget: simnet::Ticks,
    mut done: impl FnMut(&mut Network) -> bool,
) -> bool {
    let step = step.max(simnet::Ticks(1));
    let deadline = net.now() + budget;
    loop {
        for a in agents.iter_mut() {
            a.service(net);
        }
        if done(net) {
            return true;
        }
        if net.now() >= deadline {
            return false;
        }
        let next = (net.now() + step).min(deadline);
        net.run_until(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::arcs;
    use crate::pdu::Pdu;
    use crate::value::SnmpValue;
    use simnet::{LinkSpec, Port, Ticks};

    #[test]
    fn agent_answers_over_simulated_wire() {
        let mut net = Network::new(5);
        let (_sw, hosts) = net.lan(&["mgr", "router"], LinkSpec::lan());
        let (mgr_node, rtr_node) = (hosts[0], hosts[1]);
        let mut agent = SnmpAgent::new("router", "public", None);
        agent
            .mib_mut()
            .register_computed(arcs::host_cpu_load(), || SnmpValue::Gauge32(61));
        let mut rt = AgentRuntime::bind(&mut net, rtr_node, agent).unwrap();
        let mgr_sock = net.bind(mgr_node, Port(20000)).unwrap();
        let req = Message::new(
            "public",
            Pdu::request(PduKind::GetRequest, 11, vec![arcs::host_cpu_load()]),
        );
        net.send(
            mgr_sock,
            Addr::unicast(rtr_node, well_known::SNMP_AGENT),
            req.encode(),
        )
        .unwrap();
        let ok = pump_until(
            &mut net,
            &mut [&mut rt],
            Ticks::from_millis(1),
            Ticks::from_secs(1),
            |net| net.pending(mgr_sock) > 0,
        );
        assert!(ok, "response arrived");
        let dgram = net.recv(mgr_sock).unwrap();
        let resp = Message::decode(&dgram.payload).unwrap();
        assert_eq!(resp.pdu.request_id, 11);
        assert_eq!(resp.pdu.varbinds[0].value, SnmpValue::Gauge32(61));
    }

    #[test]
    fn traps_reach_the_sink() {
        let mut net = Network::new(5);
        let (_sw, hosts) = net.lan(&["sink", "host"], LinkSpec::lan());
        let agent = SnmpAgent::new("host", "public", None);
        let mut rt = AgentRuntime::bind(&mut net, hosts[1], agent).unwrap();
        let mut sink = TrapSink::bind(&mut net, hosts[0]).unwrap();
        rt.send_trap(
            &mut net,
            hosts[0],
            arcs::tassl().child(1),
            vec![VarBind::bound(
                arcs::host_cpu_load(),
                SnmpValue::Gauge32(95),
            )],
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 1);
        assert_eq!(sink.traps[0].pdu.kind, PduKind::TrapV2);
    }

    #[test]
    fn a_zero_poll_step_still_times_out_in_simulated_time() {
        let mut net = Network::new(5);
        let (_sw, hosts) = net.lan(&["mgr", "ghost"], LinkSpec::lan());
        // Nobody answers on `ghost`, and the manager's step is zero.
        let mut mgr = crate::SnmpManager::bind(&mut net, hosts[0], Port(20000), "public").unwrap();
        mgr.poll_step = Ticks::ZERO;
        mgr.timeout = Ticks::from_micros(250);
        let start = net.now();
        let err = mgr
            .get(&mut net, &mut [], hosts[1], &[arcs::sys_descr()])
            .unwrap_err();
        assert_eq!(err, crate::SnmpError::Timeout);
        assert_eq!(net.now() - start, Ticks::from_micros(250));
    }
}
