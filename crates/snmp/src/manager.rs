//! The SNMP manager: the component "that runs on the management
//! station" (§5.5), issuing GET / GETNEXT and subtree walks to agents
//! over the simulated network.

use crate::ber::Writer;
use crate::oid::Oid;
use crate::pdu::{encode_message, write_varbinds, ErrorStatus, MessageView, PduKind, VarBind};
use crate::transport::{pump_until, AgentRuntime};
use crate::value::SnmpValue;
use crate::SnmpError;
use simnet::packet::well_known;
use simnet::{Addr, Network, NodeId, Payload, Port, SocketHandle, Ticks};

/// A synchronous SNMP manager bound to one socket.
///
/// All query methods drive the simulation forward (servicing the
/// provided agents) until the matching response arrives or the timeout
/// elapses, mirroring a blocking management-station API.
///
/// [`SnmpManager::get_each`] is the GET a poller runs every pass: the
/// request is written into a buffer the network hands out
/// ([`Network::buffer`]), the response is read where it landed and
/// checked against the request — same count, same names, in order —
/// before each value is handed over, and every datagram read goes back
/// to the network ([`Network::recycle`]), so a steady poll allocates
/// nothing. [`SnmpManager::get`] collects the same
/// values into owned varbinds.
pub struct SnmpManager {
    socket: SocketHandle,
    community: String,
    next_request_id: i32,
    /// Per-request timeout in simulated time.
    pub timeout: Ticks,
    /// Simulation step used while waiting.
    pub poll_step: Ticks,
}

impl SnmpManager {
    /// Bind a manager on `node:port` using `community`.
    pub fn bind(
        net: &mut Network,
        node: NodeId,
        port: Port,
        community: &str,
    ) -> Result<Self, SnmpError> {
        let socket = net
            .bind(node, port)
            .map_err(|e| SnmpError::Transport(e.to_string()))?;
        Ok(SnmpManager {
            socket,
            community: community.to_string(),
            next_request_id: 1,
            timeout: Ticks::from_secs(2),
            poll_step: Ticks::from_millis(1),
        })
    }

    /// One request / response exchange: send `binds` under `kind`, then
    /// drive the simulation until a response with this request's id
    /// that reads whole arrives, or the timeout elapses, and hand the
    /// response, error status checked, to `read`.
    fn transact<'a, R>(
        &mut self,
        net: &mut Network,
        agents: &mut [&mut AgentRuntime],
        target: NodeId,
        kind: PduKind,
        binds: impl Iterator<Item = (&'a Oid, &'a SnmpValue)>,
        read: impl FnOnce(MessageView<'_>) -> Result<R, SnmpError>,
    ) -> Result<R, SnmpError> {
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        let mut request = net.buffer();
        Writer::append(request.as_mut(), |w| {
            encode_message(w, &self.community, kind, request_id, (0, 0), |w| {
                write_varbinds(w, binds)
            })
        });
        net.send(
            self.socket,
            Addr::unicast(target, well_known::SNMP_AGENT),
            request,
        )
        .map_err(|e| SnmpError::Transport(e.to_string()))?;

        let socket = self.socket;
        let mut response: Option<Payload> = None;
        pump_until(net, agents, self.poll_step, self.timeout, |net| {
            while let Some(dgram) = net.recv(socket) {
                let answers = MessageView::parse(&dgram.payload).is_ok_and(|m| {
                    m.kind == PduKind::Response && m.request_id == request_id && m.whole().is_some()
                });
                if answers {
                    response = Some(dgram.payload);
                    return true;
                }
                net.recycle(dgram.payload);
            }
            false
        });
        let bytes = response.ok_or(SnmpError::Timeout)?;
        let view = MessageView::parse(&bytes).expect("read when it arrived");
        let answer = match view.error_status {
            ErrorStatus::NoError => read(view.known_whole()),
            status => Err(SnmpError::ErrorStatus(status, view.error_index)),
        };
        net.recycle(bytes);
        answer
    }

    /// GET `oids`, handing `each` the position and value of every one
    /// in request order, read in place over the response. A response
    /// whose varbind count differs from the request's answers none of
    /// them: the whole GET fails `Malformed`. A varbind whose name is
    /// not the requested one at its position is handed over as
    /// `Err(Malformed)` and the others as their values.
    pub fn get_each(
        &mut self,
        net: &mut Network,
        agents: &mut [&mut AgentRuntime],
        target: NodeId,
        oids: &[Oid],
        mut each: impl FnMut(usize, Result<&SnmpValue, SnmpError>),
    ) -> Result<(), SnmpError> {
        let binds = oids.iter().map(|oid| (oid, &SnmpValue::Null));
        self.transact(net, agents, target, PduKind::GetRequest, binds, |view| {
            if view.varbinds().count() != oids.len() {
                return Err(SnmpError::Malformed(
                    "response varbinds do not match the request",
                ));
            }
            for (at, (vb, oid)) in view.varbinds().zip(oids).enumerate() {
                let vb = vb?;
                if vb.name.is(oid) {
                    each(at, Ok(&vb.value));
                } else {
                    let e = SnmpError::Malformed("response names another variable");
                    each(at, Err(e));
                }
            }
            Ok(())
        })
    }

    /// GET one or more exact OIDs: [`Self::get_each`]'s values as owned
    /// varbinds under the requested names, or the first error any of
    /// them met.
    pub fn get(
        &mut self,
        net: &mut Network,
        agents: &mut [&mut AgentRuntime],
        target: NodeId,
        oids: &[Oid],
    ) -> Result<Vec<VarBind>, SnmpError> {
        let mut binds = Vec::with_capacity(oids.len());
        let mut failed = None;
        self.get_each(net, agents, target, oids, |at, value| match value {
            Ok(value) => binds.push(VarBind::bound(oids[at].clone(), value.clone())),
            Err(e) => {
                failed.get_or_insert(e);
            }
        })?;
        match failed {
            Some(e) => Err(e),
            None => Ok(binds),
        }
    }

    /// GET a single OID and coerce it to `f64` (the form the inference
    /// engine consumes).
    pub fn get_f64(
        &mut self,
        net: &mut Network,
        agents: &mut [&mut AgentRuntime],
        target: NodeId,
        oid: &Oid,
    ) -> Result<f64, SnmpError> {
        let binds = self.get(net, agents, target, std::slice::from_ref(oid))?;
        binds
            .first()
            .and_then(|vb| vb.value.as_f64())
            .ok_or(SnmpError::Malformed("non-numeric or missing value"))
    }

    /// GETNEXT for each OID.
    pub fn get_next(
        &mut self,
        net: &mut Network,
        agents: &mut [&mut AgentRuntime],
        target: NodeId,
        oids: &[Oid],
    ) -> Result<Vec<VarBind>, SnmpError> {
        let binds = oids.iter().map(|oid| (oid, &SnmpValue::Null));
        self.transact(
            net,
            agents,
            target,
            PduKind::GetNextRequest,
            binds,
            |view| Ok(view.to_message()?.pdu.varbinds),
        )
    }

    /// Walk an entire subtree with repeated GETNEXT, stopping at the
    /// first OID outside `root` or at endOfMibView. An answer whose
    /// name is not strictly after the cursor in MIB order is
    /// `Malformed` (RFC 3416 §4.2.2 answers with the successor), so a
    /// faulty agent cannot keep the walk going forever.
    pub fn walk(
        &mut self,
        net: &mut Network,
        agents: &mut [&mut AgentRuntime],
        target: NodeId,
        root: &Oid,
    ) -> Result<Vec<VarBind>, SnmpError> {
        let mut out = Vec::new();
        let mut cursor = root.clone();
        loop {
            let binds = self.get_next(net, agents, target, std::slice::from_ref(&cursor))?;
            let Some(vb) = binds.into_iter().next() else {
                break;
            };
            if vb.value == SnmpValue::EndOfMibView || !vb.name.starts_with(root) {
                break;
            }
            if vb.name <= cursor {
                return Err(SnmpError::Malformed("GETNEXT answer does not advance"));
            }
            cursor = vb.name.clone();
            out.push(vb);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SnmpAgent;
    use crate::oid::arcs;
    use crate::pdu::{Message, Pdu};
    use simnet::LinkSpec;

    fn world() -> (Network, SnmpManager, AgentRuntime, NodeId) {
        let mut net = Network::new(17);
        let (_sw, hosts) = net.lan(&["station", "host"], LinkSpec::lan());
        let mut agent = SnmpAgent::new("simhost", "public", None);
        agent
            .mib_mut()
            .register_computed(arcs::host_cpu_load(), || SnmpValue::Gauge32(37));
        agent
            .mib_mut()
            .register_computed(arcs::host_page_faults(), || SnmpValue::Gauge32(64));
        agent
            .mib_mut()
            .register_scalar(arcs::host_mem_avail(), SnmpValue::Gauge32(4096));
        let rt = AgentRuntime::bind(&mut net, hosts[1], agent).unwrap();
        let mgr = SnmpManager::bind(&mut net, hosts[0], Port(30000), "public").unwrap();
        (net, mgr, rt, hosts[1])
    }

    #[test]
    fn get_single_and_multi() {
        let (mut net, mut mgr, mut rt, host) = world();
        let v = mgr
            .get_f64(&mut net, &mut [&mut rt], host, &arcs::host_cpu_load())
            .unwrap();
        assert_eq!(v, 37.0);
        let binds = mgr
            .get(
                &mut net,
                &mut [&mut rt],
                host,
                &[arcs::host_cpu_load(), arcs::host_page_faults()],
            )
            .unwrap();
        assert_eq!(binds.len(), 2);
        assert_eq!(binds[1].value, SnmpValue::Gauge32(64));
    }

    #[test]
    fn walk_private_subtree() {
        let (mut net, mut mgr, mut rt, host) = world();
        let binds = mgr
            .walk(&mut net, &mut [&mut rt], host, &arcs::tassl())
            .unwrap();
        let names: Vec<_> = binds.iter().map(|vb| vb.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                arcs::host_cpu_load(),
                arcs::host_page_faults(),
                arcs::host_mem_avail()
            ]
        );
    }

    #[test]
    fn unreachable_agent_times_out() {
        let mut net = Network::new(1);
        let a = net.add_node("station");
        let b = net.add_node("island");
        net.connect(a, b, LinkSpec::lan());
        // No agent bound on b: request arrives at an unbound port.
        let mut mgr = SnmpManager::bind(&mut net, a, Port(30000), "public").unwrap();
        mgr.timeout = Ticks::from_millis(20);
        let err = mgr
            .get(&mut net, &mut [], b, &[arcs::sys_descr()])
            .unwrap_err();
        assert_eq!(err, SnmpError::Timeout);
    }

    /// A response carrying an error status fails the request with that
    /// status and index. No agent here answers with one, so a socket on
    /// the agent's port plays the agent: its response, sent before the
    /// request, arrives while the manager waits for request id 1.
    #[test]
    fn error_status_surfaces() {
        let mut net = Network::new(17);
        let (_sw, hosts) = net.lan(&["station", "host"], LinkSpec::lan());
        let (station, host) = (hosts[0], hosts[1]);
        let mut mgr = SnmpManager::bind(&mut net, station, Port(30000), "public").unwrap();
        let fake = net.bind(host, well_known::SNMP_AGENT).unwrap();
        let mut failed = Pdu::request(PduKind::Response, 1, vec![arcs::sys_descr()]);
        failed.error_status = ErrorStatus::GenErr;
        failed.error_index = 1;
        let wire = Message::new("public", failed).encode();
        net.send(fake, Addr::unicast(station, Port(30000)), wire)
            .unwrap();
        let err = mgr
            .get(&mut net, &mut [], host, &[arcs::sys_descr()])
            .unwrap_err();
        assert_eq!(err, SnmpError::ErrorStatus(ErrorStatus::GenErr, 1));
    }

    #[test]
    fn walk_refuses_an_answer_that_does_not_advance() {
        let mut net = Network::new(17);
        let (_sw, hosts) = net.lan(&["station", "host"], LinkSpec::lan());
        let (station, host) = (hosts[0], hosts[1]);
        let mut mgr = SnmpManager::bind(&mut net, station, Port(30000), "public").unwrap();
        let fake = net.bind(host, well_known::SNMP_AGENT).unwrap();
        let root = arcs::sys_descr();
        let stuck = Pdu::request(PduKind::Response, 1, vec![root.clone()]);
        let wire = Message::new("public", stuck).encode();
        net.send(fake, Addr::unicast(station, Port(30000)), wire)
            .unwrap();
        let err = mgr.walk(&mut net, &mut [], host, &root).unwrap_err();
        assert_eq!(err, SnmpError::Malformed("GETNEXT answer does not advance"));
    }
}
