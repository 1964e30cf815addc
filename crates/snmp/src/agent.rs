//! The SNMP agent: community authentication, then GET and GETNEXT
//! answered over a MIB.
//!
//! Both flavours the paper mentions are covered: the "standard agents"
//! on routers/switches and the "specialized embedded extension agent
//! that runs on each host" are the same [`SnmpAgent`] type with
//! different MIB contents (see `sysmon` for the host extension agent).

use crate::ber::Writer;
use crate::mib::MibTree;
use crate::oid::{arcs, Oid};
use crate::pdu::{encode_message, ErrorStatus, Message, MessageView, Pdu, PduKind, VarBind};
use crate::value::SnmpValue;

/// An SNMP agent servicing one MIB.
pub struct SnmpAgent {
    community: String,
    mib: MibTree,
    /// Requests dropped for bad community (silent per RFC; counted for tests).
    pub auth_failures: u64,
}

impl SnmpAgent {
    /// An agent answering GET and GETNEXT under `community`; starts
    /// with the standard `system` group populated.
    ///
    /// `write_community` is dead and must be `None`: the agent serves
    /// no SET. The parameter stays only because the repo benchmark
    /// names it; the next change to `benchmark/` drops it there, then
    /// here.
    pub fn new(descr: &str, community: &str, write_community: Option<&str>) -> Self {
        assert!(write_community.is_none(), "the agent serves no SET");
        let mut mib = MibTree::new();
        mib.register_scalar(arcs::sys_descr(), SnmpValue::string(descr));
        mib.register_scalar(arcs::sys_name(), SnmpValue::string(descr));
        SnmpAgent {
            community: community.to_string(),
            mib,
            auth_failures: 0,
        }
    }

    /// Mutable access to the MIB for registering instrumentation.
    pub fn mib_mut(&mut self) -> &mut MibTree {
        &mut self.mib
    }

    /// Service one raw request datagram, appending the encoded response
    /// to `out`. `None`, with nothing written, when the message is
    /// undecodable, fails community authentication (silently dropped,
    /// like real agents) or is not a GET or GETNEXT.
    ///
    /// The request is answered as it lies in `raw`: each name is looked
    /// up by its arcs and its varbind written straight into `out`, in
    /// varbind order, each variable sampled as it is written. A GET
    /// echoes the name under its value, or under `noSuchObject`; a
    /// GETNEXT writes the first variable after the name, or echoes the
    /// name under `endOfMibView` past the last one.
    pub fn handle(&mut self, raw: &[u8], out: &mut Vec<u8>) -> Option<()> {
        let view = MessageView::parse(raw).ok()?.whole()?;
        if view.community != self.community {
            self.auth_failures += 1;
            return None;
        }
        let next = match view.kind {
            PduKind::GetRequest => false,
            PduKind::GetNextRequest => true,
            PduKind::Response | PduKind::TrapV2 => return None,
        };
        let mib = &mut self.mib;
        Writer::append(out, |w| {
            let id = view.request_id;
            encode_message(w, view.community, PduKind::Response, id, (0, 0), |w| {
                for vb in view.varbinds().flatten() {
                    vb.name.with_arcs(|arcs| {
                        let (name, value) = if next {
                            match mib.get_next(arcs) {
                                Some((oid, value)) => (oid.arcs(), value),
                                None => (arcs, SnmpValue::EndOfMibView),
                            }
                        } else {
                            (arcs, mib.get(arcs).unwrap_or(SnmpValue::NoSuchObject))
                        };
                        w.sequence(|w| {
                            w.oid_arcs(name);
                            value.encode(w);
                        });
                    });
                }
            })
        });
        Some(())
    }

    /// Build an SNMPv2-Trap message (uptime + trap OID + payload binds),
    /// ready to send to a trap sink on port 162.
    pub fn build_trap(&mut self, uptime_ticks: u32, trap_oid: Oid, binds: Vec<VarBind>) -> Vec<u8> {
        let mut varbinds = vec![
            VarBind::bound(arcs::sys_uptime(), SnmpValue::TimeTicks(uptime_ticks)),
            VarBind::bound(
                // snmpTrapOID.0
                Oid::new(&[1, 3, 6, 1, 6, 3, 1, 1, 4, 1, 0]),
                SnmpValue::Oid(trap_oid),
            ),
        ];
        varbinds.extend(binds);
        let pdu = Pdu {
            kind: PduKind::TrapV2,
            request_id: 0,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds,
        };
        Message::new(&self.community, pdu).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> SnmpAgent {
        let mut a = SnmpAgent::new("router-1", "public", None);
        a.mib_mut()
            .register_computed(arcs::host_cpu_load(), || SnmpValue::Gauge32(42));
        a.mib_mut()
            .register_scalar(arcs::host_mem_avail(), SnmpValue::Gauge32(1024));
        a
    }

    fn ask(a: &mut SnmpAgent, msg: &Message) -> Message {
        let mut resp = Vec::new();
        a.handle(&msg.encode(), &mut resp)
            .expect("response expected");
        Message::decode(&resp).unwrap()
    }

    #[test]
    fn get_round_trip_over_wire() {
        let mut a = agent();
        let req = Message::new(
            "public",
            Pdu::request(PduKind::GetRequest, 7, vec![arcs::host_cpu_load()]),
        );
        let resp = ask(&mut a, &req);
        assert_eq!(resp.pdu.request_id, 7);
        assert_eq!(resp.pdu.varbinds[0].value, SnmpValue::Gauge32(42));
    }

    #[test]
    fn get_missing_yields_no_such_object() {
        let mut a = agent();
        let req = Message::new(
            "public",
            Pdu::request(PduKind::GetRequest, 1, vec![Oid::new(&[1, 3, 9, 9])]),
        );
        let resp = ask(&mut a, &req);
        assert_eq!(resp.pdu.varbinds[0].value, SnmpValue::NoSuchObject);
    }

    #[test]
    fn getnext_walks_and_terminates() {
        let mut a = agent();
        let req = Message::new(
            "public",
            Pdu::request(PduKind::GetNextRequest, 2, vec![Oid::new(&[1, 3])]),
        );
        let resp = ask(&mut a, &req);
        assert_eq!(resp.pdu.varbinds[0].name, arcs::sys_descr());
        // From past the last variable: endOfMibView.
        let req = Message::new(
            "public",
            Pdu::request(PduKind::GetNextRequest, 3, vec![Oid::new(&[2, 0])]),
        );
        let resp = ask(&mut a, &req);
        assert_eq!(resp.pdu.varbinds[0].value, SnmpValue::EndOfMibView);
    }

    #[test]
    fn bad_community_silently_dropped() {
        let mut a = agent();
        let req = Message::new(
            "wrong",
            Pdu::request(PduKind::GetRequest, 1, vec![arcs::sys_descr()]),
        );
        assert!(a.handle(&req.encode(), &mut Vec::new()).is_none());
        assert_eq!(a.auth_failures, 1);
    }

    #[test]
    fn garbage_ignored() {
        let mut a = agent();
        assert!(a.handle(b"not ber at all", &mut Vec::new()).is_none());
        assert!(a.handle(&[], &mut Vec::new()).is_none());
    }

    #[test]
    fn trap_encodes_standard_prefix() {
        let mut a = agent();
        let raw = a.build_trap(
            100,
            arcs::tassl().child(99),
            vec![VarBind::bound(
                arcs::host_cpu_load(),
                SnmpValue::Gauge32(88),
            )],
        );
        let msg = Message::decode(&raw).unwrap();
        assert_eq!(msg.pdu.kind, PduKind::TrapV2);
        assert_eq!(msg.pdu.varbinds.len(), 3);
        assert_eq!(msg.pdu.varbinds[0].name, arcs::sys_uptime());
    }
}
