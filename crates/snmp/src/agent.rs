//! The SNMP agent: community authentication + PDU dispatch over a MIB.
//!
//! Both flavours the paper mentions are covered: the "standard agents"
//! on routers/switches and the "specialized embedded extension agent
//! that runs on each host" are the same [`SnmpAgent`] type with
//! different MIB contents (see `sysmon` for the host extension agent).

use crate::ber::Writer;
use crate::mib::{MibTree, SetOutcome};
use crate::oid::{arcs, Oid};
use crate::pdu::{encode_message, ErrorStatus, Message, MessageView, Pdu, PduKind, VarBind};
use crate::value::SnmpValue;

/// An SNMP agent servicing one MIB.
pub struct SnmpAgent {
    read_community: String,
    write_community: Option<String>,
    mib: MibTree,
    /// Requests dropped for bad community (silent per RFC; counted for tests).
    pub auth_failures: u64,
}

impl SnmpAgent {
    /// An agent with a read community and optional distinct write
    /// community; starts with the standard `system` group populated.
    pub fn new(descr: &str, read_community: &str, write_community: Option<&str>) -> Self {
        let mut mib = MibTree::new();
        mib.register_scalar(arcs::sys_descr(), SnmpValue::string(descr));
        mib.register_scalar(arcs::sys_name(), SnmpValue::string(descr));
        SnmpAgent {
            read_community: read_community.to_string(),
            write_community: write_community.map(str::to_string),
            mib,
            auth_failures: 0,
        }
    }

    /// Mutable access to the MIB for registering instrumentation.
    pub fn mib_mut(&mut self) -> &mut MibTree {
        &mut self.mib
    }

    fn authorized(&self, kind: PduKind, community: &str) -> bool {
        match kind {
            PduKind::SetRequest => match &self.write_community {
                Some(wc) => community == wc,
                None => community == self.read_community,
            },
            _ => {
                community == self.read_community
                    || self.write_community.as_deref() == Some(community)
            }
        }
    }

    /// Service one raw request datagram, appending the encoded response
    /// to `out`. `None`, with nothing written, when the message is
    /// undecodable or fails community authentication (silently dropped,
    /// like real agents).
    ///
    /// A GET is answered from the request as it lies in `raw`: each
    /// name is looked up by its arcs and the response written straight
    /// into `out`. Every other kind is decoded into owned values and
    /// answered from those. The response bytes are the ones an owned
    /// decode, dispatch and encode of the GET would give.
    pub fn handle(&mut self, raw: &[u8], out: &mut Vec<u8>) -> Option<()> {
        let view = MessageView::parse(raw).ok()?.whole()?;
        if !self.authorized(view.kind, view.community) {
            self.auth_failures += 1;
            return None;
        }
        if view.kind == PduKind::GetRequest {
            self.answer_get(&view, out);
            return Some(());
        }
        // The response echoes the request's community and, for SET, its
        // names: the decoded request becomes the response.
        let mut msg = view.to_message().ok()?;
        self.dispatch(&mut msg.pdu)?;
        Writer::append(out, |w| msg.encode_into(w));
        Some(())
    }

    /// Append the response to the GET `view`, which must read whole:
    /// every name echoed under the value the MIB holds for it, sampled
    /// in varbind order as the response is written.
    fn answer_get(&mut self, view: &MessageView<'_>, out: &mut Vec<u8>) {
        let mib = &mut self.mib;
        let (community, id) = (view.community, view.request_id);
        Writer::append(out, |w| {
            encode_message(w, community, PduKind::Response, id, (0, 0), |w| {
                for vb in view.varbinds().flatten() {
                    vb.name.with_arcs(|arcs| {
                        let value = mib.get(arcs).unwrap_or(SnmpValue::NoSuchObject);
                        w.sequence(|w| {
                            w.oid_arcs(arcs);
                            value.encode(w);
                        });
                    });
                }
            })
        })
    }

    /// Turn the request `pdu` into its response, in place; `None` for
    /// the kinds an agent does not answer.
    fn dispatch(&mut self, pdu: &mut Pdu) -> Option<()> {
        match pdu.kind {
            PduKind::GetNextRequest => {
                for vb in &mut pdu.varbinds {
                    self.step(vb);
                }
            }
            PduKind::SetRequest => {
                for (i, vb) in pdu.varbinds.iter().enumerate() {
                    let status = match self.mib.set(&vb.name, vb.value.clone()) {
                        SetOutcome::Ok => continue,
                        SetOutcome::NoSuchName => ErrorStatus::NoSuchName,
                        SetOutcome::NotWritable => ErrorStatus::NotWritable,
                    };
                    *pdu = pdu.error_response(status, i as u32 + 1);
                    return Some(());
                }
            }
            PduKind::GetBulkRequest => {
                let (non_repeaters, max_repetitions) = pdu.bulk.unwrap_or((0, 10));
                // Cap repetitions so a hostile request cannot explode
                // the response.
                let max_repetitions = max_repetitions.min(128);
                let mut repeaters = std::mem::take(&mut pdu.varbinds);
                let nr = (non_repeaters as usize).min(repeaters.len());
                pdu.varbinds = repeaters.drain(..nr).collect();
                for vb in &mut pdu.varbinds {
                    self.step(vb);
                }
                for mut vb in repeaters {
                    for _ in 0..max_repetitions {
                        let more = self.step(&mut vb);
                        pdu.varbinds.push(vb.clone());
                        if !more {
                            break;
                        }
                    }
                }
            }
            // GETs are answered in place by `answer_get`; agents do not
            // answer responses or traps.
            PduKind::GetRequest | PduKind::Response | PduKind::TrapV2 => return None,
        }
        let binds = std::mem::take(&mut pdu.varbinds);
        *pdu = pdu.response(binds);
        Some(())
    }

    /// GETNEXT in place: `vb` becomes the first variable after its
    /// name, or keeps its name under `endOfMibView` (and reports
    /// `false`) past the last one.
    fn step(&mut self, vb: &mut VarBind) -> bool {
        match self.mib.get_next(&vb.name) {
            Some((oid, value)) => {
                *vb = VarBind::bound(oid, value);
                true
            }
            None => {
                vb.value = SnmpValue::EndOfMibView;
                false
            }
        }
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
            bulk: None,
            varbinds,
        };
        Message::new(&self.read_community, pdu).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> SnmpAgent {
        let mut a = SnmpAgent::new("router-1", "public", Some("private"));
        a.mib_mut()
            .register_computed(arcs::host_cpu_load(), || SnmpValue::Gauge32(42));
        a.mib_mut()
            .register_writable(arcs::host_mem_avail(), SnmpValue::Gauge32(1024));
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
    fn set_requires_write_community() {
        let mut a = agent();
        let set = |community: &str| {
            Message::new(
                community,
                Pdu {
                    kind: PduKind::SetRequest,
                    request_id: 5,
                    error_status: ErrorStatus::NoError,
                    error_index: 0,
                    bulk: None,
                    varbinds: vec![VarBind::bound(
                        arcs::host_mem_avail(),
                        SnmpValue::Gauge32(2048),
                    )],
                },
            )
        };
        // Read community cannot write.
        assert!(a.handle(&set("public").encode(), &mut Vec::new()).is_none());
        // Write community can.
        let resp = ask(&mut a, &set("private"));
        assert_eq!(resp.pdu.error_status, ErrorStatus::NoError);
        let req = Message::new(
            "public",
            Pdu::request(PduKind::GetRequest, 6, vec![arcs::host_mem_avail()]),
        );
        assert_eq!(
            ask(&mut a, &req).pdu.varbinds[0].value,
            SnmpValue::Gauge32(2048)
        );
    }

    #[test]
    fn set_read_only_var_errors() {
        let mut a = agent();
        let msg = Message::new(
            "private",
            Pdu {
                kind: PduKind::SetRequest,
                request_id: 9,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                bulk: None,
                varbinds: vec![VarBind::bound(arcs::host_cpu_load(), SnmpValue::Gauge32(0))],
            },
        );
        let resp = ask(&mut a, &msg);
        assert_eq!(resp.pdu.error_status, ErrorStatus::NotWritable);
        assert_eq!(resp.pdu.error_index, 1);
    }

    #[test]
    fn getbulk_walks_in_one_round_trip() {
        let mut a = agent();
        // MIB: sysDescr, sysName, cpu, mem (4 vars).
        let req = Message::new(
            "public",
            Pdu::bulk_request(3, 0, 10, vec![Oid::new(&[1, 3])]),
        );
        let resp = ask(&mut a, &req);
        // All 4 variables plus the endOfMibView marker.
        assert_eq!(resp.pdu.varbinds.len(), 5);
        assert_eq!(resp.pdu.varbinds[0].name, arcs::sys_descr());
        assert_eq!(
            resp.pdu.varbinds.last().unwrap().value,
            SnmpValue::EndOfMibView
        );
    }

    #[test]
    fn getbulk_respects_max_repetitions() {
        let mut a = agent();
        let req = Message::new(
            "public",
            Pdu::bulk_request(4, 0, 2, vec![Oid::new(&[1, 3])]),
        );
        let resp = ask(&mut a, &req);
        assert_eq!(resp.pdu.varbinds.len(), 2);
    }

    #[test]
    fn getbulk_non_repeaters_mix() {
        let mut a = agent();
        // First name: single GETNEXT; second name: repeated.
        let req = Message::new(
            "public",
            Pdu::bulk_request(5, 1, 3, vec![Oid::new(&[1, 3]), arcs::sys_descr()]),
        );
        let resp = ask(&mut a, &req);
        // 1 (non-repeater) + 3 (repetitions) = 4 varbinds.
        assert_eq!(resp.pdu.varbinds.len(), 4);
        assert_eq!(resp.pdu.varbinds[0].name, arcs::sys_descr());
        assert_eq!(resp.pdu.varbinds[1].name, arcs::sys_name());
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
