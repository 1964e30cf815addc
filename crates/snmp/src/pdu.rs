//! SNMPv2c message and PDU encoding.
//!
//! Wire layout (all BER):
//!
//! ```text
//! Message ::= SEQUENCE { version INTEGER(1), community OCTET STRING,
//!                        pdu [context] }
//! PDU     ::= { request-id INTEGER, error-status INTEGER,
//!               error-index INTEGER,
//!               varbinds SEQUENCE OF SEQUENCE { name OID, value ANY } }
//! ```

use crate::ber::{decode_oid_arcs, tag, Reader, Writer};
use crate::oid::Oid;
use crate::value::SnmpValue;
use crate::SnmpError;

/// Protocol version constant for SNMPv2c on the wire.
const VERSION_2C: i64 = 1;

/// PDU operation kinds the framework uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PduKind {
    /// GET — exact OID lookup.
    GetRequest,
    /// GETNEXT — first bound variable strictly after the given OID.
    GetNextRequest,
    /// Agent → manager reply.
    Response,
    /// SET — write a bound variable.
    SetRequest,
    /// GETBULK — batched GETNEXT (RFC 3416 §4.2.3).
    GetBulkRequest,
    /// Unsolicited notification (SNMPv2-Trap).
    TrapV2,
}

impl PduKind {
    fn to_tag(self) -> u8 {
        match self {
            PduKind::GetRequest => tag::GET_REQUEST,
            PduKind::GetNextRequest => tag::GET_NEXT_REQUEST,
            PduKind::Response => tag::RESPONSE,
            PduKind::SetRequest => tag::SET_REQUEST,
            PduKind::GetBulkRequest => tag::GET_BULK_REQUEST,
            PduKind::TrapV2 => tag::TRAP_V2,
        }
    }

    fn from_tag(t: u8) -> Option<PduKind> {
        Some(match t {
            tag::GET_REQUEST => PduKind::GetRequest,
            tag::GET_NEXT_REQUEST => PduKind::GetNextRequest,
            tag::RESPONSE => PduKind::Response,
            tag::SET_REQUEST => PduKind::SetRequest,
            tag::GET_BULK_REQUEST => PduKind::GetBulkRequest,
            tag::TRAP_V2 => PduKind::TrapV2,
            _ => return None,
        })
    }
}

/// RFC 3416 error-status codes (the subset we generate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ErrorStatus {
    /// Success.
    #[default]
    NoError,
    /// Response would not fit.
    TooBig,
    /// v1-style missing name (kept for completeness).
    NoSuchName,
    /// SET value has the wrong type/length.
    BadValue,
    /// Variable cannot be written.
    ReadOnly,
    /// Any other failure.
    GenErr,
    /// SET to a non-existent variable.
    NotWritable,
}

impl ErrorStatus {
    fn to_i64(self) -> i64 {
        match self {
            ErrorStatus::NoError => 0,
            ErrorStatus::TooBig => 1,
            ErrorStatus::NoSuchName => 2,
            ErrorStatus::BadValue => 3,
            ErrorStatus::ReadOnly => 4,
            ErrorStatus::GenErr => 5,
            ErrorStatus::NotWritable => 17,
        }
    }

    fn from_i64(v: i64) -> Result<Self, SnmpError> {
        Ok(match v {
            0 => ErrorStatus::NoError,
            1 => ErrorStatus::TooBig,
            2 => ErrorStatus::NoSuchName,
            3 => ErrorStatus::BadValue,
            4 => ErrorStatus::ReadOnly,
            5 => ErrorStatus::GenErr,
            17 => ErrorStatus::NotWritable,
            _ => return Err(SnmpError::Malformed("unknown error-status")),
        })
    }
}

/// A `(name, value)` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarBind {
    /// The variable's OID.
    pub name: Oid,
    /// Its value (Null in requests).
    pub value: SnmpValue,
}

impl VarBind {
    /// A varbind with a NULL placeholder value (request form).
    pub fn request(name: Oid) -> VarBind {
        VarBind {
            name,
            value: SnmpValue::Null,
        }
    }

    /// A fully bound varbind.
    pub fn bound(name: Oid, value: SnmpValue) -> VarBind {
        VarBind { name, value }
    }
}

/// The operation portion of a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pdu {
    /// Operation kind.
    pub kind: PduKind,
    /// Correlates responses with requests.
    pub request_id: i32,
    /// Error status (responses).
    pub error_status: ErrorStatus,
    /// 1-based index of the failing varbind, 0 if none.
    ///
    /// For `GetBulkRequest`, RFC 3416 reuses the two error fields as
    /// `non-repeaters` (this crate keeps them in [`Pdu::bulk`]).
    pub error_index: u32,
    /// GETBULK parameters `(non_repeaters, max_repetitions)`; only
    /// meaningful (and only encoded) when `kind` is `GetBulkRequest`.
    pub bulk: Option<(u32, u32)>,
    /// The variable bindings.
    pub varbinds: Vec<VarBind>,
}

impl Pdu {
    /// A request PDU of `kind` over `names` with NULL values.
    pub fn request(kind: PduKind, request_id: i32, names: Vec<Oid>) -> Pdu {
        Pdu {
            kind,
            request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bulk: None,
            varbinds: names.into_iter().map(VarBind::request).collect(),
        }
    }

    /// A GETBULK request (RFC 3416): the first `non_repeaters` names
    /// get one GETNEXT each; every further name is stepped
    /// `max_repetitions` times.
    #[cfg(test)]
    pub fn bulk_request(
        request_id: i32,
        non_repeaters: u32,
        max_repetitions: u32,
        names: Vec<Oid>,
    ) -> Pdu {
        Pdu {
            kind: PduKind::GetBulkRequest,
            request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bulk: Some((non_repeaters, max_repetitions)),
            varbinds: names.into_iter().map(VarBind::request).collect(),
        }
    }

    /// The response to this PDU with the given bindings.
    pub fn response(&self, varbinds: Vec<VarBind>) -> Pdu {
        Pdu {
            kind: PduKind::Response,
            request_id: self.request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bulk: None,
            varbinds,
        }
    }

    /// An error response echoing this PDU's varbinds.
    pub fn error_response(&self, status: ErrorStatus, index: u32) -> Pdu {
        Pdu {
            kind: PduKind::Response,
            request_id: self.request_id,
            error_status: status,
            error_index: index,
            bulk: None,
            varbinds: self.varbinds.clone(),
        }
    }
}

/// Bytes an encode buffer starts with: a GET of the three host metrics
/// and its response (≈90 bytes each) fit without regrowth.
const ENCODE_RESERVE: usize = 128;

/// Write one message. `fields` are the two integers after the request
/// id: error status and index, or a GETBULK's non-repeaters and
/// max-repetitions; `binds` writes the varbind list's content.
pub(crate) fn encode_message(
    w: &mut Writer,
    community: &str,
    kind: PduKind,
    request_id: i32,
    fields: (i64, i64),
    binds: impl FnOnce(&mut Writer),
) {
    w.sequence(|w| {
        w.integer(VERSION_2C);
        w.octet_string(community.as_bytes());
        w.constructed(kind.to_tag(), |w| {
            w.integer(request_id as i64);
            w.integer(fields.0);
            w.integer(fields.1);
            w.sequence(binds);
        });
    });
}

/// Write the varbinds `(name, value)` as a varbind list's content.
pub(crate) fn write_varbinds<'a>(
    w: &mut Writer,
    binds: impl Iterator<Item = (&'a Oid, &'a SnmpValue)>,
) {
    for (name, value) in binds {
        w.sequence(|w| {
            w.oid(name);
            value.encode(w);
        });
    }
}

/// A message read in place over its wire bytes: the header decoded,
/// the varbinds left where they lie and read one at a time by
/// [`MessageView::varbinds`]. [`Message::decode`] is this view turned
/// into owned values, so the two accept and refuse the same bytes with
/// the same errors.
#[derive(Clone, Copy, Debug)]
pub struct MessageView<'a> {
    /// Community string.
    pub community: &'a str,
    /// Operation kind.
    pub kind: PduKind,
    /// Request id.
    pub request_id: i32,
    /// Error status (`NoError` for a GETBULK).
    pub error_status: ErrorStatus,
    /// Error index (0 for a GETBULK).
    pub error_index: u32,
    /// GETBULK parameters, for a GETBULK only.
    pub bulk: Option<(u32, u32)>,
    /// The varbind list's content.
    binds: Reader<'a>,
    /// Whether every varbind is known to read, so reading one need not
    /// check its name again.
    whole: bool,
}

impl<'a> MessageView<'a> {
    /// Read the header of the message in `bytes`. A varbind is read —
    /// and a malformed one refused — only when
    /// [`MessageView::varbinds`] reaches it.
    pub fn parse(bytes: &'a [u8]) -> Result<MessageView<'a>, SnmpError> {
        let mut r = Reader::new(bytes);
        let mut msg = r.sequence()?;
        let version = msg.integer()?;
        if version != VERSION_2C {
            return Err(SnmpError::Malformed("unsupported SNMP version"));
        }
        let community = std::str::from_utf8(msg.octet_string()?)
            .map_err(|_| SnmpError::Malformed("community not UTF-8"))?;
        let pdu_tag = msg.peek_tag()?;
        let kind = PduKind::from_tag(pdu_tag).ok_or(SnmpError::Malformed("unknown PDU tag"))?;
        let mut pdu = msg.constructed(pdu_tag)?;
        let request_id = pdu.integer()? as i32;
        let field1 = pdu.integer()?;
        let field2 = pdu.integer()?;
        let (error_status, error_index, bulk) = if kind == PduKind::GetBulkRequest {
            (
                ErrorStatus::NoError,
                0,
                Some((field1.max(0) as u32, field2.max(0) as u32)),
            )
        } else {
            (ErrorStatus::from_i64(field1)?, field2 as u32, None)
        };
        Ok(MessageView {
            community,
            kind,
            request_id,
            error_status,
            error_index,
            bulk,
            binds: pdu.sequence()?,
            whole: false,
        })
    }

    /// The varbinds in wire order. The iteration ends after the first
    /// malformed varbind, which it yields as an error.
    pub fn varbinds(&self) -> VarBinds<'a> {
        VarBinds {
            binds: self.binds,
            whole: self.whole,
        }
    }

    /// The view, if every varbind reads — what [`Message::decode`] also
    /// requires of the bytes. Its varbinds are then read without
    /// checking each name a second time.
    pub fn whole(self) -> Option<MessageView<'a>> {
        let whole = self.whole || self.varbinds().all(|vb| vb.is_ok());
        whole.then_some(MessageView { whole, ..self })
    }

    /// The view of bytes whose every varbind was seen to read when they
    /// arrived.
    pub(crate) fn known_whole(self) -> MessageView<'a> {
        MessageView {
            whole: true,
            ..self
        }
    }

    /// The message as owned values, read in one pass with the errors
    /// [`MessageView::varbinds`] would meet.
    pub fn to_message(&self) -> Result<Message, SnmpError> {
        let mut binds = self.binds;
        let mut varbinds = Vec::new();
        while !binds.is_empty() {
            let mut vb = binds.sequence()?;
            let name = vb.oid()?;
            let value = SnmpValue::decode(&mut vb)?;
            varbinds.push(VarBind { name, value });
        }
        Ok(Message {
            community: self.community.to_string(),
            pdu: Pdu {
                kind: self.kind,
                request_id: self.request_id,
                error_status: self.error_status,
                error_index: self.error_index,
                bulk: self.bulk,
                varbinds,
            },
        })
    }
}

/// The varbinds of a [`MessageView`], read in place.
#[derive(Clone, Copy, Debug)]
pub struct VarBinds<'a> {
    binds: Reader<'a>,
    whole: bool,
}

impl<'a> Iterator for VarBinds<'a> {
    type Item = Result<VarBindView<'a>, SnmpError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.binds.is_empty() {
            return None;
        }
        let read = VarBindView::read(&mut self.binds, self.whole);
        if read.is_err() {
            self.binds = Reader::new(&[]);
        }
        Some(read)
    }
}

/// One varbind read in place: its name still BER-encoded over the
/// message bytes, its value decoded (which allocates only for an
/// OCTET STRING or OBJECT IDENTIFIER value, never for a number).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarBindView<'a> {
    /// The variable's name.
    pub name: OidView<'a>,
    /// Its value.
    pub value: SnmpValue,
}

impl<'a> VarBindView<'a> {
    /// Read one varbind; a name is checked to decode unless the
    /// message is known to read whole.
    fn read(r: &mut Reader<'a>, whole: bool) -> Result<VarBindView<'a>, SnmpError> {
        let mut vb = r.sequence()?;
        let name = vb.expect(tag::OID)?;
        if !whole {
            decode_oid_arcs(name, |_| ())?;
        }
        let value = SnmpValue::decode(&mut vb)?;
        Ok(VarBindView {
            name: OidView(name),
            value,
        })
    }
}

/// An OBJECT IDENTIFIER read in place: the BER content of a name that
/// decodes (checked when it was read), its arcs decoded on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OidView<'a>(&'a [u8]);

impl OidView<'_> {
    /// Whether this is `oid`, arc for arc.
    pub fn is(&self, oid: &Oid) -> bool {
        let want = oid.arcs();
        let (mut at, mut same) = (0, true);
        let _ = decode_oid_arcs(self.0, |arc| {
            same &= want.get(at) == Some(&arc);
            at += 1;
        });
        same && at == want.len()
    }

    /// Run `f` on the arcs, decoded onto the stack — or, for a name
    /// longer than any this framework registers, onto the heap.
    pub fn with_arcs<R>(&self, f: impl FnOnce(&[u32]) -> R) -> R {
        const ON_STACK: usize = 32;
        let (mut stack, mut n, mut heap) = ([0u32; ON_STACK], 0, Vec::new());
        let _ = decode_oid_arcs(self.0, |arc| {
            if n < ON_STACK {
                stack[n] = arc;
            } else {
                if heap.is_empty() {
                    heap.extend_from_slice(&stack);
                }
                heap.push(arc);
            }
            n += 1;
        });
        if n <= ON_STACK {
            f(&stack[..n])
        } else {
            f(&heap)
        }
    }
}

/// A complete community-authenticated message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Community string ("password" + view selector).
    pub community: String,
    /// The PDU.
    pub pdu: Pdu,
}

impl Message {
    /// Construct a message.
    pub fn new(community: &str, pdu: Pdu) -> Message {
        Message {
            community: community.to_string(),
            pdu,
        }
    }

    /// BER-encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENCODE_RESERVE);
        Writer::append(&mut out, |w| self.encode_into(w));
        out
    }

    pub(crate) fn encode_into(&self, w: &mut Writer) {
        let pdu = &self.pdu;
        let fields = match (pdu.kind, pdu.bulk) {
            (PduKind::GetBulkRequest, Some((nr, mr))) => (nr as i64, mr as i64),
            (PduKind::GetBulkRequest, None) => (0, 10),
            _ => (pdu.error_status.to_i64(), pdu.error_index as i64),
        };
        let binds = pdu.varbinds.iter().map(|vb| (&vb.name, &vb.value));
        encode_message(w, &self.community, pdu.kind, pdu.request_id, fields, |w| {
            write_varbinds(w, binds)
        });
    }

    /// Decode wire bytes: [`MessageView::parse`], every varbind read.
    pub fn decode(bytes: &[u8]) -> Result<Message, SnmpError> {
        MessageView::parse(bytes)?.to_message()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::arcs;

    fn sample() -> Message {
        Message::new(
            "public",
            Pdu {
                kind: PduKind::GetRequest,
                request_id: 0x0102_0304,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                bulk: None,
                varbinds: vec![
                    VarBind::request(arcs::host_cpu_load()),
                    VarBind::request(arcs::host_page_faults()),
                ],
            },
        )
    }

    #[test]
    fn message_round_trip() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn response_round_trip_with_values() {
        let resp = Message::new(
            "private",
            Pdu {
                kind: PduKind::Response,
                request_id: -7,
                error_status: ErrorStatus::NotWritable,
                error_index: 2,
                bulk: None,
                varbinds: vec![
                    VarBind::bound(arcs::sys_descr(), SnmpValue::string("simhost")),
                    VarBind::bound(arcs::host_cpu_load(), SnmpValue::Gauge32(73)),
                    VarBind::bound(arcs::sys_uptime(), SnmpValue::TimeTicks(8642)),
                ],
            },
        );
        let bytes = resp.encode();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn bulk_request_round_trips_with_parameters() {
        let m = Message::new(
            "public",
            Pdu::bulk_request(5, 1, 20, vec![arcs::sys_uptime(), arcs::mib2()]),
        );
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.pdu.kind, PduKind::GetBulkRequest);
        assert_eq!(back.pdu.bulk, Some((1, 20)));
        assert_eq!(back, m);
    }

    #[test]
    fn all_pdu_kinds_round_trip() {
        for kind in [
            PduKind::GetRequest,
            PduKind::GetNextRequest,
            PduKind::Response,
            PduKind::SetRequest,
            PduKind::TrapV2,
        ] {
            let m = Message::new("c", Pdu::request(kind, 1, vec![arcs::sys_uptime()]));
            assert_eq!(Message::decode(&m.encode()).unwrap().pdu.kind, kind);
        }
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut w = Writer::new();
        w.sequence(|w| {
            w.integer(0); // SNMPv1
            w.octet_string(b"public");
            w.constructed(tag::GET_REQUEST, |w| {
                w.integer(1);
                w.integer(0);
                w.integer(0);
                w.sequence(|_| {});
            });
        });
        assert!(Message::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn decode_rejects_truncated() {
        let bytes = sample().encode();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// An arc of 2³² or more is refused, not cut to its low 32 bits:
    /// `1.3.6.4294967301` once read as `1.3.6.5`.
    #[test]
    fn an_oid_arc_past_u32_is_refused() {
        let get = |name: &[u8]| {
            let mut w = Writer::new();
            encode_message(&mut w, "public", PduKind::GetRequest, 1, (0, 0), |w| {
                w.sequence(|w| {
                    w.tlv(tag::OID, name);
                    w.null();
                })
            });
            w.into_bytes()
        };
        let overflow = [0x2b, 0x06, 0x90, 0x80, 0x80, 0x80, 0x05];
        let refused = Err(SnmpError::Malformed("OID arc overflow"));
        assert_eq!(crate::ber::decode_oid(&overflow).map(|_| ()), refused);
        let wire = get(&overflow);
        let view = MessageView::parse(&wire).unwrap();
        assert_eq!(
            view.varbinds().next().map(|vb| vb.map(|_| ())),
            Some(refused.clone())
        );
        assert!(view.whole().is_none());
        assert_eq!(Message::decode(&wire).map(|_| ()), refused);

        let largest = [0x2b, 0x06, 0x8f, 0xff, 0xff, 0xff, 0x7f];
        let name = Oid::new(&[1, 3, 6, u32::MAX]);
        assert_eq!(crate::ber::decode_oid(&largest), Ok(name.clone()));
        let wire = get(&largest);
        let view = MessageView::parse(&wire).unwrap();
        assert!(view.varbinds().next().unwrap().unwrap().name.is(&name));
    }

    #[test]
    fn helpers_build_expected_shapes() {
        let req = Pdu::request(PduKind::GetNextRequest, 9, vec![arcs::mib2()]);
        assert_eq!(req.varbinds[0].value, SnmpValue::Null);
        let resp = req.response(vec![VarBind::bound(
            arcs::sys_descr(),
            SnmpValue::string("x"),
        )]);
        assert_eq!(resp.request_id, 9);
        assert_eq!(resp.kind, PduKind::Response);
        let err = req.error_response(ErrorStatus::GenErr, 1);
        assert_eq!(err.error_status, ErrorStatus::GenErr);
        assert_eq!(err.varbinds.len(), 1);
    }

    use proptest::prelude::*;

    /// Values whose encodings straddle the length-form boundaries: an
    /// octet string of 0..300 bytes takes a one-, two- or three-octet
    /// length itself and pushes every enclosing SEQUENCE across 127
    /// and 255 content bytes.
    fn arb_value() -> impl Strategy<Value = SnmpValue> {
        prop_oneof![
            any::<i64>().prop_map(SnmpValue::Integer),
            proptest::collection::vec(any::<u8>(), 0..300).prop_map(SnmpValue::OctetString),
            proptest::collection::vec(any::<u32>(), 0..40)
                .prop_map(|rest| SnmpValue::Oid(Oid::new(&[1, 3]).extend(&rest))),
            any::<u32>().prop_map(SnmpValue::Gauge32),
            any::<u32>().prop_map(SnmpValue::Counter32),
            Just(SnmpValue::Null),
            Just(SnmpValue::NoSuchObject),
        ]
    }

    proptest! {
        /// The in-place writer against the nested-writer reference,
        /// byte for byte, over whole messages.
        #[test]
        fn in_place_writer_matches_nested_writer(
            community_len in 0usize..160,
            request_id in any::<i32>(),
            binds in proptest::collection::vec(
                (proptest::collection::vec(any::<u32>(), 0..12), arb_value()),
                0..6,
            ),
        ) {
            let varbinds = binds
                .into_iter()
                .map(|(rest, value)| VarBind::bound(Oid::new(&[1, 3]).extend(&rest), value))
                .collect();
            let mut pdu = Pdu::request(PduKind::Response, request_id, Vec::new());
            pdu.varbinds = varbinds;
            let msg = Message::new(&"c".repeat(community_len), pdu);
            let mut reference = Writer::nested();
            msg.encode_into(&mut reference);
            let wire = msg.encode();
            prop_assert_eq!(&wire, &reference.into_bytes());
            prop_assert_eq!(Message::decode(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn borrowed_request_encoding_matches_the_owned_pdu() {
        let names = [arcs::host_cpu_load(), arcs::host_page_faults()];
        let binds = names.iter().map(|n| (n, &SnmpValue::Null));
        let mut w = Writer::new();
        encode_message(
            &mut w,
            "public",
            PduKind::GetRequest,
            0x0102_0304,
            (0, 0),
            |w| write_varbinds(w, binds),
        );
        assert_eq!(w.into_bytes(), sample().encode());
    }
}
