//! Golden wire-format tests.
//!
//! The SNMP implementation claims wire-level fidelity; these
//! tests pin exact byte sequences. The SNMP vectors are hand-assembled
//! from RFC 3416/BER rules and match what standard tooling (net-snmp,
//! Wireshark) produces for the same operations, so a regression in the
//! codec cannot hide behind a symmetric encode/decode bug. The
//! semantic-message vector pins our own container format against
//! accidental breaking changes.

use collabqos::sempubsub::{AttrValue, SemanticMessage};
use collabqos::snmp::oid::arcs;
use collabqos::snmp::{ErrorStatus, Message, Oid, Pdu, PduKind, SnmpAgent, SnmpValue, VarBind};

/// `GetRequest(sysDescr.0)`, community "public", request-id 1 — the
/// canonical first SNMP packet everyone sends.
#[test]
fn snmp_get_sysdescr_matches_rfc_encoding() {
    let msg = Message::new(
        "public",
        Pdu::request(
            PduKind::GetRequest,
            1,
            vec!["1.3.6.1.2.1.1.1.0".parse::<Oid>().unwrap()],
        ),
    );
    let expected: Vec<u8> = vec![
        0x30, 0x26, // SEQUENCE, 38 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA0, 0x19, // GetRequest PDU, 25 bytes
        0x02, 0x01, 0x01, // request-id = 1
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x0E, // varbind list
        0x30, 0x0C, // varbind
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x01, 0x00, // sysDescr.0
        0x05, 0x00, // NULL
    ];
    assert_eq!(msg.encode(), expected);
    // And the golden bytes decode back to the same message.
    assert_eq!(Message::decode(&expected).unwrap(), msg);
}

/// `GetResponse(sysDescr.0 = "simhost")`, community "public",
/// request-id 1 — the answer to the request above, with a bound
/// OCTET STRING value instead of NULL.
#[test]
fn snmp_get_response_matches_rfc_encoding() {
    let msg = Message::new(
        "public",
        Pdu {
            kind: PduKind::Response,
            request_id: 1,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds: vec![VarBind::bound(
                arcs::sys_descr(),
                SnmpValue::OctetString(b"simhost".to_vec()),
            )],
        },
    );
    let expected: Vec<u8> = vec![
        0x30, 0x2D, // SEQUENCE, 45 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x20, // Response PDU, 32 bytes
        0x02, 0x01, 0x01, // request-id = 1
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x15, // varbind list
        0x30, 0x13, // varbind
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x01, 0x00, // sysDescr.0
        0x04, 0x07, b's', b'i', b'm', b'h', b'o', b's', b't', // value
    ];
    assert_eq!(msg.encode(), expected);
    assert_eq!(Message::decode(&expected).unwrap(), msg);
}

/// An SNMPv2-Trap carrying the QoS-alert notification with the RTP
/// loss gauge, exactly as the host extension agent emits it: the RFC
/// 3416 mandatory prefix (sysUpTime.0 TimeTicks, snmpTrapOID.0) then
/// the payload varbind.
#[test]
fn snmp_qos_alert_trap_matches_rfc_encoding() {
    let mut agent = SnmpAgent::new("host", "public", None);
    let raw = agent.build_trap(
        1234,
        arcs::tassl().child(10), // qosAlert notification OID
        vec![VarBind::bound(
            arcs::host_rtp_loss(),
            SnmpValue::Gauge32(17),
        )],
    );
    let expected: Vec<u8> = vec![
        0x30, 0x52, // SEQUENCE, 82 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA7, 0x45, // SNMPv2-Trap PDU, 69 bytes
        0x02, 0x01, 0x00, // request-id = 0
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x3A, // varbind list
        0x30, 0x0E, // varbind: sysUpTime.0 = TimeTicks 1234
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x03, 0x00, //
        0x43, 0x02, 0x04, 0xD2, //
        0x30, 0x17, // varbind: snmpTrapOID.0 = qosAlert
        0x06, 0x0A, 0x2B, 0x06, 0x01, 0x06, 0x03, 0x01, 0x01, 0x04, 0x01, 0x00, //
        0x06, 0x09, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x0A, //
        0x30, 0x0F, // varbind: hostRtpLossPct.0 = Gauge32 17
        0x06, 0x0A, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x06, 0x00, //
        0x42, 0x01, 0x11, //
    ];
    assert_eq!(raw, expected);
    // The golden bytes decode to a well-formed trap.
    let msg = Message::decode(&expected).unwrap();
    assert_eq!(msg.pdu.kind, PduKind::TrapV2);
    assert_eq!(msg.pdu.varbinds.len(), 3);
    assert_eq!(msg.pdu.varbinds[2].name, arcs::host_rtp_loss());
}

/// `GetResponse` carrying the traffic-control plane's per-link MIB
/// row for link 0 — qdiscBacklog.0 (Gauge32), qdiscDrops.0 and
/// qdiscEcnMarks.0 (Counter32) — exactly as a station polling the
/// qdisc subtree (99999.20) sees it on the wire.
#[test]
fn snmp_qdisc_row_response_matches_rfc_encoding() {
    let msg = Message::new(
        "public",
        Pdu {
            kind: PduKind::Response,
            request_id: 7,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds: vec![
                VarBind::bound(arcs::qdisc_backlog(0), SnmpValue::Gauge32(4500)),
                VarBind::bound(arcs::qdisc_drops(0), SnmpValue::Counter32(3)),
                VarBind::bound(arcs::qdisc_ecn_marks(0), SnmpValue::Counter32(12)),
            ],
        },
    );
    let expected: Vec<u8> = vec![
        0x30, 0x4F, // SEQUENCE, 79 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x42, // Response PDU, 66 bytes
        0x02, 0x01, 0x07, // request-id = 7
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x37, // varbind list
        0x30, 0x11, // varbind: qdiscBacklog.0 = Gauge32 4500
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x14, 0x01, 0x00, //
        0x42, 0x02, 0x11, 0x94, //
        0x30, 0x10, // varbind: qdiscDrops.0 = Counter32 3
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x14, 0x02, 0x00, //
        0x41, 0x01, 0x03, //
        0x30, 0x10, // varbind: qdiscEcnMarks.0 = Counter32 12
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x14, 0x03, 0x00, //
        0x41, 0x01, 0x0C, //
    ];
    assert_eq!(msg.encode(), expected);
    assert_eq!(Message::decode(&expected).unwrap(), msg);
}

/// `GetResponse` carrying the broker overlay's per-broker MIB row for
/// broker 1 — brokerTableSize.1 (Gauge32) plus the forwarded /
/// suppressed / advertsMerged counters — exactly as a station polling
/// the broker subtree (99999.21) sees it on the wire.
#[test]
fn snmp_broker_row_response_matches_rfc_encoding() {
    let msg = Message::new(
        "public",
        Pdu {
            kind: PduKind::Response,
            request_id: 9,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds: vec![
                VarBind::bound(arcs::broker_table_size(1), SnmpValue::Gauge32(6)),
                VarBind::bound(arcs::broker_forwarded(1), SnmpValue::Counter32(57)),
                VarBind::bound(arcs::broker_suppressed(1), SnmpValue::Counter32(113)),
                VarBind::bound(arcs::broker_adverts_merged(1), SnmpValue::Counter32(4)),
            ],
        },
    );
    let expected: Vec<u8> = vec![
        0x30, 0x60, // SEQUENCE, 96 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x53, // Response PDU, 83 bytes
        0x02, 0x01, 0x09, // request-id = 9
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x48, // varbind list
        0x30, 0x10, // varbind: brokerTableSize.1 = Gauge32 6
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x15, 0x01, 0x01, //
        0x42, 0x01, 0x06, //
        0x30, 0x10, // varbind: brokerForwarded.1 = Counter32 57
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x15, 0x02, 0x01, //
        0x41, 0x01, 0x39, //
        0x30, 0x10, // varbind: brokerSuppressed.1 = Counter32 113
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x15, 0x03, 0x01, //
        0x41, 0x01, 0x71, //
        0x30, 0x10, // varbind: brokerAdvertsMerged.1 = Counter32 4
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x15, 0x04, 0x01, //
        0x41, 0x01, 0x04, //
    ];
    assert_eq!(msg.encode(), expected);
    assert_eq!(Message::decode(&expected).unwrap(), msg);
}

/// `GetResponse` carrying the compiled-selector cache scalars —
/// cacheHits.0 / cacheMisses.0 / cacheEvictions.0 (all Counter32) —
/// exactly as a station polling the selector-cache subtree (99999.22)
/// of a session agent sees it on the wire.
#[test]
fn snmp_selector_cache_row_response_matches_rfc_encoding() {
    let msg = Message::new(
        "public",
        Pdu {
            kind: PduKind::Response,
            request_id: 11,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds: vec![
                VarBind::bound(arcs::cache_hits(), SnmpValue::Counter32(1000)),
                VarBind::bound(arcs::cache_misses(), SnmpValue::Counter32(64)),
                VarBind::bound(arcs::cache_evictions(), SnmpValue::Counter32(2)),
            ],
        },
    );
    let expected: Vec<u8> = vec![
        0x30, 0x4F, // SEQUENCE, 79 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x42, // Response PDU, 66 bytes
        0x02, 0x01, 0x0B, // request-id = 11
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x37, // varbind list
        0x30, 0x11, // varbind: cacheHits.0 = Counter32 1000
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x16, 0x01, 0x00, //
        0x41, 0x02, 0x03, 0xE8, //
        0x30, 0x10, // varbind: cacheMisses.0 = Counter32 64
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x16, 0x02, 0x00, //
        0x41, 0x01, 0x40, //
        0x30, 0x10, // varbind: cacheEvictions.0 = Counter32 2
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x16, 0x03, 0x00, //
        0x41, 0x01, 0x02, //
    ];
    assert_eq!(msg.encode(), expected);
    assert_eq!(Message::decode(&expected).unwrap(), msg);
}

/// An SNMPv2-Trap carrying the qosCongestionAlert notification
/// (tassl.11) with the hostCongestionPct gauge — the ECN early-warning
/// counterpart of the qosAlert trap above, emitted while loss is still
/// zero.
#[test]
fn snmp_qos_congestion_alert_trap_matches_rfc_encoding() {
    let mut agent = SnmpAgent::new("host", "public", None);
    let raw = agent.build_trap(
        1234,
        arcs::tassl().child(11), // qosCongestionAlert notification OID
        vec![VarBind::bound(
            arcs::host_congestion(),
            SnmpValue::Gauge32(42),
        )],
    );
    let expected: Vec<u8> = vec![
        0x30, 0x52, // SEQUENCE, 82 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA7, 0x45, // SNMPv2-Trap PDU, 69 bytes
        0x02, 0x01, 0x00, // request-id = 0
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x3A, // varbind list
        0x30, 0x0E, // varbind: sysUpTime.0 = TimeTicks 1234
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x03, 0x00, //
        0x43, 0x02, 0x04, 0xD2, //
        0x30, 0x17, // varbind: snmpTrapOID.0 = qosCongestionAlert
        0x06, 0x0A, 0x2B, 0x06, 0x01, 0x06, 0x03, 0x01, 0x01, 0x04, 0x01, 0x00, //
        0x06, 0x09, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x0B, //
        0x30, 0x0F, // varbind: hostCongestionPct.0 = Gauge32 42
        0x06, 0x0A, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x07, 0x00, //
        0x42, 0x01, 0x2A, //
    ];
    assert_eq!(raw, expected);
    // The golden bytes decode to a well-formed trap that the watcher
    // pipeline can interpret.
    let msg = Message::decode(&expected).unwrap();
    assert_eq!(msg.pdu.kind, PduKind::TrapV2);
    assert_eq!(msg.pdu.varbinds.len(), 3);
    assert_eq!(
        msg.pdu.varbinds[1].value,
        SnmpValue::Oid(arcs::tassl().child(11))
    );
    assert_eq!(msg.pdu.varbinds[2].name, arcs::host_congestion());
}

/// `GetResponse` carrying the custody store's per-broker MIB row for
/// broker 0 — storedBundles.0 / storedBytes.0 (Gauge32) plus the
/// custodyTransfers / expired / evicted counters — exactly as a
/// station polling the DTN store subtree (99999.23) of a broker agent
/// sees it on the wire.
#[test]
fn snmp_store_row_response_matches_rfc_encoding() {
    let msg = Message::new(
        "public",
        Pdu {
            kind: PduKind::Response,
            request_id: 13,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds: vec![
                VarBind::bound(arcs::store_bundles(0), SnmpValue::Gauge32(3)),
                VarBind::bound(arcs::store_bytes(0), SnmpValue::Gauge32(450)),
                VarBind::bound(arcs::store_custody_transfers(0), SnmpValue::Counter32(3)),
                VarBind::bound(arcs::store_expired(0), SnmpValue::Counter32(1)),
                VarBind::bound(arcs::store_evicted(0), SnmpValue::Counter32(0)),
            ],
        },
    );
    let expected: Vec<u8> = vec![
        0x30, 0x73, // SEQUENCE, 115 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x66, // Response PDU, 102 bytes
        0x02, 0x01, 0x0D, // request-id = 13
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x5B, // varbind list
        0x30, 0x10, // varbind: storedBundles.0 = Gauge32 3
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x17, 0x01, 0x00, //
        0x42, 0x01, 0x03, //
        0x30, 0x11, // varbind: storedBytes.0 = Gauge32 450
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x17, 0x02, 0x00, //
        0x42, 0x02, 0x01, 0xC2, //
        0x30, 0x10, // varbind: custodyTransfers.0 = Counter32 3
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x17, 0x03, 0x00, //
        0x41, 0x01, 0x03, //
        0x30, 0x10, // varbind: storeExpired.0 = Counter32 1
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x17, 0x04, 0x00, //
        0x41, 0x01, 0x01, //
        0x30, 0x10, // varbind: storeEvicted.0 = Counter32 0
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x17, 0x05, 0x00, //
        0x41, 0x01, 0x00, //
    ];
    assert_eq!(msg.encode(), expected);
    assert_eq!(Message::decode(&expected).unwrap(), msg);
}

/// An SNMPv2-Trap carrying the qosStoreAlert notification (tassl.12)
/// with the storedBytes gauge — emitted by a broker whose custody
/// store crossed its high-watermark during a partition, warning the
/// station *before* deterministic eviction starts discarding
/// unexpired bundles.
#[test]
fn snmp_qos_store_alert_trap_matches_rfc_encoding() {
    let mut agent = SnmpAgent::new("broker-0", "public", None);
    let raw = agent.build_trap(
        1234,
        arcs::tassl().child(12), // qosStoreAlert notification OID
        vec![VarBind::bound(
            arcs::store_bytes(0),
            SnmpValue::Gauge32(450),
        )],
    );
    let expected: Vec<u8> = vec![
        0x30, 0x54, // SEQUENCE, 84 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA7, 0x47, // SNMPv2-Trap PDU, 71 bytes
        0x02, 0x01, 0x00, // request-id = 0
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x3C, // varbind list
        0x30, 0x0E, // varbind: sysUpTime.0 = TimeTicks 1234
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x03, 0x00, //
        0x43, 0x02, 0x04, 0xD2, //
        0x30, 0x17, // varbind: snmpTrapOID.0 = qosStoreAlert
        0x06, 0x0A, 0x2B, 0x06, 0x01, 0x06, 0x03, 0x01, 0x01, 0x04, 0x01, 0x00, //
        0x06, 0x09, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x0C, //
        0x30, 0x11, // varbind: storedBytes.0 = Gauge32 450
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x17, 0x02, 0x00, //
        0x42, 0x02, 0x01, 0xC2, //
    ];
    assert_eq!(raw, expected);
    // The golden bytes decode to a well-formed trap.
    let msg = Message::decode(&expected).unwrap();
    assert_eq!(msg.pdu.kind, PduKind::TrapV2);
    assert_eq!(msg.pdu.varbinds.len(), 3);
    assert_eq!(
        msg.pdu.varbinds[1].value,
        SnmpValue::Oid(arcs::tassl().child(12))
    );
    assert_eq!(msg.pdu.varbinds[2].name, arcs::store_bytes(0));
}

/// `GetResponse` carrying the shaping tree's full per-node MIB row
/// for subscriber node 3 — htbNodeRate/Ceil (Gauge32, kbit/s),
/// htbNodeBacklog (Gauge32, bytes), htbNodeDrops / htbNodeEcnMarks /
/// htbNodeBorrowedBits (Counter32) — exactly as a station polling the
/// HTB subtree (99999.24) of a session agent sees it on the wire.
/// At 140 bytes this is also the first vector to exercise the
/// long-form (0x81) outer length.
#[test]
fn snmp_htb_row_response_matches_rfc_encoding() {
    let msg = Message::new(
        "public",
        Pdu {
            kind: PduKind::Response,
            request_id: 15,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            varbinds: vec![
                VarBind::bound(arcs::htb_node_rate(3), SnmpValue::Gauge32(1_000)),
                VarBind::bound(arcs::htb_node_ceil(3), SnmpValue::Gauge32(2_000)),
                VarBind::bound(arcs::htb_node_backlog(3), SnmpValue::Gauge32(4_500)),
                VarBind::bound(arcs::htb_node_drops(3), SnmpValue::Counter32(2)),
                VarBind::bound(arcs::htb_node_ecn_marks(3), SnmpValue::Counter32(9)),
                VarBind::bound(
                    arcs::htb_node_borrowed_bits(3),
                    SnmpValue::Counter32(600_000),
                ),
            ],
        },
    );
    let expected: Vec<u8> = vec![
        0x30, 0x81, 0x89, // SEQUENCE, 137 bytes (long-form length)
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x7C, // Response PDU, 124 bytes
        0x02, 0x01, 0x0F, // request-id = 15
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x71, // varbind list
        0x30, 0x11, // varbind: htbNodeRate.3 = Gauge32 1000 (kbit/s)
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x18, 0x01, 0x03, //
        0x42, 0x02, 0x03, 0xE8, //
        0x30, 0x11, // varbind: htbNodeCeil.3 = Gauge32 2000 (kbit/s)
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x18, 0x02, 0x03, //
        0x42, 0x02, 0x07, 0xD0, //
        0x30, 0x11, // varbind: htbNodeBacklog.3 = Gauge32 4500
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x18, 0x03, 0x03, //
        0x42, 0x02, 0x11, 0x94, //
        0x30, 0x10, // varbind: htbNodeDrops.3 = Counter32 2
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x18, 0x04, 0x03, //
        0x41, 0x01, 0x02, //
        0x30, 0x10, // varbind: htbNodeEcnMarks.3 = Counter32 9
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x18, 0x05, 0x03, //
        0x41, 0x01, 0x09, //
        0x30, 0x12, // varbind: htbNodeBorrowedBits.3 = Counter32 600000
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x18, 0x06, 0x03, //
        0x41, 0x03, 0x09, 0x27, 0xC0, //
    ];
    assert_eq!(msg.encode(), expected);
    assert_eq!(Message::decode(&expected).unwrap(), msg);
}

/// An SNMPv2-Trap carrying the qosPlanAlert notification (tassl.13)
/// with the htbNodeCeilUtilPct gauge for subscriber node 3 — emitted
/// by a session agent whose PlanWatcher saw sustained ceiling
/// saturation, telling the station the subscriber's *plan*, not the
/// network, is the bottleneck.
#[test]
fn snmp_qos_plan_alert_trap_matches_rfc_encoding() {
    // The trapwatch helper and the raw arc must agree on the OID.
    assert_eq!(
        collabqos::core::trapwatch::qos_plan_alert_trap_oid(),
        arcs::tassl().child(13)
    );
    let mut agent = SnmpAgent::new("isp-core", "public", None);
    let raw = agent.build_trap(
        1234,
        arcs::tassl().child(13), // qosPlanAlert notification OID
        vec![VarBind::bound(
            arcs::htb_node_util(3),
            SnmpValue::Gauge32(98),
        )],
    );
    let expected: Vec<u8> = vec![
        0x30, 0x53, // SEQUENCE, 83 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA7, 0x46, // SNMPv2-Trap PDU, 70 bytes
        0x02, 0x01, 0x00, // request-id = 0
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x3B, // varbind list
        0x30, 0x0E, // varbind: sysUpTime.0 = TimeTicks 1234
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x03, 0x00, //
        0x43, 0x02, 0x04, 0xD2, //
        0x30, 0x17, // varbind: snmpTrapOID.0 = qosPlanAlert
        0x06, 0x0A, 0x2B, 0x06, 0x01, 0x06, 0x03, 0x01, 0x01, 0x04, 0x01, 0x00, //
        0x06, 0x09, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x0D, //
        0x30, 0x10, // varbind: htbNodeCeilUtilPct.3 = Gauge32 98
        0x06, 0x0B, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F, 0x18, 0x07, 0x03, //
        0x42, 0x01, 0x62, //
    ];
    assert_eq!(raw, expected);
    // The golden bytes decode to a well-formed trap the watcher
    // pipeline can interpret.
    let msg = Message::decode(&expected).unwrap();
    assert_eq!(msg.pdu.kind, PduKind::TrapV2);
    assert_eq!(msg.pdu.varbinds.len(), 3);
    assert_eq!(
        msg.pdu.varbinds[1].value,
        SnmpValue::Oid(arcs::tassl().child(13))
    );
    assert_eq!(msg.pdu.varbinds[2].name, arcs::htb_node_util(3));
}

/// The 1.3.6.1 prefix must pack to the classic 0x2B first byte.
#[test]
fn snmp_oid_prefix_byte() {
    let msg = Message::new(
        "c",
        Pdu::request(
            PduKind::GetNextRequest,
            0,
            vec![Oid::new(&[1, 3, 6, 1, 4, 1, 99999])],
        ),
    );
    let bytes = msg.encode();
    // Find the OID TLV: tag 0x06, then content starting with 0x2B, and
    // 99999 = 0x1869F -> base-128: 0x86 0x8D 0x1F.
    let oid_content = [0x2Bu8, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8D, 0x1F];
    assert!(
        bytes.windows(oid_content.len()).any(|w| w == oid_content),
        "multi-byte arc encoding: {bytes:02X?}"
    );
}

/// What `SnmpAgent::handle` writes for `GetNextRequest(sysDescr.0)`,
/// community "public", request-id 2: the next variable, sysName.0,
/// under its value.
#[test]
fn snmp_getnext_response_matches_rfc_encoding() {
    let mut agent = SnmpAgent::new("host", "public", None);
    let request = Message::new(
        "public",
        Pdu::request(PduKind::GetNextRequest, 2, vec![arcs::sys_descr()]),
    );
    let mut raw = Vec::new();
    agent.handle(&request.encode(), &mut raw).expect("answered");
    let expected: Vec<u8> = vec![
        0x30, 0x2A, // SEQUENCE, 42 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x1D, // Response PDU, 29 bytes
        0x02, 0x01, 0x02, // request-id = 2
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x12, // varbind list
        0x30, 0x10, // varbind
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x05, 0x00, // sysName.0
        0x04, 0x04, b'h', b'o', b's', b't', // value
    ];
    assert_eq!(raw, expected);
    let msg = Message::decode(&expected).unwrap();
    assert_eq!(msg.pdu.varbinds[0].name, arcs::sys_name());
}

/// What `SnmpAgent::handle` writes for a GETNEXT past the last
/// variable — `GetNextRequest(sysName.0)` to an agent holding only the
/// system group, request-id 3: the request's own name under the v2c
/// exception `endOfMibView` (context tag 2, empty).
#[test]
fn snmp_getnext_past_the_end_matches_rfc_encoding() {
    let mut agent = SnmpAgent::new("host", "public", None);
    let request = Message::new(
        "public",
        Pdu::request(PduKind::GetNextRequest, 3, vec![arcs::sys_name()]),
    );
    let mut raw = Vec::new();
    agent.handle(&request.encode(), &mut raw).expect("answered");
    let expected: Vec<u8> = vec![
        0x30, 0x26, // SEQUENCE, 38 bytes
        0x02, 0x01, 0x01, // INTEGER version = 1 (v2c)
        0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
        0xA2, 0x19, // Response PDU, 25 bytes
        0x02, 0x01, 0x03, // request-id = 3
        0x02, 0x01, 0x00, // error-status = 0
        0x02, 0x01, 0x00, // error-index = 0
        0x30, 0x0E, // varbind list
        0x30, 0x0C, // varbind
        0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x05, 0x00, // sysName.0
        0x82, 0x00, // endOfMibView
    ];
    assert_eq!(raw, expected);
    let msg = Message::decode(&expected).unwrap();
    assert_eq!(msg.pdu.varbinds[0].value, SnmpValue::EndOfMibView);
}

/// Snapshot of the semantic-message container: changing the wire format
/// must be a conscious, versioned decision, not a refactoring accident.
#[test]
fn semantic_message_format_is_stable() {
    let mut content = std::collections::BTreeMap::new();
    content.insert("n".to_string(), AttrValue::Int(5));
    let msg = SemanticMessage {
        sender: "a".to_string(),
        kind: "k".to_string(),
        selector: "true".to_string(),
        seq: 2,
        content,
        body: vec![0xAB],
    };
    let expected: Vec<u8> = vec![
        b'S', b'E', b'M', b'1', // magic
        0x00, 0x01, b'a', // sender
        0x00, 0x01, b'k', // kind
        0x00, 0x04, b't', b'r', b'u', b'e', // selector
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, // seq
        0x00, 0x01, // content count
        0x00, 0x01, b'n', // key
        0x00, // tag: Int
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, // value 5
        0x00, 0x00, 0x00, 0x01, // body len
        0xAB, // body
    ];
    assert_eq!(msg.encode(), expected);
    assert_eq!(SemanticMessage::decode(&expected).unwrap(), msg);
}

/// The EZW container magic and layout prefix are pinned too.
#[test]
fn ezw_container_prefix_is_stable() {
    use collabqos::media::ezw;
    use collabqos::media::image::Image;
    use collabqos::media::wavelet::WaveletKind;
    let img = Image::new(8, 8, 1); // all-black: tiny deterministic stream
    let c = ezw::encode_image(&img, 2, WaveletKind::Cdf53).unwrap();
    assert_eq!(&c[..4], b"EZC1");
    assert_eq!(c[4], 1, "channels");
    assert_eq!(c[5], 1, "kind: CDF 5/3, no colour transform");
    // Channel stream: len u32 then "EZP1" plane header.
    let len = u32::from_be_bytes(c[6..10].try_into().unwrap()) as usize;
    assert_eq!(&c[10..14], b"EZP1");
    assert_eq!(len, c.len() - 10, "single channel fills the container");
    // Plane header fields: 8x8, 2 levels; black pixels level-shift to
    // -128, so the top bit-plane is 7.
    assert_eq!(u16::from_be_bytes([c[14], c[15]]), 8);
    assert_eq!(u16::from_be_bytes([c[16], c[17]]), 8);
    assert_eq!(c[18], 2, "levels");
    assert_eq!(c[19], 7, "top bit-plane of |-128|");
}
