//! # snmp — an SNMPv2c subset, from scratch
//!
//! The paper's network-state interface "uses the Simple Network
//! Management Protocol (SNMP) ... the IP address of the network
//! element, the community string, and the object identifier (OID) of
//! the parameters of interest (bandwidth, CPU load, page-faults, etc.)
//! to directly query the SNMP MIB" (§5.5). Rust's SNMP crate ecosystem
//! is thin (the calibration note for this reproduction says exactly
//! that), so this crate implements the needed subset from first
//! principles:
//!
//! * [`oid`] — object identifiers with dotted-string parsing and the
//!   standard MIB-2 / private-enterprise arcs used by the framework,
//! * [`ber`] — ASN.1 Basic Encoding Rules (definite-length TLV) for
//!   every type SNMP needs,
//! * [`value`] — the SNMP values the agents serve (INTEGER, OCTET
//!   STRING, Counter32, Gauge32, TimeTicks, ...),
//! * [`pdu`] — GetRequest / GetNextRequest / Response / Trap messages
//!   with community authentication: the paper only reads MIB
//!   variables, so SET and GETBULK are not spoken,
//! * [`mib`] — a management information base: a sorted tree of bound
//!   variables with instrumentation callbacks (the paper's
//!   "instrumentation routines"),
//! * [`agent`] — the embedded extension agent run on each host /
//!   network element, answering GET and GETNEXT from the request's
//!   bytes where they lie,
//! * [`manager`] — the manager component run on the management
//!   station, with `get`, `get_next` and `walk`,
//! * [`transport`] — glue that binds agents and managers to `simnet`
//!   UDP sockets on the conventional ports 161/162.
//!
//! Everything round-trips through real BER bytes on the simulated
//! wire — a manager literally decodes what the agent encoded.
#![forbid(unsafe_code)]

pub mod agent;
pub mod ber;
pub mod manager;
pub mod mib;
pub mod oid;
pub mod pdu;
pub mod transport;
pub mod value;

pub use agent::SnmpAgent;
pub use manager::SnmpManager;
pub use mib::MibTree;
pub use oid::Oid;
pub use pdu::{ErrorStatus, Message, MessageView, OidView, Pdu, PduKind, VarBind, VarBindView};
pub use value::SnmpValue;

/// Errors produced while encoding, decoding, or servicing SNMP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnmpError {
    /// BER structure was malformed.
    Malformed(&'static str),
    /// An OID string failed to parse.
    BadOid(String),
    /// Manager timed out waiting for a response.
    Timeout,
    /// Agent returned an SNMP error status.
    ErrorStatus(ErrorStatus, u32),
    /// Transport failure (simnet-level).
    Transport(String),
}

impl std::fmt::Display for SnmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnmpError::Malformed(m) => write!(f, "malformed BER: {m}"),
            SnmpError::BadOid(s) => write!(f, "bad OID: {s}"),
            SnmpError::Timeout => write!(f, "request timed out"),
            SnmpError::ErrorStatus(s, i) => write!(f, "agent error {s:?} at index {i}"),
            SnmpError::Transport(m) => write!(f, "transport: {m}"),
        }
    }
}

impl std::error::Error for SnmpError {}
