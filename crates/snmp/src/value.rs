//! The SNMP value universe.

use crate::ber::{self, tag, Reader, Writer};
use crate::oid::Oid;
use crate::SnmpError;
use std::fmt;

/// A value bound to an OID in a varbind or MIB entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnmpValue {
    /// ASN.1 INTEGER.
    Integer(i64),
    /// OCTET STRING (not necessarily UTF-8).
    OctetString(Vec<u8>),
    /// NULL — used as the placeholder in request varbinds.
    Null,
    /// OBJECT IDENTIFIER value.
    Oid(Oid),
    /// Monotonic wrapping counter.
    Counter32(u32),
    /// Non-negative gauge (the paper's CPU load, page faults, ifSpeed).
    Gauge32(u32),
    /// Hundredths of a second since agent start.
    TimeTicks(u32),
    /// v2c exception: no such object.
    NoSuchObject,
    /// v2c exception: walk ran off the end of the MIB.
    EndOfMibView,
}

impl SnmpValue {
    /// Convenience: string value.
    pub fn string(s: &str) -> SnmpValue {
        SnmpValue::OctetString(s.as_bytes().to_vec())
    }

    /// Extract a numeric reading regardless of integer flavour.
    ///
    /// The inference engine treats Gauge32/Counter32/Integer readings
    /// uniformly as `f64` samples.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            SnmpValue::Integer(v) => Some(*v as f64),
            SnmpValue::Counter32(v) | SnmpValue::Gauge32(v) | SnmpValue::TimeTicks(v) => {
                Some(*v as f64)
            }
            _ => None,
        }
    }

    /// Extract an unsigned reading if the value is integral and in range.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            SnmpValue::Integer(v) => u32::try_from(*v).ok(),
            SnmpValue::Counter32(v) | SnmpValue::Gauge32(v) | SnmpValue::TimeTicks(v) => Some(*v),
            _ => None,
        }
    }

    /// BER-encode into `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            SnmpValue::Integer(v) => w.integer(*v),
            SnmpValue::OctetString(s) => w.octet_string(s),
            SnmpValue::Null => w.null(),
            SnmpValue::Oid(o) => w.oid(o),
            SnmpValue::Counter32(v) => w.tagged_u32(tag::COUNTER32, *v),
            SnmpValue::Gauge32(v) => w.tagged_u32(tag::GAUGE32, *v),
            SnmpValue::TimeTicks(v) => w.tagged_u32(tag::TIMETICKS, *v),
            SnmpValue::NoSuchObject => w.exception(tag::NO_SUCH_OBJECT),
            SnmpValue::EndOfMibView => w.exception(tag::END_OF_MIB_VIEW),
        }
    }

    /// BER-decode one value from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<SnmpValue, SnmpError> {
        let (t, content) = r.tlv()?;
        Ok(match t {
            tag::INTEGER => SnmpValue::Integer(ber::decode_integer(content)?),
            tag::OCTET_STRING => SnmpValue::OctetString(content.to_vec()),
            tag::NULL => SnmpValue::Null,
            tag::OID => SnmpValue::Oid(ber::decode_oid(content)?),
            tag::COUNTER32 => SnmpValue::Counter32(ber::decode_u32(content)?),
            tag::GAUGE32 => SnmpValue::Gauge32(ber::decode_u32(content)?),
            tag::TIMETICKS => SnmpValue::TimeTicks(ber::decode_u32(content)?),
            tag::NO_SUCH_OBJECT => SnmpValue::NoSuchObject,
            tag::END_OF_MIB_VIEW => SnmpValue::EndOfMibView,
            _ => return Err(SnmpError::Malformed("unknown value tag")),
        })
    }
}

impl fmt::Display for SnmpValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnmpValue::Integer(v) => write!(f, "INTEGER: {v}"),
            SnmpValue::OctetString(s) => match std::str::from_utf8(s) {
                Ok(text) => write!(f, "STRING: \"{text}\""),
                Err(_) => write!(f, "HEX: {s:02x?}"),
            },
            SnmpValue::Null => write!(f, "NULL"),
            SnmpValue::Oid(o) => write!(f, "OID: {o}"),
            SnmpValue::Counter32(v) => write!(f, "Counter32: {v}"),
            SnmpValue::Gauge32(v) => write!(f, "Gauge32: {v}"),
            SnmpValue::TimeTicks(v) => write!(f, "Timeticks: {v}"),
            SnmpValue::NoSuchObject => write!(f, "noSuchObject"),
            SnmpValue::EndOfMibView => write!(f, "endOfMibView"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: SnmpValue) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(SnmpValue::decode(&mut r).unwrap(), v);
        assert!(r.is_empty());
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(SnmpValue::Integer(-42));
        round_trip(SnmpValue::OctetString(b"community".to_vec()));
        round_trip(SnmpValue::Null);
        round_trip(SnmpValue::Oid("1.3.6.1.2.1".parse().unwrap()));
        round_trip(SnmpValue::Counter32(u32::MAX));
        round_trip(SnmpValue::Gauge32(87));
        round_trip(SnmpValue::TimeTicks(123456));
        round_trip(SnmpValue::NoSuchObject);
        round_trip(SnmpValue::EndOfMibView);
    }

    #[test]
    fn as_f64_numeric_flavours() {
        assert_eq!(SnmpValue::Gauge32(55).as_f64(), Some(55.0));
        assert_eq!(SnmpValue::Integer(-3).as_f64(), Some(-3.0));
        assert_eq!(SnmpValue::Null.as_f64(), None);
        assert_eq!(SnmpValue::string("x").as_f64(), None);
    }

    #[test]
    fn as_u32_range_checks() {
        assert_eq!(SnmpValue::Integer(-1).as_u32(), None);
        assert_eq!(SnmpValue::Integer(7).as_u32(), Some(7));
        assert_eq!(SnmpValue::Counter32(9).as_u32(), Some(9));
    }
}
