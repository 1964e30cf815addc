//! ASN.1 Basic Encoding Rules — the subset SNMP needs.
//!
//! Definite-length TLV encoding of INTEGER, OCTET STRING, NULL, OBJECT
//! IDENTIFIER, SEQUENCE, the SNMP application types (IpAddress,
//! Counter32, Gauge32, TimeTicks), the v2c exception tags, and the
//! context-class PDU tags.

use crate::oid::Oid;
use crate::SnmpError;
use simnet::wire;

/// BER tag bytes used by SNMPv2c.
pub mod tag {
    pub const INTEGER: u8 = 0x02;
    pub const OCTET_STRING: u8 = 0x04;
    pub const NULL: u8 = 0x05;
    pub const OID: u8 = 0x06;
    pub const SEQUENCE: u8 = 0x30;
    pub const IP_ADDRESS: u8 = 0x40;
    pub const COUNTER32: u8 = 0x41;
    pub const GAUGE32: u8 = 0x42;
    pub const TIMETICKS: u8 = 0x43;
    pub const NO_SUCH_OBJECT: u8 = 0x80;
    pub const NO_SUCH_INSTANCE: u8 = 0x81;
    pub const END_OF_MIB_VIEW: u8 = 0x82;
    pub const GET_REQUEST: u8 = 0xA0;
    pub const GET_NEXT_REQUEST: u8 = 0xA1;
    pub const RESPONSE: u8 = 0xA2;
    pub const SET_REQUEST: u8 = 0xA3;
    pub const GET_BULK_REQUEST: u8 = 0xA5;
    pub const TRAP_V2: u8 = 0xA7;
}

/// Incremental BER writer.
///
/// One buffer for the whole message: a constructed TLV's content is
/// written in place and its length patched in once it is known, so
/// encoding allocates nothing beyond the buffer itself.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Reference mode: every constructed TLV through a nested writer,
    /// the way this type worked before it wrote in place.
    #[cfg(test)]
    nested: bool,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The nested-writer reference the in-place writer is tested
    /// against, byte for byte.
    #[cfg(test)]
    pub(crate) fn nested() -> Self {
        Writer {
            buf: Vec::new(),
            nested: true,
        }
    }

    /// Run `write` over a writer whose buffer is `out`, appending to it.
    pub fn append(out: &mut Vec<u8>, write: impl FnOnce(&mut Writer)) {
        let mut w = Writer::new();
        std::mem::swap(&mut w.buf, out);
        write(&mut w);
        std::mem::swap(&mut w.buf, out);
    }

    /// Consume and return the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn push_len(&mut self, len: usize) {
        if len < 0x80 {
            self.buf.push(len as u8);
        } else {
            let bytes = len.to_be_bytes();
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            let sig = &bytes[skip..];
            self.buf.push(0x80 | sig.len() as u8);
            self.buf.extend_from_slice(sig);
        }
    }

    /// Write a raw TLV.
    pub fn tlv(&mut self, tag: u8, content: &[u8]) {
        self.buf.push(tag);
        self.push_len(content.len());
        self.buf.extend_from_slice(content);
    }

    /// Write an INTEGER (two's complement, minimal length).
    pub fn integer(&mut self, v: i64) {
        self.tagged_integer(tag::INTEGER, v);
    }

    /// Write an integer under an arbitrary tag (Counter32, Gauge32...).
    fn tagged_integer(&mut self, t: u8, v: i64) {
        let bytes = v.to_be_bytes();
        // Trim redundant leading bytes while preserving the sign bit.
        let mut start = 0;
        while start < 7 {
            let cur = bytes[start];
            let next = bytes[start + 1];
            let redundant = (cur == 0x00 && next & 0x80 == 0) || (cur == 0xff && next & 0x80 != 0);
            if redundant {
                start += 1;
            } else {
                break;
            }
        }
        self.tlv(t, &bytes[start..]);
    }

    /// Write an unsigned 32-bit value under `t` (never negative on the wire).
    pub fn tagged_u32(&mut self, t: u8, v: u32) {
        self.tagged_integer(t, v as i64);
    }

    /// Write an OCTET STRING.
    pub fn octet_string(&mut self, s: &[u8]) {
        self.tlv(tag::OCTET_STRING, s);
    }

    /// Write a NULL.
    pub fn null(&mut self) {
        self.tlv(tag::NULL, &[]);
    }

    /// Write an exception marker (v2c varbind exceptions).
    pub fn exception(&mut self, t: u8) {
        self.tlv(t, &[]);
    }

    /// Write an OBJECT IDENTIFIER.
    ///
    /// # Panics
    /// Panics if the OID is not encodable (fewer than 2 arcs or an
    /// invalid leading pair) — validate with [`Oid::is_encodable`].
    pub fn oid(&mut self, oid: &Oid) {
        assert!(oid.is_encodable(), "OID not encodable: {oid}");
        self.oid_arcs(oid.arcs());
    }

    /// Write an OBJECT IDENTIFIER from its arcs, which must be
    /// encodable (see [`Oid::is_encodable`]; a decoded OID always is).
    pub fn oid_arcs(&mut self, arcs: &[u32]) {
        self.constructed(tag::OID, |w| {
            push_base128(&mut w.buf, arcs[0] * 40 + arcs[1]);
            for &arc in &arcs[2..] {
                push_base128(&mut w.buf, arc);
            }
        });
    }

    /// Write an IpAddress (4 octets, application tag 0).
    pub fn ip_address(&mut self, addr: [u8; 4]) {
        self.tlv(tag::IP_ADDRESS, &addr);
    }

    /// Write a TLV under tag `t` whose content is whatever `f` writes.
    ///
    /// The content goes straight into this writer's buffer behind the
    /// tag; its length, known only then, is appended and rotated into
    /// place in front of it.
    pub fn constructed(&mut self, t: u8, f: impl FnOnce(&mut Writer)) {
        #[cfg(test)]
        if self.nested {
            let mut inner = Writer::nested();
            f(&mut inner);
            return self.tlv(t, &inner.buf);
        }
        self.buf.push(t);
        let at = self.buf.len();
        f(self);
        let len = self.buf.len() - at;
        self.push_len(len);
        let length_octets = self.buf.len() - at - len;
        self.buf[at..].rotate_right(length_octets);
    }

    /// Write a SEQUENCE whose content is produced by `f`.
    pub fn sequence(&mut self, f: impl FnOnce(&mut Writer)) {
        self.constructed(tag::SEQUENCE, f);
    }
}

fn push_base128(out: &mut Vec<u8>, mut v: u32) {
    let mut tmp = [0u8; 5];
    let mut i = 4;
    tmp[i] = (v & 0x7f) as u8;
    v >>= 7;
    while v > 0 {
        i -= 1;
        tmp[i] = 0x80 | (v & 0x7f) as u8;
        v >>= 7;
    }
    out.extend_from_slice(&tmp[i..]);
}

/// BER reader: TLVs read through the one bounded byte reader,
/// [`simnet::wire::Reader`].
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a>(wire::Reader<'a>);

/// A tag or length octet the buffer ends before.
const END: SnmpError = SnmpError::Malformed("unexpected end of buffer");
/// A TLV whose length runs past the buffer.
const OVERRUN: SnmpError = SnmpError::Malformed("content overruns buffer");

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader(wire::Reader::new(buf))
    }

    /// True when the cursor is at the end.
    pub fn is_empty(&self) -> bool {
        self.0.remaining() == 0
    }

    /// Peek the next tag without consuming.
    pub fn peek_tag(&self) -> Result<u8, SnmpError> {
        self.0.peek().map_err(|_| END)
    }

    /// Read any TLV, returning `(tag, content)`.
    pub fn tlv(&mut self) -> Result<(u8, &'a [u8]), SnmpError> {
        let [t, first] = self.0.array().map_err(|_| END)?;
        let len = if first & 0x80 == 0 {
            first as usize
        } else {
            let n = (first & 0x7f) as usize;
            if n == 0 || n > 8 {
                return Err(SnmpError::Malformed("unsupported length-of-length"));
            }
            let octets = self.0.take(n).map_err(|_| END)?;
            let len = octets.iter().fold(0u64, |len, &b| len << 8 | u64::from(b));
            // Past `usize` (a 32-bit target) it cannot fit the buffer.
            usize::try_from(len).map_err(|_| OVERRUN)?
        };
        Ok((t, self.0.take(len).map_err(|_| OVERRUN)?))
    }

    /// Read a TLV, requiring tag `expected`.
    pub fn expect(&mut self, expected: u8) -> Result<&'a [u8], SnmpError> {
        let (t, content) = self.tlv()?;
        if t != expected {
            return Err(SnmpError::Malformed("unexpected tag"));
        }
        Ok(content)
    }

    /// Read an INTEGER.
    pub fn integer(&mut self) -> Result<i64, SnmpError> {
        let content = self.expect(tag::INTEGER)?;
        decode_integer(content)
    }

    /// Read an OCTET STRING.
    pub fn octet_string(&mut self) -> Result<&'a [u8], SnmpError> {
        self.expect(tag::OCTET_STRING)
    }

    /// Read an OBJECT IDENTIFIER.
    pub fn oid(&mut self) -> Result<Oid, SnmpError> {
        let content = self.expect(tag::OID)?;
        decode_oid(content)
    }

    /// Enter a SEQUENCE, returning a reader over its content.
    pub fn sequence(&mut self) -> Result<Reader<'a>, SnmpError> {
        Ok(Reader::new(self.expect(tag::SEQUENCE)?))
    }

    /// Enter a constructed TLV with tag `t`.
    pub fn constructed(&mut self, t: u8) -> Result<Reader<'a>, SnmpError> {
        Ok(Reader::new(self.expect(t)?))
    }
}

/// Decode a two's-complement integer body.
pub fn decode_integer(content: &[u8]) -> Result<i64, SnmpError> {
    if content.is_empty() || content.len() > 8 {
        return Err(SnmpError::Malformed("bad integer length"));
    }
    let mut v: i64 = if content[0] & 0x80 != 0 { -1 } else { 0 };
    for &b in content {
        v = (v << 8) | b as i64;
    }
    Ok(v)
}

/// Decode an unsigned integer body (Counter32/Gauge32/TimeTicks allow a
/// leading zero pad byte for values with the high bit set).
pub fn decode_u32(content: &[u8]) -> Result<u32, SnmpError> {
    if content.is_empty() || content.len() > 5 {
        return Err(SnmpError::Malformed("bad u32 length"));
    }
    let mut v: u64 = 0;
    for &b in content {
        v = (v << 8) | b as u64;
    }
    u32::try_from(v).map_err(|_| SnmpError::Malformed("u32 out of range"))
}

/// Decode an OID content body.
pub fn decode_oid(content: &[u8]) -> Result<Oid, SnmpError> {
    let mut arcs = Vec::with_capacity(content.len() + 1);
    decode_oid_arcs(content, |arc| arcs.push(arc))?;
    Ok(Oid::from(arcs))
}

/// Decode an OID content body arc by arc, handing each arc to `each`
/// in order without collecting them. The same arcs and errors as
/// [`decode_oid`]; on error, `each` has seen the arcs before it.
pub(crate) fn decode_oid_arcs(content: &[u8], mut each: impl FnMut(u32)) -> Result<(), SnmpError> {
    if content.is_empty() {
        return Err(SnmpError::Malformed("empty OID"));
    }
    let mut r = wire::Reader::new(content);
    let first = read_base128(&mut r)?;
    if first < 80 {
        each(first / 40);
        each(first % 40);
    } else {
        each(2);
        each(first - 80);
    }
    while r.remaining() > 0 {
        each(read_base128(&mut r)?);
    }
    Ok(())
}

/// One OID arc: seven bits a byte, the high bit set on all but the
/// last. An arc past `u32` is refused before the shift that would drop
/// its top bits.
fn read_base128(r: &mut wire::Reader) -> Result<u32, SnmpError> {
    let mut v: u32 = 0;
    loop {
        let b = r
            .u8()
            .map_err(|_| SnmpError::Malformed("truncated OID arc"))?;
        if v >> 25 != 0 {
            return Err(SnmpError::Malformed("OID arc overflow"));
        }
        v = v << 7 | u32::from(b & 0x7f);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_int(v: i64) {
        let mut w = Writer::new();
        w.integer(v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.integer().unwrap(), v, "value {v}");
        assert!(r.is_empty());
    }

    #[test]
    fn integer_round_trips() {
        for v in [
            0,
            1,
            -1,
            127,
            128,
            -128,
            -129,
            255,
            256,
            65535,
            -65536,
            i64::from(i32::MAX),
            i64::from(i32::MIN),
            i64::MAX,
            i64::MIN,
        ] {
            round_trip_int(v);
        }
    }

    #[test]
    fn integer_minimal_encoding() {
        let mut w = Writer::new();
        w.integer(127);
        assert_eq!(w.into_bytes(), vec![0x02, 0x01, 0x7f]);
        let mut w = Writer::new();
        w.integer(128);
        assert_eq!(w.into_bytes(), vec![0x02, 0x02, 0x00, 0x80]);
        let mut w = Writer::new();
        w.integer(-1);
        assert_eq!(w.into_bytes(), vec![0x02, 0x01, 0xff]);
    }

    #[test]
    fn long_form_length() {
        let content = vec![0xaa; 300];
        let mut w = Writer::new();
        w.octet_string(&content);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..4], &[0x04, 0x82, 0x01, 0x2c]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.octet_string().unwrap(), &content[..]);
    }

    #[test]
    fn oid_round_trips() {
        for s in [
            "1.3.6.1.2.1.1.1.0",
            "1.3.6.1.4.1.99999.1.0",
            "2.999.3",
            "0.39",
            "1.3.6.1.4.1.2147483647",
        ] {
            let oid: Oid = s.parse().unwrap();
            let mut w = Writer::new();
            w.oid(&oid);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.oid().unwrap(), oid, "oid {s}");
        }
    }

    #[test]
    fn oid_first_pair_packing() {
        // 1.3 packs to 43 (0x2b), the classic SNMP prefix byte.
        let mut w = Writer::new();
        w.oid(&"1.3.6.1".parse().unwrap());
        assert_eq!(w.into_bytes(), vec![0x06, 0x03, 0x2b, 0x06, 0x01]);
    }

    #[test]
    fn sequence_nesting() {
        let mut w = Writer::new();
        w.sequence(|w| {
            w.integer(5);
            w.sequence(|w| {
                w.octet_string(b"hi");
            });
        });
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut seq = r.sequence().unwrap();
        assert_eq!(seq.integer().unwrap(), 5);
        let mut inner = seq.sequence().unwrap();
        assert_eq!(inner.octet_string().unwrap(), b"hi");
        assert!(inner.is_empty());
        assert!(seq.is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn reader_detects_truncation() {
        let mut w = Writer::new();
        w.octet_string(&[1, 2, 3, 4]);
        let mut bytes = w.into_bytes();
        bytes.truncate(4);
        let mut r = Reader::new(&bytes);
        assert!(r.octet_string().is_err());
    }

    #[test]
    fn reader_rejects_wrong_tag() {
        let mut w = Writer::new();
        w.integer(3);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.octet_string().is_err());
    }

    #[test]
    fn u32_decoding_with_pad() {
        // Gauge32 value 0x80000000 encodes with a leading 0x00 pad.
        let mut w = Writer::new();
        w.tagged_u32(tag::GAUGE32, 0x8000_0000);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let (t, content) = r.tlv().unwrap();
        assert_eq!(t, tag::GAUGE32);
        assert_eq!(decode_u32(content).unwrap(), 0x8000_0000);
    }

    #[test]
    fn null_and_exceptions() {
        let mut w = Writer::new();
        w.null();
        w.exception(tag::NO_SUCH_OBJECT);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.tlv().unwrap(), (tag::NULL, &[][..]));
        assert_eq!(r.tlv().unwrap(), (tag::NO_SUCH_OBJECT, &[][..]));
    }

    #[test]
    fn base128_boundaries() {
        for arc in [0u32, 127, 128, 16383, 16384, u32::MAX] {
            let oid = Oid::new(&[1, 3, arc]);
            let mut w = Writer::new();
            w.oid(&oid);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.oid().unwrap(), oid);
        }
    }

    #[test]
    fn in_place_writer_matches_nested_writer_at_each_length_form_boundary() {
        for len in [0, 1, 126, 127, 128, 129, 254, 255, 256, 257, 65_535, 65_536] {
            let body = vec![0x5a; len];
            let write = |w: &mut Writer| {
                w.sequence(|w| {
                    w.integer(7);
                    w.constructed(tag::RESPONSE, |w| w.buf.extend_from_slice(&body));
                    w.null();
                });
            };
            let (mut in_place, mut reference) = (Writer::new(), Writer::nested());
            write(&mut in_place);
            write(&mut reference);
            let bytes = in_place.into_bytes();
            assert_eq!(bytes, reference.into_bytes(), "content of {len} bytes");
            let mut r = Reader::new(&bytes);
            let mut seq = r.sequence().unwrap();
            assert_eq!(seq.integer().unwrap(), 7);
            assert_eq!(seq.expect(tag::RESPONSE).unwrap(), &body[..]);
        }
    }
}
