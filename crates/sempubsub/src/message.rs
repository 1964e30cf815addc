//! Wire form of a semantic message, with a self-contained binary codec
//! (no external serialization formats: the substrate owns its wire
//! protocol, as the paper's Java prototype did). A message is built and
//! sent as a [`SemanticMessage`] and received as a [`WireMessage`]: its
//! frame, checked once and read in place.

use crate::parser::MAX_DEPTH;
use crate::value::AttrValue;
use crate::SemError;
use simnet::wire::{self, Reader};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// Wire magic for version 1 of the semantic message codec.
const MAGIC: &[u8; 4] = b"SEM1";

/// A state-based multicast message: selector + content description +
/// opaque body.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticMessage {
    /// Informational sender identity (never used for addressing).
    pub sender: String,
    /// Event kind (application vocabulary: `image-share`,
    /// `whiteboard-stroke`, `chat`, `profile-update`, ...).
    pub kind: String,
    /// The semantic selector source text.
    pub selector: String,
    /// Per-sender sequence number.
    pub seq: u64,
    /// Content description — attributes of the payload.
    pub content: BTreeMap<String, AttrValue>,
    /// Opaque payload bytes.
    pub body: Vec<u8>,
}

impl SemanticMessage {
    /// Encode to wire bytes. Panics when a field is too long for the
    /// frame format or a value nests deeper than a decoder accepts;
    /// [`crate::bus::BusEndpoint::publish`] reports the same conditions
    /// as [`SemError::Codec`].
    pub fn encode(&self) -> Vec<u8> {
        let event = (self.kind.as_str(), self.body.as_slice());
        encode_frames(
            &self.sender,
            &self.selector,
            &self.content,
            self.seq,
            Vec::new,
            [event],
        )
        .expect("message fields fit the frame format")
        .remove(0)
    }

    /// Decode wire bytes: [`WireMessage::decode`], copied out into
    /// owned fields.
    pub fn decode(buf: &[u8]) -> Result<SemanticMessage, SemError> {
        WireMessage::decode(buf).map(|m| m.to_message())
    }
}

/// A received semantic message, held as its wire bytes: one copy of
/// the frame, checked through once when it was read, whose fields are
/// read in place. The content description is the one field that is not
/// a slice of the frame: it is built into a map the first time
/// something reads it ([`WireMessage::content`]) — an interest, the
/// transform search, an advertisement — and never for a message nobody
/// asks about.
pub struct WireMessage {
    bytes: Box<[u8]>,
    at: Fields,
    content: OnceLock<BTreeMap<String, AttrValue>>,
}

/// Where a checked frame's variable-length fields start: each at its
/// length prefix. The sender starts at a fixed offset, and the seq, the
/// content and the body each sit a fixed distance after these.
#[derive(Clone, Copy)]
struct Fields {
    kind: usize,
    selector: usize,
    seq: usize,
    body: usize,
}

/// The sender's length prefix: right after the magic.
const SENDER_AT: usize = MAGIC.len();

impl WireMessage {
    /// Check `buf` is one whole `SEM1` frame — magic, field lengths,
    /// UTF-8, value tags, nesting depth, no trailing bytes — without
    /// allocating, then copy it. A frame refused costs nothing.
    pub fn decode(buf: &[u8]) -> Result<WireMessage, SemError> {
        let at = fields(buf)?;
        Ok(WireMessage {
            bytes: buf.into(),
            at,
            content: OnceLock::new(),
        })
    }

    /// A string field, checked when the frame was read.
    fn str_at(&self, start: usize, end: usize) -> &str {
        std::str::from_utf8(&self.bytes[start + 2..end]).expect("checked when the frame was read")
    }

    /// Informational sender identity (never used for addressing).
    pub fn sender(&self) -> &str {
        self.str_at(SENDER_AT, self.at.kind)
    }

    /// Event kind.
    pub fn kind(&self) -> &str {
        self.str_at(self.at.kind, self.at.selector)
    }

    /// The semantic selector source text.
    pub fn selector(&self) -> &str {
        self.str_at(self.at.selector, self.at.seq)
    }

    /// Per-sender sequence number.
    pub fn seq(&self) -> u64 {
        let seq = &self.bytes[self.at.seq..self.at.seq + 8];
        u64::from_be_bytes(seq.try_into().expect("eight bytes"))
    }

    /// Opaque payload bytes.
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.at.body + 4..]
    }

    /// Content description — attributes of the payload — built from
    /// the frame on the first call and kept for the others.
    pub fn content(&self) -> &BTreeMap<String, AttrValue> {
        self.content.get_or_init(|| {
            let mut r = Reader::new(&self.bytes[self.at.seq + 8..self.at.body]);
            content(&mut r, true).expect("checked when the frame was read")
        })
    }

    /// The message as owned fields.
    pub fn to_message(&self) -> SemanticMessage {
        SemanticMessage {
            sender: self.sender().to_owned(),
            kind: self.kind().to_owned(),
            selector: self.selector().to_owned(),
            seq: self.seq(),
            content: self.content().clone(),
            body: self.body().to_vec(),
        }
    }
}

impl PartialEq for WireMessage {
    fn eq(&self, other: &WireMessage) -> bool {
        self.bytes == other.bytes
    }
}

impl fmt::Debug for WireMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireMessage")
            .field("sender", &self.sender())
            .field("kind", &self.kind())
            .field("selector", &self.selector())
            .field("seq", &self.seq())
            .field("body", &self.body())
            .finish_non_exhaustive()
    }
}

/// One event of a published batch, written straight into its frame:
/// the envelope kind, and a body whose length is known before a byte of
/// it is written, so the frame is sized once, exactly, and the body
/// never exists anywhere else. A `(kind, body)` pair is one,
/// for a body already in bytes.
pub trait EventBody {
    /// The envelope kind.
    fn kind(&self) -> &str;
    /// The body's length: exactly what [`EventBody::write_body`]
    /// appends.
    fn body_len(&self) -> usize;
    /// Append the body to `out`.
    fn write_body(&self, out: &mut Vec<u8>);
}

impl<K: AsRef<str>, B: AsRef<[u8]>> EventBody for (K, B) {
    fn kind(&self) -> &str {
        self.0.as_ref()
    }

    fn body_len(&self) -> usize {
        self.1.as_ref().len()
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.1.as_ref());
    }
}

/// The one writer of the `SEM1` field sequence — magic, sender, kind,
/// selector, seq, content, body — and the one place field lengths are
/// checked against the widths the frame gives them. Encodes one frame
/// per event, numbered consecutively from `first_seq`, each into an
/// empty buffer from `buffer` grown, if it must, to exactly its size;
/// the fields every frame shares are written once and spliced around
/// each event's own. A content value nested deeper than the decoder
/// accepts is refused here too.
pub(crate) fn encode_frames<F: AsMut<Vec<u8>>, E: EventBody>(
    sender: &str,
    selector: &str,
    content: &BTreeMap<String, AttrValue>,
    first_seq: u64,
    mut buffer: impl FnMut() -> F,
    events: impl IntoIterator<Item = E>,
) -> Result<Vec<F>, SemError> {
    let mut shared = Vec::with_capacity(128);
    shared.extend_from_slice(MAGIC);
    put_str16(&mut shared, sender)?;
    let kind_at = shared.len();
    put_str16(&mut shared, selector)?;
    let seq_at = shared.len();
    encode_content(content, &mut shared)?;
    let events = events.into_iter();
    let mut frames = Vec::with_capacity(events.size_hint().0);
    for (event, seq) in events.zip(first_seq..) {
        let (kind, body_len) = (event.kind(), event.body_len());
        let len = shared.len() + 2 + kind.len() + 8 + 4 + body_len;
        let mut buf = buffer();
        let frame = buf.as_mut();
        frame.reserve_exact(len);
        frame.extend_from_slice(&shared[..kind_at]);
        put_str16(frame, kind)?;
        frame.extend_from_slice(&shared[kind_at..seq_at]);
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(&shared[seq_at..]);
        frame.extend_from_slice(&(body_len as u32).to_be_bytes());
        event.write_body(frame);
        debug_assert_eq!(frame.len(), len, "`body_len` is what `write_body` writes");
        frames.push(buf);
    }
    Ok(frames)
}

/// Append the `SEM1` content field for `content`: the entry count,
/// then each key and value, floats by their bits. Two maps encode
/// alike exactly when they hold the same keys with bit-identical
/// values, which is what makes the encoding a profile class's key
/// ([`crate::compile::SelectorStore`]).
pub(crate) fn encode_content(
    content: &BTreeMap<String, AttrValue>,
    out: &mut Vec<u8>,
) -> Result<(), SemError> {
    put_len16(out, content.len(), "too many content entries")?;
    for (k, v) in content {
        put_str16(out, k)?;
        put_value(out, v, 1)?;
    }
    Ok(())
}

fn put_len16(out: &mut Vec<u8>, len: usize, too_long: &'static str) -> Result<(), SemError> {
    let len = u16::try_from(len).map_err(|_| SemError::Codec(too_long))?;
    out.extend_from_slice(&len.to_be_bytes());
    Ok(())
}

fn put_str16(out: &mut Vec<u8>, s: &str) -> Result<(), SemError> {
    put_len16(out, s.len(), "string field too long")?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A value is one level deep, a list one more than its deepest item;
/// the codec carries at most [`MAX_DEPTH`] levels either way.
const TOO_DEEP: SemError = SemError::Codec("value nested too deep");

/// Write `v`, found `depth` levels down its content entry.
fn put_value(out: &mut Vec<u8>, v: &AttrValue, depth: usize) -> Result<(), SemError> {
    if depth > MAX_DEPTH {
        return Err(TOO_DEEP);
    }
    match v {
        AttrValue::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_be_bytes());
        }
        AttrValue::Float(f) => {
            out.push(1);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        AttrValue::Str(s) => {
            out.push(2);
            let bytes = s.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(bytes);
        }
        AttrValue::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
        AttrValue::List(items) => {
            out.push(4);
            put_len16(out, items.len(), "list value too long")?;
            for item in items {
                put_value(out, item, depth + 1)?;
            }
        }
    }
    Ok(())
}

impl From<wire::Error> for SemError {
    fn from(e: wire::Error) -> SemError {
        SemError::Codec(match e {
            wire::Error::Short => "truncated message",
            wire::Error::Utf8 => "bad UTF-8",
        })
    }
}

/// The one reader of the `SEM1` field sequence: walk the whole frame
/// `buf` and check it without allocating, giving back where its fields
/// start. [`content`] is the same walk over the content description and
/// also builds it when asked to, so what one accepts the other can
/// build.
fn fields(buf: &[u8]) -> Result<Fields, SemError> {
    let mut r = Reader::new(buf);
    let at = |r: &Reader| buf.len() - r.remaining();
    if r.take(4)? != MAGIC {
        return Err(SemError::Codec("bad magic"));
    }
    r.str16()?;
    let kind = at(&r);
    r.str16()?;
    let selector = at(&r);
    r.str16()?;
    let seq = at(&r);
    r.take(8)?;
    content(&mut r, false)?;
    let body = at(&r);
    r.bytes32()?;
    if r.remaining() != 0 {
        return Err(SemError::Codec("trailing bytes"));
    }
    Ok(Fields {
        kind,
        selector,
        seq,
        body,
    })
}

/// Walk the content description; with `build`, also collect it (a key
/// repeated in the frame keeps its last value). Without, the map comes
/// back empty and nothing is allocated.
fn content(r: &mut Reader, build: bool) -> Result<BTreeMap<String, AttrValue>, SemError> {
    let n = r.u16()?;
    let mut content = BTreeMap::new();
    for _ in 0..n {
        let key = r.str16()?;
        if let Some(value) = value(r, 1, build)? {
            content.insert(key.to_owned(), value);
        }
    }
    Ok(content)
}

/// Walk a value `depth` levels down its content entry; with `build`,
/// also return it.
fn value(r: &mut Reader, depth: usize, build: bool) -> Result<Option<AttrValue>, SemError> {
    if depth > MAX_DEPTH {
        return Err(TOO_DEEP);
    }
    let value = match r.u8()? {
        0 => AttrValue::Int(i64::from_be_bytes(r.array()?)),
        1 => AttrValue::Float(f64::from_bits(r.u64()?)),
        2 => {
            let s = r.str32()?;
            return Ok(build.then(|| AttrValue::Str(s.to_owned())));
        }
        3 => AttrValue::Bool(r.u8()? != 0),
        4 => {
            let n = usize::from(r.u16()?);
            // Every item takes at least two bytes (a tag and one more),
            // so what is reserved is bounded by what is left of the
            // frame, not by a count a peer chose.
            let room = if build { n.min(r.remaining() / 2) } else { 0 };
            let mut items = Vec::with_capacity(room);
            for _ in 0..n {
                items.extend(value(r, depth + 1, build)?);
            }
            AttrValue::List(items)
        }
        _ => return Err(SemError::Codec("unknown value tag")),
    };
    Ok(build.then_some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SemanticMessage {
        let mut content = BTreeMap::new();
        content.insert("media".to_string(), AttrValue::str("image"));
        content.insert("size_kb".to_string(), AttrValue::Int(734));
        content.insert("quality".to_string(), AttrValue::Float(0.82));
        content.insert("color".to_string(), AttrValue::Bool(true));
        content.insert(
            "modalities".to_string(),
            AttrValue::List(vec![
                AttrValue::str("image"),
                AttrValue::str("text"),
                AttrValue::List(vec![AttrValue::Int(1)]),
            ]),
        );
        SemanticMessage {
            sender: "client-a".to_string(),
            kind: "image-share".to_string(),
            selector: "interested_in contains 'image'".to_string(),
            seq: 42,
            content,
            body: vec![0, 1, 2, 255, 254],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(SemanticMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn a_read_message_serves_its_fields_in_place() {
        let m = sample();
        let wire = m.encode();
        let read = WireMessage::decode(&wire).unwrap();
        assert_eq!(
            (read.sender(), read.kind(), read.selector(), read.seq()),
            (
                "client-a",
                "image-share",
                "interested_in contains 'image'",
                42
            )
        );
        assert_eq!(read.body(), &m.body[..]);
        assert!(read.content.get().is_none(), "built only when read");
        assert_eq!(read.content(), &m.content);
        assert_eq!(read.to_message(), m);
    }

    /// A frame may carry a key twice (no encoder writes one): the
    /// content description keeps the last value, as a map insert does.
    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let mut m = sample();
        m.content = [
            ("ka".to_string(), AttrValue::Int(1)),
            ("kb".to_string(), AttrValue::Int(2)),
        ]
        .into();
        let mut wire = m.encode();
        let at = wire.windows(2).position(|w| w == b"kb").unwrap();
        wire[at + 1] = b'a';
        let read = WireMessage::decode(&wire).unwrap();
        assert_eq!(
            read.content(),
            &[("ka".to_string(), AttrValue::Int(2))].into()
        );
    }

    #[test]
    fn empty_message_round_trips() {
        let m = SemanticMessage {
            sender: String::new(),
            kind: String::new(),
            selector: String::new(),
            seq: 0,
            content: BTreeMap::new(),
            body: Vec::new(),
        };
        assert_eq!(SemanticMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                SemanticMessage::decode(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(SemanticMessage::decode(&bytes).is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(SemanticMessage::decode(&bytes).is_err());
    }

    /// `levels` of one-item lists around an empty one.
    fn nested_list(levels: usize) -> AttrValue {
        (1..levels).fold(AttrValue::List(vec![]), |v, _| AttrValue::List(vec![v]))
    }

    #[test]
    fn list_nesting_is_bounded_at_max_depth() {
        let mut m = sample();
        m.content.insert("deep".to_string(), nested_list(MAX_DEPTH));
        assert_eq!(SemanticMessage::decode(&m.encode()).unwrap(), m);
        let fields = |v: &AttrValue| {
            let content = [("deep".to_string(), v.clone())].into();
            encode_frames("s", "true", &content, 0, Vec::new, [("k", b"")])
        };
        let refused = fields(&nested_list(MAX_DEPTH + 1));
        assert_eq!(refused, Err(SemError::Codec("value nested too deep")));
        // The same bytes spliced by hand: the decoder refuses them too.
        let mut wire = fields(&nested_list(MAX_DEPTH)).unwrap().remove(0);
        let at = wire.len() - 4 - 3;
        wire.splice(at..at, [4, 0, 1]);
        assert_eq!(
            SemanticMessage::decode(&wire),
            Err(SemError::Codec("value nested too deep"))
        );
    }

    #[test]
    fn float_bit_exactness() {
        let mut m = sample();
        m.content
            .insert("x".to_string(), AttrValue::Float(f64::MIN_POSITIVE));
        m.content.insert("y".to_string(), AttrValue::Float(-0.0));
        let back = SemanticMessage::decode(&m.encode()).unwrap();
        assert_eq!(back.content["x"], AttrValue::Float(f64::MIN_POSITIVE));
        assert!(
            matches!(back.content["y"], AttrValue::Float(v) if v.to_bits() == (-0.0f64).to_bits())
        );
    }
}
