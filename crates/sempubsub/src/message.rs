//! Wire form of a semantic message, with a self-contained binary codec
//! (no external serialization formats: the substrate owns its wire
//! protocol, as the paper's Java prototype did).

use crate::parser::MAX_DEPTH;
use crate::value::AttrValue;
use crate::SemError;
use std::collections::BTreeMap;

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

    /// Decode wire bytes.
    pub fn decode(buf: &[u8]) -> Result<SemanticMessage, SemError> {
        let mut c = Cursor { buf, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(SemError::Codec("bad magic"));
        }
        let sender = c.str16()?;
        let kind = c.str16()?;
        let selector = c.str16()?;
        let seq = u64::from_be_bytes(c.take(8)?.try_into().unwrap());
        let n = u16::from_be_bytes(c.take(2)?.try_into().unwrap()) as usize;
        let mut content = BTreeMap::new();
        for _ in 0..n {
            let key = c.str16()?;
            let value = c.value(1)?;
            content.insert(key, value);
        }
        let blen = u32::from_be_bytes(c.take(4)?.try_into().unwrap()) as usize;
        let body = c.take(blen)?.to_vec();
        if c.pos != buf.len() {
            return Err(SemError::Codec("trailing bytes"));
        }
        Ok(SemanticMessage {
            sender,
            kind,
            selector,
            seq,
            content,
            body,
        })
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
    put_len16(&mut shared, content.len(), "too many content entries")?;
    for (k, v) in content {
        put_str16(&mut shared, k)?;
        put_value(&mut shared, v, 1)?;
    }
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

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SemError> {
        if self.buf.len() - self.pos < n {
            return Err(SemError::Codec("truncated message"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn str16(&mut self) -> Result<String, SemError> {
        let n = u16::from_be_bytes(self.take(2)?.try_into().unwrap()) as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| SemError::Codec("bad UTF-8"))
    }

    /// Read a value `depth` levels down its content entry.
    fn value(&mut self, depth: usize) -> Result<AttrValue, SemError> {
        if depth > MAX_DEPTH {
            return Err(TOO_DEEP);
        }
        let tag = self.take(1)?[0];
        Ok(match tag {
            0 => AttrValue::Int(i64::from_be_bytes(self.take(8)?.try_into().unwrap())),
            1 => AttrValue::Float(f64::from_bits(u64::from_be_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            2 => {
                let n = u32::from_be_bytes(self.take(4)?.try_into().unwrap()) as usize;
                AttrValue::Str(
                    String::from_utf8(self.take(n)?.to_vec())
                        .map_err(|_| SemError::Codec("bad UTF-8"))?,
                )
            }
            3 => AttrValue::Bool(self.take(1)?[0] != 0),
            4 => {
                let n = u16::from_be_bytes(self.take(2)?.try_into().unwrap()) as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                AttrValue::List(items)
            }
            _ => return Err(SemError::Codec("unknown value tag")),
        })
    }
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
