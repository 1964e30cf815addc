//! Bundle and custody-signal wire format.
//!
//! Bundles ride the overlay's control port next to broker
//! advertisements; each frame opens with a four-byte magic distinct
//! from the `SEM1` semantic-message magic, so a receiver dispatches on
//! the prefix and either codec safely rejects the other's frames.

use simnet::wire::Reader;
use simnet::Ticks;

/// Magic prefix of an encoded [`Bundle`].
const MAGIC_BUNDLE: &[u8; 4] = b"DTB1";
/// Magic prefix of a custody signal (accept / refuse).
const MAGIC_SIGNAL: &[u8; 4] = b"DTS1";

const SIGNAL_ACCEPT: u8 = 0;
const SIGNAL_REFUSE: u8 = 1;

/// One store-carry-forward unit: an encoded overlay data message plus
/// the routing and lifetime metadata custody management needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bundle {
    /// Publishing client, as named in the wrapped semantic message.
    pub source: String,
    /// The publisher's per-sender sequence number — together with
    /// `source` this is the overlay dedup id.
    pub seq: u64,
    /// Broker index where the bundle was first taken into custody.
    pub src_domain: u32,
    /// Neighbor broker index the bundle is destined toward (the next
    /// hop whose link was down when the bundle was stored).
    pub dst_domain: u32,
    /// Simulated time the bundle was created (custody first taken).
    /// Preserved across custody transfers so lifetime is end-to-end.
    pub created_at: Ticks,
    /// How long past `created_at` the bundle stays deliverable.
    pub lifetime: Ticks,
    /// Whether a custodian currently owns the bundle (always set by
    /// the overlay; carried for BP7 fidelity and future relaxations).
    pub custody: bool,
    /// The encoded semantic message exactly as it would have gone out
    /// on the data port.
    pub payload: Vec<u8>,
}

impl Bundle {
    /// Absolute expiry instant (saturating: `Ticks::MAX` never expires).
    pub fn deadline(&self) -> Ticks {
        self.created_at
            .checked_add(self.lifetime)
            .unwrap_or(Ticks::MAX)
    }

    /// Whether the lifetime has elapsed at `now`.
    pub fn expired(&self, now: Ticks) -> bool {
        now >= self.deadline()
    }

    /// Encoded size in bytes — the unit the store's byte quota counts.
    pub fn wire_size(&self) -> u64 {
        (4 + 2 + self.source.len() + 8 + 4 + 4 + 8 + 8 + 1 + 4 + self.payload.len()) as u64
    }

    /// Serialize to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size() as usize);
        out.extend_from_slice(MAGIC_BUNDLE);
        debug_assert!(
            self.source.len() <= u16::MAX as usize,
            "source name too long"
        );
        out.extend_from_slice(&(self.source.len() as u16).to_be_bytes());
        out.extend_from_slice(self.source.as_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.src_domain.to_be_bytes());
        out.extend_from_slice(&self.dst_domain.to_be_bytes());
        out.extend_from_slice(&self.created_at.as_micros().to_be_bytes());
        out.extend_from_slice(&self.lifetime.as_micros().to_be_bytes());
        out.push(self.custody as u8);
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// A decoded control-port frame belonging to the custody protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A custody-transfer attempt: the sender still owns the bundle
    /// until the receiver answers `Accept`.
    Bundle(Bundle),
    /// Receiver took custody (or already delivered the dedup id);
    /// the sender must release its stored copy.
    Accept { source: String, seq: u64 },
    /// Receiver cannot take custody (quota would be exceeded); the
    /// sender keeps the bundle and retries later.
    Refuse { source: String, seq: u64 },
}

impl Frame {
    /// Encode a custody-accepted signal for `(source, seq)`.
    pub fn encode_accept(source: &str, seq: u64) -> Vec<u8> {
        encode_signal(SIGNAL_ACCEPT, source, seq)
    }

    /// Encode a custody-refused signal for `(source, seq)`.
    pub fn encode_refuse(source: &str, seq: u64) -> Vec<u8> {
        encode_signal(SIGNAL_REFUSE, source, seq)
    }

    /// Decode any custody frame; `None` if the bytes are not a
    /// well-formed DTN frame (e.g. a broker advertisement).
    pub fn decode(bytes: &[u8]) -> Option<Frame> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4).ok()?;
        let frame = if magic == MAGIC_BUNDLE {
            Frame::Bundle(Bundle {
                source: r.str16().ok()?.to_owned(),
                seq: r.u64().ok()?,
                src_domain: r.u32().ok()?,
                dst_domain: r.u32().ok()?,
                created_at: Ticks::from_micros(r.u64().ok()?),
                lifetime: Ticks::from_micros(r.u64().ok()?),
                custody: match r.u8().ok()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
                payload: r.bytes32().ok()?.to_vec(),
            })
        } else if magic == MAGIC_SIGNAL {
            let kind = r.u8().ok()?;
            let source = r.str16().ok()?.to_owned();
            let seq = r.u64().ok()?;
            match kind {
                SIGNAL_ACCEPT => Frame::Accept { source, seq },
                SIGNAL_REFUSE => Frame::Refuse { source, seq },
                _ => return None,
            }
        } else {
            return None;
        };
        (r.remaining() == 0).then_some(frame)
    }
}

fn encode_signal(kind: u8, source: &str, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 2 + source.len() + 8);
    out.extend_from_slice(MAGIC_SIGNAL);
    out.push(kind);
    debug_assert!(source.len() <= u16::MAX as usize, "source name too long");
    out.extend_from_slice(&(source.len() as u16).to_be_bytes());
    out.extend_from_slice(source.as_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bundle {
        Bundle {
            source: "alice".into(),
            seq: 42,
            src_domain: 1,
            dst_domain: 2,
            created_at: Ticks::from_millis(7),
            lifetime: Ticks::from_secs(30),
            custody: true,
            payload: vec![0xDE, 0xAD, 0xBE, 0xEF],
        }
    }

    #[test]
    fn bundle_round_trips() {
        let b = sample();
        let wire = b.encode();
        assert_eq!(wire.len() as u64, b.wire_size());
        assert_eq!(Frame::decode(&wire), Some(Frame::Bundle(b)));
    }

    #[test]
    fn signals_round_trip() {
        let acc = Frame::encode_accept("alice", 42);
        assert_eq!(
            Frame::decode(&acc),
            Some(Frame::Accept {
                source: "alice".into(),
                seq: 42
            })
        );
        let refu = Frame::encode_refuse("bob", 7);
        assert_eq!(
            Frame::decode(&refu),
            Some(Frame::Refuse {
                source: "bob".into(),
                seq: 7
            })
        );
    }

    #[test]
    fn rejects_foreign_and_truncated_frames() {
        assert_eq!(Frame::decode(b"SEM1rest-of-a-semantic-message"), None);
        assert_eq!(Frame::decode(b""), None);
        assert_eq!(Frame::decode(b"DT"), None);
        let mut wire = sample().encode();
        wire.pop();
        assert_eq!(Frame::decode(&wire), None);
        let mut trailing = sample().encode();
        trailing.push(0);
        assert_eq!(Frame::decode(&trailing), None);
    }

    #[test]
    fn expiry_is_saturating_and_inclusive() {
        let mut b = sample();
        assert!(!b.expired(Ticks::from_millis(7)));
        assert!(!b.expired(Ticks::from_secs(30)));
        assert!(b.expired(Ticks::from_micros(30_007_000)));
        b.lifetime = Ticks::MAX;
        assert_eq!(b.deadline(), Ticks::MAX, "deadline saturates, no overflow");
        assert!(!b.expired(Ticks::from_secs(1_000_000_000)));
    }
}
