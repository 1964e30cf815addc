//! Reference-counted, immutable datagram payloads.
//!
//! Multicast fan-out used to clone the payload `Vec<u8>` once per
//! receiver copy — O(members × bytes) allocation per published event.
//! [`Payload`] keeps the bytes behind one `Arc`, so a message is
//! encoded into one buffer exactly once and every scheduled copy,
//! in-flight hop, and delivered [`crate::Datagram`] shares it; cloning
//! is a reference-count bump. Bytes are written only through a
//! [`PayloadMut`], a buffer's one handle, so a payload that can be
//! shared never changes: that is what makes the sharing sound.
//!
//! Beside the bytes a buffer carries one write-once slot
//! ([`Payload::memo_or_init`]): whatever the first receiver derives
//! from the immutable bytes — a decoded frame, say — rides the buffer
//! to every later receiver and dies with its last copy.
//!
//! The type dereferences to `[u8]` and compares against vectors,
//! slices, and byte arrays, so application code reads payload bytes
//! exactly as it did when they were plain `Vec<u8>`s.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Immutable shared bytes carried by a datagram.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Buffer>,
}

#[derive(Default)]
struct Buffer {
    bytes: Vec<u8>,
    memo: OnceLock<Box<dyn Any + Send + Sync>>,
}

/// A payload being written ([`AsMut`] to its `Vec<u8>`): the only
/// handle on its buffer. Sent, it is a [`Payload`] that keeps its
/// capacity for the buffer's next use.
#[derive(Default)]
pub struct PayloadMut {
    buf: Arc<Buffer>,
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Payload {
        Payload::from(Vec::new())
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.buf.bytes.len()
    }

    /// Whether the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.bytes.is_empty()
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.bytes
    }

    /// Copy the bytes out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.bytes.to_vec()
    }

    /// The value memoised on this buffer, running `init` to produce it
    /// if the slot is still empty. The slot is written once and shared
    /// by every clone; it lives exactly as long as the buffer does.
    /// `None` when the slot already holds a value of another type — the
    /// caller then works without the memo.
    pub fn memo_or_init<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Option<&T> {
        self.buf
            .memo
            .get_or_init(|| Box::new(init()))
            .downcast_ref()
    }

    /// The buffer back as a [`PayloadMut`], emptied and its memo
    /// dropped, if this was its last handle and it holds no more than
    /// `max_capacity` bytes.
    pub(crate) fn reclaim(mut self, max_capacity: usize) -> Option<PayloadMut> {
        let buf = Arc::get_mut(&mut self.buf)?;
        if buf.bytes.capacity() > max_capacity {
            return None;
        }
        buf.bytes.clear();
        buf.memo.take();
        Some(PayloadMut { buf: self.buf })
    }
}

impl AsMut<Vec<u8>> for PayloadMut {
    fn as_mut(&mut self) -> &mut Vec<u8> {
        let buf = Arc::get_mut(&mut self.buf).expect("a PayloadMut is its buffer's only handle");
        &mut buf.bytes
    }
}

impl From<PayloadMut> for Payload {
    fn from(p: PayloadMut) -> Payload {
        Payload { buf: p.buf }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf.bytes
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.buf.bytes
    }
}

impl From<Vec<u8>> for Payload {
    fn from(mut bytes: Vec<u8>) -> Payload {
        bytes.shrink_to_fit();
        Payload {
            buf: Arc::new(Buffer {
                bytes,
                memo: OnceLock::new(),
            }),
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload::from(v.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Payload {
        Payload::from(v.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Payload {
        Payload::from(v.to_vec())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes: {:?})", self.len(), &self.buf.bytes)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.buf.bytes == other.buf.bytes
    }
}
impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        &self.buf.bytes[..] == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        &self.buf.bytes[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.buf.bytes[..] == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == &other.buf.bytes[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.buf.bytes[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.buf.bytes[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bytes() {
        let p = Payload::from(vec![1u8, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.as_slice(), &[1, 2, 3]);
        assert_eq!(p.to_vec(), vec![1, 2, 3]);
        assert_eq!(p[1], 2, "indexes through Deref");
    }

    #[test]
    fn comparisons_cover_common_shapes() {
        let p = Payload::from(vec![9u8, 8]);
        assert_eq!(p, vec![9u8, 8]);
        assert_eq!(vec![9u8, 8], p);
        assert_eq!(p, [9u8, 8]);
        assert_eq!(p, b"\x09\x08");
        assert_eq!(p, &[9u8, 8][..]);
        assert_eq!(p, Payload::from(&[9u8, 8][..]));
        assert_ne!(p, vec![9u8]);
    }

    #[test]
    fn clones_share_the_buffer() {
        let p = Payload::from(vec![0u8; 1024]);
        let copies: Vec<Payload> = (0..10).map(|_| p.clone()).collect();
        assert!(copies.iter().all(|c| c.as_slice().as_ptr() == p.as_ptr()));
    }

    #[test]
    fn memo_is_written_once_and_shared_by_clones() {
        let p = Payload::from(vec![7u8; 4]);
        let copy = p.clone();
        let runs = std::cell::Cell::new(0);
        let sum = |p: &Payload| {
            p.memo_or_init(|| {
                runs.set(runs.get() + 1);
                p.iter().map(|&b| u32::from(b)).sum::<u32>()
            })
            .copied()
        };
        assert_eq!(sum(&p), Some(28));
        assert_eq!(sum(&copy), Some(28), "the clone reads the same slot");
        assert_eq!(runs.get(), 1, "derived once per buffer");
        assert_eq!(
            copy.memo_or_init(|| "another type"),
            None,
            "a slot holding another type is never overwritten or misread"
        );
        assert_eq!(sum(&p), Some(28));
        let fresh = Payload::from(vec![7u8; 4]);
        assert_eq!(
            fresh.memo_or_init(|| 1u32),
            Some(&1),
            "equal bytes in another buffer have a slot of their own"
        );
    }

    #[test]
    fn only_the_last_handle_is_reclaimed() {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(b"abc");
        let p = Payload::from(v);
        let copy = p.clone();
        assert!(p.reclaim(usize::MAX).is_none(), "a clone is still out");
        let large = Payload::from(vec![0; 3]);
        assert!(
            large.reclaim(2).is_none(),
            "nor one past the capacity bound"
        );
        let mut spare = copy.reclaim(usize::MAX).expect("the last handle");
        let bytes = spare.as_mut();
        assert!(bytes.is_empty(), "reclaimed empty");
        assert_eq!(
            bytes.capacity(),
            3,
            "`Payload::from` shrank the vector to fit"
        );
    }

    #[test]
    fn empty_and_default() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default().len(), 0);
        assert_eq!(Payload::empty(), Vec::<u8>::new());
    }
}
