//! Splitting an embedded stream into the image packets the experiments
//! count.
//!
//! "The resolution threshold is used to determine the number of image
//! segments (i.e. the number of image packets) to be received" (§5.4).
//!
//! Striping is **channel-aware**: packet `i` carries the `i`-th chunk
//! of *every* channel's embedded stream. Reassembling packets `0..k`
//! therefore yields a valid container in which every channel holds the
//! first `k/n` of its stream — so image quality scales smoothly with
//! packets received on grayscale and colour images alike (a contiguous
//! byte split would starve the later channels entirely).

use crate::ezw::{
    container_streams, ChannelStreams, CONTAINER_HEADER_LEN, CONTAINER_MAGIC, PLANE_HEADER_LEN,
};
use crate::MediaError;

/// One stripe of an encoded image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaPacket {
    /// Stripe index, `0..total`.
    pub index: u16,
    /// Total stripes in the object.
    pub total: u16,
    /// Size of the complete container (consistency check).
    pub full_len: u32,
    /// The stripe's bytes: container header + per-channel chunks.
    pub payload: Vec<u8>,
}

impl MediaPacket {
    /// Serialize to wire bytes (for embedding in a semantic message).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_to(&mut out);
        out
    }

    /// Length of the wire form.
    pub fn wire_len(&self) -> usize {
        PACKET_HEADER + self.payload.len()
    }

    /// Append the wire form ([`MediaPacket::encode`]) to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let (index, total) = (usize::from(self.index), usize::from(self.total));
        write_header(out, index, total, self.full_len, self.payload.len());
        out.extend_from_slice(&self.payload);
    }

    /// This packet as a view over its own payload.
    pub fn view(&self) -> PacketView<'_> {
        PacketView {
            index: self.index,
            total: self.total,
            full_len: self.full_len,
            payload: &self.payload,
        }
    }
}

/// Wire header of a media packet: index, total, full length, payload
/// length.
const PACKET_HEADER: usize = 12;

/// Append a packet's wire header.
fn write_header(out: &mut Vec<u8>, index: usize, total: usize, full_len: u32, payload_len: usize) {
    out.extend_from_slice(&(index as u16).to_be_bytes());
    out.extend_from_slice(&(total as u16).to_be_bytes());
    out.extend_from_slice(&full_len.to_be_bytes());
    out.extend_from_slice(&(payload_len as u32).to_be_bytes());
}

/// A [`MediaPacket`] read in place: the header fields, and the payload
/// borrowed from the bytes it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Stripe index, `0..total`.
    pub index: u16,
    /// Total stripes in the object.
    pub total: u16,
    /// Size of the complete container (consistency check).
    pub full_len: u32,
    /// The stripe's bytes: container header + per-channel chunks.
    pub payload: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Parse wire bytes without copying the payload. The payload is
    /// always the tail of `bytes`.
    pub fn parse(bytes: &'a [u8]) -> Result<PacketView<'a>, MediaError> {
        let Some((header, payload)) = bytes.split_first_chunk::<PACKET_HEADER>() else {
            return Err(MediaError::Malformed("short media packet"));
        };
        let [i0, i1, t0, t1, f0, f1, f2, f3, l0, l1, l2, l3] = *header;
        if payload.len() != u32::from_be_bytes([l0, l1, l2, l3]) as usize {
            return Err(MediaError::Malformed("media packet length mismatch"));
        }
        Ok(PacketView {
            index: u16::from_be_bytes([i0, i1]),
            total: u16::from_be_bytes([t0, t1]),
            full_len: u32::from_be_bytes([f0, f1, f2, f3]),
            payload,
        })
    }

    /// The owned packet: the payload copied out.
    pub fn to_packet(self) -> MediaPacket {
        MediaPacket {
            index: self.index,
            total: self.total,
            full_len: self.full_len,
            payload: self.payload.to_vec(),
        }
    }
}

/// Chunk `i` of `len` bytes split into `n` near-equal chunks, as
/// `(start, end)`: the remainder is front-loaded, chunk 0 covers at
/// least the plane header whenever the stream has one (the bytes that
/// takes come off the chunks after it), and the last chunk ends at
/// `len`. Closed form, so one stripe is cut without the others' bounds.
fn chunk(len: usize, n: usize, i: usize) -> (usize, usize) {
    let (base, rem) = (len / n, len % n);
    let first = base + usize::from(rem > 0);
    let extra = if len >= PLANE_HEADER_LEN {
        PLANE_HEADER_LEN.saturating_sub(first)
    } else {
        0
    };
    // Where chunk `j` ends: chunks `0..=j` at their nominal sizes plus
    // chunk 0's top-up, never past the stream.
    let end = |j: usize| {
        if j + 1 == n {
            len
        } else {
            (extra + (j + 1) * base + (j + 1).min(rem)).min(len)
        }
    };
    (if i == 0 { 0 } else { end(i - 1) }, end(i))
}

/// A container cut into `n` channel-aware stripes, read in place:
/// stripe `i` — the payload [`split_packets`] gives packet `i`, or
/// that packet's whole wire form — is sized and written on demand,
/// straight from the container's bytes, so a sender frames each stripe
/// without a [`MediaPacket`] ever holding it.
#[derive(Clone)]
pub struct Stripes<'a> {
    container: &'a [u8],
    streams: ChannelStreams<'a>,
    n: usize,
}

impl<'a> Stripes<'a> {
    /// The `n` stripes of `container`. `Err` when `container` is not a
    /// valid EZW container, or `n` is outside `1..=65535`, what a
    /// packet header can count.
    pub fn new(container: &'a [u8], n: usize) -> Result<Stripes<'a>, MediaError> {
        if !(1..=usize::from(u16::MAX)).contains(&n) {
            return Err(MediaError::Malformed("packet count out of range"));
        }
        let (_, _, streams) = container_streams(container)?;
        Ok(Stripes {
            container,
            streams,
            n,
        })
    }

    /// How many stripes the container is cut into.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Each channel's chunk of stripe `i`, in channel order.
    fn chunks(&self, i: usize) -> impl Iterator<Item = &'a [u8]> {
        let n = self.n;
        self.streams.clone().map(move |stream| {
            let (start, end) = chunk(stream.len(), n, i);
            &stream[start..end]
        })
    }

    /// Length of stripe `i`'s payload: the container header, then per
    /// channel a length and that channel's chunk `i`.
    fn payload_len(&self, i: usize) -> usize {
        CONTAINER_HEADER_LEN + self.chunks(i).map(|c| 4 + c.len()).sum::<usize>()
    }

    /// Append stripe `i`'s payload to `out`.
    fn write_payload(&self, i: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.container[..CONTAINER_HEADER_LEN]);
        for chunk in self.chunks(i) {
            out.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
            out.extend_from_slice(chunk);
        }
    }

    /// Length of stripe `i`'s wire form ([`Stripes::write_packet`]).
    pub fn packet_len(&self, i: usize) -> usize {
        PACKET_HEADER + self.payload_len(i)
    }

    /// Append stripe `i`'s wire form to `out`: the bytes
    /// `split_packets(container, n)[i].encode()` returns, without the
    /// packet or its payload being built.
    ///
    /// # Panics
    /// Panics when `i >= n`.
    pub fn write_packet(&self, i: usize, out: &mut Vec<u8>) {
        assert!(i < self.n, "stripe {i} of {}", self.n);
        let full_len = self.container.len() as u32;
        write_header(out, i, self.n, full_len, self.payload_len(i));
        self.write_payload(i, out);
    }
}

/// Split an encoded container into `n` channel-aware stripes, each
/// payload in a buffer of exactly its size ([`Stripes`] cuts them).
///
/// # Panics
/// Panics when `container` is not a valid EZW container or `n` is out
/// of range — callers split containers they just encoded.
pub fn split_packets(container: &[u8], n: usize) -> Vec<MediaPacket> {
    let stripes = Stripes::new(container, n).expect("valid container and packet count");
    (0..n)
        .map(|i| {
            let mut payload = Vec::with_capacity(stripes.payload_len(i));
            stripes.write_payload(i, &mut payload);
            MediaPacket {
                index: i as u16,
                total: n as u16,
                full_len: container.len() as u32,
                payload,
            }
        })
        .collect()
}

/// Reassemble a *prefix* of stripes (indices `0..k`, any order, later
/// copies of an index ignored) into a valid, possibly-truncated
/// container: every channel holds the first `k/n` of its embedded
/// stream. Non-prefix subsets are rejected: the embedded stream only
/// decodes from the front. Orders the packets, then
/// [`reassemble_stripes`].
pub fn reassemble_prefix(packets: &[MediaPacket]) -> Result<Vec<u8>, MediaError> {
    // `slot[i]`: the first packet carrying index `i`. Indices of a
    // prefix of at most `n` distinct packets lie below `n`.
    let mut slot = vec![usize::MAX; packets.len()];
    for (at, p) in packets.iter().enumerate() {
        let Some(s) = slot.get_mut(usize::from(p.index)) else {
            return Err(MediaError::Malformed("packet set is not a prefix"));
        };
        if *s == usize::MAX {
            *s = at;
        }
    }
    let k = slot.iter().take_while(|&&s| s != usize::MAX).count();
    if slot[k..].iter().any(|&s| s != usize::MAX) {
        return Err(MediaError::Malformed("packet set is not a prefix"));
    }
    let mut out = Vec::new();
    reassemble_stripes(slot[..k].iter().map(|&at| packets[at].view()), &mut out)?;
    Ok(out)
}

/// Reassemble stripes `0..k`, given in index order, into a container —
/// [`reassemble_prefix`] for stripes already ordered, read in place:
/// one pass verifies every stripe and sizes the container, a second
/// writes it into `out`, channel by channel. On `Ok`, `out` holds the
/// container in place of what it held, having grown only if its
/// capacity was short (and then to exactly the container's size); on
/// `Err` it is left as it was.
pub fn reassemble_stripes<'a, I>(stripes: I, out: &mut Vec<u8>) -> Result<(), MediaError>
where
    I: IntoIterator<Item = PacketView<'a>>,
    I::IntoIter: Clone,
{
    let stripes = stripes.into_iter();
    let mut first: Option<PacketView<'a>> = None;
    let mut chunk_bytes = 0usize;
    for (i, p) in stripes.clone().enumerate() {
        let head = *first.get_or_insert(p);
        if p.total != head.total || p.full_len != head.full_len {
            return Err(MediaError::Malformed("packets from different objects"));
        }
        if usize::from(p.index) != i {
            return Err(MediaError::Malformed("packet set is not a prefix"));
        }
        let header = head.payload.get(..CONTAINER_HEADER_LEN);
        if header.is_none_or(|h| &h[..4] != CONTAINER_MAGIC) {
            return Err(MediaError::Malformed("bad stripe header"));
        }
        if p.payload.get(..CONTAINER_HEADER_LEN) != header {
            return Err(MediaError::Malformed("inconsistent stripe headers"));
        }
        let mut pos = CONTAINER_HEADER_LEN;
        for _ in 0..head.payload[4] {
            let Some(len) = p.payload.get(pos..pos + 4) else {
                return Err(MediaError::Malformed("truncated stripe"));
            };
            let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
            pos += 4;
            if p.payload.len() - pos < len {
                return Err(MediaError::Malformed("truncated stripe chunk"));
            }
            pos += len;
            chunk_bytes += len;
        }
        if pos != p.payload.len() {
            return Err(MediaError::Malformed("trailing stripe bytes"));
        }
    }
    let Some(head) = first else {
        return Err(MediaError::Malformed("no packets"));
    };
    let channels = usize::from(head.payload[4]);
    out.clear();
    out.reserve_exact(CONTAINER_HEADER_LEN + 4 * channels + chunk_bytes);
    out.extend_from_slice(&head.payload[..CONTAINER_HEADER_LEN]);
    for channel in 0..channels {
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        for p in stripes.clone() {
            out.extend_from_slice(stripe_chunk(p.payload, channel));
        }
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
    }
    Ok(())
}

/// Chunk `channel` of a stripe [`reassemble_stripes`] has verified.
fn stripe_chunk(payload: &[u8], channel: usize) -> &[u8] {
    let mut pos = CONTAINER_HEADER_LEN;
    for _ in 0..channel {
        pos += 4 + u32::from_be_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
    }
    let len = u32::from_be_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
    &payload[pos + 4..pos + 4 + len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ezw::encode_image;
    use crate::image::synthetic_scene;
    use crate::metrics::psnr;
    use crate::wavelet::WaveletKind;

    fn container() -> (crate::image::Image, Vec<u8>) {
        let scene = synthetic_scene(64, 64, 1, 4, 17);
        let c = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        (scene.image, c)
    }

    fn color_container() -> (crate::image::Image, Vec<u8>) {
        let scene = synthetic_scene(64, 64, 3, 4, 23);
        let c = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        (scene.image, c)
    }

    #[test]
    fn packet_wire_round_trip() {
        let p = MediaPacket {
            index: 3,
            total: 16,
            full_len: 999,
            payload: vec![1, 2, 3],
        };
        let wire = p.encode();
        assert_eq!(PacketView::parse(&wire).map(PacketView::to_packet), Ok(p));
        assert!(PacketView::parse(&wire[..5]).is_err());
    }

    #[test]
    fn packet_view_borrows_the_payload() {
        let p = MediaPacket {
            index: 1,
            total: 2,
            full_len: 7,
            payload: vec![4, 5, 6],
        };
        let wire = p.encode();
        let view = PacketView::parse(&wire).unwrap();
        assert_eq!(view, p.view());
        assert!(std::ptr::eq(view.payload, &wire[12..]));
        assert_eq!(view.to_packet(), p);
        let mut long = wire.clone();
        long.push(0);
        assert!(PacketView::parse(&long).is_err(), "length mismatch");
    }

    #[test]
    fn reassembly_sizes_the_container_exactly_and_keeps_first_copies() {
        for (_, c) in [container(), color_container()] {
            let packets = split_packets(&c, 8);
            let mut ordered = Vec::new();
            reassemble_stripes(packets[..5].iter().map(MediaPacket::view), &mut ordered).unwrap();
            assert_eq!(ordered.len(), ordered.capacity());
            let mut shuffled = vec![packets[3].clone(), packets[0].clone()];
            shuffled.extend(packets[..5].iter().rev().cloned());
            // A later copy of index 0 with other bytes is ignored.
            let mut forged = packets[0].clone();
            forged.payload[CONTAINER_HEADER_LEN + 4] ^= 0xFF;
            shuffled.push(forged);
            assert_eq!(reassemble_prefix(&shuffled).unwrap(), ordered);
            let mut kept = ordered.clone();
            assert!(
                reassemble_stripes(packets[1..3].iter().map(MediaPacket::view), &mut kept).is_err(),
                "stripes must start at index 0"
            );
            assert_eq!(
                kept, ordered,
                "a refused reassembly leaves the buffer alone"
            );
            // Into a buffer that held something else, longer or shorter.
            for mut reused in [vec![0xAB; 3], vec![7; 4 * ordered.len()]] {
                reassemble_stripes(packets[..5].iter().map(MediaPacket::view), &mut reused)
                    .unwrap();
                assert_eq!(reused, ordered);
            }
        }
    }

    /// The chunk walk `chunk` is the closed form of: each chunk at its
    /// nominal size, chunk 0 topped up to the plane header, clamped to
    /// the stream, the last one ending at `len`.
    fn chunk_walk(len: usize, n: usize) -> Vec<(usize, usize)> {
        let (base, rem) = (len / n, len % n);
        let mut out = Vec::with_capacity(n);
        let mut pos = 0;
        for i in 0..n {
            let mut size = base + usize::from(i < rem);
            if i == 0 && len >= PLANE_HEADER_LEN {
                size = size.max(PLANE_HEADER_LEN);
            }
            let end = (pos + size).min(len);
            out.push((pos, end));
            pos = end;
        }
        out.last_mut().expect("n >= 1").1 = len;
        out
    }

    #[test]
    fn chunks_cover_exactly_and_match_the_walk() {
        for len in (0..40).chain([99, 100, 101, 1000, 4099]) {
            for n in [1, 2, 3, 7, 9, 10, 11, 16, 64, 255] {
                let b: Vec<_> = (0..n).map(|i| chunk(len, n, i)).collect();
                assert_eq!(b, chunk_walk(len, n), "len {len}, n {n}");
                assert_eq!(b[0].0, 0);
                assert_eq!(b[n - 1].1, len);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
            }
        }
        // Chunk 0 always covers the plane header when possible.
        let (start, end) = chunk(100, 16, 0);
        assert!(end - start >= PLANE_HEADER_LEN);
    }

    #[test]
    fn stripes_are_sized_exactly_and_frame_as_the_packets_do() {
        for (_, c) in [container(), color_container()] {
            for n in [1usize, 3, 16, 255] {
                let stripes = Stripes::new(&c, n).unwrap();
                for (i, p) in split_packets(&c, n).iter().enumerate() {
                    assert_eq!(p.payload.len(), p.payload.capacity(), "n {n}, stripe {i}");
                    let mut wire = Vec::with_capacity(stripes.packet_len(i));
                    stripes.write_packet(i, &mut wire);
                    assert_eq!(wire.len(), wire.capacity());
                    assert_eq!(wire, p.encode());
                }
            }
        }
        assert!(Stripes::new(&container().1, 0).is_err());
        assert!(Stripes::new(&container().1, 65_536).is_err());
        assert!(Stripes::new(b"EZC1", 4).is_err());
    }

    #[test]
    fn all_packets_reassemble_losslessly() {
        for (img, c) in [container(), color_container()] {
            let packets = split_packets(&c, 16);
            assert_eq!(packets.len(), 16);
            let back = reassemble_prefix(&packets).unwrap();
            let decoded = crate::ezw::decode_image(&back).unwrap();
            assert_eq!(decoded.data, img.data);
        }
    }

    #[test]
    fn quality_scales_with_packet_count_grayscale_and_color() {
        for (img, c) in [container(), color_container()] {
            let packets = split_packets(&c, 16);
            let mut prev = 0.0;
            for k in [1usize, 2, 4, 8, 16] {
                let prefix = reassemble_prefix(&packets[..k]).unwrap();
                let decoded = crate::ezw::decode_image(&prefix).unwrap();
                let q = psnr(&img, &decoded);
                assert!(
                    q >= prev - 0.9,
                    "PSNR weakly monotone in packets: k={k} gave {q:.1} after {prev:.1}"
                );
                prev = q;
            }
            assert!(prev.is_infinite(), "16/16 packets are lossless");
        }
    }

    #[test]
    fn every_color_channel_survives_small_prefixes() {
        let (img, c) = color_container();
        let packets = split_packets(&c, 16);
        let prefix = reassemble_prefix(&packets[..2]).unwrap();
        let decoded = crate::ezw::decode_image(&prefix).unwrap();
        assert_eq!(decoded.channels, 3);
        // No channel should be pitch black: each got its stream prefix.
        for ch in 0..3 {
            let plane = decoded.plane(ch);
            assert!(
                plane.iter().any(|&v| v > 16),
                "channel {ch} starved: {:?}",
                &plane[..8]
            );
        }
        assert!(psnr(&img, &decoded) > 10.0);
    }

    #[test]
    fn out_of_order_prefix_ok_but_gaps_rejected() {
        let (_, c) = container();
        let packets = split_packets(&c, 8);
        let mut shuffled = vec![packets[2].clone(), packets[0].clone(), packets[1].clone()];
        assert!(reassemble_prefix(&shuffled).is_ok());
        shuffled.push(packets[5].clone()); // gap: 3,4 missing
        assert!(reassemble_prefix(&shuffled).is_err());
    }

    #[test]
    fn mixed_objects_rejected() {
        let (_, c) = container();
        let a = split_packets(&c, 4);
        let scene2 = synthetic_scene(32, 32, 1, 2, 99);
        let c2 = encode_image(&scene2.image, 3, WaveletKind::Cdf53).unwrap();
        let b = split_packets(&c2, 4);
        assert!(reassemble_prefix(&[a[0].clone(), b[1].clone()]).is_err());
    }

    #[test]
    fn single_packet_prefix_decodes() {
        let (img, c) = container();
        let packets = split_packets(&c, 16);
        let prefix = reassemble_prefix(&packets[..1]).unwrap();
        let decoded = crate::ezw::decode_image(&prefix).unwrap();
        assert_eq!(decoded.width, img.width);
        assert!(psnr(&img, &decoded) > 5.0);
    }

    #[test]
    fn empty_packet_set_rejected() {
        assert!(reassemble_prefix(&[]).is_err());
    }
}
