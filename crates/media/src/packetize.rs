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

use crate::ezw::{container_streams, PLANE_HEADER_LEN};
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
        let mut out = Vec::with_capacity(12 + self.payload.len());
        out.extend_from_slice(&self.index.to_be_bytes());
        out.extend_from_slice(&self.total.to_be_bytes());
        out.extend_from_slice(&self.full_len.to_be_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<MediaPacket, MediaError> {
        if bytes.len() < 12 {
            return Err(MediaError::Malformed("short media packet"));
        }
        let index = u16::from_be_bytes([bytes[0], bytes[1]]);
        let total = u16::from_be_bytes([bytes[2], bytes[3]]);
        let full_len = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        let plen = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        if bytes.len() != 12 + plen {
            return Err(MediaError::Malformed("media packet length mismatch"));
        }
        Ok(MediaPacket {
            index,
            total,
            full_len,
            payload: bytes[12..].to_vec(),
        })
    }
}

/// Container header length: magic + channels + kind.
const CONTAINER_HEADER: usize = 6;

/// Chunk boundaries for splitting `len` bytes into `n` near-equal
/// chunks, front-loading the remainder (and guaranteeing chunk 0 covers
/// at least the plane header whenever the stream has one).
fn chunk_bounds(len: usize, n: usize) -> Vec<(usize, usize)> {
    let base = len / n;
    let rem = len % n;
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
    // Any shortfall from the chunk-0 minimum lands on the final chunk.
    if let Some(last) = out.last_mut() {
        last.1 = len;
    }
    out
}

/// Split an encoded container into `n` channel-aware stripes.
///
/// # Panics
/// Panics when `container` is not a valid EZW container or `n` is out
/// of range — callers split containers they just encoded.
pub fn split_packets(container: &[u8], n: usize) -> Vec<MediaPacket> {
    assert!(
        n >= 1 && n <= u16::MAX as usize,
        "packet count out of range"
    );
    let (_, _, streams) = container_streams(container).expect("valid container");
    let header = &container[..CONTAINER_HEADER];
    let bounds: Vec<Vec<(usize, usize)>> =
        streams.clone().map(|s| chunk_bounds(s.len(), n)).collect();
    (0..n)
        .map(|i| {
            let mut payload = Vec::with_capacity(CONTAINER_HEADER + container.len() / n + 8);
            payload.extend_from_slice(header);
            for (stream, b) in streams.clone().zip(&bounds) {
                let (start, end) = b[i];
                payload.extend_from_slice(&((end - start) as u32).to_be_bytes());
                payload.extend_from_slice(&stream[start..end]);
            }
            MediaPacket {
                index: i as u16,
                total: n as u16,
                full_len: container.len() as u32,
                payload,
            }
        })
        .collect()
}

/// Reassemble a *prefix* of stripes (indices `0..k`, any order) into a
/// valid, possibly-truncated container: every channel holds the first
/// `k/n` of its embedded stream. Non-prefix subsets are rejected: the
/// embedded stream only decodes from the front.
pub fn reassemble_prefix(packets: &[MediaPacket]) -> Result<Vec<u8>, MediaError> {
    if packets.is_empty() {
        return Err(MediaError::Malformed("no packets"));
    }
    let total = packets[0].total;
    let full_len = packets[0].full_len;
    let mut sorted: Vec<&MediaPacket> = packets.iter().collect();
    sorted.sort_by_key(|p| p.index);
    sorted.dedup_by_key(|p| p.index);
    for (i, p) in sorted.iter().enumerate() {
        if p.total != total || p.full_len != full_len {
            return Err(MediaError::Malformed("packets from different objects"));
        }
        if p.index as usize != i {
            return Err(MediaError::Malformed("packet set is not a prefix"));
        }
    }
    // Parse each stripe: header + per-channel chunks.
    let header = &sorted[0].payload[..CONTAINER_HEADER.min(sorted[0].payload.len())];
    if header.len() < CONTAINER_HEADER || &header[..4] != b"EZC1" {
        return Err(MediaError::Malformed("bad stripe header"));
    }
    let channels = header[4] as usize;
    let mut streams: Vec<Vec<u8>> = vec![Vec::new(); channels];
    for p in &sorted {
        if p.payload.len() < CONTAINER_HEADER || p.payload[..CONTAINER_HEADER] != *header {
            return Err(MediaError::Malformed("inconsistent stripe headers"));
        }
        let mut pos = CONTAINER_HEADER;
        for stream in streams.iter_mut() {
            if p.payload.len() < pos + 4 {
                return Err(MediaError::Malformed("truncated stripe"));
            }
            let len = u32::from_be_bytes(p.payload[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if p.payload.len() < pos + len {
                return Err(MediaError::Malformed("truncated stripe chunk"));
            }
            stream.extend_from_slice(&p.payload[pos..pos + len]);
            pos += len;
        }
        if pos != p.payload.len() {
            return Err(MediaError::Malformed("trailing stripe bytes"));
        }
    }
    let mut out =
        Vec::with_capacity(CONTAINER_HEADER + streams.iter().map(|s| s.len() + 4).sum::<usize>());
    out.extend_from_slice(header);
    for s in &streams {
        out.extend_from_slice(&(s.len() as u32).to_be_bytes());
        out.extend_from_slice(s);
    }
    Ok(out)
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
        assert_eq!(MediaPacket::decode(&p.encode()).unwrap(), p);
        assert!(MediaPacket::decode(&p.encode()[..5]).is_err());
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for (len, n) in [(100usize, 16usize), (5, 16), (1000, 7), (0, 4)] {
            let b = chunk_bounds(len, n);
            assert_eq!(b.len(), n);
            assert_eq!(b[0].0, 0);
            assert_eq!(b[n - 1].1, len);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
        }
        // Chunk 0 always covers the plane header when possible.
        let b = chunk_bounds(100, 16);
        assert!(b[0].1 - b[0].0 >= PLANE_HEADER_LEN);
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
