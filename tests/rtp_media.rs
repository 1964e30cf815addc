//! The §5.1 thin RTP/RTCP layer in anger: multi-packet media shipped
//! over a lossy, reordering path, resequenced by the reorder buffer,
//! and decoded from whatever prefix survived — "reliable and ordered
//! delivery of these packets is critical for successful reconstruction
//! of data at a collaborating remote client."

use collabqos::media::ezw;
use collabqos::media::image::synthetic_scene;
use collabqos::media::packetize::{reassemble_prefix, split_packets, MediaPacket, PacketView};
use collabqos::media::psnr;
use collabqos::media::wavelet::WaveletKind;
use collabqos::simnet::rtp::{RtpReceiver, RtpSender};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Wrap every media packet in RTP, scramble arrival order, and verify
/// the receiver restores a decodable, in-order prefix.
#[test]
fn reordered_rtp_stream_reassembles_image() {
    let scene = synthetic_scene(64, 64, 1, 3, 31);
    let container = ezw::encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
    let media_packets = split_packets(&container, 16);

    let mut sender = RtpSender::new(0x1234, 96);
    let mut wires: Vec<Vec<u8>> = media_packets
        .iter()
        .map(|p| sender.wrap(p.index as u32, p.index as usize == 15, &p.encode()))
        .collect();

    // Mild reordering: shuffle within a window of 4.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for chunk in wires.chunks_mut(4) {
        chunk.shuffle(&mut rng);
    }

    let mut receiver = RtpReceiver::with_playout_depth(8, 4);
    let mut restored: Vec<MediaPacket> = Vec::new();
    for wire in &wires {
        for pkt in receiver.push(wire) {
            restored.push(PacketView::parse(&pkt.payload).unwrap().to_packet());
        }
    }
    restored.extend(
        receiver
            .flush()
            .into_iter()
            .map(|p| PacketView::parse(&p.payload).unwrap().to_packet()),
    );

    // The reorder buffer restored sending order.
    let indices: Vec<u16> = restored.iter().map(|p| p.index).collect();
    assert_eq!(indices, (0..16).collect::<Vec<u16>>());
    let back = reassemble_prefix(&restored).unwrap();
    let decoded = ezw::decode_image(&back).unwrap();
    assert_eq!(
        decoded.data, scene.image.data,
        "lossless after resequencing"
    );
    assert_eq!(receiver.report().lost, 0);
}

/// Loss plus reordering: the receiver skips the gap after the window
/// overflows, and the surviving *prefix* of media packets still decodes
/// to a coarser image.
#[test]
fn lossy_rtp_stream_decodes_surviving_prefix() {
    let scene = synthetic_scene(64, 64, 1, 3, 32);
    let container = ezw::encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
    let media_packets = split_packets(&container, 16);

    let mut sender = RtpSender::new(0x99, 96);
    let wires: Vec<Vec<u8>> = media_packets
        .iter()
        .map(|p| sender.wrap(p.index as u32, false, &p.encode()))
        .collect();

    // Drop RTP packets 6 and 11 outright.
    let mut receiver = RtpReceiver::new(4);
    let mut restored: Vec<MediaPacket> = Vec::new();
    for (i, wire) in wires.iter().enumerate() {
        if i == 6 || i == 11 {
            continue;
        }
        for pkt in receiver.push(wire) {
            restored.push(PacketView::parse(&pkt.payload).unwrap().to_packet());
        }
    }
    restored.extend(
        receiver
            .flush()
            .into_iter()
            .map(|p| PacketView::parse(&p.payload).unwrap().to_packet()),
    );
    assert_eq!(receiver.report().lost, 2);

    // The embedded stream only decodes from the front: keep the intact
    // prefix (packets 0..=5) and decode it.
    let prefix: Vec<MediaPacket> = restored
        .iter()
        .take_while(|p| p.index < 6)
        .cloned()
        .collect();
    assert_eq!(prefix.len(), 6);
    let back = reassemble_prefix(&prefix).unwrap();
    let decoded = ezw::decode_image(&back).unwrap();
    let quality = psnr(&scene.image, &decoded);
    assert!(
        quality > 15.0,
        "6/16 packets still give a usable image, got {quality:.1} dB"
    );
}
