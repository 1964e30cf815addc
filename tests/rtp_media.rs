//! The §5.1 thin layer in anger: a multi-packet image shipped in a
//! scrambled, lossy order, put back in packet-index order by the image
//! viewer, and decoded from whatever prefix survived — "reliable and
//! ordered delivery of these packets is critical for successful
//! reconstruction of data at a collaborating remote client." The
//! viewer's receiver report counts what it saw.

use collabqos::core::apps::{ImageViewer, MediaStore, ViewedImage};
use collabqos::core::events::{AppEvent, EventView};
use collabqos::media::ezw;
use collabqos::media::image::synthetic_scene;
use collabqos::media::packetize::{reassemble_prefix, split_packets, MediaPacket};
use collabqos::media::psnr;
use collabqos::media::wavelet::WaveletKind;
use collabqos::media::Image;
use collabqos::sempubsub::WireMessage;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use testkit::event_message;

/// An image's announcement and its 16 packets, each in a message of
/// its own as a session delivers them.
struct Share {
    image: Image,
    packets: Vec<MediaPacket>,
    meta: Arc<WireMessage>,
    stripes: Vec<Arc<WireMessage>>,
}

fn share(seed: u64) -> Share {
    let scene = synthetic_scene(64, 64, 1, 3, seed);
    let container = ezw::encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
    let packets = split_packets(&container, 16);
    let meta = event_message(&AppEvent::ImageMeta {
        object_id: 1,
        caption: scene.caption,
        original_bytes: scene.image.byte_len() as u64,
        pixels: scene.image.pixels() as u64,
        total_packets: 16,
    });
    let stripes = packets
        .iter()
        .map(|p| {
            event_message(&AppEvent::ImagePacket {
                object_id: 1,
                packet: p.clone(),
            })
        })
        .collect();
    Share {
        image: scene.image,
        packets,
        meta,
        stripes,
    }
}

/// Hand `viewer` each message, none CE-marked; the view it completes.
fn deliver<'a>(
    viewer: &mut ImageViewer,
    store: &mut MediaStore,
    messages: impl IntoIterator<Item = &'a Arc<WireMessage>>,
) -> Option<ViewedImage> {
    let mut views = messages.into_iter().filter_map(|m| {
        let ev = EventView::parse(m.body()).unwrap();
        viewer.apply_delivered(&ev, m, false, store)
    });
    let view = views.next();
    assert!(views.next().is_none(), "one object, one view");
    view
}

/// Every packet, scrambled within windows of four and one sent twice,
/// after the announcement: the viewer restores index order, and the
/// view is the lossless decode of the whole stream.
#[test]
fn reordered_rtp_stream_reassembles_image() {
    let share = share(31);
    let mut order: Vec<usize> = (0..16).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for chunk in order.chunks_mut(4) {
        chunk.shuffle(&mut rng);
    }
    order.insert(5, order[2]);

    let mut viewer = ImageViewer::new(16);
    let mut store = MediaStore::new();
    let arrivals = std::iter::once(&share.meta).chain(order.iter().map(|&i| &share.stripes[i]));
    let view = deliver(&mut viewer, &mut store, arrivals).expect("the whole stream arrived");

    let clean = ezw::decode_image(&reassemble_prefix(&share.packets).unwrap()).unwrap();
    assert!(*view.image == clean);
    assert_eq!(view.image.data, share.image.data, "lossless");
    let report = viewer.report();
    assert_eq!(
        (report.received, report.lost, report.duplicates),
        (16, 0, 1)
    );
    assert_eq!(report.fraction_lost, 0.0);
}

/// Loss plus reordering: packets 6 and 11 never arrive, so the view
/// waits and the report counts both gaps. Once the budget is cut to
/// the surviving prefix (what an engine reading that loss would do),
/// the announcement's arrival decodes packets 0..=5 to a coarser image
/// — the clean decode of that prefix — and the gaps stay booked.
#[test]
fn lossy_rtp_stream_decodes_surviving_prefix() {
    let share = share(32);
    let mut order: Vec<usize> = (0..16).filter(|&i| i != 6 && i != 11).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(4));

    let mut viewer = ImageViewer::new(16);
    let mut store = MediaStore::new();
    let arrivals = order.iter().map(|&i| &share.stripes[i]);
    assert!(deliver(&mut viewer, &mut store, arrivals).is_none());
    let report = viewer.report();
    assert_eq!((report.received, report.lost), (14, 2));
    assert_eq!(report.fraction_lost, 2.0 / 16.0);

    viewer.set_packet_budget(6);
    let view = deliver(&mut viewer, &mut store, [&share.meta]).expect("the prefix is whole");
    assert_eq!(view.packets_accepted, 6);
    let prefix = reassemble_prefix(&share.packets[..6]).unwrap();
    assert!(*view.image == ezw::decode_image(&prefix).unwrap());
    let quality = psnr(&share.image, &view.image);
    assert!(
        quality > 15.0,
        "6/16 packets still give a usable image, got {quality:.1} dB"
    );
    assert_eq!(viewer.report(), report, "the gaps stay booked");
}
