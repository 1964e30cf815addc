//! Allocation budget: what a received frame, a steady-state reception,
//! a share and a gateway relay cost the heap.
//!
//! A counting global allocator counts per thread, so the tests of this
//! binary, which the harness runs on parallel threads, do not see each
//! other's allocations; every session here runs on the test's own
//! thread. Each reception test warms its session up,
//! then counts the allocations of `pump` alone (publishing and encoding
//! stay outside the window) and divides by what the pump delivered.
//! The sending side is counted the other way round: `share_image`
//! alone, per frame it sends, with the largest single request tracked
//! too. The gateway's relay is counted as a difference: the same
//! traffic relayed to one thin client and to twelve. A received frame
//! is counted alone: the allocations `Frame::read` makes for one buffer.
//!
//! The bounds are upper bounds — the measured count plus a margin —
//! because the toolchain floats on `stable` and the standard library's
//! growth policies may move a count by a little. An accepted chat line
//! costs exactly the log's own `(author, text)` pair plus its share of
//! the one read its buffer gets per session; an image view, its share
//! of the buffer reads, the pending entry, the reassembled container
//! and the image decode. A broker's routing adds nothing: it reads the
//! same frame off the same buffer, and remembers the message's dedup id
//! as a bit under an origin interned once, so a brokered delivery is
//! held to the flat one's bound. A buffer's read is three allocations whatever the
//! message carries — the frame slot, the shared handle and one copy of
//! the bytes — because the content description is built only when an
//! interest reads it. Measured on this suite's sessions when the bounds
//! were set: 2.30 and 2.30 allocations per flat and brokered chat
//! delivery, 10.2 and 10.2 per flat and brokered image view (2.60 and
//! 15.6 brokered while each broker cloned a `(String, u64)` dedup key
//! per arrival into a set it never pruned; 3.06 and 21.4 before that,
//! and 25.7 and 36.8 while each read decoded every field and the
//! content description into owned values; the per-client decode and
//! copies before that cost 5.14, 6.26, 65.5 and 82.8). A
//! cold colour share made 0.89 allocations per frame (its frames are
//! written into buffers the receivers gave back to the network, so
//! what is left is about a dozen per share for its content
//! description, caption and encode bookkeeping; it was 2.88 while each
//! frame was two fresh buffers), none of them near the size of a
//! coefficient plane; a warm re-share of a scene the media store holds
//! made 0.65, its largest request a fifth of the container; a relayed
//! downlink delivery made none.

use collabqos::prelude::*;
use testkit::alloc::{allocs, largest_since, CountingAlloc};
use testkit::{Client, Scenario};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHAT: &str = "interested_in contains 'chat'";
const IMAGES: &str = "interested_in contains 'image'";
const CLIENTS: usize = 12;
const WARM_ROUNDS: usize = 5;
const ROUNDS: usize = 20;

/// A session of `CLIENTS` passive clients interested in chat and
/// images: flat, or over three broker domains.
fn session(domains: Option<usize>) -> CollaborationSession {
    session_with(SessionConfig {
        seed: 31,
        domains,
        ..SessionConfig::default()
    })
}

/// [`session`] under `cfg`.
fn session_with(cfg: SessionConfig) -> CollaborationSession {
    let clients = (0..CLIENTS)
        .map(|i| Client::passive(&format!("c{i}"), &["chat", "image"]))
        .collect();
    Scenario { cfg, clients }.build().0
}

/// Allocations per chat line delivered, over `ROUNDS` rounds of four
/// lines from four publishers each, after `WARM_ROUNDS` rounds that let
/// every buffer the pump keeps reach its size.
fn allocs_per_chat_delivery(domains: Option<usize>) -> f64 {
    let mut s = session(domains);
    let (mut counted, mut delivered) = (0, 0);
    for round in 0..WARM_ROUNDS + ROUNDS {
        for k in 0..4 {
            let from = (round * 4 + k) % CLIENTS;
            s.share_chat(from, &format!("line {round}.{k}"), CHAT)
                .expect("chat publishes");
        }
        let before = allocs();
        s.pump(Ticks::from_millis(100));
        let spent = allocs() - before;
        let lines: usize = (0..CLIENTS).map(|id| s.client(id).chat.log.len()).sum();
        assert_eq!(
            lines,
            4 * (CLIENTS - 1),
            "every other client hears each line"
        );
        for id in 0..CLIENTS {
            s.client_mut(id).chat.log.clear();
        }
        if round >= WARM_ROUNDS {
            counted += spent;
            delivered += lines as u64;
        }
    }
    counted as f64 / delivered as f64
}

/// Allocations per image view, over `ROUNDS` shares of a fresh scene
/// to viewers on packet budgets 16, 8, 4 and 2.
fn allocs_per_image_view(domains: Option<usize>) -> f64 {
    let mut s = session(domains);
    let viewers = CLIENTS - 1;
    for id in 1..CLIENTS {
        let budget = [16, 8, 4, 2][id % 4];
        s.client_mut(id).viewer.set_packet_budget(budget);
    }
    let (mut counted, mut views) = (0, 0);
    for round in 0..WARM_ROUNDS + ROUNDS {
        let scene = synthetic_scene(64, 64, 1, 3, 500 + round as u64);
        s.share_image(0, &scene, IMAGES).expect("image shares");
        let before = allocs();
        let viewed = s.pump(Ticks::from_millis(200));
        let spent = allocs() - before;
        assert_eq!(viewed.len(), viewers, "every viewer completes the share");
        drop(viewed);
        for id in 0..CLIENTS {
            s.client_mut(id).viewer.viewed.clear();
        }
        if round >= WARM_ROUNDS {
            counted += spent;
            views += viewers as u64;
        }
    }
    counted as f64 / views as f64
}

#[test]
fn a_flat_chat_delivery_allocates_the_log_line_and_little_else() {
    let per = allocs_per_chat_delivery(None);
    assert!(per <= 2.5, "{per:.3} allocations per flat chat delivery");
}

#[test]
fn a_brokered_chat_delivery_allocates_the_log_line_and_little_else() {
    let per = allocs_per_chat_delivery(Some(3));
    assert!(
        per <= 2.5,
        "{per:.3} allocations per brokered chat delivery"
    );
}

#[test]
fn a_flat_image_view_stays_within_its_budget() {
    let per = allocs_per_image_view(None);
    assert!(per <= 11.0, "{per:.3} allocations per flat image view");
}

#[test]
fn a_brokered_image_view_stays_within_its_budget() {
    let per = allocs_per_image_view(Some(3));
    assert!(per <= 11.0, "{per:.3} allocations per brokered image view");
}

/// The allocations `Frame::read` makes for the first look at a buffer
/// holding a message with `content`, its selector already in the store;
/// and, separately, what reading that content description then costs.
fn frame_read_costs(content: &[(&str, AttrValue)]) -> (usize, usize) {
    use collabqos::sempubsub::{Frame, SelectorStore, SemanticMessage};
    use collabqos::simnet::Payload;
    let store = SelectorStore::with_capacity(4);
    store.compile(IMAGES).expect("the selector parses");
    let payload = Payload::from(
        SemanticMessage {
            sender: "c0".to_string(),
            kind: "image-packet".to_string(),
            selector: IMAGES.to_string(),
            seq: 7,
            content: content
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            body: vec![0xA5; 600],
        }
        .encode(),
    );
    let before = allocs();
    let frame = Frame::read(&payload, &store);
    let read = allocs() - before;
    let Frame::Message { message, .. } = &*frame else {
        panic!("a valid message resolves to {frame:?}");
    };
    assert_eq!(message.body().len(), 600);
    let before = allocs();
    assert_eq!(message.content().len(), content.len());
    (read, allocs() - before)
}

#[test]
fn a_received_frame_costs_the_same_whatever_its_content() {
    let (chat, chat_content) = frame_read_costs(&[]);
    let image = [
        ("media", AttrValue::str("image")),
        ("color", AttrValue::Bool(false)),
        ("encoding", AttrValue::str("ezw")),
        ("size_kb", AttrValue::Int(4)),
    ];
    let (image, image_content) = frame_read_costs(&image);
    // The frame slot on the buffer, the shared handle, the bytes.
    assert_eq!((chat, image), (3, 3), "allocations per frame read");
    assert_eq!(chat_content, 0, "an empty description is free to read");
    // Built on the first read, not before: a key each, a string value
    // each, and the map's one leaf.
    assert_eq!(
        image_content,
        4 + 2 + 1,
        "allocations to read the description"
    );
}

/// A colour share's cost on the sending side, averaged over `ROUNDS`
/// shares of scenes the session has not seen (each a cold encode),
/// after enough shares to fill the media store and grow every buffer
/// the encoder keeps: the allocations `share_image` makes per frame
/// it sends, and the largest single request any share made.
fn cold_colour_share() -> (f64, usize) {
    let mut s = session_with(SessionConfig {
        seed: 31,
        color_transform: true,
        full_stream_bpp: Some(6.0),
        ..SessionConfig::default()
    });
    for id in 1..CLIENTS {
        s.client_mut(id)
            .viewer
            .set_packet_budget([16, 8, 4, 2][id % 4]);
    }
    let frames = 1 + s.config().packets_per_image as u64;
    // More than the media store's 32 encodes, so its table is full.
    const WARM_SHARES: usize = 40;
    let (mut counted, mut largest) = (0, 0);
    for round in 0..WARM_SHARES + ROUNDS {
        let scene = synthetic_scene(64, 64, 3, 3, 900 + round as u64);
        let before = allocs();
        largest_since();
        s.share_image(0, &scene, IMAGES).expect("image shares");
        let (spent, max) = (allocs() - before, largest_since());
        s.pump(Ticks::from_millis(200));
        for id in 0..CLIENTS {
            s.client_mut(id).viewer.viewed.clear();
        }
        if round >= WARM_SHARES {
            counted += spent;
            largest = largest.max(max);
        }
    }
    assert_eq!(
        s.media_cache_stats().hits(),
        0,
        "every share is a cold encode"
    );
    (counted as f64 / (ROUNDS as u64 * frames) as f64, largest)
}

#[test]
fn a_cold_colour_share_allocates_its_frames_and_no_plane() {
    let (per_frame, largest) = cold_colour_share();
    // No buffer a frame — each reuses one a receiver gave back — and
    // a handful per share.
    assert!(
        per_frame <= 1.2,
        "{per_frame:.3} allocations per frame sent"
    );
    let plane = 64 * 64 * std::mem::size_of::<i32>();
    assert!(
        largest < plane,
        "a {largest}-byte request: the encoder has a {plane}-byte plane of its own"
    );
}

/// A colour session's first share of one scene, then `WARM_ROUNDS`
/// re-shares and `ROUNDS` counted ones of it — `shaped_lastmile`'s
/// path: every re-share finds the container in the media store and
/// runs no encode. Returns the allocations `share_image` makes per
/// frame it sends and the largest single request a counted share made,
/// and asserts that each re-share is one media-store hit.
fn warm_colour_reshare() -> (f64, usize) {
    let mut s = session_with(SessionConfig {
        seed: 31,
        color_transform: true,
        full_stream_bpp: Some(6.0),
        ..SessionConfig::default()
    });
    for id in 1..CLIENTS {
        s.client_mut(id)
            .viewer
            .set_packet_budget([16, 8, 4, 2][id % 4]);
    }
    let frames = 1 + s.config().packets_per_image as u64;
    let scene = synthetic_scene(64, 64, 3, 3, 900);
    let media = s.media_cache_stats();
    let (mut counted, mut largest) = (0, 0);
    for round in 0..=WARM_ROUNDS + ROUNDS {
        let hits = media.hits();
        let before = allocs();
        largest_since();
        s.share_image(0, &scene, IMAGES).expect("image shares");
        let (spent, max) = (allocs() - before, largest_since());
        assert_eq!(media.hits(), hits + u64::from(round > 0), "share {round}");
        s.pump(Ticks::from_millis(200));
        for id in 0..CLIENTS {
            s.client_mut(id).viewer.viewed.clear();
        }
        if round > WARM_ROUNDS {
            counted += spent;
            largest = largest.max(max);
        }
    }
    assert_eq!(media.misses(), 1, "one encode in all");
    (counted as f64 / (ROUNDS as u64 * frames) as f64, largest)
}

#[test]
fn a_warm_reshare_allocates_its_frames_and_no_container() {
    let (per_frame, largest) = warm_colour_reshare();
    // Within the cold share's bound: a hit adds nothing to it.
    assert!(
        per_frame <= 1.2,
        "{per_frame:.3} allocations per frame sent"
    );
    // Nothing the size of a plane, nor of the 6-bpp container the
    // store already holds.
    let (plane, container) = (64 * 64 * std::mem::size_of::<i32>(), 64 * 64 * 6 / 8);
    assert!(
        largest < container && container < plane,
        "a {largest}-byte request on a re-share that encodes nothing"
    );
}

/// Allocations `pump` makes over `ROUNDS` rounds of four chat lines
/// the gateway relays to each of `thin` wireless clients, after
/// `WARM_ROUNDS` rounds; and the downlink deliveries counted.
fn relay_allocs(thin: usize) -> (usize, u64) {
    let (mut s, ids) = Scenario {
        cfg: SessionConfig {
            seed: 31,
            ..SessionConfig::default()
        },
        clients: vec![Client::passive("publisher", &["chat"])],
    }
    .build();
    let publisher = ids[0];
    s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
        .expect("gateway attaches");
    for i in 0..thin {
        s.wireless_join(&format!("thin-{i}"), 10.0, 1_000.0)
            .expect("thin client joins");
    }
    let (mut counted, mut delivered) = (0, 0);
    for round in 0..WARM_ROUNDS + ROUNDS {
        for k in 0..4 {
            s.share_chat(publisher, &format!("line {round}.{k}"), CHAT)
                .expect("chat publishes");
        }
        let before = allocs();
        s.pump(Ticks::from_millis(100));
        let spent = allocs() - before;
        let bs = s.base_station.as_mut().expect("attached");
        let relayed = bs.downlink_log.len() as u64;
        assert_eq!(
            relayed,
            4 * thin as u64,
            "every thin client hears each line"
        );
        bs.downlink_log.clear();
        if round >= WARM_ROUNDS {
            counted += spent;
            delivered += relayed;
        }
    }
    (counted, delivered)
}

#[test]
fn a_gateway_relay_allocates_nothing_per_downlink_delivery() {
    // The same traffic reaches the gateway either way; only the
    // deliveries it records differ.
    let (one, one_delivered) = relay_allocs(1);
    let (many, many_delivered) = relay_allocs(12);
    let per = many.saturating_sub(one) as f64 / (many_delivered - one_delivered) as f64;
    assert!(per <= 0.05, "{per:.3} allocations per downlink delivery");
}
