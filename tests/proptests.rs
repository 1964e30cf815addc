//! Property-based tests over the core data structures and invariants:
//! wire codecs round-trip, the embedded stream is prefix-decodable with
//! monotone quality, the image viewer accounts for every arrival, the
//! replicated state machinery converges under permutation, and the
//! broker overlay's covering relation is sound.

use collabqos::broker::{covers_expr, merge_covering};
use collabqos::core::apps::{ImageViewer, MediaStore};
use collabqos::core::concurrency::LwwRegister;
use collabqos::core::events::{AppEvent, EventView};
use collabqos::core::state_repo::{ObjectState, StateRepository};
use collabqos::dtn::{Bundle, Frame};
use collabqos::media::ezw::{self, BitReader, BitWriter};
use collabqos::media::image::Image;
use collabqos::media::packetize::{reassemble_prefix, split_packets, MediaPacket, PacketView};
use collabqos::media::psnr;
use collabqos::media::wavelet::{self, WaveletKind};
use collabqos::sempubsub::ast::{CmpOp, Expr};
use collabqos::sempubsub::bus::BusStats;
use collabqos::sempubsub::{AttrValue, Selector, SemanticMessage, WireMessage};
use collabqos::simnet::qdisc::{
    Qdisc, QdiscConfig, Shaper, TokenBucket, TrafficClass, CLASS_COUNT,
};
use collabqos::simnet::rtp::ReceiverReport;
use collabqos::simnet::{NetStats, Ticks};
use collabqos::snmp::ber::{Reader, Writer};
use collabqos::snmp::{Message, Oid, Pdu, PduKind, SnmpValue, VarBind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

// ------------------------------------------------------------ strategies

fn arb_oid() -> impl Strategy<Value = Oid> {
    (
        0u32..=2,
        0u32..40,
        proptest::collection::vec(any::<u32>(), 0..8),
    )
        .prop_map(|(first, second, rest)| {
            let mut arcs = vec![first, second];
            arcs.extend(rest);
            Oid::new(&arcs)
        })
}

fn arb_snmp_value() -> impl Strategy<Value = SnmpValue> {
    prop_oneof![
        any::<i64>().prop_map(SnmpValue::Integer),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(SnmpValue::OctetString),
        Just(SnmpValue::Null),
        arb_oid().prop_map(SnmpValue::Oid),
        any::<[u8; 4]>().prop_map(SnmpValue::IpAddress),
        any::<u32>().prop_map(SnmpValue::Counter32),
        any::<u32>().prop_map(SnmpValue::Gauge32),
        any::<u32>().prop_map(SnmpValue::TimeTicks),
    ]
}

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        (-1e12f64..1e12).prop_map(AttrValue::Float),
        "[a-z0-9 ]{0,12}".prop_map(AttrValue::Str),
        any::<bool>().prop_map(AttrValue::Bool),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(AttrValue::List)
    })
}

fn arb_literal() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-1000i64..1000).prop_map(AttrValue::Int),
        (-1000.0f64..1000.0).prop_map(|f| AttrValue::Float((f * 100.0).round() / 100.0)),
        "[a-z]{0,6}".prop_map(AttrValue::Str),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let cmp_op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::In),
        Just(CmpOp::Contains),
    ];
    let leaf = prop_oneof![
        ("[a-z][a-z0-9_]{0,5}", cmp_op, arb_literal()).prop_map(|(attr, op, lit)| {
            Expr::Cmp(op, Box::new(Expr::Attr(attr)), Box::new(Expr::Literal(lit)))
        }),
        "[a-z][a-z0-9_]{0,5}".prop_map(Expr::Exists),
        any::<bool>().prop_map(|b| Expr::Literal(AttrValue::Bool(b))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// Selector expressions over a deliberately tiny alphabet (3 attribute
/// names, literals in a narrow range) so randomly drawn pairs actually
/// relate: coverings hold, maps hit selectors, merges collapse.
fn arb_cover_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("x".to_string()),
        Just("y".to_string()),
        Just("flag".to_string())
    ]
}

fn arb_cover_expr() -> impl Strategy<Value = Expr> {
    let lit = prop_oneof![
        (-4i64..=4).prop_map(AttrValue::Int),
        any::<bool>().prop_map(AttrValue::Bool),
        "[ab]".prop_map(AttrValue::Str),
    ];
    let cmp_op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let leaf = prop_oneof![
        (arb_cover_name(), cmp_op, lit).prop_map(|(n, op, l)| {
            Expr::Cmp(op, Box::new(Expr::Attr(n)), Box::new(Expr::Literal(l)))
        }),
        arb_cover_name().prop_map(Expr::Exists),
        arb_cover_name().prop_map(Expr::Attr),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn arb_cover_attrs() -> impl Strategy<Value = BTreeMap<String, AttrValue>> {
    proptest::collection::btree_map(
        arb_cover_name(),
        prop_oneof![
            (-5i64..=5).prop_map(AttrValue::Int),
            any::<bool>().prop_map(AttrValue::Bool),
            "[ab]".prop_map(AttrValue::Str),
        ],
        0..4,
    )
}

/// A profile is "accepted" by a selector when evaluation returns
/// `Ok(true)` — type errors reject, exactly as the bus endpoint does.
fn accepts(e: &Expr, attrs: &BTreeMap<String, AttrValue>) -> bool {
    collabqos::sempubsub::eval::eval_bool(e, attrs).unwrap_or(false)
}

// ------------------------------------------------------ allocation guard

/// Records, per thread, the largest single allocation asked for — so a
/// decoder fed hostile bytes can be held to "never sizes anything from
/// an unchecked header", not just "returns `Err`" (the 22-byte
/// container of `ezw_header_bomb_is_refused_before_allocating` used to
/// ask for 17 GB before failing) — and how many allocations were made,
/// so a hot path can be held to "allocates nothing per message" as a
/// count rather than a time — and how many bytes they asked for in
/// all, so "the same cost whatever the session size" can be exact.
struct PeakAlloc;

thread_local! {
    static PEAK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static COUNT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static BYTES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn note_alloc(size: usize) {
    PEAK.with(|p| p.set(p.get().max(size)));
    COUNT.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + size));
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is three `Cell` stores in const-initialised thread-local
// storage, which neither allocate nor unwind.
unsafe impl std::alloc::GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc(layout.size());
        std::alloc::System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc(layout.size());
        std::alloc::System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The largest single allocation `f` asks for on this thread.
fn peak_alloc_of(f: impl FnOnce()) -> usize {
    PEAK.with(|p| p.set(0));
    f();
    PEAK.with(|p| p.get())
}

/// How many allocations (reallocations included) `f` makes on this
/// thread.
fn allocs_of(f: impl FnOnce()) -> usize {
    allocs_and_bytes_of(f).0
}

/// Allocations (reallocations included) `f` makes on this thread, and
/// the bytes they ask for.
fn allocs_and_bytes_of(f: impl FnOnce()) -> (usize, usize) {
    let before = (COUNT.with(|c| c.get()), BYTES.with(|b| b.get()));
    f();
    (
        COUNT.with(|c| c.get()) - before.0,
        BYTES.with(|b| b.get()) - before.1,
    )
}

/// What the decoder's plane cap (2^22 samples) lets one allocation
/// reach: a plane of `i32` coefficients, or the scan table beside it.
const MAX_DECODE_ALLOC: usize = 4 << 22;

/// Drive every container entry point over `bytes`; none may panic or
/// size an allocation past the plane cap.
fn exercise_container(
    bytes: &[u8],
    drop_levels: usize,
    budget: usize,
) -> Result<(), TestCaseError> {
    let peak = peak_alloc_of(|| {
        let _ = ezw::container_dimensions(bytes);
        let _ = ezw::decode_image(bytes);
        let _ = ezw::decode_image_reduced(bytes, drop_levels);
        if let Ok(cut) = ezw::truncate_container(bytes, budget) {
            let _ = ezw::decode_image(&cut);
        }
    });
    prop_assert!(peak <= MAX_DECODE_ALLOC, "one allocation of {} bytes", peak);
    Ok(())
}

/// The header-driven allocation bomb: a 22-byte container — `EZC1`,
/// one channel, CDF 5/3, a 12-byte plane stream declaring 65534 x
/// 65534 samples at one level, two bytes of bit data — made
/// `decode_image` ask for three 17 GB vectors. It is refused from the
/// header alone.
#[test]
fn ezw_header_bomb_is_refused_before_allocating() {
    let mut bomb = b"EZC1\x01\x01".to_vec();
    bomb.extend_from_slice(&12u32.to_be_bytes());
    bomb.extend_from_slice(b"EZP1\xFF\xFE\xFF\xFE\x01\x07\xFF\xFF");
    assert_eq!(bomb.len(), 22);
    let peak = peak_alloc_of(|| {
        assert!(ezw::decode_image(&bomb).is_err());
        assert!(ezw::decode_image_reduced(&bomb, 1).is_err());
        assert!(ezw::container_dimensions(&bomb).is_err());
        assert!(ezw::EzwDecoder::decode_plane(&bomb[10..]).is_err());
    });
    assert!(peak < 4096, "refusing took an allocation of {peak} bytes");
    // The largest plane the cap admits still decodes.
    bomb[14..18].copy_from_slice(&[0x08, 0x00, 0x08, 0x00]);
    let peak = peak_alloc_of(|| {
        let img = ezw::decode_image(&bomb).expect("2048x2048 is inside the cap");
        assert_eq!((img.width, img.height), (2048, 2048));
    });
    assert!(peak <= MAX_DECODE_ALLOC, "one allocation of {peak} bytes");
}

/// What the receivers of one shared object pay for, pinned as counts:
/// once a scratch has read the longest prefix, the view of a shorter
/// one allocates the image it returns and nothing else — no
/// coefficient planes, no significance list, no lists of channel
/// streams. (Reading a stream may still grow the scratch's lists to
/// that stream's size.)
#[test]
fn a_replayed_view_allocates_only_the_image_it_returns() {
    let cap = Some(64 * 64 * 6 / 8);
    let containers: Vec<Vec<u8>> = [91u64, 92]
        .into_iter()
        .map(|seed| {
            let scene = collabqos::media::image::synthetic_scene(64, 64, 3, 4, seed);
            ezw::encode_image_capped(&scene.image, 4, WaveletKind::Cdf53, true, cap).unwrap()
        })
        .collect();
    let mut scratch = ezw::CodecScratch::new();
    for container in &containers {
        let packets = split_packets(container, 16);
        // Read symbols once, then replay.
        for k in [16usize, 8, 2] {
            let prefix = reassemble_prefix(&packets[..k]).unwrap();
            for drop_levels in [0usize, 1] {
                // The stream last read is a prefix of itself.
                let replayed = k < 16 || drop_levels > 0;
                let before = scratch.replays();
                let mut view = None;
                let (allocs, bytes) = allocs_and_bytes_of(|| {
                    view = ezw::decode_image_reduced_with(&prefix, drop_levels, &mut scratch).ok();
                });
                let view = view.expect("prefix decodes");
                if replayed {
                    assert_eq!(
                        (allocs, bytes),
                        (1, view.byte_len()),
                        "{k} packets, drop {drop_levels}"
                    );
                }
                assert_eq!(scratch.replays() - before, replayed as u64);
            }
        }
    }
}

/// A chat frame under `selector`, as `event_storm` publishes them.
fn chat_frame(selector: &str, seq: u64) -> Vec<u8> {
    SemanticMessage {
        sender: "publisher".to_string(),
        kind: "chat".to_string(),
        selector: selector.to_string(),
        seq,
        content: BTreeMap::new(),
        body: b"a line of chat".to_vec(),
    }
    .encode()
}

/// The property the session's throughput rests on, pinned as a count:
/// once a buffer has been resolved to its shared frame, an endpoint
/// that rejects it allocates nothing, and one that accepts it shares
/// the frame's message — the only allocation left is the amortised
/// growth of the returned `Vec`. (Byte-level reception reads every
/// copy afresh: two allocations per chat, the copy of its bytes and the
/// handle it is shared through, before anything is decided.)
#[test]
fn interpreting_shared_frames_allocates_nothing_per_reception() {
    use collabqos::sempubsub::{BusEndpoint, Frame, Profile, SelectorStore};
    use collabqos::simnet::{LinkSpec, Network, Port};

    const FRAMES: usize = 1_000;
    let mut net = Network::new(1);
    let (_sw, hosts) = net.lan(&["a", "b"], LinkSpec::lan());
    let group = net.new_group();
    let store = SelectorStore::with_capacity(64);
    let mut join = |host, topic: &str| {
        let mut p = Profile::new(topic);
        p.set("topics", AttrValue::List(vec![AttrValue::str(topic)]));
        BusEndpoint::join_with_store(&mut net, host, Port(5004), group, p, store.clone()).unwrap()
    };
    let mut rejects = join(hosts[0], "t9");
    let mut accepts = join(hosts[1], "t1");
    let frames: Vec<Frame> = (0..FRAMES)
        .map(|i| {
            let selector = format!("topics contains 't1' or topics contains 't{}'", 2 + i % 7);
            Frame::resolve(&chat_frame(&selector, i as u64), &store)
        })
        .collect();

    // Warm-up: evaluation stacks reach their high-water mark.
    assert!(rejects.interpret_frames(&frames).is_empty());
    assert_eq!(accepts.interpret_frames(&frames).len(), FRAMES);

    let at_rejecter = allocs_of(|| {
        assert!(rejects.interpret_frames(&frames).is_empty());
    });
    assert_eq!(at_rejecter, 0, "{FRAMES} rejected receptions");
    let mut delivered = Vec::new();
    let at_accepter = allocs_of(|| delivered = accepts.interpret_frames(&frames));
    assert_eq!(delivered.len(), FRAMES);
    // Doubling from the first push to 1 024 slots.
    assert!(
        at_accepter <= FRAMES.ilog2() as usize + 2,
        "{at_accepter} allocations for {FRAMES} accepted receptions"
    );
    assert_eq!(rejects.stats().rejected, 2 * FRAMES as u64);
    assert_eq!(accepts.stats().accepted, 2 * FRAMES as u64);

    // The standalone face pays the private read, and only that.
    let payloads: Vec<Vec<u8>> = (0..FRAMES)
        .map(|i| chat_frame("topics contains 't1'", i as u64))
        .collect();
    let standalone = allocs_of(|| {
        assert!(rejects.interpret_batch(payloads).is_empty());
    });
    assert!(
        (2 * FRAMES..=2 * FRAMES + FRAMES / 20).contains(&standalone),
        "{standalone} allocations for {FRAMES} byte-level receptions"
    );
}

/// A profile snapshot is sized by the profile, not by the interner it
/// is taken against: with one grow-only interner per session, a stream
/// minting fresh attribute names must not inflate every client's
/// snapshot.
#[test]
fn profile_snapshot_is_sized_by_the_profile_not_the_interner() {
    use collabqos::sempubsub::intern::Interner;
    use collabqos::sempubsub::{CompiledProfile, Profile};

    let mut p = Profile::new("client");
    p.set("media", AttrValue::str("video"));
    p.set("size", AttrValue::Int(4));
    p.set("topics", AttrValue::List(vec![AttrValue::str("t1")]));
    let mut interner = Interner::new();
    let measure = |interner: &mut Interner| {
        let mut snap = None;
        let peak = peak_alloc_of(|| snap = Some(CompiledProfile::snapshot(&p, interner)));
        let count = allocs_of(|| snap = Some(CompiledProfile::snapshot(&p, interner)));
        (peak, count)
    };
    // Once to intern the profile's own names, then the baseline.
    measure(&mut interner);
    let before = measure(&mut interner);
    for i in 0..10_000 {
        interner.intern(&format!("foreign-{i}"));
    }
    let after = measure(&mut interner);
    assert!(
        after.0 <= before.0 && after.1 <= before.1,
        "snapshot grew with the interner: (largest allocation, allocations) {before:?} -> {after:?}"
    );
}

/// A container the header checks mostly let through, so the decoders
/// behind them see arbitrary bit data under arbitrary (small, huge,
/// mismatched, zero) geometry, level counts, top planes and channel
/// lengths. Wrong magics are left to the raw and mutated inputs.
fn arb_container_bytes() -> impl Strategy<Value = Vec<u8>> {
    /// `Some` in about one draw of twelve: a field that departs from
    /// its plausible value only now and then, so that most containers
    /// get past most checks.
    fn rarely<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
        (0u32..12, s).prop_map(|(k, v)| (k == 0).then_some(v))
    }
    fn arb_dim() -> impl Strategy<Value = u16> {
        (0usize..7, rarely(any::<u16>()))
            .prop_map(|(i, wild)| wild.unwrap_or([8u16, 16, 24, 32, 48, 64, 2048][i]))
    }
    let plane = (
        // This plane's own geometry, where it departs from the rest.
        rarely((arb_dim(), arb_dim())),
        (
            prop_oneof![0u8..14, 0u8..14, 24u8..32, Just(0xFF)],
            rarely(any::<u8>()),
        )
            .prop_map(|(top, wild)| wild.unwrap_or(top)),
        proptest::collection::vec(any::<u8>(), 0..48),
        // Its length field, where that lies.
        rarely(any::<u32>()),
    );
    (
        (prop_oneof![Just(1u8), Just(3)], rarely(any::<u8>())),
        (0usize..4, rarely(any::<u8>())),
        (arb_dim(), arb_dim()),
        (1u8..4, rarely(any::<u8>())),
        proptest::collection::vec(plane, 3..4),
    )
        .prop_map(|(channels, kind, dims, levels, planes)| {
            let mut out = b"EZC1".to_vec();
            out.push(channels.1.unwrap_or(channels.0));
            out.push(kind.1.unwrap_or([0u8, 1, 0x80, 0x81][kind.0]));
            for (own_dims, top, body, len) in planes {
                let (w, h) = own_dims.unwrap_or(dims);
                let len = len.unwrap_or(10 + body.len() as u32);
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(b"EZP1");
                out.extend_from_slice(&w.to_be_bytes());
                out.extend_from_slice(&h.to_be_bytes());
                out.extend_from_slice(&[levels.1.unwrap_or(levels.0), top]);
                out.extend_from_slice(&body);
            }
            out
        })
}

/// A small valid container, colour-transformed or grayscale.
fn small_container(seed: u64, color: bool) -> Vec<u8> {
    let scene =
        collabqos::media::image::synthetic_scene(16, 16, if color { 3 } else { 1 }, 2, seed);
    ezw::encode_image_opts(&scene.image, 2, WaveletKind::Cdf53, color).unwrap()
}

/// Every [`AppEvent`] variant, with short non-ASCII text.
fn arb_app_event() -> impl Strategy<Value = AppEvent> {
    let text = || "[a-zA-Z0-9é ]{0,12}";
    prop_oneof![
        (text(), text()).prop_map(|(author, text)| AppEvent::Chat { author, text }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((any::<i16>(), any::<i16>()), 0..8),
            any::<u8>(),
        )
            .prop_map(|(object_id, lamport, points, color)| {
                AppEvent::WhiteboardStroke {
                    object_id,
                    lamport,
                    points,
                    color,
                }
            }),
        (
            any::<u64>(),
            text(),
            any::<u64>(),
            any::<u64>(),
            any::<u16>()
        )
            .prop_map(
                |(object_id, caption, original_bytes, pixels, total_packets)| AppEvent::ImageMeta {
                    object_id,
                    caption,
                    original_bytes,
                    pixels,
                    total_packets,
                }
            ),
        (
            any::<u64>(),
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..24),
        )
            .prop_map(|(object_id, index, total, full_len, payload)| {
                AppEvent::ImagePacket {
                    object_id,
                    packet: MediaPacket {
                        index,
                        total,
                        full_len,
                        payload,
                    },
                }
            }),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            text()
        )
            .prop_map(|(object_id, data, caption)| AppEvent::SketchShare {
                object_id,
                data,
                caption,
            }),
        (any::<u64>(), text(), any::<u64>(), any::<u8>()).prop_map(
            |(object_id, client, lamport, op)| AppEvent::Lock {
                object_id,
                client,
                lamport,
                op,
            }
        ),
    ]
}

/// What the event view reads in place over `bytes` is canonical: the
/// owned event it copies out encodes back to exactly `bytes`. An image
/// packet's payload is the tail of the body, which is where a viewer
/// holding the delivered message finds it.
fn check_event_bytes(bytes: &[u8]) -> Result<(), TestCaseError> {
    let view = EventView::parse(bytes);
    if let Some(ev) = view.map(EventView::to_event) {
        prop_assert_eq!(ev.encode(), bytes.to_vec(), "accepted bytes are canonical");
    }
    if let Some(EventView::ImagePacket { packet, .. }) = view {
        prop_assert!(bytes.ends_with(packet.payload));
        prop_assert_eq!(
            bytes.len() - packet.payload.len(),
            21,
            "tag, object id, packet header"
        );
    }
    Ok(())
}

// ------------------------------------------- one hostile-input harness

/// A custody frame as its encoder writes it.
fn encode_frame(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Bundle(b) => b.encode(),
        Frame::Accept { source, seq } => Frame::encode_accept(source, *seq),
        Frame::Refuse { source, seq } => Frame::encode_refuse(source, *seq),
    }
}

/// The custody decoder fed a valid frame `valid`, every cut of it, it
/// with a byte after it, it with `flips` applied, and arbitrary
/// `noise`, bare and behind `prefix` (the frame's magic or signal
/// bytes): nothing panics; `valid` is accepted; every strict cut and
/// the trailing byte are refused; and whatever is accepted encodes to
/// bytes that decode to an equal value.
fn check_hostile(
    valid: &[u8],
    prefix: &[u8],
    noise: &[u8],
    flips: &[(u16, u8)],
) -> Result<(), TestCaseError> {
    prop_assert!(Frame::decode(valid).is_some(), "{:?} refused", valid);
    for cut in 0..valid.len() {
        prop_assert!(
            Frame::decode(&valid[..cut]).is_none(),
            "cut at {} accepted",
            cut
        );
    }
    prop_assert!(
        Frame::decode(&[valid, &[0]].concat()).is_none(),
        "trailing byte accepted"
    );
    hostile_variants(valid, prefix, noise, flips).try_for_each(|bytes| {
        if let Some(frame) = Frame::decode(&bytes) {
            prop_assert_eq!(Frame::decode(&encode_frame(&frame)), Some(frame));
        }
        Ok(())
    })
}

/// The inputs [`check_hostile`] feeds the decoder besides `valid`: every
/// cut of it, it with a trailing byte, it with `flips` applied, and
/// `noise`, bare and behind `prefix`.
fn hostile_variants<'a>(
    valid: &'a [u8],
    prefix: &'a [u8],
    noise: &'a [u8],
    flips: &[(u16, u8)],
) -> impl Iterator<Item = Vec<u8>> + 'a {
    let mut flipped = valid.to_vec();
    for &(pos, val) in flips {
        flipped[pos as usize % valid.len()] ^= val;
    }
    (0..valid.len()).map(|cut| valid[..cut].to_vec()).chain([
        [valid, &[0]].concat(),
        flipped,
        noise.to_vec(),
        [prefix, noise].concat(),
    ])
}

/// Packets in [`viewer_share`]'s object.
const VIEWER_PACKETS: usize = 16;

/// One object as a session shares it: an encoded 32×32 scene, and its
/// announcement then its [`VIEWER_PACKETS`] packets, each in a message
/// of its own as a viewer is handed it.
fn viewer_share() -> (Vec<u8>, Vec<Arc<WireMessage>>) {
    let image = collabqos::media::image::synthetic_scene(32, 32, 1, 3, 7).image;
    let container = ezw::encode_image(&image, 3, WaveletKind::Cdf53).unwrap();
    let meta = AppEvent::ImageMeta {
        object_id: 1,
        caption: String::new(),
        original_bytes: image.byte_len() as u64,
        pixels: image.pixels() as u64,
        total_packets: VIEWER_PACKETS as u16,
    };
    let packets = split_packets(&container, VIEWER_PACKETS)
        .into_iter()
        .map(|packet| AppEvent::ImagePacket {
            object_id: 1,
            packet,
        });
    let messages = std::iter::once(meta)
        .chain(packets)
        .map(|ev| {
            let wire = SemanticMessage {
                sender: String::new(),
                kind: ev.kind().to_string(),
                selector: String::new(),
                seq: 0,
                content: BTreeMap::new(),
                body: ev.encode(),
            }
            .encode();
            Arc::new(WireMessage::decode(&wire).unwrap())
        })
        .collect();
    (container, messages)
}

fn arb_bundle() -> impl Strategy<Value = Bundle> {
    (
        (
            prop_oneof![Just(""), Just("alice"), Just("é")],
            any::<u64>(),
        ),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(
            |((source, seq), (src_domain, dst_domain, created, lifetime), custody, payload)| {
                Bundle {
                    source: source.to_string(),
                    seq,
                    src_domain,
                    dst_domain,
                    created_at: Ticks::from_micros(created),
                    lifetime: Ticks::from_micros(lifetime),
                    custody,
                    payload,
                }
            },
        )
}

// ------------------------------------------------ SEM1 hostile input

/// The `SEM1` decoder as it stood before received messages were held as
/// their wire bytes, frozen here as the reference the reader is held
/// to: it accepts exactly these frames, with these fields, and refuses
/// the rest for the same reason.
mod sem1_reference {
    use collabqos::sempubsub::{AttrValue, SemError, SemanticMessage};
    use std::collections::BTreeMap;

    const MAX_DEPTH: usize = 64;

    pub fn decode(buf: &[u8]) -> Result<SemanticMessage, SemError> {
        let mut c = Cursor { buf, pos: 0 };
        if c.take(4)? != b"SEM1" {
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

        fn value(&mut self, depth: usize) -> Result<AttrValue, SemError> {
            if depth > MAX_DEPTH {
                return Err(SemError::Codec("value nested too deep"));
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
}

/// A 231-byte frame whose content value is 64 nested list headers,
/// each claiming 65 535 items: the frozen decoder reserved room for
/// 1 024 items at every level before finding the frame too deep, 32 KiB
/// a level and 2 MiB held at once. The reader checks the whole frame
/// before it builds anything, and bounds a list's reservation by the
/// bytes left besides, so the frame is refused without one allocation.
#[test]
fn a_hostile_list_header_reserves_nothing_before_it_is_refused() {
    let mut msg = SemanticMessage {
        sender: "evil".to_string(),
        kind: "x".to_string(),
        selector: "true".to_string(),
        seq: 0,
        content: [("l".to_string(), AttrValue::List(vec![]))].into(),
        body: vec![],
    };
    let mut bomb = msg.encode();
    let at = bomb.len() - 4 - 3;
    bomb.splice(at..at, [4, 0xFF, 0xFF].repeat(64));
    assert_eq!(bomb.len(), 231);
    let mut refused = None;
    let peak = peak_alloc_of(|| refused = Some(WireMessage::decode(&bomb)));
    assert_eq!(
        refused.expect("ran"),
        Err(collabqos::sempubsub::SemError::Codec(
            "value nested too deep"
        ))
    );
    assert_eq!(peak, 0, "a refused frame allocates nothing");
    let frozen = peak_alloc_of(|| {
        let _ = sem1_reference::decode(&bomb);
    });
    assert!(frozen >= 1024 * 32, "the frozen decoder asked for {frozen}");

    // A valid list the content build reads: reserved for what it holds.
    msg.content.insert(
        "l".to_string(),
        AttrValue::List(vec![AttrValue::Bool(true); 100]),
    );
    let wire = msg.encode();
    let m = WireMessage::decode(&wire).unwrap();
    let peak = peak_alloc_of(|| assert_eq!(m.content(), &msg.content));
    assert!(peak <= 100 * 32, "a {peak}-byte request for 100 items");
}

fn arb_semantic_message() -> impl Strategy<Value = SemanticMessage> {
    (
        "[a-z]{0,8}",
        prop_oneof![Just("chat"), Just("image-packet"), Just("é")],
        "[a-z' ]{0,12}",
        any::<u64>(),
        proptest::collection::btree_map("[a-z]{1,6}", arb_attr_value(), 0..6),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(
            |(sender, kind, selector, seq, content, body)| SemanticMessage {
                sender,
                kind: kind.to_string(),
                selector,
                seq,
                content,
                body,
            },
        )
}

/// Read `bytes` as a received message: never a panic; accepted and
/// refused exactly as the frozen decoder does, for the same reason; a
/// refused frame costs no allocation and an accepted one the copy of
/// its bytes, no larger; and every field read in place — the content
/// description built on demand included — is the frozen decoder's.
/// Values are compared encoded, so a NaN a mutation made compares by
/// its bits.
fn check_sem1_bytes(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut read = None;
    let peak = peak_alloc_of(|| read = Some(WireMessage::decode(bytes)));
    let read = read.expect("ran");
    let reference = sem1_reference::decode(bytes);
    match (&read, &reference) {
        (Err(got), Err(want)) => {
            prop_assert_eq!(got, want);
            prop_assert_eq!(peak, 0, "a refused frame allocates nothing");
        }
        (Ok(m), Ok(r)) => {
            prop_assert!(peak <= bytes.len(), "a {}-byte request", peak);
            let fields = allocs_of(|| {
                assert_eq!(m.sender(), r.sender);
                assert_eq!(m.kind(), r.kind);
                assert_eq!(m.selector(), r.selector);
                assert_eq!(m.seq(), r.seq);
                assert_eq!(m.body(), &r.body[..]);
            });
            prop_assert_eq!(fields, 0, "fields are read in place");
            prop_assert_eq!(m.to_message().encode(), r.encode());
        }
        _ => prop_assert!(
            false,
            "reader {:?}, frozen decoder {:?}",
            read.as_ref().map(|_| ()),
            reference.as_ref().map(|_| ())
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ----------------------------------------------- broker covering

    /// Soundness of the covering oracle on arbitrary selector pairs:
    /// whenever `covers(a, b)` claims subsumption, every attribute map
    /// `b` accepts must also be accepted by `a`. (The checker may
    /// decline true subsumptions — it is incomplete — but it must
    /// never affirm a false one: that is what makes suppression safe.)
    #[test]
    fn covers_is_sound_on_arbitrary_pairs(
        a in arb_cover_expr(),
        b in arb_cover_expr(),
        maps in proptest::collection::vec(arb_cover_attrs(), 1..6),
    ) {
        if covers_expr(&a, &b) {
            for attrs in &maps {
                if accepts(&b, attrs) {
                    prop_assert!(
                        accepts(&a, attrs),
                        "covers claimed ({}) covers ({}) but map {:?} separates them",
                        a, b, attrs
                    );
                }
            }
        }
    }

    /// Conjunctive strengthening `b = a AND extra` is the canonical
    /// covering the merge relies on; the checker must both certify it
    /// (for atomic `a`) and stay sound on the maps.
    #[test]
    fn covers_certifies_conjunctive_strengthening(
        a in arb_cover_expr(),
        extra in arb_cover_expr(),
        maps in proptest::collection::vec(arb_cover_attrs(), 1..6),
    ) {
        let b = Expr::And(Box::new(a.clone()), Box::new(extra));
        if covers_expr(&a, &b) {
            for attrs in &maps {
                if accepts(&b, attrs) {
                    prop_assert!(accepts(&a, attrs), "({}) vs ({}) on {:?}", a, b, attrs);
                }
            }
        } else {
            // Incompleteness is only tolerated for disjunctive `a`
            // (the error-semantics guard); everything simpler must be
            // certified.
            prop_assert!(
                matches!(a, Expr::Or(..)),
                "checker must certify ({}) covers ({})", a, b
            );
        }
    }

    /// Covering is reflexive for every expression.
    #[test]
    fn covers_is_reflexive(e in arb_cover_expr()) {
        prop_assert!(covers_expr(&e, &e), "({e}) must cover itself");
    }

    /// Interval chains make covering transitivity (and its strictness)
    /// concrete: `x > lo` covers `x > lo+d1` covers `x > lo+d1+d2`,
    /// and never the other way around.
    #[test]
    fn covers_is_transitive_on_interval_chains(
        lo in -100i64..100,
        d1 in 1i64..50,
        d2 in 1i64..50,
    ) {
        let sel = |t: i64| Selector::parse(&format!("x > {t}")).unwrap();
        let (a, b, c) = (sel(lo), sel(lo + d1), sel(lo + d1 + d2));
        prop_assert!(collabqos::broker::covers(&a, &b));
        prop_assert!(collabqos::broker::covers(&b, &c));
        prop_assert!(collabqos::broker::covers(&a, &c), "transitivity");
        prop_assert!(!collabqos::broker::covers(&b, &a), "strictly one-way");
        prop_assert!(!collabqos::broker::covers(&c, &a), "strictly one-way");
    }

    /// Covering-based merge is union-exact: the kept subset accepts
    /// precisely the maps the original set accepted, and the counter
    /// accounts for every dropped selector.
    #[test]
    fn merge_covering_preserves_the_union(
        exprs in proptest::collection::vec(arb_cover_expr(), 1..6),
        maps in proptest::collection::vec(arb_cover_attrs(), 1..8),
    ) {
        let originals: Vec<Selector> = exprs
            .iter()
            .map(|e| Selector::parse(&e.to_string()).expect("printed form reparses"))
            .collect();
        let (kept, merged) = merge_covering(originals.clone());
        prop_assert_eq!(kept.len() as u64 + merged, originals.len() as u64);
        prop_assert!(!kept.is_empty());
        for attrs in &maps {
            let before = originals.iter().any(|s| s.matches(attrs).unwrap_or(false));
            let after = kept.iter().any(|s| s.matches(attrs).unwrap_or(false));
            prop_assert_eq!(
                before, after,
                "merge changed the union on {:?}: kept {:?}",
                attrs,
                kept.iter().map(|s| s.source().to_string()).collect::<Vec<_>>()
            );
        }
    }

    /// Printing an expression and reparsing it yields semantically
    /// identical evaluation on arbitrary attribute maps — the selector
    /// language's Display form is a faithful wire representation.
    #[test]
    fn selector_display_reparse_equivalence(
        expr in arb_expr(),
        attrs in proptest::collection::btree_map("[a-z][a-z0-9_]{0,5}", arb_attr_value(), 0..5),
    ) {
        let printed = expr.to_string();
        let reparsed = Selector::parse(&printed)
            .unwrap_or_else(|e| panic!("printed form must reparse: '{printed}': {e}"));
        let lhs = collabqos::sempubsub::eval::eval_bool(&expr, &attrs);
        let rhs = reparsed.matches(&attrs);
        match (lhs, rhs) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "mismatch on '{}'", printed),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent results on '{}': {:?} vs {:?}", printed, a, b),
        }
    }

    // ------------------------------------------------------------- BER

    #[test]
    fn ber_integer_round_trips(v in any::<i64>()) {
        let mut w = Writer::new();
        w.integer(v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.integer().unwrap(), v);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn ber_oid_round_trips(oid in arb_oid()) {
        let mut w = Writer::new();
        w.oid(&oid);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.oid().unwrap(), oid);
    }

    #[test]
    fn snmp_message_round_trips(
        community in "[a-z]{1,12}",
        request_id in any::<i32>(),
        binds in proptest::collection::vec((arb_oid(), arb_snmp_value()), 0..6),
    ) {
        let msg = Message::new(
            &community,
            Pdu {
                kind: PduKind::Response,
                request_id,
                error_status: collabqos::snmp::ErrorStatus::NoError,
                error_index: 0,
                bulk: None,
                varbinds: binds
                    .into_iter()
                    .map(|(o, v)| VarBind::bound(o, v))
                    .collect(),
            },
        );
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn snmp_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::decode(&bytes); // must not panic
    }

    // ------------------------------------------------------- sempubsub

    #[test]
    fn semantic_message_round_trips(
        sender in "[a-z]{0,8}",
        seq in any::<u64>(),
        keys in proptest::collection::btree_map("[a-z]{1,6}", arb_attr_value(), 0..6),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let msg = SemanticMessage {
            sender,
            kind: "k".to_string(),
            selector: "true".to_string(),
            seq,
            content: keys,
            body,
        };
        let back = SemanticMessage::decode(&msg.encode()).unwrap();
        // Float NaN-free by construction, so PartialEq is reliable here.
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn selector_eval_never_panics(
        text in "[a-z0-9<>=!()' ]{0,40}",
        attrs in proptest::collection::btree_map("[a-z]{1,4}", arb_attr_value(), 0..4),
    ) {
        if let Ok(sel) = Selector::parse(&text) {
            let _ = sel.matches(&attrs); // Result either way, no panic
        }
    }

    #[test]
    fn numeric_comparison_selectors_are_sound(threshold in -1000i64..1000, value in -1000i64..1000) {
        let sel = Selector::parse(&format!("x >= {threshold}")).unwrap();
        let mut attrs = BTreeMap::new();
        attrs.insert("x".to_string(), AttrValue::Int(value));
        prop_assert_eq!(sel.matches(&attrs).unwrap(), value >= threshold);
    }

    // ------------------------------------------------------------ media

    #[test]
    fn wavelet_perfect_reconstruction(
        seed in any::<u64>(),
        kind in prop_oneof![Just(WaveletKind::Haar), Just(WaveletKind::Cdf53)],
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (w, h) = (16usize, 16usize);
        let original: Vec<i32> = (0..w * h).map(|_| rng.random_range(-512..512)).collect();
        let mut data = original.clone();
        let levels = wavelet::max_levels(w, h);
        wavelet::forward_2d(&mut data, w, h, levels, kind);
        wavelet::inverse_2d(&mut data, w, h, levels, kind);
        prop_assert_eq!(data, original);
    }

    #[test]
    fn ezw_any_prefix_decodes(seed in any::<u64>(), cut_permille in 0u32..=1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut img = Image::new(32, 32, 1);
        for v in img.data.iter_mut() {
            *v = rng.random();
        }
        let container = ezw::encode_image(&img, 3, WaveletKind::Cdf53).unwrap();
        let budget = (container.len() as u64 * cut_permille as u64 / 1000) as usize;
        let cut = ezw::truncate_container(&container, budget).unwrap();
        let decoded = ezw::decode_image(&cut).unwrap();
        prop_assert_eq!(decoded.width, 32);
        prop_assert_eq!(decoded.height, 32);
        if cut_permille == 1000 {
            prop_assert_eq!(decoded.data, img.data);
        }
    }

    /// The EZW decoder must never panic on corrupted input — a hostile
    /// or damaged stream yields `Err` or a garbage-but-valid image.
    #[test]
    fn ezw_decoder_survives_corruption(
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let scene = collabqos::media::image::synthetic_scene(32, 32, 1, 2, seed);
        let mut container = ezw::encode_image(&scene.image, 3, WaveletKind::Cdf53).unwrap();
        for (pos, val) in flips {
            let i = pos as usize % container.len();
            container[i] ^= val;
        }
        let _ = ezw::decode_image(&container); // must not panic
    }

    /// Truncating a container at any byte must not panic the decoder.
    #[test]
    fn ezw_decoder_survives_raw_truncation(seed in any::<u64>(), cut in any::<u16>()) {
        let scene = collabqos::media::image::synthetic_scene(32, 32, 1, 2, seed);
        let container = ezw::encode_image(&scene.image, 3, WaveletKind::Cdf53).unwrap();
        let cut = cut as usize % (container.len() + 1);
        let _ = ezw::decode_image(&container[..cut]); // must not panic
    }

    /// Media packet decode must never panic on arbitrary bytes.
    #[test]
    fn media_packet_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = PacketView::parse(&bytes).map(PacketView::to_packet);
    }

    /// AppEvent decode must never panic on arbitrary bytes, and what it
    /// accepts is canonical.
    #[test]
    fn app_event_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check_event_bytes(&bytes)?;
    }

    /// Every event round-trips through the view; every strict prefix
    /// of its encoding is refused by both decoders; and the encoding
    /// damaged in a few bytes is read alike by both.
    #[test]
    fn app_event_view_agrees_on_every_cut_and_mutation(
        ev in arb_app_event(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        let mut bytes = ev.encode();
        prop_assert_eq!(EventView::parse(&bytes).map(EventView::to_event), Some(ev));
        for cut in 0..bytes.len() {
            prop_assert!(EventView::parse(&bytes[..cut]).is_none(), "cut at {}", cut);
            check_event_bytes(&bytes[..cut])?;
        }
        for (pos, val) in flips {
            let i = pos as usize % bytes.len();
            bytes[i] ^= val;
        }
        check_event_bytes(&bytes)?;
    }

    /// Arbitrary bytes, bare and behind the `SEM1` magic, are read as
    /// the frozen decoder reads them ([`check_sem1_bytes`]).
    #[test]
    fn semantic_message_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check_sem1_bytes(&bytes)?;
        check_sem1_bytes(&[b"SEM1".as_slice(), &bytes].concat())?;
    }

    /// A valid frame reads back as the message encoded, field by field;
    /// every cut of it, the frame with bytes after it, and every frame
    /// one byte away from it are read as the frozen decoder reads them.
    #[test]
    fn semantic_message_reader_agrees_on_every_cut_and_mutation(
        msg in arb_semantic_message(),
        tail in proptest::collection::vec(any::<u8>(), 1..4),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..16),
    ) {
        let bytes = msg.encode();
        let m = WireMessage::decode(&bytes).unwrap();
        prop_assert_eq!(
            (m.sender(), m.kind(), m.selector(), m.seq(), m.body()),
            (&msg.sender[..], &msg.kind[..], &msg.selector[..], msg.seq, &msg.body[..])
        );
        prop_assert_eq!(m.content(), &msg.content);
        check_sem1_bytes(&bytes)?;
        for cut in 0..bytes.len() {
            check_sem1_bytes(&bytes[..cut])?;
        }
        check_sem1_bytes(&[&bytes[..], &tail].concat())?;
        for (pos, val) in flips {
            let mut flipped = bytes.clone();
            flipped[pos as usize % bytes.len()] ^= val;
            check_sem1_bytes(&flipped)?;
        }
    }

    #[test]
    fn packet_prefix_quality_monotone(seed in any::<u64>()) {
        let scene = collabqos::media::image::synthetic_scene(32, 32, 1, 2, seed);
        let container = ezw::encode_image(&scene.image, 3, WaveletKind::Cdf53).unwrap();
        let packets = split_packets(&container, 8);
        let mut prev = -1.0f64;
        for k in 1..=8usize {
            let c = reassemble_prefix(&packets[..k]).unwrap();
            let img = ezw::decode_image(&c).unwrap();
            let q = psnr(&scene.image, &img);
            prop_assert!(q >= prev - 1.0, "k={} gave {} after {}", k, q, prev);
            prev = q;
        }
        prop_assert!(prev.is_infinite());
    }

    #[test]
    fn bit_io_round_trips(bits in proptest::collection::vec(any::<bool>(), 0..256)) {
        let mut w = BitWriter::new();
        for &b in &bits {
            w.push(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &bits {
            prop_assert_eq!(r.next(), Some(b));
        }
    }

    // ------------------------------------------------------------- viewer

    /// Any arrival order of one share's announcement and packets,
    /// copies included, CE-marked or not: the viewer decodes the whole
    /// stream once every packet and the announcement are in, and its
    /// report accounts for every arrival — each packet is received once
    /// or counted a duplicate, a gap below the highest packet received
    /// is lost until it fills, and the CE fraction is the marked share
    /// of the arrivals.
    #[test]
    fn a_viewers_report_accounts_for_any_arrival_order(
        order in proptest::collection::vec((0usize..=VIEWER_PACKETS, any::<bool>()), 0..96),
    ) {
        let (container, events) = viewer_share();
        let mut viewer = ImageViewer::new(VIEWER_PACKETS as u32);
        let mut store = MediaStore::new();
        let mut held = [false; VIEWER_PACKETS];
        let (mut meta, mut done, mut packets, mut marked) = (false, false, 0, 0);
        for &(i, ce) in &order {
            let m = &events[i];
            let view = viewer.apply_delivered(&EventView::parse(m.body()).unwrap(), m, ce, &mut store);
            marked += u64::from(ce);
            if i == 0 {
                meta = true;
            } else {
                packets += 1;
                held[i - 1] |= !done;
            }
            let complete = meta && held.iter().all(|&h| h);
            prop_assert_eq!(view.is_some(), complete && !done);
            if let Some(view) = view {
                prop_assert!(*view.image == ezw::decode_image(&container).unwrap());
                done = true;
            }
        }
        let received = held.iter().filter(|&&h| h).count() as u64;
        let lost = if done {
            0
        } else {
            held.iter().rposition(|&h| h).map_or(0, |top| top as u64 + 1 - received)
        };
        let rep = viewer.report();
        prop_assert_eq!((rep.received, rep.lost), (received, lost));
        prop_assert_eq!(rep.received + rep.duplicates, packets);
        prop_assert_eq!(
            rep,
            ReceiverReport::from_counts(received, lost, rep.duplicates, order.len() as u64, marked)
        );
    }

    /// Custody bundles and signals under hostile input
    /// ([`check_hostile`]).
    #[test]
    fn wire_frames_survive_hostile_input(
        bundle in arb_bundle(),
        accept in any::<bool>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..8),
    ) {
        let signal = if accept { Frame::encode_accept } else { Frame::encode_refuse };
        let signal = signal(&bundle.source, bundle.seq);
        check_hostile(&bundle.encode(), b"DTB1", &noise, &flips)?;
        check_hostile(&signal, &signal[..5], &noise, &flips)?;
    }

    // ----------------------------------------------------------- qdisc

    /// Token-bucket conformance: whatever the arrival pattern, the
    /// bytes admitted by time `t` never exceed `rate·t + burst`. The
    /// bucket's bit-µs carry arithmetic makes the bound exact, with no
    /// rounding slack.
    #[test]
    fn token_bucket_never_exceeds_rate_t_plus_burst(
        rate_bps in 8_000u64..10_000_000,
        burst_bytes in 1_500u64..10_000,
        steps in proptest::collection::vec((0u64..5_000, 40u32..=1_500), 1..200),
    ) {
        let mut tb = TokenBucket::new(Shaper { rate_bps, burst_bytes });
        let mut now = 0u64;
        let mut sent_bits: u128 = 0;
        for (dt, bytes) in steps {
            now += dt;
            if tb.conforms(now, bytes) {
                tb.consume(now, bytes);
                sent_bits += bytes as u128 * 8;
            }
            // rate·t (in whole bits) + burst. Packets never exceed the
            // burst here, so no oversize-clamp borrowing applies.
            let bound = rate_bps as u128 * now as u128 / 1_000_000
                + burst_bytes as u128 * 8;
            prop_assert!(
                sent_bits <= bound,
                "sent {sent_bits} bits by t={now}us, bound {bound} (rate {rate_bps} bps, burst {burst_bytes} B)"
            );
        }
    }

    /// DRR fairness: with every class continuously backlogged on
    /// arbitrary per-class packet sizes, long-run per-class throughput
    /// tracks the configured quanta to within one quantum plus one
    /// packet — the classic DRR service bound.
    #[test]
    fn drr_throughput_tracks_quanta(
        size_tuple in (100u32..=1_500, 100u32..=1_500, 100u32..=1_500, 100u32..=1_500),
    ) {
        let sizes = [size_tuple.0, size_tuple.1, size_tuple.2, size_tuple.3];
        let mut cfg = QdiscConfig::for_rate(1_000_000);
        cfg.link_shaper = None;              // pure scheduling
        cfg.codel_target_us = u64::MAX / 2;  // inert AQM
        for c in cfg.classes.iter_mut() {
            c.queue_cap_pkts = usize::MAX;   // never tail-drop
        }
        let total_quanta: u64 = cfg.classes.iter().map(|c| c.quantum as u64).sum();
        let target_total: u64 = 50 * total_quanta; // ~50 DRR rounds
        let mut q: Qdisc<u32> = Qdisc::new(cfg);
        // Keep every class deeply backlogged for the whole run.
        for (ci, &sz) in sizes.iter().enumerate() {
            let need = (2 * target_total / sz as u64 + 2) as usize;
            for n in 0..need {
                q.enqueue(0, TrafficClass::ALL[ci], sz, false, n as u32);
            }
        }
        let mut served = [0u64; CLASS_COUNT];
        while served.iter().sum::<u64>() < target_total {
            let rel = q.dequeue(0).released.expect("all classes backlogged");
            served[rel.class.index()] += rel.bytes as u64;
        }
        let total: u64 = served.iter().sum();
        for (ci, &s) in served.iter().enumerate() {
            let quantum = q.config().classes[ci].quantum as u64;
            let expected = total as f64 * quantum as f64 / total_quanta as f64;
            let slack = (quantum + sizes[ci] as u64) as f64;
            prop_assert!(
                (s as f64 - expected).abs() <= slack,
                "class {ci} (pkt {} B): served {s} B of {total} B, expected ~{expected:.0} ± {slack} [{}]",
                sizes[ci],
                q.config().summary()
            );
        }
    }

    // ----------------------------------------------------- convergence

    #[test]
    fn lww_register_order_insensitive(
        mut writes in proptest::collection::vec((any::<u64>(), "[a-z]{1,4}", any::<u8>()), 1..12),
    ) {
        let mut r1 = LwwRegister::default();
        for (l, c, v) in &writes {
            r1.write(*l, c, *v);
        }
        writes.reverse();
        let mut r2 = LwwRegister::default();
        for (l, c, v) in &writes {
            r2.write(*l, c, *v);
        }
        prop_assert_eq!(r1.current, r2.current);
    }

    #[test]
    fn state_repo_converges_under_permutation(
        updates in proptest::collection::vec(
            (0u64..4, any::<u64>(), "[a-z]{1,3}", proptest::collection::vec(any::<u8>(), 0..8)),
            1..16,
        ),
        swap_seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut repo1 = StateRepository::new();
        for (id, l, c, data) in &updates {
            repo1.update(*id, *l, c, ObjectState { kind: "t".into(), data: data.clone() });
        }
        let mut shuffled = updates.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(swap_seed);
        shuffled.shuffle(&mut rng);
        let mut repo2 = StateRepository::new();
        for (id, l, c, data) in &shuffled {
            repo2.update(*id, *l, c, ObjectState { kind: "t".into(), data: data.clone() });
        }
        prop_assert_eq!(repo1.snapshot(), repo2.snapshot());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ROADMAP robustness item, EZW containers: whatever the bytes,
    /// every entry point answers `Ok` or `Err` — no panic, and nothing
    /// allocated on the say-so of an unchecked header.
    #[test]
    fn ezw_entry_points_survive_arbitrary_bytes(
        shaped in arb_container_bytes(),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        drop_levels in 0usize..4,
        budget in 0usize..256,
    ) {
        exercise_container(&shaped, drop_levels, budget)?;
        exercise_container(&raw, drop_levels, budget)?;
    }

    /// The same for valid containers damaged in a few bytes, and cut
    /// at *every* offset — mid-magic, mid-length, mid-plane-header —
    /// before being handed to `truncate_container` and the decoders.
    #[test]
    fn ezw_entry_points_survive_mutation_and_every_cut(
        seed in 0u64..4,
        color in any::<bool>(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
        drop_levels in 0usize..4,
        budget in 0usize..700,
    ) {
        let mut container = small_container(seed, color);
        for (pos, val) in flips {
            let i = pos as usize % container.len();
            container[i] ^= val;
        }
        for cut in 0..=container.len() {
            exercise_container(&container[..cut], drop_levels, budget)?;
        }
    }

    /// `reassemble_prefix` over packets whose fields and payloads were
    /// tampered with, or made up outright; what it accepts must still
    /// decode or be refused without panicking.
    #[test]
    fn reassemble_prefix_survives_hostile_packets(
        seed in 0u64..4,
        color in any::<bool>(),
        n in 1usize..6,
        edits in proptest::collection::vec(
            (any::<u8>(), 0u8..5, any::<u16>(), any::<u8>()),
            0..6,
        ),
        made_up in proptest::collection::vec(
            (0u16..4, 0u16..6, any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)),
            0..3,
        ),
    ) {
        let mut packets = split_packets(&small_container(seed, color), n);
        for (which, field, pos, val) in edits {
            let p = &mut packets[which as usize % n];
            match field {
                0 => p.index ^= val as u16,
                1 => p.total ^= val as u16,
                2 => p.full_len ^= val as u32,
                3 if !p.payload.is_empty() => {
                    let i = pos as usize % p.payload.len();
                    p.payload[i] ^= val;
                }
                _ => p.payload.truncate(pos as usize % (p.payload.len() + 1)),
            }
        }
        packets.extend(made_up.into_iter().map(|(index, total, full_len, payload)| MediaPacket {
            index,
            total,
            full_len,
            payload,
        }));
        let peak = peak_alloc_of(|| {
            if let Ok(container) = reassemble_prefix(&packets) {
                let _ = ezw::decode_image(&container);
            }
        });
        prop_assert!(peak <= MAX_DECODE_ALLOC, "one allocation of {} bytes", peak);
    }
}

// ------------------------------------------------- adaptation pass

/// What one `adapt_all` pass allocates per client in a flat session of
/// `clients` adaptive clients, after a warm-up pass has sized every
/// retained buffer. The pass's own result vector (one decision per
/// client, allocated once whatever the size) is counted out of the
/// allocations; its bytes are per client already.
///
/// With `rtp`, each client runs congestion and loss bands and holds a
/// receiver report that fires two of them every pass, as the
/// benchmark's shaped last mile does; without, the paper's CPU-load
/// ladder over an idle host.
fn adapt_pass_cost_per_client(clients: usize, rtp: bool) -> (usize, usize) {
    use collabqos::prelude::*;
    use collabqos::simnet::rtp::ReceiverReport;

    let mut s = CollaborationSession::new(SessionConfig::default());
    for i in 0..clients {
        let name = format!("c{i}");
        let policies = if rtp {
            let mut db = PolicyDb::congestion_policy();
            db.merge(PolicyDb::loss_policy());
            db
        } else {
            PolicyDb::paper_cpu_load_policy()
        };
        let id = s
            .add_adaptive_client(
                Profile::new(&name),
                policies,
                QosContract::default(),
                SimHost::idle(&name),
            )
            .expect("client joins");
        if rtp {
            let report = ReceiverReport {
                fraction_ecn_ce: 0.3,
                fraction_lost: 0.05,
                ..ReceiverReport::default()
            };
            s.ingest_rtp_report(id, &report);
        }
    }
    let warm = s.adapt_all();
    assert_eq!(warm.len(), clients);
    let fired = if rtp { 2 } else { 1 };
    assert!(
        warm.iter().all(|d| d.fired_rules.len() == fired),
        "{:?}",
        warm[0]
    );
    let mut decided = 0;
    let sim0 = s.net.now();
    let (allocs, bytes) = allocs_and_bytes_of(|| decided = s.adapt_all().len());
    assert_eq!(decided, clients);
    // Two 1 ms poll steps per GET, one GET per client.
    let sim_ms = (s.net.now() - sim0).as_millis();
    assert_eq!(sim_ms, 2 * clients as u64, "simulated time a pass");
    let per_client = allocs - 1;
    assert_eq!(per_client % clients, 0, "{allocs} allocations a pass");
    assert_eq!(bytes % clients, 0, "{bytes} bytes a pass");
    (per_client / clients, bytes / clients)
}

/// A client's state sample is answered by the agent on its own node:
/// what an adaptation pass costs a client must not depend on how many
/// other clients (and agents) the session holds. It used to — every
/// sample collected a reference to every agent and serviced them all
/// on every poll step (5 465 bytes a client at 96 clients, 10 841 at
/// 768, 102 allocations at either).
///
/// And it allocates nothing: the GET and its response are written into
/// buffers their readers gave back to the network on the pass before
/// (it was 4 allocations and 329 bytes a client while each was an
/// exact-size buffer plus the shared handle the network carries it
/// in). The state is read in place and decided on without allocating
/// however many bands fire (it was 30 allocations and 2 729 bytes a
/// client with the one CPU band firing, 36 and 2 931 with two
/// RTP-driven bands).
#[test]
fn an_adaptation_pass_costs_each_client_the_same_in_any_session_size() {
    for rtp in [false, true] {
        let small = adapt_pass_cost_per_client(96, rtp);
        let large = adapt_pass_cost_per_client(768, rtp);
        assert_eq!(small, large, "(allocations, bytes) per client per pass");
        assert_eq!(small.0, 0, "allocations per client, rtp: {rtp}");
    }
}

// ------------------------------------------- compiled policy rules

/// The metric vocabulary, by name.
const METRICS: [&str; 9] = [
    "bandwidth_bps",
    "congestion_pct",
    "cpu_load",
    "jitter_us",
    "latency_us",
    "loss_pct",
    "mem_avail_kb",
    "page_faults",
    "sir_db",
];

/// Rule constants at and beside the canonical policies' band edges,
/// with a string a float never equals.
const RULE_CONSTANTS: [&str; 20] = [
    "0", "0.5", "1.0", "2", "5", "10", "12", "15", "20", "30", "44", "57.5", "58", "60", "86",
    "97", "5000", "64000", "-5", "'x'",
];

/// State values at the same edges, beside the pathological ones.
const STATE_VALUES: [f64; 20] = [
    0.0,
    -0.0,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    12.0,
    20.0,
    30.0,
    44.0,
    57.5,
    58.0,
    97.0,
    5000.0,
    64000.0,
    -5.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A deterministic draw from a seed — the rule strategy builds nested
/// selectors, which the proptest shim has no recursive strategy for.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }

    /// A condition over the vocabulary: comparisons, `exists`, boolean
    /// literals and bare metrics (a type error: the rule is skipped),
    /// under `and` / `or` / `not` up to `depth` deep.
    fn condition(&mut self, depth: u32) -> String {
        if depth == 0 || self.below(3) == 0 {
            let m = METRICS[self.below(METRICS.len())];
            return match self.below(10) {
                0 => format!("exists({m})"),
                1 => ["true", "false"][self.below(2)].to_string(),
                2 => m.to_string(),
                _ => {
                    let op = ["<", "<=", ">", ">=", "==", "!="][self.below(6)];
                    let c = RULE_CONSTANTS[self.below(RULE_CONSTANTS.len())];
                    format!("{m} {op} {c}")
                }
            };
        }
        match self.below(3) {
            0 => format!("not ({})", self.condition(depth - 1)),
            1 => format!(
                "({}) and ({})",
                self.condition(depth - 1),
                self.condition(depth - 1)
            ),
            _ => format!(
                "({}) or ({})",
                self.condition(depth - 1),
                self.condition(depth - 1)
            ),
        }
    }

    fn action(&mut self) -> collabqos::core::AdaptationAction {
        use collabqos::core::{AdaptationAction, ModalityChoice};
        match self.below(4) {
            0 => AdaptationAction::LimitPackets(self.below(20) as u32),
            1 => AdaptationAction::CapModality(
                [
                    ModalityChoice::None,
                    ModalityChoice::Text,
                    ModalityChoice::Sketch,
                    ModalityChoice::FullImage,
                ][self.below(4)],
            ),
            2 => AdaptationAction::ScaleResolution(self.below(5) as f64 / 4.0),
            _ => AdaptationAction::Suspend,
        }
    }
}

/// One rule of a drawn database: name, priority, condition, action.
type DrawnRule = (String, i32, String, collabqos::core::AdaptationAction);

fn draw_rules(seed: u64, n: usize) -> Vec<DrawnRule> {
    let mut d = Draw(seed | 1);
    (0..n)
        .map(|i| {
            let priority = d.below(5) as i32 - 2;
            (format!("r{i}"), priority, d.condition(3), d.action())
        })
        .collect()
}

fn arb_vocabulary_state() -> impl Strategy<Value = BTreeMap<String, f64>> {
    let value = prop_oneof![
        (0usize..STATE_VALUES.len()).prop_map(|i| STATE_VALUES[i]),
        (0usize..STATE_VALUES.len()).prop_map(|i| STATE_VALUES[i]),
        -100.0f64..100_000.0,
    ];
    proptest::collection::btree_map(
        (0usize..METRICS.len()).prop_map(|i| METRICS[i].to_string()),
        value,
        0..10,
    )
}

fn arb_vocabulary_contract() -> impl Strategy<Value = collabqos::core::QosContract> {
    use collabqos::core::{Constraint, QosContract};
    proptest::collection::vec((0usize..METRICS.len(), -10.0f64..110.0, 0.0f64..50.0), 0..4)
        .prop_map(|specs| {
            specs.into_iter().enumerate().fold(
                QosContract::new("drawn"),
                |c, (i, (m, lo, width))| {
                    c.with(match i % 3 {
                        0 => Constraint::at_most(METRICS[m], lo + width),
                        1 => Constraint::at_least(METRICS[m], lo),
                        _ => Constraint::between(METRICS[m], lo, lo + width),
                    })
                },
            )
        })
}

/// The threshold engine as it decided before rules were compiled: each
/// condition parsed and tree-walked over the state map, re-keyed as
/// attributes, and the contract checked by name. Its decision prints
/// as the engine's does.
mod tree_walk {
    use collabqos::core::{AdaptationAction, ModalityChoice, QosContract, Violation};
    use collabqos::sempubsub::{eval, AttrValue, Selector};
    use std::collections::BTreeMap;

    // Read only through `Debug`, which dead-code analysis does not count.
    #[allow(dead_code)]
    #[derive(Debug)]
    pub struct AdaptationDecision {
        pub max_packets: u32,
        pub modality: ModalityChoice,
        pub resolution: f64,
        pub fired_rules: Vec<String>,
        pub violations: Vec<Violation>,
    }

    pub fn decide(
        rules: &[super::DrawnRule],
        contract: &QosContract,
        default_packets: u32,
        state: &BTreeMap<String, f64>,
    ) -> AdaptationDecision {
        let attrs: BTreeMap<String, AttrValue> = state
            .iter()
            .map(|(k, v)| (k.clone(), AttrValue::Float(*v)))
            .collect();
        let violations = contract
            .constraints()
            .iter()
            .filter_map(|c| {
                let observed = state.get(&c.param).copied();
                match observed {
                    Some(v) if c.min.is_none_or(|m| v >= m) && c.max.is_none_or(|m| v <= m) => None,
                    _ => Some(Violation {
                        constraint: c.clone(),
                        observed,
                    }),
                }
            })
            .collect();
        let mut d = AdaptationDecision {
            max_packets: default_packets,
            modality: ModalityChoice::FullImage,
            resolution: 1.0,
            fired_rules: Vec::new(),
            violations,
        };
        let mut by_priority: Vec<&super::DrawnRule> = rules.iter().collect();
        by_priority.sort_by_key(|r| r.1);
        for (name, _, condition, action) in by_priority {
            let selector = Selector::parse(condition).expect("drawn conditions parse");
            if !eval::eval_bool(selector.expr(), &attrs).unwrap_or(false) {
                continue;
            }
            d.fired_rules.push(name.clone());
            match action {
                AdaptationAction::LimitPackets(n) => d.max_packets = d.max_packets.min(*n),
                AdaptationAction::CapModality(m) => d.modality = d.modality.min(*m),
                AdaptationAction::ScaleResolution(f) => {
                    d.resolution = d.resolution.min(f.clamp(0.0, 1.0))
                }
                AdaptationAction::Suspend => {
                    d.max_packets = 0;
                    d.modality = ModalityChoice::None;
                }
            }
        }
        if d.max_packets == 0 && d.modality > ModalityChoice::Text {
            d.modality = ModalityChoice::Text;
        }
        d
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Compiled rules over the state vector decide what the tree walk
    /// over the state map decided — same packets, modality, resolution,
    /// fired rules and violations, printed alike — on drawn databases,
    /// contracts and states with missing metrics, NaN, ±inf and band
    /// edges, through both of the trait's entry points, one evaluation
    /// stack kept across states.
    #[test]
    fn compiled_rules_over_the_vector_decide_as_the_tree_walk_over_the_map(
        seed in any::<u64>(),
        n in 0usize..12,
        contract in arb_vocabulary_contract(),
        default_packets in 0u32..=32,
        states in proptest::collection::vec(arb_vocabulary_state(), 1..4),
    ) {
        use collabqos::core::{AdaptationPolicy, InferenceEngine, PolicyDb, StateVector};
        use collabqos::sempubsub::EvalStack;

        let rules = draw_rules(seed, n);
        let mut db = PolicyDb::new();
        for (name, priority, condition, action) in &rules {
            db.add_rule(name, *priority, condition, action.clone()).expect("vocabulary rule");
        }
        let mut engine = InferenceEngine::new(db, contract.clone());
        engine.default_packets = default_packets;
        let mut stack = EvalStack::default();
        for state in &states {
            let want = format!("{:?}", tree_walk::decide(&rules, &contract, default_packets, state));
            let by_map = format!("{:?}", engine.decide(state));
            let by_vector = format!(
                "{:?}",
                engine.decide_state(&StateVector::from_map(state), &mut stack)
            );
            prop_assert_eq!(&by_map, &want, "rules {:?}\n state {:?}", rules, state);
            prop_assert_eq!(&by_vector, &want, "rules {:?}\n state {:?}", rules, state);
        }
    }

    /// The fuzzy and Bayesian engines read the vector as the map it
    /// replaces: both entry points decide alike, and the rules they
    /// record are what the per-metric memberships and bins say of the
    /// map, metric by metric.
    #[test]
    fn measured_engines_read_the_vector_as_the_map(state in arb_vocabulary_state()) {
        use collabqos::core::{AdaptationPolicy, BayesEngine, FuzzyEngine, QosContract, StateVector};
        use collabqos::sempubsub::EvalStack;

        let vector = StateVector::from_map(&state);
        let mut stack = EvalStack::default();
        let fuzzy = FuzzyEngine::new(QosContract::default());
        let bayes = BayesEngine::new(QosContract::default());
        let engines: [&dyn AdaptationPolicy; 2] = [&fuzzy, &bayes];
        for engine in engines {
            prop_assert_eq!(
                format!("{:?}", engine.decide(&state)),
                format!("{:?}", engine.decide_state(&vector, &mut stack)),
                "{} on {:?}", engine.name(), state
            );
        }

        let mut want = Vec::new();
        for (metric, value) in &state {
            if let Some(grades) = FuzzyEngine::memberships(metric, *value) {
                for (grade, set) in grades.iter().zip(["calm", "strained", "critical"]) {
                    if *grade > 0.0 {
                        want.push(format!("fuzzy:{metric}:{set}"));
                    }
                }
            }
        }
        let got = fuzzy.decide_state(&vector, &mut stack);
        prop_assert_eq!(format!("{:?}", got.fired_rules), format!("{:?}", want));

        let mut want = Vec::new();
        for metric in ["loss_pct", "congestion_pct", "cpu_load", "page_faults", "sir_db"] {
            if let Some(bin) = state.get(metric).and_then(|v| BayesEngine::bin(metric, *v)) {
                want.push(format!("bayes:{metric}:{}", ["clear", "mild", "heavy", "severe"][bin]));
            }
        }
        let evidence: Vec<(&str, f64)> = state.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        if let Some(posterior) = BayesEngine::posterior(&evidence) {
            let map = BayesEngine::map_quality(&posterior);
            want.push(format!("bayes:map:{}", ["excellent", "fair", "poor", "unusable"][map]));
        }
        let got = bayes.decide_state(&vector, &mut stack);
        prop_assert_eq!(format!("{:?}", got.fired_rules), format!("{:?}", want));
    }
}

/// A condition naming anything but a metric is refused when the rule
/// is added, and the database is left as it was.
#[test]
fn a_rule_over_a_stranger_is_refused_at_add_rule() {
    use collabqos::core::{AdaptationAction, PolicyDb};
    let mut db = PolicyDb::new();
    for condition in [
        "mystery > 1",
        "cpu_load > 1 and exists(mystery)",
        "not media",
    ] {
        assert!(
            db.add_rule("r", 0, condition, AdaptationAction::Suspend)
                .is_err(),
            "{condition}"
        );
    }
    assert!(db.is_empty());
    db.add_rule(
        "r",
        0,
        "cpu_load > 1 and exists(sir_db)",
        AdaptationAction::Suspend,
    )
    .expect("metrics only");
    assert_eq!(db.len(), 1);
}

// ------------------------------------------- SNMP read in place

/// A host agent answering `public` — every reader below consults two
/// of these, one per path, so neither sees the other's side effects.
fn host_agent() -> collabqos::snmp::SnmpAgent {
    let mut agent = collabqos::snmp::SnmpAgent::new("h", "public", None);
    collabqos::sysmon::install_host_agent(
        &collabqos::sysmon::SimHost::idle("h").shared(),
        &mut agent,
    );
    agent
}

/// Read `bytes` every way there is, and hold the ways to each other:
/// the in-place view accepts exactly what `Message::decode` accepts,
/// refuses the rest with decode's error, reads the same header and
/// varbinds, and the agent's in-place answer to a GET is the owned
/// decode-answer-encode's byte for byte. Neither reader sizes an
/// allocation from an unchecked header: the view's largest is a
/// decoded OID value, the owned decode's its varbind vector.
fn check_snmp_readers(bytes: &[u8]) -> Result<(), TestCaseError> {
    use collabqos::snmp::MessageView;

    let mut owned = None;
    let peak = peak_alloc_of(|| owned = Some(Message::decode(bytes)));
    prop_assert!(
        peak <= 16 * bytes.len() + 256,
        "decode: one allocation of {} bytes",
        peak
    );
    let owned = owned.expect("decoded above");
    let view_peak = peak_alloc_of(|| {
        if let Ok(view) = MessageView::parse(bytes) {
            for vb in view.varbinds() {
                std::hint::black_box(vb.ok());
            }
        }
    });
    prop_assert!(
        view_peak <= 4 * bytes.len() + 64,
        "view: one allocation of {} bytes",
        view_peak
    );

    match (MessageView::parse(bytes), &owned) {
        (Ok(view), Ok(msg)) => {
            // Read the varbinds as a view known whole reads them: names
            // unchecked the second time.
            let view = view.whole().expect("decode read every varbind");
            prop_assert_eq!(view.community, msg.community.as_str());
            prop_assert_eq!(view.kind, msg.pdu.kind);
            prop_assert_eq!(view.request_id, msg.pdu.request_id);
            prop_assert_eq!(view.error_status, msg.pdu.error_status);
            prop_assert_eq!(view.error_index, msg.pdu.error_index);
            prop_assert_eq!(view.bulk, msg.pdu.bulk);
            prop_assert_eq!(view.varbinds().count(), msg.pdu.varbinds.len());
            for (vb, want) in view.varbinds().zip(&msg.pdu.varbinds) {
                let vb = vb.expect("whole");
                prop_assert!(vb.name.is(&want.name), "{:?} vs {:?}", vb.name, want.name);
                prop_assert_eq!(&vb.value, &want.value);
            }
        }
        (Ok(view), Err(e)) => {
            prop_assert!(view.whole().is_none());
            let refused = view.varbinds().find_map(Result::err);
            prop_assert_eq!(refused.as_ref(), Some(e));
        }
        (Err(e), Err(want)) => prop_assert_eq!(&e, want),
        (Err(e), Ok(_)) => prop_assert!(false, "view refused what decode read: {:?}", e),
    }

    let mut response = Vec::new();
    let answer = host_agent().handle(bytes, &mut response).map(|()| response);
    let mut reference = host_agent();
    match owned {
        Ok(msg) if msg.community == "public" && msg.pdu.kind == PduKind::GetRequest => {
            let binds = msg
                .pdu
                .varbinds
                .iter()
                .map(|vb| {
                    let value = reference.mib_mut().get(&vb.name);
                    VarBind::bound(vb.name.clone(), value.unwrap_or(SnmpValue::NoSuchObject))
                })
                .collect();
            let want = Message::new(&msg.community, msg.pdu.response(binds)).encode();
            prop_assert_eq!(answer, Some(want));
        }
        Ok(msg) if msg.community == "public" => {} // answered from owned values
        _ => prop_assert_eq!(answer, None),
    }
    Ok(())
}

/// A GET for host metrics, unknown variables and arbitrary names, under
/// the agent's community or another.
fn arb_get_request() -> impl Strategy<Value = Vec<u8>> {
    let name = prop_oneof![
        Just(collabqos::snmp::oid::arcs::host_cpu_load()),
        Just(collabqos::snmp::oid::arcs::host_page_faults()),
        Just(collabqos::snmp::oid::arcs::host_mem_avail()),
        Just(collabqos::snmp::oid::arcs::sys_descr()),
        arb_oid(),
    ];
    (
        any::<i32>(),
        any::<bool>(),
        proptest::collection::vec(name, 0..5),
    )
        .prop_map(|(id, ours, names)| {
            let community = if ours { "public" } else { "privat" };
            Message::new(community, Pdu::request(PduKind::GetRequest, id, names)).encode()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn snmp_readers_agree_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        check_snmp_readers(&bytes)?;
    }

    #[test]
    fn snmp_readers_agree_on_every_cut_of_a_get(request in arb_get_request()) {
        for cut in 0..=request.len() {
            check_snmp_readers(&request[..cut])?;
        }
    }

    #[test]
    fn snmp_readers_agree_on_mutated_gets(
        request in arb_get_request(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = request;
        for (at, flip) in edits {
            let at = at as usize % bytes.len();
            bytes[at] ^= flip;
        }
        check_snmp_readers(&bytes)?;
    }
}

// ------------------------------------------- advertisement protocol

/// `subsumes` sits inside the delta flood's membership check, called
/// once per entry of a neighbor's export set per join: between two ads
/// without an interest it must compare what is there, not parse `true`
/// twice to have something to compare.
#[test]
fn subsumes_between_interestless_ads_allocates_nothing() {
    use collabqos::broker::Advertisement;
    use collabqos::sempubsub::Profile;

    let ad = |name: &str, topic: &str| {
        let mut p = Profile::new(name);
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str(topic)]),
        );
        Advertisement::from_profile(&p, 0)
    };
    let (a, b, c) = (ad("a", "t1"), ad("b", "t1"), ad("c", "t2"));
    let mut narrow = ad("n", "t1");
    narrow.interest = Some(Selector::parse("size > 3").unwrap());
    let mut outcomes = Vec::with_capacity(4);
    let allocs = allocs_of(|| {
        outcomes.push(a.subsumes(&b));
        outcomes.push(a.subsumes(&c));
        outcomes.push(a.subsumes(&narrow));
        outcomes.push(narrow.subsumes(&a));
    });
    assert_eq!(outcomes, [true, false, true, false]);
    assert_eq!(allocs, 0, "four comparisons");
}

/// One step of an advertisement-protocol scenario. Registering a name
/// a domain already holds is a re-registration (changed interest or
/// attributes); registering it elsewhere moves the client; a name can
/// turn from wildcard to profile and back.
#[derive(Clone, Debug)]
enum AdOp {
    Register {
        client: usize,
        domain: usize,
        attrs: usize,
        interest: usize,
    },
    Wildcard {
        client: usize,
        domain: usize,
    },
}

/// Three registrations to one wildcard.
fn arb_ad_op() -> impl Strategy<Value = AdOp> {
    (0u8..4, 0usize..7, 0usize..3, 0usize..3, 0usize..5).prop_map(
        |(kind, client, domain, attrs, interest)| match kind {
            0 => AdOp::Wildcard { client, domain },
            _ => AdOp::Register {
                client,
                domain,
                attrs,
                interest,
            },
        },
    )
}

/// Three brokers, chained or in a triangle, driven by [`AdOp`]s.
struct AdWorld {
    net: collabqos::simnet::Network,
    ov: collabqos::broker::Overlay,
}

impl AdWorld {
    fn new(triangle: bool) -> AdWorld {
        AdWorld::over(collabqos::broker::Overlay::new(), triangle)
    }

    /// Three brokers added to the empty overlay `ov`.
    fn over(mut ov: collabqos::broker::Overlay, triangle: bool) -> AdWorld {
        use collabqos::simnet::LinkSpec;
        let mut net = collabqos::simnet::Network::new(5);
        for i in 0..3 {
            ov.add_broker(&mut net, &format!("b{i}"));
        }
        ov.connect(&mut net, 0, 1, LinkSpec::lan());
        ov.connect(&mut net, 1, 2, LinkSpec::lan());
        if triangle {
            ov.connect(&mut net, 0, 2, LinkSpec::lan());
        }
        AdWorld { net, ov }
    }

    fn apply(&mut self, op: &AdOp) {
        const ATTRS: [&[&str]; 3] = [&["image"], &["text"], &["image", "text"]];
        const INTERESTS: [Option<&str>; 5] = [
            None,
            Some("encoding == 'jpeg'"),
            Some("size > 2"),
            Some("size > 5"),
            Some("encoding == 'jpeg' and size > 5"),
        ];
        match *op {
            AdOp::Register {
                client,
                domain,
                attrs,
                interest,
            } => {
                let mut p = collabqos::sempubsub::Profile::new(&format!("c{client}"));
                let topics = ATTRS[attrs].iter().map(|t| AttrValue::str(t)).collect();
                p.set("interested_in", AttrValue::List(topics));
                if let Some(sel) = INTERESTS[interest] {
                    p.set_interest(sel).unwrap();
                }
                self.ov.register_local(&mut self.net, domain, &p);
            }
            AdOp::Wildcard { client, domain } => {
                self.ov
                    .register_wildcard(&mut self.net, domain, &format!("c{client}"));
            }
        }
    }

    /// Every table of every broker — local registrations first, then
    /// per neighbor — as (origin, generation, hops) in table order.
    fn tables(&self, generation_of: impl Fn(u64) -> u64) -> Vec<Vec<(String, u64, u8)>> {
        let interfaces = [None, Some(0), Some(1), Some(2)];
        (0..3)
            .flat_map(|i| interfaces.map(|from| (i, from)))
            .map(|(i, from)| {
                self.ov
                    .advertisements(i, from)
                    .iter()
                    .map(|a| (a.origin.clone(), generation_of(a.generation), a.hops))
                    .collect()
            })
            .collect()
    }

    /// What a sync from broker `i` to neighbor `k` would carry now,
    /// rebuilt from the tables alone.
    fn merged_export(&self, i: usize, k: usize) -> Vec<collabqos::broker::Advertisement> {
        use collabqos::broker::{merge_advertisements, MAX_HOPS};
        let mut set = self.ov.advertisements(i, None).to_vec();
        for j in (0..3).filter(|&j| j != k) {
            let learnt = self.ov.advertisements(i, Some(j)).iter();
            set.extend(learnt.filter(|a| a.hops < MAX_HOPS).cloned());
        }
        merge_advertisements(set).0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The delta flood against the protocol's own sync message. The
    /// twin registers everything twice: the second registration is a
    /// replacement, so every change travels as the whole merged export
    /// (and burns a second generation, hence the halving). After every
    /// step both overlays hold the same tables entry for entry, the
    /// step's advertisement crossed exactly the links whose merged
    /// export it is part of, and no neighbor lacks anything a sync
    /// would tell it now.
    #[test]
    fn delta_floods_leave_the_tables_a_full_export_would(
        triangle in any::<bool>(),
        ops in proptest::collection::vec(arb_ad_op(), 1..14),
    ) {
        let mut delta = AdWorld::new(triangle);
        let mut sync = AdWorld::new(triangle);
        for (step, op) in ops.iter().enumerate() {
            delta.apply(op);
            delta.ov.settle(&mut delta.net);
            sync.apply(op);
            sync.apply(op);
            sync.ov.settle(&mut sync.net);
            prop_assert_eq!(
                delta.tables(|g| g),
                sync.tables(|g| g / 2),
                "tables after step {} of {:?}", step, ops
            );

            let (AdOp::Register { client, .. } | AdOp::Wildcard { client, .. }) = *op;
            let origin = format!("c{client}");
            let is_step = |a: &collabqos::broker::Advertisement| {
                a.origin == origin && a.generation == step as u64
            };
            for i in 0..3 {
                for k in (0..3).filter(|&k| k != i && delta.ov.link_between(i, k).is_some()) {
                    let export = delta.merged_export(i, k);
                    let held = delta.ov.advertisements(k, Some(i));
                    prop_assert_eq!(
                        held.iter().any(is_step),
                        export.iter().any(is_step),
                        "step {} of {:?}: sent {} -> {} vs member of the merged export",
                        step, ops, i, k
                    );
                    for ad in &export {
                        let known = held.iter().any(|h| {
                            h.origin == ad.origin
                                && (h.generation, ad.hops + 1) >= (ad.generation, h.hops)
                        });
                        prop_assert!(
                            known,
                            "step {} of {:?}: {} never told {} about {:?}",
                            step, ops, i, k, ad
                        );
                    }
                }
            }
        }
    }
}

// ------------------------------------- overlay on the session's store

/// One datagram multicast into a domain of a [`StoreWorld`].
#[derive(Clone, Debug)]
enum PubOp {
    /// A chat line under the `k`-th selector of [`StoreWorld::SELECTORS`].
    Valid { domain: usize, selector: usize },
    /// A message whose selector does not parse.
    Unparseable { domain: usize },
    /// Bytes that are not a semantic message.
    Malformed { domain: usize, bytes: Vec<u8> },
    /// The previous datagram again, as a fresh buffer (same dedup id).
    Repeat { domain: usize },
}

fn arb_pub_op() -> impl Strategy<Value = PubOp> {
    let bytes = proptest::collection::vec(any::<u8>(), 0..24);
    (0u8..8, 0usize..3, 0usize..5, bytes).prop_map(|(kind, domain, selector, bytes)| match kind {
        0 => PubOp::Unparseable { domain },
        1 => PubOp::Malformed { domain, bytes },
        2 => PubOp::Repeat { domain },
        _ => PubOp::Valid { domain, selector },
    })
}

/// An [`AdWorld`] with a subscriber and a raw injector in every domain
/// (domain 2 also holds a wildcard gateway).
struct StoreWorld {
    world: AdWorld,
    subscribers: Vec<collabqos::sempubsub::BusEndpoint>,
    injectors: Vec<collabqos::simnet::SocketHandle>,
    last: Vec<u8>,
}

impl StoreWorld {
    /// The last is a type error at every profile.
    const SELECTORS: [&str; 5] = [
        "interested_in contains 'image'",
        "interested_in contains 'text'",
        "interested_in contains 'audio'",
        "true",
        "interested_in == 3 and interested_in",
    ];

    /// `store`: the one store brokers and subscribers all compile
    /// through, as in a session; `None`: a private one each.
    fn new(store: Option<&collabqos::sempubsub::SelectorStore>, triangle: bool) -> StoreWorld {
        use collabqos::broker::Overlay;
        use collabqos::sempubsub::{BusEndpoint, Profile};
        use collabqos::simnet::packet::well_known::SESSION_DATA;
        use collabqos::simnet::{LinkSpec, Port};
        let ov = store.map_or_else(Overlay::new, |s| Overlay::with_store(s.clone()));
        let mut world = AdWorld::over(ov, triangle);
        let (mut subscribers, mut injectors) = (Vec::new(), Vec::new());
        for (d, topics) in [&["image"][..], &["text"], &["image", "text"]]
            .into_iter()
            .enumerate()
        {
            let (net, ov) = (&mut world.net, &mut world.ov);
            let host = net.add_node(&format!("host{d}"));
            net.connect(ov.node(d), host, LinkSpec::lan());
            let mut p = Profile::new(&format!("sub{d}"));
            let topics = topics.iter().map(|t| AttrValue::str(t)).collect();
            p.set("interested_in", AttrValue::List(topics));
            ov.register_local(net, d, &p);
            subscribers.push(
                match store {
                    Some(s) => BusEndpoint::join_with_store(
                        net,
                        host,
                        SESSION_DATA,
                        ov.group(d),
                        p,
                        s.clone(),
                    ),
                    None => BusEndpoint::join(net, host, SESSION_DATA, ov.group(d), p),
                }
                .unwrap(),
            );
            injectors.push(net.bind(host, Port(9)).unwrap());
        }
        world.ov.register_wildcard(&mut world.net, 2, "gateway");
        world.ov.settle(&mut world.net);
        StoreWorld {
            world,
            subscribers,
            injectors,
            last: b"nothing yet".to_vec(),
        }
    }

    /// Inject `op` as datagram number `seq`, pump, and report who
    /// accepted what.
    fn apply(&mut self, op: &PubOp, seq: u64) -> Vec<Vec<(String, u64)>> {
        use collabqos::simnet::packet::well_known::SESSION_DATA;
        use collabqos::simnet::Addr;
        let message = |selector: &str| {
            SemanticMessage {
                sender: "injector".to_string(),
                kind: "chat".to_string(),
                selector: selector.to_string(),
                seq,
                content: BTreeMap::new(),
                body: vec![seq as u8],
            }
            .encode()
        };
        let (domain, wire) = match op {
            PubOp::Valid { domain, selector } => (*domain, message(Self::SELECTORS[*selector])),
            PubOp::Unparseable { domain } => (*domain, message("interested_in ==")),
            PubOp::Malformed { domain, bytes } => (*domain, bytes.clone()),
            PubOp::Repeat { domain } => (*domain, self.last.clone()),
        };
        self.last = wire.clone();
        let AdWorld { net, ov } = &mut self.world;
        let group = Addr::multicast(ov.group(domain), SESSION_DATA);
        net.send(self.injectors[domain], group, wire).unwrap();
        ov.pump(net, Ticks::from_millis(40));
        self.subscribers
            .iter_mut()
            .map(|sub| {
                let accepted = sub.poll(net);
                accepted
                    .iter()
                    .map(|d| (d.message.sender().to_owned(), d.message.seq()))
                    .collect()
            })
            .collect()
    }

    /// Every broker's counters, every subscriber's, and the network's.
    fn counters(&self) -> (Vec<[u64; 6]>, Vec<BusStats>, NetStats) {
        let brokers = (0..3)
            .map(|i| {
                let s = self.world.ov.stats(i);
                [
                    s.table_size(),
                    s.forwarded(),
                    s.suppressed(),
                    s.adverts_merged(),
                    s.dedup_dropped(),
                    s.local_suppressed(),
                ]
            })
            .collect();
        let subscribers = self.subscribers.iter().map(|s| s.stats()).collect();
        (brokers, subscribers, self.world.net.stats())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Where the frame comes from cannot be seen in what the overlay
    /// does. An overlay whose brokers and subscribers share one store
    /// (so a buffer is decoded by whoever sees it first and read off
    /// the buffer by the rest) and one built `Overlay::new()` with
    /// standalone subscribers (every party decoding for itself) hand
    /// every datagram — parseable, unparseable, malformed, repeated —
    /// to the same recipients and move the same broker, endpoint and
    /// network counters; the shared store is asked once per message
    /// buffer.
    #[test]
    fn overlay_with_store_routes_as_overlay_new(
        triangle in any::<bool>(),
        ops in proptest::collection::vec(arb_pub_op(), 1..12),
    ) {
        let store = collabqos::sempubsub::SelectorStore::with_capacity(64);
        let mut shared = StoreWorld::new(Some(&store), triangle);
        let mut private = StoreWorld::new(None, triangle);
        let mut buffers = 0;
        for (seq, op) in ops.iter().enumerate() {
            let got = shared.apply(op, seq as u64);
            let want = private.apply(op, seq as u64);
            buffers += u64::from(SemanticMessage::decode(&shared.last).is_ok());
            prop_assert_eq!(got, want, "recipients of step {} of {:?}", seq, ops);
            prop_assert_eq!(
                shared.counters(), private.counters(),
                "counters after step {} of {:?}", seq, ops
            );
        }
        prop_assert_eq!(
            store.stats().hits() + store.stats().misses(), buffers,
            "one lookup per message buffer of {:?}", ops
        );
    }
}

// ------------------------------------------------------ route memo

/// One step of a routing scenario on a random graph.
#[derive(Clone, Debug)]
enum TopoOp {
    Connect(usize, usize),
    SetUp(usize, bool),
    Partition(Vec<usize>),
    Heal,
    Query(usize, usize),
}

/// Half the steps ask for a route, the rest change the graph.
fn arb_topo_op(nodes: usize) -> impl Strategy<Value = TopoOp> {
    let island = proptest::collection::vec(0..nodes, 1..4);
    (0u8..8, 0..nodes, 0..nodes, any::<bool>(), island).prop_map(move |(kind, a, b, up, island)| {
        match kind {
            0 => TopoOp::Connect(a, b),
            1 => TopoOp::SetUp(a * nodes + b, up),
            2 => TopoOp::Partition(island),
            3 => TopoOp::Heal,
            _ => TopoOp::Query(a, b),
        }
    })
}

/// The reference: a plain BFS from `src` over the links that are up,
/// each node's links visited in id order, the path read back from
/// `dst`. `links` is (a, b, up) by link id.
fn reference_route(
    nodes: usize,
    links: &[(usize, usize, bool)],
    src: usize,
    dst: usize,
) -> Option<Vec<u32>> {
    let mut prev: Vec<Option<(usize, u32)>> = vec![None; nodes];
    let mut seen = vec![false; nodes];
    seen[src] = true;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for (id, &(a, b, up)) in links.iter().enumerate() {
            if !up || (a != u && b != u) {
                continue;
            }
            let v = if a == u { b } else { a };
            if !seen[v] {
                seen[v] = true;
                prev[v] = Some((u, id as u32));
                queue.push_back(v);
            }
        }
    }
    if !seen[dst] {
        return None;
    }
    let mut path = Vec::new();
    let mut cur = dst;
    while let Some((p, l)) = prev[cur] {
        path.push(l);
        cur = p;
    }
    path.reverse();
    Some(path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tree memo against a from-scratch BFS per query, on graphs
    /// with cycles, parallel links, leaves, multi-homed nodes and a
    /// long tail (so some routes spill past the inline capacity),
    /// while links go down and up and partitions come and go between
    /// queries. Whatever is asked — unreachable pairs, `src == dst`, a
    /// leaf whose only link is down — the memo answers as the sweep
    /// from `src` would, and `reachable` agrees.
    #[test]
    fn route_memo_equals_a_fresh_bfs_from_the_source(
        ops in proptest::collection::vec(arb_topo_op(14), 1..60),
    ) {
        use collabqos::simnet::topology::Topology;
        use collabqos::simnet::{LinkId, LinkSpec, NodeId};
        const NODES: usize = 14;
        let mut topo = Topology::new();
        for i in 0..NODES {
            topo.add_node(&format!("n{i}"));
        }
        let mut links: Vec<(usize, usize, bool)> = Vec::new();
        let connect = |topo: &mut Topology, links: &mut Vec<_>, a: usize, b: usize| {
            topo.connect(NodeId(a as u32), NodeId(b as u32), LinkSpec::lan());
            links.push((a, b, true));
        };
        // A tail of eight nodes: routes along it outgrow five links.
        for i in 6..NODES - 1 {
            connect(&mut topo, &mut links, i, i + 1);
        }
        // Then every pair once more on the final graph, from a warm memo.
        let all_pairs = (0..NODES).flat_map(|a| (0..NODES).map(move |b| TopoOp::Query(a, b)));
        for op in ops.iter().cloned().chain(all_pairs) {
            match op {
                TopoOp::Connect(a, b) if a != b => connect(&mut topo, &mut links, a, b),
                TopoOp::Connect(..) => {}
                TopoOp::SetUp(l, up) => {
                    let l = l % links.len();
                    topo.set_link_up(LinkId(l as u32), up);
                    links[l].2 = up;
                }
                TopoOp::Partition(island) => {
                    let ids: Vec<NodeId> = island.iter().map(|&n| NodeId(n as u32)).collect();
                    topo.partition(&ids);
                    for link in &mut links {
                        if island.contains(&link.0) != island.contains(&link.1) {
                            link.2 = false;
                        }
                    }
                }
                TopoOp::Heal => {
                    topo.heal();
                    links.iter_mut().for_each(|l| l.2 = true);
                }
                TopoOp::Query(a, b) => {
                    let want = reference_route(NODES, &links, a, b);
                    let (src, dst) = (NodeId(a as u32), NodeId(b as u32));
                    let got = topo
                        .route_cached(src, dst)
                        .map(|r| r.links().iter().map(|l| l.0).collect::<Vec<_>>());
                    prop_assert_eq!(&got, &want, "{} -> {} in {:?}", a, b, ops);
                    prop_assert_eq!(topo.reachable(src, dst), want.is_some());
                }
            }
        }
    }
}

// ------------------------------------------------ image frames on the wire

/// What the frames of one image were before a stripe was framed
/// straight from its container: the metadata event, then
/// `AppEvent::ImagePacket { packet: split_packets(container, n)[i] }`,
/// each body encoded on its own and framed as a `SemanticMessage` with
/// the image's content description, numbered from `first_seq`.
fn composed_image_frames(
    sender: &str,
    selector: &str,
    first_seq: u64,
    object_id: u64,
    scene: &collabqos::prelude::Scene,
    container: &[u8],
    n: usize,
) -> Vec<Vec<u8>> {
    let image = &scene.image;
    let content: BTreeMap<String, AttrValue> = [
        ("media", AttrValue::str("image")),
        ("color", AttrValue::Bool(image.channels == 3)),
        ("encoding", AttrValue::str("ezw")),
        ("size_kb", AttrValue::Int((image.byte_len() / 1024) as i64)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let meta = AppEvent::ImageMeta {
        object_id,
        caption: scene.caption.clone(),
        original_bytes: image.byte_len() as u64,
        pixels: image.pixels() as u64,
        total_packets: n as u16,
    };
    let packets = split_packets(container, n)
        .into_iter()
        .map(|packet| AppEvent::ImagePacket { object_id, packet });
    std::iter::once(meta)
        .chain(packets)
        .zip(first_seq..)
        .map(|(ev, seq)| {
            SemanticMessage {
                sender: sender.to_string(),
                kind: ev.kind().to_string(),
                selector: selector.to_string(),
                seq,
                content: content.clone(),
                body: ev.encode(),
            }
            .encode()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `share_image` and the gateway's uplink put on the wire exactly
    /// the frames the old composition made, byte for byte, whatever the
    /// scene, channel count, packet count, rate cap and selector.
    #[test]
    fn image_frames_are_the_old_composition_byte_for_byte(
        seed in any::<u64>(),
        (channels, color_transform) in (prop_oneof![Just(1usize), Just(3)], any::<bool>()),
        side in prop_oneof![Just(16usize), Just(32), Just(64)],
        packets_per_image in 1usize..=64,
        bpp in prop_oneof![Just(None), (0.25f64..8.0).prop_map(Some)],
        selector in prop_oneof![
            Just("interested_in contains 'image'"),
            Just("true"),
            Just("role == 'viewer' or level > 2"),
        ],
    ) {
        use collabqos::prelude::*;
        let cfg = SessionConfig {
            seed,
            packets_per_image,
            full_stream_bpp: bpp,
            color_transform,
            ..SessionConfig::default()
        };
        let mut s = CollaborationSession::new(cfg.clone());
        let join = |s: &mut CollaborationSession, name: &str| {
            let mut profile = Profile::new(name);
            profile.set("interested_in", AttrValue::List(vec![AttrValue::str("image")]));
            let engine = InferenceEngine::new(PolicyDb::new(), QosContract::default());
            s.add_wired_client(profile, engine, SimHost::idle(name)).unwrap()
        };
        let publisher = join(&mut s, "pub");
        let rx = join(&mut s, "rx");
        s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
            .unwrap();
        let radio = s.wireless_join("thin", 10.0, 1_000.0).unwrap();
        prop_assert_eq!(radio.modality, Modality::FullImage);
        let scene = synthetic_scene(side, side, channels, 2, seed);
        let image = &scene.image;
        let levels = wavelet::max_levels(side, side).min(5);
        // The raw datagrams at a wired client's socket, undecoded. The
        // endpoint lives in the session beside the network it drains,
        // so the network steps out for the call.
        let received = |s: &mut CollaborationSession| {
            s.net.run_for(Ticks::from_secs(2));
            let mut net = std::mem::replace(&mut s.net, Network::new(0));
            let raw = s.client_mut(rx).bus.drain_raw(&mut net);
            s.net = net;
            raw.iter().map(|p| p.to_vec()).collect::<Vec<_>>()
        };

        let object_id = s.share_image(publisher, &scene, selector).unwrap();
        let cap = bpp.map(|bpp| (image.pixels() as f64 * bpp / 8.0) as usize);
        let color = color_transform && channels == 3;
        let container =
            ezw::encode_image_capped(image, levels, cfg.wavelet, color, cap).unwrap();
        let want = composed_image_frames(
            "pub", selector, 0, object_id, &scene, &container, packets_per_image,
        );
        prop_assert_eq!(received(&mut s), want);

        // The uplink: as captured, no colour transform and no cap, one
        // publish per event, from the gateway's endpoint.
        let forwarded = s.wireless_contribute("thin", &scene, selector).unwrap();
        prop_assert_eq!(forwarded, Modality::FullImage);
        let container =
            ezw::encode_image_capped(image, levels, cfg.wavelet, false, None).unwrap();
        let want = composed_image_frames(
            "base-station", selector, 0, object_id + 1, &scene, &container, packets_per_image,
        );
        prop_assert_eq!(received(&mut s), want);
    }
}
