//! Differential suite pinning the optimized media codec to the frozen
//! pre-refactor implementation (`media::reference`).
//!
//! The fast path (reusable wavelet scratch, row-only lifting, one
//! live-set walk for both EZW directions, word-batched bit I/O) is only
//! allowed to be *faster* — the wire format must stay bit-identical.
//! Every property here compares the live coder against the verbatim
//! copy of the old one on arbitrary planes, including truncated
//! prefixes, and a golden fixture pins one full encoded color image so
//! a regression in both paths at once cannot hide behind the
//! differential. On damaged streams, which no encoder wrote, the
//! reference is no oracle: there the live decoder's outcome on every
//! flipped byte of the fixture is pinned as a digest.
//!
//! The receiving side's sharing is pinned here too: a session's
//! `MediaStore` hands every viewer exactly what the plain decoder makes
//! of the viewer's own prefix, decoding each distinct prefix once, and
//! codec scratch kept warm across differently shaped images changes
//! no pixel.
//!
//! Regenerate the fixture (only after an *intentional* format change)
//! with: `REGEN_MEDIA_FIXTURES=1 cargo test --test media_codec`.

use collabqos::core::apps::{ImageViewer, MediaStore};
use collabqos::core::events::{AppEvent, EventView};
use collabqos::core::session::{CollaborationSession, SessionConfig};
use collabqos::media::ezw::{
    self, CodecScratch, EzwDecoder, EzwEncoder, EzwScratch, PlaneAnalysis,
};
use collabqos::media::image::{synthetic_scene, Image, Scene};
use collabqos::media::packetize::{reassemble_prefix, split_packets, MediaPacket};
use collabqos::media::reference;
use collabqos::media::wavelet::{self, WaveletKind, WaveletScratch};
use collabqos::media::MediaError;
use collabqos::sempubsub::{SemanticMessage, WireMessage};
use proptest::prelude::*;
use std::sync::Arc;

const FIXTURE_PATH: &str = "tests/fixtures/ezw_color_64x64.bin";

/// Plane geometry the codec accepts: power-of-two-friendly dims with a
/// valid level count.
fn arb_geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..6, 0usize..6).prop_flat_map(|(wi, hi)| {
        let dims = [8usize, 16, 24, 32, 48, 64];
        let (w, h) = (dims[wi], dims[hi]);
        (Just(w), Just(h), 1usize..=wavelet::max_levels(w, h))
    })
}

/// A raw pixel plane (pre-transform), as `share_image` would see it.
fn arb_pixels() -> impl Strategy<Value = (usize, usize, usize, Vec<i32>)> {
    arb_geometry().prop_flat_map(|(w, h, levels)| {
        (
            Just(w),
            Just(h),
            Just(levels),
            proptest::collection::vec(-128i32..=127, w * h..w * h + 1),
        )
    })
}

/// Arbitrary wavelet-domain coefficients, wider-range than any real
/// transform output to also exercise high bit-planes.
fn arb_coeffs() -> impl Strategy<Value = (usize, usize, usize, Vec<i32>)> {
    arb_geometry().prop_flat_map(|(w, h, levels)| {
        (
            Just(w),
            Just(h),
            Just(levels),
            proptest::collection::vec(-5000i32..=5000, w * h..w * h + 1),
        )
    })
}

/// Even sides from 2 up for the lifting differential: 2-wide and 2-high
/// bands, widths that are no multiple of 4 or 8 at some level (so the
/// vector loops run their remainders) and non-powers of two.
const LIFT_SIDES: [usize; 13] = [2, 4, 6, 8, 10, 12, 20, 24, 36, 40, 48, 72, 96];

/// One shape from [`LIFT_SIDES`] with two planes of it: pixels far from
/// any overflow, and coefficients as a hostile stream could carry them
/// — any `i32`, with the two extremes over-represented.
fn arb_lift_planes() -> impl Strategy<Value = (usize, usize, Vec<i32>, Vec<i32>)> {
    let side = || (0..LIFT_SIDES.len()).prop_map(|i| LIFT_SIDES[i]);
    (side(), side()).prop_flat_map(|(w, h)| {
        let wild = prop_oneof![
            any::<i32>(),
            any::<i32>(),
            -5000i32..=5000,
            Just(i32::MIN),
            Just(i32::MAX),
        ];
        (
            Just(w),
            Just(h),
            proptest::collection::vec(-(1i32 << 20)..=1 << 20, w * h..w * h + 1),
            proptest::collection::vec(wild, w * h..w * h + 1),
        )
    })
}

/// `reference`'s 1-D inverse lift with its release-build wrap spelled
/// out. The frozen code uses the plain operators, which panic in the
/// debug build the suite runs in as soon as a lifting sum leaves `i32`;
/// the property below ties this twin to the frozen code wherever that
/// runs, and holds the live inverse to the twin everywhere.
fn wrapping_inverse_1d(line: &mut [i32], kind: WaveletKind) {
    let half = line.len() / 2;
    let (s, d) = line.split_at(half);
    let mut x = vec![0i32; line.len()];
    for i in 0..half {
        x[2 * i] = match kind {
            WaveletKind::Haar => s[i].wrapping_sub(d[i] >> 1),
            WaveletKind::Cdf53 => {
                let sum = d[i.saturating_sub(1)].wrapping_add(d[i]).wrapping_add(2);
                s[i].wrapping_sub(sum >> 2)
            }
        };
    }
    for i in 0..half {
        let (left, right) = (x[2 * i], x[(2 * i + 2).min(2 * half - 2)]);
        x[2 * i + 1] = match kind {
            WaveletKind::Haar => d[i].wrapping_add(left),
            WaveletKind::Cdf53 => d[i].wrapping_add(left.wrapping_add(right) >> 1),
        };
    }
    line.copy_from_slice(&x);
}

/// `reference::inverse_2d_partial` over [`wrapping_inverse_1d`]: per
/// level, every column through a strided gather, then every row.
fn wrapping_inverse_2d_partial(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    drop_levels: usize,
    kind: WaveletKind,
) {
    for level in (drop_levels..levels).rev() {
        let (w, h) = (width >> level, height >> level);
        for x in 0..w {
            let mut column: Vec<i32> = (0..h).map(|y| data[y * width + x]).collect();
            wrapping_inverse_1d(&mut column, kind);
            for (y, v) in column.into_iter().enumerate() {
                data[y * width + x] = v;
            }
        }
        for y in 0..h {
            wrapping_inverse_1d(&mut data[y * width..y * width + w], kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The row-lifted transform equals the frozen strided one at every
    /// even shape, every depth, every number of dropped levels and both
    /// filters, through one scratch that sees the shapes shrink and
    /// grow — and on hostile coefficients its inverse wraps exactly as
    /// the frozen one does in a release build.
    #[test]
    fn lifting_matches_reference_at_every_shape_depth_and_drop(
        planes in proptest::collection::vec(arb_lift_planes(), 1..4),
    ) {
        let mut ws = WaveletScratch::new();
        for (w, h, pixels, wild) in &planes {
            let (w, h) = (*w, *h);
            for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
                for levels in 0..=wavelet::max_levels(w, h) {
                    let what = format!("{kind:?} {w}x{h} L{levels}");
                    let mut coeffs = pixels.clone();
                    reference::forward_2d(&mut coeffs, w, h, levels, kind);
                    let mut live = pixels.clone();
                    wavelet::forward_2d_with(&mut live, w, h, levels, kind, &mut ws);
                    prop_assert_eq!(&live, &coeffs, "forward {}", what);
                    wavelet::inverse_2d_with(&mut live, w, h, levels, kind, &mut ws);
                    prop_assert_eq!(&live, pixels, "round trip {}", what);
                    for drop in 0..=levels {
                        let mut frozen = coeffs.clone();
                        reference::inverse_2d_partial(&mut frozen, w, h, levels, drop, kind);
                        for (plane, frozen) in [(&coeffs, Some(&frozen)), (wild, None)] {
                            let mut twin = plane.clone();
                            wrapping_inverse_2d_partial(&mut twin, w, h, levels, drop, kind);
                            let mut live = plane.clone();
                            wavelet::inverse_2d_partial_with(
                                &mut live, w, h, levels, drop, kind, &mut ws,
                            );
                            prop_assert_eq!(&live, &twin, "inverse {} drop {}", what, drop);
                            if let Some(frozen) = frozen {
                                prop_assert_eq!(&twin, frozen, "twin {} drop {}", what, drop);
                            } else if !cfg!(debug_assertions) {
                                let mut frozen = plane.clone();
                                reference::inverse_2d_partial(&mut frozen, w, h, levels, drop, kind);
                                prop_assert_eq!(&twin, &frozen, "wrap {} drop {}", what, drop);
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The optimized wavelet pass produces the same coefficients as
    /// the pre-refactor strided implementation, and inverts losslessly
    /// through either inverse.
    #[test]
    fn wavelet_forward_matches_reference((w, h, levels, pixels) in arb_pixels()) {
        let mut fast = pixels.clone();
        let mut slow = pixels.clone();
        for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
            fast.copy_from_slice(&pixels);
            slow.copy_from_slice(&pixels);
            wavelet::forward_2d(&mut fast, w, h, levels, kind);
            reference::forward_2d(&mut slow, w, h, levels, kind);
            prop_assert_eq!(&fast, &slow, "forward {:?} {}x{} L{}", kind, w, h, levels);
            wavelet::inverse_2d(&mut fast, w, h, levels, kind);
            reference::inverse_2d(&mut slow, w, h, levels, kind);
            prop_assert_eq!(&fast, &pixels);
            prop_assert_eq!(&slow, &pixels);
        }
    }

    /// Encoded bytes are identical on arbitrary coefficient planes —
    /// the live-set walk and batched bit writer change nothing on the
    /// wire.
    #[test]
    fn encode_plane_is_byte_identical((w, h, levels, coeffs) in arb_coeffs()) {
        encode_matches_reference(w, h, levels, &coeffs)?;
    }

    /// Any prefix decodes to the same coefficients through the
    /// live-set decoder and the reference decoder — truncation
    /// behavior (mid-symbol cuts, uncertainty-interval offset) is
    /// pinned too.
    #[test]
    fn truncated_decode_matches_reference(
        (w, h, levels, coeffs) in arb_coeffs(),
        cut_ppm in 0u32..=1_000_000,
    ) {
        truncated_decode_matches(w, h, levels, &coeffs, cut_ppm)?;
    }

    /// Scratch reuse across a stream of differently-shaped planes never
    /// changes the bytes relative to the frozen coder.
    #[test]
    fn warm_scratch_stream_matches_reference(
        planes in proptest::collection::vec(arb_coeffs(), 1..5),
    ) {
        let mut es = EzwScratch::new();
        for (w, h, levels, coeffs) in &planes {
            let warm = EzwEncoder::encode_plane_with(coeffs, *w, *h, *levels, &mut es);
            let slow = reference::encode_plane(coeffs, *w, *h, *levels);
            prop_assert_eq!(&warm, &slow);
            let dwarm = EzwDecoder::decode_plane_with(&warm, &mut es).unwrap();
            prop_assert_eq!(&dwarm.coeffs, coeffs);
        }
    }
}

/// The body of `encode_plane_is_byte_identical`: the live encoder's
/// bytes are the frozen one's, and decode losslessly through both
/// decoders.
fn encode_matches_reference(
    w: usize,
    h: usize,
    levels: usize,
    coeffs: &[i32],
) -> Result<(), TestCaseError> {
    let fast = EzwEncoder::encode_plane(coeffs, w, h, levels);
    let slow = reference::encode_plane(coeffs, w, h, levels);
    prop_assert_eq!(&fast, &slow, "{}x{} L{}", w, h, levels);
    let dfast = EzwDecoder::decode_plane(&fast).unwrap();
    let dslow = reference::decode_plane(&slow).unwrap();
    prop_assert!(
        dfast.coeffs == coeffs,
        "{}x{} L{}: live decode",
        w,
        h,
        levels
    );
    prop_assert!(
        dslow.coeffs == coeffs,
        "{}x{} L{}: frozen decode",
        w,
        h,
        levels
    );
    Ok(())
}

/// The body of `truncated_decode_matches_reference`: the stream of
/// `coeffs` cut `cut_ppm` millionths into its body decodes through the
/// live decoder to what the frozen one makes of it.
fn truncated_decode_matches(
    w: usize,
    h: usize,
    levels: usize,
    coeffs: &[i32],
    cut_ppm: u32,
) -> Result<(), TestCaseError> {
    let stream = EzwEncoder::encode_plane(coeffs, w, h, levels);
    let body = stream.len() - ezw::PLANE_HEADER_LEN;
    let keep = ezw::PLANE_HEADER_LEN + (body as u64 * cut_ppm as u64 / 1_000_000) as usize;
    let prefix = &stream[..keep];
    let fast = EzwDecoder::decode_plane(prefix).unwrap();
    let slow = reference::decode_plane(prefix).unwrap();
    prop_assert!(
        fast.coeffs == slow.coeffs,
        "{}x{} L{} keep {}",
        w,
        h,
        levels,
        keep
    );
    Ok(())
}

/// The length `measure_plane` sizes a plane up to is the length
/// `emit_plane` writes when nothing stops it. `encode_plane` clamps its
/// keep to the measured length, so an *over*-estimate never shows in
/// its bytes; it shows here.
fn assert_measured_is_emitted(w: usize, h: usize, levels: usize, coeffs: &[i32], what: &str) {
    let mut analysis = PlaneAnalysis::new();
    let len = EzwEncoder::measure_plane(coeffs, w, h, levels, &mut analysis);
    let full = EzwEncoder::emit_plane(coeffs, &analysis, usize::MAX, &mut EzwScratch::new());
    assert_eq!(len, full.len(), "{what} {w}x{h} L{levels}");
}

/// Planes at the magnitude and sparsity extremes: every coefficient
/// `i32::MIN`, every one `i32::MAX`, a single nonzero leaf (the last
/// finest-HH coefficient), a single nonzero root, and nothing but the
/// coarsest LL.
fn extreme_planes(w: usize, h: usize, levels: usize) -> [(&'static str, Vec<i32>); 5] {
    let (wl, hl) = (w >> levels, h >> levels);
    let mut leaf = vec![0; w * h];
    leaf[w * h - 1] = -4096;
    let mut root = vec![0; w * h];
    root[0] = 4095;
    let mut ll = vec![0; w * h];
    for y in 0..hl {
        for x in 0..wl {
            ll[y * w + x] = (y * wl + x) as i32 * 37 % 513 - 256;
        }
    }
    [
        ("i32::MIN", vec![i32::MIN; w * h]),
        ("i32::MAX", vec![i32::MAX; w * h]),
        ("one leaf", leaf),
        ("one root", root),
        ("LL only", ll),
    ]
}

/// The two differentials above at the session's shape, past the 64
/// `arb_geometry` stops at: 128² and 256², whose band rows fill whole
/// 64-rank words of the live set, and 96 x 192, whose rows straddle
/// them — at one level, three, and the most the shape takes, on a
/// transformed scene and on dense coefficients of every magnitude up
/// to 2^12; and at one level and the most, on the extreme planes. On
/// each, the measured length is the emitted one.
#[test]
fn reference_differentials_hold_at_the_sessions_shape() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for (w, h) in [(128, 128), (256, 256), (96, 192)] {
        let max = wavelet::max_levels(w, h);
        for levels in [1, max] {
            for (what, coeffs) in extreme_planes(w, h, levels) {
                // Not `encode_matches_reference`: the frozen decoder's
                // sign flip overflows on `i32::MIN` in a debug build.
                let live = EzwEncoder::encode_plane(&coeffs, w, h, levels);
                let frozen = reference::encode_plane(&coeffs, w, h, levels);
                assert!(live == frozen, "{what} {w}x{h} L{levels}: bytes");
                let decoded = EzwDecoder::decode_plane(&live).unwrap();
                assert!(decoded.coeffs == coeffs, "{what} {w}x{h} L{levels}: decode");
                assert_measured_is_emitted(w, h, levels, &coeffs, what);
            }
        }
        for levels in [1, 3, max] {
            let mut scene: Vec<i32> = corner_image(w, h, 1, levels as u64)
                .plane(0)
                .iter()
                .map(|v| v - 128)
                .collect();
            wavelet::forward_2d(&mut scene, w, h, levels, WaveletKind::Cdf53);
            let dense: Vec<i32> = (0..w * h)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 51) as i32 - 4096
                })
                .collect();
            for (what, coeffs) in [("scene", &scene), ("dense", &dense)] {
                encode_matches_reference(w, h, levels, coeffs).unwrap();
                assert_measured_is_emitted(w, h, levels, coeffs, what);
                for cut_ppm in [1_000, 250_000, 777_777] {
                    truncated_decode_matches(w, h, levels, coeffs, cut_ppm).unwrap();
                }
            }
        }
    }
}

/// End-to-end differential on real image content: transform + encode
/// through the public pipeline equals reference transform + encode per
/// plane, for both wavelets, up to the 512² plane; both decoders read
/// the stream back to the coefficients; a quarter of the grey container
/// decodes; and a colour share capped at 6 bpp is the cut of its full
/// encode, whose halves, quarters and eighths decode at full size. The
/// transform alone equals the frozen one both ways at 64², 256² and
/// 512², for both filters.
#[test]
fn image_pipeline_matches_reference_per_plane() {
    for (w, h, levels, kind, objects, seed) in [
        (64, 64, 4, WaveletKind::Cdf53, 3, 42u64),
        (64, 32, 3, WaveletKind::Haar, 3, 43),
        (48, 48, 2, WaveletKind::Cdf53, 3, 44),
        (256, 256, 4, WaveletKind::Cdf53, 4, 42),
        (512, 512, 4, WaveletKind::Cdf53, 4, 42),
        (256, 256, 5, WaveletKind::Cdf53, 5, 42),
    ] {
        let what = format!("{kind:?} {w}x{h} L{levels} seed {seed}");
        let scene = synthetic_scene(w, h, 1, objects, seed);
        let mut plane = scene.image.plane(0);
        for v in plane.iter_mut() {
            *v -= 128;
        }
        let mut slow = plane.clone();
        reference::forward_2d(&mut slow, w, h, levels, kind);
        let expected = reference::encode_plane(&slow, w, h, levels);

        let mut ws = WaveletScratch::new();
        let mut es = EzwScratch::new();
        wavelet::forward_2d_with(&mut plane, w, h, levels, kind, &mut ws);
        let got = EzwEncoder::encode_plane_with(&plane, w, h, levels, &mut es);
        assert_eq!(got, expected, "{what}");
        let decoded = EzwDecoder::decode_plane_with(&got, &mut es).unwrap();
        let frozen = reference::decode_plane(&expected).unwrap();
        assert!(decoded.coeffs == frozen.coeffs, "{what}: decoders agree");
        assert!(
            decoded.coeffs == slow,
            "{what}: the full stream is lossless"
        );

        let container = ezw::encode_image(&scene.image, levels, kind).unwrap();
        let cut = ezw::truncate_container(&container, container.len() / 4).unwrap();
        assert!(ezw::decode_image(&cut).is_ok(), "{what}: a quarter decodes");

        let color = synthetic_scene(w, h, 3, objects, seed).image;
        let cap = w * h * 6 / 8;
        let full = ezw::encode_image_opts(&color, levels, kind, true).unwrap();
        let sent = ezw::truncate_container(&full, cap).unwrap();
        let capped = ezw::encode_image_capped(&color, levels, kind, true, Some(cap)).unwrap();
        assert!(capped == sent, "{what}: the capped encode is the cut");
        for div in [2, 4, 8] {
            let prefix = ezw::truncate_container(&sent, sent.len() / div).unwrap();
            let view = ezw::decode_image(&prefix).unwrap();
            assert_eq!(
                (view.width, view.height, view.channels),
                (w, h, 3),
                "{what} 1/{div}"
            );
        }
    }
    // The transform alone, at the session's depth, both ways.
    let mut ws = WaveletScratch::new();
    for kind in [WaveletKind::Cdf53, WaveletKind::Haar] {
        for side in [64, 256, 512] {
            let levels = wavelet::max_levels(side, side).min(5);
            let mut plane = synthetic_scene(side, side, 1, 4, 42).image.plane(0);
            for v in plane.iter_mut() {
                *v -= 128;
            }
            let (mut live, mut frozen) = (plane.clone(), plane.clone());
            wavelet::forward_2d_with(&mut live, side, side, levels, kind, &mut ws);
            reference::forward_2d(&mut frozen, side, side, levels, kind);
            assert!(live == frozen, "{kind:?} {side}x{side}: coefficients");
            wavelet::inverse_2d_with(&mut live, side, side, levels, kind, &mut ws);
            reference::inverse_2d(&mut frozen, side, side, levels, kind);
            assert!(
                live == plane && frozen == plane,
                "{kind:?} {side}x{side}: round trip"
            );
        }
    }
}

/// The plane streams of a container, as `decode_image` sees them.
fn plane_streams(container: &[u8]) -> Vec<&[u8]> {
    let mut rest = &container[ezw::CONTAINER_HEADER_LEN..];
    let mut streams = Vec::new();
    for _ in 0..container[4] {
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
        streams.push(&rest[4..4 + len]);
        rest = &rest[4 + len..];
    }
    streams
}

/// Decode every byte-length prefix of `stream` through the live
/// decoder (one warm scratch across all cuts) and the reference one.
fn assert_every_cut_matches(stream: &[u8], es: &mut EzwScratch, what: &str) {
    for keep in ezw::PLANE_HEADER_LEN..=stream.len() {
        let live = EzwDecoder::decode_plane_with(&stream[..keep], es).unwrap();
        let frozen = reference::decode_plane(&stream[..keep]).unwrap();
        // Not `assert_eq!`: a mismatch would print both planes.
        assert!(
            live == frozen,
            "{what}: keep {keep} of {}: first difference at {:?}",
            stream.len(),
            live.coeffs
                .iter()
                .zip(&frozen.coeffs)
                .position(|(a, b)| a != b)
        );
    }
}

/// Exhaustive, not sampled: a cut lands mid-symbol, mid-refill or on
/// the last byte of a pass at only a handful of lengths per stream,
/// and a reader or walker bug may show at exactly one of them.
#[test]
fn every_byte_cut_matches_reference() {
    let mut es = EzwScratch::new();
    // ~20k cuts; the frozen decoder's full-scan passes set the cost,
    // so the extra seeds run at 32x32.
    for (side, levels, seed) in [(64, 4, 3u64), (32, 3, 19), (32, 3, 20)] {
        let scene = synthetic_scene(side, side, 3, 4, seed);
        for color in [false, true] {
            let c =
                ezw::encode_image_opts(&scene.image, levels, WaveletKind::Cdf53, color).unwrap();
            for (i, stream) in plane_streams(&c).into_iter().enumerate() {
                let what = format!("{side}x{side} seed {seed} color {color} plane {i}");
                assert_every_cut_matches(stream, &mut es, &what);
            }
        }
    }
    // Non-square planes whose band sizes are not multiples of 64, so
    // bands straddle bitmap words; one with a single level, where the
    // roots' children are the leaves.
    for (w, h, levels, kind, seed) in [
        (96, 32, 3, WaveletKind::Haar, 5u64),
        (24, 48, 1, WaveletKind::Cdf53, 6),
    ] {
        // The top-left w x h corner of a square scene (the generator
        // wants room for its discs in both directions).
        let side = w.max(h);
        let scene = synthetic_scene(side, side, 1, 3, seed);
        let mut plane: Vec<i32> = (0..w * h)
            .map(|i| scene.image.get(i % w, i / w, 0) as i32 - 128)
            .collect();
        wavelet::forward_2d(&mut plane, w, h, levels, kind);
        let stream = EzwEncoder::encode_plane(&plane, w, h, levels);
        assert_every_cut_matches(&stream, &mut es, &format!("{w}x{h} L{levels}"));
    }
}

/// The viewer's path: the 256x256 colour scene cut at every k/16
/// packets decodes, through a scratch warmed by the previous cut and
/// through a fresh one per plane, to what the frozen decoder yields.
#[test]
fn packet_cuts_of_colour_scene_match_reference() {
    let scene = synthetic_scene(256, 256, 3, 5, 11);
    let full = ezw::encode_image_opts(&scene.image, 5, WaveletKind::Cdf53, true).unwrap();
    let packets = split_packets(&full, 16);
    let mut warm = EzwScratch::new();
    for k in 1..=16 {
        let container = reassemble_prefix(&packets[..k]).unwrap();
        for stream in plane_streams(&container) {
            let frozen = reference::decode_plane(stream).unwrap();
            assert_eq!(
                EzwDecoder::decode_plane_with(stream, &mut warm).unwrap(),
                frozen
            );
            assert_eq!(EzwDecoder::decode_plane(stream).unwrap(), frozen, "k={k}");
        }
        // And `decode_image` is those planes, inverse-transformed.
        let expected = reference::decode_image(&container).unwrap();
        assert_eq!(ezw::decode_image(&container).unwrap(), expected, "k={k}");
    }
    assert_eq!(ezw::decode_image(&full).unwrap(), scene.image);
}

/// Golden fixture: one full encoded color image (YCoCg-R + CDF 5/3,
/// 64x64x3, 4 levels) pinned byte-for-byte. Catches a simultaneous
/// drift of the live coder and the reference copy.
#[test]
fn golden_color_container_fixture() {
    let scene = synthetic_scene(64, 64, 3, 4, 7);
    let encoded = ezw::encode_image_opts(&scene.image, 4, WaveletKind::Cdf53, true).unwrap();
    if std::env::var_os("REGEN_MEDIA_FIXTURES").is_some() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE_PATH, &encoded).unwrap();
        panic!("fixture regenerated — rerun without REGEN_MEDIA_FIXTURES");
    }
    let golden = std::fs::read(FIXTURE_PATH)
        .expect("fixture missing — run with REGEN_MEDIA_FIXTURES=1 to create");
    assert_eq!(
        encoded, golden,
        "encoded color container drifted from the golden fixture"
    );
    // The fixture decodes losslessly and still honors the embedded
    // property after truncation.
    let decoded = ezw::decode_image(&golden).unwrap();
    assert_eq!(decoded.data, scene.image.data);
    let cut = ezw::truncate_container(&golden, golden.len() / 4).unwrap();
    let coarse = ezw::decode_image(&cut).unwrap();
    assert!(collabqos::media::psnr_color(&scene.image, &coarse) > 15.0);
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// On streams no encoder wrote, the live decoder is the contract:
/// `media::reference` is the oracle only for encoder output (on damaged
/// streams the two part ways about half the time). So what the live
/// decoder makes of every single-byte flip of the golden fixture — the
/// image, or the error — is pinned as one digest, which a rewrite of
/// the decoder must leave as it is.
#[test]
fn every_flipped_byte_of_the_fixture_decodes_as_pinned() {
    let golden = std::fs::read(FIXTURE_PATH).expect("fixture present");
    let mut damaged = golden.clone();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut decoded = 0;
    for i in 0..golden.len() {
        damaged[i] ^= 0xFF;
        digest = match ezw::decode_image(&damaged) {
            Ok(img) => {
                decoded += 1;
                let dims = [img.width, img.height, img.channels].map(|d| d as u32);
                let digest = fnv1a(digest, &dims.map(u32::to_be_bytes).concat());
                fnv1a(digest, &img.data)
            }
            Err(e) => fnv1a(digest ^ 1, format!("{e:?}").as_bytes()),
        };
        damaged[i] = golden[i];
    }
    assert_eq!((golden.len(), decoded), (6874, 6826));
    assert_eq!(digest, 0xaa7c_2cd6_7973_0a9c, "{digest:#018x}");
}

// -------------------------------------------------------- pixel passes

/// The decode the live one was before its finish became one pass,
/// composed here: each channel stream through the live plane decode and
/// partial inverse; the luma plane (every plane, without the colour
/// transform) shifted back by a wrapping add over the whole plane;
/// `reference::inverse_planes` over the whole planes; then each plane's
/// reduced corner, read at the plane's own stride, clamped into its
/// channel.
fn three_pass_decode(container: &[u8], drop_levels: usize) -> Image {
    let color = container[5] & 0x80 != 0;
    let kind = [WaveletKind::Haar, WaveletKind::Cdf53][usize::from(container[5] & 0x7f)];
    let mut ws = WaveletScratch::new();
    let mut planes = Vec::new();
    let (mut w, mut h) = (0, 0);
    for (c, stream) in plane_streams(container).into_iter().enumerate() {
        let plane = EzwDecoder::decode_plane(stream).unwrap();
        (w, h) = (plane.w, plane.h);
        let mut coeffs = plane.coeffs;
        wavelet::inverse_2d_partial_with(
            &mut coeffs,
            w,
            h,
            plane.levels,
            drop_levels,
            kind,
            &mut ws,
        );
        if !color || c == 0 {
            coeffs.iter_mut().for_each(|v| *v = v.wrapping_add(128));
        }
        planes.push(coeffs);
    }
    if let [y, co, cg] = &mut planes[..] {
        if color {
            reference::inverse_planes(y, co, cg);
        }
    }
    let (rw, rh) = (w >> drop_levels, h >> drop_levels);
    let mut img = Image {
        width: rw,
        height: rh,
        channels: planes.len(),
        data: vec![0; rw * rh * planes.len()],
    };
    for (c, plane) in planes.iter().enumerate() {
        for y in 0..rh {
            for x in 0..rw {
                img.set(x, y, c, plane[y * w + x].clamp(0, 255) as u8);
            }
        }
    }
    img
}

/// `container` with every plane header's top bit-plane set to 31:
/// coefficients reach 2^31 in magnitude, so the inverse wavelet, the
/// level shift and the colour inverse all wrap, and the clamp bites.
fn with_top_plane_31(container: &[u8]) -> Vec<u8> {
    let mut out = container.to_vec();
    let mut at = ezw::CONTAINER_HEADER_LEN;
    for stream in plane_streams(container) {
        out[at + 4 + 9] = 31;
        at += 4 + stream.len();
    }
    out
}

/// The one-pass finish makes the image the three passes made, at every
/// number of dropped levels, through one warm scratch: grey, colour
/// without and with the colour transform, both wavelets, on the encoder's
/// containers, on those with the top bit-plane forced to 31, and on every
/// single-byte flip of each (which decode to coefficients no encoder
/// made; a flip the decoder refuses has no finish to compare).
#[test]
fn the_one_pass_finish_equals_the_three_pass_one_at_every_drop() {
    let encode = |channels, kind, color, cap| {
        let scene = synthetic_scene(32, 32, channels, 3, 60 + channels as u64);
        ezw::encode_image_capped(&scene.image, 3, kind, color, cap).unwrap()
    };
    let containers = [
        ("grey", encode(1, WaveletKind::Cdf53, false, None)),
        ("rgb", encode(3, WaveletKind::Haar, false, Some(900))),
        ("ycocg", encode(3, WaveletKind::Cdf53, true, Some(900))),
    ];
    let mut warm = CodecScratch::new();
    let (mut compared, mut clamped) = (0, 0);
    for (what, clean) in &containers {
        for base in [clean.clone(), with_top_plane_31(clean)] {
            let mut damaged = base.clone();
            for flip in (0..base.len()).map(Some).chain([None]) {
                if let Some(i) = flip {
                    damaged[i] ^= 0xFF;
                }
                for drop in 0..=3 {
                    let Ok(live) = ezw::decode_image_reduced_with(&damaged, drop, &mut warm) else {
                        continue;
                    };
                    assert!(
                        live == three_pass_decode(&damaged, drop),
                        "{what}, flip {flip:?}, drop {drop}"
                    );
                    compared += 1;
                    clamped += live.data.iter().any(|&v| v == 0 || v == 255) as usize;
                }
                if let Some(i) = flip {
                    damaged[i] = base[i];
                }
            }
        }
    }
    assert!(
        compared > 15_000 && clamped * 2 > compared,
        "{compared} {clamped}"
    );
}

/// The planes `prepare_planes` made before it was one pass: each
/// channel deinterleaved, `reference::forward_planes` over the three
/// under the colour transform, then the level shift (luma only under
/// it); the colour transform on other than three channels is refused.
fn three_pass_prepare(img: &Image, color: bool) -> Result<Vec<Vec<i32>>, MediaError> {
    if color && img.channels != 3 {
        return Err(MediaError::BadDimensions(
            "color transform requires 3 channels".to_string(),
        ));
    }
    let mut planes: Vec<Vec<i32>> = (0..img.channels).map(|c| img.plane(c)).collect();
    if let [r, g, b] = &mut planes[..] {
        if color {
            reference::forward_planes(r, g, b);
        }
    }
    for (c, plane) in planes.iter_mut().enumerate() {
        if !color || c == 0 {
            plane.iter_mut().for_each(|v| *v -= 128);
        }
    }
    Ok(planes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass `prepare_planes` gives the planes of the three
    /// passes, or their error, on any bytes: one and three channels
    /// with the colour transform on and off, and hand-built images of
    /// two and four channels.
    #[test]
    fn the_one_pass_prepare_equals_the_three_pass_one(
        (width, height, channels, data) in (1usize..24, 1usize..24, 1usize..=4).prop_flat_map(
            |(w, h, c)| (Just(w), Just(h), Just(c), proptest::collection::vec(any::<u8>(), w * h * c..w * h * c + 1))
        ),
        color in any::<bool>(),
    ) {
        let img = Image { width, height, channels, data };
        prop_assert_eq!(ezw::prepare_planes(&img, color), three_pass_prepare(&img, color));
    }
}

// ------------------------------------------------------ capped encode

/// The top-left `w x h` corner of a square scene (the generator wants
/// room for its discs in both directions).
fn corner_image(w: usize, h: usize, channels: usize, seed: u64) -> Image {
    let side = w.max(h);
    let square = synthetic_scene(side, side, channels, 3, seed).image;
    let mut img = Image::new(w, h, channels);
    for y in 0..h {
        for x in 0..w {
            for c in 0..channels {
                img.set(x, y, c, square.get(x, y, c));
            }
        }
    }
    img
}

/// The encoder stops where `truncate_container` would cut: for every
/// budget from nothing to past the whole stream the capped encode is
/// the cut of the full encode, byte for byte — one and three channels,
/// with and without the colour transform, planes whose bands straddle
/// bitmap words, and a grey image whose chroma planes are all zero
/// (streams that are a header and nothing else, which no cut may
/// shorten).
#[test]
fn capped_encode_equals_the_cut_of_the_full_encode_at_every_budget() {
    let mut grey = Image::new(32, 32, 3);
    for (i, px) in grey.data.chunks_exact_mut(3).enumerate() {
        px.fill((i * 7 % 251) as u8);
    }
    let cases = [
        (synthetic_scene(32, 32, 1, 3, 61).image, 3, false),
        (synthetic_scene(32, 32, 3, 3, 62).image, 3, true),
        (synthetic_scene(32, 32, 3, 3, 63).image, 2, false),
        (corner_image(96, 32, 1, 64), 3, false),
        (corner_image(24, 48, 3, 65), 1, true),
        (grey, 3, true),
    ];
    for (img, levels, color) in &cases {
        for kind in [WaveletKind::Cdf53, WaveletKind::Haar] {
            let full = ezw::encode_image_opts(img, *levels, kind, *color).unwrap();
            let uncapped = ezw::encode_image_capped(img, *levels, kind, *color, None).unwrap();
            assert!(uncapped == full, "no cap is the whole stream");
            for budget in 0..=full.len() + 16 {
                let capped =
                    ezw::encode_image_capped(img, *levels, kind, *color, Some(budget)).unwrap();
                let cut = ezw::truncate_container(&full, budget).unwrap();
                // Not `assert_eq!`: a mismatch would print both streams.
                assert!(
                    capped == cut,
                    "{}x{}x{} L{levels} {kind:?} color {color}: budget {budget} of {}",
                    img.width,
                    img.height,
                    img.channels,
                    full.len()
                );
            }
        }
    }
    // The grey image's chroma streams really are bare headers.
    let (grey, levels, color) = &cases[5];
    let full = ezw::encode_image_opts(grey, *levels, WaveletKind::Cdf53, *color).unwrap();
    let streams = plane_streams(&full);
    assert_eq!(streams[1].len(), ezw::PLANE_HEADER_LEN);
    assert_eq!(streams[2].len(), ezw::PLANE_HEADER_LEN);
}

/// What the session sends under a rate limit is what it sent when it
/// encoded everything and cut afterwards, and a re-share of the same
/// scene under the same limit is still one encode.
#[test]
fn a_rate_limited_share_sends_the_cut_of_the_full_stream() {
    use collabqos::prelude::*;
    let scene = synthetic_scene(64, 64, 3, 4, 67);
    let levels = wavelet::max_levels(64, 64).min(5);
    let cfg = SessionConfig {
        color_transform: true,
        full_stream_bpp: Some(3.0),
        ..SessionConfig::default()
    };
    let full = ezw::encode_image_opts(&scene.image, levels, cfg.wavelet, true).unwrap();
    let budget = 64 * 64 * 3 / 8;
    assert!(budget < full.len(), "the limit bites");
    let sent = ezw::truncate_container(&full, budget).unwrap();

    let mut s = CollaborationSession::new(cfg.clone());
    let publisher = join_image_client(&mut s, "publisher");
    let viewer = join_image_client(&mut s, "viewer");
    s.client_mut(viewer).viewer.set_packet_budget(16);
    for share in 1..=2u64 {
        s.share_image(publisher, &scene, IMAGE_SELECTOR).unwrap();
        let views = s.pump(Ticks::from_secs(2));
        assert_eq!(views.len(), 1);
        let (_, view) = &views[0];
        let payload: usize = split_packets(&sent, cfg.packets_per_image)
            .iter()
            .map(|p| p.payload.len())
            .sum();
        assert_eq!(view.received_bytes, payload);
        assert!(*view.image == reference::decode_image(&sent).unwrap());
        let stats = s.media_cache_stats();
        assert_eq!((stats.misses(), stats.hits()), (1, share - 1));
    }
}

// ------------------------------------------------- replayed prefixes

/// `container` through `warm` at each of `drops`, held to what a
/// scratch that has seen nothing makes of it — and, if an encoder wrote
/// it (`frozen`: the reference is pinned on nothing else), at full
/// resolution to the frozen decoder. Returns how many of the decodes
/// were replays.
fn replays_of_warm_decodes(
    container: &[u8],
    drops: std::ops::RangeInclusive<usize>,
    warm: &mut CodecScratch,
    frozen: bool,
    what: &str,
) -> u64 {
    let before = warm.replays();
    for drop in drops {
        let kept = ezw::decode_image_reduced_with(container, drop, warm).unwrap();
        let fresh = ezw::decode_image_reduced(container, drop).unwrap();
        // Not `assert_eq!`: a mismatch would print both images.
        assert!(kept == fresh, "{what}, drop {drop}");
        if drop == 0 && frozen {
            assert!(
                kept == reference::decode_image(container).unwrap(),
                "{what}"
            );
        }
    }
    warm.replays() - before
}

/// Exhaustive, like `every_byte_cut_matches_reference`: a scratch that
/// has read a stream gives every byte cut of it — at every resolution —
/// without reading it again, and gives exactly what reading the cut
/// afresh gives. The stream read is once a whole one and once itself a
/// cut that ends inside a pass.
#[test]
fn every_byte_cut_replays_to_the_fresh_decode() {
    for (side, channels, levels, color, seed) in [(32, 3, 3, true, 71u64), (64, 1, 4, false, 72)] {
        let image = synthetic_scene(side, side, channels, 4, seed).image;
        let full = ezw::encode_image_opts(&image, levels, WaveletKind::Cdf53, color).unwrap();
        for read in [full.len(), full.len() * 2 / 5] {
            let read = ezw::truncate_container(&full, read).unwrap();
            let mut warm = CodecScratch::new();
            let what = format!("{side}x{side}x{channels}, {} bytes read", read.len());
            assert_eq!(
                replays_of_warm_decodes(&read, 0..=0, &mut warm, true, &what),
                0
            );
            for budget in (0..=read.len()).rev() {
                let cut = ezw::truncate_container(&read, budget).unwrap();
                let what = format!("{what}, cut to {budget}");
                let replays = replays_of_warm_decodes(&cut, 0..=2, &mut warm, true, &what);
                assert_eq!(replays, 3, "{what}: a prefix was read again");
            }
        }
    }
}

/// The session's case: the packet prefixes of one shared object, the
/// longest asked for first, cost one reading of the symbols; asked for
/// shortest first they cost one each.
#[test]
fn nested_packet_prefixes_replay_longest_first_and_not_shortest_first() {
    let scene = synthetic_scene(256, 256, 3, 5, 73);
    let sent = ezw::encode_image_capped(
        &scene.image,
        5,
        WaveletKind::Cdf53,
        true,
        Some(256 * 256 * 6 / 8),
    )
    .unwrap();
    let packets = split_packets(&sent, 16);
    let prefix = |k: usize| reassemble_prefix(&packets[..k]).unwrap();
    let mut warm = CodecScratch::new();
    for k in [16, 8, 4, 2, 1] {
        let replays =
            replays_of_warm_decodes(&prefix(k), 0..=0, &mut warm, true, &format!("k={k}"));
        assert_eq!(replays, (k < 16) as u64, "k={k}");
    }
    let mut warm = CodecScratch::new();
    for k in [1, 2, 4, 8, 16] {
        replays_of_warm_decodes(&prefix(k), 0..=0, &mut warm, true, &format!("k={k}"));
    }
    assert_eq!(warm.replays(), 0);
}

/// What is not a prefix of the stream last read is read afresh, and
/// what was read before never shows in it: a longer cut after a
/// shorter, other bytes of the same length, a prefix with one byte
/// changed in the middle, and a stream of another shape.
#[test]
fn what_is_not_a_prefix_is_read_afresh() {
    let image = |seed| synthetic_scene(64, 64, 3, 4, seed).image;
    let encode = |img: &Image, budget| {
        ezw::encode_image_capped(img, 4, WaveletKind::Cdf53, true, Some(budget)).unwrap()
    };
    let held = encode(&image(81), 3000);
    let mut warm = CodecScratch::new();
    let mut read_afresh = |container: &[u8], frozen: bool, what: &str| {
        // Put the scratch back on `held` first.
        ezw::decode_image_reduced_with(&held, 0, &mut warm).unwrap();
        let replays = replays_of_warm_decodes(container, 0..=2, &mut warm, frozen, what);
        // Read once, at the first resolution asked; by then it is the
        // stream last read, and a prefix of itself.
        assert_eq!(replays, 2, "{what}");
    };

    let longer = encode(&image(81), 4000);
    assert!(plane_streams(&longer)[0].starts_with(plane_streams(&held)[0]));
    read_afresh(&longer, true, "longer after shorter");

    // Another image's streams, cut to the very lengths of `held`'s.
    let other = ezw::encode_image_opts(&image(82), 4, WaveletKind::Cdf53, true).unwrap();
    let other: Vec<Vec<u8>> = plane_streams(&other)
        .iter()
        .zip(plane_streams(&held))
        .map(|(other, held)| other[..held.len()].to_vec())
        .collect();
    let other = ezw::assemble_container(3, WaveletKind::Cdf53, true, &other);
    assert_eq!(other.len(), held.len());
    read_afresh(&other, true, "other bytes of the same length");

    let shorter = ezw::truncate_container(&held, 2000).unwrap();
    for stream in 0..3 {
        let mut flipped = shorter.clone();
        let streams = plane_streams(&shorter);
        let start = streams[stream].as_ptr() as usize - shorter.as_ptr() as usize;
        flipped[start + streams[stream].len() / 2] ^= 0x10;
        read_afresh(
            &flipped,
            false,
            &format!("a byte changed in stream {stream}"),
        );
    }

    let small = synthetic_scene(32, 32, 3, 3, 83).image;
    let small = ezw::encode_image_opts(&small, 3, WaveletKind::Cdf53, true).unwrap();
    read_afresh(&small, true, "another shape");
    let grey = synthetic_scene(64, 64, 1, 4, 84).image;
    let grey = ezw::encode_image_opts(&grey, 4, WaveletKind::Cdf53, false).unwrap();
    read_afresh(&grey, true, "another channel count");

    // And a true prefix still replays afterwards.
    ezw::decode_image_reduced_with(&held, 0, &mut warm).unwrap();
    assert_eq!(
        replays_of_warm_decodes(&shorter, 0..=2, &mut warm, true, "prefix"),
        3
    );
}

/// The encoder leaves the record of what it wrote, and a container one
/// byte off it — in any stream, the encoder's own length — is read
/// afresh, never replayed from that record: it gives what a fresh
/// decode gives. The container it wrote, and every cut of it, replays.
#[test]
fn a_byte_off_the_encoders_stream_is_read_afresh() {
    let image = synthetic_scene(64, 64, 3, 4, 85).image;
    let mut warm = CodecScratch::new();
    let encode = |warm: &mut CodecScratch| {
        let cap = Some(3000);
        ezw::encode_image_capped_with(&image, 4, WaveletKind::Cdf53, true, cap, warm)
            .unwrap()
            .to_vec()
    };
    let sent = encode(&mut warm);
    for stream in 0..3 {
        let mut flipped = sent.clone();
        let streams = plane_streams(&sent);
        let start = streams[stream].as_ptr() as usize - sent.as_ptr() as usize;
        flipped[start + streams[stream].len() / 2] ^= 0x10;
        encode(&mut warm);
        let what = format!("a byte changed in stream {stream}");
        // Read once, at the first resolution asked; then replayed.
        assert_eq!(
            replays_of_warm_decodes(&flipped, 0..=2, &mut warm, false, &what),
            2
        );
    }
    encode(&mut warm);
    let cut = ezw::truncate_container(&sent, 2000).unwrap();
    assert_eq!(
        replays_of_warm_decodes(&cut, 0..=2, &mut warm, true, "a cut"),
        3
    );
    assert_eq!(
        replays_of_warm_decodes(&sent, 0..=2, &mut warm, true, "the whole"),
        3
    );
}

/// `Image` geometry sanity for the fixture scene (guards against the
/// synthetic generator changing under the fixture's feet — if this
/// fails, the fixture mismatch above is the generator, not the codec).
#[test]
fn fixture_scene_is_stable() {
    let a = synthetic_scene(64, 64, 3, 4, 7);
    let b = synthetic_scene(64, 64, 3, 4, 7);
    assert_eq!(a.image, b.image);
    assert_eq!(a.image.channels, 3);
    let img: &Image = &a.image;
    assert_eq!((img.width, img.height), (64, 64));
}

// ------------------------------------------------ shared media store

const IMAGE_SELECTOR: &str = "interested_in contains 'image'";

/// Add a wired client that subscribes to images.
fn join_image_client(s: &mut CollaborationSession, name: &str) -> usize {
    use collabqos::prelude::*;
    let mut profile = Profile::new(name);
    profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("image")]),
    );
    let engine = InferenceEngine::new(PolicyDb::new(), QosContract::default());
    s.add_wired_client(profile, engine, SimHost::idle(name))
        .unwrap()
}

/// The packets `share_image` sends for a 64x64 `scene` under `cfg`.
fn shared_packets(cfg: &SessionConfig, scene: &Scene) -> Vec<MediaPacket> {
    let levels = wavelet::max_levels(64, 64).min(5);
    let color = cfg.color_transform && scene.image.channels == 3;
    let full = ezw::encode_image_opts(&scene.image, levels, cfg.wavelet, color).unwrap();
    split_packets(&full, cfg.packets_per_image)
}

/// The store against the plain decoder, through a whole session: two
/// viewers on every (budget, resolution) pair each get exactly
/// `decode_image_reduced` of their own prefix, and the session decoded
/// each distinct (prefix, drop) once — the second viewer of a pair
/// shares the first one's pixels. At 64² and at the benchmark's 256²
/// colour share; a full-resolution view is also the frozen decoder's.
#[test]
fn session_views_equal_plain_decodes_and_decode_once_per_prefix() {
    use collabqos::prelude::*;
    use std::collections::HashSet;
    const PER_PAIR: usize = 2;
    for (channels, side) in [(3, 64), (1, 64), (3, 256)] {
        let cfg = SessionConfig {
            color_transform: true,
            ..SessionConfig::default()
        };
        let mut s = CollaborationSession::new(cfg.clone());
        let publisher = join_image_client(&mut s, "publisher");
        // Client id -> (budget, drop_levels), pairs side by side.
        let mut asks = vec![(0u32, 0usize); publisher + 1];
        for budget in 1..=16u32 {
            for drop in 0..=2usize {
                for i in 0..PER_PAIR {
                    let id = join_image_client(&mut s, &format!("b{budget}-d{drop}-{i}"));
                    let viewer = &mut s.client_mut(id).viewer;
                    viewer.set_packet_budget(budget);
                    viewer.set_resolution(1.0 / (1 << drop) as f64);
                    asks.push((budget, drop));
                    assert_eq!(asks.len(), id + 1);
                }
            }
        }

        let scene = synthetic_scene(side, side, channels, 4, 23);
        let packets = shared_packets(&cfg, &scene);
        s.share_image(publisher, &scene, IMAGE_SELECTOR).unwrap();
        let views = s.pump(Ticks::from_secs(2));
        assert_eq!(views.len(), asks.len() - 1, "every viewer completes");

        let mut distinct = HashSet::new();
        for (id, view) in &views {
            let (budget, drop) = asks[*id];
            let prefix = reassemble_prefix(&packets[..budget as usize]).unwrap();
            let plain = ezw::decode_image_reduced(&prefix, drop).unwrap();
            // Not `assert_eq!`: a mismatch would print both images.
            assert!(
                *view.image == plain,
                "{channels} ch, budget {budget}, drop {drop}"
            );
            assert_eq!((plain.width, plain.height), (side >> drop, side >> drop));
            if drop == 0 {
                let frozen = reference::decode_image(&prefix).unwrap();
                assert!(
                    plain == frozen,
                    "{channels} ch, budget {budget}: the frozen decode"
                );
            }
            distinct.insert((prefix, drop));
        }
        assert_eq!(distinct.len(), 16 * 3);
        let store = s.view_store();
        assert_eq!(store.misses(), distinct.len() as u64, "{channels} ch");
        assert_eq!(store.hits(), (views.len() - distinct.len()) as u64);
        for pair in views.chunks(PER_PAIR) {
            assert!(Arc::ptr_eq(&pair[0].1.image, &pair[1].1.image));
        }
    }
}

/// The encoder is a fresh share's first reader: a cold 6-bpp 256²
/// colour share viewed at 16, 8, 4 and 2 packets decodes every view
/// from the records the encode left — each miss a replay, no symbol
/// read — and each view is what a fresh decode of its container gives.
#[test]
fn a_cold_shares_views_read_no_symbol() {
    use collabqos::prelude::*;
    const BUDGETS: [u32; 4] = [16, 8, 4, 2];
    let cfg = SessionConfig {
        color_transform: true,
        full_stream_bpp: Some(6.0),
        ..SessionConfig::default()
    };
    let mut s = CollaborationSession::new(cfg.clone());
    let publisher = join_image_client(&mut s, "publisher");
    let mut budget_of = vec![0u32; publisher + 1];
    for budget in BUDGETS {
        let id = join_image_client(&mut s, &format!("viewer{budget}"));
        s.client_mut(id).viewer.set_packet_budget(budget);
        budget_of.push(budget);
    }
    let scene = synthetic_scene(256, 256, 3, 5, 11);
    let cap = Some(256 * 256 * 6 / 8);
    let sent = ezw::encode_image_capped(&scene.image, 5, cfg.wavelet, true, cap).unwrap();
    let packets = split_packets(&sent, cfg.packets_per_image);
    s.share_image(publisher, &scene, IMAGE_SELECTOR).unwrap();
    let views = s.pump(Ticks::from_secs(2));
    assert_eq!(views.len(), BUDGETS.len());
    for (id, view) in &views {
        let prefix = reassemble_prefix(&packets[..budget_of[*id] as usize]).unwrap();
        let fresh = ezw::decode_image_reduced(&prefix, 0).unwrap();
        assert!(*view.image == fresh, "budget {}", budget_of[*id]);
    }
    let store = s.view_store();
    assert_eq!(store.misses(), BUDGETS.len() as u64);
    assert_eq!(store.replays(), store.misses(), "a view read symbols");
}

/// Where the store gives nothing: more distinct prefixes in a round
/// than it holds views, asked for in the same order round after round,
/// so each is evicted just before its second asker arrives. Every ask
/// decodes, as it did before there was a store, and every view is still
/// the plain decoder's.
#[test]
fn more_prefixes_than_the_store_holds_decode_per_viewer() {
    use collabqos::prelude::*;
    const BUDGETS: [u32; 5] = [16, 12, 8, 4, 2];
    const VIEWERS: usize = 2 * BUDGETS.len();
    let cfg = SessionConfig::default();
    let mut s = CollaborationSession::new(cfg.clone());
    let publisher = join_image_client(&mut s, "publisher");
    let mut budget_of = vec![0u32; publisher + 1];
    for (i, &budget) in BUDGETS.iter().cycle().take(VIEWERS).enumerate() {
        let id = join_image_client(&mut s, &format!("viewer{i}"));
        s.client_mut(id).viewer.set_packet_budget(budget);
        budget_of.push(budget);
    }
    let scene = synthetic_scene(64, 64, 1, 4, 29);
    let packets = shared_packets(&cfg, &scene);
    s.share_image(publisher, &scene, IMAGE_SELECTOR).unwrap();
    let views = s.pump(Ticks::from_secs(2));
    assert_eq!(views.len(), VIEWERS);
    for (id, view) in &views {
        let prefix = reassemble_prefix(&packets[..budget_of[*id] as usize]).unwrap();
        assert!(*view.image == ezw::decode_image(&prefix).unwrap());
    }
    let store = s.view_store();
    assert!(store.len() < BUDGETS.len(), "the round does not fit");
    // In client order the cycle evicts every view before its second
    // asker.
    assert_eq!((store.hits(), store.misses()), (0, VIEWERS as u64));
}

/// The events that carry `container` as object `object_id`, each in a
/// message of its own as a viewer is handed it.
fn image_events(object_id: u64, container: &[u8], image: &Image) -> Vec<Arc<WireMessage>> {
    let packets = split_packets(container, 4);
    let meta = AppEvent::ImageMeta {
        object_id,
        caption: String::new(),
        original_bytes: image.byte_len() as u64,
        pixels: image.pixels() as u64,
        total_packets: packets.len() as u16,
    };
    let packets = packets
        .into_iter()
        .map(|packet| AppEvent::ImagePacket { object_id, packet });
    std::iter::once(meta)
        .chain(packets)
        .map(|ev| {
            let wire = SemanticMessage {
                sender: String::new(),
                kind: ev.kind().to_string(),
                selector: String::new(),
                seq: 0,
                content: Default::default(),
                body: ev.encode(),
            }
            .encode();
            Arc::new(WireMessage::decode(&wire).expect("an encoded message reads"))
        })
        .collect()
}

/// The key is the bytes: two streams of one length under one object id
/// share nothing a weaker key would compare, and still never alias.
#[test]
fn equal_length_containers_under_one_object_id_never_alias() {
    let mut store = MediaStore::new();
    let containers: Vec<(Vec<u8>, Image)> = [31u64, 32]
        .into_iter()
        .map(|seed| {
            let image = synthetic_scene(64, 64, 1, 4, seed).image;
            let full = ezw::encode_image(&image, 4, WaveletKind::Cdf53).unwrap();
            (ezw::truncate_container(&full, 1500).unwrap(), image)
        })
        .collect();
    assert_eq!(containers[0].0.len(), containers[1].0.len());
    assert_ne!(containers[0].0, containers[1].0);
    let mut shown = Vec::new();
    // Twice over, so the second pass is answered from the store.
    for (container, image) in containers.iter().chain(&containers) {
        let mut viewer = ImageViewer::new(4);
        let view = image_events(7, container, image)
            .iter()
            .find_map(|m| {
                viewer.apply_delivered(&EventView::parse(m.body()).unwrap(), m, false, &mut store)
            })
            .expect("completes");
        assert!(*view.image == ezw::decode_image(container).unwrap());
        shown.push(view.image);
    }
    assert!(shown[0] != shown[1]);
    assert_eq!((store.misses(), store.hits()), (2, 2));
}

/// The store is a small fixed size whatever passes through it.
#[test]
fn a_hundred_objects_leave_a_handful_of_views() {
    let mut store = MediaStore::new();
    let mut held = Vec::new();
    for seed in 0..100 {
        let image = synthetic_scene(16, 16, 1, 2, seed).image;
        let container = ezw::encode_image(&image, 2, WaveletKind::Haar).unwrap();
        assert_eq!(*store.view(container, 0).unwrap(), image);
        held.push(store.len());
    }
    assert_eq!(store.misses(), 100, "the scenes are distinct");
    let cap = held[99];
    assert!(cap <= 8, "{cap} views held");
    assert!(held.iter().all(|&n| n <= cap), "never more than at the end");
    assert_eq!(held[50], cap, "full long before the hundredth");
}

/// One `CodecScratch` across images of alternating shape, channel
/// count, prefix length and resolution decodes each exactly as a fresh
/// scratch does: no geometry, bitmap, list or tile survives a call.
#[test]
fn warm_decode_scratch_is_equivalent_to_fresh_scratch() {
    let wide = {
        // The top-left 64x32 of a square scene.
        let square = synthetic_scene(64, 64, 1, 3, 53).image;
        let mut img = Image::new(64, 32, 1);
        img.data.copy_from_slice(&square.data[..64 * 32]);
        img
    };
    let images = [
        (synthetic_scene(256, 256, 3, 5, 51).image, 5, true),
        (synthetic_scene(64, 64, 1, 4, 52).image, 4, false),
        (wide, 3, false),
    ];
    let containers: Vec<Vec<u8>> = images
        .iter()
        .map(|(img, levels, color)| {
            ezw::encode_image_opts(img, *levels, WaveletKind::Cdf53, *color).unwrap()
        })
        .collect();
    let mut warm = CodecScratch::new();
    for round in 0..3 {
        for (full, (image, ..)) in containers.iter().zip(&images) {
            // A different cut and resolution each time round.
            let cut = ezw::truncate_container(full, full.len() >> round).unwrap();
            for drop in 0..=2 {
                let fresh = ezw::decode_image_reduced(&cut, drop).unwrap();
                let kept = ezw::decode_image_reduced_with(&cut, drop, &mut warm).unwrap();
                assert!(
                    kept == fresh,
                    "{}x{} round {round} drop {drop}",
                    image.width,
                    image.height
                );
            }
        }
    }
    let whole = ezw::decode_image_reduced_with(&containers[0], 0, &mut warm).unwrap();
    assert!(
        whole == images[0].0,
        "and the full stream is still lossless"
    );
}

/// A decode into a recycled pixel buffer — shorter, longer or as long
/// as the image, and full of garbage — returns exactly the image a
/// fresh decode does: every byte of the buffer is written.
#[test]
fn a_decode_into_a_recycled_garbage_buffer_equals_a_fresh_decode() {
    for (channels, color) in [(1, false), (3, true)] {
        let image = synthetic_scene(64, 64, channels, 4, 61).image;
        let full = ezw::encode_image_opts(&image, 4, WaveletKind::Cdf53, color).unwrap();
        for cut in [full.len(), full.len() / 3] {
            let container = ezw::truncate_container(&full, cut).unwrap();
            for drop in 0..=2 {
                let fresh = ezw::decode_image_reduced(&container, drop).unwrap();
                for len in [7, fresh.data.len(), 3 * image.data.len() + 5] {
                    let mut scratch = CodecScratch::new();
                    // Warm the scratch on the same stream first, so the
                    // recycled buffer is the only thing that differs.
                    ezw::decode_image_reduced_with(&container, drop, &mut scratch).unwrap();
                    let garbage: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                    scratch.recycle(Image {
                        width: 1,
                        height: len,
                        channels: 1,
                        data: garbage,
                    });
                    let kept = ezw::decode_image_reduced_with(&container, drop, &mut scratch);
                    assert!(
                        kept.unwrap() == fresh,
                        "{channels} ch, cut {cut}, drop {drop}, {len}-byte spare"
                    );
                }
            }
        }
    }
}

/// FNV-1a over an image's pixels.
fn pixel_hash(image: &Image) -> u64 {
    image.data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The store recycles an evicted view's pixels into the next decode,
/// but only when it held the last reference: a view a caller still
/// holds keeps its pixels while many distinct views come and go.
#[test]
fn a_view_a_caller_holds_is_never_recycled() {
    use collabqos::prelude::*;
    const BUDGETS: [u32; 4] = [16, 8, 4, 2];
    let mut s = CollaborationSession::new(SessionConfig {
        color_transform: true,
        ..SessionConfig::default()
    });
    let publisher = join_image_client(&mut s, "publisher");
    for (i, &budget) in BUDGETS.iter().enumerate() {
        let id = join_image_client(&mut s, &format!("viewer{i}"));
        s.client_mut(id).viewer.set_packet_budget(budget);
    }
    let mut held = None;
    for round in 0..8u64 {
        let scene = synthetic_scene(64, 64, 3, 4, 70 + round);
        s.share_image(publisher, &scene, IMAGE_SELECTOR).unwrap();
        let views = s.pump(Ticks::from_secs(2));
        assert_eq!(views.len(), BUDGETS.len());
        for id in 0..s.client_count() {
            s.client_mut(id).viewer.viewed.clear();
        }
        if round == 0 {
            let image = Arc::clone(&views[0].1.image);
            held = Some((pixel_hash(&image), image.as_ref().clone(), image));
        }
    }
    // Every round's four prefixes evicted the round before's four.
    assert_eq!(s.view_store().misses(), 8 * BUDGETS.len() as u64);
    let (hash, copy, image) = held.unwrap();
    assert_eq!(pixel_hash(&image), hash, "a held view was written over");
    assert!(*image == copy);
}

/// Recycled pixels and reassembly buffers change nothing a session
/// shows: over rounds of shares that evict each other's views, every
/// viewer gets the plain decoder's pixels of its own prefix, and the
/// store decodes each of a round's four prefixes once.
#[test]
fn recycling_views_changes_no_pixel_and_no_count() {
    use collabqos::prelude::*;
    const BUDGETS: [u32; 8] = [16, 8, 4, 2, 16, 8, 4, 16];
    let cfg = SessionConfig {
        color_transform: true,
        full_stream_bpp: Some(6.0),
        ..SessionConfig::default()
    };
    let mut s = CollaborationSession::new(cfg.clone());
    let publisher = join_image_client(&mut s, "publisher");
    for (i, &budget) in BUDGETS.iter().enumerate() {
        let id = join_image_client(&mut s, &format!("viewer{i}"));
        s.client_mut(id).viewer.set_packet_budget(budget);
    }
    let levels = wavelet::max_levels(64, 64).min(5);
    let mut views = 0;
    for round in 0..6u64 {
        let scene = synthetic_scene(64, 64, 3, 4, 80 + round);
        let cap = 64 * 64 * 6 / 8;
        let sent =
            ezw::encode_image_capped(&scene.image, levels, cfg.wavelet, true, Some(cap)).unwrap();
        let packets = split_packets(&sent, cfg.packets_per_image);
        s.share_image(publisher, &scene, IMAGE_SELECTOR).unwrap();
        for (id, view) in s.pump(Ticks::from_secs(2)) {
            let prefix = reassemble_prefix(&packets[..view.packets_accepted as usize]).unwrap();
            let plain = ezw::decode_image(&prefix).unwrap();
            assert!(*view.image == plain, "round {round}, client {id}");
            views += 1;
        }
        for id in 0..s.client_count() {
            s.client_mut(id).viewer.viewed.clear();
        }
    }
    assert_eq!(views, 6 * BUDGETS.len());
    let store = s.view_store();
    assert_eq!((store.hits(), store.misses()), (6 * 4, 6 * 4));
}
