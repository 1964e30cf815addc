//! Differential suite pinning the optimized media codec to the frozen
//! pre-refactor implementation (`media::reference`).
//!
//! The fast path (reusable wavelet scratch, blocked column pass,
//! list-driven EZW passes, word-batched bit I/O) is only allowed to be
//! *faster* — the wire format must stay bit-identical. Every property
//! here compares the live coder against the verbatim copy of the old
//! one on arbitrary planes, including truncated prefixes, and a golden
//! fixture pins one full encoded color image so a regression in both
//! paths at once cannot hide behind the differential.
//!
//! Regenerate the fixture (only after an *intentional* format change)
//! with: `REGEN_MEDIA_FIXTURES=1 cargo test --test media_codec`.

use collabqos::media::ezw::{self, EzwDecoder, EzwEncoder, EzwScratch};
use collabqos::media::image::{synthetic_scene, Image};
use collabqos::media::reference;
use collabqos::media::wavelet::{self, WaveletKind, WaveletScratch};
use proptest::prelude::*;

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
    /// the list-driven dominant pass and batched bit writer change
    /// nothing on the wire.
    #[test]
    fn encode_plane_is_byte_identical((w, h, levels, coeffs) in arb_coeffs()) {
        let fast = EzwEncoder::encode_plane(&coeffs, w, h, levels);
        let slow = reference::encode_plane(&coeffs, w, h, levels);
        prop_assert_eq!(&fast, &slow, "{}x{} L{}", w, h, levels);
        // And the full stream decodes losslessly through both decoders.
        let dfast = EzwDecoder::decode_plane(&fast).unwrap();
        let dslow = reference::decode_plane(&slow).unwrap();
        prop_assert_eq!(&dfast.coeffs, &coeffs);
        prop_assert_eq!(&dslow.coeffs, &coeffs);
    }

    /// Any prefix decodes to the same coefficients through the
    /// list-driven decoder and the reference decoder — truncation
    /// behavior (mid-symbol cuts, uncertainty-interval offset) is
    /// pinned too.
    #[test]
    fn truncated_decode_matches_reference(
        (w, h, levels, coeffs) in arb_coeffs(),
        cut_ppm in 0u32..=1_000_000,
    ) {
        let stream = EzwEncoder::encode_plane(&coeffs, w, h, levels);
        let body = stream.len() - ezw::PLANE_HEADER_LEN;
        let keep = ezw::PLANE_HEADER_LEN + (body as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let prefix = &stream[..keep];
        let fast = EzwDecoder::decode_plane(prefix).unwrap();
        let slow = reference::decode_plane(prefix).unwrap();
        prop_assert_eq!(fast.coeffs, slow.coeffs, "{}x{} L{} keep {}", w, h, levels, keep);
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

/// End-to-end differential on real image content: transform + encode
/// through the public pipeline equals reference transform + encode per
/// plane, for both wavelets.
#[test]
fn image_pipeline_matches_reference_per_plane() {
    for (w, h, levels, kind, seed) in [
        (64, 64, 4, WaveletKind::Cdf53, 42u64),
        (64, 32, 3, WaveletKind::Haar, 43),
        (48, 48, 2, WaveletKind::Cdf53, 44),
    ] {
        let scene = synthetic_scene(w, h, 1, 3, seed);
        let mut plane = scene.image.plane(0);
        for v in plane.iter_mut() {
            *v -= 128;
        }
        let mut slow = plane.clone();
        reference::forward_2d(&mut slow, w, h, levels, kind);
        let expected = reference::encode_plane(&slow, w, h, levels);

        let mut ws = WaveletScratch::new();
        let mut es = EzwScratch::new();
        let got = ezw::encode_prepared_plane(&mut plane, w, h, levels, kind, &mut ws, &mut es);
        assert_eq!(got, expected, "{kind:?} {w}x{h} L{levels} seed {seed}");
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
    use collabqos::media::packetize::{reassemble_prefix, split_packets};
    let scene = synthetic_scene(256, 256, 3, 5, 11);
    let full = ezw::encode_image_opts(&scene.image, 5, WaveletKind::Cdf53, true).unwrap();
    let packets = split_packets(&full, 16);
    let mut warm = EzwScratch::new();
    for k in 1..=16 {
        let container = reassemble_prefix(&packets[..k]).unwrap();
        let mut planes = Vec::new();
        for stream in plane_streams(&container) {
            let frozen = reference::decode_plane(stream).unwrap();
            assert_eq!(
                EzwDecoder::decode_plane_with(stream, &mut warm).unwrap(),
                frozen
            );
            assert_eq!(EzwDecoder::decode_plane(stream).unwrap(), frozen, "k={k}");
            planes.push(frozen);
        }
        // And `decode_image` is those planes, inverse-transformed.
        for (i, p) in planes.iter_mut().enumerate() {
            reference::inverse_2d(&mut p.coeffs, 256, 256, 5, WaveletKind::Cdf53);
            if i == 0 {
                p.coeffs.iter_mut().for_each(|v| *v += 128);
            }
        }
        let [y, co, cg] = &mut planes[..] else {
            panic!("three planes")
        };
        collabqos::media::color::inverse_planes(&mut y.coeffs, &mut co.coeffs, &mut cg.coeffs);
        let mut expected = Image::new(256, 256, 3);
        for (c, p) in planes.iter().enumerate() {
            expected.set_plane(c, &p.coeffs);
        }
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
