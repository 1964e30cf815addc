//! Media codec throughput: wavelet + EZW encode and decode in
//! Mpixel/s against the frozen pre-refactor implementation
//! (`media::reference`), plus embedded-container truncation in MB/s
//! of output produced (a prefix cut — the per-client degradation the
//! transcode cache makes nearly free).
//!
//! Every scenario *asserts* bit-identity while it measures — the fast
//! path's encoded bytes must equal the reference coder's on the same
//! plane, and the decoded coefficients must round-trip — so a wire
//! regression cannot masquerade as a fast run. The speedup columns
//! are printed, never asserted: a wall-clock ratio depends on the
//! host, and the repo benchmark's `media.encode_ms_per_share` /
//! `media.decode_ms_per_view` are what judge the codec's speed.
//!
//! Viewers do not decode full lossless planes: they decode a *prefix*
//! of the colour container a share sends (6 bpp, the benchmark's
//! `full_stream_bpp`), as long as their packet budget. The prefix rows
//! time exactly that — 1/2, 1/4 and 1/8 of the 6-bpp container through
//! `decode_image`, inverse wavelet and colour transform included.
//!
//! And they do not each decode alone: viewers on one packet budget
//! hold one prefix, and a session's `ViewStore` decodes it once. The
//! fan-out row runs the benchmark's eight viewers on four budgets, a
//! new share each round, through one shared store and through a store
//! each, and asserts that the shared store decoded exactly the
//! distinct prefixes and that every view is the frozen decoder's image
//! of its prefix.
//!
//! Two rows show what a share and its views no longer do. The sender
//! codes to the session's rate cap and stops: "capped encode" beside
//! "full encode + truncate", the same bytes asserted. A receiver reads
//! the symbols of a shared object once: the four packet prefixes of one
//! share through one `DecodeScratch`, longest first (one symbol decode,
//! three replays of its record) beside shortest first (four symbol
//! decodes — nothing read so far is a prefix of what is asked next, the
//! regime where the record gives nothing), every view asserted equal to
//! the frozen decoder's.
//!
//! Under all of it sits the transform, the one media cost no prefix,
//! cache or replay avoids: the "wavelet" table times the forward and
//! the inverse alone, per plane, at 64², 256² and 512² for both
//! filters beside `media::reference`, coefficients asserted equal in
//! both directions.
//!
//! The "phases" table takes one 6-bpp 256² colour share apart, the way
//! the session sends and views it: `prepare_planes`, the forward,
//! `measure_plane`, `emit_plane` through warm and through fresh scratch
//! and at ½, ¼, ⅛ and 1/1000 of the cap, a plane decode, a container
//! decode that reads the symbols and one that replays them, the inverse
//! and the finish — with the dominant symbols and refinement bits the
//! share codes, counted from the coder's rules alone. Every emitted
//! stream is asserted equal to `encode_image_capped`'s, and every
//! length `measure_plane` sized up equal to the rules' count over the
//! whole plane. CI prints this table for the merge base beside HEAD;
//! nothing compares its times.
//!
//! `--quick` trims the repetition count, not the scenarios — the
//! identity asserts always run.

use bench::{fmt, header, quick_mode, row, time_best};
use cqos_core::apps::{ImageViewer, ViewStore};
use cqos_core::events::{AppEvent, EventView};
use media::color;
use media::ezw::{self, DecodeScratch, EzwDecoder, EzwEncoder, EzwScratch, PlaneAnalysis};
use media::image::{synthetic_scene, Image};
use media::packetize::{reassemble_prefix, split_packets};
use media::reference;
use media::wavelet::{self, WaveletKind, WaveletScratch};
use sempubsub::{SemanticMessage, WireMessage};
use std::sync::Arc;

/// Plane geometries: width, height, wavelet levels.
const SCENARIOS: &[(usize, usize, usize)] = &[(256, 256, 4), (512, 512, 4)];
/// Rate of the colour container the prefix rows cut, in bits per pixel.
const PREFIX_BPP: usize = 6;
/// Prefix lengths, as divisors of the 6-bpp container.
const PREFIX_CUTS: [usize; 3] = [2, 4, 8];

struct Measured {
    encode_mpix: f64,
    ref_encode_mpix: f64,
    decode_mpix: f64,
    ref_decode_mpix: f64,
    truncate_mb_s: f64,
    stream_bytes: usize,
    /// `decode_image` seconds per prefix of [`PREFIX_CUTS`].
    prefix_secs: [f64; 3],
}

/// Bench one plane geometry: fast vs reference encode/decode plus
/// container truncation, asserting byte/coeff identity throughout.
fn run(w: usize, h: usize, levels: usize, reps: usize) -> Measured {
    let kind = WaveletKind::Cdf53;
    let scene = synthetic_scene(w, h, 1, 4, 42);
    let mut pristine = scene.image.plane(0);
    for v in pristine.iter_mut() {
        *v -= 128;
    }
    let pixels = (w * h) as f64;
    let mut ws = WaveletScratch::new();
    let mut es = EzwScratch::new();
    let mut buf = vec![0i32; w * h];

    // Fast path: transform + encode with warm scratch.
    let (stream, fast_secs) = time_best(reps, || {
        buf.copy_from_slice(&pristine);
        ezw::encode_prepared_plane(&mut buf, w, h, levels, kind, &mut ws, &mut es)
    });
    // Reference path: the verbatim pre-refactor coder.
    let (ref_stream, ref_secs) = time_best(reps, || {
        buf.copy_from_slice(&pristine);
        reference::forward_2d(&mut buf, w, h, levels, kind);
        reference::encode_plane(&buf, w, h, levels)
    });
    assert_eq!(
        stream, ref_stream,
        "fast encoder must be bit-identical to the reference"
    );

    // Decode (coefficients only — the inverse wavelet is shared).
    let (decoded, dec_secs) = time_best(reps, || {
        EzwDecoder::decode_plane_with(&stream, &mut es).expect("own stream decodes")
    });
    let (ref_decoded, ref_dec_secs) = time_best(reps, || {
        reference::decode_plane(&ref_stream).expect("own stream decodes")
    });
    assert_eq!(decoded.coeffs, ref_decoded.coeffs, "decoders agree");
    buf.copy_from_slice(&pristine);
    reference::forward_2d(&mut buf, w, h, levels, kind);
    assert_eq!(decoded.coeffs, buf, "full stream is lossless");

    // Truncation: the per-client degradation the transcode cache makes
    // "nearly free" — one prefix cut of a whole encoded container.
    let container = ezw::encode_image(&scene.image, levels, kind).expect("container encodes");
    let budget = container.len() / 4;
    let (cut, trunc_secs) = time_best(reps.max(32), || {
        ezw::truncate_container(&container, budget).expect("cut is valid")
    });
    assert!(
        ezw::decode_image(&cut).is_ok(),
        "truncated container decodes"
    );

    // What a viewer decodes: a prefix of the 6-bpp colour container.
    let color = synthetic_scene(w, h, 3, 4, 42).image;
    let shared = ezw::encode_image_opts(&color, levels, kind, true).expect("container encodes");
    let shared = ezw::truncate_container(&shared, w * h * PREFIX_BPP / 8).expect("cut is valid");
    let prefix_secs = PREFIX_CUTS.map(|div| {
        let prefix = ezw::truncate_container(&shared, shared.len() / div).expect("cut is valid");
        let (view, secs) = time_best(reps, || ezw::decode_image(&prefix).expect("prefix decodes"));
        assert_eq!((view.width, view.height, view.channels), (w, h, 3));
        secs
    });

    Measured {
        encode_mpix: pixels / fast_secs / 1e6,
        ref_encode_mpix: pixels / ref_secs / 1e6,
        decode_mpix: pixels / dec_secs / 1e6,
        ref_decode_mpix: pixels / ref_dec_secs / 1e6,
        truncate_mb_s: budget as f64 / trunc_secs / 1e6,
        stream_bytes: stream.len(),
        prefix_secs,
    }
}

/// Packet budgets of the repo benchmark's `image_fanout` viewers at
/// seed 11: eight viewers, four distinct prefixes.
const FANOUT_BUDGETS: [u32; 8] = [16, 8, 4, 2, 16, 8, 4, 16];
const FANOUT_SIDE: usize = 256;
const FANOUT_LEVELS: usize = 5;

/// One share of the fan-out row: its events, each in a message of its
/// own as a viewer is handed it, and per distinct budget the image the
/// frozen decoder makes of that prefix.
struct FanoutShare {
    messages: Vec<Arc<WireMessage>>,
    expected: Vec<(u32, Image)>,
}

fn fanout_share(object_id: u64, seed: u64) -> FanoutShare {
    let scene = synthetic_scene(FANOUT_SIDE, FANOUT_SIDE, 3, 5, seed);
    let full = ezw::encode_image_opts(&scene.image, FANOUT_LEVELS, WaveletKind::Cdf53, true)
        .expect("container encodes");
    let sent = ezw::truncate_container(&full, scene.image.pixels() * PREFIX_BPP / 8)
        .expect("cut is valid");
    let packets = split_packets(&sent, 16);
    let mut budgets = FANOUT_BUDGETS.to_vec();
    budgets.sort_unstable();
    budgets.dedup();
    let expected = budgets
        .into_iter()
        .map(|b| {
            let prefix = reassemble_prefix(&packets[..b as usize]).expect("prefix verifies");
            let view = reference::decode_image(&prefix).expect("prefix decodes");
            (b, view)
        })
        .collect();
    let meta = AppEvent::ImageMeta {
        object_id,
        caption: scene.caption.clone(),
        original_bytes: scene.image.byte_len() as u64,
        pixels: scene.image.pixels() as u64,
        total_packets: packets.len() as u16,
    };
    let packets = packets
        .into_iter()
        .map(|packet| AppEvent::ImagePacket { object_id, packet });
    let messages = std::iter::once(meta)
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
        .collect();
    FanoutShare { messages, expected }
}

/// Deliver a round's share to the eight viewers, round after round,
/// viewer `i` decoding through `stores[i % stores.len()]` (one store:
/// shared; eight: one each); returns the decodes the last round ran
/// and the best round's seconds. Every round has a share of its own,
/// as every round of the benchmark shares a new object, so no store
/// holds anything of the round before the round's first viewer asks.
fn fanout_rounds(shares: &[FanoutShare], stores: &[ViewStore]) -> (u64, f64) {
    let decodes = || stores.iter().map(ViewStore::misses).sum::<u64>();
    let mut rounds = shares.iter();
    let (per_round, secs) = time_best(shares.len(), || {
        let share = rounds.next().expect("a share per round");
        let before = decodes();
        for (&budget, store) in FANOUT_BUDGETS.iter().zip(stores.iter().cycle()) {
            let mut viewer = ImageViewer::with_store(budget, store.clone());
            let view = share
                .messages
                .iter()
                .find_map(|m| {
                    let ev = EventView::parse(m.body()).expect("an encoded event parses");
                    viewer.apply_delivered(&ev, m)
                })
                .expect("viewer completes");
            let (_, expected) = share
                .expected
                .iter()
                .find(|(b, _)| *b == budget)
                .expect("budget listed");
            assert!(
                *view.image == *expected,
                "budget {budget}: view differs from the reference decode"
            );
        }
        decodes() - before
    });
    (per_round, secs)
}

/// The fan-out scene `seed`, and the byte cap of a 6-bpp share of it.
fn capped_scene(seed: u64) -> (Image, usize) {
    let image = synthetic_scene(FANOUT_SIDE, FANOUT_SIDE, 3, 5, seed).image;
    let cap = image.pixels() * PREFIX_BPP / 8;
    (image, cap)
}

/// Encode the fan-out scene to its 6-bpp cap, and to the end with a
/// cut afterwards: `(capped secs, full + truncate secs, bytes)`, the
/// two containers asserted equal.
fn capped_encode_row(reps: usize) -> (f64, f64, usize) {
    let kind = WaveletKind::Cdf53;
    let (image, cap) = capped_scene(42);
    let (capped, capped_secs) = time_best(reps, || {
        ezw::encode_image_capped(&image, FANOUT_LEVELS, kind, true, Some(cap)).expect("encodes")
    });
    let (cut, cut_secs) = time_best(reps, || {
        let full = ezw::encode_image_opts(&image, FANOUT_LEVELS, kind, true).expect("encodes");
        ezw::truncate_container(&full, cap).expect("cut is valid")
    });
    assert!(
        capped == cut,
        "the capped encode is the cut of the full one"
    );
    (capped_secs, cut_secs, capped.len())
}

/// Packet counts of the fan-out viewers' four prefixes, longest first.
const NESTED_PACKETS: [usize; 4] = [16, 8, 4, 2];

/// Decode the four nested prefixes of a share through one scratch, a
/// new share each round (so nothing of the round before is a prefix of
/// anything asked), in `order`: best seconds per round and the replays
/// of the last round. Every view is asserted to be the frozen
/// decoder's image of its prefix.
fn nested_prefix_rounds(shares: &[Vec<(Vec<u8>, Image)>], order: &[usize]) -> (u64, f64) {
    let mut scratch = DecodeScratch::new();
    let mut rounds = shares.iter();
    time_best(shares.len(), || {
        let prefixes = rounds.next().expect("a share per round");
        let before = scratch.replays();
        for &i in order {
            let (prefix, expected) = &prefixes[i];
            let view = ezw::decode_image_reduced_with(prefix, 0, &mut scratch).expect("decodes");
            assert!(view == *expected, "{} packets", NESTED_PACKETS[i]);
        }
        scratch.replays() - before
    })
}

/// Sides of the square planes the wavelet table transforms.
const WAVELET_SIDES: [usize; 3] = [64, 256, 512];

/// Round trips of `plane` through `step(buf, inverse)`: the best
/// seconds of the forward and of the inverse, and the coefficients in
/// between; the way back is asserted lossless every time.
fn round_trips(
    plane: &[i32],
    reps: usize,
    mut step: impl FnMut(&mut [i32], bool),
) -> (Vec<i32>, [f64; 2]) {
    let mut buf = plane.to_vec();
    let mut coeffs = Vec::new();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps {
        best[0] = best[0].min(time_best(1, || step(&mut buf, false)).1);
        coeffs.clone_from(&buf);
        best[1] = best[1].min(time_best(1, || step(&mut buf, true)).1);
        assert_eq!(buf, plane, "the inverse undoes the forward");
    }
    (coeffs, best)
}

/// One `side x side` plane at the session's depth through the live
/// transform and the frozen one: seconds `[forward, ref forward,
/// inverse, ref inverse]`, the coefficients asserted equal.
fn wavelet_row(side: usize, kind: WaveletKind, reps: usize) -> [f64; 4] {
    let levels = wavelet::max_levels(side, side).min(FANOUT_LEVELS);
    let mut plane = synthetic_scene(side, side, 1, 4, 42).image.plane(0);
    for v in plane.iter_mut() {
        *v -= 128;
    }
    let mut ws = WaveletScratch::new();
    let (live, [fwd, inv]) = round_trips(&plane, reps, |buf, inverse| match inverse {
        false => wavelet::forward_2d_with(buf, side, side, levels, kind, &mut ws),
        true => wavelet::inverse_2d_with(buf, side, side, levels, kind, &mut ws),
    });
    let (frozen, [ref_fwd, ref_inv]) = round_trips(&plane, reps, |buf, inverse| match inverse {
        false => reference::forward_2d(buf, side, side, levels, kind),
        true => reference::inverse_2d(buf, side, side, levels, kind),
    });
    assert_eq!(live, frozen, "{kind:?} {side}x{side}: coefficients");
    [fwd, ref_fwd, inv, ref_inv]
}

/// Fractions of the cap the extra `emit_plane` rows stop at, as
/// divisors.
const EMIT_CUTS: [usize; 4] = [2, 4, 8, 1000];

/// The dominant symbols and refinement bits the first `body_bits` of a
/// plane stream code, counted from the coder's rules alone — over bit
/// positions and coordinates, independent of either walk. A coefficient
/// is coded from the plane its parent's subtree maximum reaches (the
/// top one for the coarsest LL) down to the plane it is significant in;
/// a symbol is 1 bit, 2 for a parent with something significant below
/// it, 2 when significant, 3 for a significant parent; every plane
/// below its significance refines it by one bit. Also returns the bits
/// those take, which end less than a byte short of `body_bits` when
/// the stream is what the rules say.
fn count_symbols(coeffs: &[i32], w: usize, h: usize, levels: usize, body_bits: u64) -> [u64; 3] {
    let pos = |c: i32| 32 - c.unsigned_abs().leading_zeros();
    let (wl, hl) = (w >> levels, h >> levels);
    let mut scan: Vec<usize> = (0..hl)
        .flat_map(|y| (0..wl).map(move |x| y * w + x))
        .collect();
    for l in (1..=levels).rev() {
        let (wb, hb) = (w >> l, h >> l);
        for (x0, y0) in [(wb, 0), (0, hb), (wb, hb)] {
            scan.extend((y0..y0 + hb).flat_map(|y| (x0..x0 + wb).map(move |x| y * w + x)));
        }
    }
    let children: Vec<Vec<usize>> = (0..w * h)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            if x < wl && y < hl {
                vec![i + wl, i + hl * w, i + hl * w + wl]
            } else if 2 * x < w && 2 * y < h {
                let c = 2 * y * w + 2 * x;
                vec![c, c + 1, c + w, c + w + 1]
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut smax: Vec<u32> = coeffs.iter().map(|&c| pos(c)).collect();
    for &i in scan.iter().rev() {
        smax[i] = children[i].iter().fold(smax[i], |m, &k| m.max(smax[k]));
    }
    let top = smax.iter().copied().max().unwrap_or(0);
    let mut act = vec![top; w * h];
    for &i in &scan {
        for &k in &children[i] {
            act[k] = smax[i];
        }
    }
    let (mut bits, mut symbols, mut refinements) = (0u64, 0u64, 0u64);
    for p in (1..=top).rev() {
        for &i in &scan {
            let m = pos(coeffs[i]);
            if act[i] < p || m > p {
                continue;
            }
            let parent = !children[i].is_empty();
            let len = if m == p {
                2 + parent as u64
            } else {
                1 + (parent && smax[i] >= p) as u64
            };
            if bits + len > body_bits {
                return [symbols, refinements, bits];
            }
            bits += len;
            symbols += 1;
        }
        let refine = coeffs.iter().filter(|&&c| pos(c) > p).count() as u64;
        let room = refine.min(body_bits - bits);
        bits += room;
        refinements += room;
    }
    [symbols, refinements, bits]
}

/// One 6-bpp 256² colour share, phase by phase: the send path
/// (`prepare_planes`, forward, `measure_plane`, `emit_plane` through
/// warm and through fresh scratch, and at fractions of the cap) and the
/// receive path (a plane decode, a container decode that reads the
/// symbols and one that replays them, the inverse, the finish). Best of
/// `reps`, in ms per share (three planes). The emitted bytes are
/// asserted equal to `encode_image_capped`'s, and the measured lengths
/// to `count_symbols` run over each whole plane.
fn phase_table(reps: usize) {
    let kind = WaveletKind::Cdf53;
    let (side, levels) = (FANOUT_SIDE, FANOUT_LEVELS);
    let (image, cap) = capped_scene(42);
    let (prepared, prepare_secs) = time_best(reps, || {
        ezw::prepare_planes(&image, true).expect("3 channels")
    });
    let mut ws = WaveletScratch::new();
    let mut planes = prepared.clone();
    let (_, forward_secs) = time_best(reps, || {
        planes.clone_from(&prepared);
        for plane in planes.iter_mut() {
            wavelet::forward_2d_with(plane, side, side, levels, kind, &mut ws);
        }
    });
    let mut analyses: Vec<PlaneAnalysis> = planes.iter().map(|_| PlaneAnalysis::new()).collect();
    let (lens, measure_secs) = time_best(reps, || {
        planes
            .iter()
            .zip(&mut analyses)
            .map(|(plane, analysis)| EzwEncoder::measure_plane(plane, side, side, levels, analysis))
            .collect::<Vec<usize>>()
    });
    let mut es = EzwScratch::new();
    let mut emit = |keeps: &[usize], fresh: bool| {
        time_best(reps, || {
            planes
                .iter()
                .zip(&analyses)
                .zip(keeps)
                .map(|((plane, analysis), &keep)| match fresh {
                    false => EzwEncoder::emit_plane(plane, analysis, keep, &mut es),
                    true => EzwEncoder::emit_plane(plane, analysis, keep, &mut EzwScratch::new()),
                })
                .collect::<Vec<Vec<u8>>>()
        })
    };
    let keeps = ezw::channel_keeps(&lens, Some(cap));
    let (streams, warm_secs) = emit(&keeps, false);
    let (fresh_streams, fresh_secs) = emit(&keeps, true);
    let sent = ezw::assemble_container(3, kind, true, &streams);
    let capped = ezw::encode_image_capped(&image, levels, kind, true, Some(cap)).expect("encodes");
    assert!(
        sent == capped && streams == fresh_streams,
        "emit_plane == encode_image_capped"
    );
    let cuts = EMIT_CUTS.map(|div| {
        let keeps = ezw::channel_keeps(&lens, Some(cap / div));
        let (cut, secs) = emit(&keeps, false);
        let capped = ezw::encode_image_capped(&image, levels, kind, true, Some(cap / div));
        assert!(ezw::assemble_container(3, kind, true, &cut) == capped.expect("encodes"));
        (div, secs)
    });
    let counts = planes
        .iter()
        .zip(&streams)
        .fold([0u64; 3], |acc, (plane, stream)| {
            let body_bits = (stream.len() - ezw::PLANE_HEADER_LEN) as u64 * 8;
            let [symbols, refinements, bits] = count_symbols(plane, side, side, levels, body_bits);
            assert!(
                body_bits - bits < 8,
                "the stream is what the coder's rules say"
            );
            [acc[0] + symbols, acc[1] + refinements, acc[2] + body_bits]
        });
    for (plane, &len) in planes.iter().zip(&lens) {
        let [_, _, bits] = count_symbols(plane, side, side, levels, u64::MAX);
        assert!(
            ezw::PLANE_HEADER_LEN + bits.div_ceil(8) as usize == len,
            "measure_plane sizes up what the coder's rules code"
        );
    }

    let (_, plane_read_secs) = time_best(reps, || {
        for stream in &streams {
            EzwDecoder::decode_plane_with(stream, &mut es).expect("own stream decodes");
        }
    });
    // Two shares alternated through one scratch: every decode reads.
    let other = {
        let (image, cap) = capped_scene(43);
        ezw::encode_image_capped(&image, levels, kind, true, Some(cap)).expect("encodes")
    };
    let mut ds = DecodeScratch::new();
    let mut shares = [&other, &sent].into_iter().cycle();
    let (_, read_secs) = time_best(reps, || {
        let container = shares.next().expect("cycles");
        ezw::decode_image_reduced_with(container, 0, &mut ds).expect("decodes")
    });
    let before = ds.replays();
    let (view, replay_secs) = time_best(reps, || {
        ezw::decode_image_reduced_with(&sent, 0, &mut ds).expect("decodes")
    });
    assert!(
        ds.replays() - before >= reps as u64 - 1,
        "the record is held"
    );
    assert!(view == reference::decode_image(&sent).expect("decodes"));
    // The inverse and the finish each timed alone, and undone untimed
    // before the next repetition.
    let (mut inverse_secs, mut finish_secs) = (f64::INFINITY, f64::INFINITY);
    let mut finished = prepared;
    for _ in 0..reps {
        let (_, secs) = time_best(1, || {
            for plane in planes.iter_mut() {
                wavelet::inverse_2d_with(plane, side, side, levels, kind, &mut ws);
            }
        });
        inverse_secs = inverse_secs.min(secs);
        for plane in planes.iter_mut() {
            wavelet::forward_2d_with(plane, side, side, levels, kind, &mut ws);
        }
        let [y, co, cg] = &mut finished[..] else {
            unreachable!("three planes")
        };
        let (out, secs) = time_best(1, || {
            for v in y.iter_mut() {
                *v = v.wrapping_add(128);
            }
            color::inverse_planes(y, co, cg);
            let mut out = Image::new(side, side, 3);
            for (c, plane) in [&*y, &*co, &*cg].into_iter().enumerate() {
                out.set_plane(c, plane);
            }
            out
        });
        assert!(
            out == image,
            "the finish of the prepared planes is the image"
        );
        finish_secs = finish_secs.min(secs);
        color::forward_planes(y, co, cg);
        for v in y.iter_mut() {
            *v -= 128;
        }
    }

    println!(
        "phases: one {side}x{side} colour share at {PREFIX_BPP} bpp ({} bytes), ms per share, \
         best of {reps}",
        sent.len()
    );
    println!();
    let widths = [34usize, 8];
    header(&["phase", "ms"], &widths);
    let ms = |secs: f64| format!("{:.3}", secs * 1e3);
    let mut rows = vec![
        ("prepare_planes".to_string(), prepare_secs),
        ("forward x3".to_string(), forward_secs),
        ("measure_plane x3".to_string(), measure_secs),
        ("emit_plane x3, warm scratch".to_string(), warm_secs),
        ("emit_plane x3, fresh scratch".to_string(), fresh_secs),
    ];
    rows.extend(
        cuts.iter()
            .map(|&(div, secs)| (format!("emit_plane x3 at 1/{div} of the cap"), secs)),
    );
    rows.extend([
        ("decode_plane_with x3".to_string(), plane_read_secs),
        ("decode, symbols read".to_string(), read_secs),
        ("decode, symbols replayed".to_string(), replay_secs),
        ("inverse x3".to_string(), inverse_secs),
        ("finish (colour + interleave)".to_string(), finish_secs),
    ]);
    for (phase, secs) in rows {
        row(&[phase, ms(secs)], &widths);
    }
    println!();
    println!(
        "the share codes {} dominant symbols and {} refinement bits, {} bits in all",
        counts[0], counts[1], counts[2]
    );
}

fn main() {
    let reps = if quick_mode() { 10 } else { 20 };
    println!("media codec fast path vs frozen reference (CDF 5/3, grayscale)");
    println!();
    let widths = [9usize, 6, 12, 12, 8, 12, 12, 13, 9];
    header(
        &[
            "plane",
            "levels",
            "enc Mpix/s",
            "ref Mpix/s",
            "speedup",
            "dec Mpix/s",
            "ref Mpix/s",
            "trunc MB/s",
            "bytes",
        ],
        &widths,
    );
    let mut prefixes = Vec::new();
    for &(w, h, levels) in SCENARIOS {
        let m = run(w, h, levels, reps);
        let speedup = m.encode_mpix / m.ref_encode_mpix;
        row(
            &[
                format!("{w}x{h}"),
                levels.to_string(),
                fmt(m.encode_mpix),
                fmt(m.ref_encode_mpix),
                format!("{speedup:.2}x"),
                fmt(m.decode_mpix),
                fmt(m.ref_decode_mpix),
                fmt(m.truncate_mb_s),
                m.stream_bytes.to_string(),
            ],
            &widths,
        );
        prefixes.push((w, h, m.prefix_secs));
    }
    println!();
    println!(
        "prefix decode: {PREFIX_BPP}-bpp colour container through decode_image (YCoCg-R + CDF 5/3)"
    );
    println!();
    let widths = [9usize, 8, 10, 10];
    header(&["image", "prefix", "ms", "Mpix/s"], &widths);
    for (w, h, secs) in prefixes {
        let pixels = (w * h) as f64;
        for (div, s) in PREFIX_CUTS.iter().zip(secs) {
            row(
                &[
                    format!("{w}x{h}"),
                    format!("1/{div}"),
                    format!("{:.3}", s * 1e3),
                    fmt(pixels / s / 1e6),
                ],
                &widths,
            );
        }
    }
    println!();
    let shares: Vec<FanoutShare> = (1..=reps as u64).map(|i| fanout_share(i, 41 + i)).collect();
    let distinct = shares[0].expected.len() as u64;
    let (shared_decodes, shared_secs) = fanout_rounds(&shares, &[ViewStore::new()]);
    let own: [ViewStore; 8] = std::array::from_fn(|_| ViewStore::new());
    let (own_decodes, own_secs) = fanout_rounds(&shares, &own);
    assert_eq!(shared_decodes, distinct, "decodes == distinct prefixes");
    assert_eq!(own_decodes, FANOUT_BUDGETS.len() as u64);
    println!(
        "{} viewers / {distinct} budgets: {shared_decodes} decodes, {:.3} ms per round through one \
         shared store; {own_decodes} decodes, {:.3} ms with a store each",
        FANOUT_BUDGETS.len(),
        shared_secs * 1e3,
        own_secs * 1e3,
    );
    println!();
    let (capped_secs, cut_secs, bytes) = capped_encode_row(reps);
    println!(
        "{FANOUT_SIDE}x{FANOUT_SIDE} colour share at {PREFIX_BPP} bpp ({bytes} bytes): capped encode \
         {:.3} ms; full encode + truncate {:.3} ms",
        capped_secs * 1e3,
        cut_secs * 1e3,
    );
    let nested: Vec<Vec<(Vec<u8>, Image)>> = (1..=reps as u64)
        .map(|i| {
            let (image, cap) = capped_scene(60 + i);
            let sent = ezw::encode_image_capped(
                &image,
                FANOUT_LEVELS,
                WaveletKind::Cdf53,
                true,
                Some(cap),
            )
            .expect("encodes");
            let packets = split_packets(&sent, 16);
            NESTED_PACKETS
                .iter()
                .map(|&k| {
                    let prefix = reassemble_prefix(&packets[..k]).expect("prefix verifies");
                    let view = reference::decode_image(&prefix).expect("prefix decodes");
                    (prefix, view)
                })
                .collect()
        })
        .collect();
    let (longest_replays, longest_secs) = nested_prefix_rounds(&nested, &[0, 1, 2, 3]);
    let (shortest_replays, shortest_secs) = nested_prefix_rounds(&nested, &[3, 2, 1, 0]);
    assert_eq!((longest_replays, shortest_replays), (3, 0));
    println!(
        "4 nested prefixes through one scratch: longest first {} symbol decode + {longest_replays} \
         replays, {:.3} ms; shortest first {} symbol decodes, {:.3} ms",
        4 - longest_replays,
        longest_secs * 1e3,
        4 - shortest_replays,
        shortest_secs * 1e3,
    );
    println!();
    println!("wavelet alone, us per plane, {FANOUT_LEVELS} levels: live beside media::reference");
    println!();
    let widths = [9usize, 6, 9, 9, 9, 9];
    header(
        &[
            "plane", "filter", "forward", "ref fwd", "inverse", "ref inv",
        ],
        &widths,
    );
    for kind in [WaveletKind::Cdf53, WaveletKind::Haar] {
        for side in WAVELET_SIDES {
            let us = wavelet_row(side, kind, reps * 4).map(|s| format!("{:.1}", s * 1e6));
            let mut cells = vec![format!("{side}x{side}"), format!("{kind:?}")];
            cells.extend(us);
            row(&cells, &widths);
        }
    }
    println!();
    phase_table(reps);
    println!();
    println!(
        "identity: encoded bytes, decoded coefficients and every viewer's image matched the \
         reference in every scenario"
    );
}
