//! One 6-bpp 256² colour share taken apart phase by phase, the way the
//! session sends and views it: `prepare_planes`, the forward,
//! `measure_plane`, `emit_plane` through warm and through fresh scratch
//! and at ½, ¼, ⅛ and 1/1000 of the cap, a plane decode, a container
//! decode that reads the symbols, one that replays them and one that
//! replays the record the encode left, the inverse and the finish —
//! with the dominant symbols and refinement bits the share codes,
//! counted from the coder's rules alone. `emit_plane` records what it
//! writes, as every encode does.
//!
//! Every emitted stream is asserted equal to `encode_image_capped`'s,
//! every length `measure_plane` sized up equal to the rules' count
//! over the whole plane, and every decode equal to the one that reads
//! the symbols. The times are printed for reading, never compared: the
//! codec's speed is judged by the repo benchmark's
//! `media.encode_ms_per_share` / `media.decode_ms_per_view`. It uses
//! only `media`'s public API.
//!
//! `--quick` takes the best of 10 repetitions instead of 20.

use bench::{header, quick_mode, row, time_best};
use media::color;
use media::ezw::{self, CodecScratch, EzwDecoder, EzwEncoder, EzwScratch, PlaneAnalysis};
use media::image::{synthetic_scene, Image};
use media::reference;
use media::wavelet::{self, WaveletKind, WaveletScratch};

/// Side and wavelet levels of the share, as the repo benchmark's
/// `image_fanout` sends it.
const SIDE: usize = 256;
const LEVELS: usize = 5;
/// Rate of the share, in bits per pixel.
const BPP: usize = 6;

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
/// symbols, one that replays them and one that replays the encode's
/// record, the inverse, the finish). Best of
/// `reps`, in ms per share (three planes). The emitted bytes are
/// asserted equal to `encode_image_capped`'s, and the measured lengths
/// to `count_symbols` run over each whole plane.
fn phase_table(reps: usize) {
    let kind = WaveletKind::Cdf53;
    let (side, levels) = (SIDE, LEVELS);
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
    // One scratch for every encode and decode row below, as the session
    // keeps it.
    let mut ds = CodecScratch::new();
    let mut shares = [&other, &sent].into_iter().cycle();
    let (_, read_secs) = time_best(reps, || {
        let container = shares.next().expect("cycles");
        ezw::decode_image_reduced_with(container, 0, &mut ds).expect("decodes")
    });
    let read = ezw::decode_image_reduced(&sent, 0).expect("decodes");
    let before = ds.replays();
    let (view, replay_secs) = time_best(reps, || {
        ezw::decode_image_reduced_with(&sent, 0, &mut ds).expect("decodes")
    });
    assert!(
        ds.replays() - before >= reps as u64 - 1,
        "the record is held"
    );
    assert!(view == read && read == reference::decode_image(&sent).expect("decodes"));
    // The decode after an encode through the same scratch, timed alone:
    // the encode left the record, so it reads no symbol.
    let mut left_secs = f64::INFINITY;
    for _ in 0..reps {
        let container =
            ezw::encode_image_capped_with(&image, levels, kind, true, Some(cap), &mut ds)
                .expect("encodes");
        assert!(
            container == &sent[..],
            "encode_image_capped_with == encode_image_capped"
        );
        let before = ds.replays();
        let (left, secs) = time_best(1, || {
            ezw::decode_image_reduced_with(&sent, 0, &mut ds).expect("decodes")
        });
        assert!(
            ds.replays() == before + 1 && left == read,
            "the encode's record replays to the decode that reads the symbols"
        );
        left_secs = left_secs.min(secs);
    }
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
        "phases: one {side}x{side} colour share at {BPP} bpp ({} bytes), ms per share, \
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
        ("decode, record left by the encode".to_string(), left_secs),
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

/// The scene `seed`, and the byte cap of a 6-bpp share of it.
fn capped_scene(seed: u64) -> (Image, usize) {
    let image = synthetic_scene(SIDE, SIDE, 3, 5, seed).image;
    let cap = image.pixels() * BPP / 8;
    (image, cap)
}

fn main() {
    phase_table(if quick_mode() { 10 } else { 20 });
}
