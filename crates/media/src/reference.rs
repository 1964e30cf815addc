//! Pre-refactor codec, frozen verbatim.
//!
//! This module preserves the original scalar implementations of the
//! wavelet lift and the EZW plane coder exactly as they shipped before
//! the list-driven fast path landed: per-call `clear()+resize()`
//! scratch, strided column gathers, a full-`scan` walk per bit-plane,
//! a fresh `Vec` per zerotree stamp, and one-bit-at-a-time packing —
//! and the plane-at-a-time colour transform the container coder ran
//! before its pixels crossed into and out of the planes in one pass.
//!
//! It exists for two reasons and must never be "improved":
//!
//! * the differential suite (`tests/media_codec.rs`) pins the
//!   optimized encoder/decoder **bit-identical** to this code on
//!   arbitrary planes and truncation points;
//! * `bench --bin phases` holds the replayed decode of the share it
//!   times to this code's image of the same bytes.

use crate::ezw::{container_streams, kind_from_byte};
use crate::wavelet::{max_levels, WaveletKind};
use crate::{Image, MediaError};

// ------------------------------------------------------------- wavelet

/// Original forward 1-D lift: fresh scratch resize per call.
fn forward_1d(buf: &mut [i32], kind: WaveletKind, scratch: &mut Vec<i32>) {
    let n = buf.len();
    debug_assert!(n.is_multiple_of(2) && n >= 2);
    let half = n / 2;
    scratch.clear();
    scratch.resize(n, 0);
    let (s, d) = scratch.split_at_mut(half);
    match kind {
        WaveletKind::Haar => {
            for i in 0..half {
                let a = buf[2 * i];
                let b = buf[2 * i + 1];
                let diff = b - a;
                d[i] = diff;
                s[i] = a + (diff >> 1);
            }
        }
        WaveletKind::Cdf53 => {
            for i in 0..half {
                let left = buf[2 * i];
                let right = if 2 * i + 2 < n {
                    buf[2 * i + 2]
                } else {
                    buf[n - 2]
                };
                d[i] = buf[2 * i + 1] - ((left + right) >> 1);
            }
            for i in 0..half {
                let dm1 = if i > 0 { d[i - 1] } else { d[0] };
                s[i] = buf[2 * i] + ((dm1 + d[i] + 2) >> 2);
            }
        }
    }
    buf.copy_from_slice(scratch);
}

/// Original inverse 1-D lift.
fn inverse_1d(buf: &mut [i32], kind: WaveletKind, scratch: &mut Vec<i32>) {
    let n = buf.len();
    debug_assert!(n.is_multiple_of(2) && n >= 2);
    let half = n / 2;
    scratch.clear();
    scratch.resize(n, 0);
    let (s, d) = buf.split_at(half);
    match kind {
        WaveletKind::Haar => {
            for i in 0..half {
                let a = s[i] - (d[i] >> 1);
                let b = d[i] + a;
                scratch[2 * i] = a;
                scratch[2 * i + 1] = b;
            }
        }
        WaveletKind::Cdf53 => {
            for i in 0..half {
                let dm1 = if i > 0 { d[i - 1] } else { d[0] };
                scratch[2 * i] = s[i] - ((dm1 + d[i] + 2) >> 2);
            }
            for i in 0..half {
                let left = scratch[2 * i];
                let right = if 2 * i + 2 < n {
                    scratch[2 * i + 2]
                } else {
                    scratch[n - 2]
                };
                scratch[2 * i + 1] = d[i] + ((left + right) >> 1);
            }
        }
    }
    buf.copy_from_slice(scratch);
}

/// Original forward 2-D transform: row copies plus strided column
/// gathers, allocating scratch per call.
pub fn forward_2d(data: &mut [i32], width: usize, height: usize, levels: usize, kind: WaveletKind) {
    assert_eq!(data.len(), width * height);
    assert!(
        levels <= max_levels(width, height),
        "too many levels for {width}x{height}"
    );
    let mut scratch = Vec::new();
    let mut row_buf = Vec::new();
    let (mut w, mut h) = (width, height);
    for _ in 0..levels {
        for y in 0..h {
            row_buf.clear();
            row_buf.extend_from_slice(&data[y * width..y * width + w]);
            forward_1d(&mut row_buf, kind, &mut scratch);
            data[y * width..y * width + w].copy_from_slice(&row_buf);
        }
        for x in 0..w {
            row_buf.clear();
            row_buf.extend((0..h).map(|y| data[y * width + x]));
            forward_1d(&mut row_buf, kind, &mut scratch);
            for (y, &v) in row_buf.iter().enumerate() {
                data[y * width + x] = v;
            }
        }
        w /= 2;
        h /= 2;
    }
}

/// Original inverse 2-D transform.
pub fn inverse_2d(data: &mut [i32], width: usize, height: usize, levels: usize, kind: WaveletKind) {
    inverse_2d_partial(data, width, height, levels, 0, kind);
}

/// Original partial inverse.
pub fn inverse_2d_partial(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    drop_levels: usize,
    kind: WaveletKind,
) {
    assert_eq!(data.len(), width * height);
    assert!(levels <= max_levels(width, height));
    assert!(drop_levels <= levels, "cannot drop more levels than exist");
    let mut scratch = Vec::new();
    let mut row_buf = Vec::new();
    for level in (drop_levels..levels).rev() {
        let w = width >> level;
        let h = height >> level;
        for x in 0..w {
            row_buf.clear();
            row_buf.extend((0..h).map(|y| data[y * width + x]));
            inverse_1d(&mut row_buf, kind, &mut scratch);
            for (y, &v) in row_buf.iter().enumerate() {
                data[y * width + x] = v;
            }
        }
        for y in 0..h {
            row_buf.clear();
            row_buf.extend_from_slice(&data[y * width..y * width + w]);
            inverse_1d(&mut row_buf, kind, &mut scratch);
            data[y * width..y * width + w].copy_from_slice(&row_buf);
        }
    }
}

// ----------------------------------------------------------------- bits

/// Original MSB-first bit writer: one `Vec` byte poke per bit.
#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    nbits: usize,
}

impl BitWriter {
    fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, bit: bool) {
        let pos = self.nbits % 8;
        if pos == 0 {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().unwrap() |= 0x80 >> pos;
        }
        self.nbits += 1;
    }

    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Original MSB-first bit reader: one bounds-checked byte index per bit.
#[derive(Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn next(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = byte & (0x80 >> (self.pos % 8)) != 0;
        self.pos += 1;
        Some(bit)
    }
}

// ------------------------------------------------------------ geometry

struct Geometry {
    w: usize,
    h: usize,
    levels: usize,
    scan: Vec<u32>,
}

impl Geometry {
    fn new(w: usize, h: usize, levels: usize) -> Geometry {
        assert!(levels >= 1 && levels <= max_levels(w, h));
        let mut scan = Vec::with_capacity(w * h);
        let (wl, hl) = (w >> levels, h >> levels);
        for y in 0..hl {
            for x in 0..wl {
                scan.push((y * w + x) as u32);
            }
        }
        for l in (1..=levels).rev() {
            let (wb, hb) = (w >> l, h >> l);
            for y in 0..hb {
                for x in wb..2 * wb {
                    scan.push((y * w + x) as u32);
                }
            }
            for y in hb..2 * hb {
                for x in 0..wb {
                    scan.push((y * w + x) as u32);
                }
            }
            for y in hb..2 * hb {
                for x in wb..2 * wb {
                    scan.push((y * w + x) as u32);
                }
            }
        }
        debug_assert_eq!(scan.len(), w * h);
        Geometry { w, h, levels, scan }
    }

    fn children(&self, idx: usize, out: &mut [usize; 4]) -> usize {
        let (x, y) = (idx % self.w, idx / self.w);
        let (wl, hl) = (self.w >> self.levels, self.h >> self.levels);
        if x < wl && y < hl {
            out[0] = y * self.w + (x + wl);
            out[1] = (y + hl) * self.w + x;
            out[2] = (y + hl) * self.w + (x + wl);
            3
        } else if 2 * x < self.w && 2 * y < self.h {
            out[0] = 2 * y * self.w + 2 * x;
            out[1] = 2 * y * self.w + 2 * x + 1;
            out[2] = (2 * y + 1) * self.w + 2 * x;
            out[3] = (2 * y + 1) * self.w + 2 * x + 1;
            4
        } else {
            0
        }
    }

    fn has_children(&self, idx: usize) -> bool {
        let mut buf = [0usize; 4];
        self.children(idx, &mut buf) > 0
    }

    /// Original descendant stamp: allocates a fresh work `Vec` per root.
    fn stamp_descendants(&self, idx: usize, stamp: u32, stamps: &mut [u32]) {
        let mut stack = [0usize; 4];
        let n = self.children(idx, &mut stack);
        let mut work: Vec<usize> = stack[..n].to_vec();
        while let Some(i) = work.pop() {
            if stamps[i] == stamp {
                continue;
            }
            stamps[i] = stamp;
            let mut buf = [0usize; 4];
            let n = self.children(i, &mut buf);
            work.extend_from_slice(&buf[..n]);
        }
    }
}

// --------------------------------------------------------------- codec

use crate::ezw::{DecodedPlane, EMPTY_PLANE, PLANE_HEADER_LEN, PLANE_MAGIC};

/// Original plane encoder: full-`scan` dominant pass every bit-plane.
pub fn encode_plane(coeffs: &[i32], w: usize, h: usize, levels: usize) -> Vec<u8> {
    assert_eq!(coeffs.len(), w * h);
    let geo = Geometry::new(w, h, levels);
    let max_mag = coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);

    let mut out = Vec::new();
    out.extend_from_slice(PLANE_MAGIC);
    out.extend_from_slice(&(w as u16).to_be_bytes());
    out.extend_from_slice(&(h as u16).to_be_bytes());
    out.push(levels as u8);
    if max_mag == 0 {
        out.push(EMPTY_PLANE);
        return out;
    }
    let top_plane = 31 - max_mag.leading_zeros();
    out.push(top_plane as u8);

    let mut subtree_max = vec![0u32; coeffs.len()];
    let mut kids = [0usize; 4];
    for &idx in geo.scan.iter().rev() {
        let idx = idx as usize;
        let mut m = coeffs[idx].unsigned_abs();
        let n = geo.children(idx, &mut kids);
        for &k in &kids[..n] {
            m = m.max(subtree_max[k]);
        }
        subtree_max[idx] = m;
    }

    let mut bits = BitWriter::new();
    let mut significant = vec![false; coeffs.len()];
    let mut skip = vec![u32::MAX; coeffs.len()];
    let mut sub_list: Vec<usize> = Vec::new();

    for (pass, b) in (0..=top_plane).rev().enumerate() {
        let t = 1u32 << b;
        let refine_count = sub_list.len();
        for &idx in &geo.scan {
            let idx = idx as usize;
            if significant[idx] || skip[idx] == pass as u32 {
                continue;
            }
            let mag = coeffs[idx].unsigned_abs();
            let has_kids = geo.has_children(idx);
            if mag >= t {
                if has_kids {
                    bits.push(true);
                    bits.push(true);
                    bits.push(coeffs[idx] < 0);
                } else {
                    bits.push(true);
                    bits.push(coeffs[idx] < 0);
                }
                significant[idx] = true;
                sub_list.push(idx);
            } else if has_kids && subtree_max[idx] < t {
                bits.push(false);
                geo.stamp_descendants(idx, pass as u32, &mut skip);
            } else if has_kids {
                bits.push(true);
                bits.push(false);
            } else {
                bits.push(false);
            }
        }
        for &idx in &sub_list[..refine_count] {
            bits.push(coeffs[idx].unsigned_abs() & t != 0);
        }
    }
    out.extend_from_slice(&bits.into_bytes());
    out
}

/// Original plane decoder.
pub fn decode_plane(bytes: &[u8]) -> Result<DecodedPlane, MediaError> {
    if bytes.len() < PLANE_HEADER_LEN || &bytes[..4] != PLANE_MAGIC {
        return Err(MediaError::Malformed("bad plane header"));
    }
    let w = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    let h = u16::from_be_bytes([bytes[6], bytes[7]]) as usize;
    let levels = bytes[8] as usize;
    let top = bytes[9];
    if w == 0 || h == 0 || levels == 0 || levels > max_levels(w, h) {
        return Err(MediaError::Malformed("bad plane geometry"));
    }
    let mut coeffs = vec![0i32; w * h];
    if top == EMPTY_PLANE {
        return Ok(DecodedPlane {
            w,
            h,
            levels,
            coeffs,
        });
    }
    let top_plane = top as u32;
    if top_plane > 31 {
        return Err(MediaError::Malformed("bad top plane"));
    }
    let geo = Geometry::new(w, h, levels);
    let mut bits = BitReader::new(&bytes[PLANE_HEADER_LEN..]);

    let mut mags = vec![0u32; w * h];
    let mut negs = vec![false; w * h];
    let mut skip = vec![u32::MAX; w * h];
    let mut sub_list: Vec<usize> = Vec::new();
    let mut current_plane = top_plane;
    let mut finished = true;

    'outer: for (pass, b) in (0..=top_plane).rev().enumerate() {
        current_plane = b;
        let t = 1u32 << b;
        let refine_count = sub_list.len();
        for &idx in &geo.scan {
            let idx = idx as usize;
            if mags[idx] != 0 || skip[idx] == pass as u32 {
                continue;
            }
            let has_kids = geo.has_children(idx);
            let Some(first) = bits.next() else {
                finished = false;
                break 'outer;
            };
            if has_kids {
                if !first {
                    geo.stamp_descendants(idx, pass as u32, &mut skip);
                    continue;
                }
                let Some(second) = bits.next() else {
                    finished = false;
                    break 'outer;
                };
                if !second {
                    continue;
                }
                let Some(sign) = bits.next() else {
                    finished = false;
                    break 'outer;
                };
                mags[idx] = t;
                negs[idx] = sign;
                sub_list.push(idx);
            } else {
                if !first {
                    continue;
                }
                let Some(sign) = bits.next() else {
                    finished = false;
                    break 'outer;
                };
                mags[idx] = t;
                negs[idx] = sign;
                sub_list.push(idx);
            }
        }
        for &idx in &sub_list[..refine_count] {
            let Some(bit) = bits.next() else {
                finished = false;
                break 'outer;
            };
            if bit {
                mags[idx] |= t;
            }
        }
    }

    let offset = if finished {
        0
    } else {
        (1u32 << current_plane) >> 1
    };
    for idx in 0..coeffs.len() {
        if mags[idx] != 0 {
            let v = (mags[idx] + offset) as i32;
            coeffs[idx] = if negs[idx] { -v } else { v };
        }
    }
    Ok(DecodedPlane {
        w,
        h,
        levels,
        coeffs,
    })
}

// -------------------------------------------------------------- colour

/// Transform three equal-length RGB planes in place to Y/Co/Cg: the
/// colour pass the encoder ran between its deinterleave and its level
/// shift before those became one pass.
pub fn forward_planes(r: &mut [i32], g: &mut [i32], b: &mut [i32]) {
    assert!(r.len() == g.len() && g.len() == b.len());
    for i in 0..r.len() {
        let (y, co, cg) = crate::color::forward_pixel(r[i], g[i], b[i]);
        r[i] = y;
        g[i] = co;
        b[i] = cg;
    }
}

/// Invert [`forward_planes`], wrapping as `color`'s pixel inverse does.
pub fn inverse_planes(y: &mut [i32], co: &mut [i32], cg: &mut [i32]) {
    assert!(y.len() == co.len() && co.len() == cg.len());
    for i in 0..y.len() {
        let (r, g, b) = crate::color::inverse_pixel(y[i], co[i], cg[i]);
        y[i] = r;
        co[i] = g;
        cg[i] = b;
    }
}

// --------------------------------------------------------- containers

/// A whole container through the frozen pieces: every channel stream
/// through [`decode_plane`] and [`inverse_2d`], then the level shift
/// and inverse colour transform the image format prescribes. This
/// function is not part of the frozen copy — it only composes it — and
/// is here so the differential suite and the `phases` bin say
/// "the image the pre-refactor coder makes of these bytes" one way.
pub fn decode_image(bytes: &[u8]) -> Result<Image, MediaError> {
    let (channels, kind, streams) = container_streams(bytes)?;
    let (kind, color) = kind_from_byte(kind)?;
    let mut planes = streams.map(decode_plane).collect::<Result<Vec<_>, _>>()?;
    let Some((w, h)) = planes.first().map(|p| (p.w, p.h)) else {
        return Err(MediaError::Malformed("bad channel count"));
    };
    if planes.iter().any(|p| (p.w, p.h) != (w, h)) {
        return Err(MediaError::Malformed("channel geometry mismatch"));
    }
    for (i, plane) in planes.iter_mut().enumerate() {
        inverse_2d(&mut plane.coeffs, w, h, plane.levels, kind);
        // Luma only, once the planes are decorrelated.
        if !color || i == 0 {
            plane.coeffs.iter_mut().for_each(|v| *v += 128);
        }
    }
    if color {
        let [y, co, cg] = &mut planes[..] else {
            return Err(MediaError::Malformed("color transform on non-RGB"));
        };
        inverse_planes(&mut y.coeffs, &mut co.coeffs, &mut cg.coeffs);
    }
    let mut img = Image::new(w, h, channels);
    for (c, plane) in planes.iter().enumerate() {
        img.set_plane(c, &plane.coeffs);
    }
    Ok(img)
}
