//! Reversible integer 2-D wavelet transforms.
//!
//! Two lifting-based filters, both exactly invertible over `i32`:
//!
//! * **Haar** (S-transform) — the simplest reversible filter,
//! * **CDF 5/3** (LeGall, the JPEG 2000 reversible filter) — better
//!   energy compaction on smooth content.
//!
//! Multi-level Mallat decomposition: each level transforms rows then
//! columns of the current LL band, leaving the standard quadrant layout
//! (LL top-left, HL top-right, LH bottom-left, HH bottom-right).
//!
//! Hot path: both directions lift **along rows only**. A lifting step
//! is `out[x] = f(a[x], b[x], c[x])` over whole contiguous slices —
//! image rows for the vertical step, the shifted halves of one row for
//! the horizontal one — a loop the compiler vectorises. A level streams
//! through three working lines: the forward splits rows `2i`, `2i+1`,
//! `2i+2` into low | high lines and lifts band rows `i` and `h/2 + i`
//! from them; the inverse lifts output rows `2i`, `2i+1` from the low
//! row `i` and the high rows `i-1`, `i`, `i+1` and merges each,
//! interleaved, into place. No column is walked, nothing is transposed
//! and no line is copied back. In place, those writes would overrun
//! half of the band before it is read, so that half goes through the
//! scratch, one sequential copy per level: the forward's high rows
//! collect there and move in at the end, the inverse's low rows are set
//! aside first. All scratch lives in a caller-owned [`WaveletScratch`] so a
//! session encoding thousands of planes allocates once. Outputs are
//! bit-identical to the pre-refactor strided pass (`crate::reference`),
//! pinned by the differential suite in `tests/media_codec.rs`.

/// Filter choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveletKind {
    /// Reversible Haar / S-transform.
    Haar,
    /// Reversible CDF 5/3 (LeGall) lifting filter.
    Cdf53,
}

/// Reusable scratch for the 2-D transforms: half of the largest band
/// (the rows a level passes through it) plus four working lines. Construct
/// once (or take [`Default`]) and pass to the `_with` entry points; the
/// buffer grows to the largest plane seen and is then reused
/// allocation-free.
#[derive(Debug, Default)]
pub struct WaveletScratch {
    buf: Vec<i32>,
}

impl WaveletScratch {
    /// Empty scratch; the buffer grows on first use.
    pub fn new() -> WaveletScratch {
        WaveletScratch::default()
    }

    /// Grow to hold a `w x h` level: `h / 2` staged rows and four lines.
    fn reserve(&mut self, w: usize, h: usize) {
        let need = (h / 2 + 4) * w;
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
    }

    /// The staged half band and the working lines (two even-phase rows,
    /// one odd-phase row, one row of horizontal temporaries) of a
    /// `w x h` level. Every element is written before it is read.
    fn level(&mut self, w: usize, h: usize) -> (&mut [i32], [&mut [i32]; 4]) {
        let (half, lines) = self.buf.split_at_mut(h / 2 * w);
        let mut lines = lines.chunks_exact_mut(w);
        (
            half,
            std::array::from_fn(|_| lines.next().expect("reserved")),
        )
    }
}

/// Largest level count such that every level sees even dimensions.
pub fn max_levels(width: usize, height: usize) -> usize {
    let mut levels = 0;
    let (mut w, mut h) = (width, height);
    while w >= 2 && h >= 2 && w % 2 == 0 && h % 2 == 0 {
        levels += 1;
        w /= 2;
        h /= 2;
    }
    levels
}

/// The two lifting steps of a filter and their inverses, one sample at
/// a time, each named for what it yields: `even` / `odd` are the signal
/// phases, `low` / `high` the bands. A step sees the sample it replaces
/// and the two neighbours of the other kind (mirrored at the borders by
/// the callers).
///
/// The inverse steps wrap: coefficients come off the wire, so a hostile
/// stream can hold values whose lifting sums leave `i32`. Those wrap —
/// what a release build always did, garbage in a garbage image —
/// instead of panicking a debug build; on any plane a forward transform
/// produced the results are unchanged.
trait Filter {
    /// Predict: `high[i]` from `odd[i]` and `even[i]`, `even[i+1]`.
    fn high(odd: i32, left: i32, right: i32) -> i32;
    /// Update: `low[i]` from `even[i]` and `high[i-1]`, `high[i]`.
    fn low(even: i32, prev: i32, high: i32) -> i32;
    /// Undo the update: `even[i]` from `low[i]` and `high[i-1]`, `high[i]`.
    fn even(low: i32, prev: i32, high: i32) -> i32;
    /// Undo the prediction: `odd[i]` from `high[i]` and `even[i]`, `even[i+1]`.
    fn odd(high: i32, left: i32, right: i32) -> i32;
}

struct Haar;

impl Filter for Haar {
    fn high(odd: i32, left: i32, _: i32) -> i32 {
        odd - left
    }
    fn low(even: i32, _: i32, high: i32) -> i32 {
        even + (high >> 1)
    }
    fn even(low: i32, _: i32, high: i32) -> i32 {
        low.wrapping_sub(high >> 1)
    }
    fn odd(high: i32, left: i32, _: i32) -> i32 {
        high.wrapping_add(left)
    }
}

struct Cdf53;

impl Filter for Cdf53 {
    fn high(odd: i32, left: i32, right: i32) -> i32 {
        odd - ((left + right) >> 1)
    }
    fn low(even: i32, prev: i32, high: i32) -> i32 {
        even + ((prev + high + 2) >> 2)
    }
    fn even(low: i32, prev: i32, high: i32) -> i32 {
        low.wrapping_sub(prev.wrapping_add(high).wrapping_add(2) >> 2)
    }
    fn odd(high: i32, left: i32, right: i32) -> i32 {
        high.wrapping_add(left.wrapping_add(right) >> 1)
    }
}

/// One lifting step over whole slices: `out[x] = f(a[x], b[x], c[x])`.
#[inline(always)]
fn lift(out: &mut [i32], a: &[i32], b: &[i32], c: &[i32], f: impl Fn(i32, i32, i32) -> i32) {
    let n = out.len();
    let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
    for x in 0..n {
        out[x] = f(a[x], b[x], c[x]);
    }
}

/// The first `w` entries of row `y` of a plane `stride` wide.
fn row(plane: &[i32], stride: usize, y: usize, w: usize) -> &[i32] {
    &plane[y * stride..y * stride + w]
}

/// [`row`], mutable.
fn row_mut(plane: &mut [i32], stride: usize, y: usize, w: usize) -> &mut [i32] {
    &mut plane[y * stride..y * stride + w]
}

/// Forward horizontal step: the interleaved row `src` into `dst` as
/// low | high.
fn split_row<F: Filter>(src: &[i32], dst: &mut [i32]) {
    let half = src.len() / 2;
    let (low, high) = dst.split_at_mut(half);
    let pairs = || src.chunks_exact(2);
    for ((h, p), next) in high.iter_mut().zip(pairs()).zip(pairs().skip(1)) {
        *h = F::high(p[1], p[0], next[0]);
    }
    let last = &src[src.len() - 2..];
    high[half - 1] = F::high(last[1], last[0], last[0]);
    low[0] = F::low(src[0], high[0], high[0]);
    for ((l, p), hs) in low[1..]
        .iter_mut()
        .zip(pairs().skip(1))
        .zip(high.windows(2))
    {
        *l = F::low(p[0], hs[0], hs[1]);
    }
}

/// Inverse horizontal step: the low | high line `src` into `dst`
/// interleaved. `even` holds the even samples (and the mirrored one
/// past the end) on the way.
fn merge_row<F: Filter>(src: &[i32], dst: &mut [i32], even: &mut [i32]) {
    let half = src.len() / 2;
    let (low, high) = src.split_at(half);
    let even = &mut even[..half + 1];
    even[0] = F::even(low[0], high[0], high[0]);
    lift(&mut even[1..half], &low[1..], high, &high[1..], F::even);
    even[half] = even[half - 1];
    for ((o, &h), e) in dst.chunks_exact_mut(2).zip(high).zip(even.windows(2)) {
        o[0] = e[0];
        o[1] = F::odd(h, e[0], e[1]);
    }
}

/// One forward level over the top-left `w x h` band of `data`: rows
/// `2i`, `2i+1`, `2i+2` are split into low | high lines and lifted into
/// band rows `i` (low) and `h/2 + i` (high). The high rows would land
/// on rows not yet read, so they collect in the scratch and move in
/// once at the end.
fn forward_level<F: Filter>(
    data: &mut [i32],
    width: usize,
    w: usize,
    h: usize,
    scratch: &mut WaveletScratch,
) {
    let (high, [mut even, mut next, odd, _]) = scratch.level(w, h);
    split_row::<F>(row(data, width, 0, w), even);
    for i in 0..h / 2 {
        split_row::<F>(row(data, width, 2 * i + 1, w), odd);
        let right: &[i32] = if 2 * i + 2 < h {
            split_row::<F>(row(data, width, 2 * i + 2, w), next);
            next
        } else {
            even
        };
        lift(row_mut(high, w, i, w), odd, even, right, F::high);
        let (prev, cur) = (row(high, w, i.saturating_sub(1), w), row(high, w, i, w));
        lift(row_mut(data, width, i, w), even, prev, cur, F::low);
        std::mem::swap(&mut even, &mut next);
    }
    for (i, band) in high.chunks_exact(w).enumerate() {
        row_mut(data, width, h / 2 + i, w).copy_from_slice(band);
    }
}

/// One inverse level: output rows `2i` and `2i+1` are lifted from the
/// low row `i` and the high rows `i-1`, `i`, `i+1`, and each is merged
/// into place. Those writes overrun the low band before it is read, so
/// it is set aside first; the high rows they reach are spent by then.
fn inverse_level<F: Filter>(
    data: &mut [i32],
    width: usize,
    w: usize,
    h: usize,
    scratch: &mut WaveletScratch,
) {
    let hh = h / 2;
    let (low, [mut even, mut next, odd, tmp]) = scratch.level(w, h);
    for (i, keep) in low.chunks_exact_mut(w).enumerate() {
        keep.copy_from_slice(row(data, width, i, w));
    }
    let first = row(data, width, hh, w);
    lift(even, low, first, first, F::even);
    for i in 0..hh {
        let high = row(data, width, hh + i, w);
        let right: &[i32] = if i + 1 < hh {
            let after = row(data, width, hh + i + 1, w);
            lift(next, row(low, w, i + 1, w), high, after, F::even);
            next
        } else {
            even
        };
        lift(odd, high, even, right, F::odd);
        merge_row::<F>(even, row_mut(data, width, 2 * i, w), tmp);
        merge_row::<F>(odd, row_mut(data, width, 2 * i + 1, w), tmp);
        std::mem::swap(&mut even, &mut next);
    }
}

/// In-place multi-level forward 2-D transform of a `width x height`
/// row-major plane.
///
/// # Panics
/// Panics if `levels > max_levels(width, height)`.
pub fn forward_2d(data: &mut [i32], width: usize, height: usize, levels: usize, kind: WaveletKind) {
    forward_2d_with(
        data,
        width,
        height,
        levels,
        kind,
        &mut WaveletScratch::new(),
    );
}

/// [`forward_2d`] with caller-owned scratch (the hot-path entry point:
/// no allocation once the scratch has seen the plane size).
pub fn forward_2d_with(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    kind: WaveletKind,
    scratch: &mut WaveletScratch,
) {
    assert_eq!(data.len(), width * height);
    assert!(
        levels <= max_levels(width, height),
        "too many levels for {width}x{height}"
    );
    scratch.reserve(width, height);
    let (mut w, mut h) = (width, height);
    for _ in 0..levels {
        match kind {
            WaveletKind::Haar => forward_level::<Haar>(data, width, w, h, scratch),
            WaveletKind::Cdf53 => forward_level::<Cdf53>(data, width, w, h, scratch),
        }
        w /= 2;
        h /= 2;
    }
}

/// In-place multi-level inverse 2-D transform.
pub fn inverse_2d(data: &mut [i32], width: usize, height: usize, levels: usize, kind: WaveletKind) {
    inverse_2d_partial(data, width, height, levels, 0, kind);
}

/// [`inverse_2d`] with caller-owned scratch.
pub fn inverse_2d_with(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    kind: WaveletKind,
    scratch: &mut WaveletScratch,
) {
    inverse_2d_partial_with(data, width, height, levels, 0, kind, scratch);
}

/// Partial inverse: undo only the coarsest `levels - drop_levels`
/// levels, leaving the finest `drop_levels` untouched. Afterwards the
/// top-left `(width >> drop_levels) x (height >> drop_levels)` region
/// holds a *reduced-resolution reconstruction* of the image — the
/// wavelet pyramid's free spatial scalability (§5.4: "each of the
/// users may access the same visual information but at different
/// resolutions").
pub fn inverse_2d_partial(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    drop_levels: usize,
    kind: WaveletKind,
) {
    inverse_2d_partial_with(
        data,
        width,
        height,
        levels,
        drop_levels,
        kind,
        &mut WaveletScratch::new(),
    );
}

/// [`inverse_2d_partial`] with caller-owned scratch.
pub fn inverse_2d_partial_with(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    drop_levels: usize,
    kind: WaveletKind,
    scratch: &mut WaveletScratch,
) {
    assert_eq!(data.len(), width * height);
    assert!(levels <= max_levels(width, height));
    assert!(drop_levels <= levels, "cannot drop more levels than exist");
    scratch.reserve(width >> drop_levels, height >> drop_levels);
    // Undo levels in reverse order: start from the coarsest.
    for level in (drop_levels..levels).rev() {
        let (w, h) = (width >> level, height >> level);
        match kind {
            WaveletKind::Haar => inverse_level::<Haar>(data, width, w, h, scratch),
            WaveletKind::Cdf53 => inverse_level::<Cdf53>(data, width, w, h, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_plane(w: usize, h: usize, seed: u64) -> Vec<i32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..w * h).map(|_| rng.random_range(0..256)).collect()
    }

    #[test]
    fn max_levels_examples() {
        assert_eq!(max_levels(512, 512), 9);
        assert_eq!(max_levels(64, 32), 5);
        assert_eq!(max_levels(6, 6), 1);
        assert_eq!(max_levels(5, 8), 0);
        assert_eq!(max_levels(1, 1), 0);
    }

    #[test]
    fn perfect_reconstruction_all_kinds_and_levels() {
        for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
            for (w, h) in [(8, 8), (16, 8), (32, 32), (64, 16)] {
                let original = random_plane(w, h, 42);
                for levels in 1..=max_levels(w, h) {
                    let mut data = original.clone();
                    forward_2d(&mut data, w, h, levels, kind);
                    assert_ne!(data, original, "{kind:?} should change data");
                    inverse_2d(&mut data, w, h, levels, kind);
                    assert_eq!(data, original, "{kind:?} {w}x{h} levels={levels}");
                }
            }
        }
    }

    #[test]
    fn matches_reference_pass_exactly() {
        // The row-streamed lifts must be bit-identical to the
        // pre-refactor strided implementation at every depth, including
        // widths that leave a vector remainder and 2-wide / 2-high bands.
        let mut scratch = WaveletScratch::new();
        for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
            for (w, h) in [(8, 8), (16, 32), (64, 64), (96, 48), (40, 72), (2, 2)] {
                let original = random_plane(w, h, 7 + w as u64);
                for levels in 1..=max_levels(w, h) {
                    let mut fast = original.clone();
                    forward_2d_with(&mut fast, w, h, levels, kind, &mut scratch);
                    let mut slow = original.clone();
                    crate::reference::forward_2d(&mut slow, w, h, levels, kind);
                    assert_eq!(fast, slow, "forward {kind:?} {w}x{h} L{levels}");
                    let mut fast_inv = fast.clone();
                    inverse_2d_with(&mut fast_inv, w, h, levels, kind, &mut scratch);
                    let mut slow_inv = slow.clone();
                    crate::reference::inverse_2d(&mut slow_inv, w, h, levels, kind);
                    assert_eq!(fast_inv, slow_inv, "inverse {kind:?} {w}x{h} L{levels}");
                    assert_eq!(fast_inv, original);
                }
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_plane_sizes() {
        let mut scratch = WaveletScratch::new();
        for (w, h) in [(64, 64), (16, 16), (128, 32), (8, 8)] {
            let original = random_plane(w, h, 99);
            let mut data = original.clone();
            forward_2d_with(&mut data, w, h, 2, WaveletKind::Cdf53, &mut scratch);
            inverse_2d_with(&mut data, w, h, 2, WaveletKind::Cdf53, &mut scratch);
            assert_eq!(data, original, "{w}x{h} after scratch reuse");
        }
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
            let mut data = vec![100i32; 16 * 16];
            forward_2d(&mut data, 16, 16, 2, kind);
            // All coefficients outside the 4x4 LL band must be zero.
            for y in 0..16 {
                for x in 0..16 {
                    if x >= 4 || y >= 4 {
                        assert_eq!(data[y * 16 + x], 0, "{kind:?} detail at ({x},{y})");
                    }
                }
            }
        }
    }

    #[test]
    fn smooth_gradient_compacts_energy_into_ll() {
        // CDF 5/3 should leave a linear ramp almost entirely in LL.
        let w = 32;
        let mut data: Vec<i32> = (0..w * w).map(|i| (i % w) as i32 * 4).collect();
        forward_2d(&mut data, w, w, 3, WaveletKind::Cdf53);
        // In the transformed domain, the 4x4 LL band should dominate:
        // detail coefficients of a linear ramp are (near) zero under
        // the 5/3 filter, whose predictor is exact for linear signals.
        let mut ll_energy = 0i64;
        let mut detail_energy = 0i64;
        for y in 0..w {
            for x in 0..w {
                let e = (data[y * w + x] as i64).pow(2);
                if x < 4 && y < 4 {
                    ll_energy += e;
                } else {
                    detail_energy += e;
                }
            }
        }
        assert!(
            (ll_energy as f64) > 20.0 * detail_energy as f64,
            "LL {} should dwarf detail {}",
            ll_energy,
            detail_energy
        );
    }

    #[test]
    #[should_panic(expected = "too many levels")]
    fn rejects_excess_levels() {
        let mut data = vec![0i32; 8 * 8];
        forward_2d(&mut data, 8, 8, 4, WaveletKind::Haar);
    }

    #[test]
    fn partial_inverse_yields_reduced_resolution_image() {
        // Reconstructing with one level dropped approximates the 2x
        // box-downsampled original (exactly, for Haar, up to the
        // integer-lifting floor).
        let w = 32;
        let original: Vec<i32> = (0..w * w)
            .map(|i| (((i % w) * 8 + (i / w) * 3) % 256) as i32)
            .collect();
        let mut data = original.clone();
        forward_2d(&mut data, w, w, 3, WaveletKind::Haar);
        inverse_2d_partial(&mut data, w, w, 3, 1, WaveletKind::Haar);
        // Top-left 16x16 holds the half-resolution image.
        let half = w / 2;
        let mut max_err = 0i32;
        for y in 0..half {
            for x in 0..half {
                let avg = (original[(2 * y) * w + 2 * x]
                    + original[(2 * y) * w + 2 * x + 1]
                    + original[(2 * y + 1) * w + 2 * x]
                    + original[(2 * y + 1) * w + 2 * x + 1])
                    / 4;
                let got = data[y * w + x];
                max_err = max_err.max((got - avg).abs());
            }
        }
        assert!(max_err <= 2, "half-res ~= box average, max err {max_err}");
    }

    #[test]
    fn partial_inverse_with_zero_drop_is_full_inverse() {
        let original: Vec<i32> = (0..16 * 16).map(|i| i * 7 % 251).collect();
        let mut a = original.clone();
        forward_2d(&mut a, 16, 16, 2, WaveletKind::Cdf53);
        inverse_2d_partial(&mut a, 16, 16, 2, 0, WaveletKind::Cdf53);
        assert_eq!(a, original);
    }

    #[test]
    #[should_panic(expected = "cannot drop more levels")]
    fn partial_inverse_rejects_excess_drop() {
        let mut data = vec![0i32; 8 * 8];
        inverse_2d_partial(&mut data, 8, 8, 2, 3, WaveletKind::Haar);
    }

    #[test]
    fn one_dimensional_round_trip_odd_boundaries() {
        // Exercise the CDF 5/3 boundary mirror with small even lengths.
        for n in [2usize, 4, 6, 10] {
            let original: Vec<i32> = (0..n as i32).map(|i| i * 7 - 3).collect();
            let (mut bands, mut back, mut tmp) = (vec![0; n], vec![0; n], vec![0; n]);
            split_row::<Cdf53>(&original, &mut bands);
            merge_row::<Cdf53>(&bands, &mut back, &mut tmp);
            assert_eq!(back, original, "n={n}");
        }
    }
}
