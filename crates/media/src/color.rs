//! Reversible YCoCg-R color decorrelation.
//!
//! RGB channels of natural content are strongly correlated; coding them
//! independently wastes rate on redundant structure. YCoCg-R (Malvar &
//! Sullivan, used losslessly in JPEG XR / H.264 FRExt) is an integer
//! lifting transform — exactly invertible — that concentrates energy in
//! the luma plane, so the EZW coder spends its early bit-planes where
//! the eye looks. Enabled via
//! [`crate::ezw::encode_image_opts`]; the container coder's two pixel
//! passes, into the planes and out of them, apply it one pixel at a
//! time.

/// Forward YCoCg-R on one pixel: `(r, g, b) -> (y, co, cg)`.
#[inline]
pub(crate) fn forward_pixel(r: i32, g: i32, b: i32) -> (i32, i32, i32) {
    let co = r - b;
    let t = b + (co >> 1);
    let cg = g - t;
    let y = t + (cg >> 1);
    (y, co, cg)
}

/// Inverse YCoCg-R on one pixel: `(y, co, cg) -> (r, g, b)`. The
/// inputs are decoded from received bytes; sums that leave `i32` wrap
/// (see the inverse steps of `wavelet`).
#[inline]
pub(crate) fn inverse_pixel(y: i32, co: i32, cg: i32) -> (i32, i32, i32) {
    let t = y.wrapping_sub(cg >> 1);
    let g = cg.wrapping_add(t);
    let b = t.wrapping_sub(co >> 1);
    let r = b.wrapping_add(co);
    (r, g, b)
}

// The plane-at-a-time pair lives with the frozen codec it serves; this
// path is the one the benchmark's oracle names.
pub use crate::reference::{forward_planes, inverse_planes};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_round_trip_exhaustive_corners() {
        for r in [0, 1, 127, 128, 254, 255] {
            for g in [0, 1, 127, 128, 254, 255] {
                for b in [0, 1, 127, 128, 254, 255] {
                    let (y, co, cg) = forward_pixel(r, g, b);
                    assert_eq!(inverse_pixel(y, co, cg), (r, g, b), "({r},{g},{b})");
                }
            }
        }
    }

    #[test]
    fn plane_round_trip_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 256;
        let r0: Vec<i32> = (0..n).map(|_| rng.random_range(0..256)).collect();
        let g0: Vec<i32> = (0..n).map(|_| rng.random_range(0..256)).collect();
        let b0: Vec<i32> = (0..n).map(|_| rng.random_range(0..256)).collect();
        let (mut r, mut g, mut b) = (r0.clone(), g0.clone(), b0.clone());
        forward_planes(&mut r, &mut g, &mut b);
        inverse_planes(&mut r, &mut g, &mut b);
        assert_eq!((r, g, b), (r0, g0, b0));
    }

    #[test]
    fn gray_input_has_zero_chroma() {
        // R = G = B: both chroma planes must vanish (perfect
        // decorrelation of achromatic content).
        for v in 0..256 {
            let (y, co, cg) = forward_pixel(v, v, v);
            assert_eq!(co, 0);
            assert_eq!(cg, 0);
            assert_eq!(y, v);
        }
    }
}
