//! Image-quality and rate metrics: the axes of Figures 6 and 7.

use crate::image::Image;

/// Bits per pixel actually received: `received_bytes * 8 / pixels`.
pub fn bits_per_pixel(received_bytes: usize, pixels: usize) -> f64 {
    assert!(pixels > 0, "no pixels");
    received_bytes as f64 * 8.0 / pixels as f64
}

/// Compression ratio: uncompressed size over received size. Returns
/// `f64::INFINITY` when nothing was received.
pub fn compression_ratio(original_bytes: usize, received_bytes: usize) -> f64 {
    if received_bytes == 0 {
        f64::INFINITY
    } else {
        original_bytes as f64 / received_bytes as f64
    }
}

/// Mean squared error between two images of identical shape.
fn mse(a: &Image, b: &Image) -> f64 {
    assert_eq!(
        (a.width, a.height, a.channels),
        (b.width, b.height, b.channels),
        "image shape mismatch"
    );
    let sum: u64 = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(&x, &y)| {
            let d = x as i64 - y as i64;
            (d * d) as u64
        })
        .sum();
    sum as f64 / a.data.len() as f64
}

/// Peak signal-to-noise ratio in dB (`inf` for identical images).
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let m = mse(a, b);
    if m == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / m).log10()
    }
}

/// Mean squared error of one channel plane.
fn plane_mse(a: &Image, b: &Image, channel: usize) -> f64 {
    let pixels = a.width * a.height;
    let mut sum = 0u64;
    for i in 0..pixels {
        let x = a.data[i * a.channels + channel] as i64;
        let y = b.data[i * b.channels + channel] as i64;
        let d = x - y;
        sum += (d * d) as u64;
    }
    sum as f64 / pixels as f64
}

/// Color PSNR in dB: per-plane MSEs are averaged *before* the log, the
/// convention for multi-channel quality reporting (identical to
/// [`psnr`] on grayscale, and on any image whose planes are equally
/// distorted). `inf` for identical images.
pub fn psnr_color(a: &Image, b: &Image) -> f64 {
    assert_eq!(
        (a.width, a.height, a.channels),
        (b.width, b.height, b.channels),
        "image shape mismatch"
    );
    let avg = (0..a.channels).map(|c| plane_mse(a, b, c)).sum::<f64>() / a.channels as f64;
    if avg == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / avg).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::synthetic_scene;

    #[test]
    fn bpp_and_cr() {
        assert_eq!(bits_per_pixel(1000, 1000), 8.0);
        assert_eq!(bits_per_pixel(125, 1000), 1.0);
        assert_eq!(compression_ratio(1000, 250), 4.0);
        assert_eq!(compression_ratio(1000, 0), f64::INFINITY);
    }

    #[test]
    fn psnr_identity_and_ordering() {
        let a = synthetic_scene(16, 16, 1, 2, 1).image;
        assert_eq!(psnr(&a, &a), f64::INFINITY);
        let mut slightly = a.clone();
        slightly.data[0] ^= 1;
        let mut badly = a.clone();
        for v in badly.data.iter_mut() {
            *v = v.wrapping_add(64);
        }
        assert!(psnr(&a, &slightly) > psnr(&a, &badly));
        assert!(mse(&a, &badly) > mse(&a, &slightly));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mse_rejects_shape_mismatch() {
        let a = Image::new(4, 4, 1);
        let b = Image::new(4, 4, 3);
        mse(&a, &b);
    }

    #[test]
    fn psnr_color_matches_psnr_on_grayscale() {
        let a = synthetic_scene(16, 16, 1, 2, 4).image;
        let mut b = a.clone();
        for v in b.data.iter_mut() {
            *v = v.wrapping_add(3);
        }
        assert_eq!(psnr_color(&a, &a), f64::INFINITY);
        assert!((psnr_color(&a, &b) - psnr(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn psnr_color_averages_mse_before_log() {
        // Distort only one of three planes: averaging MSE before the
        // log gives 10*log10(255^2 / (m/3)), NOT the mean of the
        // per-plane PSNRs (which would be infinite here).
        let a = synthetic_scene(16, 16, 3, 2, 5).image;
        let mut b = a.clone();
        for i in 0..16 * 16 {
            b.data[i * 3] = b.data[i * 3].wrapping_add(30);
        }
        let m = mse(&a, &b); // interleaved MSE == mean of plane MSEs
        let expected = 10.0 * (255.0f64 * 255.0 / m).log10();
        assert!((psnr_color(&a, &b) - expected).abs() < 1e-9);
        assert!(psnr_color(&a, &b).is_finite());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn psnr_color_rejects_shape_mismatch() {
        let a = Image::new(4, 4, 1);
        let b = Image::new(4, 4, 3);
        psnr_color(&a, &b);
    }
}
