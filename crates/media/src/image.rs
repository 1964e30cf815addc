//! Image representation and seeded synthetic scene generation.
//!
//! The paper's experiments share real images between Windows NT
//! workstations; we substitute seeded synthetic scenes whose caption
//! is known and whose statistics exercise the wavelet coder
//! realistically (smooth gradients + sharp edges + texture).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An 8-bit image, grayscale (1 channel) or RGB (3 channels),
/// row-major, channel-interleaved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// 1 (grayscale) or 3 (RGB).
    pub channels: usize,
    /// `width * height * channels` bytes.
    pub data: Vec<u8>,
}

impl Image {
    /// A black image.
    pub fn new(width: usize, height: usize, channels: usize) -> Image {
        assert!(channels == 1 || channels == 3, "1 or 3 channels");
        Image {
            width,
            height,
            channels,
            data: vec![0; width * height * channels],
        }
    }

    /// Uncompressed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Pixel count.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Read a sample.
    pub fn get(&self, x: usize, y: usize, c: usize) -> u8 {
        self.data[(y * self.width + x) * self.channels + c]
    }

    /// Write a sample.
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: u8) {
        self.data[(y * self.width + x) * self.channels + c] = v;
    }

    /// Extract channel `c` as an `i32` plane (coder input).
    pub fn plane(&self, c: usize) -> Vec<i32> {
        assert!(c < self.channels);
        let mut out = Vec::with_capacity(self.pixels());
        for px in self.data.chunks_exact(self.channels) {
            out.push(px[c] as i32);
        }
        out
    }

    /// Rebuild a channel from an `i32` plane, clamping to `0..=255`.
    pub fn set_plane(&mut self, c: usize, plane: &[i32]) {
        assert_eq!(plane.len(), self.pixels());
        for (px, &v) in self.data.chunks_exact_mut(self.channels).zip(plane) {
            px[c] = v.clamp(0, 255) as u8;
        }
    }

    /// Grayscale view (luma) of any image.
    pub fn to_gray(&self) -> Image {
        if self.channels == 1 {
            return self.clone();
        }
        let mut out = Image::new(self.width, self.height, 1);
        for (i, px) in self.data.chunks_exact(3).enumerate() {
            // Integer BT.601 luma.
            let y = (77 * px[0] as u32 + 150 * px[1] as u32 + 29 * px[2] as u32) >> 8;
            out.data[i] = y as u8;
        }
        out
    }

    /// Downsample by integer factor using box averaging.
    pub fn downsample(&self, factor: usize) -> Image {
        assert!(
            factor >= 1 && self.width.is_multiple_of(factor) && self.height.is_multiple_of(factor)
        );
        let (w, h) = (self.width / factor, self.height / factor);
        let mut out = Image::new(w, h, self.channels);
        for y in 0..h {
            for x in 0..w {
                for c in 0..self.channels {
                    let mut acc = 0u32;
                    for dy in 0..factor {
                        for dx in 0..factor {
                            acc += self.get(x * factor + dx, y * factor + dy, c) as u32;
                        }
                    }
                    out.set(x, y, c, (acc / (factor * factor) as u32) as u8);
                }
            }
        }
        out
    }
}

/// A synthetic scene: the image plus its caption.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The rendered image.
    pub image: Image,
    /// A short human caption (the paper's verbal description).
    pub caption: String,
}

/// Deterministically generate a test scene: a vertical illumination
/// gradient, `n_objects` random discs/rectangles, and mild texture
/// noise. Gray or RGB per `channels`.
pub fn synthetic_scene(
    width: usize,
    height: usize,
    channels: usize,
    n_objects: usize,
    seed: u64,
) -> Scene {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut img = Image::new(width, height, channels);
    // Background gradient.
    for y in 0..height {
        let base = (40 + (y * 120) / height.max(1)) as u8;
        for x in 0..width {
            for c in 0..channels {
                let tint = match c {
                    0 => base,
                    1 => base.saturating_add(10),
                    _ => base.saturating_sub(10),
                };
                img.set(x, y, c, tint);
            }
        }
    }
    // Objects: discs at even indices, rectangles at odd ones.
    for i in 0..n_objects {
        let brightness = rng.random_range(120..=255u32) as u8;
        if i % 2 == 0 {
            let r = rng.random_range(width / 16..=width / 6).max(1);
            let cx = rng.random_range(r..width - r);
            let cy = rng.random_range(r..height - r);
            for y in cy.saturating_sub(r)..(cy + r).min(height) {
                for x in cx.saturating_sub(r)..(cx + r).min(width) {
                    let (dx, dy) = (x as i64 - cx as i64, y as i64 - cy as i64);
                    if dx * dx + dy * dy <= (r * r) as i64 {
                        for c in 0..channels {
                            let v = if c == i % channels.max(1) {
                                brightness
                            } else {
                                brightness / 2
                            };
                            img.set(x, y, c, v);
                        }
                    }
                }
            }
        } else {
            let w = rng.random_range(width / 12..=width / 4).max(1);
            let h = rng.random_range(height / 12..=height / 4).max(1);
            let x0 = rng.random_range(0..width - w);
            let y0 = rng.random_range(0..height - h);
            for y in y0..y0 + h {
                for x in x0..x0 + w {
                    for c in 0..channels {
                        img.set(x, y, c, brightness.saturating_sub((c * 30) as u8));
                    }
                }
            }
        }
    }
    // Texture noise.
    for v in img.data.iter_mut() {
        let noise = rng.random_range(-3i16..=3);
        *v = (*v as i16 + noise).clamp(0, 255) as u8;
    }
    let caption = format!(
        "synthetic scene {width}x{height}: {} discs, {} rectangles on a gradient background",
        n_objects.div_ceil(2),
        n_objects / 2
    );
    Scene {
        image: img,
        caption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let mut img = Image::new(4, 3, 1);
        assert_eq!(img.byte_len(), 12);
        img.set(2, 1, 0, 77);
        assert_eq!(img.get(2, 1, 0), 77);
    }

    #[test]
    fn plane_round_trip() {
        let scene = synthetic_scene(16, 16, 3, 2, 1);
        let mut img = scene.image.clone();
        let p = img.plane(1);
        img.set_plane(1, &p);
        assert_eq!(img, scene.image);
    }

    #[test]
    fn set_plane_clamps() {
        let mut img = Image::new(2, 1, 1);
        img.set_plane(0, &[-5, 300]);
        assert_eq!(img.data, vec![0, 255]);
    }

    #[test]
    fn scene_is_deterministic_per_seed() {
        let a = synthetic_scene(32, 32, 1, 4, 9);
        let b = synthetic_scene(32, 32, 1, 4, 9);
        let c = synthetic_scene(32, 32, 1, 4, 10);
        assert_eq!(a.image, b.image);
        assert_ne!(a.image, c.image);
        assert!(a.caption.contains("2 discs, 2 rectangles"));
    }

    #[test]
    fn gray_conversion_dimensions() {
        let scene = synthetic_scene(8, 8, 3, 1, 2);
        let g = scene.image.to_gray();
        assert_eq!(g.channels, 1);
        assert_eq!(g.byte_len(), 64);
        // Gray of gray is identity.
        assert_eq!(g.to_gray(), g);
    }

    #[test]
    fn downsample_box_average() {
        let mut img = Image::new(4, 4, 1);
        for v in img.data.iter_mut() {
            *v = 100;
        }
        img.set(0, 0, 0, 200);
        let d = img.downsample(2);
        assert_eq!(d.width, 2);
        assert_eq!(d.get(0, 0, 0), 125); // (200+100+100+100)/4
        assert_eq!(d.get(1, 1, 0), 100);
    }
}
