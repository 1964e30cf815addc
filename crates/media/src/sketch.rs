//! The robust-segmentation sketch transformer.
//!
//! "The module uses robust segmentation of the image to extract a
//! realistic sketch of the main features. This sketch preserves the
//! essential information required for effective collaboration, and
//! requires up to 2000 times lesser data than the original" (§5.4).
//!
//! Pipeline: grayscale → Sobel gradient magnitude → adaptive threshold
//! → downsample to a compact feature grid → run-length-coded binary
//! sketch. Decoding reproduces the binary feature map at sketch
//! resolution; `ratio()` reports the data reduction against the
//! original image.

use crate::image::Image;
use crate::MediaError;

/// Sketch stream magic.
const MAGIC: &[u8; 4] = b"SKB1";

/// A compact binary sketch of an image's main features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// Sketch grid width.
    pub width: usize,
    /// Sketch grid height.
    pub height: usize,
    /// Source image size in bytes (for the reduction ratio).
    pub original_bytes: usize,
    /// Run-length-coded binary map (varint runs, starting with 0-runs).
    rle: Vec<u8>,
}

impl Sketch {
    /// Extract a sketch from `img`, downsampling the edge map by
    /// `factor` (the sketch grid is `width/factor x height/factor`).
    pub fn extract(img: &Image, factor: usize) -> Result<Sketch, MediaError> {
        if factor == 0 || !img.width.is_multiple_of(factor) || !img.height.is_multiple_of(factor) {
            return Err(MediaError::BadDimensions(format!(
                "factor {factor} does not divide {}x{}",
                img.width, img.height
            )));
        }
        let gray = img.to_gray();
        let (w, h) = (gray.width, gray.height);
        // Sobel gradient magnitude.
        let mut grad = vec![0u32; w * h];
        for y in 1..h.saturating_sub(1) {
            for x in 1..w.saturating_sub(1) {
                let p = |dx: i64, dy: i64| {
                    gray.data[((y as i64 + dy) as usize) * w + (x as i64 + dx) as usize] as i64
                };
                let gx = -p(-1, -1) - 2 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2 * p(1, 0) + p(1, 1);
                let gy = -p(-1, -1) - 2 * p(0, -1) - p(1, -1) + p(-1, 1) + 2 * p(0, 1) + p(1, 1);
                grad[y * w + x] = (gx.abs() + gy.abs()) as u32;
            }
        }
        // Adaptive threshold: mean + 2*stddev of nonzero gradients.
        let n = grad.len() as f64;
        let mean = grad.iter().map(|&g| g as f64).sum::<f64>() / n;
        let var = grad
            .iter()
            .map(|&g| {
                let d = g as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let threshold = (mean + 2.0 * var.sqrt()).max(1.0) as u32;
        // Downsampled binary map: a sketch cell is set when any pixel in
        // its block exceeds the threshold.
        let (sw, sh) = (w / factor, h / factor);
        let mut map = vec![false; sw * sh];
        for y in 0..h {
            for x in 0..w {
                if grad[y * w + x] >= threshold {
                    map[(y / factor) * sw + (x / factor)] = true;
                }
            }
        }
        // RLE: alternating run lengths, starting with a (possibly zero)
        // run of clear cells, varint-encoded.
        let mut rle = Vec::new();
        let mut current = false;
        let mut run: u64 = 0;
        for &bit in &map {
            if bit == current {
                run += 1;
            } else {
                put_varint(&mut rle, run);
                current = bit;
                run = 1;
            }
        }
        put_varint(&mut rle, run);
        Ok(Sketch {
            width: sw,
            height: sh,
            original_bytes: img.byte_len(),
            rle,
        })
    }

    /// Total encoded size in bytes (header + runs).
    pub fn byte_len(&self) -> usize {
        MAGIC.len() + 2 + 2 + 4 + self.rle.len()
    }

    /// Data reduction versus the original image.
    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / self.byte_len() as f64
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.width as u16).to_be_bytes());
        out.extend_from_slice(&(self.height as u16).to_be_bytes());
        out.extend_from_slice(&(self.original_bytes as u32).to_be_bytes());
        out.extend_from_slice(&self.rle);
        out
    }

    /// Deserialize.
    pub fn decode(bytes: &[u8]) -> Result<Sketch, MediaError> {
        if bytes.len() < 12 || &bytes[..4] != MAGIC {
            return Err(MediaError::Malformed("bad sketch header"));
        }
        let width = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        let height = u16::from_be_bytes([bytes[6], bytes[7]]) as usize;
        let original_bytes = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        Ok(Sketch {
            width,
            height,
            original_bytes,
            rle: bytes[12..].to_vec(),
        })
    }

    /// Expand to a binary image (255 = feature, 0 = background).
    #[cfg(test)]
    pub fn to_image(&self) -> Result<Image, MediaError> {
        let mut img = Image::new(self.width, self.height, 1);
        let mut pos = 0usize;
        let mut idx = 0usize;
        let mut bit = false;
        while pos < self.rle.len() {
            let (run, used) =
                get_varint(&self.rle[pos..]).ok_or(MediaError::Malformed("bad sketch varint"))?;
            pos += used;
            for _ in 0..run {
                if idx >= img.data.len() {
                    return Err(MediaError::Malformed("sketch runs overflow grid"));
                }
                img.data[idx] = if bit { 255 } else { 0 };
                idx += 1;
            }
            bit = !bit;
        }
        if idx != img.data.len() {
            return Err(MediaError::Malformed("sketch runs underflow grid"));
        }
        Ok(img)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[cfg(test)]
fn get_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        v |= ((b & 0x7f) as u64) << (7 * i);
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::synthetic_scene;

    /// Fraction of sketch cells that are features.
    fn density(sk: &Sketch) -> f64 {
        let img = sk.to_image().unwrap();
        img.data.iter().filter(|&&v| v != 0).count() as f64 / img.data.len() as f64
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            assert_eq!(get_varint(&buf), Some((v, buf.len())), "v={v}");
        }
    }

    #[test]
    fn sketch_round_trip() {
        let scene = synthetic_scene(64, 64, 1, 3, 4);
        let sk = Sketch::extract(&scene.image, 4).unwrap();
        let back = Sketch::decode(&sk.encode()).unwrap();
        assert_eq!(back, sk);
        let img = back.to_image().unwrap();
        assert_eq!((img.width, img.height), (16, 16));
    }

    #[test]
    fn sketch_finds_object_edges() {
        let scene = synthetic_scene(128, 128, 1, 4, 7);
        let sk = Sketch::extract(&scene.image, 2).unwrap();
        let density = density(&sk);
        assert!(
            density > 0.005 && density < 0.5,
            "edges should be sparse but present, got {density}"
        );
    }

    #[test]
    fn flat_image_sketch_is_near_empty_and_tiny() {
        let img = Image::new(64, 64, 1);
        let sk = Sketch::extract(&img, 4).unwrap();
        assert_eq!(density(&sk), 0.0);
        assert!(sk.byte_len() < 20);
    }

    #[test]
    fn headline_reduction_on_color_image() {
        // The paper's headline: "up to 2000 times lesser data". A
        // 512x512 RGB original (786 KiB) against a 64x64 sketch grid.
        let scene = synthetic_scene(512, 512, 3, 5, 42);
        let sk = Sketch::extract(&scene.image, 8).unwrap();
        let ratio = sk.ratio();
        assert!(
            ratio > 500.0,
            "reduction should be three orders of magnitude, got {ratio:.0}x"
        );
    }

    #[test]
    fn bad_factor_rejected() {
        let img = Image::new(30, 30, 1);
        assert!(Sketch::extract(&img, 0).is_err());
        assert!(Sketch::extract(&img, 4).is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let scene = synthetic_scene(32, 32, 1, 2, 1);
        let sk = Sketch::extract(&scene.image, 2).unwrap();
        let mut bytes = sk.encode();
        bytes[0] = b'X';
        assert!(Sketch::decode(&bytes).is_err());
        // Runs that do not cover the grid.
        let mut short = sk.encode();
        short.truncate(13);
        if let Ok(s) = Sketch::decode(&short) {
            assert!(s.to_image().is_err());
        }
    }
}
