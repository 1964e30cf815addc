//! # media — progressive image coding and modality transformation
//!
//! Implements the paper's information transformer suite (§5.4) from
//! scratch (the repro calibration notes that Rust media-transcoding
//! bindings are immature, so nothing external is used):
//!
//! * [`image`] — 8-bit grayscale / RGB images plus seeded synthetic
//!   scene generators standing in for the paper's shared test images,
//! * [`wavelet`] — reversible integer 2-D wavelet transforms (Haar and
//!   CDF 5/3) with multi-level decomposition,
//! * [`ezw`] — an embedded zerotree wavelet coder after Shapiro
//!   (the paper's ref \[23\]): a fully embedded bitstream where *any
//!   prefix* decodes to an image, coarse first — this is exactly what
//!   lets the inference engine accept "1 to 16 packets" and still show
//!   something,
//! * [`packetize`] — split/reassemble the embedded stream into the
//!   image packets the experiments count,
//! * [`sketch`] — robust-segmentation sketch: edge extraction +
//!   downsampling + run-length coding, "up to 2000 times lesser data
//!   than the original" (§5.4),
//! * [`describe`] — the verbal/text description tagged onto media,
//! * [`speech`] — simulated text↔speech modality conversion with
//!   realistic payload-size ratios,
//! * [`metrics`] — bits-per-pixel, compression ratio, PSNR: the
//!   quantities plotted in Figures 6 and 7.
#![forbid(unsafe_code)]

pub mod color;
pub mod describe;
pub mod ezw;
pub mod image;
pub mod metrics;
pub mod packetize;
pub mod reference;
pub mod sketch;
pub mod speech;
pub mod wavelet;

pub use describe::TextDescription;
pub use ezw::{EzwDecoder, EzwEncoder, EzwScratch};
pub use image::Image;
pub use metrics::{bits_per_pixel, compression_ratio, psnr, psnr_color};
pub use packetize::{split_packets, MediaPacket};
pub use sketch::Sketch;

/// Errors from the media pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MediaError {
    /// Image dimensions unsupported by the requested operation.
    BadDimensions(String),
    /// Encoded stream malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaError::BadDimensions(m) => write!(f, "bad dimensions: {m}"),
            MediaError::Malformed(m) => write!(f, "malformed stream: {m}"),
        }
    }
}

impl std::error::Error for MediaError {}
