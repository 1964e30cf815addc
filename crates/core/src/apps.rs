//! The application entities of §4.1: "the chat-area, whiteboard, or
//! the image viewer" — headless here, since the Java UI is not what
//! the experiments measure.

use crate::concurrency::LamportClock;
use crate::events::AppEvent;
use media::ezw;
use media::packetize::{reassemble_prefix, MediaPacket};
use media::{bits_per_pixel, compression_ratio, Image};
use std::collections::HashMap;

// --------------------------------------------------------------- chat

/// The chat area: an append-only log.
#[derive(Debug, Default)]
pub struct ChatArea {
    /// `(author, text)` lines in arrival order.
    pub log: Vec<(String, String)>,
}

impl ChatArea {
    /// Apply a chat event.
    pub fn apply(&mut self, ev: &AppEvent) {
        if let AppEvent::Chat { author, text } = ev {
            self.log.push((author.clone(), text.clone()));
        }
    }
}

// --------------------------------------------------------- whiteboard

/// One whiteboard stroke.
#[derive(Debug, Clone, PartialEq)]
pub struct Stroke {
    /// Author.
    pub client: String,
    /// Lamport stamp.
    pub lamport: u64,
    /// Polyline.
    pub points: Vec<(i16, i16)>,
    /// Color index.
    pub color: u8,
}

/// The whiteboard: per-object stroke lists kept in Lamport order.
#[derive(Debug, Default)]
pub struct Whiteboard {
    strokes: HashMap<u64, Vec<Stroke>>,
    /// Local Lamport clock, advanced by observed strokes.
    pub clock: LamportClock,
}

impl Whiteboard {
    /// Apply a stroke event from `client`.
    pub fn apply(&mut self, client: &str, ev: &AppEvent) {
        if let AppEvent::WhiteboardStroke {
            object_id,
            lamport,
            points,
            color,
        } = ev
        {
            self.clock.observe(*lamport);
            let list = self.strokes.entry(*object_id).or_default();
            let stroke = Stroke {
                client: client.to_string(),
                lamport: *lamport,
                points: points.clone(),
                color: *color,
            };
            // Insert in (lamport, client) order so replicas converge.
            let pos = list
                .iter()
                .position(|s| {
                    (stroke.lamport, stroke.client.as_str()) < (s.lamport, s.client.as_str())
                })
                .unwrap_or(list.len());
            list.insert(pos, stroke);
        }
    }

    /// Strokes on an object, in total order.
    pub fn strokes(&self, object_id: u64) -> &[Stroke] {
        self.strokes.get(&object_id).map_or(&[], Vec::as_slice)
    }
}

impl Whiteboard {
    /// Rasterize an object's strokes onto a copy of `base` (annotation
    /// overlay): each stroke is drawn as a polyline with Bresenham
    /// lines in a per-color gray level. Out-of-bounds points clamp to
    /// the canvas edge, so annotations made against a higher-resolution
    /// rendition still land sensibly on an adapted one.
    pub fn render_onto(&self, object_id: u64, base: &Image) -> Image {
        let mut out = base.clone();
        for stroke in self.strokes(object_id) {
            // Distinct levels per color index, away from mid-gray.
            let level = match stroke.color % 4 {
                0 => 255,
                1 => 0,
                2 => 224,
                _ => 32,
            };
            for pair in stroke.points.windows(2) {
                draw_line(&mut out, pair[0], pair[1], level);
            }
            if stroke.points.len() == 1 {
                draw_line(&mut out, stroke.points[0], stroke.points[0], level);
            }
        }
        out
    }
}

/// Clamped Bresenham line on every channel.
fn draw_line(img: &mut Image, from: (i16, i16), to: (i16, i16), level: u8) {
    let clamp = |p: (i16, i16)| -> (i64, i64) {
        (
            (p.0 as i64).clamp(0, img.width as i64 - 1),
            (p.1 as i64).clamp(0, img.height as i64 - 1),
        )
    };
    let (mut x0, mut y0) = clamp(from);
    let (x1, y1) = clamp(to);
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        for c in 0..img.channels {
            img.set(x0 as usize, y0 as usize, c, level);
        }
        if x0 == x1 && y0 == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x0 += sx;
        }
        if e2 <= dx {
            err += dx;
            y0 += sy;
        }
    }
}

// ------------------------------------------------------- image viewer

/// Metadata of an announced image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageMeta {
    /// Verbal description.
    pub caption: String,
    /// Uncompressed size.
    pub original_bytes: u64,
    /// Pixel count.
    pub pixels: u64,
    /// Packets the object was split into.
    pub total_packets: u16,
}

/// A fully adapted, displayed image with its Figure 6/7 metrics.
#[derive(Debug, Clone)]
pub struct ViewedImage {
    /// Shared object id.
    pub object_id: u64,
    /// The reconstructed image.
    pub image: Image,
    /// Packets actually accepted.
    pub packets_accepted: u32,
    /// Packets the sender emitted.
    pub total_packets: u16,
    /// Bytes of image data received.
    pub received_bytes: usize,
    /// Bits per pixel received — graph 3 of Figures 6/7.
    pub bpp: f64,
    /// Compression ratio vs the original — graph 2.
    pub compression_ratio: f64,
    /// The caption (available even at low quality).
    pub caption: String,
}

#[derive(Debug, Default)]
struct PendingImage {
    meta: Option<ImageMeta>,
    packets: Vec<MediaPacket>,
}

/// The adaptive image viewer.
///
/// The inference engine sets [`ImageViewer::set_packet_budget`]; the
/// viewer then accepts only packet indices below the budget and decodes
/// as soon as the accepted prefix is complete. With a budget of zero it
/// falls back to the caption (the text description in the image
/// metadata).
#[derive(Debug)]
pub struct ImageViewer {
    budget: u32,
    resolution: f64,
    pending: HashMap<u64, PendingImage>,
    /// Successfully decoded images, in completion order.
    pub viewed: Vec<ViewedImage>,
    /// Captions shown instead of images when the budget was zero.
    pub text_fallbacks: Vec<(u64, String)>,
    /// Packets discarded because they exceeded the budget.
    pub packets_discarded: u64,
}

impl Default for ImageViewer {
    fn default() -> Self {
        ImageViewer {
            budget: 0,
            resolution: 1.0,
            pending: HashMap::new(),
            viewed: Vec::new(),
            text_fallbacks: Vec::new(),
            packets_discarded: 0,
        }
    }
}

impl ImageViewer {
    /// A viewer with the given initial packet budget.
    pub fn new(budget: u32) -> ImageViewer {
        ImageViewer {
            budget,
            ..ImageViewer::default()
        }
    }

    /// Current resolution scale in `(0, 1]`.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Set the resolution scale (the inference engine's
    /// `ScaleResolution` output). Values are clamped to `(0, 1]`.
    pub fn set_resolution(&mut self, r: f64) {
        self.resolution = if r.is_finite() {
            r.clamp(1e-3, 1.0)
        } else {
            1.0
        };
    }

    /// Downsampling factor for the current resolution that divides the
    /// image dimensions: the largest integer `f <= 1/resolution` with
    /// `width % f == 0 && height % f == 0`.
    fn resolution_factor(&self, width: usize, height: usize) -> usize {
        let want = (1.0 / self.resolution).floor().max(1.0) as usize;
        (1..=want)
            .rev()
            .find(|f| width.is_multiple_of(*f) && height.is_multiple_of(*f))
            .unwrap_or(1)
    }

    /// Current budget.
    pub fn packet_budget(&self) -> u32 {
        self.budget
    }

    /// Update the budget (the inference engine's output).
    pub fn set_packet_budget(&mut self, budget: u32) {
        self.budget = budget;
    }

    /// Apply an image-related event; returns a decoded image when one
    /// completes.
    pub fn apply(&mut self, ev: &AppEvent) -> Option<ViewedImage> {
        match ev {
            AppEvent::ImageMeta {
                object_id,
                caption,
                original_bytes,
                pixels,
                total_packets,
            } => {
                let entry = self.pending.entry(*object_id).or_default();
                entry.meta = Some(ImageMeta {
                    caption: caption.clone(),
                    original_bytes: *original_bytes,
                    pixels: *pixels,
                    total_packets: *total_packets,
                });
                // A zero-packet announcement is a text-only share; a
                // zero budget means this client cannot afford pixels.
                // Either way the caption is the delivered modality.
                if self.budget == 0 || *total_packets == 0 {
                    self.text_fallbacks.push((*object_id, caption.clone()));
                    self.pending.remove(object_id);
                    return None;
                }
                self.try_complete(*object_id)
            }
            AppEvent::ImagePacket { object_id, packet } => {
                if !self.pending.contains_key(object_id) && self.budget == 0 {
                    self.packets_discarded += 1;
                    return None;
                }
                if packet.index as u32 >= self.budget {
                    self.packets_discarded += 1;
                    return None;
                }
                let entry = self.pending.entry(*object_id).or_default();
                if entry.packets.iter().all(|p| p.index != packet.index) {
                    entry.packets.push(packet.clone());
                }
                self.try_complete(*object_id)
            }
            _ => None,
        }
    }

    /// Decode when the accepted prefix is complete.
    fn try_complete(&mut self, object_id: u64) -> Option<ViewedImage> {
        let entry = self.pending.get(&object_id)?;
        let meta = entry.meta.as_ref()?;
        let want = (self.budget).min(meta.total_packets as u32) as usize;
        if want == 0 {
            return None;
        }
        // Stored indices are distinct (`apply` refuses duplicates), so
        // `want` of them below `want` are the whole prefix;
        // `reassemble_prefix` orders and verifies it.
        let in_prefix = |p: &MediaPacket| (p.index as usize) < want;
        if entry.packets.iter().filter(|p| in_prefix(p)).count() < want {
            return None;
        }
        let entry = self.pending.remove(&object_id)?;
        let meta = entry.meta.expect("checked above");
        let prefix: Vec<MediaPacket> = entry.packets.into_iter().filter(in_prefix).collect();
        let received_bytes: usize = prefix.iter().map(|p| p.payload.len()).sum();
        let container = reassemble_prefix(&prefix).ok()?;
        // The stream's own header sizes what decoding allocates: drop
        // an object that is not the size its announcement promised.
        let (w, h) = ezw::container_dimensions(&container).ok()?;
        if (w * h) as u64 != meta.pixels {
            return None;
        }
        // Apply the inference engine's resolution scale (§5.2: "the
        // resolution of an incoming image may be reduced to match the
        // client's resources"). Power-of-two scales use the wavelet
        // pyramid directly — the finest subbands are never even
        // reconstructed, so a thin client also saves decode work.
        let scale_factor = (1.0 / self.resolution).floor().max(1.0) as usize;
        let drop_levels = scale_factor.ilog2() as usize;
        let image = if drop_levels > 0 {
            match ezw::decode_image_reduced(&container, drop_levels) {
                Ok(img) => {
                    // Any residual non-power-of-two factor is handled by
                    // pixel downsampling.
                    let residual = self
                        .resolution_factor(img.width, img.height)
                        .min(scale_factor >> drop_levels);
                    if residual > 1 {
                        img.downsample(residual)
                    } else {
                        img
                    }
                }
                // Streams too small for the requested drop fall back to
                // a full decode + downsample.
                Err(_) => {
                    let img = ezw::decode_image(&container).ok()?;
                    let factor = self.resolution_factor(img.width, img.height);
                    if factor > 1 {
                        img.downsample(factor)
                    } else {
                        img
                    }
                }
            }
        } else {
            let img = ezw::decode_image(&container).ok()?;
            let factor = self.resolution_factor(img.width, img.height);
            if factor > 1 {
                img.downsample(factor)
            } else {
                img
            }
        };
        let viewed = ViewedImage {
            object_id,
            image,
            packets_accepted: want as u32,
            total_packets: meta.total_packets,
            received_bytes,
            bpp: bits_per_pixel(received_bytes, meta.pixels as usize),
            compression_ratio: compression_ratio(meta.original_bytes as usize, received_bytes),
            caption: meta.caption,
        };
        self.viewed.push(viewed.clone());
        Some(viewed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::image::synthetic_scene;
    use media::packetize::split_packets;
    use media::psnr;
    use media::wavelet::WaveletKind;

    fn share_events(object_id: u64, n_packets: usize) -> (Image, Vec<AppEvent>) {
        let scene = synthetic_scene(64, 64, 1, 3, 7);
        let container = ezw::encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        let packets = split_packets(&container, n_packets);
        let mut events = vec![AppEvent::ImageMeta {
            object_id,
            caption: scene.caption.clone(),
            original_bytes: scene.image.byte_len() as u64,
            pixels: scene.image.pixels() as u64,
            total_packets: n_packets as u16,
        }];
        for p in packets {
            events.push(AppEvent::ImagePacket {
                object_id,
                packet: p,
            });
        }
        (scene.image, events)
    }

    #[test]
    fn viewer_drops_an_object_of_another_size_than_announced() {
        // The announcement promises 64x64; the packets carry 32x32.
        let (_, mut events) = share_events(5, 4);
        let small = synthetic_scene(32, 32, 1, 3, 7);
        let container = ezw::encode_image(&small.image, 3, WaveletKind::Cdf53).unwrap();
        for (ev, packet) in events[1..].iter_mut().zip(split_packets(&container, 4)) {
            *ev = AppEvent::ImagePacket {
                object_id: 5,
                packet,
            };
        }
        let mut viewer = ImageViewer::new(4);
        for ev in &events {
            assert!(viewer.apply(ev).is_none());
        }
        assert!(viewer.viewed.is_empty());
        assert!(viewer.pending.is_empty(), "the object is dropped, not kept");
    }

    #[test]
    fn chat_appends() {
        let mut chat = ChatArea::default();
        chat.apply(&AppEvent::Chat {
            author: "a".into(),
            text: "hi".into(),
        });
        assert_eq!(chat.log, vec![("a".to_string(), "hi".to_string())]);
    }

    #[test]
    fn whiteboard_replicas_converge() {
        let s1 = AppEvent::WhiteboardStroke {
            object_id: 1,
            lamport: 5,
            points: vec![(0, 0)],
            color: 1,
        };
        let s2 = AppEvent::WhiteboardStroke {
            object_id: 1,
            lamport: 3,
            points: vec![(1, 1)],
            color: 2,
        };
        let mut w1 = Whiteboard::default();
        w1.apply("alice", &s1);
        w1.apply("bob", &s2);
        let mut w2 = Whiteboard::default();
        w2.apply("bob", &s2);
        w2.apply("alice", &s1);
        assert_eq!(w1.strokes(1), w2.strokes(1));
        assert_eq!(w1.strokes(1)[0].lamport, 3, "total order by lamport");
    }

    #[test]
    fn whiteboard_renders_strokes_onto_image() {
        let mut wb = Whiteboard::default();
        wb.apply(
            "alice",
            &AppEvent::WhiteboardStroke {
                object_id: 1,
                lamport: 1,
                points: vec![(2, 2), (12, 2)],
                color: 0, // level 255
            },
        );
        let base = Image::new(16, 16, 1);
        let out = wb.render_onto(1, &base);
        // The horizontal line is drawn...
        for x in 2..=12 {
            assert_eq!(out.get(x, 2, 0), 255, "x={x}");
        }
        // ...and the base is untouched elsewhere.
        assert_eq!(out.get(8, 8, 0), 0);
        assert_eq!(base.get(2, 2, 0), 0, "render does not mutate base");
    }

    #[test]
    fn whiteboard_render_clamps_out_of_bounds() {
        let mut wb = Whiteboard::default();
        wb.apply(
            "bob",
            &AppEvent::WhiteboardStroke {
                object_id: 7,
                lamport: 1,
                points: vec![(-50, -50), (100, 100)],
                color: 2,
            },
        );
        let base = Image::new(8, 8, 3);
        let out = wb.render_onto(7, &base);
        // Diagonal through the whole canvas, all channels.
        for i in 0..8 {
            for c in 0..3 {
                assert_eq!(out.get(i, i, c), 224);
            }
        }
    }

    #[test]
    fn full_budget_decodes_losslessly() {
        let (original, events) = share_events(1, 16);
        let mut viewer = ImageViewer::new(16);
        let mut done = None;
        for ev in &events {
            if let Some(v) = viewer.apply(ev) {
                done = Some(v);
            }
        }
        let v = done.expect("completed");
        assert_eq!(v.packets_accepted, 16);
        assert_eq!(v.image.data, original.data);
        assert!(v.compression_ratio > 1.0);
    }

    #[test]
    fn reduced_budget_decodes_coarser_image() {
        let (original, events) = share_events(1, 16);
        let run = |budget: u32| {
            let mut viewer = ImageViewer::new(budget);
            let mut out = None;
            for ev in &events {
                if let Some(v) = viewer.apply(ev) {
                    out = Some(v);
                }
            }
            (viewer, out.expect("completed"))
        };
        let (_, v4) = run(4);
        let (_, v16) = run(16);
        assert_eq!(v4.packets_accepted, 4);
        assert!(v4.bpp < v16.bpp);
        assert!(v4.compression_ratio > v16.compression_ratio);
        assert!(psnr(&original, &v4.image) <= psnr(&original, &v16.image));
    }

    #[test]
    fn budget_counts_discards() {
        let (_, events) = share_events(1, 16);
        let mut viewer = ImageViewer::new(2);
        for ev in &events {
            viewer.apply(ev);
        }
        assert_eq!(viewer.packets_discarded, 14);
        assert_eq!(viewer.viewed.len(), 1);
    }

    #[test]
    fn zero_budget_falls_back_to_text() {
        let (_, events) = share_events(9, 8);
        let mut viewer = ImageViewer::new(0);
        for ev in &events {
            assert!(viewer.apply(ev).is_none());
        }
        assert!(viewer.viewed.is_empty());
        assert_eq!(viewer.text_fallbacks.len(), 1);
        assert_eq!(viewer.text_fallbacks[0].0, 9);
        assert!(viewer.text_fallbacks[0].1.contains("synthetic scene"));
        assert_eq!(viewer.packets_discarded, 8);
    }

    #[test]
    fn out_of_order_and_duplicate_packets_handled() {
        let (original, events) = share_events(1, 8);
        let mut viewer = ImageViewer::new(8);
        // Meta first, then packets reversed, with duplicates.
        viewer.apply(&events[0]);
        let mut done = None;
        for ev in events[1..].iter().rev() {
            if let Some(v) = viewer.apply(ev) {
                done = Some(v);
            }
            // Duplicate delivery must be harmless.
            assert!(viewer.apply(ev).is_none());
        }
        let v = done.expect("completed despite reordering");
        assert_eq!(v.image.data, original.data);
    }

    #[test]
    fn resolution_scaling_downsamples_output() {
        let (original, events) = share_events(1, 8);
        let mut viewer = ImageViewer::new(8);
        viewer.set_resolution(0.5);
        let mut done = None;
        for ev in &events {
            if let Some(v) = viewer.apply(ev) {
                done = Some(v);
            }
        }
        let v = done.expect("completed");
        assert_eq!(v.image.width, original.width / 2);
        assert_eq!(v.image.height, original.height / 2);
    }

    #[test]
    fn resolution_factor_respects_divisibility() {
        let mut viewer = ImageViewer::new(1);
        viewer.set_resolution(0.3); // wants factor 3
                                    // 64 is not divisible by 3; the next divisor down is 2.
        assert_eq!(viewer.resolution_factor(64, 64), 2);
        viewer.set_resolution(1.0);
        assert_eq!(viewer.resolution_factor(64, 64), 1);
        viewer.set_resolution(f64::NAN);
        assert_eq!(viewer.resolution(), 1.0, "NaN rejected");
    }

    #[test]
    fn packets_before_meta_buffered() {
        let (original, events) = share_events(1, 4);
        let mut viewer = ImageViewer::new(4);
        let mut done = None;
        // Packets first...
        for ev in &events[1..] {
            assert!(viewer.apply(ev).is_none());
        }
        // ...then the announcement completes it.
        if let Some(v) = viewer.apply(&events[0]) {
            done = Some(v);
        }
        assert_eq!(done.expect("completed").image.data, original.data);
    }
}
