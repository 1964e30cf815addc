//! The application entities of §4.1: "the chat-area, whiteboard, or
//! the image viewer" — headless here, since the Java UI is not what
//! the experiments measure.

use crate::concurrency::LamportClock;
use crate::events::{AppEvent, EventView};
use media::ezw::{self, decode_image_reduced_with, CodecScratch};
use media::packetize::{reassemble_stripes, PacketView};
use media::wavelet::WaveletKind;
use media::{bits_per_pixel, compression_ratio, Image, MediaError};
use sempubsub::{CacheStatsHandle, WireMessage};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

// --------------------------------------------------------------- chat

/// The chat area: an append-only log.
#[derive(Debug, Default)]
pub struct ChatArea {
    /// `(author, text)` lines in arrival order.
    pub log: Vec<(String, String)>,
}

impl ChatArea {
    /// Apply a chat event, read in place: the log's own copy of its
    /// author and text is all it allocates.
    pub fn apply(&mut self, ev: &EventView<'_>) {
        if let EventView::Chat { author, text } = *ev {
            self.log.push((author.to_owned(), text.to_owned()));
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
    /// The reconstructed image — one pixel buffer shared by every
    /// viewer of the session that holds the same prefix of the object,
    /// by this viewer's log and by the value `pump` returns.
    pub image: Arc<Image>,
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

/// Containers a [`MediaStore`] keeps encoded, each one share's capped
/// stream: a re-share of a scene under the same cap is a hit.
const ENCODE_CAPACITY: usize = 32;

/// Views a [`MediaStore`] keeps. Each entry holds its container and
/// pins one decoded image; the viewers that asked share that image, so
/// a handful costs less memory than the per-viewer copies they replace,
/// where a long tail of entries nobody asks for again would cost more.
const VIEW_CAPACITY: usize = 4;

/// What an image encodes to: the shared container, or why there is none.
type Encoded = Result<Arc<[u8]>, MediaError>;

/// What a container decodes to: the shared image, or why there is none.
type Decoded = Result<Arc<Image>, MediaError>;

/// A view held by a [`MediaStore`]: container bytes and the finest
/// wavelet levels left out of them, and what they decode to.
struct View {
    container: Arc<Vec<u8>>,
    drop_levels: usize,
    image: Decoded,
}

/// Take the entry `is` picks out of `table` (least recently asked-for
/// first), for the caller to put back last.
fn take<T>(table: &mut VecDeque<T>, is: impl Fn(&T) -> bool) -> Option<T> {
    let i = table.iter().position(is)?;
    table.remove(i)
}

/// FNV-1a-style fold over the coding parameters, then the pixel data
/// eight bytes a step (one multiply per word, not per byte — the
/// multiply chain is serial, and this runs on every share, hits
/// included), then the tail bytes one by one. A multiply only carries a
/// difference upward, so each step also folds the high half of the
/// state back down: without that, differences in the top bits of two
/// words (pixels at offsets 7 mod 8) stay in the top bits of the state
/// and cancel. Deterministic; the key never leaves the process.
fn content_key(
    img: &Image,
    levels: usize,
    kind: WaveletKind,
    color_transform: bool,
    byte_cap: Option<usize>,
) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |word: u64| {
        h = (h ^ word).wrapping_mul(0x100000001b3);
        h ^= h >> 29;
    };
    for v in [
        img.width as u64,
        img.height as u64,
        img.channels as u64,
        levels as u64,
        kind as u64,
        color_transform as u64,
        byte_cap.map_or(u64::MAX, |cap| cap as u64),
    ] {
        mix(v);
    }
    let words = img.data.chunks_exact(8);
    let tail = words.remainder();
    for word in words {
        mix(u64::from_le_bytes(word.try_into().expect("chunks of 8")));
    }
    for &b in tail {
        mix(b as u64);
    }
    h
}

/// Bytes to look a view up by.
enum Ask {
    /// A container in a buffer the store keeps: as the key of a new
    /// view, or for a later reassembly.
    Buffer(Vec<u8>),
    /// The container of a view asked for before.
    Key(Arc<Vec<u8>>),
}

/// The session's media path (§5.4): the information transformer codes
/// an image once as one embedded stream, and each receiver takes a
/// prefix of it. The store encodes each distinct image under each
/// coding parameter and rate cap once, and decodes each distinct
/// `(container bytes, drop_levels)` once, in two small LRU tables — one
/// from content key to container, one from container to image — on the
/// one [`CodecScratch`] it keeps between calls.
///
/// *Encoding.* N clients at different modality tiers share one encode
/// (an `Arc<[u8]>` clone per consumer), made to the session's rate cap
/// and no further — the bits past the cap are never coded — and each
/// client's tier is a prefix of it by packet count, never a
/// decode→re-encode round trip. The key is a hash of the pixels and the
/// coding parameters (`content_key`). A miss is one
/// [`ezw::encode_image_capped_with`] on the store's scratch: it
/// prepares its coefficient planes there and leaves the records of the
/// streams it wrote, so the views of a fresh share that follow replay
/// them and read no symbol. What a miss allocates is the shared
/// container itself, once, at its exact size.
///
/// *Viewing.* The image viewer adapts by taking a prefix of one
/// embedded stream, so every viewer on the same packet budget holds
/// byte-identical container bytes and is owed bit-identical pixels;
/// every asker is handed the same `Arc<Image>`. The scratch remembers
/// the last stream it read or wrote, so the distinct prefixes of one
/// object — prefixes of each other — cost one reading of its symbols
/// when the longest is asked for first, and none after its encode
/// ([`MediaStore::replays`]). The key is the verified container itself,
/// compared byte for byte — never an object id or a hash — so two
/// different streams cannot alias whatever their ids, lengths or
/// senders.
#[derive(Default)]
pub struct MediaStore {
    /// Content key ([`content_key`]) → container, and the views; both
    /// least recently asked-for first.
    encodes: VecDeque<(u64, Arc<[u8]>)>,
    views: VecDeque<View>,
    /// The scratch every encode and decode runs on.
    scratch: CodecScratch,
    /// Reassembly buffers not in use now: those of asks that hit, and
    /// the containers of evicted views nothing else held.
    buffers: Vec<Vec<u8>>,
    encode_stats: CacheStatsHandle,
    hits: u64,
    misses: u64,
    replays: u64,
}

impl MediaStore {
    /// An empty store.
    pub fn new() -> MediaStore {
        MediaStore::default()
    }

    /// Encode `img` to at most `byte_cap` bytes, or share the container
    /// an earlier ask with the same pixels and parameters got. The
    /// container is [`ezw::encode_image_capped`]'s — the prefix
    /// [`ezw::truncate_container`] would cut of the full encode, made
    /// without coding the rest — and is shared, not copied. A hit runs
    /// no encode and leaves the scratch alone; an encode that fails
    /// files nothing, and a level count the image does not support
    /// counts as neither hit nor miss.
    pub fn encode_image(
        &mut self,
        img: &Image,
        levels: usize,
        kind: WaveletKind,
        color_transform: bool,
        byte_cap: Option<usize>,
    ) -> Encoded {
        ezw::check_levels(img, levels)?;
        let key = content_key(img, levels, kind, color_transform, byte_cap);
        let entry = if let Some(entry) = take(&mut self.encodes, |&(k, _)| k == key) {
            self.encode_stats.record_hit();
            entry
        } else {
            self.encode_stats.record_miss();
            let encoded = ezw::encode_image_capped_with(
                img,
                levels,
                kind,
                color_transform,
                byte_cap,
                &mut self.scratch,
            )?;
            // Deterministic LRU eviction, after the encode, so a
            // failed one evicts nothing either.
            if self.encodes.len() == ENCODE_CAPACITY {
                self.encodes.pop_front();
                self.encode_stats.record_eviction();
            }
            (key, Arc::from(encoded))
        };
        let container = Arc::clone(&entry.1);
        self.encodes.push_back(entry);
        Ok(container)
    }

    /// Live encode counters (hits / misses / evictions); the clone
    /// shares the cells, so it stays current.
    pub fn encode_stats(&self) -> CacheStatsHandle {
        self.encode_stats.clone()
    }

    /// The image `container` decodes to with `drop_levels` finest
    /// wavelet levels left out — what [`decode_image_reduced_with`]
    /// returns for it, decoded now or shared from an earlier ask for
    /// the same bytes. A container that does not decode is the same
    /// error to everyone who asks, held like a view.
    ///
    /// The store keeps `container` either way, without copying it: on
    /// a miss as the new view's key, on a hit as a buffer for a later
    /// reassembly. (A copy taken here, ahead of the decode's large
    /// allocations, cost the benchmark's image workload 4 % through the
    /// heap layout it left behind — EXPERIMENTS.md.)
    pub fn view(&mut self, container: Vec<u8>, drop_levels: usize) -> Decoded {
        self.ask(Ask::Buffer(container), drop_levels).0
    }

    /// A buffer to reassemble a container into: one an earlier ask left
    /// with the store, or a new one. What it holds is of no account.
    fn buffer(&mut self) -> Vec<u8> {
        self.buffers.pop().unwrap_or_default()
    }

    /// Keep a reassembly buffer for later, up to one per view held.
    fn keep_buffer(&mut self, buffer: Vec<u8>) {
        if self.buffers.len() < VIEW_CAPACITY {
            self.buffers.push(buffer);
        }
    }

    /// The viewer's ask: [`MediaStore::view`], except that when the view
    /// with `drop_levels` left out is an error and `drop_levels > 0` (a
    /// stream with fewer levels than that), the full view of the same
    /// bytes is asked for instead. Returns the image and the levels it
    /// dropped.
    fn view_reassembled(
        &mut self,
        container: Vec<u8>,
        drop_levels: usize,
    ) -> Result<(Arc<Image>, usize), MediaError> {
        match self.ask(Ask::Buffer(container), drop_levels) {
            (Ok(image), _) => Ok((image, drop_levels)),
            (Err(_), key) if drop_levels > 0 => self.ask(Ask::Key(key), 0).0.map(|i| (i, 0)),
            (Err(e), _) => Err(e),
        }
    }

    /// Look `bytes` up and decode them on a miss. Returns the view and
    /// the container it is held under.
    fn ask(&mut self, bytes: Ask, drop_levels: usize) -> (Decoded, Arc<Vec<u8>>) {
        let held = {
            let bytes: &[u8] = match &bytes {
                Ask::Buffer(buffer) => buffer,
                Ask::Key(key) => key,
            };
            take(&mut self.views, |view| {
                view.drop_levels == drop_levels && **view.container == *bytes
            })
        };
        let view = if let Some(view) = held {
            self.hits += 1;
            if let Ask::Buffer(buffer) = bytes {
                self.keep_buffer(buffer);
            }
            view
        } else {
            self.misses += 1;
            if self.views.len() == VIEW_CAPACITY {
                self.evict();
            }
            let container = match bytes {
                Ask::Buffer(buffer) => Arc::new(buffer),
                Ask::Key(key) => key,
            };
            let before = self.scratch.replays();
            let image = decode_image_reduced_with(&container, drop_levels, &mut self.scratch);
            self.replays += self.scratch.replays() - before;
            View {
                container,
                drop_levels,
                image: image.map(Arc::new),
            }
        };
        let held = (view.image.clone(), Arc::clone(&view.container));
        self.views.push_back(view);
        held
    }

    /// Drop the least recently asked-for view, keeping what of it
    /// nobody else holds: its container as a reassembly buffer, and its
    /// image's pixels as the next decode's output
    /// ([`CodecScratch::recycle`]). Either goes only when the store held
    /// the last reference to it — a view a caller still holds is never
    /// written over.
    fn evict(&mut self) {
        let Some(view) = self.views.pop_front() else {
            return;
        };
        if let Some(image) = view.image.ok().and_then(Arc::into_inner) {
            self.scratch.recycle(image);
        }
        if let Some(buffer) = Arc::into_inner(view.container) {
            self.keep_buffer(buffer);
        }
    }

    /// Views held now (never more than a small fixed number).
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no view is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View asks that found their bytes already asked for, and share
    /// that decode.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// View asks that found no view of their bytes; the decoder runs
    /// once for each, so once per distinct `(container, drop_levels)`
    /// while its view stays held.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// View misses decoded without reading a symbol
    /// ([`CodecScratch::replays`]): the container was, channel by
    /// channel, a prefix of the one the scratch had read or written
    /// last — a view of the share just encoded, or a smaller packet
    /// budget's view of the same object asked for after a larger one's.
    /// Unlike hits and misses this depends on the order of the asks
    /// (shortest first replays nothing).
    pub fn replays(&self) -> u64 {
        self.replays
    }
}

/// Finished objects an [`ImageViewer`] remembers, newest last, so that
/// a late copy of one of their packets is not taken for a new object.
const FINISHED_WINDOW: usize = 64;

#[derive(Debug, Default)]
struct PendingImage {
    meta: Option<ImageMeta>,
    /// Accepted stripes, one per index, in index order.
    stripes: Vec<HeldStripe>,
}

/// An accepted stripe, held until its prefix completes: its header, and
/// the message it arrived in — shared, not copied — whose body ends
/// with its payload from `start` on.
#[derive(Debug)]
struct HeldStripe {
    index: u16,
    total: u16,
    full_len: u32,
    message: Arc<WireMessage>,
    start: usize,
}

impl HeldStripe {
    fn view(&self) -> PacketView<'_> {
        PacketView {
            index: self.index,
            total: self.total,
            full_len: self.full_len,
            payload: &self.message.body()[self.start..],
        }
    }
}

/// The adaptive image viewer.
///
/// The inference engine sets [`ImageViewer::set_packet_budget`]; the
/// viewer then accepts only packet indices below the budget and decodes
/// as soon as the accepted prefix is complete. With a budget of zero it
/// falls back to the caption (the text description in the image
/// metadata).
///
/// A delivered packet is held in place
/// ([`ImageViewer::apply_delivered`]): the viewer keeps a reference to
/// the message it arrived in, shared with every other receiver, and
/// copies its payload only once, into the reassembled container, which
/// it decodes through the [`MediaStore`] it is handed.
#[derive(Debug, Default)]
pub struct ImageViewer {
    budget: u32,
    resolution: f64,
    pending: HashMap<u64, PendingImage>,
    /// Ids of the last [`FINISHED_WINDOW`] objects that left `pending`
    /// (viewed, shown as a caption, or dropped as invalid).
    finished: VecDeque<u64>,
    /// Successfully decoded images, in completion order.
    pub viewed: Vec<ViewedImage>,
    /// Captions shown instead of images when the budget was zero.
    pub text_fallbacks: Vec<(u64, String)>,
    /// Packets discarded because they exceeded the budget or belonged
    /// to an object already finished.
    pub packets_discarded: u64,
}

impl ImageViewer {
    /// A viewer with the given initial packet budget.
    pub fn new(budget: u32) -> ImageViewer {
        ImageViewer {
            budget,
            resolution: 1.0,
            pending: HashMap::new(),
            // Not pre-sized: a client that never sees an image (most
            // of a chat-only session's) should not carry the window.
            finished: VecDeque::new(),
            viewed: Vec::new(),
            text_fallbacks: Vec::new(),
            packets_discarded: 0,
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

    /// Objects announced or partly received and not yet finished.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Take `object_id` out of `pending` for good: whatever arrives for
    /// it from now on is a late copy.
    fn finish(&mut self, object_id: u64) -> Option<PendingImage> {
        if self.finished.len() == FINISHED_WINDOW {
            self.finished.pop_front();
        }
        self.finished.push_back(object_id);
        self.pending.remove(&object_id)
    }

    /// Apply an image-related event read in place — `ev` is
    /// [`EventView::parse`] of `message`'s body — and return a decoded
    /// image when one completes, decoded through `store` — so viewers
    /// handed one store share each view. An accepted packet is held as
    /// a clone of the `Arc` and the payload's offset in the body: its
    /// bytes are not copied until the prefix reassembles.
    ///
    /// An object id is single-use per viewer: once an object has been
    /// viewed, shown as its caption or dropped as invalid, a later
    /// `ImageMeta` or `ImagePacket` carrying its id is taken for a late
    /// copy and ignored (packets count as `packets_discarded`) — so
    /// replaying an object to the same viewer, say after
    /// [`set_packet_budget`](Self::set_packet_budget), yields nothing;
    /// share it again under a new id. The viewer remembers the last 64
    /// finished ids (`FINISHED_WINDOW`); a copy that arrives after that
    /// many newer objects have finished is not recognised and opens a
    /// pending entry as a new object would.
    pub fn apply_delivered(
        &mut self,
        ev: &EventView<'_>,
        message: &Arc<WireMessage>,
        store: &mut MediaStore,
    ) -> Option<ViewedImage> {
        match *ev {
            EventView::ImageMeta {
                object_id,
                caption,
                original_bytes,
                pixels,
                total_packets,
            } => {
                if self.finished.contains(&object_id) {
                    return None;
                }
                // A zero-packet announcement is a text-only share; a
                // zero budget means this client cannot afford pixels.
                // Either way the caption is the delivered modality.
                if self.budget == 0 || total_packets == 0 {
                    self.text_fallbacks.push((object_id, caption.to_owned()));
                    self.finish(object_id);
                    return None;
                }
                let want = self.budget.min(u32::from(total_packets)) as usize;
                let entry = self.pending.entry(object_id).or_default();
                entry.meta = Some(ImageMeta {
                    caption: caption.to_owned(),
                    original_bytes,
                    pixels,
                    total_packets,
                });
                let missing = want.saturating_sub(entry.stripes.len());
                entry.stripes.reserve_exact(missing);
                self.try_complete(object_id, store)
            }
            EventView::ImagePacket { object_id, packet } => {
                // A duplicated or re-sent packet of a finished object
                // would otherwise open an entry nothing ever closes.
                if self.finished.contains(&object_id)
                    || (!self.pending.contains_key(&object_id) && self.budget == 0)
                    || u32::from(packet.index) >= self.budget
                {
                    self.packets_discarded += 1;
                    return None;
                }
                let entry = self.pending.entry(object_id).or_default();
                if let Err(at) = entry
                    .stripes
                    .binary_search_by_key(&packet.index, |s| s.index)
                {
                    let stripe = HeldStripe {
                        index: packet.index,
                        total: packet.total,
                        full_len: packet.full_len,
                        message: Arc::clone(message),
                        // The payload is the tail of the body.
                        start: message.body().len() - packet.payload.len(),
                    };
                    entry.stripes.insert(at, stripe);
                }
                self.try_complete(object_id, store)
            }
            _ => None,
        }
    }

    /// Decode when the accepted prefix is complete.
    fn try_complete(&mut self, object_id: u64, store: &mut MediaStore) -> Option<ViewedImage> {
        let entry = self.pending.get(&object_id)?;
        let meta = entry.meta.as_ref()?;
        let want = (self.budget).min(meta.total_packets as u32) as usize;
        if want == 0 {
            return None;
        }
        // Held indices are distinct and in order, so the prefix is
        // complete when the `want`-th of them is `want - 1`;
        // `reassemble_stripes` verifies it.
        if entry
            .stripes
            .get(want - 1)
            .is_none_or(|s| usize::from(s.index) != want - 1)
        {
            return None;
        }
        let entry = self.finish(object_id)?;
        let meta = entry.meta.expect("checked above");
        let prefix = &entry.stripes[..want];
        let received_bytes: usize = prefix.iter().map(|s| s.view().payload.len()).sum();
        let mut container = store.buffer();
        reassemble_stripes(prefix.iter().map(HeldStripe::view), &mut container).ok()?;
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
        // Streams too small for the requested drop fall back to a full
        // decode + downsample.
        let (image, dropped) = store.view_reassembled(container, drop_levels).ok()?;
        // Any residual non-power-of-two factor is handled by pixel
        // downsampling, on this viewer's own copy.
        let residual = self
            .resolution_factor(image.width, image.height)
            .min(scale_factor >> dropped);
        let image = if residual > 1 {
            Arc::new(image.downsample(residual))
        } else {
            image
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
    use sempubsub::SemanticMessage;
    use std::collections::BTreeMap;

    /// `ev` as a session delivers it: in a message of its own, read in
    /// place, decoded through `store`.
    fn deliver_to(
        viewer: &mut ImageViewer,
        store: &mut MediaStore,
        ev: &AppEvent,
    ) -> Option<ViewedImage> {
        let wire = SemanticMessage {
            sender: String::new(),
            kind: ev.kind().to_string(),
            selector: String::new(),
            seq: 0,
            content: BTreeMap::new(),
            body: ev.encode(),
        }
        .encode();
        let message = Arc::new(WireMessage::decode(&wire).expect("an encoded message reads"));
        let view = EventView::parse(message.body()).expect("an encoded event parses");
        viewer.apply_delivered(&view, &message, store)
    }

    /// [`deliver_to`] a viewer that decodes through a store of its own.
    fn deliver(viewer: &mut ImageViewer, ev: &AppEvent) -> Option<ViewedImage> {
        deliver_to(viewer, &mut MediaStore::new(), ev)
    }

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
            assert!(deliver(&mut viewer, ev).is_none());
        }
        assert!(viewer.viewed.is_empty());
        assert!(viewer.pending.is_empty(), "the object is dropped, not kept");
    }

    #[test]
    fn chat_appends() {
        let mut chat = ChatArea::default();
        chat.apply(&EventView::Chat {
            author: "a",
            text: "hi",
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
    fn full_budget_decodes_losslessly() {
        let (original, events) = share_events(1, 16);
        let mut viewer = ImageViewer::new(16);
        let mut done = None;
        for ev in &events {
            if let Some(v) = deliver(&mut viewer, ev) {
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
                if let Some(v) = deliver(&mut viewer, ev) {
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
            deliver(&mut viewer, ev);
        }
        assert_eq!(viewer.packets_discarded, 14);
        assert_eq!(viewer.viewed.len(), 1);
    }

    #[test]
    fn zero_budget_falls_back_to_text() {
        let (_, events) = share_events(9, 8);
        let mut viewer = ImageViewer::new(0);
        for ev in &events {
            assert!(deliver(&mut viewer, ev).is_none());
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
        deliver(&mut viewer, &events[0]);
        let mut done = None;
        for ev in events[1..].iter().rev() {
            if let Some(v) = deliver(&mut viewer, ev) {
                done = Some(v);
            }
            // Duplicate delivery must be harmless.
            assert!(deliver(&mut viewer, ev).is_none());
        }
        let v = done.expect("completed despite reordering");
        assert_eq!(v.image.data, original.data);
    }

    #[test]
    fn late_copies_of_a_finished_object_are_discarded() {
        let (_, events) = share_events(1, 8);
        let mut viewer = ImageViewer::new(8);
        let views = events
            .iter()
            .filter_map(|ev| deliver(&mut viewer, ev))
            .count();
        assert_eq!((views, viewer.pending_len()), (1, 0));
        // A duplicating link re-delivers two packets and the
        // announcement after the object completed.
        for ev in [&events[3], &events[8], &events[0]] {
            assert!(deliver(&mut viewer, ev).is_none());
        }
        assert_eq!(viewer.pending_len(), 0, "nothing reopened");
        assert_eq!(viewer.viewed.len(), 1, "no second view");
        assert_eq!(viewer.packets_discarded, 2);

        // The same holds for an object that finished as a caption.
        let (_, events) = share_events(2, 8);
        viewer.set_packet_budget(0);
        deliver(&mut viewer, &events[0]);
        viewer.set_packet_budget(8);
        assert!(deliver(&mut viewer, &events[1]).is_none());
        assert!(deliver(&mut viewer, &events[0]).is_none());
        assert_eq!(viewer.pending_len(), 0);
        assert_eq!(viewer.text_fallbacks.len(), 1, "no second caption");
    }

    #[test]
    fn finished_window_is_bounded() {
        let mut viewer = ImageViewer::new(0);
        for object_id in 0..3 * FINISHED_WINDOW as u64 {
            deliver(
                &mut viewer,
                &AppEvent::ImageMeta {
                    object_id,
                    caption: String::new(),
                    original_bytes: 0,
                    pixels: 0,
                    total_packets: 0,
                },
            );
        }
        assert_eq!(viewer.finished.len(), FINISHED_WINDOW);
        assert_eq!(
            viewer.finished.back(),
            Some(&(3 * FINISHED_WINDOW as u64 - 1))
        );
    }

    #[test]
    fn viewers_on_one_store_share_one_decode() {
        let (original, events) = share_events(1, 8);
        let mut store = MediaStore::new();
        let mut views = Vec::new();
        for _ in 0..3 {
            let mut viewer = ImageViewer::new(8);
            views.extend(
                events
                    .iter()
                    .filter_map(|ev| deliver_to(&mut viewer, &mut store, ev)),
            );
        }
        assert_eq!((store.misses(), store.hits()), (1, 2));
        assert_eq!(views[0].image.data, original.data);
        assert!(views.iter().all(|v| Arc::ptr_eq(&v.image, &views[0].image)));
        // A scale past the stream's four levels falls back to the full
        // view — already in the store — and downsamples a copy of it.
        let mut thin = ImageViewer::new(8);
        thin.set_resolution(1.0 / 32.0);
        let small = events
            .iter()
            .find_map(|ev| deliver_to(&mut thin, &mut store, ev))
            .unwrap();
        assert_eq!((small.image.width, small.image.height), (2, 2));
        assert_eq!((store.misses(), store.hits()), (2, 3));
        assert_eq!(views[0].image.data, original.data, "shared view untouched");
        // "Cannot drop five levels" is held like a view: the next thin
        // viewer is told so, and shown the full view, without a decode.
        let mut thin = ImageViewer::new(8);
        thin.set_resolution(1.0 / 32.0);
        let again = events
            .iter()
            .find_map(|ev| deliver_to(&mut thin, &mut store, ev))
            .unwrap();
        assert_eq!(again.image, small.image);
        assert_eq!((store.misses(), store.hits()), (2, 5));
    }

    /// Asks of three containers, interleaved four times over: equal
    /// bytes are decoded once and every asker of them is handed the same
    /// image; different bytes are decoded separately.
    #[test]
    fn askers_of_one_prefix_decode_it_once() {
        let containers: Vec<Vec<u8>> = (0..3)
            .map(|seed| {
                let image = synthetic_scene(64, 64, 1, 3, seed).image;
                ezw::encode_image(&image, 4, WaveletKind::Cdf53).unwrap()
            })
            .collect();
        let mut store = MediaStore::new();
        let views: Vec<Arc<Image>> = (0..4 * containers.len())
            .map(|i| {
                store
                    .view(containers[i % containers.len()].clone(), 0)
                    .unwrap()
            })
            .collect();
        assert_eq!((store.misses(), store.hits()), (3, 9));
        for (i, view) in views.iter().enumerate() {
            let container = &containers[i % containers.len()];
            assert_eq!(**view, ezw::decode_image(container).unwrap());
            assert!(Arc::ptr_eq(view, &views[i % containers.len()]));
        }
        assert!(!Arc::ptr_eq(&views[0], &views[1]));
        assert!(!Arc::ptr_eq(&views[1], &views[2]));
    }

    #[test]
    fn media_store_encodes_once_and_shares() {
        let mut store = MediaStore::new();
        let scene = synthetic_scene(32, 32, 3, 3, 9);
        let encode = |store: &mut MediaStore, color| {
            store
                .encode_image(&scene.image, 3, WaveletKind::Cdf53, color, None)
                .unwrap()
        };
        let a = encode(&mut store, true);
        let b = encode(&mut store, true);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the shared stream");
        let stats = store.encode_stats();
        assert_eq!((stats.hits(), stats.misses()), (1, 1));
        // Different parameters are a different entry.
        encode(&mut store, false);
        assert_eq!(stats.misses(), 2);
        assert_eq!(store.encodes.len(), 2);
        // And the bytes match the plain encoder exactly, whatever the
        // store's scratch decoded before and however large it was.
        let expected = ezw::encode_image_opts(&scene.image, 3, WaveletKind::Cdf53, true).unwrap();
        assert_eq!(a.as_ref(), expected.as_slice());
        let other = synthetic_scene(64, 48, 3, 4, 10).image;
        let other = ezw::encode_image_opts(&other, 4, WaveletKind::Haar, true).unwrap();
        let mut fresh = MediaStore::new();
        fresh.view(other, 0).unwrap();
        let b = encode(&mut fresh, true);
        assert_eq!(b.as_ref(), expected.as_slice());
    }

    /// A miss leaves the store's scratch holding the records of what it
    /// wrote, so the decode that follows reads no symbol; a hit runs no
    /// encode and leaves the scratch as it was. Encodes and decodes
    /// share the one scratch.
    #[test]
    fn a_miss_leaves_its_records_and_a_hit_leaves_the_scratch_alone() {
        let mut store = MediaStore::new();
        let [a, b] = [9, 10].map(|seed| synthetic_scene(32, 32, 3, 3, seed).image);
        let encode = |store: &mut MediaStore, img: &Image| {
            store
                .encode_image(img, 3, WaveletKind::Cdf53, true, Some(600))
                .unwrap()
        };
        // A view miss: equal to a fresh decode; replayed or not.
        let replays = |store: &mut MediaStore, container: &[u8], drop_levels| {
            let (misses, replays) = (store.misses(), store.replays());
            let view = store.view(container.to_vec(), drop_levels).unwrap();
            assert!(*view == ezw::decode_image_reduced(container, drop_levels).unwrap());
            assert_eq!(store.misses(), misses + 1);
            store.replays() - replays
        };
        let sent_a = encode(&mut store, &a);
        assert_eq!(replays(&mut store, &sent_a, 0), 1, "a miss: replayed");
        let sent_b = encode(&mut store, &b);
        assert!(Arc::ptr_eq(&sent_a, &encode(&mut store, &a)), "a hit");
        let replayed = replays(&mut store, &sent_b, 0);
        assert_eq!(replayed, 1, "the hit left b's records");
        assert_eq!(replays(&mut store, &sent_a, 1), 0, "a's are gone: read");
    }

    #[test]
    fn media_store_holds_the_capped_container_under_its_cap() {
        let mut store = MediaStore::new();
        let stats = store.encode_stats();
        let scene = synthetic_scene(32, 32, 3, 3, 9);
        let mut encode = |cap| {
            store
                .encode_image(&scene.image, 3, WaveletKind::Cdf53, true, cap)
                .unwrap()
        };
        let full = encode(None);
        let capped = encode(Some(600));
        assert_eq!(
            capped.as_ref(),
            ezw::truncate_container(&full, 600).unwrap().as_slice(),
            "the cut of the full stream, made without coding the rest"
        );
        // A re-share under the same cap is a hit on the capped bytes;
        // another cap is another container.
        assert!(Arc::ptr_eq(&capped, &encode(Some(600))));
        assert!(encode(Some(700)).len() > capped.len());
        assert!(Arc::ptr_eq(&full, &encode(None)));
        assert_eq!((stats.hits(), stats.misses()), (2, 3));
    }

    #[test]
    fn content_key_sees_every_pixel_and_parameter() {
        // 7 x 5 x 3 = 105 bytes: thirteen whole words and a one-byte tail.
        let img = synthetic_scene(7, 5, 3, 1, 3).image;
        let key = |img: &Image| content_key(img, 1, WaveletKind::Cdf53, true, None);
        let base = key(&img);
        assert_eq!(base, key(&img.clone()), "same content, same key");
        for i in 0..img.data.len() {
            let mut other = img.clone();
            other.data[i] ^= 1;
            assert_ne!(key(&other), base, "byte {i}");
        }
        assert_ne!(content_key(&img, 2, WaveletKind::Cdf53, true, None), base);
        assert_ne!(content_key(&img, 1, WaveletKind::Haar, true, None), base);
        assert_ne!(content_key(&img, 1, WaveletKind::Cdf53, false, None), base);
        let capped = content_key(&img, 1, WaveletKind::Cdf53, true, Some(49_152));
        assert_ne!(capped, base);
        assert_ne!(
            content_key(&img, 1, WaveletKind::Cdf53, true, Some(49_153)),
            capped
        );
        // The same bytes under another shape are another image.
        let mut reshaped = img.clone();
        (reshaped.width, reshaped.height) = (5, 7);
        assert_ne!(key(&reshaped), base);
    }

    /// Differences that sit in the top byte of two or more words at
    /// once: a fold that only multiplies keeps each in the top bits of
    /// the state, where an even number of them cancel.
    #[test]
    fn content_key_separates_differences_in_the_high_bytes_of_words() {
        let key = |img: &Image| content_key(img, 1, WaveletKind::Cdf53, true, None);
        let img = synthetic_scene(7, 5, 3, 1, 3).image;
        let base = key(&img);
        let words = img.data.len() / 8;
        for i in 0..words {
            for j in i + 1..words {
                for (flip_i, flip_j) in [(0x80, 0x80), (0x55, 0xaa), (0xff, 0x01)] {
                    let mut other = img.clone();
                    other.data[8 * i + 7] ^= flip_i;
                    other.data[8 * j + 7] ^= flip_j;
                    assert_ne!(key(&other), base, "words {i} and {j}");
                }
            }
        }
        // A line drawn down a flat plane, at a column that is byte 7 of
        // a word in every row: 64 top-bit flips.
        let mut flat = Image::new(64, 64, 1);
        flat.data.fill(128);
        let mut lined = flat.clone();
        for row in 0..64 {
            lined.data[row * 64 + 7] = 0;
        }
        assert_ne!(key(&lined), key(&flat));
    }

    #[test]
    fn media_store_encode_is_bit_identical() {
        let scene = synthetic_scene(64, 64, 3, 4, 12);
        let expected = ezw::encode_image_opts(&scene.image, 4, WaveletKind::Cdf53, true).unwrap();
        let cut = ezw::truncate_container(&expected, 2_000).unwrap();
        let mut store = MediaStore::new();
        let stats = store.encode_stats();
        let mut encode = |img: &Image, levels, kind, color, cap| {
            store.encode_image(img, levels, kind, color, cap).unwrap()
        };
        let got = encode(&scene.image, 4, WaveletKind::Cdf53, true, None);
        assert_eq!(got.as_ref(), expected.as_slice());
        let capped = encode(&scene.image, 4, WaveletKind::Cdf53, true, Some(2_000));
        assert_eq!(capped.as_ref(), cut.as_slice());
        // Misses that change every parameter, on planes that still hold
        // the last image's coefficients: the store's scratch carries
        // nothing from one encode into the next.
        let (below_a_header, headers_and_a_little) = (
            Some(ezw::PLANE_HEADER_LEN - 1),
            Some(ezw::CONTAINER_HEADER_LEN + 20),
        );
        for (channels, w, h, levels, kind, color, cap) in [
            (1, 32, 48, 3, WaveletKind::Haar, false, below_a_header),
            (1, 96, 64, 5, WaveletKind::Cdf53, false, None),
            (3, 48, 32, 2, WaveletKind::Haar, false, Some(300)),
            (3, 16, 16, 1, WaveletKind::Cdf53, true, headers_and_a_little),
            (3, 128, 64, 4, WaveletKind::Cdf53, true, None),
        ] {
            let img = synthetic_scene(w, h, channels, 3, (w + h + levels) as u64).image;
            let fresh = ezw::encode_image_capped(&img, levels, kind, color, cap).unwrap();
            let got = encode(&img, levels, kind, color, cap);
            assert!(
                got.as_ref() == fresh.as_slice(),
                "{channels}ch {w}x{h} L{levels} {kind:?} {color} {cap:?}"
            );
        }
        assert_eq!(stats.misses(), 7);
    }

    #[test]
    fn media_store_evicts_lru_deterministically() {
        let mut store = MediaStore::new();
        let scenes: Vec<_> = (0..=ENCODE_CAPACITY as u64)
            .map(|s| synthetic_scene(16, 16, 1, 2, s).image)
            .collect();
        let encode = |store: &mut MediaStore, img: &Image| {
            store
                .encode_image(img, 2, WaveletKind::Haar, false, None)
                .unwrap()
        };
        for img in &scenes {
            encode(&mut store, img);
        }
        let stats = store.encode_stats();
        assert_eq!(store.encodes.len(), ENCODE_CAPACITY);
        assert_eq!(stats.evictions(), 1);
        // Scene 0 was least recently used: re-encoding it misses again.
        encode(&mut store, &scenes[0]);
        assert_eq!(stats.misses(), ENCODE_CAPACITY as u64 + 2);
        // The last scene stayed resident.
        encode(&mut store, &scenes[ENCODE_CAPACITY]);
        assert_eq!(stats.hits(), 1);
    }

    #[test]
    fn media_store_degradation_is_prefix_truncation() {
        let mut store = MediaStore::new();
        let scene = synthetic_scene(64, 64, 1, 4, 3);
        let full = store
            .encode_image(&scene.image, 4, WaveletKind::Cdf53, false, None)
            .unwrap();
        // Per-client tiers share the one encode; each tier is a cut.
        for budget in [full.len() / 8, full.len() / 4, full.len() / 2] {
            let cut = ezw::truncate_container(&full, budget).unwrap();
            assert!(cut.len() <= budget.max(ezw::CONTAINER_HEADER_LEN + 4 + ezw::PLANE_HEADER_LEN));
            assert!(ezw::decode_image(&cut).is_ok());
        }
        let stats = store.encode_stats();
        assert_eq!(stats.hits() + stats.misses(), 1);
    }

    #[test]
    fn media_store_rejects_bad_levels() {
        let mut store = MediaStore::new();
        let scene = synthetic_scene(16, 16, 1, 1, 0);
        for levels in [0, 9] {
            assert!(store
                .encode_image(&scene.image, levels, WaveletKind::Haar, false, None)
                .is_err());
        }
        assert_eq!(
            store.encode_stats().misses(),
            0,
            "param errors are not misses"
        );
    }

    /// An encode refused after the lookup is a miss that files nothing
    /// and, in a full store, evicts nothing.
    #[test]
    fn a_failed_encode_files_nothing() {
        let mut store = MediaStore::new();
        let scenes: Vec<_> = (0..ENCODE_CAPACITY as u64)
            .map(|s| synthetic_scene(16, 16, 1, 2, s).image)
            .collect();
        let encode = |store: &mut MediaStore, img: &Image, color| {
            store.encode_image(img, 2, WaveletKind::Haar, color, None)
        };
        for img in &scenes {
            encode(&mut store, img, false).unwrap();
        }
        // A colour transform of a grey image: refused, twice.
        for _ in 0..2 {
            assert!(encode(&mut store, &scenes[0], true).is_err());
        }
        let stats = store.encode_stats();
        let misses = ENCODE_CAPACITY as u64 + 2;
        assert_eq!((stats.misses(), stats.evictions()), (misses, 0));
        assert_eq!(store.encodes.len(), ENCODE_CAPACITY);
        encode(&mut store, &scenes[0], false).unwrap();
        assert_eq!(stats.hits(), 1, "the least recently used stayed");
    }

    #[test]
    fn resolution_scaling_downsamples_output() {
        let (original, events) = share_events(1, 8);
        let mut viewer = ImageViewer::new(8);
        viewer.set_resolution(0.5);
        let mut done = None;
        for ev in &events {
            if let Some(v) = deliver(&mut viewer, ev) {
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
            assert!(deliver(&mut viewer, ev).is_none());
        }
        // ...then the announcement completes it.
        if let Some(v) = deliver(&mut viewer, &events[0]) {
            done = Some(v);
        }
        assert_eq!(done.expect("completed").image.data, original.data);
    }
}
