//! The application entities of §4.1: "the chat-area, whiteboard, or
//! the image viewer" — headless here, since the Java UI is not what
//! the experiments measure.

use crate::concurrency::LamportClock;
use crate::events::{AppEvent, EventView};
use media::ezw::{self, decode_image_reduced_with, DecodeScratch};
use media::packetize::{reassemble_stripes, PacketView};
use media::{bits_per_pixel, compression_ratio, Image, MediaError};
use sempubsub::WireMessage;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

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

/// Views a [`ViewStore`] keeps. Each entry holds its container and
/// pins one decoded image; the viewers that asked share that image, so
/// a handful costs less memory than the per-viewer copies they replace,
/// where a long tail of entries nobody asks for again would cost more.
const VIEW_STORE_CAPACITY: usize = 4;

/// What a container decodes to: the shared image, or why there is none.
type Decoded = Result<Arc<Image>, MediaError>;

struct StoredView {
    container: Arc<Vec<u8>>,
    drop_levels: usize,
    /// Filled by whichever asker gets to it first, outside the store's
    /// lock; askers of the same bytes meanwhile wait on the cell, and
    /// askers of other bytes do not wait at all.
    decoded: Arc<OnceLock<Decoded>>,
}

/// Bytes to look a view up by.
enum Ask {
    /// A container in a buffer the store keeps: as the key of a new
    /// view, or for a later reassembly.
    Buffer(Vec<u8>),
    /// The key of a view asked for before.
    Key(Arc<Vec<u8>>),
}

#[derive(Default)]
struct ViewStoreInner {
    /// Least recently asked-for first.
    views: VecDeque<StoredView>,
    /// Decode scratch not in use now: as many as decodes have ever run
    /// at once, which is one on a serial session.
    scratch: Vec<DecodeScratch>,
    /// Reassembly buffers not in use now: those of asks that hit, and
    /// the containers of evicted views nothing else held.
    buffers: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
    replays: u64,
}

impl ViewStoreInner {
    /// Drop the least recently asked-for view, keeping what of it
    /// nobody else holds: its container as a reassembly buffer, and its
    /// image's pixels as the next decode's output
    /// ([`DecodeScratch::recycle`], on the scratch the next decode
    /// takes). Either goes only when the store held the last reference
    /// to it — a view a caller still holds is never written over.
    fn evict(&mut self) {
        let Some(view) = self.views.pop_front() else {
            return;
        };
        let image = Arc::into_inner(view.decoded)
            .and_then(OnceLock::into_inner)
            .and_then(Result::ok)
            .and_then(Arc::into_inner);
        if let (Some(image), Some(scratch)) = (image, self.scratch.last_mut()) {
            scratch.recycle(image);
        }
        if let Some(buffer) = Arc::into_inner(view.container) {
            self.keep_buffer(buffer);
        }
    }

    /// Keep a reassembly buffer for later, up to one per view held.
    fn keep_buffer(&mut self, buffer: Vec<u8>) {
        if self.buffers.len() < VIEW_STORE_CAPACITY {
            self.buffers.push(buffer);
        }
    }
}

/// Decode-once view store, the receiving twin of
/// [`MediaCache`](crate::transformer::MediaCache): the image viewer
/// adapts by taking a prefix of one embedded stream (§5.4), so every
/// viewer on the same packet budget holds byte-identical container
/// bytes and is owed bit-identical pixels. The store decodes each
/// distinct `(container bytes, drop_levels)` once, on decode scratch it
/// keeps between decodes, and hands every asker the same `Arc<Image>`.
/// The scratch remembers the last stream it read, so the distinct
/// prefixes of one object — prefixes of each other — cost one reading
/// of its symbols when the longest is asked for first
/// ([`ViewStore::replays`]).
///
/// The key is the verified container itself, compared byte for byte —
/// never an object id or a hash — so two different streams cannot
/// alias whatever their ids, lengths or senders. Clones share the
/// store. Its lock covers the lookup and the insert, never a decode:
/// the first asker of some bytes leaves an empty cell for them and
/// decodes into it unlocked, so concurrent askers of one prefix decode
/// it once (the others wait on that cell), askers of different
/// prefixes decode side by side, and while the prefixes in use fit the
/// store the hit and miss counts do not depend on who asked first.
#[derive(Clone, Default)]
pub struct ViewStore {
    inner: Arc<Mutex<ViewStoreInner>>,
}

impl std::fmt::Debug for ViewStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("ViewStore")
            .field("views", &inner.views.len())
            .field("hits", &inner.hits)
            .field("misses", &inner.misses)
            .field("replays", &inner.replays)
            .finish()
    }
}

impl ViewStore {
    /// An empty store.
    pub fn new() -> ViewStore {
        ViewStore::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ViewStoreInner> {
        self.inner
            .lock()
            .expect("no decode, and so no panic, under the view store's lock")
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
    pub fn view(&self, container: Vec<u8>, drop_levels: usize) -> Result<Arc<Image>, MediaError> {
        self.ask(Ask::Buffer(container), drop_levels).0
    }

    /// A buffer to reassemble a container into: one an earlier ask left
    /// with the store, or a new one. What it holds is of no account.
    fn buffer(&self) -> Vec<u8> {
        self.lock().buffers.pop().unwrap_or_default()
    }

    /// The viewer's ask: [`ViewStore::view`], except that when the view
    /// with `drop_levels` left out is an error and `drop_levels > 0` (a
    /// stream with fewer levels than that), the full view of the same
    /// bytes is asked for instead. Returns the image and the levels it
    /// dropped.
    fn view_reassembled(
        &self,
        container: Vec<u8>,
        drop_levels: usize,
    ) -> Result<(Arc<Image>, usize), MediaError> {
        match self.ask(Ask::Buffer(container), drop_levels) {
            (Ok(image), _) => Ok((image, drop_levels)),
            (Err(_), key) if drop_levels > 0 => self.ask(Ask::Key(key), 0).0.map(|i| (i, 0)),
            (Err(e), _) => Err(e),
        }
    }

    /// Look `bytes` up, leaving an empty cell for them on a miss, then
    /// decode into the cell unless someone already has. Returns the
    /// view and the key it is held under.
    fn ask(&self, bytes: Ask, drop_levels: usize) -> (Decoded, Arc<Vec<u8>>) {
        let (decoded, key) = {
            let mut inner = self.lock();
            let held = {
                let bytes: &[u8] = match &bytes {
                    Ask::Buffer(buffer) => buffer,
                    Ask::Key(key) => key,
                };
                inner
                    .views
                    .iter()
                    .position(|v| v.drop_levels == drop_levels && **v.container == *bytes)
            };
            let view = if let Some(i) = held {
                inner.hits += 1;
                if let Ask::Buffer(buffer) = bytes {
                    inner.keep_buffer(buffer);
                }
                inner.views.remove(i).expect("position is in range")
            } else {
                inner.misses += 1;
                if inner.views.len() == VIEW_STORE_CAPACITY {
                    inner.evict();
                }
                StoredView {
                    container: match bytes {
                        Ask::Buffer(buffer) => Arc::new(buffer),
                        Ask::Key(key) => key,
                    },
                    drop_levels,
                    decoded: Arc::default(),
                }
            };
            let held = (Arc::clone(&view.decoded), Arc::clone(&view.container));
            inner.views.push_back(view);
            held
        };
        let image = decoded
            .get_or_init(|| {
                let mut scratch = self.lock().scratch.pop().unwrap_or_default();
                let replayed = scratch.replays();
                let image = decode_image_reduced_with(&key, drop_levels, &mut scratch);
                let mut inner = self.lock();
                inner.replays += scratch.replays() - replayed;
                inner.scratch.push(scratch);
                image.map(Arc::new)
            })
            .clone();
        (image, key)
    }

    /// Run `f` on a decode scratch this store keeps, while no decode
    /// holds it, and put it back where the next decode takes its
    /// scratch from. The session's encoder is lent it
    /// ([`ezw::encode_image_capped_with`]): it prepares its planes
    /// there and leaves the records of the streams it writes, so the
    /// views of a fresh share that follow replay them and read no
    /// symbol. A share and a decode never overlap, since both run under
    /// `&mut CollaborationSession`, and a decode overwrites every plane
    /// before reading it — so one set of planes serves both directions.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
        let mut scratch = self.lock().scratch.pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.lock().scratch.push(scratch);
        out
    }

    /// Views held now (never more than a small fixed number).
    pub fn len(&self) -> usize {
        self.lock().views.len()
    }

    /// True when no view is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Asks that found their bytes already asked for, and share that
    /// decode (waiting for it, if it is still running).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Asks that found no view of their bytes; the decoder runs once
    /// for each, so once per distinct `(container, drop_levels)` while
    /// its view stays held.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Misses decoded without reading a symbol
    /// ([`DecodeScratch::replays`]): the container was, channel by
    /// channel, a prefix of the one the scratch had read last — a
    /// smaller packet budget's view of the same object, asked for after
    /// a larger one's. Unlike hits and misses this depends on the order
    /// of the asks (shortest first replays nothing), and with more than
    /// one worker on which decode met which scratch.
    pub fn replays(&self) -> u64 {
        self.lock().replays
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
/// copies its payload only once, into the reassembled container.
#[derive(Debug)]
pub struct ImageViewer {
    budget: u32,
    resolution: f64,
    pending: HashMap<u64, PendingImage>,
    /// Ids of the last [`FINISHED_WINDOW`] objects that left `pending`
    /// (viewed, shown as a caption, or dropped as invalid).
    finished: VecDeque<u64>,
    store: ViewStore,
    /// Successfully decoded images, in completion order.
    pub viewed: Vec<ViewedImage>,
    /// Captions shown instead of images when the budget was zero.
    pub text_fallbacks: Vec<(u64, String)>,
    /// Packets discarded because they exceeded the budget or belonged
    /// to an object already finished.
    pub packets_discarded: u64,
}

impl Default for ImageViewer {
    fn default() -> Self {
        ImageViewer::with_store(0, ViewStore::new())
    }
}

impl ImageViewer {
    /// A viewer with the given initial packet budget and a view store
    /// of its own.
    pub fn new(budget: u32) -> ImageViewer {
        ImageViewer::with_store(budget, ViewStore::new())
    }

    /// A viewer that decodes through `store`, sharing each view with
    /// the other viewers handed a clone of it.
    pub fn with_store(budget: u32, store: ViewStore) -> ImageViewer {
        ImageViewer {
            budget,
            resolution: 1.0,
            pending: HashMap::new(),
            // Not pre-sized: a client that never sees an image (most
            // of a chat-only session's) should not carry the window.
            finished: VecDeque::new(),
            store,
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
    /// image when one completes. An accepted packet is held as a clone
    /// of the `Arc` and the payload's offset in the body: its bytes are
    /// not copied until the prefix reassembles.
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
                self.try_complete(object_id)
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
                self.try_complete(object_id)
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
        let mut container = self.store.buffer();
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
        let (image, dropped) = self.store.view_reassembled(container, drop_levels).ok()?;
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
    /// place.
    fn deliver(viewer: &mut ImageViewer, ev: &AppEvent) -> Option<ViewedImage> {
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
        viewer.apply_delivered(&view, &message)
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
        let store = ViewStore::new();
        let mut views = Vec::new();
        for _ in 0..3 {
            let mut viewer = ImageViewer::with_store(8, store.clone());
            views.extend(events.iter().filter_map(|ev| deliver(&mut viewer, ev)));
        }
        assert_eq!((store.misses(), store.hits()), (1, 2));
        assert_eq!(views[0].image.data, original.data);
        assert!(views.iter().all(|v| Arc::ptr_eq(&v.image, &views[0].image)));
        // A scale past the stream's four levels falls back to the full
        // view — already in the store — and downsamples a copy of it.
        let mut thin = ImageViewer::with_store(8, store.clone());
        thin.set_resolution(1.0 / 32.0);
        let small = events.iter().find_map(|ev| deliver(&mut thin, ev)).unwrap();
        assert_eq!((small.image.width, small.image.height), (2, 2));
        assert_eq!((store.misses(), store.hits()), (2, 3));
        assert_eq!(views[0].image.data, original.data, "shared view untouched");
        // "Cannot drop five levels" is held like a view: the next thin
        // viewer is told so, and shown the full view, without a decode.
        let mut thin = ImageViewer::with_store(8, store.clone());
        thin.set_resolution(1.0 / 32.0);
        let again = events.iter().find_map(|ev| deliver(&mut thin, ev)).unwrap();
        assert_eq!(again.image, small.image);
        assert_eq!((store.misses(), store.hits()), (2, 5));
    }

    /// Threads that ask one store at once: equal bytes are decoded by
    /// one of them while the rest wait for that image, and different
    /// bytes do not wait for each other — whoever gets there first, the
    /// counts and the pixels are the same.
    #[test]
    fn concurrent_askers_of_one_prefix_decode_it_once() {
        let containers: Vec<Vec<u8>> = (0..3)
            .map(|seed| {
                let image = synthetic_scene(64, 64, 1, 3, seed).image;
                ezw::encode_image(&image, 4, WaveletKind::Cdf53).unwrap()
            })
            .collect();
        let store = ViewStore::new();
        let views: Vec<Arc<Image>> = std::thread::scope(|scope| {
            let askers: Vec<_> = (0..4 * containers.len())
                .map(|i| {
                    let (store, container) = (store.clone(), &containers[i % containers.len()]);
                    scope.spawn(move || store.view(container.clone(), 0).unwrap())
                })
                .collect();
            askers.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!((store.misses(), store.hits()), (3, 9));
        for (i, view) in views.iter().enumerate() {
            let container = &containers[i % containers.len()];
            assert_eq!(**view, ezw::decode_image(container).unwrap());
            assert!(Arc::ptr_eq(view, &views[i % containers.len()]));
        }
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
