//! The information transformer (§5.4).
//!
//! "The information transformer component maintains a suite of
//! media-specific information abstraction modules ... designed to be
//! extendible so that new modules and media types can be easily
//! incorporated." A [`TransformerRegistry`] maps `(from, to)` media
//! kinds to transformation functions and can chain them (image→speech
//! runs image→text→speech).

use media::describe::TextDescription;
use media::ezw::{self, DecodeScratch, EncodeScratch};
use media::image::Image;
use media::speech::{speech_to_text, text_to_speech, SpeechStream};
use media::wavelet::WaveletKind;
use media::{MediaError, Sketch};
use sempubsub::CacheStatsHandle;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The modalities content can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Full progressive image (EZW container bytes).
    Image,
    /// Binary feature sketch.
    Sketch,
    /// Text description.
    Text,
    /// Simulated speech stream.
    Speech,
}

/// A piece of shareable content in some modality.
#[derive(Debug, Clone, PartialEq)]
pub enum MediaObject {
    /// Encoded progressive image plus its verbal caption.
    Image {
        /// EZW container bytes (possibly truncated).
        encoded: Vec<u8>,
        /// Verbal description carried in the metadata (§2's scenario:
        /// "reads the text description of the image which is included
        /// in the image meta-data").
        caption: String,
    },
    /// A sketch plus caption.
    Sketch {
        /// The encoded sketch.
        sketch: Sketch,
        /// Verbal description.
        caption: String,
    },
    /// Text.
    Text(TextDescription),
    /// Speech.
    Speech(SpeechStream),
}

impl MediaObject {
    /// Which modality this object is in.
    pub fn kind(&self) -> MediaKind {
        match self {
            MediaObject::Image { .. } => MediaKind::Image,
            MediaObject::Sketch { .. } => MediaKind::Sketch,
            MediaObject::Text(_) => MediaKind::Text,
            MediaObject::Speech(_) => MediaKind::Speech,
        }
    }

    /// Approximate wire size in bytes — the quantity QoS decisions act on.
    pub fn size_bytes(&self) -> usize {
        match self {
            MediaObject::Image { encoded, caption } => encoded.len() + caption.len(),
            MediaObject::Sketch { sketch, caption } => sketch.byte_len() + caption.len(),
            MediaObject::Text(t) => t.byte_len(),
            MediaObject::Speech(s) => s.audio_bytes,
        }
    }
}

/// Transformation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// No registered path between the modalities.
    NoPath(MediaKind, MediaKind),
    /// A step failed on this particular object.
    StepFailed(String),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NoPath(a, b) => write!(f, "no transform path {a:?} -> {b:?}"),
            TransformError::StepFailed(m) => write!(f, "transform step failed: {m}"),
        }
    }
}

impl std::error::Error for TransformError {}

struct MediaEntry {
    stream: Arc<[u8]>,
    last_used: u64,
}

/// Encode-once transcode cache: a bounded LRU of encoded EZW
/// containers keyed by content hash + coding parameters, the rate cap
/// among them.
///
/// The embedded stream makes per-client degradation nearly free: N
/// clients at different modality tiers share *one* encode (an
/// `Arc<[u8]>` clone per consumer), made to the session's rate cap and
/// no further — the bits past the cap are never coded — and each
/// client's tier is a prefix of it by packet count, never a
/// decode→re-encode round trip. A miss is one
/// [`ezw::encode_image_capped_with`] on the scratch the cache keeps.
///
/// A miss writes its large buffers into memory that outlives it: the
/// coefficient planes and the channel streams go into the decode
/// scratch the caller lends (a session's view store's,
/// [`ViewStore::with_scratch`](crate::apps::ViewStore::with_scratch)),
/// with the records that spare the share's first view a reading of its
/// symbols, and the container is assembled in the encoder's scratch
/// ([`EncodeScratch`]). What a miss allocates is the shared container
/// itself, once, at its exact size.
pub struct MediaCache {
    entries: HashMap<u64, MediaEntry>,
    cap: usize,
    tick: u64,
    stats: CacheStatsHandle,
    scratch: EncodeScratch,
}

impl MediaCache {
    /// A cache bounded at `cap` encoded containers (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> MediaCache {
        assert!(cap >= 1, "media cache needs room for one entry");
        MediaCache {
            entries: HashMap::new(),
            cap,
            tick: 0,
            stats: CacheStatsHandle::default(),
            scratch: EncodeScratch::new(),
        }
    }

    /// FNV-1a-style fold over the coding parameters, then the pixel
    /// data eight bytes a step (one multiply per word, not per byte —
    /// the multiply chain is serial, and this runs on every share,
    /// hits included), then the tail bytes one by one. A multiply only
    /// carries a difference upward, so each step also folds the high
    /// half of the state back down: without that, differences in the
    /// top bits of two words (pixels at offsets 7 mod 8) stay in the
    /// top bits of the state and cancel. Deterministic; the key never
    /// leaves the process.
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

    /// Encode `img` to at most `byte_cap` bytes (or return the cached
    /// container). The container is [`ezw::encode_image_capped`]'s —
    /// the prefix [`ezw::truncate_container`] would cut of the full
    /// encode, made without coding the rest — and is shared, not
    /// copied. A miss encodes through `decode`
    /// ([`ezw::encode_image_capped_with`]): it prepares the image's
    /// coefficient planes there, overwriting whatever they held, and
    /// leaves the records of the streams it wrote, so a decode of the
    /// container through `decode` next reads no symbol. A hit runs no
    /// encode and leaves `decode` alone.
    pub fn encode_image(
        &mut self,
        img: &Image,
        levels: usize,
        kind: WaveletKind,
        color_transform: bool,
        byte_cap: Option<usize>,
        decode: &mut DecodeScratch,
    ) -> Result<Arc<[u8]>, MediaError> {
        ezw::check_levels(img, levels)?;
        self.tick += 1;
        let key = Self::content_key(img, levels, kind, color_transform, byte_cap);
        if let Some(e) = self.entries.get_mut(&key) {
            self.stats.record_hit();
            e.last_used = self.tick;
            return Ok(Arc::clone(&e.stream));
        }
        self.stats.record_miss();
        let container = ezw::encode_image_capped_with(
            img,
            levels,
            kind,
            color_transform,
            byte_cap,
            decode,
            &mut self.scratch,
        )?;
        let stream: Arc<[u8]> = Arc::from(container);
        if self.entries.len() >= self.cap {
            // Deterministic LRU eviction: ticks are unique.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("cap >= 1 and cache full");
            self.entries.remove(&victim);
            self.stats.record_eviction();
        }
        self.entries.insert(
            key,
            MediaEntry {
                stream: Arc::clone(&stream),
                last_used: self.tick,
            },
        );
        Ok(stream)
    }

    /// Number of cached containers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live counters handle.
    pub fn stats(&self) -> CacheStatsHandle {
        self.stats.clone()
    }
}

type TransformFn = Box<dyn Fn(&MediaObject) -> Result<MediaObject, TransformError> + Send + Sync>;

/// The extendible transformer suite.
pub struct TransformerRegistry {
    transforms: HashMap<(MediaKind, MediaKind), TransformFn>,
}

impl Default for TransformerRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl TransformerRegistry {
    /// An empty registry.
    pub fn new() -> TransformerRegistry {
        TransformerRegistry {
            transforms: HashMap::new(),
        }
    }

    /// Register (or replace) a direct transform.
    pub fn register(
        &mut self,
        from: MediaKind,
        to: MediaKind,
        f: impl Fn(&MediaObject) -> Result<MediaObject, TransformError> + Send + Sync + 'static,
    ) {
        self.transforms.insert((from, to), Box::new(f));
    }

    /// Number of direct transforms.
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// Whether no transforms are registered.
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// The standard suite: image→sketch, image→text, sketch→text,
    /// text→speech, speech→text.
    pub fn with_defaults() -> TransformerRegistry {
        let mut r = TransformerRegistry::new();
        r.register(MediaKind::Image, MediaKind::Sketch, |obj| {
            let MediaObject::Image { encoded, caption } = obj else {
                return Err(TransformError::StepFailed("not an image".into()));
            };
            let img = ezw::decode_image(encoded)
                .map_err(|e| TransformError::StepFailed(e.to_string()))?;
            // Largest factor <= 8 that divides both dimensions keeps the
            // sketch grid compact for arbitrary sizes.
            let factor = (1..=8usize)
                .rev()
                .find(|f| img.width % f == 0 && img.height % f == 0)
                .unwrap_or(1);
            let sketch = Sketch::extract(&img, factor)
                .map_err(|e| TransformError::StepFailed(e.to_string()))?;
            Ok(MediaObject::Sketch {
                sketch,
                caption: caption.clone(),
            })
        });
        r.register(MediaKind::Image, MediaKind::Text, |obj| {
            let MediaObject::Image { caption, .. } = obj else {
                return Err(TransformError::StepFailed("not an image".into()));
            };
            Ok(MediaObject::Text(TextDescription::from_text(caption)))
        });
        r.register(MediaKind::Sketch, MediaKind::Text, |obj| {
            let MediaObject::Sketch { caption, .. } = obj else {
                return Err(TransformError::StepFailed("not a sketch".into()));
            };
            Ok(MediaObject::Text(TextDescription::from_text(caption)))
        });
        r.register(MediaKind::Text, MediaKind::Speech, |obj| {
            let MediaObject::Text(t) = obj else {
                return Err(TransformError::StepFailed("not text".into()));
            };
            Ok(MediaObject::Speech(text_to_speech(&t.to_text())))
        });
        r.register(MediaKind::Speech, MediaKind::Text, |obj| {
            let MediaObject::Speech(s) = obj else {
                return Err(TransformError::StepFailed("not speech".into()));
            };
            Ok(MediaObject::Text(TextDescription::from_text(
                &speech_to_text(s),
            )))
        });
        r
    }

    /// Shortest chain of direct transforms from `from` to `to`.
    fn path(&self, from: MediaKind, to: MediaKind) -> Option<Vec<MediaKind>> {
        if from == to {
            return Some(vec![]);
        }
        let kinds = [
            MediaKind::Image,
            MediaKind::Sketch,
            MediaKind::Text,
            MediaKind::Speech,
        ];
        let mut prev: HashMap<MediaKind, MediaKind> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            for &next in &kinds {
                if next != cur
                    && !prev.contains_key(&next)
                    && next != from
                    && self.transforms.contains_key(&(cur, next))
                {
                    prev.insert(next, cur);
                    if next == to {
                        let mut chain = vec![to];
                        let mut c = to;
                        while let Some(&p) = prev.get(&c) {
                            if p == from {
                                break;
                            }
                            chain.push(p);
                            c = p;
                        }
                        chain.reverse();
                        return Some(chain);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Transform `obj` into modality `to`, chaining steps as needed.
    pub fn transform(
        &self,
        obj: &MediaObject,
        to: MediaKind,
    ) -> Result<MediaObject, TransformError> {
        let from = obj.kind();
        let chain = self
            .path(from, to)
            .ok_or(TransformError::NoPath(from, to))?;
        let mut current = obj.clone();
        for target in chain {
            let f = self
                .transforms
                .get(&(current.kind(), target))
                .ok_or(TransformError::NoPath(current.kind(), target))?;
            current = f(&current)?;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::image::synthetic_scene;
    use media::wavelet::WaveletKind;

    fn image_obj() -> MediaObject {
        let scene = synthetic_scene(64, 64, 1, 3, 5);
        let encoded = ezw::encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        MediaObject::Image {
            encoded,
            caption: scene.caption.clone(),
        }
    }

    #[test]
    fn image_to_sketch_shrinks_hard() {
        let r = TransformerRegistry::with_defaults();
        let img = image_obj();
        let sketch = r.transform(&img, MediaKind::Sketch).unwrap();
        assert_eq!(sketch.kind(), MediaKind::Sketch);
        assert!(sketch.size_bytes() * 4 < img.size_bytes());
    }

    #[test]
    fn image_to_text_preserves_caption() {
        let r = TransformerRegistry::with_defaults();
        let out = r.transform(&image_obj(), MediaKind::Text).unwrap();
        let MediaObject::Text(t) = out else { panic!() };
        assert!(t.caption.contains("synthetic scene"));
    }

    #[test]
    fn chained_image_to_speech() {
        let r = TransformerRegistry::with_defaults();
        let out = r.transform(&image_obj(), MediaKind::Speech).unwrap();
        assert_eq!(out.kind(), MediaKind::Speech);
        // And back to text: the caption words survive.
        let text = r.transform(&out, MediaKind::Text).unwrap();
        let MediaObject::Text(t) = text else { panic!() };
        assert!(t.to_text().contains("synthetic"));
    }

    #[test]
    fn identity_transform_is_noop() {
        let r = TransformerRegistry::with_defaults();
        let img = image_obj();
        assert_eq!(r.transform(&img, MediaKind::Image).unwrap(), img);
    }

    #[test]
    fn missing_path_errors() {
        let r = TransformerRegistry::with_defaults();
        // No speech→image route exists.
        let speech = MediaObject::Speech(text_to_speech("hello"));
        assert!(matches!(
            r.transform(&speech, MediaKind::Image),
            Err(TransformError::NoPath(_, _))
        ));
    }

    #[test]
    fn registry_is_extendible() {
        let mut r = TransformerRegistry::new();
        assert!(r.is_empty());
        r.register(MediaKind::Text, MediaKind::Speech, |o| {
            let MediaObject::Text(t) = o else {
                return Err(TransformError::StepFailed("x".into()));
            };
            Ok(MediaObject::Speech(text_to_speech(&t.caption)))
        });
        assert_eq!(r.len(), 1);
        let out = r
            .transform(
                &MediaObject::Text(TextDescription::from_text("hi")),
                MediaKind::Speech,
            )
            .unwrap();
        assert_eq!(out.kind(), MediaKind::Speech);
    }

    #[test]
    fn media_cache_encodes_once_and_shares() {
        let mut cache = MediaCache::with_capacity(4);
        let scene = synthetic_scene(32, 32, 3, 3, 9);
        let a = cache
            .encode_image(
                &scene.image,
                3,
                WaveletKind::Cdf53,
                true,
                None,
                &mut DecodeScratch::new(),
            )
            .unwrap();
        let b = cache
            .encode_image(
                &scene.image,
                3,
                WaveletKind::Cdf53,
                true,
                None,
                &mut DecodeScratch::new(),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit returns the shared stream");
        assert_eq!((cache.stats().hits(), cache.stats().misses()), (1, 1));
        // Different parameters are a different entry.
        cache
            .encode_image(
                &scene.image,
                3,
                WaveletKind::Cdf53,
                false,
                None,
                &mut DecodeScratch::new(),
            )
            .unwrap();
        assert_eq!(cache.stats().misses(), 2);
        assert_eq!(cache.len(), 2);
        // And the bytes match the plain encoder exactly, whatever the
        // lent scratch decoded before and however large it was.
        let expected = ezw::encode_image_opts(&scene.image, 3, WaveletKind::Cdf53, true).unwrap();
        assert_eq!(a.as_ref(), expected.as_slice());
        let other = synthetic_scene(64, 48, 3, 4, 10).image;
        let other = ezw::encode_image_opts(&other, 4, WaveletKind::Haar, true).unwrap();
        let mut garbage = DecodeScratch::new();
        ezw::decode_image_reduced_with(&other, 0, &mut garbage).unwrap();
        let mut fresh = MediaCache::with_capacity(1);
        let b = fresh
            .encode_image(
                &scene.image,
                3,
                WaveletKind::Cdf53,
                true,
                None,
                &mut garbage,
            )
            .unwrap();
        assert_eq!(b.as_ref(), expected.as_slice());
    }

    /// A miss leaves the lent scratch holding the records of what it
    /// wrote, so the decode that follows reads no symbol; a hit runs no
    /// encode and leaves the scratch as it was.
    #[test]
    fn a_miss_leaves_its_records_and_a_hit_leaves_the_scratch_alone() {
        let mut cache = MediaCache::with_capacity(4);
        let mut lent = DecodeScratch::new();
        let [a, b] = [9, 10].map(|seed| synthetic_scene(32, 32, 3, 3, seed).image);
        let mut encode = |img: &Image, lent: &mut DecodeScratch| {
            cache
                .encode_image(img, 3, WaveletKind::Cdf53, true, Some(600), lent)
                .unwrap()
        };
        let decode = |container: &[u8], lent: &mut DecodeScratch| {
            let replays = lent.replays();
            let view = ezw::decode_image_reduced_with(container, 0, lent).unwrap();
            assert!(view == ezw::decode_image(container).unwrap());
            lent.replays() - replays
        };
        let sent_a = encode(&a, &mut lent);
        assert_eq!(decode(&sent_a, &mut lent), 1, "a miss: replayed");
        let sent_b = encode(&b, &mut lent);
        assert!(Arc::ptr_eq(&sent_a, &encode(&a, &mut lent)), "a hit");
        assert_eq!(decode(&sent_b, &mut lent), 1, "the hit left b's records");
        assert_eq!(decode(&sent_a, &mut lent), 0, "a's are gone: read");
    }

    #[test]
    fn media_cache_holds_the_capped_container_under_its_cap() {
        let mut cache = MediaCache::with_capacity(4);
        let scene = synthetic_scene(32, 32, 3, 3, 9);
        let mut encode = |cap| {
            cache
                .encode_image(
                    &scene.image,
                    3,
                    WaveletKind::Cdf53,
                    true,
                    cap,
                    &mut DecodeScratch::new(),
                )
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
        assert_eq!((cache.stats().hits(), cache.stats().misses()), (2, 3));
    }

    #[test]
    fn content_key_sees_every_pixel_and_parameter() {
        // 7 x 5 x 3 = 105 bytes: thirteen whole words and a one-byte tail.
        let img = synthetic_scene(7, 5, 3, 1, 3).image;
        let key = |img: &Image| MediaCache::content_key(img, 1, WaveletKind::Cdf53, true, None);
        let base = key(&img);
        assert_eq!(base, key(&img.clone()), "same content, same key");
        for i in 0..img.data.len() {
            let mut other = img.clone();
            other.data[i] ^= 1;
            assert_ne!(key(&other), base, "byte {i}");
        }
        assert_ne!(
            MediaCache::content_key(&img, 2, WaveletKind::Cdf53, true, None),
            base
        );
        assert_ne!(
            MediaCache::content_key(&img, 1, WaveletKind::Haar, true, None),
            base
        );
        assert_ne!(
            MediaCache::content_key(&img, 1, WaveletKind::Cdf53, false, None),
            base
        );
        let capped = MediaCache::content_key(&img, 1, WaveletKind::Cdf53, true, Some(49_152));
        assert_ne!(capped, base);
        assert_ne!(
            MediaCache::content_key(&img, 1, WaveletKind::Cdf53, true, Some(49_153)),
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
        let key = |img: &Image| MediaCache::content_key(img, 1, WaveletKind::Cdf53, true, None);
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
    fn media_cache_encode_is_bit_identical() {
        let scene = synthetic_scene(64, 64, 3, 4, 12);
        let expected = ezw::encode_image_opts(&scene.image, 4, WaveletKind::Cdf53, true).unwrap();
        let cut = ezw::truncate_container(&expected, 2_000).unwrap();
        let mut cache = MediaCache::with_capacity(2);
        let mut lent = DecodeScratch::new();
        let mut encode = |img: &Image, levels, kind, color, cap| {
            cache
                .encode_image(img, levels, kind, color, cap, &mut lent)
                .unwrap()
        };
        let got = encode(&scene.image, 4, WaveletKind::Cdf53, true, None);
        assert_eq!(got.as_ref(), expected.as_slice());
        let capped = encode(&scene.image, 4, WaveletKind::Cdf53, true, Some(2_000));
        assert_eq!(capped.as_ref(), cut.as_slice());
        // Misses that change every parameter, on planes that still hold
        // the last image's coefficients: the cache's kept encoder
        // scratch carries nothing from one encode into the next.
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
        assert_eq!(cache.stats().misses(), 7);
    }

    #[test]
    fn media_cache_evicts_lru_deterministically() {
        let mut cache = MediaCache::with_capacity(2);
        let scenes: Vec<_> = (0..3).map(|s| synthetic_scene(16, 16, 1, 2, s)).collect();
        for scene in &scenes {
            cache
                .encode_image(
                    &scene.image,
                    2,
                    WaveletKind::Haar,
                    false,
                    None,
                    &mut DecodeScratch::new(),
                )
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions(), 1);
        // Scene 0 was least recently used: re-encoding it misses again.
        cache
            .encode_image(
                &scenes[0].image,
                2,
                WaveletKind::Haar,
                false,
                None,
                &mut DecodeScratch::new(),
            )
            .unwrap();
        assert_eq!(cache.stats().misses(), 4);
        // Scene 2 stayed resident.
        cache
            .encode_image(
                &scenes[2].image,
                2,
                WaveletKind::Haar,
                false,
                None,
                &mut DecodeScratch::new(),
            )
            .unwrap();
        assert_eq!(cache.stats().hits(), 1);
    }

    #[test]
    fn media_cache_degradation_is_prefix_truncation() {
        let mut cache = MediaCache::with_capacity(2);
        let scene = synthetic_scene(64, 64, 1, 4, 3);
        let full = cache
            .encode_image(
                &scene.image,
                4,
                WaveletKind::Cdf53,
                false,
                None,
                &mut DecodeScratch::new(),
            )
            .unwrap();
        // Per-client tiers share the one encode; each tier is a cut.
        for budget in [full.len() / 8, full.len() / 4, full.len() / 2] {
            let cut = ezw::truncate_container(&full, budget).unwrap();
            assert!(cut.len() <= budget.max(ezw::CONTAINER_HEADER_LEN + 4 + ezw::PLANE_HEADER_LEN));
            assert!(ezw::decode_image(&cut).is_ok());
        }
        assert_eq!(cache.stats().hits() + cache.stats().misses(), 1);
    }

    #[test]
    fn media_cache_rejects_bad_levels() {
        let mut cache = MediaCache::with_capacity(1);
        let scene = synthetic_scene(16, 16, 1, 1, 0);
        assert!(cache
            .encode_image(
                &scene.image,
                0,
                WaveletKind::Haar,
                false,
                None,
                &mut DecodeScratch::new()
            )
            .is_err());
        assert!(cache
            .encode_image(
                &scene.image,
                9,
                WaveletKind::Haar,
                false,
                None,
                &mut DecodeScratch::new()
            )
            .is_err());
        assert_eq!(cache.stats().misses(), 0, "param errors are not misses");
    }

    #[test]
    fn corrupt_image_fails_cleanly() {
        let r = TransformerRegistry::with_defaults();
        let bad = MediaObject::Image {
            encoded: vec![1, 2, 3],
            caption: "x".into(),
        };
        assert!(matches!(
            r.transform(&bad, MediaKind::Sketch),
            Err(TransformError::StepFailed(_))
        ));
    }
}
