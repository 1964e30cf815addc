//! The information transformer (§5.4).
//!
//! "The information transformer component maintains a suite of
//! media-specific information abstraction modules ... designed to be
//! extendible so that new modules and media types can be easily
//! incorporated." A [`TransformerRegistry`] maps `(from, to)` media
//! kinds to transformation functions and can chain them (image→speech
//! runs image→text→speech).

use media::describe::TextDescription;
use media::ezw;
use media::speech::{speech_to_text, text_to_speech, SpeechStream};
use media::Sketch;
use std::collections::{HashMap, VecDeque};

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

type TransformFn = Box<dyn Fn(&MediaObject) -> Result<MediaObject, TransformError>>;

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
        f: impl Fn(&MediaObject) -> Result<MediaObject, TransformError> + 'static,
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
