//! The verbal/text description transformer.
//!
//! "A verbal description can be tagged to this sketch and can be used
//! to enable clients with minimal capabilities (e.g., a client on a
//! wireless connection) to be effective participants" (§5.4). The
//! image→text modality transform carries the shared object's caption,
//! one line, plus any detail lines, as plain text.

/// A text description of shared visual content: the smallest modality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextDescription {
    /// One-line caption.
    pub caption: String,
    /// Per-object detail lines.
    pub details: Vec<String>,
}

impl TextDescription {
    /// Total text size in bytes (what travels on the wire in text mode).
    pub fn byte_len(&self) -> usize {
        self.caption.len() + self.details.iter().map(|d| d.len() + 1).sum::<usize>()
    }

    /// Flatten to one wire string.
    pub fn to_text(&self) -> String {
        let mut s = self.caption.clone();
        for d in &self.details {
            s.push('\n');
            s.push_str(d);
        }
        s
    }

    /// Parse back from the wire form.
    pub fn from_text(text: &str) -> TextDescription {
        let mut lines = text.lines();
        let caption = lines.next().unwrap_or("").to_string();
        TextDescription {
            caption,
            details: lines.map(str::to_string).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let d = TextDescription {
            caption: "3 discs on 64x64".to_string(),
            details: vec!["disc of radius 4".to_string(), "rectangle".to_string()],
        };
        let text = d.to_text();
        assert_eq!(d.byte_len(), text.len());
        assert_eq!(TextDescription::from_text(&text), d);
    }

    #[test]
    fn empty_text_parses() {
        let d = TextDescription::from_text("");
        assert_eq!(d.caption, "");
        assert!(d.details.is_empty());
    }
}
