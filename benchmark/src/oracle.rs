//! The independent oracle: what a correct session must deliver, worked
//! out without the code paths under measurement.
//!
//! * recipients come from the tree-walk evaluator
//!   (`sempubsub::matching::interpret`, i.e. `sempubsub::eval`), never
//!   the compiled matcher the session runs;
//! * first-round views are rebuilt with the frozen `media::reference`
//!   wavelet and EZW coder and compared byte for byte;
//! * chat logs must hold every expected line exactly once, each
//!   author's lines in publication order;
//! * a subscriber leaf may never move more bits than its plan ceiling
//!   allows over any sampling interval (shorter than, so stricter
//!   than, the 100 ms plan window);
//! * at quiescence every packet copy sent was delivered or dropped.
//!
//! Every violation counts as a failed delivery and fails the run.

use cqos_core::SessionConfig;
use media::ezw;
use media::image::Scene;
use media::packetize::{reassemble_prefix, split_packets};
use media::reference;
use media::wavelet;
use media::Image;
use sempubsub::{AttrValue, Profile, Selector};
use std::collections::BTreeMap;

/// Failure accounting for one run.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Deliveries a correct session makes.
    pub expected: u64,
    /// Deliveries made and found correct.
    pub delivered: u64,
    /// Violations: wrong, duplicated or unexpected deliveries and
    /// broken invariants.
    pub wrong: u64,
    /// The first few violations, for the report.
    pub notes: Vec<String>,
}

impl Oracle {
    pub fn violation(&mut self, note: impl FnOnce() -> String) {
        self.wrong += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Record a check: one more violation when `ok` is false.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.violation(note);
        }
    }

    /// Deliveries that were expected and did not arrive correct, plus
    /// every violation.
    pub fn failed(&self) -> u64 {
        self.expected.saturating_sub(self.delivered) + self.wrong
    }

    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.expected.max(1) as f64
    }
}

/// Whether the tree-walk evaluator delivers a message with this
/// selector and content description to `profile`.
pub fn accepts(
    profile: &Profile,
    selector: &Selector,
    content: &BTreeMap<String, AttrValue>,
) -> bool {
    sempubsub::matching::interpret(profile, selector, content).is_ok_and(|o| o.is_accepted())
}

/// Indices of the profiles that accept, by the tree-walk evaluator.
pub fn recipients(
    profiles: &[Profile],
    selector: &str,
    content: &BTreeMap<String, AttrValue>,
) -> Vec<usize> {
    let selector = Selector::parse(selector).expect("workload selectors parse");
    (0..profiles.len())
        .filter(|&i| accepts(&profiles[i], &selector, content))
        .collect()
}

/// The content description the session attaches to a shared image.
pub fn image_content(scene: &Scene) -> BTreeMap<String, AttrValue> {
    [
        ("media", AttrValue::str("image")),
        ("color", AttrValue::Bool(scene.image.channels == 3)),
        ("encoding", AttrValue::str("ezw")),
        (
            "size_kb",
            AttrValue::Int((scene.image.byte_len() / 1024) as i64),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// What a viewer holding a budget of `packets` must display for
/// `scene`: coded and decoded with the frozen reference wavelet and
/// EZW plane coder; only the container framing is shared with the
/// live codec.
pub fn reference_view(scene: &Scene, cfg: &SessionConfig, packets: u32) -> Image {
    let img = &scene.image;
    let (w, h) = (img.width, img.height);
    let levels = wavelet::max_levels(w, h).min(5);
    let color = cfg.color_transform && img.channels == 3;
    let mut planes: Vec<Vec<i32>> = (0..img.channels).map(|c| img.plane(c)).collect();
    if color {
        let (r, rest) = planes.split_at_mut(1);
        let (g, b) = rest.split_at_mut(1);
        media::color::forward_planes(&mut r[0], &mut g[0], &mut b[0]);
    }
    // Luma (or every plane without the colour transform) is level-shifted.
    let shifted = |c: usize| !color || c == 0;
    let streams: Vec<Vec<u8>> = planes
        .iter_mut()
        .enumerate()
        .map(|(c, plane)| {
            if shifted(c) {
                plane.iter_mut().for_each(|v| *v -= 128);
            }
            reference::forward_2d(plane, w, h, levels, cfg.wavelet);
            reference::encode_plane(plane, w, h, levels)
        })
        .collect();
    let full = ezw::assemble_container(img.channels, cfg.wavelet, color, &streams);
    let container = match cfg.full_stream_bpp {
        Some(bpp) if ((img.pixels() as f64 * bpp / 8.0) as usize) < full.len() => {
            ezw::truncate_container(&full, (img.pixels() as f64 * bpp / 8.0) as usize)
                .expect("reference container truncates")
        }
        _ => full,
    };
    let all = split_packets(&container, cfg.packets_per_image);
    let keep = (packets as usize).min(all.len());
    let prefix = reassemble_prefix(&all[..keep]).expect("prefix reassembles");

    let mut pos = ezw::CONTAINER_HEADER_LEN;
    let mut decoded: Vec<Vec<i32>> = Vec::with_capacity(img.channels);
    for c in 0..img.channels {
        let len = u32::from_be_bytes(prefix[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        let mut plane = reference::decode_plane(&prefix[pos..pos + len])
            .expect("reference decodes its own stream");
        pos += len;
        reference::inverse_2d(&mut plane.coeffs, w, h, levels, cfg.wavelet);
        if shifted(c) {
            plane.coeffs.iter_mut().for_each(|v| *v += 128);
        }
        decoded.push(plane.coeffs);
    }
    if color {
        let (y, rest) = decoded.split_at_mut(1);
        let (co, cg) = rest.split_at_mut(1);
        media::color::inverse_planes(&mut y[0], &mut co[0], &mut cg[0]);
    }
    let mut out = Image::new(w, h, img.channels);
    for (c, plane) in decoded.iter().enumerate() {
        out.set_plane(c, plane);
    }
    out
}

/// FNV-1a of an image's samples: views of one scene at one budget must
/// agree across viewers and rounds.
pub fn image_hash(img: &Image) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in &img.data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Check a chat log against the lines the oracle expects for it:
/// the same multiset, each author's lines in publication order.
/// Returns the number of expected lines found in place.
pub fn check_chat_log(
    log: &[(String, String)],
    expected: &[(&str, &str)],
    oracle: &mut Oracle,
    who: &str,
) -> u64 {
    // Per author, both sequences must be identical.
    let mut by_author: BTreeMap<&str, (Vec<&str>, Vec<&str>)> = BTreeMap::new();
    for (a, t) in log {
        by_author.entry(a.as_str()).or_default().0.push(t.as_str());
    }
    for (a, t) in expected {
        by_author.entry(a).or_default().1.push(t);
    }
    let mut good = 0u64;
    for (author, (got, want)) in by_author {
        let matching = got.iter().zip(&want).take_while(|(g, w)| g == w).count();
        good += matching as u64;
        let extra = got.len().saturating_sub(matching);
        if extra > 0 || matching < want.len() {
            // Missing lines show up as expected − delivered; extra or
            // reordered ones are violations of their own.
            for _ in 0..extra {
                oracle.violation(|| {
                    format!(
                        "{who}: lines from {author} out of order, duplicated or unexpected \
                         (got {}, want {})",
                        got.len(),
                        want.len()
                    )
                });
            }
        }
    }
    good
}

/// Burst allowance of a shaping-tree bucket (the `TreeSpec` default of
/// 3 000 bytes) plus one full-size packet, in bits.
const CEILING_SLACK_BITS: u64 = (3_000 + 1_514) * 8;

/// Per-leaf ceiling compliance from `TreeStatsHandle::bits_sent`,
/// sampled after every pump slice. Also keeps each leaf's busiest pair
/// of consecutive sampling intervals — with 50 ms slices, its busiest
/// 100 ms plan window — which the workload folds into receiver reports.
pub struct CeilingWatch {
    stats: htb::TreeStatsHandle,
    leaves: Vec<htb::NodeIdx>,
    last_bits: Vec<u64>,
    prev_moved: Vec<u64>,
    /// Most bits each leaf moved over two consecutive intervals since
    /// the last [`CeilingWatch::reset_windows`].
    pub window_bits: Vec<u64>,
    last_us: u64,
}

impl CeilingWatch {
    pub fn new(stats: htb::TreeStatsHandle, leaves: Vec<htb::NodeIdx>, now_us: u64) -> Self {
        let last_bits = leaves.iter().map(|&l| stats.bits_sent(l)).collect();
        let n = leaves.len();
        CeilingWatch {
            stats,
            leaves,
            last_bits,
            prev_moved: vec![0; n],
            window_bits: vec![0; n],
            last_us: now_us,
        }
    }

    /// Compare each leaf's bits since the previous sample with what its
    /// ceiling allows over that interval.
    pub fn sample(&mut self, now_us: u64, oracle: &mut Oracle) {
        let dt = now_us - self.last_us;
        for (i, &leaf) in self.leaves.iter().enumerate() {
            let bits = self.stats.bits_sent(leaf);
            let moved = bits - self.last_bits[i];
            let allowed = self.stats.ceil_bps(leaf) * dt / 1_000_000 + CEILING_SLACK_BITS;
            oracle.check(moved <= allowed, || {
                format!("leaf {leaf} moved {moved} bits in {dt} µs, ceiling allows {allowed}")
            });
            self.window_bits[i] = self.window_bits[i].max(moved + self.prev_moved[i]);
            self.prev_moved[i] = moved;
            self.last_bits[i] = bits;
        }
        self.last_us = now_us;
    }

    /// Start a new round of plan windows.
    pub fn reset_windows(&mut self) {
        self.prev_moved.fill(0);
        self.window_bits.fill(0);
    }
}

/// `NetStats` conservation between two quiescent points.
pub struct Conservation {
    stats: simnet::NetStatsHandle,
    last: u64,
}

impl Conservation {
    pub fn new(stats: simnet::NetStatsHandle) -> Self {
        let last = stats.delivered() + stats.dropped();
        Conservation { stats, last }
    }

    fn advance(&mut self) -> u64 {
        let now = self.stats.delivered() + self.stats.dropped();
        let delta = now - self.last;
        self.last = now;
        delta
    }

    /// Forget traffic the oracle does not model (set-up, adaptation).
    pub fn resync(&mut self) {
        self.advance();
    }

    /// Every one of the `copies` sent since the last call must have
    /// been delivered or dropped, and nothing else may have moved.
    pub fn expect_exact(&mut self, copies: u64, oracle: &mut Oracle) {
        let moved = self.advance();
        oracle.check(moved == copies, || {
            format!("conservation: {copies} copies sent, {moved} delivered or dropped")
        });
    }

    /// As [`Conservation::expect_exact`] where the session also moves
    /// protocol frames the oracle does not model (custody transfers).
    pub fn expect_at_least(&mut self, copies: u64, oracle: &mut Oracle) {
        let moved = self.advance();
        oracle.check(moved >= copies, || {
            format!("conservation: {copies} data copies sent, only {moved} delivered or dropped")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::image::synthetic_scene;

    #[test]
    fn reference_view_matches_live_codec_and_detects_corruption() {
        let scene = synthetic_scene(64, 64, 3, 4, 5);
        let cfg = SessionConfig {
            color_transform: true,
            full_stream_bpp: Some(6.0),
            ..SessionConfig::default()
        };
        // The live pipeline, as the session and viewer run it.
        let full = ezw::encode_image_opts(&scene.image, 5, cfg.wavelet, true).unwrap();
        let cut = ezw::truncate_container(&full, 64 * 64 * 6 / 8).unwrap();
        let packets = split_packets(&cut, 16);
        for keep in [16usize, 4] {
            let live = ezw::decode_image(&reassemble_prefix(&packets[..keep]).unwrap()).unwrap();
            let want = reference_view(&scene, &cfg, keep as u32);
            assert_eq!(live.data, want.data, "budget {keep}");
            let mut bad = live.clone();
            bad.data[100] ^= 1;
            assert_ne!(image_hash(&bad), image_hash(&want));
        }
    }

    #[test]
    fn chat_log_check_counts_order_and_duplicates() {
        let line = |a: &str, t: &str| (a.to_string(), t.to_string());
        let want = [("a", "1"), ("b", "x"), ("a", "2")];
        let mut o = Oracle::default();
        // Interleaving across authors is free; per-author order is not.
        let log = vec![line("b", "x"), line("a", "1"), line("a", "2")];
        assert_eq!(check_chat_log(&log, &want, &mut o, "c"), 3);
        assert_eq!(o.wrong, 0);
        let log = vec![line("a", "2"), line("a", "1"), line("b", "x")];
        assert_eq!(check_chat_log(&log, &want, &mut o, "c"), 1);
        assert_eq!(o.wrong, 2);
        let mut o = Oracle::default();
        let log = vec![
            line("a", "1"),
            line("a", "2"),
            line("a", "2"),
            line("b", "x"),
        ];
        assert_eq!(check_chat_log(&log, &want, &mut o, "c"), 3);
        assert_eq!(o.wrong, 1, "the duplicate is a violation");
        let mut o = Oracle::default();
        assert_eq!(check_chat_log(&[], &want, &mut o, "c"), 0);
        assert_eq!(
            o.wrong, 0,
            "missing lines are counted by expected - delivered"
        );
    }

    #[test]
    fn recipients_use_the_tree_walk_evaluator() {
        let mut a = Profile::new("a");
        a.set("interested_in", AttrValue::List(vec![AttrValue::str("t1")]));
        let mut b = Profile::new("b");
        b.set("interested_in", AttrValue::List(vec![AttrValue::str("t2")]));
        let got = recipients(
            &[a, b],
            "interested_in contains 't2' or interested_in contains 't9'",
            &BTreeMap::new(),
        );
        assert_eq!(got, vec![1]);
    }
}
