//! Thin RTP/RTCP-style layer over the datagram substrate.
//!
//! The paper (§5.1) notes that UDP multicast alone limits reliability,
//! so "a thin layer based on the RTP-RTCP scheme is built on top of the
//! communication substrate to provide limited in-order delivery
//! assurance". This module provides exactly that and no more:
//!
//! * [`RtpHeader`] — a 12-byte header wire-compatible in spirit with
//!   RFC 3550 (version, marker, payload type, sequence, timestamp,
//!   SSRC),
//! * [`RtpSender`] — stamps outgoing payloads with consecutive
//!   sequence numbers,
//! * [`RtpReceiver`] — a per-source reorder buffer that releases
//!   packets in sequence order within a bounded window, skipping
//!   over gaps once the window is exceeded (limited, not full,
//!   reliability: a skipped packet is counted lost, never repaired),
//!   with optional playout priming so a reordered stream start is
//!   absorbed, and
//! * [`ReceiverReport`] — RTCP-RR-style statistics (fraction lost,
//!   cumulative lost, highest sequence seen).
//!
//! ECN feedback rides the receiver report: the receiver counts packets
//! that arrived Congestion-Experienced (marked by a link's AQM instead
//! of being dropped) via [`RtpReceiver::push_marked`], and
//! [`ReceiverReport::fraction_ecn_ce`] carries the share back, so the
//! sender-side adaptation loop can react to congestion *before* any
//! packet is lost.

use crate::wire::Reader;
use std::collections::BTreeMap;

/// Fixed RTP header size in bytes.
pub const RTP_HEADER_LEN: usize = 12;

/// RTP protocol version we stamp (always 2, as in RFC 3550).
const RTP_VERSION: u8 = 2;

/// How far past the highest sequence seen an arrival may lie and still
/// be taken as in order (a gap of lost packets), and how far behind it
/// as reordered: RFC 3550 A.1's `MAX_DROPOUT` and `MAX_MISORDER`.
/// Anything else is a jump, taken only once the next arrival follows
/// it in sequence.
const MAX_DROPOUT: u16 = 3000;
const MAX_MISORDER: u16 = 100;

/// Decoded RTP header fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtpHeader {
    /// End-of-frame style marker bit.
    pub marker: bool,
    /// Payload type (caller-defined media code).
    pub payload_type: u8,
    /// 16-bit sequence number (wraps).
    pub seq: u16,
    /// Media timestamp.
    pub timestamp: u32,
    /// Synchronization source — identifies the sender stream.
    pub ssrc: u32,
}

impl RtpHeader {
    /// Serialize to the 12-byte wire form.
    pub fn encode(&self) -> [u8; RTP_HEADER_LEN] {
        let mut b = [0u8; RTP_HEADER_LEN];
        b[0] = RTP_VERSION << 6;
        b[1] = (self.payload_type & 0x7f) | if self.marker { 0x80 } else { 0 };
        b[2..4].copy_from_slice(&self.seq.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        b
    }

    /// Parse the wire form; `None` if too short or wrong version.
    pub fn decode(buf: &[u8]) -> Option<(RtpHeader, &[u8])> {
        let mut r = Reader::new(buf);
        let [b0, b1] = r.array().ok()?;
        if b0 >> 6 != RTP_VERSION {
            return None;
        }
        let header = RtpHeader {
            marker: b1 & 0x80 != 0,
            payload_type: b1 & 0x7f,
            seq: r.u16().ok()?,
            timestamp: r.u32().ok()?,
            ssrc: r.u32().ok()?,
        };
        Some((header, r.rest()))
    }
}

/// Stamps outgoing payloads with consecutive sequence numbers.
#[derive(Debug)]
pub struct RtpSender {
    ssrc: u32,
    payload_type: u8,
    next_seq: u16,
}

impl RtpSender {
    /// A sender for stream `ssrc` carrying `payload_type`.
    pub fn new(ssrc: u32, payload_type: u8) -> Self {
        RtpSender::starting_at(ssrc, payload_type, 0)
    }

    /// A sender whose first packet carries sequence `start_seq`
    /// (wraparound testing).
    pub fn starting_at(ssrc: u32, payload_type: u8, start_seq: u16) -> Self {
        RtpSender {
            ssrc,
            payload_type,
            next_seq: start_seq,
        }
    }

    /// Wrap `payload` into an RTP datagram.
    pub fn wrap(&mut self, timestamp: u32, marker: bool, payload: &[u8]) -> Vec<u8> {
        let header = RtpHeader {
            marker,
            payload_type: self.payload_type,
            seq: self.next_seq,
            timestamp,
            ssrc: self.ssrc,
        };
        self.next_seq = self.next_seq.wrapping_add(1);
        let mut out = Vec::with_capacity(RTP_HEADER_LEN + payload.len());
        out.extend_from_slice(&header.encode());
        out.extend_from_slice(payload);
        out
    }
}

/// A packet released by the reorder buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtpPacket {
    /// Decoded header.
    pub header: RtpHeader,
    /// Media payload.
    pub payload: Vec<u8>,
}

/// RTCP receiver-report-style statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReceiverReport {
    /// Packets released to the application.
    pub received: u64,
    /// Packets skipped over as lost.
    pub lost: u64,
    /// Highest extended sequence number observed: its low 32 bits, as
    /// RFC 3550's report carries it. After a confirmed jump the count
    /// goes on from the highest before it.
    pub highest_seq: u32,
    /// Fraction lost in `[0,1]` over the stream lifetime:
    /// `lost / (received + lost)`.
    pub fraction_lost: f64,
    /// Arrivals discarded as duplicate or stale (already buffered,
    /// already released, or already skipped).
    pub duplicates: u64,
    /// Arrivals that carried the ECN Congestion-Experienced mark
    /// (counted by [`RtpReceiver::push_marked`]).
    pub ecn_ce: u64,
    /// Fraction of all decoded arrivals that were CE-marked, in
    /// `[0, 1]` — the congestion signal the adaptation loop consumes
    /// as `congestion_pct` (× 100). Congestion shows here *before*
    /// `fraction_lost` moves: the AQM marks ECN-capable traffic where
    /// it would drop anything else.
    pub fraction_ecn_ce: f64,
}

/// Per-source reorder buffer with bounded window.
///
/// In-order packets are released immediately; out-of-order packets are
/// held until the gap fills or the window (`max_window` buffered
/// packets) overflows, at which point the receiver declares the missing
/// packets lost and skips ahead. Duplicates and stale packets (before
/// the release point) are discarded. As in RFC 3550 A.1, an arrival
/// 3 000 or more past the highest sequence seen (`MAX_DROPOUT`), or
/// 100 or more behind it (`MAX_MISORDER`), is a jump: it is discarded unless the
/// arrival before it was the packet just below it, in which case the
/// sender is taken to have restarted and the stream goes on from it,
/// with no loss booked for the jump. So one corrupted or forged header
/// moves nothing.
#[derive(Debug)]
pub struct RtpReceiver {
    max_window: usize,
    /// Packets that must be buffered before the first release (playout
    /// priming). 1 = release immediately.
    playout_depth: usize,
    /// Extended (cycle-corrected) sequence number expected next. 64
    /// bits, so no stream outlives it: a 32-bit count runs out after
    /// 2¹⁶ wire cycles, which hostile sequence jumps reach quickly.
    next_ext: Option<u64>,
    highest_ext: u64,
    /// The sequence that would confirm the last arrival's jump: the
    /// one after it.
    bad_seq: Option<u16>,
    /// Added to a wire sequence before it is extended: zero until a
    /// confirmed jump re-bases the stream.
    rebase: u16,
    buffer: BTreeMap<u64, RtpPacket>,
    received: u64,
    lost: u64,
    /// Whether any packet has been released yet; until then the stream
    /// start may move backwards (a late-arriving earlier packet defines
    /// a new, earlier playout point instead of being dropped).
    started: bool,
    duplicates: u64,
    /// Decoded RTP arrivals (any disposition), the ECN denominator.
    arrivals: u64,
    /// Arrivals that carried the CE mark.
    ce_arrivals: u64,
}

impl RtpReceiver {
    /// A receiver holding at most `max_window` out-of-order packets.
    pub fn new(max_window: usize) -> Self {
        assert!(max_window >= 1, "window must hold at least one packet");
        RtpReceiver {
            max_window,
            playout_depth: 1,
            next_ext: None,
            highest_ext: 0,
            bad_seq: None,
            rebase: 0,
            buffer: BTreeMap::new(),
            received: 0,
            lost: 0,
            started: false,
            duplicates: 0,
            arrivals: 0,
            ce_arrivals: 0,
        }
    }

    /// A receiver that primes: it buffers `playout_depth` packets
    /// before the first release, so early reordering (including packets
    /// that arrive before the true stream start) is absorbed rather
    /// than dropped.
    pub fn with_playout_depth(max_window: usize, playout_depth: usize) -> Self {
        assert!(playout_depth >= 1 && playout_depth <= max_window);
        let mut r = RtpReceiver::new(max_window);
        r.playout_depth = playout_depth;
        r
    }

    /// Convert a wire sequence number to an extended one, relative to
    /// the highest seen: less than [`MAX_DROPOUT`] ahead of it or less
    /// than [`MAX_MISORDER`] behind it, never below zero. A jump is `None`,
    /// unless it confirms the one before, which re-bases the stream
    /// just past the highest.
    fn extend(&mut self, seq: u16) -> Option<u64> {
        let confirms = self.bad_seq.take() == Some(seq);
        if self.next_ext.is_none() {
            return Some(u64::from(seq));
        }
        let max = self.highest_ext;
        let ahead = seq.wrapping_add(self.rebase).wrapping_sub(max as u16);
        if ahead < MAX_DROPOUT {
            Some(max + u64::from(ahead))
        } else if ahead.wrapping_neg() < MAX_MISORDER {
            max.checked_sub(u64::from(ahead.wrapping_neg()))
        } else if confirms {
            self.rebase = self.rebase.wrapping_sub(ahead - 1);
            Some(max + 1)
        } else {
            self.bad_seq = Some(seq.wrapping_add(1));
            None
        }
    }

    /// Offer a raw datagram payload; returns packets now releasable in
    /// order (possibly empty, possibly several). Equivalent to
    /// [`RtpReceiver::push_marked`] with `ecn_ce = false`.
    pub fn push(&mut self, raw: &[u8]) -> Vec<RtpPacket> {
        self.push_marked(raw, false)
    }

    /// Offer a raw datagram payload together with its network-layer
    /// ECN disposition (`ecn_ce` is the Congestion-Experienced mark a
    /// link's AQM may have set; see `simnet::net::Datagram::ecn_ce`).
    /// Marks are counted per decoded arrival — duplicates included,
    /// since each copy's mark is an independent congestion observation
    /// — and surface in [`ReceiverReport::fraction_ecn_ce`].
    pub fn push_marked(&mut self, raw: &[u8], ecn_ce: bool) -> Vec<RtpPacket> {
        let Some((header, body)) = RtpHeader::decode(raw) else {
            return Vec::new();
        };
        self.arrivals += 1;
        if ecn_ce {
            self.ce_arrivals += 1;
        }
        let Some(ext) = self.extend(header.seq) else {
            return Vec::new();
        };
        let next = *self.next_ext.get_or_insert(ext);
        self.highest_ext = self.highest_ext.max(ext);
        if ext < next {
            if self.started {
                // Stale, or a duplicate of a released/skipped packet.
                self.duplicates += 1;
                return Vec::new();
            }
            // Playout has not begun: accept the earlier start point.
            self.next_ext = Some(ext);
        }
        if self.buffer.contains_key(&ext) {
            self.duplicates += 1;
            return Vec::new();
        }
        self.buffer.insert(
            ext,
            RtpPacket {
                header,
                payload: body.to_vec(),
            },
        );
        self.drain()
    }

    /// Release whatever is releasable: the contiguous run from
    /// `next_ext`, plus forced skips while over the window.
    fn drain(&mut self) -> Vec<RtpPacket> {
        let mut out = Vec::new();
        // Playout priming: hold everything until enough is buffered.
        if !self.started && self.buffer.len() < self.playout_depth {
            return out;
        }
        loop {
            let next = self.next_ext.unwrap();
            if let Some(pkt) = self.buffer.remove(&next) {
                self.received += 1;
                self.started = true;
                self.next_ext = Some(next + 1);
                out.push(pkt);
            } else if self.buffer.len() >= self.max_window {
                // Window overflow: give up on the gap, jump to the
                // earliest buffered packet, counting the skipped
                // sequence numbers as lost.
                let earliest = *self.buffer.keys().next().unwrap();
                self.lost += earliest - next;
                self.next_ext = Some(earliest);
            } else {
                break;
            }
        }
        out
    }

    /// Force-flush all buffered packets (end of stream), counting any
    /// remaining gaps as lost.
    pub fn flush(&mut self) -> Vec<RtpPacket> {
        self.started = true; // end priming unconditionally
        let mut out = Vec::new();
        while let Some(&earliest) = self.buffer.keys().next() {
            let next = self.next_ext.unwrap();
            self.lost += earliest.saturating_sub(next);
            self.next_ext = Some(earliest);
            out.extend(self.drain());
        }
        out
    }

    /// Current receiver-report statistics.
    pub fn report(&self) -> ReceiverReport {
        let total = self.received + self.lost;
        let fraction_lost = if total == 0 {
            0.0
        } else {
            self.lost as f64 / total as f64
        };
        ReceiverReport {
            received: self.received,
            lost: self.lost,
            highest_seq: self.highest_ext as u32,
            fraction_lost,
            duplicates: self.duplicates,
            ecn_ce: self.ce_arrivals,
            fraction_ecn_ce: if self.arrivals == 0 {
                0.0
            } else {
                self.ce_arrivals as f64 / self.arrivals as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seq: u16) -> Vec<u8> {
        let h = RtpHeader {
            marker: false,
            payload_type: 7,
            seq,
            timestamp: seq as u32 * 10,
            ssrc: 0xabcd,
        };
        let mut v = h.encode().to_vec();
        v.push(seq as u8);
        v
    }

    #[test]
    fn header_round_trip() {
        let h = RtpHeader {
            marker: true,
            payload_type: 96,
            seq: 65535,
            timestamp: 123456,
            ssrc: 0xdeadbeef,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(b"payload");
        let (back, body) = RtpHeader::decode(&wire).unwrap();
        assert_eq!(back, h);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn decode_rejects_short_and_bad_version() {
        assert!(RtpHeader::decode(&[0u8; 5]).is_none());
        let mut wire = mk(0);
        wire[0] = 0; // version 0
        assert!(RtpHeader::decode(&wire).is_none());
    }

    #[test]
    fn sender_increments_and_wraps() {
        let mut s = RtpSender::new(1, 2);
        s.next_seq = 65534;
        let w1 = s.wrap(0, false, b"a");
        let w2 = s.wrap(0, false, b"b");
        let w3 = s.wrap(0, false, b"c");
        let seqs: Vec<u16> = [w1, w2, w3]
            .iter()
            .map(|w| RtpHeader::decode(w).unwrap().0.seq)
            .collect();
        assert_eq!(seqs, vec![65534, 65535, 0]);
    }

    #[test]
    fn in_order_release() {
        let mut r = RtpReceiver::new(8);
        for seq in 0..5u16 {
            let out = r.push(&mk(seq));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].header.seq, seq);
        }
        assert_eq!(r.report().received, 5);
        assert_eq!(r.report().lost, 0);
    }

    #[test]
    fn reorder_within_window() {
        let mut r = RtpReceiver::new(8);
        assert_eq!(r.push(&mk(0)).len(), 1);
        assert!(r.push(&mk(2)).is_empty());
        assert!(r.push(&mk(3)).is_empty());
        let out = r.push(&mk(1));
        let seqs: Vec<u16> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn window_overflow_skips_gap() {
        let mut r = RtpReceiver::new(3);
        r.push(&mk(0));
        // seq 1 lost; 2,3 buffered; pushing 4 hits the window and skips.
        assert!(r.push(&mk(2)).is_empty());
        assert!(r.push(&mk(3)).is_empty());
        let out = r.push(&mk(4));
        let seqs: Vec<u16> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let rep = r.report();
        assert_eq!(rep.lost, 1);
        assert!((rep.fraction_lost - 0.2).abs() < 1e-9);
    }

    #[test]
    fn duplicates_and_stale_discarded() {
        let mut r = RtpReceiver::new(8);
        assert_eq!(r.push(&mk(0)).len(), 1);
        assert_eq!(r.push(&mk(1)).len(), 1);
        assert!(r.push(&mk(0)).is_empty(), "stale");
        assert!(r.push(&mk(1)).is_empty(), "duplicate");
        assert!(r.push(&mk(3)).is_empty());
        assert!(r.push(&mk(3)).is_empty(), "duplicate of a buffered packet");
        let rep = r.report();
        assert_eq!((rep.received, rep.duplicates), (2, 3));
    }

    #[test]
    fn flush_releases_tail_after_gap() {
        let mut r = RtpReceiver::new(16);
        r.push(&mk(0));
        r.push(&mk(5));
        r.push(&mk(6));
        let out = r.flush();
        let seqs: Vec<u16> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
        assert_eq!(r.report().lost, 4);
    }

    #[test]
    fn playout_priming_absorbs_early_reordering() {
        // Stream starts at seq 0 but seq 2 arrives first; an unprimed
        // receiver would anchor at 2 and drop 0 and 1.
        let mut r = RtpReceiver::with_playout_depth(8, 3);
        assert!(r.push(&mk(2)).is_empty(), "primed: held");
        assert!(r.push(&mk(0)).is_empty());
        let out = r.push(&mk(1));
        let seqs: Vec<u16> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(r.report().lost, 0);
    }

    #[test]
    fn flush_ends_priming() {
        let mut r = RtpReceiver::with_playout_depth(8, 4);
        r.push(&mk(5));
        r.push(&mk(6));
        let out = r.flush();
        let seqs: Vec<u16> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
    }

    #[test]
    #[should_panic]
    fn playout_depth_cannot_exceed_window() {
        RtpReceiver::with_playout_depth(4, 5);
    }

    #[test]
    fn a_gap_across_the_wraparound_is_counted_lost_once() {
        let mut r = RtpReceiver::new(64);
        let mut s = RtpSender::starting_at(0xabcd, 7, 65533);
        let wires: Vec<Vec<u8>> = (0..8).map(|i| s.wrap(i, false, &[i as u8])).collect();
        // Drop the packet whose wire seq is 0 (index 3).
        let mut released = Vec::new();
        for (i, w) in wires.iter().enumerate() {
            if i != 3 {
                released.extend(r.push(w));
            }
        }
        released.extend(r.flush());
        let seqs: Vec<u16> = released.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![65533, 65534, 65535, 1, 2, 3, 4]);
        let rep = r.report();
        assert_eq!((rep.received, rep.lost), (7, 1));
        assert_eq!(rep.highest_seq, 0x1_0004);
    }

    #[test]
    fn releases_continue_past_two_to_the_32_extended_sequences() {
        // Every step of 2 999 is the longest gap still in order, so
        // each arrival advances the extended sequence by 2 999 and
        // skips 2 998 as lost, across wire cycle after wire cycle.
        let mut r = RtpReceiver::new(1);
        let mut seq = 0u16;
        let mut released = 0u64;
        for _ in 0..100_000 {
            released += r.push(&mk(seq)).len() as u64;
            seq = seq.wrapping_add(MAX_DROPOUT - 1);
        }
        let rep = r.report();
        assert_eq!(released, 100_000, "every arrival is released");
        assert_eq!((rep.duplicates, rep.lost), (0, 99_999 * 2_998));
        assert_eq!(rep.highest_seq, 99_999 * 2_999);
        // Reaching 2³² that way takes 1.4·10⁶ arrivals: start just
        // below it instead, and cross it.
        let start = (1u64 << 32) - 5;
        (r.next_ext, r.highest_ext) = (Some(start), start);
        for seq in 0..10 {
            let seq = (start as u16).wrapping_add(seq);
            assert_eq!(r.push(&mk(seq)).len(), 1, "seq {seq}");
        }
        assert_eq!(r.report().highest_seq, 4, "low 32 bits");
        assert_eq!(r.highest_ext, (1 << 32) + 4);
    }

    #[test]
    fn a_flipped_header_in_mid_stream_books_no_loss() {
        // A stream at 26 150 meets one header whose sequence was
        // corrupted to 62 246 — the case that booked 36 095 losses
        // when any sequence up to 2¹⁵ ahead was taken as new.
        let mut r = RtpReceiver::new(2);
        let mut released = Vec::new();
        for seq in 26_140..26_151u16 {
            released.extend(r.push(&mk(seq)));
        }
        assert!(r.push(&mk(62_246)).is_empty(), "the jump is discarded");
        for seq in 26_151..26_160u16 {
            released.extend(r.push(&mk(seq)));
        }
        released.extend(r.flush());
        let seqs: Vec<u16> = released.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, (26_140..26_160).collect::<Vec<u16>>());
        let rep = r.report();
        assert_eq!((rep.received, rep.lost, rep.duplicates), (20, 0, 0));
        assert_eq!(rep.highest_seq, 26_159);
        // Far behind is a jump too, not a stale packet to count.
        assert!(r.push(&mk(26_159 - MAX_MISORDER)).is_empty());
        assert_eq!(r.report().duplicates, 0);
    }

    #[test]
    fn a_jump_the_next_arrival_confirms_restarts_the_stream() {
        // The sender restarted at 40 000: the first packet of the new
        // numbering is discarded, the second confirms the jump, and the
        // stream goes on from it with no loss booked for the jump.
        let mut r = RtpReceiver::new(4);
        let mut released = Vec::new();
        for seq in (0..5u16).chain(40_000..40_005) {
            released.extend(r.push(&mk(seq)));
        }
        let seqs: Vec<u16> = released.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 40_001, 40_002, 40_003, 40_004]);
        let rep = r.report();
        assert_eq!((rep.received, rep.lost), (9, 0));
        // A jump the next arrival does not follow stays discarded.
        assert!(r.push(&mk(10_000)).is_empty());
        assert_eq!(r.push(&mk(40_005)).len(), 1);
        assert!(r.push(&mk(10_001)).is_empty(), "not after 10 000");
        assert_eq!(r.report().received, 10);
    }

    #[test]
    fn ce_marks_counted_in_the_report() {
        let mut r = RtpReceiver::new(8);
        // 1 of 4 arrivals CE-marked; dup counted as its own observation.
        assert_eq!(r.push_marked(&mk(0), false).len(), 1);
        assert_eq!(r.push_marked(&mk(1), true).len(), 1);
        assert_eq!(r.push_marked(&mk(2), false).len(), 1);
        assert!(r.push_marked(&mk(2), false).is_empty(), "duplicate");
        let rep = r.report();
        assert_eq!(rep.ecn_ce, 1);
        assert!((rep.fraction_ecn_ce - 0.25).abs() < 1e-12);
        assert_eq!(rep.fraction_lost, 0.0, "ECN signals without loss");
    }

    #[test]
    fn unmarked_stream_reports_zero_congestion() {
        let mut r = RtpReceiver::new(8);
        for seq in 0..10u16 {
            r.push(&mk(seq));
        }
        let rep = r.report();
        assert_eq!(rep.ecn_ce, 0);
        assert_eq!(rep.fraction_ecn_ce, 0.0);
    }

    #[test]
    fn sequence_wraparound_handled() {
        let mut r = RtpReceiver::new(8);
        // Start near the top of the u16 range.
        for seq in [65533u16, 65534, 65535, 0, 1, 2] {
            let out = r.push(&mk(seq));
            assert_eq!(out.len(), 1, "seq {seq} should release immediately");
        }
        assert_eq!(r.report().received, 6);
        assert_eq!(r.report().lost, 0);
        assert!(r.report().highest_seq > 65535, "extended past one cycle");
    }
}
