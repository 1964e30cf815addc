//! Thin RTP/RTCP-style layer over the datagram substrate.
//!
//! The paper (§5.1) notes that UDP multicast alone limits reliability,
//! so "a thin layer based on the RTP-RTCP scheme is built on top of the
//! communication substrate to provide limited in-order delivery
//! assurance". This module provides exactly that:
//!
//! * [`RtpHeader`] — a 12-byte header wire-compatible in spirit with
//!   RFC 3550 (version, marker, payload type, sequence, timestamp,
//!   SSRC),
//! * [`RtpSender`] — stamps outgoing payloads,
//! * [`RtpReceiver`] — a per-source reorder buffer that releases
//!   packets in sequence order within a bounded window, skipping
//!   over gaps once the window is exceeded (limited, not full,
//!   reliability),
//! * [`ReceiverReport`] — RTCP-RR-style statistics (fraction lost,
//!   cumulative lost, highest sequence seen), and
//! * [`Nack`] + the sender retransmit buffer — an RFC 4585-style
//!   feedback loop: the receiver detects sequence gaps, NACKs them
//!   with exponential backoff under a retransmit budget, and the
//!   sender replays them from a bounded history.
//!
//! ECN feedback rides the receiver report: the receiver counts packets
//! that arrived Congestion-Experienced (marked by a link's AQM instead
//! of being dropped) via [`RtpReceiver::push_marked`], and
//! [`ReceiverReport::fraction_ecn_ce`] carries the share back, so the
//! sender-side adaptation loop can react to congestion *before* any
//! packet is lost.
//!
//! NACKs share the RTP version bits, so a NACK datagram *parses* as an
//! RTP header; feedback must travel on its own port (as RTCP does).

use crate::time::Ticks;
use crate::wire::Reader;
use std::collections::{BTreeMap, BTreeSet};

/// Fixed RTP header size in bytes.
pub const RTP_HEADER_LEN: usize = 12;

/// RTP protocol version we stamp (always 2, as in RFC 3550).
const RTP_VERSION: u8 = 2;

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

/// RTCP payload type used for NACK feedback (RTPFB, RFC 4585).
const RTCP_NACK_PT: u8 = 205;

/// Negative acknowledgement: sequence numbers the receiver is missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nack {
    /// Stream the feedback refers to.
    pub ssrc: u32,
    /// Missing wire sequence numbers.
    pub seqs: Vec<u16>,
}

impl Nack {
    /// Serialize: version byte, `RTCP_NACK_PT`, a 16-bit count, the
    /// SSRC, then each sequence number big-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.seqs.len() * 2);
        out.push(RTP_VERSION << 6);
        out.push(RTCP_NACK_PT);
        out.extend_from_slice(&(self.seqs.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        for seq in &self.seqs {
            out.extend_from_slice(&seq.to_be_bytes());
        }
        out
    }

    /// Parse the wire form; `None` on wrong version/type or bad length.
    pub fn decode(buf: &[u8]) -> Option<Nack> {
        let mut r = Reader::new(buf);
        let [b0, b1] = r.array().ok()?;
        let count = r.u16().ok()?;
        let ssrc = r.u32().ok()?;
        if b0 >> 6 != RTP_VERSION || b1 != RTCP_NACK_PT || r.remaining() != 2 * usize::from(count) {
            return None;
        }
        let seqs = (0..count).map(|_| r.u16()).collect::<Result<_, _>>().ok()?;
        Some(Nack { ssrc, seqs })
    }
}

/// Stamps outgoing payloads with consecutive sequence numbers and,
/// when built [`RtpSender::with_history`], keeps a bounded buffer of
/// recent wire packets for NACK-driven retransmission.
#[derive(Debug)]
pub struct RtpSender {
    ssrc: u32,
    payload_type: u8,
    next_seq: u16,
    /// Recent `(seq, wire)` pairs, oldest first, capped at `history_cap`.
    history: std::collections::VecDeque<(u16, Vec<u8>)>,
    history_cap: usize,
    retransmits: u64,
}

impl RtpSender {
    /// A sender for stream `ssrc` carrying `payload_type` (no
    /// retransmit history).
    pub fn new(ssrc: u32, payload_type: u8) -> Self {
        RtpSender {
            ssrc,
            payload_type,
            next_seq: 0,
            history: std::collections::VecDeque::new(),
            history_cap: 0,
            retransmits: 0,
        }
    }

    /// A sender that retains the last `history_cap` wire packets so
    /// NACKed sequences can be retransmitted.
    pub fn with_history(ssrc: u32, payload_type: u8, history_cap: usize) -> Self {
        let mut s = RtpSender::new(ssrc, payload_type);
        s.history_cap = history_cap;
        s
    }

    /// A sender whose first packet carries sequence `start_seq`
    /// (wraparound testing).
    pub fn starting_at(ssrc: u32, payload_type: u8, start_seq: u16) -> Self {
        let mut s = RtpSender::new(ssrc, payload_type);
        s.next_seq = start_seq;
        s
    }

    /// Next sequence number that will be assigned.
    pub fn next_seq(&self) -> u16 {
        self.next_seq
    }

    /// Stream identifier.
    pub fn ssrc(&self) -> u32 {
        self.ssrc
    }

    /// Total packets replayed in response to NACKs.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
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
        if self.history_cap > 0 {
            self.history.push_back((header.seq, out.clone()));
            while self.history.len() > self.history_cap {
                self.history.pop_front();
            }
        }
        out
    }

    /// Replay the wire packets a NACK asks for, oldest first. Sequences
    /// that have aged out of the bounded history are silently skipped —
    /// the receiver's retransmit budget eventually abandons them.
    pub fn retransmit(&mut self, nack: &Nack) -> Vec<Vec<u8>> {
        if nack.ssrc != self.ssrc {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (seq, wire) in &self.history {
            if nack.seqs.contains(seq) {
                out.push(wire.clone());
            }
        }
        self.retransmits += out.len() as u64;
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
    /// Highest extended sequence number observed.
    pub highest_seq: u32,
    /// Fraction lost in `[0,1]` over the stream lifetime.
    pub fraction_lost: f64,
    /// Gaps that were NACKed and subsequently filled by a retransmit.
    /// Duplicate arrivals never count here: only the first arrival of
    /// a previously-NACKed sequence is a recovery.
    pub recovered: u64,
    /// Arrivals discarded as duplicate or stale (already buffered,
    /// already released, or already skipped).
    pub duplicates: u64,
    /// NACK feedback messages emitted.
    pub nacks_sent: u64,
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

/// Per-gap NACK bookkeeping.
#[derive(Clone, Copy, Debug)]
struct NackState {
    /// NACKs already sent for this sequence.
    attempts: u32,
    /// Earliest instant the next NACK may be sent (exponential backoff).
    next_at: Ticks,
}

/// The outcome of [`RtpReceiver::poll_nacks`]: feedback to send to the
/// sender, plus any packets released because a gap's retransmit budget
/// was exhausted and the receiver skipped ahead.
#[derive(Debug, Default)]
pub struct NackPoll {
    /// NACK to transmit on the feedback channel, if any gap is due.
    pub nack: Option<Nack>,
    /// Packets freed by abandoning over-budget gaps, in order.
    pub released: Vec<RtpPacket>,
}

/// Per-source reorder buffer with bounded window.
///
/// In-order packets are released immediately; out-of-order packets are
/// held until the gap fills or the window (`max_window` buffered
/// packets) overflows, at which point the receiver declares the missing
/// packets lost and skips ahead. Duplicates and stale packets (before
/// the release point) are discarded.
///
/// Built [`RtpReceiver::with_recovery`], the receiver additionally
/// tracks every sequence gap and, via [`RtpReceiver::poll_nacks`],
/// emits [`Nack`]s with exponential backoff until a retransmit fills
/// the gap or the budget is exhausted (the gap is then abandoned and
/// counted lost).
#[derive(Debug)]
pub struct RtpReceiver {
    max_window: usize,
    /// Packets that must be buffered before the first release (playout
    /// priming). 1 = release immediately.
    playout_depth: usize,
    /// Extended (cycle-corrected) sequence number expected next.
    next_ext: Option<u32>,
    highest_ext: u32,
    buffer: BTreeMap<u32, RtpPacket>,
    received: u64,
    lost: u64,
    /// Whether any packet has been released yet; until then the stream
    /// start may move backwards (a late-arriving earlier packet defines
    /// a new, earlier playout point instead of being dropped).
    started: bool,
    // --- recovery state (inactive when nack_budget == 0) ---
    /// Detected gaps awaiting repair, by extended sequence.
    missing: BTreeMap<u32, NackState>,
    /// Gaps whose budget ran out: drain skips them, counting them lost.
    abandoned: BTreeSet<u32>,
    /// Backoff base: the first retry waits this long, then doubles.
    nack_base: Ticks,
    /// Maximum NACKs per gap; 0 disables recovery entirely.
    nack_budget: u32,
    /// Stream id observed from incoming packets (NACKs carry it).
    ssrc: Option<u32>,
    recovered: u64,
    duplicates: u64,
    nacks_sent: u64,
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
            buffer: BTreeMap::new(),
            received: 0,
            lost: 0,
            started: false,
            missing: BTreeMap::new(),
            abandoned: BTreeSet::new(),
            nack_base: Ticks::ZERO,
            nack_budget: 0,
            ssrc: None,
            recovered: 0,
            duplicates: 0,
            nacks_sent: 0,
            arrivals: 0,
            ce_arrivals: 0,
        }
    }

    /// A receiver with NACK-driven loss recovery: each detected gap is
    /// NACKed at most `nack_budget` times, the first retry after
    /// `nack_base`, each subsequent one after double the previous wait.
    /// When the budget runs out the gap is abandoned and counted lost.
    pub fn with_recovery(
        max_window: usize,
        playout_depth: usize,
        nack_base: Ticks,
        nack_budget: u32,
    ) -> Self {
        assert!(nack_base > Ticks::ZERO, "backoff base must be positive");
        assert!(nack_budget >= 1, "budget of 0 disables recovery");
        let mut r = RtpReceiver::with_playout_depth(max_window, playout_depth);
        r.nack_base = nack_base;
        r.nack_budget = nack_budget;
        r
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

    /// Convert a wire sequence number to an extended one near `ref_ext`.
    fn extend(&self, seq: u16) -> u32 {
        match self.next_ext {
            None => seq as u32,
            Some(ref_ext) => {
                // Choose the cycle that puts seq closest to ref_ext.
                let base = ref_ext & !0xffff;
                let mut best = base | seq as u32;
                let candidates = [
                    base.wrapping_sub(0x1_0000) | seq as u32,
                    base | seq as u32,
                    base.wrapping_add(0x1_0000) | seq as u32,
                ];
                let mut best_dist = u32::MAX;
                for c in candidates {
                    let dist = c.abs_diff(ref_ext);
                    if dist < best_dist {
                        best_dist = dist;
                        best = c;
                    }
                }
                best
            }
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
        let ext = self.extend(header.seq);
        self.ssrc = Some(header.ssrc);
        if self.next_ext.is_none() {
            self.next_ext = Some(ext);
            self.highest_ext = ext;
        }
        // Register newly-revealed gaps for NACK tracking before moving
        // the high-water mark.
        if self.nack_budget > 0 && ext > self.highest_ext + 1 {
            for gap in self.highest_ext + 1..ext {
                self.missing.entry(gap).or_insert(NackState {
                    attempts: 0,
                    next_at: Ticks::ZERO,
                });
            }
        }
        self.highest_ext = self.highest_ext.max(ext);
        let next = self.next_ext.unwrap();
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
        // A gap fill: recovery only if we actually NACKed it — a
        // reordered original that arrives before any NACK went out is
        // not a recovery (and neither is any duplicate, counted above).
        if let Some(state) = self.missing.remove(&ext) {
            if state.attempts > 0 {
                self.recovered += 1;
            }
        }
        self.abandoned.remove(&ext);
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
            } else if self.abandoned.remove(&next) {
                // Retransmit budget exhausted for this gap: skip it.
                self.lost += 1;
                self.next_ext = Some(next + 1);
            } else if self.buffer.len() >= self.max_window {
                // Window overflow: give up on the gap, jump to the
                // earliest buffered packet, counting the skipped
                // sequence numbers as lost.
                let earliest = *self.buffer.keys().next().unwrap();
                self.lost += (earliest - next) as u64;
                self.next_ext = Some(earliest);
                self.forget_below(earliest);
            } else {
                break;
            }
        }
        out
    }

    /// Drop recovery bookkeeping for sequences below `ext` (they have
    /// been released or written off).
    fn forget_below(&mut self, ext: u32) {
        self.missing = self.missing.split_off(&ext);
        self.abandoned = self.abandoned.split_off(&ext);
    }

    /// Force-flush all buffered packets (end of stream), counting any
    /// remaining gaps as lost and dropping all recovery bookkeeping.
    pub fn flush(&mut self) -> Vec<RtpPacket> {
        self.started = true; // end priming unconditionally
        self.missing.clear();
        self.abandoned.clear();
        let mut out = Vec::new();
        while let Some((&earliest, _)) = self.buffer.iter().next() {
            let next = self.next_ext.unwrap();
            if earliest > next {
                self.lost += (earliest - next) as u64;
            }
            self.next_ext = Some(earliest);
            out.extend(self.drain());
        }
        out
    }

    /// Drive the recovery schedule at instant `now`: collect every gap
    /// whose backoff timer is due into one [`Nack`], and abandon gaps
    /// whose retransmit budget is spent (any packets freed by skipping
    /// them are returned in order).
    ///
    /// A no-op (default `NackPoll`) unless built
    /// [`RtpReceiver::with_recovery`].
    pub fn poll_nacks(&mut self, now: Ticks) -> NackPoll {
        if self.nack_budget == 0 {
            return NackPoll::default();
        }
        let mut due = Vec::new();
        let mut spent = Vec::new();
        for (&ext, state) in self.missing.iter_mut() {
            if now < state.next_at {
                continue;
            }
            if state.attempts >= self.nack_budget {
                spent.push(ext);
            } else {
                state.attempts += 1;
                // Exponential backoff: base, 2*base, 4*base, ...
                state.next_at = now + self.nack_base * (1u64 << (state.attempts - 1).min(16));
                due.push(ext);
            }
        }
        let mut poll = NackPoll::default();
        if !spent.is_empty() {
            for ext in spent {
                self.missing.remove(&ext);
                self.abandoned.insert(ext);
            }
            poll.released = self.drain();
        }
        if !due.is_empty() {
            if let Some(ssrc) = self.ssrc {
                self.nacks_sent += 1;
                poll.nack = Some(Nack {
                    ssrc,
                    seqs: due.iter().map(|&ext| (ext & 0xffff) as u16).collect(),
                });
            }
        }
        poll
    }

    /// Current receiver-report statistics.
    pub fn report(&self) -> ReceiverReport {
        let total = self.received + self.lost;
        let fraction_lost = if total == 0 {
            0.0
        } else {
            // Clamped defensively: `lost` and `received` are disjoint
            // counters (duplicates are tracked separately, never as
            // recovered losses), so the ratio is already in [0, 1].
            (self.lost as f64 / total as f64).clamp(0.0, 1.0)
        };
        ReceiverReport {
            received: self.received,
            lost: self.lost,
            highest_seq: self.highest_ext,
            fraction_lost,
            recovered: self.recovered,
            duplicates: self.duplicates,
            nacks_sent: self.nacks_sent,
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
        assert_eq!(r.report().received, 2);
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
    fn nack_wire_round_trip() {
        let n = Nack {
            ssrc: 0xfeedface,
            seqs: vec![3, 65535, 0, 42],
        };
        assert_eq!(Nack::decode(&n.encode()), Some(n.clone()));
        assert_eq!(Nack::decode(&[0u8; 4]), None, "too short");
        let mut bad = n.encode();
        bad[1] = 96; // not RTPFB
        assert_eq!(Nack::decode(&bad), None);
        let mut truncated = n.encode();
        truncated.pop();
        assert_eq!(Nack::decode(&truncated), None, "count/length mismatch");
    }

    #[test]
    fn sender_history_retransmits_nacked_seqs() {
        let mut s = RtpSender::with_history(0x11, 7, 4);
        let wires: Vec<Vec<u8>> = (0..6).map(|i| s.wrap(i, false, &[i as u8])).collect();
        // History holds the last 4 (seqs 2..=5); 0 and 1 have aged out.
        let replay = s.retransmit(&Nack {
            ssrc: 0x11,
            seqs: vec![0, 3, 5],
        });
        assert_eq!(replay, vec![wires[3].clone(), wires[5].clone()]);
        assert_eq!(s.retransmits(), 2);
        // Wrong stream: nothing replayed.
        assert!(s
            .retransmit(&Nack {
                ssrc: 0x22,
                seqs: vec![3]
            })
            .is_empty());
    }

    #[test]
    fn receiver_nacks_gap_and_recovers_on_retransmit() {
        let base = Ticks::from_millis(10);
        let mut r = RtpReceiver::with_recovery(32, 1, base, 3);
        assert_eq!(r.push(&mk(0)).len(), 1);
        assert!(r.push(&mk(2)).is_empty(), "gap at 1");

        let poll = r.poll_nacks(Ticks::from_millis(1));
        let nack = poll.nack.expect("gap is due immediately");
        assert_eq!(nack.seqs, vec![1]);
        assert_eq!(nack.ssrc, 0xabcd);
        // Backoff: not due again until base elapses.
        assert!(r.poll_nacks(Ticks::from_millis(5)).nack.is_none());

        // Retransmit arrives: gap fills, counted as recovered.
        let out = r.push(&mk(1));
        let seqs: Vec<u16> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        let rep = r.report();
        assert_eq!((rep.recovered, rep.lost, rep.nacks_sent), (1, 0, 1));
    }

    #[test]
    fn reordered_original_is_not_a_recovery() {
        // The gap fills before any NACK went out: plain reordering.
        let mut r = RtpReceiver::with_recovery(32, 1, Ticks::from_millis(10), 3);
        r.push(&mk(0));
        r.push(&mk(2));
        let out = r.push(&mk(1));
        assert_eq!(out.len(), 2);
        assert_eq!(r.report().recovered, 0);
        assert_eq!(r.report().nacks_sent, 0);
    }

    #[test]
    fn duplicates_counted_never_as_recovered() {
        let mut r = RtpReceiver::with_recovery(32, 1, Ticks::from_millis(10), 3);
        r.push(&mk(0));
        r.push(&mk(2)); // gap at 1
        r.poll_nacks(Ticks::from_millis(1)); // NACK 1
        assert_eq!(r.push(&mk(1)).len(), 2, "retransmit fills the gap");
        // The original of seq 1 straggles in late, plus a dup of 2.
        assert!(r.push(&mk(1)).is_empty());
        assert!(r.push(&mk(2)).is_empty());
        let rep = r.report();
        assert_eq!(rep.recovered, 1, "one recovery, not three");
        assert_eq!(rep.duplicates, 2);
        assert_eq!(rep.received, 3);
        assert!((0.0..=1.0).contains(&rep.fraction_lost));
        assert_eq!(rep.fraction_lost, 0.0);
    }

    #[test]
    fn nack_backoff_doubles_and_budget_abandons() {
        let base = Ticks::from_millis(10);
        let mut r = RtpReceiver::with_recovery(32, 1, base, 2);
        r.push(&mk(0));
        r.push(&mk(2)); // gap at 1, never repaired
        r.push(&mk(3));

        // Attempt 1 at t=0ms; next due at 10ms.
        assert!(r.poll_nacks(Ticks::ZERO).nack.is_some());
        assert!(r.poll_nacks(Ticks::from_millis(9)).nack.is_none());
        // Attempt 2 at 10ms; next due 10 + 20 = 30ms.
        assert!(r.poll_nacks(Ticks::from_millis(10)).nack.is_some());
        assert!(r.poll_nacks(Ticks::from_millis(29)).nack.is_none());
        // Budget (2) spent: at 30ms the gap is abandoned and the
        // buffered tail releases.
        let poll = r.poll_nacks(Ticks::from_millis(30));
        assert!(poll.nack.is_none());
        let seqs: Vec<u16> = poll.released.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        let rep = r.report();
        assert_eq!((rep.lost, rep.recovered, rep.nacks_sent), (1, 0, 2));
        assert!((rep.fraction_lost - 0.25).abs() < 1e-9);
        assert!(
            r.poll_nacks(Ticks::from_secs(10)).nack.is_none(),
            "nothing left to repair"
        );
    }

    #[test]
    fn late_arrival_beats_abandonment() {
        let base = Ticks::from_millis(10);
        let mut r = RtpReceiver::with_recovery(32, 1, base, 1);
        r.push(&mk(0));
        r.push(&mk(2));
        assert!(r.poll_nacks(Ticks::ZERO).nack.is_some());
        // Budget spent but the gap is abandoned only at the *next* due
        // poll; the retransmit sneaks in first.
        let out = r.push(&mk(1));
        assert_eq!(out.len(), 2);
        assert_eq!(r.report().recovered, 1);
        assert_eq!(r.report().lost, 0);
    }

    #[test]
    fn poll_nacks_inert_without_recovery() {
        let mut r = RtpReceiver::new(8);
        r.push(&mk(0));
        r.push(&mk(5));
        let poll = r.poll_nacks(Ticks::from_millis(100));
        assert!(poll.nack.is_none() && poll.released.is_empty());
    }

    #[test]
    fn recovery_tracks_gaps_across_wraparound() {
        let mut r = RtpReceiver::with_recovery(64, 1, Ticks::from_millis(5), 3);
        let mut s = RtpSender::starting_at(0xabcd, 7, 65533);
        let wires: Vec<Vec<u8>> = (0..8).map(|i| s.wrap(i, false, &[i as u8])).collect();
        // Drop the packet whose wire seq is 0 (index 3).
        let mut released = Vec::new();
        for (i, w) in wires.iter().enumerate() {
            if i == 3 {
                continue;
            }
            released.extend(r.push(w));
        }
        let nack = r.poll_nacks(Ticks::ZERO).nack.expect("gap detected");
        assert_eq!(nack.seqs, vec![0], "wire seq of the wrapped gap");
        released.extend(r.push(&wires[3]));
        assert_eq!(released.len(), 8);
        assert_eq!(r.report().recovered, 1);
        assert_eq!(r.report().lost, 0);
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
