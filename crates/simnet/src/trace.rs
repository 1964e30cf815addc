//! Cumulative network statistics, used by tests and benches to assert
//! on traffic behaviour without instrumenting application code.
//!
//! Every quantity is counted once, in the atomic cells behind a
//! [`NetStatsHandle`]: the network bumps them as it runs (deliveries
//! and delivered bytes once per drain of its event queue, not once per
//! copy), any thread holding a clone reads them live, and
//! [`crate::Network::stats`]
//! copies them into a plain [`NetStats`] (cheap to clone and compare —
//! the bit-identity suites diff whole structs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters accumulated by a [`crate::Network`] over its lifetime.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to `send` (multicast counts once per call).
    pub sent: u64,
    /// Copies delivered into a socket inbox.
    pub delivered: u64,
    /// Copies dropped by the loss model.
    pub dropped: u64,
    /// Wire bytes offered (payload + header overhead).
    pub bytes_sent: u64,
    /// Wire bytes delivered.
    pub bytes_delivered: u64,
    /// Copies duplicated by a fault model (each adds one extra
    /// delivery on top of the original).
    pub duplicated: u64,
    /// Copies tail-dropped by a bounded per-link FIFO (also counted in
    /// `dropped`).
    pub fifo_dropped: u64,
    /// Copies dropped by a link's shaping tree — queue tail drops plus
    /// CoDel drops of non-ECT packets (also counted in `dropped`).
    pub qdisc_dropped: u64,
    /// Copies ECN-marked by a link's AQM and still delivered.
    pub ecn_marked: u64,
}

impl NetStats {
    /// Fraction of copies lost, in `[0, 1]`; zero when nothing was routed.
    pub fn loss_rate(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// The quantities a [`NetStatsHandle`] counts, one cell each — the
/// fields of [`NetStats`].
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    Sent,
    Delivered,
    Dropped,
    BytesSent,
    BytesDelivered,
    Duplicated,
    FifoDropped,
    QdiscDropped,
    EcnMarked,
}

/// A lock-free, shareable view of a network's counters. Clones share
/// the same cells; reads are `Relaxed` loads, so any thread can poll
/// live throughput while the (single-threaded) simulation keeps
/// running — no lock, no snapshot copy. Delivery counts land when a
/// run call has drained its events, so a poll from another thread in
/// the middle of one sees those of the calls before it.
#[derive(Clone, Debug, Default)]
pub struct NetStatsHandle {
    cells: Arc<[AtomicU64; 9]>,
}

impl NetStatsHandle {
    /// A fresh handle with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies delivered into a socket inbox so far.
    pub fn delivered(&self) -> u64 {
        self.get(Counter::Delivered)
    }

    /// Copies dropped (loss model, FIFO caps, qdisc) so far.
    pub fn dropped(&self) -> u64 {
        self.get(Counter::Dropped)
    }

    /// Wire bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.get(Counter::BytesDelivered)
    }

    /// Every counter, copied out.
    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            sent: self.get(Counter::Sent),
            delivered: self.get(Counter::Delivered),
            dropped: self.get(Counter::Dropped),
            bytes_sent: self.get(Counter::BytesSent),
            bytes_delivered: self.get(Counter::BytesDelivered),
            duplicated: self.get(Counter::Duplicated),
            fifo_dropped: self.get(Counter::FifoDropped),
            qdisc_dropped: self.get(Counter::QdiscDropped),
            ecn_marked: self.get(Counter::EcnMarked),
        }
    }

    fn get(&self, counter: Counter) -> u64 {
        self.cells[counter as usize].load(Ordering::Relaxed)
    }

    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.cells[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_clones_share_cells() {
        let h = NetStatsHandle::new();
        let h2 = h.clone();
        h.add(Counter::Delivered, 3);
        h.add(Counter::BytesDelivered, 300);
        h.add(Counter::Dropped, 1);
        h.add(Counter::EcnMarked, 2);
        assert_eq!(h2.delivered(), 3);
        assert_eq!(h2.bytes_delivered(), 300);
        assert_eq!(h2.dropped(), 1);
        let snap = h2.snapshot();
        assert_eq!((snap.delivered, snap.dropped, snap.ecn_marked), (3, 1, 2));
        assert_eq!(snap.bytes_delivered, 300);
    }

    #[test]
    fn loss_rate_handles_zero() {
        assert_eq!(NetStats::default().loss_rate(), 0.0);
    }

    #[test]
    fn loss_rate_computes_fraction() {
        let s = NetStats {
            delivered: 75,
            dropped: 25,
            ..Default::default()
        };
        assert!((s.loss_rate() - 0.25).abs() < 1e-12);
    }
}
