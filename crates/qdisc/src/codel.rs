//! CoDel-style active queue management.
//!
//! Tracks the sojourn time of packets at dequeue. When sojourn stays
//! above `target` for a full `interval`, the controller enters the
//! dropping state and emits congestion signals at increasing frequency
//! (the next signal `interval / sqrt(count)` after the previous one,
//! the classic CoDel control law). A sojourn below target resets the
//! controller. The *signal* is mark-or-drop agnostic: the queue marks
//! ECN-capable packets and drops the rest.

/// Default sojourn target: 5 ms.
pub const DEFAULT_TARGET_US: u64 = 5_000;

/// Default observation interval: 100 ms.
pub const DEFAULT_INTERVAL_US: u64 = 100_000;

/// Per-class CoDel controller state.
#[derive(Clone, Debug)]
pub struct CoDel {
    target_us: u64,
    interval_us: u64,
    /// Instant sojourn first exceeded target in the current episode.
    above_since: Option<u64>,
    /// Earliest instant the next signal may fire (valid once `count > 0`).
    next_signal_at: u64,
    /// Signals emitted in the current dropping episode.
    count: u32,
}

impl CoDel {
    /// A controller with the given target and interval (µs).
    pub fn new(target_us: u64, interval_us: u64) -> Self {
        assert!(
            target_us > 0 && interval_us > 0,
            "CoDel times must be positive"
        );
        CoDel {
            target_us,
            interval_us,
            above_since: None,
            next_signal_at: 0,
            count: 0,
        }
    }

    /// Observe a packet leaving the queue after `sojourn_us`; returns
    /// `true` when the packet should carry a congestion signal
    /// (ECN mark or drop).
    pub fn on_dequeue(&mut self, now_us: u64, sojourn_us: u64) -> bool {
        if sojourn_us < self.target_us {
            self.above_since = None;
            self.count = 0;
            return false;
        }
        let since = *self.above_since.get_or_insert(now_us);
        if now_us < since.saturating_add(self.interval_us) {
            // Above target, but not yet persistently.
            return false;
        }
        if self.count > 0 && now_us < self.next_signal_at {
            return false;
        }
        self.count += 1;
        // interval / sqrt(count), floored at 1 µs so the schedule
        // always advances.
        let gap = ((self.interval_us as f64 / (self.count as f64).sqrt()) as u64).max(1);
        self.next_signal_at = now_us + gap;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_target_never_signals() {
        let mut c = CoDel::new(5_000, 100_000);
        for t in (0..1_000_000).step_by(10_000) {
            assert!(!c.on_dequeue(t, 4_999));
        }
    }

    #[test]
    fn signals_only_after_persistent_excess() {
        let mut c = CoDel::new(5_000, 100_000);
        assert!(!c.on_dequeue(0, 10_000), "first excess starts the episode");
        assert!(!c.on_dequeue(50_000, 10_000), "still within the interval");
        assert!(c.on_dequeue(100_000, 10_000), "persistently above: signal");
    }

    #[test]
    fn dip_below_target_resets_episode() {
        let mut c = CoDel::new(5_000, 100_000);
        c.on_dequeue(0, 10_000);
        assert!(!c.on_dequeue(60_000, 1_000), "dip resets");
        assert!(!c.on_dequeue(100_000, 10_000), "episode restarts from here");
        assert!(c.on_dequeue(200_000, 10_000));
    }

    #[test]
    fn signal_frequency_increases_while_above() {
        let mut c = CoDel::new(5_000, 100_000);
        let mut signals = Vec::new();
        let mut t = 0;
        while t < 2_000_000 {
            if c.on_dequeue(t, 20_000) {
                signals.push(t);
            }
            t += 1_000;
        }
        assert!(signals.len() >= 10, "got {}", signals.len());
        let first_gap = signals[1] - signals[0];
        let last_gap = signals[signals.len() - 1] - signals[signals.len() - 2];
        assert!(
            last_gap < first_gap,
            "control law accelerates: {first_gap} -> {last_gap}"
        );
    }
}
