//! Hysteresis filtering of adaptation decisions.
//!
//! The paper's inference engine reacts to every observed state. Raw
//! band policies (Fig 6/7) flip the packet budget the instant a metric
//! crosses a threshold, so a host hovering at a band edge would make
//! the viewer oscillate between quality levels — visibly worse for
//! collaboration than either steady level. [`HysteresisFilter`]
//! implements the standard asymmetric rule used by adaptive streaming
//! systems: **degrade immediately** (protecting the QoS contract), but
//! **upgrade only after the engine has proposed a better level for
//! `upgrade_patience` consecutive decisions**.
//!
//! The unit tests quantify the flip-flop suppression on a noisy load
//! trace; `bench`'s `ablations` program times the filter.

use crate::inference::AdaptationDecision;

/// Asymmetric decision smoother.
#[derive(Debug, Clone)]
pub struct HysteresisFilter {
    /// Consecutive better proposals required before upgrading.
    pub upgrade_patience: u32,
    /// The decision currently in force.
    current: Option<AdaptationDecision>,
    /// Consecutive proposals strictly better than `current`.
    better_streak: u32,
    /// Total decisions applied (for diagnostics).
    pub applied: u64,
    /// Upgrades suppressed by patience.
    pub suppressed_upgrades: u64,
}

impl HysteresisFilter {
    /// A filter requiring `upgrade_patience` consecutive improvements.
    pub fn new(upgrade_patience: u32) -> HysteresisFilter {
        HysteresisFilter {
            upgrade_patience,
            current: None,
            better_streak: 0,
            applied: 0,
            suppressed_upgrades: 0,
        }
    }

    /// The decision currently in force, if any.
    pub fn current(&self) -> Option<&AdaptationDecision> {
        self.current.as_ref()
    }

    /// Feed the engine's raw decision; returns the decision to apply.
    pub fn filter(&mut self, proposed: AdaptationDecision) -> AdaptationDecision {
        self.applied += 1;
        let Some(current) = &self.current else {
            self.current = Some(proposed.clone());
            return proposed;
        };
        use std::cmp::Ordering;
        let cmp = rank(&proposed).cmp(&rank(current));
        match cmp {
            Ordering::Less => {
                // Worse conditions: degrade immediately.
                self.better_streak = 0;
                self.current = Some(proposed.clone());
                proposed
            }
            Ordering::Equal => {
                self.better_streak = 0;
                // Same level; adopt the fresh rule trace/violations.
                self.current = Some(proposed.clone());
                proposed
            }
            Ordering::Greater => {
                self.better_streak += 1;
                if self.better_streak >= self.upgrade_patience {
                    self.better_streak = 0;
                    self.current = Some(proposed.clone());
                    proposed
                } else {
                    self.suppressed_upgrades += 1;
                    self.current.clone().expect("current exists")
                }
            }
        }
    }
}

/// Total quality rank of a decision: packets dominate, modality breaks
/// ties, resolution last.
fn rank(d: &AdaptationDecision) -> (u32, u8, u32) {
    let modality = match d.modality {
        crate::inference::ModalityChoice::None => 0,
        crate::inference::ModalityChoice::Text => 1,
        crate::inference::ModalityChoice::Sketch => 2,
        crate::inference::ModalityChoice::FullImage => 3,
    };
    (d.max_packets, modality, (d.resolution * 1000.0) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::QosContract;
    use crate::inference::InferenceEngine;
    use crate::policy::{AdaptationPolicy, PolicyDb};
    use std::collections::BTreeMap;

    fn d(packets: u32) -> AdaptationDecision {
        AdaptationDecision::unconstrained(packets)
    }

    /// Quality-level changes over a decision sequence: the oscillation
    /// the filter is meant to reduce.
    fn count_flips(decisions: &[AdaptationDecision]) -> usize {
        decisions
            .windows(2)
            .filter(|w| rank(&w[0]) != rank(&w[1]))
            .count()
    }

    #[test]
    fn degrade_is_immediate() {
        let mut f = HysteresisFilter::new(3);
        assert_eq!(f.filter(d(16)).max_packets, 16);
        assert_eq!(f.filter(d(2)).max_packets, 2, "immediate degrade");
    }

    #[test]
    fn upgrade_needs_patience() {
        let mut f = HysteresisFilter::new(3);
        f.filter(d(2));
        assert_eq!(f.filter(d(16)).max_packets, 2, "1st better: held");
        assert_eq!(f.filter(d(16)).max_packets, 2, "2nd better: held");
        assert_eq!(f.filter(d(16)).max_packets, 16, "3rd better: upgraded");
        assert_eq!(f.suppressed_upgrades, 2);
    }

    #[test]
    fn streak_resets_on_relapse() {
        let mut f = HysteresisFilter::new(2);
        f.filter(d(2));
        assert_eq!(f.filter(d(16)).max_packets, 2);
        assert_eq!(f.filter(d(2)).max_packets, 2, "relapse");
        assert_eq!(f.filter(d(16)).max_packets, 2, "streak restarted");
        assert_eq!(f.filter(d(16)).max_packets, 16);
    }

    #[test]
    fn filter_reduces_flips_on_noisy_boundary_trace() {
        // A host hovering around the 58-fault band edge.
        let engine =
            InferenceEngine::new(PolicyDb::paper_page_fault_policy(), QosContract::default());
        let noisy: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 56.0 } else { 60.0 })
            .collect();
        let raw: Vec<AdaptationDecision> = noisy
            .iter()
            .map(|&f| {
                let mut s = BTreeMap::new();
                s.insert("page_faults".to_string(), f);
                engine.decide(&s)
            })
            .collect();
        let mut filter = HysteresisFilter::new(4);
        let filtered: Vec<AdaptationDecision> =
            raw.iter().cloned().map(|d| filter.filter(d)).collect();
        let raw_flips = count_flips(&raw);
        let filtered_flips = count_flips(&filtered);
        assert!(raw_flips > 30, "boundary trace oscillates: {raw_flips}");
        assert!(
            filtered_flips <= 1,
            "hysteresis pins the level: {filtered_flips}"
        );
        // And the held level is the conservative one.
        assert!(filtered.iter().skip(1).all(|d| d.max_packets == 4));
    }

    #[test]
    fn filter_suppresses_loss_driven_oscillation() {
        // Measured RTP loss hovering around the 10% mild/heavy band
        // edge (wireless burst loss coming and going).
        let engine = InferenceEngine::new(PolicyDb::loss_policy(), QosContract::default());
        let raw: Vec<AdaptationDecision> = (0..40)
            .map(|i| {
                let mut s = BTreeMap::new();
                s.insert("loss_pct".to_string(), if i % 2 == 0 { 8.0 } else { 12.0 });
                engine.decide(&s)
            })
            .collect();
        let mut filter = HysteresisFilter::new(4);
        let filtered: Vec<AdaptationDecision> =
            raw.iter().cloned().map(|d| filter.filter(d)).collect();
        let raw_flips = count_flips(&raw);
        assert!(raw_flips > 30, "loss boundary oscillates: {raw_flips}");
        assert!(
            count_flips(&filtered) <= 1,
            "hysteresis pins the level under loss noise"
        );
        // The held level is the conservative mild-loss budget.
        assert!(filtered.iter().skip(1).all(|d| d.max_packets == 8));
    }

    #[test]
    fn zero_patience_tracks_raw() {
        let mut f = HysteresisFilter::new(0);
        f.filter(d(2));
        assert_eq!(f.filter(d(16)).max_packets, 16);
    }
}
