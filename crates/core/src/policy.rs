//! The policy database.
//!
//! "The inference engine serves as a policy database and encodes
//! policies for information transformations" (§5.2). A
//! [`PolicyRule`] pairs a condition — a `sempubsub` selector over the
//! observed state — with an [`AdaptationAction`]. The database is
//! consulted in priority order; all matching rules contribute, and the
//! inference engine combines them conservatively (minimum packet
//! budget, lowest modality).

use sempubsub::{AttrValue, Selector, SemError};
use std::collections::BTreeMap;

/// A pluggable adaptation strategy.
///
/// Maps the observed numeric state — `loss_pct`, `congestion_pct`,
/// `sir_db`, `cpu_load`, `page_faults`, … — to an
/// [`AdaptationDecision`](crate::inference::AdaptationDecision).
/// The §5.2 threshold engine
/// ([`InferenceEngine`](crate::inference::InferenceEngine)) is the
/// canonical implementor; the [`engines`](crate::engines) module adds
/// a fuzzy controller and a discrete Bayesian network behind the same
/// interface. Implementations must be deterministic pure functions of
/// `state` so sharded sessions stay bit-identical across worker
/// counts.
pub trait AdaptationPolicy: Send + Sync {
    /// Short stable identifier (`"threshold"`, `"fuzzy"`, `"bayes"`)
    /// used in logs, bench tables, and chaos failure messages.
    fn name(&self) -> &'static str;

    /// Decide adaptations for the observed numeric state.
    fn decide(&self, state: &BTreeMap<String, f64>) -> crate::inference::AdaptationDecision;
}

/// Boxed engines are engines too, so `Box<dyn AdaptationPolicy>` can
/// flow through APIs that take `impl AdaptationPolicy`.
impl<P: AdaptationPolicy + ?Sized> AdaptationPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn decide(&self, state: &BTreeMap<String, f64>) -> crate::inference::AdaptationDecision {
        (**self).decide(state)
    }
}

/// An adaptation a rule can demand.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationAction {
    /// Accept at most this many image packets.
    LimitPackets(u32),
    /// Force a modality ceiling (see [`crate::inference::ModalityChoice`]).
    CapModality(crate::inference::ModalityChoice),
    /// Scale incoming image resolution to this fraction of full.
    ScaleResolution(f64),
    /// Drop media entirely, keep only control traffic.
    Suspend,
}

/// A named, prioritized policy rule.
#[derive(Debug, Clone)]
pub struct PolicyRule {
    /// Rule name (for tracing decisions).
    pub name: String,
    /// Lower runs first; ties keep insertion order.
    pub priority: i32,
    /// Condition over state attributes.
    pub condition: Selector,
    /// Action when the condition holds.
    pub action: AdaptationAction,
}

/// The policy database.
#[derive(Debug, Clone, Default)]
pub struct PolicyDb {
    rules: Vec<PolicyRule>,
}

impl PolicyDb {
    /// Empty database.
    pub fn new() -> PolicyDb {
        PolicyDb::default()
    }

    /// Add a rule from selector source text.
    pub fn add_rule(
        &mut self,
        name: &str,
        priority: i32,
        condition: &str,
        action: AdaptationAction,
    ) -> Result<(), SemError> {
        self.rules.push(PolicyRule {
            name: name.to_string(),
            priority,
            condition: Selector::parse(condition)?,
            action,
        });
        self.rules.sort_by_key(|r| r.priority);
        Ok(())
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All rules whose condition holds for `state`, in priority order.
    /// Rules whose condition errors (malformed against this state
    /// shape) are skipped rather than failing the decision path.
    pub fn matching(&self, state: &BTreeMap<String, AttrValue>) -> Vec<&PolicyRule> {
        self.rules
            .iter()
            .filter(|r| r.condition.matches(state).unwrap_or(false))
            .collect()
    }

    /// The paper's page-fault policy (§6.1): the number of image
    /// packets falls in powers of two from 16 to 1 as the host's page
    /// faults rise from 30 to 100.
    pub fn paper_page_fault_policy() -> PolicyDb {
        let mut db = PolicyDb::new();
        let rules: &[(&str, &str, u32)] = &[
            ("pf-low", "page_faults < 44", 16),
            ("pf-mid", "page_faults >= 44 and page_faults < 58", 8),
            ("pf-high", "page_faults >= 58 and page_faults < 72", 4),
            ("pf-higher", "page_faults >= 72 and page_faults < 86", 2),
            ("pf-extreme", "page_faults >= 86", 1),
        ];
        for (i, (name, cond, packets)) in rules.iter().enumerate() {
            db.add_rule(
                name,
                i as i32,
                cond,
                AdaptationAction::LimitPackets(*packets),
            )
            .expect("static rule parses");
        }
        db
    }

    /// The paper's CPU-load policy (§6.2): packets fall from 16 to 0 as
    /// CPU load rises from 30 to 100%.
    pub fn paper_cpu_load_policy() -> PolicyDb {
        let mut db = PolicyDb::new();
        let rules: &[(&str, &str, u32)] = &[
            ("cpu-low", "cpu_load < 44", 16),
            ("cpu-mid", "cpu_load >= 44 and cpu_load < 58", 8),
            ("cpu-high", "cpu_load >= 58 and cpu_load < 72", 4),
            ("cpu-higher", "cpu_load >= 72 and cpu_load < 86", 2),
            ("cpu-extreme", "cpu_load >= 86 and cpu_load < 97", 1),
            ("cpu-saturated", "cpu_load >= 97", 0),
        ];
        for (i, (name, cond, packets)) in rules.iter().enumerate() {
            db.add_rule(
                name,
                i as i32,
                cond,
                AdaptationAction::LimitPackets(*packets),
            )
            .expect("static rule parses");
        }
        // At saturation the viewer also suspends media.
        db.add_rule(
            "cpu-suspend",
            100,
            "cpu_load >= 97",
            AdaptationAction::Suspend,
        )
        .expect("static rule parses");
        db
    }

    /// Low-bandwidth modality policy: below 64 kb/s fall back to text,
    /// below 512 kb/s to sketch.
    pub fn bandwidth_modality_policy() -> PolicyDb {
        let mut db = PolicyDb::new();
        db.add_rule(
            "bw-text",
            0,
            "bandwidth_bps < 64000",
            AdaptationAction::CapModality(crate::inference::ModalityChoice::Text),
        )
        .expect("static rule parses");
        db.add_rule(
            "bw-sketch",
            1,
            "bandwidth_bps >= 64000 and bandwidth_bps < 512000",
            AdaptationAction::CapModality(crate::inference::ModalityChoice::Sketch),
        )
        .expect("static rule parses");
        db
    }

    /// Latency/jitter policy: high one-way latency halves the packet
    /// budget; pathological latency drops to text.
    pub fn latency_policy() -> PolicyDb {
        let mut db = PolicyDb::new();
        db.add_rule(
            "lat-high",
            0,
            "latency_us >= 5000 and latency_us < 50000",
            AdaptationAction::LimitPackets(8),
        )
        .expect("static rule parses");
        db.add_rule(
            "lat-extreme",
            1,
            "latency_us >= 50000",
            AdaptationAction::CapModality(crate::inference::ModalityChoice::Text),
        )
        .expect("static rule parses");
        db
    }

    /// Measured-loss policy: reacts to the RTP receiver-report loss
    /// percentage (`loss_pct`, 0–100). Mild loss halves the packet
    /// budget; bursty wireless-grade loss falls back to sketch;
    /// severe loss drops to text so only control traffic competes
    /// with retransmissions.
    pub fn loss_policy() -> PolicyDb {
        let mut db = PolicyDb::new();
        db.add_rule(
            "loss-mild",
            0,
            "loss_pct >= 2 and loss_pct < 10",
            AdaptationAction::LimitPackets(8),
        )
        .expect("static rule parses");
        db.add_rule(
            "loss-heavy",
            1,
            "loss_pct >= 10 and loss_pct < 30",
            AdaptationAction::CapModality(crate::inference::ModalityChoice::Sketch),
        )
        .expect("static rule parses");
        db.add_rule(
            "loss-severe",
            2,
            "loss_pct >= 30",
            AdaptationAction::CapModality(crate::inference::ModalityChoice::Text),
        )
        .expect("static rule parses");
        db
    }

    /// ECN-congestion policy: reacts to the echoed Congestion-
    /// Experienced fraction of the measured RTP stream
    /// (`congestion_pct`, 0–100), the pre-loss twin of
    /// [`PolicyDb::loss_policy`]. A link's AQM marks ECN-capable
    /// traffic where it would drop anything else, so these bands fire
    /// while `loss_pct` is still zero: light marking trims the packet
    /// budget, sustained marking falls back to sketch, saturation
    /// drops to text.
    pub fn congestion_policy() -> PolicyDb {
        let mut db = PolicyDb::new();
        db.add_rule(
            "ecn-mild",
            0,
            "congestion_pct >= 5 and congestion_pct < 20",
            AdaptationAction::LimitPackets(8),
        )
        .expect("static rule parses");
        db.add_rule(
            "ecn-heavy",
            1,
            "congestion_pct >= 20 and congestion_pct < 60",
            AdaptationAction::CapModality(crate::inference::ModalityChoice::Sketch),
        )
        .expect("static rule parses");
        db.add_rule(
            "ecn-saturated",
            2,
            "congestion_pct >= 60",
            AdaptationAction::CapModality(crate::inference::ModalityChoice::Text),
        )
        .expect("static rule parses");
        db
    }

    /// Merge another database into this one (rule lists concatenate,
    /// priorities interleave).
    pub fn merge(&mut self, other: PolicyDb) {
        self.rules.extend(other.rules);
        self.rules.sort_by_key(|r| r.priority);
    }
}

/// Render a numeric state map as selector-evaluable attributes.
pub fn state_to_attrs(state: &BTreeMap<String, f64>) -> BTreeMap<String, AttrValue> {
    state
        .iter()
        .map(|(k, v)| (k.clone(), AttrValue::Float(*v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::ModalityChoice;

    fn attrs(pairs: &[(&str, f64)]) -> BTreeMap<String, AttrValue> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), AttrValue::Float(*v)))
            .collect()
    }

    #[test]
    fn page_fault_policy_bands() {
        let db = PolicyDb::paper_page_fault_policy();
        let expect = [
            (30.0, 16u32),
            (43.9, 16),
            (44.0, 8),
            (57.0, 8),
            (60.0, 4),
            (80.0, 2),
            (86.0, 1),
            (100.0, 1),
        ];
        for (faults, packets) in expect {
            let m = db.matching(&attrs(&[("page_faults", faults)]));
            assert_eq!(m.len(), 1, "exactly one band at {faults}");
            assert_eq!(
                m[0].action,
                AdaptationAction::LimitPackets(packets),
                "at {faults}"
            );
        }
    }

    #[test]
    fn cpu_policy_reaches_zero_and_suspends() {
        let db = PolicyDb::paper_cpu_load_policy();
        let m = db.matching(&attrs(&[("cpu_load", 100.0)]));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].action, AdaptationAction::LimitPackets(0));
        assert_eq!(m[1].action, AdaptationAction::Suspend);
    }

    #[test]
    fn priority_orders_matches() {
        let mut db = PolicyDb::new();
        db.add_rule("late", 10, "true", AdaptationAction::LimitPackets(1))
            .unwrap();
        db.add_rule("early", -5, "true", AdaptationAction::LimitPackets(2))
            .unwrap();
        let m = db.matching(&attrs(&[]));
        assert_eq!(m[0].name, "early");
        assert_eq!(m[1].name, "late");
    }

    #[test]
    fn missing_attribute_rule_does_not_match() {
        let db = PolicyDb::paper_page_fault_policy();
        // No page_faults attribute at all: no band matches.
        assert!(db.matching(&attrs(&[("cpu_load", 50.0)])).is_empty());
    }

    #[test]
    fn bad_selector_rejected_at_add() {
        let mut db = PolicyDb::new();
        assert!(db
            .add_rule("bad", 0, "cpu_load >=", AdaptationAction::Suspend)
            .is_err());
        assert!(db.is_empty());
    }

    #[test]
    fn bandwidth_policy_caps_modality() {
        let db = PolicyDb::bandwidth_modality_policy();
        let m = db.matching(&attrs(&[("bandwidth_bps", 32_000.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Text)
        );
        let m = db.matching(&attrs(&[("bandwidth_bps", 100_000.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Sketch)
        );
        assert!(db.matching(&attrs(&[("bandwidth_bps", 1e7)])).is_empty());
    }

    #[test]
    fn loss_policy_bands() {
        let db = PolicyDb::loss_policy();
        assert!(db.matching(&attrs(&[("loss_pct", 0.5)])).is_empty());
        let m = db.matching(&attrs(&[("loss_pct", 5.0)]));
        assert_eq!(m[0].action, AdaptationAction::LimitPackets(8));
        let m = db.matching(&attrs(&[("loss_pct", 15.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Sketch)
        );
        let m = db.matching(&attrs(&[("loss_pct", 45.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Text)
        );
    }

    #[test]
    fn congestion_policy_bands() {
        let db = PolicyDb::congestion_policy();
        assert!(db.matching(&attrs(&[("congestion_pct", 1.0)])).is_empty());
        let m = db.matching(&attrs(&[("congestion_pct", 8.0)]));
        assert_eq!(m[0].action, AdaptationAction::LimitPackets(8));
        let m = db.matching(&attrs(&[("congestion_pct", 30.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Sketch)
        );
        let m = db.matching(&attrs(&[("congestion_pct", 75.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Text)
        );
        // Congestion bands key on the ECN echo only; loss alone is the
        // loss policy's business.
        assert!(db.matching(&attrs(&[("loss_pct", 50.0)])).is_empty());
    }

    #[test]
    fn merge_interleaves() {
        let mut a = PolicyDb::paper_page_fault_policy();
        let before = a.len();
        a.merge(PolicyDb::bandwidth_modality_policy());
        assert_eq!(a.len(), before + 2);
    }
}
