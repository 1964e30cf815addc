//! The inference engine.
//!
//! "The inference engine interacts with the policy database to
//! determine the guarantee. Subsequently, the inference engine
//! interacts with the network element or a device with an embedded
//! agent to determine the current capability. It then links this
//! information to determine the amount of information that can be
//! processed on the multicast data channel" (§5.2).
//!
//! [`InferenceEngine::decide`] fuses the observed system state with
//! the policy database and the client's QoS contract into an
//! [`AdaptationDecision`]: how many image packets to accept, which
//! modality ceiling applies, and what resolution scale to use.

use crate::contract::{QosContract, Violation};
use crate::policy::{AdaptationAction, AdaptationPolicy, PolicyDb};
use crate::state::StateVector;
use sempubsub::EvalStack;
use std::fmt;
use std::sync::{Arc, LazyLock};

/// Modality ladder, lowest fidelity first. Mirrors
/// `wireless::Modality` but lives here because wired clients use it
/// too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModalityChoice {
    /// Nothing (suspended).
    None,
    /// Text description only.
    Text,
    /// Text plus sketch.
    Sketch,
    /// Full progressive image.
    FullImage,
}

/// A table of rule names by position — what a decision's
/// [`FiredRules`] indexes. Each engine builds its table once (the
/// threshold engine's is its policy database's rule list) and shares it
/// with every decision it makes by `Arc`.
pub(crate) trait RuleTable {
    /// The name of the rule at `at`.
    fn rule_name(&self, at: usize) -> &str;
}

impl RuleTable for Vec<String> {
    fn rule_name(&self, at: usize) -> &str {
        &self[at]
    }
}

/// The rules that fired in one decision: positions in the deciding
/// engine's rule table, held as a bit set beside a shared handle to the
/// table.
///
/// It reads as the list of names it stands for — [`FiredRules::iter`]
/// yields them as `&str` in table order, `Debug` prints exactly what a
/// `Vec<String>` of them prints, and equality compares the names — and
/// cloning it allocates nothing.
#[derive(Clone)]
pub struct FiredRules {
    table: Arc<dyn RuleTable>,
    fired: u64,
}

/// The table of an engine without rules.
static NO_RULES: LazyLock<Arc<Vec<String>>> = LazyLock::new(Arc::default);

impl FiredRules {
    /// Rules one table can hold: a policy database refuses the rule
    /// past this many.
    pub const MAX_RULES: usize = u64::BITS as usize;

    /// The rules of `table` at the set bits of `fired`.
    pub(crate) fn new(table: Arc<dyn RuleTable>, fired: u64) -> FiredRules {
        FiredRules { table, fired }
    }

    /// The names of the fired rules, in table order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let mut left = self.fired;
        std::iter::from_fn(move || {
            let at = (left != 0).then(|| left.trailing_zeros() as usize)?;
            left &= left - 1;
            Some(self.table.rule_name(at))
        })
    }

    /// Number of fired rules.
    pub fn len(&self) -> usize {
        self.fired.count_ones() as usize
    }

    /// Whether no rule fired.
    pub fn is_empty(&self) -> bool {
        self.fired == 0
    }

    /// Whether the rule called `name` fired.
    pub fn contains(&self, name: &str) -> bool {
        self.iter().any(|n| n == name)
    }
}

impl Default for FiredRules {
    fn default() -> FiredRules {
        FiredRules::new(Arc::clone(&NO_RULES) as Arc<dyn RuleTable>, 0)
    }
}

impl fmt::Debug for FiredRules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for FiredRules {
    fn eq(&self, other: &FiredRules) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The outcome of one inference pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationDecision {
    /// Maximum image packets to accept (the Figure 6/7 quantity).
    pub max_packets: u32,
    /// Modality ceiling.
    pub modality: ModalityChoice,
    /// Resolution scale in `(0, 1]`.
    pub resolution: f64,
    /// Names of the rules that fired, in priority order.
    pub fired_rules: FiredRules,
    /// Contract violations observed in this state.
    pub violations: Vec<Violation>,
}

impl AdaptationDecision {
    /// The unconstrained decision (all packets, full modality).
    pub fn unconstrained(max_packets: u32) -> AdaptationDecision {
        AdaptationDecision {
            max_packets,
            modality: ModalityChoice::FullImage,
            resolution: 1.0,
            fired_rules: FiredRules::default(),
            violations: Vec::new(),
        }
    }
}

/// The inference engine: policy database + QoS contract.
#[derive(Debug, Clone, Default)]
pub struct InferenceEngine {
    /// The policy database.
    pub policies: PolicyDb,
    /// The client's QoS contract.
    pub contract: QosContract,
    /// Packet budget when no rule constrains it.
    pub default_packets: u32,
}

impl InferenceEngine {
    /// An engine over the given policies and contract.
    pub fn new(policies: PolicyDb, contract: QosContract) -> InferenceEngine {
        InferenceEngine {
            policies,
            contract,
            default_packets: 16,
        }
    }
}

/// The threshold engine is the canonical [`AdaptationPolicy`].
///
/// All matching rules contribute; conflicting demands combine
/// conservatively (minimum packets, lowest modality ceiling, smallest
/// resolution). `Suspend` forces zero packets and
/// [`ModalityChoice::None`].
impl AdaptationPolicy for InferenceEngine {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn decide_state(&self, state: &StateVector, stack: &mut EvalStack) -> AdaptationDecision {
        let mut decision = AdaptationDecision::unconstrained(self.default_packets);
        decision.violations = self.contract.check(state);
        let mut fired = 0u64;
        for (at, rule) in self.policies.matching(state, stack) {
            fired |= 1 << at;
            match &rule.action {
                AdaptationAction::LimitPackets(n) => {
                    decision.max_packets = decision.max_packets.min(*n);
                }
                AdaptationAction::CapModality(m) => {
                    decision.modality = decision.modality.min(*m);
                }
                AdaptationAction::ScaleResolution(f) => {
                    decision.resolution = decision.resolution.min(f.clamp(0.0, 1.0));
                }
                AdaptationAction::Suspend => {
                    decision.max_packets = 0;
                    decision.modality = ModalityChoice::None;
                }
            }
        }
        decision.fired_rules = FiredRules::new(self.policies.table(), fired);
        if decision.max_packets == 0 && decision.modality > ModalityChoice::Text {
            // Zero image packets still permits the text description: the
            // §2 scenario where user B reads the image's text metadata.
            decision.modality = ModalityChoice::Text;
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Constraint;
    use crate::policy::PolicyDb;
    use std::collections::BTreeMap;

    fn state(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn engine() -> InferenceEngine {
        let mut db = PolicyDb::paper_page_fault_policy();
        db.merge(PolicyDb::bandwidth_modality_policy());
        InferenceEngine::new(
            db,
            QosContract::new("c").with(Constraint::at_most("page_faults", 90.0)),
        )
    }

    #[test]
    fn page_fault_sweep_monotone_packets() {
        let e = engine();
        let mut last = u32::MAX;
        for faults in [30.0, 45.0, 60.0, 75.0, 90.0, 100.0] {
            let d = e.decide(&state(&[("page_faults", faults)]));
            assert!(d.max_packets <= last, "monotone at {faults}");
            last = d.max_packets;
        }
        assert_eq!(last, 1);
    }

    #[test]
    fn conflicting_rules_take_minimum() {
        let mut db = PolicyDb::new();
        db.add_rule("a", 0, "true", AdaptationAction::LimitPackets(8))
            .unwrap();
        db.add_rule("b", 1, "true", AdaptationAction::LimitPackets(4))
            .unwrap();
        let e = InferenceEngine::new(db, QosContract::default());
        let d = e.decide(&state(&[]));
        assert_eq!(d.max_packets, 4);
        assert_eq!(d.fired_rules.iter().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn suspend_forces_text_only() {
        let e = InferenceEngine::new(PolicyDb::paper_cpu_load_policy(), QosContract::default());
        let d = e.decide(&state(&[("cpu_load", 100.0)]));
        assert_eq!(d.max_packets, 0);
        assert_eq!(d.modality, ModalityChoice::None);
    }

    #[test]
    fn zero_packets_without_suspend_keeps_text() {
        let mut db = PolicyDb::new();
        db.add_rule("z", 0, "true", AdaptationAction::LimitPackets(0))
            .unwrap();
        let e = InferenceEngine::new(db, QosContract::default());
        let d = e.decide(&state(&[]));
        assert_eq!(d.modality, ModalityChoice::Text);
    }

    #[test]
    fn contract_violations_reported() {
        let e = engine();
        let d = e.decide(&state(&[("page_faults", 95.0)]));
        assert_eq!(d.violations.len(), 1);
        assert_eq!(d.violations[0].observed, Some(95.0));
    }

    #[test]
    fn bandwidth_caps_modality_alongside_packets() {
        let e = engine();
        let d = e.decide(&state(&[
            ("page_faults", 30.0),
            ("bandwidth_bps", 32_000.0),
        ]));
        assert_eq!(d.max_packets, 16, "packets unconstrained");
        assert_eq!(d.modality, ModalityChoice::Text, "but modality capped");
    }

    #[test]
    fn resolution_scaling_combines() {
        let mut db = PolicyDb::new();
        db.add_rule("r1", 0, "true", AdaptationAction::ScaleResolution(0.5))
            .unwrap();
        db.add_rule("r2", 1, "true", AdaptationAction::ScaleResolution(0.8))
            .unwrap();
        let e = InferenceEngine::new(db, QosContract::default());
        assert_eq!(e.decide(&state(&[])).resolution, 0.5);
    }

    /// The conservative-merge rule ("minimum packets, lowest
    /// modality") leans on `ModalityChoice`'s derived `Ord`, which in
    /// turn leans on variant declaration order. Pin the full ladder so
    /// a reorder can't silently flip merges.
    #[test]
    fn modality_ladder_is_none_text_sketch_fullimage() {
        use ModalityChoice::*;
        assert!(None < Text);
        assert!(Text < Sketch);
        assert!(Sketch < FullImage);
        let mut ladder = [FullImage, None, Sketch, Text];
        ladder.sort();
        assert_eq!(ladder, [None, Text, Sketch, FullImage]);
        assert_eq!(FullImage.min(Sketch), Sketch);
        assert_eq!(Text.min(None), None);
    }

    /// Conflicting modality caps must merge to the lowest rung, never
    /// the highest or the latest-firing rule.
    #[test]
    fn conflicting_modality_caps_take_lowest() {
        let mut db = PolicyDb::new();
        db.add_rule(
            "cap-sketch",
            0,
            "true",
            AdaptationAction::CapModality(ModalityChoice::Sketch),
        )
        .unwrap();
        db.add_rule(
            "cap-text",
            1,
            "true",
            AdaptationAction::CapModality(ModalityChoice::Text),
        )
        .unwrap();
        db.add_rule(
            "cap-full",
            2,
            "true",
            AdaptationAction::CapModality(ModalityChoice::FullImage),
        )
        .unwrap();
        let e = InferenceEngine::new(db, QosContract::default());
        let d = e.decide(&state(&[]));
        assert_eq!(d.modality, ModalityChoice::Text, "lowest cap wins");
        assert_eq!(d.max_packets, 16, "packets untouched by modality caps");
        assert_eq!(
            d.fired_rules.iter().collect::<Vec<_>>(),
            ["cap-sketch", "cap-text", "cap-full"]
        );
    }

    /// Trait-boxed dispatch goes through the same inherent method.
    #[test]
    fn trait_object_decides_identically() {
        use crate::policy::AdaptationPolicy;
        let e = engine();
        let boxed: Box<dyn AdaptationPolicy> = Box::new(engine());
        assert_eq!(boxed.name(), "threshold");
        for faults in [10.0, 44.0, 58.0, 86.0, 97.0] {
            let s = state(&[("page_faults", faults)]);
            assert_eq!(e.decide(&s), boxed.decide(&s), "at {faults}");
        }
    }

    #[test]
    fn empty_engine_is_unconstrained() {
        let e = InferenceEngine::default();
        let d = e.decide(&state(&[("anything", 1.0)]));
        assert_eq!(d.max_packets, 0, "default default_packets is 0 for Default");
        let e = InferenceEngine::new(PolicyDb::new(), QosContract::default());
        let d = e.decide(&state(&[]));
        assert_eq!(d.max_packets, 16);
        assert_eq!(d.modality, ModalityChoice::FullImage);
    }
}
