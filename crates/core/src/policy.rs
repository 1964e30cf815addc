//! The policy database.
//!
//! "The inference engine serves as a policy database and encodes
//! policies for information transformations" (§5.2). A rule pairs a
//! condition — a `sempubsub` selector over the observed [`Metric`]s —
//! with an [`AdaptationAction`]. The database is
//! consulted in priority order; all matching rules contribute, and the
//! inference engine combines them conservatively (minimum packet
//! budget, lowest modality).

use crate::inference::{AdaptationDecision, FiredRules, RuleTable};
use crate::state::{Metric, StateVector};
use sempubsub::{
    AttrSource, AttrValue, CompiledSelector, EvalStack, SelectorStore, SemError, Symbol,
};
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

/// A pluggable adaptation strategy.
///
/// Maps the observed state — `loss_pct`, `congestion_pct`, `sir_db`,
/// `cpu_load`, `page_faults`, … ([`Metric`]) — to an
/// [`AdaptationDecision`]. The §5.2 threshold engine
/// ([`InferenceEngine`](crate::inference::InferenceEngine)) is the
/// canonical implementor; the [`engines`](crate::engines) module adds
/// a fuzzy controller and a discrete Bayesian network behind the same
/// interface. Implementations must be deterministic pure functions of
/// the state, so a seeded session replays bit-identically.
///
/// The one required method reads a [`StateVector`] and evaluates
/// whatever selectors it runs on an [`EvalStack`] the caller keeps
/// between calls, so a session's adaptation pass decides without
/// allocating anything the decision does not carry. [`Self::decide`]
/// takes the name-keyed map the vector replaces.
pub trait AdaptationPolicy {
    /// Short stable identifier (`"threshold"`, `"fuzzy"`, `"bayes"`)
    /// used in logs, bench tables, and chaos failure messages.
    fn name(&self) -> &'static str;

    /// Decide adaptations for the observed `state`, evaluating on
    /// `stack`.
    fn decide_state(&self, state: &StateVector, stack: &mut EvalStack) -> AdaptationDecision;

    /// Decide adaptations for a name-keyed state map: its metrics as a
    /// [`StateVector`] (names outside the vocabulary dropped), on a
    /// fresh stack.
    fn decide(&self, state: &BTreeMap<String, f64>) -> AdaptationDecision {
        self.decide_state(&StateVector::from_map(state), &mut EvalStack::default())
    }
}

/// Boxed engines are engines too, so `Box<dyn AdaptationPolicy>` can
/// flow through APIs that take `impl AdaptationPolicy`.
impl<P: AdaptationPolicy + ?Sized> AdaptationPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn decide_state(&self, state: &StateVector, stack: &mut EvalStack) -> AdaptationDecision {
        (**self).decide_state(state, stack)
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
pub(crate) struct PolicyRule {
    /// Rule name (for tracing decisions).
    pub name: String,
    /// Lower runs first; ties keep insertion order.
    pub priority: i32,
    /// Condition over state metrics, compiled once per process (see
    /// [`PolicyDb::add_rule`]); its attribute symbols are [`Metric`]
    /// indices.
    pub condition: Arc<CompiledSelector>,
    /// Action when the condition holds.
    pub action: AdaptationAction,
}

/// Conditions a process compiles before the least recently used is
/// dropped from the store (rules holding it keep it).
const CONDITION_CAPACITY: usize = 1024;

/// The store every policy condition is compiled through. Its interner
/// starts as the metric vocabulary, so metric `m` is symbol
/// `m.index()`, and a condition is compiled once however many
/// databases — one a client, say — hold it.
static CONDITIONS: LazyLock<SelectorStore> =
    LazyLock::new(|| SelectorStore::with_interner(CONDITION_CAPACITY, Metric::interner()));

/// The policy database: rules in priority order, each condition
/// compiled over the metric vocabulary. The rule list is shared by
/// `Arc` with every decision, whose [`FiredRules`] index it.
#[derive(Debug, Clone)]
pub struct PolicyDb {
    rules: Arc<Vec<PolicyRule>>,
}

/// The rule list of every empty database: building one allocates
/// nothing (a session's plain clients each hold one).
static NO_RULES: LazyLock<Arc<Vec<PolicyRule>>> = LazyLock::new(Arc::default);

impl Default for PolicyDb {
    fn default() -> PolicyDb {
        PolicyDb {
            rules: Arc::clone(&NO_RULES),
        }
    }
}

impl RuleTable for Vec<PolicyRule> {
    fn rule_name(&self, at: usize) -> &str {
        &self[at].name
    }
}

impl PolicyDb {
    /// Empty database.
    pub fn new() -> PolicyDb {
        PolicyDb::default()
    }

    /// Add a rule from selector source text. The condition is compiled
    /// here — once per process, through a store every database shares;
    /// one that does not parse, or names an attribute that is not a
    /// [`Metric`], is refused, as is a rule past the
    /// [`FiredRules::MAX_RULES`]th.
    pub fn add_rule(
        &mut self,
        name: &str,
        priority: i32,
        condition: &str,
        action: AdaptationAction,
    ) -> Result<(), SemError> {
        let condition = CONDITIONS.compile(condition)?;
        let stranger = condition
            .attributes()
            .find(|(sym, _)| sym.index() >= Metric::COUNT);
        if let Some((_, name)) = stranger {
            return Err(SemError::Parse(format!("`{name}` is not a state metric")));
        }
        if self.rules.len() == FiredRules::MAX_RULES {
            return Err(SemError::Parse(format!(
                "a policy database holds at most {} rules",
                FiredRules::MAX_RULES
            )));
        }
        let rules = Arc::make_mut(&mut self.rules);
        rules.push(PolicyRule {
            name: name.to_string(),
            priority,
            condition,
            action,
        });
        rules.sort_by_key(|r| r.priority);
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

    /// The rules in priority order, as the table a decision's
    /// [`FiredRules`] indexes.
    pub(crate) fn table(&self) -> Arc<dyn RuleTable> {
        Arc::clone(&self.rules) as Arc<dyn RuleTable>
    }

    /// All rules whose condition holds for `state`, in priority order,
    /// with their positions. Rules whose condition errors (a type
    /// error against this state) are skipped rather than failing the
    /// decision path.
    pub(crate) fn matching<'a>(
        &'a self,
        state: &StateVector,
        stack: &'a mut EvalStack,
    ) -> impl Iterator<Item = (usize, &'a PolicyRule)> + 'a {
        let attrs = StateAttrs::new(state);
        self.rules
            .iter()
            .enumerate()
            .filter(move |(_, r)| r.condition.eval_source(&attrs, stack).unwrap_or(false))
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
    ///
    /// # Panics
    /// Panics if the merged database would hold more than
    /// [`FiredRules::MAX_RULES`] rules.
    pub fn merge(&mut self, other: PolicyDb) {
        assert!(
            self.rules.len() + other.rules.len() <= FiredRules::MAX_RULES,
            "a policy database holds at most {} rules",
            FiredRules::MAX_RULES
        );
        let rules = Arc::make_mut(&mut self.rules);
        rules.extend(Arc::unwrap_or_clone(other.rules));
        rules.sort_by_key(|r| r.priority);
    }
}

/// A [`StateVector`] as the attributes a compiled condition reads: the
/// value of metric `m` under symbol `m.index()`, as a float, or missing.
struct StateAttrs {
    values: [AttrValue; Metric::COUNT],
    present: [bool; Metric::COUNT],
}

impl StateAttrs {
    fn new(state: &StateVector) -> StateAttrs {
        let at = |i: usize| state.get(Metric::ALL[i]);
        StateAttrs {
            values: std::array::from_fn(|i| AttrValue::Float(at(i).unwrap_or(0.0))),
            present: std::array::from_fn(|i| at(i).is_some()),
        }
    }
}

impl AttrSource for StateAttrs {
    fn get(&self, sym: Symbol, _name: &str) -> Option<&AttrValue> {
        let i = sym.index();
        self.present[i].then(|| &self.values[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::ModalityChoice;

    fn attrs(pairs: &[(&str, f64)]) -> StateVector {
        pairs
            .iter()
            .map(|(k, v)| (Metric::from_name(k).unwrap(), *v))
            .collect()
    }

    /// The rules `db` fires on `state`, in priority order.
    fn matching<'a>(db: &'a PolicyDb, state: &StateVector) -> Vec<&'a PolicyRule> {
        let fired: Vec<usize> = db
            .matching(state, &mut EvalStack::default())
            .map(|(at, _)| at)
            .collect();
        fired.into_iter().map(|at| &db.rules[at]).collect()
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
            let m = matching(&db, &attrs(&[("page_faults", faults)]));
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
        let m = matching(&db, &attrs(&[("cpu_load", 100.0)]));
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
        let m = matching(&db, &attrs(&[]));
        assert_eq!(m[0].name, "early");
        assert_eq!(m[1].name, "late");
    }

    #[test]
    fn missing_attribute_rule_does_not_match() {
        let db = PolicyDb::paper_page_fault_policy();
        // No page_faults attribute at all: no band matches.
        assert!(matching(&db, &attrs(&[("cpu_load", 50.0)])).is_empty());
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
        let m = matching(&db, &attrs(&[("bandwidth_bps", 32_000.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Text)
        );
        let m = matching(&db, &attrs(&[("bandwidth_bps", 100_000.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Sketch)
        );
        assert!(matching(&db, &attrs(&[("bandwidth_bps", 1e7)])).is_empty());
    }

    #[test]
    fn loss_policy_bands() {
        let db = PolicyDb::loss_policy();
        assert!(matching(&db, &attrs(&[("loss_pct", 0.5)])).is_empty());
        let m = matching(&db, &attrs(&[("loss_pct", 5.0)]));
        assert_eq!(m[0].action, AdaptationAction::LimitPackets(8));
        let m = matching(&db, &attrs(&[("loss_pct", 15.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Sketch)
        );
        let m = matching(&db, &attrs(&[("loss_pct", 45.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Text)
        );
    }

    #[test]
    fn congestion_policy_bands() {
        let db = PolicyDb::congestion_policy();
        assert!(matching(&db, &attrs(&[("congestion_pct", 1.0)])).is_empty());
        let m = matching(&db, &attrs(&[("congestion_pct", 8.0)]));
        assert_eq!(m[0].action, AdaptationAction::LimitPackets(8));
        let m = matching(&db, &attrs(&[("congestion_pct", 30.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Sketch)
        );
        let m = matching(&db, &attrs(&[("congestion_pct", 75.0)]));
        assert_eq!(
            m[0].action,
            AdaptationAction::CapModality(ModalityChoice::Text)
        );
        // Congestion bands key on the ECN echo only; loss alone is the
        // loss policy's business.
        assert!(matching(&db, &attrs(&[("loss_pct", 50.0)])).is_empty());
    }

    #[test]
    fn a_condition_is_compiled_once_however_many_databases_hold_it() {
        let (a, b) = (PolicyDb::loss_policy(), PolicyDb::loss_policy());
        for (x, y) in a.rules.iter().zip(b.rules.iter()) {
            assert!(Arc::ptr_eq(&x.condition, &y.condition), "{}", x.name);
        }
    }

    #[test]
    fn a_database_holds_as_many_rules_as_a_decision_can_name() {
        use crate::inference::InferenceEngine;
        use crate::QosContract;
        let mut db = PolicyDb::new();
        for i in 0..FiredRules::MAX_RULES {
            db.add_rule(&format!("r{i}"), 0, "true", AdaptationAction::Suspend)
                .unwrap();
        }
        assert!(db
            .add_rule("one more", 0, "true", AdaptationAction::Suspend)
            .is_err());
        let d = InferenceEngine::new(db, QosContract::default()).decide(&BTreeMap::new());
        assert_eq!(d.fired_rules.len(), FiredRules::MAX_RULES);
        assert_eq!(d.fired_rules.iter().last(), Some("r63"));
    }

    #[test]
    fn merge_interleaves() {
        let mut a = PolicyDb::paper_page_fault_policy();
        let before = a.len();
        a.merge(PolicyDb::bandwidth_modality_policy());
        assert_eq!(a.len(), before + 2);
    }
}
