//! Mamdani fuzzy controller over the observed state.
//!
//! The threshold engine's bands are cliff edges: a loss reading of
//! 9.9% keeps an 8-packet budget, 10.0% drops straight to sketch.
//! Following the fuzzy-rule-based resource managers in the follow-on
//! literature (Yerima et al.), this engine replaces each band with
//! three trapezoidal membership sets per observation — *calm*,
//! *strained*, *critical* — a one-rule-per-set rule base, min–max
//! inference, and centroid (center-of-sums) defuzzification onto the
//! packet budget and the modality ladder.
//!
//! # Determinism and monotonicity
//!
//! The controller is a pure function of the state: memberships,
//! clipped areas, and centroids are evaluated in a fixed order
//! (metrics in name order, sets calm → strained → critical)
//! with plain f64 arithmetic, so decisions are bit-identical across
//! worker counts.
//!
//! Each metric runs a *complete* single-input controller and the
//! per-metric crisp outputs combine across metrics with the
//! conservative minimum — the same merge rule the threshold engine
//! uses. A single-input Mamdani controller whose consequent sets are
//! symmetric is monotone in its input (the calm→strained→critical
//! crossfades only ever move output mass toward a lower-valued
//! consequent as the input worsens), and a pointwise minimum of
//! monotone functions is monotone; `tests/policy_engines.rs` pins
//! this property for `loss_pct` and `congestion_pct`.

use crate::contract::QosContract;
use crate::inference::{AdaptationDecision, FiredRules, ModalityChoice};
use crate::policy::AdaptationPolicy;
use crate::state::{Metric, StateVector};
use sempubsub::EvalStack;
use std::sync::{Arc, LazyLock};

/// A trapezoidal membership function over `[a, d]` with plateau
/// `[b, c]`. Shoulder sets use `a == b` (left) or `c == d` (right);
/// the grade code never divides by those zero-width edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trapezoid {
    /// Left foot.
    pub a: f64,
    /// Left plateau edge.
    pub b: f64,
    /// Right plateau edge.
    pub c: f64,
    /// Right foot.
    pub d: f64,
}

impl Trapezoid {
    /// A trapezoid from its four knots (`a <= b <= c <= d`).
    pub const fn new(a: f64, b: f64, c: f64, d: f64) -> Trapezoid {
        Trapezoid { a, b, c, d }
    }

    /// Membership grade of `x`, always in `[0, 1]`; non-finite inputs
    /// grade 0 so a poisoned sample cannot fire a rule.
    pub fn grade(&self, x: f64) -> f64 {
        if !x.is_finite() || x < self.a || x > self.d {
            0.0
        } else if x < self.b {
            (x - self.a) / (self.b - self.a)
        } else if x <= self.c {
            1.0
        } else {
            (self.d - x) / (self.d - self.c)
        }
    }

    /// Area of this set clipped at activation `alpha` (the Mamdani
    /// "min" implication): a trapezoid with base `d - a` whose top
    /// shrinks as the clip rises.
    fn clipped_area(&self, alpha: f64) -> f64 {
        let base = self.d - self.a;
        let slopes = (self.b - self.a) + (self.d - self.c);
        alpha * (2.0 * base - alpha * slopes) / 2.0
    }

    /// Centroid of the clipped set. All consequent sets here are
    /// symmetric, so the centroid is the base midpoint regardless of
    /// the clip height.
    fn centroid(&self) -> f64 {
        (self.a + self.d) / 2.0
    }
}

/// Severity order of the three antecedent sets per metric.
const SET_NAMES: [&str; 3] = ["calm", "strained", "critical"];

/// One observed metric: its universe (for clamping) and its three
/// antecedent sets. For metrics where larger is better (`sir_db`) the
/// sets are simply arranged in reverse along the axis.
struct FuzzyInput {
    metric: Metric,
    lo: f64,
    hi: f64,
    sets: [Trapezoid; 3],
}

/// Off-universe foot for shoulder sets.
const FAR: f64 = 1.0e9;

/// The antecedent vocabulary, in metric order. Knots are aligned with the threshold
/// engine's bands (loss 2/10/30, congestion 5/20/60, the §6 CPU and
/// page-fault ladders) so the two engines degrade over the same
/// regions, just smoothly vs. in steps.
const INPUTS: [FuzzyInput; 5] = [
    FuzzyInput {
        metric: Metric::CongestionPct,
        lo: 0.0,
        hi: 100.0,
        sets: [
            Trapezoid::new(0.0, 0.0, 2.0, 15.0),
            Trapezoid::new(2.0, 15.0, 25.0, 60.0),
            Trapezoid::new(25.0, 60.0, FAR, FAR),
        ],
    },
    FuzzyInput {
        metric: Metric::CpuLoad,
        lo: 0.0,
        hi: 100.0,
        sets: [
            Trapezoid::new(0.0, 0.0, 30.0, 55.0),
            Trapezoid::new(30.0, 55.0, 72.0, 97.0),
            Trapezoid::new(72.0, 97.0, FAR, FAR),
        ],
    },
    FuzzyInput {
        metric: Metric::LossPct,
        lo: 0.0,
        hi: 100.0,
        sets: [
            Trapezoid::new(0.0, 0.0, 1.0, 8.0),
            Trapezoid::new(1.0, 8.0, 12.0, 30.0),
            Trapezoid::new(12.0, 30.0, FAR, FAR),
        ],
    },
    FuzzyInput {
        metric: Metric::PageFaults,
        lo: 0.0,
        hi: 100.0,
        sets: [
            Trapezoid::new(0.0, 0.0, 30.0, 55.0),
            Trapezoid::new(30.0, 55.0, 72.0, 90.0),
            Trapezoid::new(72.0, 90.0, FAR, FAR),
        ],
    },
    FuzzyInput {
        // Wireless signal-to-interference ratio: larger is better, so
        // calm sits on the right.
        metric: Metric::SirDb,
        lo: -30.0,
        hi: 40.0,
        sets: [
            Trapezoid::new(7.0, 12.0, FAR, FAR),
            Trapezoid::new(-5.0, 0.0, 7.0, 12.0),
            Trapezoid::new(-FAR, -FAR, -5.0, 0.0),
        ],
    },
];

/// The rule `fuzzy:<metric>:<set>` of every input and set, input by
/// input: bit `3 * input + set` of a decision's [`FiredRules`].
static RULE_NAMES: LazyLock<Arc<Vec<String>>> = LazyLock::new(|| {
    let names = INPUTS
        .iter()
        .flat_map(|i| SET_NAMES.map(|set| format!("fuzzy:{}:{set}", i.metric.name())));
    Arc::new(names.collect())
});

/// Consequent sets over the packet-budget universe `[0, 16]`,
/// indexed calm → strained → critical. Symmetric by construction so
/// the clipped centroid stays put; the calm set's centroid is exactly
/// the 16-packet unconstrained budget.
const BUDGET_OUT: [Trapezoid; 3] = [
    Trapezoid::new(14.0, 15.0, 17.0, 18.0),
    Trapezoid::new(5.0, 6.0, 8.0, 9.0),
    Trapezoid::new(0.0, 1.0, 2.0, 3.0),
];

/// Consequent sets over the modality universe `[0, 3]` (None=0 …
/// FullImage=3), indexed calm → strained → critical.
const MODALITY_OUT: [Trapezoid; 3] = [
    Trapezoid::new(2.2, 2.6, 3.0, 3.4),
    Trapezoid::new(1.3, 1.7, 2.1, 2.5),
    Trapezoid::new(0.2, 0.6, 1.0, 1.4),
];

/// The fuzzy adaptation engine.
#[derive(Debug, Clone, Default)]
pub struct FuzzyEngine {
    /// The client's QoS contract (checked for violations, like the
    /// threshold engine).
    pub contract: QosContract,
    /// Packet budget when no known metric is observed.
    pub default_packets: u32,
}

impl FuzzyEngine {
    /// An engine over the given contract with the standard 16-packet
    /// unconstrained budget.
    pub fn new(contract: QosContract) -> FuzzyEngine {
        FuzzyEngine {
            contract,
            default_packets: 16,
        }
    }

    /// Membership grades `[calm, strained, critical]` of value `x`
    /// for `metric`, or `None` if the metric is not in the antecedent
    /// vocabulary. Exposed for the invariant proptests.
    pub fn memberships(metric: &str, x: f64) -> Option<[f64; 3]> {
        let input = INPUTS.iter().find(|i| i.metric.name() == metric)?;
        Some(FuzzyEngine::grades(input, x))
    }

    /// Membership grades of `x` in `input`'s three sets.
    fn grades(input: &FuzzyInput, x: f64) -> [f64; 3] {
        let x = if x.is_finite() {
            x.clamp(input.lo, input.hi)
        } else {
            x
        };
        input.sets.map(|set| set.grade(x))
    }

    /// Defuzzify one metric's activations onto a consequent family by
    /// center of sums. Returns `None` when nothing activated.
    fn defuzz(alphas: &[f64; 3], out: &[Trapezoid; 3]) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for (alpha, set) in alphas.iter().zip(out.iter()) {
            if *alpha > 0.0 {
                let area = set.clipped_area(*alpha);
                num += area * set.centroid();
                den += area;
            }
        }
        (den > 0.0).then(|| num / den)
    }

    /// Map a crisp modality value to the nearest ladder rung.
    fn modality_rung(crisp: f64) -> ModalityChoice {
        if crisp >= 2.5 {
            ModalityChoice::FullImage
        } else if crisp >= 1.5 {
            ModalityChoice::Sketch
        } else if crisp >= 0.5 {
            ModalityChoice::Text
        } else {
            ModalityChoice::None
        }
    }
}

impl AdaptationPolicy for FuzzyEngine {
    fn name(&self) -> &'static str {
        "fuzzy"
    }

    fn decide_state(&self, state: &StateVector, _stack: &mut EvalStack) -> AdaptationDecision {
        let mut decision = AdaptationDecision::unconstrained(self.default_packets);
        decision.violations = self.contract.check(state);

        let mut fired = 0u64;
        let mut budget: Option<f64> = None;
        let mut modality: Option<f64> = None;
        // Inputs run in metric order; sets fire in calm → strained →
        // critical order within a metric.
        for (at, input) in INPUTS.iter().enumerate() {
            let Some(value) = state.get(input.metric) else {
                continue;
            };
            let alphas = FuzzyEngine::grades(input, value);
            for (set, alpha) in alphas.iter().enumerate() {
                if *alpha > 0.0 {
                    fired |= 1 << (3 * at + set);
                }
            }
            // Conservative cross-metric merge: each metric's complete
            // single-input controller proposes a crisp output and the
            // worst proposal wins, mirroring the threshold engine's
            // min-merge.
            if let Some(b) = FuzzyEngine::defuzz(&alphas, &BUDGET_OUT) {
                budget = Some(budget.map_or(b, |prev: f64| prev.min(b)));
            }
            if let Some(m) = FuzzyEngine::defuzz(&alphas, &MODALITY_OUT) {
                modality = Some(modality.map_or(m, |prev: f64| prev.min(m)));
            }
        }
        decision.fired_rules = FiredRules::new(RULE_NAMES.clone(), fired);

        if let Some(b) = budget {
            decision.max_packets = (b.round().max(0.0) as u32).min(self.default_packets);
        }
        if let Some(m) = modality {
            decision.modality = FuzzyEngine::modality_rung(m);
        }
        if decision.max_packets == 0 && decision.modality > ModalityChoice::Text {
            // Same coherence rule as the threshold engine: zero image
            // packets still permits the §2 text description.
            decision.modality = ModalityChoice::Text;
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn state(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn engine() -> FuzzyEngine {
        FuzzyEngine::new(QosContract::default())
    }

    #[test]
    fn calm_state_is_unconstrained() {
        let d = engine().decide(&state(&[("loss_pct", 0.0), ("congestion_pct", 0.0)]));
        assert_eq!(d.max_packets, 16);
        assert_eq!(d.modality, ModalityChoice::FullImage);
        assert_eq!(
            d.fired_rules.iter().collect::<Vec<_>>(),
            ["fuzzy:congestion_pct:calm", "fuzzy:loss_pct:calm"]
        );
    }

    #[test]
    fn unknown_metrics_leave_default() {
        let d = engine().decide(&state(&[("mystery", 99.0)]));
        assert_eq!(d.max_packets, 16);
        assert_eq!(d.modality, ModalityChoice::FullImage);
        assert!(d.fired_rules.is_empty());
    }

    #[test]
    fn severe_loss_drops_to_survival() {
        let d = engine().decide(&state(&[("loss_pct", 60.0)]));
        assert!(
            d.max_packets <= 2,
            "budget {} under severe loss",
            d.max_packets
        );
        assert_eq!(d.modality, ModalityChoice::Text);
        assert_eq!(
            d.fired_rules.iter().collect::<Vec<_>>(),
            ["fuzzy:loss_pct:critical"]
        );
    }

    #[test]
    fn budget_descends_smoothly_with_loss() {
        let e = engine();
        let mut last = u32::MAX;
        let mut distinct = std::collections::BTreeSet::new();
        for loss in 0..=40 {
            let d = e.decide(&state(&[("loss_pct", loss as f64)]));
            assert!(d.max_packets <= last, "monotone at {loss}%");
            last = d.max_packets;
            distinct.insert(d.max_packets);
        }
        // Smooth descent: strictly more intermediate budgets than the
        // threshold engine's 16 → 8 → (sketch) bands produce.
        assert!(distinct.len() >= 6, "only {distinct:?} budgets seen");
    }

    #[test]
    fn modality_descends_with_loss() {
        let e = engine();
        let at = |loss: f64| e.decide(&state(&[("loss_pct", loss)])).modality;
        assert_eq!(at(0.5), ModalityChoice::FullImage);
        assert_eq!(at(15.0), ModalityChoice::Sketch);
        assert_eq!(at(45.0), ModalityChoice::Text);
    }

    #[test]
    fn worst_metric_wins_across_metrics() {
        let e = engine();
        let calm_loss = e.decide(&state(&[("loss_pct", 0.0)]));
        let both = e.decide(&state(&[("loss_pct", 0.0), ("congestion_pct", 80.0)]));
        assert!(both.max_packets < calm_loss.max_packets);
        assert_eq!(both.modality, ModalityChoice::Text);
    }

    #[test]
    fn good_sir_is_calm_bad_sir_is_critical() {
        let e = engine();
        let good = e.decide(&state(&[("sir_db", 20.0)]));
        assert_eq!(good.max_packets, 16);
        assert_eq!(good.modality, ModalityChoice::FullImage);
        let bad = e.decide(&state(&[("sir_db", -12.0)]));
        assert!(bad.max_packets <= 2);
        assert_eq!(bad.modality, ModalityChoice::Text);
    }

    #[test]
    fn grades_partition_every_universe_point() {
        for input in &INPUTS {
            let mut x = input.lo;
            while x <= input.hi {
                let g = FuzzyEngine::memberships(input.metric.name(), x).unwrap();
                assert!(
                    g.iter().any(|&v| v > 0.0),
                    "{} uncovered at {x}",
                    input.metric.name()
                );
                assert!(g.iter().all(|&v| (0.0..=1.0).contains(&v)));
                x += 0.25;
            }
        }
    }

    #[test]
    fn non_finite_observation_fires_nothing() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let d = engine().decide(&state(&[("loss_pct", bad)]));
            assert_eq!(d.max_packets, 16, "poisoned sample must not constrain");
            assert!(d.fired_rules.is_empty());
        }
    }
}
