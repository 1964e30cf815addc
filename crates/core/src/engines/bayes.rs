//! Discrete Bayesian network over the observed state.
//!
//! The threshold engine trusts every measurement absolutely: one
//! glitchy receiver report that says "35% loss" drops the modality to
//! text even when every other signal says the link is clean.
//! Following the Bayesian-network QoS controllers for multimedia
//! conferencing (Huang & Shou), this engine treats the observations
//! as *noisy evidence* about a hidden link-quality variable and fuses
//! them into a posterior by exact enumeration.
//!
//! The network is a naive-Bayes star: one hidden quality node `Q`
//! with four states — `Excellent`, `Fair`, `Poor`, `Unusable`,
//! aligned with the modality ladder — and one observed child per
//! metric, discretized into four bins along the threshold engine's
//! own band edges. The decision is maximum a posteriori with a
//! conservative tie-break (the worse quality wins), and the packet
//! budget is the posterior expectation of each quality's nominal
//! budget, so partial evidence degrades the budget smoothly.
//!
//! # Determinism
//!
//! Evidence always multiplies in the fixed `VARS` order no matter
//! how the caller ordered it, so posteriors are bit-identical under
//! evidence-order shuffling (pinned by `tests/policy_engines.rs`).

use crate::contract::QosContract;
use crate::inference::{AdaptationDecision, FiredRules, ModalityChoice};
use crate::policy::AdaptationPolicy;
use crate::state::{Metric, StateVector};
use sempubsub::EvalStack;
use std::sync::{Arc, LazyLock};

/// Hidden-quality states, best first. Index into priors and CPT rows.
const QUALITY_NAMES: [&str; 4] = ["excellent", "fair", "poor", "unusable"];

/// Modality implied by each quality state.
const QUALITY_MODALITY: [ModalityChoice; 4] = [
    ModalityChoice::FullImage,
    ModalityChoice::Sketch,
    ModalityChoice::Text,
    ModalityChoice::None,
];

/// Nominal packet budget per quality state; the decision budget is
/// the posterior expectation over these.
const QUALITY_BUDGET: [f64; 4] = [16.0, 8.0, 2.0, 0.0];

/// Prior over quality: collaborative sessions are usually healthy,
/// so a lone alarming reading should not immediately crater the
/// modality.
const PRIOR: [f64; 4] = [0.55, 0.25, 0.15, 0.05];

/// One observed variable: bin edges (ascending severity) and the
/// conditional probability table `P(bin | quality)`, rows in
/// [`QUALITY_NAMES`] order. Rows sum to 1.
struct Evidence {
    metric: Metric,
    /// Three ascending edges splitting the axis into four bins. For
    /// `sir_db` larger is better, so the raw value is negated and the
    /// edges are negated thresholds.
    edges: [f64; 3],
    negate: bool,
    cpt: [[f64; 4]; 4],
}

/// The evidence vocabulary. Bin edges deliberately coincide with the
/// threshold engine's bands (loss 2/10/30, congestion 5/20/60, the
/// §6 CPU/page-fault ladders) so the engines disagree on *inference*,
/// not on where "bad" begins.
const VARS: [Evidence; 5] = [
    Evidence {
        metric: Metric::LossPct,
        edges: [2.0, 10.0, 30.0],
        negate: false,
        cpt: [
            [0.80, 0.15, 0.04, 0.01],
            [0.35, 0.40, 0.20, 0.05],
            [0.10, 0.30, 0.40, 0.20],
            [0.03, 0.07, 0.30, 0.60],
        ],
    },
    Evidence {
        metric: Metric::CongestionPct,
        edges: [5.0, 20.0, 60.0],
        negate: false,
        cpt: [
            [0.80, 0.14, 0.05, 0.01],
            [0.40, 0.35, 0.20, 0.05],
            [0.15, 0.30, 0.40, 0.15],
            [0.05, 0.15, 0.35, 0.45],
        ],
    },
    Evidence {
        metric: Metric::CpuLoad,
        edges: [44.0, 72.0, 97.0],
        negate: false,
        cpt: [
            [0.70, 0.22, 0.07, 0.01],
            [0.40, 0.35, 0.20, 0.05],
            [0.15, 0.35, 0.35, 0.15],
            [0.05, 0.20, 0.35, 0.40],
        ],
    },
    Evidence {
        metric: Metric::PageFaults,
        edges: [44.0, 72.0, 86.0],
        negate: false,
        cpt: [
            [0.70, 0.22, 0.07, 0.01],
            [0.40, 0.35, 0.20, 0.05],
            [0.15, 0.35, 0.35, 0.15],
            [0.05, 0.20, 0.35, 0.40],
        ],
    },
    Evidence {
        // SIR in dB, larger is better: ≥10 clear, ≥0 mild, ≥−15
        // heavy, below that severe.
        metric: Metric::SirDb,
        edges: [-10.0, 0.0, 15.0],
        negate: true,
        cpt: [
            [0.75, 0.20, 0.04, 0.01],
            [0.40, 0.40, 0.15, 0.05],
            [0.10, 0.35, 0.40, 0.15],
            [0.03, 0.12, 0.35, 0.50],
        ],
    },
];

/// Severity labels for the four bins (used in `fired_rules`).
const BIN_NAMES: [&str; 4] = ["clear", "mild", "heavy", "severe"];

/// The rule `bayes:<metric>:<bin>` of every evidence variable and bin,
/// variable by variable — bit `4 * var + bin` of a decision's
/// [`FiredRules`] — then the MAP verdicts `bayes:map:<quality>` from
/// bit `4 * VARS.len()` on.
static RULE_NAMES: LazyLock<Arc<Vec<String>>> = LazyLock::new(|| {
    let names = VARS
        .iter()
        .flat_map(|v| BIN_NAMES.map(|bin| format!("bayes:{}:{bin}", v.metric.name())))
        .chain(QUALITY_NAMES.map(|q| format!("bayes:map:{q}")));
    Arc::new(names.collect())
});

/// The Bayesian adaptation engine.
#[derive(Debug, Clone, Default)]
pub struct BayesEngine {
    /// The client's QoS contract (checked for violations, like the
    /// threshold engine).
    pub contract: QosContract,
    /// Packet budget when no known metric is observed.
    pub default_packets: u32,
}

impl BayesEngine {
    /// An engine over the given contract with the standard 16-packet
    /// unconstrained budget.
    pub fn new(contract: QosContract) -> BayesEngine {
        BayesEngine {
            contract,
            default_packets: 16,
        }
    }

    /// Discretize one observation. `None` when the metric is outside
    /// the evidence vocabulary or the value is not finite.
    pub fn bin(metric: &str, value: f64) -> Option<usize> {
        let var = VARS.iter().find(|v| v.metric.name() == metric)?;
        BayesEngine::bin_of(var, value)
    }

    /// The bin of `value` on `var`'s axis; `None` when it is not finite.
    fn bin_of(var: &Evidence, value: f64) -> Option<usize> {
        if !value.is_finite() {
            return None;
        }
        let x = if var.negate { -value } else { value };
        Some(var.edges.iter().filter(|&&e| x >= e).count())
    }

    /// Posterior over quality given named observations, or `None`
    /// when nothing in the slice is usable evidence. Evidence is
    /// canonicalized into `VARS` order before multiplying, so the
    /// result is bit-identical under input permutation; duplicate
    /// metrics keep the last value, matching map semantics.
    pub fn posterior(evidence: &[(&str, f64)]) -> Option<[f64; 4]> {
        let mut binned: [Option<usize>; VARS.len()] = [None; VARS.len()];
        for (metric, value) in evidence {
            if let Some(slot) = VARS.iter().position(|v| v.metric.name() == *metric) {
                if let Some(b) = BayesEngine::bin_of(&VARS[slot], *value) {
                    binned[slot] = Some(b);
                }
            }
        }
        BayesEngine::posterior_of(&binned)
    }

    /// Posterior over quality given each variable's bin, if observed;
    /// `None` when nothing is.
    fn posterior_of(binned: &[Option<usize>; VARS.len()]) -> Option<[f64; 4]> {
        if binned.iter().all(Option::is_none) {
            return None;
        }
        let mut p = PRIOR;
        for (slot, var) in VARS.iter().enumerate() {
            if let Some(b) = binned[slot] {
                for (q, prob) in p.iter_mut().enumerate() {
                    *prob *= var.cpt[q][b];
                }
            }
        }
        let total: f64 = p.iter().sum();
        for prob in p.iter_mut() {
            *prob /= total;
        }
        Some(p)
    }

    /// Maximum-a-posteriori quality index with a conservative
    /// tie-break: among equal posteriors the *worse* quality wins.
    pub fn map_quality(posterior: &[f64; 4]) -> usize {
        let mut best = 3;
        for q in (0..3).rev() {
            if posterior[q] > posterior[best] {
                best = q;
            }
        }
        best
    }
}

impl AdaptationPolicy for BayesEngine {
    fn name(&self) -> &'static str {
        "bayes"
    }

    fn decide_state(&self, state: &StateVector, _stack: &mut EvalStack) -> AdaptationDecision {
        let mut decision = AdaptationDecision::unconstrained(self.default_packets);
        decision.violations = self.contract.check(state);

        let binned = VARS.map(|var| {
            state
                .get(var.metric)
                .and_then(|v| BayesEngine::bin_of(&var, v))
        });
        let Some(posterior) = BayesEngine::posterior_of(&binned) else {
            return decision;
        };
        // Fired "rules" record the evidence actually used, in VARS
        // order, plus the MAP verdict.
        let mut fired = 0u64;
        for (slot, bin) in binned.iter().enumerate() {
            if let Some(b) = bin {
                fired |= 1 << (4 * slot + b);
            }
        }
        let map = BayesEngine::map_quality(&posterior);
        fired |= 1 << (4 * VARS.len() + map);
        decision.fired_rules = FiredRules::new(RULE_NAMES.clone(), fired);

        decision.modality = QUALITY_MODALITY[map];
        if map == 3 {
            // Unusable is this engine's Suspend: no image packets.
            decision.max_packets = 0;
        } else {
            let expected: f64 = posterior
                .iter()
                .zip(QUALITY_BUDGET.iter())
                .map(|(p, b)| p * b)
                .sum();
            decision.max_packets = (expected.round().max(0.0) as u32).min(self.default_packets);
        }
        if decision.max_packets == 0 && decision.modality > ModalityChoice::Text {
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

    fn engine() -> BayesEngine {
        BayesEngine::new(QosContract::default())
    }

    #[test]
    fn clean_evidence_decides_full_image() {
        let d = engine().decide(&state(&[("loss_pct", 0.5), ("congestion_pct", 1.0)]));
        assert_eq!(d.modality, ModalityChoice::FullImage);
        assert!(
            d.max_packets >= 14,
            "near-full budget, got {}",
            d.max_packets
        );
        assert!(d.fired_rules.contains("bayes:map:excellent"));
    }

    #[test]
    fn no_evidence_is_unconstrained() {
        let d = engine().decide(&state(&[("mystery", 9.0)]));
        assert_eq!(d.max_packets, 16);
        assert_eq!(d.modality, ModalityChoice::FullImage);
        assert!(d.fired_rules.is_empty());
    }

    #[test]
    fn burst_loss_with_clean_congestion_downgrades_to_sketch() {
        let d = engine().decide(&state(&[("loss_pct", 15.0), ("congestion_pct", 0.0)]));
        assert_eq!(d.modality, ModalityChoice::Sketch);
        assert!(d.max_packets < 16);
    }

    #[test]
    fn lone_loss_spike_is_tempered_by_corroborating_evidence() {
        // The same 35% loss reading: alone it is alarming, but with a
        // clean congestion echo the posterior keeps the session above
        // text — the noisy-observation robustness the threshold
        // engine lacks (it would cap to Text on loss_pct >= 30 alone).
        let corroborated = engine().decide(&state(&[("loss_pct", 35.0), ("congestion_pct", 0.0)]));
        assert!(corroborated.modality >= ModalityChoice::Sketch);
    }

    #[test]
    fn everything_severe_suspends() {
        let d = engine().decide(&state(&[
            ("loss_pct", 80.0),
            ("congestion_pct", 90.0),
            ("cpu_load", 99.0),
        ]));
        assert_eq!(d.modality, ModalityChoice::None);
        assert_eq!(d.max_packets, 0);
    }

    #[test]
    fn posterior_normalizes() {
        let p = BayesEngine::posterior(&[("loss_pct", 12.0), ("cpu_load", 50.0)]).unwrap();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn posterior_is_permutation_stable() {
        let fwd = BayesEngine::posterior(&[
            ("loss_pct", 12.0),
            ("congestion_pct", 25.0),
            ("sir_db", 5.0),
        ])
        .unwrap();
        let rev = BayesEngine::posterior(&[
            ("sir_db", 5.0),
            ("congestion_pct", 25.0),
            ("loss_pct", 12.0),
        ])
        .unwrap();
        assert_eq!(fwd, rev, "bitwise identical under reordering");
    }

    #[test]
    fn sir_bins_invert() {
        assert_eq!(BayesEngine::bin("sir_db", 20.0), Some(0));
        assert_eq!(BayesEngine::bin("sir_db", 5.0), Some(1));
        assert_eq!(BayesEngine::bin("sir_db", -5.0), Some(2));
        assert_eq!(BayesEngine::bin("sir_db", -20.0), Some(3));
        assert_eq!(BayesEngine::bin("loss_pct", f64::NAN), None);
        assert_eq!(BayesEngine::bin("unknown", 1.0), None);
    }

    #[test]
    fn map_tie_breaks_conservatively() {
        assert_eq!(BayesEngine::map_quality(&[0.25, 0.25, 0.25, 0.25]), 3);
        assert_eq!(BayesEngine::map_quality(&[0.4, 0.4, 0.1, 0.1]), 1);
        assert_eq!(BayesEngine::map_quality(&[0.7, 0.1, 0.1, 0.1]), 0);
    }
}
