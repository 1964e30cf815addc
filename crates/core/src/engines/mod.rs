//! Alternative adaptation engines behind
//! [`AdaptationPolicy`].
//!
//! The paper's §5.2 inference engine is a threshold controller: hard
//! bands in the policy database map each observation to a discrete
//! action. That reproduces the figures, but it is brittle at band
//! edges and trusts every measurement absolutely. This module adds
//! two measurement-driven controllers from the follow-on literature,
//! run head-to-head against the threshold engine by
//! `experiments::run_policy_comparison` and the chaos suite:
//!
//! * [`fuzzy::FuzzyEngine`] — a Mamdani fuzzy controller (trapezoidal
//!   memberships, min–max inference, centroid defuzzification) that
//!   degrades the packet budget and modality smoothly instead of in
//!   cliff-edge steps;
//! * [`bayes::BayesEngine`] — a discrete Bayesian network that fuses
//!   noisy observations into a posterior over link quality by exact
//!   enumeration and decides by maximum a posteriori with a
//!   conservative tie-break.
//!
//! Both are deterministic pure functions of the observed state, so a
//! seeded session replays bit-identically.

pub mod bayes;
pub mod fuzzy;

pub use bayes::BayesEngine;
pub use fuzzy::FuzzyEngine;

use crate::contract::QosContract;
use crate::inference::InferenceEngine;
use crate::policy::{AdaptationPolicy, PolicyDb};

/// Which adaptation engine a session should run.
///
/// Selected via `SessionConfig::engine`; `CollaborationSession`
/// builds the concrete engine per client with
/// [`EngineChoice::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// The paper's §5.2 threshold bands (`PolicyDb` + `InferenceEngine`).
    #[default]
    Threshold,
    /// Mamdani fuzzy controller.
    Fuzzy,
    /// Discrete Bayesian network with MAP decisions.
    Bayesian,
}

impl EngineChoice {
    /// The engine's stable name, matching
    /// [`AdaptationPolicy::name`].
    pub fn name(&self) -> &'static str {
        match self {
            EngineChoice::Threshold => "threshold",
            EngineChoice::Fuzzy => "fuzzy",
            EngineChoice::Bayesian => "bayes",
        }
    }

    /// Parse an engine name (`"threshold"`, `"fuzzy"`, `"bayes"`),
    /// as used by the `CHAOS_ENGINE` soak variable.
    pub fn parse(name: &str) -> Option<EngineChoice> {
        match name {
            "threshold" => Some(EngineChoice::Threshold),
            "fuzzy" => Some(EngineChoice::Fuzzy),
            "bayes" | "bayesian" => Some(EngineChoice::Bayesian),
            _ => None,
        }
    }

    /// All engines, in comparison-table order.
    pub fn all() -> [EngineChoice; 3] {
        [
            EngineChoice::Threshold,
            EngineChoice::Fuzzy,
            EngineChoice::Bayesian,
        ]
    }

    /// Build a boxed engine. The threshold engine consumes the policy
    /// database; the fuzzy and Bayesian engines replace the bands with
    /// their own internal knowledge and use only the contract.
    pub fn build(&self, policies: PolicyDb, contract: QosContract) -> Box<dyn AdaptationPolicy> {
        match self {
            EngineChoice::Threshold => Box::new(InferenceEngine::new(policies, contract)),
            EngineChoice::Fuzzy => Box::new(FuzzyEngine::new(contract)),
            EngineChoice::Bayesian => Box::new(BayesEngine::new(contract)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_roundtrips_through_names() {
        for choice in EngineChoice::all() {
            assert_eq!(EngineChoice::parse(choice.name()), Some(choice));
            let engine = choice.build(PolicyDb::loss_policy(), QosContract::default());
            assert_eq!(engine.name(), choice.name());
        }
        assert_eq!(EngineChoice::parse("nonsense"), None);
    }

    #[test]
    fn default_choice_is_threshold() {
        assert_eq!(EngineChoice::default(), EngineChoice::Threshold);
    }
}
