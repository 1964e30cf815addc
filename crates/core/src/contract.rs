//! QoS contracts.
//!
//! "Users can specify individual system and application parameters
//! that will make up the local system state, as well as the constraints
//! subject on these parameters. These user policies defines a QoS
//! 'contract' that needs to be satisfied by the inference engine"
//! (§5.2).

use crate::state::{Metric, StateVector};

/// A bound on one named parameter of the local system state.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Parameter name (e.g. `cpu_load`, `page_faults`, `bandwidth_bps`).
    pub param: String,
    /// Inclusive lower bound, if any.
    pub min: Option<f64>,
    /// Inclusive upper bound, if any.
    pub max: Option<f64>,
}

impl Constraint {
    /// `param <= max`.
    pub fn at_most(param: &str, max: f64) -> Constraint {
        Constraint {
            param: param.to_string(),
            min: None,
            max: Some(max),
        }
    }

    /// `param >= min`.
    pub fn at_least(param: &str, min: f64) -> Constraint {
        Constraint {
            param: param.to_string(),
            min: Some(min),
            max: None,
        }
    }

    /// `min <= param <= max`.
    pub fn between(param: &str, min: f64, max: f64) -> Constraint {
        assert!(min <= max, "inverted bounds");
        Constraint {
            param: param.to_string(),
            min: Some(min),
            max: Some(max),
        }
    }

    /// Check one observed value.
    fn satisfied_by(&self, value: f64) -> bool {
        self.min.is_none_or(|m| value >= m) && self.max.is_none_or(|m| value <= m)
    }
}

/// A contract violation: which constraint, what was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated constraint.
    pub constraint: Constraint,
    /// Observed value, or `None` when the parameter was missing.
    pub observed: Option<f64>,
}

/// A named set of constraints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QosContract {
    /// Contract name (informational).
    pub name: String,
    constraints: Vec<Constraint>,
    /// The metric each constraint bounds, resolved when it was added;
    /// `None` for a parameter outside the vocabulary.
    metrics: Vec<Option<Metric>>,
}

impl QosContract {
    /// An empty contract (vacuously satisfied).
    pub fn new(name: &str) -> QosContract {
        QosContract {
            name: name.to_string(),
            constraints: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Add a constraint (builder style).
    pub fn with(mut self, c: Constraint) -> QosContract {
        self.metrics.push(Metric::from_name(&c.param));
        self.constraints.push(c);
        self
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluate against an observed state; missing parameters violate,
    /// and so does a parameter that is not a [`Metric`] (no state ever
    /// observes it).
    pub fn check(&self, state: &StateVector) -> Vec<Violation> {
        self.constraints
            .iter()
            .zip(&self.metrics)
            .filter_map(|(c, metric)| {
                let observed = metric.and_then(|m| state.get(m));
                match observed {
                    Some(v) if c.satisfied_by(v) => None,
                    _ => Some(Violation {
                        constraint: c.clone(),
                        observed,
                    }),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(pairs: &[(&str, f64)]) -> StateVector {
        pairs
            .iter()
            .map(|(k, v)| (Metric::from_name(k).unwrap(), *v))
            .collect()
    }

    #[test]
    fn bounds_check() {
        let c = Constraint::between("cpu_load", 0.0, 80.0);
        assert!(c.satisfied_by(0.0));
        assert!(c.satisfied_by(80.0));
        assert!(!c.satisfied_by(80.1));
        assert!(!c.satisfied_by(-1.0));
        assert!(Constraint::at_most("x", 5.0).satisfied_by(-1e9));
        assert!(Constraint::at_least("x", 5.0).satisfied_by(1e9));
    }

    #[test]
    fn contract_reports_violations() {
        let contract = QosContract::new("interactive")
            .with(Constraint::at_most("cpu_load", 80.0))
            .with(Constraint::at_most("page_faults", 60.0))
            .with(Constraint::at_least("bandwidth_bps", 1_000_000.0));
        let ok = state(&[
            ("cpu_load", 40.0),
            ("page_faults", 30.0),
            ("bandwidth_bps", 1e7),
        ]);
        assert!(contract.check(&ok).is_empty());

        let bad = state(&[("cpu_load", 95.0), ("page_faults", 30.0)]);
        let violations = contract.check(&bad);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].observed, Some(95.0));
        assert_eq!(violations[1].observed, None, "missing bandwidth");
    }

    #[test]
    fn empty_contract_vacuously_satisfied() {
        assert!(QosContract::new("empty").check(&state(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_rejected() {
        Constraint::between("x", 5.0, 1.0);
    }
}
