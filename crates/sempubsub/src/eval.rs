//! Evaluation of selector expressions against attribute maps.
//!
//! Missing attributes are not errors: a comparison involving a missing
//! attribute is simply false (and its negation true), so a selector
//! like `encoding == 'jpeg'` rejects a profile that never mentions
//! `encoding` instead of crashing the substrate. `exists(attr)` tests
//! presence explicitly. Genuine *type* misuse (e.g. `and` over a
//! string) is an error, because it indicates a malformed selector
//! rather than profile diversity.

use crate::ast::{CmpOp, Expr};
use crate::value::AttrValue;
use crate::SemError;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// An evaluated operand: a value, or a reference to an absent attribute.
#[derive(Debug, Clone, PartialEq)]
enum Operand {
    Val(AttrValue),
    Missing(String),
}

/// Evaluate `expr` to a boolean against `attrs`.
pub fn eval_bool(expr: &Expr, attrs: &BTreeMap<String, AttrValue>) -> Result<bool, SemError> {
    match eval(expr, attrs)? {
        Operand::Val(AttrValue::Bool(b)) => Ok(b),
        // A bare missing attribute in boolean position is false.
        Operand::Missing(_) => Ok(false),
        Operand::Val(v) => Err(SemError::Type(format!("expected boolean, got {v}"))),
    }
}

fn eval(expr: &Expr, attrs: &BTreeMap<String, AttrValue>) -> Result<Operand, SemError> {
    Ok(match expr {
        Expr::Literal(v) => Operand::Val(v.clone()),
        Expr::Attr(name) => match attrs.get(name) {
            Some(v) => Operand::Val(v.clone()),
            None => Operand::Missing(name.clone()),
        },
        Expr::Exists(name) => Operand::Val(AttrValue::Bool(attrs.contains_key(name))),
        Expr::Not(inner) => Operand::Val(AttrValue::Bool(!eval_bool(inner, attrs)?)),
        Expr::And(a, b) => {
            // Short-circuit.
            let left = eval_bool(a, attrs)?;
            Operand::Val(AttrValue::Bool(left && eval_bool(b, attrs)?))
        }
        Expr::Or(a, b) => {
            let left = eval_bool(a, attrs)?;
            Operand::Val(AttrValue::Bool(left || eval_bool(b, attrs)?))
        }
        Expr::Cmp(op, a, b) => {
            let left = eval(a, attrs)?;
            let right = eval(b, attrs)?;
            let result = match (&left, &right) {
                (Operand::Missing(_), _) | (_, Operand::Missing(_)) => false,
                (Operand::Val(l), Operand::Val(r)) => compare(*op, l, r),
            };
            Operand::Val(AttrValue::Bool(result))
        }
    })
}

/// Comparison semantics, shared by the tree walk, the compiled
/// evaluator in [`crate::compile`] and the broker's selector algebra,
/// so none of them can diverge.
pub fn compare(op: CmpOp, l: &AttrValue, r: &AttrValue) -> bool {
    match op {
        CmpOp::Eq => l.sem_eq(r),
        CmpOp::Ne => !l.sem_eq(r),
        CmpOp::Lt => l.sem_cmp(r) == Some(Ordering::Less),
        CmpOp::Le => matches!(l.sem_cmp(r), Some(Ordering::Less | Ordering::Equal)),
        CmpOp::Gt => l.sem_cmp(r) == Some(Ordering::Greater),
        CmpOp::Ge => matches!(l.sem_cmp(r), Some(Ordering::Greater | Ordering::Equal)),
        CmpOp::In => l.in_list(r).unwrap_or(false),
        CmpOp::Contains => l.contains(r).unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Selector;

    fn attrs(pairs: &[(&str, AttrValue)]) -> BTreeMap<String, AttrValue> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn check(sel: &str, a: &BTreeMap<String, AttrValue>) -> bool {
        Selector::parse(sel).unwrap().matches(a).unwrap()
    }

    #[test]
    fn basic_comparisons() {
        let a = attrs(&[
            ("media", AttrValue::str("video")),
            ("size_mb", AttrValue::Float(1.0)),
            ("color", AttrValue::Bool(true)),
        ]);
        assert!(check("media == 'video'", &a));
        assert!(check("size_mb <= 1", &a));
        assert!(check("size_mb >= 0.5 and size_mb < 2", &a));
        assert!(!check("media != 'video'", &a));
        assert!(check("color", &a), "bare boolean attribute");
        assert!(!check("not color", &a));
    }

    #[test]
    fn missing_attribute_semantics() {
        let a = attrs(&[("media", AttrValue::str("video"))]);
        assert!(!check("encoding == 'jpeg'", &a));
        assert!(check("not (encoding == 'jpeg')", &a));
        assert!(!check("exists(encoding)", &a));
        assert!(check("not exists(encoding)", &a));
        // Bare missing attribute in boolean position is false.
        assert!(!check("encoding", &a));
    }

    #[test]
    fn short_circuit_evaluation() {
        // `flag and (3)` would be a type error if the right side ran.
        let a = attrs(&[("flag", AttrValue::Bool(false))]);
        assert!(!check("flag and 3 == 'oops'", &a));
    }

    #[test]
    fn in_and_contains() {
        let a = attrs(&[
            ("enc", AttrValue::str("mpeg2")),
            (
                "supported",
                AttrValue::List(vec![AttrValue::str("jpeg"), AttrValue::str("mpeg2")]),
            ),
            ("descr", AttrValue::str("color video stream")),
        ]);
        assert!(check("enc in ['jpeg', 'mpeg2']", &a));
        assert!(!check("enc in ['raw']", &a));
        assert!(check("supported contains 'jpeg'", &a));
        assert!(check("descr contains 'video'", &a));
        assert!(!check("descr contains 'audio'", &a));
    }

    #[test]
    fn type_errors_surface() {
        let a = attrs(&[("name", AttrValue::str("x"))]);
        assert!(Selector::parse("name and true")
            .unwrap()
            .matches(&a)
            .is_err());
        assert!(Selector::parse("not name").unwrap().matches(&a).is_err());
    }

    #[test]
    fn cross_type_comparison_is_false() {
        let a = attrs(&[("x", AttrValue::str("5"))]);
        assert!(!check("x == 5", &a));
        assert!(!check("x < 6", &a));
        assert!(check("x != 5", &a));
    }

    #[test]
    fn paper_figure3_semantics() {
        // Incoming stream: color video, MPEG2, 1 MB.
        let stream = attrs(&[
            ("media", AttrValue::str("video")),
            ("color", AttrValue::Bool(true)),
            ("encoding", AttrValue::str("mpeg2")),
            ("size_mb", AttrValue::Float(1.0)),
        ]);
        // Profile 1 accepts.
        assert!(check(
            "media == 'video' and color == true and encoding == 'mpeg2' and size_mb <= 1",
            &stream
        ));
        // Profile 2 (B/W, no encoding) rejects.
        assert!(!check(
            "media == 'video' and color == false and not exists(encoding)",
            &stream
        ));
        // Profile 3's literal interest (JPEG) rejects — the transform
        // path is exercised in `matching`.
        assert!(!check(
            "media == 'video' and color == true and encoding == 'jpeg'",
            &stream
        ));
    }
}
