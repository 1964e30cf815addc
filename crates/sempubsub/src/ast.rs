//! The selector expression AST.

use crate::value::AttrValue;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `in` — element-of-list.
    In,
    /// `contains` — list/string containment.
    Contains,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::In => "in",
            CmpOp::Contains => "contains",
        };
        write!(f, "{s}")
    }
}

/// A selector expression — the paper's "prepositional expression over
/// all possible attributes".
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(AttrValue),
    /// Attribute reference, resolved against the profile at eval time.
    Attr(String),
    /// Logical negation.
    Not(Box<Expr>),
    /// Short-circuit conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Short-circuit disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Attribute presence test.
    Exists(String),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Attr(name) => write!(f, "{name}"),
            Expr::Not(e) => write!(f, "not ({e})"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Exists(name) => write!(f, "exists({name})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_parenthesised() {
        let e = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Attr("x".into())),
            Box::new(Expr::Literal(AttrValue::Int(3))),
        );
        assert_eq!(e.to_string(), "(x >= 3)");
    }
}
