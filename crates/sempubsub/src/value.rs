//! Attribute values: the universe selectors and profiles range over.

use std::cmp::Ordering;
use std::fmt;

/// A value an attribute can take.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Homogeneous or heterogeneous list.
    List(Vec<AttrValue>),
}

impl AttrValue {
    /// Convenience string constructor.
    pub fn str(s: &str) -> AttrValue {
        AttrValue::Str(s.to_string())
    }

    /// Numeric view: Int and Float coerce, everything else is `None`.
    fn as_number(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Semantic equality: numbers compare across Int/Float, other types
    /// compare within their type only.
    pub fn sem_eq(&self, other: &AttrValue) -> bool {
        match (self, other) {
            (AttrValue::Str(a), AttrValue::Str(b)) => a == b,
            (AttrValue::Bool(a), AttrValue::Bool(b)) => a == b,
            (AttrValue::List(a), AttrValue::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.sem_eq(y))
            }
            _ => match (self.as_number(), other.as_number()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Semantic ordering: defined for number/number and string/string.
    pub fn sem_cmp(&self, other: &AttrValue) -> Option<Ordering> {
        match (self, other) {
            (AttrValue::Str(a), AttrValue::Str(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_number()?, other.as_number()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Membership: `self` is an element of `list` (sem_eq elementwise).
    pub fn in_list(&self, list: &AttrValue) -> Option<bool> {
        match list {
            AttrValue::List(items) => Some(items.iter().any(|i| i.sem_eq(self))),
            _ => None,
        }
    }

    /// Containment: list contains element, or string contains substring.
    pub fn contains(&self, needle: &AttrValue) -> Option<bool> {
        match (self, needle) {
            (AttrValue::List(items), n) => Some(items.iter().any(|i| i.sem_eq(n))),
            (AttrValue::Str(hay), AttrValue::Str(n)) => Some(hay.contains(n.as_str())),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "'{s}'"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::str(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion_in_eq_and_cmp() {
        assert!(AttrValue::Int(3).sem_eq(&AttrValue::Float(3.0)));
        assert!(!AttrValue::Int(3).sem_eq(&AttrValue::Float(3.5)));
        assert_eq!(
            AttrValue::Int(2).sem_cmp(&AttrValue::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn cross_type_eq_is_false_not_error() {
        assert!(!AttrValue::str("3").sem_eq(&AttrValue::Int(3)));
        assert!(!AttrValue::Bool(true).sem_eq(&AttrValue::Int(1)));
    }

    #[test]
    fn string_ordering() {
        assert_eq!(
            AttrValue::str("apple").sem_cmp(&AttrValue::str("banana")),
            Some(Ordering::Less)
        );
        assert_eq!(AttrValue::str("a").sem_cmp(&AttrValue::Int(1)), None);
    }

    #[test]
    fn list_membership_and_containment() {
        let list = AttrValue::List(vec![
            AttrValue::str("jpeg"),
            AttrValue::str("mpeg2"),
            AttrValue::Int(5),
        ]);
        assert_eq!(AttrValue::str("jpeg").in_list(&list), Some(true));
        assert_eq!(AttrValue::Float(5.0).in_list(&list), Some(true));
        assert_eq!(AttrValue::str("raw").in_list(&list), Some(false));
        assert_eq!(AttrValue::str("x").in_list(&AttrValue::Int(1)), None);
        assert_eq!(list.contains(&AttrValue::str("mpeg2")), Some(true));
        assert_eq!(
            AttrValue::str("color video").contains(&AttrValue::str("video")),
            Some(true)
        );
    }

    #[test]
    fn nested_list_eq() {
        let a = AttrValue::List(vec![AttrValue::List(vec![AttrValue::Int(1)])]);
        let b = AttrValue::List(vec![AttrValue::List(vec![AttrValue::Float(1.0)])]);
        assert!(a.sem_eq(&b));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttrValue::str("hi").to_string(), "'hi'");
        assert_eq!(
            AttrValue::List(vec![AttrValue::Int(1), AttrValue::Bool(false)]).to_string(),
            "[1, false]"
        );
    }
}
