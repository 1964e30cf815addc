//! # sempubsub — semantic publisher–subscriber messaging substrate
//!
//! The paper's messaging substrate (§3) replaces name-based addressing
//! with *semantic interactions*: every client locally maintains a
//! **profile** (its current state, interests, and capabilities), and
//! every message carries a sender-specified **semantic selector** — "a
//! prepositional expression over all possible attributes" that
//! "descriptively names dynamic sets of clients of arbitrary
//! cardinality". A message is received by semantically interpreting the
//! selector against the local profile; no global roster or naming
//! service is ever consulted.
//!
//! This crate implements the whole substrate:
//!
//! * [`value`] — the attribute value universe (int, float, string,
//!   bool, list),
//! * [`lexer`] / [`parser`] / [`ast`] — the selector expression
//!   language (`and`, `or`, `not`, comparisons, `in`, `contains`,
//!   `exists(attr)`),
//! * [`eval`] — evaluation of an expression against an attribute map,
//! * [`profile`] — client profiles: attributes plus declared
//!   transformation capabilities,
//! * [`matching`] — the three-way semantic interpretation of Figure 3:
//!   **Accept**, **AcceptWithTransform** (the client can transform the
//!   content into a form it wants, e.g. MPEG2→JPEG), or **Reject**,
//! * [`message`] — the wire form of a semantic message (selector +
//!   content description + body) with a self-contained binary codec; a
//!   received message is its checked wire bytes, read in place,
//! * [`compile`] / [`intern`] — the compiled fast path: selectors as
//!   flat programs over interned attributes, cached once per session in
//!   a shareable selector store, evaluated against profile snapshots
//!   that the store interns as classes — one per distinct attribute
//!   map — and run once per class, each program remembering its
//!   verdicts,
//! * [`bus`] — a semantic event bus over a `simnet` multicast group:
//!   publish with a selector, and each subscriber's profile decides
//!   locally whether the message is delivered. What a message carries
//!   immutably — its wire bytes, its compiled selector — is shared by
//!   every receiver; the profile, the decision and its statistics are
//!   each endpoint's own.
//!
//! ```
//! use sempubsub::{Profile, Selector, value::AttrValue};
//!
//! let mut profile = Profile::new("client-1");
//! profile.set("media", AttrValue::str("video"));
//! profile.set("color", AttrValue::Bool(true));
//! profile.set("max_size_kb", AttrValue::Int(2048));
//!
//! let sel = Selector::parse("media == 'video' and color and max_size_kb >= 1024").unwrap();
//! assert!(sel.matches(profile.attrs()).unwrap());
//! ```
#![forbid(unsafe_code)]

pub mod ast;
pub mod bus;
pub mod compile;
pub mod eval;
pub mod intern;
pub mod lexer;
pub mod matching;
pub mod message;
pub mod parser;
pub mod profile;
pub mod value;

pub use ast::Expr;
pub use bus::{BusEndpoint, Delivery, Frame};
pub use compile::{
    AttrSource, CacheStatsHandle, CompiledProfile, CompiledSelector, EvalStack, MatchEngine,
    SelectorStore,
};
pub use intern::{Interner, Symbol};
pub use matching::{MatchOutcome, TransformStep};
pub use message::{EventBody, SemanticMessage, WireMessage};
pub use profile::{Profile, TransformCap};
pub use value::AttrValue;

/// Errors raised by the selector language and substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SemError {
    /// Lexical error at byte offset.
    Lex(usize, String),
    /// Parse error.
    Parse(String),
    /// Type error during evaluation.
    Type(String),
    /// Message codec failure.
    Codec(&'static str),
    /// Transport failure.
    Transport(String),
}

impl std::fmt::Display for SemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemError::Lex(pos, m) => write!(f, "lex error at {pos}: {m}"),
            SemError::Parse(m) => write!(f, "parse error: {m}"),
            SemError::Type(m) => write!(f, "type error: {m}"),
            SemError::Codec(m) => write!(f, "codec error: {m}"),
            SemError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for SemError {}

/// A parsed, reusable semantic selector.
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    source: String,
    expr: Expr,
}

impl Selector {
    /// Parse selector text.
    pub fn parse(text: &str) -> Result<Selector, SemError> {
        let tokens = lexer::lex(text)?;
        let expr = parser::parse(&tokens)?;
        Ok(Selector {
            source: text.to_string(),
            expr,
        })
    }

    /// A selector that matches every profile.
    pub fn all() -> Selector {
        Selector::parse("true").expect("literal true parses")
    }

    /// The original selector text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Evaluate against an attribute map.
    pub fn matches(
        &self,
        attrs: &std::collections::BTreeMap<String, AttrValue>,
    ) -> Result<bool, SemError> {
        eval::eval_bool(&self.expr, attrs)
    }
}

impl std::fmt::Display for Selector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.source)
    }
}
