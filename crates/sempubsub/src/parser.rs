//! Recursive-descent parser for the selector language.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr    := or
//! or      := and ( 'or' and )*
//! and     := unary ( 'and' unary )*
//! unary   := 'not' unary | cmp
//! cmp     := operand ( cmpop operand )?
//! operand := literal | list | ident | 'exists' '(' ident ')' | '(' expr ')'
//! list    := '[' ( literal ( ',' literal )* )? ']'
//! ```
//!
//! A bare identifier used where a boolean is expected refers to a
//! boolean attribute (`color` ≡ `color == true` when evaluated).
//!
//! Selectors arrive from any peer, and compile, eval, covering and drop
//! all recurse over the tree, so its depth is bounded by `MAX_DEPTH`:
//! deeper input is a parse error, not a stack overflow.

use crate::ast::{CmpOp, Expr};
use crate::lexer::Token;
use crate::value::AttrValue;
use crate::SemError;

/// How many levels a selector's tree may nest. A leaf is one level;
/// each operator, `not` and parenthesised group adds one, so a flat
/// `a or a or …` chain is as deep as it has terms. The message codec
/// bounds `List` values with the same number.
pub(crate) const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Groups and `not`s open around the current token.
    open: usize,
}

/// An expression and the depth of its tree.
type Parsed = Result<(Expr, usize), SemError>;

fn too_deep() -> SemError {
    SemError::Parse(format!("selector nests deeper than {MAX_DEPTH} levels"))
}

/// The depth of a node over children at most `depth` deep.
fn above(depth: usize) -> Result<usize, SemError> {
    if depth >= MAX_DEPTH {
        return Err(too_deep());
    }
    Ok(depth + 1)
}

/// Parse a token stream into an expression.
pub fn parse(tokens: &[Token]) -> Result<Expr, SemError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
    };
    let (expr, _) = p.expr()?;
    if p.pos != tokens.len() {
        return Err(SemError::Parse(format!(
            "trailing tokens starting at {:?}",
            tokens[p.pos]
        )));
    }
    Ok(expr)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), SemError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(SemError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Enter a group or a `not`: everything inside sits one level
    /// deeper, so refuse before recursing once no leaf could fit.
    fn enter(&mut self) -> Result<(), SemError> {
        self.open += 1;
        if self.open >= MAX_DEPTH {
            return Err(too_deep());
        }
        Ok(())
    }

    fn expr(&mut self) -> Parsed {
        self.or()
    }

    fn or(&mut self) -> Parsed {
        let (mut left, mut depth) = self.and()?;
        while self.eat(&Token::Or) {
            let (right, d) = self.and()?;
            depth = above(depth.max(d))?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn and(&mut self) -> Parsed {
        let (mut left, mut depth) = self.unary()?;
        while self.eat(&Token::And) {
            let (right, d) = self.unary()?;
            depth = above(depth.max(d))?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn unary(&mut self) -> Parsed {
        if self.eat(&Token::Not) {
            self.enter()?;
            let (inner, d) = self.unary()?;
            self.open -= 1;
            Ok((Expr::Not(Box::new(inner)), above(d)?))
        } else {
            self.cmp()
        }
    }

    fn cmp(&mut self) -> Parsed {
        let (left, dl) = self.operand()?;
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::In) => CmpOp::In,
            Some(Token::Contains) => CmpOp::Contains,
            _ => return Ok((left, dl)),
        };
        self.pos += 1;
        let (right, dr) = self.operand()?;
        Ok((
            Expr::Cmp(op, Box::new(left), Box::new(right)),
            above(dl.max(dr))?,
        ))
    }

    fn operand(&mut self) -> Parsed {
        if self.eat(&Token::LParen) {
            self.enter()?;
            let (inner, d) = self.expr()?;
            self.open -= 1;
            self.expect(Token::RParen)?;
            return Ok((inner, above(d)?));
        }
        let leaf = match self.next().cloned() {
            Some(Token::Int(v)) => Expr::Literal(AttrValue::Int(v)),
            Some(Token::Float(v)) => Expr::Literal(AttrValue::Float(v)),
            Some(Token::Str(s)) => Expr::Literal(AttrValue::Str(s)),
            Some(Token::True) => Expr::Literal(AttrValue::Bool(true)),
            Some(Token::False) => Expr::Literal(AttrValue::Bool(false)),
            Some(Token::Ident(name)) => Expr::Attr(name),
            Some(Token::Exists) => {
                self.expect(Token::LParen)?;
                let name = match self.next().cloned() {
                    Some(Token::Ident(name)) => name,
                    other => {
                        return Err(SemError::Parse(format!(
                            "exists() needs an attribute name, found {other:?}"
                        )))
                    }
                };
                self.expect(Token::RParen)?;
                Expr::Exists(name)
            }
            Some(Token::LBracket) => {
                let mut items = Vec::new();
                if !self.eat(&Token::RBracket) {
                    loop {
                        match self.next().cloned() {
                            Some(Token::Int(v)) => items.push(AttrValue::Int(v)),
                            Some(Token::Float(v)) => items.push(AttrValue::Float(v)),
                            Some(Token::Str(s)) => items.push(AttrValue::Str(s)),
                            Some(Token::True) => items.push(AttrValue::Bool(true)),
                            Some(Token::False) => items.push(AttrValue::Bool(false)),
                            other => {
                                return Err(SemError::Parse(format!(
                                    "lists hold literals only, found {other:?}"
                                )))
                            }
                        }
                        if self.eat(&Token::RBracket) {
                            break;
                        }
                        self.expect(Token::Comma)?;
                    }
                }
                Expr::Literal(AttrValue::List(items))
            }
            other => return Err(SemError::Parse(format!("unexpected {other:?}"))),
        };
        Ok((leaf, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn p(s: &str) -> Expr {
        parse(&lex(s).unwrap()).unwrap()
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        // a or b and c  ==  a or (b and c)
        let e = p("a or b and c");
        match e {
            Expr::Or(left, right) => {
                assert_eq!(*left, Expr::Attr("a".into()));
                assert!(matches!(*right, Expr::And(_, _)));
            }
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn not_binds_tightest() {
        let e = p("not a and b");
        match e {
            Expr::And(left, _) => assert!(matches!(*left, Expr::Not(_))),
            other => panic!("expected And at top, got {other:?}"),
        }
    }

    #[test]
    fn parens_override() {
        let e = p("(a or b) and c");
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn comparisons_and_lists() {
        let e = p("enc in ['jpeg', 'mpeg2']");
        match e {
            Expr::Cmp(CmpOp::In, left, right) => {
                assert_eq!(*left, Expr::Attr("enc".into()));
                assert!(matches!(*right, Expr::Literal(AttrValue::List(_))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exists_parses() {
        assert_eq!(p("exists(color)"), Expr::Exists("color".into()));
    }

    #[test]
    fn empty_list() {
        assert_eq!(
            p("x in []"),
            Expr::Cmp(
                CmpOp::In,
                Box::new(Expr::Attr("x".into())),
                Box::new(Expr::Literal(AttrValue::List(vec![])))
            )
        );
    }

    #[test]
    fn paper_figure3_profiles_parse() {
        // The three profiles of Figure 3, expressed as interest selectors.
        p("media == 'video' and color == true and encoding == 'mpeg2' and size_mb <= 1");
        p("media == 'video' and color == false and not exists(encoding)");
        p("media == 'video' and color == true and encoding == 'jpeg'");
    }

    #[test]
    fn errors() {
        assert!(parse(&lex("a ==").unwrap()).is_err());
        assert!(parse(&lex("a b").unwrap()).is_err());
        assert!(parse(&lex("(a").unwrap()).is_err());
        assert!(
            parse(&lex("[a]").unwrap()).is_err(),
            "idents not allowed in lists"
        );
        assert!(parse(&lex("exists(3)").unwrap()).is_err());
        assert!(parse(&lex("").unwrap()).is_err());
    }

    /// A tree `levels` deep three ways: groups around a leaf, `not`s
    /// before one, and a flat `or` chain.
    fn nestings(levels: usize) -> [String; 3] {
        let n = levels - 1;
        [
            format!("{}true{}", "(".repeat(n), ")".repeat(n)),
            format!("{}true", "not ".repeat(n)),
            vec!["true"; levels].join(" or "),
        ]
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let store = crate::SelectorStore::with_capacity(8);
        for text in nestings(MAX_DEPTH) {
            let sel = crate::Selector::parse(&text).expect("at the cap");
            assert!(sel.matches(&Default::default()).is_ok());
            assert!(store.compile(&text).is_ok());
        }
        for text in nestings(MAX_DEPTH + 1) {
            assert!(
                matches!(crate::Selector::parse(&text), Err(SemError::Parse(_))),
                "one past the cap: {:.40}…",
                text
            );
        }
    }
}
