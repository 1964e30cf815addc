//! Selector algebra: satisfiability and covering/subsumption.
//!
//! The overlay needs to reason about selectors *without* a profile in
//! hand: a broker aggregates the subscriptions living behind each link
//! and must know when one advertisement makes another redundant. The
//! two judgements are
//!
//! * [`covers`]`(a, b)` — **sound subsumption**: `true` only if every
//!   attribute map accepted by `b` is also accepted by `a` (where
//!   "accepted" means [`Selector::matches`] returns `Ok(true)`; an
//!   evaluation error rejects, exactly as the bus endpoint treats it).
//!   The check is necessarily incomplete — selector equivalence over an
//!   open attribute universe is not decidable by syntax alone — so
//!   `false` means "not provably covered", never "provably disjoint".
//! * [`satisfiable`]`(e)` — a cheap emptiness screen: `false` only when
//!   the expression provably accepts no map at all, so dead
//!   advertisements can be dropped from routing tables.
//!
//! [`merge_covering`] applies `covers` to a set of selectors, dropping
//! every selector subsumed by another. Because only covered entries are
//! removed, the merged set accepts *exactly* the union of its inputs —
//! the invariant the advertisement proptests pin.
//!
//! A subtlety the rules respect throughout: evaluation is
//! short-circuit and type errors reject, so `or` is *not* symmetric —
//! `x or y` rejects a map on which `x` errors even when `y` would
//! accept it. The disjunction rule therefore only uses the right
//! branch when the left is provably error-free.

use sempubsub::ast::{CmpOp, Expr};
use sempubsub::eval::compare;
use sempubsub::{AttrValue, Selector};

/// Does `a` subsume `b` (every map `b` accepts, `a` accepts)?
///
/// Sound and incomplete; see the module docs for the exact contract.
pub fn covers(a: &Selector, b: &Selector) -> bool {
    covers_expr(a.expr(), b.expr())
}

/// [`covers`] on raw expressions.
///
/// Sequent-style decomposition: invertible rules first (`b`'s `or`,
/// `a`'s `and` — both branches must hold), then branch choices (`a`'s
/// `or`, `b`'s `and`), then the atomic comparison rules.
pub fn covers_expr(a: &Expr, b: &Expr) -> bool {
    if a == b || is_true(a) || is_false(b) {
        return true;
    }
    // accepts(x) ∪ accepts(y) ⊇ accepts(x or y), so covering both
    // branches covers the disjunction.
    if let Expr::Or(x, y) = b {
        return covers_expr(a, x) && covers_expr(a, y);
    }
    // accepts(x and y) = accepts(x) ∩ accepts(y) under short-circuit
    // evaluation, so `a` must cover `b` through each conjunct.
    if let Expr::And(x, y) = a {
        return covers_expr(x, b) && covers_expr(y, b);
    }
    if let Expr::Or(x, y) = a {
        // A map accepted by `x` short-circuits the disjunction, so the
        // left branch always widens `a`. The right branch only widens
        // it for maps on which `x` evaluates cleanly — an error in `x`
        // rejects the whole disjunction — hence the guard.
        if covers_expr(x, b) || (error_free(x) && covers_expr(y, b)) {
            return true;
        }
    }
    if let Expr::And(x, y) = b {
        // A map accepted by the conjunction was accepted by each
        // conjunct (both evaluated to true), so covering either
        // conjunct suffices.
        if covers_expr(a, x) || covers_expr(a, y) {
            return true;
        }
    }
    covers_atomic(a, b)
}

/// Is there provably *no* map the expression accepts? Returns `false`
/// only for provable emptiness; `true` means "possibly satisfiable".
pub fn satisfiable(e: &Expr) -> bool {
    match e {
        Expr::Literal(AttrValue::Bool(false)) => false,
        Expr::Or(x, y) => satisfiable(x) || satisfiable(y),
        Expr::And(x, y) => {
            if !satisfiable(x) || !satisfiable(y) {
                return false;
            }
            // Two comparisons on the same attribute whose accepted
            // values provably cannot intersect.
            if let (Some(cx), Some(cy)) = (as_attr_cmp(x), as_attr_cmp(y)) {
                if cx.attr == cy.attr && conjunction_empty(&cx, &cy) {
                    return false;
                }
            }
            true
        }
        _ => true,
    }
}

/// Drop every selector covered by another in the set. Returns the
/// survivors (a later selector can retroactively subsume earlier ones)
/// and the number of selectors merged away. The accepted set of the
/// result is exactly the union of the accepted sets of the inputs.
pub fn merge_covering(selectors: Vec<Selector>) -> (Vec<Selector>, u64) {
    let mut kept: Vec<Selector> = Vec::new();
    let mut merged = 0u64;
    for sel in selectors {
        if kept.iter().any(|k| covers(k, &sel)) {
            merged += 1;
            continue;
        }
        let before = kept.len();
        kept.retain(|k| !covers(&sel, k));
        merged += (before - kept.len()) as u64;
        kept.push(sel);
    }
    (kept, merged)
}

fn is_true(e: &Expr) -> bool {
    matches!(e, Expr::Literal(AttrValue::Bool(true)))
}

fn is_false(e: &Expr) -> bool {
    matches!(e, Expr::Literal(AttrValue::Bool(false)))
}

/// Can the expression raise a type error on *some* attribute map?
/// Conservative: `false` only when provably error-free on every map.
fn error_free(e: &Expr) -> bool {
    match e {
        // A bare attribute in boolean position errors on non-bool
        // values; a non-bool literal always errors there.
        Expr::Attr(_) => false,
        Expr::Literal(v) => matches!(v, AttrValue::Bool(_)),
        Expr::Exists(_) => true,
        // Comparisons never error: missing attributes compare false
        // and type mismatches are Ordering-absent, not errors — as
        // long as the operands themselves are plain values.
        Expr::Cmp(_, l, r) => operand_error_free(l) && operand_error_free(r),
        Expr::Not(x) => error_free(x),
        // Short-circuiting could skip an erroring right side, but
        // requiring both keeps the judgement map-independent.
        Expr::And(x, y) | Expr::Or(x, y) => error_free(x) && error_free(y),
    }
}

fn operand_error_free(e: &Expr) -> bool {
    match e {
        Expr::Attr(_) | Expr::Literal(_) => true,
        other => error_free(other),
    }
}

/// A comparison with the attribute on one side and a literal on the
/// other, normalised to attribute-on-the-left. A bare boolean
/// attribute is recognised as `attr == true`: *as a whole selector*
/// both accept exactly the maps binding the attribute to `Bool(true)`
/// (non-bool values error, and errors reject).
struct AttrCmp<'a> {
    attr: &'a str,
    op: CmpOp,
    lit: &'a AttrValue,
}

const LIT_TRUE: AttrValue = AttrValue::Bool(true);

fn flip(op: CmpOp) -> Option<CmpOp> {
    Some(match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        // `in` / `contains` are not symmetric in any useful way.
        CmpOp::In | CmpOp::Contains => return None,
    })
}

fn as_attr_cmp(e: &Expr) -> Option<AttrCmp<'_>> {
    match e {
        Expr::Attr(attr) => Some(AttrCmp {
            attr,
            op: CmpOp::Eq,
            lit: &LIT_TRUE,
        }),
        Expr::Cmp(op, l, r) => {
            if let (Expr::Attr(attr), Expr::Literal(lit)) = (l.as_ref(), r.as_ref()) {
                return Some(AttrCmp { attr, op: *op, lit });
            }
            if let (Expr::Literal(lit), Expr::Attr(attr)) = (l.as_ref(), r.as_ref()) {
                if let Some(op) = flip(*op) {
                    return Some(AttrCmp { attr, op, lit });
                }
            }
            None
        }
        _ => None,
    }
}

fn as_num(v: &AttrValue) -> Option<f64> {
    match v {
        AttrValue::Int(i) => Some(*i as f64),
        AttrValue::Float(f) => Some(*f),
        _ => None,
    }
}

/// The finite set of values a comparison restricts its attribute to,
/// when it does: `x == v` restricts to `{v}`, `x in [..]` to the list
/// elements. `None` means the accepted values are not finitely
/// enumerable from the syntax.
fn finite_candidates<'a>(c: &AttrCmp<'a>) -> Option<Vec<&'a AttrValue>> {
    match (c.op, c.lit) {
        (CmpOp::Eq, lit) => Some(vec![lit]),
        (CmpOp::In, AttrValue::List(items)) => Some(items.iter().collect()),
        _ => None,
    }
}

/// Numeric interval semantics for the ordering operators:
/// `(lo, lo_closed, hi, hi_closed)`.
fn interval(c: &AttrCmp<'_>) -> Option<(f64, bool, f64, bool)> {
    let v = as_num(c.lit)?;
    Some(match c.op {
        CmpOp::Eq => (v, true, v, true),
        CmpOp::Lt => (f64::NEG_INFINITY, false, v, false),
        CmpOp::Le => (f64::NEG_INFINITY, false, v, true),
        CmpOp::Gt => (v, false, f64::INFINITY, false),
        CmpOp::Ge => (v, true, f64::INFINITY, false),
        _ => return None,
    })
}

fn interval_superset(outer: (f64, bool, f64, bool), inner: (f64, bool, f64, bool)) -> bool {
    let (olo, oloc, ohi, ohic) = outer;
    let (ilo, iloc, ihi, ihic) = inner;
    let lo_ok = olo < ilo || (olo == ilo && (oloc || !iloc));
    let hi_ok = ohi > ihi || (ohi == ihi && (ohic || !ihic));
    lo_ok && hi_ok
}

fn intervals_disjoint(x: (f64, bool, f64, bool), y: (f64, bool, f64, bool)) -> bool {
    let (xlo, xloc, xhi, xhic) = x;
    let (ylo, yloc, yhi, yhic) = y;
    xhi < ylo || (xhi == ylo && !(xhic && yloc)) || yhi < xlo || (yhi == xlo && !(yhic && xloc))
}

fn covers_atomic(a: &Expr, b: &Expr) -> bool {
    // exists(n) covers any comparison on n: a comparison evaluates
    // true only when the attribute resolved to a value.
    if let Expr::Exists(name) = a {
        if let Some(bc) = as_attr_cmp(b) {
            return bc.attr == name;
        }
        return false;
    }
    let (Some(ac), Some(bc)) = (as_attr_cmp(a), as_attr_cmp(b)) else {
        return false;
    };
    if ac.attr != bc.attr {
        return false;
    }
    // b restricts the attribute to finitely many values: check each
    // candidate against a's comparison directly. Sound because two
    // semantically equal values satisfy exactly the same comparisons.
    if let Some(cands) = finite_candidates(&bc) {
        return !cands.is_empty() && cands.iter().all(|v| compare(ac.op, v, ac.lit));
    }
    // Numeric interval containment for the ordering operators: their
    // accepted maps are exactly {attr present, numeric, in interval},
    // so a superset interval covers.
    if let (Some(ia), Some(ib)) = (interval(&ac), interval(&bc)) {
        return interval_superset(ia, ib);
    }
    // `contains` with semantically equal needles accepts identical
    // sets (structural equality already handled the trivial case).
    if ac.op == CmpOp::Contains && bc.op == CmpOp::Contains {
        return ac.lit.sem_eq(bc.lit);
    }
    // `x != u` covers any ordering comparison whose interval excludes
    // u: everything b accepts is numeric and provably not equal to u.
    if ac.op == CmpOp::Ne {
        if let (Some(av), Some(ib)) = (as_num(ac.lit), interval(&bc)) {
            return intervals_disjoint((av, true, av, true), ib);
        }
    }
    false
}

fn conjunction_empty(x: &AttrCmp<'_>, y: &AttrCmp<'_>) -> bool {
    if let Some(cands) = finite_candidates(x) {
        return cands.iter().all(|v| !compare(y.op, v, y.lit));
    }
    if let Some(cands) = finite_candidates(y) {
        return cands.iter().all(|v| !compare(x.op, v, x.lit));
    }
    if let (Some(ix), Some(iy)) = (interval(x), interval(y)) {
        return intervals_disjoint(ix, iy);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(s: &str) -> Selector {
        Selector::parse(s).expect("test selector parses")
    }

    #[test]
    fn reflexive_and_true_cover() {
        for s in ["x == 1", "a contains 'v'", "x > 3 and y < 2", "true"] {
            assert!(covers(&sel(s), &sel(s)), "{s} covers itself");
            assert!(covers(&sel("true"), &sel(s)), "true covers {s}");
        }
    }

    #[test]
    fn interval_containment() {
        assert!(covers(&sel("x > 3"), &sel("x > 5")));
        assert!(covers(&sel("x >= 3"), &sel("x > 3")));
        assert!(!covers(&sel("x > 3"), &sel("x >= 3")));
        assert!(covers(&sel("x < 10"), &sel("x <= 9")));
        assert!(covers(&sel("x <= 9.5"), &sel("x == 4")));
        assert!(!covers(&sel("x > 5"), &sel("x > 3")));
        // Int/Float coercion matches the eval semantics.
        assert!(covers(&sel("x >= 3.0"), &sel("x == 3")));
    }

    #[test]
    fn finite_sets_and_membership() {
        assert!(covers(
            &sel("x in ['a', 'b', 'c']"),
            &sel("x in ['b', 'a']")
        ));
        assert!(covers(&sel("x in ['a', 'b']"), &sel("x == 'a'")));
        assert!(!covers(&sel("x in ['a']"), &sel("x in ['a', 'z']")));
        assert!(covers(&sel("x != 7"), &sel("x == 3")));
        assert!(covers(&sel("x != 7"), &sel("x > 8")));
        assert!(!covers(&sel("x != 7"), &sel("x > 5")));
    }

    #[test]
    fn structural_rules() {
        assert!(covers(&sel("x > 1 or y == 2"), &sel("x > 4")));
        assert!(covers(&sel("x > 1"), &sel("x > 4 and y == 2")));
        assert!(covers(&sel("x > 1 or x <= 1"), &sel("x > 9 or x == 0")));
        assert!(!covers(&sel("x > 1 and y == 2"), &sel("x > 4")));
        // Bare boolean attribute == `flag == true` as a whole selector.
        assert!(covers(&sel("flag"), &sel("flag == true")));
        assert!(covers(&sel("flag == true"), &sel("flag")));
    }

    #[test]
    fn or_right_branch_respects_error_semantics() {
        // `flag or x > 1` rejects any map where `flag` is non-bool
        // (type error), so it must NOT claim to cover `x > 1`.
        assert!(!covers(&sel("flag or x > 1"), &sel("x > 4")));
        // With an error-free left branch the right branch counts.
        assert!(covers(&sel("y == 2 or x > 1"), &sel("x > 4")));
        // And the left branch always counts.
        assert!(covers(&sel("x > 1 or flag"), &sel("x > 4")));
    }

    #[test]
    fn exists_covers_comparisons() {
        assert!(covers(&sel("exists(enc)"), &sel("enc == 'jpeg'")));
        assert!(covers(&sel("exists(enc)"), &sel("enc in ['a', 'b']")));
        assert!(covers(&sel("exists(enc)"), &sel("exists(enc)")));
        assert!(!covers(&sel("exists(enc)"), &sel("other == 1")));
        // The converse is unsound and must not hold.
        assert!(!covers(&sel("enc == 'jpeg'"), &sel("exists(enc)")));
    }

    #[test]
    fn contains_needs_equal_needles() {
        assert!(covers(
            &sel("interested_in contains 'image'"),
            &sel("interested_in contains 'image'")
        ));
        assert!(!covers(
            &sel("interested_in contains 'image'"),
            &sel("interested_in contains 'text'")
        ));
    }

    #[test]
    fn satisfiability_screens() {
        assert!(satisfiable(sel("x > 1").expr()));
        assert!(!satisfiable(sel("false").expr()));
        assert!(!satisfiable(sel("x > 5 and x < 3").expr()));
        assert!(!satisfiable(sel("x == 'a' and x == 'b'").expr()));
        assert!(!satisfiable(sel("x == 2 and x > 7").expr()));
        assert!(satisfiable(sel("x > 5 and x < 6").expr()));
        assert!(!satisfiable(sel("false or (y == 1 and false)").expr()));
        // Incomplete by design: empty but not provably so here.
        assert!(satisfiable(sel("not true").expr()));
    }

    #[test]
    fn merge_drops_covered_only() {
        let (kept, merged) = merge_covering(vec![
            sel("x > 3"),
            sel("x > 5"),      // covered by x > 3
            sel("y == 'a'"),   // independent
            sel("x > 1"),      // retroactively covers x > 3
            sel("y in ['a']"), // covered by y == 'a'
        ]);
        let sources: Vec<&str> = kept.iter().map(|s| s.source()).collect();
        assert_eq!(sources, vec!["y == 'a'", "x > 1"]);
        assert_eq!(merged, 3);
    }
}
