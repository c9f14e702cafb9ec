//! Three-valued (Kleene) abstract interpretation of `WHERE` clauses
//! over per-attribute interval hulls — the decision core of dv-prune.
//!
//! [`abstract_eval`] answers, for one *box* of attribute values (a
//! closed hull per attribute, e.g. the implicit coordinate extents of
//! an aligned file chunk): is the predicate **true for every point**
//! of the box ([`Ternary::True`]), **false for every point**
//! ([`Ternary::False`]), or undecidable ([`Ternary::Unknown`])?
//!
//! Soundness rests on two facts:
//!
//! 1. The environment is a *superset* box: every attribute value any
//!    row of the chunk can carry lies inside its hull (attributes with
//!    no hull — stored data — are simply absent, forcing `Unknown`).
//!    A verdict that holds for every point of the box therefore holds
//!    for every actual row, and a verdict that holds for *no* point
//!    holds for no row.
//! 2. Comparisons decide only from hull endpoints, and any non-finite
//!    endpoint (`NaN` constants, overflowing arithmetic, division by
//!    an interval spanning zero) degrades the subtree to `Unknown` —
//!    IEEE `NaN` semantics can never be the value a verdict turns on.
//!
//! Correlation between multiple occurrences of one attribute is
//! deliberately lost (`X < X` evaluates each side against the same
//! hull independently); the loss only widens verdicts toward
//! `Unknown`, never flips them.

use std::collections::HashMap;

use crate::ast::{ArithOp, CmpOp};
use crate::bind::{BoundExpr, BoundScalar};

/// Closed per-attribute hulls: schema attribute index → `[lo, hi]`.
/// Attributes absent from the map are unbounded (stored data).
pub type HullEnv = HashMap<usize, (f64, f64)>;

/// Kleene three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ternary {
    /// The predicate holds for every point of the box.
    True,
    /// The predicate holds for no point of the box.
    False,
    /// Undecidable from the hulls alone.
    Unknown,
}

impl Ternary {
    pub fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::False, _) | (_, Ternary::False) => Ternary::False,
            (Ternary::True, Ternary::True) => Ternary::True,
            _ => Ternary::Unknown,
        }
    }

    pub fn or(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::True, _) | (_, Ternary::True) => Ternary::True,
            (Ternary::False, Ternary::False) => Ternary::False,
            _ => Ternary::Unknown,
        }
    }
}

impl std::ops::Not for Ternary {
    type Output = Ternary;

    fn not(self) -> Ternary {
        match self {
            Ternary::True => Ternary::False,
            Ternary::False => Ternary::True,
            Ternary::Unknown => Ternary::Unknown,
        }
    }
}

/// Closed-hull evaluation of a scalar. `None` means the hull is
/// unknown or unsound to reason about (UDF call, unbounded attribute,
/// non-finite endpoint, division by an interval spanning zero).
fn scalar_hull(s: &BoundScalar, env: &HullEnv) -> Option<(f64, f64)> {
    let (lo, hi) = match s {
        BoundScalar::Attr(a) => *env.get(a)?,
        BoundScalar::Const(v) => (*v, *v),
        BoundScalar::Func { .. } => return None,
        BoundScalar::Arith { op, lhs, rhs } => {
            let (a, b) = scalar_hull(lhs, env)?;
            let (c, d) = scalar_hull(rhs, env)?;
            match op {
                ArithOp::Add => (a + c, b + d),
                ArithOp::Sub => (a - d, b - c),
                ArithOp::Mul => {
                    let p = [a * c, a * d, b * c, b * d];
                    (
                        p.iter().copied().fold(f64::INFINITY, f64::min),
                        p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    )
                }
                ArithOp::Div => {
                    // A divisor hull containing zero makes the
                    // quotient unbounded (or NaN); refuse to decide.
                    if c <= 0.0 && d >= 0.0 {
                        return None;
                    }
                    let p = [a / c, a / d, b / c, b / d];
                    (
                        p.iter().copied().fold(f64::INFINITY, f64::min),
                        p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    )
                }
            }
        }
    };
    // The conservative non-finite gate: NaN constants, overflow, and
    // every other IEEE edge collapse to "no hull".
    if lo.is_finite() && hi.is_finite() {
        Some((lo, hi))
    } else {
        None
    }
}

/// Decide `lhs op rhs` over closed hulls `[a, b]` and `[c, d]`.
fn cmp_ternary(op: CmpOp, (a, b): (f64, f64), (c, d): (f64, f64)) -> Ternary {
    match op {
        CmpOp::Lt => decide(b < c, a >= d),
        CmpOp::Le => decide(b <= c, a > d),
        CmpOp::Gt => decide(a > d, b <= c),
        CmpOp::Ge => decide(a >= d, b < c),
        CmpOp::Eq => decide(a == b && c == d && a == c, b < c || d < a),
        CmpOp::Ne => !cmp_ternary(CmpOp::Eq, (a, b), (c, d)),
    }
}

fn decide(always: bool, never: bool) -> Ternary {
    if always {
        Ternary::True
    } else if never {
        Ternary::False
    } else {
        Ternary::Unknown
    }
}

/// Abstract-interpret a bound predicate over a hull environment.
///
/// Guarantee (see module docs): `True` ⇒ every row whose attribute
/// values lie inside the hulls satisfies the predicate; `False` ⇒ no
/// such row does. `Unknown` carries no information and is the sound
/// default for UDF subtrees and non-finite arithmetic.
pub fn abstract_eval(e: &BoundExpr, env: &HullEnv) -> Ternary {
    match e {
        BoundExpr::And(l, r) => abstract_eval(l, env).and(abstract_eval(r, env)),
        BoundExpr::Or(l, r) => abstract_eval(l, env).or(abstract_eval(r, env)),
        BoundExpr::Not(inner) => !abstract_eval(inner, env),
        BoundExpr::Cmp { op, lhs, rhs } => match (scalar_hull(lhs, env), scalar_hull(rhs, env)) {
            (Some(l), Some(r)) => cmp_ternary(*op, l, r),
            _ => Ternary::Unknown,
        },
        BoundExpr::InList { expr, list, negated } => {
            let Some(h) = scalar_hull(expr, env) else { return Ternary::Unknown };
            // Ternary OR of equalities. A member without a hull blocks
            // a `False` conclusion but a point-equal member still
            // proves `True` (any-semantics).
            let mut any = Ternary::False;
            for item in list {
                any = match scalar_hull(item, env) {
                    Some(m) => any.or(cmp_ternary(CmpOp::Eq, h, m)),
                    None => any.or(Ternary::Unknown),
                };
            }
            if *negated {
                !any
            } else {
                any
            }
        }
        BoundExpr::Between { expr, lo, hi, negated } => {
            let v = match (scalar_hull(expr, env), scalar_hull(lo, env), scalar_hull(hi, env)) {
                (Some(x), Some(l), Some(h)) => {
                    cmp_ternary(CmpOp::Ge, x, l).and(cmp_ternary(CmpOp::Le, x, h))
                }
                _ => Ternary::Unknown,
            };
            if *negated {
                !v
            } else {
                v
            }
        }
    }
}

/// A subexpression that prevents the abstract interpreter from ever
/// concluding anything about part of a predicate (DV303 material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PruneBlocker {
    /// A UDF call: opaque to interval reasoning. `attrs` are the
    /// schema attributes its arguments read, sorted and deduplicated.
    Udf { slot: usize, attrs: Vec<usize> },
    /// A non-finite literal (`NaN`/overflowing constant) whose IEEE
    /// comparison semantics no interval captures.
    NonFiniteConst,
}

/// Collect the blockers of a predicate, in syntax order (deduplicated).
pub fn prune_blockers(e: &BoundExpr) -> Vec<PruneBlocker> {
    let mut out = Vec::new();
    walk_expr(e, &mut out);
    out.dedup();
    out
}

fn walk_expr(e: &BoundExpr, out: &mut Vec<PruneBlocker>) {
    match e {
        BoundExpr::And(l, r) | BoundExpr::Or(l, r) => {
            walk_expr(l, out);
            walk_expr(r, out);
        }
        BoundExpr::Not(inner) => walk_expr(inner, out),
        BoundExpr::Cmp { lhs, rhs, .. } => {
            walk_scalar(lhs, out);
            walk_scalar(rhs, out);
        }
        BoundExpr::InList { expr, list, .. } => {
            walk_scalar(expr, out);
            for item in list {
                walk_scalar(item, out);
            }
        }
        BoundExpr::Between { expr, lo, hi, .. } => {
            walk_scalar(expr, out);
            walk_scalar(lo, out);
            walk_scalar(hi, out);
        }
    }
}

fn walk_scalar(s: &BoundScalar, out: &mut Vec<PruneBlocker>) {
    match s {
        BoundScalar::Attr(_) => {}
        BoundScalar::Const(v) => {
            if !v.is_finite() {
                out.push(PruneBlocker::NonFiniteConst);
            }
        }
        BoundScalar::Func { slot, args } => {
            let mut attrs = Vec::new();
            args.iter().for_each(|a| scalar_attrs(a, &mut attrs));
            attrs.sort_unstable();
            attrs.dedup();
            out.push(PruneBlocker::Udf { slot: *slot, attrs });
            for a in args {
                walk_scalar(a, out);
            }
        }
        BoundScalar::Arith { lhs, rhs, .. } => {
            walk_scalar(lhs, out);
            walk_scalar(rhs, out);
        }
    }
}

/// Schema attribute indices a predicate reads, sorted and deduplicated.
pub fn predicate_attrs(e: &BoundExpr) -> Vec<usize> {
    fn expr(e: &BoundExpr, out: &mut Vec<usize>) {
        match e {
            BoundExpr::And(l, r) | BoundExpr::Or(l, r) => {
                expr(l, out);
                expr(r, out);
            }
            BoundExpr::Not(i) => expr(i, out),
            BoundExpr::Cmp { lhs, rhs, .. } => {
                scalar_attrs(lhs, out);
                scalar_attrs(rhs, out);
            }
            BoundExpr::InList { expr: x, list, .. } => {
                scalar_attrs(x, out);
                list.iter().for_each(|i| scalar_attrs(i, out));
            }
            BoundExpr::Between { expr: x, lo, hi, .. } => {
                scalar_attrs(x, out);
                scalar_attrs(lo, out);
                scalar_attrs(hi, out);
            }
        }
    }
    let mut out = Vec::new();
    expr(e, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// Schema attribute indices a scalar reads, in syntax order.
fn scalar_attrs(s: &BoundScalar, out: &mut Vec<usize>) {
    match s {
        BoundScalar::Attr(a) => out.push(*a),
        BoundScalar::Const(_) => {}
        BoundScalar::Func { args, .. } => args.iter().for_each(|a| scalar_attrs(a, out)),
        BoundScalar::Arith { lhs, rhs, .. } => {
            scalar_attrs(lhs, out);
            scalar_attrs(rhs, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::parser::parse;
    use crate::udf::UdfRegistry;
    use dv_types::{Attribute, DataType, Schema};

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Attribute::new("REL", DataType::Short),  // 0
                Attribute::new("TIME", DataType::Int),   // 1
                Attribute::new("SOIL", DataType::Float), // 2
                Attribute::new("X", DataType::Float),    // 3
            ],
        )
        .unwrap()
    }

    fn pred(sql: &str) -> BoundExpr {
        let q = parse(sql).unwrap();
        let b = bind(&q, &schema(), &UdfRegistry::with_builtins()).unwrap();
        b.predicate.unwrap()
    }

    fn env(pairs: &[(usize, f64, f64)]) -> HullEnv {
        pairs.iter().map(|&(a, lo, hi)| (a, (lo, hi))).collect()
    }

    #[test]
    fn comparisons_decide_on_disjoint_hulls() {
        let p = pred("SELECT REL FROM T WHERE TIME < 10");
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 9.0)])), Ternary::True);
        assert_eq!(abstract_eval(&p, &env(&[(1, 10.0, 50.0)])), Ternary::False);
        assert_eq!(abstract_eval(&p, &env(&[(1, 5.0, 15.0)])), Ternary::Unknown);
    }

    #[test]
    fn equality_needs_points() {
        let p = pred("SELECT REL FROM T WHERE TIME = 7");
        assert_eq!(abstract_eval(&p, &env(&[(1, 7.0, 7.0)])), Ternary::True);
        assert_eq!(abstract_eval(&p, &env(&[(1, 8.0, 20.0)])), Ternary::False);
        assert_eq!(abstract_eval(&p, &env(&[(1, 5.0, 9.0)])), Ternary::Unknown);
    }

    #[test]
    fn unbounded_attr_is_unknown() {
        let p = pred("SELECT REL FROM T WHERE SOIL > 0.5");
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 9.0)])), Ternary::Unknown);
    }

    #[test]
    fn kleene_connectives() {
        let p = pred("SELECT REL FROM T WHERE TIME < 10 AND SOIL > 0.5");
        // False AND Unknown = False.
        assert_eq!(abstract_eval(&p, &env(&[(1, 20.0, 30.0)])), Ternary::False);
        // True AND Unknown = Unknown.
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 5.0)])), Ternary::Unknown);
        let p = pred("SELECT REL FROM T WHERE TIME < 10 OR SOIL > 0.5");
        // True OR Unknown = True.
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 5.0)])), Ternary::True);
        // False OR Unknown = Unknown.
        assert_eq!(abstract_eval(&p, &env(&[(1, 20.0, 30.0)])), Ternary::Unknown);
    }

    #[test]
    fn negation_is_exact() {
        let p = pred("SELECT REL FROM T WHERE NOT (TIME < 10)");
        assert_eq!(abstract_eval(&p, &env(&[(1, 10.0, 50.0)])), Ternary::True);
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 9.0)])), Ternary::False);
    }

    #[test]
    fn arithmetic_over_attributes_decides() {
        // attribute_ranges gives up on Arith-over-attr; the hull
        // evaluator does not — this is the bench's selective query.
        let p = pred("SELECT REL FROM T WHERE TIME * 10 <= 40");
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 4.0)])), Ternary::True);
        assert_eq!(abstract_eval(&p, &env(&[(1, 5.0, 50.0)])), Ternary::False);
        assert_eq!(abstract_eval(&p, &env(&[(1, 3.0, 6.0)])), Ternary::Unknown);
    }

    #[test]
    fn division_by_zero_spanning_interval_is_unknown() {
        let p = pred("SELECT REL FROM T WHERE 10 / TIME > 1");
        assert_eq!(abstract_eval(&p, &env(&[(1, -1.0, 1.0)])), Ternary::Unknown);
        assert_eq!(abstract_eval(&p, &env(&[(1, 20.0, 40.0)])), Ternary::False);
    }

    #[test]
    fn non_finite_constant_is_unknown_and_a_blocker() {
        // 1e999 overflows f64 parsing to +inf.
        let p = pred("SELECT REL FROM T WHERE TIME < 1e999");
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 9.0)])), Ternary::Unknown);
        assert_eq!(prune_blockers(&p), vec![PruneBlocker::NonFiniteConst]);
    }

    #[test]
    fn udf_is_unknown_and_a_blocker() {
        let p = pred("SELECT REL FROM T WHERE SPEED(X, X, X) < 30.0");
        assert_eq!(abstract_eval(&p, &env(&[(3, 0.0, 1.0)])), Ternary::Unknown);
        assert!(
            matches!(&prune_blockers(&p)[..], [PruneBlocker::Udf { attrs, .. }] if attrs == &[3])
        );
        // The call's argument attributes are recorded, sorted.
        let p = pred("SELECT REL FROM T WHERE SPEED(X, TIME, X + REL) < 30.0");
        assert!(
            matches!(&prune_blockers(&p)[..], [PruneBlocker::Udf { attrs, .. }] if attrs == &[0, 1, 3])
        );
        // But a decidable conjunct still forces False through.
        let p = pred("SELECT REL FROM T WHERE TIME > 100 AND SPEED(X, X, X) < 30.0");
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 50.0)])), Ternary::False);
    }

    #[test]
    fn in_list_and_between() {
        let p = pred("SELECT REL FROM T WHERE REL IN (1, 3)");
        assert_eq!(abstract_eval(&p, &env(&[(0, 3.0, 3.0)])), Ternary::True);
        assert_eq!(abstract_eval(&p, &env(&[(0, 4.0, 9.0)])), Ternary::False);
        assert_eq!(abstract_eval(&p, &env(&[(0, 1.0, 2.0)])), Ternary::Unknown);
        let p = pred("SELECT REL FROM T WHERE TIME BETWEEN 10 AND 20");
        assert_eq!(abstract_eval(&p, &env(&[(1, 12.0, 18.0)])), Ternary::True);
        assert_eq!(abstract_eval(&p, &env(&[(1, 30.0, 40.0)])), Ternary::False);
        let p = pred("SELECT REL FROM T WHERE TIME NOT BETWEEN 10 AND 20");
        assert_eq!(abstract_eval(&p, &env(&[(1, 30.0, 40.0)])), Ternary::True);
        assert_eq!(abstract_eval(&p, &env(&[(1, 12.0, 18.0)])), Ternary::False);
    }

    #[test]
    fn correlation_loss_widens_not_flips() {
        // X < X is false for every row, but the hull evaluator loses
        // the correlation; it must answer Unknown, never True.
        let p = pred("SELECT REL FROM T WHERE TIME < TIME");
        assert_eq!(abstract_eval(&p, &env(&[(1, 1.0, 9.0)])), Ternary::Unknown);
        // A point hull recovers the correlation exactly.
        assert_eq!(abstract_eval(&p, &env(&[(1, 5.0, 5.0)])), Ternary::False);
    }

    #[test]
    fn predicate_attrs_walks_everything() {
        let p = pred("SELECT REL FROM T WHERE TIME < 10 AND SPEED(X, X, X) < SOIL + 1");
        assert_eq!(predicate_attrs(&p), vec![1, 2, 3]);
    }
}
