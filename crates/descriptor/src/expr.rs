//! Integer affine expressions in loop bounds and dir references.
//!
//! The layout component parameterizes loop bounds and file bindings by
//! variables such as `$DIRID` and `$REL`
//! (`LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1`). Expressions are
//! integer-valued with `+ - * / %` (C semantics: truncating division)
//! and evaluate under an environment binding every referenced
//! variable.

use std::collections::BTreeMap;
use std::fmt;

use dv_types::{DvError, Result};

/// Variable environment: `$NAME` → value.
pub type Env = BTreeMap<String, i64>;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// An integer expression over `$`-variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Int(i64),
    Var(String),
    Bin { op: Op, lhs: Box<Expr>, rhs: Box<Expr> },
    Neg(Box<Expr>),
}

impl Expr {
    /// Evaluate under `env`. Unbound variables, division by zero and
    /// results outside the 64-bit range are semantic errors (reported
    /// with the variable name or the operation).
    pub fn eval(&self, env: &Env) -> Result<i64> {
        let overflow =
            |what: &str| DvError::DescriptorSemantic(format!("{what} overflows a 64-bit integer"));
        match self {
            Expr::Int(v) => Ok(*v),
            Expr::Var(name) => env.get(name).copied().ok_or_else(|| {
                DvError::DescriptorSemantic(format!("unbound variable `${name}` in expression"))
            }),
            Expr::Neg(e) => e.eval(env)?.checked_neg().ok_or_else(|| overflow("negation")),
            Expr::Bin { op, lhs, rhs } => {
                let l = lhs.eval(env)?;
                let r = rhs.eval(env)?;
                match op {
                    Op::Add => l.checked_add(r).ok_or_else(|| overflow("addition")),
                    Op::Sub => l.checked_sub(r).ok_or_else(|| overflow("subtraction")),
                    Op::Mul => l.checked_mul(r).ok_or_else(|| overflow("multiplication")),
                    Op::Div => {
                        if r == 0 {
                            Err(DvError::DescriptorSemantic("division by zero".into()))
                        } else {
                            l.checked_div(r).ok_or_else(|| overflow("division"))
                        }
                    }
                    Op::Mod => {
                        if r == 0 {
                            Err(DvError::DescriptorSemantic("modulo by zero".into()))
                        } else {
                            l.checked_rem(r).ok_or_else(|| overflow("remainder"))
                        }
                    }
                }
            }
        }
    }

    /// All variables referenced by the expression.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::Neg(e) => e.collect_vars(out),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "${v}"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Bin { op, lhs, rhs } => {
                let sym = match op {
                    Op::Add => "+",
                    Op::Sub => "-",
                    Op::Mul => "*",
                    Op::Div => "/",
                    Op::Mod => "%",
                };
                write!(f, "({lhs}{sym}{rhs})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, i64)]) -> Env {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn bin(op: Op, l: Expr, r: Expr) -> Expr {
        Expr::Bin { op, lhs: Box::new(l), rhs: Box::new(r) }
    }

    #[test]
    fn paper_loop_bound() {
        // $DIRID*100+1 with DIRID=2 → 201.
        let e = bin(Op::Add, bin(Op::Mul, Expr::Var("DIRID".into()), Expr::Int(100)), Expr::Int(1));
        assert_eq!(e.eval(&env(&[("DIRID", 2)])).unwrap(), 201);
    }

    #[test]
    fn unbound_variable_named_in_error() {
        let e = Expr::Var("REL".into());
        let msg = e.eval(&Env::new()).unwrap_err().to_string();
        assert!(msg.contains("$REL"), "{msg}");
    }

    #[test]
    fn division_truncates_and_guards_zero() {
        let e = bin(Op::Div, Expr::Int(7), Expr::Int(2));
        assert_eq!(e.eval(&Env::new()).unwrap(), 3);
        let z = bin(Op::Div, Expr::Int(1), Expr::Int(0));
        assert!(z.eval(&Env::new()).is_err());
        let m = bin(Op::Mod, Expr::Int(7), Expr::Int(0));
        assert!(m.eval(&Env::new()).is_err());
    }

    #[test]
    fn overflow_is_an_error() {
        let max = || Expr::Int(i64::MAX);
        let min = || Expr::Neg(Box::new(bin(Op::Add, max(), Expr::Int(0))));
        for e in [
            bin(Op::Add, max(), Expr::Int(1)),
            bin(Op::Sub, min(), Expr::Int(2)),
            bin(Op::Mul, max(), Expr::Int(2)),
            bin(Op::Div, bin(Op::Sub, min(), Expr::Int(1)), Expr::Int(-1)),
            bin(Op::Mod, bin(Op::Sub, min(), Expr::Int(1)), Expr::Int(-1)),
            Expr::Neg(Box::new(bin(Op::Sub, min(), Expr::Int(1)))),
        ] {
            let msg = e.eval(&Env::new()).unwrap_err().to_string();
            assert!(msg.contains("overflows a 64-bit integer"), "{msg}");
        }
        assert_eq!(bin(Op::Sub, min(), Expr::Int(1)).eval(&Env::new()).unwrap(), i64::MIN);
    }

    #[test]
    fn negation() {
        let e = Expr::Neg(Box::new(Expr::Int(5)));
        assert_eq!(e.eval(&Env::new()).unwrap(), -5);
    }

    #[test]
    fn variables_collected_sorted_dedup() {
        let e = bin(
            Op::Add,
            Expr::Var("REL".into()),
            bin(Op::Mul, Expr::Var("DIRID".into()), Expr::Var("REL".into())),
        );
        assert_eq!(e.variables(), vec!["DIRID".to_string(), "REL".to_string()]);
    }
}
