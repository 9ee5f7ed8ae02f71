//! Boolean plans: the non-emptiness test of §3.2.
//!
//! "It is therefore desirable to extend the relational algebra with a
//! non-emptiness test. Allowing tests in algebraic expressions leads to
//! allow boolean connectives as well." Closed (yes/no) queries translate to
//! [`BoolExpr`]s; evaluation short-circuits — both across connectives and
//! inside each test, whose first-witness sink stops the scan at the first
//! tuple that reaches it.

use crate::{AlgebraError, AlgebraExpr, Evaluator};
use std::fmt;

/// A boolean combination of (non-)emptiness tests over algebra expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum BoolExpr {
    /// `{…} ≠ ∅`.
    NonEmpty(AlgebraExpr),
    /// `{…} = ∅`.
    Empty(AlgebraExpr),
    /// Conjunction (short-circuits).
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction (short-circuits).
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
    /// A constant truth value.
    Const(bool),
}

impl BoolExpr {
    /// `a ∧ b`.
    pub fn and(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::And(Box::new(a), Box::new(b))
    }

    /// `a ∨ b`.
    pub fn or(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::Or(Box::new(a), Box::new(b))
    }

    /// `¬a`.
    #[allow(clippy::should_implement_trait)] // constructor, not an operator impl
    pub fn not(a: BoolExpr) -> BoolExpr {
        BoolExpr::Not(Box::new(a))
    }

    /// Evaluate with short-circuiting.
    pub fn eval(&self, ev: &Evaluator<'_>) -> Result<bool, AlgebraError> {
        match self {
            BoolExpr::NonEmpty(e) => ev.is_nonempty(e),
            BoolExpr::Empty(e) => Ok(!ev.is_nonempty(e)?),
            BoolExpr::And(a, b) => Ok(a.eval(ev)? && b.eval(ev)?),
            BoolExpr::Or(a, b) => Ok(a.eval(ev)? || b.eval(ev)?),
            BoolExpr::Not(a) => Ok(!a.eval(ev)?),
            BoolExpr::Const(b) => Ok(*b),
        }
    }

    /// All algebra expressions appearing in tests.
    pub fn algebra_exprs(&self) -> Vec<&AlgebraExpr> {
        match self {
            BoolExpr::NonEmpty(e) | BoolExpr::Empty(e) => vec![e],
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                let mut v = a.algebra_exprs();
                v.extend(b.algebra_exprs());
                v
            }
            BoolExpr::Not(a) => a.algebra_exprs(),
            BoolExpr::Const(_) => vec![],
        }
    }

    /// Does any test's plan use division? (Claim C3.)
    pub fn uses_division(&self) -> bool {
        self.algebra_exprs().iter().any(|e| e.uses_division())
    }

    /// Does any test's plan use a cartesian product? (Claim C2.)
    pub fn uses_product(&self) -> bool {
        self.algebra_exprs().iter().any(|e| e.uses_product())
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::NonEmpty(e) => write!(f, "{e} ≠ ∅"),
            BoolExpr::Empty(e) => write!(f, "{e} = ∅"),
            BoolExpr::And(a, b) => write!(f, "({a} ∧ {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} ∨ {b})"),
            BoolExpr::Not(a) => write!(f, "¬{a}"),
            BoolExpr::Const(b) => write!(f, "{b}"),
        }
    }
}
