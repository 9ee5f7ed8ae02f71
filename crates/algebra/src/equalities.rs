//! Tuple-level equalities: what every output tuple of a plan provably
//! satisfies, whatever the database.
//!
//! [`equalities`] walks a plan bottom-up and reports, per output column,
//! which other columns it always equals (`#i = #j`) and which constant it
//! is always pinned to (`#i = c`). The facts come from three places only:
//!
//! * the top-level `=` conjuncts of a selection — never from under `∨` or
//!   `¬`, never from `≠ < ≤ > ≥`;
//! * the keys of an equi-join;
//! * a child's own facts, carried through σ, both sides of ⋈ and ×, the
//!   left side of ⋉ and ⊼, and mapped through π.
//!
//! ∪, −, ÷, γcount, both outer-joins, literals and scans report nothing.
//! Reporting fewer facts is always sound; every fact reported holds for
//! every tuple the node can produce on any database.
//!
//! The consumer is [`Equalities::determined_by`]: when the columns a
//! projection keeps fix every column of its input, the projection is
//! injective on that input — two distinct input tuples can never collapse
//! into one output row. The delta rewriter uses this to drop the
//! re-derivation term of its π rule (see the `delta` module); a
//! uniqueness analysis (a projection that cannot produce duplicates needs
//! no dedup) is the same question.

use crate::error::AlgebraError;
use crate::eval::arity_of;
use crate::expr::{AlgebraExpr, Operand, Predicate};
use crate::optimize::split_conjuncts;
use gq_calculus::CompareOp;
use gq_storage::{Database, Value};

/// Equality classes over a plan's output columns, plus the constant
/// each class is pinned to, if any.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Equalities {
    /// Per column, the smallest column of its equality class.
    class: Vec<usize>,
    /// Per column, the constant its class is pinned to (the same value
    /// on every member of the class).
    constant: Vec<Option<Value>>,
}

impl Equalities {
    /// No facts about `arity` columns.
    fn unconstrained(arity: usize) -> Equalities {
        Equalities {
            class: (0..arity).collect(),
            constant: vec![None; arity],
        }
    }

    /// Number of columns described.
    fn arity(&self) -> usize {
        self.class.len()
    }

    /// Record `#a = #b`. Out-of-range columns (a malformed plan, which
    /// evaluation rejects anyway) record nothing.
    fn equate(&mut self, a: usize, b: usize) {
        let (Some(&ra), Some(&rb)) = (self.class.get(a), self.class.get(b)) else {
            return;
        };
        if ra == rb {
            return;
        }
        let (root, other) = (ra.min(rb), ra.max(rb));
        // Two different pins on one class mean no tuple can satisfy both,
        // so either pin is (vacuously) true.
        let pin = self.constant[root]
            .clone()
            .or_else(|| self.constant[other].clone());
        for c in 0..self.class.len() {
            if self.class[c] == root || self.class[c] == other {
                self.class[c] = root;
                self.constant[c] = pin.clone();
            }
        }
    }

    /// Record `#col = v`.
    fn pin(&mut self, col: usize, v: &Value) {
        let Some(&root) = self.class.get(col) else {
            return;
        };
        for c in 0..self.class.len() {
            if self.class[c] == root {
                self.constant[c] = Some(v.clone());
            }
        }
    }

    /// Record every top-level `=` conjunct of `p`.
    fn assume(&mut self, p: &Predicate) {
        for conjunct in split_conjuncts(p) {
            if let Predicate::Cmp {
                left,
                op: CompareOp::Eq,
                right,
            } = conjunct
            {
                match (left, right) {
                    (Operand::Col(a), Operand::Col(b)) => self.equate(a, b),
                    (Operand::Col(c), Operand::Const(v)) | (Operand::Const(v), Operand::Col(c)) => {
                        self.pin(c, &v)
                    }
                    (Operand::Const(_), Operand::Const(_)) => {}
                }
            }
        }
    }

    /// The facts of `self ++ right`: `right`'s columns shifted past ours.
    fn concat(mut self, right: Equalities) -> Equalities {
        let n = self.arity();
        self.class.extend(right.class.iter().map(|c| c + n));
        self.constant.extend(right.constant);
        self
    }

    /// The facts of `π_positions` of a relation described by `self`.
    fn project(&self, positions: &[usize]) -> Equalities {
        let mut out = Equalities::unconstrained(positions.len());
        for (i, &p) in positions.iter().enumerate() {
            let Some(&root) = self.class.get(p) else {
                continue;
            };
            if let Some(v) = &self.constant[p] {
                out.pin(i, v);
            }
            if let Some(j) = positions[..i]
                .iter()
                .position(|&q| self.class.get(q) == Some(&root))
            {
                out.equate(j, i);
            }
        }
        out
    }

    /// Do the `kept` columns determine every column? True when each
    /// column is pinned to a constant or equal to a kept column — then
    /// two tuples satisfying these facts that agree on `kept` agree
    /// everywhere, i.e. `π_kept` is injective on such tuples.
    pub(crate) fn determined_by(&self, kept: &[usize]) -> bool {
        (0..self.arity()).all(|c| {
            self.constant[c].is_some()
                || kept
                    .iter()
                    .any(|&k| self.class.get(k) == Some(&self.class[c]))
        })
    }

    /// Does tuple `t` satisfy every fact?
    #[cfg(test)]
    pub(crate) fn holds_for(&self, t: &gq_storage::Tuple) -> bool {
        t.arity() == self.arity()
            && (0..self.arity()).all(|c| {
                t[c] == t[self.class[c]] && self.constant[c].as_ref().is_none_or(|v| &t[c] == v)
            })
    }
}

/// The tuple-level equalities every output tuple of `expr` satisfies
/// (see the module doc for what is looked through). `db` supplies the
/// arity of scans; errors mirror [`arity_of`].
pub(crate) fn equalities(expr: &AlgebraExpr, db: &Database) -> Result<Equalities, AlgebraError> {
    Ok(match expr {
        AlgebraExpr::Select { input, predicate } => {
            let mut eq = equalities(input, db)?;
            eq.assume(predicate);
            eq
        }
        AlgebraExpr::Project { input, positions } => equalities(input, db)?.project(positions),
        AlgebraExpr::Product { left, right } => {
            equalities(left, db)?.concat(equalities(right, db)?)
        }
        AlgebraExpr::Join { left, right, on } => {
            let l = equalities(left, db)?;
            let n = l.arity();
            let mut eq = l.concat(equalities(right, db)?);
            for &(a, b) in on {
                eq.equate(a, n + b);
            }
            eq
        }
        AlgebraExpr::SemiJoin { left, .. } | AlgebraExpr::ComplementJoin { left, .. } => {
            equalities(left, db)?
        }
        AlgebraExpr::Relation(_)
        | AlgebraExpr::Literal(_)
        | AlgebraExpr::Union { .. }
        | AlgebraExpr::Difference { .. }
        | AlgebraExpr::Division { .. }
        | AlgebraExpr::GroupCount { .. }
        | AlgebraExpr::LeftOuterJoin { .. }
        | AlgebraExpr::ConstrainedOuterJoin { .. } => {
            Equalities::unconstrained(arity_of(expr, db)?)
        }
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gq_storage::{tuple, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(2)).unwrap();
        db.create_relation("q", Schema::anonymous(2)).unwrap();
        db
    }

    fn eq_of(e: &AlgebraExpr) -> Equalities {
        equalities(e, &db()).unwrap()
    }

    #[test]
    fn join_keys_and_constants_determine_dropped_columns() {
        // π[0,1](p ⋈[1=0] π[0](σ[#1=k](q))): column 2 equals column 1.
        let inner = AlgebraExpr::relation("q")
            .select(Predicate::col_const(1, CompareOp::Eq, "k"))
            .project(vec![0]);
        let joined = AlgebraExpr::relation("p").join(inner.clone(), vec![(1, 0)]);
        let eq = eq_of(&joined);
        assert!(eq.determined_by(&[0, 1]));
        assert!(!eq.determined_by(&[0]));
        assert!(eq.holds_for(&tuple![1, 2, 2]));
        assert!(!eq.holds_for(&tuple![1, 2, 3]));
        // The constant survives the projection that drops it from view.
        let sel = AlgebraExpr::relation("q").select(Predicate::col_const(1, CompareOp::Eq, "k"));
        assert!(eq_of(&sel).determined_by(&[0]));
        assert!(eq_of(&sel).holds_for(&tuple![7, "k"]));
        assert!(!eq_of(&sel).holds_for(&tuple![7, "j"]));
        assert!(eq_of(&inner).determined_by(&[0]));
    }

    #[test]
    fn only_top_level_equality_conjuncts_count() {
        let p = AlgebraExpr::relation("p");
        let eq = |pred: Predicate| eq_of(&p.clone().select(pred)).determined_by(&[0]);
        assert!(eq(Predicate::col_col(0, CompareOp::Eq, 1)));
        assert!(eq(Predicate::and_all(vec![
            Predicate::True,
            Predicate::col_const(1, CompareOp::Eq, 3),
        ])));
        for op in [
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            assert!(!eq(Predicate::col_const(1, op, 3)), "{op:?}");
        }
        let one = Predicate::col_const(1, CompareOp::Eq, 3);
        assert!(!eq(Predicate::or_all(vec![one.clone(), one.clone()])));
        assert!(!eq(Predicate::Not(Box::new(Predicate::Not(Box::new(one))))));
    }

    #[test]
    fn set_operators_outer_joins_and_aggregates_report_nothing() {
        let s = AlgebraExpr::relation("p").select(Predicate::col_col(0, CompareOp::Eq, 1));
        let q = AlgebraExpr::relation("q");
        for e in [
            s.clone().union(s.clone()),
            s.clone().difference(q.clone()),
            s.clone().left_outer_join(q.clone(), vec![(0, 0)]),
            s.clone()
                .constrained_outer_join(q.clone(), vec![(0, 0)], crate::Constraint::none()),
            s.clone().group_count(vec![0, 1]),
        ] {
            let eq = eq_of(&e);
            assert!(!eq.determined_by(&[0]), "{e}");
            assert_eq!(eq, Equalities::unconstrained(eq.arity()), "{e}");
        }
        // Semi- and complement-join keep their left side's facts only.
        for e in [
            s.clone().semi_join(q.clone(), vec![(0, 0)]),
            s.clone().complement_join(q.clone(), vec![(0, 0)]),
        ] {
            assert_eq!(eq_of(&e), eq_of(&s), "{e}");
        }
    }

    #[test]
    fn projection_maps_classes_and_pins() {
        // σ[#0=#3 ∧ #2=5](p × q), columns reordered by the projection.
        let e = AlgebraExpr::relation("p")
            .product(AlgebraExpr::relation("q"))
            .select(Predicate::and_all(vec![
                Predicate::col_col(0, CompareOp::Eq, 3),
                Predicate::col_const(2, CompareOp::Eq, 5),
            ]))
            .project(vec![3, 1, 0, 2]);
        let eq = eq_of(&e);
        assert!(eq.holds_for(&tuple![1, 9, 1, 5]));
        assert!(!eq.holds_for(&tuple![1, 9, 2, 5]));
        assert!(!eq.holds_for(&tuple![1, 9, 1, 6]));
        assert!(eq.determined_by(&[0, 1]));
        assert!(eq.determined_by(&[2, 1]));
        assert!(!eq.determined_by(&[0, 3]));
    }
}
