//! The improved translation into relational algebra (§3).
//!
//! Translates canonical-form calculus queries compositionally, following
//! the paper's producer/filter scheme:
//!
//! * producers (ranges) become scans/joins;
//! * positive atom filters become **semi-joins**, negated atom filters
//!   become **complement-joins** (Definition 6) — never join-plus-
//!   difference;
//! * nested existential subqueries become semi-joins against the
//!   subquery's plan when its producers cover the correlation variables
//!   (Proposition 4 cases 1/2a/3/4), and *correlated joins* otherwise
//!   (case 2b);
//! * *range passing* (DESIGN.md §7.7): an ∃-range whose variables the
//!   block's other producers already produce is applied as a filter, and a
//!   subquery all of whose producers are correlated with the context is
//!   joined under the range that binds it, a producer adding no variable
//!   becoming a semi-join — so no subquery result outgrows that range;
//! * negated existential subqueries whose producers do not cover the
//!   correlation variables use **division** — the only case where division
//!   is unavoidable (case 5);
//! * disjunctive filters become chains of **constrained outer-joins**
//!   (Definition 7, Proposition 5);
//! * closed queries become boolean combinations of **non-emptiness tests**
//!   (§3.2).
//!
//! One soundness refinement over the paper (documented in DESIGN.md):
//! Proposition 4 case 5 as printed divides by the *context-independent*
//! projection of the divisor range, which is only correct when that range
//! shares no variables with the outer query. The translator uses division
//! exactly in that sound situation and otherwise falls back to a correct
//! correlated join/complement-join plan. The division plan also handles
//! the empty-divisor (vacuous ∀) case exactly, via a complement-join
//! guard, which the paper glosses over.

use crate::{Layout, TranslateError};
use gq_algebra::{AlgebraExpr, BoolExpr, Constraint, Operand, Predicate};
use gq_calculus::{
    check_restricted_open, split_producer_filter, Atom, CompareOp, Comparison, Formula, Term, Var,
};
use gq_storage::Database;
use std::collections::BTreeSet;

/// An intermediate translation: an algebra expression plus the variables
/// its columns hold.
type Typed = (Layout, AlgebraExpr);

/// Result of translating a filter into a standalone *test*: the context is
/// then restricted by a (semi/complement) join against the test relation,
/// or by a division plan.
enum Test {
    /// `E ⋉ expr` (positive) or `E ⊼ expr` (negative) on `cvars`.
    Membership {
        cvars: Vec<Var>,
        expr: AlgebraExpr,
        positive: bool,
    },
    /// Proposition 4 case 5 (`∀z̄ divisor ⇒ g`): `g_aligned` carries the
    /// columns `[cvars…, z̄…]`. Applied either with the division operator
    /// or with the complement-join rewrite, per [`DivisionMode`].
    Division {
        cvars: Vec<Var>,
        g_aligned: AlgebraExpr,
        divisor: AlgebraExpr,
    },
}

/// How Proposition 4 case 5 (`∀z̄ T ⇒ G` with uncorrelated T) is planned.
///
/// The paper keeps the division operator for this one case but notes it
/// can be "rewritten in terms of difference or complement-join"; both
/// forms are provided (and compared by the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DivisionMode {
    /// `E ⋉ π_C(G ÷ D)`, with a complement-join guard for the
    /// vacuous-divisor case.
    #[default]
    Divide,
    /// Division-free: `E ⊼_C π_C((π_C(E) × D) ⊼ G)` — candidates crossed
    /// with the divisor, missing G-pairs are violators. Handles the
    /// vacuous case without a guard (an empty divisor yields no
    /// candidates, hence no violators).
    ComplementJoin,
}

/// The improved (paper) translator.
pub struct ImprovedTranslator<'db> {
    db: &'db Database,
    division_mode: DivisionMode,
    cost_ordering: bool,
    governor: Option<gq_governor::Governor>,
}

impl<'db> ImprovedTranslator<'db> {
    /// Create a translator resolving relation schemas against `db`.
    pub fn new(db: &'db Database) -> Self {
        ImprovedTranslator {
            db,
            division_mode: DivisionMode::default(),
            cost_ordering: false,
            governor: None,
        }
    }

    /// Attach a resource governor: the cancel token / deadline is polled
    /// at every translation recursion step.
    pub fn with_governor(mut self, governor: gq_governor::Governor) -> Self {
        self.governor = Some(governor);
        self
    }

    fn check_governor(&self) -> Result<(), TranslateError> {
        if let Some(g) = &self.governor {
            g.check("translate")?;
        }
        Ok(())
    }

    /// Select how universal quantifications (case 5) are planned.
    pub fn with_division_mode(mut self, mode: DivisionMode) -> Self {
        self.division_mode = mode;
        self
    }

    /// Order a block's producers by estimated cardinality (smallest first,
    /// preferring connected joins over products, the smaller input of each
    /// join on its build side) instead of syntactic order — the cost-model
    /// step the paper's §4 leaves open. Off by default to keep plans
    /// paper-faithful; the engine always turns it on.
    pub fn with_cost_ordering(mut self, enabled: bool) -> Self {
        self.cost_ordering = enabled;
        self
    }

    /// Translate an open query (free variables = answer variables, in name
    /// order). The input should be in canonical form; non-canonical but
    /// restricted inputs are handled on a best-effort basis.
    pub fn translate_open(&self, f: &Formula) -> Result<(Vec<Var>, AlgebraExpr), TranslateError> {
        let free: Vec<Var> = f.free_vars().into_iter().collect();
        if free.is_empty() {
            return Err(TranslateError::Unsupported {
                context: "open query".into(),
                subformula: format!("{f} (closed — use translate_closed)"),
            });
        }
        let (_, expr) = self.translate_open_aligned(f, &free)?;
        Ok((free, expr))
    }

    fn translate_open_aligned(&self, f: &Formula, free: &[Var]) -> Result<Typed, TranslateError> {
        // Definition 3 case 2: disjunction of open queries → union.
        if let Formula::Or(a, b) = f {
            if !a.free_vars().is_empty() {
                let (_, ea) = self.translate_open_aligned(a, free)?;
                let (_, eb) = self.translate_open_aligned(b, free)?;
                return Ok((Layout::new(free.to_vec()), ea.union(eb)));
            }
        }
        let target: BTreeSet<Var> = free.iter().cloned().collect();
        let outer = BTreeSet::new();
        let Some(pf) = split_producer_filter(f, &target, &outer) else {
            // Produce the precise diagnostic.
            check_restricted_open(f)?;
            return Err(TranslateError::Unsupported {
                context: "open query".into(),
                subformula: f.to_string(),
            });
        };
        match self.translate_block(&pf.producers, &pf.filters, &outer)? {
            Some((lay, expr)) => {
                let positions = lay
                    .positions_of(free.iter())
                    .ok_or_else(|| TranslateError::internal("producers cover free variables"))?;
                Ok((
                    Layout::new(free.to_vec()),
                    project(expr, positions, lay.arity()),
                ))
            }
            None => Err(TranslateError::Unsupported {
                context: "open query".into(),
                subformula: format!("{f} (unresolvable correlation at top level)"),
            }),
        }
    }

    /// Translate a closed (yes/no) query to a boolean plan (§3.2).
    pub fn translate_closed(&self, f: &Formula) -> Result<BoolExpr, TranslateError> {
        self.check_governor()?;
        match f {
            Formula::Not(g) => Ok(BoolExpr::not(self.translate_closed(g)?)),
            Formula::And(a, b) => Ok(BoolExpr::and(
                self.translate_closed(a)?,
                self.translate_closed(b)?,
            )),
            Formula::Or(a, b) => Ok(BoolExpr::or(
                self.translate_closed(a)?,
                self.translate_closed(b)?,
            )),
            Formula::Exists(vs, body) => {
                let target: BTreeSet<Var> = vs.iter().cloned().collect();
                let outer = BTreeSet::new();
                let Some(pf) = split_producer_filter(body, &target, &outer) else {
                    // The split failing normally means the query is not
                    // restricted; when the restriction check nevertheless
                    // passes, report the unsupported shape instead of
                    // panicking on the missing diagnostic.
                    return Err(match gq_calculus::check_restricted_closed(f) {
                        Err(e) => TranslateError::Unrestricted(e),
                        Ok(()) => TranslateError::Unsupported {
                            context: "closed query".into(),
                            subformula: f.to_string(),
                        },
                    });
                };
                match self.translate_block(&pf.producers, &pf.filters, &outer)? {
                    Some((_, expr)) => Ok(BoolExpr::NonEmpty(expr)),
                    None => Err(TranslateError::Unsupported {
                        context: "closed query".into(),
                        subformula: f.to_string(),
                    }),
                }
            }
            Formula::Atom(a) => {
                if a.terms.iter().any(Term::is_var) {
                    return Err(TranslateError::Unsupported {
                        context: "closed query".into(),
                        subformula: format!("{f} (atom with free variables)"),
                    });
                }
                let (_, expr) = self.translate_atom(a)?;
                Ok(BoolExpr::NonEmpty(expr))
            }
            Formula::Compare(c) => match (c.left.as_const(), c.right.as_const()) {
                (Some(l), Some(r)) => Ok(BoolExpr::Const(c.op.eval(l, r))),
                _ => Err(TranslateError::Unsupported {
                    context: "closed query".into(),
                    subformula: f.to_string(),
                }),
            },
            Formula::Forall(..) | Formula::Implies(..) | Formula::Iff(..) => {
                Err(TranslateError::Unsupported {
                    context: "closed query (expected canonical form)".into(),
                    subformula: f.to_string(),
                })
            }
        }
    }

    /// Translate a producer/filter block: join the producers, then apply
    /// each filter. Returns `None` if a filter references variables that
    /// only an *enclosing* context could supply (the caller then falls back
    /// to a correlated plan).
    ///
    /// An ∃-range producer whose variables the other producers already
    /// produce is applied as a filter on their join instead of being built
    /// on its own (DESIGN.md §7.5, §7.7).
    fn translate_block(
        &self,
        producers: &[Formula],
        filters: &[Formula],
        outer: &BTreeSet<Var>,
    ) -> Result<Option<Typed>, TranslateError> {
        // Every translation recursion cycle passes through here, so this
        // is the cooperative cancellation point for the translate phase.
        self.check_governor()?;
        let (producers, covered) = split_covered_ranges(producers);
        let mut translated: Vec<Typed> = Vec::with_capacity(producers.len());
        for p in producers {
            let vars: BTreeSet<Var> = p.free_vars().difference(outer).cloned().collect();
            translated.push(self.translate_range(p, &vars, outer)?);
        }
        let mut acc = if self.cost_ordering && translated.len() > 1 {
            match self.join_by_cost(translated) {
                Some(acc) => acc,
                None => return Ok(None),
            }
        } else {
            let mut it = translated.into_iter();
            match it.next() {
                Some(first) => it.fold(first, join_natural),
                None => return Ok(None),
            }
        };
        for filt in covered.into_iter().chain(filters) {
            match self.apply_filter(acc, filt, outer)? {
                Some(next) => acc = next,
                None => return Ok(None),
            }
        }
        Ok(Some(acc))
    }

    /// Greedy cost-ordered join of a block's producers: start from the
    /// smallest estimate, repeatedly join the smallest producer sharing a
    /// variable with the accumulated plan (falling back to the smallest
    /// remaining when none connects). Of the two inputs of each `⋈`, the
    /// one with the smaller estimate goes on the right, because the
    /// executor builds its hash table on the right input and probes it
    /// with the left.
    fn join_by_cost(&self, mut parts: Vec<Typed>) -> Option<Typed> {
        let cost = |t: &Typed| gq_algebra::estimate(&t.1, self.db);
        let start = parts
            .iter()
            .enumerate()
            .min_by(|a, b| cost(a.1).total_cmp(&cost(b.1)))
            .map(|(i, _)| i)?;
        let mut acc = parts.swap_remove(start);
        while !parts.is_empty() {
            let connected = |t: &Typed| !acc.0.shared_pairs(&t.0).is_empty();
            let Some(next) = parts
                .iter()
                .enumerate()
                .filter(|(_, t)| connected(t))
                .min_by(|a, b| cost(a.1).total_cmp(&cost(b.1)))
                .map(|(i, _)| i)
                .or_else(|| {
                    parts
                        .iter()
                        .enumerate()
                        .min_by(|a, b| cost(a.1).total_cmp(&cost(b.1)))
                        .map(|(i, _)| i)
                })
            else {
                break; // unreachable: `parts` is non-empty here
            };
            let t = parts.swap_remove(next);
            acc = if cost(&t) > cost(&acc) {
                join_natural(t, acc)
            } else {
                join_natural(acc, t)
            };
            #[cfg(test)]
            record_cost_ordered_join(&acc.1, self.db);
        }
        Some(acc)
    }

    /// Translate a range formula (Definition 1) to an expression carrying
    /// all its variables (including correlation variables from `outer`).
    fn translate_range(
        &self,
        f: &Formula,
        target: &BTreeSet<Var>,
        outer: &BTreeSet<Var>,
    ) -> Result<Typed, TranslateError> {
        match f {
            Formula::Atom(a) => self.translate_atom(a),
            Formula::And(..) => {
                let Some(pf) = split_producer_filter(f, target, outer) else {
                    return Err(TranslateError::Unsupported {
                        context: "range".into(),
                        subformula: f.to_string(),
                    });
                };
                match self.translate_block(&pf.producers, &pf.filters, outer)? {
                    Some(t) => Ok(t),
                    None => Err(TranslateError::Unsupported {
                        context: "range (correlated filter inside a range)".into(),
                        subformula: f.to_string(),
                    }),
                }
            }
            Formula::Or(a, b) => {
                let (la, ea) = self.translate_range(a, target, outer)?;
                let (lb, eb) = self.translate_range(b, target, outer)?;
                // Align the right branch to the left's column order.
                let positions = lb.positions_of(la.columns().iter()).ok_or_else(|| {
                    TranslateError::Unsupported {
                        context: "range disjunction (mismatched variables)".into(),
                        subformula: f.to_string(),
                    }
                })?;
                Ok((la, ea.union(project(eb, positions, lb.arity()))))
            }
            Formula::Exists(ys, r) => {
                let mut wider = target.clone();
                wider.extend(ys.iter().cloned());
                let (lr, er) = self.translate_range(r, &wider, outer)?;
                // Project the ∃-variables away (Definition 1 condition 5:
                // "existential quantifications in ranges correspond to
                // projections").
                let keep: Vec<Var> = lr
                    .columns()
                    .iter()
                    .filter(|v| !ys.contains(v))
                    .cloned()
                    .collect();
                let mut kept_unique: Vec<Var> = Vec::new();
                for v in keep {
                    if !kept_unique.contains(&v) {
                        kept_unique.push(v);
                    }
                }
                let positions = lr
                    .positions_of(kept_unique.iter())
                    .ok_or_else(|| TranslateError::internal("columns of own layout"))?;
                Ok((Layout::new(kept_unique), project(er, positions, lr.arity())))
            }
            _ => Err(TranslateError::Unsupported {
                context: "range".into(),
                subformula: f.to_string(),
            }),
        }
    }

    /// Translate an atom to a scan with selections for constants and
    /// repeated variables, projected onto its distinct variables.
    fn translate_atom(&self, a: &Atom) -> Result<Typed, TranslateError> {
        let rel = self
            .db
            .relation(&a.relation)
            .map_err(|_| TranslateError::UnknownRelation(a.relation.clone()))?;
        if rel.arity() != a.arity() {
            return Err(TranslateError::ArityMismatch {
                relation: a.relation.clone(),
                expected: rel.arity(),
                actual: a.arity(),
            });
        }
        let mut preds: Vec<Predicate> = Vec::new();
        let mut vars: Vec<Var> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        for (i, t) in a.terms.iter().enumerate() {
            match t {
                Term::Const(c) => preds.push(Predicate::col_const(i, CompareOp::Eq, c.clone())),
                Term::Var(v) => match a.terms[..i].iter().position(|u| u.as_var() == Some(v)) {
                    Some(first) => preds.push(Predicate::col_col(first, CompareOp::Eq, i)),
                    None => {
                        vars.push(v.clone());
                        positions.push(i);
                    }
                },
            }
        }
        let mut expr = AlgebraExpr::relation(&a.relation);
        if !preds.is_empty() {
            expr = expr.select(Predicate::and_all(preds));
        }
        if positions.len() != a.arity() {
            expr = expr.project(positions);
        }
        Ok((Layout::new(vars), expr))
    }

    /// Apply one filter to a context expression. `Ok(None)` means the
    /// filter needs variables only an enclosing context can supply.
    fn apply_filter(
        &self,
        ctx: Typed,
        filter: &Formula,
        outer: &BTreeSet<Var>,
    ) -> Result<Option<Typed>, TranslateError> {
        let (lay, expr) = ctx;
        match filter {
            Formula::Compare(c) => match self.comparison_predicate(c, &lay) {
                Some(p) => Ok(Some((lay, expr.select(p)))),
                None => Ok(None),
            },
            Formula::Or(..) => self.apply_disjunctive_filter((lay, expr), filter, outer),
            // A conjunctive filter (e.g. `¬q(x) ∧ ¬r(x,x)`, produced by
            // De Morgan inside a disjunct): apply each conjunct in turn.
            Formula::And(..) => {
                let conjuncts: Vec<Formula> = gq_calculus::flatten_and(filter)
                    .into_iter()
                    .cloned()
                    .collect();
                let mut acc = (lay, expr);
                for c in &conjuncts {
                    match self.apply_filter(acc, c, outer)? {
                        Some(next) => acc = next,
                        None => return Ok(None),
                    }
                }
                Ok(Some(acc))
            }
            _ => {
                match self.translate_test(filter, &lay, outer)? {
                    Some(test) => Ok(Some(apply_test((lay, expr), test, self.division_mode)?)),
                    None => {
                        // Correlated fallback (Proposition 4 case 2b and
                        // the correlated-∀ generalization of case 5).
                        self.apply_correlated((lay, expr), filter, outer)
                    }
                }
            }
        }
    }

    fn comparison_predicate(&self, c: &Comparison, lay: &Layout) -> Option<Predicate> {
        let operand = |t: &Term| -> Option<Operand> {
            match t {
                Term::Const(v) => Some(Operand::Const(v.clone())),
                Term::Var(v) => lay.position_of(v).map(Operand::Col),
            }
        };
        Some(Predicate::Cmp {
            left: operand(&c.left)?,
            op: c.op,
            right: operand(&c.right)?,
        })
    }

    /// Translate a (non-disjunctive, non-comparison) filter into a
    /// standalone test, if possible.
    fn translate_test(
        &self,
        d: &Formula,
        available: &Layout,
        outer: &BTreeSet<Var>,
    ) -> Result<Option<Test>, TranslateError> {
        match d {
            Formula::Not(inner) => {
                Ok(self.translate_test(inner, available, outer)?.map(|t| {
                    match t {
                        Test::Membership {
                            cvars,
                            expr,
                            positive,
                        } => Test::Membership {
                            cvars,
                            expr,
                            positive: !positive,
                        },
                        // translate_test never produces Division (that
                        // shape is detected on the negated form in
                        // apply_correlated), so nothing to negate here.
                        Test::Division { .. } => {
                            unreachable!("Division tests are built only in apply_correlated")
                        }
                    }
                }))
            }
            Formula::Atom(a) => {
                let avars = a.vars();
                if !available.contains_all(avars.iter()) {
                    return Ok(None);
                }
                let (alay, aexpr) = self.translate_atom(a)?;
                let cvars: Vec<Var> = alay.columns().to_vec();
                Ok(Some(Test::Membership {
                    cvars,
                    expr: aexpr,
                    positive: true,
                }))
            }
            // A conjunctive filter that is itself a range with filters
            // (e.g. the disjunct `student(x) ∧ makes(x,PhD)`).
            Formula::And(..) => {
                let vars: BTreeSet<Var> = d.free_vars();
                if !available.contains_all(vars.iter()) {
                    return Ok(None);
                }
                // All free vars are correlation vars here; the "range" view
                // treats them as produced by the disjunct itself.
                let Some(pf) = split_producer_filter(d, &vars, outer) else {
                    return Ok(None);
                };
                match self.translate_block(&pf.producers, &pf.filters, outer)? {
                    Some((blay, bexpr)) => {
                        let cvars: Vec<Var> = vars.iter().cloned().collect();
                        let positions = blay
                            .positions_of(cvars.iter())
                            .ok_or_else(|| TranslateError::internal("block covers its vars"))?;
                        Ok(Some(Test::Membership {
                            cvars,
                            expr: project(bexpr, positions, blay.arity()),
                            positive: true,
                        }))
                    }
                    None => Ok(None),
                }
            }
            Formula::Exists(zs, body) => {
                let cvars_set: BTreeSet<Var> = d.free_vars();
                if !available.contains_all(cvars_set.iter()) {
                    return Ok(None);
                }
                let target: BTreeSet<Var> = zs.iter().cloned().collect();
                // Variables of enclosing scopes act as constants *only if*
                // the subquery's own producers bind them; otherwise the
                // standalone attempt fails and the caller correlates.
                let Some(pf) = split_producer_filter(body, &target, &cvars_set) else {
                    return Err(TranslateError::Unrestricted(unrestricted_diag(d)));
                };
                // Range passing (DESIGN.md §7.7): when two or more
                // producers each share a variable with the context, built on
                // their own they would join without the context's keys
                // (Proposition 4 case 1: `lecture ⋈ enrolled`, every student
                // with every lecture of their department). The correlated
                // plan joins them under the context's range instead, as
                // case 2b does.
                if pf.producers.len() > 1
                    && pf
                        .producers
                        .iter()
                        .all(|p| !p.free_vars().is_disjoint(&cvars_set))
                {
                    return Ok(None);
                }
                match self.translate_block(&pf.producers, &pf.filters, &cvars_set)? {
                    Some((blay, bexpr)) => {
                        if !blay.contains_all(cvars_set.iter()) {
                            return Ok(None); // case 2b: needs correlation
                        }
                        let cvars: Vec<Var> = cvars_set.into_iter().collect();
                        let positions = blay.positions_of(cvars.iter()).ok_or_else(|| {
                            TranslateError::internal("layout covers the context vars it contains")
                        })?;
                        Ok(Some(Test::Membership {
                            cvars,
                            expr: project(bexpr, positions, blay.arity()),
                            positive: true,
                        }))
                    }
                    None => Ok(None),
                }
            }
            _ => Ok(None),
        }
    }

    /// Correlated fallback: join the context with the subquery's producers,
    /// apply its filters in the extended layout, and project back.
    fn apply_correlated(
        &self,
        ctx: Typed,
        filter: &Formula,
        outer: &BTreeSet<Var>,
    ) -> Result<Option<Typed>, TranslateError> {
        match filter {
            Formula::Exists(zs, body) => {
                let (lay, expr) = ctx;
                let matched = self.correlated_matches((lay.clone(), expr), zs, body, outer)?;
                let Some((mlay, mexpr)) = matched else {
                    return Ok(None);
                };
                // Rows of the context satisfying ∃z̄ body: project back.
                let positions = mlay
                    .positions_of(lay.columns().iter())
                    .ok_or_else(|| TranslateError::internal("context columns preserved"))?;
                Ok(Some((lay, project(mexpr, positions, mlay.arity()))))
            }
            Formula::Not(inner) => match &**inner {
                Formula::Exists(zs, body) => {
                    // Division (Proposition 4 case 5) when sound.
                    let (lay, expr) = ctx;
                    if let Some(t) = self.try_division_negated(&lay, zs, body)? {
                        return Ok(Some(apply_test((lay, expr), t, self.division_mode)?));
                    }
                    let matched =
                        self.correlated_matches((lay.clone(), expr.clone()), zs, body, outer)?;
                    let Some((mlay, mexpr)) = matched else {
                        return Ok(None);
                    };
                    let positions = mlay
                        .positions_of(lay.columns().iter())
                        .ok_or_else(|| TranslateError::internal("context columns preserved"))?;
                    let violators = project(mexpr, positions, mlay.arity());
                    // E ⊼ (rows with a witness) on all columns.
                    let on: Vec<(usize, usize)> = (0..lay.arity()).map(|i| (i, i)).collect();
                    Ok(Some((lay, expr.complement_join(violators, on))))
                }
                _ => Ok(None),
            },
            _ => Ok(None),
        }
    }

    /// The rows of `ctx ⋈ producers(body)` satisfying the body's filters —
    /// the correlated-join engine behind Proposition 4 case 2b and range
    /// passing (DESIGN.md §7.7). A producer all of whose variables are
    /// already bound adds no column, so it is a semi-join: a probe stops at
    /// the first witness.
    fn correlated_matches(
        &self,
        ctx: Typed,
        zs: &[Var],
        body: &Formula,
        outer: &BTreeSet<Var>,
    ) -> Result<Option<Typed>, TranslateError> {
        let (lay, expr) = ctx;
        let mut ctx_outer: BTreeSet<Var> = outer.clone();
        ctx_outer.extend(lay.columns().iter().cloned());
        let target: BTreeSet<Var> = zs.iter().cloned().collect();
        let Some(pf) = split_producer_filter(body, &target, &ctx_outer) else {
            return Err(TranslateError::Unrestricted(unrestricted_diag(body)));
        };
        let mut acc: Typed = (lay, expr);
        for p in &pf.producers {
            let vars: BTreeSet<Var> = p.free_vars().difference(&ctx_outer).cloned().collect();
            let t = self.translate_range(p, &vars, &ctx_outer)?;
            acc = if acc.0.contains_all(t.0.columns()) {
                let on = acc.0.shared_pairs(&t.0);
                (acc.0, acc.1.semi_join(t.1, on))
            } else {
                join_natural(acc, t)
            };
        }
        for filt in &pf.filters {
            match self.apply_filter(acc, filt, &ctx_outer)? {
                Some(next) => acc = next,
                None => return Ok(None),
            }
        }
        Ok(Some(acc))
    }

    /// Detect and build the sound division plan for `¬∃z̄ (T ∧ ¬g)`:
    /// the body's filters are exactly `[¬g]` with `g` an atom, `g` carries
    /// all context-correlation variables and all of z̄, and the divisor
    /// range `T` shares no variables with the context.
    fn try_division_negated(
        &self,
        lay: &Layout,
        zs: &[Var],
        body: &Formula,
    ) -> Result<Option<Test>, TranslateError> {
        let target: BTreeSet<Var> = zs.iter().cloned().collect();
        let ctx_vars: BTreeSet<Var> = lay.columns().iter().cloned().collect();
        let Some(pf) = split_producer_filter(body, &target, &ctx_vars) else {
            return Ok(None);
        };
        if pf.filters.len() != 1 {
            return Ok(None);
        }
        let Formula::Not(g) = &pf.filters[0] else {
            return Ok(None);
        };
        let Formula::Atom(g_atom) = &**g else {
            return Ok(None);
        };
        // Divisor uncorrelated with the context?
        let producer_vars: BTreeSet<Var> =
            pf.producers.iter().flat_map(|p| p.free_vars()).collect();
        if !producer_vars.is_disjoint(&ctx_vars) {
            return Ok(None);
        }
        // g must carry all of z̄ and its remaining variables must be
        // available in the context.
        let gvars = g_atom.vars();
        if !zs.iter().all(|z| gvars.contains(z)) {
            return Ok(None);
        }
        let cvars: Vec<Var> = gvars
            .iter()
            .filter(|v| !target.contains(v))
            .cloned()
            .collect();
        if !lay.contains_all(cvars.iter()) {
            return Ok(None);
        }
        // Build divisor = π_z̄(T-block) and g aligned to [cvars…, z̄…].
        let Some((dlay, dexpr)) = self.translate_block(&pf.producers, &[], &BTreeSet::new())?
        else {
            return Ok(None);
        };
        let Some(dpos) = dlay.positions_of(zs.iter()) else {
            return Ok(None);
        };
        // Always a π, even an identity one: `divisor_arity_of` reads the
        // z̄ column count off it.
        let divisor = dexpr.project(dpos);
        let (glay, gexpr) = self.translate_atom(g_atom)?;
        let aligned: Vec<Var> = cvars.iter().chain(zs.iter()).cloned().collect();
        let gpos = glay
            .positions_of(aligned.iter())
            .ok_or_else(|| TranslateError::internal("g carries C and z̄"))?;
        Ok(Some(Test::Division {
            cvars,
            g_aligned: project(gexpr, gpos, glay.arity()),
            divisor,
        }))
    }

    /// Proposition 5: a disjunctive filter as a chain of constrained
    /// outer-joins, with one marker column per relation-testable disjunct
    /// and plain predicates for comparison disjuncts. Falls back to a
    /// union of per-disjunct applications when a disjunct cannot be
    /// translated standalone.
    fn apply_disjunctive_filter(
        &self,
        ctx: Typed,
        filter: &Formula,
        outer: &BTreeSet<Var>,
    ) -> Result<Option<Typed>, TranslateError> {
        let disjuncts = flatten_or(filter);
        let (lay, expr) = ctx;
        let p = lay.arity();

        enum Part {
            Probe {
                on: Vec<(usize, usize)>,
                test: AlgebraExpr,
                positive: bool,
            },
            Pred(Predicate),
        }

        let mut parts: Vec<Part> = Vec::new();
        for d in &disjuncts {
            match d {
                Formula::Compare(c) => match self.comparison_predicate(c, &lay) {
                    Some(pred) => parts.push(Part::Pred(pred)),
                    None => return Ok(None),
                },
                Formula::Not(inner) if matches!(&**inner, Formula::Compare(_)) => {
                    let Formula::Compare(c) = &**inner else {
                        unreachable!()
                    };
                    match self.comparison_predicate(c, &lay) {
                        Some(pred) => parts.push(Part::Pred(Predicate::Not(Box::new(pred)))),
                        None => return Ok(None),
                    }
                }
                _ => match self.translate_test(d, &lay, outer)? {
                    Some(Test::Membership {
                        cvars,
                        expr: test,
                        positive,
                    }) => {
                        let Some(lpos) = lay.positions_of(cvars.iter()) else {
                            return Ok(None);
                        };
                        let on: Vec<(usize, usize)> =
                            lpos.into_iter().enumerate().map(|(i, l)| (l, i)).collect();
                        parts.push(Part::Probe { on, test, positive });
                    }
                    // Division tests inside disjunctions: fall back to the
                    // union-of-applications plan.
                    Some(Test::Division { .. }) | None => {
                        return self.apply_disjunction_by_union((lay, expr), &disjuncts, outer);
                    }
                },
            }
        }

        // Chain the probes (Proposition 5): each probe is gated so tuples
        // already decided by earlier disjuncts are not probed again.
        let mut chained = expr;
        let mut marker_cols: Vec<(usize, bool)> = Vec::new(); // (col, positive)
        let mut sigma: Vec<Predicate> = Vec::new();
        let mut probe_index = 0usize;
        for part in &parts {
            match part {
                Part::Probe { on, test, positive } => {
                    let marker_col = p + probe_index;
                    // const(i): for each earlier probe k with marker m_k,
                    // positive disjunct k → require m_k = ∅ (not yet
                    // satisfied); negated disjunct k → require m_k ≠ ∅.
                    let constraint = Constraint {
                        tests: marker_cols.iter().map(|&(col, pos)| (col, pos)).collect(),
                    };
                    chained = chained.constrained_outer_join(test.clone(), on.clone(), constraint);
                    sigma.push(if *positive {
                        Predicate::NotNull(marker_col)
                    } else {
                        Predicate::IsNull(marker_col)
                    });
                    marker_cols.push((marker_col, *positive));
                    probe_index += 1;
                }
                Part::Pred(pred) => sigma.push(pred.clone()),
            }
        }
        // σ is provably non-empty here: `flatten_or` returns at least one
        // disjunct, and every disjunct either pushed a Part (each Part
        // pushes exactly one predicate above) or returned early. Even so,
        // `or_all` is now total — an empty disjunction is `false`, the
        // correct selection for "no disjunct can hold".
        debug_assert_eq!(sigma.len(), parts.len());
        debug_assert!(!sigma.is_empty(), "a disjunctive filter has disjuncts");
        let filtered = chained.select(Predicate::or_all(sigma));
        let back: Vec<usize> = (0..p).collect();
        Ok(Some((lay, project(filtered, back, p + probe_index))))
    }

    /// Correct (but union-building) fallback for disjunctive filters whose
    /// disjuncts need correlated translation: σ_∨(E) = ∪ᵢ σ_dᵢ(E).
    fn apply_disjunction_by_union(
        &self,
        ctx: Typed,
        disjuncts: &[&Formula],
        outer: &BTreeSet<Var>,
    ) -> Result<Option<Typed>, TranslateError> {
        let (lay, expr) = ctx;
        let mut acc: Option<AlgebraExpr> = None;
        for d in disjuncts {
            let applied = self.apply_filter((lay.clone(), expr.clone()), d, outer)?;
            let Some((_, e)) = applied else {
                return Ok(None);
            };
            acc = Some(match acc {
                None => e,
                Some(a) => a.union(e),
            });
        }
        Ok(acc.map(|e| (lay, e)))
    }
}

#[cfg(test)]
thread_local! {
    /// `(estimate(left), estimate(right))` of every `⋈` / `×` the cost
    /// ordering emitted on this thread, read back from the emitted node —
    /// lets a test check the build-side rule on real translations.
    pub(crate) static COST_ORDERED_JOINS: std::cell::RefCell<Vec<(f64, f64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
fn record_cost_ordered_join(e: &AlgebraExpr, db: &Database) {
    if let AlgebraExpr::Join { left, right, .. } | AlgebraExpr::Product { left, right } = e {
        let sides = (
            gq_algebra::estimate(left, db),
            gq_algebra::estimate(right, db),
        );
        COST_ORDERED_JOINS.with(|j| j.borrow_mut().push(sides));
    }
}

/// Natural join of two typed expressions (product when no shared vars).
fn join_natural(a: Typed, b: Typed) -> Typed {
    let (la, ea) = a;
    let (lb, eb) = b;
    let pairs = la.shared_pairs(&lb);
    let lay = la.concat(&lb);
    let expr = if pairs.is_empty() {
        ea.product(eb)
    } else {
        ea.join(eb, pairs)
    };
    (lay, expr)
}

/// `π[positions]` over an input of `arity` columns. Every algebra result is
/// a set, so an identity projection is the input itself; a projection of a
/// projection is one projection (`π[p](π[q](e)) = π[q∘p](e)`). Either way
/// the executor's dedup pass for the dropped π is saved.
fn project(expr: AlgebraExpr, positions: Vec<usize>, arity: usize) -> AlgebraExpr {
    if positions.iter().copied().eq(0..arity) {
        return expr;
    }
    match expr {
        AlgebraExpr::Project {
            input,
            positions: inner,
        } => input.project(positions.iter().map(|&p| inner[p]).collect()),
        expr => expr.project(positions),
    }
}

/// Split a block's producers into those to join and the ∃-ranges to apply
/// as filters because the others already produce all their variables
/// (DESIGN.md §7.5). At least one producer is always kept.
fn split_covered_ranges(producers: &[Formula]) -> (Vec<&Formula>, Vec<&Formula>) {
    let mut kept: Vec<&Formula> = producers.iter().collect();
    let mut covered = Vec::new();
    let mut i = 0;
    while i < kept.len() {
        let is_covered = kept.len() > 1 && matches!(kept[i], Formula::Exists(..)) && {
            let others: BTreeSet<Var> = kept
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .flat_map(|(_, p)| p.free_vars())
                .collect();
            kept[i].free_vars().is_subset(&others)
        };
        if is_covered {
            covered.push(kept.remove(i));
        } else {
            i += 1;
        }
    }
    (kept, covered)
}

/// Apply a standalone test to a context.
fn apply_test(ctx: Typed, test: Test, mode: DivisionMode) -> Result<Typed, TranslateError> {
    let (lay, expr) = ctx;
    Ok(match test {
        Test::Membership {
            cvars,
            expr: test_expr,
            positive,
        } => {
            let lpos = lay
                .positions_of(cvars.iter())
                .ok_or_else(|| TranslateError::internal("test vars available in context"))?;
            let on: Vec<(usize, usize)> =
                lpos.into_iter().enumerate().map(|(i, l)| (l, i)).collect();
            let joined = if positive {
                expr.semi_join(test_expr, on)
            } else {
                expr.complement_join(test_expr, on)
            };
            (lay, joined)
        }
        Test::Division {
            cvars,
            g_aligned,
            divisor,
        } => {
            let c = cvars.len();
            let lpos = lay
                .positions_of(cvars.iter())
                .ok_or_else(|| TranslateError::internal("division vars available in context"))?;
            let on: Vec<(usize, usize)> = lpos
                .iter()
                .copied()
                .enumerate()
                .map(|(i, l)| (l, i))
                .collect();
            match mode {
                DivisionMode::Divide => {
                    // quotient = π_C(g ÷ divisor); divide the z̄ columns
                    // (which sit after the C columns in g_aligned).
                    let dz: Vec<(usize, usize)> = (0..divisor_arity_of(&divisor))
                        .map(|i| (c + i, i))
                        .collect();
                    let quotient = g_aligned.divide(divisor.clone(), dz);
                    // E ⋉ quotient, plus all of E when the divisor is
                    // empty (vacuous ∀).
                    let main = expr.clone().semi_join(quotient, on);
                    let vacuous = expr.complement_join(divisor, vec![]);
                    (lay, main.union(vacuous))
                }
                DivisionMode::ComplementJoin => {
                    // violators = (π_C(E) × D) ⊼ G; E ⊼_C π_C(violators).
                    let zn = divisor_arity_of(&divisor);
                    let candidates = project(expr.clone(), lpos, lay.arity()).product(divisor);
                    let all: Vec<(usize, usize)> = (0..c + zn).map(|i| (i, i)).collect();
                    let violators = candidates
                        .complement_join(g_aligned, all)
                        .project((0..c).collect());
                    (lay, expr.complement_join(violators, on))
                }
            }
        }
    })
}

/// The arity of a divisor expression (z̄ column count), read off the
/// `π_z̄(block)` it is always built as — no catalog lookup.
fn divisor_arity_of(divisor: &AlgebraExpr) -> usize {
    match divisor {
        AlgebraExpr::Project { positions, .. } => positions.len(),
        _ => unreachable!("divisor is always a projection"),
    }
}

/// Flatten a disjunction into its disjunct list.
fn flatten_or(f: &Formula) -> Vec<&Formula> {
    let mut out = Vec::new();
    fn walk<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
        if let Formula::Or(a, b) = f {
            walk(a, out);
            walk(b, out);
        } else {
            out.push(f);
        }
    }
    walk(f, &mut out);
    out
}

/// Build a `RestrictionError` diagnostic for an unrestricted subformula.
fn unrestricted_diag(f: &Formula) -> gq_calculus::RestrictionError {
    gq_calculus::RestrictionError::UnrestrictedExistential {
        vars: f.free_vars().into_iter().collect(),
        subformula: f.to_string(),
    }
}
