//! Definitions: views, named open queries usable as atoms.
//!
//! Definition 1 allows a range to be "a relation or a view", and the
//! paper's motivation includes "evaluating sophisticated views". Virtual
//! views are expanded at the *formula* level — an atom `v(t₁,…,tₙ)` whose
//! name is a defined view is replaced by the view's body with its answer
//! variables substituted by the atom's terms (bound variables renamed
//! apart) — so every strategy (improved, classical, nested-loop) evaluates
//! them identically, and views can use quantifiers, negation and other
//! views freely.
//!
//! Every kind of definition — virtual, materialized, recursive — lives in
//! one [`Definitions`] value. The writer changes it under the engine's
//! store lock and publishes it inside each pinned snapshot, so a query
//! reads its definitions, like its relations, from one committed state.

use crate::ivm::Unit;
use crate::EngineError;
use gq_calculus::{check_restricted_open, Formula, NameGen, Term, Var};
use gq_storage::{Database, Relation, StorageError};
use std::collections::BTreeMap;

/// The reserved name of the database domain (§2.1): the implicit range a
/// domain-closure request gives otherwise unrestricted variables. No
/// relation or view may take it.
pub(crate) const DOM: &str = "dom";

/// Every named definition of one catalog state: the virtual views by
/// name, and the materialized units in maintenance (dependency) order —
/// a view's upstream extents are always patched before its own delta
/// plans run. Extents live in the database under their views' names.
#[derive(Debug, Clone, Default)]
pub(crate) struct Definitions {
    views: BTreeMap<String, View>,
    pub(crate) units: Vec<Unit>,
}

/// The kind of a definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// Expanded into each query that names it.
    Virtual,
    /// Stored as an extent and maintained incrementally.
    Materialized,
    /// A member of a `with recursive` group, maintained by semi-naive
    /// fixpoint.
    Recursive,
}

impl ViewKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ViewKind::Virtual => "virtual",
            ViewKind::Materialized => "materialized",
            ViewKind::Recursive => "recursive",
        }
    }
}

/// One definition: an open formula plus its answer variables (the view's
/// column order).
#[derive(Debug, Clone)]
pub struct View {
    /// View name.
    pub name: String,
    /// Answer variables, in column order.
    pub params: Vec<Var>,
    /// The defining open formula.
    pub body: Formula,
    /// How the view is evaluated.
    pub kind: ViewKind,
}

/// View-specific errors, folded into [`EngineError`].
#[derive(Debug, Clone, PartialEq)]
pub enum ViewError {
    /// A view atom used the wrong number of arguments.
    ArityMismatch {
        /// View name.
        view: String,
        /// Number of parameters of the view.
        expected: usize,
        /// Number of arguments in the atom.
        actual: usize,
    },
    /// View expansion exceeded the nesting limit — a definition cycle.
    Cycle {
        /// The view detected on the cycle.
        view: String,
    },
    /// A view with this name already exists.
    Duplicate(String),
    /// The name is reserved for the database domain.
    Reserved(String),
    /// A view body must be an open (answer-producing) formula.
    ClosedBody(String),
    /// A view body referenced a name that is neither a catalog relation
    /// nor a previously defined view. Caught eagerly at definition time,
    /// not at first use.
    UnknownRelation {
        /// The view being defined.
        view: String,
        /// The unresolvable name its body references.
        relation: String,
    },
    /// A recursive definition recurses through a non-monotone position
    /// (negation, complement-join, a division's divisor, an outer-join's
    /// padded side, or an aggregate) — the group cannot be stratified
    /// and the semi-naive fixpoint would be unsound for it.
    UnstratifiedRecursion {
        /// The view whose plan breaks monotonicity.
        view: String,
        /// The group member read at a non-monotone position.
        relation: String,
    },
    /// A typed write named a materialized view: its extent changes only
    /// through maintenance.
    ExtentWrite(String),
    /// A `with recursive` definition is malformed (duplicate or reserved
    /// names, parameter/body mismatch, …).
    BadRecursiveDef {
        /// The definition at fault.
        view: String,
        /// What is wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::ArityMismatch {
                view,
                expected,
                actual,
            } => write!(
                f,
                "view `{view}` has {expected} parameters, used with {actual}"
            ),
            ViewError::Cycle { view } => write!(f, "cyclic view definition involving `{view}`"),
            ViewError::Duplicate(v) => write!(f, "view `{v}` already defined"),
            ViewError::Reserved(v) => {
                write!(f, "`{v}` is reserved: it names the database domain")
            }
            ViewError::ClosedBody(v) => {
                write!(
                    f,
                    "view `{v}` must be an open formula (it has no free variables)"
                )
            }
            ViewError::UnknownRelation { view, relation } => {
                write!(
                    f,
                    "view `{view}` references `{relation}`, which is neither a relation nor a view"
                )
            }
            ViewError::UnstratifiedRecursion { view, relation } => {
                write!(
                    f,
                    "recursive view `{view}` reads member `{relation}` at a non-monotone \
                     position (negation, complement-join, divisor, outer-join padding, or \
                     aggregate) — the group cannot be stratified"
                )
            }
            ViewError::ExtentWrite(v) => write!(
                f,
                "`{v}` is a materialized view: its extent changes only through maintenance"
            ),
            ViewError::BadRecursiveDef { view, detail } => {
                write!(f, "recursive definition `{view}`: {detail}")
            }
        }
    }
}

impl std::error::Error for ViewError {}

/// Expansion nesting limit (cycle backstop).
const MAX_DEPTH: usize = 32;

impl Definitions {
    /// The one name check for anything new in the catalog — a relation,
    /// a view of any kind: the name must not be the reserved `dom`, a
    /// definition's, or a relation's. Run under the store lock.
    pub(crate) fn check_name_free(&self, name: &str, db: &Database) -> Result<(), EngineError> {
        if name == DOM {
            return Err(ViewError::Reserved(name.to_string()).into());
        }
        if self.views.contains_key(name) || self.is_extent(name) {
            return Err(ViewError::Duplicate(name.to_string()).into());
        }
        if db.has_relation(name) {
            return Err(StorageError::RelationExists(name.to_string()).into());
        }
        Ok(())
    }

    /// Is `name` a materialized view, whose extent only maintenance
    /// writes?
    pub(crate) fn is_extent(&self, name: &str) -> bool {
        self.units
            .iter()
            .any(|u| u.members().iter().any(|m| m.name == name))
    }

    /// Does an atom over `name` resolve: to a relation of `db` other than
    /// the reserved `dom`, or to a virtual view?
    pub(crate) fn resolves(&self, name: &str, db: &Database) -> bool {
        self.views.contains_key(name) || (name != DOM && db.has_relation(name))
    }

    /// Add a virtual view whose name passed [`Definitions::check_name_free`].
    /// The body must be an open, restricted formula; its free variables
    /// (name order) become the view's columns. Every name the body
    /// references must already resolve, so a typo'd or forward reference
    /// fails *here* with [`ViewError::UnknownRelation`], not at first
    /// query. (That also makes definition cycles impossible: a view can
    /// only reference views defined before it.)
    pub(crate) fn define_view(
        &mut self,
        name: String,
        body: Formula,
        db: &Database,
    ) -> Result<(), EngineError> {
        let params: Vec<Var> = body.free_vars().into_iter().collect();
        if params.is_empty() {
            return Err(ViewError::ClosedBody(name).into());
        }
        if let Some(unknown) = body
            .relation_names()
            .into_iter()
            .find(|r| !self.resolves(r, db))
        {
            return Err(ViewError::UnknownRelation {
                view: name,
                relation: unknown.to_string(),
            }
            .into());
        }
        // The body itself must be restricted (views are ranges).
        check_restricted_open(&body).map_err(gq_translate::TranslateError::from)?;
        let view = View {
            name: name.clone(),
            params,
            body,
            kind: ViewKind::Virtual,
        };
        self.views.insert(name, view);
        Ok(())
    }

    /// Every definition, in name order.
    pub(crate) fn list(&self) -> Vec<View> {
        let mut out: Vec<View> = self.views.values().cloned().collect();
        for unit in &self.units {
            let kind = match unit {
                Unit::Single(_) => ViewKind::Materialized,
                Unit::Recursive(_) => ViewKind::Recursive,
            };
            out.extend(unit.members().iter().map(|m| View {
                name: m.name.clone(),
                params: m.vars.clone(),
                body: m.body.clone(),
                kind,
            }));
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The database domain (§2.1): every value of `db`'s base relations —
    /// not of extents, which hold derived values, nor of a `dom` relation
    /// a directory written before `dom` was reserved may restore.
    pub(crate) fn domain(&self, db: &Database) -> Relation {
        let mut dom = db.domain_except(|name| name == DOM || self.is_extent(name));
        dom.set_name(DOM);
        dom
    }

    /// Expand every virtual-view atom in `f`, recursively.
    pub(crate) fn expand(&self, f: &Formula) -> Result<Formula, ViewError> {
        if self.views.is_empty() {
            return Ok(f.clone());
        }
        Self::expand_depth(&self.views, f, 0, &mut NameGen::new())
    }

    fn expand_depth(
        views: &BTreeMap<String, View>,
        f: &Formula,
        depth: usize,
        gen: &mut NameGen,
    ) -> Result<Formula, ViewError> {
        match f {
            Formula::Atom(a) => match views.get(&a.relation) {
                None => Ok(f.clone()),
                Some(view) => {
                    if depth >= MAX_DEPTH {
                        return Err(ViewError::Cycle {
                            view: view.name.clone(),
                        });
                    }
                    if a.terms.len() != view.params.len() {
                        return Err(ViewError::ArityMismatch {
                            view: view.name.clone(),
                            expected: view.params.len(),
                            actual: a.terms.len(),
                        });
                    }
                    // Rename the body apart from everything (fresh bound
                    // vars AND fresh parameter names), then substitute the
                    // atom's terms for the parameters.
                    let mut taken = view.body.free_vars();
                    taken.extend(view.body.bound_vars());
                    for t in &a.terms {
                        if let Some(v) = t.as_var() {
                            taken.insert(v.clone());
                        }
                    }
                    let mut body = view.body.rename_bound_avoiding(&mut taken, gen);
                    // Substitute parameters via fresh intermediates to
                    // avoid clashes between old and new names.
                    let intermediates: Vec<Var> = view.params.iter().map(|_| gen.fresh()).collect();
                    for (p, tmp) in view.params.iter().zip(&intermediates) {
                        body = body.substitute(p, &Term::Var(tmp.clone()));
                    }
                    for (tmp, t) in intermediates.iter().zip(&a.terms) {
                        body = body.substitute(tmp, t);
                    }
                    // Equate repeated variables / apply constants happens
                    // naturally through substitution; recurse for nested
                    // views.
                    Self::expand_depth(views, &body, depth + 1, gen)
                }
            },
            Formula::Compare(_) => Ok(f.clone()),
            Formula::Not(g) => Ok(Formula::not(Self::expand_depth(views, g, depth, gen)?)),
            Formula::And(a, b) => Ok(Formula::and(
                Self::expand_depth(views, a, depth, gen)?,
                Self::expand_depth(views, b, depth, gen)?,
            )),
            Formula::Or(a, b) => Ok(Formula::or(
                Self::expand_depth(views, a, depth, gen)?,
                Self::expand_depth(views, b, depth, gen)?,
            )),
            Formula::Implies(a, b) => Ok(Formula::implies(
                Self::expand_depth(views, a, depth, gen)?,
                Self::expand_depth(views, b, depth, gen)?,
            )),
            Formula::Iff(a, b) => Ok(Formula::iff(
                Self::expand_depth(views, a, depth, gen)?,
                Self::expand_depth(views, b, depth, gen)?,
            )),
            Formula::Exists(vs, g) => Ok(Formula::exists(
                vs.clone(),
                Self::expand_depth(views, g, depth, gen)?,
            )),
            Formula::Forall(vs, g) => Ok(Formula::forall(
                vs.clone(),
                Self::expand_depth(views, g, depth, gen)?,
            )),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::{EngineError, QueryEngine, Strategy};
    use gq_storage::{tuple, Database, Schema};

    fn engine() -> QueryEngine {
        let mut db = Database::new();
        db.create_relation("student", Schema::new(vec!["name"]).unwrap())
            .unwrap();
        db.create_relation("lecture", Schema::new(vec!["name", "dept"]).unwrap())
            .unwrap();
        db.create_relation("attends", Schema::new(vec!["s", "l"]).unwrap())
            .unwrap();
        for s in ["ann", "bob", "eve"] {
            db.insert("student", tuple![s]).unwrap();
        }
        for (l, d) in [("db", "cs"), ("os", "cs"), ("alg", "math")] {
            db.insert("lecture", tuple![l, d]).unwrap();
        }
        for (s, l) in [("ann", "db"), ("ann", "os"), ("bob", "db"), ("eve", "alg")] {
            db.insert("attends", tuple![s, l]).unwrap();
        }
        QueryEngine::new(db)
    }

    #[test]
    fn simple_view_as_range() {
        let e = engine();
        // columns in name order: l (lecture), s (student)
        e.define_view("cs_attendance", "attends(s,l) & lecture(l,\"cs\")")
            .unwrap();
        let r = e.query("cs_attendance(y, x)").unwrap();
        assert_eq!(r.len(), 3);
        // view used as a producer with a constant argument
        let r2 = e.query("student(x) & cs_attendance(\"db\", x)").unwrap();
        assert_eq!(r2.len(), 2); // ann, bob
    }

    #[test]
    fn quantified_view_body() {
        let e = engine();
        // "busy student": attends at least two distinct lectures
        e.define_view(
            "busy",
            "student(b) & (exists l1, l2. attends(b,l1) & attends(b,l2) & l1 != l2)",
        )
        .unwrap();
        let r = e.query("busy(x)").unwrap();
        assert_eq!(r.answers.sorted_tuples(), vec![tuple!["ann"]]);
        // negated view atom
        let r2 = e.query("student(x) & !busy(x)").unwrap();
        assert_eq!(r2.len(), 2);
    }

    #[test]
    fn views_of_views() {
        let e = engine();
        e.define_view("cs_lecture", "lecture(l,\"cs\")").unwrap();
        e.define_view(
            "cs_completionist",
            "student(c) & (forall l. cs_lecture(l) -> attends(c,l))",
        )
        .unwrap();
        let r = e.query("cs_completionist(x)").unwrap();
        assert_eq!(r.answers.sorted_tuples(), vec![tuple!["ann"]]);
    }

    #[test]
    fn views_agree_across_strategies() {
        let e = engine();
        e.define_view("cs_lecture", "lecture(l,\"cs\")").unwrap();
        let q = "student(x) & !(exists y. cs_lecture(y) & !attends(x,y))";
        let answers: Vec<_> = Strategy::ALL
            .iter()
            .map(|&s| e.query_with(q, s).unwrap().answers)
            .collect();
        assert!(answers[0].set_eq(&answers[1]));
        assert!(answers[0].set_eq(&answers[2]));
        assert_eq!(answers[0].sorted_tuples(), vec![tuple!["ann"]]);
    }

    #[test]
    fn view_errors() {
        let e = engine();
        e.define_view("v", "student(x)").unwrap();
        // duplicate
        assert!(matches!(
            e.define_view("v", "student(y)"),
            Err(EngineError::View(super::ViewError::Duplicate(_)))
        ));
        // arity mismatch at use
        assert!(matches!(
            e.query("v(x, y)"),
            Err(EngineError::View(super::ViewError::ArityMismatch { .. }))
        ));
        // closed body rejected
        assert!(matches!(
            e.define_view("w", "exists x. student(x)"),
            Err(EngineError::View(super::ViewError::ClosedBody(_)))
        ));
    }

    #[test]
    fn unknown_relation_rejected_at_define_time() {
        let e = engine();
        // forward reference: `b` is neither a relation nor a view yet, so
        // the definition fails eagerly instead of at first query. (This
        // also makes definition cycles structurally impossible — the old
        // mutual-recursion trick `a` → `b` → `a` dies here.)
        assert!(matches!(
            e.define_view("a", "student(x) & b(x)"),
            Err(EngineError::View(super::ViewError::UnknownRelation { view, relation }))
                if view == "a" && relation == "b"
        ));
        // self-reference fails the same way: the name is not defined yet.
        assert!(matches!(
            e.define_view("r", "student(x) & r(x)"),
            Err(EngineError::View(super::ViewError::UnknownRelation { .. }))
        ));
        // the failed attempts left nothing behind
        assert!(e.snapshot().views().is_empty());
        // a typo'd relation is caught with the offending name
        assert!(matches!(
            e.define_view("v", "studnet(x)"),
            Err(EngineError::View(super::ViewError::UnknownRelation { relation, .. }))
                if relation == "studnet"
        ));
    }

    #[test]
    fn a_pinned_snapshot_keeps_its_definitions() {
        let e = engine();
        let before = e.snapshot();
        e.define_view("v", "student(x)").unwrap();
        let after = e.snapshot();
        assert!(before.views().is_empty());
        let views = after.views();
        assert_eq!(views.len(), 1);
        assert_eq!(
            (views[0].name.as_str(), views[0].kind.name()),
            ("v", "virtual")
        );
        // A definition writes no relation, so the epoch stays.
        assert_eq!(before.epoch(), after.epoch());
    }

    #[test]
    fn view_with_repeated_argument() {
        let e = engine();
        e.define_view("pair", "attends(s,l)").unwrap();
        // pair(x,x): student whose name equals a lecture name — none.
        let r = e.query("student(x) & pair(x,x)").unwrap();
        assert!(r.is_empty());
    }
}
