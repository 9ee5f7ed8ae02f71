//! Views: named open queries usable as atoms.
//!
//! Definition 1 allows a range to be "a relation or a view", and the
//! paper's motivation includes "evaluating sophisticated views". Views are
//! expanded at the *formula* level — an atom `v(t₁,…,tₙ)` whose name is a
//! registered view is replaced by the view's body with its answer
//! variables substituted by the atom's terms (bound variables renamed
//! apart) — so every strategy (improved, classical, nested-loop) evaluates
//! them identically, and views can use quantifiers, negation and other
//! views freely.

use crate::EngineError;
use gq_calculus::{check_restricted_open, parse, Formula, NameGen, Term, Var};
use gq_storage::Database;
use std::collections::BTreeMap;
use std::sync::RwLock;

/// A registry of named views.
///
/// Internally synchronized: definitions take a write lock, expansion and
/// lookups a read lock, so one registry can serve concurrent sessions
/// (e.g. `gq-server` connections sharing an `Arc<QueryEngine>`).
///
/// The generation counter lives *inside* the same lock as the view map:
/// a reader observing generation `g` is guaranteed to see exactly the
/// map state that produced `g`. (An earlier revision kept the counter in
/// a separate atomic, which let a racing `define` publish a new map
/// before the counter moved — a prepared query could then cache a plan
/// compiled against the new views under the old generation.)
#[derive(Debug, Default)]
pub struct ViewRegistry {
    inner: RwLock<Inner>,
}

/// Lock payload: the view map and the definition counter, moved together.
#[derive(Debug, Default)]
struct Inner {
    views: BTreeMap<String, View>,
    /// Monotone counter bumped by every definition — part of the plan
    /// cache key, so cached plans never survive a view redefinition.
    generation: u64,
}

/// One view: an open formula plus its answer variables (in name order —
/// the view's "column" order).
#[derive(Debug, Clone)]
pub struct View {
    /// View name.
    pub name: String,
    /// Answer variables, name order.
    pub params: Vec<Var>,
    /// The defining open formula.
    pub body: Formula,
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

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ViewRegistry::default()
    }

    /// Read-lock the registry, recovering from poisoning (a panicking
    /// session must not wedge every other session's view expansion).
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Define a view from query text. The body must be an open, restricted
    /// formula; its free variables (name order) become the view's columns.
    /// Every relation the body references must already exist — as a
    /// `catalog` relation or a previously defined view — so a typo'd or
    /// forward reference fails *here* with
    /// [`ViewError::UnknownRelation`], not at first query. (Eager
    /// validation also makes definition cycles structurally impossible:
    /// a view can only reference views defined before it.)
    pub fn define(
        &self,
        name: impl Into<String>,
        text: &str,
        catalog: &Database,
    ) -> Result<(), EngineError> {
        let name = name.into();
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if inner.views.contains_key(&name) {
            return Err(EngineError::View(ViewError::Duplicate(name)));
        }
        let body = parse(text)?;
        let params: Vec<Var> = body.free_vars().into_iter().collect();
        if params.is_empty() {
            return Err(EngineError::View(ViewError::ClosedBody(name)));
        }
        for referenced in body.relation_names() {
            if !catalog.has_relation(referenced) && !inner.views.contains_key(referenced) {
                return Err(EngineError::View(ViewError::UnknownRelation {
                    view: name,
                    relation: referenced.to_string(),
                }));
            }
        }
        // The body itself must be restricted (views are ranges).
        check_restricted_open(&body).map_err(gq_translate::TranslateError::from)?;
        inner
            .views
            .insert(name.clone(), View { name, params, body });
        // Bumped under the same write lock that updated the map, so no
        // reader can ever pair a new map with an old generation.
        inner.generation += 1;
        Ok(())
    }

    /// Definition-counter: changes whenever the registry's contents do.
    pub fn generation(&self) -> u64 {
        self.read().generation
    }

    /// Generation and view count, read atomically under one lock — the
    /// pair is always consistent: each definition adds exactly one view
    /// and bumps the generation by one, so `generation == len` holds for
    /// every observer.
    pub fn snapshot_stats(&self) -> (u64, usize) {
        let inner = self.read();
        (inner.generation, inner.views.len())
    }

    /// Registered views in name order (snapshot copy).
    pub fn views(&self) -> Vec<View> {
        self.read().views.values().cloned().collect()
    }

    /// Is `name` a view?
    pub fn contains(&self, name: &str) -> bool {
        self.read().views.contains_key(name)
    }

    /// Expand every view atom in `f`, recursively. The whole expansion
    /// runs against one read-locked state of the registry, so a racing
    /// `define` cannot produce a half-old, half-new expansion.
    pub fn expand(&self, f: &Formula) -> Result<Formula, ViewError> {
        self.expand_with_generation(f).map(|(_, f)| f)
    }

    /// [`ViewRegistry::expand`] plus the generation the expansion ran
    /// against, observed under the *same* read lock. Plan-cache keying
    /// must use this generation — reading it separately would let a
    /// racing `define` slip between expansion and keying, caching a plan
    /// compiled against the new views under the old generation.
    pub fn expand_with_generation(&self, f: &Formula) -> Result<(u64, Formula), ViewError> {
        let inner = self.read();
        if inner.views.is_empty() {
            return Ok((inner.generation, f.clone()));
        }
        let mut gen = NameGen::new();
        let expanded = Self::expand_depth(&inner.views, f, 0, &mut gen)?;
        Ok((inner.generation, expanded))
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
        assert_eq!(e.views().snapshot_stats(), (0, 0));
        // a typo'd relation is caught with the offending name
        assert!(matches!(
            e.define_view("v", "studnet(x)"),
            Err(EngineError::View(super::ViewError::UnknownRelation { relation, .. }))
                if relation == "studnet"
        ));
    }

    #[test]
    fn generation_and_contents_move_together_under_racing_defines() {
        use std::sync::Arc;
        // A definer thread adds views one by one while reader threads
        // repeatedly observe (generation, len) atomically. Each define
        // adds exactly one view and bumps the generation by one, so every
        // observation must satisfy generation == len — the torn-read bug
        // (generation in a separate atomic) made this fail under race.
        let e = Arc::new(engine());
        let definer = {
            let e = Arc::clone(&e);
            std::thread::spawn(move || {
                for i in 0..64 {
                    e.define_view(format!("v{i}"), "student(x)").unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while last < 64 {
                        let (generation, len) = e.views().snapshot_stats();
                        assert_eq!(
                            generation, len as u64,
                            "torn read: generation {generation} with {len} views"
                        );
                        // expansion under the same lock agrees with the pair
                        let (g2, _) = e
                            .views()
                            .expand_with_generation(&gq_calculus::parse("student(x)").unwrap())
                            .unwrap();
                        assert!(g2 >= generation);
                        last = generation;
                    }
                })
            })
            .collect();
        definer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(e.views().snapshot_stats(), (64, 64));
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
