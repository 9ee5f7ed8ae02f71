//! Delta rewriting: incremental view maintenance over the paper's algebra.
//!
//! Given a plan `E` and per-relation deltas (tuples inserted into /
//! removed from base relations by a committed mutation), [`delta_plan`]
//! produces a pair of plans computing a **delta pair** `(Δ⁺, Δ⁻)` such
//! that patching the old extent as `new(E) = (old(E) − Δ⁻) ∪ Δ⁺` is
//! exact. The delta plans are ordinary [`AlgebraExpr`]s evaluated against
//! a synthesized *delta database* ([`delta_database`]) that exposes, for
//! every changed relation `r`:
//!
//! | name    | contents                          |
//! |---------|-----------------------------------|
//! | `r`     | the **new** (post-mutation) extent |
//! | `r@old` | the pre-mutation extent           |
//! | `r@+`   | tuples inserted by the mutation   |
//! | `r@-`   | tuples removed by the mutation    |
//!
//! `@` cannot appear in a parsed relation name, so the synthetic names
//! can never collide with user relations.
//!
//! ## The safety contract
//!
//! Delta pairs are allowed to over-approximate removals as long as they
//! compensate with re-insertions (DRed-style rederivation). Precisely,
//! every node's `(Δ⁺, Δ⁻)` satisfies:
//!
//! 1. `Δ⁺ ⊆ new(E)` — nothing is inserted that should not be there;
//! 2. `Δ⁺ ⊇ new(E) − old(E)` — every genuinely new tuple is inserted;
//! 3. `Δ⁻ ⊇ old(E) − new(E)` — every genuinely gone tuple is removed;
//! 4. `old(E) ∩ new(E) ∩ Δ⁻ ⊆ Δ⁺` — a surviving tuple that an
//!    over-approximate `Δ⁻` removes is always re-derived.
//!
//! Under 1–4, `(old − Δ⁻) ∪ Δ⁺ = new` exactly; the rules below preserve
//! the contract compositionally (each rule assumes only 1–4 of its
//! children, and the π rule also the lemma below).
//!
//! ## The equality lemma
//!
//! The equality analysis (the `equalities` module) reports, per node,
//! column = column and column = constant facts that every output tuple
//! satisfies on any database. **Lemma:** every tuple of a node's `Δ⁺`
//! and `Δ⁻` satisfies the facts reported for that node. Checked row by
//! row against the table below, assuming the lemma for the children:
//!
//! * `Δ⁺` of every row: `Δ⁺ ⊆ new(E)` (condition 1), and `new(E)` is the
//!   node's output on the new database, where its facts hold.
//! * σ_p: `σ_p(a⁻)` — `a⁻` satisfies A's facts, σ_p adds only its own
//!   top-level `=` conjuncts, which it checks.
//! * π_l: `π_l(a⁻)` — A's facts hold on `a⁻`; π reports them mapped.
//! * ×, ⋈: `(a⁻ ∘ B₀) ∪ (A₀ ∘ b⁻)` — each half pairs a tuple meeting A's
//!   facts (`a⁻` by the lemma, `A₀` as A's output on the old database)
//!   with one meeting B's, and ⋈ emits only pairs that match its keys.
//! * ⋉, ⊼: `a⁻ ∪ (A₀ ⋉ b⁻)`, `a⁻ ∪ (A₀ ⋉ b⁺)` — left tuples only, each
//!   meeting A's facts.
//! * Every other node reports nothing, so there is nothing to check. −
//!   is among them on purpose: its `Δ⁻` contains `b⁺`, tuples of the
//!   *right* side that need not meet any fact of the left.
//!
//! The π rule uses the lemma to prove condition 4 without its semi-join
//! when the projection is injective (see the rule in `delta_node`).
//!
//! ## Rules
//!
//! Writing `A'`/`B'` for the new child extents, `A₀`/`B₀` for the old
//! ones and `(a⁺,a⁻)`/`(b⁺,b⁻)` for the child delta pairs:
//!
//! | node            | `Δ⁺`                                               | `Δ⁻`                  |
//! |-----------------|----------------------------------------------------|-----------------------|
//! | σ_p(A)          | σ_p(a⁺)                                            | σ_p(a⁻)               |
//! | π_l(A)          | π_l(a⁺) ∪ (π_l(a⁻) ⋉_l A'); re-derivation only when π_l is not injective on A | π_l(a⁻) |
//! | A × B           | (a⁺ × B') ∪ (A' × b⁺)                              | (a⁻ × B₀) ∪ (A₀ × b⁻) |
//! | A ⋈ B           | (a⁺ ⋈ B') ∪ (A' ⋈ b⁺)                              | (a⁻ ⋈ B₀) ∪ (A₀ ⋈ b⁻) |
//! | A ∪ B           | a⁺ ∪ b⁺ ∪ (a⁻ ⋉ B') ∪ (b⁻ ⋉ A')                    | a⁻ ∪ b⁻               |
//! | A − B           | (a⁺ ∪ (b⁻ ⋉ A')) − B'                              | a⁻ ∪ b⁺               |
//! | A ⋉ B           | (a⁺ ⋉ B') ∪ (A' ⋉ b⁺) ∪ ((A' ⋉ b⁻) ⋉ B')           | a⁻ ∪ (A₀ ⋉ b⁻)        |
//! | A ⊼ B           | (a⁺ ⊼ B') ∪ ((A' ⋉ b⁻) ⊼ B')                       | a⁻ ∪ (A₀ ⋉ b⁺)        |
//! | A ⟖ B           | via `(A ⋈ B) ∪ ((A ⊼ B) × {∅…∅})`                  | (same rewrite)        |
//! | A ⟖ᶜ B          | via `(M × {⊥}) ∪ ((A − M) × {∅})`, `M = σ_c(A) ⋉ B` | (same rewrite)        |
//! | A ÷ B, γcount   | recompute: `new − old` / `old − new`               |                       |
//!
//! The complement-join rule is the novel piece: a left tuple enters the
//! result when its *last* partner disappears — candidates are exactly
//! `A' ⋉ b⁻`, filtered by `⊼ B'` for remaining partners — and leaves as
//! soon as *any* partner appears (`A₀ ⋉ b⁺`; over-approximate, but
//! condition 4 holds vacuously because `b⁺ ⊆ B'` implies such a tuple is
//! not in `new(E)`). The outer-join rules reduce to the others through
//! the padding rewrites shown, which makes re-padding (inner side shrank)
//! and un-padding (inner side grew) explicit union/product deltas of the
//! marker-literal products.

use crate::equalities::equalities;
use crate::error::AlgebraError;
use crate::eval::arity_of;
use crate::expr::{AlgebraExpr, Constraint, JoinOn, Predicate};
use gq_storage::{Database, MutationDelta, Relation, StorageError, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Synthetic delta-database name of `r`'s pre-mutation extent.
pub fn old_name(r: &str) -> String {
    format!("{r}@old")
}

/// Synthetic delta-database name of `r`'s inserted-tuple set.
pub fn plus_name(r: &str) -> String {
    format!("{r}@+")
}

/// Synthetic delta-database name of `r`'s removed-tuple set.
pub fn minus_name(r: &str) -> String {
    format!("{r}@-")
}

/// A delta pair as plans: evaluate both against a [`delta_database`] and
/// patch the old extent as `(old − remove) ∪ insert`. `None` means the
/// rewriter proved the side empty (no changed relation feeds it), so the
/// caller can skip evaluation entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPlan {
    /// Plan computing `Δ⁺` (tuples to add to the extent).
    pub insert: Option<AlgebraExpr>,
    /// Plan computing `Δ⁻` (tuples to remove from the extent).
    pub remove: Option<AlgebraExpr>,
}

impl DeltaPlan {
    /// Both sides provably empty — the mutation cannot affect this plan.
    pub fn is_empty(&self) -> bool {
        self.insert.is_none() && self.remove.is_none()
    }
}

/// Rewrite `expr` into its delta plan with respect to the given set of
/// changed relations. `db` is the post-mutation catalog, used only for
/// arity computation. Errors mirror [`arity_of`] validation.
pub fn delta_plan(
    expr: &AlgebraExpr,
    changed: &BTreeSet<String>,
    db: &Database,
) -> Result<DeltaPlan, AlgebraError> {
    let d = delta_node(expr, changed, db)?;
    Ok(DeltaPlan {
        insert: d.plus,
        remove: d.minus,
    })
}

/// Replace every scan of a changed relation `r` with a scan of `r@old`,
/// turning a plan over the new database into the same plan over the
/// pre-mutation state (unchanged relations have identical extents in
/// both, so they keep their names).
pub fn rename_old(expr: &AlgebraExpr, changed: &BTreeSet<String>) -> AlgebraExpr {
    map_relations(expr, &|name| {
        if changed.contains(name) {
            old_name(name)
        } else {
            name.to_string()
        }
    })
}

fn map_relations(expr: &AlgebraExpr, f: &impl Fn(&str) -> String) -> AlgebraExpr {
    let m = |e: &AlgebraExpr| Box::new(map_relations(e, f));
    match expr {
        AlgebraExpr::Relation(name) => AlgebraExpr::Relation(f(name)),
        AlgebraExpr::Literal(r) => AlgebraExpr::Literal(r.clone()),
        AlgebraExpr::Select { input, predicate } => AlgebraExpr::Select {
            input: m(input),
            predicate: predicate.clone(),
        },
        AlgebraExpr::Project { input, positions } => AlgebraExpr::Project {
            input: m(input),
            positions: positions.clone(),
        },
        AlgebraExpr::Product { left, right } => AlgebraExpr::Product {
            left: m(left),
            right: m(right),
        },
        AlgebraExpr::Join { left, right, on } => AlgebraExpr::Join {
            left: m(left),
            right: m(right),
            on: on.clone(),
        },
        AlgebraExpr::SemiJoin { left, right, on } => AlgebraExpr::SemiJoin {
            left: m(left),
            right: m(right),
            on: on.clone(),
        },
        AlgebraExpr::ComplementJoin { left, right, on } => AlgebraExpr::ComplementJoin {
            left: m(left),
            right: m(right),
            on: on.clone(),
        },
        AlgebraExpr::Division { left, right, on } => AlgebraExpr::Division {
            left: m(left),
            right: m(right),
            on: on.clone(),
        },
        AlgebraExpr::Union { left, right } => AlgebraExpr::Union {
            left: m(left),
            right: m(right),
        },
        AlgebraExpr::Difference { left, right } => AlgebraExpr::Difference {
            left: m(left),
            right: m(right),
        },
        AlgebraExpr::LeftOuterJoin { left, right, on } => AlgebraExpr::LeftOuterJoin {
            left: m(left),
            right: m(right),
            on: on.clone(),
        },
        AlgebraExpr::GroupCount { input, group } => AlgebraExpr::GroupCount {
            input: m(input),
            group: group.clone(),
        },
        AlgebraExpr::ConstrainedOuterJoin {
            left,
            right,
            on,
            constraint,
        } => AlgebraExpr::ConstrainedOuterJoin {
            left: m(left),
            right: m(right),
            on: on.clone(),
            constraint: constraint.clone(),
        },
    }
}

/// Internal per-node delta pair during rewriting.
struct Delta {
    plus: Option<AlgebraExpr>,
    minus: Option<AlgebraExpr>,
}

impl Delta {
    fn empty() -> Delta {
        Delta {
            plus: None,
            minus: None,
        }
    }
}

fn union_opt(a: Option<AlgebraExpr>, b: Option<AlgebraExpr>) -> Option<AlgebraExpr> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.union(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// `(i, i)` pairs over the full arity: a semi-join on `all_cols` is set
/// intersection.
fn all_cols(arity: usize) -> JoinOn {
    (0..arity).map(|i| (i, i)).collect()
}

/// A one-row literal of `arity` copies of the given marker value — the
/// padding row of the outer-join rewrites.
fn marker_row(arity: usize, v: Value) -> AlgebraExpr {
    let mut pad = Relation::intermediate(arity);
    // Cannot fail: intermediates accept markers and the arity matches.
    let _ = pad.insert(Tuple::new(vec![v; arity]));
    AlgebraExpr::Literal(pad)
}

/// The constrained outer-join's gate as a select predicate.
fn constraint_predicate(c: &Constraint) -> Predicate {
    Predicate::and_all(
        c.tests
            .iter()
            .map(|&(col, must_be_null)| {
                if must_be_null {
                    Predicate::IsNull(col)
                } else {
                    Predicate::NotNull(col)
                }
            })
            .collect(),
    )
}

fn delta_node(
    expr: &AlgebraExpr,
    changed: &BTreeSet<String>,
    db: &Database,
) -> Result<Delta, AlgebraError> {
    match expr {
        AlgebraExpr::Relation(name) => {
            if changed.contains(name) {
                // Consult the delta database: a side whose tuple set is
                // empty (an insert-only or remove-only mutation) folds to
                // `None` here, which lets every parent rule drop the
                // terms it feeds — in particular the re-derivation
                // semi-joins against full new extents that would
                // otherwise make an insert-only delta cost a recompute.
                let side = |n: String| match db.relation(&n) {
                    Ok(r) if r.is_empty() => None,
                    _ => Some(AlgebraExpr::Relation(n)),
                };
                Ok(Delta {
                    plus: side(plus_name(name)),
                    minus: side(minus_name(name)),
                })
            } else {
                Ok(Delta::empty())
            }
        }
        AlgebraExpr::Literal(_) => Ok(Delta::empty()),
        AlgebraExpr::Select { input, predicate } => {
            let d = delta_node(input, changed, db)?;
            Ok(Delta {
                plus: d.plus.map(|e| e.select(predicate.clone())),
                minus: d.minus.map(|e| e.select(predicate.clone())),
            })
        }
        AlgebraExpr::Project { input, positions } => {
            let d = delta_node(input, changed, db)?;
            // Removals lose support only when no other input tuple still
            // projects to the same row: π(a⁻) is over-approximate, so
            // re-derive the survivors by probing the new input on the
            // projected columns (condition 4) — unless π is injective.
            //
            // Proof that an injective π needs no re-derivation. Say the
            // kept columns l determine every column of A under A's
            // reported equalities. Take a row r ∈ old ∩ new ∩ π_l(a⁻):
            // r = π_l(t) with t ∈ a⁻ and r = π_l(u) with u ∈ A'. Both t
            // (by the lemma) and u (an output of A) satisfy A's
            // equalities and agree on l, so t = u ∈ A'. If t ∈ A₀, the
            // child's condition 4 puts t in a⁺; otherwise t ∈ A' − A₀ ⊆
            // a⁺ by its condition 2. Either way r ∈ π_l(a⁺) ⊆ Δ⁺, which
            // is condition 4; conditions 1–3 never used the term.
            let rederive = match &d.minus {
                Some(e) if !equalities(input, db)?.determined_by(positions) => {
                    Some(e.clone().project(positions.clone()).semi_join(
                        (**input).clone(),
                        positions.iter().copied().enumerate().collect(),
                    ))
                }
                _ => None,
            };
            Ok(Delta {
                plus: union_opt(d.plus.map(|e| e.project(positions.clone())), rederive),
                minus: d.minus.map(|e| e.project(positions.clone())),
            })
        }
        AlgebraExpr::Product { left, right } => {
            delta_bilinear(left, right, changed, db, &|l, r| l.product(r))
        }
        AlgebraExpr::Join { left, right, on } => {
            let on = on.clone();
            delta_bilinear(left, right, changed, db, &move |l, r| l.join(r, on.clone()))
        }
        AlgebraExpr::Union { left, right } => {
            let dl = delta_node(left, changed, db)?;
            let dr = delta_node(right, changed, db)?;
            let n = arity_of(expr, db)?;
            // A tuple removed from one side survives if the other side
            // still holds it (condition 4).
            let survive_l = dl
                .minus
                .clone()
                .map(|e| e.semi_join((**right).clone(), all_cols(n)));
            let survive_r = dr
                .minus
                .clone()
                .map(|e| e.semi_join((**left).clone(), all_cols(n)));
            Ok(Delta {
                plus: union_opt(union_opt(dl.plus, dr.plus), union_opt(survive_l, survive_r)),
                minus: union_opt(dl.minus, dr.minus),
            })
        }
        AlgebraExpr::Difference { left, right } => {
            let dl = delta_node(left, changed, db)?;
            let dr = delta_node(right, changed, db)?;
            let n = arity_of(expr, db)?;
            // Candidates: fresh left tuples, plus left tuples whose right
            // blocker disappeared; keep those outside the new right side.
            let unblocked = dr
                .minus
                .clone()
                .map(|e| e.semi_join((**left).clone(), all_cols(n)));
            let plus = union_opt(dl.plus, unblocked).map(|e| e.difference((**right).clone()));
            Ok(Delta {
                plus,
                minus: union_opt(dl.minus, dr.plus),
            })
        }
        AlgebraExpr::SemiJoin { left, right, on } => {
            let dl = delta_node(left, changed, db)?;
            let dr = delta_node(right, changed, db)?;
            let old_left = rename_old(left, changed);
            // Gained a partner / fresh left tuple with any partner.
            let p1 = dl.plus.map(|e| e.semi_join((**right).clone(), on.clone()));
            let p2 = dr
                .plus
                .clone()
                .map(|e| (**left).clone().semi_join(e, on.clone()));
            // Lost one partner but kept another (condition 4).
            let p3 = dr.minus.clone().map(|e| {
                (**left)
                    .clone()
                    .semi_join(e, on.clone())
                    .semi_join((**right).clone(), on.clone())
            });
            let m2 = dr.minus.map(|e| old_left.clone().semi_join(e, on.clone()));
            Ok(Delta {
                plus: union_opt(union_opt(p1, p2), p3),
                minus: union_opt(dl.minus, m2),
            })
        }
        AlgebraExpr::ComplementJoin { left, right, on } => {
            let dl = delta_node(left, changed, db)?;
            let dr = delta_node(right, changed, db)?;
            let old_left = rename_old(left, changed);
            // A left tuple enters when its last partner disappears:
            // candidates are the new left tuples matching a removed right
            // tuple, kept only if no partner remains in the new right.
            let p1 = dl
                .plus
                .map(|e| e.complement_join((**right).clone(), on.clone()));
            let p2 = dr.minus.map(|e| {
                (**left)
                    .clone()
                    .semi_join(e, on.clone())
                    .complement_join((**right).clone(), on.clone())
            });
            // It leaves as soon as any partner appears.
            let m2 = dr.plus.map(|e| old_left.clone().semi_join(e, on.clone()));
            Ok(Delta {
                plus: union_opt(p1, p2),
                minus: union_opt(dl.minus, m2),
            })
        }
        AlgebraExpr::LeftOuterJoin { left, right, on } => {
            // A ⟖ B ≡ (A ⋈ B) ∪ ((A ⊼ B) × {(∅,…,∅)}): the union's delta
            // rules then re-pad / un-pad explicitly as the inner side
            // shrinks or grows.
            let nb = arity_of(right, db)?;
            let rewritten = (**left).clone().join((**right).clone(), on.clone()).union(
                (**left)
                    .clone()
                    .complement_join((**right).clone(), on.clone())
                    .product(marker_row(nb, Value::Null)),
            );
            delta_node(&rewritten, changed, db)
        }
        AlgebraExpr::ConstrainedOuterJoin {
            left,
            right,
            on,
            constraint,
        } => {
            // A ⟖ᶜ B ≡ (M × {⊥}) ∪ ((A − M) × {∅}) with M = σ_c(A) ⋉ B:
            // the probed-and-matched tuples get the ⊥ marker, everything
            // else (gate failed or no partner) gets ∅.
            let matched = (**left)
                .clone()
                .select(constraint_predicate(constraint))
                .semi_join((**right).clone(), on.clone());
            let rewritten = matched
                .clone()
                .product(marker_row(1, Value::Matched))
                .union(
                    (**left)
                        .clone()
                        .difference(matched)
                        .product(marker_row(1, Value::Null)),
                );
            delta_node(&rewritten, changed, db)
        }
        AlgebraExpr::Division { .. } | AlgebraExpr::GroupCount { .. } => {
            // Non-monotone w.r.t. simple tuple deltas (divisor growth and
            // group counts need multiplicity bookkeeping): fall back to
            // exact recompute, new − old / old − new.
            let dl = expr
                .children()
                .iter()
                .map(|c| delta_node(c, changed, db))
                .collect::<Result<Vec<_>, _>>()?;
            if dl.iter().all(|d| d.plus.is_none() && d.minus.is_none()) {
                return Ok(Delta::empty());
            }
            let old = rename_old(expr, changed);
            Ok(Delta {
                plus: Some(expr.clone().difference(old.clone())),
                minus: Some(old.difference(expr.clone())),
            })
        }
    }
}

/// The shared ×/⋈ rule: both operators distribute over insertion and
/// deletion without rederivation (a combined tuple survives iff both
/// halves do, and condition 4 of each child re-derives its own half).
fn delta_bilinear(
    left: &AlgebraExpr,
    right: &AlgebraExpr,
    changed: &BTreeSet<String>,
    db: &Database,
    combine: &dyn Fn(AlgebraExpr, AlgebraExpr) -> AlgebraExpr,
) -> Result<Delta, AlgebraError> {
    let dl = delta_node(left, changed, db)?;
    let dr = delta_node(right, changed, db)?;
    let old_left = rename_old(left, changed);
    let old_right = rename_old(right, changed);
    let p1 = dl.plus.map(|e| combine(e, right.clone()));
    let p2 = dr.plus.map(|e| combine(left.clone(), e));
    let m1 = dl.minus.map(|e| combine(e, old_right.clone()));
    let m2 = dr.minus.map(|e| combine(old_left.clone(), e));
    Ok(Delta {
        plus: union_opt(p1, p2),
        minus: union_opt(m1, m2),
    })
}

/// Build the delta database for a mutation batch: the post-mutation
/// catalog plus, for every changed relation `r`, the synthetic `r@old`,
/// `r@+` and `r@-` extents. Returns the database and the set of changed
/// relation names (the `changed` argument for [`delta_plan`]).
///
/// Multiple deltas for the same relation are folded in order: a later
/// insert cancels an earlier remove of the same tuple and vice versa, so
/// the folded pair still satisfies the safety contract relative to `old`.
pub fn delta_database(
    new: &Database,
    old: &Database,
    deltas: &[MutationDelta],
) -> Result<(Database, BTreeSet<String>), StorageError> {
    let (mut db, changed) = delta_database_lazy(new, old, deltas)?;
    materialize_old(&mut db, old, &changed)?;
    Ok((db, changed))
}

/// Like [`delta_database`], but every `r@old` extent is registered as an
/// **empty placeholder**: most delta plans never read it — an insert-only
/// or remove-only mutation folds all `@old` terms away (see
/// [`delta_plan`]). After rewriting, collect the names a plan actually
/// reads with [`referenced_old_names`] and swap the real extents in with
/// [`materialize_old`] before evaluating. Swapping one in shares the
/// pre-mutation extent's storage under the new name (O(chunks), no tuple
/// is copied), so what the laziness saves is catalog churn, not copying.
pub fn delta_database_lazy(
    new: &Database,
    old: &Database,
    deltas: &[MutationDelta],
) -> Result<(Database, BTreeSet<String>), StorageError> {
    let mut db = new.clone();
    let mut changed = BTreeSet::new();
    for d in deltas {
        if d.is_empty() {
            continue;
        }
        let arity = match new.relation(&d.relation) {
            Ok(r) => r.arity(),
            Err(_) => old.relation(&d.relation)?.arity(),
        };
        if changed.insert(d.relation.clone()) {
            db.add_relation(Relation::named_intermediate(old_name(&d.relation), arity))?;
            db.add_relation(Relation::named_intermediate(plus_name(&d.relation), arity))?;
            db.add_relation(Relation::named_intermediate(minus_name(&d.relation), arity))?;
        }
        for t in &d.inserted {
            db.remove(&minus_name(&d.relation), t)?;
            db.insert(&plus_name(&d.relation), t.clone())?;
        }
        for t in &d.removed {
            db.remove(&plus_name(&d.relation), t)?;
            db.insert(&minus_name(&d.relation), t.clone())?;
        }
    }
    Ok((db, changed))
}

/// The changed-relation names whose `r@old` extent `plan` reads.
pub fn referenced_old_names(
    plan: &AlgebraExpr,
    changed: &BTreeSet<String>,
    out: &mut BTreeSet<String>,
) {
    if let AlgebraExpr::Relation(name) = plan {
        if let Some(base) = name.strip_suffix("@old") {
            if changed.contains(base) {
                out.insert(base.to_string());
            }
        }
    }
    for child in plan.children() {
        referenced_old_names(child, changed, out);
    }
}

/// Replace the placeholder `r@old` extents of a lazily-built delta
/// database with the pre-mutation extents under their `r@old` names, for
/// exactly the given changed-relation names.
pub fn materialize_old(
    db: &mut Database,
    old: &Database,
    names: &BTreeSet<String>,
) -> Result<(), StorageError> {
    for name in names {
        if let Ok(r) = old.relation_arc(name) {
            // A structural share: the renamed value holds the old
            // extent's chunks and shards, and copies no tuple.
            let mut renamed = (*r).clone();
            renamed.set_name(old_name(name));
            db.replace_relation_arc(Arc::new(renamed));
        }
    }
    Ok(())
}

/// Patch an extent with an evaluated delta pair: `(extent − remove) ∪
/// insert`. The result keeps the extent's name and schema.
pub fn patch_extent(
    extent: &Relation,
    remove: Option<&Relation>,
    insert: Option<&Relation>,
) -> Result<Relation, StorageError> {
    let mut out = extent.clone();
    if let Some(minus) = remove {
        for t in minus.iter() {
            out.remove(t);
        }
    }
    if let Some(plus) = insert {
        for t in plus.iter() {
            out.insert(t.clone())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use gq_storage::{tuple, Schema};

    /// Evaluate `expr` on `old` and `new`, run the delta plans on the
    /// delta database, and assert the patched old extent is bit-identical
    /// to the fresh recompute. The plans are rewritten twice: against the
    /// plain new catalog (every delta leaf kept) and against the delta
    /// database (empty delta sides folded away, as maintenance does).
    fn check(expr: &AlgebraExpr, old: &Database, new: &Database, deltas: &[MutationDelta]) {
        let old_extent = Evaluator::new(old).eval(expr).unwrap();
        let fresh = Evaluator::new(new).eval(expr).unwrap();
        let (ddb, changed) = delta_database(new, old, deltas).unwrap();
        let ev = Evaluator::new(&ddb);
        for catalog in [new, &ddb] {
            let plan = delta_plan(expr, &changed, catalog).unwrap();
            let plus = plan.insert.as_ref().map(|p| ev.eval(p).unwrap());
            let minus = plan.remove.as_ref().map(|p| ev.eval(p).unwrap());
            let patched = patch_extent(&old_extent, minus.as_ref(), plus.as_ref()).unwrap();
            assert!(
                patched.set_eq(&fresh),
                "patched {:?} != fresh {:?} for {expr}",
                patched.sorted_tuples(),
                fresh.sorted_tuples(),
            );
        }
    }

    /// Apply `deltas` to a copy of `old`, returning the new database.
    fn apply(old: &Database, deltas: &[MutationDelta]) -> Database {
        let mut new = old.clone();
        for d in deltas {
            for t in &d.inserted {
                new.insert(&d.relation, t.clone()).unwrap();
            }
            for t in &d.removed {
                new.remove(&d.relation, t).unwrap();
            }
        }
        new
    }

    fn base() -> Database {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(2)).unwrap();
        db.create_relation("q", Schema::anonymous(2)).unwrap();
        // (1,10) and (1,11) share their first column: projecting it away
        // merges them, so removing one must re-derive the other.
        for (a, b) in [(1, 10), (1, 11), (2, 20), (3, 30)] {
            db.insert("p", tuple![a, b]).unwrap();
        }
        for (a, b) in [(10, 100), (20, 200), (20, 201)] {
            db.insert("q", tuple![a, b]).unwrap();
        }
        db
    }

    /// Projections the equality analysis proves injective on their
    /// input: their π rule emits no re-derivation term.
    fn injective_projections() -> Vec<AlgebraExpr> {
        use gq_calculus::CompareOp;
        let p = AlgebraExpr::relation("p");
        let q = AlgebraExpr::relation("q");
        let q200 = q
            .clone()
            .select(Predicate::col_const(1, CompareOp::Eq, 200))
            .project(vec![0]);
        vec![
            // `d0att`'s shape: the dropped column equals a kept one
            // through the join key (and the inner π drops a pinned one).
            p.clone().join(q200, vec![(1, 0)]).project(vec![0, 1]),
            // The dropped column is pinned by σ[#1 = const].
            p.clone()
                .select(Predicate::col_const(1, CompareOp::Eq, 20))
                .project(vec![0]),
            // `nodb`'s shape: the identity over a complement-join.
            p.clone()
                .complement_join(q.clone(), vec![(1, 0)])
                .project(vec![0, 1]),
        ]
    }

    /// Look-alikes of [`injective_projections`] whose π may merge input
    /// tuples as far as the analysis can tell: they keep the term.
    fn rederiving_projections() -> Vec<AlgebraExpr> {
        use gq_calculus::CompareOp;
        let p = AlgebraExpr::relation("p");
        let q = AlgebraExpr::relation("q");
        let p20 = p.clone().select(Predicate::col_const(1, CompareOp::Eq, 20));
        let one = |op| Predicate::col_const(1, op, 20);
        vec![
            p.clone().select(one(CompareOp::Ne)).project(vec![0]),
            p.clone().select(one(CompareOp::Lt)).project(vec![0]),
            p.clone()
                .select(Predicate::or_all(vec![
                    Predicate::col_const(1, CompareOp::Eq, 10),
                    Predicate::col_const(1, CompareOp::Eq, 11),
                ]))
                .project(vec![0]),
            // The equality holds on the left side only.
            p20.clone().union(q.clone()).project(vec![0]),
            p20.difference(q.clone()).project(vec![0]),
            p.clone()
                .left_outer_join(q.clone(), vec![(1, 0)])
                .project(vec![0, 1]),
            p.clone()
                .constrained_outer_join(q.clone(), vec![(1, 0)], Constraint::none())
                .project(vec![0, 1]),
        ]
    }

    fn plans() -> Vec<AlgebraExpr> {
        use gq_calculus::CompareOp;
        let p = AlgebraExpr::relation("p");
        let q = AlgebraExpr::relation("q");
        let mut plans = vec![
            p.clone().select(Predicate::col_const(
                0,
                CompareOp::Ne,
                gq_storage::Value::Int(2),
            )),
            p.clone().project(vec![1]),
            p.clone().join(q.clone(), vec![(1, 0)]),
            p.clone().product(q.clone()),
            p.clone().semi_join(q.clone(), vec![(1, 0)]),
            p.clone().complement_join(q.clone(), vec![(1, 0)]),
            p.clone().left_outer_join(q.clone(), vec![(1, 0)]),
            p.clone()
                .constrained_outer_join(q.clone(), vec![(1, 0)], Constraint::none()),
            p.clone().project(vec![0]).union(q.clone().project(vec![1])),
            p.clone()
                .project(vec![0])
                .difference(q.clone().project(vec![0])),
            p.clone().divide(q.clone().project(vec![0]), vec![(1, 0)]),
            p.clone().group_count(vec![0]),
            // Nested: (p ⋈ q) ⊼ q, exercises composition.
            p.clone()
                .join(q.clone(), vec![(1, 0)])
                .complement_join(q.clone(), vec![(3, 1)]),
        ];
        plans.extend(injective_projections());
        plans.extend(rederiving_projections());
        plans
    }

    fn delta_cases() -> Vec<Vec<MutationDelta>> {
        vec![
            // Fresh insert into p.
            vec![MutationDelta::inserted_tuple("p", tuple![4, 20])],
            // Remove from p.
            vec![MutationDelta::removed_tuple("p", tuple![2, 20])],
            // Insert into q: gives 30 a partner (complement-join shrinks).
            vec![MutationDelta::inserted_tuple("q", tuple![30, 300])],
            // Remove q's only (20,200)+(20,201) partners: re-pad.
            vec![MutationDelta {
                relation: "q".into(),
                inserted: vec![],
                removed: vec![tuple![20, 200], tuple![20, 201]],
            }],
            // Remove one of two partners: no re-pad.
            vec![MutationDelta::removed_tuple("q", tuple![20, 200])],
            // Mixed batch across both relations.
            vec![
                MutationDelta {
                    relation: "p".into(),
                    inserted: vec![tuple![5, 20], tuple![6, 60]],
                    removed: vec![tuple![1, 10]],
                },
                MutationDelta {
                    relation: "q".into(),
                    inserted: vec![tuple![60, 600]],
                    removed: vec![tuple![10, 100]],
                },
            ],
            // Remove one of two p tuples that share their first column.
            vec![MutationDelta::removed_tuple("p", tuple![1, 11])],
            // Insert a q tuple that blocks nothing of σ[#1=20](p) yet
            // shares its first column with (2,20): a difference's Δ⁻
            // carries it.
            vec![MutationDelta::inserted_tuple("q", tuple![2, 21])],
        ]
    }

    /// Every node of `plan`, the root first.
    fn subplans(plan: &AlgebraExpr) -> Vec<&AlgebraExpr> {
        let mut out = vec![plan];
        for child in plan.children() {
            out.extend(subplans(child));
        }
        out
    }

    /// Does `plan` contain π's re-derivation term `π_l(·) ⋉_l input`?
    fn has_rederivation(plan: &AlgebraExpr, positions: &[usize], input: &AlgebraExpr) -> bool {
        subplans(plan).into_iter().any(|node| {
            matches!(node, AlgebraExpr::SemiJoin { left, right, .. }
                if **right == *input
                    && matches!(&**left, AlgebraExpr::Project { positions: l, .. } if l == positions))
        })
    }

    #[test]
    fn patched_extents_match_recompute_for_every_operator() {
        let old = base();
        for deltas in delta_cases() {
            let new = apply(&old, &deltas);
            for plan in plans() {
                check(&plan, &old, &new, &deltas);
            }
        }
    }

    /// The lemma the π rule relies on: every tuple a node's delta plans
    /// produce satisfies the equalities reported for that node — checked
    /// on every node of every plan, for every mutation.
    #[test]
    fn every_delta_tuple_satisfies_its_nodes_equalities() {
        let old = base();
        for deltas in delta_cases() {
            let new = apply(&old, &deltas);
            let (ddb, changed) = delta_database(&new, &old, &deltas).unwrap();
            let ev = Evaluator::new(&ddb);
            for plan in plans() {
                for node in subplans(&plan) {
                    let eq = equalities(node, &ddb).unwrap();
                    for catalog in [&new, &ddb] {
                        let dp = delta_plan(node, &changed, catalog).unwrap();
                        for side in [&dp.insert, &dp.remove].into_iter().flatten() {
                            for t in ev.eval(side).unwrap().iter() {
                                assert!(eq.holds_for(t), "{t:?} of Δ({node}) breaks {eq:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Injective projections lose their re-derivation term, every
    /// look-alike keeps it whenever its input can lose tuples.
    #[test]
    fn only_non_injective_projections_rederive() {
        let old = base();
        let cases = injective_projections()
            .into_iter()
            .map(|e| (e, true))
            .chain(rederiving_projections().into_iter().map(|e| (e, false)));
        for (plan, injective) in cases {
            let AlgebraExpr::Project { input, positions } = &plan else {
                panic!("{plan} is not a projection");
            };
            assert_eq!(
                equalities(input, &old).unwrap().determined_by(positions),
                injective,
                "{plan}"
            );
            for deltas in delta_cases() {
                let new = apply(&old, &deltas);
                let (ddb, changed) = delta_database(&new, &old, &deltas).unwrap();
                let dp = delta_plan(&plan, &changed, &ddb).unwrap();
                let input_shrinks = delta_plan(input, &changed, &ddb).unwrap().remove.is_some();
                let rederives = dp
                    .insert
                    .as_ref()
                    .is_some_and(|e| has_rederivation(e, positions, input));
                assert_eq!(
                    rederives,
                    !injective && input_shrinks,
                    "{plan} under {deltas:?}"
                );
            }
            // A single removal from p: an injective projection's whole
            // insert side folds away.
            if injective {
                let deltas = [MutationDelta::removed_tuple("p", tuple![2, 20])];
                let new = apply(&old, &deltas);
                let (ddb, changed) = delta_database(&new, &old, &deltas).unwrap();
                let dp = delta_plan(&plan, &changed, &ddb).unwrap();
                assert_eq!(dp.insert, None, "{plan}");
                assert!(dp.remove.is_some(), "{plan}");
            }
        }
    }

    #[test]
    fn unrelated_mutation_yields_empty_delta_plan() {
        let mut db = base();
        db.create_relation("r", Schema::anonymous(1)).unwrap();
        let plan = AlgebraExpr::relation("p").join(AlgebraExpr::relation("q"), vec![(1, 0)]);
        let changed: BTreeSet<String> = ["r".to_string()].into();
        let d = delta_plan(&plan, &changed, &db).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn folded_deltas_cancel() {
        let old = base();
        let deltas = vec![
            MutationDelta::inserted_tuple("p", tuple![9, 90]),
            MutationDelta::removed_tuple("p", tuple![9, 90]),
        ];
        let (ddb, changed) = delta_database(&old, &old, &deltas).unwrap();
        assert!(changed.contains("p"));
        assert_eq!(ddb.relation(&plus_name("p")).unwrap().len(), 0);
        // The net remove of a tuple old never held is harmless: Δ⁻ may
        // over-approximate (the tuple is simply absent from the extent).
        assert_eq!(ddb.relation(&minus_name("p")).unwrap().len(), 1);
    }

    #[test]
    fn rename_old_touches_only_changed_scans() {
        let plan = AlgebraExpr::relation("p").join(AlgebraExpr::relation("q"), vec![(1, 0)]);
        let changed: BTreeSet<String> = ["p".to_string()].into();
        let renamed = rename_old(&plan, &changed);
        assert_eq!(
            renamed,
            AlgebraExpr::relation("p@old").join(AlgebraExpr::relation("q"), vec![(1, 0)])
        );
    }
}
