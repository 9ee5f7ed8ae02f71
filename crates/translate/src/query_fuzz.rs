//! Randomized query fuzzing: generate arbitrary *restricted* queries
//! (Definitions 2–3 by construction) over a fixed schema and check that
//! the improved translation, the classical translation and the
//! nested-loop interpreter agree on random databases.
//!
//! This extends the fixed query pool of `equivalence_tests` to a
//! combinatorially larger space: nested quantifiers, mixed negation,
//! disjunctive filters and producers, comparisons, ∀-forms, and subqueries
//! whose producers are each correlated with a different context variable
//! (range passing, DESIGN.md §7.7), composed recursively. A release build
//! runs four times the seeds of a debug one.

use crate::{ClassicalTranslator, ImprovedTranslator};
use gq_algebra::Evaluator;
use gq_calculus::{CompareOp, Formula, Term, Var};
use gq_pipeline::PipelineEvaluator;
use gq_rewrite::canonicalize;
use gq_storage::{Database, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fuzzing schema: unary `p`, `q`; binary `r`, `s`.
fn schema_atoms() -> Vec<(&'static str, usize)> {
    vec![("p", 1), ("q", 1), ("r", 2), ("s", 2)]
}

fn random_db(rng: &mut StdRng, scale: usize) -> Database {
    let mut db = Database::new();
    let n = scale.max(2) as i64;
    for (name, arity) in schema_atoms() {
        db.create_relation(name, Schema::anonymous(arity)).unwrap();
        for _ in 0..scale * arity {
            let t: Tuple = (0..arity)
                .map(|_| Value::Int(rng.gen_range(0..n)))
                .collect();
            let _ = db.insert(name, t);
        }
    }
    db
}

/// An atom over `vars` (every listed variable used at least once; the
/// remaining positions filled with constants or repeats).
fn gen_atom(rng: &mut StdRng, vars: &[Var], scale: usize) -> Formula {
    // pick a relation with arity ≥ vars.len()
    let candidates: Vec<(&str, usize)> = schema_atoms()
        .into_iter()
        .filter(|&(_, a)| a >= vars.len())
        .collect();
    let (name, arity) = candidates[rng.gen_range(0..candidates.len())];
    let mut terms: Vec<Option<Term>> = vec![None; arity];
    // place each required var once
    let mut free_slots: Vec<usize> = (0..arity).collect();
    for v in vars {
        let i = free_slots.remove(rng.gen_range(0..free_slots.len()));
        terms[i] = Some(Term::Var(v.clone()));
    }
    for slot in free_slots {
        terms[slot] = Some(if rng.gen_bool(0.5) && !vars.is_empty() {
            Term::Var(vars[rng.gen_range(0..vars.len())].clone())
        } else {
            Term::constant(rng.gen_range(0..scale.max(2) as i64))
        });
    }
    Formula::atom(name, terms.into_iter().map(Option::unwrap).collect())
}

/// `∃z a(v,z) ∧ b(w,z)`: a subquery with two producers, one correlated
/// with `v` and one with `w`. As a filter it is translated under the
/// context's range; as a conjunct beside a producer of `v` and `w` it is a
/// covered range, applied as a filter too (DESIGN.md §7.7).
fn gen_two_producer_exists(
    rng: &mut StdRng,
    v: &Var,
    w: &Var,
    fresh: &mut usize,
    scale: usize,
) -> Formula {
    let z = Var::new(format!("z{}", *fresh));
    *fresh += 1;
    let a = gen_atom(rng, &[v.clone(), z.clone()], scale);
    let b = gen_atom(rng, &[w.clone(), z.clone()], scale);
    Formula::exists(vec![z], Formula::and(a, b))
}

/// A filter formula over (a subset of) `avail`, with recursion budget
/// `depth`. Filters may be atoms, negated atoms, comparisons, quantified
/// subqueries (∃/∀ with fresh inner variables, ∃ with two correlated
/// producers), or disjunctions of the above.
fn gen_filter(
    rng: &mut StdRng,
    avail: &[Var],
    depth: usize,
    fresh: &mut usize,
    scale: usize,
) -> Formula {
    let vi = rng.gen_range(0..avail.len());
    let v = avail[vi].clone();
    let choice = if depth == 0 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..8)
    };
    match choice {
        0 => gen_atom(rng, &[v], scale),
        1 => Formula::not(gen_atom(rng, &[v], scale)),
        2 => Formula::compare(
            Term::Var(v),
            if rng.gen_bool(0.5) {
                CompareOp::Ne
            } else {
                CompareOp::Lt
            },
            Term::constant(rng.gen_range(0..scale.max(2) as i64)),
        ),
        3 => {
            // small disjunction of simple tests over the same variable
            let k = rng.gen_range(2..4);
            let parts: Vec<Formula> = (0..k)
                .map(|_| {
                    let a = gen_atom(rng, std::slice::from_ref(&v), scale);
                    if rng.gen_bool(0.3) {
                        Formula::not(a)
                    } else {
                        a
                    }
                })
                .collect();
            Formula::or_all(parts)
        }
        4 => {
            // ∃ subquery: ∃z producer(v,z) ∧ [filter]
            let z = Var::new(format!("z{}", *fresh));
            *fresh += 1;
            let producer = gen_atom(rng, &[v.clone(), z.clone()], scale);
            let body = if rng.gen_bool(0.6) {
                let inner = gen_filter(rng, &[v, z.clone()], depth - 1, fresh, scale);
                Formula::and(producer, inner)
            } else {
                producer
            };
            Formula::exists(vec![z], body)
        }
        5 => {
            // ¬∃ subquery
            let z = Var::new(format!("z{}", *fresh));
            *fresh += 1;
            let producer = gen_atom(rng, &[v.clone(), z.clone()], scale);
            let inner = gen_filter(rng, &[v, z.clone()], depth - 1, fresh, scale);
            Formula::not(Formula::exists(vec![z], Formula::and(producer, inner)))
        }
        7 if avail.len() > 1 => {
            // (¬)∃z a(v,z) ∧ b(w,z) with w ≠ v
            let w = &avail[(vi + rng.gen_range(1..avail.len())) % avail.len()];
            let sub = gen_two_producer_exists(rng, &v, w, fresh, scale);
            if rng.gen_bool(0.3) {
                Formula::not(sub)
            } else {
                sub
            }
        }
        _ => {
            // ∀ subquery: ∀z range(z) ⇒ test(v,z)
            let z = Var::new(format!("z{}", *fresh));
            *fresh += 1;
            let range = gen_atom(rng, std::slice::from_ref(&z), scale);
            let test = gen_atom(rng, &[v, z.clone()], scale);
            Formula::forall(vec![z], Formula::implies(range, test))
        }
    }
}

/// A restricted open query over one or two free variables.
pub fn gen_query(seed: u64, scale: usize) -> (Formula, Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_db(&mut rng, scale);
    let mut fresh = 0usize;
    let x = Var::new("x");
    let two_vars = rng.gen_bool(0.4);
    let (vars, producer) = if two_vars {
        let y = Var::new("y");
        let p = gen_atom(&mut rng, &[x.clone(), y.clone()], scale);
        (vec![x, y], p)
    } else {
        let p = gen_atom(&mut rng, std::slice::from_ref(&x), scale);
        (vec![x], p)
    };
    let mut f = producer;
    let n_filters = rng.gen_range(0..3);
    for _ in 0..n_filters {
        let filt = gen_filter(&mut rng, &vars, 2, &mut fresh, scale);
        f = Formula::and(f, filt);
    }
    // Sometimes a range conjunct the producer covers.
    if rng.gen_bool(0.3) {
        let (v, w) = (&vars[0], &vars[vars.len() - 1]);
        let covered = gen_two_producer_exists(&mut rng, v, w, &mut fresh, scale);
        f = Formula::and(f, covered);
    }
    // Occasionally close the query.
    if rng.gen_bool(0.3) {
        f = Formula::exists(vars, f);
        if rng.gen_bool(0.5) {
            f = Formula::not(f);
        }
    }
    (f, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;

    /// `count` seeds from `start`, four times as many in a release build.
    fn seeds(start: u64, count: u64) -> Range<u64> {
        let count = if cfg!(debug_assertions) {
            count
        } else {
            count * 4
        };
        start..start + count
    }

    fn check(seed: u64) {
        let (f, db) = gen_query(seed, 8);
        let canonical = match canonicalize(&f) {
            Ok(c) => c,
            Err(e) => panic!("canonicalize failed on seed {seed}: {e}\n{f}"),
        };
        if f.is_closed() {
            let imp = ImprovedTranslator::new(&db)
                .translate_closed(&canonical)
                .unwrap_or_else(|e| panic!("improved seed {seed}: {e}\n{f}\n{canonical}"))
                .eval(&Evaluator::new(&db))
                .unwrap();
            let cls = ClassicalTranslator::new(&db)
                .translate_closed(&f)
                .unwrap_or_else(|e| panic!("classical seed {seed}: {e}\n{f}"))
                .eval(&Evaluator::new(&db))
                .unwrap();
            let nl = PipelineEvaluator::new(&db)
                .eval_closed(&canonical)
                .unwrap_or_else(|e| panic!("pipeline seed {seed}: {e}\n{canonical}"));
            assert_eq!(
                imp, cls,
                "seed {seed}: improved vs classical\n{f}\n{canonical}"
            );
            assert_eq!(
                imp, nl,
                "seed {seed}: improved vs nested-loop\n{f}\n{canonical}"
            );
        } else {
            let (_, plan) = ImprovedTranslator::new(&db)
                .translate_open(&canonical)
                .unwrap_or_else(|e| panic!("improved seed {seed}: {e}\n{f}\n{canonical}"));
            let imp = Evaluator::new(&db).eval(&plan).unwrap();
            let (_, cplan) = ClassicalTranslator::new(&db)
                .translate_open(&f)
                .unwrap_or_else(|e| panic!("classical seed {seed}: {e}\n{f}"));
            let cls = Evaluator::new(&db).eval(&cplan).unwrap();
            let (_, nl) = PipelineEvaluator::new(&db)
                .eval_open(&canonical)
                .unwrap_or_else(|e| panic!("pipeline seed {seed}: {e}\n{canonical}"));
            assert!(
                imp.set_eq(&cls),
                "seed {seed}: improved vs classical\n{f}\n{canonical}\nplan: {plan}\nimp: {imp}\ncls: {cls}"
            );
            assert!(
                imp.set_eq(&nl),
                "seed {seed}: improved vs nested-loop\n{f}\n{canonical}\nplan: {plan}\nimp: {imp}\nnl: {nl}"
            );
        }
    }

    #[test]
    fn fuzz_batch_1() {
        for seed in seeds(0, 120) {
            check(seed);
        }
    }

    #[test]
    fn fuzz_batch_2() {
        for seed in seeds(1000, 120) {
            check(seed);
        }
    }

    #[test]
    fn fuzz_batch_3_larger_db() {
        for seed in seeds(2000, 60) {
            let (f, db) = gen_query(seed, 15);
            let canonical = canonicalize(&f).unwrap();
            // improved vs nested-loop only (classical explodes at scale)
            if f.is_closed() {
                let imp = ImprovedTranslator::new(&db)
                    .translate_closed(&canonical)
                    .unwrap()
                    .eval(&Evaluator::new(&db))
                    .unwrap();
                let nl = PipelineEvaluator::new(&db).eval_closed(&canonical).unwrap();
                assert_eq!(imp, nl, "seed {seed}\n{canonical}");
            } else {
                let (_, plan) = ImprovedTranslator::new(&db)
                    .translate_open(&canonical)
                    .unwrap();
                let imp = Evaluator::new(&db).eval(&plan).unwrap();
                let (_, nl) = PipelineEvaluator::new(&db).eval_open(&canonical).unwrap();
                assert!(imp.set_eq(&nl), "seed {seed}\n{canonical}\nplan: {plan}");
            }
        }
    }
}
