//! Property-based tests for Proposition 3 (the complement-join equalities)
//! and related algebraic invariants, on randomly generated relations.

use crate::{AlgebraExpr, Constraint, Evaluator, Predicate};
use gq_storage::{Database, Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A generated relation: a set of tuples of small integers.
fn arb_relation(arity: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..6, arity), 0..max_rows)
}

fn load(db: &mut Database, name: &str, arity: usize, rows: &[Vec<i64>]) {
    let schema = Schema::anonymous(arity);
    db.create_relation(name, schema).unwrap();
    for row in rows {
        let t = Tuple::new(row.iter().map(|&v| Value::Int(v)).collect());
        let _ = db.insert(name, t);
    }
}

proptest! {
    /// Proposition 3, first equality:
    /// P = π₁…ₚ(P ⋈ Q) ∪ (P ⊼ Q).
    #[test]
    fn prop3_partition_covers(p in arb_relation(2, 20), q in arb_relation(2, 20)) {
        let mut db = Database::new();
        load(&mut db, "p", 2, &p);
        load(&mut db, "q", 2, &q);
        let ev = Evaluator::new(&db);
        let on = vec![(0, 0)];
        let join_part = AlgebraExpr::relation("p")
            .join(AlgebraExpr::relation("q"), on.clone())
            .project(vec![0, 1]);
        let comp_part = AlgebraExpr::relation("p").complement_join(AlgebraExpr::relation("q"), on);
        let reunion = ev.eval(&join_part.clone().union(comp_part.clone())).unwrap();
        let p_rel = ev.eval(&AlgebraExpr::relation("p")).unwrap();
        prop_assert!(reunion.set_eq(&p_rel));
    }

    /// Proposition 3, second equality:
    /// ∅ = π₁…ₚ(P ⋈ Q) ∩ (P ⊼ Q)  (tested as difference symmetry).
    #[test]
    fn prop3_partition_disjoint(p in arb_relation(2, 20), q in arb_relation(2, 20)) {
        let mut db = Database::new();
        load(&mut db, "p", 2, &p);
        load(&mut db, "q", 2, &q);
        let ev = Evaluator::new(&db);
        let on = vec![(0, 0)];
        let join_part = ev.eval(
            &AlgebraExpr::relation("p")
                .join(AlgebraExpr::relation("q"), on.clone())
                .project(vec![0, 1]),
        ).unwrap();
        let comp_part = ev.eval(
            &AlgebraExpr::relation("p").complement_join(AlgebraExpr::relation("q"), on),
        ).unwrap();
        for t in comp_part.iter() {
            prop_assert!(!join_part.contains(t), "tuple {t} in both parts");
        }
    }

    /// Proposition 3, third equality: for equal arities and a full-column
    /// condition, P − Q = P ⊼[all cols] Q.
    #[test]
    fn prop3_difference_as_complement_join(p in arb_relation(2, 20), q in arb_relation(2, 20)) {
        let mut db = Database::new();
        load(&mut db, "p", 2, &p);
        load(&mut db, "q", 2, &q);
        let ev = Evaluator::new(&db);
        let diff = ev.eval(
            &AlgebraExpr::relation("p").difference(AlgebraExpr::relation("q")),
        ).unwrap();
        let comp = ev.eval(
            &AlgebraExpr::relation("p")
                .complement_join(AlgebraExpr::relation("q"), vec![(0, 0), (1, 1)]),
        ).unwrap();
        prop_assert!(diff.set_eq(&comp));
    }

    /// Semi-join and complement-join partition P (the two loop outcomes of
    /// the paper's §3.1 discussion).
    #[test]
    fn semi_and_complement_partition(p in arb_relation(1, 20), q in arb_relation(2, 20)) {
        let mut db = Database::new();
        load(&mut db, "p", 1, &p);
        load(&mut db, "q", 2, &q);
        let ev = Evaluator::new(&db);
        let on = vec![(0, 0)];
        let semi = ev.eval(
            &AlgebraExpr::relation("p").semi_join(AlgebraExpr::relation("q"), on.clone()),
        ).unwrap();
        let comp = ev.eval(
            &AlgebraExpr::relation("p").complement_join(AlgebraExpr::relation("q"), on),
        ).unwrap();
        let p_rel = ev.eval(&AlgebraExpr::relation("p")).unwrap();
        prop_assert_eq!(semi.len() + comp.len(), p_rel.len());
        for t in p_rel.iter() {
            prop_assert!(semi.contains(t) != comp.contains(t));
        }
    }

    /// R ⋉ S = {x | R(x) ∧ ∃y S(x,y)} and R ⊼ S = {x | R(x) ∧ ¬∃y S(x,y)}
    /// — the paper's closing equalities of §3.1, against a direct
    /// set-comprehension oracle.
    #[test]
    fn semijoin_complementjoin_oracle(r in arb_relation(1, 15), s in arb_relation(2, 25)) {
        let mut db = Database::new();
        load(&mut db, "r", 1, &r);
        load(&mut db, "s", 2, &s);
        let ev = Evaluator::new(&db);
        let semi = ev.eval(
            &AlgebraExpr::relation("r").semi_join(AlgebraExpr::relation("s"), vec![(0, 0)]),
        ).unwrap();
        let comp = ev.eval(
            &AlgebraExpr::relation("r").complement_join(AlgebraExpr::relation("s"), vec![(0, 0)]),
        ).unwrap();
        let r_rel = db.relation("r").unwrap();
        for t in r_rel.iter() {
            let has_partner = s.iter().any(|row| Value::Int(row[0]) == t[0]);
            prop_assert_eq!(semi.contains(t), has_partner);
            prop_assert_eq!(comp.contains(t), !has_partner);
        }
    }

    /// Definition 7 invariants of the constrained outer-join: output arity
    /// is p+1, output cardinality equals |P|, each tuple extends a P-tuple
    /// with exactly one marker, and a ⊥ marker implies both the constraint
    /// and a join partner.
    #[test]
    fn constrained_outer_join_invariants(
        p in arb_relation(2, 20),
        q in arb_relation(1, 10),
        must_be_null in any::<bool>(),
    ) {
        let mut db = Database::new();
        load(&mut db, "p", 2, &p);
        load(&mut db, "q", 1, &q);
        let ev = Evaluator::new(&db);
        // First extend p with one (unconstrained) marker, then apply the
        // constrained join on that marker column.
        let base = AlgebraExpr::relation("p")
            .constrained_outer_join(AlgebraExpr::relation("q"), vec![(0, 0)], Constraint::none());
        let expr = base.clone().constrained_outer_join(
            AlgebraExpr::relation("q"),
            vec![(1, 0)],
            Constraint::single(2, must_be_null),
        );
        let base_rel = ev.eval(&base).unwrap();
        let out = ev.eval(&expr).unwrap();
        prop_assert_eq!(out.arity(), 4);
        prop_assert_eq!(out.len(), base_rel.len());
        for t in out.iter() {
            let prefix = t.project(&[0, 1, 2]);
            prop_assert!(base_rel.contains(&prefix));
            let marker = &t[3];
            prop_assert!(marker.is_null() || marker.is_matched());
            if marker.is_matched() {
                // constraint satisfied and partner exists
                prop_assert_eq!(t[2].is_null(), must_be_null);
                prop_assert!(q.iter().any(|row| Value::Int(row[0]) == t[1]));
            }
        }
    }

    /// Division against a direct ∀-oracle.
    #[test]
    fn division_oracle(g in arb_relation(2, 30), t in arb_relation(1, 6)) {
        let mut db = Database::new();
        load(&mut db, "g", 2, &g);
        load(&mut db, "t", 1, &t);
        let ev = Evaluator::new(&db);
        let div = ev.eval(
            &AlgebraExpr::relation("g").divide(AlgebraExpr::relation("t"), vec![(1, 0)]),
        ).unwrap();
        let g_rel = db.relation("g").unwrap();
        let t_rel = db.relation("t").unwrap();
        // oracle: x qualifies iff x ∈ π₀(g) and ∀z ∈ t: (x,z) ∈ g
        let mut keys: Vec<Value> = g_rel.iter().map(|t| t[0].clone()).collect();
        keys.sort();
        keys.dedup();
        for x in keys {
            let qualifies = t_rel.iter().all(|z| {
                g_rel.contains(&Tuple::new(vec![x.clone(), z[0].clone()]))
            });
            let in_div = div.contains(&Tuple::new(vec![x.clone()]));
            prop_assert_eq!(in_div, qualifies, "key {:?}", x);
        }
    }

    /// Select-then-project equals project-then-select when the predicate
    /// only references kept columns (classic pushdown equivalence).
    #[test]
    fn select_project_commute(p in arb_relation(2, 25), threshold in 0i64..6) {
        use gq_calculus::CompareOp;
        let mut db = Database::new();
        load(&mut db, "p", 2, &p);
        let ev = Evaluator::new(&db);
        let a = ev.eval(
            &AlgebraExpr::relation("p")
                .select(Predicate::col_const(0, CompareOp::Lt, threshold))
                .project(vec![0]),
        ).unwrap();
        let b = ev.eval(
            &AlgebraExpr::relation("p")
                .project(vec![0])
                .select(Predicate::col_const(0, CompareOp::Lt, threshold)),
        ).unwrap();
        prop_assert!(a.set_eq(&b));
    }
}

proptest! {
    /// The hash join equals a naive nested loop on random inputs
    /// (including duplicate join keys and empty sides), for single- and
    /// multi-column keys.
    #[test]
    fn hash_join_equals_nested_loop(
        l in arb_relation(2, 30),
        r in arb_relation(2, 30),
    ) {
        let mut db = Database::new();
        load(&mut db, "l", 2, &l);
        load(&mut db, "r", 2, &r);
        for on in [vec![(0, 0)], vec![(0, 0), (1, 1)]] {
            let plan = AlgebraExpr::relation("l").join(AlgebraExpr::relation("r"), on.clone());
            let hash: BTreeSet<Tuple> = Evaluator::new(&db).eval(&plan).unwrap().iter().cloned().collect();
            let (lt, rt) = (db.relation("l").unwrap(), db.relation("r").unwrap());
            let mut naive = BTreeSet::new();
            for a in lt.iter() {
                for b in rt.iter() {
                    if on.iter().all(|&(i, j)| a[i] == b[j]) {
                        naive.insert(a.concat(b));
                    }
                }
            }
            prop_assert_eq!(hash, naive);
        }
    }
}
