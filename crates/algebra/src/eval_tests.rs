//! Evaluator tests, including exact reproductions of the paper's
//! Figures 2, 3 and 4 (§3.3).

use crate::{AlgebraExpr, Constraint, Evaluator, Predicate};
use gq_calculus::CompareOp;
use gq_storage::{tuple, Database, Relation, Schema, Tuple, Value};

/// The database of Figure 2: P = {a,b,c,d}, T = {a,b,e}, U = {a,c,f}.
fn fig2_db() -> Database {
    let mut db = Database::new();
    for (name, vals) in [
        ("p", vec!["a", "b", "c", "d"]),
        ("t", vec!["a", "b", "e"]),
        ("u", vec!["a", "c", "f"]),
    ] {
        db.create_relation(name, Schema::new(vec!["v"]).unwrap())
            .unwrap();
        for v in vals {
            db.insert(name, tuple![v]).unwrap();
        }
    }
    db
}

fn sample_db() -> Database {
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples(
            "member",
            Schema::new(vec!["person", "dept"]).unwrap(),
            vec![
                tuple!["ann", "cs"],
                tuple!["bob", "cs"],
                tuple!["col", "math"],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        Relation::with_tuples(
            "skill",
            Schema::new(vec!["person", "topic"]).unwrap(),
            vec![
                tuple!["ann", "db"],
                tuple!["bob", "ai"],
                tuple!["col", "db"],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db
}

fn sorted(rel: &Relation) -> Vec<Tuple> {
    rel.sorted_tuples()
}

#[test]
fn scan_and_select() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("skill").select(Predicate::col_const(1, CompareOp::Eq, "db"));
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["ann", "db"], tuple!["col", "db"]]);
    let s = ev.stats();
    assert_eq!(s.base_scans, 1);
    assert_eq!(s.base_tuples_read, 3);
}

#[test]
fn project_dedups() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("member").project(vec![1]);
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["cs"], tuple!["math"]]);
}

#[test]
fn join_concats_matches() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("member").join(AlgebraExpr::relation("skill"), vec![(0, 0)]);
    let r = ev.eval(&e).unwrap();
    assert_eq!(r.len(), 3);
    assert!(r.contains(&tuple!["ann", "cs", "ann", "db"]));
}

#[test]
fn product_is_cross() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("member").product(AlgebraExpr::relation("skill"));
    let r = ev.eval(&e).unwrap();
    assert_eq!(r.len(), 9);
    assert_eq!(r.arity(), 4);
}

#[test]
fn semi_join_keeps_matching_left() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    // members with a db skill
    let e = AlgebraExpr::relation("member").semi_join(
        AlgebraExpr::relation("skill").select(Predicate::col_const(1, CompareOp::Eq, "db")),
        vec![(0, 0)],
    );
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["ann", "cs"], tuple!["col", "math"]]);
}

/// §3.1: Q₂: member(x,z) ∧ ¬skill(x,db) ≡ member ⊼[0=0] π₀(σ₁₌db(skill)).
#[test]
fn complement_join_paper_example_q2() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("member").complement_join(
        AlgebraExpr::relation("skill")
            .select(Predicate::col_const(1, CompareOp::Eq, "db"))
            .project(vec![0]),
        vec![(0, 0)],
    );
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["bob", "cs"]]);
}

#[test]
fn complement_join_equals_conventional_plan() {
    // The paper's point: member ⊼ … equals the conventional
    // member ⋈ (π₀(member) − π₀(σ(skill))) but with one operator.
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let skill_db = AlgebraExpr::relation("skill")
        .select(Predicate::col_const(1, CompareOp::Eq, "db"))
        .project(vec![0]);
    let improved = AlgebraExpr::relation("member").complement_join(skill_db.clone(), vec![(0, 0)]);
    let conventional = AlgebraExpr::relation("member")
        .join(
            AlgebraExpr::relation("member")
                .project(vec![0])
                .difference(skill_db),
            vec![(0, 0)],
        )
        .project(vec![0, 1]);
    let a = ev.eval(&improved).unwrap();
    let b = ev.eval(&conventional).unwrap();
    assert!(a.set_eq(&b));
}

#[test]
fn division_all_lectures() {
    // attends(student, lecture) ÷ lectures
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples(
            "attends",
            Schema::new(vec!["s", "l"]).unwrap(),
            vec![
                tuple!["ann", "db"],
                tuple!["ann", "os"],
                tuple!["bob", "db"],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        Relation::with_tuples(
            "lecture",
            Schema::new(vec!["l"]).unwrap(),
            vec![tuple!["db"], tuple!["os"]],
        )
        .unwrap(),
    )
    .unwrap();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("attends").divide(AlgebraExpr::relation("lecture"), vec![(1, 0)]);
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["ann"]]);
}

#[test]
fn division_by_empty_divisor_returns_all_keys() {
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples(
            "attends",
            Schema::new(vec!["s", "l"]).unwrap(),
            vec![tuple!["ann", "db"], tuple!["bob", "os"]],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_relation("lecture", Schema::new(vec!["l"]).unwrap())
        .unwrap();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("attends").divide(AlgebraExpr::relation("lecture"), vec![(1, 0)]);
    let r = ev.eval(&e).unwrap();
    assert_eq!(r.len(), 2); // vacuous ∀
}

#[test]
fn union_and_difference() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    let u = ev
        .eval(&AlgebraExpr::relation("t").union(AlgebraExpr::relation("u")))
        .unwrap();
    assert_eq!(
        sorted(&u),
        vec![
            tuple!["a"],
            tuple!["b"],
            tuple!["c"],
            tuple!["e"],
            tuple!["f"]
        ]
    );
    let d = ev
        .eval(&AlgebraExpr::relation("p").difference(AlgebraExpr::relation("t")))
        .unwrap();
    assert_eq!(sorted(&d), vec![tuple!["c"], tuple!["d"]]);
}

/// Figure 2: R₁ = P ⟖[0=0] T over P={a,b,c,d}, T={a,b,e}:
/// {(a,a),(b,b),(c,∅),(d,∅)}.
#[test]
fn figure2_unidirectional_outer_join() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("p").left_outer_join(AlgebraExpr::relation("t"), vec![(0, 0)]);
    let r = ev.eval(&e).unwrap();
    let mut expected = vec![
        tuple!["a", "a"],
        tuple!["b", "b"],
        Tuple::new(vec![Value::str("c"), Value::Null]),
        Tuple::new(vec![Value::str("d"), Value::Null]),
    ];
    expected.sort();
    assert_eq!(sorted(&r), expected);
}

/// Figure 3: R₂ = R₁ ⟖[0=0] U over U={a,c,f}:
/// {(a,a,a),(b,b,∅),(c,∅,c),(d,∅,∅)}.
#[test]
fn figure3_chained_outer_joins() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("p")
        .left_outer_join(AlgebraExpr::relation("t"), vec![(0, 0)])
        .left_outer_join(AlgebraExpr::relation("u"), vec![(0, 0)]);
    let r = ev.eval(&e).unwrap();
    let mut expected = vec![
        tuple!["a", "a", "a"],
        Tuple::new(vec![Value::str("b"), Value::str("b"), Value::Null]),
        Tuple::new(vec![Value::str("c"), Value::Null, Value::str("c")]),
        Tuple::new(vec![Value::str("d"), Value::Null, Value::Null]),
    ];
    expected.sort();
    assert_eq!(sorted(&r), expected);

    // Q₁: P(x) ∧ (T(x) ∨ U(x)) = π₀(σ[#1≠∅ ∨ #2≠∅](R₂)) = {a,b,c}
    let q1 = e
        .select(Predicate::Or(
            Box::new(Predicate::NotNull(1)),
            Box::new(Predicate::NotNull(2)),
        ))
        .project(vec![0]);
    let r = ev.eval(&q1).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["a"], tuple!["b"], tuple!["c"]]);
}

/// §3.3: the constrained variant marks instead of copying values, and the
/// constraint `#1 = ∅` avoids probing U for tuples already found in T.
/// R₂' = (P ⟖ T) ⟖{#1=∅} U = {(a,⊥,∅),(b,⊥,∅),(c,∅,⊥),(d,∅,∅)}.
#[test]
fn constrained_outer_join_positive_disjuncts() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("p")
        .constrained_outer_join(AlgebraExpr::relation("t"), vec![(0, 0)], Constraint::none())
        .constrained_outer_join(
            AlgebraExpr::relation("u"),
            vec![(0, 0)],
            Constraint::single(1, true),
        );
    let r = ev.eval(&e).unwrap();
    let mut expected = vec![
        Tuple::new(vec![Value::str("a"), Value::Matched, Value::Null]),
        Tuple::new(vec![Value::str("b"), Value::Matched, Value::Null]),
        Tuple::new(vec![Value::str("c"), Value::Null, Value::Matched]),
        Tuple::new(vec![Value::str("d"), Value::Null, Value::Null]),
    ];
    expected.sort();
    assert_eq!(sorted(&r), expected);

    // Probe counting: the second join probes U only for c and d (a and b
    // fail the constraint): 4 probes for T + 2 probes for U.
    let ev2 = Evaluator::new(&db);
    ev2.eval(&e).unwrap();
    assert_eq!(ev2.stats().probes, 6);
}

/// Figure 4: Q₂: P(x) ∧ (¬T(x) ∨ U(x)):
/// R₃ = (P ⟖ T) ⟖{#1≠∅} U = {(a,⊥,⊥),(b,⊥,∅),(c,∅,∅),(d,∅,∅)};
/// answer σ[#1=∅ ∨ #2≠∅] → {a,c,d}.
#[test]
fn figure4_negated_disjunct() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    let r3 = AlgebraExpr::relation("p")
        .constrained_outer_join(AlgebraExpr::relation("t"), vec![(0, 0)], Constraint::none())
        .constrained_outer_join(
            AlgebraExpr::relation("u"),
            vec![(0, 0)],
            Constraint::single(1, false),
        );
    let r = ev.eval(&r3).unwrap();
    let mut expected = vec![
        Tuple::new(vec![Value::str("a"), Value::Matched, Value::Matched]),
        Tuple::new(vec![Value::str("b"), Value::Matched, Value::Null]),
        Tuple::new(vec![Value::str("c"), Value::Null, Value::Null]),
        Tuple::new(vec![Value::str("d"), Value::Null, Value::Null]),
    ];
    expected.sort();
    assert_eq!(sorted(&r), expected);

    let q2 = r3
        .select(Predicate::Or(
            Box::new(Predicate::IsNull(1)),
            Box::new(Predicate::NotNull(2)),
        ))
        .project(vec![0]);
    let answer = ev.eval(&q2).unwrap();
    assert_eq!(sorted(&answer), vec![tuple!["a"], tuple!["c"], tuple!["d"]]);
}

#[test]
fn outer_join_with_empty_right_pads_nulls() {
    let mut db = fig2_db();
    db.create_relation("empty2", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    let ev = Evaluator::new(&db);
    let e =
        AlgebraExpr::relation("p").left_outer_join(AlgebraExpr::relation("empty2"), vec![(0, 0)]);
    let r = ev.eval(&e).unwrap();
    assert_eq!(r.arity(), 3);
    assert_eq!(r.len(), 4);
    assert!(r.iter().all(|t| t[1].is_null() && t[2].is_null()));
}

#[test]
fn nonempty_test_short_circuits_base_reads() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    // P has 4 tuples; testing non-emptiness must read only 1.
    assert!(ev.is_nonempty(&AlgebraExpr::relation("p")).unwrap());
    assert_eq!(ev.stats().base_tuples_read, 1);
}

#[test]
fn nonempty_test_pipelines_through_select() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("p").select(Predicate::col_const(0, CompareOp::Eq, "b"));
    assert!(ev.is_nonempty(&e).unwrap());
    // "a" then "b": two reads, not four.
    assert_eq!(ev.stats().base_tuples_read, 2);
}

/// The non-emptiness test over a join with a large probe side must read
/// strictly fewer probe tuples than a full evaluation: the build side is
/// materialized (any hash join must), but the probe side streams into the
/// first-witness sink and stops at the first result. This holds
/// regardless of the execution configuration — the test runs on the
/// calling thread, because spreading the scan would defeat its purpose.
#[test]
fn nonempty_test_reads_fewer_probe_tuples_than_full_scan() {
    let mut db = Database::new();
    db.create_relation("big", Schema::anonymous(1)).unwrap();
    db.create_relation("small", Schema::anonymous(1)).unwrap();
    for i in 0..10_000i64 {
        db.insert("big", tuple![i]).unwrap();
    }
    db.insert("small", tuple![0]).unwrap();
    // big ⋈ small: every probe of `big` except (at worst) the first
    // misses; the test stops at the first hit.
    let e = AlgebraExpr::relation("big").join(AlgebraExpr::relation("small"), vec![(0, 0)]);

    let full = Evaluator::new(&db);
    full.eval(&e).unwrap();
    let full_reads = full.stats().base_tuples_read;

    for exec in [
        crate::ExecConfig::sequential(),
        crate::ExecConfig::with_threads(8),
    ] {
        let tested = Evaluator::new(&db).with_exec_config(exec);
        assert!(tested.is_nonempty(&e).unwrap());
        let s = tested.stats();
        assert!(
            s.base_tuples_read < full_reads,
            "the test read {} tuples, full scan read {full_reads}",
            s.base_tuples_read
        );
        // build side (1) + a single probe-side tuple
        assert_eq!(s.base_tuples_read, 2);
        assert_eq!(s.probes, 1);
        assert_eq!(
            s.workers_spawned, 0,
            "the non-emptiness test must not leave the calling thread"
        );
    }
}

#[test]
fn arity_validation_errors() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    // union of different arities
    let bad = AlgebraExpr::relation("p")
        .union(AlgebraExpr::relation("p").product(AlgebraExpr::relation("t")));
    assert!(ev.eval(&bad).is_err());
    // out-of-range projection
    let bad2 = AlgebraExpr::relation("p").project(vec![3]);
    assert!(ev.eval(&bad2).is_err());
    // unknown relation
    assert!(ev.eval(&AlgebraExpr::relation("ghost")).is_err());
    // out-of-range join column
    let bad3 = AlgebraExpr::relation("p").join(AlgebraExpr::relation("t"), vec![(1, 0)]);
    assert!(ev.eval(&bad3).is_err());
}

#[test]
fn join_stats_count_probes() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("member").join(AlgebraExpr::relation("skill"), vec![(0, 0)]);
    ev.eval(&e).unwrap();
    let s = ev.stats();
    assert_eq!(s.probes, 3); // one per member tuple
    assert_eq!(s.base_scans, 2); // each relation scanned exactly once
}

#[test]
fn predicate_combinations() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let p = Predicate::And(
        Box::new(Predicate::col_const(1, CompareOp::Eq, "cs")),
        Box::new(Predicate::Not(Box::new(Predicate::col_const(
            0,
            CompareOp::Eq,
            "bob",
        )))),
    );
    let r = ev.eval(&AlgebraExpr::relation("member").select(p)).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["ann", "cs"]]);
}

#[test]
fn col_col_comparison() {
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples(
            "pairs",
            Schema::new(vec!["a", "b"]).unwrap(),
            vec![tuple![1, 1], tuple![1, 2], tuple![3, 3]],
        )
        .unwrap(),
    )
    .unwrap();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("pairs").select(Predicate::col_col(0, CompareOp::Eq, 1));
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple![1, 1], tuple![3, 3]]);
}

#[test]
fn literal_relations_evaluate() {
    let db = Database::new();
    let ev = Evaluator::new(&db);
    let mut lit = Relation::intermediate(1);
    lit.insert(tuple![7]).unwrap();
    let r = ev.eval(&AlgebraExpr::Literal(lit)).unwrap();
    assert_eq!(sorted(&r), vec![tuple![7]]);
}

#[test]
fn empty_division_dividend() {
    let mut db = Database::new();
    db.create_relation("g", Schema::new(vec!["x", "z"]).unwrap())
        .unwrap();
    db.add_relation(
        Relation::with_tuples("t", Schema::new(vec!["z"]).unwrap(), vec![tuple!["a"]]).unwrap(),
    )
    .unwrap();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("g").divide(AlgebraExpr::relation("t"), vec![(1, 0)]);
    assert!(ev.eval(&e).unwrap().is_empty());
}

#[test]
fn division_multi_column_divisor() {
    // g(x, a, b) ÷ t(a, b) on (1,0),(2,1)
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples(
            "g",
            Schema::new(vec!["x", "a", "b"]).unwrap(),
            vec![
                tuple!["k1", 1, 10],
                tuple!["k1", 2, 20],
                tuple!["k2", 1, 10],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        Relation::with_tuples(
            "t",
            Schema::new(vec!["a", "b"]).unwrap(),
            vec![tuple![1, 10], tuple![2, 20]],
        )
        .unwrap(),
    )
    .unwrap();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("g").divide(AlgebraExpr::relation("t"), vec![(1, 0), (2, 1)]);
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["k1"]]);
}

#[test]
fn union_dedups_across_inputs() {
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    let e = AlgebraExpr::relation("p").union(AlgebraExpr::relation("p"));
    let r = ev.eval(&e).unwrap();
    assert_eq!(r.len(), 4);
}

/// Boolean plans: §3.2's example structure — a conjunction of a
/// non-emptiness and an emptiness test, with short-circuiting.
#[test]
fn bool_expr_short_circuits() {
    use crate::BoolExpr;
    let db = fig2_db();
    let ev = Evaluator::new(&db);
    // (p ≠ ∅) ∧ (p − p = ∅)  — true
    let b = BoolExpr::and(
        BoolExpr::NonEmpty(AlgebraExpr::relation("p")),
        BoolExpr::Empty(AlgebraExpr::relation("p").difference(AlgebraExpr::relation("p"))),
    );
    assert!(b.eval(&ev).unwrap());

    // Or short-circuit: first disjunct true → second never evaluated.
    let ev2 = Evaluator::new(&db);
    let b2 = BoolExpr::or(
        BoolExpr::NonEmpty(AlgebraExpr::relation("p")),
        BoolExpr::NonEmpty(AlgebraExpr::relation("ghost")), // would error
    );
    assert!(b2.eval(&ev2).unwrap());

    // Not
    let b3 = BoolExpr::not(BoolExpr::Const(false));
    assert!(b3.eval(&ev).unwrap());
}

/// γcount: grouped counting (the Quel-baseline aggregate).
#[test]
fn group_count_basics() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    // count members per department
    let e = AlgebraExpr::relation("member")
        .project(vec![1, 0])
        .group_count(vec![0]);
    let r = ev.eval(&e).unwrap();
    assert_eq!(sorted(&r), vec![tuple!["cs", 2], tuple!["math", 1]]);
    // global count
    let g = AlgebraExpr::relation("member").group_count(vec![]);
    let r = ev.eval(&g).unwrap();
    assert_eq!(sorted(&r), vec![tuple![3]]);
    // empty input, grouped: no rows; global: no rows either (no groups)
    let empty = AlgebraExpr::relation("member")
        .select(Predicate::col_const(1, CompareOp::Eq, "nope"))
        .group_count(vec![]);
    assert!(ev.eval(&empty).unwrap().is_empty());
}

/// The Quel-style count-comparison evaluation of a universal query
/// ("compare the numbers of tuples satisfying Q and P") agrees with the
/// division plan — here: members per department vs cs-skilled members per
/// department.
#[test]
fn group_count_for_universal_queries() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    // departments where EVERY member has a db skill:
    // division: dept such that ∀ member → skill
    // count-based: per-dept member count == per-dept member-with-db count
    let members = AlgebraExpr::relation("member").project(vec![1, 0]); // (dept, person)
    let total = members.clone().group_count(vec![0]); // (dept, n)
    let with_db = members
        .semi_join(
            AlgebraExpr::relation("skill").select(Predicate::col_const(1, CompareOp::Eq, "db")),
            vec![(1, 0)],
        )
        .group_count(vec![0]); // (dept, k)
    let answer = total
        .join(with_db, vec![(0, 0)])
        .select(Predicate::col_col(1, CompareOp::Eq, 3))
        .project(vec![0]);
    let r = ev.eval(&answer).unwrap();
    // cs: ann(db) yes, bob(ai) no → excluded; math: col(db) yes → included
    assert_eq!(sorted(&r), vec![tuple!["math"]]);
}

#[test]
fn group_count_arity_validation() {
    let db = sample_db();
    let ev = Evaluator::new(&db);
    let bad = AlgebraExpr::relation("member").group_count(vec![5]);
    assert!(ev.eval(&bad).is_err());
}
