//! Cross-translator equivalence tests.
//!
//! Every query is evaluated three ways — improved translation (§3),
//! classical translation (Codd reduction), and the Fig. 1 nested-loop
//! interpreter — and the answers must agree. This validates Proposition 4
//! (all five cases), Proposition 5, and the end-to-end pipeline, on both
//! fixed paper examples and randomized databases.

use crate::{ClassicalTranslator, ImprovedTranslator};
use gq_algebra::Evaluator;
use gq_calculus::parse;
use gq_pipeline::PipelineEvaluator;
use gq_rewrite::canonicalize;
use gq_storage::{Database, Relation, Schema, Tuple, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evaluate an arbitrary (possibly open) query under all three strategies
/// and assert agreement. Returns the improved answer for further checks.
fn assert_equivalent(db: &Database, text: &str) -> Relation {
    let raw = parse(text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
    let canonical = canonicalize(&raw).unwrap_or_else(|e| panic!("canonicalize {text}: {e}"));

    if raw.is_closed() {
        let imp = ImprovedTranslator::new(db)
            .translate_closed(&canonical)
            .unwrap_or_else(|e| panic!("improved {text}: {e}\ncanonical: {canonical}"));
        let ev = Evaluator::new(db);
        let imp_ans = imp.eval(&ev).unwrap();

        let cls = ClassicalTranslator::new(db)
            .translate_closed(&raw)
            .unwrap_or_else(|e| panic!("classical {text}: {e}"));
        let cls_ans = cls.eval(&Evaluator::new(db)).unwrap();

        let loop_ans = PipelineEvaluator::new(db)
            .eval_closed(&canonical)
            .unwrap_or_else(|e| panic!("pipeline {text}: {e}\ncanonical: {canonical}"));

        assert_eq!(imp_ans, cls_ans, "improved vs classical on {text}");
        assert_eq!(imp_ans, loop_ans, "improved vs nested-loop on {text}");

        let mut r = Relation::intermediate(0);
        if imp_ans {
            r.insert(Tuple::new(vec![])).unwrap();
        }
        r
    } else {
        let (vars_i, imp) = ImprovedTranslator::new(db)
            .translate_open(&canonical)
            .unwrap_or_else(|e| panic!("improved {text}: {e}\ncanonical: {canonical}"));
        let imp_ans = Evaluator::new(db).eval(&imp).unwrap();

        let (vars_c, cls) = ClassicalTranslator::new(db)
            .translate_open(&raw)
            .unwrap_or_else(|e| panic!("classical {text}: {e}"));
        let cls_ans = Evaluator::new(db).eval(&cls).unwrap();
        assert_eq!(vars_i, vars_c, "answer variables on {text}");

        let (_, loop_ans) = PipelineEvaluator::new(db)
            .eval_open(&canonical)
            .unwrap_or_else(|e| panic!("pipeline {text}: {e}\ncanonical: {canonical}"));

        assert!(
            imp_ans.set_eq(&cls_ans),
            "improved vs classical on {text}:\nimproved: {imp_ans}\nclassical: {cls_ans}\nplan: {imp}"
        );
        assert!(
            imp_ans.set_eq(&loop_ans),
            "improved vs nested-loop on {text}:\nimproved: {imp_ans}\nnested-loop: {loop_ans}\nplan: {imp}"
        );
        imp_ans
    }
}

/// The running university database used by the paper's examples.
type RelationSpec = (&'static str, Vec<&'static str>, Vec<Vec<&'static str>>);

fn uni_db() -> Database {
    let mut db = Database::new();
    let specs: Vec<RelationSpec> = vec![
        (
            "student",
            vec!["name"],
            vec![vec!["ann"], vec!["bob"], vec!["eve"], vec!["joe"]],
        ),
        ("prof", vec!["name"], vec![vec!["kim"], vec!["lou"]]),
        (
            "lecture",
            vec!["name", "dept"],
            vec![
                vec!["db", "cs"],
                vec!["os", "cs"],
                vec!["alg", "math"],
                vec!["top", "math"],
            ],
        ),
        (
            "attends",
            vec!["student", "lecture"],
            vec![
                vec!["ann", "db"],
                vec!["ann", "os"],
                vec!["bob", "db"],
                vec!["eve", "alg"],
                vec!["eve", "top"],
                vec!["joe", "db"],
                vec!["joe", "alg"],
            ],
        ),
        (
            "enrolled",
            vec!["student", "dept"],
            vec![
                vec!["ann", "math"],
                vec!["bob", "cs"],
                vec!["eve", "math"],
                vec!["joe", "cs"],
            ],
        ),
        (
            "speaks",
            vec!["person", "lang"],
            vec![
                vec!["ann", "french"],
                vec!["bob", "german"],
                vec!["kim", "french"],
                vec!["lou", "english"],
            ],
        ),
        (
            "makes",
            vec!["person", "deg"],
            vec![vec!["ann", "PhD"], vec!["eve", "PhD"]],
        ),
        (
            "member",
            vec!["person", "dept"],
            vec![vec!["kim", "cs"], vec!["lou", "math"], vec!["ann", "cs"]],
        ),
        (
            "skill",
            vec!["person", "topic"],
            vec![vec!["kim", "math"], vec!["ann", "db"], vec!["bob", "db"]],
        ),
    ];
    for (name, attrs, rows) in specs {
        db.create_relation(name, Schema::new(attrs).unwrap())
            .unwrap();
        for row in rows {
            let t: Tuple = row.iter().map(Value::str).collect();
            db.insert(name, t).unwrap();
        }
    }
    db
}

// ---------------------------------------------------------------- fixed

#[test]
fn open_conjunctive() {
    let r = assert_equivalent(&uni_db(), "student(x) & attends(x,\"db\")");
    assert_eq!(r.len(), 3);
}

#[test]
fn open_negated_filter_complement_join() {
    // §3.1 Q₂ shape: member(x,z) ∧ ¬skill(x,db)
    let r = assert_equivalent(&uni_db(), "member(x,z) & !skill(x,\"db\")");
    assert_eq!(r.len(), 2); // kim/cs, lou/math
}

#[test]
fn closed_existential() {
    assert_equivalent(&uni_db(), "exists x. student(x) & attends(x,\"db\")");
    assert_equivalent(&uni_db(), "exists x. student(x) & attends(x,\"nope\")");
}

#[test]
fn closed_universal_every_student_attends() {
    assert_equivalent(&uni_db(), "forall x. student(x) -> exists y. attends(x,y)");
    assert_equivalent(&uni_db(), "forall x. student(x) -> attends(x,\"db\")");
}

#[test]
fn prop4_case1_nested_positive() {
    // ∃y attends(x,y) ∧ ∃d (lecture(y,d) ∧ enrolled(x,d)):
    // students attending a lecture of a department they're enrolled in.
    assert_equivalent(
        &uni_db(),
        "exists y. attends(x,y) & (exists d. lecture(y,d) & enrolled(x,d))",
    );
}

#[test]
fn prop4_case2a_nested_negated_atom() {
    // ∃y attends(x,y) ∧ ∃d (lecture(y,d) ∧ ¬enrolled(x,d))
    assert_equivalent(
        &uni_db(),
        "exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    );
}

#[test]
fn prop4_case2b_correlated_producer() {
    // inner producer lecture(y,d) does not mention x; ¬enrolled(x,d) does:
    // the correlated-join path.
    assert_equivalent(
        &uni_db(),
        "attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    );
}

#[test]
fn prop4_case3_negated_subquery() {
    // students with no attendance in a math lecture
    assert_equivalent(
        &uni_db(),
        "student(x) & !(exists y. attends(x,y) & lecture(y,\"math\"))",
    );
}

#[test]
fn prop4_case4_complement_join_instead_of_division() {
    // every lecture x attends is a cs lecture:
    // student(x) ∧ ¬∃y (attends(x,y) ∧ ¬lecture(y,cs))
    let r = assert_equivalent(
        &uni_db(),
        "student(x) & !(exists y. attends(x,y) & !lecture(y,\"cs\"))",
    );
    // ann (db, os), bob (db) — eve and joe attend math lectures.
    assert_eq!(r.len(), 2);
}

#[test]
fn prop4_case5_division() {
    // x attends ALL cs lectures: student(x) ∧ ∀y lecture(y,cs) ⇒ attends(x,y)
    let r = assert_equivalent(
        &uni_db(),
        "student(x) & (forall y. lecture(y,\"cs\") -> attends(x,y))",
    );
    assert_eq!(r.len(), 1); // ann
}

#[test]
fn prop4_case5_division_plan_is_used() {
    // The improved plan for the all-cs-lectures query must actually use
    // division (claim C3: case 5 is the one unavoidable use).
    let db = uni_db();
    let raw = parse("student(x) & (forall y. lecture(y,\"cs\") -> attends(x,y))").unwrap();
    let canonical = canonicalize(&raw).unwrap();
    let (_, plan) = ImprovedTranslator::new(&db)
        .translate_open(&canonical)
        .unwrap();
    assert!(plan.uses_division(), "expected division in: {plan}");
    assert!(
        !plan.uses_product(),
        "no cartesian product expected: {plan}"
    );
}

#[test]
fn prop4_cases_1_to_4_avoid_division() {
    let db = uni_db();
    for text in [
        "exists y. attends(x,y) & (exists d. lecture(y,d) & enrolled(x,d))",
        "exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
        "student(x) & !(exists y. attends(x,y) & lecture(y,\"math\"))",
        "student(x) & !(exists y. attends(x,y) & !lecture(y,\"cs\"))",
    ] {
        let canonical = canonicalize(&parse(text).unwrap()).unwrap();
        let (_, plan) = ImprovedTranslator::new(&db)
            .translate_open(&canonical)
            .unwrap();
        assert!(
            !plan.uses_division(),
            "unexpected division for {text}: {plan}"
        );
        assert!(
            !plan.uses_product(),
            "unexpected product for {text}: {plan}"
        );
    }
}

/// Range passing (DESIGN.md §7.7): case 1's inner block is joined under
/// the `attends` range that binds both of its correlation variables — it is
/// never built on its own as `lecture ⋈ enrolled`, which is quadratic in
/// the database — and `enrolled`, whose variables are then all bound, is a
/// semi-join.
#[test]
fn prop4_case1_inner_block_is_joined_under_its_range() {
    use gq_algebra::AlgebraExpr;
    fn is_scan(e: &AlgebraExpr, name: &str) -> bool {
        matches!(e, AlgebraExpr::Relation(n) if n == name)
    }
    fn joins_lecture_with_enrolled(e: &AlgebraExpr) -> bool {
        let here = match e {
            AlgebraExpr::Join { left, right, .. } => {
                (is_scan(left, "lecture") && is_scan(right, "enrolled"))
                    || (is_scan(left, "enrolled") && is_scan(right, "lecture"))
            }
            _ => false,
        };
        here || e.children().into_iter().any(joins_lecture_with_enrolled)
    }
    fn semi_joins_enrolled(e: &AlgebraExpr) -> bool {
        matches!(e, AlgebraExpr::SemiJoin { right, .. } if is_scan(right, "enrolled"))
            || e.children().into_iter().any(semi_joins_enrolled)
    }
    let db = uni_db();
    let text = "exists y. attends(x,y) & (exists d. lecture(y,d) & enrolled(x,d))";
    let canonical = canonicalize(&parse(text).unwrap()).unwrap();
    for cost_ordering in [false, true] {
        let (_, plan) = ImprovedTranslator::new(&db)
            .with_cost_ordering(cost_ordering)
            .translate_open(&canonical)
            .unwrap();
        assert!(
            !joins_lecture_with_enrolled(&plan),
            "inner block built on its own: {plan}"
        );
        assert!(semi_joins_enrolled(&plan), "expected ⋉ enrolled: {plan}");
    }
}

#[test]
fn disjunctive_filter_outer_joins() {
    // §2.3 Q₁: PhD student or professor speaking french or german.
    let r = assert_equivalent(
        &uni_db(),
        "((student(x) & makes(x,\"PhD\")) | prof(x)) \
         & (speaks(x,\"french\") | speaks(x,\"german\"))",
    );
    assert_eq!(r.len(), 2); // ann (PhD, french), kim (prof, french)
}

#[test]
fn disjunctive_filter_with_negation_fig4() {
    // Q₂ of §3.3: P(x) ∧ (¬T(x) ∨ U(x)) over the university relations.
    assert_equivalent(
        &uni_db(),
        "student(x) & (!enrolled(x,\"cs\") | skill(x,\"db\"))",
    );
}

#[test]
fn three_way_disjunctive_filter() {
    assert_equivalent(
        &uni_db(),
        "student(x) & (skill(x,\"db\") | speaks(x,\"german\") | makes(x,\"PhD\"))",
    );
}

#[test]
fn disjunctive_filter_with_comparison() {
    assert_equivalent(&uni_db(), "enrolled(x,d) & (d = \"cs\" | skill(x,\"db\"))");
}

#[test]
fn quantified_disjunct_in_filter() {
    // filter disjunct is itself a quantified property:
    // speaks french, or attends every cs lecture.
    assert_equivalent(
        &uni_db(),
        "student(x) & (speaks(x,\"french\") | (forall y. lecture(y,\"cs\") -> attends(x,y)))",
    );
}

#[test]
fn closed_boolean_combination() {
    // §3.2's example structure: conjunction of two closed queries.
    assert_equivalent(
        &uni_db(),
        "(exists x. student(x) & (forall y. lecture(y,\"db\") -> attends(x,y))) \
         & (forall z1. student(z1) -> exists z2. attends(z1,z2))",
    );
}

#[test]
fn paper_intro_query_q() {
    // §3.2 Q: a PhD student enrolled outside cs attending a cs lecture.
    assert_equivalent(
        &uni_db(),
        "exists x,y. enrolled(x,y) & y != \"cs\" & makes(x,\"PhD\") \
         & (exists z. lecture(z,\"cs\") & attends(x,z))",
    );
}

#[test]
fn open_disjunction_of_queries() {
    assert_equivalent(
        &uni_db(),
        "(student(x) & attends(x,\"alg\")) | (student(x) & attends(x,\"os\"))",
    );
}

#[test]
fn projection_range_query() {
    assert_equivalent(
        &uni_db(),
        "(exists y. attends(x,y)) & !enrolled(x,\"math\")",
    );
}

#[test]
fn universal_negated_range_closed() {
    assert_equivalent(&uni_db(), "forall x. !(student(x) & skill(x,\"ai\"))");
    assert_equivalent(&uni_db(), "forall x. !(student(x) & skill(x,\"db\"))");
}

#[test]
fn vacuous_universal_is_true() {
    // No "physics" lectures: ∀y lecture(y,physics) ⇒ attends(x,y) holds
    // for every student (the empty-divisor case the paper glosses over).
    let r = assert_equivalent(
        &uni_db(),
        "student(x) & (forall y. lecture(y,\"physics\") -> attends(x,y))",
    );
    assert_eq!(r.len(), 4, "all students qualify vacuously");
}

// ------------------------------------------------------------- randomized

/// Build a random database over a fixed schema.
fn random_db(seed: u64, scale: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("q", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    db.create_relation("s", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    let n = scale.max(2) as i64;
    for _ in 0..scale {
        let _ = db.insert("p", Tuple::new(vec![Value::Int(rng.gen_range(0..n))]));
        let _ = db.insert("q", Tuple::new(vec![Value::Int(rng.gen_range(0..n))]));
        for name in ["r", "s"] {
            let _ = db.insert(
                name,
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..n)),
                    Value::Int(rng.gen_range(0..n)),
                ]),
            );
        }
    }
    db
}

/// A pool of restricted query shapes exercising every Proposition 4 case,
/// disjunctive filters, and boolean combinations.
const QUERY_POOL: &[&str] = &[
    "p(x) & !q(x)",
    "p(x) & (exists y. r(x,y) & !s(x,y))",
    "p(x) & !(exists y. r(x,y) & s(x,y))",
    "p(x) & !(exists y. r(x,y) & !s(x,y))",
    "p(x) & (forall y. q(y) -> r(x,y))",
    "p(x) & (forall y. r(x,y) -> s(x,y))",
    "r(x,y) & (exists z. s(y,z) & !r(x,z))",
    "p(x) & (q(x) | (exists y. r(x,y)))",
    "p(x) & (!q(x) | s(x,x))",
    "(p(x) & q(x)) | (p(x) & (exists y. s(x,y)))",
    "exists x. p(x) & (forall y. r(x,y) -> q(y))",
    "forall x. p(x) -> exists y. r(x,y)",
    "forall x. !(p(x) & q(x) & (exists y. r(x,y) & s(x,y)))",
    "p(x) & (exists y. r(x,y) & q(y) & (exists z. s(y,z)))",
    "r(x,y) & !s(y,x) & (q(x) | q(y))",
];

/// Both division modes of the improved translator agree (the paper's
/// remark that division can be "rewritten in terms of difference or
/// complement-join").
#[test]
fn division_modes_agree() {
    use crate::DivisionMode;
    let db = uni_db();
    for text in [
        "student(x) & (forall y. lecture(y,\"cs\") -> attends(x,y))",
        "student(x) & (forall y. lecture(y,\"physics\") -> attends(x,y))", // vacuous
        "exists x. student(x) & (forall y. lecture(y,\"cs\") -> attends(x,y))",
    ] {
        let canonical = canonicalize(&parse(text).unwrap()).unwrap();
        let results: Vec<Relation> = [DivisionMode::Divide, DivisionMode::ComplementJoin]
            .into_iter()
            .map(|mode| {
                let tr = ImprovedTranslator::new(&db).with_division_mode(mode);
                let ev = Evaluator::new(&db);
                if canonical.is_closed() {
                    let truth = tr.translate_closed(&canonical).unwrap().eval(&ev).unwrap();
                    let mut r = Relation::intermediate(0);
                    if truth {
                        r.insert(Tuple::new(vec![])).unwrap();
                    }
                    r
                } else {
                    let (_, plan) = tr.translate_open(&canonical).unwrap();
                    ev.eval(&plan).unwrap()
                }
            })
            .collect();
        assert!(results[0].set_eq(&results[1]), "modes differ on `{text}`");
    }
    // And the complement-join mode really is division-free.
    let canonical =
        canonicalize(&parse("student(x) & (forall y. lecture(y,\"cs\") -> attends(x,y))").unwrap())
            .unwrap();
    let tr = ImprovedTranslator::new(&db).with_division_mode(DivisionMode::ComplementJoin);
    let (_, plan) = tr.translate_open(&canonical).unwrap();
    assert!(!plan.uses_division(), "{plan}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// All three strategies agree on random databases for every query in
    /// the pool.
    #[test]
    fn strategies_agree_on_random_databases(
        seed in 0u64..10_000,
        scale in 2usize..18,
        qi in 0usize..QUERY_POOL.len(),
    ) {
        let db = random_db(seed, scale);
        assert_equivalent(&db, QUERY_POOL[qi]);
    }

    /// The division-free mode agrees with the division mode on random
    /// databases for ∀-queries (including empty-divisor instances).
    #[test]
    fn division_modes_agree_random(seed in 0u64..10_000, scale in 2usize..15) {
        use crate::DivisionMode;
        let db = random_db(seed, scale);
        for text in ["p(x) & (forall y. q(y) -> r(x,y))", "p(x) & (forall y. q(y) -> s(x,y))"] {
            let canonical = canonicalize(&parse(text).unwrap()).unwrap();
            let a = {
                let tr = ImprovedTranslator::new(&db);
                let (_, plan) = tr.translate_open(&canonical).unwrap();
                Evaluator::new(&db).eval(&plan).unwrap()
            };
            let b = {
                let tr = ImprovedTranslator::new(&db)
                    .with_division_mode(DivisionMode::ComplementJoin);
                let (_, plan) = tr.translate_open(&canonical).unwrap();
                Evaluator::new(&db).eval(&plan).unwrap()
            };
            prop_assert!(a.set_eq(&b), "on `{}`", text);
        }
    }
}

/// Proposition 5 end-to-end, n ≤ 5 disjuncts with arbitrary negation
/// patterns: the improved translation (constrained outer-join chains)
/// agrees with the nested-loop oracle on random databases.
#[test]
fn prop5_nary_random_negation_patterns() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..60 {
        let n = rng.gen_range(1..=5usize);
        let negs: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
        // database: p plus t1..tn
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        let rows = rng.gen_range(3..25usize);
        for i in 0..rows {
            db.insert("p", Tuple::new(vec![Value::Int(i as i64)]))
                .unwrap();
        }
        for k in 1..=n {
            let name = format!("t{k}");
            db.create_relation(&name, Schema::anonymous(1)).unwrap();
            for i in 0..rows {
                if rng.gen_bool(0.4) {
                    db.insert(&name, Tuple::new(vec![Value::Int(i as i64)]))
                        .unwrap();
                }
            }
        }
        let disjuncts: Vec<String> = (1..=n)
            .map(|k| {
                if negs[k - 1] {
                    format!("!t{k}(x)")
                } else {
                    format!("t{k}(x)")
                }
            })
            .collect();
        let text = format!("p(x) & ({})", disjuncts.join(" | "));
        assert_equivalent(&db, &text);
        let _ = trial;
    }
}

/// Disjunctive filters over binary relations and mixed-arity correlation
/// (beyond the paper's unary exposition): still agree everywhere.
#[test]
fn prop5_binary_relation_disjuncts() {
    let db = uni_db();
    assert_equivalent(
        &db,
        "enrolled(x,d) & (member(x,d) | skill(x,\"db\") | !speaks(x,\"french\"))",
    );
    assert_equivalent(
        &db,
        "attends(x,y) & (lecture(y,\"cs\") | enrolled(x,\"math\"))",
    );
}

/// Translate `f` with cost ordering on, for its side effect on
/// `COST_ORDERED_JOINS`.
fn translate_cost_ordered(db: &Database, f: &gq_calculus::Formula) {
    let canonical = canonicalize(f).unwrap();
    let tr = ImprovedTranslator::new(db).with_cost_ordering(true);
    if canonical.is_closed() {
        tr.translate_closed(&canonical).unwrap();
    } else {
        tr.translate_open(&canonical).unwrap();
    }
}

/// The build-side rule: the executor builds its hash table on the right
/// input of a `⋈` and probes it with the left, so every join the cost
/// ordering emits has the smaller estimate on the right — over the E2E
/// suite at `university(200)` and every query of the fuzz batches.
#[test]
fn cost_ordered_joins_build_on_the_smaller_input() {
    use crate::improved::COST_ORDERED_JOINS;
    COST_ORDERED_JOINS.with(|j| j.borrow_mut().clear());
    let uni = gq_workload::university(&gq_workload::UniversityScale::of_size(200));
    for (_, text) in gq_workload::E2E_SUITE {
        translate_cost_ordered(&uni, &parse(text).unwrap());
    }
    let fuzz = (0..120)
        .chain(1000..1120)
        .map(|seed| (seed, 8))
        .chain((2000..2060).map(|seed| (seed, 15)));
    for (seed, scale) in fuzz {
        let (f, db) = crate::query_fuzz::gen_query(seed, scale);
        translate_cost_ordered(&db, &f);
    }
    let joins = COST_ORDERED_JOINS.with(|j| j.take());
    assert!(joins.len() >= 50, "only {} cost-ordered joins", joins.len());
    for (left, right) in joins {
        assert!(
            right <= left,
            "build side estimates {right} > probe side {left}"
        );
    }
}

/// With the build side fixed, the cost ordering keeps the syntactic plan
/// where the syntactic order already builds on the small side — the two
/// suite queries whose cost-ordered plans used to build on the largest
/// relation.
#[test]
fn cost_ordering_keeps_the_syntactic_plan_where_it_builds_small() {
    let db = gq_workload::university(&gq_workload::UniversityScale::of_size(200));
    for (label, text) in gq_workload::E2E_SUITE {
        if !(label.starts_with("neg-subquery") || label.starts_with("producer-or")) {
            continue;
        }
        let canonical = canonicalize(&parse(text).unwrap()).unwrap();
        let plan = |ordered: bool| {
            ImprovedTranslator::new(&db)
                .with_cost_ordering(ordered)
                .translate_open(&canonical)
                .unwrap()
                .1
        };
        assert_eq!(plan(true), plan(false), "{label}");
    }
}

/// Every algebra plan the two translators emit for `f`: the improved one
/// both cost-ordered (as the engine compiles it) and syntactic, and the
/// classical one when `f` is in its fragment.
fn translated_plans(db: &Database, f: &gq_calculus::Formula) -> Vec<gq_algebra::AlgebraExpr> {
    let canonical = canonicalize(f).unwrap();
    let mut plans = Vec::new();
    for ordered in [true, false] {
        let tr = ImprovedTranslator::new(db).with_cost_ordering(ordered);
        if canonical.is_closed() {
            let plan = tr.translate_closed(&canonical).unwrap();
            plans.extend(plan.algebra_exprs().into_iter().cloned());
        } else {
            plans.push(tr.translate_open(&canonical).unwrap().1);
        }
    }
    let classical = ClassicalTranslator::new(db);
    if f.is_closed() {
        if let Ok(plan) = classical.translate_closed(f) {
            plans.extend(plan.algebra_exprs().into_iter().cloned());
        }
    } else if let Ok((_, plan)) = classical.translate_open(f) {
        plans.push(plan);
    }
    plans
}

/// The safety net under the engine's always-on optimizer: on every plan
/// both translators emit for the E2E suite and the fuzz batches,
/// `optimize` reaches a fixpoint (`optimize(optimize(p)) == optimize(p)`,
/// which a round stopped early by its `changed` flag would break), and on
/// the fuzz databases the optimized plan has the original's answers.
#[test]
fn optimize_is_idempotent_and_exact_on_translated_plans() {
    use gq_algebra::optimize;
    let uni = gq_workload::university(&gq_workload::UniversityScale::of_size(200));
    let mut checked = 0;
    for (label, text) in gq_workload::E2E_SUITE {
        for plan in translated_plans(&uni, &parse(text).unwrap()) {
            let once = optimize(&plan);
            assert_eq!(optimize(&once), once, "{label}: {plan}");
            checked += 1;
        }
    }
    for seed in (0..120).chain(1000..1120) {
        let (f, db) = crate::query_fuzz::gen_query(seed, 8);
        for plan in translated_plans(&db, &f) {
            let once = optimize(&plan);
            assert_eq!(optimize(&once), once, "seed {seed}: {plan}");
            let ev = Evaluator::new(&db);
            assert!(
                ev.eval(&plan).unwrap().set_eq(&ev.eval(&once).unwrap()),
                "seed {seed}: optimizing changed the answers of {plan}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 500, "only {checked} plans checked");
}

/// Cost-ordered producer joins (the §4 cost-model extension) preserve
/// answers on the random query pool and the fuzz generator.
#[test]
fn cost_ordering_preserves_answers() {
    for seed in 0..40u64 {
        let (f, db) = crate::query_fuzz::gen_query(seed + 5000, 8);
        let canonical = canonicalize(&f).unwrap();
        if f.is_closed() {
            continue; // covered by the open cases; closed plumbing identical
        }
        let (_, plain) = ImprovedTranslator::new(&db)
            .translate_open(&canonical)
            .unwrap();
        let (_, ordered) = ImprovedTranslator::new(&db)
            .with_cost_ordering(true)
            .translate_open(&canonical)
            .unwrap();
        let a = Evaluator::new(&db).eval(&plain).unwrap();
        let b = Evaluator::new(&db).eval(&ordered).unwrap();
        assert!(
            a.set_eq(&b),
            "seed {seed}: {canonical}\nplain: {plain}\nordered: {ordered}"
        );
    }
}
