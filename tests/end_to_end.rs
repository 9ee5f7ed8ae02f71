//! End-to-end checks of the paper's claims C1–C5 through the public API.

use gq_calculus::parse;
use gq_core::{ConstraintSet, QueryEngine, Strategy};
use gq_rewrite::canonicalize;
use gq_translate::{ClassicalTranslator, ImprovedTranslator};
use gq_workload::{university, UniversityScale};

fn engine(n: usize) -> QueryEngine {
    let mut scale = UniversityScale::of_size(n);
    scale.completionist_rate = 0.15;
    QueryEngine::new(university(&scale))
}

/// Claim C1: in improved plans, each range relation is scanned exactly
/// once — the number of base scans equals the number of relation
/// occurrences in the query.
#[test]
fn c1_each_relation_scanned_once() {
    let e = engine(100);
    let cases: &[(&str, usize)] = &[
        // student + skill
        ("student(x) & !skill(x,\"db\")", 2),
        // Division plan: (student ⋉ π(attends ÷ π(σ lecture))) ∪
        // (student ⊼[] π(σ lecture)) — the vacuous-divisor guard re-scans
        // student and lecture, so 5 scans for 3 relations. The extra scans
        // are a constant of the plan shape, not data-dependent.
        (
            "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
            5,
        ),
        // student + t/u-style disjunctive filter: 3 relations, 3 scans
        ("student(x) & (skill(x,\"db\") | speaks(x,\"lang1\"))", 3),
    ];
    for (text, expected_scans) in cases {
        let r = e.query_with(text, Strategy::Improved).unwrap();
        assert_eq!(
            r.stats.base_scans, *expected_scans,
            "scans for `{text}`: {}",
            r.stats
        );
    }
}

/// Claim C2: improved plans never contain a cartesian product for the
/// paper's query shapes, while the classical translation of the same
/// queries always does (once more than one variable is involved).
#[test]
fn c2_no_cartesian_product() {
    let e = engine(50);
    // Improved plans: never a product.
    let queries = [
        "member(x,z) & !skill(x,\"db\")",
        "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
        "exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
        "((student(x) & makes(x,\"PhD\")) | prof(x)) & (speaks(x,\"lang0\") | speaks(x,\"lang1\"))",
    ];
    for text in queries {
        let canonical = canonicalize(&parse(text).unwrap()).unwrap();
        let (_, improved) = ImprovedTranslator::new(&e.snapshot())
            .translate_open(&canonical)
            .unwrap();
        assert!(
            !improved.uses_product(),
            "improved plan for `{text}`: {improved}"
        );
    }
    // Classical plans: the product of all variable ranges appears as soon
    // as the query has more than one variable.
    for text in [
        "member(x,z) & !skill(x,\"db\")",
        "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
        "exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    ] {
        let (_, classical) = ClassicalTranslator::new(&e.snapshot())
            .translate_open(&parse(text).unwrap())
            .unwrap();
        assert!(
            classical.uses_product(),
            "classical plan for `{text}` should product"
        );
    }
}

/// Claim C3: division appears in improved plans exactly for Proposition 4
/// case 5 (an uncorrelated-divisor universal), nowhere else.
#[test]
fn c3_division_only_in_case5() {
    let e = engine(50);
    let no_division = [
        "student(x) & !skill(x,\"db\")",
        "student(x) & !(exists y. attends(x,y) & lecture(y,\"d1\"))",
        "student(x) & !(exists y. attends(x,y) & !lecture(y,\"d0\"))",
        "attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    ];
    for text in no_division {
        let canonical = canonicalize(&parse(text).unwrap()).unwrap();
        let (_, plan) = ImprovedTranslator::new(&e.snapshot())
            .translate_open(&canonical)
            .unwrap();
        assert!(!plan.uses_division(), "`{text}`: {plan}");
    }
    let canonical =
        canonicalize(&parse("student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))").unwrap())
            .unwrap();
    let (_, plan) = ImprovedTranslator::new(&e.snapshot())
        .translate_open(&canonical)
        .unwrap();
    assert!(plan.uses_division(), "case 5 must divide: {plan}");
}

/// Claim C5: miniscoping reduces probe counts for the §2.2 query on the
/// nested-loop evaluator (the inner filter is re-evaluated per lecture in
/// the prenex-style form, per student in the canonical form).
#[test]
fn c5_miniscope_reduces_work() {
    let e = engine(300);
    let q1 =
        "exists x. student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y) & !enrolled(x,\"d0\"))";
    // NestedLoop canonicalizes first (miniscope), so compare against the
    // pipeline run on the RAW formula.
    let raw = parse(q1).unwrap();
    let db = e.snapshot();
    let pipeline_raw = gq_pipeline::PipelineEvaluator::new(&db);
    let v_raw = pipeline_raw.eval_closed(&raw).unwrap();
    let canonical = canonicalize(&raw).unwrap();
    let pipeline_canon = gq_pipeline::PipelineEvaluator::new(&db);
    let v_canon = pipeline_canon.eval_closed(&canonical).unwrap();
    assert_eq!(v_raw, v_canon);
    assert!(
        pipeline_canon.stats().probes <= pipeline_raw.stats().probes,
        "canonical form should not probe more: {} vs {}",
        pipeline_canon.stats().probes,
        pipeline_raw.stats().probes
    );
}

/// Strategy comparison: improved reads no more base tuples than the
/// classical translation on quantified queries (usually far fewer).
#[test]
fn improved_reads_fewer_tuples_than_classical() {
    let e = engine(80);
    for text in [
        "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
        "exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    ] {
        let imp = e.query_with(text, Strategy::Improved).unwrap();
        let cls = e.query_with(text, Strategy::Classical).unwrap();
        assert!(
            imp.stats.base_tuples_read <= cls.stats.base_tuples_read,
            "`{text}`: improved {} vs classical {}",
            imp.stats.base_tuples_read,
            cls.stats.base_tuples_read
        );
        assert!(
            imp.stats.max_intermediate <= cls.stats.max_intermediate,
            "`{text}`: intermediate {} vs {}",
            imp.stats.max_intermediate,
            cls.stats.max_intermediate
        );
    }
}

/// Constraint checking end-to-end on the university database.
#[test]
fn constraints_on_university() {
    let e = engine(60);
    let mut cs = ConstraintSet::new();
    cs.add(
        "students-enrolled",
        "forall x. student(x) -> exists d. enrolled(x,d)",
    )
    .unwrap();
    cs.add(
        "profs-members",
        "forall x. prof(x) -> exists d. member(x,d)",
    )
    .unwrap();
    cs.add(
        "attendance-valid",
        "forall s,l. attends(s,l) -> exists d. lecture(l,d)",
    )
    .unwrap();
    let reports = cs.check_all(&e).unwrap();
    assert!(reports.iter().all(|r| r.satisfied), "generator invariants");
}

/// EXPLAIN runs for every suite query without error.
#[test]
fn explain_never_fails_on_suite() {
    let e = engine(20);
    for text in [
        "member(x,z) & !skill(x,\"db\")",
        "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
        "exists x. ((student(x) & makes(x,\"PhD\")) | prof(x)) & speaks(x,\"lang0\")",
    ] {
        let rendered = e.explain(text).unwrap();
        assert!(rendered.contains("phase 1") && rendered.contains("phase 2"));
    }
}
