//! Integration tests of the canonical form (§2) through the public API:
//! Propositions 1–2 exercised on the paper's example corpus, plus the
//! semantic-preservation check (normal forms evaluate identically).

use gq_calculus::parse;
use gq_core::{QueryEngine, Request, Strategy};
use gq_rewrite::{canonicalize, canonicalize_random, is_canonical, is_miniscope};
use gq_workload::{university, UniversityScale};

const CORPUS: &[&str] = &[
    "student(x) & !skill(x,\"db\")",
    "exists x. student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y) & !enrolled(x,\"d0\"))",
    "exists x. ((student(x) & makes(x,\"PhD\")) | prof(x)) & (speaks(x,\"lang0\") | speaks(x,\"lang1\"))",
    "exists x. prof(x) & (member(x,\"d0\") | skill(x,\"math\")) & speaks(x,\"lang0\")",
    "forall x. student(x) -> exists y. attends(x,y)",
    "forall x. !(student(x) & prof(x))",
    "!(exists x. student(x) & !(exists d. enrolled(x,d)))",
    "exists x. student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y)) \
     & (forall z1. student(z1) -> exists z2. attends(z1,z2))",
];

/// Proposition 1 + fixpoint: the canonical form is reached and stable, and
/// is in miniscope form (Definition 4).
#[test]
fn corpus_canonicalizes_to_miniscope_fixpoints() {
    for text in CORPUS {
        let f = parse(text).unwrap();
        let c = canonicalize(&f).unwrap();
        assert!(is_canonical(&c), "not a fixpoint: {c}");
        assert!(is_miniscope(&c), "not miniscope: {c}");
        assert_eq!(c.universal_count(), 0, "∀ must be eliminated: {c}");
    }
}

/// Proposition 2 (confluence), exercised empirically: random application
/// orders reach the same normal form up to alpha-renaming — and where the
/// syntactic comparison is too strict (AC-variations of ∧/∨), the normal
/// forms still evaluate identically on a real database.
#[test]
fn random_orders_agree_semantically() {
    let mut scale = UniversityScale::of_size(30);
    scale.completionist_rate = 0.2;
    let engine = QueryEngine::new(university(&scale));
    for text in CORPUS {
        let f = parse(text).unwrap();
        let det = canonicalize(&f).unwrap();
        let reference = engine
            .run(&Request::formula(&det).with_strategy(Strategy::NestedLoop))
            .unwrap()
            .result;
        for seed in 0..8u64 {
            let rnd = canonicalize_random(&f, seed).unwrap();
            if det.alpha_eq(&rnd) {
                continue; // syntactically confluent on this input
            }
            // Otherwise the forms must still be logically equivalent.
            let alt = engine
                .run(&Request::formula(&rnd).with_strategy(Strategy::NestedLoop))
                .unwrap()
                .result;
            assert!(
                reference.answers.set_eq(&alt.answers),
                "seed {seed} on `{text}`:\ndet: {det}\nrnd: {rnd}"
            );
        }
    }
}

/// Normalization preserves answers end-to-end: evaluating the raw formula
/// with the nested-loop interpreter (which needs no canonical form for
/// restricted queries) equals evaluating the canonical form.
#[test]
fn canonicalization_preserves_answers() {
    let mut scale = UniversityScale::of_size(40);
    scale.seed = 5;
    scale.completionist_rate = 0.2;
    let db = university(&scale);
    let pipeline = gq_pipeline::PipelineEvaluator::new(&db);
    for text in CORPUS {
        let raw = parse(text).unwrap();
        let canonical = canonicalize(&raw).unwrap();
        if raw.is_closed() {
            let a = pipeline.eval_closed(&raw).unwrap();
            let b = pipeline.eval_closed(&canonical).unwrap();
            assert_eq!(a, b, "on `{text}`");
        } else {
            let (_, a) = pipeline.eval_open(&raw).unwrap();
            let (_, b) = pipeline.eval_open(&canonical).unwrap();
            assert!(a.set_eq(&b), "on `{text}`");
        }
    }
}
