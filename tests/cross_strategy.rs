//! Cross-strategy agreement on generated university databases: the
//! improved method, the classical translation and the nested-loop
//! interpreter must return identical answers for a suite of quantified and
//! disjunctive queries at several scales and seeds.

use gq_core::{QueryEngine, Strategy};
use gq_workload::{university, UniversityScale};

/// Paper-style queries over the generated schema (`d0` = "cs", `lang0` =
/// "french", `lang1` = "german").
const SUITE: &[&str] = &[
    // conjunctive with negation (complement-join)
    "member(x,z) & !skill(x,\"db\")",
    // nested existentials (Prop 4 case 1)
    "exists y. attends(x,y) & (exists d. lecture(y,d) & enrolled(x,d))",
    // case 2a
    "exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    // case 2b (correlated)
    "attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    // case 3
    "student(x) & !(exists y. attends(x,y) & lecture(y,\"d1\"))",
    // case 4
    "student(x) & !(exists y. attends(x,y) & !lecture(y,\"d0\"))",
    // case 5 (division)
    "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
    // disjunctive filters (Prop 5)
    "student(x) & (skill(x,\"db\") | speaks(x,\"lang1\") | makes(x,\"PhD\"))",
    "student(x) & (!enrolled(x,\"d0\") | skill(x,\"db\"))",
    // producer disjunction (Rules 12–14)
    "((student(x) & makes(x,\"PhD\")) | prof(x)) & (speaks(x,\"lang0\") | speaks(x,\"lang1\"))",
    // closed queries
    "exists x. student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
    "forall x. student(x) -> exists d. enrolled(x,d)",
    "forall x. prof(x) -> exists d. member(x,d)",
    // boolean combination of closed queries (§3.2)
    "(exists x. student(x) & makes(x,\"PhD\")) & (forall z. prof(z) -> exists d. member(z,d))",
];

fn check_suite(students: usize, seed: u64) {
    let mut scale = UniversityScale::of_size(students);
    scale.seed = seed;
    scale.completionist_rate = 0.15;
    let engine = QueryEngine::new(university(&scale));
    for text in SUITE {
        let improved = engine.query_with(text, Strategy::Improved).unwrap();
        let classical = engine.query_with(text, Strategy::Classical).unwrap();
        let nested = engine.query_with(text, Strategy::NestedLoop).unwrap();
        assert!(
            improved.answers.set_eq(&classical.answers),
            "improved vs classical differ on `{text}` (n={students}, seed={seed}): {} vs {}",
            improved.len(),
            classical.len()
        );
        assert!(
            improved.answers.set_eq(&nested.answers),
            "improved vs nested-loop differ on `{text}` (n={students}, seed={seed}): {} vs {}",
            improved.len(),
            nested.len()
        );
        assert_eq!(improved.vars, classical.vars, "vars on `{text}`");
    }
}

#[test]
fn agreement_small() {
    check_suite(20, 1);
}

#[test]
fn agreement_medium() {
    check_suite(60, 2);
}

#[test]
fn agreement_other_seeds() {
    for seed in 3..7 {
        check_suite(30, seed);
    }
}

/// The improved strategy must never lose to the baselines on answers and
/// must be consistent when the database is mutated between queries.
#[test]
fn agreement_after_mutation() {
    let mut scale = UniversityScale::of_size(25);
    scale.seed = 9;
    let engine = QueryEngine::new(university(&scale));
    check_engine(&engine);
    engine
        .insert("student", gq_storage::tuple!["newcomer"])
        .unwrap();
    check_engine(&engine);
}

fn check_engine(engine: &QueryEngine) {
    for text in SUITE {
        let improved = engine.query_with(text, Strategy::Improved).unwrap();
        let nested = engine.query_with(text, Strategy::NestedLoop).unwrap();
        assert!(improved.answers.set_eq(&nested.answers), "on `{text}`");
    }
}
