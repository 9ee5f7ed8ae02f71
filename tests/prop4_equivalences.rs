//! Proposition 4 end-to-end: the five translation shapes through the
//! public engine, at scale, under every strategy and division mode — all must agree; plan-shape assertions check which operators each
//! case is allowed to use.

use gq_calculus::parse;
use gq_core::{QueryEngine, Strategy};
use gq_rewrite::canonicalize;
use gq_translate::{DivisionMode, ImprovedTranslator};
use gq_workload::generic;

/// (label, query, may_use_division)
const CASES: &[(&str, &str, bool)] = &[
    ("case1", "p(x) & (exists y. r(x,y) & s(x,y))", false),
    ("case2a", "p(x) & (exists y. r(x,y) & !s(x,y))", false),
    ("case2b", "r(x,y) & (exists z. s(y,z) & !r(x,z))", false),
    ("case3", "p(x) & !(exists y. r(x,y) & s(x,y))", false),
    ("case4", "p(x) & !(exists y. r(x,y) & !s(x,y))", false),
    ("case5", "p(x) & (forall y. q(y) -> r(x,y))", true),
];

#[test]
fn all_cases_agree_across_strategies_and_options() {
    for seed in [1u64, 2, 3] {
        let engine = QueryEngine::new(generic(25, 120, seed));
        for (label, text, _) in CASES {
            let reference = engine.query_with(text, Strategy::Improved).unwrap();
            for strategy in Strategy::ALL {
                let r = engine.query_with(text, strategy).unwrap();
                assert!(
                    reference.answers.set_eq(&r.answers),
                    "{label} (seed {seed}) with {}",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn division_appears_exactly_in_case5() {
    let db = generic(25, 120, 1);
    for (label, text, may_divide) in CASES {
        let canonical = canonicalize(&parse(text).unwrap()).unwrap();
        let (_, plan) = ImprovedTranslator::new(&db)
            .translate_open(&canonical)
            .unwrap();
        assert_eq!(plan.uses_division(), *may_divide, "{label}: {plan}");
        assert!(!plan.uses_product(), "{label}: {plan}");
    }
}

#[test]
fn division_modes_agree_on_all_cases() {
    for seed in [5u64, 6] {
        let db = generic(20, 100, seed);
        for (label, text, _) in CASES {
            let canonical = canonicalize(&parse(text).unwrap()).unwrap();
            let results: Vec<_> = [DivisionMode::Divide, DivisionMode::ComplementJoin]
                .into_iter()
                .map(|mode| {
                    let tr = ImprovedTranslator::new(&db).with_division_mode(mode);
                    let (_, plan) = tr.translate_open(&canonical).unwrap();
                    gq_algebra::Evaluator::new(&db).eval(&plan).unwrap()
                })
                .collect();
            assert!(results[0].set_eq(&results[1]), "{label} (seed {seed})");
        }
    }
    // ... and the complement-join mode never divides.
    let db = generic(20, 100, 5);
    let canonical = canonicalize(&parse(CASES[5].1).unwrap()).unwrap();
    let tr = ImprovedTranslator::new(&db).with_division_mode(DivisionMode::ComplementJoin);
    let (_, plan) = tr.translate_open(&canonical).unwrap();
    assert!(!plan.uses_division(), "{plan}");
}

/// Proposition 4's equivalences hold with the answer columns permuted by
/// the two-variable case (2b): the answer variables come back in name
/// order under every strategy.
#[test]
fn answer_variable_order_is_stable() {
    let engine = QueryEngine::new(generic(15, 60, 9));
    let text = "r(x,y) & (exists z. s(y,z) & !r(x,z))";
    let mut orders = Vec::new();
    for strategy in Strategy::ALL {
        let r = engine.query_with(text, strategy).unwrap();
        orders.push(
            r.vars
                .iter()
                .map(|v| v.name().to_string())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(orders[0], vec!["x", "y"]);
    assert_eq!(orders[0], orders[1]);
    assert_eq!(orders[0], orders[2]);
}
