//! The plan that is measured is the plan that ships.
//!
//! The benchmark's per-layer table (`benchmark/src/layers.rs`) stages a
//! query by hand: normalize, translate with cost ordering, optimize each
//! plan (each non-emptiness test of a closed one), evaluate. The engine
//! has one configuration and must compile exactly that plan, so the exact
//! counts the layer table reports describe the run behind the end-to-end
//! numbers. `QueryEngine::explain` renders the plan `run` compiles, so the
//! two renderings are compared, and then the counts of both evaluations.

use gq_algebra::{optimize, optimize_bool, Evaluator, ExecConfig};
use gq_bench::E2E_SUITE;
use gq_calculus::parse;
use gq_core::QueryEngine;
use gq_rewrite::canonicalize_traced;
use gq_translate::ImprovedTranslator;
use gq_workload::{university, UniversityScale};

const THREADS: usize = 2;

/// The improved plan the layer table stages for `text`, rendered as
/// `explain` renders it, and the stats of evaluating it.
fn layer_recipe(engine: &QueryEngine, text: &str) -> (String, gq_algebra::ExecStats) {
    let snapshot = engine.snapshot();
    let formula = parse(text).unwrap();
    let (canonical, _) = canonicalize_traced(&formula).unwrap();
    let translator = ImprovedTranslator::new(&snapshot).with_cost_ordering(true);
    let ev = Evaluator::new(&snapshot).with_exec_config(ExecConfig::with_threads(THREADS));
    if formula.is_closed() {
        let plan = optimize_bool(&translator.translate_closed(&canonical).unwrap());
        plan.eval(&ev).unwrap();
        (format!("boolean plan: {plan}"), ev.stats())
    } else {
        let plan = optimize(&translator.translate_open(&canonical).unwrap().1);
        ev.eval(&plan).unwrap();
        (format!("plan: {plan}"), ev.stats())
    }
}

/// The plan line of `explain`'s improved-translation section.
fn explained_plan(engine: &QueryEngine, text: &str) -> String {
    let explained = engine.explain(text).unwrap();
    let improved = explained
        .split("== phase 2: improved translation (§3) ==")
        .nth(1)
        .expect("explain has an improved-translation section");
    improved
        .lines()
        .find(|l| l.starts_with("plan: ") || l.starts_with("boolean plan: "))
        .expect("explain renders the improved plan")
        .to_string()
}

#[test]
fn engine_runs_the_plan_the_layer_table_measures() {
    let engine = QueryEngine::new(university(&UniversityScale::of_size(200)))
        .with_exec_config(ExecConfig::with_threads(THREADS));
    for (label, text) in E2E_SUITE {
        let (recipe, recipe_stats) = layer_recipe(&engine, text);
        assert_eq!(explained_plan(&engine, text), recipe, "{label}");
        let shipped = engine.query(text).unwrap().stats;
        assert_eq!(
            shipped.without_dispatch_counters(),
            recipe_stats.without_dispatch_counters(),
            "{label}: exact counts of the shipped run and the layer recipe"
        );
    }
}
