//! EXPLAIN: render the full processing pipeline of a query; EXPLAIN
//! ANALYZE: render what a traced run actually did.

use crate::plan_cache::CompiledPlan;
use crate::{EngineError, QueryEngine, QueryResult, Strategy};
use gq_calculus::parse;
use gq_obs::QueryTrace;
use gq_rewrite::{canonicalize_traced, is_miniscope};
use gq_storage::Database;

/// EXPLAIN ANALYZE: the phase timings and the annotated plan tree of a
/// traced run (per node: actual rows, comparisons, probes, elapsed time
/// and its share of the total), then the run's totals.
pub fn explain_analyze(result: &QueryResult, trace: &QueryTrace) -> String {
    format!(
        "{}\n== totals ==\n  {} answers, {}\n",
        trace.render(),
        result.len(),
        result.stats
    )
}

impl QueryEngine {
    /// Render the two-phase processing of a query: the canonical form with
    /// its rule-application trace (§2), then the plan each algebraic
    /// strategy runs — exactly what [`QueryEngine::run`] compiles: the
    /// improved plan (§3) and the classical baseline for comparison.
    // `write!` into a `String` is infallible, so the unwraps below can
    // never fire; spelled as unwraps to keep the rendering code readable.
    #[allow(clippy::unwrap_used)]
    pub fn explain(&self, text: &str) -> Result<String, EngineError> {
        use std::fmt::Write;
        // One pinned snapshot for the whole rendering, like a real query.
        let snap = self.snapshot();
        let parsed = parse(text)?;
        let governor = self.start_governor(0, None, None, None);
        let (db, formula) = self.preprocess(&snap, &parsed, false, &governor, None)?;
        let mut out = String::new();
        writeln!(out, "query: {parsed}").unwrap();
        if formula != parsed {
            writeln!(out, "after view expansion: {formula}").unwrap();
        }

        let (canonical, trace) = canonicalize_traced(&formula)?;
        writeln!(out, "\n== phase 1: normalization (§2) ==").unwrap();
        if trace.steps.is_empty() {
            writeln!(out, "already canonical").unwrap();
        } else {
            write!(out, "{trace}").unwrap();
        }
        writeln!(out, "canonical: {canonical}").unwrap();
        writeln!(
            out,
            "miniscope (Def. 4): {}",
            if is_miniscope(&canonical) {
                "yes"
            } else {
                "no"
            }
        )
        .unwrap();

        for (heading, strategy) in [
            ("phase 2: improved translation (§3)", Strategy::Improved),
            (
                "baseline: classical translation [COD 72]",
                Strategy::Classical,
            ),
        ] {
            writeln!(out, "\n== {heading} ==").unwrap();
            match self.compile(db, &formula, strategy, &governor, None) {
                Ok(plan) => render_plan(&mut out, &plan, db),
                Err(e) => writeln!(out, "not translatable: {e}").unwrap(),
            }
        }
        Ok(out)
    }
}

/// Render a compiled algebraic plan with the facts EXPLAIN reports about
/// it.
#[allow(clippy::unwrap_used)]
fn render_plan(out: &mut String, plan: &CompiledPlan, db: &Database) {
    use std::fmt::Write;
    match plan {
        CompiledPlan::Boolean { plan } => {
            writeln!(out, "boolean plan: {plan}").unwrap();
            writeln!(out, "uses division: {}", plan.uses_division()).unwrap();
            writeln!(out, "uses cartesian product: {}", plan.uses_product()).unwrap();
        }
        CompiledPlan::Algebra { vars, plan } => {
            let names: Vec<&str> = vars.iter().map(|v| v.name()).collect();
            writeln!(out, "answer variables: {}", names.join(", ")).unwrap();
            writeln!(out, "plan: {plan}").unwrap();
            writeln!(out, "plan tree:\n{}", plan.render_tree()).unwrap();
            writeln!(
                out,
                "estimated cardinality: {:.0}",
                gq_algebra::estimate(plan, db)
            )
            .unwrap();
            writeln!(out, "uses division: {}", plan.uses_division()).unwrap();
            writeln!(out, "uses cartesian product: {}", plan.uses_product()).unwrap();
        }
        CompiledPlan::Loop { .. } => {}
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gq_storage::{tuple, Database, Schema};

    #[test]
    fn explain_shows_both_phases() {
        let mut db = Database::new();
        db.create_relation("student", Schema::new(vec!["n"]).unwrap())
            .unwrap();
        db.create_relation("attends", Schema::new(vec!["s", "l"]).unwrap())
            .unwrap();
        db.create_relation("lecture", Schema::new(vec!["l", "d"]).unwrap())
            .unwrap();
        db.insert("student", tuple!["ann"]).unwrap();
        let engine = QueryEngine::new(db);
        let text = "student(x) & (forall y. lecture(y,\"cs\") -> attends(x,y))";
        let explained = engine.explain(text).unwrap();
        assert!(explained.contains("phase 1"));
        assert!(explained.contains("canonical:"));
        assert!(explained.contains("R4"), "rule trace expected: {explained}");
        assert!(explained.contains("phase 2"));
        assert!(explained.contains("÷"), "division expected: {explained}");
        assert!(explained.contains("classical"));
        assert!(explained.contains("×"), "classical product expected");
    }

    #[test]
    fn explain_closed_query() {
        let mut db = Database::new();
        db.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        db.insert("p", tuple![1]).unwrap();
        let engine = QueryEngine::new(db);
        let explained = engine.explain("exists x. p(x)").unwrap();
        assert!(
            explained.contains("≠ ∅"),
            "emptiness test expected: {explained}"
        );
    }
}
