//! Push-vs-pull property suite for the one executor behind
//! `Evaluator::eval`.
//!
//! `Evaluator::eval` runs the push pipelines at every thread count;
//! `Evaluator::stream` is the lazy pull stream the short-circuiting entry
//! points use. The two share no operator code, so a full drain of the
//! stream is an independent reference for the pipelines: answers, answer
//! *order*, and [`ExecStats::without_dispatch_counters`] must agree for
//! every suite query at every algebraic strategy and thread count —
//! and among thread counts the peak intermediate watermarks too. The
//! suite also pins what the pipelines are for (only breakers
//! materialize), the §3.2 laziness claim (LIMIT / non-emptiness provably
//! stop upstream producers) and engine reusability after mid-pipeline
//! aborts.
//!
//! `GQ_TEST_THREADS` (CI sweeps 1/2/8) narrows the thread matrix to one
//! count; unset, each test sweeps all three.

use gq_algebra::{optimize, optimize_bool, AlgebraExpr, Evaluator, ExecStats, Predicate};
use gq_bench::E2E_SUITE;
use gq_calculus::parse;
use gq_core::{EngineError, ExecConfig, QueryEngine, QueryLimits, Strategy};
use gq_rewrite::canonicalize;
use gq_storage::{tuple, Database, Schema, Tuple};
use gq_translate::{ClassicalTranslator, ImprovedTranslator};
use gq_workload::{university, UniversityScale};

/// Morsel size small enough that a ~300-row instance spans several
/// morsels, so the worker pool and reorder buffer genuinely engage.
const MORSEL: usize = 64;

fn thread_counts() -> Vec<usize> {
    match std::env::var("GQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 2, 8],
    }
}

/// The algebra plans `text` compiles to under `strategy`, the way the
/// engine compiles it — cost-ordered where improved, then optimized: one
/// for an open query, one per (non-)emptiness test for a closed one.
/// `None` when the query is outside the strategy's fragment.
fn compile(db: &Database, text: &str, strategy: Strategy) -> Option<Vec<AlgebraExpr>> {
    let formula = parse(text).unwrap();
    let plans = match (strategy, formula.is_closed()) {
        (Strategy::Improved, closed) => {
            let canonical = canonicalize(&formula).unwrap();
            let tr = ImprovedTranslator::new(db).with_cost_ordering(true);
            if closed {
                let plan = optimize_bool(&tr.translate_closed(&canonical).unwrap());
                plan.algebra_exprs().into_iter().cloned().collect()
            } else {
                vec![optimize(&tr.translate_open(&canonical).unwrap().1)]
            }
        }
        (Strategy::Classical, true) => {
            let plan = ClassicalTranslator::new(db)
                .translate_closed(&formula)
                .ok()?;
            optimize_bool(&plan)
                .algebra_exprs()
                .into_iter()
                .cloned()
                .collect()
        }
        (Strategy::Classical, false) => {
            vec![optimize(
                &ClassicalTranslator::new(db)
                    .translate_open(&formula)
                    .ok()?
                    .1,
            )]
        }
        (Strategy::NestedLoop, _) => return None,
    };
    Some(plans)
}

fn evaluator(db: &Database, threads: usize) -> Evaluator<'_> {
    Evaluator::new(db).with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(MORSEL))
}

/// `Evaluator::eval` of `plan` at every thread count against a full drain
/// of `Evaluator::stream` over the same plan: same rows in the same
/// order, same counters. The one licensed difference is the peak
/// watermark — the pipelines release a build side when the probe it fed
/// unwinds, the pull stream holds every buffer to the end — so the push
/// peak may only be lower; among thread counts it may not differ at all.
fn assert_push_matches_pull_drain(label: &str, db: &Database, plan: &AlgebraExpr) {
    let pull = evaluator(db, 1);
    let rows: Vec<Tuple> = pull.stream(plan).unwrap().collect();
    let mut expected = pull.stats().without_dispatch_counters();
    expected.tuples_emitted += rows.len();

    let mut across_threads: Option<ExecStats> = None;
    for threads in thread_counts() {
        let push = evaluator(db, threads);
        let out = push.eval(plan).unwrap();
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            rows.iter().collect::<Vec<_>>(),
            "{label}: rows/order differ, push@{threads} vs pull drain"
        );
        let got = push.stats().without_dispatch_counters();
        assert!(
            got.peak_intermediate_tuples <= expected.peak_intermediate_tuples
                && got.peak_intermediate_bytes <= expected.peak_intermediate_bytes,
            "{label}: push@{threads} peaked above the pull drain: {got} vs {expected}"
        );
        let masked = ExecStats {
            peak_intermediate_tuples: expected.peak_intermediate_tuples,
            peak_intermediate_bytes: expected.peak_intermediate_bytes,
            ..got.clone()
        };
        assert_eq!(
            masked, expected,
            "{label}: stats differ, push@{threads} vs pull drain"
        );
        match &across_threads {
            None => across_threads = Some(got),
            Some(first) => assert_eq!(
                &got, first,
                "{label}: stats (peaks included) vary with the thread count at {threads}"
            ),
        }
    }
}

/// Tier-1 exactness: the push pipelines agree with the independent pull
/// reference on answers, order, and every counter the dispatch mask
/// keeps, for every suite query × algebraic strategy × thread count, on
/// the plans the engine runs.
#[test]
fn push_matches_pull_drain_bit_identically() {
    let db = university(&UniversityScale::of_size(300));
    let mut compared = 0;
    for (label, text) in E2E_SUITE {
        for strategy in [Strategy::Improved, Strategy::Classical] {
            // Some suite queries are outside the classical translator's
            // fragment; skip those.
            let Some(plans) = compile(&db, text, strategy) else {
                continue;
            };
            for plan in &plans {
                let label = format!("{label} [{}]", strategy.name());
                assert_push_matches_pull_drain(&label, &db, plan);
                compared += 1;
            }
        }
    }
    assert!(
        compared >= 2 * E2E_SUITE.len() - 4,
        "compared only {compared} plans"
    );
}

/// The improved translation of `text` as the translator emits it, before
/// the optimizer: one plan for an open query, one per (non-)emptiness
/// test for a closed one.
fn translate_improved(db: &Database, text: &str, cost_ordered: bool) -> Vec<AlgebraExpr> {
    let canonical = canonicalize(&parse(text).unwrap()).unwrap();
    let tr = ImprovedTranslator::new(db).with_cost_ordering(cost_ordered);
    if canonical.is_closed() {
        let plan = tr.translate_closed(&canonical).unwrap();
        plan.algebra_exprs().into_iter().cloned().collect()
    } else {
        vec![tr.translate_open(&canonical).unwrap().1]
    }
}

/// The equivalence is a property of the executor, not of the plans the
/// engine happens to ship: it holds on the syntactic translation, on the
/// cost-ordered one before the optimizer, and on the optimized syntactic
/// one (the shipped, cost-ordered and optimized plans are checked above).
#[test]
fn push_matches_pull_drain_under_all_options() {
    let db = university(&UniversityScale::of_size(300));
    for (label, text) in E2E_SUITE {
        let plan_sets = [
            ("syntactic", translate_improved(&db, text, false)),
            ("cost-ordered", translate_improved(&db, text, true)),
            (
                "syntactic, optimized",
                translate_improved(&db, text, false)
                    .iter()
                    .map(optimize)
                    .collect(),
            ),
        ];
        for (set, plans) in plan_sets {
            for plan in &plans {
                let label = format!("{label} [{set}]");
                assert_push_matches_pull_drain(&label, &db, plan);
            }
        }
    }
}

/// What the pipelines are for: on plans dominated by
/// select/project/complement chains nothing but breaker build sides is
/// ever live, so the peak intermediate watermark is bounded by what the
/// breakers materialized in total (`intermediate_tuples`, which counts
/// build sides only) — next to
/// `union_of_semijoins_peaks_at_largest_branch_build`, which pins the
/// release side. The node-per-`Vec` executor this replaced charged every
/// operator's output and peaked 8–23× above that bound on these two.
#[test]
fn only_breaker_builds_count_toward_the_peak() {
    let workloads = [
        (
            "neg-subquery (P4 c3)",
            "student(x) & !(exists y. attends(x,y) & lecture(y,\"d1\"))",
        ),
        (
            "disj-neg (Fig 4)",
            "student(x) & (!enrolled(x,\"d0\") | skill(x,\"db\"))",
        ),
    ];
    for (label, text) in workloads {
        let r = QueryEngine::new(university(&UniversityScale::of_size(1000)))
            .with_exec_config(ExecConfig::with_threads(2).with_morsel_size(MORSEL))
            .query(text)
            .unwrap();
        let s = &r.stats;
        assert!(s.max_intermediate > 0, "{label}: no breaker build at all");
        assert!(
            s.max_intermediate <= s.peak_intermediate_tuples
                && s.peak_intermediate_tuples <= s.intermediate_tuples,
            "{label}: peak {} outside [largest build {}, all builds {}]",
            s.peak_intermediate_tuples,
            s.max_intermediate,
            s.intermediate_tuples
        );
        assert!(s.peak_intermediate_bytes > 0, "{label}: bytes not charged");
    }
}

/// Scoped build-side release: a union of semi-join chains peaks at its
/// largest branch build, not the sum of all of them. The push coordinator
/// holds each probe buffer's watermark guard only while the probe op it
/// feeds is on the chain, and a union branch unwinding its chain segment
/// drops the guards with it — before that, the three probe buffers below
/// (50 + 80 + 30 tuples) were all held to query end and the watermark
/// read 160. Releases happen on the coordinator in structural plan
/// order, so the pinned peak is identical at every thread count.
#[test]
fn union_of_semijoins_peaks_at_largest_branch_build() {
    let mut db = Database::new();
    db.create_relation("a", Schema::new(vec!["x"]).unwrap())
        .unwrap();
    for v in 0..100i64 {
        db.insert("a", tuple![v]).unwrap();
    }
    for (name, n) in [("b1", 50i64), ("b2", 80), ("b3", 30)] {
        db.create_relation(name, Schema::new(vec!["x"]).unwrap())
            .unwrap();
        for v in 0..n {
            db.insert(name, tuple![v]).unwrap();
        }
    }
    // Every branch materializes a probe-build buffer.
    let semi = |b: &str| {
        AlgebraExpr::relation("a").semi_join(
            AlgebraExpr::relation(b).select(Predicate::True),
            vec![(0, 0)],
        )
    };
    let expr = semi("b1").union(semi("b2")).union(semi("b3"));
    for threads in thread_counts() {
        let ev = Evaluator::new(&db)
            .with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(MORSEL));
        let out = ev.eval(&expr).unwrap();
        assert_eq!(out.len(), 80, "a-values present in b1 ∪ b2 ∪ b3");
        assert_eq!(
            ev.stats().peak_intermediate_tuples,
            80,
            "threads={threads}: peak must be the largest branch build alone, \
             not the 160-tuple sum of all three"
        );
    }
}

/// `p(x)` for 0..n, `r(x, (x*7) % n)` for 0..n — producer-counter db for
/// the termination tests.
fn termination_db(n: i64) -> Database {
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    for v in 0..n {
        db.insert("p", tuple![v]).unwrap();
        db.insert("r", tuple![v, (v * 7) % n]).unwrap();
    }
    db
}

fn run_counting(db: &Database, f: impl FnOnce(&Evaluator<'_>)) -> ExecStats {
    let ev = Evaluator::new(db);
    f(&ev);
    ev.stats()
}

/// §3.2 termination: LIMIT and the non-emptiness test must stop upstream
/// producers, not drain them. The producer-side counter
/// (`base_tuples_read`) proves it — a full evaluation reads all `n` base
/// tuples, the lazy entry points read a constant handful.
#[test]
fn limit_and_nonemptiness_stop_upstream_producers() {
    const N: i64 = 1000;
    let db = termination_db(N);
    let scan = AlgebraExpr::relation("p").select(Predicate::True);

    let full = run_counting(&db, |ev| {
        ev.eval(&scan).unwrap();
    });
    assert_eq!(full.base_tuples_read, N as usize);

    let limited = run_counting(&db, |ev| {
        assert_eq!(ev.eval_limit(&scan, 1).unwrap().len(), 1);
    });
    assert!(
        limited.base_tuples_read * 10 < full.base_tuples_read,
        "LIMIT 1 still drained the producer: read {} of {} base tuples",
        limited.base_tuples_read,
        full.base_tuples_read
    );

    let nonempty = run_counting(&db, |ev| {
        assert!(ev.is_nonempty(&scan).unwrap());
    });
    assert!(
        nonempty.base_tuples_read * 10 < full.base_tuples_read,
        "non-emptiness test still drained the producer: read {} of {} base tuples",
        nonempty.base_tuples_read,
        full.base_tuples_read
    );
}

/// Same claim through a join: the build side must materialize fully (it
/// is a pipeline breaker), but the probe-side scan stops as soon as the
/// first match surfaces, so total upstream work is strictly less.
#[test]
fn limit_through_a_join_stops_the_probe_scan() {
    const N: i64 = 1000;
    let db = termination_db(N);
    let join = AlgebraExpr::relation("p").join(AlgebraExpr::relation("r"), vec![(0, 0)]);

    let full = run_counting(&db, |ev| {
        assert_eq!(ev.eval(&join).unwrap().len(), N as usize);
    });
    let limited = run_counting(&db, |ev| {
        assert_eq!(ev.eval_limit(&join, 1).unwrap().len(), 1);
    });
    // Build side: all N of r. Probe side: a handful of p, not all of it.
    assert!(
        limited.base_tuples_read < full.base_tuples_read,
        "LIMIT 1 through a join did no less upstream work: {} vs {}",
        limited.base_tuples_read,
        full.base_tuples_read
    );
    assert!(
        limited.base_tuples_read >= N as usize,
        "the build side is a breaker and must still materialize fully"
    );
}

/// A governor abort mid-pipeline (output budget trips inside the sink)
/// leaves the engine fully usable, and the trip point is identical at
/// every thread count because budgets are only enforced at coordinator
/// points.
#[test]
fn aborted_pipeline_leaves_engine_usable() {
    let mut trip_limits = Vec::new();
    for threads in thread_counts() {
        let mut e = QueryEngine::new(termination_db(3000))
            .with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(MORSEL));
        e.set_limits(QueryLimits::UNLIMITED.with_max_output_tuples(100));
        let err = e.query("p(x) & r(x,y)").unwrap_err();
        match err {
            EngineError::ResourceExhausted { phase, limit, .. } => {
                assert_eq!(phase, "evaluate");
                trip_limits.push(limit);
            }
            other => panic!("threads={threads}: expected ResourceExhausted, got {other:?}"),
        }
        // Same engine, limits lifted: the follow-up query runs clean.
        e.set_limits(QueryLimits::UNLIMITED);
        assert_eq!(e.query("p(x) & r(x,y)").unwrap().len(), 3000);
    }
    trip_limits.dedup();
    assert_eq!(
        trip_limits.len(),
        1,
        "output budget tripped at different limits across thread counts: {trip_limits:?}"
    );
}

/// Deterministic fault injection on the streaming path (`--features
/// chaos`). The registry is process-global, so these serialize on a
/// mutex; `GQ_CHAOS_SEED` lets CI sweep seeds.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use gq_chaos::ChaosConfig;
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::{Duration, Instant};

    fn seed() -> u64 {
        std::env::var("GQ_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    /// A worker panic inside a streaming pipeline surfaces as a
    /// structured error and the same engine answers the next query.
    #[test]
    fn worker_panic_mid_pipeline_contained() {
        let _l = lock();
        quiet_panics(|| {
            let e = QueryEngine::new(termination_db(4000))
                .with_exec_config(ExecConfig::with_threads(4).with_morsel_size(256));
            let _g = gq_chaos::install(ChaosConfig::with_seed(seed()).worker_panic(1.0));
            let err = e.query("p(x) & r(x,y)").unwrap_err();
            match err {
                EngineError::WorkerPanic { phase, ref message } => {
                    assert_eq!(phase, "evaluate");
                    assert!(message.contains("chaos"), "unexpected payload: {message}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            drop(_g);
            assert_eq!(e.query("p(x) & r(x,y)").unwrap().len(), 4000);
        });
    }

    /// Injected per-morsel delays + a short deadline: the streaming
    /// pipelines honor cancellation within a check interval and the
    /// engine stays usable once the fault source is removed.
    #[test]
    fn chaos_cancellation_mid_pipeline_leaves_engine_usable() {
        let _l = lock();
        for threads in [1usize, 2, 8] {
            let _g = gq_chaos::install(
                ChaosConfig::with_seed(seed()).morsel_delay(Duration::from_millis(20), 1.0),
            );
            let mut e = QueryEngine::new(termination_db(20_000))
                .with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(64));
            e.set_limits(QueryLimits::UNLIMITED.with_deadline(Duration::from_millis(50)));
            let start = Instant::now();
            let err = e.query("p(x) & r(x,y)").unwrap_err();
            assert!(
                matches!(err, EngineError::Cancelled { .. }),
                "threads={threads}: expected Cancelled, got {err:?}"
            );
            assert!(
                start.elapsed() < Duration::from_millis(2000),
                "threads={threads}: cancellation took too long under injected delays"
            );
            drop(_g);
            // Fault and deadline removed: the same engine recovers.
            e.set_limits(QueryLimits::UNLIMITED);
            assert_eq!(e.query("p(x)").unwrap().len(), 20_000);
        }
    }

    /// Same seed, same outcome: two identically-seeded chaos runs of a
    /// streaming query agree on success/failure and on the answers.
    #[test]
    fn same_seed_same_streaming_outcome() {
        let _l = lock();
        let run = || {
            let _g = gq_chaos::install(ChaosConfig::with_seed(seed()).scan_error(0.3));
            let e = QueryEngine::new(termination_db(500))
                .with_exec_config(ExecConfig::with_threads(2).with_morsel_size(64));
            e.query("p(x) & r(x,y)")
                .map(|r| r.answers.iter().cloned().collect::<Vec<_>>())
                .map_err(|e| e.to_string())
        };
        assert_eq!(run(), run(), "identically-seeded runs diverged");
    }
}
