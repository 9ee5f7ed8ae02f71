//! Robustness suite: resource governor, cooperative cancellation, and
//! (behind `--features chaos`) deterministic fault injection.
//!
//! The governed error paths must be deterministic across thread counts:
//! output budgets trip at the same tuple at 1, 2, and 8 threads because
//! they are only enforced at coordinator points. Chaos tests serialize on
//! a process-wide mutex because the gq-chaos registry is global, and read
//! `GQ_CHAOS_SEED` so CI can sweep seeds.

use gq_algebra::{AlgebraError, AlgebraExpr, Evaluator, Predicate};
use gq_calculus::CompareOp;
use gq_core::{EngineError, ExecConfig, QueryEngine, QueryLimits, Resource, Strategy};
use gq_governor::{CancelToken, Governor, GovernorError};
use gq_storage::{tuple, Database, Schema};
use std::time::Duration;

/// `p(x)` for 0..n, `q(x)` for even x, `r(x, (x*7) % n)` for 0..n.
fn db(n: i64) -> Database {
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("q", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    for v in 0..n {
        db.insert("p", tuple![v]).unwrap();
        if v % 2 == 0 {
            db.insert("q", tuple![v]).unwrap();
        }
        db.insert("r", tuple![v, (v * 7) % n]).unwrap();
    }
    db
}

fn engine(n: i64) -> QueryEngine {
    QueryEngine::new(db(n))
}

#[test]
fn unlimited_by_default() {
    let e = engine(100);
    assert!(e.limits().is_unlimited());
    assert_eq!(e.query("p(x)").unwrap().len(), 100);
}

#[test]
fn expired_deadline_cancels() {
    let mut e = engine(500);
    e.set_limits(QueryLimits::UNLIMITED.with_deadline(Duration::ZERO));
    std::thread::sleep(Duration::from_millis(2));
    let err = e.query("p(x) & r(x,y)").unwrap_err();
    assert!(
        matches!(err, EngineError::Cancelled { .. }),
        "expected Cancelled, got {err:?}"
    );
    // Clearing the limits makes the same engine answer again.
    e.set_limits(QueryLimits::UNLIMITED);
    assert_eq!(e.query("p(x)").unwrap().len(), 500);
}

#[test]
fn expired_deadline_cancels_every_strategy() {
    let mut e = engine(200);
    e.set_limits(QueryLimits::UNLIMITED.with_deadline(Duration::ZERO));
    std::thread::sleep(Duration::from_millis(2));
    for s in Strategy::ALL {
        let err = e.query_with("p(x) & !q(x)", s).unwrap_err();
        assert!(
            matches!(err, EngineError::Cancelled { .. }),
            "{}: expected Cancelled, got {err:?}",
            s.name()
        );
    }
}

#[test]
fn cancel_token_preempts_and_resets() {
    let mut e = engine(100);
    let token = e.cancel_token();
    token.cancel();
    let err = e.query("p(x)").unwrap_err();
    assert!(matches!(err, EngineError::Cancelled { .. }));
    // The flag is sticky until reset — then the engine works again.
    let err2 = e.query("q(x)").unwrap_err();
    assert!(matches!(err2, EngineError::Cancelled { .. }));
    token.reset();
    assert_eq!(e.query("p(x)").unwrap().len(), 100);
    let _ = &mut e;
}

#[test]
fn output_limit_trips_identically_across_threads() {
    let mut trips = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut e = engine(3000);
        e.set_exec_config(ExecConfig::with_threads(threads).with_morsel_size(256));
        e.set_limits(QueryLimits::UNLIMITED.with_max_output_tuples(100));
        match e.query("p(x)").unwrap_err() {
            EngineError::ResourceExhausted {
                phase,
                resource,
                limit,
                used,
            } => {
                assert_eq!(resource, Resource::OutputTuples);
                assert_eq!(phase, "evaluate");
                trips.push((limit, used));
            }
            other => panic!("threads={threads}: expected ResourceExhausted, got {other:?}"),
        }
    }
    assert_eq!(
        trips,
        vec![(100, 101); 3],
        "trip point must not depend on threads"
    );
}

#[test]
fn output_limit_exact_boundary() {
    // A limit equal to the result size must NOT trip — even when it lands
    // exactly on a morsel boundary (1024 = 4 × 256).
    for threads in [1usize, 2, 8] {
        let mut e = engine(1024);
        e.set_exec_config(ExecConfig::with_threads(threads).with_morsel_size(256));
        e.set_limits(QueryLimits::UNLIMITED.with_max_output_tuples(1024));
        assert_eq!(e.query("p(x)").unwrap().len(), 1024, "threads={threads}");
        e.set_limits(QueryLimits::UNLIMITED.with_max_output_tuples(1023));
        assert!(e.query("p(x)").is_err(), "threads={threads}");
    }
}

#[test]
fn intermediate_and_memory_budgets() {
    // `!q(x)` forces a complement join whose build side materializes.
    let mut e = engine(2000);
    e.set_limits(QueryLimits::UNLIMITED.with_max_intermediate_tuples(10));
    match e.query("p(x) & !q(x)").unwrap_err() {
        EngineError::ResourceExhausted { resource, .. } => {
            assert_eq!(resource, Resource::IntermediateTuples)
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    e.set_limits(QueryLimits::UNLIMITED.with_max_memory_bytes(100));
    match e.query("p(x) & !q(x)").unwrap_err() {
        EngineError::ResourceExhausted { resource, .. } => {
            assert_eq!(resource, Resource::MemoryBytes)
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // Generous budgets pass.
    e.set_limits(
        QueryLimits::UNLIMITED
            .with_max_intermediate_tuples(1 << 20)
            .with_max_memory_bytes(1 << 30),
    );
    assert_eq!(e.query("p(x) & !q(x)").unwrap().len(), 1000);
}

/// The intermediate-tuple budget holds observed or not: arming the slow
/// log attaches the engine's own profiler, and the query still runs the
/// push pipelines a plain one does (the body predates that — it was
/// written against a second executor — and passes unmodified). A build
/// side over the budget must trip with the same `used` at every thread
/// count, armed or plain, and a query that fits must leave the same tuple
/// watermark in the slow log.
#[test]
fn intermediate_budget_trips_identically_on_every_executor() {
    // Exact trip points: keep injected faults out while this runs.
    #[cfg(feature = "chaos")]
    let _l = chaos::lock();
    let queries = [
        ("hash-join build", "p(x) & r(x,y)"),
        ("complement-join build", "p(x) & !q(x)"),
        ("outer-join build", "p(x) & (q(x) | (exists y. r(y,x)))"),
    ];
    for (label, text) in queries {
        let mut trips = Vec::new();
        let mut watermarks = Vec::new();
        for threads in [1usize, 2, 8] {
            for armed in [false, true] {
                let mut e = engine(600);
                e.set_exec_config(ExecConfig::with_threads(threads).with_morsel_size(64));
                if armed {
                    e.slow_log().set_tuple_threshold(Some(1));
                }
                e.set_limits(QueryLimits::UNLIMITED.with_max_intermediate_tuples(10));
                match e.query(text).unwrap_err() {
                    EngineError::ResourceExhausted {
                        phase,
                        resource,
                        limit,
                        used,
                    } => {
                        assert_eq!(resource, Resource::IntermediateTuples, "{label}");
                        assert_eq!(phase, "evaluate", "{label}");
                        trips.push((limit, used));
                    }
                    other => panic!(
                        "{label}, threads={threads}, armed={armed}: \
                         expected ResourceExhausted, got {other:?}"
                    ),
                }
                if armed {
                    e.set_limits(QueryLimits::UNLIMITED);
                    e.slow_log().clear();
                    e.query(text).unwrap();
                    let entries = e.slow_log().entries();
                    assert_eq!(entries.len(), 1, "{label}: threads={threads} breached");
                    watermarks.push(entries[0].peak_intermediate_tuples);
                }
            }
        }
        assert_eq!(trips, vec![(10, 11); 6], "{label}: trip point moved");
        assert!(watermarks[0] > 10, "{label}: build side not charged");
        assert_eq!(
            watermarks,
            vec![watermarks[0]; 3],
            "{label}: slow-log watermark depends on threads"
        );
    }
}

#[test]
fn rewrite_step_budget() {
    let mut e = engine(10);
    e.set_limits(QueryLimits::UNLIMITED.with_max_rewrite_steps(0));
    // Double negation needs at least one rule application.
    match e.query("p(x) & !(!(q(x)))").unwrap_err() {
        EngineError::ResourceExhausted {
            phase, resource, ..
        } => {
            assert_eq!(phase, "normalize");
            assert_eq!(resource, Resource::RewriteSteps);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // A generous budget runs the same query to completion.
    e.set_limits(QueryLimits::UNLIMITED.with_max_rewrite_steps(1000));
    assert_eq!(e.query("p(x) & !(!(q(x)))").unwrap().len(), 5);
}

#[test]
fn formula_depth_limit() {
    let mut e = engine(10);
    e.set_limits(QueryLimits::UNLIMITED.with_max_formula_depth(2));
    match e
        .query("p(x) & (exists y. r(x,y) & (exists z. r(y,z) & q(z)))")
        .unwrap_err()
    {
        EngineError::ResourceExhausted {
            phase, resource, ..
        } => {
            assert_eq!(phase, "parse");
            assert_eq!(resource, Resource::FormulaDepth);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // A depth-1 atom still fits.
    assert_eq!(e.query("p(x)").unwrap().len(), 10);
}

#[test]
fn plan_depth_limit() {
    let mut e = engine(10);
    e.set_limits(QueryLimits::UNLIMITED.with_max_plan_depth(1));
    match e.query("p(x) & r(x,y)").unwrap_err() {
        EngineError::ResourceExhausted {
            phase, resource, ..
        } => {
            assert_eq!(phase, "translate");
            assert_eq!(resource, Resource::PlanDepth);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // A generous depth budget admits the same plan.
    e.set_limits(QueryLimits::UNLIMITED.with_max_plan_depth(64));
    assert_eq!(e.query("p(x) & r(x,y)").unwrap().len(), 10);
}

#[test]
fn closed_queries_are_governed_too() {
    let mut e = engine(100);
    e.set_limits(QueryLimits::UNLIMITED.with_deadline(Duration::ZERO));
    std::thread::sleep(Duration::from_millis(2));
    let err = e.query("forall x. p(x) -> (exists y. r(x,y))").unwrap_err();
    assert!(matches!(err, EngineError::Cancelled { .. }));
}

/// A closed query honours its deadline mid-scan: a non-emptiness test
/// claims its morsels through the same dispatch as every pipeline, and
/// each claim polls the deadline. A test that finds no witness among
/// 400 000 rows stops with `Cancelled` once its 2 ms are up, having read
/// fewer tuples than the relation holds, at every thread count.
#[test]
fn nonemptiness_test_honours_its_deadline_mid_scan() {
    const ROWS: usize = 400_000;
    let mut db = Database::new();
    db.create_relation("big", Schema::anonymous(1)).unwrap();
    for v in 0..ROWS as i64 {
        db.insert("big", tuple![v]).unwrap();
    }
    // No row passes, and each costs eight comparisons, so the full scan
    // takes far longer than the deadline.
    let never = Predicate::or_all(
        (1..=8)
            .map(|k| Predicate::col_const(0, CompareOp::Lt, -k))
            .collect(),
    );
    let plan = AlgebraExpr::relation("big").select(never);
    for threads in [1usize, 2, 8] {
        let limits = QueryLimits::UNLIMITED.with_deadline(Duration::from_millis(2));
        let ev = Evaluator::new(&db)
            .with_exec_config(ExecConfig::with_threads(threads))
            .with_governor(Governor::start(limits, CancelToken::new()));
        let outcome = ev.is_nonempty(&plan);
        assert!(
            matches!(
                outcome,
                Err(AlgebraError::Governor(GovernorError::Cancelled { .. }))
            ),
            "threads={threads}: expected Cancelled, got {outcome:?}"
        );
        let read = ev.stats().base_tuples_read;
        assert!(
            read < ROWS,
            "threads={threads}: read {read} of {ROWS} tuples past the deadline"
        );
    }
}

#[test]
fn governance_errors_update_metrics() {
    let mut e = engine(100);
    e.metrics().enable();
    e.set_limits(QueryLimits::UNLIMITED.with_max_output_tuples(1));
    let _ = e.query("p(x)");
    let snapshot = e.metrics().snapshot();
    assert_eq!(
        snapshot.counters.get("governor.exhausted").copied(),
        Some(1)
    );
}

#[test]
fn engine_reusable_after_every_error_kind() {
    let mut e = engine(300);
    // Output budget error …
    e.set_limits(QueryLimits::UNLIMITED.with_max_output_tuples(5));
    assert!(e.query("p(x)").is_err());
    // … rewrite budget error …
    e.set_limits(QueryLimits::UNLIMITED.with_max_rewrite_steps(0));
    assert!(e.query("p(x) & !(!(q(x)))").is_err());
    // … cancellation …
    e.set_limits(QueryLimits::UNLIMITED);
    e.cancel_token().cancel();
    assert!(e.query("p(x)").is_err());
    e.cancel_token().reset();
    // … and the same engine still answers correctly.
    assert_eq!(e.query("p(x)").unwrap().len(), 300);
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use gq_chaos::ChaosConfig;
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    /// Seed for this run — CI sweeps `GQ_CHAOS_SEED` over several values.
    fn seed() -> u64 {
        std::env::var("GQ_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// The chaos registry is process-global: serialize every chaos test.
    pub(super) fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` with the default panic hook silenced, so intentionally
    /// injected worker panics don't spew backtraces into test output.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn scan_error_surfaces_as_structured_err() {
        let _l = lock();
        let _g = gq_chaos::install(ChaosConfig::with_seed(seed()).scan_error(1.0));
        let e = engine(100);
        let err = e.query("p(x)").unwrap_err();
        assert!(
            err.to_string().contains("chaos"),
            "expected injected scan error, got {err:?}"
        );
        drop(_g);
        // Fault source removed → same engine recovers.
        assert_eq!(e.query("p(x)").unwrap().len(), 100);
    }

    #[test]
    fn worker_panic_contained_and_engine_reusable() {
        let _l = lock();
        quiet_panics(|| {
            let mut e = engine(4000);
            e.set_exec_config(ExecConfig::with_threads(4).with_morsel_size(256));
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
            // Containment: the same engine answers the follow-up query.
            assert_eq!(e.query("p(x) & r(x,y)").unwrap().len(), 4000);
        });
    }

    #[test]
    fn deadline_honored_under_injected_delays() {
        let _l = lock();
        // Every morsel sleeps 20ms; the deadline is 50ms. The query must
        // come back Cancelled within roughly one check interval (one
        // morsel's work + one injected delay), not after draining all
        // morsels (which would take seconds).
        for threads in [1usize, 2, 8] {
            let _g = gq_chaos::install(
                ChaosConfig::with_seed(seed()).morsel_delay(Duration::from_millis(20), 1.0),
            );
            let mut e = engine(20_000);
            e.set_exec_config(ExecConfig::with_threads(threads).with_morsel_size(64));
            e.set_limits(QueryLimits::UNLIMITED.with_deadline(Duration::from_millis(50)));
            let start = Instant::now();
            let err = e.query("p(x) & r(x,y)").unwrap_err();
            let elapsed = start.elapsed();
            assert!(
                matches!(err, EngineError::Cancelled { .. }),
                "threads={threads}: expected Cancelled, got {err:?}"
            );
            assert!(
                elapsed < Duration::from_millis(1000),
                "threads={threads}: query outlived its 50ms deadline by too much: {elapsed:?}"
            );
        }
    }

    #[test]
    fn same_seed_same_outcome_sequence() {
        let _l = lock();
        let outcomes = |seed: u64| -> Vec<bool> {
            let _g = gq_chaos::install(ChaosConfig::with_seed(seed).scan_error(0.5));
            let e = engine(50);
            (0..24).map(|_| e.query("p(x) & q(x)").is_ok()).collect()
        };
        let a = outcomes(seed());
        let b = outcomes(seed());
        assert_eq!(a, b, "same seed must reproduce the same ok/err sequence");
        assert!(
            a.iter().any(|&x| x) || a.iter().any(|&x| !x),
            "sequence should exist"
        );
    }

    #[test]
    fn answers_identical_across_threads_under_delays() {
        let _l = lock();
        // Morsel delays are keyed by morsel index, so they perturb timing
        // without perturbing results: 1, 2, and 8 threads must agree.
        let run = |threads: usize| -> Vec<String> {
            let _g = gq_chaos::install(
                ChaosConfig::with_seed(seed()).morsel_delay(Duration::from_millis(1), 0.3),
            );
            let mut e = engine(2000);
            e.set_exec_config(ExecConfig::with_threads(threads).with_morsel_size(128));
            e.query("p(x) & r(x,y) & !q(y)")
                .unwrap()
                .answers
                .sorted_tuples()
                .iter()
                .map(|t| t.to_string())
                .collect()
        };
        let base = run(1);
        assert!(!base.is_empty());
        assert_eq!(base, run(2));
        assert_eq!(base, run(8));
    }

    #[test]
    fn repl_style_loop_survives_sustained_faults() {
        let _l = lock();
        // Simulate a REPL session: every query result is handled, no
        // fault takes the engine down, and it works once chaos stops.
        quiet_panics(|| {
            let _g = gq_chaos::install(
                ChaosConfig::with_seed(seed())
                    .scan_error(0.3)
                    .worker_panic(0.1),
            );
            let mut e = engine(1500);
            e.set_exec_config(ExecConfig::with_threads(4).with_morsel_size(128));
            let mut oks = 0usize;
            let mut errs = 0usize;
            for q in [
                "p(x)",
                "p(x) & q(x)",
                "p(x) & r(x,y)",
                "p(x) & !q(x)",
                "exists x. p(x) & q(x)",
                "p(x) & r(x,y) & !q(y)",
            ]
            .iter()
            .cycle()
            .take(30)
            {
                match e.query(q) {
                    Ok(_) => oks += 1,
                    Err(_) => errs += 1,
                }
            }
            assert_eq!(oks + errs, 30, "every query must return, never abort");
            drop(_g);
            assert_eq!(e.query("p(x)").unwrap().len(), 1500);
        });
    }
}
