//! Correctness of the prepared-query plan cache.
//!
//! The cache must be *invisible* to every observable result: a prepared
//! query served from the cache returns exactly the answers a fresh
//! compilation returns — across query shapes, catalog-mutation
//! interleavings, all three strategies, and 1/2/8 worker threads — and a
//! failed evaluation must never poison the cached plan. Catalog epochs and
//! view generations are the invalidation mechanism, so the property test
//! deliberately interleaves mutations with executions.

use gq_core::{ExecConfig, QueryEngine, Request, Strategy};
use gq_storage::{tuple, Database, Schema};
use rand::{rngs::StdRng, Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Small morsels so multi-threaded runs genuinely engage the worker pool.
const MORSEL: usize = 16;

/// Query shapes covering negation, division, disjunction and closed
/// quantification — the plans most sensitive to stale compilation.
const QUERIES: &[&str] = &[
    "p(x) & !q(x)",
    "p(x) & (forall y. q(y) -> r(x,y))",
    "p(x) & (q(x) | (exists y. r(x,y) & q(y)))",
    "exists x. p(x) & !(exists y. r(x,y) & !q(y))",
];

fn base_db() -> Database {
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("q", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    for v in 0..12 {
        db.insert("p", tuple![v]).unwrap();
        if v % 2 == 0 {
            db.insert("q", tuple![v]).unwrap();
        }
        db.insert("r", tuple![v, (v * 5) % 12]).unwrap();
    }
    db
}

fn engine(threads: usize) -> QueryEngine {
    QueryEngine::new(base_db())
        .with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(MORSEL))
}

/// Apply one seeded random mutation through the engine; every path
/// bumps the catalog epoch.
fn mutate(e: &QueryEngine, rng: &mut StdRng) {
    let v = rng.gen_range(0i64..40);
    match rng.gen_range(0u32..3) {
        0 => e.insert("p", tuple![v]),
        1 => e.insert("q", tuple![v]),
        _ => e.insert("r", tuple![v, (v * 7) % 40]),
    }
    .unwrap();
}

/// The central property: prepare once, then under an arbitrary
/// interleaving of catalog mutations and executions, every prepared
/// execution equals a fresh ad-hoc compilation of the same text on the
/// same engine — for every strategy and thread count.
#[test]
fn prepared_equals_fresh_across_mutations_strategies_and_threads() {
    for threads in THREAD_COUNTS {
        for strategy in Strategy::ALL {
            let e = engine(threads);
            let prepared: Vec<_> = QUERIES
                .iter()
                .map(|text| e.prepare(text, strategy).unwrap())
                .collect();
            let mut rng = StdRng::seed_from_u64(0xCA05E + threads as u64);
            for _step in 0..8 {
                mutate(&e, &mut rng);
                for (text, p) in QUERIES.iter().zip(&prepared) {
                    let fresh = e.query_with(text, strategy).unwrap();
                    // Twice: the first recompiles (epoch moved), the
                    // second is a genuine cache hit — both must agree
                    // with the fresh compilation.
                    for round in ["recompile", "hit"] {
                        let cached = e.run(&Request::prepared(p)).unwrap().result;
                        assert_eq!(fresh.vars, cached.vars, "`{text}` at {threads} threads");
                        assert_eq!(
                            fresh.answers.sorted_tuples(),
                            cached.answers.sorted_tuples(),
                            "`{text}` ({round}) under {} at {threads} threads diverged",
                            strategy.name()
                        );
                    }
                }
            }
            let s = e.plan_cache_stats();
            assert!(s.hits > 0, "mutation interleaving starved the cache: {s:?}");
            assert!(
                s.misses >= QUERIES.len() as u64,
                "each mutation must invalidate: {s:?}"
            );
        }
    }
}

/// Executing a prepared query returns the same answers and identical
/// merged stats (minus dispatch counters) at 1, 2 and 8 threads — a plan
/// served from the cache is thread-count invariant.
#[test]
fn prepared_stats_are_thread_count_invariant() {
    let text = "p(x) & (forall y. q(y) -> r(x,y))";
    let base_engine = engine(1);
    let base_prepared = base_engine.prepare(text, Strategy::Improved).unwrap();
    let baseline = base_engine
        .run(&Request::prepared(&base_prepared))
        .unwrap()
        .result;
    for threads in THREAD_COUNTS {
        let e = engine(threads);
        let p = e.prepare(text, Strategy::Improved).unwrap();
        let r = e.run(&Request::prepared(&p)).unwrap().result;
        assert_eq!(
            baseline.answers.sorted_tuples(),
            r.answers.sorted_tuples(),
            "answers diverged at {threads} threads"
        );
        assert_eq!(
            baseline.stats.without_dispatch_counters(),
            r.stats.without_dispatch_counters(),
            "stats diverged at {threads} threads"
        );
    }
}

/// Regression: a catalog mutation between two executions of the same
/// prepared query must recompile (epoch key mismatch), never serve the
/// stale plan — the integration-level twin of the engine unit test.
#[test]
fn epoch_invalidation_is_observable_through_results() {
    let e = engine(1);
    let p = e.prepare("p(x) & q(x)", Strategy::Improved).unwrap();
    let before = e.run(&Request::prepared(&p)).unwrap().result.len();
    e.insert("q", tuple![1]).unwrap(); // 1 was odd → not in q
    let after = e.run(&Request::prepared(&p)).unwrap().result.len();
    assert_eq!(after, before + 1, "stale cached plan served");
    let s = e.plan_cache_stats();
    assert_eq!((s.misses, s.hits), (2, 1), "stats: {s:?}");
}

/// A failed *evaluation* must not poison the cache: the compiled plan is
/// inserted before evaluation starts, so a resource-exhausted run leaves a
/// valid plan behind and the next execution (with sane limits) succeeds
/// with correct answers.
#[test]
fn failed_evaluation_does_not_poison_the_cache() {
    let mut e = engine(1);
    let p = e.prepare("p(x)", Strategy::Improved).unwrap();
    let expected = e.run(&Request::prepared(&p)).unwrap().result.len();
    let mut strangled = e.limits();
    strangled.max_output_tuples = Some(1);
    e.set_limits(strangled);
    assert!(
        e.run(&Request::prepared(&p)).is_err(),
        "limit of 1 tuple must trip"
    );
    let mut relaxed = e.limits();
    relaxed.max_output_tuples = None;
    e.set_limits(relaxed);
    let r = e.run(&Request::prepared(&p)).unwrap().result;
    assert_eq!(r.len(), expected, "cache poisoned by failed evaluation");
    // The strangled run still *hit* the cache — the plan was valid, only
    // its evaluation failed.
    let s = e.plan_cache_stats();
    assert_eq!((s.misses, s.hits), (1, 3), "stats: {s:?}");
}

/// Injected storage faults mid-evaluation must behave like any other
/// evaluation error: surfaced, not cached, not poisoning. Gated on the
/// chaos feature; CI sweeps `GQ_CHAOS_SEED`.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use gq_chaos::ChaosConfig;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn seed() -> u64 {
        std::env::var("GQ_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// The chaos registry is process-global: serialize every chaos test.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn scan_faults_never_poison_cached_plans() {
        let _l = lock();
        let e = engine(1);
        let p = e.prepare("p(x) & !q(x)", Strategy::Improved).unwrap();
        let expected = e
            .run(&Request::prepared(&p))
            .unwrap()
            .result
            .answers
            .sorted_tuples();
        {
            let _g = gq_chaos::install(ChaosConfig::with_seed(seed()).scan_error(0.5));
            // Under a 50% per-scan fault rate each execution either fails
            // cleanly or returns exactly the right answers — never a
            // partial result, and never a corrupted cache entry.
            for _ in 0..16 {
                match e.run(&Request::prepared(&p)) {
                    Ok(r) => assert_eq!(r.result.answers.sorted_tuples(), expected),
                    Err(err) => assert!(
                        err.to_string().contains("chaos"),
                        "unexpected error class: {err:?}"
                    ),
                }
            }
        }
        // Fault source removed → the same prepared query works from cache.
        let r = e.run(&Request::prepared(&p)).unwrap().result;
        assert_eq!(r.answers.sorted_tuples(), expected);
        let s = e.plan_cache_stats();
        assert_eq!(s.misses, 1, "chaos must not force recompiles: {s:?}");
    }
}
