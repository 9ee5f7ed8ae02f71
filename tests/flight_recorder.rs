//! Flight-recorder integration suite: the always-on journal, the
//! slow-query log, and the Chrome trace export, all exercised through
//! the public engine API.
//!
//! What must hold (DESIGN.md §13):
//!
//! * every query leaves a `query_start`/`query_end` pair with the same
//!   monotone query id, and nothing at all once recording is switched off;
//! * governor trips, plan-cache hits, WAL commits, and checkpoints show
//!   up as distinct event kinds attributable to the query that caused
//!   them;
//! * the exported trace is valid Chrome `trace_event` JSON (parses with
//!   the crate's own strict parser, timestamps strictly monotone per
//!   thread lane);
//! * the slow-query log retains the full per-node trace and governor
//!   watermarks for exactly the queries that breached a threshold.

use gq_bench::E2E_SUITE;
use gq_core::{EventKind, QueryEngine, QueryLimits, Request, Strategy};
use gq_obs::Json;
use gq_storage::{tuple, Database, Schema};
use gq_workload::{university, UniversityScale};
use std::time::Duration;

/// The thread counts each test sweeps: the one `GQ_TEST_THREADS` pins (CI
/// sweeps 1/2/8), otherwise both sides of the executor choice — 1 and 2
/// — so journal writes from worker threads are exercised too. Never the
/// host's core count: what this suite checks must not depend on where
/// it runs.
fn thread_counts() -> Vec<usize> {
    match std::env::var("GQ_TEST_THREADS")
        .ok()
        .and_then(|t| t.parse::<usize>().ok())
    {
        Some(threads) => vec![threads],
        None => vec![1, 2],
    }
}

/// Engine over the university workload at an explicit thread count.
fn engine(n: usize, threads: usize) -> QueryEngine {
    let mut scale = UniversityScale::of_size(n);
    scale.completionist_rate = 0.15;
    QueryEngine::new(university(&scale))
        .with_exec_config(gq_core::ExecConfig::with_threads(threads))
}

#[test]
fn every_query_leaves_matching_start_end_events() {
    for threads in thread_counts() {
        let e = engine(60, threads);
        for (_, text) in E2E_SUITE {
            e.query(text).unwrap();
        }
        let events = e.journal().events();
        let starts: Vec<_> = events
            .iter()
            .filter(|ev| ev.kind == EventKind::QueryStart)
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|ev| ev.kind == EventKind::QueryEnd)
            .collect();
        assert_eq!(starts.len(), E2E_SUITE.len());
        assert_eq!(ends.len(), E2E_SUITE.len());
        for (s, t) in starts.iter().zip(ends.iter()) {
            assert_eq!(s.query_id, t.query_id, "start/end pair share a query id");
            assert!(s.query_id > 0, "query ids start at 1");
            assert!(t.dur_ns > 0, "query_end carries the duration");
            assert!(t.detail.contains("answers"), "end detail: {}", t.detail);
        }
        let ids: Vec<u64> = starts.iter().map(|s| s.query_id).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "query ids strictly monotone: {ids:?}"
        );
        // The start event names the strategy so a trace is self-describing.
        assert!(starts[0].detail.contains(Strategy::Improved.name()));
    }
}

#[test]
fn disabling_the_journal_leaves_no_events_and_no_appends() {
    for threads in thread_counts() {
        let e = engine(30, threads);
        e.query("student(x)").unwrap();
        let appends_enabled = e.journal().appends();
        assert!(appends_enabled > 0, "journal is on by default");

        e.journal().disable();
        e.journal().clear();
        for (_, text) in E2E_SUITE.iter().take(4) {
            e.query(text).unwrap();
        }
        assert_eq!(
            e.journal().appends(),
            appends_enabled,
            "no appends while off"
        );
        assert!(e.journal().is_empty(), "no events while off");

        // Re-enabling resumes monotone query ids: the 4 queries that ran
        // while recording was off still consumed ids 2–5, so the 6th query
        // gets id 6 — an enable/disable flip can never cause id reuse.
        e.journal().enable();
        e.query("student(x)").unwrap();
        let events = e.journal().events();
        let start = events
            .iter()
            .find(|ev| ev.kind == EventKind::QueryStart)
            .expect("query start recorded after re-enable");
        assert_eq!(start.query_id, 6, "ids allocated even while off");
    }
}

/// Satellite: a budget-tripped query leaves a `governor_trip` event whose
/// phase and query id match the error, so trip storms are attributable
/// after the fact.
#[test]
fn governor_trip_and_error_events_share_the_query_id() {
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("q", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    for v in 0..2000i64 {
        db.insert("p", tuple![v]).unwrap();
        if v % 2 == 0 {
            db.insert("q", tuple![v]).unwrap();
        }
    }
    let mut e = QueryEngine::new(db);
    e.set_limits(QueryLimits::UNLIMITED.with_max_intermediate_tuples(10));
    let err = e.query("p(x) & !q(x)").unwrap_err();

    let events = e.journal().events();
    let trip = events
        .iter()
        .find(|ev| ev.kind == EventKind::GovernorTrip)
        .expect("budget trip recorded");
    let error = events
        .iter()
        .find(|ev| ev.kind == EventKind::QueryError)
        .expect("query error recorded");
    assert_eq!(
        trip.query_id, error.query_id,
        "trip attributed to the query"
    );
    assert!(trip.query_id > 0);
    assert!(
        err.to_string().contains(trip.phase),
        "event phase `{}` appears in the error: {err}",
        trip.phase
    );
    assert!(trip.detail.contains("intermediate"), "{}", trip.detail);
    // No query_end for a failed query — the error event is terminal.
    assert!(events.iter().all(|ev| ev.kind != EventKind::QueryEnd));
}

#[test]
fn plan_cache_hits_and_misses_are_distinct_kinds() {
    for threads in thread_counts() {
        let e = engine(40, threads);
        let p = e
            .prepare("member(x,z) & !skill(x,\"db\")", Strategy::Improved)
            .unwrap();
        e.run(&Request::prepared(&p)).unwrap();
        e.run(&Request::prepared(&p)).unwrap();
        let events = e.journal().events();
        let kinds: Vec<EventKind> = events.iter().map(|ev| ev.kind).collect();
        assert!(
            kinds.contains(&EventKind::PlanCacheMiss),
            "compile recorded"
        );
        let hits: Vec<_> = events
            .iter()
            .filter(|ev| ev.kind == EventKind::PlanCacheHit)
            .collect();
        assert_eq!(hits.len(), 2, "one hit per execution: {kinds:?}");
        for h in &hits {
            assert!(h.query_id > 0, "hits attributed to executing queries");
            assert!(!h.detail.is_empty(), "detail carries the canonical key");
        }
        assert_ne!(hits[0].query_id, hits[1].query_id);
    }
}

#[test]
fn durable_lifecycle_emits_wal_checkpoint_and_recovery_events() {
    let dir = std::env::temp_dir().join("gq_flight_recorder_wal");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (e, _) = QueryEngine::open_durable(&dir).unwrap();
        let recovery: Vec<_> = e
            .journal()
            .events()
            .into_iter()
            .filter(|ev| ev.kind == EventKind::Recovery)
            .collect();
        assert_eq!(recovery.len(), 1, "open records the recovery outcome");
        e.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        e.insert("p", tuple![1i64]).unwrap();
        e.insert("p", tuple![2i64]).unwrap();
        e.checkpoint().unwrap();
        e.insert("p", tuple![3i64]).unwrap();

        let kinds: Vec<EventKind> = e.journal().events().iter().map(|ev| ev.kind).collect();
        for expected in [
            EventKind::WalAppend,
            EventKind::WalFsync,
            EventKind::WalCommit,
            EventKind::CheckpointBegin,
            EventKind::CheckpointEnd,
        ] {
            assert!(
                kinds.contains(&expected),
                "missing {expected:?} in {kinds:?}"
            );
        }
        let begin = kinds.iter().position(|k| *k == EventKind::CheckpointBegin);
        let end = kinds.iter().position(|k| *k == EventKind::CheckpointEnd);
        assert!(begin < end, "checkpoint events ordered begin < end");
    }
    // Reopen: the fresh engine's journal records the WAL replay.
    let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
    assert!(rec.wal_records_replayed > 0);
    let recovery = e
        .journal()
        .events()
        .into_iter()
        .find(|ev| ev.kind == EventKind::Recovery)
        .expect("reopen records recovery");
    assert!(
        recovery.detail.contains("replayed"),
        "recovery detail: {}",
        recovery.detail
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the Chrome trace export is real `trace_event` JSON — it
/// round-trips through the crate's strict parser, every event carries the
/// required fields, B/E spans pair up, and timestamps are strictly
/// monotone within each thread lane (Perfetto rejects ties).
#[test]
fn chrome_trace_round_trips_with_monotone_timestamps() {
    for threads in thread_counts() {
        let e = engine(40, threads);
        for (_, text) in E2E_SUITE.iter().take(3) {
            e.query(text).unwrap();
        }
        let text = e.journal().to_chrome_trace().pretty();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ns")
        );
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(events.len() >= 6, "3 queries leave at least 3 B/E pairs");

        let mut begins = 0i64;
        let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
            let name = ev.get("name").and_then(Json::as_str).expect("name");
            let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
            let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
            assert!(ev.get("pid").and_then(Json::as_u64).is_some(), "pid");
            match ph {
                "B" => {
                    begins += 1;
                    assert!(
                        name.starts_with("query ") || name.starts_with("pipeline"),
                        "span name: {name}"
                    );
                }
                "E" => begins -= 1,
                "i" => assert_eq!(ev.get("s").and_then(Json::as_str), Some("t")),
                other => panic!("unexpected phase {other:?}"),
            }
            assert!(begins >= 0, "E before B");
            if let Some(prev) = last_ts.insert(tid, ts) {
                assert!(ts > prev, "ts strictly monotone per tid: {prev} -> {ts}");
            }
        }
        assert_eq!(begins, 0, "every B has an E");
    }
}

#[test]
fn slow_log_retains_trace_and_watermarks_for_breaching_queries_only() {
    for threads in thread_counts() {
        let e = engine(60, threads);
        // Unarmed: nothing is retained, however slow the query.
        e.query(E2E_SUITE[0].1).unwrap();
        assert!(e.slow_log().is_empty());

        // Latency threshold 0 → everything breaches.
        e.slow_log().set_latency_threshold(Some(Duration::ZERO));
        let r = e.query(E2E_SUITE[1].1).unwrap();
        let entries = e.slow_log().entries();
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        assert_eq!(entry.reason, "latency");
        assert_eq!(entry.answers as usize, r.len());
        assert!(entry.trace.total_ns > 0, "full QueryTrace retained");
        assert!(!entry.trace.spans.is_empty(), "per-phase spans retained");
        assert!(
            entry.trace.query.contains("attends"),
            "{}",
            entry.trace.query
        );

        // The retained query id matches the journal's end event for it.
        let end = e
            .journal()
            .events()
            .into_iter()
            .rev()
            .find(|ev| ev.kind == EventKind::QueryEnd)
            .unwrap();
        assert_eq!(entry.query_id, end.query_id);
        assert!(e.slow_log().get(entry.query_id).is_some());

        // Disarm, then arm the tuple threshold instead.
        e.slow_log().set_latency_threshold(None);
        e.slow_log().clear();
        e.slow_log().set_tuple_threshold(Some(1));
        e.query(E2E_SUITE[1].1).unwrap();
        let entries = e.slow_log().entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].reason, "tuples");
        assert!(
            entries[0].peak_intermediate_tuples > 1,
            "watermark retained"
        );
        assert_eq!(e.slow_log().recorded(), 2, "counters survive clear");
    }
}

#[test]
fn window_stats_join_the_metrics_snapshot() {
    for threads in thread_counts() {
        let e = engine(40, threads);
        let p = e.prepare("student(x)", Strategy::Improved).unwrap();
        for (_, text) in E2E_SUITE.iter().take(5) {
            e.query(text).unwrap();
        }
        e.run(&Request::prepared(&p)).unwrap();
        let snap = e.metrics_snapshot();
        let w = snap
            .window
            .clone()
            .expect("window attached once queries ran");
        assert_eq!(w.queries, 6);
        assert_eq!(w.errors, 0);
        assert!(w.p50_ns > 0 && w.p50_ns <= w.p99_ns);
        assert!(w.plan_cache_hits >= 1, "prepared execution counted");
        assert_eq!(w.governor_trips, 0);
        // The snapshot's JSON rendering carries the window through.
        let json = snap.to_json().to_string();
        assert!(json.contains("\"window\""), "{json}");
    }
}

/// Satellite: with a fixed chaos seed the injected failure — and the
/// journal's record of it — is bit-for-bit stable across runs, so a
/// flight-recorder transcript from CI reproduces locally.
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

    /// The chaos registry is process-global: serialize chaos tests.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// One seeded run: every query of a fixed script against a fresh
    /// engine, returning the journal's (kind, query_id, phase) sequence.
    fn seeded_run(threads: usize) -> Vec<(String, u64, &'static str)> {
        let _g = gq_chaos::install(ChaosConfig::with_seed(seed()).scan_error(0.5));
        let e = engine(30, threads);
        for (_, text) in E2E_SUITE.iter().take(6) {
            let _ = e.query(text); // chaos may fail any of these
        }
        e.journal()
            .events()
            .into_iter()
            .map(|ev| (ev.kind.name().to_string(), ev.query_id, ev.phase))
            .collect()
    }

    #[test]
    fn chaos_failures_are_journaled_and_seed_stable() {
        let _l = lock();
        for threads in thread_counts() {
            let first = seeded_run(threads);
            let second = seeded_run(threads);
            assert_eq!(first, second, "same seed, same event transcript");
            // At 50% scan-error probability over 6 queries some must fail,
            // and each failure leaves a chaos event before its query_error.
            let chaos_evs: Vec<_> = first.iter().filter(|(k, _, _)| k == "chaos").collect();
            let errors: Vec<_> = first
                .iter()
                .filter(|(k, _, _)| k == "query_error")
                .collect();
            assert!(
                !chaos_evs.is_empty(),
                "no chaos injected at seed {}",
                seed()
            );
            assert_eq!(chaos_evs.len(), errors.len(), "chaos pairs with an error");
            for ((_, chaos_qid, _), (_, err_qid, _)) in chaos_evs.iter().zip(errors.iter()) {
                assert_eq!(chaos_qid, err_qid, "chaos attributed to the failed query");
            }
        }
    }
}
