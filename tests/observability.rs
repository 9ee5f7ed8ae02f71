//! Cross-strategy observability integration tests.
//!
//! Properties of EXPLAIN ANALYZE, checked through the public engine API
//! on the paper's university workload, at 1, 2 and 8 threads (or
//! `GQ_TEST_THREADS`) with a morsel small enough that helpers really run
//! — the profile is taken on the push pipelines every query runs on:
//!
//! * **conservation** — the per-node (exclusive) rows/comparisons/probes/
//!   reads of the annotated plan tree sum exactly to the query-level
//!   [`ExecStats`], for every strategy, and are identical across thread
//!   counts;
//! * **no observer effect** — `analyze`, a `query` with the slow log
//!   armed, and a plain `query` return the same answers and the same
//!   `ExecStats`, peak watermarks included, and a memory budget the plain
//!   run fits in also fits the observed ones;
//! * **shape** — on a Fig. 2-style query with universal quantification,
//!   the improved strategy's per-operator profile contains neither a
//!   division nor a cartesian product, while the classical strategy's
//!   contains both (claims C2/C3, now visible in the observability
//!   output rather than only in plan inspection);
//! * **one lifecycle** — every kind of [`Request`] leaves the same
//!   journal, metrics and slow-log record, and trips a budget at the
//!   same point.

use gq_bench::E2E_SUITE;
use gq_core::{
    explain_analyze, EngineError, ExecConfig, QueryEngine, QueryLimits, QueryResult, QueryTrace,
    Request, Strategy,
};
use gq_obs::{EventKind, PlanNodeTrace};
use gq_workload::{university, UniversityScale};

fn thread_counts() -> Vec<usize> {
    match std::env::var("GQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 2, 8],
    }
}

/// `n` students; at morsel 64 every relation of the `n = 300` instance
/// spans several morsels.
fn engine_at(n: usize, threads: usize) -> QueryEngine {
    QueryEngine::new(university(&UniversityScale::of_size(n)))
        .with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(64))
}

fn engine() -> QueryEngine {
    engine_at(60, 2)
}

/// Run `request` traced: the result and its trace.
fn analyze(
    e: &QueryEngine,
    request: Request<'_>,
) -> Result<(QueryResult, QueryTrace), EngineError> {
    let response = e.run(&request.with_trace())?;
    Ok((
        response.result,
        response.trace.expect("a traced run returns its trace"),
    ))
}

/// The annotated tree with its one schedule-dependent field zeroed.
fn without_time(plan: &PlanNodeTrace) -> PlanNodeTrace {
    PlanNodeTrace {
        elapsed_ns: 0,
        children: plan.children.iter().map(without_time).collect(),
        ..plan.clone()
    }
}

/// Paper-derived queries spanning open/closed, negation, universal
/// quantification, and disjunctive filters.
const QUERIES: &[&str] = &[
    "member(x,z) & !skill(x,\"db\")",
    "student(x) & !(exists y. attends(x,y) & !lecture(y,\"d0\"))",
    "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
    "student(x) & (skill(x,\"db\") | speaks(x,\"lang1\") | makes(x,\"PhD\"))",
    "exists x. student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
];

#[test]
fn node_totals_sum_to_query_stats_across_strategies() {
    for query in QUERIES {
        for strategy in Strategy::ALL {
            let mut across_threads: Option<PlanNodeTrace> = None;
            for threads in thread_counts() {
                let (result, trace) = analyze(
                    &engine_at(300, threads),
                    Request::text(query).with_strategy(strategy),
                )
                .unwrap();
                let plan = trace.plan.as_ref().expect("annotated plan attached");
                let totals = plan.totals();
                let tag = format!("`{query}` under {} at {threads} threads", strategy.name());
                assert_eq!(
                    totals.comparisons as usize,
                    result.stats.comparisons,
                    "comparisons conservation for {tag}\n{}",
                    plan.render(totals.elapsed_ns)
                );
                assert_eq!(
                    totals.probes as usize, result.stats.probes,
                    "probes conservation for {tag}"
                );
                assert_eq!(
                    totals.base_reads as usize, result.stats.base_tuples_read,
                    "base-read conservation for {tag}"
                );
                // Per node, not just in total: rows, reads, probes and
                // comparisons are sums over tuples, so how morsels were
                // dealt to workers cannot show.
                let shape = without_time(plan);
                match &across_threads {
                    None => across_threads = Some(shape),
                    Some(first) => assert_eq!(&shape, first, "per-node counters for {tag}"),
                }
            }
        }
    }
}

/// The engine has one configuration, so what varies between requests is
/// how a query reaches the compiler: cold, warm (the plan cache hits),
/// prepared, or under session limits. Conservation holds under each, and
/// each profiles the same per-node tree with the same stats as the cold
/// run.
#[test]
fn node_totals_sum_under_options() {
    for threads in thread_counts() {
        let e = engine_at(300, threads);
        for query in QUERIES {
            for strategy in [Strategy::Improved, Strategy::Classical] {
                let prepared = e.prepare(query, strategy).unwrap();
                let (cold, cold_trace) =
                    analyze(&e, Request::text(query).with_strategy(strategy)).unwrap();
                let cold_plan = without_time(cold_trace.plan.as_ref().unwrap());
                let requests = [
                    ("warm", Request::text(query).with_strategy(strategy)),
                    ("prepared", Request::prepared(&prepared)),
                    (
                        "session limits",
                        Request::text(query)
                            .with_strategy(strategy)
                            .with_limits(QueryLimits::UNLIMITED)
                            .with_cancel(gq_core::CancelToken::new()),
                    ),
                ];
                for (kind, request) in requests {
                    let (result, trace) = analyze(&e, request).unwrap();
                    let plan = trace.plan.as_ref().unwrap();
                    let totals = plan.totals();
                    let tag = format!(
                        "`{query}` under {}, {kind}, at {threads} threads",
                        strategy.name()
                    );
                    assert_eq!(
                        totals.comparisons as usize, result.stats.comparisons,
                        "comparisons conservation for {tag}"
                    );
                    assert_eq!(
                        totals.probes as usize, result.stats.probes,
                        "probes conservation for {tag}"
                    );
                    assert_eq!(
                        totals.base_reads as usize, result.stats.base_tuples_read,
                        "base-read conservation for {tag}"
                    );
                    assert_eq!(without_time(plan), cold_plan, "per-node counters for {tag}");
                    assert_eq!(
                        result.stats.without_dispatch_counters(),
                        cold.stats.without_dispatch_counters(),
                        "stats for {tag}"
                    );
                    assert_eq!(
                        result.answers.iter().collect::<Vec<_>>(),
                        cold.answers.iter().collect::<Vec<_>>(),
                        "answers for {tag}"
                    );
                }
            }
        }
    }
}

/// The `== pipelines ==` section of `:analyze` describes the run a plain
/// `query` makes: the same breakers, in the same order, with the same
/// tuple counts as the pipeline-break events that query journals.
#[test]
fn analyze_lists_the_breakers_a_plain_query_journals() {
    for threads in thread_counts() {
        let e = engine_at(300, threads);
        for (label, text) in E2E_SUITE {
            let before = e.journal().events().len();
            e.query(text).unwrap();
            let journaled: Vec<String> = e.journal().events()[before..]
                .iter()
                .filter(|ev| ev.kind == EventKind::PipelineBreak)
                .map(|ev| ev.detail.clone())
                .collect();
            let (_, trace) = analyze(&e, Request::text(text)).unwrap();
            let listed: Vec<String> = trace
                .pipelines
                .iter()
                .map(|p| format!("pipeline {} {} tuples={}", p.id, p.breaker, p.tuples))
                .collect();
            assert_eq!(listed, journaled, "{label} at {threads} threads");
            if !listed.is_empty() {
                let (result, trace) = analyze(&e, Request::text(text)).unwrap();
                let out = explain_analyze(&result, &trace);
                assert!(out.contains("== pipelines =="), "{label}:\n{out}");
                assert!(out.contains("busy time"), "{label}: legend missing\n{out}");
            }
        }
    }
}

/// The observer must not change the outcome: `analyze`, and `query` with
/// the slow log armed (the engine then profiles on its own behalf), run
/// the code a plain `query` runs. Same answers in the same order, equal
/// `ExecStats` down to the peak watermarks, the slow log's tuple
/// watermark is what the plain run materialized, and a memory budget set
/// to the plain run's own peak does not trip under observation.
#[test]
fn observers_do_not_change_the_outcome() {
    for threads in thread_counts() {
        for (label, text) in E2E_SUITE {
            let tag = format!("{label} at {threads} threads");
            let mut e = engine_at(300, threads);
            let plain = e.query(text).unwrap();
            let (analyzed, _) = analyze(&e, Request::text(text)).unwrap();
            assert_eq!(
                analyzed.answers.iter().collect::<Vec<_>>(),
                plain.answers.iter().collect::<Vec<_>>(),
                "{tag}"
            );
            assert_eq!(analyzed.stats, plain.stats, "{tag}: analyze vs query");

            e.set_limits(
                QueryLimits::UNLIMITED
                    .with_max_memory_bytes(plain.stats.peak_intermediate_bytes as u64),
            );
            e.query(text)
                .unwrap_or_else(|err| panic!("{tag}: plain run over its own peak: {err}"));
            e.slow_log().set_tuple_threshold(Some(0));
            let armed = e
                .query(text)
                .unwrap_or_else(|err| panic!("{tag}: armed run tripped the budget: {err}"));
            assert_eq!(
                armed.answers.iter().collect::<Vec<_>>(),
                plain.answers.iter().collect::<Vec<_>>(),
                "{tag}"
            );
            assert_eq!(armed.stats, plain.stats, "{tag}: armed vs plain query");
            let (analyzed, _) = analyze(&e, Request::text(text))
                .unwrap_or_else(|err| panic!("{tag}: analyze tripped the budget: {err}"));
            assert_eq!(analyzed.stats, plain.stats, "{tag}: budgeted analyze");

            // The governor charges one intermediate tuple per tuple a
            // breaker materializes, which is what `intermediate_tuples`
            // sums — so this is the plain run's governor watermark.
            let entries = e.slow_log().entries();
            let entry = entries.last().expect("threshold 0 retains every query");
            assert_eq!(
                entry.peak_intermediate_tuples, plain.stats.intermediate_tuples as u64,
                "{tag}: slow-log tuple watermark"
            );
            assert_eq!(
                entry.peak_memory_bytes, plain.stats.peak_intermediate_bytes as u64,
                "{tag}: slow-log memory watermark"
            );
        }
    }
}

/// Collect every operator label of the annotated tree.
fn labels(plan: &PlanNodeTrace, out: &mut Vec<String>) {
    out.push(plan.label.clone());
    for c in &plan.children {
        labels(c, out);
    }
}

#[test]
fn improved_profile_has_no_division_or_product_where_classical_does() {
    let e = engine();
    // Fig. 2-style: students attending only d0 lectures (Proposition 4
    // case 4 — the improved translation uses a complement-join; the
    // classical translation needs prenexing into ∀ (division) over a
    // cartesian product of ranges).
    let query = "student(x) & !(exists y. attends(x,y) & !lecture(y,\"d0\"))";

    let (_, improved) = analyze(&e, Request::text(query)).unwrap();
    let mut improved_ops = Vec::new();
    labels(improved.plan.as_ref().unwrap(), &mut improved_ops);
    assert!(
        !improved_ops.iter().any(|l| l.contains("division")),
        "improved profile must not contain a division: {improved_ops:?}"
    );
    assert!(
        !improved_ops.iter().any(|l| l.contains("product")),
        "improved profile must not contain a product: {improved_ops:?}"
    );
    assert!(
        improved
            .facts
            .iter()
            .any(|(k, v)| k == "uses_division" && v == &gq_obs::Json::Bool(false)),
        "facts: {:?}",
        improved.facts
    );

    let (_, classical) =
        analyze(&e, Request::text(query).with_strategy(Strategy::Classical)).unwrap();
    let mut classical_ops = Vec::new();
    labels(classical.plan.as_ref().unwrap(), &mut classical_ops);
    assert!(
        classical_ops.iter().any(|l| l.contains("division")),
        "classical profile should contain a division: {classical_ops:?}"
    );
    assert!(
        classical_ops.iter().any(|l| l.contains("product")),
        "classical profile should contain a product: {classical_ops:?}"
    );
}

#[test]
fn explain_analyze_renders_annotated_tree() {
    let e = engine();
    let (result, trace) = analyze(&e, Request::text("member(x,z) & !skill(x,\"db\")")).unwrap();
    let out = explain_analyze(&result, &trace);
    for needle in [
        "== phases ==",
        "evaluate",
        "== plan (actual) ==",
        "rows=",
        "cmp=",
        "%)",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn nested_loop_trace_reports_iterations() {
    let e = engine();
    let (_, trace) = analyze(
        &e,
        Request::text("student(x) & !(exists y. attends(x,y) & !lecture(y,\"d0\"))")
            .with_strategy(Strategy::NestedLoop),
    )
    .unwrap();
    let plan = trace.plan.as_ref().unwrap();
    assert_eq!(plan.label, "fig1 interpreter");
    assert!(!plan.children.is_empty(), "quantifier loops recorded");
    let mut ls = Vec::new();
    labels(plan, &mut ls);
    assert!(
        ls.iter().any(|l| l.starts_with("loop ")),
        "loop frames labeled by their producer atom: {ls:?}"
    );
    fn total_iterations(p: &PlanNodeTrace) -> u64 {
        p.iterations + p.children.iter().map(total_iterations).sum::<u64>()
    }
    assert!(total_iterations(plan) > 0);
}

#[test]
fn metrics_registry_counts_queries_when_enabled() {
    let e = engine();
    e.query("student(x)").unwrap();
    assert!(
        e.metrics().snapshot().counters.is_empty(),
        "disabled by default"
    );
    e.metrics().enable();
    e.query("student(x)").unwrap();
    e.query_with("student(x)", Strategy::NestedLoop).unwrap();
    let snap = e.metrics().snapshot();
    assert_eq!(snap.counters["query.count.improved"], 1);
    assert_eq!(snap.counters["query.count.nested-loop"], 1);
    assert_eq!(snap.histograms["query.latency.improved"].count(), 1);
}

/// Conformance: every kind of request runs the one lifecycle. With
/// metrics on and the slow log armed at 0 ms, each leaves exactly one
/// `QueryStart`/`QueryEnd` pair under one query id, moves
/// `query.count.improved` and `query.latency.improved` by exactly one,
/// and adds exactly one slow-log entry under that id; under an output
/// budget of one tuple each trips where a plain `query` trips.
#[test]
fn every_request_kind_runs_the_one_lifecycle() {
    const TEXT: &str = "member(x,z) & !skill(x,\"db\")";
    let output_one = QueryLimits::UNLIMITED.with_max_output_tuples(1);
    for threads in thread_counts() {
        let mut e = engine_at(60, threads);
        let formula = gq_calculus::parse(TEXT).unwrap();
        let prepared = e.prepare(TEXT, Strategy::Improved).unwrap();
        // (kind, traced, the request under session limits `limits`)
        type Row<'a> = (&'a str, bool, Box<dyn Fn(QueryLimits) -> Request<'a> + 'a>);
        let rows: Vec<Row> = vec![
            ("text", false, Box::new(|_| Request::text(TEXT))),
            ("formula", false, Box::new(|_| Request::formula(&formula))),
            ("program", false, Box::new(|_| Request::program(TEXT))),
            (
                "prepared",
                false,
                Box::new(|_| Request::prepared(&prepared)),
            ),
            (
                "prepared + trace",
                true,
                Box::new(|_| Request::prepared(&prepared).with_trace()),
            ),
            (
                "text + trace",
                true,
                Box::new(|_| Request::text(TEXT).with_trace()),
            ),
            (
                "session limits",
                false,
                Box::new(|limits| {
                    Request::text(TEXT)
                        .with_limits(limits)
                        .with_cancel(gq_core::CancelToken::new())
                }),
            ),
        ];

        e.metrics().enable();
        e.slow_log()
            .set_latency_threshold(Some(std::time::Duration::ZERO));
        for (kind, traced, request) in &rows {
            let tag = format!("{kind} at {threads} threads");
            let events_before = e.journal().events().len();
            let metrics_before = e.metrics().snapshot();
            let recorded_before = e.slow_log().recorded();
            let response = e.run(&request(QueryLimits::UNLIMITED)).unwrap();
            assert_eq!(response.trace.is_some(), *traced, "{tag}: trace returned");

            let events = e.journal().events();
            let of_kind = |kind: EventKind| -> Vec<u64> {
                events[events_before..]
                    .iter()
                    .filter(|ev| ev.kind == kind)
                    .map(|ev| ev.query_id)
                    .collect()
            };
            let starts = of_kind(EventKind::QueryStart);
            assert_eq!(starts.len(), 1, "{tag}: one query_start");
            assert_eq!(of_kind(EventKind::QueryEnd), starts, "{tag}: one query_end");
            let query_id = starts[0];

            let metrics = e.metrics().snapshot();
            let count = |m: &gq_core::MetricsSnapshot| {
                m.counters.get("query.count.improved").copied().unwrap_or(0)
            };
            let latencies = |m: &gq_core::MetricsSnapshot| {
                m.histograms
                    .get("query.latency.improved")
                    .map_or(0, |h| h.count())
            };
            assert_eq!(count(&metrics), count(&metrics_before) + 1, "{tag}: count");
            assert_eq!(
                latencies(&metrics),
                latencies(&metrics_before) + 1,
                "{tag}: latency"
            );

            assert_eq!(
                e.slow_log().recorded(),
                recorded_before + 1,
                "{tag}: one slow-log entry"
            );
            let entries = e.slow_log().entries();
            let entry = entries.last().expect("threshold 0 retains every query");
            assert_eq!(entry.query_id, query_id, "{tag}: slow-log query id");
        }

        e.set_limits(output_one);
        let used = |err: EngineError| match err {
            EngineError::ResourceExhausted { used, .. } => used,
            other => panic!("expected an output-budget trip, got {other:?}"),
        };
        let expected = used(e.query(TEXT).unwrap_err());
        for (kind, _, request) in &rows {
            let err = e.run(&request(output_one)).unwrap_err();
            assert_eq!(used(err), expected, "{kind} at {threads} threads: trip");
        }
        // The session's own limits, not the engine's, govern its requests.
        let session = &rows.last().unwrap().2;
        e.run(&session(QueryLimits::UNLIMITED)).unwrap();
    }
}
