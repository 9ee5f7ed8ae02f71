//! Property suite for the one executor: the push pipelines behind
//! `Evaluator::eval` and `Evaluator::is_nonempty`.
//!
//! The pipelines are checked against a naive reference interpreter
//! written here, which shares no code with them: it materializes every
//! node bottom-up with nested loops, emits rows in the left-major,
//! first-seen order DESIGN §14 promises, and charges the per-tuple
//! counting rules §14 documents. Answers, answer *order*, and
//! [`ExecStats::without_dispatch_counters`] must agree for every suite
//! query at every algebraic strategy and thread count — and among thread
//! counts the peak intermediate watermarks too. The suite also pins what
//! the pipelines are for (only breakers materialize), the §3.2 laziness
//! claim (the first-witness test — a LIMIT 1 — provably stops upstream
//! producers, and reads no more base tuples on the closed suite plans
//! than the counts pinned below) and engine reusability after
//! mid-pipeline aborts.
//!
//! `GQ_TEST_THREADS` (CI sweeps 1/2/8) narrows the thread matrix to one
//! count; unset, each test sweeps all three.

use gq_algebra::{
    arity_of, optimize, optimize_bool, AlgebraExpr, Evaluator, ExecStats, Operand, Predicate,
};
use gq_bench::E2E_SUITE;
use gq_calculus::parse;
use gq_core::{EngineError, ExecConfig, QueryEngine, QueryLimits, Strategy};
use gq_rewrite::canonicalize;
use gq_storage::{tuple, Database, Schema, Tuple, Value};
use gq_translate::{ClassicalTranslator, ImprovedTranslator};
use gq_workload::{university, UniversityScale};
use std::collections::HashSet;

/// Morsel size small enough that a ~300-row instance spans several
/// morsels, so the worker pool and reorder buffer genuinely engage.
const MORSEL: usize = 64;

/// The university instance the reference comparisons run on.
const SCALE: usize = 150;

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

/// The reference interpreter: every node materialized bottom-up, joins by
/// nested loops, no hash table but the first-seen sets of dedup. It
/// charges the counting rules of DESIGN §14 per tuple:
///
/// * every node evaluated counts one operator; a base or literal scan
///   counts one scan and one base read per tuple;
/// * a selection counts one comparison per leaf test it evaluates,
///   short-circuiting `∧` / `∨`;
/// * a join, outer join, semi-join or complement-join counts one probe
///   per left tuple; a join or outer join then counts one comparison per
///   match (at least one), a semi- or complement-join one comparison; a
///   constrained outer join probes — one probe, one comparison — only
///   the left tuples its constraint admits (Definition 7);
/// * a product counts one comparison per pair, a difference one per left
///   tuple, a group-count one per input tuple, a division one per
///   dividend tuple plus, per group, one per distinct divisor key;
/// * every breaker input (build side, group-count input, both division
///   inputs) is an intermediate result, and the answer's tuples are the
///   emitted ones.
///
/// It holds every intermediate to the end, so its peak watermark is the
/// sum of them all — an upper bound on the pipelines' peak, which
/// releases a build side as soon as the probe it fed unwinds.
struct Reference<'a> {
    db: &'a Database,
    stats: ExecStats,
}

impl Reference<'_> {
    fn run(db: &Database, plan: &AlgebraExpr) -> (Vec<Tuple>, ExecStats) {
        let mut r = Reference {
            db,
            stats: ExecStats::new(),
        };
        let rows = r.eval(plan);
        r.stats.tuples_emitted += rows.len();
        (rows, r.stats)
    }

    fn eval(&mut self, e: &AlgebraExpr) -> Vec<Tuple> {
        self.stats.operators_evaluated += 1;
        match e {
            AlgebraExpr::Relation(name) => {
                let db = self.db;
                self.scan(db.relation(name).unwrap())
            }
            AlgebraExpr::Literal(r) => self.scan(r),
            AlgebraExpr::Select { input, predicate } => {
                let rows = self.eval(input);
                rows.into_iter()
                    .filter(|t| self.test(predicate, t))
                    .collect()
            }
            AlgebraExpr::Project { input, positions } => {
                first_seen(self.eval(input).iter().map(|t| t.project(positions)))
            }
            AlgebraExpr::GroupCount { input, group } => {
                let rows = self.build(input);
                self.stats.comparisons += rows.len();
                let mut groups: Vec<(Tuple, i64)> = Vec::new();
                for t in &rows {
                    let key = t.project(group);
                    match groups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, n)) => *n += 1,
                        None => groups.push((key, 1)),
                    }
                }
                groups
                    .into_iter()
                    .map(|(k, n)| k.extended_with(Value::Int(n)))
                    .collect()
            }
            AlgebraExpr::Product { left, right } => {
                let right = self.build(right);
                let mut out = Vec::new();
                for l in self.eval(left) {
                    self.stats.comparisons += right.len();
                    out.extend(right.iter().map(|r| l.concat(r)));
                }
                out
            }
            AlgebraExpr::Join { left, right, on } => {
                let right = self.build(right);
                let mut out = Vec::new();
                for l in self.eval(left) {
                    let matches = self.probe(&l, &right, on);
                    self.stats.comparisons += matches.len().max(1);
                    out.extend(matches.into_iter().map(|r| l.concat(r)));
                }
                out
            }
            AlgebraExpr::SemiJoin { left, right, on }
            | AlgebraExpr::ComplementJoin { left, right, on } => {
                let keep_matched = matches!(e, AlgebraExpr::SemiJoin { .. });
                let right = self.build(right);
                let mut out = Vec::new();
                for l in self.eval(left) {
                    self.stats.comparisons += 1;
                    if self.probe(&l, &right, on).is_empty() != keep_matched {
                        out.push(l);
                    }
                }
                out
            }
            AlgebraExpr::Division { left, right, on } => {
                let divisor = self.build(right);
                let dividend = self.build(left);
                let left_arity = arity_of(left, self.db).unwrap();
                let match_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let kept: Vec<usize> = (0..left_arity)
                    .filter(|c| !match_cols.contains(c))
                    .collect();
                let needed = first_seen(
                    divisor
                        .iter()
                        .map(|t| on.iter().map(|&(_, r)| t[r].clone()).collect::<Tuple>()),
                );
                let mut groups: Vec<(Tuple, Vec<Tuple>)> = Vec::new();
                for t in &dividend {
                    let key = t.project(&kept);
                    let value = t.project(&match_cols);
                    match groups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, values)) => values.push(value),
                        None => groups.push((key, vec![value])),
                    }
                }
                self.stats.comparisons += dividend.len() + groups.len() * needed.len();
                groups
                    .into_iter()
                    .filter(|(_, values)| needed.iter().all(|d| values.contains(d)))
                    .map(|(key, _)| key)
                    .collect()
            }
            AlgebraExpr::Union { left, right } => {
                let mut rows = self.eval(left);
                rows.extend(self.eval(right));
                first_seen(rows.into_iter())
            }
            AlgebraExpr::Difference { left, right } => {
                let right = self.build(right);
                let rows = self.eval(left);
                self.stats.comparisons += rows.len();
                rows.into_iter().filter(|t| !right.contains(t)).collect()
            }
            AlgebraExpr::LeftOuterJoin { left, right, on } => {
                let nulls = Tuple::new(vec![Value::Null; arity_of(right, self.db).unwrap()]);
                let right = self.build(right);
                let mut out = Vec::new();
                for l in self.eval(left) {
                    let matches = self.probe(&l, &right, on);
                    self.stats.comparisons += matches.len().max(1);
                    if matches.is_empty() {
                        out.push(l.concat(&nulls));
                    }
                    out.extend(matches.into_iter().map(|r| l.concat(r)));
                }
                out
            }
            AlgebraExpr::ConstrainedOuterJoin {
                left,
                right,
                on,
                constraint,
            } => {
                let right = self.build(right);
                let mut out = Vec::new();
                for l in self.eval(left) {
                    let mut marker = Value::Null;
                    if constraint.satisfied_by(&l) {
                        self.stats.comparisons += 1;
                        if !self.probe(&l, &right, on).is_empty() {
                            marker = Value::Matched;
                        }
                    }
                    out.push(l.extended_with(marker));
                }
                out
            }
        }
    }

    fn scan(&mut self, rel: &gq_storage::Relation) -> Vec<Tuple> {
        self.stats.base_scans += 1;
        self.stats.base_tuples_read += rel.len();
        rel.iter().cloned().collect()
    }

    /// A breaker input: materialized, and held to the end.
    fn build(&mut self, e: &AlgebraExpr) -> Vec<Tuple> {
        let rows = self.eval(e);
        self.stats.record_intermediate(rows.len());
        self.stats.peak_intermediate_tuples += rows.len();
        self.stats.peak_intermediate_bytes += rows
            .iter()
            .map(|t| gq_governor::estimate_tuple_bytes(t.arity()) as usize)
            .sum::<usize>();
        rows
    }

    /// One probe of `l` against `right` on `on`: the matches, in order.
    fn probe<'r>(
        &mut self,
        l: &Tuple,
        right: &'r [Tuple],
        on: &[(usize, usize)],
    ) -> Vec<&'r Tuple> {
        self.stats.probes += 1;
        right
            .iter()
            .filter(|r| on.iter().all(|&(lc, rc)| l[lc] == r[rc]))
            .collect()
    }

    fn test(&mut self, p: &Predicate, t: &Tuple) -> bool {
        let value = |o: &Operand| match o {
            Operand::Col(c) => t[*c].clone(),
            Operand::Const(v) => v.clone(),
        };
        match p {
            Predicate::Cmp { left, op, right } => {
                self.stats.comparisons += 1;
                op.eval(&value(left), &value(right))
            }
            Predicate::IsNull(c) => {
                self.stats.comparisons += 1;
                t[*c].is_null()
            }
            Predicate::NotNull(c) => {
                self.stats.comparisons += 1;
                !t[*c].is_null()
            }
            Predicate::And(a, b) => self.test(a, t) && self.test(b, t),
            Predicate::Or(a, b) => self.test(a, t) || self.test(b, t),
            Predicate::Not(a) => !self.test(a, t),
            Predicate::True => true,
            Predicate::False => false,
        }
    }
}

/// The distinct rows, each where it first occurs.
fn first_seen(rows: impl Iterator<Item = Tuple>) -> Vec<Tuple> {
    let mut seen = HashSet::new();
    rows.filter(|t| seen.insert(t.clone())).collect()
}

/// `Evaluator::eval` of `plan` at every thread count against the
/// reference interpreter: same rows in the same order, same counters. The
/// one licensed difference is the peak watermark — the pipelines release
/// a build side when the probe it fed unwinds, the reference holds every
/// intermediate to the end — so the push peak may only be lower; among
/// thread counts it may not differ at all.
fn assert_push_matches_reference(label: &str, db: &Database, plan: &AlgebraExpr) {
    let (rows, expected) = Reference::run(db, plan);
    let mut across_threads: Option<ExecStats> = None;
    for threads in thread_counts() {
        let push = evaluator(db, threads);
        let out = push.eval(plan).unwrap();
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            rows.iter().collect::<Vec<_>>(),
            "{label}: rows/order differ, push@{threads} vs the reference"
        );
        let got = push.stats().without_dispatch_counters();
        assert!(
            got.peak_intermediate_tuples <= expected.peak_intermediate_tuples
                && got.peak_intermediate_bytes <= expected.peak_intermediate_bytes,
            "{label}: push@{threads} peaked above the reference: {got} vs {expected}"
        );
        let masked = ExecStats {
            peak_intermediate_tuples: expected.peak_intermediate_tuples,
            peak_intermediate_bytes: expected.peak_intermediate_bytes,
            ..got.clone()
        };
        assert_eq!(
            masked, expected,
            "{label}: stats differ, push@{threads} vs the reference"
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

/// Tier-1 exactness: the push pipelines agree with the reference
/// interpreter on answers, order, and every counter the dispatch mask
/// keeps, for every suite query × algebraic strategy × thread count, on
/// the plans the engine runs.
#[test]
fn push_matches_reference_interpreter_bit_identically() {
    let db = university(&UniversityScale::of_size(SCALE));
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
                assert_push_matches_reference(&label, &db, plan);
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

/// The agreement is a property of the executor, not of the plans the
/// engine happens to ship: it holds on the syntactic translation, on the
/// cost-ordered one before the optimizer, and on the optimized syntactic
/// one (the shipped, cost-ordered and optimized plans are checked above).
#[test]
fn push_matches_reference_interpreter_under_all_options() {
    let db = university(&UniversityScale::of_size(SCALE));
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
                assert_push_matches_reference(&label, &db, plan);
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

/// §3.2 termination: the non-emptiness test — a LIMIT 1 — must stop
/// upstream producers, not drain them. The producer-side counter
/// (`base_tuples_read`) proves it — a full evaluation reads all `n` base
/// tuples, the first-witness test a constant handful, at any thread
/// configuration, without leaving the calling thread.
#[test]
fn limit_and_nonemptiness_stop_upstream_producers() {
    const N: i64 = 1000;
    let db = termination_db(N);
    let scan = AlgebraExpr::relation("p").select(Predicate::True);

    let full = run_counting(&db, |ev| {
        ev.eval(&scan).unwrap();
    });
    assert_eq!(full.base_tuples_read, N as usize);

    for threads in thread_counts() {
        let ev = evaluator(&db, threads);
        assert!(ev.is_nonempty(&scan).unwrap());
        let s = ev.stats();
        assert!(
            s.base_tuples_read * 10 < full.base_tuples_read,
            "the first-witness test at {threads} threads still drained the producer: \
             read {} of {} base tuples",
            s.base_tuples_read,
            full.base_tuples_read
        );
        assert_eq!(s.workers_spawned, 0, "{threads} threads: left the caller");
    }
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
    let tested = run_counting(&db, |ev| {
        assert!(ev.is_nonempty(&join).unwrap());
    });
    // Build side: all N of r. Probe side: a handful of p, not all of it.
    assert!(
        tested.base_tuples_read < full.base_tuples_read,
        "the first-witness test through a join did no less upstream work: {} vs {}",
        tested.base_tuples_read,
        full.base_tuples_read
    );
    assert!(
        tested.base_tuples_read >= N as usize,
        "the build side is a breaker and must still materialize fully"
    );
}

/// Claim C1 on the closed suite queries: `base_tuples_read` of every
/// non-emptiness test at `university(300)`, under both algebraic
/// strategies, as the lazy pull stream read them before the first-witness
/// sink replaced it. The sink must read no more — it reads fewer where a
/// union skips the branches after its witness.
const CLOSED_READS_AT_300: &[(&str, Strategy, usize)] = &[
    ("closed-forall-exists", Strategy::Improved, 600),
    ("closed-forall-exists", Strategy::Classical, 2665),
    ("closed-exists-forall (division)", Strategy::Improved, 1487),
    ("closed-exists-forall (division)", Strategy::Classical, 3807),
];

#[test]
fn closed_plans_read_no_more_than_the_pinned_counts() {
    let db = university(&UniversityScale::of_size(300));
    let mut checked = 0;
    for (label, text) in E2E_SUITE {
        if !parse(text).unwrap().is_closed() {
            continue;
        }
        for strategy in [Strategy::Improved, Strategy::Classical] {
            let &(_, _, pinned) = CLOSED_READS_AT_300
                .iter()
                .find(|&&(l, s, _)| l == *label && s == strategy)
                .unwrap_or_else(|| panic!("{label} [{}]: no pinned count", strategy.name()));
            let plans = compile(&db, text, strategy).unwrap();
            for threads in thread_counts() {
                let reads: usize = plans
                    .iter()
                    .map(|plan| {
                        let ev = evaluator(&db, threads);
                        ev.is_nonempty(plan).unwrap();
                        ev.stats().base_tuples_read
                    })
                    .sum();
                assert!(
                    reads <= pinned,
                    "{label} [{}] at {threads} threads read {reads} base tuples, pinned {pinned}",
                    strategy.name()
                );
            }
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        CLOSED_READS_AT_300.len(),
        "a closed query went unchecked"
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
