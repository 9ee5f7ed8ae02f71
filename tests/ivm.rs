//! IVM suite: materialized views, incremental extents against fresh
//! evaluation of their bodies (under random interleavings and beside a
//! concurrent writer), `with recursive` semi-naive fixpoint,
//! stratification rejection, governor-bounded recursion, and (behind
//! `--features chaos`) delta-apply fault injection.
//!
//! `GQ_TEST_THREADS` (CI sweeps 1/2/8) narrows the thread matrix to one
//! count; unset, each test sweeps all three. The count is the engine's,
//! so it pins the threads view definition and maintenance run on too.
//! Chaos tests additionally read `GQ_CHAOS_SEED`.

use gq_core::{
    EngineError, EventKind, ExecConfig, QueryEngine, QueryLimits, Request, Resource, Strategy,
    ViewError,
};
use gq_storage::{tuple, Database, Schema, Tuple};

fn thread_counts() -> Vec<usize> {
    match std::env::var("GQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 2, 8],
    }
}

/// Unary `p`, unary `q`, binary `r` — empty; tests grow them.
fn base_db() -> Database {
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("q", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    db
}

fn engine_with(threads: usize) -> QueryEngine {
    QueryEngine::new(base_db()).with_exec_config(ExecConfig::with_threads(threads))
}

/// Sorted answer tuples of a query — the bit-identical comparison key.
fn answers(e: &QueryEngine, q: &str) -> Vec<Tuple> {
    let mut out = e
        .query(q)
        .unwrap()
        .answers
        .iter()
        .cloned()
        .collect::<Vec<_>>();
    out.sort();
    out
}

/// `(name, columns, kind)` of every definition, in name order.
fn described(e: &QueryEngine) -> Vec<(String, Vec<String>, &'static str)> {
    e.snapshot()
        .views()
        .into_iter()
        .map(|v| {
            let columns = v.params.iter().map(|p| p.name().to_string()).collect();
            (v.name, columns, v.kind.name())
        })
        .collect()
}

/// splitmix64 — deterministic mutation sequences without a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

#[test]
fn materialized_view_tracks_inserts_and_removes() {
    let e = engine_with(2);
    for v in 0..20 {
        e.insert("p", tuple![v]).unwrap();
        if v % 2 == 0 {
            e.insert("q", tuple![v]).unwrap();
        }
    }
    e.define_materialized_view("oddp", "p(x) & !q(x)").unwrap();
    assert_eq!(answers(&e, "oddp(x)"), answers(&e, "p(x) & !q(x)"));

    // Inserts and removes on both sides of the complement-join.
    e.insert("p", tuple![100]).unwrap();
    e.insert("q", tuple![1]).unwrap(); // knocks 1 out of the view
    e.remove("q", &tuple![2]).unwrap(); // brings 2 into the view
    e.remove("p", &tuple![3]).unwrap();
    assert_eq!(answers(&e, "oddp(x)"), answers(&e, "p(x) & !q(x)"));
    assert!(answers(&e, "oddp(x)").contains(&tuple![2]));
    assert!(!answers(&e, "oddp(x)").contains(&tuple![1]));
}

#[test]
fn materialized_views_chain_downstream() {
    let e = engine_with(2);
    for v in 0..10 {
        e.insert("p", tuple![v]).unwrap();
        if v % 3 == 0 {
            e.insert("q", tuple![v]).unwrap();
        }
        e.insert("r", tuple![v, v + 1]).unwrap();
    }
    e.define_materialized_view("live", "p(x) & !q(x)").unwrap();
    // A view over a view's extent: upstream patches must reach it in the
    // same maintenance pass.
    e.define_materialized_view("liveedge", "live(x) & r(x,y)")
        .unwrap();
    let oracle = |e: &QueryEngine| answers(e, "p(x) & !q(x) & r(x,y)");
    assert_eq!(answers(&e, "liveedge(x,y)"), oracle(&e));
    e.insert("q", tuple![1]).unwrap();
    e.remove("q", &tuple![0]).unwrap();
    e.insert("r", tuple![0, 99]).unwrap();
    e.insert("p", tuple![50]).unwrap();
    e.insert("r", tuple![50, 51]).unwrap();
    assert_eq!(answers(&e, "liveedge(x,y)"), oracle(&e));
}

#[test]
fn duplicate_and_unknown_names_are_rejected() {
    let e = engine_with(1);
    e.define_materialized_view("mv", "p(x) & !q(x)").unwrap();
    assert!(matches!(
        e.define_materialized_view("mv", "p(x)"),
        Err(EngineError::View(ViewError::Duplicate(_)))
    ));
    assert!(matches!(
        e.define_view("mv", "p(x)"),
        Err(EngineError::View(ViewError::Duplicate(_)))
    ));
    assert!(matches!(
        e.define_materialized_view("mv2", "nosuch(x)"),
        Err(EngineError::View(ViewError::UnknownRelation { .. }))
    ));
    assert_eq!(described(&e).len(), 1);
}

/// The incremental-maintenance property: the same random mutation
/// interleaving applied to an incrementally maintained engine and an
/// unmaterialized oracle must leave every extent equal to the oracle's
/// answer for the view's body — across thread counts and seeds, for view
/// bodies exercising join, negation (complement-join), and disjunction
/// delta rules, and projections that are injective (the join view keeps
/// every column; `r(x,5)` drops one pinned to a constant) or not
/// (`exists y`, with and without a range filter), under inserts and
/// removes on every relation.
#[test]
fn incremental_matches_recompute_under_random_interleavings() {
    let bodies = [
        ("j", "p(x) & r(x,y)", "j(x,y)"),
        ("n", "p(x) & !q(x)", "n(x)"),
        ("u", "p(x) | q(x)", "u(x)"),
        ("c", "r(x,5)", "c(x)"),
        ("e", "exists y. r(x,y)", "e(x)"),
        ("g", "exists y. r(x,y) & y > 3", "g(x)"),
    ];
    for threads in thread_counts() {
        for seed in [7u64, 42, 1337] {
            let inc = engine_with(threads);
            let oracle = engine_with(threads);
            for (name, body, _) in bodies {
                inc.define_materialized_view(name, body).unwrap();
            }
            let mut rng = Rng(seed);
            for step in 0..120 {
                let v = rng.below(12);
                // Six second columns per first: a removed r tuple often
                // leaves a sibling that still projects to the same x.
                let w = rng.below(6);
                let engines = [&inc, &oracle];
                match rng.below(6) {
                    0 => engines.iter().for_each(|e| {
                        e.insert("p", tuple![v]).unwrap();
                    }),
                    1 => engines.iter().for_each(|e| {
                        e.insert("q", tuple![v]).unwrap();
                    }),
                    2 => engines.iter().for_each(|e| {
                        e.insert("r", tuple![v, w]).unwrap();
                    }),
                    3 => engines.iter().for_each(|e| {
                        e.remove("p", &tuple![v]).unwrap();
                    }),
                    4 => engines.iter().for_each(|e| {
                        e.remove("q", &tuple![v]).unwrap();
                    }),
                    _ => engines.iter().for_each(|e| {
                        e.remove("r", &tuple![v, w]).unwrap();
                    }),
                }
                if step % 10 == 9 {
                    for (name, body, view_q) in bodies {
                        assert_eq!(
                            answers(&inc, view_q),
                            answers(&oracle, body),
                            "incremental diverged: threads={threads} seed={seed} \
                             step={step} view={name}"
                        );
                    }
                }
            }
        }
    }
}

/// Views read beside a writer: one thread commits seeded inserts and
/// removes on `p`, `q` and `r` under a join, a complement-join and a
/// non-injective `∃` view, while two readers pin snapshots. Every pinned
/// snapshot must hold each extent equal to the view's body evaluated
/// over that same snapshot by a fresh engine — base write and
/// maintenance publish together or not at all.
#[test]
fn pinned_snapshots_hold_extents_equal_to_their_bodies_beside_a_writer() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    let views = [
        ("j", "p(x) & r(x,y)"),
        ("n", "p(x) & !q(x)"),
        ("e", "exists y. r(x,y)"),
    ];
    let sorted = |e: &QueryEngine, q: &str| {
        let mut rows: Vec<Tuple> = e.query(q).unwrap().answers.iter().cloned().collect();
        rows.sort();
        rows
    };
    for threads in thread_counts() {
        let e = engine_with(threads);
        for (name, body) in views {
            e.define_materialized_view(name, body).unwrap();
        }
        let done = AtomicBool::new(false);
        // Readers and writer start together, so reads overlap the writes.
        let start = Barrier::new(3);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut checked = 0usize;
                        while !done.load(Ordering::Acquire) || checked < 3 {
                            let snapshot = e.snapshot();
                            let fresh = QueryEngine::new((*snapshot).clone());
                            for (name, body) in views {
                                let mut extent: Vec<Tuple> =
                                    snapshot.relation(name).unwrap().iter().cloned().collect();
                                extent.sort();
                                assert_eq!(
                                    extent,
                                    sorted(&fresh, body),
                                    "threads={threads} epoch={} view={name}",
                                    snapshot.epoch()
                                );
                            }
                            checked += 1;
                        }
                        checked
                    })
                })
                .collect();
            let mut rng = Rng(0xf9 + threads as u64);
            start.wait();
            // Collected, not unwrapped in the loop: a failed write must
            // still release the readers.
            let writes: Result<Vec<bool>, EngineError> = (0..150)
                .map(|_| {
                    let (v, w) = (rng.below(10), rng.below(4));
                    match rng.below(6) {
                        0 => e.insert("p", tuple![v]),
                        1 => e.insert("q", tuple![v]),
                        2 => e.insert("r", tuple![v, w]),
                        3 => e.remove("p", &tuple![v]),
                        4 => e.remove("q", &tuple![v]),
                        _ => e.remove("r", &tuple![v, w]),
                    }
                })
                .collect();
            done.store(true, Ordering::Release);
            writes.unwrap();
            for reader in readers {
                assert!(reader.join().unwrap() >= 3);
            }
        });
    }
}

/// Edge/path transitive closure: the `with recursive` surface builds the
/// closure, then single edge inserts maintain it incrementally
/// (semi-naive continuation) and edge removals force the recompute
/// fallback — extents always match a freshly computed closure.
#[test]
fn transitive_closure_is_maintained_incrementally() {
    let mut db = Database::new();
    db.create_relation("edge", Schema::new(vec!["src", "dst"]).unwrap())
        .unwrap();
    let mut edges: Vec<(i64, i64)> = (0..8).map(|v| (v, v + 1)).collect();
    for &(a, b) in &edges {
        db.insert("edge", tuple![a, b]).unwrap();
    }
    let e = QueryEngine::new(db).with_exec_config(ExecConfig::with_threads(2));
    let result = e
        .run(&Request::program(
            "with recursive path(x,y) as \
             (edge(x,y) | (exists z. edge(x,z) & path(z,y))) in path(x,y)",
        ))
        .unwrap()
        .result;

    let closure = |edges: &[(i64, i64)]| -> Vec<Tuple> {
        let mut reach: std::collections::BTreeSet<(i64, i64)> = edges.iter().copied().collect();
        loop {
            let mut grew = false;
            let snapshot: Vec<_> = reach.iter().copied().collect();
            for &(a, b) in &snapshot {
                for &(c, d) in &snapshot {
                    if b == c && reach.insert((a, d)) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        reach.into_iter().map(|(a, b)| tuple![a, b]).collect()
    };

    let mut got = result.answers.iter().cloned().collect::<Vec<_>>();
    got.sort();
    assert_eq!(got, closure(&edges));

    // Insert-only deltas ride the semi-naive continuation.
    for (a, b) in [(3, 7), (9, 0), (8, 9)] {
        e.insert("edge", tuple![a, b]).unwrap();
        edges.push((a, b));
        assert_eq!(
            answers(&e, "path(x,y)"),
            closure(&edges),
            "after +({a},{b})"
        );
    }
    // A removal reaches the recursive view → full fixpoint recompute.
    e.remove("edge", &tuple![4, 5]).unwrap();
    edges.retain(|&p| p != (4, 5));
    assert_eq!(answers(&e, "path(x,y)"), closure(&edges), "after removal");

    // The snapshot reports the group as recursive.
    assert!(described(&e).iter().any(|(n, cols, kind)| {
        n == "path" && cols == &["x".to_string(), "y".to_string()] && *kind == "recursive"
    }));
    // Fixpoint rounds were journaled.
    let events = e.journal().events();
    assert!(events.iter().any(|ev| ev.kind.name() == "ivm.round"));
    assert!(events.iter().any(|ev| ev.kind.name() == "ivm.apply"));
}

/// `define_materialized_view` is a one-member recursive batch: a body
/// that names the view itself is a recursive unit, maintained like the
/// `with recursive` form.
#[test]
fn a_materialized_view_may_name_itself() {
    let e = engine_with(1);
    for v in 0..5i64 {
        e.insert("r", tuple![v, v + 1]).unwrap();
    }
    e.define_materialized_view("reach", "r(x,y) | (exists z. r(x,z) & reach(z,y))")
        .unwrap();
    assert_eq!(
        described(&e),
        [("reach".into(), vec!["x".into(), "y".into()], "recursive")]
    );
    assert_eq!(answers(&e, "reach(x,y)").len(), 15);
    e.insert("r", tuple![5, 6]).unwrap();
    assert_eq!(answers(&e, "reach(x,y)").len(), 21);
}

#[test]
fn mutual_recursion_forms_one_group() {
    let mut db = Database::new();
    db.create_relation("edge", Schema::new(vec!["src", "dst"]).unwrap())
        .unwrap();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
        db.insert("edge", tuple![a, b]).unwrap();
    }
    let e = QueryEngine::new(db);
    // even(x,y): path of even length (incl. via odd+1), odd(x,y): odd
    // length — classic mutual recursion, monotone.
    e.run(&Request::program(
        "with recursive \
         odd(x,y) as (edge(x,y) | (exists z. edge(x,z) & even(z,y))), \
         even(x,y) as (exists z. edge(x,z) & odd(z,y)) \
         in odd(x,y)",
    ))
    .unwrap();
    let described = described(&e);
    assert!(described.iter().all(|(_, _, kind)| *kind == "recursive"));
    assert_eq!(described.len(), 2);
    // odd: pairs at odd distance along the chain 0→1→2→3→4.
    let mut want = Vec::new();
    for a in 0..5i64 {
        for b in 0..5i64 {
            if b > a && (b - a) % 2 == 1 {
                want.push(tuple![a, b]);
            }
        }
    }
    assert_eq!(answers(&e, "odd(x,y)"), want);
    // Maintenance reaches both members of the group.
    e.insert("edge", tuple![4, 5]).unwrap();
    assert!(answers(&e, "odd(x,y)").contains(&tuple![0, 5]));
    assert!(answers(&e, "even(x,y)").contains(&tuple![1, 5]));
}

#[test]
fn recursion_through_negation_is_rejected() {
    let e = engine_with(1);
    let err = e
        .run(&Request::program(
            "with recursive w(x) as (p(x) & !w(x)) in w(x)",
        ))
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::View(ViewError::UnstratifiedRecursion { ref view, ref relation })
                if view == "w" && relation == "w"
        ),
        "expected UnstratifiedRecursion, got {err:?}"
    );
    // Nothing half-registered: the name is free again and the engine is
    // fully usable.
    assert!(described(&e).is_empty());
    assert!(e.query("w(x)").is_err());
    e.insert("p", tuple![1]).unwrap();
    assert_eq!(e.query("p(x)").unwrap().len(), 1);
}

#[test]
fn runaway_fixpoint_trips_governor_instead_of_hanging() {
    const PATH: &str = "with recursive path(x,y) as \
                        (edge(x,y) | (exists z. edge(x,z) & path(z,y))) in path(x,y)";
    let tight = QueryLimits::UNLIMITED.with_max_intermediate_tuples(500);
    // The same budget set engine-wide, then only on the request: the
    // fixpoint obeys either.
    for request_scoped in [false, true] {
        let mut db = Database::new();
        db.create_relation("edge", Schema::new(vec!["src", "dst"]).unwrap())
            .unwrap();
        for v in 0..120i64 {
            db.insert("edge", tuple![v, v + 1]).unwrap();
        }
        let mut e = QueryEngine::new(db);
        let request = if request_scoped {
            Request::program(PATH).with_limits(tight)
        } else {
            e.set_limits(tight);
            Request::program(PATH)
        };
        let err = e.run(&request).unwrap_err();
        match err {
            EngineError::ResourceExhausted { resource, .. } => {
                assert_eq!(resource, Resource::IntermediateTuples)
            }
            other => panic!(
                "expected ResourceExhausted (request_scoped={request_scoped}), got {other:?}"
            ),
        }
        // The failed definition left nothing behind; with the budget lifted
        // the same program succeeds.
        assert!(described(&e).is_empty());
        e.set_limits(QueryLimits::UNLIMITED);
        let n = e.run(&Request::program(PATH)).unwrap().result.len();
        assert_eq!(n, (121 * 120) / 2);
    }
}

#[test]
fn prepared_plans_refresh_when_extents_move() {
    let e = engine_with(1);
    e.insert("p", tuple![1]).unwrap();
    e.define_materialized_view("mv", "p(x) & !q(x)").unwrap();
    let prepared = e.prepare("mv(x)", Strategy::Improved).unwrap();
    assert_eq!(
        e.run(&Request::prepared(&prepared)).unwrap().result.len(),
        1
    );
    let warm = e.plan_cache_stats();
    // Re-execute without mutations: still hot.
    assert_eq!(
        e.run(&Request::prepared(&prepared)).unwrap().result.len(),
        1
    );
    assert_eq!(e.plan_cache_stats().hits, warm.hits + 1);
    // A base insert patches the extent → its version stamp moves → the
    // cached plan is stale and recompiles, observing the new extent.
    e.insert("p", tuple![2]).unwrap();
    assert_eq!(
        e.run(&Request::prepared(&prepared)).unwrap().result.len(),
        2
    );
    assert_eq!(e.plan_cache_stats().misses, warm.misses + 1);
}

/// A maintenance run that changes nothing must not look like a change:
/// the extent keeps its version stamp, the catalog epoch moves once (the
/// base write), a prepared plan over the view stays cached — and the
/// journal still says the view was looked at.
#[test]
fn a_maintenance_that_changes_nothing_leaves_the_view_untouched() {
    let e = engine_with(1);
    e.insert("p", tuple![1]).unwrap();
    e.insert("r", tuple![1, 10]).unwrap();
    e.define_materialized_view("inc", "p(x) & r(x,y)").unwrap();
    let prepared = e.prepare("inc(x,y)", Strategy::Improved).unwrap();
    assert_eq!(
        e.run(&Request::prepared(&prepared)).unwrap().result.len(),
        1
    );
    let version = |e: &QueryEngine| e.snapshot().relation_version("inc");
    // 2 is not in `p`: the delta plan over `r` runs and derives nothing.
    let absent = tuple![2, 20];
    for insert in [true, false] {
        let (before, epoch, warm) = (version(&e), e.snapshot().epoch(), e.plan_cache_stats());
        let seen = e.journal().events().len();
        if insert {
            assert!(e.insert("r", absent.clone()).unwrap());
        } else {
            assert!(e.remove("r", &absent).unwrap());
        }
        assert_eq!(version(&e), before, "insert={insert}");
        assert_eq!(e.snapshot().epoch(), epoch + 1, "insert={insert}");
        assert_eq!(
            e.run(&Request::prepared(&prepared)).unwrap().result.len(),
            1
        );
        let stats = e.plan_cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (warm.hits + 1, warm.misses),
            "insert={insert}"
        );
        let applied: Vec<String> = e.journal().events()[seen..]
            .iter()
            .filter(|ev| ev.kind == EventKind::IvmApply)
            .map(|ev| ev.detail.clone())
            .collect();
        assert_eq!(applied.len(), 1, "{applied:?}");
        assert!(applied[0].starts_with("view `inc`: +0 −0 via incremental"));
    }
    // A write that does reach the view still moves it.
    let before = version(&e);
    e.insert("r", tuple![1, 11]).unwrap();
    assert!(version(&e) > before);
    assert_eq!(answers(&e, "inc(x,y)"), answers(&e, "p(x) & r(x,y)"));
}

/// One write under maintained views costs O(Δ), shown by what two
/// consecutive snapshots share — no timing: the written relation and the
/// extent the write reached each differ in at most one chunk and one
/// shard, every other relation is the same allocation, and the older
/// snapshot still holds exactly what it held.
#[test]
fn a_write_under_views_shares_all_but_one_chunk_and_shard() {
    use gq_workload::{university, UniversityScale};
    let e = QueryEngine::new(university(&UniversityScale::of_size(2000)))
        .with_exec_config(ExecConfig::with_threads(2));
    e.define_materialized_view("d0att", "attends(x,y) & lecture(y,\"d0\")")
        .unwrap();
    e.define_materialized_view("nodb", "member(x,z) & !skill(x,\"db\")")
        .unwrap();
    let query = "d0att(x,\"l0\")";
    let row = tuple!["zz0", "l0"];
    let written = ["attends", "d0att"];
    let mut answered = answers(&e, query);
    for insert in [true, false] {
        let before = e.snapshot();
        let held: Vec<Vec<Tuple>> = written
            .iter()
            .map(|name| before.relation(name).unwrap().iter().cloned().collect())
            .collect();
        if insert {
            assert!(e.insert("attends", row.clone()).unwrap());
        } else {
            assert!(e.remove("attends", &row).unwrap());
        }
        let after = e.snapshot();
        for name in written {
            let (old, new) = (
                before.relation(name).unwrap(),
                after.relation(name).unwrap(),
            );
            let (chunks, shards) = new.parts();
            assert!(
                chunks >= 2,
                "{name} is too small to show sharing: {chunks} chunks"
            );
            let (shared_chunks, shared_shards) = new.shared_parts_with(old);
            assert!(
                shared_chunks + 1 >= chunks && shared_shards + 1 >= shards,
                "insert={insert}: {name} shares {shared_chunks}/{chunks} chunks, \
                 {shared_shards}/{shards} shards"
            );
            assert_eq!(new.len() + 1 - 2 * usize::from(insert), old.len());
        }
        for name in before.relation_names().filter(|n| !written.contains(n)) {
            assert!(
                std::sync::Arc::ptr_eq(
                    &before.relation_arc(name).unwrap(),
                    &after.relation_arc(name).unwrap()
                ),
                "insert={insert}: untouched `{name}` was copied"
            );
        }
        // The pinned snapshot is exactly what it was; the engine moved on.
        for (name, rows) in written.iter().zip(&held) {
            assert!(before.relation(name).unwrap().iter().eq(rows));
        }
        let now = answers(&e, query);
        assert_eq!(now.contains(&tuple!["zz0"]), insert);
        assert_eq!(now.len() + 1 - 2 * usize::from(insert), answered.len());
        answered = now;
    }
}

/// A single-tuple remove under the two `write_maintain` views costs
/// O(Δ), shown by what its delta plan reads — no timing. Both views
/// project injectively (`d0att` drops only a column equal to a kept one
/// through the join key, `nodb` drops nothing), so the remove re-derives
/// nothing: the insert side is absent, and the remove side reads the
/// removed tuple plus, for `d0att`, the `lecture` relation it joins.
/// A view whose projection can merge rows keeps its re-derivation.
#[test]
fn a_remove_under_injective_views_reads_only_the_delta() {
    use gq_algebra::{delta_database, delta_plan, AlgebraExpr, DeltaPlan, Evaluator};
    use gq_storage::MutationDelta;
    use gq_workload::{university, UniversityScale};

    fn nodes(plan: &AlgebraExpr) -> Vec<&AlgebraExpr> {
        let mut out = vec![plan];
        for child in plan.children() {
            out.extend(nodes(child));
        }
        out
    }

    let db = university(&UniversityScale::of_size(2000));
    // Compiled as `define_materialized_view` compiles a body — as every
    // query compiles: canonical form, cost-ordered improved translation,
    // optimizer pass.
    let compile = |text: &str| {
        let canonical = gq_rewrite::canonicalize(&gq_calculus::parse(text).unwrap()).unwrap();
        let (_, plan) = gq_translate::ImprovedTranslator::new(&db)
            .with_cost_ordering(true)
            .translate_open(&canonical)
            .unwrap();
        gq_algebra::optimize(&plan)
    };
    // Remove `row` from `relation` and rewrite `plan` for that mutation
    // as maintenance does.
    let remove_one = |relation: &str, row: &Tuple, plan: &AlgebraExpr| {
        let mut new = db.clone();
        assert!(
            new.remove(relation, row).unwrap(),
            "{row:?} not in {relation}"
        );
        let deltas = [MutationDelta::removed_tuple(relation, row.clone())];
        let (ddb, changed) = delta_database(&new, &db, &deltas).unwrap();
        let dp = delta_plan(plan, &changed, &ddb).unwrap();
        (ddb, dp)
    };
    let lecture = db.relation("lecture").unwrap().len();
    let mut d0att_row = None;
    for (relation, body, bound) in [
        ("attends", "attends(x,y) & lecture(y,\"d0\")", lecture + 1),
        ("member", "member(x,z) & !skill(x,\"db\")", 1),
    ] {
        let plan = compile(body);
        // The view's columns are the relation's, so its first row is a
        // row of the relation that the view keeps.
        let extent = Evaluator::new(&db).eval(&plan).unwrap();
        let row = extent.iter().next().unwrap().clone();
        let (ddb, DeltaPlan { insert, remove }) = remove_one(relation, &row, &plan);
        assert_eq!(insert, None, "`{body}` re-derives: {plan}");
        let ev = Evaluator::new(&ddb);
        let removed = ev.eval(&remove.unwrap()).unwrap();
        assert_eq!(removed.iter().collect::<Vec<_>>(), [&row], "{body}");
        let read = ev.stats().base_tuples_read;
        assert!(
            read <= bound,
            "`{body}` read {read} base tuples, bound {bound}"
        );
        d0att_row.get_or_insert(row);
    }

    // Projecting `y` away can merge rows: the remove keeps the
    // re-derivation `π(a⁻) ⋉ input` of that projection.
    let plan = compile("exists y. attends(x,y) & lecture(y,\"d0\")");
    let (_, dp) = remove_one("attends", &d0att_row.unwrap(), &plan);
    let inputs: Vec<&AlgebraExpr> = nodes(&plan)
        .into_iter()
        .filter_map(|n| match n {
            AlgebraExpr::Project { input, .. } => Some(&**input),
            _ => None,
        })
        .collect();
    let insert = dp.insert.expect("a non-injective projection re-derives");
    assert!(
        nodes(&insert).into_iter().any(|n| matches!(
            n,
            AlgebraExpr::SemiJoin { left, right, .. }
                if matches!(**left, AlgebraExpr::Project { .. }) && inputs.contains(&&**right)
        )),
        "no re-derivation in {insert} for {plan}"
    );
}

#[test]
fn durable_extents_are_volatile() {
    let dir = std::env::temp_dir().join(format!(
        "gq-ivm-durable-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    {
        let (e, _) = QueryEngine::open_durable(&dir).unwrap();
        e.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        e.create_relation("q", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        e.insert("p", tuple![1]).unwrap();
        e.define_materialized_view("mv", "p(x) & !q(x)").unwrap();
        // WAL-logged mutations drive maintenance of the volatile extent.
        e.insert("p", tuple![2]).unwrap();
        assert_eq!(answers(&e, "mv(x)").len(), 2);
    }
    {
        // Extents are recomputed state, not WAL-logged: after recovery
        // the base relations are back but the view must be re-defined.
        let (e, _) = QueryEngine::open_durable(&dir).unwrap();
        assert_eq!(e.query("p(x)").unwrap().len(), 2);
        assert!(e.query("mv(x)").is_err());
        e.define_materialized_view("mv", "p(x) & !q(x)").unwrap();
        assert_eq!(answers(&e, "mv(x)").len(), 2);
    }
    std::fs::remove_dir_all(&dir).ok();
}

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
    fn delta_apply_fault_falls_back_to_recompute() {
        let _l = lock();
        let e = engine_with(2);
        for v in 0..10 {
            e.insert("p", tuple![v]).unwrap();
            if v % 2 == 0 {
                e.insert("q", tuple![v]).unwrap();
            }
        }
        e.define_materialized_view("mv", "p(x) & !q(x)").unwrap();
        // Every incremental step fails → every mutation takes the full
        // recompute fallback; answers must stay exact and mutations must
        // keep succeeding.
        let _g = gq_chaos::install(ChaosConfig::with_seed(seed()).delta_apply_error(1.0));
        e.insert("p", tuple![100]).unwrap();
        e.insert("q", tuple![1]).unwrap();
        e.remove("q", &tuple![0]).unwrap();
        assert_eq!(answers(&e, "mv(x)"), answers(&e, "p(x) & !q(x)"));
        let fallbacks = e
            .journal()
            .events()
            .iter()
            .filter(|ev| {
                ev.kind.name() == "ivm.apply"
                    && ev.detail.contains("incremental failed")
                    && ev.detail.contains("chaos:")
            })
            .count();
        assert!(
            fallbacks >= 3,
            "expected journaled fallbacks, saw {fallbacks}"
        );
        drop(_g);
        // Fault source removed → incremental path resumes.
        e.insert("p", tuple![101]).unwrap();
        assert_eq!(answers(&e, "mv(x)"), answers(&e, "p(x) & !q(x)"));
    }

    #[test]
    fn probabilistic_delta_faults_never_corrupt_extents() {
        let _l = lock();
        for threads in thread_counts() {
            let e = engine_with(threads);
            e.define_materialized_view("mv", "p(x) & !q(x)").unwrap();
            e.define_materialized_view("mj", "p(x) & r(x,y)").unwrap();
            let _g = gq_chaos::install(ChaosConfig::with_seed(seed()).delta_apply_error(0.3));
            let mut rng = Rng(seed() ^ 0xd1f7);
            for _ in 0..80 {
                let v = rng.below(10);
                match rng.below(4) {
                    0 => {
                        e.insert("p", tuple![v]).unwrap();
                    }
                    1 => {
                        e.insert("q", tuple![v]).unwrap();
                    }
                    2 => {
                        e.insert("r", tuple![v, v + 1]).unwrap();
                    }
                    _ => {
                        e.remove("p", &tuple![v]).unwrap();
                    }
                }
            }
            drop(_g);
            assert_eq!(answers(&e, "mv(x)"), answers(&e, "p(x) & !q(x)"));
            assert_eq!(answers(&e, "mj(x,y)"), answers(&e, "p(x) & r(x,y)"));
        }
    }
}
