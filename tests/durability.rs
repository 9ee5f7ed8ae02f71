//! Durability suite: WAL + checkpoint round trips, torn-tail recovery,
//! and (behind `--features chaos`) a crash-point recovery matrix.
//!
//! The matrix is the heart of the crash-safety argument: it runs a
//! scripted mutation workload, simulates a process death at *every*
//! write/fsync/rename site the workload touches, reopens the database
//! cleanly, and asserts the recovered state is exactly a committed
//! prefix of the workload — never a torn mix, never a lost ack. Chaos
//! tests serialize on a process-wide mutex because the gq-chaos
//! registry is global, and read `GQ_CHAOS_SEED` so CI can sweep seeds.

use gq_core::{EngineError, ExecConfig, QueryEngine, ViewError};
use gq_storage::{tuple, Database, DurableDatabase, Relation, Schema, StorageError, Tuple};
use std::path::PathBuf;

/// A fresh, empty scratch directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gq_durability_{name}"));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// One step of the scripted workload. Mutations are replayable against
/// both a [`DurableDatabase`] and a plain shadow [`Database`], so every
/// committed prefix has a computable expected state.
enum Step {
    Create(&'static str, &'static [&'static str]),
    Insert(&'static str, Tuple),
    Remove(&'static str, Tuple),
    Checkpoint,
}

impl Step {
    /// Checkpoints are durability plumbing, not logical mutations: they
    /// never change what a recovered database should contain.
    fn is_mutation(&self) -> bool {
        !matches!(self, Step::Checkpoint)
    }
}

/// The scripted workload: creates, inserts, removes, and two interleaved
/// checkpoints, so crash points land in every phase (fresh WAL, mid-log,
/// mid-checkpoint, post-checkpoint log).
fn script() -> Vec<Step> {
    let mut s = vec![
        Step::Create("p", &["a"]),
        Step::Create("q", &["a"]),
        Step::Create("r", &["a", "b"]),
    ];
    for v in 0..10i64 {
        s.push(Step::Insert("p", tuple![v]));
    }
    for v in [0i64, 2, 4, 6, 8] {
        s.push(Step::Insert("q", tuple![v]));
    }
    s.push(Step::Checkpoint);
    for v in 0..8i64 {
        s.push(Step::Insert("r", tuple![v, (v * 3) % 10]));
    }
    s.push(Step::Remove("p", tuple![3i64]));
    s.push(Step::Remove("q", tuple![4i64]));
    s.push(Step::Checkpoint);
    for v in 10..13i64 {
        s.push(Step::Insert("p", tuple![v]));
    }
    s
}

fn apply_durable(dd: &mut DurableDatabase, s: &Step) -> Result<(), StorageError> {
    match s {
        Step::Create(name, attrs) => dd.create_relation(*name, Schema::new(attrs.to_vec())?),
        Step::Insert(name, t) => dd.insert(name, t.clone()).map(|_| ()),
        Step::Remove(name, t) => dd.remove(name, t).map(|_| ()),
        Step::Checkpoint => dd.checkpoint().map(|_| ()),
    }
}

#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
fn apply_shadow(db: &mut Database, s: &Step) -> Result<(), StorageError> {
    match s {
        Step::Create(name, attrs) => db.create_relation(*name, Schema::new(attrs.to_vec())?),
        Step::Insert(name, t) => db.insert(name, t.clone()).map(|_| ()),
        Step::Remove(name, t) => db.remove(name, t).map(|_| ()),
        Step::Checkpoint => Ok(()),
    }
}

/// Expected state after the first `mutations` logical mutations of the
/// script (checkpoints skipped — they are not mutations).
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
fn shadow_after(script: &[Step], mutations: usize) -> Database {
    let mut db = Database::new();
    let mut applied = 0;
    for s in script {
        if !s.is_mutation() {
            continue;
        }
        if applied == mutations {
            break;
        }
        apply_shadow(&mut db, s).unwrap();
        applied += 1;
    }
    db
}

#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
fn mutation_count(script: &[Step]) -> usize {
    script.iter().filter(|s| s.is_mutation()).count()
}

/// Canonical content fingerprint: schemas plus sorted tuples of every
/// relation, sorted by relation name. Two databases with equal
/// fingerprints answer every query identically.
fn fingerprint(db: &Database) -> Vec<String> {
    let mut names: Vec<String> = db.relation_names().map(String::from).collect();
    names.sort();
    let mut out = Vec::new();
    for n in &names {
        let r = db.relation(n).unwrap();
        let attrs: Vec<&str> = r.schema().attributes().collect();
        out.push(format!("{n}({})", attrs.join(",")));
        for t in r.sorted_tuples() {
            out.push(format!("{n}|{t}"));
        }
    }
    out
}

/// Run `query` on a copy of `db` at the given thread count and return
/// the sorted answer tuples as strings.
fn answers_at(db: &Database, query: &str, threads: usize) -> Vec<String> {
    let mut e = QueryEngine::new(db.clone());
    e.set_exec_config(ExecConfig::with_threads(threads).with_morsel_size(64));
    e.query(query)
        .unwrap()
        .answers
        .sorted_tuples()
        .iter()
        .map(|t| t.to_string())
        .collect()
}

#[test]
fn durable_engine_round_trips_across_reopen() {
    let dir = fresh_dir("engine_round_trip");
    {
        let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
        assert!(rec.created_fresh);
        assert!(e.is_durable());
        e.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        e.create_relation("q", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        for v in 0..20i64 {
            e.insert("p", tuple![v]).unwrap();
            if v % 3 == 0 {
                e.insert("q", tuple![v]).unwrap();
            }
        }
        assert!(e.remove("p", &tuple![7i64]).unwrap());
        assert_eq!(e.query("p(x) & !q(x)").unwrap().len(), 12);
    }
    // Reopen: the WAL alone must reconstruct the exact state.
    let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
    assert!(!rec.created_fresh);
    assert!(rec.wal_records_replayed >= 23, "stats: {rec}");
    assert_eq!(rec.torn_bytes, 0);
    assert_eq!(e.query("p(x) & !q(x)").unwrap().len(), 12);
    assert_eq!(e.query("p(x)").unwrap().len(), 19);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_folds_wal_and_recovers_from_snapshot() {
    let dir = fresh_dir("checkpoint_fold");
    {
        let (e, _) = QueryEngine::open_durable(&dir).unwrap();
        e.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        for v in 0..50i64 {
            e.insert("p", tuple![v]).unwrap();
        }
        let ck = e.checkpoint().unwrap();
        assert_eq!(ck.wal_records_folded, 51);
        assert!(ck.snapshot_bytes > 0);
        // Post-checkpoint mutations land in the fresh WAL segment.
        e.insert("p", tuple![50i64]).unwrap();
    }
    let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
    assert_eq!(rec.wal_records_replayed, 1, "stats: {rec}");
    assert!(rec.generation >= 2);
    assert_eq!(e.query("p(x)").unwrap().len(), 51);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_wal_tail_is_truncated_on_reopen() {
    let dir = fresh_dir("garbage_tail");
    let (generation, committed) = {
        let (mut dd, _) = DurableDatabase::open(&dir).unwrap();
        dd.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        for v in 0..5i64 {
            dd.insert("p", tuple![v]).unwrap();
        }
        (dd.generation(), fingerprint(dd.db()))
    };
    // Simulate a torn final append: half a frame of garbage at the tail.
    let wal = dir.join(format!("wal-{generation}.log"));
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x2a, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(&wal, &bytes).unwrap();

    let (dd, rec) = DurableDatabase::open(&dir).unwrap();
    assert_eq!(rec.torn_bytes, 6, "stats: {rec}");
    assert_eq!(fingerprint(dd.db()), committed);
    // The truncated WAL accepts new commits and survives another reopen.
    drop(dd);
    let (mut dd, rec) = DurableDatabase::open(&dir).unwrap();
    assert_eq!(rec.torn_bytes, 0, "tail must be physically gone: {rec}");
    dd.insert("p", tuple![99i64]).unwrap();
    drop(dd);
    let (dd, _) = DurableDatabase::open(&dir).unwrap();
    assert!(dd.db().relation("p").unwrap().contains(&tuple![99i64]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn epoch_never_regresses_across_reopens() {
    let dir = fresh_dir("epoch_monotone");
    let mut last;
    {
        let (mut dd, _) = DurableDatabase::open(&dir).unwrap();
        dd.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        for v in 0..4i64 {
            dd.insert("p", tuple![v]).unwrap();
        }
        // Removes make the surviving tuple count undercount the epoch:
        // recovery must trust the WAL, not re-derive from contents.
        dd.remove("p", &tuple![1i64]).unwrap();
        dd.remove("p", &tuple![2i64]).unwrap();
        last = dd.epoch();
        assert_eq!(last, 7);
    }
    for round in 0..3 {
        let (mut dd, _) = DurableDatabase::open(&dir).unwrap();
        assert!(dd.epoch() >= last, "round {round}: {} < {last}", dd.epoch());
        last = dd.epoch();
        dd.insert("p", tuple![100 + round]).unwrap();
        assert!(dd.epoch() > last);
        last = dd.epoch();
        if round == 1 {
            dd.checkpoint().unwrap();
            assert_eq!(dd.epoch(), last, "checkpoint must not bump the epoch");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_database_answers_identically_across_threads() {
    let dir = fresh_dir("threads_identical");
    {
        let (mut dd, _) = DurableDatabase::open(&dir).unwrap();
        for s in &script() {
            apply_durable(&mut dd, s).unwrap();
        }
    }
    let (dd, _) = DurableDatabase::open(&dir).unwrap();
    for query in ["p(x) & !q(x)", "p(x) & r(x,y)"] {
        let base = answers_at(dd.db(), query, 1);
        assert!(!base.is_empty());
        assert_eq!(base, answers_at(dd.db(), query, 2), "{query} @ 2 threads");
        assert_eq!(base, answers_at(dd.db(), query, 8), "{query} @ 8 threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bulk write (one `AddRelation` record for many tuples) followed by a
/// checkpoint leaves a snapshot whose tuple count exceeds its epoch. The
/// reload must take the snapshot's epoch as written, or the first
/// post-checkpoint WAL record replays as a regression and the committed
/// insert is unreachable. The engine has no bulk write, so the storage
/// layer makes it.
#[test]
fn a_bulk_write_before_a_checkpoint_still_reopens() {
    let dir = fresh_dir("bulk_checkpoint");
    let epoch = {
        let (mut d, _) = DurableDatabase::open(&dir).unwrap();
        d.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        for v in 1..=3i64 {
            d.insert("p", tuple![v]).unwrap();
        }
        let bulk = (10..16i64).map(|v| tuple![v]);
        d.add_relation(Relation::with_tuples("s", Schema::new(vec!["a"]).unwrap(), bulk).unwrap())
            .unwrap();
        d.checkpoint().unwrap();
        d.insert("p", tuple![4i64]).unwrap();
        d.epoch()
    };
    let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
    assert_eq!(rec.wal_records_replayed, 1, "stats: {rec}");
    assert_eq!(rec.recovered_epoch, epoch);
    assert_eq!(e.query("p(x)").unwrap().len(), 4);
    assert_eq!(e.query("s(x)").unwrap().len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// A materialized view's extent is volatile: a checkpoint does not write
/// it, so after a reopen the catalog holds only base relations and the
/// view is defined again over them — with an extent equal to its body.
#[test]
fn checkpointed_view_extents_rebuild_on_reopen() {
    const BODY: &str = "p(x) & !q(x)";
    let dir = fresh_dir("view_checkpoint");
    {
        let (e, _) = QueryEngine::open_durable(&dir).unwrap();
        e.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        e.create_relation("q", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        for v in 0..6i64 {
            e.insert("p", tuple![v]).unwrap();
        }
        e.define_materialized_view("mv", BODY).unwrap();
        e.checkpoint().unwrap();
        e.insert("q", tuple![2i64]).unwrap();
        assert_eq!(e.query("mv(x)").unwrap().len(), 5);
    }
    let (e, _) = QueryEngine::open_durable(&dir).unwrap();
    assert!(
        !e.snapshot().has_relation("mv"),
        "the checkpoint wrote the extent"
    );
    e.define_materialized_view("mv", BODY).unwrap();
    let snap = e.snapshot();
    assert_eq!(answers_at(&snap, "mv(x)", 1), answers_at(&snap, BODY, 1));
    assert_eq!(e.query("mv(x)").unwrap().len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// A typed write naming a materialized view is refused: the extent is
/// volatile, so a logged write to it would name a relation the
/// recovered catalog does not have and make the WAL unreplayable.
#[test]
fn a_write_into_a_view_extent_is_refused_and_the_log_still_replays() {
    let dir = fresh_dir("extent_write");
    {
        let (e, _) = QueryEngine::open_durable(&dir).unwrap();
        e.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        e.insert("p", tuple![1i64]).unwrap();
        e.define_materialized_view("mv", "p(x)").unwrap();
        let appends = e.durability_stats().unwrap().wal_appends;
        for refused in [e.insert("mv", tuple![2i64]), e.remove("mv", &tuple![1i64])] {
            assert!(
                matches!(refused, Err(EngineError::View(ViewError::ExtentWrite(ref v))) if v == "mv"),
                "got {refused:?}"
            );
        }
        assert_eq!(e.durability_stats().unwrap().wal_appends, appends);
        assert_eq!(e.query("mv(x)").unwrap().len(), 1);
    }
    let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
    assert_eq!(rec.wal_records_replayed, 2, "stats: {rec}");
    assert_eq!(e.query("p(x)").unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use gq_chaos::ChaosConfig;
    use std::path::Path;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Seed for this run — CI sweeps `GQ_CHAOS_SEED` over several values.
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

    /// Open the store and run the script until the injected crash kills
    /// it, counting acknowledged (fsync-complete) logical mutations.
    fn run_until_crash(dir: &Path, script: &[Step]) -> usize {
        let Ok((mut dd, _)) = DurableDatabase::open(dir) else {
            return 0; // died during open: nothing was ever acknowledged
        };
        let mut acked = 0;
        for s in script {
            if apply_durable(&mut dd, s).is_err() {
                break;
            }
            if s.is_mutation() {
                acked += 1;
            }
        }
        acked
    }

    /// The crash-point recovery matrix. For every durability operation k
    /// the workload performs (writes, fsyncs, renames — across WAL
    /// appends, checkpoints, and manifest swaps), simulate a process
    /// death at k (half of them torn mid-write), reopen cleanly, and
    /// assert:
    ///
    /// 1. the recovered state is exactly the state after some committed
    ///    prefix of j mutations,
    /// 2. j ≥ acked (no acknowledged mutation is ever lost) and
    ///    j ≤ acked + 1 (at most the single in-flight, durable-but-
    ///    unacknowledged record survives),
    /// 3. the recovered epoch equals the shadow epoch of that prefix
    ///    (monotone across the crash), and
    /// 4. queries over the recovered state are bit-identical at 1, 2,
    ///    and 8 evaluation threads.
    #[test]
    fn crash_matrix_recovers_exactly_a_committed_prefix() {
        let _l = lock();
        let script = script();
        let total_mutations = mutation_count(&script);

        // Discover the crash surface: a fault-free run with the chaos
        // registry installed counts every durability op it passes.
        let total_ops = {
            let dir = fresh_dir("matrix_probe");
            let _g = gq_chaos::install(ChaosConfig::with_seed(seed()));
            let (mut dd, _) = DurableDatabase::open(&dir).unwrap();
            for s in &script {
                apply_durable(&mut dd, s).unwrap();
            }
            drop(dd);
            std::fs::remove_dir_all(&dir).ok();
            gq_chaos::durability_ops_observed()
        };
        assert!(
            total_ops > 40,
            "expected a rich crash surface, got {total_ops} ops"
        );

        for k in 0..total_ops {
            let dir = fresh_dir(&format!("matrix_{k}"));
            let acked = {
                let _g =
                    gq_chaos::install(ChaosConfig::with_seed(seed()).crash_at_durability_op(k));
                run_until_crash(&dir, &script)
            };
            // "Reboot": the guard dropped, so recovery runs fault-free.
            let (dd, rec) = DurableDatabase::open(&dir)
                .unwrap_or_else(|e| panic!("k={k}: recovery failed: {e}"));
            let recovered = fingerprint(dd.db());

            let mut matched = None;
            for j in acked..=total_mutations.min(acked + 1) {
                let shadow = shadow_after(&script, j);
                if fingerprint(&shadow) == recovered {
                    assert_eq!(
                        dd.epoch(),
                        shadow.epoch(),
                        "k={k} j={j}: recovered epoch diverged ({rec})"
                    );
                    matched = Some(j);
                    break;
                }
            }
            let j = matched.unwrap_or_else(|| {
                panic!("k={k}: recovered state is not a committed prefix (acked={acked}, {rec})")
            });
            assert!(
                (acked..=acked + 1).contains(&j),
                "k={k}: prefix {j} outside [{acked}, {}]",
                acked + 1
            );

            // Query equivalence across thread counts, once the schema
            // the queries mention exists in the recovered prefix.
            if ["p", "q", "r"].iter().all(|n| dd.db().has_relation(n)) {
                let base = answers_at(dd.db(), "p(x) & !q(x)", 1);
                assert_eq!(base, answers_at(dd.db(), "p(x) & !q(x)", 2), "k={k}");
                assert_eq!(base, answers_at(dd.db(), "p(x) & !q(x)", 8), "k={k}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Crashing during `open` itself (fresh-init manifest write) must
    /// leave a directory a later open can still initialize.
    #[test]
    fn crash_during_fresh_init_is_recoverable() {
        let _l = lock();
        for k in 0..6 {
            let dir = fresh_dir(&format!("init_{k}"));
            {
                let _g =
                    gq_chaos::install(ChaosConfig::with_seed(seed()).crash_at_durability_op(k));
                let _ = DurableDatabase::open(&dir);
            }
            let (mut dd, _) =
                DurableDatabase::open(&dir).unwrap_or_else(|e| panic!("k={k}: reopen failed: {e}"));
            dd.create_relation("p", Schema::new(vec!["a"]).unwrap())
                .unwrap();
            dd.insert("p", tuple![1i64]).unwrap();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A crash mid-checkpoint must leave the previous generation fully
    /// readable — the manifest swap is the commit point.
    #[test]
    fn crash_during_checkpoint_keeps_the_old_generation() {
        let _l = lock();
        // Ops 0..N of a checkpoint-heavy run: find where checkpoints sit
        // by probing, then sweep just past the pre-checkpoint op count.
        let pre_ops = {
            let dir = fresh_dir("ck_probe");
            let _g = gq_chaos::install(ChaosConfig::with_seed(seed()));
            let (mut dd, _) = DurableDatabase::open(&dir).unwrap();
            dd.create_relation("p", Schema::new(vec!["a"]).unwrap())
                .unwrap();
            for v in 0..4i64 {
                dd.insert("p", tuple![v]).unwrap();
            }
            let before = gq_chaos::durability_ops_observed();
            dd.checkpoint().unwrap();
            let after = gq_chaos::durability_ops_observed();
            drop(dd);
            std::fs::remove_dir_all(&dir).ok();
            (before, after)
        };
        for k in pre_ops.0..pre_ops.1 {
            let dir = fresh_dir(&format!("ck_{k}"));
            let checkpoint_acked = {
                let _g =
                    gq_chaos::install(ChaosConfig::with_seed(seed()).crash_at_durability_op(k));
                let Ok((mut dd, _)) = DurableDatabase::open(&dir) else {
                    continue;
                };
                let mut ok = true;
                ok &= dd
                    .create_relation("p", Schema::new(vec!["a"]).unwrap())
                    .is_ok();
                for v in 0..4i64 {
                    ok &= dd.insert("p", tuple![v]).is_ok();
                }
                if !ok {
                    continue; // crash hit before the checkpoint began
                }
                dd.checkpoint().is_ok()
            };
            let (dd, _) =
                DurableDatabase::open(&dir).unwrap_or_else(|e| panic!("k={k}: reopen failed: {e}"));
            let p = dd.db().relation("p").unwrap();
            assert_eq!(p.len(), 4, "k={k}: checkpoint crash lost data");
            if checkpoint_acked {
                assert!(dd.generation() >= 2, "k={k}: acked checkpoint rolled back");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
