//! Morsel dispatch and partitioned hash builds.
//!
//! What the push pipelines of [`crate::push`] share when they leave the
//! calling thread: the execution configuration, the one dispatch rule,
//! panic containment, and the hash-partitioned build of a breaker's probe
//! structure. Operators exchange *morsels* — fixed-size tuple batches
//! (default 1024) — on a scoped worker pool (`std::thread::scope`; no
//! external runtime).
//!
//! Design constraints, in order:
//!
//! 1. **Exactness.** The paper's claims are *operation counts*. Workers
//!    accumulate into private [`WorkerStats`](crate::WorkerStats) and the
//!    coordinator folds them into the shared accumulator when a dispatch
//!    ends; every counter is a per-tuple sum (or max), so the totals are
//!    independent of how morsels were dealt to workers. The only counters
//!    allowed to differ between thread counts are `morsels` and
//!    `workers_spawned`.
//! 2. **Determinism.** Morsel outputs are released in morsel order,
//!    partitioned index buckets keep row ids ascending, and the stateful
//!    operators (dedup, grouping, division) run on the coordinating
//!    thread. The result relation is therefore bit-identical — same
//!    tuples in the same insertion order — across thread counts.
//! 3. **Short-circuits stay lazy.** `is_nonempty` and the closed-query
//!    connectives exist to *avoid* reading input (§3.2 of the paper). Its
//!    first-witness sink is filled on the calling thread, row by row, and
//!    stops the scan at the first tuple that reaches it, whatever the
//!    configuration; its morsel claims still poll cancellation.
//!
//! Dispatch follows one rule, written once here ([`workers_for`],
//! [`Dispatch`], [`on_workers`]): work whose input fits in one morsel
//! never leaves the calling thread, and above that the caller is worker 0
//! beside `workers − 1` scoped helpers.
//!
//! Hash builds are partitioned, one partition per worker: phase 1
//! extracts keys morsel-parallel and routes each to `hash(key) % nparts`;
//! after a barrier, phase 2 builds every partition's table on its own
//! worker — no concurrent map. A sub-morsel build is a single partition
//! built inline, so its probes skip the routing hash altogether.

use crate::{AlgebraError, ExecStats};
use gq_governor::{Governor, GovernorError};
use gq_storage::{Tuple, Value};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread;

/// Default number of tuples per morsel.
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// Execution configuration: worker count and morsel size.
///
/// [`Evaluator::eval`](crate::Evaluator::eval) runs the push pipelines of
/// `crate::push` whatever the values; they only decide how many threads a
/// dispatch may use. `threads` is an upper bound, not a demand: work whose
/// input fits in one `morsel_size` stays on the calling thread whatever
/// the count (DESIGN.md §9). The default asks the OS for the available
/// parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads a dispatch may use, the caller included (≥ 1).
    pub threads: usize,
    /// Tuples per morsel (≥ 1).
    pub morsel_size: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::with_threads(
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

impl ExecConfig {
    /// The single-threaded configuration.
    pub fn sequential() -> Self {
        ExecConfig::with_threads(1)
    }

    /// A configuration with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
            morsel_size: DEFAULT_MORSEL_SIZE,
        }
    }

    /// Override the morsel size.
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size.max(1);
        self
    }
}

/// Deterministic fault-injection hooks at a morsel boundary: an injected
/// per-morsel delay, then possibly a forced worker panic (exercising the
/// containment path). Compiled to nothing without the `chaos` feature.
#[cfg(feature = "chaos")]
pub(crate) fn chaos_morsel_hooks(mi: usize) {
    if let Some(d) = gq_chaos::morsel_delay(mi as u64) {
        thread::sleep(d);
    }
    gq_chaos::maybe_panic_worker(mi as u64);
}

#[cfg(not(feature = "chaos"))]
pub(crate) fn chaos_morsel_hooks(_mi: usize) {}

/// Render a caught panic payload as the message of a
/// [`GovernorError::WorkerPanic`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Convert a contained worker panic into the structured error, routing
/// it through the governor's trip hook (when one is attached) so the
/// flight recorder sees the panic with the owning query's id — panics
/// are caught out here at the coordinator, not inside the governor.
pub(crate) fn worker_panic(governor: Option<&Governor>, message: String) -> AlgebraError {
    let err = GovernorError::WorkerPanic {
        phase: "evaluate",
        message,
    };
    let err = match governor {
        Some(g) => g.trip(err),
        None => err,
    };
    AlgebraError::Governor(err)
}

/// The dispatch rule (DESIGN.md §9): how many workers — the calling
/// thread included — a kernel puts on `len` input tuples. Input that fits
/// in one morsel gets one worker, so it never leaves the calling thread;
/// above that there is one worker per morsel up to `threads`. The
/// threshold is a property of the input, not a knob.
pub(crate) fn workers_for(threads: usize, morsel_size: usize, len: usize) -> usize {
    threads.min(len.div_ceil(morsel_size)).max(1)
}

/// The shared state of one dispatch: the input cut into morsels, the
/// cursor workers claim them from (work stealing at morsel granularity),
/// and the flag that stops every worker at its next claim.
pub(crate) struct Dispatch<'g> {
    /// Workers, the calling thread included ([`workers_for`]).
    pub(crate) workers: usize,
    /// Morsels in the input.
    pub(crate) nmorsels: usize,
    len: usize,
    morsel_size: usize,
    next: AtomicUsize,
    abort: AtomicBool,
    pub(crate) governor: Option<&'g Governor>,
}

impl<'g> Dispatch<'g> {
    pub(crate) fn new(
        threads: usize,
        morsel_size: usize,
        len: usize,
        governor: Option<&'g Governor>,
    ) -> Self {
        Dispatch {
            workers: workers_for(threads, morsel_size, len),
            nmorsels: len.div_ceil(morsel_size),
            len,
            morsel_size,
            next: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            governor,
        }
    }

    /// Claim the next morsel — its index and tuple range — or `None` once
    /// the input is exhausted, the dispatch aborted, or the query
    /// cancelled / past its deadline. Polling here is what bounds a
    /// deadline overrun to one morsel's work.
    pub(crate) fn claim(&self) -> Option<(usize, std::ops::Range<usize>)> {
        if self.aborted() || self.governor.is_some_and(|g| g.is_cancelled()) {
            return None;
        }
        let mi = self.next.fetch_add(1, Ordering::Relaxed);
        let start = mi * self.morsel_size;
        (mi < self.nmorsels).then(|| (mi, start..(start + self.morsel_size).min(self.len)))
    }

    /// Stop every worker at its next claim (a panic, or a sink error).
    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }
}

/// The one place a kernel leaves the calling thread: run `body(w)` once
/// per worker — worker 0 on the caller, workers `1..workers` on scoped OS
/// threads, each counted in [`ExecStats::workers_spawned`] — and return
/// the outcomes in worker order. One worker spawns nothing. A `body` that
/// waits on a barrier must contain its own panics up to that barrier; a
/// panic that escapes `body` anyway comes back as that worker's `Err`.
pub(crate) fn on_workers<R: Send>(
    workers: usize,
    stats: &RefCell<ExecStats>,
    body: impl Fn(usize) -> R + Sync,
) -> Vec<thread::Result<R>> {
    let body = &body;
    let caller = || catch_unwind(AssertUnwindSafe(|| body(0)));
    if workers <= 1 {
        return vec![caller()];
    }
    stats.borrow_mut().workers_spawned += workers - 1;
    thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || body(w))).collect();
        let mut out = vec![caller()];
        out.extend(handles.into_iter().map(|h| h.join()));
        out
    })
}

/// A hash-partitioned row-id index, the build table of a hash or outer
/// join. Bucket row ids are ascending, like a scan-order build, so probe
/// results enumerate matches in scan order.
pub(crate) struct PartIndex {
    parts: Vec<HashMap<Vec<Value>, Vec<usize>>>,
}

impl PartIndex {
    pub(crate) fn get(&self, key: &[Value]) -> &[usize] {
        self.parts[partition_of(key, self.parts.len())]
            .get(key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// The probe structure of a semi/complement/marker join in a pipeline:
/// hash-partitioned key sets, one per partition.
pub(crate) struct ParProbe(pub(crate) Vec<HashSet<Vec<Value>>>);

impl ParProbe {
    pub(crate) fn contains(&self, key: &[Value]) -> bool {
        self.0[partition_of(key, self.0.len())].contains(key)
    }
}

/// The values of `t` at `cols`, as a key.
pub(crate) fn key_of(t: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| t[c].clone()).collect()
}

/// Refill `scratch` with the key of `t` at `cols` — the allocation-free
/// sibling of [`key_of`] for per-tuple probe loops.
pub(crate) fn fill_key(scratch: &mut Vec<Value>, t: &Tuple, cols: &[usize]) {
    scratch.clear();
    scratch.extend(cols.iter().map(|&c| t[c].clone()));
}

/// Route a key to a partition. `DefaultHasher::new()` is deterministic
/// within a build, and correctness does not depend on the routing anyway:
/// probes apply the same function, and partition contents are
/// assignment-invariant. A single partition (every sub-morsel build)
/// needs no routing, which saves builds and probes a hash of every key.
fn partition_of(key: &[Value], nparts: usize) -> usize {
    if nparts == 1 {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % nparts
}

/// Partitioned build of a row-id index. Every bucket's row ids are
/// ascending — matching a sequential scan-order build.
pub(crate) fn build_part_index(
    dispatch: Dispatch<'_>,
    stats: &RefCell<ExecStats>,
    tuples: &[Tuple],
    cols: &[usize],
) -> Result<PartIndex, AlgebraError> {
    let parts = build_parts(
        dispatch,
        stats,
        tuples,
        cols,
        HashMap::with_capacity,
        |m: &mut HashMap<Vec<Value>, Vec<usize>>, key, rid| m.entry(key).or_default().push(rid),
    )?;
    Ok(PartIndex { parts })
}

/// Partitioned build of key *sets* (the probe side of semi,
/// complement and marker joins).
pub(crate) fn build_part_keys(
    dispatch: Dispatch<'_>,
    stats: &RefCell<ExecStats>,
    tuples: &[Tuple],
    cols: &[usize],
) -> Result<Vec<HashSet<Vec<Value>>>, AlgebraError> {
    build_parts(
        dispatch,
        stats,
        tuples,
        cols,
        HashSet::with_capacity,
        |set: &mut HashSet<Vec<Value>>, key, _rid| {
            set.insert(key);
        },
    )
}

/// The partitioned build behind both probe structures, as one `dispatch`
/// (cut over `tuples`) with one partition per worker, each a table made by
/// `with_capacity` with room for all its entries (so it never rehashes as
/// it fills) and filled with `insert`, keys in row order.
///
/// One worker — a build side of at most one morsel, or a caller-only
/// executor's — is one partition on the calling thread, and the keys go
/// straight into its table. Above that the build has two phases. Phase 1:
/// workers claim morsels, extract each tuple's key and route
/// `(key, row id)` to its partition. Barrier. Phase 2: worker `w` folds
/// partition `w`'s fragments, in morsel order, into its table.
///
/// A panic or cancellation in phase 1 raises `abort`, and the
/// offending worker still reaches the barrier, so nobody waits
/// forever; phase 2 is then skipped and the panic surfaces as
/// [`GovernorError::WorkerPanic`].
fn build_parts<T, I>(
    dispatch: Dispatch<'_>,
    stats: &RefCell<ExecStats>,
    tuples: &[Tuple],
    cols: &[usize],
    with_capacity: fn(usize) -> T,
    insert: I,
) -> Result<Vec<T>, AlgebraError>
where
    T: Send,
    I: Fn(&mut T, Vec<Value>, usize) + Sync,
{
    type Fragment = (usize, Vec<(Vec<Value>, usize)>);
    let governor = dispatch.governor;
    let nparts = dispatch.workers;
    let parts = if nparts == 1 {
        let built = catch_unwind(AssertUnwindSafe(|| {
            let mut table = with_capacity(tuples.len());
            while let Some((mi, range)) = dispatch.claim() {
                chaos_morsel_hooks(mi);
                for rid in range {
                    insert(&mut table, key_of(&tuples[rid], cols), rid);
                }
            }
            table
        }));
        vec![built.map_err(|p| worker_panic(governor, panic_message(p)))?]
    } else {
        let barrier = Barrier::new(nparts);
        let routed: Vec<Mutex<Vec<Fragment>>> = (0..nparts).map(|_| Mutex::default()).collect();
        // Nothing but a `push` and a `take` ever runs under these locks, so
        // a poisoned one still guards a valid vector.
        let fragments_of = |p: usize| routed[p].lock().unwrap_or_else(PoisonError::into_inner);
        let built = on_workers(nparts, stats, |w| {
            let route = catch_unwind(AssertUnwindSafe(|| {
                while let Some((mi, range)) = dispatch.claim() {
                    chaos_morsel_hooks(mi);
                    let mut parts: Vec<Vec<(Vec<Value>, usize)>> = vec![Vec::new(); nparts];
                    for rid in range {
                        let key = key_of(&tuples[rid], cols);
                        let p = partition_of(&key, nparts);
                        parts[p].push((key, rid));
                    }
                    for (p, entries) in parts.into_iter().enumerate() {
                        fragments_of(p).push((mi, entries));
                    }
                }
            }));
            if route.is_err() {
                dispatch.abort();
            }
            // The barrier's own lock orders the abort above before every
            // worker's check below.
            barrier.wait();
            route?;
            if dispatch.aborted() {
                return Ok(None);
            }
            catch_unwind(AssertUnwindSafe(|| {
                let mut fragments = std::mem::take(&mut *fragments_of(w));
                fragments.sort_unstable_by_key(|&(mi, _)| mi);
                let len = fragments.iter().map(|(_, entries)| entries.len()).sum();
                let mut table = with_capacity(len);
                for (_, entries) in fragments {
                    for (key, rid) in entries {
                        insert(&mut table, key, rid);
                    }
                }
                Some(table)
            }))
        });
        let mut parts = Vec::with_capacity(nparts);
        for outcome in built {
            // Both layers of `Err` are a contained panic: the inner one
            // was caught by the worker itself, the outer one escaped it.
            match outcome.and_then(|contained| contained) {
                Ok(table) => parts.extend(table),
                Err(p) => return Err(worker_panic(governor, panic_message(p))),
            }
        }
        parts
    };
    if let Some(g) = governor {
        g.check("evaluate")?;
    }
    stats.borrow_mut().morsels += dispatch.nmorsels;
    Ok(parts)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{AlgebraExpr, Evaluator};
    use gq_storage::{tuple, Database, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation("member", Schema::anonymous(2)).unwrap();
        db.create_relation("skill", Schema::anonymous(2)).unwrap();
        for i in 0..500i64 {
            db.insert("member", tuple![i, i % 7]).unwrap();
            if i % 3 == 0 {
                db.insert("skill", tuple![i, i % 5]).unwrap();
            }
        }
        db
    }

    fn join_plan() -> AlgebraExpr {
        AlgebraExpr::Join {
            left: Box::new(AlgebraExpr::Relation("member".into())),
            right: Box::new(AlgebraExpr::Relation("skill".into())),
            on: vec![(0, 0)],
        }
    }

    fn complement_plan() -> AlgebraExpr {
        AlgebraExpr::ComplementJoin {
            left: Box::new(AlgebraExpr::Relation("member".into())),
            right: Box::new(AlgebraExpr::Relation("skill".into())),
            on: vec![(0, 0)],
        }
    }

    /// Results and stats (minus the dispatch counters) must be identical
    /// across thread counts — and the row *order* too, thanks to ordered
    /// morsel release.
    #[test]
    fn kernels_match_sequential_exactly() {
        let db = db();
        for plan in [join_plan(), complement_plan()] {
            let seq = Evaluator::new(&db);
            let expected = seq.eval(&plan).unwrap();
            for threads in [2, 4] {
                let par = Evaluator::new(&db)
                    .with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(64));
                let got = par.eval(&plan).unwrap();
                assert_eq!(
                    got.iter().collect::<Vec<_>>(),
                    expected.iter().collect::<Vec<_>>(),
                    "row order differs"
                );
                assert_eq!(
                    par.stats().without_dispatch_counters(),
                    seq.stats().without_dispatch_counters(),
                    "stats differ at {threads} threads"
                );
                assert!(par.stats().morsels > 0, "parallel path not taken");
                assert!(par.stats().workers_spawned > 0, "no helper spawned");
            }
        }
    }

    #[test]
    fn default_config_matches_host() {
        let c = ExecConfig::default();
        assert!(c.threads >= 1);
        assert_eq!(c.morsel_size, DEFAULT_MORSEL_SIZE);
        assert_eq!(ExecConfig::sequential().threads, 1);
        // Degenerate inputs are clamped, not honored.
        assert_eq!(ExecConfig::with_threads(0).threads, 1);
        assert_eq!(
            ExecConfig::with_threads(2).with_morsel_size(0).morsel_size,
            1
        );
    }

    #[test]
    fn single_morsel_input_falls_back_inline() {
        let db = db();
        let par = Evaluator::new(&db)
            .with_exec_config(ExecConfig::with_threads(4).with_morsel_size(100_000));
        let got = par.eval(&join_plan()).unwrap();
        let seq = Evaluator::new(&db);
        let expected = seq.eval(&join_plan()).unwrap();
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            expected.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            par.stats().without_dispatch_counters(),
            seq.stats().without_dispatch_counters()
        );
        assert_eq!(par.stats().workers_spawned, 0, "left the calling thread");
    }

    #[test]
    fn dispatch_rule_keeps_sub_morsel_work_on_the_caller() {
        assert_eq!(workers_for(8, 1024, 0), 1);
        assert_eq!(workers_for(8, 1024, 1024), 1);
        assert_eq!(workers_for(8, 1024, 1025), 2);
        assert_eq!(workers_for(2, 1024, 100_000), 2);
        assert_eq!(workers_for(1, 1024, 100_000), 1);
    }
}
