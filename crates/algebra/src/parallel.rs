//! Morsel-driven parallel batch execution.
//!
//! The pull-based evaluator of [`crate::eval`] is single-threaded by
//! construction: operators exchange tuples one at a time through boxed
//! iterators. This module provides the alternative batch executor behind
//! [`Evaluator::eval`](crate::Evaluator::eval): operators exchange
//! *morsels* — fixed-size tuple batches (default 1024) — and the
//! join-family operators run their build and probe phases on a scoped
//! worker pool (`std::thread::scope`; no external runtime).
//!
//! Design constraints, in order:
//!
//! 1. **Exactness.** The paper's claims are *operation counts*, so the
//!    batch executor charges [`ExecStats`] identically to the sequential
//!    evaluator — same counters, same amounts, per operator. Workers
//!    accumulate into private [`WorkerStats`] and the kernel folds them
//!    into the shared accumulator at the barrier that ends each phase;
//!    every counter is a per-tuple sum (or max), so the totals are
//!    independent of how morsels were dealt to workers. The only counter
//!    allowed to differ from the sequential path is `morsels` itself.
//! 2. **Determinism.** Kernels are order-preserving: morsel outputs are
//!    reassembled in morsel order, partitioned index buckets keep row ids
//!    ascending, and the stateful operators (dedup, grouping, division)
//!    run on the coordinating thread. The result relation is therefore
//!    bit-identical — same tuples in the same insertion order — across
//!    thread counts, and identical to the sequential evaluator's.
//! 3. **Short-circuits stay sequential.** `is_nonempty`, `eval_limit` and
//!    the closed-query connectives exist to *avoid* materializing; a
//!    batch executor cannot help them, so they always take the streaming
//!    path regardless of configuration (§3.2 of the paper).
//!
//! Dispatch follows one rule, written once here ([`workers_for`],
//! [`Dispatch`], [`on_workers`]) and shared with the push executor: work whose input
//! fits in one morsel never leaves the calling thread, and above that the
//! caller is worker 0 beside `workers − 1` scoped helpers.
//!
//! Hash builds are partitioned, one partition per worker: phase 1
//! extracts keys morsel-parallel and routes each to `hash(key) % nparts`;
//! after a barrier, phase 2 builds every partition's table on its own
//! worker — no concurrent map. A sub-morsel build is a single partition
//! built inline, so its probes skip the routing hash altogether.

use crate::eval::{
    arity_of, contains_literal, eval_predicate, fill_key, key_of, Evaluator, JoinAlgorithm,
};
use crate::{AlgebraError, AlgebraExpr, ExecStats, WorkerStats};
use gq_governor::{Governor, GovernorError};
use gq_storage::{HashIndex, Tuple, Value};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

/// Default number of tuples per morsel.
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// Execution configuration: worker count, morsel size, and execution
/// strategy.
///
/// With `streaming` (the default), [`Evaluator::eval`] runs the
/// push-based pipeline executor (`crate::push`) at every thread count; it
/// materializes only at pipeline breakers. With `streaming` off, every
/// thread count runs the legacy materializing batch executor of this
/// module — the node-per-`Vec` baseline that the peak-watermark
/// comparisons are measured against. `threads` is an upper bound, not a
/// demand: a kernel whose input fits in one `morsel_size` stays on the
/// calling thread whatever the count (DESIGN.md §9). The default
/// asks the OS for the available parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for parallel kernels (≥ 1).
    pub threads: usize,
    /// Tuples per morsel (≥ 1).
    pub morsel_size: usize,
    /// Stream pipelines, materializing only at breakers (default). `false`
    /// selects the legacy materializing executor at every thread count.
    pub streaming: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            morsel_size: DEFAULT_MORSEL_SIZE,
            streaming: true,
        }
    }
}

impl ExecConfig {
    /// The single-threaded streaming configuration.
    pub fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            morsel_size: DEFAULT_MORSEL_SIZE,
            streaming: true,
        }
    }

    /// A configuration with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
            morsel_size: DEFAULT_MORSEL_SIZE,
            streaming: true,
        }
    }

    /// Override the morsel size.
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size.max(1);
        self
    }

    /// Select between the streaming pipeline executor (`true`, default)
    /// and the legacy materializing batch executor (`false`).
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Does this configuration use a multi-threaded executor?
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

/// Evaluate `e` through the batch executor (entered from
/// [`Evaluator::eval`] when the configuration is parallel).
pub(crate) fn eval_parallel(
    ev: &Evaluator<'_>,
    e: &AlgebraExpr,
    arity: usize,
) -> Result<gq_storage::Relation, AlgebraError> {
    let exec = ParallelExec {
        ev,
        threads: ev.exec.threads.max(1),
        morsel_size: ev.exec.morsel_size.max(1),
    };
    let tuples = exec.node(e)?;
    let mut out = gq_storage::Relation::intermediate(arity);
    for t in tuples {
        // Output-budget enforcement happens here, on the coordinating
        // thread over the fully reassembled (morsel-ordered) result — so
        // the trip point is identical at any thread count, and identical
        // to the sequential drain's.
        if let Some(g) = &ev.governor {
            g.check_output("evaluate", out.len() as u64 + 1)?;
        }
        out.insert(t)?;
    }
    ev.stats.borrow_mut().tuples_emitted += out.len();
    Ok(out)
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
    governor: Option<&'g Governor>,
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

/// The batch executor: a thin coordinator around an [`Evaluator`], owning
/// the worker-pool kernels. Recursion happens on the coordinating thread;
/// only the per-morsel closures run on workers, and those never touch the
/// evaluator's `Rc`/`RefCell` state (the compiler enforces it — neither
/// is `Sync`). The push executor (`crate::push`) constructs one of these
/// too, purely to reuse the partitioned build kernels for its breaker
/// build sides.
pub(crate) struct ParallelExec<'a, 'db> {
    pub(crate) ev: &'a Evaluator<'db>,
    pub(crate) threads: usize,
    pub(crate) morsel_size: usize,
}

/// A hash-partitioned row-id index (the batch executor's analogue of the
/// sequential evaluator's single `HashMap` build side). Bucket row ids
/// are ascending, like a sequential scan-order build, so probe results
/// enumerate matches in the same order.
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

/// The probe structure of a parallel join-family build side.
pub(crate) enum ParProbe {
    /// Hash-partitioned key sets (one per partition).
    Parts(Vec<HashSet<Vec<Value>>>),
    /// A cached base-relation index, shared with workers via `Arc`.
    Index(Arc<HashIndex>),
}

impl ParProbe {
    pub(crate) fn contains(&self, t: &Tuple, cols: &[usize], scratch: &mut Vec<Value>) -> bool {
        match self {
            ParProbe::Parts(parts) => {
                fill_key(scratch, t, cols);
                parts[partition_of(scratch, parts.len())].contains(scratch.as_slice())
            }
            ParProbe::Index(idx) => idx.contains_key_with(t, cols, scratch),
        }
    }
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

/// Scoped live-intermediate accounting for the legacy materializing
/// executor: each operator arm charges the buffers it holds (child
/// inputs, build sides) to the evaluator's live counters on receipt and
/// releases them when the arm's scope ends, so the `peak_intermediate_*`
/// watermarks measure the true live set of the node-per-`Vec` baseline —
/// the figure the streaming executor's peaks are compared against. All
/// charges happen on the coordinating thread in structural plan order,
/// so the watermarks are identical across worker counts. Stats-only: the
/// governor's live memory budget is charged by `materialize` alone,
/// identically on both execution strategies.
struct LiveScope<'a, 'db> {
    ev: &'a Evaluator<'db>,
    tuples: usize,
    bytes: usize,
}

impl<'a, 'db> LiveScope<'a, 'db> {
    fn new(ev: &'a Evaluator<'db>) -> Self {
        LiveScope {
            ev,
            tuples: 0,
            bytes: 0,
        }
    }

    /// Charge a held buffer against the live watermark for the lifetime
    /// of this scope.
    fn charge(&mut self, tuples: &[Tuple]) {
        let arity = tuples.first().map(Tuple::arity).unwrap_or(0);
        let bytes = tuples.len() * gq_governor::estimate_tuple_bytes(arity) as usize;
        self.ev.charge_live(tuples.len(), bytes);
        self.tuples += tuples.len();
        self.bytes += bytes;
    }
}

impl Drop for LiveScope<'_, '_> {
    fn drop(&mut self) {
        self.ev.release_live(self.tuples, self.bytes);
    }
}

impl<'db> ParallelExec<'_, 'db> {
    /// Evaluate one plan node to a materialized tuple vector. The CSE
    /// gate runs first, on the coordinating thread — which is what keeps
    /// the `cse_*` counters identical across worker counts.
    fn node(&self, e: &AlgebraExpr) -> Result<Vec<Tuple>, AlgebraError> {
        if let Some(shared) = self.cse_get(e)? {
            return Ok(shared.as_ref().clone());
        }
        self.node_profiled(e)
    }

    /// The CSE gate of the batch executor, mirroring the sequential
    /// `Evaluator::cse_get` exactly: reuse answers from the cache, the
    /// first occurrence evaluates once through the parallel kernels and
    /// charges the same counters at the same (coordinator) points.
    fn cse_get(&self, e: &AlgebraExpr) -> Result<Option<Arc<Vec<Tuple>>>, AlgebraError> {
        let Some(cse) = &self.ev.cse else {
            return Ok(None);
        };
        if !crate::cse::is_shareable(e) {
            return Ok(None);
        }
        let key = e.to_string();
        if !cse.shared.contains(&key) {
            return Ok(None);
        }
        if let Some(hit) = cse.cache.borrow().get(&key) {
            self.ev.stats.borrow_mut().cse_reused += 1;
            if let Some(p) = &self.ev.profiler {
                p.annotate(e, "cse-reuse");
            }
            return Ok(Some(Arc::clone(hit)));
        }
        let tuples = Arc::new(self.node_profiled(e)?);
        self.charge_governor(&tuples)?;
        {
            let mut s = self.ev.stats.borrow_mut();
            s.cse_materialized += 1;
            s.record_intermediate(tuples.len());
        }
        cse.cache.borrow_mut().insert(key, Arc::clone(&tuples));
        Ok(Some(tuples))
    }

    /// `node` without the CSE gate, bracketing the evaluation
    /// for the profiler exactly like the sequential `stream` wrapper:
    /// the recorded delta is *inclusive* (children evaluate inside the
    /// parent's window) and the profiler subtracts children out at trace
    /// extraction, so the PR-1 conservation invariants hold unchanged.
    fn node_profiled(&self, e: &AlgebraExpr) -> Result<Vec<Tuple>, AlgebraError> {
        let profiler = match &self.ev.profiler {
            Some(p) if p.tracks(e) => Rc::clone(p),
            _ => return self.node_inner(e),
        };
        let before = self.ev.stats.borrow().clone();
        let start = Instant::now();
        let out = self.node_inner(e);
        let ns = start.elapsed().as_nanos() as u64;
        let delta = self.ev.stats.borrow().diff(&before);
        let rows = out.as_ref().map(|v| v.len() as u64).unwrap_or(0);
        profiler.record(e, &delta, ns, rows);
        out
    }

    /// Operator dispatch. Every arm charges [`ExecStats`] exactly as the
    /// sequential `stream_inner` would for a full drain of the same node.
    fn node_inner(&self, e: &AlgebraExpr) -> Result<Vec<Tuple>, AlgebraError> {
        self.ev.check_governor()?;
        self.ev.stats.borrow_mut().operators_evaluated += 1;
        match e {
            AlgebraExpr::Relation(name) => {
                #[cfg(feature = "chaos")]
                if let Some(msg) = gq_chaos::fail_scan(name) {
                    return Err(AlgebraError::Storage(gq_storage::StorageError::Io(msg)));
                }
                let rel = self
                    .ev
                    .db
                    .relation(name)
                    .map_err(|_| AlgebraError::UnknownRelation(name.clone()))?;
                let mut s = self.ev.stats.borrow_mut();
                s.base_scans += 1;
                s.base_tuples_read += rel.len();
                Ok(rel.iter().cloned().collect())
            }
            AlgebraExpr::Literal(r) => {
                let mut s = self.ev.stats.borrow_mut();
                s.base_scans += 1;
                s.base_tuples_read += r.len();
                Ok(r.iter().cloned().collect())
            }
            AlgebraExpr::Select { input, predicate } => {
                let input = self.node(input)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&input);
                let filtered = self.par_chunks(&input, |ws, _mi, chunk| {
                    chunk
                        .iter()
                        .filter(|t| eval_predicate(predicate, t, &mut ws.stats))
                        .cloned()
                        .collect::<Vec<_>>()
                })?;
                Ok(flatten(filtered))
            }
            AlgebraExpr::Project { input, positions } => {
                let input = self.node(input)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&input);
                let mut seen: HashSet<Tuple> = HashSet::new();
                Ok(input
                    .iter()
                    .filter_map(|t| {
                        let p = t.project(positions);
                        seen.insert(p.clone()).then_some(p)
                    })
                    .collect())
            }
            AlgebraExpr::GroupCount { input, group } => {
                let tuples = self.materialize(input)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&tuples);
                let mut counts: HashMap<Tuple, i64> = HashMap::new();
                let mut order: Vec<Tuple> = Vec::new();
                for t in tuples.iter() {
                    let key = t.project(group);
                    let entry = counts.entry(key.clone()).or_insert_with(|| {
                        order.push(key);
                        0
                    });
                    *entry += 1;
                    self.ev.stats.borrow_mut().comparisons += 1;
                }
                Ok(order
                    .into_iter()
                    .map(|k| {
                        let n = counts[&k];
                        k.extended_with(Value::Int(n))
                    })
                    .collect())
            }
            AlgebraExpr::Product { left, right } => {
                let right_tuples = self.materialize(right)?;
                let left = self.node(left)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&right_tuples);
                scope.charge(&left);
                let out = self.par_chunks(&left, |ws, _mi, chunk| {
                    let mut out = Vec::with_capacity(chunk.len() * right_tuples.len());
                    for l in chunk {
                        ws.stats.comparisons += right_tuples.len();
                        out.extend(right_tuples.iter().map(|r| l.concat(r)));
                    }
                    out
                })?;
                Ok(flatten(out))
            }
            AlgebraExpr::Join { left, right, on } => {
                if self.ev.join_algorithm == JoinAlgorithm::SortMerge {
                    // Sort-merge is the sequential ablation baseline; it
                    // is not morsel-ized (the paper's join family is
                    // hash-based). Delegate, charging identically.
                    return Ok(self.ev.sort_merge_join(left, right, on)?.collect());
                }
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                // Cached-index fast path: probe the persistent index in
                // parallel; the right subtree is not evaluated at all.
                if let (Some(cache), AlgebraExpr::Relation(name)) = (self.ev.index_cache, &**right)
                {
                    if let Some(p) = &self.ev.profiler {
                        p.annotate(right, "cached-index");
                    }
                    let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
                    let stats = self.ev.stats.clone();
                    let idx = cache
                        .get_or_build(self.ev.db, name, &right_cols, |len| {
                            let mut s = stats.borrow_mut();
                            s.base_scans += 1;
                            s.base_tuples_read += len;
                        })
                        .map_err(AlgebraError::Storage)?;
                    let rel = self
                        .ev
                        .db
                        .relation(name)
                        .map_err(|_| AlgebraError::UnknownRelation(name.clone()))?;
                    let left = self.node(left)?;
                    let mut scope = LiveScope::new(self.ev);
                    scope.charge(&left);
                    let out = self.par_chunks(&left, |ws, _mi, chunk| {
                        let mut scratch: Vec<Value> = Vec::new();
                        let mut out = Vec::new();
                        for l in chunk {
                            ws.stats.probes += 1;
                            let matches = idx.probe_with(l, &left_cols, &mut scratch);
                            ws.stats.comparisons += matches.len().max(1);
                            out.extend(matches.iter().map(|&rid| l.concat(&rel.tuples()[rid])));
                        }
                        out
                    })?;
                    return Ok(flatten(out));
                }
                let right_tuples = self.materialize(right)?;
                let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
                let index = self.build_part_index(&right_tuples, &right_cols)?;
                let left = self.node(left)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&right_tuples);
                scope.charge(&left);
                let out = self.par_chunks(&left, |ws, _mi, chunk| {
                    let mut scratch: Vec<Value> = Vec::new();
                    let mut out = Vec::new();
                    for l in chunk {
                        fill_key(&mut scratch, l, &left_cols);
                        ws.stats.probes += 1;
                        let matches = index.get(&scratch);
                        ws.stats.comparisons += matches.len().max(1);
                        out.extend(matches.iter().map(|&rid| l.concat(&right_tuples[rid])));
                    }
                    out
                })?;
                Ok(flatten(out))
            }
            AlgebraExpr::SemiJoin { left, right, on } => {
                let mut scope = LiveScope::new(self.ev);
                let probe = self.build_probe(right, on, &mut scope)?;
                let left = self.node(left)?;
                scope.charge(&left);
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let out = self.par_chunks(&left, |ws, _mi, chunk| {
                    let mut scratch: Vec<Value> = Vec::new();
                    chunk
                        .iter()
                        .filter(|l| {
                            ws.stats.probes += 1;
                            ws.stats.comparisons += 1;
                            probe.contains(l, &left_cols, &mut scratch)
                        })
                        .cloned()
                        .collect::<Vec<_>>()
                })?;
                Ok(flatten(out))
            }
            AlgebraExpr::ComplementJoin { left, right, on } => {
                let mut scope = LiveScope::new(self.ev);
                let probe = self.build_probe(right, on, &mut scope)?;
                let left = self.node(left)?;
                scope.charge(&left);
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let out = self.par_chunks(&left, |ws, _mi, chunk| {
                    let mut scratch: Vec<Value> = Vec::new();
                    chunk
                        .iter()
                        .filter(|l| {
                            ws.stats.probes += 1;
                            ws.stats.comparisons += 1;
                            !probe.contains(l, &left_cols, &mut scratch)
                        })
                        .cloned()
                        .collect::<Vec<_>>()
                })?;
                Ok(flatten(out))
            }
            AlgebraExpr::Division { left, right, on } => {
                // Inputs materialize through the parallel kernels; the
                // grouping sweep itself is inherently sequential and
                // shares the evaluator's implementation (and charging).
                let left_arity = arity_of(left, self.ev.db)?;
                let right_tuples = self.materialize(right)?;
                let left_tuples = self.materialize(left)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&right_tuples);
                scope.charge(&left_tuples);
                Ok(self.ev.divide(&left_tuples, &right_tuples, left_arity, on))
            }
            AlgebraExpr::Union { left, right } => {
                let left = self.node(left)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&left);
                let right = self.node(right)?;
                scope.charge(&right);
                let mut seen: HashSet<Tuple> = HashSet::new();
                Ok(left
                    .into_iter()
                    .chain(right)
                    .filter(|t| seen.insert(t.clone()))
                    .collect())
            }
            AlgebraExpr::Difference { left, right } => {
                let right_tuples = self.materialize(right)?;
                let keys: HashSet<Tuple> = right_tuples.iter().cloned().collect();
                let left = self.node(left)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&right_tuples);
                scope.charge(&left);
                let out = self.par_chunks(&left, |ws, _mi, chunk| {
                    chunk
                        .iter()
                        .filter(|t| {
                            ws.stats.comparisons += 1;
                            !keys.contains(*t)
                        })
                        .cloned()
                        .collect::<Vec<_>>()
                })?;
                Ok(flatten(out))
            }
            AlgebraExpr::LeftOuterJoin { left, right, on } => {
                let right_tuples = self.materialize(right)?;
                let pad_arity = match right_tuples.first().map(Tuple::arity) {
                    Some(a) => a,
                    None => arity_of(right, self.ev.db)?,
                };
                let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
                let index = self.build_part_index(&right_tuples, &right_cols)?;
                let left = self.node(left)?;
                let mut scope = LiveScope::new(self.ev);
                scope.charge(&right_tuples);
                scope.charge(&left);
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let out = self.par_chunks(&left, |ws, _mi, chunk| {
                    let mut scratch: Vec<Value> = Vec::new();
                    let mut out = Vec::new();
                    for l in chunk {
                        fill_key(&mut scratch, l, &left_cols);
                        ws.stats.probes += 1;
                        let matches = index.get(&scratch);
                        ws.stats.comparisons += matches.len().max(1);
                        if matches.is_empty() {
                            let nulls = Tuple::new(vec![Value::Null; pad_arity]);
                            out.push(l.concat(&nulls));
                        } else {
                            out.extend(matches.iter().map(|&rid| l.concat(&right_tuples[rid])));
                        }
                    }
                    out
                })?;
                Ok(flatten(out))
            }
            AlgebraExpr::ConstrainedOuterJoin {
                left,
                right,
                on,
                constraint,
            } => {
                let mut scope = LiveScope::new(self.ev);
                let probe = self.build_probe(right, on, &mut scope)?;
                let left = self.node(left)?;
                scope.charge(&left);
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let out = self.par_chunks(&left, |ws, _mi, chunk| {
                    let mut scratch: Vec<Value> = Vec::new();
                    chunk
                        .iter()
                        .map(|l| {
                            let marker = if constraint.satisfied_by(l) {
                                ws.stats.probes += 1;
                                ws.stats.comparisons += 1;
                                if probe.contains(l, &left_cols, &mut scratch) {
                                    Value::Matched
                                } else {
                                    Value::Null
                                }
                            } else {
                                // Definition 7, third set: no probe.
                                Value::Null
                            };
                            l.extended_with(marker)
                        })
                        .collect::<Vec<_>>()
                })?;
                Ok(flatten(out))
            }
        }
    }

    /// Materialize a sub-expression through the parallel kernels,
    /// mirroring the sequential `Evaluator::materialize` memo discipline
    /// (same keys, same hit charging, same annotations).
    fn materialize(&self, e: &AlgebraExpr) -> Result<Arc<Vec<Tuple>>, AlgebraError> {
        // CSE gate before the memo, in the same order as the sequential
        // `Evaluator::materialize` — so when both caches are enabled the
        // same one answers on either path.
        if let Some(shared) = self.cse_get(e)? {
            return Ok(shared);
        }
        let key = match &self.ev.memo {
            Some(memo) if !contains_literal(e) => {
                let key = e.to_string();
                if let Some(hit) = memo.borrow().get(&key) {
                    self.ev.stats.borrow_mut().memo_hits += 1;
                    if let Some(p) = &self.ev.profiler {
                        p.annotate(e, "memo-hit");
                    }
                    return Ok(Arc::clone(hit));
                }
                Some(key)
            }
            _ => None,
        };
        let tuples = Arc::new(self.node(e)?);
        self.charge_governor(&tuples)?;
        self.ev.stats.borrow_mut().record_intermediate(tuples.len());
        if let (Some(memo), Some(key)) = (&self.ev.memo, key) {
            memo.borrow_mut().insert(key, Arc::clone(&tuples));
        }
        Ok(tuples)
    }

    /// Charge a freshly materialized buffer against the governor's
    /// intermediate-tuple and memory budgets, tuple by tuple with the same
    /// byte estimate as the pull path's `collect_governed` — so a budget
    /// trips with the same `used` on every executor, and the slow log's
    /// tuple watermark is not blind to profiled parallel runs. The bytes
    /// stay charged until the query's governor drops, which is also when
    /// the pull path's parked guards release theirs.
    fn charge_governor(&self, tuples: &[Tuple]) -> Result<(), AlgebraError> {
        if let Some(g) = &self.ev.governor {
            for t in tuples {
                let bytes = gq_governor::estimate_tuple_bytes(t.arity());
                g.charge_intermediate("evaluate", 1, bytes)?;
            }
        }
        Ok(())
    }

    /// Build the probe side of a semi/complement/marker join: the cached
    /// base-relation index when available (right subtree not evaluated),
    /// hash-partitioned key sets otherwise. A freshly materialized build
    /// side is charged to the caller's live scope.
    fn build_probe(
        &self,
        right: &AlgebraExpr,
        on: &[(usize, usize)],
        scope: &mut LiveScope<'_, 'db>,
    ) -> Result<ParProbe, AlgebraError> {
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        if let (Some(cache), AlgebraExpr::Relation(name)) = (self.ev.index_cache, right) {
            if let Some(p) = &self.ev.profiler {
                p.annotate(right, "cached-index");
            }
            let stats = self.ev.stats.clone();
            let idx = cache
                .get_or_build(self.ev.db, name, &right_cols, |len| {
                    let mut s = stats.borrow_mut();
                    s.base_scans += 1;
                    s.base_tuples_read += len;
                })
                .map_err(AlgebraError::Storage)?;
            return Ok(ParProbe::Index(idx));
        }
        let tuples = self.materialize(right)?;
        scope.charge(&tuples);
        Ok(ParProbe::Parts(self.build_part_keys(&tuples, &right_cols)?))
    }

    /// Partitioned build of a row-id index. Every bucket's row ids are
    /// ascending — matching a sequential scan-order build.
    pub(crate) fn build_part_index(
        &self,
        tuples: &[Tuple],
        cols: &[usize],
    ) -> Result<PartIndex, AlgebraError> {
        let parts = self.build_parts(
            tuples,
            cols,
            |m: &mut HashMap<Vec<Value>, Vec<usize>>, key, rid| m.entry(key).or_default().push(rid),
        )?;
        Ok(PartIndex { parts })
    }

    /// Partitioned build of key *sets* (the probe side of semi,
    /// complement and marker joins).
    pub(crate) fn build_part_keys(
        &self,
        tuples: &[Tuple],
        cols: &[usize],
    ) -> Result<Vec<HashSet<Vec<Value>>>, AlgebraError> {
        self.build_parts(tuples, cols, |set: &mut HashSet<Vec<Value>>, key, _rid| {
            set.insert(key);
        })
    }

    /// The two-phase partitioned build behind both probe structures, as
    /// one dispatch with one partition per worker. Phase 1: workers claim
    /// morsels, extract each tuple's key and route `(key, row id)` to its
    /// partition. Barrier. Phase 2: worker `w` folds partition `w`'s
    /// fragments, in morsel order, into its table with `insert`. A build
    /// side of at most one morsel is one worker — the caller — and one
    /// partition.
    ///
    /// A panic or cancellation in phase 1 raises `abort`, and the
    /// offending worker still reaches the barrier, so nobody waits
    /// forever; phase 2 is then skipped and the panic surfaces as
    /// [`GovernorError::WorkerPanic`].
    fn build_parts<T, I>(
        &self,
        tuples: &[Tuple],
        cols: &[usize],
        insert: I,
    ) -> Result<Vec<T>, AlgebraError>
    where
        T: Default + Send,
        I: Fn(&mut T, Vec<Value>, usize) + Sync,
    {
        type Fragment = (usize, Vec<(Vec<Value>, usize)>);
        let governor = self.ev.governor.as_ref();
        let dispatch = Dispatch::new(self.threads, self.morsel_size, tuples.len(), governor);
        let nparts = dispatch.workers;
        let barrier = Barrier::new(nparts);
        let routed: Vec<Mutex<Vec<Fragment>>> = (0..nparts).map(|_| Mutex::default()).collect();
        // Nothing but a `push` and a `take` ever runs under these locks, so
        // a poisoned one still guards a valid vector.
        let fragments_of = |p: usize| routed[p].lock().unwrap_or_else(PoisonError::into_inner);
        let built = on_workers(nparts, &self.ev.stats, |w| {
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
                let mut table = T::default();
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
        if let Some(g) = governor {
            g.check("evaluate")?;
        }
        self.ev.stats.borrow_mut().morsels += dispatch.nmorsels;
        Ok(parts)
    }

    /// The morsel dispatcher. Splits `input` into morsels, deals them to
    /// the workers [`on_workers`] provides via an atomic cursor (work
    /// stealing at morsel granularity), and returns the per-morsel
    /// results *in morsel order*. Each worker charges into a private
    /// [`WorkerStats`]; all of them are folded into the shared
    /// accumulator at the barrier, so the merged totals are
    /// distribution-independent.
    ///
    /// Robustness: every morsel runs under `catch_unwind`, so a panic in
    /// one worker raises an abort flag (stopping the other workers at
    /// their next claim), drains cleanly through the scope join, and
    /// surfaces as [`GovernorError::WorkerPanic`] — the engine stays
    /// reusable. Workers also poll the governor's cancel flag / deadline
    /// between morsels, so no query overruns its deadline by more than
    /// one morsel's work.
    fn par_chunks<R, F>(&self, input: &[Tuple], f: F) -> Result<Vec<R>, AlgebraError>
    where
        R: Send,
        F: Fn(&mut WorkerStats, usize, &[Tuple]) -> R + Sync,
    {
        let governor = self.ev.governor.as_ref();
        let dispatch = Dispatch::new(self.threads, self.morsel_size, input.len(), governor);
        let joined = on_workers(dispatch.workers, &self.ev.stats, |w| {
            let mut ws = WorkerStats::new(w);
            let mut out: Vec<(usize, R)> = Vec::new();
            let mut panicked: Option<String> = None;
            while let Some((mi, range)) = dispatch.claim() {
                ws.morsels += 1;
                match catch_unwind(AssertUnwindSafe(|| {
                    chaos_morsel_hooks(mi);
                    f(&mut ws, mi, &input[range])
                })) {
                    Ok(r) => out.push((mi, r)),
                    Err(p) => {
                        panicked = Some(panic_message(p));
                        dispatch.abort();
                        break;
                    }
                }
            }
            (out, ws, panicked)
        });
        // Barrier: fold worker counters into the shared accumulator and
        // reassemble outputs in morsel order. Counters merge even on the
        // error paths so partially-done work stays observable.
        let mut results: Vec<(usize, R)> = Vec::with_capacity(dispatch.nmorsels);
        let mut first_panic: Option<String> = None;
        {
            let mut shared = self.ev.stats.borrow_mut();
            for outcome in joined {
                let panicked = match outcome {
                    Ok((out, ws, panicked)) => {
                        results.extend(out);
                        ws.merge_into(&mut shared);
                        panicked
                    }
                    // Unreachable in practice (worker bodies catch), but a
                    // panic between catch sites must not go unreported.
                    Err(p) => Some(panic_message(p)),
                };
                if first_panic.is_none() {
                    first_panic = panicked;
                }
            }
        }
        if let Some(message) = first_panic {
            return Err(worker_panic(governor, message));
        }
        if let Some(g) = governor {
            g.check("evaluate")?;
        }
        results.sort_unstable_by_key(|&(mi, _)| mi);
        Ok(results.into_iter().map(|(_, r)| r).collect())
    }
}

/// Concatenate per-morsel outputs (already in morsel order).
fn flatten(chunks: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::Evaluator;
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
    /// across thread counts and both execution strategies — and the row
    /// *order* too, thanks to ordered morsel reassembly.
    #[test]
    fn kernels_match_sequential_exactly() {
        let db = db();
        for plan in [join_plan(), complement_plan()] {
            let seq = Evaluator::new(&db);
            let expected = seq.eval(&plan).unwrap();
            for threads in [2, 4] {
                for streaming in [true, false] {
                    let par = Evaluator::new(&db).with_exec_config(
                        ExecConfig::with_threads(threads)
                            .with_morsel_size(64)
                            .with_streaming(streaming),
                    );
                    let got = par.eval(&plan).unwrap();
                    assert_eq!(got.tuples(), expected.tuples(), "row order differs");
                    assert_eq!(
                        par.stats().without_dispatch_counters(),
                        seq.stats().without_dispatch_counters(),
                        "stats differ at {threads} threads (streaming={streaming})"
                    );
                    assert!(par.stats().morsels > 0, "parallel path not taken");
                    assert!(par.stats().workers_spawned > 0, "no helper spawned");
                }
            }
        }
    }

    /// The legacy materializing executor also runs at one thread when
    /// streaming is disabled (it is the peak-watermark baseline), and its
    /// answers match the pull drain there too.
    #[test]
    fn materializing_baseline_runs_single_threaded() {
        let db = db();
        let seq = Evaluator::new(&db);
        let expected = seq.eval(&join_plan()).unwrap();
        let legacy =
            Evaluator::new(&db).with_exec_config(ExecConfig::sequential().with_streaming(false));
        let got = legacy.eval(&join_plan()).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        assert_eq!(
            legacy.stats().without_dispatch_counters(),
            seq.stats().without_dispatch_counters()
        );
        assert!(
            legacy.stats().peak_intermediate_tuples > 0,
            "baseline live accounting not charged"
        );
    }

    #[test]
    fn default_config_matches_host() {
        let c = ExecConfig::default();
        assert!(c.threads >= 1);
        assert_eq!(c.morsel_size, DEFAULT_MORSEL_SIZE);
        assert!(c.streaming, "streaming is the default strategy");
        assert!(ExecConfig::sequential().streaming);
        assert!(ExecConfig::with_threads(8).streaming);
        assert!(!ExecConfig::with_threads(2).with_streaming(false).streaming);
        assert!(!ExecConfig::sequential().is_parallel());
        assert!(ExecConfig::with_threads(8).is_parallel());
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
        for streaming in [true, false] {
            let par = Evaluator::new(&db).with_exec_config(
                ExecConfig::with_threads(4)
                    .with_morsel_size(100_000)
                    .with_streaming(streaming),
            );
            let got = par.eval(&join_plan()).unwrap();
            let seq = Evaluator::new(&db);
            let expected = seq.eval(&join_plan()).unwrap();
            assert_eq!(got.tuples(), expected.tuples());
            assert_eq!(
                par.stats().without_dispatch_counters(),
                seq.stats().without_dispatch_counters()
            );
            assert_eq!(par.stats().workers_spawned, 0, "left the calling thread");
        }
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
