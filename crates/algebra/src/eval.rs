//! The evaluator and its lazy pull stream.
//!
//! Two mechanisms cooperate behind one [`Evaluator`], and nothing selects
//! between them — each does the part only it can do:
//!
//! * [`Evaluator::eval`] runs a plan to completion through the push
//!   pipelines of `crate::push`, at every thread count;
//! * [`Evaluator::stream`] exposes any operator as a tuple iterator, so a
//!   consumer that stops early (the non-emptiness test of §3.2, a LIMIT)
//!   reads no more input than it needs — a morsel-granular sink would read
//!   up to a morsel where the paper reads one tuple. The push pipelines
//!   materialize their breakers (build sides of join-family operators,
//!   both inputs of division) by draining this same stream.
//!
//! The evaluator accumulates [`ExecStats`] so the paper's operation-count
//! claims (relations searched once, no unnecessary tuple accesses, no
//! cartesian blow-up) can be checked by tests and reported by benches.

use crate::parallel::ExecConfig;
use crate::profile::PlanProfiler;
use crate::{AlgebraError, AlgebraExpr, ExecStats, Operand, Predicate};
use gq_governor::Governor;
use gq_storage::{Database, Relation, Tuple, Value};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// A pipeline lifecycle signal, delivered synchronously on the
/// coordinating thread to the hook installed with
/// [`Evaluator::with_pipeline_hook`] (the engine bridges these into the
/// flight recorder). Pipeline ids are allocated in structural plan order
/// by the coordinator, so the event sequence for a given plan is
/// deterministic and identical across worker-thread counts.
#[derive(Debug, Clone, Copy)]
pub enum PipelineEvent {
    /// A pipeline began executing (id 0 is the root output pipeline;
    /// breaker build sides get fresh ids as they materialize).
    Start {
        /// Coordinator-assigned pipeline id.
        id: u64,
    },
    /// A pipeline completed at its breaker (or the root sink), having
    /// materialized `tuples` tuples. `kind` names the breaker
    /// (`join-build`, `probe-build`, `output`, … or `aborted` when the
    /// pipeline unwound with an error).
    Break {
        /// Coordinator-assigned pipeline id.
        id: u64,
        /// Breaker kind.
        kind: &'static str,
        /// Tuples materialized by the pipeline.
        tuples: u64,
    },
}

/// Observer for [`PipelineEvent`]s. Runs on the query's coordinating
/// thread; keep it cheap.
pub type PipelineHook = Rc<dyn Fn(&PipelineEvent)>;

/// A completed pipeline break recorded by the evaluator — the substrate
/// of the `:analyze` pipeline annotation. `live_*` snapshot the live
/// intermediate watermark *after* this breaker's build was charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineBreak {
    /// Coordinator-assigned pipeline id (0 = root output pipeline).
    pub id: u64,
    /// Breaker kind (`join-build`, `output`, `aborted`, …).
    pub kind: &'static str,
    /// Tuples materialized by the pipeline.
    pub tuples: u64,
    /// Live intermediate tuples at the break.
    pub live_tuples: u64,
    /// Estimated live intermediate bytes at the break.
    pub live_bytes: u64,
}

/// Coordinator-side counters of *currently live* intermediate tuples and
/// estimated bytes. Charged when a breaker build side materializes,
/// released when the owning buffer is logically freed (see
/// [`LiveGuard`]); the running maximum feeds the
/// `peak_intermediate_tuples` / `peak_intermediate_bytes` watermarks.
#[derive(Default)]
pub(crate) struct LiveCell {
    tuples: Cell<usize>,
    bytes: Cell<usize>,
}

/// RAII release of a live-intermediate charge: dropping the guard
/// subtracts the buffer from the live counters and returns its bytes to
/// the governor's live memory budget. Buffers materialized inside the pull
/// stream park their guards in the evaluator's stash, dropped at the next
/// public entry point (or when the evaluator is dropped at query end). The push
/// coordinator instead holds guards itself, keyed by the chain depth of
/// the probe op each build side feeds, and drops them the moment that op
/// unwinds — so a union of semi-join chains peaks at its largest branch
/// build, not the sum of all of them. All drops happen on the
/// coordinating thread in structural plan order, which keeps the
/// watermark deterministic across worker counts.
pub(crate) struct LiveGuard {
    live: Rc<LiveCell>,
    governor: Option<Governor>,
    tuples: usize,
    bytes: usize,
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.live
            .tuples
            .set(self.live.tuples.get().saturating_sub(self.tuples));
        self.live
            .bytes
            .set(self.live.bytes.get().saturating_sub(self.bytes));
        if let Some(g) = &self.governor {
            g.release_memory(self.bytes as u64);
        }
    }
}

/// A boxed tuple stream.
pub type TupleIter<'e> = Box<dyn Iterator<Item = Tuple> + 'e>;

/// Compute the output arity of an expression without evaluating it,
/// validating column references along the way.
pub fn arity_of(e: &AlgebraExpr, db: &Database) -> Result<usize, AlgebraError> {
    match e {
        AlgebraExpr::Relation(name) => Ok(db
            .relation(name)
            .map_err(|_| AlgebraError::UnknownRelation(name.clone()))?
            .arity()),
        AlgebraExpr::Literal(r) => Ok(r.arity()),
        AlgebraExpr::Select { input, predicate } => {
            let a = arity_of(input, db)?;
            if let Some(m) = predicate.max_col() {
                if m >= a {
                    return Err(AlgebraError::PositionOutOfRange {
                        op: "select",
                        position: m,
                        arity: a,
                    });
                }
            }
            Ok(a)
        }
        AlgebraExpr::Project { input, positions } => {
            let a = arity_of(input, db)?;
            for &p in positions {
                if p >= a {
                    return Err(AlgebraError::PositionOutOfRange {
                        op: "project",
                        position: p,
                        arity: a,
                    });
                }
            }
            Ok(positions.len())
        }
        AlgebraExpr::GroupCount { input, group } => {
            let a = arity_of(input, db)?;
            for &g in group {
                if g >= a {
                    return Err(AlgebraError::PositionOutOfRange {
                        op: "group-count",
                        position: g,
                        arity: a,
                    });
                }
            }
            Ok(group.len() + 1)
        }
        AlgebraExpr::Product { left, right } => Ok(arity_of(left, db)? + arity_of(right, db)?),
        AlgebraExpr::Join { left, right, on } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            check_on("join", on, l, r)?;
            Ok(l + r)
        }
        AlgebraExpr::SemiJoin { left, right, on } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            check_on("semi-join", on, l, r)?;
            Ok(l)
        }
        AlgebraExpr::ComplementJoin { left, right, on } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            check_on("complement-join", on, l, r)?;
            Ok(l)
        }
        AlgebraExpr::Division { left, right, on } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            check_on("division", on, l, r)?;
            Ok(l - on.len())
        }
        AlgebraExpr::Union { left, right } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            if l != r {
                return Err(AlgebraError::ArityMismatch {
                    op: "union",
                    left: l,
                    right: r,
                });
            }
            Ok(l)
        }
        AlgebraExpr::Difference { left, right } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            if l != r {
                return Err(AlgebraError::ArityMismatch {
                    op: "difference",
                    left: l,
                    right: r,
                });
            }
            Ok(l)
        }
        AlgebraExpr::LeftOuterJoin { left, right, on } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            check_on("outer-join", on, l, r)?;
            Ok(l + r)
        }
        AlgebraExpr::ConstrainedOuterJoin {
            left,
            right,
            on,
            constraint,
        } => {
            let (l, r) = (arity_of(left, db)?, arity_of(right, db)?);
            check_on("constrained-outer-join", on, l, r)?;
            for &(c, _) in &constraint.tests {
                if c >= l {
                    return Err(AlgebraError::PositionOutOfRange {
                        op: "constrained-outer-join",
                        position: c,
                        arity: l,
                    });
                }
            }
            Ok(l + 1)
        }
    }
}

fn check_on(
    op: &'static str,
    on: &[(usize, usize)],
    left: usize,
    right: usize,
) -> Result<(), AlgebraError> {
    for &(l, r) in on {
        if l >= left {
            return Err(AlgebraError::PositionOutOfRange {
                op,
                position: l,
                arity: left,
            });
        }
        if r >= right {
            return Err(AlgebraError::PositionOutOfRange {
                op,
                position: r,
                arity: right,
            });
        }
    }
    Ok(())
}

/// The plan evaluator: holds the database and a shared stats accumulator.
pub struct Evaluator<'db> {
    pub(crate) db: &'db Database,
    pub(crate) stats: Rc<RefCell<ExecStats>>,
    /// Per-node runtime attribution (EXPLAIN ANALYZE). `None` — the
    /// common case — keeps the hot path free of snapshots and timers.
    pub(crate) profiler: Option<Rc<PlanProfiler>>,
    /// Morsel-driven execution configuration; a bare `Evaluator`
    /// defaults to `threads == 1`, which never leaves the calling thread.
    pub(crate) exec: ExecConfig,
    /// Resource governor: cancellation, deadline and tuple/memory budgets,
    /// polled cooperatively at drain-loop and morsel boundaries. `None`
    /// (the default) keeps the hot paths check-free.
    pub(crate) governor: Option<Governor>,
    /// Live intermediate tuple/byte counters (coordinator-side), feeding
    /// the `peak_intermediate_*` watermarks.
    pub(crate) live: Rc<LiveCell>,
    /// Parked [`LiveGuard`]s for buffers materialized during the current
    /// evaluation; cleared (releasing the charges) at the next public
    /// entry point or on drop.
    pub(crate) live_stash: RefCell<Vec<LiveGuard>>,
    /// Next pipeline id (coordinator-assigned, structural order).
    pub(crate) pipeline_next: Cell<u64>,
    /// Pipeline breaks recorded this evaluation (`:analyze` substrate).
    pub(crate) breaks: RefCell<Vec<PipelineBreak>>,
    /// Optional observer for pipeline lifecycle events.
    pub(crate) pipeline_hook: Option<PipelineHook>,
}

impl<'db> Evaluator<'db> {
    /// Create an evaluator over a database.
    pub fn new(db: &'db Database) -> Self {
        Evaluator {
            db,
            stats: Rc::new(RefCell::new(ExecStats::new())),
            profiler: None,
            exec: ExecConfig::sequential(),
            governor: None,
            live: Rc::new(LiveCell::default()),
            live_stash: RefCell::new(Vec::new()),
            pipeline_next: Cell::new(0),
            breaks: RefCell::new(Vec::new()),
            pipeline_hook: None,
        }
    }

    /// Attach a resource governor. The result sink and every breaker
    /// build check cancellation and the deadline every
    /// [`ExecConfig::morsel_size`] tuples and the output/intermediate
    /// budgets per emitted/materialized tuple; workers poll cancellation
    /// between morsels, and budget limits are enforced only at
    /// coordinator points so trip behaviour is identical across thread
    /// counts.
    pub fn with_governor(mut self, governor: Governor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Configure morsel-driven execution (see [`ExecConfig`]).
    ///
    /// [`Evaluator::eval`] runs the push pipelines whatever the values:
    /// the join family builds hash-partitioned tables and probes them
    /// morsel by morsel, on the calling thread alone when an input fits
    /// in one morsel (or `threads == 1`) and beside `threads − 1` scoped
    /// helpers otherwise. The short-circuiting entry points
    /// ([`Evaluator::is_nonempty`], [`Evaluator::eval_limit`]) pull
    /// tuple-at-a-time — their whole point is to stop at the first
    /// witness, which a morsel-granular sink cannot.
    pub fn with_exec_config(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// The current execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// Attach a per-node profiler (see [`PlanProfiler`]): stats deltas
    /// and busy time are attributed to the plan node that did the work —
    /// per fused operator and per breaker in the push pipelines, per
    /// stream in the pull path — on the same code that runs unprofiled.
    /// Without a profiler the evaluator takes no stats snapshot and
    /// performs no timing syscalls.
    pub fn with_profiler(mut self, profiler: Rc<PlanProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Install an observer for pipeline lifecycle events (see
    /// [`PipelineEvent`]). The engine uses this to bridge pipeline
    /// starts/breaks into the flight recorder; the hook runs on the
    /// coordinating thread only.
    pub fn with_pipeline_hook(mut self, hook: PipelineHook) -> Self {
        self.pipeline_hook = Some(hook);
        self
    }

    /// The pipeline breaks recorded so far (structural order): one per
    /// materialized breaker build side, plus the root output pipeline.
    pub fn pipeline_breaks(&self) -> Vec<PipelineBreak> {
        self.breaks.borrow().clone()
    }

    /// Charge `tuples`/`bytes` to the live intermediate counters and
    /// fold the new totals into the peak watermarks.
    pub(crate) fn charge_live(&self, tuples: usize, bytes: usize) {
        self.live.tuples.set(self.live.tuples.get() + tuples);
        self.live.bytes.set(self.live.bytes.get() + bytes);
        let mut s = self.stats.borrow_mut();
        s.peak_intermediate_tuples = s.peak_intermediate_tuples.max(self.live.tuples.get());
        s.peak_intermediate_bytes = s.peak_intermediate_bytes.max(self.live.bytes.get());
    }

    /// Allocate the next pipeline id and emit its start event.
    pub(crate) fn begin_pipeline(&self) -> u64 {
        let id = self.pipeline_next.get();
        self.pipeline_next.set(id + 1);
        if let Some(h) = &self.pipeline_hook {
            h(&PipelineEvent::Start { id });
        }
        id
    }

    /// Record a pipeline break (with a live-watermark snapshot) and emit
    /// its event. Every `begin_pipeline` is paired with exactly one
    /// `end_pipeline` — error unwinds end with kind `"aborted"` — so
    /// downstream span exports stay balanced.
    pub(crate) fn end_pipeline(&self, id: u64, kind: &'static str, tuples: usize) {
        self.breaks.borrow_mut().push(PipelineBreak {
            id,
            kind,
            tuples: tuples as u64,
            live_tuples: self.live.tuples.get() as u64,
            live_bytes: self.live.bytes.get() as u64,
        });
        if let Some(h) = &self.pipeline_hook {
            h(&PipelineEvent::Break {
                id,
                kind,
                tuples: tuples as u64,
            });
        }
    }

    /// Drop the live guards parked by a previous evaluation, releasing
    /// their live/governor charges. Called at every public entry point so
    /// buffers from the prior pass (boolean-connective probe, earlier
    /// query on a reused evaluator) stop counting against the watermark.
    fn clear_live_stash(&self) {
        self.live_stash.borrow_mut().clear();
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats.borrow().clone()
    }

    /// Reset the statistics to zero.
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = ExecStats::new();
    }

    /// Evaluate to a materialized relation, through the push pipelines
    /// of `crate::push` — the one executor, at every thread count, with
    /// or without a profiler. At `threads == 1`, and for any input of at
    /// most one morsel, it stays on the calling thread.
    pub fn eval(&self, e: &AlgebraExpr) -> Result<Relation, AlgebraError> {
        let arity = arity_of(e, self.db)?;
        self.check_governor()?;
        self.clear_live_stash();
        crate::push::eval_push(self, e, arity)
    }

    /// Evaluate, stopping after at most `limit` result tuples.
    pub fn eval_limit(&self, e: &AlgebraExpr, limit: usize) -> Result<Relation, AlgebraError> {
        let arity = arity_of(e, self.db)?;
        self.check_governor()?;
        self.clear_live_stash();
        let mut out = Relation::intermediate(arity);
        for t in self.stream(e)? {
            if let Some(g) = &self.governor {
                if (out.len() + 1).is_multiple_of(self.exec.morsel_size) {
                    g.check("evaluate")?;
                }
            }
            out.insert(t)?;
            if out.len() >= limit {
                break;
            }
        }
        self.stats.borrow_mut().tuples_emitted += out.len();
        Ok(out)
    }

    /// The non-emptiness test of §3.2: pull a single tuple and stop.
    pub fn is_nonempty(&self, e: &AlgebraExpr) -> Result<bool, AlgebraError> {
        arity_of(e, self.db)?;
        self.check_governor()?;
        self.clear_live_stash();
        Ok(self.stream(e)?.next().is_some())
    }

    /// Poll the governor (cancellation / deadline), if one is attached.
    pub(crate) fn check_governor(&self) -> Result<(), AlgebraError> {
        if let Some(g) = &self.governor {
            g.check("evaluate")?;
        }
        Ok(())
    }

    /// Materialize a sub-expression (build sides, division inputs),
    /// recording the intermediate size. The result is an `Arc` so a
    /// hand-off to worker threads costs a refcount bump, not a deep copy.
    ///
    /// `kind` names the pipeline breaker this buffer feeds (`join-build`,
    /// `probe-build`, …). Every collection is a pipeline of its own: it
    /// emits paired start/break events, charges the live intermediate
    /// watermark, and parks a [`LiveGuard`] so the charge is released at
    /// the next entry point.
    pub(crate) fn materialize(
        &self,
        e: &AlgebraExpr,
        kind: &'static str,
    ) -> Result<Arc<Vec<Tuple>>, AlgebraError> {
        let (tuples, guard) = self.materialize_scoped(e, kind)?;
        self.live_stash.borrow_mut().push(guard);
        Ok(tuples)
    }

    /// [`Evaluator::materialize`] with caller-scoped release: the
    /// buffer's [`LiveGuard`] is handed back instead of parked, so the
    /// push coordinator can drop the charge the moment the probe structure
    /// it fed unwinds (e.g. at a union branch boundary) rather than at
    /// query end.
    pub(crate) fn materialize_scoped(
        &self,
        e: &AlgebraExpr,
        kind: &'static str,
    ) -> Result<(Arc<Vec<Tuple>>, LiveGuard), AlgebraError> {
        let id = self.begin_pipeline();
        let tuples = match self.collect_governed(e) {
            Ok(tuples) => tuples,
            Err(err) => {
                self.end_pipeline(id, "aborted", 0);
                return Err(err);
            }
        };
        let guard = self.live_guard(&tuples);
        self.end_pipeline(id, kind, tuples.len());
        self.stats.borrow_mut().record_intermediate(tuples.len());
        Ok((tuples, guard))
    }

    /// Charge a freshly materialized buffer to the live watermark and
    /// build its releasing guard. The byte figure mirrors the governor's
    /// per-tuple `estimate_tuple_bytes` charge exactly (tuples of one
    /// buffer share an arity), so the guard's governor release balances
    /// what `collect_governed` charged.
    fn live_guard(&self, tuples: &Arc<Vec<Tuple>>) -> LiveGuard {
        let arity = tuples.first().map(Tuple::arity).unwrap_or(0);
        let bytes = tuples.len() * gq_governor::estimate_tuple_bytes(arity) as usize;
        self.charge_live(tuples.len(), bytes);
        LiveGuard {
            live: Rc::clone(&self.live),
            governor: self.governor.clone(),
            tuples: tuples.len(),
            bytes,
        }
    }

    /// Drain a stream of `e` to an owned vector, under the governor's
    /// budgets when one is attached.
    fn collect_governed(&self, e: &AlgebraExpr) -> Result<Arc<Vec<Tuple>>, AlgebraError> {
        Ok(if let Some(g) = self.governor.clone() {
            // Governed collect: poll cancellation every morsel-size tuples
            // and charge the intermediate-size budgets as the build side
            // grows — build sides are where a runaway query actually
            // accumulates memory, not the output relation.
            let mut v: Vec<Tuple> = Vec::new();
            for t in self.stream(e)? {
                let bytes = gq_governor::estimate_tuple_bytes(t.arity());
                g.charge_intermediate("evaluate", 1, bytes)?;
                v.push(t);
                if v.len().is_multiple_of(self.exec.morsel_size) {
                    g.check("evaluate")?;
                }
            }
            Arc::new(v)
        } else {
            Arc::new(self.stream(e)?.collect())
        })
    }

    /// Build a tuple stream for an expression. Validation of column
    /// references is assumed done (via [`arity_of`] from the public entry
    /// points).
    ///
    /// With a [`PlanProfiler`] attached (and `e` one of its nodes), the
    /// stream construction and every subsequent pull run inside a
    /// profiler window attributed to `e`; child pulls open their own
    /// windows inside the parent's, and the profiler credits each node
    /// with its window minus those. Without a profiler this is a single
    /// `match None` branch on top of the raw stream: no clones, no
    /// `Instant::now()`.
    pub fn stream<'e>(&'e self, e: &'e AlgebraExpr) -> Result<TupleIter<'e>, AlgebraError> {
        let profiler = match &self.profiler {
            Some(p) if p.tracks(e) => Rc::clone(p),
            _ => return self.stream_inner(e),
        };
        let window = profiler.enter(&self.stats.borrow());
        let built = self.stream_inner(e);
        profiler.exit(window, e, &self.stats.borrow(), 0);
        Ok(Box::new(InstrumentedIter {
            inner: built?,
            node: e,
            stats: Rc::clone(&self.stats),
            profiler,
        }))
    }

    /// The uninstrumented operator dispatch behind [`Evaluator::stream`].
    fn stream_inner<'e>(&'e self, e: &'e AlgebraExpr) -> Result<TupleIter<'e>, AlgebraError> {
        self.stats.borrow_mut().operators_evaluated += 1;
        match e {
            AlgebraExpr::Relation(name) => {
                #[cfg(feature = "chaos")]
                if let Some(msg) = gq_chaos::fail_scan(name) {
                    return Err(AlgebraError::Storage(gq_storage::StorageError::Io(msg)));
                }
                let rel = self
                    .db
                    .relation(name)
                    .map_err(|_| AlgebraError::UnknownRelation(name.clone()))?;
                let stats = self.stats.clone();
                stats.borrow_mut().base_scans += 1;
                Ok(Box::new(rel.iter().cloned().inspect(move |_| {
                    stats.borrow_mut().base_tuples_read += 1;
                })))
            }
            AlgebraExpr::Literal(r) => {
                let stats = self.stats.clone();
                stats.borrow_mut().base_scans += 1;
                Ok(Box::new(r.iter().cloned().inspect(move |_| {
                    stats.borrow_mut().base_tuples_read += 1;
                })))
            }
            AlgebraExpr::Select { input, predicate } => {
                let input = self.stream(input)?;
                let stats = self.stats.clone();
                Ok(Box::new(input.filter(move |t| {
                    eval_predicate(predicate, t, &mut stats.borrow_mut())
                })))
            }
            AlgebraExpr::Project { input, positions } => {
                let input = self.stream(input)?;
                let mut seen: HashSet<Tuple> = HashSet::new();
                Ok(Box::new(input.filter_map(move |t| {
                    let p = t.project(positions);
                    if seen.insert(p.clone()) {
                        Some(p)
                    } else {
                        None
                    }
                })))
            }
            AlgebraExpr::GroupCount { input, group } => {
                let tuples = self.materialize(input, "group-input")?;
                Ok(Box::new(self.group_count(&tuples, group).into_iter()))
            }
            AlgebraExpr::Product { left, right } => {
                let right_tuples = self.materialize(right, "product-build")?;
                let left = self.stream(left)?;
                let stats = self.stats.clone();
                Ok(Box::new(left.flat_map(move |l| {
                    stats.borrow_mut().comparisons += right_tuples.len();
                    right_tuples.iter().map(|r| l.concat(r)).collect::<Vec<_>>()
                })))
            }
            AlgebraExpr::Join { left, right, on } => {
                let right_tuples = self.materialize(right, "join-build")?;
                let index = build_index(&right_tuples, on.iter().map(|&(_, r)| r));
                let left = self.stream(left)?;
                let stats = self.stats.clone();
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let mut scratch: Vec<Value> = Vec::new();
                Ok(Box::new(left.flat_map(move |l| {
                    fill_key(&mut scratch, &l, &left_cols);
                    let mut s = stats.borrow_mut();
                    s.probes += 1;
                    let matches = index
                        .get(scratch.as_slice())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    s.comparisons += matches.len().max(1);
                    drop(s);
                    matches
                        .iter()
                        .map(|&rid| l.concat(&right_tuples[rid]))
                        .collect::<Vec<_>>()
                })))
            }
            AlgebraExpr::SemiJoin { left, right, on } => {
                let probe = self.build_probe(right, on)?;
                let left = self.stream(left)?;
                let stats = self.stats.clone();
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let mut scratch: Vec<Value> = Vec::new();
                Ok(Box::new(left.filter(move |l| {
                    let mut s = stats.borrow_mut();
                    s.probes += 1;
                    s.comparisons += 1;
                    drop(s);
                    probe.contains(l, &left_cols, &mut scratch)
                })))
            }
            AlgebraExpr::ComplementJoin { left, right, on } => {
                let probe = self.build_probe(right, on)?;
                let left = self.stream(left)?;
                let stats = self.stats.clone();
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let mut scratch: Vec<Value> = Vec::new();
                Ok(Box::new(left.filter(move |l| {
                    let mut s = stats.borrow_mut();
                    s.probes += 1;
                    s.comparisons += 1;
                    drop(s);
                    !probe.contains(l, &left_cols, &mut scratch)
                })))
            }
            AlgebraExpr::Division { left, right, on } => {
                let result = self.eval_division(left, right, on)?;
                Ok(Box::new(result.into_iter()))
            }
            AlgebraExpr::Union { left, right } => {
                let left = self.stream(left)?;
                let right = self.stream(right)?;
                let mut seen: HashSet<Tuple> = HashSet::new();
                Ok(Box::new(
                    left.chain(right).filter(move |t| seen.insert(t.clone())),
                ))
            }
            AlgebraExpr::Difference { left, right } => {
                let right_tuples = self.materialize(right, "difference-build")?;
                let keys: HashSet<Tuple> = right_tuples.iter().cloned().collect();
                let left = self.stream(left)?;
                let stats = self.stats.clone();
                Ok(Box::new(left.filter(move |t| {
                    stats.borrow_mut().comparisons += 1;
                    !keys.contains(t)
                })))
            }
            AlgebraExpr::LeftOuterJoin { left, right, on } => {
                let right_tuples = self.materialize(right, "outer-build")?;
                let right_arity = right_tuples.first().map(Tuple::arity);
                let index = build_index(&right_tuples, on.iter().map(|&(_, r)| r));
                let left = self.stream(left)?;
                let stats = self.stats.clone();
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                // The right arity is needed for ∅-padding even when the
                // right side is empty; recover it statically in that case.
                let pad_arity = match right_arity {
                    Some(a) => a,
                    None => arity_of(right, self.db)?,
                };
                let mut scratch: Vec<Value> = Vec::new();
                Ok(Box::new(left.flat_map(move |l| {
                    fill_key(&mut scratch, &l, &left_cols);
                    let mut s = stats.borrow_mut();
                    s.probes += 1;
                    let matches = index
                        .get(scratch.as_slice())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    s.comparisons += matches.len().max(1);
                    drop(s);
                    if matches.is_empty() {
                        let nulls = Tuple::new(vec![Value::Null; pad_arity]);
                        vec![l.concat(&nulls)]
                    } else {
                        matches
                            .iter()
                            .map(|&rid| l.concat(&right_tuples[rid]))
                            .collect()
                    }
                })))
            }
            AlgebraExpr::ConstrainedOuterJoin {
                left,
                right,
                on,
                constraint,
            } => {
                let probe = self.build_probe(right, on)?;
                let left = self.stream(left)?;
                let stats = self.stats.clone();
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let constraint = constraint.clone();
                let mut scratch: Vec<Value> = Vec::new();
                Ok(Box::new(left.map(move |l| {
                    let marker = if constraint.satisfied_by(&l) {
                        let mut s = stats.borrow_mut();
                        s.probes += 1;
                        s.comparisons += 1;
                        drop(s);
                        if probe.contains(&l, &left_cols, &mut scratch) {
                            Value::Matched
                        } else {
                            Value::Null
                        }
                    } else {
                        // Definition 7, third set: no probe performed.
                        Value::Null
                    };
                    l.extended_with(marker)
                })))
            }
        }
    }

    /// Build the probe structure for the right side of a
    /// semi/complement/constrained-outer join: the key set of the
    /// materialized right input.
    fn build_probe(
        &self,
        right: &AlgebraExpr,
        on: &[(usize, usize)],
    ) -> Result<ProbeSide, AlgebraError> {
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let tuples = self.materialize(right, "probe-build")?;
        Ok(ProbeSide(
            tuples.iter().map(|t| key_of(t, &right_cols)).collect(),
        ))
    }

    /// The counting half of group-count, over an already-materialized
    /// input: one output tuple per distinct group key, in first-seen
    /// order (shared by the pull stream and the push pipelines).
    pub(crate) fn group_count(&self, tuples: &[Tuple], group: &[usize]) -> Vec<Tuple> {
        let mut counts: HashMap<Tuple, i64> = HashMap::new();
        let mut order: Vec<Tuple> = Vec::new();
        for t in tuples {
            let key = t.project(group);
            let entry = counts.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                0
            });
            *entry += 1;
            self.stats.borrow_mut().comparisons += 1;
        }
        order
            .into_iter()
            .map(|k| {
                let n = counts[&k];
                k.extended_with(Value::Int(n))
            })
            .collect()
    }

    fn eval_division(
        &self,
        left: &AlgebraExpr,
        right: &AlgebraExpr,
        on: &[(usize, usize)],
    ) -> Result<Vec<Tuple>, AlgebraError> {
        let left_arity = arity_of(left, self.db)?;
        let right_tuples = self.materialize(right, "division-divisor")?;
        let left_tuples = self.materialize(left, "division-dividend")?;
        Ok(self.divide(&left_tuples, &right_tuples, left_arity, on))
    }

    /// The grouping half of division, over already-materialized inputs
    /// (shared by the pull stream and the push pipelines).
    pub(crate) fn divide(
        &self,
        left_tuples: &[Tuple],
        right_tuples: &[Tuple],
        left_arity: usize,
        on: &[(usize, usize)],
    ) -> Vec<Tuple> {
        let match_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let kept_cols: Vec<usize> = (0..left_arity)
            .filter(|c| !match_cols.contains(c))
            .collect();

        let divisor: HashSet<Vec<Value>> = right_tuples
            .iter()
            .map(|t| key_of(t, &right_cols))
            .collect();

        let mut groups: HashMap<Tuple, HashSet<Vec<Value>>> = HashMap::new();
        let mut order: Vec<Tuple> = Vec::new();
        for t in left_tuples {
            let key = t.project(&kept_cols);
            let val = key_of(t, &match_cols);
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                HashSet::new()
            });
            entry.insert(val);
            self.stats.borrow_mut().comparisons += 1;
        }
        let mut out = Vec::new();
        for key in order {
            let group = &groups[&key];
            self.stats.borrow_mut().comparisons += divisor.len();
            if divisor.iter().all(|d| group.contains(d)) {
                out.push(key);
            }
        }
        out
    }
}

/// A stream wrapper attributing each pull's stats delta and wall time to
/// a profiled plan node (see [`Evaluator::with_profiler`]).
struct InstrumentedIter<'e> {
    inner: TupleIter<'e>,
    node: &'e AlgebraExpr,
    stats: Rc<RefCell<ExecStats>>,
    profiler: Rc<PlanProfiler>,
}

impl Iterator for InstrumentedIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let window = self.profiler.enter(&self.stats.borrow());
        let item = self.inner.next();
        self.profiler.exit(
            window,
            self.node,
            &self.stats.borrow(),
            item.is_some() as usize,
        );
        item
    }
}

/// The probe structure of a join-family build side: its key set.
pub(crate) struct ProbeSide(HashSet<Vec<Value>>);

impl ProbeSide {
    /// Membership test with a caller-supplied scratch key buffer, so tight
    /// probe loops perform no per-tuple allocation (the buffer is refilled
    /// each call and the set lookup borrows it as a slice).
    pub(crate) fn contains(
        &self,
        tuple: &Tuple,
        probe_cols: &[usize],
        scratch: &mut Vec<Value>,
    ) -> bool {
        fill_key(scratch, tuple, probe_cols);
        self.0.contains(scratch.as_slice())
    }
}

pub(crate) fn key_of(t: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| t[c].clone()).collect()
}

/// Refill `scratch` with the key of `t` at `cols` — the allocation-free
/// sibling of [`key_of`] for per-tuple probe loops.
pub(crate) fn fill_key(scratch: &mut Vec<Value>, t: &Tuple, cols: &[usize]) {
    scratch.clear();
    scratch.extend(cols.iter().map(|&c| t[c].clone()));
}

pub(crate) fn build_index(
    tuples: &[Tuple],
    cols: impl Iterator<Item = usize>,
) -> HashMap<Vec<Value>, Vec<usize>> {
    let cols: Vec<usize> = cols.collect();
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (rid, t) in tuples.iter().enumerate() {
        index.entry(key_of(t, &cols)).or_default().push(rid);
    }
    index
}

/// Evaluate a selection predicate on a tuple, counting one comparison per
/// leaf test performed (short-circuiting, like the paper's pipelined
/// filters).
pub fn eval_predicate(p: &Predicate, t: &Tuple, stats: &mut ExecStats) -> bool {
    match p {
        Predicate::Cmp { left, op, right } => {
            stats.comparisons += 1;
            let l = operand_value(left, t);
            let r = operand_value(right, t);
            op.eval(l, r)
        }
        Predicate::IsNull(c) => {
            stats.comparisons += 1;
            t[*c].is_null()
        }
        Predicate::NotNull(c) => {
            stats.comparisons += 1;
            !t[*c].is_null()
        }
        Predicate::And(a, b) => eval_predicate(a, t, stats) && eval_predicate(b, t, stats),
        Predicate::Or(a, b) => eval_predicate(a, t, stats) || eval_predicate(b, t, stats),
        Predicate::Not(inner) => !eval_predicate(inner, t, stats),
        Predicate::True => true,
        Predicate::False => false,
    }
}

fn operand_value<'t>(o: &'t Operand, t: &'t Tuple) -> &'t Value {
    match o {
        Operand::Col(c) => &t[*c],
        Operand::Const(v) => v,
    }
}
