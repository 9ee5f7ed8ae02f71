//! The evaluator: one front end over the push pipelines.
//!
//! [`Evaluator`] holds what one evaluation shares — the database, the
//! [`ExecStats`] accumulator, the execution configuration, the governor,
//! the live-intermediate watermark, the pipeline-event record and an
//! optional profiler — and has two entry points, both run by the push
//! pipelines of `crate::push`, the one implementation of every operator:
//!
//! * [`Evaluator::eval`] runs a plan to completion into its answer;
//! * [`Evaluator::is_nonempty`], the non-emptiness test of §3.2, runs it
//!   into a first-witness sink, which stops the scan at the first tuple
//!   that reaches it.
//!
//! The accumulated [`ExecStats`] let tests and benches check the paper's
//! operation-count claims (relations searched once, no unnecessary tuple
//! accesses, no cartesian blow-up).

use crate::parallel::ExecConfig;
use crate::profile::PlanProfiler;
use crate::{AlgebraError, AlgebraExpr, ExecStats, Operand, Predicate};
use gq_governor::Governor;
use gq_storage::{Database, Relation, Tuple, Value};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A pipeline lifecycle signal, delivered synchronously on the
/// coordinating thread to the hook installed with
/// [`Evaluator::with_pipeline_hook`] (the engine bridges these into the
/// flight recorder). Pipeline ids are allocated in structural plan order
/// by the coordinator, so the event sequence for a given plan is
/// deterministic and identical across worker-thread counts.
#[derive(Debug, Clone, Copy)]
pub enum PipelineEvent {
    /// A pipeline began executing (id 0 is the root pipeline, `output`
    /// or `witness`; breaker build sides get fresh ids as they
    /// materialize).
    Start {
        /// Coordinator-assigned pipeline id.
        id: u64,
    },
    /// A pipeline completed at its breaker (or the root sink), having
    /// materialized `tuples` tuples. `kind` names the breaker
    /// (`join-build`, `probe-build`, `output`, `witness`, … or `aborted`
    /// when the pipeline unwound with an error).
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
    /// Coordinator-assigned pipeline id (0 = the root pipeline).
    pub id: u64,
    /// Breaker kind (`join-build`, `output`, `witness`, `aborted`, …).
    pub kind: &'static str,
    /// Tuples materialized by the pipeline.
    pub tuples: u64,
    /// Live intermediate tuples at the break.
    pub live_tuples: u64,
    /// Estimated live intermediate bytes at the break.
    pub live_bytes: u64,
}

/// Coordinator-side counters of *currently live* intermediate tuples and
/// estimated bytes. Charged per tuple as a breaker's build pipeline fills
/// its buffer, released when the buffer is logically freed (see
/// [`LiveGuard`]); the running maximum feeds the
/// `peak_intermediate_tuples` / `peak_intermediate_bytes` watermarks.
#[derive(Default)]
pub(crate) struct LiveCell {
    tuples: Cell<usize>,
    bytes: Cell<usize>,
}

/// RAII release of a live-intermediate charge: dropping the guard
/// subtracts the buffer from the live counters and returns its bytes to
/// the governor's live memory budget. A build sink grows its guard per
/// tuple, in step with the governor's charge; the probe op the buffer
/// feeds then holds it on the pipeline chain and drops it the moment
/// that op unwinds — so a union of semi-join chains peaks at its largest
/// branch build, not the sum of all of them, and a build's own nested
/// builds are released when it completes. All drops happen on the
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
            pipeline_next: Cell::new(0),
            breaks: RefCell::new(Vec::new()),
            pipeline_hook: None,
        }
    }

    /// Attach a resource governor. The output and build sinks check
    /// cancellation and the deadline every [`ExecConfig::morsel_size`]
    /// tuples and the output/intermediate budgets per emitted/materialized
    /// tuple; every morsel claim — a first-witness scan's included —
    /// polls cancellation, and budget limits are enforced only at
    /// coordinator points so trip behaviour is identical across thread
    /// counts.
    pub fn with_governor(mut self, governor: Governor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Configure morsel-driven execution (see [`ExecConfig`]).
    ///
    /// The values decide only where [`Evaluator::eval`]'s work runs: its
    /// output pipelines and the partitioned hash tables of its breakers
    /// run on the calling thread alone when an input fits in one morsel
    /// (or `threads == 1`) and beside `threads − 1` scoped helpers
    /// otherwise; build pipelines stay on the calling thread.
    /// [`Evaluator::is_nonempty`] runs entirely on the calling thread —
    /// its point is to stop at the first witness, not to spread a scan.
    pub fn with_exec_config(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// The current execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// Attach a per-node profiler (see [`PlanProfiler`]): counters, rows
    /// and busy time are attributed to the plan node that did the work —
    /// per fused operator and per breaker — on the same code that runs
    /// unprofiled. Without a profiler the evaluator takes no stats
    /// snapshot and performs no timing syscalls.
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
    /// materialized breaker build side, plus the root pipeline of each
    /// entry point run.
    pub fn pipeline_breaks(&self) -> Vec<PipelineBreak> {
        self.breaks.borrow().clone()
    }

    /// A guard over nothing yet, for a build sink to grow.
    pub(crate) fn live_guard(&self) -> LiveGuard {
        LiveGuard {
            live: Rc::clone(&self.live),
            governor: self.governor.clone(),
            tuples: 0,
            bytes: 0,
        }
    }

    /// Charge one tuple of `bytes` to `guard` and the live intermediate
    /// counters, and fold the new totals into the peak watermarks.
    pub(crate) fn charge_live(&self, guard: &mut LiveGuard, bytes: usize) {
        guard.tuples += 1;
        guard.bytes += bytes;
        self.live.tuples.set(self.live.tuples.get() + 1);
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
        crate::push::eval_push(self, e, arity)
    }

    /// The non-emptiness test of §3.2: run `e` into a first-witness sink,
    /// which stops the scan at the first tuple that reaches it.
    pub fn is_nonempty(&self, e: &AlgebraExpr) -> Result<bool, AlgebraError> {
        arity_of(e, self.db)?;
        self.check_governor()?;
        crate::push::first_witness(self, e)
    }

    /// Poll the governor (cancellation / deadline), if one is attached.
    pub(crate) fn check_governor(&self) -> Result<(), AlgebraError> {
        if let Some(g) = &self.governor {
            g.check("evaluate")?;
        }
        Ok(())
    }
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
