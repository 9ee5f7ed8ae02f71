//! Push-based pipeline execution: the one implementation of every
//! operator.
//!
//! Both entry points of [`Evaluator`] run here — [`Evaluator::eval`] and
//! the non-emptiness test [`Evaluator::is_nonempty`] — at every thread
//! count and with or without a profiler. A plan is decomposed into
//! **pipelines** separated by **breakers**, the points where an operator
//! *must* see its whole input before producing output:
//!
//! | breaker                | kind string          |
//! |------------------------|----------------------|
//! | hash-join build side   | `join-build`         |
//! | semi/complement/marker probe side | `probe-build` |
//! | outer-join build side  | `outer-build`        |
//! | difference build side  | `difference-build`   |
//! | product inner side     | `product-build`      |
//! | group-count input      | `group-input`        |
//! | division divisor/dividend | `division-divisor` / `division-dividend` |
//! | the answer of `eval`   | `output`             |
//! | the answer of `is_nonempty` | `witness`       |
//!
//! Every pipeline ends in one [`Sink`] with one of three targets:
//!
//! * **output** — the answer relation. The output budget is checked per
//!   tuple, cancellation and the deadline every morsel-size tuples;
//! * **build** — a breaker's buffer. The governor's intermediate charge
//!   and the live watermark grow together, per tuple, and cancellation is
//!   polled every morsel-size tuples;
//! * **witness** — the first-witness test of §3.2. It holds at most one
//!   tuple; once it has one the scan stops, a union skips its remaining
//!   branches, and nothing more is read.
//!
//! Within a pipeline each source row travels depth-first through a fused
//! operator chain, leaf to root, and reaches the sink before the next row
//! is read: a row that a filter or probe rejects costs no allocation, and
//! a witness stops the scan at the row that produced it. The stateless
//! suffix of the chain (filters, projections, probes) runs on whichever
//! worker claims the morsel — the coordinator is worker 0 and, for a
//! source of at most one morsel, the only one (`parallel::Dispatch`) —
//! while everything at or above the last order-sensitive operator (dedup)
//! runs on the coordinator, over batches released in morsel order by a
//! reorder buffer. Build pipelines, and a whole first-witness evaluation,
//! run on the calling thread alone. Governor charges, live watermark
//! accounting and pipeline events therefore all happen on the
//! coordinator, in structural plan order. That is what makes answers, row
//! order and `ExecStats::without_dispatch_counters` — peak watermarks
//! included — bit-identical across 1/2/8 threads.
//!
//! Workers only ever poll the cancel flag (at each morsel claim), so every
//! budget trip happens at a coordinator point.
//!
//! Attribution (only when a [`PlanProfiler`](crate::PlanProfiler) is
//! attached): every [`ChainOp`] carries the plan node it was fused from.
//! A worker charges each operator's counters and rows to that operator's
//! slot of its [`WorkerStats`] and, switching a clock as a row moves from
//! one operator to the next, its busy time; the coordinator folds the
//! slots into the profiler when the pipeline ends. A breaker's own
//! coordinator-side work runs inside a nested profiler window
//! ([`PushExec::own`]), from which the build pipeline it runs subtracts
//! itself.

use crate::eval::{arity_of, eval_predicate, Evaluator, LiveGuard};
use crate::parallel::{
    build_part_index, build_part_keys, chaos_morsel_hooks, fill_key, key_of, panic_message,
    worker_panic, Dispatch, ParProbe, PartIndex,
};
use crate::stats::OpProfile;
use crate::{AlgebraError, AlgebraExpr, Constraint, ExecStats, Predicate, WorkerStats};
use gq_storage::{Relation, Tuple, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Evaluate `e` into its answer relation (the body of
/// [`Evaluator::eval`]).
pub(crate) fn eval_push(
    ev: &Evaluator<'_>,
    e: &AlgebraExpr,
    arity: usize,
) -> Result<Relation, AlgebraError> {
    let exec = PushExec::new(ev, ev.exec.threads);
    let target = Target::Output(Relation::intermediate(arity));
    let Target::Output(out) = exec.run_to(e, target, "output")? else {
        unreachable!("an output pipeline ends in its output");
    };
    ev.stats.borrow_mut().tuples_emitted += out.len();
    Ok(out)
}

/// The non-emptiness test of §3.2 (the body of
/// [`Evaluator::is_nonempty`]): run `e` into a first-witness sink, on the
/// calling thread, builds included.
pub(crate) fn first_witness(ev: &Evaluator<'_>, e: &AlgebraExpr) -> Result<bool, AlgebraError> {
    let target = PushExec::new(ev, 1).run_to(e, Target::Witness(None), "witness")?;
    Ok(matches!(target, Target::Witness(Some(_))))
}

/// The push executor: a coordinator that decomposes the plan into fused
/// operator chains and drives each pipeline's morsel dispatch.
#[derive(Clone, Copy)]
struct PushExec<'a, 'db> {
    ev: &'a Evaluator<'db>,
    /// Workers a pipeline or partitioned build may use (the caller
    /// included).
    threads: usize,
    morsel_size: usize,
}

/// What a pipeline's survivors go into.
enum Target {
    /// The answer relation of [`Evaluator::eval`].
    Output(Relation),
    /// A breaker's buffer, with the guard that carries its live charge.
    Build(Vec<Tuple>, LiveGuard),
    /// The first witness of [`Evaluator::is_nonempty`], once there is one.
    Witness(Option<Tuple>),
}

/// The end of every pipeline: its target, and the governor discipline
/// that goes with it (see the module docs).
struct Sink<'a, 'db> {
    target: Target,
    ev: &'a Evaluator<'db>,
    morsel_size: usize,
}

impl Sink<'_, '_> {
    /// Take one coordinator-ordered tuple. Only ever called while the
    /// sink is not full.
    fn push(&mut self, t: &Tuple) -> Result<(), AlgebraError> {
        let governor = self.ev.governor.as_ref();
        match &mut self.target {
            Target::Output(out) => {
                if let Some(g) = governor {
                    g.check_output("evaluate", out.len() as u64 + 1)?;
                    if (out.len() + 1).is_multiple_of(self.morsel_size) {
                        g.check("evaluate")?;
                    }
                }
                out.insert(t.clone())?;
            }
            Target::Build(rows, guard) => {
                let bytes = gq_governor::estimate_tuple_bytes(t.arity());
                if let Some(g) = governor {
                    g.charge_intermediate("evaluate", 1, bytes)?;
                }
                rows.push(t.clone());
                self.ev.charge_live(guard, bytes as usize);
                if let Some(g) = governor {
                    if rows.len().is_multiple_of(self.morsel_size) {
                        g.check("evaluate")?;
                    }
                }
            }
            Target::Witness(witness) => *witness = Some(t.clone()),
        }
        Ok(())
    }

    fn is_full(&self) -> bool {
        matches!(self.target, Target::Witness(Some(_)))
    }

    /// Tuples taken so far.
    fn len(&self) -> usize {
        match &self.target {
            Target::Output(out) => out.len(),
            Target::Build(rows, _) => rows.len(),
            Target::Witness(witness) => usize::from(witness.is_some()),
        }
    }
}

/// Why a row stopped before the end of its chain.
enum Halt {
    /// The sink is full: stop the pipeline, successfully.
    Full,
    /// The sink failed (a governor budget, a storage error): abort.
    Failed(AlgebraError),
}

/// The outcome of pushing one row.
type Flow = Result<(), Halt>;

/// Where an operator hands its outputs: the rest of the chain.
type Emit<'e> = dyn FnMut(&Tuple, &mut Lane) -> Flow + 'e;

/// A stateless, order-preserving operator appliable to a row on any
/// thread. [`WorkOp::apply`] is its one implementation.
enum WorkOp<'a> {
    /// Selection predicate.
    Filter(&'a Predicate),
    /// Projection (no dedup — that part is stateful, see [`ChainOp`]).
    ProjectMap(&'a [usize]),
    /// Cartesian product against a materialized inner side.
    Product(Arc<Vec<Tuple>>),
    /// Hash-join probe against a partitioned row-id index.
    HashProbe {
        index: PartIndex,
        right: Arc<Vec<Tuple>>,
        left_cols: Vec<usize>,
    },
    /// Semi-join (`negate: false`) or complement-join (`true`) probe.
    SemiProbe {
        probe: ParProbe,
        left_cols: Vec<usize>,
        negate: bool,
    },
    /// Left-outer-join probe; an unmatched row is padded with `nulls`.
    OuterProbe {
        index: PartIndex,
        right: Arc<Vec<Tuple>>,
        left_cols: Vec<usize>,
        nulls: Tuple,
    },
    /// Constrained-outer-join marker (Definition 7).
    Marker {
        probe: ParProbe,
        left_cols: Vec<usize>,
        constraint: &'a Constraint,
    },
    /// Set-difference filter against a materialized key set.
    DiffFilter(HashSet<Tuple>),
}

impl WorkOp<'_> {
    /// Is this operator's output its plan node's output? All but the
    /// map half of a projection, whose node emits what survives the
    /// dedup half.
    fn emits(&self) -> bool {
        !matches!(self, WorkOp::ProjectMap(_))
    }

    /// Apply this operator, fused at chain position `slot`, to one row:
    /// charge the lane's counters the way DESIGN §14 lists them and hand
    /// each output to `emit`, stopping at the first one it halts on.
    fn apply(&self, slot: usize, t: &Tuple, lane: &mut Lane, emit: &mut Emit<'_>) -> Flow {
        let prev = lane.switch(slot);
        let emits = self.emits();
        let mut out = |o: &Tuple, lane: &mut Lane| {
            if emits {
                lane.emitted(slot);
            }
            emit(o, lane)
        };
        let flow = match self {
            WorkOp::Filter(p) => {
                if eval_predicate(p, t, lane.stats(slot)) {
                    out(t, lane)
                } else {
                    Ok(())
                }
            }
            WorkOp::ProjectMap(positions) => out(&t.project(positions), lane),
            WorkOp::Product(right) => {
                lane.stats(slot).comparisons += right.len();
                right.iter().try_for_each(|r| out(&t.concat(r), lane))
            }
            WorkOp::HashProbe {
                index,
                right,
                left_cols,
            } => {
                let matches = index.get(lane.key(slot, t, left_cols));
                let stats = lane.stats(slot);
                stats.probes += 1;
                stats.comparisons += matches.len().max(1);
                matches
                    .iter()
                    .try_for_each(|&rid| out(&t.concat(&right[rid]), lane))
            }
            WorkOp::SemiProbe {
                probe,
                left_cols,
                negate,
            } => {
                let stats = lane.stats(slot);
                stats.probes += 1;
                stats.comparisons += 1;
                if probe.contains(lane.key(slot, t, left_cols)) != *negate {
                    out(t, lane)
                } else {
                    Ok(())
                }
            }
            WorkOp::OuterProbe {
                index,
                right,
                left_cols,
                nulls,
            } => {
                let matches = index.get(lane.key(slot, t, left_cols));
                let stats = lane.stats(slot);
                stats.probes += 1;
                stats.comparisons += matches.len().max(1);
                if matches.is_empty() {
                    out(&t.concat(nulls), lane)
                } else {
                    matches
                        .iter()
                        .try_for_each(|&rid| out(&t.concat(&right[rid]), lane))
                }
            }
            WorkOp::Marker {
                probe,
                left_cols,
                constraint,
            } => {
                let marker = if constraint.satisfied_by(t) {
                    let stats = lane.stats(slot);
                    stats.probes += 1;
                    stats.comparisons += 1;
                    if probe.contains(lane.key(slot, t, left_cols)) {
                        Value::Matched
                    } else {
                        Value::Null
                    }
                } else {
                    // Definition 7, third set: no probe performed.
                    Value::Null
                };
                out(&t.extended_with(marker), lane)
            }
            WorkOp::DiffFilter(keys) => {
                lane.stats(slot).comparisons += 1;
                if keys.contains(t) {
                    Ok(())
                } else {
                    out(t, lane)
                }
            }
        };
        lane.switch(prev);
        flow
    }
}

/// One link of a fused pipeline chain, pushed root-first during plan
/// decomposition (so rows apply the chain in *reverse*), with the plan
/// node it was fused from (what a profiled run attributes its work to).
/// `Dedup` is the one stateful link: it must see tuples in stream order,
/// so it and everything rootward of it run on the coordinator.
enum ChainOp<'a> {
    /// Stateless operator, eligible for worker threads.
    Work {
        node: &'a AlgebraExpr,
        op: WorkOp<'a>,
        /// A probe's hold on the live charge of the build buffer it
        /// probes: unwinding the op from the chain (a union branch
        /// ending, the pipeline ending) releases it.
        _build: Option<LiveGuard>,
    },
    /// Order-sensitive distinct filter. The set lives in the chain entry
    /// itself, so a union's branches (which re-run the leafward segment)
    /// share one set.
    Dedup(&'a AlgebraExpr, RefCell<HashSet<Tuple>>),
}

impl<'a> ChainOp<'a> {
    fn work(node: &'a AlgebraExpr, op: WorkOp<'a>, build: Option<LiveGuard>) -> Self {
        ChainOp::Work {
            node,
            op,
            _build: build,
        }
    }

    fn node(&self) -> &'a AlgebraExpr {
        match self {
            ChainOp::Work { node, .. } | ChainOp::Dedup(node, _) => node,
        }
    }
}

/// Push `t` through the worker segment `ops` (in application order,
/// leaf to root) and hand what survives to `emit`.
fn push_work(
    ops: &[(usize, &WorkOp<'_>)],
    t: &Tuple,
    lane: &mut Lane,
    emit: &mut Emit<'_>,
) -> Flow {
    match ops.split_first() {
        None => emit(t, lane),
        Some((&(slot, op), rest)) => {
            op.apply(slot, t, lane, &mut |o, lane| push_work(rest, o, lane, emit))
        }
    }
}

/// Push `t` through the coordinator segment `ops` (root-first, so applied
/// last to first) into the sink.
fn push_coord(ops: &[ChainOp<'_>], t: &Tuple, lane: &mut Lane, sink: &mut Sink<'_, '_>) -> Flow {
    let Some((op, rest)) = ops.split_last() else {
        sink.push(t).map_err(Halt::Failed)?;
        return if sink.is_full() {
            Err(Halt::Full)
        } else {
            Ok(())
        };
    };
    let slot = rest.len();
    match op {
        ChainOp::Dedup(_, seen) => {
            let prev = lane.switch(slot);
            let fresh = seen.borrow_mut().insert(t.clone());
            lane.switch(prev);
            if !fresh {
                return Ok(());
            }
            lane.emitted(slot);
            push_coord(rest, t, lane, sink)
        }
        ChainOp::Work { op, .. } => op.apply(slot, t, lane, &mut |o, lane| {
            push_coord(rest, o, lane, sink)
        }),
    }
}

/// One worker's private state while it runs a pipeline: its counters —
/// per chain slot in a profiled run, whose slot `chain.len()` is the
/// source's — one probe-key buffer per chain slot, and a profiled run's
/// clock.
struct Lane {
    ws: WorkerStats,
    keys: Vec<Vec<Value>>,
    /// Profiled runs only: since when the lane has been working for the
    /// op at the slot, and that slot.
    clock: Option<(Instant, usize)>,
}

impl Lane {
    fn new(worker: usize, chain_len: usize, profiled: bool) -> Lane {
        let mut ws = WorkerStats::new(worker);
        if profiled {
            ws.ops = vec![OpProfile::default(); chain_len + 1];
        }
        Lane {
            ws,
            keys: vec![Vec::new(); chain_len],
            clock: profiled.then(|| (Instant::now(), chain_len)),
        }
    }

    /// The slot of the pipeline's source.
    fn source(&self) -> usize {
        self.keys.len()
    }

    /// The counters work at `slot` charges: the slot's own when profiled,
    /// the worker's total otherwise.
    fn stats(&mut self, slot: usize) -> &mut ExecStats {
        match self.ws.ops.get_mut(slot) {
            Some(op) => &mut op.stats,
            None => &mut self.ws.stats,
        }
    }

    /// The op at `slot` emitted a row (counted when profiled).
    fn emitted(&mut self, slot: usize) {
        if let Some(op) = self.ws.ops.get_mut(slot) {
            op.rows_out += 1;
        }
    }

    /// `t`'s key at `cols`, in `slot`'s reused buffer.
    fn key(&mut self, slot: usize, t: &Tuple, cols: &[usize]) -> &[Value] {
        let key = &mut self.keys[slot];
        fill_key(key, t, cols);
        key
    }

    /// In a profiled run, charge the time since the last switch to the
    /// op that had it and start `slot`'s; returns the slot switched from.
    /// Unprofiled, it reads no clock.
    fn switch(&mut self, slot: usize) -> usize {
        let Some((since, active)) = &mut self.clock else {
            return slot;
        };
        let now = Instant::now();
        self.ws.ops[*active].elapsed_ns += now.duration_since(*since).as_nanos() as u64;
        *since = now;
        std::mem::replace(active, slot)
    }

    /// Stop the clock and fold the per-slot counters into the worker's
    /// total.
    fn finish(mut self) -> WorkerStats {
        self.switch(0);
        for op in &self.ws.ops {
            self.ws.stats.merge(&op.stats);
        }
        self.ws
    }
}

/// Rows a breaker that becomes a buffer source emitted.
fn rows_of(out: &Result<Vec<Tuple>, AlgebraError>) -> usize {
    out.as_ref().map_or(0, Vec::len)
}

/// A breaker that fuses a probe op emits through that op, not here.
fn no_rows<T>(_: &T) -> usize {
    0
}

impl<'a, 'db> PushExec<'a, 'db> {
    fn new(ev: &'a Evaluator<'db>, threads: usize) -> Self {
        PushExec {
            ev,
            threads: threads.max(1),
            morsel_size: ev.exec.morsel_size.max(1),
        }
    }

    /// Cut `len` input tuples into a dispatch under this executor's
    /// thread and morsel configuration.
    fn dispatch(&self, len: usize) -> Dispatch<'_> {
        let governor = self.ev.governor.as_ref();
        Dispatch::new(self.threads, self.morsel_size, len, governor)
    }

    /// Run `e` as a pipeline of its own into `target`, between a paired
    /// start and break event: the break is `kind` when it completes,
    /// `aborted` when it fails. The ops it fused — and with them the
    /// live charges of the builds they probe — are released after the
    /// break, on return.
    fn run_to(
        &self,
        e: &AlgebraExpr,
        target: Target,
        kind: &'static str,
    ) -> Result<Target, AlgebraError> {
        let id = self.ev.begin_pipeline();
        let mut sink = Sink {
            target,
            ev: self.ev,
            morsel_size: self.morsel_size,
        };
        let mut chain = Vec::new();
        let run = self.run_node(e, &mut chain, &mut sink);
        match &run {
            Ok(()) => self.ev.end_pipeline(id, kind, sink.len()),
            Err(_) => self.ev.end_pipeline(id, "aborted", 0),
        }
        run?;
        Ok(sink.target)
    }

    /// Materialize a breaker's build side `e` (`kind` names the breaker)
    /// through a build pipeline on the calling thread. The guard carries
    /// the buffer's live and governor charges.
    fn build(
        &self,
        e: &AlgebraExpr,
        kind: &'static str,
    ) -> Result<(Arc<Vec<Tuple>>, LiveGuard), AlgebraError> {
        let on_caller = PushExec {
            threads: 1,
            ..*self
        };
        let target = Target::Build(Vec::new(), self.ev.live_guard());
        let Target::Build(rows, guard) = on_caller.run_to(e, target, kind)? else {
            unreachable!("a build pipeline ends in its buffer");
        };
        self.ev.stats.borrow_mut().record_intermediate(rows.len());
        Ok((Arc::new(rows), guard))
    }

    /// Run a breaker's own coordinator-side work — everything its arm
    /// does before handing over to the pipeline child: running the build
    /// pipeline, building the probe table, grouping, dividing — inside a
    /// profiler window credited to `node`, which emitted `rows(&result)`
    /// tuples. The build pipeline's operators are credited to their own
    /// nodes and claimed by this window, so `node` is credited with the
    /// remainder only. Without a profiler this is `work()`.
    fn own<T>(
        &self,
        node: &AlgebraExpr,
        rows: impl FnOnce(&T) -> usize,
        work: impl FnOnce() -> T,
    ) -> T {
        let Some(p) = &self.ev.profiler else {
            return work();
        };
        let window = p.enter(&self.ev.stats.borrow());
        let out = work();
        p.exit(window, node, &self.ev.stats.borrow(), rows(&out));
        out
    }

    /// Decompose `e`: streamable operators extend the fused chain and
    /// recurse into their pipeline child; breakers run their build side
    /// as a pipeline of its own and fuse a probe/filter op; sources run
    /// the completed pipeline.
    ///
    /// Effect order (operator counting, build before probe, division
    /// right then left) is the one DESIGN §14 documents, and
    /// `tests/streaming.rs`'s reference interpreter checks every counter
    /// against it.
    fn run_node<'p>(
        &self,
        e: &'p AlgebraExpr,
        chain: &mut Vec<ChainOp<'p>>,
        sink: &mut Sink<'_, '_>,
    ) -> Result<(), AlgebraError>
    where
        'db: 'p,
    {
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
                self.ev.stats.borrow_mut().base_scans += 1;
                let runs: Vec<&[Tuple]> = rel.runs().collect();
                self.run_pipeline(&runs, Some(e), chain, sink)
            }
            AlgebraExpr::Literal(r) => {
                self.ev.stats.borrow_mut().base_scans += 1;
                let runs: Vec<&[Tuple]> = r.runs().collect();
                self.run_pipeline(&runs, Some(e), chain, sink)
            }
            AlgebraExpr::Select { input, predicate } => {
                chain.push(ChainOp::work(e, WorkOp::Filter(predicate), None));
                self.run_node(input, chain, sink)
            }
            AlgebraExpr::Project { input, positions } => {
                chain.push(ChainOp::Dedup(e, RefCell::new(HashSet::new())));
                chain.push(ChainOp::work(e, WorkOp::ProjectMap(positions), None));
                self.run_node(input, chain, sink)
            }
            AlgebraExpr::GroupCount { input, group } => {
                // Grouping is a full breaker: input materializes, the
                // sweep runs on the coordinator, and the grouped output
                // becomes a source.
                let out = self.own(e, rows_of, || {
                    let (tuples, _guard) = self.build(input, "group-input")?;
                    Ok(self.group_count(&tuples, group))
                })?;
                self.run_pipeline(&[&out], None, chain, sink)
            }
            AlgebraExpr::Product { left, right } => {
                let (right, guard) = self.own(e, no_rows, || self.build(right, "product-build"))?;
                chain.push(ChainOp::work(e, WorkOp::Product(right), Some(guard)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::Join { left, right, on } => {
                let (index, right, guard) =
                    self.own(e, no_rows, || self.build_index(right, on, "join-build"))?;
                let probe = WorkOp::HashProbe {
                    index,
                    right,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                };
                chain.push(ChainOp::work(e, probe, Some(guard)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::SemiJoin { left, right, on }
            | AlgebraExpr::ComplementJoin { left, right, on } => {
                let (probe, guard) = self.own(e, no_rows, || self.build_probe(right, on))?;
                let probe = WorkOp::SemiProbe {
                    probe,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    negate: matches!(e, AlgebraExpr::ComplementJoin { .. }),
                };
                chain.push(ChainOp::work(e, probe, Some(guard)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::Division { left, right, on } => {
                // Division is a double breaker (right then left); the
                // grouping sweep runs on the coordinator.
                let out = self.own(e, rows_of, || {
                    let left_arity = arity_of(left, self.ev.db)?;
                    let (divisor, _rguard) = self.build(right, "division-divisor")?;
                    let (dividend, _lguard) = self.build(left, "division-dividend")?;
                    Ok(self.divide(&dividend, &divisor, left_arity, on))
                })?;
                self.run_pipeline(&[&out], None, chain, sink)
            }
            AlgebraExpr::Union { left, right } => {
                // One shared dedup set; each branch re-runs the leafward
                // chain segment, then its ops are unwound so the next
                // branch starts from the union's own chain position. A
                // full sink needs no further branch.
                chain.push(ChainOp::Dedup(e, RefCell::new(HashSet::new())));
                let mark = chain.len();
                for branch in [left, right] {
                    if sink.is_full() {
                        break;
                    }
                    self.run_node(branch, chain, sink)?;
                    chain.truncate(mark);
                }
                Ok(())
            }
            AlgebraExpr::Difference { left, right } => {
                let (keys, guard) = self.own(e, no_rows, || {
                    let (right, guard) = self.build(right, "difference-build")?;
                    let keys: HashSet<Tuple> = right.iter().cloned().collect();
                    Ok::<_, AlgebraError>((keys, guard))
                })?;
                chain.push(ChainOp::work(e, WorkOp::DiffFilter(keys), Some(guard)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::LeftOuterJoin { left, right, on } => {
                let (index, right_tuples, guard) =
                    self.own(e, no_rows, || self.build_index(right, on, "outer-build"))?;
                // The right arity pads even an empty right side.
                let pad_arity = match right_tuples.first().map(Tuple::arity) {
                    Some(a) => a,
                    None => arity_of(right, self.ev.db)?,
                };
                let probe = WorkOp::OuterProbe {
                    index,
                    right: right_tuples,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    nulls: Tuple::new(vec![Value::Null; pad_arity]),
                };
                chain.push(ChainOp::work(e, probe, Some(guard)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::ConstrainedOuterJoin {
                left,
                right,
                on,
                constraint,
            } => {
                let (probe, guard) = self.own(e, no_rows, || self.build_probe(right, on))?;
                let marker = WorkOp::Marker {
                    probe,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    constraint,
                };
                chain.push(ChainOp::work(e, marker, Some(guard)));
                self.run_node(left, chain, sink)
            }
        }
    }

    /// Materialize the build side of a hash (`kind` = `join-build`) or
    /// outer (`outer-build`) join and index it on the right-hand columns
    /// of `on`. The guard carries the buffer's watermark charge.
    #[allow(clippy::type_complexity)]
    fn build_index(
        &self,
        right: &AlgebraExpr,
        on: &[(usize, usize)],
        kind: &'static str,
    ) -> Result<(PartIndex, Arc<Vec<Tuple>>, LiveGuard), AlgebraError> {
        let (tuples, guard) = self.build(right, kind)?;
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let dispatch = self.dispatch(tuples.len());
        let index = build_part_index(dispatch, &self.ev.stats, &tuples, &right_cols)?;
        Ok((index, tuples, guard))
    }

    /// Build the probe side of a semi/complement/marker join: a build
    /// pipeline followed by a partitioned key-set build. The returned
    /// guard carries the build side's watermark charge; the caller keys it
    /// to the probe op so it releases when that op unwinds.
    fn build_probe(
        &self,
        right: &AlgebraExpr,
        on: &[(usize, usize)],
    ) -> Result<(ParProbe, LiveGuard), AlgebraError> {
        let (tuples, guard) = self.build(right, "probe-build")?;
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let dispatch = self.dispatch(tuples.len());
        let parts = build_part_keys(dispatch, &self.ev.stats, &tuples, &right_cols)?;
        Ok((ParProbe(parts), guard))
    }

    /// The counting half of group-count, over its materialized input: one
    /// output tuple per distinct group key, in first-seen order.
    fn group_count(&self, tuples: &[Tuple], group: &[usize]) -> Vec<Tuple> {
        let mut counts: HashMap<Tuple, i64> = HashMap::new();
        let mut order: Vec<Tuple> = Vec::new();
        for t in tuples {
            let key = t.project(group);
            let entry = counts.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                0
            });
            *entry += 1;
        }
        self.ev.stats.borrow_mut().comparisons += tuples.len();
        order
            .into_iter()
            .map(|k| {
                let n = counts[&k];
                k.extended_with(Value::Int(n))
            })
            .collect()
    }

    /// The grouping half of division, over its materialized inputs: the
    /// dividend's groups, in first-seen order, that hold every divisor
    /// key.
    fn divide(
        &self,
        dividend: &[Tuple],
        divisor: &[Tuple],
        left_arity: usize,
        on: &[(usize, usize)],
    ) -> Vec<Tuple> {
        let match_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let kept_cols: Vec<usize> = (0..left_arity)
            .filter(|c| !match_cols.contains(c))
            .collect();
        let divisor: HashSet<Vec<Value>> = divisor.iter().map(|t| key_of(t, &right_cols)).collect();
        let mut groups: HashMap<Tuple, HashSet<Vec<Value>>> = HashMap::new();
        let mut order: Vec<Tuple> = Vec::new();
        for t in dividend {
            let key = t.project(&kept_cols);
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                HashSet::new()
            });
            entry.insert(key_of(t, &match_cols));
        }
        let mut stats = self.ev.stats.borrow_mut();
        stats.comparisons += dividend.len() + order.len() * divisor.len();
        order
            .into_iter()
            .filter(|key| divisor.iter().all(|d| groups[key].contains(d)))
            .collect()
    }

    /// Run one completed pipeline: morselize `input` — contiguous runs of
    /// tuples, a relation's chunks or a breaker's one buffer, cut into
    /// morsels by logical row number whatever the run boundaries — and
    /// push each row through the chain into the sink. With one worker
    /// (a source of at most one morsel, or a caller-only executor) every
    /// row goes all the way to the sink before the next is read. With
    /// more, each worker runs the stateless suffix of the chain over the
    /// morsels it claims, and the coordinator releases the batches in
    /// morsel order through the rest of the chain into the sink.
    ///
    /// `scan` is the plan node of a base-relation source, whose rows are
    /// charged to `base_tuples_read` as they are read — the
    /// producer-side counter the termination tests observe; buffer
    /// sources (a breaker's output) pass `None`.
    fn run_pipeline(
        &self,
        input: &[&[Tuple]],
        scan: Option<&AlgebraExpr>,
        chain: &[ChainOp<'_>],
        sink: &mut Sink<'_, '_>,
    ) -> Result<(), AlgebraError> {
        let input = Source::new(input);
        // Split at the last (leafward-most) dedup: everything after it is
        // stateless and runs on workers, it and everything before it run
        // on the coordinator in morsel order.
        let split = chain
            .iter()
            .rposition(|op| matches!(op, ChainOp::Dedup(..)))
            .map_or(0, |i| i + 1);
        // The worker segment in application order — leaf to root, the
        // reverse of the chain's root-first construction — each op with
        // its chain position, its attribution slot.
        let work_ops: Vec<(usize, &WorkOp<'_>)> = chain
            .iter()
            .enumerate()
            .skip(split)
            .rev()
            .filter_map(|(slot, op)| match op {
                ChainOp::Work { op, .. } => Some((slot, op)),
                // Unreachable by construction: the split point is past
                // the last Dedup.
                ChainOp::Dedup(..) => None,
            })
            .collect();
        let coord = &chain[..split];
        let dispatch = self.dispatch(input.len);
        let profiled = self.ev.profiler.is_some();
        let chain_len = chain.len();
        let lane = |w: usize| Lane::new(w, chain_len, profiled);
        let scanned = scan.is_some();
        let mut lanes: Vec<WorkerStats> = Vec::with_capacity(dispatch.workers);
        let mut failed: Option<AlgebraError> = None;
        let mut first_panic: Option<(usize, String)> = None;

        if dispatch.workers == 1 {
            let mut me = lane(0);
            let mut each = |t: &Tuple, lane: &mut Lane| {
                push_work(&work_ops, t, lane, &mut |t, lane| {
                    push_coord(coord, t, lane, sink)
                })
            };
            while let Some((mi, range)) = dispatch.claim() {
                me.ws.morsels += 1;
                match catch_unwind(AssertUnwindSafe(|| {
                    chaos_morsel_hooks(mi);
                    run_morsel(&input, range, scanned, &mut me, &mut each)
                })) {
                    Ok(Ok(())) => continue,
                    Ok(Err(Halt::Full)) => {}
                    Ok(Err(Halt::Failed(err))) => failed = Some(err),
                    Err(p) => first_panic = Some((mi, panic_message(p))),
                }
                break;
            }
            lanes.push(me.finish());
        } else {
            // The coordinator is worker 0: it claims morsels too, and
            // between them drains the batches its helpers sent through
            // the channel into the reorder buffer, which releases them in
            // morsel order as they complete.
            enum Msg {
                Batch(usize, Vec<Tuple>),
                Panic(usize, String),
                Done(WorkerStats),
            }
            let run_batch = |lane: &mut Lane, mi: usize, range: Range<usize>| {
                lane.ws.morsels += 1;
                let mut batch = Vec::new();
                let mut keep = |t: &Tuple, _: &mut Lane| {
                    batch.push(t.clone());
                    Ok(())
                };
                match catch_unwind(AssertUnwindSafe(|| {
                    chaos_morsel_hooks(mi);
                    let mut each =
                        |t: &Tuple, lane: &mut Lane| push_work(&work_ops, t, lane, &mut keep);
                    // Only a sink halts, and workers have none.
                    let _ = run_morsel(&input, range, scanned, lane, &mut each);
                })) {
                    Ok(()) => Msg::Batch(mi, batch),
                    Err(p) => {
                        dispatch.abort();
                        Msg::Panic(mi, panic_message(p))
                    }
                }
            };
            let helpers = dispatch.workers - 1;
            self.ev.stats.borrow_mut().workers_spawned += helpers;
            let (tx, rx) = mpsc::channel::<Msg>();
            let mut me = lane(0);
            let mut halted = false;
            thread::scope(|s| {
                let (dispatch, run_batch, lane) = (&dispatch, &run_batch, &lane);
                for w in 1..=helpers {
                    let tx = tx.clone();
                    s.spawn(move || {
                        let mut helper = lane(w);
                        while let Some((mi, range)) = dispatch.claim() {
                            let msg = run_batch(&mut helper, mi, range);
                            let panicked = matches!(msg, Msg::Panic(..));
                            let _ = tx.send(msg);
                            if panicked {
                                break;
                            }
                        }
                        let _ = tx.send(Msg::Done(helper.finish()));
                    });
                }
                drop(tx);
                let mut pending: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
                let mut next_emit = 0usize;
                let mut handle = |me: &mut Lane, msg: Msg| match msg {
                    Msg::Done(ws) => lanes.push(ws),
                    Msg::Panic(mi, message) => {
                        // Smallest morsel id wins, so the surfaced panic is
                        // deterministic under chaos seeds.
                        if first_panic.as_ref().is_none_or(|&(pmi, _)| mi < pmi) {
                            first_panic = Some((mi, message));
                        }
                    }
                    Msg::Batch(mi, batch) => {
                        if halted || first_panic.is_some() {
                            return;
                        }
                        pending.insert(mi, batch);
                        while let Some(batch) = pending.remove(&next_emit) {
                            next_emit += 1;
                            let flow = batch
                                .iter()
                                .try_for_each(|t| push_coord(coord, t, me, sink));
                            if let Err(halt) = flow {
                                if let Halt::Failed(err) = halt {
                                    failed = Some(err);
                                }
                                halted = true;
                                dispatch.abort();
                                break;
                            }
                        }
                    }
                };
                while let Some((mi, range)) = dispatch.claim() {
                    let msg = run_batch(&mut me, mi, range);
                    handle(&mut me, msg);
                    while let Ok(msg) = rx.try_recv() {
                        handle(&mut me, msg);
                    }
                }
                // Every helper ends with `Done` and then drops its sender,
                // so this drains exactly what is still in flight.
                while let Ok(msg) = rx.recv() {
                    handle(&mut me, msg);
                }
            });
            lanes.push(me.finish());
        }
        // Fold all counters before error propagation so partially-done
        // work stays observable.
        let profiler = self.ev.profiler.as_deref();
        for ws in &lanes {
            ws.merge_into(&mut self.ev.stats.borrow_mut());
            for (slot, op) in ws.ops.iter().enumerate() {
                let node = chain.get(slot).map(ChainOp::node).or(scan);
                if let (Some(p), Some(node)) = (profiler, node) {
                    p.add(node, op);
                }
            }
        }
        if let Some(err) = failed {
            return Err(err);
        }
        if let Some((_, message)) = first_panic {
            return Err(worker_panic(dispatch.governor, message));
        }
        self.ev.check_governor()
    }
}

/// Read one morsel's rows in order — charged to the source's slot, and to
/// `base_tuples_read` when `scan` — and push each through `each`,
/// stopping at the first that halts.
fn run_morsel(
    input: &Source<'_>,
    morsel: Range<usize>,
    scan: bool,
    lane: &mut Lane,
    each: &mut Emit<'_>,
) -> Flow {
    let mut read = 0;
    let mut flow = Ok(());
    'rows: for run in input.slices(morsel) {
        for t in run {
            read += 1;
            flow = each(t, lane);
            if flow.is_err() {
                break 'rows;
            }
        }
    }
    let source = lane.source();
    if scan {
        lane.stats(source).base_tuples_read += read;
    }
    if let Some(op) = lane.ws.ops.get_mut(source) {
        op.rows_out += read as u64;
    }
    flow
}

/// A pipeline's input as contiguous runs, addressed by logical row
/// number: row `i` is the `i`-th tuple of the runs laid end to end.
struct Source<'t> {
    runs: &'t [&'t [Tuple]],
    /// Logical row number of each run's first tuple (prefix sums of the
    /// run lengths).
    starts: Vec<usize>,
    len: usize,
}

impl<'t> Source<'t> {
    fn new(runs: &'t [&'t [Tuple]]) -> Self {
        let mut len = 0;
        let starts = runs
            .iter()
            .map(|run| {
                let start = len;
                len += run.len();
                start
            })
            .collect();
        Source { runs, starts, len }
    }

    /// The rows of one morsel (a non-empty range below `len`) as slices
    /// of the runs, without copying a tuple. When runs and morsels are
    /// cut alike — a fully loaded relation at the default morsel size —
    /// that is one run, whole.
    fn slices(&self, range: Range<usize>) -> impl Iterator<Item = &'t [Tuple]> + '_ {
        // The last run starting at or before the range: of several equal
        // starts (empty runs), the one that has the row.
        let first = self.starts.partition_point(|&s| s <= range.start) - 1;
        (first..self.runs.len()).map_while(move |run| {
            let start = self.starts[run];
            (start < range.end).then(|| {
                let from = range.start.max(start) - start;
                let to = (range.end - start).min(self.runs[run].len());
                &self.runs[run][from..to]
            })
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::profile::WINDOWS_OPENED;
    use crate::{AlgebraExpr, Evaluator, ExecConfig, PlanProfiler, Predicate};
    use gq_storage::{tuple, Database, Schema};
    use std::rc::Rc;

    /// Morsels are logical row ranges, whatever the chunk boundaries of
    /// the relation scanned: a relation whose chunks thinned out — one of
    /// them to nothing — scans into the same rows, in the same order, with
    /// the same morsel count as the flat list of its tuples would, at
    /// morsel sizes below, at and across the chunk size.
    #[test]
    fn ragged_chunks_scan_like_a_flat_vector() {
        use crate::parallel::DEFAULT_MORSEL_SIZE;
        let mut db = Database::new();
        db.create_relation("r", Schema::anonymous(2)).unwrap();
        for i in 0..3_500i64 {
            db.insert("r", tuple![i, i % 10]).unwrap();
        }
        // A loaded relation is cut into chunks of exactly one morsel.
        assert_eq!(db.relation("r").unwrap().parts().0, 4);
        assert!(db
            .relation("r")
            .unwrap()
            .runs()
            .take(3)
            .all(|run| run.len() == DEFAULT_MORSEL_SIZE));
        // Empty the second chunk, thin the first and the third.
        for i in (1_024..2_048)
            .chain((0..1_024).step_by(3))
            .chain(2_500..2_600)
        {
            assert!(db.remove("r", &tuple![i, i % 10]).unwrap());
        }
        let rel = db.relation("r").unwrap();
        assert_eq!(rel.parts().0, 4, "the emptied chunk keeps its slot");
        let rows = rel.len();
        let plan = AlgebraExpr::relation("r")
            .select(Predicate::True)
            .project(vec![0, 1]);
        let flat: Vec<_> = rel.iter().collect();
        for (threads, morsel) in [(1, 64), (4, 64), (4, 1_000), (2, 1_024), (4, 1_500)] {
            let ev = Evaluator::new(&db)
                .with_exec_config(ExecConfig::with_threads(threads).with_morsel_size(morsel));
            let out = ev.eval(&plan).unwrap();
            assert_eq!(out.iter().collect::<Vec<_>>(), flat, "{threads}×{morsel}");
            let stats = ev.stats();
            assert_eq!(stats.morsels, rows.div_ceil(morsel), "{threads}×{morsel}");
            assert_eq!(stats.base_tuples_read, rows);
        }
    }

    /// Attribution is paid for only when asked for: an unprofiled run —
    /// fused operators, every kind of breaker, the coordinator claiming
    /// morsels beside helpers — opens no [`super::Window`], so it takes
    /// no stats snapshot and never reads the clock. The same plan with a
    /// profiler attached opens them, and what they credit adds up to the
    /// evaluator's totals.
    #[test]
    fn unprofiled_pipelines_open_no_window() {
        let mut db = Database::new();
        db.create_relation("member", Schema::anonymous(2)).unwrap();
        db.create_relation("skill", Schema::anonymous(2)).unwrap();
        for i in 0..500i64 {
            db.insert("member", tuple![i, i % 7]).unwrap();
            if i % 3 == 0 {
                db.insert("skill", tuple![i, i % 5]).unwrap();
            }
        }
        let member = || AlgebraExpr::relation("member");
        let skill = || AlgebraExpr::relation("skill").select(Predicate::True);
        let plan = member()
            .join(skill(), vec![(0, 0)])
            .project(vec![0, 1])
            .union(member().complement_join(skill(), vec![(0, 0)]))
            .union(member().difference(member().semi_join(skill(), vec![(0, 0)])))
            .union(member().group_count(vec![1]))
            .union(
                member()
                    .divide(skill().project(vec![1]), vec![(1, 0)])
                    .project(vec![0, 0]),
            );
        for threads in [1, 4] {
            let exec = ExecConfig::with_threads(threads).with_morsel_size(64);
            WINDOWS_OPENED.set(0);
            let plain = Evaluator::new(&db).with_exec_config(exec);
            let expected = plain.eval(&plan).unwrap();
            assert_eq!(
                WINDOWS_OPENED.get(),
                0,
                "unprofiled run at {threads} threads"
            );

            let profiler = Rc::new(PlanProfiler::new(&plan));
            let profiled = Evaluator::new(&db)
                .with_exec_config(exec)
                .with_profiler(Rc::clone(&profiler));
            assert_eq!(
                profiled.eval(&plan).unwrap().iter().collect::<Vec<_>>(),
                expected.iter().collect::<Vec<_>>()
            );
            assert!(WINDOWS_OPENED.get() > 0, "profiled run opened no window");
            assert_eq!(
                profiled.stats(),
                plain.stats(),
                "the observer changed the run"
            );
            let totals = profiler.trace(&plan).totals();
            let stats = profiled.stats();
            assert_eq!(totals.base_reads as usize, stats.base_tuples_read);
            assert_eq!(totals.comparisons as usize, stats.comparisons);
            assert_eq!(totals.probes as usize, stats.probes);
        }
    }
}
