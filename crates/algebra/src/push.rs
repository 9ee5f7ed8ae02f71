//! Push-based streaming pipeline execution.
//!
//! The executor behind [`Evaluator::eval`], at every thread count and
//! with or without a profiler: a compiled plan is decomposed into
//! **pipelines** separated by **breakers** — the points where an operator
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
//! | the result sink        | `output`             |
//!
//! Within a pipeline, tuples flow leaf-to-root in morsel-sized batches
//! through a fused operator stack: the stateless suffix (filters,
//! projections, probes) runs on whichever worker claims the morsel — the
//! coordinator is worker 0 and, for a source of at most one morsel, the
//! only one (`parallel::Dispatch`) — while everything at or above the
//! last order-sensitive operator (dedup) runs on the coordinator, over
//! batches released in morsel order by a reorder buffer. Only breakers
//! materialize — by draining the lazy pull stream
//! (`Evaluator::materialize_scoped`), so governor charges, live
//! watermark accounting and pipeline events are charged once, at the
//! coordinator, in structural plan order. That is what makes
//! answers, row order and `ExecStats::without_dispatch_counters` — peak
//! watermarks included — bit-identical across 1/2/8 threads.
//!
//! Governor discipline: output budgets are checked per sink tuple,
//! cancellation/deadline every morsel-size outputs and between morsels;
//! workers only ever poll the cancel flag, so every budget trip happens
//! at a coordinator point.
//!
//! Attribution (only when a [`PlanProfiler`](crate::PlanProfiler) is
//! attached): every [`ChainOp`] carries the plan node it was fused from.
//! Workers bracket each operator application with a [`Window`] into a
//! per-operator [`OpProfile`] slot of their [`WorkerStats`], which the
//! coordinator folds into the profiler when the pipeline ends; a
//! breaker's own coordinator-side work runs inside a nested profiler
//! window ([`PushExec::own`]), from which the build side it drains
//! through the pull stream subtracts itself.

use crate::eval::{arity_of, eval_predicate, fill_key, Evaluator, LiveGuard};
use crate::parallel::{
    build_part_index, build_part_keys, chaos_morsel_hooks, panic_message, worker_panic, Dispatch,
    ParProbe, PartIndex,
};
use crate::profile::Window;
use crate::stats::OpProfile;
use crate::{AlgebraError, AlgebraExpr, Constraint, ExecStats, Predicate, WorkerStats};
use gq_storage::{Relation, Tuple, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;

/// Evaluate `e` through the push pipelines (the body of
/// [`Evaluator::eval`]).
pub(crate) fn eval_push(
    ev: &Evaluator<'_>,
    e: &AlgebraExpr,
    arity: usize,
) -> Result<Relation, AlgebraError> {
    let exec = PushExec {
        ev,
        threads: ev.exec.threads.max(1),
        morsel_size: ev.exec.morsel_size.max(1),
        guards: RefCell::new(Vec::new()),
    };
    let root = ev.begin_pipeline();
    let mut sink = Sink {
        out: Relation::intermediate(arity),
        governor: ev.governor.clone(),
        morsel_size: exec.morsel_size,
    };
    let mut chain: Vec<ChainOp<'_>> = Vec::new();
    let run = exec.run_node(e, &mut chain, &mut sink);
    match &run {
        Ok(()) => ev.end_pipeline(root, "output", sink.out.len()),
        Err(_) => ev.end_pipeline(root, "aborted", 0),
    }
    run?;
    ev.stats.borrow_mut().tuples_emitted += sink.out.len();
    Ok(sink.out)
}

/// The push executor: a coordinator that decomposes the plan into fused
/// operator chains and drives each pipeline's morsel dispatch.
struct PushExec<'a, 'db> {
    ev: &'a Evaluator<'db>,
    threads: usize,
    morsel_size: usize,
    /// Build-side live guards held by the coordinator, each keyed by the
    /// chain depth of the probe op its buffer feeds. When a union branch
    /// unwinds its chain segment (`chain.truncate(mark)`), the guards at
    /// or past the mark are dropped with it, releasing their watermark
    /// and governor charges — the probe structures they paid for are
    /// gone. Guards live only on the coordinator ([`LiveGuard`] holds an
    /// `Rc` and must not cross into worker closures), and remaining ones
    /// drop with the executor, before the caller's next entry point.
    guards: RefCell<Vec<(usize, LiveGuard)>>,
}

/// A stateless, order-preserving operator appliable to a batch on any
/// thread. Each variant charges [`crate::ExecStats`] exactly as the pull
/// stream's corresponding adapter does per tuple.
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
    /// Left-outer-join probe with ∅-padding.
    OuterProbe {
        index: PartIndex,
        right: Arc<Vec<Tuple>>,
        left_cols: Vec<usize>,
        pad_arity: usize,
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
}

/// One link of a fused pipeline chain, pushed root-first during plan
/// decomposition (so batches apply the chain in *reverse*), with the plan
/// node it was fused from (what a profiled run attributes its work to).
/// `Dedup` is the one stateful link: it must see tuples in stream order,
/// so it and everything rootward of it run on the coordinator.
enum ChainOp<'a> {
    /// Stateless segment, eligible for worker threads.
    Work(&'a AlgebraExpr, WorkOp<'a>),
    /// Order-sensitive distinct filter. The set lives in the chain entry
    /// itself, so a union's branches (which re-run the leafward segment)
    /// share one set, exactly like the pull stream's `chain(..).filter`.
    Dedup(&'a AlgebraExpr, RefCell<HashSet<Tuple>>),
}

impl<'a> ChainOp<'a> {
    fn node(&self) -> &'a AlgebraExpr {
        match self {
            ChainOp::Work(node, _) | ChainOp::Dedup(node, _) => node,
        }
    }
}

/// The result sink: inserts coordinator-ordered tuples under the
/// governor (output budget per tuple, cancellation/deadline every
/// morsel-size outputs).
struct Sink {
    out: Relation,
    governor: Option<gq_governor::Governor>,
    morsel_size: usize,
}

impl Sink {
    fn push(&mut self, t: Tuple) -> Result<(), AlgebraError> {
        if let Some(g) = &self.governor {
            g.check_output("evaluate", self.out.len() as u64 + 1)?;
            if (self.out.len() + 1).is_multiple_of(self.morsel_size) {
                g.check("evaluate")?;
            }
        }
        self.out.insert(t)?;
        Ok(())
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

impl<'db> PushExec<'_, 'db> {
    /// Cut `len` input tuples into a dispatch under this executor's
    /// thread and morsel configuration.
    fn dispatch(&self, len: usize) -> Dispatch<'_> {
        let governor = self.ev.governor.as_ref();
        Dispatch::new(self.threads, self.morsel_size, len, governor)
    }

    /// Run a breaker's own coordinator-side work — everything its arm
    /// does before handing over to the pipeline child: materializing the
    /// build side, building the probe table, grouping, dividing, merging
    /// — inside a profiler window credited to `node`, which emitted
    /// `rows(&result)` tuples. The build side drains through the pull
    /// stream's own nested windows, so `node` is credited with the
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

    /// Park a scoped build-side guard keyed by the chain depth of the
    /// probe op it feeds.
    fn hold_guard(&self, depth: usize, guard: LiveGuard) {
        self.guards.borrow_mut().push((depth, guard));
    }

    /// Drop the guards whose probe ops were unwound by
    /// `chain.truncate(mark)`, releasing their live/governor charges.
    fn release_guards(&self, mark: usize) {
        self.guards.borrow_mut().retain(|entry| entry.0 < mark);
    }

    /// Decompose `e`: streamable operators extend the fused chain and
    /// recurse into their pipeline child; breakers materialize their
    /// build side (sequentially, charging live watermarks and events)
    /// and fuse a probe/filter op; sources run the completed pipeline.
    ///
    /// Effect order (operator counting, build-before-probe,
    /// division right-then-left) mirrors the pull stream's `stream_inner`
    /// arm for arm, so a full drain of `Evaluator::stream` is an
    /// independent reference for every counter.
    fn run_node<'p>(
        &self,
        e: &'p AlgebraExpr,
        chain: &mut Vec<ChainOp<'p>>,
        sink: &mut Sink,
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
                chain.push(ChainOp::Work(e, WorkOp::Filter(predicate)));
                self.run_node(input, chain, sink)
            }
            AlgebraExpr::Project { input, positions } => {
                chain.push(ChainOp::Dedup(e, RefCell::new(HashSet::new())));
                chain.push(ChainOp::Work(e, WorkOp::ProjectMap(positions)));
                self.run_node(input, chain, sink)
            }
            AlgebraExpr::GroupCount { input, group } => {
                // Grouping is a full breaker: input materializes, the
                // sweep runs on the coordinator, and the grouped output
                // becomes a source.
                let out = self.own(e, rows_of, || {
                    let (tuples, _guard) = self.ev.materialize_scoped(input, "group-input")?;
                    Ok(self.ev.group_count(&tuples, group))
                })?;
                self.run_pipeline(&[&out], None, chain, sink)
            }
            AlgebraExpr::Product { left, right } => {
                let (right_tuples, guard) = self.own(e, no_rows, || {
                    self.ev.materialize_scoped(right, "product-build")
                })?;
                self.hold_guard(chain.len(), guard);
                chain.push(ChainOp::Work(e, WorkOp::Product(right_tuples)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::Join { left, right, on } => {
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let (index, right, guard) =
                    self.own(e, no_rows, || self.build_index(right, on, "join-build"))?;
                self.hold_guard(chain.len(), guard);
                let probe = WorkOp::HashProbe {
                    index,
                    right,
                    left_cols,
                };
                chain.push(ChainOp::Work(e, probe));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::SemiJoin { left, right, on }
            | AlgebraExpr::ComplementJoin { left, right, on } => {
                let (probe, guard) = self.own(e, no_rows, || self.build_probe(right, on))?;
                self.hold_guard(chain.len(), guard);
                let probe = WorkOp::SemiProbe {
                    probe,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    negate: matches!(e, AlgebraExpr::ComplementJoin { .. }),
                };
                chain.push(ChainOp::Work(e, probe));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::Division { left, right, on } => {
                // Division is a double breaker (right then left); the
                // grouping sweep is the evaluator's.
                let out = self.own(e, rows_of, || {
                    let left_arity = arity_of(left, self.ev.db)?;
                    let (right_tuples, _rguard) =
                        self.ev.materialize_scoped(right, "division-divisor")?;
                    let (left_tuples, _lguard) =
                        self.ev.materialize_scoped(left, "division-dividend")?;
                    Ok(self.ev.divide(&left_tuples, &right_tuples, left_arity, on))
                })?;
                self.run_pipeline(&[&out], None, chain, sink)
            }
            AlgebraExpr::Union { left, right } => {
                // One shared dedup set; each branch re-runs the leafward
                // chain segment, then its ops are unwound so the next
                // branch starts from the union's own chain position.
                chain.push(ChainOp::Dedup(e, RefCell::new(HashSet::new())));
                let mark = chain.len();
                self.run_node(left, chain, sink)?;
                chain.truncate(mark);
                self.release_guards(mark);
                self.run_node(right, chain, sink)?;
                chain.truncate(mark);
                self.release_guards(mark);
                Ok(())
            }
            AlgebraExpr::Difference { left, right } => {
                let (keys, guard) = self.own(e, no_rows, || {
                    let (right_tuples, guard) =
                        self.ev.materialize_scoped(right, "difference-build")?;
                    let keys: HashSet<Tuple> = right_tuples.iter().cloned().collect();
                    Ok::<_, AlgebraError>((keys, guard))
                })?;
                self.hold_guard(chain.len(), guard);
                chain.push(ChainOp::Work(e, WorkOp::DiffFilter(keys)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::LeftOuterJoin { left, right, on } => {
                let (index, right_tuples, guard) =
                    self.own(e, no_rows, || self.build_index(right, on, "outer-build"))?;
                self.hold_guard(chain.len(), guard);
                let pad_arity = match right_tuples.first().map(Tuple::arity) {
                    Some(a) => a,
                    None => arity_of(right, self.ev.db)?,
                };
                let probe = WorkOp::OuterProbe {
                    index,
                    right: right_tuples,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    pad_arity,
                };
                chain.push(ChainOp::Work(e, probe));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::ConstrainedOuterJoin {
                left,
                right,
                on,
                constraint,
            } => {
                let (probe, guard) = self.own(e, no_rows, || self.build_probe(right, on))?;
                self.hold_guard(chain.len(), guard);
                let marker = WorkOp::Marker {
                    probe,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    constraint,
                };
                chain.push(ChainOp::Work(e, marker));
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
        let (tuples, guard) = self.ev.materialize_scoped(right, kind)?;
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let dispatch = self.dispatch(tuples.len());
        let index = build_part_index(dispatch, &self.ev.stats, &tuples, &right_cols)?;
        Ok((index, tuples, guard))
    }

    /// Build the probe side of a semi/complement/marker join: a drained
    /// build side followed by a partitioned key-set build. The returned
    /// guard carries the build side's watermark charge; the caller keys it
    /// to the probe op so it releases when that op unwinds.
    fn build_probe(
        &self,
        right: &AlgebraExpr,
        on: &[(usize, usize)],
    ) -> Result<(ParProbe, LiveGuard), AlgebraError> {
        let (tuples, guard) = self.ev.materialize_scoped(right, "probe-build")?;
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let dispatch = self.dispatch(tuples.len());
        let parts = build_part_keys(dispatch, &self.ev.stats, &tuples, &right_cols)?;
        Ok((ParProbe(parts), guard))
    }

    /// Run one completed pipeline: morselize `input` — contiguous runs of
    /// tuples, a relation's chunks or a breaker's one buffer, cut into
    /// morsels by logical row number whatever the run boundaries — apply
    /// the chain's stateless suffix on the workers the dispatch rule
    /// grants, release batches in morsel order and finish them (stateful
    /// ops + sink) on the coordinator.
    ///
    /// `scan` is the plan node of a base-relation source, whose tuples
    /// are charged to `base_tuples_read` as workers consume them — the
    /// producer-side counter the termination tests observe; buffer
    /// sources (a breaker's output) pass `None`.
    fn run_pipeline(
        &self,
        input: &[&[Tuple]],
        scan: Option<&AlgebraExpr>,
        chain: &[ChainOp<'_>],
        sink: &mut Sink,
    ) -> Result<(), AlgebraError> {
        let input = Source::new(input);
        // Split at the last (leafward-most) dedup: everything after it is
        // stateless and runs on workers, it and everything before it run
        // on the coordinator in morsel order.
        let split = chain
            .iter()
            .rposition(|op| matches!(op, ChainOp::Dedup(..)))
            .map(|i| i + 1)
            .unwrap_or(0);
        // The worker segment applies leaf-to-root, i.e. in reverse of the
        // chain's root-first construction order. Each op keeps its chain
        // position: that is its attribution slot.
        let work_ops: Vec<(usize, &WorkOp<'_>)> = chain
            .iter()
            .enumerate()
            .skip(split)
            .rev()
            .filter_map(|(slot, op)| match op {
                ChainOp::Work(_, w) => Some((slot, w)),
                // Unreachable by construction: the split point is past
                // the last Dedup.
                ChainOp::Dedup(..) => None,
            })
            .collect();
        let dispatch = self.dispatch(input.len);
        // One attribution slot per chain op plus one for the scan — none
        // without a profiler, which is what keeps workers from opening
        // windows.
        let profiler = self.ev.profiler.as_deref();
        let slots = profiler.map_or(0, |_| chain.len() + 1);
        let worker_stats = |w: usize| {
            let mut ws = WorkerStats::new(w);
            ws.ops = vec![OpProfile::default(); slots];
            ws
        };

        // The coordinator is worker 0: it claims morsels too, and between
        // them drains the batches its helpers sent through the channel
        // into the reorder buffer, which releases them in morsel order as
        // they complete. A source of at most one morsel has no helpers,
        // so the whole pipeline runs on the calling thread.
        enum Msg {
            Batch(usize, Vec<Tuple>),
            Panic(usize, String),
            Done(WorkerStats),
        }
        let run_morsel = |ws: &mut WorkerStats, mi: usize, range: Range<usize>| {
            ws.morsels += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                chaos_morsel_hooks(mi);
                apply_work(&work_ops, ws, scan.is_some(), &input, range)
            })) {
                Ok(batch) => Msg::Batch(mi, batch),
                Err(p) => {
                    dispatch.abort();
                    Msg::Panic(mi, panic_message(p))
                }
            }
        };
        let helpers = dispatch.workers - 1;
        self.ev.stats.borrow_mut().workers_spawned += helpers;
        let (tx, rx) = mpsc::channel::<Msg>();
        let mut coord_ws = worker_stats(0);
        let mut done: Vec<WorkerStats> = Vec::with_capacity(helpers);
        let mut first_panic: Option<(usize, String)> = None;
        let mut sink_result: Result<(), AlgebraError> = Ok(());
        thread::scope(|s| {
            let (dispatch, run_morsel, worker_stats) = (&dispatch, &run_morsel, &worker_stats);
            for w in 1..=helpers {
                let tx = tx.clone();
                s.spawn(move || {
                    let mut ws = worker_stats(w);
                    while let Some((mi, range)) = dispatch.claim() {
                        let msg = run_morsel(&mut ws, mi, range);
                        let panicked = matches!(msg, Msg::Panic(..));
                        let _ = tx.send(msg);
                        if panicked {
                            break;
                        }
                    }
                    let _ = tx.send(Msg::Done(ws));
                });
            }
            drop(tx);
            let mut pending: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
            let mut next_emit = 0usize;
            let mut handle = |coord_ws: &mut WorkerStats, msg: Msg| match msg {
                Msg::Done(ws) => done.push(ws),
                Msg::Panic(mi, message) => {
                    // Smallest morsel id wins, so the surfaced panic is
                    // deterministic under chaos seeds.
                    if first_panic.as_ref().is_none_or(|&(pmi, _)| mi < pmi) {
                        first_panic = Some((mi, message));
                    }
                }
                Msg::Batch(mi, batch) => {
                    if sink_result.is_err() || first_panic.is_some() {
                        return;
                    }
                    pending.insert(mi, batch);
                    while let Some(batch) = pending.remove(&next_emit) {
                        next_emit += 1;
                        if let Err(e) = finish_batch(&chain[..split], coord_ws, sink, batch) {
                            sink_result = Err(e);
                            dispatch.abort();
                            break;
                        }
                    }
                }
            };
            while let Some((mi, range)) = dispatch.claim() {
                let msg = run_morsel(&mut coord_ws, mi, range);
                handle(&mut coord_ws, msg);
                while let Ok(msg) = rx.try_recv() {
                    handle(&mut coord_ws, msg);
                }
            }
            // Every helper ends with `Done` and then drops its sender, so
            // this drains exactly what is still in flight.
            while let Ok(msg) = rx.recv() {
                handle(&mut coord_ws, msg);
            }
        });
        // Fold all counters before error propagation so partially-done
        // work stays observable.
        for ws in done.iter().chain([&coord_ws]) {
            ws.merge_into(&mut self.ev.stats.borrow_mut());
            for (slot, op) in ws.ops.iter().enumerate() {
                let node = chain.get(slot).map(ChainOp::node).or(scan);
                if let (Some(p), Some(node)) = (profiler, node) {
                    p.add(node, op);
                }
            }
        }
        sink_result?;
        if let Some((_, message)) = first_panic {
            return Err(worker_panic(dispatch.governor, message));
        }
        self.ev.check_governor()
    }
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

    /// The rows of one morsel (a non-empty range below `len`) as a batch.
    /// When runs and morsels are cut alike — a fully loaded relation at
    /// the default morsel size — that is one run, whole.
    fn rows(&self, range: Range<usize>) -> Vec<Tuple> {
        let mut batch = Vec::with_capacity(range.len());
        // The last run starting at or before the range: of several equal
        // starts (empty runs), the one that has the row.
        let mut run = self.starts.partition_point(|&s| s <= range.start) - 1;
        let mut at = range.start;
        while at < range.end {
            let offset = at - self.starts[run];
            let take = (self.runs[run].len() - offset).min(range.end - at);
            batch.extend_from_slice(&self.runs[run][offset..offset + take]);
            at += take;
            run += 1;
        }
        batch
    }
}

/// Coordinator tail of a pipeline: apply the order-sensitive chain
/// segment (root-first order reversed, like the worker segment) and sink
/// the survivors.
fn finish_batch(
    coord_part: &[ChainOp<'_>],
    coord_ws: &mut WorkerStats,
    sink: &mut Sink,
    mut batch: Vec<Tuple>,
) -> Result<(), AlgebraError> {
    for (slot, op) in coord_part.iter().enumerate().rev() {
        match op {
            ChainOp::Dedup(_, seen) => in_slot(coord_ws, slot, |_| {
                let mut seen = seen.borrow_mut();
                batch.retain(|t| seen.insert(t.clone()));
                ((), batch.len())
            }),
            ChainOp::Work(_, w) => batch = apply_in_slot(w, slot, coord_ws, batch),
        }
    }
    for t in batch {
        sink.push(t)?;
    }
    Ok(())
}

/// Apply the fused worker segment to one morsel, charging the worker's
/// private stats. `scan` accounts base-relation tuples as they are
/// consumed (the pull scan's per-tuple `inspect`); the source's slot is
/// the last one.
fn apply_work(
    ops: &[(usize, &WorkOp<'_>)],
    ws: &mut WorkerStats,
    scan: bool,
    input: &Source<'_>,
    morsel: Range<usize>,
) -> Vec<Tuple> {
    let source_slot = ws.ops.len().saturating_sub(1);
    let mut batch = in_slot(ws, source_slot, |stats| {
        if scan {
            stats.base_tuples_read += morsel.len();
        }
        let rows = morsel.len();
        (input.rows(morsel), rows)
    });
    for &(slot, op) in ops {
        batch = apply_in_slot(op, slot, ws, batch);
    }
    batch
}

/// [`apply_one`], attributed to `slot`.
fn apply_in_slot(
    op: &WorkOp<'_>,
    slot: usize,
    ws: &mut WorkerStats,
    batch: Vec<Tuple>,
) -> Vec<Tuple> {
    in_slot(ws, slot, |stats| {
        let out = apply_one(op, stats, batch);
        let rows = if op.emits() { out.len() } else { 0 };
        (out, rows)
    })
}

/// Run `work` over the worker's counters. In a profiled run — the worker
/// has attribution slots at all — it runs inside a [`Window`] credited,
/// with the row count `work` reports, to `slot`; otherwise nothing is
/// snapshotted or timed.
fn in_slot<T>(
    ws: &mut WorkerStats,
    slot: usize,
    work: impl FnOnce(&mut ExecStats) -> (T, usize),
) -> T {
    if ws.ops.is_empty() {
        return work(&mut ws.stats).0;
    }
    let window = Window::open(&ws.stats);
    let (out, rows) = work(&mut ws.stats);
    ws.ops[slot].add(window.close(&ws.stats), rows);
    out
}

/// Apply one stateless operator to a batch. Charges mirror the pull
/// stream's adapters exactly, per tuple.
fn apply_one(op: &WorkOp<'_>, stats: &mut ExecStats, batch: Vec<Tuple>) -> Vec<Tuple> {
    match op {
        WorkOp::Filter(p) => batch
            .into_iter()
            .filter(|t| eval_predicate(p, t, stats))
            .collect(),
        WorkOp::ProjectMap(positions) => batch.iter().map(|t| t.project(positions)).collect(),
        WorkOp::Product(right) => {
            let mut out = Vec::with_capacity(batch.len() * right.len());
            for l in &batch {
                stats.comparisons += right.len();
                out.extend(right.iter().map(|r| l.concat(r)));
            }
            out
        }
        WorkOp::HashProbe {
            index,
            right,
            left_cols,
        } => {
            let mut scratch: Vec<Value> = Vec::new();
            let mut out = Vec::new();
            for l in &batch {
                fill_key(&mut scratch, l, left_cols);
                stats.probes += 1;
                let matches = index.get(&scratch);
                stats.comparisons += matches.len().max(1);
                out.extend(matches.iter().map(|&rid| l.concat(&right[rid])));
            }
            out
        }
        WorkOp::SemiProbe {
            probe,
            left_cols,
            negate,
        } => {
            let mut scratch: Vec<Value> = Vec::new();
            batch
                .into_iter()
                .filter(|l| {
                    stats.probes += 1;
                    stats.comparisons += 1;
                    probe.contains(l, left_cols, &mut scratch) != *negate
                })
                .collect()
        }
        WorkOp::OuterProbe {
            index,
            right,
            left_cols,
            pad_arity,
        } => {
            let mut scratch: Vec<Value> = Vec::new();
            let mut out = Vec::new();
            for l in &batch {
                fill_key(&mut scratch, l, left_cols);
                stats.probes += 1;
                let matches = index.get(&scratch);
                stats.comparisons += matches.len().max(1);
                if matches.is_empty() {
                    let nulls = Tuple::new(vec![Value::Null; *pad_arity]);
                    out.push(l.concat(&nulls));
                } else {
                    out.extend(matches.iter().map(|&rid| l.concat(&right[rid])));
                }
            }
            out
        }
        WorkOp::Marker {
            probe,
            left_cols,
            constraint,
        } => {
            let mut scratch: Vec<Value> = Vec::new();
            batch
                .iter()
                .map(|l| {
                    let marker = if constraint.satisfied_by(l) {
                        stats.probes += 1;
                        stats.comparisons += 1;
                        if probe.contains(l, left_cols, &mut scratch) {
                            Value::Matched
                        } else {
                            Value::Null
                        }
                    } else {
                        // Definition 7, third set: no probe performed.
                        Value::Null
                    };
                    l.extended_with(marker)
                })
                .collect()
        }
        WorkOp::DiffFilter(keys) => batch
            .into_iter()
            .filter(|t| {
                stats.comparisons += 1;
                !keys.contains(t)
            })
            .collect(),
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
