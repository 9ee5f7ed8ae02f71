//! Push-based streaming pipeline execution.
//!
//! The third execution strategy, and the default for parallel configs:
//! instead of materializing a `Vec<Tuple>` per operator (the legacy
//! batch executor of [`crate::parallel`]) or pulling tuple-at-a-time
//! through boxed iterators (the sequential path), a compiled plan is
//! decomposed into **pipelines** separated by **breakers** — the points
//! where an operator *must* see its whole input before producing output:
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
//! | sort-merge inputs      | `sort-input`         |
//! | CSE shared operand     | `cse-share`          |
//! | the result sink        | `output`             |
//!
//! Within a pipeline, tuples flow leaf-to-root in morsel-sized batches
//! through a fused operator stack: the stateless suffix (filters,
//! projections, probes) runs on whichever worker claims the morsel — the
//! coordinator is worker 0 and, for a source of at most one morsel, the
//! only one (`parallel::Dispatch`) — while everything at or above the
//! last order-sensitive operator (dedup) runs on the coordinator, over
//! batches released in morsel order by a reorder buffer. Only breakers materialize — through the *sequential*
//! `Evaluator::materialize`, so memo/CSE gates, governor charges, live
//! watermark accounting and pipeline events are charged once, at the
//! coordinator, in structural plan order. That is what makes answers,
//! row order, `ExecStats::without_dispatch_counters`, *and* the peak
//! watermarks bit-identical across 1/2/8 threads.
//!
//! Governor discipline matches the sequential drain exactly: output
//! budgets are checked per sink tuple, cancellation/deadline every
//! morsel-size outputs and between morsels; workers only ever poll the
//! cancel flag, so every budget trip happens at a coordinator point.

use crate::eval::{arity_of, eval_predicate, fill_key, Evaluator, JoinAlgorithm, LiveGuard};
use crate::parallel::{
    chaos_morsel_hooks, panic_message, worker_panic, Dispatch, ParProbe, ParallelExec, PartIndex,
};
use crate::{AlgebraError, AlgebraExpr, Constraint, Predicate, WorkerStats};
use gq_storage::{HashIndex, Relation, Tuple, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;

/// Evaluate `e` through the push executor (entered from
/// [`Evaluator::eval`] for streaming parallel configurations).
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
/// operator chains and drives each pipeline's morsel dispatch. Breaker
/// builds reuse the partitioned build kernel of [`ParallelExec`].
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
/// thread. Each variant charges [`crate::ExecStats`] exactly as the
/// sequential evaluator's corresponding stream adapter does per tuple.
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
    /// Hash-join probe against a cached base-relation index.
    CachedProbe {
        idx: Arc<HashIndex>,
        rel: &'a Relation,
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

/// One link of a fused pipeline chain, pushed root-first during plan
/// decomposition (so batches apply the chain in *reverse*). `Dedup` is
/// the one stateful link: it must see tuples in stream order, so it and
/// everything rootward of it run on the coordinator.
enum ChainOp<'a> {
    /// Stateless segment, eligible for worker threads.
    Work(WorkOp<'a>),
    /// Order-sensitive distinct filter. The set lives in the chain entry
    /// itself, so a union's branches (which re-run the leafward segment)
    /// share one set, exactly like the sequential `chain(..).filter`.
    Dedup(RefCell<HashSet<Tuple>>),
}

/// The result sink: inserts coordinator-ordered tuples under the same
/// governor cadence as the sequential drain (output budget per tuple,
/// cancellation/deadline every morsel-size outputs).
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

impl<'db> PushExec<'_, 'db> {
    /// The build-kernel view of this executor (partitioned index/key-set
    /// builds, shared with the legacy batch executor).
    fn kernels(&self) -> ParallelExec<'_, 'db> {
        ParallelExec {
            ev: self.ev,
            threads: self.threads,
            morsel_size: self.morsel_size,
        }
    }

    /// Park a scoped build-side guard (if the materialization produced
    /// one) keyed by the chain depth of the probe op it feeds.
    fn hold_guard(&self, depth: usize, guard: Option<LiveGuard>) {
        if let Some(g) = guard {
            self.guards.borrow_mut().push((depth, g));
        }
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
    /// Effect order (CSE gate, operator counting, build-before-probe,
    /// division right-then-left) mirrors the sequential `stream_inner`
    /// arm for arm, which is what keeps every counter bit-identical.
    fn run_node<'p>(
        &self,
        e: &'p AlgebraExpr,
        chain: &mut Vec<ChainOp<'p>>,
        sink: &mut Sink,
    ) -> Result<(), AlgebraError>
    where
        'db: 'p,
    {
        // CSE gate first, before the operator is counted — a shared
        // subplan becomes a buffer source, exactly like the sequential
        // stream's early return.
        if let Some(shared) = self.ev.cse_get(e)? {
            return self.run_pipeline(&shared, false, chain, sink);
        }
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
                self.run_pipeline(rel.tuples(), true, chain, sink)
            }
            AlgebraExpr::Literal(r) => {
                self.ev.stats.borrow_mut().base_scans += 1;
                self.run_pipeline(r.tuples(), true, chain, sink)
            }
            AlgebraExpr::Select { input, predicate } => {
                chain.push(ChainOp::Work(WorkOp::Filter(predicate)));
                self.run_node(input, chain, sink)
            }
            AlgebraExpr::Project { input, positions } => {
                chain.push(ChainOp::Dedup(RefCell::new(HashSet::new())));
                chain.push(ChainOp::Work(WorkOp::ProjectMap(positions)));
                self.run_node(input, chain, sink)
            }
            AlgebraExpr::GroupCount { input, group } => {
                // Grouping is a full breaker: input materializes, the
                // sweep runs on the coordinator (sequential logic and
                // charging), and the grouped output becomes a source. The
                // scoped guard releases the input buffer when this arm
                // (and the grouped pipeline it feeds) completes.
                let (tuples, _guard) = self.ev.materialize_scoped(input, "group-input")?;
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
                let out: Vec<Tuple> = order
                    .into_iter()
                    .map(|k| {
                        let n = counts[&k];
                        k.extended_with(Value::Int(n))
                    })
                    .collect();
                self.run_pipeline(&out, false, chain, sink)
            }
            AlgebraExpr::Product { left, right } => {
                let (right_tuples, guard) = self.ev.materialize_scoped(right, "product-build")?;
                self.hold_guard(chain.len(), guard);
                chain.push(ChainOp::Work(WorkOp::Product(right_tuples)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::Join { left, right, on } => {
                if self.ev.join_algorithm == JoinAlgorithm::SortMerge {
                    // The sequential ablation baseline: both inputs are
                    // breakers, the merged output is a source.
                    let out: Vec<Tuple> = self.ev.sort_merge_join(left, right, on)?.collect();
                    return self.run_pipeline(&out, false, chain, sink);
                }
                let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                if let (Some(cache), AlgebraExpr::Relation(name)) = (self.ev.index_cache, &**right)
                {
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
                    chain.push(ChainOp::Work(WorkOp::CachedProbe {
                        idx,
                        rel,
                        left_cols,
                    }));
                    return self.run_node(left, chain, sink);
                }
                let (right_tuples, guard) = self.ev.materialize_scoped(right, "join-build")?;
                self.hold_guard(chain.len(), guard);
                let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
                let index = self
                    .kernels()
                    .build_part_index(&right_tuples, &right_cols)?;
                chain.push(ChainOp::Work(WorkOp::HashProbe {
                    index,
                    right: right_tuples,
                    left_cols,
                }));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::SemiJoin { left, right, on } => {
                let (probe, guard) = self.build_probe(right, on)?;
                self.hold_guard(chain.len(), guard);
                chain.push(ChainOp::Work(WorkOp::SemiProbe {
                    probe,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    negate: false,
                }));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::ComplementJoin { left, right, on } => {
                let (probe, guard) = self.build_probe(right, on)?;
                self.hold_guard(chain.len(), guard);
                chain.push(ChainOp::Work(WorkOp::SemiProbe {
                    probe,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    negate: true,
                }));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::Division { left, right, on } => {
                // Division is a double breaker (right then left, like the
                // sequential arm); the grouping sweep shares the
                // evaluator's implementation and charging.
                let left_arity = arity_of(left, self.ev.db)?;
                let (right_tuples, _rguard) =
                    self.ev.materialize_scoped(right, "division-divisor")?;
                let (left_tuples, _lguard) =
                    self.ev.materialize_scoped(left, "division-dividend")?;
                let out = self.ev.divide(&left_tuples, &right_tuples, left_arity, on);
                self.run_pipeline(&out, false, chain, sink)
            }
            AlgebraExpr::Union { left, right } => {
                // One shared dedup set; each branch re-runs the leafward
                // chain segment, then its ops are unwound so the next
                // branch starts from the union's own chain position.
                chain.push(ChainOp::Dedup(RefCell::new(HashSet::new())));
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
                let (right_tuples, guard) =
                    self.ev.materialize_scoped(right, "difference-build")?;
                self.hold_guard(chain.len(), guard);
                let keys: HashSet<Tuple> = right_tuples.iter().cloned().collect();
                chain.push(ChainOp::Work(WorkOp::DiffFilter(keys)));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::LeftOuterJoin { left, right, on } => {
                let (right_tuples, guard) = self.ev.materialize_scoped(right, "outer-build")?;
                self.hold_guard(chain.len(), guard);
                let pad_arity = match right_tuples.first().map(Tuple::arity) {
                    Some(a) => a,
                    None => arity_of(right, self.ev.db)?,
                };
                let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
                let index = self
                    .kernels()
                    .build_part_index(&right_tuples, &right_cols)?;
                chain.push(ChainOp::Work(WorkOp::OuterProbe {
                    index,
                    right: right_tuples,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    pad_arity,
                }));
                self.run_node(left, chain, sink)
            }
            AlgebraExpr::ConstrainedOuterJoin {
                left,
                right,
                on,
                constraint,
            } => {
                let (probe, guard) = self.build_probe(right, on)?;
                self.hold_guard(chain.len(), guard);
                chain.push(ChainOp::Work(WorkOp::Marker {
                    probe,
                    left_cols: on.iter().map(|&(l, _)| l).collect(),
                    constraint,
                }));
                self.run_node(left, chain, sink)
            }
        }
    }

    /// Build the probe side of a semi/complement/marker join, mirroring
    /// the sequential `build_probe`: the cached base-relation index when
    /// available (right subtree not evaluated), otherwise a sequential
    /// materialization followed by a partitioned key-set build. The
    /// returned guard (fresh materializations only) carries the build
    /// side's watermark charge; the caller keys it to the probe op so it
    /// releases when that op unwinds.
    fn build_probe(
        &self,
        right: &AlgebraExpr,
        on: &[(usize, usize)],
    ) -> Result<(ParProbe, Option<LiveGuard>), AlgebraError> {
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        if let (Some(cache), AlgebraExpr::Relation(name)) = (self.ev.index_cache, right) {
            let stats = self.ev.stats.clone();
            let idx = cache
                .get_or_build(self.ev.db, name, &right_cols, |len| {
                    let mut s = stats.borrow_mut();
                    s.base_scans += 1;
                    s.base_tuples_read += len;
                })
                .map_err(AlgebraError::Storage)?;
            return Ok((ParProbe::Index(idx), None));
        }
        let (tuples, guard) = self.ev.materialize_scoped(right, "probe-build")?;
        Ok((
            ParProbe::Parts(self.kernels().build_part_keys(&tuples, &right_cols)?),
            guard,
        ))
    }

    /// Run one completed pipeline: morselize `input`, apply the chain's
    /// stateless suffix on the workers the dispatch rule grants, release
    /// batches in morsel order and finish them (stateful ops + sink) on
    /// the coordinator.
    ///
    /// `charge_reads` is true for base-relation sources, whose tuples are
    /// charged to `base_tuples_read` as workers consume them — this is
    /// the producer-side counter the termination tests observe.
    fn run_pipeline(
        &self,
        input: &[Tuple],
        charge_reads: bool,
        chain: &[ChainOp<'_>],
        sink: &mut Sink,
    ) -> Result<(), AlgebraError> {
        // Split at the last (leafward-most) dedup: everything after it is
        // stateless and runs on workers, it and everything before it run
        // on the coordinator in morsel order.
        let split = chain
            .iter()
            .rposition(|op| matches!(op, ChainOp::Dedup(_)))
            .map(|i| i + 1)
            .unwrap_or(0);
        let (coord_part, work_part) = chain.split_at(split);
        // The worker segment applies leaf-to-root, i.e. in reverse of the
        // chain's root-first construction order.
        let work_ops: Vec<&WorkOp<'_>> = work_part
            .iter()
            .rev()
            .filter_map(|op| match op {
                ChainOp::Work(w) => Some(w),
                // Unreachable by construction: the split point is past
                // the last Dedup.
                ChainOp::Dedup(_) => None,
            })
            .collect();
        let governor = self.ev.governor.as_ref();
        let dispatch = Dispatch::new(self.threads, self.morsel_size, input.len(), governor);

        // The coordinator is worker 0: it claims morsels too, and between
        // them drains the batches its helpers sent through the channel
        // into the reorder buffer, which releases them in morsel order —
        // incremental (pipelined) where the legacy dispatcher is a full
        // barrier. A source of at most one morsel has no helpers, so the
        // whole pipeline runs on the calling thread.
        enum Msg {
            Batch(usize, Vec<Tuple>),
            Panic(usize, String),
            Done(WorkerStats),
        }
        let run_morsel = |ws: &mut WorkerStats, mi: usize, range: Range<usize>| {
            ws.morsels += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                chaos_morsel_hooks(mi);
                apply_work(&work_ops, ws, charge_reads, &input[range])
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
        let mut coord_ws = WorkerStats::new(0);
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(helpers);
        let mut first_panic: Option<(usize, String)> = None;
        let mut sink_result: Result<(), AlgebraError> = Ok(());
        thread::scope(|s| {
            let (dispatch, run_morsel) = (&dispatch, &run_morsel);
            for w in 1..=helpers {
                let tx = tx.clone();
                s.spawn(move || {
                    let mut ws = WorkerStats::new(w);
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
                Msg::Done(ws) => worker_stats.push(ws),
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
                        if let Err(e) = self.finish_batch(coord_part, coord_ws, sink, batch) {
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
        // work stays observable, mirroring the legacy dispatcher.
        {
            let mut shared = self.ev.stats.borrow_mut();
            for ws in &worker_stats {
                ws.merge_into(&mut shared);
            }
            coord_ws.merge_into(&mut shared);
        }
        sink_result?;
        if let Some((_, message)) = first_panic {
            return Err(worker_panic(governor, message));
        }
        if let Some(g) = governor {
            g.check("evaluate")?;
        }
        Ok(())
    }

    /// Coordinator tail of a pipeline: apply the order-sensitive chain
    /// segment (root-first order reversed, like the worker segment) and
    /// sink the survivors.
    fn finish_batch(
        &self,
        coord_part: &[ChainOp<'_>],
        coord_ws: &mut WorkerStats,
        sink: &mut Sink,
        batch: Vec<Tuple>,
    ) -> Result<(), AlgebraError> {
        let mut batch = batch;
        for op in coord_part.iter().rev() {
            match op {
                ChainOp::Dedup(seen) => {
                    let mut seen = seen.borrow_mut();
                    batch.retain(|t| seen.insert(t.clone()));
                }
                ChainOp::Work(w) => {
                    batch = apply_one(w, &mut coord_ws.stats, batch);
                }
            }
        }
        for t in batch {
            sink.push(t)?;
        }
        Ok(())
    }
}

/// Apply the fused worker segment to one morsel, charging the worker's
/// private stats. `charge_reads` accounts base-relation tuples as they
/// are consumed (the sequential scan's per-tuple `inspect`).
fn apply_work(
    ops: &[&WorkOp<'_>],
    ws: &mut WorkerStats,
    charge_reads: bool,
    chunk: &[Tuple],
) -> Vec<Tuple> {
    if charge_reads {
        ws.stats.base_tuples_read += chunk.len();
    }
    let mut batch: Vec<Tuple> = chunk.to_vec();
    for op in ops {
        batch = apply_one(op, &mut ws.stats, batch);
    }
    batch
}

/// Apply one stateless operator to a batch. Charges mirror the
/// sequential stream adapters exactly, per tuple.
fn apply_one(op: &WorkOp<'_>, stats: &mut crate::ExecStats, batch: Vec<Tuple>) -> Vec<Tuple> {
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
        WorkOp::CachedProbe {
            idx,
            rel,
            left_cols,
        } => {
            let mut scratch: Vec<Value> = Vec::new();
            let mut out = Vec::new();
            for l in &batch {
                stats.probes += 1;
                let matches = idx.probe_with(l, left_cols, &mut scratch);
                stats.comparisons += matches.len().max(1);
                out.extend(matches.iter().map(|&rid| l.concat(&rel.tuples()[rid])));
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
