//! Per-operator runtime attribution (the EXPLAIN ANALYZE substrate).
//!
//! A [`PlanProfiler`] is built over the *final* (post-optimization) plan
//! and attached to an [`Evaluator`](crate::Evaluator). Work is attributed
//! through [`Window`]s — an [`ExecStats`] snapshot and a monotonic timer
//! taken before a piece of work and compared after it:
//!
//! * the push coordinator opens a window around a breaker's own work
//!   (run the build pipeline, build the probe table, group, divide).
//!   Breakers nest — a build side may hold breakers of its own — so the
//!   profiler keeps a stack of open windows and credits each node with
//!   its window *minus* what was claimed inside it;
//! * fused pipeline operators run on workers, which cannot reach the
//!   profiler; each worker keeps one flat [`OpProfile`] per operator —
//!   counters, rows, and busy time clocked as rows move from operator to
//!   operator — and the coordinator folds them in when the pipeline ends
//!   ([`PlanProfiler::add`]). The innermost open window claims what is
//!   added, so the breaker whose build pipeline it was is not credited
//!   with it again.
//!
//! Every figure stored is therefore *exclusive*, and the figures over the
//! whole tree sum exactly to the query-level [`ExecStats`]. A node's time
//! is busy time, summed over the workers that ran it.
//!
//! Nodes are keyed by address (`*const AlgebraExpr`): every node of a live
//! plan tree has a distinct, stable address for the lifetime of the
//! profile, and the profiler never dereferences the key.

use crate::stats::OpProfile;
use crate::{AlgebraExpr, BoolExpr, ExecStats};
use gq_obs::PlanNodeTrace;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

#[cfg(test)]
thread_local! {
    /// Windows opened on this thread — lets a test assert that an
    /// unprofiled evaluation opens none.
    pub(crate) static WINDOWS_OPENED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// An open attribution window around a breaker's own work: a snapshot of
/// [`ExecStats`] and a clock reading. None is ever opened unless a
/// [`PlanProfiler`] is attached.
pub(crate) struct Window {
    before: ExecStats,
    start: Instant,
}

impl Window {
    /// Open a window over the accumulator `stats` is a snapshot of.
    pub(crate) fn open(stats: &ExecStats) -> Window {
        #[cfg(test)]
        WINDOWS_OPENED.with(|n| n.set(n.get() + 1));
        Window {
            before: stats.clone(),
            start: Instant::now(),
        }
    }

    /// Close it: what the accumulator gained, and the nanoseconds spent.
    pub(crate) fn close(self, stats: &ExecStats) -> (ExecStats, u64) {
        (
            stats.diff(&self.before),
            self.start.elapsed().as_nanos() as u64,
        )
    }
}

/// Accumulates per-node runtime metrics for one plan evaluation.
///
/// Lives on the coordinating thread, like the evaluator itself.
pub struct PlanProfiler {
    /// Node address → exclusive metrics.
    slots: RefCell<HashMap<usize, OpProfile>>,
    /// One entry per open nested window: the stats and time claimed so
    /// far by the windows that closed inside it and the pipeline figures
    /// added inside it.
    open: RefCell<Vec<(ExecStats, u64)>>,
}

fn addr(e: &AlgebraExpr) -> usize {
    e as *const AlgebraExpr as usize
}

impl PlanProfiler {
    /// Profile the nodes of `plan`. Only nodes of this tree are tracked;
    /// work credited to any other expression is dropped.
    pub fn new(plan: &AlgebraExpr) -> Self {
        Self::over([plan])
    }

    /// Profile every algebra subplan of a boolean (closed-query) plan.
    pub fn new_bool(plan: &BoolExpr) -> Self {
        Self::over(plan.algebra_exprs())
    }

    fn over<'p>(roots: impl IntoIterator<Item = &'p AlgebraExpr>) -> Self {
        fn walk(e: &AlgebraExpr, slots: &mut HashMap<usize, OpProfile>) {
            slots.insert(addr(e), Default::default());
            for c in e.children() {
                walk(c, slots);
            }
        }
        let mut slots = HashMap::new();
        for root in roots {
            walk(root, &mut slots);
        }
        PlanProfiler {
            slots: RefCell::new(slots),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Open a nested window over the evaluator's shared accumulator.
    /// Every `enter` is paired with one [`PlanProfiler::exit`], innermost
    /// first.
    pub(crate) fn enter(&self, stats: &ExecStats) -> Window {
        self.open.borrow_mut().push(Default::default());
        Window::open(stats)
    }

    /// Close the innermost window for node `e`, which emitted `rows`
    /// tuples during it: `e` is credited with the window minus whatever
    /// closed inside it, and the enclosing window learns to subtract all
    /// of this one.
    pub(crate) fn exit(&self, window: Window, e: &AlgebraExpr, stats: &ExecStats, rows: usize) {
        let (delta, ns) = window.close(stats);
        let (inner, inner_ns) = {
            let mut open = self.open.borrow_mut();
            let inner = open.pop().unwrap_or_default();
            if let Some((claimed, claimed_ns)) = open.last_mut() {
                claimed.merge(&delta);
                *claimed_ns += ns;
            }
            inner
        };
        // Nested windows observe the same accumulator inside this one's
        // span, so `inner` never exceeds `delta` on the summed counters.
        let own = (delta.diff(&inner), ns.saturating_sub(inner_ns));
        if let Some(slot) = self.slots.borrow_mut().get_mut(&addr(e)) {
            slot.add(own, rows);
        }
    }

    /// Credit already-exclusive figures — what a worker accumulated for
    /// a fused operator — to its node. The innermost open window claims
    /// them too: a build pipeline that runs inside a breaker's window
    /// has its operators credited here, and the breaker must not be
    /// credited with them a second time.
    pub(crate) fn add(&self, e: &AlgebraExpr, op: &OpProfile) {
        if let Some((claimed, claimed_ns)) = self.open.borrow_mut().last_mut() {
            claimed.merge(&op.stats);
            *claimed_ns += op.elapsed_ns;
        }
        if let Some(own) = self.slots.borrow_mut().get_mut(&addr(e)) {
            own.merge(op);
        }
    }

    /// Extract the annotated plan tree. Counter and time fields of each
    /// node are *exclusive*, so [`PlanNodeTrace::totals`] over the result
    /// equals the query-level totals accumulated while the profiler was
    /// attached.
    pub fn trace(&self, plan: &AlgebraExpr) -> PlanNodeTrace {
        let own = self
            .slots
            .borrow()
            .get(&addr(plan))
            .cloned()
            .unwrap_or_default();
        let mut trace = PlanNodeTrace::new(plan.label());
        trace.rows_out = own.rows_out;
        trace.base_reads = own.stats.base_tuples_read as u64;
        trace.comparisons = own.stats.comparisons as u64;
        trace.probes = own.stats.probes as u64;
        trace.elapsed_ns = own.elapsed_ns;
        trace.children = plan.children().into_iter().map(|c| self.trace(c)).collect();
        trace
    }

    /// Extract the annotated tree of a boolean (closed-query) plan:
    /// connective nodes carry no metrics of their own (the evaluator's
    /// work all happens inside the non-emptiness tests), algebra subtrees
    /// hang under their `≠ ∅` / `= ∅` leaves. A subtree short-circuited
    /// away by the connectives shows all-zero metrics, matching the flat
    /// stats (which did not do that work either).
    pub fn trace_bool(&self, plan: &BoolExpr) -> PlanNodeTrace {
        let mut t;
        match plan {
            BoolExpr::NonEmpty(e) => {
                t = PlanNodeTrace::new("non-empty?");
                t.children.push(self.trace(e));
            }
            BoolExpr::Empty(e) => {
                t = PlanNodeTrace::new("empty?");
                t.children.push(self.trace(e));
            }
            BoolExpr::And(a, b) => {
                t = PlanNodeTrace::new("∧ and");
                t.children.push(self.trace_bool(a));
                t.children.push(self.trace_bool(b));
            }
            BoolExpr::Or(a, b) => {
                t = PlanNodeTrace::new("∨ or");
                t.children.push(self.trace_bool(a));
                t.children.push(self.trace_bool(b));
            }
            BoolExpr::Not(a) => {
                t = PlanNodeTrace::new("¬ not");
                t.children.push(self.trace_bool(a));
            }
            BoolExpr::Const(b) => {
                t = PlanNodeTrace::new(format!("const {b}"));
            }
        }
        t
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn plan() -> AlgebraExpr {
        AlgebraExpr::SemiJoin {
            left: Box::new(AlgebraExpr::Relation("p".into())),
            right: Box::new(AlgebraExpr::Relation("q".into())),
            on: vec![(0, 0)],
        }
    }

    #[test]
    fn nested_windows_credit_each_node_exclusively() {
        let p = plan();
        let profiler = PlanProfiler::new(&p);
        let mut acc = ExecStats::new();
        let outer = profiler.enter(&acc);
        acc.comparisons += 4;
        let inner = profiler.enter(&acc);
        acc.base_tuples_read += 10;
        profiler.exit(inner, p.children()[0], &acc, 10);
        profiler.exit(outer, &p, &acc, 3);
        // What a worker accumulated for the fused probe lands flat.
        let mut probed = OpProfile::default();
        let delta = ExecStats {
            probes: 2,
            ..ExecStats::new()
        };
        probed.add((delta, 50), 0);
        profiler.add(&p, &probed);
        let t = profiler.trace(&p);
        assert_eq!((t.comparisons, t.probes, t.rows_out), (4, 2, 3));
        assert_eq!(t.base_reads, 0, "child's reads excluded from the root");
        assert_eq!(t.children[0].base_reads, 10);
        assert_eq!(t.children[0].rows_out, 10);
        let totals = t.totals();
        assert_eq!(totals.base_reads, 10);
        assert_eq!(totals.comparisons, 4);
        assert!(totals.elapsed_ns >= 50);
    }

    #[test]
    fn untracked_nodes_are_ignored() {
        let p = plan();
        let other = AlgebraExpr::Relation("r".into());
        let profiler = PlanProfiler::new(&p);
        let mut op = OpProfile::default();
        op.add((ExecStats::new(), 10), 1);
        profiler.add(&other, &op);
        assert_eq!(profiler.trace(&p).totals().elapsed_ns, 0);
    }
}
