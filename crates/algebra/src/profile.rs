//! Per-operator runtime attribution (the EXPLAIN ANALYZE substrate).
//!
//! A [`PlanProfiler`] is built over the *final* (post-optimization) plan
//! and attached to an [`Evaluator`](crate::Evaluator). The evaluator then
//! wraps every operator's tuple stream: each `next()` call is bracketed by
//! an [`ExecStats`] snapshot pair and a monotonic timer, and the deltas
//! are accumulated against the plan node that produced the stream. Because
//! pulls nest strictly (a parent's `next()` drives its children's
//! `next()`s inside its own window), the accumulated figures are
//! *inclusive*; [`PlanProfiler::trace`] converts them to *exclusive*
//! per-node figures by subtracting the children's inclusive totals, so the
//! exclusive numbers over the whole tree sum exactly to the query-level
//! [`ExecStats`].
//!
//! Nodes are keyed by address (`*const AlgebraExpr`): every node of a live
//! plan tree has a distinct, stable address for the lifetime of the
//! profile, and the profiler never dereferences the key.

use crate::{AlgebraExpr, BoolExpr, ExecStats};
use gq_obs::PlanNodeTrace;
use std::cell::RefCell;
use std::collections::HashMap;

/// Inclusive metrics accumulated for one plan node.
#[derive(Debug, Clone, Default)]
struct NodeMetrics {
    rows_out: u64,
    elapsed_ns: u64,
    stats: ExecStats,
    note: Option<&'static str>,
}

/// Accumulates per-node runtime metrics for one plan evaluation.
///
/// Single-threaded by design, like the evaluator itself.
pub struct PlanProfiler {
    /// Node address → metrics slot.
    slots: RefCell<HashMap<usize, NodeMetrics>>,
}

fn addr(e: &AlgebraExpr) -> usize {
    e as *const AlgebraExpr as usize
}

impl PlanProfiler {
    /// Profile the nodes of `plan`. Only nodes of this tree are tracked;
    /// streams built for other expressions stay uninstrumented.
    pub fn new(plan: &AlgebraExpr) -> Self {
        let mut slots = HashMap::new();
        fn walk(e: &AlgebraExpr, slots: &mut HashMap<usize, NodeMetrics>) {
            slots.insert(addr(e), NodeMetrics::default());
            for c in e.children() {
                walk(c, slots);
            }
        }
        walk(plan, &mut slots);
        PlanProfiler {
            slots: RefCell::new(slots),
        }
    }

    /// Profile every algebra subplan of a boolean (closed-query) plan.
    pub fn new_bool(plan: &BoolExpr) -> Self {
        let mut slots = HashMap::new();
        fn walk(e: &AlgebraExpr, slots: &mut HashMap<usize, NodeMetrics>) {
            slots.insert(addr(e), NodeMetrics::default());
            for c in e.children() {
                walk(c, slots);
            }
        }
        for root in plan.algebra_exprs() {
            walk(root, &mut slots);
        }
        PlanProfiler {
            slots: RefCell::new(slots),
        }
    }

    /// Is this node one of the profiled plan's nodes?
    pub(crate) fn tracks(&self, e: &AlgebraExpr) -> bool {
        self.slots.borrow().contains_key(&addr(e))
    }

    /// Attribute a stats delta, wall time, and emitted-row count to a node.
    pub(crate) fn record(&self, e: &AlgebraExpr, delta: &ExecStats, ns: u64, rows: u64) {
        if let Some(m) = self.slots.borrow_mut().get_mut(&addr(e)) {
            m.stats.merge(delta);
            m.elapsed_ns += ns;
            m.rows_out += rows;
        }
    }

    /// Annotate a node (e.g. `cached-index` when its scan was answered by
    /// the persistent index cache, `memo-hit` when the shared-subplan
    /// cache answered for its subtree).
    pub(crate) fn annotate(&self, e: &AlgebraExpr, note: &'static str) {
        if let Some(m) = self.slots.borrow_mut().get_mut(&addr(e)) {
            m.note = Some(note);
        }
    }

    /// Extract the annotated plan tree. Counter and time fields of each
    /// node are *exclusive* (inclusive minus the children's inclusive), so
    /// [`PlanNodeTrace::totals`] over the result equals the query-level
    /// totals accumulated while the profiler was attached.
    pub fn trace(&self, plan: &AlgebraExpr) -> PlanNodeTrace {
        self.node(plan).0
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
                t.children.push(self.node(e).0);
            }
            BoolExpr::Empty(e) => {
                t = PlanNodeTrace::new("empty?");
                t.children.push(self.node(e).0);
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

    /// Build the trace for one node; returns it together with the node's
    /// inclusive metrics (needed by the parent's exclusive computation).
    fn node(&self, e: &AlgebraExpr) -> (PlanNodeTrace, ExecStats, u64) {
        let own = self
            .slots
            .borrow()
            .get(&addr(e))
            .cloned()
            .unwrap_or_default();
        let mut trace = PlanNodeTrace::new(e.label());
        trace.note = own.note.map(str::to_string);
        trace.rows_out = own.rows_out;
        let mut child_stats = ExecStats::new();
        let mut child_ns = 0u64;
        for c in e.children() {
            let (ct, cs, cns) = self.node(c);
            trace.children.push(ct);
            child_stats.merge(&cs);
            child_ns += cns;
        }
        let ex = own.stats.diff(&clamp(&child_stats, &own.stats));
        trace.base_reads = ex.base_tuples_read as u64;
        trace.comparisons = ex.comparisons as u64;
        trace.probes = ex.probes as u64;
        trace.memo_hits = ex.memo_hits as u64;
        trace.elapsed_ns = own.elapsed_ns.saturating_sub(child_ns);
        (trace, own.stats, own.elapsed_ns)
    }
}

/// Clamp `child` field-wise to `parent` so exclusive figures never
/// underflow. Strict pull nesting makes children ≤ parent structurally;
/// the clamp is belt-and-braces against attribution drift.
fn clamp(child: &ExecStats, parent: &ExecStats) -> ExecStats {
    ExecStats {
        base_tuples_read: child.base_tuples_read.min(parent.base_tuples_read),
        base_scans: child.base_scans.min(parent.base_scans),
        comparisons: child.comparisons.min(parent.comparisons),
        probes: child.probes.min(parent.probes),
        tuples_emitted: child.tuples_emitted.min(parent.tuples_emitted),
        intermediate_tuples: child.intermediate_tuples.min(parent.intermediate_tuples),
        max_intermediate: 0,
        peak_intermediate_tuples: 0,
        peak_intermediate_bytes: 0,
        operators_evaluated: child.operators_evaluated.min(parent.operators_evaluated),
        memo_hits: child.memo_hits.min(parent.memo_hits),
        cse_materialized: child.cse_materialized.min(parent.cse_materialized),
        cse_reused: child.cse_reused.min(parent.cse_reused),
        morsels: child.morsels.min(parent.morsels),
        workers_spawned: child.workers_spawned.min(parent.workers_spawned),
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
    fn exclusive_subtracts_children() {
        let p = plan();
        let profiler = PlanProfiler::new(&p);
        let children = p.children();
        let mut child_delta = ExecStats::new();
        child_delta.base_tuples_read = 10;
        profiler.record(children[0], &child_delta, 100, 10);
        let mut root_delta = ExecStats::new();
        root_delta.base_tuples_read = 10; // inclusive: covers the child
        root_delta.comparisons = 4;
        profiler.record(&p, &root_delta, 250, 3);
        let t = profiler.trace(&p);
        assert_eq!(t.comparisons, 4);
        assert_eq!(t.base_reads, 0, "child's reads excluded from the root");
        assert_eq!(t.elapsed_ns, 150);
        assert_eq!(t.children[0].base_reads, 10);
        let totals = t.totals();
        assert_eq!(totals.base_reads, 10);
        assert_eq!(totals.comparisons, 4);
        assert_eq!(totals.elapsed_ns, 250);
    }

    #[test]
    fn untracked_nodes_are_ignored() {
        let p = plan();
        let other = AlgebraExpr::Relation("r".into());
        let profiler = PlanProfiler::new(&p);
        assert!(!profiler.tracks(&other));
        profiler.record(&other, &ExecStats::new(), 10, 1);
        assert_eq!(profiler.trace(&p).totals().elapsed_ns, 0);
    }

    #[test]
    fn notes_surface_in_trace() {
        let p = plan();
        let profiler = PlanProfiler::new(&p);
        profiler.annotate(p.children()[1], "cached-index");
        let t = profiler.trace(&p);
        assert_eq!(t.children[1].note.as_deref(), Some("cached-index"));
    }
}
