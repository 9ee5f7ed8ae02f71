//! Per-query tracing: hierarchical phase spans, named counters,
//! plan-shape facts, and an annotated plan tree with per-node runtime
//! metrics. A [`TraceBuilder`] is created per analyzed query and finished
//! into an immutable [`QueryTrace`].

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed span: a named phase with its position in the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    /// Nesting depth (0 = top-level phase).
    pub depth: usize,
    /// Start offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    pub duration_ns: u64,
}

/// Per-node runtime metrics of an executed plan. Counter fields hold the
/// node's *exclusive* share (work not attributed to any child), so sums
/// over a tree equal the query-level totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanNodeTrace {
    /// Operator label, e.g. `⊼ on [(0,0)]` or `scan member`.
    pub label: String,
    /// Tuples this node emitted (pulled by its consumer).
    pub rows_out: u64,
    /// Loop iterations (nested-loop interpreter nodes; 0 for algebra).
    pub iterations: u64,
    pub base_reads: u64,
    pub comparisons: u64,
    pub probes: u64,
    /// Exclusive busy time, nanoseconds, summed over the workers that
    /// ran the node.
    pub elapsed_ns: u64,
    pub children: Vec<PlanNodeTrace>,
}

/// Subtree totals of a [`PlanNodeTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanTotals {
    pub rows_out: u64,
    pub base_reads: u64,
    pub comparisons: u64,
    pub probes: u64,
    pub elapsed_ns: u64,
}

impl PlanNodeTrace {
    /// New node with a label; metrics zero until attributed.
    pub fn new(label: impl Into<String>) -> Self {
        PlanNodeTrace {
            label: label.into(),
            ..PlanNodeTrace::default()
        }
    }

    /// Aggregate this subtree's exclusive metrics.
    pub fn totals(&self) -> PlanTotals {
        let mut t = PlanTotals {
            rows_out: self.rows_out,
            base_reads: self.base_reads,
            comparisons: self.comparisons,
            probes: self.probes,
            elapsed_ns: self.elapsed_ns,
        };
        for c in &self.children {
            let ct = c.totals();
            t.rows_out += ct.rows_out;
            t.base_reads += ct.base_reads;
            t.comparisons += ct.comparisons;
            t.probes += ct.probes;
            t.elapsed_ns += ct.elapsed_ns;
        }
        t
    }

    /// Render the annotated tree; per-node time is shown as a percentage
    /// of `total_ns` (pass the root's total elapsed).
    pub fn render(&self, total_ns: u64) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", total_ns);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, total_ns: u64) {
        let pct = if total_ns > 0 {
            100.0 * self.elapsed_ns as f64 / total_ns as f64
        } else {
            0.0
        };
        let mut line = format!(
            "{prefix}{}  [rows={} cmp={} probes={} reads={}",
            self.label, self.rows_out, self.comparisons, self.probes, self.base_reads
        );
        if self.iterations > 0 {
            let _ = write!(line, " iter={}", self.iterations);
        }
        let _ = write!(line, " time={} ({pct:.1}%)]", fmt_ns(self.elapsed_ns));
        out.push_str(&line);
        out.push('\n');
        let child_prefix = if prefix.is_empty() {
            "  ".to_string()
        } else {
            format!("{prefix}  ")
        };
        for c in &self.children {
            c.render_into(out, &child_prefix, total_ns);
        }
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("label", self.label.clone())
            .field("rows_out", self.rows_out)
            .field("base_reads", self.base_reads)
            .field("comparisons", self.comparisons)
            .field("probes", self.probes);
        if self.iterations > 0 {
            j = j.field("iterations", self.iterations);
        }
        j = j.field("elapsed_ns", self.elapsed_ns);
        if !self.children.is_empty() {
            j = j.field(
                "children",
                self.children
                    .iter()
                    .map(|c| c.to_json())
                    .collect::<Vec<_>>(),
            );
        }
        j
    }
}

/// One pipeline of a streaming (push-based) execution: the chain of
/// operators between two breakers, identified in coordinator order, with
/// the breaker that ended it and the live-watermark snapshot at that
/// point. Surfaced by `:analyze` next to the annotated plan tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineSpan {
    /// Pipeline id in structural (coordinator) order; 0 is the root
    /// pipeline that feeds the result sink.
    pub id: u64,
    /// The breaker kind that terminated the pipeline (`output`,
    /// `join-build`, `probe-build`, …).
    pub breaker: String,
    /// Tuples the breaker materialized (result size for `output`).
    pub tuples: u64,
    /// Live intermediate tuples held when the breaker fired.
    pub live_tuples: u64,
    /// Live intermediate bytes held when the breaker fired.
    pub live_bytes: u64,
}

impl PipelineSpan {
    /// Machine-readable rendering.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("id", self.id)
            .field("breaker", self.breaker.clone())
            .field("tuples", self.tuples)
            .field("live_tuples", self.live_tuples)
            .field("live_bytes", self.live_bytes)
    }
}

/// Format nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The finished, immutable trace of one query execution.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub query: String,
    pub strategy: String,
    pub total_ns: u64,
    pub spans: Vec<SpanRecord>,
    pub counters: BTreeMap<String, u64>,
    /// Plan-shape facts (uses_division, operator counts, …).
    pub facts: Vec<(String, Json)>,
    /// The annotated plan tree, when the strategy has one.
    pub plan: Option<PlanNodeTrace>,
    /// Pipeline-breaker boundaries of a streaming execution (empty for
    /// strategies without a pipeline decomposition).
    pub pipelines: Vec<PipelineSpan>,
}

impl QueryTrace {
    /// Machine-readable rendering (the `QueryTrace` JSON schema).
    pub fn to_json(&self) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("name", s.name.clone())
                    .field("depth", s.depth)
                    .field("start_ns", s.start_ns)
                    .field("duration_ns", s.duration_ns)
            })
            .collect();
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters = counters.field(k.clone(), *v);
        }
        let mut facts = Json::obj();
        for (k, v) in &self.facts {
            facts = facts.field(k.clone(), v.clone());
        }
        let mut j = Json::obj()
            .field("query", self.query.clone())
            .field("strategy", self.strategy.clone())
            .field("total_ns", self.total_ns)
            .field("spans", spans)
            .field("counters", counters)
            .field("facts", facts);
        if let Some(plan) = &self.plan {
            j = j.field("plan", plan.to_json());
        }
        if !self.pipelines.is_empty() {
            j = j.field(
                "pipelines",
                self.pipelines
                    .iter()
                    .map(|p| p.to_json())
                    .collect::<Vec<_>>(),
            );
        }
        j
    }

    /// Human-readable rendering: span waterfall, counters, facts, and the
    /// annotated plan tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", self.query);
        let _ = writeln!(
            out,
            "strategy: {}   total: {}",
            self.strategy,
            fmt_ns(self.total_ns)
        );
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\n== phases ==");
            for s in &self.spans {
                let pct = if self.total_ns > 0 {
                    100.0 * s.duration_ns as f64 / self.total_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{:indent$}{:<14} {:>10} ({pct:.1}%)",
                    "",
                    s.name,
                    fmt_ns(s.duration_ns),
                    indent = 2 * (s.depth + 1)
                );
            }
        }
        if !self.facts.is_empty() {
            let _ = writeln!(out, "\n== plan shape ==");
            for (k, v) in &self.facts {
                let _ = writeln!(out, "  {k} = {v}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n== counters ==");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k} = {v}");
            }
        }
        if let Some(plan) = &self.plan {
            let _ = writeln!(out, "\n== plan (actual) ==");
            let _ = writeln!(
                out,
                "  (per node, own work only; time = busy time summed over workers, % of the tree)"
            );
            out.push_str(&plan.render(plan.totals().elapsed_ns));
        }
        if !self.pipelines.is_empty() {
            let _ = writeln!(out, "\n== pipelines ==");
            for p in &self.pipelines {
                let _ = writeln!(
                    out,
                    "  #{:<3} {:<18} tuples={:<8} live_peak={} tuples / {} bytes",
                    p.id, p.breaker, p.tuples, p.live_tuples, p.live_bytes
                );
            }
        }
        out
    }
}

/// Collects spans/counters/facts during one query execution.
///
/// Single-threaded by design (queries execute on one thread); interior
/// mutability keeps the recording API `&self` so it can be threaded
/// through evaluators without infecting their signatures with `&mut`.
pub struct TraceBuilder {
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    stack: RefCell<Vec<usize>>,
    counters: RefCell<BTreeMap<String, u64>>,
    facts: RefCell<Vec<(String, Json)>>,
    plan: RefCell<Option<PlanNodeTrace>>,
    pipelines: RefCell<Vec<PipelineSpan>>,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    pub fn new() -> Self {
        TraceBuilder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
            facts: RefCell::new(Vec::new()),
            plan: RefCell::new(None),
            pipelines: RefCell::new(Vec::new()),
        }
    }

    /// Open a span; it closes (and records its duration) when the guard
    /// drops. Spans opened while another is live nest under it.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let depth = self.stack.borrow().len();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRecord {
                name: name.into(),
                depth,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                duration_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        SpanGuard {
            builder: self,
            idx,
            start: Instant::now(),
        }
    }

    /// Add to a named counter.
    pub fn incr(&self, name: &str, n: u64) {
        *self
            .counters
            .borrow_mut()
            .entry(name.to_string())
            .or_default() += n;
    }

    /// Record a plan-shape fact.
    pub fn fact(&self, name: impl Into<String>, value: impl Into<Json>) {
        self.facts.borrow_mut().push((name.into(), value.into()));
    }

    /// Attach the annotated plan tree.
    pub fn set_plan(&self, plan: PlanNodeTrace) {
        *self.plan.borrow_mut() = Some(plan);
    }

    /// Attach the pipeline-breaker boundaries of a streaming execution.
    pub fn set_pipelines(&self, pipelines: Vec<PipelineSpan>) {
        *self.pipelines.borrow_mut() = pipelines;
    }

    /// Finish into an immutable trace.
    pub fn finish(self, query: impl Into<String>, strategy: impl Into<String>) -> QueryTrace {
        QueryTrace {
            query: query.into(),
            strategy: strategy.into(),
            total_ns: self.origin.elapsed().as_nanos() as u64,
            spans: self.spans.into_inner(),
            counters: self.counters.into_inner(),
            facts: self.facts.into_inner(),
            plan: self.plan.into_inner(),
            pipelines: self.pipelines.into_inner(),
        }
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    builder: &'a TraceBuilder,
    idx: usize,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        self.builder.spans.borrow_mut()[self.idx].duration_ns = elapsed;
        self.builder.stack.borrow_mut().pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let tb = TraceBuilder::new();
        {
            let _outer = tb.span("outer");
            let _inner = tb.span("inner");
        }
        let t = tb.finish("q", "improved");
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "outer");
        assert_eq!(t.spans[0].depth, 0);
        assert_eq!(t.spans[1].depth, 1);
        assert!(t.spans[0].duration_ns >= t.spans[1].duration_ns);
    }

    #[test]
    fn counters_and_facts_survive_finish() {
        let tb = TraceBuilder::new();
        tb.incr("rewrite.steps", 3);
        tb.incr("rewrite.steps", 2);
        tb.fact("uses_division", false);
        let t = tb.finish("q", "classical");
        assert_eq!(t.counters["rewrite.steps"], 5);
        assert_eq!(t.facts[0].0, "uses_division");
    }

    #[test]
    fn plan_totals_sum_subtree() {
        let mut root = PlanNodeTrace::new("join");
        root.comparisons = 5;
        root.rows_out = 2;
        let mut child = PlanNodeTrace::new("scan p");
        child.base_reads = 10;
        child.rows_out = 10;
        root.children.push(child);
        let t = root.totals();
        assert_eq!(t.comparisons, 5);
        assert_eq!(t.base_reads, 10);
        assert_eq!(t.rows_out, 12);
    }

    #[test]
    fn render_shows_percentages() {
        let mut root = PlanNodeTrace::new("scan p");
        root.elapsed_ns = 1000;
        root.rows_out = 4;
        let s = root.render(2000);
        assert!(s.contains("rows=4"), "{s}");
        assert!(s.contains("50.0%"), "{s}");
    }

    #[test]
    fn pipelines_render_only_when_present() {
        let tb = TraceBuilder::new();
        let without = tb.finish("q", "improved");
        assert!(!without.render().contains("== pipelines =="));
        let tb = TraceBuilder::new();
        tb.set_pipelines(vec![PipelineSpan {
            id: 1,
            breaker: "join-build".into(),
            tuples: 42,
            live_tuples: 42,
            live_bytes: 4800,
        }]);
        let with = tb.finish("q", "improved");
        let text = with.render();
        assert!(text.contains("== pipelines =="), "{text}");
        assert!(text.contains("join-build"), "{text}");
        let json = with.to_json().to_string();
        assert!(json.contains("\"pipelines\""), "{json}");
        assert!(json.contains("\"live_bytes\": 4800"), "{json}");
    }

    #[test]
    fn trace_json_is_well_formed() {
        let tb = TraceBuilder::new();
        tb.incr("c", 1);
        let _s = tb.span("evaluate");
        drop(_s);
        tb.set_plan(PlanNodeTrace::new("scan \"p\""));
        let json = tb.finish("p(x)", "improved").to_json().to_string();
        assert!(json.contains("\"strategy\": \"improved\""), "{json}");
        assert!(json.contains("\\\"p\\\""), "escaped label: {json}");
    }
}
