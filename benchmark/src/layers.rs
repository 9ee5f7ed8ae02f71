//! The one place the benchmark touches the program under test.
//!
//! Every other file of the benchmark sees only plain strings, counts and
//! closures from here, so a PR that renames or removes an engine entry
//! point edits this file and nothing else. Only long-lived public entry
//! points are named (see README.md, "What the benchmark calls"); nothing
//! that ROADMAP items 1 and 4 put on trial appears.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

use gq_algebra::{optimize, BoolExpr, Evaluator, ExecConfig};
use gq_calculus::parse;
use gq_core::{QueryEngine, QueryResult, Strategy};
use gq_rewrite::canonicalize_traced;
use gq_server::{Client, Server, ServerConfig};
use gq_storage::{Database, HashIndex, Tuple, Value};
use gq_translate::ImprovedTranslator;
use gq_workload::{university, UniversityScale};

use crate::stats::RowHash;
use crate::trace::Recorder;

/// Executor threads of every engine the benchmark builds: the engine's
/// own default on a 2-core host (the production push executor), pinned
/// so that a host with another core count runs the same code path.
pub const THREADS: usize = 2;

/// Answer rows as plain strings, one `Vec` per tuple.
pub type Rows = Vec<Vec<String>>;

/// The base relations as plain rows — all the reference implementation
/// ever sees of the database.
pub type Facts = BTreeMap<String, Rows>;

/// The paper-derived query suite as `(label, text)` pairs.
pub fn suite() -> &'static [(&'static str, &'static str)] {
    gq_bench::E2E_SUITE
}

/// A generated university database, not yet owned by an engine.
pub struct Data(Database);

/// Generate `university(n)` from `seed`.
pub fn generate(n: usize, seed: u64) -> Data {
    Data(university(&UniversityScale {
        seed,
        ..UniversityScale::of_size(n)
    }))
}

fn facts_of(db: &Database) -> Facts {
    db.relations()
        .map(|r| {
            let rows = r
                .iter()
                .map(|t| t.values().map(Value::to_string).collect())
                .collect();
            (r.name().to_string(), rows)
        })
        .collect()
}

impl Data {
    /// The base relations as plain rows.
    pub fn facts(&self) -> Facts {
        facts_of(&self.0)
    }

    /// Total tuples over all relations.
    pub fn tuples(&self) -> usize {
        self.0.total_tuples()
    }

    /// `storage.load_ns_per_tuple`: re-insert every tuple into an empty
    /// catalog through `Database::insert`, nanoseconds per tuple.
    pub fn load_ns_per_tuple(&self) -> f64 {
        let tuples: Vec<(&str, Tuple)> = self
            .0
            .relations()
            .flat_map(|r| r.iter().map(move |t| (r.name(), t.clone())))
            .collect();
        let mut db = Database::new();
        for r in self.0.relations() {
            db.create_relation(r.name(), r.schema().clone())
                .expect("fresh catalog has no such relation yet");
        }
        let n = tuples.len();
        let start = std::time::Instant::now();
        for (name, t) in tuples {
            db.insert(name, t).expect("tuple came from this schema");
        }
        let ns = start.elapsed().as_nanos() as f64;
        std::hint::black_box(&db);
        ns / n as f64
    }

    /// `storage.index_build_ns_per_tuple`: one `HashIndex` over
    /// `attends` keyed on the student column, nanoseconds per tuple.
    pub fn index_build_ns_per_tuple(&self) -> f64 {
        let attends = self.0.relation("attends").expect("university has attends");
        let start = std::time::Instant::now();
        let index = HashIndex::build(attends, &[0]);
        let ns = start.elapsed().as_nanos() as f64;
        std::hint::black_box(&index);
        ns / attends.len() as f64
    }
}

/// One query answer, still in the engine's own representation so that
/// checking it allocates nothing.
pub struct Answer(QueryResult);

impl Answer {
    /// Column order that sorts the answer variables by name — the order
    /// the reference uses.
    fn columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = (0..self.0.vars.len()).collect();
        cols.sort_by(|&a, &b| self.0.vars[a].name().cmp(self.0.vars[b].name()));
        cols
    }

    /// Number of answer tuples (a true closed query has the empty tuple).
    pub fn count(&self) -> usize {
        self.0.answers.len()
    }

    /// Order-independent hash of the answer, equal to
    /// [`crate::stats::rows_hash`] of [`Answer::rows`].
    pub fn hash(&self) -> u64 {
        let cols = self.columns();
        let mut sum = 0u64;
        for t in self.0.answers.iter() {
            let mut h = RowHash::new();
            for &c in &cols {
                match &t[c] {
                    Value::Str(s) => h.field(s),
                    other => h.field(&other.to_string()),
                }
            }
            sum = sum.wrapping_add(h.finish());
        }
        sum
    }

    /// The answer as sorted plain rows, columns in variable-name order.
    pub fn rows(&self) -> Rows {
        let cols = self.columns();
        let mut rows: Rows = self
            .0
            .answers
            .iter()
            .map(|t| cols.iter().map(|&c| t.as_slice()[c].to_string()).collect())
            .collect();
        rows.sort();
        rows
    }
}

/// Which translation a [`Engine::query_as`] call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Improved,
    Classical,
    NestedLoop,
}

/// A query engine at the pinned thread count. Cheap to clone (shared).
#[derive(Clone)]
pub struct Engine(Arc<QueryEngine>);

impl Engine {
    /// Wrap generated data.
    pub fn new(data: Data) -> Engine {
        Engine(Arc::new(
            QueryEngine::new(data.0).with_exec_config(ExecConfig::with_threads(THREADS)),
        ))
    }

    /// `core.query_us`: the ad hoc entry point, text in, answer out.
    pub fn query(&self, text: &str) -> Result<Answer, String> {
        self.0.query(text).map(Answer).map_err(|e| e.to_string())
    }

    /// The same query under one of the paper's three methods.
    pub fn query_as(&self, text: &str, method: Method) -> Result<Answer, String> {
        let strategy = match method {
            Method::Improved => Strategy::Improved,
            Method::Classical => Strategy::Classical,
            Method::NestedLoop => Strategy::NestedLoop,
        };
        self.0
            .query_with(text, strategy)
            .map(Answer)
            .map_err(|e| e.to_string())
    }

    /// `core.mutation_us`: insert (`insert`) or remove one tuple of
    /// strings; whether the relation changed.
    pub fn write(&self, insert: bool, relation: &str, values: &[String]) -> Result<bool, String> {
        let tuple = Tuple::new(values.iter().map(Value::str).collect());
        if insert {
            self.0.insert(relation, tuple)
        } else {
            self.0.remove(relation, &tuple)
        }
        .map_err(|e| e.to_string())
    }

    /// Define an incrementally maintained materialized view.
    pub fn define_materialized_view(&self, name: &str, body: &str) -> Result<(), String> {
        self.0
            .define_materialized_view(name, body)
            .map_err(|e| e.to_string())
    }

    /// Every relation of the current snapshot (views included) as rows.
    pub fn facts(&self) -> Facts {
        facts_of(&self.0.snapshot())
    }

    /// Run `text` stage by stage on the current snapshot, one span per
    /// layer under `parent`, the way `QueryEngine::query` composes them.
    /// Returns the exact counts the stages report.
    pub fn staged(
        &self,
        text: &str,
        rec: &mut Recorder,
        parent: u32,
        op_id: u32,
    ) -> Result<StagedCounts, String> {
        let snapshot = self.0.snapshot();
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let formula = rec
            .span("calculus.parse", parent, op_id, || parse(text))
            .map_err(|e| err(&e))?;
        let (canonical, rewrite) = rec
            .span("rewrite.normalize", parent, op_id, || {
                canonicalize_traced(&formula)
            })
            .map_err(|e| err(&e))?;
        let translator = ImprovedTranslator::new(&snapshot).with_cost_ordering(true);
        let mut counts = StagedCounts {
            rewrite_steps: rewrite.steps.len() as u64,
            ..StagedCounts::default()
        };
        // A closed query becomes a boolean plan of (non-)emptiness tests;
        // an open one a single algebra expression.
        let eval_at = |threads: usize| {
            Evaluator::new(&snapshot).with_exec_config(ExecConfig::with_threads(threads))
        };
        if formula.is_closed() {
            let plan = rec
                .span("translate.improved", parent, op_id, || {
                    translator.translate_closed(&canonical)
                })
                .map_err(|e| err(&e))?;
            let plan = rec.span("algebra.optimize", parent, op_id, || optimize_bool(&plan));
            counts.plan_nodes = plan
                .algebra_exprs()
                .iter()
                .map(|e| e.node_count() as u64)
                .sum();
            let ev = eval_at(THREADS);
            rec.span("algebra.evaluate", parent, op_id, || plan.eval(&ev))
                .map_err(|e| err(&e))?;
            counts.record_evaluation(&ev);
            let ev1 = eval_at(1);
            rec.span("algebra.evaluate_t1", parent, op_id, || plan.eval(&ev1))
                .map_err(|e| err(&e))?;
        } else {
            let (_vars, plan) = rec
                .span("translate.improved", parent, op_id, || {
                    translator.translate_open(&canonical)
                })
                .map_err(|e| err(&e))?;
            let plan = rec.span("algebra.optimize", parent, op_id, || optimize(&plan));
            counts.plan_nodes = plan.node_count() as u64;
            let ev = eval_at(THREADS);
            let answers = rec
                .span("algebra.evaluate", parent, op_id, || ev.eval(&plan))
                .map_err(|e| err(&e))?;
            counts.record_evaluation(&ev);
            drop(answers);
            let ev1 = eval_at(1);
            rec.span("algebra.evaluate_t1", parent, op_id, || ev1.eval(&plan))
                .map_err(|e| err(&e))?;
        }
        Ok(counts)
    }
}

/// Exact counts reported by the stages of [`Engine::staged`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagedCounts {
    pub rewrite_steps: u64,
    pub plan_nodes: u64,
    pub base_tuples_read: u64,
    pub probes: u64,
    pub comparisons: u64,
    pub peak_intermediate_tuples: u64,
}

impl StagedCounts {
    fn record_evaluation(&mut self, ev: &Evaluator<'_>) {
        let s = ev.stats();
        self.base_tuples_read = s.base_tuples_read as u64;
        self.probes = s.probes as u64;
        self.comparisons = s.comparisons as u64;
        self.peak_intermediate_tuples = s.peak_intermediate_tuples as u64;
    }

    /// Fold another query's counts in: sums, except the peak, which is
    /// the larger.
    pub fn absorb(&mut self, other: StagedCounts) {
        self.rewrite_steps += other.rewrite_steps;
        self.plan_nodes += other.plan_nodes;
        self.base_tuples_read += other.base_tuples_read;
        self.probes += other.probes;
        self.comparisons += other.comparisons;
        self.peak_intermediate_tuples = self
            .peak_intermediate_tuples
            .max(other.peak_intermediate_tuples);
    }
}

fn optimize_bool(plan: &BoolExpr) -> BoolExpr {
    match plan {
        BoolExpr::NonEmpty(e) => BoolExpr::NonEmpty(optimize(e)),
        BoolExpr::Empty(e) => BoolExpr::Empty(optimize(e)),
        BoolExpr::And(a, b) => BoolExpr::and(optimize_bool(a), optimize_bool(b)),
        BoolExpr::Or(a, b) => BoolExpr::or(optimize_bool(a), optimize_bool(b)),
        BoolExpr::Not(a) => BoolExpr::not(optimize_bool(a)),
        BoolExpr::Const(b) => BoolExpr::Const(*b),
    }
}

/// An engine behind the TCP front-end on loopback.
pub struct Served {
    server: Server,
}

impl Served {
    /// Start serving `engine` with `workers` session threads.
    pub fn start(engine: &Engine, workers: usize) -> Result<Served, String> {
        let cfg = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        Server::start(Arc::clone(&engine.0), cfg)
            .map(|server| Served { server })
            .map_err(|e| e.to_string())
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// `server.shed_share`: connections shed at the accept queue or an
    /// admission gate, as a share of connections accepted.
    pub fn shed_share(&self) -> f64 {
        let s = self.server.stats();
        (s.queue_shed + s.admission.shed_total()) as f64 / s.accepted.max(1) as f64
    }

    /// Stop accepting, close the sessions and join every server thread.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        Client::connect(addr).map(Conn).map_err(|e| e.to_string())
    }

    /// Send one request line and wait for the reply body; a shed or an
    /// error reply is an `Err`.
    pub fn send(&mut self, line: &str) -> Result<String, String> {
        let reply = self.0.send(line).map_err(|e| e.to_string())?;
        if reply.ok {
            Ok(reply.body)
        } else {
            Err(format!("{}: {}", reply.code, reply.body))
        }
    }
}
