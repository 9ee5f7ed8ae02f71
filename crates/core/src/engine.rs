//! The query engine: parse → normalize → translate → evaluate, with a
//! prepared-query plan cache skipping the middle phases on repeats.
//! Every query enters through [`QueryEngine::run`] and one private
//! driver that owns its whole lifecycle.

use crate::plan_cache::{CompiledPlan, PlanCache, PlanCacheStats, PlanKey};
use crate::request::{Input, PreparedQuery, Request, Response};
use crate::views::{Definitions, View, DOM};
use crate::EngineError;
use gq_algebra::{Evaluator, ExecConfig, ExecStats, PipelineEvent, PipelineHook, PlanProfiler};
use gq_calculus::{alpha_canonical, parse, parse_program, Formula, RecursiveDef, Var};
use gq_governor::{
    CancelToken, Governor, GovernorError, QueryLimits, Resource, SharedBudget, TripHook,
};
use gq_obs::{
    EventData, EventKind, Journal, MetricsSnapshot, PipelineSpan, QueryTrace, Registry, SlowLog,
    SlowLogEntry, SpanGuard, TraceBuilder,
};
use gq_pipeline::{LoopProfiler, PipelineEvaluator};
use gq_rewrite::{canonicalize_governed, canonicalize_traced_governed};
use gq_storage::{
    CheckpointStats, Database, DurabilityStats, DurableDatabase, MutationDelta, RecoveryStats,
    Relation, Schema, StorageError, Tuple,
};
use gq_translate::{ClassicalTranslator, ImprovedTranslator, PlanShape, TranslateError};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// The evaluation strategy for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The paper's method: canonical form + improved algebraic translation
    /// (complement-joins, constrained outer-joins, emptiness tests).
    #[default]
    Improved,
    /// The Codd-style classical translation (prenex + cartesian product of
    /// ranges + divisions). Runs on the *raw* query, as the classical
    /// methods do.
    Classical,
    /// The Fig. 1 one-tuple-at-a-time nested-loop interpreter, over the
    /// canonical form.
    NestedLoop,
}

impl Strategy {
    /// All strategies, for sweeps.
    pub const ALL: [Strategy; 3] = [
        Strategy::Improved,
        Strategy::Classical,
        Strategy::NestedLoop,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Improved => "improved",
            Strategy::Classical => "classical",
            Strategy::NestedLoop => "nested-loop",
        }
    }
}

/// The result of a query: answer variables, answer relation, and the
/// execution statistics backing the paper's operation-count claims.
///
/// A closed (yes/no) query yields a 0-ary relation holding the empty tuple
/// iff the answer is *yes* — use [`QueryResult::is_true`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Answer variables in column order (empty for closed queries).
    pub vars: Vec<Var>,
    /// The answer relation.
    pub answers: Relation,
    /// Operation counts accumulated during evaluation.
    pub stats: ExecStats,
}

impl QueryResult {
    /// For closed queries: was the answer yes?
    pub fn is_true(&self) -> bool {
        !self.answers.is_empty()
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Is the answer set empty?
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }
}

/// The catalog behind a [`QueryEngine`]: either a plain in-memory
/// [`Database`] or a [`DurableDatabase`] whose mutations are WAL-logged
/// and crash-recoverable. Reads are identical either way; the engine's
/// typed mutation methods route through the durable commit protocol when
/// one is attached. Every change to the catalog is one of the typed
/// operations below.
enum Store {
    Plain(Database),
    Durable(Box<DurableDatabase>),
}

impl Store {
    fn db(&self) -> &Database {
        match self {
            Store::Plain(db) => db,
            Store::Durable(d) => d.db(),
        }
    }

    /// The WAL's counters; `None` for a plain store.
    fn stats(&self) -> Option<DurabilityStats> {
        match self {
            Store::Plain(_) => None,
            Store::Durable(d) => Some(d.stats()),
        }
    }

    fn create_relation(&mut self, name: String, schema: Schema) -> Result<(), StorageError> {
        match self {
            Store::Plain(db) => db.create_relation(name, schema),
            Store::Durable(d) => d.create_relation(name, schema),
        }
    }

    fn insert(&mut self, relation: &str, t: Tuple) -> Result<bool, StorageError> {
        match self {
            Store::Plain(db) => db.insert(relation, t),
            Store::Durable(d) => d.insert(relation, t),
        }
    }

    fn remove(&mut self, relation: &str, t: &Tuple) -> Result<bool, StorageError> {
        match self {
            Store::Plain(db) => db.remove(relation, t),
            Store::Durable(d) => d.remove(relation, t),
        }
    }

    /// Insert or replace a materialized view's extent: never WAL-logged,
    /// never written by a checkpoint ([`DurableDatabase::put_extent`]).
    fn put_extent(&mut self, extent: Arc<Relation>) {
        match self {
            Store::Plain(db) => db.replace_relation_arc(extent),
            Store::Durable(d) => d.put_extent(extent),
        }
    }
}

/// The writer side: the store and the definitions over it, changed
/// together under one lock and published together.
struct Writer {
    store: Store,
    /// Copy-on-write: every published snapshot shares it until the next
    /// definition.
    defs: Arc<Definitions>,
}

impl Writer {
    /// A new snapshot of the current relations and definitions.
    fn pin(&self) -> Snapshot {
        Snapshot(Arc::new(Pinned {
            db: self.store.db().clone(),
            defs: Arc::clone(&self.defs),
            closed: OnceLock::new(),
        }))
    }

    /// A typed write may not name a materialized view: its extent is
    /// maintained state, and on a durable engine a logged write to it
    /// would name a relation recovery does not rebuild.
    fn check_base(&self, relation: &str) -> Result<(), EngineError> {
        if self.defs.is_extent(relation) {
            return Err(crate::views::ViewError::ExtentWrite(relation.to_string()).into());
        }
        Ok(())
    }
}

/// An immutable, epoch-stamped view of the catalog — its relations and
/// its definitions — pinned at the start of a query. Cloning is one
/// refcount bump; the snapshot stays fully readable (and internally
/// consistent) while writers commit newer epochs through the engine.
/// Dereferences to [`Database`].
#[derive(Debug, Clone)]
pub struct Snapshot(Arc<Pinned>);

#[derive(Debug)]
struct Pinned {
    db: Database,
    defs: Arc<Definitions>,
    /// The computed domain, and `db` with it as `dom`: built by the first
    /// domain-closure request against this snapshot, never stored in the
    /// catalog or logged.
    closed: OnceLock<(Arc<Relation>, Database)>,
}

impl std::ops::Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.0.db
    }
}

impl Snapshot {
    /// Every definition — virtual, materialized and recursive — in name
    /// order.
    pub fn views(&self) -> Vec<View> {
        self.0.defs.list()
    }

    /// The database domain (§2.1): every value of this snapshot's base
    /// relations. Computed on first use, then kept for the snapshot's
    /// lifetime; a domain-closure request ranges over it.
    pub fn domain(&self) -> &Relation {
        &self.closed().0
    }

    /// The domain and the catalog a domain-closure request reads. In that
    /// catalog `dom` is stamped one past the snapshot's epoch, so a cached
    /// plan over it is keyed to this epoch's domain.
    fn closed(&self) -> &(Arc<Relation>, Database) {
        self.0.closed.get_or_init(|| {
            let dom = Arc::new(self.0.defs.domain(&self.0.db));
            let mut db = self.0.db.clone();
            db.replace_relation_arc(Arc::clone(&dom));
            (dom, db)
        })
    }
}

/// The query engine over an in-memory database.
///
/// Internally split MVCC-style for concurrent serving (`gq-server`):
/// writers serialize on a store lock and commit through the WAL when
/// durable; each committed state is republished as an immutable,
/// epoch-stamped [`Snapshot`] that readers pin once per query. The
/// engine is `Send + Sync`, so sessions on different threads can share
/// one `Arc<QueryEngine>` — reads never block reads, and a reader never
/// observes a half-applied write.
pub struct QueryEngine {
    /// Writer side: the authoritative catalog (plus WAL when durable)
    /// and the definitions over it. Every mutation and definition
    /// serializes on this lock and holds it across the durable commit
    /// point.
    store: Mutex<Writer>,
    /// Reader side: the published snapshot — a cheap COW clone of the
    /// catalog (relation payloads are shared `Arc`s) and the definitions,
    /// swapped in *after* each committed change, never mutated in place.
    snapshot: RwLock<Snapshot>,
    metrics: Registry,
    exec: ExecConfig,
    /// Per-query resource budgets (unlimited by default); snapshotted
    /// into a fresh [`Governor`] at the start of every query.
    limits: QueryLimits,
    /// The shared cancel token handed to every query's governor. Stays
    /// set after a cancellation until [`CancelToken::reset`] is called.
    cancel: CancelToken,
    /// Compiled plans of prepared queries, keyed by α-canonical formula,
    /// strategy and the versions of the relations read.
    /// Consulted only by [`QueryEngine::prepare`] and prepared
    /// [`Request`]s; every other request compiles fresh.
    plan_cache: PlanCache,
    /// The flight recorder: a bounded ring of lifecycle events (query
    /// start/end, plan-cache hit/miss, governor trips, WAL/checkpoint
    /// activity). Enabled at engine construction — "always on" — and
    /// switchable off at runtime, at which point every record site is a
    /// single relaxed load.
    journal: Arc<Journal>,
    /// The slow-query log: full traces + governor watermarks, retained
    /// only for queries breaching its thresholds. Disarmed by default
    /// (queries are then not traced at all).
    slow_log: Arc<SlowLog>,
}

/// Window size (completed queries) for
/// [`QueryEngine::metrics_snapshot`]'s rolling aggregates.
const METRICS_WINDOW: usize = 128;

impl QueryEngine {
    /// Wrap a database. Execution defaults to [`ExecConfig::default`]:
    /// morsel-driven parallel kernels sized to the host's available
    /// parallelism (a single-core host gets the sequential path).
    pub fn new(db: Database) -> Self {
        Self::with_store(Store::Plain(db))
    }

    /// Wrap an already-open [`DurableDatabase`]: every typed mutation
    /// ([`QueryEngine::create_relation`], [`QueryEngine::insert`], …) is
    /// WAL-logged and fsynced before it becomes visible.
    pub fn from_durable(db: DurableDatabase) -> Self {
        Self::with_store(Store::Durable(Box::new(db)))
    }

    /// Open (or initialize) a durable database directory and wrap it.
    /// Recovery replays the WAL over the last good snapshot, truncating
    /// any torn tail; the returned [`RecoveryStats`] says what happened.
    /// The recovered catalog's epoch resumes past the WAL high-water
    /// mark, so the (fresh) plan cache can never key a plan to an epoch
    /// the pre-crash catalog already used.
    pub fn open_durable(dir: &std::path::Path) -> Result<(Self, RecoveryStats), EngineError> {
        let (db, recovery) = DurableDatabase::open(dir)?;
        let engine = Self::from_durable(db);
        engine.journal.record(|| {
            EventData::new(EventKind::Recovery, 0, "durable").detail(format!(
                "{} records replayed, generation {}, epoch {}{}",
                recovery.wal_records_replayed,
                recovery.generation,
                recovery.recovered_epoch,
                if recovery.torn_bytes > 0 {
                    ", torn tail truncated"
                } else {
                    ""
                }
            ))
        });
        Ok((engine, recovery))
    }

    fn with_store(store: Store) -> Self {
        let journal = Arc::new(Journal::default());
        journal.enable();
        let writer = Writer {
            store,
            defs: Arc::default(),
        };
        QueryEngine {
            snapshot: RwLock::new(writer.pin()),
            store: Mutex::new(writer),
            metrics: Registry::new(),
            exec: ExecConfig::default(),
            limits: QueryLimits::UNLIMITED,
            cancel: CancelToken::new(),
            plan_cache: PlanCache::default(),
            journal,
            slow_log: Arc::new(SlowLog::default()),
        }
    }

    /// Builder-style plan-cache capacity override (entries, min 1).
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache = PlanCache::with_capacity(capacity);
        self
    }

    /// Change the engine's default per-query limits in place.
    pub fn set_limits(&mut self, limits: QueryLimits) {
        self.limits = limits;
    }

    /// The current per-query limits.
    pub fn limits(&self) -> QueryLimits {
        self.limits
    }

    /// A handle to the engine's cancel token. Calling
    /// [`CancelToken::cancel`] on it (e.g. from a signal-handler thread)
    /// makes the in-flight query unwind with [`EngineError::Cancelled`]
    /// at its next cooperative check point; the flag persists — failing
    /// subsequent queries immediately — until [`CancelToken::reset`].
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Builder-style [`ExecConfig`] override (thread count, morsel size).
    pub fn with_exec_config(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Change the execution configuration in place (REPL `.threads`).
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// The current execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// The engine-lifetime metrics registry: per-strategy query counts and
    /// latency histograms, recorded only while enabled
    /// ([`Registry::enable`]). Disabled (the default), query evaluation
    /// performs one relaxed atomic load and no timing syscalls.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// A [`MetricsSnapshot`] joined with the flight recorder's rolling
    /// window over the last 128-or-fewer completed queries (p50/p99
    /// latency, plan-cache hit rate, governor trips). The window is
    /// `None` when the journal has seen no completions.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let window = self.journal.window_stats(METRICS_WINDOW);
        if window.queries > 0 {
            snap.window = Some(window);
        }
        snap
    }

    /// The flight recorder. Enabled from construction; disable it
    /// ([`Journal::disable`]) to make every record site a single relaxed
    /// atomic load. The `Arc` can be cloned for out-of-band readers
    /// (REPL export, monitoring threads).
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The slow-query log. Disarmed by default; arm it with
    /// [`SlowLog::set_latency_threshold`] /
    /// [`SlowLog::set_tuple_threshold`] and breaching queries retain
    /// their full [`QueryTrace`] plus governor watermarks.
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// Define a view: a named open query usable as an atom in later
    /// queries (Definition 1 allows views as ranges). The body's free
    /// variables, in name order, are the view's columns. Every relation
    /// the body references must already exist (as a catalog relation or
    /// an earlier view) — unresolvable names fail here with
    /// [`ViewError::UnknownRelation`](crate::views::ViewError), not at
    /// first query. Queries pinned after this call see the view.
    pub fn define_view(&self, name: impl Into<String>, text: &str) -> Result<(), EngineError> {
        let body = parse(text)?;
        let name = name.into();
        let mut guard = self.store_lock();
        let w = &mut *guard;
        w.defs.check_name_free(&name, w.store.db())?;
        Arc::make_mut(&mut w.defs).define_view(name, body, w.store.db())?;
        self.publish(w);
        Ok(())
    }

    /// Define a *materialized* view: like [`QueryEngine::define_view`],
    /// but the answer set is evaluated once and stored as a catalog
    /// relation under the view's name, then kept in sync incrementally —
    /// every committed mutation routes its delta through the view's
    /// delta plan and patches the stored extent before the snapshot
    /// republish. Queries use it like any relation; its columns are the
    /// body's free variables in name order. It is a one-member
    /// [`QueryEngine::define_recursive`] batch, so a body may name the
    /// view itself.
    ///
    /// On a durable engine the extent is *volatile* (recomputed state,
    /// neither WAL-logged nor checkpointed): after a reopen, re-define
    /// the view.
    pub fn define_materialized_view(
        &self,
        name: impl Into<String>,
        text: &str,
    ) -> Result<(), EngineError> {
        let body = parse(text)?;
        let def = RecursiveDef {
            name: name.into(),
            params: body.free_vars().into_iter().collect(),
            body,
        };
        self.define_recursive(std::slice::from_ref(&def))
    }

    /// Define a batch of (mutually) recursive materialized views — the
    /// engine surface behind `with recursive`. The definitions are
    /// stratified by SCC decomposition of their dependency graph;
    /// recursion through negation, complement-join, a division's
    /// divisor, an outer-join's padded side, or an aggregate is rejected
    /// with [`ViewError::UnstratifiedRecursion`](crate::views::ViewError).
    /// Each SCC's extents are computed by a semi-naive fixpoint whose
    /// rounds are governor-checked against the engine's
    /// [`QueryLimits`], so a runaway recursion trips cleanly with
    /// [`EngineError::ResourceExhausted`] instead of hanging — and
    /// nothing is registered. The views are maintained incrementally.
    pub fn define_recursive(&self, defs: &[RecursiveDef]) -> Result<(), EngineError> {
        self.define_recursive_under(defs, &self.start_governor(0, None, None, None))
    }

    /// [`QueryEngine::define_recursive`] under `governor`: a program's
    /// definitions run under its request's limits, cancel token and
    /// shared budget.
    fn define_recursive_under(
        &self,
        defs: &[RecursiveDef],
        governor: &Governor,
    ) -> Result<(), EngineError> {
        use crate::views::ViewError;
        if defs.is_empty() {
            return Ok(());
        }
        let mut guard = self.store_lock();
        let w = &mut *guard;
        // Validate names and parameter lists before touching anything.
        let mut seen = std::collections::BTreeSet::new();
        for def in defs {
            if !seen.insert(def.name.as_str()) {
                return Err(EngineError::View(ViewError::Duplicate(def.name.clone())));
            }
            w.defs.check_name_free(&def.name, w.store.db())?;
            let mut params = std::collections::BTreeSet::new();
            for p in &def.params {
                if !params.insert(p.clone()) {
                    return Err(EngineError::View(ViewError::BadRecursiveDef {
                        view: def.name.clone(),
                        detail: format!("duplicate parameter `{p}`"),
                    }));
                }
            }
            let free = def.body.free_vars();
            if free != params {
                return Err(EngineError::View(ViewError::BadRecursiveDef {
                    view: def.name.clone(),
                    detail: format!(
                        "parameters ({}) must be exactly the body's free variables ({})",
                        def.params
                            .iter()
                            .map(|v| v.name())
                            .collect::<Vec<_>>()
                            .join(", "),
                        free.iter().map(|v| v.name()).collect::<Vec<_>>().join(", "),
                    ),
                }));
            }
        }
        // Compile against a working catalog that already has every
        // member's (empty) extent registered, so bodies can reference
        // each other; nothing is written back unless the whole batch
        // succeeds.
        let mut working = w.store.db().clone();
        for def in defs {
            working.add_relation(Relation::named_intermediate(&def.name, def.params.len()))?;
        }
        let mut compiled = Vec::with_capacity(defs.len());
        for def in defs {
            let expanded = w.defs.expand(&def.body)?;
            for referenced in expanded.relation_names() {
                if !w.defs.resolves(referenced, &working) {
                    return Err(EngineError::View(ViewError::UnknownRelation {
                        view: def.name.clone(),
                        relation: referenced.to_string(),
                    }));
                }
            }
            let CompiledPlan::Algebra { vars, plan } =
                self.compile(&working, &expanded, Strategy::Improved, governor, None)?
            else {
                // A closed body compiles to a boolean plan: no extent.
                return Err(EngineError::View(ViewError::ClosedBody(def.name.clone())));
            };
            // The extent's columns are the *declared* parameters, in
            // order; reorder the plan's output (free vars in name order)
            // to match.
            let positions: Vec<usize> = def
                .params
                .iter()
                .map(|p| {
                    vars.iter().position(|v| v == p).ok_or_else(|| {
                        EngineError::View(ViewError::BadRecursiveDef {
                            view: def.name.clone(),
                            detail: format!("parameter `{p}` unbound in the translated plan"),
                        })
                    })
                })
                .collect::<Result<_, _>>()?;
            let identity =
                positions.iter().enumerate().all(|(i, &p)| i == p) && positions.len() == vars.len();
            let plan = if identity {
                plan
            } else {
                plan.project(positions)
            };
            let reads = crate::ivm::plan_reads(&plan);
            compiled.push(crate::ivm::MatView {
                name: def.name.clone(),
                vars: def.params.clone(),
                body: def.body.clone(),
                plan,
                reads,
            });
        }
        let units = crate::ivm::stratify(compiled).map_err(EngineError::View)?;
        // Evaluate extents unit by unit in dependency order.
        let env = self.ivm_env();
        for unit in &units {
            match unit {
                crate::ivm::Unit::Single(v) => {
                    let mut fresh = env.evaluator(&working, governor).eval(&v.plan)?;
                    fresh.set_name(&v.name);
                    working.replace_relation(fresh);
                }
                crate::ivm::Unit::Recursive(group) => {
                    crate::ivm::fixpoint(&mut working, group, governor, env, &mut 0)?;
                }
            }
        }
        for unit in &units {
            let recursive = matches!(unit, crate::ivm::Unit::Recursive(_));
            for m in unit.members() {
                let extent = working.relation_arc(&m.name)?;
                let tuples = extent.len();
                self.journal.record(|| {
                    EventData::new(EventKind::IvmDefine, 0, "ivm").detail(format!(
                        "view `{}` ({}) materialized: {tuples} tuples",
                        m.name,
                        if recursive { "recursive" } else { "stratified" },
                    ))
                });
                w.store.put_extent(extent);
            }
        }
        Arc::make_mut(&mut w.defs).units.extend(units);
        self.publish(w);
        Ok(())
    }

    /// What view definition and maintenance evaluate under: the
    /// engine's execution configuration and journal.
    fn ivm_env(&self) -> crate::ivm::Env<'_> {
        crate::ivm::Env {
            exec: self.exec,
            journal: &self.journal,
        }
    }

    /// Route one committed mutation's deltas through every affected
    /// materialized extent before the snapshot republish. Works on a
    /// clone of the catalog and writes the changed extents back
    /// ([`Store::put_extent`]) only on success, so readers always see
    /// base mutation + maintenance atomically.
    /// Incremental failures (including injected chaos faults) fall back
    /// to full recompute inside [`crate::ivm::maintain`]; an error here
    /// means even the recompute failed — the base mutation stays
    /// committed and the error surfaces to the caller.
    fn maintain_after_mutation(
        &self,
        w: &mut Writer,
        deltas: Vec<MutationDelta>,
    ) -> Result<(), EngineError> {
        let Writer { store, defs } = w;
        if defs.units.is_empty() {
            return Ok(());
        }
        let old = self.snapshot();
        let mut working = store.db().clone();
        let governor = self.start_governor(0, None, None, None);
        let outcomes = crate::ivm::maintain(
            &mut working,
            &old,
            deltas,
            &defs.units,
            &governor,
            self.ivm_env(),
        )?;
        for o in outcomes {
            if let Some(extent) = &o.extent {
                store.put_extent(Arc::clone(extent));
            }
            self.journal.record(|| {
                EventData::new(EventKind::IvmApply, 0, "ivm").detail(match &o.fallback {
                    Some(err) => format!(
                        "view `{}`: +{} −{} via {} (incremental failed: {err})",
                        o.view, o.added, o.removed, o.mode
                    ),
                    None if o.rounds > 0 => format!(
                        "view `{}`: +{} −{} via {} ({} rounds)",
                        o.view, o.added, o.removed, o.mode, o.rounds
                    ),
                    None => format!(
                        "view `{}`: +{} −{} via {}",
                        o.view, o.added, o.removed, o.mode
                    ),
                })
            });
        }
        Ok(())
    }

    /// Lock the writer side, recovering from poisoning (the store is
    /// never left half-mutated by any path holding the lock: durable
    /// mutations apply only after their WAL record is committed, and
    /// plain mutations are single catalog calls).
    fn store_lock(&self) -> MutexGuard<'_, Writer> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Republish the writer's current catalog and definitions as the
    /// read snapshot (a COW clone — relation payloads are shared `Arc`s).
    /// Called after every committed change, while still holding the
    /// store lock, so snapshots are published in commit order.
    fn publish(&self, w: &Writer) {
        let snap = w.pin();
        *self.snapshot.write().unwrap_or_else(|e| e.into_inner()) = snap;
    }

    /// Pin the current committed snapshot: an immutable, epoch-stamped
    /// view of the whole catalog and its definitions. Every query runs
    /// against exactly one snapshot; concurrent changes only affect
    /// queries pinned later.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Is a [`DurableDatabase`] attached?
    pub fn is_durable(&self) -> bool {
        matches!(&self.store_lock().store, Store::Durable(_))
    }

    /// Durability counters of the attached durable database, if any.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.store_lock().store.stats()
    }

    /// Take an atomic checkpoint of the attached durable database: the
    /// catalog snapshots to a new generation and the WAL restarts empty.
    /// Errors when the engine is not durable.
    pub fn checkpoint(&self) -> Result<CheckpointStats, EngineError> {
        match &mut self.store_lock().store {
            Store::Plain(_) => Err(EngineError::Storage(StorageError::Io(
                "no durable database attached (open one with open_durable)".into(),
            ))),
            Store::Durable(d) => {
                let before = d.stats();
                self.journal.record(|| {
                    EventData::new(EventKind::CheckpointBegin, 0, "durable").detail(format!(
                        "{} WAL records since last checkpoint",
                        before.wal_records_since_checkpoint
                    ))
                });
                let out = d.checkpoint();
                let after = d.stats();
                self.record_durability("checkpoint", before, after);
                Ok(out?)
            }
        }
    }

    /// Create a relation through the store — WAL-logged when durable.
    /// The name must be free: not a relation's, not a view's, and not the
    /// reserved `dom`. On success the new catalog state is published for
    /// readers; in-flight queries keep their pinned snapshots.
    pub fn create_relation(
        &self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), EngineError> {
        let name = name.into();
        self.commit("create-relation", |w| {
            w.defs.check_name_free(&name, w.store.db())?;
            w.store.create_relation(name, schema)?;
            Ok(((), vec![]))
        })
    }

    /// Insert a tuple through the store — WAL-logged when durable. On
    /// success the new catalog state is published for readers; in-flight
    /// queries keep their pinned snapshots.
    pub fn insert(&self, relation: &str, t: Tuple) -> Result<bool, EngineError> {
        self.commit("insert", |w| {
            w.check_base(relation)?;
            // Capture the tuple for view maintenance only when views
            // exist — the clone is off the common path.
            let captured = (!w.defs.units.is_empty()).then(|| t.clone());
            let fresh = w.store.insert(relation, t)?;
            let deltas = match captured {
                Some(t) if fresh => vec![MutationDelta::inserted_tuple(relation, t)],
                _ => vec![],
            };
            Ok((fresh, deltas))
        })
    }

    /// Remove a tuple through the store — WAL-logged when durable. On
    /// success the new catalog state is published for readers; in-flight
    /// queries keep their pinned snapshots.
    pub fn remove(&self, relation: &str, t: &Tuple) -> Result<bool, EngineError> {
        self.commit("remove", |w| {
            w.check_base(relation)?;
            let gone = w.store.remove(relation, t)?;
            let deltas = if gone && !w.defs.units.is_empty() {
                vec![MutationDelta::removed_tuple(relation, t.clone())]
            } else {
                vec![]
            };
            Ok((gone, deltas))
        })
    }

    /// The mutation lifecycle, written once. Under the store lock: run
    /// `write` (WAL-logged when durable) and mirror its WAL activity into
    /// the journal and metrics; if it succeeded, route the deltas it
    /// returned through the materialized views, republish the catalog for
    /// readers, and only then surface a maintenance error — the base
    /// write stays committed either way.
    fn commit<T>(
        &self,
        op: &'static str,
        write: impl FnOnce(&mut Writer) -> Result<(T, Vec<MutationDelta>), EngineError>,
    ) -> Result<T, EngineError> {
        let mut guard = self.store_lock();
        let w = &mut *guard;
        let before = w.store.stats();
        let out = write(w);
        if let (Some(before), Some(after)) = (before, w.store.stats()) {
            self.record_durability(op, before, after);
        }
        let (value, deltas) = out?;
        let maintenance = if deltas.is_empty() {
            Ok(())
        } else {
            self.maintain_after_mutation(w, deltas)
        };
        self.publish(w);
        maintenance?;
        Ok(value)
    }

    /// Mirror a durable-stats delta into `durability.*` metrics and
    /// journal the WAL/checkpoint activity it proves (append, fsync,
    /// commit, checkpoint end). `op` names the mutation for the journal
    /// detail. The delta approach keeps gq-storage free of any
    /// observability dependency.
    fn record_durability(&self, op: &'static str, before: DurabilityStats, after: DurabilityStats) {
        let delta =
            |field: fn(&DurabilityStats) -> u64| field(&after).saturating_sub(field(&before));
        let appends = delta(|s| s.wal_appends);
        if self.journal.is_enabled() {
            if appends > 0 {
                self.journal.record(|| {
                    EventData::new(EventKind::WalAppend, 0, "durable").detail(format!(
                        "{op}: {appends} records, {} bytes",
                        delta(|s| s.wal_bytes)
                    ))
                });
            }
            let fsyncs = delta(|s| s.fsyncs);
            if fsyncs > 0 {
                self.journal.record(|| {
                    EventData::new(EventKind::WalFsync, 0, "durable")
                        .detail(format!("{op}: {fsyncs} fsyncs"))
                });
            }
            // A mutation whose WAL record hit the disk reached its commit
            // point; checkpoints restart the WAL and are not commits.
            if appends > 0 && op != "checkpoint" {
                self.journal
                    .record(|| EventData::new(EventKind::WalCommit, 0, "durable").detail(op));
            }
            let checkpoints = delta(|s| s.checkpoints);
            if checkpoints > 0 {
                self.journal.record(|| {
                    EventData::new(EventKind::CheckpointEnd, 0, "durable")
                        .detail(format!("{checkpoints} checkpoints"))
                });
            }
        }
        if !self.metrics.is_enabled() {
            return;
        }
        let count = |name: &str, field: fn(&DurabilityStats) -> u64| {
            let n = delta(field);
            if n > 0 {
                self.metrics.incr(name, n);
            }
        };
        count("durability.wal_appends", |s| s.wal_appends);
        count("durability.wal_bytes", |s| s.wal_bytes);
        count("durability.fsyncs", |s| s.fsyncs);
        count("durability.checkpoints", |s| s.checkpoints);
        count("durability.recoveries", |s| s.recoveries);
        count("durability.torn_tail_truncations", |s| {
            s.torn_tail_truncations
        });
    }

    /// Parse and evaluate a query with the default (improved) strategy.
    pub fn query(&self, text: &str) -> Result<QueryResult, EngineError> {
        Ok(self.run(&Request::text(text))?.result)
    }

    /// Parse and evaluate a query with an explicit strategy.
    pub fn query_with(&self, text: &str, strategy: Strategy) -> Result<QueryResult, EngineError> {
        Ok(self
            .run(&Request::text(text).with_strategy(strategy))?
            .result)
    }

    /// Run one query — the engine's only way in. Resolves the request's
    /// input to a formula (parsing text, registering a program's
    /// recursive definitions), then hands it to the driver that owns the
    /// query's lifecycle. A traced request gets every phase under a span,
    /// rule counts and plan-shape facts, and an annotated per-node plan;
    /// an untraced one runs no instrumentation code at all.
    pub fn run(&self, request: &Request<'_>) -> Result<Response, EngineError> {
        let tb = request.trace.then(TraceBuilder::new);
        let parsed;
        let formula = match request.input {
            Input::Text(text) => {
                let _span = span(tb.as_ref(), "parse");
                parsed = parse(text)?;
                &parsed
            }
            Input::Formula(formula) => formula,
            Input::Prepared(prepared) => &prepared.formula,
            Input::Program(text) => {
                let program = {
                    let _span = span(tb.as_ref(), "parse");
                    parse_program(text)?
                };
                if !program.defs.is_empty() {
                    let governor = self.start_governor(
                        0,
                        request.limits,
                        request.cancel.clone(),
                        request.budget.clone(),
                    );
                    self.define_recursive_under(&program.defs, &governor)?;
                }
                parsed = program.query;
                &parsed
            }
        };
        self.drive(request, formula, tb)
    }

    /// The query lifecycle, written once. In order: pin ONE snapshot
    /// (view expansion, plan-cache keying, translation and evaluation
    /// all see this committed state, whatever writers do meanwhile),
    /// allocate the query id, journal the start, start the governor, arm
    /// slow-log tracing, run the phases, journal the end and record
    /// metrics.
    fn drive(
        &self,
        request: &Request<'_>,
        formula: &Formula,
        tb: Option<TraceBuilder>,
    ) -> Result<Response, EngineError> {
        let snap = self.snapshot();
        // The query id is always allocated (one relaxed fetch_add) so ids
        // stay monotone across journal enable/disable flips.
        let query_id = self.journal.next_query_id();
        let timer =
            (self.metrics.is_enabled() || self.journal.is_enabled() || self.slow_log.is_armed())
                .then(Instant::now);
        let strategy = request.strategy;
        let label = request.label(formula);
        self.journal.record(|| {
            EventData::new(EventKind::QueryStart, query_id, "parse")
                .detail(format!("[{}] {label}", strategy.name()))
        });
        let governor = self.start_governor(
            query_id,
            request.limits,
            request.cancel.clone(),
            request.budget.clone(),
        );
        // When the slow log is armed, trace on the query's behalf — the
        // trace is kept only if the query breaches a threshold.
        let tb = tb.or_else(|| self.slow_log.is_armed().then(TraceBuilder::new));
        let result = self.run_phases(&snap, formula, request, &governor, tb.as_ref(), query_id);
        let trace = self.finish_query(query_id, timer, &governor, tb, request, label, &result);
        self.record_query_metrics(strategy, timer, &result);
        Ok(Response {
            result: result?,
            trace,
        })
    }

    /// The phases between governor start and journal end: preprocess,
    /// compile — through the plan cache for a prepared request, fresh for
    /// every other kind (the one thing the request kind decides) — and
    /// execute.
    fn run_phases(
        &self,
        snap: &Snapshot,
        formula: &Formula,
        request: &Request<'_>,
        governor: &Governor,
        tb: Option<&TraceBuilder>,
        query_id: u64,
    ) -> Result<QueryResult, EngineError> {
        let strategy = request.strategy;
        let (db, expanded) =
            self.preprocess(snap, formula, request.domain_closure, governor, tb)?;
        let cached;
        let fresh;
        let compiled: &CompiledPlan = if let Input::Prepared(_) = request.input {
            cached = self.lookup_or_compile(db, &expanded, strategy, governor, tb, query_id)?;
            &cached
        } else {
            fresh = self.compile(db, &expanded, strategy, governor, tb)?;
            &fresh
        };
        self.execute_compiled(db, compiled, governor, tb, query_id)
    }

    /// A governor over the request's limits, cancel token and shared
    /// admission budget — the engine's limits and token where it sets
    /// none. Its trip hook journals every budget trip / cancellation /
    /// contained worker panic with this query's id and the phase that
    /// tripped, so every `EngineError::{Cancelled, ResourceExhausted,
    /// WorkerPanic}` is attributable. No hook is installed while the
    /// journal is off.
    pub(crate) fn start_governor(
        &self,
        query_id: u64,
        limits: Option<QueryLimits>,
        cancel: Option<CancelToken>,
        shared: Option<SharedBudget>,
    ) -> Governor {
        let hook: Option<TripHook> = if self.journal.is_enabled() {
            let journal = Arc::clone(&self.journal);
            Some(Arc::new(move |e: &GovernorError| {
                let kind = match e {
                    GovernorError::Cancelled { .. } => EventKind::Cancelled,
                    GovernorError::ResourceExhausted { .. } => EventKind::GovernorTrip,
                    GovernorError::WorkerPanic { .. } => EventKind::WorkerPanic,
                };
                journal.record(|| EventData::new(kind, query_id, e.phase()).detail(e.to_string()));
            }))
        } else {
            None
        };
        Governor::start_shared(
            limits.unwrap_or(self.limits),
            cancel.unwrap_or_else(|| self.cancel.clone()),
            hook,
            shared,
        )
    }

    /// Journal the query's end event, and finish its trace when the
    /// request asked for one or the query breached an armed slow-log
    /// threshold — retaining it in the slow log in the second case. The
    /// label is rendered lazily, never on the fast path.
    #[allow(clippy::too_many_arguments)]
    fn finish_query(
        &self,
        query_id: u64,
        timer: Option<Instant>,
        governor: &Governor,
        tb: Option<TraceBuilder>,
        request: &Request<'_>,
        label: impl std::fmt::Display,
        result: &Result<QueryResult, EngineError>,
    ) -> Option<QueryTrace> {
        let elapsed_ns = timer.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        if self.journal.is_enabled() {
            match result {
                Ok(r) => self.journal.record(|| {
                    EventData::new(EventKind::QueryEnd, query_id, "evaluate")
                        .detail(format!("{} answers", r.len()))
                        .dur_ns(elapsed_ns)
                }),
                Err(e) => {
                    let message = e.to_string();
                    // Chaos faults surface as their own event kind so a
                    // seed sweep shows *where* injections landed.
                    if message.contains("chaos:") {
                        self.journal.record(|| {
                            EventData::new(EventKind::Chaos, query_id, "evaluate")
                                .detail(message.clone())
                        });
                    }
                    self.journal.record(|| {
                        EventData::new(EventKind::QueryError, query_id, "evaluate")
                            .detail(message)
                            .dur_ns(elapsed_ns)
                    });
                }
            }
        }
        let tb = tb?;
        let peak_tuples = governor.intermediate_tuples();
        let breach = self.slow_log.breach(elapsed_ns, peak_tuples);
        if breach.is_none() && !request.trace {
            return None;
        }
        let trace = tb.finish(label.to_string(), request.strategy.name());
        let Some(reason) = breach else {
            return Some(trace);
        };
        let kept = request.trace.then(|| trace.clone());
        self.slow_log.push(SlowLogEntry {
            query_id,
            trace,
            peak_intermediate_tuples: peak_tuples,
            peak_memory_bytes: governor.peak_memory_bytes(),
            answers: result.as_ref().map(|r| r.len() as u64).unwrap_or(0),
            reason,
        });
        kept
    }

    /// Engine-lifetime counters/latency for one query outcome (no-op
    /// unless metrics are enabled).
    fn record_query_metrics(
        &self,
        strategy: Strategy,
        timer: Option<Instant>,
        result: &Result<QueryResult, EngineError>,
    ) {
        let Some(start) = timer.filter(|_| self.metrics.is_enabled()) else {
            return;
        };
        self.metrics
            .incr(&format!("query.count.{}", strategy.name()), 1);
        self.metrics.observe(
            &format!("query.latency.{}", strategy.name()),
            start.elapsed(),
        );
        if let Err(e) = &result {
            self.metrics.incr("query.errors", 1);
            match e {
                EngineError::Cancelled { .. } => self.metrics.incr("governor.cancelled", 1),
                EngineError::ResourceExhausted { .. } => self.metrics.incr("governor.exhausted", 1),
                EngineError::WorkerPanic { .. } => self.metrics.incr("governor.worker_panic", 1),
                _ => {}
            }
        }
    }

    /// Phase 0: view expansion against the snapshot's definitions,
    /// Domain Closure completion when asked, and the formula-depth guard
    /// on the result — expansion can deepen a query well past what the
    /// user typed. Returns the catalog the query compiles and runs
    /// against — the snapshot's, or under domain closure the snapshot's
    /// plus its computed `dom` — and the expanded formula. Without domain
    /// closure `dom` names no relation.
    pub(crate) fn preprocess<'s>(
        &self,
        snap: &'s Snapshot,
        formula: &Formula,
        domain_closure: bool,
        governor: &Governor,
        tb: Option<&TraceBuilder>,
    ) -> Result<(&'s Database, Formula), EngineError> {
        let _span = span(tb, "view-expand");
        let mut expanded = snap.0.defs.expand(formula)?;
        let db = if domain_closure {
            expanded = gq_rewrite::restrict_with_domain(&expanded, DOM);
            &snap.closed().1
        } else {
            // Only a directory written before `dom` was reserved can hold
            // a stored `dom`; queries never read it.
            if snap.has_relation(DOM) && expanded.relation_names().contains(&DOM) {
                return Err(StorageError::UnknownRelation(DOM.to_string()).into());
            }
            &**snap
        };
        governor.check_depth("parse", Resource::FormulaDepth, expanded.depth() as u64)?;
        Ok((db, expanded))
    }

    /// Phases 1–3 — normalize, translate, optimize — producing the
    /// cacheable compiled form. `formula` must already be preprocessed.
    /// Materialized-view bodies compile here too, against the catalog
    /// their batch is defined in.
    /// Both algebraic strategies are optimized, and the improved one is
    /// cost-ordered: the one configuration every query runs under.
    pub(crate) fn compile(
        &self,
        snap: &Database,
        formula: &Formula,
        strategy: Strategy,
        governor: &Governor,
        tb: Option<&TraceBuilder>,
    ) -> Result<CompiledPlan, EngineError> {
        let closed = formula.is_closed();
        match strategy {
            Strategy::Improved => {
                let canonical = self.normalize(formula, governor, tb)?;
                let tr = ImprovedTranslator::new(snap)
                    .with_cost_ordering(true)
                    .with_governor(governor.clone());
                translate_and_tune(
                    closed,
                    tb,
                    || tr.translate_closed(&canonical),
                    || tr.translate_open(&canonical),
                )
            }
            Strategy::Classical => {
                // The classical translator runs on the *raw* query, as the
                // classical methods do.
                let tr = ClassicalTranslator::new(snap).with_governor(governor.clone());
                translate_and_tune(
                    closed,
                    tb,
                    || tr.translate_closed(formula),
                    || tr.translate_open(formula),
                )
            }
            Strategy::NestedLoop => {
                // No plan: the canonical formula (the rewrite's output,
                // the expensive part) is the reusable compilation.
                let canonical = self.normalize(formula, governor, tb)?;
                Ok(CompiledPlan::Loop { canonical })
            }
        }
    }

    /// Phase 4: evaluate a compiled plan. Shared by the ad-hoc path (fresh
    /// compile every time) and the prepared path (plan possibly from the
    /// cache) — so cached and fresh executions are bit-identical.
    fn execute_compiled(
        &self,
        snap: &Database,
        compiled: &CompiledPlan,
        governor: &Governor,
        tb: Option<&TraceBuilder>,
        query_id: u64,
    ) -> Result<QueryResult, EngineError> {
        let make_eval = || {
            let ev = Evaluator::new(snap)
                .with_exec_config(self.exec)
                .with_governor(governor.clone());
            // Flight-record pipeline boundaries only while the journal is
            // on; with no hook the evaluator's event path is a no-op.
            if self.journal.is_enabled() {
                let journal = Arc::clone(&self.journal);
                let hook: PipelineHook = Rc::new(move |e: &PipelineEvent| match *e {
                    PipelineEvent::Start { id } => journal.record(|| {
                        EventData::new(EventKind::PipelineStart, query_id, "evaluate")
                            .detail(format!("pipeline {id}"))
                    }),
                    PipelineEvent::Break { id, kind, tuples } => journal.record(|| {
                        EventData::new(EventKind::PipelineBreak, query_id, "evaluate")
                            .detail(format!("pipeline {id} {kind} tuples={tuples}"))
                    }),
                });
                ev.with_pipeline_hook(hook)
            } else {
                ev
            }
        };
        match compiled {
            CompiledPlan::Boolean { plan } => {
                check_bool_plan_depth(governor, plan)?;
                if let Some(t) = tb {
                    PlanShape::of_roots(plan.algebra_exprs()).record_into(t);
                }
                let profiler = tb.map(|_| Rc::new(PlanProfiler::new_bool(plan)));
                let mut ev = make_eval();
                if let Some(p) = &profiler {
                    ev = ev.with_profiler(Rc::clone(p));
                }
                let truth = {
                    let _span = span(tb, "evaluate");
                    plan.eval(&ev)?
                };
                if let (Some(t), Some(p)) = (tb, profiler) {
                    t.set_plan(p.trace_bool(plan));
                }
                attach_pipelines(tb, &ev);
                Ok(QueryResult {
                    vars: vec![],
                    answers: nullary(truth),
                    stats: ev.stats(),
                })
            }
            CompiledPlan::Algebra { vars, plan } => {
                governor.check_depth("translate", Resource::PlanDepth, plan.depth() as u64)?;
                if let Some(t) = tb {
                    PlanShape::of(plan).record_into(t);
                }
                let profiler = tb.map(|_| Rc::new(PlanProfiler::new(plan)));
                let mut ev = make_eval();
                if let Some(p) = &profiler {
                    ev = ev.with_profiler(Rc::clone(p));
                }
                let answers = {
                    let _span = span(tb, "evaluate");
                    ev.eval(plan)?
                };
                if let (Some(t), Some(p)) = (tb, profiler) {
                    t.set_plan(p.trace(plan));
                }
                attach_pipelines(tb, &ev);
                Ok(QueryResult {
                    vars: vars.clone(),
                    answers,
                    stats: ev.stats(),
                })
            }
            CompiledPlan::Loop { canonical } => {
                let profiler = tb.map(|_| Rc::new(LoopProfiler::new()));
                let mut ev = PipelineEvaluator::new(snap).with_governor(governor.clone());
                if let Some(p) = &profiler {
                    ev = ev.with_profiler(Rc::clone(p));
                }
                let result = if canonical.is_closed() {
                    let truth = {
                        let _span = span(tb, "evaluate");
                        ev.eval_closed(canonical)?
                    };
                    QueryResult {
                        vars: vec![],
                        answers: nullary(truth),
                        stats: ev.stats(),
                    }
                } else {
                    let (vars, answers) = {
                        let _span = span(tb, "evaluate");
                        ev.eval_open(canonical)?
                    };
                    QueryResult {
                        vars,
                        answers,
                        stats: ev.stats(),
                    }
                };
                if let (Some(t), Some(p)) = (tb, profiler) {
                    t.set_plan(p.trace());
                }
                Ok(result)
            }
        }
    }

    /// Parse a query and warm the plan cache for it: the query compiles
    /// now (normalize + translate + optimize) under the engine's limits,
    /// so every run of it as [`Request::prepared`] — until a write to a
    /// relation it reads — skips straight to evaluation.
    pub fn prepare(&self, text: &str, strategy: Strategy) -> Result<PreparedQuery, EngineError> {
        let prepared = PreparedQuery {
            text: text.to_string(),
            formula: parse(text)?,
            strategy,
        };
        let snap = self.snapshot();
        // Preparation is not a query: journal events it produces
        // (plan-cache miss, governor trips) carry query id 0.
        let governor = self.start_governor(0, None, None, None);
        let (db, expanded) = self.preprocess(&snap, &prepared.formula, false, &governor, None)?;
        self.lookup_or_compile(db, &expanded, strategy, &governor, None, 0)?;
        Ok(prepared)
    }

    /// The plan-cache gate: answer from the cache when every compilation
    /// input matches (α-canonical view-expanded formula — `dom` included
    /// when domain closure spliced it in — strategy, the version stamps
    /// of the relations the formula reads), compile-and-insert otherwise.
    /// The insert happens after a *successful* compile and before
    /// evaluation, so an evaluation error never poisons the cached plan —
    /// and a failed compile caches nothing.
    ///
    /// Keying on per-relation versions instead of the global catalog
    /// epoch means a mutation only invalidates the plans that read the
    /// mutated relation; plans over untouched relations keep hitting.
    /// Definitions need no stamp of their own: the key holds the
    /// *expanded* formula, and a name, once defined, is never redefined.
    fn lookup_or_compile(
        &self,
        snap: &Database,
        expanded: &Formula,
        strategy: Strategy,
        governor: &Governor,
        tb: Option<&TraceBuilder>,
        query_id: u64,
    ) -> Result<Arc<CompiledPlan>, EngineError> {
        // Sorted, deduplicated (relation, version) stamps for every
        // relation the expanded formula scans — including `dom` when
        // domain closure spliced it in (stamped one past its snapshot's
        // epoch), and materialized-view extents (their versions bump when
        // maintenance patches them).
        let reads: Vec<(String, u64)> = expanded
            .relation_names()
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|n| (n.to_string(), snap.relation_version(n)))
            .collect();
        let key = PlanKey {
            canonical: alpha_canonical(expanded),
            strategy,
            reads,
        };
        if let Some(hit) = self.plan_cache.get(&key) {
            self.metrics.incr("plan_cache.hit", 1);
            self.journal.record(|| {
                EventData::new(EventKind::PlanCacheHit, query_id, "plan-cache")
                    .detail(key.canonical.clone())
            });
            return Ok(hit);
        }
        self.metrics.incr("plan_cache.miss", 1);
        self.journal.record(|| {
            EventData::new(EventKind::PlanCacheMiss, query_id, "plan-cache")
                .detail(key.canonical.clone())
        });
        let compiled = Arc::new(self.compile(snap, expanded, strategy, governor, tb)?);
        // Account the cached plan's footprint against this query's
        // budgets — a memory-limited workload cannot hide allocations in
        // the plan cache.
        governor.charge_intermediate("plan-cache", 0, compiled.approx_bytes())?;
        let evicted = self.plan_cache.insert(key, Arc::clone(&compiled));
        if evicted > 0 {
            self.metrics.incr("plan_cache.evict", evicted);
            self.journal.record(|| {
                EventData::new(EventKind::PlanCacheEvict, query_id, "plan-cache")
                    .detail(format!("{evicted} evicted"))
            });
        }
        Ok(compiled)
    }

    /// Plan-cache statistics (entries, bytes, hit/miss/eviction counts).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drop every cached plan (REPL `.cache clear`).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear()
    }

    /// Canonicalize under a `normalize` span; when tracing, record the
    /// per-rule application counts and the total step count as counters.
    /// The governor is polled at every rewrite-rule application and a
    /// `max_rewrite_steps` limit replaces the internal safety budget.
    fn normalize(
        &self,
        formula: &Formula,
        governor: &Governor,
        tb: Option<&TraceBuilder>,
    ) -> Result<Formula, EngineError> {
        let _span = span(tb, "normalize");
        match tb {
            None => Ok(canonicalize_governed(formula, governor)?),
            Some(t) => {
                let (canonical, trace) = canonicalize_traced_governed(formula, governor)?;
                t.incr("rewrite.steps", trace.steps.len() as u64);
                for (rule, n) in trace.rule_counts() {
                    t.incr(&format!("rewrite.rule.{rule}"), n as u64);
                }
                Ok(canonical)
            }
        }
    }
}

/// Open a span when tracing (no-op otherwise).
fn span<'a>(tb: Option<&'a TraceBuilder>, name: &str) -> Option<SpanGuard<'a>> {
    tb.map(|t| t.span(name))
}

/// Attach the evaluator's pipeline-breaker record to an active trace, so
/// `:analyze` can show where a streaming plan broke and what the live
/// intermediate watermark was at each boundary.
fn attach_pipelines(tb: Option<&TraceBuilder>, ev: &Evaluator<'_>) {
    let Some(t) = tb else { return };
    let spans: Vec<PipelineSpan> = ev
        .pipeline_breaks()
        .into_iter()
        .map(|b| PipelineSpan {
            id: b.id,
            breaker: b.kind.to_string(),
            tuples: b.tuples,
            live_tuples: b.live_tuples,
            live_bytes: b.live_bytes,
        })
        .collect();
    if !spans.is_empty() {
        t.set_pipelines(spans);
    }
}

/// Translate under a `translate` span, then optimize under an `optimize`
/// span: a boolean plan for a closed formula, an algebra plan and its
/// answer variables for an open one.
fn translate_and_tune(
    closed: bool,
    tb: Option<&TraceBuilder>,
    translate_closed: impl FnOnce() -> Result<gq_algebra::BoolExpr, TranslateError>,
    translate_open: impl FnOnce() -> Result<(Vec<Var>, gq_algebra::AlgebraExpr), TranslateError>,
) -> Result<CompiledPlan, EngineError> {
    if closed {
        let plan = {
            let _span = span(tb, "translate");
            translate_closed()?
        };
        let _span = span(tb, "optimize");
        Ok(CompiledPlan::Boolean {
            plan: gq_algebra::optimize_bool(&plan),
        })
    } else {
        let (vars, plan) = {
            let _span = span(tb, "translate");
            translate_open()?
        };
        let _span = span(tb, "optimize");
        Ok(CompiledPlan::Algebra {
            vars,
            plan: gq_algebra::optimize(&plan),
        })
    }
}

/// Plan-depth guard over every algebra expression of a boolean plan.
fn check_bool_plan_depth(g: &Governor, plan: &gq_algebra::BoolExpr) -> Result<(), EngineError> {
    let depth = plan
        .algebra_exprs()
        .iter()
        .map(|e| e.depth())
        .max()
        .unwrap_or(0);
    g.check_depth("translate", Resource::PlanDepth, depth as u64)?;
    Ok(())
}

fn nullary(truth: bool) -> Relation {
    let mut r = Relation::intermediate(0);
    if truth {
        // Inserting the empty tuple into a 0-ary relation cannot fail.
        let _ = r.insert(Tuple::new(vec![]));
    }
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gq_storage::{tuple, Schema};

    fn engine() -> QueryEngine {
        let mut db = Database::new();
        db.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
            .unwrap();
        for v in [1, 2, 3] {
            db.insert("p", tuple![v]).unwrap();
        }
        db.insert("r", tuple![1, 10]).unwrap();
        db.insert("r", tuple![2, 20]).unwrap();
        QueryEngine::new(db)
    }

    #[test]
    fn open_query_all_strategies() {
        let e = engine();
        for s in Strategy::ALL {
            let r = e.query_with("p(x) & (exists y. r(x,y))", s).unwrap();
            assert_eq!(r.len(), 2, "strategy {}", s.name());
            assert_eq!(r.vars.len(), 1);
        }
    }

    #[test]
    fn closed_query_all_strategies() {
        let e = engine();
        for s in Strategy::ALL {
            let yes = e
                .query_with("exists x. p(x) & !(exists y. r(x,y))", s)
                .unwrap();
            assert!(yes.is_true(), "strategy {}", s.name()); // 3 has no r
            let no = e.query_with("exists x. p(x) & r(x,99)", s).unwrap();
            assert!(!no.is_true(), "strategy {}", s.name());
        }
    }

    #[test]
    fn stats_populated() {
        let e = engine();
        let r = e.query("p(x)").unwrap();
        assert!(r.stats.base_tuples_read >= 3);
        assert_eq!(r.stats.base_scans, 1);
    }

    #[test]
    fn parse_errors_surface() {
        let e = engine();
        assert!(matches!(e.query("p(x"), Err(EngineError::Parse(_))));
    }

    #[test]
    fn unrestricted_query_rejected() {
        let e = engine();
        assert!(matches!(e.query("!p(x)"), Err(EngineError::Translate(_))));
    }

    #[test]
    fn typed_insert_through_engine() {
        let e = engine();
        e.insert("p", tuple![4]).unwrap();
        assert_eq!(e.query("p(x)").unwrap().len(), 4);
    }

    /// A materialized view's body compiles exactly as a query does: the
    /// stored plan is the cost-ordered, optimized plan of `compile`.
    #[test]
    fn a_materialized_views_plan_is_the_plan_compile_gives_its_body() {
        let e = engine();
        for (name, body) in [
            ("joined", "p(x) & r(x,y)"),
            ("bare", "p(x) & !(exists y. r(x,y))"),
            ("some", "exists y. r(x,y) & p(x) & y > 5"),
            ("either", "p(x) & (r(x,10) | r(x,20))"),
        ] {
            e.define_materialized_view(name, body).unwrap();
            let snap = e.snapshot();
            let governor = e.start_governor(0, None, None, None);
            let (db, expanded) = e
                .preprocess(&snap, &parse(body).unwrap(), false, &governor, None)
                .unwrap();
            let compiled = e
                .compile(db, &expanded, Strategy::Improved, &governor, None)
                .unwrap();
            let CompiledPlan::Algebra { plan, .. } = compiled else {
                panic!("`{body}` is open");
            };
            let stored = snap
                .0
                .defs
                .units
                .iter()
                .flat_map(|u| u.members())
                .find(|m| m.name == name)
                .unwrap();
            assert_eq!(stored.plan, plan, "`{body}`");
        }
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn pinned_snapshot_survives_later_mutations() {
        let e = engine();
        let snap = e.snapshot();
        let epoch = snap.epoch();
        e.insert("p", tuple![77]).unwrap();
        // The pinned snapshot still shows the pre-mutation state…
        assert_eq!(snap.epoch(), epoch);
        assert!(!snap.relation("p").unwrap().contains(&tuple![77]));
        // …while a fresh snapshot (and queries) see the new state.
        let fresh = e.snapshot();
        assert!(fresh.epoch() > epoch);
        assert!(fresh.relation("p").unwrap().contains(&tuple![77]));
        assert_eq!(e.query("p(x)").unwrap().len(), 4);
    }

    #[test]
    fn failed_mutation_publishes_nothing() {
        let e = engine();
        let epoch = e.snapshot().epoch();
        assert!(e.insert("ghost", tuple![1]).is_err());
        assert_eq!(e.snapshot().epoch(), epoch, "failed insert republished");
    }

    #[test]
    fn typed_mutations_work_through_shared_references() {
        let e = engine();
        // &self mutations: usable through Arc<QueryEngine> (the server's
        // sharing mode) without any external lock.
        let shared = std::sync::Arc::new(e);
        shared
            .create_relation("s", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        shared.insert("s", tuple![1]).unwrap();
        shared.remove("s", &tuple![1]).unwrap();
        shared
            .define_view("v", "p(x) & (exists y. r(x,y))")
            .unwrap();
        assert_eq!(shared.query("v(x)").unwrap().len(), 2);
    }

    #[test]
    fn concurrent_readers_see_committed_epochs_only() {
        use std::sync::Arc;
        let e = Arc::new(engine());
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let e = Arc::clone(&e);
                    s.spawn(move || {
                        for _ in 0..50 {
                            // p starts with 3 tuples; each committed insert
                            // adds one. Any in-between count would mean a
                            // torn read.
                            let n = e.query("p(x)").unwrap().len();
                            assert!((3..=13).contains(&n), "torn count {n}");
                        }
                    })
                })
                .collect();
            for v in 100..110 {
                e.insert("p", tuple![v]).unwrap();
            }
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(e.query("p(x)").unwrap().len(), 13);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod strategy_tests {
    use super::*;
    use gq_storage::{tuple, Schema};

    fn engine() -> QueryEngine {
        let mut db = Database::new();
        db.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        db.create_relation("q", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
            .unwrap();
        for v in 0..10 {
            db.insert("p", tuple![v]).unwrap();
            if v % 2 == 0 {
                db.insert("q", tuple![v]).unwrap();
            }
            db.insert("r", tuple![v, (v * 3) % 10]).unwrap();
        }
        QueryEngine::new(db)
    }

    const QUERIES: &[&str] = &[
        "p(x) & !q(x)",
        "p(x) & (forall y. q(y) -> r(x,y))",
        "p(x) & (q(x) | (exists y. r(x,y) & q(y)))",
        "exists x. p(x) & !(exists y. r(x,y) & !q(y))",
    ];

    #[test]
    fn strategies_agree_on_answers() {
        let e = engine();
        for text in QUERIES {
            let baseline = e.query_with(text, Strategy::NestedLoop).unwrap();
            for strategy in [Strategy::Improved, Strategy::Classical] {
                let r = e.query_with(text, strategy).unwrap();
                assert!(
                    baseline.answers.set_eq(&r.answers),
                    "`{text}` under {}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn optimizer_reduces_classical_reads() {
        let e = engine();
        let text = "p(x) & (exists y. r(x,y) & q(y))";
        let snap = e.snapshot();
        let (_, plan) = ClassicalTranslator::new(&snap)
            .translate_open(&parse(text).unwrap())
            .unwrap();
        let ev = Evaluator::new(&snap);
        let raw_answers = ev.eval(&plan).unwrap();
        let raw = ev.stats();
        let opt = e.query_with(text, Strategy::Classical).unwrap();
        assert!(raw_answers.set_eq(&opt.answers));
        assert!(
            opt.stats.max_intermediate <= raw.max_intermediate,
            "optimizer should not grow intermediates: {} vs {}",
            opt.stats.max_intermediate,
            raw.max_intermediate
        );
    }

    #[test]
    fn domain_closure_enables_negation_only_queries() {
        let e = engine();
        let closed = |text| {
            e.run(&Request::text(text).with_domain_closure())
                .unwrap()
                .result
        };
        // ¬q(x) alone is unrestricted; under domain closure it ranges over
        // every database value (§2.1).
        let r = closed("!q(x)");
        // domain = {0..9}; q holds of evens → odds are the answers
        assert_eq!(r.len(), 5);
        // ∀x p(x) (no range) also works under closure: p holds of every
        // value 0..9, which is exactly the database domain here → true.
        let all_p = closed("forall x. p(x)");
        assert!(all_p.is_true());
        // A universal that genuinely fails: q only holds of the evens.
        let all_q = closed("forall x. q(x)");
        assert!(!all_q.is_true());
    }

    /// The domain is the snapshot's, computed when a request needs it:
    /// a write is in the next query's domain with no refresh, and `dom`
    /// names nothing outside domain closure.
    #[test]
    fn domain_closure_reads_the_snapshots_domain() {
        let e = engine();
        let negated = |e: &QueryEngine| {
            e.run(&Request::text("!p(x)").with_domain_closure())
                .unwrap()
                .result
                .answers
                .sorted_tuples()
        };
        assert!(negated(&e).is_empty());
        let before = e.snapshot();
        e.insert("q", tuple![42]).unwrap();
        assert_eq!(negated(&e), vec![tuple![42]]);
        assert_eq!(
            (before.domain().len(), e.snapshot().domain().len()),
            (10, 11)
        );
        assert!(matches!(
            e.query("dom(x)"),
            Err(EngineError::Translate(_) | EngineError::Storage(_))
        ));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod prepared_tests {
    use super::*;
    use gq_storage::{tuple, Schema};

    fn engine() -> QueryEngine {
        let mut db = Database::new();
        db.create_relation("p", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        db.create_relation("q", Schema::new(vec!["a"]).unwrap())
            .unwrap();
        db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
            .unwrap();
        for v in 0..8 {
            db.insert("p", tuple![v]).unwrap();
            if v % 2 == 0 {
                db.insert("q", tuple![v]).unwrap();
            }
            db.insert("r", tuple![v, (v * 3) % 8]).unwrap();
        }
        QueryEngine::new(db)
    }

    #[test]
    fn prepared_matches_adhoc_and_hits_cache() {
        let e = engine();
        let text = "p(x) & (forall y. q(y) -> r(x,y))";
        let adhoc = e.query(text).unwrap();
        let prepared = e.prepare(text, Strategy::Improved).unwrap();
        // prepare() compiled once: one miss, no hits yet.
        let s = e.plan_cache_stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 0, 1));
        for _ in 0..3 {
            let r = e.run(&Request::prepared(&prepared)).unwrap().result;
            assert!(adhoc.answers.set_eq(&r.answers));
            assert_eq!(adhoc.vars, r.vars);
        }
        let s = e.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (1, 3), "every execute was a hit");
    }

    #[test]
    fn unrelated_mutation_keeps_cached_plans_hot() {
        let e = engine();
        // The plan reads p and q only — r is not in its read set.
        let prepared = e.prepare("p(x) & !q(x)", Strategy::Improved).unwrap();
        e.run(&Request::prepared(&prepared)).unwrap();
        let s = e.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (1, 1));
        // Mutating r must NOT invalidate the plan (the old global-epoch
        // key evicted on any mutation anywhere — this pins the fix).
        e.insert("r", tuple![100, 200]).unwrap();
        e.run(&Request::prepared(&prepared)).unwrap();
        let s = e.plan_cache_stats();
        assert_eq!(
            (s.misses, s.hits),
            (1, 2),
            "an insert into an unread relation evicted the plan"
        );
        // Mutating a relation the plan DOES read recompiles exactly once.
        e.insert("q", tuple![7]).unwrap();
        e.run(&Request::prepared(&prepared)).unwrap();
        let s = e.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (2, 2));
    }

    #[test]
    fn cache_hit_skips_compilation_phases() {
        let e = engine();
        let prepared = e.prepare("p(x) & !q(x)", Strategy::Improved).unwrap();
        let trace = e
            .run(&Request::prepared(&prepared).with_trace())
            .unwrap()
            .trace
            .unwrap();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        // The hit goes straight to evaluation: no normalize / translate /
        // optimize spans appear in the trace.
        assert!(names.contains(&"evaluate"), "spans: {names:?}");
        for phase in ["normalize", "translate", "optimize"] {
            assert!(!names.contains(&phase), "{phase} ran on a hit: {names:?}");
        }
    }

    #[test]
    fn adhoc_queries_bypass_the_cache() {
        let e = engine();
        e.query("p(x) & !q(x)").unwrap();
        e.query("p(x) & !q(x)").unwrap();
        let s = e.plan_cache_stats();
        assert_eq!((s.entries, s.hits, s.misses), (0, 0, 0));
    }

    #[test]
    fn catalog_mutation_invalidates_cached_plans() {
        let e = engine();
        let prepared = e.prepare("p(x) & q(x)", Strategy::Improved).unwrap();
        let before = e.run(&Request::prepared(&prepared)).unwrap().result;
        e.insert("q", tuple![1]).unwrap(); // 1 was odd → not in q
        let after = e.run(&Request::prepared(&prepared)).unwrap().result;
        assert_eq!(after.len(), before.len() + 1, "stale plan served");
        let s = e.plan_cache_stats();
        // prepare + post-mutation execute each missed; the in-between
        // execute hit.
        assert_eq!((s.misses, s.hits), (2, 1), "stats: {s:?}");
    }

    #[test]
    fn an_unrelated_definition_keeps_a_prepared_plan_hot() {
        let e = engine();
        e.define_view("evens", "q(v)").unwrap();
        let prepared = e.prepare("p(x) & evens(x)", Strategy::Improved).unwrap();
        assert_eq!(
            e.run(&Request::prepared(&prepared)).unwrap().result.len(),
            4
        );
        // The key holds the expanded formula and the versions it reads;
        // a new definition changes neither.
        e.define_view("odds", "p(v) & !q(v)").unwrap();
        assert_eq!(
            e.run(&Request::prepared(&prepared)).unwrap().result.len(),
            4
        );
        let s = e.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (1, 2), "stats: {s:?}");
        // A query that names the new view compiles afresh.
        let odds = e.prepare("p(x) & odds(x)", Strategy::Improved).unwrap();
        assert_eq!(e.run(&Request::prepared(&odds)).unwrap().result.len(), 4);
        let s = e.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (2, 3), "stats: {s:?}");
    }

    #[test]
    fn alpha_equivalent_queries_share_one_entry() {
        let e = engine();
        let a = e
            .prepare("p(x) & (exists y. r(x,y) & q(y))", Strategy::Improved)
            .unwrap();
        let b = e
            .prepare("p(x) & (exists z. r(x,z) & q(z))", Strategy::Improved)
            .unwrap();
        let s = e.plan_cache_stats();
        assert_eq!((s.entries, s.misses, s.hits), (1, 1, 1), "stats: {s:?}");
        assert!(e
            .run(&Request::prepared(&a))
            .unwrap()
            .result
            .answers
            .set_eq(&e.run(&Request::prepared(&b)).unwrap().result.answers));
    }

    #[test]
    fn strategies_partition_the_cache() {
        let e = engine();
        let text = "p(x) & !q(x)";
        e.prepare(text, Strategy::Improved).unwrap();
        e.prepare(text, Strategy::Classical).unwrap();
        e.prepare(text, Strategy::Improved).unwrap();
        assert_eq!(e.plan_cache_stats().entries, 2);
    }

    #[test]
    fn prepared_all_strategies_match_adhoc() {
        let e = engine();
        let text = "exists x. p(x) & !(exists y. r(x,y) & !q(y))";
        for s in Strategy::ALL {
            let adhoc = e.query_with(text, s).unwrap();
            let prepared = e.prepare(text, s).unwrap();
            // twice: once compiling (prepare warmed it), once from cache
            for _ in 0..2 {
                let r = e.run(&Request::prepared(&prepared)).unwrap().result;
                assert_eq!(r.is_true(), adhoc.is_true(), "strategy {}", s.name());
            }
        }
    }

    #[test]
    fn capacity_bound_is_respected() {
        let e = engine().with_plan_cache_capacity(2);
        for text in ["p(x)", "q(x)", "p(x) & q(x)"] {
            e.prepare(text, Strategy::Improved).unwrap();
        }
        let s = e.plan_cache_stats();
        assert_eq!((s.entries, s.capacity, s.evictions), (2, 2, 1));
    }

    #[test]
    fn failed_prepare_caches_nothing() {
        let e = engine();
        assert!(e.prepare("!p(x)", Strategy::Improved).is_err()); // unrestricted
        assert!(e.prepare("p(x", Strategy::Improved).is_err()); // parse error
        let s = e.plan_cache_stats();
        assert_eq!(s.entries, 0, "failed compiles must not be cached");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod durable_tests {
    use super::*;
    use gq_storage::{tuple, Schema};

    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gq_engine_durable_{name}"));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn durable_engine_round_trips_through_reopen() {
        let dir = fresh_dir("round_trip");
        {
            let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
            assert!(rec.created_fresh);
            assert!(e.is_durable());
            e.create_relation("p", Schema::new(vec!["a"]).unwrap())
                .unwrap();
            for v in [1, 2, 3] {
                e.insert("p", tuple![v]).unwrap();
            }
            e.remove("p", &tuple![2]).unwrap();
            assert_eq!(e.query("p(x)").unwrap().len(), 2);
        }
        let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
        assert!(!rec.created_fresh);
        assert_eq!(rec.wal_records_replayed, 5);
        assert_eq!(e.query("p(x)").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_engine_has_no_durability() {
        let e = QueryEngine::new(Database::new());
        assert!(!e.is_durable());
        assert!(e.durability_stats().is_none());
        assert!(e.checkpoint().is_err());
    }

    #[test]
    fn durable_mutations_mirror_into_metrics() {
        let dir = fresh_dir("metrics");
        let (e, _) = QueryEngine::open_durable(&dir).unwrap();
        e.metrics().enable();
        e.create_relation("p", Schema::anonymous(1)).unwrap();
        e.insert("p", tuple![1]).unwrap();
        e.checkpoint().unwrap();
        let snap = e.metrics().snapshot();
        assert_eq!(snap.counters.get("durability.wal_appends"), Some(&2));
        assert_eq!(snap.counters.get("durability.checkpoints"), Some(&1));
        assert!(snap.counters.get("durability.fsyncs").copied().unwrap_or(0) >= 3);
        assert!(
            snap.counters
                .get("durability.wal_bytes")
                .copied()
                .unwrap_or(0)
                > 0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_epoch_invalidates_prepared_plans() {
        // A plan prepared before a crash must not be served against the
        // recovered catalog if the catalog changed: the recovered epoch
        // resumes past the WAL high-water mark, so the (epoch-keyed)
        // cache key can never collide with a pre-crash entry.
        let dir = fresh_dir("epoch_cache");
        let epoch_before;
        {
            let (e, _) = QueryEngine::open_durable(&dir).unwrap();
            e.create_relation("p", Schema::anonymous(1)).unwrap();
            e.insert("p", tuple![1]).unwrap();
            epoch_before = e.snapshot().epoch();
        }
        let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
        assert_eq!(rec.recovered_epoch, epoch_before);
        let prepared = e.prepare("p(x)", Strategy::Improved).unwrap();
        assert_eq!(
            e.run(&Request::prepared(&prepared)).unwrap().result.len(),
            1
        );
        e.insert("p", tuple![2]).unwrap();
        assert!(e.snapshot().epoch() > epoch_before);
        assert_eq!(
            e.run(&Request::prepared(&prepared)).unwrap().result.len(),
            2,
            "stale plan served"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_through_engine_preserves_queries() {
        let dir = fresh_dir("checkpoint");
        {
            let (e, _) = QueryEngine::open_durable(&dir).unwrap();
            e.create_relation("p", Schema::anonymous(1)).unwrap();
            e.insert("p", tuple![1]).unwrap();
            let ck = e.checkpoint().unwrap();
            assert_eq!(ck.generation, 2);
            e.insert("p", tuple![2]).unwrap();
        }
        let (e, rec) = QueryEngine::open_durable(&dir).unwrap();
        assert_eq!(rec.generation, 2);
        assert_eq!(rec.wal_records_replayed, 1);
        assert_eq!(e.query("p(x)").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
