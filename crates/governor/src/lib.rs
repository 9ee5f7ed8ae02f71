//! # gq-governor — query limits and cooperative cancellation
//!
//! The resource-governance layer threaded through every phase of the
//! pipeline. A [`QueryLimits`] describes the budgets a caller is willing
//! to grant a single query (wall-clock deadline, output/intermediate
//! tuple counts, an estimated memory budget, rewrite steps, formula and
//! plan depth). At query start the engine snapshots the limits into a
//! [`Governor`] — a cheap, clonable, thread-safe handle that the rewrite
//! engine, the translators, and the evaluators poll cooperatively:
//!
//! * at every rewrite-rule application,
//! * at every translation recursion step,
//! * at morsel dispatch boundaries in the parallel executor, and
//! * every N tuples in the sequential evaluation loops.
//!
//! Exceeding a budget unwinds cleanly as a [`GovernorError`] carrying the
//! offending phase (the gq-obs span names: `parse`, `view-expand`,
//! `normalize`, `translate`, `optimize`, `evaluate`) — never a panic.
//! Tuple-count limits are only enforced at coordinator points (never
//! inside individual workers), so a governed query errors bit-identically
//! at 1, 2, or 8 threads.
//!
//! ```
//! use gq_governor::{CancelToken, Governor, QueryLimits};
//! use std::time::Duration;
//!
//! let limits = QueryLimits::default().with_max_output_tuples(10);
//! let gov = Governor::start(limits, CancelToken::new());
//! assert!(gov.check("evaluate").is_ok());
//! assert!(gov.check_output("evaluate", 11).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many tuples a sequential loop may process between governor polls.
/// Parallel execution polls at every morsel boundary instead.
pub const DEFAULT_CHECK_INTERVAL: usize = 1024;

/// A shared cancellation flag. Cloning is cheap (an `Arc` bump); all
/// clones observe the same flag. Cancellation is cooperative: setting the
/// flag does not interrupt anything by itself, the pipeline polls it at
/// its check points and unwinds with [`GovernorError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Clear the flag so the token can govern another query.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Per-query resource budgets. `None` means unlimited; the default is
/// unlimited in every dimension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Wall-clock budget, measured from [`Governor::start`].
    pub deadline: Option<Duration>,
    /// Maximum number of tuples in the final answer.
    pub max_output_tuples: Option<u64>,
    /// Maximum number of materialized intermediate tuples (cumulative
    /// across all intermediate results of the query).
    pub max_intermediate_tuples: Option<u64>,
    /// Estimated memory budget for materialized intermediates, in bytes.
    pub max_memory_bytes: Option<u64>,
    /// Maximum number of rewrite-rule applications during normalization.
    pub max_rewrite_steps: Option<u64>,
    /// Maximum nesting depth of the (view-expanded) calculus formula.
    pub max_formula_depth: Option<u64>,
    /// Maximum operator nesting depth of the translated algebra plan.
    pub max_plan_depth: Option<u64>,
}

impl QueryLimits {
    /// No limits in any dimension (same as `Default`).
    pub const UNLIMITED: QueryLimits = QueryLimits {
        deadline: None,
        max_output_tuples: None,
        max_intermediate_tuples: None,
        max_memory_bytes: None,
        max_rewrite_steps: None,
        max_formula_depth: None,
        max_plan_depth: None,
    };

    /// True when every dimension is unlimited.
    pub fn is_unlimited(&self) -> bool {
        *self == QueryLimits::UNLIMITED
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the output-tuple budget.
    pub fn with_max_output_tuples(mut self, n: u64) -> Self {
        self.max_output_tuples = Some(n);
        self
    }

    /// Set the intermediate-tuple budget.
    pub fn with_max_intermediate_tuples(mut self, n: u64) -> Self {
        self.max_intermediate_tuples = Some(n);
        self
    }

    /// Set the estimated-memory budget in bytes.
    pub fn with_max_memory_bytes(mut self, n: u64) -> Self {
        self.max_memory_bytes = Some(n);
        self
    }

    /// Set the rewrite-step budget.
    pub fn with_max_rewrite_steps(mut self, n: u64) -> Self {
        self.max_rewrite_steps = Some(n);
        self
    }

    /// Set the formula-depth budget.
    pub fn with_max_formula_depth(mut self, n: u64) -> Self {
        self.max_formula_depth = Some(n);
        self
    }

    /// Set the plan-depth budget.
    pub fn with_max_plan_depth(mut self, n: u64) -> Self {
        self.max_plan_depth = Some(n);
        self
    }
}

/// The budgeted resource named in [`GovernorError::ResourceExhausted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// Final answer tuples ([`QueryLimits::max_output_tuples`]).
    OutputTuples,
    /// Materialized intermediate tuples
    /// ([`QueryLimits::max_intermediate_tuples`]).
    IntermediateTuples,
    /// Estimated bytes of materialized intermediates
    /// ([`QueryLimits::max_memory_bytes`]).
    MemoryBytes,
    /// Rewrite-rule applications ([`QueryLimits::max_rewrite_steps`]).
    RewriteSteps,
    /// Formula nesting depth ([`QueryLimits::max_formula_depth`]).
    FormulaDepth,
    /// Plan operator depth ([`QueryLimits::max_plan_depth`]).
    PlanDepth,
}

impl Resource {
    /// Stable lower-case name, e.g. for metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            Resource::OutputTuples => "output-tuples",
            Resource::IntermediateTuples => "intermediate-tuples",
            Resource::MemoryBytes => "memory-bytes",
            Resource::RewriteSteps => "rewrite-steps",
            Resource::FormulaDepth => "formula-depth",
            Resource::PlanDepth => "plan-depth",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A governance failure: the query was cancelled (explicitly or by
/// deadline), exhausted a resource budget, or a parallel worker panicked
/// and was contained. `phase` is the gq-obs span name of the pipeline
/// phase where the condition was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GovernorError {
    /// The cancel token fired or the deadline passed.
    Cancelled {
        /// Pipeline phase that observed the cancellation.
        phase: &'static str,
    },
    /// A resource budget was exceeded.
    ResourceExhausted {
        /// Pipeline phase that exceeded the budget.
        phase: &'static str,
        /// Which budget.
        resource: Resource,
        /// The configured limit.
        limit: u64,
        /// Usage observed when the budget tripped.
        used: u64,
    },
    /// A parallel worker panicked; the panic was contained with
    /// `catch_unwind` and converted into this structured error.
    WorkerPanic {
        /// Pipeline phase the worker was serving.
        phase: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl GovernorError {
    /// The pipeline phase attached to the error.
    pub fn phase(&self) -> &'static str {
        match self {
            GovernorError::Cancelled { phase }
            | GovernorError::ResourceExhausted { phase, .. }
            | GovernorError::WorkerPanic { phase, .. } => phase,
        }
    }
}

impl fmt::Display for GovernorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernorError::Cancelled { phase } => {
                write!(f, "query cancelled during {phase}")
            }
            GovernorError::ResourceExhausted {
                phase,
                resource,
                limit,
                used,
            } => write!(
                f,
                "resource budget exhausted during {phase}: {resource} used {used} > limit {limit}"
            ),
            GovernorError::WorkerPanic { phase, message } => {
                write!(f, "worker panicked during {phase}: {message}")
            }
        }
    }
}

impl std::error::Error for GovernorError {}

/// Observer invoked (synchronously, at the trip site) every time this
/// governor constructs a [`GovernorError`] — the flight-recorder bridge.
/// Keep it cheap and non-blocking; it runs on the query's thread.
pub type TripHook = Arc<dyn Fn(&GovernorError) + Send + Sync>;

/// An aggregate live-bytes gauge shared by many governors — the figure an
/// admission controller consults before letting another query in.
///
/// Every governor attached to the budget (via
/// [`Governor::start_shared`]) mirrors its per-query live-memory
/// accounting here: [`Governor::charge_intermediate`] adds,
/// [`Governor::release_memory`] subtracts, and whatever a query still
/// holds when its last governor handle drops is returned automatically —
/// an aborted query can never leak charged bytes into the gauge.
///
/// Cloning is cheap; all clones observe the same counters.
#[derive(Clone, Debug, Default)]
pub struct SharedBudget(Arc<SharedBudgetInner>);

#[derive(Debug, Default)]
struct SharedBudgetInner {
    live_bytes: AtomicU64,
    peak_live_bytes: AtomicU64,
}

impl SharedBudget {
    /// A fresh budget with zero live bytes.
    pub fn new() -> Self {
        SharedBudget::default()
    }

    /// Estimated intermediate bytes currently live across every attached
    /// governor.
    pub fn live_bytes(&self) -> u64 {
        self.0.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`SharedBudget::live_bytes`] since creation.
    pub fn peak_live_bytes(&self) -> u64 {
        self.0.peak_live_bytes.load(Ordering::Relaxed)
    }

    fn charge(&self, bytes: u64) {
        let total = self.0.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.0.peak_live_bytes.fetch_max(total, Ordering::Relaxed);
    }

    fn release(&self, bytes: u64) {
        let _ = self
            .0
            .live_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            });
    }
}

struct Inner {
    limits: QueryLimits,
    cancel: CancelToken,
    deadline: Option<Instant>,
    intermediate_tuples: AtomicU64,
    memory_bytes: AtomicU64,
    peak_memory_bytes: AtomicU64,
    hook: Option<TripHook>,
    shared: Option<SharedBudget>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Return whatever the query still holds to the aggregate gauge:
        // entry points release eagerly, but an abort mid-pipeline (or a
        // leaked buffer) must not pin admission-control headroom forever.
        if let Some(shared) = &self.shared {
            shared.release(*self.memory_bytes.get_mut());
        }
    }
}

/// A per-query governance handle: the limit snapshot, the shared cancel
/// token, the absolute deadline, and the running intermediate/memory
/// counters. Cloning is cheap and all clones share the counters, so the
/// handle can be passed to worker threads.
#[derive(Clone)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl Governor {
    /// Snapshot `limits` and start the clock: a relative
    /// [`QueryLimits::deadline`] becomes an absolute instant now.
    pub fn start(limits: QueryLimits, cancel: CancelToken) -> Self {
        Governor::start_hooked(limits, cancel, None)
    }

    /// Like [`Governor::start`], with an optional [`TripHook`] fired at
    /// every budget trip / cancellation / contained panic this governor
    /// reports. The engine uses this to journal trips with the query id
    /// and phase attached, so `EngineError::{Cancelled,
    /// ResourceExhausted, WorkerPanic}` stay attributable after the
    /// query is gone.
    pub fn start_hooked(limits: QueryLimits, cancel: CancelToken, hook: Option<TripHook>) -> Self {
        Governor::start_shared(limits, cancel, hook, None)
    }

    /// Like [`Governor::start_hooked`], additionally attaching the
    /// governor to a [`SharedBudget`]: every live-memory charge and
    /// release is mirrored into the aggregate gauge, and the remainder is
    /// returned when the query's last governor handle drops.
    pub fn start_shared(
        limits: QueryLimits,
        cancel: CancelToken,
        hook: Option<TripHook>,
        shared: Option<SharedBudget>,
    ) -> Self {
        let deadline = limits.deadline.map(|d| Instant::now() + d);
        Governor {
            inner: Arc::new(Inner {
                limits,
                cancel,
                deadline,
                intermediate_tuples: AtomicU64::new(0),
                memory_bytes: AtomicU64::new(0),
                peak_memory_bytes: AtomicU64::new(0),
                hook,
                shared,
            }),
        }
    }

    /// Route an error through the trip hook (if any) and return it.
    /// Public so executors that construct [`GovernorError::WorkerPanic`]
    /// themselves (panics are caught outside the governor) report
    /// through the same channel.
    pub fn trip(&self, err: GovernorError) -> GovernorError {
        if let Some(hook) = &self.inner.hook {
            hook(&err);
        }
        err
    }

    /// A governor with no limits and a private token — never trips unless
    /// someone cancels the token.
    pub fn unlimited() -> Self {
        Governor::start(QueryLimits::UNLIMITED, CancelToken::new())
    }

    /// The limit snapshot this governor enforces.
    pub fn limits(&self) -> &QueryLimits {
        &self.inner.limits
    }

    /// The shared cancel token.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// True when the token fired or the deadline has passed. One relaxed
    /// atomic load plus (only when a deadline is set) a clock read.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancel.is_cancelled() {
            return true;
        }
        match self.inner.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The cooperative check point: errors if cancelled or past deadline.
    pub fn check(&self, phase: &'static str) -> Result<(), GovernorError> {
        if self.is_cancelled() {
            Err(self.trip(GovernorError::Cancelled { phase }))
        } else {
            Ok(())
        }
    }

    /// Enforce the output-tuple budget against the current answer size.
    /// Call from coordinator points only (never from inside a worker) so
    /// the trip point is independent of the thread count.
    pub fn check_output(&self, phase: &'static str, emitted: u64) -> Result<(), GovernorError> {
        if let Some(limit) = self.inner.limits.max_output_tuples {
            if emitted > limit {
                return Err(self.trip(GovernorError::ResourceExhausted {
                    phase,
                    resource: Resource::OutputTuples,
                    limit,
                    used: emitted,
                }));
            }
        }
        Ok(())
    }

    /// Charge a freshly materialized intermediate result against the
    /// intermediate-tuple and memory budgets. The tuple budget is
    /// cumulative across the query; the memory budget is *live* — an
    /// executor that frees a build side calls
    /// [`Governor::release_memory`], so the budget tracks the watermark
    /// of simultaneously held bytes rather than total allocation. Call
    /// from coordinator points only.
    pub fn charge_intermediate(
        &self,
        phase: &'static str,
        tuples: u64,
        bytes: u64,
    ) -> Result<(), GovernorError> {
        let total_tuples = self
            .inner
            .intermediate_tuples
            .fetch_add(tuples, Ordering::Relaxed)
            + tuples;
        if let Some(limit) = self.inner.limits.max_intermediate_tuples {
            if total_tuples > limit {
                return Err(self.trip(GovernorError::ResourceExhausted {
                    phase,
                    resource: Resource::IntermediateTuples,
                    limit,
                    used: total_tuples,
                }));
            }
        }
        let total_bytes = self.inner.memory_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner
            .peak_memory_bytes
            .fetch_max(total_bytes, Ordering::Relaxed);
        if let Some(shared) = &self.inner.shared {
            shared.charge(bytes);
        }
        if let Some(limit) = self.inner.limits.max_memory_bytes {
            if total_bytes > limit {
                return Err(self.trip(GovernorError::ResourceExhausted {
                    phase,
                    resource: Resource::MemoryBytes,
                    limit,
                    used: total_bytes,
                }));
            }
        }
        Ok(())
    }

    /// Enforce a depth budget (formula or plan nesting).
    pub fn check_depth(
        &self,
        phase: &'static str,
        resource: Resource,
        depth: u64,
    ) -> Result<(), GovernorError> {
        let limit = match resource {
            Resource::FormulaDepth => self.inner.limits.max_formula_depth,
            Resource::PlanDepth => self.inner.limits.max_plan_depth,
            _ => None,
        };
        if let Some(limit) = limit {
            if depth > limit {
                return Err(self.trip(GovernorError::ResourceExhausted {
                    phase,
                    resource,
                    limit,
                    used: depth,
                }));
            }
        }
        Ok(())
    }

    /// The rewrite-step budget, if any.
    pub fn max_rewrite_steps(&self) -> Option<u64> {
        self.inner.limits.max_rewrite_steps
    }

    /// Release estimated bytes previously charged with
    /// [`Governor::charge_intermediate`] — an intermediate buffer was
    /// dropped, so the live figure shrinks (the peak watermark does not).
    /// Saturating: an over-release clamps at zero rather than wrapping.
    pub fn release_memory(&self, bytes: u64) {
        let prev = self
            .inner
            .memory_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            })
            .unwrap_or(0);
        if let Some(shared) = &self.inner.shared {
            // Mirror only what was actually subtracted so an over-release
            // clamped locally cannot drain other queries' shared charges.
            shared.release(prev.min(bytes));
        }
    }

    /// Intermediate tuples charged so far.
    pub fn intermediate_tuples(&self) -> u64 {
        self.inner.intermediate_tuples.load(Ordering::Relaxed)
    }

    /// Estimated intermediate bytes currently live (charged minus
    /// released).
    pub fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of live intermediate bytes over the query — the
    /// figure the slow-query log records as the memory watermark.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.inner.peak_memory_bytes.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Governor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Governor")
            .field("limits", &self.inner.limits)
            .field("cancelled", &self.is_cancelled())
            .field("intermediate_tuples", &self.intermediate_tuples())
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

/// A coarse per-tuple memory estimate used to charge
/// [`QueryLimits::max_memory_bytes`]: a fixed 48-byte charge per tuple
/// plus 32 bytes per column. The figures are a flat charge, not a
/// measured layout of the tuple type. Deliberately deterministic (no
/// allocator introspection) so budgets trip identically across runs and
/// thread counts.
pub fn estimate_tuple_bytes(arity: usize) -> u64 {
    48 + 32 * arity as u64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let g = Governor::unlimited();
        assert!(g.check("evaluate").is_ok());
        assert!(g.check_output("evaluate", u64::MAX).is_ok());
        assert!(g.charge_intermediate("evaluate", 1 << 40, 1 << 50).is_ok());
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let g = Governor::start(QueryLimits::default(), token.clone());
        assert!(g.check("parse").is_ok());
        token.cancel();
        assert_eq!(
            g.check("parse"),
            Err(GovernorError::Cancelled { phase: "parse" })
        );
        token.reset();
        assert!(g.check("parse").is_ok());
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Governor::start(
            QueryLimits::default().with_deadline(Duration::ZERO),
            CancelToken::new(),
        );
        assert!(matches!(
            g.check("evaluate"),
            Err(GovernorError::Cancelled { phase: "evaluate" })
        ));
    }

    #[test]
    fn output_limit_is_exact() {
        let g = Governor::start(
            QueryLimits::default().with_max_output_tuples(5),
            CancelToken::new(),
        );
        assert!(g.check_output("evaluate", 5).is_ok());
        let err = g.check_output("evaluate", 6).unwrap_err();
        assert_eq!(
            err,
            GovernorError::ResourceExhausted {
                phase: "evaluate",
                resource: Resource::OutputTuples,
                limit: 5,
                used: 6,
            }
        );
    }

    #[test]
    fn intermediate_charges_accumulate() {
        let g = Governor::start(
            QueryLimits::default().with_max_intermediate_tuples(10),
            CancelToken::new(),
        );
        assert!(g.charge_intermediate("evaluate", 6, 0).is_ok());
        assert!(g.charge_intermediate("evaluate", 4, 0).is_ok());
        assert!(g.charge_intermediate("evaluate", 1, 0).is_err());
        assert_eq!(g.intermediate_tuples(), 11);
    }

    #[test]
    fn memory_budget_trips() {
        let g = Governor::start(
            QueryLimits::default().with_max_memory_bytes(200),
            CancelToken::new(),
        );
        assert!(g
            .charge_intermediate("evaluate", 1, estimate_tuple_bytes(2))
            .is_ok());
        let err = g.charge_intermediate("evaluate", 1, 128).unwrap_err();
        assert!(matches!(
            err,
            GovernorError::ResourceExhausted {
                resource: Resource::MemoryBytes,
                ..
            }
        ));
    }

    #[test]
    fn release_makes_memory_budget_live_and_keeps_peak() {
        let g = Governor::start(
            QueryLimits::default().with_max_memory_bytes(200),
            CancelToken::new(),
        );
        assert!(g.charge_intermediate("evaluate", 1, 150).is_ok());
        g.release_memory(150);
        assert_eq!(g.memory_bytes(), 0, "released bytes no longer live");
        assert_eq!(g.peak_memory_bytes(), 150, "watermark survives release");
        // A second build fits again because the first was released —
        // live accounting, not cumulative.
        assert!(g.charge_intermediate("evaluate", 1, 180).is_ok());
        assert_eq!(g.peak_memory_bytes(), 180);
        // Over-release saturates at zero instead of wrapping.
        g.release_memory(u64::MAX);
        assert_eq!(g.memory_bytes(), 0);
    }

    #[test]
    fn depth_checks() {
        let g = Governor::start(
            QueryLimits::default()
                .with_max_formula_depth(3)
                .with_max_plan_depth(4),
            CancelToken::new(),
        );
        assert!(g.check_depth("parse", Resource::FormulaDepth, 3).is_ok());
        assert!(g.check_depth("parse", Resource::FormulaDepth, 4).is_err());
        assert!(g.check_depth("translate", Resource::PlanDepth, 4).is_ok());
        assert!(g.check_depth("translate", Resource::PlanDepth, 5).is_err());
        // Depths are unlimited when the limit is absent.
        let g = Governor::unlimited();
        assert!(g
            .check_depth("parse", Resource::FormulaDepth, u64::MAX)
            .is_ok());
    }

    #[test]
    fn trip_hook_sees_every_trip_with_phase() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let hook: TripHook = Arc::new(move |e: &GovernorError| {
            sink.lock().unwrap().push(format!("{}:{e}", e.phase()));
        });
        let token = CancelToken::new();
        let g = Governor::start_hooked(
            QueryLimits::default().with_max_output_tuples(1),
            token.clone(),
            Some(hook),
        );
        assert!(g.check("parse").is_ok());
        assert!(seen.lock().unwrap().is_empty(), "no trips, no hook calls");
        let _ = g.check_output("evaluate", 2);
        token.cancel();
        let _ = g.check("normalize");
        let trips = seen.lock().unwrap().clone();
        assert_eq!(trips.len(), 2);
        assert!(trips[0].starts_with("evaluate:"), "{trips:?}");
        assert!(trips[1].starts_with("normalize:"), "{trips:?}");
    }

    #[test]
    fn shared_budget_mirrors_charges_and_releases() {
        let budget = SharedBudget::new();
        let g1 = Governor::start_shared(
            QueryLimits::UNLIMITED,
            CancelToken::new(),
            None,
            Some(budget.clone()),
        );
        let g2 = Governor::start_shared(
            QueryLimits::UNLIMITED,
            CancelToken::new(),
            None,
            Some(budget.clone()),
        );
        g1.charge_intermediate("evaluate", 1, 100).unwrap();
        g2.charge_intermediate("evaluate", 1, 50).unwrap();
        assert_eq!(budget.live_bytes(), 150);
        assert_eq!(budget.peak_live_bytes(), 150);
        g1.release_memory(40);
        assert_eq!(budget.live_bytes(), 110);
        assert_eq!(budget.peak_live_bytes(), 150, "peak survives release");
        // Over-release clamps to what g2 actually held — g1's remaining
        // 60 bytes stay visible in the aggregate.
        g2.release_memory(u64::MAX);
        assert_eq!(budget.live_bytes(), 60);
    }

    #[test]
    fn shared_budget_reclaims_remainder_on_governor_drop() {
        let budget = SharedBudget::new();
        let g = Governor::start_shared(
            QueryLimits::UNLIMITED,
            CancelToken::new(),
            None,
            Some(budget.clone()),
        );
        let clone = g.clone();
        g.charge_intermediate("evaluate", 1, 500).unwrap();
        drop(g);
        assert_eq!(budget.live_bytes(), 500, "live while any handle is alive");
        drop(clone);
        assert_eq!(budget.live_bytes(), 0, "remainder returned on last drop");
        assert_eq!(budget.peak_live_bytes(), 500);
    }

    #[test]
    fn unattached_governor_leaves_shared_budget_alone() {
        let budget = SharedBudget::new();
        let g = Governor::unlimited();
        g.charge_intermediate("evaluate", 1, 500).unwrap();
        drop(g);
        assert_eq!(budget.live_bytes(), 0);
    }

    #[test]
    fn error_display_names_phase() {
        let e = GovernorError::ResourceExhausted {
            phase: "normalize",
            resource: Resource::RewriteSteps,
            limit: 10,
            used: 11,
        };
        let s = e.to_string();
        assert!(s.contains("normalize") && s.contains("rewrite-steps"));
        assert_eq!(e.phase(), "normalize");
    }
}
