//! What a query is: the [`Request`] handed to
//! [`QueryEngine::run`](crate::QueryEngine::run) — its input, strategy,
//! domain-closure bit, trace switch and session controls — and the
//! [`Response`] it returns.

use crate::{QueryResult, Strategy};
use gq_calculus::Formula;
use gq_governor::{CancelToken, QueryLimits, SharedBudget};
use gq_obs::QueryTrace;

/// A parsed query bound to a strategy, executable repeatedly
/// as [`Request::prepared`] through the engine's plan cache.
///
/// Holds no borrow of the engine, so the database can be mutated between
/// executions — the catalog epoch in the cache key makes the next
/// execution recompile against the new catalog automatically.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(crate) text: String,
    pub(crate) formula: Formula,
    pub(crate) strategy: Strategy,
}

impl PreparedQuery {
    /// The original query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The strategy this query was prepared for.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

/// What a [`Request`] runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Input<'a> {
    /// Calculus text, parsed by the run.
    Text(&'a str),
    /// An already-parsed formula.
    Formula(&'a Formula),
    /// A handle from [`QueryEngine::prepare`](crate::QueryEngine::prepare).
    Prepared(&'a PreparedQuery),
    /// A `with recursive` program.
    Program(&'a str),
}

/// One query for [`QueryEngine::run`](crate::QueryEngine::run): the
/// input, how to evaluate it, whether to trace it, and the session
/// controls it runs under. Limits, cancel token and shared budget default
/// to the engine's own.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    pub(crate) input: Input<'a>,
    pub(crate) strategy: Strategy,
    pub(crate) domain_closure: bool,
    pub(crate) trace: bool,
    pub(crate) limits: Option<QueryLimits>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) budget: Option<SharedBudget>,
}

impl<'a> Request<'a> {
    fn of(input: Input<'a>) -> Self {
        Request {
            input,
            strategy: Strategy::Improved,
            domain_closure: false,
            trace: false,
            limits: None,
            cancel: None,
            budget: None,
        }
    }

    /// Calculus text under the improved strategy.
    pub fn text(text: &'a str) -> Self {
        Self::of(Input::Text(text))
    }

    /// An already-parsed formula.
    pub fn formula(formula: &'a Formula) -> Self {
        Self::of(Input::Formula(formula))
    }

    /// A prepared query, under the strategy it was prepared for, compiled
    /// through the plan cache: a hit skips normalize, translate and
    /// optimize.
    pub fn prepared(prepared: &'a PreparedQuery) -> Self {
        Request {
            strategy: prepared.strategy,
            ..Self::of(Input::Prepared(prepared))
        }
    }

    /// A `with recursive name(params) as (body), … in query` program:
    /// the definitions are registered as recursive materialized views
    /// (see [`QueryEngine::define_recursive`](crate::QueryEngine::define_recursive);
    /// a name already defined errors with `Duplicate`) under this
    /// request's limits, cancel token and budget, then the trailing query
    /// runs. Text without the prelude is just a query.
    pub fn program(text: &'a str) -> Self {
        Self::of(Input::Program(text))
    }

    /// Evaluate under `strategy`.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Apply the Domain Closure Assumption (§2.1): quantified or free
    /// variables without a covering range get an explicit `dom(x)` range.
    /// `dom` is the domain of the request's pinned snapshot — every value
    /// of its base relations ([`Snapshot::domain`](crate::Snapshot::domain)),
    /// computed at most once per snapshot and never stored. The query
    /// itself may name `dom` too; without domain closure it names
    /// nothing.
    pub fn with_domain_closure(mut self) -> Self {
        self.domain_closure = true;
        self
    }

    /// Return a [`QueryTrace`]: phase spans, rewrite and plan-shape
    /// counters, and the annotated per-node plan of the run.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Run under these budgets instead of the engine's.
    pub fn with_limits(mut self, limits: QueryLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Run under this cancel token instead of the engine's, so one
    /// session's cancel never aborts another's query.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Charge the run's live intermediate bytes to a process-wide
    /// admission budget.
    pub fn with_budget(mut self, budget: SharedBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// How the run is named in the journal, the slow log and its trace:
    /// the text when the request has one, the formula's rendering when
    /// not. Rendered lazily — only when a record is actually written.
    pub(crate) fn label<'s>(&'s self, formula: &'s Formula) -> impl std::fmt::Display + 's {
        std::fmt::from_fn(move |f| match self.input {
            Input::Text(text) | Input::Program(text) => f.write_str(text),
            Input::Prepared(p) => f.write_str(&p.text),
            Input::Formula(_) => write!(f, "{formula}"),
        })
    }
}

/// What [`QueryEngine::run`](crate::QueryEngine::run) returns: the
/// result, and the trace when the request asked for one.
#[derive(Debug, Clone)]
pub struct Response {
    /// Answers and operation counts.
    pub result: QueryResult,
    /// Present iff the request was [`Request::with_trace`].
    pub trace: Option<QueryTrace>,
}
