//! # gq-core — the query engine facade
//!
//! Ties the reproduction together: parse (gq-calculus) → normalize into
//! canonical form (gq-rewrite, §2) → translate (gq-translate, §3) →
//! evaluate (gq-algebra / gq-pipeline).
//!
//! * [`QueryEngine`] evaluates queries under a chosen [`Strategy`]
//!   (the paper's improved method, the classical Codd-style baseline, or
//!   the Fig. 1 nested-loop baseline) and reports [`QueryResult`]s with
//!   operation counts. Every query — text, formula, prepared handle or
//!   `with recursive` program, traced or not, under the engine's limits
//!   or a session's — is one [`Request`] to [`QueryEngine::run`].
//! * [`QueryEngine::explain`] renders both processing phases for a query;
//!   [`explain_analyze`] renders what a traced run did.
//! * [`ConstraintSet`] checks general integrity constraints — the paper's
//!   motivating application — reporting violation witnesses.
//!
//! ```
//! use gq_core::{QueryEngine, Strategy};
//! use gq_storage::{tuple, Database, Schema};
//!
//! let mut db = Database::new();
//! db.create_relation("student", Schema::new(vec!["name"])?)?;
//! db.create_relation("attends", Schema::new(vec!["student", "lecture"])?)?;
//! db.insert("student", tuple!["ann"])?;
//! db.insert("student", tuple!["bob"])?;
//! db.insert("attends", tuple!["ann", "db"])?;
//! db.insert("attends", tuple!["ann", "os"])?;
//! db.insert("attends", tuple!["bob", "db"])?;
//!
//! let engine = QueryEngine::new(db);
//!
//! // Who attends every lecture that bob attends? (∀ without division —
//! // Proposition 4 case 4.)
//! let result = engine.query(
//!     "student(x) & !(exists y. attends(\"bob\",y) & !attends(x,y))",
//! )?;
//! assert_eq!(result.len(), 2); // ann and bob
//!
//! // The three strategies agree:
//! for s in Strategy::ALL {
//!     let r = engine.query_with("exists x. student(x) & attends(x,\"os\")", s)?;
//!     assert!(r.is_true());
//! }
//! # Ok::<(), gq_core::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod constraints;
mod engine;
mod error;
mod explain;
mod ivm;
mod plan_cache;
mod request;
mod views;

pub use constraints::{Constraint, ConstraintReport, ConstraintSet};
pub use engine::{QueryEngine, QueryResult, Snapshot, Strategy};
pub use error::EngineError;
pub use explain::explain_analyze;
pub use gq_algebra::ExecConfig;
pub use gq_calculus::{parse_program, Program, RecursiveDef};
pub use gq_governor::{CancelToken, GovernorError, QueryLimits, Resource, SharedBudget};
pub use gq_obs::{
    Event, EventKind, Journal, MetricsSnapshot, QueryTrace, SlowLog, SlowLogEntry, WindowStats,
};
pub use plan_cache::{PlanCacheStats, DEFAULT_PLAN_CACHE_CAPACITY};
pub use request::{PreparedQuery, Request, Response};
pub use views::{View, ViewError, ViewKind};
