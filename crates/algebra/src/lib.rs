//! # gq-algebra — the paper's extended relational algebra
//!
//! Operators and a pipelined evaluator for the relational algebra of Bry
//! (SIGMOD 1989), including the paper's two new operators:
//!
//! * the **complement-join** ([`AlgebraExpr::ComplementJoin`], Definition 6)
//!   — `P ⊼ Q`, the P-tuples with no join partner in Q, generalizing set
//!   difference (Proposition 3);
//! * the **constrained outer-join**
//!   ([`AlgebraExpr::ConstrainedOuterJoin`], Definition 7) — a
//!   marker-producing unidirectional outer-join that skips probing for
//!   tuples already decided by earlier disjuncts (Proposition 5);
//!
//! plus the **non-emptiness test** with boolean connectives ([`BoolExpr`],
//! §3.2) for closed queries, and [`ExecStats`] instrumentation backing the
//! paper's operation-count claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod boolean;
mod delta;
mod equalities;
mod error;
mod estimate;
mod eval;
mod expr;
mod optimize;
mod parallel;
mod profile;
mod push;
mod stats;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod eval_tests;
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod outerjoin_laws;
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod prop3_tests;

pub use boolean::BoolExpr;
pub use delta::{
    delta_database, delta_database_lazy, delta_plan, materialize_old, minus_name, old_name,
    patch_extent, plus_name, referenced_old_names, rename_old, DeltaPlan,
};
pub use error::AlgebraError;
pub use estimate::estimate;
pub use eval::{arity_of, eval_predicate, Evaluator, PipelineBreak, PipelineEvent, PipelineHook};
pub use expr::{AlgebraExpr, Constraint, JoinOn, Operand, Predicate};
pub use optimize::{optimize, optimize_bool};
pub use parallel::{ExecConfig, DEFAULT_MORSEL_SIZE};
pub use profile::PlanProfiler;
pub use stats::{ExecStats, WorkerStats};
