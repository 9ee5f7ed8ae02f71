//! # gq-storage — in-memory relational storage substrate
//!
//! The storage layer underneath the reproduction of Bry (SIGMOD 1989),
//! *"Towards an Efficient Evaluation of General Queries"*: values, tuples,
//! schemas, set-semantics relations, hash indexes, and a catalog.
//!
//! Two details are specific to the paper:
//!
//! * [`Value`] includes the internal outer-join markers `∅` ([`Value::Null`])
//!   and `⊥` ([`Value::Matched`]) used by constrained outer-joins
//!   (Definition 7). User relations reject them at insert.
//! * [`Database::domain`] materializes the *database domain* of the Domain
//!   Closure Assumption (§2.1), the implicit range of otherwise-unrestricted
//!   negated variables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod catalog;
mod crc;
mod delta;
mod durable;
mod error;
mod fsutil;
mod index;
mod persist;
mod relation;
mod schema;
mod tuple;
mod value;
pub mod wal;

pub use catalog::Database;
pub use crc::crc32;
pub use delta::MutationDelta;
pub use durable::{CheckpointStats, DurabilityStats, DurableDatabase, RecoveryStats};
pub use error::StorageError;
pub use fsutil::fsyncs_issued;
pub use index::HashIndex;
pub use persist::{
    from_text, load, load_with_retry, save, save_with_retry, to_text, IoDomain, PersistError,
    RetryPolicy,
};
pub use relation::{unary, Iter as RelationIter, Relation};
pub use schema::Schema;
pub use tuple::Tuple;
pub use value::Value;
