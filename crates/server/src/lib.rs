//! A hardened TCP front-end for the general-queries engine.
//!
//! The engine itself ([`gq_core::QueryEngine`]) is `Sync`: readers run
//! against immutable MVCC snapshots while writers serialize through the
//! store's single commit point. This crate puts a wire in front of it:
//!
//! * **Framing** ([`frame`]) — 4-byte big-endian length prefix, hard
//!   payload cap, whole-frame read deadlines. The decoder is pure and
//!   total over arbitrary byte soup (property-fuzzed).
//! * **Protocol** ([`protocol`]) — REPL-style request lines, `ok\n…` /
//!   `err <code>: …` replies with a stable error-code vocabulary.
//! * **Sessions** ([`session`]) — per-connection strategy, resource
//!   limits and prepared queries, and the one interpreter of the command
//!   language ([`SessionState::execute`]), which the REPL runs too;
//!   dispatch runs under `catch_unwind` so an engine panic degrades to an
//!   `err panic:` reply, not a dead server.
//! * **Admission** ([`admission`]) — a global gate over live sessions
//!   and aggregate query memory; shed connections get a structured
//!   `overloaded` reply with a retry-after hint.
//! * **Serving** ([`server`]) — acceptor + bounded queue + worker pool,
//!   cancel-token-driven shutdown, every decision journaled.
//! * **Client** ([`client`]) — a small blocking client for the REPL's
//!   `.connect` mode, benches, and tests.
//!
//! Everything is `std`-only; with the `chaos` feature the session loop
//! consults [`gq_chaos`] between frames so the connection-level fault
//! matrix (drops, torn frames, slow-loris) runs deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod protocol;
pub mod server;
pub mod session;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, Shed};
pub use client::{Client, ClientError};
pub use frame::{FrameError, DEFAULT_MAX_FRAME_BYTES, HEADER_LEN};
pub use protocol::Reply;
pub use server::{Server, ServerConfig, ServerStats};
pub use session::{CommandError, SessionState};
