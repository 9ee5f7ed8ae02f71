//! Per-connection session state and request dispatch.
//!
//! A session is one framed TCP connection: each request frame carries
//! one REPL-style line, each reply frame one [`crate::protocol`]
//! payload. Sessions share the engine but own their strategy and
//! resource limits — one hostile or greedy client cannot change
//! another session's knobs.
//!
//! Dispatch runs under `catch_unwind`: a panic inside the engine
//! becomes an `err panic:` reply and the session keeps serving. The
//! session's [`CancelToken`] is registered with the server so shutdown
//! (or a chaos kill) interrupts a long-running query mid-flight.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use gq_core::{QueryEngine, Request, Strategy};
use gq_governor::{CancelToken, QueryLimits, SharedBudget};
use gq_storage::{Schema, Tuple};

use crate::admission::Admission;
use crate::protocol::{self, code, parse_signature, parse_value};

/// Outcome of dispatching one request frame.
pub enum Outcome {
    /// Send this payload and keep the session open.
    Reply(Vec<u8>),
    /// Send this payload, then close the session (`.close`).
    Close(Vec<u8>),
}

/// Mutable per-session knobs.
pub struct SessionState {
    strategy: Strategy,
    limits: QueryLimits,
    cancel: CancelToken,
    budget: SharedBudget,
}

impl SessionState {
    /// Fresh state with the server's default limits and the shared
    /// admission budget.
    pub fn new(limits: QueryLimits, cancel: CancelToken, budget: SharedBudget) -> SessionState {
        SessionState {
            strategy: Strategy::Improved,
            limits,
            cancel,
            budget,
        }
    }

    /// Dispatch one request line. Never panics: engine panics are
    /// caught and rendered as `err panic:` replies.
    pub fn dispatch(
        &mut self,
        engine: &QueryEngine,
        admission: &Admission,
        request: &[u8],
    ) -> Outcome {
        let line = match std::str::from_utf8(request) {
            Ok(l) => l.trim(),
            Err(_) => return Outcome::Reply(proto_err("request was not valid UTF-8")),
        };
        if line == ".close" {
            return Outcome::Close(protocol::ok("bye"));
        }
        // Per-request backpressure: a session that keeps the server over
        // the memory watermark gets shed per-request, not killed.
        if !line.starts_with('.') {
            if let Some((live, max)) = admission.over_memory_watermark() {
                return Outcome::Reply(protocol::overloaded(
                    admission.retry_after_ms(),
                    &format!("memory watermark exceeded ({live}/{max} live bytes)"),
                ));
            }
        }
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch_line(engine, line)));
        match result {
            Ok(Ok(body)) => Outcome::Reply(protocol::ok(&body)),
            Ok(Err(reply)) => Outcome::Reply(reply),
            Err(panic) => {
                let message = panic_message(&panic);
                Outcome::Reply(protocol::err(
                    code::PANIC,
                    &format!("worker panicked: {message}"),
                ))
            }
        }
    }

    /// The command interpreter proper. `Ok` is the success body, `Err`
    /// is a fully-rendered error payload.
    fn dispatch_line(&mut self, engine: &QueryEngine, line: &str) -> Result<String, Vec<u8>> {
        if line.is_empty() {
            return Ok(String::new());
        }
        if line == ".ping" {
            return Ok("pong".into());
        }
        if line == ".epoch" {
            return Ok(engine.snapshot().epoch().to_string());
        }
        if line == ".relations" {
            let db = engine.snapshot();
            let mut out = String::new();
            for r in db.relations() {
                out.push_str(&format!(
                    "{}{} — {} tuples\n",
                    r.name(),
                    r.schema(),
                    r.len()
                ));
            }
            return Ok(out);
        }
        if let Some(rest) = line.strip_prefix(".relation ") {
            let (name, attrs) = parse_signature(rest).map_err(proto_err)?;
            let schema = Schema::new(attrs).map_err(|e| engine_err(&e.into()))?;
            engine
                .create_relation(name, schema)
                .map_err(|e| engine_err(&e))?;
            return Ok("ok".into());
        }
        if let Some(rest) = line.strip_prefix(".insert ") {
            let (name, values) = parse_signature(rest).map_err(proto_err)?;
            let tuple: Tuple = values.iter().map(|v| parse_value(v)).collect();
            let fresh = engine.insert(&name, tuple).map_err(|e| engine_err(&e))?;
            return Ok(if fresh {
                "inserted"
            } else {
                "duplicate (ignored)"
            }
            .into());
        }
        if let Some(rest) = line.strip_prefix(".remove ") {
            let (name, values) = parse_signature(rest).map_err(proto_err)?;
            let tuple: Tuple = values.iter().map(|v| parse_value(v)).collect();
            let gone = engine.remove(&name, &tuple).map_err(|e| engine_err(&e))?;
            return Ok(if gone { "removed" } else { "not present" }.into());
        }
        if let Some(rest) = line.strip_prefix(".view ") {
            let rest = rest.trim();
            let Some((name, query)) = rest.split_once(' ') else {
                return Err(proto_err("usage: .view name <query>"));
            };
            engine
                .define_view(name, query.trim())
                .map_err(|e| engine_err(&e))?;
            return Ok(format!("view `{name}` defined"));
        }
        if line == ".views" {
            let mut out = String::new();
            for v in engine.views().views() {
                let params: Vec<&str> = v.params.iter().map(|p| p.name()).collect();
                out.push_str(&format!("{}({}) ≡ {}\n", v.name, params.join(", "), v.body));
            }
            return Ok(out);
        }
        if let Some(rest) = line.strip_prefix(".strategy ") {
            self.strategy = match rest.trim() {
                "improved" => Strategy::Improved,
                "classical" => Strategy::Classical,
                "nested-loop" => Strategy::NestedLoop,
                other => return Err(proto_err(&format!("unknown strategy `{other}`"))),
            };
            return Ok(format!("strategy: {}", self.strategy.name()));
        }
        if line == ".strategy" {
            return Ok(format!("strategy: {}", self.strategy.name()));
        }
        if let Some(rest) = line.strip_prefix(".timeout ") {
            let rest = rest.trim();
            if rest == "off" {
                self.limits.deadline = None;
                return Ok("timeout: off".into());
            }
            let ms: u64 = rest
                .parse()
                .map_err(|_| proto_err(&format!("usage: .timeout <ms|off> (got `{rest}`)")))?;
            self.limits.deadline = Some(Duration::from_millis(ms));
            return Ok(format!("timeout: {ms}ms per query"));
        }
        if let Some(rest) = line.strip_prefix(".limits ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [which, value] = parts.as_slice() else {
                return Err(proto_err("usage: .limits <output|rows|bytes> <n|off>"));
            };
            let parsed = if *value == "off" {
                None
            } else {
                Some(value.parse::<u64>().map_err(|_| {
                    proto_err(&format!(
                        "usage: .limits <output|rows|bytes> <n|off> (got `{value}`)"
                    ))
                })?)
            };
            match *which {
                "output" => self.limits.max_output_tuples = parsed,
                "rows" => self.limits.max_intermediate_tuples = parsed,
                "bytes" => self.limits.max_memory_bytes = parsed,
                other => {
                    return Err(proto_err(&format!(
                        "unknown limit `{other}` (output | rows | bytes)"
                    )))
                }
            }
            return Ok("ok".into());
        }
        if let Some(rest) = line.strip_prefix(".explain ") {
            return engine.explain(rest).map_err(|e| engine_err(&e));
        }
        if line.starts_with('.') {
            return Err(proto_err(&format!("unknown command `{line}`")));
        }
        // Anything else: a calculus query on this session's snapshot,
        // under this session's limits, charging the shared budget.
        let request = Request::text(line)
            .with_strategy(self.strategy)
            .with_limits(self.limits)
            .with_cancel(self.cancel.clone())
            .with_budget(self.budget.clone());
        let result = engine.run(&request).map_err(|e| engine_err(&e))?.result;
        if result.vars.is_empty() {
            return Ok(result.is_true().to_string());
        }
        let mut out = String::new();
        for t in result.answers.sorted_tuples() {
            out.push_str(&format!("{t}\n"));
        }
        out.push_str(&format!(
            "{} answer{} ({}; reads={} comparisons={})",
            result.len(),
            if result.len() == 1 { "" } else { "s" },
            self.strategy.name(),
            result.stats.base_tuples_read,
            result.stats.comparisons,
        ));
        Ok(out)
    }
}

fn engine_err(e: &gq_core::EngineError) -> Vec<u8> {
    protocol::err(protocol::code_for(e), &e.to_string())
}

fn proto_err(message: &str) -> Vec<u8> {
    protocol::err(code::PROTO, message)
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::protocol::Reply;
    use gq_obs::Journal;
    use gq_storage::Database;
    use std::sync::Arc;

    fn setup() -> (QueryEngine, Admission, SessionState) {
        let engine = QueryEngine::new(Database::new());
        let admission = Admission::new(AdmissionConfig::default(), Arc::new(Journal::default()));
        let state = SessionState::new(
            QueryLimits::UNLIMITED,
            CancelToken::new(),
            admission.budget(),
        );
        (engine, admission, state)
    }

    fn reply(out: Outcome) -> Reply {
        match out {
            Outcome::Reply(p) | Outcome::Close(p) => Reply::parse(&p),
        }
    }

    #[test]
    fn ddl_insert_query_roundtrip() {
        let (engine, admission, mut s) = setup();
        let run = |s: &mut SessionState, line: &str| {
            reply(s.dispatch(&engine, &admission, line.as_bytes()))
        };
        assert!(run(&mut s, ".relation student(name)").ok);
        assert!(run(&mut s, ".insert student(\"ann\")").ok);
        assert!(run(&mut s, ".insert student(\"bob\")").ok);
        let r = run(&mut s, "exists x. student(x)");
        assert!(r.ok, "{}", r.body);
        assert_eq!(r.body, "true");
        let r = run(&mut s, "student(x)");
        assert!(r.ok);
        assert!(r.body.contains("2 answers"), "{}", r.body);
    }

    #[test]
    fn parse_failures_are_structured_not_fatal() {
        let (engine, admission, mut s) = setup();
        let r = reply(s.dispatch(&engine, &admission, b"exists x. ((("));
        assert!(!r.ok);
        assert_eq!(r.code, "parse");
        // Session still works afterwards.
        let r = reply(s.dispatch(&engine, &admission, b".ping"));
        assert!(r.ok);
        assert_eq!(r.body, "pong");
    }

    #[test]
    fn non_utf8_and_unknown_commands_are_proto_errors() {
        let (engine, admission, mut s) = setup();
        let r = reply(s.dispatch(&engine, &admission, &[0xff, 0xfe]));
        assert_eq!(r.code, "proto");
        let r = reply(s.dispatch(&engine, &admission, b".frobnicate"));
        assert_eq!(r.code, "proto");
    }

    #[test]
    fn close_ends_the_session() {
        let (engine, admission, mut s) = setup();
        match s.dispatch(&engine, &admission, b".close") {
            Outcome::Close(p) => assert!(Reply::parse(&p).ok),
            Outcome::Reply(_) => panic!("expected Close"),
        }
    }
}
