//! Per-connection session state and request dispatch.
//!
//! A session is one framed TCP connection: each request frame carries
//! one REPL-style line, each reply frame one [`crate::protocol`]
//! payload. Sessions share the engine but own their strategy, options,
//! and resource limits — one hostile or greedy client cannot change
//! another session's knobs.
//!
//! Dispatch runs under `catch_unwind`: a panic inside the engine
//! becomes an `err panic:` reply and the session keeps serving. The
//! session's [`CancelToken`] is registered with the server so shutdown
//! (or a chaos kill) interrupts a long-running query mid-flight.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use gq_core::{EngineOptions, QueryEngine, Strategy};
use gq_governor::{CancelToken, QueryLimits, SharedBudget};
use gq_storage::{Schema, Tuple, Value};

use crate::admission::Admission;
use crate::protocol::{self, code};

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
            Err(_) => {
                return Outcome::Reply(protocol::err(code::PROTO, "request was not valid UTF-8"))
            }
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
            return Ok(engine.db().epoch().to_string());
        }
        if line == ".relations" {
            let db = engine.db();
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
            let (name, attrs) = parse_signature(rest)?;
            let schema = Schema::new(attrs).map_err(|e| engine_err(&e.into()))?;
            engine
                .create_relation(name, schema)
                .map_err(|e| engine_err(&e))?;
            return Ok("ok".into());
        }
        if let Some(rest) = line.strip_prefix(".insert ") {
            let (name, values) = parse_signature(rest)?;
            let tuple: Tuple = values.into_iter().map(parse_value).collect();
            let fresh = engine.insert(&name, tuple).map_err(|e| engine_err(&e))?;
            return Ok(if fresh {
                "inserted"
            } else {
                "duplicate (ignored)"
            }
            .into());
        }
        if let Some(rest) = line.strip_prefix(".remove ") {
            let (name, values) = parse_signature(rest)?;
            let tuple: Tuple = values.into_iter().map(parse_value).collect();
            let gone = engine.remove(&name, &tuple).map_err(|e| engine_err(&e))?;
            return Ok(if gone { "removed" } else { "not present" }.into());
        }
        if let Some(rest) = line.strip_prefix(".view ") {
            let rest = rest.trim();
            let Some((name, query)) = rest.split_once(' ') else {
                return Err(protocol::err(code::PROTO, "usage: .view name <query>"));
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
                other => {
                    return Err(protocol::err(
                        code::PROTO,
                        &format!("unknown strategy `{other}`"),
                    ))
                }
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
            let ms: u64 = rest.parse().map_err(|_| {
                protocol::err(
                    code::PROTO,
                    &format!("usage: .timeout <ms|off> (got `{rest}`)"),
                )
            })?;
            self.limits.deadline = Some(Duration::from_millis(ms));
            return Ok(format!("timeout: {ms}ms per query"));
        }
        if let Some(rest) = line.strip_prefix(".limits ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [which, value] = parts.as_slice() else {
                return Err(protocol::err(
                    code::PROTO,
                    "usage: .limits <output|rows|bytes> <n|off>",
                ));
            };
            let parsed = if *value == "off" {
                None
            } else {
                Some(value.parse::<u64>().map_err(|_| {
                    protocol::err(
                        code::PROTO,
                        &format!("usage: .limits <output|rows|bytes> <n|off> (got `{value}`)"),
                    )
                })?)
            };
            match *which {
                "output" => self.limits.max_output_tuples = parsed,
                "rows" => self.limits.max_intermediate_tuples = parsed,
                "bytes" => self.limits.max_memory_bytes = parsed,
                other => {
                    return Err(protocol::err(
                        code::PROTO,
                        &format!("unknown limit `{other}` (output | rows | bytes)"),
                    ))
                }
            }
            return Ok("ok".into());
        }
        if let Some(rest) = line.strip_prefix(".explain ") {
            return engine.explain(rest).map_err(|e| engine_err(&e));
        }
        if line.starts_with('.') {
            return Err(protocol::err(
                code::PROTO,
                &format!("unknown command `{line}`"),
            ));
        }
        // Anything else: a calculus query on this session's snapshot,
        // under this session's limits, charging the shared budget.
        let result = engine
            .query_session(
                line,
                self.strategy,
                EngineOptions::default(),
                self.limits,
                self.cancel.clone(),
                Some(self.budget.clone()),
            )
            .map_err(|e| engine_err(&e))?;
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

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Parse `name(a, b, c)` into the name and comma-separated parts
/// (mirrors the REPL's grammar so wire sessions and local sessions
/// accept identical syntax).
fn parse_signature(text: &str) -> Result<(String, Vec<String>), Vec<u8>> {
    let text = text.trim();
    let Some(open) = text.find('(') else {
        return Err(protocol::err(code::PROTO, "expected `name(…)`"));
    };
    if !text.ends_with(')') {
        return Err(protocol::err(code::PROTO, "expected closing `)`"));
    }
    let name = text[..open].trim().to_string();
    let inner = &text[open + 1..text.len() - 1];
    let parts: Vec<String> = if inner.trim().is_empty() {
        vec![]
    } else {
        inner.split(',').map(|s| s.trim().to_string()).collect()
    };
    Ok((name, parts))
}

/// `"quoted"` → string, digits → integer, bare word → string.
fn parse_value(text: String) -> Value {
    let t = text.trim();
    if let Some(stripped) = t.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        Value::str(stripped)
    } else if let Ok(n) = t.parse::<i64>() {
        Value::Int(n)
    } else {
        Value::str(t)
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
