//! The session: its own settings, and the one interpreter of the command
//! language.
//!
//! A session owns its strategy, resource limits, cancel token, shared
//! admission budget and prepared queries; it shares the engine, so one
//! client cannot change another session's knobs.
//! [`SessionState::execute`] runs one line — a command from [`COMMANDS`],
//! a calculus query, or a `with recursive` program — and both front ends
//! call it: the server per request frame (through
//! [`SessionState::dispatch`], under `catch_unwind`, so an engine panic
//! becomes an `err panic:` reply), the REPL per local line.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use gq_core::{
    explain_analyze, EngineError, PreparedQuery, QueryEngine, QueryResult, Request, Strategy,
};
use gq_governor::{CancelToken, QueryLimits, SharedBudget};
use gq_storage::{Schema, Tuple};

use crate::admission::Admission;
use crate::protocol::{self, code, parse_signature, parse_value};

/// Prepared names one session may hold; `.prepare` of one more new name
/// fails with `budget`.
pub const MAX_PREPARED: usize = 64;

/// Outcome of dispatching one request frame.
pub enum Outcome {
    /// Send this payload and keep the session open.
    Reply(Vec<u8>),
    /// Send this payload, then close the session (`.close`).
    Close(Vec<u8>),
}

/// A session's settings and prepared queries.
pub struct SessionState {
    strategy: Strategy,
    limits: QueryLimits,
    cancel: CancelToken,
    budget: SharedBudget,
    prepared: BTreeMap<String, PreparedQuery>,
}

/// A failed line: its wire error code and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandError {
    /// One of the stable [`protocol::code`] values.
    pub code: &'static str,
    /// What went wrong.
    pub message: String,
}

impl CommandError {
    fn proto(message: impl Into<String>) -> CommandError {
        CommandError {
            code: code::PROTO,
            message: message.into(),
        }
    }
}

impl From<EngineError> for CommandError {
    fn from(e: EngineError) -> CommandError {
        CommandError {
            code: protocol::code_for(&e),
            message: e.to_string(),
        }
    }
}

/// What a session command does.
#[derive(Clone, Copy)]
enum Cmd {
    Ping,
    Epoch,
    Relation,
    Insert,
    Remove,
    Relations,
    View,
    Views,
    Strategy,
    Timeout,
    Limits,
    Explain,
    Analyze,
    Prepare,
    Exec,
    Prepared,
}

/// Every session command — name, arguments, help line, what it does —
/// the table [`SessionState::execute`] looks each command word up in
/// and [`help`] renders. A row with an empty help line is an alias.
#[rustfmt::skip]
static COMMANDS: &[(&str, &str, &str, Cmd)] = &[
    (".ping", "", "liveness check: `pong`", Cmd::Ping),
    (".epoch", "", "the committed catalog epoch", Cmd::Epoch),
    (".relation", "name(attr, …)", "create a relation", Cmd::Relation),
    (".insert", "name(value, …)", "insert a tuple (strings quoted, ints bare)", Cmd::Insert),
    (".remove", "name(value, …)", "remove a tuple", Cmd::Remove),
    (".relations", "", "list relations", Cmd::Relations),
    (".view", "name <query>", "define a view (usable as an atom)", Cmd::View),
    (".views", "", "list views of every kind", Cmd::Views),
    (".strategy", "[s]", "show / set: improved | classical | nested-loop", Cmd::Strategy),
    (".timeout", "<ms|off>", "per-query deadline", Cmd::Timeout),
    (".limits", "[output|rows|bytes <n|off>]", "show / set resource budgets", Cmd::Limits),
    (".explain", "<query>", "show both processing phases", Cmd::Explain),
    (":analyze", "<query>", "execute + annotated plan (EXPLAIN ANALYZE)", Cmd::Analyze),
    (".analyze", "<query>", "", Cmd::Analyze),
    (".prepare", "name <query>", "compile once, cache the plan", Cmd::Prepare),
    (".exec", "name", "run a prepared query (plan-cache hit)", Cmd::Exec),
    (".prepared", "", "list this session's prepared queries", Cmd::Prepared),
];

/// The session's commands, one per line, rendered from [`COMMANDS`].
pub fn help() -> String {
    let mut out = String::new();
    for (name, args, help, _) in COMMANDS.iter().filter(|row| !row.2.is_empty()) {
        let _ = writeln!(out, "{:<35} {help}", format!("{name} {args}"));
    }
    out + "anything else                       evaluate as a calculus query\n\
           with recursive p(x, …) as (…) in q  define recursive views, run q"
}

/// A line starting with `.` or `:` is a command from [`COMMANDS`] and
/// the trimmed text after its word; anything else is a query (`None`).
fn command_of(line: &str) -> Result<Option<(Cmd, &str)>, CommandError> {
    if !line.starts_with(['.', ':']) {
        return Ok(None);
    }
    let (word, arg) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    match COMMANDS.iter().find(|row| row.0 == word) {
        Some(row) => Ok(Some((row.3, arg.trim()))),
        None => Err(CommandError::proto(format!("unknown command `{line}`"))),
    }
}

/// Does the (trimmed) `line` run a query — a query, a program, `.exec`
/// or `:analyze`? Those pass the server's per-request memory-watermark
/// gate.
fn runs_query(line: &str) -> bool {
    match command_of(line) {
        Ok(None) => !line.is_empty(),
        Ok(Some((cmd, _))) => matches!(cmd, Cmd::Exec | Cmd::Analyze),
        Err(_) => false,
    }
}

impl SessionState {
    /// Fresh state: the improved strategy, `limits`, and queries charged
    /// to `budget`, cancelled through `cancel`.
    pub fn new(limits: QueryLimits, cancel: CancelToken, budget: SharedBudget) -> SessionState {
        SessionState {
            strategy: Strategy::Improved,
            limits,
            cancel,
            budget,
            prepared: BTreeMap::new(),
        }
    }

    /// Run one line of the command language; `Ok` is the reply body.
    pub fn execute(&mut self, engine: &QueryEngine, line: &str) -> Result<String, CommandError> {
        let line = line.trim();
        let Some((cmd, arg)) = command_of(line)? else {
            if line.is_empty() {
                return Ok(String::new());
            }
            // A `with recursive` prelude registers its definitions as
            // recursive materialized views before the query runs.
            let input = if line.starts_with("with recursive") {
                Request::program(line)
            } else {
                Request::text(line)
            };
            let result = engine.run(&self.request(input))?.result;
            return Ok(render(&result, self.strategy));
        };
        let mut out = String::new();
        match cmd {
            Cmd::Ping => out.push_str("pong"),
            Cmd::Epoch => out = engine.snapshot().epoch().to_string(),
            Cmd::Relation => {
                let (name, attrs) = parse_signature(arg).map_err(CommandError::proto)?;
                engine.create_relation(name, Schema::new(attrs).map_err(EngineError::from)?)?;
                out.push_str("ok");
            }
            Cmd::Insert => {
                let (name, tuple) = parse_tuple(arg)?;
                let fresh = engine.insert(&name, tuple)?;
                out.push_str(if fresh {
                    "inserted"
                } else {
                    "duplicate (ignored)"
                });
            }
            Cmd::Remove => {
                let (name, tuple) = parse_tuple(arg)?;
                let gone = engine.remove(&name, &tuple)?;
                out.push_str(if gone { "removed" } else { "not present" });
            }
            Cmd::Relations => {
                for r in engine.snapshot().relations() {
                    let _ = writeln!(out, "{}{} — {} tuples", r.name(), r.schema(), r.len());
                }
            }
            Cmd::View => {
                let (name, query) = named(arg, "usage: .view name <query>")?;
                engine.define_view(name, query)?;
                out = format!("view `{name}` defined");
            }
            Cmd::Views => {
                for v in engine.snapshot().views() {
                    let params: Vec<&str> = v.params.iter().map(|p| p.name()).collect();
                    let (kind, name, body) = (v.kind.name(), v.name, v.body);
                    let _ = writeln!(out, "{kind} {name}({}) ≡ {body}", params.join(", "));
                }
            }
            Cmd::Strategy => {
                self.strategy = match arg {
                    "" => self.strategy,
                    "improved" => Strategy::Improved,
                    "classical" => Strategy::Classical,
                    "nested-loop" => Strategy::NestedLoop,
                    other => {
                        return Err(CommandError::proto(format!("unknown strategy `{other}`")))
                    }
                };
                out = format!("strategy: {}", self.strategy.name());
            }
            Cmd::Timeout => {
                let ms = off_or_number(arg, "usage: .timeout <ms|off>")?;
                self.limits.deadline = ms.map(Duration::from_millis);
                out = ms.map_or("timeout: off".into(), |ms| {
                    format!("timeout: {ms}ms per query")
                });
            }
            Cmd::Limits => {
                if !arg.is_empty() {
                    self.set_limit(arg)?;
                }
                out = render_limits(&self.limits);
            }
            Cmd::Explain => out = engine.explain(arg)?,
            Cmd::Analyze => {
                let response = engine.run(&self.request(Request::text(arg)).with_trace())?;
                // A traced request always returns its trace.
                if let Some(trace) = &response.trace {
                    out = explain_analyze(&response.result, trace);
                }
            }
            Cmd::Prepare => {
                let (name, query) = named(arg, "usage: .prepare name <query>")?;
                if self.prepared.len() >= MAX_PREPARED && !self.prepared.contains_key(name) {
                    return Err(CommandError {
                        code: code::BUDGET,
                        message: format!(
                            "a session holds at most {MAX_PREPARED} prepared queries \
                             (re-prepare an existing name instead)"
                        ),
                    });
                }
                let p = engine.prepare(query, self.strategy)?;
                out = format!("prepared `{name}` ({})", p.strategy().name());
                self.prepared.insert(name.to_string(), p);
            }
            Cmd::Exec => {
                let p = self.prepared.get(arg).ok_or_else(|| {
                    CommandError::proto(format!(
                        "no prepared query `{arg}` (.prepare name <query>)"
                    ))
                })?;
                let result = engine.run(&self.request(Request::prepared(p)))?.result;
                out = render(&result, p.strategy());
            }
            Cmd::Prepared => {
                for (name, p) in &self.prepared {
                    let _ = writeln!(out, "{name} [{}] ≡ {}", p.strategy().name(), p.text());
                }
            }
        }
        Ok(out)
    }

    /// Dispatch one request frame. Never panics: engine panics are
    /// caught and rendered as `err panic:` replies.
    pub fn dispatch(
        &mut self,
        engine: &QueryEngine,
        admission: &Admission,
        request: &[u8],
    ) -> Outcome {
        let Ok(line) = std::str::from_utf8(request) else {
            return Outcome::Reply(protocol::err(code::PROTO, "request was not valid UTF-8"));
        };
        let line = line.trim();
        if line == ".close" {
            return Outcome::Close(protocol::ok("bye"));
        }
        // Per-request backpressure: a session that keeps the server over
        // the memory watermark gets shed per-request, not killed.
        if let Some((live, max)) = admission.over_memory_watermark() {
            if runs_query(line) {
                return Outcome::Reply(protocol::overloaded(
                    admission.retry_after_ms(),
                    &format!("memory watermark exceeded ({live}/{max} live bytes)"),
                ));
            }
        }
        Outcome::Reply(
            match catch_unwind(AssertUnwindSafe(|| self.execute(engine, line))) {
                Ok(Ok(body)) => protocol::ok(&body),
                Ok(Err(e)) => protocol::err(e.code, &e.message),
                Err(panic) => protocol::err(
                    code::PANIC,
                    &format!("worker panicked: {}", panic_message(&panic)),
                ),
            },
        )
    }

    /// `input` under this session's strategy, limits, cancel token and
    /// shared budget.
    fn request<'a>(&self, input: Request<'a>) -> Request<'a> {
        input
            .with_strategy(self.strategy)
            .with_limits(self.limits)
            .with_cancel(self.cancel.clone())
            .with_budget(self.budget.clone())
    }

    /// `.limits <output|rows|bytes> <n|off>`.
    fn set_limit(&mut self, arg: &str) -> Result<(), CommandError> {
        const USAGE: &str = "usage: .limits [output|rows|bytes <n|off>]";
        let (which, value) = named(arg, USAGE)?;
        let slot = match which {
            "output" => &mut self.limits.max_output_tuples,
            "rows" => &mut self.limits.max_intermediate_tuples,
            "bytes" => &mut self.limits.max_memory_bytes,
            other => {
                let message = format!("unknown limit `{other}` (output | rows | bytes)");
                return Err(CommandError::proto(message));
            }
        };
        *slot = off_or_number(value, USAGE)?;
        Ok(())
    }
}

/// A closed query's truth value, or an open one's sorted tuples and its
/// count line.
fn render(result: &QueryResult, strategy: Strategy) -> String {
    if result.vars.is_empty() {
        return result.is_true().to_string();
    }
    let mut out = String::new();
    for t in result.answers.sorted_tuples() {
        let _ = writeln!(out, "{t}");
    }
    let (n, stats) = (result.len(), &result.stats);
    let _ = write!(
        out,
        "{n} answer{} ({}; reads={} comparisons={})",
        if n == 1 { "" } else { "s" },
        strategy.name(),
        stats.base_tuples_read,
        stats.comparisons,
    );
    out
}

fn render_limits(l: &QueryLimits) -> String {
    let show = |v: Option<u64>| v.map_or("off".into(), |n| n.to_string());
    let timeout = l.deadline.map(|d| d.as_millis() as u64);
    let rows = [
        (
            "timeout",
            timeout.map_or("off".into(), |ms| format!("{ms}ms")),
        ),
        ("output tuples", show(l.max_output_tuples)),
        ("intermediate rows", show(l.max_intermediate_tuples)),
        ("intermediate bytes", show(l.max_memory_bytes)),
        ("rewrite steps", show(l.max_rewrite_steps)),
        ("formula depth", show(l.max_formula_depth)),
        ("plan depth", show(l.max_plan_depth)),
    ];
    let rows: Vec<String> = rows.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    rows.join("\n")
}

fn parse_tuple(arg: &str) -> Result<(String, Tuple), CommandError> {
    let (name, values) = parse_signature(arg).map_err(CommandError::proto)?;
    Ok((name, values.iter().map(|v| parse_value(v)).collect()))
}

/// `name <rest>`, both non-empty.
fn named<'a>(arg: &'a str, usage: &str) -> Result<(&'a str, &'a str), CommandError> {
    let split = arg.split_once(char::is_whitespace);
    split
        .map(|(name, rest)| (name, rest.trim()))
        .ok_or_else(|| CommandError::proto(usage))
}

fn off_or_number(arg: &str, usage: &str) -> Result<Option<u64>, CommandError> {
    match arg {
        "off" => Ok(None),
        n => n
            .parse()
            .map(Some)
            .map_err(|_| CommandError::proto(format!("{usage} (got `{n}`)"))),
    }
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
        setup_with(AdmissionConfig::default())
    }

    fn setup_with(cfg: AdmissionConfig) -> (QueryEngine, Admission, SessionState) {
        let engine = QueryEngine::new(Database::new());
        let admission = Admission::new(cfg, Arc::new(Journal::default()));
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
        let r = reply(s.dispatch(&engine, &admission, b":frobnicate x"));
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

    #[test]
    fn every_query_running_line_passes_the_memory_gate() {
        let (engine, admission, mut s) = setup_with(AdmissionConfig {
            max_live_bytes: Some(0),
            ..AdmissionConfig::default()
        });
        let mut run = |line: &str| reply(s.dispatch(&engine, &admission, line.as_bytes()));
        assert!(run(".relation p(a)").ok);
        assert!(run(".insert p(1)").ok);
        assert!(run(".prepare q p(x)").ok);
        // Pre-charge the shared budget past the (zero) watermark.
        let governor = gq_governor::Governor::start_shared(
            QueryLimits::UNLIMITED,
            CancelToken::new(),
            None,
            Some(admission.budget()),
        );
        governor.charge_intermediate("probe", 10, 64).unwrap();
        for line in [
            "p(x)",
            "exists x. p(x)",
            ".exec q",
            ":analyze p(x)",
            ".analyze p(x)",
            "with recursive t(x) as (p(x)) in t(x)",
        ] {
            let r = run(line);
            assert_eq!(r.code, "overloaded", "{line}: {r:?}");
            assert!(r.retry_after_ms.is_some(), "{line}");
        }
        // Commands that run no query are still served.
        for (line, body) in [(".ping", "pong"), (".strategy", "strategy: improved")] {
            let r = run(line);
            assert!(r.ok, "{line}: {r:?}");
            assert_eq!(r.body, body);
        }
        assert!(run(".insert p(2)").ok);
    }

    #[test]
    fn prepared_names_are_capped_per_session() {
        let (engine, admission, mut s) = setup();
        let mut run = |line: &str| reply(s.dispatch(&engine, &admission, line.as_bytes()));
        assert!(run(".relation p(a)").ok);
        for i in 0..MAX_PREPARED {
            assert!(run(&format!(".prepare q{i} p(x)")).ok);
        }
        let r = run(".prepare one_more p(x)");
        assert_eq!(r.code, "budget", "{r:?}");
        // Re-preparing a held name is not a new one.
        assert!(run(".prepare q0 exists x. p(x)").ok);
        assert_eq!(run(".prepared").body.lines().count(), MAX_PREPARED);
    }

    #[test]
    fn help_lists_every_command_of_the_table() {
        let text = help();
        for &(name, _, row_help, _) in COMMANDS {
            // Aliases (no help line of their own) are matched, not listed.
            assert!(
                row_help.is_empty() || text.contains(name),
                "{name} missing from help"
            );
            assert!(
                matches!(command_of(name), Ok(Some(_))),
                "{name} not dispatched"
            );
        }
    }
}
