//! One command language: a single script runs through
//! `SessionState::execute` on an in-process engine (what the REPL runs)
//! and through `Client` → `Server` on an identical engine. Every line
//! must give the same `(ok, code, body)` on both paths, and the body or
//! error code the script expects.
//!
//! `GQ_TEST_THREADS` (CI sweeps 1/2/8) pins the engine thread count.

use std::sync::Arc;

use gq_core::{ExecConfig, QueryEngine, SharedBudget};
use gq_server::{Client, Server, ServerConfig, SessionState};
use gq_storage::Database;

fn thread_counts() -> Vec<usize> {
    match std::env::var("GQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 2, 8],
    }
}

/// What a script line must answer.
enum Expect {
    /// Success with exactly this body.
    Body(&'static str),
    /// Success with a body containing this text (bodies with timings).
    Contains(&'static str),
    /// Failure with this error code.
    Error(&'static str),
}

use Expect::{Body, Contains, Error};

const LIMITS_OFF: &str = "timeout: off\noutput tuples: off\nintermediate rows: off\n\
                          intermediate bytes: off\nrewrite steps: off\nformula depth: off\n\
                          plan depth: off";

const SCRIPT: &[(&str, Expect)] = &[
    (".ping", Body("pong")),
    (".epoch", Body("0")),
    // DDL and writes, a quoted comma among them.
    (".relation student(name)", Body("ok")),
    (".relation attends(student, lecture)", Body("ok")),
    (".relation edge(src, dst)", Body("ok")),
    (".relation student(again)", Error("error")),
    (".relation broken", Error("proto")),
    (".insert student(\"ann\")", Body("inserted")),
    (".insert student(\"bob\")", Body("inserted")),
    (".insert student(\"ann\")", Body("duplicate (ignored)")),
    (".insert student(\"c,d\")", Body("inserted")),
    (".insert attends(\"ann\", \"db\")", Body("inserted")),
    (".insert attends(\"c,d\", \"db\")", Body("inserted")),
    (".insert attends(\"bob\", \"ai\")", Body("inserted")),
    (".remove attends(\"bob\", \"ai\")", Body("removed")),
    (".remove attends(\"bob\", \"ai\")", Body("not present")),
    (".insert nosuch(1)", Error("error")),
    (".insert edge(1, 2)", Body("inserted")),
    (".insert edge(2, 3)", Body("inserted")),
    (".insert edge(3, 4)", Body("inserted")),
    (".epoch", Body("15")),
    (
        ".relations",
        Body(
            "attends(student, lecture) — 2 tuples\n\
             edge(src, dst) — 3 tuples\n\
             student(name) — 3 tuples\n",
        ),
    ),
    // Open and closed queries under each strategy.
    (
        "student(x) & !(exists y. attends(x,y))",
        Body("(bob)\n1 answer (improved; reads=5 comparisons=3)"),
    ),
    ("exists x. attends(x, \"db\")", Body("true")),
    ("exists x. attends(x, \"ai\")", Body("false")),
    (".strategy", Body("strategy: improved")),
    (".strategy classical", Body("strategy: classical")),
    (
        "student(x) & !(exists y. attends(x,y))",
        Body("(bob)\n1 answer (classical; reads=24 comparisons=118)"),
    ),
    (".strategy nested-loop", Body("strategy: nested-loop")),
    ("exists x. student(x) & !attends(x, \"db\")", Body("true")),
    (".strategy bogus", Error("proto")),
    (".strategy improved", Body("strategy: improved")),
    // Limits shown, set and tripped; the timeout.
    (".limits", Body(LIMITS_OFF)),
    (
        ".limits output 1",
        Body(
            "timeout: off\noutput tuples: 1\nintermediate rows: off\n\
             intermediate bytes: off\nrewrite steps: off\nformula depth: off\n\
             plan depth: off",
        ),
    ),
    ("student(x)", Error("budget")),
    (".limits output off", Body(LIMITS_OFF)),
    (".limits frob 3", Error("proto")),
    (".limits output", Error("proto")),
    (".timeout 5000", Body("timeout: 5000ms per query")),
    (".timeout soon", Error("proto")),
    (".timeout off", Body("timeout: off")),
    // Views.
    (".view db_student s. attends(s, \"db\")", Error("parse")),
    (
        ".view db_student attends(s, \"db\")",
        Body("view `db_student` defined"),
    ),
    (
        ".views",
        Body("virtual db_student(s) ≡ attends(s,\"db\")\n"),
    ),
    // One namespace: a view may not take a relation's name, a relation
    // may not take a view's, and neither may take `dom`.
    (".view student attends(s, \"db\")", Error("error")),
    (".relation db_student(name)", Error("error")),
    (".relation dom(value)", Error("error")),
    (
        "db_student(x)",
        Body("(ann)\n(c,d)\n2 answers (improved; reads=2 comparisons=2)"),
    ),
    (
        ".explain exists x. student(x)",
        Contains("== phase 1: normalization"),
    ),
    // Prepared queries.
    (
        ".prepare lonely student(x) & !(exists y. attends(x,y))",
        Body("prepared `lonely` (improved)"),
    ),
    (
        ".exec lonely",
        Body("(bob)\n1 answer (improved; reads=5 comparisons=3)"),
    ),
    (
        ".exec lonely",
        Body("(bob)\n1 answer (improved; reads=5 comparisons=3)"),
    ),
    (".exec nope", Error("proto")),
    (".prepare broken", Error("proto")),
    (".prepare bad exists x. (((", Error("parse")),
    (
        ".prepared",
        Body("lonely [improved] ≡ student(x) & !(exists y. attends(x,y))\n"),
    ),
    // EXPLAIN ANALYZE, under either spelling.
    (":analyze student(x)", Contains("== totals ==\n  3 answers")),
    (
        ".analyze exists x. student(x)",
        Contains("== plan (actual) =="),
    ),
    (":analyze exists x. (((", Error("parse")),
    // A `with recursive` program registers its view, which then stays.
    (
        "with recursive path(x,y) as (edge(x,y) | (exists z. edge(x,z) & path(z,y))) \
         in path(1, y)",
        Body("(2)\n(3)\n(4)\n3 answers (improved; reads=6 comparisons=6)"),
    ),
    ("exists x. path(x, 4) & !edge(x, 4)", Body("true")),
    (
        "with recursive idle(s) as (student(s) & !(exists l. attends(s, l))) in idle(x)",
        Body("(bob)\n1 answer (improved; reads=1 comparisons=0)"),
    ),
    // Every kind of view, each with its kind, in name order.
    (
        ".views",
        Body(
            "virtual db_student(s) ≡ attends(s,\"db\")\n\
             materialized idle(s) ≡ student(s) ∧ ¬(∃l attends(s,l))\n\
             recursive path(x, y) ≡ edge(x,y) ∨ (∃z (edge(x,z) ∧ path(z,y)))\n",
        ),
    ),
    (
        "with recursive path(x,y) as (edge(x,y)) in path(1, y)",
        Error("error"),
    ),
    // Unknown commands and parse errors.
    (".bogus", Error("proto")),
    (":bogus x", Error("proto")),
    ("exists x. (((", Error("parse")),
    (".ping", Body("pong")),
];

/// Mask wall-clock readings (`142.7µs`, `3.4%`), and the padding
/// that aligns them, so `:analyze` bodies compare across runs.
fn mask_timings(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        out.push_str(&rest[..start]);
        let tail = &rest[start..];
        let len = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        let after = &tail[len..];
        let unit = ["ns", "µs", "ms", "s", "%"].into_iter().find(|unit| {
            after
                .strip_prefix(unit)
                .is_some_and(|more| !more.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
        });
        match unit {
            Some(unit) => {
                out.push('#');
                rest = &after[unit.len()..];
            }
            None => {
                out.push_str(&tail[..len]);
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out.split(' ')
        .filter(|word| !word.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn repl_and_server_run_one_command_language() {
    for threads in thread_counts() {
        let exec = ExecConfig::with_threads(threads);
        let local = QueryEngine::new(Database::new()).with_exec_config(exec);
        let mut session =
            SessionState::new(local.limits(), local.cancel_token(), SharedBudget::new());
        let served = Arc::new(QueryEngine::new(Database::new()).with_exec_config(exec));
        let mut server = Server::start(served, ServerConfig::default()).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (line, expect) in SCRIPT {
            let (ok, code, body) = match session.execute(&local, line) {
                Ok(body) => (true, String::new(), body),
                Err(e) => (false, e.code.to_string(), e.message),
            };
            let reply = client.send(line).expect("served reply");
            assert_eq!(
                (ok, code.as_str(), mask_timings(&body)),
                (reply.ok, reply.code.as_str(), mask_timings(&reply.body)),
                "{threads} threads: `{line}` differs between the REPL's session and the server"
            );
            match expect {
                Body(want) => assert!(ok && body == *want, "`{line}`: {code} {body:?}"),
                Contains(want) => assert!(ok && body.contains(want), "`{line}`: {code} {body:?}"),
                Error(want) => assert!(!ok && code == *want, "`{line}`: {code} {body:?}"),
            }
        }
        assert!(client.send(".close").expect("close").ok);
        server.shutdown();
    }
}

#[test]
fn timing_mask_keeps_counts() {
    assert_eq!(
        mask_timings("total:  142.7µs (3.4%) rows=40 1.20ms 9ns 2s 3 answers"),
        "total: # (#) rows=40 # # # 3 answers"
    );
}
