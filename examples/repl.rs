//! An interactive shell over the query engine.
//!
//! ```text
//! cargo run --example repl
//! gq> .relation student(name)
//! gq> .insert student("ann")
//! gq> .insert student("bob")
//! gq> .relation attends(student, lecture)
//! gq> .insert attends("ann", "db")
//! gq> student(x) & !(exists y. attends(x,y))
//! (bob)
//! 1 answer (improved; reads=3 comparisons=3)
//! gq> .quit
//! ```
//!
//! A local line runs through `gq_server::SessionState::execute`, the one
//! interpreter a `gq-server` session runs too: queries, `with recursive`
//! programs, `.ping`, `.epoch`, `.relation`, `.insert`, `.remove`,
//! `.relations`, `.view`, `.views`, `.strategy`, `.timeout`, `.limits`,
//! `.explain`, `:analyze`, `.prepare`, `.exec`, `.prepared`. The shell
//! keeps only the commands that own the engine, the file system or the
//! connection: `.open <dir>` (crash-safe durable database), `.load
//! <file>`, `.save <file>`, `.load-university <n>` (each one that
//! replaces the engine starts a fresh session), `.threads <n>`, `.morsel
//! <n>`, `.checkpoint`, `.wal`, `.cache [clear]`, `:events
//! [n|clear|on|off]`, `:slowlog [clear|latency <ms|off>|tuples <n|off>]`,
//! `:export-trace <file>` (Chrome trace_event JSON for Perfetto),
//! `.connect host:port` / `.disconnect` (forward every line to a running
//! `gq-server`), `.help`, `.quit`.

use gq_core::{ExecConfig, QueryEngine, SharedBudget};
use gq_server::session::{self, SessionState};
use gq_server::Client;
use gq_storage::Database;
use gq_workload::{university, UniversityScale};
use std::io::{self, BufRead, Write};

const OWNER_HELP: &str = "\
.open <dir>                         attach a crash-safe durable database (WAL + checkpoints)
.save <file> / .load <file>         persist / restore the database
.load-university <n>                load a generated database
.threads n / .morsel n              worker threads (1 = sequential) / tuples per morsel
.checkpoint                         atomic snapshot; the WAL restarts empty
.wal                                durability counters (appends, fsyncs, recoveries)
.cache [clear]                      plan-cache statistics / reset
:events [n|clear|on|off]            flight recorder: last n events (default 20), clear, toggle
:slowlog [clear]                    slow-query log entries + thresholds / drop them
:slowlog latency|tuples <v|off>     arm/disarm the latency (ms) / peak-tuples threshold
:export-trace <file>                dump the journal as Chrome trace_event JSON (Perfetto)
.connect host:port / .disconnect    forward lines to a gq-server / return to local mode
.quit                               exit";

struct Repl {
    engine: QueryEngine,
    session: SessionState,
    /// Client mode: when connected, every line is forwarded to a remote
    /// `gq-server` instead of the in-process engine.
    remote: Option<Client>,
}

type Outcome = Result<(), Box<dyn std::error::Error>>;

fn main() {
    let mut repl = Repl::new(QueryEngine::new(Database::new()));
    println!("general-queries REPL — .help for commands");
    loop {
        print!(
            "{}> ",
            if repl.remote.is_some() {
                "gq(remote)"
            } else {
                "gq"
            }
        );
        io::stdout().flush().ok();
        let mut line = String::new();
        if io::stdin().lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        match line.trim() {
            "" => {}
            ".quit" | ".exit" => break,
            line => {
                if let Err(e) = repl.dispatch(line) {
                    println!("error: {e}");
                }
            }
        }
    }
}

/// Print a reply body without a trailing blank line.
fn print_body(body: &str) {
    if !body.is_empty() {
        println!("{}", body.trim_end_matches('\n'));
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

impl Repl {
    fn new(engine: QueryEngine) -> Repl {
        let session =
            SessionState::new(engine.limits(), engine.cancel_token(), SharedBudget::new());
        Repl {
            engine,
            session,
            remote: None,
        }
    }

    /// Swap in a new engine with a fresh session, so no prepared handle
    /// outlives the engine it was prepared on.
    fn replace_engine(&mut self, engine: QueryEngine) {
        *self = Repl {
            remote: self.remote.take(),
            ..Repl::new(engine)
        };
    }

    fn dispatch(&mut self, line: &str) -> Outcome {
        let (command, arg) = line
            .split_once(char::is_whitespace)
            .map_or((line, ""), |(c, a)| (c, a.trim()));
        match (command, self.remote.as_mut()) {
            (".connect", _) => {
                let mut client = Client::connect(arg)?;
                let hello = client.send(".ping")?;
                if !hello.ok {
                    return Err(format!("server refused: {}", hello.body).into());
                }
                println!("connected to {arg} — lines now run remotely (.disconnect to return)");
                self.remote = Some(client);
            }
            (".disconnect", None) => println!("not connected"),
            (".disconnect", Some(client)) => {
                let _ = client.send(".close");
                self.remote = None;
                println!("disconnected — lines now run locally");
            }
            (".help", _) => println!("{}\n{OWNER_HELP}", session::help()),
            // Client mode: the server runs the same interpreter, so
            // forward the line verbatim and print the reply.
            (_, Some(client)) => match client.send(line) {
                Ok(reply) if reply.ok => print_body(&reply.body),
                Ok(reply) => {
                    let retry = reply.retry_after_ms.map(|ms| format!(" (retry in {ms}ms)"));
                    let retry = retry.unwrap_or_default();
                    println!("server error [{}]{retry}: {}", reply.code, reply.body);
                }
                Err(e) => {
                    self.remote = None;
                    return Err(format!("connection lost ({e}) — back to local mode").into());
                }
            },
            (_, None) => return self.local(command, arg, line),
        }
        Ok(())
    }

    /// A local line: an owner command, or the session's.
    fn local(&mut self, command: &str, arg: &str, line: &str) -> Outcome {
        let engine = &self.engine;
        match command {
            ".open" => {
                let (engine, recovery) = QueryEngine::open_durable(arg.as_ref())?;
                let db = engine.snapshot();
                let (relations, tuples) = (db.relation_names().count(), db.total_tuples());
                self.replace_engine(engine);
                println!("{recovery}");
                println!("durable database at {arg} ({relations} relations, {tuples} tuples)");
            }
            ".load" => {
                let db = gq_storage::load(arg.as_ref())?;
                println!("loaded {} tuples", db.total_tuples());
                self.replace_engine(QueryEngine::new(db));
            }
            ".save" => {
                gq_storage::save(&engine.snapshot(), arg.as_ref())?;
                println!("saved");
            }
            ".load-university" => {
                let n: usize = arg.parse().unwrap_or(100);
                let db = university(&UniversityScale::of_size(n));
                println!(
                    "loaded university with {n} students ({} tuples)",
                    db.total_tuples()
                );
                self.replace_engine(QueryEngine::new(db));
            }
            ".threads" | ".morsel" => {
                let n: usize = arg
                    .parse()
                    .map_err(|_| format!("usage: {command} <n> (got `{arg}`)"))?;
                let exec = engine.exec_config();
                let exec = match command {
                    ".threads" => ExecConfig::with_threads(n).with_morsel_size(exec.morsel_size),
                    _ => exec.with_morsel_size(n),
                };
                self.engine.set_exec_config(exec);
                let (t, m) = (exec.threads, exec.morsel_size);
                println!("exec: {t} thread{} (morsel size {m})", plural(t));
            }
            ".checkpoint" => {
                let ck = engine.checkpoint()?;
                println!(
                    "checkpoint: generation {}, {} bytes, {} WAL record{} folded in",
                    ck.generation,
                    ck.snapshot_bytes,
                    ck.wal_records_folded,
                    plural(ck.wal_records_folded as usize),
                );
            }
            ".wal" => {
                let s = engine
                    .durability_stats()
                    .ok_or("no durable database attached (.open <dir>)")?;
                println!(
                    "wal: {} append{} ({} bytes), {} since last checkpoint\n\
                     fsyncs: {}  checkpoints: {}  recoveries: {}  torn tails truncated: {}",
                    s.wal_appends,
                    plural(s.wal_appends as usize),
                    s.wal_bytes,
                    s.wal_records_since_checkpoint,
                    s.fsyncs,
                    s.checkpoints,
                    s.recoveries,
                    s.torn_tail_truncations
                );
            }
            ".cache" if arg == "clear" => {
                engine.clear_plan_cache();
                println!("plan cache cleared");
            }
            ".cache" if arg.is_empty() => {
                let s = engine.plan_cache_stats();
                println!(
                    "plan cache: {}/{} entries, ~{} bytes\n\
                     hits: {}  misses: {}  evictions: {}  hit rate: {:.1}%",
                    s.entries,
                    s.capacity,
                    s.approx_bytes,
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.hit_rate() * 100.0
                );
            }
            ":events" => self.events(arg)?,
            ":slowlog" => self.slowlog(arg)?,
            ":export-trace" => {
                if arg.is_empty() {
                    return Err("usage: :export-trace <file.json>".into());
                }
                let j = engine.journal();
                std::fs::write(arg, format!("{}\n", j.to_chrome_trace().pretty()))?;
                let n = j.len();
                println!(
                    "wrote {n} event{} to {arg} — open in Perfetto (ui.perfetto.dev) \
                     or chrome://tracing",
                    plural(n),
                );
            }
            _ => {
                let body = self.session.execute(engine, line).map_err(|e| e.message)?;
                print_body(&body);
            }
        }
        Ok(())
    }

    fn events(&self, arg: &str) -> Result<(), String> {
        let j = self.engine.journal();
        match arg {
            "clear" => j.clear(),
            "on" => j.enable(),
            "off" => j.disable(),
            n => {
                let n = match n {
                    "" => 20,
                    n => n
                        .parse()
                        .map_err(|_| format!("usage: :events [n|clear|on|off] (got `{n}`)"))?,
                };
                for ev in j.tail(n) {
                    println!("{}", ev.render());
                }
            }
        }
        let off = if j.is_enabled() {
            ""
        } else {
            " — RECORDING OFF"
        };
        println!(
            "journal: {} event{} held (capacity {}), {} recorded, {} dropped{off}",
            j.len(),
            plural(j.len()),
            j.capacity(),
            j.appends(),
            j.dropped(),
        );
        Ok(())
    }

    fn slowlog(&self, arg: &str) -> Result<(), String> {
        let sl = self.engine.slow_log();
        let threshold = |what: &str, v: &str| match v {
            "off" => Ok(None),
            v => v
                .parse()
                .map(Some)
                .map_err(|_| format!(":slowlog {what} <n|off> (got `{v}`)")),
        };
        match arg.split_whitespace().collect::<Vec<_>>().as_slice() {
            [] => {
                for e in sl.entries() {
                    println!("{}", e.summary());
                }
            }
            ["clear"] => sl.clear(),
            ["latency", v] => sl.set_latency_threshold(
                threshold("latency", v)?.map(std::time::Duration::from_millis),
            ),
            ["tuples", v] => sl.set_tuple_threshold(threshold("tuples", v)?),
            _ => return Err("usage: :slowlog [clear | latency <ms|off> | tuples <n|off>]".into()),
        }
        let show = |t: Option<u64>, unit: &str| t.map_or("off".into(), |n| format!("{n}{unit}"));
        println!(
            "slow log: {} entr{} held, {} recorded, {} evicted — latency > {}, tuples > {}",
            sl.len(),
            if sl.len() == 1 { "y" } else { "ies" },
            sl.recorded(),
            sl.evicted(),
            show(sl.latency_threshold().map(|d| d.as_millis() as u64), "ms"),
            show(sl.tuple_threshold(), ""),
        );
        Ok(())
    }
}
