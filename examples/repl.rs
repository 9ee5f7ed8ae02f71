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
//! gq> .explain exists x. student(x) & attends(x,"db")
//! gq> .strategy nested-loop
//! gq> .quit
//! ```
//!
//! Commands: `.relation name(attr, …)`, `.insert name(value, …)`,
//! `.remove name(value, …)`, `.relations`, `.view name <query>`, `.views`,
//! `.strategy improved|classical|nested-loop`,
//! `.timeout <ms|off>` (per-query deadline),
//! `.limits [output|rows|bytes <n|off>]` (show / set resource budgets),
//! `.prepare name <query>` / `.exec name` (prepared queries through the
//! plan cache), `.prepared`, `.cache [clear]` (plan-cache statistics),
//! `.explain <query>`,
//! `:analyze <query>` (execute with per-node instrumentation and render
//! the annotated plan),
//! `:events [n|clear|on|off]` (the flight recorder's recent events),
//! `:slowlog [clear|latency <ms|off>|tuples <n|off>]` (slow-query log),
//! `:export-trace <file>` (Chrome trace_event JSON for Perfetto),
//! `.load-university <n>`, `.save <file>`,
//! `.load <file>`,
//! `.open <dir>` (crash-safe durable database: WAL + checkpoints;
//! mutations survive crashes), `.checkpoint` (atomic snapshot, WAL
//! restarts empty), `.wal` (durability counters),
//! `.connect host:port` / `.disconnect` (client mode: forward every
//! line to a running `gq-server` over the framed TCP protocol),
//! `.help`, `.quit`.
//! Anything else is evaluated as a calculus query; a
//! `with recursive name(params) as (body), … in query` program defines
//! recursive materialized views and runs the trailing query.

use gq_core::{explain_analyze, PreparedQuery, QueryEngine, QueryLimits, Request, Strategy};
use gq_server::protocol::{parse_signature, parse_value};
use gq_server::Client;
use gq_storage::{Database, Schema, Tuple};
use gq_workload::{university, UniversityScale};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

struct Repl {
    engine: QueryEngine,
    strategy: Strategy,
    prepared: BTreeMap<String, PreparedQuery>,
    /// Client mode: when connected, every line is forwarded to a remote
    /// `gq-server` instead of the in-process engine.
    remote: Option<Client>,
}

fn main() {
    let mut repl = Repl {
        engine: QueryEngine::new(Database::new()),
        strategy: Strategy::Improved,
        prepared: BTreeMap::new(),
        remote: None,
    };
    println!("general-queries REPL — .help for commands");
    let stdin = io::stdin();
    loop {
        print!(
            "{}",
            if repl.remote.is_some() {
                "gq(remote)> "
            } else {
                "gq> "
            }
        );
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ".quit" || line == ".exit" {
            break;
        }
        if let Err(e) = repl.dispatch(line) {
            println!("error: {e}");
        }
    }
}

impl Repl {
    fn dispatch(&mut self, line: &str) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(rest) = line.strip_prefix(".connect ") {
            let addr = rest.trim();
            let mut client = Client::connect(addr)?;
            let hello = client.send(".ping")?;
            if !hello.ok {
                return Err(format!("server refused: {}", hello.body).into());
            }
            println!("connected to {addr} — lines now run remotely (.disconnect to return)");
            self.remote = Some(client);
            return Ok(());
        }
        if line == ".disconnect" {
            match self.remote.take() {
                Some(mut client) => {
                    let _ = client.send(".close");
                    println!("disconnected — lines now run locally");
                }
                None => println!("not connected"),
            }
            return Ok(());
        }
        if let Some(client) = self.remote.as_mut() {
            // Client mode: the server speaks the same command language,
            // so forward the line verbatim and print the reply.
            match client.send(line) {
                Ok(reply) if reply.ok => {
                    if !reply.body.is_empty() {
                        println!("{}", reply.body);
                    }
                }
                Ok(reply) => match reply.retry_after_ms {
                    Some(ms) => println!(
                        "server error [{}] (retry in {ms}ms): {}",
                        reply.code, reply.body
                    ),
                    None => println!("server error [{}]: {}", reply.code, reply.body),
                },
                Err(e) => {
                    self.remote = None;
                    return Err(format!("connection lost ({e}) — back to local mode").into());
                }
            }
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix(".relation ") {
            let (name, attrs) = parse_signature(rest)?;
            // Routed through the engine so a durable store WAL-logs it.
            self.engine.create_relation(name, Schema::new(attrs)?)?;
            println!("ok");
        } else if let Some(rest) = line.strip_prefix(".insert ") {
            let (name, values) = parse_signature(rest)?;
            let tuple: Tuple = values.iter().map(|v| parse_value(v)).collect();
            let fresh = self.engine.insert(&name, tuple)?;
            println!(
                "{}",
                if fresh {
                    "inserted"
                } else {
                    "duplicate (ignored)"
                }
            );
        } else if let Some(rest) = line.strip_prefix(".remove ") {
            let (name, values) = parse_signature(rest)?;
            let tuple: Tuple = values.iter().map(|v| parse_value(v)).collect();
            let gone = self.engine.remove(&name, &tuple)?;
            println!("{}", if gone { "removed" } else { "not present" });
        } else if let Some(rest) = line.strip_prefix(".open ") {
            let dir = std::path::PathBuf::from(rest.trim());
            let (engine, recovery) = QueryEngine::open_durable(&dir)?;
            self.engine = engine;
            self.prepared.clear();
            println!("{recovery}");
            println!(
                "durable database at {} ({} relations, {} tuples)",
                dir.display(),
                self.engine.snapshot().relation_names().count(),
                self.engine.snapshot().total_tuples()
            );
        } else if line == ".checkpoint" {
            let ck = self.engine.checkpoint()?;
            println!(
                "checkpoint: generation {}, {} bytes, {} WAL record{} folded in",
                ck.generation,
                ck.snapshot_bytes,
                ck.wal_records_folded,
                if ck.wal_records_folded == 1 { "" } else { "s" },
            );
        } else if line == ".wal" {
            let Some(s) = self.engine.durability_stats() else {
                return Err("no durable database attached (.open <dir>)".into());
            };
            println!(
                "wal: {} append{} ({} bytes), {} since last checkpoint",
                s.wal_appends,
                if s.wal_appends == 1 { "" } else { "s" },
                s.wal_bytes,
                s.wal_records_since_checkpoint,
            );
            println!(
                "fsyncs: {}  checkpoints: {}  recoveries: {}  torn tails truncated: {}",
                s.fsyncs, s.checkpoints, s.recoveries, s.torn_tail_truncations
            );
        } else if let Some(rest) = line.strip_prefix(".view ") {
            let rest = rest.trim();
            let Some((name, query)) = rest.split_once(' ') else {
                return Err("usage: .view name <query>".into());
            };
            self.engine.define_view(name, query.trim())?;
            println!("view `{name}` defined");
        } else if line == ".views" {
            for v in self.engine.views().views() {
                let params: Vec<&str> = v.params.iter().map(|p| p.name()).collect();
                println!("{}({}) ≡ {}", v.name, params.join(", "), v.body);
            }
        } else if let Some(rest) = line.strip_prefix(".save ") {
            gq_storage::save(&self.engine.snapshot(), std::path::Path::new(rest.trim()))?;
            println!("saved");
        } else if let Some(rest) = line.strip_prefix(".load ") {
            let db = gq_storage::load(std::path::Path::new(rest.trim()))?;
            println!("loaded {} tuples", db.total_tuples());
            self.engine = QueryEngine::new(db);
        } else if line == ".relations" {
            for r in self.engine.snapshot().relations() {
                println!("{}{} — {} tuples", r.name(), r.schema(), r.len());
            }
        } else if let Some(rest) = line.strip_prefix(".strategy ") {
            self.strategy = match rest.trim() {
                "improved" => Strategy::Improved,
                "classical" => Strategy::Classical,
                "nested-loop" => Strategy::NestedLoop,
                other => return Err(format!("unknown strategy `{other}`").into()),
            };
            println!("strategy: {}", self.strategy.name());
        } else if let Some(rest) = line.strip_prefix(".threads ") {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| format!("usage: .threads <n> (got `{}`)", rest.trim()))?;
            let exec = gq_core::ExecConfig::with_threads(n)
                .with_morsel_size(self.engine.exec_config().morsel_size);
            self.engine.set_exec_config(exec);
            println!(
                "exec: {} thread{} (morsel size {})",
                exec.threads,
                if exec.threads == 1 { "" } else { "s" },
                exec.morsel_size
            );
        } else if let Some(rest) = line.strip_prefix(".morsel ") {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| format!("usage: .morsel <n> (got `{}`)", rest.trim()))?;
            let mut exec = self.engine.exec_config();
            exec = gq_core::ExecConfig::with_threads(exec.threads).with_morsel_size(n);
            self.engine.set_exec_config(exec);
            println!(
                "exec: morsel size {} ({} threads)",
                exec.morsel_size, exec.threads
            );
        } else if let Some(rest) = line.strip_prefix(".timeout ") {
            let rest = rest.trim();
            let mut limits = self.engine.limits();
            if rest == "off" {
                limits.deadline = None;
                println!("timeout: off");
            } else {
                let ms: u64 = rest
                    .parse()
                    .map_err(|_| format!("usage: .timeout <ms|off> (got `{rest}`)"))?;
                limits.deadline = Some(std::time::Duration::from_millis(ms));
                println!("timeout: {ms}ms per query");
            }
            self.engine.set_limits(limits);
        } else if line == ".limits" {
            print_limits(&self.engine.limits());
        } else if let Some(rest) = line.strip_prefix(".limits ") {
            let mut limits = self.engine.limits();
            let parts: Vec<&str> = rest.split_whitespace().collect();
            match parts.as_slice() {
                [which, value] => {
                    let parsed = if *value == "off" {
                        None
                    } else {
                        Some(value.parse::<u64>().map_err(|_| {
                            format!("usage: .limits <output|rows|bytes> <n|off> (got `{value}`)")
                        })?)
                    };
                    match *which {
                        "output" => limits.max_output_tuples = parsed,
                        "rows" => limits.max_intermediate_tuples = parsed,
                        "bytes" => limits.max_memory_bytes = parsed,
                        other => {
                            return Err(
                                format!("unknown limit `{other}` (output | rows | bytes)").into()
                            )
                        }
                    }
                    self.engine.set_limits(limits);
                    print_limits(&self.engine.limits());
                }
                _ => return Err("usage: .limits [output|rows|bytes <n|off>]".into()),
            }
        } else if let Some(rest) = line.strip_prefix(".prepare ") {
            let rest = rest.trim();
            let Some((name, query)) = rest.split_once(' ') else {
                return Err("usage: .prepare name <query>".into());
            };
            let p = self.engine.prepare(query.trim(), self.strategy)?;
            println!("prepared `{name}` ({})", p.strategy().name());
            self.prepared.insert(name.to_string(), p);
        } else if let Some(rest) = line.strip_prefix(".exec ") {
            let name = rest.trim();
            let Some(p) = self.prepared.get(name) else {
                return Err(format!("no prepared query `{name}` (.prepare name <query>)").into());
            };
            let result = self.engine.run(&Request::prepared(p))?.result;
            if result.vars.is_empty() {
                println!("{}", result.is_true());
            } else {
                for t in result.answers.sorted_tuples() {
                    println!("{t}");
                }
            }
            let s = self.engine.plan_cache_stats();
            println!(
                "{} answer{} ({}; plan cache: {} hits / {} misses)",
                result.len(),
                if result.len() == 1 { "" } else { "s" },
                p.strategy().name(),
                s.hits,
                s.misses,
            );
        } else if line == ".prepared" {
            for (name, p) in &self.prepared {
                println!("{name} [{}] ≡ {}", p.strategy().name(), p.text());
            }
        } else if line == ".cache" {
            let s = self.engine.plan_cache_stats();
            println!(
                "plan cache: {}/{} entries, ~{} bytes",
                s.entries, s.capacity, s.approx_bytes
            );
            println!(
                "hits: {}  misses: {}  evictions: {}  hit rate: {:.1}%",
                s.hits,
                s.misses,
                s.evictions,
                s.hit_rate() * 100.0
            );
        } else if line == ".cache clear" {
            self.engine.clear_plan_cache();
            println!("plan cache cleared");
        } else if let Some(rest) = line.strip_prefix(".explain ") {
            println!("{}", self.engine.explain(rest)?);
        } else if let Some(rest) = line
            .strip_prefix(":analyze ")
            .or_else(|| line.strip_prefix(".analyze "))
        {
            let request = Request::text(rest.trim())
                .with_strategy(self.strategy)
                .with_trace();
            let response = self.engine.run(&request)?;
            if let Some(trace) = &response.trace {
                println!("{}", explain_analyze(&response.result, trace));
            }
        } else if line == ":events" || line.starts_with(":events ") {
            let arg = line[":events".len()..].trim();
            let j = self.engine.journal();
            match arg {
                "" => {
                    for ev in j.tail(20) {
                        println!("{}", ev.render());
                    }
                }
                "clear" => {
                    j.clear();
                    println!("journal cleared");
                }
                "on" => {
                    j.enable();
                    println!("journal: recording");
                }
                "off" => {
                    j.disable();
                    println!("journal: off (queries leave no events)");
                }
                n => {
                    let n: usize = n
                        .parse()
                        .map_err(|_| format!("usage: :events [n|clear|on|off] (got `{n}`)"))?;
                    for ev in j.tail(n) {
                        println!("{}", ev.render());
                    }
                }
            }
            println!(
                "journal: {} event{} held (capacity {}), {} recorded, {} dropped{}",
                j.len(),
                if j.len() == 1 { "" } else { "s" },
                j.capacity(),
                j.appends(),
                j.dropped(),
                if j.is_enabled() {
                    ""
                } else {
                    " — RECORDING OFF"
                },
            );
        } else if line == ":slowlog" || line.starts_with(":slowlog ") {
            let arg = line[":slowlog".len()..].trim();
            let sl = self.engine.slow_log();
            let parse_off = |v: &str| -> Result<Option<u64>, String> {
                if v == "off" {
                    Ok(None)
                } else {
                    v.parse().map(Some).map_err(|_| format!("got `{v}`"))
                }
            };
            match arg.split_whitespace().collect::<Vec<_>>().as_slice() {
                [] => {
                    for e in sl.entries() {
                        println!("{}", e.summary());
                    }
                }
                ["clear"] => {
                    sl.clear();
                    println!("slow-query log cleared");
                }
                ["latency", v] => {
                    let ms =
                        parse_off(v).map_err(|e| format!(":slowlog latency <ms|off> ({e})"))?;
                    sl.set_latency_threshold(ms.map(std::time::Duration::from_millis));
                }
                ["tuples", v] => {
                    let n = parse_off(v).map_err(|e| format!(":slowlog tuples <n|off> ({e})"))?;
                    sl.set_tuple_threshold(n);
                }
                _ => {
                    return Err(
                        "usage: :slowlog [clear | latency <ms|off> | tuples <n|off>]".into(),
                    )
                }
            }
            let show_ms = |t: Option<std::time::Duration>| {
                t.map_or_else(|| "off".to_string(), |d| format!("{}ms", d.as_millis()))
            };
            let show_n = |t: Option<u64>| t.map_or_else(|| "off".to_string(), |n| n.to_string());
            println!(
                "slow log: {} entr{} held, {} recorded, {} evicted — latency > {}, tuples > {}",
                sl.len(),
                if sl.len() == 1 { "y" } else { "ies" },
                sl.recorded(),
                sl.evicted(),
                show_ms(sl.latency_threshold()),
                show_n(sl.tuple_threshold()),
            );
        } else if let Some(rest) = line.strip_prefix(":export-trace ") {
            let path = rest.trim();
            if path.is_empty() {
                return Err("usage: :export-trace <file.json>".into());
            }
            let j = self.engine.journal();
            let n = j.len();
            std::fs::write(path, format!("{}\n", j.to_chrome_trace().pretty()))?;
            println!(
                "wrote {n} event{} to {path} — open in Perfetto (ui.perfetto.dev) \
                 or chrome://tracing",
                if n == 1 { "" } else { "s" },
            );
        } else if let Some(rest) = line.strip_prefix(".load-university") {
            let n: usize = rest.trim().parse().unwrap_or(100);
            self.engine = QueryEngine::new(university(&UniversityScale::of_size(n)));
            println!(
                "loaded university with {} students ({} tuples)",
                n,
                self.engine.snapshot().total_tuples()
            );
        } else if line == ".help" {
            println!(
                ".relation name(attr, …)   create a relation\n\
                 .view name <query>        define a view (usable as an atom)\n\
                 .views                    list views\n\
                 .save <file> / .load <file>  persist / restore the database\n\
                 .open <dir>               attach a crash-safe durable database (WAL + checkpoints)\n\
                 .checkpoint               atomic snapshot; the WAL restarts empty\n\
                 .wal                      durability counters (appends, fsyncs, recoveries)\n\
                 .insert name(value, …)    insert a tuple (strings quoted, ints bare)\n\
                 .remove name(value, …)    remove a tuple\n\
                 .relations                list relations\n\
                 .strategy s               improved | classical | nested-loop\n\
                 .threads n                worker threads (1 = sequential)\n\
                 .morsel n                 tuples per morsel (default 1024)\n\
                 .timeout <ms|off>         per-query deadline\n\
                 .limits [output|rows|bytes <n|off>]  show / set resource budgets\n\
                 .prepare name <query>     compile once, cache the plan\n\
                 .exec name                run a prepared query (cache hit)\n\
                 .prepared                 list prepared queries\n\
                 .cache [clear]            plan-cache statistics / reset\n\
                 .explain <query>          show both processing phases\n\
                 :analyze <query>          execute + annotated plan (EXPLAIN ANALYZE)\n\
                 :events [n|clear|on|off]  flight recorder: last n events (default 20),\n\
                                           clear the ring, or toggle recording\n\
                 :slowlog                  slow-query log entries + thresholds\n\
                 :slowlog clear            drop retained slow queries\n\
                 :slowlog latency <ms|off> arm/disarm the latency threshold\n\
                 :slowlog tuples <n|off>   arm/disarm the peak-tuples threshold\n\
                 :export-trace <file>      dump the journal as Chrome trace_event JSON\n\
                                           (load in Perfetto / chrome://tracing)\n\
                 .load-university <n>      load a generated database\n\
                 .connect host:port        client mode: forward lines to a gq-server\n\
                 .disconnect               leave client mode\n\
                 .quit                     exit\n\
                 anything else             evaluate as a calculus query"
            );
        } else if line.starts_with('.') {
            return Err(format!("unknown command `{line}` (.help)").into());
        } else {
            // A `with recursive` prelude routes through the program
            // surface, which registers the definitions as recursive
            // materialized views before running the trailing query.
            let request = if line.starts_with("with recursive") {
                Request::program(line)
            } else {
                Request::text(line)
            };
            let result = self
                .engine
                .run(&request.with_strategy(self.strategy))?
                .result;
            if result.vars.is_empty() {
                println!("{}", result.is_true());
            } else {
                for t in result.answers.sorted_tuples() {
                    println!("{t}");
                }
                println!(
                    "{} answer{} ({}; reads={} comparisons={})",
                    result.len(),
                    if result.len() == 1 { "" } else { "s" },
                    self.strategy.name(),
                    result.stats.base_tuples_read,
                    result.stats.comparisons,
                );
            }
        }
        Ok(())
    }
}

fn print_limits(l: &QueryLimits) {
    fn show(v: Option<u64>) -> String {
        v.map_or_else(|| "off".to_string(), |n| n.to_string())
    }
    println!(
        "timeout: {}",
        l.deadline
            .map_or_else(|| "off".to_string(), |d| format!("{}ms", d.as_millis()))
    );
    println!("output tuples: {}", show(l.max_output_tuples));
    println!("intermediate rows: {}", show(l.max_intermediate_tuples));
    println!("intermediate bytes: {}", show(l.max_memory_bytes));
    println!("rewrite steps: {}", show(l.max_rewrite_steps));
    println!("formula depth: {}", show(l.max_formula_depth));
    println!("plan depth: {}", show(l.max_plan_depth));
}
