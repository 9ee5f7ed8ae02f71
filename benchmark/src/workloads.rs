//! The four workloads: what data each loads, which operations it sends,
//! and the closed loop that sends them, times each call and checks each
//! answer against the reference.

use std::time::Instant;

use crate::layers::{self, Answer, Conn, Engine, Facts, Rows, Served};
use crate::reference;
use crate::stats::{rows_hash, SplitMix64};
use crate::trace::{Recorder, ROOT};

/// How a workload's operations reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// The 12 suite texts through the ad hoc query entry point, one caller.
    Suite,
    /// A read/write mix over loopback, [`CONNECTIONS`] callers.
    Served,
    /// Writes under two materialized views plus a view read, one caller.
    Maintain,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `university(n)`: the number of students.
    pub n: usize,
    shape: Shape,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "analytic_scan",
        n: 2000,
        shape: Shape::Suite,
    },
    Workload {
        name: "tiny_adhoc",
        n: 60,
        shape: Shape::Suite,
    },
    Workload {
        name: "serve_mixed",
        n: 2000,
        shape: Shape::Served,
    },
    Workload {
        name: "write_maintain",
        n: 2000,
        shape: Shape::Maintain,
    },
];

/// Client connections (and server workers) of `serve_mixed`.
pub const CONNECTIONS: usize = 2;
/// Blocks of ten requests in one connection's sequence.
const SERVED_BLOCKS: usize = 40;
/// Insert/insert/read/remove/remove iterations in the maintain sequence.
const MAINTAIN_ITERATIONS: usize = 40;

const VIEWS: [(&str, &str); 2] = [
    ("d0att", "attends(x,y) & lecture(y,\"d0\")"),
    ("nodb", "member(x,z) & !skill(x,\"db\")"),
];

/// A reference answer and its order-independent hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub rows: Rows,
    pub hash: u64,
}

impl Expected {
    fn of(rows: Rows) -> Expected {
        let hash = rows_hash(&rows);
        Expected { rows, hash }
    }
}

/// What an operation does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    Read {
        text: String,
        expected: Expected,
    },
    /// Insert (`insert`) or remove one tuple of two strings.
    Write {
        insert: bool,
        relation: &'static str,
        values: [String; 2],
    },
}

/// One operation of a sequence; `label` names its template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub label: &'static str,
    pub action: Action,
}

/// The operations one caller repeats. The caller may stop only after a
/// whole block of `stride` operations, so every insert is retracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    pub ops: Vec<Op>,
    pub stride: usize,
}

/// Everything of a run that follows from the seed alone: the operation
/// sequence of each caller, reference answers included.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub sequences: Vec<Sequence>,
}

fn read(label: &'static str, text: String, rows: Rows) -> Op {
    Op {
        label,
        action: Action::Read {
            text,
            expected: Expected::of(rows),
        },
    }
}

fn write(label: &'static str, insert: bool, relation: &'static str, values: &[String; 2]) -> Op {
    Op {
        label,
        action: Action::Write {
            insert,
            relation,
            values: values.clone(),
        },
    }
}

fn suite_sequence(facts: &Facts) -> Sequence {
    let ops = layers::suite()
        .iter()
        .map(|&(label, text)| {
            let rows = reference::suite_answer(label, facts)
                .unwrap_or_else(|| panic!("reference.rs has no answer for suite text `{label}`"));
            read(label, text.to_string(), rows)
        })
        .collect::<Vec<_>>();
    Sequence {
        stride: ops.len(),
        ops,
    }
}

/// Per ten requests: five point reads, two closed quantified reads, one
/// scan read, one insert and the removal of what it inserted. Writes
/// touch only `zz…` students and `lx…` lectures no read asks about, so
/// every read answer is fixed by the base data.
fn served_sequence(facts: &Facts, seed: u64, connection: usize, n: usize) -> Sequence {
    let mut rng =
        SplitMix64::new(seed ^ (connection as u64 + 1).wrapping_mul(0x5851_f42d_4c95_7f2d));
    let lectures = facts["lecture"].len();
    let point = |k: usize| {
        let s = format!("s{k}");
        read(
            "point-read",
            format!("attends(\"{s}\",y) & (exists d. lecture(y,d) & !enrolled(\"{s}\",d))"),
            reference::point_read(facts, &s),
        )
    };
    let closed = |k: usize| {
        let s = format!("s{k}");
        read(
            "closed-read",
            format!("exists l. lecture(l,\"d0\") & attends(\"{s}\",l)"),
            reference::closed_read(facts, &s),
        )
    };
    let scan = |j: usize| {
        let l = format!("l{j}");
        read(
            "scan-read",
            format!("student(x) & attends(x,\"{l}\") & !enrolled(x,\"d0\")"),
            reference::scan_read(facts, &l),
        )
    };
    let mut ops = Vec::with_capacity(SERVED_BLOCKS * 10);
    for block in 0..SERVED_BLOCKS {
        let values = [format!("zz{connection}-{block}"), format!("lx{connection}")];
        ops.push(point(rng.below(n)));
        ops.push(closed(rng.below(n)));
        ops.push(point(rng.below(n)));
        ops.push(write("insert", true, "attends", &values));
        ops.push(point(rng.below(n)));
        ops.push(scan(rng.below(lectures)));
        ops.push(point(rng.below(n)));
        ops.push(write("remove", false, "attends", &values));
        ops.push(closed(rng.below(n)));
        ops.push(point(rng.below(n)));
    }
    Sequence { ops, stride: 10 }
}

/// Per iteration: insert `attends(zz<i>,l0)` and `member(zz<i>,d0)` —
/// one tuple into each view — read `d0att(x,"l0")`, remove both. The
/// database is the same after every iteration.
fn maintain_sequence(facts: &Facts) -> Sequence {
    let base = reference::view_read_d0att(facts, "l0");
    let mut ops = Vec::with_capacity(MAINTAIN_ITERATIONS * 5);
    for i in 0..MAINTAIN_ITERATIONS {
        let z = format!("zz{i}");
        let attends = [z.clone(), "l0".to_string()];
        let member = [z.clone(), "d0".to_string()];
        let mut rows = base.clone();
        rows.push(vec![z]);
        rows.sort();
        ops.push(write("insert-attends", true, "attends", &attends));
        ops.push(write("insert-member", true, "member", &member));
        ops.push(read("view-read", "d0att(x,\"l0\")".to_string(), rows));
        ops.push(write("remove-attends", false, "attends", &attends));
        ops.push(write("remove-member", false, "member", &member));
    }
    Sequence { ops, stride: 5 }
}

impl Plan {
    /// Generate the inputs of `workload` from `seed`. With
    /// `corrupt_reference` the first read's reference answer is made
    /// wrong on purpose, to show that a wrong answer fails the run.
    pub fn new(workload: Workload, seed: u64, corrupt_reference: bool) -> Plan {
        let facts = layers::generate(workload.n, seed).facts();
        let mut sequences = match workload.shape {
            Shape::Suite => vec![suite_sequence(&facts)],
            Shape::Served => (0..CONNECTIONS)
                .map(|c| served_sequence(&facts, seed, c, workload.n))
                .collect(),
            Shape::Maintain => vec![maintain_sequence(&facts)],
        };
        if corrupt_reference {
            let first_read = sequences[0]
                .ops
                .iter_mut()
                .find_map(|op| match &mut op.action {
                    Action::Read { expected, .. } => Some(expected),
                    _ => None,
                });
            let expected = first_read.expect("every workload reads");
            expected.rows.push(vec!["no-such-answer".to_string()]);
            *expected = Expected::of(std::mem::take(&mut expected.rows));
        }
        Plan {
            workload,
            seed,
            sequences,
        }
    }
}

/// Operations attempted and operations that failed: an error, a shed, or
/// an answer that differs from the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One caller's way to the engine.
enum Caller {
    Direct(Engine),
    Wire(Conn),
}

/// What came back from one call, not yet checked.
// Built inside the timed call: boxing the large variant would put an
// allocation of the benchmark's own into every measured latency.
#[allow(clippy::large_enum_variant)]
enum Raw {
    Answer(Answer),
    Body(String),
    Changed(bool),
}

/// Rows of a served reply body: `true` / `false` for a closed query,
/// else one `(a,b)` line per tuple and a summary line.
fn body_rows(body: &str) -> Rows {
    match body {
        "true" => vec![vec![]],
        "false" => vec![],
        _ => {
            let mut lines: Vec<&str> = body.lines().collect();
            lines.pop();
            let mut rows: Rows = lines
                .iter()
                .map(|l| {
                    l.trim_start_matches('(')
                        .trim_end_matches(')')
                        .split(',')
                        .map(str::to_string)
                        .collect()
                })
                .collect();
            rows.sort();
            rows
        }
    }
}

impl Caller {
    /// The timed part of an operation: the call and nothing else.
    fn call(&mut self, action: &Action) -> Result<Raw, String> {
        match (self, action) {
            (Caller::Direct(engine), Action::Read { text, .. }) => {
                engine.query(text).map(Raw::Answer)
            }
            (
                Caller::Direct(engine),
                Action::Write {
                    insert,
                    relation,
                    values,
                },
            ) => engine.write(*insert, relation, values).map(Raw::Changed),
            (Caller::Wire(conn), Action::Read { text, .. }) => conn.send(text).map(Raw::Body),
            (
                Caller::Wire(conn),
                Action::Write {
                    insert,
                    relation,
                    values,
                },
            ) => {
                let (command, done) = if *insert {
                    (".insert", "inserted")
                } else {
                    (".remove", "removed")
                };
                conn.send(&format!(
                    "{command} {relation}(\"{}\",\"{}\")",
                    values[0], values[1]
                ))
                .map(|body| Raw::Changed(body == done))
            }
        }
    }
}

/// Is `raw` the right outcome of `action`? `full` compares the sorted
/// tuples themselves; otherwise count and hash.
fn correct(action: &Action, raw: &Raw, full: bool) -> bool {
    match (action, raw) {
        (Action::Read { expected, .. }, Raw::Answer(answer)) => {
            if full {
                answer.rows() == expected.rows
            } else {
                answer.count() == expected.rows.len() && answer.hash() == expected.hash
            }
        }
        (Action::Read { expected, .. }, Raw::Body(body)) => {
            let rows = body_rows(body);
            if full {
                rows == expected.rows
            } else {
                rows.len() == expected.rows.len() && rows_hash(&rows) == expected.hash
            }
        }
        (Action::Write { .. }, Raw::Changed(changed)) => *changed,
        _ => false,
    }
}

/// When a caller stops repeating its sequence.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After one pass over the whole sequence.
    OnePass,
    /// At the first block boundary past this instant.
    Deadline(Instant),
}

/// What one caller measured.
struct CallerRun {
    /// Caller-observed latency of every operation, in call order.
    latencies_ms: Vec<f64>,
    tally: Tally,
    first_failure: Option<String>,
    recorder: Option<Recorder>,
}

fn span_name(caller: &Caller, action: &Action) -> &'static str {
    match (caller, action) {
        (Caller::Wire(_), _) => "server.request",
        (Caller::Direct(_), Action::Read { .. }) => "core.query",
        (Caller::Direct(_), _) => "core.mutation",
    }
}

fn run_caller(
    caller: &mut Caller,
    sequence: &Sequence,
    until: Until,
    full_check: bool,
    mut recorder: Option<Recorder>,
) -> CallerRun {
    let mut run = CallerRun {
        latencies_ms: Vec::new(),
        tally: Tally::default(),
        first_failure: None,
        recorder: None,
    };
    'outer: loop {
        for (index, op) in sequence.ops.iter().enumerate() {
            if index % sequence.stride == 0 {
                if let Until::Deadline(deadline) = until {
                    if Instant::now() >= deadline {
                        break 'outer;
                    }
                }
            }
            let start = Instant::now();
            let outcome = match &mut recorder {
                None => caller.call(&op.action),
                Some(rec) => {
                    let name = span_name(caller, &op.action);
                    let op_id = run.latencies_ms.len() as u32;
                    rec.span(name, ROOT, op_id, || caller.call(&op.action))
                }
            };
            run.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let ok = match &outcome {
                Ok(raw) => correct(&op.action, raw, full_check),
                Err(_) => false,
            };
            if !ok && run.first_failure.is_none() {
                run.first_failure = Some(match outcome {
                    Err(e) => format!("{}: {e}", op.label),
                    Ok(_) => format!("{}: answer differs from the reference", op.label),
                });
            }
            run.tally.record(ok);
        }
        if matches!(until, Until::OnePass) {
            break;
        }
    }
    run.recorder = recorder;
    run
}

/// A loaded engine with its callers connected, ready to be driven.
pub struct Live {
    pub engine: Engine,
    served: Option<Served>,
    callers: Vec<Caller>,
}

/// What one drive of all callers measured.
pub struct Drive {
    /// One vector per caller, in call order.
    pub latencies_ms: Vec<Vec<f64>>,
    /// From the common start to the last caller's finish.
    pub wall_s: f64,
    pub tally: Tally,
    pub first_failure: Option<String>,
    pub recorders: Vec<Recorder>,
}

impl Drive {
    pub fn ops_per_s(&self) -> f64 {
        (self.tally.attempted - self.tally.failed) as f64 / self.wall_s
    }
}

impl Live {
    /// Generate, load, define views, start the server, connect. Returns
    /// the seconds this took.
    pub fn start(plan: &Plan) -> Result<(Live, f64), String> {
        let start = Instant::now();
        let workload = plan.workload;
        let engine = Engine::new(layers::generate(workload.n, plan.seed));
        if workload.shape == Shape::Maintain {
            for (name, body) in VIEWS {
                engine.define_materialized_view(name, body)?;
            }
        }
        let (served, callers) = if workload.shape == Shape::Served {
            let served = Served::start(&engine, CONNECTIONS)?;
            let callers = (0..CONNECTIONS)
                .map(|_| Conn::connect(served.addr()).map(Caller::Wire))
                .collect::<Result<Vec<_>, _>>()?;
            (Some(served), callers)
        } else {
            (None, vec![Caller::Direct(engine.clone())])
        };
        let live = Live {
            engine,
            served,
            callers,
        };
        Ok((live, start.elapsed().as_secs_f64()))
    }

    /// Every caller repeats its sequence `until` told to stop, each on
    /// its own thread, each waiting for a reply before its next request.
    /// `trace_origin` switches span recording on.
    pub fn drive(
        &mut self,
        plan: &Plan,
        until: Until,
        full_check: bool,
        trace_origin: Option<Instant>,
    ) -> Drive {
        let start = Instant::now();
        let runs: Vec<CallerRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .zip(&plan.sequences)
                .enumerate()
                .map(|(lane, (caller, sequence))| {
                    let recorder = trace_origin.map(|origin| Recorder::new(origin, lane as u32));
                    scope.spawn(move || run_caller(caller, sequence, until, full_check, recorder))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a caller thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut drive = Drive {
            latencies_ms: Vec::new(),
            wall_s,
            tally: Tally::default(),
            first_failure: None,
            recorders: Vec::new(),
        };
        for run in runs {
            drive.latencies_ms.push(run.latencies_ms);
            drive.tally.add(run.tally);
            drive.first_failure = drive.first_failure.or(run.first_failure);
            drive.recorders.extend(run.recorder);
        }
        drive
    }

    /// After the timed section: do the maintained view extents equal the
    /// reference over the final base relations? One check per view.
    pub fn check_views(&self, plan: &Plan) -> (Tally, Option<String>) {
        let mut tally = Tally::default();
        let mut failure = None;
        if plan.workload.shape == Shape::Maintain {
            let facts = self.engine.facts();
            let checks = [
                ("d0att", reference::view_d0att(&facts)),
                ("nodb", reference::view_nodb(&facts)),
            ];
            for (view, want) in checks {
                let mut got = facts.get(view).cloned().unwrap_or_default();
                got.sort();
                let ok = got == want;
                if !ok {
                    failure
                        .get_or_insert(format!("view {view}: extent differs from the reference"));
                }
                tally.record(ok);
            }
        }
        (tally, failure)
    }

    /// Caller 0's connection, for the traced run's probes: the server
    /// has one worker per caller, so a further connection would wait.
    pub fn wire(&mut self) -> Option<&mut Conn> {
        match self.callers.first_mut() {
            Some(Caller::Wire(conn)) => Some(conn),
            _ => None,
        }
    }

    /// `server.shed_share` so far (0 without a server).
    pub fn shed_share(&self) -> f64 {
        self.served.as_ref().map_or(0.0, Served::shed_share)
    }

    /// Close the connections, stop the server and join its threads.
    pub fn stop(self) {
        drop(self.callers);
        if let Some(served) = self.served {
            served.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::row_hash;

    fn single_hash(value: &str) -> u64 {
        row_hash(std::iter::once(value))
    }

    fn workload(name: &str) -> Workload {
        let mut w = *WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("a workload name");
        w.n = w.n.min(200);
        w
    }

    #[test]
    fn the_sequence_generator_is_a_pure_function_of_the_seed() {
        for w in WORKLOADS {
            let w = workload(w.name);
            let a = Plan::new(w, 7, false);
            let b = Plan::new(w, 7, false);
            assert_eq!(a.sequences, b.sequences, "{}", w.name);
            let c = Plan::new(w, 8, false);
            assert_ne!(a.sequences, c.sequences, "{}", w.name);
        }
    }

    #[test]
    fn every_inserted_tuple_is_removed_within_its_block() {
        for name in ["serve_mixed", "write_maintain"] {
            let plan = Plan::new(workload(name), 1, false);
            for sequence in &plan.sequences {
                assert_eq!(sequence.ops.len() % sequence.stride, 0);
                for block in sequence.ops.chunks(sequence.stride) {
                    let mut live = Vec::new();
                    for op in block {
                        match &op.action {
                            Action::Write {
                                insert: true,
                                relation,
                                values,
                            } => live.push((relation, values)),
                            Action::Write {
                                relation, values, ..
                            } => {
                                let at = live.iter().position(|l| *l == (relation, values));
                                live.remove(at.expect("removes only what the block inserted"));
                            }
                            Action::Read { .. } => {}
                        }
                    }
                    assert!(live.is_empty(), "{name}: a block leaves tuples behind");
                }
            }
        }
    }

    #[test]
    fn served_connections_write_disjoint_tuples() {
        let plan = Plan::new(workload("serve_mixed"), 1, false);
        let written = |s: &Sequence| {
            s.ops
                .iter()
                .filter_map(|op| match &op.action {
                    Action::Write {
                        insert: true,
                        values,
                        ..
                    } => Some(values.clone()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = (written(&plan.sequences[0]), written(&plan.sequences[1]));
        assert_eq!(a.len(), SERVED_BLOCKS);
        assert!(a.iter().all(|v| !b.contains(v)));
    }

    #[test]
    fn maintain_reads_expect_the_base_answer_plus_the_inserted_student() {
        let plan = Plan::new(workload("write_maintain"), 1, false);
        let reads: Vec<&Expected> = plan.sequences[0]
            .ops
            .iter()
            .filter_map(|op| match &op.action {
                Action::Read { expected, .. } => Some(expected),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), MAINTAIN_ITERATIONS);
        assert!(reads[3].rows.contains(&vec!["zz3".to_string()]));
        assert_eq!(
            reads[3].hash.wrapping_sub(single_hash("zz3")),
            reads[4].hash.wrapping_sub(single_hash("zz4"))
        );
    }

    #[test]
    fn served_bodies_parse_into_sorted_rows() {
        assert_eq!(body_rows("true"), vec![Vec::<String>::new()]);
        assert!(body_rows("false").is_empty());
        assert!(body_rows("0 answers (improved; reads=3 comparisons=1)").is_empty());
        assert_eq!(
            body_rows("(s2,l1)\n(s1,l9)\n2 answers (improved; reads=3 comparisons=1)"),
            vec![
                vec!["s1".to_string(), "l9".to_string()],
                vec!["s2".to_string(), "l1".to_string()]
            ]
        );
    }

    #[test]
    fn a_corrupted_reference_fails_the_check_and_an_honest_one_passes() {
        let w = workload("tiny_adhoc");
        for (corrupt, failures) in [(false, 0), (true, 2)] {
            let plan = Plan::new(w, 1, corrupt);
            let (mut live, _) = Live::start(&plan).expect("an in-process engine starts");
            let full = live.drive(&plan, Until::OnePass, true, None);
            let hashed = live.drive(&plan, Until::OnePass, false, None);
            assert_eq!(full.tally.attempted, 12);
            assert_eq!(full.tally.failed + hashed.tally.failed, failures);
            assert_eq!(full.first_failure.is_some(), corrupt);
            live.stop();
        }
    }
}
