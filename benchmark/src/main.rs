//! One run of one workload: set up, measure for `--seconds`, check every
//! answer, print every metric by name with its unit, and end standard
//! output with the result line `BENCHMARK.json`'s contract asks for.
//! `run.sh` is the entry point; without `--workload` it runs the suite.

mod alloc;
mod host;
mod layers;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Engine, Method, StagedCounts};
use stats::{geometric_mean, median, percentile, quartiles};
use trace::Recorder;
use workloads::{Action, Live, Plan, Tally, Until, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// An untraced run sets up at least `MIN_SETUPS` times, then again until
/// the set-ups have taken `SETUP_BUDGET_S` or `MAX_SETUPS` are done, so a
/// millisecond set-up is sampled often enough for a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET_S: f64 = 1.0;
/// Parts of the measured section; each end-to-end timing is the median
/// over the parts.
const SEGMENTS: usize = 5;
/// Operations of caller 0's sequence that a probe pass covers.
const PROBE_OPS: usize = 120;
/// `--smoke` divides the measuring time by this and sets up once.
const SMOKE_DIVISOR: f64 = 100.0;
/// Upper limit on probe passes in a traced run.
const MAX_PROBE_PASSES: usize = 200;
/// A run that is still going after this long ends itself as a failure:
/// the driver allows 180 s.
const GUARD: Duration = Duration::from_secs(170);
/// Seconds of loopback chatter before anything is timed (see `host.rs`).
const PRIME_S: f64 = 1.0;
/// Pings timed for `server.ping_us`.
const PINGS: usize = 200;
/// `university(n)` of the paper's C7 comparison.
const C7_SIZE: usize = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reference: bool,
    smoke: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: gq-benchmark --workload <analytic_scan|tiny_adhoc|serve_mixed|write_maintain> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--corrupt-reference] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_reference: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut named = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = *WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload `{name}`\n{USAGE}"))?;
                named = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--corrupt-reference" => args.corrupt_reference = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !named {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if args.smoke {
        args.seconds /= SMOKE_DIVISOR;
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run found, ready to print.
struct Outcome {
    tally: Tally,
    first_failure: Option<String>,
    metrics: Vec<Metric>,
    /// A JSON object of everything else worth keeping (sample counts,
    /// quartiles, per-operation rows); the suite stores it verbatim.
    detail: String,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kib / 1024.0)
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-template rows of caller 0: how often it ran, its median latency
/// and its share of the caller's busy time.
fn per_op_rows(plan: &Plan, latencies_ms: &[f64]) -> String {
    let ops = &plan.sequences[0].ops;
    let mut labels: Vec<&'static str> = Vec::new();
    for op in ops {
        if !labels.contains(&op.label) {
            labels.push(op.label);
        }
    }
    let total: f64 = latencies_ms.iter().sum();
    let rows: Vec<String> = labels
        .iter()
        .map(|&label| {
            let samples: Vec<f64> = latencies_ms
                .iter()
                .enumerate()
                .filter(|(i, _)| ops[i % ops.len()].label == label)
                .map(|(_, &ms)| ms)
                .collect();
            format!(
                "{{\"op\":{},\"samples\":{},\"median_ms\":{},\"share_of_time\":{}}}",
                json_string(label),
                samples.len(),
                median(&samples),
                samples.iter().sum::<f64>() / total
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The untraced run: the end-to-end metrics.
fn measure(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut first_failure = None;
    let mut setup_samples = Vec::new();
    let mut live: Option<Live> = None;
    loop {
        let spent: f64 = setup_samples.iter().sum();
        let enough = setup_samples.len() >= MIN_SETUPS
            && (spent >= SETUP_BUDGET_S || setup_samples.len() >= MAX_SETUPS);
        if enough || (args.smoke && !setup_samples.is_empty()) {
            break;
        }
        // The previous set-up goes before the next begins, so the peak
        // resident size is that of one loaded engine.
        if let Some(previous) = live.take() {
            previous.stop();
        }
        let (mut fresh, load_s) = Live::start(plan)?;
        let warm = fresh.drive(plan, Until::OnePass, true, None);
        // The warm-up costs what its slowest caller spent inside calls;
        // comparing whole tuples with the reference is not set-up.
        let warm_s = warm
            .latencies_ms
            .iter()
            .map(|l| l.iter().sum::<f64>() / 1e3)
            .fold(0.0, f64::max);
        setup_samples.push(load_s + warm_s);
        tally.add(warm.tally);
        first_failure = first_failure.or(warm.first_failure);
        live = Some(fresh);
    }
    let mut live = live.expect("at least one set-up ran");
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let run = live.drive(plan, Until::Deadline(deadline), false, None);
    tally.add(run.tally);
    first_failure = first_failure.or(run.first_failure.clone());
    let (views, view_failure) = live.check_views(plan);
    tally.add(views);
    first_failure = first_failure.or(view_failure);
    live.stop();

    if run.latencies_ms.iter().any(Vec::is_empty) {
        return Err("a caller completed no operation in the measured time".into());
    }
    let all: Vec<f64> = run.latencies_ms.iter().flatten().copied().collect();
    let parts = segments(plan, &run.latencies_ms);
    let over_parts = |f: fn(&Segment) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    let (q1, q3) = quartiles(&all);
    let detail = format!(
        "{{\"samples\":{},\"measured_s\":{},\"whole_run_ops_per_s\":{},\"whole_run_p99_ms\":{},\
         \"latency_q1_ms\":{},\"latency_q3_ms\":{},\"segment_ops_per_s\":{:?},\"segment_p99_ms\":{:?},\
         \"setup_samples_s\":{:?},\"callers\":{},\"per_op\":{}}}",
        all.len(),
        run.wall_s,
        run.ops_per_s(),
        percentile(&all, 99.0),
        q1,
        q3,
        parts.iter().map(|p| p.ops_per_s).collect::<Vec<_>>(),
        parts.iter().map(|p| p.p99_ms).collect::<Vec<_>>(),
        setup_samples,
        run.latencies_ms.len(),
        per_op_rows(plan, &run.latencies_ms[0]),
    );
    Ok(Outcome {
        tally,
        first_failure,
        metrics: vec![
            metric("ops_per_s", over_parts(|p| p.ops_per_s), "1/s"),
            metric("p50_ms", over_parts(|p| p.p50_ms), "ms"),
            metric("p99_ms", over_parts(|p| p.p99_ms), "ms"),
            metric("peak_rss_mb", peak_rss_mib()?, "MiB"),
            metric("setup_s", median(&setup_samples), "s"),
        ],
        detail,
    })
}

/// One of the consecutive parts the measured section is cut into.
struct Segment {
    /// Operations over the time the callers spent inside calls: what a
    /// closed loop without think time completes per second.
    ops_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Cut every caller's latencies, in call order, into [`SEGMENTS`] parts
/// of whole blocks, so each part holds the same mix of operations. The
/// run reports the median part: a stall of the host that lasts a second
/// or two spoils one part, not the run.
fn segments(plan: &Plan, latencies_ms: &[Vec<f64>]) -> Vec<Segment> {
    let blocks = |caller: usize| latencies_ms[caller].len() / plan.sequences[caller].stride;
    let fewest = (0..latencies_ms.len()).map(blocks).min().unwrap_or(0);
    let parts = SEGMENTS.min(fewest).max(1);
    (0..parts)
        .map(|part| {
            let mut samples = Vec::new();
            let mut ops_per_s = 0.0;
            for (caller, latencies) in latencies_ms.iter().enumerate() {
                let stride = plan.sequences[caller].stride;
                let at = |p: usize| blocks(caller) * p / parts * stride;
                let chunk = &latencies[at(part)..at(part + 1)];
                ops_per_s += chunk.len() as f64 / (chunk.iter().sum::<f64>() / 1e3);
                samples.extend_from_slice(chunk);
            }
            Segment {
                ops_per_s,
                p50_ms: percentile(&samples, 50.0),
                p99_ms: percentile(&samples, 99.0),
            }
        })
        .collect()
}

/// Microseconds spent in one probe pass, by span name.
type PassSums = BTreeMap<&'static str, f64>;

/// The layer probes of a traced run: caller 0's sequence once more, each
/// read also run stage by stage and (when served) over the wire, each
/// write also applied to a twin engine without views.
struct Probes {
    passes: Vec<PassSums>,
    reads: usize,
    writes: usize,
    /// Exact counts of the first pass, folded over its reads.
    counts: StagedCounts,
    tally: Tally,
    first_failure: Option<String>,
}

fn probe(
    live: &mut Live,
    plan: &Plan,
    twin: Option<&Engine>,
    deadline: Instant,
    rec: &mut Recorder,
) -> Probes {
    let sequence = &plan.sequences[0];
    let whole_blocks = PROBE_OPS.max(sequence.stride) / sequence.stride * sequence.stride;
    let ops = &sequence.ops[..whole_blocks.min(sequence.ops.len())];
    let mut probes = Probes {
        passes: Vec::new(),
        reads: 0,
        writes: 0,
        counts: StagedCounts::default(),
        tally: Tally::default(),
        first_failure: None,
    };
    let engine = live.engine.clone();
    let mut op_id = 0u32;
    while probes.passes.len() < MAX_PROBE_PASSES {
        let first_pass = probes.passes.is_empty();
        let from = rec.spans.len();
        for op in ops {
            op_id += 1;
            let parent = rec.open("benchmark.probe", op_id);
            let result: Result<(), String> = (|| {
                match &op.action {
                    Action::Read { text, .. } => {
                        // The whole query before and after its stages:
                        // whichever runs first meets cold caches, and the
                        // two orders average that out of the difference.
                        rec.span("core.query", parent, op_id, || engine.query(text))?;
                        let staged = engine.staged(text, rec, parent, op_id)?;
                        rec.span("core.query", parent, op_id, || engine.query(text))?;
                        if let Some(conn) = live.wire() {
                            rec.span("server.send", parent, op_id, || conn.send(text))?;
                        }
                        if first_pass {
                            probes.reads += 1;
                            probes.counts.absorb(staged);
                        }
                    }
                    Action::Write {
                        insert,
                        relation,
                        values,
                    } => {
                        rec.span("core.mutation", parent, op_id, || {
                            engine.write(*insert, relation, values)
                        })?;
                        let twin = twin.expect("a workload that writes has a twin");
                        rec.span("storage.write", parent, op_id, || {
                            twin.write(*insert, relation, values)
                        })?;
                        probes.writes += usize::from(first_pass);
                    }
                }
                Ok(())
            })();
            rec.close(parent);
            probes.tally.attempted += 1;
            if let Err(e) = result {
                probes.tally.failed += 1;
                probes
                    .first_failure
                    .get_or_insert(format!("probe of {}: {e}", op.label));
            }
        }
        let mut sums = PassSums::new();
        for span in &rec.spans[from..] {
            *sums.entry(span.name).or_default() += span.micros();
        }
        probes.passes.push(sums);
        if Instant::now() >= deadline {
            break;
        }
    }
    probes
}

/// The paper's claim C7 on `university(60)`: per suite text, the time of
/// the classical translation and of the nested-loop interpreter over the
/// time of the improved method (median of three); geometric means.
fn c7_ratios(seed: u64) -> Result<(f64, f64), String> {
    let engine = Engine::new(layers::generate(C7_SIZE, seed));
    let time = |text: &str, method: Method| -> Result<f64, String> {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let answer = engine.query_as(text, method)?;
            samples.push(start.elapsed().as_secs_f64());
            std::hint::black_box(answer.count());
        }
        Ok(median(&samples))
    };
    let (mut classical, mut nested_loop) = (Vec::new(), Vec::new());
    for &(_, text) in layers::suite() {
        let improved = time(text, Method::Improved)?;
        classical.push(time(text, Method::Classical)? / improved);
        nested_loop.push(time(text, Method::NestedLoop)? / improved);
    }
    Ok((geometric_mean(&classical), geometric_mean(&nested_loop)))
}

/// The traced run: the per-layer metrics. A fifth of the time runs the
/// workload untraced, a fifth with a span around every call, a fifth with
/// the allocator counting, and the rest probes the layers.
fn trace_layers(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let origin = Instant::now();
    let fifth = Duration::from_secs_f64(args.seconds / 5.0);
    let (mut live, _) = Live::start(plan)?;
    let mut tally = Tally::default();
    let warm = live.drive(plan, Until::OnePass, true, None);
    let untraced = live.drive(plan, Until::Deadline(Instant::now() + fifth), false, None);
    let traced = live.drive(
        plan,
        Until::Deadline(Instant::now() + fifth),
        false,
        Some(origin),
    );
    alloc::start();
    let counted = live.drive(plan, Until::Deadline(Instant::now() + fifth), false, None);
    let allocated = alloc::stop();
    let mut first_failure = None;
    for drive in [&warm, &untraced, &traced, &counted] {
        tally.add(drive.tally);
        first_failure = first_failure.or(drive.first_failure.clone());
    }
    let traced_ops_per_s = traced.ops_per_s();
    let counted_ops = counted.tally.attempted as f64;
    let mut recorders = traced.recorders;

    let writes = plan.sequences[0]
        .ops
        .iter()
        .any(|op| !matches!(op.action, Action::Read { .. }));
    let twin = writes.then(|| Engine::new(layers::generate(plan.workload.n, plan.seed)));
    let mut rec = Recorder::new(origin, recorders.len() as u32);
    let deadline = Instant::now() + 2 * fifth;
    let probes = probe(&mut live, plan, twin.as_ref(), deadline, &mut rec);
    tally.add(probes.tally);
    first_failure = first_failure.or(probes.first_failure.clone());
    let ping_us = match live.wire() {
        None => 0.0,
        Some(conn) => {
            for _ in 0..PINGS {
                rec.span("server.ping", trace::ROOT, 0, || conn.send(".ping"))?;
            }
            median(&rec.micros_of("server.ping"))
        }
    };
    let shed_share = live.shed_share();
    let (views, view_failure) = live.check_views(plan);
    tally.add(views);
    first_failure = first_failure.or(view_failure);
    live.stop();

    let data = layers::generate(plan.workload.n, plan.seed);
    let load_ns = data.load_ns_per_tuple();
    let index_ns = data.index_build_ns_per_tuple();
    let tuples = data.tuples();
    drop(data);
    let (c7_classical, c7_nested_loop) = c7_ratios(plan.seed)?;

    // Per layer: the median over the passes of the pass's total, divided
    // by the operations of that kind in a pass.
    let per = |name: &str, ops: usize| {
        if ops == 0 {
            return 0.0;
        }
        let totals: Vec<f64> = probes
            .passes
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&totals) / ops as f64
    };
    let (reads, write_ops) = (probes.reads, probes.writes);
    let parse = per("calculus.parse", reads);
    let normalize = per("rewrite.normalize", reads);
    let translate = per("translate.improved", reads);
    let optimize = per("algebra.optimize", reads);
    let evaluate = per("algebra.evaluate", reads);
    let query = per("core.query", 2 * reads);
    let unattributed = query - (parse + normalize + translate + optimize + evaluate);
    let mutation = per("core.mutation", write_ops);
    let storage_write = per("storage.write", write_ops);
    let send = per("server.send", reads);
    let overhead = if send > 0.0 { send - query } else { 0.0 };
    let counts = probes.counts;
    let mib = 1024.0 * 1024.0;
    let metrics = vec![
        metric("calculus.parse_us", parse, "us"),
        metric("rewrite.normalize_us", normalize, "us"),
        metric("rewrite.steps", counts.rewrite_steps as f64, "count"),
        metric("translate.improved_us", translate, "us"),
        metric("translate.plan_nodes", counts.plan_nodes as f64, "count"),
        metric("algebra.optimize_us", optimize, "us"),
        metric("algebra.evaluate_us", evaluate, "us"),
        metric(
            "algebra.evaluate_t1_us",
            per("algebra.evaluate_t1", reads),
            "us",
        ),
        metric(
            "algebra.base_tuples_read",
            counts.base_tuples_read as f64,
            "count",
        ),
        metric("algebra.probes", counts.probes as f64, "count"),
        metric("algebra.comparisons", counts.comparisons as f64, "count"),
        metric(
            "algebra.peak_intermediate_tuples",
            counts.peak_intermediate_tuples as f64,
            "count",
        ),
        metric("core.query_us", query, "us"),
        metric("core.unattributed_us", unattributed, "us"),
        metric("core.unattributed_share", unattributed / query, "ratio"),
        metric("core.mutation_us", mutation, "us"),
        metric("core.ivm_maintain_us", mutation - storage_write, "us"),
        metric("storage.write_us", storage_write, "us"),
        metric("storage.load_ns_per_tuple", load_ns, "ns"),
        metric("storage.index_build_ns_per_tuple", index_ns, "ns"),
        metric("server.ping_us", ping_us, "us"),
        metric("server.overhead_us", overhead, "us"),
        metric("server.shed_share", shed_share, "ratio"),
        metric(
            "alloc.count_per_op",
            allocated.calls as f64 / counted_ops,
            "1/op",
        ),
        metric(
            "alloc.bytes_per_op",
            allocated.bytes as f64 / counted_ops,
            "B/op",
        ),
        metric(
            "alloc.peak_live_mb",
            allocated.peak_live_bytes as f64 / mib,
            "MiB",
        ),
        metric("paper.c7_vs_classical", c7_classical, "ratio"),
        metric("paper.c7_vs_nested_loop", c7_nested_loop, "ratio"),
        metric(
            "trace.overhead_share",
            1.0 - traced_ops_per_s / untraced.ops_per_s(),
            "ratio",
        ),
    ];

    recorders.push(rec);
    let spans: usize = recorders.iter().map(|r| r.spans.len()).sum();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let trace_path = args.out.join(format!("trace-{}.json", plan.workload.name));
    std::fs::write(
        &trace_path,
        trace::chrome_trace(plan.workload.name, &recorders),
    )
    .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let detail = format!(
        "{{\"probe_passes\":{},\"reads_per_pass\":{reads},\"writes_per_pass\":{write_ops},\
         \"untraced_ops_per_s\":{},\"traced_ops_per_s\":{traced_ops_per_s},\"spans\":{spans},\
         \"tuples\":{tuples},\"trace_file\":{}}}",
        probes.passes.len(),
        untraced.ops_per_s(),
        json_string(&trace_path.display().to_string()),
    );
    Ok(Outcome {
        tally,
        first_failure,
        metrics,
        detail,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // The wall-clock guard: a run that outlives the driver's limit ends
    // as a failure instead of hanging.
    std::thread::spawn(|| {
        std::thread::sleep(GUARD);
        eprintln!("gq-benchmark: still running after {GUARD:?}; giving up");
        std::process::exit(3);
    });
    let priming = Duration::from_secs_f64(if args.smoke { PRIME_S / 4.0 } else { PRIME_S });
    if let Err(e) = host::prime(priming) {
        eprintln!("gq-benchmark: loopback chatter before the run: {e}");
        return ExitCode::from(1);
    }
    let plan = Plan::new(args.workload, args.seed, args.corrupt_reference);
    let outcome = if args.trace {
        trace_layers(&args, &plan)
    } else {
        measure(&args, &plan)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("gq-benchmark: {}: {message}", args.workload.name);
            return ExitCode::from(1);
        }
    };

    let Tally { attempted, failed } = outcome.tally;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {}  university(n={})  seed {}  {} s  trace {}  executor threads {} (pinned)  nproc {}",
        args.workload.name,
        args.workload.n,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        layers::THREADS,
        nproc,
    );
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<34} {:>16.6} ratio  ({failed} of {attempted})",
        "failed_share",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(failure) = &outcome.first_failure {
        println!("  first failure: {failure}");
    }
    println!(
        "detail {{\"workload\":{},\"n\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{},\"nproc\":{nproc},\"run\":{}}}",
        json_string(args.workload.name),
        args.workload.n,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        layers::THREADS,
        outcome.detail
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
