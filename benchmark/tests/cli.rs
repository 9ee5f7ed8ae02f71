//! The program end to end, in `--smoke` mode: the result line's shape,
//! and a wrong reference answer failing the run.

use std::process::Command;

/// Run the program in smoke mode; `test` names a trace directory of the
/// caller's own under the build's scratch space.
fn run(test: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let output = Command::new(env!("CARGO_BIN_EXE_gq-benchmark"))
        .args(args)
        .args(["--smoke", "--seconds", "10", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark program starts");
    (
        output.status.code(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

/// The whole number after `"key": ` in the result line.
fn number(line: &str, key: &str) -> u64 {
    let from = line
        .find(&format!("\"{key}\": "))
        .expect("the key is there")
        + key.len()
        + 4;
    line[from..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("a whole number")
}

#[test]
fn every_workload_passes_its_answer_checks_on_another_seed() {
    for workload in [
        "analytic_scan",
        "tiny_adhoc",
        "serve_mixed",
        "write_maintain",
    ] {
        let (code, stdout) = run(
            "seed2",
            &["--workload", workload, "--seed", "2", "--trace", "0"],
        );
        let last = stdout.lines().last().expect("a result line");
        assert_eq!(code, Some(0), "{workload}: {stdout}");
        assert!(
            last.starts_with("{\"correct\": true, "),
            "{workload}: {last}"
        );
        assert!(number(last, "attempted") >= 1);
        assert_eq!(number(last, "failed"), 0);
        for metric in ["ops_per_s", "p50_ms", "p99_ms", "peak_rss_mb", "setup_s"] {
            assert!(
                last.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{workload}: {last}"
            );
        }
    }
}

#[test]
fn the_traced_run_reports_layer_metrics_and_writes_no_end_to_end_ones() {
    let (code, stdout) = run("traced", &["--workload", "write_maintain", "--trace", "1"]);
    let last = stdout.lines().last().expect("a result line");
    assert_eq!(code, Some(0), "{stdout}");
    for metric in [
        "core.mutation_us",
        "core.ivm_maintain_us",
        "storage.write_us",
        "trace.overhead_share",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{last}"
        );
    }
    assert!(!last.contains("\"ops_per_s\""));
}

#[test]
fn a_corrupted_reference_answer_raises_failed_and_the_exit_code() {
    let (code, stdout) = run(
        "corrupt",
        &[
            "--workload",
            "tiny_adhoc",
            "--trace",
            "0",
            "--corrupt-reference",
        ],
    );
    let last = stdout.lines().last().expect("a result line");
    assert_eq!(code, Some(1), "{stdout}");
    assert!(last.starts_with("{\"correct\": false, "), "{last}");
    assert!(number(last, "failed") >= 1);
    assert!(stdout.contains("first failure: neg-filter"));
}

#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let (code, stdout) = run("unknown", &["--workload", "no_such_workload"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
}
