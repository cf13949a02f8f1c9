//! Runs a tiny version of every workload through the runner's output checks
//! and its output schema: the last stdout line must be the result object
//! naming exactly the metrics `BENCHMARK.json` lists.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "sim-hr24-mlp",
    "tcp-fr1000",
    "tcp-cr16-wide",
    "tcp-tree-fr256",
];

fn runner(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_isgc-stepbench"))
        .args(args)
        .output()
        .expect("the runner starts")
}

/// The metric names of one section of `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

/// Runs one smoke workload and returns its stdout.
fn smoke(workload: &str, trace: &str) -> String {
    let out = runner(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.5",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check_schema(workload: &str, trace: &str, section: &str) {
    let stdout = smoke(workload, trace);
    let host = stdout
        .lines()
        .find(|l| l.starts_with("host {"))
        .expect("a host block");
    for key in ["nproc", "cpu", "rustc", "seed", "threads"] {
        assert!(
            host.contains(&format!("\"{key}\": ")),
            "host lacks {key}: {host}"
        );
    }
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: checks failed or schema broken:\n{stdout}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    let names = benchmark_names(section);
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} lacks {name}: {last}"
        );
    }
    assert_eq!(
        last.matches("\"value\": ").count(),
        names.len(),
        "{workload} reports metrics beyond BENCHMARK.json's {section}: {last}"
    );
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    for workload in WORKLOADS {
        check_schema(workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_reports_the_per_layer_metrics() {
    for workload in WORKLOADS {
        check_schema(workload, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "tcp-fr1000", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "tcp-fr1000",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = runner(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
