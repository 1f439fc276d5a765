//! `run --all --quick`, twice: every workload runs, every output check
//! passes, and every exact count repeats. Also holds the driver line of a
//! single-workload run against the catalogue.

use std::path::{Path, PathBuf};
use std::process::Command;

use ltsp_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use ltsp_benchmark::results::ResultFile;
use ltsp_telemetry::json::{self, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_ltsp-benchmark");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltsp-bench-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_all(out: &Path, traced: bool) -> ResultFile {
    let mut cmd = Command::new(BIN);
    cmd.args(["run", "--all", "--quick", "--seed", "42", "--out-dir"])
        .arg(out);
    if traced {
        cmd.arg("--traced");
    }
    let status = cmd.status().expect("spawn the harness");
    assert!(status.success(), "run --all --quick exited {status}");
    let name = if traced {
        "results-traced.json"
    } else {
        "results.json"
    };
    let text = std::fs::read_to_string(out.join(name)).expect("a merged result file");
    ResultFile::parse(&text).expect("a well-formed result file")
}

#[test]
fn quick_runs_repeat_every_exact_count() {
    let (dir_a, dir_b) = (scratch("a"), scratch("b"));
    let started = std::time::Instant::now();
    let a = run_all(&dir_a, false);
    let elapsed = started.elapsed();
    let b = run_all(&dir_b, false);
    assert_eq!(
        a.workloads.keys().collect::<Vec<_>>().len(),
        WORKLOADS.len()
    );
    for name in WORKLOADS {
        let (wa, wb) = (&a.workloads[name], &b.workloads[name]);
        assert_eq!(wa.failed, 0, "{name}");
        assert!(wa.attempted > 0, "{name}");
        assert!(!wa.exact.is_empty(), "{name} reports exact counts");
        assert_eq!(wa.exact, wb.exact, "{name}: exact counts repeat");
        for d in &END_TO_END {
            assert!(wa.metrics[d.name].0 > 0.0, "{name}: {} is never 0", d.name);
        }
    }
    assert!(
        elapsed.as_secs() < 30,
        "a quick run of everything took {elapsed:?}"
    );

    // The files of one commit, host and seed compare clean on counts.
    let status = Command::new(BIN)
        .arg("compare")
        .arg(dir_a.join("results.json"))
        .arg(dir_a.join("results.json"))
        .status()
        .unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn traced_quick_run_writes_spans_and_repeats_the_simulated_counters() {
    let (dir_a, dir_b) = (scratch("ta"), scratch("tb"));
    let a = run_all(&dir_a, true);
    let b = run_all(&dir_b, true);
    for name in WORKLOADS {
        let w = &a.workloads[name];
        assert_eq!(w.failed, 0, "{name}");
        assert!(w.metrics.contains_key("bench.trace_overhead_pct"), "{name}");
        let trace = std::fs::read_to_string(dir_a.join(format!("trace-{name}.jsonl"))).unwrap();
        let first = json::parse(trace.lines().next().expect("spans")).unwrap();
        for key in ["name", "start_ns", "end_ns", "parent", "op_id"] {
            assert!(first.get(key).is_some(), "{name}: span field {key}");
        }
    }
    // A simulator-speed change must leave all twenty identical; so must
    // running the same thing twice.
    for name in ["sim_stream", "sim_lowtrip"] {
        let counters = |r: &ResultFile| -> Vec<(String, f64)> {
            r.workloads[name]
                .metrics
                .iter()
                .filter(|(k, (_, unit))| k.starts_with("memsim.") && unit == "count")
                .map(|(k, (v, _))| (k.clone(), *v))
                .collect()
        };
        assert_eq!(counters(&a).len(), 20, "{name}");
        assert_eq!(counters(&a), counters(&b), "{name}");
    }
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

fn driver_line(workload: &str, trace: &str, out: &Path) -> JsonValue {
    let output = Command::new(BIN)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", trace, "--out-dir"])
        .arg(out)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    json::parse(stdout.lines().last().expect("a last line")).expect("the last line is JSON")
}

#[test]
fn the_driver_line_has_exactly_the_contracted_keys_and_metrics() {
    let dir = scratch("line");
    for (trace, defs) in [("0", &END_TO_END[..]), ("1", PER_LAYER)] {
        let line = driver_line("compile_small", trace, &dir);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        assert!(line.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
        let metrics = line.get("metrics").and_then(JsonValue::as_object).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>());
        for ((_, m), d) in metrics.iter().zip(defs) {
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(d.unit));
            assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_arguments_are_usage_errors_not_results() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["run", "--all", "--workload", "sim_stream"],
        &["run", "--workload", "sim_stream", "--trace", "2"],
        &["compare", "only-one.json"],
        &["frobnicate"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
