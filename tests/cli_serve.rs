//! `ltspc` usage errors and `ltspc serve` end to end: an unknown flag, a
//! zero where the daemon needs at least one, and a per-process file asked
//! of a whole cluster exit 2 before anything binds or is read; a compile
//! served by `ltspc serve` and fetched with `ltspc remote` is byte-identical
//! to the local compile. The daemon drills drive a spawned `ltspc serve`
//! through the load generator (`ltsp_bench::loadgen`): a cold and an
//! all-warm pass, tiered and adaptive upgrades that land, and injected
//! faults that are contained, traced and dumped; each drains within 30 s
//! and writes what `--metrics-out`/`--trace-out` asked for.

mod common;

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use common::Serve;
use ltsp::telemetry::json;
use ltsp::telemetry::prom::PromSnapshot;
use ltsp_bench::loadgen::{self, Plan, Report};

fn ltspc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run ltspc")
}

fn serve(args: &[&str]) -> Output {
    ltspc(&[&["serve", "--addr", "127.0.0.1:0"][..], args].concat())
}

fn corpus(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("loops")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let saxpy = corpus("saxpy.loop");
    for args in [&["--speculate"][..], &["--bogus"], &[&saxpy, "--speculate"]] {
        let out = ltspc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: ltspc"), "{args:?}: {stderr}");
    }
    // `-` is stdin, not a flag.
    let out = Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .arg("-")
        .stdin(std::fs::File::open(&saxpy).expect("corpus loop"))
        .output()
        .expect("run ltspc -");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(out.stdout, ltspc(&[&saxpy]).stdout);
}

#[test]
fn zero_is_a_usage_error_where_the_daemon_needs_one() {
    for flag in [
        "--batch",
        "--queue",
        "--outbound",
        "--flight-len",
        "--write-deadline-ms",
        "--persist-warn-mb",
        "--jobs",
    ] {
        let out = serve(&[flag, "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        let diag = stderr.lines().next().unwrap_or_default();
        assert!(diag.contains(&flag[2..]), "names the flag: {stderr}");
    }
}

#[test]
fn a_cluster_refuses_per_process_files() {
    for args in [
        ["--flight-dir", "d"],
        ["--trace-out", "t.jsonl"],
        ["--metrics-out", "m.json"],
        ["--persist", "p.log"],
    ] {
        let out = serve(&[&["--cluster", "2"][..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let diag = stderr.lines().next().unwrap_or_default();
        assert!(diag.contains(args[0]), "names the flag: {stderr}");
    }
}

#[test]
fn remote_compile_is_byte_identical_to_local() {
    let mut daemon = Serve::start(1, &["--jobs", "2"], &[]);
    for backend in ["heuristic", "exact"] {
        for name in ["saxpy.loop", "mcf_refresh.loop"] {
            let file = corpus(name);
            let local = ltspc(&[&file, "--backend", backend]);
            let remote = ltspc(&["remote", &daemon.addr, &file, "--backend", backend]);
            assert_eq!(local.status.code(), Some(0), "{name} {backend}: {local:?}");
            assert_eq!(
                remote.status.code(),
                Some(0),
                "{name} {backend}: {remote:?}"
            );
            assert!(!local.stdout.is_empty());
            assert_eq!(
                String::from_utf8_lossy(&remote.stdout),
                String::from_utf8_lossy(&local.stdout),
                "{name} under --backend {backend}: remote differs from local"
            );
        }
    }
    // The first adaptive answer is the fast static schedule; once the
    // refine worker upgrades the entry, the served report must be the
    // local `ltspc --adaptive` one (shared renderer).
    for name in ["saxpy.loop", "triad.loop"] {
        let file = corpus(name);
        let local = ltspc(&[&file, "--adaptive"]);
        assert_eq!(local.status.code(), Some(0), "{name}: {local:?}");
        let mut remote = Vec::new();
        for _ in 0..200 {
            remote = ltspc(&["remote", &daemon.addr, &file, "--mode", "adaptive"]).stdout;
            if remote == local.stdout {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert_eq!(
            String::from_utf8_lossy(&remote),
            String::from_utf8_lossy(&local.stdout),
            "{name} under --mode adaptive: served bytes never converged to local"
        );
    }
    let out = ltspc(&["remote", &daemon.addr, "--shutdown"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(daemon.exit_within(Duration::from_secs(30)).success());
}

/// A fresh directory for one test's files.
fn scratch(test: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ltsp-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.to_string_lossy().into_owned()
}

/// The closed-loop workload of the drills: the corpus on two connections.
fn plan(daemon: &Serve, requests: usize) -> Plan {
    Plan {
        addr: daemon.addr.clone(),
        conns: 2,
        requests,
        corpus: corpus(""),
        ..Plan::default()
    }
}

/// The daemon's metrics agree with what `report`'s run saw.
fn cross_check(report: &Report, daemon: &Serve) {
    let snap = PromSnapshot::parse(&daemon.metrics()).expect("well-formed exposition");
    if let Err(bad) = loadgen::cross_check(report, &snap) {
        panic!("metrics disagree with the load generator: {bad:#?}");
    }
}

/// Every request answered, none with an error or shed by backpressure.
fn assert_clean(report: &Report, responses: usize) {
    assert_eq!(report.responses, responses, "{report:?}");
    assert_eq!(report.status.error, 0, "{report:?}");
    assert_eq!(report.status.overloaded, 0, "{report:?}");
}

#[test]
fn a_cold_then_warm_load_is_counted_and_the_drain_writes_metrics() {
    let metrics = format!("{}/serve-metrics.json", scratch("serve-drill"));
    let mut daemon = Serve::start(1, &["--jobs", "2", "--metrics-out", &metrics], &[]);
    // Corpus plus scheduling-heavy kernels, with per-request timings.
    let cold_plan = Plan {
        synthetic: 4,
        timings: true,
        ..plan(&daemon, 60)
    };
    let cold = loadgen::run(&cold_plan).expect("cold pass");
    assert_clean(&cold, 120);
    assert!(cold.hits > 0, "no cache hit: {cold:?}");
    assert!(cold.phases.contains_key("handler"), "{:?}", cold.phases);
    cross_check(&cold, &daemon);

    // The exposition mid-load, through the CLI's own checker: every
    // compile and lifecycle phase histogram has samples.
    let phases = "parse,hlo,ddg,mrt,sched,regalloc,render,queue_wait,dispatch,handler,write";
    let probe = ["--op", "metrics", "--check-phases", phases];
    let out = ltspc(&[&["remote", &daemon.addr][..], &probe].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The same seed again: every key is cached and every connection is
    // a closed loop, so hits are answered on the readers' own threads
    // (the cross-check holds handler = queue_wait + served inline).
    let warm_plan = Plan {
        timings: false,
        ..cold_plan
    };
    let warm = loadgen::run(&warm_plan).expect("warm pass");
    assert_clean(&warm, 120);
    assert_eq!(warm.misses, 0, "{warm:?}");
    assert!(warm.served_inline > 0, "{warm:?}");
    cross_check(&warm, &daemon);

    assert!(daemon.drain().success());
    let written = std::fs::metadata(&metrics).map_or(0, |m| m.len());
    assert!(written > 0, "the drain wrote no --metrics-out");
}

/// Runs `plan` against a daemon that persists its cache (`args`) and
/// checks that at least one refinement landed and was counted; returns
/// the exposition after the run.
fn upgrades_land(args: &[&str], plan: impl Fn(&Serve) -> Plan, stamp: &str) -> String {
    let mut daemon = Serve::start(1, args, &[]);
    let report = loadgen::run(&plan(&daemon)).expect("load pass");
    assert_eq!(report.status.error, 0, "{report:?}");
    let poll = report.tiered.or(report.adaptive).expect("an upgrade poll");
    assert!(poll.upgraded_observed > 0, "no upgrade landed: {poll:?}");
    assert!(report.to_json().contains(stamp), "the record lacks {stamp}");
    let metrics = daemon.metrics();
    let applied = "ltsp_upgrades_total{event=\"applied\"}";
    assert!(metrics.contains(applied), "{metrics}");
    assert!(daemon.drain().success());
    metrics
}

#[test]
fn tiered_upgrades_land_and_are_counted() {
    let log = format!("{}/cache.log", scratch("tiered-drill"));
    let tiered = |daemon: &Serve| Plan {
        backend: Some("tiered".to_string()),
        ..plan(daemon, 60)
    };
    let args = ["--jobs", "2", "--persist", &log];
    upgrades_land(&args, tiered, "\"backend\": \"tiered\"");
}

#[test]
fn adaptive_upgrades_land_and_are_counted() {
    let log = format!("{}/cache.log", scratch("adaptive-drill"));
    let adaptive = |daemon: &Serve| Plan {
        mode: Some("adaptive".to_string()),
        ..plan(daemon, 60)
    };
    let args = ["--jobs", "2", "--persist", &log, "--persist-warn-mb", "64"];
    let metrics = upgrades_land(&args, adaptive, "\"mode\": \"adaptive\"");
    let gauge = metrics
        .lines()
        .any(|l| l.starts_with("ltsp_persist_log_bytes "));
    assert!(gauge, "no persist-log gauge: {metrics}");
}

/// Deterministic fault injection: handler panics and delays, connection
/// drops and torn writes, all a pure function of (seed, site, request
/// id). Every request is answered or dropped by a fault, none wedges; the
/// panics are contained, traced and dumped by the flight recorder; and
/// the drain stays bounded and writes the trace and metrics.
#[test]
fn faults_are_contained_traced_and_dumped() {
    let dir = scratch("chaos-drill");
    let [flight, trace, metrics] =
        ["flight", "trace.jsonl", "metrics.json"].map(|f| format!("{dir}/{f}"));
    let args = [
        "--jobs",
        "2",
        "--write-deadline-ms",
        "2000",
        "--flight-dir",
        &flight,
        "--trace-out",
        &trace,
        "--metrics-out",
        &metrics,
    ];
    let fault = "panic:0.05,slow:20ms@0.05,drop:0.03,short:0.1,seed:11";
    let mut daemon = Serve::start(1, &args, &[("LTSP_FAULT", fault)]);
    // The burst doubles as the slow-client drill: responses pile onto
    // per-connection outbound queues while the client is not reading.
    let chaos = Plan {
        conns: 4,
        burst: 8,
        synthetic: 2,
        fault_mode: true,
        ..plan(&daemon, 40)
    };
    let r = loadgen::run(&chaos).expect("no connection wedges under faults");
    assert_eq!(r.responses + r.fault.lost as usize, 4 * (40 + 8), "{r:?}");
    assert!(r.status.error > 0, "no injected panic was contained: {r:?}");
    assert!(r.fault.reconnects > 0, "no injected drop: {r:?}");
    assert!(r.status.ok > 0, "{r:?}");

    // Every injected panic dumped the lifecycle ring as JSONL.
    let mut records = 0;
    for dump in std::fs::read_dir(&flight).expect("flight dir") {
        let dump = dump.expect("flight dump").path();
        for line in std::fs::read_to_string(&dump).expect("read dump").lines() {
            let rec = json::parse(line).unwrap_or_else(|e| panic!("{dump:?}: {e}: {line}"));
            assert!(rec.get("id").is_some(), "{line}");
            let phases = rec.get("phases").expect("phase breakdown");
            assert!(phases.get("handler_us").is_some(), "{line}");
            records += 1;
        }
    }
    assert!(records > 0, "no flight dump despite injected panics");

    // The drain stays bounded under faults and writes both artifacts.
    assert!(daemon.drain().success());
    assert!(std::fs::metadata(&metrics).is_ok_and(|m| m.len() > 0));
    let trace = std::fs::read_to_string(&trace).expect("the drain wrote --trace-out");
    let events: Vec<_> = trace.lines().filter_map(|l| json::parse(l).ok()).collect();
    for kind in ["fault_injected", "request_panic"] {
        let seen = events
            .iter()
            .any(|e| e.get("type").and_then(|t| t.as_str()) == Some(kind));
        assert!(seen, "no {kind} event in the trace");
    }
}
