//! `ltspd` — the compilation-as-a-service daemon.
//!
//! ```text
//! ltspd [--addr HOST:PORT] [--jobs N] [--batch N] [--queue N]
//!       [--outbound N] [--write-deadline-ms MS]
//!       [--cache-bytes N] [--result-cache-bytes N]
//!       [--oracle-budget NODES] [--oracle-deadline-ms MS]
//!       [--flight-dir DIR] [--flight-len N] [--persist FILE]
//!       [--persist-warn-mb N]
//!       [--trace-out FILE] [--metrics-out FILE] [-v]
//! ```
//!
//! Serves the wire protocol documented in `ltsp_server::proto` until a
//! client sends `{"op":"shutdown"}` or the process receives
//! SIGTERM/SIGINT, then drains gracefully (in-flight and queued
//! requests complete) and exits 0. `--oracle-deadline-ms 0` removes the
//! default per-request oracle wall-clock budget. Telemetry artifacts
//! (request trace, cache counters) are written at drain.
//!
//! `--write-deadline-ms` bounds how long a single response write may
//! stall on a non-reading client before the connection is shed;
//! `--outbound` caps each connection's outbound response queue. The
//! `LTSP_FAULT` environment variable (see `ltsp_server::fault`) turns
//! on deterministic fault injection for chaos testing.
//!
//! `--persist FILE` puts an append-only disk tier (see
//! `ltsp_cache::persist`) behind the result cache: every newly computed
//! result is logged, and a restarted daemon replays the log before
//! accepting connections, serving warm from the first request.
//! `--persist-warn-mb N` logs one loud warning when the log grows past
//! N MiB (the size is always exported: the persist-log gauge of the
//! `stats` and `metrics` ops).
//!
//! `--flight-dir` enables the flight recorder's dump-to-disk path: the
//! last `--flight-len` request lifecycles (default 256) are written as
//! JSONL whenever a contained panic, injected fault, dispatcher death,
//! or write-deadline shed fires (see `ltsp_server::flight`). A live
//! Prometheus snapshot is always available via `{"op":"metrics"}` /
//! `ltspc remote ADDR --op metrics`.

use std::process::ExitCode;

use ltsp_par::parse_jobs;
use ltsp_server::{serve, EngineConfig, FaultPlan, ServerConfig};
use ltsp_telemetry::Telemetry;

fn usage() -> ! {
    eprintln!(
        "usage: ltspd [--addr HOST:PORT] [--jobs N] [--batch N] [--queue N]\n\
         \x20            [--outbound N] [--write-deadline-ms MS]\n\
         \x20            [--cache-bytes N] [--result-cache-bytes N]\n\
         \x20            [--oracle-budget NODES] [--oracle-deadline-ms MS]\n\
         \x20            [--flight-dir DIR] [--flight-len N] [--persist FILE]\n\
         \x20            [--persist-warn-mb N]\n\
         \x20            [--trace-out FILE] [--metrics-out FILE] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn num<T: std::str::FromStr>(v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig {
        jobs: ltsp_par::default_parallelism(),
        handle_signals: true,
        ..ServerConfig::default()
    };
    let mut engine = EngineConfig::default();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut verbose = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => cfg.addr = args.next().unwrap_or_else(|| usage()),
            "--jobs" => {
                cfg.jobs = parse_jobs(&args.next().unwrap_or_else(|| usage())).unwrap_or_else(|e| {
                    eprintln!("ltspd: {e}");
                    std::process::exit(2);
                })
            }
            "--batch" => cfg.batch_max = num::<usize>(args.next()).max(1),
            "--queue" => cfg.queue_high_water = num::<usize>(args.next()).max(1),
            "--outbound" => cfg.outbound_max = num::<usize>(args.next()).max(1),
            "--write-deadline-ms" => {
                cfg.write_deadline =
                    std::time::Duration::from_millis(num::<u64>(args.next()).max(1))
            }
            "--cache-bytes" => engine.compile_cache_bytes = num(args.next()),
            "--result-cache-bytes" => engine.result_cache_bytes = num(args.next()),
            "--oracle-budget" => engine.oracle_node_budget = num(args.next()),
            "--oracle-deadline-ms" => {
                engine.oracle_deadline_ms = match num::<u64>(args.next()) {
                    0 => None,
                    ms => Some(ms),
                }
            }
            "--flight-dir" => {
                engine.flight_dir = Some(args.next().unwrap_or_else(|| usage()).into())
            }
            "--flight-len" => engine.flight_len = num::<usize>(args.next()).max(1),
            "--persist" => {
                engine.persist_path = Some(args.next().unwrap_or_else(|| usage()).into())
            }
            "--persist-warn-mb" => {
                engine.persist_warn_bytes = Some(num::<u64>(args.next()).max(1) << 20)
            }
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "-v" | "--verbose" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    cfg.engine = engine;
    cfg.fault = FaultPlan::from_env().unwrap_or_else(|e| {
        eprintln!("ltspd: {e}");
        std::process::exit(2);
    });
    if cfg.fault.is_active() {
        eprintln!("ltspd: LTSP_FAULT active — injecting deterministic faults");
    }
    let want_telemetry = trace_out.is_some() || metrics_out.is_some() || verbose;
    let tel = if want_telemetry {
        Telemetry::enabled_with(verbose)
    } else {
        Telemetry::disabled()
    };
    cfg.telemetry = tel.clone();

    eprintln!("ltspd: listening on {} (jobs={})", cfg.addr, cfg.jobs);
    if let Err(e) = serve(cfg) {
        eprintln!("ltspd: {e}");
        return ExitCode::from(3);
    }

    let mut ok = true;
    let mut write_artifact =
        |path: &Option<String>,
         what: &str,
         f: &dyn Fn(&mut dyn std::io::Write) -> std::io::Result<()>| {
            let Some(path) = path else { return };
            let res = std::fs::File::create(path)
                .map(std::io::BufWriter::new)
                .and_then(|mut w| f(&mut w));
            if let Err(e) = res {
                eprintln!("ltspd: cannot write {what} {path}: {e}");
                ok = false;
            }
        };
    write_artifact(&trace_out, "trace", &|w| tel.write_events_jsonl(w));
    write_artifact(&metrics_out, "metrics", &|w| tel.write_metrics_json(w));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
