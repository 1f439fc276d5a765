//! `loadgen` — the command line of [`ltsp_bench::loadgen`]: closed-loop
//! load against `ltspc serve` or a cluster router.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--conns N] [--requests N] [--mix C:V:O]
//!         [--backend heuristic|exact|tiered] [--mode static|adaptive]
//!         [--corpus DIR] [--synthetic N] [--burst K] [--seed N] [--out FILE]
//!         [--timings] [--metrics-out FILE] [--fault-mode] [--shutdown]
//! ```
//!
//! Each flag sets the [`Plan`] field of its name (`--corpus ''` means no
//! on-disk corpus). The report is written to `--out` (default
//! `results/BENCH_serve.json`) and printed. `--metrics-out FILE` then
//! scrapes the daemon's `{"op":"metrics"}` Prometheus snapshot, writes it
//! to FILE and fails loudly when [`loadgen::cross_check`] finds it
//! disagreeing with the run. `--shutdown` drains the server at the end.
//!
//! Exit codes: 0 ok; 1 error responses outside `--fault-mode`, no upgrade
//! landed within the poll budget (`--backend tiered`, `--mode adaptive`),
//! or the metrics disagree; 2 usage; 3 corpus, connection (a wedged one
//! included) or output-file failure.

use std::process::exit;

use ltsp_bench::loadgen::{self, Plan, DEADLINE};
use ltsp_server::client::Client;
use ltsp_telemetry::prom::PromSnapshot;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--conns N] [--requests N] [--mix C:V:O]\n\
         \x20              [--backend heuristic|exact|tiered] [--mode static|adaptive]\n\
         \x20              [--corpus DIR] [--synthetic N] [--burst K] [--seed N]\n\
         \x20              [--out FILE] [--timings] [--metrics-out FILE]\n\
         \x20              [--fault-mode] [--shutdown]"
    );
    exit(2);
}

/// A flag's value, parsed; a missing or malformed one is a usage error.
fn value<T: std::str::FromStr>(v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

/// The plan plus what the binary does around it: the report path, the
/// metrics path and the final drain.
fn parse_args() -> (Plan, String, Option<String>, bool) {
    let mut p = Plan::default();
    let (mut out, mut metrics_out, mut shutdown) =
        ("results/BENCH_serve.json".to_string(), None, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => p.addr = args.next().unwrap_or_else(|| usage()),
            "--conns" => p.conns = value::<usize>(args.next()).max(1),
            "--requests" => p.requests = value(args.next()),
            "--mix" => {
                let v = args.next().unwrap_or_else(|| usage());
                let parts: Vec<u64> = v.split(':').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 3 || parts.iter().sum::<u64>() == 0 {
                    usage()
                }
                p.mix = (parts[0], parts[1], parts[2]);
            }
            "--backend" => p.backend = Some(value(args.next())),
            "--mode" => p.mode = Some(value(args.next())),
            "--corpus" => p.corpus = args.next().unwrap_or_else(|| usage()),
            "--burst" => p.burst = value(args.next()),
            "--synthetic" => p.synthetic = value(args.next()),
            "--seed" => p.seed = value(args.next()),
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--timings" => p.timings = true,
            "--metrics-out" => metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--fault-mode" => p.fault_mode = true,
            "--shutdown" => shutdown = true,
            _ => usage(),
        }
    }
    if let Err(e) = p
        .mode
        .unwrap_or_default()
        .check(p.backend.unwrap_or_default())
    {
        eprintln!("loadgen: {e}");
        exit(2);
    }
    (p, out, metrics_out, shutdown)
}

fn main() {
    let (plan, out, metrics_out, shutdown) = parse_args();
    let report = loadgen::run(&plan).unwrap_or_else(|e| {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        if matches!(e.kind(), WouldBlock | TimedOut) {
            eprintln!("loadgen: connection wedged (no response within deadline): {e}");
        } else {
            eprintln!("loadgen: {e}");
        }
        exit(3);
    });
    for (what, poll) in [("tiered", report.tiered), ("adaptive", report.adaptive)] {
        if let Some(p) = poll.filter(|p| p.upgraded_observed == 0) {
            eprintln!(
                "loadgen: no upgraded {what} cache entries after {} poll rounds",
                p.rounds
            );
            exit(1);
        }
    }

    let json = report.to_json();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("loadgen: cannot write {out}: {e}");
        exit(3);
    }
    print!("{json}");

    // The observability cross-check: scrape the daemon's own metrics
    // (before shutdown) and fail loudly when they disagree with what the
    // load generator just saw.
    if let Some(path) = &metrics_out {
        let text = Client::connect(&plan.addr, Some(DEADLINE))
            .and_then(|mut c| c.metrics_text("loadgen-metrics"))
            .unwrap_or_else(|e| {
                eprintln!("loadgen: metrics scrape failed: {e}");
                exit(1);
            });
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("loadgen: cannot write {path}: {e}");
            exit(3);
        }
        let snap = PromSnapshot::parse(&text).unwrap_or_else(|e| {
            eprintln!("loadgen: metrics snapshot malformed: {e}");
            exit(1);
        });
        if let Err(bad) = loadgen::cross_check(&report, &snap) {
            for why in bad {
                eprintln!("loadgen: {why}");
            }
            eprintln!("loadgen: metrics disagree with load-generator accounting");
            exit(1);
        }
        eprintln!("loadgen: metrics cross-check ok ({path})");
    }

    if shutdown {
        if let Ok(mut c) = Client::connect(&plan.addr, Some(DEADLINE)) {
            let _ = c.shutdown("loadgen-shutdown");
        }
    }

    // Contained handler panics surface as `error` responses — under
    // fault injection that is the success criterion, not a failure.
    let error = report.status.error;
    if error > 0 && !plan.fault_mode {
        eprintln!("loadgen: {error} error responses");
        exit(1);
    }
}
