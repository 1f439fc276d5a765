//! `ltspc` — a command-line driver for the latency-tolerant pipelining
//! compiler: read a loop in the textual IR format, compile it under a
//! policy, and print the kernel schedule, assembly and (optionally) a
//! simulated execution.
//!
//! ```text
//! ltspc <file.loop | -> [--policy baseline|l3|fpl2|hlo] [--backend heuristic|exact|tiered]
//!       [--adaptive] [--trip N] [--threshold N] [--no-prefetch] [--balanced] [--speculate]
//!       [--budget NODES] [--asm] [--simulate ITERS]
//!       [--trace-out FILE] [--metrics-out FILE] [--chrome-trace FILE] [-v]
//! ltspc verify <file.loop | -> ... [--jobs N]   # certify heuristic schedules
//! ltspc oracle <file.loop | -> ... [--budget N] [--jobs N]  # prove minimal IIs
//! ltspc serve [--addr HOST:PORT] [--jobs N] [--persist FILE] ...  # ltspd daemon
//! ltspc serve --cluster N [--persist-dir DIR] ...  # router + N shard processes
//! ltspc remote <addr> <file.loop>... [--op compile|verify|oracle]
//!       [--backend heuristic|exact|tiered]
//!       [--timeout SECS] [--retries N] [--timings] [--shutdown]
//! ltspc remote <addr> --op metrics [--check-phases p1,p2,...]
//! ltspc remote <addr> --op stats
//! ltspc top <addr> [--interval-ms MS] [--count N]  # live dashboard
//! ```
//!
//! `verify` pipelines each loop at base latencies and runs the independent
//! schedule validator over the result; `oracle` additionally proves the
//! minimal feasible II and reports the heuristic's optimality gap. Both
//! subcommands accept **multiple** input files, processed on `--jobs N`
//! worker threads (default: the machine's available parallelism); output
//! is printed in input order whatever the worker count, and the exit code
//! is the first failing file's.
//!
//! `--backend` picks the scheduling backend for a compile. `heuristic`
//! (the default) is the production modulo scheduler; `exact` runs the
//! oracle's residue-level branch-and-bound as a full backend — slot
//! assignment and rotating-register feasibility checked inside the
//! search, the emitted kernel re-certified by the independent validator,
//! and the report stating whether the II is *proven* minimal. Locally,
//! `tiered` is served by the same exact path (the heuristic-now /
//! exact-later split only means something with a daemon in front, where
//! the upgrade lands asynchronously in the cache); `ltspc` notes the
//! aliasing on stderr. `remote --backend ...` forwards the choice on the
//! wire — `tiered` there answers heuristically and upgrades the cache
//! entry in place once refinement lands (resend to observe
//! `cache:"upgraded"`).
//!
//! `--adaptive` closes the feedback loop locally: the scheduled kernel
//! runs on the memory simulator, observed service levels become refined
//! per-instruction latency hints (and expose droppable redundant
//! prefetches), and the loop is re-pipelined to a bounded, certified
//! fixpoint (`ltsp_adaptive`). The printed round trace and kernel are
//! byte-identical to the converged bytes a daemon's refine worker
//! installs for `remote --mode adaptive` (or `remote --adaptive`)
//! requests — there, the first response is the fast static schedule and
//! a resend after refinement observes `cache:"upgraded"`.
//!
//! `serve` runs the compilation daemon in-process (same flags as
//! `ltspd`); `--persist FILE` adds the append-only warm-start cache log
//! (`ltsp_cache::persist`), and `--persist-warn-mb N` logs a loud
//! warning (once) when that log grows past N MiB — the size is also
//! exported as the `ltsp_persist_log_bytes` gauge. `serve --cluster N`
//! instead supervises a whole cluster: N `ltspc serve` shard processes
//! on consecutive ports
//! plus the consistent-hash router (`ltsp_cluster`) on `--addr`, with
//! `--persist-dir DIR` giving every shard its own warm-start log.
//! Crashed shards are respawned (warm, from their log) and a client
//! `shutdown` or SIGTERM drains the whole tree. `remote` ships loop
//! files to a running daemon over the
//! line-delimited JSON protocol and prints each response's report —
//! byte-identical to what the local compile path prints, which CI
//! checks. `--shutdown` drains the server after the last file.
//!
//! `remote --op metrics` needs no files: it prints the daemon's live
//! Prometheus text snapshot (see `ltsp_server::engine`) to stdout, and
//! `--check-phases parse,sched,...` additionally fails with exit 1 when
//! any named per-phase latency histogram has no samples — the CI smoke
//! check that observability is actually wired. `--op stats` prints the
//! raw stats response line. `--timings` sets the opt-in request flag so
//! each response carries its per-phase breakdown, echoed to stderr.
//! `top` polls the metrics op and renders a one-screen dashboard
//! (request rates, cache hit ratio, queue depth, per-phase p50/p99,
//! shed/panic counters) every `--interval-ms` (default 1000),
//! `--count` times (default: until interrupted).
//!
//! `remote` never hangs on a stalled or wedged server: `--timeout SECS`
//! (default 30, `0` disables) bounds the connect, every request write,
//! and every response read. `--retries N` (default 4) bounds two retry
//! classes sharing one capped exponential backoff schedule (100ms ·
//! 2^attempt, at most 2s): an `overloaded` response is re-sent after a
//! breather, and a *dead connection* (connect refused, reset, broken
//! pipe, server EOF — a crashed or restarting server) is retried by
//! reconnecting and re-sending, which is safe because responses are
//! pure functions of requests. Exhausted retries exit 6 (overloaded) or
//! 3 (I/O). A `draining` response exits 6 immediately — the server is
//! deliberately going away, and a retry against the same address cannot
//! succeed. Deadline expiries are never retried: the server may still
//! be working, and `--timeout` owns that policy.
//!
//! Exit codes are distinct per failure class so scripts can dispatch:
//! `0` success (schedule certified / oracle verdict exact), `1` validator
//! rejection or budget-limited oracle verdict, `2` usage error, `3` I/O
//! error, `4` syntax error in the input (reported as `file:line:
//! message`), `5` structurally invalid loop, `6` server overloaded or
//! draining (`remote` only — retry later).
//!
//! The telemetry flags record the compiler's decision trail — HLO hint
//! heuristics, criticality verdicts, latency boosts, II escalations,
//! register-pressure fallbacks — plus per-phase timing and simulator
//! cycle accounting. `--trace-out` writes JSONL events, `--metrics-out`
//! a JSON metrics snapshot, `--chrome-trace` a Chrome `trace_event` file
//! loadable in Perfetto (ui.perfetto.dev); `-v` renders events on stderr.
//!
//! Example input (see `ltsp_ir::parse_loop` for the grammar):
//!
//! ```text
//! loop example {
//!   live_in g0
//!   m0: "a[i]" [int affine(base=0x1000, stride=256) 4B]
//!   m1: "y[i]" [int affine(base=0x2000000, stride=4) 4B]
//!   i0: ld g1 = @m0
//!   i1: add g2 = g1, g0
//!   i2: st g2 @m1
//! }
//! ```

use std::io::Read as _;
use std::process::ExitCode;

use ltsp::core::{compile_loop_observed, CompileConfig, LatencyPolicy};
use ltsp::ir::parse_loop;
use ltsp::machine::MachineModel;
use ltsp::memsim::{Executor, ExecutorConfig, StreamMode};
use ltsp::oracle::OracleOptions;
use ltsp::pipeliner::{assign_registers, emit_kernel, form_bundles};
use ltsp::telemetry::{Observer, Telemetry};

struct Options {
    input: String,
    policy: LatencyPolicy,
    backend: ltsp::server::Backend,
    adaptive: bool,
    budget: u64,
    trip: f64,
    threshold: u32,
    prefetch: bool,
    balanced: bool,
    speculate: bool,
    asm: bool,
    simulate: Option<u64>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    chrome_trace: Option<String>,
    verbose: bool,
}

/// Exit codes: one per failure class (see the module docs).
const EXIT_REJECTED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_IO: u8 = 3;
const EXIT_SYNTAX: u8 = 4;
const EXIT_INVALID: u8 = 5;
const EXIT_BUSY: u8 = 6;

fn usage() -> ! {
    eprintln!(
        "usage: ltspc <file.loop | -> [--policy baseline|l3|fpl2|hlo] [--trip N]\n\
         \x20             [--backend heuristic|exact|tiered] [--adaptive] [--budget NODES]\n\
         \x20             [--threshold N] [--no-prefetch] [--balanced] [--speculate]\n\
         \x20             [--asm] [--simulate ITERS]\n\
         \x20             [--trace-out FILE] [--metrics-out FILE]\n\
         \x20             [--chrome-trace FILE] [-v|--verbose]\n\
         \x20      ltspc verify <file.loop | -> ... [--jobs N]\n\
         \x20      ltspc oracle <file.loop | -> ... [--budget NODES] [--jobs N]\n\
         \x20      ltspc serve [--addr HOST:PORT] [--jobs N] [--queue N] [--batch N]\n\
         \x20            [--cluster N] [--persist FILE] [--persist-dir DIR]\n\
         \x20            [--persist-warn-mb N] [-v]\n\
         \x20      ltspc remote <addr> <file.loop>... [--op compile|verify|oracle]\n\
         \x20            [--backend heuristic|exact|tiered] [--mode static|adaptive]\n\
         \x20            [--adaptive] [--policy P] [--trip N]\n\
         \x20            [--budget NODES] [--deadline-ms MS]\n\
         \x20            [--timeout SECS] [--retries N] [--timings] [--shutdown]\n\
         \x20      ltspc remote <addr> --op metrics [--check-phases p1,p2,...]\n\
         \x20      ltspc remote <addr> --op stats\n\
         \x20      ltspc top <addr> [--interval-ms MS] [--count N] [--timeout SECS]"
    );
    std::process::exit(i32::from(EXIT_USAGE));
}

/// Reads and parses one input, mapping each failure class to a
/// `(message, exit_code)` pair so batch mode can buffer diagnostics per
/// file. Syntax errors are reported as `file:line: message` so editors
/// and CI annotations can jump to the offending line.
fn read_and_parse(input: &str) -> Result<ltsp::ir::LoopIr, (String, u8)> {
    let (name, text) = if input == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            return Err(("ltspc: failed to read stdin".to_string(), EXIT_IO));
        }
        ("<stdin>", s)
    } else {
        match std::fs::read_to_string(input) {
            Ok(s) => (input, s),
            Err(e) => return Err((format!("ltspc: cannot read {input}: {e}"), EXIT_IO)),
        }
    };
    match parse_loop(&text) {
        Ok(lp) => Ok(lp),
        Err(ltsp::ir::ParseError::Syntax { line, message }) => {
            Err((format!("{name}:{line}: {message}"), EXIT_SYNTAX))
        }
        Err(ltsp::ir::ParseError::Invalid(e)) => {
            Err((format!("{name}: invalid loop: {e}"), EXIT_INVALID))
        }
    }
}

/// One batch item's buffered result: stdout/stderr text plus the exit
/// code the file would have produced alone. Buffering keeps parallel
/// output identical to serial — results print in input order.
struct FileOutcome {
    out: String,
    err: String,
    code: u8,
}

/// `ltspc verify`, one file: certify the heuristic pipeliner's schedule
/// with the independent validator.
fn verify_one(input: &str) -> FileOutcome {
    use std::fmt::Write as _;
    let lp = match read_and_parse(input) {
        Ok(lp) => lp,
        Err((msg, code)) => {
            return FileOutcome {
                out: String::new(),
                err: msg + "\n",
                code,
            }
        }
    };
    let machine = MachineModel::itanium2();
    let tel = Telemetry::disabled();
    let r = ltsp::oracle::differential_case(&lp, &machine, &OracleOptions::default(), &tel);
    let mut o = FileOutcome {
        out: String::new(),
        err: String::new(),
        code: 0,
    };
    if r.violations.is_empty() {
        let _ = writeln!(
            o.out,
            "{}: certified (II={}, {})",
            r.name,
            r.heuristic_ii,
            if r.pipelined {
                "modulo schedule"
            } else {
                "acyclic fallback"
            }
        );
    } else {
        for v in &r.violations {
            let _ = writeln!(o.err, "{}: violation [{}]: {v}", r.name, v.kind());
        }
        o.code = EXIT_REJECTED;
    }
    o
}

/// `ltspc oracle`, one file: prove the minimal feasible II and report the
/// heuristic's optimality gap.
fn oracle_one(input: &str, budget: u64) -> FileOutcome {
    use std::fmt::Write as _;
    let lp = match read_and_parse(input) {
        Ok(lp) => lp,
        Err((msg, code)) => {
            return FileOutcome {
                out: String::new(),
                err: msg + "\n",
                code,
            }
        }
    };
    let machine = MachineModel::itanium2();
    let opts = OracleOptions {
        node_budget: budget,
        ..OracleOptions::default()
    };
    let tel = Telemetry::disabled();
    let r = ltsp::oracle::differential_case(&lp, &machine, &opts, &tel);
    let mut o = FileOutcome {
        out: String::new(),
        err: String::new(),
        code: 0,
    };
    for v in &r.violations {
        let _ = writeln!(o.err, "{}: violation [{}]: {v}", r.name, v.kind());
    }
    match &r.verdict {
        ltsp::oracle::IiVerdict::Exact {
            optimal_ii, nodes, ..
        } => {
            let gap = r.heuristic_ii - optimal_ii;
            let _ = writeln!(
                o.out,
                "{}: heuristic II={} optimal II={} gap={} ({} search nodes){}",
                r.name,
                r.heuristic_ii,
                optimal_ii,
                gap,
                nodes,
                if gap == 0 { " — proven optimal" } else { "" }
            );
            if !r.violations.is_empty() {
                o.code = EXIT_REJECTED;
            }
        }
        ltsp::oracle::IiVerdict::BoundedUnknown {
            proven_lower,
            nodes,
        } => {
            let _ = writeln!(
                o.out,
                "{}: heuristic II={}, optimal II in [{}, {}] — budget exhausted \
                 after {} nodes",
                r.name, r.heuristic_ii, proven_lower, r.heuristic_ii, nodes
            );
            o.code = EXIT_REJECTED;
        }
    }
    o
}

/// Runs a verify/oracle batch over `jobs` workers, prints every file's
/// buffered output in input order, and returns the first failing file's
/// exit code (success when all pass).
fn run_batch(inputs: &[String], jobs: usize, f: impl Fn(&str) -> FileOutcome + Sync) -> ExitCode {
    let outcomes = ltsp::par::Pool::new(jobs).map(inputs, |_idx, input| f(input));
    let mut code = 0u8;
    for o in &outcomes {
        print!("{}", o.out);
        eprint!("{}", o.err);
        if code == 0 {
            code = o.code;
        }
    }
    ExitCode::from(code)
}

fn parse_args() -> Options {
    let mut input = None;
    let mut o = Options {
        input: String::new(),
        policy: LatencyPolicy::HloHints,
        backend: ltsp::server::Backend::Heuristic,
        adaptive: false,
        budget: OracleOptions::default().node_budget,
        trip: 100.0,
        threshold: 32,
        prefetch: true,
        balanced: false,
        speculate: false,
        asm: false,
        simulate: None,
        trace_out: None,
        metrics_out: None,
        chrome_trace: None,
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--policy" => {
                o.policy = match args.next().as_deref() {
                    Some("baseline") => LatencyPolicy::Baseline,
                    Some("l3") => LatencyPolicy::AllLoadsL3,
                    Some("fpl2") => LatencyPolicy::AllFpLoadsL2,
                    Some("hlo") => LatencyPolicy::HloHints,
                    _ => usage(),
                }
            }
            "--backend" => {
                o.backend = match args.next().as_deref() {
                    Some("heuristic") => ltsp::server::Backend::Heuristic,
                    Some("exact") => ltsp::server::Backend::Exact,
                    Some("tiered") => ltsp::server::Backend::Tiered,
                    _ => usage(),
                }
            }
            "--budget" => {
                o.budget = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trip" => {
                o.trip = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threshold" => {
                o.threshold = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--adaptive" => o.adaptive = true,
            "--no-prefetch" => o.prefetch = false,
            "--balanced" => o.balanced = true,
            "--speculate" => o.speculate = true,
            "--asm" => o.asm = true,
            "--simulate" => {
                o.simulate = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace-out" => o.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => o.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--chrome-trace" => o.chrome_trace = Some(args.next().unwrap_or_else(|| usage())),
            "-v" | "--verbose" => o.verbose = true,
            "--help" | "-h" => usage(),
            other if input.is_none() => input = Some(other.to_string()),
            _ => usage(),
        }
    }
    o.input = input.unwrap_or_else(|| usage());
    o
}

/// `ltspc serve`: run the `ltspd` daemon in-process until drained —
/// or, with `--cluster N`, supervise a router plus N shard processes.
fn run_serve(argv: &[String]) -> ExitCode {
    let mut cfg = ltsp::server::ServerConfig {
        jobs: ltsp::par::default_parallelism(),
        handle_signals: true,
        ..ltsp::server::ServerConfig::default()
    };
    let mut verbose = false;
    let mut cluster: Option<usize> = None;
    let mut persist: Option<String> = None;
    let mut persist_dir: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--jobs" => {
                let v = it.next().cloned().unwrap_or_default();
                cfg.jobs = ltsp::par::parse_jobs(&v).unwrap_or_else(|e| {
                    eprintln!("ltspc: {e}");
                    std::process::exit(i32::from(EXIT_USAGE));
                })
            }
            "--queue" => {
                cfg.queue_high_water = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--batch" => {
                cfg.batch_max = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--cluster" => {
                cluster = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--persist" => persist = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--persist-dir" => persist_dir = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--persist-warn-mb" => {
                let mb: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
                cfg.engine.persist_warn_bytes = Some(mb << 20);
            }
            "-v" | "--verbose" => verbose = true,
            _ => usage(),
        }
    }

    if let Some(shards) = cluster {
        if persist.is_some() {
            eprintln!("ltspc: --persist is per-shard; use --persist-dir with --cluster");
            return ExitCode::from(EXIT_USAGE);
        }
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("ltspc: cannot locate own executable for shard spawn: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        // Shards inherit the serving knobs; the supervisor appends each
        // shard's --addr (router port + 1 + i) and --persist log path.
        let mut worker_args = vec![
            "serve".to_string(),
            "--jobs".to_string(),
            cfg.jobs.to_string(),
            "--queue".to_string(),
            cfg.queue_high_water.to_string(),
            "--batch".to_string(),
            cfg.batch_max.to_string(),
        ];
        if let Some(bytes) = cfg.engine.persist_warn_bytes {
            worker_args.push("--persist-warn-mb".to_string());
            worker_args.push((bytes >> 20).max(1).to_string());
        }
        if verbose {
            worker_args.push("--verbose".to_string());
        }
        let ccfg = ltsp::cluster::ClusterConfig {
            router: ltsp::cluster::RouterConfig {
                addr: cfg.addr.clone(),
                handle_signals: true,
                telemetry: if verbose {
                    Telemetry::enabled_with(true)
                } else {
                    Telemetry::disabled()
                },
                ..ltsp::cluster::RouterConfig::default()
            },
            shards,
            worker_exe: exe,
            worker_args,
            persist_dir: persist_dir.map(Into::into),
            ..ltsp::cluster::ClusterConfig::default()
        };
        return match ltsp::cluster::run_cluster(ccfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ltspc: serve --cluster: {e}");
                ExitCode::from(EXIT_IO)
            }
        };
    }
    if persist_dir.is_some() {
        eprintln!("ltspc: --persist-dir needs --cluster N; use --persist FILE for one process");
        return ExitCode::from(EXIT_USAGE);
    }

    cfg.engine.persist_path = persist.map(Into::into);
    cfg.fault = ltsp::server::FaultPlan::from_env().unwrap_or_else(|e| {
        eprintln!("ltspc: {e}");
        std::process::exit(i32::from(EXIT_USAGE));
    });
    if cfg.fault.is_active() {
        eprintln!("ltspc: LTSP_FAULT active — injecting deterministic faults");
    }
    cfg.telemetry = if verbose {
        Telemetry::enabled_with(true)
    } else {
        Telemetry::disabled()
    };
    eprintln!("ltspc: serving on {} (jobs={})", cfg.addr, cfg.jobs);
    match ltsp::server::serve(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ltspc: serve: {e}");
            ExitCode::from(EXIT_IO)
        }
    }
}

/// Connects under a deadline. `TcpStream::connect` alone can hang for
/// minutes on an unresponsive host; with a timeout every resolved
/// address gets at most `t` before the next is tried.
fn connect_with_timeout(
    addr: &str,
    timeout: Option<std::time::Duration>,
) -> std::io::Result<std::net::TcpStream> {
    use std::net::ToSocketAddrs as _;
    let Some(t) = timeout else {
        return std::net::TcpStream::connect(addr);
    };
    let mut last: Option<std::io::Error> = None;
    for a in addr.to_socket_addrs()? {
        match std::net::TcpStream::connect_timeout(&a, t) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    }))
}

/// Backoff before retry number `attempt` (0-based): 100ms · 2^attempt,
/// capped at 2s. Shared by the overloaded-retry and reconnect paths so
/// both honor the same documented schedule.
fn backoff_delay(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis((100u64 << attempt.min(5)).min(2000))
}

/// A transport error worth a reconnect-and-resend: the connection died
/// (crashed, restarting, or shed us) rather than stalled. Stalls
/// (`WouldBlock`/`TimedOut`) are deliberately excluded — the server may
/// still be working on the request, and `--timeout` owns that policy.
fn is_reconnectable(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind as K;
    matches!(
        kind,
        K::ConnectionRefused
            | K::ConnectionReset
            | K::ConnectionAborted
            | K::BrokenPipe
            | K::NotConnected
            | K::UnexpectedEof
    )
}

/// Opens the remote connection with every deadline applied.
fn open_conn(
    addr: &str,
    timeout: Option<std::time::Duration>,
) -> std::io::Result<(std::net::TcpStream, std::io::BufReader<std::net::TcpStream>)> {
    let stream = connect_with_timeout(addr, timeout)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let writer = stream.try_clone()?;
    Ok((writer, std::io::BufReader::new(stream)))
}

/// Tells a deadline expiry ("the server is wedged or slow — see
/// `--timeout`") apart from a genuinely lost connection.
fn report_net_error(doing: &str, what: &str, addr: &str, e: &std::io::Error, timeout_secs: u64) {
    if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut {
        eprintln!(
            "ltspc: timed out after {timeout_secs}s {doing} {what} \
             (server stalled; see --timeout)"
        );
    } else {
        eprintln!("ltspc: connection to {addr} lost {doing} {what}: {e}");
    }
}

/// `ltspc remote`: ship loop files to a running daemon, print each
/// response's report, map statuses back onto the local exit codes.
fn run_remote(argv: &[String]) -> ExitCode {
    use std::io::{BufRead as _, Write as _};

    let mut addr: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut op = "compile".to_string();
    let mut backend: Option<String> = None;
    let mut mode: Option<String> = None;
    let mut policy = "hlo".to_string();
    let mut trip: f64 = 100.0;
    let mut budget: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut timeout_secs: u64 = 30;
    let mut retries: u32 = 4;
    let mut shutdown = false;
    let mut timings = false;
    let mut check_phases: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--op" => {
                op = match it.next().map(String::as_str) {
                    Some(o @ ("compile" | "verify" | "oracle" | "metrics" | "stats")) => {
                        o.to_string()
                    }
                    _ => usage(),
                }
            }
            "--timings" => timings = true,
            "--check-phases" => {
                check_phases = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--policy" => {
                policy = match it.next().map(String::as_str) {
                    Some(p @ ("baseline" | "l3" | "fpl2" | "hlo")) => p.to_string(),
                    _ => usage(),
                }
            }
            "--backend" => {
                backend = match it.next().map(String::as_str) {
                    Some(b @ ("heuristic" | "exact" | "tiered")) => Some(b.to_string()),
                    _ => usage(),
                }
            }
            "--mode" => {
                mode = match it.next().map(String::as_str) {
                    Some(m @ ("static" | "adaptive")) => Some(m.to_string()),
                    _ => usage(),
                }
            }
            "--adaptive" => mode = Some("adaptive".to_string()),
            "--trip" => {
                trip = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--budget" => {
                budget = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--timeout" => {
                timeout_secs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--retries" => {
                retries = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--shutdown" => shutdown = true,
            flag if flag.starts_with("--") => usage(),
            other if addr.is_none() => addr = Some(other.to_string()),
            other => files.push(other.to_string()),
        }
    }
    let Some(addr) = addr else { usage() };
    if mode.as_deref() == Some("adaptive")
        && !matches!(backend.as_deref(), None | Some("heuristic"))
    {
        eprintln!("ltspc: --mode adaptive refines the heuristic backend only");
        return ExitCode::from(EXIT_USAGE);
    }
    let fileless_op = op == "metrics" || op == "stats";
    if files.is_empty() && !shutdown && !fileless_op {
        usage()
    }
    if fileless_op && !files.is_empty() {
        usage()
    }

    // --timeout 0 disables every deadline (debugging escape hatch).
    let timeout = (timeout_secs > 0).then(|| std::time::Duration::from_secs(timeout_secs));
    // A refused initial connect gets the same retry budget as an
    // overloaded response: a restarting (or respawning) server is a
    // transient, not a verdict.
    let mut connect_attempt: u32 = 0;
    let (mut writer, mut reader) = loop {
        match open_conn(&addr, timeout) {
            Ok(c) => break c,
            Err(e) if is_reconnectable(e.kind()) && connect_attempt < retries => {
                let wait = backoff_delay(connect_attempt);
                connect_attempt += 1;
                eprintln!(
                    "ltspc: cannot connect to {addr} ({e}), retrying in {}ms \
                     (attempt {connect_attempt}/{retries})",
                    wait.as_millis()
                );
                std::thread::sleep(wait);
            }
            Err(e) => {
                eprintln!("ltspc: cannot connect to {addr}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    };
    let esc = ltsp::telemetry::json::escape;
    let mut code = 0u8;
    fn set_code(c: u8, code: &mut u8) {
        if *code == 0 {
            *code = c;
        }
    }

    if fileless_op {
        let req = format!("{{\"op\":\"{op}\",\"id\":\"ltspc-{op}\"}}\n");
        let mut line = String::new();
        if let Err(e) = writer
            .write_all(req.as_bytes())
            .and_then(|()| writer.flush())
            .and_then(|()| reader.read_line(&mut line).map(drop))
        {
            report_net_error("requesting", &op, &addr, &e, timeout_secs);
            return ExitCode::from(EXIT_IO);
        }
        let v = match ltsp::telemetry::json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("ltspc: bad {op} response: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        if op == "stats" {
            print!("{line}");
            return ExitCode::SUCCESS;
        }
        let Some(text) = v.get("metrics").and_then(|m| m.as_str()) else {
            eprintln!("ltspc: metrics response carries no \"metrics\" field");
            return ExitCode::from(EXIT_IO);
        };
        print!("{text}");
        if !check_phases.is_empty() {
            let snap = match ltsp::telemetry::prom::PromSnapshot::parse(text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ltspc: metrics snapshot malformed: {e}");
                    return ExitCode::from(EXIT_REJECTED);
                }
            };
            let mut empty: Vec<&str> = Vec::new();
            for phase in &check_phases {
                let n = snap
                    .histogram_count("ltsp_phase_us", &[("phase", phase)])
                    .unwrap_or(0.0);
                if n <= 0.0 {
                    empty.push(phase);
                }
            }
            if !empty.is_empty() {
                eprintln!(
                    "ltspc: phase histograms without samples: {} — \
                     per-phase observability is not wired",
                    empty.join(", ")
                );
                return ExitCode::from(EXIT_REJECTED);
            }
            eprintln!(
                "ltspc: all {} checked phase histograms have samples",
                check_phases.len()
            );
        }
        return ExitCode::SUCCESS;
    }

    'files: for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ltspc: cannot read {file}: {e}");
                set_code(EXIT_IO, &mut code);
                continue;
            }
        };
        let mut req = format!(
            "{{\"op\":\"{}\",\"id\":\"{}\",\"loop\":\"{}\",\"policy\":\"{}\",\"trip\":{}",
            op,
            esc(file),
            esc(&text),
            policy,
            trip
        );
        if let Some(b) = &backend {
            req.push_str(&format!(",\"backend\":\"{b}\""));
        }
        if let Some(m) = &mode {
            req.push_str(&format!(",\"mode\":\"{m}\""));
        }
        if let Some(b) = budget {
            req.push_str(&format!(",\"budget\":{b}"));
        }
        if let Some(d) = deadline_ms {
            req.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if timings {
            req.push_str(",\"timings\":true");
        }
        req.push_str("}\n");

        let mut attempt: u32 = 0;
        let (v, status) = loop {
            let mut line = String::new();
            let io_err: Option<std::io::Error> = match writer
                .write_all(req.as_bytes())
                .and_then(|()| writer.flush())
                .and_then(|()| reader.read_line(&mut line))
            {
                Ok(0) => Some(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )),
                Ok(_) => None,
                Err(e) => Some(e),
            };
            if let Some(e) = io_err {
                // A dead connection (refused/reset/EOF — the server
                // crashed or is restarting) is retried by reconnecting
                // and re-sending: requests are idempotent (responses
                // are pure functions of requests), so a resend at worst
                // recomputes. Stalls are not retried — see --timeout.
                if is_reconnectable(e.kind()) && attempt < retries {
                    let wait = backoff_delay(attempt);
                    attempt += 1;
                    eprintln!(
                        "ltspc: connection to {addr} lost at {file} ({e}), \
                         reconnecting in {}ms (attempt {attempt}/{retries})",
                        wait.as_millis()
                    );
                    std::thread::sleep(wait);
                    if let Ok((w, r)) = open_conn(&addr, timeout) {
                        writer = w;
                        reader = r;
                    }
                    // A failed reconnect keeps the dead pair: the next
                    // send fails again and consumes the next attempt.
                    continue;
                }
                report_net_error("exchanging", file, &addr, &e, timeout_secs);
                set_code(EXIT_IO, &mut code);
                break 'files;
            }
            let v = match ltsp::telemetry::json::parse(&line) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("ltspc: bad response for {file}: {e}");
                    set_code(EXIT_IO, &mut code);
                    continue 'files;
                }
            };
            let status = v
                .get("status")
                .and_then(|s| s.as_str())
                .unwrap_or("error")
                .to_string();
            // An overloaded server sheds load *now*; the request is
            // worth re-sending after a breather. Capped exponential
            // backoff: 100ms · 2^attempt, at most 2s per wait.
            if status == "overloaded" && attempt < retries {
                let wait = backoff_delay(attempt);
                attempt += 1;
                eprintln!(
                    "ltspc: server overloaded, retrying {file} in {}ms \
                     (attempt {attempt}/{retries})",
                    wait.as_millis()
                );
                std::thread::sleep(wait);
                continue;
            }
            break (v, status);
        };
        let report = v.get("report").and_then(|r| r.as_str()).unwrap_or("");
        match status.as_str() {
            "ok" | "rejected" => {
                print!("{report}");
                if timings {
                    if let Some(t) = v.get("timings") {
                        let mut s = String::new();
                        t.render(&mut s);
                        eprintln!("{file}: timings {s}");
                    }
                }
                if let Some(violations) = v.get("violations").and_then(|x| x.as_array()) {
                    for viol in violations {
                        if let Some(s) = viol.as_str() {
                            eprintln!("{s}");
                        }
                    }
                }
                if status == "rejected" {
                    set_code(EXIT_REJECTED, &mut code);
                }
            }
            "error" => {
                let msg = v
                    .get("error")
                    .and_then(|e| e.as_str())
                    .unwrap_or("unknown error");
                match v.get("error_kind").and_then(|k| k.as_str()) {
                    Some("syntax") => {
                        let errline = v.get("line").and_then(|l| l.as_u64()).unwrap_or(0);
                        eprintln!("{file}:{errline}: {msg}");
                        set_code(EXIT_SYNTAX, &mut code);
                    }
                    Some("invalid") => {
                        eprintln!("{file}: invalid loop: {msg}");
                        set_code(EXIT_INVALID, &mut code);
                    }
                    _ => {
                        eprintln!("ltspc: server error for {file}: {msg}");
                        set_code(EXIT_IO, &mut code);
                    }
                }
            }
            "overloaded" => {
                eprintln!(
                    "ltspc: server overloaded, {file} not compiled \
                     (gave up after {retries} retries)"
                );
                set_code(EXIT_BUSY, &mut code);
            }
            "draining" => {
                // Deliberate shutdown: retrying the same address cannot
                // succeed, so fail fast instead of backing off.
                eprintln!("ltspc: server draining, {file} not compiled");
                set_code(EXIT_BUSY, &mut code);
            }
            other => {
                eprintln!("ltspc: unexpected status '{other}' for {file}");
                set_code(EXIT_IO, &mut code);
            }
        }
    }

    if shutdown && code != EXIT_IO {
        let mut line = String::new();
        let sent = writer
            .write_all(b"{\"op\":\"shutdown\",\"id\":\"ltspc-shutdown\"}\n")
            .and_then(|()| writer.flush());
        if sent.is_err() || reader.read_line(&mut line).map_or(true, |n| n == 0) {
            eprintln!("ltspc: shutdown request to {addr} got no acknowledgment");
            set_code(EXIT_IO, &mut code);
        }
    }
    ExitCode::from(code)
}

/// One `ltspc top` scrape: pull the metrics op, return the parsed
/// snapshot. The connection is re-used across ticks.
fn scrape_metrics(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
) -> Result<ltsp::telemetry::prom::PromSnapshot, String> {
    use std::io::{BufRead as _, Write as _};
    let mut line = String::new();
    writer
        .write_all(b"{\"op\":\"metrics\",\"id\":\"ltspc-top\"}\n")
        .and_then(|()| writer.flush())
        .and_then(|()| reader.read_line(&mut line).map(drop))
        .map_err(|e| e.to_string())?;
    if line.is_empty() {
        return Err("connection closed".to_string());
    }
    let v = ltsp::telemetry::json::parse(&line).map_err(|e| e.to_string())?;
    let text = v
        .get("metrics")
        .and_then(|m| m.as_str())
        .ok_or_else(|| "no \"metrics\" field in response".to_string())?;
    ltsp::telemetry::prom::PromSnapshot::parse(text)
}

/// `ltspc top`: a small live dashboard over the metrics op — request
/// rate, cache hit ratio, queue/inflight/connection gauges, per-phase
/// p50/p99 latency, and the chaos counters. Clears the screen between
/// ticks on a TTY; appends plain blocks when piped.
fn run_top(argv: &[String]) -> ExitCode {
    use std::io::IsTerminal as _;

    let mut addr: Option<String> = None;
    let mut interval_ms: u64 = 1000;
    let mut count: u64 = 0; // 0 = until interrupted
    let mut timeout_secs: u64 = 30;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--count" => {
                count = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--timeout" => {
                timeout_secs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            flag if flag.starts_with("--") => usage(),
            other if addr.is_none() => addr = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let timeout = (timeout_secs > 0).then(|| std::time::Duration::from_secs(timeout_secs));
    let stream = match connect_with_timeout(&addr, timeout) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ltspc: cannot connect to {addr}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ltspc: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let mut reader = std::io::BufReader::new(stream);

    let tty = std::io::stdout().is_terminal();
    let mut prev_total: Option<f64> = None;
    let mut prev_shard: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut prev_when = std::time::Instant::now();
    let mut tick: u64 = 0;
    loop {
        let snap = match scrape_metrics(&mut writer, &mut reader) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ltspc: top: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        let now = std::time::Instant::now();
        let dt = now.duration_since(prev_when).as_secs_f64();
        let statuses = ["ok", "rejected", "error", "overloaded", "draining"];
        // A router's aggregated snapshot carries `ltsp_shard_up` rows;
        // their presence switches the dashboard to cluster mode.
        let mut shard_ids: Vec<u64> = snap
            .samples
            .iter()
            .filter(|s| s.name == "ltsp_shard_up")
            .filter_map(|s| {
                s.labels
                    .iter()
                    .find(|(k, _)| k == "shard")
                    .and_then(|(_, v)| v.parse().ok())
            })
            .collect();
        shard_ids.sort_unstable();
        let shard_value = |sid: u64, name: &str, extra: &[(&str, &str)]| -> f64 {
            let s = sid.to_string();
            let mut labels: Vec<(&str, &str)> = vec![("shard", &s)];
            labels.extend_from_slice(extra);
            snap.value(name, &labels).unwrap_or(0.0)
        };
        let shard_total = |sid: u64| -> f64 {
            statuses
                .iter()
                .map(|st| shard_value(sid, "ltsp_requests_total", &[("status", st)]))
                .sum()
        };
        let total: f64 = if shard_ids.is_empty() {
            statuses
                .iter()
                .filter_map(|s| snap.value("ltsp_requests_total", &[("status", s)]))
                .sum()
        } else {
            shard_ids.iter().map(|&sid| shard_total(sid)).sum()
        };
        let rps = prev_total.map(|p| {
            if dt > 0.0 {
                (total - p).max(0.0) / dt
            } else {
                0.0
            }
        });
        prev_total = Some(total);
        prev_when = now;

        if tty {
            print!("\x1b[2J\x1b[H");
        }
        if !shard_ids.is_empty() {
            println!(
                "ltspr {addr} — {total:.0} requests over {} shard(s)",
                shard_ids.len()
            );
            match rps {
                Some(r) => println!("  rate        {r:8.1} req/s"),
                None => println!("  rate        (first sample)"),
            }
            println!(
                "  router: {:.0} proxied, {:.0} failovers, {:.0} exhausted, {:.0} connections",
                snap.value("ltsp_router_proxied_total", &[]).unwrap_or(0.0),
                snap.value("ltsp_router_failovers_total", &[])
                    .unwrap_or(0.0),
                snap.value("ltsp_router_retries_exhausted_total", &[])
                    .unwrap_or(0.0),
                snap.value("ltsp_router_connections", &[]).unwrap_or(0.0),
            );
            println!(
                "  shard status      rps    hit%   queue  handler_p99us   routed  failed respawns"
            );
            for &sid in &shard_ids {
                let up = shard_value(sid, "ltsp_shard_up", &[]) > 0.0;
                let t = shard_total(sid);
                let srps = match prev_shard.get(&sid) {
                    Some(&p) if dt > 0.0 => format!("{:8.1}", (t - p).max(0.0) / dt),
                    _ => "       -".to_string(),
                };
                prev_shard.insert(sid, t);
                let hits = shard_value(sid, "ltsp_cache_hits_total", &[("cache", "result")]);
                let misses = shard_value(sid, "ltsp_cache_misses_total", &[("cache", "result")]);
                let hit_pct = if hits + misses > 0.0 {
                    format!("{:6.1}", 100.0 * hits / (hits + misses))
                } else {
                    "     -".to_string()
                };
                let queue = shard_value(sid, "ltsp_queue_depth", &[]);
                let s = sid.to_string();
                let p99 = snap
                    .histogram_quantile(
                        "ltsp_phase_us",
                        &[("phase", "handler"), ("shard", &s)],
                        0.99,
                    )
                    .unwrap_or(0.0);
                println!(
                    "  {sid:<5} {:<8} {srps} {hit_pct} {queue:7.0} {p99:14.0} {:8.0} {:7.0} {:8.0}",
                    if up { "up" } else { "down" },
                    shard_value(sid, "ltsp_shard_routed_total", &[]),
                    shard_value(sid, "ltsp_shard_failed_total", &[]),
                    shard_value(sid, "ltsp_shard_respawns_total", &[]),
                );
            }
            tick += 1;
            if count > 0 && tick >= count {
                return ExitCode::SUCCESS;
            }
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            continue;
        }
        println!("ltspd {addr} — {total:.0} requests");
        match rps {
            Some(r) => println!("  rate        {r:8.1} req/s"),
            None => println!("  rate        (first sample)"),
        }
        for s in statuses {
            let v = snap
                .value("ltsp_requests_total", &[("status", s)])
                .unwrap_or(0.0);
            if v > 0.0 || s == "ok" {
                println!("  {s:<11} {v:8.0}");
            }
        }
        for cache in ["compile", "result"] {
            let hits = snap
                .value("ltsp_cache_hits_total", &[("cache", cache)])
                .unwrap_or(0.0);
            let misses = snap
                .value("ltsp_cache_misses_total", &[("cache", cache)])
                .unwrap_or(0.0);
            let ratio = if hits + misses > 0.0 {
                100.0 * hits / (hits + misses)
            } else {
                0.0
            };
            println!("  {cache:<7} cache {hits:8.0} hits {misses:8.0} misses ({ratio:5.1}% hit)");
        }
        let inline = snap.value("ltsp_served_inline_total", &[]).unwrap_or(0.0);
        println!("  {:<11} {inline:8.0}", "inline");
        for g in ["ltsp_queue_depth", "ltsp_inflight", "ltsp_connections"] {
            let v = snap.value(g, &[]).unwrap_or(0.0);
            println!("  {:<11} {v:8.0}", g.trim_start_matches("ltsp_"));
        }
        println!("  phase            p50us      p99us    samples");
        for phase in [
            "parse",
            "hlo",
            "ddg",
            "mrt",
            "sched",
            "regalloc",
            "render",
            "cache_lookup",
            "queue_wait",
            "dispatch",
            "handler",
            "write",
        ] {
            let labels = [("phase", phase)];
            let n = snap
                .histogram_count("ltsp_phase_us", &labels)
                .unwrap_or(0.0);
            if n <= 0.0 {
                continue;
            }
            let p50 = snap
                .histogram_quantile("ltsp_phase_us", &labels, 0.50)
                .unwrap_or(0.0);
            let p99 = snap
                .histogram_quantile("ltsp_phase_us", &labels, 0.99)
                .unwrap_or(0.0);
            println!("  {phase:<14} {p50:9.0}  {p99:9.0}  {n:9.0}");
        }
        // Tiered serving: refinement-upgrade counters, shown once any
        // upgrade has been scheduled (quiet on heuristic-only servers).
        let upgrades: Vec<String> = ["scheduled", "applied", "refined", "failed"]
            .iter()
            .filter_map(|event| {
                let v = snap
                    .value("ltsp_upgrades_total", &[("event", event)])
                    .unwrap_or(0.0);
                (v > 0.0).then(|| format!("{event}={v:.0}"))
            })
            .chain(
                snap.value("ltsp_persist_superseded_records", &[])
                    .filter(|&v| v > 0.0)
                    .map(|v| format!("superseded={v:.0}")),
            )
            .collect();
        if !upgrades.is_empty() {
            println!("  upgrades: {}", upgrades.join(" "));
        }
        let chaos: Vec<String> = [
            ("shed_conns", "ltsp_connections_shed_total"),
            ("shed_resps", "ltsp_responses_shed_total"),
            ("panics", "ltsp_request_panics_total"),
            ("faults", "ltsp_faults_injected_total"),
            ("disp_deaths", "ltsp_dispatcher_deaths_total"),
        ]
        .iter()
        .filter_map(|(label, name)| {
            let v = snap.value(name, &[]).unwrap_or(0.0);
            (v > 0.0).then(|| format!("{label}={v:.0}"))
        })
        .collect();
        if !chaos.is_empty() {
            println!("  chaos: {}", chaos.join(" "));
        }

        tick += 1;
        if count > 0 && tick >= count {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() -> ExitCode {
    // Subcommand dispatch: `ltspc verify <input>` / `ltspc oracle <input>`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("remote") => return run_remote(&argv[1..]),
        Some("top") => return run_top(&argv[1..]),
        _ => {}
    }
    if let Some(cmd @ ("verify" | "oracle")) = argv.first().map(String::as_str) {
        let mut inputs: Vec<String> = Vec::new();
        let mut budget = OracleOptions::default().node_budget;
        let mut jobs = ltsp::par::default_parallelism();
        let mut it = argv[1..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--budget" if cmd == "oracle" => {
                    budget = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage())
                }
                "--jobs" => {
                    let v = it.next().cloned().unwrap_or_default();
                    jobs = ltsp::par::parse_jobs(&v).unwrap_or_else(|e| {
                        eprintln!("ltspc: {e}");
                        std::process::exit(i32::from(EXIT_USAGE));
                    })
                }
                flag if flag.starts_with("--") => usage(),
                other => inputs.push(other.to_string()),
            }
        }
        if inputs.is_empty() {
            usage()
        }
        return if cmd == "verify" {
            run_batch(&inputs, jobs, verify_one)
        } else {
            run_batch(&inputs, jobs, |input| oracle_one(input, budget))
        };
    }

    let o = parse_args();
    let lp = match read_and_parse(&o.input) {
        Ok(lp) => lp,
        Err((msg, code)) => {
            eprintln!("{msg}");
            return ExitCode::from(code);
        }
    };

    let machine = MachineModel::itanium2();
    if o.adaptive {
        // Feedback-directed refinement: compile, simulate, re-compile
        // with observed hints to a bounded fixpoint. The renderer is the
        // one the daemon's refine worker uses, so `ltspc --adaptive` and
        // an upgraded `remote --mode adaptive` entry print the same
        // report byte for byte.
        if o.backend != ltsp::server::Backend::Heuristic {
            eprintln!("ltspc: --adaptive refines the heuristic backend only");
            return ExitCode::from(EXIT_USAGE);
        }
        if o.asm || o.simulate.is_some() {
            eprintln!("ltspc: --asm/--simulate do not combine with --adaptive");
            return ExitCode::from(EXIT_USAGE);
        }
        let cfg = CompileConfig::new(o.policy)
            .with_threshold(o.threshold)
            .with_prefetch(o.prefetch)
            .with_balanced_recurrences(o.balanced)
            .with_data_speculation(o.speculate);
        let tel = if o.verbose {
            Telemetry::enabled_with(true)
        } else {
            Telemetry::disabled()
        };
        let res = ltsp::adaptive::compile_loop_adaptive(
            &lp,
            &machine,
            &cfg,
            o.trip,
            &ltsp::adaptive::AdaptiveOptions::default(),
            &tel,
        );
        print!(
            "{}",
            ltsp::server::render_adaptive_report(&res, o.policy, o.trip)
        );
        return if res.all_certified() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_REJECTED)
        };
    }
    if o.backend != ltsp::server::Backend::Heuristic {
        // Locally there is no cache to upgrade in place, so `tiered`
        // degenerates to its refinement tier: the exact backend.
        if o.backend == ltsp::server::Backend::Tiered {
            eprintln!("ltspc: --backend tiered is served by the exact backend locally");
        }
        if o.asm || o.simulate.is_some() {
            eprintln!("ltspc: --asm/--simulate apply to the heuristic backend only");
            return ExitCode::from(EXIT_USAGE);
        }
        let opts = OracleOptions {
            node_budget: o.budget,
            ..OracleOptions::default()
        };
        return match ltsp::oracle::exact_case(&lp, &machine, &opts) {
            Ok(case) => {
                print!("{}", ltsp::server::render_exact_report(&lp, &case));
                ExitCode::SUCCESS
            }
            Err(violations) => {
                for v in &violations {
                    eprintln!("{}: violation [{}]: {v}", lp.name(), v.kind());
                }
                ExitCode::from(EXIT_REJECTED)
            }
        };
    }
    let cfg = CompileConfig::new(o.policy)
        .with_threshold(o.threshold)
        .with_prefetch(o.prefetch)
        .with_balanced_recurrences(o.balanced)
        .with_data_speculation(o.speculate);
    let want_telemetry =
        o.trace_out.is_some() || o.metrics_out.is_some() || o.chrome_trace.is_some() || o.verbose;
    let tel = if want_telemetry {
        Telemetry::enabled_with(o.verbose)
    } else {
        Telemetry::disabled()
    };
    let compiled = compile_loop_observed(&lp, &machine, &cfg, o.trip, Observer::new(&tel, None));

    // The canonical report — the exact same renderer backs `ltspd`'s
    // compile responses, so remote and local output are byte-identical.
    print!(
        "{}",
        ltsp::server::render_compile_report(&compiled, o.policy, o.trip)
    );

    if o.asm {
        println!();
        match assign_registers(&compiled.lp, &compiled.kernel, &machine) {
            Ok(assign) => print!("{}", emit_kernel(&compiled.lp, &compiled.kernel, &assign)),
            Err(e) => eprintln!("ltspc: register assignment failed: {e}"),
        }
        let bundled = form_bundles(&compiled.lp, &compiled.kernel);
        println!(
            "bundles: {} ({} bytes of code, {} nop slots)",
            bundled.bundle_count(),
            bundled.code_bytes(),
            bundled.nop_slots()
        );
    }

    if let Some(iters) = o.simulate {
        let mut ex = Executor::new(
            &compiled.lp,
            &compiled.kernel,
            &machine,
            compiled.regs_total,
            ExecutorConfig {
                stream_mode: StreamMode::Progressive,
                ..ExecutorConfig::default()
            },
        );
        ex.attach_telemetry(&tel);
        {
            let _span = tel.span(format!("simulate:{}", compiled.lp.name()));
            ex.run_entry(iters.max(1));
        }
        ex.export_metrics("sim");
        let c = ex.counters();
        println!(
            "\nsimulated {iters} iterations: {} cycles ({:.2}/iter), \
             data stalls {:.1}%, OzQ stalls {:.1}%, loads L1/L2/L3/mem = {}/{}/{}/{}",
            c.total,
            c.total as f64 / iters.max(1) as f64,
            100.0 * c.be_exe_bubble as f64 / c.total.max(1) as f64,
            100.0 * c.be_l1d_fpu_bubble as f64 / c.total.max(1) as f64,
            c.l1_hits,
            c.l2_hits,
            c.l3_hits,
            c.mem_loads,
        );
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
                eprintln!("ltspc: cannot write {what} {path}: {e}");
                ok = false;
            }
        };
    write_artifact(&o.trace_out, "trace", &|w| tel.write_events_jsonl(w));
    write_artifact(&o.metrics_out, "metrics", &|w| tel.write_metrics_json(w));
    write_artifact(&o.chrome_trace, "chrome trace", &|w| {
        tel.write_chrome_trace(w)
    });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_pinned() {
        // The documented schedule: 100ms · 2^attempt, capped at 2s.
        let ms: Vec<u64> = (0..8)
            .map(|a| backoff_delay(a).as_millis() as u64)
            .collect();
        assert_eq!(ms, vec![100, 200, 400, 800, 1600, 2000, 2000, 2000]);
    }

    #[test]
    fn reconnectable_errors_are_dead_connections_not_stalls() {
        use std::io::ErrorKind as K;
        for k in [
            K::ConnectionRefused,
            K::ConnectionReset,
            K::ConnectionAborted,
            K::BrokenPipe,
            K::NotConnected,
            K::UnexpectedEof,
        ] {
            assert!(is_reconnectable(k), "{k:?} must reconnect");
        }
        for k in [K::WouldBlock, K::TimedOut, K::PermissionDenied, K::Other] {
            assert!(!is_reconnectable(k), "{k:?} must not reconnect");
        }
    }
}
