//! `ltspc` — a command-line driver for the latency-tolerant pipelining
//! compiler: read a loop in the textual IR format, compile it under a
//! policy, and print the kernel schedule, assembly and (optionally) a
//! simulated execution.
//!
//! `ltspc --help` prints the synopsis of every subcommand. One parser
//! reads the request flags, each setting the `ltsp_server::Request` field
//! of its name; a subcommand takes those whose fields it reads. A local
//! compile takes every compile knob, `oracle` only `--budget`, `verify`
//! none; `remote` also sends `--deadline-ms` and `--timings`.
//!
//! Every answer comes from the request engine (`ltsp_server::Engine`).
//! Locally, `ltspc` builds the request and answers it with an in-process
//! engine whose oracle has no wall-clock deadline, so verdicts are bounded
//! by `--budget` alone; `remote` sends the same request as one line to a
//! daemon. Either way one printer shows the answer: the report on stdout,
//! validator violations and `file:line` diagnostics on stderr, the status
//! as the exit code. Local and remote output are therefore the same bytes,
//! which `tests/cli_serve.rs` checks.
//!
//! A plain `ltspc FILE` compiles. `verify` pipelines at base latencies
//! and certifies the schedule with the independent validator; `oracle`
//! also proves the minimal feasible II and reports the heuristic's
//! optimality gap. Both take **multiple** input files, answered on
//! `--jobs N` worker threads (default: the machine's available
//! parallelism); output is printed in input order whatever the worker
//! count, and the exit code is the first failing file's.
//!
//! `--backend` picks the scheduling backend. `heuristic` (the default) is
//! the production modulo scheduler; `exact` runs the oracle's
//! residue-level branch-and-bound as a full backend — slot assignment and
//! rotating-register feasibility checked inside the search, the emitted
//! kernel re-certified by the independent validator, and the report
//! stating whether the II is *proven* minimal. `tiered` answers with the
//! heuristic schedule and refines it with the exact backend in the
//! background; `--mode adaptive` (or `--adaptive`) answers with the static
//! schedule and refines it to a certified fixpoint of simulated feedback
//! (`ltsp_adaptive`). A daemon upgrades the cached answer in place, and a
//! resend observes `cache:"upgraded"`. Locally `ltspc` waits for the
//! refinement and prints the upgraded answer, exiting 1 if none landed.
//! Adaptive mode refines the heuristic backend only (exit 2 otherwise).
//!
//! `--asm` and `--simulate ITERS` are local extras of a heuristic static
//! compile: after the answer, the loop is compiled once more and its
//! kernel emitted as assembly or run on the memory simulator.
//!
//! `serve` runs the compilation daemon (`ltsp_server`) in-process until a
//! client sends `shutdown` or SIGTERM/SIGINT arrives, then drains and
//! exits 0. `--write-deadline-ms` bounds one stalled response write,
//! `--outbound` each connection's unsent responses; these, `--queue`,
//! `--flight-len` and `--persist-warn-mb` must be at least 1
//! (exit 2). `--oracle-deadline-ms 0` lifts the oracle's wall-clock
//! budget. `--persist FILE` adds the warm-start cache log
//! (`ltsp_cache::persist`); `--persist-warn-mb N` warns once past N MiB.
//! `--flight-dir` dumps the last `--flight-len` request lifecycles on a
//! contained failure (`ltsp_server::flight`); `--trace-out` and
//! `--metrics-out` are written at drain; `LTSP_FAULT` injects faults
//! (`ltsp_server::fault`). `serve --cluster N` supervises N such shards on
//! consecutive ports behind the consistent-hash router (`ltsp_cluster`)
//! on `--addr`, handing each shard every other flag verbatim;
//! `--persist-dir DIR` gives each its own log, and the per-process files
//! (`--persist`, `--flight-dir`, `--trace-out`, `--metrics-out`) are
//! refused. Crashed shards respawn warm; `shutdown` or SIGTERM drains the
//! whole tree.
//!
//! `remote --shutdown` drains the server after the last file.
//! `remote --op metrics` needs no files: it prints the daemon's live
//! Prometheus text snapshot (see `ltsp_server::engine`) to stdout, and
//! `--check-phases parse,sched,...` additionally fails with exit 1 when
//! any named per-phase latency histogram has no samples — the mid-load
//! check in `tests/cli_serve.rs` that observability is actually wired.
//! `--op stats` prints the raw stats response line. `--timings` sets the
//! opt-in request flag so each response carries its per-phase breakdown,
//! echoed to stderr.
//! `top` renders its dashboard (see `run_top`) every `--interval-ms`
//! (default 1000), `--count` times (default: until interrupted).
//!
//! `remote` never hangs on a stalled or wedged server: `--timeout SECS`
//! (default 30, `0` disables) bounds the connect, every request write,
//! and every response as a whole (`ltsp_server::client`). An `overloaded`
//! response or a dead connection is retried up to `--retries N` times
//! (default 4, see `backoff_delay` and `is_reconnectable`), then exits 6
//! or 3; a `draining` response exits 6 at once, and an expired deadline
//! is never retried.
//!
//! Exit codes are distinct per failure class so scripts can dispatch:
//! `0` success (schedule certified / oracle verdict exact), `1` validator
//! rejection, budget-limited oracle verdict or a refinement that did not
//! land, `2` usage error, `3` I/O error, `4` syntax error in the input
//! (reported as `file:line: message`), `5` structurally invalid loop, `6`
//! server overloaded or draining (`remote` only — retry later).
//!
//! The telemetry flags record the compiler's decision trail — HLO hint
//! heuristics, criticality verdicts, latency boosts, II escalations,
//! register-pressure fallbacks — plus per-phase timing, the engine's
//! `server_request` events and simulator cycle accounting. `--trace-out`
//! writes JSONL events, `--metrics-out` a JSON metrics snapshot,
//! `--chrome-trace` a Chrome `trace_event` file loadable in Perfetto
//! (ui.perfetto.dev); `-v` renders events on stderr. A refinement runs
//! untraced, as in the daemon.
//!
//! Sample inputs are in `loops/`; `ltsp_ir::parse_loop` documents the
//! grammar.

use std::io::Read as _;
use std::process::ExitCode;

use ltsp::core::compile_loop_with_profile;
use ltsp::machine::MachineModel;
use ltsp::memsim::{Executor, ExecutorConfig, StreamMode};
use ltsp::pipeliner::{assign_registers, emit_kernel, form_bundles};
use ltsp::server::client::Client;
use ltsp::server::{Backend, Engine, EngineConfig, Mode, ReqOp, Request, Response};
use ltsp::telemetry::json::{self, JsonValue};
use ltsp::telemetry::{write_artifact, Telemetry};

/// Exit codes: one per failure class (see the module docs).
const EXIT_REJECTED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_IO: u8 = 3;
const EXIT_SYNTAX: u8 = 4;
const EXIT_INVALID: u8 = 5;
const EXIT_BUSY: u8 = 6;

/// A flag's value, parsed; a missing or malformed one is a usage error.
fn flag_value<T: std::str::FromStr>(value: Option<impl AsRef<str>>) -> T {
    value
        .and_then(|v| v.as_ref().parse().ok())
        .unwrap_or_else(|| usage())
}

fn usage() -> ! {
    eprintln!(
        "usage: ltspc <file.loop | -> [--policy baseline|l3|fpl2|hlo] [--trip N]\n\
         \x20             [--backend heuristic|exact|tiered] [--mode static|adaptive]\n\
         \x20             [--adaptive] [--budget NODES] [--threshold N] [--no-prefetch]\n\
         \x20             [--balanced] [--asm] [--simulate ITERS] [TELEMETRY]\n\
         \x20      ltspc verify <file.loop | -> ... [--jobs N] [TELEMETRY]\n\
         \x20      ltspc oracle <file.loop | -> ... [--budget NODES] [--jobs N] [TELEMETRY]\n\
         \x20      ltspc remote <addr> <file.loop | ->... [--op compile|verify|oracle]\n\
         \x20            [--backend heuristic|exact|tiered] [--mode static|adaptive]\n\
         \x20            [--adaptive] [--policy P] [--trip N]\n\
         \x20            [--budget NODES] [--deadline-ms MS]\n\
         \x20            [--timeout SECS] [--retries N] [--timings] [--shutdown]\n\
         \x20      ltspc remote <addr> --op metrics [--check-phases p1,p2,...]\n\
         \x20      ltspc remote <addr> --op stats\n\
         \x20      ltspc serve [--addr HOST:PORT] [--jobs N] [--queue N]\n\
         \x20            [--outbound N] [--write-deadline-ms MS]\n\
         \x20            [--cache-bytes N] [--result-cache-bytes N]\n\
         \x20            [--oracle-deadline-ms MS]\n\
         \x20            [--flight-dir DIR] [--flight-len N] [--persist FILE]\n\
         \x20            [--persist-warn-mb N] [--trace-out FILE] [--metrics-out FILE]\n\
         \x20            [--cluster N] [--persist-dir DIR] [-v|--verbose]\n\
         \x20      ltspc top <addr> [--interval-ms MS] [--count N] [--timeout SECS]\n\
         TELEMETRY: [--trace-out FILE] [--metrics-out FILE] [--chrome-trace FILE] [-v|--verbose]"
    );
    std::process::exit(i32::from(EXIT_USAGE));
}

/// The request flags a local compile takes: every field the compile
/// reads. `verify` reads none of them and `oracle` only `--budget`; a
/// local run has no wall-clock deadline and no timing breakdown.
const COMPILE_FLAGS: &str =
    "--policy --trip --threshold --no-prefetch --balanced --backend --mode --adaptive --budget";
/// The request flags `remote` sends.
const REMOTE_FLAGS: &str =
    "--policy --trip --backend --mode --adaptive --budget --deadline-ms --timings";

/// The one parser of the request flags, for local runs and `remote`
/// alike: if `takes` (a list like [`COMPILE_FLAGS`]) names `flag`, sets
/// the [`Request`] field it names from `args` and returns true; returns
/// false for any other flag.
fn request_flag<'a>(
    req: &mut Request,
    takes: &str,
    flag: &str,
    args: &mut impl Iterator<Item = &'a String>,
) -> bool {
    if !takes.split(' ').any(|f| f == flag) {
        return false;
    }
    match flag {
        "--policy" => req.policy = flag_value(args.next()),
        // The wire's rule: a finite, non-negative trip estimate.
        "--trip" => {
            req.trip = Some(flag_value::<f64>(args.next()))
                .filter(|t| t.is_finite() && *t >= 0.0)
                .unwrap_or_else(|| usage())
        }
        "--threshold" => req.threshold = flag_value(args.next()),
        "--no-prefetch" => req.prefetch = false,
        "--balanced" => req.balanced = true,
        "--backend" => req.backend = flag_value(args.next()),
        "--mode" => req.mode = flag_value(args.next()),
        "--adaptive" => req.mode = Mode::Adaptive,
        "--budget" => req.budget = flag_value(args.next()),
        "--deadline-ms" => req.deadline_ms = Some(flag_value(args.next())),
        "--timings" => req.timings = true,
        _ => return false,
    }
    true
}

/// The request as the wire carries it, so a local run answers exactly
/// what `remote` sends; one the wire refuses (adaptive mode off the
/// heuristic backend) is a usage error.
fn wire(req: &Request) -> Request {
    ltsp::server::parse_request(&req.to_line()).unwrap_or_else(|e| {
        eprintln!("ltspc: {}", e.message);
        std::process::exit(i32::from(EXIT_USAGE));
    })
}

/// What one input prints — stdout text, stderr text — and the exit code
/// it would produce alone. Buffering keeps a parallel batch's output
/// identical to serial: results print in input order.
#[derive(Default)]
struct Printed {
    out: String,
    err: String,
    code: u8,
}

impl Printed {
    /// An input that failed before it became a request.
    fn failed(message: String, code: u8) -> Printed {
        Printed {
            out: String::new(),
            err: message + "\n",
            code,
        }
    }

    fn emit(&self) {
        print!("{}", self.out);
        eprint!("{}", self.err);
    }
}

/// Reads one input (`-` is stdin) as its display name and text.
fn read_input(input: &str) -> Result<(String, String), Printed> {
    if input == "-" {
        let mut text = String::new();
        return match std::io::stdin().read_to_string(&mut text) {
            Ok(_) => Ok(("<stdin>".to_string(), text)),
            Err(_) => Err(Printed::failed(
                "ltspc: failed to read stdin".into(),
                EXIT_IO,
            )),
        };
    }
    std::fs::read_to_string(input)
        .map(|text| (input.to_string(), text))
        .map_err(|e| Printed::failed(format!("ltspc: cannot read {input}: {e}"), EXIT_IO))
}

/// How `ltspc` shows one answer, local or remote: the report on stdout;
/// the timing breakdown asked for, violations and error diagnostics
/// (syntax errors as `file:line: message`) on stderr; the status as the
/// exit code.
fn print_answer(file: &str, v: &JsonValue) -> Printed {
    use std::fmt::Write as _;
    let text = |key: &str| v.get(key).and_then(JsonValue::as_str);
    let mut p = Printed::default();
    match text("status").unwrap_or("error") {
        status @ ("ok" | "rejected") => {
            p.out.push_str(text("report").unwrap_or(""));
            if let Some(t) = v.get("timings") {
                let mut s = String::new();
                t.render(&mut s);
                let _ = writeln!(p.err, "{file}: timings {s}");
            }
            if let Some(violations) = v.get("violations").and_then(JsonValue::as_array) {
                for s in violations.iter().filter_map(JsonValue::as_str) {
                    let _ = writeln!(p.err, "{s}");
                }
            }
            if status == "rejected" {
                p.code = EXIT_REJECTED;
            }
        }
        "error" => {
            let msg = text("error").unwrap_or("unknown error");
            (p.code, p.err) = match text("error_kind") {
                Some("syntax") => {
                    let line = v.get("line").and_then(JsonValue::as_u64).unwrap_or(0);
                    (EXIT_SYNTAX, format!("{file}:{line}: {msg}\n"))
                }
                Some("invalid") => (EXIT_INVALID, format!("{file}: invalid loop: {msg}\n")),
                _ => (EXIT_IO, format!("ltspc: server error for {file}: {msg}\n")),
            };
        }
        // Remote only: the server shed the request or is going away.
        status @ ("overloaded" | "draining") => {
            p.code = EXIT_BUSY;
            p.err = format!("ltspc: server {status}, {file} not compiled\n");
        }
        other => {
            p.code = EXIT_IO;
            p.err = format!("ltspc: unexpected status '{other}' for {file}\n");
        }
    }
    p
}

/// Answers `req` with the in-process engine. A refining request (the
/// tiered backend, adaptive mode) is answered, its refinement awaited,
/// and answered again: the second answer must be the upgraded one.
fn answer(engine: &Engine, req: &Request, tel: &Telemetry) -> Printed {
    let print = |resp: Response| {
        let v = json::parse(&resp.render()).expect("the engine renders one JSON line");
        print_answer(&req.id, &v)
    };
    let first = engine.handle(req, tel);
    let refines = req.backend == Backend::Tiered || req.mode == Mode::Adaptive;
    if req.op != ReqOp::Compile || !refines || first.status != "ok" {
        return print(first);
    }
    engine.refine_wait_idle();
    let second = engine.handle(req, tel);
    if second.cache == "upgraded" {
        return print(second);
    }
    // It did not land. The exact backend's own answer, which the refine
    // worker cached, says why; adaptive mode shows the static answer.
    let mut exact = req.clone();
    exact.backend = Backend::Exact;
    let mut p = match req.backend {
        Backend::Tiered => print(engine.handle(&exact, tel)),
        _ => print(first),
    };
    if p.code == 0 {
        p.code = EXIT_REJECTED;
        p.err += &format!("ltspc: {}: the refinement did not land\n", req.id);
    }
    p
}

/// `ltspc FILE`, `ltspc verify FILE...` and `ltspc oracle FILE...`: the
/// request answered by an in-process engine, plus the local extras.
fn run_local(op: ReqOp, argv: &[String]) -> ExitCode {
    let mut req = Request {
        op,
        ..Request::default()
    };
    let mut inputs: Vec<&str> = Vec::new();
    let mut jobs = ltsp::par::default_parallelism();
    let (mut asm, mut simulate, mut verbose) = (false, None, false);
    let (mut trace_out, mut metrics_out, mut chrome_trace) = (None, None, None);
    let compile = op == ReqOp::Compile;
    let takes = match op {
        ReqOp::Compile => COMPILE_FLAGS,
        ReqOp::Oracle => "--budget",
        _ => "",
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if request_flag(&mut req, takes, a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--jobs" if !compile => {
                let v = it.next().cloned().unwrap_or_default();
                jobs = ltsp::par::parse_jobs(&v).unwrap_or_else(|e| {
                    eprintln!("ltspc: {e}");
                    std::process::exit(i32::from(EXIT_USAGE));
                })
            }
            "--asm" if compile => asm = true,
            "--simulate" if compile => simulate = Some(flag_value::<u64>(it.next())),
            "--trace-out" => trace_out = Some(flag_value::<String>(it.next())),
            "--metrics-out" => metrics_out = Some(flag_value::<String>(it.next())),
            "--chrome-trace" => chrome_trace = Some(flag_value::<String>(it.next())),
            "-v" | "--verbose" => verbose = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            _ if compile && !inputs.is_empty() => usage(),
            input => inputs.push(input),
        }
    }
    if inputs.is_empty() {
        usage()
    }
    let req = wire(&req);
    if (asm || simulate.is_some()) && (req.backend, req.mode) != (Backend::Heuristic, Mode::Static)
    {
        eprintln!("ltspc: --asm/--simulate apply to the heuristic static compile only");
        return ExitCode::from(EXIT_USAGE);
    }
    let tel = if trace_out.is_some() || metrics_out.is_some() || chrome_trace.is_some() || verbose {
        Telemetry::enabled_with(verbose)
    } else {
        Telemetry::disabled()
    };
    // No wall-clock deadline: a local verdict is bounded by nodes alone.
    let engine = Engine::new(EngineConfig {
        oracle_deadline_ms: None,
        ..EngineConfig::default()
    });
    let printed = ltsp::par::Pool::new(jobs).map(&inputs, |_, input| {
        let (name, text) = match read_input(input) {
            Ok(read) => read,
            Err(failed) => return (failed, None),
        };
        let req = Request {
            id: name,
            loop_text: text,
            ..req.clone()
        };
        (answer(&engine, &req, &tel), Some(req))
    });
    let mut code = 0u8;
    for (p, answered) in &printed {
        p.emit();
        if code == 0 {
            code = p.code;
        }
        if let (0, Some(req), true) = (p.code, answered, asm || simulate.is_some()) {
            if !extras(req, asm, simulate, &tel) && code == 0 {
                code = EXIT_REJECTED;
            }
        }
    }
    let written = write_telemetry(
        &tel,
        trace_out.as_deref(),
        metrics_out.as_deref(),
        chrome_trace.as_deref(),
    );
    if code == 0 {
        written
    } else {
        ExitCode::from(code)
    }
}

/// `--asm` and `--simulate`: a second, untraced compile of the answered
/// request's loop, its kernel emitted and/or simulated. False when the
/// kernel cannot be named (a rejected loop's acyclic fallback can need
/// more registers than exist).
fn extras(req: &Request, asm: bool, simulate: Option<u64>, tel: &Telemetry) -> bool {
    let machine = MachineModel::itanium2();
    let lp = ltsp::ir::parse_loop(&req.loop_text).expect("the engine parsed this loop");
    let compiled = compile_loop_with_profile(&lp, &machine, &req.compile_config(), req.trip);
    let mut named = true;
    if asm {
        println!();
        match assign_registers(&compiled.lp, &compiled.kernel, &machine) {
            Ok(assign) => print!("{}", emit_kernel(&compiled.lp, &compiled.kernel, &assign)),
            Err(e) => {
                eprintln!("ltspc: register assignment failed: {e}");
                named = false;
            }
        }
        let bundled = form_bundles(&compiled.lp, &compiled.kernel);
        println!(
            "bundles: {} ({} bytes of code, {} nop slots)",
            bundled.bundle_count(),
            bundled.code_bytes(),
            bundled.nop_slots()
        );
    }
    if let Some(iters) = simulate {
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
        ex.attach_telemetry(tel);
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
    named
}

/// `ltspc serve`'s flags, parsed.
struct Serve {
    /// The daemon's configuration; with `--cluster`, `addr` is the
    /// router's.
    cfg: ltsp::server::ServerConfig,
    /// `--cluster N`: supervise a router plus N shard processes.
    cluster: Option<usize>,
    /// `--persist-dir DIR` (cluster only): one warm-start log per shard.
    persist_dir: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    verbose: bool,
    /// Every flag but `--addr`, `--cluster` and `--persist-dir`, verbatim:
    /// what each shard of a cluster is started with.
    shard_args: Vec<String>,
}

/// A serve flag's number; `min` is 1 where 0 would mean nothing.
fn serve_num<T>(flag: &str, value: Option<&str>, min: u8) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse::<T>() {
        Ok(n) if n >= T::from(min) => Ok(n),
        Ok(_) => Err(format!("{flag} must be at least {min}, got {v}")),
        Err(_) => Err(format!("{flag} wants a number, got {v:?}")),
    }
}

/// The one parser of the daemon's flags, for one process and for a
/// cluster alike.
fn parse_serve(argv: &[String]) -> Result<Serve, String> {
    let mut s = Serve {
        cfg: ltsp::server::ServerConfig {
            jobs: ltsp::par::default_parallelism(),
            handle_signals: true,
            ..ltsp::server::ServerConfig::default()
        },
        cluster: None,
        persist_dir: None,
        trace_out: None,
        metrics_out: None,
        verbose: false,
        shard_args: Vec::new(),
    };
    let mut it = argv.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        if matches!(flag, "-v" | "--verbose") {
            s.verbose = true;
            s.shard_args.push(flag.to_string());
            continue;
        }
        let value = it.next();
        let text = || value.ok_or_else(|| format!("{flag} needs a value"));
        let engine = &mut s.cfg.engine;
        match flag {
            "--addr" => {
                s.cfg.addr = text()?.to_string();
                continue;
            }
            "--cluster" => {
                s.cluster = Some(serve_num(flag, value, 1)?);
                continue;
            }
            "--persist-dir" => {
                s.persist_dir = Some(text()?.to_string());
                continue;
            }
            "--jobs" => s.cfg.jobs = ltsp::par::parse_jobs(text()?)?,
            "--queue" => s.cfg.queue_high_water = serve_num(flag, value, 1)?,
            "--outbound" => s.cfg.outbound_max = serve_num(flag, value, 1)?,
            "--write-deadline-ms" => {
                s.cfg.write_deadline = std::time::Duration::from_millis(serve_num(flag, value, 1)?)
            }
            "--cache-bytes" => engine.compile_cache_bytes = serve_num(flag, value, 0)?,
            "--result-cache-bytes" => engine.result_cache_bytes = serve_num(flag, value, 0)?,
            // 0 lifts the per-request oracle wall-clock budget.
            "--oracle-deadline-ms" => {
                engine.oracle_deadline_ms = Some(serve_num(flag, value, 0)?).filter(|&ms| ms > 0)
            }
            "--flight-dir" => engine.flight_dir = Some(text()?.into()),
            "--flight-len" => engine.flight_len = serve_num(flag, value, 1)?,
            "--persist" => engine.persist_path = Some(text()?.into()),
            "--persist-warn-mb" => {
                engine.persist_warn_bytes = Some(serve_num::<u64>(flag, value, 1)? << 20)
            }
            "--trace-out" => s.trace_out = Some(text()?.to_string()),
            "--metrics-out" => s.metrics_out = Some(text()?.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
        s.shard_args.extend([flag, text()?].map(String::from));
    }
    if s.cluster.is_some() {
        if s.cfg.engine.persist_path.is_some() {
            return Err("--persist is per-shard; use --persist-dir with --cluster".to_string());
        }
        for (flag, set) in [
            ("--trace-out", s.trace_out.is_some()),
            ("--metrics-out", s.metrics_out.is_some()),
            ("--flight-dir", s.cfg.engine.flight_dir.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} names a per-process file; not with --cluster"
                ));
            }
        }
    } else if s.persist_dir.is_some() {
        return Err("--persist-dir needs --cluster N; use --persist FILE for one process".into());
    }
    Ok(s)
}

/// `ltspc serve`: run the daemon in-process until drained — or, with
/// `--cluster N`, supervise a router plus N shard processes.
fn run_serve(argv: &[String]) -> ExitCode {
    let s = parse_serve(argv).unwrap_or_else(|e| {
        eprintln!("ltspc: serve: {e}");
        usage()
    });
    let tel = if s.trace_out.is_some() || s.metrics_out.is_some() || s.verbose {
        Telemetry::enabled_with(s.verbose)
    } else {
        Telemetry::disabled()
    };

    if let Some(shards) = s.cluster {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("ltspc: cannot locate own executable for shard spawn: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        // The supervisor appends each shard's --addr (router port + 1 + i)
        // and --persist log path.
        let ccfg = ltsp::cluster::ClusterConfig {
            router: ltsp::cluster::RouterConfig {
                addr: s.cfg.addr,
                handle_signals: true,
                telemetry: tel,
                ..ltsp::cluster::RouterConfig::default()
            },
            shards,
            worker_exe: exe,
            worker_args: std::iter::once("serve".to_string())
                .chain(s.shard_args)
                .collect(),
            persist_dir: s.persist_dir.map(Into::into),
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

    let mut cfg = s.cfg;
    cfg.fault = ltsp::server::FaultPlan::from_env().unwrap_or_else(|e| {
        eprintln!("ltspc: {e}");
        std::process::exit(i32::from(EXIT_USAGE));
    });
    if cfg.fault.is_active() {
        eprintln!("ltspc: LTSP_FAULT active — injecting deterministic faults");
    }
    cfg.telemetry = tel.clone();
    let jobs = cfg.jobs;
    let server = match ltsp::server::spawn(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ltspc: serve: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    eprintln!("ltspc: serving on {} (jobs={jobs})", server.addr());
    server.wait();
    // Request trace and cache counters are written at drain.
    write_telemetry(&tel, s.trace_out.as_deref(), s.metrics_out.as_deref(), None)
}

/// Writes the telemetry artifacts the flags asked for; a failure is
/// reported and makes the run fail.
fn write_telemetry(
    tel: &Telemetry,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    chrome_trace: Option<&str>,
) -> ExitCode {
    let written = [
        write_artifact(trace_out, "trace", |w| tel.write_events_jsonl(w)),
        write_artifact(metrics_out, "metrics", |w| tel.write_metrics_json(w)),
        write_artifact(chrome_trace, "chrome trace", |w| tel.write_chrome_trace(w)),
    ];
    let mut code = ExitCode::SUCCESS;
    for e in written.into_iter().filter_map(Result::err) {
        eprintln!("ltspc: {e}");
        code = ExitCode::FAILURE;
    }
    code
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
/// response as a local run prints its answer.
fn run_remote(argv: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut req = Request {
        op: ReqOp::Compile,
        ..Request::default()
    };
    let mut timeout_secs: u64 = 30;
    let mut retries: u32 = 4;
    let mut shutdown = false;
    let mut check_phases: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if request_flag(&mut req, REMOTE_FLAGS, a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--op" => req.op = flag_value(it.next()),
            "--check-phases" => {
                check_phases = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--timeout" => timeout_secs = flag_value(it.next()),
            "--retries" => retries = flag_value(it.next()),
            "--shutdown" => shutdown = true,
            flag if flag.starts_with("--") => usage(),
            other if addr.is_none() => addr = Some(other.to_string()),
            other => files.push(other.to_string()),
        }
    }
    let Some(addr) = addr else { usage() };
    let req = wire(&req);
    let op = req.op;
    let fileless_op = matches!(op, ReqOp::Metrics | ReqOp::Stats);
    let no_files = files.is_empty() && !shutdown && !fileless_op;
    if matches!(op, ReqOp::Ping | ReqOp::Shutdown) || no_files || fileless_op && !files.is_empty() {
        usage()
    }

    // --timeout 0 disables every deadline (debugging escape hatch).
    let timeout = (timeout_secs > 0).then(|| std::time::Duration::from_secs(timeout_secs));
    // A refused initial connect gets the same retry budget as an
    // overloaded response: a restarting (or respawning) server is a
    // transient, not a verdict.
    let mut connect_attempt: u32 = 0;
    let mut client = loop {
        match Client::connect(&addr, timeout) {
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
    let mut code = 0u8;
    fn set_code(c: u8, code: &mut u8) {
        if *code == 0 {
            *code = c;
        }
    }

    if fileless_op {
        let id = format!("ltspc-{}", op.tag());
        let answer = if op == ReqOp::Stats {
            let stats = Request { id, ..req }.to_line();
            client
                .request(&stats)
                .and_then(|line| match json::parse(&line) {
                    Ok(_) => Ok(line),
                    Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
                })
        } else {
            client.metrics_text(&id)
        };
        let text = match answer {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                eprintln!("ltspc: bad {} response: {e}", op.tag());
                return ExitCode::from(EXIT_IO);
            }
            Err(e) => {
                report_net_error("requesting", op.tag(), &addr, &e, timeout_secs);
                return ExitCode::from(EXIT_IO);
            }
        };
        print!("{text}");
        if !check_phases.is_empty() {
            let snap = match ltsp::telemetry::prom::PromSnapshot::parse(&text) {
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
        let (name, text) = match read_input(file) {
            Ok(read) => read,
            Err(failed) => {
                failed.emit();
                set_code(failed.code, &mut code);
                continue;
            }
        };
        let line = Request {
            id: name.clone(),
            loop_text: text,
            ..req.clone()
        }
        .to_line();

        let mut attempt: u32 = 0;
        let v = loop {
            let response = match client.request(&line) {
                Ok(response) => response,
                Err(e) => {
                    // A dead connection (refused/reset/EOF — the server
                    // crashed or is restarting) is retried by reconnecting
                    // and re-sending: requests are idempotent (responses
                    // are pure functions of requests), so a resend at worst
                    // recomputes. Stalls are not retried — see --timeout.
                    if is_reconnectable(e.kind()) && attempt < retries {
                        let wait = backoff_delay(attempt);
                        attempt += 1;
                        eprintln!(
                            "ltspc: connection to {addr} lost at {name} ({e}), \
                         reconnecting in {}ms (attempt {attempt}/{retries})",
                            wait.as_millis()
                        );
                        std::thread::sleep(wait);
                        if let Ok(c) = Client::connect(&addr, timeout) {
                            client = c;
                        }
                        // A failed reconnect keeps the dead connection: the
                        // next send fails again and consumes the next attempt.
                        continue;
                    }
                    report_net_error("exchanging", &name, &addr, &e, timeout_secs);
                    set_code(EXIT_IO, &mut code);
                    break 'files;
                }
            };
            let v = match json::parse(&response) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("ltspc: bad response for {name}: {e}");
                    set_code(EXIT_IO, &mut code);
                    continue 'files;
                }
            };
            // An overloaded server sheds load *now*; the request is
            // worth re-sending after a breather. Capped exponential
            // backoff: 100ms · 2^attempt, at most 2s per wait.
            if v.get("status").and_then(JsonValue::as_str) == Some("overloaded")
                && attempt < retries
            {
                let wait = backoff_delay(attempt);
                attempt += 1;
                eprintln!(
                    "ltspc: server overloaded, retrying {name} in {}ms \
                     (attempt {attempt}/{retries})",
                    wait.as_millis()
                );
                std::thread::sleep(wait);
                continue;
            }
            break v;
        };
        // Only `overloaded` is retried: a `draining` server is going away
        // on purpose, and the same address cannot answer a resend.
        let printed = print_answer(&name, &v);
        printed.emit();
        set_code(printed.code, &mut code);
    }

    if shutdown && code != EXIT_IO && client.shutdown("ltspc-shutdown").is_err() {
        eprintln!("ltspc: shutdown request to {addr} got no acknowledgment");
        set_code(EXIT_IO, &mut code);
    }
    ExitCode::from(code)
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
                interval_ms = Some(flag_value(it.next()))
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--count" => count = flag_value(it.next()),
            "--timeout" => timeout_secs = flag_value(it.next()),
            flag if flag.starts_with("--") => usage(),
            other if addr.is_none() => addr = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let timeout = (timeout_secs > 0).then(|| std::time::Duration::from_secs(timeout_secs));
    let mut client = match Client::connect(&addr, timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ltspc: cannot connect to {addr}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };

    let tty = std::io::stdout().is_terminal();
    let mut prev_total: Option<f64> = None;
    let mut prev_shard: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut prev_when = std::time::Instant::now();
    let mut tick: u64 = 0;
    loop {
        let snap = match client.metrics("ltspc-top") {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ltspc: top: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        let now = std::time::Instant::now();
        let dt = now.duration_since(prev_when).as_secs_f64();
        let statuses = ["ok", "rejected", "error", "overloaded", "draining"];
        // A router's aggregated snapshot switches the dashboard to
        // cluster mode.
        let shard_ids = snap.shard_ids();
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
        if shard_ids.is_empty() {
            println!("ltspd {addr} — {total:.0} requests");
        } else {
            println!(
                "ltspr {addr} — {total:.0} requests over {} shard(s)",
                shard_ids.len()
            );
        }
        match rps {
            Some(r) => println!("  rate        {r:8.1} req/s"),
            None => println!("  rate        (first sample)"),
        }
        if !shard_ids.is_empty() {
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
        } else {
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
                println!(
                    "  {cache:<7} cache {hits:8.0} hits {misses:8.0} misses ({ratio:5.1}% hit)"
                );
            }
            let inline = snap.value("ltsp_served_inline_total", &[]).unwrap_or(0.0);
            println!("  {:<11} {inline:8.0}", "inline");
            for g in ["ltsp_queue_depth", "ltsp_inflight", "ltsp_connections"] {
                let v = snap.value(g, &[]).unwrap_or(0.0);
                println!("  {:<11} {v:8.0}", g.trim_start_matches("ltsp_"));
            }
            println!("  phase            p50us      p99us    samples");
            let phases = "parse hlo ddg mrt sched regalloc render cache_lookup queue_wait \
                          dispatch handler write";
            for phase in phases.split_whitespace() {
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
        }

        tick += 1;
        if count > 0 && tick >= count {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => run_serve(&argv[1..]),
        Some("remote") => run_remote(&argv[1..]),
        Some("top") => run_top(&argv[1..]),
        Some("verify") => run_local(ReqOp::Verify, &argv[1..]),
        Some("oracle") => run_local(ReqOp::Oracle, &argv[1..]),
        _ => run_local(ReqOp::Compile, &argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Every flag the daemon takes, through the one parser, lands in its
    /// `ServerConfig` field; all but `--addr` would reach a cluster's
    /// shards verbatim.
    #[test]
    fn serve_parses_every_daemon_flag() {
        let argv = args(
            "--addr 127.0.0.1:7000 --jobs 3 --queue 5 --outbound 6 \
             --write-deadline-ms 700 --cache-bytes 800 --result-cache-bytes 900 \
             --oracle-deadline-ms 1100 --flight-dir fl \
             --flight-len 12 --persist p.log --persist-warn-mb 13 \
             --trace-out t.jsonl --metrics-out m.json -v",
        );
        let s = parse_serve(&argv).expect("every daemon flag parses");
        let (c, e) = (&s.cfg, &s.cfg.engine);
        assert_eq!(c.addr, "127.0.0.1:7000");
        assert_eq!(c.jobs, 3);
        assert_eq!(c.queue_high_water, 5);
        assert_eq!(c.outbound_max, 6);
        assert_eq!(c.write_deadline, std::time::Duration::from_millis(700));
        assert!(c.handle_signals);
        assert_eq!(e.compile_cache_bytes, 800);
        assert_eq!(e.result_cache_bytes, 900);
        assert_eq!(e.oracle_deadline_ms, Some(1100));
        assert_eq!(e.flight_dir, Some("fl".into()));
        assert_eq!(e.flight_len, 12);
        assert_eq!(e.persist_path, Some("p.log".into()));
        assert_eq!(e.persist_warn_bytes, Some(13 << 20));
        assert_eq!(s.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(s.metrics_out.as_deref(), Some("m.json"));
        assert!(s.verbose);
        assert_eq!((s.cluster, s.persist_dir), (None, None));
        assert_eq!(s.shard_args, argv[2..]);

        let s = parse_serve(&args("--oracle-deadline-ms 0 --verbose")).expect("parses");
        assert_eq!(s.cfg.engine.oracle_deadline_ms, None, "0 = unlimited");
        assert!(s.verbose);

        // A request carries its own node budget: the daemon has none to set.
        for argv in ["--oracle-budget 1000", "--cluster 2 --oracle-budget 1000"] {
            let e = parse_serve(&args(argv))
                .err()
                .expect("no daemon-wide budget");
            assert_eq!(e, "unknown flag --oracle-budget");
        }
    }

    /// A cluster keeps `--addr`, `--cluster` and `--persist-dir` for
    /// itself and hands every other flag to its shards as given.
    #[test]
    fn serve_cluster_forwards_shard_flags_verbatim() {
        let s = parse_serve(&args(
            "--cluster 2 --addr 127.0.0.1:7399 --jobs 2 --write-deadline-ms 50 \
             --persist-dir d --cache-bytes 1024 -v",
        ))
        .expect("parses");
        assert_eq!(s.cluster, Some(2));
        assert_eq!(s.persist_dir.as_deref(), Some("d"));
        assert_eq!(
            s.shard_args,
            args("--jobs 2 --write-deadline-ms 50 --cache-bytes 1024 -v")
        );
    }

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
