//! `loadgen` — closed-loop load generator for the `ltspd` daemon
//! (`ltspc serve`) or a cluster router, talking to it through
//! `ltsp_server::client`.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--conns N] [--requests N] [--mix C:V:O]
//!         [--backend heuristic|exact|tiered] [--mode static|adaptive]
//!         [--corpus DIR] [--burst K] [--seed N] [--out FILE]
//!         [--timings] [--metrics-out FILE] [--fault-mode] [--shutdown]
//! ```
//!
//! Opens `--conns` connections; each runs a closed loop (send one
//! request, wait for its response) of `--requests` requests drawn
//! deterministically — op by the `--mix compile:verify:oracle` weights,
//! loop file from `--corpus` — from a per-connection `SplitMix64`
//! stream, so two runs with the same seed issue the same workload.
//!
//! `--burst K` prepends an open-loop phase: each connection fires `K`
//! requests back-to-back *without* reading responses, then drains them —
//! the way to push the admission queue past its high-water mark and
//! observe `overloaded` responses (backpressure, not hangs).
//!
//! The report (written to `--out`, default `results/BENCH_serve.json`)
//! gives p50/p95/p99 latency overall and split by cache hit/miss,
//! throughput, cache hit rate, and per-status counts. `--shutdown`
//! drains the server at the end.
//!
//! `--backend` stamps every *compile* request with a scheduling backend
//! (verify/oracle requests are backend-less). With `tiered`, cold
//! compiles answer heuristically and schedule an asynchronous exact
//! refinement that upgrades the cache entry in place; responses served
//! from an upgraded entry carry `cache:"upgraded"` and count as warm
//! hits here. After the main run, loadgen re-polls the corpus (bounded
//! rounds) until at least one upgraded entry is observed — refinement
//! landing is part of the tiered contract — and reports a `"tiered"`
//! block with the upgraded-hit count; zero upgraded entries after the
//! polling budget fails the run.
//!
//! `--mode adaptive` stamps every compile request with the adaptive
//! compilation mode instead: cold compiles answer with the fast static
//! schedule and enqueue an asynchronous feedback-directed refinement
//! (simulate → refine hints → re-pipeline to a certified fixpoint) that
//! upgrades the cache entry in place with the converged bytes. As with
//! tiered, `cache:"upgraded"` responses count as warm hits, a bounded
//! post-run poll waits for at least one adaptive upgrade to land, and
//! zero upgrades after the budget fails the run; the report carries a
//! matching `"adaptive"` block. Adaptive refines the heuristic backend
//! only, so `--mode adaptive` rejects `--backend exact|tiered`.
//!
//! `--timings` sets the opt-in per-request flag: every response carries
//! its server-side per-phase breakdown, which loadgen accumulates into
//! client-side histograms and reports as a `"phases"` block (p50/p99
//! per phase) — the per-phase KPI record. `--metrics-out FILE` scrapes
//! the daemon's `{"op":"metrics"}` Prometheus snapshot at the end of
//! the run (before `--shutdown`), writes it to FILE, and **fails
//! loudly** when observability disagrees with the load generator's own
//! accounting: expected phase histograms empty, panic counters nonzero
//! outside fault mode, or shed/panic counters inconsistent with the
//! drops and errors the client actually saw.
//!
//! `--fault-mode` drives a daemon running under `LTSP_FAULT` (see
//! `ltsp_server::fault`): injected connection drops are *expected*, so a
//! mid-workload EOF/reset reconnects and moves on (counted in the
//! report's `fault` block) instead of aborting, `error` responses
//! (contained handler panics) don't fail the run, and every read gets a
//! 30s deadline — a response that never comes means a wedged
//! connection, which *does* fail the run. That is the chaos-smoke CI
//! contract: faults are shed, nothing hangs.
//!
//! Pointed at an `ltspr` cluster router instead of a single daemon,
//! loadgen detects the aggregated snapshot (via `ltsp_shard_up`) and
//! adds a `"cluster"` block to the report — shard count, router
//! proxy/failover counters, and per-shard request share, hit rate, and
//! handler p99. The `--metrics-out` cross-check sums shard-labeled
//! samples so the same invariants hold against a router.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ltsp_ir::SplitMix64;
use ltsp_server::client::Client;
use ltsp_telemetry::prom::PromSnapshot;
use ltsp_telemetry::{json, Histogram};

/// The bound on a connect and on each response wherever loadgen waits
/// with a deadline: fault mode, the upgrade poll, scrapes and shutdown.
const DEADLINE: Duration = Duration::from_secs(30);

struct Options {
    addr: String,
    conns: usize,
    requests: usize,
    mix: (u64, u64, u64),
    backend: Option<String>,
    mode: Option<String>,
    corpus: String,
    burst: usize,
    synthetic: usize,
    seed: u64,
    out: String,
    timings: bool,
    metrics_out: Option<String>,
    fault_mode: bool,
    shutdown: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--conns N] [--requests N] [--mix C:V:O]\n\
         \x20              [--backend heuristic|exact|tiered] [--mode static|adaptive]\n\
         \x20              [--corpus DIR] [--synthetic N] [--burst K] [--seed N]\n\
         \x20              [--out FILE] [--timings] [--metrics-out FILE]\n\
         \x20              [--fault-mode] [--shutdown]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options {
        addr: "127.0.0.1:7099".to_string(),
        conns: 4,
        requests: 64,
        mix: (6, 3, 1),
        backend: None,
        mode: None,
        corpus: "loops".to_string(),
        burst: 0,
        synthetic: 0,
        seed: 42,
        out: "results/BENCH_serve.json".to_string(),
        timings: false,
        metrics_out: None,
        fault_mode: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    let num =
        |v: Option<String>| -> u64 { v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()) };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => o.addr = args.next().unwrap_or_else(|| usage()),
            "--conns" => o.conns = num(args.next()).max(1) as usize,
            "--requests" => o.requests = num(args.next()) as usize,
            "--mix" => {
                let v = args.next().unwrap_or_else(|| usage());
                let parts: Vec<u64> = v.split(':').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 3 || parts.iter().sum::<u64>() == 0 {
                    usage()
                }
                o.mix = (parts[0], parts[1], parts[2]);
            }
            "--backend" => {
                o.backend = match args.next().as_deref() {
                    Some(b @ ("heuristic" | "exact" | "tiered")) => Some(b.to_string()),
                    _ => usage(),
                }
            }
            "--mode" => {
                o.mode = match args.next().as_deref() {
                    Some(m @ ("static" | "adaptive")) => Some(m.to_string()),
                    _ => usage(),
                }
            }
            "--corpus" => o.corpus = args.next().unwrap_or_else(|| usage()),
            "--burst" => o.burst = num(args.next()) as usize,
            "--synthetic" => o.synthetic = num(args.next()) as usize,
            "--dump" => {
                // Debug aid: write the synthetic kernels as .loop files and exit.
                let dir = args.next().unwrap_or_else(|| usage());
                std::fs::create_dir_all(&dir).expect("create dump dir");
                let n = o.synthetic.max(1);
                for i in 0..n {
                    let lp = synthetic_loop(i);
                    let path = format!("{dir}/syn{i}.loop");
                    std::fs::write(&path, lp.to_string()).expect("write loop");
                    eprintln!("loadgen: wrote {path}");
                }
                std::process::exit(0);
            }
            "--seed" => o.seed = num(args.next()),
            "--out" => o.out = args.next().unwrap_or_else(|| usage()),
            "--timings" => o.timings = true,
            "--metrics-out" => o.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--fault-mode" => o.fault_mode = true,
            "--shutdown" => o.shutdown = true,
            _ => usage(),
        }
    }
    if o.mode.as_deref() == Some("adaptive")
        && !matches!(o.backend.as_deref(), None | Some("heuristic"))
    {
        eprintln!("loadgen: --mode adaptive refines the heuristic backend only");
        std::process::exit(2);
    }
    o
}

/// A deterministic scheduling-heavy kernel: several FP streams, each
/// feeding a long dependent fma/fmul chain. Dozens of instructions and
/// high register pressure make the modulo scheduler work for a living —
/// the workload class where a schedule cache actually pays, as opposed
/// to the microsecond-scale corpus kernels. Shared with the
/// compile-phases KPI harness via [`ltsp_workloads::scheduling_heavy`].
fn synthetic_loop(i: usize) -> ltsp_ir::LoopIr {
    ltsp_workloads::scheduling_heavy(&format!("syn{i}"), 3, 9 + i % 5)
}

/// One response's accounting.
struct Sample {
    status: String,
    cache: String,
    micros: u64,
}

/// The sorted `.loop` corpus: (name, JSON-escaped text).
fn load_corpus(dir: &str) -> Vec<(String, String)> {
    // `--corpus ''` means "no on-disk corpus" — used with --synthetic to
    // benchmark a purely scheduling-heavy workload.
    if dir.is_empty() {
        return Vec::new();
    }
    let mut files: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "loop"))
            .collect(),
        Err(e) => {
            eprintln!("loadgen: cannot read corpus {dir}: {e}");
            std::process::exit(3);
        }
    };
    files.sort();
    files
        .into_iter()
        .filter_map(|p| {
            let name = p.file_stem()?.to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).ok()?;
            Some((name, json::escape(&text)))
        })
        .collect()
}

/// Builds the `i`-th request line for one connection's PRNG stream.
fn build_request(
    rng: &mut SplitMix64,
    o: &Options,
    corpus: &[(String, String)],
    conn: usize,
    i: usize,
) -> String {
    let (c, v, z) = o.mix;
    let pick = rng.next_u64() % (c + v + z);
    let op = if pick < c {
        "compile"
    } else if pick < c + v {
        "verify"
    } else {
        "oracle"
    };
    let (name, text) = &corpus[(rng.next_u64() % corpus.len() as u64) as usize];
    let flags = if o.timings { ",\"timings\":true" } else { "" };
    // The scheduling backend and compilation mode are compile-time
    // concepts; verify/oracle requests stay unstamped whatever
    // --backend/--mode say.
    let backend = match (&o.backend, op) {
        (Some(b), "compile") => format!(",\"backend\":\"{b}\""),
        _ => String::new(),
    };
    let mode = match (&o.mode, op) {
        (Some(m), "compile") => format!(",\"mode\":\"{m}\""),
        _ => String::new(),
    };
    // deadline_ms:0 keeps oracle work node-budget-bound (deterministic).
    format!(
        "{{\"op\":\"{op}\",\"id\":\"{conn}-{i}-{name}\",\"loop\":\"{text}\"{backend}{mode},\"deadline_ms\":0{flags}}}"
    )
}

/// Fault-mode accounting for one connection: injected drops survived.
#[derive(Default)]
struct FaultStats {
    /// Times the connection died mid-workload and was reopened.
    reconnects: u64,
    /// Requests whose responses were lost to a drop (not re-sent — an
    /// injected drop keys on the response id and would fire again).
    lost: u64,
}

/// True for the error kinds an injected connection drop produces at the
/// client (as opposed to a deadline expiry, which means a wedge).
fn is_drop(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
    )
}

/// Runs one connection's workload; returns its samples (plus survived
/// drops in fault mode).
fn run_conn(
    o: &Options,
    corpus: &[(String, String)],
    conn: usize,
) -> std::io::Result<(Vec<Sample>, FaultStats, BTreeMap<String, Histogram>)> {
    // The wedge detector: under faults, a response that never arrives
    // must fail the run loudly, not hang it.
    let connect = || Client::connect(&o.addr, o.fault_mode.then_some(DEADLINE));
    let mut client = connect()?;
    let mut stats = FaultStats::default();
    let mut phases: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut rng = SplitMix64::new(o.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut samples = Vec::with_capacity(o.burst + o.requests);
    let read_sample = |client: &mut Client,
                       phases: &mut BTreeMap<String, Histogram>,
                       micros: u64|
     -> std::io::Result<Sample> {
        let line = client.recv()?;
        let v = json::parse(&line).map_err(std::io::Error::other)?;
        // Opt-in server-side phase breakdown: fold each `<phase>_us`
        // field into the client's own histograms. Zero spans are skipped
        // — a request that never touched a phase is not a 0us sample of
        // that phase.
        if let Some(t) = v.get("timings") {
            if let Some(fields) = t.as_object() {
                for (k, val) in fields {
                    let (Some(name), Some(us)) = (k.strip_suffix("_us"), val.as_u64()) else {
                        continue;
                    };
                    if us > 0 {
                        phases.entry(name.to_string()).or_default().record(us);
                    }
                }
            }
        }
        Ok(Sample {
            status: v
                .get("status")
                .and_then(|s| s.as_str())
                .unwrap_or("?")
                .to_string(),
            cache: v
                .get("cache")
                .and_then(|s| s.as_str())
                .unwrap_or("-")
                .to_string(),
            micros,
        })
    };

    // Open-loop burst: flood first, drain after (latency not meaningful
    // here — recorded as 0 and excluded from percentiles).
    if o.burst > 0 {
        for i in 0..o.burst {
            client.send(&build_request(&mut rng, o, corpus, conn, i))?;
        }
        for got in 0..o.burst {
            match read_sample(&mut client, &mut phases, 0) {
                Ok(mut s) => {
                    s.micros = 0;
                    samples.push(s);
                }
                Err(e) if o.fault_mode && is_drop(&e) => {
                    // A drop mid-burst kills every response still
                    // queued behind it on this connection.
                    stats.lost += (o.burst - got) as u64;
                    stats.reconnects += 1;
                    client = connect()?;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // Closed loop: one request in flight at a time.
    for i in 0..o.requests {
        let req = build_request(&mut rng, o, corpus, conn, o.burst + i);
        let t0 = Instant::now();
        let outcome = client
            .send(&req)
            .and_then(|()| read_sample(&mut client, &mut phases, 0));
        match outcome {
            Ok(mut s) => {
                s.micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                samples.push(s);
            }
            Err(e) if o.fault_mode && is_drop(&e) => {
                // Injected drop: the response is gone by design. Move
                // on with a fresh connection; the id is not re-sent
                // (the drop decision is deterministic per id and would
                // just fire again).
                stats.lost += 1;
                stats.reconnects += 1;
                client = connect()?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok((samples, stats, phases))
}

/// Re-sends compile requests (stamped with `stamp` — the tiered backend
/// or the adaptive mode) for every corpus entry until at least one
/// response carries `cache:"upgraded"`, up to `max_rounds` sweeps with a
/// 10ms breather between them. Returns the number of upgraded responses
/// observed in the final sweep and the rounds used.
fn poll_for_upgrades(
    o: &Options,
    corpus: &[(String, String)],
    stamp: &str,
    max_rounds: usize,
) -> std::io::Result<(usize, usize)> {
    let mut client = Client::connect(&o.addr, Some(DEADLINE))?;
    for round in 1..=max_rounds {
        let mut seen = 0usize;
        for (name, text) in corpus {
            let line = client.request(&format!(
                "{{\"op\":\"compile\",\"id\":\"upgrade-poll-{round}-{name}\",\"loop\":\"{text}\",\
                 {stamp},\"deadline_ms\":0}}"
            ))?;
            if line.contains("\"cache\":\"upgraded\"") {
                seen += 1;
            }
        }
        if seen > 0 {
            return Ok((seen, round));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok((0, max_rounds))
}

/// One metrics-op round trip: returns the Prometheus text snapshot.
fn scrape_metrics(addr: &str) -> std::io::Result<String> {
    Client::connect(addr, Some(DEADLINE))?.metrics_text("loadgen-metrics")
}

/// Shard indices of an aggregated (router) metrics snapshot, as label
/// values — empty against a plain single-process daemon, which is how
/// loadgen detects it talked to `ltspr`.
fn shard_ids(snap: &PromSnapshot) -> Vec<String> {
    snap.shard_ids().iter().map(u64::to_string).collect()
}

/// The report's `"cluster"` block: router routing/failover counters
/// plus one entry per shard (liveness, request share, hit rate, p99).
fn cluster_block(snap: &PromSnapshot, ids: &[String]) -> String {
    let v = |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0.0);
    let mut out = String::from("{\n");
    out.push_str(&format!("    \"shards\": {},\n", ids.len()));
    out.push_str(&format!(
        "    \"router_proxied\": {:.0},\n",
        v("ltsp_router_proxied_total", &[])
    ));
    out.push_str(&format!(
        "    \"router_failovers\": {:.0},\n",
        v("ltsp_router_failovers_total", &[])
    ));
    out.push_str(&format!(
        "    \"router_retries_exhausted\": {:.0},\n",
        v("ltsp_router_retries_exhausted_total", &[])
    ));
    out.push_str("    \"per_shard\": {");
    for (i, s) in ids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let requests: f64 = ["ok", "rejected", "error", "overloaded", "draining"]
            .iter()
            .map(|st| v("ltsp_requests_total", &[("shard", s), ("status", st)]))
            .sum();
        let hits = v(
            "ltsp_cache_hits_total",
            &[("shard", s), ("cache", "result")],
        );
        let misses = v(
            "ltsp_cache_misses_total",
            &[("shard", s), ("cache", "result")],
        );
        let hit_rate = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        let p99 = snap
            .histogram_quantile("ltsp_phase_us", &[("phase", "handler"), ("shard", s)], 0.99)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "\"{s}\": {{\"up\": {}, \"requests\": {requests:.0}, \"routed\": {:.0}, \
             \"failed\": {:.0}, \"respawns\": {:.0}, \"hit_rate\": {hit_rate:.4}, \
             \"handler_p99_us\": {p99:.0}}}",
            v("ltsp_shard_up", &[("shard", s)]),
            v("ltsp_shard_routed_total", &[("shard", s)]),
            v("ltsp_shard_failed_total", &[("shard", s)]),
            v("ltsp_shard_respawns_total", &[("shard", s)]),
        ));
    }
    out.push_str("}\n  }");
    out
}

/// The report's `"host"` block: what a reader needs to compare two
/// records (`unknown` where the host does not say).
fn host_block() -> String {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"profile\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json::escape(&cpu_model),
        json::escape(&run("rustc", &["--version"])),
        json::escape(&run(
            "git",
            &["describe", "--always", "--dirty", "--abbrev=40"]
        )),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn pct_block(latencies: &mut [u64]) -> String {
    latencies.sort_unstable();
    format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"count\": {}}}",
        percentile(latencies, 50.0),
        percentile(latencies, 95.0),
        percentile(latencies, 99.0),
        latencies.len()
    )
}

fn main() {
    let o = parse_args();
    let mut corpus = load_corpus(&o.corpus);
    for i in 0..o.synthetic {
        let lp = synthetic_loop(i);
        corpus.push((lp.name().to_string(), json::escape(&lp.to_string())));
    }
    if corpus.is_empty() {
        eprintln!("loadgen: no .loop files in {}", o.corpus);
        std::process::exit(3);
    }

    let t0 = Instant::now();
    type ConnResult = std::io::Result<(Vec<Sample>, FaultStats, BTreeMap<String, Histogram>)>;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..o.conns)
            .map(|conn| {
                let o = &o;
                let corpus = &corpus;
                scope.spawn(move || run_conn(o, corpus, conn))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    let mut fault = FaultStats::default();
    let mut phases: BTreeMap<String, Histogram> = BTreeMap::new();
    for r in results {
        match r {
            Ok((s, f, ph)) => {
                samples.extend(s);
                fault.reconnects += f.reconnects;
                fault.lost += f.lost;
                for (name, h) in ph {
                    phases.entry(name).or_default().merge(&h);
                }
            }
            Err(e) => {
                let wedged = e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut;
                if wedged {
                    eprintln!("loadgen: connection wedged (no response within deadline): {e}");
                } else {
                    eprintln!("loadgen: connection failed: {e}");
                }
                std::process::exit(3);
            }
        }
    }

    let count = |status: &str| samples.iter().filter(|s| s.status == status).count();
    let (ok, rejected, error) = (count("ok"), count("rejected"), count("error"));
    let (overloaded, draining) = (count("overloaded"), count("draining"));
    // An "upgraded" tag is a warm hit whose entry the refinement worker
    // replaced in place with exact-backend bytes — warm for accounting.
    let upgraded = samples.iter().filter(|s| s.cache == "upgraded").count();
    let hits = samples.iter().filter(|s| s.cache == "hit").count() + upgraded;
    let misses = samples.iter().filter(|s| s.cache == "miss").count();
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    // Closed-loop samples only (burst-phase latencies are recorded as 0).
    let lat = |f: &dyn Fn(&Sample) -> bool| -> Vec<u64> {
        samples
            .iter()
            .filter(|s| s.micros > 0 && f(s))
            .map(|s| s.micros)
            .collect()
    };
    let mut all = lat(&|_| true);
    let mut cold = lat(&|s| s.cache == "miss");
    let mut warm = lat(&|s| s.cache == "hit" || s.cache == "upgraded");
    let speedup = {
        let (mut c, mut w) = (cold.clone(), warm.clone());
        c.sort_unstable();
        w.sort_unstable();
        let (cp, wp) = (percentile(&c, 50.0), percentile(&w, 50.0));
        if wp > 0 {
            cp as f64 / wp as f64
        } else {
            0.0
        }
    };

    // Tiered runs must observe the upgrade path end to end: re-poll the
    // corpus (bounded rounds, fresh connection) until at least one
    // response is served from an upgraded entry. Refinement is
    // asynchronous, so the main run may finish before any exact body
    // lands — but landing at all is the tiered contract, and a poll
    // budget exhausted with zero upgrades fails the run loudly.
    let run_poll = |stamp: &str| -> (usize, usize) {
        match poll_for_upgrades(&o, &corpus, stamp, 400) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: upgrade poll failed: {e}");
                std::process::exit(3);
            }
        }
    };
    let tiered_poll: Option<(usize, usize)> =
        (o.backend.as_deref() == Some("tiered")).then(|| run_poll("\"backend\":\"tiered\""));
    // Adaptive runs have the same contract: the feedback-directed
    // refinement is asynchronous, but landing at all is part of the
    // mode, so a poll budget exhausted with zero upgrades fails the run.
    let adaptive_poll: Option<(usize, usize)> =
        (o.mode.as_deref() == Some("adaptive")).then(|| run_poll("\"mode\":\"adaptive\""));
    for (what, poll) in [("tiered", tiered_poll), ("adaptive", adaptive_poll)] {
        if let Some((seen, rounds)) = poll {
            if seen == 0 {
                eprintln!("loadgen: no upgraded {what} cache entries after {rounds} poll rounds");
                std::process::exit(1);
            }
        }
    }

    // Scrape once before rendering the report: against `ltspr` the
    // snapshot carries `ltsp_shard_up` samples, which switches the
    // report into cluster mode and feeds the `"cluster"` block below.
    let run_snap: Option<PromSnapshot> = scrape_metrics(&o.addr)
        .ok()
        .and_then(|t| PromSnapshot::parse(&t).ok());
    let cluster_snap = run_snap.as_ref().filter(|s| !shard_ids(s).is_empty());
    // Requests the server answered on their connection's reader thread
    // (over all shards, behind a router; since the server started).
    let served_inline: f64 = run_snap.as_ref().map_or(0.0, |snap| {
        snap.samples
            .iter()
            .filter(|s| s.name == "ltsp_served_inline_total")
            .map(|s| s.value)
            .sum()
    });

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host\": {},\n", host_block()));
    out.push_str(&format!("  \"addr\": \"{}\",\n", json::escape(&o.addr)));
    out.push_str(&format!("  \"conns\": {},\n", o.conns));
    out.push_str(&format!("  \"requests_per_conn\": {},\n", o.requests));
    out.push_str(&format!("  \"burst_per_conn\": {},\n", o.burst));
    out.push_str(&format!(
        "  \"mix\": \"compile:{}:verify:{}:oracle:{}\",\n",
        o.mix.0, o.mix.1, o.mix.2
    ));
    out.push_str(&format!("  \"seed\": {},\n", o.seed));
    out.push_str(&format!("  \"corpus_files\": {},\n", corpus.len()));
    out.push_str(&format!("  \"wall_s\": {wall_s:.3},\n"));
    out.push_str(&format!(
        "  \"throughput_rps\": {:.1},\n",
        samples.len() as f64 / wall_s.max(1e-9)
    ));
    out.push_str(&format!("  \"responses\": {},\n", samples.len()));
    out.push_str(&format!(
        "  \"status_counts\": {{\"ok\": {ok}, \"rejected\": {rejected}, \"error\": {error}, \
         \"overloaded\": {overloaded}, \"draining\": {draining}}},\n"
    ));
    if o.fault_mode {
        out.push_str(&format!(
            "  \"fault\": {{\"mode\": true, \"reconnects\": {}, \"lost_responses\": {}}},\n",
            fault.reconnects, fault.lost
        ));
    }
    out.push_str(&format!("  \"cache_hits\": {hits},\n"));
    out.push_str(&format!("  \"cache_misses\": {misses},\n"));
    out.push_str(&format!("  \"cache_upgraded\": {upgraded},\n"));
    out.push_str(&format!("  \"cache_hit_rate\": {hit_rate:.4},\n"));
    out.push_str(&format!("  \"served_inline\": {served_inline:.0},\n"));
    if let Some(b) = &o.backend {
        out.push_str(&format!("  \"backend\": \"{b}\",\n"));
    }
    if let Some(m) = &o.mode {
        out.push_str(&format!("  \"mode\": \"{m}\",\n"));
    }
    if let Some((seen, rounds)) = tiered_poll {
        out.push_str(&format!(
            "  \"tiered\": {{\"upgraded_observed\": {seen}, \"poll_rounds\": {rounds}, \
             \"upgraded_in_run\": {upgraded}}},\n"
        ));
    }
    if let Some((seen, rounds)) = adaptive_poll {
        out.push_str(&format!(
            "  \"adaptive\": {{\"upgraded_observed\": {seen}, \"poll_rounds\": {rounds}, \
             \"upgraded_in_run\": {upgraded}}},\n"
        ));
    }
    out.push_str(&format!("  \"latency_us\": {},\n", pct_block(&mut all)));
    out.push_str(&format!(
        "  \"cold_latency_us\": {},\n",
        pct_block(&mut cold)
    ));
    out.push_str(&format!(
        "  \"warm_latency_us\": {},\n",
        pct_block(&mut warm)
    ));
    if o.timings {
        out.push_str("  \"phases\": {");
        for (i, (name, h)) in phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"p50\": {}, \"p99\": {}, \"count\": {}}}",
                h.quantile(0.50).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.count
            ));
        }
        out.push_str("},\n");
    }
    if let Some(snap) = cluster_snap {
        let ids = shard_ids(snap);
        out.push_str(&format!("  \"cluster\": {},\n", cluster_block(snap, &ids)));
    }
    out.push_str(&format!("  \"speedup_warm_p50\": {speedup:.2}\n"));
    out.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&o.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&o.out, &out) {
        eprintln!("loadgen: cannot write {}: {e}", o.out);
        std::process::exit(3);
    }
    print!("{out}");

    // The observability cross-check: scrape the daemon's own metrics
    // (before shutdown) and fail loudly when they disagree with what the
    // load generator just saw. This is the CI guard that the phase
    // histograms are actually fed and the chaos counters actually count.
    if let Some(path) = &o.metrics_out {
        let text = match scrape_metrics(&o.addr) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("loadgen: metrics scrape failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("loadgen: cannot write {path}: {e}");
            std::process::exit(3);
        }
        let snap = match PromSnapshot::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("loadgen: metrics snapshot malformed: {e}");
                std::process::exit(1);
            }
        };
        let mut bad = false;
        // Router snapshots re-emit every shard sample with a `shard`
        // label; sum across shards so the same invariants hold whether
        // loadgen pointed at a daemon or at `ltspr`.
        let ids = shard_ids(&snap);
        let phase_count = |phase: &str| -> u64 {
            let count = |labels: &[(&str, &str)]| {
                snap.histogram_count("ltsp_phase_us", labels).unwrap_or(0.0)
            };
            if ids.is_empty() {
                count(&[("phase", phase)]) as u64
            } else {
                ids.iter()
                    .map(|s| count(&[("phase", phase), ("shard", s)]))
                    .sum::<f64>() as u64
            }
        };
        // Every handled request has a `handler` span and a `write`;
        // only the ones that crossed the queue have `queue_wait` and
        // `dispatch` (a result-cache hit on an idle connection is
        // answered where it was read); compile phases additionally
        // require at least one result-cache miss.
        let mut expected = vec!["handler", "write"];
        if misses > 0 {
            expected.extend(["queue_wait", "dispatch", "parse"]);
        }
        for phase in expected {
            if phase_count(phase) == 0 {
                eprintln!("loadgen: phase histogram '{phase}' has no samples");
                bad = true;
            }
        }
        let counter = |name: &str| -> u64 {
            if ids.is_empty() {
                snap.value(name, &[]).unwrap_or(0.0) as u64
            } else {
                ids.iter()
                    .map(|s| snap.value(name, &[("shard", s)]).unwrap_or(0.0))
                    .sum::<f64>() as u64
            }
        };
        // Where the hits went: the requests that did not wait in the
        // queue are exactly the ones the readers served inline. (A
        // contained panic has neither span, so the identity is a
        // fault-free one.)
        let served_inline = counter("ltsp_served_inline_total");
        let (handled, queued) = (phase_count("handler"), phase_count("queue_wait"));
        if !o.fault_mode && queued + served_inline != handled {
            eprintln!(
                "loadgen: {handled} requests handled, but {queued} queue_wait samples + \
                 {served_inline} served inline"
            );
            bad = true;
        }
        let panics = counter("ltsp_request_panics_total");
        let conn_shed = counter("ltsp_connections_shed_total");
        if o.fault_mode {
            // Every contained-panic error the client saw must be counted
            // server-side, and every injected-drop reconnect implies a
            // shed connection.
            if (panics as usize) < error {
                eprintln!(
                    "loadgen: saw {error} panic-error responses but server counted \
                     only {panics} request panics"
                );
                bad = true;
            }
            if conn_shed < fault.reconnects {
                eprintln!(
                    "loadgen: survived {} injected drops but server counted only \
                     {conn_shed} shed connections",
                    fault.reconnects
                );
                bad = true;
            }
        } else {
            for (name, v) in [
                ("ltsp_request_panics_total", panics),
                ("ltsp_connections_shed_total", conn_shed),
                (
                    "ltsp_responses_shed_total",
                    counter("ltsp_responses_shed_total"),
                ),
                (
                    "ltsp_dispatcher_deaths_total",
                    counter("ltsp_dispatcher_deaths_total"),
                ),
            ] {
                if v != 0 {
                    eprintln!("loadgen: {name} = {v} on a fault-free run");
                    bad = true;
                }
            }
        }
        if bad {
            eprintln!("loadgen: metrics disagree with load-generator accounting");
            std::process::exit(1);
        }
        eprintln!("loadgen: metrics cross-check ok ({path})");
    }

    if o.shutdown {
        if let Ok(mut c) = Client::connect(&o.addr, Some(DEADLINE)) {
            let _ = c.shutdown("loadgen-shutdown");
        }
    }

    // Contained handler panics surface as `error` responses — under
    // fault injection that is the success criterion, not a failure.
    if error > 0 && !o.fault_mode {
        eprintln!("loadgen: {error} error responses");
        std::process::exit(1);
    }
}
