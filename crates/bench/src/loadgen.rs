//! Closed-loop load generator for `ltspc serve` or a cluster router,
//! talking to it through `ltsp_server::client`. The `loadgen` binary is
//! its command line; the daemon tests in `tests/cli_serve.rs` and
//! `tests/cluster.rs` call [`run`] and assert on the typed [`Report`].
//!
//! A [`Plan`] opens `conns` connections; each runs a closed loop (send one
//! request, wait for its response) of `requests` requests drawn
//! deterministically — op by the `mix` weights, loop by corpus index —
//! from a per-connection `SplitMix64` stream, so two runs with the same
//! seed issue the same workload. `burst` first fires that many requests
//! per connection without reading, to push the admission queue past its
//! high-water mark (`overloaded` responses: backpressure, not hangs).
//!
//! `backend` and `mode` stamp every *compile* request. Under
//! `backend: tiered` (an asynchronous exact refinement) or `mode:
//! adaptive` (an asynchronous feedback-directed one), a refined entry is
//! replaced in place and served as `cache:"upgraded"`, a warm hit here;
//! landing at all is the contract, so [`run`] then re-polls the corpus
//! for a bounded number of rounds until one upgraded response shows
//! ([`Report::tiered`], [`Report::adaptive`]).
//!
//! `timings` asks every response for its server-side phase breakdown
//! ([`Report::phases`]). [`cross_check`] holds a daemon's metrics
//! snapshot against the run: expected phase histograms empty, panic or
//! shed counters nonzero outside fault mode, or short of the errors and
//! drops the client saw inside it.
//!
//! `fault_mode` drives a daemon under `LTSP_FAULT` (`ltsp_server::fault`):
//! an injected drop reconnects and moves on ([`Report::fault`]), contained
//! panics answer `error`, and every read has a [`DEADLINE`] — a response
//! that never comes is a wedged connection, which fails the run.
//!
//! Against a cluster router the end-of-run snapshot carries
//! `ltsp_shard_up`; it is kept as [`Report::cluster`] and rendered as the
//! record's `"cluster"` block (router failover counters, per-shard share,
//! hit rate, respawns and handler p99), and [`cross_check`] sums the
//! shard-labelled samples.

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use ltsp_ir::SplitMix64;
use ltsp_server::client::Client;
use ltsp_server::{Backend, Mode, ReqOp, Request};
use ltsp_telemetry::prom::PromSnapshot;
use ltsp_telemetry::{json, Histogram};

/// The bound on a connect and on each response wherever loadgen waits
/// with a deadline: fault mode, the upgrade poll, scrapes and shutdown.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// The workload of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Daemon or router address.
    pub addr: String,
    /// Connections, each running its own closed loop.
    pub conns: usize,
    /// Closed-loop requests per connection.
    pub requests: usize,
    /// `compile:verify:oracle` weights.
    pub mix: (u64, u64, u64),
    /// Scheduling backend stamped on compile requests.
    pub backend: Option<Backend>,
    /// Compilation mode stamped on compile requests.
    pub mode: Option<Mode>,
    /// Directory of `.loop` files; empty for none (with `synthetic`, a
    /// purely scheduling-heavy workload).
    pub corpus: String,
    /// Open-loop requests per connection, sent before the closed loop.
    pub burst: usize,
    /// Scheduling-heavy kernels added to the corpus.
    pub synthetic: usize,
    /// Seed of every connection's request stream.
    pub seed: u64,
    /// Ask every response for its server-side phase breakdown.
    pub timings: bool,
    /// Expect injected faults: reconnect on drops, bound every read.
    pub fault_mode: bool,
}

impl Default for Plan {
    fn default() -> Self {
        Plan {
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
            timings: false,
            fault_mode: false,
        }
    }
}

/// Responses by status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    pub ok: usize,
    pub rejected: usize,
    pub error: usize,
    pub overloaded: usize,
    pub draining: usize,
}

/// Fault-mode accounting: injected drops survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Times a connection died mid-workload and was reopened.
    pub reconnects: u64,
    /// Requests whose responses were lost to a drop (not re-sent — an
    /// injected drop keys on the response id and would fire again).
    pub lost: u64,
}

/// The post-run poll for upgraded cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poll {
    /// Upgraded responses in the last sweep (0: none landed in budget).
    pub upgraded_observed: usize,
    /// Sweeps used.
    pub rounds: usize,
}

/// What one run saw.
#[derive(Debug, Default)]
pub struct Report {
    pub plan: Plan,
    /// Corpus entries: `.loop` files plus synthetic kernels.
    pub corpus_files: usize,
    pub wall_s: f64,
    pub responses: usize,
    pub status: StatusCounts,
    /// Warm responses, upgraded ones included.
    pub hits: usize,
    pub misses: usize,
    /// Responses served from an entry a refinement replaced in place.
    pub upgraded: usize,
    /// Requests the server answered on their connection's reader thread
    /// (over all shards, behind a router; since the server started).
    pub served_inline: u64,
    /// Closed-loop latencies in µs, sorted: all responses, misses, hits.
    pub latency_us: Vec<u64>,
    pub cold_us: Vec<u64>,
    pub warm_us: Vec<u64>,
    /// Server-side phase breakdowns (`timings`), by phase.
    pub phases: BTreeMap<String, Histogram>,
    pub fault: FaultStats,
    pub tiered: Option<Poll>,
    pub adaptive: Option<Poll>,
    /// The end-of-run snapshot, when it came from a cluster router.
    pub cluster: Option<PromSnapshot>,
}

/// One response's accounting.
struct Sample {
    status: String,
    cache: String,
    micros: u64,
}

/// The sorted `.loop` corpus: (name, text).
fn load_corpus(dir: &str) -> io::Result<Vec<(String, String)>> {
    if dir.is_empty() {
        return Ok(Vec::new());
    }
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot read corpus {dir}: {e}")))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    Ok(files
        .into_iter()
        .filter_map(|p| {
            let name = p.file_stem()?.to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).ok()?;
            Some((name, text))
        })
        .collect())
}

/// Builds the `i`-th request line for one connection's PRNG stream.
fn build_request(
    rng: &mut SplitMix64,
    plan: &Plan,
    corpus: &[(String, String)],
    conn: usize,
    i: usize,
) -> String {
    let (c, v, z) = plan.mix;
    let pick = rng.next_u64() % (c + v + z);
    let op = if pick < c {
        ReqOp::Compile
    } else if pick < c + v {
        ReqOp::Verify
    } else {
        ReqOp::Oracle
    };
    let (name, text) = &corpus[(rng.next_u64() % corpus.len() as u64) as usize];
    // The scheduling backend and compilation mode are compile-time
    // concepts; verify/oracle requests stay unstamped.
    let compile = op == ReqOp::Compile;
    Request {
        id: format!("{conn}-{i}-{name}"),
        op,
        loop_text: text.clone(),
        backend: plan.backend.filter(|_| compile).unwrap_or_default(),
        mode: plan.mode.filter(|_| compile).unwrap_or_default(),
        // 0 keeps oracle work node-budget-bound (deterministic).
        deadline_ms: Some(0),
        timings: plan.timings,
        ..Request::default()
    }
    .to_line()
}

/// True for the error kinds an injected connection drop produces at the
/// client (as opposed to a deadline expiry, which means a wedge).
fn is_drop(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

type ConnResult = io::Result<(Vec<Sample>, FaultStats, BTreeMap<String, Histogram>)>;

/// Runs one connection's workload; returns its samples (plus survived
/// drops in fault mode).
fn run_conn(plan: &Plan, corpus: &[(String, String)], conn: usize) -> ConnResult {
    // The wedge detector: under faults, a response that never arrives
    // must fail the run loudly, not hang it.
    let connect = || Client::connect(&plan.addr, plan.fault_mode.then_some(DEADLINE));
    let mut client = connect()?;
    let mut stats = FaultStats::default();
    let mut phases: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut rng = SplitMix64::new(plan.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut samples = Vec::with_capacity(plan.burst + plan.requests);
    let read_sample =
        |client: &mut Client, phases: &mut BTreeMap<String, Histogram>| -> io::Result<Sample> {
            let line = client.recv()?;
            let v = json::parse(&line).map_err(io::Error::other)?;
            // Opt-in server-side phase breakdown: fold each `<phase>_us`
            // field into the client's own histograms. Zero spans are skipped
            // — a request that never touched a phase is not a 0us sample of
            // that phase.
            for (k, val) in v.get("timings").and_then(|t| t.as_object()).unwrap_or(&[]) {
                if let (Some(name), Some(us @ 1..)) = (k.strip_suffix("_us"), val.as_u64()) {
                    phases.entry(name.to_string()).or_default().record(us);
                }
            }
            let field = |key: &str, absent: &str| {
                v.get(key)
                    .and_then(|s| s.as_str())
                    .unwrap_or(absent)
                    .to_string()
            };
            Ok(Sample {
                status: field("status", "?"),
                cache: field("cache", "-"),
                micros: 0,
            })
        };

    // Open-loop burst: flood first, drain after (latency not meaningful
    // here — recorded as 0 and excluded from percentiles).
    if plan.burst > 0 {
        for i in 0..plan.burst {
            client.send(&build_request(&mut rng, plan, corpus, conn, i))?;
        }
        for got in 0..plan.burst {
            match read_sample(&mut client, &mut phases) {
                Ok(s) => samples.push(s),
                Err(e) if plan.fault_mode && is_drop(&e) => {
                    // A drop mid-burst kills every response still
                    // queued behind it on this connection.
                    stats.lost += (plan.burst - got) as u64;
                    stats.reconnects += 1;
                    client = connect()?;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // Closed loop: one request in flight at a time.
    for i in 0..plan.requests {
        let req = build_request(&mut rng, plan, corpus, conn, plan.burst + i);
        let t0 = Instant::now();
        let outcome = client
            .send(&req)
            .and_then(|()| read_sample(&mut client, &mut phases));
        match outcome {
            Ok(mut s) => {
                s.micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                samples.push(s);
            }
            Err(e) if plan.fault_mode && is_drop(&e) => {
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

/// Re-sends compile requests under `backend` and `mode` (the tiered
/// backend or the adaptive mode) for every corpus entry until at least
/// one response carries `cache:"upgraded"`, up to `max_rounds` sweeps
/// with a 10ms breather between them.
fn poll_for_upgrades(
    plan: &Plan,
    corpus: &[(String, String)],
    (backend, mode): (Backend, Mode),
) -> io::Result<Poll> {
    const MAX_ROUNDS: usize = 400;
    let mut client = Client::connect(&plan.addr, Some(DEADLINE))?;
    for rounds in 1.. {
        let mut seen = 0usize;
        for (name, text) in corpus {
            let line = client.request(
                &Request {
                    id: format!("upgrade-poll-{rounds}-{name}"),
                    op: ReqOp::Compile,
                    loop_text: text.clone(),
                    backend,
                    mode,
                    deadline_ms: Some(0),
                    ..Request::default()
                }
                .to_line(),
            )?;
            if line.contains("\"cache\":\"upgraded\"") {
                seen += 1;
            }
        }
        if seen > 0 || rounds == MAX_ROUNDS {
            let upgraded_observed = seen;
            return Ok(Poll {
                upgraded_observed,
                rounds,
            });
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    unreachable!("the poll returns by its last round")
}

/// Runs `plan` against its address and accounts every response.
///
/// # Errors
///
/// An unreadable or empty corpus; a connection that fails outside fault
/// mode's expected drops, or whose response misses [`DEADLINE`] (a
/// wedge: `WouldBlock`/`TimedOut`); a failed upgrade poll.
pub fn run(plan: &Plan) -> io::Result<Report> {
    let dir = &plan.corpus;
    let mut corpus = load_corpus(dir)?;
    // Scheduling-heavy kernels (shared with the compile-phases harness):
    // the workload class where a schedule cache actually pays.
    for i in 0..plan.synthetic {
        let lp = ltsp_workloads::scheduling_heavy(&format!("syn{i}"), 3, 9 + i % 5);
        corpus.push((lp.name().to_string(), lp.to_string()));
    }
    if corpus.is_empty() {
        return Err(io::Error::other(format!("no .loop files in {dir}")));
    }

    let t0 = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.conns)
            .map(|conn| {
                let corpus = &corpus;
                scope.spawn(move || run_conn(plan, corpus, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut r = Report {
        plan: plan.clone(),
        corpus_files: corpus.len(),
        wall_s: t0.elapsed().as_secs_f64(),
        ..Report::default()
    };
    for result in results {
        let (samples, fault, phases) = result?;
        r.fault.reconnects += fault.reconnects;
        r.fault.lost += fault.lost;
        for (name, h) in phases {
            r.phases.entry(name).or_default().merge(&h);
        }
        for s in samples {
            r.responses += 1;
            match s.status.as_str() {
                "ok" => r.status.ok += 1,
                "rejected" => r.status.rejected += 1,
                "error" => r.status.error += 1,
                "overloaded" => r.status.overloaded += 1,
                "draining" => r.status.draining += 1,
                _ => {}
            }
            // An "upgraded" tag is a warm hit whose entry a refinement
            // replaced in place — warm for accounting.
            let (warm, cold) = (matches!(&*s.cache, "hit" | "upgraded"), s.cache == "miss");
            r.upgraded += usize::from(s.cache == "upgraded");
            r.hits += usize::from(warm);
            r.misses += usize::from(cold);
            // Closed-loop samples only (burst-phase latencies are 0).
            if s.micros > 0 {
                r.latency_us.push(s.micros);
                if cold {
                    r.cold_us.push(s.micros);
                } else if warm {
                    r.warm_us.push(s.micros);
                }
            }
        }
    }
    for lat in [&mut r.latency_us, &mut r.cold_us, &mut r.warm_us] {
        lat.sort_unstable();
    }

    // Tiered and adaptive runs must observe the upgrade path end to end:
    // refinement is asynchronous, so the main run may finish before any
    // refined body lands — but landing at all is the contract, so re-poll
    // the corpus (bounded rounds, fresh connection) until one does.
    if plan.backend == Some(Backend::Tiered) {
        let tiered = (Backend::Tiered, Mode::Static);
        r.tiered = Some(poll_for_upgrades(plan, &corpus, tiered)?);
    }
    if plan.mode == Some(Mode::Adaptive) {
        let adaptive = (Backend::Heuristic, Mode::Adaptive);
        r.adaptive = Some(poll_for_upgrades(plan, &corpus, adaptive)?);
    }

    // Against a router the snapshot carries `ltsp_shard_up` samples,
    // which switches the report into cluster mode.
    let snap = Client::connect(&plan.addr, Some(DEADLINE))
        .and_then(|mut c| c.metrics_text("loadgen-metrics"))
        .ok()
        .and_then(|t| PromSnapshot::parse(&t).ok());
    if let Some(snap) = snap {
        r.served_inline = snap
            .samples
            .iter()
            .filter(|s| s.name == "ltsp_served_inline_total")
            .map(|s| s.value)
            .sum::<f64>() as u64;
        r.cluster = Some(snap).filter(|s| !s.shard_ids().is_empty());
    }
    Ok(r)
}

/// The report's `"cluster"` block: router routing/failover counters
/// plus one entry per shard (liveness, request share, hit rate, p99).
fn cluster_block(snap: &PromSnapshot) -> String {
    let ids: Vec<String> = snap.shard_ids().iter().map(u64::to_string).collect();
    let v = |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0.0);
    let mut out = String::from("{\n");
    out.push_str(&format!("    \"shards\": {},\n", ids.len()));
    for key in [
        "router_proxied",
        "router_failovers",
        "router_retries_exhausted",
    ] {
        let total = v(&format!("ltsp_{key}_total"), &[]);
        out.push_str(&format!("    \"{key}\": {total:.0},\n"));
    }
    out.push_str("    \"per_shard\": {");
    for (i, s) in ids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let requests: f64 = ["ok", "rejected", "error", "overloaded", "draining"]
            .iter()
            .map(|st| v("ltsp_requests_total", &[("shard", s), ("status", st)]))
            .sum();
        let cache = |name| v(name, &[("shard", s), ("cache", "result")]);
        let hits = cache("ltsp_cache_hits_total");
        let hit_rate = hits / (hits + cache("ltsp_cache_misses_total")).max(1.0);
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

/// The `p`-th percentile of sorted samples (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn pct_block(sorted: &[u64]) -> String {
    format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"count\": {}}}",
        percentile(sorted, 50.0),
        percentile(sorted, 95.0),
        percentile(sorted, 99.0),
        sorted.len()
    )
}

impl Report {
    /// Warm share of the responses that were hits or misses.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// The bench record (`results/BENCH_serve.json`).
    pub fn to_json(&self) -> String {
        let p = &self.plan;
        let mut out = String::from("{\n");
        let mut field = |key: &str, value: &dyn std::fmt::Display| {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("host", &host_block());
        field("addr", &format!("\"{}\"", json::escape(&p.addr)));
        field("conns", &p.conns);
        field("requests_per_conn", &p.requests);
        field("burst_per_conn", &p.burst);
        let (c, v, o) = p.mix;
        field("mix", &format!("\"compile:{c}:verify:{v}:oracle:{o}\""));
        field("seed", &p.seed);
        field("corpus_files", &self.corpus_files);
        field("wall_s", &format!("{:.3}", self.wall_s));
        let rps = self.responses as f64 / self.wall_s.max(1e-9);
        field("throughput_rps", &format!("{rps:.1}"));
        field("responses", &self.responses);
        let s = &self.status;
        field(
            "status_counts",
            &format!(
                "{{\"ok\": {}, \"rejected\": {}, \"error\": {}, \"overloaded\": {}, \
                 \"draining\": {}}}",
                s.ok, s.rejected, s.error, s.overloaded, s.draining
            ),
        );
        if p.fault_mode {
            let f = &self.fault;
            field(
                "fault",
                &format!(
                    "{{\"mode\": true, \"reconnects\": {}, \"lost_responses\": {}}}",
                    f.reconnects, f.lost
                ),
            );
        }
        field("cache_hits", &self.hits);
        field("cache_misses", &self.misses);
        field("cache_upgraded", &self.upgraded);
        field("cache_hit_rate", &format!("{:.4}", self.hit_rate()));
        field("served_inline", &self.served_inline);
        if let Some(b) = p.backend {
            field("backend", &format!("\"{}\"", b.tag()));
        }
        if let Some(m) = p.mode {
            field("mode", &format!("\"{}\"", m.tag()));
        }
        for (key, poll) in [("tiered", self.tiered), ("adaptive", self.adaptive)] {
            if let Some(poll) = poll {
                let block = format!(
                    "{{\"upgraded_observed\": {}, \"poll_rounds\": {}, \"upgraded_in_run\": {}}}",
                    poll.upgraded_observed, poll.rounds, self.upgraded
                );
                field(key, &block);
            }
        }
        field("latency_us", &pct_block(&self.latency_us));
        field("cold_latency_us", &pct_block(&self.cold_us));
        field("warm_latency_us", &pct_block(&self.warm_us));
        if p.timings {
            let phases: Vec<String> = self
                .phases
                .iter()
                .map(|(name, h)| {
                    format!(
                        "\"{name}\": {{\"p50\": {}, \"p99\": {}, \"count\": {}}}",
                        h.quantile(0.50).unwrap_or(0),
                        h.quantile(0.99).unwrap_or(0),
                        h.count
                    )
                })
                .collect();
            field("phases", &format!("{{{}}}", phases.join(", ")));
        }
        if let Some(snap) = &self.cluster {
            field("cluster", &cluster_block(snap));
        }
        let cold = percentile(&self.cold_us, 50.0);
        let warm = percentile(&self.warm_us, 50.0);
        let speedup = if warm > 0 {
            cold as f64 / warm as f64
        } else {
            0.0
        };
        out.push_str(&format!("  \"speedup_warm_p50\": {speedup:.2}\n}}\n"));
        out
    }
}

/// Holds a daemon's (or router's) metrics snapshot, scraped after
/// `report`'s run, against the load generator's own accounting; `Err`
/// lists every disagreement.
pub fn cross_check(report: &Report, snap: &PromSnapshot) -> Result<(), Vec<String>> {
    let mut bad = Vec::new();
    // Router snapshots re-emit every shard sample with a `shard` label;
    // sum across shards so the same invariants hold whether loadgen
    // pointed at a daemon or at a router.
    // One label scope per shard behind a router; one empty scope for a
    // daemon.
    let ids: Vec<String> = snap.shard_ids().iter().map(u64::to_string).collect();
    let scopes: Vec<Vec<(&str, &str)>> = if ids.is_empty() {
        vec![Vec::new()]
    } else {
        ids.iter().map(|s| vec![("shard", s.as_str())]).collect()
    };
    let phase_count = |phase: &str| -> u64 {
        let count = |scope: &Vec<(&str, &str)>| {
            let labels = [&[("phase", phase)], &scope[..]].concat();
            snap.histogram_count("ltsp_phase_us", &labels)
                .unwrap_or(0.0)
        };
        scopes.iter().map(count).sum::<f64>() as u64
    };
    let counter = |name: &str| -> u64 {
        let value = |scope: &Vec<(&str, &str)>| snap.value(name, scope).unwrap_or(0.0);
        scopes.iter().map(value).sum::<f64>() as u64
    };
    // Every handled request has a `handler` span and a `write`; only the
    // ones that crossed the queue have `queue_wait` and `dispatch` (a
    // result-cache hit on an idle connection is answered where it was
    // read); compile phases additionally require at least one miss.
    let mut expected = vec!["handler", "write"];
    if report.misses > 0 {
        expected.extend(["queue_wait", "dispatch", "parse"]);
    }
    for phase in expected {
        if phase_count(phase) == 0 {
            bad.push(format!("phase histogram '{phase}' has no samples"));
        }
    }
    // Where the hits went: the requests that did not wait in the queue
    // are exactly the ones the readers served inline. (A contained panic
    // has neither span, so the identity is a fault-free one.)
    let served_inline = counter("ltsp_served_inline_total");
    let (handled, queued) = (phase_count("handler"), phase_count("queue_wait"));
    let fault_mode = report.plan.fault_mode;
    if !fault_mode && queued + served_inline != handled {
        bad.push(format!(
            "{handled} requests handled, but {queued} queue_wait samples + {served_inline} \
             served inline"
        ));
    }
    let panics = counter("ltsp_request_panics_total");
    let conn_shed = counter("ltsp_connections_shed_total");
    if fault_mode {
        // Every contained-panic error the client saw must be counted
        // server-side, and every injected-drop reconnect implies a shed
        // connection.
        let error = report.status.error;
        if (panics as usize) < error {
            bad.push(format!(
                "saw {error} panic-error responses but server counted only {panics} request \
                 panics"
            ));
        }
        let reconnects = report.fault.reconnects;
        if conn_shed < reconnects {
            bad.push(format!(
                "survived {reconnects} injected drops but server counted only {conn_shed} shed \
                 connections"
            ));
        }
    } else {
        for name in [
            "ltsp_request_panics_total",
            "ltsp_connections_shed_total",
            "ltsp_responses_shed_total",
            "ltsp_dispatcher_deaths_total",
        ] {
            let v = counter(name);
            if v != 0 {
                bad.push(format!("{name} = {v} on a fault-free run"));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top_level_keys(text: &str) -> Vec<String> {
        let v = json::parse(text).expect("a bench record parses");
        let fields = v.as_object().expect("a bench record is an object");
        fields.iter().map(|(k, _)| k.clone()).collect()
    }

    /// A report with the committed record's optional blocks (`phases`,
    /// `cluster`), plus `extra`'s.
    fn report(extra: bool) -> Report {
        let snap = PromSnapshot::parse("ltsp_shard_up{shard=\"0\"} 1\n").expect("snapshot");
        let poll = Poll {
            upgraded_observed: 1,
            rounds: 2,
        };
        Report {
            plan: Plan {
                timings: true,
                fault_mode: extra,
                backend: extra.then_some(Backend::Tiered),
                mode: extra.then_some(Mode::Adaptive),
                ..Plan::default()
            },
            tiered: extra.then_some(poll),
            adaptive: extra.then_some(poll),
            cluster: Some(snap),
            warm_us: vec![90, 100],
            cold_us: vec![1000],
            ..Report::default()
        }
    }

    #[test]
    fn bench_record_keys_keep_their_order() {
        // Every key, in order; `report(false)` and the committed record
        // lack the fault, backend, mode and poll blocks.
        let every: Vec<&str> = "host addr conns requests_per_conn burst_per_conn mix seed \
             corpus_files wall_s throughput_rps responses status_counts fault cache_hits \
             cache_misses cache_upgraded cache_hit_rate served_inline backend mode tiered \
             adaptive latency_us cold_latency_us warm_latency_us phases cluster speedup_warm_p50"
            .split_whitespace()
            .collect();
        assert_eq!(top_level_keys(&report(true).to_json()), every);
        let optional = ["fault", "backend", "mode", "tiered", "adaptive"];
        let plain: Vec<&str> = every
            .into_iter()
            .filter(|k| !optional.contains(k))
            .collect();
        assert_eq!(top_level_keys(&report(false).to_json()), plain);
        let committed = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_serve.json"
        ))
        .expect("results/BENCH_serve.json");
        assert_eq!(top_level_keys(&committed), plain);
    }
}
