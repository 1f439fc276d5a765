//! `serve_warm` and `serve_churn`: the daemon over loopback, closed loop.
//!
//! An in-process `ltsp_server::spawn` on `127.0.0.1:0`, two connections,
//! each sending its next request only when the previous reply has arrived
//! (callers of a build service wait for their answer). `serve_warm` asks
//! only for what is cached, so socket → framing → queue → dispatch → cache
//! → writer is all the work and the compiler is never entered.
//! `serve_churn` shrinks the caches, turns persistence on and makes every
//! other request a never-seen kernel, so inserts, LRU eviction and log
//! appends run beside the hits, and cold compiles go through dispatch.
//!
//! Whether a request hits is fixed when the request is planned, not by
//! thread interleaving: hot keys are visited in a cyclic order (so each
//! stays far inside the LRU window) and a fresh kernel carries a loop name
//! no earlier request used, which is part of every cache key.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ltsp_cache::persist::CacheLog;
use ltsp_cache::{CacheConfig, Fingerprint, ShardedLru};
use ltsp_cluster::{routing_key, spawn_router, RouterConfig};
use ltsp_core::{compile_loop, CompileConfig, LatencyPolicy};
use ltsp_ir::{LoopIr, SplitMix64};
use ltsp_machine::MachineModel;
use ltsp_server::{
    parse_request, render_compile_report, spawn, Engine, EngineConfig, ServerConfig, ServerHandle,
};
use ltsp_telemetry::json::{self, escape, JsonValue};
use ltsp_telemetry::Telemetry;
use ltsp_workloads::{kernel_library, scheduling_heavy};

use super::{Pass, Reduced, Workload};
use crate::hostspeed::HostSpeed;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Which traffic a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every request repeats a warmed key.
    Warm,
    /// Half the requests are kernels the server has never seen.
    Churn,
}

/// Connections, each a closed loop on its own thread.
pub const CONNS: usize = 2;
/// `serve_warm`: synthetic kernels beside the library, and requests per
/// connection per pass.
const WARM_SYNTHETIC: usize = 64;
const WARM_REQUESTS: usize = 5_000;
/// `serve_churn`: cache budgets, hot keys, base bodies of fresh kernels,
/// requests per connection per pass.
const CHURN_CACHE_BYTES: usize = 1 << 20;
pub const CHURN_HOT: usize = 32;
const CHURN_BASES: usize = 16;
const CHURN_REQUESTS: usize = 3_000;
/// compile : verify : oracle.
const CHURN_MIX: (u64, u64, u64) = (6, 3, 1);
const MIX_TOTAL: u64 = CHURN_MIX.0 + CHURN_MIX.1 + CHURN_MIX.2;
const QUICK_REQUESTS: usize = 300;
/// Requests between two pauses in which the main thread probes host
/// speed (the connections wait at a barrier meanwhile), as a share of a
/// pass; and chunks probed per pause.
const SEGMENTS: usize = 20;
const PROBES_PER_PAUSE: usize = 8;
/// Sample sizes of the traced run's layer probes.
const PROBE_LINES: usize = 2_000;
const PROBE_MISSES: usize = 200;
const ROUTER_REQUESTS: usize = 2_000;
const LRU_OPS: usize = 200_000;
const PERSIST_RECORDS: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Compile,
    Verify,
    Oracle,
}

impl Op {
    fn tag(self) -> &'static str {
        match self {
            Op::Compile => "compile",
            Op::Verify => "verify",
            Op::Oracle => "oracle",
        }
    }

    /// The op at position `pick` of the `CHURN_MIX` cycle
    /// (`pick` in `0..c+v+o`).
    fn from_mix(pick: u64) -> Op {
        let (c, v, _) = CHURN_MIX;
        if pick < c {
            Op::Compile
        } else if pick < c + v {
            Op::Verify
        } else {
            Op::Oracle
        }
    }

    /// What an `ok` response of this op must contain besides the report.
    fn marker(self) -> &'static str {
        match self {
            Op::Compile => "\"pipelined\":",
            Op::Verify => "\"violations\":[]",
            Op::Oracle => "\"verdict\":\"exact\"",
        }
    }
}

/// A kernel as the wire sees it: JSON-escaped text split around the loop
/// name, and the escaped local report split the same way, so that the
/// same body can be sent (and its answer predicted) under any name.
struct Body {
    name: String,
    /// Escaped loop text after `loop <name>`.
    text_rest: String,
    /// Escaped `compile_loop` + `render_compile_report` text after the
    /// leading name.
    report_rest: String,
}

impl Body {
    fn new(lp: &LoopIr, machine: &MachineModel, cfg: &CompileConfig) -> Body {
        let name = lp.name().to_string();
        let text = lp.to_string();
        let c = compile_loop(lp, machine, cfg);
        let report = render_compile_report(&c, cfg.policy, cfg.hlo.default_trip_estimate);
        let head = format!("loop {name}");
        assert!(
            text.starts_with(&head) && report.starts_with(&name),
            "loop text and report lead with the loop name"
        );
        Body {
            text_rest: escape(&text[head.len()..]),
            report_rest: escape(&report[name.len()..]),
            name,
        }
    }
}

/// One planned request.
struct Planned<'a> {
    op: Op,
    body: &'a Body,
    /// `None` keeps the body's own name (a warmed key).
    fresh_name: Option<String>,
    hit: bool,
}

impl<'a> Planned<'a> {
    /// A request for a warmed key.
    fn hot((op, body): &'a (Op, Body), hit: bool) -> Planned<'a> {
        Planned {
            op: *op,
            body,
            fresh_name: None,
            hit,
        }
    }

    fn name(&self) -> &str {
        self.fresh_name.as_deref().unwrap_or(&self.body.name)
    }

    fn line(&self, id: &str, timings: bool, out: &mut String) {
        out.clear();
        out.push_str("{\"op\":\"");
        out.push_str(self.op.tag());
        out.push_str("\",\"id\":\"");
        out.push_str(id);
        out.push_str("\",\"loop\":\"loop ");
        out.push_str(self.name());
        out.push_str(&self.body.text_rest);
        out.push_str("\",\"deadline_ms\":0");
        if timings {
            out.push_str(",\"timings\":true");
        }
        out.push_str("}\n");
    }

    /// The repo's remote≡local contract, checked on one response line.
    fn check(&self, id: &str, line: &str, scratch: &mut String) -> bool {
        scratch.clear();
        scratch.push_str("{\"id\":\"");
        scratch.push_str(id);
        scratch.push_str("\",\"status\":\"ok\",\"cache\":\"");
        scratch.push_str(if self.hit { "hit" } else { "miss" });
        scratch.push_str("\",");
        if !line.starts_with(scratch.as_str()) || !line.contains(self.op.marker()) {
            return false;
        }
        if self.op != Op::Compile {
            return true;
        }
        scratch.clear();
        scratch.push_str(",\"report\":\"");
        scratch.push_str(self.name());
        scratch.push_str(&self.body.report_rest);
        scratch.push('"');
        line.contains(scratch.as_str())
    }
}

/// One open connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one line and reads one line back into `response`.
    fn roundtrip(&mut self, request: &str, response: &mut String) -> std::io::Result<()> {
        self.writer.write_all(request.as_bytes())?;
        response.clear();
        if self.reader.read_line(response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }
}

struct State {
    server: Option<ServerHandle>,
    addr: SocketAddr,
    engine_cfg: EngineConfig,
    persist_path: Option<PathBuf>,
    out_dir: PathBuf,
    conns: Vec<Conn>,
    /// Warmed keys: every one of them answers `hit`.
    hot: Vec<(Op, Body)>,
    /// Bodies of never-seen kernels (`serve_churn`).
    bases: Vec<Body>,
    /// Σ `ii` over the warmed compile keys, as the server answered.
    ii_sum: u64,
    stats_before: Option<JsonValue>,
    /// Server timings (µs) of the traced requests, per `TIMED_PHASES`.
    timings: [Vec<f64>; TIMED_PHASES.len()],
    /// Request-line generation cost the traced passes saw.
    gen_ns: (f64, u64),
}

pub struct Serve {
    traffic: Traffic,
    requests: usize,
    seed: u64,
    state: Option<State>,
    setups: u64,
}

impl Serve {
    pub fn new(traffic: Traffic, quick: bool) -> Serve {
        let requests = match (quick, traffic) {
            (true, _) => QUICK_REQUESTS,
            (false, Traffic::Warm) => WARM_REQUESTS,
            (false, Traffic::Churn) => CHURN_REQUESTS,
        };
        Serve {
            traffic,
            requests,
            seed: 0,
            state: None,
            setups: 0,
        }
    }

    /// The op of hot key `i` of `n`: compile, verify and oracle in the
    /// proportion of `CHURN_MIX`.
    fn hot_op(&self, i: usize, n: usize) -> Op {
        if self.traffic == Traffic::Warm {
            return Op::Compile;
        }
        Op::from_mix((i * MIX_TOTAL as usize / n) as u64)
    }
}

/// Fisher–Yates with the repo's own generator.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// The unsigned integer after the last `"key":` of a response line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let (_, rest) = line.rsplit_once(key)?;
    let rest = rest.strip_prefix("\":")?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Server-side phases read off the opt-in `"timings"` object.
const TIMED_PHASES: [&str; 5] = ["queue_wait", "dispatch", "handler", "write", "cache_lookup"];

fn stats_of(conn: &mut Conn) -> Option<JsonValue> {
    let mut line = String::new();
    conn.roundtrip("{\"op\":\"stats\",\"id\":\"stats\"}\n", &mut line)
        .ok()?;
    json::parse(&line).ok()
}

/// What one connection did in one pass.
#[derive(Default)]
struct ConnPass {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    traced_sum_us: f64,
    plain_sum_us: f64,
    attempted: u64,
    failed: u64,
    planned_hits: u64,
    observed_hits: u64,
    timings: [Vec<f64>; TIMED_PHASES.len()],
    gen_ns: (f64, u64),
    tracer: Option<Tracer>,
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        match self.traffic {
            Traffic::Warm => "serve_warm",
            Traffic::Churn => "serve_churn",
        }
    }

    fn setup(&mut self, seed: u64, out_dir: &Path) -> (u64, u64) {
        self.seed = seed;
        self.setups += 1;
        let machine = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let library = kernel_library();

        let mut engine_cfg = EngineConfig::default();
        let mut persist_path = None;
        let (hot_kernels, bases): (Vec<LoopIr>, Vec<Body>) = match self.traffic {
            Traffic::Warm => (
                (0..WARM_SYNTHETIC)
                    .map(|i| scheduling_heavy(&format!("syn{i}"), 3, 9 + i % 5))
                    .chain(library.into_iter().map(|(_, lp)| lp))
                    .collect(),
                Vec::new(),
            ),
            Traffic::Churn => {
                engine_cfg.compile_cache_bytes = CHURN_CACHE_BYTES;
                engine_cfg.result_cache_bytes = CHURN_CACHE_BYTES;
                let path = out_dir.join(format!(
                    "serve_churn-{}-{}.log",
                    std::process::id(),
                    self.setups
                ));
                let _ = std::fs::remove_file(&path);
                engine_cfg.persist_path = Some(path.clone());
                persist_path = Some(path);
                let bases: Vec<LoopIr> = library
                    .into_iter()
                    .map(|(_, lp)| lp)
                    .take(CHURN_BASES)
                    .collect();
                (
                    (0..CHURN_HOT)
                        .map(|i| {
                            let text = bases[i % bases.len()].to_string();
                            let head = format!("loop {}", bases[i % bases.len()].name());
                            ltsp_ir::parse_loop(&format!("loop hot{i}{}", &text[head.len()..]))
                                .expect("a renamed library kernel parses")
                        })
                        .collect(),
                    bases
                        .iter()
                        .map(|lp| Body::new(lp, &machine, &cfg))
                        .collect(),
                )
            }
        };

        let server = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            engine: engine_cfg.clone(),
            ..ServerConfig::default()
        })
        .expect("bind a loopback port");
        let addr = server.addr();
        let mut conns: Vec<Conn> = (0..CONNS)
            .map(|_| Conn::open(addr).expect("connect to the daemon"))
            .collect();

        // Warm every hot key and check it on the way: the first answer
        // must be a miss and the second a hit, both with the local bytes.
        let n_hot = hot_kernels.len();
        let hot: Vec<(Op, Body)> = hot_kernels
            .iter()
            .enumerate()
            .map(|(i, lp)| (self.hot_op(i, n_hot), Body::new(lp, &machine, &cfg)))
            .collect();
        let mut setup_checks = (0, 0);
        let mut ii_sum = 0;
        let (mut request, mut response, mut scratch) =
            (String::new(), String::new(), String::new());
        for (i, key) in hot.iter().enumerate() {
            let (op, body) = key;
            for hit in [false, true] {
                let planned = Planned::hot(key, hit);
                let id = format!("warm{i}");
                planned.line(&id, false, &mut request);
                let ok = conns[0].roundtrip(&request, &mut response).is_ok()
                    && planned.check(&id, &response, &mut scratch);
                setup_checks.0 += 1;
                if !ok {
                    eprintln!(
                        "{}: warm-up of {} failed: {response}",
                        self.name(),
                        body.name
                    );
                    setup_checks.1 += 1;
                }
                if hit && *op == Op::Compile {
                    ii_sum += field_u64(&response, "\"ii").unwrap_or(0);
                }
            }
        }
        let stats_before = stats_of(&mut conns[0]);
        self.state = Some(State {
            server: Some(server),
            addr,
            engine_cfg,
            persist_path,
            out_dir: out_dir.to_path_buf(),
            conns,
            hot,
            bases,
            ii_sum,
            stats_before,
            timings: Default::default(),
            gen_ns: (0.0, 0),
        });
        setup_checks
    }

    fn pass(&mut self, pass_idx: u64, tr: &mut Tracer, host: &mut HostSpeed) -> Pass {
        let (traffic, requests, seed) = (self.traffic, self.requests, self.seed);
        let st = self.state.as_mut().expect("setup ran");
        let mut p = Pass::default();
        let seg_len = requests.div_ceil(SEGMENTS);
        let barrier = Arc::new(Barrier::new(CONNS + 1));
        let (hot, bases) = (&st.hot, &st.bases);
        let sampling = tr.sampling();
        let origin = tr.origin();

        let mut wall = Duration::ZERO;
        let results: Vec<ConnPass> = std::thread::scope(|scope| {
            let handles: Vec<_> = st
                .conns
                .iter_mut()
                .enumerate()
                .map(|(ci, conn)| {
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(origin);
                        if let Some(parity) = sampling {
                            tracer.sample_ops(parity);
                        }
                        let mut rng = SplitMix64::new(
                            seed ^ pass_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ (ci as u64 + 1) << 56,
                        );
                        // A seed-drawn cyclic order over the hot keys, and a
                        // seed-drawn order of exactly as many fresh requests
                        // as hot ones (so the planned counts are the same on
                        // every pass and for every seed).
                        let mut order: Vec<usize> = (0..hot.len()).collect();
                        shuffle(&mut order, &mut rng);
                        let mut fresh_at: Vec<bool> = (0..requests)
                            .map(|k| traffic == Traffic::Churn && k % 2 == 1)
                            .collect();
                        shuffle(&mut fresh_at, &mut rng);
                        let mut next_hot = 0usize;
                        // After an I/O error the connection is dead: what it
                        // still had to send fails without being sent.
                        let mut dead = false;
                        let mut out = ConnPass::default();
                        let (mut request, mut response, mut scratch) =
                            (String::new(), String::new(), String::new());
                        for (k, &fresh) in fresh_at.iter().enumerate() {
                            if k % seg_len == 0 {
                                // Pause: the main thread probes host speed.
                                barrier.wait();
                                barrier.wait();
                            }
                            let planned = if fresh {
                                Planned {
                                    op: Op::from_mix(rng.next_below(MIX_TOTAL)),
                                    body: &bases[rng.next_below(bases.len() as u64) as usize],
                                    fresh_name: Some(format!("f{pass_idx}c{ci}n{k}")),
                                    hit: false,
                                }
                            } else {
                                next_hot += 1;
                                Planned::hot(&hot[order[(next_hot - 1) % order.len()]], true)
                            };
                            if dead {
                                out.attempted += 1;
                                out.failed += 1;
                                continue;
                            }
                            let id = format!("{ci}-{k}");
                            // `requests` is even, so tracing alternates
                            // within each connection and ids stay unique.
                            let traced = tracer.begin_op((ci * requests + k) as u64);
                            let t0 = Instant::now();
                            let sent = tracer.time("op", |tr| {
                                tr.time("bench.client.gen", |_| {
                                    planned.line(&id, traced, &mut request);
                                });
                                tr.time("server.roundtrip", |_| {
                                    conn.roundtrip(&request, &mut response)
                                })
                            });
                            let t1 = Instant::now();
                            let us = (t1 - t0).as_nanos() as f64 / 1e3;
                            if planned.hit {
                                out.hit_us.push(us);
                            } else {
                                out.miss_us.push(us);
                            }
                            if traced {
                                out.traced_sum_us += us;
                            } else {
                                out.plain_sum_us += us;
                            }
                            out.attempted += 1;
                            out.planned_hits += u64::from(planned.hit);
                            out.observed_hits += u64::from(response.contains("\"cache\":\"hit\""));
                            dead = sent.is_err();
                            if dead || !planned.check(&id, &response, &mut scratch) {
                                out.failed += 1;
                            }
                            if traced {
                                for (phase, sink) in TIMED_PHASES.iter().zip(&mut out.timings) {
                                    let key = format!("\"{phase}_us");
                                    sink.extend(field_u64(&response, &key).map(|us| us as f64));
                                }
                            }
                        }
                        barrier.wait();
                        if sampling.is_some() {
                            let agg = tracer.summary();
                            if let Some(a) = agg.get("bench.client.gen") {
                                out.gen_ns = (a.total_ns as f64, a.calls);
                            }
                            out.tracer = Some(tracer);
                        }
                        out
                    })
                })
                .collect();

            // The main thread: probe while the connections are paused,
            // and time the stretches in which they are not. A stretch ends
            // when the last connection reaches the next pause.
            let mut released: Option<Instant> = None;
            for _ in 0..requests.div_ceil(seg_len) {
                barrier.wait();
                wall += released.map_or(Duration::ZERO, |t| t.elapsed());
                (0..PROBES_PER_PAUSE).for_each(|_| host.probe());
                barrier.wait();
                released = Some(Instant::now());
            }
            barrier.wait();
            wall += released.map_or(Duration::ZERO, |t| t.elapsed());
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });

        let mut planned_hits = 0;
        let mut observed_hits = 0;
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        for mut r in results {
            hits.append(&mut r.hit_us);
            misses.append(&mut r.miss_us);
            p.traced_sum_us += r.traced_sum_us;
            p.plain_sum_us += r.plain_sum_us;
            p.attempted += r.attempted;
            p.failed += r.failed;
            planned_hits += r.planned_hits;
            observed_hits += r.observed_hits;
            for (all, mine) in st.timings.iter_mut().zip(&mut r.timings) {
                all.append(mine);
            }
            st.gen_ns.0 += r.gen_ns.0;
            st.gen_ns.1 += r.gen_ns.1;
            if let Some(t) = r.tracer {
                tr.absorb(t);
            }
        }
        p.attempted += 1;
        p.failed += u64::from(planned_hits != observed_hits);
        p.wall_s = wall.as_secs_f64();
        p.work = (requests * CONNS) as f64;
        match traffic {
            Traffic::Warm => p.primary_us = hits,
            Traffic::Churn => {
                p.primary_us = misses;
                p.secondary_us = hits;
            }
        }
        p.exact = vec![
            ("quality_cost", st.ii_sum as f64),
            ("planned_hits", planned_hits as f64),
            (
                "planned_misses",
                (requests * CONNS) as f64 - planned_hits as f64,
            ),
        ];
        p
    }

    fn describe(&self, r: &Reduced, m: &mut Metrics) {
        m.set("req_per_s", r.work_per_s);
        match self.traffic {
            Traffic::Warm => {
                m.set("hit_p50_us", r.p50_us);
                m.set("hit_p99_us", r.p99_us);
            }
            Traffic::Churn => {
                m.set("miss_p50_us", r.p50_us);
                m.set("miss_p99_us", r.p99_us);
                m.set("hit_p50_us", r.secondary_p50_us);
                m.set("hit_p99_us", r.secondary_p99_us);
            }
        }
    }

    fn probes(
        &mut self,
        r: &Reduced,
        tr: &mut Tracer,
        host: &mut HostSpeed,
        m: &mut Metrics,
    ) -> (u64, u64) {
        let st = self.state.as_mut().expect("setup ran");
        layer_probes(self.traffic, st, r, tr, host, m)
    }

    fn teardown(&mut self) {
        if let Some(mut st) = self.state.take() {
            st.conns.clear();
            if let Some(server) = st.server.take() {
                server.shutdown();
            }
            if let Some(path) = &st.persist_path {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// `after − before` of one counter of the `stats` op.
fn delta(before: &Option<JsonValue>, after: &Option<JsonValue>, key: &str) -> f64 {
    let read = |v: &Option<JsonValue>| {
        v.as_ref()
            .and_then(|v| v.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    read(after) - read(before)
}

/// `n` single-connection closed-loop round trips of hot requests;
/// returns the median latency in µs and how many answers were wrong.
fn hot_roundtrips(addr: SocketAddr, hot: &[(Op, Body)], n: usize) -> (f64, u64) {
    let Ok(mut conn) = Conn::open(addr) else {
        return (0.0, n as u64);
    };
    let (mut request, mut response, mut scratch) = (String::new(), String::new(), String::new());
    let mut us = Vec::with_capacity(n);
    let mut failed = 0;
    for k in 0..n {
        let planned = Planned::hot(&hot[k % hot.len()], true);
        let id = format!("r{k}");
        planned.line(&id, false, &mut request);
        let t0 = Instant::now();
        let sent = conn.roundtrip(&request, &mut response);
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        failed += u64::from(sent.is_err() || !planned.check(&id, &response, &mut scratch));
    }
    (median(&us), failed)
}

/// The traced run's view of the layers under the daemon, each called
/// directly on this workload's own request lines.
fn layer_probes(
    traffic: Traffic,
    st: &mut State,
    r: &Reduced,
    tr: &mut Tracer,
    host: &mut HostSpeed,
    m: &mut Metrics,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let out_dir = st.out_dir.clone();
    let tel = Telemetry::disabled();

    // Counters over the wire, as deltas over the timed passes.
    let after = stats_of(&mut st.conns[0]);
    let d = |key: &str| delta(&st.stats_before, &after, key);
    m.set("server.requests_ok", d("requests_ok"));
    m.set("server.requests_overloaded", d("requests_overloaded"));
    m.set("cache.compile.hits", d("compile_cache_hits"));
    m.set("cache.compile.misses", d("compile_cache_misses"));
    m.set("cache.compile.evictions", d("compile_cache_evictions"));
    m.set("cache.result.hits", d("result_cache_hits"));
    m.set("cache.result.misses", d("result_cache_misses"));
    m.set("cache.result.evictions", d("result_cache_evictions"));
    let lookups = d("result_cache_hits") + d("result_cache_misses");
    m.set(
        "cache.result.hit_ratio",
        d("result_cache_hits") / lookups.max(1.0),
    );
    m.set("cache.persist.appended", d("persist_appended"));
    m.set("cache.persist.log_bytes", d("persist_log_bytes"));

    // The workload's own request lines: hot keys in turn, and (churn)
    // never-seen kernels.
    let mut line = String::new();
    let hot_lines: Vec<String> = (0..PROBE_LINES)
        .map(|k| {
            Planned::hot(&st.hot[k % st.hot.len()], true).line(&format!("p{k}"), false, &mut line);
            line.clone()
        })
        .collect();
    let fresh_lines: Vec<String> = (0..if st.bases.is_empty() { 0 } else { PROBE_MISSES })
        .map(|k| {
            Planned {
                op: Op::from_mix(k as u64 % MIX_TOTAL),
                body: &st.bases[k % st.bases.len()],
                fresh_name: Some(format!("probe{k}")),
                hit: false,
            }
            .line(&format!("m{k}"), false, &mut line);
            line.clone()
        })
        .collect();

    // Protocol and engine in-process, no socket: an engine of the
    // daemon's configuration (its own log file), warmed the same way.
    let probe_log = out_dir.join(format!("serve-probe-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&probe_log);
    let engine = Engine::new(EngineConfig {
        persist_path: st
            .engine_cfg
            .persist_path
            .as_ref()
            .map(|_| probe_log.clone()),
        ..st.engine_cfg.clone()
    });
    for l in hot_lines.iter().take(st.hot.len()) {
        if let Ok(req) = parse_request(l) {
            engine.handle(&req, &tel);
        }
    }
    let mut line_bytes = 0usize;
    let mut body_bytes = 0usize;
    for (k, l) in hot_lines.iter().enumerate() {
        host.maybe_probe(Instant::now());
        tr.begin_op(k as u64);
        tr.time("server.inprocess", |tr| {
            let Ok(req) = tr.time("server.proto.parse", |_| parse_request(l)) else {
                failed += 1;
                return;
            };
            tr.time("server.engine.key", |_| {
                std::hint::black_box(engine.request_key(&req));
            });
            let resp = tr.time("server.engine.hit", |_| engine.handle(&req, &tel));
            let rendered = tr.time("server.proto.render", |_| resp.render());
            failed += u64::from(resp.cache != "hit");
            line_bytes += l.len();
            body_bytes += rendered.len();
        });
        attempted += 1;
    }
    for (k, l) in fresh_lines.iter().enumerate() {
        host.maybe_probe(Instant::now());
        tr.begin_op(k as u64);
        let Ok(req) = parse_request(l) else {
            continue;
        };
        let resp = tr.time("server.engine.miss", |_| engine.handle(&req, &tel));
        attempted += 1;
        failed += u64::from(resp.cache != "miss" || resp.status != "ok");
    }
    engine.refine_shutdown();
    drop(engine);
    let _ = std::fs::remove_file(&probe_log);

    let agg = tr.summary();
    let us = |name: &str| agg.get(name).map_or(0.0, |a| a.us_per_call());
    m.set("server.proto.parse.us", us("server.proto.parse"));
    m.set("server.proto.render.us", us("server.proto.render"));
    m.set("server.engine.key.us", us("server.engine.key"));
    m.set("server.engine.hit.us", us("server.engine.hit"));
    m.set("server.engine.miss.us", us("server.engine.miss"));
    // What the daemon adds around parse + handle + render on a hit:
    // sockets, framing, queue, thread hand-offs, writer.
    let client_hit_p50 = match traffic {
        Traffic::Warm => r.p50_us,
        Traffic::Churn => r.secondary_p50_us,
    };
    let attributed = us("server.proto.parse") + us("server.engine.hit") + us("server.proto.render");
    m.set("server.daemon.residual_us", client_hit_p50 - attributed);
    m.set(
        "server.daemon.attributed_pct",
        100.0 * attributed / client_hit_p50.max(1e-9),
    );
    for (phase, samples) in TIMED_PHASES.iter().zip(&st.timings) {
        // A phase the wire does not carry reports 0.
        m.set(&format!("server.{phase}.p50_us"), median(samples));
    }
    m.set(
        "bench.client.gen_ns",
        st.gen_ns.0 / st.gen_ns.1.max(1) as f64,
    );

    // The cache crate at this workload's entry size: reads from one
    // and two threads, inserts with room and inserts that evict.
    let entry_bytes = (body_bytes / PROBE_LINES.max(1)).max(64);
    let payload = vec![0u8; entry_bytes];
    let keys: Vec<Fingerprint> = (0..LRU_OPS / 10)
        .map(|k| Fingerprint::of_bytes(&(k as u64).to_le_bytes()))
        .collect();
    let roomy: ShardedLru<Vec<u8>> = ShardedLru::new(CacheConfig::default());
    tr.begin_op(0);
    tr.time_n("cache.lru.insert", keys.len() as u64, |_| {
        for &k in &keys {
            roomy.insert(k, payload.clone(), entry_bytes);
        }
    });
    let resident = (CacheConfig::default().byte_budget / entry_bytes / 2).clamp(1, keys.len());
    let gets = |n: usize, offset: usize| {
        let mut found = 0u64;
        for i in 0..n {
            found += u64::from(
                roomy
                    .get(keys[keys.len() - 1 - (i + offset) % resident])
                    .is_some(),
            );
        }
        std::hint::black_box(found);
    };
    tr.time_n("cache.lru.get", LRU_OPS as u64, |_| gets(LRU_OPS, 0));
    // Two readers at once: the span covers both, each doing half.
    tr.time_n("cache.lru.get2", (LRU_OPS / 2) as u64, |_| {
        std::thread::scope(|scope| {
            scope.spawn(|| gets(LRU_OPS / 2, 0));
            gets(LRU_OPS / 2, resident / 2);
        });
    });
    let tight: ShardedLru<Vec<u8>> = ShardedLru::new(CacheConfig {
        byte_budget: CHURN_CACHE_BYTES,
        ..CacheConfig::default()
    });
    tr.time_n("cache.lru.evict_insert", keys.len() as u64, |_| {
        for &k in &keys {
            tight.insert(k, payload.clone(), entry_bytes);
        }
    });
    tr.time_n("cache.fingerprint", line_bytes as u64, |_| {
        for l in &hot_lines {
            std::hint::black_box(Fingerprint::of_bytes(l.as_bytes()));
        }
    });

    // The persistence tier: appends to a fresh log, then a replay —
    // of the daemon's own log where it keeps one (a copy, since the
    // daemon has it open), else of the log just written.
    let log_path = out_dir.join(format!("persist-probe-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let body = "x".repeat(entry_bytes);
    let mut expected = PERSIST_RECORDS as f64;
    if let Ok((log, _)) = CacheLog::open(&log_path) {
        tr.time_n("cache.persist.append", PERSIST_RECORDS as u64, |_| {
            for k in 0..PERSIST_RECORDS {
                let _ = log.append(keys[k % keys.len()], "ok", &body);
            }
        });
    }
    if let Some(own) = &st.persist_path {
        if std::fs::copy(own, &log_path).is_ok() {
            let total = stats_of(&mut st.conns[0]);
            expected = delta(&None, &total, "persist_appended");
        }
    }
    let replayed = tr.time("cache.persist.replay", |_| {
        CacheLog::open(&log_path).map_or(0, |(_, report)| report.records.len())
    });
    attempted += 1;
    if replayed as f64 != expected {
        eprintln!("persist replay: {replayed} records, {expected} appended");
        failed += 1;
    }
    let _ = std::fs::remove_file(&log_path);

    // One router in front of this daemon as its only shard: what a
    // hop costs a hot request, against a direct connection measured
    // the same way right before.
    tr.time_n("cluster.routing_key", hot_lines.len() as u64, |_| {
        for l in &hot_lines {
            std::hint::black_box(routing_key(l));
        }
    });
    let (direct_p50, direct_bad) = hot_roundtrips(st.addr, &st.hot, ROUTER_REQUESTS);
    attempted += 2 * ROUTER_REQUESTS as u64;
    failed += direct_bad;
    match spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shard_addrs: vec![st.addr.to_string()],
        ..RouterConfig::default()
    }) {
        Ok(router) => {
            let (routed_p50, routed_bad) = hot_roundtrips(router.addr(), &st.hot, ROUTER_REQUESTS);
            failed += routed_bad;
            router.shutdown();
            m.set("cluster.router.hop_p50_us", routed_p50 - direct_p50);
        }
        Err(e) => {
            eprintln!("router probe: {e}");
            failed += ROUTER_REQUESTS as u64;
        }
    }

    let agg = tr.summary();
    let ns = |name: &str| agg.get(name).map_or(0.0, |a| a.us_per_call() * 1e3);
    m.set("cache.lru.get.ns", ns("cache.lru.get"));
    m.set("cache.lru.get2.ns", ns("cache.lru.get2"));
    m.set("cache.lru.insert.ns", ns("cache.lru.insert"));
    m.set("cache.lru.evict_insert.ns", ns("cache.lru.evict_insert"));
    // bytes per ns × 1000 = MB/s
    m.set(
        "cache.fingerprint.mb_per_s",
        1e3 / ns("cache.fingerprint").max(1e-9),
    );
    m.set("cache.persist.append.us", ns("cache.persist.append") / 1e3);
    m.set("cache.persist.replay.ms", ns("cache.persist.replay") / 1e6);
    m.set("cluster.routing_key.us", ns("cluster.routing_key") / 1e3);
    (attempted, failed)
}
