//! The request engine: the full compilation pipeline behind the wire
//! protocol, fronted by two content-addressed caches.
//!
//! - **Compile** requests go through [`ltsp_core::compile_loop_cached`]:
//!   the cache stores [`CompiledLoop`] artifacts keyed by canonicalized
//!   loop + full [`CompileConfig`] + machine + trip, and the response
//!   body is (deterministically) re-rendered from the artifact.
//! - **Verify** and **oracle** requests cache the *rendered response
//!   body* keyed by canonicalized loop + the request's oracle knobs —
//!   the expensive part is the search, not the rendering.
//!
//! Either way a hit returns bytes identical to what the cold path
//! produced, and a key covers every input that can change the answer, so
//! eviction can only ever cost time, never correctness.
//!
//! The engine is `Sync`: the daemon calls [`Engine::handle`] from many
//! pool workers at once. Every response is a pure function of the
//! request, which is what keeps batch composition (and therefore
//! `--jobs`) out of the bytes on the wire.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ltsp_adaptive::{compile_loop_adaptive, AdaptiveOptions};
use ltsp_cache::persist::CacheLog;
use ltsp_cache::{CacheConfig, Fingerprint, FingerprintHasher, ShardedLru};
use ltsp_core::{compile_loop_cached_phased, new_compile_cache, CompileCache, CompileConfig};
use ltsp_ir::{parse_loop, LoopIr, ParseError};
use ltsp_machine::MachineModel;
use ltsp_oracle::{differential_case, exact_case, IiVerdict, OracleOptions};
use ltsp_telemetry::phase::{Phase, PhaseTimer};
use ltsp_telemetry::{lock_unpoisoned, prom, Event, Histogram, Telemetry};

use crate::flight::{FlightRecord, FlightRecorder};
use crate::proto::{
    push_bool_field, push_str_field, push_u64_field, Backend, Mode, ReqOp, Request, Response,
};
use crate::report::{render_adaptive_report, render_compile_report, render_exact_report};

/// A cached request outcome: the response status plus the body fragment
/// (everything after the envelope), and whether the entry was upgraded
/// in place by the tiered backend's exact refinement (hits on upgraded
/// entries report `cache:"upgraded"`).
#[derive(Debug, Clone)]
struct CachedResult {
    status: &'static str,
    body: Arc<str>,
    upgraded: bool,
}

/// A first-level cache entry found by [`Engine::probe`]: enough to
/// answer the request it was probed for, nothing that could start a
/// compile.
#[derive(Debug)]
pub struct CacheHit {
    key: Fingerprint,
    entry: Arc<CachedResult>,
    /// What the probe cost, booked as the request's `cache_lookup`.
    lookup_us: u64,
}

/// How a request reached [`Engine::handle_phased`], which decides where
/// its first-level key comes from and which lifecycle phases it has.
#[derive(Debug)]
pub enum Route {
    /// An in-process call: no queue, and the key is computed here.
    Direct,
    /// Through the daemon's admission queue and dispatcher, with the
    /// key computed at admission (`None` for ops that never cache). Its
    /// `queue_wait` and `dispatch` spans are samples even at 0 µs.
    Queued(Option<Fingerprint>),
    /// Answered on the connection's own thread from a probed entry: no
    /// queue, no dispatcher, no compile.
    Inline(CacheHit),
}

impl Route {
    /// The request's first-level cache key, where the route carries it.
    pub fn key(&self) -> Option<Fingerprint> {
        match self {
            Route::Direct => None,
            Route::Queued(key) => *key,
            Route::Inline(hit) => Some(hit.key),
        }
    }
}

/// Engine tuning knobs (the daemon forwards these from its CLI).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Byte budget for the compiled-artifact cache.
    pub compile_cache_bytes: usize,
    /// Byte budget for the verify/oracle response cache.
    pub result_cache_bytes: usize,
    /// Default oracle node budget when a request names none.
    pub oracle_node_budget: u64,
    /// Default oracle wall-clock budget when a request names none
    /// (`None` = unlimited).
    pub oracle_deadline_ms: Option<u64>,
    /// Flight-recorder dump directory (`None` = ring only, no dumps).
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity (request lifecycles retained).
    pub flight_len: usize,
    /// Persistent result-cache log (`None` = in-memory only). When set,
    /// the engine replays the log into the result cache at construction
    /// and appends every newly computed result, so a restarted process
    /// serves warm from request one.
    pub persist_path: Option<PathBuf>,
    /// Warn loudly (once) when the persist log grows past this many
    /// bytes (`None` = never). The log is append-only, so unbounded
    /// growth is by design — this is the operator's tripwire.
    pub persist_warn_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            compile_cache_bytes: 64 << 20,
            result_cache_bytes: 16 << 20,
            oracle_node_budget: 200_000,
            oracle_deadline_ms: Some(10_000),
            flight_dir: None,
            flight_len: 256,
            persist_path: None,
            persist_warn_bytes: None,
        }
    }
}

/// Request counters by final status (monotonic, exposed via `stats`).
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// `status:"ok"` responses.
    pub ok: AtomicU64,
    /// `status:"rejected"` responses.
    pub rejected: AtomicU64,
    /// `status:"error"` responses.
    pub error: AtomicU64,
    /// `status:"overloaded"` responses (bumped by the daemon).
    pub overloaded: AtomicU64,
    /// `status:"draining"` responses (bumped by the daemon).
    pub draining: AtomicU64,
    /// Requests answered on their connection's own thread from a
    /// result-cache hit ([`Route::Inline`]); the rest of the handled
    /// requests crossed the queue and the dispatcher.
    pub served_inline: AtomicU64,
}

impl ServeCounters {
    fn bump(&self, status: &str) {
        match status {
            "ok" => &self.ok,
            "rejected" => &self.rejected,
            "overloaded" => &self.overloaded,
            "draining" => &self.draining,
            _ => &self.error,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// Live operational gauges and chaos counters, updated by the daemon's
/// threads and read by the `metrics` exposition. Plain atomics:
/// monotonically increasing for the `*_total` counters, last-write-wins
/// snapshots for the gauges.
#[derive(Debug, Default)]
pub struct ServerGauges {
    /// Requests sitting in the admission queue right now.
    pub queue_depth: AtomicU64,
    /// Requests currently being handled by the dispatcher batch.
    pub inflight: AtomicU64,
    /// Open client connections.
    pub connections: AtomicU64,
    /// Connections killed for missing the write deadline.
    pub conn_shed: AtomicU64,
    /// Responses dropped on shed/dead connections.
    pub responses_shed: AtomicU64,
    /// Handler panics contained (real or injected).
    pub request_panics: AtomicU64,
    /// Faults injected by the active [`crate::FaultPlan`].
    pub faults_injected: AtomicU64,
    /// Dispatcher deaths survived (drain-and-exit path).
    pub dispatcher_deaths: AtomicU64,
}

/// Persistence-tier counters (all zero when no log is configured).
#[derive(Debug, Default)]
pub struct PersistCounters {
    /// Records replayed into the result cache at startup (after
    /// last-writer-wins collapse).
    pub replayed: AtomicU64,
    /// Bad records dropped during startup replay (torn/corrupt tail).
    pub dropped: AtomicU64,
    /// Clean records superseded by a later append under the same key
    /// (in-place cache upgrades leave exactly one of these each).
    pub superseded: AtomicU64,
    /// Records appended since startup.
    pub appended: AtomicU64,
    /// Append failures (the response is still served; the entry is just
    /// not durable).
    pub append_errors: AtomicU64,
}

/// Async-refinement counters — exact upgrades for the tiered backend
/// and adaptive upgrades for `mode:"adaptive"` (exposed via `stats` and
/// the Prometheus snapshot).
#[derive(Debug, Default)]
pub struct UpgradeCounters {
    /// Refinement batches queued (one per cold refining compile whose
    /// work was not already in flight).
    pub scheduled: AtomicU64,
    /// Cold refining compiles coalesced onto an already-queued batch
    /// with the same refinement work (they get their own in-place
    /// upgrade, but the schedule is computed once).
    pub coalesced: AtomicU64,
    /// Upgrades applied in place (raw-request and tier body entries
    /// swapped to the refined bytes, persisted again) — one per waiter,
    /// coalesced or not.
    pub applied: AtomicU64,
    /// Applied upgrades whose refined schedule strictly improved the
    /// heuristic II.
    pub refined: AtomicU64,
    /// Refinement jobs that failed (parse, emission, or a rejected
    /// case) — the heuristic entry stays, correctness is unaffected.
    pub failed: AtomicU64,
}

/// Which refinement a queued job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefineKind {
    /// Tiered backend: the oracle's branch-and-bound exact emission.
    Exact,
    /// Adaptive mode: the memsim-fed hint-refinement loop to fixpoint.
    Adaptive,
}

/// One queued refinement: the cold request to refine, its raw request
/// key, the deadline resolved at admission time, and which refinement
/// to run.
struct RefineJob {
    raw_key: Fingerprint,
    deadline_ms: Option<u64>,
    kind: RefineKind,
    req: Request,
}

impl RefineJob {
    /// The key identical refinement *work* coalesces under: two
    /// in-flight jobs with the same dedup key compute the same refined
    /// schedule, so the second one waits on the first's batch instead
    /// of scheduling the computation twice. Covers exactly the inputs
    /// of the refined body — for `Exact` that is the loop text and the
    /// search budget/deadline (trip or policy variants share one exact
    /// schedule); for `Adaptive` the compile config matters too, since
    /// the refinement re-runs the pipeliner under it.
    fn dedup_key(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str(&self.req.loop_text);
        h.write_u64(self.deadline_ms.map_or(u64::MAX, |d| d));
        match self.kind {
            RefineKind::Exact => {
                h.write_str("refine-exact");
                h.write_u64(self.req.budget);
            }
            RefineKind::Adaptive => {
                h.write_str("refine-adaptive");
                h.write_str(&self.req.policy.to_string());
                h.write_f64(self.req.trip);
                h.write_u64(u64::from(self.req.threshold));
                h.write_u64(
                    u64::from(self.req.prefetch)
                        | u64::from(self.req.balanced) << 1
                        | u64::from(self.req.speculate) << 2,
                );
            }
        }
        h.finish()
    }
}

/// In-flight refinement batches, keyed by [`RefineJob::dedup_key`]: the
/// leader (first job under a key) owns the queue slot; followers append
/// themselves as waiters. The worker removes the whole entry *before*
/// computing, so every waiter present at that point shares one
/// computation and later arrivals become fresh leaders.
type RefineInflight = Mutex<HashMap<Fingerprint, Vec<RefineJob>>>;

/// Everything the async refinement worker shares with the engine: the
/// caches and counters it upgrades, behind `Arc` so the worker outlives
/// any particular borrow of the engine.
struct RefineShared {
    machine: MachineModel,
    result_cache: Arc<ShardedLru<CachedResult>>,
    persist: Option<Arc<CacheLog>>,
    persist_counters: Arc<PersistCounters>,
    upgrades: Arc<UpgradeCounters>,
    inflight: Arc<RefineInflight>,
}

/// The shared, thread-safe request engine.
pub struct Engine {
    machine: MachineModel,
    compile_cache: CompileCache,
    result_cache: Arc<ShardedLru<CachedResult>>,
    /// The disk tier behind `result_cache` (`None` = in-memory only).
    persist: Option<Arc<CacheLog>>,
    cfg: EngineConfig,
    /// Per-status response tallies.
    pub counters: ServeCounters,
    /// Persistence-tier tallies (replay/append accounting).
    pub persist_counters: Arc<PersistCounters>,
    /// Tiered-backend upgrade tallies (refinement scheduling/outcomes).
    pub upgrades: Arc<UpgradeCounters>,
    /// Operational gauges (fed by the daemon, read by `metrics`).
    pub gauges: ServerGauges,
    /// The flight recorder (fed per request, dumped on faults).
    pub flight: FlightRecorder,
    /// Per-phase latency histograms behind the `metrics` op. Kept out
    /// of the telemetry registry on purpose: wall-clock buckets differ
    /// run to run, and the drain-time telemetry export participates in
    /// determinism comparisons.
    phase_hists: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Queue into the refinement worker: each message is the dedup key
    /// of a batch the sender just made a leader for (`None` after
    /// shutdown).
    refine_tx: Mutex<Option<mpsc::Sender<Fingerprint>>>,
    /// The refinement worker's join handle (`None` after shutdown).
    refine_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Outstanding refinement jobs (waiters, not batches), for
    /// [`Engine::refine_wait_idle`].
    refine_pending: Arc<(Mutex<u64>, Condvar)>,
    /// In-flight refinement batches (dedup key → waiters).
    refine_inflight: Arc<RefineInflight>,
    /// Held by the worker across each batch's pop-and-process. Tests
    /// grab it to deterministically coalesce followers onto an already
    /// queued leader; uncontended otherwise.
    #[cfg_attr(not(test), allow(dead_code))]
    refine_gate: Arc<Mutex<()>>,
    /// Latch so the persist-size warning fires once, not per append.
    persist_warned: AtomicBool,
}

impl Engine {
    /// Builds an engine for the Itanium 2 machine model. When
    /// [`EngineConfig::persist_path`] is set, the log is replayed into
    /// the result cache *before* the engine is handed to any caller, so
    /// the very first request can hit warm. An unopenable log is loud
    /// but non-fatal — the engine degrades to in-memory-only caching.
    pub fn new(cfg: EngineConfig) -> Engine {
        let result_cache = Arc::new(ShardedLru::new(CacheConfig {
            byte_budget: cfg.result_cache_bytes,
            ..CacheConfig::default()
        }));
        let persist_counters = Arc::new(PersistCounters::default());
        let persist = cfg
            .persist_path
            .as_ref()
            .and_then(|path| match CacheLog::open(path) {
                Ok((log, report)) => {
                    // Last-writer-wins: an in-place upgrade is a second
                    // append under the same key, and a warm restart must
                    // serve the upgraded bytes, never the superseded ones.
                    let live = report.last_writer_wins();
                    persist_counters
                        .replayed
                        .store(live.len() as u64, Ordering::Relaxed);
                    persist_counters
                        .superseded
                        .store(report.superseded(), Ordering::Relaxed);
                    persist_counters
                        .dropped
                        .store(report.dropped, Ordering::Relaxed);
                    for rec in live {
                        let bytes = rec.body.len() + 64;
                        result_cache.insert(
                            rec.key,
                            CachedResult {
                                status: intern_status(&rec.status),
                                body: rec.body.as_str().into(),
                                upgraded: false,
                            },
                            bytes,
                        );
                    }
                    Some(Arc::new(log))
                }
                Err(e) => {
                    eprintln!(
                        "ltspd: persist log {} unavailable: {e} (running without persistence)",
                        path.display()
                    );
                    None
                }
            });
        let machine = MachineModel::itanium2();
        let upgrades = Arc::new(UpgradeCounters::default());
        let refine_pending = Arc::new((Mutex::new(0u64), Condvar::new()));
        let refine_inflight: Arc<RefineInflight> = Arc::new(Mutex::new(HashMap::new()));
        let refine_gate = Arc::new(Mutex::new(()));
        let shared = RefineShared {
            machine: machine.clone(),
            result_cache: Arc::clone(&result_cache),
            persist: persist.clone(),
            persist_counters: Arc::clone(&persist_counters),
            upgrades: Arc::clone(&upgrades),
            inflight: Arc::clone(&refine_inflight),
        };
        let pending = Arc::clone(&refine_pending);
        let gate = Arc::clone(&refine_gate);
        let (tx, rx) = mpsc::channel::<Fingerprint>();
        let handle = std::thread::Builder::new()
            .name("ltspd-refine".to_string())
            .spawn(move || {
                while let Ok(dedup_key) = rx.recv() {
                    // Pop the whole waiter batch under the gate, before
                    // computing: every waiter present now shares one
                    // refinement; a request arriving after the pop finds
                    // no in-flight entry and becomes a fresh leader.
                    let _gate = lock_unpoisoned(&gate);
                    let waiters = lock_unpoisoned(&shared.inflight)
                        .remove(&dedup_key)
                        .unwrap_or_default();
                    // A panicking refinement must not strand waiters or
                    // kill the worker: contain it, count it, move on.
                    let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        refine_batch(&shared, &waiters)
                    }));
                    if contained.is_err() {
                        shared.upgrades.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    let (lock, cv) = &*pending;
                    *lock_unpoisoned(lock) -= waiters.len() as u64;
                    cv.notify_all();
                }
            })
            .expect("spawn refinement worker");
        Engine {
            machine,
            compile_cache: new_compile_cache(cfg.compile_cache_bytes),
            result_cache,
            persist,
            flight: FlightRecorder::new(cfg.flight_len, cfg.flight_dir.clone()),
            cfg,
            counters: ServeCounters::default(),
            persist_counters,
            upgrades,
            gauges: ServerGauges::default(),
            phase_hists: Mutex::new(BTreeMap::new()),
            refine_tx: Mutex::new(Some(tx)),
            refine_handle: Mutex::new(Some(handle)),
            refine_pending,
            refine_inflight,
            refine_gate,
            persist_warned: AtomicBool::new(false),
        }
    }

    /// Appends a freshly computed result to the disk tier (no-op without
    /// one). Failures are counted and logged once — durability is
    /// best-effort, correctness never depends on it.
    fn persist_append(&self, key: Fingerprint, status: &str, body: &str) {
        append_record(
            self.persist.as_deref(),
            &self.persist_counters,
            key,
            status,
            body,
        );
        self.check_persist_size();
    }

    /// The operator tripwire behind `--persist-warn-mb`: one loud line
    /// the first time the append-only log crosses the threshold. The
    /// gauge (`persist_log_bytes` in `stats`, `ltsp_persist_log_bytes`
    /// in the Prometheus snapshot) keeps reporting after that.
    fn check_persist_size(&self) {
        let (Some(limit), Some(log)) = (self.cfg.persist_warn_bytes, self.persist.as_deref())
        else {
            return;
        };
        let bytes = log.log_bytes();
        if bytes > limit && !self.persist_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "ltspd: WARNING: persist log {} is {:.1} MiB, past the {:.1} MiB warning \
                 threshold — the log is append-only and only ever grows; rotate or remove it \
                 to reclaim space (a fresh log re-warms from live traffic)",
                log.path().display(),
                bytes as f64 / (1 << 20) as f64,
                limit as f64 / (1 << 20) as f64,
            );
        }
    }

    /// Test hook: while the returned guard is held, the refine worker
    /// stalls before popping its next batch, so further requests with
    /// the same refinement inputs deterministically coalesce onto the
    /// queued leader.
    #[cfg(test)]
    fn refine_pause(&self) -> std::sync::MutexGuard<'_, ()> {
        lock_unpoisoned(&self.refine_gate)
    }

    /// Blocks until every scheduled refinement has completed (tests and
    /// drain use this to make upgrade effects observable deterministically).
    pub fn refine_wait_idle(&self) {
        let (lock, cv) = &*self.refine_pending;
        let mut n = lock_unpoisoned(lock);
        while *n > 0 {
            n = cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops the refinement worker: queued jobs drain, then the thread
    /// exits and is joined. Idempotent; called on drop and by the
    /// daemon's drain path.
    pub fn refine_shutdown(&self) {
        drop(lock_unpoisoned(&self.refine_tx).take());
        if let Some(h) = lock_unpoisoned(&self.refine_handle).take() {
            let _ = h.join();
        }
    }

    /// Handles one request in process. Emits an [`Event::ServerRequest`]
    /// on `tel` and tallies the status. `shutdown` is the daemon's
    /// business and answers `error` here.
    pub fn handle(&self, req: &Request, tel: &Telemetry) -> Response {
        self.handle_phased(req, Route::Direct, tel, &PhaseTimer::new())
    }

    /// [`Engine::handle`] for a request that arrived by `route`,
    /// against a caller-owned [`PhaseTimer`] (the daemon pre-loads
    /// `queue_wait`/`dispatch` before calling). Records total handler
    /// time, feeds the per-phase histograms and the flight recorder,
    /// and — when the request opted in with `"timings":true` — attaches
    /// the breakdown to the response envelope.
    pub fn handle_phased(
        &self,
        req: &Request,
        route: Route,
        tel: &Telemetry,
        phases: &PhaseTimer,
    ) -> Response {
        let t0 = Instant::now();
        let queued = matches!(route, Route::Queued(_));
        let key = route.key().or_else(|| self.request_key(req));
        let resp = match (route, req.op) {
            (Route::Inline(hit), _) => {
                self.counters.served_inline.fetch_add(1, Ordering::Relaxed);
                phases.add_us(Phase::CacheLookup, hit.lookup_us);
                hit_response(req, &hit.entry)
            }
            (_, ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle) => {
                let key = key.expect("cacheable ops have a request key");
                self.cached_response(req, key, tel, phases)
            }
            (_, ReqOp::Ping) => Response {
                id: req.id.clone(),
                status: "ok",
                cache: "-",
                body: ",\"op\":\"ping\"".into(),
                timings: None,
            },
            (_, ReqOp::Stats) => self.stats_response(req),
            (_, ReqOp::Metrics) => self.metrics_response(req),
            (_, ReqOp::Shutdown) => Response::error(&req.id, "error", "shutdown not admitted here"),
        };
        phases.add_us(Phase::Handler, t0.elapsed().as_micros() as u64);
        let mut resp = self.finish(req, resp, tel);
        if req.timings {
            resp.timings = Some(phases.to_json_object());
        }
        self.observe(req, key, &resp, phases, queued);
        resp
    }

    /// Feeds a finished request into the phase histograms and the flight
    /// recorder.
    fn observe(
        &self,
        req: &Request,
        key: Option<Fingerprint>,
        resp: &Response,
        phases: &PhaseTimer,
        queued: bool,
    ) {
        {
            let mut hists = lock_unpoisoned(&self.phase_hists);
            for (p, us) in phases.snapshot() {
                // A phase histogram's count is "times this phase ran":
                // `handler` for every request, `queue_wait`/`dispatch`
                // for every request that was queued, the rest whenever
                // they took measurable time.
                let ran = match p {
                    Phase::Handler => true,
                    Phase::QueueWait | Phase::Dispatch => queued || us > 0,
                    _ => us > 0,
                };
                if ran {
                    hists.entry(p.name()).or_default().record(us);
                }
            }
        }
        self.flight.record(FlightRecord::capture(
            req,
            key,
            resp.status,
            resp.cache,
            phases,
        ));
    }

    /// Records a single out-of-band phase sample (whoever writes a
    /// response to its socket books `write` time here, after the
    /// response envelope is sealed).
    pub fn record_phase_sample(&self, phase: Phase, us: u64) {
        lock_unpoisoned(&self.phase_hists)
            .entry(phase.name())
            .or_default()
            .record(us);
    }

    /// The first-level cache key of a request, or `None` for ops that
    /// bypass the result cache: the *raw* request content (loop text
    /// byte-for-byte plus every knob), so a hit skips even the loop
    /// parse. The daemon computes it once, where the request is read,
    /// and uses it to probe for a hit on the spot ([`Engine::probe`]),
    /// to hand the request on ([`Route::Queued`]), and to dedupe
    /// identical requests *within* a parallel batch: without that, two
    /// same-key requests race on who populates the cache and the
    /// loser's `"cache"` tag depends on worker timing — a
    /// `--jobs`-dependent byte in an otherwise deterministic response
    /// stream.
    pub fn request_key(&self, req: &Request) -> Option<Fingerprint> {
        match req.op {
            ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle => {}
            _ => return None,
        }
        let mut h = FingerprintHasher::new();
        h.write_str("request-v1");
        h.write_str(req.op.tag());
        h.write_str(req.backend.tag());
        h.write_str(req.mode.tag());
        h.write_str(&req.loop_text);
        h.write_str(&req.policy.to_string());
        h.write_f64(req.trip);
        h.write_u64(u64::from(req.threshold));
        h.write_u64(
            u64::from(req.prefetch) | u64::from(req.balanced) << 1 | u64::from(req.speculate) << 2,
        );
        h.write_u64(req.budget);
        h.write_u64(self.effective_deadline_ms(req).map_or(u64::MAX, |d| d));
        Some(h.finish())
    }

    /// Looks a first-level key up without being able to start a
    /// compile: a present entry is a counted hit the caller answers
    /// through [`Route::Inline`]; absence counts nothing, because the
    /// caller then queues the request and the handler's own lookup is
    /// the one miss it is.
    pub fn probe(&self, key: Fingerprint) -> Option<CacheHit> {
        let t0 = Instant::now();
        let entry = self.result_cache.probe(key)?;
        Some(CacheHit {
            key,
            entry,
            lookup_us: t0.elapsed().as_micros() as u64,
        })
    }

    /// First-level cache in front of the pipeline. A miss falls through
    /// to the canonical per-op path, whose artifact/body caches still
    /// deduplicate requests that differ only in formatting. Responses
    /// are pure functions of their requests, so caching the whole
    /// outcome (including error outcomes) is sound.
    fn cached_response(
        &self,
        req: &Request,
        key: Fingerprint,
        tel: &Telemetry,
        phases: &PhaseTimer,
    ) -> Response {
        let inner_tag = std::cell::Cell::new("miss");
        let t0 = Instant::now();
        let (cached, hit) = self.result_cache.get_or_insert_with(
            key,
            |r| r.body.len() + req.loop_text.len() + 64,
            || {
                let resp = match req.op {
                    ReqOp::Compile => self.compile(req, tel, phases),
                    _ => self.verify_or_oracle(req, tel, phases),
                };
                inner_tag.set(resp.cache);
                CachedResult {
                    status: resp.status,
                    body: resp.body,
                    upgraded: false,
                }
            },
        );
        if hit {
            // On a miss the probe time is dwarfed by (and attributed to)
            // the compile phases the closure just ran.
            phases.add_us(Phase::CacheLookup, t0.elapsed().as_micros() as u64);
            return hit_response(req, &cached);
        }
        self.persist_append(key, cached.status, &cached.body);
        // A cold refining compile answered with the heuristic
        // schedule: queue the async refinement — exact emission for
        // the tiered backend, the adaptive feedback loop for
        // `mode:"adaptive"` — which upgrades this entry (and the
        // tier body entry) in place when it lands.
        if req.op == ReqOp::Compile && cached.status == "ok" {
            if req.backend == Backend::Tiered {
                self.schedule_refine(req, key, RefineKind::Exact);
            } else if req.mode == Mode::Adaptive {
                self.schedule_refine(req, key, RefineKind::Adaptive);
            }
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: inner_tag.get(),
            body: Arc::clone(&cached.body),
            timings: None,
        }
    }

    /// Queues one refinement job for a cold refining compile,
    /// coalescing identical in-flight work: the first job under a dedup
    /// key becomes the batch leader and takes the queue slot; a second
    /// cold compile needing the same refinement (e.g. two tiered
    /// requests for one loop at different trip estimates, whose exact
    /// schedule is the same) appends itself as a waiter instead of
    /// scheduling the computation twice — each waiter still gets its
    /// own in-place upgrade. Failure to queue (worker already shut
    /// down) is counted, never surfaced: the heuristic answer stands.
    fn schedule_refine(&self, req: &Request, raw_key: Fingerprint, kind: RefineKind) {
        let job = RefineJob {
            raw_key,
            deadline_ms: self.effective_deadline_ms(req),
            kind,
            req: req.clone(),
        };
        let dedup_key = job.dedup_key();
        let (lock, cv) = &*self.refine_pending;
        {
            let mut inflight = lock_unpoisoned(&self.refine_inflight);
            if let Some(waiters) = inflight.get_mut(&dedup_key) {
                waiters.push(job);
                drop(inflight);
                self.upgrades.coalesced.fetch_add(1, Ordering::Relaxed);
                *lock_unpoisoned(lock) += 1;
                return;
            }
            inflight.insert(dedup_key, vec![job]);
        }
        self.upgrades.scheduled.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(lock) += 1;
        let sent = lock_unpoisoned(&self.refine_tx)
            .as_ref()
            .is_some_and(|tx| tx.send(dedup_key).is_ok());
        if !sent {
            // Shutdown race: reclaim the batch (the leader plus any
            // follower that squeezed in) — nobody will process it.
            let reclaimed = lock_unpoisoned(&self.refine_inflight)
                .remove(&dedup_key)
                .map_or(0, |w| w.len() as u64);
            self.upgrades.failed.fetch_add(1, Ordering::Relaxed);
            *lock_unpoisoned(lock) -= reclaimed;
            cv.notify_all();
        }
    }

    /// Tallies and traces a response (also used by the daemon for
    /// admission-path responses: overloaded / draining / parse errors).
    pub fn finish(&self, req: &Request, resp: Response, tel: &Telemetry) -> Response {
        self.counters.bump(resp.status);
        if tel.is_enabled() {
            tel.emit(Event::ServerRequest {
                trace_id: req.id.clone(),
                op: req.op.tag(),
                status: resp.status,
                cache: resp.cache,
                loop_name: loop_name_of(&req.loop_text),
            });
        }
        resp
    }

    /// Like [`Engine::finish`] for responses produced before a
    /// [`Request`] exists (protocol parse failures): tallies the status
    /// and traces under the given op tag.
    pub fn finish_admission(
        &self,
        trace_id: &str,
        op: &'static str,
        resp: Response,
        tel: &Telemetry,
    ) -> Response {
        self.counters.bump(resp.status);
        if tel.is_enabled() {
            tel.emit(Event::ServerRequest {
                trace_id: trace_id.to_string(),
                op,
                status: resp.status,
                cache: resp.cache,
                loop_name: String::new(),
            });
        }
        resp
    }

    /// Exports both caches' counters into `tel`'s metrics registry.
    pub fn export_metrics(&self, tel: &Telemetry) {
        self.compile_cache
            .export_metrics(tel, "serve.compile_cache");
        self.result_cache.export_metrics(tel, "serve.result_cache");
        tel.counter_add(
            "serve.requests.ok",
            self.counters.ok.load(Ordering::Relaxed),
        );
        tel.counter_add(
            "serve.requests.rejected",
            self.counters.rejected.load(Ordering::Relaxed),
        );
        tel.counter_add(
            "serve.requests.error",
            self.counters.error.load(Ordering::Relaxed),
        );
        tel.counter_add(
            "serve.requests.overloaded",
            self.counters.overloaded.load(Ordering::Relaxed),
        );
    }

    fn parse(&self, req: &Request, phases: &PhaseTimer) -> Result<LoopIr, Response> {
        match phases.time(Phase::Parse, || parse_loop(&req.loop_text)) {
            Ok(lp) => Ok(lp),
            Err(ParseError::Syntax { line, message }) => {
                let mut body = String::new();
                push_str_field(&mut body, "op", req.op.tag());
                push_str_field(&mut body, "error_kind", "syntax");
                push_u64_field(&mut body, "line", line as u64);
                push_str_field(&mut body, "error", &message);
                Err(Response {
                    id: req.id.clone(),
                    status: "error",
                    cache: "-",
                    body: body.into(),
                    timings: None,
                })
            }
            Err(ParseError::Invalid(e)) => {
                let mut body = String::new();
                push_str_field(&mut body, "op", req.op.tag());
                push_str_field(&mut body, "error_kind", "invalid");
                push_str_field(&mut body, "error", &e.to_string());
                Err(Response {
                    id: req.id.clone(),
                    status: "error",
                    cache: "-",
                    body: body.into(),
                    timings: None,
                })
            }
        }
    }

    /// Dispatches a compile on the request's backend: heuristic (the
    /// production pipeliner), exact (sync branch-and-bound emission), or
    /// tiered (heuristic now, exact refinement async). `mode:"adaptive"`
    /// layers on the heuristic backend only: heuristic now, adaptive
    /// hint refinement async.
    fn compile(&self, req: &Request, tel: &Telemetry, phases: &PhaseTimer) -> Response {
        if req.mode == Mode::Adaptive {
            return match req.backend {
                Backend::Heuristic => self.compile_adaptive_tier(req, tel, phases),
                // parse_request rejects the combination; a hand-built
                // Request gets the same answer here.
                _ => Response::error(
                    &req.id,
                    "error",
                    "mode 'adaptive' requires the heuristic backend",
                ),
            };
        }
        match req.backend {
            Backend::Heuristic => self.compile_heuristic(req, tel, phases),
            Backend::Exact => self.compile_exact(req, phases),
            Backend::Tiered => self.compile_tiered(req, tel, phases),
        }
    }

    /// Renders the heuristic compile body (shared by the heuristic and
    /// tiered paths; the tiered path appends its backend fields).
    fn render_heuristic_body(&self, req: &Request, compiled: &ltsp_core::CompiledLoop) -> String {
        let mut body = String::new();
        push_str_field(&mut body, "op", "compile");
        push_str_field(&mut body, "loop", compiled.lp.name());
        push_bool_field(&mut body, "pipelined", compiled.pipelined);
        push_u64_field(&mut body, "ii", u64::from(compiled.kernel.ii()));
        push_u64_field(
            &mut body,
            "stages",
            u64::from(compiled.kernel.stage_count()),
        );
        if let Some(stats) = compiled.stats {
            push_u64_field(&mut body, "res_mii", u64::from(stats.res_mii));
            push_u64_field(&mut body, "rec_mii", u64::from(stats.rec_mii));
        }
        if let Some(regs) = compiled.regs {
            use std::fmt::Write as _;
            let _ = write!(
                body,
                ",\"regs\":[{},{},{}]",
                regs.rotating_gr, regs.rotating_fr, regs.rotating_pr
            );
        }
        push_str_field(
            &mut body,
            "report",
            &render_compile_report(compiled, req.policy, req.trip),
        );
        body
    }

    fn compile_heuristic(&self, req: &Request, tel: &Telemetry, phases: &PhaseTimer) -> Response {
        let lp = match self.parse(req, phases) {
            Ok(lp) => lp,
            Err(resp) => return resp,
        };
        let cfg = CompileConfig::new(req.policy)
            .with_threshold(req.threshold)
            .with_prefetch(req.prefetch)
            .with_balanced_recurrences(req.balanced)
            .with_data_speculation(req.speculate);
        // Two-level: the artifact cache deduplicates the compile itself,
        // and the rendered body (kernel dump + JSON escaping, the bulk of
        // the per-hit cost for large kernels) is cached alongside the
        // verify/oracle results, keyed by the same inputs as the artifact.
        let body_key = {
            let mut h = FingerprintHasher::new();
            h.write_str("compile-body-v1");
            h.write_fingerprint(ltsp_core::compile_key(&lp, &self.machine, &cfg, req.trip));
            h.finish()
        };
        let artifact_hit = std::cell::Cell::new(false);
        let (cached, body_hit) = self.result_cache.get_or_insert_with(
            body_key,
            |r| r.body.len() + 32,
            || {
                let (compiled, hit) = compile_loop_cached_phased(
                    &self.compile_cache,
                    &lp,
                    &self.machine,
                    &cfg,
                    req.trip,
                    tel,
                    Some(phases),
                );
                artifact_hit.set(hit);
                phases.time(Phase::Render, || CachedResult {
                    status: "ok",
                    body: self.render_heuristic_body(req, &compiled).into(),
                    upgraded: false,
                })
            },
        );
        if !body_hit {
            // Persist under the canonical body key too: a formatting
            // variant of a known loop replays to a parse-then-hit after
            // restart, not a recompile.
            self.persist_append(body_key, cached.status, &cached.body);
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: if body_hit || artifact_hit.get() {
                "hit"
            } else {
                "miss"
            },
            body: cached.body.clone(),
            timings: None,
        }
    }

    /// The sync exact path: branch-and-bound emission at the proven
    /// minimal II, validator-certified, rendered once and cached under
    /// the exact body key (shared with the tiered refinement worker).
    fn compile_exact(&self, req: &Request, phases: &PhaseTimer) -> Response {
        let lp = match self.parse(req, phases) {
            Ok(lp) => lp,
            Err(resp) => return resp,
        };
        let deadline_ms = self.effective_deadline_ms(req);
        let body_key = exact_body_key(&self.machine, &lp, req.budget, deadline_ms);
        let (cached, hit) = self.result_cache.get_or_insert_with(
            body_key,
            |r| r.body.len() + 32,
            || compute_exact_body(&self.machine, &lp, req.budget, deadline_ms),
        );
        if !hit {
            self.persist_append(body_key, cached.status, &cached.body);
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: if hit { "hit" } else { "miss" },
            body: cached.body.clone(),
            timings: None,
        }
    }

    /// The tiered initial answer: the heuristic compile, rendered under
    /// the tiered body key (which the refinement worker later upgrades
    /// in place). Tagged so clients can tell which tier they got.
    fn compile_tiered(&self, req: &Request, tel: &Telemetry, phases: &PhaseTimer) -> Response {
        let lp = match self.parse(req, phases) {
            Ok(lp) => lp,
            Err(resp) => return resp,
        };
        let cfg = CompileConfig::new(req.policy)
            .with_threshold(req.threshold)
            .with_prefetch(req.prefetch)
            .with_balanced_recurrences(req.balanced)
            .with_data_speculation(req.speculate);
        let deadline_ms = self.effective_deadline_ms(req);
        let body_key = tiered_body_key(&self.machine, &lp, &cfg, req.trip, req.budget, deadline_ms);
        let artifact_hit = std::cell::Cell::new(false);
        let (cached, body_hit) = self.result_cache.get_or_insert_with(
            body_key,
            |r| r.body.len() + 32,
            || {
                let (compiled, hit) = compile_loop_cached_phased(
                    &self.compile_cache,
                    &lp,
                    &self.machine,
                    &cfg,
                    req.trip,
                    tel,
                    Some(phases),
                );
                artifact_hit.set(hit);
                phases.time(Phase::Render, || {
                    let mut body = self.render_heuristic_body(req, &compiled);
                    push_str_field(&mut body, "backend", "tiered");
                    push_bool_field(&mut body, "refined", false);
                    CachedResult {
                        status: "ok",
                        body: body.into(),
                        upgraded: false,
                    }
                })
            },
        );
        if !body_hit {
            self.persist_append(body_key, cached.status, &cached.body);
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: if body_hit {
                if cached.upgraded {
                    "upgraded"
                } else {
                    "hit"
                }
            } else if artifact_hit.get() {
                "hit"
            } else {
                "miss"
            },
            body: cached.body.clone(),
            timings: None,
        }
    }

    /// The adaptive initial answer: the heuristic compile, rendered
    /// under the adaptive tier body key (which the refinement worker
    /// later upgrades in place with the converged schedule). Tagged
    /// `mode:"adaptive"` / `refined:false` so clients can tell they got
    /// the fast static tier.
    fn compile_adaptive_tier(
        &self,
        req: &Request,
        tel: &Telemetry,
        phases: &PhaseTimer,
    ) -> Response {
        let lp = match self.parse(req, phases) {
            Ok(lp) => lp,
            Err(resp) => return resp,
        };
        let cfg = CompileConfig::new(req.policy)
            .with_threshold(req.threshold)
            .with_prefetch(req.prefetch)
            .with_balanced_recurrences(req.balanced)
            .with_data_speculation(req.speculate);
        let body_key = adaptive_tier_body_key(&self.machine, &lp, &cfg, req.trip);
        let artifact_hit = std::cell::Cell::new(false);
        let (cached, body_hit) = self.result_cache.get_or_insert_with(
            body_key,
            |r| r.body.len() + 32,
            || {
                let (compiled, hit) = compile_loop_cached_phased(
                    &self.compile_cache,
                    &lp,
                    &self.machine,
                    &cfg,
                    req.trip,
                    tel,
                    Some(phases),
                );
                artifact_hit.set(hit);
                phases.time(Phase::Render, || {
                    let mut body = self.render_heuristic_body(req, &compiled);
                    push_str_field(&mut body, "mode", "adaptive");
                    push_bool_field(&mut body, "refined", false);
                    CachedResult {
                        status: "ok",
                        body: body.into(),
                        upgraded: false,
                    }
                })
            },
        );
        if !body_hit {
            self.persist_append(body_key, cached.status, &cached.body);
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: if body_hit {
                if cached.upgraded {
                    "upgraded"
                } else {
                    "hit"
                }
            } else if artifact_hit.get() {
                "hit"
            } else {
                "miss"
            },
            body: cached.body.clone(),
            timings: None,
        }
    }

    /// Verify and oracle share shape: pipeline + independent validation,
    /// oracle adds the exact-II proof. Outcomes are cached as rendered
    /// bodies keyed on the canonicalized loop and every knob that can
    /// change the answer.
    fn verify_or_oracle(&self, req: &Request, tel: &Telemetry, phases: &PhaseTimer) -> Response {
        let lp = match self.parse(req, phases) {
            Ok(lp) => lp,
            Err(resp) => return resp,
        };
        let mut h = FingerprintHasher::new();
        h.write_str(if req.op == ReqOp::Oracle {
            "oracle-v1"
        } else {
            "verify-v1"
        });
        h.write_str(&lp.to_string());
        h.write_fingerprint(Fingerprint::of_str(&format!("{:?}", self.machine)));
        if req.op == ReqOp::Oracle {
            h.write_u64(req.budget);
            h.write_u64(self.effective_deadline_ms(req).map_or(u64::MAX, |d| d));
        }
        let key = h.finish();
        let (cached, hit) = self.result_cache.get_or_insert_with(
            key,
            |r| r.body.len() + 32,
            || self.run_case(req, &lp, tel),
        );
        if !hit {
            self.persist_append(key, cached.status, &cached.body);
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: if hit { "hit" } else { "miss" },
            body: cached.body.clone(),
            timings: None,
        }
    }

    fn effective_deadline_ms(&self, req: &Request) -> Option<u64> {
        match req.deadline_ms {
            Some(0) => None, // explicit 0 = no deadline
            Some(ms) => Some(ms),
            None if req.op == ReqOp::Oracle => self.cfg.oracle_deadline_ms,
            // Exact emission (sync or as tiered refinement) is bounded
            // by the same default deadline as the oracle proof.
            None if req.op == ReqOp::Compile && req.backend != Backend::Heuristic => {
                self.cfg.oracle_deadline_ms
            }
            None => None,
        }
    }

    fn run_case(&self, req: &Request, lp: &LoopIr, tel: &Telemetry) -> CachedResult {
        use std::fmt::Write as _;
        let opts = OracleOptions {
            node_budget: if req.op == ReqOp::Oracle {
                req.budget
            } else {
                OracleOptions::default().node_budget
            },
            time_budget: self.effective_deadline_ms(req).map(Duration::from_millis),
            ..OracleOptions::default()
        };
        let r = differential_case(lp, &self.machine, &opts, tel);
        let mut body = String::new();
        push_str_field(&mut body, "op", req.op.tag());
        push_str_field(&mut body, "loop", &r.name);
        push_bool_field(&mut body, "pipelined", r.pipelined);
        push_u64_field(&mut body, "ii", u64::from(r.heuristic_ii));
        body.push_str(",\"violations\":[");
        let mut report = String::new();
        for (i, v) in r.violations.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let line = format!("{}: violation [{}]: {v}", r.name, v.kind());
            let _ = write!(body, "\"{}\"", ltsp_telemetry::json::escape(&line));
        }
        body.push(']');
        let certified = r.violations.is_empty();
        let mut status: &'static str = if certified { "ok" } else { "rejected" };
        if req.op == ReqOp::Verify {
            if certified {
                let _ = writeln!(
                    report,
                    "{}: certified (II={}, {})",
                    r.name,
                    r.heuristic_ii,
                    if r.pipelined {
                        "modulo schedule"
                    } else {
                        "acyclic fallback"
                    }
                );
            }
        } else {
            match &r.verdict {
                IiVerdict::Exact {
                    optimal_ii, nodes, ..
                } => {
                    let gap = r.heuristic_ii - optimal_ii;
                    push_str_field(&mut body, "verdict", "exact");
                    push_u64_field(&mut body, "optimal_ii", u64::from(*optimal_ii));
                    push_u64_field(&mut body, "gap", u64::from(gap));
                    push_u64_field(&mut body, "nodes", *nodes);
                    let _ = writeln!(
                        report,
                        "{}: heuristic II={} optimal II={} gap={} ({} search nodes){}",
                        r.name,
                        r.heuristic_ii,
                        optimal_ii,
                        gap,
                        nodes,
                        if gap == 0 { " — proven optimal" } else { "" }
                    );
                }
                IiVerdict::BoundedUnknown {
                    proven_lower,
                    nodes,
                } => {
                    status = "rejected";
                    push_str_field(&mut body, "verdict", "bounded-unknown");
                    push_u64_field(&mut body, "proven_lower", u64::from(*proven_lower));
                    push_u64_field(&mut body, "nodes", *nodes);
                    let _ = writeln!(
                        report,
                        "{}: heuristic II={}, optimal II in [{}, {}] — budget exhausted \
                         after {} nodes",
                        r.name, r.heuristic_ii, proven_lower, r.heuristic_ii, nodes
                    );
                }
            }
        }
        push_str_field(&mut body, "report", &report);
        CachedResult {
            status,
            body: body.into(),
            upgraded: false,
        }
    }

    fn stats_response(&self, req: &Request) -> Response {
        let mut body = String::new();
        push_str_field(&mut body, "op", "stats");
        for (key, v) in [
            ("requests_ok", self.counters.ok.load(Ordering::Relaxed)),
            (
                "requests_rejected",
                self.counters.rejected.load(Ordering::Relaxed),
            ),
            (
                "requests_error",
                self.counters.error.load(Ordering::Relaxed),
            ),
            (
                "requests_overloaded",
                self.counters.overloaded.load(Ordering::Relaxed),
            ),
            (
                "served_inline",
                self.counters.served_inline.load(Ordering::Relaxed),
            ),
        ] {
            push_u64_field(&mut body, key, v);
        }
        for (prefix, stats) in [
            ("compile_cache", self.compile_cache.stats()),
            ("result_cache", self.result_cache.stats()),
        ] {
            push_u64_field(&mut body, &format!("{prefix}_hits"), stats.hits);
            push_u64_field(&mut body, &format!("{prefix}_misses"), stats.misses);
            push_u64_field(&mut body, &format!("{prefix}_evictions"), stats.evictions);
            push_u64_field(&mut body, &format!("{prefix}_entries"), stats.entries);
            push_u64_field(&mut body, &format!("{prefix}_bytes"), stats.bytes);
        }
        for (key, v) in [
            ("persist_replayed", &self.persist_counters.replayed),
            ("persist_dropped", &self.persist_counters.dropped),
            ("persist_superseded", &self.persist_counters.superseded),
            ("persist_appended", &self.persist_counters.appended),
            (
                "persist_append_errors",
                &self.persist_counters.append_errors,
            ),
        ] {
            push_u64_field(&mut body, key, v.load(Ordering::Relaxed));
        }
        push_u64_field(
            &mut body,
            "persist_log_bytes",
            self.persist.as_deref().map_or(0, CacheLog::log_bytes),
        );
        for (key, v) in [
            ("upgrades_scheduled", &self.upgrades.scheduled),
            ("upgrades_coalesced", &self.upgrades.coalesced),
            ("upgrades_applied", &self.upgrades.applied),
            ("upgrades_refined", &self.upgrades.refined),
            ("upgrades_failed", &self.upgrades.failed),
        ] {
            push_u64_field(&mut body, key, v.load(Ordering::Relaxed));
        }
        Response {
            id: req.id.clone(),
            status: "ok",
            cache: "-",
            body: body.into(),
            timings: None,
        }
    }

    /// The `{"op":"metrics"}` response: the Prometheus text snapshot
    /// escaped into a `"metrics"` string field. Bypasses every cache
    /// (like `stats`) and is excluded from the determinism contract.
    fn metrics_response(&self, req: &Request) -> Response {
        let mut body = String::new();
        push_str_field(&mut body, "op", "metrics");
        push_str_field(&mut body, "metrics", &self.render_prometheus());
        Response {
            id: req.id.clone(),
            status: "ok",
            cache: "-",
            body: body.into(),
            timings: None,
        }
    }

    /// The full operational snapshot in Prometheus text format: request
    /// counters by status, cache counters and sizes, live gauges, chaos
    /// counters, and the per-phase latency histograms (cumulative
    /// `le` buckets in microseconds).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        prom::push_type(&mut out, "ltsp_requests_total", "counter");
        for (status, v) in [
            ("ok", self.counters.ok.load(Ordering::Relaxed)),
            ("rejected", self.counters.rejected.load(Ordering::Relaxed)),
            ("error", self.counters.error.load(Ordering::Relaxed)),
            (
                "overloaded",
                self.counters.overloaded.load(Ordering::Relaxed),
            ),
            ("draining", self.counters.draining.load(Ordering::Relaxed)),
        ] {
            prom::push_sample(
                &mut out,
                "ltsp_requests_total",
                &[("status", status)],
                v as f64,
            );
        }
        let caches = [
            ("compile", self.compile_cache.stats()),
            ("result", self.result_cache.stats()),
        ];
        for (name, kind, get) in [
            (
                "ltsp_cache_hits_total",
                "counter",
                (|s| s.hits) as fn(&ltsp_cache::CacheStats) -> u64,
            ),
            ("ltsp_cache_misses_total", "counter", |s| s.misses),
            ("ltsp_cache_evictions_total", "counter", |s| s.evictions),
            ("ltsp_cache_entries", "gauge", |s| s.entries),
            ("ltsp_cache_bytes", "gauge", |s| s.bytes),
        ] {
            prom::push_type(&mut out, name, kind);
            for (cache, stats) in &caches {
                prom::push_sample(&mut out, name, &[("cache", cache)], get(stats) as f64);
            }
        }
        for (name, v) in [
            ("ltsp_queue_depth", &self.gauges.queue_depth),
            ("ltsp_inflight", &self.gauges.inflight),
            ("ltsp_connections", &self.gauges.connections),
        ] {
            prom::push_type(&mut out, name, "gauge");
            prom::push_sample(&mut out, name, &[], v.load(Ordering::Relaxed) as f64);
        }
        for (name, v) in [
            ("ltsp_served_inline_total", &self.counters.served_inline),
            ("ltsp_connections_shed_total", &self.gauges.conn_shed),
            ("ltsp_responses_shed_total", &self.gauges.responses_shed),
            ("ltsp_request_panics_total", &self.gauges.request_panics),
            ("ltsp_faults_injected_total", &self.gauges.faults_injected),
            (
                "ltsp_dispatcher_deaths_total",
                &self.gauges.dispatcher_deaths,
            ),
        ] {
            prom::push_type(&mut out, name, "counter");
            prom::push_sample(&mut out, name, &[], v.load(Ordering::Relaxed) as f64);
        }
        for (name, kind, v) in [
            (
                "ltsp_persist_replayed_records",
                "gauge",
                &self.persist_counters.replayed,
            ),
            (
                "ltsp_persist_dropped_records",
                "gauge",
                &self.persist_counters.dropped,
            ),
            (
                "ltsp_persist_superseded_records",
                "gauge",
                &self.persist_counters.superseded,
            ),
            (
                "ltsp_persist_appended_total",
                "counter",
                &self.persist_counters.appended,
            ),
            (
                "ltsp_persist_append_errors_total",
                "counter",
                &self.persist_counters.append_errors,
            ),
        ] {
            prom::push_type(&mut out, name, kind);
            prom::push_sample(&mut out, name, &[], v.load(Ordering::Relaxed) as f64);
        }
        prom::push_type(&mut out, "ltsp_persist_log_bytes", "gauge");
        prom::push_sample(
            &mut out,
            "ltsp_persist_log_bytes",
            &[],
            self.persist.as_deref().map_or(0, CacheLog::log_bytes) as f64,
        );
        prom::push_type(&mut out, "ltsp_upgrades_total", "counter");
        for (event, v) in [
            ("scheduled", &self.upgrades.scheduled),
            ("coalesced", &self.upgrades.coalesced),
            ("applied", &self.upgrades.applied),
            ("refined", &self.upgrades.refined),
            ("failed", &self.upgrades.failed),
        ] {
            prom::push_sample(
                &mut out,
                "ltsp_upgrades_total",
                &[("event", event)],
                v.load(Ordering::Relaxed) as f64,
            );
        }
        prom::push_type(&mut out, "ltsp_flight_records", "gauge");
        prom::push_sample(
            &mut out,
            "ltsp_flight_records",
            &[],
            self.flight.len() as f64,
        );
        prom::push_type(&mut out, "ltsp_flight_dumps_total", "counter");
        prom::push_sample(
            &mut out,
            "ltsp_flight_dumps_total",
            &[],
            self.flight.dump_count() as f64,
        );
        prom::push_type(&mut out, "ltsp_phase_us", "histogram");
        let hists = lock_unpoisoned(&self.phase_hists);
        for (name, h) in hists.iter() {
            prom::push_histogram(&mut out, "ltsp_phase_us", &[("phase", name)], h);
        }
        out
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.refine_shutdown();
    }
}

/// The answer to `req` from its first-level cache entry — the one
/// place a hit's envelope is put together, whichever thread found it.
fn hit_response(req: &Request, entry: &CachedResult) -> Response {
    Response {
        id: req.id.clone(),
        status: entry.status,
        cache: if entry.upgraded { "upgraded" } else { "hit" },
        body: Arc::clone(&entry.body),
        timings: None,
    }
}

/// Appends one record to the disk tier (shared by the engine and the
/// refinement worker). Failures are counted and logged once.
fn append_record(
    log: Option<&CacheLog>,
    counters: &PersistCounters,
    key: Fingerprint,
    status: &str,
    body: &str,
) {
    let Some(log) = log else { return };
    match log.append(key, status, body) {
        Ok(()) => {
            counters.appended.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            if counters.append_errors.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "ltspd: persist append to {} failed: {e} (cache stays in-memory)",
                    log.path().display()
                );
            }
        }
    }
}

/// The canonical cache key of an exact-backend compile body: loop +
/// machine + search budget + deadline. Shared by sync `--backend exact`
/// requests and the tiered refinement worker, so either path warms the
/// other.
fn exact_body_key(
    machine: &MachineModel,
    lp: &LoopIr,
    budget: u64,
    deadline_ms: Option<u64>,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("compile-body-exact-v1");
    h.write_str(&lp.to_string());
    h.write_fingerprint(Fingerprint::of_str(&format!("{machine:?}")));
    h.write_u64(budget);
    h.write_u64(deadline_ms.map_or(u64::MAX, |d| d));
    h.finish()
}

/// The canonical cache key of a tiered compile body. Separate from the
/// heuristic `compile-body-v1` keyspace on purpose: in-place upgrades
/// swap *this* entry's bytes, and must never corrupt a plain heuristic
/// compile's cached body.
fn tiered_body_key(
    machine: &MachineModel,
    lp: &LoopIr,
    cfg: &CompileConfig,
    trip: f64,
    budget: u64,
    deadline_ms: Option<u64>,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("compile-body-tiered-v1");
    h.write_fingerprint(ltsp_core::compile_key(lp, machine, cfg, trip));
    h.write_u64(budget);
    h.write_u64(deadline_ms.map_or(u64::MAX, |d| d));
    h.finish()
}

/// The canonical cache key of an adaptive-mode tier body (the fast
/// static answer the refinement later upgrades in place). Separate from
/// both the heuristic and tiered keyspaces, same reasoning as
/// [`tiered_body_key`]. No oracle budget or deadline: the adaptive loop
/// runs a fixed deterministic refinement window, not a search.
fn adaptive_tier_body_key(
    machine: &MachineModel,
    lp: &LoopIr,
    cfg: &CompileConfig,
    trip: f64,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("compile-body-adaptive-tier-v1");
    h.write_fingerprint(ltsp_core::compile_key(lp, machine, cfg, trip));
    h.finish()
}

/// The canonical cache key of a *converged* adaptive compile body: the
/// same compile inputs as the tier key, under its own namespace. Every
/// refinement of the same (loop, config, trip) lands here first, so
/// coalesced-then-split request streams (and warm restarts) compute the
/// fixpoint once.
fn adaptive_body_key(
    machine: &MachineModel,
    lp: &LoopIr,
    cfg: &CompileConfig,
    trip: f64,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("compile-body-adaptive-v1");
    h.write_fingerprint(ltsp_core::compile_key(lp, machine, cfg, trip));
    h.finish()
}

/// Runs the adaptive refinement loop to its certified fixpoint and
/// renders the converged compile body: the chosen schedule's facts plus
/// the adaptive telemetry (`static_ii`, `rounds`, `chosen_round`,
/// `converged`, `certified`, `dropped_prefetches`, `refined`) and the
/// canonical [`render_adaptive_report`] text — the same renderer
/// `ltspc compile --adaptive` prints through, so the upgraded server
/// bytes and the local CLI report agree by construction. An uncertified
/// round (a scheduler bug by definition) renders as `rejected`, and the
/// fast static tier stays in place.
fn compute_adaptive_body(
    machine: &MachineModel,
    lp: &LoopIr,
    cfg: &CompileConfig,
    req: &Request,
) -> CachedResult {
    use std::fmt::Write as _;
    let res = compile_loop_adaptive(
        lp,
        machine,
        cfg,
        req.trip,
        &AdaptiveOptions::default(),
        &Telemetry::disabled(),
    );
    let certified = res.all_certified();
    let compiled = &res.compiled;
    let mut body = String::new();
    push_str_field(&mut body, "op", "compile");
    push_str_field(&mut body, "loop", compiled.lp.name());
    push_bool_field(&mut body, "pipelined", compiled.pipelined);
    push_u64_field(&mut body, "ii", u64::from(compiled.kernel.ii()));
    push_u64_field(
        &mut body,
        "stages",
        u64::from(compiled.kernel.stage_count()),
    );
    if let Some(stats) = compiled.stats {
        push_u64_field(&mut body, "res_mii", u64::from(stats.res_mii));
        push_u64_field(&mut body, "rec_mii", u64::from(stats.rec_mii));
    }
    if let Some(regs) = compiled.regs {
        let _ = write!(
            body,
            ",\"regs\":[{},{},{}]",
            regs.rotating_gr, regs.rotating_fr, regs.rotating_pr
        );
    }
    push_str_field(&mut body, "mode", "adaptive");
    push_u64_field(&mut body, "static_ii", u64::from(res.static_ii()));
    push_u64_field(&mut body, "rounds", res.rounds.len() as u64);
    push_u64_field(&mut body, "chosen_round", u64::from(res.chosen_round));
    push_bool_field(&mut body, "converged", res.converged);
    push_bool_field(&mut body, "certified", certified);
    push_u64_field(
        &mut body,
        "dropped_prefetches",
        res.chosen().overlay.dropped_prefetches() as u64,
    );
    push_bool_field(&mut body, "refined", res.ii() < res.static_ii());
    push_str_field(
        &mut body,
        "report",
        &render_adaptive_report(&res, req.policy, req.trip),
    );
    CachedResult {
        status: if certified { "ok" } else { "rejected" },
        body: body.into(),
        upgraded: false,
    }
}

/// Runs the exact backend on `lp` and renders the compile body it
/// produces: the emitted schedule's facts plus the refinement telemetry
/// (`heuristic_ii`, `proven_optimal`, `refined`, `nodes`). A rejected
/// case (validator violations — a real bug somewhere) renders the
/// violations like the oracle op does.
fn compute_exact_body(
    machine: &MachineModel,
    lp: &LoopIr,
    budget: u64,
    deadline_ms: Option<u64>,
) -> CachedResult {
    use std::fmt::Write as _;
    let opts = OracleOptions {
        node_budget: budget,
        time_budget: deadline_ms.map(Duration::from_millis),
        ..OracleOptions::default()
    };
    match exact_case(lp, machine, &opts) {
        Ok(case) => {
            let mut body = String::new();
            push_str_field(&mut body, "op", "compile");
            push_str_field(&mut body, "loop", &case.name);
            // A refined schedule is a genuine modulo schedule even when
            // the heuristic had fallen back to the acyclic path.
            push_bool_field(
                &mut body,
                "pipelined",
                case.pipelined || case.result.refined,
            );
            push_u64_field(&mut body, "ii", u64::from(case.result.schedule.ii()));
            push_u64_field(
                &mut body,
                "stages",
                u64::from(case.result.schedule.stage_count()),
            );
            push_str_field(&mut body, "backend", "exact");
            push_u64_field(&mut body, "heuristic_ii", u64::from(case.heuristic_ii));
            push_bool_field(&mut body, "proven_optimal", case.result.proven_optimal);
            push_bool_field(&mut body, "refined", case.result.refined);
            push_u64_field(&mut body, "nodes", case.result.nodes);
            let regs = &case.result.regs;
            let _ = write!(
                body,
                ",\"regs\":[{},{},{}]",
                regs.rotating_gr, regs.rotating_fr, regs.rotating_pr
            );
            push_str_field(&mut body, "report", &render_exact_report(lp, &case));
            CachedResult {
                status: "ok",
                body: body.into(),
                upgraded: false,
            }
        }
        Err(violations) => {
            let mut body = String::new();
            push_str_field(&mut body, "op", "compile");
            push_str_field(&mut body, "loop", lp.name());
            push_str_field(&mut body, "backend", "exact");
            body.push_str(",\"violations\":[");
            for (i, v) in violations.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let line = format!("{}: violation [{}]: {v}", lp.name(), v.kind());
                let _ = write!(body, "\"{}\"", ltsp_telemetry::json::escape(&line));
            }
            body.push(']');
            CachedResult {
                status: "rejected",
                body: body.into(),
                upgraded: false,
            }
        }
    }
}

/// The compile configuration a refining request compiled under (the
/// same knobs the cold path used).
fn compile_config_of(req: &Request) -> CompileConfig {
    CompileConfig::new(req.policy)
        .with_threshold(req.threshold)
        .with_prefetch(req.prefetch)
        .with_balanced_recurrences(req.balanced)
        .with_data_speculation(req.speculate)
}

/// Processes one coalesced refinement batch: compute (or reuse) the
/// refined body *once* under its shared canonical key, then swap every
/// waiter's raw-request and tier body-key entries to it in place —
/// each insert replaces a whole `Arc`'d value, so readers observe
/// heuristic bytes or refined bytes, never a torn mix — and append the
/// upgrades under their keys so a warm restart replays the refined
/// bytes (last-writer-wins). All waiters share a dedup key, so the
/// first job's refinement inputs are the batch's.
fn refine_batch(sh: &RefineShared, jobs: &[RefineJob]) {
    let Some(first) = jobs.first() else { return };
    let req = &first.req;
    let Ok(lp) = parse_loop(&req.loop_text) else {
        // Unreachable in practice: the initial compiles parsed this text.
        sh.upgrades
            .failed
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        return;
    };
    let refined_key = match first.kind {
        RefineKind::Exact => exact_body_key(&sh.machine, &lp, req.budget, first.deadline_ms),
        RefineKind::Adaptive => {
            adaptive_body_key(&sh.machine, &lp, &compile_config_of(req), req.trip)
        }
    };
    let (refined, refined_hit) = sh.result_cache.get_or_insert_with(
        refined_key,
        |r| r.body.len() + 32,
        || match first.kind {
            RefineKind::Exact => {
                compute_exact_body(&sh.machine, &lp, req.budget, first.deadline_ms)
            }
            RefineKind::Adaptive => {
                compute_adaptive_body(&sh.machine, &lp, &compile_config_of(req), req)
            }
        },
    );
    if !refined_hit {
        append_record(
            sh.persist.as_deref(),
            &sh.persist_counters,
            refined_key,
            refined.status,
            &refined.body,
        );
    }
    if refined.status != "ok" {
        sh.upgrades
            .failed
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        return;
    }
    let strictly_refined = refined.body.contains("\"refined\":true");
    for job in jobs {
        let cfg = compile_config_of(&job.req);
        let tier_key = match job.kind {
            RefineKind::Exact => tiered_body_key(
                &sh.machine,
                &lp,
                &cfg,
                job.req.trip,
                job.req.budget,
                job.deadline_ms,
            ),
            RefineKind::Adaptive => adaptive_tier_body_key(&sh.machine, &lp, &cfg, job.req.trip),
        };
        let up = CachedResult {
            status: refined.status,
            body: refined.body.clone(),
            upgraded: true,
        };
        sh.result_cache.insert(
            job.raw_key,
            up.clone(),
            up.body.len() + job.req.loop_text.len() + 64,
        );
        let bytes = up.body.len() + 32;
        sh.result_cache.insert(tier_key, up, bytes);
        // Second appends under both keys: the in-place upgrade, durably.
        for key in [job.raw_key, tier_key] {
            append_record(
                sh.persist.as_deref(),
                &sh.persist_counters,
                key,
                refined.status,
                &refined.body,
            );
        }
        sh.upgrades.applied.fetch_add(1, Ordering::Relaxed);
        if strictly_refined {
            sh.upgrades.refined.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Maps a replayed status string back onto the engine's static status
/// vocabulary. Unknown strings (possible only via a hand-edited log)
/// degrade to `error` rather than inventing a status.
fn intern_status(s: &str) -> &'static str {
    match s {
        "ok" => "ok",
        "rejected" => "rejected",
        _ => "error",
    }
}

/// Best-effort loop name extraction for telemetry on requests that fail
/// before parsing completes: the token after the leading `loop` keyword.
fn loop_name_of(text: &str) -> String {
    let mut it = text.split_whitespace();
    match (it.next(), it.next()) {
        (Some("loop"), Some(name)) => name.trim_end_matches('{').to_string(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;
    use ltsp_telemetry::json;

    fn req(line: &str) -> Request {
        parse_request(line).unwrap()
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    fn loop_json(name: &str) -> String {
        json::escape(&ltsp_workloads::saxpy(name).to_string())
    }

    fn bool_of(v: &json::JsonValue, key: &str) -> bool {
        match v.get(key) {
            Some(json::JsonValue::Bool(b)) => *b,
            other => panic!("{key}: expected a bool, got {other:?}"),
        }
    }

    #[test]
    fn compile_misses_then_hits_with_identical_bytes() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"c1","loop":"{}"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        let warm = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok");
        assert_eq!(cold.cache, "miss");
        assert_eq!(warm.cache, "hit");
        assert_eq!(cold.body, warm.body, "hit body identical to cold body");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("compile"));
        assert!(v.get("ii").unwrap().as_u64().unwrap() >= 1);
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("pipelined: II="));
    }

    /// The daemon's two-step for a request read on an idle connection:
    /// probe, then either answer from what the probe found or queue.
    /// The probe cannot compile, and a probe that finds nothing leaves
    /// the miss to be counted by the handler that does the work.
    #[test]
    fn a_probe_answers_hits_and_leaves_misses_to_the_handler() {
        let e = engine();
        let tel = Telemetry::disabled();
        let r = req(&format!(
            r#"{{"op":"compile","id":"p1","loop":"{}"}}"#,
            loop_json("s")
        ));
        let key = e.request_key(&r).expect("compile requests are keyed");
        assert!(e.probe(key).is_none(), "nothing cached yet");
        assert_eq!(e.result_cache.stats().misses, 0, "absence is not a miss");

        let cold = e.handle_phased(&r, Route::Queued(Some(key)), &tel, &PhaseTimer::new());
        assert_eq!(cold.cache, "miss");
        let after_cold = e.result_cache.stats();
        assert_eq!(
            after_cold.misses, 2,
            "raw-request key + body key, once each"
        );

        let hit = e.probe(key).expect("cached now");
        let phases = PhaseTimer::new();
        let warm = e.handle_phased(&r, Route::Inline(hit), &tel, &phases);
        assert_eq!((warm.status, warm.cache), ("ok", "hit"));
        assert_eq!(warm.body, cold.body, "the probed entry is the cold bytes");
        assert_eq!(warm.render(), e.handle(&r, &tel).render());
        let after_warm = e.result_cache.stats();
        assert_eq!(after_warm.misses, after_cold.misses);
        assert_eq!(
            after_warm.hits,
            after_cold.hits + 2,
            "the probe, then handle"
        );
        assert_eq!(e.counters.served_inline.load(Ordering::Relaxed), 1);
        assert_eq!(
            phases.get_us(Phase::QueueWait),
            0,
            "an inline hit never queued"
        );
    }

    #[test]
    fn config_knobs_split_the_compile_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let a = format!(r#"{{"op":"compile","loop":"{}"}}"#, loop_json("s"));
        let b = format!(
            r#"{{"op":"compile","loop":"{}","policy":"baseline"}}"#,
            loop_json("s")
        );
        assert_eq!(e.handle(&req(&a), &tel).cache, "miss");
        assert_eq!(
            e.handle(&req(&b), &tel).cache,
            "miss",
            "policy changes the key"
        );
        assert_eq!(e.handle(&req(&a), &tel).cache, "hit");
    }

    #[test]
    fn verify_certifies_and_caches() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(r#"{{"op":"verify","loop":"{}"}}"#, loop_json("s"));
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok");
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("certified (II="));
        assert_eq!(v.get("violations").unwrap().as_array().unwrap().len(), 0);
        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "hit");
        assert_eq!(cold.body, warm.body);
    }

    #[test]
    fn oracle_reports_verdict_and_respects_zero_deadline() {
        let e = engine();
        let tel = Telemetry::disabled();
        // deadline_ms:0 = unlimited, so the node budget decides.
        let line = format!(
            r#"{{"op":"oracle","loop":"{}","budget":200000,"deadline_ms":0}}"#,
            loop_json("s")
        );
        let r = e.handle(&req(&line), &tel);
        assert_eq!(r.status, "ok", "{}", r.render());
        let v = json::parse(&r.render()).unwrap();
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("exact"));
        assert_eq!(v.get("gap").unwrap().as_u64(), Some(0));
    }

    /// A loop past the oracle's `max_insts` gate (24): the verdict is
    /// deterministically `BoundedUnknown` with zero search nodes.
    fn oversized_loop_json() -> String {
        let mut b = ltsp_ir::LoopBuilder::new("big");
        for k in 0..30u64 {
            let r = b.affine_ref(&format!("p{k}"), ltsp_ir::DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        json::escape(&b.build().unwrap().to_string())
    }

    #[test]
    fn oracle_beyond_proof_reach_is_rejected_not_hung() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"oracle","loop":"{}","deadline_ms":0}}"#,
            oversized_loop_json()
        );
        let r = e.handle(&req(&line), &tel);
        assert_eq!(r.status, "rejected");
        let v = json::parse(&r.render()).unwrap();
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("bounded-unknown"));
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("budget exhausted"));
    }

    #[test]
    fn oracle_budget_splits_the_result_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let a = format!(
            r#"{{"op":"oracle","loop":"{}","budget":200000,"deadline_ms":0}}"#,
            loop_json("s")
        );
        let b = format!(
            r#"{{"op":"oracle","loop":"{}","budget":7,"deadline_ms":0}}"#,
            loop_json("s")
        );
        assert_eq!(e.handle(&req(&a), &tel).cache, "miss");
        let rb = e.handle(&req(&b), &tel);
        assert_eq!(rb.cache, "miss", "budget changes the key");
        assert_eq!(e.handle(&req(&a), &tel).cache, "hit", "no cross-budget hit");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = engine();
        let tel = Telemetry::disabled();
        let r = e.handle(
            &req(r#"{"op":"compile","id":"x","loop":"loop b {\n  junk\n}"}"#),
            &tel,
        );
        assert_eq!(r.status, "error");
        let v = json::parse(&r.render()).unwrap();
        assert_eq!(v.get("error_kind").unwrap().as_str(), Some("syntax"));
        assert_eq!(v.get("line").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn requests_emit_trace_events_and_counters() {
        let e = engine();
        let tel = Telemetry::enabled();
        let line = format!(
            r#"{{"op":"verify","id":"t-9","loop":"{}"}}"#,
            loop_json("s")
        );
        e.handle(&req(&line), &tel);
        let events = tel.events();
        let ev = events
            .iter()
            .find(|e| e.event.kind() == "server_request")
            .expect("server_request event");
        let rendered = format!("{:?}", ev.event);
        assert!(rendered.contains("t-9"), "{rendered}");
        assert_eq!(e.counters.ok.load(Ordering::Relaxed), 1);
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(v.get("requests_ok").unwrap().as_u64(), Some(1));
        // A cold verify misses twice: once on the raw-request key, once
        // on the canonical verify key.
        assert_eq!(v.get("result_cache_misses").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn exact_backend_compiles_with_optimality_telemetry() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"x1","loop":"{}","backend":"exact"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok", "{}", cold.render());
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(v.get("backend").unwrap().as_str(), Some("exact"));
        assert!(bool_of(&v, "proven_optimal"));
        let ii = v.get("ii").unwrap().as_u64().unwrap();
        let heur = v.get("heuristic_ii").unwrap().as_u64().unwrap();
        assert!(ii <= heur, "exact II never above the heuristic's");
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("backend=exact"));
        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "hit");
        assert_eq!(cold.body, warm.body);
    }

    #[test]
    fn backend_splits_the_request_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let heur = format!(r#"{{"op":"compile","loop":"{}"}}"#, loop_json("s"));
        let exact = format!(
            r#"{{"op":"compile","loop":"{}","backend":"exact"}}"#,
            loop_json("s")
        );
        assert_eq!(e.handle(&req(&heur), &tel).cache, "miss");
        assert_eq!(
            e.handle(&req(&exact), &tel).cache,
            "miss",
            "backend changes the key"
        );
        assert_eq!(e.handle(&req(&heur), &tel).cache, "hit");
    }

    #[test]
    fn tiered_compile_answers_heuristically_then_upgrades_in_place() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"t1","loop":"{}","backend":"tiered"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok", "{}", cold.render());
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(
            v.get("backend").unwrap().as_str(),
            Some("tiered"),
            "initial answer is the heuristic tier"
        );
        assert!(!bool_of(&v, "refined"));

        e.refine_wait_idle();
        assert_eq!(e.upgrades.scheduled.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.applied.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.failed.load(Ordering::Relaxed), 0);

        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "upgraded", "hit on an upgraded entry");
        assert_ne!(warm.body, cold.body, "bytes were upgraded in place");
        let v = json::parse(&warm.render()).unwrap();
        assert_eq!(v.get("backend").unwrap().as_str(), Some("exact"));
        assert!(bool_of(&v, "proven_optimal"));

        // The upgraded bytes ARE the exact backend's bytes: a sync exact
        // request for the same loop returns the identical body.
        let exact_line = format!(
            r#"{{"op":"compile","id":"t2","loop":"{}","backend":"exact"}}"#,
            loop_json("s")
        );
        let exact = e.handle(&req(&exact_line), &tel);
        assert_eq!(exact.body, warm.body, "upgrade == exact, byte for byte");
    }

    #[test]
    fn tiered_upgrade_survives_warm_restart_with_zero_misses() {
        let dir =
            std::env::temp_dir().join(format!("ltsp-engine-tiered-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let cfg = || EngineConfig {
            persist_path: Some(path.clone()),
            ..EngineConfig::default()
        };
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"t1","loop":"{}","backend":"tiered"}}"#,
            loop_json("s")
        );
        let upgraded_body = {
            let e = Engine::new(cfg());
            e.handle(&req(&line), &tel);
            e.refine_wait_idle();
            let warm = e.handle(&req(&line), &tel);
            assert_eq!(warm.cache, "upgraded");
            warm.body
        };
        // Warm restart: replay must collapse the duplicate-key appends
        // to the upgraded bytes (last-writer-wins) and serve them as
        // hits — no recompiles, no resurrections of the heuristic body.
        let e = Engine::new(cfg());
        assert!(
            e.persist_counters.superseded.load(Ordering::Relaxed) >= 2,
            "raw and tiered keys were each appended twice"
        );
        let replayed = e.handle(&req(&line), &tel);
        assert_eq!(replayed.cache, "hit", "replayed entries serve as hits");
        assert_eq!(replayed.body, upgraded_body, "upgraded bytes replay");
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(
            v.get("result_cache_misses").unwrap().as_u64(),
            Some(0),
            "zero misses after a post-upgrade warm restart"
        );
    }

    #[test]
    fn mode_splits_the_request_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let stat = format!(r#"{{"op":"compile","loop":"{}"}}"#, loop_json("s"));
        let adpt = format!(
            r#"{{"op":"compile","loop":"{}","mode":"adaptive"}}"#,
            loop_json("s")
        );
        let rs = e.handle(&req(&stat), &tel);
        assert_eq!(rs.cache, "miss");
        // The adaptive request reuses the compiled artifact (a "hit")
        // but renders through its own keys: mode-stamped body, never
        // the static entry's bytes.
        let ra = e.handle(&req(&adpt), &tel);
        assert_ne!(ra.body, rs.body, "mode changes the key");
        assert!(ra.body.contains("\"mode\":\"adaptive\""));
        assert!(!rs.body.contains("\"mode\""));
        // And the refine worker's upgrade lands only on the adaptive
        // entries — the static bytes are untouched.
        e.refine_wait_idle();
        let rs2 = e.handle(&req(&stat), &tel);
        assert_eq!(rs2.cache, "hit");
        assert_eq!(rs2.body, rs.body, "static entry survives the upgrade");
        assert_eq!(e.handle(&req(&adpt), &tel).cache, "upgraded");
    }

    #[test]
    fn adaptive_compile_answers_statically_then_upgrades_in_place() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"a1","loop":"{}","mode":"adaptive"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok", "{}", cold.render());
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(
            v.get("mode").unwrap().as_str(),
            Some("adaptive"),
            "initial answer is stamped with the mode"
        );
        assert!(!bool_of(&v, "refined"), "first answer is the static tier");
        let static_ii = v.get("ii").unwrap().as_u64().unwrap();

        e.refine_wait_idle();
        assert_eq!(e.upgrades.scheduled.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.applied.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.failed.load(Ordering::Relaxed), 0);
        assert_eq!(e.upgrades.refined.load(Ordering::Relaxed), 1);

        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "upgraded", "hit on an upgraded entry");
        assert_ne!(warm.body, cold.body, "bytes were upgraded in place");
        let v = json::parse(&warm.render()).unwrap();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("adaptive"));
        assert!(
            bool_of(&v, "refined"),
            "converged schedule beat the static II"
        );
        assert!(
            bool_of(&v, "certified"),
            "every round was validator-certified"
        );
        assert!(bool_of(&v, "converged"));
        let adaptive_ii = v.get("ii").unwrap().as_u64().unwrap();
        assert!(adaptive_ii < static_ii, "{adaptive_ii} vs {static_ii}");
        let report = v.get("report").unwrap().as_str().unwrap();
        assert!(report.contains("mode=adaptive"), "{report}");
        assert!(report.contains("round 0: II="), "round trace in the report");
    }

    #[test]
    fn adaptive_upgrade_survives_warm_restart_with_zero_misses() {
        let dir = std::env::temp_dir().join(format!(
            "ltsp-engine-adaptive-restart-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let cfg = || EngineConfig {
            persist_path: Some(path.clone()),
            ..EngineConfig::default()
        };
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"a1","loop":"{}","mode":"adaptive"}}"#,
            loop_json("s")
        );
        let upgraded_body = {
            let e = Engine::new(cfg());
            e.handle(&req(&line), &tel);
            e.refine_wait_idle();
            let warm = e.handle(&req(&line), &tel);
            assert_eq!(warm.cache, "upgraded");
            warm.body
        };
        // Warm restart: the LWW replay collapses the duplicate-key
        // appends to the converged adaptive bytes and serves them as
        // hits — no recompiles, no resurrection of the static body.
        let e = Engine::new(cfg());
        assert!(
            e.persist_counters.superseded.load(Ordering::Relaxed) >= 2,
            "raw and adaptive-tier keys were each appended twice"
        );
        let replayed = e.handle(&req(&line), &tel);
        assert_eq!(replayed.cache, "hit", "replayed entries serve as hits");
        assert_eq!(replayed.body, upgraded_body, "adaptive bytes replay");
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(
            v.get("result_cache_misses").unwrap().as_u64(),
            Some(0),
            "zero misses after a post-upgrade warm restart"
        );
        let log_bytes = v.get("persist_log_bytes").unwrap().as_u64().unwrap();
        assert_eq!(
            log_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "the gauge tracks the on-disk log size"
        );
    }

    #[test]
    fn persist_warning_latches_once_past_the_threshold() {
        let dir =
            std::env::temp_dir().join(format!("ltsp-engine-persist-warn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let e = Engine::new(EngineConfig {
            persist_path: Some(path.clone()),
            persist_warn_bytes: Some(1), // any append crosses it
            ..EngineConfig::default()
        });
        let tel = Telemetry::disabled();
        assert!(
            !e.persist_warned.load(Ordering::Relaxed),
            "an empty log is under the threshold"
        );
        let line = |id: &str| {
            format!(
                r#"{{"op":"compile","id":"{id}","loop":"{}"}}"#,
                loop_json("s")
            )
        };
        e.handle(&req(&line("w1")), &tel);
        assert!(
            e.persist_warned.load(Ordering::Relaxed),
            "the first append past the threshold trips the warning"
        );
        // A generous threshold never warns.
        let _ = std::fs::remove_file(&path);
        let quiet = Engine::new(EngineConfig {
            persist_path: Some(path),
            persist_warn_bytes: Some(1 << 30),
            ..EngineConfig::default()
        });
        quiet.handle(&req(&line("w2")), &tel);
        assert!(!quiet.persist_warned.load(Ordering::Relaxed));
    }

    #[test]
    fn coalesced_refines_run_once_and_upgrade_every_waiter() {
        let e = engine();
        let tel = Telemetry::disabled();
        // Same loop text and budget, different trip estimates: distinct
        // raw and tiered keys, but one shared exact refinement.
        let a = format!(
            r#"{{"op":"compile","id":"c1","loop":"{}","backend":"tiered","trip":100}}"#,
            loop_json("s")
        );
        let b = format!(
            r#"{{"op":"compile","id":"c2","loop":"{}","backend":"tiered","trip":200}}"#,
            loop_json("s")
        );
        {
            let _gate = e.refine_pause();
            assert_eq!(e.handle(&req(&a), &tel).cache, "miss");
            assert_eq!(e.handle(&req(&b), &tel).cache, "miss");
        }
        e.refine_wait_idle();
        assert_eq!(
            e.upgrades.scheduled.load(Ordering::Relaxed),
            1,
            "one leader queued"
        );
        assert_eq!(
            e.upgrades.coalesced.load(Ordering::Relaxed),
            1,
            "the second request coalesced onto it"
        );
        assert_eq!(
            e.upgrades.applied.load(Ordering::Relaxed),
            2,
            "both waiters were upgraded"
        );
        assert_eq!(e.upgrades.failed.load(Ordering::Relaxed), 0);
        for line in [&a, &b] {
            let warm = e.handle(&req(line), &tel);
            assert_eq!(warm.cache, "upgraded", "{}", warm.render());
        }
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(v.get("upgrades_coalesced").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn loop_names_extract_for_telemetry() {
        assert_eq!(loop_name_of("loop saxpy {\n}"), "saxpy");
        assert_eq!(loop_name_of("loop x{ }"), "x");
        assert_eq!(loop_name_of("not a loop"), "");
    }
}

#[cfg(test)]
mod warmprof {
    use super::*;
    use crate::proto::parse_request;
    use ltsp_telemetry::Telemetry;

    #[test]
    #[ignore]
    fn warm_profile() {
        let mut b = ltsp_ir::LoopBuilder::new("syn0");
        let c0 = b.live_in_fr("c0");
        let c1 = b.live_in_fr("c1");
        for s in 0..3u64 {
            let x = b.affine_ref(
                &format!("x{s}[i]"),
                ltsp_ir::DataClass::Fp,
                (s + 1) << 24,
                8,
                8,
            );
            let v = b.load(x);
            let mut t = b.fma(c0, v, c1);
            for _ in 0..12 {
                t = b.fma(c0, t, c1);
                t = b.fmul(t, t);
            }
            let y = b.affine_ref(
                &format!("y{s}[i]"),
                ltsp_ir::DataClass::Fp,
                ((s + 1) << 24) + (1 << 20),
                8,
                8,
            );
            b.store(y, t);
        }
        let lp = b.build().unwrap();
        let text = lp.to_string();
        let line = format!(
            "{{\"op\":\"compile\",\"id\":\"p\",\"loop\":\"{}\"}}",
            ltsp_telemetry::json::escape(&text)
        );
        let tel = Telemetry::disabled();
        let engine = Engine::new(EngineConfig::default());
        let req = parse_request(&line).unwrap();
        let r = engine.handle(&req, &tel);
        eprintln!("body bytes: {}", r.body.len());
        let t0 = std::time::Instant::now();
        let n = 2000;
        for _ in 0..n {
            let req = parse_request(&line).unwrap();
            let _ = engine.handle(&req, &tel);
        }
        eprintln!("warm handle+parse: {:?}/iter", t0.elapsed() / n);
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            let _ = parse_request(&line).unwrap();
        }
        eprintln!("parse_request alone: {:?}/iter", t0.elapsed() / n);
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            let lp2 = ltsp_ir::parse_loop(&text).unwrap();
            std::hint::black_box(lp2.to_string());
        }
        eprintln!("loop parse+tostring: {:?}/iter", t0.elapsed() / n);
    }
}
