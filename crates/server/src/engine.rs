//! The request engine: the full compilation pipeline behind the wire
//! protocol, fronted by one content-addressed result cache.
//!
//! A cacheable request (`compile` / `verify` / `oracle`) is looked up
//! twice in that cache:
//!
//! 1. by its **raw request key** ([`Engine::request_key`]: the loop text
//!    byte for byte plus every knob), so a repeated request skips even
//!    the loop parse;
//! 2. on a miss, after the parse, by the **canonical key of its body**.
//!    A body has a kind — heuristic, exact, tiered, adaptive tier,
//!    adaptive, verify, oracle — and everything that differs between
//!    kinds is one row of the `BodyKind` table: the key's namespace tag
//!    and what it hashes, how the body is computed, the fields a tier
//!    answer is stamped with, and the kind the refine worker later
//!    upgrades it to. All kinds take one path (`Shared::body`):
//!    look up or compute, persist a newly computed body, tag the answer.
//!    Requests that differ only in formatting meet at this level.
//!
//! Heuristic-family computations additionally go through the core
//! crate's compiled-artifact cache ([`ltsp_core::CompileCache`]), which
//! shares one compile between the kinds that render it differently.
//!
//! Either way a hit returns bytes identical to what the cold path
//! produced, and a key covers every input that can change the answer, so
//! eviction can only ever cost time, never correctness. The `cache` tag
//! follows one rule at both levels: a found entry answers `upgraded` if
//! the refine worker has replaced its bytes, else `hit`; a computed body
//! answers `hit` if its compiled artifact was cached, else `miss`.
//!
//! The engine is `Sync`: the daemon calls [`Engine::handle`] from many
//! pool workers at once. Every response is a pure function of the
//! request, which is what keeps batch composition (and therefore
//! `--jobs`) out of the bytes on the wire. The request threads and the
//! refine worker share the caches, the persist log and the counters
//! ([`crate::counters`]) behind one `Arc`, and both reach a body through
//! the same path — so an upgrade's bytes are a sync request's bytes.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ltsp_adaptive::{compile_loop_adaptive, AdaptiveOptions};
use ltsp_cache::persist::CacheLog;
use ltsp_cache::{CacheConfig, Fingerprint, FingerprintHasher, ShardedLru};
use ltsp_core::{
    compile_loop_cached, new_compile_cache, CompileCache, CompileConfig, CompiledLoop,
};
use ltsp_ir::{parse_loop, LoopIr, ParseError};
use ltsp_machine::MachineModel;
use ltsp_oracle::{differential_case, exact_case, IiVerdict, OracleOptions, Violation};
use ltsp_telemetry::{
    lock_unpoisoned, prom, Event, Histogram, Observer, Phase, PhaseTimer, Telemetry,
};

use crate::counters::{Counter, Counters, Sampled};
use crate::flight::{FlightRecord, FlightRecorder};
use crate::proto::{
    push_bool_field, push_str_field, push_u64_field, Backend, Mode, ReqOp, Request, Response,
};
use crate::report::{render_adaptive_report, render_compile_report, render_exact_report};

/// A cached request outcome: the response status plus the body fragment
/// (everything after the envelope), and whether the entry was upgraded
/// in place by the refine worker (hits on upgraded entries report
/// `cache:"upgraded"`).
#[derive(Debug, Clone)]
struct CachedResult {
    status: &'static str,
    body: Arc<str>,
    upgraded: bool,
}

impl CachedResult {
    /// An entry as computed or replayed: not (yet) upgraded.
    fn new(status: &'static str, body: impl Into<Arc<str>>) -> CachedResult {
        CachedResult {
            status,
            body: body.into(),
            upgraded: false,
        }
    }
}

/// A first-level cache entry found by [`Engine::probe`]: enough to
/// answer the request it was probed for, nothing that could start a
/// compile.
#[derive(Debug)]
pub(crate) struct CacheHit {
    key: Fingerprint,
    entry: Arc<CachedResult>,
    /// What the probe cost, booked as the request's `cache_lookup`.
    lookup_us: u64,
}

/// How a request reached [`Engine::handle_routed`], which decides where
/// its first-level key comes from and which lifecycle phases it has.
#[derive(Debug)]
pub(crate) enum Route {
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

/// What a cached body is the answer to. Everything that differs between
/// kinds is in [`BodyKind::row`]; [`Shared::body`] is the one path all
/// of them take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyKind {
    /// The production pipeliner's compile.
    Heuristic,
    /// Branch-and-bound emission at the proven minimal II.
    Exact,
    /// The heuristic compile, as `backend:"tiered"` answers it first.
    Tiered,
    /// The heuristic compile, as `mode:"adaptive"` answers it first.
    AdaptiveTier,
    /// The adaptive feedback loop's converged compile.
    Adaptive,
    /// Pipeline plus independent validation.
    Verify,
    /// [`BodyKind::Verify`] plus the exact-II proof.
    Oracle,
}

/// What a body key hashes after its tag.
enum KeyBase {
    /// [`ltsp_core::compile_key`]: the canonical loop, the machine, the
    /// whole compile configuration and the trip estimate.
    Compile,
    /// The canonical loop and the machine — an answer no compile knob
    /// changes.
    Loop,
}

/// One kind's row.
struct KindRow {
    /// The key's namespace. No two kinds share one: an in-place upgrade
    /// swaps a tier entry's bytes and must never reach another kind's.
    tag: &'static str,
    base: KeyBase,
    /// Whether the node budget and the effective deadline bound the
    /// computation, and are therefore part of the key.
    budgeted: bool,
    /// Computes the status and body fragment on a miss.
    compute: fn(&Shared, &Work) -> (&'static str, String),
    /// The field a tier's answer is stamped with, followed by
    /// `"refined":false`, so clients can tell which tier they got.
    stamp: Option<(&'static str, &'static str)>,
    /// The kind the refine worker upgrades this one to, in place.
    refines_to: Option<BodyKind>,
}

impl BodyKind {
    fn row(self) -> KindRow {
        match self {
            BodyKind::Heuristic => KindRow {
                tag: "compile-body-v1",
                base: KeyBase::Compile,
                budgeted: false,
                compute: Shared::heuristic_body,
                stamp: None,
                refines_to: None,
            },
            BodyKind::Exact => KindRow {
                tag: "compile-body-exact-v1",
                base: KeyBase::Loop,
                budgeted: true,
                compute: Shared::exact_body,
                stamp: None,
                refines_to: None,
            },
            BodyKind::Tiered => KindRow {
                tag: "compile-body-tiered-v1",
                base: KeyBase::Compile,
                budgeted: true,
                compute: Shared::heuristic_body,
                stamp: Some(("backend", "tiered")),
                refines_to: Some(BodyKind::Exact),
            },
            // No budget or deadline in either adaptive key: the loop
            // runs a fixed deterministic refinement window, not a search.
            BodyKind::AdaptiveTier => KindRow {
                tag: "compile-body-adaptive-tier-v1",
                base: KeyBase::Compile,
                budgeted: false,
                compute: Shared::heuristic_body,
                stamp: Some(("mode", "adaptive")),
                refines_to: Some(BodyKind::Adaptive),
            },
            BodyKind::Adaptive => KindRow {
                tag: "compile-body-adaptive-v1",
                base: KeyBase::Compile,
                budgeted: false,
                compute: Shared::adaptive_body,
                stamp: None,
                refines_to: None,
            },
            BodyKind::Verify => KindRow {
                tag: "verify-v1",
                base: KeyBase::Loop,
                budgeted: false,
                compute: Shared::case_body,
                stamp: None,
                refines_to: None,
            },
            BodyKind::Oracle => KindRow {
                tag: "oracle-v1",
                base: KeyBase::Loop,
                budgeted: true,
                compute: Shared::case_body,
                stamp: None,
                refines_to: None,
            },
        }
    }

    /// The kind of body a cacheable request asks for. `mode:"adaptive"`
    /// layers on the heuristic backend only; `parse_request` refuses the
    /// other combinations, and a hand-built request gets the same
    /// answer here.
    fn of(req: &Request) -> Result<BodyKind, &'static str> {
        Ok(match (req.op, req.mode, req.backend) {
            (ReqOp::Verify, ..) => BodyKind::Verify,
            (ReqOp::Oracle, ..) => BodyKind::Oracle,
            (_, Mode::Adaptive, Backend::Heuristic) => BodyKind::AdaptiveTier,
            (_, Mode::Adaptive, _) => return Err("mode 'adaptive' requires the heuristic backend"),
            (_, Mode::Static, Backend::Heuristic) => BodyKind::Heuristic,
            (_, Mode::Static, Backend::Exact) => BodyKind::Exact,
            (_, Mode::Static, Backend::Tiered) => BodyKind::Tiered,
        })
    }
}

/// What one body computation works on: the request, its parsed loop,
/// the compile configuration and effective deadline its knobs resolve
/// to (once), and where time and telemetry are reported.
struct Work<'a> {
    req: &'a Request,
    lp: &'a LoopIr,
    cfg: CompileConfig,
    deadline_ms: Option<u64>,
    obs: Observer<'a>,
    /// Set by a computation that found its compiled artifact cached.
    artifact_hit: Cell<bool>,
}

/// One queued refinement: the cold request to refine, its raw request
/// key, the tier kind it was answered with and the kind that refines to.
struct RefineJob {
    raw_key: Fingerprint,
    tier: BodyKind,
    refined: BodyKind,
    req: Request,
}

/// In-flight refinement batches, keyed by [`Shared::dedup_key`]: the
/// leader (first job under a key) owns the queue slot; followers append
/// themselves as waiters. The worker removes the whole entry *before*
/// computing, so every waiter present at that point shares one
/// computation and later arrivals become fresh leaders.
type RefineInflight = Mutex<HashMap<Fingerprint, Vec<RefineJob>>>;

/// What the request threads and the refine worker share.
struct Shared {
    machine: MachineModel,
    /// The machine's part of every [`KeyBase::Loop`] key.
    machine_fp: Fingerprint,
    compile_cache: CompileCache,
    result_cache: ShardedLru<CachedResult>,
    /// The disk tier behind `result_cache` (`None` = in-memory only).
    persist: Option<CacheLog>,
    cfg: EngineConfig,
    counters: Counters,
    /// Latch so the persist-size warning fires once, not per append.
    persist_warned: AtomicBool,
    /// In-flight refinement batches (dedup key → waiters).
    refine_inflight: RefineInflight,
    /// Outstanding refinement jobs (waiters, not batches), for
    /// [`Engine::refine_wait_idle`].
    refine_pending: (Mutex<u64>, Condvar),
    /// Held by the worker across each batch's pop-and-process. Tests
    /// grab it to deterministically coalesce followers onto an already
    /// queued leader; uncontended otherwise.
    refine_gate: Mutex<()>,
}

/// The shared, thread-safe request engine.
pub struct Engine {
    core: Arc<Shared>,
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
}

impl Engine {
    /// Builds an engine for the Itanium 2 machine model. When
    /// [`EngineConfig::persist_path`] is set, the log is replayed into
    /// the result cache *before* the engine is handed to any caller, so
    /// the very first request can hit warm. An unopenable log is loud
    /// but non-fatal — the engine degrades to in-memory-only caching.
    pub fn new(cfg: EngineConfig) -> Engine {
        let result_cache = ShardedLru::new(CacheConfig {
            byte_budget: cfg.result_cache_bytes,
            ..CacheConfig::default()
        });
        let counters = Counters::default();
        let persist = cfg
            .persist_path
            .as_ref()
            .and_then(|path| match CacheLog::open(path) {
                Ok((log, report)) => {
                    // Last-writer-wins: an in-place upgrade is a second
                    // append under the same key, and a warm restart must
                    // serve the upgraded bytes, never the superseded ones.
                    let live = report.last_writer_wins();
                    counters.set(Counter::PersistReplayed, live.len() as u64);
                    counters.set(Counter::PersistSuperseded, report.superseded());
                    counters.set(Counter::PersistDropped, report.dropped);
                    for rec in live {
                        let bytes = rec.body.len() + 64;
                        let entry = CachedResult::new(intern_status(&rec.status), &*rec.body);
                        result_cache.insert(rec.key, entry, bytes);
                    }
                    Some(log)
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
        let core = Arc::new(Shared {
            machine_fp: Fingerprint::of_str(&format!("{machine:?}")),
            machine,
            compile_cache: new_compile_cache(cfg.compile_cache_bytes),
            result_cache,
            persist,
            cfg,
            counters,
            persist_warned: AtomicBool::new(false),
            refine_inflight: Mutex::new(HashMap::new()),
            refine_pending: (Mutex::new(0), Condvar::new()),
            refine_gate: Mutex::new(()),
        });
        let (tx, rx) = mpsc::channel::<Fingerprint>();
        let worker = Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("ltspd-refine".to_string())
            .spawn(move || worker.refine_loop(&rx))
            .expect("spawn refinement worker");
        Engine {
            flight: FlightRecorder::new(core.cfg.flight_len, core.cfg.flight_dir.clone()),
            core,
            phase_hists: Mutex::new(BTreeMap::new()),
            refine_tx: Mutex::new(Some(tx)),
            refine_handle: Mutex::new(Some(handle)),
        }
    }

    /// The counters the engine, its refine worker and the daemon's
    /// threads keep (see [`crate::counters`]).
    pub(crate) fn counters(&self) -> &Counters {
        &self.core.counters
    }

    /// Test hook: while the returned guard is held, the refine worker
    /// stalls before popping its next batch, so further requests with
    /// the same refinement inputs deterministically coalesce onto the
    /// queued leader.
    #[cfg(test)]
    fn refine_pause(&self) -> std::sync::MutexGuard<'_, ()> {
        lock_unpoisoned(&self.core.refine_gate)
    }

    /// Blocks until every scheduled refinement has completed (tests and
    /// drain use this to make upgrade effects observable deterministically).
    pub fn refine_wait_idle(&self) {
        let (lock, cv) = &self.core.refine_pending;
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
        self.handle_routed(req, Route::Direct, tel, &PhaseTimer::new())
    }

    /// [`Engine::handle`] for a request that arrived by `route`,
    /// against a caller-owned [`PhaseTimer`] (the daemon pre-loads
    /// `queue_wait`/`dispatch` before calling). Records total handler
    /// time, feeds the per-phase histograms and the flight recorder,
    /// and — when the request opted in with `"timings":true` — attaches
    /// the breakdown to the response envelope.
    pub(crate) fn handle_routed(
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
                self.counters().add(Counter::ServedInline, 1);
                phases.add_us(Phase::CacheLookup, hit.lookup_us);
                hit_response(req, &hit.entry)
            }
            (_, ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle) => {
                let key = key.expect("cacheable ops have a request key");
                self.cached_response(req, key, tel, phases)
            }
            (_, ReqOp::Ping) => Response::new(&req.id, "ok", "-", ",\"op\":\"ping\""),
            (_, ReqOp::Stats) => {
                let mut body = String::new();
                push_str_field(&mut body, "op", "stats");
                self.counters().push_stats(&self.sampled(), &mut body);
                Response::new(&req.id, "ok", "-", body)
            }
            // The Prometheus text snapshot escaped into a string field.
            // Bypasses every cache (like `stats`) and is excluded from
            // the determinism contract.
            (_, ReqOp::Metrics) => {
                let mut body = String::new();
                push_str_field(&mut body, "op", "metrics");
                push_str_field(&mut body, "metrics", &self.render_prometheus());
                Response::new(&req.id, "ok", "-", body)
            }
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
        let record = FlightRecord::capture(req, key, resp.status, resp.cache, phases);
        self.flight.record(record);
    }

    /// Records a single out-of-band phase sample (whoever writes a
    /// response to its socket books `write` time here, after the
    /// response envelope is sealed).
    pub(crate) fn record_phase_sample(&self, phase: Phase, us: u64) {
        lock_unpoisoned(&self.phase_hists)
            .entry(phase.name())
            .or_default()
            .record(us);
    }

    /// The first-level cache key of a request, or `None` for ops that
    /// bypass the result cache: the *raw* request content (loop text
    /// byte-for-byte plus every knob), so a hit skips even the loop
    /// parse. The daemon computes it once, where the request is read,
    /// and uses it to probe for a hit on the spot (`Engine::probe`),
    /// to hand the request on (`Route::Queued`), and to dedupe
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
        hash_compile_knobs(&mut h, req);
        h.write_u64(req.budget);
        h.write_u64(deadline_word(self.core.effective_deadline_ms(req)));
        Some(h.finish())
    }

    /// Looks a first-level key up without being able to start a
    /// compile: a present entry is a counted hit the caller answers
    /// through [`Route::Inline`]; absence counts nothing, because the
    /// caller then queues the request and the handler's own lookup is
    /// the one miss it is.
    pub(crate) fn probe(&self, key: Fingerprint) -> Option<CacheHit> {
        let t0 = Instant::now();
        let entry = self.core.result_cache.probe(key)?;
        Some(CacheHit {
            key,
            entry,
            lookup_us: t0.elapsed().as_micros() as u64,
        })
    }

    /// First-level cache in front of the pipeline. A miss falls through
    /// to the request's body ([`Shared::answer`]), whose canonical key
    /// still deduplicates requests that differ only in formatting.
    /// Responses are pure functions of their requests, so caching the
    /// whole outcome (including error outcomes) is sound.
    fn cached_response(
        &self,
        req: &Request,
        key: Fingerprint,
        tel: &Telemetry,
        phases: &PhaseTimer,
    ) -> Response {
        let inner_tag = Cell::new("miss");
        let t0 = Instant::now();
        let (cached, hit) = self.core.result_cache.get_or_insert_with(
            key,
            |r| r.body.len() + req.loop_text.len() + 64,
            || {
                let resp = self.core.answer(req, tel, phases);
                inner_tag.set(resp.cache);
                CachedResult::new(resp.status, resp.body)
            },
        );
        if hit {
            // On a miss the probe time is dwarfed by (and attributed to)
            // the compile phases the closure just ran.
            phases.add_us(Phase::CacheLookup, t0.elapsed().as_micros() as u64);
            return hit_response(req, &cached);
        }
        self.core.persist_append(key, cached.status, &cached.body);
        // A cold request answered with a tier's heuristic schedule:
        // queue the async refinement, which upgrades this entry (and
        // the tier body entry) in place when it lands.
        if let (Ok(tier), "ok") = (BodyKind::of(req), cached.status) {
            if let Some(refined) = tier.row().refines_to {
                self.schedule_refine(RefineJob {
                    raw_key: key,
                    tier,
                    refined,
                    req: req.clone(),
                });
            }
        }
        let body = Arc::clone(&cached.body);
        Response::new(&req.id, cached.status, inner_tag.get(), body)
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
    fn schedule_refine(&self, job: RefineJob) {
        let sh = &*self.core;
        let dedup_key = sh.dedup_key(job.refined, &job.req);
        let (lock, cv) = &sh.refine_pending;
        {
            let mut inflight = lock_unpoisoned(&sh.refine_inflight);
            if let Some(waiters) = inflight.get_mut(&dedup_key) {
                waiters.push(job);
                drop(inflight);
                sh.counters.add(Counter::UpgradesCoalesced, 1);
                *lock_unpoisoned(lock) += 1;
                return;
            }
            inflight.insert(dedup_key, vec![job]);
        }
        sh.counters.add(Counter::UpgradesScheduled, 1);
        *lock_unpoisoned(lock) += 1;
        let sent = lock_unpoisoned(&self.refine_tx)
            .as_ref()
            .is_some_and(|tx| tx.send(dedup_key).is_ok());
        if !sent {
            // Shutdown race: reclaim the batch (the leader plus any
            // follower that squeezed in) — nobody will process it.
            let reclaimed = lock_unpoisoned(&sh.refine_inflight)
                .remove(&dedup_key)
                .map_or(0, |w| w.len() as u64);
            sh.counters.add(Counter::UpgradesFailed, 1);
            *lock_unpoisoned(lock) -= reclaimed;
            cv.notify_all();
        }
    }

    /// Tallies and traces a response (also used by the daemon for
    /// admission-path responses: overloaded / draining / parse errors).
    pub fn finish(&self, req: &Request, resp: Response, tel: &Telemetry) -> Response {
        self.tally(&req.id, req.op.tag(), &req.loop_text, resp, tel)
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
        self.tally(trace_id, op, "", resp, tel)
    }

    fn tally(
        &self,
        trace_id: &str,
        op: &'static str,
        loop_text: &str,
        resp: Response,
        tel: &Telemetry,
    ) -> Response {
        self.counters().count_response(resp.status);
        if tel.is_enabled() {
            tel.emit(Event::ServerRequest {
                trace_id: trace_id.to_string(),
                op,
                status: resp.status,
                cache: resp.cache,
                loop_name: loop_name_of(loop_text),
            });
        }
        resp
    }

    /// What the counter table samples rather than owns, as of now.
    fn sampled(&self) -> Sampled {
        Sampled {
            compile: self.core.compile_cache.stats(),
            result: self.core.result_cache.stats(),
            log_bytes: self.core.persist.as_ref().map_or(0, CacheLog::log_bytes),
            flight_records: self.flight.len() as u64,
            flight_dumps: self.flight.dump_count(),
        }
    }

    /// Exports both caches' counters and the request tallies into
    /// `tel`'s metrics registry.
    pub fn export_metrics(&self, tel: &Telemetry) {
        let sh = &self.core;
        sh.compile_cache.export_metrics(tel, "serve.compile_cache");
        sh.result_cache.export_metrics(tel, "serve.result_cache");
        sh.counters.export(&self.sampled(), tel);
    }

    /// The full operational snapshot in Prometheus text format: request
    /// counters by status, cache counters and sizes, live gauges, chaos
    /// counters, and the per-phase latency histograms (cumulative
    /// `le` buckets in microseconds).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.counters().push_prometheus(&self.sampled(), &mut out);
        let family = "ltsp_phase_us";
        prom::push_type(&mut out, family, "histogram");
        let hists = lock_unpoisoned(&self.phase_hists);
        for (name, h) in hists.iter() {
            prom::push_histogram(&mut out, family, &[("phase", name)], h);
        }
        out
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.refine_shutdown();
    }
}

impl Shared {
    /// Appends a freshly computed result to the disk tier (no-op without
    /// one). Failures are counted and logged once — durability is
    /// best-effort, correctness never depends on it. Every append, from
    /// a request thread or the refine worker, also checks the operator
    /// tripwire behind `--persist-warn-mb`: one loud line the first time
    /// the append-only log crosses the threshold (the log-size gauge
    /// keeps reporting after that).
    fn persist_append(&self, key: Fingerprint, status: &str, body: &str) {
        let Some(log) = &self.persist else { return };
        match log.append(key, status, body) {
            Ok(()) => {
                self.counters.add(Counter::PersistAppended, 1);
            }
            Err(e) => {
                if self.counters.add(Counter::PersistAppendErrors, 1) == 0 {
                    eprintln!(
                        "ltspd: persist append to {} failed: {e} (cache stays in-memory)",
                        log.path().display()
                    );
                }
            }
        }
        let Some(limit) = self.cfg.persist_warn_bytes else {
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

    /// A cacheable request's answer from below the first-level cache:
    /// the parse, then the body of the kind it asks for.
    fn answer(&self, req: &Request, tel: &Telemetry, phases: &PhaseTimer) -> Response {
        let kind = match BodyKind::of(req) {
            Ok(kind) => kind,
            Err(refusal) => return Response::error(&req.id, "error", refusal),
        };
        let lp = match phases.time(Phase::Parse, || parse_loop(&req.loop_text)) {
            Ok(lp) => lp,
            Err(e) => {
                let mut body = String::new();
                push_str_field(&mut body, "op", req.op.tag());
                match e {
                    ParseError::Syntax { line, message } => {
                        push_str_field(&mut body, "error_kind", "syntax");
                        push_u64_field(&mut body, "line", line as u64);
                        push_str_field(&mut body, "error", &message);
                    }
                    ParseError::Invalid(e) => {
                        push_str_field(&mut body, "error_kind", "invalid");
                        push_str_field(&mut body, "error", &e.to_string());
                    }
                }
                return Response::new(&req.id, "error", "-", body);
            }
        };
        let obs = Observer::new(tel, Some(phases));
        let (entry, tag) = self.body(kind, &self.work(req, &lp, obs));
        Response::new(&req.id, entry.status, tag, Arc::clone(&entry.body))
    }

    fn work<'a>(&self, req: &'a Request, lp: &'a LoopIr, obs: Observer<'a>) -> Work<'a> {
        Work {
            req,
            lp,
            cfg: CompileConfig::new(req.policy)
                .with_threshold(req.threshold)
                .with_prefetch(req.prefetch)
                .with_balanced_recurrences(req.balanced)
                .with_data_speculation(req.speculate),
            deadline_ms: self.effective_deadline_ms(req),
            obs,
            artifact_hit: Cell::new(false),
        }
    }

    /// The canonical cache key of `w`'s body of `kind`, as the kind's
    /// row spells it.
    fn body_key(&self, kind: BodyKind, w: &Work) -> Fingerprint {
        let row = kind.row();
        let mut h = FingerprintHasher::new();
        h.write_str(row.tag);
        match row.base {
            KeyBase::Compile => h.write_fingerprint(ltsp_core::compile_key(
                w.lp,
                &self.machine,
                &w.cfg,
                w.req.trip,
            )),
            KeyBase::Loop => {
                h.write_str(&w.lp.to_string());
                h.write_fingerprint(self.machine_fp);
            }
        }
        if row.budgeted {
            h.write_u64(w.req.budget);
            h.write_u64(deadline_word(w.deadline_ms));
        }
        h.finish()
    }

    /// The one path to a cached body, for every kind and for request
    /// threads and the refine worker alike: look the canonical key up,
    /// compute (and stamp) on a miss, persist what was computed — under
    /// the canonical key too, so a formatting variant of a known loop
    /// replays to a parse-then-hit after restart, not a recompile — and
    /// tag the answer by the module's one rule.
    fn body(&self, kind: BodyKind, w: &Work) -> (Arc<CachedResult>, &'static str) {
        let row = kind.row();
        let key = self.body_key(kind, w);
        let (entry, hit) = self.result_cache.get_or_insert_with(
            key,
            |r| r.body.len() + 32,
            || {
                let (status, mut body) = (row.compute)(self, w);
                if let Some((field, value)) = row.stamp {
                    push_str_field(&mut body, field, value);
                    push_bool_field(&mut body, "refined", false);
                }
                CachedResult::new(status, body)
            },
        );
        if !hit {
            self.persist_append(key, entry.status, &entry.body);
        }
        let tag = match (hit, entry.upgraded) {
            (true, true) => "upgraded",
            (true, false) => "hit",
            (false, _) if w.artifact_hit.get() => "hit",
            (false, _) => "miss",
        };
        (entry, tag)
    }

    /// The production pipeliner's compile, through the artifact cache
    /// (which deduplicates the compile itself; the rendered body —
    /// kernel dump plus JSON escaping, the bulk of the per-hit cost for
    /// large kernels — is what [`Shared::body`] caches).
    fn heuristic_body(&self, w: &Work) -> (&'static str, String) {
        let (compiled, hit) = compile_loop_cached(
            &self.compile_cache,
            w.lp,
            &self.machine,
            &w.cfg,
            w.req.trip,
            w.obs,
        );
        w.artifact_hit.set(hit);
        let render = || {
            let mut body = String::new();
            push_compiled_facts(&mut body, &compiled);
            let report = render_compile_report(&compiled, w.req.policy, w.req.trip);
            push_str_field(&mut body, "report", &report);
            ("ok", body)
        };
        // Rendering is serving, not compiling: timed, never traced.
        match w.obs.phases {
            Some(t) => t.time(Phase::Render, render),
            None => render(),
        }
    }

    /// Runs the adaptive refinement loop to its certified fixpoint and
    /// renders the converged compile body: the chosen schedule's facts
    /// plus the adaptive telemetry (`static_ii`, `rounds`,
    /// `chosen_round`, `converged`, `certified`, `dropped_prefetches`,
    /// `refined`) and the canonical [`render_adaptive_report`] text —
    /// the same renderer `ltspc compile --adaptive` prints through, so
    /// the upgraded server bytes and the local CLI report agree by
    /// construction. An uncertified round (a scheduler bug by
    /// definition) renders as `rejected`, and the fast static tier
    /// stays in place.
    fn adaptive_body(&self, w: &Work) -> (&'static str, String) {
        let res = compile_loop_adaptive(
            w.lp,
            &self.machine,
            &w.cfg,
            w.req.trip,
            &AdaptiveOptions::default(),
            w.obs.tel,
        );
        let certified = res.all_certified();
        let mut body = String::new();
        push_compiled_facts(&mut body, &res.compiled);
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
        let report = render_adaptive_report(&res, w.req.policy, w.req.trip);
        push_str_field(&mut body, "report", &report);
        (if certified { "ok" } else { "rejected" }, body)
    }

    /// Runs the exact backend and renders the compile body it produces:
    /// the emitted schedule's facts plus the refinement telemetry
    /// (`heuristic_ii`, `proven_optimal`, `refined`, `nodes`). A
    /// rejected case (validator violations — a real bug somewhere)
    /// renders the violations like the oracle op does.
    fn exact_body(&self, w: &Work) -> (&'static str, String) {
        let opts = OracleOptions {
            node_budget: w.req.budget,
            time_budget: w.deadline_ms.map(Duration::from_millis),
            ..OracleOptions::default()
        };
        let mut body = String::new();
        push_str_field(&mut body, "op", "compile");
        match exact_case(w.lp, &self.machine, &opts) {
            Ok(case) => {
                let r = &case.result;
                push_str_field(&mut body, "loop", &case.name);
                // A refined schedule is a genuine modulo schedule even when
                // the heuristic had fallen back to the acyclic path.
                push_bool_field(&mut body, "pipelined", case.pipelined || r.refined);
                push_u64_field(&mut body, "ii", u64::from(r.schedule.ii()));
                push_u64_field(&mut body, "stages", u64::from(r.schedule.stage_count()));
                push_str_field(&mut body, "backend", "exact");
                push_u64_field(&mut body, "heuristic_ii", u64::from(case.heuristic_ii));
                push_bool_field(&mut body, "proven_optimal", r.proven_optimal);
                push_bool_field(&mut body, "refined", r.refined);
                push_u64_field(&mut body, "nodes", r.nodes);
                let regs = &r.regs;
                push_regs(
                    &mut body,
                    [regs.rotating_gr, regs.rotating_fr, regs.rotating_pr],
                );
                push_str_field(&mut body, "report", &render_exact_report(w.lp, &case));
                ("ok", body)
            }
            Err(violations) => {
                push_str_field(&mut body, "loop", w.lp.name());
                push_str_field(&mut body, "backend", "exact");
                push_violations(&mut body, w.lp.name(), &violations);
                ("rejected", body)
            }
        }
    }

    /// Verify and oracle share shape: pipeline + independent validation,
    /// oracle adds the exact-II proof.
    fn case_body(&self, w: &Work) -> (&'static str, String) {
        use std::fmt::Write as _;
        let oracle = w.req.op == ReqOp::Oracle;
        let opts = OracleOptions {
            node_budget: if oracle {
                w.req.budget
            } else {
                OracleOptions::default().node_budget
            },
            time_budget: w.deadline_ms.map(Duration::from_millis),
            ..OracleOptions::default()
        };
        let r = differential_case(w.lp, &self.machine, &opts, w.obs.tel);
        let mut body = String::new();
        push_str_field(&mut body, "op", w.req.op.tag());
        push_str_field(&mut body, "loop", &r.name);
        push_bool_field(&mut body, "pipelined", r.pipelined);
        push_u64_field(&mut body, "ii", u64::from(r.heuristic_ii));
        push_violations(&mut body, &r.name, &r.violations);
        let mut report = String::new();
        let certified = r.violations.is_empty();
        let mut status: &'static str = if certified { "ok" } else { "rejected" };
        if !oracle {
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
        (status, body)
    }

    /// The key identical refinement *work* coalesces under: two
    /// in-flight jobs with the same dedup key compute the same refined
    /// body, so the second one waits on the first's batch instead of
    /// scheduling the computation twice. Covers the inputs of the
    /// `refined` kind's key as its row names them — the raw loop text
    /// (no parse on the request path) and the deadline always, the
    /// budget where one bounds the search, the compile knobs where the
    /// key is a compile key — so trip or policy variants of a tiered
    /// request share one exact schedule, and adaptive ones do not.
    fn dedup_key(&self, refined: BodyKind, req: &Request) -> Fingerprint {
        let row = refined.row();
        let mut h = FingerprintHasher::new();
        h.write_str(row.tag);
        h.write_str(&req.loop_text);
        h.write_u64(deadline_word(self.effective_deadline_ms(req)));
        if row.budgeted {
            h.write_u64(req.budget);
        }
        if matches!(row.base, KeyBase::Compile) {
            hash_compile_knobs(&mut h, req);
        }
        h.finish()
    }

    /// The refine worker: one coalesced batch per message, until the
    /// engine drops the sender.
    fn refine_loop(&self, rx: &mpsc::Receiver<Fingerprint>) {
        while let Ok(dedup_key) = rx.recv() {
            // Pop the whole waiter batch under the gate, before
            // computing: every waiter present now shares one
            // refinement; a request arriving after the pop finds
            // no in-flight entry and becomes a fresh leader.
            let _gate = lock_unpoisoned(&self.refine_gate);
            let waiters = lock_unpoisoned(&self.refine_inflight)
                .remove(&dedup_key)
                .unwrap_or_default();
            // A panicking refinement must not strand waiters or
            // kill the worker: contain it, count it, move on.
            let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.refine_batch(&waiters)
            }));
            if contained.is_err() {
                self.counters.add(Counter::UpgradesFailed, 1);
            }
            let (lock, cv) = &self.refine_pending;
            *lock_unpoisoned(lock) -= waiters.len() as u64;
            cv.notify_all();
        }
    }

    /// Processes one coalesced refinement batch: compute (or reuse) the
    /// refined body *once* — [`Shared::body`] of the kind the waiters'
    /// tier refines to — then swap every waiter's raw-request and tier
    /// body-key entries to it in place — each insert replaces a whole
    /// `Arc`'d value, so readers observe heuristic bytes or refined
    /// bytes, never a torn mix — and append the upgrades under their
    /// keys so a warm restart replays the refined bytes
    /// (last-writer-wins). All waiters share a dedup key, so the first
    /// job's refinement inputs are the batch's.
    fn refine_batch(&self, jobs: &[RefineJob]) {
        let Some(first) = jobs.first() else { return };
        let failed = || {
            self.counters
                .add(Counter::UpgradesFailed, jobs.len() as u64)
        };
        let Ok(lp) = parse_loop(&first.req.loop_text) else {
            // Unreachable in practice: the initial compiles parsed this text.
            failed();
            return;
        };
        let obs = Observer::disabled();
        let (refined, _) = self.body(first.refined, &self.work(&first.req, &lp, obs));
        if refined.status != "ok" {
            failed();
            return;
        }
        let strictly_refined = refined.body.contains("\"refined\":true");
        for job in jobs {
            let tier_key = self.body_key(job.tier, &self.work(&job.req, &lp, obs));
            let up = CachedResult {
                status: refined.status,
                body: refined.body.clone(),
                upgraded: true,
            };
            self.result_cache.insert(
                job.raw_key,
                up.clone(),
                up.body.len() + job.req.loop_text.len() + 64,
            );
            let bytes = up.body.len() + 32;
            self.result_cache.insert(tier_key, up, bytes);
            // Second appends under both keys: the in-place upgrade, durably.
            for key in [job.raw_key, tier_key] {
                self.persist_append(key, refined.status, &refined.body);
            }
            self.counters.add(Counter::UpgradesApplied, 1);
            if strictly_refined {
                self.counters.add(Counter::UpgradesRefined, 1);
            }
        }
    }
}

/// The answer to `req` from its first-level cache entry — the one
/// place a hit's envelope is put together, whichever thread found it.
fn hit_response(req: &Request, entry: &CachedResult) -> Response {
    let cache = if entry.upgraded { "upgraded" } else { "hit" };
    Response::new(&req.id, entry.status, cache, Arc::clone(&entry.body))
}

/// How an effective deadline is hashed into a key (`None` = unlimited).
fn deadline_word(deadline_ms: Option<u64>) -> u64 {
    deadline_ms.unwrap_or(u64::MAX)
}

/// Hashes the knobs a request's [`CompileConfig`] and trip estimate are
/// built from.
fn hash_compile_knobs(h: &mut FingerprintHasher, req: &Request) {
    h.write_str(&req.policy.to_string());
    h.write_f64(req.trip);
    h.write_u64(u64::from(req.threshold));
    h.write_u64(
        u64::from(req.prefetch) | u64::from(req.balanced) << 1 | u64::from(req.speculate) << 2,
    );
}

/// The facts every body rendered from a [`CompiledLoop`] opens with.
fn push_compiled_facts(body: &mut String, compiled: &CompiledLoop) {
    push_str_field(body, "op", "compile");
    push_str_field(body, "loop", compiled.lp.name());
    push_bool_field(body, "pipelined", compiled.pipelined);
    push_u64_field(body, "ii", u64::from(compiled.kernel.ii()));
    push_u64_field(body, "stages", u64::from(compiled.kernel.stage_count()));
    if let Some(stats) = compiled.stats {
        push_u64_field(body, "res_mii", u64::from(stats.res_mii));
        push_u64_field(body, "rec_mii", u64::from(stats.rec_mii));
    }
    if let Some(r) = compiled.regs {
        push_regs(body, [r.rotating_gr, r.rotating_fr, r.rotating_pr]);
    }
}

/// Appends `"regs":[GR,FR,PR]`, the rotating registers a schedule uses.
fn push_regs(body: &mut String, [gr, fr, pr]: [u32; 3]) {
    use std::fmt::Write as _;
    let _ = write!(body, ",\"regs\":[{gr},{fr},{pr}]");
}

/// Appends `"violations":[…]`, one report line per validator finding.
fn push_violations(body: &mut String, name: &str, violations: &[Violation]) {
    use std::fmt::Write as _;
    body.push_str(",\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let line = format!("{name}: violation [{}]: {v}", v.kind());
        let _ = write!(body, "\"{}\"", ltsp_telemetry::json::escape(&line));
    }
    body.push(']');
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

    /// A request line for `saxpy("s")`; `fields` follow the loop, each
    /// with its leading comma.
    fn request_line(op: &str, fields: &str) -> String {
        format!(r#"{{"op":"{op}","loop":"{}"{fields}}}"#, loop_json("s"))
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
        let line = request_line("compile", r#","id":"c1""#);
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
        let r = req(&request_line("compile", r#","id":"p1""#));
        let key = e.request_key(&r).expect("compile requests are keyed");
        assert!(e.probe(key).is_none(), "nothing cached yet");
        assert_eq!(
            e.core.result_cache.stats().misses,
            0,
            "absence is not a miss"
        );

        let cold = e.handle_routed(&r, Route::Queued(Some(key)), &tel, &PhaseTimer::new());
        assert_eq!(cold.cache, "miss");
        let after_cold = e.core.result_cache.stats();
        assert_eq!(
            after_cold.misses, 2,
            "raw-request key + body key, once each"
        );

        let hit = e.probe(key).expect("cached now");
        let phases = PhaseTimer::new();
        let warm = e.handle_routed(&r, Route::Inline(hit), &tel, &phases);
        assert_eq!((warm.status, warm.cache), ("ok", "hit"));
        assert_eq!(warm.body, cold.body, "the probed entry is the cold bytes");
        assert_eq!(warm.render(), e.handle(&r, &tel).render());
        let after_warm = e.core.result_cache.stats();
        assert_eq!(after_warm.misses, after_cold.misses);
        assert_eq!(
            after_warm.hits,
            after_cold.hits + 2,
            "the probe, then handle"
        );
        assert_eq!(e.counters().get(Counter::ServedInline), 1);
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
        let a = request_line("compile", "");
        let b = request_line("compile", r#","policy":"baseline""#);
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
        let line = request_line("verify", "");
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
        let line = request_line("oracle", r#","budget":200000,"deadline_ms":0"#);
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
        let a = request_line("oracle", r#","budget":200000,"deadline_ms":0"#);
        let b = request_line("oracle", r#","budget":7,"deadline_ms":0"#);
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
        let line = request_line("verify", r#","id":"t-9""#);
        e.handle(&req(&line), &tel);
        let events = tel.events();
        let ev = events
            .iter()
            .find(|e| e.event.kind() == "server_request")
            .expect("server_request event");
        let rendered = format!("{:?}", ev.event);
        assert!(rendered.contains("t-9"), "{rendered}");
        assert_eq!(e.counters().get(Counter::RequestsOk), 1);
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
        let line = request_line("compile", r#","id":"x1","backend":"exact""#);
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
        let heur = request_line("compile", "");
        let exact = request_line("compile", r#","backend":"exact""#);
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
        let line = request_line("compile", r#","id":"t1","backend":"tiered""#);
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
        assert_eq!(e.counters().get(Counter::UpgradesScheduled), 1);
        assert_eq!(e.counters().get(Counter::UpgradesApplied), 1);
        assert_eq!(e.counters().get(Counter::UpgradesFailed), 0);

        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "upgraded", "hit on an upgraded entry");
        assert_ne!(warm.body, cold.body, "bytes were upgraded in place");
        let v = json::parse(&warm.render()).unwrap();
        assert_eq!(v.get("backend").unwrap().as_str(), Some("exact"));
        assert!(bool_of(&v, "proven_optimal"));

        // The upgraded bytes ARE the exact backend's bytes: a sync exact
        // request for the same loop returns the identical body.
        let exact_line = request_line("compile", r#","id":"t2","backend":"exact""#);
        let exact = e.handle(&req(&exact_line), &tel);
        assert_eq!(exact.body, warm.body, "upgrade == exact, byte for byte");
    }

    /// An empty persist log in a per-test, per-process directory.
    fn fresh_log(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltsp-engine-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Warm restart after an upgrade: replay must collapse the
    /// duplicate-key appends to the refined bytes (last-writer-wins) and
    /// serve them as hits — no recompiles, no resurrection of the tier's
    /// first body.
    fn upgrade_survives_warm_restart(test: &str, line: &str) {
        let path = fresh_log(test);
        let cfg = || EngineConfig {
            persist_path: Some(path.clone()),
            ..EngineConfig::default()
        };
        let tel = Telemetry::disabled();
        let upgraded_body = {
            let e = Engine::new(cfg());
            e.handle(&req(line), &tel);
            e.refine_wait_idle();
            let warm = e.handle(&req(line), &tel);
            assert_eq!(warm.cache, "upgraded");
            warm.body
        };
        let e = Engine::new(cfg());
        assert!(
            e.counters().get(Counter::PersistSuperseded) >= 2,
            "raw and tier keys were each appended twice"
        );
        let replayed = e.handle(&req(line), &tel);
        assert_eq!(replayed.cache, "hit", "replayed entries serve as hits");
        assert_eq!(replayed.body, upgraded_body, "upgraded bytes replay");
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
    fn tiered_upgrade_survives_warm_restart_with_zero_misses() {
        let line = request_line("compile", r#","id":"t1","backend":"tiered""#);
        upgrade_survives_warm_restart("tiered-restart", &line);
    }

    #[test]
    fn adaptive_upgrade_survives_warm_restart_with_zero_misses() {
        let line = request_line("compile", r#","id":"a1","mode":"adaptive""#);
        upgrade_survives_warm_restart("adaptive-restart", &line);
    }

    #[test]
    fn mode_splits_the_request_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let stat = request_line("compile", "");
        let adpt = request_line("compile", r#","mode":"adaptive""#);
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
        let line = request_line("compile", r#","id":"a1","mode":"adaptive""#);
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
        assert_eq!(e.counters().get(Counter::UpgradesScheduled), 1);
        assert_eq!(e.counters().get(Counter::UpgradesApplied), 1);
        assert_eq!(e.counters().get(Counter::UpgradesFailed), 0);
        assert_eq!(e.counters().get(Counter::UpgradesRefined), 1);

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
    fn persist_warning_latches_once_past_the_threshold() {
        let path = fresh_log("persist-warn");
        let e = Engine::new(EngineConfig {
            persist_path: Some(path.clone()),
            persist_warn_bytes: Some(1), // any append crosses it
            ..EngineConfig::default()
        });
        let tel = Telemetry::disabled();
        assert!(
            !e.core.persist_warned.load(Ordering::Relaxed),
            "an empty log is under the threshold"
        );
        let line = |id: &str| request_line("compile", &format!(r#","id":"{id}""#));
        e.handle(&req(&line("w1")), &tel);
        assert!(
            e.core.persist_warned.load(Ordering::Relaxed),
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
        assert!(!quiet.core.persist_warned.load(Ordering::Relaxed));
    }

    /// The tripwire watches every append, the refine worker's included:
    /// three of the five records a tiered key leaves in the log are
    /// written by the upgrade.
    #[test]
    fn persist_warning_sees_the_refine_workers_appends() {
        let path = fresh_log("persist-warn-refine");
        let tel = Telemetry::disabled();
        let line = request_line("compile", r#","id":"w","backend":"tiered""#);
        // (log bytes, latch) once the cold answer is out and the worker
        // has not started, then once the upgrade has landed.
        let run = |persist_warn_bytes: Option<u64>| {
            let _ = std::fs::remove_file(&path);
            let e = Engine::new(EngineConfig {
                persist_path: Some(path.clone()),
                persist_warn_bytes,
                ..EngineConfig::default()
            });
            let look = |e: &Engine| {
                (
                    e.core.persist.as_ref().unwrap().log_bytes(),
                    e.core.persist_warned.load(Ordering::Relaxed),
                )
            };
            let gate = e.refine_pause();
            e.handle(&req(&line), &tel);
            let answered = look(&e);
            drop(gate);
            e.refine_wait_idle();
            (answered, look(&e))
        };
        let ((answered_bytes, _), (upgraded_bytes, _)) = run(None);
        assert!(upgraded_bytes > answered_bytes, "the upgrade appends");
        let ((_, early), (_, late)) = run(Some(answered_bytes));
        assert!(!early, "the cold answer's appends end at the threshold");
        assert!(late, "the upgrade's appends cross it");
    }

    #[test]
    fn coalesced_refines_run_once_and_upgrade_every_waiter() {
        let e = engine();
        let tel = Telemetry::disabled();
        // Same loop text and budget, different trip estimates: distinct
        // raw and tiered keys, but one shared exact refinement.
        let a = request_line("compile", r#","id":"c1","backend":"tiered","trip":100"#);
        let b = request_line("compile", r#","id":"c2","backend":"tiered","trip":200"#);
        {
            let _gate = e.refine_pause();
            assert_eq!(e.handle(&req(&a), &tel).cache, "miss");
            assert_eq!(e.handle(&req(&b), &tel).cache, "miss");
        }
        e.refine_wait_idle();
        assert_eq!(
            e.counters().get(Counter::UpgradesScheduled),
            1,
            "one leader queued"
        );
        assert_eq!(
            e.counters().get(Counter::UpgradesCoalesced),
            1,
            "the second request coalesced onto it"
        );
        assert_eq!(
            e.counters().get(Counter::UpgradesApplied),
            2,
            "both waiters were upgraded"
        );
        assert_eq!(e.counters().get(Counter::UpgradesFailed), 0);
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
