//! The threaded TCP daemon: connection readers, per-connection writers,
//! a bounded admission queue, one batching dispatcher, and graceful
//! drain — with every failure contained to the request or connection
//! that caused it.
//!
//! # Threading model
//!
//! ```text
//!             accept loop (non-blocking poll, watches drain flag)
//!                  │ one reader + one writer thread per connection
//!                  ▼
//!   reader: read line → parse → key ─┬─ nothing owed to this connection
//!           │        │               │  and the key is cached:
//!           │        │               │  contained handler → write the
//!           │        │               │  line to the socket, here
//!           │        │               │
//!           │        │               └─ otherwise admit ──► bounded queue
//!           │        │                                (Mutex<VecDeque> + Condvar)
//!           │        └─ parse error → immediate "error" response
//!           └─ queue at high-water → immediate "overloaded" response
//!                  │
//!                  ▼ (single dispatcher thread)
//!   dispatcher: pop up to batch_max jobs → ltsp_par::Pool::map_traced
//!               → enqueue responses (admission order) on each conn's
//!                 bounded outbound queue
//!                  │
//!                  ▼ (per-connection writer thread)
//!   writer: pop outbound line → write under the write deadline
//!           └─ stalled past the deadline → shed the conn (close it)
//! ```
//!
//! A request whose answer is already in the result cache needs no
//! scheduling, so it gets none: when nothing is owed to its connection
//! (see `Conn` for the counter that decides, and why that makes the
//! socket's write side the reader's), the reader answers it through the
//! same contained handler (`handle_contained`) and the same write
//! routine (`write_line`) the queued path uses — minus four thread
//! wake-ups. Misses, connections with work outstanding, uncacheable
//! ops and a draining server take the queue. Because "nothing owed"
//! means every earlier request of the connection is fully answered, the
//! reader's probe sees exactly what a serial run would, and responses
//! keep their per-connection order and their bytes.
//!
//! # Backpressure state machine
//!
//! The queue has exactly three externally visible states:
//!
//! - **accepting** — `len < high_water`: requests are enqueued and will
//!   be answered in per-connection FIFO order.
//! - **overloaded** — `len ≥ high_water`: the reader answers
//!   `{"status":"overloaded"}` *immediately* (never blocks, never
//!   drops), so a client always learns its request's fate. Admission
//!   re-opens as soon as the dispatcher drains below the mark.
//! - **draining** — after a `shutdown` request or SIGTERM/SIGINT: no
//!   new admissions (late requests get `{"status":"draining"}`), queued
//!   and in-flight work completes, readers close once idle, the
//!   dispatcher exits when the queue is empty, and [`serve`] returns.
//!
//! A hit answered by the reader never enters the queue, so the
//! high-water mark — which protects the queue — does not apply to it:
//! an idle connection's cached request is served at any queue depth,
//! and costs the queue's clients nothing. `draining` does apply: a
//! reader that sees the drain flag sends the request through admission,
//! which answers `draining`, hit or not.
//!
//! # Fault containment
//!
//! Every blocking edge has a deadline and every failure has a contained
//! recovery (DESIGN.md §13):
//!
//! - **A panicking request** is caught (`catch_unwind` around
//!   `Engine::handle_routed`, wherever the request is served: the
//!   dispatcher, a pool item, a reader), answered `status:"error"` with
//!   the panic payload, recorded as an [`Event::RequestPanic`], and
//!   forgotten — the daemon keeps serving. Locks are poison-tolerant
//!   ([`ltsp_telemetry::lock_unpoisoned`]), so an unwinding thread
//!   cannot cascade-abort the process.
//! - **A stalled client** stalls and sheds only *itself*: the
//!   dispatcher only ever enqueues onto a bounded per-connection
//!   outbound queue (never blocks on a socket), and whichever of the
//!   connection's own two threads is writing kills the connection once
//!   a write stalls past [`ServerConfig::write_deadline`] (the queue
//!   overflowing [`ServerConfig::outbound_max`] sheds responses
//!   meanwhile). Other connections never wait.
//! - **A dying dispatcher** (the one per-process thread) is loud, not
//!   silent: drain trips immediately, an
//!   `Event::ServerLifecycle { phase: "dispatcher-died" }` fires, and
//!   every queued request is answered `error` — nothing is admitted
//!   into a queue nobody drains.
//! - **An endless request line** is refused: a connection that sends
//!   `MAX_REQUEST_BYTES` without a newline is answered `error` and
//!   closed, so a client cannot make the daemon buffer without bound.
//! - **Injected faults** ([`FaultPlan`], `LTSP_FAULT`) exercise all of
//!   the above deterministically: handler panics and delays key on the
//!   request id, connection drops and torn writes on the response id —
//!   pure functions of the spec, independent of timing, batching and of
//!   which thread served the request.
//!
//! # Drain semantics
//!
//! The drain flag only ever flips **under the queue lock**, and the
//! dispatcher's exit check (`draining && queue empty`) also holds it.
//! Admission therefore observes a total order against drain: a request
//! either lands in the queue before the flip — and is guaranteed to be
//! served — or sees the flag and is answered `draining`. Nothing is
//! admitted and then abandoned.
//!
//! # Determinism
//!
//! Batch *composition* depends on arrival timing and is not
//! deterministic — but every response is a pure function of its request
//! (see [`crate::engine`]), results inside a batch are merged in
//! admission order by [`ltsp_par::Pool::map_traced`], each connection's
//! outbound queue preserves admission order, and a reader answers in
//! place only when that queue and everything feeding it is empty. The bytes
//! each client reads are therefore identical at any `--jobs`, which CI
//! enforces — and because fault decisions are also request-keyed, the
//! same holds for every *non-faulted* request under an active
//! [`FaultPlan`] (the chaos tests' core assertion).

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ltsp_cache::Fingerprint;
use ltsp_telemetry::{lock_unpoisoned, Event, Phase, PhaseTimer, Telemetry};

use crate::counters::Counter;
use crate::engine::{CacheHit, Engine, EngineConfig, Route};
use crate::fault::{FaultPlan, FaultSite};
use crate::flight::FlightRecord;
use crate::proto::{parse_request, ReqOp, Request, Response};

/// How often blocked loops (accept, idle reads, stalled writes) re-check
/// the drain flag.
const POLL: Duration = Duration::from_millis(25);

/// The longest request line the daemon buffers. A client that sends more
/// without a newline is answered `status:"error"` and disconnected; the
/// largest kernels the repository serves are three orders of magnitude
/// below this.
const MAX_REQUEST_BYTES: usize = 8 << 20;

/// Per-connection buffers (inbound bytes, the inline response line) are
/// reused from request to request and trimmed back to this once an
/// unusually large line has passed through.
const BUFFER_KEEP_BYTES: usize = 64 << 10;

/// Exit code of a process killed by the injected `shardkill` fault, so
/// supervisors and chaos tests can tell an injected kill from a crash.
pub const SHARD_KILL_EXIT_CODE: i32 = 113;

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads per dispatch batch.
    pub jobs: usize,
    /// Max requests fused into one pool batch.
    pub batch_max: usize,
    /// Admission-queue high-water mark: at or past it, new requests are
    /// answered `overloaded`.
    pub queue_high_water: usize,
    /// Per-connection outbound-queue cap: responses past it are shed
    /// (the client stopped reading; its own responses pay, nobody
    /// else's).
    pub outbound_max: usize,
    /// How long one response write may stall before the connection is
    /// declared dead and closed.
    pub write_deadline: Duration,
    /// Drain gracefully on SIGTERM/SIGINT. Process-global, so off by
    /// default; the `ltspd` / `ltspc serve` binaries turn it on.
    pub handle_signals: bool,
    /// Engine knobs (caches, oracle budgets).
    pub engine: EngineConfig,
    /// Deterministic fault injection (`LTSP_FAULT`); inactive by
    /// default.
    pub fault: FaultPlan,
    /// Telemetry sink for server events and cache metrics.
    pub telemetry: Telemetry,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7099".to_string(),
            jobs: 1,
            batch_max: 32,
            queue_high_water: 256,
            outbound_max: 128,
            write_deadline: Duration::from_secs(5),
            handle_signals: false,
            engine: EngineConfig::default(),
            fault: FaultPlan::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One admitted request plus where its response goes.
struct Job {
    req: Request,
    /// The first-level cache key, computed once where the request was
    /// read (`None` for ops that never cache).
    key: Option<Fingerprint>,
    conn: Arc<Conn>,
    /// Admission time, for the `queue_wait` phase span.
    enqueued_at: Instant,
}

/// A connection's bounded outbound queue, drained by its writer thread.
#[derive(Default)]
struct Outbound {
    /// `(response id, rendered line)` in enqueue (= admission) order.
    queue: VecDeque<(String, String)>,
    /// The reader finished; the writer flushes what is queued (and what
    /// in-flight jobs still enqueue) and exits once it is the last
    /// holder.
    closed: bool,
    /// The connection was declared dead (stalled past the write
    /// deadline, injected drop, or a hard I/O error): discard
    /// everything, immediately.
    dead: bool,
    /// Responses dropped because the queue was full.
    shed: u64,
}

/// The sending half of a connection, shared by its reader thread
/// (admission responses, inline hits), the dispatcher (batch responses),
/// and its writer thread.
///
/// [`Conn::send`] only ever enqueues — it never blocks on the network —
/// so a client that stops reading can only stall its own threads, never
/// the dispatcher.
///
/// # Who may write to the socket
///
/// `owed` counts the responses this connection is owed by somebody
/// other than the reader: +1 when a request is admitted and before
/// every reader-side [`Conn::send`], −1 when the writer thread has
/// finished writing a line or the line was shed. Only the reader ever
/// raises it, so when the reader sees zero ([`Conn::idle`]) nothing of
/// this connection is queued, in flight, waiting in the outbound queue
/// or half-way onto the socket — and nothing can be until the reader
/// itself says so. For that long the socket's write side belongs to the
/// reader; at every other time it belongs to the writer thread. Bytes
/// of two responses therefore never interleave, and an inline answer
/// never overtakes an earlier request of its connection.
struct Conn {
    out: Mutex<Outbound>,
    ready: Condvar,
    max: usize,
    owed: AtomicUsize,
}

impl Conn {
    fn new(max: usize) -> Conn {
        Conn {
            out: Mutex::new(Outbound::default()),
            ready: Condvar::new(),
            max: max.max(1),
            owed: AtomicUsize::new(0),
        }
    }

    /// Books one response the reader is about to owe (an admission, or
    /// an immediate answer it is about to [`Conn::send`]).
    fn owe(&self) {
        self.owed.fetch_add(1, Ordering::Release);
    }

    /// Books `n` owed responses as written or shed.
    fn settle(&self, n: usize) {
        self.owed.fetch_sub(n, Ordering::Release);
    }

    /// True when nothing is owed: the reader — the only caller — may
    /// write to the socket itself until its next [`Conn::owe`].
    fn idle(&self) -> bool {
        self.owed.load(Ordering::Acquire) == 0
    }

    /// Enqueues an owed response for the writer thread. Never blocks: a
    /// full queue sheds the response (the client is not reading;
    /// shedding its own responses is the contained failure), a dead
    /// connection discards it.
    fn send(&self, resp: &Response) {
        let mut line = String::new();
        resp.render_into(&mut line);
        line.push('\n');
        {
            let mut out = lock_unpoisoned(&self.out);
            if out.dead || out.queue.len() >= self.max {
                if !out.dead {
                    out.shed += 1;
                }
                drop(out);
                self.settle(1);
                return;
            }
            out.queue.push_back((resp.id.clone(), line));
        }
        self.ready.notify_one();
    }

    /// A reader-side immediate answer (parse error, `overloaded`,
    /// `draining`, the `shutdown` acknowledgement): owed from here on,
    /// written by the writer thread behind whatever is already queued.
    fn answer(&self, resp: &Response) {
        self.owe();
        self.send(resp);
    }

    /// The writer thread's next line, or `None` once the connection is
    /// dead or flushed and closed. The line stays owed until the writer
    /// [`Conn::settle`]s it.
    fn next_line(self: &Arc<Conn>) -> Option<(String, String)> {
        let mut out = lock_unpoisoned(&self.out);
        loop {
            if out.dead {
                return None;
            }
            if let Some(item) = out.queue.pop_front() {
                return Some(item);
            }
            // Flush complete: exit once nobody can enqueue anymore
            // (reader gone, no queued/in-flight job holds the conn).
            if out.closed && Arc::strong_count(self) == 1 {
                return None;
            }
            // Timed wait: job completions don't notify the condvar,
            // so re-check the strong count periodically.
            let (guard, _timeout) = self
                .ready
                .wait_timeout(out, POLL)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            out = guard;
        }
    }

    /// Marks the reader side finished: the writer flushes and exits.
    fn close(&self) {
        lock_unpoisoned(&self.out).closed = true;
        self.ready.notify_all();
    }

    /// Declares the connection dead and discards everything queued.
    fn kill(&self) -> u64 {
        let mut out = lock_unpoisoned(&self.out);
        out.dead = true;
        let dropped = out.queue.len();
        out.queue.clear();
        out.shed += dropped as u64;
        let shed = out.shed;
        drop(out);
        self.settle(dropped);
        self.ready.notify_all();
        shed
    }
}

/// Shared daemon state.
struct State {
    engine: Engine,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    draining: AtomicBool,
    cfg: ServerConfig,
}

impl State {
    /// Admits a job, or answers immediately when overloaded/draining.
    /// The draining check happens under the queue lock — see the module
    /// docs' drain semantics.
    fn admit(&self, req: Request, key: Option<Fingerprint>, conn: &Arc<Conn>, tel: &Telemetry) {
        let (status, msg) = {
            let mut q = lock_unpoisoned(&self.queue);
            if self.draining.load(Ordering::SeqCst) {
                ("draining", "server is draining".to_string())
            } else if q.len() >= self.cfg.queue_high_water {
                (
                    "overloaded",
                    format!(
                        "admission queue at high-water mark ({})",
                        self.cfg.queue_high_water
                    ),
                )
            } else {
                conn.owe();
                q.push_back(Job {
                    req,
                    key,
                    conn: Arc::clone(conn),
                    enqueued_at: Instant::now(),
                });
                let depth = q.len() as u64;
                self.engine.counters().set(Counter::QueueDepth, depth);
                drop(q);
                self.ready.notify_one();
                return;
            }
        };
        let resp = Response::error(&req.id, status, &msg);
        conn.answer(&self.engine.finish(&req, resp, tel));
    }

    fn start_drain(&self, why: &str, tel: &Telemetry) {
        let flipped = {
            let _q = lock_unpoisoned(&self.queue);
            !self.draining.swap(true, Ordering::SeqCst)
        };
        if flipped && tel.is_enabled() {
            tel.emit(Event::ServerLifecycle {
                phase: "drain",
                detail: why.to_string(),
            });
        }
        self.ready.notify_all();
    }
}

/// A running server: the actually bound address plus a way to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    join: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates drain (as if a `shutdown` request arrived) and waits
    /// for the daemon to finish in-flight work and exit.
    pub fn shutdown(self) {
        let tel = self.state.cfg.telemetry.clone();
        self.state.start_drain("handle shutdown", &tel);
        self.wait();
    }

    /// Waits for the daemon to exit on its own (client `shutdown`
    /// request or a signal), then frees its caches and hands the freed
    /// pages back to the operating system.
    pub fn wait(self) {
        let _ = self.join.join();
        drop(self.state);
        release_freed_memory();
    }
}

/// Returns the allocator's free pages to the operating system.
///
/// A server's caches are filled by its dispatcher thread, so they live in
/// that thread's glibc arena, and freeing them from another thread leaves
/// the arena's pages resident: it is only trimmed from the top, and a few
/// small chunks parked in the freeing thread's cache pin that. Whether the
/// next server in the process reuses the arena or dirties a fresh one
/// depends on the order its threads exited, so without this a process
/// that runs several servers in turn keeps up to one cache-sized arena
/// per server resident.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers, is thread-safe, and only
    // releases memory the allocator already holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

/// Binds and serves in a background thread; returns once the listener
/// is accepting. Used by in-process tests and `ltspc serve`/`ltspd`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(State {
        engine: Engine::new(cfg.engine.clone()),
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        draining: AtomicBool::new(false),
        cfg,
    });
    if state.cfg.handle_signals {
        install_signal_drain(&state);
    }
    let st = Arc::clone(&state);
    let join = thread::Builder::new()
        .name("ltspd-accept".to_string())
        .spawn(move || run(listener, st))
        .expect("spawn ltspd accept thread");
    Ok(ServerHandle { addr, state, join })
}

/// Binds and serves on the caller's thread until drained. This is the
/// blocking entry `ltspd` and `ltspc serve` use.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(cfg: ServerConfig) -> std::io::Result<()> {
    spawn(cfg)?.wait();
    Ok(())
}

/// Installs a SIGTERM/SIGINT hook that drains this server (Unix only;
/// signal handlers are process-global, hence the [`ServerConfig`] gate).
#[cfg(unix)]
fn install_signal_drain(state: &Arc<State>) {
    use std::sync::OnceLock;
    static TERM_FLAG: OnceLock<&'static AtomicBool> = OnceLock::new();
    // The handler only flips an atomic — async-signal-safe. A watcher
    // thread folds it into the server's drain state (the handler itself
    // cannot lock).
    extern "C" fn on_term(_sig: i32) {
        if let Some(flag) = TERM_FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let flag: &'static AtomicBool =
        TERM_FLAG.get_or_init(|| Box::leak(Box::new(AtomicBool::new(false))));
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    let st = Arc::downgrade(state);
    thread::Builder::new()
        .name("ltspd-signal".to_string())
        .spawn(move || loop {
            thread::sleep(POLL);
            let Some(state) = st.upgrade() else { return };
            if flag.load(Ordering::SeqCst) {
                let tel = state.cfg.telemetry.clone();
                state.start_drain("signal", &tel);
                return;
            }
            if state.draining.load(Ordering::SeqCst) {
                return;
            }
        })
        .ok();
}

#[cfg(not(unix))]
fn install_signal_drain(_state: &Arc<State>) {}

fn run(listener: TcpListener, state: Arc<State>) {
    let tel = state.cfg.telemetry.clone();
    if tel.is_enabled() {
        tel.emit(Event::ServerLifecycle {
            phase: "listen",
            detail: listener
                .local_addr()
                .map_or_else(|_| state.cfg.addr.clone(), |a| a.to_string()),
        });
    }
    listener
        .set_nonblocking(true)
        .expect("set_nonblocking on listener");

    // The dispatcher is the one per-process serving thread: its death
    // must be loud and terminal, never a silently wedged queue. A panic
    // escaping `dispatch_loop` (worker spawn failure, a bug outside the
    // per-request containment) trips drain, announces itself, and
    // answers everything still queued with an error.
    let dispatcher = {
        let state = Arc::clone(&state);
        let tel = tel.clone();
        thread::Builder::new()
            .name("ltspd-dispatch".to_string())
            .spawn(move || {
                let died = catch_unwind(AssertUnwindSafe(|| dispatch_loop(&state, &tel)));
                if let Err(payload) = died {
                    let why = panic_message(payload.as_ref());
                    eprintln!("ltspd: dispatcher died: {why}");
                    state.engine.counters().add(Counter::DispatcherDeaths, 1);
                    state.engine.flight.dump("dispatcher-died");
                    tel.emit(Event::ServerLifecycle {
                        phase: "dispatcher-died",
                        detail: why.clone(),
                    });
                    // Flip drain first (under the queue lock): after
                    // this, nothing new is admitted, so one sweep
                    // answers every job that beat the flip.
                    state.start_drain("dispatcher died", &tel);
                    let orphans: Vec<Job> = {
                        let mut q = lock_unpoisoned(&state.queue);
                        q.drain(..).collect()
                    };
                    for job in orphans {
                        let resp = Response::error(
                            &job.req.id,
                            "error",
                            &format!("dispatcher died ({why}); request abandoned"),
                        );
                        job.conn.send(&state.engine.finish(&job.req, resp, &tel));
                    }
                }
            })
            .expect("spawn ltspd dispatcher")
    };

    let mut readers = Vec::new();
    while !state.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let state = Arc::clone(&state);
                let tel = tel.clone();
                readers.push(
                    thread::Builder::new()
                        .name("ltspd-conn".to_string())
                        .spawn(move || reader_loop(stream, &state, &tel))
                        .expect("spawn ltspd reader"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => break,
        }
    }
    drop(listener);
    for r in readers {
        let _ = r.join();
    }
    let _ = dispatcher.join();
    // Drain the refinement queue too: upgrades already scheduled still
    // land (and persist) before the process exits.
    state.engine.refine_shutdown();
    state.engine.export_metrics(&tel);
    if tel.is_enabled() {
        tel.emit(Event::ServerLifecycle {
            phase: "stopped",
            detail: String::new(),
        });
    }
}

/// Stringifies a panic payload (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Accounts one injected fault: the counter and the trace event.
fn note_fault(state: &State, tel: &Telemetry, site: &'static str, id: &str) {
    state.engine.counters().add(Counter::FaultsInjected, 1);
    if tel.is_enabled() {
        tel.emit(Event::FaultInjected {
            site,
            trace_id: id.to_string(),
        });
    }
}

/// Runs one request with its failure contained: injected delays and
/// panics fire here (keyed on the request id), and *any* panic out of
/// `Engine::handle_routed` — injected or real — becomes a
/// `status:"error"` response plus an [`Event::RequestPanic`], never a
/// dead daemon. Every request that is not answered at admission comes
/// through here, on whichever thread serves it: the dispatcher, a pool
/// worker, or — for a [`Route::Inline`] hit — its connection's reader.
///
/// Also the head of the server-side lifecycle spans. A queued request
/// (`waited` = its admission and batch-pop times) has `queue_wait`
/// (admission → pop) and `dispatch` (pop → handler entry); an inline
/// one has neither. A slow fault's sleep lands in `dispatch` on either
/// route — the delay is real latency and must not vanish from the
/// breakdown — and a panicking request is flight-recorded here (the
/// engine's own observation point never ran) and triggers a
/// `request-panic` dump.
fn handle_contained(
    state: &State,
    req: &Request,
    route: Route,
    waited: Option<(Instant, Instant)>,
    tel: &Telemetry,
) -> Response {
    let phases = PhaseTimer::new();
    let entered = match waited {
        Some((enqueued_at, popped_at)) => {
            phases.add_us(
                Phase::QueueWait,
                popped_at.duration_since(enqueued_at).as_micros() as u64,
            );
            popped_at
        }
        None => Instant::now(),
    };
    let key = route.key();
    let fault = &state.cfg.fault;
    let mut fault_fired = false;
    if fault.is_active() && fault.fires(FaultSite::ShardKill, &req.id) {
        // The cluster chaos drill: die mid-request, before any response
        // bytes exist, exactly like a crashed shard. The router in front
        // must observe the dead connection and fail this request over.
        // Keyed on the request id, so tests can predict the kill point.
        eprintln!(
            "ltspd: injected shard kill at request {} (exiting {})",
            req.id, SHARD_KILL_EXIT_CODE
        );
        std::process::exit(SHARD_KILL_EXIT_CODE);
    }
    if fault.is_active() && fault.fires(FaultSite::Slow, &req.id) {
        fault_fired = true;
        note_fault(state, tel, "slow", &req.id);
        thread::sleep(fault.slow);
    }
    if waited.is_some() || fault_fired {
        phases.add_us(Phase::Dispatch, entered.elapsed().as_micros() as u64);
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        if fault.is_active() && fault.fires(FaultSite::Panic, &req.id) {
            note_fault(state, tel, "panic", &req.id);
            panic!("injected handler panic for request {}", req.id);
        }
        state.engine.handle_routed(req, route, tel, &phases)
    }));
    match result {
        Ok(resp) => {
            if fault_fired {
                state.engine.flight.dump("fault-injected");
            }
            resp
        }
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            state.engine.counters().add(Counter::RequestPanics, 1);
            if tel.is_enabled() {
                tel.emit(Event::RequestPanic {
                    trace_id: req.id.clone(),
                    op: req.op.tag(),
                    payload: msg.clone(),
                });
            }
            let resp = Response::error(
                &req.id,
                "error",
                &format!("request handler panicked: {msg}"),
            );
            let resp = state.engine.finish(req, resp, tel);
            state
                .engine
                .flight
                .record(FlightRecord::capture(req, key, "error", "-", &phases));
            state.engine.flight.dump("request-panic");
            resp
        }
    }
}

/// [`handle_contained`] for a request served outside a pool batch (a
/// lone job or a batch follower on the dispatcher, an inline hit on a
/// reader): telemetry goes through fork/absorb, same as a pool item.
fn handle_forked(
    state: &State,
    req: &Request,
    route: Route,
    waited: Option<(Instant, Instant)>,
    tel: &Telemetry,
) -> Response {
    if !tel.is_enabled() {
        return handle_contained(state, req, route, waited, tel);
    }
    let child = tel.fork();
    let resp = handle_contained(state, req, route, waited, &child);
    tel.absorb(child, 0);
    resp
}

/// Per-connection reader: frame lines, answer protocol errors, `shutdown`
/// and result-cache hits on an idle connection itself, admit the rest.
///
/// Framing is done by hand on a byte buffer rather than
/// `BufReader::read_line` because reads run under a poll timeout, and
/// `read_line` discards partially read bytes when it returns an error —
/// a request split across TCP segments would be corrupted.
fn reader_loop(mut stream: TcpStream, state: &Arc<State>, tel: &Telemetry) {
    // Accepted sockets may inherit the listener's non-blocking mode on
    // some platforms; normalize to blocking-with-timeout. The write
    // timeout is the poll step of `write_with_deadline`, whichever of
    // the connection's two threads is writing. Nagle off: responses are
    // single small writes and latency is the product.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL)).is_err()
        || stream.set_write_timeout(Some(POLL)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn::new(state.cfg.outbound_max));
    state.engine.counters().add(Counter::Connections, 1);
    let writer = {
        let conn = Arc::clone(&conn);
        let state = Arc::clone(state);
        let tel = tel.clone();
        thread::Builder::new()
            .name("ltspd-write".to_string())
            .spawn(move || writer_loop(&conn, write_half, &state, &tel))
            .expect("spawn ltspd writer")
    };
    read_requests(&mut stream, &conn, state, tel);
    conn.close();
    // Drop our handle *before* joining: the writer exits once it is the
    // last holder (queued jobs done, outbound flushed).
    drop(conn);
    let _ = writer.join();
    state.engine.counters().sub(Counter::Connections, 1);
}

/// Newline framing over one connection's inbound bytes: every byte is
/// searched for the newline once, a line is parsed from the slice it
/// arrived in, and consumed bytes are dropped once per read rather than
/// once per line.
#[derive(Default)]
struct Framer {
    buf: Vec<u8>,
    /// Where the first unconsumed line starts.
    start: usize,
    /// Bytes before this hold no newline at or after `start`.
    scanned: usize,
}

impl Framer {
    /// The next complete line (without its newline) as a range of
    /// `buf`, valid until the next [`Framer::compact`].
    fn next_line(&mut self) -> Option<std::ops::Range<usize>> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.scanned + off;
                let line = self.start..end;
                self.start = end + 1;
                self.scanned = end + 1;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Drops the consumed lines and returns how many bytes of an
    /// unfinished line remain.
    fn compact(&mut self) -> usize {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
        if self.buf.is_empty() {
            self.buf.shrink_to(BUFFER_KEEP_BYTES);
        }
        self.buf.len()
    }
}

/// The reader's framing/admission loop (split out so [`reader_loop`]
/// can run cleanup — close + join the writer — on every exit path).
fn read_requests(stream: &mut TcpStream, conn: &Arc<Conn>, state: &Arc<State>, tel: &Telemetry) {
    let mut framer = Framer::default();
    let mut chunk = [0u8; 16 * 1024];
    // The line of an inline answer, reused from hit to hit.
    let mut out = String::new();
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => framer.buf.extend_from_slice(&chunk[..n]),
            Err(e) if timed_out(&e) => {
                // Idle: close once the server is draining, else keep
                // waiting for the next request.
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // The writer may have declared the connection dead (stalled
        // past the write deadline); stop reading from it too.
        if lock_unpoisoned(&conn.out).dead {
            return;
        }
        while let Some(line) = framer.next_line() {
            let line = String::from_utf8_lossy(&framer.buf[line]);
            let line = line.trim();
            if !line.is_empty() && !serve_line(line, stream, conn, &mut out, state, tel) {
                return;
            }
        }
        if framer.compact() > MAX_REQUEST_BYTES {
            // Keep what the derived id needs, free the rest now.
            framer.buf.truncate(256);
            framer.buf.shrink_to_fit();
            refuse_oversized(&framer.buf, stream, conn, state, tel);
            return;
        }
    }
}

/// Serves one framed request line from the reader thread: protocol
/// errors and `shutdown` are answered here, a cacheable request on an
/// idle connection is probed for a hit and answered here too
/// ([`serve_inline`]), everything else is admitted. Returns `false`
/// when the reader should stop (drain began, or the connection died).
fn serve_line(
    line: &str,
    stream: &mut TcpStream,
    conn: &Arc<Conn>,
    out: &mut String,
    state: &Arc<State>,
    tel: &Telemetry,
) -> bool {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            let resp = Response::error(&e.id, "error", &e.message);
            conn.answer(&state.engine.finish_admission(&e.id, "proto", resp, tel));
            return true;
        }
    };
    if req.op == ReqOp::Shutdown {
        let resp = Response::new(&req.id, "draining", "-", ",\"op\":\"shutdown\"");
        conn.answer(&state.engine.finish(&req, resp, tel));
        state.start_drain("shutdown request", tel);
        return false;
    }
    let key = state.engine.request_key(&req);
    // With nothing owed, every earlier request of this connection is
    // fully answered, so the probe sees exactly what a serial run would
    // and the socket's write side is the reader's (see [`Conn`]). A
    // draining server answers `draining`, hit or not — through `admit`.
    if conn.idle() && !state.draining.load(Ordering::SeqCst) {
        if let Some(hit) = key.and_then(|key| state.engine.probe(key)) {
            return serve_inline(&req, hit, stream, conn, out, state, tel);
        }
    }
    state.admit(req, key, conn, tel);
    true
}

/// Answers a probed hit on the reader thread: the same contained
/// handler and the same write routine as the queued path, minus the
/// queue, the dispatcher and the writer hand-off. Returns `false` when
/// the connection did not survive the write.
fn serve_inline(
    req: &Request,
    hit: CacheHit,
    stream: &mut TcpStream,
    conn: &Conn,
    out: &mut String,
    state: &State,
    tel: &Telemetry,
) -> bool {
    let resp = handle_forked(state, req, Route::Inline(hit), None, tel);
    out.clear();
    out.shrink_to(BUFFER_KEEP_BYTES);
    resp.render_into(out);
    out.push('\n');
    write_line(conn, stream, &resp.id, out, state, tel)
}

/// A request line grew past [`MAX_REQUEST_BYTES`] without a newline:
/// answer with a typed error, then swallow (without keeping) what the
/// client is still sending until it stops or the write deadline has
/// passed — closing a socket with unread input resets it, which could
/// destroy the answer before the client reads it.
fn refuse_oversized(
    head: &[u8],
    stream: &mut TcpStream,
    conn: &Conn,
    state: &State,
    tel: &Telemetry,
) {
    // A content-derived id like a parse failure's, from the line's head.
    let id = format!("q{}", Fingerprint::of_bytes(head).short_hex());
    let resp = Response::error(
        &id,
        "error",
        &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
    );
    conn.answer(&state.engine.finish_admission(&id, "proto", resp, tel));
    let until = Instant::now() + state.cfg.write_deadline;
    let mut sink = [0u8; 16 * 1024];
    while Instant::now() < until && !state.draining.load(Ordering::SeqCst) {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if timed_out(&e) => {}
            Err(_) => return,
        }
    }
}

/// Per-connection writer: drains the bounded outbound queue onto the
/// socket under the write deadline. While anything is owed to the
/// connection this is the only thread that writes to its socket, so a
/// stalled client stalls exactly one thread — and only until the
/// deadline kills the connection.
fn writer_loop(conn: &Arc<Conn>, mut stream: TcpStream, state: &State, tel: &Telemetry) {
    while let Some((id, line)) = conn.next_line() {
        if !write_line(conn, &mut stream, &id, &line, state, tel) {
            return;
        }
        conn.settle(1);
    }
}

/// Writes one rendered response line under the write deadline — the one
/// routine behind every byte the daemon sends, on the writer thread and
/// on a reader answering inline alike. The response-keyed faults (`drop`,
/// `short-write`) fire here, the `write` phase sample is taken here, and
/// a stalled or vanished client is shed here. Returns `false` when the
/// connection is dead.
fn write_line(
    conn: &Conn,
    stream: &mut TcpStream,
    id: &str,
    line: &str,
    state: &State,
    tel: &Telemetry,
) -> bool {
    let fault = &state.cfg.fault;
    if fault.is_active() && fault.fires(FaultSite::Drop, id) {
        note_fault(state, tel, "drop", id);
        shed_connection(conn, stream, state, tel, "injected connection drop");
        state.engine.flight.dump("fault-injected");
        return false;
    }
    let torn = fault.is_active() && fault.fires(FaultSite::ShortWrite, id);
    let write_start = Instant::now();
    let wrote = if torn && line.len() >= 2 {
        note_fault(state, tel, "short-write", id);
        // A torn write: the same bytes in two TCP segments. Client
        // framing must reassemble them — the response is *not*
        // faulted, and chaos tests assert it stays byte-identical.
        let (head, tail) = line.as_bytes().split_at(line.len() / 2);
        write_with_deadline(stream, head, state)
            .and_then(|()| write_with_deadline(stream, tail, state))
    } else {
        write_with_deadline(stream, line.as_bytes(), state)
    };
    match wrote {
        Ok(()) => {
            // The write happens after the response is rendered, so it
            // can never ride on the request's own timer — it feeds the
            // phase histogram directly.
            state
                .engine
                .record_phase_sample(Phase::Write, write_start.elapsed().as_micros() as u64);
            true
        }
        Err(e) => {
            // A vanished client is not a server error; a stalled one
            // is shed. Either way the connection is done.
            let stalled = e.kind() == std::io::ErrorKind::TimedOut;
            let why = if stalled {
                "write deadline exceeded (stalled client)"
            } else {
                "client connection lost"
            };
            shed_connection(conn, stream, state, tel, why);
            if stalled {
                state.engine.flight.dump("write-shed");
            }
            false
        }
    }
}

/// True for what a socket read or write under the [`POLL`] timeout
/// returns when it merely ran out of time.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Declares a connection dead: discards its outbound queue, shuts the
/// socket down (which also unblocks its reader), and accounts the shed.
fn shed_connection(conn: &Conn, stream: &TcpStream, state: &State, tel: &Telemetry, why: &str) {
    let shed = conn.kill();
    let _ = stream.shutdown(Shutdown::Both);
    state.engine.counters().add(Counter::ConnectionsShed, 1);
    state.engine.counters().add(Counter::ResponsesShed, shed);
    if tel.is_enabled() {
        tel.warn(format!("connection shed: {why} ({shed} responses dropped)"));
        tel.counter_add("serve.conn.shed", 1);
        tel.counter_add("serve.responses.shed", shed);
    }
}

/// Writes the whole buffer, tolerating per-chunk timeouts as long as
/// the write makes progress, and giving up once a single stall lasts
/// past [`ServerConfig::write_deadline`].
fn write_with_deadline(stream: &mut TcpStream, buf: &[u8], state: &State) -> std::io::Result<()> {
    let mut off = 0;
    let mut stall_start = Instant::now();
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket closed mid-response",
                ))
            }
            Ok(n) => {
                off += n;
                stall_start = Instant::now();
            }
            Err(e) if timed_out(&e) => {
                if stall_start.elapsed() >= state.cfg.write_deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "write deadline exceeded",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The single dispatcher: pop up to `batch_max` jobs, run them on the
/// pool (forked telemetry, index-ordered merge), enqueue responses in
/// admission order. Each job runs under [`handle_contained`]; the
/// dispatcher itself never blocks on a socket and never unwinds past a
/// request.
fn dispatch_loop(state: &Arc<State>, tel: &Telemetry) {
    let pool = ltsp_par::Pool::new(state.cfg.jobs);
    let fault = &state.cfg.fault;
    let counters = state.engine.counters();
    loop {
        let batch: Vec<Job> = {
            let mut q = lock_unpoisoned(&state.queue);
            while q.is_empty() && !state.draining.load(Ordering::SeqCst) {
                let (guard, _timeout) = state
                    .ready
                    .wait_timeout(q, POLL)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
            if q.is_empty() {
                // Draining and empty — and since drain flips under this
                // lock, nothing can be admitted after this observation.
                return;
            }
            // The dispatcher-death drill: fire *before* popping, so the
            // queue is intact for the died-handler's error sweep.
            if fault.is_active() {
                if let Some(front) = q.front() {
                    if fault.fires(FaultSite::Dispatch, &front.req.id) {
                        let id = front.req.id.clone();
                        drop(q);
                        if tel.is_enabled() {
                            tel.emit(Event::FaultInjected {
                                site: "dispatch",
                                trace_id: id.clone(),
                            });
                        }
                        panic!("injected dispatcher panic at request {id}");
                    }
                }
            }
            let n = q.len().min(state.cfg.batch_max);
            let batch: Vec<Job> = q.drain(..n).collect();
            counters.set(Counter::QueueDepth, q.len() as u64);
            batch
        };
        let popped_at = Instant::now();
        counters.add(Counter::Inflight, batch.len() as u64);
        // Fast path: a lone request runs on the dispatcher thread — no
        // worker spawn, so a cold compile costs no thread on top.
        if let [job] = batch.as_slice() {
            let waited = Some((job.enqueued_at, popped_at));
            let resp = handle_forked(state, &job.req, Route::Queued(job.key), waited, tel);
            job.conn.send(&resp);
            counters.sub(Counter::Inflight, 1);
            continue;
        }
        // Identical requests inside one batch must not race on the
        // result cache: the loser's "cache" tag would depend on worker
        // timing, a --jobs-dependent byte in the response stream. First
        // occurrences of each key run on the pool; duplicates replay
        // afterwards in admission order, where they hit the cache
        // exactly as a serial run would.
        let follower: Vec<bool> = batch
            .iter()
            .enumerate()
            .map(|(i, j)| j.key.is_some() && batch[..i].iter().any(|lead| lead.key == j.key))
            .collect();
        let leader_idx: Vec<usize> = (0..batch.len()).filter(|&i| !follower[i]).collect();
        let leader_resps = pool.map_traced(tel, "serve-batch", &leader_idx, |tel, _i, &idx| {
            let job = &batch[idx];
            let waited = Some((job.enqueued_at, popped_at));
            handle_contained(state, &job.req, Route::Queued(job.key), waited, tel)
        });
        let mut responses: Vec<Option<Response>> = batch.iter().map(|_| None).collect();
        for (&idx, resp) in leader_idx.iter().zip(leader_resps) {
            responses[idx] = Some(resp);
        }
        for (i, job) in batch.iter().enumerate() {
            if follower[i] {
                let waited = Some((job.enqueued_at, popped_at));
                let route = Route::Queued(job.key);
                responses[i] = Some(handle_forked(state, &job.req, route, waited, tel));
            }
        }
        for (job, resp) in batch.iter().zip(&responses) {
            job.conn
                .send(resp.as_ref().expect("every batch job is answered"));
        }
        counters.sub(Counter::Inflight, batch.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a thread panicking while holding a daemon lock used
    /// to poison it, turning every later `.lock().unwrap()` into a
    /// cascading abort of the whole process. Poison-tolerant locking
    /// must shrug it off.
    #[test]
    fn a_poisoned_outbound_lock_does_not_cascade() {
        let conn = Arc::new(Conn::new(4));
        let poisoner = Arc::clone(&conn);
        let _ = thread::spawn(move || {
            let _guard = poisoner.out.lock().unwrap();
            panic!("poison the outbound lock");
        })
        .join();
        assert!(conn.out.lock().is_err(), "lock should be poisoned");
        // answer/close/kill all reacquire the poisoned lock; none may panic.
        conn.answer(&Response::error("x", "error", "after poison"));
        assert_eq!(lock_unpoisoned(&conn.out).queue.len(), 1);
        conn.close();
        assert_eq!(conn.kill(), 1, "the queued response is discarded");
        conn.answer(&Response::error("y", "error", "dead conn"));
        assert!(lock_unpoisoned(&conn.out).queue.is_empty());
    }

    /// A full outbound queue sheds new responses instead of blocking,
    /// and a shed response is no longer owed.
    #[test]
    fn outbound_overflow_sheds_instead_of_blocking() {
        let conn = Conn::new(2);
        for i in 0..5 {
            conn.answer(&Response::error(&format!("r{i}"), "error", "x"));
        }
        let out = lock_unpoisoned(&conn.out);
        assert_eq!(out.queue.len(), 2, "capacity respected");
        assert_eq!(out.shed, 3, "overflow accounted");
        assert_eq!(
            conn.owed.load(Ordering::Acquire),
            2,
            "only the queued stay owed"
        );
    }

    /// The ownership rule for the socket's write side: the reader is
    /// refused it from the moment a request is admitted until the
    /// writer thread has finished that request's line — while the job
    /// is in flight, while its line is queued, and while the writer
    /// holds it mid-write.
    #[test]
    fn the_reader_is_refused_the_socket_while_a_line_is_owed() {
        let conn = Arc::new(Conn::new(4));
        assert!(conn.idle(), "a fresh connection is the reader's");
        conn.owe(); // admission
        assert!(!conn.idle(), "in flight");
        conn.send(&Response::error("a", "error", "x")); // the dispatcher answers
        assert!(!conn.idle(), "queued");
        let (id, _line) = conn.next_line().expect("the writer pops the line");
        assert_eq!(id, "a");
        assert!(!conn.idle(), "mid-write: popped is not written");
        conn.settle(1); // the writer finished the write
        assert!(conn.idle(), "written: the socket is the reader's again");

        // A reader-side immediate answer is owed like any other line,
        // and killing the connection settles what it discards.
        conn.answer(&Response::error("b", "error", "x"));
        assert!(!conn.idle());
        conn.kill();
        assert!(conn.idle(), "nothing queued is owed once it is discarded");
        assert!(
            conn.next_line().is_none(),
            "a dead connection yields no line"
        );
    }

    /// The framer finds exactly the lines a whole-buffer split finds,
    /// wherever the reads happened to cut the stream.
    #[test]
    fn framing_is_independent_of_read_boundaries() {
        let stream = b"first\n\nsecond line\r\n{\"third\":1}\nunfinished";
        let want: Vec<&[u8]> = vec![b"first", b"", b"second line\r", b"{\"third\":1}"];
        for cut in 1..=stream.len() {
            let mut framer = Framer::default();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for piece in stream.chunks(cut) {
                framer.buf.extend_from_slice(piece);
                while let Some(line) = framer.next_line() {
                    got.push(framer.buf[line].to_vec());
                }
                let pending = framer.compact();
                assert_eq!(pending, framer.buf.len());
            }
            assert_eq!(got, want, "reads of {cut} bytes");
            assert_eq!(framer.buf, b"unfinished", "reads of {cut} bytes");
        }
    }
}
