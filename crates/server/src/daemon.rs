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
//!   reader: read line → parse → admit ──────────► bounded queue
//!           │            │                        (Mutex<VecDeque> + Condvar)
//!           │            └─ parse error → immediate "error" response
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
//! # Fault containment
//!
//! Every blocking edge has a deadline and every failure has a contained
//! recovery (DESIGN.md §13):
//!
//! - **A panicking request** is caught (`catch_unwind` around
//!   [`Engine::handle`], on the fast path and per pool item), answered
//!   `status:"error"` with the panic payload, recorded as an
//!   [`Event::RequestPanic`], and forgotten — the daemon keeps serving.
//!   Locks are poison-tolerant ([`ltsp_telemetry::lock_unpoisoned`]),
//!   so an unwinding thread cannot cascade-abort the process.
//! - **A stalled client** sheds its *own* responses: the dispatcher
//!   only ever enqueues onto a bounded per-connection outbound queue
//!   (never blocks on a socket), and the connection's writer thread
//!   kills the connection once a write stalls past
//!   [`ServerConfig::write_deadline`] or the queue overflows
//!   [`ServerConfig::outbound_max`]. Other connections never wait.
//! - **A dying dispatcher** (the one per-process thread) is loud, not
//!   silent: drain trips immediately, an
//!   `Event::ServerLifecycle { phase: "dispatcher-died" }` fires, and
//!   every queued request is answered `error` — nothing is admitted
//!   into a queue nobody drains.
//! - **Injected faults** ([`FaultPlan`], `LTSP_FAULT`) exercise all of
//!   the above deterministically: handler panics and delays key on the
//!   request id, connection drops and torn writes on the response id —
//!   pure functions of the spec, independent of timing and batching.
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
//! admission order by [`ltsp_par::Pool::map_traced`], and each
//! connection's outbound queue preserves admission order. The bytes
//! each client reads are therefore identical at any `--jobs`, which CI
//! enforces — and because fault decisions are also request-keyed, the
//! same holds for every *non-faulted* request under an active
//! [`FaultPlan`] (the chaos tests' core assertion).

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ltsp_telemetry::phase::{Phase, PhaseTimer};
use ltsp_telemetry::{lock_unpoisoned, Event, Telemetry};

use crate::engine::{Engine, EngineConfig};
use crate::fault::{FaultPlan, FaultSite};
use crate::flight::FlightRecord;
use crate::proto::{parse_request, ReqOp, Request, Response};

/// How often blocked loops (accept, idle reads, stalled writes) re-check
/// the drain flag.
const POLL: Duration = Duration::from_millis(25);

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
/// (admission responses), the dispatcher (batch responses), and its
/// writer thread (the only place that touches the socket for writes).
///
/// [`Conn::send`] only ever enqueues — it never blocks on the network —
/// so a client that stops reading can only stall its own writer thread,
/// never the dispatcher.
struct Conn {
    out: Mutex<Outbound>,
    ready: Condvar,
    max: usize,
}

impl Conn {
    fn new(max: usize) -> Conn {
        Conn {
            out: Mutex::new(Outbound::default()),
            ready: Condvar::new(),
            max: max.max(1),
        }
    }

    /// Enqueues a response for the writer thread. Never blocks: a full
    /// queue sheds the response (the client is not reading; shedding its
    /// own responses is the contained failure), a dead connection
    /// discards it.
    fn send(&self, resp: &Response) {
        let mut line = resp.render();
        line.push('\n');
        {
            let mut out = lock_unpoisoned(&self.out);
            if out.dead {
                return;
            }
            if out.queue.len() >= self.max {
                out.shed += 1;
                return;
            }
            out.queue.push_back((resp.id.clone(), line));
        }
        self.ready.notify_one();
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
        let dropped = out.queue.len() as u64;
        out.queue.clear();
        out.shed += dropped;
        let shed = out.shed;
        drop(out);
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
    fn admit(&self, req: Request, conn: &Arc<Conn>, tel: &Telemetry) {
        let verdict = {
            let mut q = lock_unpoisoned(&self.queue);
            if self.draining.load(Ordering::SeqCst) {
                Some(("draining", "server is draining".to_string()))
            } else if q.len() >= self.cfg.queue_high_water {
                Some((
                    "overloaded",
                    format!(
                        "admission queue at high-water mark ({})",
                        self.cfg.queue_high_water
                    ),
                ))
            } else {
                q.push_back(Job {
                    req: req.clone(),
                    conn: Arc::clone(conn),
                    enqueued_at: Instant::now(),
                });
                self.engine
                    .gauges
                    .queue_depth
                    .store(q.len() as u64, Ordering::Relaxed);
                None
            }
        };
        match verdict {
            None => self.ready.notify_one(),
            Some((status, msg)) => {
                let resp = Response::error(&req.id, status, &msg);
                conn.send(&self.engine.finish(&req, resp, tel));
            }
        }
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
                    state
                        .engine
                        .gauges
                        .dispatcher_deaths
                        .fetch_add(1, Ordering::Relaxed);
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

/// Runs one request with its failure contained: injected delays and
/// panics fire here (keyed on the request id), and *any* panic out of
/// [`Engine::handle`] — injected or real — becomes a `status:"error"`
/// response plus an [`Event::RequestPanic`], never a dead daemon.
///
/// Also the head of the server-side lifecycle spans: `queue_wait`
/// (admission → batch pop), `dispatch` (pop → handler entry). A slow
/// fault's sleep lands in `dispatch` — the delay is real latency and
/// must not vanish from the breakdown — and a panicking request is
/// flight-recorded here (the engine's own observation point never ran)
/// and triggers a `request-panic` dump.
fn handle_contained(
    state: &State,
    req: &Request,
    enqueued_at: Instant,
    popped_at: Instant,
    tel: &Telemetry,
) -> Response {
    let phases = PhaseTimer::new();
    phases.add_us(
        Phase::QueueWait,
        popped_at.duration_since(enqueued_at).as_micros() as u64,
    );
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
        state
            .engine
            .gauges
            .faults_injected
            .fetch_add(1, Ordering::Relaxed);
        if tel.is_enabled() {
            tel.emit(Event::FaultInjected {
                site: "slow",
                trace_id: req.id.clone(),
            });
        }
        thread::sleep(fault.slow);
    }
    phases.add_us(Phase::Dispatch, popped_at.elapsed().as_micros() as u64);
    let result = catch_unwind(AssertUnwindSafe(|| {
        if fault.is_active() && fault.fires(FaultSite::Panic, &req.id) {
            state
                .engine
                .gauges
                .faults_injected
                .fetch_add(1, Ordering::Relaxed);
            if tel.is_enabled() {
                tel.emit(Event::FaultInjected {
                    site: "panic",
                    trace_id: req.id.clone(),
                });
            }
            panic!("injected handler panic for request {}", req.id);
        }
        state.engine.handle_phased(req, tel, &phases)
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
            state
                .engine
                .gauges
                .request_panics
                .fetch_add(1, Ordering::Relaxed);
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
                .record(FlightRecord::capture(req, "error", "-", &phases));
            state.engine.flight.dump("request-panic");
            resp
        }
    }
}

/// Per-connection reader: frame lines, answer protocol errors and
/// `shutdown` inline, admit the rest.
///
/// Framing is done by hand on a byte buffer rather than
/// `BufReader::read_line` because reads run under a poll timeout, and
/// `read_line` discards partially read bytes when it returns an error —
/// a request split across TCP segments would be corrupted.
fn reader_loop(mut stream: TcpStream, state: &Arc<State>, tel: &Telemetry) {
    // Accepted sockets may inherit the listener's non-blocking mode on
    // some platforms; normalize to blocking-with-timeout. Nagle off:
    // responses are single small writes and latency is the product.
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn::new(state.cfg.outbound_max));
    state
        .engine
        .gauges
        .connections
        .fetch_add(1, Ordering::Relaxed);
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
    state
        .engine
        .gauges
        .connections
        .fetch_sub(1, Ordering::Relaxed);
}

/// The reader's framing/admission loop (split out so [`reader_loop`]
/// can run cleanup — close + join the writer — on every exit path).
fn read_requests(stream: &mut TcpStream, conn: &Arc<Conn>, state: &Arc<State>, tel: &Telemetry) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
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
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_request(line) {
                Ok(req) if req.op == ReqOp::Shutdown => {
                    let resp = Response {
                        id: req.id.clone(),
                        status: "draining",
                        cache: "-",
                        body: ",\"op\":\"shutdown\"".to_string(),
                        timings: None,
                    };
                    conn.send(&state.engine.finish(&req, resp, tel));
                    state.start_drain("shutdown request", tel);
                    return;
                }
                Ok(req) => state.admit(req, conn, tel),
                Err(e) => {
                    let resp = Response::error(&e.id, "error", &e.message);
                    conn.send(&state.engine.finish_admission(&e.id, "proto", resp, tel));
                }
            }
        }
    }
}

/// Per-connection writer: drains the bounded outbound queue onto the
/// socket under the write deadline. This is the only thread that writes
/// to the socket, so a stalled client stalls exactly one thread — and
/// only until the deadline kills the connection.
fn writer_loop(conn: &Arc<Conn>, mut stream: TcpStream, state: &State, tel: &Telemetry) {
    let _ = stream.set_write_timeout(Some(POLL));
    let fault = &state.cfg.fault;
    loop {
        let next = {
            let mut out = lock_unpoisoned(&conn.out);
            loop {
                if out.dead {
                    return;
                }
                if let Some(item) = out.queue.pop_front() {
                    break Some(item);
                }
                // Flush complete: exit once nobody can enqueue anymore
                // (reader gone, no queued/in-flight job holds the conn).
                if out.closed && Arc::strong_count(conn) == 1 {
                    break None;
                }
                // Timed wait: job completions don't notify the condvar,
                // so re-check the strong count periodically.
                let (guard, _timeout) = conn
                    .ready
                    .wait_timeout(out, POLL)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                out = guard;
            }
        };
        let Some((id, line)) = next else { return };
        if fault.is_active() && fault.fires(FaultSite::Drop, &id) {
            state
                .engine
                .gauges
                .faults_injected
                .fetch_add(1, Ordering::Relaxed);
            if tel.is_enabled() {
                tel.emit(Event::FaultInjected {
                    site: "drop",
                    trace_id: id.clone(),
                });
            }
            shed_connection(conn, &stream, state, tel, "injected connection drop");
            state.engine.flight.dump("fault-injected");
            return;
        }
        let torn = fault.is_active() && fault.fires(FaultSite::ShortWrite, &id);
        let write_start = Instant::now();
        let wrote = if torn && line.len() >= 2 {
            state
                .engine
                .gauges
                .faults_injected
                .fetch_add(1, Ordering::Relaxed);
            if tel.is_enabled() {
                tel.emit(Event::FaultInjected {
                    site: "short-write",
                    trace_id: id.clone(),
                });
            }
            // A torn write: the same bytes in two TCP segments. Client
            // framing must reassemble them — the response is *not*
            // faulted, and chaos tests assert it stays byte-identical.
            let mid = line.len() / 2;
            write_with_deadline(&mut stream, line.as_bytes()[..mid].as_ref(), state)
                .and_then(|()| write_with_deadline(&mut stream, &line.as_bytes()[mid..], state))
        } else {
            write_with_deadline(&mut stream, line.as_bytes(), state)
        };
        match wrote {
            Ok(()) => {
                let _ = stream.flush();
                // The outbound write happens after the response is
                // rendered, so it can never ride on the request's own
                // timer — it feeds the phase histogram directly.
                state
                    .engine
                    .record_phase_sample(Phase::Write, write_start.elapsed().as_micros() as u64);
            }
            Err(e) => {
                // A vanished client is not a server error; a stalled one
                // is shed. Either way the connection is done.
                let why = if e.kind() == std::io::ErrorKind::TimedOut {
                    "write deadline exceeded (stalled client)"
                } else {
                    "client connection lost"
                };
                shed_connection(conn, &stream, state, tel, why);
                if e.kind() == std::io::ErrorKind::TimedOut {
                    state.engine.flight.dump("write-shed");
                }
                return;
            }
        }
    }
}

/// Declares a connection dead: discards its outbound queue, shuts the
/// socket down (which also unblocks its reader), and accounts the shed.
fn shed_connection(conn: &Conn, stream: &TcpStream, state: &State, tel: &Telemetry, why: &str) {
    let shed = conn.kill();
    let _ = stream.shutdown(Shutdown::Both);
    state
        .engine
        .gauges
        .conn_shed
        .fetch_add(1, Ordering::Relaxed);
    state
        .engine
        .gauges
        .responses_shed
        .fetch_add(shed, Ordering::Relaxed);
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
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
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
            state
                .engine
                .gauges
                .queue_depth
                .store(q.len() as u64, Ordering::Relaxed);
            batch
        };
        let popped_at = Instant::now();
        let gauges = &state.engine.gauges;
        gauges
            .inflight
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Fast path: a lone request runs on the dispatcher thread — no
        // worker spawn, so a cache hit costs microseconds, not a thread.
        // Telemetry still goes through fork/absorb, same as the pool.
        if let [job] = batch.as_slice() {
            let resp = if tel.is_enabled() {
                let child = tel.fork();
                let resp = handle_contained(state, &job.req, job.enqueued_at, popped_at, &child);
                tel.absorb(child, 0);
                resp
            } else {
                handle_contained(state, &job.req, job.enqueued_at, popped_at, tel)
            };
            job.conn.send(&resp);
            gauges.inflight.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        // Identical requests inside one batch must not race on the
        // result cache: the loser's "cache" tag would depend on worker
        // timing, a --jobs-dependent byte in the response stream. First
        // occurrences of each key run on the pool; duplicates replay
        // afterwards in admission order, where they hit the cache
        // exactly as a serial run would.
        let keys: Vec<_> = batch
            .iter()
            .map(|j| state.engine.request_key(&j.req))
            .collect();
        let follower: Vec<bool> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| k.is_some() && keys[..i].contains(k))
            .collect();
        let leader_idx: Vec<usize> = (0..batch.len()).filter(|&i| !follower[i]).collect();
        let leader_resps = pool.map_traced(tel, "serve-batch", &leader_idx, |tel, _i, &idx| {
            let job = &batch[idx];
            handle_contained(state, &job.req, job.enqueued_at, popped_at, tel)
        });
        let mut responses: Vec<Option<Response>> = batch.iter().map(|_| None).collect();
        for (&idx, resp) in leader_idx.iter().zip(leader_resps) {
            responses[idx] = Some(resp);
        }
        for (i, job) in batch.iter().enumerate() {
            if !follower[i] {
                continue;
            }
            let resp = if tel.is_enabled() {
                let child = tel.fork();
                let resp = handle_contained(state, &job.req, job.enqueued_at, popped_at, &child);
                tel.absorb(child, 0);
                resp
            } else {
                handle_contained(state, &job.req, job.enqueued_at, popped_at, tel)
            };
            responses[i] = Some(resp);
        }
        for (job, resp) in batch.iter().zip(&responses) {
            job.conn
                .send(resp.as_ref().expect("every batch job is answered"));
        }
        gauges
            .inflight
            .fetch_sub(batch.len() as u64, Ordering::Relaxed);
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
        // send/close/kill all reacquire the poisoned lock; none may panic.
        conn.send(&Response::error("x", "error", "after poison"));
        assert_eq!(lock_unpoisoned(&conn.out).queue.len(), 1);
        conn.close();
        assert_eq!(conn.kill(), 1, "the queued response is discarded");
        conn.send(&Response::error("y", "error", "dead conn"));
        assert!(lock_unpoisoned(&conn.out).queue.is_empty());
    }

    /// A full outbound queue sheds new responses instead of blocking.
    #[test]
    fn outbound_overflow_sheds_instead_of_blocking() {
        let conn = Conn::new(2);
        for i in 0..5 {
            conn.send(&Response::error(&format!("r{i}"), "error", "x"));
        }
        let out = lock_unpoisoned(&conn.out);
        assert_eq!(out.queue.len(), 2, "capacity respected");
        assert_eq!(out.shed, 3, "overflow accounted");
    }
}
