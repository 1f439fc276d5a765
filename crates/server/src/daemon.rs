//! The threaded TCP daemon: connection readers, per-connection writers,
//! a bounded admission queue, `jobs` long-lived workers, and graceful
//! drain — with every failure contained to the request or connection
//! that caused it.
//!
//! # Threading model
//!
//! ```text
//!             accept loop (blocking; drain wakes it by connecting)
//!                  │ one reader + one writer thread per live connection
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
//!                  ▼ (`jobs` worker threads)
//!   worker: pop the first job whose key no worker is running
//!           → contained handler → hand the answer to its conn at once
//!                  │
//!                  ▼ (per-connection writer thread)
//!   writer: pop the next line in sequence order → write under the
//!           write deadline
//!           └─ stalled past the deadline → shed the conn (close it)
//! ```
//!
//! A request whose answer is already in the result cache needs no
//! scheduling, so it gets none: when nothing is owed to its connection
//! (see `Conn` for the counters that decide, and why that makes the
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
//!   re-opens as soon as the workers drain below the mark.
//! - **draining** — after a `shutdown` request or SIGTERM/SIGINT: no
//!   new admissions (late requests get `{"status":"draining"}`), queued
//!   and in-flight work completes, readers close once idle, the
//!   workers exit when the queue is empty, and [`ServerHandle::wait`]
//!   returns.
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
//!   `Engine::handle_routed`, wherever the request is served: a worker
//!   or a reader), answered `status:"error"` with the panic payload,
//!   recorded as an [`Event::RequestPanic`], and forgotten — the daemon
//!   keeps serving. Locks are poison-tolerant
//!   ([`ltsp_telemetry::lock_unpoisoned`]), so an unwinding thread
//!   cannot cascade-abort the process.
//! - **A stalled client** stalls and sheds only *itself*: a worker only
//!   ever hands a line to a per-connection buffer whose released part is
//!   bounded (overflow past [`ServerConfig::outbound_max`] is shed), and
//!   whichever of the connection's own two threads is writing kills the
//!   connection once a write stalls past
//!   [`ServerConfig::write_deadline`]. Other connections never wait.
//! - **A dying worker** is loud: drain trips,
//!   `Event::ServerLifecycle { phase: "dispatcher-died" }` fires, and
//!   every request still queued is answered `error`; a job the worker
//!   had popped answers `error` itself when it is dropped.
//! - **A failed accept**, or a connection whose threads cannot be had,
//!   refuses that one connection, and accepting goes on
//!   ([`crate::framing::serve_connections`]).
//! - **An endless request line**, [`crate::framing::MAX_REQUEST_BYTES`]
//!   without a newline, is answered `error` and its connection closed.
//! - **Injected faults** ([`FaultPlan`], `LTSP_FAULT`) exercise all of
//!   the above deterministically ([`crate::fault`]).
//!
//! # Drain semantics
//!
//! The drain flag only ever flips **under the queue lock**, and a
//! worker's exit check (`draining && queue empty`) also holds it.
//! Admission therefore observes a total order against drain: a request
//! either lands in the queue before the flip — and is guaranteed to be
//! served — or sees the flag and is answered `draining`. Nothing is
//! admitted and then abandoned.
//!
//! Nothing needs a clock to see the flip: it notifies the workers'
//! condvar and wakes the blocking accept ([`crate::framing::wake`]); a
//! writer waits until its connection is closed and owed nothing. Only an
//! idle reader notices on its read timeout, which delays no request (and
//! one idle worker wakes on `IDLE_WAKE`). Every job is answered, even
//! one a dying worker drops, and every reader closes its connection,
//! even one that panics, so no writer, and no drain, waits forever.
//!
//! # Determinism
//!
//! Which worker runs a job, and when, depends on arrival timing — but
//! every response is a pure function of its request (see
//! [`crate::engine`]); a connection's lines leave in the order its
//! reader numbered them (`Conn`); and a worker pops only a job whose
//! first-level key no worker is running, so a duplicate runs after its
//! leader and gets a serial run's `cache` tag. The bytes each client
//! reads are therefore identical at any `--jobs`, which CI enforces —
//! and because fault decisions are also request-keyed, the same holds
//! for every *non-faulted* request under an active [`FaultPlan`] (the
//! chaos tests' core assertion).

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use ltsp_cache::Fingerprint;
use ltsp_telemetry::{lock_unpoisoned, Event, Phase, PhaseTimer, Telemetry};

use crate::counters::Counter;
use crate::engine::{Engine, EngineConfig, Route};
use crate::fault::{FaultPlan, FaultSite};
use crate::flight::FlightRecord;
use crate::framing::{read_lines, serve_connections, timed_out, wake, Lines, BUFFER_KEEP_BYTES};
use crate::proto::{parse_request, ReqOp, Request, Response};
use crate::signal::drain_on_signal;

/// How often one idle worker wakes while the queue is empty and a
/// connection is open; the others, and all of them with none open, wait
/// untimed. Nothing needs the wake-ups, but without them `serve_warm`'s
/// closed-loop hits lost ~12 % of their throughput and their p99 rose
/// 60 % on a 2-vCPU VM, which is how slowly an idle vCPU wakes, not
/// serving code (DESIGN.md §12).
const IDLE_WAKE: Duration = Duration::from_millis(5);

/// Exit code of a process killed by the injected `shardkill` fault, so
/// supervisors and chaos tests can tell an injected kill from a crash.
pub const SHARD_KILL_EXIT_CODE: i32 = 113;

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads, each running one queued job at a time.
    pub jobs: usize,
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
    /// default; `ltspc serve` turns it on.
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

/// One admitted request plus where its response goes. Its writer waits
/// for the response, so a job dropped unanswered answers `error` itself.
struct Job {
    req: Request,
    /// Its line's place in its connection's response order.
    seq: u64,
    /// The first-level cache key, computed once where the request was
    /// read (`None` for ops that never cache).
    key: Option<Fingerprint>,
    conn: Arc<Conn>,
    /// Admission time, for the `queue_wait` phase span.
    enqueued_at: Instant,
    answered: bool,
}

impl Job {
    fn reply(&mut self, resp: &Response) {
        self.conn.send(self.seq, resp);
        self.answered = true;
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if !self.answered {
            let why = "request abandoned: its worker was lost";
            self.conn
                .send(self.seq, &Response::error(&self.req.id, "error", why));
        }
    }
}

/// A connection's outbound lines, drained by its writer thread.
#[derive(Default)]
struct Outbound {
    /// Lines finished ahead of an earlier one, by sequence number.
    held: BTreeMap<u64, (String, String)>,
    /// The next sequence number to release: every line before it was.
    release: u64,
    /// `(response id, rendered line)` released in sequence order.
    queue: VecDeque<(String, String)>,
    /// The reader finished; the writer flushes what is queued (and what
    /// in-flight jobs still answer) and exits once nothing is owed.
    closed: bool,
    /// The connection was declared dead (stalled past the write
    /// deadline, injected drop, or a hard I/O error): discard
    /// everything, immediately.
    dead: bool,
    /// Responses dropped because the queue was full.
    shed: u64,
}

/// The sending half of a connection, a state machine shared by its
/// reader, the workers and its writer thread. The reader **owes** a line
/// ([`Conn::owe`]) for each admission or immediate answer, which takes
/// the next sequence number; whoever answers **sends** it
/// ([`Conn::send`], which never blocks on the network), and it is held
/// until every earlier line is released; the writer **settles** it once
/// written. A shed or discarded line is settled where that happens.
///
/// # Who may write to the socket
///
/// `issued − settled` is what the connection is owed. Only the reader
/// raises `issued`, so when the reader sees the two equal
/// ([`Conn::idle`]) nothing of this connection is in flight, held,
/// queued or half-way onto the socket — and nothing can be until the
/// reader itself says so. For that long the socket's write side belongs
/// to the reader; at every other time it belongs to the writer thread.
/// Bytes of two responses therefore never interleave, and no answer
/// overtakes an earlier request of its connection.
struct Conn {
    out: Mutex<Outbound>,
    /// Notified on every change to `out`.
    ready: Condvar,
    max: usize,
    /// Sequence numbers handed out; only the reader raises it.
    issued: AtomicU64,
    /// Lines written, shed or discarded. Its `Release` adds pair with
    /// [`Conn::idle`]'s `Acquire` load: a reader that sees nothing owed
    /// also sees the last write to the socket finished.
    settled: AtomicU64,
}

impl Conn {
    fn new(max: usize) -> Conn {
        Conn {
            out: Mutex::new(Outbound::default()),
            ready: Condvar::new(),
            max: max.max(1),
            issued: AtomicU64::new(0),
            settled: AtomicU64::new(0),
        }
    }

    /// Books one line the reader — the only caller — is about to owe
    /// (an admission, or an immediate answer): its sequence number.
    fn owe(&self) -> u64 {
        self.issued.fetch_add(1, Ordering::Release)
    }

    /// Books `n` owed lines as written, shed or discarded.
    fn settle(&self, n: usize) {
        self.settled.fetch_add(n as u64, Ordering::Release);
    }

    /// True when nothing is owed: the reader may write to the socket
    /// itself until its next [`Conn::owe`].
    fn idle(&self) -> bool {
        self.settled.load(Ordering::Acquire) == self.issued.load(Ordering::Acquire)
    }

    /// Hands over the answer owed as line `seq`: held until every
    /// earlier line is released, then released in order. A release past
    /// `max` queued lines is shed (the client is not reading; shedding
    /// its own responses is the contained failure), a dead connection
    /// discards the line; either is settled under the lock and announced
    /// like a queued line: a closed connection's writer waits for that.
    fn send(&self, seq: u64, resp: &Response) {
        let mut line = String::new();
        resp.render_into(&mut line);
        line.push('\n');
        let mut guard = lock_unpoisoned(&self.out);
        let out = &mut *guard;
        let mut next = None;
        if out.dead {
            self.settle(1);
        } else if seq == out.release {
            next = Some((resp.id.clone(), line));
        } else {
            out.held.insert(seq, (resp.id.clone(), line));
        }
        while let Some(item) = next {
            out.release += 1;
            if out.queue.len() >= self.max {
                out.shed += 1;
                self.settle(1);
            } else {
                out.queue.push_back(item);
            }
            next = out.held.remove(&out.release);
        }
        drop(guard);
        self.ready.notify_all();
    }

    /// A reader-side immediate answer (parse error, `overloaded`,
    /// `draining`, the `shutdown` acknowledgement): owed from here on,
    /// written by the writer thread after every earlier line.
    fn answer(&self, resp: &Response) {
        let seq = self.owe();
        self.send(seq, resp);
    }

    /// Whether the reader may read on: waits while `max` lines are held
    /// back behind an unfinished one, so a connection's buffer stays
    /// bounded however slow its head job is. `false` once dead.
    fn room(&self) -> bool {
        let mut out = lock_unpoisoned(&self.out);
        while !out.dead && out.held.len() >= self.max {
            out = self.ready.wait(out).unwrap_or_else(PoisonError::into_inner);
        }
        !out.dead
    }

    /// The writer's next step from `out`: `Some(Some(line))` to write
    /// (it stays owed until the writer [`Conn::settle`]s it), `Some(None)`
    /// to exit, `None` to wait.
    fn poll_line(&self, out: &mut Outbound) -> Option<Option<(String, String)>> {
        if out.dead {
            return Some(None);
        }
        match out.queue.pop_front() {
            Some(item) => Some(Some(item)),
            // Flush complete once the reader is gone and nothing is owed:
            // only the reader raises `issued`, so nothing can be owed anymore.
            None => (out.closed && self.idle()).then_some(None),
        }
    }

    /// The writer thread's next line, or `None` once the connection is
    /// dead or flushed and closed. Every change that can end the wait —
    /// a line released or shed, the connection closed or killed — is
    /// made under the lock and notifies.
    fn next_line(&self) -> Option<(String, String)> {
        let mut out = lock_unpoisoned(&self.out);
        loop {
            if let Some(next) = self.poll_line(&mut out) {
                return next;
            }
            out = self.ready.wait(out).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks the reader side finished: the writer flushes and exits.
    fn close(&self) {
        lock_unpoisoned(&self.out).closed = true;
        self.ready.notify_all();
    }

    /// Declares the connection dead and discards everything queued or
    /// held.
    fn kill(&self) -> u64 {
        let mut out = lock_unpoisoned(&self.out);
        out.dead = true;
        let dropped = out.queue.len() + out.held.len();
        out.queue.clear();
        out.held.clear();
        out.shed += dropped as u64;
        let shed = out.shed;
        drop(out);
        self.settle(dropped);
        self.ready.notify_all();
        shed
    }
}

/// The admission queue and the first-level keys of the jobs being run.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// A queued job whose key is here waits until its twin is done.
    running: HashSet<Fingerprint>,
    /// An idle worker is taking the timed [`IDLE_WAKE`] wait; every other
    /// idle worker waits untimed, so a daemon keeps one heartbeat.
    heartbeat: bool,
}

/// Shared daemon state.
struct State {
    /// The listener's bound address, which drain connects to.
    addr: SocketAddr,
    engine: Engine,
    queue: Mutex<Queue>,
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
            } else if q.jobs.len() >= self.cfg.queue_high_water {
                (
                    "overloaded",
                    format!(
                        "admission queue at high-water mark ({})",
                        self.cfg.queue_high_water
                    ),
                )
            } else {
                q.jobs.push_back(Job {
                    req,
                    seq: conn.owe(),
                    key,
                    conn: Arc::clone(conn),
                    enqueued_at: Instant::now(),
                    answered: false,
                });
                let depth = q.jobs.len() as u64;
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
        self.ready.notify_all();
        if flipped {
            wake(self.addr);
            if tel.is_enabled() {
                tel.emit(Event::ServerLifecycle {
                    phase: "drain",
                    detail: why.to_string(),
                });
            }
        }
    }
}

/// A running server: the actually bound address plus a way to stop it.
pub struct ServerHandle {
    state: Arc<State>,
    join: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
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
/// A server's caches are filled by its worker threads, so they live in
/// those threads' glibc arenas, and freeing them from another thread leaves
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
/// is accepting. `ltspc serve` then blocks in [`ServerHandle::wait`].
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let state = Arc::new(State {
        addr: listener.local_addr()?,
        engine: Engine::new(cfg.engine.clone()),
        queue: Mutex::new(Queue::default()),
        ready: Condvar::new(),
        draining: AtomicBool::new(false),
        cfg,
    });
    if state.cfg.handle_signals {
        let (done, drain) = (Arc::downgrade(&state), Arc::downgrade(&state));
        drain_on_signal(
            "ltspd-signal",
            move || {
                done.upgrade()
                    .is_none_or(|s| s.draining.load(Ordering::SeqCst))
            },
            move || {
                if let Some(s) = drain.upgrade() {
                    s.start_drain("signal", &s.cfg.telemetry);
                }
            },
        );
    }
    let st = Arc::clone(&state);
    let join = thread::Builder::new()
        .name("ltspd-accept".to_string())
        .spawn(move || run(listener, st))?;
    Ok(ServerHandle { state, join })
}

fn run(listener: TcpListener, state: Arc<State>) {
    let tel = state.cfg.telemetry.clone();
    if tel.is_enabled() {
        tel.emit(Event::ServerLifecycle {
            phase: "listen",
            detail: state.addr.to_string(),
        });
    }

    let workers: Vec<_> = (0..state.cfg.jobs.max(1))
        .map(|_| {
            let state = Arc::clone(&state);
            let tel = tel.clone();
            thread::Builder::new()
                .name("ltspd-dispatch".to_string())
                .spawn(move || {
                    let died = catch_unwind(AssertUnwindSafe(|| work(&state, &tel)));
                    if let Err(payload) = died {
                        worker_died(&state, &tel, &panic_message(payload.as_ref()));
                    }
                })
                .expect("spawn ltspd worker")
        })
        .collect();

    serve_connections(
        &listener,
        "ltspd-conn",
        &state.draining,
        state.cfg.write_deadline,
        |stream| serve_connection(stream, &state, &tel),
    );
    drop(listener);
    for worker in workers {
        let _ = worker.join();
    }
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

/// A panic escaping `work` (a bug outside the per-request containment)
/// is loud and terminal: it trips drain, and one sweep answers every job
/// that beat the flip with an error; its notify wakes the other workers.
fn worker_died(state: &State, tel: &Telemetry, why: &str) {
    eprintln!("ltspd: dispatcher died: {why}");
    state.engine.counters().add(Counter::DispatcherDeaths, 1);
    state.engine.flight.dump("dispatcher-died");
    tel.emit(Event::ServerLifecycle {
        phase: "dispatcher-died",
        detail: why.to_string(),
    });
    state.start_drain("dispatcher died", tel);
    let orphans: Vec<Job> = lock_unpoisoned(&state.queue).jobs.drain(..).collect();
    state.ready.notify_all();
    for mut job in orphans {
        let msg = format!("dispatcher died ({why}); request abandoned");
        let resp = Response::error(&job.req.id, "error", &msg);
        job.reply(&state.engine.finish(&job.req, resp, tel));
    }
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
/// through here, on whichever thread serves it: a worker, or — for a
/// [`Route::Inline`] hit — its connection's reader. Its telemetry goes
/// to a fork of `tel`, absorbed whole when it is done, so concurrent
/// requests never interleave their events.
///
/// Also the head of the server-side lifecycle spans. A queued request
/// (`waited` = its admission and pop times) has `queue_wait`
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
    parent: &Telemetry,
) -> Response {
    let child = parent.fork();
    let tel = &child;
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
    let resp = match result {
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
    };
    parent.absorb(child, 0);
    resp
}

/// One connection: its writer thread beside [`read_lines`] with its
/// [`Reader`]. Once reading ends, however it ends, the writer flushes
/// what is still owed and exits, and the connection with it. A
/// connection whose writer thread cannot be had is refused.
fn serve_connection(mut stream: TcpStream, state: &State, tel: &Telemetry) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = &Arc::new(Conn::new(state.cfg.outbound_max));
    thread::scope(|scope| {
        let Ok(writer) = thread::Builder::new()
            .name("ltspd-write".to_string())
            .spawn_scoped(scope, move || writer_loop(conn, write_half, state, tel))
        else {
            return;
        };
        // An idle worker waits untimed only while no connection is open
        // (see [`IDLE_WAKE`]): count this one under its lock.
        let q = lock_unpoisoned(&state.queue);
        state.engine.counters().add(Counter::Connections, 1);
        drop(q);
        state.ready.notify_one();
        let mut reader = Reader {
            conn,
            state,
            tel,
            out: String::new(),
        };
        let read = || read_lines(&mut stream, &state.draining, &mut reader);
        let _ = catch_unwind(AssertUnwindSafe(read));
        conn.close();
        let _ = writer.join();
        state.engine.counters().sub(Counter::Connections, 1);
    });
}

/// A connection's reader: answers protocol errors, `shutdown` and, on an
/// idle connection, result-cache hits itself, and admits the rest.
struct Reader<'a> {
    conn: &'a Arc<Conn>,
    state: &'a State,
    tel: &'a Telemetry,
    /// The line of an inline answer, reused from hit to hit.
    out: String,
}

impl Lines for Reader<'_> {
    /// Returns `false` when the reader should stop: drain began, or the
    /// connection died.
    fn line(&mut self, stream: &mut TcpStream, line: &str) -> bool {
        let (conn, state, tel) = (self.conn, self.state, self.tel);
        // The writer may have declared the connection dead (stalled past
        // the write deadline); serve it nothing more.
        if !conn.room() {
            return false;
        }
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
                // The same contained handler and the same write routine as
                // the queued path, minus the queue, the worker and the
                // writer hand-off.
                let resp = handle_contained(state, &req, Route::Inline(hit), None, tel);
                self.out.clear();
                self.out.shrink_to(BUFFER_KEEP_BYTES);
                resp.render_into(&mut self.out);
                self.out.push('\n');
                return write_line(conn, stream, &resp.id, &self.out, state, tel);
            }
        }
        state.admit(req, key, conn, tel);
        true
    }

    fn refuse(&mut self, _stream: &mut TcpStream, refusal: Response) -> bool {
        let id = refusal.id.clone();
        let refusal = self
            .state
            .engine
            .finish_admission(&id, "proto", refusal, self.tel);
        self.conn.answer(&refusal);
        true
    }
}

/// Per-connection writer: drains the bounded outbound queue onto the
/// socket under the write deadline. While anything is owed to the
/// connection this is the only thread that writes to its socket, so a
/// stalled client stalls exactly one thread — and only until the
/// deadline kills the connection.
fn writer_loop(conn: &Conn, mut stream: TcpStream, state: &State, tel: &Telemetry) {
    while let Some((id, line)) = conn.next_line() {
        if !write_line(conn, &mut stream, &id, &line, state, tel) {
            return;
        }
        conn.settle(1);
    }
}

/// Writes one rendered response line under the write deadline (the
/// socket's write timeout, so a write gives up once a single stall lasts
/// past [`ServerConfig::write_deadline`]) — the one routine behind every
/// byte the daemon sends, on the writer thread and on a reader answering
/// inline alike. The response-keyed faults (`drop`, `short-write`) fire
/// here, the `write` phase sample is taken here, and a stalled or
/// vanished client is shed here. Returns `false` when the connection is
/// dead.
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
        stream.write_all(head).and_then(|()| stream.write_all(tail))
    } else {
        stream.write_all(line.as_bytes())
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
            let stalled = timed_out(&e);
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

/// One worker: pops one job at a time — the first queued job whose key
/// no worker is running — runs it under [`handle_contained`], and hands
/// its answer to its connection as soon as it is done. A worker never
/// blocks on a socket and never unwinds past a request.
fn work(state: &State, tel: &Telemetry) {
    let fault = &state.cfg.fault;
    let counters = state.engine.counters();
    loop {
        let mut job = {
            let mut q = lock_unpoisoned(&state.queue);
            // Admission, drain, a connection opening and a key coming
            // free act under this lock and notify, so the wait misses
            // none of them.
            let at = loop {
                let free = |j: &Job| j.key.is_none_or(|k| !q.running.contains(&k));
                if let Some(at) = q.jobs.iter().position(free) {
                    break at;
                }
                if q.jobs.is_empty() && state.draining.load(Ordering::SeqCst) {
                    // Draining and empty — and since drain flips under
                    // this lock, nothing can be admitted after this.
                    return;
                }
                q = if counters.get(Counter::Connections) == 0 || q.heartbeat {
                    state.ready.wait(q).unwrap_or_else(PoisonError::into_inner)
                } else {
                    q.heartbeat = true;
                    let woke = state.ready.wait_timeout(q, IDLE_WAKE);
                    let mut q = woke.unwrap_or_else(PoisonError::into_inner).0;
                    q.heartbeat = false;
                    q
                };
            };
            // The worker-death drill: fire *before* popping, so the
            // queue is intact for the died-handler's error sweep.
            if fault.is_active() && fault.fires(FaultSite::Dispatch, &q.jobs[at].req.id) {
                let id = q.jobs[at].req.id.clone();
                drop(q);
                tel.emit(Event::FaultInjected {
                    site: "dispatch",
                    trace_id: id.clone(),
                });
                panic!("injected dispatcher panic at request {id}");
            }
            let job = q.jobs.remove(at).expect("a found job is queued");
            q.running.extend(job.key);
            counters.set(Counter::QueueDepth, q.jobs.len() as u64);
            job
        };
        counters.add(Counter::Inflight, 1);
        let waited = Some((job.enqueued_at, Instant::now()));
        let resp = handle_contained(state, &job.req, Route::Queued(job.key), waited, tel);
        if let Some(key) = job.key {
            let mut q = lock_unpoisoned(&state.queue);
            q.running.remove(&key);
            if q.jobs.iter().any(|j| j.key == Some(key)) {
                // A queued twin waits for the key.
                drop(q);
                state.ready.notify_all();
            }
        }
        job.reply(&resp);
        counters.sub(Counter::Inflight, 1);
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
            conn.issued.load(Ordering::Acquire) - conn.settled.load(Ordering::Acquire),
            2,
            "only the queued stay owed"
        );
    }

    /// A closed connection's writer stays while anything is owed, and
    /// exits once the last owed line is written, woken by nothing but
    /// the line itself.
    #[test]
    fn a_closed_writer_exits_once_nothing_is_owed() {
        let conn = Arc::new(Conn::new(4));
        let seq = conn.owe(); // a job in flight
        conn.close(); // the reader is gone
        let writer = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                let mut written = Vec::new();
                while let Some((id, _line)) = conn.next_line() {
                    written.push(id);
                    conn.settle(1);
                }
                written
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(!writer.is_finished(), "a response is still owed");
        conn.send(seq, &Response::error("late", "error", "x")); // a worker answers
        assert_eq!(writer.join().expect("writer"), ["late"]);
    }

    /// A job dropped unanswered — popped by a dying worker — answers
    /// `error` itself, so its closed connection's
    /// writer writes that and exits instead of waiting forever.
    #[test]
    fn a_job_dropped_unanswered_still_releases_its_writer() {
        let conn = Arc::new(Conn::new(4));
        let req = parse_request(r#"{"id":"lost","op":"ping"}"#).expect("ping");
        let job = Job {
            req,
            seq: conn.owe(), // admission
            key: None,
            conn: Arc::clone(&conn),
            enqueued_at: Instant::now(),
            answered: false,
        };
        conn.close(); // the reader is gone
        let writer = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                let mut written = Vec::new();
                while let Some((_id, line)) = conn.next_line() {
                    written.push(line);
                    conn.settle(1);
                }
                written
            })
        };
        drop(job);
        let t0 = Instant::now();
        while !writer.is_finished() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "the writer waits on"
            );
            thread::sleep(Duration::from_millis(10));
        }
        let written = writer.join().expect("writer");
        assert_eq!(written.len(), 1, "{written:?}");
        assert!(written[0].contains(r#""id":"lost""#), "{written:?}");
        assert!(written[0].contains("abandoned"), "{written:?}");
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
        let seq = conn.owe(); // admission
        assert!(!conn.idle(), "in flight");
        conn.send(seq, &Response::error("a", "error", "x")); // a worker answers
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

    /// `Conn` as a state machine, every interleaving of one small
    /// scenario: the reader admits jobs `a` and `b`, makes the immediate
    /// answer `c` and closes; two workers answer `a` and `b` in either
    /// order; the writer pops and settles. In every interleaving the
    /// lines leave in sequence order, each exactly once; `idle()` holds
    /// exactly when nothing is owed; and the writer exits only once the
    /// connection is closed and owes nothing.
    #[test]
    fn every_interleaving_releases_lines_in_sequence_order() {
        #[derive(Clone, Copy, Debug)]
        enum Move {
            Reader,
            Worker(usize),
            Writer,
        }
        #[derive(Default)]
        struct World {
            pc: usize,
            seqs: [Option<u64>; 2],
            sent: [bool; 2],
            owed: u64,
            holding: Option<String>,
            written: Vec<String>,
            exited: bool,
        }
        /// Replays `path` on a fresh connection; `None` if its last move
        /// is the writer finding nothing to do (it would wait).
        fn replay(path: &[Move]) -> Option<World> {
            let conn = Conn::new(8);
            let mut w = World::default();
            for (step, &m) in path.iter().enumerate() {
                match m {
                    Move::Reader => {
                        match w.pc {
                            0 | 1 => w.seqs[w.pc] = Some(conn.owe()),
                            2 => conn.answer(&Response::error("c", "error", "x")),
                            _ => conn.close(),
                        }
                        w.owed += u64::from(w.pc < 3);
                        w.pc += 1;
                    }
                    Move::Worker(i) => {
                        let id = ["a", "b"][i];
                        conn.send(w.seqs[i].unwrap(), &Response::error(id, "error", "x"));
                        w.sent[i] = true;
                    }
                    Move::Writer => match w.holding.take() {
                        Some(id) => {
                            conn.settle(1);
                            w.owed -= 1;
                            w.written.push(id);
                        }
                        None => match conn.poll_line(&mut lock_unpoisoned(&conn.out)) {
                            Some(Some((id, _))) => w.holding = Some(id),
                            Some(None) => {
                                assert!(w.pc == 4 && w.owed == 0, "{path:?}: early exit");
                                w.exited = true;
                            }
                            None if step + 1 == path.len() => return None,
                            None => unreachable!("only a last move may wait"),
                        },
                    },
                }
                assert_eq!(conn.idle(), w.owed == 0, "{path:?}");
            }
            let order = ["a", "b", "c"];
            let popped = w.written.iter().chain(&w.holding);
            assert!(popped.zip(order).all(|(x, y)| x == y), "{path:?}");
            Some(w)
        }
        fn explore(path: &mut Vec<Move>, complete: &mut usize) {
            let w = replay(path).expect("a stored path never ends waiting");
            let mut moves = Vec::new();
            if w.pc < 4 {
                moves.push(Move::Reader);
            }
            for i in 0..2 {
                if w.seqs[i].is_some() && !w.sent[i] {
                    moves.push(Move::Worker(i));
                }
            }
            if !w.exited {
                moves.push(Move::Writer);
            }
            let mut advanced = false;
            for m in moves {
                path.push(m);
                if replay(path).is_some() {
                    advanced = true;
                    explore(path, complete);
                }
                path.pop();
            }
            if !advanced {
                assert!(w.exited, "{path:?}: stuck before the writer exited");
                assert_eq!(w.written, ["a", "b", "c"], "{path:?}");
                *complete += 1;
            }
        }
        let mut complete = 0;
        explore(&mut Vec::new(), &mut complete);
        assert!(complete > 100, "only {complete} interleavings");
    }
}
