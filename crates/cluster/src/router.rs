//! `ltspr` — the shard router.
//!
//! A line-JSON proxy in front of N `ltspd` shards. Per client line:
//!
//! 1. Parse just enough to classify the op and derive the routing key
//!    (the loop text's fingerprint for loop-carrying ops; the raw line's
//!    otherwise, including unparseable lines — the owning shard renders
//!    the identical protocol error the client would get directly).
//! 2. Walk the ring's preference order (`Ring::preference`),
//!    live shards first. Forward the client's **raw line** and proxy the
//!    shard's **raw response line** back byte-for-byte: responses are
//!    pure functions of requests, so the router adds no bytes and the
//!    determinism contract survives the hop.
//! 3. Fail over on dead connections (connect/write/read errors, EOF,
//!    response deadline) and on `draining`/`overloaded` statuses, up to
//!    `max_attempts` distinct shards. A failed shard is marked dead for
//!    `cooldown` and skipped until it expires (one connect timeout per
//!    cooldown window, not per request). Exhausted attempts answer
//!    `status:"error"` — never a silent drop, never a wedged client.
//!
//! `stats` and `metrics` are answered by the router itself — `metrics`
//! scrapes every shard and re-exposes each sample with a `shard="N"`
//! label plus the router's own routing/failover families. `shutdown`
//! propagates: every shard is told to drain, the client gets the usual
//! `draining` ack, then the router itself drains.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ltsp_cache::Fingerprint;
use ltsp_server::client::Client;
use ltsp_server::framing::{read_lines, serve_connections, wake, Lines};
use ltsp_server::proto::{push_str_field, push_u64_field};
use ltsp_server::signal::drain_on_signal;
use ltsp_server::{parse_request, ReqOp, Response};
use ltsp_telemetry::prom::{self, PromSnapshot};
use ltsp_telemetry::{Event, Telemetry};

use crate::ring::{Ring, DEFAULT_VNODES};

/// How long a write to a client may block, and how long a refused
/// client's excess input is swallowed before the connection closes.
const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Deadline on the shard side of a `metrics` scrape or a drain broadcast.
const SHARD_CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard addresses in shard-index order (ring position = index).
    pub shard_addrs: Vec<String>,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// Distinct shards tried per request before answering `error`
    /// (0 = every shard once).
    pub max_attempts: usize,
    /// Per-shard connect timeout.
    pub connect_timeout: Duration,
    /// Per-request response deadline on a shard connection.
    pub read_timeout: Duration,
    /// How long a failed shard is skipped before being retried.
    pub cooldown: Duration,
    /// Drain gracefully on SIGTERM/SIGINT (process-global; binaries
    /// turn it on).
    pub handle_signals: bool,
    /// Supervisor-shared per-shard respawn counters, exposed through
    /// `metrics` when present.
    pub respawns: Option<Arc<Vec<AtomicU64>>>,
    /// Telemetry sink for lifecycle events.
    pub telemetry: Telemetry,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7199".to_string(),
            shard_addrs: Vec::new(),
            vnodes: DEFAULT_VNODES,
            max_attempts: 0,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(60),
            cooldown: Duration::from_secs(1),
            handle_signals: false,
            respawns: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Per-shard live state and counters.
#[derive(Debug)]
struct ShardState {
    addr: String,
    /// Responses proxied from this shard.
    routed: AtomicU64,
    /// Failures observed against this shard (I/O, draining, overloaded).
    failed: AtomicU64,
    /// Millis-since-router-start until which the shard is skipped
    /// (0 = considered live).
    dead_until_ms: AtomicU64,
}

/// Shared router state.
struct RouterState {
    /// The listener's bound address, which drain connects to.
    addr: SocketAddr,
    cfg: RouterConfig,
    ring: Ring,
    shards: Vec<ShardState>,
    started: Instant,
    draining: AtomicBool,
    connections: AtomicU64,
    /// Client lines handled (any outcome).
    requests: AtomicU64,
    /// Responses proxied from a shard.
    proxied: AtomicU64,
    /// Lines answered by the router itself (stats/metrics/shutdown/
    /// draining/exhausted).
    local: AtomicU64,
    /// Times a request moved past a failed/draining/overloaded shard.
    failovers: AtomicU64,
    /// Requests answered `error` after every candidate failed.
    exhausted: AtomicU64,
}

impl RouterState {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn mark_dead(&self, shard: usize) {
        let until = self.now_ms() + self.cfg.cooldown.as_millis() as u64 + 1;
        self.shards[shard]
            .dead_until_ms
            .store(until, Ordering::Relaxed);
    }

    fn mark_live(&self, shard: usize) {
        self.shards[shard].dead_until_ms.store(0, Ordering::Relaxed);
    }

    fn is_dead(&self, shard: usize) -> bool {
        let until = self.shards[shard].dead_until_ms.load(Ordering::Relaxed);
        until != 0 && self.now_ms() < until
    }

    fn start_drain(&self, why: &str) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        wake(self.addr);
        if self.cfg.telemetry.is_enabled() {
            self.cfg.telemetry.emit(Event::ServerLifecycle {
                phase: "drain",
                detail: format!("router: {why}"),
            });
        }
    }

    /// The effective failover budget: distinct shards tried per request.
    fn max_attempts(&self) -> usize {
        let n = self.shards.len();
        if self.cfg.max_attempts == 0 {
            n
        } else {
            self.cfg.max_attempts.min(n).max(1)
        }
    }
}

/// A running router: bound address plus lifecycle control.
pub struct RouterHandle {
    state: Arc<RouterState>,
    join: thread::JoinHandle<()>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// True once the router has fully drained and stopped.
    pub(crate) fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// True once drain has started (client `shutdown`, signal, or
    /// [`RouterHandle::shutdown`]).
    pub(crate) fn draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Initiates drain of the router itself (shards are left running;
    /// the supervisor owns their lifecycle) and waits for it to finish.
    pub fn shutdown(self) {
        self.state.start_drain("handle shutdown");
        let _ = self.join.join();
    }

    /// Waits for the router to drain on its own (client `shutdown`
    /// request or a signal).
    pub fn wait(self) {
        let _ = self.join.join();
    }
}

/// The routing key of one raw request line: the loop text's fingerprint
/// when the line parses to a loop-carrying request, the raw line's
/// otherwise. Pure, so tests can predict placements.
pub fn routing_key(line: &str) -> Fingerprint {
    match parse_request(line) {
        Ok(req) if !req.loop_text.is_empty() => Fingerprint::of_str(&req.loop_text),
        _ => Fingerprint::of_str(line.trim()),
    }
}

/// Extracts the `status` field of a rendered response line without a
/// full JSON parse. The envelope always opens `{"id":"...","status":"…"`
/// and `id` is JSON-escaped, so the first `","status":"` occurrence
/// belongs to the envelope (an embedded one inside `id` would carry
/// escaped quotes and not match).
fn response_status(line: &str) -> &str {
    let Some(i) = line.find("\",\"status\":\"") else {
        return "";
    };
    let rest = &line[i + 12..];
    match rest.find('"') {
        Some(j) => &rest[..j],
        None => "",
    }
}

/// Binds and routes in a background thread; returns once the listener
/// is accepting. Used by in-process tests and the cluster supervisor.
///
/// # Errors
///
/// Propagates the bind failure, and rejects an empty shard list.
pub fn spawn_router(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
    if cfg.shard_addrs.is_empty() {
        return Err(std::io::Error::other("router needs at least one shard"));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let ring = Ring::new(cfg.shard_addrs.len(), cfg.vnodes);
    let shards = cfg
        .shard_addrs
        .iter()
        .map(|a| ShardState {
            addr: a.clone(),
            routed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            dead_until_ms: AtomicU64::new(0),
        })
        .collect();
    let state = Arc::new(RouterState {
        addr: listener.local_addr()?,
        ring,
        shards,
        started: Instant::now(),
        draining: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        proxied: AtomicU64::new(0),
        local: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        exhausted: AtomicU64::new(0),
        cfg,
    });
    if state.cfg.handle_signals {
        // Drain propagates: the shards are told to shut down too, because
        // a signaled `ltspc serve --cluster` owns the whole cluster's
        // lifecycle.
        let (done, drain) = (Arc::downgrade(&state), Arc::downgrade(&state));
        drain_on_signal(
            "ltspr-signal",
            move || {
                done.upgrade()
                    .is_none_or(|s| s.draining.load(Ordering::SeqCst))
            },
            move || {
                if let Some(s) = drain.upgrade() {
                    broadcast_shutdown(&s);
                    s.start_drain("signal");
                }
            },
        );
    }
    let st = Arc::clone(&state);
    let join = thread::Builder::new()
        .name("ltspr-accept".to_string())
        .spawn(move || run(listener, st))?;
    Ok(RouterHandle { state, join })
}

fn run(listener: TcpListener, state: Arc<RouterState>) {
    let tel = state.cfg.telemetry.clone();
    if tel.is_enabled() {
        tel.emit(Event::ServerLifecycle {
            phase: "listen",
            detail: format!("router {} over {} shard(s)", state.addr, state.shards.len()),
        });
    }
    serve_connections(
        &listener,
        "ltspr-conn",
        &state.draining,
        CLIENT_WRITE_TIMEOUT,
        |mut stream| {
            state.connections.fetch_add(1, Ordering::Relaxed);
            let client = &mut ClientLines {
                state: &state,
                upstreams: HashMap::new(),
            };
            read_lines(&mut stream, &state.draining, client);
            state.connections.fetch_sub(1, Ordering::Relaxed);
        },
    );
    drop(listener);
    if tel.is_enabled() {
        tel.emit(Event::ServerLifecycle {
            phase: "stopped",
            detail: "router".to_string(),
        });
    }
}

/// A client connection's side of [`read_lines`], with its own connection
/// to each shard it has reached: each line is answered (proxied or
/// locally) and the answer written before the next is served. A stalled
/// client stalls only its own thread.
struct ClientLines<'a> {
    state: &'a RouterState,
    upstreams: HashMap<usize, Client>,
}

impl Lines for ClientLines<'_> {
    fn line(&mut self, stream: &mut TcpStream, line: &str) -> bool {
        self.state.requests.fetch_add(1, Ordering::Relaxed);
        let (reply, is_shutdown) = handle_line(self.state, &mut self.upstreams, line);
        if stream.write_all(reply.as_bytes()).is_err() {
            return false;
        }
        if is_shutdown {
            self.state.start_drain("shutdown request");
            return false;
        }
        true
    }

    fn refuse(&mut self, stream: &mut TcpStream, refusal: Response) -> bool {
        self.state.requests.fetch_add(1, Ordering::Relaxed);
        self.state.local.fetch_add(1, Ordering::Relaxed);
        stream.write_all(render_line(&refusal).as_bytes()).is_ok()
    }
}

/// Classifies one raw line and produces the full reply line (with
/// trailing newline). The bool is true for a `shutdown` ack, after
/// which the caller drains.
fn handle_line(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    line: &str,
) -> (String, bool) {
    match parse_request(line) {
        Ok(req) if state.draining.load(Ordering::SeqCst) => {
            state.local.fetch_add(1, Ordering::Relaxed);
            let resp = Response::error(&req.id, "draining", "router is draining");
            (render_line(&resp), false)
        }
        Ok(req) => match req.op {
            ReqOp::Shutdown => {
                state.local.fetch_add(1, Ordering::Relaxed);
                broadcast_shutdown(state);
                let ack = Response::new(&req.id, "draining", "-", ",\"op\":\"shutdown\"");
                (render_line(&ack), true)
            }
            ReqOp::Stats => {
                state.local.fetch_add(1, Ordering::Relaxed);
                (render_line(&stats_response(state, &req.id)), false)
            }
            ReqOp::Metrics => {
                state.local.fetch_add(1, Ordering::Relaxed);
                (render_line(&metrics_response(state, &req.id)), false)
            }
            _ => {
                let key = if req.loop_text.is_empty() {
                    Fingerprint::of_str(line)
                } else {
                    Fingerprint::of_str(&req.loop_text)
                };
                (proxy(state, upstreams, line, &req.id, key), false)
            }
        },
        Err(e) if state.draining.load(Ordering::SeqCst) => {
            state.local.fetch_add(1, Ordering::Relaxed);
            let resp = Response::error(&e.id, "draining", "router is draining");
            (render_line(&resp), false)
        }
        // Malformed lines are proxied too: the owning shard renders the
        // exact protocol error a direct client would see.
        Err(e) => (
            proxy(state, upstreams, line, &e.id, Fingerprint::of_str(line)),
            false,
        ),
    }
}

fn render_line(resp: &Response) -> String {
    let mut line = resp.render();
    line.push('\n');
    line
}

/// Proxies one raw line along the key's preference order. Returns the
/// reply line (with newline) — a shard's response byte-for-byte, or the
/// router's `error` once every candidate failed.
fn proxy(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    line: &str,
    id: &str,
    key: Fingerprint,
) -> String {
    let pref = state.ring.preference(key);
    // Live shards first (in preference order), dead-marked ones as a
    // last resort so a stale mark can't black-hole the whole key space.
    let mut candidates: Vec<usize> = pref
        .iter()
        .copied()
        .filter(|&s| !state.is_dead(s))
        .collect();
    candidates.extend(pref.iter().copied().filter(|&s| state.is_dead(s)));
    candidates.truncate(state.max_attempts());
    let total = candidates.len();
    let mut last_failure = String::from("no shard candidates");
    for (attempt, shard) in candidates.into_iter().enumerate() {
        let outcome = try_shard(state, upstreams, shard, line);
        match outcome {
            Ok(reply) => {
                let status = response_status(&reply);
                if (status == "draining" || status == "overloaded") && attempt + 1 < total {
                    state.shards[shard].failed.fetch_add(1, Ordering::Relaxed);
                    state.failovers.fetch_add(1, Ordering::Relaxed);
                    if status == "draining" {
                        // A draining shard stays draining; stop offering
                        // it requests and drop the connection (it will
                        // close once drained anyway).
                        state.mark_dead(shard);
                        upstreams.remove(&shard);
                    }
                    last_failure = format!("shard {shard} {status}");
                    continue;
                }
                state.mark_live(shard);
                state.shards[shard].routed.fetch_add(1, Ordering::Relaxed);
                state.proxied.fetch_add(1, Ordering::Relaxed);
                return reply;
            }
            Err(e) => {
                state.shards[shard].failed.fetch_add(1, Ordering::Relaxed);
                state.mark_dead(shard);
                upstreams.remove(&shard);
                if attempt + 1 < total {
                    state.failovers.fetch_add(1, Ordering::Relaxed);
                }
                last_failure = format!("shard {shard} ({}): {e}", state.shards[shard].addr);
            }
        }
    }
    state.exhausted.fetch_add(1, Ordering::Relaxed);
    state.local.fetch_add(1, Ordering::Relaxed);
    let resp = Response::error(
        id,
        "error",
        &format!("no shard available after {total} attempt(s); last: {last_failure}"),
    );
    render_line(&resp)
}

/// One attempt against one shard: connect (or reuse), send, read the
/// response line within the deadline.
fn try_shard(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    shard: usize,
    line: &str,
) -> std::io::Result<String> {
    if let std::collections::hash_map::Entry::Vacant(e) = upstreams.entry(shard) {
        e.insert(connect_shard(state, shard, state.cfg.read_timeout)?);
    }
    let up = upstreams.get_mut(&shard).expect("just inserted");
    up.request(line)
}

/// A fresh connection to one shard: connected under the connect timeout,
/// then every write and each response bounded by `deadline`.
fn connect_shard(state: &RouterState, shard: usize, deadline: Duration) -> std::io::Result<Client> {
    let mut client = Client::connect(&state.shards[shard].addr, Some(state.cfg.connect_timeout))?;
    client.set_timeout(Some(deadline))?;
    Ok(client)
}

/// Best-effort `shutdown` to every shard (drain propagation). Dead
/// shards are skipped silently; the supervisor reaps processes anyway.
fn broadcast_shutdown(state: &RouterState) {
    for shard in 0..state.shards.len() {
        if let Ok(mut c) = connect_shard(state, shard, SHARD_CONTROL_TIMEOUT) {
            let _ = c.shutdown("ltspr-drain");
        }
    }
}

/// The router's own `stats` body (the per-shard view lives in
/// `metrics`; `stats` stays a flat cheap snapshot like the daemon's).
fn stats_response(state: &RouterState, id: &str) -> Response {
    let mut body = String::new();
    push_str_field(&mut body, "op", "stats");
    for (key, v) in [
        ("router_requests", &state.requests),
        ("router_proxied", &state.proxied),
        ("router_local", &state.local),
        ("router_failovers", &state.failovers),
        ("router_retries_exhausted", &state.exhausted),
        ("router_connections", &state.connections),
    ] {
        push_u64_field(&mut body, key, v.load(Ordering::Relaxed));
    }
    push_u64_field(&mut body, "router_shards", state.shards.len() as u64);
    Response::new(id, "ok", "-", body)
}

/// Scrapes one shard's `{"op":"metrics"}` snapshot.
fn scrape_shard(state: &RouterState, shard: usize) -> Option<PromSnapshot> {
    connect_shard(state, shard, SHARD_CONTROL_TIMEOUT)
        .and_then(|mut c| c.metrics("ltspr-scrape"))
        .ok()
}

/// The aggregated cluster snapshot: router families first, then every
/// shard's samples re-labeled with `shard="N"`.
fn render_cluster_prometheus(state: &RouterState) -> String {
    let mut out = String::new();
    for (name, kind, v) in [
        ("ltsp_router_requests_total", "counter", &state.requests),
        ("ltsp_router_proxied_total", "counter", &state.proxied),
        ("ltsp_router_local_total", "counter", &state.local),
        ("ltsp_router_failovers_total", "counter", &state.failovers),
        (
            "ltsp_router_retries_exhausted_total",
            "counter",
            &state.exhausted,
        ),
        ("ltsp_router_connections", "gauge", &state.connections),
    ] {
        prom::push_type(&mut out, name, kind);
        prom::push_sample(&mut out, name, &[], v.load(Ordering::Relaxed) as f64);
    }
    let scrapes: Vec<Option<PromSnapshot>> = (0..state.shards.len())
        .map(|i| scrape_shard(state, i))
        .collect();
    for (name, kind, get) in [
        (
            "ltsp_shard_routed_total",
            "counter",
            (|s: &ShardState| s.routed.load(Ordering::Relaxed)) as fn(&ShardState) -> u64,
        ),
        ("ltsp_shard_failed_total", "counter", |s: &ShardState| {
            s.failed.load(Ordering::Relaxed)
        }),
    ] {
        prom::push_type(&mut out, name, kind);
        for (i, s) in state.shards.iter().enumerate() {
            let idx = i.to_string();
            prom::push_sample(&mut out, name, &[("shard", &idx)], get(s) as f64);
        }
    }
    prom::push_type(&mut out, "ltsp_shard_up", "gauge");
    for (i, scrape) in scrapes.iter().enumerate() {
        let idx = i.to_string();
        prom::push_sample(
            &mut out,
            "ltsp_shard_up",
            &[("shard", &idx)],
            f64::from(u8::from(scrape.is_some())),
        );
    }
    if let Some(respawns) = &state.cfg.respawns {
        prom::push_type(&mut out, "ltsp_shard_respawns_total", "counter");
        for (i, r) in respawns.iter().enumerate() {
            let idx = i.to_string();
            prom::push_sample(
                &mut out,
                "ltsp_shard_respawns_total",
                &[("shard", &idx)],
                r.load(Ordering::Relaxed) as f64,
            );
        }
    }
    for (i, scrape) in scrapes.iter().enumerate() {
        let Some(snap) = scrape else { continue };
        let idx = i.to_string();
        for s in &snap.samples {
            let mut labels: Vec<(&str, &str)> = Vec::with_capacity(s.labels.len() + 1);
            labels.push(("shard", &idx));
            for (k, v) in &s.labels {
                labels.push((k, v));
            }
            prom::push_sample(&mut out, &s.name, &labels, s.value);
        }
    }
    out
}

fn metrics_response(state: &RouterState, id: &str) -> Response {
    let mut body = String::new();
    push_str_field(&mut body, "op", "metrics");
    push_str_field(&mut body, "metrics", &render_cluster_prometheus(state));
    Response::new(id, "ok", "-", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_status_extracts_envelope_status() {
        assert_eq!(
            response_status(r#"{"id":"a","status":"ok","cache":"hit"}"#),
            "ok"
        );
        assert_eq!(
            response_status(r#"{"id":"x","status":"draining","cache":"-"}"#),
            "draining"
        );
        // An id trying to smuggle a status arrives escaped and must not
        // fool the extractor.
        let hostile = Response::error("evil\",\"status\":\"ok", "error", "nope").render();
        assert_eq!(response_status(&hostile), "error");
        assert_eq!(response_status("not json"), "");
    }

    #[test]
    fn routing_key_canonicalizes_on_loop_text() {
        let lp = "loop a {\\n}";
        let a = format!(r#"{{"op":"compile","id":"1","loop":"{lp}"}}"#);
        let b = format!(r#"{{"op":"verify","id":"2","loop":"{lp}"}}"#);
        // Same loop, different op/id: same shard (cache locality).
        assert_eq!(routing_key(&a), routing_key(&b));
        // Loopless and unparseable lines key on the raw line.
        assert_eq!(
            routing_key(r#"{"op":"ping"}"#),
            Fingerprint::of_str(r#"{"op":"ping"}"#)
        );
        assert_eq!(routing_key("junk"), Fingerprint::of_str("junk"));
    }

    #[test]
    fn spawn_rejects_empty_shard_list() {
        let Err(err) = spawn_router(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            ..RouterConfig::default()
        }) else {
            panic!("empty shard list must be rejected");
        };
        assert!(err.to_string().contains("at least one shard"));
    }
}
