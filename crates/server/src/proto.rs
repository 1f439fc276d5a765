//! The daemon's wire protocol (`ltspc serve`): line-delimited JSON, one
//! request object in, one response object out.
//!
//! # Grammar
//!
//! Every request is a single JSON object on one line (loop text travels
//! JSON-escaped, so embedded newlines are fine):
//!
//! ```text
//! {"op":"compile","id":"r1","loop":"loop s { ... }",
//!  "policy":"hlo","trip":100,"threshold":32,
//!  "prefetch":true,"balanced":false}
//! {"op":"verify","id":"r2","loop":"..."}
//! {"op":"oracle","id":"r3","loop":"...","budget":200000,"deadline_ms":1000}
//! {"op":"ping"}          {"op":"stats"}          {"op":"shutdown"}
//! ```
//!
//! Data speculation was removed (it broke memory-flow edges with no
//! check or recovery behind them): `"speculate":false` is accepted as a
//! no-op, and `"speculate":true` is refused with status `error`, so old
//! clients get an answer instead of a kernel that is wrong on aliasing
//! input.
//!
//! Every response is a single JSON object on one line, always starting
//! with the same three fields:
//!
//! ```text
//! {"id":"r1","status":"ok","cache":"hit", ...op-specific fields...}
//! ```
//!
//! - `id` echoes the request's `id`; when the client sends none, the
//!   server derives one from the request content (so identical requests
//!   get identical responses, byte for byte).
//! - `status` ∈ `ok` | `rejected` (validator violations or a
//!   budget-limited oracle verdict) | `error` (malformed request or loop)
//!   | `overloaded` (admission queue past its high-water mark) |
//!   `draining` (received after a shutdown was accepted).
//! - `cache` ∈ `hit` | `miss` | `upgraded` (a hit whose entry was
//!   upgraded in place by the tiered backend's exact refinement) | `-`
//!   (request classes that never cache).
//!
//! Compile requests may select a scheduling backend with
//! `"backend":"heuristic"|"exact"|"tiered"` (default `heuristic`):
//! `exact` runs the oracle's branch-and-bound emission synchronously
//! (deadline-bounded, falling back to the heuristic schedule when the
//! proof does not resolve), and `tiered` answers immediately with the
//! heuristic schedule while exact refinement runs asynchronously and
//! upgrades the cache entry — including its persisted bytes — in place.
//!
//! Compile requests may additionally select a serving mode with
//! `"mode":"static"|"adaptive"` (default `static`). `adaptive` — valid
//! only with the heuristic backend — answers immediately with the
//! static heuristic schedule while the feedback-directed refinement
//! loop (the `ltsp-adaptive` crate) runs asynchronously and upgrades
//! the cache entry (and its persisted bytes) in place with the
//! converged, validator-certified schedule.
//!
//! Responses carry no timestamps or worker attribution: a response is a
//! pure function of the request (plus, for `cache`, the request history
//! of the server instance), which is what makes the serving layer
//! byte-deterministic at any `--jobs` and what makes response bodies
//! cacheable at all. Wall-clock observability lives in the telemetry
//! metrics and the `{"op":"metrics"}` exposition, never on the wire —
//! with one explicit opt-out: a request carrying `"timings":true` gets a
//! trailing `"timings":{...}` object of per-phase microseconds appended
//! to its response *envelope* (never to the cached body, and never
//! folded into the cache key), so clients that ask for wall-clock
//! attribution knowingly leave the byte-identity contract for that
//! response.

use std::sync::Arc;

use ltsp_cache::Fingerprint;
use ltsp_core::{CompileConfig, LatencyPolicy};
use ltsp_telemetry::json::{self, escape, JsonValue};

/// Spells an enum's wire tags once: `tag()` names each variant, and the
/// `FromStr` that inverts it fails with `$err(input)`.
macro_rules! wire_tags {
    ($ty:ident, $err:expr, { $($variant:ident => $tag:literal),+ $(,)? }) => {
        impl $ty {
            /// The wire tag, also used in cache keys and telemetry.
            pub fn tag(&self) -> &'static str {
                match self {
                    $($ty::$variant => $tag,)+
                }
            }
        }

        impl std::str::FromStr for $ty {
            type Err = String;

            fn from_str(s: &str) -> Result<Self, String> {
                match s {
                    $($tag => Ok($ty::$variant),)+
                    other => Err(($err)(other)),
                }
            }
        }
    };
}

/// The request classes the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOp {
    /// Full pipeline: parse → HLO → DDG → modulo schedule → regalloc.
    Compile,
    /// Compile at base latencies, then certify with the independent
    /// validator.
    Verify,
    /// `Verify` plus the exact-II oracle proof (budgeted).
    Oracle,
    /// Liveness probe.
    Ping,
    /// Server + cache counters (excluded from the determinism contract).
    Stats,
    /// Prometheus-text-format metrics snapshot (excluded from the
    /// determinism contract, like `Stats`).
    Metrics,
    /// Begin graceful drain: stop admitting, finish in-flight, exit.
    Shutdown,
}

wire_tags!(ReqOp, |other| format!("unknown op '{other}'"), {
    Compile => "compile",
    Verify => "verify",
    Oracle => "oracle",
    Ping => "ping",
    Stats => "stats",
    Metrics => "metrics",
    Shutdown => "shutdown",
});

impl ReqOp {
    /// Whether the op carries a loop (and caches its answer).
    pub(crate) fn carries_loop(self) -> bool {
        matches!(self, ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle)
    }
}

/// Which scheduling backend a compile request runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The production heuristic pipeliner (iterative modulo scheduling).
    #[default]
    Heuristic,
    /// The oracle's branch-and-bound emission, run synchronously: the
    /// response carries a validator-certified schedule at the proven
    /// minimal II when the search resolves in budget, else the heuristic
    /// schedule (flagged as unrefined).
    Exact,
    /// Heuristic answer now, exact refinement async: the cache entry
    /// (and its persisted bytes) are upgraded in place when the exact
    /// backend finds a strictly better schedule.
    Tiered,
}

wire_tags!(Backend, |_| "backend must be heuristic|exact|tiered".to_string(), {
    Heuristic => "heuristic",
    Exact => "exact",
    Tiered => "tiered",
});

/// Which serving mode a compile request runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// One-shot compilation: the response is final.
    #[default]
    Static,
    /// Feedback-directed refinement: the response carries the static
    /// heuristic schedule now, and the adaptive memsim → HLO →
    /// pipeliner loop upgrades the cache entry in place once it
    /// converges. Heuristic backend only.
    Adaptive,
}

wire_tags!(Mode, |_| "mode must be static|adaptive".to_string(), {
    Static => "static",
    Adaptive => "adaptive",
});

impl Mode {
    /// The one rule tying a mode to a backend: `adaptive` refines the
    /// heuristic backend only. [`parse_request`] (and so `ltspc`) and the
    /// load generator refuse other pairs through it.
    ///
    /// # Errors
    ///
    /// The refusal message for `adaptive` with any other backend.
    pub fn check(self, backend: Backend) -> Result<(), String> {
        if self == Mode::Adaptive && backend != Backend::Heuristic {
            return Err(format!(
                "mode 'adaptive' requires the heuristic backend, not '{}'",
                backend.tag()
            ));
        }
        Ok(())
    }
}

/// One parsed request. Fields irrelevant to the op keep their defaults
/// (and still participate in the content-derived `id`, harmlessly).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-supplied trace ID, or a content-derived one.
    pub id: String,
    /// Request class.
    pub op: ReqOp,
    /// The loop source text (compile/verify/oracle).
    pub loop_text: String,
    /// Latency policy (compile only; default `hlo`).
    pub policy: LatencyPolicy,
    /// Trip estimate (compile only; default 100).
    pub trip: f64,
    /// Trip threshold (compile only; default 32).
    pub threshold: u32,
    /// Software prefetching on (compile only; default true).
    pub prefetch: bool,
    /// Balanced-recurrence extension (compile only; default false).
    pub balanced: bool,
    /// Scheduling backend (compile only; default heuristic).
    pub backend: Backend,
    /// Serving mode (compile only; default static).
    pub mode: Mode,
    /// Oracle node budget (oracle only; default 200 000).
    pub budget: u64,
    /// Oracle wall-clock budget in ms (oracle only; `None` = server
    /// default).
    pub deadline_ms: Option<u64>,
    /// Opt-in per-phase wall-clock breakdown on the response envelope
    /// (default false; never part of any cache key).
    pub timings: bool,
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: String::new(),
            op: ReqOp::Ping,
            loop_text: String::new(),
            policy: LatencyPolicy::HloHints,
            trip: 100.0,
            threshold: 32,
            prefetch: true,
            balanced: false,
            backend: Backend::Heuristic,
            mode: Mode::Static,
            budget: 200_000,
            deadline_ms: None,
            timings: false,
        }
    }
}

impl Request {
    /// The compile configuration the request's knobs resolve to.
    pub fn compile_config(&self) -> CompileConfig {
        CompileConfig::new(self.policy)
            .with_threshold(self.threshold)
            .with_prefetch(self.prefetch)
            .with_balanced_recurrences(self.balanced)
    }

    /// The request line [`parse_request`] reads back as this request:
    /// `op` and `id` always, the loop for the ops that carry one, and
    /// every other field where it differs from its default. Numbers
    /// travel as JSON numbers, so a budget or deadline above 2^53 does
    /// not survive the trip.
    pub fn to_line(&self) -> String {
        use std::fmt::Write as _;
        let d = Request::default();
        let mut line = String::with_capacity(self.loop_text.len() + 64);
        let _ = write!(line, "{{\"op\":\"{}\"", self.op.tag());
        push_str_field(&mut line, "id", &self.id);
        if self.op.carries_loop() {
            push_str_field(&mut line, "loop", &self.loop_text);
        }
        if self.policy != d.policy {
            push_str_field(&mut line, "policy", self.policy.tag());
        }
        if self.trip != d.trip {
            let _ = write!(line, ",\"trip\":{}", self.trip);
        }
        if self.threshold != d.threshold {
            push_u64_field(&mut line, "threshold", u64::from(self.threshold));
        }
        for (key, value, default) in [
            ("prefetch", self.prefetch, d.prefetch),
            ("balanced", self.balanced, d.balanced),
            ("timings", self.timings, d.timings),
        ] {
            if value != default {
                push_bool_field(&mut line, key, value);
            }
        }
        if self.backend != d.backend {
            push_str_field(&mut line, "backend", self.backend.tag());
        }
        if self.mode != d.mode {
            push_str_field(&mut line, "mode", self.mode.tag());
        }
        if self.budget != d.budget {
            push_u64_field(&mut line, "budget", self.budget);
        }
        if let Some(ms) = self.deadline_ms {
            push_u64_field(&mut line, "deadline_ms", ms);
        }
        line.push('}');
        line
    }
}

/// A protocol-level parse failure: the best-effort request `id` (so the
/// error response can still be correlated) and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Echoed `id` if one could be extracted, else content-derived.
    pub id: String,
    /// What was wrong with the request.
    pub message: String,
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError`] on malformed JSON, an unknown `op`, a missing `loop`
/// for loop-carrying ops, or ill-typed fields.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let derived_id = || format!("q{}", Fingerprint::of_str(line.trim()).short_hex());
    let v = json::parse(line.trim()).map_err(|e| ProtoError {
        id: derived_id(),
        message: format!("malformed JSON: {e}"),
    })?;
    let id = v
        .get("id")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .unwrap_or_else(derived_id);
    let fail = |message: String| ProtoError {
        id: id.clone(),
        message,
    };

    let op: ReqOp = match v.get("op").and_then(JsonValue::as_str) {
        Some(op) => op.parse().map_err(fail)?,
        None => return Err(fail("missing 'op'".to_string())),
    };

    let mut req = Request {
        id: id.clone(),
        op,
        ..Request::default()
    };
    if op.carries_loop() {
        req.loop_text = v
            .get("loop")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| fail(format!("op '{}' needs a string 'loop'", op.tag())))?
            .to_string();
    }
    // A tag that is not a string fails like an unknown one.
    if let Some(p) = v.get("policy") {
        req.policy = p.as_str().unwrap_or_default().parse().map_err(fail)?;
    }
    if let Some(t) = v.get("trip") {
        req.trip = t
            .as_f64()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| fail("trip must be a non-negative number".to_string()))?;
    }
    if let Some(t) = v.get("threshold") {
        req.threshold = t
            .as_u64()
            .and_then(|t| u32::try_from(t).ok())
            .ok_or_else(|| fail("threshold must be a u32".to_string()))?;
    }
    for (key, slot) in [
        ("prefetch", &mut req.prefetch as &mut bool),
        ("balanced", &mut req.balanced),
        ("timings", &mut req.timings),
    ] {
        if let Some(b) = v.get(key) {
            *slot = match b {
                JsonValue::Bool(b) => *b,
                _ => return Err(fail(format!("{key} must be a boolean"))),
            };
        }
    }
    // The removed data-speculation knob (see the module docs).
    match v.get("speculate") {
        None | Some(JsonValue::Bool(false)) => {}
        Some(JsonValue::Bool(true)) => {
            return Err(fail("data speculation is not supported".to_string()))
        }
        Some(_) => return Err(fail("speculate must be a boolean".to_string())),
    }
    if let Some(b) = v.get("backend") {
        req.backend = b.as_str().unwrap_or_default().parse().map_err(fail)?;
    }
    if let Some(m) = v.get("mode") {
        req.mode = m.as_str().unwrap_or_default().parse().map_err(fail)?;
    }
    req.mode.check(req.backend).map_err(fail)?;
    if let Some(b) = v.get("budget") {
        req.budget = b
            .as_u64()
            .ok_or_else(|| fail("budget must be a non-negative integer".to_string()))?;
    }
    if let Some(d) = v.get("deadline_ms") {
        req.deadline_ms = Some(
            d.as_u64()
                .ok_or_else(|| fail("deadline_ms must be a non-negative integer".to_string()))?,
        );
    }
    Ok(req)
}

/// One response, split so the cacheable part (`body`) excludes the
/// per-request envelope (`id`, `cache`): a response cache stores bodies,
/// and the envelope is re-spliced per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request `id`.
    pub id: String,
    /// `ok` | `rejected` | `error` | `overloaded` | `draining`.
    pub status: &'static str,
    /// `hit` | `miss` | `upgraded` | `-`.
    pub cache: &'static str,
    /// JSON fragment appended after the envelope fields; either empty or
    /// starting with `,` (e.g. `,"op":"ping"`). Shared with the cache
    /// entry it came from, so a hit copies the bytes once — into the
    /// line that goes to the socket.
    pub body: Arc<str>,
    /// Per-phase wall-clock breakdown as a rendered JSON object, present
    /// only when the request opted in with `"timings":true`. Lives on
    /// the envelope, after the body, and is never cached: the same
    /// cached body re-splices with whatever actually happened for *this*
    /// request (a hit reports its probe, not the original compile).
    pub timings: Option<String>,
}

impl Response {
    /// A response to request `id` without a timing breakdown (the
    /// engine attaches one last, to requests that asked).
    pub fn new(
        id: &str,
        status: &'static str,
        cache: &'static str,
        body: impl Into<Arc<str>>,
    ) -> Response {
        Response {
            id: id.to_string(),
            status,
            cache,
            body: body.into(),
            timings: None,
        }
    }

    /// An error response with a message body.
    pub fn error(id: &str, status: &'static str, message: &str) -> Response {
        let body = format!(",\"error\":\"{}\"", escape(message));
        Response::new(id, status, "-", body)
    }

    /// Renders the single response line (no trailing newline).
    pub fn render(&self) -> String {
        let mut line = String::new();
        self.render_into(&mut line);
        line
    }

    /// Appends the response line (no trailing newline) to `out`, which
    /// a connection reuses from one response to the next.
    pub(crate) fn render_into(&self, out: &mut String) {
        out.reserve(self.id.len() + self.body.len() + 64);
        out.push_str("{\"id\":\"");
        out.push_str(&escape(&self.id));
        out.push_str("\",\"status\":\"");
        out.push_str(self.status);
        out.push_str("\",\"cache\":\"");
        out.push_str(self.cache);
        out.push('"');
        out.push_str(&self.body);
        if let Some(obj) = &self.timings {
            out.push_str(",\"timings\":");
            out.push_str(obj);
        }
        out.push('}');
    }
}

/// Appends a `"key":"string"` pair to a body fragment.
pub fn push_str_field(body: &mut String, key: &str, value: &str) {
    use std::fmt::Write as _;
    let _ = write!(body, ",\"{}\":\"{}\"", escape(key), escape(value));
}

/// Appends a `"key":N` pair to a body fragment.
pub fn push_u64_field(body: &mut String, key: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = write!(body, ",\"{}\":{}", escape(key), value);
}

/// Appends a `"key":true|false` pair to a body fragment.
pub(crate) fn push_bool_field(body: &mut String, key: &str, value: bool) {
    use std::fmt::Write as _;
    let _ = write!(body, ",\"{}\":{}", escape(key), value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_compile_request() {
        let r = parse_request(
            r#"{"op":"compile","id":"a","loop":"loop x {\n}","policy":"l3","trip":12.5,
               "threshold":0,"prefetch":false,"balanced":true,"speculate":false}"#,
        )
        .unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.op, ReqOp::Compile);
        assert_eq!(r.loop_text, "loop x {\n}");
        assert_eq!(r.policy, LatencyPolicy::AllLoadsL3);
        assert_eq!(r.trip, 12.5);
        assert_eq!(r.threshold, 0);
        assert!(!r.prefetch);
        assert!(r.balanced);
    }

    #[test]
    fn speculation_is_refused_with_the_request_id() {
        let e =
            parse_request(r#"{"op":"compile","id":"s","loop":"l","speculate":true}"#).unwrap_err();
        assert_eq!(e.id, "s");
        assert_eq!(e.message, "data speculation is not supported");
        let e = parse_request(r#"{"op":"compile","id":"s","loop":"l","speculate":1}"#).unwrap_err();
        assert_eq!(e.message, "speculate must be a boolean");
    }

    #[test]
    fn derives_deterministic_ids() {
        let a = parse_request(r#"{"op":"ping"}"#).unwrap();
        let b = parse_request(r#"{"op":"ping"}"#).unwrap();
        let c = parse_request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(a.id, b.id, "same content, same id");
        assert_ne!(a.id, c.id);
        assert!(a.id.starts_with('q'));
    }

    #[test]
    fn rejects_bad_requests_with_the_right_id() {
        let e = parse_request(r#"{"op":"warp","id":"x"}"#).unwrap_err();
        assert_eq!(e.id, "x");
        assert!(e.message.contains("unknown op"));
        let e = parse_request(r#"{"op":"compile","id":"y"}"#).unwrap_err();
        assert!(e.message.contains("needs a string 'loop'"));
        let e = parse_request("not json").unwrap_err();
        assert!(e.message.contains("malformed JSON"));
        let e = parse_request(r#"{"op":"oracle","loop":"l","budget":-3}"#).unwrap_err();
        assert!(e.message.contains("budget"));
    }

    #[test]
    fn responses_render_as_one_json_line() {
        let mut body = String::new();
        push_str_field(&mut body, "op", "compile");
        push_u64_field(&mut body, "ii", 4);
        push_bool_field(&mut body, "pipelined", true);
        push_str_field(&mut body, "report", "two\nlines");
        let r = Response::new("r1", "ok", "miss", body);
        let line = r.render();
        assert!(!line.contains('\n'), "newlines are escaped: {line}");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(v.get("ii").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("report").unwrap().as_str(), Some("two\nlines"));
    }

    #[test]
    fn timings_flag_parses_and_renders_on_the_envelope() {
        let r = parse_request(r#"{"op":"compile","id":"t","loop":"loop x {\n}","timings":true}"#)
            .unwrap();
        assert!(r.timings);
        let off = parse_request(r#"{"op":"compile","id":"t","loop":"loop x {\n}"}"#).unwrap();
        assert!(!off.timings, "timings defaults to off");

        let mut resp = Response::new("t", "ok", "hit", ",\"op\":\"compile\"");
        let plain = resp.render();
        resp.timings = Some("{\"sched_us\":12}".to_string());
        let timed = resp.render();
        assert!(!plain.contains("timings"));
        let v = json::parse(&timed).unwrap();
        assert_eq!(
            v.get("timings").unwrap().get("sched_us").unwrap().as_u64(),
            Some(12)
        );
        // The envelope change is strictly additive.
        assert!(timed.starts_with(plain.trim_end_matches('}')));
    }

    #[test]
    fn backend_parses_and_defaults_to_heuristic() {
        let r = parse_request(r#"{"op":"compile","loop":"loop x {\n}"}"#).unwrap();
        assert_eq!(r.backend, Backend::Heuristic, "default backend");
        for (tag, want) in [
            ("heuristic", Backend::Heuristic),
            ("exact", Backend::Exact),
            ("tiered", Backend::Tiered),
        ] {
            let line = format!(r#"{{"op":"compile","loop":"l","backend":"{tag}"}}"#);
            let r = parse_request(&line).unwrap();
            assert_eq!(r.backend, want);
            assert_eq!(r.backend.tag(), tag);
        }
        let e = parse_request(r#"{"op":"compile","loop":"l","backend":"quantum"}"#).unwrap_err();
        assert!(e.message.contains("backend must be"));
    }

    #[test]
    fn mode_parses_and_defaults_to_static() {
        let r = parse_request(r#"{"op":"compile","loop":"loop x {\n}"}"#).unwrap();
        assert_eq!(r.mode, Mode::Static, "default mode");
        for (tag, want) in [("static", Mode::Static), ("adaptive", Mode::Adaptive)] {
            let line = format!(r#"{{"op":"compile","loop":"l","mode":"{tag}"}}"#);
            let r = parse_request(&line).unwrap();
            assert_eq!(r.mode, want);
            assert_eq!(r.mode.tag(), tag);
        }
        let e = parse_request(r#"{"op":"compile","loop":"l","mode":"psychic"}"#).unwrap_err();
        assert!(e.message.contains("mode must be"));
    }

    #[test]
    fn adaptive_mode_rejects_non_heuristic_backends() {
        for backend in ["exact", "tiered"] {
            let line = format!(
                r#"{{"op":"compile","id":"m","loop":"l","mode":"adaptive","backend":"{backend}"}}"#
            );
            let e = parse_request(&line).unwrap_err();
            assert_eq!(e.id, "m");
            assert!(
                e.message.contains("requires the heuristic backend"),
                "{}",
                e.message
            );
        }
        let ok =
            parse_request(r#"{"op":"compile","loop":"l","mode":"adaptive","backend":"heuristic"}"#)
                .unwrap();
        assert_eq!(ok.mode, Mode::Adaptive);
    }

    #[test]
    fn metrics_op_parses() {
        let r = parse_request(r#"{"op":"metrics","id":"m"}"#).unwrap();
        assert_eq!(r.op, ReqOp::Metrics);
        assert_eq!(r.op.tag(), "metrics");
    }

    #[test]
    fn error_responses_round_trip() {
        let r = Response::error("id-1", "error", "loop:3: bad \"thing\"");
        let v = json::parse(&r.render()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(
            v.get("error").unwrap().as_str(),
            Some("loop:3: bad \"thing\"")
        );
    }

    #[test]
    fn hostile_error_messages_stay_one_parseable_line() {
        // Error text can quote arbitrary client input: embedded quotes,
        // newlines, control bytes, and the U+FFFD replacement chars that
        // `from_utf8_lossy` leaves behind for invalid UTF-8. None of it
        // may break line framing or JSON syntax.
        let lossy = String::from_utf8_lossy(b"ld g1 = \xFF\xFE@m0").into_owned();
        let msg = format!("bad \"input\":\nline two\r\ttab \u{1F}unit {lossy}\u{0}end");
        let r = Response::error("evil\n\"id\"", "error", &msg);
        let line = r.render();
        assert!(!line.contains('\n'), "one line: {line}");
        assert!(
            line.bytes().all(|b| b >= 0x20),
            "control bytes are escaped: {line:?}"
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("evil\n\"id\""));
        assert_eq!(v.get("error").unwrap().as_str(), Some(msg.as_str()));
    }
}
