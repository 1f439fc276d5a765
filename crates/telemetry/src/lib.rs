//! # ltsp-telemetry — dependency-free observability for the compiler
//!
//! A telemetry layer with **no external dependencies** (the workspace
//! builds with no network access): a typed compiler decision trace
//! ([`Event`]), wall-clock phase timing ([`Telemetry::span`]; the compile
//! path times through [`Observer::time`], which feeds a [`PhaseTimer`]
//! and the trace from one clock reading), a metrics
//! registry (counters + histograms, fed by the simulator's cycle
//! accounting), and three exporters — a JSONL event stream, a JSON
//! metrics snapshot, and the Chrome `trace_event` format viewable in
//! Perfetto (`ui.perfetto.dev`).
//!
//! The [`Telemetry`] handle is cheap to clone and explicitly *disabled by
//! default*: a disabled handle records nothing, allocates nothing, and
//! every recording method is a branch on a `None` — compilation and
//! simulation results are bit-identical with telemetry on or off, because
//! the layer only observes.
//!
//! ```
//! use ltsp_telemetry::{Event, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _span = tel.span("compile");
//!     tel.emit(Event::Diagnostic { level: "info", message: "hi".into() });
//!     tel.counter_add("loops.compiled", 1);
//! }
//! let mut jsonl = Vec::new();
//! tel.write_events_jsonl(&mut jsonl).unwrap();
//! assert_eq!(String::from_utf8(jsonl).unwrap().lines().count(), 2);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod prom;
pub mod sync;

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use event::Event;
pub use json::{parse as parse_json, JsonValue, Scalar};
pub use metrics::{Histogram, Metrics};
pub use phase::{Observer, Phase, PhaseTimer};
pub use sync::lock_unpoisoned;

/// An [`Event`] stamped with its emission time (µs since the handle was
/// created).
#[derive(Debug, Clone)]
pub struct TimedEvent {
    /// Record sequence number within the sink. The JSONL exporter orders
    /// lines by this (not by wall-clock), so spliced parallel traces keep
    /// a deterministic order; see [`Telemetry::absorb`].
    pub seq: u64,
    /// Microseconds since [`Telemetry::enabled`] created the sink.
    pub ts_us: u64,
    /// The decision.
    pub event: Event,
}

/// A closed phase-timing span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Record sequence number within the sink (see [`TimedEvent::seq`]).
    pub seq: u64,
    /// The phase name (e.g. `"hlo"`, `"pipeline"`, `"simulate"`).
    pub name: String,
    /// Start, µs since the sink epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub dur_us: u64,
    /// Execution lane: 0 for the sink's own thread; absorbed worker
    /// buffers get `worker + 1` ([`Telemetry::absorb`]). The Chrome
    /// exporter maps lanes to `tid`s so workers render side by side.
    pub tid: u32,
}

#[derive(Debug, Default)]
struct State {
    seq: u64,
    events: Vec<TimedEvent>,
    spans: Vec<SpanRecord>,
    metrics: Metrics,
}

impl State {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    verbose: bool,
    state: Mutex<State>,
}

/// The telemetry handle: a cheap clone of a shared, thread-safe sink —
/// or nothing at all when disabled.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// RAII guard returned by [`Telemetry::span`]; records the span when
/// dropped. A no-op for disabled handles.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    inner: Option<(Arc<Inner>, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.inner.take() {
            let dur_us = start.elapsed().as_micros() as u64;
            push_span(&inner, name, start, dur_us);
        }
    }
}

/// Records a closed span on the sink's own lane.
fn push_span(inner: &Inner, name: String, start: Instant, dur_us: u64) {
    if inner.verbose {
        eprintln!("[ltsp] {name}: {:.3} ms", dur_us as f64 / 1e3);
    }
    let start_us = us_since(inner.epoch, start);
    let mut st = lock_unpoisoned(&inner.state);
    let seq = st.next_seq();
    st.spans.push(SpanRecord {
        seq,
        name,
        start_us,
        dur_us,
        tid: 0,
    });
}

fn us_since(epoch: Instant, t: Instant) -> u64 {
    t.checked_duration_since(epoch)
        .map_or(0, |d| d.as_micros() as u64)
}

impl Telemetry {
    /// A disabled handle: every method is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled sink.
    pub fn enabled() -> Self {
        Telemetry::enabled_with(false)
    }

    /// An enabled sink; with `verbose`, events and closed spans render
    /// human-readably on stderr as they are recorded.
    pub fn enabled_with(verbose: bool) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                verbose,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// True when this handle records anything. Call sites may use this to
    /// skip building expensive event payloads.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a decision event (no-op when disabled).
    pub fn emit(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        if inner.verbose {
            eprintln!("[ltsp] {}", event.render_human());
        }
        let ts_us = inner.epoch.elapsed().as_micros() as u64;
        let mut st = lock_unpoisoned(&inner.state);
        let seq = st.next_seq();
        st.events.push(TimedEvent { seq, ts_us, event });
    }

    /// Emits an info-level [`Event::Diagnostic`].
    pub fn info(&self, message: impl Into<String>) {
        if self.is_enabled() {
            self.emit(Event::Diagnostic {
                level: "info",
                message: message.into(),
            });
        }
    }

    /// Emits a warning [`Event::Diagnostic`].
    pub fn warn(&self, message: impl Into<String>) {
        if self.is_enabled() {
            self.emit(Event::Diagnostic {
                level: "warn",
                message: message.into(),
            });
        }
    }

    /// Forks a fresh, empty sink that is enabled exactly when `self` is.
    /// Work pools give each item a fork so parallel items never contend
    /// on (or interleave within) the parent sink; the buffers are spliced
    /// back **in item index order** with [`Telemetry::absorb`], which is
    /// what makes one-thread and N-thread traces identical in content and
    /// order. Forks are never verbose — parallel stderr narration would
    /// interleave nondeterministically.
    pub fn fork(&self) -> Telemetry {
        if self.is_enabled() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Splices a forked child sink into this one: events and spans are
    /// appended (in the child's own order) with timestamps translated into
    /// this sink's epoch, spans are tagged with lane `worker + 1`, and the
    /// child's metrics merge into this registry. Call in item index order;
    /// record order is the splice order, not wall-clock order.
    pub fn absorb(&self, child: Telemetry, worker: u32) {
        let (Some(inner), Some(cinner)) = (&self.inner, &child.inner) else {
            return;
        };
        let shift_us = cinner
            .epoch
            .checked_duration_since(inner.epoch)
            .map_or(0, |d| d.as_micros() as u64);
        let cstate = std::mem::take(&mut *lock_unpoisoned(&cinner.state));
        let mut st = lock_unpoisoned(&inner.state);
        for e in cstate.events {
            let seq = st.next_seq();
            st.events.push(TimedEvent {
                seq,
                ts_us: e.ts_us + shift_us,
                event: e.event,
            });
        }
        for s in cstate.spans {
            let seq = st.next_seq();
            st.spans.push(SpanRecord {
                seq,
                name: s.name,
                start_us: s.start_us + shift_us,
                dur_us: s.dur_us,
                tid: worker + 1,
            });
        }
        st.metrics.merge(&cstate.metrics);
    }

    /// Translates an [`Instant`] into µs since this sink's epoch (0 when
    /// disabled or when `t` predates the epoch).
    pub fn us_since_epoch(&self, t: Instant) -> u64 {
        self.inner.as_ref().map_or(0, |i| us_since(i.epoch, t))
    }

    /// Opens a wall-clock timing span; it records itself when dropped.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        SpanGuard {
            inner: self
                .inner
                .as_ref()
                .map(|i| (Arc::clone(i), name.into(), Instant::now())),
        }
    }

    /// Adds to a monotonic counter (no-op when disabled).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut st = lock_unpoisoned(&inner.state);
            st.metrics.counter_add(name, delta);
        }
    }

    /// Records a histogram sample (no-op when disabled).
    pub fn histogram_record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut st = lock_unpoisoned(&inner.state);
            st.metrics.histogram_record(name, value);
        }
    }

    /// A snapshot of the recorded events.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lock_unpoisoned(&i.state).events.clone())
    }

    /// A snapshot of the closed spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lock_unpoisoned(&i.state).spans.clone())
    }

    /// A snapshot of the metrics registry.
    pub fn metrics(&self) -> Metrics {
        self.inner.as_ref().map_or_else(Metrics::default, |i| {
            lock_unpoisoned(&i.state).metrics.clone()
        })
    }

    /// Writes the trace as JSONL: one JSON object per line, events as
    /// `{"type": <kind>, "ts_us": ..., ...fields}` and closed spans as
    /// `{"type": "span", "name": ..., "start_us": ..., "dur_us": ...,
    /// "tid": ...}`, ordered by record sequence number — chronological
    /// for a serial run, splice order for absorbed parallel buffers (so
    /// the line order is deterministic across worker counts; see
    /// [`Telemetry::absorb`] and [`normalize_trace`]).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_events_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        let events = self.events();
        let spans = self.spans();
        let mut lines: Vec<(u64, String)> = Vec::with_capacity(events.len() + spans.len());
        for e in &events {
            let mut fields: Vec<(&str, Scalar)> =
                vec![("type", e.event.kind().into()), ("ts_us", e.ts_us.into())];
            fields.extend(e.event.fields());
            let mut line = String::new();
            json::write_object(&mut line, &fields);
            lines.push((e.seq, line));
        }
        for s in &spans {
            let mut line = String::new();
            json::write_object(
                &mut line,
                &[
                    ("type", "span".into()),
                    ("name", s.name.clone().into()),
                    ("start_us", s.start_us.into()),
                    ("dur_us", s.dur_us.into()),
                    ("tid", u64::from(s.tid).into()),
                ],
            );
            lines.push((s.seq, line));
        }
        lines.sort_by_key(|(seq, _)| *seq);
        for (_, line) in lines {
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Writes the metrics snapshot as a JSON document.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_metrics_json(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(self.metrics().to_json().as_bytes())
    }

    /// Writes the trace in Chrome's `trace_event` JSON format: spans as
    /// complete (`"X"`) events on their execution lane (`tid` 1 = main
    /// thread, `tid` `w+2` = pool worker `w`), [`Event::WorkerSpan`]s as
    /// complete events on the worker's lane, and other decisions as
    /// instant (`"i"`) events. Open the file in Perfetto
    /// (`ui.perfetto.dev`) or `chrome://tracing`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_chrome_trace(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for s in self.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            json::write_object(
                &mut out,
                &[
                    ("name", s.name.clone().into()),
                    ("cat", "phase".into()),
                    ("ph", "X".into()),
                    ("ts", s.start_us.into()),
                    ("dur", s.dur_us.into()),
                    ("pid", 1u64.into()),
                    ("tid", (u64::from(s.tid) + 1).into()),
                ],
            );
        }
        for e in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            if let Event::WorkerSpan {
                pool,
                worker,
                item,
                start_us,
                dur_us,
            } = &e.event
            {
                // A complete event on the worker's lane, so N-thread runs
                // show N parallel lanes of pool items.
                json::write_object(
                    &mut out,
                    &[
                        ("name", format!("{pool}[{item}]").into()),
                        ("cat", "pool".into()),
                        ("ph", "X".into()),
                        ("ts", (*start_us).into()),
                        ("dur", (*dur_us).into()),
                        ("pid", 1u64.into()),
                        ("tid", (*worker + 2).into()),
                    ],
                );
                continue;
            }
            // Instant event with the payload under "args".
            out.push_str("{\"name\":\"");
            out.push_str(&json::escape(e.event.kind()));
            out.push_str("\",\"cat\":\"decision\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            out.push_str(&e.ts_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":1,\"args\":");
            let mut args = String::new();
            json::write_object(&mut args, &e.event.fields());
            out.push_str(&args);
            out.push('}');
        }
        out.push_str("]}\n");
        w.write_all(out.as_bytes())
    }
}

/// Timing/attribution fields a trace line may carry that depend on
/// wall-clock or on scheduling, not on what the compiler decided.
const NONDETERMINISTIC_FIELDS: [&str; 5] = ["ts_us", "start_us", "dur_us", "worker", "tid"];

/// Normalizes a JSONL trace for comparison across runs and worker counts:
/// every top-level timing or worker-attribution field (`ts_us`,
/// `start_us`, `dur_us`, `worker`, `tid`) is zeroed, everything else —
/// content, field order, line order — is preserved. Two runs of the same
/// deterministic workload normalize to byte-identical text regardless of
/// `--jobs`; that equality is the determinism contract CI enforces.
#[must_use]
pub fn normalize_trace(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        match json::parse(line) {
            Ok(JsonValue::Obj(fields)) => {
                let normalized: Vec<(String, JsonValue)> = fields
                    .into_iter()
                    .map(|(k, v)| {
                        if NONDETERMINISTIC_FIELDS.contains(&k.as_str()) {
                            (k, JsonValue::Num(0.0))
                        } else {
                            (k, v)
                        }
                    })
                    .collect();
                JsonValue::Obj(normalized).render(&mut out);
            }
            // Not an object (or not JSON): keep the line verbatim.
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(Event::Diagnostic {
            level: "info",
            message: "dropped".into(),
        });
        tel.counter_add("c", 1);
        tel.histogram_record("h", 1);
        drop(tel.span("phase"));
        assert!(tel.events().is_empty());
        assert!(tel.spans().is_empty());
        assert!(tel.metrics().is_empty());
        let mut buf = Vec::new();
        tel.write_events_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn disabled_emit_is_cheap() {
        // Zero-cost when disabled: a handle clone is a None clone, and a
        // million no-op emits complete near-instantly (no lock, no alloc
        // beyond the event payloads the caller chose to build).
        let tel = Telemetry::disabled();
        let start = Instant::now();
        for _ in 0..1_000_000 {
            tel.counter_add("c", 1);
            if tel.is_enabled() {
                unreachable!();
            }
        }
        assert!(
            start.elapsed().as_millis() < 1_000,
            "disabled telemetry must be branch-cheap"
        );
    }

    #[test]
    fn events_and_spans_export_jsonl() {
        let tel = Telemetry::enabled();
        {
            let _s = tel.span("compile");
            tel.emit(Event::CycleEnumeration {
                cycles: 4,
                cap: 100,
                truncated: false,
            });
        }
        let mut buf = Vec::new();
        tel.write_events_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let ev = parse_json(lines[0]).unwrap();
        assert_eq!(ev.get("type").unwrap().as_str(), Some("cycle_enumeration"));
        assert_eq!(ev.get("cycles").unwrap().as_u64(), Some(4));
        let span = parse_json(lines[1]).unwrap();
        assert_eq!(span.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(span.get("name").unwrap().as_str(), Some("compile"));
        assert!(span.get("dur_us").unwrap().as_u64().is_some());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let tel = Telemetry::enabled();
        {
            let _s = tel.span("hlo");
        }
        tel.emit(Event::Diagnostic {
            level: "info",
            message: "x".into(),
        });
        let mut buf = Vec::new();
        tel.write_chrome_trace(&mut buf).unwrap();
        let v = parse_json(std::str::from_utf8(&buf).unwrap().trim()).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(
            evs[1].get("args").unwrap().get("message").unwrap().as_str(),
            Some("x")
        );
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::enabled();
        let tel2 = tel.clone();
        tel2.counter_add("shared", 2);
        tel.counter_add("shared", 3);
        assert_eq!(tel.metrics().counter("shared"), 5);
    }

    #[test]
    fn threads_feed_one_sink() {
        let tel = Telemetry::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = tel.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.counter_add("n", 1);
                        t.info("tick");
                    }
                });
            }
        });
        assert_eq!(tel.metrics().counter("n"), 400);
        assert_eq!(tel.events().len(), 400);
    }
}
