//! Request-scoped phase timing.
//!
//! A [`PhaseTimer`] is a fixed array of atomic microsecond accumulators,
//! one per [`Phase`] — the compile pipeline's stages plus the daemon's
//! request-lifecycle segments. It is independent of [`crate::Telemetry`]
//! enablement (a served request always has one), `Sync` so the daemon
//! and the compile path can feed the same timer, and purely observational:
//! timing a closure changes nothing about its result.
//!
//! The compile path reports through an [`Observer`] — a sink plus an
//! optional timer — and times each of its phases once, with
//! [`Observer::time`]: the one clock reading goes to the timer and, when
//! tracing, into a `<phase>:<loop>` span.
//!
//! Determinism contract: phase *durations* are wall-clock and therefore
//! nondeterministic, so they never appear in any byte-compared artifact
//! unless the client opts in (`"timings":true` on the wire) or the
//! consumer scrubs them (the flight-recorder dump normalizer zeroes every
//! `*_us` field). The *shape* of [`PhaseTimer::to_json_object`] is fixed —
//! all phases, in declaration order, even when zero — so scrubbed
//! artifacts compare byte-identical across runs and `--jobs` levels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::Telemetry;

/// One timed segment of a request's life. The first seven are compiler
/// phases (recorded inside the compile path), the rest are server-side
/// lifecycle segments (recorded by the daemon and engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Loop-language parsing (engine-side request body → `Loop`).
    Parse,
    /// High-level optimizations (`run_hlo`).
    Hlo,
    /// DDG construction, ResMII/RecMII analysis, and data-speculation
    /// edge pruning.
    Ddg,
    /// Modulo-reservation setup: load criticality classification and the
    /// acyclic profitability ceiling.
    Mrt,
    /// Modulo scheduling proper, across all II escalation retries.
    Sched,
    /// Rotating register allocation, across all II escalation retries.
    Regalloc,
    /// Emit/render: formatting the compiled artifact into the response
    /// body.
    Render,
    /// Time spent queued before the dispatcher picked the request up.
    QueueWait,
    /// Result-cache probe time (recorded on hits; misses attribute their
    /// time to the compile phases above).
    CacheLookup,
    /// Dispatcher hand-off: from queue pop to the handler starting.
    Dispatch,
    /// Total engine handler time (covers parse through render).
    Handler,
    /// Outbound writer time actually spent writing this response to the
    /// socket (metrics-only: the response envelope is sealed before the
    /// write happens).
    Write,
}

/// All phases, in declaration (and serialization) order.
pub const ALL_PHASES: [Phase; 12] = [
    Phase::Parse,
    Phase::Hlo,
    Phase::Ddg,
    Phase::Mrt,
    Phase::Sched,
    Phase::Regalloc,
    Phase::Render,
    Phase::QueueWait,
    Phase::CacheLookup,
    Phase::Dispatch,
    Phase::Handler,
    Phase::Write,
];

impl Phase {
    /// The phase's wire/metric name (also the Prometheus `phase` label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Hlo => "hlo",
            Phase::Ddg => "ddg",
            Phase::Mrt => "mrt",
            Phase::Sched => "sched",
            Phase::Regalloc => "regalloc",
            Phase::Render => "render",
            Phase::QueueWait => "queue_wait",
            Phase::CacheLookup => "cache_lookup",
            Phase::Dispatch => "dispatch",
            Phase::Handler => "handler",
            Phase::Write => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Hlo => 1,
            Phase::Ddg => 2,
            Phase::Mrt => 3,
            Phase::Sched => 4,
            Phase::Regalloc => 5,
            Phase::Render => 6,
            Phase::QueueWait => 7,
            Phase::CacheLookup => 8,
            Phase::Dispatch => 9,
            Phase::Handler => 10,
            Phase::Write => 11,
        }
    }
}

/// Per-request phase accumulators, in microseconds.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    us: [AtomicU64; ALL_PHASES.len()],
}

impl PhaseTimer {
    /// A fresh timer with every phase at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `us` microseconds to a phase (phases hit repeatedly — e.g.
    /// `sched` across II escalation retries — accumulate).
    pub fn add_us(&self, phase: Phase, us: u64) {
        self.us[phase.index()].fetch_add(us, Ordering::Relaxed);
    }

    /// Times a closure into a phase and returns its result.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add_us(phase, t0.elapsed().as_micros() as u64);
        out
    }

    /// A phase's accumulated microseconds.
    pub fn get_us(&self, phase: Phase) -> u64 {
        self.us[phase.index()].load(Ordering::Relaxed)
    }

    /// All `(phase, us)` pairs in declaration order, zeros included.
    pub fn snapshot(&self) -> Vec<(Phase, u64)> {
        ALL_PHASES.iter().map(|&p| (p, self.get_us(p))).collect()
    }

    /// The breakdown as a JSON object, `{"parse_us":0,...}`. Every phase
    /// is present in a fixed order so the object's *shape* is
    /// deterministic even though the values are wall-clock.
    pub fn to_json_object(&self) -> String {
        let mut out = String::from("{");
        for (i, (p, us)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}_us\":{us}", p.name()));
        }
        out.push('}');
        out
    }
}

/// Where one compile reports: the telemetry sink its decision trail goes
/// to and, optionally, a [`PhaseTimer`]. It is `Copy`, so every layer of
/// the compile path takes it by value.
#[derive(Debug, Clone, Copy)]
pub struct Observer<'a> {
    /// The sink for decision events, counters and phase spans.
    pub tel: &'a Telemetry,
    /// The timer compile phases are added to, if any.
    pub phases: Option<&'a PhaseTimer>,
}

/// The sink of [`Observer::disabled`].
static DISABLED: Telemetry = Telemetry { inner: None };

impl Observer<'static> {
    /// Records nothing and reads no clock: a disabled sink, no timer.
    pub fn disabled() -> Self {
        Observer {
            tel: &DISABLED,
            phases: None,
        }
    }
}

impl<'a> Observer<'a> {
    /// Reports to `tel` and, when given, `phases`.
    pub fn new(tel: &'a Telemetry, phases: Option<&'a PhaseTimer>) -> Self {
        Observer { tel, phases }
    }

    /// Runs `f` as `phase` of the work named `scope` (a loop name) and
    /// returns its result. With no timer and a disabled sink this is
    /// `f()` and one branch. Otherwise the clock is read once around `f`;
    /// that reading is added to the timer and, when the sink is enabled,
    /// recorded as a span named `<phase>:<scope>` — so the spans of a
    /// phase sum exactly to what the timer holds for it.
    pub fn time<R>(self, phase: Phase, scope: &str, f: impl FnOnce() -> R) -> R {
        if self.phases.is_none() && !self.tel.is_enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_micros() as u64;
        if let Some(t) = self.phases {
            t.add_us(phase, us);
        }
        if let Some(inner) = &self.tel.inner {
            crate::push_span(inner, format!("{}:{scope}", phase.name()), start, us);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_snapshot_in_order() {
        let t = PhaseTimer::new();
        t.add_us(Phase::Sched, 5);
        t.add_us(Phase::Sched, 7);
        t.add_us(Phase::Parse, 1);
        assert_eq!(t.get_us(Phase::Sched), 12);
        let snap = t.snapshot();
        assert_eq!(snap.len(), ALL_PHASES.len());
        assert_eq!(snap[0], (Phase::Parse, 1));
        assert_eq!(snap[4], (Phase::Sched, 12));
    }

    #[test]
    fn json_object_has_every_phase_in_fixed_order() {
        let t = PhaseTimer::new();
        t.add_us(Phase::Handler, 42);
        let obj = t.to_json_object();
        let v = crate::json::parse(&obj).expect("valid json");
        for p in ALL_PHASES {
            assert!(
                v.get(&format!("{}_us", p.name())).is_some(),
                "missing {}",
                p.name()
            );
        }
        assert_eq!(v.get("handler_us").unwrap().as_u64(), Some(42));
        // Shape is fixed: an empty timer serializes to the same keys.
        let empty = PhaseTimer::new().to_json_object();
        let ev = crate::json::parse(&empty).expect("valid json");
        assert_eq!(ev.get("handler_us").unwrap().as_u64(), Some(0));
    }
}
