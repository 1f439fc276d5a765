//! From-outside tracing: spans around the harness's own calls into each
//! layer's public functions.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)` plus `calls`, the
//! number of layer calls it covers (1 except for batch spans around a
//! tight loop whose iterations are too short to stamp one by one). Spans
//! are kept in memory and written out once, when the run ends. A disabled
//! tracer takes no timestamps at all, so the untraced run pays one branch
//! per would-be span.
//!
//! A traced run traces every other operation: [`Tracer::begin_op`] turns
//! recording on when `op_id + parity` is odd, and the runner flips the
//! parity each pass. Over two passes every operation is measured once
//! traced and once plain, a few seconds apart, so the tracing overhead is
//! the ratio of two sums over the same operations, and a change of host
//! speed between passes falls on both sums alike.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to (spans of one op share it).
    pub op_id: u64,
    /// Layer calls covered by this span.
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Layer calls those spans cover.
    pub calls: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children).
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per covered call, in microseconds.
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    /// Mean duration per span (a batch span counts once), microseconds.
    pub fn us_per_span(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.spans as f64 / 1e3
        }
    }
}

/// A single-threaded span recorder. Threads each own one (sharing the
/// origin) and the owner merges them with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// `Some(parity)` in a traced run: which operations `begin_op` traces.
    sampling: Option<u64>,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u64,
}

impl Tracer {
    /// A disabled tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: false,
            sampling: None,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records everything from now on (probes), or nothing.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.sampling = None;
    }

    /// Traces the operations whose `op_id + parity` is odd.
    pub fn sample_ops(&mut self, parity: u64) {
        self.sampling = Some(parity);
    }

    /// The sampling parity, for a thread's own tracer to copy.
    pub fn sampling(&self) -> Option<u64> {
        self.sampling
    }

    /// Starts operation `op_id`: spans opened from now on carry it, and
    /// in a sampling run it decides whether they are recorded at all.
    /// Returns whether the operation is traced.
    pub fn begin_op(&mut self, op_id: u64) -> bool {
        self.op_id = op_id;
        if let Some(parity) = self.sampling {
            self.enabled = (op_id + parity) % 2 == 1;
        }
        self.enabled
    }

    /// Times `f` as one call of `name`, nested under the open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.time_n(name, 1, f)
    }

    /// Times `f` as a batch span covering `calls` calls of `name`.
    pub fn time_n<T>(
        &mut self,
        name: &'static str,
        calls: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            calls,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Appends another tracer's spans (parent links re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        summarize(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.calls
            )?;
        }
        out.flush()
    }
}

/// Totals per name over the spans `keep` accepts. Self time = duration
/// − Σ direct children's durations (children count whether kept or not).
fn summarize_if(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        if !keep(s) {
            continue;
        }
        let a = out.entry(s.name).or_default();
        a.spans += 1;
        a.calls += s.calls;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

/// Totals and self times per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    summarize_if(spans, |_| true)
}

/// [`summarize`] restricted to the direct children of spans named
/// `parent_name`.
pub fn summarize_under(spans: &[Span], parent_name: &str) -> BTreeMap<&'static str, Agg> {
    summarize_if(spans, |s| {
        s.parent
            .is_some_and(|p| spans[p as usize].name == parent_name)
    })
}

/// Spans whose direct children together last longer than the span itself
/// or start/end outside it. Always 0 for spans a [`Tracer`] recorded on
/// one thread; the traced run checks it anyway before reporting.
pub fn nesting_violations(spans: &[Span]) -> usize {
    let mut child_ns = vec![0u64; spans.len()];
    let mut bad = 0;
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            child_ns[p as usize] += s.dur_ns();
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                bad += 1;
            }
        }
    }
    bad + spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, &c)| c > s.dur_ns())
        .count()
}
