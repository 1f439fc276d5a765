//! A metrics registry: named monotonic counters and log₂-bucketed
//! histograms, exported as one JSON snapshot.

use std::collections::BTreeMap;

use crate::json::{write_object, Scalar};

/// Linear sub-buckets per power-of-two octave, as a log₂ (2³ = 8):
/// within an octave `[2^k, 2^(k+1))` a sample lands in one of 8
/// equal-width slices, bounding quantile estimates to a 12.5% relative
/// error while the exported octave view stays byte-identical.
const SUB_LOG2: u32 = 3;
const SUBS: usize = 1 << SUB_LOG2;
const FINE_BUCKETS: usize = 1 + 64 * SUBS;

/// A log-scale-bucketed histogram of `u64` samples with bounded-error
/// quantile extraction.
///
/// Externally the histogram exposes power-of-two octaves (bucket `i`
/// counts samples with `floor(log2(v)) == i - 1`; bucket 0 is the value
/// 0) via [`Histogram::nonzero_buckets`] — plenty of resolution for
/// cycle counts and sizes, and the stable JSON surface. Internally each
/// octave is split into 8 linear sub-buckets, which is what gives
/// [`Histogram::quantile`] its ≤ 1/8 relative error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    fine: [u64; FINE_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            fine: [0; FINE_BUCKETS],
        }
    }
}

impl Histogram {
    /// The fine bucket a value lands in: 0 for the value 0, else octave
    /// `k = floor(log2 v)` sliced into [`SUBS`] linear sub-buckets.
    fn fine_index(value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let k = 63 - value.leading_zeros();
        let off = value - (1u64 << k);
        let sub = if k >= SUB_LOG2 {
            off >> (k - SUB_LOG2)
        } else {
            off << (SUB_LOG2 - k)
        };
        1 + (k as usize) * SUBS + sub as usize
    }

    /// The smallest value that maps to fine bucket `i`.
    fn fine_lower_bound(i: usize) -> u64 {
        if i == 0 {
            return 0;
        }
        let k = ((i - 1) / SUBS) as u32;
        let s = ((i - 1) % SUBS) as u64;
        let off = if k >= SUB_LOG2 {
            s << (k - SUB_LOG2)
        } else {
            (s << k) >> SUB_LOG2
        };
        (1u64 << k) + off
    }

    /// The largest value that maps to fine bucket `i` (`u64::MAX` for
    /// the top bucket). Low octaves have sub-buckets narrower than 1;
    /// the bound is the last value before the next *distinct* bucket.
    fn fine_upper_bound(i: usize) -> u64 {
        let lo = Self::fine_lower_bound(i);
        for j in i + 1..FINE_BUCKETS {
            let next = Self::fine_lower_bound(j);
            if next > lo {
                return next - 1;
            }
        }
        u64::MAX
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.fine[Self::fine_index(value)] += 1;
    }

    /// The mean sample, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one (bucket-wise; commutative
    /// and associative, so parallel per-worker registries merge to the
    /// same state in any order).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, ob) in self.fine.iter_mut().zip(&other.fine) {
            *b += ob;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the recorded samples, or
    /// `None` when the histogram is empty — never a fabricated 0.
    ///
    /// The estimate is the lower bound of the sub-bucket holding the
    /// rank-`⌈q·count⌉` sample, clamped into `[min, max]`: at most a
    /// 1/8 relative error (sub-buckets are an eighth of their octave),
    /// exact for values below 8, and monotone in `q`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return Some(self.max); // p100 is tracked exactly
        }
        let mut seen = 0u64;
        for (i, &c) in self.fine.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::fine_lower_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty power-of-two buckets as `(lower_bound, count)` pairs —
    /// the stable octave view ([`Histogram::to_json`] via
    /// `Metrics::to_json` renders exactly this, unchanged by the fine
    /// sub-bucketing).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if self.fine[0] > 0 {
            out.push((0, self.fine[0]));
        }
        for k in 0..64 {
            let c: u64 = self.fine[1 + k * SUBS..1 + (k + 1) * SUBS].iter().sum();
            if c > 0 {
                out.push((1u64 << k, c));
            }
        }
        out
    }

    /// Cumulative `(le, count)` pairs over the non-empty fine buckets,
    /// in increasing `le` order — the shape a Prometheus-style
    /// `_bucket{le=...}` exposition needs. `le` is the inclusive upper
    /// bound of each occupied sub-bucket (`u64::MAX` ≙ `+Inf`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.fine.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((Self::fine_upper_bound(i), cum));
        }
        out
    }
}

/// The registry behind [`crate::Telemetry`]'s metric methods.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Adds to a monotonic counter (creating it at 0).
    pub(crate) fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records a histogram sample (creating the histogram).
    pub(crate) fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// A counter's current value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge bucket-wise. Commutative, so splicing per-worker registries
    /// yields the same totals as a serial run.
    pub(crate) fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// The snapshot as one pretty-printed JSON document:
    /// `{"counters": {...}, "histograms": {name: {count, sum, min, max,
    /// mean, buckets: [[lo, n], ...]}}}`.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(&crate::json::escape(k));
            out.push_str(&format!("\": {v}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(&crate::json::escape(k));
            out.push_str("\": ");
            let mut obj = String::new();
            write_object(
                &mut obj,
                &[
                    ("count", h.count.into()),
                    ("sum", h.sum.into()),
                    ("min", if h.count == 0 { 0u64 } else { h.min }.into()),
                    ("max", h.max.into()),
                    ("mean", Scalar::F64(h.mean())),
                ],
            );
            // Splice the buckets array in before the closing brace.
            obj.pop();
            obj.push_str(",\"buckets\":[");
            for (j, (lo, n)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    obj.push(',');
                }
                obj.push_str(&format!("[{lo},{n}]"));
            }
            obj.push_str("]}");
            out.push_str(&obj);
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    impl Metrics {
        /// True when nothing has been recorded.
        pub(crate) fn is_empty(&self) -> bool {
            self.counters.is_empty() && self.histograms.is_empty()
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.counter_add("sim.cycles.total", 10);
        m.counter_add("sim.cycles.total", 5);
        assert_eq!(m.counter("sim.cycles.total"), 15);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 -> bucket 0; 1 -> [1,2); 2,3 -> [2,4); 1024 -> [1024,2048).
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (1024, 1)]);
    }

    #[test]
    fn empty_histogram_quantile_is_none_not_zero() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn quantiles_are_exact_for_small_values_and_monotone() {
        let mut h = Histogram::default();
        for v in 0..8u64 {
            h.record(v);
        }
        // Sub-buckets are exact below 8: rank-based quantiles hit the
        // recorded values themselves.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(7));
        assert_eq!(h.quantile(0.5), Some(3));
        let mut prev = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= prev, "quantile not monotone at {i}%: {q} < {prev}");
            prev = q;
        }
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = Histogram::default();
        // A geometric-ish spread across several octaves.
        let samples: Vec<u64> = (0..200u64).map(|i| 3 + i * i * 7).collect();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1] as f64;
            let est = h.quantile(q).unwrap() as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.125 + 1e-9, "q={q}: est {est} vs exact {exact}");
        }
        assert_eq!(h.quantile(1.0), Some(*sorted.last().unwrap()));
    }

    #[test]
    fn merged_quantiles_match_combined_stream_within_bucket_error() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut combined = Histogram::default();
        for i in 0..500u64 {
            let v = (i * 37) % 10_000;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count, combined.count);
        for q in [0.5, 0.9, 0.95, 0.99] {
            // Bucket contents are identical after merge, so quantiles
            // agree exactly, not just within error.
            assert_eq!(a.quantile(q), combined.quantile(q), "q={q}");
        }
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_cover_count() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 5, 17, 17, 300, 70_000] {
            h.record(v);
        }
        let cum = h.cumulative_buckets();
        assert!(!cum.is_empty());
        let mut prev_le = None;
        let mut prev_cum = 0;
        for &(le, c) in &cum {
            if let Some(p) = prev_le {
                assert!(le > p, "le not increasing: {le} after {p}");
            }
            assert!(c > prev_cum, "cumulative count not increasing");
            prev_le = Some(le);
            prev_cum = c;
        }
        assert_eq!(cum.last().unwrap().1, h.count);
    }

    #[test]
    fn snapshot_is_valid_json() {
        let mut m = Metrics::default();
        m.counter_add("a.b", 7);
        m.histogram_record("h \"x\"", 3);
        m.histogram_record("h \"x\"", 300);
        let v = parse(&m.to_json()).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a.b").unwrap().as_u64(),
            Some(7)
        );
        let h = v.get("histograms").unwrap().get("h \"x\"").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(303));
        assert_eq!(h.get("buckets").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn empty_snapshot_parses() {
        let m = Metrics::default();
        assert!(m.is_empty());
        assert!(parse(&m.to_json()).is_ok());
    }
}
