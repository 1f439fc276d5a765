//! Minimal Prometheus text exposition: a renderer for the daemon's
//! `{"op":"metrics"}` snapshot and a parser/checker used by `ltspc top`,
//! `loadgen --metrics-out`, tests, and CI.
//!
//! Only the slice of the format we emit is supported: `# TYPE`/`# HELP`
//! comment lines and `name{label="value",...} value` samples. Histograms
//! follow the standard convention — cumulative `_bucket{le="..."}`
//! series per label set, closed by `le="+Inf"`, plus `_sum` and
//! `_count`. No external dependencies, like everything else here.

use crate::metrics::Histogram;

/// Appends a `# TYPE` line.
pub fn push_type(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn push_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&crate::json::escape(v));
        out.push('"');
    }
    out.push('}');
}

/// Appends one sample line, `name{labels} value`.
pub fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    push_labels(out, labels);
    out.push(' ');
    if value.fract() == 0.0 && value.abs() < 1e15 {
        out.push_str(&format!("{}", value as i64));
    } else {
        out.push_str(&format!("{value}"));
    }
    out.push('\n');
}

/// Appends a full histogram family instance (cumulative `_bucket` lines
/// with `le="+Inf"`, `_sum`, `_count`) for one label set. The caller
/// emits the `# TYPE name histogram` line once per family.
pub fn push_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &Histogram) {
    let bucket = format!("{name}_bucket");
    for (le, cum) in h.cumulative_buckets() {
        let le_s = if le == u64::MAX {
            "+Inf".to_string()
        } else {
            le.to_string()
        };
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", &le_s));
        push_sample(out, &bucket, &ls, cum as f64);
    }
    // The +Inf bucket is mandatory even when the top recorded bucket is
    // finite (or the histogram is empty).
    if h.cumulative_buckets().last().map(|&(le, _)| le) != Some(u64::MAX) {
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        push_sample(out, &bucket, &ls, h.count as f64);
    }
    push_sample(out, &format!("{name}_sum"), labels, h.sum as f64);
    push_sample(out, &format!("{name}_count"), labels, h.count as f64);
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True when this sample carries exactly `want` after dropping `le`.
    fn matches(&self, name: &str, want: &[(&str, &str)]) -> bool {
        if self.name != name {
            return false;
        }
        let rest: Vec<&(String, String)> = self.labels.iter().filter(|(k, _)| k != "le").collect();
        rest.len() == want.len()
            && want
                .iter()
                .all(|(k, v)| rest.iter().any(|r| r.0 == *k && r.1 == *v))
    }
}

/// A parsed (and structurally validated) exposition snapshot.
#[derive(Debug, Default)]
pub struct PromSnapshot {
    /// Every sample line, in source order.
    pub samples: Vec<Sample>,
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let err = |m: &str| format!("{m}: {line:?}");
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| err("sample line without value"))?;
    let value: f64 = value.parse().map_err(|_| err("unparseable value"))?;
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| err("unterminated label set"))?;
            let mut labels = Vec::new();
            if !body.is_empty() {
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("label without ="))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((k.to_string(), v.to_string()));
                }
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(err("invalid metric name"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn le_value(s: &str) -> Result<f64, String> {
    if s == "+Inf" {
        Ok(f64::INFINITY)
    } else {
        s.parse().map_err(|_| format!("unparseable le {s:?}"))
    }
}

impl PromSnapshot {
    /// Parses exposition text, validating line syntax and — for every
    /// `*_bucket` family instance — that cumulative counts are monotone
    /// in `le`, the `le="+Inf"` bucket is present, and it agrees with
    /// the matching `_count` sample when one exists.
    pub fn parse(text: &str) -> Result<PromSnapshot, String> {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_line(line)?);
        }
        let snap = PromSnapshot { samples };
        snap.check_histograms()?;
        Ok(snap)
    }

    fn check_histograms(&self) -> Result<(), String> {
        // Group _bucket samples by (family, labels-minus-le).
        type BucketGroup = (String, Vec<(String, String)>, Vec<(f64, f64)>);
        let mut groups: Vec<BucketGroup> = Vec::new();
        for s in &self.samples {
            let Some(family) = s.name.strip_suffix("_bucket") else {
                continue;
            };
            let le = le_value(
                s.label("le")
                    .ok_or_else(|| format!("{}: bucket sample without le label", s.name))?,
            )?;
            let key: Vec<(String, String)> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            match groups.iter_mut().find(|(f, k, _)| f == family && *k == key) {
                Some((_, _, les)) => les.push((le, s.value)),
                None => groups.push((family.to_string(), key, vec![(le, s.value)])),
            }
        }
        for (family, key, les) in &groups {
            let ctx = || format!("{family}{key:?}");
            let mut sorted = les.clone();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut prev = -1.0f64;
            for &(_, cum) in &sorted {
                if cum < prev {
                    return Err(format!("{}: non-monotone cumulative buckets", ctx()));
                }
                prev = cum;
            }
            let Some(&(last_le, last_cum)) = sorted.last() else {
                continue;
            };
            if last_le != f64::INFINITY {
                return Err(format!("{}: missing le=\"+Inf\" bucket", ctx()));
            }
            let count_name = format!("{family}_count");
            let want: Vec<(&str, &str)> =
                key.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            if let Some(count) = self.samples.iter().find(|s| s.matches(&count_name, &want)) {
                if count.value != last_cum {
                    return Err(format!(
                        "{}: +Inf bucket {} disagrees with _count {}",
                        ctx(),
                        last_cum,
                        count.value
                    ));
                }
            }
        }
        Ok(())
    }

    /// The value of the sample matching `name` and exactly `labels`
    /// (order-insensitive), if present.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.matches(name, labels))
            .map(|s| s.value)
    }

    /// The shard indices of a router's aggregated snapshot (its
    /// `ltsp_shard_up` rows), ascending — empty for a single daemon's.
    pub fn shard_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.name == "ltsp_shard_up")
            .filter_map(|s| s.label("shard")?.parse().ok())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A histogram instance's sample count (`<name>_count`).
    pub fn histogram_count(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.value(&format!("{name}_count"), labels)
    }

    /// Estimates the `q`-quantile of a histogram family instance from
    /// its cumulative buckets (the upper bound of the first bucket whose
    /// cumulative count reaches rank). `None` when absent or empty.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        let bucket_name = format!("{name}_bucket");
        let mut buckets: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|s| s.matches(&bucket_name, labels))
            .filter_map(|s| le_value(s.label("le")?).ok().map(|le| (le, s.value)))
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total = buckets.last()?.1;
        if total == 0.0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total).ceil().max(1.0);
        let mut bounded = 0.0f64;
        for &(le, cum) in &buckets {
            if cum >= rank {
                if le.is_finite() {
                    return Some(le);
                }
                // Rank lands in the +Inf bucket: best effort is the last
                // finite bound (or 0 when every sample overflowed).
                return Some(bounded);
            }
            if le.is_finite() {
                bounded = le;
            }
        }
        Some(bounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let mut h = Histogram::default();
        for v in [3u64, 9, 17, 17, 250, 1024] {
            h.record(v);
        }
        let mut out = String::new();
        push_type(&mut out, "ltsp_requests_total", "counter");
        push_sample(&mut out, "ltsp_requests_total", &[("status", "ok")], 7.0);
        push_type(&mut out, "ltsp_phase_us", "histogram");
        push_histogram(&mut out, "ltsp_phase_us", &[("phase", "sched")], &h);
        let snap = PromSnapshot::parse(&out).expect("parses");
        assert_eq!(
            snap.value("ltsp_requests_total", &[("status", "ok")]),
            Some(7.0)
        );
        assert_eq!(
            snap.histogram_count("ltsp_phase_us", &[("phase", "sched")]),
            Some(6.0)
        );
        let p50 = snap
            .histogram_quantile("ltsp_phase_us", &[("phase", "sched")], 0.5)
            .unwrap();
        // Median sample is 17; the estimate is its bucket's upper bound.
        assert!((15.0..=20.0).contains(&p50), "p50 estimate {p50}");
    }

    #[test]
    fn empty_histogram_still_valid_and_quantile_none() {
        let h = Histogram::default();
        let mut out = String::new();
        push_type(&mut out, "x_us", "histogram");
        push_histogram(&mut out, "x_us", &[], &h);
        let snap = PromSnapshot::parse(&out).expect("parses");
        assert_eq!(snap.histogram_count("x_us", &[]), Some(0.0));
        assert_eq!(snap.histogram_quantile("x_us", &[], 0.5), None);
    }

    #[test]
    fn shard_ids_come_from_the_shard_up_rows() {
        let mut out = String::new();
        push_sample(&mut out, "ltsp_requests_total", &[("shard", "7")], 1.0);
        for shard in ["10", "2", "0"] {
            push_sample(&mut out, "ltsp_shard_up", &[("shard", shard)], 1.0);
        }
        let snap = PromSnapshot::parse(&out).expect("parses");
        assert_eq!(snap.shard_ids(), vec![0, 2, 10]);
        let single = PromSnapshot::parse("ltsp_requests_total 3\n").expect("parses");
        assert!(single.shard_ids().is_empty());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(PromSnapshot::parse("no_value_here\n").is_err());
        assert!(PromSnapshot::parse("bad-name 1\n").is_err());
        assert!(PromSnapshot::parse("x{le=\"oops} 1\n").is_err());
        // Non-monotone cumulative buckets are rejected.
        let bad = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n";
        assert!(PromSnapshot::parse(bad).is_err());
        // Missing +Inf is rejected.
        let bad2 = "h_bucket{le=\"1\"} 5\n";
        assert!(PromSnapshot::parse(bad2).is_err());
    }
}
