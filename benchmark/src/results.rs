//! Result files: what `run` writes and `compare` reads.
//!
//! A result file carries the host it was measured on, so two files can be
//! refused instead of compared when their numbers cannot mean the same
//! thing (different machine, seed or build profile).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use ltsp_telemetry::json::{self, escape, JsonValue};

use crate::metrics::{lookup, Better, END_TO_END};
use crate::workloads::Outcome;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub profile: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

impl Host {
    /// Reads the host's metadata (`unknown` where a source is missing,
    /// e.g. no `git` directory in a driver checkout).
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// One workload's section of a result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub passes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
    pub exact: BTreeMap<String, f64>,
    /// Raw timings and the host slowdown they were divided by.
    pub info: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn from_outcome(o: &Outcome) -> WorkloadResult {
        WorkloadResult {
            passes: o.passes as u64,
            attempted: o.attempted,
            failed: o.failed,
            metrics: o
                .metrics
                .0
                .iter()
                .map(|(k, v)| {
                    let unit = lookup(k).map_or("", |d| d.unit);
                    (k.clone(), (*v, unit.to_string()))
                })
                .collect(),
            exact: o.exact.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            info: o.info.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn render(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"passes\":{},\"attempted\":{},\"failed\":{},\"correct\":{},\"metrics\":{{",
            self.passes,
            self.attempted,
            self.failed,
            self.failed == 0
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            push_metric(out, i == 0, name, *value, unit);
        }
        for (key, map) in [("exact", &self.exact), ("info", &self.info)] {
            let _ = write!(out, "}},\"{key}\":{{");
            for (i, (name, value)) in map.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{}\":{}", escape(name), num(*value));
            }
        }
        out.push_str("}}");
    }
}

/// Appends `"name":{"value":V,"unit":"U"}` (preceded by a comma unless
/// first): the metric shape of result files and of the driver line.
pub fn push_metric(out: &mut String, first: bool, name: &str, value: f64, unit: &str) {
    let sep = if first { "" } else { "," };
    let _ = write!(
        out,
        "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
        escape(name),
        num(value),
        escape(unit)
    );
}

/// A float as a JSON number with all its digits (non-finite → 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A whole result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub host: Host,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl ResultFile {
    pub fn render(&self) -> String {
        let h = &self.host;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":1,\"host\":{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"profile\":\"{}\"}},\"seed\":{},\"traced\":{},\"seconds\":{},\"workloads\":{{",
            h.nproc,
            escape(&h.cpu_model),
            escape(&h.rustc),
            escape(&h.git_rev),
            h.profile,
            self.seed,
            self.traced,
            num(self.seconds)
        );
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n\"{}\":", escape(name));
            w.render(&mut out);
        }
        out.push_str("\n}}\n");
        out
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let v = json::parse(text)?;
        let s = |v: &JsonValue, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string '{k}'"))
        };
        let n = |v: &JsonValue, k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing number '{k}'"))
        };
        let host = v.get("host").ok_or("missing 'host'")?;
        let mut workloads = BTreeMap::new();
        for (name, w) in v
            .get("workloads")
            .and_then(JsonValue::as_object)
            .ok_or("missing 'workloads'")?
        {
            let mut r = WorkloadResult {
                passes: n(w, "passes")? as u64,
                attempted: n(w, "attempted")? as u64,
                failed: n(w, "failed")? as u64,
                ..WorkloadResult::default()
            };
            for (m, mv) in w
                .get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap_or(&[])
            {
                r.metrics
                    .insert(m.clone(), (n(mv, "value")?, s(mv, "unit")?));
            }
            for (key, map) in [("exact", &mut r.exact), ("info", &mut r.info)] {
                for (e, ev) in w.get(key).and_then(JsonValue::as_object).unwrap_or(&[]) {
                    map.insert(e.clone(), ev.as_f64().ok_or("non-numeric count")?);
                }
            }
            workloads.insert(name.clone(), r);
        }
        Ok(ResultFile {
            host: Host {
                nproc: n(host, "nproc")? as usize,
                cpu_model: s(host, "cpu_model")?,
                rustc: s(host, "rustc")?,
                git_rev: s(host, "git_rev")?,
                profile: if s(host, "profile")? == "release" {
                    "release"
                } else {
                    "debug"
                },
            },
            seed: n(&v, "seed")? as u64,
            traced: matches!(v.get("traced"), Some(JsonValue::Bool(true))),
            seconds: n(&v, "seconds")?,
            workloads,
        })
    }
}

/// Set-up time may also worsen by this much in absolute terms before it
/// counts: a quarter of a few milliseconds is scheduler noise.
const SETUP_ABS_SLACK_S: f64 = 0.1;

/// The outcome of comparing result file B against base A.
#[derive(Debug, Default)]
pub struct Comparison {
    pub report: String,
    pub exceeded: usize,
    pub exact_differ: usize,
}

/// Compares every (workload, end-to-end metric) of `b` against `a`.
///
/// # Errors
///
/// Refuses files that cannot be compared: different host, seed, profile
/// or tracing mode.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<Comparison, String> {
    if (a.host.nproc, &a.host.cpu_model) != (b.host.nproc, &b.host.cpu_model) {
        return Err(format!(
            "different hosts: {}x '{}' vs {}x '{}'",
            a.host.nproc, a.host.cpu_model, b.host.nproc, b.host.cpu_model
        ));
    }
    if a.host.profile != b.host.profile {
        return Err(format!(
            "different build profiles: {} vs {}",
            a.host.profile, b.host.profile
        ));
    }
    if a.seed != b.seed {
        return Err(format!("different seeds: {} vs {}", a.seed, b.seed));
    }
    if a.traced || b.traced {
        return Err("bounds apply to untraced runs only".to_string());
    }
    let mut c = Comparison::default();
    let _ = writeln!(
        c.report,
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            let _ = writeln!(c.report, "{name:<14} missing from B");
            c.exceeded += 1;
            continue;
        };
        for def in &END_TO_END {
            let (Some((va, _)), Some((vb, _))) =
                (wa.metrics.get(def.name), wb.metrics.get(def.name))
            else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            // Relative worsening of B against base A, in the metric's own
            // direction.
            let worse = match def.better {
                Better::Lower => (vb - va) / va.abs().max(1e-12),
                Better::Higher => (va - vb) / va.abs().max(1e-12),
            };
            let excused = def.name == "setup_s" && (vb - va) <= SETUP_ABS_SLACK_S;
            let bad = worse > bound && !excused;
            c.exceeded += usize::from(bad);
            let _ = writeln!(
                c.report,
                "{name:<14} {:<13} {va:>14.4} {vb:>14.4} {:>8.4} {:>6.0}%  {}",
                def.name,
                vb / va,
                bound * 100.0,
                if bad { "EXCEEDED" } else { "ok" }
            );
        }
        if wa.failed + wb.failed > 0 {
            let _ = writeln!(
                c.report,
                "{name:<14} failed checks: A {}/{}  B {}/{}  EXCEEDED",
                wa.failed, wa.attempted, wb.failed, wb.attempted
            );
            c.exceeded += 1;
        }
        for (k, ea) in &wa.exact {
            let eb = wb.exact.get(k);
            if eb != Some(ea) {
                c.exact_differ += 1;
                let _ = writeln!(
                    c.report,
                    "{name:<14} exact count {k} differs: A {} B {}",
                    num(*ea),
                    eb.map_or("absent".to_string(), |v| num(*v))
                );
            }
        }
    }
    Ok(c)
}
