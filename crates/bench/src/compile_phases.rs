//! The benchmark-locked compile-latency KPI harness.
//!
//! Compiles two kernel groups — the canonical [`kernel_library`] corpus
//! and a *scale* group of scheduling-heavy synthetic loops (the workload
//! class the serving path sees cold, where compile latency is dominated
//! by the MRT and scheduler phases) — once per latency policy and per
//! repetition, with a [`PhaseTimer`] attached to every compile. Each
//! compiler phase (`parse`, `hlo`, `ddg`, `mrt`, `sched`, `regalloc`,
//! `render`) gets one sample per compile, folded into a per-group
//! histogram, and so does `validate`: the [`LoopIr::new`] share of
//! `parse`, timed by replaying it on the parsed loop's parts, which
//! splits the text front end into reading and validation. It is a row of
//! this record only, not a telemetry [`Phase`]. One untimed pass per group with telemetry on counts what
//! the pipeliner decided — loops pipelined and rejected, `schedule_at`
//! calls made, loops the register floor rejected before the ladder — so
//! the record says what work the buckets timed.
//!
//! The output is a machine-readable record
//! (`ltsp.bench.compile_phases.v1`). A committed run of it in `results/`
//! is the **locked baseline**: the `compile_phases` binary re-runs the
//! harness in CI and [`compare_to_baseline`] fails loudly when any phase
//! bucket grossly regresses (mean above `factor ×` baseline and past an
//! absolute floor that keeps microsecond-scale noise out of the gate), and
//! [`compare_counts`] when a decision count differs at all — counts do not
//! depend on host speed.
//!
//! Invariants (see DESIGN.md §18): timing is observational — the harness
//! compiles through the exact production entry points
//! ([`compile_loop_observed`] with a timer-only [`Observer`], whose
//! [`Observer::time`] is the one place a compile phase is timed, and the
//! shared report renderer) and changes nothing about their results; any
//! optimization judged by this harness must leave every compiled artifact
//! byte-identical.

use std::time::Instant;

use ltsp_core::{compile_loop_observed, CompileConfig, LatencyPolicy};
use ltsp_ir::{parse_loop, LoopIr};
use ltsp_machine::MachineModel;
use ltsp_server::render_compile_report;
use ltsp_telemetry::json::{self, JsonValue};
use ltsp_telemetry::{Histogram, Observer, Phase, PhaseTimer, Telemetry};
use ltsp_workloads::{kernel_library, scheduling_heavy};

/// The compiler phases the harness buckets, in pipeline order.
pub const COMPILE_PHASES: [Phase; 7] = [
    Phase::Parse,
    Phase::Hlo,
    Phase::Ddg,
    Phase::Mrt,
    Phase::Sched,
    Phase::Regalloc,
    Phase::Render,
];

/// The row that times [`LoopIr::new`] on a parsed loop's parts: the
/// validation inside `parse`.
pub const VALIDATE: &str = "validate";

/// The per-group exact counts and the pipeliner counters they read:
/// loops pipelined, loops rejected, `schedule_at` calls made (rejected
/// loops included), and loops rejected by the register floor alone.
pub const DECISION_COUNTS: [(&str, &str); 4] = [
    ("pipelined", "pipeliner.loops_pipelined"),
    ("rejected", "pipeliner.loops_rejected"),
    ("schedule_attempts", "pipeliner.schedule_attempts"),
    ("floor_rejections", "pipeliner.floor_rejections"),
];

/// One phase's KPI bucket: a latency histogram over per-compile samples
/// plus the exact accumulated wall time.
#[derive(Debug, Clone, Default)]
pub struct PhaseBucket {
    /// Per-compile phase latencies in microseconds.
    pub hist: Histogram,
    /// Total microseconds across all compiles (exact, not bucketed).
    pub total_us: u64,
}

/// KPIs for one kernel group.
#[derive(Debug, Clone)]
pub struct GroupKpis {
    /// Group name (`library` or `scale`).
    pub group: &'static str,
    /// Kernels in the group.
    pub kernels: usize,
    /// Compiles performed (kernels × policies × repeat).
    pub compiles: u64,
    /// Exact pipeliner decisions over one kernels × policies sweep, in
    /// [`DECISION_COUNTS`] order.
    pub decisions: [u64; 4],
    /// One bucket per entry of [`COMPILE_PHASES`], in that order.
    pub phases: Vec<(Phase, PhaseBucket)>,
    /// The [`VALIDATE`] row, printed after `parse`.
    pub validate: PhaseBucket,
}

impl GroupKpis {
    /// Every row in print order: each phase, with [`VALIDATE`] after
    /// `parse`.
    fn rows(&self) -> Vec<(&'static str, &PhaseBucket)> {
        let mut rows: Vec<_> = self.phases.iter().map(|(p, b)| (p.name(), b)).collect();
        rows.insert(1, (VALIDATE, &self.validate));
        rows
    }
}

/// The harness result: per-group per-phase compile-latency KPIs.
#[derive(Debug, Clone)]
pub struct CompilePhasesResult {
    /// Repetitions per kernel × policy.
    pub repeat: usize,
    /// Scale-group size multiplier.
    pub scale: usize,
    /// The measured groups.
    pub groups: Vec<GroupKpis>,
}

/// The scale group: scheduling-heavy loops in the size class the serving
/// path compiles cold (~100–300 instructions), wider and deeper than the
/// `loadgen --synthetic` kernels. `scheduling_heavy(s, d)` defines
/// `s·(2d+2)` values per class against 96 rotating registers, so most of
/// the group cannot pipeline at any II: the register floor rejects those
/// and their time is parse, graph construction and the acyclic schedule,
/// while the rest schedule once. The group's `rejected` and
/// `schedule_attempts` counts say which is which.
fn scale_kernels(scale: usize) -> Vec<LoopIr> {
    let n = 4 * scale.max(1);
    (0..n)
        .map(|i| scheduling_heavy(&format!("scale{i}"), 3 + i % 3, 9 + (3 * i) % 12))
        .collect()
}

/// The latency policies every kernel is compiled under (matches the
/// reproduce record's phase-KPI source).
const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];

fn measure_group(
    group: &'static str,
    kernels: &[(String, LoopIr)],
    machine: &MachineModel,
    repeat: usize,
) -> GroupKpis {
    let tel = Telemetry::disabled();
    let mut phases: Vec<(Phase, PhaseBucket)> = COMPILE_PHASES
        .iter()
        .map(|&p| (p, PhaseBucket::default()))
        .collect();
    let mut validate = PhaseBucket::default();
    let mut compiles = 0u64;
    // Render each kernel to its wire text once, outside any timer: the
    // parse bucket measures `parse_loop`, not the printer.
    let texts: Vec<String> = kernels.iter().map(|(_, lp)| lp.to_string()).collect();
    // The counting sweep (also the warm-up): same compiles, telemetry on.
    let counting = Telemetry::enabled();
    for policy in POLICIES {
        let cfg = CompileConfig::new(policy);
        for text in &texts {
            let lp = parse_loop(text).expect("printed loop");
            compile_loop_observed(&lp, machine, &cfg, 100.0, Observer::new(&counting, None));
        }
    }
    let counters = counting.metrics();
    let decisions = DECISION_COUNTS.map(|(_, counter)| counters.counter(counter));
    for policy in POLICIES {
        let cfg = CompileConfig::new(policy);
        for (text, _) in texts.iter().zip(kernels.iter()) {
            for _ in 0..repeat {
                let timer = PhaseTimer::new();
                let lp = timer.time(Phase::Parse, || parse_loop(text).expect("printed loop"));
                let (insts, memrefs) = (lp.insts().to_vec(), lp.memrefs().to_vec());
                let (deps, live_in) = (lp.mem_deps().to_vec(), lp.live_in().to_vec());
                let t0 = Instant::now();
                let again = LoopIr::new(lp.name(), insts, memrefs, deps, live_in);
                validate.add(t0.elapsed().as_micros() as u64);
                std::hint::black_box(again.expect("a parsed loop validates"));
                let obs = Observer::new(&tel, Some(&timer));
                let compiled = compile_loop_observed(&lp, machine, &cfg, 100.0, obs);
                let report = timer.time(Phase::Render, || {
                    render_compile_report(&compiled, policy, 100.0)
                });
                std::hint::black_box(report);
                compiles += 1;
                for (phase, bucket) in &mut phases {
                    bucket.add(timer.get_us(*phase));
                }
            }
        }
    }
    GroupKpis {
        group,
        kernels: kernels.len(),
        compiles,
        decisions,
        phases,
        validate,
    }
}

/// Runs the harness: compiles both kernel groups `repeat` times per
/// policy with phase attribution and returns the bucketed KPIs.
pub fn compile_phases(machine: &MachineModel, repeat: usize, scale: usize) -> CompilePhasesResult {
    let library: Vec<(String, LoopIr)> = kernel_library()
        .into_iter()
        .map(|(n, lp)| (n.to_string(), lp))
        .collect();
    let scaled: Vec<(String, LoopIr)> = scale_kernels(scale)
        .into_iter()
        .map(|lp| (lp.name().to_string(), lp))
        .collect();
    CompilePhasesResult {
        repeat,
        scale,
        groups: vec![
            measure_group("library", &library, machine, repeat),
            measure_group("scale", &scaled, machine, repeat),
        ],
    }
}

impl CompilePhasesResult {
    /// The machine-readable record (`ltsp.bench.compile_phases.v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"ltsp.bench.compile_phases.v1\",\n");
        s.push_str(&format!("  \"repeat\": {},\n", self.repeat));
        s.push_str(&format!("  \"scale\": {},\n", self.scale));
        s.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            ltsp_par::default_parallelism()
        ));
        s.push_str("  \"groups\": {\n");
        for (gi, g) in self.groups.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"kernels\": {}, \"compiles\": {}, ",
                g.group, g.kernels, g.compiles
            ));
            for ((name, _), count) in DECISION_COUNTS.iter().zip(g.decisions) {
                s.push_str(&format!("\"{name}\": {count}, "));
            }
            s.push_str("\"phases\": {\n");
            let rows = g.rows();
            for (pi, (name, b)) in rows.iter().enumerate() {
                let sep = if pi + 1 < rows.len() { "," } else { "" };
                s.push_str(&format!(
                    "      \"{}\": {{\"p50\": {}, \"p99\": {}, \"count\": {}, \
                     \"total_us\": {}, \"mean_us\": {:.1}}}{}\n",
                    name,
                    b.hist.quantile(0.50).unwrap_or(0),
                    b.hist.quantile(0.99).unwrap_or(0),
                    b.hist.count,
                    b.total_us,
                    b.mean_us(),
                    sep
                ));
            }
            let sep = if gi + 1 < self.groups.len() { "," } else { "" };
            s.push_str(&format!("    }}}}{sep}\n"));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// A human-readable per-group table (the `results/` before/after
    /// artifact is two of these side by side).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for g in &self.groups {
            s.push_str(&format!(
                "compile phases [{}]: {} kernels, {} compiles\n",
                g.group, g.kernels, g.compiles
            ));
            let counts: Vec<String> = DECISION_COUNTS
                .iter()
                .zip(g.decisions)
                .map(|((name, _), count)| format!("{name}={count}"))
                .collect();
            s.push_str(&format!(
                "  {} (per kernels × policies sweep)\n",
                counts.join(" ")
            ));
            s.push_str("  phase      p50_us    p99_us   mean_us    total_ms\n");
            for (name, b) in g.rows() {
                s.push_str(&format!(
                    "  {:<9} {:>7} {:>9} {:>9.1} {:>11.3}\n",
                    name,
                    b.hist.quantile(0.50).unwrap_or(0),
                    b.hist.quantile(0.99).unwrap_or(0),
                    b.mean_us(),
                    b.total_us as f64 / 1e3
                ));
            }
        }
        s
    }
}

impl PhaseBucket {
    fn add(&mut self, us: u64) {
        self.hist.record(us);
        self.total_us += us;
    }

    /// Mean microseconds per compile.
    pub fn mean_us(&self) -> f64 {
        if self.hist.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.hist.count as f64
        }
    }
}

/// One gross per-phase regression against the locked baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRegression {
    /// Kernel group the bucket belongs to.
    pub group: String,
    /// Phase name.
    pub phase: String,
    /// Current mean microseconds per compile.
    pub current_mean_us: f64,
    /// Baseline mean microseconds per compile.
    pub baseline_mean_us: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

impl std::fmt::Display for PhaseRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: mean {:.1}us vs baseline {:.1}us ({:.2}x)",
            self.group, self.phase, self.current_mean_us, self.baseline_mean_us, self.ratio
        )
    }
}

fn group_phase_means(doc: &JsonValue) -> Result<Vec<(String, String, f64)>, String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema")?;
    if schema != "ltsp.bench.compile_phases.v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let groups = doc
        .get("groups")
        .and_then(JsonValue::as_object)
        .ok_or("missing groups")?;
    let mut out = Vec::new();
    for (gname, g) in groups {
        let phases = g
            .get("phases")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("group {gname}: missing phases"))?;
        for (pname, p) in phases {
            let mean = p
                .get("mean_us")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{gname}/{pname}: missing mean_us"))?;
            let count = p.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
            if count > 0 {
                out.push((gname.clone(), pname.clone(), mean));
            }
        }
    }
    Ok(out)
}

/// Compares a current harness record against the locked baseline.
///
/// A phase bucket regresses when its mean exceeds `factor ×` the
/// baseline mean **and** the absolute growth exceeds `floor_us` (wall
/// clock at microsecond scale is noisy; the gate is for gross
/// regressions, not jitter). Buckets present on only one side are
/// ignored — adding a phase is not a regression.
///
/// # Errors
///
/// When either document does not parse as a
/// `ltsp.bench.compile_phases.v1` record.
pub fn compare_to_baseline(
    current: &str,
    baseline: &str,
    factor: f64,
    floor_us: f64,
) -> Result<Vec<PhaseRegression>, String> {
    let cur = json::parse(current).map_err(|e| format!("current record: {e}"))?;
    let base = json::parse(baseline).map_err(|e| format!("baseline record: {e}"))?;
    let cur_means = group_phase_means(&cur).map_err(|e| format!("current record: {e}"))?;
    let base_means = group_phase_means(&base).map_err(|e| format!("baseline record: {e}"))?;
    let mut regressions = Vec::new();
    for (group, phase, mean) in &cur_means {
        let Some((_, _, base_mean)) = base_means.iter().find(|(g, p, _)| g == group && p == phase)
        else {
            continue;
        };
        if *mean > base_mean * factor && *mean - base_mean > floor_us {
            regressions.push(PhaseRegression {
                group: group.clone(),
                phase: phase.clone(),
                current_mean_us: *mean,
                baseline_mean_us: *base_mean,
                ratio: if *base_mean > 0.0 {
                    *mean / *base_mean
                } else {
                    f64::INFINITY
                },
            });
        }
    }
    Ok(regressions)
}

/// Compares the exact per-group decision counts of two records made at
/// the same `scale`: each mismatch as `group/name: current vs baseline`.
/// Counts a side does not carry (a record from before they existed) are
/// skipped, as is everything when the two `scale`s differ.
///
/// # Errors
///
/// When either document does not parse as JSON.
pub fn compare_counts(current: &str, baseline: &str) -> Result<Vec<String>, String> {
    let cur = json::parse(current).map_err(|e| format!("current record: {e}"))?;
    let base = json::parse(baseline).map_err(|e| format!("baseline record: {e}"))?;
    let scale = |doc: &JsonValue| doc.get("scale").and_then(JsonValue::as_u64);
    let mut out = Vec::new();
    if scale(&cur) != scale(&base) {
        return Ok(out);
    }
    let groups = cur.get("groups").and_then(JsonValue::as_object);
    for (gname, g) in groups.unwrap_or_default() {
        for (name, _) in DECISION_COUNTS {
            let count = |g: &JsonValue| g.get(name).and_then(JsonValue::as_u64);
            let theirs = base
                .get("groups")
                .and_then(|b| b.get(gname))
                .and_then(count);
            if let (Some(ours), Some(theirs)) = (count(g), theirs) {
                if ours != theirs {
                    out.push(format!("{gname}/{name}: {ours} vs baseline {theirs}"));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(library_sched_mean: f64, scale_sched_mean: f64) -> String {
        format!(
            r#"{{"schema": "ltsp.bench.compile_phases.v1", "repeat": 1, "scale": 1,
               "host_parallelism": 1,
               "groups": {{
                 "library": {{"kernels": 17, "compiles": 68, "phases": {{
                   "sched": {{"p50": 1, "p99": 2, "count": 68, "total_us": 100,
                              "mean_us": {library_sched_mean}}}}}}},
                 "scale": {{"kernels": 4, "compiles": 16, "phases": {{
                   "sched": {{"p50": 1, "p99": 2, "count": 16, "total_us": 100,
                              "mean_us": {scale_sched_mean}}}}}}}
               }}}}"#
        )
    }

    #[test]
    fn equal_records_have_no_regressions() {
        let r = record(100.0, 1000.0);
        assert_eq!(compare_to_baseline(&r, &r, 2.0, 25.0).unwrap(), vec![]);
    }

    #[test]
    fn gross_regression_is_reported_per_group() {
        let base = record(100.0, 1000.0);
        let cur = record(120.0, 2500.0);
        let regs = compare_to_baseline(&cur, &base, 2.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].group, "scale");
        assert_eq!(regs[0].phase, "sched");
        assert!((regs[0].ratio - 2.5).abs() < 1e-9);
    }

    #[test]
    fn absolute_floor_filters_microsecond_noise() {
        // 3x on a 4us mean is jitter, not a regression.
        let base = record(4.0, 1000.0);
        let cur = record(12.0, 1000.0);
        assert_eq!(compare_to_baseline(&cur, &base, 2.0, 25.0).unwrap(), vec![]);
    }

    #[test]
    fn schema_mismatch_is_loud() {
        let good = record(1.0, 1.0);
        let bad = good.replace("compile_phases.v1", "other.v9");
        assert!(compare_to_baseline(&good, &bad, 2.0, 25.0).is_err());
    }

    #[test]
    fn harness_buckets_every_phase() {
        let m = MachineModel::itanium2();
        // Tiny configuration: 1 rep over the library + 4 scale kernels is
        // still a few hundred compiles; keep the test meaningful but fast
        // by measuring the scale group at its smallest size.
        let r = compile_phases(&m, 1, 1);
        assert_eq!(r.groups.len(), 2);
        for g in &r.groups {
            assert_eq!(g.phases.len(), COMPILE_PHASES.len());
            assert_eq!(g.rows()[1].0, VALIDATE, "validate follows parse");
            assert_eq!(g.compiles, (g.kernels * POLICIES.len()) as u64);
            for (name, b) in g.rows() {
                assert_eq!(b.hist.count, g.compiles, "{name}: one sample per compile");
            }
            // The scheduler does real work on every kernel group.
            let sched = &g.phases[4].1;
            assert!(sched.total_us > 0, "sched bucket must not be empty");
        }
        // Every compile is counted as pipelined or rejected; the library
        // always pipelines, most of the scale group cannot.
        let [library, scale] = [&r.groups[0], &r.groups[1]];
        for g in [library, scale] {
            let [pipelined, rejected, attempts, floor] = g.decisions;
            assert_eq!(pipelined + rejected, g.compiles, "{}", g.group);
            assert!(attempts >= pipelined && floor <= rejected, "{}", g.group);
        }
        assert_eq!(library.decisions[1], 0);
        assert_eq!(
            scale.decisions[1], scale.decisions[3],
            "only the floor rejects"
        );
        assert!(scale.decisions[3] > 0);
        // The record round-trips through the baseline comparators.
        let j = r.to_json();
        assert_eq!(compare_to_baseline(&j, &j, 2.0, 25.0).unwrap(), vec![]);
        assert_eq!(compare_counts(&j, &j).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn a_count_that_moved_is_reported_exactly() {
        let base = record(1.0, 1.0).replace(
            "\"kernels\": 4,",
            "\"kernels\": 4, \"rejected\": 8, \"schedule_attempts\": 8,",
        );
        let doomed_ladders = base.replace("\"schedule_attempts\": 8", "\"schedule_attempts\": 144");
        assert_eq!(
            compare_counts(&doomed_ladders, &base).unwrap(),
            vec!["scale/schedule_attempts: 144 vs baseline 8"]
        );
        // A baseline from before the counts existed, or at another scale,
        // has nothing to compare.
        assert!(compare_counts(&base, &record(1.0, 1.0)).unwrap().is_empty());
        let other_scale = doomed_ladders.replace("\"scale\": 1,", "\"scale\": 3,");
        assert!(compare_counts(&other_scale, &base).unwrap().is_empty());
    }
}
