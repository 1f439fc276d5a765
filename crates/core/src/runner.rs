//! The experiment harness: run synthetic benchmarks under a policy.

use std::sync::atomic::{AtomicUsize, Ordering};

use ltsp_ir::SplitMix64;
use ltsp_machine::MachineModel;
use ltsp_memsim::{CycleCounters, Executor, ExecutorConfig};
use ltsp_par::Pool;
use ltsp_telemetry::{Observer, Telemetry};
use ltsp_workloads::{Benchmark, LoopSpec};

use crate::compile::{compile_loop_observed, compile_loop_with_profile};
use crate::config::CompileConfig;

/// Process-wide default worker count picked up by [`RunConfig::new`]
/// (0 = not yet initialised).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// The worker count new [`RunConfig`]s start with. Initialised lazily from
/// the `LTSP_JOBS` environment variable, defaulting to 1 (serial); binaries
/// with a `--jobs` flag override it via [`set_default_jobs`].
///
/// The default is deliberately serial, not [`ltsp_par::default_parallelism`]:
/// library consumers and tests get reproducible single-thread behavior
/// unless a binary (or CI via `LTSP_JOBS`) opts batches into parallelism —
/// and either way the determinism contract keeps artifacts byte-identical.
///
/// A *set but invalid* `LTSP_JOBS` (`0`, non-numeric) aborts the process
/// with a one-line diagnostic rather than silently running serial: a CI
/// matrix that typos its parallelism should fail loudly, not quietly
/// produce 1-thread timings.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => {
            let jobs = match std::env::var("LTSP_JOBS") {
                Err(_) => 1,
                Ok(v) => ltsp_par::parse_jobs(&v).unwrap_or_else(|e| {
                    eprintln!("ltsp: LTSP_JOBS: {e}");
                    std::process::exit(2);
                }),
            };
            DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
            jobs
        }
        j => j,
    }
}

/// Overrides the process-wide default worker count (clamped to ≥ 1).
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// Configuration of one experimental run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Compiler configuration (policy, threshold, PGO, prefetching).
    pub compile: CompileConfig,
    /// Master seed; per-loop seeds derive from it and the loop identity,
    /// **not** from the policy — all arms of an experiment therefore see
    /// identical trip-count sequences and address streams.
    pub seed: u64,
    /// Scales every loop's entry count (tests use small values; the
    /// benchmark harness uses 1.0).
    pub entry_scale: f64,
    /// Execution-model knobs (front-end/flush/RSE fixed costs).
    pub exec: ExecutorConfig,
    /// Telemetry sink receiving compiler decision traces, phase spans and
    /// simulator metrics. Disabled by default (zero overhead).
    pub telemetry: Telemetry,
    /// Worker threads for batch layers ([`run_suite`] & friends). Results
    /// and telemetry are merged in input-index order, so any value ≥ 1
    /// produces byte-identical artifacts (see `DESIGN.md`, "Parallel
    /// execution & determinism contract").
    pub jobs: usize,
}

impl RunConfig {
    /// Default harness settings for a compile configuration.
    pub fn new(compile: CompileConfig) -> Self {
        RunConfig {
            compile,
            seed: 0x5EED_0001,
            entry_scale: 1.0,
            exec: ExecutorConfig::default(),
            telemetry: Telemetry::disabled(),
            jobs: default_jobs(),
        }
    }

    /// Sets the entry scale.
    pub fn with_entry_scale(mut self, scale: f64) -> Self {
        self.entry_scale = scale;
        self
    }

    /// Attaches a telemetry sink (shared — clones feed the same sink).
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.telemetry = tel.clone();
        self
    }

    /// Sets the worker-thread count for batch layers (clamped to ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

/// Measured execution of one loop under one policy.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// The loop's name.
    pub name: String,
    /// Accumulated cycle accounting.
    pub counters: CycleCounters,
    /// Kernel II.
    pub ii: u32,
    /// Pipeline stages (1 for the acyclic fallback).
    pub stages: u32,
    /// Whether the loop was software-pipelined.
    pub pipelined: bool,
    /// Loads scheduled at boosted latencies.
    pub boosted_loads: usize,
    /// Loads marked critical.
    pub critical_loads: usize,
    /// Registers allocated per class (GR, FR, PR), zero if not pipelined.
    pub regs: (u32, u32, u32),
    /// Modulo-scheduling attempts the pipeliner performed.
    pub schedule_attempts: u32,
}

/// Measured execution of one benchmark under one policy.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Per-loop measurements.
    pub loops: Vec<LoopRun>,
    /// Total cycles across the benchmark's hot loops.
    pub loop_cycles: u64,
}

impl BenchRun {
    /// Sums counters across the benchmark's loops.
    pub fn counters(&self) -> CycleCounters {
        self.loops
            .iter()
            .fold(CycleCounters::default(), |acc, l| acc + l.counters)
    }
}

/// All benchmarks of a suite under one policy.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Per-benchmark runs, in suite order.
    pub runs: Vec<BenchRun>,
}

impl SuiteRun {
    /// Sums counters across the whole suite's hot loops.
    pub fn counters(&self) -> CycleCounters {
        self.runs
            .iter()
            .fold(CycleCounters::default(), |acc, r| acc + r.counters())
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn run_loop(bench_name: &str, spec: &LoopSpec, machine: &MachineModel, rc: &RunConfig) -> LoopRun {
    let trip_estimate = if rc.compile.pgo {
        spec.train_trips.mean()
    } else {
        spec.static_trip_estimate
    };
    let obs = Observer::new(&rc.telemetry, None);
    let compiled = compile_loop_observed(&spec.loop_ir, machine, &rc.compile, trip_estimate, obs);

    let loop_seed = rc.seed ^ fnv(bench_name) ^ fnv(&spec.name);
    let exec_cfg = ExecutorConfig {
        seed: loop_seed,
        stream_mode: spec.stream_mode,
        ..rc.exec
    };
    let mut ex = Executor::new(
        &compiled.lp,
        &compiled.kernel,
        machine,
        compiled.regs_total,
        exec_cfg,
    );
    ex.attach_telemetry(&rc.telemetry);
    let entries = ((f64::from(spec.entries) * rc.entry_scale).ceil() as u32).max(1);
    let mut trip_rng = SplitMix64::new(loop_seed ^ 0x7219);
    {
        let _span = rc.telemetry.span(format!("simulate:{}", spec.name));
        for _ in 0..entries {
            let trip = spec.ref_trips.sample(&mut trip_rng);
            ex.run_entry(trip);
        }
    }
    ex.export_metrics("sim");

    let (stats, regs) = (compiled.stats, compiled.regs);
    LoopRun {
        name: spec.name.clone(),
        counters: *ex.counters(),
        ii: compiled.kernel.ii(),
        stages: compiled.kernel.stage_count(),
        pipelined: compiled.pipelined,
        boosted_loads: stats.map_or(0, |s| s.boosted_loads),
        critical_loads: stats.map_or(0, |s| s.critical_loads),
        regs: regs.map_or((0, 0, 0), |r| {
            (
                r.total(ltsp_ir::RegClass::Gr),
                r.total(ltsp_ir::RegClass::Fr),
                r.total(ltsp_ir::RegClass::Pr),
            )
        }),
        schedule_attempts: stats.map_or(1, |s| s.schedule_attempts),
    }
}

fn run_loop_versioned(
    bench_name: &str,
    spec: &LoopSpec,
    machine: &MachineModel,
    rc: &RunConfig,
) -> LoopRun {
    let trip_estimate = if rc.compile.pgo {
        spec.train_trips.mean()
    } else {
        spec.static_trip_estimate
    };
    // Version 0: baseline kernel; version 1: the policy's boosted kernel,
    // compiled with the threshold disabled (dispatch happens at run time
    // on the *actual* trip count).
    let base_cfg = CompileConfig {
        policy: crate::LatencyPolicy::Baseline,
        ..rc.compile.clone()
    };
    let boost_cfg = rc.compile.clone().with_threshold(0);
    // Only the boosted version's compile is traced — the baseline version
    // makes no latency decisions worth recording.
    let base = compile_loop_with_profile(&spec.loop_ir, machine, &base_cfg, trip_estimate);
    let obs = Observer::new(&rc.telemetry, None);
    let boost = compile_loop_observed(&spec.loop_ir, machine, &boost_cfg, trip_estimate, obs);
    debug_assert_eq!(
        base.lp, boost.lp,
        "policies only change scheduling, not the loop body"
    );

    let loop_seed = rc.seed ^ fnv(bench_name) ^ fnv(&spec.name);
    let exec_cfg = ExecutorConfig {
        seed: loop_seed,
        stream_mode: spec.stream_mode,
        ..rc.exec
    };
    let kernels = [base.kernel.clone(), boost.kernel.clone()];
    let regs = [base.regs_total, boost.regs_total];
    let mut ex = Executor::new_versioned(&boost.lp, &kernels, machine, &regs, exec_cfg);
    ex.attach_telemetry(&rc.telemetry);
    let entries = ((f64::from(spec.entries) * rc.entry_scale).ceil() as u32).max(1);
    let mut trip_rng = SplitMix64::new(loop_seed ^ 0x7219);
    let threshold = u64::from(rc.compile.trip_threshold);
    {
        let _span = rc.telemetry.span(format!("simulate:{}", spec.name));
        for _ in 0..entries {
            let trip = spec.ref_trips.sample(&mut trip_rng);
            let version = usize::from(trip >= threshold.max(1));
            ex.run_entry_version(version, trip);
        }
    }
    ex.export_metrics("sim");

    let (stats, regs) = (boost.stats, boost.regs);
    LoopRun {
        name: spec.name.clone(),
        counters: *ex.counters(),
        ii: boost.kernel.ii(),
        stages: boost.kernel.stage_count(),
        pipelined: boost.pipelined,
        boosted_loads: stats.map_or(0, |s| s.boosted_loads),
        critical_loads: stats.map_or(0, |s| s.critical_loads),
        regs: regs.map_or((0, 0, 0), |r| {
            (
                r.total(ltsp_ir::RegClass::Gr),
                r.total(ltsp_ir::RegClass::Fr),
                r.total(ltsp_ir::RegClass::Pr),
            )
        }),
        schedule_attempts: stats.map_or(1, |s| s.schedule_attempts),
    }
}

/// The shared batch layer behind every suite runner: flattens the suite
/// into (benchmark, loop) work items, maps them through a [`Pool`] sized
/// to [`RunConfig::jobs`] (per-item telemetry forked and spliced back in
/// index order — see [`Pool::map_traced`]), and regroups the results into
/// per-benchmark runs in suite order. The output is byte-for-byte
/// independent of the worker count.
fn pooled_suite<F>(label: &str, benchs: &[Benchmark], rc: &RunConfig, f: F) -> SuiteRun
where
    F: Fn(&Telemetry, &Benchmark, &LoopSpec) -> LoopRun + Sync,
{
    let items: Vec<(usize, &LoopSpec)> = benchs
        .iter()
        .enumerate()
        .flat_map(|(bi, b)| b.loops.iter().map(move |spec| (bi, spec)))
        .collect();
    let loops =
        Pool::new(rc.jobs).map_traced(&rc.telemetry, label, &items, |tel, _idx, &(bi, spec)| {
            f(tel, &benchs[bi], spec)
        });
    let mut runs: Vec<BenchRun> = benchs
        .iter()
        .map(|b| BenchRun {
            name: b.name,
            loops: Vec::new(),
            loop_cycles: 0,
        })
        .collect();
    for (&(bi, _), lr) in items.iter().zip(loops) {
        runs[bi].loop_cycles += lr.counters.total;
        runs[bi].loops.push(lr);
    }
    SuiteRun { runs }
}

/// Runs one benchmark with **trip-count versioning** (the paper's Sec. 6
/// outlook): each loop keeps a baseline kernel and the policy's boosted
/// kernel, and every entry dispatches on its *actual* trip count against
/// [`CompileConfig::trip_threshold`]. Low-trip executions take the cheap
/// kernel, long ones the latency-tolerant kernel — no profile needed.
pub fn run_benchmark_versioned(
    bench: &Benchmark,
    machine: &MachineModel,
    rc: &RunConfig,
) -> BenchRun {
    run_suite_versioned(std::slice::from_ref(bench), machine, rc)
        .runs
        .pop()
        .expect("one benchmark in, one run out")
}

/// Runs a whole suite with trip-count versioning.
pub fn run_suite_versioned(
    benchs: &[Benchmark],
    machine: &MachineModel,
    rc: &RunConfig,
) -> SuiteRun {
    pooled_suite("suite-versioned", benchs, rc, |tel, bench, spec| {
        let rc2 = RunConfig {
            telemetry: tel.clone(),
            ..rc.clone()
        };
        run_loop_versioned(bench.name, spec, machine, &rc2)
    })
}

/// Runs one benchmark with **dynamic cache-miss sampling** (the paper's
/// Sec. 6 outlook): each loop is first executed briefly under the baseline
/// compiler while recording per-reference average latencies
/// ([`crate::sample_miss_hints`]); the measured profile then drives the
/// [`crate::LatencyPolicy::MissSampled`] policy. References that actually
/// hit close caches get no hint — removing the static-information failure
/// modes — while genuinely delinquent references are boosted.
pub fn run_benchmark_sampled(
    bench: &Benchmark,
    machine: &MachineModel,
    rc: &RunConfig,
    sample_entries: u32,
) -> BenchRun {
    run_suite_sampled(std::slice::from_ref(bench), machine, rc, sample_entries)
        .runs
        .pop()
        .expect("one benchmark in, one run out")
}

/// Runs a whole suite with dynamic cache-miss sampling.
pub fn run_suite_sampled(
    benchs: &[Benchmark],
    machine: &MachineModel,
    rc: &RunConfig,
    sample_entries: u32,
) -> SuiteRun {
    pooled_suite("suite-sampled", benchs, rc, |tel, bench, spec| {
        let loop_seed = rc.seed ^ fnv(bench.name) ^ fnv(&spec.name);
        let sample_trip = spec.ref_trips.mean().round().max(1.0) as u64;
        let profile = crate::sample_miss_hints(
            &spec.loop_ir,
            machine,
            sample_trip,
            sample_entries,
            spec.stream_mode,
            loop_seed ^ 0x5A3,
        );
        let mut rc2 = rc.clone();
        rc2.telemetry = tel.clone();
        rc2.compile = CompileConfig {
            policy: crate::LatencyPolicy::MissSampled,
            miss_profile: Some(profile),
            ..rc.compile.clone()
        };
        run_loop(bench.name, spec, machine, &rc2)
    })
}

/// Runs one benchmark under the configuration.
pub fn run_benchmark(bench: &Benchmark, machine: &MachineModel, rc: &RunConfig) -> BenchRun {
    run_suite(std::slice::from_ref(bench), machine, rc)
        .runs
        .pop()
        .expect("one benchmark in, one run out")
}

/// Runs every benchmark of a suite.
pub fn run_suite(benchs: &[Benchmark], machine: &MachineModel, rc: &RunConfig) -> SuiteRun {
    pooled_suite("suite", benchs, rc, |tel, bench, spec| {
        let rc2 = RunConfig {
            telemetry: tel.clone(),
            ..rc.clone()
        };
        run_loop(bench.name, spec, machine, &rc2)
    })
}

/// Whole-benchmark speedup percentage of `var` over `base`.
///
/// The hot loops account for `pipelined_fraction` of the benchmark's
/// baseline time; the remainder is policy-invariant padding derived from
/// the baseline run, so a 2× loop speedup at fraction 0.5 yields ≈ +33%.
pub fn benchmark_gain(bench: &Benchmark, base: &BenchRun, var: &BenchRun) -> f64 {
    if bench.loops.is_empty() || base.loop_cycles == 0 {
        return 0.0;
    }
    let f = bench.pipelined_fraction.clamp(1e-6, 1.0);
    let bl = base.loop_cycles as f64;
    let vl = var.loop_cycles as f64;
    let nonloop = bl * (1.0 - f) / f;
    100.0 * ((bl + nonloop) / (vl + nonloop) - 1.0)
}

/// Bucket shares used to pad the policy-invariant (non-pipelined) portion
/// of a suite's cycle accounting: unstalled, EXE, L1D/FPU, RSE, FE, flush.
const NONLOOP_PROFILE: [f64; 6] = [0.55, 0.22, 0.08, 0.03, 0.07, 0.05];

/// Fig.-10-style whole-suite cycle accounting for a (baseline, variant)
/// pair: loop counters plus the shared non-loop padding implied by each
/// benchmark's `pipelined_fraction` (identical in both arms, as in
/// reality the unaffected code is).
pub fn suite_cycle_accounting(
    benchs: &[Benchmark],
    base: &SuiteRun,
    var: &SuiteRun,
) -> (CycleCounters, CycleCounters) {
    let mut total_nonloop = 0u64;
    for (bench, brun) in benchs.iter().zip(&base.runs) {
        if bench.loops.is_empty() || brun.loop_cycles == 0 {
            continue;
        }
        let f = bench.pipelined_fraction.clamp(1e-6, 1.0);
        total_nonloop += (brun.loop_cycles as f64 * (1.0 - f) / f) as u64;
    }
    let pad = |mut c: CycleCounters| -> CycleCounters {
        let n = total_nonloop as f64;
        c.total += total_nonloop;
        c.unstalled += (n * NONLOOP_PROFILE[0]) as u64;
        c.be_exe_bubble += (n * NONLOOP_PROFILE[1]) as u64;
        c.be_l1d_fpu_bubble += (n * NONLOOP_PROFILE[2]) as u64;
        c.be_rse_bubble += (n * NONLOOP_PROFILE[3]) as u64;
        c.fe_bubble += (n * NONLOOP_PROFILE[4]) as u64;
        c.be_flush_bubble += (n * NONLOOP_PROFILE[5]) as u64;
        // Rounding drift: force the partition invariant.
        let stalls = c.stall_cycles() + c.unstalled;
        if stalls < c.total {
            c.unstalled += c.total - stalls;
        } else {
            c.total = stalls;
        }
        c
    };
    (pad(base.counters()), pad(var.counters()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyPolicy;
    use ltsp_workloads::find_benchmark;

    fn quick(policy: LatencyPolicy) -> RunConfig {
        RunConfig::new(CompileConfig::new(policy)).with_entry_scale(0.05)
    }

    #[test]
    fn mcf_gains_from_hlo_hints() {
        let m = MachineModel::itanium2();
        let bench = find_benchmark("429.mcf").unwrap();
        let base = run_benchmark(&bench, &m, &quick(LatencyPolicy::Baseline));
        let hlo = run_benchmark(&bench, &m, &quick(LatencyPolicy::HloHints));
        let gain = benchmark_gain(&bench, &base, &hlo);
        assert!(gain > 2.0, "mcf should gain from HLO hints, got {gain:.2}%");
    }

    #[test]
    fn flat_benchmarks_are_invariant() {
        let m = MachineModel::itanium2();
        let bench = find_benchmark("403.gcc").unwrap();
        let base = run_benchmark(&bench, &m, &quick(LatencyPolicy::Baseline));
        let hlo = run_benchmark(&bench, &m, &quick(LatencyPolicy::AllLoadsL3));
        assert_eq!(benchmark_gain(&bench, &base, &hlo), 0.0);
    }

    #[test]
    fn h264ref_regresses_without_threshold() {
        let m = MachineModel::itanium2();
        let bench = find_benchmark("464.h264ref").unwrap();
        let base = run_benchmark(&bench, &m, &quick(LatencyPolicy::Baseline));
        let n0 = run_benchmark(
            &bench,
            &m,
            &RunConfig::new(CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0))
                .with_entry_scale(0.05),
        );
        let n32 = run_benchmark(
            &bench,
            &m,
            &RunConfig::new(CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(32))
                .with_entry_scale(0.05),
        );
        let g0 = benchmark_gain(&bench, &base, &n0);
        let g32 = benchmark_gain(&bench, &base, &n32);
        assert!(g0 < -0.5, "no threshold must hurt h264ref: {g0:.2}%");
        assert!(g32 > g0, "threshold 32 must recover: {g32:.2}% vs {g0:.2}%");
    }

    #[test]
    fn same_seed_same_baseline() {
        let m = MachineModel::itanium2();
        let bench = find_benchmark("444.namd").unwrap();
        let a = run_benchmark(&bench, &m, &quick(LatencyPolicy::Baseline));
        let b = run_benchmark(&bench, &m, &quick(LatencyPolicy::Baseline));
        assert_eq!(a.loop_cycles, b.loop_cycles, "determinism");
    }

    #[test]
    fn jobs_do_not_change_results() {
        let m = MachineModel::itanium2();
        let bench = find_benchmark("429.mcf").unwrap();
        let serial = run_benchmark(&bench, &m, &quick(LatencyPolicy::HloHints).with_jobs(1));
        let par = run_benchmark(&bench, &m, &quick(LatencyPolicy::HloHints).with_jobs(4));
        assert_eq!(serial.loop_cycles, par.loop_cycles);
        assert_eq!(serial.loops.len(), par.loops.len());
        for (a, b) in serial.loops.iter().zip(&par.loops) {
            assert_eq!(a.name, b.name, "loop order preserved");
            assert_eq!(a.counters.total, b.counters.total, "{}", a.name);
        }
    }

    #[test]
    fn accounting_pads_consistently() {
        let m = MachineModel::itanium2();
        let benchs = vec![find_benchmark("429.mcf").unwrap()];
        let base = run_suite(&benchs, &m, &quick(LatencyPolicy::Baseline));
        let var = run_suite(&benchs, &m, &quick(LatencyPolicy::HloHints));
        let (cb, cv) = suite_cycle_accounting(&benchs, &base, &var);
        assert!(cb.is_consistent());
        assert!(cv.is_consistent());
        assert!(cb.total > base.counters().total, "padding added");
    }
}
