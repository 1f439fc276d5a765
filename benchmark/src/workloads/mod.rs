//! The six workloads and the loop that measures any one of them.
//!
//! A workload builds its inputs from the seed, then runs *passes* of fixed
//! work (sizes are constants in the workload's file, never calibrated at
//! run time, so exact counts repeat). The runner times set-up several
//! times, runs passes until the time budget is spent, reduces each timing
//! to the median over passes, and — in a traced run — traces every other
//! operation (see [`crate::trace`]) so the tracing overhead is measured in
//! the same process, then runs the workload's layer probes. Every time is
//! reported at reference host speed (see [`crate::hostspeed`]).

pub mod compile;
pub mod serve;
pub mod sim;

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::hostspeed::HostSpeed;
use crate::metrics::{Metrics, WORKLOADS};
use crate::stats::{median, percentile, tail_percentile_for};
use crate::trace::{nesting_violations, Tracer};

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the timed part of the pass, seconds.
    pub wall_s: f64,
    /// Units of work done (see `work_per_s` in the catalogue).
    pub work: f64,
    /// Latency of every operation of the workload's primary class, µs.
    pub primary_us: Vec<f64>,
    /// Latency of the secondary class (`serve_churn`'s hits), µs.
    pub secondary_us: Vec<f64>,
    /// Σ latency of the operations that ran traced / untraced, µs (both 0
    /// outside a traced run's sampled passes).
    pub traced_sum_us: f64,
    pub plain_sum_us: f64,
    /// Host slowdown observed during the pass (set by the runner).
    pub slowdown: f64,
    /// Operations attempted / failed their output check.
    pub attempted: u64,
    pub failed: u64,
    /// Exact counts that must be identical on every pass of a run and on
    /// every run with the same seed.
    pub exact: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Books one primary-class operation's latency.
    pub fn record_op(&mut self, latency: std::time::Duration, traced: bool) {
        let us = latency.as_nanos() as f64 / 1e3;
        self.primary_us.push(us);
        if traced {
            self.traced_sum_us += us;
        } else {
            self.plain_sum_us += us;
        }
    }
}

/// A workload's interface to the runner.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Builds inputs from the seed, checks outputs once, warms caches.
    /// Called several times per run (each call replaces the previous
    /// state) so that set-up time has a median. Returns the output checks
    /// it made: (attempted, failed).
    fn setup(&mut self, seed: u64, out_dir: &Path) -> (u64, u64);
    /// One pass of fixed work. `pass_idx` seeds anything that must
    /// differ between passes (request order, fresh names). Host-speed
    /// probes are interleaved with the operations and their time is left
    /// out of `Pass::wall_s`.
    fn pass(&mut self, pass_idx: u64, tr: &mut Tracer, host: &mut HostSpeed) -> Pass;
    /// Workload-specific names for the reduced numbers, and anything
    /// else worth reporting from the passes alone.
    fn describe(&self, r: &Reduced, m: &mut Metrics);
    /// Layer probes of the traced run: microbenchmarks of single layers
    /// on this workload's own inputs, and counters read from outside.
    /// Returns the output checks it made: (attempted, failed).
    fn probes(
        &mut self,
        r: &Reduced,
        tr: &mut Tracer,
        host: &mut HostSpeed,
        m: &mut Metrics,
    ) -> (u64, u64);
    /// Stops anything `setup` started.
    fn teardown(&mut self) {}
}

/// Per-pass numbers reduced to medians over passes.
#[derive(Debug, Default, Clone)]
pub struct Reduced {
    pub samples_per_pass: usize,
    /// Median host slowdown over the passes.
    pub slowdown: f64,
    pub work_per_s: f64,
    pub p50_us: f64,
    /// The bounded tail (`stats::tail_percentile_for`).
    pub tail_us: f64,
    pub p99_us: f64,
    pub secondary_p50_us: f64,
    pub secondary_p99_us: f64,
    pub exact: Vec<(&'static str, f64)>,
}

/// Medians over passes; with `at_reference_speed`, each pass's times are
/// first divided by the slowdown observed during that pass.
fn reduce(passes: &[Pass], at_reference_speed: bool) -> Reduced {
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let slow = |p: &Pass| if at_reference_speed { p.slowdown } else { 1.0 };
    let n = passes.first().map_or(0, |p| p.primary_us.len());
    let tail = tail_percentile_for(n);
    Reduced {
        samples_per_pass: n,
        slowdown: per_pass(&|p| p.slowdown),
        work_per_s: per_pass(&|p| p.work / p.wall_s.max(1e-9) * slow(p)),
        p50_us: per_pass(&|p| median(&p.primary_us) / slow(p)),
        tail_us: per_pass(&|p| percentile(&p.primary_us, tail) / slow(p)),
        p99_us: per_pass(&|p| percentile(&p.primary_us, 99.0) / slow(p)),
        secondary_p50_us: per_pass(&|p| median(&p.secondary_us) / slow(p)),
        secondary_p99_us: per_pass(&|p| percentile(&p.secondary_us, 99.0) / slow(p)),
        exact: passes.first().map(|p| p.exact.clone()).unwrap_or_default(),
    }
}

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: tiny sizes, one set-up, one pass (two when traced).
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub exact: Vec<(&'static str, f64)>,
    /// Raw (as-timed) counterparts of the reported times and the host
    /// slowdown they were divided by.
    pub info: Vec<(&'static str, f64)>,
}

/// Builds the named workload (`quick` shrinks its constants).
pub fn build(name: &str, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim_stream" => Box::new(sim::Sim::new(sim::Regime::Stream, quick)),
        "sim_lowtrip" => Box::new(sim::Sim::new(sim::Regime::LowTrip, quick)),
        "compile_scale" => Box::new(compile::Compile::new(compile::Mix::Scale, quick)),
        "compile_small" => Box::new(compile::Compile::new(compile::Mix::Small, quick)),
        "serve_warm" => Box::new(serve::Serve::new(serve::Traffic::Warm, quick)),
        "serve_churn" => Box::new(serve::Serve::new(serve::Traffic::Churn, quick)),
        _ => return None,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups timed per run; the median is `setup_s`. A fixed number, so
/// that what set-up leaves behind in the allocator (and hence
/// `peak_rss_mb`) does not depend on how fast the host happened to be.
const SETUPS: usize = 5;
/// Host-speed chunks run on each side of a set-up.
const SETUP_PROBES: usize = 8;
/// Share of the time budget a traced run spends on passes; the rest is
/// left to the layer probes.
const TRACED_PASS_SHARE: f64 = 0.4;

/// Runs one workload and reduces what it measured.
pub fn run_workload(w: &mut dyn Workload, opts: &RunOpts) -> std::io::Result<Outcome> {
    debug_assert!(WORKLOADS.contains(&w.name()));
    std::fs::create_dir_all(&opts.out_dir)?;
    let origin = Instant::now();

    let mut host = HostSpeed::new();
    let mut setup_raw_s: Vec<f64> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_checks = (0, 0);
    for i in 0..if opts.quick { 1 } else { SETUPS } {
        if i > 0 {
            w.teardown();
        }
        host.take();
        (0..SETUP_PROBES).for_each(|_| host.probe());
        let t0 = Instant::now();
        setup_checks = w.setup(opts.seed, &opts.out_dir);
        let dt = t0.elapsed().as_secs_f64();
        (0..SETUP_PROBES).for_each(|_| host.probe());
        setup_raw_s.push(dt);
        setup_s.push(dt / host.take());
    }

    // A traced run traces every other operation and flips which ones each
    // pass, so it runs passes in pairs.
    let mut tr = Tracer::new(origin);
    let mut passes: Vec<Pass> = Vec::new();
    let budget = opts.seconds * if opts.traced { TRACED_PASS_SHARE } else { 1.0 };
    let min_passes = if opts.traced { 2 } else { 1 };
    let t_passes = Instant::now();
    while passes.len() < min_passes
        || (!opts.quick && t_passes.elapsed().as_secs_f64() < budget)
        || (opts.traced && passes.len() % 2 == 1)
    {
        let idx = passes.len() as u64;
        if opts.traced {
            tr.sample_ops(idx);
        }
        host.take();
        let mut p = w.pass(idx, &mut tr, &mut host);
        p.slowdown = host.take();
        passes.push(p);
    }
    tr.set_enabled(opts.traced);

    let mut attempted: u64 = setup_checks.0 + passes.iter().map(|p| p.attempted).sum::<u64>();
    let mut failed: u64 = setup_checks.1 + passes.iter().map(|p| p.failed).sum::<u64>();
    // Exact counts must not depend on which pass produced them.
    let first_exact = passes[0].exact.clone();
    for p in &passes {
        attempted += 1;
        if p.exact != first_exact {
            eprintln!("{}: exact counts differ between passes", w.name());
            failed += 1;
        }
    }

    let raw = reduce(&passes, false);
    let mut m = Metrics::default();
    let mut info = Vec::new();
    if opts.traced {
        // Per-layer times are collected raw and brought to reference speed
        // together, by the slowdown over the whole run.
        let r = &raw;
        w.describe(r, &mut m);
        let traced_us: f64 = passes.iter().map(|p| p.traced_sum_us).sum();
        let plain_us: f64 = passes.iter().map(|p| p.plain_sum_us).sum();
        m.set(
            "bench.trace_overhead_pct",
            100.0 * (traced_us / plain_us.max(1e-9) - 1.0),
        );
        m.set("bench.passes", passes.len() as f64);
        m.set("bench.samples", r.samples_per_pass as f64);
        let (probed, probes_failed) = w.probes(r, &mut tr, &mut host, &mut m);
        attempted += probed + 1;
        failed += probes_failed;
        let bad = nesting_violations(tr.spans());
        if bad > 0 {
            eprintln!("{}: {bad} span(s) with children outside them", w.name());
            failed += 1;
        }
        tr.write_jsonl(&opts.out_dir.join(format!("trace-{}.jsonl", w.name())))?;
        m.set("fail_share", failed as f64 / attempted as f64);
        m.set("bench.host_slowdown", host.overall());
        m.to_reference_speed(host.overall());
    } else {
        let r = reduce(&passes, true);
        info = vec![
            ("host_slowdown", r.slowdown),
            ("raw_setup_s", median(&setup_raw_s)),
            ("raw_work_per_s", raw.work_per_s),
            ("raw_op_p50_us", raw.p50_us),
            ("raw_op_tail_us", raw.tail_us),
        ];
        m.set("setup_s", median(&setup_s));
        m.set("work_per_s", r.work_per_s);
        m.set("op_p50_us", r.p50_us);
        m.set("op_tail_us", r.tail_us);
        let quality = first_exact
            .iter()
            .find(|(n, _)| *n == "quality_cost")
            .map_or(0.0, |(_, v)| *v);
        m.set("quality_cost", quality);
    }
    w.teardown();
    if !opts.traced {
        m.set("peak_rss_mb", peak_rss_mb());
    }

    Ok(Outcome {
        workload: w.name(),
        traced: opts.traced,
        passes: passes.len(),
        attempted,
        failed,
        metrics: m,
        exact: first_exact,
        info,
    })
}
