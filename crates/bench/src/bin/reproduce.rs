//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! reproduce [all|fig5|fig7|fig8|fig9|fig10|mcf|regstats|compiletime|noprefetch|versioning|sampling|balanced|ablations|oracle|adaptive]
//!           [--scale X] [--jobs N] [--csv] [--trace-out FILE] [--metrics-out FILE]
//!           [--bench-out FILE] [--no-bench] [-v]
//! ```
//!
//! `--adaptive` is an alias for the `adaptive` experiment (the E-adaptive
//! feedback-directed-hints table).
//!
//! The `--bench-out` record also carries a `"phases"` block: the kernel
//! library is compiled once per policy with a phase timer attached, and
//! each compiler phase (parse is server-side only; here hlo → ddg → mrt
//! → sched → regalloc) reports p50/p99 wall microseconds — the
//! compile-latency KPI baseline the serving-path histograms are compared
//! against.
//!
//! `--scale` multiplies each loop's simulated entry count (default 1.0;
//! use e.g. 0.1 for a quick pass). `--jobs` sets the worker-thread count
//! for every batch layer (default: the machine's available parallelism);
//! any value produces byte-identical reports, traces and metrics — only
//! wall-clock changes. `--csv` switches the per-benchmark gain
//! experiments to CSV output for external plotting. `--trace-out` writes
//! a JSONL span/event trace of the run, `--metrics-out` a JSON metrics
//! snapshot, `--bench-out` the machine-readable wall-clock record
//! (default `BENCH_reproduce.json`; `--no-bench` suppresses it), and `-v`
//! narrates experiment progress on stderr (per-experiment wall-clock
//! timing included).
//!
//! A partial run (`reproduce oracle --bench-out ...`) merges into an
//! existing record at that path rather than replacing it: only the
//! experiments that ran are refreshed, the rest keep their previous
//! timings, and `total_wall_ms` is the sum of the merged per-experiment
//! walls (see `ltsp_bench::bench_record`).

use ltsp_bench::{
    adaptive_gap, balanced_recurrence_experiment, boost_magnitude_ablation, compile_time, fig10,
    fig5, fig7, fig8, fig9, issue_width_ablation, mcf_case_study, merged_bench_json,
    miss_sampling_experiment, mve_code_size_ablation, no_prefetch_headroom, oracle_gap,
    ozq_capacity_ablation, regstats, versioning_experiment,
};
use ltsp_machine::MachineModel;
use ltsp_telemetry::phase::{PhaseTimer, ALL_PHASES};
use ltsp_telemetry::{Histogram, Observer, Telemetry};
use std::io::Write as _;
use std::time::Instant;

/// Prints without panicking on a closed pipe (`reproduce ... | head`).
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if out
        .write_all(text.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .is_err()
    {
        std::process::exit(0);
    }
}

/// Writes one telemetry artifact, reporting failures on stderr.
fn write_artifact(
    path: Option<&str>,
    what: &str,
    f: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) {
    let Some(path) = path else { return };
    let res = std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .and_then(|mut w| f(&mut w));
    if let Err(e) = res {
        eprintln!("reproduce: cannot write {what} {path}: {e}");
        std::process::exit(1);
    }
}

/// Compiles the kernel library once per latency policy with a phase
/// timer attached and folds each compiler phase's wall-clock into a
/// histogram: the compile-latency KPI source for the bench record.
fn compile_phase_kpis(machine: &MachineModel) -> Vec<(&'static str, Histogram)> {
    use ltsp_core::{compile_loop_observed, CompileConfig, LatencyPolicy};
    let tel = Telemetry::disabled();
    let mut hists: Vec<(&'static str, Histogram)> = ALL_PHASES
        .iter()
        .map(|p| (p.name(), Histogram::default()))
        .collect();
    for policy in [
        LatencyPolicy::Baseline,
        LatencyPolicy::AllLoadsL3,
        LatencyPolicy::AllFpLoadsL2,
        LatencyPolicy::HloHints,
    ] {
        let cfg = CompileConfig::new(policy);
        for (_, lp) in ltsp_workloads::kernel_library() {
            let phases = PhaseTimer::new();
            let obs = Observer::new(&tel, Some(&phases));
            let _ = compile_loop_observed(&lp, machine, &cfg, 100.0, obs);
            for (phase, us) in phases.snapshot() {
                if us == 0 {
                    continue;
                }
                if let Some((_, h)) = hists.iter_mut().find(|(n, _)| *n == phase.name()) {
                    h.record(us);
                }
            }
        }
    }
    hists.retain(|(_, h)| h.count > 0);
    hists
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = 1.0f64;
    let mut jobs = ltsp_par::default_parallelism();
    let mut csv = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut bench_out: Option<String> = Some("BENCH_reproduce.json".to_string());
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv = true,
            "--scale" => {
                scale = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale requires a number");
                    std::process::exit(2);
                });
            }
            "--jobs" => {
                let v = it.next().cloned().unwrap_or_default();
                jobs = ltsp_par::parse_jobs(&v).unwrap_or_else(|e| {
                    eprintln!("reproduce: {e}");
                    std::process::exit(2);
                });
            }
            "--trace-out" => trace_out = it.next().cloned(),
            "--metrics-out" => metrics_out = it.next().cloned(),
            "--bench-out" => bench_out = it.next().cloned(),
            "--no-bench" => bench_out = None,
            "-v" | "--verbose" => verbose = true,
            "--adaptive" => which = "adaptive".to_string(),
            other => which = other.to_string(),
        }
    }
    // Experiments construct their own RunConfigs; route the worker count
    // through the process-wide default they pick up.
    ltsp_core::set_default_jobs(jobs);

    let tel = if trace_out.is_some() || metrics_out.is_some() || verbose {
        Telemetry::enabled_with(verbose)
    } else {
        Telemetry::disabled()
    };
    let machine = MachineModel::itanium2();
    let run_all = which == "all";
    let table = |e: &ltsp_bench::GainExperiment| if csv { e.to_csv() } else { e.render() };
    // Each artifact runs under a span so `-v` narrates progress with
    // wall-clock timing and `--trace-out` records the run's timeline.
    let ran = |name: &str| tel.info(format!("reproducing {name} (scale {scale}, jobs {jobs})"));
    let mut timings: Vec<(String, f64)> = Vec::new();
    let timed = |timings: &mut Vec<(String, f64)>, name: &str, f: &mut dyn FnMut()| {
        ran(name);
        let t0 = Instant::now();
        f();
        timings.push((name.to_string(), t0.elapsed().as_secs_f64() * 1e3));
    };
    let t_run = Instant::now();

    if run_all || which == "fig5" {
        timed(&mut timings, "fig5", &mut || {
            let _s = tel.span("experiment:fig5");
            emit(&fig5().render());
        });
    }
    if run_all || which == "fig7" {
        timed(&mut timings, "fig7", &mut || {
            let _s = tel.span("experiment:fig7");
            let (f06, f00) = fig7(&machine, scale);
            emit(&table(&f06));
            emit(&table(&f00));
        });
    }
    if run_all || which == "fig8" {
        timed(&mut timings, "fig8", &mut || {
            let _s = tel.span("experiment:fig8");
            let (f06, f00) = fig8(&machine, scale);
            emit(&table(&f06));
            emit(&table(&f00));
        });
    }
    if run_all || which == "fig9" {
        timed(&mut timings, "fig9", &mut || {
            let _s = tel.span("experiment:fig9");
            emit(&table(&fig9(&machine, scale)));
        });
    }
    if run_all || which == "fig10" {
        timed(&mut timings, "fig10", &mut || {
            let _s = tel.span("experiment:fig10");
            emit(&fig10(&machine, scale).render());
        });
    }
    if run_all || which == "mcf" {
        timed(&mut timings, "mcf", &mut || {
            let _s = tel.span("experiment:mcf");
            let entries = ((900.0 * scale) as u32).max(50);
            emit(&mcf_case_study(&machine, entries).render());
        });
    }
    if run_all || which == "regstats" {
        timed(&mut timings, "regstats", &mut || {
            let _s = tel.span("experiment:regstats");
            emit(&regstats(&machine, scale).render());
        });
    }
    if run_all || which == "compiletime" {
        timed(&mut timings, "compiletime", &mut || {
            let _s = tel.span("experiment:compiletime");
            emit(&compile_time(&machine, scale).render());
        });
    }
    if run_all || which == "noprefetch" {
        timed(&mut timings, "noprefetch", &mut || {
            let _s = tel.span("experiment:noprefetch");
            emit(&table(&no_prefetch_headroom(&machine, scale)));
        });
    }
    if run_all || which == "versioning" {
        timed(&mut timings, "versioning", &mut || {
            let _s = tel.span("experiment:versioning");
            emit(&table(&versioning_experiment(&machine, scale)));
        });
    }
    if run_all || which == "sampling" {
        timed(&mut timings, "sampling", &mut || {
            let _s = tel.span("experiment:sampling");
            emit(&table(&miss_sampling_experiment(&machine, scale)));
        });
    }
    if run_all || which == "balanced" {
        timed(&mut timings, "balanced", &mut || {
            let _s = tel.span("experiment:balanced");
            let entries = ((800.0 * scale) as u32).max(100);
            emit(&balanced_recurrence_experiment(&machine, entries).render());
        });
    }
    if run_all || which == "oracle" {
        timed(&mut timings, "oracle", &mut || {
            let _s = tel.span("experiment:oracle");
            emit(&oracle_gap(&machine, &tel, jobs).render());
        });
    }
    if run_all || which == "adaptive" {
        timed(&mut timings, "adaptive", &mut || {
            let _s = tel.span("experiment:adaptive");
            emit(&adaptive_gap(&machine, &tel, jobs).render());
        });
    }
    if run_all || which == "ablations" {
        timed(&mut timings, "ablations", &mut || {
            let _s = tel.span("experiment:ablations");
            emit(&ozq_capacity_ablation(&machine).render());
            let (missing, warm) = boost_magnitude_ablation(&machine);
            emit(&missing.render());
            emit(&warm.render());
            emit(&mve_code_size_ablation(&machine).render());
            let (width_gain, width_k) = issue_width_ablation();
            emit(&width_gain.render());
            emit(&width_k.render());
        });
    }
    tel.info(format!(
        "reproduce: {} experiment(s) in {:.1} ms",
        timings.len(),
        t_run.elapsed().as_secs_f64() * 1e3
    ));

    write_artifact(trace_out.as_deref(), "trace", |w| tel.write_events_jsonl(w));
    write_artifact(metrics_out.as_deref(), "metrics", |w| {
        tel.write_metrics_json(w)
    });
    let phase_kpis = if bench_out.is_some() {
        compile_phase_kpis(&machine)
    } else {
        Vec::new()
    };
    // A partial `--which` run merges into the existing record instead of
    // clobbering it: only the experiments that ran are refreshed.
    let existing = bench_out
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok());
    write_artifact(bench_out.as_deref(), "bench record", |w| {
        w.write_all(
            merged_bench_json(
                &which,
                scale,
                jobs,
                &timings,
                &phase_kpis,
                existing.as_deref(),
            )
            .as_bytes(),
        )
    });
}
