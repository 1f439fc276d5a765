//! Command line: `run` (one workload in this process, or `--all` with one
//! child process per workload) and `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::results::{compare, num, push_metric, Host, ResultFile, WorkloadResult};
use crate::workloads::{build, run_workload, Outcome, RunOpts};

/// The seed `run` uses when none is given (the README names the held-out
/// seed later claims must also hold on).
pub const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  ltsp-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]
  ltsp-benchmark run --all [--traced] [--seed N] [--seconds S] [--quick] [--out-dir DIR]
  ltsp-benchmark compare A.json B.json";

#[derive(Debug)]
struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        quick: false,
        out_dir: default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => r.workload = Some(value("a name")?.clone()),
            "--all" => r.all = true,
            "--seed" => {
                r.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                r.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                r.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => r.traced = true,
            "--quick" => r.quick = true,
            "--out-dir" => r.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if r.all == r.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    if !(r.seconds > 0.0 && r.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(r)
}

fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}{}.json",
        if traced { "-traced" } else { "" }
    ))
}

/// The driver line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// the metrics being every catalogued metric of the run's kind.
///
/// # Errors
///
/// An end-to-end metric the workload did not report.
pub fn driver_line(o: &Outcome) -> Result<String, String> {
    let defs: &[MetricDef] = if o.traced { PER_LAYER } else { &END_TO_END };
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let v = match o.metrics.get(d.name) {
            Some(v) => v,
            // A layer the workload never enters has nothing to report.
            None if o.traced => 0.0,
            None => return Err(format!("{} did not report {}", o.workload, d.name)),
        };
        push_metric(&mut line, i == 0, d.name, v, d.unit);
    }
    line.push_str("}}");
    Ok(line)
}

fn print_metrics(workload: &str, w: &WorkloadResult) {
    for (name, (value, unit)) in &w.metrics {
        println!("{workload:<14} {name:<34} {value:>18.4} {unit}");
    }
    for (kind, map) in [("exact", &w.exact), ("info", &w.info)] {
        for (name, value) in map {
            println!(
                "{workload:<14} {:<34} {:>18}",
                format!("{kind}:{name}"),
                num(*value)
            );
        }
    }
}

fn run_one(args: &RunArgs, name: &str) -> Result<i32, String> {
    let mut w = build(name, args.quick).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        out_dir: args.out_dir.clone(),
    };
    let o = run_workload(w.as_mut(), &opts).map_err(|e| format!("{name}: {e}"))?;
    let wr = WorkloadResult::from_outcome(&o);
    print_metrics(name, &wr);
    let file = ResultFile {
        host: Host::detect(),
        seed: args.seed,
        traced: args.traced,
        seconds: args.seconds,
        workloads: BTreeMap::from([(name.to_string(), wr)]),
    };
    let path = result_path(&args.out_dir, name, args.traced);
    std::fs::write(&path, file.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", driver_line(&o)?);
    Ok(0)
}

/// Every workload in its own child process (a fresh address space, so
/// `peak_rss_mb` and allocator state are the workload's own), merged into
/// one result file.
fn run_all(args: &RunArgs) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged: Option<ResultFile> = None;
    let mut failed_workloads = Vec::new();
    for name in WORKLOADS {
        eprintln!("== {name}");
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stdin(Stdio::null());
        if args.quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            failed_workloads.push(format!("{name} ({status})"));
            continue;
        }
        let path = result_path(&args.out_dir, name, args.traced);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let one = ResultFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if one.workloads.values().any(|w| w.failed > 0) {
            failed_workloads.push(format!("{name} (failed output checks)"));
        }
        match &mut merged {
            None => merged = Some(one),
            Some(m) => m.workloads.extend(one.workloads),
        }
    }
    if let Some(m) = &merged {
        let path = args.out_dir.join(if args.traced {
            "results-traced.json"
        } else {
            "results.json"
        });
        std::fs::write(&path, m.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if failed_workloads.is_empty() {
        Ok(0)
    } else {
        eprintln!("FAILED: {}", failed_workloads.join(", "));
        Ok(1)
    }
}

fn run_compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let load = |p: &String| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        ResultFile::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let c = compare(&load(a)?, &load(b)?).map_err(|e| format!("refusing to compare: {e}"))?;
    print!("{}", c.report);
    println!(
        "{} bound(s) exceeded, {} exact count(s) differ",
        c.exceeded, c.exact_differ
    );
    Ok(i32::from(c.exceeded > 0))
}

/// Runs the command line; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|r| match &r.workload {
            Some(name) => run_one(&r, name),
            None => run_all(&r),
        }),
        Some((cmd, rest)) if cmd == "compare" => run_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ltsp-benchmark: {e}");
            2
        }
    }
}
