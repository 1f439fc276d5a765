//! `compile_phases` — the benchmark-locked compile-latency KPI harness.
//!
//! Buckets per-phase compile latency (parse/hlo/ddg/mrt/sched/regalloc/
//! render) over the library and scale kernel groups, writes the
//! machine-readable record, and — given `--baseline` — fails loudly on
//! gross per-phase regressions against the locked record in `results/`,
//! and on any difference in the exact pipeliner decision counts.
//!
//! ```text
//! compile_phases [--out BENCH_compile_phases.json] [--repeat N]
//!                [--scale N] [--baseline results/BENCH_compile_phases.json]
//!                [--max-regression 2.0] [--floor-us 25]
//! ```

use std::process::ExitCode;

use ltsp_bench::compile_phases::{compare_counts, compare_to_baseline, compile_phases};
use ltsp_machine::MachineModel;

fn usage() -> ! {
    eprintln!(
        "usage: compile_phases [--out FILE] [--repeat N] [--scale N] \
         [--baseline FILE] [--max-regression F] [--floor-us F]"
    );
    std::process::exit(2);
}

/// A flag's value, parsed; a missing or malformed one is a usage error.
fn value<T: std::str::FromStr>(v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_compile_phases.json");
    let mut baseline: Option<String> = None;
    let mut repeat = 3usize;
    let mut scale = 3usize;
    let mut max_regression = 2.0f64;
    let mut floor_us = 25.0f64;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out = value(argv.next()),
            "--baseline" => baseline = Some(value(argv.next())),
            "--repeat" => repeat = value(argv.next()),
            "--scale" => scale = value(argv.next()),
            "--max-regression" => max_regression = value(argv.next()),
            "--floor-us" => floor_us = value(argv.next()),
            _ => usage(),
        }
    }

    let machine = MachineModel::itanium2();
    let result = compile_phases(&machine, repeat, scale);
    print!("{}", result.render());

    let record = result.to_json();
    if let Err(e) = std::fs::write(&out, &record) {
        eprintln!("compile_phases: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    if let Some(base_path) = baseline {
        let base = match std::fs::read_to_string(&base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("compile_phases: cannot read baseline {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match compare_counts(&record, &base) {
            Ok(moved) if moved.is_empty() => {}
            Ok(moved) => {
                eprintln!("baseline check vs {base_path}: FAIL (exact counts moved)");
                for m in &moved {
                    eprintln!("  count: {m}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("baseline check vs {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        match compare_to_baseline(&record, &base, max_regression, floor_us) {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "baseline check vs {base_path}: OK (counts equal, no phase mean >{max_regression}x)"
                );
            }
            Ok(regressions) => {
                eprintln!("baseline check vs {base_path}: FAIL");
                for r in &regressions {
                    eprintln!("  regression: {r}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("baseline check vs {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
