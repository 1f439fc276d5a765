//! The paper's Sec. 6 outlook, implemented: trip-count versioning and
//! dynamic cache-miss sampling.
//!
//! Run with: `cargo run --release --example versioned_dispatch`

use ltsp::core::{
    benchmark_gain, run_benchmark, run_suite_versioned, sample_miss_hints, CompileConfig,
    LatencyPolicy, RunConfig,
};
use ltsp::machine::MachineModel;
use ltsp::memsim::StreamMode;
use ltsp::workloads::{find_benchmark, hash_walk, mcf_refresh};

fn main() {
    let machine = MachineModel::itanium2();

    println!("== dynamic cache-miss sampling (Sec. 6) ==\n");
    println!("per-reference sampled hints:");
    for (label, lp, trip, mode) in [
        (
            "429.mcf refresh_potential (memory-resident chase)",
            mcf_refresh("rp", 48 << 20),
            3u64,
            StreamMode::Progressive,
        ),
        (
            "445.gobmk board-scan (L1/L2-resident gather)",
            hash_walk("bs", 8 * 1024),
            6,
            StreamMode::Restart,
        ),
    ] {
        let hints = sample_miss_hints(&lp, &machine, trip, 40, mode, 7);
        println!("  {label}:");
        for (i, h) in hints.iter().enumerate() {
            println!(
                "    {:<22} -> {}",
                lp.memrefs()[i].name(),
                h.map_or("no hint".to_string(), |h| format!("hint {h}"))
            );
        }
    }
    println!(
        "\nSampling sees the truth static heuristics cannot: mcf's fields\n\
         really miss (hints), gobmk's gathers really hit (no hints).\n"
    );

    println!("== benchmark-level comparison (no PGO) ==\n");
    for name in ["429.mcf", "445.gobmk", "464.h264ref"] {
        let bench = find_benchmark(name).expect("exists");
        let base = run_benchmark(
            &bench,
            &machine,
            &RunConfig::new(CompileConfig::new(LatencyPolicy::Baseline).with_pgo(false)),
        );
        let hlo = run_benchmark(
            &bench,
            &machine,
            &RunConfig::new(CompileConfig::new(LatencyPolicy::HloHints).with_pgo(false)),
        );
        let sampled = run_benchmark(
            &bench,
            &machine,
            &RunConfig::new(CompileConfig::new(LatencyPolicy::MissSampled).with_pgo(false)),
        );
        let versioned = run_suite_versioned(
            std::slice::from_ref(&bench),
            &machine,
            &RunConfig::new(CompileConfig::new(LatencyPolicy::AllLoadsL3).with_pgo(false)),
        );
        println!(
            "  {name:<14} HLO {:+6.2}%   sampled {:+6.2}%   versioned {:+6.2}%",
            benchmark_gain(&bench, &base, &hlo),
            benchmark_gain(&bench, &base, &sampled),
            benchmark_gain(&bench, &base, &versioned.runs[0]),
        );
    }
    println!(
        "\nVersioning dispatches per entry on the *actual* trip count;\n\
         sampling replaces guessed latencies with measured ones. Both\n\
         remove the static-information failure modes of Fig. 9."
    );
}
