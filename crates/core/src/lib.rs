//! Latency-tolerant software pipelining: the paper's contribution,
//! assembled.
//!
//! This crate wires the substrates together into the compiler the paper
//! describes and the experiments it reports:
//!
//! - [`LatencyPolicy`] — the four configurations of Figs. 7–9: baseline,
//!   blanket L3 hints ("headroom"), blanket L2 hints on FP loads, and
//!   HLO-directed hints;
//! - [`compile_loop`] — HLO prefetching + hint assignment, criticality
//!   analysis, latency-tolerant modulo scheduling, rotating register
//!   allocation, and the acyclic fallback;
//! - [`theory`] — the closed-form cost/benefit model of Sec. 2
//!   (coverage ratio, clustering factor, Eq. 2's stall-reduction curve);
//! - [`run_benchmark`] / [`run_suite`] — the experiment harness that
//!   executes a synthetic benchmark under a policy on the simulator and
//!   reports per-benchmark gains and cycle accounting.

mod cache;
mod compile;
mod config;
mod report;
mod runner;
pub mod theory;

pub use cache::{compile_key, compile_loop_cached, new_compile_cache, CompileCache};
pub use compile::{
    compile_loop, compile_loop_observed, compile_loop_with_profile, sample_miss_hints, CompiledLoop,
};
pub use config::{CompileConfig, LatencyPolicy};
pub use report::{format_cycle_accounting, format_gain_table, geomean_gain};
pub use runner::{
    benchmark_gain, default_jobs, run_benchmark, run_suite, run_suite_versioned, set_default_jobs,
    suite_cycle_accounting, BenchRun, LoopRun, RunConfig, SuiteRun,
};
