//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figN`/case-study function runs the corresponding experiment on
//! the synthetic suites and returns both structured results and a
//! rendered text block shaped like the paper's artifact. The `reproduce`
//! binary prints them; `EXPERIMENTS.md` records paper-vs-measured.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`fig5`] | Fig. 5 — stall reduction vs clustering factor (Eq. 2) |
//! | [`fig7`] | Fig. 7 — headroom with trip-count thresholds (PGO) |
//! | [`fig8`] | Fig. 8 — blanket FP-L2 vs HLO hints (PGO) |
//! | [`fig9`] | Fig. 9 — headroom vs HLO hints without PGO |
//! | [`fig10`] | Fig. 10 + Sec. 4.5 — cycle accounting & OzQ statistics |
//! | [`mcf_case_study`] | Sec. 4.4 — 429.mcf `refresh_potential()` |
//! | [`regstats`] | Sec. 4.5 — register pressure & spill statistics |
//! | [`compile_time`] | Sec. 3.3 — extra scheduling attempts |
//! | [`no_prefetch_headroom`] | Sec. 4.2 — headroom with prefetching off |
//! | [`versioning_experiment`] | Sec. 6 outlook — trip-count versioning |
//! | [`miss_sampling_experiment`] | Sec. 6 outlook — dynamic miss sampling |
//! | [`ozq_capacity_ablation`] | Sec. 4.5 claim — more queuing, more benefit |
//! | [`boost_magnitude_ablation`] | Sec. 2.2 guidance — 20-30 cycle sweet spot |
//! | [`oracle_gap`] | E-oracle — heuristic II vs exact-oracle minimal II |
//! | [`adaptive_gap`] | E-adaptive — feedback-directed hints vs static policies |
//!
//! [`loadgen`] drives `ltspc serve` for the `loadgen` binary and the daemon tests.

mod adaptive_gap;
pub mod bench_record;
pub mod compile_phases;
mod experiments;
mod extensions;
mod fig5;
pub mod loadgen;
mod mcf;
mod oracle_gap;
mod stats;

pub use adaptive_gap::{adaptive_gap, AdaptiveGapResult, AdaptiveRow};
pub use bench_record::{merged_bench_json, CANONICAL_EXPERIMENTS};
pub use experiments::{
    fig10, fig7, fig8, fig9, no_prefetch_headroom, AccountingResult, GainExperiment,
};
pub use extensions::{
    balanced_recurrence_experiment, boost_magnitude_ablation, issue_width_ablation,
    miss_sampling_experiment, mve_code_size_ablation, ozq_capacity_ablation, versioning_experiment,
    AblationSeries, BalancedResult,
};
pub use fig5::{fig5, Fig5Result};
pub use mcf::{mcf_case_study, McfCaseStudy};
pub use oracle_gap::{oracle_gap, OracleGapResult};
pub use stats::{compile_time, regstats, CompileTimeResult, RegStatsResult};
