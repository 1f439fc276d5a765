//! E-adaptive: how much of the static heuristic's cost the adaptive
//! feedback loop recovers, per kernel and kernel class.
//!
//! Three arms per library kernel, all measured on the identical
//! deterministic simulation window ([`ltsp_adaptive::measure_compiled`]):
//!
//! - **Baseline** — no latency boosting (the paper's comparison arm);
//! - **HloHints** — the production static policy the paper ships;
//! - **Adaptive** — [`ltsp_adaptive::compile_loop_adaptive`] run to its
//!   certified fixpoint from the HloHints arm.
//!
//! Each kernel is measured in both **kernel classes** the simulator
//! models (the paper's Sec. 4.2 contrast): `streaming`
//! ([`StreamMode::Progressive`] — fresh data every entry, prefetches do
//! real work) and `reuse` ([`StreamMode::Restart`] — a warm working set
//! revisited each call, where static prefetches are redundant body cost).
//!
//! The exact oracle's proven-minimal II (base latencies, pre-HLO loop — a
//! lower bound for *any* hint assignment) anchors the II columns: the
//! *gap* is `HloHints II − oracle II`, the price the static analysis pays
//! for tolerance, and the table reports how much of it the observed
//! verdicts win back, and at what simulated stall cost. The adaptive
//! round selection guarantees `Adaptive II ≤ HloHints II` on every row.
//! The expected shape: in the streaming class adaptive mostly recovers
//! stall cycles (hint corrections), while in the reuse class it drops
//! observed-redundant prefetches and recovers real II.

use ltsp_adaptive::{compile_loop_adaptive, measure_compiled, AdaptiveOptions};
use ltsp_core::{compile_loop_with_profile, CompileConfig, LatencyPolicy};
use ltsp_ddg::Ddg;
use ltsp_machine::MachineModel;
use ltsp_memsim::StreamMode;
use ltsp_oracle::{prove_min_ii, IiVerdict, OracleOptions};
use ltsp_telemetry::Telemetry;
use ltsp_workloads::kernel_library;

/// One (kernel, class) row of the E-adaptive table.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Kernel name.
    pub name: String,
    /// Kernel class: `"streaming"` (progressive streams) or `"reuse"`
    /// (restarting streams over a warm working set).
    pub class: &'static str,
    /// The oracle's proven minimal II at base latencies (`None` when the
    /// search budget ran out with only a lower bound).
    pub oracle_ii: Option<u32>,
    /// Baseline (no hints) II.
    pub baseline_ii: u32,
    /// Baseline simulated stall cycles over the measurement window.
    pub baseline_stalls: u64,
    /// Static HloHints II.
    pub hlo_ii: u32,
    /// Static HloHints stall cycles.
    pub hlo_stalls: u64,
    /// Converged adaptive II.
    pub adaptive_ii: u32,
    /// Converged adaptive stall cycles.
    pub adaptive_stalls: u64,
    /// Prefetches the converged overlay dropped as observed-redundant.
    pub dropped_prefetches: usize,
    /// Refinement rounds executed (including round 0).
    pub rounds: usize,
    /// True when the hint overlay reached its fixpoint within the cap.
    pub converged: bool,
    /// True when every intermediate schedule was validator-certified.
    pub certified: bool,
}

impl AdaptiveRow {
    /// `HloHints II − oracle II` when the oracle resolved (the static
    /// heuristic-vs-oracle gap).
    pub fn gap(&self) -> Option<u32> {
        self.oracle_ii.map(|o| self.hlo_ii.saturating_sub(o))
    }

    /// II cycles the adaptive arm won back from the static gap.
    pub fn ii_recovered(&self) -> u32 {
        self.hlo_ii.saturating_sub(self.adaptive_ii)
    }
}

/// The E-adaptive experiment over the kernel library × kernel classes.
#[derive(Debug, Clone)]
pub struct AdaptiveGapResult {
    /// One row per (class, kernel): all streaming rows in library order,
    /// then all reuse rows.
    pub rows: Vec<AdaptiveRow>,
}

impl AdaptiveGapResult {
    /// Rows where the static policy sits above the proven minimum.
    pub fn gap_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.gap().unwrap_or(0) > 0)
            .count()
    }

    /// Distinct kernels where adaptive hints recovered part of that gap
    /// in at least one class.
    pub fn recovered_kernels(&self) -> usize {
        let mut names: Vec<&str> = self
            .rows
            .iter()
            .filter(|r| r.gap().unwrap_or(0) > 0 && r.ii_recovered() > 0)
            .map(|r| r.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Rows where the adaptive II exceeds the static II (the round
    /// selection makes this impossible; reported so the table proves it).
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.adaptive_ii > r.hlo_ii)
            .count()
    }

    /// Rows that failed to reach the overlay fixpoint within the cap.
    pub fn unconverged(&self) -> usize {
        self.rows.iter().filter(|r| !r.converged).count()
    }

    /// Rows with an uncertified intermediate schedule (must be none).
    pub fn uncertified(&self) -> usize {
        self.rows.iter().filter(|r| !r.certified).count()
    }

    /// Renders the experiment table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "E-adaptive — feedback-directed hints vs Baseline/HloHints (kernel library × class)"
        );
        let mut class = "";
        for r in &self.rows {
            if r.class != class {
                class = r.class;
                let _ = writeln!(s, "-- class: {class}");
                let _ = writeln!(
                    s,
                    "{:<24} {:>6} {:>7} {:>9} {:>7} {:>9} {:>7} {:>9} {:>5} {:>4} {:>6}  status",
                    "kernel",
                    "oracle",
                    "base II",
                    "stalls",
                    "hlo II",
                    "stalls",
                    "ad II",
                    "stalls",
                    "drops",
                    "rnds",
                    "recov"
                );
            }
            let oracle = r
                .oracle_ii
                .map_or_else(|| "?".to_string(), |o| o.to_string());
            let recov = match r.gap() {
                Some(g) if g > 0 => format!("{}/{}", r.ii_recovered(), g),
                _ => "-".to_string(),
            };
            let status = if !r.certified {
                "UNCERTIFIED"
            } else if !r.converged {
                "cap-hit (certified)"
            } else {
                "fixpoint (certified)"
            };
            let _ = writeln!(
                s,
                "{:<24} {:>6} {:>7} {:>9} {:>7} {:>9} {:>7} {:>9} {:>5} {:>4} {:>6}  {}",
                r.name,
                oracle,
                r.baseline_ii,
                r.baseline_stalls,
                r.hlo_ii,
                r.hlo_stalls,
                r.adaptive_ii,
                r.adaptive_stalls,
                r.dropped_prefetches,
                r.rounds,
                recov,
                status
            );
        }
        let _ = writeln!(
            s,
            "gap rows: {}   kernels recovered: {}   II regressions: {}   \
             unconverged: {}   uncertified: {}",
            self.gap_rows(),
            self.recovered_kernels(),
            self.regressions(),
            self.unconverged(),
            self.uncertified()
        );
        s
    }
}

/// Runs the E-adaptive experiment over every kernel in the library, in
/// both stream classes, on `jobs` worker threads; rows (and their
/// round-by-round telemetry) come back in a fixed order whatever the
/// worker count.
pub fn adaptive_gap(machine: &MachineModel, tel: &Telemetry, jobs: usize) -> AdaptiveGapResult {
    let oracle_opts = OracleOptions::default();
    let classes: [(&'static str, StreamMode); 2] = [
        ("streaming", StreamMode::Progressive),
        ("reuse", StreamMode::Restart),
    ];
    let items: Vec<_> = classes
        .iter()
        .flat_map(|&(class, mode)| {
            kernel_library()
                .into_iter()
                .map(move |(_, lp)| (class, mode, lp))
        })
        .collect();
    let rows = ltsp_par::Pool::new(jobs).map_traced(
        tel,
        "adaptive-gap",
        &items,
        |tel, _idx, (class, mode, lp)| {
            let opts = AdaptiveOptions {
                stream_mode: *mode,
                ..AdaptiveOptions::default()
            };
            let trip = opts.trip as f64;
            let base_cfg = CompileConfig::new(LatencyPolicy::Baseline);
            let hlo_cfg = CompileConfig::new(LatencyPolicy::HloHints);

            let base = compile_loop_with_profile(lp, machine, &base_cfg, trip);
            let base_m = measure_compiled(&base, machine, &opts);
            let hlo = compile_loop_with_profile(lp, machine, &hlo_cfg, trip);
            let hlo_m = measure_compiled(&hlo, machine, &opts);
            let ad = compile_loop_adaptive(lp, machine, &hlo_cfg, trip, &opts, tel);

            // The oracle proves the base-latency minimum on the pre-HLO
            // loop — a lower bound for any hint assignment, anchoring
            // the gap column.
            let ddg = Ddg::build_with_load_floor(lp, machine, 0);
            let oracle_ii = match prove_min_ii(lp, machine, &ddg, base.kernel.ii(), &oracle_opts) {
                IiVerdict::Exact { optimal_ii, .. } => Some(optimal_ii),
                IiVerdict::BoundedUnknown { .. } => None,
            };

            AdaptiveRow {
                name: lp.name().to_string(),
                class,
                oracle_ii,
                baseline_ii: base.kernel.ii(),
                baseline_stalls: base_m.stall_cycles,
                hlo_ii: hlo.kernel.ii(),
                hlo_stalls: hlo_m.stall_cycles,
                adaptive_ii: ad.ii(),
                adaptive_stalls: ad.chosen().stall_cycles,
                dropped_prefetches: ad.chosen().overlay.dropped_prefetches(),
                rounds: ad.rounds.len(),
                converged: ad.converged,
                certified: ad.all_certified(),
            }
        },
    );
    AdaptiveGapResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_converges_certifies_recovers_and_never_regresses() {
        let m = MachineModel::itanium2();
        let r = adaptive_gap(&m, &Telemetry::disabled(), 2);
        assert_eq!(r.rows.len(), 34, "17 kernels x 2 classes");
        assert_eq!(r.regressions(), 0, "{}", r.render());
        assert_eq!(r.unconverged(), 0, "{}", r.render());
        assert_eq!(r.uncertified(), 0, "{}", r.render());
        assert!(
            r.recovered_kernels() >= 3,
            "adaptive must recover II on >= 3 kernels:\n{}",
            r.render()
        );
    }
}
