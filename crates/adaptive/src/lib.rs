//! Adaptive feedback-directed latency hints: the first subsystem where
//! the simulator feeds the compiler instead of only judging it.
//!
//! The paper's HLO latency hints are static guesses about where loads
//! will be served from; its own PGO/no-PGO contrast (Figs. 7–9) shows
//! how much hint accuracy is worth. This crate closes the loop: a
//! scheduled kernel is executed on [`ltsp_memsim`], the per-reference
//! service-level observations ([`ltsp_memsim::RefObservation`]) are
//! classified into an [`ObservedOverlay`], the loop is re-pipelined with
//! the overlay merged over the static analysis, and the cycle repeats to
//! a bounded fixpoint:
//!
//! ```text
//!   round 0: compile statically ──► certify ──► simulate ──► classify
//!   round r: compile w/ overlay ──► certify ──► simulate ──► classify
//!            ... until the overlay stops changing, or the round cap
//! ```
//!
//! Every intermediate schedule is certified by the independent
//! [`ltsp_oracle`] validator against the base-latency dependence graph
//! (boosting only lengthens latencies, so a boosted schedule must still
//! satisfy every base-latency constraint). The converged schedule is the
//! best *feasible* round: its II never exceeds the static round-0 II,
//! and among those candidates the simulator's measured cycles decide.
//!
//! Everything is deterministic: fixed seeds, fixed entry/trip counts,
//! and a serial per-loop refinement loop, so round-by-round traces are
//! byte-identical at any `--jobs` level.

use ltsp_core::{CompileConfig, CompiledLoop};
use ltsp_ddg::Ddg;
use ltsp_hlo::{ObservedHint, ObservedOverlay, ObservedVerdict};
use ltsp_ir::{LatencyHint, LoopIr};
use ltsp_machine::MachineModel;
use ltsp_memsim::{Executor, ExecutorConfig, RefObservation, StreamMode};
use ltsp_oracle::validate_schedule;
use ltsp_telemetry::{Event, Observer, Telemetry};

/// Configuration of the refinement loop. The defaults are deliberately
/// small and **fixed**: the adaptive contract is that the same loop text
/// and options produce byte-identical round traces everywhere (local
/// CLI, server refine worker, any `--jobs`), so every knob that feeds
/// the simulator is pinned here rather than sampled from the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Maximum refinement rounds after the static round 0 (the fixpoint
    /// bound); the loop always terminates after `1 + max_rounds`
    /// compiles.
    pub max_rounds: u32,
    /// Cache-warmup loop entries simulated (and discarded) per round.
    pub warmup_entries: u32,
    /// Steady-state loop entries measured per round.
    pub measure_entries: u32,
    /// Iterations per simulated loop entry.
    pub trip: u64,
    /// Seed for the deterministic address streams.
    pub seed: u64,
    /// Whether streams replay or progress across loop entries. The
    /// default is [`StreamMode::Restart`] (reuse-heavy re-invocation):
    /// it is the mode where observation can actually improve on the
    /// static heuristic — redundant prefetches become visible and
    /// droppable — and the revoke-and-ban rule plus per-round
    /// certification make it safe when the guess is wrong.
    pub stream_mode: StreamMode,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            max_rounds: 4,
            warmup_entries: 4,
            measure_entries: 4,
            trip: 256,
            seed: 0x0ADA_9717,
            stream_mode: StreamMode::Restart,
        }
    }
}

/// One round of the refinement loop, as reported in telemetry.
#[derive(Debug, Clone)]
pub struct AdaptiveRoundReport {
    /// Round index (0 = the static compile).
    pub round: u32,
    /// The II this round's schedule achieved (or the acyclic schedule
    /// length on fallback).
    pub ii: u32,
    /// True when the round's schedule was software-pipelined.
    pub pipelined: bool,
    /// True when the independent validator certified the schedule.
    pub certified: bool,
    /// References with an observed verdict in this round's overlay.
    pub covered: usize,
    /// References whose verdict changed between this round's overlay and
    /// the one derived from this round's simulation (0 = fixpoint).
    pub hint_deltas: usize,
    /// Simulated stall cycles over the steady-state measurement window.
    pub stall_cycles: u64,
    /// Simulated total cycles over the steady-state measurement window.
    pub total_cycles: u64,
    /// The overlay this round compiled with (empty in round 0).
    pub overlay: ObservedOverlay,
}

/// The outcome of [`compile_loop_adaptive`].
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The chosen (best feasible) round's compile.
    pub compiled: CompiledLoop,
    /// Every round, in order.
    pub rounds: Vec<AdaptiveRoundReport>,
    /// Index into `rounds` of the chosen schedule.
    pub chosen_round: u32,
    /// True when the overlay reached its fixpoint within the round cap
    /// (as opposed to being cut off by `max_rounds`).
    pub converged: bool,
}

impl AdaptiveResult {
    /// The chosen schedule's II.
    pub fn ii(&self) -> u32 {
        self.compiled.kernel.ii()
    }

    /// The static round-0 II (the heuristic the adaptive loop refines).
    pub fn static_ii(&self) -> u32 {
        self.rounds[0].ii
    }

    /// True when every intermediate schedule was validator-certified.
    pub fn all_certified(&self) -> bool {
        self.rounds.iter().all(|r| r.certified)
    }

    /// The chosen round's report.
    pub fn chosen(&self) -> &AdaptiveRoundReport {
        &self.rounds[self.chosen_round as usize]
    }
}

/// Classifies one reference's steady-state observation into a verdict:
/// references whose mean demand latency reaches the L3 service range get
/// an L3 hint, the L2 range an L2 hint, and near-L1 references are
/// `Fast` (suppressing any static hint). The floors match
/// [`ltsp_core::sample_miss_hints`], the paper's miss-sampling outlook.
///
/// The prefetch-drop side: a reference whose prefetches overwhelmingly
/// (≥ 3 in 4) found their line already resident *at the prefetch's own
/// target level* is a drop candidate — the residency does not come from
/// the prefetch (riding an in-flight fill is explicitly not redundant),
/// so removing it is body-cost savings (a lower resource-minimum II).
/// References observed only through prefetches (store streams) classify
/// as `Fast` so their redundant prefetches can be dropped too. Whether a
/// drop *persists* across rounds is decided by [`compile_loop_adaptive`],
/// which compares the post-drop service level against the pre-drop one
/// and permanently revokes any drop that made its reference slower.
fn classify(obs: &RefObservation, l2_floor: f64, l3_floor: f64) -> Option<ObservedVerdict> {
    if obs.accesses == 0 && obs.prefetches == 0 {
        return None;
    }
    let hint = match obs.avg_latency() {
        Some(avg) if avg >= l3_floor => ObservedHint::Level(LatencyHint::L3),
        Some(avg) if avg >= l2_floor => ObservedHint::Level(LatencyHint::L2),
        _ => ObservedHint::Fast,
    };
    let drop_prefetch = obs.prefetches > 0 && obs.redundant_prefetches * 4 >= obs.prefetches * 3;
    Some(ObservedVerdict {
        hint,
        drop_prefetch,
    })
}

/// Total order of observed service levels, fastest first.
fn hint_rank(h: ObservedHint) -> u32 {
    match h {
        ObservedHint::Fast => 0,
        ObservedHint::Level(LatencyHint::L2) => 1,
        ObservedHint::Level(LatencyHint::L3) => 2,
    }
}

/// Folds one round's raw measurement into the next overlay, carrying the
/// drop decisions across rounds:
///
/// - a reference dropped last round that now measures **no slower** than
///   it did with the prefetch keeps its drop (the prefetch really was
///   redundant — this is the fixpoint case);
/// - one that measures *slower* has its drop revoked and **banned**: the
///   residency did come from the prefetch, and the one-way ban is what
///   bounds the loop (each reference's drop flips at most twice);
/// - a dropped reference with no demand evidence this round (store
///   streams) keeps its previous verdict unchanged.
fn refine_overlay(
    raw: Vec<Option<ObservedVerdict>>,
    prev: &ObservedOverlay,
    banned: &mut [bool],
) -> ObservedOverlay {
    let verdicts = raw
        .into_iter()
        .enumerate()
        .map(|(i, mut v)| {
            let prev_v = prev.get(ltsp_ir::MemRefId(i as u32));
            if prev_v.is_some_and(|p| p.drop_prefetch) {
                let prev_hint = prev_v.expect("checked above").hint;
                match v.as_mut() {
                    None => v = prev_v,
                    Some(nv) => {
                        if hint_rank(nv.hint) > hint_rank(prev_hint) {
                            banned[i] = true;
                        } else {
                            nv.drop_prefetch = true;
                        }
                    }
                }
            }
            if banned[i] {
                if let Some(nv) = v.as_mut() {
                    nv.drop_prefetch = false;
                }
            }
            v
        })
        .collect();
    ObservedOverlay::new(verdicts)
}

/// One steady-state simulation measurement of a compiled loop under the
/// adaptive options' fixed window.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-reference observed verdicts (indexed by memref id of the
    /// pre-HLO loop).
    pub verdicts: Vec<Option<ObservedVerdict>>,
    /// Stall cycles over the measurement window.
    pub stall_cycles: u64,
    /// Total cycles over the measurement window.
    pub total_cycles: u64,
}

/// Simulates a compiled loop for the deterministic warmup + measurement
/// window of `opts` and returns the steady-state measurement — the same
/// procedure every adaptive round uses, exposed so experiment arms can
/// measure non-adaptive policies identically.
pub fn measure_compiled(
    compiled: &CompiledLoop,
    machine: &MachineModel,
    opts: &AdaptiveOptions,
) -> Measurement {
    let original_refs = compiled.lp.memrefs().len();
    simulate_round(original_refs, compiled, machine, opts)
}

/// Simulates one round's schedule and returns the steady-state
/// measurement of verdicts (for the original loop's `original_refs`
/// references), stall cycles and total cycles.
fn simulate_round(
    original_refs: usize,
    compiled: &CompiledLoop,
    machine: &MachineModel,
    opts: &AdaptiveOptions,
) -> Measurement {
    let mut ex = Executor::new(
        &compiled.lp,
        &compiled.kernel,
        machine,
        compiled.regs_total,
        ExecutorConfig {
            seed: opts.seed,
            stream_mode: opts.stream_mode,
            ..ExecutorConfig::default()
        },
    );
    // Warm the caches, then measure steady state only — like a sampling
    // profiler, whose samples are dominated by the steady state.
    for _ in 0..opts.warmup_entries.max(1) {
        ex.run_entry(opts.trip.max(1));
    }
    ex.reset_observations();
    let warm = *ex.counters();
    for _ in 0..opts.measure_entries.max(1) {
        ex.run_entry(opts.trip.max(1));
    }
    let c = *ex.counters();
    let l2_floor = f64::from(machine.caches().l2.best_latency) - 1.0;
    let l3_floor = f64::from(machine.caches().l3.best_latency) + 2.0;
    let verdicts = ex
        .observations()
        .iter()
        .take(original_refs) // ignore HLO-added refs, none today
        .map(|obs| classify(obs, l2_floor, l3_floor))
        .collect();
    Measurement {
        verdicts,
        stall_cycles: c.stall_cycles() - warm.stall_cycles(),
        total_cycles: c.total - warm.total,
    }
}

/// Runs the full adaptive refinement loop on one loop.
///
/// Round 0 compiles under `cfg` unchanged (the static heuristic the
/// caller would have used); each subsequent round folds the previous
/// round's observed verdicts into `cfg.observed_overlay` and recompiles.
/// Iteration stops when the overlay stops changing (fixpoint) or after
/// `opts.max_rounds` refinements. Every round's schedule is certified by
/// the independent validator against the base-latency DDG, simulated for
/// a fixed deterministic window, and reported as an
/// [`Event::AdaptiveRound`] on `tel`.
///
/// The returned schedule is the best feasible round: II never above the
/// static round-0 II, minimal measured total cycles among those, ties
/// broken toward fewer stall cycles and then the earliest round — so
/// adaptive compilation never regresses the II and is deterministic.
pub fn compile_loop_adaptive(
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    trip_estimate: f64,
    opts: &AdaptiveOptions,
    tel: &Telemetry,
) -> AdaptiveResult {
    let original_refs = lp.memrefs().len();
    let mut rounds: Vec<AdaptiveRoundReport> = Vec::new();
    let mut compiles: Vec<CompiledLoop> = Vec::new();
    let mut overlay = ObservedOverlay::default();
    let mut banned = vec![false; original_refs];
    let mut converged = false;

    for round in 0..=opts.max_rounds {
        let mut round_cfg = cfg.clone();
        if round > 0 {
            round_cfg.observed_overlay = Some(overlay.clone());
        }
        let obs = Observer::new(tel, None);
        let compiled =
            ltsp_core::compile_loop_observed(lp, machine, &round_cfg, trip_estimate, obs);

        // Trust but verify: the independent validator re-derives every
        // constraint from the base-latency graph; a boosted schedule
        // that fails it would be a scheduler bug, not a tuning choice.
        let ddg = Ddg::build_with_load_floor(&compiled.lp, machine, 0);
        let certified = validate_schedule(&compiled.lp, &ddg, &compiled.kernel, machine).is_ok();

        let mea = simulate_round(original_refs, &compiled, machine, opts);
        let (stall_cycles, total_cycles) = (mea.stall_cycles, mea.total_cycles);
        let next = refine_overlay(mea.verdicts, &overlay, &mut banned);
        let hint_deltas = next.delta(&overlay);

        if tel.is_enabled() {
            tel.emit(Event::AdaptiveRound {
                loop_name: lp.name().to_string(),
                round,
                ii: compiled.kernel.ii(),
                pipelined: compiled.pipelined,
                covered: overlay.covered() as u64,
                hint_deltas: hint_deltas as u64,
                stall_cycles,
                total_cycles,
            });
        }

        rounds.push(AdaptiveRoundReport {
            round,
            ii: compiled.kernel.ii(),
            pipelined: compiled.pipelined,
            certified,
            covered: overlay.covered(),
            hint_deltas,
            stall_cycles,
            total_cycles,
            overlay: overlay.clone(),
        });
        compiles.push(compiled);

        if hint_deltas == 0 && round > 0 {
            converged = true;
            break;
        }
        overlay = next;
    }

    // Pick the best feasible round: never regress the static II; prefer
    // the fewest measured cycles, then stalls, then the earliest round.
    let static_ii = rounds[0].ii;
    let chosen_round = rounds
        .iter()
        .enumerate()
        .filter(|(_, r)| r.ii <= static_ii)
        .min_by_key(|(i, r)| (r.total_cycles, r.stall_cycles, *i))
        .map(|(i, _)| i)
        .unwrap_or(0);

    AdaptiveResult {
        compiled: compiles.swap_remove(chosen_round),
        rounds,
        chosen_round: chosen_round as u32,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_core::LatencyPolicy;

    #[test]
    fn saxpy_converges_and_certifies() {
        let lp = ltsp_workloads::saxpy("s");
        let m = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let r = compile_loop_adaptive(
            &lp,
            &m,
            &cfg,
            100.0,
            &AdaptiveOptions::default(),
            &Telemetry::disabled(),
        );
        assert!(r.converged, "rounds: {:?}", r.rounds.len());
        assert!(r.all_certified());
        assert!(r.ii() <= r.static_ii());
        assert!(r.rounds.len() >= 2, "at least one refinement round");
        assert_eq!(r.rounds.last().unwrap().hint_deltas, 0, "fixpoint");
    }

    #[test]
    fn round_zero_is_the_static_compile() {
        let lp = ltsp_workloads::saxpy("s");
        let m = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let static_c = ltsp_core::compile_loop_with_profile(&lp, &m, &cfg, 100.0);
        let r = compile_loop_adaptive(
            &lp,
            &m,
            &cfg,
            100.0,
            &AdaptiveOptions::default(),
            &Telemetry::disabled(),
        );
        assert_eq!(r.rounds[0].ii, static_c.kernel.ii());
        assert_eq!(r.rounds[0].covered, 0, "round 0 compiles statically");
    }

    #[test]
    fn deterministic_across_invocations() {
        let lp = ltsp_workloads::mcf_refresh("rp", 1 << 25);
        let m = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let opts = AdaptiveOptions::default();
        let a = compile_loop_adaptive(&lp, &m, &cfg, 2.3, &opts, &Telemetry::disabled());
        let b = compile_loop_adaptive(&lp, &m, &cfg, 2.3, &opts, &Telemetry::disabled());
        assert_eq!(a.chosen_round, b.chosen_round);
        assert_eq!(a.rounds.len(), b.rounds.len());
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.ii, y.ii);
            assert_eq!(x.stall_cycles, y.stall_cycles);
            assert_eq!(x.total_cycles, y.total_cycles);
            assert_eq!(x.overlay, y.overlay);
        }
        assert_eq!(
            a.compiled.kernel.dump(&a.compiled.lp),
            b.compiled.kernel.dump(&b.compiled.lp)
        );
    }
}
