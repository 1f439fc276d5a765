//! The compiler driver: HLO → criticality → latency-tolerant pipelining.

use ltsp_hlo::{run_hlo_observed, HintReason, HloReport};
use ltsp_ir::{DataClass, InstId, LatencyHint, LoopIr, Opcode, RegClass};
use ltsp_machine::LatencyQuery;
use ltsp_machine::MachineModel;
use ltsp_pipeliner::{
    pipeline_loop_observed, LoadClassification, ModuloSchedule, PipelineStats, RegAllocation,
};
use ltsp_telemetry::{Event, Observer, Phase, Telemetry};

use crate::config::{CompileConfig, LatencyPolicy};

/// The result of compiling one loop under a policy.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// The loop after HLO (prefetches inserted, hints attached).
    pub lp: LoopIr,
    /// The kernel schedule — a software pipeline, or the acyclic fallback
    /// when pipelining was rejected.
    pub kernel: ModuloSchedule,
    /// True when the loop was software-pipelined.
    pub pipelined: bool,
    /// Pipeliner statistics (present when pipelined).
    pub stats: Option<PipelineStats>,
    /// Register allocation (present when pipelined).
    pub regs: Option<RegAllocation>,
    /// The HLO prefetcher's report.
    pub hlo: HloReport,
    /// Total registers the loop occupies (all classes, rotating + static) —
    /// drives the simulator's RSE model and the Sec. 4.5 statistics.
    pub regs_total: u32,
    /// The trip estimate the compiler believed.
    pub trip_estimate: f64,
    /// Final per-load criticality/boost classification (when pipelined).
    pub classification: Option<LoadClassification>,
}

impl CompiledLoop {
    /// Registers used in one class (0 when the acyclic fallback estimated
    /// usage is requested per class — use `regs_total` there).
    pub fn regs_in_class(&self, class: RegClass) -> u32 {
        self.regs.map_or(0, |r| r.total(class))
    }

    /// The latency the final schedule assumed for a load (`None` for
    /// non-loads): the hint-derived expected latency for boosted loads,
    /// the base latency otherwise (and always for the acyclic fallback).
    pub fn scheduled_load_latency_of(&self, machine: &MachineModel, inst: InstId) -> Option<u32> {
        match self.lp.inst(inst).op() {
            Opcode::Load(dc) => {
                let q = self
                    .classification
                    .as_ref()
                    .map_or(LatencyQuery::Base, |c| c.query(inst));
                Some(machine.load_latency(dc, q))
            }
            _ => None,
        }
    }
}

/// Builds the per-load hint function implied by a policy (see
/// [`LatencyPolicy`] and the trip-threshold semantics on
/// [`CompileConfig`]).
fn hint_for_load(
    lp: &LoopIr,
    hlo: &HloReport,
    cfg: &CompileConfig,
    trip_estimate: f64,
    inst: InstId,
) -> Option<LatencyHint> {
    let above_threshold = trip_estimate >= f64::from(cfg.trip_threshold);
    let dc = match lp.inst(inst).op() {
        Opcode::Load(dc) => dc,
        _ => return None,
    };
    // Observed-overlay verdicts (the adaptive refinement loop) override
    // the static policy for covered references and bypass the trip
    // threshold: a measurement is stronger evidence than the static
    // profitability guard (same rationale as MissSampled below).
    if let Some(overlay) = &cfg.observed_overlay {
        if let Some(m) = lp.inst(inst).mem() {
            if let Some(obs) = overlay.get(m) {
                return match obs.hint {
                    ltsp_hlo::ObservedHint::Fast => None,
                    ltsp_hlo::ObservedHint::Level(h) => Some(h),
                };
            }
        }
    }
    match cfg.policy {
        LatencyPolicy::Baseline => None,
        LatencyPolicy::AllLoadsL3 => above_threshold.then_some(LatencyHint::L3),
        LatencyPolicy::AllFpLoadsL2 => {
            (above_threshold && dc == DataClass::Fp).then_some(LatencyHint::L2)
        }
        LatencyPolicy::HloHints => {
            let m = lp.inst(inst).mem()?;
            let decision = hlo.decisions.get(m.index())?;
            if let Some(h) = decision.hint {
                // Heuristic-1 hints (unprefetchable, expected long latency)
                // apply regardless of trip count; others respect the
                // threshold.
                let overrides = decision.reason == Some(HintReason::NotPrefetchable);
                if overrides || above_threshold {
                    return Some(h);
                }
                return None;
            }
            // Default L2 hint for unhinted FP loads.
            (cfg.fp_default_l2 && dc == DataClass::Fp && above_threshold).then_some(LatencyHint::L2)
        }
        LatencyPolicy::MissSampled => {
            // Sampled latencies are direct evidence of exposed misses, so
            // they apply regardless of the trip count (Sec. 3.1: latency
            // information can justify the optimization even in low-trip
            // loops).
            let m = lp.inst(inst).mem()?;
            cfg.miss_profile
                .as_ref()
                .and_then(|p| p.get(m.index()).copied().flatten())
        }
    }
}

/// Samples per-reference miss behaviour by executing the baseline-compiled
/// loop for `sample_entries` entries of `trip` iterations, then derives a
/// latency hint per memory reference: references whose average demand
/// latency reaches the L3 service range get an L3 hint, the L2 range an L2
/// hint, near-hits none. This is the "dynamic cache-miss sampling" oracle
/// of the paper's outlook (Sec. 6).
pub fn sample_miss_hints(
    lp: &LoopIr,
    machine: &MachineModel,
    trip: u64,
    sample_entries: u32,
    stream_mode: ltsp_memsim::StreamMode,
    seed: u64,
) -> Vec<Option<LatencyHint>> {
    let cfg = CompileConfig::new(LatencyPolicy::Baseline);
    let compiled = compile_loop_with_profile(lp, machine, &cfg, trip as f64);
    let mut ex = ltsp_memsim::Executor::new(
        &compiled.lp,
        &compiled.kernel,
        machine,
        compiled.regs_total,
        ltsp_memsim::ExecutorConfig {
            seed,
            stream_mode,
            ..ltsp_memsim::ExecutorConfig::default()
        },
    );
    // Warm up the caches first, then sample steady-state latencies — a
    // sampling profiler sees the whole run, which is dominated by the
    // steady state, not the cold start.
    for _ in 0..sample_entries.max(1) {
        ex.run_entry(trip.max(1));
    }
    ex.reset_ref_stats();
    for _ in 0..sample_entries.max(1) {
        ex.run_entry(trip.max(1));
    }
    let l2_floor = f64::from(machine.caches().l2.best_latency) - 1.0;
    let l3_floor = f64::from(machine.caches().l3.best_latency) + 2.0;
    ex.ref_stats()
        .iter()
        .take(lp.memrefs().len()) // ignore HLO-added refs, none today
        .map(|&(count, lat_sum)| {
            if count == 0 {
                return None;
            }
            let avg = lat_sum as f64 / count as f64;
            if avg >= l3_floor {
                Some(LatencyHint::L3)
            } else if avg >= l2_floor {
                Some(LatencyHint::L2)
            } else {
                None
            }
        })
        .collect()
}

/// Compiles a loop with the configured policy and a default trip estimate.
///
/// Equivalent to [`compile_loop_with_profile`] with the HLO's default
/// trip assumption; use the profile variant when trip information (PGO or
/// static) is available.
pub fn compile_loop(lp: &LoopIr, machine: &MachineModel, cfg: &CompileConfig) -> CompiledLoop {
    compile_loop_with_profile(lp, machine, cfg, cfg.hlo.default_trip_estimate)
}

/// Compiles a loop believing `trip_estimate` iterations per entry.
///
/// Pipeline: (1) the HLO inserts software prefetches and computes latency
/// hints from its heuristics; (2) the policy's hint function is formed,
/// applying the trip-count threshold; (3) the pipeliner runs criticality
/// analysis and latency-tolerant iterative modulo scheduling with the
/// register-allocation fallback ladder; (4) if pipelining is rejected, the
/// loop falls back to an acyclic list schedule (no overlap).
pub fn compile_loop_with_profile(
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    trip_estimate: f64,
) -> CompiledLoop {
    compile_loop_observed(lp, machine, cfg, trip_estimate, Observer::disabled())
}

/// Emits one [`Event::BoostAssigned`] per load the final kernel schedules
/// at a boosted latency: the heuristic that justified the hint, the base
/// and scheduled latencies, the chosen stage count `k = ceil(lat/II)` and
/// the latency tolerance bought, `d = (k−1)·II`.
fn emit_boost_events(
    tel: &Telemetry,
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    hlo: &HloReport,
    cls: &LoadClassification,
    ii: u32,
) {
    let mut boosted = 0u64;
    for inst in lp.insts() {
        let dc = match inst.op() {
            Opcode::Load(dc) => dc,
            _ => continue,
        };
        let query = cls.query(inst.id());
        if query == LatencyQuery::Base {
            continue;
        }
        let base_latency = machine.load_latency(dc, LatencyQuery::Base);
        let scheduled_latency = machine.load_latency(dc, query);
        let ii = ii.max(1);
        let k = scheduled_latency.div_ceil(ii).max(1);
        let heuristic = match cfg.policy {
            LatencyPolicy::MissSampled => "sampled",
            LatencyPolicy::HloHints => inst
                .mem()
                .and_then(|m| hlo.decisions.get(m.index()))
                .and_then(|d| d.reason)
                .map_or("policy", HintReason::id),
            _ => "policy",
        };
        tel.emit(Event::BoostAssigned {
            loop_name: lp.name().to_string(),
            load: format!("i{}", inst.id().index()),
            heuristic,
            base_latency,
            scheduled_latency,
            k,
            boost: (k - 1) * ii,
            ii,
            slack: i64::from(k * ii) - i64::from(scheduled_latency),
        });
        boosted += 1;
    }
    tel.counter_add("compile.boosted_loads", boosted);
}

/// [`compile_loop_with_profile`] reporting to an [`Observer`]. The sink
/// gets the whole decision trail — HLO hint marking, criticality
/// verdicts, scheduling attempts and fallbacks, and an
/// [`Event::BoostAssigned`] per load the kernel schedules at a boosted
/// latency — and each compile phase is timed once: `hlo` here, the
/// pipeliner's `ddg`/`mrt`/`sched`/`regalloc` split inside
/// [`pipeline_loop_observed`]. Observing changes nothing about the result.
pub fn compile_loop_observed(
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    trip_estimate: f64,
    obs: Observer,
) -> CompiledLoop {
    let (tel, name) = (obs.tel, lp.name());
    let mut lp = lp.clone();
    // The observed overlay rides into the prefetcher here (so it can drop
    // observed-redundant prefetches) rather than living in `cfg.hlo`
    // directly — the cache fingerprint then tracks it exactly once, via
    // `CompileConfig::observed_overlay`.
    let hlo_cfg;
    let hlo_cfg = if let Some(ov) = &cfg.observed_overlay {
        hlo_cfg = ltsp_hlo::HloConfig {
            observed: Some(ov.clone()),
            ..cfg.hlo.clone()
        };
        &hlo_cfg
    } else {
        &cfg.hlo
    };
    let hlo = obs.time(Phase::Hlo, name, || {
        run_hlo_observed(&mut lp, machine, Some(trip_estimate), hlo_cfg, obs)
    });

    let hint_fn = |inst: InstId| hint_for_load(&lp, &hlo, cfg, trip_estimate, inst);
    let pipelined = pipeline_loop_observed(&lp, machine, &hint_fn, &cfg.pipeline, obs);
    tel.counter_add("compile.loops", 1);
    match pipelined {
        Ok(p) => {
            let regs_total = p.regs.total(RegClass::Gr)
                + p.regs.total(RegClass::Fr)
                + p.regs.total(RegClass::Pr);
            if tel.is_enabled() {
                emit_boost_events(
                    tel,
                    &lp,
                    machine,
                    cfg,
                    &hlo,
                    &p.classification,
                    p.schedule.ii(),
                );
            }
            CompiledLoop {
                kernel: p.schedule,
                pipelined: true,
                stats: Some(p.stats),
                regs: Some(p.regs),
                hlo,
                regs_total,
                trip_estimate,
                classification: Some(p.classification),
                lp,
            }
        }
        Err(e) => {
            if tel.is_enabled() {
                tel.emit(Event::AcyclicFallback {
                    loop_name: lp.name().to_string(),
                    attempts: e.attempts,
                    min_ii: e.min_ii,
                });
                tel.counter_add("compile.acyclic_fallbacks", 1);
            }
            let regs_total = (lp.vreg_count(RegClass::Gr)
                + lp.vreg_count(RegClass::Fr)
                + lp.vreg_count(RegClass::Pr)) as u32;
            CompiledLoop {
                kernel: e.fallback,
                pipelined: false,
                stats: None,
                regs: None,
                hlo,
                regs_total,
                trip_estimate,
                classification: None,
                lp,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_workloads::{mcf_refresh, motion_search, saxpy, stream_sum};

    fn machine() -> MachineModel {
        MachineModel::itanium2()
    }

    #[test]
    fn baseline_compiles_and_pipelines() {
        let lp = saxpy("s");
        let c = compile_loop(
            &lp,
            &machine(),
            &CompileConfig::new(LatencyPolicy::Baseline),
        );
        assert!(c.pipelined);
        assert!(
            c.hlo.prefetches_inserted > 0,
            "prefetching is on by default"
        );
        assert_eq!(c.stats.unwrap().boosted_loads, 0);
    }

    #[test]
    fn headroom_policy_boosts_everything_above_threshold() {
        let lp = stream_sum("s", DataClass::Int, 256);
        let cfg = CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(32);
        let hi = compile_loop_with_profile(&lp, &machine(), &cfg, 1000.0);
        assert!(hi.stats.unwrap().boosted_loads > 0);
        let lo = compile_loop_with_profile(&lp, &machine(), &cfg, 10.0);
        assert_eq!(
            lo.stats.unwrap().boosted_loads,
            0,
            "below threshold: no boost"
        );
    }

    #[test]
    fn fp_policy_ignores_int_loads() {
        let lp = stream_sum("s", DataClass::Int, 256);
        let cfg = CompileConfig::new(LatencyPolicy::AllFpLoadsL2);
        let c = compile_loop_with_profile(&lp, &machine(), &cfg, 1000.0);
        assert_eq!(c.stats.unwrap().boosted_loads, 0);
        let lp_fp = stream_sum("s", DataClass::Fp, 256);
        let c_fp = compile_loop_with_profile(&lp_fp, &machine(), &cfg, 1000.0);
        assert!(c_fp.stats.unwrap().boosted_loads > 0);
    }

    #[test]
    fn hlo_hints_override_threshold_for_unprefetchable_loads() {
        // mcf's refresh_potential: trip 2.3 << 32, but the chase fields are
        // NotPrefetchable -> still boosted (the Sec. 4.4 scenario).
        let lp = mcf_refresh("rp", 1 << 25);
        let cfg = CompileConfig::new(LatencyPolicy::HloHints).with_threshold(32);
        let c = compile_loop_with_profile(&lp, &machine(), &cfg, 2.3);
        let stats = c.stats.unwrap();
        assert!(
            stats.boosted_loads >= 2,
            "delinquent fields boosted despite trip 2.3: {stats:?}"
        );
        assert!(stats.critical_loads >= 1, "the chase stays critical");
    }

    #[test]
    fn hlo_hints_respect_threshold_for_prefetchable_loads() {
        // h264ref motion search: prefetchable int loads, trip 10 < 32:
        // nothing boosted under HLO hints.
        let lp = motion_search("ms");
        let cfg = CompileConfig::new(LatencyPolicy::HloHints).with_threshold(32);
        let c = compile_loop_with_profile(&lp, &machine(), &cfg, 10.0);
        assert_eq!(c.stats.unwrap().boosted_loads, 0);
        // Headroom with no threshold boosts them.
        let cfg0 = CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0);
        let c0 = compile_loop_with_profile(&lp, &machine(), &cfg0, 10.0);
        assert!(c0.stats.unwrap().boosted_loads > 0);
    }

    #[test]
    fn prefetch_disable_grows_hint_surface() {
        let lp = saxpy("s");
        let cfg_on = CompileConfig::new(LatencyPolicy::HloHints);
        let cfg_off = cfg_on.clone().with_prefetch(false);
        let on = compile_loop_with_profile(&lp, &machine(), &cfg_on, 1000.0);
        let off = compile_loop_with_profile(&lp, &machine(), &cfg_off, 1000.0);
        assert!(off.hlo.prefetches_inserted == 0);
        assert!(on.hlo.prefetches_inserted > 0);
        // Boost count under the default FP L2 rider stays >= on's.
        assert!(off.stats.unwrap().boosted_loads >= on.stats.unwrap().boosted_loads);
    }

    #[test]
    fn fallback_produces_single_stage() {
        // A loop that cannot pipeline within the II budget: huge RecMII vs
        // tiny register file is hard to construct; instead force a tiny
        // max II window on a recurrence-heavy loop.
        let lp = mcf_refresh("rp", 1 << 25);
        let mut cfg = CompileConfig::new(LatencyPolicy::Baseline);
        cfg.pipeline.max_ii_slack = 0;
        cfg.pipeline.budget_factor = 1;
        let c = compile_loop(&lp, &machine(), &cfg);
        if !c.pipelined {
            assert_eq!(c.kernel.stage_count(), 1);
        }
        // Either way the kernel is executable.
        assert!(c.kernel.ii() >= 1);
    }
}
