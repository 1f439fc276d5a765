//! The top-level pipelining driver with the paper's fallback ladder.

use std::error::Error;
use std::fmt;

use ltsp_ddg::Ddg;
use ltsp_ir::{InstId, LatencyHint, LoopIr, Opcode, RegClass};
use ltsp_machine::{LatencyQuery, MachineModel};

use ltsp_telemetry::{Event, Observer, Phase};

use crate::criticality::{classify_loads_observed, LoadClass, LoadClassification};
use crate::regalloc::{allocate_rotating, overflow, register_floor, RegAllocError, RegAllocation};
use crate::schedule::ModuloSchedule;
use crate::scheduler::{acyclic_schedule, ModuloScheduler};

/// Tunables for the pipelining driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Eviction budget per scheduling attempt, as a multiple of the number
    /// of instructions.
    pub budget_factor: u32,
    /// Cap on enumerated recurrence cycles during criticality analysis.
    pub cycle_cap: usize,
    /// How far above Min II the driver escalates before declaring
    /// pipelining unprofitable.
    pub max_ii_slack: u32,
    /// Enable the balanced-recurrence extension: distribute a violating
    /// cycle's slack among its loads (partial boosts) instead of marking
    /// them all critical. Off by default (the paper's algorithm).
    pub balance_cycle_slack: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            budget_factor: 8,
            cycle_cap: 10_000,
            max_ii_slack: 16,
            balance_cycle_slack: false,
        }
    }
}

/// Statistics of one pipelining run (feeds the paper's Sec. 3.3/4.5
/// numbers: extra scheduling attempts, register usage, boosts applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Resource II lower bound.
    pub res_mii: u32,
    /// Recurrence II lower bound (base latencies).
    pub rec_mii: u32,
    /// `max(res_mii, rec_mii)`.
    pub min_ii: u32,
    /// Modulo-scheduling attempts performed: `schedule_at` calls actually
    /// made (each II × latency setting). Rungs the register floor ruled
    /// out without scheduling are not counted.
    pub schedule_attempts: u32,
    /// True when register allocation forced the driver to drop the
    /// latency boosts (first rung of the fallback ladder).
    pub dropped_boosts: bool,
    /// Loads scheduled at a boosted latency in the final schedule.
    pub boosted_loads: usize,
    /// Loads marked critical by the recurrence analysis.
    pub critical_loads: usize,
}

/// A successfully pipelined loop.
#[derive(Debug, Clone)]
pub struct PipelinedLoop {
    /// The kernel schedule.
    pub schedule: ModuloSchedule,
    /// Rotating/static register usage.
    pub regs: RegAllocation,
    /// Final per-load classification (reflects any dropped boosts).
    pub classification: LoadClassification,
    /// Run statistics.
    pub stats: PipelineStats,
}

/// Pipelining was rejected; the caller should fall back to the acyclic
/// schedule, which the driver already built for its profitability ceiling
/// and hands over here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// `schedule_at` calls actually made before giving up: 0 when the
    /// register floor rejected the loop before the ladder.
    pub attempts: u32,
    /// The Min II that could not be realized within the II budget.
    pub min_ii: u32,
    /// The [`acyclic_schedule`] of the loop on its base-latency graph.
    pub fallback: ModuloSchedule,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipelining unprofitable after {} attempts from Min II {}",
            self.attempts, self.min_ii
        )
    }
}

impl Error for PipelineError {}

fn build_ddg<'a>(
    lp: &'a LoopIr,
    machine: &'a MachineModel,
    query: impl Fn(InstId) -> LatencyQuery + 'a,
) -> Ddg {
    Ddg::build(lp, machine, &move |id| {
        if let Opcode::Load(dc) = lp.inst(id).op() {
            machine.load_latency(dc, query(id))
        } else {
            0
        }
    })
}

/// Pipelines a loop with latency-tolerant scheduling (paper Sec. 3.3).
///
/// `hint_of` supplies the expected-latency hint per load under the active
/// policy (HLO hints, blanket settings, or none for the baseline).
///
/// Procedure:
/// 1. Resource II and base-latency Recurrence II give Min II; the acyclic
///    schedule length caps the II budget.
/// 2. The [`register_floor`] of the base graph rejects the loop outright
///    when it exceeds the rotating supply even at the largest II in the
///    budget.
/// 3. Criticality analysis decides which loads may be boosted.
/// 4. Modulo scheduling runs at increasing II; after each successful
///    schedule, rotating register allocation is attempted.
/// 5. On allocation failure the boosts are dropped at the same II; if that
///    also fails the II is escalated with boosts kept off, matching the
///    paper's ladder ("first reduce the non-critical load latencies …,
///    then continue to iterate at successively higher IIs").
///
/// The ladder is only walked where some rung can allocate: step 2 refuses
/// a loop no rung could allocate, and the base-latency phase starts at the
/// first II whose floor fits. Both give the result the full ladder would
/// have reached.
///
/// # Errors
///
/// [`PipelineError`] when no schedule within `min_ii + max_ii_slack` (also
/// capped at the acyclic schedule length) both schedules and allocates.
///
/// # Example
///
/// ```
/// use ltsp_ir::{DataClass, LatencyHint, LoopBuilder};
/// use ltsp_machine::MachineModel;
/// use ltsp_pipeliner::{pipeline_loop, PipelineOptions};
///
/// let mut b = LoopBuilder::new("ex");
/// let src = b.affine_ref("src", DataClass::Int, 0, 4, 4);
/// let dst = b.affine_ref("dst", DataClass::Int, 1 << 20, 4, 4);
/// let c = b.live_in_gr("c");
/// let v = b.load(src);
/// let s = b.add(v, c);
/// b.store(dst, s);
/// let lp = b.build()?;
///
/// let m = MachineModel::itanium2();
/// // Blanket L3 hints: the load is non-critical, so the II stays at 1
/// // and latency-buffer stages absorb the scheduled latency (Fig. 4).
/// let p = pipeline_loop(&lp, &m, &|_| Some(LatencyHint::L3), &PipelineOptions::default())
///     .expect("pipelines");
/// assert_eq!(p.schedule.ii(), 1);
/// assert_eq!(p.stats.boosted_loads, 1);
/// assert!(p.schedule.stage_count() > 3);
/// # Ok::<(), ltsp_ir::IrError>(())
/// ```
pub fn pipeline_loop(
    lp: &LoopIr,
    machine: &MachineModel,
    hint_of: &dyn Fn(InstId) -> Option<LatencyHint>,
    opts: &PipelineOptions,
) -> Result<PipelinedLoop, PipelineError> {
    pipeline_loop_observed(lp, machine, hint_of, opts, Observer::disabled())
}

fn failure_outcome(f: &crate::scheduler::ScheduleFailure) -> &'static str {
    match f {
        crate::scheduler::ScheduleFailure::InfeasibleIi => "infeasible",
        crate::scheduler::ScheduleFailure::BudgetExhausted => "budget-exhausted",
    }
}

fn class_name(c: RegClass) -> &'static str {
    match c {
        RegClass::Gr => "GR",
        RegClass::Fr => "FR",
        RegClass::Pr => "PR",
    }
}

/// The first class whose [`register_floor`] at `ii` exceeds the rotating
/// supply: no schedule at `ii`, boosted or not, can allocate.
fn floor_overflow(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg_base: &Ddg,
    ii: u32,
) -> Option<RegAllocError> {
    overflow(register_floor(lp, ddg_base, ii), machine)
}

/// [`pipeline_loop`] reporting to an [`Observer`]. The sink gets the
/// driver's decision trail: per-load criticality verdicts, every
/// scheduling attempt with its outcome, II escalations, and the
/// register-pressure fallbacks of the ladder. Each region is timed once
/// ([`Observer::time`]) as one of four phases: DDG construction and MII
/// analysis (`ddg`), criticality classification and the acyclic
/// profitability ceiling (`mrt`), every modulo-scheduling attempt across
/// II escalations (`sched`), and rotating register allocation and the
/// register floor (`regalloc`).
///
/// The register floor is checked before criticality. A loop it refuses is
/// classified only when the sink is enabled, so that the trail still shows
/// the loop's cycle enumeration and verdicts before its `reject-floor`
/// fallback; with a disabled sink (a timer alone included) the refusal
/// skips the analysis. Results are identical with or without a timer or an
/// enabled sink.
pub fn pipeline_loop_observed(
    lp: &LoopIr,
    machine: &MachineModel,
    hint_of: &dyn Fn(InstId) -> Option<LatencyHint>,
    opts: &PipelineOptions,
    obs: Observer,
) -> Result<PipelinedLoop, PipelineError> {
    let (tel, name) = (obs.tel, lp.name());
    let (ddg_base, res_mii, rec_mii) = obs.time(Phase::Ddg, name, || {
        let ddg_base = Ddg::build_with_load_floor(lp, machine, 0);
        let rec_mii = ddg_base.rec_mii();
        (ddg_base, machine.res_mii(lp), rec_mii)
    });
    let min_ii = res_mii.max(rec_mii);

    // Profitability ceiling: beyond the acyclic schedule length, the global
    // code scheduler does at least as well without pipelining overhead.
    let acyclic = obs.time(Phase::Mrt, name, || {
        acyclic_schedule(lp, machine, &ddg_base)
    });
    let max_ii = (min_ii + opts.max_ii_slack).min(acyclic.ii().max(min_ii));
    // On rejection the caller runs that acyclic schedule.
    let reject = |attempts: u32| {
        if tel.is_enabled() {
            tel.counter_add("pipeliner.schedule_attempts", u64::from(attempts));
            tel.counter_add("pipeliner.loops_rejected", 1);
        }
        PipelineError {
            attempts,
            min_ii,
            fallback: acyclic,
        }
    };
    let classify = || {
        obs.time(Phase::Mrt, name, || {
            classify_loads_observed(
                lp,
                machine,
                &ddg_base,
                hint_of,
                opts.cycle_cap,
                opts.balance_cycle_slack,
                min_ii,
                obs,
            )
        })
    };

    // Register floor: the floor never rises with the II, so a loop over
    // the supply at `max_ii` fails allocation on every rung of both phases.
    // Its loads' classes cannot change that answer, so they are only
    // worked out when a sink records the verdicts.
    if let Some(e) = obs.time(Phase::Regalloc, name, || {
        floor_overflow(lp, machine, &ddg_base, max_ii)
    }) {
        if tel.is_enabled() {
            classify();
            tel.emit(Event::RegallocFallback {
                loop_name: lp.name().to_string(),
                ii: max_ii,
                class: class_name(e.class),
                needed: e.needed,
                available: e.available,
                action: "reject-floor",
            });
            tel.counter_add("pipeliner.floor_rejections", 1);
        }
        return Err(reject(0));
    }

    let cls = classify();
    let critical_loads = lp
        .insts()
        .iter()
        .filter(|i| cls.class(i.id()) == Some(LoadClass::Critical))
        .count();

    let mut attempts = 0u32;
    let mut stats = PipelineStats {
        res_mii,
        rec_mii,
        min_ii,
        schedule_attempts: 0,
        dropped_boosts: false,
        boosted_loads: cls.boosted_count(),
        critical_loads,
    };

    let mut base_phase_start = min_ii;
    if cls.boosted_count() > 0 {
        let ddg_boosted = obs.time(Phase::Ddg, name, || {
            build_ddg(lp, machine, |id| cls.query(id))
        });
        let scheduler = ModuloScheduler::new(lp, machine, &ddg_boosted);
        let mut alloc_failed_at: Option<u32> = None;
        let base_scheduler = ModuloScheduler::new(lp, machine, &ddg_base);
        let mut failed_ii: Option<u32> = None;
        for ii in min_ii..=max_ii {
            if let Some(from_ii) = failed_ii {
                if tel.is_enabled() {
                    tel.emit(Event::IiEscalation {
                        loop_name: lp.name().to_string(),
                        from_ii,
                        to_ii: ii,
                        phase: "boosted",
                    });
                }
            }
            attempts += 1;
            let sched = match obs.time(Phase::Sched, name, || {
                scheduler.schedule_at(ii, opts.budget_factor)
            }) {
                Ok(sched) => {
                    if tel.is_enabled() {
                        tel.emit(Event::ScheduleAttempt {
                            loop_name: lp.name().to_string(),
                            ii,
                            latencies: "boosted",
                            outcome: "scheduled",
                        });
                    }
                    sched
                }
                Err(fail) => {
                    if tel.is_enabled() {
                        tel.emit(Event::ScheduleAttempt {
                            loop_name: lp.name().to_string(),
                            ii,
                            latencies: "boosted",
                            outcome: failure_outcome(&fail),
                        });
                    }
                    // The boosted problem is harder to place; if the *base*
                    // latencies schedule at this II, escalating would trade a
                    // permanently higher II for the boosts — containment says
                    // drop the boosts instead.
                    attempts += 1;
                    let base_res = obs.time(Phase::Sched, name, || {
                        base_scheduler.schedule_at(ii, opts.budget_factor)
                    });
                    if tel.is_enabled() {
                        tel.emit(Event::ScheduleAttempt {
                            loop_name: lp.name().to_string(),
                            ii,
                            latencies: "base",
                            outcome: base_res
                                .as_ref()
                                .map_or_else(failure_outcome, |_| "scheduled"),
                        });
                    }
                    if base_res.is_ok() {
                        tel.info(format!(
                            "{}: boosted latencies unschedulable at II {ii} but base \
                             latencies fit: dropping boosts",
                            lp.name()
                        ));
                        alloc_failed_at = Some(ii);
                        break;
                    }
                    failed_ii = Some(ii);
                    continue;
                }
            };
            match obs.time(Phase::Regalloc, name, || {
                allocate_rotating(lp, &sched, machine)
            }) {
                Ok(regs) => {
                    stats.schedule_attempts = attempts;
                    if tel.is_enabled() {
                        tel.counter_add("pipeliner.schedule_attempts", u64::from(attempts));
                        tel.counter_add("pipeliner.loops_pipelined", 1);
                    }
                    return Ok(PipelinedLoop {
                        schedule: sched,
                        regs,
                        classification: cls,
                        stats,
                    });
                }
                Err(e) => {
                    // First rung of the ladder: drop boosts at this II.
                    if tel.is_enabled() {
                        tel.emit(Event::RegallocFallback {
                            loop_name: lp.name().to_string(),
                            ii,
                            class: class_name(e.class),
                            needed: e.needed,
                            available: e.available,
                            action: "drop-boosts",
                        });
                    }
                    alloc_failed_at = Some(ii);
                    break;
                }
            }
        }
        base_phase_start = alloc_failed_at.unwrap_or(min_ii);
        stats.dropped_boosts = true;
        stats.boosted_loads = 0;
    }

    // Base-latency phase (also the whole procedure when nothing is
    // boosted). Rungs whose floor exceeds the supply end in escalation
    // whether they schedule or not, so the phase starts past them. (The
    // boosted phase keeps every rung: whether one schedules decides where
    // the boosts are dropped.)
    let last_over = obs.time(Phase::Regalloc, name, || {
        (base_phase_start..max_ii)
            .map_while(|ii| floor_overflow(lp, machine, &ddg_base, ii))
            .enumerate()
            .last()
    });
    let first_ii = base_phase_start + last_over.map_or(0, |(k, _)| k as u32 + 1);
    if let (Some((_, e)), true) = (last_over, tel.is_enabled()) {
        tel.emit(Event::RegallocFallback {
            loop_name: lp.name().to_string(),
            ii: first_ii - 1,
            class: class_name(e.class),
            needed: e.needed,
            available: e.available,
            action: "skip-floor",
        });
        tel.emit(Event::IiEscalation {
            loop_name: lp.name().to_string(),
            from_ii: base_phase_start,
            to_ii: first_ii,
            phase: "base",
        });
    }
    let scheduler = ModuloScheduler::new(lp, machine, &ddg_base);
    let mut failed_ii: Option<u32> = None;
    for ii in first_ii..=max_ii {
        if let Some(from_ii) = failed_ii {
            if tel.is_enabled() {
                tel.emit(Event::IiEscalation {
                    loop_name: lp.name().to_string(),
                    from_ii,
                    to_ii: ii,
                    phase: "base",
                });
            }
        }
        attempts += 1;
        let sched = match obs.time(Phase::Sched, name, || {
            scheduler.schedule_at(ii, opts.budget_factor)
        }) {
            Ok(sched) => {
                if tel.is_enabled() {
                    tel.emit(Event::ScheduleAttempt {
                        loop_name: lp.name().to_string(),
                        ii,
                        latencies: "base",
                        outcome: "scheduled",
                    });
                }
                sched
            }
            Err(fail) => {
                if tel.is_enabled() {
                    tel.emit(Event::ScheduleAttempt {
                        loop_name: lp.name().to_string(),
                        ii,
                        latencies: "base",
                        outcome: failure_outcome(&fail),
                    });
                }
                failed_ii = Some(ii);
                continue;
            }
        };
        match obs.time(Phase::Regalloc, name, || {
            allocate_rotating(lp, &sched, machine)
        }) {
            Ok(regs) => {
                stats.schedule_attempts = attempts;
                if tel.is_enabled() {
                    tel.counter_add("pipeliner.schedule_attempts", u64::from(attempts));
                    tel.counter_add("pipeliner.loops_pipelined", 1);
                }
                let classification = if stats.dropped_boosts {
                    LoadClassification::all_base(lp)
                } else {
                    cls
                };
                return Ok(PipelinedLoop {
                    schedule: sched,
                    regs,
                    classification,
                    stats,
                });
            }
            Err(e) => {
                if tel.is_enabled() {
                    tel.emit(Event::RegallocFallback {
                        loop_name: lp.name().to_string(),
                        ii,
                        class: class_name(e.class),
                        needed: e.needed,
                        available: e.available,
                        action: "escalate-ii",
                    });
                }
                failed_ii = Some(ii);
            }
        }
    }

    Err(reject(attempts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_telemetry::Telemetry;

    /// The latency the kernel assumed for load `inst`.
    fn load_latency_of(p: &PipelinedLoop, lp: &LoopIr, m: &MachineModel, inst: InstId) -> u32 {
        let Opcode::Load(dc) = lp.inst(inst).op() else {
            panic!("{inst:?} is not a load");
        };
        m.load_latency(dc, p.classification.query(inst))
    }

    fn running_example() -> LoopIr {
        let mut b = LoopBuilder::new("ex");
        let s = b.affine_ref("s", DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("d", DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        b.build().unwrap()
    }

    #[test]
    fn baseline_pipelines_running_example() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        assert_eq!(p.schedule.ii(), 1);
        assert_eq!(p.schedule.stage_count(), 3);
        assert_eq!(p.stats.boosted_loads, 0);
        assert!(!p.stats.dropped_boosts);
    }

    #[test]
    fn l3_hint_grows_stages_at_same_ii() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let base = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let boosted = pipeline_loop(
            &lp,
            &m,
            &|_| Some(LatencyHint::L3),
            &PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(base.schedule.ii(), boosted.schedule.ii(), "II unchanged");
        assert!(boosted.schedule.stage_count() > base.schedule.stage_count());
        assert_eq!(boosted.stats.boosted_loads, 1);
        // The load is scheduled at the typical L3 latency.
        assert_eq!(load_latency_of(&boosted, &lp, &m, InstId(0)), 21);
        assert_eq!(load_latency_of(&base, &lp, &m, InstId(0)), 1);
    }

    #[test]
    fn chase_loop_keeps_chase_at_base() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mcf");
        let node = b.chase_ref("node->child", 0, 64, 1 << 22, 0.1);
        let fld = b.deref_ref("node->f", DataClass::Int, node, 8, 1 << 22, 8);
        let _nv = b.load(node);
        let fv = b.load(fld);
        let _acc = b.add_reduce(fv);
        let lp = b.build().unwrap();
        let p = pipeline_loop(
            &lp,
            &m,
            &|_| Some(LatencyHint::L3),
            &PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(p.stats.critical_loads, 1);
        assert_eq!(p.stats.boosted_loads, 1);
        assert_eq!(load_latency_of(&p, &lp, &m, InstId(0)), 1);
        assert_eq!(load_latency_of(&p, &lp, &m, InstId(1)), 21);
        assert_eq!(p.schedule.ii(), 1, "II survives the boost");
    }

    /// Four FP loads summed into a store: five memory ops give ResMII 3,
    /// where the loop's seven FP values need at least 18 registers (four
    /// 6-cycle loads at 3 each, three 4-cycle adds at 2 each).
    fn wide_fp_loop() -> LoopIr {
        let mut b = LoopBuilder::new("wide");
        let mut vals = Vec::new();
        for k in 0..4u64 {
            let x = b.affine_ref(&format!("x{k}"), DataClass::Fp, k << 24, 8, 8);
            vals.push(b.load(x));
        }
        let mut acc = b.fadd(vals[0], vals[1]);
        acc = b.fadd(acc, vals[2]);
        acc = b.fadd(acc, vals[3]);
        let y = b.affine_ref("y", DataClass::Fp, 9 << 24, 8, 8);
        b.store(y, acc);
        b.build().unwrap()
    }

    fn machine_with_fr(rotating_fr: u32) -> MachineModel {
        let m = MachineModel::itanium2();
        MachineModel::new(
            *m.issue(),
            *m.latencies(),
            *m.caches(),
            ltsp_machine::RegisterFiles {
                rotating_fr,
                ..*m.registers()
            },
        )
    }

    #[test]
    fn register_overflow_drops_boosts() {
        // Blanket L3 boosting makes each load value live ~22 cycles: at
        // II 3 that is 4 * (22/3 + 1) = 32 FP registers, which fits the
        // real file; a 16-register one forces the ladder.
        let p = pipeline_loop(
            &wide_fp_loop(),
            &machine_with_fr(16),
            &|_| Some(LatencyHint::L3),
            &PipelineOptions::default(),
        )
        .unwrap();
        assert!(p.stats.dropped_boosts, "ladder must drop the boosts");
        assert_eq!(p.stats.boosted_loads, 0);
        // Boosted at II 3, then base at II 4 and 5: the floor of 18 rules
        // the base rung at II 3 out without scheduling it.
        assert_eq!(p.stats.schedule_attempts, 3);
        assert_eq!(p.schedule.ii(), 5);
    }

    #[test]
    fn telemetry_records_fallback_ladder() {
        // Same setup as `register_overflow_drops_boosts`.
        let (lp, tight) = (wide_fp_loop(), machine_with_fr(16));
        let tel = Telemetry::enabled();
        let p = pipeline_loop_observed(
            &lp,
            &tight,
            &|_| Some(LatencyHint::L3),
            &PipelineOptions::default(),
            Observer::new(&tel, None),
        )
        .unwrap();
        assert!(p.stats.dropped_boosts);

        let events = tel.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"cycle_enumeration"));
        // One criticality verdict per load.
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == "criticality_verdict")
                .count(),
            4
        );
        // The ladder, rung by rung with its reasons: the boosted schedule
        // at II 3 does not allocate, no schedule at II 3 can, the base one
        // at II 4 does not, the one at II 5 does.
        let ladder: Vec<String> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event.kind(),
                    "schedule_attempt" | "regalloc_fallback" | "ii_escalation"
                )
            })
            .map(|e| e.event.render_human())
            .collect();
        assert_eq!(
            ladder,
            [
                "schedule wide: II=3 (boosted latencies) -> scheduled",
                "regalloc wide: II=3 needs 41 FR regs (have 16) -> drop-boosts",
                "regalloc wide: II=3 needs at least 18 FR regs (have 16) -> skip-floor",
                "escalate wide: II 3 -> 4 (base phase)",
                "schedule wide: II=4 (base latencies) -> scheduled",
                "regalloc wide: II=4 needs 17 FR regs (have 16) -> escalate-ii",
                "escalate wide: II 4 -> 5 (base phase)",
                "schedule wide: II=5 (base latencies) -> scheduled",
            ]
        );
        assert_eq!(tel.metrics().counter("pipeliner.schedule_attempts"), 3);
        assert_eq!(tel.metrics().counter("pipeliner.floor_rejections"), 0);
        // The trace is observational: the same compilation with telemetry
        // disabled produces an identical schedule.
        let silent = pipeline_loop(
            &lp,
            &tight,
            &|_| Some(LatencyHint::L3),
            &PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(silent.schedule, p.schedule);
        assert_eq!(silent.stats, p.stats);
    }

    #[test]
    fn floor_rejection_walks_no_ladder() {
        // Seven FP values can never share six registers, at any II.
        let (lp, starved) = (wide_fp_loop(), machine_with_fr(6));
        let tel = Telemetry::enabled();
        let e = pipeline_loop_observed(
            &lp,
            &starved,
            &|_| Some(LatencyHint::L3),
            &PipelineOptions::default(),
            Observer::new(&tel, None),
        )
        .unwrap_err();
        assert_eq!((e.attempts, e.min_ii), (0, 3));
        let ddg = Ddg::build_with_load_floor(&lp, &starved, 0);
        assert_eq!(e.fallback, acyclic_schedule(&lp, &starved, &ddg));
        assert!(!tel
            .events()
            .iter()
            .any(|e| e.event.kind() == "schedule_attempt"));
        let reason = tel
            .events()
            .iter()
            .find(|e| e.event.kind() == "regalloc_fallback")
            .map(|e| e.event.render_human())
            .unwrap();
        assert!(
            reason.contains("needs at least 7 FR regs (have 6) -> reject-floor"),
            "{reason}"
        );
        let m = tel.metrics();
        assert_eq!(m.counter("pipeliner.floor_rejections"), 1);
        assert_eq!(m.counter("pipeliner.loops_rejected"), 1);
        assert_eq!(m.counter("pipeliner.schedule_attempts"), 0);
        // With one register more the floor fits at the top of the budget
        // and the ladder is walked again.
        let p = pipeline_loop(
            &lp,
            &machine_with_fr(7),
            &|_| None,
            &PipelineOptions::default(),
        );
        assert!(p.is_ok_and(|p| p.regs.rotating_fr == 7));
    }

    #[test]
    fn floor_rejection_classifies_only_for_a_listening_sink() {
        // The `floor_rejection_walks_no_ladder` loop: refused by the floor.
        use std::cell::Cell;
        let (lp, starved) = (wide_fp_loop(), machine_with_fr(6));
        let asked = Cell::new(0u32);
        let hint_of = |_: InstId| {
            asked.set(asked.get() + 1);
            Some(LatencyHint::L3)
        };
        let opts = PipelineOptions::default();
        let compile = |obs: Observer| pipeline_loop_observed(&lp, &starved, &hint_of, &opts, obs);

        let silent = compile(Observer::disabled()).unwrap_err();
        assert_eq!(asked.get(), 0, "a disabled sink skips the analysis");
        let timer = ltsp_telemetry::PhaseTimer::new();
        let timed = compile(Observer::new(&Telemetry::disabled(), Some(&timer))).unwrap_err();
        assert_eq!(asked.get(), 0, "a timer alone skips the analysis");
        let tel = Telemetry::enabled();
        let traced = compile(Observer::new(&tel, None)).unwrap_err();
        assert!(asked.get() > 0, "an enabled sink records the verdicts");
        assert_eq!(silent, timed);
        assert_eq!(silent, traced);
        let kinds: Vec<&str> = tel.events().iter().map(|e| e.event.kind()).collect();
        let verdict = kinds.iter().position(|k| *k == "criticality_verdict");
        let refusal = kinds.iter().position(|k| *k == "regalloc_fallback");
        assert!(verdict.is_some_and(|v| Some(v) < refusal), "{kinds:?}");
    }

    #[test]
    fn memory_recurrences_bound_the_ii() {
        use ltsp_ir::MemDepKind;
        let m = MachineModel::itanium2();
        // a[i] = c * a[i-1] + b[i], carried through memory.
        let mut b = LoopBuilder::new("iir");
        let a_prev = b.affine_ref("a[i-1]", DataClass::Fp, 0, 8, 8);
        let bb = b.affine_ref("b[i]", DataClass::Fp, 1 << 24, 8, 8);
        let a_out = b.affine_ref("a[i]", DataClass::Fp, 8, 8, 8);
        let c = b.live_in_fr("c");
        let va = b.load(a_prev);
        let vb = b.load(bb);
        let r = b.fma(c, va, vb);
        let st = b.store(a_out, r);
        b.mem_dep(st, ltsp_ir::InstId(0), MemDepKind::Flow, 1);
        let lp = b.build().unwrap();

        let plain = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        // Cycle: st -> ld (1) + ld data (6) + fma (4) = 11 per iteration.
        assert_eq!(plain.stats.rec_mii, 11);
        assert_eq!(plain.schedule.ii(), 11);
    }

    #[test]
    fn stats_expose_min_ii_components() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd_reduce(v);
        let lp = b.build().unwrap();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        assert_eq!(p.stats.rec_mii, 4);
        assert_eq!(p.stats.res_mii, 1);
        assert_eq!(p.stats.min_ii, 4);
        assert_eq!(p.schedule.ii(), 4);
    }
}
