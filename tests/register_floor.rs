//! The register floor prunes the fallback ladder; these tests show it can
//! only prune what could never have allocated.
//!
//! - Soundness: on every schedule `schedule_at` produces, base or
//!   boosted, the floor computed from the *base* graph is at most what
//!   `allocate_rotating` charges.
//! - Differential: `pipeline_loop` answers exactly what an unpruned
//!   reference ladder — written here from the public scheduler and
//!   allocator, with no floor — answers, apart from the attempt count.
//! - Emission: what the ladder accepts can be named; every pipelined
//!   compile of the grid emits a kernel whose header states the reported
//!   counts, and the validator certifies its names.

use ltsp::core::{compile_loop, CompileConfig, LatencyPolicy};
use ltsp::ddg::Ddg;
use ltsp::hlo::{run_hlo, HloConfig};
use ltsp::ir::{
    AccessPattern, DataClass, Inst, InstId, LatencyHint, LoopBuilder, LoopIr, MemDep, MemDepKind,
    MemRefId, MemoryRef, Opcode, RegClass, SrcOperand, VReg,
};
use ltsp::machine::{MachineModel, RegisterFiles};
use ltsp::oracle::validate_schedule;
use ltsp::pipeliner::{
    acyclic_schedule, allocate_rotating, assign_registers, classify_loads, classify_loads_observed,
    emit_kernel, pipeline_loop_observed, register_floor, LoadClassification, ModuloSchedule,
    ModuloScheduler, PipelineOptions, RegAllocation,
};
use ltsp::telemetry::{Event, Observer, Telemetry};
use ltsp::workloads::{kernel_library, random_loop, scheduling_heavy};

/// Itanium 2 with a smaller rotating FP file.
fn machine_with_fr(rotating_fr: u32) -> MachineModel {
    let m = MachineModel::itanium2();
    MachineModel::new(
        *m.issue(),
        *m.latencies(),
        *m.caches(),
        RegisterFiles {
            rotating_fr,
            ..*m.registers()
        },
    )
}

/// The `register_overflow_drops_boosts` machine: 16 rotating FP registers.
fn tight_machine() -> MachineModel {
    machine_with_fr(16)
}

/// The four latency policies as hint functions over a post-HLO body:
/// none, every load L3, FP loads L2, and the hints the HLO attached.
const POLICIES: [&str; 4] = ["baseline", "all-loads-L3", "all-fp-L2", "hlo-hints"];

fn hint(lp: &LoopIr, policy: &str, inst: InstId) -> Option<LatencyHint> {
    let Opcode::Load(dc) = lp.inst(inst).op() else {
        return None;
    };
    match policy {
        "all-loads-L3" => Some(LatencyHint::L3),
        "all-fp-L2" => (dc == DataClass::Fp).then_some(LatencyHint::L2),
        "hlo-hints" => lp.memref(lp.inst(inst).mem()?).hint(),
        _ => None,
    }
}

fn after_hlo(lp: &LoopIr, machine: &MachineModel) -> LoopIr {
    let mut body = lp.clone();
    run_hlo(&mut body, machine, Some(1000.0), &HloConfig::default());
    body
}

fn graph_for(lp: &LoopIr, machine: &MachineModel, cls: &LoadClassification) -> Ddg {
    Ddg::build(lp, machine, &|id| match lp.inst(id).op() {
        Opcode::Load(dc) => machine.load_latency(dc, cls.query(id)),
        _ => 0,
    })
}

#[test]
fn floor_never_exceeds_what_allocation_charges() {
    let machine = tight_machine();
    let (mut schedules, mut overflows) = (0, 0);
    for seed in 0..150 {
        let lp = after_hlo(&random_loop(seed), &machine);
        let base = Ddg::build_with_load_floor(&lp, &machine, 0);
        let min_ii = machine.res_mii(&lp).max(base.rec_mii());
        for policy in POLICIES {
            let cls = classify_loads(&lp, &machine, &base, &|id| hint(&lp, policy, id), 10_000);
            let boosted = graph_for(&lp, &machine, &cls);
            let scheduler = ModuloScheduler::new(&lp, &machine, &boosted);
            let mut previous = [u32::MAX; 3];
            for ii in min_ii..=min_ii + 16 {
                // The driver evaluates the floor on the base graph even
                // where it allocates a boosted schedule.
                let floor = register_floor(&lp, &base, ii);
                for k in 0..3 {
                    assert!(floor[k] <= previous[k], "floor rose with the II");
                }
                previous = floor;
                let Ok(sched) = scheduler.schedule_at(ii, 8) else {
                    continue;
                };
                schedules += 1;
                match allocate_rotating(&lp, &sched, &machine) {
                    Ok(regs) => {
                        for (k, class) in RegClass::ALL.into_iter().enumerate() {
                            assert!(
                                floor[k] <= regs.rotating(class),
                                "{} {policy} II {ii}: {class} floor {} > used {}",
                                lp.name(),
                                floor[k],
                                regs.rotating(class)
                            );
                        }
                    }
                    Err(e) => {
                        overflows += 1;
                        assert!(
                            floor[e.class as usize] <= e.needed,
                            "{} {policy} II {ii}: {} floor {} > needed {}",
                            lp.name(),
                            e.class,
                            floor[e.class as usize],
                            e.needed
                        );
                    }
                }
            }
        }
    }
    assert!(schedules > 5_000, "only {schedules} schedules checked");
    assert!(
        overflows > 50,
        "only {overflows} failed allocations checked"
    );
}

/// What a compile answers, attempt counts aside.
#[derive(Debug, PartialEq)]
enum Answer {
    Pipelined {
        schedule: ModuloSchedule,
        regs: RegAllocation,
        dropped_boosts: bool,
        boosted_loads: usize,
    },
    Rejected {
        min_ii: u32,
        fallback: ModuloSchedule,
    },
}

/// The paper's ladder with no pruning: every rung scheduled, every
/// schedule handed to the allocator.
fn reference_ladder(
    lp: &LoopIr,
    m: &MachineModel,
    hint_of: &dyn Fn(InstId) -> Option<LatencyHint>,
    opts: &PipelineOptions,
) -> Answer {
    let base = Ddg::build_with_load_floor(lp, m, 0);
    let min_ii = m.res_mii(lp).max(base.rec_mii());
    let cls = classify_loads_observed(
        lp,
        m,
        &base,
        hint_of,
        opts.cycle_cap,
        opts.balance_cycle_slack,
        min_ii,
        Observer::disabled(),
    );
    let max_ii = (min_ii + opts.max_ii_slack).min(acyclic_schedule(lp, m, &base).ii().max(min_ii));

    let base_scheduler = ModuloScheduler::new(lp, m, &base);
    let mut start = min_ii;
    if cls.boosted_count() > 0 {
        let boosted = graph_for(lp, m, &cls);
        let scheduler = ModuloScheduler::new(lp, m, &boosted);
        for ii in min_ii..=max_ii {
            match scheduler.schedule_at(ii, opts.budget_factor) {
                Ok(schedule) => {
                    if let Ok(regs) = allocate_rotating(lp, &schedule, m) {
                        return Answer::Pipelined {
                            schedule,
                            regs,
                            dropped_boosts: false,
                            boosted_loads: cls.boosted_count(),
                        };
                    }
                }
                Err(_) if base_scheduler.schedule_at(ii, opts.budget_factor).is_err() => continue,
                Err(_) => {}
            }
            start = ii;
            break;
        }
    }
    for ii in start..=max_ii {
        let Ok(schedule) = base_scheduler.schedule_at(ii, opts.budget_factor) else {
            continue;
        };
        if let Ok(regs) = allocate_rotating(lp, &schedule, m) {
            return Answer::Pipelined {
                schedule,
                regs,
                dropped_boosts: cls.boosted_count() > 0,
                boosted_loads: 0,
            };
        }
    }
    Answer::Rejected {
        min_ii,
        fallback: acyclic_schedule(lp, m, &base),
    }
}

/// Runs the driver and the reference on one loop under every policy;
/// returns how many compiles the floor rejected and in how many it moved
/// the start of the base phase.
fn assert_same_answers(lp: &LoopIr, m: &MachineModel, opts: &PipelineOptions) -> (u32, u32) {
    let (mut rejected, mut skipped) = (0, 0);
    for policy in POLICIES {
        let hint_of = |id| hint(lp, policy, id);
        let tel = Telemetry::enabled();
        let got = match pipeline_loop_observed(lp, m, &hint_of, opts, Observer::new(&tel, None)) {
            Ok(p) => Answer::Pipelined {
                schedule: p.schedule,
                regs: p.regs,
                dropped_boosts: p.stats.dropped_boosts,
                boosted_loads: p.stats.boosted_loads,
            },
            Err(e) => Answer::Rejected {
                min_ii: e.min_ii,
                fallback: e.fallback,
            },
        };
        assert_eq!(
            got,
            reference_ladder(lp, m, &hint_of, opts),
            "{} under {policy}",
            lp.name()
        );
        // Every pruning decision is in the trace, with its reason.
        let scheduled = tel
            .events()
            .iter()
            .filter(|e| e.event.kind() == "schedule_attempt")
            .count();
        for e in tel.events() {
            match &e.event {
                Event::RegallocFallback {
                    action: "reject-floor",
                    needed,
                    available,
                    ..
                } => {
                    assert!(needed > available);
                    assert_eq!(scheduled, 0, "a floor rejection schedules nothing");
                    assert!(matches!(got, Answer::Rejected { .. }));
                    rejected += 1;
                }
                Event::RegallocFallback {
                    action: "skip-floor",
                    needed,
                    available,
                    ..
                } => {
                    assert!(needed > available);
                    skipped += 1;
                }
                _ => {}
            }
        }
    }
    (rejected, skipped)
}

#[test]
fn driver_matches_the_unpruned_ladder_on_random_loops() {
    let opts = PipelineOptions::default();
    // With 8 rotating FP registers the floor both rejects loops and moves
    // the start of the base phase; with 96 it does neither.
    let machines = [
        MachineModel::itanium2(),
        tight_machine(),
        machine_with_fr(8),
    ];
    let (mut rejected, mut skipped) = (0, 0);
    for seed in 0..120 {
        for m in &machines {
            let lp = after_hlo(&random_loop(seed), m);
            let (r, s) = assert_same_answers(&lp, m, &opts);
            rejected += r;
            skipped += s;
        }
    }
    assert!(rejected > 0, "no loop exercised the floor rejection");
    assert!(skipped > 0, "no loop exercised the base-phase skip");
}

#[test]
fn driver_matches_the_unpruned_ladder_on_the_scale_shapes() {
    let m = MachineModel::itanium2();
    let opts = PipelineOptions::default();
    let mut rejected = 0;
    for (streams, depth) in [(3, 15), (3, 16), (4, 11), (4, 12), (5, 9), (3, 10)] {
        let lp = scheduling_heavy(&format!("heavy{streams}x{depth}"), streams, depth);
        rejected += assert_same_answers(&after_hlo(&lp, &m), &m, &opts).0;
    }
    // (3,16), (4,12) and (5,9) define more than 96 values per class.
    assert_eq!(rejected, 3 * POLICIES.len() as u32);
}

#[test]
fn driver_matches_the_unpruned_ladder_where_boosts_are_dropped() {
    // The pipeliner's own `register_overflow_drops_boosts` loop: four FP
    // loads summed, against 16 rotating FP registers. At the ResMII of 3
    // the floor is 18, so under every policy the base phase starts at II 4.
    let mut b = LoopBuilder::new("wide");
    let vals: Vec<_> = (0..4u64)
        .map(|k| {
            let x = b.affine_ref(&format!("x{k}"), DataClass::Fp, k << 24, 8, 8);
            b.load(x)
        })
        .collect();
    let mut acc = b.fadd(vals[0], vals[1]);
    acc = b.fadd(acc, vals[2]);
    acc = b.fadd(acc, vals[3]);
    let y = b.affine_ref("y", DataClass::Fp, 9 << 24, 8, 8);
    b.store(y, acc);
    let lp = b.build().expect("well-formed");
    let (rejected, skipped) =
        assert_same_answers(&lp, &tight_machine(), &PipelineOptions::default());
    assert_eq!((rejected, skipped), (0, POLICIES.len() as u32));
}

#[test]
fn a_starved_loop_is_rejected_with_the_load_after_the_store() {
    // i1 → i2 → (store-to-load, same iteration) → i3 → (carried) → i1 is a
    // recurrence through memory. A two-register FP file rejects the loop,
    // and the acyclic fallback must order the load after the store.
    let fr = |k| VReg::new(RegClass::Fr, k);
    let stream = |name: &str, base| {
        MemoryRef::new(
            name,
            DataClass::Fp,
            AccessPattern::Affine { base, stride: 8 },
            8,
        )
    };
    let insts = vec![
        Inst::new(
            InstId(0),
            Opcode::Load(DataClass::Fp),
            Some(fr(1)),
            &[],
            Some(MemRefId(0)),
        ),
        Inst::new(
            InstId(1),
            Opcode::Fma,
            Some(fr(2)),
            &[fr(0).into(), fr(1).into(), SrcOperand::carried(fr(3), 1)],
            None,
        ),
        Inst::new(
            InstId(2),
            Opcode::Store(DataClass::Fp),
            None,
            &[fr(2).into()],
            Some(MemRefId(1)),
        ),
        Inst::new(
            InstId(3),
            Opcode::Load(DataClass::Fp),
            Some(fr(3)),
            &[],
            Some(MemRefId(2)),
        ),
    ];
    let through_memory = MemDep {
        from: InstId(2),
        to: InstId(3),
        kind: MemDepKind::Flow,
        omega: 0,
    };
    let lp = LoopIr::new(
        "spill",
        insts,
        vec![
            stream("x[i]", 0),
            stream("t[i]", 1 << 24),
            stream("t[i]'", 1 << 24),
        ],
        vec![through_memory],
        vec![fr(0)],
    )
    .expect("well-formed");

    let starved = machine_with_fr(2);
    let opts = PipelineOptions::default();
    let rejected = ltsp::pipeliner::pipeline_loop(&lp, &starved, &|_| None, &opts).unwrap_err();
    assert_eq!(
        rejected.attempts, 0,
        "three FP values against two registers"
    );
    assert!(rejected.fallback.time(InstId(3)) > rejected.fallback.time(InstId(2)));
    assert_eq!(
        assert_same_answers(&lp, &starved, &opts).0,
        POLICIES.len() as u32
    );
}

#[test]
fn every_pipelined_compile_of_the_grid_emits_what_it_reports() {
    // The kernel library, the `scheduling_heavy` shapes on both sides of
    // the 96-register line, and 470 drawn loops, under every policy.
    let m = MachineModel::itanium2();
    let mut loops: Vec<LoopIr> = kernel_library().into_iter().map(|(_, lp)| lp).collect();
    for streams in 3..=5 {
        for depth in 9..=20 {
            loops.push(scheduling_heavy(
                &format!("heavy{streams}x{depth}"),
                streams,
                depth,
            ));
        }
    }
    loops.extend((0..470).map(random_loop));
    let policies = [
        LatencyPolicy::Baseline,
        LatencyPolicy::AllLoadsL3,
        LatencyPolicy::AllFpLoadsL2,
        LatencyPolicy::HloHints,
    ];
    let mut pipelined = 0;
    for lp in &loops {
        for policy in policies {
            let c = compile_loop(lp, &m, &CompileConfig::new(policy));
            let Some(regs) = c.regs else { continue };
            pipelined += 1;
            let at = format!("{} under {policy:?}", lp.name());
            let names = assign_registers(&c.lp, &c.kernel, &m)
                .unwrap_or_else(|e| panic!("{at}: pipelined but unnameable: {e}"));
            let asm = emit_kernel(&c.lp, &c.kernel, &names);
            let header = format!(
                "// kernel: II={}, stages={}, rotating GR={} FR={} PR={}",
                c.kernel.ii(),
                c.kernel.stage_count(),
                regs.rotating_gr,
                regs.rotating_fr,
                regs.rotating_pr
            );
            assert_eq!(asm.lines().next(), Some(header.as_str()), "{at}");
            let ddg = Ddg::build(&c.lp, &m, &|id| {
                c.scheduled_load_latency_of(&m, id).unwrap_or(0)
            });
            validate_schedule(&c.lp, &ddg, &c.kernel, &m).unwrap_or_else(|v| panic!("{at}: {v:?}"));
        }
    }
    assert_eq!((loops.len() * policies.len(), pipelined), (2_092, 1_988));
}
