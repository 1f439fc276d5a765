//! Mutation tests for the independent validator: take a schedule the
//! validator certifies, apply a targeted mutation that breaks exactly one
//! constraint class, and assert the validator rejects the mutant *with
//! the right violation kind*. This is the validator's own soundness
//! suite — a checker that certifies everything is worse than no checker.

use ltsp_ddg::Ddg;
use ltsp_ir::{DataClass, InstId, LoopBuilder, LoopIr, RegClass};
use ltsp_machine::MachineModel;
use ltsp_oracle::validate_schedule;
use ltsp_pipeliner::{assign_registers, pipeline_loop, ModuloSchedule, ModuloScheduler};

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

fn certified_schedule(lp: &LoopIr, m: &MachineModel, ddg: &Ddg, ii: u32) -> ModuloSchedule {
    let sched = ModuloScheduler::new(lp, m, ddg).schedule_at(ii, 8).unwrap();
    validate_schedule(lp, ddg, &sched, m).expect("baseline must certify");
    sched
}

fn times_of(lp: &LoopIr, sched: &ModuloSchedule) -> Vec<i64> {
    (0..lp.insts().len())
        .map(|i| sched.time(InstId(i as u32)))
        .collect()
}

/// Shifting one operation a cycle earlier breaks the load's flow edge.
#[test]
fn mutant_shifted_early_is_rejected_as_dependence() {
    let m = MachineModel::itanium2();
    let lp = running_example();
    let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
    let sched = certified_schedule(&lp, &m, &ddg, 1);

    // The add consumes the load's value: pull it to the load's cycle.
    let mut times = times_of(&lp, &sched);
    times[1] = times[0];
    let mutant = ModuloSchedule::new(sched.ii(), times);
    let v = validate_schedule(&lp, &ddg, &mutant, &m).unwrap_err();
    assert!(
        v.iter().any(|x| x.kind() == "dependence"),
        "expected a dependence violation, got {v:?}"
    );
}

/// Shifting an operation a cycle *later* must also be caught when it
/// breaks an edge in the other direction (producer past its consumer).
#[test]
fn mutant_shifted_late_is_rejected_as_dependence() {
    let m = MachineModel::itanium2();
    let lp = running_example();
    let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
    let sched = certified_schedule(&lp, &m, &ddg, 1);

    // Push the add past the store that reads it.
    let mut times = times_of(&lp, &sched);
    times[1] = times[2] + 1;
    let mutant = ModuloSchedule::new(sched.ii(), times);
    let v = validate_schedule(&lp, &ddg, &mutant, &m).unwrap_err();
    assert!(
        v.iter().any(|x| x.kind() == "dependence"),
        "expected a dependence violation, got {v:?}"
    );
}

/// Collapsing a stage (moving an op a full II earlier) preserves the
/// kernel row but violates the latency the stage was buying.
#[test]
fn mutant_dropped_stage_is_rejected() {
    let m = MachineModel::itanium2();
    let lp = running_example();
    // Boosted latencies: the load is scheduled at 21 cycles, so the add
    // sits many stages downstream; dropping one stage keeps its row.
    let ddg = Ddg::build_with_load_floor(&lp, &m, 21);
    let sched = certified_schedule(&lp, &m, &ddg, 1);
    assert!(sched.stage_count() > 3, "boost must grow stages");

    let mut times = times_of(&lp, &sched);
    times[1] -= i64::from(sched.ii()); // same row, one stage earlier
    let mutant = ModuloSchedule::new(sched.ii(), times);
    let v = validate_schedule(&lp, &ddg, &mutant, &m).unwrap_err();
    assert!(
        v.iter().any(|x| x.kind() == "dependence"),
        "expected a dependence violation, got {v:?}"
    );
}

/// Packing more memory ops into one kernel row than the machine has M
/// slots must be caught by the resource check.
#[test]
fn mutant_oversubscribed_row_is_rejected_as_resource() {
    let m = MachineModel::itanium2();
    let mut b = LoopBuilder::new("mem");
    for k in 0..4u64 {
        let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
        let _ = b.load(r);
    }
    let lp = b.build().unwrap();
    let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
    let sched = certified_schedule(&lp, &m, &ddg, 2);

    // Move every load into row 0 (keeping times legal per dependences:
    // the only edges are post-increment self-edges, satisfied by any
    // non-negative times at II 2).
    let times: Vec<i64> = (0..lp.insts().len())
        .map(|i| 2 * i as i64) // all even -> all in row 0
        .collect();
    let mutant = ModuloSchedule::new(sched.ii(), times);
    let v = validate_schedule(&lp, &ddg, &mutant, &m).unwrap_err();
    assert!(
        v.iter()
            .any(|x| matches!(x, ltsp_oracle::Violation::Resource { class: "M", .. })),
        "expected an M-slot resource violation, got {v:?}"
    );
}

/// A schedule whose lifetimes demand more rotating registers than the
/// machine provides must be rejected, even though dependences and
/// resources hold.
#[test]
fn mutant_stretched_lifetime_is_rejected_as_register_overflow() {
    use ltsp_machine::RegisterFiles;
    let m = MachineModel::itanium2();
    let lp = running_example();
    let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
    let sched = certified_schedule(&lp, &m, &ddg, 1);

    // Validate the same schedule against a machine with almost no
    // rotating GRs: the re-derived lifetime demand must overflow.
    let tight = MachineModel::new(
        *m.issue(),
        *m.latencies(),
        *m.caches(),
        RegisterFiles {
            rotating_gr: 1,
            ..*m.registers()
        },
    );
    let v = validate_schedule(&lp, &ddg, &sched, &tight).unwrap_err();
    assert!(
        v.iter().any(|x| x.kind() == "register-overflow"),
        "expected a register overflow, got {v:?}"
    );
}

/// A schedule reporting times for the wrong number of instructions is a
/// shape violation and nothing else is checked.
#[test]
fn mutant_wrong_shape_is_rejected_as_shape() {
    let m = MachineModel::itanium2();
    let lp = running_example();
    let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
    let mutant = ModuloSchedule::new(1, vec![0, 1, 2, 3]);
    let v = validate_schedule(&lp, &ddg, &mutant, &m).unwrap_err();
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].kind(), "shape");
}

/// Every mutation class across a set of machine-generated loops: shift
/// each op ±1 cycle and assert the validator never certifies a mutant
/// that violates an edge (no false acceptance), while re-certifying the
/// unmutated schedule (no false rejection).
#[test]
fn systematic_single_op_shifts_never_falsely_certify() {
    let m = MachineModel::itanium2();
    for seed in 0..20u64 {
        let lp = ltsp_workloads::random_loop(seed);
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let Ok(p) = pipeline_loop(&lp, &m, &|_| None, &Default::default()) else {
            continue;
        };
        let sched = p.schedule;
        validate_schedule(&lp, &ddg, &sched, &m)
            .unwrap_or_else(|v| panic!("seed {seed}: false rejection {v:?}"));
        let base = times_of(&lp, &sched);
        for op in 0..lp.insts().len() {
            for delta in [-1i64, 1] {
                let mut times = base.clone();
                times[op] += delta;
                if times[op] < 0 {
                    continue;
                }
                let mutant = ModuloSchedule::new(sched.ii(), times.clone());
                let broken = ddg.edges().iter().any(|e| {
                    times[e.from.index()] + i64::from(e.latency)
                        > times[e.to.index()] + i64::from(sched.ii()) * i64::from(e.omega)
                });
                let verdict = validate_schedule(&lp, &ddg, &mutant, &m);
                if broken {
                    let v = verdict.expect_err("mutant with broken edge certified");
                    assert!(
                        v.iter().any(|x| x.kind() == "dependence"),
                        "seed {seed} op {op} delta {delta}: wrong kind {v:?}"
                    );
                }
            }
        }
    }
}

// Name mutants. The allocator's names cannot be forged from outside the
// pipeliner (the validator's unit tests feed it forged ones), so these
// tests pin kernels on which each allocator mutant shows: the validator
// must certify the real names, and would reject the mutant's.

/// The sweep starts each value one slot past the previous value's last
/// read. In the running example at II 1 the load's value holds name 0
/// through the add's read, so the sum is named 2 (Fig. 3's `r34`); a
/// sweep that let the two share that cycle would name it 1, a clash.
#[test]
fn mutant_names_sharing_a_cycle_are_rejected() {
    let m = MachineModel::itanium2();
    let lp = running_example();
    let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
    let sched = certified_schedule(&lp, &m, &ddg, 1);
    let names = assign_registers(&lp, &sched, &m).unwrap();
    let sum = lp.insts()[1].dst().unwrap();
    assert_eq!(names.name(sum), Some(2));
}

/// A count covers every name. `random_loop(15)`'s names span one
/// rotating predicate more than the paper's `⌊L/II⌋ + 1` sum charges, so
/// a count one below the names' extent leaves a value outside it.
#[test]
fn mutant_count_below_the_names_is_rejected() {
    let m = MachineModel::itanium2();
    let lp = ltsp_workloads::random_loop(15);
    let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
    let p = pipeline_loop(&lp, &m, &|_| None, &Default::default()).unwrap();
    validate_schedule(&lp, &ddg, &p.schedule, &m)
        .unwrap_or_else(|v| panic!("real names must certify: {v:?}"));
    assert_eq!(p.regs.rotating(RegClass::Pr), 4);
}

/// The emitted names are the counted ones: a packer of its own behind
/// `assign_registers` (say `δ + 1` registers per value, δ the stage
/// crossings) states counts the report does not.
#[test]
fn mutant_packer_apart_from_the_counts_is_rejected() {
    let m = MachineModel::itanium2();
    let mut checked = 0;
    for seed in 0..40u64 {
        let lp = ltsp_workloads::random_loop(seed);
        let Ok(p) = pipeline_loop(&lp, &m, &|_| None, &Default::default()) else {
            continue;
        };
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        validate_schedule(&lp, &ddg, &p.schedule, &m)
            .unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
        let names = assign_registers(&lp, &p.schedule, &m).unwrap();
        for class in RegClass::ALL {
            assert_eq!(
                names.rotating_used(class),
                p.regs.rotating(class),
                "seed {seed} {class}"
            );
        }
        checked += 1;
    }
    assert!(checked > 30, "only {checked} kernels checked");
}
