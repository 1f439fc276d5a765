//! Concrete rotating-register assignment and kernel assembly emission.
//!
//! [`assign_registers`] hands out the names the rotating allocator
//! ([`crate::allocate_rotating`]) derives its counts from, so the kernel
//! header states exactly what the report does; this module renders them
//! the way the paper's code listings do (Figs. 3 and 6), as Itanium-style
//! assembly with stage predicates and a `br.ctop` back edge.
//!
//! Register rotation semantics: a value written to rotating register `X`
//! appears in `X + k` after `k` kernel back-edges. A definition at stage
//! `s_d` read by a use at stage `s_u` with loop-carried distance `omega`
//! crosses `s_u + omega − s_d` back-edges, so the use names
//! `X + s_u + omega − s_d`.

use std::collections::HashMap;
use std::fmt::Write as _;

use ltsp_ir::{LoopIr, Opcode, RegClass, SrcOperand, VReg};
use ltsp_machine::MachineModel;

use crate::regalloc::{allocate_names, RegAllocError, RegAllocation};
use crate::schedule::ModuloSchedule;

/// A complete concrete register assignment for a scheduled kernel.
#[derive(Debug, Clone)]
pub struct RegisterAssignment {
    names: HashMap<VReg, u32>,
    statics: HashMap<VReg, u32>,
    alloc: RegAllocation,
}

/// First architectural register of each rotating area, in
/// [`RegClass::ALL`] order (Itanium: `r32`, `f32`, and predicates `p16`,
/// with stage predicates first).
const ROTATING_BASE: [u32; 3] = [32, 32, 16];

impl RegisterAssignment {
    /// Rotating registers used in a class: the count
    /// [`crate::allocate_rotating`] reports.
    pub fn rotating_used(&self, class: RegClass) -> u32 {
        self.alloc.rotating(class)
    }

    /// The offset, within its class's rotating area, of the register a
    /// loop-defined value's definition writes; `None` for live-ins.
    pub fn name(&self, reg: VReg) -> Option<u32> {
        self.names.get(&reg).copied()
    }

    /// The architectural name an instruction *writes* for its destination.
    fn def_name(&self, reg: VReg) -> Option<String> {
        let n = self.name(reg)?;
        Some(arch_name(
            reg.class(),
            ROTATING_BASE[reg.class() as usize] + n,
        ))
    }

    /// The architectural name a *use* reads: the write register shifted by
    /// the back-edges crossed between definition and use.
    fn use_name(&self, reg: VReg, def_stage: u32, use_stage: u32, omega: u32) -> Option<String> {
        if let Some(n) = self.name(reg) {
            let delta = use_stage + omega - def_stage.min(use_stage + omega);
            Some(arch_name(
                reg.class(),
                ROTATING_BASE[reg.class() as usize] + n + delta,
            ))
        } else {
            let n = self.statics.get(&reg)?;
            Some(arch_name(reg.class(), *n))
        }
    }
}

fn arch_name(class: RegClass, number: u32) -> String {
    format!("{}{number}", ['r', 'f', 'p'][class as usize])
}

/// Assigns concrete rotating registers to every loop-defined value and
/// static registers to live-ins.
///
/// The rotating names are the allocator's: stage predicates claim the
/// first `stages` rotating predicates, and the per-class counts are
/// exactly those [`crate::allocate_rotating`] reports.
///
/// # Errors
///
/// Returns [`RegAllocError`] when a class's count exceeds the machine's
/// rotating supply — the same error [`crate::allocate_rotating`] returns.
pub fn assign_registers(
    lp: &LoopIr,
    sched: &ModuloSchedule,
    machine: &MachineModel,
) -> Result<RegisterAssignment, RegAllocError> {
    let (alloc, by_inst) = allocate_names(lp, sched, machine)?;
    let names = lp
        .insts()
        .iter()
        .filter_map(|inst| Some((inst.dst()?, by_inst[inst.id().index()])))
        .collect();

    // Live-ins go to static registers r8.., f8.. (outside the rotating
    // area, caller-visible).
    let mut statics = HashMap::new();
    let mut next_static = [8u32, 8, 6];
    for &r in lp.live_in() {
        let next = &mut next_static[r.class() as usize];
        statics.insert(r, *next);
        *next += 1;
    }

    Ok(RegisterAssignment {
        names,
        statics,
        alloc,
    })
}

/// Emits the loop *setup* code that precedes a pipelined kernel on
/// Itanium: the register-stack `alloc` sizing the rotating area, the loop
/// and epilog counters (`ar.lc` = trip − 1, `ar.ec` = stages), and the
/// rotating-predicate initialization that turns on stage 0 only.
pub fn emit_setup(assign: &RegisterAssignment, trip_reg: &str) -> String {
    let rot_gr = assign
        .rotating_used(RegClass::Gr)
        .next_multiple_of(8)
        .max(8);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  alloc    r2 = ar.pfs, 0, {rot_gr}, 0, {rot_gr}   // rotating GR area"
    );
    let _ = writeln!(out, "  adds     r3 = -1, {trip_reg}");
    let _ = writeln!(out, "  mov      ar.lc = r3                     // trip - 1");
    let _ = writeln!(
        out,
        "  mov      ar.ec = {}                     // epilog stages",
        assign.alloc.stages
    );
    let _ = writeln!(
        out,
        "  mov      pr.rot = 1 << 16               // stage predicate p16 on"
    );
    out
}

/// The kernel-unroll factor **modulo variable expansion** would need on a
/// machine *without* rotating registers (the paper's Sec. 5 remark:
/// "Without rotating registers, this effect could only be achieved with
/// unrolling"): the kernel must be replicated until every value's live
/// instances have distinct architectural names, i.e. the maximum number
/// of kernel iterations any value stays live.
pub fn mve_unroll_factor(lp: &LoopIr, sched: &ModuloSchedule) -> u32 {
    let mut factor = 1u32;
    for inst in lp.insts() {
        let s_u = sched.stage(inst.id());
        for s in inst.reads() {
            if let Some(def) = lp.def_of(s.reg) {
                factor = factor.max((s_u + s.omega).saturating_sub(sched.stage(def)) + 1);
            }
        }
    }
    factor
}

/// Renders a scheduled kernel as Itanium-style assembly: one issue group
/// per kernel cycle (terminated by `;;`), stage predicates qualifying
/// every instruction, concrete rotating register names, and a `br.ctop`
/// back edge.
///
/// # Example
///
/// ```
/// use ltsp_ir::{DataClass, LoopBuilder};
/// use ltsp_machine::MachineModel;
/// use ltsp_pipeliner::{assign_registers, emit_kernel, pipeline_loop, PipelineOptions};
///
/// let mut b = LoopBuilder::new("ex");
/// let src = b.affine_ref("src", DataClass::Int, 0, 4, 4);
/// let dst = b.affine_ref("dst", DataClass::Int, 1 << 20, 4, 4);
/// let c = b.live_in_gr("c");
/// let v = b.load(src);
/// let s = b.add(v, c);
/// b.store(dst, s);
/// let lp = b.build()?;
/// let m = MachineModel::itanium2();
/// let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
/// let asm = emit_kernel(&lp, &p.schedule, &assign_registers(&lp, &p.schedule, &m).unwrap());
/// assert!(asm.contains("br.ctop"));
/// assert!(asm.contains("(p16)"));
/// # Ok::<(), ltsp_ir::IrError>(())
/// ```
pub fn emit_kernel(lp: &LoopIr, sched: &ModuloSchedule, assign: &RegisterAssignment) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// kernel: II={}, stages={}, rotating GR={} FR={} PR={}",
        sched.ii(),
        sched.stage_count(),
        assign.rotating_used(RegClass::Gr),
        assign.rotating_used(RegClass::Fr),
        assign.rotating_used(RegClass::Pr),
    );
    let _ = writeln!(out, "L_kernel:");
    let def_stage = |reg| lp.def_of(reg).map(|d| sched.stage(d));

    for (cycle, row) in sched.rows().iter().enumerate() {
        for slot in row {
            let inst = lp.inst(slot.inst);
            let use_name = |s: SrcOperand| {
                let d_stage = def_stage(s.reg).unwrap_or(slot.stage);
                let name = assign.use_name(s.reg, d_stage, slot.stage, s.omega);
                name.unwrap_or_else(|| s.reg.to_string())
            };
            let qp = match inst.qp() {
                None => format!("(p{})", 16 + slot.stage),
                // The stage predicate is ANDed with the qualifying
                // predicate (compilers materialize the conjunction).
                Some((q, neg)) => {
                    let not = if neg { "!" } else { "" };
                    format!("(p{}&{not}{})", 16 + slot.stage, use_name(q))
                }
            };
            let dst = inst
                .dst()
                .and_then(|d| assign.def_name(d))
                .map(|n| format!("{n} = "))
                .unwrap_or_default();
            let srcs: Vec<String> = inst.srcs().iter().map(|&s| use_name(s)).collect();
            let mem = inst.mem().map(|m| format!("[{}]", lp.memref(m).name()));
            let mem = mem.unwrap_or_default();
            let operands = match inst.op() {
                Opcode::Load(_) => format!("{dst}{mem}"),
                Opcode::Store(_) => format!("{mem} = {}", srcs.join(", ")),
                Opcode::Prefetch(level) => format!("{mem}, {level}"),
                _ => format!("{dst}{}", srcs.join(", ")),
            };
            let _ = writeln!(
                out,
                "  {qp:<6} {:<8} {operands:<28} // {} s{} c{cycle}",
                inst.op().mnemonic(),
                slot.inst,
                slot.stage,
            );
        }
        let _ = writeln!(out, "  ;;");
    }
    let _ = writeln!(out, "         br.ctop  L_kernel ;;");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{pipeline_loop, PipelineOptions};
    use ltsp_ir::{DataClass, LoopBuilder};

    fn running_example() -> LoopIr {
        let mut b = LoopBuilder::new("ex");
        let s = b.affine_ref("src", DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("dst", DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("r9");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        b.build().unwrap()
    }

    #[test]
    fn fig3_register_chains() {
        // The paper's Fig. 3: the load writes r32, the add reads r33 (one
        // rotation later) and writes r34, the store reads r35.
        let m = MachineModel::itanium2();
        let lp = running_example();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        assert_eq!(p.schedule.ii(), 1);
        let a = assign_registers(&lp, &p.schedule, &m).unwrap();

        let v = lp.insts()[0].dst().unwrap(); // load value
        let s = lp.insts()[1].dst().unwrap(); // add value
        assert_eq!(a.def_name(v).unwrap(), "r32");
        assert_eq!(a.use_name(v, 0, 1, 0).unwrap(), "r33");
        assert_eq!(a.def_name(s).unwrap(), "r34");
        assert_eq!(a.use_name(s, 1, 2, 0).unwrap(), "r35");
    }

    #[test]
    fn assignment_matches_counting_allocator() {
        // The assigned counts are allocate_rotating's, class by class.
        let m = MachineModel::itanium2();
        let lp = running_example();
        let p = pipeline_loop(
            &lp,
            &m,
            &|_| Some(ltsp_ir::LatencyHint::L3),
            &PipelineOptions::default(),
        )
        .unwrap();
        let counted = crate::allocate_rotating(&lp, &p.schedule, &m).unwrap();
        let assigned = assign_registers(&lp, &p.schedule, &m).unwrap();
        for class in RegClass::ALL {
            assert_eq!(
                assigned.rotating_used(class),
                counted.rotating(class),
                "{class}"
            );
        }
    }

    #[test]
    fn emitted_assembly_has_the_right_shape() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let a = assign_registers(&lp, &p.schedule, &m).unwrap();
        let asm = emit_kernel(&lp, &p.schedule, &a);
        assert!(asm.contains("L_kernel:"), "{asm}");
        assert!(asm.contains("(p16) "), "{asm}");
        assert!(asm.contains("(p18) "), "three stage predicates: {asm}");
        assert!(asm.contains("br.ctop"), "{asm}");
        assert!(asm.contains("ld"), "{asm}");
        assert!(asm.contains("[src]"), "{asm}");
        // Stops delimit issue groups.
        assert!(asm.matches(";;").count() >= 2, "{asm}");
    }

    #[test]
    fn setup_code_contains_loop_counters() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let a = assign_registers(&lp, &p.schedule, &m).unwrap();
        let setup = emit_setup(&a, "r14");
        assert!(setup.contains("ar.lc"), "{setup}");
        assert!(setup.contains("ar.ec = 3"), "{setup}");
        assert!(setup.contains("pr.rot"), "{setup}");
        assert!(setup.contains("alloc"), "{setup}");
    }

    #[test]
    fn mve_factor_grows_with_boosting() {
        // Without rotation, the unroll factor for the boosted kernel
        // explodes with the scheduled latency — the paper's Sec. 5 point
        // about why rotation makes clustering cheap.
        let m = MachineModel::itanium2();
        let lp = running_example();
        let base = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let boost = pipeline_loop(
            &lp,
            &m,
            &|_| Some(ltsp_ir::LatencyHint::L3),
            &PipelineOptions::default(),
        )
        .unwrap();
        let f_base = mve_unroll_factor(&lp, &base.schedule);
        let f_boost = mve_unroll_factor(&lp, &boost.schedule);
        assert!(f_base >= 2);
        assert!(
            f_boost > f_base * 3,
            "boosting must inflate the MVE factor: {f_base} -> {f_boost}"
        );
    }

    #[test]
    fn overflow_reported_like_the_counting_allocator() {
        use ltsp_machine::RegisterFiles;
        let m = MachineModel::itanium2();
        let tight = MachineModel::new(
            *m.issue(),
            *m.latencies(),
            *m.caches(),
            RegisterFiles {
                rotating_gr: 2,
                ..*m.registers()
            },
        );
        let lp = running_example();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let err = assign_registers(&lp, &p.schedule, &tight).unwrap_err();
        assert_eq!(err.class, RegClass::Gr);
    }
}
