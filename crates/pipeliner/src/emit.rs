//! Concrete rotating-register assignment and kernel assembly emission.
//!
//! [`allocate_rotating`](crate::allocate_rotating) only *counts* registers;
//! this module assigns concrete architectural register numbers the way the
//! paper's code listings do (Figs. 3 and 6) and renders the kernel as
//! Itanium-style assembly with stage predicates and a `br.ctop` back edge.
//!
//! Register rotation semantics: a value written to rotating register `X`
//! appears in `X + k` after `k` kernel back-edges. A definition at stage
//! `s_d` read by a use at stage `s_u` with loop-carried distance `omega`
//! crosses `s_u + omega − s_d` back-edges, so the use names
//! `X + s_u + omega − s_d`. Each value therefore occupies a *range* of
//! consecutive rotating registers, one per kernel iteration it stays live
//! — exactly the counting rule of Sec. 1.1.

use std::collections::HashMap;
use std::fmt::Write as _;

use ltsp_ir::{LoopIr, Opcode, RegClass, VReg};
use ltsp_machine::MachineModel;

use crate::regalloc::RegAllocError;
use crate::schedule::ModuloSchedule;

/// Concrete placement of one value in a rotating register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotatingRange {
    /// Register class.
    pub class: RegClass,
    /// Offset of the *write* register within the rotating area (the
    /// architectural number is `base_of(class) + offset`).
    pub offset: u32,
    /// Number of consecutive rotating registers the value's live
    /// instances occupy.
    pub span: u32,
}

/// A complete concrete register assignment for a scheduled kernel.
#[derive(Debug, Clone)]
pub struct RegisterAssignment {
    ranges: HashMap<VReg, RotatingRange>,
    statics: HashMap<VReg, u32>,
    stages: u32,
    used: [u32; 3],
}

/// First architectural register of each rotating area (Itanium: `r32`,
/// `f32`, and predicates `p16`, with stage predicates first).
fn rotating_base(class: RegClass) -> u32 {
    match class {
        RegClass::Gr => 32,
        RegClass::Fr => 32,
        RegClass::Pr => 16,
    }
}

impl RegisterAssignment {
    /// Pipeline stages (and stage predicates `p16 .. p16+stages-1`).
    pub(crate) fn stages(&self) -> u32 {
        self.stages
    }

    /// Rotating registers used in a class.
    pub(crate) fn rotating_used(&self, class: RegClass) -> u32 {
        match class {
            RegClass::Gr => self.used[0],
            RegClass::Fr => self.used[1],
            RegClass::Pr => self.used[2],
        }
    }

    /// The architectural name an instruction *writes* for its destination.
    pub(crate) fn def_name(&self, reg: VReg) -> Option<String> {
        let r = self.ranges.get(&reg)?;
        Some(arch_name(r.class, rotating_base(r.class) + r.offset))
    }

    /// The architectural name a *use* reads: the write register shifted by
    /// the back-edges crossed between definition and use.
    pub(crate) fn use_name(
        &self,
        reg: VReg,
        def_stage: u32,
        use_stage: u32,
        omega: u32,
    ) -> Option<String> {
        if let Some(r) = self.ranges.get(&reg) {
            let delta = use_stage + omega - def_stage.min(use_stage + omega);
            Some(arch_name(
                r.class,
                rotating_base(r.class) + r.offset + delta,
            ))
        } else {
            let n = self.statics.get(&reg)?;
            Some(arch_name(reg.class(), *n))
        }
    }
}

fn arch_name(class: RegClass, number: u32) -> String {
    match class {
        RegClass::Gr => format!("r{number}"),
        RegClass::Fr => format!("f{number}"),
        RegClass::Pr => format!("p{number}"),
    }
}

/// Assigns concrete rotating registers to every loop-defined value and
/// static registers to live-ins.
///
/// Values are packed first-fit in definition-time order; each value's
/// range length is `1 + max(use back-edge distance)`. Stage predicates
/// claim the first `stages` rotating predicates.
///
/// # Errors
///
/// Returns [`RegAllocError`] when a class's packed ranges exceed the
/// machine's rotating supply — the same condition
/// [`crate::allocate_rotating`] reports. Totals may differ by a register
/// or two: the counter measures lifetimes in cycles, the packer in
/// whole stage crossings.
pub fn assign_registers(
    lp: &LoopIr,
    sched: &ModuloSchedule,
    machine: &MachineModel,
) -> Result<RegisterAssignment, RegAllocError> {
    let stages = sched.stage_count();
    // Max back-edge distance per defined value.
    let mut def_stage: HashMap<VReg, u32> = HashMap::new();
    for inst in lp.insts() {
        if let Some(d) = inst.dst() {
            def_stage.insert(d, sched.stage(inst.id()));
        }
    }
    let mut max_delta: HashMap<VReg, u32> = HashMap::new();
    for inst in lp.insts() {
        let s_u = sched.stage(inst.id());
        for s in inst.reads() {
            if let Some(&s_d) = def_stage.get(&s.reg) {
                let delta = (s_u + s.omega).saturating_sub(s_d);
                let e = max_delta.entry(s.reg).or_insert(0);
                *e = (*e).max(delta);
            }
        }
    }

    // Pack per class, in definition order (deterministic).
    let mut cursors = [0u32; 3]; // GR, FR, PR value areas
    cursors[2] = stages; // stage predicates come first in the PR area
    let mut ranges = HashMap::new();
    for inst in lp.insts() {
        let Some(d) = inst.dst() else { continue };
        let span = max_delta.get(&d).copied().unwrap_or(0) + 1;
        let slot = match d.class() {
            RegClass::Gr => 0,
            RegClass::Fr => 1,
            RegClass::Pr => 2,
        };
        ranges.insert(
            d,
            RotatingRange {
                class: d.class(),
                offset: cursors[slot],
                span,
            },
        );
        cursors[slot] += span;
    }

    for class in RegClass::ALL {
        let slot = match class {
            RegClass::Gr => 0,
            RegClass::Fr => 1,
            RegClass::Pr => 2,
        };
        let needed = cursors[slot];
        let available = machine.registers().rotating(class);
        if needed > available {
            return Err(RegAllocError {
                class,
                needed,
                available,
            });
        }
    }

    // Live-ins go to static registers r8.., f8.. (outside the rotating
    // area, caller-visible).
    let mut statics = HashMap::new();
    let mut next_static = [8u32, 8, 6];
    for &r in lp.live_in() {
        let slot = match r.class() {
            RegClass::Gr => 0,
            RegClass::Fr => 1,
            RegClass::Pr => 2,
        };
        statics.insert(r, next_static[slot]);
        next_static[slot] += 1;
    }

    Ok(RegisterAssignment {
        ranges,
        statics,
        stages,
        used: cursors,
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
        assign.stages()
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
    let mut def_stage: HashMap<VReg, u32> = HashMap::new();
    for inst in lp.insts() {
        if let Some(d) = inst.dst() {
            def_stage.insert(d, sched.stage(inst.id()));
        }
    }
    let mut factor = 1u32;
    for inst in lp.insts() {
        let s_u = sched.stage(inst.id());
        for s in inst.srcs() {
            if let Some(&s_d) = def_stage.get(&s.reg) {
                factor = factor.max((s_u + s.omega).saturating_sub(s_d) + 1);
            }
        }
    }
    factor
}

fn mem_operand(lp: &LoopIr, inst: &ltsp_ir::Inst) -> String {
    inst.mem()
        .map(|m| format!("[{}]", lp.memref(m).name()))
        .unwrap_or_default()
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

    let mut def_stage: HashMap<VReg, u32> = HashMap::new();
    for inst in lp.insts() {
        if let Some(d) = inst.dst() {
            def_stage.insert(d, sched.stage(inst.id()));
        }
    }

    for (cycle, row) in sched.rows().iter().enumerate() {
        for slot in row {
            let inst = lp.inst(slot.inst);
            let qp = match inst.qp() {
                None => format!("(p{})", 16 + slot.stage),
                Some((q, neg)) => {
                    // The stage predicate is ANDed with the qualifying
                    // predicate (compilers materialize the conjunction).
                    let d_stage = def_stage.get(&q.reg).copied().unwrap_or(slot.stage);
                    let name = assign
                        .use_name(q.reg, d_stage, slot.stage, q.omega)
                        .unwrap_or_else(|| q.reg.to_string());
                    format!(
                        "(p{}&{}{name})",
                        16 + slot.stage,
                        if neg { "!" } else { "" }
                    )
                }
            };
            let dst = inst
                .dst()
                .and_then(|d| assign.def_name(d))
                .map(|n| format!("{n} = "))
                .unwrap_or_default();
            let srcs: Vec<String> = inst
                .srcs()
                .iter()
                .map(|s| {
                    let d_stage = def_stage.get(&s.reg).copied().unwrap_or(slot.stage);
                    assign
                        .use_name(s.reg, d_stage, slot.stage, s.omega)
                        .unwrap_or_else(|| format!("{}", s.reg))
                })
                .collect();
            let mem = mem_operand(lp, inst);
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
        let rv = a.ranges[&v];
        let rs = a.ranges[&s];
        // Load def at stage 0, read by add at stage 1 -> delta 1, span 2.
        assert_eq!(rv.span, 2);
        assert_eq!(rs.span, 2);
        assert_eq!(a.def_name(v).unwrap(), "r32");
        assert_eq!(a.use_name(v, 0, 1, 0).unwrap(), "r33");
        assert_eq!(a.def_name(s).unwrap(), "r34");
        assert_eq!(a.use_name(s, 1, 2, 0).unwrap(), "r35");
    }

    #[test]
    fn assignment_matches_counting_allocator() {
        // The packed totals equal allocate_rotating's per-class sums.
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
        let close = |a: u32, b: u32| a.abs_diff(b) <= 2;
        assert!(
            close(assigned.rotating_used(RegClass::Gr), counted.rotating_gr),
            "{} vs {}",
            assigned.rotating_used(RegClass::Gr),
            counted.rotating_gr
        );
        assert!(close(
            assigned.rotating_used(RegClass::Pr),
            counted.rotating_pr
        ));
    }

    #[test]
    fn ranges_are_disjoint() {
        let m = MachineModel::itanium2();
        let lp = ltsp_workloads_free::mcfish();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let a = assign_registers(&lp, &p.schedule, &m).unwrap();
        let mut seen: Vec<(RegClass, u32)> = Vec::new();
        for inst in lp.insts() {
            if let Some(d) = inst.dst() {
                let r = a.ranges[&d];
                for off in r.offset..r.offset + r.span {
                    assert!(
                        !seen.contains(&(r.class, off)),
                        "overlap at {:?} {off}",
                        r.class
                    );
                    seen.push((r.class, off));
                }
            }
        }
    }

    // A tiny local stand-in to avoid a dev-dependency cycle in unit tests.
    mod ltsp_workloads_free {
        use ltsp_ir::{DataClass, LoopBuilder, LoopIr};

        pub(crate) fn mcfish() -> LoopIr {
            let mut b = LoopBuilder::new("mcfish");
            let node = b.chase_ref("node", 0, 64, 1 << 22, 0.1);
            let fld = b.deref_ref("node->f", DataClass::Int, node, 128, 1 << 22, 8);
            let _n = b.load(node);
            let f = b.load(fld);
            let acc = b.add_reduce(f);
            let pot = b.deref_ref("node->p", DataClass::Int, node, 16, 1 << 22, 8);
            b.store(pot, acc);
            b.build().unwrap()
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
