//! The independent schedule validator.
//!
//! This checker certifies a [`ModuloSchedule`] against the constraints it
//! must satisfy, re-deriving every one of them from the [`LoopIr`], the
//! dependence graph and the machine description. It deliberately shares
//! **no code** with the scheduler (`scheduler.rs`), the modulo reservation
//! table (`mrt.rs`) or the register allocator (`regalloc.rs`): slot
//! accounting, lifetime accounting and the modulo dependence inequality
//! are all re-implemented here from the definitions, so a bug in the
//! heuristic pipeliner cannot silently certify its own output.
//!
//! Checked constraints:
//!
//! 1. **Shape** — one non-negative issue time per instruction, and the
//!    schedule's reported stage count matches the times.
//! 2. **Dependences** — every edge `(from, to, latency, omega)` satisfies
//!    `t(from) + latency <= t(to) + II·omega` (the modulo scheduling
//!    inequality; boosted latencies are whatever the DDG carries).
//! 3. **Resources** — no kernel row over-subscribes the machine's issue
//!    slots. A-class instructions may draw from M or I slots; by Hall's
//!    theorem the assignment exists iff `m <= M`, `i <= I` and
//!    `m + i + a <= M + I` per row (plus the fixed F/B checks).
//! 4. **Register names** — the rotating names
//!    [`assign_registers`] hands the emitter never put two live value
//!    instances in one register in one cycle. From its own lifetime
//!    arithmetic the validator maps each value to its arc of (register,
//!    cycle) slots on the `count·II` circle: name `X` at kernel cycle `c`
//!    is slot `X·II + c`, and a value defined at `t` with name `X` and
//!    last read (through an omega-distance operand) at `t_last` covers
//!    `X·II + t mod II` through `t_last − t` slots further on, every
//!    iteration the same arc. Stage predicates cover names `0 .. stages`.
//!    Arcs of one class must be disjoint and lie inside the count, and
//!    the count must fit the machine's rotating file.

use ltsp_ddg::Ddg;
use ltsp_ir::{InstId, LoopIr, RegClass, UnitClass, VReg};
use ltsp_machine::MachineModel;
use ltsp_pipeliner::{assign_registers, ModuloSchedule};

/// One constraint violation found by [`validate_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The schedule does not cover exactly the loop's instructions.
    Shape {
        /// Instructions in the schedule.
        schedule_len: usize,
        /// Instructions in the loop.
        loop_len: usize,
    },
    /// The reported stage count disagrees with the issue times.
    StageCount {
        /// Stage count the schedule reports.
        reported: u32,
        /// Stage count derived from `max(time) / II + 1`.
        derived: u32,
    },
    /// A dependence edge is violated modulo the II.
    Dependence {
        /// Producer instruction.
        from: InstId,
        /// Consumer instruction.
        to: InstId,
        /// Edge latency (includes any latency boost).
        latency: u32,
        /// Iteration distance.
        omega: u32,
        /// Amount by which the inequality fails (positive).
        excess: i64,
    },
    /// A kernel row needs more issue slots of a class than the machine
    /// has.
    Resource {
        /// Kernel cycle (row) of the over-subscription.
        cycle: u32,
        /// Slot class (`"M"`, `"I"`, `"F"`, `"B"`, or `"M+I"` for the
        /// joint A-class constraint).
        class: &'static str,
        /// Slots demanded.
        used: u32,
        /// Slots available.
        available: u32,
    },
    /// Rotating registers needed exceed those available.
    RegisterOverflow {
        /// The class that overflowed.
        class: RegClass,
        /// Registers the schedule's values need.
        needed: u32,
        /// Rotating registers the machine has or, for names that run
        /// past their class's count, that count.
        available: u32,
    },
    /// Two live value instances share a rotating register in a cycle.
    RegisterClash {
        /// The register's class.
        class: RegClass,
        /// Offset of the register within the class's rotating area.
        register: u32,
        /// Kernel cycle of the clash.
        cycle: u32,
    },
}

impl Violation {
    /// A short machine-readable tag for the violation kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Shape { .. } => "shape",
            Violation::StageCount { .. } => "stage-count",
            Violation::Dependence { .. } => "dependence",
            Violation::Resource { .. } => "resource",
            Violation::RegisterOverflow { .. } => "register-overflow",
            Violation::RegisterClash { .. } => "register-clash",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Shape {
                schedule_len,
                loop_len,
            } => write!(
                f,
                "schedule covers {schedule_len} instructions, loop has {loop_len}"
            ),
            Violation::StageCount { reported, derived } => write!(
                f,
                "schedule reports {reported} stages but times imply {derived}"
            ),
            Violation::Dependence {
                from,
                to,
                latency,
                omega,
                excess,
            } => write!(
                f,
                "dependence i{} -> i{} (latency {latency}, omega {omega}) \
                 violated by {excess} cycles",
                from.index(),
                to.index()
            ),
            Violation::Resource {
                cycle,
                class,
                used,
                available,
            } => write!(
                f,
                "kernel cycle {cycle} needs {used} {class} slots, machine has {available}"
            ),
            Violation::RegisterOverflow {
                class,
                needed,
                available,
            } => write!(
                f,
                "rotating {class} demand {needed} exceeds supply {available}"
            ),
            Violation::RegisterClash {
                class,
                register,
                cycle,
            } => write!(
                f,
                "rotating {class} register {register} holds two live values in kernel cycle {cycle}"
            ),
        }
    }
}

/// A certificate that a schedule satisfies every re-derived constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The certified II.
    pub ii: u32,
    /// Pipeline stages of the certified schedule.
    pub stages: u32,
    /// Dependence edges checked.
    pub edges_checked: usize,
    /// Kernel rows checked against issue resources.
    pub rows_checked: u32,
}

/// Validates `sched` against every constraint re-derived from `lp`, the
/// dependence graph and `machine`.
///
/// The DDG determines the dependence latencies to enforce; pass the graph
/// the schedule was produced from (base or boosted latencies) — or a
/// stricter one to ask a stronger question.
///
/// # Errors
///
/// Returns every violation found (never an empty `Vec`). A `Shape`
/// violation short-circuits: no further checks are meaningful when the
/// schedule does not cover the loop.
pub fn validate_schedule(
    lp: &LoopIr,
    ddg: &Ddg,
    sched: &ModuloSchedule,
    machine: &MachineModel,
) -> Result<Certificate, Vec<Violation>> {
    let n = lp.insts().len();
    if sched.len() != n || ddg.len() != n {
        return Err(vec![Violation::Shape {
            schedule_len: sched.len(),
            loop_len: n,
        }]);
    }

    let ii = i64::from(sched.ii());
    let mut violations = Vec::new();

    // 1. Shape: the `ModuloSchedule` constructor rejects negative times
    // and II = 0, but re-derive the stage count rather than trusting it.
    let derived_stages = lp
        .insts()
        .iter()
        .map(|inst| (sched.time(inst.id()) / ii) as u32 + 1)
        .max()
        .unwrap_or(1);
    if derived_stages != sched.stage_count() {
        violations.push(Violation::StageCount {
            reported: sched.stage_count(),
            derived: derived_stages,
        });
    }

    // 2. Dependences: t(from) + latency <= t(to) + II * omega.
    for e in ddg.edges() {
        let lhs = sched.time(e.from) + i64::from(e.latency);
        let rhs = sched.time(e.to) + ii * i64::from(e.omega);
        if lhs > rhs {
            violations.push(Violation::Dependence {
                from: e.from,
                to: e.to,
                latency: e.latency,
                omega: e.omega,
                excess: lhs - rhs,
            });
        }
    }

    // 3. Resources: count per-row demand from scratch. A-class ops draw
    // from M or I; Hall's condition for this two-slot bipartite structure
    // is `m <= M`, `i <= I`, `m + i + a <= M + I`.
    let res = machine.issue();
    let rows = sched.ii() as usize;
    let mut demand = vec![[0u32; 5]; rows]; // m, i, f, b, a per row
    for inst in lp.insts() {
        let row = (sched.time(inst.id()) % ii) as usize;
        let slot = match inst.unit_class() {
            UnitClass::M => 0,
            UnitClass::I => 1,
            UnitClass::F => 2,
            UnitClass::B => 3,
            UnitClass::A => 4,
        };
        demand[row][slot] += 1;
    }
    for (row, &[m, i, f, b, a]) in demand.iter().enumerate() {
        let cycle = row as u32;
        let checks: [(&'static str, u32, u32); 4] = [
            ("M", m, res.m),
            ("I", i, res.i),
            ("F", f, res.f),
            ("B", b, res.b),
        ];
        for (class, used, available) in checks {
            if used > available {
                violations.push(Violation::Resource {
                    cycle,
                    class,
                    used,
                    available,
                });
            }
        }
        if m + i + a > res.m + res.i {
            violations.push(Violation::Resource {
                cycle,
                class: "M+I",
                used: m + i + a,
                available: res.m + res.i,
            });
        }
    }

    // 4. Register names, checked against this module's own lifetimes.
    match assign_registers(lp, sched, machine) {
        Err(e) => violations.push(Violation::RegisterOverflow {
            class: e.class,
            needed: e.needed,
            available: e.available,
        }),
        Ok(names) => {
            let count = RegClass::ALL.map(|class| names.rotating_used(class));
            violations.extend(check_names(
                lp,
                sched,
                derived_stages,
                &|reg| names.name(reg),
                count,
                machine,
            ));
        }
    }

    if violations.is_empty() {
        Ok(Certificate {
            ii: sched.ii(),
            stages: derived_stages,
            edges_checked: ddg.edges().len(),
            rows_checked: sched.ii(),
        })
    } else {
        Err(violations)
    }
}

/// Checks rotating names on the space-time line: `name_of` gives each
/// loop-defined value's register offset, `count` each class's reported
/// count (see the module docs).
fn check_names(
    lp: &LoopIr,
    sched: &ModuloSchedule,
    stages: u32,
    name_of: &dyn Fn(VReg) -> Option<u32>,
    count: [u32; 3],
    machine: &MachineModel,
) -> Vec<Violation> {
    let ii = i64::from(sched.ii());
    // Inclusive slot arcs per class (GR, FR, PR); the stage predicates
    // come first in the predicate file.
    let mut arcs: [Vec<(i64, i64)>; 3] = Default::default();
    arcs[2].push((0, i64::from(stages) * ii - 1));
    for inst in lp.insts() {
        let Some(def_reg) = inst.dst() else { continue };
        let t_def = sched.time(inst.id());
        let mut t_last = t_def;
        for reader in lp.insts() {
            for s in reader.reads() {
                if s.reg == def_reg {
                    t_last = t_last.max(sched.time(reader.id()) + ii * i64::from(s.omega));
                }
            }
        }
        // An unnamed value fits inside no count.
        let name = name_of(def_reg).map_or(i64::MAX, i64::from);
        let first = name.saturating_mul(ii).saturating_add(t_def % ii);
        arcs[def_reg.class() as usize].push((first, first.saturating_add(t_last - t_def)));
    }

    let mut violations = Vec::new();
    for (k, class) in RegClass::ALL.into_iter().enumerate() {
        let available = machine.registers().rotating(class);
        if count[k] > available {
            violations.push(Violation::RegisterOverflow {
                class,
                needed: count[k],
                available,
            });
        }
        arcs[k].sort_unstable();
        let mut reach = -1;
        for &(first, last) in &arcs[k] {
            if first <= reach {
                violations.push(Violation::RegisterClash {
                    class,
                    register: u32::try_from(first / ii).unwrap_or(u32::MAX),
                    cycle: (first % ii) as u32,
                });
            }
            reach = reach.max(last);
        }
        if reach >= i64::from(count[k]) * ii {
            violations.push(Violation::RegisterOverflow {
                class,
                needed: u32::try_from(reach / ii + 1).unwrap_or(u32::MAX),
                available: count[k],
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_pipeliner::ModuloScheduler;

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
    fn certifies_the_heuristic_schedule() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let sched = ModuloScheduler::new(&lp, &m, &ddg)
            .schedule_at(1, 8)
            .unwrap();
        let cert = validate_schedule(&lp, &ddg, &sched, &m).unwrap();
        assert_eq!(cert.ii, 1);
        assert_eq!(cert.stages, 3);
        assert!(cert.edges_checked >= 4);
    }

    #[test]
    fn rejects_dependence_violation() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        // ld at 0, add at 0 violates the 1-cycle load edge.
        let sched = ModuloSchedule::new(1, vec![0, 0, 2]);
        let v = validate_schedule(&lp, &ddg, &sched, &m).unwrap_err();
        assert!(v.iter().any(|x| x.kind() == "dependence"), "{v:?}");
    }

    #[test]
    fn rejects_oversubscribed_row() {
        // 3 loads in one row of a 2-M-slot machine.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mem");
        for k in 0..3u64 {
            let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        let lp = b.build().unwrap();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let sched = ModuloSchedule::new(2, vec![0, 0, 0]);
        let v = validate_schedule(&lp, &ddg, &sched, &m).unwrap_err();
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::Resource {
                    cycle: 0,
                    class: "M",
                    used: 3,
                    available: 2
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn rejects_register_overflow() {
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
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let sched = ModuloScheduler::new(&lp, &m, &ddg)
            .schedule_at(1, 8)
            .unwrap();
        // The schedule needs 4 rotating GRs; the tight machine has 2.
        let v = validate_schedule(&lp, &ddg, &sched, &tight).unwrap_err();
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::RegisterOverflow {
                    class: RegClass::Gr,
                    needed: 4,
                    available: 2
                }
            )),
            "{v:?}"
        );
    }

    /// The running example at II 1 with the allocator's names: the load's
    /// value is named 0 and lives through slot 1, the sum is named 2.
    fn named_example() -> (LoopIr, ModuloSchedule, ltsp_pipeliner::RegisterAssignment) {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let sched = ModuloScheduler::new(&lp, &m, &ddg)
            .schedule_at(1, 8)
            .unwrap();
        let names = assign_registers(&lp, &sched, &m).unwrap();
        (lp, sched, names)
    }

    #[test]
    fn rejects_names_that_share_a_cycle() {
        let m = MachineModel::itanium2();
        let (lp, sched, names) = named_example();
        let count = RegClass::ALL.map(|c| names.rotating_used(c));
        assert!(check_names(&lp, &sched, 3, &|r| names.name(r), count, &m).is_empty());
        // Name 1 puts the sum in register 1 while the load's value is
        // still there, at kernel cycle 0.
        let sum = lp.insts()[1].dst().unwrap();
        let forged = |r| if r == sum { Some(1) } else { names.name(r) };
        let v = check_names(&lp, &sched, 3, &forged, count, &m);
        assert_eq!(
            v,
            [Violation::RegisterClash {
                class: RegClass::Gr,
                register: 1,
                cycle: 0
            }]
        );
    }

    #[test]
    fn rejects_names_past_the_count() {
        let m = MachineModel::itanium2();
        let (lp, sched, names) = named_example();
        let mut count = RegClass::ALL.map(|c| names.rotating_used(c));
        count[0] -= 1;
        let v = check_names(&lp, &sched, 3, &|r| names.name(r), count, &m);
        assert_eq!(
            v,
            [Violation::RegisterOverflow {
                class: RegClass::Gr,
                needed: 4,
                available: 3
            }]
        );
    }

    #[test]
    fn shape_mismatch_short_circuits() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let sched = ModuloSchedule::new(1, vec![0, 1]);
        let v = validate_schedule(&lp, &ddg, &sched, &m).unwrap_err();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "shape");
    }
}
