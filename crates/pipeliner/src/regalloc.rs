//! Rotating register allocation for pipelined loops.
//!
//! One sweep names every loop-defined value, and every count comes from
//! it. Rotation makes a rotating file a *space-time* line (Rau, Lee,
//! Tirumalai & Schlansker, PLDI 1992): name `X` at kernel cycle `c` is
//! slot `X·II + c`, and every iteration's instance of a value defined at
//! `t_def` and last read at `t_last` covers the same run of slots,
//! `X·II + (t_def mod II)` through `t_last − t_def` slots further on. An
//! unread value holds its name only at its issue cycle, which is what the
//! paper's sum already charges it. The sweep lays these runs end to end,
//! values after the stage predicates (one per stage, names
//! `0 .. stages`), so no two instances ever share a register in a cycle.
//!
//! The count of a class is the larger of the paper's charge (Sec. 1.1:
//! `⌊lifetime/II⌋ + 1` consecutive registers per value) and the registers
//! the names span. The paper's sum stays the count's floor, so the
//! fallback ladder decides as the paper does, and what it accepts can
//! always be named.

use std::error::Error;
use std::fmt;

use ltsp_ddg::{Ddg, DepKind};
use ltsp_ir::{LoopIr, RegClass};
use ltsp_machine::MachineModel;

use crate::schedule::ModuloSchedule;

/// Successful rotating-register allocation with per-class usage counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegAllocation {
    /// Rotating general registers used.
    pub rotating_gr: u32,
    /// Rotating FP registers used.
    pub rotating_fr: u32,
    /// Rotating predicate registers used (includes stage predicates).
    pub rotating_pr: u32,
    /// Non-rotating (static) GRs for loop-invariant live-ins.
    pub static_gr: u32,
    /// Non-rotating FP registers for loop-invariant live-ins.
    pub static_fr: u32,
    /// Pipeline stages, hence stage predicates.
    pub stages: u32,
}

impl RegAllocation {
    /// Rotating registers used for a class.
    pub fn rotating(&self, class: RegClass) -> u32 {
        match class {
            RegClass::Gr => self.rotating_gr,
            RegClass::Fr => self.rotating_fr,
            RegClass::Pr => self.rotating_pr,
        }
    }

    /// All registers (rotating + static) used for a class.
    pub fn total(&self, class: RegClass) -> u32 {
        match class {
            RegClass::Gr => self.rotating_gr + self.static_gr,
            RegClass::Fr => self.rotating_fr + self.static_fr,
            RegClass::Pr => self.rotating_pr,
        }
    }
}

/// Rotating-register demand exceeded the machine's supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegAllocError {
    /// The class that overflowed.
    pub class: RegClass,
    /// Registers demanded.
    pub needed: u32,
    /// Rotating registers available.
    pub available: u32,
}

impl fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rotating {} allocation failed: need {}, have {}",
            self.class, self.needed, self.available
        )
    }
}

impl Error for RegAllocError {}

/// A lower bound on the rotating registers any schedule of `lp` at `ii`
/// needs, per class in [`RegClass::ALL`] order, from the dependence graph
/// alone: `Σ_v (⌊L_v / ii⌋ + 1)` over the values the loop defines, where
/// `L_v` is the largest flow-edge latency out of `v`'s definition, plus
/// the one stage predicate every pipeline has.
///
/// Sound because a legal schedule places every use at
/// `t_use + ii·ω ≥ t_def + latency`, and that difference is exactly the
/// lifetime [`allocate_rotating`] charges; raising a load's latency only
/// lengthens it, so the bound computed on the base-latency graph holds for
/// boosted schedules too. It is non-increasing in `ii`.
///
/// # Panics
///
/// Panics if `ii == 0`.
pub fn register_floor(lp: &LoopIr, ddg: &Ddg, ii: u32) -> [u32; 3] {
    let mut floor = [0, 0, 1];
    for inst in lp.insts() {
        if let Some(d) = inst.dst() {
            let longest = ddg
                .succs(inst.id())
                .filter(|e| e.kind == DepKind::Flow)
                .map(|e| e.latency)
                .max()
                .unwrap_or(0);
            floor[d.class() as usize] += longest / ii + 1;
        }
    }
    floor
}

/// The first class whose `demand` (in [`RegClass::ALL`] order) exceeds
/// the machine's rotating supply.
pub(crate) fn overflow(demand: [u32; 3], machine: &MachineModel) -> Option<RegAllocError> {
    RegClass::ALL
        .into_iter()
        .zip(demand)
        .find_map(|(class, needed)| {
            let available = machine.registers().rotating(class);
            (needed > available).then_some(RegAllocError {
                class,
                needed,
                available,
            })
        })
}

/// Allocates rotating registers for a scheduled loop.
///
/// For every value defined in the loop, the lifetime runs from its
/// definition's issue time to the latest read, where a read through a
/// loop-carried operand of distance `omega` happens `omega · II` cycles
/// later in absolute time. The paper charges each value
/// `floor(lifetime / II) + 1` consecutive rotating registers, and each
/// stage one predicate. A class is allocated the larger of that sum and
/// the registers its names span (see the module docs).
///
/// # Errors
///
/// Returns [`RegAllocError`] for the first class whose count exceeds the
/// rotating supply; the pipeliner then walks its fallback ladder (drop
/// latency boosts, then raise the II — both shrink lifetimes).
pub fn allocate_rotating(
    lp: &LoopIr,
    sched: &ModuloSchedule,
    machine: &MachineModel,
) -> Result<RegAllocation, RegAllocError> {
    allocate_names(lp, sched, machine).map(|(alloc, _)| alloc)
}

/// [`allocate_rotating`] with the names: entry `i` is the offset, within
/// its class's rotating area, of the register instruction `i` writes
/// (meaningless for instructions without a destination).
pub(crate) fn allocate_names(
    lp: &LoopIr,
    sched: &ModuloSchedule,
    machine: &MachineModel,
) -> Result<(RegAllocation, Vec<u32>), RegAllocError> {
    let ii = i64::from(sched.ii());
    // Lifetime of the value each instruction defines, indexed by the
    // defining instruction: last absolute read time minus definition
    // time; an unread value dies at its definition.
    let mut lifetime = vec![0i64; lp.insts().len()];
    for inst in lp.insts() {
        let t_use = sched.time(inst.id());
        for s in inst.reads() {
            // No definition in the loop: a live-in, in a static register.
            if let Some(def) = lp.def_of(s.reg) {
                let span = t_use + ii * i64::from(s.omega) - sched.time(def);
                let l = &mut lifetime[def.index()];
                *l = (*l).max(span);
            }
        }
    }

    let stages = sched.stage_count();
    let mut used = [0, 0, stages]; // in `RegClass::ALL` order
    for inst in lp.insts() {
        if let Some(d) = inst.dst() {
            used[d.class() as usize] += (lifetime[inst.id().index()] / ii) as u32 + 1;
        }
    }
    // Fail fast: a rung the paper's sum rejects costs no naming.
    if let Some(e) = overflow(used, machine) {
        return Err(e);
    }
    let (names, extent) = name_values(lp, sched, stages, &lifetime);
    for (u, e) in used.iter_mut().zip(extent) {
        *u = (*u).max(e);
    }
    if let Some(e) = overflow(used, machine) {
        return Err(e);
    }

    let statics = |class| lp.live_in().iter().filter(|r| r.class() == class).count() as u32;
    let alloc = RegAllocation {
        rotating_gr: used[0],
        rotating_fr: used[1],
        rotating_pr: used[2],
        static_gr: statics(RegClass::Gr),
        static_fr: statics(RegClass::Fr),
        stages,
    };
    Ok((alloc, names))
}

/// The end-fit sweep along each class's space-time line. Values are
/// bucketed by `t_def mod II`; the sweep repeatedly places the value
/// whose residue comes soonest after the frontier (definition order
/// within a residue), at the first slot of that residue at or past the
/// frontier, and moves the frontier one slot past the value's last read.
/// Returns each defining instruction's name and, per class, the
/// registers the names span.
fn name_values(
    lp: &LoopIr,
    sched: &ModuloSchedule,
    stages: u32,
    lifetime: &[i64],
) -> (Vec<u32>, [u32; 3]) {
    let ii = sched.ii() as usize;
    // Counting sort of the defined values into buckets by class, then
    // residue; a bucket keeps definition order. Flat arrays rather than a
    // queue per bucket: this runs on every rung the ladder accepts.
    let bucket: Vec<Option<usize>> = lp
        .insts()
        .iter()
        .map(|inst| Some(inst.dst()?.class() as usize * ii + sched.time(inst.id()) as usize % ii))
        .collect();
    let mut start = vec![0; 3 * ii + 1];
    for &b in bucket.iter().flatten() {
        start[b + 1] += 1;
    }
    for b in 0..3 * ii {
        start[b + 1] += start[b];
    }
    // Filled back to front, `next[b]` ends at `start[b]`: bucket `b`'s
    // unplaced values are `order[next[b]..start[b + 1]]`.
    let mut next = start[1..].to_vec();
    let mut order = vec![0; start[3 * ii]];
    for (inst, b) in bucket.iter().enumerate().rev() {
        if let Some(b) = *b {
            next[b] -= 1;
            order[next[b]] = inst;
        }
    }

    let mut names = vec![0; lp.insts().len()];
    let mut extent = [0; 3];
    for class in RegClass::ALL {
        let base = class as usize * ii;
        // The frontier, as register `reg` at kernel cycle `col`.
        let (mut reg, mut col) = match class {
            RegClass::Pr => (stages, 0),
            _ => (0, 0),
        };
        for _ in start[base]..start[base + ii] {
            let r = (col..ii)
                .chain(0..col)
                .find(|&r| next[base + r] < start[base + r + 1])
                .expect("an unplaced value remains");
            let inst = order[next[base + r]];
            next[base + r] += 1;
            let name = reg + u32::from(r < col);
            names[inst] = name;
            let end = r + lifetime[inst] as usize + 1;
            reg = name + (end / ii) as u32;
            col = end % ii;
        }
        extent[class as usize] = reg + u32::from(col > 0);
    }
    (names, extent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ddg::Ddg;
    use ltsp_ir::{DataClass, LoopBuilder};

    use crate::scheduler::ModuloScheduler;

    fn schedule(lp: &LoopIr, m: &MachineModel, boost: u32, ii: u32) -> ModuloSchedule {
        let ddg = Ddg::build_with_load_floor(lp, m, boost);
        ModuloScheduler::new(lp, m, &ddg)
            .schedule_at(ii, 8)
            .unwrap()
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
    fn paper_example_register_counts() {
        // II=1, ld@0 -> add@1 -> st@2: load value spans 1 cycle -> 2 regs?
        // Lifetime: def at 0, read at 1 -> span 1, regs = 1/1+1 = 2... the
        // paper's Fig. 3 uses r32 (written) read as r33 next iteration:
        // exactly 2 rotating names touched, 1 live at a time plus the
        // in-flight one. Our accounting charges floor(span/II)+1 = 2.
        let m = MachineModel::itanium2();
        let lp = running_example();
        let sched = schedule(&lp, &m, 0, 1);
        let a = allocate_rotating(&lp, &sched, &m).unwrap();
        assert_eq!(a.stages, 3);
        // load value: 2, add value: 2 -> 4 rotating GRs.
        assert_eq!(a.rotating_gr, 4);
        assert_eq!(a.rotating_pr, 3, "one stage predicate per stage");
        assert_eq!(a.static_gr, 1, "live-in constant");
    }

    #[test]
    fn boosting_grows_register_pressure() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let base = allocate_rotating(&lp, &schedule(&lp, &m, 0, 1), &m).unwrap();
        let boosted = allocate_rotating(&lp, &schedule(&lp, &m, 21, 1), &m).unwrap();
        assert!(boosted.rotating_gr > base.rotating_gr);
        assert!(boosted.stages > base.stages);
        assert!(boosted.rotating_pr > base.rotating_pr);
    }

    #[test]
    fn higher_ii_shrinks_pressure() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let at1 = allocate_rotating(&lp, &schedule(&lp, &m, 21, 1), &m).unwrap();
        let at4 = allocate_rotating(&lp, &schedule(&lp, &m, 21, 4), &m).unwrap();
        assert!(at4.rotating_gr <= at1.rotating_gr);
        assert!(at4.rotating_pr <= at1.rotating_pr);
    }

    #[test]
    fn overflow_is_reported() {
        // Many parallel FP loads boosted hard at II=1 overflow the FP file:
        // each value spans ~165 cycles -> ~166 regs each.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("big");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _s = b.fadd(v, v);
        let lp = b.build().unwrap();
        let sched = schedule(&lp, &m, 165, 1);
        let err = allocate_rotating(&lp, &sched, &m).unwrap_err();
        assert_eq!(err.class, RegClass::Fr);
        assert!(err.needed > err.available);
        let msg = err.to_string();
        assert!(msg.contains("FR"), "{msg}");
    }

    #[test]
    fn floor_is_what_the_tightest_schedule_charges() {
        // ld (1 cycle) -> add (1 cycle) -> st: at II 1 each value lives one
        // cycle and takes two registers, which the schedule achieves; from
        // II 2 on one register each. One stage predicate always.
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        assert_eq!(register_floor(&lp, &ddg, 1), [4, 0, 1]);
        assert_eq!(register_floor(&lp, &ddg, 2), [2, 0, 1]);
        let a = allocate_rotating(&lp, &schedule(&lp, &m, 0, 1), &m).unwrap();
        assert_eq!(a.rotating_gr, 4);
        // On a boosted graph the load's value lives 21 cycles: 21/4 + 1
        // registers at II 4, plus one for the sum.
        let boosted = Ddg::build_with_load_floor(&lp, &m, 21);
        assert_eq!(register_floor(&lp, &boosted, 4), [7, 0, 1]);
    }

    #[test]
    fn dead_value_needs_one_register() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("dead");
        let x = b.affine_ref("x", DataClass::Int, 0, 4, 4);
        let _v = b.load(x); // value never read
        let lp = b.build().unwrap();
        let sched = schedule(&lp, &m, 0, 1);
        let a = allocate_rotating(&lp, &sched, &m).unwrap();
        assert_eq!(a.rotating_gr, 1);
    }
}
