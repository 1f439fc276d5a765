//! Iterative modulo scheduling (Rau, MICRO-27) and the acyclic fallback.

use std::cell::RefCell;

use ltsp_ddg::{Ddg, MinDistSolver};
use ltsp_ir::{InstId, LoopIr};
use ltsp_machine::MachineModel;

use crate::mrt::{free_slot, Mrt};
use crate::schedule::ModuloSchedule;

/// Why an attempt to schedule at a particular II failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleFailure {
    /// A recurrence cycle makes this II infeasible outright.
    InfeasibleIi,
    /// The eviction budget ran out before a fixed point was reached.
    BudgetExhausted,
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleFailure::InfeasibleIi => write!(f, "II infeasible for recurrences"),
            ScheduleFailure::BudgetExhausted => write!(f, "scheduling budget exhausted"),
        }
    }
}

impl std::error::Error for ScheduleFailure {}

/// Iterative modulo scheduler over a prepared dependence graph.
///
/// The DDG's edge latencies already reflect the latency-tolerance policy
/// (non-critical hinted loads carry their boosted latencies), so the
/// scheduler itself is policy-agnostic.
#[derive(Debug)]
pub struct ModuloScheduler<'a> {
    lp: &'a LoopIr,
    machine: &'a MachineModel,
    ddg: &'a Ddg,
    /// Buffers and the heights solver, reused across every
    /// `schedule_at` call (the II escalation ladder calls it many times
    /// per loop). Interior mutability keeps `schedule_at(&self)` — the
    /// scratch never leaks into results.
    scratch: RefCell<SchedScratch>,
}

/// Reusable per-scheduler working state: the heights solver's topological
/// order is built once (on the first attempt), and the per-attempt vectors
/// and MRT keep their allocations across II escalation.
#[derive(Debug, Default)]
struct SchedScratch {
    solver: Option<MinDistSolver>,
    heights: Vec<i64>,
    time: Vec<Option<i64>>,
    last_time: Vec<i64>,
    mrt: Option<Mrt>,
    /// Lazy-deletion priority queue over unscheduled ops, ordered
    /// exactly like the original linear scan: height descending, id
    /// ascending. Entries for ops that got scheduled meanwhile are
    /// skipped on pop; unscheduling pushes a fresh entry.
    queue: std::collections::BinaryHeap<(i64, std::cmp::Reverse<usize>)>,
}

impl<'a> ModuloScheduler<'a> {
    /// Creates a scheduler for one loop.
    pub fn new(lp: &'a LoopIr, machine: &'a MachineModel, ddg: &'a Ddg) -> Self {
        ModuloScheduler {
            lp,
            machine,
            ddg,
            scratch: RefCell::new(SchedScratch::default()),
        }
    }

    /// Attempts to find a kernel schedule at exactly `ii`.
    ///
    /// Height-based priority: operations feeding the longest dependence
    /// chains schedule first. Each operation gets its earliest start from
    /// already-scheduled predecessors, then the II consecutive slots from
    /// there are probed in the reservation table; if none fits, the
    /// operation is placed by force (evicting the most recently placed
    /// conflicting occupant, preferring a relocatable A-class one — see
    /// `Mrt::place_forced`) at `max(estart, previous placement + 1)` to
    /// guarantee progress. Dependence-violated successors are
    /// unscheduled. The total number of placements is bounded by
    /// `budget_factor × n`; an empty loop body yields an empty schedule
    /// even at budget 0.
    ///
    /// # Errors
    ///
    /// [`ScheduleFailure::InfeasibleIi`] when a recurrence exceeds `ii`;
    /// [`ScheduleFailure::BudgetExhausted`] when placement thrashes.
    pub fn schedule_at(
        &self,
        ii: u32,
        budget_factor: u32,
    ) -> Result<ModuloSchedule, ScheduleFailure> {
        if !self.ddg.feasible_ii(ii) {
            return Err(ScheduleFailure::InfeasibleIi);
        }
        let n = self.lp.insts().len();
        if n == 0 {
            // Unreachable through the IR (validation rejects empty
            // loops), but the zero budget below must not misreport an
            // empty body as exhaustion.
            return Ok(ModuloSchedule::new(ii, Vec::new()));
        }
        let mut scratch = self.scratch.borrow_mut();
        let SchedScratch {
            solver,
            heights,
            time,
            last_time,
            mrt,
            queue,
        } = &mut *scratch;
        let solver = solver.get_or_insert_with(|| MinDistSolver::new(self.ddg));
        solver.heights_into(self.ddg, ii, heights);

        time.clear();
        time.resize(n, None);
        last_time.clear();
        last_time.resize(n, -1);
        let mrt = match mrt {
            Some(m) => {
                m.reset(ii, *self.machine.issue());
                m
            }
            None => mrt.insert(Mrt::new(ii, *self.machine.issue())),
        };
        let mut budget = u64::from(budget_factor) * n as u64;
        queue.clear();
        queue.extend((0..n).map(|i| (heights[i], std::cmp::Reverse(i))));

        loop {
            // Highest-priority unscheduled op (height desc, id asc).
            // Scheduled ops may have stale queue entries; skip them.
            let next = loop {
                match queue.pop() {
                    Some((_, std::cmp::Reverse(i))) if time[i].is_some() => continue,
                    Some((_, std::cmp::Reverse(i))) => break Some(i),
                    None => break None,
                }
            };
            let Some(op_idx) = next else {
                break;
            };
            if budget == 0 {
                return Err(ScheduleFailure::BudgetExhausted);
            }
            budget -= 1;

            let op = InstId(op_idx as u32);
            let class = self.lp.inst(op).unit_class();

            // Earliest start from scheduled predecessors.
            let mut estart: i64 = 0;
            for e in self.ddg.preds(op) {
                if e.from == op {
                    continue; // self-recurrences are honored by feasible_ii
                }
                if let Some(tp) = time[e.from.index()] {
                    let lb = tp + i64::from(e.latency) - i64::from(ii) * i64::from(e.omega);
                    estart = estart.max(lb);
                }
            }

            // Probe II consecutive slots, then force.
            let mut placed_at: Option<i64> = None;
            for t in estart..estart + i64::from(ii) {
                if mrt.fits(t, class) {
                    placed_at = Some(t);
                    break;
                }
            }
            let t = placed_at.unwrap_or_else(|| estart.max(last_time[op_idx] + 1));

            if let Some(victim) = mrt.place_forced(op, t, class) {
                debug_assert!(
                    time[victim.index()].is_some(),
                    "evicted instruction was scheduled"
                );
                time[victim.index()] = None;
                queue.push((heights[victim.index()], std::cmp::Reverse(victim.index())));
            }
            time[op_idx] = Some(t);
            last_time[op_idx] = t;

            // Unschedule successors whose dependence is now violated.
            for e in self.ddg.succs(op) {
                if e.to == op {
                    continue;
                }
                if let Some(ts) = time[e.to.index()] {
                    let lb = t + i64::from(e.latency) - i64::from(ii) * i64::from(e.omega);
                    if lb > ts {
                        mrt.remove(e.to, ts);
                        time[e.to.index()] = None;
                        queue.push((heights[e.to.index()], std::cmp::Reverse(e.to.index())));
                    }
                }
            }
        }

        let times: Vec<i64> = time.iter().map(|t| t.expect("all scheduled")).collect();
        debug_assert!(self.verify(ii, &times), "schedule violates dependences");
        Ok(ModuloSchedule::new(ii, times))
    }

    /// Checks every dependence edge under the modulo constraint.
    fn verify(&self, ii: u32, times: &[i64]) -> bool {
        self.ddg.edges().iter().all(|e| {
            let lhs = times[e.from.index()] + i64::from(e.latency);
            let rhs = times[e.to.index()] + i64::from(ii) * i64::from(e.omega);
            lhs <= rhs
        })
    }
}

/// Greedy acyclic list schedule used when pipelining is rejected: the loop
/// body is scheduled once, respecting same-iteration dependences and issue
/// resources, and iterations do not overlap. Returned as a [`ModuloSchedule`]
/// whose II equals the schedule length (a single-stage "pipeline"), which
/// the simulator executes as an ordinary, non-pipelined loop.
pub fn acyclic_schedule(lp: &LoopIr, machine: &MachineModel, ddg: &Ddg) -> ModuloSchedule {
    let n = lp.insts().len();
    let res = machine.issue();
    // Taken slots per cycle (`[M, I, F, B]`), grown as placement reaches
    // later cycles: at most one row per cycle of the schedule.
    let mut rows: Vec<[u32; 4]> = Vec::new();
    let mut time: Vec<Option<i64>> = vec![None; n];

    // Repeatedly place any op whose same-iteration predecessors are done
    // (the IR validator guarantees omega-0 acyclicity).
    let mut remaining = n;
    while remaining > 0 {
        let mut progressed = false;
        for idx in 0..n {
            if time[idx].is_some() {
                continue;
            }
            let op = InstId(idx as u32);
            // Earliest start, or `None` while a predecessor is unplaced.
            let estart = ddg
                .preds(op)
                .filter(|e| e.omega == 0 && e.from != op)
                .try_fold(0i64, |t, e| {
                    time[e.from.index()].map(|tp| t.max(tp + i64::from(e.latency)))
                });
            let Some(mut t) = estart else {
                continue;
            };
            let class = lp.inst(op).unit_class();
            let slot = loop {
                let row = t as usize;
                if row >= rows.len() {
                    rows.resize(row + 1, [0; 4]);
                }
                if let Some(slot) = free_slot(rows[row], res, class) {
                    break slot;
                }
                t += 1;
            };
            rows[t as usize][slot.idx()] += 1;
            time[idx] = Some(t);
            remaining -= 1;
            progressed = true;
        }
        assert!(progressed, "omega-0 dependences are acyclic by validation");
    }

    let times: Vec<i64> = time.into_iter().map(|t| t.expect("all placed")).collect();
    let len = times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            // Include the producing latency so the loop "length" covers
            // in-flight results (coarse; the simulator measures reality).
            let lat: i64 = ddg
                .succs(InstId(i as u32))
                .filter(|e| e.omega == 0)
                .map(|e| i64::from(e.latency))
                .max()
                .unwrap_or(1);
            t + lat.max(1)
        })
        .max()
        .unwrap_or(1);
    ModuloSchedule::new(len.max(1) as u32, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};

    fn ddg_with(lp: &LoopIr, m: &MachineModel, boost: u32) -> Ddg {
        Ddg::build_with_load_floor(lp, m, boost)
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
    fn running_example_schedules_at_ii_1() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = ddg_with(&lp, &m, 0);
        let sched = ModuloScheduler::new(&lp, &m, &ddg)
            .schedule_at(1, 8)
            .unwrap();
        assert_eq!(sched.ii(), 1);
        // ld at 0, add at 1, st at 2 -> 3 stages (paper Fig. 2/3).
        assert_eq!(sched.stage_count(), 3);
    }

    #[test]
    fn boosted_load_grows_stages_not_ii() {
        // Scheduling the load for latency 3 (d = 2) gives 5 stages at the
        // same II (paper Fig. 4).
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = ddg_with(&lp, &m, 3);
        let sched = ModuloScheduler::new(&lp, &m, &ddg)
            .schedule_at(1, 8)
            .unwrap();
        assert_eq!(sched.ii(), 1);
        assert_eq!(sched.stage_count(), 5);
    }

    #[test]
    fn infeasible_ii_rejected() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd_reduce(v);
        let lp = b.build().unwrap();
        let ddg = ddg_with(&lp, &m, 0);
        let sch = ModuloScheduler::new(&lp, &m, &ddg);
        assert_eq!(
            sch.schedule_at(3, 8).unwrap_err(),
            ScheduleFailure::InfeasibleIi
        );
        assert!(sch.schedule_at(4, 8).is_ok());
    }

    #[test]
    fn resource_bound_loop_respects_mrt() {
        // 6 independent loads on 2 M slots: II 3 works, II 2 cannot.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mem");
        for k in 0..6u64 {
            let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        let lp = b.build().unwrap();
        let ddg = ddg_with(&lp, &m, 0);
        let sch = ModuloScheduler::new(&lp, &m, &ddg);
        let s3 = sch.schedule_at(3, 8).unwrap();
        assert_eq!(s3.ii(), 3);
        // At II 2 the MRT can never hold 6 M ops; budget runs out.
        assert_eq!(
            sch.schedule_at(2, 8).unwrap_err(),
            ScheduleFailure::BudgetExhausted
        );
    }

    #[test]
    fn schedule_respects_all_edges_property() {
        // A denser loop: dot-product with two streams and a reduction.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("dot");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let y = b.affine_ref("y", DataClass::Fp, 1 << 24, 8, 8);
        let vx = b.load(x);
        let vy = b.load(y);
        let _acc = b.fma_reduce(vx, vy);
        let lp = b.build().unwrap();
        let ddg = ddg_with(&lp, &m, 6);
        let sch = ModuloScheduler::new(&lp, &m, &ddg);
        // RecMII = 4 (fma self-dep); schedule there.
        let s = sch.schedule_at(4, 8).unwrap();
        for e in ddg.edges() {
            assert!(
                s.time(e.from) + i64::from(e.latency) <= s.time(e.to) + i64::from(4 * e.omega),
                "edge {:?} violated",
                e
            );
        }
    }

    #[test]
    fn empty_loops_cannot_reach_the_scheduler() {
        // The `budget = budget_factor × n = 0` edge case is unreachable
        // through the IR: validation rejects an empty body outright.
        let b = LoopBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), ltsp_ir::IrError::EmptyLoop);
        // And the defensive path yields an empty schedule, not
        // BudgetExhausted, if a synthetic caller ever hits it.
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = ddg_with(&lp, &m, 0);
        let sch = ModuloScheduler::new(&lp, &m, &ddg);
        let s = sch.schedule_at(1, 0);
        assert_eq!(s.unwrap_err(), ScheduleFailure::BudgetExhausted);
    }

    #[test]
    fn trivial_loop_schedules_with_minimal_budget() {
        // A single-instruction body must schedule on the first placement:
        // budget_factor 1 gives budget 1 = exactly enough.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("one");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let _ = b.load(x);
        let lp = b.build().unwrap();
        let ddg = ddg_with(&lp, &m, 0);
        let s = ModuloScheduler::new(&lp, &m, &ddg)
            .schedule_at(1, 1)
            .unwrap();
        assert_eq!(s.ii(), 1);
        assert_eq!(s.time(InstId(0)), 0);
    }

    #[test]
    fn repeated_schedule_at_calls_are_deterministic() {
        // The scratch-reusing scheduler must give identical results on
        // repeated and out-of-order II attempts (escalation replays).
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("dot");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let y = b.affine_ref("y", DataClass::Fp, 1 << 24, 8, 8);
        let vx = b.load(x);
        let vy = b.load(y);
        let _acc = b.fma_reduce(vx, vy);
        let lp = b.build().unwrap();
        let ddg = ddg_with(&lp, &m, 6);
        let warm = ModuloScheduler::new(&lp, &m, &ddg);
        for ii in [4u32, 6, 5, 4, 8, 4] {
            let fresh = ModuloScheduler::new(&lp, &m, &ddg);
            let a = warm.schedule_at(ii, 8).unwrap();
            let b = fresh.schedule_at(ii, 8).unwrap();
            assert_eq!(a.ii(), b.ii(), "ii={ii}");
            let at: Vec<i64> = (0..3).map(|i| a.time(InstId(i))).collect();
            let bt: Vec<i64> = (0..3).map(|i| b.time(InstId(i))).collect();
            assert_eq!(at, bt, "ii={ii}: warm scratch diverged from fresh");
        }
    }

    #[test]
    fn acyclic_fallback_is_dependence_correct() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = ddg_with(&lp, &m, 0);
        let s = acyclic_schedule(&lp, &m, &ddg);
        assert_eq!(s.stage_count(), 1, "no overlap in the fallback");
        // ld(1) -> add at >= 1 -> st at >= 2.
        assert!(s.time(InstId(1)) > s.time(InstId(0)));
        assert!(s.time(InstId(2)) > s.time(InstId(1)));
        assert!(s.ii() >= 3);
    }

    /// The list schedule `acyclic_schedule` replaced, kept as its referee:
    /// a modulo table whose II is a horizon no schedule reaches (the sum
    /// of all edge latencies plus one cycle per op), so it never wraps.
    fn acyclic_schedule_on_horizon_mrt(
        lp: &LoopIr,
        machine: &MachineModel,
        ddg: &Ddg,
    ) -> ModuloSchedule {
        let n = lp.insts().len();
        // Horizon: generous upper bound on the schedule length.
        let horizon: i64 = ddg
            .edges()
            .iter()
            .map(|e| i64::from(e.latency))
            .sum::<i64>()
            + n as i64
            + 1;
        let mut mrt = Mrt::new(horizon as u32, *machine.issue());
        let mut time: Vec<Option<i64>> = vec![None; n];

        // Repeatedly place any op whose same-iteration predecessors are done
        // (the IR validator guarantees omega-0 acyclicity).
        let mut remaining = n;
        while remaining > 0 {
            let mut progressed = false;
            for idx in 0..n {
                if time[idx].is_some() {
                    continue;
                }
                let op = InstId(idx as u32);
                let ready = ddg
                    .preds(op)
                    .filter(|e| e.omega == 0 && e.from != op)
                    .all(|e| time[e.from.index()].is_some());
                if !ready {
                    continue;
                }
                let mut estart: i64 = 0;
                for e in ddg.preds(op) {
                    if e.omega == 0 && e.from != op {
                        let tp = time[e.from.index()].expect("checked ready");
                        estart = estart.max(tp + i64::from(e.latency));
                    }
                }
                let class = lp.inst(op).unit_class();
                let mut t = estart;
                while !mrt.fits(t, class) {
                    t += 1;
                }
                assert!(mrt.place(op, t, class), "fits() said the slot was free");
                time[idx] = Some(t);
                remaining -= 1;
                progressed = true;
            }
            assert!(progressed, "omega-0 dependences are acyclic by validation");
        }

        let times: Vec<i64> = time.into_iter().map(|t| t.expect("all placed")).collect();
        let len = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                // Include the producing latency so the loop "length" covers
                // in-flight results (coarse; the simulator measures reality).
                let lat: i64 = ddg
                    .succs(InstId(i as u32))
                    .filter(|e| e.omega == 0)
                    .map(|e| i64::from(e.latency))
                    .max()
                    .unwrap_or(1);
                t + lat.max(1)
            })
            .max()
            .unwrap_or(1);
        ModuloSchedule::new(len.max(1) as u32, times)
    }

    /// `n` stores of one live-in value to one stride-0 reference.
    fn store_fan(n: usize) -> LoopIr {
        let mut b = LoopBuilder::new(format!("fan{n}"));
        let v = b.live_in_fr("v");
        let x = b.affine_ref("x", DataClass::Fp, 0x1000, 0, 8);
        for _ in 0..n {
            b.store(x, v);
        }
        b.build().unwrap()
    }

    /// Same-iteration reads of values defined later in the body: `i0`
    /// reads `i3` (which reads `i2`) and `i1` reads `i0`, so the list
    /// schedule needs a second sweep to place them.
    fn backward_reads() -> LoopIr {
        use ltsp_ir::{Inst, Opcode, RegClass, VReg};
        let g = |r| VReg::new(RegClass::Gr, r);
        let add = |id, dst, src: VReg| {
            Inst::new(InstId(id), Opcode::Add, Some(g(dst)), &[src.into()], None)
        };
        let insts = vec![
            add(0, 1, g(4)),
            add(1, 2, g(1)),
            add(2, 3, g(0)),
            add(3, 4, g(3)),
        ];
        LoopIr::new("backward", insts, vec![], vec![], vec![g(0)]).unwrap()
    }

    #[test]
    fn acyclic_schedule_matches_the_horizon_table() {
        use ltsp_workloads::{kernel_library, random_loop, scheduling_heavy};
        let m = MachineModel::itanium2();
        let mut loops: Vec<LoopIr> = kernel_library().into_iter().map(|(_, lp)| lp).collect();
        loops.extend((0..470).map(random_loop));
        for s in 3..=5 {
            loops.extend((9..=20).map(|d| scheduling_heavy(&format!("heavy{s}x{d}"), s, d)));
        }
        loops.extend([1, 2, 3, 64, 1000].map(store_fan));
        loops.push(backward_reads());
        for lp in &loops {
            for boost in [0, 21] {
                let ddg = ddg_with(lp, &m, boost);
                assert_eq!(
                    acyclic_schedule(lp, &m, &ddg),
                    acyclic_schedule_on_horizon_mrt(lp, &m, &ddg),
                    "{} boost {boost}",
                    lp.name()
                );
            }
        }
    }
}
