//! The result of modulo scheduling: a kernel schedule.

use ltsp_ir::{InstId, LoopIr};

/// One instruction's position in the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSlot {
    /// The instruction.
    pub inst: InstId,
    /// Issue cycle within the kernel (`0..II`).
    pub cycle: u32,
    /// Pipeline stage (`time / II`): which source iteration relative to the
    /// newest one this instruction works on.
    pub stage: u32,
}

/// A modulo schedule: an II plus an absolute issue time per instruction.
///
/// Time `t` maps to kernel cycle `t % II` and stage `t / II`. The number of
/// stages determines the prolog/epilog length: a pipeline with `S` stages
/// needs `S − 1` extra kernel iterations per loop execution (Sec. 1.1 of
/// the paper) — the "fixed cost" that latency-tolerant scheduling grows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuloSchedule {
    ii: u32,
    times: Vec<i64>,
}

impl ModuloSchedule {
    /// Wraps raw schedule times (indexed by instruction id).
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0` or any time is negative.
    pub fn new(ii: u32, times: Vec<i64>) -> Self {
        assert!(ii > 0, "II must be positive");
        assert!(times.iter().all(|&t| t >= 0), "schedule times must be >= 0");
        ModuloSchedule { ii, times }
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Absolute schedule time of an instruction.
    pub fn time(&self, inst: InstId) -> i64 {
        self.times[inst.index()]
    }

    /// Stage (`time / II`) of an instruction.
    pub fn stage(&self, inst: InstId) -> u32 {
        (self.time(inst) / i64::from(self.ii)) as u32
    }

    /// Number of pipeline stages: `max(stage) + 1`.
    pub fn stage_count(&self) -> u32 {
        self.times
            .iter()
            .map(|&t| (t / i64::from(self.ii)) as u32)
            .max()
            .map_or(1, |s| s + 1)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the schedule covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// All kernel slots grouped by kernel cycle (row), each row sorted by
    /// stage. This is the shape the execution simulator consumes.
    pub fn rows(&self) -> Vec<Vec<KernelSlot>> {
        let mut rows: Vec<Vec<KernelSlot>> = vec![Vec::new(); self.ii as usize];
        for (idx, &t) in self.times.iter().enumerate() {
            let slot = KernelSlot {
                inst: InstId(idx as u32),
                cycle: (t % i64::from(self.ii)) as u32,
                stage: (t / i64::from(self.ii)) as u32,
            };
            rows[slot.cycle as usize].push(slot);
        }
        for row in &mut rows {
            row.sort_by_key(|s| (s.stage, s.inst));
        }
        rows
    }

    /// Pretty-prints the kernel for debugging, one row per kernel cycle.
    pub fn dump(&self, lp: &LoopIr) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "kernel II={} stages={} ({} insts)",
            self.ii,
            self.stage_count(),
            self.len()
        );
        for (c, row) in self.rows().iter().enumerate() {
            let _ = write!(s, "  cycle {c}:");
            for slot in row {
                let _ = write!(
                    s,
                    "  [s{}] {}",
                    slot.stage,
                    lp.inst(slot.inst).op().mnemonic()
                );
            }
            let _ = writeln!(s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_stage_decomposition() {
        let s = ModuloSchedule::new(3, vec![0, 4, 7]);
        assert_eq!(s.stage(InstId(0)), 0);
        assert_eq!(s.stage(InstId(1)), 1);
        assert_eq!(s.stage(InstId(2)), 2);
        assert_eq!(s.stage_count(), 3);
    }

    #[test]
    fn rows_group_by_cycle() {
        let s = ModuloSchedule::new(2, vec![0, 2, 1, 5]);
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2, "times 0 and 2 share cycle 0");
        assert_eq!(rows[1].len(), 2, "times 1 and 5 share cycle 1");
        // Sorted by stage within a row.
        assert!(rows[0][0].stage <= rows[0][1].stage);
    }

    #[test]
    fn paper_fig4_shape() {
        // II=1, load at 0, add at 3, store at 4 -> 5 stages.
        let s = ModuloSchedule::new(1, vec![0, 3, 4]);
        assert_eq!(s.stage_count(), 5);
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn negative_time_rejected() {
        let _ = ModuloSchedule::new(1, vec![-1]);
    }
}
