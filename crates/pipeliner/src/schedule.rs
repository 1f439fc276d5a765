//! The result of modulo scheduling: a kernel schedule.

use ltsp_ir::{InstId, LoopIr};

/// One instruction's position in its kernel row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSlot {
    /// The instruction.
    pub inst: InstId,
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

    /// The kernel in row order: every slot grouped by kernel cycle, each
    /// row sorted by (stage, inst). This is the shape the execution
    /// simulator, the emitter, the bundler and [`Self::dump`] consume.
    pub fn rows(&self) -> KernelRows {
        // A counting sort: row ends by prefix sum, then each slot placed
        // from the back of its row in reverse id order, which leaves
        // `starts[c]` at the row's start and ids ascending within it.
        let ii = i64::from(self.ii);
        let mut starts = vec![0; self.ii as usize + 1];
        for &t in &self.times {
            starts[(t % ii) as usize] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut slots = vec![KernelSlot::default(); self.times.len()];
        for (idx, &t) in self.times.iter().enumerate().rev() {
            let start = &mut starts[(t % ii) as usize];
            *start -= 1;
            slots[*start] = KernelSlot {
                inst: InstId(idx as u32),
                stage: (t / ii) as u32,
            };
        }
        for w in starts.windows(2) {
            slots[w[0]..w[1]].sort_unstable_by_key(|s| (s.stage, s.inst));
        }
        KernelRows { slots, starts }
    }

    /// Pretty-prints the kernel for debugging, one row per kernel cycle.
    pub fn dump(&self, lp: &LoopIr) -> String {
        let (ii, stages, n) = (self.ii, self.stage_count(), self.len());
        let mut s = format!("kernel II={ii} stages={stages} ({n} insts)\n");
        for (c, row) in self.rows().iter().enumerate() {
            s.push_str("  cycle ");
            push_uint(&mut s, c as u32);
            s.push(':');
            for slot in row {
                s.push_str("  [s");
                push_uint(&mut s, slot.stage);
                s.push_str("] ");
                s.push_str(lp.inst(slot.inst).op().mnemonic());
            }
            s.push('\n');
        }
        s
    }
}

/// A kernel's slots in row order, in one flat array: row `c` is
/// `slots[starts[c]..starts[c + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRows {
    slots: Vec<KernelSlot>,
    starts: Vec<usize>,
}

impl KernelRows {
    /// The rows, one slice per kernel cycle `0..II`.
    pub fn iter(&self) -> impl Iterator<Item = &[KernelSlot]> + '_ {
        self.starts.windows(2).map(|w| &self.slots[w[0]..w[1]])
    }
}

/// Appends `n` in decimal.
fn push_uint(s: &mut String, n: u32) {
    if n >= 10 {
        push_uint(s, n / 10);
    }
    s.push(char::from(b'0' + (n % 10) as u8));
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
        let rows: Vec<&[KernelSlot]> = rows.iter().collect();
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
