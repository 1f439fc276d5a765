//! Issue-width resources and the Resource II bound.

use ltsp_ir::LoopIr;

/// Number of issue slots available per cycle, by functional-unit class.
///
/// A-class (simple ALU) instructions may issue on either an M or an I slot,
/// which [`crate::MachineModel::res_mii`] accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueResources {
    /// Memory slots per cycle.
    pub m: u32,
    /// Integer slots per cycle.
    pub i: u32,
    /// Floating-point slots per cycle.
    pub f: u32,
    /// Branch slots per cycle.
    pub b: u32,
}

impl IssueResources {
    /// The Resource II lower bound for a loop body (Sec. 1.1 of the paper):
    /// the minimum number of cycles needed to issue every instruction of one
    /// source iteration given the per-cycle slot counts, with A-class ops
    /// free to use M or I slots.
    pub(crate) fn res_mii(&self, lp: &LoopIr) -> u32 {
        let c = lp.unit_counts();
        self.res_mii_counts(c.m, c.i, c.f, c.b, c.a)
    }

    /// [`IssueResources::res_mii`] from raw per-class instruction counts.
    pub(crate) fn res_mii_counts(&self, m: u32, i: u32, f: u32, b: u32, a: u32) -> u32 {
        let mut ii = 1u32;
        ii = ii.max(div_ceil(m, self.m));
        ii = ii.max(div_ceil(i, self.i));
        ii = ii.max(div_ceil(f, self.f));
        if b > 0 {
            ii = ii.max(div_ceil(b, self.b.max(1)));
        }
        // A-class ops fill whatever M/I capacity is left; jointly, the M, I
        // and A populations need (m + i + a) slots out of (self.m + self.i)
        // per cycle.
        ii = ii.max(div_ceil(m + i + a, self.m + self.i));
        ii
    }
}

fn div_ceil(num: u32, den: u32) -> u32 {
    if den == 0 {
        // No slots of a required class: the loop cannot be pipelined at any
        // II; signal with a huge bound rather than dividing by zero.
        return u32::MAX / 2;
    }
    num.div_ceil(den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};

    fn res() -> IssueResources {
        IssueResources {
            m: 2,
            i: 2,
            f: 2,
            b: 1,
        }
    }

    #[test]
    fn running_example_fits_in_one_cycle() {
        // ld + add + st: 2 M + 1 A -> ResMII 1 on a 2M/2I machine.
        let mut b = LoopBuilder::new("ex");
        let s = b.affine_ref("s", DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("d", DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        let lp = b.build().unwrap();
        assert_eq!(res().res_mii(&lp), 1);
    }

    #[test]
    fn memory_bound_loop() {
        // 5 memory ops on 2 M slots -> ceil(5/2) = 3.
        assert_eq!(res().res_mii_counts(5, 0, 0, 0, 0), 3);
    }

    #[test]
    fn a_ops_share_m_and_i() {
        // 2 M + 2 I + 4 A = 8 ops on 4 shared slots -> 2 cycles.
        assert_eq!(res().res_mii_counts(2, 2, 0, 0, 4), 2);
        // But if M alone saturates: 6 M -> 3 cycles.
        assert_eq!(res().res_mii_counts(6, 0, 0, 0, 0), 3);
    }

    #[test]
    fn fp_bound_loop() {
        assert_eq!(res().res_mii_counts(0, 0, 7, 0, 0), 4);
    }

    #[test]
    fn res_mii_is_at_least_one() {
        assert_eq!(res().res_mii_counts(0, 0, 0, 0, 0), 1);
    }
}
