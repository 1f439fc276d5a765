//! Operation latencies and the hint-aware load-latency query.

use ltsp_ir::{DataClass, LatencyHint, Opcode};

use crate::cache::CacheGeometry;

/// What the pipeliner is asking the machine model for when it queries a
/// load's latency (Sec. 3.3 of the paper): the minimum (base) latency, or
/// the expected latency derived from an HLO hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyQuery {
    /// Best-case latency: L1 hit for integer loads, L2 hit for FP loads.
    Base,
    /// Expected latency from the HLO hint — translated to the *typical*
    /// latency of the hinted level, not its best case, "to provide headroom
    /// for latency-increasing dynamic hazards".
    Hinted(LatencyHint),
    /// An exact scheduled latency chosen by the pipeliner (used by the
    /// balanced-recurrence extension, which distributes a cycle's slack
    /// among its loads instead of marking them all critical).
    Exact(u32),
}

/// Fixed operation latencies plus the load-latency query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// Simple ALU / move / compare latency.
    pub alu: u32,
    /// Shift/extract latency.
    pub shift: u32,
    /// Integer multiply (`xma`) latency.
    pub imul: u32,
    /// FP arithmetic (fadd/fsub/fmul/fma) latency.
    pub fp: u32,
    /// FP conversion latency.
    pub fcvt: u32,
    /// Extra cycles FP loads need for format conversion.
    pub fp_load_extra: u32,
}

impl LatencyTable {
    /// Latency of a non-load opcode. Loads go through
    /// `LatencyTable::load_latency`; stores and prefetches produce no
    /// value, their "latency" for dependence purposes is 1 cycle.
    pub fn op_latency(&self, op: Opcode) -> u32 {
        match op {
            Opcode::Load(_) => unreachable!("use load_latency for loads"),
            Opcode::Store(_) | Opcode::Prefetch(_) => 1,
            Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Cmp
            | Opcode::Mov
            | Opcode::MovImm
            | Opcode::Sel
            | Opcode::Nop => self.alu,
            Opcode::Shl | Opcode::Shr | Opcode::Tbit | Opcode::Ext => self.shift,
            Opcode::Mul => self.imul,
            Opcode::Fadd | Opcode::Fsub | Opcode::Fmul | Opcode::Fma | Opcode::Fcmp => self.fp,
            Opcode::Fcvt => self.fcvt,
        }
    }

    /// The load-latency query of the paper's Sec. 3.3.
    ///
    /// With [`LatencyQuery::Base`], returns the minimum latency: the L1
    /// best case for integer loads; FP loads bypass L1, so their base is
    /// the L2 best case plus the FP format-conversion cycle.
    ///
    /// With [`LatencyQuery::Hinted`], returns the *typical* latency of the
    /// hinted cache level (11 / 21 rather than 5 / 14 on the modeled
    /// machine), again plus the FP extra cycle for FP loads.
    pub(crate) fn load_latency(
        &self,
        geo: &CacheGeometry,
        data: DataClass,
        q: LatencyQuery,
    ) -> u32 {
        let extra = match data {
            DataClass::Int => 0,
            DataClass::Fp => self.fp_load_extra,
        };
        match q {
            LatencyQuery::Base => match data {
                DataClass::Int => geo.l1.best_latency,
                DataClass::Fp => geo.l2.best_latency + extra,
            },
            LatencyQuery::Hinted(h) => geo.typical_latency(h.level()) + extra,
            LatencyQuery::Exact(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;

    #[test]
    fn paper_latency_numbers() {
        let m = MachineModel::itanium2();
        let t = m.latencies();
        let g = m.caches();
        // Base: int 1 (L1), FP 5+1 = 6 (bypasses L1).
        assert_eq!(t.load_latency(g, DataClass::Int, LatencyQuery::Base), 1);
        assert_eq!(t.load_latency(g, DataClass::Fp, LatencyQuery::Base), 6);
        // Hints translate to typical values 11/21, +1 for FP.
        assert_eq!(
            t.load_latency(g, DataClass::Int, LatencyQuery::Hinted(LatencyHint::L2)),
            11
        );
        assert_eq!(
            t.load_latency(g, DataClass::Int, LatencyQuery::Hinted(LatencyHint::L3)),
            21
        );
        assert_eq!(
            t.load_latency(g, DataClass::Fp, LatencyQuery::Hinted(LatencyHint::L2)),
            12
        );
        assert_eq!(
            t.load_latency(g, DataClass::Fp, LatencyQuery::Hinted(LatencyHint::L3)),
            22
        );
    }

    #[test]
    fn op_latencies() {
        let m = MachineModel::itanium2();
        let t = m.latencies();
        assert_eq!(t.op_latency(Opcode::Add), 1);
        assert_eq!(t.op_latency(Opcode::Fma), 4);
        assert_eq!(t.op_latency(Opcode::Mul), 4);
        assert_eq!(t.op_latency(Opcode::Store(DataClass::Int)), 1);
    }

    #[test]
    #[should_panic]
    fn load_through_op_latency_panics() {
        let m = MachineModel::itanium2();
        let _ = m.latencies().op_latency(Opcode::Load(DataClass::Int));
    }
}
