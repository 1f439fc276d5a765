//! Register-file supply.

use ltsp_ir::RegClass;

/// Rotating and static register supply per class.
///
/// On Itanium, a programmable-sized area of the general register file
/// (starting at `r32`), FP registers `f32`–`f127`, and predicates
/// `p16`–`p63` rotate. The paper's Sec. 2.2: "96 integer and 96 FP
/// registers can rotate".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterFiles {
    /// Rotating general registers available to pipelined loops.
    pub rotating_gr: u32,
    /// Rotating FP registers.
    pub rotating_fr: u32,
    /// Rotating predicate registers.
    pub rotating_pr: u32,
    /// Total architected general registers (for utilization statistics).
    pub total_gr: u32,
    /// Total architected FP registers.
    pub total_fr: u32,
    /// Total architected predicate registers.
    pub total_pr: u32,
}

impl RegisterFiles {
    /// Rotating supply for a class.
    pub fn rotating(&self, class: RegClass) -> u32 {
        match class {
            RegClass::Gr => self.rotating_gr,
            RegClass::Fr => self.rotating_fr,
            RegClass::Pr => self.rotating_pr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;

    #[test]
    fn itanium_rotating_supply() {
        let m = MachineModel::itanium2();
        let r = m.registers();
        assert_eq!(r.rotating(RegClass::Gr), 96);
        assert_eq!(r.rotating(RegClass::Fr), 96);
        assert_eq!(r.rotating(RegClass::Pr), 48);
        assert!(r.total_gr >= r.rotating(RegClass::Gr));
    }
}
