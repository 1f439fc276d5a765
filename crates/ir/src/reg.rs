//! Virtual registers and register classes.

use std::fmt;

/// The architectural register class a virtual register belongs to.
///
/// The classes follow the Itanium architecture: general (integer) registers,
/// floating-point registers, and one-bit predicate registers. Each class has
/// its own rotating register file in the machine model, so the register
/// allocator accounts for them separately (the paper reports pressure growth
/// per class in Sec. 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General (integer / pointer) registers, `r32..` rotate.
    Gr,
    /// Floating-point registers, `f32..f127` rotate.
    Fr,
    /// Predicate registers, `p16..p63` rotate.
    Pr,
}

impl RegClass {
    /// All register classes, in display order.
    pub const ALL: [RegClass; 3] = [RegClass::Gr, RegClass::Fr, RegClass::Pr];

    /// Single-letter prefix used in textual dumps (`g12`, `f3`, `p0`).
    pub(crate) fn prefix(self) -> char {
        match self {
            RegClass::Gr => 'g',
            RegClass::Fr => 'f',
            RegClass::Pr => 'p',
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Gr => write!(f, "GR"),
            RegClass::Fr => write!(f, "FR"),
            RegClass::Pr => write!(f, "PR"),
        }
    }
}

/// A virtual register: an SSA-like value produced by at most one instruction
/// in the loop body (or live-in to the loop).
///
/// Virtual registers are compared and hashed by `(class, index)`; indices are
/// dense per loop and assigned by [`crate::LoopBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg {
    class: RegClass,
    index: u32,
}

impl VReg {
    /// Creates a virtual register handle.
    ///
    /// Normally produced by [`crate::LoopBuilder`]; exposed for tests and
    /// for tools that deserialize loops.
    pub fn new(class: RegClass, index: u32) -> Self {
        VReg { class, index }
    }

    /// The register class.
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The register as one integer that sorts like the register.
    pub(crate) fn key(self) -> u64 {
        (self.class as u64) << 32 | u64::from(self.index)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_class_prefix() {
        assert_eq!(VReg::new(RegClass::Gr, 3).to_string(), "g3");
        assert_eq!(VReg::new(RegClass::Fr, 0).to_string(), "f0");
        assert_eq!(VReg::new(RegClass::Pr, 17).to_string(), "p17");
    }

    #[test]
    fn ordering_is_class_then_index() {
        let a = VReg::new(RegClass::Gr, 5);
        let b = VReg::new(RegClass::Fr, 0);
        assert!(a < b, "GR sorts before FR regardless of index");
    }

    #[test]
    fn class_display() {
        assert_eq!(RegClass::Gr.to_string(), "GR");
        assert_eq!(RegClass::ALL.len(), 3);
    }
}
