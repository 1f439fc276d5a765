//! IR validation errors.

use std::error::Error;
use std::fmt;

use crate::inst::InstId;
use crate::memref::MemRefId;
use crate::reg::VReg;

/// Error produced when validating a [`crate::LoopIr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A register is defined by more than one instruction.
    MultipleDefs {
        /// The register defined twice.
        reg: VReg,
        /// First defining instruction.
        first: InstId,
        /// Second defining instruction.
        second: InstId,
    },
    /// A same-iteration (`omega == 0`) source has no definition in the loop
    /// and is not declared live-in.
    UndefinedUse {
        /// The instruction with the dangling read.
        inst: InstId,
        /// The register read.
        reg: VReg,
    },
    /// Same-iteration dependences form a cycle, which no schedule can honor.
    ZeroOmegaCycle {
        /// An instruction on the cycle.
        inst: InstId,
    },
    /// A memory instruction is missing its [`crate::MemoryRef`], or a
    /// non-memory instruction carries one.
    MemRefMismatch {
        /// The offending instruction.
        inst: InstId,
    },
    /// An instruction or pattern points at a memory reference that does not
    /// exist in the loop.
    DanglingMemRef {
        /// The dangling id.
        memref: MemRefId,
    },
    /// A data-dependent access pattern names an address source that no load
    /// in the loop actually loads.
    PatternSourceNotLoaded {
        /// The pattern's reference.
        memref: MemRefId,
        /// The address source that is never loaded.
        source: MemRefId,
    },
    /// A gather's element or a pointer chase's node is zero bytes.
    ZeroSizePattern {
        /// The pattern's reference.
        memref: MemRefId,
        /// The zero field, as the text format spells it (`elem`, `node`).
        field: &'static str,
    },
    /// A qualifying predicate is not a predicate-class register.
    NonPredicateQp {
        /// The offending instruction.
        inst: InstId,
    },
    /// The loop body is empty.
    EmptyLoop,
    /// A load without a destination register, or a store or prefetch
    /// with one.
    DestinationMismatch {
        /// The offending instruction.
        inst: InstId,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::MultipleDefs { reg, first, second } => {
                write!(f, "register {reg} defined by both {first} and {second}")
            }
            IrError::UndefinedUse { inst, reg } => {
                write!(
                    f,
                    "instruction {inst} reads {reg} in the same iteration but no def or live-in exists"
                )
            }
            IrError::ZeroOmegaCycle { inst } => {
                write!(
                    f,
                    "same-iteration dependence cycle through instruction {inst}"
                )
            }
            IrError::MemRefMismatch { inst } => {
                write!(f, "instruction {inst} has a memory-reference mismatch")
            }
            IrError::DanglingMemRef { memref } => {
                write!(f, "memory reference {memref} does not exist")
            }
            IrError::PatternSourceNotLoaded { memref, source } => {
                write!(
                    f,
                    "access pattern of {memref} depends on {source}, which no load reads"
                )
            }
            IrError::ZeroSizePattern { memref, field } => {
                write!(f, "access pattern of {memref} has {field}=0")
            }
            IrError::NonPredicateQp { inst } => {
                write!(
                    f,
                    "instruction {inst} has a non-predicate qualifying predicate"
                )
            }
            IrError::EmptyLoop => write!(f, "loop body is empty"),
            IrError::DestinationMismatch { inst } => write!(
                f,
                "instruction {inst}: a load must define a register, a store or prefetch must not"
            ),
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegClass;

    #[test]
    fn messages_are_informative() {
        let e = IrError::MultipleDefs {
            reg: VReg::new(RegClass::Gr, 1),
            first: InstId(0),
            second: InstId(3),
        };
        let s = e.to_string();
        assert!(s.contains("g1"));
        assert!(s.contains("i0"));
        assert!(s.contains("i3"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error>() {}
        assert_error::<IrError>();
    }
}
