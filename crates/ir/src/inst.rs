//! Instructions and opcodes.

use std::fmt;

use crate::memref::{CacheLevel, DataClass, MemRefId};
use crate::reg::{RegClass, VReg};

/// Identifier of an instruction within one loop body (dense index, program
/// order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(pub u32);

impl InstId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Functional-unit class an instruction executes on.
///
/// Follows the Itanium execution-port taxonomy: memory (M), integer (I),
/// floating point (F) and branch (B) units, plus the A class of simple ALU
/// operations that may issue on either an M or an I port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// Memory port (loads, stores, prefetches).
    M,
    /// Integer port.
    I,
    /// Floating-point port.
    F,
    /// Branch port.
    B,
    /// Either an M or an I port (simple integer ALU ops).
    A,
}

impl fmt::Display for UnitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            UnitClass::M => 'M',
            UnitClass::I => 'I',
            UnitClass::F => 'F',
            UnitClass::B => 'B',
            UnitClass::A => 'A',
        };
        write!(f, "{c}")
    }
}

/// Operation performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Load from memory into the destination register.
    Load(DataClass),
    /// Store a register to memory.
    Store(DataClass),
    /// Software prefetch (`lfetch`) into the given cache level; no
    /// destination register, never faults.
    Prefetch(CacheLevel),
    /// Integer add (A-class).
    Add,
    /// Integer subtract (A-class).
    Sub,
    /// Bitwise and (A-class).
    And,
    /// Bitwise or (A-class).
    Or,
    /// Bitwise xor (A-class).
    Xor,
    /// Shift left (I-class).
    Shl,
    /// Shift right (I-class).
    Shr,
    /// Integer compare, writes a predicate (A-class).
    Cmp,
    /// Test bit, writes a predicate (I-class).
    Tbit,
    /// Integer multiply (on Itanium this is an F-class `xma`).
    Mul,
    /// Sign/zero extension or other I-class unary op.
    Ext,
    /// Register move (A-class).
    Mov,
    /// Move immediate into a register (A-class).
    MovImm,
    /// FP add.
    Fadd,
    /// FP subtract.
    Fsub,
    /// FP multiply.
    Fmul,
    /// Fused multiply-add.
    Fma,
    /// FP compare, writes a predicate.
    Fcmp,
    /// FP/int conversion.
    Fcvt,
    /// Predicated select `dst = qp ? a : b` — the join of an if-converted
    /// diamond (A-class).
    Sel,
    /// No-op (used for padding in tests).
    Nop,
}

impl Opcode {
    /// The functional-unit class the opcode executes on.
    pub(crate) fn unit_class(self) -> UnitClass {
        match self {
            Opcode::Load(_) | Opcode::Store(_) | Opcode::Prefetch(_) => UnitClass::M,
            Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Cmp
            | Opcode::Mov
            | Opcode::Sel
            | Opcode::MovImm => UnitClass::A,
            Opcode::Shl | Opcode::Shr | Opcode::Tbit | Opcode::Ext | Opcode::Nop => UnitClass::I,
            Opcode::Mul
            | Opcode::Fadd
            | Opcode::Fsub
            | Opcode::Fmul
            | Opcode::Fma
            | Opcode::Fcmp
            | Opcode::Fcvt => UnitClass::F,
        }
    }

    /// True for loads, stores and prefetches.
    pub(crate) fn is_memory(self) -> bool {
        matches!(
            self,
            Opcode::Load(_) | Opcode::Store(_) | Opcode::Prefetch(_)
        )
    }

    /// True for loads only.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Load(_))
    }

    /// True for prefetches only.
    pub fn is_prefetch(self) -> bool {
        matches!(self, Opcode::Prefetch(_))
    }

    /// Mnemonic used in textual dumps.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Load(DataClass::Int) => "ld",
            Opcode::Load(DataClass::Fp) => "ldf",
            Opcode::Store(DataClass::Int) => "st",
            Opcode::Store(DataClass::Fp) => "stf",
            Opcode::Prefetch(_) => "lfetch",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Cmp => "cmp",
            Opcode::Tbit => "tbit",
            Opcode::Mul => "xma",
            Opcode::Ext => "ext",
            Opcode::Mov => "mov",
            Opcode::Sel => "sel",
            Opcode::MovImm => "movl",
            Opcode::Fadd => "fadd",
            Opcode::Fsub => "fsub",
            Opcode::Fmul => "fmul",
            Opcode::Fma => "fma",
            Opcode::Fcmp => "fcmp",
            Opcode::Fcvt => "fcvt",
            Opcode::Nop => "nop",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// A register read with a loop-carried distance.
///
/// `omega == 0` reads the value produced in the same source iteration;
/// `omega == k` reads the value produced `k` source iterations earlier
/// (a loop-carried flow dependence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SrcOperand {
    /// The register read.
    pub reg: VReg,
    /// Loop-carried distance in source iterations.
    pub omega: u32,
}

impl SrcOperand {
    /// A same-iteration read.
    pub fn now(reg: VReg) -> Self {
        SrcOperand { reg, omega: 0 }
    }

    /// A read of the value from `omega` iterations ago.
    pub fn carried(reg: VReg, omega: u32) -> Self {
        SrcOperand { reg, omega }
    }
}

impl From<VReg> for SrcOperand {
    fn from(reg: VReg) -> Self {
        SrcOperand::now(reg)
    }
}

impl fmt::Display for SrcOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.omega == 0 {
            write!(f, "{}", self.reg)
        } else {
            write!(f, "{}[-{}]", self.reg, self.omega)
        }
    }
}

/// An instruction's source operands: up to three inline, a heap `Vec`
/// only past three. No loop in the library or the generators reads more
/// than three, but the grammar allows any number. Compares and prints
/// (`Debug` too) as the slice, so as a `Vec` did.
#[derive(Clone)]
pub(crate) enum Operands {
    Inline(u8, [SrcOperand; 3]),
    Heap(Vec<SrcOperand>),
}

impl Operands {
    /// Appends a source; the fourth moves them all to the heap.
    pub(crate) fn push(&mut self, s: SrcOperand) {
        match self {
            Operands::Inline(n, a) if usize::from(*n) < a.len() => {
                a[usize::from(*n)] = s;
                *n += 1;
            }
            Operands::Inline(_, a) => *self = Operands::Heap([&a[..], &[s]].concat()),
            Operands::Heap(v) => v.push(s),
        }
    }
}

impl Default for Operands {
    fn default() -> Self {
        Operands::Inline(0, [SrcOperand::now(VReg::new(RegClass::Gr, 0)); 3])
    }
}

impl std::ops::Deref for Operands {
    type Target = [SrcOperand];
    fn deref(&self) -> &[SrcOperand] {
        match self {
            Operands::Inline(n, a) => &a[..usize::from(*n)],
            Operands::Heap(v) => v,
        }
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One instruction of the loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    pub(crate) id: InstId,
    pub(crate) op: Opcode,
    pub(crate) dst: Option<VReg>,
    pub(crate) srcs: Operands,
    pub(crate) mem: Option<MemRefId>,
    /// The qualifying predicate and its negation flag: the instruction
    /// executes only in iterations where the predicate (a
    /// [`crate::RegClass::Pr`] value, usually from a `cmp`) is true — or
    /// false, when negated — the result of if-conversion.
    pub(crate) qp: Option<(SrcOperand, bool)>,
}

impl Inst {
    /// Creates an instruction. Use [`crate::LoopBuilder`] in normal code;
    /// this constructor is exposed for tests and deserialization.
    pub fn new(
        id: InstId,
        op: Opcode,
        dst: Option<VReg>,
        srcs: &[SrcOperand],
        mem: Option<MemRefId>,
    ) -> Self {
        let mut ops = Operands::default();
        srcs.iter().for_each(|&s| ops.push(s));
        Inst {
            id,
            op,
            dst,
            srcs: ops,
            mem,
            qp: None,
        }
    }

    /// The qualifying predicate and its negation flag, if predicated.
    pub fn qp(&self) -> Option<(SrcOperand, bool)> {
        self.qp
    }

    /// All register reads: the qualifying predicate (if any) followed by
    /// the source operands. This is what dependence analysis walks.
    pub fn reads(&self) -> impl Iterator<Item = SrcOperand> + '_ {
        self.qp
            .map(|(s, _)| s)
            .into_iter()
            .chain(self.srcs.iter().copied())
    }

    /// The instruction's dense id.
    pub fn id(&self) -> InstId {
        self.id
    }

    /// The opcode.
    pub fn op(&self) -> Opcode {
        self.op
    }

    /// The destination register, if the opcode produces a value.
    pub fn dst(&self) -> Option<VReg> {
        self.dst
    }

    /// The source operands.
    pub fn srcs(&self) -> &[SrcOperand] {
        &self.srcs
    }

    /// The memory reference for loads/stores/prefetches.
    pub fn mem(&self) -> Option<MemRefId> {
        self.mem
    }

    /// Functional-unit class (delegates to the opcode).
    pub fn unit_class(&self) -> UnitClass {
        self.op.unit_class()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.id)?;
        if let Some((qp, neg)) = self.qp {
            if neg {
                write!(f, "(!{qp}) ")?;
            } else {
                write!(f, "({qp}) ")?;
            }
        }
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d} =")?;
        }
        for (i, s) in self.srcs.iter().enumerate() {
            write!(f, "{}{s}", if i == 0 { " " } else { ", " })?;
        }
        if let Some(m) = self.mem {
            write!(f, " @{m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_classes() {
        assert_eq!(Opcode::Load(DataClass::Int).unit_class(), UnitClass::M);
        assert_eq!(Opcode::Add.unit_class(), UnitClass::A);
        assert_eq!(Opcode::Shl.unit_class(), UnitClass::I);
        assert_eq!(Opcode::Fma.unit_class(), UnitClass::F);
        assert_eq!(Opcode::Mul.unit_class(), UnitClass::F, "xma runs on F");
        assert_eq!(Opcode::Prefetch(CacheLevel::L2).unit_class(), UnitClass::M);
    }

    #[test]
    fn memory_predicates() {
        assert!(Opcode::Load(DataClass::Fp).is_load());
        assert!(Opcode::Store(DataClass::Int).is_memory());
        assert!(Opcode::Prefetch(CacheLevel::L3).is_prefetch());
        assert!(!Opcode::Add.is_memory());
    }

    #[test]
    fn display_round_trip_shape() {
        let g0 = VReg::new(RegClass::Gr, 0);
        let g1 = VReg::new(RegClass::Gr, 1);
        let i = Inst::new(
            InstId(2),
            Opcode::Add,
            Some(g1),
            &[g0.into(), SrcOperand::carried(g1, 1)],
            None,
        );
        assert_eq!(i.to_string(), "i2: add g1 = g0, g1[-1]");
    }

    #[test]
    fn src_operand_from_reg_is_omega_zero() {
        let r = VReg::new(RegClass::Fr, 4);
        let s: SrcOperand = r.into();
        assert_eq!(s.omega, 0);
        assert_eq!(s.reg, r);
    }
}
