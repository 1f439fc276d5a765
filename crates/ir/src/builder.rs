//! Ergonomic construction of [`LoopIr`] bodies.

use std::collections::HashMap;

use crate::error::IrError;
use crate::inst::{Inst, InstId, Opcode, SrcOperand};
use crate::loop_ir::{LoopIr, MemDep, MemDepKind};
use crate::memref::{AccessPattern, DataClass, MemRefId, MemoryRef};
use crate::reg::{RegClass, VReg};

/// Builder for [`LoopIr`].
///
/// Tracks register numbering, wires the address dependences implied by
/// data-dependent access patterns (gathers read the index load's result,
/// pointer chases feed themselves), and validates the finished loop.
///
/// # Example
///
/// ```
/// use ltsp_ir::{DataClass, LoopBuilder};
///
/// // for (i) sum += a[i];
/// let mut b = LoopBuilder::new("reduction");
/// let a = b.affine_ref("a", DataClass::Fp, 0x1_0000, 8, 8);
/// let v = b.load(a);
/// let sum = b.fadd_reduce(v); // sum = sum[-1] + v
/// let _ = sum;
/// let lp = b.build().unwrap();
/// assert_eq!(lp.insts().len(), 2);
/// ```
#[derive(Debug)]
pub struct LoopBuilder {
    name: String,
    insts: Vec<Inst>,
    memrefs: Vec<MemoryRef>,
    mem_deps: Vec<MemDep>,
    live_in: Vec<VReg>,
    next_reg: HashMap<RegClass, u32>,
    load_of_ref: HashMap<MemRefId, VReg>,
    if_ctx: Option<(SrcOperand, bool)>,
}

impl LoopBuilder {
    /// Starts a new loop with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        LoopBuilder {
            name: name.into(),
            insts: Vec::new(),
            memrefs: Vec::new(),
            mem_deps: Vec::new(),
            live_in: Vec::new(),
            next_reg: HashMap::new(),
            load_of_ref: HashMap::new(),
            if_ctx: None,
        }
    }

    /// Starts a predicated region: instructions emitted until
    /// [`LoopBuilder::begin_else`] / [`LoopBuilder::end_if`] carry `pred`
    /// as their qualifying predicate (the result of if-converting a
    /// branch, as the pipeliner's input requires — paper Sec. 3.3: "the
    /// loop is first if-converted to remove control flow").
    ///
    /// # Panics
    ///
    /// Panics on nested `begin_if` (single-diamond if-conversion only).
    pub fn begin_if(&mut self, pred: impl Into<SrcOperand>) {
        assert!(self.if_ctx.is_none(), "nested if-regions are not supported");
        self.if_ctx = Some((pred.into(), false));
    }

    /// Switches to the else side of the current predicated region
    /// (instructions carry the *negated* predicate).
    ///
    /// # Panics
    ///
    /// Panics outside an if-region or after a previous `begin_else`.
    pub fn begin_else(&mut self) {
        match self.if_ctx {
            Some((p, false)) => self.if_ctx = Some((p, true)),
            _ => panic!("begin_else outside a then-region"),
        }
    }

    /// Ends the current predicated region.
    ///
    /// # Panics
    ///
    /// Panics outside an if-region.
    pub fn end_if(&mut self) {
        assert!(self.if_ctx.is_some(), "end_if outside an if-region");
        self.if_ctx = None;
    }

    /// The if-conversion join: `dst = pred ? a : b`. The destination class
    /// follows `a`'s register class.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different register classes.
    pub fn sel(
        &mut self,
        pred: impl Into<SrcOperand>,
        a: impl Into<SrcOperand>,
        b: impl Into<SrcOperand>,
    ) -> VReg {
        let (a, b2) = (a.into(), b.into());
        assert_eq!(
            a.reg.class(),
            b2.reg.class(),
            "sel operands must share a register class"
        );
        let dst = self.fresh(a.reg.class());
        // sel reads the predicate as an ordinary operand (both values are
        // consumed regardless), so it is NOT itself predicated.
        self.push(Opcode::Sel, Some(dst), &[pred.into(), a, b2], None, None);
        dst
    }

    /// Appends an instruction under the qualifying predicate `qp`.
    fn push(
        &mut self,
        op: Opcode,
        dst: Option<VReg>,
        srcs: &[SrcOperand],
        mem: Option<MemRefId>,
        qp: Option<(SrcOperand, bool)>,
    ) -> InstId {
        let id = InstId(self.insts.len() as u32);
        let mut inst = Inst::new(id, op, dst, srcs, mem);
        inst.qp = qp;
        self.insts.push(inst);
        id
    }

    /// Allocates a fresh virtual register of the given class.
    pub(crate) fn fresh(&mut self, class: RegClass) -> VReg {
        let n = self.next_reg.entry(class).or_insert(0);
        let r = VReg::new(class, *n);
        *n += 1;
        r
    }

    /// Declares a loop-invariant general register (defined before the loop).
    pub fn live_in_gr(&mut self, _name: &str) -> VReg {
        let r = self.fresh(RegClass::Gr);
        self.live_in.push(r);
        r
    }

    /// Declares a loop-invariant FP register (defined before the loop).
    pub fn live_in_fr(&mut self, _name: &str) -> VReg {
        let r = self.fresh(RegClass::Fr);
        self.live_in.push(r);
        r
    }

    // ---- memory references -------------------------------------------------

    /// Adds a strided reference with a compile-time-known stride.
    pub fn affine_ref(
        &mut self,
        name: &str,
        data: DataClass,
        base: u64,
        stride: i64,
        bytes: u32,
    ) -> MemRefId {
        self.add_ref(MemoryRef::new(
            name,
            data,
            AccessPattern::Affine { base, stride },
            bytes,
        ))
    }

    /// Adds a strided reference whose stride is a runtime symbol.
    pub fn symbolic_ref(
        &mut self,
        name: &str,
        data: DataClass,
        base: u64,
        typical_stride: i64,
        bytes: u32,
    ) -> MemRefId {
        self.add_ref(MemoryRef::new(
            name,
            data,
            AccessPattern::SymbolicStride {
                base,
                typical_stride,
            },
            bytes,
        ))
    }

    /// Adds an `a[b[i]]` gather whose index values come from `index`.
    pub fn gather_ref(
        &mut self,
        name: &str,
        data: DataClass,
        index: MemRefId,
        base: u64,
        elem_bytes: u32,
        region_bytes: u64,
    ) -> MemRefId {
        self.add_ref(MemoryRef::new(
            name,
            data,
            AccessPattern::Gather {
                index,
                base,
                elem_bytes,
                region_bytes,
            },
            elem_bytes,
        ))
    }

    /// Adds a `p->field` reference whose pointer comes from `pointer`.
    pub fn deref_ref(
        &mut self,
        name: &str,
        data: DataClass,
        pointer: MemRefId,
        offset: u64,
        region_bytes: u64,
        bytes: u32,
    ) -> MemRefId {
        self.add_ref(MemoryRef::new(
            name,
            data,
            AccessPattern::Deref {
                pointer,
                offset,
                region_bytes,
            },
            bytes,
        ))
    }

    /// Adds a pointer-chase reference (`node = node->next`).
    pub fn chase_ref(
        &mut self,
        name: &str,
        base: u64,
        node_bytes: u64,
        region_bytes: u64,
        locality: f64,
    ) -> MemRefId {
        self.add_ref(MemoryRef::new(
            name,
            DataClass::Int,
            AccessPattern::PointerChase {
                base,
                node_bytes,
                region_bytes,
                locality,
            },
            8,
        ))
    }

    /// Adds a loop-invariant reference.
    pub fn invariant_ref(
        &mut self,
        name: &str,
        data: DataClass,
        addr: u64,
        bytes: u32,
    ) -> MemRefId {
        self.add_ref(MemoryRef::new(
            name,
            data,
            AccessPattern::Invariant { addr },
            bytes,
        ))
    }

    fn add_ref(&mut self, r: MemoryRef) -> MemRefId {
        let id = MemRefId(self.memrefs.len() as u32);
        self.memrefs.push(r);
        id
    }

    // ---- instructions ------------------------------------------------------

    /// Emits a load of `memref`, wiring address dependences implied by the
    /// access pattern, and returns the destination register.
    ///
    /// - `Gather`: reads the index load's destination (same iteration).
    /// - `Deref`: reads the pointer load's destination with `omega = 1`
    ///   when the pointer is a chase (the current node was produced by the
    ///   previous iteration's chase step), else `omega = 0`.
    /// - `PointerChase`: reads its own destination with `omega = 1`.
    ///
    /// # Panics
    ///
    /// Panics if a `Gather`/`Deref` pattern's source reference has not been
    /// loaded yet — load the index/pointer first.
    pub fn load(&mut self, memref: MemRefId) -> VReg {
        let data = self.memrefs[memref.index()].data_class();
        let class = match data {
            DataClass::Int => RegClass::Gr,
            DataClass::Fp => RegClass::Fr,
        };
        let dst = self.fresh(class);
        let pattern = self.memrefs[memref.index()].pattern().clone();
        let src = match pattern {
            AccessPattern::Gather { index, .. } => {
                let idx_reg = *self
                    .load_of_ref
                    .get(&index)
                    .expect("gather index must be loaded before the gather");
                Some(SrcOperand::now(idx_reg))
            }
            AccessPattern::Deref { pointer, .. } => {
                let ptr_reg = *self
                    .load_of_ref
                    .get(&pointer)
                    .expect("deref pointer must be loaded before the field load");
                let ptr_is_chase = matches!(
                    self.memrefs[pointer.index()].pattern(),
                    AccessPattern::PointerChase { .. }
                );
                let omega = if ptr_is_chase { 1 } else { 0 };
                Some(SrcOperand::carried(ptr_reg, omega))
            }
            AccessPattern::PointerChase { .. } => Some(SrcOperand::carried(dst, 1)),
            _ => None,
        };
        let (srcs, qp) = (src.as_slice(), self.if_ctx);
        self.push(Opcode::Load(data), Some(dst), srcs, Some(memref), qp);
        self.load_of_ref.insert(memref, dst);
        dst
    }

    /// Emits a store of `value` to `memref`.
    pub fn store(&mut self, memref: MemRefId, value: impl Into<SrcOperand>) -> InstId {
        let data = self.memrefs[memref.index()].data_class();
        let srcs = &[value.into()];
        self.push(Opcode::Store(data), None, srcs, Some(memref), self.if_ctx)
    }

    fn alu(&mut self, op: Opcode, class: RegClass, srcs: &[SrcOperand]) -> VReg {
        let dst = self.fresh(class);
        self.push(op, Some(dst), srcs, None, self.if_ctx);
        dst
    }

    /// Integer add.
    pub fn add(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Add, RegClass::Gr, &[a.into(), b.into()])
    }

    /// Integer subtract.
    pub fn sub(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Sub, RegClass::Gr, &[a.into(), b.into()])
    }

    /// Bitwise and.
    pub fn and(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::And, RegClass::Gr, &[a.into(), b.into()])
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Xor, RegClass::Gr, &[a.into(), b.into()])
    }

    /// Shift left.
    pub fn shl(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Shl, RegClass::Gr, &[a.into(), b.into()])
    }

    /// Integer multiply.
    pub fn mul(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Mul, RegClass::Gr, &[a.into(), b.into()])
    }

    /// Integer compare producing a predicate.
    pub fn cmp(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Cmp, RegClass::Pr, &[a.into(), b.into()])
    }

    /// Integer reduction step: `acc = acc[-1] + v`.
    pub fn add_reduce(&mut self, v: impl Into<SrcOperand>) -> VReg {
        let dst = self.fresh(RegClass::Gr);
        self.push(
            Opcode::Add,
            Some(dst),
            &[SrcOperand::carried(dst, 1), v.into()],
            None,
            None,
        );
        dst
    }

    /// FP add.
    pub fn fadd(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Fadd, RegClass::Fr, &[a.into(), b.into()])
    }

    /// FP multiply.
    pub fn fmul(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        self.alu(Opcode::Fmul, RegClass::Fr, &[a.into(), b.into()])
    }

    /// Fused multiply-add `a * b + c`.
    pub fn fma(
        &mut self,
        a: impl Into<SrcOperand>,
        b: impl Into<SrcOperand>,
        c: impl Into<SrcOperand>,
    ) -> VReg {
        self.alu(Opcode::Fma, RegClass::Fr, &[a.into(), b.into(), c.into()])
    }

    /// FP reduction step: `acc = acc[-1] + v`.
    pub fn fadd_reduce(&mut self, v: impl Into<SrcOperand>) -> VReg {
        let dst = self.fresh(RegClass::Fr);
        self.push(
            Opcode::Fadd,
            Some(dst),
            &[SrcOperand::carried(dst, 1), v.into()],
            None,
            None,
        );
        dst
    }

    /// FP fused multiply-add reduction: `acc = acc[-1] + a * b`.
    pub fn fma_reduce(&mut self, a: impl Into<SrcOperand>, b: impl Into<SrcOperand>) -> VReg {
        let dst = self.fresh(RegClass::Fr);
        self.push(
            Opcode::Fma,
            Some(dst),
            &[a.into(), b.into(), SrcOperand::carried(dst, 1)],
            None,
            None,
        );
        dst
    }

    /// Adds an explicit memory dependence edge.
    pub fn mem_dep(&mut self, from: InstId, to: InstId, kind: MemDepKind, omega: u32) {
        self.mem_deps.push(MemDep {
            from,
            to,
            kind,
            omega,
        });
    }

    /// Finishes and validates the loop.
    ///
    /// # Errors
    ///
    /// Propagates any [`IrError`] from validation.
    pub fn build(self) -> Result<LoopIr, IrError> {
        LoopIr::new(
            self.name,
            self.insts,
            self.memrefs,
            self.mem_deps,
            self.live_in,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memref::AccessPattern;

    #[test]
    fn gather_wires_index_register() {
        let mut b = LoopBuilder::new("gather");
        let idx = b.affine_ref("b[i]", DataClass::Int, 0, 4, 4);
        let tgt = b.gather_ref("a[b[i]]", DataClass::Int, idx, 0x10_0000, 8, 1 << 20);
        let vi = b.load(idx);
        let _vt = b.load(tgt);
        let lp = b.build().unwrap();
        let gather_load = &lp.insts()[1];
        assert_eq!(gather_load.srcs().len(), 1);
        assert_eq!(gather_load.srcs()[0].reg, vi);
        assert_eq!(gather_load.srcs()[0].omega, 0);
    }

    #[test]
    fn chase_feeds_itself_carried() {
        let mut b = LoopBuilder::new("chase");
        let node = b.chase_ref("node->child", 0, 64, 1 << 22, 0.1);
        let v = b.load(node);
        let lp = b.build().unwrap();
        let chase = &lp.insts()[0];
        assert_eq!(chase.srcs()[0].reg, v);
        assert_eq!(chase.srcs()[0].omega, 1);
    }

    #[test]
    fn deref_off_chase_is_carried() {
        let mut b = LoopBuilder::new("mcf");
        let node = b.chase_ref("node->child", 0, 64, 1 << 22, 0.1);
        let arc = b.deref_ref("node->basic_arc", DataClass::Int, node, 8, 1 << 22, 8);
        let nv = b.load(node);
        let _av = b.load(arc);
        let lp = b.build().unwrap();
        let field = &lp.insts()[1];
        assert_eq!(field.srcs()[0].reg, nv);
        assert_eq!(field.srcs()[0].omega, 1, "current node came from last iter");
    }

    #[test]
    fn deref_off_plain_load_is_same_iteration() {
        let mut b = LoopBuilder::new("ptr");
        let parr = b.affine_ref("p[i]", DataClass::Int, 0, 8, 8);
        let fld = b.deref_ref("p[i]->f", DataClass::Int, parr, 16, 1 << 20, 8);
        let _pv = b.load(parr);
        let _fv = b.load(fld);
        let lp = b.build().unwrap();
        assert_eq!(lp.insts()[1].srcs()[0].omega, 0);
    }

    #[test]
    #[should_panic(expected = "gather index must be loaded")]
    fn gather_before_index_panics() {
        let mut b = LoopBuilder::new("bad");
        let idx = b.affine_ref("b[i]", DataClass::Int, 0, 4, 4);
        let tgt = b.gather_ref("a[b[i]]", DataClass::Int, idx, 0, 8, 1 << 20);
        let _ = b.load(tgt);
    }

    #[test]
    fn reduction_helpers_self_depend() {
        let mut b = LoopBuilder::new("dot");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let y = b.affine_ref("y", DataClass::Fp, 1 << 20, 8, 8);
        let vx = b.load(x);
        let vy = b.load(y);
        let acc = b.fma_reduce(vx, vy);
        let lp = b.build().unwrap();
        let fma = &lp.insts()[2];
        assert_eq!(fma.dst(), Some(acc));
        assert!(fma.srcs().iter().any(|s| s.reg == acc && s.omega == 1));
    }

    #[test]
    fn symbolic_and_invariant_refs() {
        let mut b = LoopBuilder::new("s");
        let s = b.symbolic_ref("a[i*n]", DataClass::Fp, 0, 4096, 8);
        let inv = b.invariant_ref("scale", DataClass::Fp, 0x8000, 8);
        let v1 = b.load(s);
        let v2 = b.load(inv);
        let _ = b.fmul(v1, v2);
        let lp = b.build().unwrap();
        assert!(matches!(
            lp.memref(s).pattern(),
            AccessPattern::SymbolicStride { .. }
        ));
        assert!(matches!(
            lp.memref(inv).pattern(),
            AccessPattern::Invariant { .. }
        ));
    }
}
