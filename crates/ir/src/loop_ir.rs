//! The loop container and its validation.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::error::IrError;
use crate::inst::{Inst, InstId, SrcOperand};
use crate::memref::{MemRefId, MemoryRef};
use crate::reg::{RegClass, VReg};

/// Kind of an explicit memory dependence between two memory instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemDepKind {
    /// Store → load (read after write).
    Flow,
    /// Load → store (write after read).
    Anti,
    /// Store → store (write after write).
    Output,
}

impl fmt::Display for MemDepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemDepKind::Flow => write!(f, "mem-flow"),
            MemDepKind::Anti => write!(f, "mem-anti"),
            MemDepKind::Output => write!(f, "mem-output"),
        }
    }
}

/// An explicit memory dependence edge added by the front end (the result of
/// its alias analysis). Register dependences are implicit in the operand
/// structure; memory dependences must be declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemDep {
    /// Source instruction.
    pub from: InstId,
    /// Destination instruction.
    pub to: InstId,
    /// Dependence kind.
    pub kind: MemDepKind,
    /// Loop-carried distance (0 = same iteration).
    pub omega: u32,
}

/// An innermost, counted, if-converted loop: the unit of work for the
/// software pipeliner.
///
/// Built via [`crate::LoopBuilder`]; validated on construction so that all
/// downstream passes can assume well-formedness.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopIr {
    name: String,
    insts: Vec<Inst>,
    memrefs: Vec<MemoryRef>,
    mem_deps: Vec<MemDep>,
    live_in: Vec<VReg>,
    /// Where every register is defined and every read resolved.
    defs: DefIndex,
}

impl LoopIr {
    /// Assembles and validates a loop. Prefer [`crate::LoopBuilder`].
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found: duplicate definitions, dangling
    /// same-iteration uses, zero-omega dependence cycles, memory-reference
    /// mismatches, an empty body, or an opcode whose destination is missing
    /// or should not be there.
    pub fn new(
        name: impl Into<String>,
        insts: Vec<Inst>,
        memrefs: Vec<MemoryRef>,
        mem_deps: Vec<MemDep>,
        live_in: Vec<VReg>,
    ) -> Result<Self, IrError> {
        let mut defs = DefIndex::with_capacity(insts.len());
        for inst in &insts {
            if let Some(d) = inst.dst() {
                if let Some(first) = defs.insert(d, inst.id()) {
                    return Err(IrError::MultipleDefs {
                        reg: d,
                        first,
                        second: inst.id(),
                    });
                }
            }
        }
        if insts.is_empty() {
            return Err(IrError::EmptyLoop);
        }
        let backward = defs.resolve(&insts, &live_in)?;
        let lp = LoopIr {
            name: name.into(),
            insts,
            memrefs,
            mem_deps,
            live_in,
            defs,
        };
        lp.validate(backward)?;
        Ok(lp)
    }

    /// The loop's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop body in program order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Looks up an instruction by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// The memory references of the loop.
    pub fn memrefs(&self) -> &[MemoryRef] {
        &self.memrefs
    }

    /// Looks up a memory reference by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn memref(&self, id: MemRefId) -> &MemoryRef {
        &self.memrefs[id.index()]
    }

    /// Mutable access to a memory reference (the HLO sets hints/prefetch
    /// plans through this).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn memref_mut(&mut self, id: MemRefId) -> &mut MemoryRef {
        &mut self.memrefs[id.index()]
    }

    /// Explicit memory dependence edges.
    pub fn mem_deps(&self) -> &[MemDep] {
        &self.mem_deps
    }

    /// Registers defined outside the loop and read inside it.
    pub fn live_in(&self) -> &[VReg] {
        &self.live_in
    }

    /// Appends an instruction (used by the HLO when inserting prefetches)
    /// and resolves its reads. The caller is responsible for re-validating
    /// if it introduces new registers; prefetches never do. An appended
    /// definition does not resolve reads already in the body.
    pub fn push_inst(&mut self, inst: Inst) -> InstId {
        debug_assert_eq!(inst.id().index(), self.insts.len());
        let id = inst.id();
        if let Some(d) = inst.dst() {
            self.defs.insert(d, id);
        }
        for s in inst.reads() {
            let def = self.defs.get(s.reg);
            self.defs.reads.push(def);
        }
        self.insts.push(inst);
        id
    }

    /// The instruction defining `reg`, if any (a constant-time lookup).
    pub fn def_of(&self, reg: VReg) -> Option<InstId> {
        self.defs.get(reg)
    }

    /// Every register read — program order, [`Inst::reads`] order within
    /// an instruction — as `(reader, read, defining instruction)`, resolved
    /// once when the loop was built.
    pub fn resolved_reads(
        &self,
    ) -> impl Iterator<Item = (InstId, SrcOperand, Option<InstId>)> + '_ {
        self.insts
            .iter()
            .flat_map(|i| i.reads().map(move |s| (i.id(), s)))
            .zip(self.defs.reads.iter().copied())
            .map(|((id, s), def)| (id, s, def))
    }

    /// Iterates over loads together with their memory references.
    pub fn loads(&self) -> impl Iterator<Item = (&Inst, MemRefId)> + '_ {
        let loads = self.insts.iter().filter(|i| i.op().is_load());
        loads.filter_map(|i| i.mem().map(|m| (i, m)))
    }

    /// Counts instructions per functional-unit class `(m, i, f, b, a)`.
    pub fn unit_counts(&self) -> UnitCounts {
        let mut c = UnitCounts::default();
        for inst in &self.insts {
            match inst.unit_class() {
                crate::inst::UnitClass::M => c.m += 1,
                crate::inst::UnitClass::I => c.i += 1,
                crate::inst::UnitClass::F => c.f += 1,
                crate::inst::UnitClass::B => c.b += 1,
                crate::inst::UnitClass::A => c.a += 1,
            }
        }
        c
    }

    /// Number of virtual registers used (defined or live-in) per class.
    /// Validation guarantees every register read is one of the two.
    pub fn vreg_count(&self, class: RegClass) -> usize {
        let defined = self
            .insts
            .iter()
            .filter(|i| i.dst().is_some_and(|d| d.class() == class))
            .count();
        let mut live: Vec<VReg> = self
            .live_in
            .iter()
            .copied()
            .filter(|&r| r.class() == class && self.def_of(r).is_none())
            .collect();
        live.sort_unstable();
        live.dedup();
        defined + live.len()
    }

    /// The checks that need the assembled loop; [`DefIndex::resolve`]
    /// made the ones before them and found whether any same-iteration read
    /// is `backward`: defined at or after its reader.
    fn validate(&self, backward: bool) -> Result<(), IrError> {
        // Memory instructions carry a valid memref; others carry none.
        let mut loaded = vec![false; self.memrefs.len()];
        for inst in &self.insts {
            if inst.op().is_memory() != inst.mem().is_some() {
                return Err(IrError::MemRefMismatch { inst: inst.id() });
            }
            if let Some(m) = inst.mem() {
                if m.index() >= self.memrefs.len() {
                    return Err(IrError::DanglingMemRef { memref: m });
                }
                loaded[m.index()] |= inst.op().is_load();
            }
            // A load defines a register; a store or prefetch does not.
            if inst.op().is_memory() && inst.op().is_load() != inst.dst().is_some() {
                return Err(IrError::DestinationMismatch { inst: inst.id() });
            }
        }
        // Patterns have a nonzero size, and their address sources exist
        // and are actually loaded.
        for (idx, mr) in self.memrefs.iter().enumerate() {
            if let Some(field) = mr.pattern().zero_size() {
                return Err(IrError::ZeroSizePattern {
                    memref: MemRefId(idx as u32),
                    field,
                });
            }
            if let Some(src) = mr.pattern().address_source() {
                if src.index() >= self.memrefs.len() {
                    return Err(IrError::DanglingMemRef { memref: src });
                }
                if !loaded[src.index()] {
                    return Err(IrError::PatternSourceNotLoaded {
                        memref: MemRefId(idx as u32),
                        source: src,
                    });
                }
            }
        }
        // Mem-dep endpoints exist.
        for inst in self.mem_deps.iter().flat_map(|d| [d.from, d.to]) {
            if inst.index() >= self.insts.len() {
                return Err(IrError::MemRefMismatch { inst });
            }
        }
        // No zero-omega cycles (register flow only; explicit mem deps with
        // omega 0 participate too). Arcs that all run forward in program
        // order close none.
        if backward || self.mem_deps.iter().any(|d| d.omega == 0 && d.from >= d.to) {
            self.check_zero_omega_acyclic()?;
        }
        Ok(())
    }

    fn check_zero_omega_acyclic(&self) -> Result<(), IrError> {
        let n = self.insts.len();
        // Zero-omega arcs, register flow in program order before the
        // declared dependences, in CSR form: node `v`'s successors are
        // `succ[start[v]..start[v + 1]]`, in arc order.
        let mut arcs = Vec::with_capacity(self.defs.reads.len() + self.mem_deps.len());
        for (to, s, def) in self.resolved_reads() {
            if let (0, Some(from)) = (s.omega, def) {
                arcs.push((from.index(), to.index()));
            }
        }
        for d in self.mem_deps.iter().filter(|d| d.omega == 0) {
            arcs.push((d.from.index(), d.to.index()));
        }
        let mut start = vec![0usize; n + 2];
        for &(from, _) in &arcs {
            start[from + 2] += 1;
        }
        for v in 2..start.len() {
            start[v] += start[v - 1];
        }
        let mut succ = vec![0usize; arcs.len()];
        for &(from, to) in &arcs {
            succ[start[from + 1]] = to;
            start[from + 1] += 1;
        }
        // Iterative three-colour DFS: 0 unvisited, 1 on the stack, 2 done.
        let mut colour = vec![0u8; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if colour[root] != 0 {
                continue;
            }
            colour[root] = 1;
            stack.push((root, start[root]));
            while let Some(&mut (node, ref mut arc)) = stack.last_mut() {
                if *arc < start[node + 1] {
                    let next = succ[*arc];
                    *arc += 1;
                    match colour[next] {
                        0 => {
                            colour[next] = 1;
                            stack.push((next, start[next]));
                        }
                        1 => {
                            return Err(IrError::ZeroOmegaCycle {
                                inst: InstId(next as u32),
                            });
                        }
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

/// Where every register is defined and every read resolved. The
/// definitions sit in a power-of-two table at least twice the size of its
/// contents, probed linearly from the top bits of [`VReg::key`] times an
/// odd multiplier drawn at random per table: its size follows the
/// instruction count, never a register number, and the input cannot
/// choose its collisions.
#[derive(Clone)]
struct DefIndex {
    mul: u64,
    len: usize,
    slots: Vec<Option<(VReg, InstId)>>,
    /// The defining instruction of every read, in
    /// [`LoopIr::resolved_reads`] order.
    reads: Vec<Option<InstId>>,
}

impl DefIndex {
    fn with_capacity(n: usize) -> Self {
        DefIndex {
            mul: RandomState::new().hash_one(()) | 1,
            len: 0,
            slots: vec![None; (2 * n).next_power_of_two().max(2)],
            reads: Vec::new(),
        }
    }

    /// The slot holding `reg`, or the free one where it belongs.
    fn slot(&self, reg: VReg) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (reg.key().wrapping_mul(self.mul) >> (64 - mask.count_ones())) as usize;
        while self.slots[at].is_some_and(|(r, _)| r != reg) {
            at = (at + 1) & mask;
        }
        at
    }

    fn get(&self, reg: VReg) -> Option<InstId> {
        self.slots[self.slot(reg)].map(|(_, id)| id)
    }

    /// Records `id` as the definition of `reg`, or returns the instruction
    /// that already defines it.
    fn insert(&mut self, reg: VReg, id: InstId) -> Option<InstId> {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![None; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.len = 0;
            for (r, i) in old.into_iter().flatten() {
                self.insert(r, i);
            }
        }
        let at = self.slot(reg);
        if let Some((_, first)) = self.slots[at] {
            return Some(first);
        }
        self.slots[at] = Some((reg, id));
        self.len += 1;
        None
    }

    /// Resolves every read of `insts`, checking each instruction's reads
    /// and then its qualifying predicate: every omega-0 read needs a def
    /// or live-in; carried reads need a def (a live-in cannot be produced
    /// "last iteration"). Returns whether some omega-0 read is defined at
    /// or after its reader.
    fn resolve(&mut self, insts: &[Inst], live_in: &[VReg]) -> Result<bool, IrError> {
        let mut backward = false;
        let mut live_in = live_in.to_vec();
        live_in.sort_unstable();
        self.reads = Vec::with_capacity(insts.iter().map(|i| i.srcs().len() + 1).sum());
        for inst in insts {
            for s in inst.reads() {
                let def = self.get(s.reg);
                if def.is_none() && (s.omega > 0 || live_in.binary_search(&s.reg).is_err()) {
                    return Err(IrError::UndefinedUse {
                        inst: inst.id(),
                        reg: s.reg,
                    });
                }
                backward |= s.omega == 0 && def.is_some_and(|d| d >= inst.id());
                self.reads.push(def);
            }
            if let Some((qp, _)) = inst.qp() {
                if qp.reg.class() != RegClass::Pr {
                    return Err(IrError::NonPredicateQp { inst: inst.id() });
                }
            }
        }
        Ok(backward)
    }
}

impl PartialEq for DefIndex {
    /// The same definitions, whatever the multipliers; the reads follow
    /// from the instructions.
    fn eq(&self, other: &Self) -> bool {
        let same = |&(r, id): &(VReg, InstId)| other.get(r) == Some(id);
        self.len == other.len && self.slots.iter().flatten().all(same)
    }
}

impl fmt::Debug for DefIndex {
    /// The definitions as a map, the form and length a `HashMap` prints:
    /// the compile cache sizes its entries by a loop's `Debug` text. The
    /// entries come in definition order, not slot order, so the text is a
    /// function of the loop and not of the table's multiplier.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut defs: Vec<_> = self.slots.iter().flatten().collect();
        defs.sort_unstable_by_key(|&&(_, id)| id);
        f.debug_map()
            .entries(defs.into_iter().map(|(r, id)| (r, id)))
            .finish()
    }
}

/// Per-unit-class instruction counts for a loop body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCounts {
    /// Memory-class instructions.
    pub m: u32,
    /// Integer-class instructions.
    pub i: u32,
    /// FP-class instructions.
    pub f: u32,
    /// Branch-class instructions.
    pub b: u32,
    /// A-class (M-or-I) instructions.
    pub a: u32,
}

impl fmt::Display for LoopIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "loop {} {{", self.name)?;
        if !self.live_in.is_empty() {
            write!(f, "  live_in")?;
            for (i, r) in self.live_in.iter().enumerate() {
                write!(f, "{} {r}", if i == 0 { "" } else { "," })?;
            }
            writeln!(f)?;
        }
        for (idx, mr) in self.memrefs.iter().enumerate() {
            writeln!(f, "  {}: {mr}", MemRefId(idx as u32))?;
        }
        for inst in &self.insts {
            writeln!(f, "  {inst}")?;
        }
        for d in &self.mem_deps {
            writeln!(
                f,
                "  dep {} -> {} {} omega={}",
                d.from, d.to, d.kind, d.omega
            )?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::inst::{Opcode, SrcOperand};
    use crate::memref::{AccessPattern, DataClass};
    use crate::reg::RegClass;

    fn simple_loop() -> LoopIr {
        let mut b = LoopBuilder::new("t");
        let m = b.affine_ref("a", DataClass::Int, 0, 4, 4);
        let v = b.load(m);
        let c = b.live_in_gr("c");
        let s = b.add(v, c);
        let d = b.affine_ref("d", DataClass::Int, 0x9000, 4, 4);
        b.store(d, s);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_validates() {
        let lp = simple_loop();
        assert_eq!(lp.insts().len(), 3);
        assert_eq!(lp.memrefs().len(), 2);
        assert_eq!(lp.unit_counts().m, 2);
        assert_eq!(lp.unit_counts().a, 1);
    }

    #[test]
    fn rejects_empty_loop() {
        let b = LoopBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), IrError::EmptyLoop);
    }

    #[test]
    fn rejects_double_def() {
        let g = VReg::new(RegClass::Gr, 0);
        let i0 = Inst::new(InstId(0), Opcode::MovImm, Some(g), &[], None);
        let i1 = Inst::new(InstId(1), Opcode::MovImm, Some(g), &[], None);
        let err = LoopIr::new("x", vec![i0, i1], vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::MultipleDefs { .. }));
    }

    #[test]
    fn rejects_undefined_use() {
        let g = VReg::new(RegClass::Gr, 0);
        let ghost = VReg::new(RegClass::Gr, 9);
        let i0 = Inst::new(InstId(0), Opcode::Mov, Some(g), &[ghost.into()], None);
        let err = LoopIr::new("x", vec![i0], vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::UndefinedUse { .. }));
    }

    #[test]
    fn carried_self_use_is_legal() {
        // acc = acc[-1] + c : a reduction.
        let acc = VReg::new(RegClass::Gr, 0);
        let c = VReg::new(RegClass::Gr, 1);
        let i0 = Inst::new(
            InstId(0),
            Opcode::Add,
            Some(acc),
            &[SrcOperand::carried(acc, 1), c.into()],
            None,
        );
        let lp = LoopIr::new("red", vec![i0], vec![], vec![], vec![c]).unwrap();
        assert_eq!(lp.insts().len(), 1);
    }

    #[test]
    fn rejects_zero_omega_cycle() {
        let a = VReg::new(RegClass::Gr, 0);
        let b = VReg::new(RegClass::Gr, 1);
        let i0 = Inst::new(InstId(0), Opcode::Add, Some(a), &[b.into()], None);
        let i1 = Inst::new(InstId(1), Opcode::Add, Some(b), &[a.into()], None);
        let err = LoopIr::new("cyc", vec![i0, i1], vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::ZeroOmegaCycle { .. }));
    }

    #[test]
    fn rejects_load_without_memref() {
        let g = VReg::new(RegClass::Gr, 0);
        let i0 = Inst::new(InstId(0), Opcode::Load(DataClass::Int), Some(g), &[], None);
        let err = LoopIr::new("x", vec![i0], vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::MemRefMismatch { .. }));
    }

    #[test]
    fn rejects_gather_whose_index_is_never_loaded() {
        let g = VReg::new(RegClass::Gr, 0);
        let idx_ref = MemoryRef::new(
            "b[i]",
            DataClass::Int,
            AccessPattern::Affine { base: 0, stride: 4 },
            4,
        );
        let tgt_ref = MemoryRef::new(
            "a[b[i]]",
            DataClass::Int,
            AccessPattern::Gather {
                index: MemRefId(0),
                base: 0x1000,
                elem_bytes: 4,
                region_bytes: 1 << 16,
            },
            4,
        );
        // Only the gather target is loaded; its index ref is never loaded.
        let i0 = Inst::new(
            InstId(0),
            Opcode::Load(DataClass::Int),
            Some(g),
            &[],
            Some(MemRefId(1)),
        );
        let err = LoopIr::new("x", vec![i0], vec![idx_ref, tgt_ref], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::PatternSourceNotLoaded { .. }));
    }

    #[test]
    fn zero_size_patterns_are_refused() {
        let mut b = LoopBuilder::new("g");
        let idx = b.affine_ref("b[i]", DataClass::Int, 0, 4, 4);
        let g = b.gather_ref("a[b[i]]", DataClass::Int, idx, 0x1000, 0, 1 << 16);
        let _ = b.load(idx);
        let _ = b.load(g);
        let err = b.build().unwrap_err();
        assert_eq!(err.to_string(), "access pattern of m1 has elem=0");

        let mut b = LoopBuilder::new("c");
        let node = b.chase_ref("p", 0x1000, 0, 1 << 16, 0.5);
        let _ = b.load(node);
        let err = b.build().unwrap_err();
        assert_eq!(err.to_string(), "access pattern of m0 has node=0");
    }

    #[test]
    fn def_lookup_and_display() {
        let lp = simple_loop();
        let text = lp.to_string();
        assert!(text.contains("loop t {"));
        assert!(text.contains("ld"));
        let first_dst = lp.insts()[0].dst().unwrap();
        assert_eq!(lp.def_of(first_dst), Some(InstId(0)));
    }

    #[test]
    fn def_index_is_keyed_by_register_not_sized_by_it() {
        let far = VReg::new(RegClass::Gr, u32::MAX);
        let c = VReg::new(RegClass::Gr, 7);
        let i0 = Inst::new(InstId(0), Opcode::Mov, Some(far), &[c.into()], None);
        let mut lp = LoopIr::new("far", vec![i0], vec![], vec![], vec![c, c]).unwrap();
        assert_eq!(lp.def_of(far), Some(InstId(0)));
        assert_eq!(lp.def_of(c), None);
        // The live-in is listed twice and counted once.
        assert_eq!(lp.vreg_count(RegClass::Gr), 2);
        // Appended instructions are indexed too.
        let late = VReg::new(RegClass::Gr, 1 << 31);
        lp.push_inst(Inst::new(InstId(1), Opcode::MovImm, Some(late), &[], None));
        assert_eq!(lp.def_of(late), Some(InstId(1)));
        assert_eq!(lp.vreg_count(RegClass::Gr), 3);
    }

    #[test]
    fn vreg_counts() {
        let lp = simple_loop();
        // load dst, add dst, live-in c.
        assert_eq!(lp.vreg_count(RegClass::Gr), 3);
        assert_eq!(lp.vreg_count(RegClass::Fr), 0);
    }
}
