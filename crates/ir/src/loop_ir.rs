//! The loop container and its validation.

use std::collections::HashMap;
use std::fmt;

use crate::error::IrError;
use crate::inst::{Inst, InstId};
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
    /// The defining instruction of every register the body defines. One
    /// entry per defining instruction: register numbers come from outside
    /// text and must never size a table.
    defs: HashMap<VReg, InstId>,
}

impl LoopIr {
    /// Assembles and validates a loop. Prefer [`crate::LoopBuilder`].
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found: duplicate definitions, dangling
    /// same-iteration uses, zero-omega dependence cycles, memory-reference
    /// mismatches, or an empty body.
    pub fn new(
        name: impl Into<String>,
        insts: Vec<Inst>,
        memrefs: Vec<MemoryRef>,
        mem_deps: Vec<MemDep>,
        live_in: Vec<VReg>,
    ) -> Result<Self, IrError> {
        let defs = unique_defs(&insts)?;
        let lp = LoopIr {
            name: name.into(),
            insts,
            memrefs,
            mem_deps,
            live_in,
            defs,
        };
        lp.validate()?;
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

    /// Appends an instruction (used by the HLO when inserting prefetches).
    /// The caller is responsible for re-validating if it introduces new
    /// registers; prefetches never do.
    pub fn push_inst(&mut self, inst: Inst) -> InstId {
        debug_assert_eq!(inst.id().index(), self.insts.len());
        let id = inst.id();
        if let Some(d) = inst.dst() {
            self.defs.insert(d, id);
        }
        self.insts.push(inst);
        id
    }

    /// The instruction defining `reg`, if any (a constant-time lookup).
    pub fn def_of(&self, reg: VReg) -> Option<InstId> {
        self.defs.get(&reg).copied()
    }

    /// Iterates over loads together with their memory references.
    pub fn loads(&self) -> impl Iterator<Item = (&Inst, MemRefId)> + '_ {
        self.insts.iter().filter_map(|i| {
            if i.op().is_load() {
                i.mem().map(|m| (i, m))
            } else {
                None
            }
        })
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

    fn validate(&self) -> Result<(), IrError> {
        if self.insts.is_empty() {
            return Err(IrError::EmptyLoop);
        }
        // Uses resolve: every omega-0 read needs a def or live-in; carried
        // reads need a def (a live-in cannot be produced "last iteration").
        let live_in: std::collections::HashSet<VReg> = self.live_in.iter().copied().collect();
        for inst in &self.insts {
            for s in inst.reads() {
                let has_def = self.defs.contains_key(&s.reg);
                let ok = if s.omega == 0 {
                    has_def || live_in.contains(&s.reg)
                } else {
                    has_def
                };
                if !ok {
                    return Err(IrError::UndefinedUse {
                        inst: inst.id(),
                        reg: s.reg,
                    });
                }
            }
            if let Some((qp, _)) = inst.qp() {
                if qp.reg.class() != crate::reg::RegClass::Pr {
                    return Err(IrError::NonPredicateQp { inst: inst.id() });
                }
            }
        }
        // Memory instructions carry a valid memref; others carry none.
        for inst in &self.insts {
            if inst.op().is_memory() != inst.mem().is_some() {
                return Err(IrError::MemRefMismatch { inst: inst.id() });
            }
            if let Some(m) = inst.mem() {
                if m.index() >= self.memrefs.len() {
                    return Err(IrError::DanglingMemRef { memref: m });
                }
            }
        }
        // Pattern address sources exist and are actually loaded.
        let loaded: std::collections::HashSet<MemRefId> = self.loads().map(|(_, m)| m).collect();
        for (idx, mr) in self.memrefs.iter().enumerate() {
            if let Some(src) = mr.pattern().address_source() {
                if src.index() >= self.memrefs.len() {
                    return Err(IrError::DanglingMemRef { memref: src });
                }
                if !loaded.contains(&src) {
                    return Err(IrError::PatternSourceNotLoaded {
                        memref: MemRefId(idx as u32),
                        source: src,
                    });
                }
            }
        }
        // Mem-dep endpoints exist.
        for d in &self.mem_deps {
            if d.from.index() >= self.insts.len() {
                return Err(IrError::MemRefMismatch { inst: d.from });
            }
            if d.to.index() >= self.insts.len() {
                return Err(IrError::MemRefMismatch { inst: d.to });
            }
        }
        // No zero-omega cycles (register flow only; explicit mem deps with
        // omega 0 participate too).
        self.check_zero_omega_acyclic()
    }

    fn check_zero_omega_acyclic(&self) -> Result<(), IrError> {
        let n = self.insts.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for inst in &self.insts {
            for s in inst.reads() {
                if s.omega == 0 {
                    if let Some(def) = self.def_of(s.reg) {
                        adj[def.index()].push(inst.id().index());
                    }
                }
            }
        }
        for d in &self.mem_deps {
            if d.omega == 0 {
                adj[d.from.index()].push(d.to.index());
            }
        }
        // Iterative three-color DFS cycle check.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                if *edge < adj[node].len() {
                    let next = adj[node][*edge];
                    *edge += 1;
                    match color[next] {
                        Color::White => {
                            color[next] = Color::Gray;
                            stack.push((next, 0));
                        }
                        Color::Gray => {
                            return Err(IrError::ZeroOmegaCycle {
                                inst: InstId(next as u32),
                            });
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

/// Indexes the body's definitions, rejecting a register defined twice.
fn unique_defs(insts: &[Inst]) -> Result<HashMap<VReg, InstId>, IrError> {
    let mut defs = HashMap::with_capacity(insts.len());
    for inst in insts {
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
    Ok(defs)
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
        let i0 = Inst::new(InstId(0), Opcode::MovImm, Some(g), vec![], None);
        let i1 = Inst::new(InstId(1), Opcode::MovImm, Some(g), vec![], None);
        let err = LoopIr::new("x", vec![i0, i1], vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::MultipleDefs { .. }));
    }

    #[test]
    fn rejects_undefined_use() {
        let g = VReg::new(RegClass::Gr, 0);
        let ghost = VReg::new(RegClass::Gr, 9);
        let i0 = Inst::new(InstId(0), Opcode::Mov, Some(g), vec![ghost.into()], None);
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
            vec![SrcOperand::carried(acc, 1), c.into()],
            None,
        );
        let lp = LoopIr::new("red", vec![i0], vec![], vec![], vec![c]).unwrap();
        assert_eq!(lp.insts().len(), 1);
    }

    #[test]
    fn rejects_zero_omega_cycle() {
        let a = VReg::new(RegClass::Gr, 0);
        let b = VReg::new(RegClass::Gr, 1);
        let i0 = Inst::new(InstId(0), Opcode::Add, Some(a), vec![b.into()], None);
        let i1 = Inst::new(InstId(1), Opcode::Add, Some(b), vec![a.into()], None);
        let err = LoopIr::new("cyc", vec![i0, i1], vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::ZeroOmegaCycle { .. }));
    }

    #[test]
    fn rejects_load_without_memref() {
        let g = VReg::new(RegClass::Gr, 0);
        let i0 = Inst::new(
            InstId(0),
            Opcode::Load(DataClass::Int),
            Some(g),
            vec![],
            None,
        );
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
            vec![],
            Some(MemRefId(1)),
        );
        let err = LoopIr::new("x", vec![i0], vec![idx_ref, tgt_ref], vec![], vec![]).unwrap_err();
        assert!(matches!(err, IrError::PatternSourceNotLoaded { .. }));
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
        let i0 = Inst::new(InstId(0), Opcode::Mov, Some(far), vec![c.into()], None);
        let mut lp = LoopIr::new("far", vec![i0], vec![], vec![], vec![c, c]).unwrap();
        assert_eq!(lp.def_of(far), Some(InstId(0)));
        assert_eq!(lp.def_of(c), None);
        // The live-in is listed twice and counted once.
        assert_eq!(lp.vreg_count(RegClass::Gr), 2);
        // Appended instructions are indexed too.
        let late = VReg::new(RegClass::Gr, 1 << 31);
        lp.push_inst(Inst::new(
            InstId(1),
            Opcode::MovImm,
            Some(late),
            vec![],
            None,
        ));
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
