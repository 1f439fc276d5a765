//! VLIW bundle formation for emitted kernels.
//!
//! Itanium fetches instructions in 128-bit *bundles* of three slots, each
//! bundle stamped with a template that fixes the unit type per slot (MII,
//! MMI, MFI, MMF, …) and the position of stops (`;;`). A 2-bundle-wide
//! machine issues up to six instructions per cycle. This module packs each
//! kernel cycle's instructions into legal bundles, padding unused slots
//! with `nop`s — the code-size-relevant step of code generation that the
//! schedule alone does not show.

use ltsp_ir::{LoopIr, UnitClass};

use crate::schedule::ModuloSchedule;

/// A bundle template: three slots of fixed unit types.
///
/// The subset modeled covers the templates integer/FP loop kernels need;
/// `B`-slot templates are unnecessary because the kernel's only branch is
/// the trailing `br.ctop`, which gets its own `MIB`-style bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleTemplate {
    /// M-unit, I-unit, I-unit.
    Mii,
    /// M-unit, M-unit, I-unit.
    Mmi,
    /// M-unit, F-unit, I-unit.
    Mfi,
    /// M-unit, M-unit, F-unit.
    Mmf,
    /// M-unit, I-unit, B-unit (used for the back edge).
    Mib,
}

impl BundleTemplate {
    /// The slot unit types of this template.
    pub(crate) fn slots(self) -> [UnitClass; 3] {
        match self {
            BundleTemplate::Mii => [UnitClass::M, UnitClass::I, UnitClass::I],
            BundleTemplate::Mmi => [UnitClass::M, UnitClass::M, UnitClass::I],
            BundleTemplate::Mfi => [UnitClass::M, UnitClass::F, UnitClass::I],
            BundleTemplate::Mmf => [UnitClass::M, UnitClass::M, UnitClass::F],
            BundleTemplate::Mib => [UnitClass::M, UnitClass::I, UnitClass::B],
        }
    }
}

/// One formed bundle: a template plus what occupies each slot (`None` =
/// `nop`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bundle {
    /// The chosen template.
    pub template: BundleTemplate,
    /// Instruction ids per slot; `None` is a `nop` of the slot's type.
    pub slots: [Option<ltsp_ir::InstId>; 3],
}

/// The bundled form of a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundledKernel {
    /// Bundles per kernel cycle (each cycle ends with a stop).
    pub cycles: Vec<Vec<Bundle>>,
}

impl BundledKernel {
    /// Total bundles, including the implicit trailing `.mib` carrying the
    /// `br.ctop` back edge.
    pub fn bundle_count(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum::<usize>() + 1
    }

    /// Code size in bytes (16 bytes per bundle).
    pub fn code_bytes(&self) -> usize {
        self.bundle_count() * 16
    }

    /// `nop` slots inserted by padding (excluding the back-edge bundle).
    pub fn nop_slots(&self) -> usize {
        self.cycles
            .iter()
            .flatten()
            .flat_map(|b| b.slots.iter())
            .filter(|s| s.is_none())
            .count()
    }
}

/// Can an instruction of `class` occupy a slot of `slot_class`?
fn fits(class: UnitClass, slot_class: UnitClass) -> bool {
    class == slot_class
        || (class == UnitClass::A && matches!(slot_class, UnitClass::M | UnitClass::I))
}

/// Packs a scheduled kernel into bundles, cycle by cycle.
///
/// Greedy template selection: for each cycle, instructions are grouped by
/// required unit, and templates are chosen to cover the M/F/I+A demand
/// with minimal padding. The result is exact about code size — the cost
/// the MVE ablation contrasts with rotation.
pub fn form_bundles(lp: &LoopIr, sched: &ModuloSchedule) -> BundledKernel {
    let mut cycles = Vec::new();
    for row in sched.rows().iter() {
        let (mut m, mut i, mut f, mut a) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for slot in row {
            match lp.inst(slot.inst).unit_class() {
                UnitClass::M => m.push(slot.inst),
                UnitClass::I => i.push(slot.inst),
                UnitClass::F => f.push(slot.inst),
                UnitClass::A => a.push(slot.inst),
                UnitClass::B => {}
            }
        }
        let mut bundles = Vec::new();
        // Place while anything remains; pick the template matching the
        // current demand mix.
        while !(m.is_empty() && i.is_empty() && f.is_empty() && a.is_empty()) {
            let template = if !f.is_empty() && m.len() >= 2 {
                BundleTemplate::Mmf
            } else if !f.is_empty() {
                BundleTemplate::Mfi
            } else if m.len() >= 2 {
                BundleTemplate::Mmi
            } else {
                BundleTemplate::Mii
            };
            let mut slots = [None, None, None];
            for (idx, slot_class) in template.slots().into_iter().enumerate() {
                // Prefer exact-class occupants; A-class fills leftovers.
                let source = match slot_class {
                    UnitClass::M if !m.is_empty() => Some(&mut m),
                    UnitClass::I if !i.is_empty() => Some(&mut i),
                    UnitClass::F if !f.is_empty() => Some(&mut f),
                    UnitClass::M | UnitClass::I if !a.is_empty() => Some(&mut a),
                    _ => None,
                };
                if let Some(v) = source {
                    debug_assert!(fits(lp.inst(v[0]).unit_class(), slot_class));
                    slots[idx] = Some(v.remove(0));
                }
            }
            bundles.push(Bundle { template, slots });
        }
        if bundles.is_empty() {
            // An empty cycle still needs a bundle to hold the stop.
            bundles.push(Bundle {
                template: BundleTemplate::Mii,
                slots: [None, None, None],
            });
        }
        cycles.push(bundles);
    }
    BundledKernel { cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{pipeline_loop, PipelineOptions};
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_machine::MachineModel;

    fn running_example() -> LoopIr {
        let mut b = LoopBuilder::new("ex");
        let s = b.affine_ref("src", DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("dst", DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        b.build().unwrap()
    }

    #[test]
    fn running_example_fits_one_bundle_per_cycle() {
        // ld + st (M, M) + add (A) pack into a single MMI bundle.
        let m = MachineModel::itanium2();
        let lp = running_example();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let bundled = form_bundles(&lp, &p.schedule);
        assert_eq!(bundled.cycles.len(), 1);
        assert_eq!(bundled.cycles[0].len(), 1);
        assert_eq!(bundled.cycles[0][0].template, BundleTemplate::Mmi);
        assert_eq!(bundled.nop_slots(), 0, "perfect packing");
        // Kernel bundle + back-edge bundle = 32 bytes of code.
        assert_eq!(bundled.code_bytes(), 32);
    }

    #[test]
    fn every_instruction_is_placed_exactly_once() {
        let m = MachineModel::itanium2();
        let lp = ltsp_workloads_free::mixed();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let bundled = form_bundles(&lp, &p.schedule);
        let mut placed: Vec<ltsp_ir::InstId> = bundled
            .cycles
            .iter()
            .flatten()
            .flat_map(|b| b.slots.iter().flatten().copied())
            .collect();
        placed.sort();
        let mut expected: Vec<ltsp_ir::InstId> = lp.insts().iter().map(|i| i.id()).collect();
        expected.sort();
        assert_eq!(placed, expected);
    }

    #[test]
    fn slots_match_their_unit_types() {
        let m = MachineModel::itanium2();
        let lp = ltsp_workloads_free::mixed();
        let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
        let bundled = form_bundles(&lp, &p.schedule);
        for cycle in &bundled.cycles {
            for b in cycle {
                for (slot, class) in b.slots.iter().zip(b.template.slots()) {
                    if let Some(id) = slot {
                        assert!(
                            fits(lp.inst(*id).unit_class(), class),
                            "{id} misplaced in {class} slot"
                        );
                    }
                }
            }
        }
    }

    mod ltsp_workloads_free {
        use ltsp_ir::{DataClass, LoopBuilder, LoopIr};

        pub(crate) fn mixed() -> LoopIr {
            let mut b = LoopBuilder::new("mixed");
            let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
            let y = b.affine_ref("y", DataClass::Fp, 1 << 22, 8, 8);
            let z = b.affine_ref("z", DataClass::Int, 2 << 22, 4, 4);
            let vx = b.load(x);
            let vy = b.load(y);
            let vz = b.load(z);
            let s = b.fma(vx, vy, vx);
            let t = b.add(vz, vz);
            let u = b.shl(t, vz);
            let out = b.affine_ref("o", DataClass::Fp, 3 << 22, 8, 8);
            b.store(out, s);
            let _ = u;
            b.build().unwrap()
        }
    }
}
