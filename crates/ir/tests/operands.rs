//! An instruction stores up to three source operands inline and more on
//! the heap. Neither shows: loops whose instructions read 0, 1, 3, 4 and 7
//! sources parse, print, clone, compare and `Debug`-print exactly as they
//! did with a `Vec` per instruction.

use ltsp_ir::{parse_loop, InstId, MemRefId, Opcode, RegClass, SrcOperand, VReg};

/// `ltsp_ir::Inst` with its sources in a `Vec`: what `Debug` must print.
/// The compile cache sizes its entries by a loop's `Debug` text.
#[derive(Debug)]
#[allow(dead_code)]
struct Inst {
    id: InstId,
    op: Opcode,
    dst: Option<VReg>,
    srcs: Vec<SrcOperand>,
    mem: Option<MemRefId>,
    qp: Option<(SrcOperand, bool)>,
}

impl From<&ltsp_ir::Inst> for Inst {
    fn from(i: &ltsp_ir::Inst) -> Self {
        Inst {
            id: i.id(),
            op: i.op(),
            dst: i.dst(),
            srcs: i.srcs().to_vec(),
            mem: i.mem(),
            qp: i.qp(),
        }
    }
}

/// `i<k>: add g<10+k> = ...` reading `arity` sources, one carried.
fn loop_text(arities: &[usize]) -> String {
    let mut text = String::from("loop arity {\n  live_in g0, g1, g2, g3, g4, g5, g6\n");
    text.push_str("  i0: cmp p0 = g0, g1\n");
    for (k, &arity) in arities.iter().enumerate() {
        let id = k + 1;
        let qp = if k % 2 == 1 { "(!p0) " } else { "" };
        let srcs: Vec<String> = (0..arity)
            .map(|j| match j {
                1 => format!("g{}[-1]", 10 + id),
                _ => format!("g{j}"),
            })
            .collect();
        let srcs = srcs.join(", ");
        let sep = if srcs.is_empty() { "" } else { " " };
        text.push_str(&format!("  i{id}: {qp}add g{} ={sep}{srcs}\n", 10 + id));
    }
    text.push('}');
    text
}

#[test]
fn any_arity_reads_and_prints_as_a_vec_did() {
    let arities = [0, 1, 3, 4, 7, 3, 4];
    let text = loop_text(&arities);
    let lp = parse_loop(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(lp.to_string(), text);
    for (inst, &arity) in lp.insts()[1..].iter().zip(&arities) {
        assert_eq!(inst.srcs().len(), arity, "{inst}");
        let by_vec = Inst::from(inst);
        assert_eq!(format!("{inst:?}"), format!("{by_vec:?}"));
        assert_eq!(format!("{inst:#?}"), format!("{by_vec:#?}"));
        if inst.qp().is_none() {
            let rebuilt = ltsp_ir::Inst::new(inst.id(), inst.op(), inst.dst(), &by_vec.srcs, None);
            assert_eq!(rebuilt, *inst);
        }
    }
    let copy = lp.clone();
    assert_eq!(copy, lp);
    assert_eq!(format!("{copy:?}"), format!("{lp:?}"));
    assert_eq!(parse_loop(&copy.to_string()), Ok(lp));
}

#[test]
fn a_source_more_or_less_or_changed_is_a_different_instruction() {
    let g = |i| SrcOperand::now(VReg::new(RegClass::Gr, i));
    let srcs: Vec<SrcOperand> = (0..7).map(g).collect();
    let inst = |srcs: &[SrcOperand]| ltsp_ir::Inst::new(InstId(0), Opcode::Add, None, srcs, None);
    for n in [0, 1, 3, 4, 7] {
        assert_eq!(inst(&srcs[..n]), inst(&srcs[..n]));
        assert_eq!(inst(&srcs[..n]).srcs(), &srcs[..n]);
        if n > 0 {
            assert_ne!(inst(&srcs[..n]), inst(&srcs[..n - 1]));
            let mut changed = srcs[..n].to_vec();
            changed[n - 1].omega = 1;
            assert_ne!(inst(&srcs[..n]), inst(&changed));
        }
    }
}
