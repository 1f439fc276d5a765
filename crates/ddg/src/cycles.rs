//! Bounded enumeration of recurrence cycles.
//!
//! The criticality analysis of the reproduced paper (Sec. 3.3) iterates
//! over the recurrence cycles of the loop and asks, per cycle, whether
//! raising the contained loads to their hinted latencies would push the
//! cycle's implied II above the Resource II. This module enumerates simple
//! cycles per strongly connected component (Johnson-style DFS with
//! blocking), capped to keep pathological graphs tractable.

use ltsp_ir::InstId;

use crate::graph::{Ddg, DepKind};

/// A simple cycle in the dependence graph, stored as the edge indices
/// walked (each edge's `from` is the preceding node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceCycle {
    /// Nodes on the cycle in walk order.
    pub nodes: Vec<InstId>,
    /// Edge indices (into [`Ddg::edges`]) in walk order.
    pub edges: Vec<usize>,
}

/// Latency/distance totals of a cycle under some load-latency override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSummary {
    /// Sum of edge latencies.
    pub latency: u64,
    /// Sum of edge omegas (≥ 1 for any cycle in a validated loop).
    pub omega: u64,
    /// The II this cycle forces: `ceil(latency / omega)`.
    pub implied_ii: u32,
}

impl Ddg {
    /// Enumerates simple cycles, visiting at most `cap` cycles (a safety
    /// valve; real loop bodies have few). Cycles are found per recurrence
    /// SCC.
    pub fn recurrence_cycles(&self, cap: usize) -> Vec<RecurrenceCycle> {
        let mut out = Vec::new();
        for scc in self.recurrence_sccs() {
            if out.len() >= cap {
                break;
            }
            self.cycles_in_scc(&scc, cap, &mut out);
        }
        out
    }

    fn cycles_in_scc(&self, scc: &[InstId], cap: usize, out: &mut Vec<RecurrenceCycle>) {
        let in_scc: std::collections::HashSet<usize> = scc.iter().map(|id| id.index()).collect();
        // Johnson-style: for each start node (ascending), find simple
        // cycles whose minimum node is the start; avoids duplicates.
        for &start in scc {
            if out.len() >= cap {
                return;
            }
            let s = start.index();
            let mut path_nodes: Vec<usize> = vec![s];
            let mut path_edges: Vec<usize> = Vec::new();
            let mut on_path = vec![false; self.len()];
            on_path[s] = true;
            // Each stack frame tracks the next succ-edge offset to try.
            let mut frame: Vec<usize> = vec![0];
            while let Some(ei) = frame.last_mut() {
                let v = *path_nodes.last().expect("path tracks frames");
                let succs = self.succ_indices(v);
                if *ei < succs.len() {
                    let edge_idx = succs[*ei];
                    *ei += 1;
                    let w = self.edges()[edge_idx].to.index();
                    if !in_scc.contains(&w) || w < s {
                        continue;
                    }
                    if w == s {
                        out.push(RecurrenceCycle {
                            nodes: path_nodes.iter().map(|&x| InstId(x as u32)).collect(),
                            edges: {
                                let mut e = path_edges.clone();
                                e.push(edge_idx);
                                e
                            },
                        });
                        if out.len() >= cap {
                            return;
                        }
                    } else if !on_path[w] {
                        on_path[w] = true;
                        path_nodes.push(w);
                        path_edges.push(edge_idx);
                        frame.push(0);
                    }
                } else {
                    frame.pop();
                    let done = path_nodes.pop().expect("path tracks frames");
                    on_path[done] = false;
                    path_edges.pop();
                }
            }
        }
    }

    fn succ_indices(&self, node: usize) -> &[usize] {
        self.succ_raw(node)
    }

    /// Summarizes a cycle, optionally overriding the latency of load-data
    /// flow edges (edges of kind [`DepKind::Flow`] whose source is a load)
    /// via `load_override`. Post-increment and memory-ordering edges are
    /// never overridden.
    pub fn cycle_summary(
        &self,
        cycle: &RecurrenceCycle,
        load_override: &dyn Fn(InstId) -> Option<u32>,
    ) -> CycleSummary {
        let mut latency = 0u64;
        let mut omega = 0u64;
        for &ei in &cycle.edges {
            let e = self.edges()[ei];
            let lat = if e.kind == DepKind::Flow && self.is_load(e.from) {
                load_override(e.from).map_or(u64::from(e.latency), u64::from)
            } else {
                u64::from(e.latency)
            };
            latency += lat;
            omega += u64::from(e.omega);
        }
        let implied_ii = if omega == 0 {
            u32::MAX
        } else {
            (latency.div_ceil(omega)).min(u64::from(u32::MAX)) as u32
        };
        CycleSummary {
            latency,
            omega,
            implied_ii,
        }
    }

    /// The loads appearing as sources of flow edges on the cycle.
    pub fn cycle_loads(&self, cycle: &RecurrenceCycle) -> Vec<InstId> {
        let mut loads: Vec<InstId> = cycle
            .edges
            .iter()
            .map(|&ei| self.edges()[ei])
            .filter(|e| e.kind == DepKind::Flow && self.is_load(e.from))
            .map(|e| e.from)
            .collect();
        loads.sort();
        loads.dedup();
        loads
    }
}

#[cfg(test)]
mod tests {
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_machine::MachineModel;

    #[test]
    fn chase_cycle_found_and_summarized() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("chase");
        let node = b.chase_ref("n", 0, 64, 1 << 22, 0.0);
        let v = b.load(node);
        let fld = b.deref_ref("n->f", DataClass::Int, node, 8, 1 << 22, 8);
        let fv = b.load(fld);
        let _s = b.add(fv, v);
        let lp = b.build().unwrap();
        let ddg = crate::Ddg::build(&lp, &m, &|_| 1);
        let cycles = ddg.recurrence_cycles(100);
        // Exactly one: the chase self-loop. The deref load hangs off it.
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.nodes.len(), 1);
        let base = ddg.cycle_summary(c, &|_| None);
        assert_eq!(base.implied_ii, 1);
        // Raising the chase load to 21 makes the implied II 21.
        let raised = ddg.cycle_summary(c, &|_| Some(21));
        assert_eq!(raised.implied_ii, 21);
        assert_eq!(ddg.cycle_loads(c), vec![ltsp_ir::InstId(0)]);
    }

    #[test]
    fn reduction_cycle_has_no_loads() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd_reduce(v);
        let lp = b.build().unwrap();
        let ddg = crate::Ddg::build(&lp, &m, &|_| 6);
        let cycles = ddg.recurrence_cycles(100);
        // Two cycles: fadd self-recurrence, load post-increment.
        assert_eq!(cycles.len(), 2);
        for c in &cycles {
            // Neither cycle has a load *data* edge: the post-increment
            // self-edge is AddrInc and must not count as a load edge.
            assert!(ddg.cycle_loads(c).is_empty());
        }
    }

    #[test]
    fn two_node_cycle() {
        use ltsp_ir::{Inst, InstId, LoopIr, Opcode, RegClass, SrcOperand, VReg};
        let m = MachineModel::itanium2();
        let a = VReg::new(RegClass::Gr, 0);
        let b_ = VReg::new(RegClass::Gr, 1);
        // a = b[-1] + .. ; b = a + ..  -> cycle a->b->a with one carried edge.
        let i0 = Inst::new(
            InstId(0),
            Opcode::Add,
            Some(a),
            vec![SrcOperand::carried(b_, 1)],
            None,
        );
        let i1 = Inst::new(InstId(1), Opcode::Add, Some(b_), vec![a.into()], None);
        let lp = LoopIr::new("two", vec![i0, i1], vec![], vec![], vec![]).unwrap();
        let ddg = crate::Ddg::build(&lp, &m, &|_| 0);
        let cycles = ddg.recurrence_cycles(100);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].nodes.len(), 2);
        let s = ddg.cycle_summary(&cycles[0], &|_| None);
        assert_eq!(s.latency, 2);
        assert_eq!(s.omega, 1);
        assert_eq!(s.implied_ii, 2);
        assert_eq!(ddg.rec_mii(), 2);
    }

    #[test]
    fn cap_limits_enumeration() {
        use ltsp_ir::{Inst, InstId, LoopIr, Opcode, RegClass, SrcOperand, VReg};
        let m = MachineModel::itanium2();
        // Dense graph: every node reads every other node carried -> many cycles.
        let n = 6u32;
        let regs: Vec<VReg> = (0..n).map(|i| VReg::new(RegClass::Gr, i)).collect();
        let insts: Vec<Inst> = (0..n)
            .map(|i| {
                let srcs = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| SrcOperand::carried(regs[j as usize], 1))
                    .collect();
                Inst::new(InstId(i), Opcode::Add, Some(regs[i as usize]), srcs, None)
            })
            .collect();
        let lp = LoopIr::new("dense", insts, vec![], vec![], vec![]).unwrap();
        let ddg = crate::Ddg::build(&lp, &m, &|_| 0);
        let cycles = ddg.recurrence_cycles(10);
        assert_eq!(cycles.len(), 10);
    }
}
