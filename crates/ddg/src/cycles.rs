//! Bounded enumeration of recurrence cycles.
//!
//! The criticality analysis of the reproduced paper (Sec. 3.3) iterates
//! over the recurrence cycles of the loop and asks, per cycle, whether
//! raising the contained loads to their hinted latencies would push the
//! cycle's implied II above the Resource II. This module enumerates simple
//! cycles per strongly connected component by plain depth-first search:
//! from each start node, every simple path through larger nodes of the
//! component is walked, and a path that returns to the start is a cycle.
//! There is no Johnson-style blocking, so a start node re-walks every
//! simple path out of it, and in a dense component the walk is
//! exponential; the only bound is the caller's `cap` on cycles found.
//! Real loop bodies have few cycles, mostly post-increment self-loops.

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
    /// Enumerates simple cycles, stopping after `cap` of them (a safety
    /// valve; real loop bodies have few). Components come in Tarjan's
    /// completion order; within one, each cycle is found from its
    /// smallest node, start nodes ascending, successors in edge order.
    pub fn recurrence_cycles(&self, cap: usize) -> Vec<RecurrenceCycle> {
        let sccs = self.recurrence_sccs();
        let mut out = Vec::new();
        // One path for every start node: the walk pops all of it again.
        let mut on_path = vec![false; self.len()];
        let mut path_nodes: Vec<usize> = Vec::new();
        let mut path_edges: Vec<usize> = Vec::new();
        // Per path node, the next successor offset to try.
        let mut frame: Vec<usize> = Vec::new();
        for k in 0..sccs.len() {
            for &s in sccs.members(k) {
                if out.len() >= cap {
                    return out;
                }
                let s = s as usize;
                path_nodes.push(s);
                on_path[s] = true;
                frame.push(0);
                while let Some(ei) = frame.last_mut() {
                    let v = *path_nodes.last().expect("path tracks frames");
                    let Some(&edge_idx) = self.succ_raw(v).get(*ei) else {
                        frame.pop();
                        path_nodes.pop();
                        on_path[v] = false;
                        path_edges.pop();
                        continue;
                    };
                    *ei += 1;
                    let w = self.edges()[edge_idx].to.index();
                    if sccs.comp[w] != k as u32 || w < s {
                        continue;
                    }
                    if w == s {
                        out.push(RecurrenceCycle {
                            nodes: path_nodes.iter().map(|&x| InstId(x as u32)).collect(),
                            edges: path_edges.iter().copied().chain([edge_idx]).collect(),
                        });
                        if out.len() >= cap {
                            return out;
                        }
                    } else if !on_path[w] {
                        on_path[w] = true;
                        path_nodes.push(w);
                        path_edges.push(edge_idx);
                        frame.push(0);
                    }
                }
            }
        }
        out
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
            &[SrcOperand::carried(b_, 1)],
            None,
        );
        let i1 = Inst::new(InstId(1), Opcode::Add, Some(b_), &[a.into()], None);
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
        let cycles = dense(6).recurrence_cycles(10);
        assert_eq!(cycles.len(), 10);
    }

    /// Dense: every node reads every other node carried, so each of the
    /// `n` nodes sits in one component with many cycles.
    fn dense(n: u32) -> crate::Ddg {
        use ltsp_ir::{Inst, InstId, LoopIr, Opcode, RegClass, SrcOperand, VReg};
        let regs: Vec<VReg> = (0..n).map(|i| VReg::new(RegClass::Gr, i)).collect();
        let insts: Vec<Inst> = (0..n)
            .map(|i| {
                let srcs: Vec<SrcOperand> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| SrcOperand::carried(regs[j as usize], 1))
                    .collect();
                Inst::new(InstId(i), Opcode::Add, Some(regs[i as usize]), &srcs, None)
            })
            .collect();
        let lp = LoopIr::new("dense", insts, vec![], vec![], vec![]).unwrap();
        crate::Ddg::build(&lp, &MachineModel::itanium2(), &|_| 0)
    }

    fn assert_matches_reference(ddg: &crate::Ddg, cap: usize, ctx: &str) {
        let expected = super::reference::recurrence_cycles(ddg, cap);
        assert_eq!(ddg.recurrence_cycles(cap), expected, "{ctx} cap {cap}");
    }

    #[test]
    fn cycles_match_the_per_component_reference() {
        use ltsp_ir::{InstId, SplitMix64};
        use ltsp_workloads::{kernel_library, random_loop, scheduling_heavy};
        let m = MachineModel::itanium2();
        let mut loops: Vec<ltsp_ir::LoopIr> =
            kernel_library().into_iter().map(|(_, lp)| lp).collect();
        loops.extend((0..470).map(random_loop));
        for s in 3..=5 {
            loops.extend((9..=20).map(|d| scheduling_heavy(&format!("heavy{s}x{d}"), s, d)));
        }
        for lp in &loops {
            let ddg = crate::Ddg::build_with_load_floor(lp, &m, 0);
            for cap in [0, 1, 3, 10_000] {
                assert_matches_reference(&ddg, cap, lp.name());
            }
        }
        // Random graphs with several components, edges in any direction.
        let mut rng = SplitMix64::new(0xC1C1E5);
        for case in 0..200 {
            use crate::graph::{DepEdge, DepKind};
            let n = 1 + rng.next_below(12) as u32;
            let edges = (0..rng.next_below(3 * u64::from(n)))
                .map(|_| DepEdge {
                    from: InstId(rng.next_below(u64::from(n)) as u32),
                    to: InstId(rng.next_below(u64::from(n)) as u32),
                    kind: DepKind::Flow,
                    latency: 1,
                    omega: rng.next_below(2) as u32,
                })
                .collect();
            let ddg = crate::Ddg::synthetic(n as usize, edges);
            for cap in [1, 7, 10_000] {
                assert_matches_reference(&ddg, cap, &format!("random case {case}"));
            }
        }
        // A dense component truncated at every cap up to past its total.
        let ddg = dense(5);
        let all = ddg.recurrence_cycles(usize::MAX).len();
        for cap in 0..=all + 1 {
            assert_matches_reference(&ddg, cap, "dense 5");
        }
        assert_matches_reference(&dense(7), 1000, "dense 7");
    }
}

/// The per-component `HashSet` enumeration `recurrence_cycles` replaced,
/// kept as its referee: a `Vec` per Tarjan component, a `HashSet` per
/// recurrence component and an n-byte on-path array per start node.
#[cfg(test)]
mod reference {
    use std::collections::HashSet;

    use ltsp_ir::InstId;

    use super::RecurrenceCycle;
    use crate::graph::Ddg;

    fn tarjan(ddg: &Ddg) -> Vec<Vec<InstId>> {
        let n = ddg.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut result: Vec<Vec<InstId>> = Vec::new();
        let mut call: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            call.push((start, 0));
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut ei)) = call.last_mut() {
                if let Some(&edge) = ddg.succ_raw(v).get(*ei) {
                    *ei += 1;
                    let w = ddg.edges()[edge].to.index();
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("scc stack underflow");
                            on_stack[w] = false;
                            scc.push(InstId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        scc.sort();
                        result.push(scc);
                    }
                }
            }
        }
        result
    }

    pub(super) fn recurrence_cycles(ddg: &Ddg, cap: usize) -> Vec<RecurrenceCycle> {
        let mut out = Vec::new();
        let sccs = tarjan(ddg)
            .into_iter()
            .filter(|scc| scc.len() > 1 || ddg.succs(scc[0]).any(|e| e.to == scc[0]));
        for scc in sccs {
            if out.len() >= cap {
                break;
            }
            cycles_in_scc(ddg, &scc, cap, &mut out);
        }
        out
    }

    fn cycles_in_scc(ddg: &Ddg, scc: &[InstId], cap: usize, out: &mut Vec<RecurrenceCycle>) {
        let in_scc: HashSet<usize> = scc.iter().map(|id| id.index()).collect();
        for &start in scc {
            if out.len() >= cap {
                return;
            }
            let s = start.index();
            let mut path_nodes: Vec<usize> = vec![s];
            let mut path_edges: Vec<usize> = Vec::new();
            let mut on_path = vec![false; ddg.len()];
            on_path[s] = true;
            let mut frame: Vec<usize> = vec![0];
            while let Some(ei) = frame.last_mut() {
                let v = *path_nodes.last().expect("path tracks frames");
                let succs = ddg.succ_raw(v);
                if *ei < succs.len() {
                    let edge_idx = succs[*ei];
                    *ei += 1;
                    let w = ddg.edges()[edge_idx].to.index();
                    if !in_scc.contains(&w) || w < s {
                        continue;
                    }
                    if w == s {
                        let mut edges = path_edges.clone();
                        edges.push(edge_idx);
                        out.push(RecurrenceCycle {
                            nodes: path_nodes.iter().map(|&x| InstId(x as u32)).collect(),
                            edges,
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
}
