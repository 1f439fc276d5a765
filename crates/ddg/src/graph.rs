//! Graph construction and the Recurrence II bound.

use ltsp_ir::{AccessPattern, InstId, LoopIr, MemDepKind};
use ltsp_machine::MachineModel;

/// Kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Register flow dependence (def → use), possibly loop-carried.
    Flow,
    /// Memory read-after-write.
    MemFlow,
    /// Memory write-after-read.
    MemAnti,
    /// Memory write-after-write.
    MemOutput,
    /// Implicit post-increment self-recurrence of a strided memory op: the
    /// next iteration's address is available one cycle after this access
    /// issues. These edges are *not* load-data edges, so criticality
    /// analysis never raises their latency.
    AddrInc,
}

/// A dependence edge with a scheduling latency and a loop-carried distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer instruction.
    pub from: InstId,
    /// Consumer instruction.
    pub to: InstId,
    /// Edge kind.
    pub kind: DepKind,
    /// Scheduling latency in cycles: the consumer may start `latency`
    /// cycles after the producer (modulo `omega` iterations).
    pub latency: u32,
    /// Iteration distance.
    pub omega: u32,
}

/// Closure assigning each load its *scheduling* latency (base, or the
/// boosted hint-derived value for non-critical loads).
pub type LoadLatencyFn<'a> = dyn Fn(InstId) -> u32 + 'a;

/// Edge indices grouped by one endpoint: node `v`'s edges are
/// `idx[start[v]..start[v + 1]]`, in edge order.
#[derive(Debug, Clone)]
struct Adjacency {
    start: Vec<usize>,
    idx: Vec<usize>,
}

impl Adjacency {
    fn new(n: usize, edges: &[DepEdge], endpoint: impl Fn(&DepEdge) -> InstId) -> Self {
        // Counting sort: group sizes, then inclusive prefix sums, then a
        // reverse fill that walks each group's cursor down to its start.
        let mut start = vec![0; n + 1];
        for e in edges {
            start[endpoint(e).index()] += 1;
        }
        for v in 1..=n {
            start[v] += start[v - 1];
        }
        let mut idx = vec![0; edges.len()];
        for (i, e) in edges.iter().enumerate().rev() {
            let cursor = &mut start[endpoint(e).index()];
            *cursor -= 1;
            idx[*cursor] = i;
        }
        Adjacency { start, idx }
    }

    fn of(&self, node: usize) -> &[usize] {
        &self.idx[self.start[node]..self.start[node + 1]]
    }
}

/// The cyclic data-dependence graph of one loop.
#[derive(Debug, Clone)]
pub struct Ddg {
    n: usize,
    edges: Vec<DepEdge>,
    succ: Adjacency,
    pred: Adjacency,
    is_load: Vec<bool>,
}

impl Ddg {
    /// Builds the dependence graph for `lp`.
    ///
    /// `load_latency` supplies the scheduling latency of each load's data
    /// result (the pipeliner passes base latencies first, then hint-boosted
    /// values for non-critical loads). All other latencies come from the
    /// machine model.
    ///
    /// Edges:
    /// - register flow `def → use` with the producer's latency and the
    ///   operand's `omega`;
    /// - explicit memory dependences from [`LoopIr::mem_deps`] (flow: 1
    ///   cycle, anti: 0, output: 1);
    /// - a `(latency 1, omega 1)` post-increment self-edge on every strided
    ///   (affine or symbolic-stride) memory access.
    ///
    /// # Example
    ///
    /// ```
    /// use ltsp_ddg::Ddg;
    /// use ltsp_ir::{DataClass, LoopBuilder};
    /// use ltsp_machine::MachineModel;
    ///
    /// // An FP reduction: acc = acc[-1] + a[i].
    /// let mut b = LoopBuilder::new("red");
    /// let a = b.affine_ref("a[i]", DataClass::Fp, 0, 8, 8);
    /// let v = b.load(a);
    /// let _acc = b.fadd_reduce(v);
    /// let lp = b.build()?;
    ///
    /// let m = MachineModel::itanium2();
    /// let ddg = Ddg::build(&lp, &m, &|_| 6); // FP loads: base latency 6
    /// // The fadd self-recurrence (latency 4, omega 1) bounds the II.
    /// assert_eq!(ddg.rec_mii(), 4);
    /// # Ok::<(), ltsp_ir::IrError>(())
    /// ```
    pub fn build(lp: &LoopIr, machine: &MachineModel, load_latency: &LoadLatencyFn) -> Ddg {
        let n = lp.insts().len();
        let mut edges = Vec::new();
        let is_load: Vec<bool> = lp.insts().iter().map(|i| i.op().is_load()).collect();

        // Register flow edges (qualifying predicates included).
        for (to, s, def) in lp.resolved_reads() {
            if let Some(def) = def {
                let producer = lp.inst(def);
                let lat = if producer.op().is_load() {
                    load_latency(def)
                } else {
                    machine.latencies().op_latency(producer.op())
                };
                edges.push(DepEdge {
                    from: def,
                    to,
                    kind: DepKind::Flow,
                    latency: lat,
                    omega: s.omega,
                });
            }
        }

        // Explicit memory dependences.
        for d in lp.mem_deps() {
            let (kind, lat) = match d.kind {
                MemDepKind::Flow => (DepKind::MemFlow, 1),
                MemDepKind::Anti => (DepKind::MemAnti, 0),
                MemDepKind::Output => (DepKind::MemOutput, 1),
            };
            edges.push(DepEdge {
                from: d.from,
                to: d.to,
                kind,
                latency: lat,
                omega: d.omega,
            });
        }

        // Post-increment self-recurrences on strided memory ops.
        for inst in lp.insts() {
            if let Some(m) = inst.mem() {
                let strided = matches!(
                    lp.memref(m).pattern(),
                    AccessPattern::Affine { .. } | AccessPattern::SymbolicStride { .. }
                );
                if strided {
                    edges.push(DepEdge {
                        from: inst.id(),
                        to: inst.id(),
                        kind: DepKind::AddrInc,
                        latency: 1,
                        omega: 1,
                    });
                }
            }
        }

        Ddg::from_parts(n, edges, is_load)
    }

    fn from_parts(n: usize, edges: Vec<DepEdge>, is_load: Vec<bool>) -> Ddg {
        Ddg {
            n,
            succ: Adjacency::new(n, &edges, |e| e.from),
            pred: Adjacency::new(n, &edges, |e| e.to),
            edges,
            is_load,
        }
    }

    /// Builds the graph with every load at its base (L1) scheduling
    /// latency, floored at `floor` cycles.
    ///
    /// This is the canonical base-latency graph: the pipeliner's
    /// base-latency phase uses `floor = 0`, and tests/oracles that want a
    /// uniform boost pass the boosted latency as the floor. Having one
    /// constructor keeps every consumer — production scheduling, the
    /// schedule validator and the differential harness — on the same
    /// dependence edges.
    pub fn build_with_load_floor(lp: &LoopIr, machine: &MachineModel, floor: u32) -> Ddg {
        Ddg::build(lp, machine, &|id| {
            if let ltsp_ir::Opcode::Load(dc) = lp.inst(id).op() {
                machine
                    .load_latency(dc, ltsp_machine::LatencyQuery::Base)
                    .max(floor)
            } else {
                0
            }
        })
    }

    /// Number of instructions (nodes).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Outgoing edges of a node.
    pub fn succs(&self, id: InstId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.succ
            .of(id.index())
            .iter()
            .map(move |&i| &self.edges[i])
    }

    /// Incoming edges of a node.
    pub fn preds(&self, id: InstId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.pred
            .of(id.index())
            .iter()
            .map(move |&i| &self.edges[i])
    }

    /// True if the node is a load.
    pub fn is_load(&self, id: InstId) -> bool {
        self.is_load[id.index()]
    }

    /// Raw outgoing edge indices (internal; used by cycle enumeration).
    pub(crate) fn succ_raw(&self, node: usize) -> &[usize] {
        self.succ.of(node)
    }

    /// Is there a schedule with initiation interval `ii`? Holds iff the
    /// graph has no cycle with positive weight under `latency − ii·omega`.
    pub fn feasible_ii(&self, ii: u32) -> bool {
        // Longest-path Bellman-Ford from a virtual super-source that
        // reaches every node with distance 0; a positive cycle keeps
        // relaxing past |V| rounds.
        let n = self.n;
        if n == 0 {
            return true;
        }
        let mut dist = vec![0i64; n];
        for round in 0..=n {
            let mut changed = false;
            for e in &self.edges {
                let w = i64::from(e.latency) - i64::from(ii) * i64::from(e.omega);
                let cand = dist[e.from.index()] + w;
                if cand > dist[e.to.index()] {
                    dist[e.to.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if round == n {
                return false;
            }
        }
        true
    }

    /// The Recurrence II: the smallest II for which no recurrence cycle is
    /// violated (Sec. 1.1). Always at least 1.
    pub fn rec_mii(&self) -> u32 {
        let mut hi: u32 = 1 + self.edges.iter().map(|e| e.latency).sum::<u32>();
        if self.feasible_ii(1) {
            return 1;
        }
        let mut lo = 1u32; // infeasible
        debug_assert!(self.feasible_ii(hi));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.feasible_ii(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Strongly connected components with more than one node or a
    /// self-loop — i.e. the subgraphs that can contain recurrence cycles —
    /// in Tarjan's completion order, each as a sorted run of nodes.
    pub(crate) fn recurrence_sccs(&self) -> RecurrenceSccs {
        // Iterative Tarjan; every component lands in `members`, and the
        // ones that cannot hold a cycle are truncated away again.
        let n = self.n;
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs = RecurrenceSccs {
            members: Vec::new(),
            bounds: vec![0],
            comp: vec![u32::MAX; n],
        };
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
                if let Some(&edge) = self.succ.of(v).get(*ei) {
                    let edge = &self.edges[edge];
                    *ei += 1;
                    let w = edge.to.index();
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
                        let from = sccs.members.len();
                        loop {
                            let w = stack.pop().expect("scc stack underflow");
                            on_stack[w] = false;
                            sccs.members.push(w as u32);
                            if w == v {
                                break;
                            }
                        }
                        let scc = &mut sccs.members[from..];
                        if scc.len() == 1
                            && !self.succs(InstId(v as u32)).any(|e| e.to.index() == v)
                        {
                            sccs.members.truncate(from);
                            continue;
                        }
                        scc.sort_unstable();
                        let id = (sccs.bounds.len() - 1) as u32;
                        for &w in scc.iter() {
                            sccs.comp[w as usize] = id;
                        }
                        sccs.bounds.push(sccs.members.len());
                    }
                }
            }
        }
        sccs
    }
}

/// The recurrence SCCs of a graph as flat arrays.
#[derive(Debug)]
pub(crate) struct RecurrenceSccs {
    /// Every component's nodes, one sorted run per component.
    members: Vec<u32>,
    /// Component `k` is `members[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<usize>,
    /// Per node: its component, or `u32::MAX` on none.
    pub(crate) comp: Vec<u32>,
}

impl RecurrenceSccs {
    /// Number of components.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The sorted nodes of component `k`.
    pub(crate) fn members(&self, k: usize) -> &[u32] {
        &self.members[self.bounds[k]..self.bounds[k + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_machine::{LatencyQuery, MachineModel};

    impl Ddg {
        /// Builds a graph directly from raw edges, bypassing IR construction.
        ///
        /// For differential and property tests that need arbitrary dependence
        /// shapes (random latencies, omegas, cycles) without inventing a loop
        /// body that produces them. Not used by the production pipeline.
        pub(crate) fn synthetic(n: usize, edges: Vec<DepEdge>) -> Ddg {
            assert!(
                edges.iter().all(|e| e.from.index() < n && e.to.index() < n),
                "edge endpoints must be < n"
            );
            Ddg::from_parts(n, edges, vec![false; n])
        }
    }

    fn base_lat(lp: &LoopIr, m: &MachineModel) -> impl Fn(InstId) -> u32 {
        let lats: Vec<u32> = lp
            .insts()
            .iter()
            .map(|i| match i.op() {
                ltsp_ir::Opcode::Load(dc) => m.load_latency(dc, LatencyQuery::Base),
                _ => 0,
            })
            .collect();
        move |id: InstId| lats[id.index()]
    }

    #[test]
    fn running_example_rec_mii_is_one() {
        // ld/add/st with only post-increment recurrences: RecMII = 1.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("ex");
        let s = b.affine_ref("s", DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("d", DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        let lp = b.build().unwrap();
        let f = base_lat(&lp, &m);
        let ddg = Ddg::build(&lp, &m, &f);
        assert_eq!(ddg.rec_mii(), 1);
        // Three flow-ish chains: ld->add, add->st, plus 2 addr-inc edges.
        assert_eq!(
            ddg.edges()
                .iter()
                .filter(|e| e.kind == DepKind::AddrInc)
                .count(),
            2
        );
    }

    #[test]
    fn fp_reduction_rec_mii_is_fp_latency() {
        // acc = acc[-1] + v: cycle of one fadd (latency 4), omega 1.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _acc = b.fadd_reduce(v);
        let lp = b.build().unwrap();
        let f = base_lat(&lp, &m);
        let ddg = Ddg::build(&lp, &m, &f);
        assert_eq!(ddg.rec_mii(), 4);
    }

    #[test]
    fn pointer_chase_rec_mii_is_load_latency() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("chase");
        let node = b.chase_ref("n", 0, 64, 1 << 22, 0.0);
        let _v = b.load(node);
        let lp = b.build().unwrap();
        // With base latency 1 the chase recurrence gives RecMII 1; with a
        // boosted latency 21 it gives 21.
        let ddg1 = Ddg::build(&lp, &m, &|_| 1);
        assert_eq!(ddg1.rec_mii(), 1);
        let ddg21 = Ddg::build(&lp, &m, &|_| 21);
        assert_eq!(ddg21.rec_mii(), 21);
    }

    #[test]
    fn feasibility_is_monotone() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _acc = b.fma_reduce(v, v);
        let lp = b.build().unwrap();
        let f = base_lat(&lp, &m);
        let ddg = Ddg::build(&lp, &m, &f);
        let rm = ddg.rec_mii();
        for ii in 1..rm {
            assert!(!ddg.feasible_ii(ii), "ii={ii} below RecMII must fail");
        }
        for ii in rm..rm + 4 {
            assert!(ddg.feasible_ii(ii), "ii={ii} at/above RecMII must pass");
        }
    }

    #[test]
    fn sccs_identify_recurrences() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mix");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x); // self AddrInc scc
        let acc = b.fadd_reduce(v); // self flow scc
        let _ = acc;
        let lp = b.build().unwrap();
        let f = base_lat(&lp, &m);
        let ddg = Ddg::build(&lp, &m, &f);
        let sccs = ddg.recurrence_sccs();
        assert_eq!(sccs.len(), 2);
        // The fadd completes first: the load's DFS reaches it.
        assert_eq!((sccs.members(0), sccs.members(1)), (&[1][..], &[0][..]));
        assert_eq!(sccs.comp, vec![1, 0]);
    }

    #[test]
    fn adjacency_lists_edges_in_edge_order() {
        let edge = |from, to, latency| DepEdge {
            from: InstId(from),
            to: InstId(to),
            kind: DepKind::Flow,
            latency,
            omega: 0,
        };
        let edges = vec![
            edge(2, 0, 10),
            edge(0, 1, 11),
            edge(2, 1, 12),
            edge(0, 2, 13),
        ];
        let ddg = Ddg::synthetic(4, edges);
        let lat = |es: Vec<&DepEdge>| es.iter().map(|e| e.latency).collect::<Vec<_>>();
        assert_eq!(lat(ddg.succs(InstId(0)).collect()), [11, 13]);
        assert_eq!(lat(ddg.succs(InstId(2)).collect()), [10, 12]);
        assert_eq!(lat(ddg.preds(InstId(1)).collect()), [11, 12]);
        assert_eq!(
            ddg.succs(InstId(3)).count() + ddg.preds(InstId(3)).count(),
            0
        );
        let sccs = ddg.recurrence_sccs();
        assert_eq!((sccs.len(), sccs.members(0)), (1, &[0, 2][..]));
        assert_eq!(sccs.comp, vec![0, u32::MAX, 0, u32::MAX]);
    }

    #[test]
    fn carried_distance_two_halves_pressure() {
        // acc = acc[-2] + v: the recurrence spans 2 iterations, so
        // RecMII = ceil(4/2) = 2.
        use ltsp_ir::{Inst, Opcode, RegClass, SrcOperand, VReg};
        let m = MachineModel::itanium2();
        let acc = VReg::new(RegClass::Fr, 0);
        let i0 = Inst::new(
            InstId(0),
            Opcode::Fadd,
            Some(acc),
            &[SrcOperand::carried(acc, 2)],
            None,
        );
        let lp = LoopIr::new("r2", vec![i0], vec![], vec![], vec![]).unwrap();
        let ddg = Ddg::build(&lp, &m, &|_| 0);
        assert_eq!(ddg.rec_mii(), 2);
    }
}
