//! All-pairs longest-path distances at a fixed II, and the per-node
//! heights the modulo scheduler orders operations by.
//!
//! Two implementations of the heights:
//!
//! - [`MinDist::compute`] — the reference: one Floyd-Warshall over the
//!   full graph per II, O(n³) time and O(n²) memory per call; a node's
//!   height is the largest entry of its row.
//! - [`MinDistSolver`] — what the scheduler runs. A height is the longest
//!   path to a virtual sink that every node reaches at weight 0, under the
//!   difference constraints `t_j − t_i ≥ latency − II·omega`, so
//!   `h(u) = max(0, max_e w_e + h(e.to))`. The solver keeps only a reverse
//!   topological order of the `omega = 0` subgraph and relaxes that
//!   equation in that order, one Bellman-Ford round at a time, until a
//!   round changes nothing. The first round settles every same-iteration
//!   chain, and the second usually finds nothing left to lift, since a
//!   carried edge's weight `latency − II·omega` is usually negative. O(E)
//!   per round, O(n) memory.
//!
//! The solver must be *observably identical* to the reference. When the
//! relaxation cannot converge — a positive cycle at this II, so the II is
//! infeasible and longest paths are unbounded — or when the `omega = 0`
//! subgraph has a cycle, it returns the reference's heights instead. The
//! differential tests below pin byte-equality of the two across random
//! graphs, the kernel library, random loops and the scheduling-heavy
//! kernels over full II sweeps.

use ltsp_ir::InstId;

use crate::graph::Ddg;

/// The MinDist matrix of modulo scheduling: `dist(i, j)` is the minimum
/// number of cycles instruction `j` must start after instruction `i`
/// (longest path under edge weight `latency − II·omega`).
///
/// Used by the scheduler for precedence windows (`estart`) and for
/// height-based priority, and by tests as an oracle for RecMII (a positive
/// `dist(i, i)` means the II is infeasible).
#[derive(Debug, Clone)]
pub struct MinDist {
    n: usize,
    dist: Vec<i64>,
}

/// Sentinel for "no path".
const NEG_INF: i64 = i64::MIN / 4;

impl MinDist {
    /// Computes the matrix at the given II via Floyd-Warshall
    /// (O(n³); loop bodies are small).
    pub fn compute(ddg: &Ddg, ii: u32) -> MinDist {
        MinDist::compute_into(ddg, ii, Vec::new())
    }

    /// [`MinDist::compute`] reusing a previously-allocated backing
    /// buffer (e.g. reclaimed from an earlier matrix via `md.dist`).
    fn compute_into(ddg: &Ddg, ii: u32, mut dist: Vec<i64>) -> MinDist {
        let n = ddg.len();
        dist.clear();
        dist.resize(n * n, NEG_INF);
        for e in ddg.edges() {
            let w = i64::from(e.latency) - i64::from(ii) * i64::from(e.omega);
            let idx = e.from.index() * n + e.to.index();
            if w > dist[idx] {
                dist[idx] = w;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if dik == NEG_INF {
                    continue;
                }
                for j in 0..n {
                    let dkj = dist[k * n + j];
                    if dkj == NEG_INF {
                        continue;
                    }
                    let cand = dik + dkj;
                    if cand > dist[i * n + j] {
                        dist[i * n + j] = cand;
                    }
                }
            }
        }
        MinDist { n, dist }
    }

    /// Longest-path distance, or `None` if no path exists.
    pub fn get(&self, from: InstId, to: InstId) -> Option<i64> {
        let d = self.dist[from.index() * self.n + to.index()];
        if d == NEG_INF {
            None
        } else {
            Some(d)
        }
    }

    /// True when some node can reach itself with positive weight — the II
    /// is infeasible.
    pub fn has_positive_self_cycle(&self) -> bool {
        (0..self.n).any(|i| self.dist[i * self.n + i] > 0)
    }

    /// Height-based scheduling priority: the longest path from the node to
    /// any other node (at least 0). Ops that feed long chains schedule
    /// first.
    pub(crate) fn height(&self, node: InstId) -> i64 {
        let row = &self.dist[node.index() * self.n..(node.index() + 1) * self.n];
        row.iter()
            .copied()
            .filter(|&d| d > NEG_INF)
            .max()
            .unwrap_or(0)
            .max(0)
    }
}

/// Scheduling heights for II escalation: built once per graph, asked
/// for the heights at every II the scheduler tries. Falls back to
/// [`MinDist::compute`] whenever relaxation would not converge, so
/// results are always byte-identical to the reference.
#[derive(Debug, Clone)]
pub struct MinDistSolver {
    /// Nodes in reverse topological order of the `omega = 0` subgraph, so
    /// a node's same-iteration successors come before it; `None` when
    /// that subgraph has a cycle (never for a validated loop body).
    order: Option<Vec<u32>>,
    /// The reference matrix's allocation, reused across II attempts.
    fallback_dist: Vec<i64>,
}

impl MinDistSolver {
    /// Builds the solver: a topological sort of the `omega = 0` subgraph,
    /// O(n + E).
    pub fn new(ddg: &Ddg) -> MinDistSolver {
        let n = ddg.len();
        let same_iteration = |u: usize| {
            ddg.succs(InstId(u as u32))
                .filter(|e| e.omega == 0)
                .map(|e| e.to.index())
        };
        let mut indeg = vec![0u32; n];
        for u in 0..n {
            for v in same_iteration(u) {
                indeg[v] += 1;
            }
        }
        let mut topo: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut head = 0;
        while let Some(&u) = topo.get(head) {
            head += 1;
            for v in same_iteration(u as usize) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    topo.push(v as u32);
                }
            }
        }
        let order = (topo.len() == n).then(|| {
            topo.reverse();
            topo
        });
        MinDistSolver {
            order,
            fallback_dist: Vec::new(),
        }
    }

    /// Per-node scheduling heights at `ii`, written into `out`.
    /// Byte-identical to `MinDist::compute(ddg, ii).height(i)` for all i.
    pub fn heights_into(&mut self, ddg: &Ddg, ii: u32, out: &mut Vec<i64>) {
        let n = ddg.len();
        out.clear();
        out.resize(n, 0);
        if let Some(order) = &self.order {
            // Without a positive cycle every longest path is simple, so
            // n − 1 rounds settle all of them and round n changes nothing;
            // with one, every round changes something.
            for _ in 0..=n {
                let mut changed = false;
                for &u in order {
                    let (id, u) = (InstId(u), u as usize);
                    let mut h = out[u];
                    for e in ddg.succs(id) {
                        let w = i64::from(e.latency) - i64::from(ii) * i64::from(e.omega);
                        h = h.max(w + out[e.to.index()]);
                    }
                    if h != out[u] {
                        out[u] = h;
                        changed = true;
                    }
                }
                if !changed {
                    return;
                }
            }
        }
        // Infeasible II (or an omega-0 cycle): the reference, reusing its
        // matrix allocation across II attempts.
        let md = MinDist::compute_into(ddg, ii, std::mem::take(&mut self.fallback_dist));
        out.clear();
        out.extend((0..n).map(|i| md.height(InstId(i as u32))));
        self.fallback_dist = md.dist;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_machine::MachineModel;

    #[test]
    fn chain_distances() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("chain");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x); // latency 6 given below
        let a = b.fadd(v, v); // latency 4
        let y = b.affine_ref("y", DataClass::Fp, 1 << 20, 8, 8);
        b.store(y, a);
        let lp = b.build().unwrap();
        let ddg = crate::Ddg::build(&lp, &m, &|_| 6);
        let md = MinDist::compute(&ddg, 1);
        assert_eq!(md.get(ltsp_ir::InstId(0), ltsp_ir::InstId(1)), Some(6));
        assert_eq!(md.get(ltsp_ir::InstId(0), ltsp_ir::InstId(2)), Some(10));
        assert_eq!(md.get(ltsp_ir::InstId(2), ltsp_ir::InstId(0)), None);
        assert!(md.height(ltsp_ir::InstId(0)) >= 10);
    }

    #[test]
    fn self_cycle_detection_matches_feasibility() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd_reduce(v);
        let lp = b.build().unwrap();
        let ddg = crate::Ddg::build(&lp, &m, &|_| 6);
        // RecMII is 4 (the fadd self-recurrence).
        for ii in 1..8 {
            let md = MinDist::compute(&ddg, ii);
            assert_eq!(
                md.has_positive_self_cycle(),
                !ddg.feasible_ii(ii),
                "disagreement at ii={ii}"
            );
        }
    }

    /// A random dependence graph: a DAG core of omega-0 edges (forward
    /// only, so loop-body realism holds) plus random carried edges in any
    /// direction, including self-recurrences.
    fn random_ddg(rng: &mut ltsp_ir::SplitMix64, n: usize) -> crate::Ddg {
        use crate::graph::{DepEdge, DepKind};
        let mut edges = Vec::new();
        let omega0 = rng.next_below(3 * n as u64) as usize;
        for _ in 0..omega0 {
            let a = rng.next_below(n as u64) as usize;
            let b = rng.next_below(n as u64) as usize;
            if a == b {
                continue;
            }
            let (from, to) = (a.min(b), a.max(b));
            edges.push(DepEdge {
                from: InstId(from as u32),
                to: InstId(to as u32),
                kind: DepKind::Flow,
                latency: rng.next_below(9) as u32,
                omega: 0,
            });
        }
        let carried = rng.next_below(n as u64 / 2 + 2) as usize;
        for _ in 0..carried {
            let from = rng.next_below(n as u64) as usize;
            let to = rng.next_below(n as u64) as usize;
            edges.push(DepEdge {
                from: InstId(from as u32),
                to: InstId(to as u32),
                kind: DepKind::Flow,
                latency: rng.next_below(13) as u32,
                omega: 1 + rng.next_below(3) as u32,
            });
        }
        crate::Ddg::synthetic(n, edges)
    }

    fn assert_solver_matches(ddg: &crate::Ddg, ii_hi: u32, ctx: &str) {
        let mut solver = MinDistSolver::new(ddg);
        let mut heights = Vec::new();
        for ii in 1..=ii_hi {
            let reference = MinDist::compute(ddg, ii);
            solver.heights_into(ddg, ii, &mut heights);
            let ref_heights: Vec<i64> = (0..ddg.len())
                .map(|i| reference.height(InstId(i as u32)))
                .collect();
            assert_eq!(heights, ref_heights, "{ctx} ii={ii}: heights diverged");
        }
    }

    #[test]
    fn solver_matches_reference_on_random_graphs() {
        // Differential property test: incremental solver vs from-scratch
        // Floyd-Warshall across random DDGs and full II sweeps, covering
        // feasible IIs (incremental path) and infeasible ones (positive
        // cycles -> exact fallback) in the same sweep.
        let mut rng = ltsp_ir::SplitMix64::new(0x51D_D157);
        for case in 0..60 {
            let n = 2 + rng.next_below(14) as usize;
            let ddg = random_ddg(&mut rng, n);
            assert_solver_matches(&ddg, 14, &format!("case {case} (n={n})"));
        }
    }

    #[test]
    fn solver_matches_reference_on_real_kernels() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mix");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let acc = b.fadd_reduce(v);
        let w = b.fma(acc, v, acc);
        let y = b.affine_ref("y", DataClass::Fp, 1 << 20, 8, 8);
        b.store(y, w);
        let lp = b.build().unwrap();
        for boost in [1, 6, 21] {
            let ddg = crate::Ddg::build(&lp, &m, &|_| boost);
            assert_solver_matches(&ddg, 30, &format!("boost {boost}"));
        }
    }

    #[test]
    fn solver_matches_reference_when_carried_edges_dominate() {
        // Every node gets several carried edges, most of them closing
        // cycles: a positive one at the low IIs (the fallback), none
        // above them.
        let mut rng = ltsp_ir::SplitMix64::new(99);
        for case in 0..10 {
            use crate::graph::{DepEdge, DepKind};
            let n = 2 + rng.next_below(5) as usize;
            let mut edges = Vec::new();
            for i in 0..n {
                for _ in 0..2 {
                    edges.push(DepEdge {
                        from: InstId(i as u32),
                        to: InstId(rng.next_below(n as u64) as u32),
                        kind: DepKind::Flow,
                        latency: rng.next_below(8) as u32,
                        omega: 1 + rng.next_below(2) as u32,
                    });
                }
            }
            let ddg = crate::Ddg::synthetic(n, edges);
            assert_solver_matches(&ddg, 10, &format!("carried case {case}"));
        }
    }

    #[test]
    fn solver_matches_reference_with_a_same_iteration_cycle() {
        // No validated loop body has one, but the solver must still
        // answer like the reference (by being it).
        use crate::graph::{DepEdge, DepKind};
        let edge = |from, to, latency, omega| DepEdge {
            from: InstId(from),
            to: InstId(to),
            kind: DepKind::Flow,
            latency,
            omega,
        };
        let ddg = crate::Ddg::synthetic(
            3,
            vec![edge(0, 1, 2, 0), edge(1, 0, 0, 0), edge(1, 2, 3, 0)],
        );
        assert!(MinDistSolver::new(&ddg).order.is_none());
        assert_solver_matches(&ddg, 4, "omega-0 cycle");
    }

    #[test]
    fn solver_matches_reference_on_workload_corpora() {
        // Every II from 1 to Min II + 16 (the scheduler's whole ladder,
        // infeasible IIs included) on the kernel library, 470 random
        // loops and the scheduling-heavy shapes, at base latencies and
        // (for the smaller bodies) with every load boosted to 21.
        use ltsp_workloads::{kernel_library, random_loop, scheduling_heavy};
        let m = MachineModel::itanium2();
        let mut small: Vec<ltsp_ir::LoopIr> =
            kernel_library().into_iter().map(|(_, lp)| lp).collect();
        small.extend((0..470).map(random_loop));
        let heavy = (3..=5).flat_map(|s| (9..=20).map(move |d| (s, d)));
        let heavy = heavy.map(|(s, d)| scheduling_heavy(&format!("heavy{s}x{d}"), s, d));
        for (lp, floors) in small
            .into_iter()
            .map(|lp| (lp, &[0, 21][..]))
            .chain(heavy.map(|lp| (lp, &[0][..])))
        {
            for &floor in floors {
                let ddg = crate::Ddg::build_with_load_floor(&lp, &m, floor);
                let min_ii = m.res_mii(&lp).max(ddg.rec_mii());
                let ctx = format!("{} floor {floor}", lp.name());
                assert_solver_matches(&ddg, min_ii + 16, &ctx);
            }
        }
    }

    #[test]
    fn solver_handles_empty_and_single_node() {
        let ddg = crate::Ddg::synthetic(0, vec![]);
        let mut solver = MinDistSolver::new(&ddg);
        let mut h = vec![42];
        solver.heights_into(&ddg, 1, &mut h);
        assert!(h.is_empty());

        let one = crate::Ddg::synthetic(1, vec![]);
        let mut solver = MinDistSolver::new(&one);
        solver.heights_into(&one, 3, &mut h);
        assert_eq!(h, vec![0]);
    }

    #[test]
    fn carried_edge_subtracts_ii() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let acc = b.fadd_reduce(v);
        let _ = acc;
        let lp = b.build().unwrap();
        let ddg = crate::Ddg::build(&lp, &m, &|_| 1);
        let md = MinDist::compute(&ddg, 4);
        // fadd self edge: latency 4, omega 1, weight 4 - 4 = 0.
        assert_eq!(md.get(ltsp_ir::InstId(1), ltsp_ir::InstId(1)), Some(0));
    }
}
