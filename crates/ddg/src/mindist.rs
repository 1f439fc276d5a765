//! All-pairs longest-path distances at a fixed II.
//!
//! Two implementations of the same function:
//!
//! - [`MinDist::compute`] — the reference: one Floyd-Warshall over the
//!   full graph per II. O(n³) per call.
//! - [`MinDistSolver`] — the incremental solver behind II escalation.
//!   Edge weights are `latency − II·omega`, linear in II, and only the
//!   carried (`omega > 0`) edges depend on II at all. The solver runs
//!   Floyd-Warshall **once** over the II-independent `omega = 0`
//!   subgraph at construction, then answers each II by composing those
//!   fixed segment distances through the `c` carried edges — O(c³ + n·c)
//!   per II instead of O(n³), with `c ≪ n` in real loop bodies (carried
//!   edges are post-increment self-recurrences, reductions and memory
//!   recurrences). Scratch buffers are reused across II attempts.
//!
//! The solver must be *observably identical* to the reference: whenever
//! the decomposition is unsound — an `omega = 0` cycle, a
//! positive-weight cycle at this II (infeasible II), or too many carried
//! edges for the decomposition to win — it falls back to a full
//! recompute. The differential tests below pin byte-equality of the two
//! implementations across random graphs and II sweeps.

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

/// Values at or below this are "no path". Composed candidates add up to
/// three [`NEG_INF`]-tainted terms plus small real weights, so any sum
/// containing a missing segment stays far below this threshold while
/// every real path value (bounded by total latency and `II·Σomega`)
/// stays far above it.
const INVALID: i64 = NEG_INF / 2;

/// One carried edge of the decomposition.
#[derive(Debug, Clone, Copy)]
struct Carried {
    from: usize,
    to: usize,
    latency: i64,
    omega: i64,
}

/// Incremental [`MinDist`] solver for II escalation: pays the O(n³)
/// Floyd-Warshall once (over the II-independent `omega = 0` subgraph),
/// then re-derives heights at each II from the small set of carried
/// edges. Falls back to [`MinDist::compute`] whenever the
/// decomposition would be unsound, so results are always byte-identical
/// to the reference.
#[derive(Debug, Clone)]
pub struct MinDistSolver {
    n: usize,
    /// Decomposition disabled (omega-0 cycle, or `c` not small): every
    /// query runs the reference Floyd-Warshall.
    always_exact: bool,
    /// Per-node longest ≥1-edge path over `omega = 0` edges only (the
    /// II-independent part of `height`).
    h0: Vec<i64>,
    carried: Vec<Carried>,
    /// `n × c`: longest empty-or-`omega0` path from node `i` to
    /// `carried[s].from`.
    entry: Vec<i64>,
    /// Per carried edge `t`: the longest empty-or-`omega0` path from
    /// `carried[t].to` to any node (always ≥ 0: the empty path).
    maxexit: Vec<i64>,
    /// `c × c`: longest empty-or-`omega0` path from `carried[s].to` to
    /// `carried[t].from`.
    a: Vec<i64>,
    // Scratch reused across II attempts.
    q: Vec<i64>,
    tbest: Vec<i64>,
    cw: Vec<i64>,
    fallback_dist: Vec<i64>,
}

impl MinDistSolver {
    /// Builds the solver: one Floyd-Warshall over the `omega = 0`
    /// subgraph plus the carried-edge coupling matrices.
    pub fn new(ddg: &Ddg) -> MinDistSolver {
        let n = ddg.len();
        let carried: Vec<Carried> = ddg
            .edges()
            .iter()
            .filter(|e| e.omega > 0)
            .map(|e| Carried {
                from: e.from.index(),
                to: e.to.index(),
                latency: i64::from(e.latency),
                omega: i64::from(e.omega),
            })
            .collect();
        let c = carried.len();

        // The per-II closure is O(c³); past c ≈ n the decomposition
        // stops winning over the O(n³) reference.
        if c >= n.max(1) {
            return MinDistSolver::exact_only(n, carried);
        }

        // Longest ≥1-edge paths over omega-0 edges (II-independent). The
        // omega-0 subgraph of a valid loop body is a DAG (an omega-0
        // cycle would break the decomposition; topological sort detects
        // it and falls back), so all-pairs longest paths come from one
        // reverse-topological-order DP in O(E·n) — not Floyd-Warshall's
        // O(n³), which dominated solver construction on large bodies.
        let omega0: Vec<(usize, usize, i64)> = ddg
            .edges()
            .iter()
            .filter(|e| e.omega == 0)
            .map(|e| (e.from.index(), e.to.index(), i64::from(e.latency)))
            .collect();
        let mut indeg = vec![0usize; n];
        for &(_, to, _) in &omega0 {
            indeg[to] += 1;
        }
        let mut topo: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut head = 0;
        let mut out: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
        for &(from, to, w) in &omega0 {
            out[from].push((to, w));
        }
        while head < topo.len() {
            let u = topo[head];
            head += 1;
            for &(v, _) in &out[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    topo.push(v);
                }
            }
        }
        if topo.len() != n {
            // An omega-0 cycle: defensive only, loop bodies are DAGs
            // within an iteration.
            return MinDistSolver::exact_only(n, carried);
        }

        let mut d0 = vec![NEG_INF; n * n];
        for &u in topo.iter().rev() {
            for &(v, w) in &out[u] {
                // The edge itself, then the edge prepended to every path
                // out of `v` (already final: v is topologically later).
                if w > d0[u * n + v] {
                    d0[u * n + v] = w;
                }
                let (urow, vrow) = if u < v {
                    let (a, b) = d0.split_at_mut(v * n);
                    (&mut a[u * n..u * n + n], &b[..n])
                } else {
                    let (a, b) = d0.split_at_mut(u * n);
                    (&mut b[..n], &a[v * n..v * n + n])
                };
                for (du, &dv) in urow.iter_mut().zip(vrow) {
                    if dv > INVALID {
                        let cand = w + dv;
                        if cand > *du {
                            *du = cand;
                        }
                    }
                }
            }
        }

        let h0: Vec<i64> = (0..n)
            .map(|i| {
                d0[i * n..(i + 1) * n]
                    .iter()
                    .copied()
                    .filter(|&d| d > INVALID)
                    .max()
                    .unwrap_or(NEG_INF)
            })
            .collect();

        // Empty-or-omega0 segment distance: 0 when the endpoints
        // coincide (no omega-0 cycles, so d0[i][i] is always invalid).
        let seg = |from: usize, to: usize| if from == to { 0 } else { d0[from * n + to] };

        let mut entry = vec![NEG_INF; n * c];
        for i in 0..n {
            for (s, cs) in carried.iter().enumerate() {
                entry[i * c + s] = seg(i, cs.from);
            }
        }
        let mut exitv = vec![NEG_INF; c * n];
        let mut maxexit = vec![NEG_INF; c];
        for (t, ct) in carried.iter().enumerate() {
            for j in 0..n {
                let v = seg(ct.to, j);
                exitv[t * n + j] = v;
                if v > maxexit[t] {
                    maxexit[t] = v;
                }
            }
        }
        let mut a = vec![NEG_INF; c * c];
        for (s, cs) in carried.iter().enumerate() {
            for (t, ct) in carried.iter().enumerate() {
                a[s * c + t] = seg(cs.to, ct.from);
            }
        }

        MinDistSolver {
            n,
            always_exact: false,
            h0,
            carried,
            entry,
            maxexit,
            a,
            q: vec![0; c * c],
            tbest: vec![0; c],
            cw: vec![0; c],
            fallback_dist: Vec::new(),
        }
    }

    fn exact_only(n: usize, carried: Vec<Carried>) -> MinDistSolver {
        MinDistSolver {
            n,
            always_exact: true,
            h0: Vec::new(),
            carried,
            entry: Vec::new(),
            maxexit: Vec::new(),
            a: Vec::new(),
            q: Vec::new(),
            tbest: Vec::new(),
            cw: Vec::new(),
            fallback_dist: Vec::new(),
        }
    }

    /// Closes the carried-edge transition graph at `ii` into the scratch
    /// matrix `q`. Returns `false` when a positive cycle exists (the II
    /// is infeasible and longest paths are unbounded — caller must fall
    /// back to the reference to reproduce its exact values).
    fn close_transitions(&mut self, ii: u32) -> bool {
        let c = self.carried.len();
        for (s, e) in self.carried.iter().enumerate() {
            self.cw[s] = e.latency - i64::from(ii) * e.omega;
        }
        // q[s][t] = best "… just took carried edge s, travel to and take
        // carried edge t" chain of ≥1 transitions.
        for s in 0..c {
            for t in 0..c {
                let a = self.a[s * c + t];
                self.q[s * c + t] = if a <= INVALID {
                    NEG_INF
                } else {
                    a + self.cw[t]
                };
            }
        }
        for k in 0..c {
            for s in 0..c {
                let qsk = self.q[s * c + k];
                if qsk <= INVALID {
                    continue;
                }
                for t in 0..c {
                    let qkt = self.q[k * c + t];
                    if qkt <= INVALID {
                        continue;
                    }
                    let cand = qsk + qkt;
                    if cand > self.q[s * c + t] {
                        self.q[s * c + t] = cand;
                    }
                }
            }
        }
        // A positive cycle among carried transitions lifts to a positive
        // cycle in the full graph (and vice versa for any positive cycle
        // that is not pure omega-0, which construction already excluded).
        (0..c).all(|s| self.q[s * c + s] <= 0)
    }

    /// Per-node scheduling heights at `ii`, written into `out`.
    /// Byte-identical to `MinDist::compute(ddg, ii).height(i)` for all i.
    pub fn heights_into(&mut self, ddg: &Ddg, ii: u32, out: &mut Vec<i64>) {
        let n = self.n;
        out.clear();
        if self.always_exact || !self.close_transitions(ii) {
            // Full recompute, reusing the fallback matrix allocation
            // across II attempts.
            let md = MinDist::compute_into(ddg, ii, std::mem::take(&mut self.fallback_dist));
            out.extend((0..n).map(|i| md.height(InstId(i as u32))));
            self.fallback_dist = md.dist;
            return;
        }
        let c = self.carried.len();
        // tbest[s] = best completion after taking carried edge s: zero or
        // more further transitions, then the best exit segment. Always
        // valid: the empty continuation contributes maxexit[s] ≥ 0.
        for s in 0..c {
            let mut best = self.maxexit[s];
            for t in 0..c {
                let q = self.q[s * c + t];
                if q > INVALID {
                    let cand = q + self.maxexit[t];
                    if cand > best {
                        best = cand;
                    }
                }
            }
            self.tbest[s] = best;
        }
        for i in 0..n {
            let mut h = self.h0[i];
            for s in 0..c {
                let e = self.entry[i * c + s];
                if e > INVALID {
                    let cand = e + self.cw[s] + self.tbest[s];
                    if cand > h {
                        h = cand;
                    }
                }
            }
            out.push(if h > INVALID { h.max(0) } else { 0 });
        }
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
    fn solver_exact_fallback_when_carried_dominates() {
        // Every node gets several carried edges: c >= n disables the
        // decomposition entirely; results must still match.
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
            let solver = MinDistSolver::new(&ddg);
            assert!(solver.always_exact, "case {case}: expected exact mode");
            assert_solver_matches(&ddg, 10, &format!("exact case {case}"));
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
