//! The exact-II oracle: a complete branch-and-bound search that proves
//! the minimal feasible initiation interval of a loop.
//!
//! The heuristic iterative modulo scheduler can fail at a feasible II
//! (its eviction budget is finite), so its chosen II is only an upper
//! bound on the true minimum. This module decides, for each candidate II
//! below that upper bound, whether *any* modulo schedule exists — no SMT
//! solver, just a hand-rolled DPLL-style search (in the spirit of
//! Roorda's optimal-pipelining-as-SAT formulation) over a decomposition
//! that makes the problem finite:
//!
//! Write every issue time as `t_i = r_i + II·q_i` with the **residue**
//! `r_i ∈ [0, II)` and an integer **level** `q_i`. Resource constraints
//! depend only on the residues (the kernel row is `t mod II`); a
//! dependence edge `t_to − t_from ≥ latency − II·omega` becomes the
//! integer difference constraint
//!
//! ```text
//! q_to − q_from ≥ ceil((latency − II·omega − r_to + r_from) / II)
//! ```
//!
//! which is satisfiable iff the residue-induced constraint graph has no
//! positive-weight cycle. The search assigns residues operation by
//! operation (highest dependence height first, the first operation pinned
//! to residue 0 by rotation symmetry), maintaining per-row slot counts
//! and an incrementally-closed longest-path matrix over the assigned
//! subgraph; a full row or a positive diagonal prunes the subtree. A
//! search that exhausts the space **proves** the II infeasible; a leaf
//! yields a witness schedule (levels from Bellman-Ford on the constraint
//! graph). A node budget bounds the worst case, downgrading the verdict
//! to [`IiVerdict::BoundedUnknown`].

use ltsp_ddg::Ddg;
use ltsp_ir::{LoopIr, RegClass, UnitClass};
use ltsp_machine::MachineModel;
use ltsp_pipeliner::{allocate_rotating, register_floor, ModuloSchedule};

/// Tunables for the oracle search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOptions {
    /// Search nodes (residue assignments tried) per candidate II before
    /// the verdict degrades to [`IiVerdict::BoundedUnknown`].
    pub node_budget: u64,
    /// Loops with more instructions than this are not searched at all
    /// (the proof is exponential in the worst case).
    pub max_insts: usize,
    /// Optional wall-clock budget for the whole proof. When it expires
    /// the verdict degrades to [`IiVerdict::BoundedUnknown`] exactly as a
    /// node-budget exhaustion would — the search never hangs its thread.
    /// `None` (the default) keeps the oracle purely node-bounded, and
    /// therefore bit-deterministic across machines; serving layers with
    /// per-request deadlines set it from the request.
    pub time_budget: Option<std::time::Duration>,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            node_budget: 200_000,
            max_insts: 24,
            time_budget: None,
        }
    }
}

/// Outcome of one fixed-II feasibility search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// A schedule exists; the witness is attached.
    Feasible(ModuloSchedule),
    /// The exhaustive search proved no schedule exists at this II.
    Infeasible,
    /// The node budget ran out before the space was exhausted.
    Unknown,
}

/// The oracle's answer about the minimal feasible II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IiVerdict {
    /// The minimal feasible II is proven.
    Exact {
        /// The proven minimum.
        optimal_ii: u32,
        /// A witness schedule at `optimal_ii`; `None` when the proof
        /// closed the gap to the caller's known-feasible upper bound
        /// (whose schedule is the witness).
        witness: Option<ModuloSchedule>,
        /// Search nodes expanded over all candidate IIs.
        nodes: u64,
    },
    /// The budget ran out: the minimum lies in `[proven_lower, upper]`
    /// where `upper` is the caller's known-feasible II.
    BoundedUnknown {
        /// Every II below this is proven infeasible.
        proven_lower: u32,
        /// Search nodes expanded before giving up.
        nodes: u64,
    },
}

impl IiVerdict {
    /// Short tag for telemetry and tables.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            IiVerdict::Exact { .. } => "exact",
            IiVerdict::BoundedUnknown { .. } => "bounded-unknown",
        }
    }
}

/// Proves the minimal feasible II of `lp` under the dependence latencies
/// in `ddg`, given that `upper` is known feasible (the caller holds a
/// validated schedule at `upper`, e.g. the heuristic pipeliner's).
///
/// Candidate IIs from the oracle's own lower bound up to `upper − 1` are
/// searched in order; each is either proven infeasible or yields a
/// witness. If every II below `upper` is infeasible, `upper` itself is
/// the proven minimum.
pub fn prove_min_ii(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg: &Ddg,
    upper: u32,
    opts: &OracleOptions,
) -> IiVerdict {
    let n = lp.insts().len();
    let mut nodes = 0u64;
    if n > opts.max_insts {
        return IiVerdict::BoundedUnknown {
            proven_lower: lower_bound(lp, machine, ddg),
            nodes,
        };
    }
    // One deadline for the whole proof: every candidate II shares it, so
    // an adversarial loop cannot stretch a request to IIs × budget.
    let deadline = opts.time_budget.map(|d| std::time::Instant::now() + d);
    let lb = lower_bound(lp, machine, ddg);
    for ii in lb..upper {
        match search_at_bounded(lp, machine, ddg, ii, opts.node_budget, deadline, &mut nodes) {
            Feasibility::Feasible(s) => {
                return IiVerdict::Exact {
                    optimal_ii: ii,
                    witness: Some(s),
                    nodes,
                }
            }
            Feasibility::Infeasible => continue,
            Feasibility::Unknown => {
                return IiVerdict::BoundedUnknown {
                    proven_lower: ii,
                    nodes,
                }
            }
        }
    }
    IiVerdict::Exact {
        optimal_ii: upper.max(lb),
        witness: None,
        nodes,
    }
}

/// The oracle's own lower bound on the feasible II: the per-class and
/// joint M/I issue-slot bounds, and the smallest II with no
/// positive-weight recurrence cycle (checked by the oracle's own
/// Bellman-Ford, independent of `Ddg::rec_mii`).
pub fn lower_bound(lp: &LoopIr, machine: &MachineModel, ddg: &Ddg) -> u32 {
    let res = machine.issue();
    let mut counts = [0u32; 5]; // m, i, f, b, a
    for inst in lp.insts() {
        counts[match inst.unit_class() {
            UnitClass::M => 0,
            UnitClass::I => 1,
            UnitClass::F => 2,
            UnitClass::B => 3,
            UnitClass::A => 4,
        }] += 1;
    }
    let [m, i, f, b, a] = counts;
    let mut lb = 1u32;
    for (used, have) in [
        (m, res.m),
        (i, res.i),
        (f, res.f),
        (b, res.b),
        (m + i + a, res.m + res.i),
    ] {
        if used > 0 {
            lb = lb.max(used.div_ceil(have.max(1)));
        }
    }
    while !cycles_feasible(ddg, lb, lp.insts().len()) {
        lb += 1;
    }
    lb
}

/// True when no dependence cycle has positive weight under
/// `latency − ii·omega` — the oracle's own longest-path Bellman-Ford.
fn cycles_feasible(ddg: &Ddg, ii: u32, n: usize) -> bool {
    let mut dist = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for e in ddg.edges() {
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

const NEG_INF: i64 = i64::MIN / 4;

/// `ceil(a / b)` for positive `b` and any `a`.
fn div_ceil_i64(a: i64, b: i64) -> i64 {
    (a + b - 1).div_euclid(b)
}

struct Search<'a> {
    lp: &'a LoopIr,
    ddg: &'a Ddg,
    ii: u32,
    order: Vec<usize>,
    /// Per-row `[m, i, f, b, a]` occupancy.
    rows: Vec<[u32; 5]>,
    slots: [u32; 4], // machine M, I, F, B
    /// The machine whose rotating files a witness must fit when the
    /// search must emit a register-allocatable witness; `None` for the
    /// register-free proof.
    registers: Option<&'a MachineModel>,
    residue: Vec<u32>,
    assigned: Vec<usize>,
    /// One longest-path matrix per search depth (copy-down on descent).
    dist: Vec<Vec<i64>>,
    budget: u64,
    deadline: Option<std::time::Instant>,
    nodes: u64,
    exhausted: bool,
}

/// Exhaustive feasibility search at a fixed `ii`. Adds the nodes it
/// expands to `nodes_out`.
pub fn search_at(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg: &Ddg,
    ii: u32,
    node_budget: u64,
    nodes_out: &mut u64,
) -> Feasibility {
    search_at_bounded(lp, machine, ddg, ii, node_budget, None, nodes_out)
}

/// [`search_at`] with an optional wall-clock deadline; past it the search
/// degrades to [`Feasibility::Unknown`] (checked every 1024 nodes, so a
/// stuck subtree surrenders within microseconds of the deadline).
pub fn search_at_bounded(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg: &Ddg,
    ii: u32,
    node_budget: u64,
    deadline: Option<std::time::Instant>,
    nodes_out: &mut u64,
) -> Feasibility {
    search_at_impl(
        lp,
        machine,
        ddg,
        ii,
        node_budget,
        deadline,
        nodes_out,
        false,
    )
}

/// [`search_at_bounded`] with rotating-register feasibility enforced
/// inside the search: every candidate leaf's minimal-level realization is
/// handed to `allocate_rotating`, the allocator the pipeliner's ladder
/// uses, and register-starved leaves are rejected so the search keeps
/// walking siblings.
///
/// This is the emission-grade search the exact scheduling backend runs: a
/// `Feasible` witness is guaranteed to register-allocate. The flip side
/// is that `Infeasible` is **weaker** here than in [`search_at_bounded`]:
/// minimal-level realization does not minimize register demand (raising a
/// definition within its slack shrinks its lifetime), so exhausting this
/// search proves only that no *minimal-level* schedule fits the register
/// files, not that the II is register-infeasible outright. Callers treat
/// a non-`Feasible` answer as "no emittable schedule found here", never
/// as a proof — II optimality proofs stay with the register-free search.
pub fn search_at_registered(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg: &Ddg,
    ii: u32,
    node_budget: u64,
    deadline: Option<std::time::Instant>,
    nodes_out: &mut u64,
) -> Feasibility {
    // Sound residue-independent precheck: if even the register floor of
    // the dependence graph overflows a rotating file, no schedule at this
    // II can allocate — registered or not.
    let floor = register_floor(lp, ddg, ii);
    if RegClass::ALL
        .into_iter()
        .zip(floor)
        .any(|(class, needed)| needed > machine.registers().rotating(class))
    {
        return Feasibility::Infeasible;
    }
    search_at_impl(lp, machine, ddg, ii, node_budget, deadline, nodes_out, true)
}

#[allow(clippy::too_many_arguments)]
fn search_at_impl(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg: &Ddg,
    ii: u32,
    node_budget: u64,
    deadline: Option<std::time::Instant>,
    nodes_out: &mut u64,
    check_registers: bool,
) -> Feasibility {
    let n = lp.insts().len();
    if !cycles_feasible(ddg, ii, n) {
        return Feasibility::Infeasible;
    }

    // Height-based order: operations feeding the longest dependence
    // chains are assigned first, so the distance matrix prunes early.
    let mut height = vec![0i64; n];
    for _ in 0..n {
        for e in ddg.edges() {
            let w = i64::from(e.latency) - i64::from(ii) * i64::from(e.omega);
            let cand = w + height[e.to.index()];
            if e.from != e.to && cand > height[e.from.index()] {
                height[e.from.index()] = cand;
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(height[i]), i));

    let res = machine.issue();
    let mut s = Search {
        lp,
        ddg,
        ii,
        order,
        rows: vec![[0u32; 5]; ii as usize],
        slots: [res.m, res.i, res.f, res.b],
        registers: check_registers.then_some(machine),
        residue: vec![0; n],
        assigned: Vec::with_capacity(n),
        dist: vec![vec![NEG_INF; n * n]; n + 1],
        budget: node_budget,
        deadline,
        nodes: 0,
        exhausted: false,
    };
    let found = s.dfs(0);
    *nodes_out += s.nodes;
    match found {
        Some(sched) => Feasibility::Feasible(sched),
        None if s.exhausted => Feasibility::Unknown,
        None => Feasibility::Infeasible,
    }
}

impl Search<'_> {
    /// True once the wall-clock deadline has passed. The clock is read
    /// only every 1024 nodes — `Instant::now` per node would dominate the
    /// search itself.
    fn deadline_expired(&self) -> bool {
        match self.deadline {
            Some(d) => self.nodes & 0x3FF == 0 && std::time::Instant::now() >= d,
            None => false,
        }
    }

    fn dfs(&mut self, depth: usize) -> Option<ModuloSchedule> {
        let n = self.order.len();
        if depth == n {
            let sched = ModuloSchedule::new(self.ii, self.realize());
            // Register-checked mode: a leaf whose minimal-level
            // realization the allocator rejects is dropped, and the
            // parent keeps walking sibling residues. `None` here means
            // "no emittable schedule in this subtree", not infeasibility
            // of the II (see `search_at_registered`).
            if self
                .registers
                .is_some_and(|m| allocate_rotating(self.lp, &sched, m).is_err())
            {
                return None;
            }
            return Some(sched);
        }
        let op = self.order[depth];
        // Rotation symmetry: the first assignment's residue is free.
        let residues = if depth == 0 { 1 } else { self.ii };
        for r in 0..residues {
            if self.budget == 0 || self.deadline_expired() {
                self.exhausted = true;
                return None;
            }
            self.budget -= 1;
            self.nodes += 1;
            if !self.row_fits(op, r) {
                continue;
            }
            self.residue[op] = r;
            self.row_counts(op, r, 1);
            self.assigned.push(op);
            let consistent = self.extend_matrix(depth, op);
            if consistent {
                if let Some(sched) = self.dfs(depth + 1) {
                    return Some(sched);
                }
            }
            self.assigned.pop();
            self.row_counts(op, r, u32::MAX); // -1 via wrapping helper
        }
        None
    }

    fn class_slot(&self, op: usize) -> usize {
        match self.lp.insts()[op].unit_class() {
            UnitClass::M => 0,
            UnitClass::I => 1,
            UnitClass::F => 2,
            UnitClass::B => 3,
            UnitClass::A => 4,
        }
    }

    /// Hall-condition row check with `op` added at residue `r`.
    fn row_fits(&self, op: usize, r: u32) -> bool {
        let mut c = self.rows[r as usize];
        c[self.class_slot(op)] += 1;
        let [m, i, f, b, a] = c;
        let [sm, si, sf, sb] = self.slots;
        m <= sm && i <= si && f <= sf && b <= sb && m + i + a <= sm + si
    }

    fn row_counts(&mut self, op: usize, r: u32, delta: u32) {
        let slot = self.class_slot(op);
        self.rows[r as usize][slot] = self.rows[r as usize][slot].wrapping_add(delta);
    }

    /// Edge weight in the residue-induced level graph.
    fn level_weight(&self, from: usize, to: usize, latency: u32, omega: u32) -> i64 {
        let ii = i64::from(self.ii);
        let w = i64::from(latency) - ii * i64::from(omega);
        div_ceil_i64(
            w - i64::from(self.residue[to]) + i64::from(self.residue[from]),
            ii,
        )
    }

    /// Adds `op`'s level-graph arcs to the depth-local copy of the
    /// longest-path matrix and re-closes it. Returns `false` when a
    /// positive-weight cycle appears (the residue prefix is infeasible).
    fn extend_matrix(&mut self, depth: usize, op: usize) -> bool {
        let n = self.residue.len();
        let mut d = std::mem::take(&mut self.dist[depth + 1]);
        d.copy_from_slice(&self.dist[depth]);

        // Direct arcs between `op` and assigned operations (both
        // directions; self-edges land on the diagonal).
        for e in self.ddg.edges() {
            let (u, v) = (e.from.index(), e.to.index());
            let touches_op = u == op || v == op;
            if !touches_op || !self.assigned.contains(&u) || !self.assigned.contains(&v) {
                continue;
            }
            let c = self.level_weight(u, v, e.latency, e.omega);
            if c > d[u * n + v] {
                d[u * n + v] = c;
            }
        }
        if d[op * n + op] > 0 {
            self.dist[depth + 1] = d;
            return false;
        }

        // Close paths into and out of `op` through previously-assigned
        // intermediates, then re-close every pair through `op`.
        for idx in 0..self.assigned.len() {
            let u = self.assigned[idx];
            if u == op {
                continue;
            }
            let mut best_in = d[u * n + op];
            let mut best_out = d[op * n + u];
            for &k in &self.assigned {
                if k == op {
                    continue;
                }
                if d[u * n + k] > NEG_INF / 2 && d[k * n + op] > NEG_INF / 2 {
                    best_in = best_in.max(d[u * n + k] + d[k * n + op]);
                }
                if d[op * n + k] > NEG_INF / 2 && d[k * n + u] > NEG_INF / 2 {
                    best_out = best_out.max(d[op * n + k] + d[k * n + u]);
                }
            }
            d[u * n + op] = best_in;
            d[op * n + u] = best_out;
        }
        for &a in &self.assigned {
            if d[a * n + op] <= NEG_INF / 2 {
                continue;
            }
            for &b in &self.assigned {
                if d[op * n + b] <= NEG_INF / 2 {
                    continue;
                }
                let via = d[a * n + op] + d[op * n + b];
                if via > d[a * n + b] {
                    d[a * n + b] = via;
                }
            }
        }
        let ok = self.assigned.iter().all(|&x| d[x * n + x] <= 0);
        self.dist[depth + 1] = d;
        ok
    }

    /// Turns a consistent full residue assignment into issue times:
    /// minimal non-negative levels from Bellman-Ford on the level graph.
    fn realize(&self) -> Vec<i64> {
        let n = self.residue.len();
        let mut level = vec![0i64; n];
        for _ in 0..n + 1 {
            let mut changed = false;
            for e in self.ddg.edges() {
                let (u, v) = (e.from.index(), e.to.index());
                let c = self.level_weight(u, v, e.latency, e.omega);
                if level[u] + c > level[v] {
                    level[v] = level[u] + c;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (0..n)
            .map(|i| i64::from(self.residue[i]) + i64::from(self.ii) * level[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_schedule;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_pipeliner::ModuloScheduler;

    fn running_example() -> LoopIr {
        let mut b = LoopBuilder::new("ex");
        let s = b.affine_ref("s", DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("d", DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        b.build().unwrap()
    }

    #[test]
    fn finds_the_known_optimum() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let mut nodes = 0;
        match search_at(&lp, &m, &ddg, 1, 100_000, &mut nodes) {
            Feasibility::Feasible(s) => {
                assert_eq!(s.ii(), 1);
                validate_schedule(&lp, &ddg, &s, &m).expect("witness must certify");
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn proves_infeasibility_below_recurrence_bound() {
        // FP reduction: fadd self-recurrence of latency 4 -> min II 4.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("red");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd_reduce(v);
        let lp = b.build().unwrap();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let mut nodes = 0;
        for ii in 1..4 {
            assert_eq!(
                search_at(&lp, &m, &ddg, ii, 100_000, &mut nodes),
                Feasibility::Infeasible,
                "ii={ii}"
            );
        }
        assert!(matches!(
            search_at(&lp, &m, &ddg, 4, 100_000, &mut nodes),
            Feasibility::Feasible(_)
        ));
    }

    #[test]
    fn proves_resource_infeasibility_beyond_cycle_bound() {
        // 6 independent loads on 2 M slots: no recurrence forbids II 2,
        // but the rows cannot hold 6 M ops — the search must prove it.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mem");
        for k in 0..6u64 {
            let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        let lp = b.build().unwrap();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let mut nodes = 0;
        assert_eq!(
            search_at(&lp, &m, &ddg, 2, 100_000, &mut nodes),
            Feasibility::Infeasible
        );
        assert!(matches!(
            search_at(&lp, &m, &ddg, 3, 100_000, &mut nodes),
            Feasibility::Feasible(_)
        ));
    }

    #[test]
    fn prove_min_ii_closes_the_gap_to_the_heuristic() {
        let m = MachineModel::itanium2();
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let heur = ModuloScheduler::new(&lp, &m, &ddg)
            .schedule_at(1, 8)
            .unwrap();
        match prove_min_ii(&lp, &m, &ddg, heur.ii(), &OracleOptions::default()) {
            IiVerdict::Exact {
                optimal_ii,
                witness,
                ..
            } => {
                assert_eq!(optimal_ii, 1);
                assert!(witness.is_none(), "lb == upper: heuristic is the witness");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tiny_budget_degrades_to_bounded_unknown() {
        let m = MachineModel::itanium2();
        // A loop whose min II is NOT at the lower bound: 6 loads at II 3
        // with a budget of 1 node cannot finish proving II 3 infeasible…
        // use II upper bound 3 and budget 1 against the 6-load loop at
        // II 2 (feasibility unknown after 1 node).
        let mut b = LoopBuilder::new("mem");
        for k in 0..6u64 {
            let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        let lp = b.build().unwrap();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        // Lower bound is already 3 (ResMII), so force a search below it
        // is impossible; instead check max_insts gating.
        let opts = OracleOptions {
            node_budget: 100_000,
            max_insts: 2,
            ..OracleOptions::default()
        };
        match prove_min_ii(&lp, &m, &ddg, 5, &opts) {
            IiVerdict::BoundedUnknown { proven_lower, .. } => {
                assert!(proven_lower >= 3, "own bound still applies");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expired_time_budget_degrades_to_bounded_unknown() {
        // A zero wall-clock budget must surrender immediately with a
        // sound interval — never hang, never fabricate an exact verdict
        // below the proven lower bound.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mem");
        for k in 0..6u64 {
            let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        let lp = b.build().unwrap();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let opts = OracleOptions {
            time_budget: Some(std::time::Duration::ZERO),
            ..OracleOptions::default()
        };
        let lb = lower_bound(&lp, &m, &ddg);
        match prove_min_ii(&lp, &m, &ddg, lb + 2, &opts) {
            IiVerdict::BoundedUnknown { proven_lower, .. } => {
                assert!(proven_lower >= lb);
            }
            // The whole proof may close before the first deadline check
            // on a machine this small only if no search was needed.
            IiVerdict::Exact { optimal_ii, .. } => assert!(optimal_ii >= lb),
        }
        // A generous budget still resolves exactly.
        let opts = OracleOptions {
            time_budget: Some(std::time::Duration::from_secs(60)),
            ..OracleOptions::default()
        };
        assert!(matches!(
            prove_min_ii(&lp, &m, &ddg, lb + 2, &opts),
            IiVerdict::Exact { .. }
        ));
    }

    #[test]
    fn registered_witnesses_always_allocate() {
        // The register-checked search's witnesses must pass both the
        // validator (register check included) and the production
        // allocator, across a spread of machine-generated loops.
        use ltsp_pipeliner::allocate_rotating;
        let m = MachineModel::itanium2();
        for seed in 0..40u64 {
            let lp = ltsp_workloads::random_loop(seed);
            if lp.insts().len() > 16 {
                continue;
            }
            let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
            let lb = lower_bound(&lp, &m, &ddg);
            let mut nodes = 0;
            for ii in lb..lb + 3 {
                if let Feasibility::Feasible(s) =
                    search_at_registered(&lp, &m, &ddg, ii, 50_000, None, &mut nodes)
                {
                    validate_schedule(&lp, &ddg, &s, &m)
                        .unwrap_or_else(|v| panic!("seed {seed} ii {ii}: {v:?}"));
                    allocate_rotating(&lp, &s, &m)
                        .unwrap_or_else(|e| panic!("seed {seed} ii {ii}: {e}"));
                    break;
                }
            }
        }
    }

    #[test]
    fn registered_search_rejects_register_starved_realizations() {
        // On a machine with 2 rotating GRs the running example's minimal
        // II-1 realization (4 rotating GRs) must not be emitted; the
        // register-free search still proves II 1 feasible.
        use ltsp_machine::RegisterFiles;
        let m = MachineModel::itanium2();
        let tight = MachineModel::new(
            *m.issue(),
            *m.latencies(),
            *m.caches(),
            RegisterFiles {
                rotating_gr: 2,
                ..*m.registers()
            },
        );
        let lp = running_example();
        let ddg = Ddg::build_with_load_floor(&lp, &tight, 0);
        let mut nodes = 0;
        assert!(matches!(
            search_at(&lp, &tight, &ddg, 1, 100_000, &mut nodes),
            Feasibility::Feasible(_)
        ));
        match search_at_registered(&lp, &tight, &ddg, 1, 100_000, None, &mut nodes) {
            Feasibility::Feasible(s) => {
                // If a register-fitting realization exists the search may
                // find it — but then it must actually fit.
                validate_schedule(&lp, &ddg, &s, &tight).expect("emitted witness fits");
            }
            Feasibility::Infeasible | Feasibility::Unknown => {}
        }
        // On the real machine the registered search emits at II 1.
        let full_ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        assert!(matches!(
            search_at_registered(&lp, &m, &full_ddg, 1, 100_000, None, &mut nodes),
            Feasibility::Feasible(_)
        ));
    }

    #[test]
    fn witnesses_always_validate() {
        // Any witness the oracle produces must pass the independent
        // validator — over a spread of machine-generated loops.
        let m = MachineModel::itanium2();
        for seed in 0..40u64 {
            let lp = ltsp_workloads::random_loop(seed);
            if lp.insts().len() > 16 {
                continue;
            }
            let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
            let lb = lower_bound(&lp, &m, &ddg);
            let mut nodes = 0;
            for ii in lb..lb + 3 {
                if let Feasibility::Feasible(s) = search_at(&lp, &m, &ddg, ii, 50_000, &mut nodes) {
                    validate_schedule(&lp, &ddg, &s, &m)
                        .unwrap_or_else(|v| panic!("seed {seed} ii {ii}: {v:?}"));
                    break;
                }
            }
        }
    }
}
