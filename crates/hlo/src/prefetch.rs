//! The software-prefetching pass with latency-hint assignment.

use ltsp_ir::{
    AccessPattern, CacheLevel, DataClass, Inst, InstId, LatencyHint, LoopIr, MemRefId, Opcode,
    PrefetchPlan,
};
use ltsp_machine::MachineModel;

use crate::overlay::ObservedOverlay;

/// Tunables of the prefetcher.
#[derive(Debug, Clone, PartialEq)]
pub struct HloConfig {
    /// Master switch; when off, no prefetches are inserted but the hint
    /// heuristics still run (everything un-prefetched gets marked) — this
    /// is the paper's "prefetching disabled" headroom configuration.
    pub prefetch_enabled: bool,
    /// Clamped distance (in iterations) for symbolic-stride references
    /// (heuristic 2a: limit outstanding-page TLB pressure).
    pub symbolic_distance: u32,
    /// Divisor applied to the indirect-target distance relative to its
    /// index distance (heuristic 2b).
    pub indirect_divisor: u32,
    /// Hard cap (in iterations) on the indirect-target distance: the
    /// indirect reference may touch many pages, and its prefetch address
    /// depends on a loaded index, so the compiler keeps it very short
    /// (heuristic 2b).
    pub indirect_max_distance: u32,
    /// Number of likely-L1-missing integer references above which the
    /// prefetcher switches those references to L2-only prefetching
    /// (heuristic 3: OzQ pressure).
    pub ozq_pressure_refs: usize,
    /// Trip estimate assumed when none is available.
    pub default_trip_estimate: f64,
    /// Runtime-measured verdicts from the adaptive loop; references whose
    /// verdict says `drop_prefetch` get no prefetch instruction (their
    /// line was observed already resident — the prefetch is pure body
    /// cost). `None` (the default) runs the pure static analysis.
    pub observed: Option<ObservedOverlay>,
}

impl Default for HloConfig {
    fn default() -> Self {
        HloConfig {
            prefetch_enabled: true,
            symbolic_distance: 2,
            indirect_divisor: 4,
            indirect_max_distance: 4,
            ozq_pressure_refs: 6,
            default_trip_estimate: 100.0,
            observed: None,
        }
    }
}

/// Why a reference received an expected-latency hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintReason {
    /// Heuristic 1: the reference could not be prefetched at all.
    NotPrefetchable,
    /// Heuristic 2a: distance reduced because the stride is symbolic.
    SymbolicStride,
    /// Heuristic 2b: distance reduced because the reference is indirect.
    IndirectTarget,
    /// Heuristic 3: prefetched into L2 only under OzQ pressure.
    OzqPressure,
}

impl HintReason {
    /// The paper's heuristic number, as used in decision traces.
    pub fn id(self) -> &'static str {
        match self {
            HintReason::NotPrefetchable => "1",
            HintReason::SymbolicStride => "2a",
            HintReason::IndirectTarget => "2b",
            HintReason::OzqPressure => "3",
        }
    }
}

/// The prefetcher's decision for one memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefDecision {
    /// The reference.
    pub memref: MemRefId,
    /// The prefetch plan, if one was emitted.
    pub plan: Option<PrefetchPlan>,
    /// The latency hint, if one was set.
    pub hint: Option<LatencyHint>,
    /// Why the hint was set.
    pub reason: Option<HintReason>,
    /// Covered by another (leading) reference to the same stream.
    pub deduped: bool,
}

/// Summary of one HLO run.
#[derive(Debug, Clone)]
pub struct HloReport {
    /// Per-reference decisions, indexed by memref.
    pub decisions: Vec<RefDecision>,
    /// Prefetch instructions inserted.
    pub prefetches_inserted: usize,
    /// References that received a latency hint.
    pub hinted: usize,
    /// The HLO's II estimate used for distance computation.
    pub ii_estimate: u32,
}

/// The hint level for a data class: "an L2 hint is set for integer loads
/// and an L3 hint for FP loads — one level lower than the highest cache
/// level where these loads can hit" (Sec. 3.2).
fn hint_level(data: DataClass) -> LatencyHint {
    match data {
        DataClass::Int => LatencyHint::L2,
        DataClass::Fp => LatencyHint::L3,
    }
}

/// True when the reference is expected to miss L1 routinely (used for the
/// OzQ-pressure heuristic): strided past a line per iteration, indirect,
/// or symbolic.
fn likely_l1_missing(lp: &LoopIr, id: MemRefId, line_bytes: i64) -> bool {
    match lp.memref(id).pattern() {
        AccessPattern::Affine { stride, .. } => stride.abs() >= line_bytes,
        AccessPattern::SymbolicStride { .. } => true,
        AccessPattern::Gather { .. } | AccessPattern::Deref { .. } => true,
        AccessPattern::PointerChase { .. } => true,
        AccessPattern::Invariant { .. } => false,
    }
}

/// Runs software prefetching and hint assignment over a loop.
///
/// `trip_estimate` is the compiler's belief about the loop's trip count —
/// from PGO profiles when available, otherwise from static heuristics
/// (array bounds, symbolic analysis); the prefetch distance is clamped so
/// that at least half the prefetches issued are useful.
///
/// The loop is mutated: prefetch instructions are appended and
/// [`ltsp_ir::MemoryRef`] annotations (plans and hints) are set.
///
/// # Example
///
/// ```
/// use ltsp_hlo::{run_hlo, HloConfig};
/// use ltsp_ir::{DataClass, LoopBuilder};
/// use ltsp_machine::MachineModel;
///
/// // A pointer chase cannot be prefetched: heuristic 1 marks it.
/// let mut b = LoopBuilder::new("chase");
/// let node = b.chase_ref("node->next", 0, 64, 1 << 22, 0.1);
/// let _ = b.load(node);
/// let mut lp = b.build()?;
///
/// let m = MachineModel::itanium2();
/// let report = run_hlo(&mut lp, &m, Some(100.0), &HloConfig::default());
/// assert_eq!(report.prefetches_inserted, 0);
/// assert_eq!(report.hinted, 1);
/// assert!(lp.memref(node).hint().is_some());
/// # Ok::<(), ltsp_ir::IrError>(())
/// ```
// Ranged index loops below double as MemRefId values, so clippy's
// iterator preference does not fit.
#[allow(clippy::needless_range_loop)]
pub fn run_hlo(
    lp: &mut LoopIr,
    machine: &MachineModel,
    trip_estimate: Option<f64>,
    cfg: &HloConfig,
) -> HloReport {
    let ii_est = machine.res_mii(lp).max(1);
    let lat_to_cover = machine.caches().memory_latency;
    let optimal_distance = (lat_to_cover as f64 / ii_est as f64).ceil().max(1.0) as u32;
    let trip = trip_estimate.unwrap_or(cfg.default_trip_estimate).max(1.0);
    // "At least half of the prefetches issued will be useful."
    let trip_clamp = (trip / 2.0).floor().max(1.0) as u32;
    let line = i64::from(machine.caches().l1.line_bytes);

    // Leading-reference dedup: among affine references with the same
    // stride whose bases fall within one line, only the first (leading)
    // is prefetched.
    let n_refs = lp.memrefs().len();
    let mut deduped = vec![false; n_refs];
    for i in 0..n_refs {
        if deduped[i] {
            continue;
        }
        let (bi, si) = match lp.memref(MemRefId(i as u32)).pattern() {
            AccessPattern::Affine { base, stride } => (*base, *stride),
            _ => continue,
        };
        for j in (i + 1)..n_refs {
            if let AccessPattern::Affine { base, stride } = lp.memref(MemRefId(j as u32)).pattern()
            {
                if *stride == si && (base.abs_diff(bi) as i64) < line {
                    deduped[j] = true;
                }
            }
        }
    }

    // OzQ pressure: count likely-L1-missing integer data references.
    let missing_int_refs = (0..n_refs)
        .filter(|&i| {
            let id = MemRefId(i as u32);
            lp.memref(id).data_class() == DataClass::Int && likely_l1_missing(lp, id, line)
        })
        .count();
    let ozq_pressure = missing_int_refs > cfg.ozq_pressure_refs;

    // Which refs are actually touched by loads (hints only matter there)?
    let loaded: std::collections::HashSet<MemRefId> = lp.loads().map(|(_, m)| m).collect();

    let mut decisions = Vec::with_capacity(n_refs);
    for i in 0..n_refs {
        let id = MemRefId(i as u32);
        let data = lp.memref(id).data_class();
        let pattern = lp.memref(id).pattern().clone();
        let mut d = RefDecision {
            memref: id,
            plan: None,
            hint: None,
            reason: None,
            deduped: deduped[i],
        };
        if deduped[i] {
            decisions.push(d);
            continue;
        }
        match pattern {
            AccessPattern::Invariant { .. } => {
                // Loop-invariant: registers/L1 keep it; never marked
                // ("any non-loop-invariant reference that could not be
                // prefetched" — invariant ones are exempt).
            }
            AccessPattern::Affine { .. } => {
                let distance = optimal_distance.min(trip_clamp).max(1);
                let reduced = distance < optimal_distance;
                let target = if ozq_pressure && data == DataClass::Int {
                    CacheLevel::L2
                } else {
                    match data {
                        DataClass::Int => CacheLevel::L1,
                        DataClass::Fp => CacheLevel::L2,
                    }
                };
                d.plan = Some(PrefetchPlan {
                    distance,
                    target,
                    distance_reduced: reduced,
                });
                if ozq_pressure && data == DataClass::Int && loaded.contains(&id) {
                    d.hint = Some(LatencyHint::L2);
                    d.reason = Some(HintReason::OzqPressure);
                }
            }
            AccessPattern::SymbolicStride { .. } => {
                // 2a: clamp hard to protect the TLB; latency stays exposed.
                let distance = cfg.symbolic_distance.min(trip_clamp).max(1);
                d.plan = Some(PrefetchPlan {
                    distance,
                    target: CacheLevel::L2,
                    distance_reduced: true,
                });
                if loaded.contains(&id) {
                    d.hint = Some(hint_level(data));
                    d.reason = Some(HintReason::SymbolicStride);
                }
            }
            AccessPattern::Gather { index, .. } => {
                // 2b: the indirect target is prefetched at a fraction of
                // the index distance, only if the index itself is a
                // prefetchable stream.
                let index_prefetchable =
                    matches!(lp.memref(index).pattern(), AccessPattern::Affine { .. });
                if index_prefetchable {
                    let distance = (optimal_distance / cfg.indirect_divisor.max(1))
                        .min(cfg.indirect_max_distance)
                        .clamp(1, trip_clamp.max(1));
                    d.plan = Some(PrefetchPlan {
                        distance,
                        target: CacheLevel::L2,
                        distance_reduced: true,
                    });
                    if loaded.contains(&id) {
                        d.hint = Some(hint_level(data));
                        d.reason = Some(HintReason::IndirectTarget);
                    }
                } else if loaded.contains(&id) {
                    // Cannot even compute prefetch addresses: heuristic 1.
                    d.hint = Some(hint_level(data));
                    d.reason = Some(HintReason::NotPrefetchable);
                }
            }
            AccessPattern::Deref { pointer, .. } => {
                let ptr_pattern = lp.memref(pointer).pattern().clone();
                match ptr_pattern {
                    AccessPattern::Affine { .. } => {
                        // Pointer array: p[i]->f — prefetch at reduced
                        // distance (2b).
                        let distance = (optimal_distance / cfg.indirect_divisor.max(1))
                            .min(cfg.indirect_max_distance)
                            .clamp(1, trip_clamp.max(1));
                        d.plan = Some(PrefetchPlan {
                            distance,
                            target: CacheLevel::L2,
                            distance_reduced: true,
                        });
                        if loaded.contains(&id) {
                            d.hint = Some(hint_level(data));
                            d.reason = Some(HintReason::IndirectTarget);
                        }
                    }
                    _ => {
                        // Hanging off a chase (or another deref): heuristic 1.
                        if loaded.contains(&id) {
                            d.hint = Some(hint_level(data));
                            d.reason = Some(HintReason::NotPrefetchable);
                        }
                    }
                }
            }
            AccessPattern::PointerChase { .. } => {
                // Heuristic 1: pointer chases defeat prefetching entirely.
                if loaded.contains(&id) {
                    d.hint = Some(hint_level(data));
                    d.reason = Some(HintReason::NotPrefetchable);
                }
            }
        }
        decisions.push(d);
    }

    // Apply: set annotations, insert prefetch instructions.
    let mut inserted = 0usize;
    let mut hinted = 0usize;
    for d in &decisions {
        if let Some(h) = d.hint {
            lp.memref_mut(d.memref).set_hint(Some(h));
            hinted += 1;
        }
        if let Some(plan) = d.plan {
            // An observed-redundant prefetch is omitted entirely: the
            // line it would fetch is already resident, so dropping it
            // only shrinks the loop body (and its resource-minimum II).
            if cfg
                .observed
                .as_ref()
                .is_some_and(|ov| ov.drop_prefetch(d.memref))
            {
                continue;
            }
            lp.memref_mut(d.memref).set_prefetch(Some(plan));
            if cfg.prefetch_enabled {
                let id = InstId(lp.insts().len() as u32);
                lp.push_inst(Inst::new(
                    id,
                    Opcode::Prefetch(plan.target),
                    None,
                    vec![],
                    Some(d.memref),
                ));
                inserted += 1;
            }
        }
    }

    HloReport {
        decisions,
        prefetches_inserted: inserted,
        hinted,
        ii_estimate: ii_est,
    }
}

/// [`run_hlo`] with every per-reference decision recorded on the
/// observer's sink as an [`ltsp_telemetry::Event::HloDecision`] (which
/// heuristic fired, the hint set, the prefetch distance chosen). The
/// caller times the pass: it is the whole `hlo` phase.
pub fn run_hlo_observed(
    lp: &mut LoopIr,
    machine: &MachineModel,
    trip_estimate: Option<f64>,
    cfg: &HloConfig,
    obs: ltsp_telemetry::Observer,
) -> HloReport {
    let report = run_hlo(lp, machine, trip_estimate, cfg);
    let tel = obs.tel;
    if tel.is_enabled() {
        for d in &report.decisions {
            tel.emit(ltsp_telemetry::Event::HloDecision {
                loop_name: lp.name().to_string(),
                memref: lp.memref(d.memref).name().to_string(),
                heuristic: d.reason.map(HintReason::id),
                hint: d.hint.map(|h| match h {
                    LatencyHint::L2 => "L2",
                    LatencyHint::L3 => "L3",
                }),
                prefetch_distance: d.plan.map(|p| p.distance),
                deduped: d.deduped,
            });
        }
        tel.counter_add("hlo.refs", report.decisions.len() as u64);
        tel.counter_add("hlo.prefetches_inserted", report.prefetches_inserted as u64);
        tel.counter_add("hlo.hinted_refs", report.hinted as u64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::LoopBuilder;

    fn machine() -> MachineModel {
        MachineModel::itanium2()
    }

    #[test]
    fn affine_stream_prefetched_without_hint() {
        let mut b = LoopBuilder::new("s");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd(v, v);
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), Some(10_000.0), &HloConfig::default());
        let d = r.decisions[0];
        assert!(d.plan.is_some());
        assert!(d.hint.is_none(), "fully prefetched streams get no hint");
        assert_eq!(r.prefetches_inserted, 1);
        // distance = ceil(165 / ResMII); ResMII here is 1 (2 mem-ish ops).
        assert_eq!(d.plan.unwrap().distance, 165);
        // The prefetch instruction references the demand ref.
        let pf = lp.insts().last().unwrap();
        assert!(pf.op().is_prefetch());
        assert_eq!(pf.mem(), Some(x));
    }

    #[test]
    fn low_trip_estimate_clamps_distance() {
        let mut b = LoopBuilder::new("s");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd(v, v);
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), Some(20.0), &HloConfig::default());
        assert_eq!(r.decisions[0].plan.unwrap().distance, 10, "trip/2");
        assert!(r.decisions[0].plan.unwrap().distance_reduced);
    }

    #[test]
    fn chase_and_its_fields_get_hints() {
        let mut b = LoopBuilder::new("mcf");
        let node = b.chase_ref("node->child", 0, 64, 1 << 22, 0.1);
        let fld = b.deref_ref("node->f", DataClass::Int, node, 8, 1 << 22, 8);
        let _nv = b.load(node);
        let _fv = b.load(fld);
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), Some(2.3), &HloConfig::default());
        assert_eq!(r.decisions[0].reason, Some(HintReason::NotPrefetchable));
        assert_eq!(r.decisions[0].hint, Some(LatencyHint::L2), "int loads: L2");
        assert_eq!(r.decisions[1].reason, Some(HintReason::NotPrefetchable));
        assert_eq!(r.prefetches_inserted, 0, "nothing prefetchable");
        assert_eq!(r.hinted, 2);
        // Hints are persisted on the memrefs.
        assert_eq!(lp.memref(node).hint(), Some(LatencyHint::L2));
    }

    #[test]
    fn gather_target_reduced_distance_and_hint() {
        let mut b = LoopBuilder::new("gather");
        let idx = b.affine_ref("b[i]", DataClass::Int, 0, 4, 4);
        let tgt = b.gather_ref("a[b[i]]", DataClass::Fp, idx, 1 << 30, 8, 1 << 26);
        let _vi = b.load(idx);
        let _vt = b.load(tgt);
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), Some(100_000.0), &HloConfig::default());
        let di = r.decisions[idx.index()];
        let dt = r.decisions[tgt.index()];
        assert!(
            di.plan.is_some() && di.hint.is_none(),
            "index is a plain stream"
        );
        let pt = dt.plan.unwrap();
        assert!(pt.distance < di.plan.unwrap().distance);
        assert!(pt.distance_reduced);
        assert_eq!(dt.reason, Some(HintReason::IndirectTarget));
        assert_eq!(dt.hint, Some(LatencyHint::L3), "FP loads: L3 hint");
    }

    #[test]
    fn symbolic_stride_clamped_and_hinted() {
        let mut b = LoopBuilder::new("sym");
        let x = b.symbolic_ref("a[i*n]", DataClass::Fp, 0, 4096, 8);
        let v = b.load(x);
        let _ = b.fadd(v, v);
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), Some(100_000.0), &HloConfig::default());
        let d = r.decisions[0];
        assert_eq!(d.plan.unwrap().distance, 2, "TLB clamp");
        assert_eq!(d.reason, Some(HintReason::SymbolicStride));
    }

    #[test]
    fn ozq_pressure_switches_to_l2_and_hints() {
        let mut b = LoopBuilder::new("wide");
        let mut refs = Vec::new();
        for k in 0..8u64 {
            let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 30, 256, 8);
            refs.push(r);
            let _ = b.load(r);
        }
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), Some(100_000.0), &HloConfig::default());
        for d in &r.decisions {
            assert_eq!(d.plan.unwrap().target, CacheLevel::L2, "L2-only mode");
            assert_eq!(d.reason, Some(HintReason::OzqPressure));
            assert_eq!(d.hint, Some(LatencyHint::L2));
        }
    }

    #[test]
    fn dedup_leaves_one_leading_reference() {
        let mut b = LoopBuilder::new("dedup");
        let a = b.affine_ref("a[i]", DataClass::Int, 0x1000, 4, 4);
        let a2 = b.affine_ref("a[i+4]", DataClass::Int, 0x1010, 4, 4);
        let va = b.load(a);
        let va2 = b.load(a2);
        let _ = b.add(va, va2);
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), Some(10_000.0), &HloConfig::default());
        assert!(!r.decisions[0].deduped);
        assert!(r.decisions[1].deduped, "same line, same stride");
        assert_eq!(r.prefetches_inserted, 1);
    }

    #[test]
    fn disabled_prefetcher_inserts_nothing_but_plans_remain() {
        let mut b = LoopBuilder::new("off");
        let x = b.affine_ref("x", DataClass::Fp, 0, 8, 8);
        let v = b.load(x);
        let _ = b.fadd(v, v);
        let mut lp = b.build().unwrap();
        let n_before = lp.insts().len();
        let cfg = HloConfig {
            prefetch_enabled: false,
            ..HloConfig::default()
        };
        let r = run_hlo(&mut lp, &machine(), Some(10_000.0), &cfg);
        assert_eq!(r.prefetches_inserted, 0);
        assert_eq!(lp.insts().len(), n_before);
    }

    #[test]
    fn invariant_refs_untouched() {
        let mut b = LoopBuilder::new("inv");
        let s = b.invariant_ref("scale", DataClass::Fp, 0x8000, 8);
        let v = b.load(s);
        let _ = b.fmul(v, v);
        let mut lp = b.build().unwrap();
        let r = run_hlo(&mut lp, &machine(), None, &HloConfig::default());
        assert!(r.decisions[0].plan.is_none());
        assert!(r.decisions[0].hint.is_none());
    }
}
