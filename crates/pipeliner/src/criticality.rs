//! Criticality analysis of loads against recurrence cycles (paper Sec. 3.3).

use ltsp_ddg::Ddg;
use ltsp_ir::{InstId, LatencyHint, LoopIr, Opcode};
use ltsp_machine::{LatencyQuery, MachineModel};
use ltsp_telemetry::{Event, Observer};

/// Whether a load may be scheduled at its hint-derived expected latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadClass {
    /// On a constraining recurrence cycle: keep the base latency.
    Critical,
    /// Enough slack: schedule at the expected latency if hinted.
    NonCritical,
}

/// Result of [`classify_loads`]: a per-load class plus the effective
/// latency query the scheduler should use.
#[derive(Debug, Clone)]
pub struct LoadClassification {
    class: Vec<Option<LoadClass>>,
    queries: Vec<LatencyQuery>,
    /// Number of loads scheduled at a boosted latency.
    boosted: usize,
}

impl LoadClassification {
    /// The class of a load; `None` for non-loads.
    pub(crate) fn class(&self, inst: InstId) -> Option<LoadClass> {
        self.class[inst.index()]
    }

    /// The latency query the scheduler should issue for this load: the
    /// hint-derived expected latency for hinted non-critical loads, a
    /// partial exact latency for loads on balanced recurrence cycles, the
    /// base latency otherwise.
    pub fn query(&self, inst: InstId) -> LatencyQuery {
        self.queries[inst.index()]
    }

    /// Number of loads that end up scheduled at a boosted latency.
    pub fn boosted_count(&self) -> usize {
        self.boosted
    }

    /// A classification that boosts nothing (baseline compilation, or the
    /// register-allocation fallback that drops all boosts).
    pub(crate) fn all_base(lp: &LoopIr) -> Self {
        let class = lp
            .insts()
            .iter()
            .map(|i| i.op().is_load().then_some(LoadClass::Critical))
            .collect();
        LoadClassification {
            queries: vec![LatencyQuery::Base; lp.insts().len()],
            class,
            boosted: 0,
        }
    }
}

/// Classifies every load as critical or non-critical (Sec. 3.3).
///
/// All loads start non-critical. For each recurrence cycle of the
/// base-latency dependence graph, the cycle length is recomputed with every
/// load on the cycle raised to its hint-derived expected latency; if the
/// cycle's implied II then exceeds `max(Resource II, base Recurrence II)` —
/// i.e. the raise would likely increase the loop's II — all loads on that
/// cycle are marked critical.
///
/// `hint_of` supplies the effective hint per load (policy-dependent: HLO
/// hints, blanket L3, FP-only L2, …). Loads without a hint are never
/// boosted, but still participate in cycle marking as the paper specifies
/// (all loads of a violating cycle become critical).
pub fn classify_loads(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg_base: &Ddg,
    hint_of: &dyn Fn(InstId) -> Option<LatencyHint>,
    cycle_cap: usize,
) -> LoadClassification {
    let threshold = machine.res_mii(lp).max(ddg_base.rec_mii());
    let obs = Observer::disabled();
    classify_loads_observed(
        lp, machine, ddg_base, hint_of, cycle_cap, false, threshold, obs,
    )
}

/// [`classify_loads`] with the **balanced-recurrence extension** the paper
/// names as future work ("balancing latency increases between different
/// loads on a recurrence cycle") and the analysis recorded on the
/// observer's sink.
///
/// With `balance_cycles`, instead of marking every load on a violating
/// cycle critical, the cycle's slack against the Min II —
/// `threshold·Σomega − base length` — is divided equally among the cycle's
/// load-data edges, and each load is scheduled for `base + share`, capped
/// at its hinted expected latency. Loads on several cycles take the
/// smallest share. With `balance_cycles = false` this is exactly the
/// paper's algorithm.
///
/// `threshold` is the II a raised cycle may imply without a load on it
/// turning critical, `max(Resource II, base Recurrence II)` of `lp` and
/// `ddg_base`: the driver has it already, so the analysis does not
/// recompute the Recurrence II's search.
///
/// The trace gets the recurrence-cycle enumeration (cycle count, and
/// whether the cap truncated the search — a truncated enumeration can
/// under-mark critical loads) and, per load, a
/// [`ltsp_telemetry::Event::CriticalityVerdict`] with the worst implied II
/// over raised cycles through the load against the II threshold. The
/// caller times the analysis (it is part of the `mrt` phase).
#[allow(clippy::too_many_arguments)]
pub fn classify_loads_observed(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg_base: &Ddg,
    hint_of: &dyn Fn(InstId) -> Option<LatencyHint>,
    cycle_cap: usize,
    balance_cycles: bool,
    threshold: u32,
    obs: Observer,
) -> LoadClassification {
    let tel = obs.tel;
    let n = lp.insts().len();
    let mut class: Vec<Option<LoadClass>> = lp
        .insts()
        .iter()
        .map(|i| i.op().is_load().then_some(LoadClass::NonCritical))
        .collect();
    let hints: Vec<Option<LatencyHint>> = lp
        .insts()
        .iter()
        .map(|i| {
            if i.op().is_load() {
                hint_of(i.id())
            } else {
                None
            }
        })
        .collect();

    let base_lat = |id: InstId| -> u32 {
        match lp.inst(id).op() {
            Opcode::Load(dc) => machine.load_latency(dc, LatencyQuery::Base),
            _ => 0,
        }
    };
    let hinted_lat = |id: InstId| -> u32 {
        match (lp.inst(id).op(), hints[id.index()]) {
            (Opcode::Load(dc), Some(h)) => machine.load_latency(dc, LatencyQuery::Hinted(h)),
            (Opcode::Load(dc), None) => machine.load_latency(dc, LatencyQuery::Base),
            _ => 0,
        }
    };
    let raised = |id: InstId| -> Option<u32> { lp.inst(id).op().is_load().then(|| hinted_lat(id)) };

    // Per-load latency ceiling; starts at the full hinted value and is
    // reduced by every violating cycle the load sits on.
    let mut allowed: Vec<u32> = (0..n).map(|i| hinted_lat(InstId(i as u32))).collect();

    // Worst raised-cycle II through each load (0 = on no cycle); feeds
    // the per-load criticality verdicts in the decision trace.
    let mut worst_ii: Vec<u32> = vec![0; n];

    let cycles = ddg_base.recurrence_cycles(cycle_cap);
    if tel.is_enabled() {
        tel.emit(Event::CycleEnumeration {
            cycles: cycles.len() as u64,
            cap: cycle_cap as u64,
            truncated: cycles.len() >= cycle_cap,
        });
        tel.counter_add("ddg.recurrence_cycles", cycles.len() as u64);
    }
    for cycle in cycles {
        let summary = ddg_base.cycle_summary(&cycle, &raised);
        let loads = ddg_base.cycle_loads(&cycle);
        for load in &loads {
            let w = &mut worst_ii[load.index()];
            *w = (*w).max(summary.implied_ii);
        }
        if summary.implied_ii <= threshold {
            continue;
        }
        if !balance_cycles {
            for load in loads {
                class[load.index()] = Some(LoadClass::Critical);
            }
            continue;
        }
        // Balanced mode: split the cycle's slack among its load edges.
        let base_summary = ddg_base.cycle_summary(&cycle, &|id| {
            lp.inst(id).op().is_load().then(|| base_lat(id))
        });
        let budget =
            (u64::from(threshold) * base_summary.omega).saturating_sub(base_summary.latency);
        // How many load-data edges each load contributes to the cycle.
        let mut edge_count = 0u64;
        for &ei in &cycle.edges {
            let e = ddg_base.edges()[ei];
            if e.kind == ltsp_ddg::DepKind::Flow && ddg_base.is_load(e.from) {
                edge_count += 1;
            }
        }
        if edge_count == 0 || budget == 0 {
            for load in loads {
                class[load.index()] = Some(LoadClass::Critical);
            }
            continue;
        }
        let share = (budget / edge_count) as u32;
        for load in loads {
            let idx = load.index();
            if share == 0 {
                class[idx] = Some(LoadClass::Critical);
            } else {
                let cap = base_lat(load) + share;
                allowed[idx] = allowed[idx].min(cap);
            }
        }
    }

    let mut queries = vec![LatencyQuery::Base; n];
    let mut boosted = 0usize;
    for i in 0..n {
        let id = InstId(i as u32);
        if !lp.inst(id).op().is_load() {
            continue;
        }
        if class[i] == Some(LoadClass::Critical) {
            continue;
        }
        let base = base_lat(id);
        let full = hinted_lat(id);
        let a = allowed[i];
        if a <= base || hints[i].is_none() {
            continue;
        }
        queries[i] = if a >= full {
            LatencyQuery::Hinted(hints[i].expect("checked above"))
        } else {
            LatencyQuery::Exact(a)
        };
        boosted += 1;
    }

    if tel.is_enabled() {
        for i in 0..n {
            let id = InstId(i as u32);
            if !lp.inst(id).op().is_load() {
                continue;
            }
            let critical = class[i] == Some(LoadClass::Critical);
            tel.emit(Event::CriticalityVerdict {
                loop_name: lp.name().to_string(),
                load: format!("i{i}"),
                critical,
                implied_ii: worst_ii[i],
                threshold,
                slack: i64::from(threshold) - i64::from(worst_ii[i]),
            });
            tel.counter_add(
                if critical {
                    "pipeliner.critical_loads"
                } else {
                    "pipeliner.noncritical_loads"
                },
                1,
            );
        }
    }

    LoadClassification {
        class,
        queries,
        boosted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_machine::MachineModel;

    fn build_ddg_base(lp: &LoopIr, m: &MachineModel) -> Ddg {
        Ddg::build(lp, m, &|id| {
            if let Opcode::Load(dc) = lp.inst(id).op() {
                m.load_latency(dc, LatencyQuery::Base)
            } else {
                0
            }
        })
    }

    /// Every load hinted L3, strict or balanced.
    fn classify_l3(lp: &LoopIr, m: &MachineModel, ddg: &Ddg, balance: bool) -> LoadClassification {
        let l3 = |_| Some(LatencyHint::L3);
        let threshold = m.res_mii(lp).max(ddg.rec_mii());
        classify_loads_observed(
            lp,
            m,
            ddg,
            &l3,
            1000,
            balance,
            threshold,
            Observer::disabled(),
        )
    }

    #[test]
    fn streaming_load_is_non_critical() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("stream");
        let x = b.affine_ref("x", DataClass::Int, 0, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(x);
        let s = b.add(v, c);
        let d = b.affine_ref("d", DataClass::Int, 1 << 20, 4, 4);
        b.store(d, s);
        let lp = b.build().unwrap();
        let ddg = build_ddg_base(&lp, &m);
        let cls = classify_loads(&lp, &m, &ddg, &|_| Some(LatencyHint::L3), 1000);
        assert_eq!(cls.class(InstId(0)), Some(LoadClass::NonCritical));
        assert_eq!(cls.query(InstId(0)), LatencyQuery::Hinted(LatencyHint::L3));
        assert_eq!(cls.boosted_count(), 1);
    }

    #[test]
    fn pointer_chase_is_critical() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mcf");
        let node = b.chase_ref("node->child", 0, 64, 1 << 22, 0.1);
        let fld = b.deref_ref("node->f", DataClass::Int, node, 8, 1 << 22, 8);
        let nv = b.load(node);
        let fv = b.load(fld);
        let acc = b.add_reduce(fv);
        let _ = (nv, acc);
        let lp = b.build().unwrap();
        let ddg = build_ddg_base(&lp, &m);
        let cls = classify_loads(&lp, &m, &ddg, &|_| Some(LatencyHint::L3), 1000);
        // The chase load feeds itself: raising it to 21 would push the
        // recurrence to 21 >> MinII, so it is critical.
        assert_eq!(cls.class(InstId(0)), Some(LoadClass::Critical));
        assert_eq!(cls.query(InstId(0)), LatencyQuery::Base);
        // The field load hangs off the cycle: non-critical, boosted.
        assert_eq!(cls.class(InstId(1)), Some(LoadClass::NonCritical));
        assert_eq!(cls.query(InstId(1)), LatencyQuery::Hinted(LatencyHint::L3));
        assert_eq!(cls.boosted_count(), 1);
    }

    #[test]
    fn balanced_mode_gives_cycle_loads_partial_boosts() {
        // mcf-like loop: ResMII 2 (4 memory ops on 2 M slots), chase
        // recurrence of base length 1 -> budget 1 -> the chase load is
        // scheduled at Exact(2) instead of being marked critical.
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("mcf");
        let node = b.chase_ref("node->child", 0, 64, 1 << 22, 0.1);
        let f1 = b.deref_ref("node->a", DataClass::Int, node, 128, 1 << 22, 8);
        let f2 = b.deref_ref("node->b", DataClass::Int, node, 192, 1 << 22, 8);
        let out = b.deref_ref("node->o", DataClass::Int, node, 16, 1 << 22, 8);
        let _nv = b.load(node);
        let v1 = b.load(f1);
        let v2 = b.load(f2);
        let s = b.add(v1, v2);
        b.store(out, s);
        let lp = b.build().unwrap();
        let ddg = build_ddg_base(&lp, &m);
        assert_eq!(m.res_mii(&lp), 2);

        let strict = classify_l3(&lp, &m, &ddg, false);
        assert_eq!(strict.class(InstId(0)), Some(LoadClass::Critical));
        assert_eq!(strict.query(InstId(0)), LatencyQuery::Base);

        let balanced = classify_l3(&lp, &m, &ddg, true);
        assert_eq!(balanced.class(InstId(0)), Some(LoadClass::NonCritical));
        assert_eq!(balanced.query(InstId(0)), LatencyQuery::Exact(2));
        // Off-cycle loads keep their full hinted latency in both modes.
        assert_eq!(
            balanced.query(InstId(1)),
            LatencyQuery::Hinted(LatencyHint::L3)
        );
        assert_eq!(balanced.boosted_count(), strict.boosted_count() + 1);
    }

    #[test]
    fn balanced_mode_never_raises_min_ii() {
        use ltsp_workloads_free::loops_with_cycles;
        let m = MachineModel::itanium2();
        for lp in loops_with_cycles() {
            let ddg = build_ddg_base(&lp, &m);
            let threshold = m.res_mii(&lp).max(ddg.rec_mii());
            let cls = classify_l3(&lp, &m, &ddg, true);
            // Rebuild the DDG with the balanced latencies: the RecMII must
            // not exceed the threshold.
            let boosted = Ddg::build(&lp, &m, &|id| {
                if let Opcode::Load(dc) = lp.inst(id).op() {
                    m.load_latency(dc, cls.query(id))
                } else {
                    0
                }
            });
            assert!(
                boosted.rec_mii() <= threshold,
                "{}: balanced RecMII {} above threshold {}",
                lp.name(),
                boosted.rec_mii(),
                threshold
            );
        }
    }

    mod ltsp_workloads_free {
        use ltsp_ir::{DataClass, LoopBuilder, LoopIr};

        pub(crate) fn loops_with_cycles() -> Vec<LoopIr> {
            let mut out = Vec::new();
            // Chase with varying amounts of surrounding work.
            for extra in 0..4u64 {
                let mut b = LoopBuilder::new(format!("chase-{extra}"));
                let node = b.chase_ref("n", 0, 64, 1 << 22, 0.1);
                let _ = b.load(node);
                for k in 0..extra {
                    let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 24, 4, 4);
                    let v = b.load(r);
                    let _ = b.add(v, v);
                }
                out.push(b.build().unwrap());
            }
            out
        }
    }

    #[test]
    fn unhinted_loads_stay_base() {
        let m = MachineModel::itanium2();
        let mut b = LoopBuilder::new("s");
        let x = b.affine_ref("x", DataClass::Int, 0, 4, 4);
        let v = b.load(x);
        let _ = b.add(v, v);
        let lp = b.build().unwrap();
        let ddg = build_ddg_base(&lp, &m);
        let cls = classify_loads(&lp, &m, &ddg, &|_| None, 1000);
        assert_eq!(cls.class(InstId(0)), Some(LoadClass::NonCritical));
        assert_eq!(cls.query(InstId(0)), LatencyQuery::Base);
        assert_eq!(cls.boosted_count(), 0);
    }

    #[test]
    fn load_on_slack_rich_recurrence_stays_non_critical() {
        // A gather whose index load participates in a recurrence with a
        // large omega: raising to L2 (11) keeps ceil(latency/omega) at or
        // below MinII when the loop is resource-bound, so the load remains
        // non-critical.
        use ltsp_ir::{
            Inst, InstId, LoopIr, MemRefId, MemoryRef, Opcode, RegClass, SrcOperand, VReg,
        };
        let m = MachineModel::itanium2();
        // Loop: 10 independent affine loads (ResMII = ceil(10/2) = 5) plus
        // a cycle  v = load(a) ; w = add(v, w[-4])  where the load reads an
        // affine stream: cycle latency (1 raised to 11) + 1 over omega 4 ->
        // implied II 3 <= 5.
        let mut insts = Vec::new();
        let mut memrefs = Vec::new();
        for k in 0..10u32 {
            memrefs.push(MemoryRef::new(
                format!("p{k}"),
                DataClass::Int,
                ltsp_ir::AccessPattern::Affine {
                    base: u64::from(k) << 22,
                    stride: 4,
                },
                4,
            ));
            insts.push(Inst::new(
                InstId(k),
                Opcode::Load(DataClass::Int),
                Some(VReg::new(RegClass::Gr, k)),
                &[],
                Some(MemRefId(k)),
            ));
        }
        let w = VReg::new(RegClass::Gr, 100);
        insts.push(Inst::new(
            InstId(10),
            Opcode::Add,
            Some(w),
            &[
                SrcOperand::now(VReg::new(RegClass::Gr, 0)),
                SrcOperand::carried(w, 4),
            ],
            None,
        ));
        let lp = LoopIr::new("slacky", insts, memrefs, vec![], vec![]).unwrap();
        let ddg = build_ddg_base(&lp, &m);
        assert_eq!(m.res_mii(&lp), 5);
        let cls = classify_loads(&lp, &m, &ddg, &|_| Some(LatencyHint::L2), 10_000);
        for k in 0..10u32 {
            assert_eq!(
                cls.class(InstId(k)),
                Some(LoadClass::NonCritical),
                "load {k} should stay non-critical"
            );
        }
        assert_eq!(cls.boosted_count(), 10);
    }

    #[test]
    fn l3_hint_on_tight_recurrence_marks_critical() {
        // Same shape but omega 1 and L3 hint: 21 + 1 over omega 1 -> 22 > 5.
        use ltsp_ir::{
            Inst, InstId, LoopIr, MemRefId, MemoryRef, Opcode, RegClass, SrcOperand, VReg,
        };
        let m = MachineModel::itanium2();
        let mut insts = Vec::new();
        let memrefs = vec![MemoryRef::new(
            "g",
            DataClass::Int,
            ltsp_ir::AccessPattern::Gather {
                index: MemRefId(0),
                base: 0,
                elem_bytes: 4,
                region_bytes: 1 << 20,
            },
            4,
        )];
        let v = VReg::new(RegClass::Gr, 0);
        let w = VReg::new(RegClass::Gr, 1);
        // v = load(g) reading w (the index) from last iteration;
        // w = add(v): a cycle load -> add -> load with omega 1.
        insts.push(Inst::new(
            InstId(0),
            Opcode::Load(DataClass::Int),
            Some(v),
            &[SrcOperand::carried(w, 1)],
            Some(MemRefId(0)),
        ));
        insts.push(Inst::new(
            InstId(1),
            Opcode::Add,
            Some(w),
            &[SrcOperand::now(v)],
            None,
        ));
        // The gather pattern's index source must be loaded; point it at
        // itself (ref 0 is loaded by inst 0).
        let lp = LoopIr::new("tight", insts, memrefs, vec![], vec![]).unwrap();
        let ddg = build_ddg_base(&lp, &m);
        let cls = classify_loads(&lp, &m, &ddg, &|_| Some(LatencyHint::L3), 10_000);
        assert_eq!(cls.class(InstId(0)), Some(LoadClass::Critical));
        assert_eq!(cls.boosted_count(), 0);
    }
}
