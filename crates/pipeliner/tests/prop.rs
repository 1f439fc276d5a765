//! Property-based tests of modulo scheduling and register allocation.

use proptest::prelude::*;

use ltsp_ddg::Ddg;
use ltsp_ir::{LatencyHint, RegClass};
use ltsp_machine::{LatencyQuery, MachineModel};
use ltsp_pipeliner::{
    acyclic_schedule, allocate_rotating, pipeline_loop, ModuloScheduler, PipelineOptions,
};
use ltsp_workloads::random_loop;

fn base_ddg(lp: &ltsp_ir::LoopIr, m: &MachineModel) -> Ddg {
    Ddg::build_with_load_floor(lp, m, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whenever the scheduler claims success at an II, every dependence
    /// edge and the reservation table are honored (the scheduler asserts
    /// dependences internally; resources are re-checked here).
    #[test]
    fn successful_schedules_are_valid(seed in 0u64..20_000) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let ddg = base_ddg(&lp, &m);
        let min_ii = m.res_mii(&lp).max(ddg.rec_mii());
        let sch = ModuloScheduler::new(&lp, &m, &ddg);
        let Ok(s) = sch.schedule_at(min_ii, 8) else { return Ok(()); };

        // Dependences.
        for e in ddg.edges() {
            prop_assert!(
                s.time(e.from) + i64::from(e.latency)
                    <= s.time(e.to) + i64::from(min_ii) * i64::from(e.omega)
            );
        }
        // Resources: count per row and class.
        let res = m.issue();
        for row in s.rows().iter() {
            let mut mem = 0u32;
            let mut fp = 0u32;
            let mut alu = 0u32;
            for slot in row {
                match lp.inst(slot.inst).unit_class() {
                    ltsp_ir::UnitClass::M => mem += 1,
                    ltsp_ir::UnitClass::F => fp += 1,
                    ltsp_ir::UnitClass::I | ltsp_ir::UnitClass::A => alu += 1,
                    ltsp_ir::UnitClass::B => {}
                }
            }
            prop_assert!(mem <= res.m, "M row overflow");
            prop_assert!(fp <= res.f, "F row overflow");
            prop_assert!(mem + alu <= res.m + res.i, "shared M/I overflow");
        }
    }

    /// Escalating the II can only shrink (or keep) register demand —
    /// the fallback ladder's premise.
    #[test]
    fn register_demand_shrinks_with_ii(seed in 0u64..20_000) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let ddg = base_ddg(&lp, &m);
        let min_ii = m.res_mii(&lp).max(ddg.rec_mii());
        let sch = ModuloScheduler::new(&lp, &m, &ddg);
        let (Ok(s1), Ok(s2)) = (sch.schedule_at(min_ii, 8), sch.schedule_at(min_ii + 4, 8))
        else { return Ok(()); };
        let (Ok(a1), Ok(a2)) = (
            allocate_rotating(&lp, &s1, &m),
            allocate_rotating(&lp, &s2, &m),
        ) else { return Ok(()); };
        // Stage predicates shrink with fewer stages; value lifetimes only
        // get cheaper per II. Compare predicate usage (monotone by
        // construction) and total rotating demand.
        prop_assert!(a2.stages <= a1.stages);
        let total1 = a1.rotating(RegClass::Gr) + a1.rotating(RegClass::Fr);
        let total2 = a2.rotating(RegClass::Gr) + a2.rotating(RegClass::Fr);
        prop_assert!(total2 <= total1 + 2, "demand grew materially with II");
    }

    /// The acyclic fallback schedule is always single-stage and respects
    /// same-iteration dependences.
    #[test]
    fn acyclic_fallback_is_sound(seed in 0u64..20_000) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let ddg = base_ddg(&lp, &m);
        let s = acyclic_schedule(&lp, &m, &ddg);
        prop_assert_eq!(s.stage_count(), 1);
        for e in ddg.edges() {
            if e.omega == 0 {
                prop_assert!(s.time(e.from) + i64::from(e.latency) <= s.time(e.to));
            }
        }
    }

    /// The full driver always yields an executable kernel, and its II
    /// never beats the Min II bounds.
    #[test]
    fn driver_output_within_bounds(seed in 0u64..20_000, hint_l3 in any::<bool>()) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let hint = move |_| if hint_l3 { Some(LatencyHint::L3) } else { None };
        let Ok(p) = pipeline_loop(&lp, &m, &hint, &PipelineOptions::default())
        else { return Ok(()); };
        prop_assert!(p.schedule.ii() >= p.stats.min_ii);
        prop_assert!(p.schedule.stage_count() >= 1);
        prop_assert_eq!(
            p.stats.min_ii,
            p.stats.res_mii.max(p.stats.rec_mii)
        );
        // Boost accounting is consistent with the classification.
        let boosted = lp
            .insts()
            .iter()
            .filter(|i| {
                i.op().is_load()
                    && matches!(p.classification.query(i.id()), LatencyQuery::Hinted(_))
            })
            .count();
        prop_assert_eq!(boosted, p.stats.boosted_loads);
    }
}
