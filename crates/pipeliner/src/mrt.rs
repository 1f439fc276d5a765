//! The modulo reservation table.
//!
//! The scheduler probes `II` consecutive slots per operation, so
//! [`Mrt::fits`] is the hottest query in the pipeliner. Each row keeps a
//! per-slot-class occupancy counter (`[M, I, F, B]`) next to its
//! occupant list: `fits`/`place` are O(1) in the row size, while the
//! occupant list preserves placement order for eviction (the most
//! recently placed occupant is the lowest-priority one so far) and
//! records each occupant's *declared* unit class so forced placement can
//! tell relocatable A-class occupants from fixed-class ones.

use ltsp_ir::{InstId, UnitClass};
use ltsp_machine::IssueResources;

/// Which physical slot class an instruction actually occupies in its row
/// (A-class ops land on either an I or an M slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TakenSlot {
    M,
    I,
    F,
    B,
}

impl TakenSlot {
    pub(crate) fn idx(self) -> usize {
        match self {
            TakenSlot::M => 0,
            TakenSlot::I => 1,
            TakenSlot::F => 2,
            TakenSlot::B => 3,
        }
    }
}

/// One placed instruction: which slot it occupies and the unit class it
/// was declared with (an `A`-declared occupant is relocatable — it can
/// sit on either an I or an M slot).
#[derive(Debug, Clone, Copy)]
struct Occupant {
    inst: InstId,
    slot: TakenSlot,
    declared: UnitClass,
}

/// The slot rule of one issue cycle, shared by [`Mrt`] and the acyclic
/// schedule: the slot an instruction of `class` takes in a row whose
/// taken slots are `counts` (`[M, I, F, B]`), or `None` when it does not
/// fit. An A-class op takes an I slot, else an M slot.
pub(crate) fn free_slot(
    counts: [u32; 4],
    res: &IssueResources,
    class: UnitClass,
) -> Option<TakenSlot> {
    let [m, i, f, b] = counts;
    match class {
        UnitClass::M => (m < res.m).then_some(TakenSlot::M),
        UnitClass::I => (i < res.i).then_some(TakenSlot::I),
        UnitClass::F => (f < res.f).then_some(TakenSlot::F),
        UnitClass::B => (b < res.b).then_some(TakenSlot::B),
        UnitClass::A => {
            if i < res.i {
                Some(TakenSlot::I)
            } else if m < res.m {
                Some(TakenSlot::M)
            } else {
                None
            }
        }
    }
}

/// Modulo reservation table: tracks, for each of the II rows, which
/// instructions occupy which issue slots. Placement wraps schedule time
/// modulo II.
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: u32,
    res: IssueResources,
    rows: Vec<Vec<Occupant>>,
    /// Per-row taken-slot counters indexed by [`TakenSlot::idx`]
    /// (`[M, I, F, B]`): `fits`/`place` never rescan the occupant list.
    counts: Vec<[u32; 4]>,
}

impl Mrt {
    /// Creates an empty table for the given II and issue resources.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub(crate) fn new(ii: u32, res: IssueResources) -> Self {
        assert!(ii > 0, "II must be positive");
        Mrt {
            ii,
            res,
            rows: vec![Vec::new(); ii as usize],
            counts: vec![[0; 4]; ii as usize],
        }
    }

    /// Clears the table and re-shapes it for a new II, reusing the row
    /// allocations. Equivalent to `*self = Mrt::new(ii, res)` without
    /// the reallocation — used by the scheduler's II escalation ladder.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub(crate) fn reset(&mut self, ii: u32, res: IssueResources) {
        assert!(ii > 0, "II must be positive");
        self.ii = ii;
        self.res = res;
        for row in &mut self.rows {
            row.clear();
        }
        self.rows.resize_with(ii as usize, Vec::new);
        self.counts.clear();
        self.counts.resize(ii as usize, [0; 4]);
    }

    fn row_of(&self, time: i64) -> usize {
        (time.rem_euclid(i64::from(self.ii))) as usize
    }

    fn free_in_row(&self, row: usize, class: UnitClass) -> Option<TakenSlot> {
        free_slot(self.counts[row], &self.res, class)
    }

    /// True if an instruction of `class` fits at `time` without eviction.
    pub(crate) fn fits(&self, time: i64, class: UnitClass) -> bool {
        self.free_in_row(self.row_of(time), class).is_some()
    }

    /// Places an instruction at `time`.
    ///
    /// Returns `true` on success; `false` if the row has no free compatible
    /// slot (use [`Mrt::place_forced`] to evict).
    pub(crate) fn place(&mut self, inst: InstId, time: i64, class: UnitClass) -> bool {
        let row = self.row_of(time);
        match self.free_in_row(row, class) {
            Some(slot) => {
                self.rows[row].push(Occupant {
                    inst,
                    slot,
                    declared: class,
                });
                self.counts[row][slot.idx()] += 1;
                true
            }
            None => false,
        }
    }

    /// Forces an instruction into the row at `time`, evicting an occupant
    /// if needed. Returns the evicted instruction, if any.
    ///
    /// For a fixed-class op, one occupant of that slot class is evicted.
    /// For an A-class op (both I and M full), a *relocatable* occupant —
    /// one declared A-class, on either an I or an M slot — is preferred:
    /// evicting it lets the iterative scheduler re-place it on whichever
    /// shared slot opens next, whereas evicting a fixed-class op when a
    /// relocatable one exists just thrashes fixed placements. Only when
    /// every shared-slot occupant is fixed-class does eviction fall back
    /// to the I slots (then M). Among candidates, the *most recently
    /// placed* occupant is evicted, which in the iterative scheduler
    /// corresponds to the lowest-priority one placed so far.
    pub(crate) fn place_forced(
        &mut self,
        inst: InstId,
        time: i64,
        class: UnitClass,
    ) -> Option<InstId> {
        if self.place(inst, time, class) {
            return None;
        }
        let row = self.row_of(time);
        let pos = match class {
            UnitClass::M => self.rindex_on_slot(row, TakenSlot::M),
            UnitClass::I => self.rindex_on_slot(row, TakenSlot::I),
            UnitClass::F => self.rindex_on_slot(row, TakenSlot::F),
            UnitClass::B => self.rindex_on_slot(row, TakenSlot::B),
            UnitClass::A => self.rows[row]
                .iter()
                .rposition(|o| o.declared == UnitClass::A)
                .or_else(|| self.rindex_on_slot(row, TakenSlot::I))
                .or_else(|| self.rindex_on_slot(row, TakenSlot::M)),
        }
        .expect("row reported full for this class, so an occupant exists");
        let victim = self.rows[row].remove(pos);
        self.counts[row][victim.slot.idx()] -= 1;
        self.rows[row].push(Occupant {
            inst,
            slot: victim.slot,
            declared: class,
        });
        self.counts[row][victim.slot.idx()] += 1;
        Some(victim.inst)
    }

    fn rindex_on_slot(&self, row: usize, slot: TakenSlot) -> Option<usize> {
        self.rows[row].iter().rposition(|o| o.slot == slot)
    }

    /// Removes an instruction from the row it occupies at `time`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not in that row.
    pub(crate) fn remove(&mut self, inst: InstId, time: i64) {
        let row = self.row_of(time);
        let pos = self.rows[row]
            .iter()
            .position(|o| o.inst == inst)
            .expect("instruction must occupy the row it is removed from");
        let occ = self.rows[row].remove(pos);
        self.counts[row][occ.slot.idx()] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Mrt {
        /// Total occupied slots.
        fn occupancy(&self) -> usize {
            self.rows.iter().map(Vec::len).sum()
        }
    }

    fn res() -> IssueResources {
        IssueResources {
            m: 2,
            i: 2,
            f: 2,
            b: 1,
        }
    }

    #[test]
    fn wraps_modulo_ii() {
        let mut mrt = Mrt::new(2, res());
        assert!(mrt.place(InstId(0), 0, UnitClass::M));
        assert!(mrt.place(InstId(1), 2, UnitClass::M), "same row as time 0");
        assert!(
            !mrt.place(InstId(2), 4, UnitClass::M),
            "row 0 M slots now full"
        );
        assert!(mrt.place(InstId(2), 1, UnitClass::M), "row 1 free");
    }

    #[test]
    fn a_class_prefers_i_then_m() {
        let mut mrt = Mrt::new(1, res());
        assert!(mrt.place(InstId(0), 0, UnitClass::A));
        assert!(mrt.place(InstId(1), 0, UnitClass::A));
        assert!(mrt.place(InstId(2), 0, UnitClass::A));
        assert!(mrt.place(InstId(3), 0, UnitClass::A));
        assert!(!mrt.place(InstId(4), 0, UnitClass::A), "4 shared slots");
        // But a pure M op no longer fits either: A ops spilled into M.
        assert!(!mrt.fits(0, UnitClass::M));
    }

    #[test]
    fn forced_placement_evicts_most_recent() {
        let mut mrt = Mrt::new(1, res());
        assert!(mrt.place(InstId(0), 0, UnitClass::M));
        assert!(mrt.place(InstId(1), 0, UnitClass::M));
        let evicted = mrt.place_forced(InstId(2), 0, UnitClass::M);
        assert_eq!(evicted, Some(InstId(1)));
        assert_eq!(mrt.occupancy(), 2);
    }

    #[test]
    fn forced_placement_without_conflict_evicts_nothing() {
        let mut mrt = Mrt::new(1, res());
        let evicted = mrt.place_forced(InstId(0), 0, UnitClass::F);
        assert!(evicted.is_none());
    }

    #[test]
    fn forced_a_class_prefers_relocatable_victim() {
        // I slots hold fixed I-class ops; one M slot holds a relocatable
        // A-class op. Forcing another A-class op must evict the
        // relocatable occupant, not thrash a fixed I placement.
        let mut mrt = Mrt::new(1, res());
        assert!(mrt.place(InstId(0), 0, UnitClass::I));
        assert!(mrt.place(InstId(1), 0, UnitClass::I));
        assert!(mrt.place(InstId(2), 0, UnitClass::M));
        assert!(mrt.place(InstId(3), 0, UnitClass::A)); // lands on an M slot
        assert!(!mrt.fits(0, UnitClass::A));
        let evicted = mrt.place_forced(InstId(4), 0, UnitClass::A);
        assert_eq!(evicted, Some(InstId(3)), "relocatable occupant evicted");
        // The fixed I placements survived.
        assert!(!mrt.fits(0, UnitClass::I));
        mrt.remove(InstId(0), 0);
        assert!(mrt.fits(0, UnitClass::I));
    }

    #[test]
    fn forced_a_class_falls_back_to_i_then_m_when_all_fixed() {
        let mut mrt = Mrt::new(1, res());
        assert!(mrt.place(InstId(0), 0, UnitClass::I));
        assert!(mrt.place(InstId(1), 0, UnitClass::M));
        assert!(mrt.place(InstId(2), 0, UnitClass::M));
        assert!(mrt.place(InstId(3), 0, UnitClass::I));
        let evicted = mrt.place_forced(InstId(4), 0, UnitClass::A);
        assert_eq!(evicted, Some(InstId(3)), "most recent I occupant");
    }

    #[test]
    fn remove_frees_slot() {
        let mut mrt = Mrt::new(1, res());
        assert!(mrt.place(InstId(0), 0, UnitClass::F));
        assert!(mrt.place(InstId(1), 0, UnitClass::F));
        assert!(!mrt.fits(0, UnitClass::F));
        mrt.remove(InstId(0), 0);
        assert!(mrt.fits(0, UnitClass::F));
    }

    #[test]
    fn reset_reshapes_and_clears() {
        let mut mrt = Mrt::new(3, res());
        assert!(mrt.place(InstId(0), 0, UnitClass::M));
        assert!(mrt.place(InstId(1), 2, UnitClass::F));
        mrt.reset(5, res());
        assert_eq!(mrt.ii, 5);
        assert_eq!(mrt.occupancy(), 0);
        for t in 0..5 {
            assert!(mrt.fits(t, UnitClass::M));
        }
        mrt.reset(2, res());
        assert_eq!(mrt.ii, 2);
        assert!(mrt.place(InstId(0), 1, UnitClass::B));
        assert!(!mrt.fits(1, UnitClass::B));
    }

    #[test]
    #[should_panic(expected = "II must be positive")]
    fn zero_ii_panics() {
        let _ = Mrt::new(0, res());
    }

    #[test]
    fn negative_time_wraps() {
        let mut mrt = Mrt::new(3, res());
        assert!(mrt.place(InstId(0), -1, UnitClass::M)); // row 2
        assert!(mrt.place(InstId(1), 2, UnitClass::M));
        assert!(!mrt.place(InstId(2), 5, UnitClass::M), "row 2 full");
    }

    /// The pre-counter reference table: occupant lists only, with
    /// `free_in_row` recounting the whole row on every probe. Eviction
    /// semantics mirror [`Mrt::place_forced`] (relocatable-first for
    /// A-class) so the differential test pins exactly the counter
    /// optimization, not the eviction policy.
    struct RefMrt {
        ii: u32,
        res: IssueResources,
        rows: Vec<Vec<(InstId, TakenSlot, UnitClass)>>,
    }

    impl RefMrt {
        fn new(ii: u32, res: IssueResources) -> Self {
            RefMrt {
                ii,
                res,
                rows: vec![Vec::new(); ii as usize],
            }
        }

        fn row_of(&self, time: i64) -> usize {
            (time.rem_euclid(i64::from(self.ii))) as usize
        }

        fn free_in_row(&self, row: usize, class: UnitClass) -> Option<TakenSlot> {
            let (mut m, mut i, mut f, mut b) = (0u32, 0u32, 0u32, 0u32);
            for &(_, s, _) in &self.rows[row] {
                match s {
                    TakenSlot::M => m += 1,
                    TakenSlot::I => i += 1,
                    TakenSlot::F => f += 1,
                    TakenSlot::B => b += 1,
                }
            }
            match class {
                UnitClass::M => (m < self.res.m).then_some(TakenSlot::M),
                UnitClass::I => (i < self.res.i).then_some(TakenSlot::I),
                UnitClass::F => (f < self.res.f).then_some(TakenSlot::F),
                UnitClass::B => (b < self.res.b).then_some(TakenSlot::B),
                UnitClass::A => {
                    if i < self.res.i {
                        Some(TakenSlot::I)
                    } else if m < self.res.m {
                        Some(TakenSlot::M)
                    } else {
                        None
                    }
                }
            }
        }

        fn fits(&self, time: i64, class: UnitClass) -> bool {
            self.free_in_row(self.row_of(time), class).is_some()
        }

        fn place(&mut self, inst: InstId, time: i64, class: UnitClass) -> bool {
            let row = self.row_of(time);
            match self.free_in_row(row, class) {
                Some(slot) => {
                    self.rows[row].push((inst, slot, class));
                    true
                }
                None => false,
            }
        }

        fn place_forced(&mut self, inst: InstId, time: i64, class: UnitClass) -> Option<InstId> {
            if self.place(inst, time, class) {
                return None;
            }
            let row = self.row_of(time);
            let on_slot = |r: &[(InstId, TakenSlot, UnitClass)], slot| {
                r.iter().rposition(|&(_, s, _)| s == slot)
            };
            let pos = match class {
                UnitClass::M => on_slot(&self.rows[row], TakenSlot::M),
                UnitClass::I => on_slot(&self.rows[row], TakenSlot::I),
                UnitClass::F => on_slot(&self.rows[row], TakenSlot::F),
                UnitClass::B => on_slot(&self.rows[row], TakenSlot::B),
                UnitClass::A => self.rows[row]
                    .iter()
                    .rposition(|&(_, _, d)| d == UnitClass::A)
                    .or_else(|| on_slot(&self.rows[row], TakenSlot::I))
                    .or_else(|| on_slot(&self.rows[row], TakenSlot::M)),
            }
            .expect("occupant exists");
            let (victim, slot, _) = self.rows[row].remove(pos);
            self.rows[row].push((inst, slot, class));
            Some(victim)
        }

        fn remove(&mut self, inst: InstId, time: i64) {
            let row = self.row_of(time);
            let pos = self.rows[row]
                .iter()
                .position(|&(i, _, _)| i == inst)
                .expect("present");
            self.rows[row].remove(pos);
        }

        fn occupancy(&self) -> usize {
            self.rows.iter().map(Vec::len).sum()
        }
    }

    #[test]
    fn counter_table_matches_recounting_reference_on_random_traces() {
        use ltsp_ir::SplitMix64;
        let classes = [
            UnitClass::M,
            UnitClass::I,
            UnitClass::F,
            UnitClass::B,
            UnitClass::A,
        ];
        let mut rng = SplitMix64::new(0x4D52_5400);
        for case in 0..40 {
            let ii = 1 + rng.next_below(6) as u32;
            let mut fast = Mrt::new(ii, res());
            let mut reference = RefMrt::new(ii, res());
            // (inst, time) placements currently live, for remove ops.
            let mut live: Vec<(InstId, i64)> = Vec::new();
            let mut next_id = 0u32;
            for step in 0..400 {
                let time = rng.next_below(4 * u64::from(ii)) as i64 - i64::from(ii);
                let class = classes[rng.next_below(classes.len() as u64) as usize];
                match rng.next_below(4) {
                    0 => {
                        assert_eq!(
                            fast.fits(time, class),
                            reference.fits(time, class),
                            "case {case} step {step}: fits({time}, {class:?})"
                        );
                    }
                    1 => {
                        let id = InstId(next_id);
                        next_id += 1;
                        let a = fast.place(id, time, class);
                        let b = reference.place(id, time, class);
                        assert_eq!(a, b, "case {case} step {step}: place");
                        if a {
                            live.push((id, time));
                        }
                    }
                    2 => {
                        let id = InstId(next_id);
                        next_id += 1;
                        let a = fast.place_forced(id, time, class);
                        let b = reference.place_forced(id, time, class);
                        assert_eq!(a, b, "case {case} step {step}: forced victim");
                        live.push((id, time));
                        if let Some(v) = a {
                            live.retain(|&(i, _)| i != v);
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let k = rng.next_below(live.len() as u64) as usize;
                            let (id, t) = live.swap_remove(k);
                            fast.remove(id, t);
                            reference.remove(id, t);
                        }
                    }
                }
                assert_eq!(
                    fast.occupancy(),
                    reference.occupancy(),
                    "case {case} step {step}: occupancy"
                );
            }
        }
    }
}
