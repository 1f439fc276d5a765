//! Observed-hint overlays: merging runtime-measured latency verdicts
//! over the static prefetch analysis.
//!
//! The static heuristics of [`crate::run_hlo`] guess where a load will be
//! served from; the adaptive loop (crates/adaptive) *measures* it on the
//! simulator and feeds the verdicts back as an [`ObservedOverlay`]. Each
//! verdict carries two independent decisions:
//!
//! - an **effective hint** for the demand load, merged with the static
//!   policy per the table below, and
//! - a **prefetch-drop** flag: the static prefetch for this reference was
//!   observed to be redundant (the line was already cache-resident when
//!   the prefetch issued), so the next compile round omits it, shrinking
//!   the loop body and its resource-minimum II.
//!
//! | observed verdict | effective hint |
//! |---|---|
//! | none (no coverage) | the static hint, unchanged |
//! | [`ObservedHint::Fast`] | no hint — the static guess is suppressed |
//! | [`ObservedHint::Level`]`(h)` | `h` — the observed service level |
//!
//! Observed verdicts bypass the trip-count threshold, like the paper's
//! miss-sampled outlook: a measurement is strictly stronger evidence than
//! the static profitability guard it replaces. The drop decision is
//! stable at fixpoint because a redundant prefetch, by definition, does
//! not create the residency it observed — removing it leaves the
//! measurement unchanged.

use ltsp_ir::{LatencyHint, MemRefId};

/// The observed service level for a memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedHint {
    /// The reference was observed to be served fast (L1-resident or
    /// covered by prefetches): suppress any static hint.
    Fast,
    /// The reference was observed slow: expect this service level.
    Level(LatencyHint),
}

/// One reference's full observed verdict: the service-level hint plus
/// whether its static prefetch was measured to be redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedVerdict {
    /// The observed service level (drives the latency-hint merge).
    pub hint: ObservedHint,
    /// Omit the static prefetch for this reference on the next round —
    /// it was observed to find its line already resident.
    pub drop_prefetch: bool,
}

/// A per-memref overlay of observed verdicts, indexed by memref id.
/// `None` entries (and references past the end) have no coverage and fall
/// back to the static analysis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObservedOverlay {
    verdicts: Vec<Option<ObservedVerdict>>,
}

impl ObservedOverlay {
    /// Builds an overlay from per-memref verdicts (indexed by memref id).
    pub fn new(verdicts: Vec<Option<ObservedVerdict>>) -> Self {
        ObservedOverlay { verdicts }
    }

    /// The observed verdict for `memref`, if any.
    pub fn get(&self, memref: MemRefId) -> Option<ObservedVerdict> {
        self.verdicts.get(memref.index()).copied().flatten()
    }

    /// True when the observation says the static prefetch for `memref`
    /// is redundant and should be omitted.
    pub(crate) fn drop_prefetch(&self, memref: MemRefId) -> bool {
        self.get(memref).is_some_and(|v| v.drop_prefetch)
    }

    /// Number of references with an observed verdict.
    pub fn covered(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_some()).count()
    }

    /// Number of references whose prefetch the overlay drops.
    pub fn dropped_prefetches(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.is_some_and(|v| v.drop_prefetch))
            .count()
    }

    /// Number of references whose verdict differs from `prev` — the
    /// round-over-round hint delta of the adaptive loop's telemetry.
    pub fn delta(&self, prev: &ObservedOverlay) -> usize {
        let n = self.verdicts.len().max(prev.verdicts.len());
        (0..n)
            .filter(|&i| {
                self.verdicts.get(i).copied().flatten() != prev.verdicts.get(i).copied().flatten()
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> MemRefId {
        MemRefId(i as u32)
    }

    fn keep(hint: ObservedHint) -> Option<ObservedVerdict> {
        Some(ObservedVerdict {
            hint,
            drop_prefetch: false,
        })
    }

    #[test]
    fn merge_rules() {
        let ov = ObservedOverlay::new(vec![
            None,
            keep(ObservedHint::Fast),
            keep(ObservedHint::Level(LatencyHint::L3)),
        ]);
        assert_eq!(ov.get(r(0)), None);
        assert_eq!(ov.get(r(1)).map(|v| v.hint), Some(ObservedHint::Fast));
        assert_eq!(
            ov.get(r(2)).map(|v| v.hint),
            Some(ObservedHint::Level(LatencyHint::L3))
        );
        // Past-the-end references have no coverage: the static hint stands.
        assert_eq!(ov.get(r(9)), None);
        assert_eq!(ov.covered(), 2);
    }

    #[test]
    fn drop_flags_are_per_reference() {
        let ov = ObservedOverlay::new(vec![
            keep(ObservedHint::Fast),
            Some(ObservedVerdict {
                hint: ObservedHint::Fast,
                drop_prefetch: true,
            }),
            None,
        ]);
        assert!(!ov.drop_prefetch(r(0)));
        assert!(ov.drop_prefetch(r(1)));
        assert!(!ov.drop_prefetch(r(2)));
        assert!(!ov.drop_prefetch(r(9)));
        assert_eq!(ov.dropped_prefetches(), 1);
    }

    #[test]
    fn delta_counts_changed_verdicts() {
        let a = ObservedOverlay::new(vec![keep(ObservedHint::Fast), None]);
        let b = ObservedOverlay::new(vec![
            keep(ObservedHint::Fast),
            keep(ObservedHint::Level(LatencyHint::L2)),
            keep(ObservedHint::Fast),
        ]);
        assert_eq!(a.delta(&a), 0);
        assert_eq!(b.delta(&a), 2);
        assert_eq!(a.delta(&b), 2);
        // A drop-flag flip alone is a delta: the loop body changes.
        let c = ObservedOverlay::new(vec![
            Some(ObservedVerdict {
                hint: ObservedHint::Fast,
                drop_prefetch: true,
            }),
            None,
        ]);
        assert_eq!(c.delta(&a), 1);
    }
}
