//! Cycle-accounting counters (the Fig. 10 buckets plus instrumentation).

use std::ops::{Add, AddAssign};

/// Cycle and event counters for one or more simulated loop executions.
///
/// The six cycle buckets partition `total`:
/// `total = unstalled + be_exe_bubble + be_l1d_fpu_bubble + be_rse_bubble
///  + be_flush_bubble + fe_bubble` — an invariant the test suite checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounters {
    /// Total clock cycles.
    pub total: u64,
    /// Cycles doing useful, unstalled work.
    pub unstalled: u64,
    /// Execution-pipeline stalls waiting for register data (stall-on-use;
    /// dominated by memory latency).
    pub be_exe_bubble: u64,
    /// Stalls because the OzQ (L1-to-L2 request queue) was full at issue.
    pub be_l1d_fpu_bubble: u64,
    /// Register-stack-engine spill/fill traffic.
    pub be_rse_bubble: u64,
    /// Pipeline flushes (loop-exit branch mispredict).
    pub be_flush_bubble: u64,
    /// Front-end instruction-delivery bubbles at loop entry.
    pub fe_bubble: u64,

    /// Kernel-loop iterations executed (including prolog/epilog).
    pub kernel_iters: u64,
    /// Source-loop iterations completed.
    pub source_iters: u64,
    /// Loop executions (entries).
    pub entries: u64,
    /// Demand loads issued.
    pub loads: u64,
    /// Demand loads served by L1D.
    pub l1_hits: u64,
    /// Demand loads served by L2.
    pub l2_hits: u64,
    /// Demand loads served by L3.
    pub l3_hits: u64,
    /// Demand loads served by memory.
    pub mem_loads: u64,
    /// Demand loads that merged with an in-flight line fill.
    pub inflight_merges: u64,
    /// Data-TLB misses.
    pub tlb_misses: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Stores issued.
    pub stores: u64,
    /// Cycles during which the OzQ was full (the paper's
    /// `L2D_OZQ_FULL`-style statistic).
    pub ozq_full_cycles: u64,
}

impl CycleCounters {
    /// Sum of all stall buckets.
    pub fn stall_cycles(&self) -> u64 {
        self.be_exe_bubble
            + self.be_l1d_fpu_bubble
            + self.be_rse_bubble
            + self.be_flush_bubble
            + self.fe_bubble
    }

    /// Checks the bucket-partition invariant.
    pub fn is_consistent(&self) -> bool {
        self.total == self.unstalled + self.stall_cycles()
    }

    /// Fraction of total cycles with a full OzQ.
    pub fn ozq_full_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.ozq_full_cycles as f64 / self.total as f64
        }
    }

    /// Exports every counter into a telemetry metrics registry under
    /// `prefix`: the cycle-bucket partition as `{prefix}.cycles.*`
    /// (`total == unstalled + the five stall buckets`, mirroring
    /// [`CycleCounters::is_consistent`]) and the event counts as
    /// `{prefix}.events.*`. No-op on a disabled sink.
    pub(crate) fn export(&self, tel: &ltsp_telemetry::Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        let cycles = [
            ("total", self.total),
            ("unstalled", self.unstalled),
            ("be_exe_bubble", self.be_exe_bubble),
            ("be_l1d_fpu_bubble", self.be_l1d_fpu_bubble),
            ("be_rse_bubble", self.be_rse_bubble),
            ("be_flush_bubble", self.be_flush_bubble),
            ("fe_bubble", self.fe_bubble),
            ("ozq_full", self.ozq_full_cycles),
        ];
        for (name, v) in cycles {
            tel.counter_add(&format!("{prefix}.cycles.{name}"), v);
        }
        let events = [
            ("kernel_iters", self.kernel_iters),
            ("source_iters", self.source_iters),
            ("entries", self.entries),
            ("loads", self.loads),
            ("l1_hits", self.l1_hits),
            ("l2_hits", self.l2_hits),
            ("l3_hits", self.l3_hits),
            ("mem_loads", self.mem_loads),
            ("inflight_merges", self.inflight_merges),
            ("tlb_misses", self.tlb_misses),
            ("prefetches", self.prefetches),
            ("stores", self.stores),
        ];
        for (name, v) in events {
            tel.counter_add(&format!("{prefix}.events.{name}"), v);
        }
    }

    /// Scales every cycle and event count by a weight (used when a loop
    /// stands for a share of a whole benchmark's execution).
    pub fn scaled(&self, weight: f64) -> CycleCounters {
        let s = |v: u64| -> u64 { (v as f64 * weight).round() as u64 };
        CycleCounters {
            total: s(self.total),
            unstalled: s(self.unstalled),
            be_exe_bubble: s(self.be_exe_bubble),
            be_l1d_fpu_bubble: s(self.be_l1d_fpu_bubble),
            be_rse_bubble: s(self.be_rse_bubble),
            be_flush_bubble: s(self.be_flush_bubble),
            fe_bubble: s(self.fe_bubble),
            kernel_iters: s(self.kernel_iters),
            source_iters: s(self.source_iters),
            entries: s(self.entries),
            loads: s(self.loads),
            l1_hits: s(self.l1_hits),
            l2_hits: s(self.l2_hits),
            l3_hits: s(self.l3_hits),
            mem_loads: s(self.mem_loads),
            inflight_merges: s(self.inflight_merges),
            tlb_misses: s(self.tlb_misses),
            prefetches: s(self.prefetches),
            stores: s(self.stores),
            ozq_full_cycles: s(self.ozq_full_cycles),
        }
    }
}

impl Add for CycleCounters {
    type Output = CycleCounters;

    fn add(mut self, rhs: CycleCounters) -> CycleCounters {
        self += rhs;
        self
    }
}

impl AddAssign for CycleCounters {
    fn add_assign(&mut self, r: CycleCounters) {
        self.total += r.total;
        self.unstalled += r.unstalled;
        self.be_exe_bubble += r.be_exe_bubble;
        self.be_l1d_fpu_bubble += r.be_l1d_fpu_bubble;
        self.be_rse_bubble += r.be_rse_bubble;
        self.be_flush_bubble += r.be_flush_bubble;
        self.fe_bubble += r.fe_bubble;
        self.kernel_iters += r.kernel_iters;
        self.source_iters += r.source_iters;
        self.entries += r.entries;
        self.loads += r.loads;
        self.l1_hits += r.l1_hits;
        self.l2_hits += r.l2_hits;
        self.l3_hits += r.l3_hits;
        self.mem_loads += r.mem_loads;
        self.inflight_merges += r.inflight_merges;
        self.tlb_misses += r.tlb_misses;
        self.prefetches += r.prefetches;
        self.stores += r.stores;
        self.ozq_full_cycles += r.ozq_full_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_accumulates() {
        let a = CycleCounters {
            total: 10,
            unstalled: 6,
            be_exe_bubble: 4,
            loads: 3,
            ..Default::default()
        };
        let b = CycleCounters {
            total: 5,
            unstalled: 5,
            loads: 1,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.total, 15);
        assert_eq!(c.unstalled, 11);
        assert_eq!(c.loads, 4);
        assert!(c.is_consistent());
    }

    #[test]
    fn consistency_check_detects_mismatch() {
        let bad = CycleCounters {
            total: 10,
            unstalled: 5,
            be_exe_bubble: 1,
            ..Default::default()
        };
        assert!(!bad.is_consistent());
    }

    #[test]
    fn scaling_is_proportional() {
        let a = CycleCounters {
            total: 1000,
            unstalled: 600,
            be_exe_bubble: 400,
            loads: 100,
            ..Default::default()
        };
        let half = a.scaled(0.5);
        assert_eq!(half.total, 500);
        assert_eq!(half.loads, 50);
    }

    #[test]
    fn ozq_fraction() {
        let a = CycleCounters {
            total: 200,
            ozq_full_cycles: 20,
            ..Default::default()
        };
        assert!((a.ozq_full_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(CycleCounters::default().ozq_full_fraction(), 0.0);
    }
}
