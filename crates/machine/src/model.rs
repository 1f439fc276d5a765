//! The assembled machine model.

use ltsp_ir::{DataClass, LoopIr};

use crate::cache::{CacheGeometry, CacheParams, TlbParams};
use crate::issue::IssueResources;
use crate::latency::{LatencyQuery, LatencyTable};
use crate::regfile::RegisterFiles;

/// A complete in-order VLIW machine description.
///
/// Shared, immutable input to the HLO, the pipeliner and the simulator so
/// that scheduling decisions and simulated timing always agree.
///
/// # Example
///
/// ```
/// use ltsp_machine::{LatencyQuery, MachineModel};
/// use ltsp_ir::DataClass;
///
/// let m = MachineModel::itanium2();
/// assert_eq!(m.load_latency(DataClass::Int, LatencyQuery::Base), 1);
/// assert_eq!(m.issue().m, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    issue: IssueResources,
    latencies: LatencyTable,
    caches: CacheGeometry,
    registers: RegisterFiles,
}

impl MachineModel {
    /// Builds a model from explicit components.
    pub fn new(
        issue: IssueResources,
        latencies: LatencyTable,
        caches: CacheGeometry,
        registers: RegisterFiles,
    ) -> Self {
        MachineModel {
            issue,
            latencies,
            caches,
            registers,
        }
    }

    /// The Dual-Core-Itanium-2-like default used throughout the
    /// reproduction: 2M/2I/2F/1B issue, load-use latencies 1 / 5 / 14 / 165
    /// (best case) and 11 / 21 typical for L2/L3, FP loads bypassing L1
    /// with one extra conversion cycle, a 48-entry OzQ, and 96/96/48
    /// rotating registers.
    pub fn itanium2() -> Self {
        MachineModel {
            issue: IssueResources {
                m: 2,
                i: 2,
                f: 2,
                b: 1,
            },
            latencies: LatencyTable {
                alu: 1,
                shift: 1,
                imul: 4,
                fp: 4,
                fcvt: 4,
                fp_load_extra: 1,
            },
            caches: CacheGeometry {
                l1: CacheParams {
                    capacity_bytes: 16 * 1024,
                    ways: 4,
                    line_bytes: 64,
                    best_latency: 1,
                    typical_latency: 1,
                },
                l2: CacheParams {
                    capacity_bytes: 256 * 1024,
                    ways: 8,
                    line_bytes: 128,
                    best_latency: 5,
                    typical_latency: 11,
                },
                l3: CacheParams {
                    capacity_bytes: 12 * 1024 * 1024,
                    ways: 12,
                    line_bytes: 128,
                    best_latency: 14,
                    typical_latency: 21,
                },
                memory_latency: 165,
                memory_fill_interval: 20,
                ozq_capacity: 48,
                tlb: TlbParams {
                    entries: 128,
                    page_bytes: 16 * 1024,
                    miss_penalty: 25,
                },
            },
            registers: RegisterFiles {
                rotating_gr: 96,
                rotating_fr: 96,
                rotating_pr: 48,
                total_gr: 128,
                total_fr: 128,
                total_pr: 64,
            },
        }
    }

    /// A half-width variant (1M/1I/1F/1B — a Merced-like narrow EPIC
    /// machine with the same memory system): Resource IIs double, so by
    /// Eq. 3 the same scheduled latency clusters half as many load
    /// instances.
    pub fn narrow() -> Self {
        let mut m = Self::itanium2();
        m.issue = IssueResources {
            m: 1,
            i: 1,
            f: 1,
            b: 1,
        };
        m
    }

    /// A double-width variant (4M/4I/4F/2B): Resource IIs halve, doubling
    /// the clustering factor a given boost achieves.
    pub fn wide() -> Self {
        let mut m = Self::itanium2();
        m.issue = IssueResources {
            m: 4,
            i: 4,
            f: 4,
            b: 2,
        };
        m
    }

    /// Per-cycle issue resources.
    pub fn issue(&self) -> &IssueResources {
        &self.issue
    }

    /// The latency table.
    pub fn latencies(&self) -> &LatencyTable {
        &self.latencies
    }

    /// The memory-hierarchy geometry.
    pub fn caches(&self) -> &CacheGeometry {
        &self.caches
    }

    /// The register-file supply.
    pub fn registers(&self) -> &RegisterFiles {
        &self.registers
    }

    /// Load-latency query (Sec. 3.3): base or hint-derived expected latency.
    pub fn load_latency(&self, data: DataClass, q: LatencyQuery) -> u32 {
        self.latencies.load_latency(&self.caches, data, q)
    }

    /// Resource II for a loop on this machine (Sec. 1.1).
    pub fn res_mii(&self, lp: &LoopIr) -> u32 {
        self.issue.res_mii(lp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::LoopBuilder;

    #[test]
    fn default_model_is_consistent() {
        let m = MachineModel::itanium2();
        assert_eq!(m.caches().l1.sets(), 64);
        assert_eq!(m.caches().l2.sets(), 256);
        assert!(m.caches().l2.typical_latency > m.caches().l2.best_latency);
        assert_eq!(m.caches().ozq_capacity, 48);
    }

    #[test]
    fn width_variants_scale_res_mii() {
        let mut b = LoopBuilder::new("mem");
        for k in 0..4u64 {
            let r = b.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        let lp = b.build().unwrap();
        assert_eq!(MachineModel::narrow().res_mii(&lp), 4);
        assert_eq!(MachineModel::itanium2().res_mii(&lp), 2);
        assert_eq!(MachineModel::wide().res_mii(&lp), 1);
    }
}
