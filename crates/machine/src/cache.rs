//! Memory-hierarchy geometry.

use ltsp_ir::CacheLevel;

/// Geometry and service latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Best-case load-use latency when hitting at this level (cycles).
    pub best_latency: u32,
    /// Typical load-use latency, accounting for bank conflicts, conflicting
    /// stores and similar dynamic hazards (cycles). This is what latency
    /// hints translate to (Sec. 3.3).
    pub typical_latency: u32,
}

impl CacheParams {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> u64 {
        let denom = u64::from(self.ways) * u64::from(self.line_bytes);
        assert!(
            denom > 0 && self.capacity_bytes.is_multiple_of(denom),
            "cache geometry must divide evenly"
        );
        self.capacity_bytes / denom
    }
}

/// Parameters of the data TLB used by the simulator; the HLO prefetcher's
/// symbolic-stride and indirect-reference clamps exist to limit pressure on
/// this structure (heuristics 2a/2b of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbParams {
    /// Number of entries.
    pub entries: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Cycles added to a memory access on a TLB miss.
    pub miss_penalty: u32,
}

/// The full data-memory hierarchy: three cache levels plus main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// First-level data cache (bypassed by FP loads).
    pub l1: CacheParams,
    /// Second-level cache.
    pub l2: CacheParams,
    /// Third-level cache.
    pub l3: CacheParams,
    /// Main-memory service latency in cycles.
    pub memory_latency: u32,
    /// Minimum cycles between successive line fills from main memory
    /// (the bus/DRAM bandwidth limit). Clustered misses overlap their
    /// *latencies*, but fills still serialize at this rate — without it,
    /// memory-level parallelism would be unboundedly profitable.
    pub memory_fill_interval: u32,
    /// Capacity of the OzQ, the out-of-order queue of outstanding memory
    /// requests between L1 and L2; the paper quotes "at least 48
    /// outstanding requests" (Sec. 2).
    pub ozq_capacity: u32,
    /// Data TLB.
    pub tlb: TlbParams,
}

impl CacheGeometry {
    /// Typical service latency of a level (memory included).
    pub(crate) fn typical_latency(&self, level: CacheLevel) -> u32 {
        match level {
            CacheLevel::L1 => self.l1.typical_latency,
            CacheLevel::L2 => self.l2.typical_latency,
            CacheLevel::L3 => self.l3.typical_latency,
            CacheLevel::Memory => self.memory_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_computed_from_geometry() {
        let p = CacheParams {
            capacity_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
            best_latency: 1,
            typical_latency: 1,
        };
        assert_eq!(p.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        let p = CacheParams {
            capacity_bytes: 1000,
            ways: 3,
            line_bytes: 64,
            best_latency: 1,
            typical_latency: 1,
        };
        let _ = p.sets();
    }
}
