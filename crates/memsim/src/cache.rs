//! The simulated data-memory hierarchy: L1D/L2/L3, TLB, in-flight fills.

use ltsp_ir::{CacheLevel, DataClass};
use ltsp_machine::CacheGeometry;

use crate::ozq::retire;

/// One set-associative, LRU cache level: a single flat tag array, each
/// set's ways contiguous and in MRU order. Tags are stored plus one so
/// that zeroed storage reads as "invalid".
#[derive(Debug, Clone)]
struct SetAssocCache {
    tags: Vec<u64>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
}

impl SetAssocCache {
    fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        let line_shift = line_bytes.trailing_zeros();
        assert_eq!(
            1 << line_shift,
            line_bytes,
            "line size must be a power of two"
        );
        let sets = capacity_bytes / (u64::from(ways) * u64::from(line_bytes));
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        SetAssocCache {
            // Zeroed, so sets a run never touches cost no resident memory.
            tags: vec![0; (sets * u64::from(ways)) as usize],
            ways: ways as usize,
            line_shift,
            set_mask: sets - 1,
        }
    }

    /// The ways of `addr`'s set, MRU first, and the line's stored tag.
    fn set_of(&mut self, addr: u64) -> (&mut [u64], u64) {
        let line = addr >> self.line_shift;
        let first = (line & self.set_mask) as usize * self.ways;
        (&mut self.tags[first..first + self.ways], line + 1)
    }

    /// Probes for the line; on hit, makes it MRU (a `rotate_right(1)` of
    /// the prefix up to it, nothing when it already is).
    fn probe(&mut self, addr: u64) -> bool {
        let (ways, tag) = self.set_of(addr);
        if ways[0] == tag {
            return true;
        }
        let Some(pos) = ways.iter().position(|&t| t == tag) else {
            return false;
        };
        ways[..=pos].rotate_right(1);
        ways[0] = tag;
        true
    }

    /// Installs, as MRU, a line that [`SetAssocCache::probe`] just missed:
    /// the LRU (or a still-invalid) way drops off the end of the set, with
    /// no second search.
    fn fill(&mut self, addr: u64) {
        let (ways, tag) = self.set_of(addr);
        debug_assert!(!ways.contains(&tag), "fill of a resident line");
        ways.rotate_right(1);
        ways[0] = tag;
    }
}

/// One TLB entry on the recency list.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    /// Page number plus one; 0 is an invalid entry (or the sentinel).
    key: u64,
    /// Neighbours toward the MRU and the LRU end.
    newer: u32,
    older: u32,
}

/// Fully-associative, exactly-LRU TLB over pages. Entry 0 is the sentinel
/// of a circular recency list (its `older` is the MRU entry, its `newer`
/// the LRU one), and an open-addressed index maps a page to its entry, so
/// a hit anywhere in the list and a replacement are both O(1). Invalid
/// entries start at the LRU end, so they are taken before a valid one.
#[derive(Debug, Clone)]
struct Tlb {
    entries: Vec<TlbEntry>,
    /// Linear-probing table of entry numbers (0 = empty), at most a
    /// quarter full; its length is `1 << (64 - index_shift)`.
    index: Vec<u32>,
    index_shift: u32,
    page_shift: u32,
}

impl Tlb {
    fn new(entries: u32, page_bytes: u64) -> Self {
        let page_shift = page_bytes.trailing_zeros();
        assert_eq!(
            1u64 << page_shift,
            page_bytes,
            "page size must be a power of two"
        );
        let buckets = (4 * entries as usize).next_power_of_two();
        let ring = entries + 1;
        Tlb {
            entries: (0..ring)
                .map(|e| TlbEntry {
                    key: 0,
                    newer: (e + entries) % ring,
                    older: (e + 1) % ring,
                })
                .collect(),
            index: vec![0; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
            page_shift,
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The index bucket holding `key`, or the empty one that ends its probe.
    fn bucket(&self, key: u64) -> usize {
        let mut b = self.home(key);
        while self.index[b] != 0 && self.entries[self.index[b] as usize].key != key {
            b = (b + 1) & (self.index.len() - 1);
        }
        b
    }

    /// Drops entry `e` from the index, shifting later members of its probe
    /// run back so that no lookup stops short at the hole.
    fn unindex(&mut self, e: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.bucket(self.entries[e as usize].key);
        let mut b = (hole + 1) & mask;
        while self.index[b] != 0 {
            // It may move only if the hole lies on its probe path.
            let home = self.home(self.entries[self.index[b] as usize].key);
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = self.index[b];
                hole = b;
            }
            b = (b + 1) & mask;
        }
        self.index[hole] = 0;
    }

    fn make_mru(&mut self, e: u32) {
        let TlbEntry { newer, older, .. } = self.entries[e as usize];
        self.entries[newer as usize].older = older;
        self.entries[older as usize].newer = newer;
        let mru = self.entries[0].older;
        self.entries[e as usize].newer = 0;
        self.entries[e as usize].older = mru;
        self.entries[mru as usize].newer = e;
        self.entries[0].older = e;
    }

    /// Returns `true` on a TLB *miss* (and installs the page).
    fn access_misses(&mut self, addr: u64) -> bool {
        let key = (addr >> self.page_shift) + 1;
        if self.entries[self.entries[0].older as usize].key == key {
            return false;
        }
        let mut b = self.bucket(key);
        if self.index[b] != 0 {
            self.make_mru(self.index[b]);
            return false;
        }
        let lru = self.entries[0].newer;
        if self.entries[lru as usize].key != 0 {
            self.unindex(lru);
            b = self.bucket(key);
        }
        self.entries[lru as usize].key = key;
        self.index[b] = lru;
        self.make_mru(lru);
        true
    }
}

/// What one software prefetch accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchOutcome {
    /// Cycles until the prefetch's fill completes (the OzQ entry's
    /// lifetime).
    pub latency: u32,
    /// The line was already resident at the prefetch's target level (or
    /// closer): the prefetch changed nothing about residency and was
    /// pure issue-slot cost. In-flight fills are *not* redundant — a
    /// streaming prefetch's later same-line issues ride the miss an
    /// earlier issue started.
    pub redundant: bool,
}

/// The result of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles until the data is available to the pipeline.
    pub latency: u32,
    /// Where the line was found (the fill source for misses).
    pub level: CacheLevel,
    /// Whether address translation missed the TLB.
    pub tlb_miss: bool,
    /// Whether the access merged with an in-flight fill.
    pub merged: bool,
}

/// The complete simulated memory system. Cache and TLB state persists
/// across loop executions of a benchmark, which is what makes low
/// trip-count loops with small footprints cheap (their lines stay warm) —
/// the regression scenario of the paper's Sec. 4.2.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    geo: CacheGeometry,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    tlb: Tlb,
    /// In-flight line fills, `(128-byte-line address, completion time)`;
    /// a line appears at most once. Unsorted and small: every fill the
    /// executor starts also holds an OzQ entry.
    inflight: Vec<(u64, u64)>,
    /// Earliest completion time in `inflight` (`u64::MAX` when empty);
    /// no fill lands before it, so draining is O(1) until then.
    inflight_earliest: u64,
    /// Earliest cycle at which main memory can start the next line fill
    /// (bandwidth serialization).
    next_memory_fill: u64,
}

impl MemorySystem {
    /// Builds the hierarchy from the machine's geometry.
    pub fn new(geo: CacheGeometry) -> Self {
        MemorySystem {
            l1: SetAssocCache::new(geo.l1.capacity_bytes, geo.l1.ways, geo.l1.line_bytes),
            l2: SetAssocCache::new(geo.l2.capacity_bytes, geo.l2.ways, geo.l2.line_bytes),
            l3: SetAssocCache::new(geo.l3.capacity_bytes, geo.l3.ways, geo.l3.line_bytes),
            tlb: Tlb::new(geo.tlb.entries, geo.tlb.page_bytes),
            inflight: Vec::new(),
            inflight_earliest: u64::MAX,
            next_memory_fill: 0,
            geo,
        }
    }

    /// Reserves the next memory-fill slot at or after `now`, returning the
    /// cycles until the fill completes (memory latency plus any bandwidth
    /// queueing delay).
    fn memory_fill_latency(&mut self, now: u64) -> u32 {
        let start = now.max(self.next_memory_fill);
        self.next_memory_fill = start + u64::from(self.geo.memory_fill_interval);
        ((start - now) + u64::from(self.geo.memory_latency)) as u32
    }

    fn inflight_key(&self, addr: u64) -> u64 {
        addr >> self.geo.l2.line_bytes.trailing_zeros()
    }

    fn drain_inflight(&mut self, now: u64) {
        if now >= self.inflight_earliest {
            self.inflight_earliest = retire(&mut self.inflight, now, |&(_, done)| done);
        }
    }

    fn inflight_done(&self, key: u64) -> Option<u64> {
        let fill = self.inflight.iter().find(|&&(line, _)| line == key);
        fill.map(|&(_, done)| done)
    }

    fn start_fill(&mut self, key: u64, done: u64) {
        self.inflight.push((key, done));
        self.inflight_earliest = self.inflight_earliest.min(done);
    }

    /// A demand load or store at absolute cycle `now`.
    ///
    /// Misses install the line in every level on the fill path (FP data
    /// bypasses L1D) and register an in-flight fill; later accesses to the
    /// same line before completion pay only the remaining latency —
    /// this is the memory-level-parallelism the paper's load clustering
    /// exploits.
    pub fn demand_access(
        &mut self,
        addr: u64,
        data: DataClass,
        now: u64,
        is_store: bool,
    ) -> AccessOutcome {
        self.drain_inflight(now);
        let tlb_miss = self.tlb.access_misses(addr);
        let extra = if tlb_miss {
            self.geo.tlb.miss_penalty
        } else {
            0
        };

        // Merge with an in-flight fill: pay only the remaining cycles.
        let key = self.inflight_key(addr);
        if let Some(done) = self.inflight_done(key) {
            // The line is already on its way; promote into the caches (it
            // was inserted at fill start) and report the remainder.
            let remaining = (done - now) as u32;
            return AccessOutcome {
                latency: remaining.max(1) + extra,
                level: CacheLevel::L2, // delivered via the L2 fill path
                tlb_miss,
                merged: true,
            };
        }

        let use_l1 = data == DataClass::Int;
        if use_l1 && self.l1.probe(addr) {
            return AccessOutcome {
                latency: self.geo.l1.best_latency + extra,
                level: CacheLevel::L1,
                tlb_miss,
                merged: false,
            };
        }
        if self.l2.probe(addr) {
            if use_l1 {
                self.l1.fill(addr);
            }
            return AccessOutcome {
                latency: self.geo.l2.best_latency + extra,
                level: CacheLevel::L2,
                tlb_miss,
                merged: false,
            };
        }
        if self.l3.probe(addr) {
            self.l2.fill(addr);
            if use_l1 {
                self.l1.fill(addr);
            }
            return AccessOutcome {
                latency: self.geo.l3.best_latency + extra,
                level: CacheLevel::L3,
                tlb_miss,
                merged: false,
            };
        }
        // Memory fill (bandwidth-limited).
        let latency = self.memory_fill_latency(now) + extra;
        self.l3.fill(addr);
        self.l2.fill(addr);
        if use_l1 {
            self.l1.fill(addr);
        }
        if !is_store {
            self.start_fill(key, now + u64::from(latency));
        }
        AccessOutcome {
            latency,
            level: CacheLevel::Memory,
            tlb_miss,
            merged: false,
        }
    }

    /// A software prefetch into `target` at cycle `now`. Returns the cycles
    /// until the fill completes (the OzQ entry's lifetime) and whether the
    /// prefetch was redundant. Never faults, does not touch L1 unless
    /// targeted there.
    pub fn prefetch(&mut self, addr: u64, target: CacheLevel, now: u64) -> PrefetchOutcome {
        self.drain_inflight(now);
        let tlb_miss = self.tlb.access_misses(addr);
        let extra = if tlb_miss {
            self.geo.tlb.miss_penalty
        } else {
            0
        };
        let key = self.inflight_key(addr);
        if let Some(done) = self.inflight_done(key) {
            // Riding a fill already on the way — the normal mode of a
            // streaming prefetch whose earlier issue started the miss,
            // so not counted redundant.
            return PrefetchOutcome {
                latency: (done - now) as u32 + extra,
                redundant: false,
            };
        }
        // Where is the line now?
        let in_l1 = target == CacheLevel::L1 && self.l1.probe(addr);
        let l2_hit = self.l2.probe(addr);
        let latency = if l2_hit {
            self.geo.l2.best_latency
        } else if self.l3.probe(addr) {
            self.l2.fill(addr);
            self.geo.l3.best_latency
        } else {
            let lat = self.memory_fill_latency(now);
            self.l3.fill(addr);
            self.l2.fill(addr);
            self.start_fill(key, now + u64::from(lat + extra));
            lat
        };
        if target == CacheLevel::L1 && !in_l1 {
            self.l1.fill(addr);
        }
        // Redundant means the line was already resident at the target
        // level (or closer): the prefetch changed nothing about where
        // the demand load will be served from. An L1-target prefetch
        // that finds the line only in L2 still has promotion value.
        let redundant = if target == CacheLevel::L1 {
            in_l1
        } else {
            l2_hit
        };
        PrefetchOutcome {
            latency: latency + extra,
            redundant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_machine::MachineModel;

    fn sys() -> MemorySystem {
        MemorySystem::new(*MachineModel::itanium2().caches())
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut s = sys();
        let first = s.demand_access(0x1_0000, DataClass::Int, 0, false);
        assert_eq!(first.level, CacheLevel::Memory);
        assert!(first.latency >= 165);
        // Long after the fill completes:
        let second = s.demand_access(0x1_0000, DataClass::Int, 1000, false);
        assert_eq!(second.level, CacheLevel::L1);
        assert_eq!(second.latency, 1);
    }

    #[test]
    fn fp_bypasses_l1() {
        let mut s = sys();
        s.demand_access(0x2_0000, DataClass::Fp, 0, false);
        let again = s.demand_access(0x2_0000, DataClass::Fp, 1000, false);
        assert_eq!(again.level, CacheLevel::L2, "FP hits L2, not L1");
        assert_eq!(again.latency, 5);
    }

    #[test]
    fn inflight_merge_pays_remaining_latency() {
        let mut s = sys();
        let first = s.demand_access(0x3_0000, DataClass::Int, 0, false);
        let full = u64::from(first.latency);
        // 40 cycles later, same line: remaining = full - 40.
        let second = s.demand_access(0x3_0008, DataClass::Int, 40, false);
        assert!(second.merged);
        assert_eq!(u64::from(second.latency), full - 40);
    }

    #[test]
    fn lru_eviction_in_l1() {
        let mut s = sys();
        // L1: 16KB, 4-way, 64B lines, 64 sets. Fill 5 lines in set 0.
        for k in 0..5u64 {
            // set index bits: addr >> 6 & 63 == 0 -> addr multiples of 64*64.
            s.demand_access(k * 64 * 64, DataClass::Int, k * 10_000, false);
        }
        // First line evicted from L1 but still in L2.
        let back = s.demand_access(0, DataClass::Int, 1_000_000, false);
        assert_eq!(back.level, CacheLevel::L2);
    }

    #[test]
    fn prefetch_fills_target_level() {
        let mut s = sys();
        let out = s.prefetch(0x9_0000, CacheLevel::L2, 0);
        assert!(out.latency >= 165, "cold prefetch goes to memory");
        assert!(!out.redundant, "a cold prefetch does real work");
        // After the fill, a demand access hits L2 (prefetch skipped L1).
        let hit = s.demand_access(0x9_0000, DataClass::Int, 1000, false);
        assert_eq!(hit.level, CacheLevel::L2);
        // Prefetching again is cheap — and redundant (line already at
        // its target level).
        let again = s.prefetch(0x9_0000, CacheLevel::L2, 2000);
        assert_eq!(again.latency, 5);
        assert!(again.redundant);
    }

    #[test]
    fn demand_after_prefetch_in_flight_merges() {
        let mut s = sys();
        let out = s.prefetch(0xA_0000, CacheLevel::L2, 0);
        let d = s.demand_access(0xA_0000, DataClass::Int, 50, false);
        assert!(d.merged);
        assert_eq!(u64::from(d.latency), u64::from(out.latency) - 50);
    }

    #[test]
    fn tlb_index_survives_evictions_inside_a_probe_run() {
        // 4 entries over 16 buckets: five pages that share one home bucket
        // and one page homed well away from it.
        let mut tlb = Tlb::new(4, 1024);
        let home = tlb.home(1);
        let run: Vec<u64> = (0..).filter(|&p| tlb.home(p + 1) == home).take(5).collect();
        let other = (0..)
            .find(|&p| tlb.home(p + 1).wrapping_sub(home) & 15 > 6)
            .unwrap();
        let miss = |tlb: &mut Tlb, p: u64| tlb.access_misses(p << 10);
        for &p in &run[..4] {
            assert!(miss(&mut tlb, p));
        }
        // Touch the head of the run so the LRU victim sits in its middle.
        assert!(!miss(&mut tlb, run[0]));
        assert!(miss(&mut tlb, other), "evicts run[1]");
        for p in [run[0], run[2], run[3], other] {
            assert!(!miss(&mut tlb, p), "page {p} stays findable");
        }
        assert!(miss(&mut tlb, run[1]), "evicts run[0]");
        assert!(miss(&mut tlb, run[4]), "evicts run[2]");
        for p in [run[1], run[3], run[4], other] {
            assert!(!miss(&mut tlb, p), "page {p} stays findable");
        }
    }

    #[test]
    fn tlb_miss_penalty_applies_once_per_page() {
        let mut s = sys();
        let a = s.demand_access(0x50_0000, DataClass::Int, 0, false);
        assert!(a.tlb_miss);
        let b = s.demand_access(0x50_0040, DataClass::Int, 1000, false);
        assert!(!b.tlb_miss, "same 16K page is cached in the TLB");
    }
}
