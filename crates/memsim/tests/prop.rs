//! Property-based tests of the memory system and executor.

use proptest::prelude::*;

use std::collections::HashMap;

use ltsp_core::{compile_loop_with_profile, CompileConfig, LatencyPolicy};
use ltsp_ir::{CacheLevel, DataClass};
use ltsp_machine::{CacheGeometry, CacheParams, MachineModel, TlbParams};
use ltsp_memsim::{
    AccessOutcome, Executor, ExecutorConfig, MemorySystem, Ozq, PrefetchOutcome, StreamMode,
};
use ltsp_workloads::random_loop;

/// Reference OzQ: sweeps the whole queue on every call.
struct NaiveOzq {
    capacity: usize,
    outstanding: Vec<u64>,
}

impl NaiveOzq {
    fn drain(&mut self, now: u64) {
        self.outstanding.retain(|&t| t > now);
    }

    fn is_full_at(&mut self, now: u64) -> bool {
        self.drain(now);
        self.outstanding.len() >= self.capacity
    }

    fn wait_for_slot(&mut self, now: u64) -> u64 {
        self.drain(now);
        if self.outstanding.len() < self.capacity {
            return now;
        }
        let earliest = *self.outstanding.iter().min().expect("full, so non-empty");
        self.drain(earliest);
        earliest
    }

    fn allocate(&mut self, now: u64, latency: u32) -> u64 {
        let issue = self.wait_for_slot(now);
        self.outstanding.push(issue + u64::from(latency));
        issue
    }
}

/// Reference LRU: one growable MRU-ordered `Vec` per set (a TLB is the
/// one-set case), shuffled with `remove`/`insert(0)`; tags stored as they
/// are, so line 0 needs no special encoding here.
struct NaiveLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    shift: u32,
}

impl NaiveLru {
    fn new(sets: u64, ways: u32, unit_bytes: u64) -> Self {
        NaiveLru {
            sets: vec![Vec::new(); sets as usize],
            ways: ways as usize,
            shift: unit_bytes.trailing_zeros(),
        }
    }

    fn cache(p: &CacheParams) -> Self {
        Self::new(p.sets(), p.ways, u64::from(p.line_bytes))
    }

    fn set_of(&mut self, addr: u64) -> (&mut Vec<u64>, u64) {
        let tag = addr >> self.shift;
        let n_sets = self.sets.len() as u64;
        (&mut self.sets[(tag % n_sets) as usize], tag)
    }

    fn probe(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_of(addr);
        let Some(pos) = set.iter().position(|&t| t == tag) else {
            return false;
        };
        set.remove(pos);
        set.insert(0, tag);
        true
    }

    /// Makes the line MRU, evicting the LRU one if the set is full;
    /// reports whether it was already there.
    fn insert(&mut self, addr: u64) -> bool {
        let hit = self.probe(addr);
        if !hit {
            let ways = self.ways;
            let (set, tag) = self.set_of(addr);
            set.truncate(ways - 1);
            set.insert(0, tag);
        }
        hit
    }
}

/// Reference memory system: [`NaiveLru`] levels and a hash map of
/// in-flight fills swept on every access.
struct NaiveMem {
    geo: CacheGeometry,
    l1: NaiveLru,
    l2: NaiveLru,
    l3: NaiveLru,
    tlb: NaiveLru,
    inflight: HashMap<u64, u64>,
    next_memory_fill: u64,
}

impl NaiveMem {
    fn new(geo: CacheGeometry) -> Self {
        NaiveMem {
            l1: NaiveLru::cache(&geo.l1),
            l2: NaiveLru::cache(&geo.l2),
            l3: NaiveLru::cache(&geo.l3),
            tlb: NaiveLru::new(1, geo.tlb.entries, geo.tlb.page_bytes),
            inflight: HashMap::new(),
            next_memory_fill: 0,
            geo,
        }
    }

    /// Sweeps landed fills, translates, and looks for a fill to merge
    /// with: `(tlb_miss, tlb penalty, in-flight key, its completion)`.
    fn begin(&mut self, addr: u64, now: u64) -> (bool, u32, u64, Option<u64>) {
        self.inflight.retain(|_, &mut done| done > now);
        let tlb_miss = !self.tlb.insert(addr);
        let extra = if tlb_miss {
            self.geo.tlb.miss_penalty
        } else {
            0
        };
        let key = addr >> self.geo.l2.line_bytes.trailing_zeros();
        (tlb_miss, extra, key, self.inflight.get(&key).copied())
    }

    fn memory_fill_latency(&mut self, now: u64) -> u32 {
        let start = now.max(self.next_memory_fill);
        self.next_memory_fill = start + u64::from(self.geo.memory_fill_interval);
        ((start - now) + u64::from(self.geo.memory_latency)) as u32
    }

    fn demand_access(
        &mut self,
        addr: u64,
        data: DataClass,
        now: u64,
        store: bool,
    ) -> AccessOutcome {
        let (tlb_miss, extra, key, merge) = self.begin(addr, now);
        let outcome = |latency, level, merged| AccessOutcome {
            latency,
            level,
            tlb_miss,
            merged,
        };
        if let Some(done) = merge {
            return outcome(((done - now) as u32).max(1) + extra, CacheLevel::L2, true);
        }
        let use_l1 = data == DataClass::Int;
        if use_l1 && self.l1.probe(addr) {
            return outcome(self.geo.l1.best_latency + extra, CacheLevel::L1, false);
        }
        let (latency, level) = if self.l2.probe(addr) {
            (self.geo.l2.best_latency + extra, CacheLevel::L2)
        } else if self.l3.probe(addr) {
            self.l2.insert(addr);
            (self.geo.l3.best_latency + extra, CacheLevel::L3)
        } else {
            let latency = self.memory_fill_latency(now) + extra;
            self.l3.insert(addr);
            self.l2.insert(addr);
            if !store {
                self.inflight.insert(key, now + u64::from(latency));
            }
            (latency, CacheLevel::Memory)
        };
        if use_l1 {
            self.l1.insert(addr);
        }
        outcome(latency, level, false)
    }

    fn prefetch(&mut self, addr: u64, target: CacheLevel, now: u64) -> PrefetchOutcome {
        let (_, extra, key, merge) = self.begin(addr, now);
        if let Some(done) = merge {
            return PrefetchOutcome {
                latency: (done - now) as u32 + extra,
                redundant: false,
            };
        }
        let in_l1 = target == CacheLevel::L1 && self.l1.probe(addr);
        let l2_hit = self.l2.probe(addr);
        let latency = if l2_hit {
            self.geo.l2.best_latency
        } else if self.l3.probe(addr) {
            self.l2.insert(addr);
            self.geo.l3.best_latency
        } else {
            let lat = self.memory_fill_latency(now);
            self.l3.insert(addr);
            self.l2.insert(addr);
            self.inflight.insert(key, now + u64::from(lat + extra));
            lat
        };
        if target == CacheLevel::L1 {
            self.l1.insert(addr);
        }
        PrefetchOutcome {
            latency: latency + extra,
            redundant: if target == CacheLevel::L1 {
                in_l1
            } else {
                l2_hit
            },
        }
    }
}

/// A hierarchy of a few sets per level, so a handful of lines conflict,
/// evict and thrash the TLB within one short sequence.
fn tiny_geometry() -> CacheGeometry {
    let level = |sets: u64, ways: u32, line_bytes: u32, best_latency| CacheParams {
        capacity_bytes: sets * u64::from(ways) * u64::from(line_bytes),
        ways,
        line_bytes,
        best_latency,
        typical_latency: best_latency,
    };
    CacheGeometry {
        l1: level(2, 2, 64, 1),
        l2: level(2, 2, 128, 5),
        l3: level(4, 3, 128, 14),
        memory_latency: 40,
        memory_fill_interval: 7,
        ozq_capacity: 4,
        tlb: TlbParams {
            entries: 3,
            page_bytes: 1024,
            miss_penalty: 25,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any access, re-accessing the same address much later hits at
    /// L1 (int) or L2 (FP) — lines land where they should.
    #[test]
    fn refill_then_hit(addr in 0u64..0x1_0000_0000, fp in any::<bool>()) {
        let m = MachineModel::itanium2();
        let mut sys = MemorySystem::new(*m.caches());
        let dc = if fp { DataClass::Fp } else { DataClass::Int };
        let first = sys.demand_access(addr, dc, 0, false);
        let later = sys.demand_access(addr, dc, 1_000_000, false);
        prop_assert!(later.latency <= first.latency);
        match dc {
            DataClass::Int => prop_assert_eq!(later.level, CacheLevel::L1),
            DataClass::Fp => prop_assert_eq!(later.level, CacheLevel::L2),
        }
    }

    /// A merged access never reports more than the full memory latency
    /// plus the TLB penalty, and in-flight merging is monotone: later
    /// accesses pay less.
    #[test]
    fn inflight_merge_monotone(addr in 0u64..0x1000_0000, gaps in proptest::collection::vec(1u64..40, 1..6)) {
        let m = MachineModel::itanium2();
        let mut sys = MemorySystem::new(*m.caches());
        let first = sys.demand_access(addr, DataClass::Int, 0, false);
        let mut t = 0u64;
        let mut prev = u32::MAX;
        for g in gaps {
            t += g;
            if t >= u64::from(first.latency) { break; }
            let a = sys.demand_access(addr, DataClass::Int, t, false);
            prop_assert!(a.merged);
            prop_assert!(a.latency <= prev);
            prop_assert!(u64::from(a.latency) + t <= u64::from(first.latency) + 25);
            prev = a.latency;
        }
    }

    /// The OzQ never admits more than its capacity, and `wait_for_slot`
    /// returns a time at which a slot is genuinely free.
    #[test]
    fn ozq_capacity_respected(
        cap in 1u32..16,
        reqs in proptest::collection::vec((0u64..100, 1u32..200), 1..64),
    ) {
        let mut q = Ozq::new(cap);
        let mut now = 0u64;
        for (delay, lat) in reqs {
            now += delay;
            let issue = q.wait_for_slot(now);
            prop_assert!(issue >= now);
            prop_assert!(q.occupancy() < cap as usize);
            q.push_completion(issue + u64::from(lat));
            now = issue;
        }
    }

    /// The gated OzQ answers exactly as one that sweeps on every call, for
    /// any caller: `now` jumps backwards as well as forwards.
    #[test]
    fn ozq_matches_the_naive_queue(
        cap in 1u32..6,
        ops in proptest::collection::vec((0u8..4, 0u64..200, 1u32..120), 1..200),
    ) {
        let mut real = Ozq::new(cap);
        let mut naive = NaiveOzq { capacity: cap as usize, outstanding: Vec::new() };
        for (op, now, lat) in ops {
            match op {
                0 => {
                    real.drain(now);
                    naive.drain(now);
                }
                1 => prop_assert_eq!(real.is_full_at(now), naive.is_full_at(now)),
                2 => prop_assert_eq!(real.allocate(now, lat), naive.allocate(now, lat)),
                _ => {
                    let issue = real.wait_for_slot(now);
                    prop_assert_eq!(issue, naive.wait_for_slot(now));
                    real.push_completion(issue + u64::from(lat));
                    naive.outstanding.push(issue + u64::from(lat));
                }
            }
            prop_assert_eq!(real.occupancy(), naive.outstanding.len());
        }
    }

    /// The flat MRU tag arrays and the gated in-flight table answer every
    /// access exactly as growable per-set vectors and a hash map swept on
    /// every call — over conflicting lines (line 0 and page 0 included),
    /// both data classes, stores, prefetches to either level, and a `now`
    /// that is not monotonic.
    #[test]
    fn memory_system_matches_the_naive_model(
        ops in proptest::collection::vec((0u8..6, 0u64..24, 0u64..128, 0u64..300), 1..300),
    ) {
        let geo = tiny_geometry();
        let mut real = MemorySystem::new(geo);
        let mut naive = NaiveMem::new(geo);
        for (op, line, offset, now) in ops {
            let addr = line * 128 + offset;
            match op {
                0 | 1 => {
                    let dc = if op == 0 { DataClass::Int } else { DataClass::Fp };
                    prop_assert_eq!(
                        real.demand_access(addr, dc, now, false),
                        naive.demand_access(addr, dc, now, false)
                    );
                }
                2 => prop_assert_eq!(
                    real.demand_access(addr, DataClass::Int, now, true),
                    naive.demand_access(addr, DataClass::Int, now, true)
                ),
                _ => {
                    let target = if op == 3 { CacheLevel::L1 } else { CacheLevel::L2 };
                    prop_assert_eq!(
                        real.prefetch(addr, target, now),
                        naive.prefetch(addr, target, now)
                    );
                }
            }
        }
    }

    /// The indexed TLB answers as an MRU-ordered vector: 16 entries over
    /// 64 pages scattered across the address space, so index probes
    /// collide and evictions delete from the middle of probe runs.
    #[test]
    fn tlb_matches_the_naive_lru(
        ops in proptest::collection::vec((0u8..3, 0u64..64, 0u64..1024), 1..400),
    ) {
        let tiny = tiny_geometry();
        let geo = CacheGeometry { tlb: TlbParams { entries: 16, ..tiny.tlb }, ..tiny };
        let mut real = MemorySystem::new(geo);
        let mut naive = NaiveMem::new(geo);
        for (t, (op, page, offset)) in ops.into_iter().enumerate() {
            let addr = (page.wrapping_mul(0x9E6C_63D0_676A_9A99) >> 40 << 10) + offset;
            let now = t as u64 * 50;
            if op == 2 {
                prop_assert_eq!(
                    real.prefetch(addr, CacheLevel::L2, now),
                    naive.prefetch(addr, CacheLevel::L2, now)
                );
            } else {
                prop_assert_eq!(
                    real.demand_access(addr, DataClass::Int, now, op == 1),
                    naive.demand_access(addr, DataClass::Int, now, op == 1)
                );
            }
        }
    }

    /// Counter arithmetic: `a + b` is component-wise, and scaling by 1.0
    /// is the identity.
    #[test]
    fn counter_algebra(seed in 0u64..3_000, trip_a in 1u64..120, trip_b in 1u64..120) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let c = compile_loop_with_profile(
            &lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), 100.0);
        let run = |trip: u64| {
            let mut ex = Executor::new(&c.lp, &c.kernel, &m, c.regs_total,
                ExecutorConfig::default());
            ex.run_entry(trip);
            *ex.counters()
        };
        let a = run(trip_a);
        let b = run(trip_b);
        let sum = a + b;
        prop_assert_eq!(sum.total, a.total + b.total);
        prop_assert_eq!(sum.loads, a.loads + b.loads);
        prop_assert!(sum.is_consistent());
        prop_assert_eq!(a.scaled(1.0), a);
    }

    /// Cycle accounting stays consistent across multiple entries with
    /// varying trip counts, and kernel iterations add up exactly.
    #[test]
    fn multi_entry_accounting(seed in 0u64..3_000, trips in proptest::collection::vec(1u64..60, 1..8)) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let c = compile_loop_with_profile(
            &lp, &m, &CompileConfig::new(LatencyPolicy::HloHints), 50.0);
        let mut ex = Executor::new(&c.lp, &c.kernel, &m, c.regs_total,
            ExecutorConfig { stream_mode: StreamMode::Restart, ..ExecutorConfig::default() });
        let mut expect_src = 0u64;
        let mut expect_kernel = 0u64;
        for &t in &trips {
            ex.run_entry(t);
            expect_src += t;
            expect_kernel += t + u64::from(c.kernel.stage_count()) - 1;
        }
        let counters = ex.counters();
        prop_assert!(counters.is_consistent());
        prop_assert_eq!(counters.source_iters, expect_src);
        prop_assert_eq!(counters.kernel_iters, expect_kernel);
        prop_assert_eq!(counters.entries, trips.len() as u64);
    }

    /// Restart-mode streams replay addresses, so a second entry is never
    /// slower than the first (caches only get warmer).
    #[test]
    fn restart_entries_warm_up(seed in 0u64..3_000, trip in 8u64..100) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let c = compile_loop_with_profile(
            &lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), trip as f64);
        let mut ex = Executor::new(&c.lp, &c.kernel, &m, c.regs_total,
            ExecutorConfig { stream_mode: StreamMode::Restart, ..ExecutorConfig::default() });
        ex.run_entry(trip);
        let first = ex.counters().total;
        ex.run_entry(trip);
        let second = ex.counters().total - first;
        prop_assert!(second <= first + 5, "second entry slower: {} vs {}", second, first);
    }
}
