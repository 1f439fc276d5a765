//! The in-order, stall-on-use executor for kernel schedules.

use std::collections::HashMap;

use ltsp_ir::{DataClass, LoopIr, MemRefId, Opcode, VReg};
use ltsp_machine::MachineModel;
use ltsp_pipeliner::ModuloSchedule;

use crate::cache::MemorySystem;
use crate::counters::CycleCounters;
use crate::ozq::Ozq;
use crate::streams::{AddressStreams, StreamMode};

/// Fixed-cost knobs of the execution model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Seed for the deterministic address streams.
    pub seed: u64,
    /// Whether streams replay or progress across loop entries.
    pub stream_mode: StreamMode,
    /// Front-end bubble charged once per loop entry.
    pub fe_entry_bubble: u32,
    /// Flush bubble charged at loop exit (branch mispredict).
    pub flush_exit_bubble: u32,
    /// RSE traffic: one bubble cycle per `rse_regs_per_cycle` registers the
    /// loop allocates, charged per entry (register stack spill/fill).
    pub rse_regs_per_cycle: u32,
    /// Probability that a compare (`cmp`/`fcmp`/`tbit`) produces a true
    /// predicate in a given iteration; drives predicated (if-converted)
    /// instructions. Deterministic per (instruction, iteration).
    pub cmp_taken_prob: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            seed: 0x1517_CAFE,
            stream_mode: StreamMode::Progressive,
            fe_entry_bubble: 2,
            flush_exit_bubble: 6,
            rse_regs_per_cycle: 4,
            cmp_taken_prob: 0.5,
        }
    }
}

/// Where one loop-defined register's scoreboard ring lives: slot
/// `first + (source_iteration & mask)` of [`Executor::slots`].
#[derive(Debug, Clone, Copy)]
struct Ring {
    first: u32,
    mask: u32,
}

/// One scoreboard slot: what a register holds for one source iteration.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `(global source iteration + 1) << 1 | predicate value`; iterations
    /// are numbered across entries, so a slot last written for another
    /// iteration or entry never matches (and zeroed slots match nothing).
    stamp: u64,
    /// Cycle at which the value is available.
    ready: u64,
}

/// Precomputed per-instruction execution recipe.
#[derive(Debug, Clone, Copy)]
struct ExecInst {
    id: u32,
    stage: u32,
    op: Opcode,
    dst: Option<Ring>,
    /// Range of [`Executor::srcs`]: the loop-defined registers read.
    srcs: (u32, u32),
    mem: Option<MemRefId>,
    /// Non-load result latency.
    latency: u32,
    /// Prefetch distance in source iterations.
    distance: u32,
    /// Qualifying predicate: (register, omega, negated).
    qp: Option<(Ring, u32, bool)>,
}

/// One kernel version: its rows in [`Executor::rows`], stage count and
/// allocated register count.
#[derive(Debug, Clone, Copy)]
struct Kernel {
    rows: (u32, u32),
    stages: u32,
    regs: u32,
}

/// Where one memory reference's demand loads were actually served from —
/// the per-load observation record the adaptive-hint loop feeds back into
/// the compiler. The access/latency/level counts are demand accesses;
/// software prefetches are tallied separately (`prefetches`, and how many
/// were redundant). `merged` accesses piggy-backed on an in-flight miss
/// and are excluded from the per-level counts, exactly as in
/// [`CycleCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefObservation {
    /// Demand accesses issued through this reference.
    pub accesses: u64,
    /// Sum of observed latencies (cycles) across those accesses.
    pub latency_sum: u64,
    /// Accesses served by the L1D.
    pub l1: u64,
    /// Accesses served by the L2.
    pub l2: u64,
    /// Accesses served by the L3.
    pub l3: u64,
    /// Accesses served by memory.
    pub mem: u64,
    /// Accesses merged into an already-in-flight miss.
    pub merged: u64,
    /// Software prefetches issued for this reference.
    pub prefetches: u64,
    /// Prefetches that found the line already cache-resident (in the L2
    /// or closer, or covered by an in-flight fill about to land) — the
    /// prefetch was pure issue-slot cost.
    pub redundant_prefetches: u64,
}

impl RefObservation {
    /// Mean observed latency in cycles, or `None` with no accesses.
    pub fn avg_latency(&self) -> Option<f64> {
        (self.accesses > 0).then(|| self.latency_sum as f64 / self.accesses as f64)
    }
}

/// Executes a pipelined (or acyclic-fallback) loop schedule against the
/// simulated memory system, accumulating [`CycleCounters`].
///
/// Cache, TLB and OzQ state persist across [`Executor::run_entry`] calls,
/// modelling repeated executions of the same loop within a benchmark.
///
/// # Example
///
/// ```
/// use ltsp_ir::{DataClass, LoopBuilder};
/// use ltsp_machine::MachineModel;
/// use ltsp_memsim::{Executor, ExecutorConfig};
/// use ltsp_pipeliner::{pipeline_loop, PipelineOptions};
///
/// let mut b = LoopBuilder::new("ex");
/// let a = b.affine_ref("a[i]", DataClass::Int, 0x1000, 4, 4);
/// let v = b.load(a);
/// let _ = b.add_reduce(v);
/// let lp = b.build()?;
/// let m = MachineModel::itanium2();
/// let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default()).unwrap();
///
/// let mut ex = Executor::new(&lp, &p.schedule, &m, 8, ExecutorConfig::default());
/// ex.run_entry(100);
/// let c = ex.counters();
/// assert_eq!(c.source_iters, 100);
/// assert!(c.is_consistent());
/// # Ok::<(), ltsp_ir::IrError>(())
/// ```
#[derive(Debug)]
pub struct Executor<'a> {
    machine: &'a MachineModel,
    /// One per kernel version (trip-count versioning keeps a base and a
    /// boosted kernel for the same loop body, each with its own register
    /// frame).
    versions: Vec<Kernel>,
    /// Issue groups of all versions: ranges of `insts`.
    rows: Vec<(u32, u32)>,
    insts: Vec<ExecInst>,
    /// `(register, omega)` reads of all instructions, loop-invariant
    /// live-ins left out.
    srcs: Vec<(Ring, u32)>,
    /// The scoreboard: one ring of slots per loop-defined register, as
    /// deep as the farthest a reader trails the writer (stage distance
    /// plus omega) in any version.
    slots: Vec<Slot>,
    /// Source iterations completed before the current entry (the base of
    /// this entry's slot stamps).
    entry_base: u64,
    mem: MemorySystem,
    ozq: Ozq,
    streams: AddressStreams,
    counters: CycleCounters,
    now: u64,
    cfg: ExecutorConfig,
    /// Per-memref demand latencies and service levels (the adaptive-hint
    /// feedback signal).
    ref_obs: Vec<RefObservation>,
    /// Observational telemetry sink; disabled by default. The simulation
    /// never reads it, so cycle counts are bit-identical either way.
    telemetry: ltsp_telemetry::Telemetry,
}

impl<'a> Executor<'a> {
    /// Builds an executor for one compiled loop.
    ///
    /// `regs_allocated` is the total register count the register allocator
    /// assigned (rotating + static across classes); it drives the
    /// register-stack-engine cost model.
    pub fn new(
        lp: &'a LoopIr,
        sched: &ModuloSchedule,
        machine: &'a MachineModel,
        regs_allocated: u32,
        cfg: ExecutorConfig,
    ) -> Self {
        Self::new_versioned(
            lp,
            std::slice::from_ref(sched),
            machine,
            std::slice::from_ref(&regs_allocated),
            cfg,
        )
    }

    /// Builds an executor holding several alternative kernels for the same
    /// loop body (trip-count versioning, the paper's Sec. 6 outlook): all
    /// versions share the memory system, scoreboard and address streams;
    /// [`Executor::run_entry_version`] picks the kernel per entry.
    ///
    /// `regs_per_version` gives each version's allocated register count
    /// (versions carry their own register frames, so RSE traffic is
    /// charged per the version actually run).
    ///
    /// # Panics
    ///
    /// Panics if `scheds` is empty or the lengths differ.
    pub fn new_versioned(
        lp: &'a LoopIr,
        scheds: &[ModuloSchedule],
        machine: &'a MachineModel,
        regs_per_version: &[u32],
        cfg: ExecutorConfig,
    ) -> Self {
        assert!(!scheds.is_empty(), "at least one kernel version required");
        assert_eq!(
            scheds.len(),
            regs_per_version.len(),
            "one register count per kernel version"
        );
        // Scoreboard registers, numbered densely: everything the loop
        // defines, plus live-in qualifying predicates (never written, so
        // they read as the pre-loop `true`).
        let mut reg_idx: HashMap<VReg, usize> = HashMap::new();
        let mut def_of = Vec::new();
        for inst in lp.insts() {
            if let Some(d) = inst.dst() {
                reg_idx.insert(d, def_of.len());
                def_of.push(Some(inst.id()));
            }
        }
        for (q, _) in lp.insts().iter().filter_map(|i| i.qp()) {
            reg_idx.entry(q.reg).or_insert_with(|| {
                def_of.push(None);
                def_of.len() - 1
            });
        }
        // Ring depth: a value written at stage `d` for iteration `j` is
        // read until kernel iteration `j + omega + s` by a stage-`s`
        // reader, by which time iterations up to `j + omega + s - d` have
        // been written.
        let mut depth = vec![1u32; def_of.len()];
        for sched in scheds {
            for inst in lp.insts() {
                for s in inst.reads() {
                    let Some(&r) = reg_idx.get(&s.reg) else {
                        continue;
                    };
                    let Some(def) = def_of[r] else { continue };
                    let trail = s.omega + sched.stage(inst.id());
                    depth[r] = depth[r].max(trail.saturating_sub(sched.stage(def)) + 1);
                }
            }
        }
        let mut n_slots = 0u32;
        let rings: Vec<Ring> = depth
            .iter()
            .map(|d| {
                let ring = Ring {
                    first: n_slots,
                    mask: d.next_power_of_two() - 1,
                };
                n_slots += ring.mask + 1;
                ring
            })
            .collect();

        let (mut versions, mut rows) = (Vec::new(), Vec::new());
        let (mut insts, mut srcs) = (Vec::new(), Vec::new());
        for (sched, &regs) in scheds.iter().zip(regs_per_version) {
            let first_row = rows.len() as u32;
            for row in sched.rows().iter() {
                let first_inst = insts.len() as u32;
                for slot in row {
                    let inst = lp.inst(slot.inst);
                    let first_src = srcs.len() as u32;
                    srcs.extend(
                        inst.reads()
                            .filter_map(|s| Some((rings[*reg_idx.get(&s.reg)?], s.omega))),
                    );
                    insts.push(ExecInst {
                        id: slot.inst.0,
                        stage: slot.stage,
                        op: inst.op(),
                        dst: inst.dst().map(|d| rings[reg_idx[&d]]),
                        srcs: (first_src, srcs.len() as u32),
                        mem: inst.mem(),
                        latency: match inst.op() {
                            Opcode::Load(_) => 0,
                            op => machine.latencies().op_latency(op),
                        },
                        distance: inst
                            .mem()
                            .and_then(|m| lp.memref(m).prefetch())
                            .map_or(0, |p| p.distance),
                        qp: inst
                            .qp()
                            .map(|(q, neg)| (rings[reg_idx[&q.reg]], q.omega, neg)),
                    });
                }
                rows.push((first_inst, insts.len() as u32));
            }
            versions.push(Kernel {
                rows: (first_row, rows.len() as u32),
                stages: sched.stage_count(),
                regs,
            });
        }
        Executor {
            machine,
            versions,
            rows,
            insts,
            srcs,
            slots: vec![Slot::default(); n_slots as usize],
            entry_base: 0,
            mem: MemorySystem::new(*machine.caches()),
            ozq: Ozq::new(machine.caches().ozq_capacity),
            streams: AddressStreams::new(lp, cfg.stream_mode, cfg.seed),
            counters: CycleCounters::default(),
            now: 0,
            cfg,
            ref_obs: vec![RefObservation::default(); lp.memrefs().len()],
            telemetry: ltsp_telemetry::Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink: each entry records its cycle cost into
    /// the `"{sim}.entry_cycles"` histogram, and [`Executor::export_metrics`]
    /// pushes the final counters. Purely observational — attaching (or
    /// not) never changes simulation results.
    pub fn attach_telemetry(&mut self, tel: &ltsp_telemetry::Telemetry) {
        self.telemetry = tel.clone();
    }

    /// Exports the accumulated [`CycleCounters`] into the attached
    /// telemetry sink's metrics registry under `prefix` (e.g.
    /// `"sim.cycles.total"`, the five stall buckets, and the event
    /// counters — see `CycleCounters::export`).
    pub fn export_metrics(&self, prefix: &str) {
        self.counters.export(&self.telemetry, prefix);
    }

    /// Clears the per-memref observations (e.g. to discard cache-warmup
    /// entries before sampling steady-state behaviour).
    pub fn reset_observations(&mut self) {
        self.ref_obs.fill(RefObservation::default());
    }

    /// Per-memref service-level observations (which cache level each
    /// demand load was actually served from, plus latency sums) — the
    /// "dynamic cache-miss sampling" data of the paper's outlook (Sec. 6)
    /// and the feedback signal of the adaptive-hint loop. Indexed by memref
    /// id; cleared by [`Executor::reset_observations`].
    pub fn observations(&self) -> &[RefObservation] {
        &self.ref_obs
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &CycleCounters {
        &self.counters
    }

    /// What `reg` holds for iteration `i - omega` of the current entry;
    /// `None` before the first iteration (pre-loop state) or when nothing
    /// has written it.
    fn written(&self, reg: Ring, i: u64, omega: u32) -> Option<Slot> {
        let j = i.checked_sub(u64::from(omega))?;
        let slot = self.slots[(reg.first + (j as u32 & reg.mask)) as usize];
        (slot.stamp >> 1 == self.entry_base + j + 1).then_some(slot)
    }

    /// Records `reg`'s value for source iteration `i` of this entry.
    fn record(&mut self, reg: Ring, i: u64, ready: u64, pred: bool) {
        self.slots[(reg.first + (i as u32 & reg.mask)) as usize] = Slot {
            stamp: (self.entry_base + i + 1) << 1 | u64::from(pred),
            ready,
        };
    }

    /// The predicate value for a source iteration; defaults to `true`
    /// (pre-loop state, or not produced by a compare this iteration).
    fn pred_value(&self, reg: Ring, i: u64, omega: u32) -> bool {
        self.written(reg, i, omega)
            .is_none_or(|slot| slot.stamp & 1 == 1)
    }

    /// When a source is available; 0 if initialized before the loop.
    fn ready_time(&self, reg: Ring, i: u64, omega: u32) -> u64 {
        self.written(reg, i, omega).map_or(0, |slot| slot.ready)
    }

    /// Runs one execution (entry) of the loop with the given trip count.
    ///
    /// # Panics
    ///
    /// Panics if `trip == 0`.
    pub fn run_entry(&mut self, trip: u64) {
        self.run_entry_version(0, trip);
    }

    /// Runs one entry on kernel version `version` (see
    /// [`Executor::new_versioned`]).
    ///
    /// # Panics
    ///
    /// Panics if `trip == 0` or `version` is out of range.
    pub fn run_entry_version(&mut self, version: usize, trip: u64) {
        assert!(trip > 0, "trip count must be positive");
        let kernel = self.versions[version];
        let start = self.now;
        self.counters.entries += 1;
        self.streams.begin_entry();

        // Entry fixed costs: front-end delivery and RSE traffic for the
        // registers this loop allocates.
        let fe = u64::from(self.cfg.fe_entry_bubble);
        self.counters.fe_bubble += fe;
        self.now += fe;
        let rse = u64::from(kernel.regs / self.cfg.rse_regs_per_cycle.max(1));
        self.counters.be_rse_bubble += rse;
        self.now += rse;

        let kernel_iters = trip + u64::from(kernel.stages) - 1;
        self.counters.kernel_iters += kernel_iters;
        self.entry_base = self.counters.source_iters;
        self.counters.source_iters += trip;

        let mut last_sample = self.now;
        for k in 0..kernel_iters {
            for row in kernel.rows.0..kernel.rows.1 {
                self.run_cycle(self.rows[row as usize], k, trip);
                // The kernel cycle itself.
                self.now += 1;
                self.counters.unstalled += 1;
                // OzQ-full accounting: if the queue is full now, the whole
                // window since the last sample ran at capacity (stalls
                // included).
                if self.ozq_may_be_full() && self.ozq.is_full_at(self.now) {
                    self.counters.ozq_full_cycles += self.now - last_sample;
                }
                last_sample = self.now;
            }
        }

        // Loop-exit mispredict flush.
        let flush = u64::from(self.cfg.flush_exit_bubble);
        self.counters.be_flush_bubble += flush;
        self.now += flush;

        self.counters.total += self.now - start;
        debug_assert!(self.counters.is_consistent(), "cycle buckets must sum");
        if self.telemetry.is_enabled() {
            self.telemetry
                .histogram_record("sim.entry_cycles", self.now - start);
        }
    }

    /// Issues one row at kernel iteration `k`. A slot at stage `s` works
    /// on source iteration `k - s`; its stage predicate is on while that
    /// lies in `0..trip` (one unsigned compare, `k < s` wraps past `trip`).
    fn run_cycle(&mut self, row: (u32, u32), k: u64, trip: u64) {
        // Stall-on-use: the issue group waits for every active source.
        let mut ready_max = self.now;
        for ei in &self.insts[row.0 as usize..row.1 as usize] {
            let i = k.wrapping_sub(u64::from(ei.stage));
            if i < trip {
                for &(reg, omega) in &self.srcs[ei.srcs.0 as usize..ei.srcs.1 as usize] {
                    ready_max = ready_max.max(self.ready_time(reg, i, omega));
                }
            }
        }
        if ready_max > self.now {
            self.counters.be_exe_bubble += ready_max - self.now;
            self.now = ready_max;
        }

        // Execute the group's effects.
        for idx in row.0..row.1 {
            let ei = self.insts[idx as usize];
            let i = k.wrapping_sub(u64::from(ei.stage));
            if i >= trip {
                continue;
            }
            // Qualifying predicate: a false predicate squashes the
            // instruction (no memory access, no new value) — the
            // if-converted "other path" executes instead.
            if let Some((qreg, omega, neg)) = ei.qp {
                if self.pred_value(qreg, i, omega) == neg {
                    if let Some(dst) = ei.dst {
                        // The architectural register keeps a value the
                        // complementary path produced; it is ready now.
                        self.record(dst, i, self.now, true);
                    }
                    continue;
                }
            }
            match ei.op {
                Opcode::Load(dc) => {
                    let m = ei.mem.expect("loads carry a memref");
                    let addr = self.streams.address(m, i);
                    self.issue_load(ei.dst, dc, addr, i, m);
                }
                Opcode::Store(dc) => {
                    let m = ei.mem.expect("stores carry a memref");
                    let addr = self.streams.address(m, i);
                    self.counters.stores += 1;
                    self.issue_store(dc, addr);
                }
                Opcode::Prefetch(target) => {
                    let m = ei.mem.expect("prefetches carry a memref");
                    let addr = self.streams.address_ahead(m, i, ei.distance);
                    self.counters.prefetches += 1;
                    self.issue_prefetch(addr, target, m);
                }
                op => {
                    let Some(dst) = ei.dst else { continue };
                    // Compares produce predicate values (deterministic
                    // Bernoulli per instruction and iteration). Distinct
                    // draw per (instruction, entry, iteration): low-trip
                    // loops re-enter many times, and each entry's nodes
                    // must flip independently.
                    let taken = match op {
                        Opcode::Cmp | Opcode::Fcmp | Opcode::Tbit => {
                            let mut h = ltsp_ir::SplitMix64::new(
                                self.cfg.seed
                                    ^ (u64::from(ei.id) << 48)
                                    ^ (self.counters.entries << 16)
                                    ^ i,
                            );
                            h.next_f64() < self.cfg.cmp_taken_prob
                        }
                        _ => true,
                    };
                    self.record(dst, i, self.now + u64::from(ei.latency), taken);
                }
            }
        }
    }

    /// Whether the OzQ can be full now. It holds at most
    /// [`Ozq::occupancy`] live entries, so below capacity it is not, and
    /// skipping its drain is exact: `now` never decreases, so the next
    /// drain retires the same entries.
    fn ozq_may_be_full(&self) -> bool {
        self.ozq.occupancy() >= self.machine.caches().ozq_capacity as usize
    }

    fn ozq_admit(&mut self) {
        // If the OzQ is full at issue time, the pipeline stalls until an
        // entry retires (BE_L1D_FPU_BUBBLE).
        if !self.ozq_may_be_full() {
            return;
        }
        let issue = self.ozq.wait_for_slot(self.now);
        if issue > self.now {
            self.counters.be_l1d_fpu_bubble += issue - self.now;
            self.now = issue;
        }
    }

    fn issue_load(
        &mut self,
        dst: Option<Ring>,
        dc: DataClass,
        addr: u64,
        src_iter: u64,
        memref: MemRefId,
    ) {
        self.ozq_admit();
        let outcome = self.mem.demand_access(addr, dc, self.now, false);
        self.counters.loads += 1;
        let obs = &mut self.ref_obs[memref.index()];
        obs.accesses += 1;
        obs.latency_sum += u64::from(outcome.latency);
        if outcome.tlb_miss {
            self.counters.tlb_misses += 1;
        }
        if outcome.merged {
            self.counters.inflight_merges += 1;
            obs.merged += 1;
        } else {
            match outcome.level {
                ltsp_ir::CacheLevel::L1 => {
                    self.counters.l1_hits += 1;
                    obs.l1 += 1;
                }
                ltsp_ir::CacheLevel::L2 => {
                    self.counters.l2_hits += 1;
                    obs.l2 += 1;
                }
                ltsp_ir::CacheLevel::L3 => {
                    self.counters.l3_hits += 1;
                    obs.l3 += 1;
                }
                ltsp_ir::CacheLevel::Memory => {
                    self.counters.mem_loads += 1;
                    obs.mem += 1;
                }
            }
        }
        let extra = match dc {
            DataClass::Int => 0,
            DataClass::Fp => self.machine.latencies().fp_load_extra,
        };
        let done = self.now + u64::from(outcome.latency + extra);
        self.ozq.push_completion(done);
        if let Some(d) = dst {
            self.record(d, src_iter, done, true);
        }
    }

    fn issue_store(&mut self, dc: DataClass, addr: u64) {
        self.ozq_admit();
        let outcome = self.mem.demand_access(addr, dc, self.now, true);
        if outcome.tlb_miss {
            self.counters.tlb_misses += 1;
        }
        // Stores drain asynchronously; they hold an OzQ entry for the L2
        // write latency (or the miss fill if deeper).
        let hold = outcome.latency.max(self.machine.caches().l2.best_latency);
        self.ozq.push_completion(self.now + u64::from(hold));
    }

    fn issue_prefetch(&mut self, addr: u64, target: ltsp_ir::CacheLevel, memref: MemRefId) {
        self.ozq_admit();
        let out = self.mem.prefetch(addr, target, self.now);
        let obs = &mut self.ref_obs[memref.index()];
        obs.prefetches += 1;
        if out.redundant {
            obs.redundant_prefetches += 1;
        }
        self.ozq.push_completion(self.now + u64::from(out.latency));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_pipeliner::{pipeline_loop, PipelineOptions};

    fn compile(
        lp: &LoopIr,
        m: &MachineModel,
        hint: Option<ltsp_ir::LatencyHint>,
    ) -> ModuloSchedule {
        pipeline_loop(lp, m, &move |_| hint, &PipelineOptions::default())
            .unwrap()
            .schedule
    }

    fn streaming_loop(stride: i64) -> LoopIr {
        let mut b = LoopBuilder::new("stream");
        let s = b.affine_ref("s", DataClass::Int, 0x10_0000, stride, 4);
        let d = b.affine_ref("d", DataClass::Int, 0x4000_0000, stride, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        b.build().unwrap()
    }

    #[test]
    fn counters_partition_total() {
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let sched = compile(&lp, &m, None);
        let mut ex = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        ex.run_entry(1000);
        let c = ex.counters();
        assert!(c.is_consistent(), "{c:?}");
        assert_eq!(c.source_iters, 1000);
        assert!(c.total > 1000, "at least one cycle per iteration");
    }

    #[test]
    fn telemetry_is_observational_and_exports_partition() {
        let m = MachineModel::itanium2();
        let lp = streaming_loop(64);
        let sched = compile(&lp, &m, Some(ltsp_ir::LatencyHint::L3));

        // Identical runs, telemetry off vs on: counters are bit-identical
        // because the sink only observes.
        let mut plain = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        plain.run_entry(2000);

        let tel = ltsp_telemetry::Telemetry::enabled();
        let mut traced = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        traced.attach_telemetry(&tel);
        traced.run_entry(2000);
        traced.export_metrics("sim");

        assert_eq!(*plain.counters(), *traced.counters());

        // The exported snapshot preserves the bucket-partition invariant.
        let metrics = tel.metrics();
        let total = metrics.counter("sim.cycles.total");
        let stalls = metrics.counter("sim.cycles.be_exe_bubble")
            + metrics.counter("sim.cycles.be_l1d_fpu_bubble")
            + metrics.counter("sim.cycles.be_rse_bubble")
            + metrics.counter("sim.cycles.be_flush_bubble")
            + metrics.counter("sim.cycles.fe_bubble");
        assert_eq!(total, metrics.counter("sim.cycles.unstalled") + stalls);
        assert_eq!(total, traced.counters().total);
        // Each entry recorded its cycle cost.
        let h = metrics.histogram("sim.entry_cycles").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, total);
    }

    #[test]
    fn warm_restart_loop_runs_near_ii() {
        // Restart mode with a small footprint: after the first entry all
        // lines are L1-resident and the loop runs near 1 cycle/iter.
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let sched = compile(&lp, &m, None);
        let cfg = ExecutorConfig {
            stream_mode: StreamMode::Restart,
            ..ExecutorConfig::default()
        };
        let mut ex = Executor::new(&lp, &sched, &m, 10, cfg);
        ex.run_entry(512); // warms 2KB of source data
        let before = *ex.counters();
        ex.run_entry(512);
        let after = *ex.counters();
        let delta_total = after.total - before.total;
        let delta_stall = after.be_exe_bubble - before.be_exe_bubble;
        assert!(
            delta_total < 512 * 3,
            "warm loop too slow: {delta_total} cycles for 512 iters"
        );
        assert!(delta_stall < delta_total / 4, "few data stalls when warm");
    }

    #[test]
    fn missing_loads_cause_exe_bubbles() {
        // Large stride: every access a fresh line from memory.
        let m = MachineModel::itanium2();
        let lp = streaming_loop(256);
        let sched = compile(&lp, &m, None);
        let mut ex = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        ex.run_entry(200);
        let c = ex.counters();
        assert!(
            c.be_exe_bubble > c.total / 2,
            "memory-bound loop should be stall-dominated: {c:?}"
        );
        assert!(c.mem_loads > 150);
    }

    #[test]
    fn boosted_schedule_reduces_stalls_on_missing_loads() {
        // The paper's core claim, end to end: same loop, same misses,
        // higher scheduled latency -> fewer stall cycles.
        let m = MachineModel::itanium2();
        let lp = streaming_loop(256);
        let base = compile(&lp, &m, None);
        let boosted = compile(&lp, &m, Some(ltsp_ir::LatencyHint::L3));
        assert!(boosted.stage_count() > base.stage_count());

        let mut ex_base = Executor::new(&lp, &base, &m, 10, ExecutorConfig::default());
        ex_base.run_entry(2000);
        let mut ex_boost = Executor::new(&lp, &boosted, &m, 14, ExecutorConfig::default());
        ex_boost.run_entry(2000);

        let cb = ex_base.counters();
        let cx = ex_boost.counters();
        assert!(
            cx.total < cb.total,
            "boosted must be faster on missing loads: base={} boosted={}",
            cb.total,
            cx.total
        );
        assert!(cx.be_exe_bubble < cb.be_exe_bubble);
    }

    #[test]
    fn low_trip_count_pays_for_extra_stages() {
        // L1-warm data + trip count 4: the boosted pipeline's extra
        // prolog/epilog iterations are pure overhead (the h264ref case).
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let base = compile(&lp, &m, None);
        let boosted = compile(&lp, &m, Some(ltsp_ir::LatencyHint::L3));

        let cfg = ExecutorConfig {
            stream_mode: StreamMode::Restart,
            ..ExecutorConfig::default()
        };
        let mut ex_base = Executor::new(&lp, &base, &m, 10, cfg);
        let mut ex_boost = Executor::new(&lp, &boosted, &m, 14, cfg);
        for _ in 0..200 {
            ex_base.run_entry(4);
            ex_boost.run_entry(4);
        }
        assert!(
            ex_boost.counters().total > ex_base.counters().total,
            "boost must hurt low-trip warm loops: base={} boosted={}",
            ex_base.counters().total,
            ex_boost.counters().total
        );
    }

    #[test]
    #[should_panic(expected = "trip count must be positive")]
    fn zero_trip_panics() {
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let sched = compile(&lp, &m, None);
        let mut ex = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        ex.run_entry(0);
    }
}
