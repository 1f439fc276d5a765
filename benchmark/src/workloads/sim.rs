//! `sim_stream` and `sim_lowtrip`: the simulator under the experiment
//! runner, compiler and daemon idle.
//!
//! Both run every hot loop of `cpu2006()+cpu2000()` in their regime
//! through `run_benchmark` under the paper's four policies. The regimes
//! split the same loop population by reference trip count, because the
//! simulator spends its time differently on the two sides: long trips
//! live in the steady-state kernel loop, short trips in per-entry ramp-up,
//! drain, flush/RSE charges and cold streams.

use std::path::Path;
use std::time::{Duration, Instant};

use ltsp_core::{
    benchmark_gain, compile_loop, geomean_gain, run_benchmark, BenchRun, CompileConfig,
    CompiledLoop, LatencyPolicy, RunConfig,
};
use ltsp_ddg::Ddg;
use ltsp_ir::{CacheLevel, DataClass, MemRefId, Opcode, SplitMix64};
use ltsp_machine::MachineModel;
use ltsp_memsim::{AddressStreams, CycleCounters, Executor, ExecutorConfig, MemorySystem, Ozq};
use ltsp_oracle::validate_schedule;
use ltsp_workloads::{cpu2000, cpu2006, Benchmark, LoopSpec};

use super::{Pass, Reduced, Workload};
use crate::hostspeed::HostSpeed;
use crate::metrics::Metrics;
use crate::trace::Tracer;

/// Which side of the trip-count split a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `ref_trips.mean() ≥ 64`: steady-state kernel loop dominates.
    Stream,
    /// `ref_trips.mean() < 64`: per-entry costs dominate.
    LowTrip,
}

/// Reference mean trip count separating the two regimes.
const TRIP_SPLIT: f64 = 64.0;
/// `RunConfig::entry_scale` per regime: one pass takes about 1.3 s at
/// reference host speed (the host is often half as fast, and a run should
/// still hold five passes), and simulates enough entries that the cycle
/// total moves by well under 1 % from seed to seed.
const ENTRY_SCALE_STREAM: f64 = 4.0;
const ENTRY_SCALE_LOWTRIP: f64 = 12.0;
const ENTRY_SCALE_QUICK: f64 = 0.05;
/// Entry scale of set-up's warm-up run.
const ENTRY_SCALE_WARM: f64 = 0.25;
/// Addresses per loop replayed through the stream/cache/OzQ probes.
const PROBE_ADDRS_PER_LOOP: usize = 40_000;
/// `run_entry(1)` calls per (loop, policy) behind `entry_fixed_ns`.
const FIXED_ENTRIES: u64 = 200;

/// The paper's four experimental arms, in the order they are run.
pub const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];

struct State {
    machine: MachineModel,
    /// The suites' benchmarks restricted to this regime's loops.
    parents: Vec<Benchmark>,
    /// One single-loop benchmark per hot loop (same name as its parent,
    /// so the runner derives the same per-loop seed), with its parent.
    loops: Vec<(usize, Benchmark)>,
    rcs: Vec<RunConfig>,
    /// Pass 1's counters per (loop, policy): every later pass must
    /// reproduce them exactly.
    reference: Vec<Option<CycleCounters>>,
    /// Σ counters over the last pass.
    last_total: CycleCounters,
}

pub struct Sim {
    regime: Regime,
    scale: f64,
    state: Option<State>,
}

impl Sim {
    pub fn new(regime: Regime, quick: bool) -> Sim {
        let scale = match (quick, regime) {
            (true, _) => ENTRY_SCALE_QUICK,
            (false, Regime::Stream) => ENTRY_SCALE_STREAM,
            (false, Regime::LowTrip) => ENTRY_SCALE_LOWTRIP,
        };
        Sim {
            regime,
            scale,
            state: None,
        }
    }

    fn wants(&self, spec: &LoopSpec) -> bool {
        (spec.ref_trips.mean() >= TRIP_SPLIT) == (self.regime == Regime::Stream)
    }
}

/// The trip estimate the runner hands the compiler for a loop.
fn trip_estimate(spec: &LoopSpec, cfg: &CompileConfig) -> f64 {
    if cfg.pgo {
        spec.train_trips.mean()
    } else {
        spec.static_trip_estimate
    }
}

/// Compiles a loop the way the runner does, through the un-suffixed entry
/// point: the trip estimate travels in `hlo.default_trip_estimate`.
fn compile_like_runner(
    spec: &LoopSpec,
    machine: &MachineModel,
    cfg: &CompileConfig,
) -> CompiledLoop {
    let mut cfg = cfg.clone();
    cfg.hlo.default_trip_estimate = trip_estimate(spec, &cfg);
    compile_loop(&spec.loop_ir, machine, &cfg)
}

/// The dependence graph at the latencies a compiled kernel was scheduled
/// for — what the independent validator checks the kernel against.
pub fn scheduled_ddg(c: &CompiledLoop, machine: &MachineModel) -> Ddg {
    Ddg::build(&c.lp, machine, &|id| {
        c.scheduled_load_latency_of(machine, id).unwrap_or(0)
    })
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn planned_entries(spec: &LoopSpec, scale: f64) -> u64 {
    u64::from(((f64::from(spec.entries) * scale).ceil() as u32).max(1))
}

impl Workload for Sim {
    fn name(&self) -> &'static str {
        match self.regime {
            Regime::Stream => "sim_stream",
            Regime::LowTrip => "sim_lowtrip",
        }
    }

    fn setup(&mut self, seed: u64, _out_dir: &Path) -> (u64, u64) {
        let machine = MachineModel::itanium2();
        let mut parents = Vec::new();
        let mut loops = Vec::new();
        for b in cpu2006().into_iter().chain(cpu2000()) {
            let kept: Vec<LoopSpec> = b.loops.iter().filter(|s| self.wants(s)).cloned().collect();
            if kept.is_empty() {
                continue;
            }
            for spec in &kept {
                loops.push((
                    parents.len(),
                    Benchmark {
                        loops: vec![spec.clone()],
                        ..b.clone()
                    },
                ));
            }
            parents.push(Benchmark { loops: kept, ..b });
        }
        let rcs: Vec<RunConfig> = POLICIES
            .iter()
            .map(|&p| {
                let mut rc = RunConfig::new(CompileConfig::new(p))
                    .with_entry_scale(self.scale)
                    .with_jobs(1);
                rc.seed = seed;
                rc
            })
            .collect();

        // Certify what will be simulated: every pipelined kernel must pass
        // the independent validator at the latencies it was scheduled for.
        let mut setup_checks = (0, 0);
        for (_, b) in &loops {
            for rc in &rcs {
                let c = compile_like_runner(&b.loops[0], &machine, &rc.compile);
                if !c.pipelined {
                    continue;
                }
                setup_checks.0 += 1;
                let ddg = scheduled_ddg(&c, &machine);
                if validate_schedule(&c.lp, &ddg, &c.kernel, &machine).is_err() {
                    eprintln!("{}: {} fails validation", self.name(), b.loops[0].name);
                    setup_checks.1 += 1;
                }
            }
        }
        // Warm-up: a short run of everything, so the first timed pass is
        // not the one that faults the code and the allocator in.
        for (_, b) in &loops {
            for rc in &rcs {
                let warm = rc
                    .clone()
                    .with_entry_scale(ENTRY_SCALE_WARM.min(self.scale));
                std::hint::black_box(run_benchmark(b, &machine, &warm));
            }
        }
        self.state = Some(State {
            machine,
            parents,
            reference: vec![None; loops.len() * POLICIES.len()],
            loops,
            rcs,
            last_total: CycleCounters::default(),
        });
        setup_checks
    }

    fn pass(&mut self, _pass_idx: u64, tr: &mut Tracer, host: &mut HostSpeed) -> Pass {
        let scale = self.scale;
        let st = self.state.as_mut().expect("setup ran");
        let mut p = Pass::default();
        let mut total = CycleCounters::default();
        // Per parent benchmark and policy: Σ loop cycles, for the gain.
        let mut cycles = vec![[0u64; POLICIES.len()]; st.parents.len()];
        let t_pass = Instant::now();
        let mut probing = Duration::ZERO;
        for (li, (parent, bench)) in st.loops.iter().enumerate() {
            for (pi, rc) in st.rcs.iter().enumerate() {
                let traced = tr.begin_op((li * POLICIES.len() + pi) as u64);
                let t0 = Instant::now();
                let run = tr.time("op", |_| run_benchmark(bench, &st.machine, rc));
                let t1 = Instant::now();
                p.record_op(t1 - t0, traced);
                probing += host.maybe_probe(t1);

                let c = run.counters();
                let slot = &mut st.reference[li * POLICIES.len() + pi];
                let ok = c.is_consistent()
                    && c.entries == planned_entries(&bench.loops[0], scale)
                    && *slot.get_or_insert(c) == c;
                p.attempted += 1;
                p.failed += u64::from(!ok);
                total += c;
                cycles[*parent][pi] += run.loop_cycles;
            }
        }
        p.wall_s = (t_pass.elapsed() - probing).as_secs_f64();
        p.work = total.total as f64 / 1e6;

        let hlo = POLICIES.len() - 1;
        let gains: Vec<f64> = st
            .parents
            .iter()
            .zip(&cycles)
            .map(|(b, c)| {
                let run = |cy: u64| BenchRun {
                    name: b.name,
                    loops: Vec::new(),
                    loop_cycles: cy,
                };
                benchmark_gain(b, &run(c[0]), &run(c[hlo]))
            })
            .collect();
        p.exact = vec![
            ("quality_cost", total.total as f64),
            ("hlo_gain_pct", geomean_gain(&gains)),
            ("entries", total.entries as f64),
            ("source_iters", total.source_iters as f64),
        ];
        st.last_total = total;
        p
    }

    fn describe(&self, r: &Reduced, m: &mut Metrics) {
        m.set("sim_mcycles_per_s", r.work_per_s);
        for (name, v) in &r.exact {
            match *name {
                "quality_cost" => m.set("sim_cycles", *v),
                "hlo_gain_pct" => m.set("hlo_gain_pct", *v),
                _ => {}
            }
        }
    }

    fn probes(
        &mut self,
        _r: &Reduced,
        tr: &mut Tracer,
        host: &mut HostSpeed,
        m: &mut Metrics,
    ) -> (u64, u64) {
        let scale = self.scale;
        let st = self.state.as_ref().expect("setup ran");
        let c = st.last_total;
        for (name, v) in [
            ("memsim.cycles", c.total),
            ("memsim.unstalled", c.unstalled),
            ("memsim.be_exe_bubble", c.be_exe_bubble),
            ("memsim.be_l1d_fpu_bubble", c.be_l1d_fpu_bubble),
            ("memsim.be_rse_bubble", c.be_rse_bubble),
            ("memsim.be_flush_bubble", c.be_flush_bubble),
            ("memsim.fe_bubble", c.fe_bubble),
            ("memsim.loads", c.loads),
            ("memsim.l1_hits", c.l1_hits),
            ("memsim.l2_hits", c.l2_hits),
            ("memsim.l3_hits", c.l3_hits),
            ("memsim.mem_loads", c.mem_loads),
            ("memsim.inflight_merges", c.inflight_merges),
            ("memsim.tlb_misses", c.tlb_misses),
            ("memsim.prefetches", c.prefetches),
            ("memsim.stores", c.stores),
            ("memsim.ozq_full_cycles", c.ozq_full_cycles),
            ("memsim.kernel_iters", c.kernel_iters),
            ("memsim.source_iters", c.source_iters),
            ("memsim.entries", c.entries),
        ] {
            m.set(name, v as f64);
        }

        // Replay: the harness drives compile_loop + Executor itself, on
        // the same loops, seeds and trip sequences as the runner, so the
        // executor's phases can be timed from outside.
        // Runner and replay alternate per loop, so both see the same host
        // speed and their ratio is the runner's own overhead.
        let mut replay = ReplayTotals::default();
        for (li, (_, bench)) in st.loops.iter().enumerate() {
            let spec = &bench.loops[0];
            for (pi, rc) in st.rcs.iter().enumerate() {
                host.maybe_probe(Instant::now());
                tr.begin_op((li * POLICIES.len() + pi) as u64);
                tr.time("core.runner", |_| {
                    std::hint::black_box(run_benchmark(bench, &st.machine, rc));
                });
                tr.time("replay", |tr| {
                    replay_loop(bench.name, spec, &st.machine, rc, scale, tr, &mut replay);
                });
            }
        }
        let agg = tr.summary();
        let us = |name: &str| agg.get(name).map_or(0.0, |a| a.us_per_call());
        let total_ns = |name: &str| agg.get(name).map_or(0.0, |a| a.total_ns as f64);
        m.set("core.runner.us", us("core.runner"));
        m.set("core.compile.us", us("core.compile"));
        m.set("memsim.exec.new.us", us("memsim.exec.new"));
        m.set("memsim.exec.entry.us", us("memsim.exec.entry"));
        m.set(
            "memsim.exec.entry_fixed_ns",
            us("memsim.exec.entry_fixed") * 1e3,
        );
        let entry_ns = total_ns("memsim.exec.entry");
        m.set(
            "memsim.exec.ns_per_cycle",
            entry_ns / replay.cycles.max(1) as f64,
        );
        m.set(
            "memsim.exec.ns_per_iter",
            entry_ns / replay.source_iters.max(1) as f64,
        );
        let entry_span_us = agg
            .get("memsim.exec.entry")
            .map_or(0.0, |a| a.us_per_span());
        let driven = us("core.compile") + us("memsim.exec.new") + entry_span_us;
        m.set(
            "core.runner.overhead_pct",
            100.0 * (us("core.runner") - driven) / driven.max(1e-9),
        );

        // Unit costs of the executor's own sub-layers, on this workload's
        // address streams; what they leave of an entry is executor self
        // time (scoreboard, issue, bookkeeping).
        let unit = memory_unit_costs(st, tr);
        m.set("memsim.streams.ns_per_addr", unit.stream_ns);
        m.set("memsim.cache.ns_per_access", unit.access_ns);
        m.set("memsim.cache.prefetch_ns", unit.prefetch_ns);
        m.set("memsim.maccess_per_s", 1e3 / unit.access_ns.max(1e-9));
        m.set("memsim.ozq.ns_per_op", unit.ozq_ns);
        let mem_ops = (replay.loads + replay.stores + replay.prefetches) as f64;
        let children = mem_ops * (unit.stream_ns + unit.access_ns + unit.ozq_ns);
        m.set(
            "memsim.exec.self_pct",
            100.0 * (entry_ns - children).max(0.0) / entry_ns.max(1.0),
        );
        (0, 0)
    }
}

#[derive(Default)]
struct ReplayTotals {
    cycles: u64,
    source_iters: u64,
    loads: u64,
    stores: u64,
    prefetches: u64,
}

/// One (loop, policy) of the runner's work, driven from here.
fn replay_loop(
    bench_name: &str,
    spec: &LoopSpec,
    machine: &MachineModel,
    rc: &RunConfig,
    scale: f64,
    tr: &mut Tracer,
    totals: &mut ReplayTotals,
) {
    // The runner's per-loop seed derivation, restated so that the replay
    // simulates the same entries; the cycle totals it produces are only
    // used as the denominator of its own time.
    let loop_seed = rc.seed ^ fnv(bench_name) ^ fnv(&spec.name);
    let entries = planned_entries(spec, scale);
    let compiled = tr.time("core.compile", |_| {
        compile_like_runner(spec, machine, &rc.compile)
    });
    let mut ex = tr.time("memsim.exec.new", |_| {
        Executor::new(
            &compiled.lp,
            &compiled.kernel,
            machine,
            compiled.regs_total,
            ExecutorConfig {
                seed: loop_seed,
                stream_mode: spec.stream_mode,
                ..rc.exec
            },
        )
    });
    let mut trip_rng = SplitMix64::new(loop_seed ^ 0x7219);
    tr.time_n("memsim.exec.entry", entries, |_| {
        for _ in 0..entries {
            ex.run_entry(spec.ref_trips.sample(&mut trip_rng));
        }
    });
    let c = *ex.counters();
    totals.cycles += c.total;
    totals.source_iters += c.source_iters;
    totals.loads += c.loads;
    totals.stores += c.stores;
    totals.prefetches += c.prefetches;
    // An entry that does one iteration costs ramp-up, drain and the fixed
    // per-entry charges and nothing else.
    tr.time_n("memsim.exec.entry_fixed", FIXED_ENTRIES, |_| {
        for _ in 0..FIXED_ENTRIES {
            ex.run_entry(1);
        }
    });
}

/// Host nanoseconds per memory operation in each of the executor's
/// sub-layers (`access_ns` over the natural load/store/prefetch mix,
/// `prefetch_ns` over the prefetches alone).
struct UnitCosts {
    stream_ns: f64,
    access_ns: f64,
    prefetch_ns: f64,
    ozq_ns: f64,
}

#[derive(Clone, Copy)]
enum MemOp {
    Load(DataClass),
    Store(DataClass),
    Prefetch(CacheLevel),
}

/// Replays each loop's memory operations (baseline kernel, HLO prefetches
/// included) through `AddressStreams`, `MemorySystem` and `Ozq` directly.
fn memory_unit_costs(st: &State, tr: &mut Tracer) -> UnitCosts {
    let machine = &st.machine;
    let rc = &st.rcs[0];
    for (li, (_, bench)) in st.loops.iter().enumerate() {
        tr.begin_op(li as u64);
        let spec = &bench.loops[0];
        let compiled = compile_like_runner(spec, machine, &rc.compile);
        let lp = &compiled.lp;
        let mem_insts: Vec<(MemRefId, MemOp, u32)> = lp
            .insts()
            .iter()
            .filter_map(|i| {
                let m = i.mem()?;
                let dist = lp.memref(m).prefetch().map_or(0, |p| p.distance);
                match i.op() {
                    Opcode::Load(dc) => Some((m, MemOp::Load(dc), 0)),
                    Opcode::Store(dc) => Some((m, MemOp::Store(dc), 0)),
                    Opcode::Prefetch(level) => Some((m, MemOp::Prefetch(level), dist)),
                    _ => None,
                }
            })
            .collect();
        if mem_insts.is_empty() {
            continue;
        }
        let loop_seed = rc.seed ^ fnv(bench.name) ^ fnv(&spec.name);
        let mut trip_rng = SplitMix64::new(loop_seed ^ 0x7219);
        let mut trips = Vec::new();
        let mut planned = 0usize;
        while planned < PROBE_ADDRS_PER_LOOP {
            let trip = spec.ref_trips.sample(&mut trip_rng);
            planned += trip as usize * mem_insts.len();
            trips.push(trip);
        }

        let mut streams = AddressStreams::new(lp, spec.stream_mode, loop_seed);
        let mut trace: Vec<(u64, MemOp)> = Vec::with_capacity(planned);
        tr.time_n("memsim.streams", planned as u64, |_| {
            for &trip in &trips {
                streams.begin_entry();
                for i in 0..trip {
                    for &(m, op, dist) in &mem_insts {
                        let addr = match op {
                            MemOp::Prefetch(_) => streams.address_ahead(m, i, dist),
                            _ => streams.address(m, i),
                        };
                        trace.push((addr, op));
                    }
                }
            }
        });

        // Issue times come from an untimed dry run that admits requests
        // through the OzQ the way the executor does (at most its capacity
        // outstanding), so the timed replays below see a realistic clock
        // and a realistically small in-flight table.
        let mut mem = MemorySystem::new(*machine.caches());
        let mut ozq = Ozq::new(machine.caches().ozq_capacity);
        let mut now = 0u64;
        let issued: Vec<(u64, u32)> = trace
            .iter()
            .map(|&(addr, op)| {
                now = ozq.wait_for_slot(now + 1);
                let lat = access(&mut mem, addr, op, now);
                ozq.push_completion(now + u64::from(lat));
                (now, lat)
            })
            .collect();

        let mut mem = MemorySystem::new(*machine.caches());
        tr.time_n("memsim.cache.access", trace.len() as u64, |_| {
            for (&(addr, op), &(at, _)) in trace.iter().zip(&issued) {
                std::hint::black_box(access(&mut mem, addr, op, at));
            }
        });
        let mut mem = MemorySystem::new(*machine.caches());
        let prefetches = trace
            .iter()
            .zip(&issued)
            .filter(|((_, op), _)| matches!(op, MemOp::Prefetch(_)));
        let n_pf = prefetches.clone().count() as u64;
        tr.time_n("memsim.cache.prefetch", n_pf, |_| {
            for (&(addr, op), &(at, _)) in prefetches {
                std::hint::black_box(access(&mut mem, addr, op, at));
            }
        });

        let mut ozq = Ozq::new(machine.caches().ozq_capacity);
        let mut full = 0u64;
        tr.time_n("memsim.ozq", issued.len() as u64, |_| {
            for &(at, lat) in &issued {
                ozq.drain(at);
                full += u64::from(ozq.is_full_at(at));
                std::hint::black_box(ozq.allocate(at, lat));
            }
        });
        std::hint::black_box(full);
    }
    let agg = tr.summary();
    let ns = |name: &str| agg.get(name).map_or(0.0, |a| a.us_per_call() * 1e3);
    UnitCosts {
        stream_ns: ns("memsim.streams"),
        access_ns: ns("memsim.cache.access"),
        prefetch_ns: ns("memsim.cache.prefetch"),
        ozq_ns: ns("memsim.ozq"),
    }
}

/// One memory operation against the hierarchy; returns its latency.
fn access(mem: &mut MemorySystem, addr: u64, op: MemOp, now: u64) -> u32 {
    match op {
        MemOp::Load(dc) => mem.demand_access(addr, dc, now, false).latency,
        MemOp::Store(dc) => mem.demand_access(addr, dc, now, true).latency,
        MemOp::Prefetch(level) => mem.prefetch(addr, level, now).latency,
    }
}
