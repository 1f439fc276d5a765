//! The frozen API surface, mirrored from the "Frozen API surface" list in
//! `benchmark/README.md`: every item the benchmark harness in `benchmark/`
//! calls, named once here so that `cargo test` fails to compile when a
//! refactor narrows, renames or removes one. The harness is a workspace of
//! its own, so without this file only a build of `benchmark/` would notice.
//!
//! Nothing here runs anything; the test passes once it compiles. Keep it in
//! step with that list, item for item, fields included.

use ltsp_cache::persist::{CacheLog, ReplayReport};
use ltsp_cache::{CacheConfig, Fingerprint, ShardedLru};
use ltsp_cluster::{routing_key, spawn_router, RouterConfig, RouterHandle};
use ltsp_core::{
    benchmark_gain, compile_loop, geomean_gain, run_benchmark, BenchRun, CompileConfig,
    CompiledLoop, LatencyPolicy, RunConfig,
};
use ltsp_ddg::{Ddg, MinDistSolver};
use ltsp_hlo::{run_hlo, HintReason, HloConfig, HloReport, RefDecision};
use ltsp_ir::{
    parse_loop, CacheLevel, DataClass, Inst, InstId, LatencyHint, LoopIr, MemRefId, MemoryRef,
    Opcode, RegClass, SplitMix64,
};
use ltsp_machine::{CacheGeometry, MachineModel};
use ltsp_memsim::{AddressStreams, CycleCounters, Executor, ExecutorConfig, MemorySystem, Ozq};
use ltsp_oracle::validate_schedule;
use ltsp_pipeliner::{
    allocate_rotating, classify_loads, pipeline_loop, LoadClassification, ModuloSchedule,
    ModuloScheduler, PipelineError, PipelineOptions, PipelineStats, PipelinedLoop, RegAllocation,
};
use ltsp_server::{
    parse_request, render_compile_report, spawn, Engine, EngineConfig, Response, ServerConfig,
    ServerHandle,
};
use ltsp_telemetry::json::{self, escape, JsonValue};
use ltsp_telemetry::Telemetry;
use ltsp_workloads::{
    cpu2000, cpu2006, kernel_library, random_loop, scheduling_heavy, Benchmark, LoopSpec,
    TripDistribution,
};

#[test]
fn every_frozen_item_is_public() {
    // ltsp_ir
    let _ = parse_loop;
    let _ = (LoopIr::name, LoopIr::insts, LoopIr::inst, LoopIr::memref);
    let _ = |lp: &LoopIr| lp.to_string();
    let _ = (Inst::op, Inst::mem, MemoryRef::prefetch);
    let _ = [
        Opcode::Load(DataClass::Int),
        Opcode::Store(DataClass::Int),
        Opcode::Prefetch(CacheLevel::L2),
    ];
    let _: Option<(LatencyHint, InstId, MemRefId, RegClass)> = None;
    let _ = (SplitMix64::new, SplitMix64::next_below);

    // ltsp_machine
    let _ = (MachineModel::itanium2, MachineModel::caches);
    let _ = |g: &CacheGeometry| g.ozq_capacity;

    // ltsp_hlo
    let _ = run_hlo;
    let _ = |r: &HloReport| {
        let _ = (&r.decisions, r.prefetches_inserted, r.hinted);
    };
    let _ = |d: &RefDecision| (d.hint, d.reason);
    let _ = HintReason::NotPrefetchable;

    // ltsp_ddg
    let _ = (Ddg::build, Ddg::build_with_load_floor, Ddg::len, Ddg::edges);
    let _ = (MinDistSolver::new, MinDistSolver::heights_into);

    // ltsp_pipeliner
    let _ = (classify_loads, pipeline_loop, allocate_rotating);
    let _ = (ModuloScheduler::new, ModuloScheduler::schedule_at);
    let _ = |p: &PipelinedLoop| {
        let _ = (&p.schedule, &p.regs, &p.stats);
    };
    let _ = |s: &PipelineStats| (s.schedule_attempts, s.boosted_loads);
    let _ = |e: &PipelineError| e.attempts;
    let _ = (ModuloSchedule::ii, ModuloSchedule::stage_count);
    let _ = (RegAllocation::total, LoadClassification::boosted_count);
    let _ = |o: &PipelineOptions| (o.cycle_cap, o.budget_factor);

    // ltsp_oracle
    let _ = validate_schedule;

    // ltsp_core
    let _ = (compile_loop, CompileConfig::new);
    let _ = |c: &CompileConfig| {
        let _ = (
            c.policy,
            c.trip_threshold,
            c.fp_default_l2,
            c.pgo,
            &c.hlo,
            &c.pipeline,
        );
    };
    let _ = |h: &HloConfig| h.default_trip_estimate;
    let _ = |c: &CompiledLoop| {
        let _ = (&c.lp, &c.kernel, c.pipelined, c.regs_total);
    };
    let _ = CompiledLoop::scheduled_load_latency_of;
    let _: Option<LatencyPolicy> = None;
    let _ = (
        run_benchmark,
        RunConfig::new,
        RunConfig::with_entry_scale,
        RunConfig::with_jobs,
    );
    let _ = |r: &RunConfig| {
        let _ = (r.seed, &r.compile, &r.exec);
    };
    let _ = BenchRun::counters;
    let _ = |b: &BenchRun| {
        let _ = (b.loop_cycles, b.name, &b.loops);
    };
    let _ = (benchmark_gain, geomean_gain);

    // ltsp_memsim
    let _ = (Executor::new, Executor::run_entry, Executor::counters);
    let _: Option<ExecutorConfig> = None;
    let _ = |c: &CycleCounters| {
        [
            c.total,
            c.unstalled,
            c.be_exe_bubble,
            c.be_l1d_fpu_bubble,
            c.be_rse_bubble,
            c.be_flush_bubble,
            c.fe_bubble,
            c.kernel_iters,
            c.source_iters,
            c.entries,
            c.loads,
            c.l1_hits,
            c.l2_hits,
            c.l3_hits,
            c.mem_loads,
            c.inflight_merges,
            c.tlb_misses,
            c.prefetches,
            c.stores,
            c.ozq_full_cycles,
        ]
    };
    let _ = CycleCounters::is_consistent;
    let _ = |a: CycleCounters, b: CycleCounters| a + b;
    let _ = (AddressStreams::new, AddressStreams::begin_entry);
    let _ = (AddressStreams::address, AddressStreams::address_ahead);
    let _ = (
        MemorySystem::new,
        MemorySystem::demand_access,
        MemorySystem::prefetch,
    );
    let _ = (Ozq::new, Ozq::wait_for_slot, Ozq::push_completion);
    let _ = (Ozq::drain, Ozq::is_full_at, Ozq::allocate);

    // ltsp_workloads
    let _ = (
        cpu2006,
        cpu2000,
        kernel_library,
        random_loop,
        scheduling_heavy,
    );
    let _: Option<Benchmark> = None;
    let _ = |s: &LoopSpec| {
        let _ = (&s.name, &s.loop_ir, &s.ref_trips, &s.train_trips);
        let _ = (s.static_trip_estimate, s.entries, s.stream_mode);
    };
    let _ = (TripDistribution::mean, TripDistribution::sample);

    // ltsp_server
    let _ = (spawn, ServerHandle::addr, ServerHandle::shutdown);
    let _: Option<(ServerConfig, EngineConfig)> = None;
    let _ = (
        Engine::new,
        Engine::handle,
        Engine::request_key,
        Engine::refine_shutdown,
    );
    let _ = (parse_request, Response::render, render_compile_report);
    let _ = |r: &Response| (r.status, r.cache);

    // ltsp_cache
    let _ = (
        ShardedLru::<String>::new,
        ShardedLru::<String>::get,
        ShardedLru::<String>::insert,
    );
    let _: Option<CacheConfig> = None;
    let _ = (Fingerprint::of_bytes, CacheLog::open, CacheLog::append);
    let _ = |r: &ReplayReport| r.records.len();

    // ltsp_cluster
    let _ = (
        routing_key,
        spawn_router,
        RouterHandle::addr,
        RouterHandle::shutdown,
    );
    let _: Option<RouterConfig> = None;

    // ltsp_telemetry
    let _ = Telemetry::disabled;
    let _ = (json::parse, escape);
    let _: Option<JsonValue> = None;
}
