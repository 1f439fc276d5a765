//! The benchmark's metric catalogue — the single source `BENCHMARK.json`
//! is checked against (see `tests/catalogue.rs`).

use std::collections::BTreeMap;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric. `bound` is the relative worsening allowed
/// before a change counts as a regression (end-to-end metrics only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// The six workloads, in the order `run --all` executes them.
pub const WORKLOADS: [&str; 6] = [
    "sim_stream",
    "sim_lowtrip",
    "compile_scale",
    "compile_small",
    "serve_warm",
    "serve_churn",
];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them from the untraced run.
///
/// `work_per_s` counts the workload's own unit of work per host second:
/// simulated megacycles on `sim_*`, text→report compiles on `compile_*`,
/// responses on `serve_*`. `op_p50_us` / `op_tail_us` are the latency of
/// one operation of the class the workload exists to measure (see the
/// README's table); `quality_cost` is the exact cost of what the compiler
/// produced (simulated cycles, or Σ II), lower being a better schedule.
///
/// The timing bounds are as wide as the contract allows because the
/// daemon workloads need it: ten differently-seeded runs on the reference
/// host spread (inter-quartile over median) 4–7 % on the simulator and
/// compiler workloads but up to 12 % on `serve_churn`, and a bound must
/// stay clear of the spread of the noisiest workload that reports it.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("op_tail_us", "us", Better::Lower, 0.25),
    e2e("quality_cost", "count", Better::Lower, 0.03),
];

/// Per-layer metrics (traced run only). A workload that does not enter a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    // The issue's workload-specific end-to-end names, kept here because
    // the driver contract wants every end-to-end metric on every
    // workload; these exist on some workloads only (0 elsewhere).
    lo("fail_share", "share"),
    hi("sim_mcycles_per_s", "Mcyc/s"),
    lo("sim_cycles", "count"),
    hi("hlo_gain_pct", "%"),
    hi("compile_per_s", "1/s"),
    lo("compile_p50_us", "us"),
    lo("compile_p99_us", "us"),
    lo("sched_ii_sum", "count"),
    hi("req_per_s", "1/s"),
    lo("hit_p50_us", "us"),
    lo("hit_p99_us", "us"),
    lo("miss_p50_us", "us"),
    lo("miss_p99_us", "us"),
    // ir
    lo("ir.parse.us", "us"),
    hi("ir.parse.minst_per_s", "Minst/s"),
    lo("ir.insts", "count"),
    // hlo
    lo("hlo.run.us", "us"),
    lo("hlo.prefetches", "count"),
    hi("hlo.hints", "count"),
    // ddg
    lo("ddg.build.us", "us"),
    lo("ddg.mindist.us", "us"),
    lo("ddg.nodes", "count"),
    lo("ddg.edges", "count"),
    // pipeliner
    lo("pipeliner.classify.us", "us"),
    lo("pipeliner.pipeline.us", "us"),
    lo("pipeliner.sched.us", "us"),
    lo("pipeliner.regalloc.us", "us"),
    lo("pipeliner.attempts_per_compile", "ratio"),
    hi("pipeliner.boosted_loads", "count"),
    lo("pipeliner.stages", "count"),
    lo("pipeliner.regs", "count"),
    // core
    lo("core.compile.us", "us"),
    lo("core.compile.self_us", "us"),
    lo("server.report.render.us", "us"),
    lo("server.report.bytes", "bytes"),
    lo("oracle.validate.us", "us"),
    lo("oracle.violations", "count"),
    lo("core.runner.us", "us"),
    lo("core.runner.overhead_pct", "%"),
    // memsim, host time
    lo("memsim.exec.new.us", "us"),
    lo("memsim.exec.entry.us", "us"),
    lo("memsim.exec.entry_fixed_ns", "ns"),
    lo("memsim.exec.ns_per_cycle", "ns"),
    lo("memsim.exec.ns_per_iter", "ns"),
    lo("memsim.exec.self_pct", "%"),
    lo("memsim.streams.ns_per_addr", "ns"),
    lo("memsim.cache.ns_per_access", "ns"),
    lo("memsim.cache.prefetch_ns", "ns"),
    hi("memsim.maccess_per_s", "M/s"),
    lo("memsim.ozq.ns_per_op", "ns"),
    // memsim, simulated (exact) counters
    lo("memsim.cycles", "count"),
    lo("memsim.unstalled", "count"),
    lo("memsim.be_exe_bubble", "count"),
    lo("memsim.be_l1d_fpu_bubble", "count"),
    lo("memsim.be_rse_bubble", "count"),
    lo("memsim.be_flush_bubble", "count"),
    lo("memsim.fe_bubble", "count"),
    lo("memsim.loads", "count"),
    hi("memsim.l1_hits", "count"),
    hi("memsim.l2_hits", "count"),
    hi("memsim.l3_hits", "count"),
    lo("memsim.mem_loads", "count"),
    hi("memsim.inflight_merges", "count"),
    lo("memsim.tlb_misses", "count"),
    lo("memsim.prefetches", "count"),
    lo("memsim.stores", "count"),
    lo("memsim.ozq_full_cycles", "count"),
    lo("memsim.kernel_iters", "count"),
    lo("memsim.source_iters", "count"),
    lo("memsim.entries", "count"),
    // server
    lo("server.proto.parse.us", "us"),
    lo("server.proto.render.us", "us"),
    lo("server.engine.key.us", "us"),
    lo("server.engine.hit.us", "us"),
    lo("server.engine.miss.us", "us"),
    lo("server.daemon.residual_us", "us"),
    hi("server.daemon.attributed_pct", "%"),
    lo("server.queue_wait.p50_us", "us"),
    lo("server.dispatch.p50_us", "us"),
    lo("server.handler.p50_us", "us"),
    lo("server.write.p50_us", "us"),
    lo("server.cache_lookup.p50_us", "us"),
    hi("server.requests_ok", "count"),
    lo("server.requests_overloaded", "count"),
    // cache
    hi("cache.compile.hits", "count"),
    lo("cache.compile.misses", "count"),
    lo("cache.compile.evictions", "count"),
    hi("cache.result.hits", "count"),
    lo("cache.result.misses", "count"),
    lo("cache.result.evictions", "count"),
    hi("cache.result.hit_ratio", "ratio"),
    lo("cache.persist.appended", "count"),
    lo("cache.persist.log_bytes", "bytes"),
    lo("cache.lru.get.ns", "ns"),
    lo("cache.lru.get2.ns", "ns"),
    lo("cache.lru.insert.ns", "ns"),
    lo("cache.lru.evict_insert.ns", "ns"),
    hi("cache.fingerprint.mb_per_s", "MB/s"),
    lo("cache.persist.append.us", "us"),
    lo("cache.persist.replay.ms", "ms"),
    // cluster
    lo("cluster.routing_key.us", "us"),
    lo("cluster.router.hop_p50_us", "us"),
    // the harness itself
    lo("bench.host_slowdown", "ratio"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.client.gen_ns", "ns"),
    hi("bench.passes", "count"),
    hi("bench.samples", "count"),
];

/// Looks a metric up in either list.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(lookup(name).is_some(), "uncatalogued metric {name}");
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Brings every time and rate to reference host speed: times are
    /// divided by the slowdown, rates multiplied; counts, ratios and
    /// percentages stay as they are.
    pub fn to_reference_speed(&mut self, slowdown: f64) {
        for (name, v) in &mut self.0 {
            match lookup(name).map_or("", |d| d.unit) {
                "s" | "ms" | "us" | "ns" => *v /= slowdown,
                "1/s" | "M/s" | "MB/s" | "Mcyc/s" | "Minst/s" => *v *= slowdown,
                _ => {}
            }
        }
    }
}
