//! `compile_scale` and `compile_small`: the compiler, text in, report
//! out; simulator and daemon idle.
//!
//! One operation is what a compile request costs without the daemon:
//! `parse_loop(text)` → `compile_loop` → `render_compile_report`. The two
//! mixes put the time in different places. On `compile_scale` (hundreds of
//! instructions per kernel) the dependence graph, the scheduler and the
//! register allocator dominate; on `compile_small` (a dozen instructions)
//! parsing, rendering and fixed per-compile set-up do.

use std::path::Path;
use std::time::{Duration, Instant};

use ltsp_core::{compile_loop, CompileConfig, CompiledLoop, LatencyPolicy};
use ltsp_ddg::{Ddg, MinDistSolver};
use ltsp_hlo::{run_hlo, HintReason, HloReport};
use ltsp_ir::{parse_loop, DataClass, InstId, LatencyHint, LoopIr, Opcode, RegClass, SplitMix64};
use ltsp_machine::MachineModel;
use ltsp_oracle::validate_schedule;
use ltsp_pipeliner::{allocate_rotating, classify_loads, pipeline_loop, ModuloScheduler};
use ltsp_server::render_compile_report;
use ltsp_workloads::{kernel_library, random_loop, scheduling_heavy};

use super::sim::{scheduled_ddg, POLICIES};
use super::{Pass, Reduced, Workload};
use crate::hostspeed::HostSpeed;
use crate::metrics::Metrics;
use crate::trace::{summarize_under, Tracer};

/// Which kernel population a workload compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 24 `scheduling_heavy` kernels of 100–450 instructions.
    Scale,
    /// The 17 library kernels plus 47 random small loops.
    Small,
}

/// `compile_scale`: kernels, and sweeps over (kernel × policy) per pass.
const SCALE_KERNELS: usize = 24;
const SCALE_SWEEPS: usize = 12;
/// Depth of the dependent fma chains. For each stream count (3, 4, 5):
/// four kernels every seed shares, at `SCALE_SHARED_DEPTHS`, then four the
/// seed draws — `SCALE_DRAWN_DEPTHS` each moved by a shuffle of
/// `SCALE_JITTER`, so depths stay within 9–20 and their sum, hence the
/// instruction count and roughly the work, is the same for every seed.
const SCALE_SHARED_DEPTHS: [usize; SCALE_KERNELS / 6] = [10, 13, 16, 19];
const SCALE_DRAWN_DEPTHS: [usize; SCALE_KERNELS / 6] = [11, 14, 15, 18];
const SCALE_JITTER: [i64; SCALE_KERNELS / 6] = [-1, 0, 0, 1];
/// `compile_small`: random loops beside the library, drawn one per
/// stratum from a pool sorted by size, so that every seed gets the same
/// size profile and total work stays comparable across seeds.
const SMALL_RANDOM: usize = 47;
const SMALL_STRATUM: usize = 10;
const SMALL_SWEEPS: usize = 250;
const QUICK_SWEEPS_SCALE: usize = 1;
const QUICK_SWEEPS_SMALL: usize = 4;
/// Layer-replay repetitions in the traced run's probes.
const REPLAY_REPS_SCALE: usize = 2;
const REPLAY_REPS_SMALL: usize = 16;

struct Kernel {
    text: String,
    insts: usize,
}

struct State {
    machine: MachineModel,
    /// The kernels every seed shares come first.
    kernels: Vec<Kernel>,
    cfgs: Vec<CompileConfig>,
    /// The verification sweep's report per (kernel, policy): timed sweeps
    /// must render the same bytes.
    reference: Vec<String>,
}

pub struct Compile {
    mix: Mix,
    sweeps: usize,
    state: Option<State>,
}

impl Compile {
    pub fn new(mix: Mix, quick: bool) -> Compile {
        let sweeps = match (mix, quick) {
            (Mix::Scale, false) => SCALE_SWEEPS,
            (Mix::Small, false) => SMALL_SWEEPS,
            (Mix::Scale, true) => QUICK_SWEEPS_SCALE,
            (Mix::Small, true) => QUICK_SWEEPS_SMALL,
        };
        Compile {
            mix,
            sweeps,
            state: None,
        }
    }

    fn kernels(&self, seed: u64) -> Vec<LoopIr> {
        let mut rng = SplitMix64::new(seed ^ 0xC0DE_C0DE);
        match self.mix {
            Mix::Scale => {
                let shared = (3..=5).flat_map(|streams| {
                    SCALE_SHARED_DEPTHS.iter().map(move |&depth| {
                        scheduling_heavy(&format!("scale{streams}x{depth}"), streams, depth)
                    })
                });
                let mut drawn = Vec::new();
                for streams in 3..=5 {
                    let mut jitter = SCALE_JITTER;
                    for i in (1..jitter.len()).rev() {
                        jitter.swap(i, rng.next_below(i as u64 + 1) as usize);
                    }
                    for (k, (&base, j)) in SCALE_DRAWN_DEPTHS.iter().zip(jitter).enumerate() {
                        let depth = (base as i64 + j) as usize;
                        drawn.push(scheduling_heavy(
                            &format!("drawn{streams}_{k}"),
                            streams,
                            depth,
                        ));
                    }
                }
                shared.chain(drawn).collect()
            }
            Mix::Small => {
                let mut pool: Vec<LoopIr> = (0..(SMALL_RANDOM * SMALL_STRATUM) as u64)
                    .map(random_loop)
                    .collect();
                pool.sort_by_key(|lp| lp.insts().len());
                let mut out: Vec<LoopIr> = kernel_library().into_iter().map(|(_, lp)| lp).collect();
                out.extend(
                    pool.chunks(SMALL_STRATUM).map(|stratum| {
                        stratum[rng.next_below(SMALL_STRATUM as u64) as usize].clone()
                    }),
                );
                out
            }
        }
    }
}

/// The report text for a compile under `cfg` (the trip estimate shown is
/// the one `compile_loop` believed).
fn report_of(c: &CompiledLoop, cfg: &CompileConfig) -> String {
    render_compile_report(c, cfg.policy, cfg.hlo.default_trip_estimate)
}

impl Workload for Compile {
    fn name(&self) -> &'static str {
        match self.mix {
            Mix::Scale => "compile_scale",
            Mix::Small => "compile_small",
        }
    }

    fn setup(&mut self, seed: u64, _out_dir: &Path) -> (u64, u64) {
        let machine = MachineModel::itanium2();
        let kernels: Vec<Kernel> = self
            .kernels(seed)
            .iter()
            .map(|lp| Kernel {
                text: lp.to_string(),
                insts: lp.insts().len(),
            })
            .collect();
        let cfgs: Vec<CompileConfig> = POLICIES.iter().map(|&p| CompileConfig::new(p)).collect();

        // Verification sweep (also the warm-up): every pipelined result
        // must pass the independent validator; its report is the reference
        // the timed sweeps are compared with.
        let mut reference = Vec::with_capacity(kernels.len() * cfgs.len());
        let mut setup_checks = (0, 0);
        for k in &kernels {
            for cfg in &cfgs {
                setup_checks.0 += 1;
                let Ok(lp) = parse_loop(&k.text) else {
                    eprintln!("{}: kernel text does not parse back", self.name());
                    setup_checks.1 += 1;
                    reference.push(String::new());
                    continue;
                };
                let c = compile_loop(&lp, &machine, cfg);
                if c.pipelined {
                    let ddg = scheduled_ddg(&c, &machine);
                    if validate_schedule(&c.lp, &ddg, &c.kernel, &machine).is_err() {
                        eprintln!("{}: {} fails validation", self.name(), lp.name());
                        setup_checks.1 += 1;
                    }
                }
                reference.push(report_of(&c, cfg));
            }
        }
        self.state = Some(State {
            machine,
            kernels,
            cfgs,
            reference,
        });
        setup_checks
    }

    fn pass(&mut self, _pass_idx: u64, tr: &mut Tracer, host: &mut HostSpeed) -> Pass {
        let sweeps = self.sweeps;
        let mix = self.mix;
        let st = self.state.as_mut().expect("setup ran");
        let mut p = Pass::default();
        let per_sweep = st.kernels.len() * st.cfgs.len();
        // Σ II over the kernels every seed shares, and over all of them.
        let shared = match mix {
            Mix::Scale => SCALE_KERNELS / 2,
            Mix::Small => kernel_library().len(),
        };
        let (mut ii_shared, mut ii_sum, mut report_bytes) = (0u64, 0u64, 0u64);
        let t_pass = Instant::now();
        let mut probing = Duration::ZERO;
        for sweep in 0..sweeps {
            for (ki, k) in st.kernels.iter().enumerate() {
                for (pi, cfg) in st.cfgs.iter().enumerate() {
                    let slot = ki * st.cfgs.len() + pi;
                    let traced = tr.begin_op((sweep * per_sweep + slot) as u64);
                    let t0 = Instant::now();
                    let (c, report) = tr.time("op", |tr| {
                        let lp = tr
                            .time("ir.parse", |_| parse_loop(&k.text))
                            .expect("parsed in set-up");
                        let c = tr.time("core.compile", |_| compile_loop(&lp, &st.machine, cfg));
                        let report = tr.time("server.report.render", |_| report_of(&c, cfg));
                        (c, report)
                    });
                    let t1 = Instant::now();
                    p.record_op(t1 - t0, traced);
                    probing += host.maybe_probe(t1);
                    p.attempted += 1;
                    p.failed += u64::from(report != st.reference[slot]);
                    if sweep == 0 {
                        ii_sum += u64::from(c.kernel.ii());
                        if ki < shared {
                            ii_shared += u64::from(c.kernel.ii());
                        }
                        report_bytes += report.len() as u64;
                    }
                }
            }
        }
        p.wall_s = (t_pass.elapsed() - probing).as_secs_f64();
        p.work = (sweeps * per_sweep) as f64;
        p.exact = vec![
            ("quality_cost", ii_shared as f64),
            ("sched_ii_sum", ii_sum as f64),
            ("report_bytes", report_bytes as f64),
            (
                "insts",
                (st.kernels.iter().map(|k| k.insts).sum::<usize>() * st.cfgs.len()) as f64,
            ),
        ];
        p
    }

    fn describe(&self, r: &Reduced, m: &mut Metrics) {
        m.set("compile_per_s", r.work_per_s);
        m.set("compile_p50_us", r.p50_us);
        m.set("compile_p99_us", r.p99_us);
        for (name, v) in &r.exact {
            match *name {
                "sched_ii_sum" => m.set("sched_ii_sum", *v),
                "report_bytes" => m.set("server.report.bytes", *v),
                "insts" => m.set("ir.insts", *v),
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
        let st = self.state.as_ref().expect("setup ran");
        let reps = match self.mix {
            Mix::Scale => REPLAY_REPS_SCALE,
            Mix::Small => REPLAY_REPS_SMALL,
        };
        let mut counts = ReplayCounts::default();
        for rep in 0..reps {
            for (ki, k) in st.kernels.iter().enumerate() {
                let lp = parse_loop(&k.text).expect("parsed in set-up");
                for (pi, cfg) in st.cfgs.iter().enumerate() {
                    host.maybe_probe(Instant::now());
                    tr.begin_op((ki * st.cfgs.len() + pi) as u64);
                    let mut sink = ReplayCounts::default();
                    tr.time("replay", |tr| {
                        replay_compile(&lp, &st.machine, cfg, tr, &mut sink);
                    });
                    if rep == 0 {
                        counts.add(&sink);
                    }
                }
            }
        }

        let all = tr.summary();
        let us = |name: &str| all.get(name).map_or(0.0, |a| a.us_per_call());
        m.set("ir.parse.us", us("ir.parse"));
        // Every kernel is parsed equally often, so instructions per parse
        // is the mean kernel size: Minst/s = insts per parse / µs per parse.
        let mean_insts =
            st.kernels.iter().map(|k| k.insts).sum::<usize>() as f64 / st.kernels.len() as f64;
        m.set(
            "ir.parse.minst_per_s",
            mean_insts / us("ir.parse").max(1e-9),
        );
        m.set("server.report.render.us", us("server.report.render"));

        // Layer times from the replay alone, where compile_loop and its
        // parts ran back to back on the same inputs.
        let rp = summarize_under(tr.spans(), "replay");
        let rus = |name: &str| rp.get(name).map_or(0.0, |a| a.us_per_call());
        m.set("core.compile.us", rus("core.compile"));
        m.set("hlo.run.us", rus("hlo.run"));
        m.set("ddg.build.us", rus("ddg.build"));
        m.set("ddg.mindist.us", rus("ddg.mindist"));
        m.set("pipeliner.classify.us", rus("pipeliner.classify"));
        m.set("pipeliner.pipeline.us", rus("pipeliner.pipeline"));
        m.set("pipeliner.sched.us", rus("pipeliner.sched"));
        m.set("pipeliner.regalloc.us", rus("pipeliner.regalloc"));
        m.set("oracle.validate.us", rus("oracle.validate"));
        m.set(
            "core.compile.self_us",
            rus("core.compile") - rus("hlo.run") - rus("pipeliner.pipeline"),
        );
        m.set("hlo.prefetches", counts.prefetches as f64);
        m.set("hlo.hints", counts.hints as f64);
        m.set("ddg.nodes", counts.nodes as f64);
        m.set("ddg.edges", counts.edges as f64);
        m.set(
            "pipeliner.attempts_per_compile",
            counts.attempts as f64 / counts.compiles.max(1) as f64,
        );
        m.set("pipeliner.boosted_loads", counts.boosted as f64);
        m.set("pipeliner.stages", counts.stages as f64);
        m.set("pipeliner.regs", counts.regs as f64);
        m.set("oracle.violations", counts.violations as f64);
        (counts.compiles, counts.violations.min(counts.compiles))
    }
}

/// Exact counts off one replay sweep.
#[derive(Default)]
pub struct ReplayCounts {
    pub compiles: u64,
    pub prefetches: u64,
    pub hints: u64,
    pub nodes: u64,
    pub edges: u64,
    pub attempts: u64,
    pub boosted: u64,
    pub stages: u64,
    pub regs: u64,
    pub violations: u64,
}

impl ReplayCounts {
    fn add(&mut self, o: &ReplayCounts) {
        self.compiles += o.compiles;
        self.prefetches += o.prefetches;
        self.hints += o.hints;
        self.nodes += o.nodes;
        self.edges += o.edges;
        self.attempts += o.attempts;
        self.boosted += o.boosted;
        self.stages += o.stages;
        self.regs += o.regs;
        self.violations += o.violations;
    }
}

/// The expected-latency hint each of the four policies gives a load, as
/// documented on `LatencyPolicy` and `CompileConfig::trip_threshold`.
fn policy_hint(
    lp: &LoopIr,
    hlo: &HloReport,
    cfg: &CompileConfig,
    trip: f64,
    inst: InstId,
) -> Option<LatencyHint> {
    let Opcode::Load(dc) = lp.inst(inst).op() else {
        return None;
    };
    let above = trip >= f64::from(cfg.trip_threshold);
    match cfg.policy {
        LatencyPolicy::AllLoadsL3 => above.then_some(LatencyHint::L3),
        LatencyPolicy::AllFpLoadsL2 => (above && dc == DataClass::Fp).then_some(LatencyHint::L2),
        LatencyPolicy::HloHints => {
            let decision = hlo.decisions.get(lp.inst(inst).mem()?.index())?;
            match decision.hint {
                Some(h) if above || decision.reason == Some(HintReason::NotPrefetchable) => Some(h),
                Some(_) => None,
                None => {
                    (cfg.fp_default_l2 && dc == DataClass::Fp && above).then_some(LatencyHint::L2)
                }
            }
        }
        _ => None,
    }
}

/// One compile taken apart: `compile_loop` itself, then each layer's
/// public function on the same input, each under its own span.
pub fn replay_compile(
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    tr: &mut Tracer,
    counts: &mut ReplayCounts,
) {
    let trip = cfg.hlo.default_trip_estimate;
    let compiled = tr.time("core.compile", |_| compile_loop(lp, machine, cfg));
    counts.compiles += 1;

    let mut body = lp.clone();
    let hlo = tr.time("hlo.run", |_| {
        run_hlo(&mut body, machine, Some(trip), &cfg.hlo)
    });
    counts.prefetches += hlo.prefetches_inserted as u64;
    counts.hints += hlo.hinted as u64;

    let hint_of = |inst: InstId| policy_hint(&body, &hlo, cfg, trip, inst);
    let base_ddg = tr.time("ddg.build", |_| {
        Ddg::build_with_load_floor(&body, machine, 0)
    });
    let cls = tr.time("pipeliner.classify", |_| {
        classify_loads(&body, machine, &base_ddg, &hint_of, cfg.pipeline.cycle_cap)
    });
    std::hint::black_box(cls.boosted_count());
    let Ok(pl) = tr.time("pipeliner.pipeline", |_| {
        pipeline_loop(&body, machine, &hint_of, &cfg.pipeline)
    }) else {
        return; // acyclic fallback: nothing was modulo-scheduled
    };
    counts.attempts += u64::from(pl.stats.schedule_attempts);
    counts.boosted += pl.stats.boosted_loads as u64;
    counts.stages += u64::from(pl.schedule.stage_count());
    counts.regs += u64::from(
        pl.regs.total(RegClass::Gr) + pl.regs.total(RegClass::Fr) + pl.regs.total(RegClass::Pr),
    );

    // The final attempt alone: the graph at the latencies compile_loop's
    // kernel was scheduled for, solved and scheduled at its II.
    if !compiled.pipelined {
        return;
    }
    let ii = compiled.kernel.ii();
    let ddg = tr.time("ddg.build", |_| scheduled_ddg(&compiled, machine));
    counts.nodes += ddg.len() as u64;
    counts.edges += ddg.edges().len() as u64;
    tr.time("ddg.mindist", |_| {
        let mut heights = Vec::new();
        MinDistSolver::new(&ddg).heights_into(&ddg, ii, &mut heights);
        std::hint::black_box(heights);
    });
    let scheduler = ModuloScheduler::new(&compiled.lp, machine, &ddg);
    let Ok(sched) = tr.time("pipeliner.sched", |_| {
        scheduler.schedule_at(ii, cfg.pipeline.budget_factor)
    }) else {
        return;
    };
    let _ = tr.time("pipeliner.regalloc", |_| {
        allocate_rotating(&compiled.lp, &sched, machine)
    });
    if let Err(v) = tr.time("oracle.validate", |_| {
        validate_schedule(&compiled.lp, &ddg, &compiled.kernel, machine)
    }) {
        counts.violations += v.len() as u64;
    }
}
