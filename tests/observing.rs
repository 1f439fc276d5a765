//! Observing a compile changes nothing about it. The pipeliner skips the
//! criticality analysis of a loop the register floor refuses unless a
//! sink is listening, so the work a compile does depends on the
//! observer; its answer must not.
//!
//! Every case is compiled three ways — with [`Observer::disabled`], with
//! a phase timer on a disabled sink (how `compile_phases` times), and on
//! an enabled sink — and the three must agree on the rendered report, the
//! kernel and every statistic. Cases: the kernel library, the six
//! `scale_golden` shapes and the `compile_scale` benchmark's shapes
//! (3–5 streams, depths 9–20) under the four policies, and each of those
//! loops with balanced recurrences.

use ltsp::core::{compile_loop_observed, CompileConfig, CompiledLoop, LatencyPolicy};
use ltsp::ir::LoopIr;
use ltsp::machine::MachineModel;
use ltsp::server::render_compile_report;
use ltsp::telemetry::{Observer, PhaseTimer, Telemetry};
use ltsp::workloads::{kernel_library, scheduling_heavy};

const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];
/// The `scale_golden` shapes, `(streams, depth)`.
const SHAPES: [(usize, usize); 6] = [(3, 15), (3, 16), (4, 11), (4, 12), (5, 9), (3, 10)];

fn loops() -> Vec<LoopIr> {
    let mut out: Vec<LoopIr> = kernel_library().into_iter().map(|(_, lp)| lp).collect();
    for (streams, depth) in SHAPES {
        out.push(scheduling_heavy(
            &format!("heavy{streams}x{depth}"),
            streams,
            depth,
        ));
    }
    for streams in 3..=5 {
        for depth in 9..=20 {
            out.push(scheduling_heavy(
                &format!("scale{streams}x{depth}"),
                streams,
                depth,
            ));
        }
    }
    out
}

/// What a compile answers: the report bytes and the whole compiled loop
/// (kernel, statistics, registers, HLO report, classification).
fn answer(c: &CompiledLoop, cfg: &CompileConfig) -> (String, String) {
    let trip = cfg.hlo.default_trip_estimate;
    (render_compile_report(c, cfg.policy, trip), format!("{c:?}"))
}

#[test]
fn observing_a_compile_changes_nothing() {
    let machine = MachineModel::itanium2();
    let mut cases = Vec::new();
    for lp in loops() {
        for policy in POLICIES {
            cases.push((lp.clone(), CompileConfig::new(policy)));
        }
        let balanced =
            CompileConfig::new(LatencyPolicy::AllLoadsL3).with_balanced_recurrences(true);
        cases.push((lp, balanced));
    }
    let mut refused = 0;
    for (lp, cfg) in &cases {
        let trip = cfg.hlo.default_trip_estimate;
        let compile = |obs: Observer| compile_loop_observed(lp, &machine, cfg, trip, obs);
        let silent = compile(Observer::disabled());
        let timer = PhaseTimer::new();
        let timed = compile(Observer::new(&Telemetry::disabled(), Some(&timer)));
        let tel = Telemetry::enabled();
        let traced = compile(Observer::new(&tel, None));

        let want = answer(&silent, cfg);
        let case = format!("{}/{}", lp.name(), cfg.policy);
        assert!(want == answer(&timed, cfg), "{case}: a timer changed it");
        assert!(want == answer(&traced, cfg), "{case}: a sink changed it");
        refused += usize::from(tel.metrics().counter("pipeliner.floor_rejections") > 0);
    }
    // The cases cover the path that differs: loops the floor refuses.
    assert!(refused > 0);
}
