//! End-to-end smoke test for the telemetry artifacts: run the `ltspc`
//! binary on small loops with `--trace-out`/`--metrics-out`/
//! `--chrome-trace`, then parse what it wrote and validate the event
//! schema, the per-phase compile spans and the cycle-accounting partition
//! invariant. Also: the compile phases' spans and the phase timer are one
//! measurement.

use std::path::Path;
use std::process::Command;

use ltsp::core::{compile_loop_observed, CompileConfig, LatencyPolicy, RunConfig};
use ltsp::machine::MachineModel;
use ltsp::telemetry::json::{parse, JsonValue};
use ltsp::telemetry::{Observer, Phase, PhaseTimer, Telemetry};
use ltsp::workloads::kernel_library;

const LOOP_TEXT: &str = r#"loop chase {
  live_in g0
  m0: "a[i]" [int affine(base=0x1000, stride=256) 4B]
  m1: "y[i]" [int affine(base=0x2000000, stride=4) 4B]
  i0: ld g1 = @m0
  i1: add g2 = g1, g0
  i2: st g2 @m1
}
"#;

fn counter(metrics: &JsonValue, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("metrics counter {name} missing"))
}

/// The compile phases, each of which leaves a `<phase>:<loop>` span.
const COMPILE_PHASES: [Phase; 5] = [
    Phase::Hlo,
    Phase::Ddg,
    Phase::Mrt,
    Phase::Sched,
    Phase::Regalloc,
];

#[test]
fn ltspc_emits_parseable_decision_trace_and_metrics() {
    let dir = std::env::temp_dir().join(format!("ltsp-tel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let chase = dir.join("chase.loop");
    std::fs::write(&chase, LOOP_TEXT).unwrap();
    check_artifacts(&chase, "chase", &dir);
    let saxpy = Path::new(env!("CARGO_MANIFEST_DIR")).join("loops/saxpy.loop");
    check_artifacts(&saxpy, "saxpy", &dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `ltspc` on one loop file under `--policy l3` with every telemetry
/// artifact requested, and checks what it wrote.
fn check_artifacts(loop_path: &Path, loop_name: &str, dir: &Path) {
    let trace_path = dir.join(format!("{loop_name}.trace.jsonl"));
    let metrics_path = dir.join(format!("{loop_name}.metrics.json"));
    let chrome_path = dir.join(format!("{loop_name}.chrome.json"));

    let status = Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .arg(loop_path)
        .args(["--policy", "l3", "--trip", "1000", "--simulate", "2000"])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--chrome-trace")
        .arg(&chrome_path)
        .status()
        .expect("ltspc runs");
    assert!(status.success(), "ltspc exited with {status}");

    // --- JSONL trace: every line parses; the decision events carry the
    // fields the schema promises.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let mut boosts = 0;
    let mut spans = Vec::new();
    let mut kinds = Vec::new();
    for line in trace.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let ty = v
            .get("type")
            .and_then(JsonValue::as_str)
            .expect("type field");
        kinds.push(ty.to_string());
        match ty {
            "span" => {
                let name = v
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .expect("span name");
                spans.push(name.to_string());
                assert!(v.get("dur_us").and_then(JsonValue::as_u64).is_some());
            }
            "boost_assigned" => {
                boosts += 1;
                for field in ["loop", "load", "heuristic"] {
                    assert!(
                        v.get(field).and_then(JsonValue::as_str).is_some(),
                        "boost_assigned missing string field {field}: {line}"
                    );
                }
                for field in ["base_latency", "scheduled_latency", "k", "boost", "ii"] {
                    assert!(
                        v.get(field).and_then(JsonValue::as_u64).is_some(),
                        "boost_assigned missing numeric field {field}: {line}"
                    );
                }
                assert!(v.get("slack").and_then(JsonValue::as_f64).is_some());
                let k = v.get("k").and_then(JsonValue::as_u64).unwrap();
                let ii = v.get("ii").and_then(JsonValue::as_u64).unwrap();
                let boost = v.get("boost").and_then(JsonValue::as_u64).unwrap();
                assert_eq!(boost, (k - 1) * ii, "d = (k-1)*II");
            }
            _ => {
                assert!(
                    v.get("ts_us").and_then(JsonValue::as_u64).is_some(),
                    "event without timestamp: {line}"
                );
            }
        }
    }
    assert!(boosts >= 1, "at least one boosted load traced: {kinds:?}");
    // One span per timed region: every compile phase, then the simulation.
    for phase in COMPILE_PHASES
        .map(Phase::name)
        .into_iter()
        .chain(["simulate"])
    {
        assert!(
            spans.contains(&format!("{phase}:{loop_name}")),
            "{phase}:{loop_name} span expected: {spans:?}"
        );
    }
    assert!(
        kinds.iter().any(|k| k == "criticality_verdict"),
        "criticality verdicts traced: {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k == "schedule_attempt"),
        "schedule attempts traced: {kinds:?}"
    );

    // --- Metrics snapshot: the stall buckets partition the total, exactly
    // as CycleCounters::is_consistent checks in-process.
    let metrics = parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let total = counter(&metrics, "sim.cycles.total");
    let partition = counter(&metrics, "sim.cycles.unstalled")
        + counter(&metrics, "sim.cycles.be_exe_bubble")
        + counter(&metrics, "sim.cycles.be_l1d_fpu_bubble")
        + counter(&metrics, "sim.cycles.be_rse_bubble")
        + counter(&metrics, "sim.cycles.be_flush_bubble")
        + counter(&metrics, "sim.cycles.fe_bubble");
    assert_eq!(total, partition, "stall buckets partition total cycles");
    assert!(counter(&metrics, "compile.boosted_loads") >= 1);

    // --- Chrome trace: valid JSON with a traceEvents array of phases.
    let chrome = parse(&std::fs::read_to_string(&chrome_path).unwrap()).unwrap();
    let events = chrome
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")));
}

#[test]
fn compile_phase_spans_sum_to_the_phase_timer() {
    let m = MachineModel::itanium2();
    for (_, lp) in kernel_library() {
        for policy in [
            LatencyPolicy::Baseline,
            LatencyPolicy::AllLoadsL3,
            LatencyPolicy::AllFpLoadsL2,
            LatencyPolicy::HloHints,
        ] {
            let (tel, timer) = (Telemetry::enabled(), PhaseTimer::new());
            let obs = Observer::new(&tel, Some(&timer));
            compile_loop_observed(&lp, &m, &CompileConfig::new(policy), 100.0, obs);
            let spans = tel.spans();
            let mut covered = 0;
            for phase in COMPILE_PHASES {
                let name = format!("{}:{}", phase.name(), lp.name());
                let of_phase: Vec<u64> = spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_us)
                    .collect();
                assert!(!of_phase.is_empty(), "no {name} span under {policy}");
                assert_eq!(
                    of_phase.iter().sum::<u64>(),
                    timer.get_us(phase),
                    "{name} under {policy}: spans and timer disagree"
                );
                covered += of_phase.len();
            }
            assert_eq!(covered, spans.len(), "only compile-phase spans");
        }
    }
}

#[test]
fn disabled_telemetry_is_bit_identical() {
    use ltsp::workloads::find_benchmark;

    let m = MachineModel::itanium2();
    let bench = find_benchmark("429.mcf").unwrap();
    let rc_off = RunConfig::new(CompileConfig::new(LatencyPolicy::HloHints)).with_entry_scale(0.05);
    let tel = Telemetry::enabled();
    let rc_on = RunConfig::new(CompileConfig::new(LatencyPolicy::HloHints))
        .with_entry_scale(0.05)
        .with_telemetry(&tel);

    let off = ltsp::core::run_benchmark(&bench, &m, &rc_off);
    let on = ltsp::core::run_benchmark(&bench, &m, &rc_on);
    assert_eq!(
        off.loop_cycles, on.loop_cycles,
        "telemetry is observational: identical simulated cycles"
    );
    for (a, b) in off.loops.iter().zip(&on.loops) {
        assert_eq!(a.counters, b.counters, "loop {} counters differ", a.name);
    }
    assert!(!tel.events().is_empty(), "the traced run recorded events");
    let metrics = tel.metrics();
    assert_eq!(
        metrics.counter("sim.cycles.total"),
        on.counters().total,
        "exported totals match the harness counters"
    );
}
