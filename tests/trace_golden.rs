//! Golden table for the compiler's decision trail: pins what the compile
//! path *records* — HLO decisions, cycle enumeration, criticality
//! verdicts, every scheduling attempt, escalation and register fallback,
//! boost assignments, and every telemetry counter — so that a change to
//! how the trail is threaded through the layers can be proven to move
//! nothing.
//!
//! Cases: the kernel library and the six `scale_golden` shapes under the
//! four policies, and every library kernel with balanced recurrences.
//! Each is compiled on an enabled telemetry sink; a row pins the number
//! and digest of the normalized JSONL lines that are not spans
//! (wall-clock spans are the one part of a trace allowed to change
//! shape), and the digest of the metrics snapshot.
//!
//! ```text
//! LTSP_BLESS=1 cargo test --test trace_golden
//! ```

mod common;

use std::fmt::Write as _;
use std::path::PathBuf;

use ltsp::core::{compile_loop_observed, CompileConfig, LatencyPolicy};
use ltsp::ir::LoopIr;
use ltsp::machine::MachineModel;
use ltsp::telemetry::{normalize_trace, JsonValue, Observer, Telemetry};
use ltsp::workloads::{kernel_library, scheduling_heavy};

const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];
/// The `scale_golden` shapes, `(streams, depth)`.
const SHAPES: [(usize, usize); 6] = [(3, 15), (3, 16), (4, 11), (4, 12), (5, 9), (3, 10)];
const TRIP: f64 = 100.0;

fn cases() -> Vec<(String, LoopIr, CompileConfig)> {
    let mut out = Vec::new();
    let library = kernel_library();
    for (name, lp) in &library {
        for policy in POLICIES {
            out.push((
                format!("{name}/{policy}"),
                lp.clone(),
                CompileConfig::new(policy),
            ));
        }
    }
    for (streams, depth) in SHAPES {
        let lp = scheduling_heavy(&format!("heavy{streams}x{depth}"), streams, depth);
        for policy in POLICIES {
            out.push((
                format!("{}/{policy}", lp.name()),
                lp.clone(),
                CompileConfig::new(policy),
            ));
        }
    }
    for (name, lp) in &library {
        let cfg = CompileConfig::new(LatencyPolicy::AllLoadsL3).with_balanced_recurrences(true);
        out.push((format!("balanced:{name}"), lp.clone(), cfg));
    }
    out
}

fn compile_traced(lp: &LoopIr, machine: &MachineModel, cfg: &CompileConfig) -> Telemetry {
    let tel = Telemetry::enabled();
    compile_loop_observed(lp, machine, cfg, TRIP, Observer::new(&tel, None));
    tel
}

fn table() -> String {
    let machine = MachineModel::itanium2();
    let mut out = String::from("# case\tdecisions\tdigest\tmetrics\n");
    for (case, lp, cfg) in cases() {
        let tel = compile_traced(&lp, &machine, &cfg);
        let mut jsonl = Vec::new();
        tel.write_events_jsonl(&mut jsonl).expect("in-memory write");
        let normalized = normalize_trace(&String::from_utf8(jsonl).expect("UTF-8 trace"));
        let mut digest = common::Fnv::new();
        let mut decisions = 0;
        for line in normalized.lines() {
            let v = ltsp::telemetry::parse_json(line).expect("JSONL line");
            if v.get("type").and_then(JsonValue::as_str) == Some("span") {
                continue;
            }
            decisions += 1;
            digest.bytes(line.as_bytes());
            digest.bytes(b"\n");
        }
        let mut metrics = Vec::new();
        tel.write_metrics_json(&mut metrics)
            .expect("in-memory write");
        let _ = writeln!(
            out,
            "{case}\t{decisions}\t{:016x}\t{:016x}",
            digest.0,
            common::fnv(&metrics)
        );
    }
    out
}

#[test]
fn decision_trail_matches_the_golden_table() {
    let got = table();
    assert!(got.lines().count() > 100, "the case list shrank");
    common::pin(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/trace_golden/pins.tsv"),
        got,
    );
}

#[test]
fn only_ltsp_bless_1_rewrites_pinned_files() {
    use std::ffi::OsStr;
    assert!(!common::bless_requested(None));
    assert!(!common::bless_requested(Some(OsStr::new("0"))));
    assert!(!common::bless_requested(Some(OsStr::new(""))));
    assert!(common::bless_requested(Some(OsStr::new("1"))));
}
