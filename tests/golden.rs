//! Golden snapshot tests: every committed `.loop` corpus file is compiled
//! under the Baseline and HloHints policies and its full kernel artifact —
//! II, stage count, per-slot placement, register assignment and emitted
//! kernel code — is compared byte-for-byte against a fixture in
//! `tests/golden/`.
//!
//! Any intentional change to scheduling, allocation or emission must
//! re-bless the fixtures (and the diff lands in review, where it belongs):
//!
//! ```text
//! LTSP_BLESS=1 cargo test --test golden
//! ```

mod common;

use ltsp::core::{compile_loop_with_profile, CompileConfig, LatencyPolicy};
use ltsp::machine::MachineModel;
use ltsp::pipeliner::{assign_registers, emit_kernel};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The trip-count estimate every snapshot compiles against (long enough
/// that thresholds never suppress a policy's boosts).
const TRIP: f64 = 100.0;

fn repo_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn corpus() -> Vec<(String, ltsp::ir::LoopIr)> {
    let dir = repo_dir().join("loops");
    let mut loops: Vec<(String, ltsp::ir::LoopIr)> = std::fs::read_dir(&dir)
        .expect("loops/ corpus exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "loop"))
        .map(|e| {
            let stem = e
                .path()
                .file_stem()
                .expect("loop file has a stem")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(e.path()).expect("readable");
            let lp = ltsp::ir::parse_loop(&text)
                .unwrap_or_else(|err| panic!("{}: {err}", e.path().display()));
            (stem, lp)
        })
        .collect();
    loops.sort_by(|a, b| a.0.cmp(&b.0));
    loops
}

/// Renders one loop × policy snapshot: the complete, deterministic kernel
/// artifact a compiler engineer would diff after a scheduler change.
fn snapshot(lp: &ltsp::ir::LoopIr, machine: &MachineModel, policy: LatencyPolicy) -> String {
    let cfg = CompileConfig::new(policy);
    let compiled = compile_loop_with_profile(lp, machine, &cfg, TRIP);
    let mut s = String::new();
    let _ = writeln!(s, "loop: {}", lp.name());
    let _ = writeln!(s, "policy: {policy}");
    let _ = writeln!(s, "trip-estimate: {TRIP}");
    let _ = writeln!(s, "pipelined: {}", compiled.pipelined);
    let _ = writeln!(s, "II: {}", compiled.kernel.ii());
    let _ = writeln!(s, "stages: {}", compiled.kernel.stage_count());
    if let Some(stats) = &compiled.stats {
        let _ = writeln!(
            s,
            "mii: res={} rec={}  boosted={} critical={} attempts={}",
            stats.res_mii,
            stats.rec_mii,
            stats.boosted_loads,
            stats.critical_loads,
            stats.schedule_attempts
        );
    }
    if let Some(regs) = &compiled.regs {
        let _ = writeln!(
            s,
            "registers: GR {} FR {} PR {} (rotating)",
            regs.rotating_gr, regs.rotating_fr, regs.rotating_pr
        );
    }
    let _ = writeln!(s, "--- kernel ---");
    s.push_str(&compiled.kernel.dump(&compiled.lp));
    let _ = writeln!(s, "--- emitted ---");
    match assign_registers(&compiled.lp, &compiled.kernel, machine) {
        Ok(assign) => s.push_str(&emit_kernel(&compiled.lp, &compiled.kernel, &assign)),
        Err(e) => {
            let _ = writeln!(s, "register assignment failed: {e}");
        }
    }
    s
}

fn fixture_path(stem: &str, policy: LatencyPolicy) -> PathBuf {
    let tag = match policy {
        LatencyPolicy::Baseline => "baseline",
        LatencyPolicy::HloHints => "hlo",
        other => panic!("no fixture tag for policy {other}"),
    };
    repo_dir().join(format!("tests/golden/{stem}__{tag}.txt"))
}

fn check_policy(policy: LatencyPolicy) {
    let machine = MachineModel::itanium2();
    let corpus = corpus();
    assert!(corpus.len() >= 17, "corpus should cover the kernel library");
    for (stem, lp) in &corpus {
        common::pin(&fixture_path(stem, policy), snapshot(lp, &machine, policy));
    }
}

#[test]
fn golden_baseline_kernels() {
    check_policy(LatencyPolicy::Baseline);
}

#[test]
fn golden_hlo_kernels() {
    check_policy(LatencyPolicy::HloHints);
}

/// The fixture directory must not accumulate orphans: every file there
/// corresponds to a current corpus loop × policy.
#[test]
fn golden_fixtures_have_no_orphans() {
    let dir = repo_dir().join("tests/golden");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // not yet blessed; the snapshot tests will say so
    };
    let corpus = corpus();
    let expected: std::collections::BTreeSet<String> = corpus
        .iter()
        .flat_map(|(stem, _)| ["baseline", "hlo"].map(|tag| format!("{stem}__{tag}.txt")))
        .collect();
    for e in entries.filter_map(Result::ok) {
        let name = e.file_name().to_string_lossy().into_owned();
        assert!(
            expected.contains(&name),
            "orphan fixture tests/golden/{name}: no matching loops/*.loop"
        );
    }
}
