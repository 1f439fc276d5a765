//! The adaptive loop's contract over the whole kernel library: the
//! refinement fixpoint lands within the round cap, every intermediate
//! schedule is validator-certified, the converged II never regresses
//! the static heuristic, and the round-by-round trace is byte-identical
//! at any `--jobs` level — locally and through the server's
//! `"mode":"adaptive"` upgrade path.

mod common;

use common::Client;

use ltsp::adaptive::{compile_loop_adaptive, AdaptiveOptions};
use ltsp::core::{CompileConfig, LatencyPolicy};
use ltsp::machine::MachineModel;
use ltsp::server::{render_adaptive_report, spawn, EngineConfig, ServerConfig, ServerHandle};
use ltsp::telemetry::{json, Telemetry};
use ltsp::workloads::kernel_library;

const TRIP: f64 = 256.0;

fn adaptive_report(lp: &ltsp::ir::LoopIr) -> ltsp::adaptive::AdaptiveResult {
    let machine = MachineModel::itanium2();
    let cfg = CompileConfig::new(LatencyPolicy::HloHints);
    compile_loop_adaptive(
        lp,
        &machine,
        &cfg,
        TRIP,
        &AdaptiveOptions::default(),
        &Telemetry::disabled(),
    )
}

/// Every library kernel reaches the observation fixpoint within the
/// round cap (`1 + max_rounds` compiles), rather than being cut off.
#[test]
fn library_reaches_fixpoint_within_the_round_cap() {
    let opts = AdaptiveOptions::default();
    let lib = kernel_library();
    assert!(lib.len() >= 17, "library shrank to {}", lib.len());
    for (name, lp) in &lib {
        let res = adaptive_report(lp);
        assert!(
            res.rounds.len() <= 1 + opts.max_rounds as usize,
            "{name}: {} rounds exceeds the 1+{} cap",
            res.rounds.len(),
            opts.max_rounds
        );
        assert!(
            res.converged,
            "{name}: hit the round cap without reaching a fixpoint"
        );
    }
}

/// The safety half of the contract: every round of every kernel is
/// certified by the independent validator, and the chosen (converged)
/// schedule never regresses the static heuristic's II.
#[test]
fn converged_ii_never_regresses_and_every_round_is_certified() {
    for (name, lp) in &kernel_library() {
        let res = adaptive_report(lp);
        assert!(res.all_certified(), "{name}: an uncertified round survived");
        assert!(res.chosen().certified, "{name}: chose an uncertified round");
        assert!(
            res.ii() <= res.static_ii(),
            "{name}: adaptive II {} regressed static II {}",
            res.ii(),
            res.static_ii()
        );
    }
}

/// The full rendered round trace (round indices, IIs, overlay coverage,
/// stall counts) is byte-identical whether the library is compiled on a
/// 1-worker or a 4-worker pool: nothing in the adaptive loop samples
/// the host or its scheduling.
#[test]
fn round_traces_are_byte_identical_across_jobs() {
    let run = |jobs: usize| -> Vec<String> {
        let lib = kernel_library();
        ltsp::par::Pool::new(jobs).map(&lib, |_, (_, lp)| {
            render_adaptive_report(&adaptive_report(lp), LatencyPolicy::HloHints, TRIP)
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a, b, "round trace diverged across --jobs");
    }
}

fn start(jobs: usize) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        engine: EngineConfig::default(),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// The response body after the envelope (`id`/`status`/`cache` fields),
/// so bodies compare across differing ids and cache tags.
fn body_after_cache(line: &str) -> &str {
    let cache = line.find("\"cache\":\"").expect("cache field");
    let rest = &line[cache + 9..];
    let end = rest.find('"').expect("cache tag closes");
    &rest[end + 1..]
}

/// Over TCP at `--jobs` 1 and 4: an adaptive compile answers instantly
/// with the static schedule, the refine worker upgrades the entry in
/// place, and the upgraded bytes are byte-identical across worker
/// counts (the serving layer adds no nondeterminism on top of the
/// already-deterministic refinement).
#[test]
fn adaptive_upgrade_bytes_are_jobs_invariant() {
    let run = |jobs: usize| -> (String, String) {
        let handle = start(jobs);
        let mut c = Client::connect(handle.addr());
        let text = ltsp::workloads::saxpy("s").to_string();
        let line = format!(
            "{{\"op\":\"compile\",\"id\":\"a\",\"loop\":\"{}\",\"mode\":\"adaptive\"}}",
            json::escape(&text)
        );
        let cold = c.round_trip(&line);
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        assert!(cold.contains("\"mode\":\"adaptive\""), "{cold}");
        assert!(cold.contains("\"refined\":false"), "{cold}");
        let static_body = body_after_cache(&cold).to_string();
        let mut upgraded = String::new();
        for _ in 0..400 {
            let warm = c.round_trip(&line);
            if warm.contains("\"cache\":\"upgraded\"") {
                upgraded = body_after_cache(&warm).to_string();
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(!upgraded.is_empty(), "upgrade never landed at jobs={jobs}");
        assert_ne!(upgraded, static_body, "the upgrade really changed bytes");
        assert!(upgraded.contains("\"refined\":true"), "{upgraded}");
        assert!(upgraded.contains("\"certified\":true"), "{upgraded}");
        handle.shutdown();
        (static_body, upgraded)
    };
    let (s1, u1) = run(1);
    let (s4, u4) = run(4);
    assert_eq!(s1, s4, "static bytes diverged across --jobs");
    assert_eq!(u1, u4, "upgraded bytes diverged across --jobs");
}
