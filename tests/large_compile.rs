//! An 8 000-store fan — one live-in value stored 8 000 times to one
//! stride-0 reference, a 159 KB request — compiles under every policy in
//! memory that grows with the loop, not with its square: no analysis
//! keeps an n × n matrix or a row per cycle of the summed latencies.
//! (This file holds one test so that the process's peak resident set is
//! this test's alone.)

use ltsp::core::{compile_loop, CompileConfig, LatencyPolicy};
use ltsp::ddg::Ddg;
use ltsp::ir::parse_loop;
use ltsp::machine::MachineModel;
use ltsp::oracle::validate_schedule;

const STORES: usize = 8_000;

/// Peak resident set of this process in KiB, where the platform says.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn text() -> String {
    let mut t = String::from("loop fan {\n  live_in f0\n");
    t += "  m0: \"x\" [fp affine(base=0x1000, stride=0) 8B]\n";
    for k in 0..STORES {
        t += &format!("  i{k}: stf f0 @m0\n");
    }
    t + "}"
}

#[test]
fn an_eight_thousand_store_fan_compiles_in_bounded_memory() {
    let m = MachineModel::itanium2();
    let lp = parse_loop(&text()).expect("parses");
    let before = peak_rss_kib();
    let policies = [
        LatencyPolicy::Baseline,
        LatencyPolicy::AllLoadsL3,
        LatencyPolicy::AllFpLoadsL2,
        LatencyPolicy::HloHints,
    ];
    for policy in policies {
        let c = compile_loop(&lp, &m, &CompileConfig::new(policy));
        // Two M slots: the stores need 4 000 cycles, pipelined or not.
        assert!(c.kernel.ii() >= (STORES / 2) as u32, "{policy:?}");
        if c.pipelined {
            let ddg = Ddg::build(&c.lp, &m, &|id| {
                c.scheduled_load_latency_of(&m, id).unwrap_or(0)
            });
            validate_schedule(&c.lp, &ddg, &c.kernel, &m)
                .unwrap_or_else(|v| panic!("{policy:?}: {v:?}"));
        }
    }
    if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
        // An n × n matrix of i64 alone is 488 MiB here.
        assert!(
            after - before < 64 * 1024,
            "peak RSS grew {} KiB compiling {STORES} stores",
            after - before
        );
    }
}
