//! Register numbers arrive from outside text. The definition index a
//! loop carries is bounded by its instruction count, so a loop that names
//! `g4000000000` and `f4294967295` must parse, compile and report exactly
//! as the same loop numbered densely — without the numbers sizing any
//! table. (This file holds one test so that the process's peak resident
//! set is this test's alone.)

use ltsp::core::{compile_loop, CompileConfig, LatencyPolicy};
use ltsp::ir::{parse_loop, RegClass, VReg};
use ltsp::machine::MachineModel;
use ltsp::server::render_compile_report;

const DENSE: &str = r#"loop numbered {
  live_in g0, f0
  m0: "a[i]" [int affine(base=0x1000, stride=8) 8B]
  m1: "x[i]" [fp affine(base=0x200000, stride=8) 8B]
  m2: "y[i]" [fp affine(base=0x400000, stride=8) 8B]
  i0: ld g1 = @m0
  i1: add g2 = g1, g0
  i2: ldf f1 = @m1
  i3: fma f2 = f0, f1, f2[-1]
  i4: cmp p0 = g2, g0
  i5: (p0) stf f2 @m2
}"#;

/// Peak resident set of this process in KiB, where the platform says.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn reports(text: &str) -> Vec<String> {
    let machine = MachineModel::itanium2();
    let lp = parse_loop(text).expect("parses");
    assert_eq!(parse_loop(&lp.to_string()).expect("round-trips"), lp);
    [
        LatencyPolicy::Baseline,
        LatencyPolicy::AllLoadsL3,
        LatencyPolicy::AllFpLoadsL2,
        LatencyPolicy::HloHints,
    ]
    .into_iter()
    .map(|policy| {
        let cfg = CompileConfig::new(policy);
        let c = compile_loop(&lp, &machine, &cfg);
        assert!(c.pipelined, "{policy}");
        render_compile_report(&c, policy, cfg.hlo.default_trip_estimate)
    })
    .collect()
}

#[test]
fn huge_register_numbers_compile_like_dense_ones() {
    let hostile = DENSE
        .replace("g2", "g4000000000")
        .replace("g1", "g3999999999")
        .replace("f2", "f4294967295")
        .replace("p0", "p4294967295");
    let lp = parse_loop(&hostile).expect("parses");
    assert_eq!(
        lp.def_of(VReg::new(RegClass::Gr, 4_000_000_000)),
        Some(ltsp::ir::InstId(1))
    );
    assert_eq!(lp.def_of(VReg::new(RegClass::Gr, 2)), None);
    let dense = parse_loop(DENSE).expect("parses");
    for class in RegClass::ALL {
        assert_eq!(lp.vreg_count(class), dense.vreg_count(class));
    }

    let dense = reports(DENSE);
    let before = peak_rss_kib();
    assert_eq!(reports(&hostile), dense);
    if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
        // A table indexed by register number would need gigabytes.
        assert!(
            after - before < 16 * 1024,
            "peak RSS grew {} KiB compiling the hostile numbering",
            after - before
        );
    }
}
