//! A 20 000-instruction loop whose registers are numbered from
//! `g4000000000` up parses, prints and parses back to the same loop, and
//! the front end's peak memory stays in proportion to the text: nothing
//! is sized by a register number. (This file holds one test so that the
//! process's peak resident set is this test's alone.)

use ltsp_ir::{parse_loop, InstId, RegClass, VReg};

const INSTS: u32 = 20_000;
const BASE: u32 = 4_000_000_000;

/// Peak resident set of this process in KiB, where the platform says.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `i0` loads `g4000000000`; every later `ik` adds its predecessor's value
/// to its own from the previous iteration.
fn text() -> String {
    let mut t = String::from("loop big {\n  live_in g0\n");
    t += "  m0: \"a[i]\" [int affine(base=0x1000, stride=8) 8B]\n";
    t += &format!("  i0: ld g{BASE} = @m0\n");
    for k in 1..INSTS {
        let (r, prev) = (BASE + k, BASE + k - 1);
        t += &format!("  i{k}: add g{r} = g{prev}, g{r}[-1], g0\n");
    }
    t + "}"
}

#[test]
fn twenty_thousand_instructions_parse_in_bounded_memory() {
    let text = text();
    let before = peak_rss_kib();
    let lp = parse_loop(&text).expect("parses");
    let printed = lp.to_string();
    assert_eq!(printed, text, "prints as written");
    assert_eq!(parse_loop(&printed).expect("parses back"), lp);
    if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
        // A table indexed by register number would need gigabytes.
        assert!(
            after - before < 32 * 1024,
            "peak RSS grew {} KiB parsing {INSTS} instructions",
            after - before
        );
    }
    assert_eq!(lp.insts().len(), INSTS as usize);
    let last = VReg::new(RegClass::Gr, BASE + INSTS - 1);
    assert_eq!(lp.def_of(last), Some(InstId(INSTS - 1)));
    assert_eq!(lp.vreg_count(RegClass::Gr), INSTS as usize + 1);
}
