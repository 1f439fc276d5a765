//! Golden table for the scale kernels: pins what the compiler *answers*
//! on `scheduling_heavy` shapes that straddle the 96-register line, so
//! that changes to how the fallback ladder gets there (pruning rungs
//! that cannot allocate, cheaper graph construction) can be proven to
//! move nothing.
//!
//! `scheduling_heavy(s, d)` defines `s·(2d+2)` values per class against a
//! rotating supply of 96: (3,15) and (4,11) pipeline at exactly GR 96 /
//! FR 96, (3,16) and (4,12) are one step over and fall back to the
//! acyclic schedule at II 141 / 110, (5,9) needs 100 and falls back too,
//! (3,10) pipelines with room at 66. The 34 fixtures in `tests/golden/`
//! cover only the small library kernels, none of which is ever rejected.
//!
//! Every case is text in, report out — `parse_loop` → `compile_loop` →
//! `render_compile_report` — and pins the report bytes, every schedule
//! time and the register allocation. After an intentional change to what
//! the scheduler or allocator *decides*, re-bless (and review the diff):
//!
//! ```text
//! LTSP_BLESS=1 cargo test --test scale_golden
//! ```

mod common;

use common::fnv_words;
use ltsp::core::{compile_loop, CompileConfig, LatencyPolicy};
use ltsp::ir::{parse_loop, InstId};
use ltsp::machine::MachineModel;
use ltsp::server::render_compile_report;
use ltsp::workloads::scheduling_heavy;
use std::fmt::Write as _;
use std::path::PathBuf;

const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];
/// `(streams, depth)`.
const SHAPES: [(usize, usize); 6] = [(3, 15), (3, 16), (4, 11), (4, 12), (5, 9), (3, 10)];

fn table() -> String {
    let machine = MachineModel::itanium2();
    let mut out = String::from(
        "# case\tpipelined\tii\tstages\tattempts\tgr\tfr\tpr\tregs_total\ttimes\treport\n",
    );
    for (streams, depth) in SHAPES {
        let name = format!("heavy{streams}x{depth}");
        let text = scheduling_heavy(&name, streams, depth).to_string();
        for policy in POLICIES {
            let cfg = CompileConfig::new(policy);
            let lp = parse_loop(&text).expect("printed loop parses back");
            let c = compile_loop(&lp, &machine, &cfg);
            let report = render_compile_report(&c, policy, cfg.hlo.default_trip_estimate);
            let times =
                fnv_words((0..c.kernel.len()).map(|i| c.kernel.time(InstId(i as u32)) as u64));
            let (gr, fr, pr) = c
                .regs
                .map_or((0, 0, 0), |r| (r.rotating_gr, r.rotating_fr, r.rotating_pr));
            let _ = writeln!(
                out,
                "{name}/{policy}\t{}\t{}\t{}\t{}\t{gr}\t{fr}\t{pr}\t{}\t{times:016x}\t{:016x}",
                c.pipelined,
                c.kernel.ii(),
                c.kernel.stage_count(),
                c.stats.map_or(0, |s| s.schedule_attempts),
                c.regs_total,
                fnv_words(report.bytes().map(u64::from)),
            );
        }
    }
    out
}

#[test]
fn scale_kernels_match_the_golden_table() {
    let got = table();
    common::pin(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scale_golden/pins.tsv"),
        &got,
    );
    // The table must hold what the header comment says it does:
    // (pipelined, II, rotating GR, rotating FR) of the baseline rows.
    let decided = |case: &str| {
        let row = got.lines().find(|l| l.starts_with(case));
        let f: Vec<&str> = row.expect("shape is in the table").split('\t').collect();
        (f[1], f[2], f[5], f[6])
    };
    assert_eq!(decided("heavy3x15/baseline"), ("true", "47", "96", "96"));
    assert_eq!(decided("heavy4x11/baseline"), ("true", "46", "96", "96"));
    assert_eq!(decided("heavy3x16/baseline"), ("false", "141", "0", "0"));
    assert_eq!(decided("heavy4x12/baseline"), ("false", "110", "0", "0"));
}
