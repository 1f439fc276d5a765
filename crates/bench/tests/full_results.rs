//! The full paper reproduction, byte for byte: `reproduce all --jobs 2
//! --no-bench` must print exactly `results/full_results.txt`. Any
//! simulator or compiler change that moves a reported number fails here;
//! `LTSP_BLESS=1` rewrites the file, for an intended change of answer
//! only (review the diff).

use std::path::Path;
use std::process::Command;

#[test]
fn full_reproduction_matches_the_committed_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["all", "--jobs", "2", "--no-bench"])
        .output()
        .expect("run reproduce");
    assert!(out.status.success(), "reproduce failed: {out:?}");
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/full_results.txt");
    if std::env::var_os("LTSP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&pinned, &out.stdout).expect("write results/full_results.txt");
        return;
    }
    let want = std::fs::read_to_string(&pinned).expect("results/full_results.txt");
    let got = String::from_utf8_lossy(&out.stdout);
    if want == got {
        return;
    }
    let drift: Vec<String> = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .filter(|(_, (w, g))| w != g)
        .take(8)
        .map(|(i, (w, g))| format!("  line {}\n  want {w}\n  got  {g}", i + 1))
        .collect();
    panic!(
        "results/full_results.txt drifted ({} lines pinned, {} now; re-bless with \
         LTSP_BLESS=1 only if the answer was meant to change):\n{}",
        want.lines().count(),
        got.lines().count(),
        drift.join("\n")
    );
}
