//! `ltspc serve` usage errors: a zero where the daemon needs at least one,
//! and a per-process file asked of a whole cluster, exit 2 before
//! anything binds.

use std::process::Command;

fn serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .output()
        .expect("run ltspc serve")
}

#[test]
fn zero_is_a_usage_error_where_the_daemon_needs_one() {
    for flag in [
        "--batch",
        "--queue",
        "--outbound",
        "--flight-len",
        "--write-deadline-ms",
        "--persist-warn-mb",
        "--jobs",
    ] {
        let out = serve(&[flag, "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        let diag = stderr.lines().next().unwrap_or_default();
        assert!(diag.contains(&flag[2..]), "names the flag: {stderr}");
    }
}

#[test]
fn a_cluster_refuses_per_process_files() {
    for args in [
        ["--flight-dir", "d"],
        ["--trace-out", "t.jsonl"],
        ["--metrics-out", "m.json"],
        ["--persist", "p.log"],
    ] {
        let out = serve(&[&["--cluster", "2"][..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let diag = stderr.lines().next().unwrap_or_default();
        assert!(diag.contains(args[0]), "names the flag: {stderr}");
    }
}
