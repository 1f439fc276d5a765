//! CLI batch behavior: one malformed file in a `ltspc verify` batch
//! reports its own `file:line` diagnostic and exit status while the rest
//! of the batch still completes.

use std::process::Command;

fn ltspc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ltspc"))
}

#[test]
fn malformed_file_in_batch_is_non_fatal() {
    let dir = std::env::temp_dir().join(format!("ltsp-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("good.loop");
    let bad = dir.join("bad.loop");
    std::fs::write(&good, std::fs::read_to_string("loops/saxpy.loop").unwrap()).unwrap();
    std::fs::write(&bad, "loop broken {\n  this is not an instruction\n}\n").unwrap();

    let out = ltspc()
        .args(["verify", "--jobs", "2"])
        .arg(&good)
        .arg(&bad)
        .output()
        .expect("run ltspc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // The good file still verified...
    assert!(
        stdout.contains("certified"),
        "good file should complete: stdout={stdout} stderr={stderr}"
    );
    // ...the bad file reports a file:line diagnostic...
    assert!(
        stderr.contains("bad.loop:2:"),
        "diagnostic should carry file:line: {stderr}"
    );
    // ...and the batch exits with the syntax-error status.
    assert_eq!(out.status.code(), Some(4), "stderr={stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_jobs_is_a_clear_one_line_error() {
    for bad in ["0", "four", "-2"] {
        let out = ltspc()
            .args(["verify", "--jobs", bad, "loops/saxpy.loop"])
            .output()
            .expect("run ltspc");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--jobs {bad} should be a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let diag: Vec<&str> = stderr.lines().filter(|l| l.contains("jobs")).collect();
        assert_eq!(diag.len(), 1, "exactly one jobs diagnostic line: {stderr}");
        assert!(diag[0].contains(bad), "names the offending value: {stderr}");
    }
}

/// Runs `ltspc - --asm` on `scheduling_heavy(streams, depth)`.
fn asm_of_heavy(streams: usize, depth: usize) -> std::process::Output {
    heavy(streams, depth, &["--asm"])
}

/// Runs `ltspc - ARGS` on `scheduling_heavy(streams, depth)`.
fn heavy(streams: usize, depth: usize, args: &[&str]) -> std::process::Output {
    use std::io::Write as _;
    let lp = ltsp::workloads::scheduling_heavy(&format!("heavy{streams}x{depth}"), streams, depth);
    let mut child = ltspc()
        .arg("-")
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run ltspc");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(lp.to_string().as_bytes())
        .expect("write loop");
    drop(stdin);
    child.wait_with_output().expect("ltspc output")
}

#[test]
fn asm_of_an_unnameable_fallback_is_rejected() {
    // 102 GR values do not fit 96 rotating GRs even in the acyclic
    // fallback of the rejected loop.
    let out = asm_of_heavy(3, 16);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "register assignment failed: rotating GR allocation failed: need 102, have 96"
        ),
        "{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "stderr={stderr}");
}

/// A refinement that does not land says why. The exact backend cannot
/// name the 102 GR values of `scheduling_heavy(3,16)`'s acyclic fallback,
/// so tiered prints the exact backend's own answer, its violation
/// included; adaptive mode's fixpoint is uncertified, so it prints the
/// static answer and one line. Both exit 1.
#[test]
fn a_refinement_that_does_not_land_says_why() {
    let printed = |args: &[&str]| {
        let out = heavy(3, 16, args);
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (text(&out.stdout), text(&out.stderr), out.status.code())
    };
    let exact = printed(&["--backend", "exact"]);
    assert_eq!(exact.2, Some(1), "{exact:?}");
    assert!(exact.1.contains("[register-overflow]"), "{exact:?}");
    assert_eq!(printed(&["--backend", "tiered"]), exact);

    let (out, err, code) = printed(&["--adaptive"]);
    assert_eq!(code, Some(1), "{err}");
    assert_eq!(out, printed(&[]).0, "the static answer");
    assert_eq!(err, "ltspc: <stdin>: the refinement did not land\n");
}

#[test]
fn asm_header_states_the_reported_registers() {
    // At the register line: 96 GR and 96 FR, every one of them named.
    let out = asm_of_heavy(3, 15);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let field = |line: &str, key: &str| -> u32 {
        let at = line.find(key).expect(key) + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("count")
    };
    let report = stdout
        .lines()
        .find(|l| l.starts_with("registers:"))
        .expect("registers line");
    let header = stdout
        .lines()
        .find(|l| l.starts_with("// kernel:"))
        .expect("kernel header");
    for class in ["GR", "FR", "PR"] {
        assert_eq!(
            field(report, &format!("{class} ")),
            field(header, &format!("{class}=")),
            "{class}: {report} vs {header}"
        );
    }
    assert_eq!(field(report, "GR "), 96, "{report}");
}

/// A zero-byte gather element or chase node, which the simulator's address
/// streams would divide by, is refused as an invalid loop (exit 5) with a
/// one-line diagnostic, under `--simulate` as everywhere else.
#[test]
fn zero_size_patterns_are_invalid_loops_not_panics() {
    let dir = std::env::temp_dir().join(format!("ltsp-zero-size-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, from, to, want) in [
        (
            "gather_fp",
            "elem=8",
            "elem=0",
            "access pattern of m1 has elem=0",
        ),
        (
            "mcf_refresh",
            "node=64",
            "node=0",
            "access pattern of m0 has node=0",
        ),
    ] {
        let text = std::fs::read_to_string(format!("loops/{name}.loop")).unwrap();
        assert!(text.contains(from), "{name} has {from}");
        let file = dir.join(format!("{name}.loop"));
        std::fs::write(&file, text.replacen(from, to, 1)).unwrap();
        let out = ltspc()
            .arg(&file)
            .args(["--simulate", "20"])
            .output()
            .expect("run ltspc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(5), "{name}: stderr={stderr}");
        assert!(stderr.contains(want), "{name}: stderr={stderr}");
        assert!(!stderr.contains("panicked"), "{name}: stderr={stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
