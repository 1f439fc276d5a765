//! The bench binaries refuse what they cannot run: an unknown flag, an
//! unknown experiment name, or a missing or malformed value prints the
//! usage line, exits 2 and writes nothing — before any work starts.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory, so "writes nothing" is checkable.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltsp-bad-args-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn refuses(bin: &str, usage: &str, cases: &[&[&str]]) {
    let dir = empty_dir(usage);
    for args in cases {
        let out = Command::new(bin)
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{usage} {args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(&format!("usage: {usage}"))),
            "{usage} {args:?} prints the usage line: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{usage} {args:?} ran something");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
        assert!(written.is_empty(), "{usage} {args:?} wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reproduce_refuses_bad_arguments() {
    refuses(
        env!("CARGO_BIN_EXE_reproduce"),
        "reproduce",
        &[
            &["--bogus"],
            &["fig99"],
            &["fig5", "--scale"],
            &["fig5", "--scale", "x"],
            &["fig5", "--scale", "-1"],
            &["fig5", "--jobs", "0"],
            &["fig5", "--trace-out"],
            &["fig5", "--bench-out"],
        ],
    );
}

#[test]
fn compile_phases_refuses_bad_arguments() {
    refuses(
        env!("CARGO_BIN_EXE_compile_phases"),
        "compile_phases",
        &[
            &["--bogus"],
            &["--repeat"],
            &["--repeat", "x"],
            &["--scale", "-3"],
            &["--max-regression", "two"],
            &["--out"],
        ],
    );
}
