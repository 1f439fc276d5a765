//! `ltspc` usage errors and `ltspc serve` end to end: an unknown flag, a
//! zero where the daemon needs at least one, and a per-process file asked
//! of a whole cluster exit 2 before anything binds or is read; a compile
//! served by `ltspc serve` and fetched with `ltspc remote` is byte-identical
//! to the local compile.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn ltspc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run ltspc")
}

fn serve(args: &[&str]) -> Output {
    ltspc(&[&["serve", "--addr", "127.0.0.1:0"][..], args].concat())
}

fn corpus(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("loops")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let saxpy = corpus("saxpy.loop");
    for args in [&["--speculate"][..], &["--bogus"], &[&saxpy, "--speculate"]] {
        let out = ltspc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: ltspc"), "{args:?}: {stderr}");
    }
    // `-` is stdin, not a flag.
    let out = Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .arg("-")
        .stdin(std::fs::File::open(&saxpy).expect("corpus loop"))
        .output()
        .expect("run ltspc -");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(out.stdout, ltspc(&[&saxpy]).stdout);
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

/// An `ltspc serve` process, killed if the test fails before it drains.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start() -> Daemon {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("pick a free port")
            .to_string();
        let child = Command::new(env!("CARGO_BIN_EXE_ltspc"))
            .args(["serve", "--addr", &addr, "--jobs", "2"])
            .stdin(Stdio::null())
            .spawn()
            .expect("spawn ltspc serve");
        let t0 = Instant::now();
        while TcpStream::connect(&addr).is_err() {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "ltspc serve on {addr} never started listening"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn remote_compile_is_byte_identical_to_local() {
    let mut daemon = Daemon::start();
    for backend in ["heuristic", "exact"] {
        for name in ["saxpy.loop", "mcf_refresh.loop"] {
            let file = corpus(name);
            let local = ltspc(&[&file, "--backend", backend]);
            let remote = ltspc(&["remote", &daemon.addr, &file, "--backend", backend]);
            assert_eq!(local.status.code(), Some(0), "{name} {backend}: {local:?}");
            assert_eq!(
                remote.status.code(),
                Some(0),
                "{name} {backend}: {remote:?}"
            );
            assert!(!local.stdout.is_empty());
            assert_eq!(
                String::from_utf8_lossy(&remote.stdout),
                String::from_utf8_lossy(&local.stdout),
                "{name} under --backend {backend}: remote differs from local"
            );
        }
    }
    let out = ltspc(&["remote", &daemon.addr, "--shutdown"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(daemon.child.wait().expect("reap ltspc serve").success());
}
