//! What the integration tests share: the FNV-1a digest every pinned table
//! is written in, one compare-or-bless routine, a panicking wire client,
//! and [`Serve`], an `ltspc serve` process for the daemon tests.
//!
//! A pinned file is rewritten only under `LTSP_BLESS=1`; any other value
//! (or none) compares. Re-bless only for a change of *answer*, and review
//! the diff.

// Each test binary includes this module and uses a different part of it.
#![allow(dead_code)]

use std::ffi::OsStr;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// FNV-1a, 64-bit, fed incrementally.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// One word as its eight little-endian bytes.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// FNV-1a over words, each as its eight little-endian bytes.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.word(w);
    }
    h.0
}

/// Whether a value of `LTSP_BLESS` asks for pinned files to be
/// rewritten: only `1` does.
pub fn bless_requested(value: Option<&OsStr>) -> bool {
    value.is_some_and(|v| v == "1")
}

/// [`bless_requested`] of this process's environment.
pub fn blessing() -> bool {
    bless_requested(std::env::var_os("LTSP_BLESS").as_deref())
}

/// Compares `got` with the pinned file at `path`, or writes it when
/// [`blessing`]. A mismatch panics with the first drifted lines.
pub fn pin(path: &Path, got: impl AsRef<[u8]>) {
    let got = got.as_ref();
    let shown = path
        .strip_prefix(env!("CARGO_MANIFEST_DIR"))
        .unwrap_or(path)
        .display();
    if blessing() {
        std::fs::create_dir_all(path.parent().expect("a pinned file has a parent")).expect("mkdir");
        std::fs::write(path, got).expect("write pinned file");
        return;
    }
    let want = std::fs::read(path)
        .unwrap_or_else(|e| panic!("{shown}: {e}\nrun with LTSP_BLESS=1 to generate it"));
    if want == got {
        return;
    }
    let (want, got) = (String::from_utf8_lossy(&want), String::from_utf8_lossy(got));
    let drift: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .take(8)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    panic!(
        "{shown} drifted ({} lines pinned, {} now; re-bless with LTSP_BLESS=1 only if the \
         answer was meant to change):\n{}",
        want.lines().count(),
        got.lines().count(),
        drift.join("\n")
    );
}

/// A test's connection to a daemon or router: the library client
/// (`ltsp::server::client`), with every failure a panic.
pub struct Client(pub ltsp::server::client::Client);

impl Client {
    /// Connects with a generous per-response deadline, so a wedged server
    /// fails the test instead of hanging it.
    pub fn connect(addr: impl std::fmt::Display) -> Client {
        let deadline = Some(std::time::Duration::from_secs(120));
        Client(ltsp::server::client::Client::connect(&addr.to_string(), deadline).expect("connect"))
    }

    pub fn send(&mut self, line: &str) {
        self.0.send(line).expect("send request");
    }

    pub fn recv(&mut self) -> String {
        self.0.recv().expect("read response")
    }

    pub fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// A second handle on the connection, for writing raw bytes while
    /// this one reads.
    pub fn writer(&self) -> std::net::TcpStream {
        self.0.stream().try_clone().expect("clone the connection")
    }
}

/// Sends a `ping` nested 10 000 arrays deep (20 KB, which once overflowed
/// a connection thread's stack and aborted the whole process) to `addr`,
/// requires the JSON depth refusal, then a plain ping answered `ok` on the
/// same connection.
pub fn assert_deep_nesting_is_refused(addr: impl std::fmt::Display) {
    let depth = 10_000;
    let deep = format!(
        "{{\"op\":\"ping\",\"id\":\"deep\",\"x\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let mut c = Client::connect(addr);
    let refused = c.round_trip(&deep);
    assert!(refused.contains("\"status\":\"error\""), "{refused}");
    assert!(
        refused.contains("nesting deeper than 64 levels"),
        "{refused}"
    );
    let ping = c.round_trip(r#"{"op":"ping","id":"after"}"#);
    assert!(ping.contains("\"status\":\"ok\""), "{ping}");
}

/// An `ltspc serve` process (or `--cluster` supervisor). Dropped while
/// running, it is asked to drain (a cluster takes its shards down with
/// it) and killed if it is still running 10 s later.
pub struct Serve {
    child: Child,
    /// The `--addr` it listens on.
    pub addr: String,
}

impl Serve {
    /// Spawns `ltspc serve --addr 127.0.0.1:P ARGS` with `env` set and
    /// waits until P accepts connections. P and the `ports - 1` ports
    /// after it were free at spawn: a cluster's shards listen on P + 1 + i.
    /// Its stderr (injected panics are loud) goes to a file in the temp
    /// directory, quoted if it exits before listening.
    pub fn start(ports: u16, args: &[&str], env: &[(&str, &str)]) -> Serve {
        let mut ltspc = Command::new(env!("CARGO_BIN_EXE_ltspc"));
        ltspc.envs(env.iter().copied());
        Serve::launch(ports, ltspc, args)
    }

    /// [`Serve::start`] for one daemon limited to `fds` open file
    /// descriptors (`ulimit -n`).
    pub fn start_with_fd_limit(fds: u32, args: &[&str], env: &[(&str, &str)]) -> Serve {
        let mut sh = Command::new("sh");
        sh.envs(env.iter().copied());
        let limited = r#"ulimit -n "$0" && exec "$@""#;
        sh.args(["-c", limited, &fds.to_string(), env!("CARGO_BIN_EXE_ltspc")]);
        Serve::launch(1, sh, args)
    }

    fn launch(ports: u16, mut ltspc: Command, args: &[&str]) -> Serve {
        let port = free_ports(ports);
        let addr = format!("127.0.0.1:{port}");
        let log = std::env::temp_dir().join(format!("ltspc-serve-{port}.stderr"));
        let child = ltspc
            .args(["serve", "--addr", &addr])
            .args(args)
            .stdin(Stdio::null())
            .stderr(std::fs::File::create(&log).expect("create stderr log"))
            .spawn()
            .expect("spawn ltspc serve");
        let mut serve = Serve { child, addr };
        let t0 = Instant::now();
        while TcpStream::connect(&serve.addr).is_err() {
            if let Some(status) = serve.child.try_wait().expect("poll ltspc serve") {
                let stderr = std::fs::read_to_string(&log).unwrap_or_default();
                panic!("ltspc serve {args:?} exited ({status}) before listening:\n{stderr}");
            }
            assert!(t0.elapsed().as_secs() < 60, "{} never listened", serve.addr);
            std::thread::sleep(Duration::from_millis(50));
        }
        serve
    }

    /// Its process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Its Prometheus exposition (`{"op":"metrics"}`).
    pub fn metrics(&self) -> String {
        let mut c = Client::connect(&self.addr);
        c.0.metrics_text("test-metrics").expect("metrics op")
    }

    /// Sends `shutdown` (an injected fault may drop the ack), then waits
    /// for the process to exit, failing the test past 30 s.
    pub fn drain(&mut self) -> ExitStatus {
        self.ask_to_drain();
        self.exit_within(Duration::from_secs(30))
    }

    /// Waits for the process to exit by itself, failing the test past
    /// `limit`.
    pub fn exit_within(&mut self, limit: Duration) -> ExitStatus {
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("poll ltspc serve") {
                return status;
            }
            assert!(
                t0.elapsed() < limit,
                "{} still running after {limit:?}",
                self.addr
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn ask_to_drain(&self) {
        let deadline = Some(Duration::from_secs(5));
        if let Ok(mut c) = ltsp::server::client::Client::connect(&self.addr, deadline) {
            let _ = c.shutdown("test-drain");
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.ask_to_drain();
            let t0 = Instant::now();
            while matches!(self.child.try_wait(), Ok(None)) && t0.elapsed().as_secs() < 10 {
                std::thread::sleep(Duration::from_millis(50));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The first of `n` consecutive ports free on 127.0.0.1. They are drawn
/// below Linux's ephemeral range (32768 up), so no outgoing connection
/// takes one between this probe and the bind — nor while a killed shard
/// is respawned on its old port.
fn free_ports(n: u16) -> u16 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let base = std::process::id() % 1000 * 12;
    loop {
        let step = NEXT.fetch_add(u32::from(n), Ordering::Relaxed);
        let port = 20_000 + ((base + step) % 12_000) as u16;
        let held: Vec<TcpListener> = (port..port + n)
            .map_while(|p| TcpListener::bind(("127.0.0.1", p)).ok())
            .collect();
        if held.len() == usize::from(n) {
            return port;
        }
    }
}
