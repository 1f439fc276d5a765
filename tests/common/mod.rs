//! What the golden tests share: the FNV-1a digest every pinned table is
//! written in, and one compare-or-bless routine.
//!
//! A pinned file is rewritten only under `LTSP_BLESS=1`; any other value
//! (or none) compares. Re-bless only for a change of *answer*, and review
//! the diff.

// Each test binary includes this module and uses a different part of it.
#![allow(dead_code)]

use std::ffi::OsStr;
use std::path::Path;

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
