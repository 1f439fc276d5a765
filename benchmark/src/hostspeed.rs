//! A host-speed probe, so that timings taken on a shared, noisy host can
//! be compared at all.
//!
//! The hosts this benchmark runs on change speed under it: the same
//! single-threaded work takes anything from 1× to 2× as long from one
//! minute to the next, in spells of seconds to minutes, and code that
//! allocates and walks memory slows more than pure arithmetic does. A raw
//! wall-clock time then says more about the neighbours than about the
//! program.
//!
//! The probe is a fixed chunk of work shaped like the programs measured
//! here — small allocations, a hash map of deques searched from the back,
//! set-associative LRU probing over about a megabyte — that lives in the
//! benchmark and therefore never changes when the repository does. Chunks
//! are interleaved with the measured operations (about a tenth of the
//! time), and every reported time is divided by the *slowdown*: the mean
//! chunk time observed beside it over [`REFERENCE_CHUNK_NS`], the chunk's
//! time on the reference host at its fastest. In a five-minute trial on
//! that host, raw timings of the simulator and the compiler spread 16–19%
//! (inter-quartile, relative to the median) while the same timings over
//! the probe spread 2.6–3.2%.
//!
//! What is reported is thus "time at reference host speed". The raw
//! numbers and the slowdown itself are kept beside it in the result file.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Time of one chunk on the reference host (Xeon @ 2.1 GHz, 2 vCPU) in
/// its fastest state. Only ratios between runs matter, so on another
/// host this merely rescales every time by the same constant.
pub const REFERENCE_CHUNK_NS: f64 = 430_000.0;
/// Inner iterations per chunk.
const CHUNK_ITERS: i64 = 250;
/// Work between probes: a chunk runs once this much time has gone by
/// since the last one ended (so chunks take about a tenth of the time).
const PROBE_EVERY: Duration = Duration::from_millis(4);
/// Chunks run (and discarded) at construction, until the tables are full.
const WARMUP_CHUNKS: usize = 64;

const SETS: usize = 8192;
const WAYS: usize = 12;
const REGS: u32 = 24;
const WINDOW: usize = 300;

/// The probe's state and the chunk times it has observed.
pub struct HostSpeed {
    sets: Vec<Vec<u64>>,
    ready: HashMap<u32, VecDeque<(i64, u64)>>,
    x: u64,
    iter: i64,
    last_end: Instant,
    chunk_ns: u64,
    chunks: u64,
    /// Never reset: the whole run's chunks, for [`HostSpeed::overall`].
    total_ns: u64,
    total_chunks: u64,
    sink: u64,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut h = HostSpeed {
            sets: vec![Vec::new(); SETS],
            ready: HashMap::new(),
            x: 0x9E37_79B9_7F4A_7C15,
            iter: 0,
            last_end: Instant::now(),
            chunk_ns: 0,
            chunks: 0,
            total_ns: 0,
            total_chunks: 0,
            sink: 0,
        };
        for _ in 0..WARMUP_CHUNKS {
            h.chunk();
        }
        h
    }

    /// One chunk of fixed work.
    fn chunk(&mut self) {
        let mut acc = 0u64;
        for _ in 0..CHUNK_ITERS {
            let it = self.iter;
            self.iter += 1;
            // An issue group: a short-lived vector of active slots.
            let active: Vec<u32> = (0..6).filter(|s| (it + i64::from(*s)) % 7 != 0).collect();
            for &a in &active {
                // Stall-on-use: latest ready time among three sources,
                // each searched from the back of its register's window.
                // (A heap-allocated list on purpose: the programs measured
                // allocate one per instruction.)
                #[allow(clippy::useless_vec)]
                let srcs = vec![(a, 0i64), ((a + 3) % REGS, 1), ((a + 11) % REGS, 0)];
                let ready_at = srcs
                    .iter()
                    .filter_map(|&(r, omega)| {
                        self.ready
                            .get(&r)?
                            .iter()
                            .rev()
                            .find(|&&(i, _)| i == it - omega)
                            .map(|&(_, t)| t)
                    })
                    .max()
                    .unwrap_or(0);
                acc = acc.wrapping_add(ready_at);
                // A memory access: a strided stream on even slots, a
                // random walk over 64 MiB on odd ones, against an MRU-
                // ordered set-associative tag array.
                self.x ^= self.x << 13;
                self.x ^= self.x >> 7;
                self.x ^= self.x << 17;
                let addr = if a % 2 == 0 {
                    (u64::from(a) << 28) + it as u64 * 64
                } else {
                    self.x >> 38
                };
                let line = addr >> 7;
                let ways = &mut self.sets[(line as usize) % SETS];
                if let Some(pos) = ways.iter().position(|&t| t == line) {
                    let tag = ways.remove(pos);
                    ways.insert(0, tag);
                } else {
                    if ways.len() == WAYS {
                        ways.pop();
                    }
                    ways.insert(0, line);
                    acc += 1;
                }
                let q = self.ready.entry((a + it as u32) % REGS).or_default();
                q.push_back((it, acc & 0xffff));
                if q.len() > WINDOW {
                    q.pop_front();
                }
            }
        }
        self.sink = self.sink.wrapping_add(acc);
    }

    /// Runs one chunk and books its time.
    pub fn probe(&mut self) {
        let t0 = Instant::now();
        self.chunk();
        let end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        self.chunk_ns += ns;
        self.chunks += 1;
        self.total_ns += ns;
        self.total_chunks += 1;
        self.last_end = end;
    }

    /// Runs a chunk if enough work has gone by since the last one.
    /// `now` is a timestamp the caller already has (the end of the
    /// operation it just timed). Returns the time the chunk took, which
    /// the caller leaves out of its own wall time.
    pub fn maybe_probe(&mut self, now: Instant) -> Duration {
        if now.saturating_duration_since(self.last_end) < PROBE_EVERY {
            return Duration::ZERO;
        }
        let before = self.chunk_ns;
        self.probe();
        Duration::from_nanos(self.chunk_ns - before)
    }

    /// The slowdown over the chunks booked since the last `take` (1.0
    /// when there were none), which are then forgotten.
    pub fn take(&mut self) -> f64 {
        let s = if self.chunks == 0 {
            1.0
        } else {
            self.chunk_ns as f64 / self.chunks as f64 / REFERENCE_CHUNK_NS
        };
        self.chunk_ns = 0;
        self.chunks = 0;
        std::hint::black_box(self.sink);
        s
    }

    /// The slowdown over every chunk of the run.
    pub fn overall(&self) -> f64 {
        if self.total_chunks == 0 {
            1.0
        } else {
            self.total_ns as f64 / self.total_chunks as f64 / REFERENCE_CHUNK_NS
        }
    }
}
