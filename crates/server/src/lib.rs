//! `ltspd` — the pipelining compiler as a service, run by `ltspc serve`.
//!
//! A dependency-free (std-only) threaded TCP daemon that exposes the
//! full pipeline — parse → HLO hints → DDG → modulo schedule → register
//! allocation → (optionally) oracle certification — over a
//! line-delimited JSON protocol, fronted by content-addressed schedule
//! caches with byte-budget LRU eviction, a bounded admission queue with
//! explicit backpressure, `--jobs` long-lived workers that answer each
//! job when it is done, per-request oracle deadlines, and graceful
//! drain.
//!
//! The serving layer inherits the repository's determinism contract:
//! every response is a pure function of its request, so the bytes a
//! client reads are identical at any server `--jobs`, and a cache hit
//! returns exactly the bytes the cold path produced. See [`proto`] for
//! the wire grammar, [`engine`] for cache key derivation, and
//! [`daemon`] for the backpressure state machine and drain semantics
//! (also DESIGN.md §12). [`framing`] is the accept-and-read loop of
//! every server of the protocol and frames lines for every reader of it,
//! [`client`] is its one client, and [`signal`] drains servers on
//! SIGTERM/SIGINT.

pub mod client;
mod counters;
pub mod daemon;
pub mod engine;
pub mod fault;
pub mod flight;
pub mod framing;
pub mod proto;
mod report;
pub mod signal;

pub use daemon::{spawn, ServerConfig, ServerHandle, SHARD_KILL_EXIT_CODE};
pub use engine::{Engine, EngineConfig};
pub use fault::{FaultPlan, FaultSite};
pub use flight::{normalize_flight_dump, read_dumps, FlightRecord, FlightRecorder};
pub use proto::{parse_request, Backend, Mode, ProtoError, ReqOp, Request, Response};
pub use report::{render_adaptive_report, render_compile_report};
