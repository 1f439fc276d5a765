//! # ltsp-cluster — sharded serving for `ltspd`
//!
//! One daemon process (`ltspc serve`) is the single-machine serving
//! ceiling, and its caches die with it. This crate scales the serving
//! layer out while keeping every protocol guarantee the single process
//! makes:
//!
//! - [`ring`] — a consistent-hash ring over the workspace's
//!   content-addressed fingerprints ([`ltsp_cache::Fingerprint`]).
//!   Requests for the same loop always land on the same shard, so each
//!   shard's compile/result caches stay hot for its slice of the key
//!   space and the cluster-wide hit rate matches a single process's.
//! - [`router`] — `ltspr`, a line-JSON proxy speaking the exact
//!   `ltspd` wire protocol, accepting and framing client lines with the
//!   daemon's own loops and cap and reaching its shards through
//!   `ltsp_server::client`. It forwards the client's raw request line
//!   and the shard's raw response line **byte-for-byte** (responses are
//!   pure functions of requests, so the determinism contract survives
//!   the extra hop), and fails over with bounded retry when a shard is
//!   dead, draining, or overloaded. Exhausted retries answer `error` —
//!   a request is never silently dropped.
//! - [`supervisor`] — cluster lifecycle glue behind
//!   `ltspc serve --cluster N`: spawns the shard processes (each an
//!   `ltspc serve` given every shard flag verbatim), respawns
//!   crashed ones (each shard's persistent cache log makes the respawn
//!   warm — see [`ltsp_cache::persist`]), propagates graceful drain,
//!   and reaps everything at shutdown.
//!
//! The router's `{"op":"metrics"}` aggregates every shard's Prometheus
//! snapshot (re-labeled with `shard="N"`) plus its own routing/failover
//! counters through the same `ltsp_telemetry::prom` renderer, so
//! `ltspc top` and `loadgen` work unchanged against a cluster.

#![warn(missing_docs)]

pub mod ring;
pub mod router;
pub mod supervisor;

pub use ring::Ring;
pub use router::{routing_key, spawn_router, RouterConfig, RouterHandle};
pub use supervisor::{run_cluster, ClusterConfig};
