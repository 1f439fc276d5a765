//! # ltsp — Latency-Tolerant Software Pipelining
//!
//! Umbrella crate for the workspace reproducing *Winkel, Krishnaiyer &
//! Sampson, "Latency-Tolerant Software Pipelining in a Production
//! Compiler", CGO 2008*. It re-exports every sub-crate under a stable
//! module name so applications can depend on a single crate:
//!
//! - [`ir`] — loop intermediate representation
//! - [`machine`] — Itanium-2-like machine model
//! - [`ddg`] — dependence graphs, recurrence analysis, MinDist/RecMII
//! - [`hlo`] — software prefetcher and latency-hint heuristics
//! - [`pipeliner`] — iterative modulo scheduler and rotating-register
//!   allocator
//! - [`memsim`] — cache hierarchy, OzQ and in-order execution simulator
//! - [`workloads`] — synthetic SPEC-like benchmark suites
//! - [`core`] — the compiler driver, latency policies, theory module and
//!   experiment runners
//! - [`telemetry`] — dependency-free decision traces, phase timing and
//!   machine-readable run artifacts (JSONL, JSON metrics, Chrome trace)
//! - [`oracle`] — independent schedule validator, exact-II oracle and
//!   the differential harness testing the heuristic pipeliner
//! - [`par`] — deterministic scoped work pool behind every `--jobs N`
//!   batch layer (index-ordered merge, spliced telemetry, panic
//!   propagation)
//! - [`cache`] — content-addressed fingerprints and the sharded
//!   byte-budget LRU behind the compile/serve caches
//! - [`server`] — `ltspd`, the compilation-as-a-service daemon behind
//!   `ltspc serve` (line-delimited JSON protocol, batching, backpressure,
//!   drain), and the protocol's one client
//! - [`cluster`] — sharded serving: consistent-hash router (`ltspr`),
//!   bounded failover, persistent warm-start cache tier, supervised
//!   cluster lifecycle behind `ltspc serve --cluster N`
//! - [`adaptive`] — feedback-directed latency hints: the simulator's
//!   observed miss levels refined into per-load hints, re-pipelined to a
//!   validator-certified fixpoint (`ltspc compile --adaptive`)
//!
//! # Quickstart
//!
//! ```
//! use ltsp::core::{compile_loop, CompileConfig, LatencyPolicy};
//! use ltsp::ir::{DataClass, LoopBuilder};
//! use ltsp::machine::MachineModel;
//!
//! let mut b = LoopBuilder::new("example");
//! let src = b.affine_ref("src", DataClass::Int, 0x1000, 4, 4);
//! let dst = b.affine_ref("dst", DataClass::Int, 0x200000, 4, 4);
//! let c = b.live_in_gr("c");
//! let v = b.load(src);
//! let s = b.add(v, c);
//! b.store(dst, s);
//! let lp = b.build()?;
//!
//! let machine = MachineModel::itanium2();
//! let cfg = CompileConfig::new(LatencyPolicy::HloHints);
//! let compiled = compile_loop(&lp, &machine, &cfg);
//! assert!(compiled.kernel.ii() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use ltsp_adaptive as adaptive;
pub use ltsp_cache as cache;
pub use ltsp_cluster as cluster;
pub use ltsp_core as core;
pub use ltsp_ddg as ddg;
pub use ltsp_hlo as hlo;
pub use ltsp_ir as ir;
pub use ltsp_machine as machine;
pub use ltsp_memsim as memsim;
pub use ltsp_oracle as oracle;
pub use ltsp_par as par;
pub use ltsp_pipeliner as pipeliner;
pub use ltsp_server as server;
pub use ltsp_telemetry as telemetry;
pub use ltsp_workloads as workloads;
