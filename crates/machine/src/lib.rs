//! Machine model of an Itanium-2-like in-order VLIW processor.
//!
//! The model supplies everything the compiler passes and the execution
//! simulator need to agree on:
//!
//! - **issue resources** — how many M/I/F/B slots exist per cycle, and the
//!   Resource II lower bound derived from a loop body's unit mix;
//! - **latencies** — fixed operation latencies, plus the load-latency query
//!   of the reproduced paper's Sec. 3.3: the pipeliner asks either for the
//!   *base* (best-case) latency or for the *expected* latency derived from
//!   an HLO hint, which the model translates to the cache level's *typical*
//!   (not best-case) latency to absorb dynamic hazards;
//! - **memory hierarchy geometry** — sizes, associativities, line sizes and
//!   service latencies of L1D/L2/L3/memory, the OzQ capacity, and a small
//!   TLB;
//! - **register files** — rotating register supply per class.
//!
//! The concrete numbers in [`MachineModel::itanium2`] follow the Dual-Core
//! Itanium 2 figures quoted in the paper (1/5/14/"more than a hundred"
//! best-case load-use latencies; typical L2/L3 values 11/21; one extra cycle
//! for FP loads, which bypass L1D; 96 rotating GRs and FRs, 48 rotating
//! predicates; at least 48 outstanding memory requests).

mod cache;
mod issue;
mod latency;
mod model;
mod regfile;

pub use cache::{CacheGeometry, CacheParams, TlbParams};
pub use issue::IssueResources;
pub use latency::{LatencyQuery, LatencyTable};
pub use model::MachineModel;
pub use regfile::RegisterFiles;
