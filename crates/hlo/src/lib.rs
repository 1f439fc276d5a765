//! The high-level optimizer (HLO): software prefetching and the
//! expected-latency hint heuristics of the reproduced paper (Sec. 3.2).
//!
//! The prefetcher walks a loop's memory references, decides which can be
//! covered by software prefetches and at what distance
//! (`distance = Lat / II_est`, clamped by trip-count knowledge), inserts
//! `lfetch` instructions into the loop body, and — the paper's key coupling
//! — marks the references whose prefetch efficiency is *less than optimal*
//! with an expected-latency hint for the pipeliner:
//!
//! 1. references that cannot be prefetched at all (pointer chases and
//!    loads hanging off them);
//! 2. references whose prefetch distance was reduced below the optimal
//!    amount, because of (a) symbolic strides (TLB pressure) or (b)
//!    indirection (`a[b[i]]` targets);
//! 3. references prefetched only into L2 because many integer references
//!    would otherwise overwhelm the OzQ.
//!
//! Hint levels follow the paper: L2 for integer loads, L3 for FP loads —
//! one level below the highest cache level each can hit.

mod overlay;
mod prefetch;

pub use overlay::{HintSource, ObservedHint, ObservedOverlay, ObservedVerdict};
pub use prefetch::{run_hlo, run_hlo_observed, HintReason, HloConfig, HloReport, RefDecision};
