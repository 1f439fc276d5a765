//! The software pipeliner: iterative modulo scheduling with
//! latency-tolerant scheduling of non-critical loads.
//!
//! This crate implements the back-end side of the reproduced paper
//! (Sec. 3.3):
//!
//! 1. Resource II and Recurrence II computation (via [`ltsp_ddg`]);
//! 2. **criticality analysis** — every load starts non-critical; for each
//!    recurrence cycle, if raising all loads on the cycle to their
//!    hint-derived expected latencies would push the cycle's implied II
//!    above the loop's Min II, all loads on the cycle are marked critical
//!    and keep their base latency ([`classify_loads`]);
//! 3. **iterative modulo scheduling** (Rau) with height-based priority,
//!    a modulo reservation table and bounded eviction/backtracking
//!    ([`ModuloScheduler`]);
//! 4. **rotating register allocation** in the style the paper describes
//!    (a lifetime spanning *x* kernel iterations occupies *x* consecutive
//!    rotating registers) with per-class accounting ([`allocate_rotating`]);
//! 5. the **fallback ladder**: if register allocation fails, first drop the
//!    non-critical latency boosts at the same II, then escalate the II,
//!    until the loop either fits or pipelining is judged unprofitable
//!    ([`pipeline_loop`]); a loop whose dependence graph alone demands
//!    more rotating registers than exist ([`register_floor`]) is rejected
//!    before the ladder is walked.

mod bundle;
mod criticality;
mod emit;
mod mrt;
mod pipeline;
mod regalloc;
mod schedule;
mod scheduler;

pub use bundle::{form_bundles, Bundle, BundleTemplate, BundledKernel};
pub use criticality::{classify_loads, classify_loads_observed, LoadClass, LoadClassification};
pub use emit::{
    assign_registers, emit_kernel, emit_setup, mve_unroll_factor, RegisterAssignment, RotatingRange,
};
pub use mrt::Mrt;
pub use pipeline::{
    pipeline_loop, pipeline_loop_observed, PipelineError, PipelineOptions, PipelineStats,
    PipelinedLoop,
};
pub use regalloc::{allocate_rotating, register_floor, RegAllocError, RegAllocation};
pub use schedule::{KernelSlot, ModuloSchedule};
pub use scheduler::{acyclic_schedule, ModuloScheduler, ScheduleFailure};
