//! Cyclic data-dependence graphs for modulo scheduling.
//!
//! This crate turns a [`ltsp_ir::LoopIr`] into the dependence graph the
//! software pipeliner works on, and provides the classic cyclic-scheduling
//! analyses:
//!
//! - [`Ddg::build`] — edges for register flow (including loop-carried reads),
//!   explicit memory dependences, and the implicit post-increment
//!   self-recurrences of strided memory operations;
//! - [`Ddg::rec_mii`] — the Recurrence II lower bound, found by binary
//!   search over the feasibility predicate "no positive-weight cycle under
//!   edge weight `delay − II·omega`" (Bellman-Ford);
//! - [`MinDist`] — the all-pairs longest-path matrix at a fixed II
//!   (Floyd-Warshall, O(n³)): the reference for precedence windows and
//!   height-based priority;
//! - [`MinDistSolver`] — the scheduler's heights at each II of the
//!   escalation ladder, longest paths to a virtual sink by Bellman-Ford
//!   rounds in reverse topological order of the `omega = 0` subgraph: O(E)
//!   per round, O(n) memory, falling back to [`MinDist`] at an infeasible
//!   II;
//! - [`Ddg::recurrence_cycles`] — bounded enumeration of the simple cycles
//!   with a loop-carried dependence, used by the criticality analysis of
//!   the reproduced paper (Sec. 3.3): a load is *critical* if raising the
//!   latencies of the loads on some cycle through it would push that
//!   cycle's implied II above the Resource II.

mod cycles;
mod graph;
mod mindist;

pub use cycles::{CycleSummary, RecurrenceCycle};
pub use graph::{Ddg, DepEdge, DepKind, LoadLatencyFn};
pub use mindist::{MinDist, MinDistSolver};
