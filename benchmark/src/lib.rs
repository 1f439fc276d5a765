//! The repo benchmark: six workloads over simulator, compiler and daemon,
//! measured end to end (untraced run) and layer by layer (traced run),
//! entirely from outside the crates it measures. See `README.md`.

pub mod cli;
pub mod hostspeed;
pub mod metrics;
pub mod results;
pub mod stats;
pub mod trace;
pub mod workloads;
