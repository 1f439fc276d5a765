//! Benchmark and loop-mix definitions.

use ltsp_ir::LoopIr;
use ltsp_memsim::StreamMode;

use crate::trip::TripDistribution;

/// Which SPEC suite a synthetic benchmark models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2000.
    Cpu2000,
    /// SPEC CPU2006.
    Cpu2006,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Cpu2000 => write!(f, "CPU2000"),
            Suite::Cpu2006 => write!(f, "CPU2006"),
        }
    }
}

/// One hot pipelined loop inside a benchmark, with its execution profile.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Human-readable name (source function the paper mentions, where
    /// applicable).
    pub name: String,
    /// The loop body.
    pub loop_ir: LoopIr,
    /// Trip counts observed on the *reference* inputs (what actually runs).
    pub ref_trips: TripDistribution,
    /// Trip counts observed on the *training* inputs (what PGO sees).
    pub train_trips: TripDistribution,
    /// What the compiler's static heuristics would estimate without PGO.
    pub static_trip_estimate: f64,
    /// Loop entries simulated per measurement (scaled by the runner).
    pub entries: u32,
    /// Address-stream behaviour across entries.
    pub stream_mode: StreamMode,
}

impl LoopSpec {
    /// Convenience constructor with training = reference trips and a
    /// static estimate equal to the reference mean.
    pub(crate) fn simple(
        name: impl Into<String>,
        loop_ir: LoopIr,
        trips: TripDistribution,
        entries: u32,
        stream_mode: StreamMode,
    ) -> Self {
        let mean = trips.mean();
        LoopSpec {
            name: name.into(),
            loop_ir,
            ref_trips: trips.clone(),
            train_trips: trips,
            static_trip_estimate: mean,
            entries,
            stream_mode,
        }
    }

    /// Overrides the training distribution (PGO mismatch modelling).
    pub(crate) fn with_train(mut self, train: TripDistribution) -> Self {
        self.train_trips = train;
        self
    }

    /// Overrides the static estimate (no-PGO modelling).
    pub(crate) fn with_static_estimate(mut self, estimate: f64) -> Self {
        self.static_trip_estimate = estimate;
        self
    }
}

/// A synthetic benchmark: a named mix of hot pipelined loops plus the
/// share of total time those loops account for.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// SPEC-style name ("429.mcf").
    pub name: &'static str,
    /// The suite it belongs to.
    pub suite: Suite,
    /// The hot pipelined loops (may be empty).
    pub loops: Vec<LoopSpec>,
    /// Fraction of the benchmark's baseline time spent in these loops;
    /// the remainder is unaffected by pipelining policy.
    pub pipelined_fraction: f64,
}

impl Benchmark {
    /// A benchmark with no hot pipelined loops (policy-invariant).
    pub(crate) fn flat(name: &'static str, suite: Suite) -> Self {
        Benchmark {
            name,
            suite,
            loops: Vec::new(),
            pipelined_fraction: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::saxpy;

    #[test]
    fn simple_spec_defaults() {
        let s = LoopSpec::simple(
            "l",
            saxpy("s"),
            TripDistribution::Fixed(100),
            10,
            StreamMode::Progressive,
        );
        assert_eq!(s.static_trip_estimate, 100.0);
        assert_eq!(s.train_trips, s.ref_trips);
    }

    #[test]
    fn train_and_static_overrides() {
        let s = LoopSpec::simple(
            "l",
            saxpy("s"),
            TripDistribution::Fixed(8),
            10,
            StreamMode::Restart,
        )
        .with_train(TripDistribution::Fixed(154))
        .with_static_estimate(64.0);
        assert_eq!(s.ref_trips.mean(), 8.0);
        assert_eq!(s.train_trips.mean(), 154.0);
        assert_eq!(s.static_trip_estimate, 64.0);
    }

    #[test]
    fn flat_benchmark_has_no_loops() {
        let b = Benchmark::flat("403.gcc", Suite::Cpu2006);
        assert!(b.loops.is_empty());
        assert_eq!(b.pipelined_fraction, 0.0);
    }
}
