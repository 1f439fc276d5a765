//! Compilation policies and configuration.

use ltsp_hlo::HloConfig;
use ltsp_pipeliner::PipelineOptions;

/// How expected-latency hints are assigned to loads — the experimental
/// arms of the paper's Sec. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyPolicy {
    /// No latency boosting at all (the comparison baseline).
    Baseline,
    /// Every load hinted at the L3 typical latency — the "headroom"
    /// setting of Fig. 7/9 ("quite pessimistic").
    AllLoadsL3,
    /// Every FP load hinted at the L2 typical latency — the moderate
    /// general setting of Fig. 8 (FP loads bypass L1, so this schedules
    /// them for roughly twice their minimum latency).
    AllFpLoadsL2,
    /// HLO-directed hints from the prefetcher heuristics (Sec. 3.2), plus
    /// the default L2 hint for unhinted FP loads the paper keeps enabled.
    HloHints,
    /// Hints from measured per-reference miss latencies — the "dynamic
    /// cache-miss sampling" direction of the paper's outlook (Sec. 6).
    /// Requires [`CompileConfig::miss_profile`]; references the sampler
    /// saw hitting close caches get no hint, so the static-information
    /// failure modes (445.gobmk) disappear.
    MissSampled,
}

impl std::fmt::Display for LatencyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyPolicy::Baseline => write!(f, "baseline"),
            LatencyPolicy::AllLoadsL3 => write!(f, "all-loads-L3"),
            LatencyPolicy::AllFpLoadsL2 => write!(f, "all-fp-L2"),
            LatencyPolicy::HloHints => write!(f, "hlo-hints"),
            LatencyPolicy::MissSampled => write!(f, "miss-sampled"),
        }
    }
}

impl LatencyPolicy {
    /// The short name `--policy` and the wire's `"policy"` take, which
    /// [`LatencyPolicy::from_str`](std::str::FromStr) inverts.
    /// [`LatencyPolicy::MissSampled`] needs a measured profile no request
    /// carries, so it has no short name and this returns its long one.
    pub fn tag(self) -> &'static str {
        match self {
            LatencyPolicy::Baseline => "baseline",
            LatencyPolicy::AllLoadsL3 => "l3",
            LatencyPolicy::AllFpLoadsL2 => "fpl2",
            LatencyPolicy::HloHints => "hlo",
            LatencyPolicy::MissSampled => "miss-sampled",
        }
    }
}

impl std::str::FromStr for LatencyPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        use LatencyPolicy::*;
        [Baseline, AllLoadsL3, AllFpLoadsL2, HloHints]
            .into_iter()
            .find(|p| p.tag() == s)
            .ok_or_else(|| "policy must be baseline|l3|fpl2|hlo".to_string())
    }
}

/// Full compile-time configuration for one experimental arm.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileConfig {
    /// Hint-assignment policy.
    pub policy: LatencyPolicy,
    /// Trip-count threshold `n`: boosts apply only in loops whose believed
    /// average trip count is at least `n` (0 disables the threshold, as in
    /// the paper's `n = 0` headroom arm). Exception: HLO
    /// "not prefetchable" hints (heuristic 1) override the threshold —
    /// expected long latencies make the optimization profitable even at
    /// low trip counts (Sec. 3.1, demonstrated on 429.mcf in Sec. 4.4).
    pub trip_threshold: u32,
    /// Whether profile (PGO) trip counts are available; otherwise the
    /// compiler falls back to static estimates.
    pub pgo: bool,
    /// Keep the paper's default L2 hint for FP loads without HLO hints.
    pub fp_default_l2: bool,
    /// Prefetcher configuration.
    pub hlo: HloConfig,
    /// Pipeliner configuration.
    pub pipeline: PipelineOptions,
    /// Per-memref sampled latency hints for [`LatencyPolicy::MissSampled`]
    /// (from [`crate::sample_miss_hints`]); ignored by other policies.
    pub miss_profile: Option<Vec<Option<ltsp_ir::LatencyHint>>>,
    /// Observed-hint overlay from the adaptive refinement loop
    /// (crates/adaptive): per-memref measured verdicts merged over the
    /// static policy (a `Fast` verdict clears the hint, a `Level` verdict
    /// replaces it). Covered references bypass the trip-count threshold,
    /// like a miss profile; uncovered references fall back to the static
    /// policy unchanged.
    pub observed_overlay: Option<ltsp_hlo::ObservedOverlay>,
}

impl CompileConfig {
    /// The paper's production settings for a policy: trip threshold 32
    /// ("an empirically reasonable choice"), PGO on, FP default L2 hint on
    /// for the HLO policy, prefetching enabled.
    pub fn new(policy: LatencyPolicy) -> Self {
        CompileConfig {
            policy,
            trip_threshold: 32,
            pgo: true,
            fp_default_l2: policy == LatencyPolicy::HloHints,
            hlo: HloConfig::default(),
            pipeline: PipelineOptions::default(),
            miss_profile: None,
            observed_overlay: None,
        }
    }

    /// Sets the trip-count threshold.
    pub fn with_threshold(mut self, n: u32) -> Self {
        self.trip_threshold = n;
        self
    }

    /// Enables or disables PGO trip information.
    pub fn with_pgo(mut self, pgo: bool) -> Self {
        self.pgo = pgo;
        self
    }

    /// Enables or disables software prefetching.
    pub fn with_prefetch(mut self, enabled: bool) -> Self {
        self.hlo.prefetch_enabled = enabled;
        self
    }

    /// Enables the balanced-recurrence extension (the paper's stated
    /// future work): loads on violating recurrence cycles receive an equal
    /// share of the cycle's slack instead of being marked critical.
    pub fn with_balanced_recurrences(mut self, enabled: bool) -> Self {
        self.pipeline.balance_cycle_slack = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CompileConfig::new(LatencyPolicy::HloHints);
        assert_eq!(c.trip_threshold, 32);
        assert!(c.pgo);
        assert!(c.fp_default_l2);
        assert!(c.hlo.prefetch_enabled);
        // The FP default-L2 rider only applies to the HLO policy.
        assert!(!CompileConfig::new(LatencyPolicy::AllLoadsL3).fp_default_l2);
    }

    #[test]
    fn builder_methods() {
        let c = CompileConfig::new(LatencyPolicy::AllLoadsL3)
            .with_threshold(0)
            .with_pgo(false)
            .with_prefetch(false);
        assert_eq!(c.trip_threshold, 0);
        assert!(!c.pgo);
        assert!(!c.hlo.prefetch_enabled);
    }

    #[test]
    fn display_names() {
        assert_eq!(LatencyPolicy::HloHints.to_string(), "hlo-hints");
        assert_eq!(LatencyPolicy::Baseline.to_string(), "baseline");
    }
}
