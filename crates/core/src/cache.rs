//! The compile-side cache hook: content-addressed memoization of
//! [`compile_loop_observed`] results, so a hit skips the whole compile —
//! and with it every phase an [`Observer`] would have timed.
//!
//! The cache key is a [`Fingerprint`] over the **canonicalized** inputs:
//!
//! - the loop, re-printed through [`LoopIr`]'s lossless `Display` (so
//!   formatting, comments and blank lines in a `.loop` file never split
//!   the key space);
//! - the full [`CompileConfig`] (policy, threshold, PGO, prefetcher and
//!   pipeliner knobs, miss profile) via its [`CompileConfig::fingerprint`];
//! - the machine model and the trip estimate's bit pattern.
//!
//! Any change to any of these moves the key, so a stale kernel can never
//! be served across a configuration change — the eviction policy only
//! affects *whether* a hit happens, never *what* a hit returns.

use std::sync::Arc;

use ltsp_cache::{CacheConfig, Fingerprint, FingerprintHasher, ShardedLru};
use ltsp_ir::LoopIr;
use ltsp_machine::MachineModel;
use ltsp_telemetry::{Observer, Phase};

use crate::compile::{compile_loop_observed, CompiledLoop};
use crate::config::CompileConfig;

impl CompileConfig {
    /// A stable fingerprint over every compilation-relevant field.
    ///
    /// Canonicalization rides on the derived `Debug` representation: it
    /// covers all fields recursively (including [`ltsp_hlo::HloConfig`]
    /// and [`ltsp_pipeliner::PipelineOptions`]), is deterministic within
    /// a build, and automatically tracks future field additions — a new
    /// knob can never silently alias two configs onto one key.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_str(&format!("{self:?}"))
    }
}

/// A content-addressed cache of compiled loops (see the module docs for
/// the key derivation).
pub type CompileCache = ShardedLru<CompiledLoop>;

/// Builds a [`CompileCache`] with the given total byte budget.
pub fn new_compile_cache(byte_budget: usize) -> CompileCache {
    CompileCache::new(CacheConfig {
        byte_budget,
        ..CacheConfig::default()
    })
}

/// Derives the content-addressed key for one compile request.
pub fn compile_key(
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    trip_estimate: f64,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("compile-v1");
    h.write_str(&lp.to_string());
    h.write_fingerprint(cfg.fingerprint());
    h.write_fingerprint(Fingerprint::of_str(&format!("{machine:?}")));
    h.write_f64(trip_estimate);
    h.finish()
}

/// Rough retained-size estimate for byte-budget accounting: the `Debug`
/// rendering covers the loop body, the kernel slots and the statistics
/// proportionally, and costs a fraction of the compile the entry just
/// paid for (it only runs on the insert path).
fn approx_bytes(c: &CompiledLoop) -> usize {
    format!("{c:?}").len()
}

/// [`compile_loop_observed`] behind a [`CompileCache`]: returns the
/// cached kernel for a previously seen (loop, config, machine, trip)
/// tuple, or compiles, caches and returns. The boolean is `true` on a
/// cache hit.
///
/// A hit returns the identical [`CompiledLoop`] the cold compile produced
/// (shared via `Arc`, so hits are pointer clones); because compilation is
/// a deterministic pure function of the key, hit and miss paths are
/// indistinguishable to the caller except in latency. A cold compile
/// books its time under the compile phases (`hlo`/`ddg`/`mrt`/`sched`/
/// `regalloc`), a hit books the probe under `cache_lookup`. Note that a
/// hit emits no compile-phase telemetry — the compile being skipped is
/// the point — so callers that need a decision trace for a specific
/// request should bypass the cache for it.
pub fn compile_loop_cached(
    cache: &CompileCache,
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    trip_estimate: f64,
    obs: Observer,
) -> (Arc<CompiledLoop>, bool) {
    let key = compile_key(lp, machine, cfg, trip_estimate);
    let t0 = std::time::Instant::now();
    let (compiled, hit) = cache.get_or_insert_with(key, approx_bytes, || {
        compile_loop_observed(lp, machine, cfg, trip_estimate, obs)
    });
    if let (true, Some(p)) = (hit, obs.phases) {
        p.add_us(Phase::CacheLookup, t0.elapsed().as_micros() as u64);
    }
    (compiled, hit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_loop_with_profile;
    use crate::config::LatencyPolicy;
    use ltsp_workloads::saxpy;

    #[test]
    fn config_fingerprint_discriminates_every_knob() {
        let base = CompileConfig::new(LatencyPolicy::HloHints);
        let fps = [
            base.fingerprint(),
            CompileConfig::new(LatencyPolicy::Baseline).fingerprint(),
            base.clone().with_threshold(0).fingerprint(),
            base.clone().with_pgo(false).fingerprint(),
            base.clone().with_prefetch(false).fingerprint(),
            base.clone().with_balanced_recurrences(true).fingerprint(),
            base.clone().with_data_speculation(true).fingerprint(),
            // The adaptive loop's observed-hint overlay is a compile
            // input like any other: a config carrying one must never
            // alias the static config's key.
            base.clone()
                .with_observed_overlay(ltsp_hlo::ObservedOverlay::new(vec![Some(
                    ltsp_hlo::ObservedVerdict {
                        hint: ltsp_hlo::ObservedHint::Level(ltsp_ir::LatencyHint::L3),
                        drop_prefetch: false,
                    },
                )]))
                .fingerprint(),
            base.clone()
                .with_observed_overlay(ltsp_hlo::ObservedOverlay::new(vec![Some(
                    ltsp_hlo::ObservedVerdict {
                        hint: ltsp_hlo::ObservedHint::Level(ltsp_ir::LatencyHint::L3),
                        drop_prefetch: true,
                    },
                )]))
                .fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "configs {i} and {j} collide");
            }
        }
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }

    #[test]
    fn key_tracks_loop_text_config_and_trip() {
        let m = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let lp = saxpy("s");
        let k = compile_key(&lp, &m, &cfg, 100.0);
        assert_eq!(k, compile_key(&lp, &m, &cfg, 100.0));
        assert_ne!(k, compile_key(&saxpy("s2"), &m, &cfg, 100.0));
        assert_ne!(k, compile_key(&lp, &m, &cfg, 10.0));
        assert_ne!(
            k,
            compile_key(&lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), 100.0)
        );
    }

    #[test]
    fn hit_returns_the_cold_compile() {
        let m = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let lp = saxpy("s");
        let cache = new_compile_cache(1 << 20);
        let obs = Observer::disabled();
        let (cold, hit0) = compile_loop_cached(&cache, &lp, &m, &cfg, 100.0, obs);
        let (warm, hit1) = compile_loop_cached(&cache, &lp, &m, &cfg, 100.0, obs);
        assert!(!hit0);
        assert!(hit1);
        assert!(Arc::ptr_eq(&cold, &warm), "a hit is a pointer clone");
        let fresh = compile_loop_with_profile(&lp, &m, &cfg, 100.0);
        assert_eq!(
            format!("{:?}", *warm),
            format!("{fresh:?}"),
            "cached result is byte-identical to a fresh compile"
        );
    }
}
