//! Deterministic fault injection for the serving stack (`LTSP_FAULT`).
//!
//! The chaos contract this module exists to prove: under injected
//! handler panics, handler delays, short writes, and connection drops,
//! `ltspd` keeps serving, and every **non-faulted** request's response
//! stays byte-identical to a fault-free run. That is only testable if
//! the fault decisions themselves are deterministic — independent of
//! arrival timing and worker scheduling — so every
//! decision here is a pure function of `(seed, site, request id)`:
//! a fingerprint hash compared against the site's probability
//! threshold. Two runs with the same spec fault the same requests, and
//! a test can compute the faulted set up front with [`FaultPlan::fires`].
//!
//! # Spec grammar
//!
//! Comma-separated `site:probability` entries, e.g.
//!
//! ```text
//! LTSP_FAULT="panic:0.01,slow:50ms@0.05,drop:0.02,short:0.1,seed:7"
//! ```
//!
//! - `panic:P` — the request handler panics (before any work) with
//!   probability `P`. The daemon contains it and answers `error`.
//! - `slow:DURms@P` — the handler sleeps `DUR` milliseconds first with
//!   probability `P` (a stand-in for a stalled backend; bytes served
//!   are unaffected).
//! - `drop:P` — the connection is closed instead of writing the
//!   response (the client sees EOF and must retry elsewhere).
//! - `short:P` — the response line is written in two separate TCP
//!   writes (a torn write; the bytes are identical, so this faults
//!   nothing — it proves client framing survives segmentation).
//! - `dispatch:P` — a worker itself panics when it is about to pop a
//!   request that fires. This is the blast-radius drill for the
//!   "dispatcher died" recovery path: drain trips and queued requests
//!   are answered `error`, never silently dropped.
//! - `shardkill:P` — the whole process exits (code 113) when a handled
//!   request fires, *before* producing a response. This is the cluster
//!   chaos drill: a router in front of the shard must observe the dead
//!   connection and fail the in-flight request over to another shard —
//!   deterministically, because the kill is keyed on the request id.
//! - `seed:N` — the plan seed (default 0); re-keys every decision.

use std::time::Duration;

use ltsp_cache::FingerprintHasher;

/// The named injection sites. Each site's decisions are keyed
/// independently: a request can be slow *and* panic, and `drop` is keyed
/// on the response about to be written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Handler panic (contained by the daemon).
    Panic,
    /// Handler delay.
    Slow,
    /// Connection closed instead of writing a response.
    Drop,
    /// Response line written in two TCP segments.
    ShortWrite,
    /// Worker panic (tests the dispatcher-died drain path).
    Dispatch,
    /// Whole-process exit mid-request (tests router failover).
    ShardKill,
}

impl FaultSite {
    /// The site's spec/telemetry tag.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            FaultSite::Panic => "panic",
            FaultSite::Slow => "slow",
            FaultSite::Drop => "drop",
            FaultSite::ShortWrite => "short-write",
            FaultSite::Dispatch => "dispatch",
            FaultSite::ShardKill => "shard-kill",
        }
    }
}

/// A parsed, seeded fault plan. `FaultPlan::default()` injects nothing
/// and costs one branch per site check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Decision seed; folded into every site hash.
    pub seed: u64,
    /// Handler panic probability in [0, 1].
    pub panic_p: f64,
    /// Handler delay probability in [0, 1].
    pub slow_p: f64,
    /// Injected handler delay.
    pub slow: Duration,
    /// Connection-drop probability in [0, 1].
    pub drop_p: f64,
    /// Torn-write probability in [0, 1].
    pub short_p: f64,
    /// Dispatcher panic probability in [0, 1].
    pub dispatch_p: f64,
    /// Process-exit (shard kill) probability in [0, 1].
    pub shardkill_p: f64,
}

impl FaultPlan {
    /// True when any site can fire.
    pub fn is_active(&self) -> bool {
        self.panic_p > 0.0
            || self.slow_p > 0.0
            || self.drop_p > 0.0
            || self.short_p > 0.0
            || self.dispatch_p > 0.0
            || self.shardkill_p > 0.0
    }

    /// Parses an `LTSP_FAULT` spec (see the module docs for the
    /// grammar). The empty string is the inactive plan.
    ///
    /// # Errors
    ///
    /// A one-line message naming the offending entry and the accepted
    /// forms — never a panic, never a silently ignored entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, value) = entry.split_once(':').ok_or_else(|| {
                format!("invalid LTSP_FAULT entry '{entry}': expected site:value")
            })?;
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| {
                        format!("invalid LTSP_FAULT entry '{entry}': probability must be in [0, 1]")
                    })
            };
            match site.trim() {
                "panic" => plan.panic_p = prob(value)?,
                "drop" => plan.drop_p = prob(value)?,
                "short" => plan.short_p = prob(value)?,
                "dispatch" => plan.dispatch_p = prob(value)?,
                "shardkill" => plan.shardkill_p = prob(value)?,
                "seed" => {
                    plan.seed = value.trim().parse().map_err(|_| {
                        format!("invalid LTSP_FAULT entry '{entry}': seed must be a u64")
                    })?;
                }
                "slow" => {
                    // slow:50ms@0.05 — duration@probability.
                    let (dur, p) = value.split_once('@').ok_or_else(|| {
                        format!("invalid LTSP_FAULT entry '{entry}': expected slow:DURms@P")
                    })?;
                    let ms: u64 = dur
                        .trim()
                        .strip_suffix("ms")
                        .and_then(|d| d.trim().parse().ok())
                        .ok_or_else(|| {
                            format!(
                                "invalid LTSP_FAULT entry '{entry}': duration must be like 50ms"
                            )
                        })?;
                    plan.slow = Duration::from_millis(ms);
                    plan.slow_p = prob(p)?;
                }
                other => {
                    return Err(format!(
                        "invalid LTSP_FAULT site '{other}': \
                         expected panic|slow|drop|short|dispatch|shardkill|seed"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Reads and parses the `LTSP_FAULT` environment variable; unset or
    /// empty means no faults.
    ///
    /// # Errors
    ///
    /// Same as [`FaultPlan::parse`].
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("LTSP_FAULT") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// Whether `site` fires for the request/response identified by
    /// `key` — a pure function of `(seed, site, key)`, so the same spec
    /// faults the same requests on every run, at any `--jobs`, whichever
    /// worker runs them. Tests compute expected faulted sets with this.
    pub fn fires(&self, site: FaultSite, key: &str) -> bool {
        let p = match site {
            FaultSite::Panic => self.panic_p,
            FaultSite::Slow => self.slow_p,
            FaultSite::Drop => self.drop_p,
            FaultSite::ShortWrite => self.short_p,
            FaultSite::Dispatch => self.dispatch_p,
            FaultSite::ShardKill => self.shardkill_p,
        };
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut h = FingerprintHasher::new();
        h.write_str("ltsp-fault-v1");
        h.write_u64(self.seed);
        h.write_str(site.tag());
        h.write_str(key);
        // FNV's multiply-by-small-prime avalanches its high bits poorly
        // (fine for cache keys, biased as a uniform draw), so xor-fold
        // the 128-bit state and run an fmix64-style finalizer first.
        let fp = h.finish().0;
        let mut x = (fp as u64) ^ ((fp >> 64) as u64);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        (x as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_unset_specs_are_inactive() {
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parses_the_documented_example() {
        let p = FaultPlan::parse("panic:0.01,slow:50ms@0.05,drop:0.02,short:0.1,seed:7").unwrap();
        assert_eq!(p.panic_p, 0.01);
        assert_eq!(p.slow, Duration::from_millis(50));
        assert_eq!(p.slow_p, 0.05);
        assert_eq!(p.drop_p, 0.02);
        assert_eq!(p.short_p, 0.1);
        assert_eq!(p.seed, 7);
        assert!(p.is_active());
    }

    #[test]
    fn rejects_malformed_entries_loudly() {
        for bad in [
            "panic",
            "panic:2.0",
            "panic:-0.1",
            "panic:x",
            "slow:50@0.1",
            "slow:0.1",
            "seed:abc",
            "warp:0.5",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert!(e.contains("invalid LTSP_FAULT"), "{bad}: {e}");
            assert!(!e.contains('\n'), "one line: {e:?}");
        }
    }

    #[test]
    fn shardkill_site_parses_and_fires_deterministically() {
        let p = FaultPlan::parse("shardkill:0.5,seed:9").unwrap();
        assert_eq!(p.shardkill_p, 0.5);
        assert!(p.is_active());
        let kills: Vec<bool> = (0..64)
            .map(|i| p.fires(FaultSite::ShardKill, &format!("req-{i}")))
            .collect();
        let again: Vec<bool> = (0..64)
            .map(|i| p.fires(FaultSite::ShardKill, &format!("req-{i}")))
            .collect();
        assert_eq!(kills, again, "same plan, same kills");
        assert!(kills.iter().any(|&b| b) && kills.iter().any(|&b| !b));
        let always = FaultPlan::parse("shardkill:1.0").unwrap();
        assert!(always.fires(FaultSite::ShardKill, "anything"));
        assert!(!FaultPlan::default().fires(FaultSite::ShardKill, "anything"));
    }

    #[test]
    fn decisions_are_deterministic_and_site_independent() {
        let p = FaultPlan::parse("panic:0.5,drop:0.5,seed:42").unwrap();
        let panics: Vec<bool> = (0..64)
            .map(|i| p.fires(FaultSite::Panic, &format!("req-{i}")))
            .collect();
        let again: Vec<bool> = (0..64)
            .map(|i| p.fires(FaultSite::Panic, &format!("req-{i}")))
            .collect();
        assert_eq!(panics, again, "same plan, same decisions");
        let drops: Vec<bool> = (0..64)
            .map(|i| p.fires(FaultSite::Drop, &format!("req-{i}")))
            .collect();
        assert_ne!(panics, drops, "sites draw independently");
        assert!(panics.iter().any(|&b| b) && panics.iter().any(|&b| !b));
    }

    #[test]
    fn seed_rekeys_every_decision() {
        let a = FaultPlan::parse("panic:0.5,seed:1").unwrap();
        let b = FaultPlan::parse("panic:0.5,seed:2").unwrap();
        let fa: Vec<bool> = (0..64)
            .map(|i| a.fires(FaultSite::Panic, &format!("req-{i}")))
            .collect();
        let fb: Vec<bool> = (0..64)
            .map(|i| b.fires(FaultSite::Panic, &format!("req-{i}")))
            .collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn rates_are_roughly_calibrated() {
        let p = FaultPlan::parse("panic:0.1").unwrap();
        let hits = (0..10_000)
            .filter(|i| p.fires(FaultSite::Panic, &format!("req-{i}")))
            .count();
        assert!((500..1500).contains(&hits), "10% of 10k, got {hits}");
        let never = FaultPlan::default();
        assert!(!(0..100).any(|i| never.fires(FaultSite::Panic, &format!("req-{i}"))));
        let always = FaultPlan::parse("panic:1.0").unwrap();
        assert!((0..100).all(|i| always.fires(FaultSite::Panic, &format!("req-{i}"))));
    }
}
