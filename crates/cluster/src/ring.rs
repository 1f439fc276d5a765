//! Consistent hashing over content-addressed fingerprints.
//!
//! Each shard owns `vnodes` points on a `u64` ring; a key routes to the
//! shard owning the first point at or after the key's hash (wrapping).
//! Virtual nodes smooth the split: at 64 vnodes the worst shard's share
//! stays within a few tens of percent of fair, which is plenty when the
//! payoff of consistency is cache locality rather than strict balance —
//! the same loop must *always* land on the same shard so exactly one
//! shard pays its compile cost and keeps its artifacts hot.
//!
//! Points are keyed on the shard *index* (not its address), so the
//! routing function depends only on `(shards, vnodes)`: a cluster
//! restarted on different ports routes identically, which is what lets
//! a shard's persisted cache log stay valid across supervisor restarts.
//!
//! FNV's raw high bits avalanche poorly (fine for cache keys, biased as
//! ring coordinates), so points and keys go through the same
//! fmix64-style finalizer the fault injector uses.

use ltsp_cache::{Fingerprint, FingerprintHasher};

/// Default virtual nodes per shard. 256 keeps the hash-space split
/// within a few percent of even at small shard counts (64 left the
/// worst shard owning ~40% of a 3-shard ring, which caps closed-loop
/// cluster throughput well below linear); ring build and lookup stay
/// trivially cheap at `shards × 256` points.
pub const DEFAULT_VNODES: usize = 256;

/// Folds a 128-bit fingerprint to a well-mixed `u64` ring coordinate.
fn mix(fp: Fingerprint) -> u64 {
    let mut x = (fp.0 as u64) ^ ((fp.0 >> 64) as u64);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// A consistent-hash ring: `shards × vnodes` sorted points.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, shard index)`, sorted by point.
    points: Vec<(u64, u32)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring for `shards` shards (`vnodes` points each).
    /// Deterministic: same `(shards, vnodes)` ⇒ same routing, every run.
    pub fn new(shards: usize, vnodes: usize) -> Ring {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                let mut h = FingerprintHasher::new();
                h.write_str("ring-v1");
                h.write_u64(s as u64);
                h.write_u64(v as u64);
                points.push((mix(h.finish()), s as u32));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// The failover preference order for `key`: the owning shard first,
    /// then each distinct successor around the ring. Every shard appears
    /// exactly once, so walking this list is bounded failover.
    pub(crate) fn preference(&self, key: Fingerprint) -> Vec<usize> {
        let h = mix(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut order = Vec::with_capacity(self.shards);
        let mut seen = vec![false; self.shards];
        for i in 0..self.points.len() {
            let (_, s) = self.points[(start + i) % self.points.len()];
            if !seen[s as usize] {
                seen[s as usize] = true;
                order.push(s as usize);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }

    /// The shard owning `key` (the head of `Ring::preference`).
    pub fn owner(&self, key: Fingerprint) -> usize {
        self.preference(key)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let a = Ring::new(3, DEFAULT_VNODES);
        let b = Ring::new(3, DEFAULT_VNODES);
        for i in 0..256 {
            let k = Fingerprint::of_str(&format!("loop-{i}"));
            assert_eq!(a.owner(k), b.owner(k), "same ring, same owner");
            let pref = a.preference(k);
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "every shard appears once");
        }
    }

    #[test]
    fn balance_is_roughly_fair() {
        let ring = Ring::new(3, DEFAULT_VNODES);
        let mut counts = [0usize; 3];
        for i in 0..9_000 {
            counts[ring.owner(Fingerprint::of_str(&format!("key-{i}")))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // Fair is 3000; consistent hashing at 64 vnodes stays well
            // inside [1500, 4500].
            assert!((1500..4500).contains(&c), "shard {s} got {c} of 9000");
        }
    }

    #[test]
    fn single_shard_ring_routes_everything_to_it() {
        let ring = Ring::new(1, 8);
        for i in 0..32 {
            assert_eq!(ring.owner(Fingerprint::of_str(&format!("k{i}"))), 0);
        }
    }

    #[test]
    fn failover_order_differs_from_owner_order() {
        // Successor lists must not all collapse to the same permutation:
        // different keys should spread their second choices too.
        let ring = Ring::new(4, DEFAULT_VNODES);
        let mut second = [0usize; 4];
        for i in 0..4_000 {
            second[ring.preference(Fingerprint::of_str(&format!("k{i}")))[1]] += 1;
        }
        assert!(
            second.iter().all(|&c| c > 0),
            "every shard serves as some key's failover: {second:?}"
        );
    }
}
