//! # ltsp-cache — a content-addressed schedule cache
//!
//! Every entry point of this workspace re-pipelines identical loops from
//! scratch on every invocation; a serving layer (`ltsp-server`) cannot
//! afford that, and expensive request classes — the exact-II oracle is a
//! branch-and-bound proof — make caching load-bearing rather than
//! decorative. This crate provides the two pieces:
//!
//! - **content addressing** ([`Fingerprint`], [`FingerprintHasher`]): a
//!   stable 128-bit FNV-1a over the *canonicalized* inputs. A loop is
//!   canonicalized by parsing its text into [`LoopIr`] and re-printing it
//!   (`Display` is lossless, so formatting and comments never split the
//!   key space); the compile configuration contributes its own
//!   fingerprint. Identical (loop, config) pairs collide onto the same
//!   key **by construction**, and any config change moves the key — a
//!   stale entry can never be served across a [`RunConfig`]-style change.
//! - **a sharded LRU with byte-budget eviction** ([`ShardedLru`]): keys
//!   spread over `shards` independently locked maps (the shard index is
//!   the key's top bits, so contention scales down with shard count);
//!   each shard owns `byte_budget / shards` bytes and evicts its
//!   least-recently-used entries when an insert overflows the budget.
//!   Hit/miss/eviction/insertion counters are kept on atomics and can be
//!   surfaced through the telemetry metrics registry
//!   ([`ShardedLru::export_metrics`]).
//! - **a disk persistence tier** ([`persist`]): an append-only,
//!   CRC-framed, crash-tolerant record log so a restarted process can
//!   replay its cache and serve warm from request one.
//!
//! Values are returned as `Arc<V>` so a hit is a pointer clone, never a
//! deep copy; because every cached computation in this workspace is a
//! deterministic pure function of its key, a racing double-compute under
//! [`ShardedLru::get_or_insert_with`] is benign (both threads produce
//! identical values; the last insert wins).
//!
//! [`LoopIr`]: https://docs.rs/ltsp-ir
//! [`RunConfig`]: https://docs.rs/ltsp-core

#![warn(missing_docs)]

pub mod persist;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ltsp_telemetry::{lock_unpoisoned, Telemetry};

/// A stable 128-bit content fingerprint (FNV-1a).
///
/// FNV-1a is deterministic across runs, platforms and toolchains, unlike
/// `std::hash::DefaultHasher` whose output may change between releases.
/// That cross-run stability is load-bearing: the [`persist`] log writes
/// fingerprints to disk and a restarted process must rehash identical
/// content to identical keys for warm-start replay to hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Fingerprints one byte string in a single call.
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// Fingerprints one string in a single call.
    pub fn of_str(s: &str) -> Fingerprint {
        Fingerprint::of_bytes(s.as_bytes())
    }

    /// A short hex rendering for logs and trace IDs (low 64 bits).
    pub fn short_hex(&self) -> String {
        format!("{:016x}", self.0 as u64)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Incremental FNV-1a-128 hasher. Multi-field keys must delimit fields
/// ([`FingerprintHasher::write_str`] appends a `0x1F` unit separator) so
/// `("ab","c")` and `("a","bc")` cannot collide by concatenation.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u128,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        FingerprintHasher {
            state: FNV128_OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs a string field followed by a unit separator.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0x1F]);
    }

    /// Absorbs a `u64` field (little-endian, fixed width — self-delimiting).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` field by its bit pattern (so `-0.0` and `0.0`
    /// are distinct keys, and NaNs hash stably).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Absorbs another fingerprint (e.g. a config fingerprint folded into
    /// a request key).
    pub fn write_fingerprint(&mut self, fp: Fingerprint) {
        self.write(&fp.0.to_le_bytes());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Sizing/sharding configuration for a [`ShardedLru`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across all shards. Entries are evicted
    /// least-recently-used-first once a shard exceeds its share; a budget
    /// of 0 disables caching entirely (every lookup misses, nothing is
    /// retained).
    pub byte_budget: usize,
    /// Number of independently locked shards (clamped to ≥ 1, rounded up
    /// to a power of two so shard selection is a bit mask).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 64 << 20, // 64 MiB
            shards: 16,
        }
    }
}

/// A point-in-time snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Live entries right now.
    pub entries: u64,
    /// Live bytes right now (as accounted at insert time).
    pub bytes: u64,
}

struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

struct Shard<V> {
    map: HashMap<u128, Entry<V>>,
    /// Monotonic access clock driving LRU ordering (shard-local).
    clock: u64,
    bytes: usize,
}

impl<V> Shard<V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A content-addressed, sharded, byte-budgeted LRU cache. See the crate
/// docs for the design; `V` is typically a compiled artifact or a fully
/// rendered response body.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_mask: u128,
    budget_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl<V> std::fmt::Debug for ShardedLru<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("budget_per_shard", &self.budget_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V> ShardedLru<V> {
    /// Creates a cache with the given budget and shard count.
    pub fn new(cfg: CacheConfig) -> Self {
        let shards = cfg.shards.max(1).next_power_of_two();
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        clock: 0,
                        bytes: 0,
                    })
                })
                .collect(),
            shard_mask: (shards - 1) as u128,
            budget_per_shard: cfg.byte_budget / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: Fingerprint) -> &Mutex<Shard<V>> {
        // Top bits pick the shard; FNV mixes well enough there, and the
        // low bits stay for the in-shard HashMap.
        let idx = (key.0 >> 64) & self.shard_mask;
        &self.shards[idx as usize]
    }

    /// Looks up a key, bumping its recency on a hit.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<V>> {
        let found = self.probe(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// [`ShardedLru::get`] for a caller that, on absence, hands the key
    /// to a path that looks it up again: a hit counts (and bumps
    /// recency) exactly as in `get`, absence counts nothing, so the
    /// request is still one miss once the second lookup has run.
    pub fn probe(&self, key: Fingerprint) -> Option<Arc<V>> {
        let mut shard = lock_unpoisoned(self.shard(key));
        let tick = shard.tick();
        let e = shard.map.get_mut(&key.0)?;
        e.last_used = tick;
        let v = Arc::clone(&e.value);
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Inserts a value accounted at `bytes`, evicting LRU entries while
    /// the shard is over budget. Values larger than a whole shard's
    /// budget are returned un-cached (they would only thrash). Returns
    /// the `Arc` now owning the value.
    pub fn insert(&self, key: Fingerprint, value: V, bytes: usize) -> Arc<V> {
        let value = Arc::new(value);
        if bytes > self.budget_per_shard {
            return value;
        }
        let mut shard = lock_unpoisoned(self.shard(key));
        let tick = shard.tick();
        if let Some(old) = shard.map.insert(
            key.0,
            Entry {
                value: Arc::clone(&value),
                bytes,
                last_used: tick,
            },
        ) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0u64;
        while shard.bytes > self.budget_per_shard {
            // Linear LRU scan: shards stay small (budget/shards), and
            // eviction is the rare path.
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| **k != key.0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = shard.map.remove(&k) {
                        shard.bytes -= e.bytes;
                        evicted += 1;
                    }
                }
                None => break, // only the fresh entry remains
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        value
    }

    /// The read-through path: returns the cached value for `key`, or
    /// computes it with `f`, inserts it at `bytes_of(&value)` bytes, and
    /// returns it. The boolean is `true` on a hit.
    ///
    /// Two threads missing on the same key concurrently both compute;
    /// this is benign for deterministic `f` (identical values, last
    /// insert wins) and avoids holding a shard lock across a compile.
    pub fn get_or_insert_with<F, S>(&self, key: Fingerprint, bytes_of: S, f: F) -> (Arc<V>, bool)
    where
        F: FnOnce() -> V,
        S: FnOnce(&V) -> usize,
    {
        if let Some(v) = self.get(key) {
            return (v, true);
        }
        let value = f();
        let bytes = bytes_of(&value);
        (self.insert(key, value, bytes), false)
    }

    /// Current counter snapshot (entries/bytes aggregate over all shards).
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for s in &self.shards {
            let s = lock_unpoisoned(s);
            entries += s.map.len() as u64;
            bytes += s.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Publishes the counter snapshot into a telemetry metrics registry
    /// under `prefix` (e.g. `prefix.hits`, `prefix.bytes`). Counters are
    /// cumulative; callers export once per reporting boundary.
    pub fn export_metrics(&self, tel: &Telemetry, prefix: &str) {
        let s = self.stats();
        for (name, v) in [
            ("hits", s.hits),
            ("misses", s.misses),
            ("evictions", s.evictions),
            ("insertions", s.insertions),
            ("entries", s.entries),
            ("bytes", s.bytes),
        ] {
            tel.counter_add(&format!("{prefix}.{name}"), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = Fingerprint::of_str("loop a { }");
        let b = Fingerprint::of_str("loop b { }");
        assert_eq!(a, Fingerprint::of_str("loop a { }"), "deterministic");
        assert_ne!(a, b);
        // Known FNV-1a-128 vector: the empty input is the offset basis.
        assert_eq!(Fingerprint::of_bytes(b"").0, FNV128_OFFSET);
    }

    #[test]
    fn field_delimiting_prevents_concat_collisions() {
        let mut h1 = FingerprintHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = FingerprintHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache: ShardedLru<String> = ShardedLru::new(CacheConfig::default());
        let k = Fingerprint::of_str("k");
        assert!(cache.get(k).is_none());
        cache.insert(k, "v".to_string(), 1);
        assert_eq!(cache.get(k).as_deref(), Some(&"v".to_string()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
        // A probe counts what it finds and nothing when it finds nothing.
        assert!(cache.probe(Fingerprint::of_str("absent")).is_none());
        assert_eq!(cache.probe(k).as_deref(), Some(&"v".to_string()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        // One shard so the LRU order is globally observable.
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            byte_budget: 100,
            shards: 1,
        });
        let keys: Vec<Fingerprint> = (0..4)
            .map(|i| Fingerprint::of_str(&format!("k{i}")))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.insert(k, i as u32, 40);
        }
        // 4 × 40 bytes against a 100-byte budget: only the two most
        // recently inserted survive.
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get(keys[0]).is_none());
        assert!(cache.get(keys[1]).is_none());
        assert_eq!(cache.get(keys[2]).as_deref(), Some(&2));
        assert_eq!(cache.get(keys[3]).as_deref(), Some(&3));
        assert_eq!(cache.stats().evictions, 2);

        // A get refreshes recency: touch k2, insert k4, k3 is the victim.
        cache.get(keys[2]);
        cache.insert(Fingerprint::of_str("k4"), 4, 40);
        assert!(cache.get(keys[2]).is_some(), "recently used survives");
        assert!(cache.get(keys[3]).is_none(), "LRU evicted");
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            byte_budget: 64,
            shards: 1,
        });
        let k = Fingerprint::of_str("big");
        let v = cache.insert(k, 7, 1000);
        assert_eq!(*v, 7, "the value is still returned");
        assert!(cache.get(k).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            byte_budget: 0,
            shards: 4,
        });
        let k = Fingerprint::of_str("k");
        cache.insert(k, 1, 1);
        assert!(cache.get(k).is_none());
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let cache: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            byte_budget: 100,
            shards: 1,
        });
        let k = Fingerprint::of_str("k");
        cache.insert(k, 1, 30);
        cache.insert(k, 2, 50);
        assert_eq!(cache.get(k).as_deref(), Some(&2));
        assert_eq!(cache.stats().bytes, 50, "old accounting released");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn get_or_insert_with_computes_once_per_key() {
        let cache: ShardedLru<u64> = ShardedLru::new(CacheConfig::default());
        let k = Fingerprint::of_str("k");
        let (v1, hit1) = cache.get_or_insert_with(k, |_| 8, || 42);
        let (v2, hit2) = cache.get_or_insert_with(k, |_| 8, || panic!("must not recompute"));
        assert_eq!((*v1, hit1), (42, false));
        assert_eq!((*v2, hit2), (42, true));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache: ShardedLru<u8> = ShardedLru::new(CacheConfig {
            byte_budget: 1 << 20,
            shards: 5,
        });
        assert_eq!(cache.shards.len(), 8);
        // Keys land on a shard by top bits, and stay retrievable.
        for i in 0..64 {
            let k = Fingerprint::of_str(&format!("key-{i}"));
            cache.insert(k, i as u8, 16);
            assert_eq!(cache.get(k).as_deref(), Some(&(i as u8)));
        }
        assert_eq!(cache.stats().entries, 64);
    }

    #[test]
    fn concurrent_access_is_safe_and_counts_add_up() {
        let cache: std::sync::Arc<ShardedLru<u64>> =
            std::sync::Arc::new(ShardedLru::new(CacheConfig {
                byte_budget: 1 << 16,
                shards: 4,
            }));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = std::sync::Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let k = Fingerprint::of_str(&format!("k{}", (i + t) % 32));
                    let (v, _) = c.get_or_insert_with(k, |_| 32, || (i + t) % 32);
                    assert_eq!(*v % 32, (i + t) % 32);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4 * 200);
        assert!(s.hits > 0);
    }

    #[test]
    fn export_metrics_publishes_counters() {
        let tel = Telemetry::enabled();
        let cache: ShardedLru<u8> = ShardedLru::new(CacheConfig::default());
        cache.insert(Fingerprint::of_str("k"), 1, 4);
        cache.get(Fingerprint::of_str("k"));
        cache.get(Fingerprint::of_str("absent"));
        cache.export_metrics(&tel, "cache.test");
        let m = tel.metrics();
        assert_eq!(m.counter("cache.test.hits"), 1);
        assert_eq!(m.counter("cache.test.misses"), 1);
        assert_eq!(m.counter("cache.test.entries"), 1);
        assert_eq!(m.counter("cache.test.bytes"), 4);
    }
}
