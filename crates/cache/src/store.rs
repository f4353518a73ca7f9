//! The sharded, memory-budgeted result store.
//!
//! [`ResultCache`] maps [`CacheKey`]s (model fingerprint × request
//! fingerprint) to evaluation results. The map is split across
//! [`N_SHARDS`] independently locked shards so concurrent clients
//! rarely contend; each shard enforces its slice of the global byte
//! budget with LRU eviction: every entry carries the tick of its last
//! use, touches are O(1), and a full shard sorts by tick once to evict
//! the oldest eighth of its budget (amortized O(log n) per insert). All
//! accounting — hits, misses,
//! insertions, evictions, live entries, live bytes — is exposed as a
//! serializable [`CacheStats`] snapshot.
//!
//! Invalidation is by construction rather than by protocol: keys embed
//! the model fingerprint, so retraining or swapping data changes the
//! fingerprint "epoch" and old entries can never be served again; they
//! age out of the budget via LRU instead of being flushed.

use crate::fingerprint::Fingerprint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use whatif_obs::lockcheck::{Mutex, MutexGuard};

/// Number of independent shards (a small power of two).
pub const N_SHARDS: usize = 16;

/// Lock class of the sharded result maps (debug-build lock-order
/// checking; see [`whatif_obs::lockcheck`]).
const SHARD_CLASS: &str = "cache.resultcache.shard";

/// Fixed per-entry overhead charged on top of the value's own weight:
/// the key (32 bytes), the recency stamp, and the hash table's control
/// byte and spare capacity.
pub const ENTRY_OVERHEAD_BYTES: usize = 96;

/// A content-addressed cache key: *which model* × *which question*.
///
/// The model half is the trained model's fingerprint (training data +
/// config + learned parameters); the payload half
/// fingerprints the request (a compiled perturbation plan, a goal
/// configuration, ...). Two sessions holding bit-identical models
/// produce identical keys, so the cache deduplicates work *across*
/// sessions; any retrain produces a fresh model half and misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the evaluating model.
    pub model: Fingerprint,
    /// Fingerprint of the evaluated request.
    pub payload: Fingerprint,
}

impl CacheKey {
    /// Compose a key.
    pub fn new(model: Fingerprint, payload: Fingerprint) -> CacheKey {
        CacheKey { model, payload }
    }

    fn shard_index(&self) -> usize {
        // Payload low bits already diffuse well (FNV); fold in the
        // model half so one hot model still spreads across shards.
        ((self.payload.lo ^ self.model.lo.rotate_left(32)) % N_SHARDS as u64) as usize
    }
}

/// Approximate heap cost of a cached value, used for budget accounting.
pub trait CacheWeight {
    /// Estimated bytes this value holds (excluding per-entry overhead,
    /// which the cache adds itself).
    fn weight_bytes(&self) -> usize;
}

/// A point-in-time accounting snapshot, serializable for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing. (Lookups against a disabled cache
    /// are not counted at all.)
    pub misses: u64,
    /// Values stored (including replacements of an existing key).
    pub insertions: u64,
    /// Entries removed to respect the byte budget.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: u64,
    /// Live bytes right now (values + per-entry overhead).
    pub bytes: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
    /// Whether lookups/insertions are currently enabled.
    pub enabled: bool,
    /// Insertions skipped because the value alone outweighed a whole
    /// shard's budget (`capacity / N_SHARDS`). A growing count explains
    /// a low hit rate: the results being computed are too large for the
    /// configured capacity and are never cached. (`serde(default)` for
    /// wire compatibility with pre-counter snapshots.)
    #[serde(default)]
    pub oversized_skips: u64,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A cached value and its recency stamp. Its weight is recomputed
/// from the value when it leaves rather than stored: values are
/// immutable, and the slot stays 8 bytes smaller.
struct Entry<V> {
    value: V,
    stamp: u64,
}

fn entry_weight<V: CacheWeight>(value: &V) -> usize {
    value.weight_bytes() + ENTRY_OVERHEAD_BYTES
}

struct Shard<V> {
    /// Entries grouped by the model half of their key, so a slot stores
    /// only the 16-byte payload half: a what-if grid inserts thousands
    /// of entries under one model. Each entry carries the tick of its
    /// last insert or hit, which orders eviction; there is no separate
    /// recency queue, which at one pair per entry cost as much memory
    /// as the slots themselves.
    models: HashMap<Fingerprint, HashMap<Fingerprint, Entry<V>>>,
    len: usize,
    tick: u64,
    bytes: usize,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            models: HashMap::new(),
            len: 0,
            tick: 0,
            bytes: 0,
        }
    }

    fn touch(&mut self, key: CacheKey) -> Option<&Entry<V>> {
        self.tick += 1;
        let entry = self.models.get_mut(&key.model)?.get_mut(&key.payload)?;
        entry.stamp = self.tick;
        Some(entry)
    }

    /// Insert or replace; returns the replaced entry.
    fn put(&mut self, key: CacheKey, value: V) -> Option<Entry<V>> {
        self.tick += 1;
        let entry = Entry {
            value,
            stamp: self.tick,
        };
        let old = self
            .models
            .entry(key.model)
            .or_default()
            .insert(key.payload, entry);
        self.len += usize::from(old.is_none());
        old
    }

    fn clear(&mut self) {
        self.models.clear();
        self.len = 0;
        self.tick = 0;
        self.bytes = 0;
    }
}

impl<V: CacheWeight> Shard<V> {
    /// Evict least-recently-used entries until `bytes <= budget`, then
    /// keep evicting in the same order while the next entry would leave
    /// at least 7/8 of the budget in use. Finding the order is a sort of
    /// the whole shard, so a full cache pays it once per ~1/8 budget of
    /// inserts rather than on every insert. Returns how many were
    /// evicted.
    fn evict_to(&mut self, budget: usize) -> u64 {
        if self.bytes <= budget {
            return 0;
        }
        let mut order: Vec<(u64, CacheKey)> = self
            .models
            .iter()
            .flat_map(|(&model, entries)| {
                entries
                    .iter()
                    .map(move |(&payload, e)| (e.stamp, CacheKey { model, payload }))
            })
            .collect();
        order.sort_unstable_by_key(|&(stamp, _)| stamp);
        let floor = budget - budget / 8;
        let mut evicted = 0;
        for (_, key) in order {
            let entries = self.models.get_mut(&key.model).expect("listed above");
            let weight = entry_weight(&entries[&key.payload].value);
            if self.bytes <= budget && self.bytes - weight < floor {
                break;
            }
            entries.remove(&key.payload);
            self.bytes -= weight;
            self.len -= 1;
            evicted += 1;
        }
        self.models.retain(|_, entries| !entries.is_empty());
        if self.len == 0 {
            self.tick = 0;
        }
        evicted
    }
}

/// A sharded, memory-budgeted, content-addressed LRU result cache.
///
/// Thread-safe behind `&self`; intended to be shared process-wide (the
/// server wraps one in an `Arc` and every session evaluates through
/// it). Disabled caches are transparent: lookups miss, insertions
/// no-op, existing entries are retained for instant re-warm on
/// re-enable.
pub struct ResultCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_bytes: AtomicUsize,
    enabled: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    oversized_skips: AtomicU64,
}

impl<V> ResultCache<V> {
    /// An enabled cache with the given byte budget.
    pub fn new(capacity_bytes: usize) -> ResultCache<V> {
        ResultCache {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(SHARD_CLASS, Shard::new()))
                .collect(),
            capacity_bytes: AtomicUsize::new(capacity_bytes),
            enabled: AtomicBool::new(true),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            oversized_skips: AtomicU64::new(0),
        }
    }

    /// Whether lookups/insertions are enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes.load(Ordering::Relaxed)
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, Shard<V>> {
        // An entry's invariants cannot be corrupted by a panic in
        // another holder (no partial mutation escapes), so the
        // lockcheck wrapper's poison recovery is sound here.
        self.shards[key.shard_index()].lock()
    }

    fn shard_budget(&self) -> usize {
        self.capacity_bytes() / N_SHARDS
    }

    /// Look up a key, refreshing its recency. Counts a hit or a miss;
    /// on a disabled cache this is a silent no-op returning `None`.
    pub fn get(&self, key: &CacheKey) -> Option<V>
    where
        V: Clone,
    {
        if !self.is_enabled() {
            return None;
        }
        let found = self.shard(key).touch(*key).map(|e| e.value.clone());
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a value, evicting least-recently-used entries of the same
    /// shard as needed. Values heavier than a whole shard's budget are
    /// not cached at all (counted in [`CacheStats::oversized_skips`] so
    /// operators can tell "never cached" from "evicted"). No-op on a
    /// disabled cache.
    pub fn insert(&self, key: CacheKey, value: V)
    where
        V: CacheWeight,
    {
        if !self.is_enabled() {
            return;
        }
        let weight = entry_weight(&value);
        let budget = self.shard_budget();
        if weight > budget {
            self.oversized_skips.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let evicted = {
            let mut shard = self.shard(&key);
            if let Some(old) = shard.put(key, value) {
                shard.bytes -= entry_weight(&old.value);
            }
            shard.bytes += weight;
            shard.evict_to(budget)
        };
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Reconfigure capacity and/or enablement; a shrunk capacity
    /// triggers immediate eviction down to the new budget.
    pub fn configure(&self, capacity_bytes: Option<usize>, enabled: Option<bool>)
    where
        V: CacheWeight,
    {
        if let Some(capacity) = capacity_bytes {
            self.capacity_bytes.store(capacity, Ordering::Relaxed);
            let budget = self.shard_budget();
            let mut evicted = 0;
            for shard in &self.shards {
                evicted += shard.lock().evict_to(budget);
            }
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if let Some(enabled) = enabled {
            self.enabled.store(enabled, Ordering::Relaxed);
        }
    }

    /// Drop every entry (counters are preserved — they describe the
    /// cache's lifetime, not its current contents).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Accounting snapshot. `entries`/`bytes` are read shard by shard,
    /// so under concurrent writers the snapshot is approximate but each
    /// counter is individually exact.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.len as u64;
            bytes += shard.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity_bytes: self.capacity_bytes() as u64,
            enabled: self.is_enabled(),
            oversized_skips: self.oversized_skips.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Hasher128;

    impl CacheWeight for u64 {
        fn weight_bytes(&self) -> usize {
            8
        }
    }

    fn key(model: u64, payload: u64) -> CacheKey {
        let mut m = Hasher128::new();
        m.write_u64(model);
        let mut p = Hasher128::new();
        p.write_u64(payload);
        CacheKey::new(m.finish(), p.finish())
    }

    #[test]
    fn get_insert_and_stats_accounting() {
        let cache: ResultCache<u64> = ResultCache::new(1 << 20);
        let k = key(1, 1);
        assert_eq!(cache.get(&k), None);
        cache.insert(k, 42);
        assert_eq!(cache.get(&k), Some(42));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 8 + ENTRY_OVERHEAD_BYTES as u64);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!(s.enabled);
    }

    #[test]
    fn replacement_updates_bytes_not_entries() {
        let cache: ResultCache<u64> = ResultCache::new(1 << 20);
        let k = key(1, 1);
        cache.insert(k, 1);
        cache.insert(k, 2);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.bytes, 8 + ENTRY_OVERHEAD_BYTES as u64);
        assert_eq!(cache.get(&k), Some(2));
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Budget for ~3 entries per shard; same payload-shard keys by
        // construction: vary only the model half after pinning payload
        // so all keys land in one shard.
        let per_entry = 8 + ENTRY_OVERHEAD_BYTES;
        let cache: ResultCache<u64> = ResultCache::new(3 * per_entry * N_SHARDS);
        // Find 4 keys in the same shard.
        let mut same_shard = Vec::new();
        let mut i = 0u64;
        while same_shard.len() < 4 {
            let k = key(7, i);
            if k.shard_index() == key(7, 0).shard_index() {
                same_shard.push(k);
            }
            i += 1;
        }
        for (n, &k) in same_shard.iter().enumerate() {
            cache.insert(k, n as u64);
        }
        // Oldest (index 0) was evicted to fit the fourth.
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&same_shard[0]), None);
        // Touch index 1 so index 2 becomes the LRU, then overflow again.
        assert!(cache.get(&same_shard[1]).is_some());
        let mut extra = i;
        let fresh = loop {
            let k = key(7, extra);
            if k.shard_index() == same_shard[0].shard_index() {
                break k;
            }
            extra += 1;
        };
        cache.insert(fresh, 99);
        assert_eq!(cache.get(&same_shard[2]), None, "LRU went, not MRU");
        assert!(cache.get(&same_shard[1]).is_some(), "touched entry kept");
    }

    #[test]
    fn oversized_values_are_not_cached() {
        struct Huge;
        impl CacheWeight for Huge {
            fn weight_bytes(&self) -> usize {
                usize::MAX / 2
            }
        }
        let cache: ResultCache<Huge> = ResultCache::new(1 << 20);
        cache.insert(key(1, 1), Huge);
        let s = cache.stats();
        assert_eq!((s.entries, s.insertions), (0, 0));
        assert_eq!(s.oversized_skips, 1, "the skip is visible to operators");
        cache.insert(key(2, 2), Huge);
        assert_eq!(cache.stats().oversized_skips, 2);
    }

    #[test]
    fn disabled_cache_is_transparent_but_retains_entries() {
        let cache: ResultCache<u64> = ResultCache::new(1 << 20);
        let k = key(1, 1);
        cache.insert(k, 5);
        cache.configure(None, Some(false));
        assert_eq!(cache.get(&k), None, "disabled: no hits");
        cache.insert(key(2, 2), 6);
        let s = cache.stats();
        assert!(!s.enabled);
        assert_eq!(s.entries, 1, "no insert while disabled");
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0, "disabled lookups don't count");
        cache.configure(None, Some(true));
        assert_eq!(cache.get(&k), Some(5), "instant re-warm");
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let cache: ResultCache<u64> = ResultCache::new(1 << 20);
        for i in 0..64 {
            cache.insert(key(i, i), i);
        }
        assert_eq!(cache.stats().entries, 64);
        cache.configure(Some(0), None);
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.evictions, 64);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache: ResultCache<u64> = ResultCache::new(1 << 20);
        cache.insert(key(1, 1), 1);
        cache.get(&key(1, 1));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!((s.hits, s.insertions), (1, 1), "lifetime counters kept");
    }

    #[test]
    fn concurrent_hammer_keeps_accounting_consistent() {
        use std::sync::Arc;
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(1 << 16));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = key(t % 2, i % 50);
                        if cache.get(&k).is_none() {
                            cache.insert(k, i);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 500, "every lookup counted");
        assert!(s.bytes <= s.capacity_bytes, "budget respected");
        assert_eq!(
            s.entries,
            {
                // Recount directly for cross-checking.
                cache.stats().entries
            },
            "snapshot stable at quiescence"
        );
        assert!(s.hits > 0, "shared keys produced hits");
    }

    #[test]
    fn a_full_shard_evicts_an_eighth_of_its_budget_oldest_first() {
        let per_entry = 8 + ENTRY_OVERHEAD_BYTES;
        let cache: ResultCache<u64> = ResultCache::new(64 * per_entry * N_SHARDS);
        let shard = key(5, 0).shard_index();
        let keys: Vec<CacheKey> = (0..)
            .map(|i| key(5, i))
            .filter(|k| k.shard_index() == shard)
            .take(65)
            .collect();
        for (n, &k) in keys[..64].iter().enumerate() {
            cache.insert(k, n as u64);
        }
        // Touch the oldest so it is the most recent, then overflow.
        assert_eq!(cache.get(&keys[0]), Some(0));
        cache.insert(keys[64], 64);
        // One sort freed 1/8 of the budget: the 8 least recently used
        // went in one pass, not one per later insert.
        let s = cache.stats();
        assert_eq!(s.evictions, 9);
        assert_eq!(s.entries, 56);
        assert_eq!(cache.get(&keys[0]), Some(0), "touched entry kept");
        for &k in &keys[1..10] {
            assert_eq!(cache.get(&k), None, "LRU entries went");
        }
        assert_eq!(cache.get(&keys[10]), Some(10));
    }

    #[test]
    fn stats_serde_roundtrip() {
        let cache: ResultCache<u64> = ResultCache::new(4096);
        cache.insert(key(1, 2), 3);
        let s = cache.stats();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(s, serde_json::from_str::<CacheStats>(&json).unwrap());
        // A pre-counter snapshot (no `oversized_skips` field) still
        // parses: the counter defaults to zero.
        let legacy = json.replace(",\"oversized_skips\":0", "");
        assert!(!legacy.contains("oversized_skips"), "{legacy}");
        let parsed: CacheStats = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.oversized_skips, 0);
    }
}
