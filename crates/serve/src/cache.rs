//! Sharded LRU cache for rendered per-page prediction responses.
//!
//! Keys are `"<generation>|<request key>"` strings where the generation
//! is derived from the checkpoint config fingerprint plus the artifact
//! checksum (see [`crate::artifacts`]): restarting the server on a
//! re-trained artifact set changes the generation, so every key from the
//! old model misses naturally — cache invalidation by construction, no
//! epoch bookkeeping.
//!
//! Sharding (FNV-1a of the key picks one of [`SHARDS`] independent
//! `Mutex<Shard>`s) keeps pool workers from serializing on one lock.
//! Each shard runs true LRU on its own slice of the capacity: hits
//! re-queue the key under a fresh per-shard stamp, inserts evict the
//! shard's least-recent entry once the shard is full. Hits and misses
//! are counted under `serve/cache/hit` and `serve/cache/miss`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use wikistale_obs::MetricsRegistry;

/// Number of independent shards.
pub const SHARDS: usize = 8;

#[derive(Default)]
struct Shard {
    /// Key → (stamp of its newest queue entry, body).
    map: HashMap<String, (u64, Arc<Vec<u8>>)>,
    // Most-recent at the back. May hold outdated entries for re-queued
    // keys; only the entry whose stamp matches the map's is live, so
    // eviction skips the rest in O(1).
    order: VecDeque<(u64, String)>,
    /// The next recency stamp; increases on every hit and insert.
    next_stamp: u64,
}

impl Shard {
    /// Queue `key` as most recent and return its fresh stamp.
    fn touch(&mut self, key: &str) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((stamp, key.to_string()));
        stamp
    }

    /// Whether the queue entry `(stamp, key)` is the key's newest.
    fn is_live(&self, stamp: u64, key: &str) -> bool {
        self.map.get(key).is_some_and(|&(s, _)| s == stamp)
    }
}

/// A sharded, bounded LRU mapping request keys to rendered response
/// bodies.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ResponseCache {
    /// A cache holding roughly `total_entries` across all shards
    /// (rounded up to at least one per shard). `total_entries == 0`
    /// disables caching: every lookup misses and nothing is stored.
    pub fn new(total_entries: usize) -> ResponseCache {
        let per_shard_capacity = if total_entries == 0 {
            0
        } else {
            total_entries.div_ceil(SHARDS)
        };
        ResponseCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// Look `key` up, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let metrics = MetricsRegistry::global();
        let mut shard = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match shard.map.get(key).map(|(_, body)| Arc::clone(body)) {
            Some(body) => {
                let stamp = shard.touch(key);
                if let Some(entry) = shard.map.get_mut(key) {
                    entry.0 = stamp;
                }
                compact_if_bloated(&mut shard, self.per_shard_capacity);
                metrics.counter("serve/cache/hit").incr();
                Some(body)
            }
            None => {
                metrics.counter("serve/cache/miss").incr();
                None
            }
        }
    }

    /// Insert `body` under `key`, evicting the shard's least-recently
    /// used entries when over capacity.
    pub fn insert(&self, key: &str, body: Arc<Vec<u8>>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let stamp = shard.touch(key);
        shard.map.insert(key.to_string(), (stamp, body));
        while shard.map.len() > self.per_shard_capacity {
            let Some((stamp, candidate)) = shard.order.pop_front() else {
                break;
            };
            // A key re-queued since this entry was pushed is still
            // recent — only evict when this is its newest queue entry.
            if !shard.is_live(stamp, &candidate) {
                continue;
            }
            shard.map.remove(&candidate);
            MetricsRegistry::global()
                .counter("serve/cache/evicted")
                .incr();
        }
        compact_if_bloated(&mut shard, self.per_shard_capacity);
    }

    /// Recency-queue entries across all shards (test hook: bounded by
    /// compaction even under a hit-heavy workload).
    #[cfg(test)]
    fn order_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).order.len())
            .sum()
    }

    /// Entries currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hits re-queue keys without removing the old queue entry, so the
/// queue can outgrow the map under a hit-heavy workload. Once it passes
/// a small multiple of the capacity, keep only the live entries (one per
/// cached key) — amortized O(1) per operation.
fn compact_if_bloated(shard: &mut Shard, capacity: usize) {
    if shard.order.len() <= capacity.saturating_mul(8).max(64) {
        return;
    }
    let mut order = std::mem::take(&mut shard.order);
    order.retain(|(stamp, key)| shard.is_live(*stamp, key));
    shard.order = order;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<Vec<u8>> {
        Arc::new(text.as_bytes().to_vec())
    }

    #[test]
    fn hit_miss_and_storage() {
        let cache = ResponseCache::new(64);
        assert!(cache.get("gen1|/v1/stale/A").is_none());
        cache.insert("gen1|/v1/stale/A", body("flags"));
        assert_eq!(
            cache.get("gen1|/v1/stale/A").as_deref(),
            Some(&b"flags".to_vec())
        );
        // A new generation misses on the same logical request.
        assert!(cache.get("gen2|/v1/stale/A").is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResponseCache::new(0);
        cache.insert("k", body("v"));
        assert!(cache.get("k").is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        let cache = ResponseCache::new(SHARDS); // one entry per shard
                                                // Find two keys landing in the same shard.
        let keys: Vec<String> = (0..1000).map(|i| format!("key-{i}")).collect();
        let first = &keys[0];
        let same_shard = keys[1..]
            .iter()
            .find(|k| {
                std::ptr::eq(
                    cache.shard_of(k) as *const _,
                    cache.shard_of(first) as *const _,
                )
            })
            .expect("some key shares a shard");
        cache.insert(first, body("a"));
        cache.insert(same_shard, body("b"));
        // The shard holds one entry: the older key must be gone.
        assert!(cache.get(first).is_none());
        assert!(cache.get(same_shard).is_some());
    }

    #[test]
    fn recent_hit_survives_eviction() {
        let cache = ResponseCache::new(SHARDS * 2); // two entries per shard
                                                    // Three keys in one shard; touching the first should evict the
                                                    // second instead.
        let keys: Vec<String> = (0..2000).map(|i| format!("k{i}")).collect();
        let shard0 = cache.shard_of(&keys[0]) as *const _;
        let mut in_shard: Vec<&String> = keys
            .iter()
            .filter(|k| std::ptr::eq(cache.shard_of(k) as *const _, shard0))
            .collect();
        in_shard.truncate(3);
        assert_eq!(in_shard.len(), 3, "not enough colliding keys");
        cache.insert(in_shard[0], body("0"));
        cache.insert(in_shard[1], body("1"));
        assert!(cache.get(in_shard[0]).is_some()); // refresh recency
        cache.insert(in_shard[2], body("2"));
        assert!(
            cache.get(in_shard[0]).is_some(),
            "recently hit entry evicted"
        );
        assert!(cache.get(in_shard[1]).is_none(), "LRU entry survived");
        assert!(cache.get(in_shard[2]).is_some());
    }

    #[test]
    fn recency_queue_stays_bounded_under_hits() {
        let cache = ResponseCache::new(16);
        cache.insert("hot", body("v"));
        for _ in 0..10_000 {
            assert!(cache.get("hot").is_some());
        }
        assert!(
            cache.order_len() < 1_000,
            "queue grew to {} entries",
            cache.order_len()
        );
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ResponseCache::new(128));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500 {
                        let key = format!("g|{}", (t * 31 + i) % 64);
                        if cache.get(&key).is_none() {
                            cache.insert(&key, body(&key));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 128 + SHARDS);
    }
}
