//! The integrated statistics cache.
//!
//! Computing the entropy of every candidate attribute over the live
//! candidate set on every turn is the policy's hot path. The paper reports
//! that "an integrated caching strategy leads to an average response
//! latency of only a few milliseconds"; this cache keys entropy values on
//! `(attribute, candidate-set signature, table version)` so that repeated
//! turns and repeated sessions over unchanged data hit memory instead of
//! recomputing — while any write to the underlying table invalidates
//! implicitly via the version check. The cache holds at most
//! [`StatsCache::CAPACITY`] entries and evicts the oldest first.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

/// Cache key: attribute key + candidate-set signature.
type Key = (String, u64);

/// A versioned entropy cache with hit/miss accounting and a fixed entry
/// cap.
#[derive(Debug)]
pub struct StatsCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<Key, (u64, f64)>,
    /// The map's keys, oldest insertion first: the eviction order.
    order: VecDeque<Key>,
    hits: u64,
    misses: u64,
}

impl Default for StatsCache {
    fn default() -> Self {
        StatsCache::bounded(StatsCache::CAPACITY)
    }
}

impl StatsCache {
    /// Entries kept before the oldest is evicted. An agent serving the
    /// perfbench workloads stores about 700–1,100, so none evicts.
    pub const CAPACITY: usize = 4096;

    pub fn new() -> StatsCache {
        StatsCache::default()
    }

    fn bounded(capacity: usize) -> StatsCache {
        StatsCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
        }
    }

    /// Fetch the cached value for `(attr_key, signature)` if it was stored
    /// at the same table `version`; otherwise compute, store and return.
    pub fn get_or_compute<F: FnOnce() -> f64>(
        &self,
        attr_key: &str,
        signature: u64,
        version: u64,
        compute: F,
    ) -> f64 {
        let key = (attr_key.to_string(), signature);
        {
            let mut inner = self.inner.lock();
            if let Some(&(v, value)) = inner.map.get(&key) {
                if v == version {
                    inner.hits += 1;
                    return value;
                }
            }
            inner.misses += 1;
        }
        // Compute outside the lock (pure function of the database).
        let value = compute();
        let mut inner = self.inner.lock();
        if inner.map.insert(key.clone(), (version, value)).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                let oldest = inner.order.pop_front().expect("over capacity");
                inner.map.remove(&oldest);
            }
        }
        value
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Hit rate in `[0,1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = self.stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries and reset counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
        inner.hits = 0;
        inner.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn caches_by_key_and_version() {
        let cache = StatsCache::new();
        let computed = AtomicUsize::new(0);
        let compute = || {
            computed.fetch_add(1, Ordering::SeqCst);
            1.5
        };
        assert_eq!(cache.get_or_compute("a.x", 7, 1, compute), 1.5);
        assert_eq!(cache.get_or_compute("a.x", 7, 1, compute), 1.5);
        assert_eq!(computed.load(Ordering::SeqCst), 1, "second call must hit");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn version_bump_invalidates() {
        let cache = StatsCache::new();
        let computed = AtomicUsize::new(0);
        let mk = |v: f64| {
            let computed = &computed;
            move || {
                computed.fetch_add(1, Ordering::SeqCst);
                v
            }
        };
        assert_eq!(cache.get_or_compute("a.x", 7, 1, mk(1.0)), 1.0);
        // Same key, newer table version -> recompute.
        assert_eq!(cache.get_or_compute("a.x", 7, 2, mk(2.0)), 2.0);
        assert_eq!(computed.load(Ordering::SeqCst), 2);
        // The newer value is now cached.
        assert_eq!(cache.get_or_compute("a.x", 7, 2, mk(3.0)), 2.0);
    }

    #[test]
    fn different_signatures_are_distinct() {
        let cache = StatsCache::new();
        assert_eq!(cache.get_or_compute("a.x", 1, 1, || 1.0), 1.0);
        assert_eq!(cache.get_or_compute("a.x", 2, 1, || 2.0), 2.0);
        assert_eq!(cache.len(), 2);
    }

    /// Past the cap the oldest entry goes first; a recomputed (stale)
    /// entry keeps its place in the eviction order.
    #[test]
    fn evicts_the_oldest_entry_past_the_cap() {
        let cache = StatsCache::bounded(3);
        for sig in 0..3 {
            cache.get_or_compute("k", sig, 0, || sig as f64);
        }
        assert_eq!((cache.len(), cache.stats()), (3, (0, 3)));
        // A stale hit recomputes in place: no eviction, no reordering.
        cache.get_or_compute("k", 0, 1, || 10.0);
        assert_eq!((cache.len(), cache.stats()), (3, (0, 4)));
        // A fourth key evicts signature 0, the oldest insertion.
        cache.get_or_compute("k", 3, 0, || 3.0);
        assert_eq!((cache.len(), cache.stats()), (3, (0, 5)));
        for sig in 1..4 {
            assert_eq!(cache.get_or_compute("k", sig, 0, || -1.0), sig as f64);
        }
        assert_eq!(cache.stats(), (3, 5));
        // Signature 0 was evicted: a miss that evicts signature 1 in turn.
        assert_eq!(cache.get_or_compute("k", 0, 1, || 20.0), 20.0);
        assert_eq!(cache.stats(), (3, 6));
        assert_eq!(cache.get_or_compute("k", 1, 0, || 21.0), 21.0);
        assert_eq!((cache.len(), cache.stats()), (3, (3, 7)));
    }

    #[test]
    fn hit_rate_and_clear() {
        let cache = StatsCache::new();
        assert_eq!(cache.hit_rate(), 0.0);
        cache.get_or_compute("k", 0, 0, || 0.0);
        cache.get_or_compute("k", 0, 0, || 0.0);
        cache.get_or_compute("k", 0, 0, || 0.0);
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }
}
