//! A small LRU evaluation cache keyed by weight-vector hash.
//!
//! The weight search revisits candidate settings constantly — clamped
//! moves regenerate the incumbent, diversification restarts return to
//! the neighborhood of the best solution, and routine 3 re-evaluates
//! refinement candidates around `W*`. Caching per-class results keyed by
//! the full weight vector short-circuits all of that.
//!
//! Keys are FNV-1a hashes of the weight slice; the stored entry keeps a
//! copy of the weights and verifies equality on hit, so hash collisions
//! degrade to misses instead of wrong results (which would silently
//! corrupt the search).

use dtr_graph::WeightVector;
use std::collections::{HashMap, VecDeque};

/// FNV-1a over the raw weight words.
pub fn weight_hash(w: &WeightVector) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in w.as_slice() {
        h ^= x as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Entry<V> {
    key: WeightVector,
    value: V,
    /// Monotonic recency stamp.
    stamp: u64,
}

/// Least-recently-used map from weight vectors to evaluation results.
pub struct LruCache<V> {
    map: HashMap<u64, Entry<V>>,
    /// One `(hash, stamp)` record per use, oldest first. A record is
    /// live while its entry still carries that stamp; a later use of
    /// the entry leaves it stale. The oldest live record names the
    /// least-recently-used entry, so eviction pops from the front —
    /// amortised O(1), where scanning every entry for the minimum stamp
    /// cost O(capacity) per insert once the cache was full.
    recency: VecDeque<(u64, u64)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V: Clone> LruCache<V> {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        // Pre-size the map for the full requested capacity so caches
        // above 1024 entries don't rehash-grow on the search hot path;
        // the 2^16 ceiling only bounds the up-front allocation against
        // absurd requests — `capacity` itself stays fully honored by
        // the eviction logic in `put`.
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            recency: VecDeque::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `w`, refreshing its recency on hit.
    pub fn get(&mut self, w: &WeightVector) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let h = weight_hash(w);
        match self.map.get_mut(&h) {
            Some(e) if &e.key == w => {
                e.stamp = self.tick;
                self.hits += 1;
                let value = e.value.clone();
                self.record_use(h);
                Some(value)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Appends the use of `h` at the current tick to the recency queue,
    /// dropping stale records once they outnumber the live ones (at
    /// most one live record per entry), which keeps the queue O(capacity).
    fn record_use(&mut self, h: u64) {
        self.recency.push_back((h, self.tick));
        if self.recency.len() > 2 * self.capacity {
            let map = &self.map;
            self.recency
                .retain(|&(h, stamp)| map.get(&h).is_some_and(|e| e.stamp == stamp));
        }
    }

    /// Inserts `w → value`, evicting the least-recently-used entry when
    /// full. A hash collision overwrites the colliding entry (rare, and
    /// correctness is preserved by the equality check in [`Self::get`]).
    pub fn put(&mut self, w: &WeightVector, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let h = weight_hash(w);
        if self.map.len() >= self.capacity && !self.map.contains_key(&h) {
            while let Some((old, stamp)) = self.recency.pop_front() {
                if self.map.get(&old).is_some_and(|e| e.stamp == stamp) {
                    self.map.remove(&old);
                    break;
                }
            }
        }
        self.map.insert(
            h,
            Entry {
                key: w.clone(),
                value,
                stamp: self.tick,
            },
        );
        self.record_use(h);
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wv(v: Vec<u32>) -> WeightVector {
        WeightVector::from_vec(v)
    }

    #[test]
    fn hit_miss_and_eviction() {
        let mut c: LruCache<u32> = LruCache::new(2);
        let a = wv(vec![1, 2, 3]);
        let b = wv(vec![4, 5, 6]);
        let d = wv(vec![7, 8, 9]);
        assert_eq!(c.get(&a), None);
        c.put(&a, 10);
        c.put(&b, 20);
        assert_eq!(c.get(&a), Some(10));
        c.put(&d, 30); // evicts b (least recently used)
        assert_eq!(c.get(&b), None);
        assert_eq!(c.get(&a), Some(10));
        assert_eq!(c.get(&d), Some(30));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: LruCache<u32> = LruCache::new(0);
        let a = wv(vec![1]);
        c.put(&a, 1);
        assert_eq!(c.get(&a), None);
    }

    #[test]
    fn large_capacity_is_honored_with_lru_eviction_order() {
        // Regression: the constructor used to clamp its size hint at
        // 1024; make sure a larger cache actually retains more than
        // 1024 entries and still evicts in LRU order past that point.
        let cap = 1500usize;
        let mut c: LruCache<u32> = LruCache::new(cap);
        for i in 0..cap as u32 {
            c.put(&wv(vec![i, i + 1]), i);
        }
        // Full, nothing evicted yet: the very first entry is present.
        assert_eq!(c.get(&wv(vec![0, 1])), Some(0));
        // Refresh entry 1 so entry 2 becomes the least recently used.
        assert_eq!(c.get(&wv(vec![1, 2])), Some(1));
        c.put(&wv(vec![9999, 10000]), 9999);
        assert_eq!(c.get(&wv(vec![2, 3])), None, "LRU entry must go first");
        assert_eq!(c.get(&wv(vec![1, 2])), Some(1), "refreshed entry survives");
        assert_eq!(c.get(&wv(vec![9999, 10000])), Some(9999));
    }

    #[test]
    fn hits_keep_the_recency_queue_bounded_and_eviction_exact() {
        let mut c: LruCache<u32> = LruCache::new(4);
        for i in 0..4u32 {
            c.put(&wv(vec![i]), i);
        }
        // Far more uses than entries, and no eviction to drain them.
        for _ in 0..100 {
            for i in [3u32, 2, 1, 0] {
                assert_eq!(c.get(&wv(vec![i])), Some(i));
            }
        }
        assert!(c.recency.len() <= 2 * 4 + 1, "{}", c.recency.len());
        // The last round used 3 first, so 3 is the least recently used.
        c.put(&wv(vec![9]), 9);
        assert_eq!(c.get(&wv(vec![3])), None);
        for i in [2u32, 1, 0, 9] {
            assert_eq!(c.get(&wv(vec![i])), Some(i));
        }
    }

    #[test]
    fn distinct_vectors_distinct_hashes_usually() {
        let a = weight_hash(&wv(vec![1, 2, 3]));
        let b = weight_hash(&wv(vec![3, 2, 1]));
        assert_ne!(a, b);
    }
}
