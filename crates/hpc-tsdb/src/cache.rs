//! Bounded LRU cache of decoded chunks.
//!
//! Gorilla decode is the dominant cost of a raw-plan query, and sealed
//! chunks are **immutable**: once sealed a payload never changes, and
//! every sealed payload carries a process-unique uid minted at
//! construction ([`Chunk::uid`]). The cache keys on that uid, so even a
//! compaction pass that *replaces* chunks needs no invalidation
//! protocol — the replacement chunk has a fresh uid and the orphaned
//! entries age out of the LRU. The only mutable storage is the active
//! (unsealed) chunk, which is never cached.
//!
//! Decoded chunks are held in columnar form ([`ColumnBlock`]): flat
//! timestamp and value vectors that aggregation kernels scan as tight
//! loops with binary-searched bounds.
//!
//! The cache is sharded: keys hash across independent mutexes so readers
//! on different threads (one per `hpc-serve` session; every query runs on
//! its caller's thread) rarely contend, and decode itself always happens
//! *outside* the lock. Two readers may race to decode the same chunk; the
//! loser's insert keeps the winner's block but still refreshes its LRU
//! stamp — a racing duplicate insert is proof the entry is hot, and an
//! unrefreshed stamp would let the hot chunk be evicted as "oldest".
//! Eviction is least-recently-used per shard, tracked with a monotonic
//! access stamp.

use crate::chunk::{Chunk, ColumnBlock};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A decoded chunk in columnar form, shared between the cache and its
/// readers.
pub type DecodedChunk = Arc<ColumnBlock>;

/// Internal lock shards. Power of two so the hash mix distributes evenly.
const CACHE_SHARDS: usize = 8;

#[derive(Debug, Default)]
struct CacheShard {
    map: HashMap<u64, Entry>,
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    block: DecodedChunk,
    stamp: u64,
}

impl CacheShard {
    fn touch(&mut self, key: u64) -> Option<DecodedChunk> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.stamp = tick;
            Arc::clone(&e.block)
        })
    }

    fn insert(&mut self, key: u64, block: DecodedChunk, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        // A duplicate insert (decode race lost) keeps the winner's block
        // but must still refresh the stamp: the entry was just accessed,
        // and leaving it stale gets hot chunks evicted as "oldest".
        self.map
            .entry(key)
            .and_modify(|e| e.stamp = tick)
            .or_insert(Entry { block, stamp: tick });
        while self.map.len() > capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k)
                .expect("over-capacity shard is non-empty");
            self.map.remove(&oldest);
        }
    }
}

/// Bounded LRU cache of decoded chunks, keyed by chunk uid. Capacity is
/// counted in chunks (a full chunk decodes to `CHUNK_SAMPLES` timestamp +
/// value pairs ≈ 8 KiB of columns). A capacity of zero disables caching
/// entirely: every lookup decodes.
#[derive(Debug)]
pub struct ChunkCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Per-shard bounds summing exactly to the requested capacity (the
    /// remainder spreads over the first shards), so `capacity()` reports
    /// the number the caller asked for, not a rounded-up multiple.
    shard_capacity: Vec<usize>,
    capacity: usize,
}

impl ChunkCache {
    /// A cache holding at most `capacity` decoded chunks (0 disables
    /// caching).
    pub fn new(capacity: usize) -> Self {
        let base = capacity / CACHE_SHARDS;
        let extra = capacity % CACHE_SHARDS;
        ChunkCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(CacheShard::default())).collect(),
            shard_capacity: (0..CACHE_SHARDS).map(|i| base + usize::from(i < extra)).collect(),
            capacity,
        }
    }

    /// Maximum chunks held (0 when disabled) — exactly the capacity
    /// requested at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Decoded chunks currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached chunk (counters in the query layer are separate).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().map.clear();
        }
    }

    fn shard_of(&self, key: u64) -> usize {
        // Fibonacci mix so sequentially-minted uids spread across shards.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 56) as usize % CACHE_SHARDS
    }

    /// Fetch the decoded columns of `chunk`, decoding on a miss. Returns
    /// the block and whether this was a cache hit. Decode runs outside the
    /// shard lock.
    pub fn get_or_decode(&self, chunk: &Chunk) -> (DecodedChunk, bool) {
        let key = chunk.uid();
        let shard_idx = self.shard_of(key);
        if self.shard_capacity[shard_idx] == 0 {
            return (Arc::new(chunk.decode_columns()), false);
        }
        let shard = &self.shards[shard_idx];
        if let Some(block) = shard.lock().touch(key) {
            return (block, true);
        }
        let block: DecodedChunk = Arc::new(chunk.decode_columns());
        shard.lock().insert(key, Arc::clone(&block), self.shard_capacity[shard_idx]);
        (block, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkBuilder;

    fn chunk_of(n: u32, offset: f64) -> Chunk {
        let mut b = ChunkBuilder::new();
        for i in 0..n {
            b.push(i64::from(i) * 60, f64::from(i) + offset);
        }
        b.seal()
    }

    #[test]
    fn hit_after_miss_returns_same_samples() {
        let cache = ChunkCache::new(16);
        let c = chunk_of(100, 0.5);
        let (first, hit) = cache.get_or_decode(&c);
        assert!(!hit);
        let (second, hit) = cache.get_or_decode(&c);
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.len(), 100);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_chunks_do_not_collide() {
        let cache = ChunkCache::new(64);
        let a = chunk_of(10, 0.0);
        let b = chunk_of(10, 1000.0);
        let (da, _) = cache.get_or_decode(&a);
        let (db, _) = cache.get_or_decode(&b);
        assert_eq!(da.values()[0], 0.0);
        assert_eq!(db.values()[0], 1000.0);
        // A clone shares the uid, so it is the *same* entry.
        let (dc, hit) = cache.get_or_decode(&b.clone());
        assert!(hit);
        assert_eq!(dc.values()[0], 1000.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_oldest_within_capacity() {
        let cache = ChunkCache::new(8); // at most 1 per internal shard
        let chunks: Vec<Chunk> = (0..32).map(|i| chunk_of(4, f64::from(i))).collect();
        for c in &chunks {
            cache.get_or_decode(c);
        }
        assert!(cache.len() <= cache.capacity());
        let before = cache.len();
        cache.clear();
        assert!(cache.is_empty());
        assert!(before > 0);
    }

    #[test]
    fn capacity_reports_exactly_what_was_requested() {
        // Regression: div_ceil rounding made new(1) report (and hold)
        // CACHE_SHARDS chunks — an 8x memory-bound overshoot for small
        // caches.
        for requested in [0usize, 1, 3, 7, 8, 9, 100] {
            let cache = ChunkCache::new(requested);
            assert_eq!(cache.capacity(), requested, "requested {requested}");
        }
        // And the bound is enforced globally, not just reported: however
        // many distinct chunks stream through a capacity-1 cache, at most
        // one survives.
        let cache = ChunkCache::new(1);
        let chunks: Vec<Chunk> = (0..64).map(|i| chunk_of(4, f64::from(i))).collect();
        for c in &chunks {
            cache.get_or_decode(c);
        }
        assert!(cache.len() <= 1, "capacity-1 cache holds {}", cache.len());
    }

    #[test]
    fn duplicate_insert_refreshes_lru_stamp() {
        // Regression: `or_insert` skipped the stamp refresh when a decode
        // race lost, so a chunk being hammered by many workers could
        // still look "oldest" and be evicted first. Model the race at the
        // shard level: insert A, then B, then re-insert A (the losing
        // racer), then overflow — B, not A, must be the eviction victim.
        let mut shard = CacheShard::default();
        let block = |v: f64| Arc::new(ColumnBlock::new(vec![0], vec![v]));
        shard.insert(1, block(1.0), 2);
        shard.insert(2, block(2.0), 2);
        shard.insert(1, block(1.0), 2); // duplicate: must refresh key 1
        shard.insert(3, block(3.0), 2); // overflow: evicts the true LRU
        assert!(shard.map.contains_key(&1), "hot entry evicted after duplicate insert");
        assert!(!shard.map.contains_key(&2), "stale entry survived eviction");
        assert!(shard.map.contains_key(&3));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ChunkCache::new(0);
        let c = chunk_of(4, 0.0);
        let (_, hit) = cache.get_or_decode(&c);
        assert!(!hit);
        let (_, hit) = cache.get_or_decode(&c);
        assert!(!hit, "disabled cache never hits");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn concurrent_readers_agree() {
        let cache = std::sync::Arc::new(ChunkCache::new(32));
        let c = chunk_of(256, 10.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let (block, _) = cache.get_or_decode(&c);
                        assert_eq!(block.len(), 256);
                        assert_eq!(block.values()[0], 10.0);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
    }
}
