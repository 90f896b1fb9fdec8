//! Sharded, concurrent store: series are hashed across shard locks so
//! independent writers never contend.
//!
//! There is one write path. [`TsdbStore::try_append_batch`] appends one
//! series' batch under one shard lock, refused whole on bad input;
//! [`TsdbStore::append_tick`] appends one tick across many series, one
//! lock per shard. [`TsdbStore::append`] and [`TsdbStore::append_batch`]
//! are panicking conveniences over them. Durable writers log each batch
//! to a [`crate::WalWriter`] before applying it (see [`crate::wal`]).

use crate::cache::ChunkCache;
use crate::query::{QueryCounters, QueryStats};
use crate::rollup::Aggregate;
use crate::series::{Series, SeriesMeta};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Opaque series handle. The id embeds nothing; routing is `id % shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u64);

/// Why the store refused a batch of samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The series id was never registered.
    UnknownSeries(SeriesId),
    /// A timestamp was not strictly after its predecessor (within the
    /// batch, or relative to the series' last stored sample).
    OutOfOrder {
        /// The series the batch targeted.
        series: SeriesId,
        /// The offending timestamp.
        ts: i64,
        /// The timestamp it failed to advance past.
        last: i64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownSeries(id) => write!(f, "unknown series {id:?}"),
            IngestError::OutOfOrder { series, ts, last } => {
                write!(f, "out-of-order sample for {series:?}: {ts} not after {last}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Default compaction target, in samples per rewritten chunk: eight
/// standard 512-sample chunks. Large enough that a month-scale scan
/// touches ~8x fewer chunk headers, small enough that a partial window
/// re-decodes at most ~4096 samples.
pub const COMPACT_TARGET_SAMPLES: u32 = crate::series::CHUNK_SAMPLES * 8;

/// What a [`TsdbStore::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Series that had at least one chunk run rewritten.
    pub series: u64,
    /// Sealed chunks across the store before the pass.
    pub chunks_before: u64,
    /// Sealed chunks across the store after the pass.
    pub chunks_after: u64,
    /// Source chunks rewritten into zone-mapped chunks (also added to
    /// [`crate::QueryStats::chunks_compacted`]).
    pub chunks_compacted: u64,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of independently locked shards. Must be at least 1.
    pub shards: usize,
    /// Decoded-chunk cache size, in chunks (≈ 8 KiB per cached chunk).
    /// Zero disables the cache.
    pub chunk_cache_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { shards: 8, chunk_cache_capacity: 4096 }
    }
}

#[derive(Default)]
struct Shard {
    series: HashMap<u64, Series>,
}

/// An immutable, epoch-stamped snapshot of every series in the store.
///
/// A view is *published*: built under short per-shard read locks once
/// ([`TsdbStore::publish_view`]), then handed to readers as a shared
/// `Arc`. Query evaluation against a view touches no shard lock at all —
/// sealed chunks inside the frozen series are the same refcounted byte
/// blocks the writer holds (cloning a [`Series`] bumps `Bytes` refcounts,
/// it does not copy chunk payloads), and the active tail / rollup state
/// are plain copies taken at publication.
///
/// Freshness is by generation: the store bumps a monotonic counter on
/// every mutation, and a view answers for reads only while its stamped
/// generation still equals the store's ([`TsdbStore::with_series_read`]).
/// The stamp is loaded *before* the shards are walked, so a view stamped
/// `G` contains at least every mutation counted in `G` — racing extras
/// land in the view but also bump the generation past `G`, retiring the
/// view before the extra could ever be served as stale.
pub struct ReadView {
    generation: u64,
    series: HashMap<u64, Arc<Series>>,
}

impl ReadView {
    /// The store generation this view was stamped with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Series captured in this view.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The frozen series for `id`, if it was registered at publication.
    pub fn get(&self, id: SeriesId) -> Option<&Arc<Series>> {
        self.series.get(&id.0)
    }
}

/// The embedded time-series store. Cheap to share: `TsdbStore` is a handle
/// over `Arc`ed shards, so clones refer to the same data.
#[derive(Clone)]
pub struct TsdbStore {
    shards: Arc<Vec<RwLock<Shard>>>,
    registry: Arc<RwLock<HashMap<String, SeriesId>>>,
    next_id: Arc<RwLock<u64>>,
    cache: Arc<ChunkCache>,
    counters: Arc<QueryCounters>,
    /// Bumped (release) once per mutating call — append, batch, tick,
    /// quarantine, register, recovery install, compaction. Readers load it
    /// (acquire) to decide whether the published view is still current and
    /// result caches key replies on it.
    generation: Arc<AtomicU64>,
    /// The most recently published [`ReadView`]. The slot lock is read for
    /// one `Arc` clone per query and write-locked only at publication — it
    /// is not a shard lock, so view readers never contend with the writer.
    view: Arc<RwLock<Arc<ReadView>>>,
    /// Whether [`Self::publish_view`] has ever run on this store — lets
    /// maintenance (compaction) refresh the view only on stores that are
    /// actually serving, instead of cloning every series of a store nobody
    /// reads through views.
    view_published: Arc<AtomicBool>,
    config: StoreConfig,
}

impl Default for TsdbStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl TsdbStore {
    /// Create a store with the given sharding.
    ///
    /// # Panics
    /// Panics if `config.shards == 0`.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "store needs at least one shard");
        let shards = (0..config.shards).map(|_| RwLock::new(Shard::default())).collect();
        TsdbStore {
            shards: Arc::new(shards),
            registry: Arc::new(RwLock::new(HashMap::new())),
            next_id: Arc::new(RwLock::new(0)),
            cache: Arc::new(ChunkCache::new(config.chunk_cache_capacity)),
            counters: Arc::new(QueryCounters::default()),
            generation: Arc::new(AtomicU64::new(0)),
            view: Arc::new(RwLock::new(Arc::new(ReadView {
                generation: 0,
                series: HashMap::new(),
            }))),
            view_published: Arc::new(AtomicBool::new(false)),
            config,
        }
    }

    /// The store's mutation epoch: a monotonic counter bumped once per
    /// mutating call. Two equal readings with no mutation in between
    /// guarantee the store answered identically at both instants — the
    /// key result caches and published views are validated against.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Publish an immutable [`ReadView`] of every series, stamped with the
    /// generation read *before* the shards are walked (so the stamp is
    /// conservative — see [`ReadView`]). Every series is cloned: sealed
    /// chunks by refcount, the active tail and rollup levels by copy. Costs
    /// one short read lock per shard; meant for epoch boundaries (a
    /// campaign serve step, the end of a compaction pass), not for
    /// per-sample ingest paths.
    pub fn publish_view(&self) -> Arc<ReadView> {
        let generation = self.generation();
        let mut series = HashMap::with_capacity(self.series_count());
        for shard in self.shards.iter() {
            let shard = shard.read();
            for (&id, live) in shard.series.iter() {
                series.insert(id, Arc::new(live.clone()));
            }
        }
        let view = Arc::new(ReadView { generation, series });
        *self.view.write() = Arc::clone(&view);
        self.view_published.store(true, Ordering::Release);
        view
    }

    /// The most recently published view (the initial view is empty at
    /// generation 0, which is exactly what an untouched store holds).
    pub fn read_view(&self) -> Arc<ReadView> {
        self.view.read().clone()
    }

    /// Run `f` with read access to a series, preferring the published
    /// [`ReadView`]: when the view's generation still matches the store's,
    /// evaluation runs against the frozen series without touching any
    /// shard lock; otherwise this falls back to [`Self::with_series`]
    /// (short shard read lock), so answers never go stale. `None` if the
    /// id is unknown.
    pub fn with_series_read<R>(&self, id: SeriesId, f: impl FnOnce(&Series) -> R) -> Option<R> {
        let generation = self.generation();
        let view = self.view.read().clone();
        if view.generation == generation {
            return view.get(id).map(|s| f(s));
        }
        self.with_series(id, f)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The store's decoded-chunk cache (shared by every clone of this
    /// handle).
    pub fn chunk_cache(&self) -> &ChunkCache {
        &self.cache
    }

    /// Snapshot of the query-layer counters: plans chosen, chunks decoded
    /// vs. served from cache, samples scanned, wall time.
    pub fn query_stats(&self) -> QueryStats {
        self.counters.snapshot()
    }

    /// Zero the query-layer counters (the chunk cache keeps its contents;
    /// call [`ChunkCache::clear`] separately for a cold-cache experiment).
    pub fn reset_query_stats(&self) {
        self.counters.reset();
    }

    pub(crate) fn query_counters(&self) -> &QueryCounters {
        &self.counters
    }

    fn shard_of(&self, id: SeriesId) -> usize {
        (id.0 % self.config.shards as u64) as usize
    }

    /// Create (or look up) the series named `meta.name` and return its id.
    /// Re-registering an existing name returns the existing id.
    pub fn register(&self, meta: SeriesMeta) -> SeriesId {
        if let Some(&id) = self.registry.read().get(&meta.name) {
            return id;
        }
        let mut registry = self.registry.write();
        if let Some(&id) = registry.get(&meta.name) {
            return id; // lost the race to another registrar
        }
        let mut next = self.next_id.write();
        let id = SeriesId(*next);
        *next += 1;
        registry.insert(meta.name.clone(), id);
        self.shards[self.shard_of(id)].write().series.insert(id.0, Series::new(meta));
        self.bump_generation();
        id
    }

    /// Look a series id up by name.
    pub fn lookup(&self, name: &str) -> Option<SeriesId> {
        self.registry.read().get(name).copied()
    }

    /// Every registered series as `(id, name)`, sorted by id — the stable
    /// iteration order used by snapshots.
    pub(crate) fn series_entries(&self) -> Vec<(SeriesId, String)> {
        let registry = self.registry.read();
        let mut entries: Vec<(SeriesId, String)> =
            registry.iter().map(|(name, &id)| (id, name.clone())).collect();
        entries.sort();
        entries
    }

    /// The id the next [`Self::register`] call would hand out.
    pub(crate) fn next_series_id(&self) -> u64 {
        *self.next_id.read()
    }

    /// Ensure future registrations allocate ids at or past `floor`.
    pub(crate) fn bump_next_id(&self, floor: u64) {
        let mut next = self.next_id.write();
        *next = (*next).max(floor);
    }

    /// Install a recovered series under its original id, preserving the
    /// name→id mapping across restarts. Returns `false` (installing
    /// nothing) when the name or id is already taken.
    pub(crate) fn install_recovered(&self, id: SeriesId, series: Series) -> bool {
        let mut registry = self.registry.write();
        if registry.contains_key(&series.meta().name) {
            return false;
        }
        let mut next = self.next_id.write();
        let mut shard = self.shards[self.shard_of(id)].write();
        if shard.series.contains_key(&id.0) {
            return false;
        }
        registry.insert(series.meta().name.clone(), id);
        shard.series.insert(id.0, series);
        *next = (*next).max(id.0 + 1);
        self.bump_generation();
        true
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.registry.read().len()
    }

    /// Every registered series as `(id, metadata, stored samples)`, sorted
    /// by id — the discovery surface a query service's `ListSeries`
    /// request answers from. Sample counts are read per shard under short
    /// read locks, so the catalog is safe to take during live ingest (a
    /// count may trail concurrent appends by a tick).
    pub fn series_catalog(&self) -> Vec<(SeriesId, SeriesMeta, u64)> {
        let mut out: Vec<(SeriesId, SeriesMeta, u64)> = Vec::with_capacity(self.series_count());
        for shard in self.shards.iter() {
            let shard = shard.read();
            for (&id, series) in shard.series.iter() {
                out.push((SeriesId(id), series.meta().clone(), series.len()));
            }
        }
        out.sort_by_key(|&(id, _, _)| id);
        out
    }

    /// Append one sample to a series.
    ///
    /// # Panics
    /// Panics if the id is unknown or the timestamp is not strictly
    /// increasing within the series.
    pub fn append(&self, id: SeriesId, ts: i64, value: f64) {
        {
            let mut shard = self.shards[self.shard_of(id)].write();
            shard
                .series
                .get_mut(&id.0)
                .unwrap_or_else(|| panic!("unknown series {id:?}"))
                .append(ts, value);
        }
        self.bump_generation();
    }

    /// Append a batch of `(ts, value)` samples to one series under a
    /// single lock acquisition.
    ///
    /// # Panics
    /// Panics on an unknown id or non-monotonic timestamps; see
    /// [`Self::try_append_batch`] for the non-panicking form.
    pub fn append_batch(&self, id: SeriesId, samples: &[(i64, f64)]) {
        if let Err(e) = self.try_append_batch(id, samples) {
            panic!("append_batch: {e}");
        }
    }

    /// Append a batch of `(ts, value)` samples to one series under a
    /// single lock acquisition, refusing (with no partial write) batches
    /// for unregistered series or with non-monotonic timestamps, so a
    /// writer fed bad input counts the refusal and carries on.
    pub fn try_append_batch(&self, id: SeriesId, samples: &[(i64, f64)]) -> Result<(), IngestError> {
        if samples.is_empty() {
            return Ok(());
        }
        let mut shard = self.shards[self.shard_of(id)].write();
        let series =
            shard.series.get_mut(&id.0).ok_or(IngestError::UnknownSeries(id))?;
        // Validate the whole batch before touching the series: the batch
        // must be strictly increasing and start after the stored tail.
        let mut last = series.last_ts();
        for &(ts, _) in samples {
            if let Some(l) = last {
                if ts <= l {
                    return Err(IngestError::OutOfOrder { series: id, ts, last: l });
                }
            }
            last = Some(ts);
        }
        for &(ts, v) in samples {
            series.append(ts, v);
        }
        drop(shard);
        self.bump_generation();
        Ok(())
    }

    /// Append one tick's worth of samples across many series — one
    /// `(id, value)` pair per series, all stamped `ts`. This is the shape
    /// of a per-node telemetry tick (thousands of series, one sample
    /// each): samples are grouped by shard, each shard's write lock is
    /// taken **once**, and the shards are fanned out over rayon.
    ///
    /// Returns the number of samples refused (unknown series, or `ts` not
    /// strictly after that series' stored tail). Refusals are per-sample:
    /// one bad series never blocks the rest of the tick.
    pub fn append_tick(&self, ts: i64, samples: &[(SeriesId, f64)]) -> u64 {
        let n_shards = self.config.shards;
        // Bucket by shard, preserving input order within each bucket, so a
        // series listed twice keeps its first sample.
        let mut buckets: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n_shards];
        let per_shard_hint = samples.len() / n_shards + 1;
        for b in &mut buckets {
            b.reserve(per_shard_hint);
        }
        for &(id, v) in samples {
            buckets[(id.0 % n_shards as u64) as usize].push((id.0, v));
        }
        let occupied = buckets.iter().filter(|b| !b.is_empty()).count();
        let rejected = AtomicU64::new(0);
        let apply = |shard_idx: usize, bucket: &[(u64, f64)]| {
            let mut shard = self.shards[shard_idx].write();
            let mut bad = 0u64;
            for &(id, v) in bucket {
                match shard.series.get_mut(&id) {
                    Some(series) if series.last_ts().is_none_or(|l| ts > l) => {
                        series.append(ts, v);
                    }
                    _ => bad += 1,
                }
            }
            if bad > 0 {
                rejected.fetch_add(bad, Ordering::Relaxed);
            }
        };
        if occupied <= 1 {
            // One shard touched (or nothing to do): skip the fork-join.
            for (shard_idx, bucket) in buckets.iter().enumerate() {
                if !bucket.is_empty() {
                    apply(shard_idx, bucket);
                }
            }
        } else {
            let apply = &apply;
            rayon::scope(|s| {
                for (shard_idx, bucket) in buckets.iter().enumerate() {
                    if !bucket.is_empty() {
                        s.spawn(move |_| apply(shard_idx, bucket));
                    }
                }
            });
        }
        let rejected = rejected.load(Ordering::Relaxed);
        if samples.len() as u64 > rejected {
            // One epoch bump per tick, not per sample — any sample landing
            // invalidates views and result caches.
            self.bump_generation();
        }
        rejected
    }

    /// Record a refused sample into a series' quality mask (see
    /// [`crate::quality`]). Unknown ids are ignored.
    pub fn quarantine(&self, id: SeriesId, ts: i64, value: f64, reason: crate::quality::QuarantineReason) {
        let mut shard = self.shards[self.shard_of(id)].write();
        if let Some(series) = shard.series.get_mut(&id.0) {
            series.quarantine(crate::quality::QuarantinedSample { ts, value, reason });
            drop(shard);
            // Gap-coverage answers depend on the quality mask, so a
            // quarantine is a mutation like any other.
            self.bump_generation();
        }
    }

    /// Run `f` with read access to a series; `None` if the id is unknown.
    pub fn with_series<R>(&self, id: SeriesId, f: impl FnOnce(&Series) -> R) -> Option<R> {
        let shard = self.shards[self.shard_of(id)].read();
        shard.series.get(&id.0).map(f)
    }

    /// Total samples across every series.
    pub fn total_samples(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().series.values().map(Series::len).sum::<u64>())
            .sum()
    }

    /// Total compressed bytes held across every series.
    pub fn total_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().series.values().map(Series::size_bytes).sum::<usize>())
            .sum()
    }

    /// Compact every series with the default target chunk size
    /// ([`COMPACT_TARGET_SAMPLES`]). See [`Self::compact_with`].
    pub fn compact(&self) -> CompactionStats {
        self.compact_with(COMPACT_TARGET_SAMPLES)
    }

    /// Rewrite runs of small sealed chunks into large zone-mapped chunks,
    /// series by series (see [`Series::compact`]). Each shard is held
    /// under its write lock only while its own series re-encode, so
    /// ingest and queries on other shards proceed throughout; queries on
    /// the same shard see either the old or the new chunk list, both of
    /// which answer identically. Decoded-chunk cache entries for the
    /// replaced chunks need no invalidation: the cache keys on chunk
    /// uids, the compacted chunk has a fresh uid, and orphaned entries
    /// age out of the LRU.
    pub fn compact_with(&self, target_samples: u32) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            for series in shard.series.values_mut() {
                let before = series.chunks().len() as u64;
                let rewritten = series.compact(target_samples);
                stats.chunks_before += before;
                stats.chunks_after += series.chunks().len() as u64;
                stats.chunks_compacted += u64::from(rewritten);
                if rewritten > 0 {
                    stats.series += 1;
                }
            }
        }
        self.counters.add_chunks_compacted(stats.chunks_compacted);
        if stats.chunks_compacted > 0 {
            // Compacted series answer bit-identically, but published views
            // and result caches hold the pre-compaction chunk lists; bump
            // the epoch so they retire, and refresh the view on stores
            // that are serving through one.
            self.bump_generation();
            if self.view_published.load(Ordering::Acquire) {
                self.publish_view();
            }
        }
        stats
    }

    /// Sum of every series' total aggregate (count/sum/min/max merge).
    pub fn global_aggregate(&self) -> Aggregate {
        let mut agg = Aggregate::new();
        for shard in self.shards.iter() {
            for series in shard.read().series.values() {
                agg.merge(series.total_aggregate());
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str) -> SeriesMeta {
        SeriesMeta { name: name.into(), unit: "kW".into(), interval_hint: 60 }
    }

    #[test]
    fn register_is_idempotent() {
        let store = TsdbStore::default();
        let a = store.register(meta("facility"));
        let b = store.register(meta("facility"));
        assert_eq!(a, b);
        assert_eq!(store.series_count(), 1);
        assert_eq!(store.lookup("facility"), Some(a));
        assert_eq!(store.lookup("nope"), None);
    }

    #[test]
    fn series_land_on_distinct_shards() {
        let store = TsdbStore::new(StoreConfig { shards: 4, ..StoreConfig::default() });
        let ids: Vec<SeriesId> = (0..16).map(|i| store.register(meta(&format!("s{i}")))).collect();
        for (i, id) in ids.iter().enumerate() {
            store.append(*id, 0, i as f64);
            store.append(*id, 60, i as f64 + 1.0);
        }
        assert_eq!(store.total_samples(), 32);
        let agg = store.global_aggregate();
        assert_eq!(agg.count, 32);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 16.0);
    }

    #[test]
    fn try_append_batch_rejects_without_partial_writes() {
        let store = TsdbStore::default();
        let id = store.register(meta("a"));
        assert_eq!(
            store.try_append_batch(SeriesId(99), &[(0, 1.0)]),
            Err(IngestError::UnknownSeries(SeriesId(99)))
        );
        store.append_batch(id, &[(0, 1.0), (60, 2.0)]);
        // Batch with an internal inversion: refused whole, nothing lands.
        let err = store.try_append_batch(id, &[(120, 3.0), (90, 4.0)]);
        assert_eq!(err, Err(IngestError::OutOfOrder { series: id, ts: 90, last: 120 }));
        // Batch that fails to advance past the stored tail.
        let err = store.try_append_batch(id, &[(60, 5.0)]);
        assert_eq!(err, Err(IngestError::OutOfOrder { series: id, ts: 60, last: 60 }));
        assert_eq!(store.total_samples(), 2);
        let decoded = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
        assert_eq!(decoded, vec![(0, 1.0), (60, 2.0)]);
    }

    #[test]
    fn append_tick_matches_per_series_appends() {
        let a = TsdbStore::new(StoreConfig { shards: 4, ..StoreConfig::default() });
        let b = TsdbStore::new(StoreConfig { shards: 4, ..StoreConfig::default() });
        let ids_a: Vec<SeriesId> = (0..37).map(|i| a.register(meta(&format!("n{i}")))).collect();
        let ids_b: Vec<SeriesId> = (0..37).map(|i| b.register(meta(&format!("n{i}")))).collect();
        for tick in 0..10i64 {
            let ts = tick * 60;
            let batch: Vec<(SeriesId, f64)> =
                ids_a.iter().enumerate().map(|(i, &id)| (id, (i as f64) + tick as f64)).collect();
            assert_eq!(a.append_tick(ts, &batch), 0);
            for (i, &id) in ids_b.iter().enumerate() {
                b.append(id, ts, (i as f64) + tick as f64);
            }
        }
        assert_eq!(a.total_samples(), b.total_samples());
        for (&ia, &ib) in ids_a.iter().zip(&ids_b) {
            let da = a.with_series(ia, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
            let db = b.with_series(ib, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
            assert_eq!(da, db);
        }
    }

    #[test]
    fn append_tick_counts_per_sample_rejections() {
        let store = TsdbStore::new(StoreConfig { shards: 2, ..StoreConfig::default() });
        let a = store.register(meta("a"));
        let b = store.register(meta("b"));
        assert_eq!(store.append_tick(60, &[(a, 1.0), (b, 2.0)]), 0);
        // Stale tick for `a`, unknown series, good sample for `b`: the two
        // bad samples are counted, the good one still lands.
        let rejected = store.append_tick(60, &[(a, 9.0), (SeriesId(99), 9.0)]);
        assert_eq!(rejected, 2);
        assert_eq!(store.append_tick(120, &[(a, 3.0), (b, 4.0)]), 0);
        assert_eq!(
            store.with_series(a, |s| s.scan(i64::MIN, i64::MAX)).unwrap(),
            vec![(60, 1.0), (120, 3.0)]
        );
        assert_eq!(
            store.with_series(b, |s| s.scan(i64::MIN, i64::MAX)).unwrap(),
            vec![(60, 2.0), (120, 4.0)]
        );
    }

    #[test]
    fn published_view_serves_fresh_and_retires_on_mutation() {
        let store = TsdbStore::default();
        let id = store.register(meta("facility"));
        for i in 0..100i64 {
            store.append(id, i * 60, i as f64);
        }
        let g1 = store.generation();
        let view = store.publish_view();
        assert_eq!(view.generation(), g1);
        assert_eq!(view.series_count(), 1);
        // Fresh view: the read helper and the lock path agree exactly.
        let via_view = store.with_series_read(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
        let via_lock = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
        assert_eq!(via_view, via_lock);
        assert_eq!(store.with_series_read(SeriesId(99), |_| ()), None);
        // Any mutation retires the view…
        store.append(id, 100 * 60, 1.0);
        assert!(store.generation() > g1, "append must bump the generation");
        // …and the read helper falls back to the live store, never stale.
        assert_eq!(store.with_series_read(id, |s| s.len()), Some(101));
        // Holders of the retired view still see the old world, unchanged.
        assert_eq!(view.get(id).unwrap().len(), 100);
    }

    #[test]
    fn every_mutating_path_bumps_the_generation() {
        let store = TsdbStore::default();
        let g0 = store.generation();
        let a = store.register(meta("a"));
        assert!(store.generation() > g0, "register");

        let g = store.generation();
        store.append(a, 0, 1.0);
        assert!(store.generation() > g, "append");

        let g = store.generation();
        store.append_batch(a, &[(60, 2.0), (120, 3.0)]);
        assert!(store.generation() > g, "append_batch");

        let g = store.generation();
        assert_eq!(store.append_tick(180, &[(a, 4.0)]), 0);
        assert!(store.generation() > g, "append_tick");

        // A fully rejected tick mutates nothing and must not invalidate.
        let g = store.generation();
        assert_eq!(store.append_tick(180, &[(a, 9.0)]), 1);
        assert_eq!(store.generation(), g, "rejected tick");

        let g = store.generation();
        store.quarantine(a, 200, f64::NAN, crate::quality::QuarantineReason::OutOfRange);
        assert!(store.generation() > g, "quarantine");

        // Quarantine against an unknown id is a no-op, so no bump.
        let g = store.generation();
        store.quarantine(SeriesId(99), 200, 0.0, crate::quality::QuarantineReason::OutOfRange);
        assert_eq!(store.generation(), g, "unknown-id quarantine");

        // Compaction with nothing to rewrite leaves the epoch alone…
        let g = store.generation();
        let stats = store.compact();
        assert_eq!(stats.chunks_compacted, 0);
        assert_eq!(store.generation(), g, "no-op compaction");

        // …and a real rewrite bumps it (and refreshes a published view).
        for i in 0..(2 * crate::series::CHUNK_SAMPLES as i64 + 10) {
            store.append(a, 300 + i, i as f64);
        }
        store.publish_view();
        let g = store.generation();
        let stats = store.compact();
        assert!(stats.chunks_compacted > 0);
        assert!(store.generation() > g, "compaction");
        assert_eq!(
            store.read_view().generation(),
            store.generation(),
            "compaction must republish a serving store's view"
        );
    }
}
