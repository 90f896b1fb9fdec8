//! Query engine: aggregations over a time range or aligned windows and
//! the multi-series group reduction, with rollup-aware planning, a
//! decoded-chunk cache and per-store instrumentation.
//!
//! Planning rule: an aggregation whose window is aligned to a rollup
//! level's grid is served from that level's buckets — coarsest level
//! first — because bucket aggregates compose exactly (they carry
//! count/sum/min/max, not means). Percentiles need the raw
//! distribution, so `P95` always plans a raw scan.
//!
//! ## Locking discipline (store-level queries)
//!
//! Every store-level entry point ([`store_aggregate`], [`store_windows`],
//! [`fanout_group`] and the gap-aware
//! [`store_gap_aggregate`](crate::quality::store_gap_aggregate)) evaluates
//! in the same two phases and counts its work in [`QueryStats`]. The
//! planning/snapshot phase reads the series through
//! [`TsdbStore::with_series_read`]: when the store's published
//! [`ReadView`](crate::ReadView) is still at the current generation, it
//! runs against the frozen series with **no shard lock at all**; otherwise
//! it falls back to a **short shard read lock** to plan, compose rollup
//! buckets, clone the handles of the sealed chunks a raw scan needs (an
//! `O(1)` refcount bump per chunk) and copy out the small active chunk.
//! Either way the second phase — all Gorilla decode, the expensive part —
//! runs lock-free against immutable sealed chunks, through the store's
//! [`ChunkCache`](crate::cache::ChunkCache). A query therefore never holds
//! a shard lock across a decode; against a fresh view it never takes one,
//! and against a stale view concurrent writers are stalled only for the
//! snapshot instant.
//!
//! Every read runs on the calling thread: [`fanout_group`] folds its
//! series one after another, in input order. Concurrency comes from the
//! callers, such as one thread per `hpc-serve` session.

use crate::chunk::Chunk;
use crate::rollup::Aggregate;
use crate::series::{fold_chunk_aggregate, Series};
use crate::store::{SeriesId, TsdbStore};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Aggregation operators over a time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Sample count.
    Count,
    /// 95th percentile (nearest-rank); forces a raw scan.
    P95,
}

/// Where the planner sourced an answer from (exposed for tests and
/// instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Served by composing 1-hour buckets.
    HourRollup,
    /// Served by composing 1-minute buckets.
    MinuteRollup,
    /// Served by decoding chunks (with whole-chunk aggregate shortcuts).
    RawScan,
}

/// One aligned aggregation window result.
#[derive(Debug, Clone, Copy)]
pub struct WindowValue {
    /// Window start (inclusive).
    pub start: i64,
    /// Aggregated value. NaN for an empty window under every operator
    /// except [`AggOp::Count`], which reports `0.0` — an empty window
    /// genuinely holds zero samples, while "the sum of no samples" is
    /// undefined and must stay distinguishable from an all-zero window.
    pub value: f64,
    /// Samples inside the window.
    pub count: u64,
}

/// Pick the cheapest correct source for an aggregate over `[from, to)`.
pub fn plan_aggregate(series: &Series, from: i64, to: i64, op: AggOp) -> Plan {
    if op == AggOp::P95 {
        return Plan::RawScan;
    }
    if series.hours().covers_aligned(from, to) {
        Plan::HourRollup
    } else if series.minutes().covers_aligned(from, to) {
        Plan::MinuteRollup
    } else {
        Plan::RawScan
    }
}

fn rollup_window(series: &Series, from: i64, to: i64, plan: Plan) -> Aggregate {
    let level = match plan {
        Plan::HourRollup => series.hours(),
        Plan::MinuteRollup => series.minutes(),
        Plan::RawScan => unreachable!("rollup_window called with a raw plan"),
    };
    let mut agg = Aggregate::new();
    agg.merge_all(level.sealed_in(from, to).iter().map(|b| &b.agg));
    if let Some(open) = level.open_in(from, to) {
        agg.merge(&open.agg);
    }
    // The hour level receives minute buckets only when they seal, so the
    // minute bucket still filling has not cascaded yet — complete the tail
    // from it. (The minute level itself is fed per raw sample, so it is
    // always complete.)
    if plan == Plan::HourRollup {
        if let Some(open) = series.minutes().open_in(from, to) {
            agg.merge(&open.agg);
        }
    }
    agg
}

/// Project an [`Aggregate`] onto one operator. Empty-window contract:
/// every value-typed operator (`Mean`/`Min`/`Max`/`Sum`) answers NaN when
/// the window holds no samples — `Sum` included, so an empty window is
/// never mistaken for an all-zero one — while `Count` answers `0.0`,
/// which *is* the true count.
fn finish(op: AggOp, agg: &Aggregate) -> f64 {
    if agg.count == 0 && op != AggOp::Count {
        return f64::NAN;
    }
    match op {
        AggOp::Mean => agg.mean(),
        AggOp::Min => agg.min,
        AggOp::Max => agg.max,
        AggOp::Sum => agg.sum,
        AggOp::Count => agg.count as f64,
        AggOp::P95 => unreachable!("P95 is not an Aggregate-backed op"),
    }
}

/// Nearest-rank p-th percentile of a sample set (p in [0, 100]).
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

// ---------------------------------------------------------------------------
// Query observability
// ---------------------------------------------------------------------------

/// Snapshot of a store's query counters (see [`TsdbStore::query_stats`]).
///
/// `hpc-serve` sends this struct as is in its `Introspect` replies, so the
/// field names and their order are part of that wire format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Store-level query evaluations (one per series per call; a group
    /// over N series counts N).
    pub queries: u64,
    /// Windows answered from 1-hour rollup buckets.
    pub plans_hour: u64,
    /// Windows answered from 1-minute rollup buckets.
    pub plans_minute: u64,
    /// Windows answered by raw chunk scans.
    pub plans_raw: u64,
    /// Sealed chunks Gorilla-decoded (cache misses + uncached decodes).
    pub chunks_decoded: u64,
    /// Sealed-chunk reads served from the decoded-chunk cache.
    pub chunk_cache_hits: u64,
    /// Decoded samples iterated by raw scans.
    pub samples_scanned: u64,
    /// Blocks answered without touching sample data during raw-plan
    /// aggregates: zone-map entries of compacted chunks (and whole
    /// zone-less chunks, counted as one block each) that were either
    /// outside the window or served from their pre-computed aggregate.
    pub blocks_pruned: u64,
    /// Source chunks rewritten by compaction passes ([`TsdbStore::compact`]).
    pub chunks_compacted: u64,
    /// Wall-clock time spent inside store-level query entry points, in
    /// nanoseconds (a group counts once per call, not per series).
    pub wall_nanos: u64,
}

impl QueryStats {
    /// Fraction of sealed-chunk reads served from cache (0 when no chunk
    /// was ever read).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.chunks_decoded + self.chunk_cache_hits;
        if total == 0 {
            0.0
        } else {
            self.chunk_cache_hits as f64 / total as f64
        }
    }

    /// Wall-clock milliseconds spent in store-level queries.
    pub fn wall_millis(&self) -> f64 {
        self.wall_nanos as f64 / 1e6
    }

    /// Merge another snapshot into this one, saturating on overflow. This
    /// is the reduction a multi-worker server uses to fold per-query
    /// deltas into one per-tenant aggregate; saturating arithmetic keeps
    /// the fold safe no matter how many worker threads contribute.
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries = self.queries.saturating_add(other.queries);
        self.plans_hour = self.plans_hour.saturating_add(other.plans_hour);
        self.plans_minute = self.plans_minute.saturating_add(other.plans_minute);
        self.plans_raw = self.plans_raw.saturating_add(other.plans_raw);
        self.chunks_decoded = self.chunks_decoded.saturating_add(other.chunks_decoded);
        self.chunk_cache_hits = self.chunk_cache_hits.saturating_add(other.chunk_cache_hits);
        self.samples_scanned = self.samples_scanned.saturating_add(other.samples_scanned);
        self.blocks_pruned = self.blocks_pruned.saturating_add(other.blocks_pruned);
        self.chunks_compacted = self.chunks_compacted.saturating_add(other.chunks_compacted);
        self.wall_nanos = self.wall_nanos.saturating_add(other.wall_nanos);
    }

    /// Field-wise difference `self − earlier`, saturating at zero.
    ///
    /// The store's counters are independent relaxed atomics, so two
    /// [`TsdbStore::query_stats`] snapshots taken around a query on one
    /// thread are **not** a consistent cut while other threads also query:
    /// a field can appear to run backwards between the two reads. A raw
    /// subtraction would wrap to ~`u64::MAX` and poison every aggregate it
    /// is merged into; saturation makes the attribution total-order safe —
    /// a racing delta may under-report, but it can never explode.
    pub fn delta_since(&self, earlier: &QueryStats) -> QueryStats {
        QueryStats {
            queries: self.queries.saturating_sub(earlier.queries),
            plans_hour: self.plans_hour.saturating_sub(earlier.plans_hour),
            plans_minute: self.plans_minute.saturating_sub(earlier.plans_minute),
            plans_raw: self.plans_raw.saturating_sub(earlier.plans_raw),
            chunks_decoded: self.chunks_decoded.saturating_sub(earlier.chunks_decoded),
            chunk_cache_hits: self.chunk_cache_hits.saturating_sub(earlier.chunk_cache_hits),
            samples_scanned: self.samples_scanned.saturating_sub(earlier.samples_scanned),
            blocks_pruned: self.blocks_pruned.saturating_sub(earlier.blocks_pruned),
            chunks_compacted: self.chunks_compacted.saturating_sub(earlier.chunks_compacted),
            wall_nanos: self.wall_nanos.saturating_sub(earlier.wall_nanos),
        }
    }
}

/// Lock-free counters behind [`QueryStats`], owned by the store and bumped
/// by every store-level query path.
#[derive(Debug, Default)]
pub(crate) struct QueryCounters {
    queries: AtomicU64,
    plans_hour: AtomicU64,
    plans_minute: AtomicU64,
    plans_raw: AtomicU64,
    chunks_decoded: AtomicU64,
    chunk_cache_hits: AtomicU64,
    samples_scanned: AtomicU64,
    blocks_pruned: AtomicU64,
    chunks_compacted: AtomicU64,
    wall_nanos: AtomicU64,
}

impl QueryCounters {
    fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    fn record_plan(&self, plan: Plan) {
        let c = match plan {
            Plan::HourRollup => &self.plans_hour,
            Plan::MinuteRollup => &self.plans_minute,
            Plan::RawScan => &self.plans_raw,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn record_chunk(&self, cache_hit: bool) {
        let c = if cache_hit { &self.chunk_cache_hits } else { &self.chunks_decoded };
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn add_samples(&self, n: u64) {
        self.samples_scanned.fetch_add(n, Ordering::Relaxed);
    }

    fn add_blocks_pruned(&self, n: u64) {
        self.blocks_pruned.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_chunks_compacted(&self, n: u64) {
        self.chunks_compacted.fetch_add(n, Ordering::Relaxed);
    }

    fn add_wall(&self, since: Instant) {
        self.wall_nanos.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> QueryStats {
        QueryStats {
            queries: self.queries.load(Ordering::Relaxed),
            plans_hour: self.plans_hour.load(Ordering::Relaxed),
            plans_minute: self.plans_minute.load(Ordering::Relaxed),
            plans_raw: self.plans_raw.load(Ordering::Relaxed),
            chunks_decoded: self.chunks_decoded.load(Ordering::Relaxed),
            chunk_cache_hits: self.chunk_cache_hits.load(Ordering::Relaxed),
            samples_scanned: self.samples_scanned.load(Ordering::Relaxed),
            blocks_pruned: self.blocks_pruned.load(Ordering::Relaxed),
            chunks_compacted: self.chunks_compacted.load(Ordering::Relaxed),
            wall_nanos: self.wall_nanos.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.plans_hour.store(0, Ordering::Relaxed);
        self.plans_minute.store(0, Ordering::Relaxed);
        self.plans_raw.store(0, Ordering::Relaxed);
        self.chunks_decoded.store(0, Ordering::Relaxed);
        self.chunk_cache_hits.store(0, Ordering::Relaxed);
        self.samples_scanned.store(0, Ordering::Relaxed);
        self.blocks_pruned.store(0, Ordering::Relaxed);
        self.chunks_compacted.store(0, Ordering::Relaxed);
        self.wall_nanos.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Store-level cached queries (snapshot under lock, decode outside)
// ---------------------------------------------------------------------------

/// Raw-scan inputs captured under the shard read lock: cheap clones of the
/// overlapping sealed chunks (`Bytes` refcount bumps) plus the decoded
/// active-chunk samples. Everything here is immutable once captured, so
/// decode can proceed without the lock.
struct RawSnapshot {
    chunks: Vec<Chunk>,
    active: Vec<(i64, f64)>,
}

fn raw_snapshot(series: &Series, from: i64, to: i64) -> RawSnapshot {
    let chunks = series.chunks().iter().filter(|c| c.overlaps(from, to)).cloned().collect();
    RawSnapshot { chunks, active: series.active_samples_in(from, to) }
}

/// Aggregate of a snapshot restricted to `[from, to)`. The
/// zone-aware fold prunes blocks whose aggregate answers for them; the
/// remainder decodes to columnar blocks through the store's chunk cache
/// and aggregates as tight loops over binary-searched value slices.
fn snapshot_aggregate(
    store: &TsdbStore,
    snap: &RawSnapshot,
    from: i64,
    to: i64,
) -> Aggregate {
    let counters = store.query_counters();
    let cache = store.chunk_cache();
    let mut agg = Aggregate::new();
    let mut fetch = |chunk: &Chunk| {
        let (block, hit) = cache.get_or_decode(chunk);
        counters.record_chunk(hit);
        counters.add_samples(block.len() as u64);
        block
    };
    let mut pruned = 0u64;
    for chunk in &snap.chunks {
        if !chunk.overlaps(from, to) {
            continue;
        }
        pruned += fold_chunk_aggregate(chunk, from, to, &mut fetch, &mut agg);
    }
    counters.add_blocks_pruned(pruned);
    for &(t, v) in &snap.active {
        if t >= from && t < to {
            agg.push(v);
            counters.add_samples(1);
        }
    }
    agg
}

/// Raw values of a snapshot restricted to `[from, to)`, in time order,
/// going through the decoded-chunk cache (for percentiles — these need
/// the full distribution, so zone maps cannot prune anything here).
fn snapshot_values(store: &TsdbStore, snap: &RawSnapshot, from: i64, to: i64) -> Vec<f64> {
    let counters = store.query_counters();
    let cache = store.chunk_cache();
    let mut out = Vec::new();
    for chunk in &snap.chunks {
        if !chunk.overlaps(from, to) {
            continue;
        }
        let (block, hit) = cache.get_or_decode(chunk);
        counters.record_chunk(hit);
        counters.add_samples(block.len() as u64);
        out.extend_from_slice(&block.values()[block.range(from, to)]);
    }
    for &(t, v) in &snap.active {
        if t >= from && t < to {
            out.push(v);
            counters.add_samples(1);
        }
    }
    out
}

/// What a store-level query captured under the shard read lock: either a
/// finished rollup composition, or the raw materials for a lock-free scan.
enum Prep {
    Rollup(Aggregate, Plan),
    Raw(RawSnapshot),
}

fn prepare_aggregate(series: &Series, from: i64, to: i64, op: AggOp) -> Prep {
    match plan_aggregate(series, from, to, op) {
        Plan::RawScan => Prep::Raw(raw_snapshot(series, from, to)),
        plan => Prep::Rollup(rollup_window(series, from, to, plan), plan),
    }
}

fn full_aggregate_inner(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
) -> Option<(Aggregate, Plan)> {
    let counters = store.query_counters();
    counters.record_query();
    let prep = store.with_series_read(id, |s| prepare_aggregate(s, from, to, AggOp::Mean))?;
    Some(match prep {
        Prep::Rollup(agg, plan) => {
            counters.record_plan(plan);
            (agg, plan)
        }
        Prep::Raw(snap) => {
            counters.record_plan(Plan::RawScan);
            (snapshot_aggregate(store, &snap, from, to), Plan::RawScan)
        }
    })
}

fn aggregate_inner(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
    op: AggOp,
) -> Option<(f64, Plan)> {
    if op == AggOp::P95 {
        let counters = store.query_counters();
        counters.record_query();
        let snap = store.with_series_read(id, |s| raw_snapshot(s, from, to))?;
        counters.record_plan(Plan::RawScan);
        let vals = snapshot_values(store, &snap, from, to);
        return Some((percentile(vals, 95.0), Plan::RawScan));
    }
    let (agg, plan) = full_aggregate_inner(store, id, from, to)?;
    Some((finish(op, &agg), plan))
}

fn windows_inner(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
    step: i64,
    op: AggOp,
) -> Option<Vec<WindowValue>> {
    assert!(step > 0, "window step must be positive");
    assert!(from <= to, "window range reversed");
    let counters = store.query_counters();
    counters.record_query();
    // Under the lock: plan every window, finish the rollup-served ones, and
    // take one snapshot covering the whole range if any window needs raw.
    struct WindowPrep {
        start: i64,
        end: i64,
        rollup: Option<(Aggregate, Plan)>,
    }
    let (windows, snap) = store.with_series_read(id, |s| {
        let mut windows = Vec::new();
        let mut need_raw = false;
        let mut start = from;
        while start < to {
            let end = start.saturating_add(step).min(to);
            let rollup = match plan_aggregate(s, start, end, op) {
                Plan::RawScan => {
                    need_raw = true;
                    None
                }
                plan => Some((rollup_window(s, start, end, plan), plan)),
            };
            windows.push(WindowPrep { start, end, rollup });
            start = end;
        }
        let snap = need_raw.then(|| raw_snapshot(s, from, to));
        (windows, snap)
    })?;
    let mut out = Vec::with_capacity(windows.len());
    for w in windows {
        let (value, count) = match w.rollup {
            Some((agg, plan)) => {
                counters.record_plan(plan);
                (finish(op, &agg), agg.count)
            }
            None => {
                counters.record_plan(Plan::RawScan);
                let snap = snap.as_ref().expect("raw window implies snapshot");
                if op == AggOp::P95 {
                    let vals = snapshot_values(store, snap, w.start, w.end);
                    let count = vals.len() as u64;
                    (percentile(vals, 95.0), count)
                } else {
                    let agg = snapshot_aggregate(store, snap, w.start, w.end);
                    (finish(op, &agg), agg.count)
                }
            }
        };
        out.push(WindowValue { start: w.start, value, count });
    }
    Some(out)
}

/// Store-level aggregate of one series by id, with rollup-aware planning,
/// the decoded-chunk cache and query instrumentation. The shard read lock
/// is held only while planning and snapshotting, never across a decode.
/// Returns `None` for an unknown series.
pub fn store_aggregate(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
    op: AggOp,
) -> Option<(f64, Plan)> {
    let t = Instant::now();
    let out = aggregate_inner(store, id, from, to, op);
    store.query_counters().add_wall(t);
    out
}

/// Split `[from, to)` into consecutive `step`-second windows (aligned to
/// `from`) and aggregate each, planning per window and serving raw windows
/// from one shared snapshot through the chunk cache.
///
/// # Panics
/// Panics if `step <= 0` or `from > to`.
pub fn store_windows(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
    step: i64,
    op: AggOp,
) -> Option<Vec<WindowValue>> {
    let t = Instant::now();
    let out = windows_inner(store, id, from, to, step, op);
    store.query_counters().add_wall(t);
    out
}

/// Raw-planned aggregate of one series over `[from, to)`, for the reads
/// that need every present sample (gap-aware coverage never composes
/// rollup buckets). Same two phases and same [`QueryStats`] accounting as
/// [`store_aggregate`]: the snapshot, the quarantined count in the window
/// and the cadence hint are read together under the published view or a
/// short shard read lock, and the fold runs outside any lock through the
/// chunk cache. The aggregate is bit-identical to
/// [`Series::scan_aggregate_reference`] over the same window of the
/// series as it was before any compaction. Returns
/// `(aggregate, quarantined, interval_hint)`, or `None` for an unknown id.
pub(crate) fn store_raw_aggregate(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
) -> Option<(Aggregate, u64, i64)> {
    let t = Instant::now();
    let counters = store.query_counters();
    counters.record_query();
    let out = store
        .with_series_read(id, |s| {
            (raw_snapshot(s, from, to), s.quarantined_in(from, to), s.meta().interval_hint)
        })
        .map(|(snap, quarantined, hint)| {
            counters.record_plan(Plan::RawScan);
            (snapshot_aggregate(store, &snap, from, to), quarantined, hint)
        });
    counters.add_wall(t);
    out
}

// ---------------------------------------------------------------------------
// Multi-series group reduction
// ---------------------------------------------------------------------------

/// Group aggregate across many series over one window — the "all cabinets
/// → facility" reduction.
#[derive(Debug, Clone)]
pub struct GroupValue {
    /// Series that resolved and contributed.
    pub series: usize,
    /// Ids that did not resolve to a registered series.
    pub missing: usize,
    /// Sum of the per-series window means, skipping empty series. For
    /// cabinet power this is the facility draw in the window.
    pub sum_of_means: f64,
    /// Aggregate over every sample of every resolved series.
    pub total: Aggregate,
}

impl GroupValue {
    /// Mean of the per-series means (`sum_of_means / series`), NaN when no
    /// series resolved.
    pub fn mean_of_means(&self) -> f64 {
        if self.series == 0 {
            f64::NAN
        } else {
            self.sum_of_means / self.series as f64
        }
    }
}

/// Reduce many series over one `[from, to)` window into a [`GroupValue`],
/// folding the series one after another in input order on the calling
/// thread, so repeated calls are bit-identical. Each series is read as
/// [`store_aggregate`] reads it.
pub fn fanout_group(store: &TsdbStore, ids: &[SeriesId], from: i64, to: i64) -> GroupValue {
    let t = Instant::now();
    let mut group =
        GroupValue { series: 0, missing: 0, sum_of_means: 0.0, total: Aggregate::new() };
    for &id in ids {
        match full_aggregate_inner(store, id, from, to) {
            None => group.missing += 1,
            Some((agg, _)) => {
                group.series += 1;
                if agg.count > 0 {
                    group.sum_of_means += agg.mean();
                }
                group.total.merge(&agg);
            }
        }
    }
    store.query_counters().add_wall(t);
    group
}

// ---------------------------------------------------------------------------
// Scan cost estimation
// ---------------------------------------------------------------------------

/// Estimate how many stored samples answering `op` over `[from, to)` will
/// touch, **without decoding anything** — the admission-control cost model
/// a serving tier checks against per-query budgets before running the
/// query.
///
/// The estimate mirrors the planner: a rollup-served window costs its
/// bucket count (when `allow_rollup`; pass `false` for paths that always
/// raw-scan, like gap/coverage queries); `P95` pays full decode of every
/// overlapping chunk; any other raw-planned aggregate pays only for the
/// chunks the zone-aware fold will actually decode — fully-covered
/// chunks and fully-covered/outside zones are free, so a zone-map-pruned
/// query is no longer costed as a full raw scan. Estimates use chunk
/// headers and zone bounds only; they are upper bounds on
/// `samples_scanned`, not exact predictions.
pub fn estimate_scan(series: &Series, from: i64, to: i64, op: AggOp, allow_rollup: bool) -> u64 {
    if from >= to || series.is_empty() {
        return 0;
    }
    let plan =
        if allow_rollup { plan_aggregate(series, from, to, op) } else { Plan::RawScan };
    match plan {
        Plan::HourRollup => {
            let buckets = series.hours().buckets_in(from, to).count() as u64;
            // The open-minute patch-up adds at most one more bucket.
            buckets.saturating_add(1)
        }
        Plan::MinuteRollup => series.minutes().buckets_in(from, to).count() as u64,
        Plan::RawScan => {
            let mut cost = 0u64;
            for chunk in series.chunks() {
                if !chunk.overlaps(from, to) {
                    continue;
                }
                let decodes = if op == AggOp::P95 {
                    // Percentiles need every in-window value.
                    true
                } else {
                    match chunk.zones() {
                        None => !chunk.contained_in(from, to),
                        Some(zones) => zones
                            .iter()
                            .any(|z| z.overlaps(from, to) && !z.contained_in(from, to)),
                    }
                };
                if decodes {
                    cost = cost.saturating_add(u64::from(chunk.len()));
                }
            }
            if let Some((first, last)) = series.active_bounds() {
                if first < to && last >= from {
                    cost = cost.saturating_add(u64::from(series.active_len()));
                }
            }
            cost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesMeta;

    fn series_with(n: u32, f: impl Fn(u32) -> f64) -> Series {
        let mut s = Series::new(SeriesMeta {
            name: "q".into(),
            unit: "kW".into(),
            interval_hint: 60,
        });
        for i in 0..n {
            s.append(i64::from(i) * 60, f(i));
        }
        s
    }

    #[test]
    fn planner_picks_coarsest_aligned_level() {
        let s = series_with(3 * 24 * 60, |i| f64::from(i % 10)); // 3 days minutely
        assert_eq!(plan_aggregate(&s, 0, 86_400, AggOp::Mean), Plan::HourRollup);
        assert_eq!(plan_aggregate(&s, 3600, 7200, AggOp::Sum), Plan::HourRollup);
        assert_eq!(plan_aggregate(&s, 60, 3660, AggOp::Mean), Plan::MinuteRollup);
        assert_eq!(plan_aggregate(&s, 30, 3630, AggOp::Mean), Plan::RawScan);
        // Percentiles always need raw values.
        assert_eq!(plan_aggregate(&s, 0, 86_400, AggOp::P95), Plan::RawScan);
    }

    /// One series in a fresh store, sampled every minute from `t = 0`.
    fn store_with(n: u32, f: impl Fn(u32) -> f64) -> (TsdbStore, SeriesId) {
        let store = TsdbStore::default();
        let id = store.register(SeriesMeta {
            name: "q".into(),
            unit: "kW".into(),
            interval_hint: 60,
        });
        for i in 0..n {
            store.append(id, i64::from(i) * 60, f(i));
        }
        (store, id)
    }

    #[test]
    fn all_plans_agree_on_the_same_window() {
        let (store, id) =
            store_with(2 * 24 * 60, |i| (f64::from(i) * 0.11).sin() * 300.0 + 2800.0);
        let from = 6 * 3600;
        let to = 18 * 3600;
        let agg = |op| store_aggregate(&store, id, from, to, op).unwrap();
        let (hourly, plan) = agg(AggOp::Mean);
        assert_eq!(plan, Plan::HourRollup);
        let (raw, minutes) = store
            .with_series(id, |s| {
                let mut minutes = Aggregate::new();
                for b in s.minutes().buckets_in(from, to) {
                    minutes.merge(&b.agg);
                }
                (s.scan_aggregate_reference(from, to), minutes)
            })
            .unwrap();
        assert!((hourly - raw.mean()).abs() < 1e-9, "rollup {hourly} vs raw {}", raw.mean());
        assert!((minutes.mean() - raw.mean()).abs() < 1e-9);
        // Min/max/sum/count too.
        assert_eq!(agg(AggOp::Min).0, raw.min);
        assert_eq!(agg(AggOp::Max).0, raw.max);
        assert!((agg(AggOp::Sum).0 - raw.sum).abs() < 1e-6);
        assert_eq!(agg(AggOp::Count).0, raw.count as f64);
    }

    #[test]
    fn p95_nearest_rank() {
        let (store, id) = store_with(100, f64::from); // 0..99
        let (p, plan) = store_aggregate(&store, id, 0, 100 * 60, AggOp::P95).unwrap();
        assert_eq!(plan, Plan::RawScan);
        assert_eq!(p, 94.0); // ceil(0.95 * 100) = 95th of 1-indexed sorted
        let exact = percentile((0..5).map(f64::from).collect(), 95.0);
        assert_eq!(exact, 4.0);
        assert!(percentile(Vec::new(), 95.0).is_nan());
    }

    #[test]
    fn aligned_windows_cover_range() {
        let (store, id) = store_with(24 * 60, |i| f64::from(i / 60)); // value = hour index
        let windows = store_windows(&store, id, 0, 86_400, 3600, AggOp::Mean).unwrap();
        assert_eq!(windows.len(), 24);
        for (h, w) in windows.iter().enumerate() {
            assert_eq!(w.start, h as i64 * 3600);
            assert_eq!(w.count, 60);
            assert!((w.value - h as f64).abs() < 1e-12, "hour {h} mean {}", w.value);
        }
    }

    #[test]
    fn store_level_query() {
        let (store, id) = store_with(120, |_| 100.0);
        let (mean, _) = store_aggregate(&store, id, 0, 7200, AggOp::Mean).unwrap();
        assert!((mean - 100.0).abs() < 1e-12);
        assert!(store_aggregate(&store, SeriesId(999), 0, 1, AggOp::Mean).is_none());
    }

    fn populated_store(n_series: u32, n_samples: u32) -> (TsdbStore, Vec<SeriesId>) {
        let store = TsdbStore::default();
        let ids: Vec<SeriesId> = (0..n_series)
            .map(|s| {
                store.register(SeriesMeta {
                    name: format!("cab.{s}"),
                    unit: "kW".into(),
                    interval_hint: 60,
                })
            })
            .collect();
        for (s, &id) in ids.iter().enumerate() {
            for i in 0..n_samples {
                let v = (f64::from(i) * 0.13 + s as f64).sin() * 40.0 + 70.0 + s as f64;
                store.append(id, i64::from(i) * 60, v);
            }
        }
        (store, ids)
    }

    const CHUNK_TEST_LEN: u32 = crate::series::CHUNK_SAMPLES * 2 + 176;

    /// `(series, missing)`, the bits of `sum_of_means`, and the count and
    /// the sum, min and max bits of `total`.
    type GroupBits = ((usize, usize), u64, (u64, u64, u64, u64));

    fn group_bits(g: &GroupValue) -> GroupBits {
        let t = &g.total;
        (
            (g.series, g.missing),
            g.sum_of_means.to_bits(),
            (t.count, t.sum.to_bits(), t.min.to_bits(), t.max.to_bits()),
        )
    }

    /// What [`fanout_group`] must answer, folded in input order from the
    /// per-series [`store_aggregate`] reads: the non-empty series' `Mean`
    /// answers summed, and their `Count`, `Sum`, `Min` and `Max` answers
    /// folded as [`Aggregate::merge`] folds them.
    fn per_series_group(store: &TsdbStore, ids: &[SeriesId], from: i64, to: i64) -> GroupBits {
        let read = |id, op| store_aggregate(store, id, from, to, op).map(|(v, _)| v);
        let mut group =
            GroupValue { series: 0, missing: 0, sum_of_means: 0.0, total: Aggregate::new() };
        for &id in ids {
            let Some(count) = read(id, AggOp::Count) else {
                group.missing += 1;
                continue;
            };
            group.series += 1;
            if count > 0.0 {
                group.sum_of_means += read(id, AggOp::Mean).unwrap();
                group.total.merge(&Aggregate {
                    count: count as u64,
                    sum: read(id, AggOp::Sum).unwrap(),
                    min: read(id, AggOp::Min).unwrap(),
                    max: read(id, AggOp::Max).unwrap(),
                });
            }
        }
        group_bits(&group)
    }

    #[test]
    fn group_folds_the_per_series_reads_bit_for_bit() {
        let (store, mut ids) = populated_store(6, CHUNK_TEST_LEN);
        let empty = store.register(SeriesMeta {
            name: "cab.empty".into(),
            unit: "kW".into(),
            interval_hint: 60,
        });
        ids.insert(2, empty);
        ids.insert(4, SeriesId(4242)); // unknown id is reported, not fatal
        let end = i64::from(CHUNK_TEST_LEN) * 60;
        let hours = end / 3600 * 3600;
        for (from, to, plan) in [
            (0, hours, Plan::HourRollup),
            (3600, hours - 3600, Plan::HourRollup),
            (60, end - 60, Plan::MinuteRollup),
            (30, end - 30, Plan::RawScan),
            (i64::MIN, i64::MAX, Plan::RawScan),
        ] {
            assert_eq!(store_aggregate(&store, ids[0], from, to, AggOp::Mean).unwrap().1, plan);
            let group = fanout_group(&store, &ids, from, to);
            assert_eq!((group.series, group.missing), (7, 1));
            assert!(group.total.count > 0);
            assert_eq!(group.mean_of_means(), group.sum_of_means / 7.0);
            let want = per_series_group(&store, &ids, from, to);
            assert_eq!(group_bits(&group), want, "[{from}, {to})");
        }
        // A window past the data: every series resolves, none contributes.
        let group = fanout_group(&store, &ids, 2 * end, 3 * end);
        assert_eq!(group_bits(&group), per_series_group(&store, &ids, 2 * end, 3 * end));
        assert_eq!((group.series, group.sum_of_means, group.total.count), (7, 0.0, 0));
        assert!(fanout_group(&store, &[], 0, end).mean_of_means().is_nan());
    }

    #[test]
    fn query_stats_track_plans_and_cache() {
        let (store, ids) = populated_store(3, CHUNK_TEST_LEN);
        store.reset_query_stats();
        // Hour-aligned mean → rollup plan, no decode.
        let hours = i64::from(CHUNK_TEST_LEN) * 60 / 3600;
        store_aggregate(&store, ids[0], 0, hours * 3600, AggOp::Mean).unwrap();
        let s = store.query_stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.plans_hour, 1);
        assert_eq!(s.chunks_decoded, 0);
        // P95 over everything → raw scan, all sealed chunks decoded cold...
        store_aggregate(&store, ids[0], i64::MIN, i64::MAX, AggOp::P95).unwrap();
        let cold = store.query_stats();
        assert_eq!(cold.plans_raw, 1);
        assert_eq!(cold.chunks_decoded, 2);
        assert_eq!(cold.chunk_cache_hits, 0);
        // ...and warm on repeat.
        store_aggregate(&store, ids[0], i64::MIN, i64::MAX, AggOp::P95).unwrap();
        let warm = store.query_stats();
        assert_eq!(warm.chunks_decoded, 2, "no new decodes when warm");
        assert_eq!(warm.chunk_cache_hits, 2);
        assert!(warm.cache_hit_rate() > 0.49);
        assert!(warm.samples_scanned > 0);
        store.reset_query_stats();
        assert_eq!(store.query_stats(), QueryStats::default());
    }

    #[test]
    fn p95_windows_scan_each_chunk_once_per_window() {
        // Regression for the P95 double-scan: with the cache disabled every
        // chunk read is a decode, so the decode count must equal the number
        // of (window, overlapping-chunk) pairs — not twice that.
        let store = TsdbStore::new(crate::store::StoreConfig {
            chunk_cache_capacity: 0,
            ..crate::store::StoreConfig::default()
        });
        let id = store.register(SeriesMeta {
            name: "p95".into(),
            unit: "kW".into(),
            interval_hint: 60,
        });
        for i in 0..CHUNK_TEST_LEN {
            store.append(id, i64::from(i) * 60, f64::from(i % 37));
        }
        let to = i64::from(CHUNK_TEST_LEN) * 60;
        let step = 7 * 60;
        let expected: u64 = store
            .with_series(id, |s| {
                let mut pairs = 0u64;
                let mut start = 0i64;
                while start < to {
                    let end = (start + step).min(to);
                    pairs +=
                        s.chunks().iter().filter(|c| c.overlaps(start, end)).count() as u64;
                    start = end;
                }
                pairs
            })
            .unwrap();
        store.reset_query_stats();
        let windows = store_windows(&store, id, 0, to, step, AggOp::P95).unwrap();
        assert_eq!(windows.len(), ((to + step - 1) / step) as usize);
        let stats = store.query_stats();
        assert_eq!(stats.chunks_decoded, expected, "each window scans each chunk exactly once");
        assert_eq!(stats.chunk_cache_hits, 0);
    }

    #[test]
    fn windows_and_gaps_at_the_ends_of_the_i64_range_answer() {
        // Regression: the window end `start + step` and the range width
        // `to - from` overflowed here: a panic with overflow checks on,
        // and an endless window loop without them.
        let (store, id) = store_with(300, |i| f64::from(i % 7));
        let near_max =
            store_windows(&store, id, i64::MAX - 10, i64::MAX, 100, AggOp::Mean).unwrap();
        assert_eq!(near_max.len(), 1);
        assert_eq!((near_max[0].start, near_max[0].count), (i64::MAX - 10, 0));
        assert!(near_max[0].value.is_nan());
        let full = store_windows(&store, id, i64::MIN, i64::MAX, i64::MAX, AggOp::Count).unwrap();
        let windows: Vec<(i64, u64)> = full.iter().map(|w| (w.start, w.count)).collect();
        assert_eq!(windows, [(i64::MIN, 0), (-1, 300), (i64::MAX - 1, 0)]);
        let gap = crate::quality::store_gap_aggregate(&store, id, i64::MIN, i64::MAX).unwrap();
        assert_eq!((gap.agg.count, gap.expected), (300, u64::MAX.div_ceil(60)));
    }

    #[test]
    fn stats_delta_saturates_and_merges() {
        let a = QueryStats { queries: 10, samples_scanned: 500, wall_nanos: 900, ..QueryStats::default() };
        let b = QueryStats { queries: 7, samples_scanned: 800, wall_nanos: 400, ..QueryStats::default() };
        // An inconsistent cut: `b` is "later" on some fields, "earlier" on
        // others. The delta must clamp the backwards fields to 0 instead of
        // wrapping to ~u64::MAX.
        let d = b.delta_since(&a);
        assert_eq!(d.queries, 0);
        assert_eq!(d.samples_scanned, 300);
        assert_eq!(d.wall_nanos, 0);
        let mut agg = a;
        agg.merge(&d);
        assert_eq!(agg.queries, 10);
        assert_eq!(agg.samples_scanned, 800);
        // Merging near-overflow values saturates instead of wrapping.
        let mut big = QueryStats { queries: u64::MAX - 1, ..QueryStats::default() };
        big.merge(&QueryStats { queries: 5, ..QueryStats::default() });
        assert_eq!(big.queries, u64::MAX);
    }

    #[test]
    fn empty_window_contract_for_every_op() {
        // Regression: Sum answered 0.0 on an empty window, making "no
        // samples" indistinguishable from "all zeros". The contract is
        // now NaN for every value-typed operator and 0 for Count — for
        // one window and in windowed form.
        let (store, id) = store_with(100, |_| 0.0); // all-zero values, ts 0..6000
        let empty = (50_000i64, 60_000i64); // far past the data
        // An all-zero window must stay distinguishable: Sum answers 0.0
        // with a non-zero count.
        let (zero_sum, _) = store_aggregate(&store, id, 0, 6000, AggOp::Sum).unwrap();
        assert_eq!(zero_sum, 0.0);
        for op in [AggOp::Mean, AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::P95] {
            let (v, _) = store_aggregate(&store, id, empty.0, empty.1, op).unwrap();
            assert!(v.is_nan(), "store-level {op:?} on empty window answered {v}");
        }
        let (c, _) = store_aggregate(&store, id, empty.0, empty.1, AggOp::Count).unwrap();
        assert_eq!(c, 0.0);
        // Windowed form: the windows past the data are empty.
        for op in [AggOp::Mean, AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::P95, AggOp::Count] {
            let ws = store_windows(&store, id, 0, 12_000, 6000, op).unwrap();
            assert_eq!(ws.len(), 2);
            assert_eq!(ws[1].count, 0);
            if op == AggOp::Count {
                assert_eq!(ws[1].value, 0.0);
            } else {
                assert!(ws[1].value.is_nan(), "windowed {op:?} on empty window");
            }
        }
    }

    #[test]
    fn compacted_store_queries_prune_blocks_and_skip_decode() {
        let (store, ids) = populated_store(2, CHUNK_TEST_LEN);
        let mirror_ids = ids.clone();
        let stats = store.compact();
        assert_eq!(stats.series, 2);
        assert_eq!(stats.chunks_compacted, 4, "two 2-chunk runs rewritten");
        assert_eq!(stats.chunks_before, 4);
        assert_eq!(stats.chunks_after, 2);
        assert_eq!(store.query_stats().chunks_compacted, 4);
        store.reset_query_stats();
        // A window aligned to the zoned chunk's zone boundaries but NOT
        // rollup-aligned: force the raw plan by an unaligned end inside
        // the active tail. Zones cover the sealed samples → only the
        // active tail is touched, zero chunk decodes.
        let zone_end = store
            .with_series(mirror_ids[0], |s| {
                let z = s.chunks()[0].zones().unwrap();
                z[z.len() - 1].last_ts + 1
            })
            .unwrap();
        let (v, plan) =
            store_aggregate(&store, ids[0], 0, zone_end, AggOp::Sum).unwrap();
        assert!(v.is_finite());
        assert_eq!(plan, Plan::RawScan, "zone-boundary window is rollup-unaligned");
        let s = store.query_stats();
        assert_eq!(s.chunks_decoded, 0, "zone-covered window must not decode");
        assert!(s.blocks_pruned >= 2, "both zones served from aggregates");
        // A ragged window forces a partial zone: exactly one decode, and
        // the untouched zone is still pruned.
        store.reset_query_stats();
        store_aggregate(&store, ids[0], 30, zone_end, AggOp::Sum).unwrap();
        let s = store.query_stats();
        assert_eq!(s.plans_raw, 1);
        assert_eq!(s.chunks_decoded, 1, "one compacted chunk decodes once");
        assert!(s.blocks_pruned >= 1, "the fully-covered zone is still pruned");
    }

    #[test]
    fn estimate_scan_mirrors_the_planner() {
        let (store, ids) = populated_store(1, CHUNK_TEST_LEN);
        let id = ids[0];
        let span = i64::from(CHUNK_TEST_LEN) * 60;
        store
            .with_series(id, |s| {
                // Hour-aligned → bucket-count estimate, tiny.
                let hours_est = estimate_scan(s, 0, 3600 * 4, AggOp::Mean, true);
                assert!(hours_est <= 5, "rollup estimate {hours_est}");
                // Same window with rollups forbidden → chunk-scale cost.
                let raw_est = estimate_scan(s, 0, 3600 * 4, AggOp::Mean, false);
                assert!(raw_est >= u64::from(crate::series::CHUNK_SAMPLES) / 2);
                // P95 pays full decode of everything it overlaps.
                let p95_est = estimate_scan(s, 0, span, AggOp::P95, true);
                assert_eq!(p95_est, u64::from(CHUNK_TEST_LEN));
                // Empty and reversed windows cost nothing.
                assert_eq!(estimate_scan(s, 10, 10, AggOp::Mean, true), 0);
                assert_eq!(estimate_scan(s, span * 2, span * 3, AggOp::P95, true), 0);
            })
            .unwrap();
        // After compaction, a zone-covered aggregate estimates (near) zero
        // while P95 still pays in full.
        store.compact();
        store
            .with_series(id, |s| {
                let z = s.chunks()[0].zones().unwrap();
                let zone_end = z[z.len() - 1].last_ts + 1;
                let agg_est = estimate_scan(s, 0, zone_end, AggOp::Sum, false);
                assert_eq!(agg_est, 0, "zone-covered sealed samples cost nothing");
                let p95_est = estimate_scan(s, 0, zone_end, AggOp::P95, false);
                assert!(p95_est >= u64::from(crate::series::CHUNK_SAMPLES) * 2);
                // A ragged start forces one compacted-chunk decode.
                let ragged = estimate_scan(s, 30, zone_end, AggOp::Sum, false);
                assert_eq!(ragged, u64::from(s.chunks()[0].len()));
            })
            .unwrap();
    }
}
