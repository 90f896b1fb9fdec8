//! A single series: an append-only sequence of compressed chunks (sealed +
//! one active) with a cascade of rollup levels maintained on ingest.

use crate::chunk::{Chunk, ChunkBuilder, ColumnBlock, Zone};
use crate::persist::PersistError;
use crate::quality::QuarantinedSample;
use crate::rollup::{Aggregate, RollupLevel, HOUR, MINUTE};

/// Samples per chunk before sealing. 512 samples span 5.3 days at the
/// campaign's 900 s cadence, giving scans good locality while bounding the
/// re-decode cost of the active chunk.
pub const CHUNK_SAMPLES: u32 = 512;

/// Immutable description of a series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesMeta {
    /// Dotted path, e.g. `"facility"` or `"cabinet.17"`.
    pub name: String,
    /// Unit label, e.g. `"kW"`.
    pub unit: String,
    /// Expected cadence in seconds (a hint for readers; irregular appends
    /// are still accepted and encoded).
    pub interval_hint: i64,
}

/// One time series: compressed storage plus raw → 1-min → 1-h rollups.
#[derive(Debug, Clone)]
pub struct Series {
    meta: SeriesMeta,
    sealed: Vec<Chunk>,
    active: ChunkBuilder,
    minutes: RollupLevel,
    hours: RollupLevel,
    total: Aggregate,
    chunk_samples: u32,
    /// Quality mask: samples refused by sanitisation, in arrival order.
    /// Never folded into chunks, rollups or `total` — exclusion from every
    /// aggregate is by construction. In-memory diagnostic state; not part
    /// of the snapshot format.
    quarantined: Vec<QuarantinedSample>,
}

impl Series {
    /// An empty series.
    pub fn new(meta: SeriesMeta) -> Self {
        Series {
            meta,
            sealed: Vec::new(),
            active: ChunkBuilder::new(),
            minutes: RollupLevel::new(MINUTE),
            hours: RollupLevel::new(HOUR),
            total: Aggregate::new(),
            chunk_samples: CHUNK_SAMPLES,
            quarantined: Vec::new(),
        }
    }

    /// Series description.
    pub fn meta(&self) -> &SeriesMeta {
        &self.meta
    }

    /// Total samples appended.
    pub fn len(&self) -> u64 {
        self.total.count
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.total.count == 0
    }

    /// Timestamp of the most recent sample.
    pub fn last_ts(&self) -> Option<i64> {
        if !self.active.is_empty() {
            Some(self.active.last_ts())
        } else {
            self.sealed.last().map(Chunk::last_ts)
        }
    }

    /// Timestamp of the first sample.
    pub fn first_ts(&self) -> Option<i64> {
        if let Some(c) = self.sealed.first() {
            Some(c.first_ts())
        } else if !self.active.is_empty() {
            Some(self.active.first_ts())
        } else {
            None
        }
    }

    /// Aggregate over every sample ever appended.
    pub fn total_aggregate(&self) -> &Aggregate {
        &self.total
    }

    /// Compressed bytes held (sealed chunks + active chunk).
    pub fn size_bytes(&self) -> usize {
        self.sealed.iter().map(Chunk::size_bytes).sum::<usize>() + self.active.size_bytes()
    }

    /// Sealed chunks in time order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.sealed
    }

    /// The 1-minute rollup level.
    pub fn minutes(&self) -> &RollupLevel {
        &self.minutes
    }

    /// The 1-hour rollup level.
    pub fn hours(&self) -> &RollupLevel {
        &self.hours
    }

    /// Decode the samples of the active (unsealed) chunk — the mutable
    /// tail a snapshot must persist as raw samples, since only sealed
    /// chunks are immutable byte blocks.
    pub fn active_tail(&self) -> Vec<(i64, f64)> {
        self.active.decode()
    }

    /// Reassemble a series from persisted parts: sealed chunks verbatim and
    /// the active tail as raw samples (re-encoded through the deterministic
    /// codec, so the rebuilt builder is bit-identical to the one that was
    /// snapshotted). The total and both rollup levels are not persisted:
    /// every sample is folded, in time order, through the same fold
    /// [`Self::append`] runs, so they equal the live series' bit for bit.
    ///
    /// The stored aggregates of each sealed chunk and of each zone of its
    /// zone map, which whole-chunk and zone-covered reads serve without a
    /// decode, are checked against a fresh fold of the decoded samples
    /// they cover (`first_ts..=last_ts` for a zone).
    ///
    /// # Errors
    /// [`PersistError::Malformed`] if a sealed chunk's data does not decode
    /// (see [`crate::chunk::DecodeError`]) or the parts break what the fold
    /// assumes: a sealed chunk whose decoded first or last timestamp
    /// disagrees with its header, a sample not strictly after the one
    /// before it, across chunks and into the tail, or a stored chunk or
    /// zone aggregate that differs in any field, bit for bit (NaN matching
    /// NaN), from the fold of its samples.
    pub fn from_parts(
        meta: SeriesMeta,
        sealed: Vec<Chunk>,
        active_tail: &[(i64, f64)],
    ) -> Result<Self, PersistError> {
        let mut series = Series::new(meta);
        let mut last: Option<i64> = None;
        let mut check = |ts: i64| match last.replace(ts) {
            Some(prev) if ts <= prev => Err(PersistError::Malformed(format!(
                "samples not strictly increasing at ts {ts} (after {prev})"
            ))),
            _ => Ok(()),
        };
        for chunk in &sealed {
            let samples = chunk
                .try_decode()
                .map_err(|e| PersistError::Malformed(format!("chunk data: {e}")))?;
            let ends = samples.first().zip(samples.last()).map(|(a, b)| (a.0, b.0));
            let header = (chunk.first_ts(), chunk.last_ts());
            if ends != Some(header) {
                return Err(PersistError::Malformed(format!(
                    "chunk header {header:?} disagrees with its data {ends:?}"
                )));
            }
            let mut agg = Aggregate::new();
            for &(ts, v) in &samples {
                check(ts)?;
                series.fold(ts, v);
                agg.push(v);
            }
            check_stored("chunk", header, chunk.aggregate(), &agg)?;
            for z in chunk.zones().unwrap_or(&[]) {
                let lo = samples.partition_point(|&(ts, _)| ts < z.first_ts);
                let hi = samples.partition_point(|&(ts, _)| ts <= z.last_ts);
                let mut agg = Aggregate::new();
                samples[lo..hi].iter().for_each(|&(_, v)| agg.push(v));
                check_stored("zone", (z.first_ts, z.last_ts), &z.agg, &agg)?;
            }
        }
        for &(ts, v) in active_tail {
            check(ts)?;
            series.active.push(ts, v);
            series.fold(ts, v);
        }
        series.sealed = sealed;
        Ok(series)
    }

    /// Record a sample refused by sanitisation into the quality mask. The
    /// sample is *not* stored and contributes to no aggregate.
    pub fn quarantine(&mut self, sample: QuarantinedSample) {
        self.quarantined.push(sample);
    }

    /// The quality mask: every quarantined sample, in arrival order.
    pub fn quarantined(&self) -> &[QuarantinedSample] {
        &self.quarantined
    }

    /// Quarantined samples so far.
    pub fn quarantine_count(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Quarantined samples whose reported timestamp falls in `[from, to)`.
    pub fn quarantined_in(&self, from: i64, to: i64) -> u64 {
        self.quarantined.iter().filter(|q| q.ts >= from && q.ts < to).count() as u64
    }

    /// Append one sample.
    ///
    /// # Panics
    /// Panics if `ts` is not strictly after the last appended timestamp.
    pub fn append(&mut self, ts: i64, value: f64) {
        if self.active.len() >= self.chunk_samples {
            let full = std::mem::take(&mut self.active);
            self.sealed.push(full.seal());
        }
        self.active.push(ts, value);
        self.fold(ts, value);
    }

    /// Fold one stored sample into the total and the minute → hour
    /// cascade — the one fold behind both ingest and snapshot recovery.
    fn fold(&mut self, ts: i64, value: f64) {
        self.total.push(value);
        if let Some(done) = self.minutes.push(ts, value) {
            self.hours.fold(done.start, done.agg);
        }
    }

    /// Decode all samples with `from <= ts < to`, in time order.
    pub fn scan(&self, from: i64, to: i64) -> Vec<(i64, f64)> {
        let mut out = Vec::new();
        for chunk in &self.sealed {
            if chunk.overlaps(from, to) {
                out.extend(
                    chunk.decode().into_iter().filter(|&(t, _)| t >= from && t < to),
                );
            }
        }
        out.extend(self.active_samples_in(from, to));
        out
    }

    /// Decode the samples of the **active** (unsealed) chunk that fall in
    /// `[from, to)`. The active chunk is the only mutable storage in a
    /// series, so snapshot-based readers copy it out under the shard lock
    /// and treat the sealed chunks as immutable afterwards.
    pub fn active_samples_in(&self, from: i64, to: i64) -> Vec<(i64, f64)> {
        if self.active.is_empty()
            || self.active.first_ts() >= to
            || self.active.last_ts() < from
        {
            return Vec::new();
        }
        self.active.decode().into_iter().filter(|&(t, _)| t >= from && t < to).collect()
    }

    /// The pre-columnar scalar reference kernel: sample-by-sample row
    /// decode with a per-sample window filter, no zone maps, no columnar
    /// blocks, no cache. Kept verbatim as (a) the bit-identity oracle the
    /// store's raw read path is property-tested against (on an uncompacted
    /// series, since it ignores zone maps) and (b) the in-run "before"
    /// timing baseline for the query benchmark.
    pub fn scan_aggregate_reference(&self, from: i64, to: i64) -> Aggregate {
        let mut agg = Aggregate::new();
        // Whole-chunk fast path: chunks fully inside the window contribute
        // their pre-computed aggregate without decoding.
        for chunk in &self.sealed {
            if !chunk.overlaps(from, to) {
                continue;
            }
            if chunk.contained_in(from, to) {
                agg.merge(chunk.aggregate());
            } else {
                for (t, v) in chunk.decode() {
                    if t >= from && t < to {
                        agg.push(v);
                    }
                }
            }
        }
        for (_, v) in self.active_samples_in(from, to) {
            agg.push(v);
        }
        agg
    }

    /// Number of samples in the active (unsealed) chunk.
    pub fn active_len(&self) -> u32 {
        self.active.len()
    }

    /// Time bounds `(first_ts, last_ts)` of the active chunk, `None` when
    /// empty. Lets cost estimators reason about the mutable tail without
    /// decoding it.
    pub fn active_bounds(&self) -> Option<(i64, i64)> {
        (!self.active.is_empty()).then(|| (self.active.first_ts(), self.active.last_ts()))
    }

    /// Rewrite runs of small sealed chunks into large compacted chunks
    /// carrying block-level zone maps, and return how many source chunks
    /// were rewritten.
    ///
    /// Consecutive zone-less sealed chunks are grouped greedily into runs
    /// of at most `target_samples` samples; each run of two or more
    /// chunks is re-encoded through one [`ChunkBuilder`] (the codec is
    /// deterministic, so the payload is exactly what a single builder
    /// would have produced) and annotated with one [`Zone`] per source
    /// chunk, the zone's aggregate carried over verbatim. Queries over
    /// the compacted series therefore answer bit-identically to the
    /// pre-compaction series while touching far fewer chunk headers, and
    /// zone-covered windows skip decode entirely. Already-compacted
    /// chunks are left alone. The active chunk and rollups are untouched.
    pub fn compact(&mut self, target_samples: u32) -> u32 {
        let mut out: Vec<Chunk> = Vec::with_capacity(self.sealed.len());
        let mut run: Vec<Chunk> = Vec::new();
        let mut run_samples: u32 = 0;
        let mut rewritten: u32 = 0;

        fn flush(run: &mut Vec<Chunk>, out: &mut Vec<Chunk>, rewritten: &mut u32) {
            if run.len() < 2 {
                out.append(run);
                return;
            }
            let mut b = ChunkBuilder::new();
            let mut zones = Vec::with_capacity(run.len());
            for c in run.drain(..) {
                for (t, v) in c.decode() {
                    b.push(t, v);
                }
                zones.push(Zone {
                    first_ts: c.first_ts(),
                    last_ts: c.last_ts(),
                    agg: *c.aggregate(),
                });
                *rewritten += 1;
            }
            out.push(b.seal().with_zones(zones));
        }

        for chunk in self.sealed.drain(..) {
            let fits = run_samples.saturating_add(chunk.len()) <= target_samples;
            if chunk.zones().is_some() || chunk.len() > target_samples {
                // Already compacted (or oversized): ends any open run and
                // passes through untouched.
                flush(&mut run, &mut out, &mut rewritten);
                run_samples = 0;
                out.push(chunk);
            } else if fits {
                run_samples += chunk.len();
                run.push(chunk);
            } else {
                flush(&mut run, &mut out, &mut rewritten);
                run_samples = chunk.len();
                run.push(chunk);
            }
        }
        flush(&mut run, &mut out, &mut rewritten);
        self.sealed = out;
        rewritten
    }
}

/// Refuse a stored aggregate that differs from `folded`, the fold of the
/// samples it claims to summarise, in any field (bit for bit; two NaNs
/// match).
fn check_stored(
    what: &str,
    span: (i64, i64),
    stored: &Aggregate,
    folded: &Aggregate,
) -> Result<(), PersistError> {
    let fields = |a: &Aggregate| [a.sum, a.min, a.max];
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    let agrees = stored.count == folded.count
        && fields(stored).into_iter().zip(fields(folded)).all(|(x, y)| same(x, y));
    if agrees {
        Ok(())
    } else {
        Err(PersistError::Malformed(format!(
            "{what} {span:?} stores {stored:?}, its samples fold to {folded:?}"
        )))
    }
}

/// Fold one sealed chunk's contribution to `[from, to)` into `agg`, zone
/// maps honoured, decode deferred until a partial zone or partial
/// zone-less chunk forces it. `fetch` supplies the decoded columns (the
/// query layer routes it through the store's chunk cache) and is called
/// **at most once** per chunk.
/// Returns the number of blocks pruned — zones (or, for a zone-less
/// chunk, the whole chunk as one block) answered without touching sample
/// data, either skipped outright or served from their pre-computed
/// aggregate.
pub(crate) fn fold_chunk_aggregate(
    chunk: &Chunk,
    from: i64,
    to: i64,
    fetch: &mut dyn FnMut(&Chunk) -> std::sync::Arc<ColumnBlock>,
    agg: &mut Aggregate,
) -> u64 {
    let mut block: Option<std::sync::Arc<ColumnBlock>> = None;
    let mut pruned = 0u64;
    // Push the in-window values of `[lo, hi)` from the chunk's columns.
    let mut push_range = |lo: i64, hi: i64, agg: &mut Aggregate| {
        let cols = block.get_or_insert_with(|| fetch(chunk));
        let r = cols.range(lo, hi);
        for &v in &cols.values()[r] {
            agg.push(v);
        }
    };
    match chunk.zones() {
        None => {
            if chunk.contained_in(from, to) {
                agg.merge(chunk.aggregate());
                pruned += 1;
            } else {
                push_range(from, to, agg);
            }
        }
        Some(zones) => {
            for z in zones {
                if !z.overlaps(from, to) {
                    pruned += 1;
                } else if z.contained_in(from, to) {
                    // Same bits as merging the source chunk's aggregate:
                    // the zone carries it verbatim.
                    agg.merge(&z.agg);
                    pruned += 1;
                } else {
                    // Partial zone: push exactly the samples the source
                    // chunk's decode-filter would have pushed.
                    push_range(z.first_ts.max(from), z.last_ts.saturating_add(1).min(to), agg);
                }
            }
        }
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TsdbStore;

    fn meta() -> SeriesMeta {
        SeriesMeta { name: "test".into(), unit: "kW".into(), interval_hint: 60 }
    }

    #[test]
    fn append_spanning_many_chunks() {
        let mut s = Series::new(meta());
        let n = CHUNK_SAMPLES * 3 + 17;
        for i in 0..n {
            s.append(i64::from(i) * 60, f64::from(i % 100));
        }
        assert_eq!(s.len(), u64::from(n));
        assert_eq!(s.chunks().len(), 3);
        assert_eq!(s.first_ts(), Some(0));
        assert_eq!(s.last_ts(), Some(i64::from(n - 1) * 60));

        let all = s.scan(i64::MIN, i64::MAX);
        assert_eq!(all.len(), n as usize);
        for (i, &(t, v)) in all.iter().enumerate() {
            assert_eq!(t, i as i64 * 60);
            assert_eq!(v, (i % 100) as f64);
        }
    }

    #[test]
    fn scan_window_is_half_open() {
        let mut s = Series::new(meta());
        for i in 0..10 {
            s.append(i64::from(i) * 60, f64::from(i));
        }
        let w = s.scan(60, 240);
        assert_eq!(w.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![60, 120, 180]);
    }

    #[test]
    fn scan_aggregate_reference_matches_naive() {
        let mut s = Series::new(meta());
        let n = CHUNK_SAMPLES * 2 + 100;
        let vals: Vec<f64> = (0..n).map(|i| (f64::from(i) * 0.7).sin() * 50.0 + 400.0).collect();
        for (i, &v) in vals.iter().enumerate() {
            s.append(i as i64 * 60, v);
        }
        // Window crossing the chunk boundary: includes a full middle chunk.
        let from = 100i64 * 60;
        let to = i64::from(CHUNK_SAMPLES * 2 + 50) * 60;
        let agg = s.scan_aggregate_reference(from, to);
        let slice = &vals[100..(CHUNK_SAMPLES * 2 + 50) as usize];
        let naive_mean = slice.iter().sum::<f64>() / slice.len() as f64;
        assert_eq!(agg.count, slice.len() as u64);
        assert!((agg.mean() - naive_mean).abs() < 1e-9);
        assert_eq!(agg.min, slice.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(agg.max, slice.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn compact_rewrites_runs_and_preserves_answers_bit_for_bit() {
        let store = TsdbStore::default();
        let id = store.register(meta());
        let n = CHUNK_SAMPLES * 5 + 123; // 5 sealed chunks + active tail
        for i in 0..n {
            store.append(id, i64::from(i) * 60, (f64::from(i) * 0.37).sin() * 900.0 + 2500.0);
        }
        let mut reference = store.with_series(id, Series::clone).unwrap();
        assert_eq!(reference.chunks().len(), 5);
        let stats = store.compact_with(CHUNK_SAMPLES * 4);
        assert_eq!(stats.chunks_compacted, 4, "a 4-chunk run plus a leftover single");
        let s = store.with_series(id, Series::clone).unwrap();
        assert_eq!(s.chunks().len(), 2);
        let zoned = &s.chunks()[0];
        assert_eq!(zoned.len(), CHUNK_SAMPLES * 4);
        assert_eq!(zoned.zones().map(<[_]>::len), Some(4));
        assert!(s.chunks()[1].zones().is_none(), "leftover single stays plain");
        // Zone aggregates are the source chunk aggregates, verbatim.
        for (z, src) in zoned.zones().unwrap().iter().zip(reference.chunks()) {
            assert_eq!(z.first_ts, src.first_ts());
            assert_eq!(z.last_ts, src.last_ts());
            assert_eq!(z.agg.sum.to_bits(), src.aggregate().sum.to_bits());
            assert_eq!(z.agg.count, src.aggregate().count);
        }
        // The store's raw read path over the compacted series agrees with
        // the reference kernel over the uncompacted clone, bit for bit:
        // full range, chunk-interior windows, zone-straddling windows,
        // ragged tails into the active chunk.
        let raw = |from, to| crate::query::store_raw_aggregate(&store, id, from, to).unwrap().0;
        let span = i64::from(n) * 60;
        let windows = [
            (i64::MIN, i64::MAX),
            (0, span),
            (37 * 60, 1000 * 60),
            (i64::from(CHUNK_SAMPLES) * 60, i64::from(CHUNK_SAMPLES * 3) * 60),
            (500 * 60 + 30, span - 7919),
            (i64::from(CHUNK_SAMPLES * 5) * 60 - 60, span + 3600),
        ];
        for &(from, to) in &windows {
            let a = raw(from, to);
            let b = reference.scan_aggregate_reference(from, to);
            assert_eq!(a.count, b.count, "window [{from}, {to})");
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "window [{from}, {to})");
            assert_eq!(a.min.to_bits(), b.min.to_bits());
            assert_eq!(a.max.to_bits(), b.max.to_bits());
            assert_eq!(s.scan(from, to), reference.scan(from, to));
        }
        // Compacting again is a no-op: zoned chunks pass through.
        assert_eq!(store.compact_with(CHUNK_SAMPLES * 4).chunks_compacted, 0);
        assert_eq!(store.with_series(id, |s| s.chunks().len()), Some(2));
        // Appends continue normally after compaction.
        for i in n..n + CHUNK_SAMPLES {
            store.append(id, i64::from(i) * 60, 1.0);
            reference.append(i64::from(i) * 60, 1.0);
        }
        let a = raw(i64::MIN, i64::MAX);
        let b = reference.scan_aggregate_reference(i64::MIN, i64::MAX);
        assert_eq!(a.count, b.count);
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
    }

    #[test]
    fn compact_single_chunk_and_empty_are_no_ops() {
        let mut s = Series::new(meta());
        assert_eq!(s.compact(4096), 0);
        for i in 0..CHUNK_SAMPLES + 10 {
            s.append(i64::from(i) * 60, 1.0);
        }
        assert_eq!(s.chunks().len(), 1);
        assert_eq!(s.compact(4096), 0, "a lone chunk has nothing to merge with");
        assert!(s.chunks()[0].zones().is_none());
    }

    #[test]
    fn rollups_consistent_with_raw_scan() {
        let mut s = Series::new(meta());
        for i in 0..(48 * 60) {
            // Two days of minutely data, in halves, so every sum is exact
            // and the bucket folds match the raw fold bit for bit.
            s.append(i64::from(i) * 60, f64::from(i % 977) * 1.5);
        }
        // Hour 5 via rollups vs raw.
        let from = 5 * 3600;
        let to = 6 * 3600;
        let bits = |a: &Aggregate| (a.count, [a.sum, a.min, a.max].map(f64::to_bits));
        let raw = s.scan_aggregate_reference(from, to);
        assert_eq!(raw.count, 60);
        for level in [s.minutes(), s.hours()] {
            let mut rolled = Aggregate::new();
            for b in level.buckets_in(from, to) {
                rolled.merge(&b.agg);
            }
            assert_eq!(bits(&rolled), bits(&raw), "{} s buckets", level.resolution());
        }
    }
}
