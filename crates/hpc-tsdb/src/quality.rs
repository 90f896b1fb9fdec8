//! Sample quality: the ingest sanitisation stage and gap-aware queries.
//!
//! Real facility meters glitch: they drop out (gaps), stick at a stale
//! value, and emit out-of-range outliers. A store that silently averages
//! that garbage produces confidently wrong power numbers. This module adds
//! a *quarantine* stage on the ingest path and *coverage* semantics on the
//! query path:
//!
//! - [`Sanitizer`] screens each sample before it reaches a series.
//!   Out-of-range values (including non-finite ones), runs of bit-identical
//!   values longer than the stuck threshold, and non-monotonic timestamps
//!   are **not stored**; they are recorded in the series' quarantine log
//!   (the per-series quality mask) with their raw value and reason.
//!   Because quarantined samples never enter the chunks, they can never
//!   contribute to chunk aggregates or rollup buckets.
//! - [`store_gap_aggregate`] aggregates over the samples that *are*
//!   present and reports a coverage fraction — present samples over the
//!   count the series' cadence hint says the window should hold — plus the
//!   number of quarantined samples in the window, so a reader can tell a
//!   clean mean from one computed over half a gap. It reads through the
//!   same two-phase, counted path as every other store-level query (see
//!   [`query`](crate::query)).
//!
//! The quarantine log lives in memory beside the series (it is diagnostic
//! state, deliberately not part of the snapshot format).

use crate::query::store_raw_aggregate;
use crate::rollup::Aggregate;
use serde::{Deserialize, Serialize};
use crate::series::Series;
use crate::store::{SeriesId, TsdbStore};
use std::collections::HashMap;

/// Why a sample was quarantined instead of stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// Outside the configured plausible range (or non-finite).
    OutOfRange,
    /// Part of a bit-identical run longer than the stuck threshold.
    Stuck,
    /// Timestamp not strictly after the last stored sample.
    NonMonotonic,
}

/// One quarantined sample: kept for diagnostics, excluded from storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinedSample {
    /// The timestamp the meter reported.
    pub ts: i64,
    /// The raw value the meter reported.
    pub value: f64,
    /// Why it was refused.
    pub reason: QuarantineReason,
}

/// Sanitisation thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SanitizeConfig {
    /// Minimum plausible value (inclusive).
    pub min_value: f64,
    /// Maximum plausible value (inclusive).
    pub max_value: f64,
    /// A run of more than this many bit-identical consecutive values marks
    /// the excess as stuck. 0 disables stuck detection.
    pub max_stuck_run: u32,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        // Cabinet power meters: a de-energised cabinet legitimately reads
        // ~0 kW, an ARCHER2 cabinet peaks well under 200 kW; 8× spikes are
        // far outside. Three identical f64 power readings in a row are
        // already implausible for a live meter with noise.
        SanitizeConfig { min_value: 0.0, max_value: 500.0, max_stuck_run: 3 }
    }
}

/// What happened to one sanitised sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFate {
    /// Stored in the series.
    Stored,
    /// Quarantined into the series' quality mask.
    Quarantined(QuarantineReason),
}

/// Counters over everything a [`Sanitizer`] has screened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    /// Samples stored.
    pub stored: u64,
    /// Samples quarantined as out-of-range.
    pub out_of_range: u64,
    /// Samples quarantined as stuck.
    pub stuck: u64,
    /// Samples quarantined as non-monotonic.
    pub non_monotonic: u64,
}

impl SanitizeStats {
    /// Total quarantined samples.
    pub fn quarantined(&self) -> u64 {
        self.out_of_range + self.stuck + self.non_monotonic
    }
}

/// Per-series stuck-run state.
#[derive(Debug, Clone, Copy, Default)]
struct RunState {
    last_bits: Option<u64>,
    run: u32,
}

/// The ingest sanitisation stage: screens samples for plausibility before
/// they reach the store, quarantining refused ones into the series'
/// quality mask. One sanitizer serves many series; stuck-run state is kept
/// per series id.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    config: SanitizeConfig,
    runs: HashMap<SeriesId, RunState>,
    stats: SanitizeStats,
}

impl Sanitizer {
    /// A sanitizer with the given thresholds.
    pub fn new(config: SanitizeConfig) -> Self {
        Sanitizer { config, runs: HashMap::new(), stats: SanitizeStats::default() }
    }

    /// The thresholds in force.
    pub fn config(&self) -> &SanitizeConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> SanitizeStats {
        self.stats
    }

    /// Screen one sample and either store it in `store` or quarantine it
    /// into the series' quality mask. Returns what happened.
    ///
    /// Unknown series ids quarantine as [`QuarantineReason::NonMonotonic`]
    /// is *not* used for that case — the sample is dropped with
    /// [`SampleFate::Quarantined`] only for known series; for an unknown
    /// id this returns `None`.
    pub fn ingest(
        &mut self,
        store: &TsdbStore,
        id: SeriesId,
        ts: i64,
        value: f64,
    ) -> Option<SampleFate> {
        let reason = self.screen(store, id, ts, value)?;
        match reason {
            None => {
                if store.try_append_batch(id, &[(ts, value)]).is_ok() {
                    self.stats.stored += 1;
                    Some(SampleFate::Stored)
                } else {
                    // Raced or out-of-order against the stored tail.
                    self.stats.non_monotonic += 1;
                    store.quarantine(id, ts, value, QuarantineReason::NonMonotonic);
                    Some(SampleFate::Quarantined(QuarantineReason::NonMonotonic))
                }
            }
            Some(r) => {
                match r {
                    QuarantineReason::OutOfRange => self.stats.out_of_range += 1,
                    QuarantineReason::Stuck => self.stats.stuck += 1,
                    QuarantineReason::NonMonotonic => self.stats.non_monotonic += 1,
                }
                store.quarantine(id, ts, value, r);
                Some(SampleFate::Quarantined(r))
            }
        }
    }

    /// Decide a sample's fate without touching the store contents.
    /// `None` = unknown series; `Some(None)` = store it.
    fn screen(
        &mut self,
        store: &TsdbStore,
        id: SeriesId,
        ts: i64,
        value: f64,
    ) -> Option<Option<QuarantineReason>> {
        let last_ts = store.with_series(id, Series::last_ts)?;
        if let Some(l) = last_ts {
            if ts <= l {
                return Some(Some(QuarantineReason::NonMonotonic));
            }
        }
        if !value.is_finite() || value < self.config.min_value || value > self.config.max_value {
            return Some(Some(QuarantineReason::OutOfRange));
        }
        let run = self.runs.entry(id).or_default();
        if self.config.max_stuck_run > 0 && run.last_bits == Some(value.to_bits()) {
            run.run += 1;
            if run.run >= self.config.max_stuck_run {
                return Some(Some(QuarantineReason::Stuck));
            }
        } else {
            run.last_bits = Some(value.to_bits());
            run.run = 0;
        }
        Some(None)
    }
}

/// A gap-aware aggregate: the usual moments over the samples that are
/// present, plus how complete the window actually was.
#[derive(Debug, Clone)]
pub struct GapAwareValue {
    /// Aggregate over the present (non-quarantined) samples.
    pub agg: Aggregate,
    /// Samples the series' cadence hint says the window should hold.
    pub expected: u64,
    /// `present / expected`, clamped to `[0, 1]`; 1.0 when the hint is
    /// unusable (non-positive).
    pub coverage: f64,
    /// Quarantined samples whose timestamps fall in the window.
    pub quarantined: u64,
}

impl GapAwareValue {
    /// Mean over present samples (NaN when the window is all gap).
    pub fn mean(&self) -> f64 {
        self.agg.mean()
    }
}

fn expected_samples(interval_hint: i64, from: i64, to: i64) -> Option<u64> {
    if interval_hint <= 0 || to <= from {
        return None;
    }
    Some(to.abs_diff(from).div_ceil(interval_hint as u64))
}

/// Gap-aware aggregate of one series over `[from, to)`: moments over the
/// present samples plus coverage against the series' cadence hint and the
/// quarantined count. `None` for an unknown id. The quality mask is read
/// in the same snapshot as the samples (quarantines bump the store
/// generation, so a fresh published view's mask is current).
pub fn store_gap_aggregate(
    store: &TsdbStore,
    id: SeriesId,
    from: i64,
    to: i64,
) -> Option<GapAwareValue> {
    let (agg, quarantined, interval_hint) = store_raw_aggregate(store, id, from, to)?;
    let (expected, coverage) = match expected_samples(interval_hint, from, to) {
        Some(expected) => (expected, (agg.count as f64 / expected as f64).clamp(0.0, 1.0)),
        None => (agg.count, 1.0),
    };
    Some(GapAwareValue { agg, expected, coverage, quarantined })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesMeta;

    fn store_with(name: &str) -> (TsdbStore, SeriesId) {
        let store = TsdbStore::default();
        let id = store.register(SeriesMeta {
            name: name.into(),
            unit: "kW".into(),
            interval_hint: 60,
        });
        (store, id)
    }

    #[test]
    fn out_of_range_and_nonfinite_are_quarantined() {
        let (store, id) = store_with("m");
        let mut san = Sanitizer::new(SanitizeConfig::default());
        assert_eq!(san.ingest(&store, id, 0, 400.0), Some(SampleFate::Stored));
        assert_eq!(
            san.ingest(&store, id, 60, 4_000.0),
            Some(SampleFate::Quarantined(QuarantineReason::OutOfRange))
        );
        assert_eq!(
            san.ingest(&store, id, 120, f64::NAN),
            Some(SampleFate::Quarantined(QuarantineReason::OutOfRange))
        );
        assert_eq!(
            san.ingest(&store, id, 180, -1.0),
            Some(SampleFate::Quarantined(QuarantineReason::OutOfRange))
        );
        assert_eq!(san.ingest(&store, id, 240, 401.0), Some(SampleFate::Stored));
        assert_eq!(store.with_series(id, Series::len).unwrap(), 2);
        assert_eq!(store.with_series(id, |s| s.quarantined().to_vec()).unwrap().len(), 3);
        assert_eq!(san.stats().out_of_range, 3);
        // The quarantined values never entered the aggregates.
        let agg = store.with_series(id, |s| *s.total_aggregate()).unwrap();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.max, 401.0);
    }

    #[test]
    fn stuck_runs_quarantine_after_the_threshold() {
        let (store, id) = store_with("m");
        let mut san =
            Sanitizer::new(SanitizeConfig { max_stuck_run: 3, ..SanitizeConfig::default() });
        let mut stored = 0;
        for i in 0..10i64 {
            if san.ingest(&store, id, i * 60, 123.456) == Some(SampleFate::Stored) {
                stored += 1;
            }
        }
        // First 3 identical samples pass, the rest are stuck.
        assert_eq!(stored, 3);
        assert_eq!(san.stats().stuck, 7);
        // A changed value resets the run.
        assert_eq!(san.ingest(&store, id, 700, 124.0), Some(SampleFate::Stored));
        assert_eq!(san.ingest(&store, id, 760, 124.0), Some(SampleFate::Stored));
    }

    #[test]
    fn non_monotonic_is_quarantined_not_lost() {
        let (store, id) = store_with("m");
        let mut san = Sanitizer::new(SanitizeConfig::default());
        san.ingest(&store, id, 100, 400.0);
        assert_eq!(
            san.ingest(&store, id, 40, 410.0),
            Some(SampleFate::Quarantined(QuarantineReason::NonMonotonic))
        );
        let q = store.with_series(id, |s| s.quarantined().to_vec()).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].reason, QuarantineReason::NonMonotonic);
        assert_eq!(q[0].ts, 40);
    }

    #[test]
    fn unknown_series_returns_none() {
        let store = TsdbStore::default();
        let mut san = Sanitizer::new(SanitizeConfig::default());
        assert_eq!(san.ingest(&store, SeriesId(9), 0, 1.0), None);
    }

    #[test]
    fn gap_aware_aggregate_reports_coverage() {
        let (store, id) = store_with("m");
        // 60-second cadence; store every other sample over 20 minutes.
        for i in 0..20i64 {
            if i % 2 == 0 {
                store.append(id, i * 60, 100.0 + i as f64);
            }
        }
        let v = store_gap_aggregate(&store, id, 0, 1_200).unwrap();
        assert_eq!(v.expected, 20);
        assert_eq!(v.agg.count, 10);
        assert!((v.coverage - 0.5).abs() < 1e-12);
        assert_eq!(v.quarantined, 0);
        // Full coverage over the even minutes only.
        let v = store_gap_aggregate(&store, id, 0, 60).unwrap();
        assert_eq!(v.expected, 1);
        assert!((v.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gap_windows_match_brute_force() {
        let (store, id) = store_with("m");
        let mut san = Sanitizer::new(SanitizeConfig::default());
        let mut kept: Vec<(i64, f64)> = Vec::new();
        for i in 0..240i64 {
            // A third of the samples spike out of range.
            let v = if i % 3 == 2 { 9_999.0 } else { 100.0 + (i % 7) as f64 };
            if san.ingest(&store, id, i * 60, v) == Some(SampleFate::Stored) {
                kept.push((i * 60, v));
            }
        }
        for start in (0..240 * 60).step_by(3_600) {
            let w = store_gap_aggregate(&store, id, start, start + 3_600).unwrap();
            let slice: Vec<f64> = kept
                .iter()
                .filter(|&&(t, _)| t >= start && t < start + 3_600)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(w.agg.count, slice.len() as u64);
            assert_eq!(w.expected, 60);
            let brute = slice.iter().sum::<f64>() / slice.len() as f64;
            assert!((w.mean() - brute).abs() < 1e-9);
            assert!((w.coverage - slice.len() as f64 / 60.0).abs() < 1e-12);
            assert_eq!(w.quarantined, 20, "a third of 60 samples quarantined");
        }
    }

    #[test]
    fn gap_queries_decode_through_the_cache_and_count_their_work() {
        // Regression: the gap path decoded inside the shard lock, straight
        // from the chunks, and recorded nothing in `QueryStats`.
        let (store, id) = store_with("m");
        let n = i64::from(crate::series::CHUNK_SAMPLES) * 2 + 50;
        for i in 0..n {
            store.append(id, i * 60, 100.0 + (i % 11) as f64);
        }
        // A ragged start cuts into the first sealed chunk, so it must decode.
        let (from, to) = (90, n * 60);
        store.reset_query_stats();
        let cold = store_gap_aggregate(&store, id, from, to).unwrap();
        let s = store.query_stats();
        assert_eq!((s.queries, s.plans_raw), (1, 1));
        assert!(s.chunks_decoded >= 1, "cold gap read decodes: {s:?}");
        assert!(s.samples_scanned > 0);
        let warm = store_gap_aggregate(&store, id, from, to).unwrap();
        let d = store.query_stats().delta_since(&s);
        assert_eq!((d.queries, d.plans_raw), (1, 1));
        assert_eq!(d.chunks_decoded, 0, "warm gap read is served by the chunk cache");
        assert!(d.chunk_cache_hits >= 1);
        assert_eq!(warm.agg.sum.to_bits(), cold.agg.sum.to_bits());
        let direct = store.with_series(id, |s| s.scan_aggregate_reference(from, to)).unwrap();
        assert_eq!(cold.agg.sum.to_bits(), direct.sum.to_bits());
        assert_eq!(cold.agg.count, direct.count);
    }
}
