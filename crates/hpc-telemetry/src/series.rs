//! Regular-interval time series.
//!
//! The facility's cabinet power telemetry samples on a fixed cadence
//! (15 minutes in the campaign runner). A `TimeSeries` is a thin view over
//! one compressed tsdb series: appends go into Gorilla-compressed chunks
//! (and the rollup cascade), windowed statistics are answered by the tsdb
//! query planner — rollup buckets when the window is aligned, chunk scans
//! otherwise — and [`TimeSeries::values`] decodes the samples on demand.
//! The compressed chunks are the only copy of the data.

use hpc_tsdb::series::{Series, SeriesMeta};
use serde::{DeError, Deserialize, Serialize, Value};
use sim_core::stats::OnlineStats;
use sim_core::time::{SimDuration, SimTime};

/// A dense, regular-interval `f64` time series backed by compressed
/// tsdb storage.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    start_unix: u64,
    interval_s: u64,
    /// Compressed storage + rollups.
    store: Series,
    /// Unit label carried through to CSV/plots (e.g. `"kW"`).
    pub unit: String,
}

impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.start_unix == other.start_unix
            && self.interval_s == other.interval_s
            && self.unit == other.unit
            && self.values() == other.values()
    }
}

impl TimeSeries {
    /// Create an empty series starting at `start` with the given sampling
    /// interval.
    ///
    /// # Panics
    /// Panics if the interval is zero.
    pub fn new(start: SimTime, interval: SimDuration, unit: impl Into<String>) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        let unit = unit.into();
        TimeSeries {
            start_unix: start.as_unix(),
            interval_s: interval.as_secs(),
            store: Series::new(SeriesMeta {
                name: String::new(),
                unit: unit.clone(),
                interval_hint: interval.as_secs() as i64,
            }),
            unit,
        }
    }

    /// Build a series from `(unix timestamp, value)` samples scanned out of
    /// a [`hpc_tsdb::TsdbStore`] series — how a campaign hands out its
    /// facility power series, and how resume validates recovered history.
    /// Samples must sit exactly on the `start + k·interval` grid with no
    /// gaps; values are re-encoded through the lossless codec, so the
    /// series is bit-identical to the stored one.
    ///
    /// # Errors
    /// Returns a description of the first off-grid or missing timestamp.
    pub fn from_tsdb_samples(
        start: SimTime,
        interval: SimDuration,
        unit: impl Into<String>,
        samples: &[(i64, f64)],
    ) -> Result<Self, String> {
        let mut s = Self::new(start, interval, unit);
        for (i, &(ts, v)) in samples.iter().enumerate() {
            let expect = (s.start_unix + i as u64 * s.interval_s) as i64;
            if ts != expect {
                return Err(format!(
                    "sample {i} at unix {ts}, expected {expect} (start + {i}·interval)"
                ));
            }
            s.push(v);
        }
        Ok(s)
    }

    /// Start instant.
    pub fn start(&self) -> SimTime {
        SimTime::from_unix(self.start_unix)
    }

    /// Sampling interval.
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_secs(self.interval_s)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.store.len() as usize
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The raw samples, decoded from the compressed chunks (lossless).
    /// Each call decodes the whole series: bind the result once rather
    /// than calling this inside a loop.
    pub fn values(&self) -> Vec<f64> {
        self.store.scan(i64::MIN, i64::MAX).into_iter().map(|(_, v)| v).collect()
    }

    /// The compressed tsdb series behind this view (chunks + rollups).
    pub fn tsdb(&self) -> &Series {
        &self.store
    }

    /// Compressed size of the backing storage in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    /// Append the next sample (implicitly at `start + len·interval`).
    ///
    /// # Panics
    /// Panics on non-finite values.
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite sample {value}");
        let ts = self.start_unix + self.store.len() * self.interval_s;
        self.store.append(ts as i64, value);
    }

    /// Timestamp of sample `i`.
    pub fn time_at(&self, i: usize) -> SimTime {
        SimTime::from_unix(self.start_unix + i as u64 * self.interval_s)
    }

    /// Timestamp one interval past the final sample (exclusive end).
    pub fn end(&self) -> SimTime {
        self.time_at(self.len())
    }

    /// Index of the first sample at or after `t` (clamped to `len`).
    pub fn index_at(&self, t: SimTime) -> usize {
        let t = t.as_unix();
        if t <= self.start_unix {
            return 0;
        }
        (t - self.start_unix).div_ceil(self.interval_s).min(self.store.len()) as usize
    }

    /// Mean of all samples (0 for an empty series).
    pub fn mean(&self) -> f64 {
        self.window_stats(self.start(), self.end()).mean()
    }

    /// Summary statistics over the half-open window `[from, to)`, answered
    /// by the tsdb query planner (rollup buckets when aligned, compressed
    /// chunk scans otherwise). The window is first snapped to the sample
    /// grid exactly as the dense implementation did.
    pub fn window_stats(&self, from: SimTime, to: SimTime) -> OnlineStats {
        let i0 = self.index_at(from);
        let i1 = self.index_at(to);
        if i0 >= i1 {
            return OnlineStats::new();
        }
        let from_ts = (self.start_unix + i0 as u64 * self.interval_s) as i64;
        let to_ts = (self.start_unix + i1 as u64 * self.interval_s) as i64;
        let agg = hpc_tsdb::window_aggregate(&self.store, from_ts, to_ts);
        OnlineStats::from_moments(agg.count, agg.mean, agg.m2, agg.min, agg.max)
    }

    /// Mean over the half-open window `[from, to)` (0 when empty).
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> f64 {
        self.window_stats(from, to).mean()
    }

    /// Downsample by averaging consecutive blocks of `k` samples (the tail
    /// partial block is averaged too). Used to render daily means from
    /// 15-minute telemetry.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn block_means(&self, k: usize) -> TimeSeries {
        assert!(k > 0, "block size must be positive");
        let mut out = TimeSeries::new(
            self.start(),
            SimDuration::from_secs(self.interval_s * k as u64),
            self.unit.clone(),
        );
        for chunk in self.values().chunks(k) {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            out.push(mean);
        }
        out
    }

    /// Integrate the series as a power signal (in the series' unit) over its
    /// whole span, returning unit-hours (e.g. kW series → kWh).
    pub fn integral_unit_hours(&self) -> f64 {
        let h = self.interval_s as f64 / 3600.0;
        self.store.total_aggregate().sum * h
    }
}

// The serialised form is the dense one: start, interval, samples, unit.
// Samples are decoded for serialisation and re-encoded on deserialisation;
// the codec is bit-lossless, so a round trip is exact.
impl Serialize for TimeSeries {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("start_unix".into(), self.start_unix.to_value()),
            ("interval_s".into(), self.interval_s.to_value()),
            ("samples".into(), self.values().to_value()),
            ("unit".into(), self.unit.to_value()),
        ])
    }
}

impl Deserialize for TimeSeries {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v.as_map().ok_or_else(|| DeError::msg("TimeSeries: expected object"))?;
        let field = |k: &str| {
            serde::value::map_get(map, k)
                .ok_or_else(|| DeError::msg(format!("TimeSeries: missing field {k}")))
        };
        let start_unix = u64::from_value(field("start_unix")?)?;
        let interval_s = u64::from_value(field("interval_s")?)?;
        let samples = Vec::<f64>::from_value(field("samples")?)?;
        let unit = String::from_value(field("unit")?)?;
        if interval_s == 0 {
            return Err(DeError::msg("TimeSeries: zero interval"));
        }
        let mut s = TimeSeries::new(
            SimTime::from_unix(start_unix),
            SimDuration::from_secs(interval_s),
            unit,
        );
        for v in samples {
            s.push(v);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with(vals: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new(SimTime::from_unix(0), SimDuration::from_mins(15), "kW");
        for &v in vals {
            s.push(v);
        }
        s
    }

    #[test]
    fn timestamps_follow_interval() {
        let s = series_with(&[1.0, 2.0, 3.0]);
        assert_eq!(s.time_at(0).as_unix(), 0);
        assert_eq!(s.time_at(2).as_unix(), 1800);
        assert_eq!(s.end().as_unix(), 2700);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn index_at_rounds_up_to_next_sample() {
        let s = series_with(&[0.0; 10]);
        assert_eq!(s.index_at(SimTime::from_unix(0)), 0);
        assert_eq!(s.index_at(SimTime::from_unix(1)), 1);
        assert_eq!(s.index_at(SimTime::from_unix(900)), 1);
        assert_eq!(s.index_at(SimTime::from_unix(901)), 2);
        assert_eq!(s.index_at(SimTime::from_unix(1_000_000)), 10);
    }

    #[test]
    fn window_mean_half_open() {
        let s = series_with(&[10.0, 20.0, 30.0, 40.0]);
        // [t0, t2) covers samples 0 and 1.
        let m = s.window_mean(s.time_at(0), s.time_at(2));
        assert!((m - 15.0).abs() < 1e-12);
        assert!((s.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn window_beyond_range_is_empty() {
        let s = series_with(&[1.0, 2.0]);
        let st = s.window_stats(SimTime::from_unix(10_000), SimTime::from_unix(20_000));
        assert_eq!(st.count(), 0);
    }

    #[test]
    fn block_means_downsample() {
        let s = series_with(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        let d = s.block_means(2);
        assert_eq!(&d.values()[..], &[2.0, 6.0, 9.0]);
        assert_eq!(d.interval().as_secs(), 1800);
    }

    #[test]
    fn integral_converts_to_unit_hours() {
        // Four 15-minute samples at 1000 kW = 1 hour at 1000 kW = 1000 kWh.
        let s = series_with(&[1000.0; 4]);
        assert!((s.integral_unit_hours() - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_sample_panics() {
        let mut s = series_with(&[]);
        s.push(f64::NAN);
    }

    #[test]
    fn rebuild_from_tsdb_samples_is_bit_identical() {
        let original = series_with(&[3220.0, 3010.5, 2530.25, 2531.0]);
        let samples = original.tsdb().scan(i64::MIN, i64::MAX);
        let rebuilt = TimeSeries::from_tsdb_samples(
            original.start(),
            original.interval(),
            "kW",
            &samples,
        )
        .unwrap();
        assert_eq!(rebuilt, original);
        assert_eq!(rebuilt.compressed_bytes(), original.compressed_bytes());
        // Off-grid samples are refused, not silently shifted.
        let err = TimeSeries::from_tsdb_samples(
            original.start(),
            original.interval(),
            "kW",
            &[(0, 1.0), (901, 2.0)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let s = series_with(&[1.0, 2.0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn dense_view_and_compressed_store_agree() {
        // Enough samples to span several tsdb chunks.
        let vals: Vec<f64> = (0..1500).map(|i| 2800.0 + f64::from(i % 37) * 3.5).collect();
        let s = series_with(&vals);
        assert_eq!(s.values(), &vals[..]);
        let decoded = s.tsdb().scan(i64::MIN, i64::MAX);
        assert_eq!(decoded.len(), vals.len());
        for (i, &(ts, v)) in decoded.iter().enumerate() {
            assert_eq!(ts, i as i64 * 900);
            assert_eq!(v.to_bits(), vals[i].to_bits());
        }
        // Compression actually compresses: 12 bytes/sample raw → well under.
        assert!(
            s.compressed_bytes() < vals.len() * 8,
            "no compression win: {} bytes for {} samples",
            s.compressed_bytes(),
            vals.len()
        );
    }

    #[test]
    fn window_stats_match_dense_reference() {
        // Windows at awkward offsets: compare the tsdb-backed answer
        // against a straightforward dense computation.
        let vals: Vec<f64> = (0..700).map(|i| (f64::from(i) * 0.37).cos() * 120.0 + 3000.0).collect();
        let s = series_with(&vals);
        for (a, b) in [(0usize, 700usize), (1, 699), (13, 509), (255, 256), (699, 700), (300, 300)] {
            let st = s.window_stats(s.time_at(a), s.time_at(b));
            let mut reference = OnlineStats::new();
            for &v in &vals[a..b] {
                reference.push(v);
            }
            assert_eq!(st.count(), reference.count(), "window [{a}, {b})");
            if !vals[a..b].is_empty() {
                assert!((st.mean() - reference.mean()).abs() < 1e-9, "window [{a}, {b})");
                assert!((st.std_dev() - reference.std_dev()).abs() < 1e-6);
                assert_eq!(st.min(), reference.min());
                assert_eq!(st.max(), reference.max());
            }
        }
    }
}
