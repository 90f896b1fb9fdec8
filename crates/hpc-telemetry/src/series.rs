//! Regular-interval time series.
//!
//! The facility's cabinet power telemetry samples on a fixed cadence
//! (15 minutes in the campaign runner). A `TimeSeries` holds its samples as
//! a plain `Vec<f64>` on the `start + k·interval` grid; windowed statistics
//! fold the in-window slice. Series that live in the campaign's telemetry
//! store are read there; a `TimeSeries` is the owned copy handed to figure
//! and emissions code.

use serde::{DeError, Deserialize, Serialize, Value};
use sim_core::stats::OnlineStats;
use sim_core::time::{SimDuration, SimTime};

/// A dense, regular-interval `f64` time series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeSeries {
    start_unix: u64,
    interval_s: u64,
    /// Sample `k` is the value at `start + k·interval`.
    samples: Vec<f64>,
    /// Unit label carried through to plots (e.g. `"kW"`).
    pub unit: String,
}

impl TimeSeries {
    /// Create an empty series starting at `start` with the given sampling
    /// interval.
    ///
    /// # Panics
    /// Panics if the interval is zero.
    pub fn new(start: SimTime, interval: SimDuration, unit: impl Into<String>) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        TimeSeries {
            start_unix: start.as_unix(),
            interval_s: interval.as_secs(),
            samples: Vec::new(),
            unit: unit.into(),
        }
    }

    /// Build a series from `(unix timestamp, value)` samples scanned out of
    /// a telemetry store series — how a campaign hands out its facility
    /// power series, and how resume validates recovered history. Samples
    /// must sit exactly on the `start + k·interval` grid with no gaps;
    /// values are copied as they are, so the series is bit-identical to
    /// the stored one.
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
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in time order.
    pub fn values(&self) -> &[f64] {
        &self.samples
    }

    /// Append the next sample (implicitly at `start + len·interval`).
    ///
    /// # Panics
    /// Panics on non-finite values.
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite sample {value}");
        self.samples.push(value);
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
        (t - self.start_unix).div_ceil(self.interval_s).min(self.samples.len() as u64) as usize
    }

    /// Mean of all samples (0 for an empty series).
    pub fn mean(&self) -> f64 {
        self.window_stats(self.start(), self.end()).mean()
    }

    /// Summary statistics over the half-open window `[from, to)`: the
    /// window is snapped to the sample grid, then its samples are folded
    /// in time order.
    pub fn window_stats(&self, from: SimTime, to: SimTime) -> OnlineStats {
        let i0 = self.index_at(from);
        let i1 = self.index_at(to).max(i0);
        let mut st = OnlineStats::new();
        for &v in &self.samples[i0..i1] {
            st.push(v);
        }
        st
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
        for chunk in self.samples.chunks(k) {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            out.push(mean);
        }
        out
    }

    /// Integrate the series as a power signal (in the series' unit) over its
    /// whole span, returning unit-hours (e.g. kW series → kWh).
    pub fn integral_unit_hours(&self) -> f64 {
        let h = self.interval_s as f64 / 3600.0;
        // A left-to-right sum from +0.0, so an empty series integrates to
        // +0.0 rather than the -0.0 `Iterator::sum` starts from.
        self.samples.iter().fold(0.0, |acc, &v| acc + v) * h
    }
}

// The serialised form is `start_unix`, `interval_s`, `samples`, `unit`.
// Deserialisation goes through `new` and `push`, so a zero interval or a
// non-finite sample is refused.
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
        // A reversed window is empty too, not a panic.
        assert_eq!(s.window_stats(s.time_at(2), s.time_at(0)).count(), 0);
    }

    #[test]
    fn block_means_downsample() {
        let s = series_with(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        let d = s.block_means(2);
        assert_eq!(d.values(), &[2.0, 6.0, 9.0]);
        assert_eq!(d.interval().as_secs(), 1800);
    }

    #[test]
    fn integral_converts_to_unit_hours() {
        // Four 15-minute samples at 1000 kW = 1 hour at 1000 kW = 1000 kWh.
        let s = series_with(&[1000.0; 4]);
        assert!((s.integral_unit_hours() - 1000.0).abs() < 1e-9);
        assert_eq!(series_with(&[]).integral_unit_hours().to_bits(), 0.0f64.to_bits());
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
        let samples: Vec<(i64, f64)> = original
            .values()
            .iter()
            .enumerate()
            .map(|(i, &v)| (original.time_at(i).as_unix() as i64, v))
            .collect();
        let rebuilt = TimeSeries::from_tsdb_samples(
            original.start(),
            original.interval(),
            "kW",
            &samples,
        )
        .unwrap();
        assert_eq!(rebuilt, original);
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
    fn serialised_text_is_pinned() {
        let mut s =
            TimeSeries::new(SimTime::from_ymd(2021, 12, 1), SimDuration::from_mins(15), "kW");
        for v in [3220.0, 3010.5, 2530.25, 0.1] {
            s.push(v);
        }
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"start_unix":1638316800,"interval_s":900,"samples":[3220.0,3010.5,2530.25,0.1],"unit":"kW"}"#
        );
        let zero = r#"{"start_unix":0,"interval_s":0,"samples":[],"unit":"kW"}"#;
        assert!(serde_json::from_str::<TimeSeries>(zero).is_err(), "zero interval refused");
    }

    #[test]
    fn window_stats_match_dense_reference() {
        // Windows at awkward offsets: the answer is the in-window samples
        // folded in order, so it equals a hand-rolled fold bit for bit.
        let vals: Vec<f64> = (0..700).map(|i| (f64::from(i) * 0.37).cos() * 120.0 + 3000.0).collect();
        let s = series_with(&vals);
        for (a, b) in [(0usize, 700usize), (1, 699), (13, 509), (255, 256), (699, 700), (300, 300)] {
            let st = s.window_stats(s.time_at(a), s.time_at(b));
            let mut reference = OnlineStats::new();
            for &v in &vals[a..b] {
                reference.push(v);
            }
            assert_eq!(st.count(), reference.count(), "window [{a}, {b})");
            assert_eq!(st.mean().to_bits(), reference.mean().to_bits(), "window [{a}, {b})");
            let var = (st.variance().to_bits(), reference.variance().to_bits());
            assert_eq!(var.0, var.1, "window [{a}, {b})");
            assert_eq!(st.min().to_bits(), reference.min().to_bits());
            assert_eq!(st.max().to_bits(), reference.max().to_bits());
        }
    }
}
