//! Online statistics: Welford accumulators and fixed-bin histograms.
//!
//! A five-month campaign at 15-minute sampling produces ~14k cabinet power
//! samples per component stream and millions of per-job records; everything
//! here is O(1) memory per stream so whole-facility instrumentation stays
//! cheap.

/// Welford online mean/variance accumulator with min/max tracking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    ///
    /// # Panics
    /// Panics in debug builds on a non-finite observation; power and energy
    /// samples must always be finite.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction, per
    /// Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance, Bessel-corrected (0 for fewer than 2 observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// Fixed-bin histogram over `[lo, hi)` with under/overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create with `nbins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or the bounds are invalid.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid histogram range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // Floating-point edge: clamp the final representable value.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Raw in-range bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Approximate quantile `q` in `[0,1]` by scanning the CDF of in-range
    /// bins (out-of-range counts are clamped to the bounds).
    ///
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The target is the 1-indexed rank of the wanted observation, so it
        // is at least 1: a `ceil(0) = 0` target matched the empty prefix
        // and reported the centre of bin 0 whether or not it held anything.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = self.underflow;
        if cum >= target {
            return Some(self.lo);
        }
        for (i, &b) in self.bins.iter().enumerate() {
            if b == 0 {
                continue;
            }
            cum += b;
            if cum >= target {
                // q = 0 asks for the minimum; the bin's low edge is the
                // tightest bound the histogram can give.
                let w = (self.hi - self.lo) / self.bins.len() as f64;
                return Some(if q == 0.0 {
                    self.lo + i as f64 * w
                } else {
                    self.bin_center(i)
                });
            }
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Uniform};
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 113) as f64 * 0.5).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..400] {
            a.push(x);
        }
        for &x in &data[400..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(10.0);
        assert_eq!(h.bins(), &[1; 10]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 12);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantile_uniform() {
        let d = Uniform::new(0.0, 100.0);
        let mut rng = Xoshiro256StarStar::seeded(11);
        let mut h = Histogram::new(0.0, 100.0, 200);
        for _ in 0..100_000 {
            h.push(d.sample(&mut rng));
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() < 1.0, "median {med}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() < 1.0, "p90 {p90}");
    }

    #[test]
    fn histogram_empty_quantile_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_extremes() {
        // All mass in a high bin: q=0 must not report empty bin 0.
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(7.5);
        h.push(7.6);
        // q=0 → low edge of the first occupied bin, not bin_center(0)=0.5.
        assert_eq!(h.quantile(0.0), Some(7.0));
        // q=1 → the occupied bin's centre, not the histogram's upper bound.
        assert_eq!(h.quantile(1.0), Some(7.5));
        // Out-of-range q values clamp.
        assert_eq!(h.quantile(-3.0), Some(7.0));
        assert_eq!(h.quantile(2.0), Some(7.5));
        // Underflow mass clamps to the lower bound for small q...
        let mut u = Histogram::new(0.0, 10.0, 10);
        u.push(-5.0);
        u.push(8.5);
        assert_eq!(u.quantile(0.0), Some(0.0));
        // ...and overflow mass clamps to the upper bound for q=1.
        let mut o = Histogram::new(0.0, 10.0, 10);
        o.push(2.5);
        o.push(99.0);
        assert_eq!(o.quantile(1.0), Some(10.0));
    }
}
