//! Hierarchical downsampling: raw samples cascade into 1-minute buckets,
//! sealed 1-minute buckets cascade into 1-hour buckets.
//!
//! Every bucket carries `count / sum / min / max`, so re-aggregating
//! buckets over a window reproduces the count, sum, extremes and mean
//! (`sum / count`) a raw scan would compute — means of means are never
//! taken.

/// One-minute rollup resolution in seconds.
pub const MINUTE: i64 = 60;
/// One-hour rollup resolution in seconds.
pub const HOUR: i64 = 3600;

/// Mergeable summary of a set of samples: their count, sum and extremes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Aggregate {
    /// Summary of zero samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    /// Merge another summary.
    pub fn merge(&mut self, other: &Aggregate) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.fold_nonempty(other);
    }

    /// Merge every summary of `others`, in order: the same bits as one
    /// [`Self::merge`] per summary, in a loop that tests for an empty
    /// `self` only until it holds a sample.
    pub fn merge_all<'a>(&mut self, others: impl IntoIterator<Item = &'a Aggregate>) {
        let mut others = others.into_iter();
        if self.count == 0 {
            match others.find(|o| o.count != 0) {
                Some(first) => *self = *first,
                None => return,
            }
        }
        for o in others {
            if o.count != 0 {
                self.fold_nonempty(o);
            }
        }
    }

    /// The tail of [`Self::merge`] once both sides hold samples.
    fn fold_nonempty(&mut self, other: &Aggregate) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the summarised samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A sealed rollup bucket: an [`Aggregate`] pinned to an aligned window
/// `[start, start + resolution)`.
#[derive(Debug, Clone, Copy)]
pub struct Bucket {
    /// Window start (aligned to the level's resolution).
    pub start: i64,
    /// Summary of the raw samples inside the window.
    pub agg: Aggregate,
}

/// One downsampling level: sealed buckets plus the bucket currently
/// filling. Buckets seal when a sample lands past their window, so levels
/// only ever append.
#[derive(Debug, Clone)]
pub struct RollupLevel {
    resolution: i64,
    sealed: Vec<Bucket>,
    open: Option<Bucket>,
}

impl RollupLevel {
    /// An empty level bucketing at `resolution` seconds.
    ///
    /// # Panics
    /// Panics if `resolution <= 0`.
    pub fn new(resolution: i64) -> Self {
        assert!(resolution > 0, "rollup resolution must be positive");
        RollupLevel { resolution, sealed: Vec::new(), open: None }
    }

    /// Bucket width in seconds.
    pub fn resolution(&self) -> i64 {
        self.resolution
    }

    /// Sealed (complete) buckets in time order.
    pub fn sealed(&self) -> &[Bucket] {
        &self.sealed
    }

    /// The partially filled trailing bucket, if any.
    pub fn open(&self) -> Option<&Bucket> {
        self.open.as_ref()
    }

    fn bucket_start(&self, ts: i64) -> i64 {
        ts.div_euclid(self.resolution) * self.resolution
    }

    /// Fold one raw sample in; returns the bucket sealed by this append,
    /// if crossing a boundary closed one (callers cascade it upward).
    pub fn push(&mut self, ts: i64, value: f64) -> Option<Bucket> {
        self.fold(ts, {
            let mut a = Aggregate::new();
            a.push(value);
            a
        })
    }

    /// Fold a pre-aggregated child bucket in (used when cascading a sealed
    /// finer bucket into a coarser level).
    pub fn fold(&mut self, ts: i64, agg: Aggregate) -> Option<Bucket> {
        let start = self.bucket_start(ts);
        let mut sealed = None;
        match &mut self.open {
            Some(b) if b.start == start => b.agg.merge(&agg),
            open => {
                if let Some(b) = open.take() {
                    assert!(b.start < start, "rollup fold went backwards");
                    self.sealed.push(b);
                    sealed = Some(b);
                }
                *open = Some(Bucket { start, agg });
            }
        }
        sealed
    }

    /// Sealed buckets intersecting `[from, to)`, in time order.
    ///
    /// Sealed buckets are aligned and in start order, so the ones that
    /// intersect form one run, found by two binary searches. The second
    /// search runs inside the first's result, so an empty or reversed
    /// window yields exactly what the per-bucket test would: nothing, or
    /// the one bucket that holds both ends.
    pub fn sealed_in(&self, from: i64, to: i64) -> &[Bucket] {
        let res = self.resolution;
        let lo = self.sealed.partition_point(|b| b.start + res <= from);
        let hi = lo + self.sealed[lo..].partition_point(|b| b.start < to);
        &self.sealed[lo..hi]
    }

    /// The open bucket, if it intersects `[from, to)`.
    pub fn open_in(&self, from: i64, to: i64) -> Option<&Bucket> {
        self.open.as_ref().filter(|b| b.start < to && b.start + self.resolution > from)
    }

    /// Buckets (sealed and open) intersecting `[from, to)`, in time order.
    pub fn buckets_in(&self, from: i64, to: i64) -> impl Iterator<Item = &Bucket> {
        self.sealed_in(from, to).iter().chain(self.open_in(from, to))
    }

    /// Whether `[from, to)` is aligned to this level's bucket grid, so
    /// bucket aggregates compose exactly to the window aggregate.
    pub fn covers_aligned(&self, from: i64, to: i64) -> bool {
        from % self.resolution == 0 && to % self.resolution == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_matches_sequential_push() {
        // Multiples of 1/8 sum exactly, so the split fold and the
        // sequential one agree in every bit whatever their grouping.
        let data: Vec<f64> = (0..97).map(|i| f64::from(i) * 1.375 - 20.0).collect();
        let mut whole = Aggregate::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Aggregate::new();
        let mut right = Aggregate::new();
        for &x in &data[..31] {
            left.push(x);
        }
        for &x in &data[31..] {
            right.push(x);
        }
        left.merge(&right);
        let bits = |a: &Aggregate| (a.count, [a.sum, a.min, a.max].map(f64::to_bits));
        assert_eq!(bits(&left), bits(&whole));
    }

    #[test]
    fn aggregate_and_bucket_sizes() {
        assert_eq!(std::mem::size_of::<Aggregate>(), 32);
        assert_eq!(std::mem::size_of::<Bucket>(), 40);
    }

    #[test]
    fn minute_buckets_cascade_to_hours() {
        let mut mins = RollupLevel::new(MINUTE);
        let mut hours = RollupLevel::new(HOUR);
        // 3 hours of 10-second samples.
        for i in 0..(3 * 360) {
            let ts = i64::from(i) * 10;
            if let Some(done) = mins.push(ts, f64::from(i)) {
                hours.fold(done.start, done.agg);
            }
        }
        assert_eq!(mins.sealed().len(), 179);
        assert_eq!(hours.sealed().len(), 2);
        let h0 = hours.sealed()[0];
        assert_eq!(h0.start, 0);
        // First hour summarises samples 0..360 except those still open...
        // minute 59 sealed when minute 60 opened, so hour 0 has 360 samples.
        assert_eq!(h0.agg.count, 360);
        assert!((h0.agg.mean() - 179.5).abs() < 1e-9);
    }

    #[test]
    fn rollup_mean_reaggregates_not_mean_of_means() {
        // Unequal bucket populations: 1 sample in minute 0, 59 in minute 1.
        let mut mins = RollupLevel::new(MINUTE);
        mins.push(0, 100.0);
        for i in 0..59 {
            mins.push(60 + i, 0.0);
        }
        mins.push(120, 0.0); // seal minute 1
        let mut window = Aggregate::new();
        for b in mins.buckets_in(0, 120) {
            window.merge(&b.agg);
        }
        // Mean of means would give (100 + 0) / 2 = 50; the true mean is
        // 100 / 60 ≈ 1.67.
        assert_eq!(window.count, 60);
        assert!((window.mean() - 100.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn alignment_check() {
        let l = RollupLevel::new(MINUTE);
        assert!(l.covers_aligned(0, 3600));
        assert!(l.covers_aligned(120, 180));
        assert!(!l.covers_aligned(30, 3600));
        assert!(!l.covers_aligned(0, 90));
    }

    #[test]
    fn buckets_in_matches_the_linear_filter() {
        let mut rng = crate::faults::DetRng::new(0xB0CE_7500);
        for case in 0..200 {
            let resolution = [1i64, MINUTE, HOUR, 7][rng.below(4) as usize];
            let mut level = RollupLevel::new(resolution);
            let first = rng.below(10_000) as i64 - 5_000;
            let mut ts = first;
            for _ in 0..rng.below(300) {
                level.push(ts, 1.0);
                ts += 1 + rng.below(3 * resolution as u64) as i64;
            }
            // Windows start anywhere from before the first bucket to past
            // the open one; a quarter are empty and a quarter reversed.
            let width = (ts - first + 4 * resolution) as u64;
            for _ in 0..50 {
                let from = first - 2 * resolution + rng.below(width) as i64;
                let to = match rng.below(4) {
                    0 => from,
                    1 => from - 1 - rng.below(3 * resolution as u64) as i64,
                    _ => from + 1 + rng.below(width) as i64,
                };
                let got: Vec<i64> = level.buckets_in(from, to).map(|b| b.start).collect();
                let want: Vec<i64> = level
                    .sealed()
                    .iter()
                    .chain(level.open())
                    .filter(|b| b.start < to && b.start + resolution > from)
                    .map(|b| b.start)
                    .collect();
                assert_eq!(got, want, "case {case}: window [{from}, {to})");
            }
        }
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let mut l = RollupLevel::new(MINUTE);
        l.push(-61, 1.0);
        l.push(-60, 2.0);
        l.push(-1, 3.0);
        l.push(0, 4.0);
        // -61 is in bucket [-120, -60); -60 and -1 in [-60, 0); 0 in [0, 60).
        assert_eq!(l.sealed().len(), 2);
        assert_eq!(l.sealed()[0].start, -120);
        assert_eq!(l.sealed()[1].start, -60);
        assert_eq!(l.sealed()[1].agg.count, 2);
    }
}
