//! ASCII rendering of time series — the terminal stand-in for the paper's
//! figures.
//!
//! The examples and benches print Figures 1–3 as fixed-width charts with a
//! labelled value axis, month tick marks and horizontal mean lines (the
//! paper's orange annotations become `-` rules labelled with the segment
//! mean).

use crate::segment::SegmentSummary;
use crate::series::TimeSeries;

/// Plot configuration.
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    /// Plot width in character columns (time axis resolution).
    pub width: usize,
    /// Plot height in character rows (value axis resolution).
    pub height: usize,
    /// Chart title.
    pub title: String,
}

impl AsciiPlot {
    /// A plot sized for a terminal.
    pub fn new(title: impl Into<String>) -> Self {
        AsciiPlot {
            width: 100,
            height: 20,
            title: title.into(),
        }
    }

    /// Render the series, optionally overlaying per-segment mean lines.
    ///
    /// Returns a multi-line string; empty series render a placeholder.
    pub fn render(&self, series: &TimeSeries, segments: Option<&SegmentSummary>) -> String {
        if series.is_empty() {
            return format!("{}\n(empty series)\n", self.title);
        }
        let w = self.width.max(10);
        let h = self.height.max(5);

        // Downsample to one column per character cell.
        let cols = column_means(series.values(), w);
        let (mut lo, mut hi) = value_range(&cols);
        if let Some(seg) = segments {
            for &m in &seg.means {
                lo = lo.min(m);
                hi = hi.max(m);
            }
        }
        if (hi - lo).abs() < 1e-12 {
            hi = lo + 1.0;
        }
        // Pad the value axis a little.
        let pad = 0.05 * (hi - lo);
        let (lo, hi) = (lo - pad, hi + pad);

        let row_of = |v: f64| -> usize {
            let frac = (v - lo) / (hi - lo);
            let r = ((1.0 - frac) * (h - 1) as f64).round();
            (r.max(0.0) as usize).min(h - 1)
        };

        let mut grid = vec![vec![' '; w]; h];
        // Mean lines first so data overdraws them.
        if let Some(seg) = segments {
            for &m in &seg.means {
                let r = row_of(m);
                for cell in &mut grid[r] {
                    *cell = '-';
                }
            }
        }
        for (c, &v) in cols.iter().enumerate() {
            grid[row_of(v)][c] = '*';
        }

        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        let label_w = 10;
        for (r, row) in grid.iter().enumerate() {
            let v = hi - (hi - lo) * r as f64 / (h - 1) as f64;
            let label = if r % 4 == 0 || r == h - 1 {
                format!("{v:>9.0} ")
            } else {
                " ".repeat(label_w)
            };
            out.push_str(&label);
            out.push('|');
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&" ".repeat(label_w));
        out.push('+');
        out.push_str(&"-".repeat(w));
        out.push('\n');

        // Time axis: first, middle and last timestamps.
        let t0 = series.start().stamp();
        let tm = series.time_at(series.len() / 2).stamp();
        let t1 = series.time_at(series.len().saturating_sub(1)).stamp();
        let left = format!("{} {}", t0.month_abbrev(), t0.year);
        let mid = format!("{} {}", tm.month_abbrev(), tm.year);
        let right = format!("{} {}", t1.month_abbrev(), t1.year);
        let mut axis = " ".repeat(label_w + 1);
        axis.push_str(&left);
        let mid_pos = label_w + 1 + w / 2 - mid.len() / 2;
        while axis.len() < mid_pos {
            axis.push(' ');
        }
        axis.push_str(&mid);
        let right_pos = (label_w + 1 + w).saturating_sub(right.len());
        while axis.len() < right_pos {
            axis.push(' ');
        }
        axis.push_str(&right);
        out.push_str(&axis);
        out.push('\n');

        if let Some(seg) = segments {
            for (label, mean) in seg.labels.iter().zip(&seg.means) {
                out.push_str(&format!("  mean [{}] = {:.0} {}\n", label, mean, series.unit));
            }
        }
        out
    }
}

/// Average `values` into exactly `w` columns (or fewer if there are fewer
/// samples than columns).
fn column_means(values: &[f64], w: usize) -> Vec<f64> {
    if values.len() <= w {
        return values.to_vec();
    }
    let mut out = Vec::with_capacity(w);
    for c in 0..w {
        let i0 = c * values.len() / w;
        let i1 = ((c + 1) * values.len() / w).max(i0 + 1);
        let slice = &values[i0..i1.min(values.len())];
        out.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    out
}

fn value_range(values: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::ChangePoint;
    use sim_core::time::{SimDuration, SimTime};

    fn step_series() -> TimeSeries {
        let mut s = TimeSeries::new(SimTime::from_ymd(2021, 12, 1), SimDuration::from_hours(6), "kW");
        for _ in 0..200 {
            s.push(3220.0);
        }
        for _ in 0..200 {
            s.push(2530.0);
        }
        s
    }

    #[test]
    fn renders_title_axis_and_data() {
        let s = step_series();
        let plot = AsciiPlot::new("Figure 1: power draw");
        let out = plot.render(&s, None);
        assert!(out.starts_with("Figure 1: power draw\n"));
        assert!(out.contains('*'), "must plot data points");
        assert!(out.contains("Dec 2021"), "must label the time axis");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() >= plot.height + 2);
    }

    #[test]
    fn mean_lines_and_legend_present() {
        let s = step_series();
        let seg = SegmentSummary::compute(&s, &[ChangePoint::new(s.time_at(200), "change")]);
        let out = AsciiPlot::new("t").render(&s, Some(&seg));
        assert!(out.contains('-'), "mean rule lines must be drawn");
        assert!(out.contains("mean [baseline] = 3220 kW"));
        assert!(out.contains("mean [change] = 2530 kW"));
    }

    #[test]
    fn empty_series_placeholder() {
        let s = TimeSeries::new(SimTime::EPOCH, SimDuration::from_secs(1), "kW");
        let out = AsciiPlot::new("empty").render(&s, None);
        assert!(out.contains("(empty series)"));
    }

    #[test]
    fn step_visible_in_plot() {
        // The high segment's '*' marks must appear in higher rows than the
        // low segment's.
        let s = step_series();
        let out = AsciiPlot::new("t").render(&s, None);
        let rows: Vec<&str> = out.lines().skip(1).take(20).collect();
        let first_star_row = rows.iter().position(|r| r.contains('*')).unwrap();
        let last_star_row = rows.iter().rposition(|r| r.contains('*')).unwrap();
        assert!(last_star_row > first_star_row, "step should span rows");
    }

    #[test]
    fn column_means_preserves_mean() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cols = column_means(&values, 100);
        assert_eq!(cols.len(), 100);
        let orig_mean = values.iter().sum::<f64>() / 1000.0;
        let col_mean = cols.iter().sum::<f64>() / 100.0;
        assert!((orig_mean - col_mean).abs() < 1.0);
    }

    #[test]
    fn short_series_not_padded() {
        let cols = column_means(&[1.0, 2.0, 3.0], 100);
        assert_eq!(cols, vec![1.0, 2.0, 3.0]);
    }
}
