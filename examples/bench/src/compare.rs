//! `bench compare <parent-dir> <change-dir>`: judge every (end-to-end
//! metric, workload) pair of two sets of records against the bounds in
//! `BENCHMARK.json`.
//!
//! The rule: compare medians; a change is *regressed* when its median is
//! worse than the parent's by more than the bound; *improved* when it is
//! better by more than the parent's own quartile spread and wins at least
//! nine in ten run pairs (ties count for neither); *unresolved* when the
//! parent's spread is wider than the bound, unless every change run reads
//! better (improved) or, with the median worse by more than the bound,
//! worse (regressed) than every parent run; otherwise *unchanged*. Failed
//! requests get their own row: any increase in the failure rate is a
//! regression.

use crate::record::Record;
use crate::stats;
use serde::Value;
use std::path::Path;

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// How a change's runs of one metric compare with the parent's.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub parent: f64,
    pub change: f64,
    /// Signed change of the median as a share of the parent's; positive
    /// means worse.
    pub worse_by: f64,
    /// The parent's quartile spread as a share of its median.
    pub spread: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Read the end-to-end metrics and their bounds from `BENCHMARK.json`.
pub fn bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = v
        .as_map()
        .and_then(|m| serde::value::map_get(m, "end_to_end"))
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let m = m.as_map().ok_or("an end_to_end entry is not an object")?;
            let text = |k: &str| {
                serde::value::map_get(m, k)
                    .and_then(Value::as_str)
                    .map(String::from)
                    .ok_or(format!("an end_to_end entry has no {k}"))
            };
            let bound = match serde::value::map_get(m, "bound") {
                Some(Value::Num(n)) => n.as_f64(),
                _ => return Err("an end_to_end entry has no numeric bound".to_string()),
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound,
            })
        })
        .collect()
}

/// Judge `change` against `parent` (runs in the order they were made).
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Judgement {
    let (p, c) = (stats::median(parent), stats::median(change));
    let (q1, _, q3) = stats::quartiles(parent);
    let scale = p.abs().max(f64::MIN_POSITIVE);
    let spread = (q3 - q1) / scale;
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (c - p) / scale;
    let better = |x: f64, than: f64| sign * (x - than) < 0.0;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    // `every(a, b)`: every run of `a` reads better than every run of `b`.
    let every =
        |a: &[f64], b: &[f64]| !a.is_empty() && a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let verdict = if worse_by > bound && (spread <= bound || every(parent, change)) {
        Verdict::Regressed
    } else if spread > bound {
        if every(change, parent) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if -worse_by > spread && pairs > 0 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        parent: p,
        change: c,
        worse_by,
        spread,
        wins,
        pairs,
        verdict,
    }
}

/// One table row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub judgement: Judgement,
}

fn failure_rate(records: &[Record]) -> f64 {
    let attempted: u64 = records.iter().map(|r| r.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Every (metric, workload) row, workloads in the parent's order, plus a
/// `failed_share` row per workload (a run that failed a correctness gate
/// counts every one of its attempts as failed).
pub fn compare(parent: &[Record], change: &[Record], bounds: &[Bound]) -> Vec<Row> {
    let untraced = |rs: &[Record], w: &str| -> Vec<Record> {
        rs.iter()
            .filter(|r| !r.trace && r.workload == w)
            .map(|r| {
                let mut r = r.clone();
                if !r.correct {
                    r.failed = r.attempted.max(1);
                }
                r
            })
            .collect()
    };
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let (p, c) = (untraced(parent, w), untraced(change, w));
        for b in bounds {
            let values = |rs: &[Record]| {
                rs.iter()
                    .filter_map(|r| r.metric(&b.name))
                    .collect::<Vec<f64>>()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: w.into(),
                metric: b.name.clone(),
                judgement: judge(&pv, &cv, b.lower_is_better, b.bound),
            });
        }
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let (pf, cf) = (failure_rate(&p), failure_rate(&c));
        let verdict = match cf.partial_cmp(&pf) {
            Some(std::cmp::Ordering::Greater) => Verdict::Regressed,
            Some(std::cmp::Ordering::Less) => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
        let judgement = Judgement {
            parent: pf,
            change: cf,
            worse_by: cf - pf,
            spread: 0.0,
            wins: 0,
            pairs: 0,
            verdict,
        };
        rows.push(Row {
            workload: w.into(),
            metric: "failed_share".into(),
            judgement,
        });
    }
    rows
}

/// The subcommand: print the table and exit 1 if any row regressed, 3 if
/// none did but some are unresolved, 0 otherwise (2 on unreadable input).
pub fn main(parent: &Path, change: &Path, benchmark: &Path) -> i32 {
    match table(parent, change, benchmark) {
        Ok(rows) => exit_code(&rows),
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

fn exit_code(rows: &[Row]) -> i32 {
    let any = |v: Verdict| rows.iter().any(|r| r.judgement.verdict == v);
    if any(Verdict::Regressed) {
        1
    } else if any(Verdict::Unresolved) {
        3
    } else {
        0
    }
}

/// Print the table and a count of each verdict; return the rows.
fn table(parent: &Path, change: &Path, benchmark: &Path) -> Result<Vec<Row>, String> {
    let b = bounds(benchmark)?;
    let rows = compare(
        &crate::record::read_dir(parent)?,
        &crate::record::read_dir(change)?,
        &b,
    );
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>8} {:>7} {:>6} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse", "spread", "bound", "wins"
    );
    for r in &rows {
        let j = &r.judgement;
        let bound = b
            .iter()
            .find(|b| b.name == r.metric)
            .map_or(0.0, |b| b.bound);
        println!(
            "{:<20} {:<16} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}% {:>5.0}% {:>6}  {:?}",
            r.workload,
            r.metric,
            j.parent,
            j.change,
            100.0 * j.worse_by,
            100.0 * j.spread,
            100.0 * bound,
            format!("{}/{}", j.wins, j.pairs),
            j.verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.judgement.verdict == v).count();
    println!(
        "{} rows: {} regressed, {} unresolved, {} improved, {} unchanged",
        rows.len(),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Unchanged)
    );
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metric;

    fn record(workload: &str, value: f64, failed: u64) -> Record {
        Record {
            workload: workload.into(),
            seed: 2022,
            commit: "c".into(),
            nproc: 2,
            smoke: false,
            trace: false,
            seconds: 10,
            correct: true,
            attempted: 1_000,
            failed,
            digest: "d".into(),
            reply_digest: None,
            errors: Vec::new(),
            metrics: vec![Metric {
                name: "query_p50_us".into(),
                value,
                unit: "us".into(),
            }],
        }
    }

    fn bound() -> Vec<Bound> {
        vec![Bound {
            name: "query_p50_us".into(),
            unit: "us".into(),
            lower_is_better: true,
            bound: 0.10,
        }]
    }

    #[test]
    fn ties_are_unchanged_not_improved() {
        let v = [50.0; 5];
        let j = judge(&v, &v, true, 0.10);
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert_eq!(j.wins, 0);
        assert_eq!(j.worse_by, 0.0);
    }

    #[test]
    fn direction_and_bound_decide_regressions_and_gains() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&parent, &slower, true, 0.10).verdict,
            Verdict::Regressed
        );
        // Within the bound: not a regression, and not a gain either.
        let a_bit: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            judge(&parent, &a_bit, true, 0.10).verdict,
            Verdict::Unchanged
        );
        // Higher-is-better: the same numbers are a gain.
        assert_eq!(
            judge(&parent, &slower, false, 0.10).verdict,
            Verdict::Improved
        );
        // A gain needs 9 of 10 pair wins: 4 of 5 is not enough unless
        // every change run beats every parent run.
        let mixed = [90.0, 90.0, 90.0, 90.0, 102.0];
        assert_eq!(
            judge(&parent, &mixed, true, 0.10).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [60.0, 100.0, 140.0, 80.0, 120.0];
        let change = [65.0, 105.0, 145.0, 85.0, 125.0];
        let j = judge(&parent, &change, true, 0.10);
        assert!(j.spread > 0.10);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // ... unless every change run reads better than every parent run.
        let all_better = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(
            judge(&parent, &all_better, true, 0.10).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_clear_regression_over_a_noisy_parent_is_a_regression() {
        let parent = [60.0, 100.0, 140.0, 80.0, 120.0];
        // Every change run is slower than every parent run.
        let doubled: Vec<f64> = parent.iter().map(|x| x * 2.0 + 100.0).collect();
        let j = judge(&parent, &doubled, true, 0.10);
        assert!(j.spread > 0.10);
        assert_eq!(j.verdict, Verdict::Regressed);
        // Worse medians that overlap the parent's runs cannot be told apart.
        let overlapping: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            judge(&parent, &overlapping, true, 0.10).verdict,
            Verdict::Unresolved
        );
        // Every run worse, but by less than the bound: not a regression.
        let steady = [100.0, 100.5, 101.0, 100.2, 100.8];
        let slightly: Vec<f64> = steady.iter().map(|x| x + 2.0).collect();
        assert_eq!(
            judge(&steady, &slightly, true, 0.10).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn exit_code_signals_regressions_then_unresolved_rows() {
        let row = |verdict| Row {
            workload: "w".into(),
            metric: "m".into(),
            judgement: Judgement {
                parent: 1.0,
                change: 1.0,
                worse_by: 0.0,
                spread: 0.0,
                wins: 0,
                pairs: 0,
                verdict,
            },
        };
        use Verdict::*;
        assert_eq!(exit_code(&[row(Unchanged), row(Improved)]), 0);
        assert_eq!(exit_code(&[row(Unchanged), row(Unresolved)]), 3);
        assert_eq!(exit_code(&[row(Unresolved), row(Regressed)]), 1);
    }

    #[test]
    fn an_error_rate_increase_is_a_regression() {
        let parent: Vec<Record> = (0..3).map(|_| record("serve_live", 50.0, 0)).collect();
        let mut change: Vec<Record> = (0..3).map(|_| record("serve_live", 50.0, 0)).collect();
        change[1].failed = 1;
        let rows = compare(&parent, &change, &bound());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].judgement.verdict, Verdict::Unchanged);
        assert_eq!(rows[1].metric, "failed_share");
        assert_eq!(rows[1].judgement.verdict, Verdict::Regressed);
        // A run that failed its correctness gate fails all it attempted.
        let mut gate = change.clone();
        gate[1].failed = 0;
        gate[1].correct = false;
        assert_eq!(
            compare(&parent, &gate, &bound())[1].judgement.verdict,
            Verdict::Regressed
        );
        // Traced records never enter the comparison.
        let mut traced = change.clone();
        for r in &mut traced {
            r.trace = true;
        }
        assert!(compare(&parent, &traced, &bound()).is_empty());
    }
}
