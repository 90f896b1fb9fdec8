//! Reconciliation of the per-cabinet series against the facility series
//! inside the campaign's compressed telemetry store, and the paper's
//! change-point means read back through tsdb queries.
//!
//! The paper's Figures 1–3 are cabinet-PDU measurements aggregated to the
//! facility level; here we check the same accounting holds inside the
//! store: per-cabinet series sum to the facility series, and the
//! 3,220 → 3,010 → 2,530 kW campaign means survive a round trip through
//! Gorilla compression and the rollup-aware query planner.

use archer2_repro::core::campaign::{Campaign, CampaignConfig};
use archer2_repro::core::experiment::scaled_facility;
use archer2_repro::prelude::*;
use archer2_repro::telemetry::{ChangePoint, SegmentSummary};
use archer2_repro::tsdb::{fanout_group, store_aggregate, AggOp, Aggregate};
use archer2_repro::workload::{GeneratorConfig, OperatingPoint};

const SCALE: u32 = 10;

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        generator: GeneratorConfig {
            max_nodes: (1024 / SCALE).max(16),
            ..GeneratorConfig::default()
        },
        backlog_target: (120 / SCALE as usize).max(40),
        per_cabinet_telemetry: true,
        ..CampaignConfig::default()
    }
}

#[test]
fn cabinet_series_sum_to_facility_series_inside_the_store() {
    let facility = scaled_facility(41, SCALE);
    let start = SimTime::from_ymd(2022, 6, 1);
    let mut c = Campaign::new(facility, config(41), start, OperatingPoint::AFTER_BIOS);
    c.run_until(start + SimDuration::from_days(3));

    let store = c.telemetry_store();
    let from = start.as_unix() as i64;
    let to = (start + SimDuration::from_days(3)).as_unix() as i64;

    // Sample-by-sample: decode every cabinet series from its compressed
    // chunks and reconcile the per-timestamp sum against the facility
    // series (which carries ±1 % telemetry noise; the cabinets are
    // noiseless, so allow 5 sigma).
    let facility_samples = store
        .with_series(c.facility_series_id(), |s| s.scan(from, to))
        .unwrap();
    assert!(facility_samples.len() > 280, "3 days at 15 min cadence");
    let mut cabinet_sum = vec![0.0f64; facility_samples.len()];
    for &sid in c.cabinet_series_ids() {
        let samples = store.with_series(sid, |s| s.scan(from, to)).unwrap();
        assert_eq!(samples.len(), facility_samples.len());
        for (acc, &(ts, kw)) in cabinet_sum.iter_mut().zip(&samples) {
            assert!(ts >= from && ts < to);
            *acc += kw;
        }
    }
    for (i, (&sum, &(_, fac))) in cabinet_sum.iter().zip(&facility_samples).enumerate() {
        assert!(
            (sum - fac).abs() / fac < 0.05,
            "sample {i}: cabinets {sum} kW vs facility {fac} kW"
        );
    }

    // Aggregate-level reconciliation through the query planner: summed
    // cabinet means equal the facility mean well inside the noise floor.
    let mean = |sid| store_aggregate(store, sid, from, to, AggOp::Mean).unwrap().0;
    let fac_mean = mean(c.facility_series_id());
    let cab_mean: f64 = c.cabinet_series_ids().iter().map(|&sid| mean(sid)).sum();
    assert!(
        (cab_mean - fac_mean).abs() / fac_mean < 0.01,
        "cabinet mean sum {cab_mean} kW vs facility mean {fac_mean} kW"
    );

    // The group reduction folds the per-cabinet reads in input order, bit
    // for bit: their means summed as above, and their count, sum, min and
    // max merged as `Aggregate::merge` merges them.
    let ids = c.cabinet_series_ids();
    let group = fanout_group(store, ids, from, to);
    assert_eq!((group.series, group.missing), (ids.len(), 0));
    assert_eq!(group.sum_of_means.to_bits(), cab_mean.to_bits());
    let read = |sid, op| store_aggregate(store, sid, from, to, op).unwrap().0;
    let mut total = Aggregate::new();
    for &sid in ids {
        total.merge(&Aggregate {
            count: read(sid, AggOp::Count) as u64,
            sum: read(sid, AggOp::Sum),
            min: read(sid, AggOp::Min),
            max: read(sid, AggOp::Max),
            ..Aggregate::new()
        });
    }
    let bits = |a: &Aggregate| (a.count, a.sum.to_bits(), a.min.to_bits(), a.max.to_bits());
    assert_eq!(bits(&group.total), bits(&total));
    // Query instrumentation saw all of the above store-level traffic.
    let stats = store.query_stats();
    assert!(stats.queries >= 2 * ids.len() as u64, "stats: {stats:?}");
}

#[test]
fn change_point_means_read_back_through_tsdb_queries() {
    // One campaign across both operational changes, compressed to 12-day
    // segments (the means settle after ~2 days as running jobs drain).
    let facility = scaled_facility(2022, SCALE);
    let k = 5860.0 / facility.nodes() as f64;
    let start = SimTime::from_ymd(2022, 4, 1);
    let bios = start + SimDuration::from_days(12);
    let freq = bios + SimDuration::from_days(12);
    let end = freq + SimDuration::from_days(12);

    let mut c = Campaign::new(facility, config(2022), start, OperatingPoint::ORIGINAL);
    c.run_until(bios);
    c.set_operating_point(OperatingPoint::AFTER_BIOS);
    c.run_until(freq);
    c.set_operating_point(OperatingPoint::AFTER_FREQ);
    c.run_until(end);

    let store = c.telemetry_store();
    let sid = c.facility_series_id();
    let settle = SimDuration::from_days(2);
    let ts = |t: SimTime| t.as_unix() as i64;

    // Settled segment means through the store's query path, scaled back to
    // full-facility kilowatts. Paper: 3,220 / 3,010 / 2,530 kW, ±2 %.
    let expectations = [
        (ts(start), ts(bios), 3220.0),
        (ts(bios + settle), ts(freq), 3010.0),
        (ts(freq + settle), ts(end), 2530.0),
    ];
    for (from, to, paper_kw) in expectations {
        let (mean, plan) = store_aggregate(store, sid, from, to, AggOp::Mean).unwrap();
        let mean_kw = mean * k;
        assert!(
            (mean_kw - paper_kw).abs() / paper_kw < 0.02,
            "segment [{from}, {to}) mean {mean_kw:.0} kW vs paper {paper_kw} kW (plan {plan:?})"
        );
    }

    // The figures' change-point summary over the campaign's power series
    // sees the same staircase (boundaries unsettled, so just require
    // strictly decreasing steps).
    let power = c.power_series();
    let changes = [ChangePoint::new(bios, "BIOS"), ChangePoint::new(freq, "frequency")];
    let summary = SegmentSummary::compute(&power, &changes);
    assert_eq!(summary.len(), 3);
    assert!(
        summary.means[0] > summary.means[1] && summary.means[1] > summary.means[2],
        "segment means should step down: {:?}",
        summary.means
    );

    // Each segment read back through the store agrees with the series view
    // over the same bounds, 1e-9-identical. (The summary's last segment
    // runs to `power.end()`, one sample past `end`, so it is not the
    // comparator.)
    for w in [start, bios, freq, end].windows(2) {
        let (stored, _) = store_aggregate(store, sid, ts(w[0]), ts(w[1]), AggOp::Mean).unwrap();
        let view = power.window_mean(w[0], w[1]);
        assert!(
            (stored - view).abs() <= 1e-9 * view.abs().max(1.0),
            "store segment mean {stored} vs series view {view}"
        );
    }
}
