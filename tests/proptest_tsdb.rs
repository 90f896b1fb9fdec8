//! Property-based tests for the `hpc-tsdb` compression codec and rollup
//! cascade: the Gorilla round trip must be bit-exact for *every* `f64`
//! pattern (NaN payloads, signed zeros, subnormals, infinities) at any
//! timestamp spacing, and rollup-planned aggregates must agree with raw
//! chunk scans on any aligned window.

use archer2_repro::tsdb::{
    fanout_group, store_aggregate, store_gap_aggregate, store_windows, AggOp, Aggregate,
    GroupValue, Plan, SampleFate, SanitizeConfig, Sanitizer, Series, SeriesId, SeriesMeta,
    TsdbStore,
};
use proptest::prelude::*;

fn meta() -> SeriesMeta {
    SeriesMeta { name: "prop".into(), unit: "kW".into(), interval_hint: 60 }
}

/// `vals` at a one-minute cadence from `t = 0`, in a one-series store.
fn minutely_store(vals: &[f64]) -> (TsdbStore, SeriesId) {
    let store = TsdbStore::default();
    let id = store.register(meta());
    for (i, &v) in vals.iter().enumerate() {
        store.append(id, i as i64 * 60, v);
    }
    (store, id)
}

/// The store's aggregate over `[from, to)` as its planner
/// serves it (rollup buckets when the window is aligned), with the plan.
fn planned(store: &TsdbStore, id: SeriesId, from: i64, to: i64) -> (Aggregate, Plan) {
    let (_, plan) = store_aggregate(store, id, from, to, AggOp::Mean).unwrap();
    (fanout_group(store, &[id], from, to).total, plan)
}

/// The store's raw-scan aggregate over `[from, to)`: every present sample,
/// through the chunk cache and zone maps, never a rollup bucket.
fn raw(store: &TsdbStore, id: SeriesId, from: i64, to: i64) -> Aggregate {
    store_gap_aggregate(store, id, from, to).unwrap().agg
}

/// `(series, missing)`, the bits of `sum_of_means`, and the count and the
/// sum, min and max bits of `total`.
type GroupBits = ((usize, usize), u64, (u64, u64, u64, u64));

fn group_bits(g: &GroupValue) -> GroupBits {
    let t = &g.total;
    (
        (g.series, g.missing),
        g.sum_of_means.to_bits(),
        (t.count, t.sum.to_bits(), t.min.to_bits(), t.max.to_bits()),
    )
}

/// What `fanout_group` must answer, folded in input order from the
/// per-series `store_aggregate` reads: the non-empty series' `Mean`
/// answers summed, and their `Count`, `Sum`, `Min` and `Max` answers
/// folded as `Aggregate::merge` folds them.
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

/// Multiples of 2^-10 below 5,000 in magnitude, whose sums over up to 2,000
/// samples are exact, so a fold's grouping cannot move a bit of its sum;
/// salted with NaN and both infinities. No `-0.0`: `f64::min` and `max`
/// may return either zero when given both, so which sign a fold keeps
/// depends on its grouping.
fn exact_sum_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        12 => (-5_120_000i64..5_120_000).prop_map(|k| k as f64 / 1024.0),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

/// Any `f64` bit pattern, with the codec's edge cases oversampled.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        5 => proptest::num::u64::ANY.prop_map(f64::from_bits),
        3 => -5000.0f64..5000.0,
        1 => Just(f64::NAN),
        1 => Just(f64::from_bits(0xFFF8_0000_0000_0001)), // NaN with payload
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::MIN_POSITIVE), // smallest normal
        1 => Just(5e-324),            // subnormal
        1 => Just(f64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compression_roundtrip_any_bits_any_spacing(
        samples in proptest::collection::vec((1i64..100_000, arb_value()), 0..700),
        start in -1_000_000_000i64..1_000_000_000,
    ) {
        // Irregular, strictly increasing timestamps from random deltas.
        let mut s = Series::new(meta());
        let mut ts = start;
        let mut expected = Vec::with_capacity(samples.len());
        for &(delta, v) in &samples {
            ts += delta;
            s.append(ts, v);
            expected.push((ts, v));
        }
        let decoded = s.scan(i64::MIN, i64::MAX);
        prop_assert_eq!(decoded.len(), expected.len());
        for (&(dt, dv), &(et, ev)) in decoded.iter().zip(&expected) {
            prop_assert_eq!(dt, et, "timestamp diverged");
            prop_assert_eq!(
                dv.to_bits(),
                ev.to_bits(),
                "bit pattern diverged: {:016x} vs {:016x}",
                dv.to_bits(),
                ev.to_bits()
            );
        }
    }

    #[test]
    fn constant_runs_compress_to_a_couple_of_bits_per_sample(
        value in arb_value(),
        n in 1usize..1200,
        interval in 1i64..3600,
    ) {
        // A flat series at a regular cadence — idle nodes, held power caps —
        // costs ~2 bits/sample after the header, whatever the value's bits
        // (XOR of identical patterns is zero, NaN payloads included).
        let mut s = Series::new(meta());
        for i in 0..n {
            s.append(i as i64 * interval, value);
        }
        let decoded = s.scan(i64::MIN, i64::MAX);
        prop_assert_eq!(decoded.len(), n);
        for &(_, v) in &decoded {
            prop_assert_eq!(v.to_bits(), value.to_bits());
        }
        // Generous bound: ~34 bytes of header per chunk + 1 byte/sample.
        let chunks = n / 512 + 1;
        prop_assert!(
            s.size_bytes() <= 40 * chunks + n,
            "{} bytes for {n} constant samples",
            s.size_bytes()
        );
    }

    #[test]
    fn rollup_plans_agree_with_raw_scans_on_any_aligned_window(
        vals in proptest::collection::vec(exact_sum_value(), 10..2000),
        a in 0usize..2000,
        b in 0usize..2000,
    ) {
        // Minutely cadence so both rollup levels fill.
        let (store, id) = minutely_store(&vals);
        // Snap an arbitrary index window to hour alignment: the planner
        // must serve it from rollups, and its count, sum, min and max must
        // match the raw chunk scan's bit for bit.
        let span = vals.len() as i64 * 60;
        let from = (a as i64 * 60).min(span) / 3600 * 3600;
        let to = (b as i64 * 60).min(span) / 3600 * 3600;
        let (from, to) = (from.min(to), from.max(to));
        let (planned, plan) = planned(&store, id, from, to);
        prop_assert_eq!(plan, Plan::HourRollup);
        prop_assert_eq!(agg_bits(&planned), agg_bits(&raw(&store, id, from, to)));
    }

    #[test]
    fn merge_all_matches_sequential_merge(
        start in arb_aggregate(),
        run in proptest::collection::vec(arb_aggregate(), 0..40),
    ) {
        // The run fold that serves sealed rollup buckets answers what one
        // `merge` per summary answers, from an empty or a filled start,
        // over runs holding empty summaries, NaN, both zeros and both
        // infinities.
        let mut sequential = start;
        for a in &run {
            sequential.merge(a);
        }
        let mut folded = start;
        folded.merge_all(&run);
        prop_assert_eq!(agg_bits(&folded), agg_bits(&sequential));
    }

    #[test]
    fn rollup_plans_agree_on_ragged_tail_windows(
        vals in proptest::collection::vec(-5000.0f64..5000.0, 10..2000),
        from_units in 0i64..30,
    ) {
        // The planner's sore spot: a grid-aligned `to` rounded UP past the
        // last sample, so the final rollup bucket in range is the one still
        // filling. The hour level only receives minute buckets when they
        // seal, so this exercises the open-minute patch-up.
        let (store, id) = minutely_store(&vals);
        let span = vals.len() as i64 * 60;
        for unit in [3600i64, 60] {
            let to = (span + unit - 1) / unit * unit; // ≥ span: past the tail
            let from = (from_units * unit).min(to);
            let (planned, plan) = planned(&store, id, from, to);
            prop_assert!(plan != Plan::RawScan, "unit {}s: planned {:?}", unit, plan);
            let raw = raw(&store, id, from, to);
            prop_assert_eq!(planned.count, raw.count, "unit {}s: count", unit);
            if raw.count > 0 {
                prop_assert!((planned.mean() - raw.mean()).abs() < 1e-9, "unit {}s", unit);
                prop_assert!((planned.sum - raw.sum).abs() < 1e-6);
                prop_assert_eq!(planned.min, raw.min);
                prop_assert_eq!(planned.max, raw.max);
            }
        }
    }

    #[test]
    fn fanout_matches_sequential_store_queries(
        per_series in proptest::collection::vec(
            proptest::collection::vec(-5000.0f64..5000.0, 1..400),
            1..5,
        ),
        a in 0i64..30_000,
        b in 0i64..30_000,
        grid in prop_oneof![Just(1i64), Just(60), Just(3600)],
    ) {
        // `fanout_group` answers, bit for bit, the input-order fold of a
        // loop over `store_aggregate`, on windows the rollups serve (snapped
        // to the minute or hour grid) and on raw-planned ones, with an
        // empty series and an unknown id in the list.
        let store = TsdbStore::default();
        let mut ids: Vec<_> = (0..=per_series.len())
            .map(|i| {
                store.register(SeriesMeta {
                    name: format!("s{i}"),
                    unit: "kW".into(),
                    interval_hint: 60,
                })
            })
            .collect();
        for (&id, vals) in ids[1..].iter().zip(&per_series) {
            for (i, &v) in vals.iter().enumerate() {
                store.append(id, i as i64 * 60, v);
            }
        }
        ids.insert(ids.len() / 2, SeriesId(u64::MAX));
        let (from, to) = (a.min(b) / grid * grid, a.max(b) / grid * grid);
        let group = fanout_group(&store, &ids, from, to);
        prop_assert_eq!((group.series, group.missing), (per_series.len() + 1, 1));
        prop_assert_eq!(group_bits(&group), per_series_group(&store, &ids, from, to));
    }

    #[test]
    fn aligned_windows_partition_the_series(
        vals in proptest::collection::vec(-5000.0f64..5000.0, 1..1500),
        step_minutes in 1i64..180,
    ) {
        // Windowing is a partition: counts sum to the total and every
        // window mean stays inside the window's own min/max.
        let (store, id) = minutely_store(&vals);
        let span = vals.len() as i64 * 60;
        let step = step_minutes * 60;
        let windows = store_windows(&store, id, 0, span, step, AggOp::Mean).unwrap();
        let total: u64 = windows.iter().map(|w| w.count).sum();
        prop_assert_eq!(total, vals.len() as u64);
        for w in &windows {
            if w.count > 0 {
                let agg = raw(&store, id, w.start, w.start + step);
                prop_assert!(w.value >= agg.min - 1e-9 && w.value <= agg.max + 1e-9);
            }
        }
    }
}

/// Every field of an [`Aggregate`] as raw bits, so "bit-identical" is a
/// single equality over NaN-bearing sums too. NaNs canonicalise to one
/// pattern first: which *payload* survives `a + b` when both inputs carry
/// NaNs is left to the instruction selector (optimised builds may commute
/// the operands), so payload bits are the one thing two correct folds may
/// legitimately disagree on.
fn agg_bits(a: &Aggregate) -> (u64, u64, u64, u64) {
    let canon = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
    (a.count, canon(a.sum), canon(a.min), canon(a.max))
}

/// An empty summary a quarter of the time, else the fold of up to eight
/// values, NaN, both zeros and both infinities oversampled.
fn arb_aggregate() -> impl Strategy<Value = Aggregate> {
    let value = prop_oneof![
        4 => -5000.0f64..5000.0,
        1 => Just(f64::NAN),
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ];
    prop_oneof![
        1 => Just(Aggregate::new()),
        3 => proptest::collection::vec(value, 1..8).prop_map(|vals| {
            let mut a = Aggregate::new();
            vals.iter().for_each(|&v| a.push(v));
            a
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compacted_series_answers_bit_identically_to_pre_compaction(
        samples in proptest::collection::vec(
            (1i64..200, prop_oneof![
                8 => -5000.0f64..5000.0,
                1 => Just(f64::NAN),
                1 => Just(f64::from_bits(0x7FF8_0000_0000_0042)), // NaN with payload
                1 => Just(-0.0f64),
                1 => Just(f64::INFINITY),
            ]),
            1..2200,
        ),
        windows in proptest::collection::vec((0i64..400_000, 0i64..400_000), 1..6),
    ) {
        // Three-way bit-identity over random shapes, ragged-tail windows
        // and NaN-adjacent values: the store's columnar raw fold must equal
        // the retained row-iterator reference, and compaction must change
        // neither aggregates nor row scans in a single bit.
        let store = TsdbStore::default();
        let id = store.register(meta());
        let mut ts = 0i64;
        for &(delta, v) in &samples {
            ts += delta;
            store.append(id, ts, v);
        }
        let uncompacted = store.with_series(id, Series::clone).unwrap();
        let mut wins: Vec<(i64, i64)> =
            windows.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        wins.push((0, ts + 1)); // ragged tail: just past the last sample
        wins.push((ts / 2, i64::MAX)); // half-open into the far future
        let before: Vec<_> = wins.iter().map(|&(f, t)| agg_bits(&raw(&store, id, f, t))).collect();
        for (&(from, to), bits) in wins.iter().zip(&before) {
            prop_assert_eq!(
                bits,
                &agg_bits(&uncompacted.scan_aggregate_reference(from, to)),
                "columnar vs reference diverged on [{}, {})", from, to
            );
        }
        let rows_before = uncompacted.scan(i64::MIN, i64::MAX);
        let rewritten = store.compact_with(1024).chunks_compacted;
        if store.with_series(id, |s| s.chunks().iter().any(|c| c.zones().is_some())).unwrap() {
            prop_assert!(rewritten > 0);
        }
        for (&(from, to), bits) in wins.iter().zip(&before) {
            prop_assert_eq!(
                &agg_bits(&raw(&store, id, from, to)), bits,
                "compaction changed the answer on [{}, {})", from, to
            );
        }
        let rows_after = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
        prop_assert_eq!(rows_before.len(), rows_after.len());
        for (&(t0, v0), &(t1, v1)) in rows_before.iter().zip(&rows_after) {
            prop_assert_eq!(t0, t1);
            prop_assert_eq!(v0.to_bits(), v1.to_bits());
        }
    }

    #[test]
    fn compacted_store_matches_plain_store_for_every_op(
        vals in proptest::collection::vec(-5000.0f64..5000.0, 600..1500),
        a in 0i64..100_000,
        b in 0i64..100_000,
    ) {
        // Identical data through a compacted and an untouched store must
        // answer every operator identically — plan included — on aligned,
        // unaligned and ragged-tail windows alike.
        let plain = TsdbStore::default();
        let compacted = TsdbStore::default();
        let pid = plain.register(meta());
        let cid = compacted.register(meta());
        for (i, &v) in vals.iter().enumerate() {
            plain.append(pid, i as i64 * 60, v);
            compacted.append(cid, i as i64 * 60, v);
        }
        compacted.compact();
        let span = vals.len() as i64 * 60;
        let wins =
            [(a.min(b), a.max(b)), (0, span + 60), (31, (span - 29).max(31)), (0, span / 2 + 1)];
        for (from, to) in wins {
            for op in [AggOp::Mean, AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count, AggOp::P95] {
                let (pv, pp) = store_aggregate(&plain, pid, from, to, op).unwrap();
                let (cv, cp) = store_aggregate(&compacted, cid, from, to, op).unwrap();
                prop_assert_eq!(pp, cp, "plan diverged for {:?} on [{}, {})", op, from, to);
                prop_assert!(
                    pv.to_bits() == cv.to_bits() || (pv.is_nan() && cv.is_nan()),
                    "{:?} on [{}, {}): plain {} vs compacted {}", op, from, to, pv, cv
                );
            }
        }
    }

    #[test]
    fn zone_pruned_raw_aggregates_agree_with_brute_force(
        vals in proptest::collection::vec(-5000.0f64..5000.0, 2049..2149),
    ) {
        // Four full sealed chunks compact into one zone-mapped chunk; a
        // raw-plan window covering every zone must answer the brute-force
        // fold while decoding nothing, and a zone-straddling window must
        // decode exactly the one chunk it needs.
        let store = TsdbStore::default();
        let id = store.register(meta());
        for (i, &v) in vals.iter().enumerate() {
            store.append(id, i as i64 * 60, v);
        }
        let stats = store.compact();
        prop_assert_eq!(stats.chunks_compacted, 4);
        let sealed = &vals[..2048];
        let to = 2047 * 60 + 30; // past the last sealed sample, rollup-unaligned

        let before = store.query_stats();
        let (sum, _) = store_aggregate(&store, id, 0, to, AggOp::Sum).unwrap();
        let (count, _) = store_aggregate(&store, id, 0, to, AggOp::Count).unwrap();
        let (min, _) = store_aggregate(&store, id, 0, to, AggOp::Min).unwrap();
        let (max, _) = store_aggregate(&store, id, 0, to, AggOp::Max).unwrap();
        let d = store.query_stats().delta_since(&before);
        prop_assert_eq!(d.plans_raw, 4, "unaligned windows must plan raw");
        prop_assert_eq!(d.chunks_decoded + d.chunk_cache_hits, 0, "fully zone-covered: no decode");
        prop_assert_eq!(d.blocks_pruned, 16, "4 zones pruned by each of 4 queries");

        let brute_sum: f64 = sealed.iter().sum();
        prop_assert!((sum - brute_sum).abs() < 1e-6 * brute_sum.abs().max(1.0));
        prop_assert_eq!(count, 2048.0);
        prop_assert_eq!(min, sealed.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(max, sealed.iter().copied().fold(f64::NEG_INFINITY, f64::max));

        // Straddle the first zone: one decode, three prunes.
        let before = store.query_stats();
        let (psum, _) = store_aggregate(&store, id, 30, to, AggOp::Sum).unwrap();
        let d = store.query_stats().delta_since(&before);
        prop_assert_eq!(d.chunks_decoded + d.chunk_cache_hits, 1);
        prop_assert_eq!(d.blocks_pruned, 3);
        let brute_psum: f64 = sealed[1..].iter().sum();
        prop_assert!((psum - brute_psum).abs() < 1e-6 * brute_psum.abs().max(1.0));
    }
}

/// A flaky meter stream: mostly plausible readings, salted with spikes,
/// negatives, NaNs, a constant that induces stuck runs, and occasional
/// backwards timestamps. `(delta, value)` pairs; deltas ≤ 0 produce
/// non-monotonic samples.
fn arb_meter_stream() -> impl Strategy<Value = Vec<(i64, f64)>> {
    let delta = prop_oneof![
        5 => 1i64..180,
        1 => -120i64..=0,
    ];
    let value = prop_oneof![
        6 => 0.0f64..500.0,
        1 => 501.0f64..50_000.0,       // spike: above max_value
        1 => -1_000.0f64..-0.01,       // negative: below min_value
        1 => Just(f64::NAN),
        2 => Just(123.456),            // constant: induces stuck runs
    ];
    proptest::collection::vec((delta, value), 1..400)
}

/// Run a stream through the sanitiser, returning the store, series id and
/// the ledger of what happened to every offered sample.
#[allow(clippy::type_complexity)]
fn sanitise_stream(
    stream: &[(i64, f64)],
) -> (TsdbStore, archer2_repro::tsdb::SeriesId, Vec<(i64, f64)>, Vec<i64>) {
    let store = TsdbStore::default();
    let id = store.register(meta());
    let mut san = Sanitizer::new(SanitizeConfig::default());
    let mut kept = Vec::new();
    let mut quarantined_ts = Vec::new();
    let mut ts = 0i64;
    for &(delta, v) in stream {
        ts += delta;
        match san.ingest(&store, id, ts, v) {
            Some(SampleFate::Stored) => kept.push((ts, v)),
            Some(SampleFate::Quarantined(_)) => quarantined_ts.push(ts),
            None => unreachable!("series is registered"),
        }
    }
    // The sanitiser's own ledger must reconcile: every offer either stored
    // or quarantined, nothing lost, nothing double-counted.
    let stats = san.stats();
    assert_eq!(stats.stored, kept.len() as u64);
    assert_eq!(stats.quarantined(), quarantined_ts.len() as u64);
    assert_eq!(stats.stored + stats.quarantined(), stream.len() as u64);
    (store, id, kept, quarantined_ts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn quarantined_samples_never_reach_any_aggregate(stream in arb_meter_stream()) {
        // Quarantine-by-construction: refused samples must be invisible to
        // every read path — raw scans, the running total, and the
        // rollup-planned window aggregate — while still being counted in
        // the quality mask.
        let (store, id, kept, quarantined_ts) = sanitise_stream(&stream);

        // Raw scan returns exactly the stored samples, bit for bit.
        let scanned = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
        prop_assert_eq!(scanned.len(), kept.len());
        for (&(st, sv), &(kt, kv)) in scanned.iter().zip(&kept) {
            prop_assert_eq!(st, kt);
            prop_assert_eq!(sv.to_bits(), kv.to_bits());
        }

        // The running total and the planned full-range aggregate agree
        // with a brute-force fold over the kept samples only.
        let total = store.with_series(id, |s| *s.total_aggregate()).unwrap();
        let (planned, _) = planned(&store, id, i64::MIN / 2, i64::MAX / 2);
        prop_assert_eq!(total.count, kept.len() as u64);
        prop_assert_eq!(planned.count, kept.len() as u64);
        if !kept.is_empty() {
            let sum: f64 = kept.iter().map(|&(_, v)| v).sum();
            let min = kept.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            let max = kept.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((total.sum - sum).abs() < 1e-6 * sum.abs().max(1.0));
            prop_assert_eq!(total.min, min);
            prop_assert_eq!(total.max, max);
            prop_assert!((planned.sum - sum).abs() < 1e-6 * sum.abs().max(1.0));
            // Every stored value passed the range screen.
            prop_assert!(min >= 0.0 && max <= 500.0);
        }

        // The quality mask holds every refusal, and nothing else.
        let logged = store.with_series(id, |s| s.quarantined().to_vec()).unwrap();
        prop_assert_eq!(logged.len(), quarantined_ts.len());
        for (q, &ts) in logged.iter().zip(&quarantined_ts) {
            prop_assert_eq!(q.ts, ts);
        }
    }

    #[test]
    fn gap_aware_aggregate_agrees_with_brute_force_scan(
        stream in arb_meter_stream(),
        a in 0i64..25_000,
        b in 0i64..25_000,
    ) {
        // The gap-aware window answer must equal a brute-force scan over
        // the stored samples in the window: same moments, coverage =
        // present / ceil(span / cadence), quarantined = quality-mask hits.
        let (store, id, kept, quarantined_ts) = sanitise_stream(&stream);
        let (from, to) = (a.min(b), a.max(b));
        let g = store_gap_aggregate(&store, id, from, to).unwrap();

        let in_window: Vec<f64> = kept
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        prop_assert_eq!(g.agg.count, in_window.len() as u64);
        if !in_window.is_empty() {
            let sum: f64 = in_window.iter().sum();
            prop_assert!((g.agg.sum - sum).abs() < 1e-6 * sum.abs().max(1.0));
            prop_assert!((g.mean() - sum / in_window.len() as f64).abs() < 1e-9);
        }

        let q_in = quarantined_ts.iter().filter(|&&t| t >= from && t < to).count();
        prop_assert_eq!(g.quarantined, q_in as u64);

        if to > from {
            let expected = ((to - from) as u64).div_ceil(60);
            prop_assert_eq!(g.expected, expected);
            let cov = (in_window.len() as f64 / expected as f64).clamp(0.0, 1.0);
            prop_assert!((g.coverage - cov).abs() < 1e-12);
        } else {
            prop_assert!((g.coverage - 1.0).abs() < 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&g.coverage));
    }

    #[test]
    fn gap_windows_partition_and_match_per_window_brute_force(
        stream in arb_meter_stream(),
        step_minutes in 1i64..120,
    ) {
        // Consecutive gap-aware windows over [0, span) partition the stored
        // samples at non-negative timestamps, and each window agrees with
        // a brute-force scan of the stored samples in its own range.
        let (store, id, kept, quarantined_ts) = sanitise_stream(&stream);
        let span = kept.iter().map(|&(t, _)| t + 1).max().unwrap_or(0).max(1);
        let step = step_minutes * 60;

        let mut total = 0u64;
        for start in (0..span).step_by(step as usize) {
            let end = (start + step).min(span);
            let g = store_gap_aggregate(&store, id, start, end).unwrap();
            total += g.agg.count;
            let in_window: Vec<f64> = kept
                .iter()
                .filter(|&&(t, _)| t >= start && t < end)
                .map(|&(_, v)| v)
                .collect();
            prop_assert_eq!(g.agg.count, in_window.len() as u64);
            prop_assert_eq!(g.expected, ((end - start) as u64).div_ceil(60));
            let q_in = quarantined_ts.iter().filter(|&&t| t >= start && t < end).count();
            prop_assert_eq!(g.quarantined, q_in as u64);
            if !in_window.is_empty() {
                let mean = in_window.iter().sum::<f64>() / in_window.len() as f64;
                prop_assert!((g.mean() - mean).abs() < 1e-9);
            }
        }
        let stored_nonneg = kept.iter().filter(|&&(t, _)| t >= 0).count() as u64;
        prop_assert_eq!(total, stored_nonneg);
    }
}
