//! Telemetry at per-node scale: a simulated month of power samples for the
//! full 5,860-node ARCHER2 fleet, ingested concurrently into `hpc-tsdb`
//! by four writer threads appending straight into its sharded store, then
//! queried back — sequentially and through the parallel fan-out engine,
//! cold-cache and warm.
//!
//! Reports what the paper's measurement chapter cares about operationally:
//! how fast the store ingests, how many bytes a compressed sample costs
//! (the cabinet PDUs quantize to watts, which the XOR codec exploits), that
//! rollup-planned queries agree with raw scans, and what the fan-out layer
//! buys on multi-series readbacks. Query-phase numbers land in
//! `BENCH_tsdb_query.json`.
//!
//! ```text
//! cargo run --release --example telemetry_at_scale [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the fleet and span so CI can exercise the whole path
//! (including the benchmark JSON) in a couple of seconds.

use archer2_repro::core::campaign::{Campaign, CampaignConfig};
use archer2_repro::core::experiment;
use archer2_repro::prelude::*;
use archer2_repro::sim::rng::{Rng, Xoshiro256StarStar};
use archer2_repro::tsdb::{
    fanout_aggregate, fanout_group, fanout_workers, recover, store_aggregate, store_windows,
    AggOp, SeriesId, SeriesMeta, StoreConfig, TsdbStore, WalConfig, WalWriter,
};
use archer2_repro::workload::OperatingPoint;
use serde::{Serialize, Value};
use std::time::Instant;

mod common;
use common::write_bench;

/// Full ARCHER2 fleet (Table 1).
const NODES: u32 = 5_860;
/// Telemetry cadence: the paper's cabinet PDU readings come at minutes-level
/// cadence; 15 minutes matches the campaign telemetry.
const INTERVAL_S: i64 = 900;
const DAYS: i64 = 30;

/// One node-month of power samples, quantized to 1 W like the PDU readings.
///
/// The shape mirrors production: long busy plateaus at a job-specific draw
/// (jobs run for hours at a near-constant power), idle valleys between
/// jobs, and ±1 W measurement jitter.
fn node_month(node: u32, samples_per_node: i64) -> Vec<(i64, f64)> {
    let mut rng = Xoshiro256StarStar::seeded(0x7e1e_3e7e ^ u64::from(node));
    let mut out = Vec::with_capacity(samples_per_node as usize);
    let mut remaining = 0i64; // samples left in the current phase
    let mut level_w = 0i64;
    for i in 0..samples_per_node {
        if remaining == 0 {
            // Draw the next phase: ~92 % of time busy (>90 % utilisation).
            if rng.chance(0.92) {
                // A job's node draw: 300–850 W, held for 2–24 h.
                level_w = 300 + rng.next_below(551) as i64;
                remaining = (2 + rng.next_below(23) as i64) * 3600 / INTERVAL_S;
            } else {
                level_w = 250; // idle draw
                remaining = 1 + rng.next_below(8) as i64;
            }
        }
        remaining -= 1;
        let jitter = rng.next_below(3) as i64 - 1; // ±1 W meter noise
        out.push((i * INTERVAL_S, (level_w + jitter) as f64));
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode keeps ≥2 sealed chunks per series (15 d × 96/d = 1440
    // samples) so the chunk-cache path is still exercised.
    let (nodes, days) = if smoke { (128u32, 15i64) } else { (NODES, DAYS) };
    let samples_per_node = days * 86_400 / INTERVAL_S;
    let span = days * 86_400;

    // --- Part 1: a month of per-node telemetry into the store -----------
    println!("=== hpc-tsdb: {days} days, {nodes} nodes, {INTERVAL_S}s cadence ===");
    // Cache sized to hold every sealed chunk of the fleet so the warm pass
    // of the query benchmark measures pure cache-hit reads.
    let sealed_per_series = (samples_per_node as usize).div_ceil(512);
    let store = TsdbStore::new(StoreConfig {
        shards: 8,
        chunk_cache_capacity: (nodes as usize * sealed_per_series).next_power_of_two(),
    });
    let ids: Vec<_> = (0..nodes)
        .map(|n| {
            store.register(SeriesMeta {
                name: format!("node.{n}"),
                unit: "W".into(),
                interval_hint: INTERVAL_S,
            })
        })
        .collect();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        // Four producers, disjoint node ranges, writing across all eight
        // shards: one shard lock per node-month batch.
        for producer_ids in ids.chunks(ids.len().div_ceil(4)) {
            let store = &store;
            s.spawn(move || {
                for &id in producer_ids {
                    // Ids are dense and allocated in node order on this
                    // fresh store, so the id doubles as the node index.
                    store
                        .try_append_batch(id, &node_month(id.0 as u32, samples_per_node))
                        .expect("no batch should be rejected");
                }
            });
        }
    });
    let elapsed = t0.elapsed();

    let samples = store.total_samples();
    let bytes = store.total_bytes();
    let bytes_per_sample = bytes as f64 / samples as f64;
    let raw_bytes = samples * 16; // (i64 ts, f64 value) uncompressed
    println!("ingested:          {:.1} M samples in {:.2} s", samples as f64 / 1e6, elapsed.as_secs_f64());
    println!("ingest rate:       {:.1} M samples/s", samples as f64 / 1e6 / elapsed.as_secs_f64());
    println!("compressed size:   {:.1} MiB ({bytes_per_sample:.2} bytes/sample)", bytes as f64 / (1 << 20) as f64);
    println!("compression ratio: {:.1}x vs 16-byte raw samples", raw_bytes as f64 / bytes as f64);
    assert!(bytes_per_sample < 3.0, "expected <3 bytes/sample, got {bytes_per_sample:.2}");

    // Query back: fleet mean power and one node's daily profile.
    let fleet_mean_w = store.global_aggregate().mean();
    println!("fleet mean draw:   {:.0} W/node ({:.0} kW over compute nodes)", fleet_mean_w, fleet_mean_w * f64::from(nodes) / 1000.0);
    let t_q = Instant::now();
    let (p95, plan) = store_aggregate(&store, ids[17], 0, span, AggOp::P95).unwrap();
    println!("node.17 month p95: {p95:.0} W (plan: {plan:?}, {:.1} ms)", t_q.elapsed().as_secs_f64() * 1e3);
    let t_q = Instant::now();
    let daily = store_windows(&store, ids[17], 0, span, 86_400, AggOp::Mean).unwrap();
    println!(
        "node.17 daily means: {:.0}..{:.0} W over {} days (rollup-planned, {:.1} ms)",
        daily.iter().map(|w| w.value).fold(f64::INFINITY, f64::min),
        daily.iter().map(|w| w.value).fold(f64::NEG_INFINITY, f64::max),
        daily.len(),
        t_q.elapsed().as_secs_f64() * 1e3,
    );

    // --- Part 2: the query-phase benchmark (sequential vs fan-out) ------
    println!();
    println!("=== query benchmark: {} series × {days} days, P95 (raw-scan) ===", ids.len());
    query_benchmark(&store, &ids, span, smoke);

    // --- Part 3: the campaign records straight into the same store ------
    println!();
    println!("=== campaign with per-node telemetry (1/10-scale facility) ===");
    let facility = experiment::scaled_facility(2022, 10);
    let start = SimTime::from_ymd(2022, 6, 1);
    let cfg = CampaignConfig {
        per_cabinet_telemetry: true,
        per_node_telemetry: true,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(facility, cfg, start, OperatingPoint::AFTER_BIOS);
    let campaign_days = if smoke { 2 } else { 7 };
    let end = start + SimDuration::from_days(campaign_days);
    campaign.run_until(end);

    let cstore = campaign.telemetry_store();
    println!(
        "series recorded:   {} (facility + {} cabinets + {} nodes)",
        cstore.series_count(),
        campaign.cabinet_series_ids().len(),
        campaign.node_series_ids().len(),
    );
    println!(
        "store footprint:   {:.1} KiB for {} samples ({:.2} bytes/sample)",
        cstore.total_bytes() as f64 / 1024.0,
        cstore.total_samples(),
        cstore.total_bytes() as f64 / cstore.total_samples() as f64,
    );
    // Readbacks through the cached fan-out engine: facility mean and the
    // grouped all-cabinets reduction.
    let (week_mean, _) = campaign.facility_window_kw(start, end).unwrap();
    println!(
        "facility mean:     {:.0} kW (TimeSeries view agrees: {:.0} kW)",
        week_mean,
        campaign.power_series().mean(),
    );
    let group = campaign.cabinets_window_kw(start, end);
    println!(
        "cabinet fan-out:   {} cabinets sum to {:.0} kW (facility is noisy ±1%)",
        group.series, group.sum_of_means,
    );
    assert!((group.sum_of_means - week_mean).abs() / week_mean < 0.05);
    let qs = campaign.query_stats();
    println!(
        "campaign query stats: {} queries (plans: {} hour / {} minute / {} raw), \
         {} chunks decoded, {} cache hits, {} samples scanned, {:.2} ms",
        qs.queries,
        qs.plans_hour,
        qs.plans_minute,
        qs.plans_raw,
        qs.chunks_decoded,
        qs.chunk_cache_hits,
        qs.samples_scanned,
        qs.wall_millis(),
    );

    // --- Part 4: durability — snapshot, crash, recover ------------------
    println!();
    println!("=== persistence: snapshot + WAL, with injected crashes ===");
    persist_benchmark(&store, &ids, &campaign, smoke);
}

/// Durability phase: snapshot the fleet store and reopen it (bit-identical),
/// refuse a crash-torn snapshot, replay a torn WAL back to its valid prefix,
/// and checkpoint/resume the campaign. Emits `BENCH_tsdb_persist.json`.
fn persist_benchmark(store: &TsdbStore, ids: &[SeriesId], campaign: &Campaign, smoke: bool) {
    let dir = std::env::temp_dir().join(format!("telemetry-at-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Snapshot the whole fleet store, atomically, and time both directions.
    let snap = dir.join("fleet.tsnap");
    let t = Instant::now();
    let sstats = store.snapshot_to_path(&snap).expect("snapshot");
    let snapshot_write_ms = t.elapsed().as_secs_f64() * 1e3;
    let mib = sstats.bytes as f64 / (1 << 20) as f64;
    println!(
        "snapshot write:    {:.1} MiB ({} series, {:.1} M samples) in {snapshot_write_ms:.1} ms \
         ({:.0} MiB/s)",
        mib,
        sstats.series,
        sstats.samples as f64 / 1e6,
        mib / (snapshot_write_ms / 1e3),
    );
    // A snapshot holds each sample once and nothing derived from it.
    let snapshot_bytes_per_sample = sstats.bytes as f64 / sstats.samples as f64;
    assert!(
        snapshot_bytes_per_sample < 8.0,
        "expected a snapshot under 8 bytes/sample, got {snapshot_bytes_per_sample:.2}"
    );

    let t = Instant::now();
    let back = TsdbStore::open_snapshot_path(&snap, StoreConfig::default()).expect("reopen");
    let snapshot_read_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(back.total_samples(), store.total_samples());
    // Spot-check one series bit-for-bit; the recovery test suite does all.
    let probe = ids[ids.len() / 2];
    let back_id = back.lookup(&format!("node.{}", probe.0)).expect("series survives");
    assert_eq!(
        store.with_series(probe, |s| s.scan(i64::MIN, i64::MAX)),
        back.with_series(back_id, |s| s.scan(i64::MIN, i64::MAX)),
        "recovered series must be bit-identical"
    );
    println!(
        "snapshot reopen:   {:.1} M samples in {snapshot_read_ms:.1} ms, bit-identical",
        back.total_samples() as f64 / 1e6
    );

    // A crash mid-write must never be mistaken for a snapshot.
    let torn = archer2_repro::tsdb::faults::partial_snapshot(store, sstats.bytes as usize / 2);
    let err = TsdbStore::open_snapshot(&mut torn.as_slice(), StoreConfig::default())
        .err()
        .expect("a half-written snapshot must not open");
    println!("torn snapshot:     refused ({err})");

    // WAL: ingest log-then-apply, tear the tail, replay.
    let wstore = TsdbStore::default();
    let wid = wstore.register(SeriesMeta {
        name: "facility".into(),
        unit: "kW".into(),
        interval_hint: INTERVAL_S,
    });
    let wal_path = dir.join("ingest.twal");
    let mut wal = WalWriter::create(&wal_path, WalConfig::default()).expect("create wal");
    for (id, meta, _) in wstore.series_catalog() {
        wal.append_register(id, &meta).expect("log registration");
    }
    let wal_batches = if smoke { 200 } else { 2_000 };
    for b in 0..wal_batches as i64 {
        let batch: Vec<(i64, f64)> = (0..8)
            .map(|i| ((b * 8 + i) * INTERVAL_S, 2_000.0 + (b % 77) as f64 + i as f64 * 0.125))
            .collect();
        wal.append_batch(wid, &batch).expect("log batch");
        wstore.try_append_batch(wid, &batch).expect("apply batch");
    }
    wal.sync().expect("sync wal");
    let wal_records = wal.records();
    drop(wal);
    let written = wstore.with_series(wid, |s| s.scan(i64::MIN, i64::MAX)).unwrap();

    // The crash tears the final ~10 % of the log off mid-record.
    let full_len = std::fs::metadata(&wal_path).unwrap().len();
    archer2_repro::tsdb::faults::truncate_file(&wal_path, full_len - full_len / 10)
        .expect("tear the log");
    let t = Instant::now();
    let (recovered, report) =
        recover(None, Some(&wal_path), StoreConfig::default()).expect("recover from torn WAL");
    let wal_replay_ms = t.elapsed().as_secs_f64() * 1e3;
    let wstats = report.wal.expect("wal replayed");
    let got = recovered.lookup("facility")
        .and_then(|id| recovered.with_series(id, |s| s.scan(i64::MIN, i64::MAX)))
        .unwrap_or_default();
    assert!(got.len() <= written.len());
    assert_eq!(got[..], written[..got.len()], "replay must be an exact prefix");
    println!(
        "torn-WAL replay:   {}/{} batches applied in {wal_replay_ms:.1} ms \
         (torn tail: {} bytes discarded, {} of {} samples recovered)",
        wstats.applied, wal_records, wstats.discarded_bytes, got.len(), written.len(),
    );

    // Campaign checkpoint → resume round trip on the Part-3 campaign.
    let ckpt = dir.join("campaign");
    let t = Instant::now();
    let cstats = campaign.checkpoint(&ckpt).expect("checkpoint");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = CampaignConfig {
        per_cabinet_telemetry: true,
        per_node_telemetry: true,
        ..CampaignConfig::default()
    };
    let t = Instant::now();
    let resumed = Campaign::resume(
        experiment::scaled_facility(2022, 10),
        cfg,
        OperatingPoint::AFTER_BIOS,
        &ckpt,
    )
    .expect("resume");
    let resume_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        campaign.power_series().values(),
        resumed.power_series().values(),
        "resumed telemetry history must be identical"
    );
    println!(
        "campaign ckpt:     {} series / {} samples in {checkpoint_ms:.1} ms; \
         resumed bit-identical in {resume_ms:.1} ms (rejected samples: {})",
        cstats.series,
        cstats.samples,
        resumed.telemetry_stats().samples_rejected,
    );

    write_bench(
        "BENCH_tsdb_persist.json",
        Value::Map(vec![
            ("bench".into(), "tsdb_persist".to_string().to_value()),
            ("smoke".into(), smoke.to_value()),
            ("snapshot_series".into(), sstats.series.to_value()),
            ("snapshot_samples".into(), sstats.samples.to_value()),
            ("snapshot_bytes".into(), sstats.bytes.to_value()),
            ("snapshot_write_ms".into(), snapshot_write_ms.to_value()),
            ("snapshot_read_ms".into(), snapshot_read_ms.to_value()),
            ("wal_records".into(), wal_records.to_value()),
            ("wal_replay_ms".into(), wal_replay_ms.to_value()),
            ("wal_applied".into(), wstats.applied.to_value()),
            ("wal_discarded_bytes".into(), wstats.discarded_bytes.to_value()),
            ("wal_torn".into(), wstats.torn.to_value()),
            ("campaign_checkpoint_ms".into(), checkpoint_ms.to_value()),
            ("campaign_resume_ms".into(), resume_ms.to_value()),
            ("campaign_samples".into(), cstats.samples.to_value()),
        ]),
        &["snapshot_write_ms", "snapshot_read_ms", "snapshot_bytes", "wal_replay_ms"],
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Sequential-vs-fan-out benchmark over every node series: month-long P95
/// (always raw-scan, so the chunk cache is what's under test), cold cache
/// and warm, plus the grouped facility reduction. Emits
/// `BENCH_tsdb_query.json`.
fn query_benchmark(store: &TsdbStore, ids: &[SeriesId], span: i64, smoke: bool) {
    // The workers the fan-out will *actually* run, not the raw pool size:
    // recording the pool size here once produced `threads: 64` next to a
    // single-digit fan-out, and on a single-core host the speedup column
    // is not a measurement at all.
    let threads = fanout_workers(ids.len());
    if threads == 1 {
        eprintln!(
            "warning: fan-out comparison running single-threaded \
             ({} series, 1 worker) — speedup_cold/speedup_warm measure \
             overhead, not parallelism",
            ids.len()
        );
    }

    // Sequential baseline, cold cache.
    store.chunk_cache().clear();
    store.reset_query_stats();
    let t = Instant::now();
    let sequential: Vec<f64> = ids
        .iter()
        .map(|&id| store_aggregate(store, id, 0, span, AggOp::P95).unwrap().0)
        .collect();
    let seq_ms = t.elapsed().as_secs_f64() * 1e3;
    let seq_stats = store.query_stats();

    // Fan-out, cold cache.
    store.chunk_cache().clear();
    store.reset_query_stats();
    let t = Instant::now();
    let cold: Vec<_> = fanout_aggregate(store, ids, 0, span, AggOp::P95);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_stats = store.query_stats();

    // Fan-out again, cache warm from the cold pass.
    store.reset_query_stats();
    let t = Instant::now();
    let warm: Vec<_> = fanout_aggregate(store, ids, 0, span, AggOp::P95);
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm_stats = store.query_stats();

    // Grouped reduction (the "all cabinets → facility" shape) on the warm
    // cache.
    let t = Instant::now();
    let group = fanout_group(store, ids, 0, span);
    let group_ms = t.elapsed().as_secs_f64() * 1e3;

    // Fan-out must answer exactly what the sequential loop answered.
    for (s, f) in sequential.iter().zip(cold.iter().chain(warm.iter())) {
        let f = f.unwrap().0;
        assert!(
            (s - f).abs() <= 1e-9 * s.abs().max(1.0),
            "fan-out {f} diverged from sequential {s}"
        );
    }
    assert_eq!(group.series, ids.len());
    let speedup = seq_ms / cold_ms;
    let warm_speedup = seq_ms / warm_ms;
    println!("sequential (cold cache):  {seq_ms:>9.1} ms  ({} chunks decoded)", seq_stats.chunks_decoded);
    println!("fan-out    (cold cache):  {cold_ms:>9.1} ms  ({speedup:.1}x, {threads} threads)");
    println!(
        "fan-out    (warm cache):  {warm_ms:>9.1} ms  ({warm_speedup:.1}x, hit rate {:.0}%)",
        warm_stats.cache_hit_rate() * 100.0
    );
    println!("fan-out group reduction:  {group_ms:>9.1} ms  (sum of means {:.0} W)", group.sum_of_means);

    assert!(
        warm_stats.cache_hit_rate() > 0.5,
        "warm pass should be served from cache, hit rate {:.2}",
        warm_stats.cache_hit_rate()
    );
    // The parallel win only shows where there are cores to win with; CI
    // boxes can be single-core, so gate the hard floor on the pool size.
    if threads >= 8 {
        assert!(speedup >= 4.0, "expected ≥4x fan-out speedup on {threads} threads, got {speedup:.1}x");
    }

    // --- Columnar + zone-map phase: compact, then raw-plan aggregates ----
    //
    // The window ends at an *interior* zone boundary (plus one second, so
    // the planner cannot route it to a rollup level): the pre-columnar
    // reference kernel sees one big partially-overlapping compacted chunk
    // and must row-decode and filter all of it, while the zone-mapped path
    // merges the covered zones' pre-computed aggregates, skips the rest,
    // and never touches sample data.
    let sealed_per_series = (span / INTERVAL_S - 1) / 512;
    assert!(sealed_per_series >= 2, "need ≥2 sealed chunks per series for an interior zone cut");
    let zone_cut = ((sealed_per_series - 1) * 512 - 1) * INTERVAL_S + 1;

    let t = Instant::now();
    let cstats = store.compact();
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cstats.series, ids.len() as u64, "every node series compacts");
    println!(
        "compaction:               {compact_ms:>9.1} ms  ({} chunks -> {}, {} rewritten)",
        cstats.chunks_before, cstats.chunks_after, cstats.chunks_compacted
    );

    // "Before": the retained row-iterator kernel over the exact same
    // windows on the exact same (compacted) store, timed in this run on
    // this machine — what every query would cost without zone maps.
    let t = Instant::now();
    let reference: Vec<f64> = ids
        .iter()
        .map(|&id| store.with_series(id, |s| s.scan_aggregate_reference(0, zone_cut)).unwrap())
        .map(|agg| agg.mean())
        .collect();
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;

    // First columnar pass absorbs any one-time effects; the second is the
    // reported warm number (zone-covered queries have no decode to cache,
    // so the two should hardly differ).
    for &id in ids {
        store_aggregate(store, id, 0, zone_cut, AggOp::Mean).unwrap();
    }
    store.reset_query_stats();
    let t = Instant::now();
    let mut columnar_us: Vec<f64> = Vec::with_capacity(ids.len());
    let mut columnar = Vec::with_capacity(ids.len());
    for &id in ids {
        let tq = Instant::now();
        let (v, _plan) = store_aggregate(store, id, 0, zone_cut, AggOp::Mean).unwrap();
        columnar_us.push(tq.elapsed().as_secs_f64() * 1e6);
        columnar.push(v);
    }
    let columnar_ms = t.elapsed().as_secs_f64() * 1e3;
    let col_stats = store.query_stats();
    columnar_us.sort_by(|a, b| a.total_cmp(b));
    let warm_columnar_p95_us = columnar_us[(columnar_us.len() * 95 / 100).min(columnar_us.len() - 1)];

    for (r, c) in reference.iter().zip(&columnar) {
        assert!(
            (r - c).abs() <= 1e-9 * r.abs().max(1.0),
            "zone-served mean {c} diverged from reference {r}"
        );
    }
    assert_eq!(col_stats.plans_raw, ids.len() as u64, "zone-cut windows must plan raw");
    assert_eq!(
        col_stats.chunks_decoded + col_stats.chunk_cache_hits,
        0,
        "zone-covered aggregates must not touch sample data"
    );
    assert!(col_stats.blocks_pruned >= ids.len() as u64 * sealed_per_series as u64);
    let speedup_columnar = reference_ms / columnar_ms;
    println!("reference scan kernel:    {reference_ms:>9.1} ms  (row decode + filter)");
    println!(
        "zone-map aggregates:      {columnar_ms:>9.1} ms  ({speedup_columnar:.1}x, 0 chunks decoded, \
         {} blocks pruned, p95 {warm_columnar_p95_us:.0} us)",
        col_stats.blocks_pruned
    );
    assert!(
        speedup_columnar >= 2.0,
        "expected ≥2x zone-map speedup over the row kernel, got {speedup_columnar:.1}x"
    );

    // Benchmark record: written, then parsed back as a well-formedness check.
    let record = Value::Map(vec![
        ("bench".into(), "tsdb_query".to_string().to_value()),
        ("smoke".into(), smoke.to_value()),
        ("series".into(), (ids.len() as u64).to_value()),
        ("span_s".into(), (span as u64).to_value()),
        ("threads".into(), (threads as u64).to_value()),
        ("sequential_ms".into(), seq_ms.to_value()),
        ("fanout_cold_ms".into(), cold_ms.to_value()),
        ("fanout_warm_ms".into(), warm_ms.to_value()),
        ("group_ms".into(), group_ms.to_value()),
        ("speedup_cold".into(), speedup.to_value()),
        ("speedup_warm".into(), warm_speedup.to_value()),
        ("warm_cache_hit_rate".into(), warm_stats.cache_hit_rate().to_value()),
        ("chunks_decoded_cold".into(), cold_stats.chunks_decoded.to_value()),
        ("chunk_cache_hits_warm".into(), warm_stats.chunk_cache_hits.to_value()),
        ("samples_scanned_cold".into(), cold_stats.samples_scanned.to_value()),
        ("compact_ms".into(), compact_ms.to_value()),
        ("chunks_compacted".into(), cstats.chunks_compacted.to_value()),
        ("reference_scan_ms".into(), reference_ms.to_value()),
        ("columnar_scan_ms".into(), columnar_ms.to_value()),
        ("warm_columnar_p95_us".into(), warm_columnar_p95_us.to_value()),
        ("speedup_columnar".into(), speedup_columnar.to_value()),
        ("blocks_pruned".into(), col_stats.blocks_pruned.to_value()),
    ]);
    write_bench(
        "BENCH_tsdb_query.json",
        record,
        &[
            "sequential_ms",
            "fanout_cold_ms",
            "fanout_warm_ms",
            "warm_cache_hit_rate",
            "speedup_columnar",
            "warm_columnar_p95_us",
            "blocks_pruned",
        ],
    );
}
