//! End-to-end crash-recovery fault injection for hpc-tsdb.
//!
//! The contract under test, for every injected fault — truncation, bit
//! flips, crashes mid-snapshot and mid-WAL: recovery either reproduces the
//! surviving data **bit-identically** or fails with a typed
//! [`PersistError`]. It never silently returns wrong data.
//!
//! The suite also property-tests the snapshot round trip over randomly
//! generated store shapes (empty stores, empty series, single samples,
//! chunk-boundary and ragged tails, sealed-rollup-aligned lengths) using
//! the deterministic [`DetRng`] so every failure is reproducible from the
//! case number alone.

use hpc_tsdb::faults::{flip_bit, partial_snapshot, truncate_file, DetRng};
use hpc_tsdb::{
    recover, store_gap_aggregate, PersistError, SeriesMeta, StoreConfig, TsdbStore, WalConfig,
    WalWriter,
};
use std::fs;
use std::path::PathBuf;

/// A unique scratch directory for one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tsdb-recovery-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Bit-level reference contents: one `(name, samples-as-bits)` per series.
type Dump = Vec<(String, Vec<(i64, u64)>)>;

/// Full bit-level dump of the named series: `(name, samples-as-bits)`.
fn dump(store: &TsdbStore, names: &[String]) -> Dump {
    names
        .iter()
        .map(|name| {
            let samples = store
                .lookup(name)
                .and_then(|id| store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)))
                .unwrap_or_default();
            let bits = samples.into_iter().map(|(ts, v)| (ts, v.to_bits())).collect();
            (name.clone(), bits)
        })
        .collect()
}

/// Bit-level derived state of one series: the total, then every minute and
/// hour bucket, sealed and open, as `(start, count, bits of sum, min,
/// max)`. The total's start is `i64::MIN`.
fn derived_bits(store: &TsdbStore, name: &str) -> Vec<(i64, u64, [u64; 3])> {
    let bits =
        |start, a: &hpc_tsdb::Aggregate| (start, a.count, [a.sum, a.min, a.max].map(f64::to_bits));
    let id = store.lookup(name).expect("series present");
    store
        .with_series(id, |s| {
            let buckets = [s.minutes(), s.hours()]
                .into_iter()
                .flat_map(|level| level.sealed().iter().chain(level.open()))
                .map(|b| bits(b.start, &b.agg));
            std::iter::once(bits(i64::MIN, s.total_aggregate())).chain(buckets).collect()
        })
        .expect("series present")
}

/// One randomly shaped store. Shapes deliberately include the degenerate
/// cases the format must carry: no samples at all, a single sample, a tail
/// that ends exactly on the chunk boundary (empty active chunk), ragged
/// multi-chunk tails, and lengths aligned to sealed rollup buckets.
fn random_store(rng: &mut DetRng) -> (TsdbStore, Vec<String>) {
    let store = TsdbStore::default();
    let n_series = rng.below(6) as usize;
    let mut names = Vec::new();
    for s in 0..n_series {
        let name = format!("series.{s}");
        let interval = [1i64, 60, 900][rng.below(3) as usize];
        let id = store.register(SeriesMeta {
            name: name.clone(),
            unit: "kW".into(),
            interval_hint: interval,
        });
        names.push(name);
        let len = match rng.below(6) {
            0 => 0,
            1 => 1,
            2 => 512,                          // exactly one sealed chunk, empty tail
            3 => 512 * 2 + rng.below(511) as usize + 1, // ragged multi-chunk tail
            4 => (60 / interval.min(60)) as usize * 60, // sealed-rollup-aligned
            _ => rng.below(700) as usize + 2,
        };
        let mut ts = rng.below(1_000_000) as i64;
        for i in 0..len {
            // Values exercise the XOR codec's corner cases: long constant
            // runs, sign flips, tiny and huge magnitudes, negative zero.
            let v = match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE,
                3 => -1e300,
                4 => 1e-300,
                5 => 42.0, // repeated often: constant-run path
                _ => (rng.next_u64() >> 12) as f64 * 1e-6 - 2e12,
            };
            store.append(id, ts, v);
            ts += 1 + (interval - 1) * (i as i64 % 2); // half on-grid, half jittered
        }
    }
    // Half the shapes go through a compaction pass, so snapshots carry
    // zone-map sections and every fault-injection sweep covers them too.
    if rng.below(2) == 0 {
        store.compact();
    }
    (store, names)
}

#[test]
fn snapshot_roundtrip_property_over_random_shapes() {
    let mut rng = DetRng::new(0x5EED_CA5E);
    for case in 0..32 {
        let (store, names) = random_store(&mut rng);
        let mut buf = Vec::new();
        let stats = store.snapshot_to(&mut buf).expect("snapshot");
        assert_eq!(stats.bytes as usize, buf.len(), "case {case}");
        let back = TsdbStore::open_snapshot(&mut buf.as_slice(), StoreConfig::default())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(dump(&store, &names), dump(&back, &names), "case {case}");
        assert_eq!(store.total_samples(), back.total_samples(), "case {case}");
        // The total and every rollup bucket are rebuilt to the bit; 1 s
        // cadences put many samples in a minute.
        for name in &names {
            assert_eq!(
                derived_bits(&store, name),
                derived_bits(&back, name),
                "case {case} series {name}"
            );
        }
    }
}

#[test]
fn compacted_stores_recover_with_zone_maps_intact() {
    let store = TsdbStore::default();
    let id = store.register(SeriesMeta {
        name: "compacted".into(),
        unit: "kW".into(),
        interval_hint: 60,
    });
    for i in 0..(512 * 5 + 100) as i64 {
        store.append(id, i * 60, (i % 97) as f64 * 0.5 - 3.0);
    }
    let stats = store.compact();
    assert!(stats.chunks_compacted > 0);

    let mut buf = Vec::new();
    store.snapshot_to(&mut buf).expect("snapshot");
    let back = TsdbStore::open_snapshot(&mut buf.as_slice(), StoreConfig::default())
        .expect("compacted snapshot opens");
    let rid = back.lookup("compacted").unwrap();
    let zones = |st: &TsdbStore, id| {
        st.with_series(id, |s| {
            s.chunks().iter().map(|c| c.zones().map(<[_]>::len).unwrap_or(0)).collect::<Vec<_>>()
        })
        .unwrap()
    };
    assert_eq!(zones(&store, id), zones(&back, rid), "zone shapes survive recovery");
    assert!(zones(&back, rid).iter().any(|&n| n > 0), "recovered store lost its zones");
    // And a zone-covered aggregate answers identically (to the bit) on
    // both sides without decoding on the recovered store either.
    let agg = |st: &TsdbStore, id| store_gap_aggregate(st, id, 0, 512 * 8 * 60).unwrap().agg;
    let (a, b) = (agg(&store, id), agg(&back, rid));
    assert_eq!(back.query_stats().chunks_decoded, 0, "zone-covered read decoded a chunk");
    assert_eq!(a.count, b.count);
    assert_eq!(a.sum.to_bits(), b.sum.to_bits());
    assert_eq!(a.min.to_bits(), b.min.to_bits());
    assert_eq!(a.max.to_bits(), b.max.to_bits());

    // Every truncation of the zone-bearing snapshot is still refused.
    for keep in (0..buf.len()).step_by(127) {
        assert!(
            TsdbStore::open_snapshot(&mut &buf[..keep], StoreConfig::default()).is_err(),
            "zone-bearing snapshot truncated to {keep}/{} opened",
            buf.len()
        );
    }
}

#[test]
fn truncated_snapshot_files_never_open() {
    let scratch = Scratch::new("truncate");
    let mut rng = DetRng::new(7);
    let (store, _) = random_store(&mut rng);
    let full = scratch.path("full.tsnap");
    store.snapshot_to_path(&full).expect("snapshot");
    let len = fs::metadata(&full).unwrap().len();

    let mut cuts: Vec<u64> = (0..len).step_by(41).collect();
    cuts.extend([0, 1, 7, 8, len.saturating_sub(1)]);
    for keep in cuts {
        if keep >= len {
            continue;
        }
        let cut = scratch.path("cut.tsnap");
        fs::copy(&full, &cut).unwrap();
        truncate_file(&cut, keep).unwrap();
        let err = TsdbStore::open_snapshot_path(&cut, StoreConfig::default())
            .err()
            .unwrap_or_else(|| panic!("opened a snapshot truncated to {keep}/{len} bytes"));
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::CorruptBlock { .. }
                    | PersistError::BadMagic
                    | PersistError::Malformed(_)
            ),
            "keep={keep}: unexpected error {err}"
        );
    }
}

#[test]
fn flipped_bits_in_a_snapshot_never_silently_corrupt() {
    let scratch = Scratch::new("bitflip");
    let mut rng = DetRng::new(11);
    let (store, names) = random_store(&mut rng);
    let full = scratch.path("full.tsnap");
    store.snapshot_to_path(&full).expect("snapshot");
    let len = fs::metadata(&full).unwrap().len();
    let reference = dump(&store, &names);

    for trial in 0..64 {
        let offset = rng.below(len);
        let bit = (rng.below(8)) as u8;
        let hurt = scratch.path("hurt.tsnap");
        fs::copy(&full, &hurt).unwrap();
        flip_bit(&hurt, offset, bit).unwrap();
        match TsdbStore::open_snapshot_path(&hurt, StoreConfig::default()) {
            // Every byte sits under the magic check or a block CRC, so a
            // single flipped bit must surface as a typed error...
            Err(_) => {}
            // ...and if a future format ever leaves slack bytes, opening
            // may succeed only with bit-identical contents.
            Ok(back) => assert_eq!(
                reference,
                dump(&back, &names),
                "trial {trial}: flip at {offset}.{bit} silently changed data"
            ),
        }
    }
}

#[test]
fn crash_mid_snapshot_write_is_never_visible() {
    let mut rng = DetRng::new(13);
    let (store, _) = random_store(&mut rng);
    let mut full = Vec::new();
    store.snapshot_to(&mut full).expect("snapshot");

    for budget in (0..full.len()).step_by(53).chain([full.len() - 1]) {
        let prefix = partial_snapshot(&store, budget);
        assert!(prefix.len() <= budget);
        assert!(
            TsdbStore::open_snapshot(&mut prefix.as_slice(), StoreConfig::default()).is_err(),
            "a {budget}-byte crash prefix of a {}-byte snapshot opened",
            full.len()
        );
    }
}

#[test]
fn crash_during_replacement_keeps_the_previous_snapshot() {
    let scratch = Scratch::new("atomic");
    let mut rng = DetRng::new(17);
    let (old, old_names) = random_store(&mut rng);
    let path = scratch.path("store.tsnap");
    old.snapshot_to_path(&path).expect("snapshot");
    let reference = dump(&old, &old_names);

    // A later, bigger snapshot crashes mid-write. snapshot_to_path writes
    // to `<path>.tmp` and renames only on success, so the crash leaves the
    // tmp file behind and the published snapshot untouched.
    let (new, _) = random_store(&mut rng);
    fs::write(path.with_extension("tmp"), partial_snapshot(&new, 100)).unwrap();
    let back = TsdbStore::open_snapshot_path(&path, StoreConfig::default())
        .expect("previous snapshot must still open");
    assert_eq!(reference, dump(&back, &old_names));
}

/// Log every registered series into `wal`, the first records a WAL needs
/// to be replayable without a snapshot.
fn log_registrations(store: &TsdbStore, wal: &mut WalWriter) {
    for (id, meta, _) in store.series_catalog() {
        wal.append_register(id, &meta).unwrap();
    }
}

/// Ingest log-then-apply through a WAL and return the WAL path plus the
/// reference dump of everything that was written.
fn wal_ingest(scratch: &Scratch, names: &[String]) -> (PathBuf, Dump) {
    let store = TsdbStore::default();
    let ids: Vec<_> = names
        .iter()
        .map(|n| {
            store.register(SeriesMeta { name: n.clone(), unit: "kW".into(), interval_hint: 60 })
        })
        .collect();
    let wal_path = scratch.path("wal.twal");
    // fsync_every=1: every record durable, so truncation points are the
    // only "crashes" left to model.
    let mut wal = WalWriter::create(&wal_path, WalConfig { fsync_every: 1 }).unwrap();
    log_registrations(&store, &mut wal);
    for batch in 0..40 {
        for (s, &id) in ids.iter().enumerate() {
            let base = batch * 300 + s as i64;
            let samples: Vec<(i64, f64)> =
                (0..5).map(|i| (base + i * 60, (batch * 7 + i) as f64 * 0.25 - 3.0)).collect();
            wal.append_batch(id, &samples).unwrap();
            store.try_append_batch(id, &samples).unwrap();
        }
    }
    wal.sync().unwrap();
    (wal_path, dump(&store, names))
}

#[test]
fn torn_wal_recovers_an_exact_prefix() {
    let scratch = Scratch::new("torn-wal");
    let names: Vec<String> = (0..3).map(|s| format!("node.{s}")).collect();
    let (wal_path, reference) = wal_ingest(&scratch, &names);
    let len = fs::metadata(&wal_path).unwrap().len();

    let mut rng = DetRng::new(19);
    let mut cuts: Vec<u64> = (0..24).map(|_| rng.below(len)).collect();
    cuts.extend([0, 7, 8, 9, len - 1, len]);
    for keep in cuts {
        let cut = scratch.path("cut.twal");
        fs::copy(&wal_path, &cut).unwrap();
        truncate_file(&cut, keep).unwrap();
        let (store, report) =
            recover(None, Some(&cut), StoreConfig::default()).expect("torn WAL still recovers");
        let stats = report.wal.expect("wal replayed");
        // A cut on a record boundary is indistinguishable from a clean
        // shutdown; any other cut must be flagged as torn.
        if keep == len {
            assert!(!stats.torn, "keep={keep}");
        }
        // Everything recovered is an exact bit-level prefix of what was
        // written — per series, because batches apply whole and in order.
        for (name, full_series) in &reference {
            let got = dump(&store, std::slice::from_ref(name)).remove(0).1;
            assert!(got.len() <= full_series.len(), "keep={keep} series {name}");
            assert_eq!(
                got,
                full_series[..got.len()],
                "keep={keep}: series {name} diverged from the written prefix"
            );
        }
    }
}

#[test]
fn flipped_bits_in_a_wal_yield_a_prefix_or_an_error() {
    let scratch = Scratch::new("wal-flip");
    let names: Vec<String> = (0..2).map(|s| format!("node.{s}")).collect();
    let (wal_path, reference) = wal_ingest(&scratch, &names);
    let len = fs::metadata(&wal_path).unwrap().len();

    let mut rng = DetRng::new(23);
    for trial in 0..64 {
        let offset = rng.below(len);
        let bit = rng.below(8) as u8;
        let hurt = scratch.path("hurt.twal");
        fs::copy(&wal_path, &hurt).unwrap();
        flip_bit(&hurt, offset, bit).unwrap();
        let Ok((store, _)) = recover(None, Some(&hurt), StoreConfig::default()) else {
            continue; // a flip inside the magic is a typed error — fine
        };
        for (name, full_series) in &reference {
            let got = dump(&store, std::slice::from_ref(name)).remove(0).1;
            assert!(
                got.len() <= full_series.len() && got == full_series[..got.len()],
                "trial {trial}: flip at {offset}.{bit} corrupted series {name}"
            );
        }
    }
}

#[test]
fn snapshot_plus_wal_crash_recovers_everything_durable() {
    let scratch = Scratch::new("combined");
    let store = TsdbStore::default();
    let meta =
        SeriesMeta { name: "facility".into(), unit: "kW".into(), interval_hint: 60 };
    let id = store.register(meta.clone());

    // Phase 1 lands log-then-apply through a WAL and is then snapshotted.
    let mut wal1 =
        WalWriter::create(&scratch.path("wal1.twal"), WalConfig { fsync_every: 1 }).unwrap();
    log_registrations(&store, &mut wal1);
    for b in 0..10i64 {
        let batch: Vec<(i64, f64)> =
            (0..6).map(|i| ((b * 6 + i) * 60, b as f64 + i as f64 * 0.1)).collect();
        wal1.append_batch(id, &batch).unwrap();
        store.try_append_batch(id, &batch).unwrap();
    }
    wal1.sync().unwrap();
    let snap_path = scratch.path("store.tsnap");
    store.snapshot_to_path(&snap_path).unwrap();
    let snapshot_len = store.with_series(id, |s| s.len()).unwrap();

    // Phase 2 lands only in a fresh WAL segment — by the time the
    // "machine dies" no second snapshot was taken.
    let wal_path = scratch.path("wal2.twal");
    let mut wal2 = WalWriter::create(&wal_path, WalConfig { fsync_every: 1 }).unwrap();
    wal2.append_register(id, &meta).unwrap();
    for b in 10..20i64 {
        let batch: Vec<(i64, f64)> =
            (0..6).map(|i| ((b * 6 + i) * 60, b as f64 + i as f64 * 0.1)).collect();
        wal2.append_batch(id, &batch).unwrap();
        store.append_batch(id, &batch); // keep the in-memory reference in step
    }
    wal2.sync().unwrap();
    drop(wal2);

    let names = vec!["facility".to_string()];
    let reference = dump(&store, &names);
    drop(store);

    // Tear the phase-2 WAL at assorted points: recovery must still hold
    // every snapshotted sample plus an exact prefix of the logged tail.
    let len = fs::metadata(&wal_path).unwrap().len();
    for keep in [8, len / 3, len / 2, len - 1, len] {
        let cut = scratch.path("cut.twal");
        fs::copy(&wal_path, &cut).unwrap();
        truncate_file(&cut, keep).unwrap();
        let (back, report) =
            recover(Some(&snap_path), Some(&cut), StoreConfig::default()).expect("recovers");
        assert_eq!(report.snapshot_samples, snapshot_len);
        let got = dump(&back, &names).remove(0).1;
        let full = &reference[0].1;
        assert!(got.len() as u64 >= snapshot_len, "keep={keep}: lost snapshotted data");
        assert_eq!(got, full[..got.len()], "keep={keep}: diverged");
        let stats = report.wal.expect("wal replayed");
        assert_eq!(stats.rejected, 0, "keep={keep}");
        if keep == len {
            assert!(!stats.torn, "keep={keep}");
        }
    }
}
