//! # hpc-tsdb
//!
//! An embedded, compressed, sharded time-series store sized for facility
//! telemetry at per-node scale (thousands of series, months of samples).
//!
//! Layered bottom-up:
//!
//! - [`bitstream`] — MSB-first bit reader/writer over [`bytes`] buffers;
//! - [`chunk`] — Gorilla-style codec: delta-of-delta timestamps and
//!   XOR-encoded values, lossless for every `f64` bit pattern; decoding
//!   yields columnar blocks ([`ColumnBlock`]) and compacted chunks carry
//!   block-level zone maps ([`Zone`]);
//! - [`rollup`] — mergeable aggregates and the raw → 1-min → 1-h
//!   downsampling cascade (count/sum/min/max, so means re-aggregate
//!   exactly as `sum / count`);
//! - [`series`] — one series: sealed chunks + active chunk + rollups;
//! - [`store`] — the sharded store (series hashed across shard locks),
//!   its one write path ([`TsdbStore::try_append_batch`] for one series'
//!   batch, refused whole on bad input; [`TsdbStore::append_tick`] for one
//!   tick across many series, one lock per shard), and the on-demand
//!   compaction pass ([`TsdbStore::compact`]) that rewrites runs of small
//!   sealed chunks into large zone-mapped ones;
//! - [`cache`] — bounded LRU cache of decoded columnar blocks, keyed by
//!   chunk uid and shared by all store-level queries (sealed chunks are
//!   immutable and replacement chunks get fresh uids, so entries never
//!   need invalidation);
//! - [`query`] — the store-level read path ([`store_aggregate`],
//!   [`store_windows`], and [`fanout_group`], which folds many series in
//!   input order on the calling thread): rollup-aware planning and a
//!   snapshot under the published view or a short shard read lock, then
//!   zone-map-pruned decode outside any lock through the chunk cache, with
//!   every call counted in per-store [`QueryStats`]; plus scan-cost
//!   estimation ([`estimate_scan`]);
//! - [`persist`] — the versioned, checksummed snapshot format
//!   ([`TsdbStore::snapshot_to`] / [`TsdbStore::open_snapshot`]): series
//!   metadata, sealed chunks verbatim and active tails — each sample once,
//!   with the totals and rollups rebuilt on load — framed in CRC-guarded
//!   blocks with a footer so truncation and bit rot are detected, never
//!   mis-read;
//! - [`wal`] — the write-ahead log (writers log each batch before they
//!   apply it) and the [`recover`] entry point (newest valid snapshot +
//!   WAL replay, torn tail records skipped and counted);
//! - [`faults`] — deterministic fault injection (truncation, bit flips,
//!   mid-write crashes) backing the crash-recovery test suite;
//! - [`quality`] — the ingest sanitisation stage ([`Sanitizer`]) that
//!   quarantines implausible samples into a per-series quality mask
//!   instead of storing them, and the gap-aware [`store_gap_aggregate`],
//!   which aggregates over present samples through the same read path and
//!   reports a coverage fraction against the series' cadence hint.
//!
//! ## Durability in one example
//!
//! Snapshot a store, "lose" the process, and recover bit-identically:
//!
//! ```
//! use hpc_tsdb::{recover, SeriesMeta, StoreConfig, TsdbStore};
//!
//! let store = TsdbStore::default();
//! let id = store.register(SeriesMeta {
//!     name: "node.0".into(), unit: "kW".into(), interval_hint: 60,
//! });
//! for i in 0..600i64 {
//!     store.append(id, i * 60, 0.4 + (i % 9) as f64 * 0.01);
//! }
//! let snap = std::env::temp_dir().join(format!("doc-lib-{}.tsnap", std::process::id()));
//! store.snapshot_to_path(&snap).unwrap();
//!
//! let (recovered, report) = recover(Some(&snap), None, StoreConfig::default()).unwrap();
//! assert_eq!(report.snapshot_samples, 600);
//! let rid = recovered.lookup("node.0").unwrap();
//! assert_eq!(
//!     recovered.with_series(rid, |s| s.scan(i64::MIN, i64::MAX)),
//!     store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)),
//! );
//! std::fs::remove_file(&snap).unwrap();
//! ```

#![warn(missing_docs)]

pub mod bitstream;
pub mod cache;
pub mod chunk;
pub mod faults;
pub mod persist;
pub mod quality;
pub mod query;
pub mod rollup;
pub mod series;
pub mod store;
pub mod wal;

pub use cache::ChunkCache;
pub use chunk::{ColumnBlock, Zone};
pub use persist::{PersistError, SnapshotStats};
pub use quality::{
    store_gap_aggregate, GapAwareValue, QuarantineReason, QuarantinedSample, SampleFate,
    SanitizeConfig, SanitizeStats, Sanitizer,
};
pub use query::{
    estimate_scan, fanout_group, store_aggregate, store_windows, AggOp, GroupValue, Plan,
    QueryStats, WindowValue,
};
pub use rollup::Aggregate;
pub use series::{Series, SeriesMeta};
pub use store::{
    CompactionStats, IngestError, ReadView, SeriesId, StoreConfig, TsdbStore,
    COMPACT_TARGET_SAMPLES,
};
pub use wal::{recover, RecoveryReport, WalConfig, WalReplayStats, WalWriter};
