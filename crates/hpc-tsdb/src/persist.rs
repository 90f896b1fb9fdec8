//! Versioned, checksummed snapshot persistence for [`TsdbStore`].
//!
//! The byte-level specification lives in `docs/TSDB_FORMAT.md`; this module
//! is the reference implementation. The shape in one paragraph: a snapshot
//! is an 8-byte magic followed by a sequence of *blocks*, each framed as
//! `[tag u8][len u32][payload][crc32 u32]` with the CRC covering tag, length
//! and payload. The first block is a header (format version, series count),
//! then one block per series (metadata, sealed Gorilla chunks **verbatim**
//! with their zone maps when present, and the active tail as raw samples),
//! and finally a footer block whose presence proves the file was written to
//! completion. Any truncation or bit error is caught by a frame CRC or the
//! missing footer and surfaces as a typed [`PersistError`] — a snapshot is
//! accepted whole or rejected whole, never partially applied.
//!
//! A snapshot holds each sample once and nothing derived from it: the
//! series total and the rollup levels are rebuilt on load by
//! [`Series::from_parts`], through the fold ingest runs.
//!
//! ```
//! use hpc_tsdb::{SeriesMeta, StoreConfig, TsdbStore};
//!
//! let store = TsdbStore::default();
//! let id = store.register(SeriesMeta {
//!     name: "facility".into(), unit: "kW".into(), interval_hint: 60,
//! });
//! for i in 0..1000i64 {
//!     store.append(id, i * 60, 3200.0 + (i % 7) as f64);
//! }
//!
//! let path = std::env::temp_dir().join(format!("doc-snap-{}.tsnap", std::process::id()));
//! store.snapshot_to_path(&path).unwrap();
//! let reopened = TsdbStore::open_snapshot_path(&path, StoreConfig::default()).unwrap();
//!
//! // Recovery is bit-identical: every sample round-trips exactly.
//! let rid = reopened.lookup("facility").unwrap();
//! let a = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
//! let b = reopened.with_series(rid, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
//! assert_eq!(a, b);
//! std::fs::remove_file(&path).unwrap();
//! ```

use crate::chunk::{Chunk, Zone};
use crate::rollup::{Aggregate, HOUR, MINUTE};
use crate::series::{Series, SeriesMeta};
use crate::store::{SeriesId, StoreConfig, TsdbStore};
use bytes::Bytes;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic prefix of a snapshot file: `HTSDBSN` + format generation byte.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HTSDBSN\x01";
/// Current snapshot format version, written in the header block.
///
/// Version history:
/// - `1` — series metadata, series total, sealed chunks, rollups, active
///   tail;
/// - `2` — appends a zone-map section to every sealed chunk (zone count,
///   then per-zone time bounds and pre-computed [`Aggregate`]), so
///   compacted chunks recover with their pruning structure intact;
/// - `3` — drops the series total and both rollup sections, which are a
///   pure function of the samples; recovery rebuilds them.
///
/// Writers emit only this version. Version-1 and -2 snapshots remain
/// readable: their totals and rollups are skipped and rebuilt, and
/// version-1 chunks recover zone-less.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Oldest snapshot format version this reader still accepts.
pub const SNAPSHOT_MIN_VERSION: u16 = 1;

/// Block tags (see `docs/TSDB_FORMAT.md`).
const TAG_HEADER: u8 = 0x01;
const TAG_SERIES: u8 = 0x02;
const TAG_FOOTER: u8 = 0xFF;

/// Why a snapshot or WAL could not be read (or written).
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The header declares a format version this reader does not speak.
    UnsupportedVersion(u16),
    /// The file ended before a complete block (or the footer) was read.
    /// `offset` is the byte position where the read fell short.
    Truncated {
        /// Byte offset at which the file fell short.
        offset: u64,
    },
    /// A block's CRC did not match its contents — a bit error or torn
    /// write inside the block starting at `offset`.
    CorruptBlock {
        /// Byte offset of the start of the corrupt block.
        offset: u64,
    },
    /// The frames checked out but the decoded structure is inconsistent
    /// (duplicate series, footer counts that disagree, bad field widths).
    Malformed(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a tsdb snapshot/WAL (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            PersistError::Truncated { offset } => {
                write!(f, "file truncated mid-block at byte {offset}")
            }
            PersistError::CorruptBlock { offset } => {
                write!(f, "CRC mismatch in block starting at byte {offset}")
            }
            PersistError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// What a completed snapshot wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Series serialised.
    pub series: u64,
    /// Raw samples represented (sealed + active).
    pub samples: u64,
    /// Total bytes written, including framing.
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven, built at compile time.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the checksum used by every snapshot block and
/// WAL record frame.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian payload encoding helpers.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    // Stored as the raw bit pattern so NaN payloads survive.
    put_u64(buf, v.to_bits());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_aggregate(buf: &mut Vec<u8>, a: &Aggregate) {
    put_u64(buf, a.count);
    put_f64(buf, a.sum);
    put_f64(buf, a.min);
    put_f64(buf, a.max);
    put_f64(buf, a.mean);
    put_f64(buf, a.m2);
}

/// Sequential reader over one block's payload with typed take-ops; every
/// short read is a [`PersistError::Malformed`] (the frame CRC already
/// matched, so a short payload is a structural bug, not a torn write).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.buf.len() - self.pos < n {
            return Err(PersistError::Malformed(format!(
                "payload too short reading {what} ({} of {n} bytes left)",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn i64(&mut self, what: &str) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn str_(&mut self, what: &str) -> Result<String, PersistError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed(format!("{what}: invalid UTF-8")))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn read_aggregate(c: &mut Cursor<'_>) -> Result<Aggregate, PersistError> {
    Ok(Aggregate {
        count: c.u64("agg.count")?,
        sum: c.f64("agg.sum")?,
        min: c.f64("agg.min")?,
        max: c.f64("agg.max")?,
        mean: c.f64("agg.mean")?,
        m2: c.f64("agg.m2")?,
    })
}

/// Bytes of a serialised [`Aggregate`]: a `u64` count and five `f64`s.
const AGGREGATE_BYTES: usize = 48;
/// Bytes of a serialised rollup bucket: its `i64` start and its aggregate.
const BUCKET_BYTES: usize = 8 + AGGREGATE_BYTES;

/// Skip a version-1/2 rollup section after checking its shape: the level
/// itself is rebuilt from the samples.
fn skip_rollup(c: &mut Cursor<'_>, expected_resolution: i64) -> Result<(), PersistError> {
    let resolution = c.i64("rollup.resolution")?;
    if resolution != expected_resolution {
        return Err(PersistError::Malformed(format!(
            "rollup resolution {resolution} (expected {expected_resolution})"
        )));
    }
    let sealed_n = c.u32("rollup.sealed_count")? as usize;
    c.take(sealed_n.saturating_mul(BUCKET_BYTES), "rollup.sealed")?;
    match c.u8("rollup.open_flag")? {
        0 => Ok(()),
        1 => c.take(BUCKET_BYTES, "rollup.open").map(drop),
        f => Err(PersistError::Malformed(format!("rollup open flag {f}"))),
    }
}

// ---------------------------------------------------------------------------
// Block framing.
// ---------------------------------------------------------------------------

fn write_block(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<u64, PersistError> {
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    w.write_all(&frame)?;
    w.write_all(&crc.to_le_bytes())?;
    Ok(frame.len() as u64 + 4)
}

/// Read one `[tag][len][payload][crc]` block. `offset` is advanced past the
/// block; on error it still points at the block start for diagnostics.
fn read_block(r: &mut impl Read, offset: &mut u64) -> Result<(u8, Vec<u8>), PersistError> {
    let start = *offset;
    let mut head = [0u8; 5];
    read_exact_at(r, &mut head, start)?;
    let tag = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as u64;
    // Never trust `len` with an up-front allocation: a flipped bit in the
    // length field must not balloon memory. `take` stops at EOF, and a
    // short read is reported as truncation at the block start.
    let mut payload = Vec::new();
    let got = r.take(len).read_to_end(&mut payload)?;
    if (got as u64) < len {
        return Err(PersistError::Truncated { offset: start });
    }
    let mut crc_bytes = [0u8; 4];
    read_exact_at(r, &mut crc_bytes, start)?;
    let stored = u32::from_le_bytes(crc_bytes);
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.extend_from_slice(&head);
    frame.extend_from_slice(&payload);
    if crc32(&frame) != stored {
        return Err(PersistError::CorruptBlock { offset: start });
    }
    *offset = start + 5 + len + 4;
    Ok((tag, payload))
}

fn read_exact_at(r: &mut impl Read, buf: &mut [u8], block_start: u64) -> Result<(), PersistError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(PersistError::Truncated { offset: block_start })
        }
        Err(e) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------------
// Snapshot write.
// ---------------------------------------------------------------------------

fn series_payload(id: SeriesId, series: &Series) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + series.size_bytes());
    put_u64(&mut p, id.0);
    put_str(&mut p, &series.meta().name);
    put_str(&mut p, &series.meta().unit);
    put_i64(&mut p, series.meta().interval_hint);
    put_u32(&mut p, series.chunks().len() as u32);
    for chunk in series.chunks() {
        put_u32(&mut p, chunk.len());
        put_i64(&mut p, chunk.first_ts());
        put_i64(&mut p, chunk.last_ts());
        put_u64(&mut p, chunk.len_bits());
        put_u32(&mut p, chunk.data().len() as u32);
        p.extend_from_slice(chunk.data());
        put_aggregate(&mut p, chunk.aggregate());
        let zones = chunk.zones().unwrap_or(&[]);
        put_u32(&mut p, zones.len() as u32);
        for z in zones {
            put_i64(&mut p, z.first_ts);
            put_i64(&mut p, z.last_ts);
            put_aggregate(&mut p, &z.agg);
        }
    }
    let tail = series.active_tail();
    put_u32(&mut p, tail.len() as u32);
    for (ts, v) in tail {
        put_i64(&mut p, ts);
        put_f64(&mut p, v);
    }
    p
}

fn read_series_payload(payload: &[u8], version: u16) -> Result<(SeriesId, Series), PersistError> {
    let mut c = Cursor::new(payload);
    let id = SeriesId(c.u64("series.id")?);
    let name = c.str_("series.name")?;
    let unit = c.str_("series.unit")?;
    let interval_hint = c.i64("series.interval_hint")?;
    if version < 3 {
        c.take(AGGREGATE_BYTES, "series.total")?;
    }
    let n_chunks = c.u32("series.chunk_count")? as usize;
    let mut sealed = Vec::with_capacity(n_chunks.min(1 << 20));
    for _ in 0..n_chunks {
        let count = c.u32("chunk.count")?;
        let first_ts = c.i64("chunk.first_ts")?;
        let last_ts = c.i64("chunk.last_ts")?;
        let len_bits = c.u64("chunk.len_bits")?;
        let data_len = c.u32("chunk.data_len")? as usize;
        let data = c.take(data_len, "chunk.data")?;
        if (data.len() as u64) * 8 < len_bits {
            return Err(PersistError::Malformed(format!(
                "chunk of {data_len} bytes cannot hold {len_bits} bits"
            )));
        }
        let agg = read_aggregate(&mut c)?;
        let mut chunk =
            Chunk::from_parts(Bytes::from(data), len_bits, count, first_ts, last_ts, agg);
        if version >= 2 {
            let n_zones = c.u32("chunk.zone_count")? as usize;
            if n_zones > 0 {
                let mut zones = Vec::with_capacity(n_zones.min(1 << 20));
                let mut covered = 0u64;
                let mut prev_last = i64::MIN;
                for _ in 0..n_zones {
                    let z_first = c.i64("zone.first_ts")?;
                    let z_last = c.i64("zone.last_ts")?;
                    let z_agg = read_aggregate(&mut c)?;
                    if z_first > z_last || z_first < first_ts || z_last > last_ts {
                        return Err(PersistError::Malformed(format!(
                            "zone [{z_first}, {z_last}] outside chunk [{first_ts}, {last_ts}]"
                        )));
                    }
                    if z_first <= prev_last {
                        return Err(PersistError::Malformed(format!(
                            "zones overlap or regress at ts {z_first}"
                        )));
                    }
                    prev_last = z_last;
                    covered += z_agg.count;
                    zones.push(Zone { first_ts: z_first, last_ts: z_last, agg: z_agg });
                }
                if covered != u64::from(count) {
                    return Err(PersistError::Malformed(format!(
                        "zone sample counts sum to {covered}, chunk holds {count}"
                    )));
                }
                chunk = chunk.with_zones(zones);
            }
        }
        sealed.push(chunk);
    }
    if version < 3 {
        skip_rollup(&mut c, MINUTE)?;
        skip_rollup(&mut c, HOUR)?;
    }
    let tail_n = c.u32("series.tail_count")? as usize;
    let mut tail = Vec::with_capacity(tail_n.min(1 << 20));
    for _ in 0..tail_n {
        tail.push((c.i64("tail.ts")?, c.f64("tail.value")?));
    }
    if !c.done() {
        return Err(PersistError::Malformed("trailing bytes in series block".into()));
    }
    let meta = SeriesMeta { name, unit, interval_hint };
    Ok((id, Series::from_parts(meta, sealed, &tail)?))
}

impl TsdbStore {
    /// Serialise the whole store to `w` in the checksummed snapshot format
    /// (`docs/TSDB_FORMAT.md`).
    ///
    /// Each series is serialised under its shard's read lock, so the
    /// per-series image is always internally consistent; for a globally
    /// consistent point-in-time image, quiesce writers first (the campaign
    /// checkpoints between simulation runs; other writers finish their
    /// appends before the snapshot starts).
    pub fn snapshot_to(&self, w: &mut impl Write) -> Result<SnapshotStats, PersistError> {
        let entries = self.series_entries();
        let mut stats = SnapshotStats { series: entries.len() as u64, ..Default::default() };
        w.write_all(&SNAPSHOT_MAGIC)?;
        stats.bytes += SNAPSHOT_MAGIC.len() as u64;

        let mut header = Vec::with_capacity(32);
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        put_u64(&mut header, entries.len() as u64);
        put_u64(&mut header, self.next_series_id());
        stats.bytes += write_block(w, TAG_HEADER, &header)?;

        for (id, _) in &entries {
            let payload = self
                .with_series(*id, |s| {
                    stats.samples += s.len();
                    series_payload(*id, s)
                })
                .ok_or_else(|| {
                    PersistError::Malformed(format!("registered series {id:?} missing"))
                })?;
            stats.bytes += write_block(w, TAG_SERIES, &payload)?;
        }

        let mut footer = Vec::with_capacity(16);
        put_u64(&mut footer, entries.len() as u64);
        put_u64(&mut footer, stats.samples);
        stats.bytes += write_block(w, TAG_FOOTER, &footer)?;
        w.flush()?;
        Ok(stats)
    }

    /// Snapshot to `path` atomically: the image is written to a sibling
    /// temporary file, fsynced, then renamed into place — a crash mid-write
    /// never leaves a half-written file under the final name.
    pub fn snapshot_to_path(&self, path: &Path) -> Result<SnapshotStats, PersistError> {
        let tmp = path.with_extension("tmp");
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        let stats = self.snapshot_to(&mut w)?;
        let file = w.into_inner().map_err(|e| PersistError::Io(e.into_error()))?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(stats)
    }

    /// Rebuild a store from a snapshot stream. Accepts the image whole or
    /// returns a typed error — a truncated or bit-flipped snapshot is never
    /// partially applied.
    pub fn open_snapshot(r: &mut impl Read, config: StoreConfig) -> Result<Self, PersistError> {
        let mut offset = 0u64;
        let mut magic = [0u8; 8];
        read_exact_at(r, &mut magic, 0)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(PersistError::BadMagic);
        }
        offset += 8;

        let (tag, header) = read_block(r, &mut offset)?;
        if tag != TAG_HEADER {
            return Err(PersistError::Malformed(format!("first block tag {tag:#x}")));
        }
        let mut c = Cursor::new(&header);
        let version = u16::from_le_bytes(c.take(2, "header.version")?.try_into().expect("2 bytes"));
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let declared_series = c.u64("header.series_count")?;
        let next_id = c.u64("header.next_id")?;

        let store = TsdbStore::new(config);
        let mut seen_series = 0u64;
        let mut seen_samples = 0u64;
        loop {
            let (tag, payload) = read_block(r, &mut offset)?;
            match tag {
                TAG_SERIES => {
                    let (id, series) = read_series_payload(&payload, version)?;
                    seen_samples += series.len();
                    let name = series.meta().name.clone();
                    if !store.install_recovered(id, series) {
                        return Err(PersistError::Malformed(format!(
                            "duplicate series {name:?} / id {id:?}"
                        )));
                    }
                    seen_series += 1;
                }
                TAG_FOOTER => {
                    let mut c = Cursor::new(&payload);
                    let footer_series = c.u64("footer.series_count")?;
                    let footer_samples = c.u64("footer.sample_count")?;
                    if footer_series != seen_series || footer_series != declared_series {
                        return Err(PersistError::Malformed(format!(
                            "footer series count {footer_series} vs {seen_series} read / {declared_series} declared"
                        )));
                    }
                    if footer_samples != seen_samples {
                        return Err(PersistError::Malformed(format!(
                            "footer sample count {footer_samples} vs {seen_samples} read"
                        )));
                    }
                    break;
                }
                t => return Err(PersistError::Malformed(format!("unexpected block tag {t:#x}"))),
            }
        }
        // The footer must be the last thing in the stream.
        let mut one = [0u8; 1];
        if r.read(&mut one)? != 0 {
            return Err(PersistError::Malformed("trailing data after footer".into()));
        }
        store.bump_next_id(next_id);
        Ok(store)
    }

    /// [`Self::open_snapshot`] over a file path.
    pub fn open_snapshot_path(path: &Path, config: StoreConfig) -> Result<Self, PersistError> {
        let mut r = BufReader::new(File::open(path)?);
        Self::open_snapshot(&mut r, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str) -> SeriesMeta {
        SeriesMeta { name: name.into(), unit: "kW".into(), interval_hint: 60 }
    }

    /// A series' total, then every minute and hour bucket, sealed and open,
    /// as `(start, count, bits of sum, min, max, mean, m2)`; the total's
    /// start is `i64::MIN`.
    type DerivedBits = Vec<(i64, u64, [u64; 5])>;

    fn derived_bits(s: &Series) -> DerivedBits {
        let bits = |start, a: &Aggregate| {
            (start, a.count, [a.sum, a.min, a.max, a.mean, a.m2].map(f64::to_bits))
        };
        let buckets = [s.minutes(), s.hours()]
            .into_iter()
            .flat_map(|level| level.sealed().iter().chain(level.open()))
            .map(|b| bits(b.start, &b.agg));
        std::iter::once(bits(i64::MIN, s.total_aggregate())).chain(buckets).collect()
    }

    fn sample_store() -> TsdbStore {
        let store = TsdbStore::default();
        let a = store.register(meta("facility"));
        let b = store.register(meta("cabinet.0"));
        // Spans sealed chunks on `a`, leaves a ragged tail on both.
        for i in 0..1300i64 {
            store.append(a, i * 60, 3000.0 + (i % 13) as f64 * 0.5);
        }
        for i in 0..70i64 {
            store.append(b, i * 900, 120.0 + (i % 5) as f64);
        }
        store
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let store = sample_store();
        let mut buf = Vec::new();
        let stats = store.snapshot_to(&mut buf).unwrap();
        assert_eq!(stats.series, 2);
        assert_eq!(stats.samples, 1370);
        assert_eq!(stats.bytes, buf.len() as u64);

        let back = TsdbStore::open_snapshot(&mut &buf[..], StoreConfig::default()).unwrap();
        assert_eq!(back.series_count(), 2);
        assert_eq!(back.total_samples(), store.total_samples());
        for name in ["facility", "cabinet.0"] {
            let id = store.lookup(name).unwrap();
            let rid = back.lookup(name).unwrap();
            assert_eq!(id, rid, "ids survive recovery");
            let orig = store.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
            let rec = back.with_series(rid, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
            assert_eq!(orig.len(), rec.len());
            for ((t0, v0), (t1, v1)) in orig.iter().zip(&rec) {
                assert_eq!(t0, t1);
                assert_eq!(v0.to_bits(), v1.to_bits());
            }
            // The rebuilt total and rollups match the live ones to the bit.
            let live = store.with_series(id, derived_bits).unwrap();
            assert!(live.len() > 1, "{name} has rollup buckets");
            assert_eq!(live, back.with_series(rid, derived_bits).unwrap());
        }
        // New appends continue seamlessly after the recovered tail.
        let id = back.lookup("facility").unwrap();
        back.append(id, 1300 * 60, 99.0);
        // And new registrations do not collide with recovered ids.
        let fresh = back.register(meta("node.0"));
        assert!(fresh.0 >= 2, "next id resumed past recovered ids, got {fresh:?}");
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = TsdbStore::default();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let back = TsdbStore::open_snapshot(&mut &buf[..], StoreConfig::default()).unwrap();
        assert_eq!(back.series_count(), 0);
        assert_eq!(back.total_samples(), 0);
    }

    #[test]
    fn every_truncation_is_detected() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        // Every strict prefix must fail with a typed error (sampled stride
        // keeps the test fast; boundaries are covered explicitly).
        let mut cuts: Vec<usize> = (0..buf.len()).step_by(257).collect();
        cuts.extend([0, 1, 7, 8, 9, buf.len() - 1, buf.len() - 4, buf.len() - 5]);
        for cut in cuts {
            let res = TsdbStore::open_snapshot(&mut &buf[..cut], StoreConfig::default());
            assert!(res.is_err(), "truncation at {cut}/{} accepted", buf.len());
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        for byte in (0..buf.len()).step_by(101) {
            for bit in [0u8, 5] {
                let mut evil = buf.clone();
                evil[byte] ^= 1 << bit;
                let res = TsdbStore::open_snapshot(&mut &evil[..], StoreConfig::default());
                assert!(res.is_err(), "bit flip at byte {byte} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let store = TsdbStore::default();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            TsdbStore::open_snapshot(&mut &wrong_magic[..], StoreConfig::default()),
            Err(PersistError::BadMagic)
        ));
        // A future version byte must be refused, not mis-read. Rebuild the
        // header block with a bumped version and a fixed-up CRC.
        let mut future = buf.clone();
        future[8 + 5] = SNAPSHOT_VERSION as u8 + 1; // payload starts after magic + tag + len
        let len = u32::from_le_bytes(future[9..13].try_into().unwrap()) as usize;
        let crc = crc32(&future[8..8 + 5 + len]);
        future[8 + 5 + len..8 + 5 + len + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            TsdbStore::open_snapshot(&mut &future[..], StoreConfig::default()),
            Err(PersistError::UnsupportedVersion(v)) if v == SNAPSHOT_VERSION + 1
        ));
        // And a pre-history version 0 likewise.
        let mut ancient = buf.clone();
        ancient[8 + 5] = 0;
        let crc = crc32(&ancient[8..8 + 5 + len]);
        ancient[8 + 5 + len..8 + 5 + len + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            TsdbStore::open_snapshot(&mut &ancient[..], StoreConfig::default()),
            Err(PersistError::UnsupportedVersion(0))
        ));
    }

    #[test]
    fn zone_maps_survive_snapshot_roundtrip() {
        let store = sample_store();
        let stats = store.compact();
        assert!(stats.chunks_compacted > 0, "sample store should compact");
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let back = TsdbStore::open_snapshot(&mut &buf[..], StoreConfig::default()).unwrap();

        let zones_and_agg = |st: &TsdbStore, id| {
            let zones: Vec<Vec<Zone>> = st
                .with_series(id, |s| {
                    s.chunks().iter().map(|c| c.zones().unwrap_or(&[]).to_vec()).collect()
                })
                .unwrap();
            (zones, crate::query::store_raw_aggregate(st, id, 0, i64::MAX).unwrap().0)
        };
        let (orig_zones, orig_agg) = zones_and_agg(&store, store.lookup("facility").unwrap());
        assert!(orig_zones.iter().any(|z| !z.is_empty()), "compaction left no zones");
        let (rec_zones, rec_agg) = zones_and_agg(&back, back.lookup("facility").unwrap());
        assert_eq!(orig_zones.len(), rec_zones.len());
        for (a, b) in orig_zones.iter().zip(&rec_zones) {
            assert_eq!(a.len(), b.len());
            for (za, zb) in a.iter().zip(b) {
                assert_eq!((za.first_ts, za.last_ts), (zb.first_ts, zb.last_ts));
                assert_eq!(za.agg.count, zb.agg.count);
                assert_eq!(za.agg.sum.to_bits(), zb.agg.sum.to_bits());
                assert_eq!(za.agg.m2.to_bits(), zb.agg.m2.to_bits());
            }
        }
        assert_eq!(orig_agg.count, rec_agg.count);
        assert_eq!(orig_agg.sum.to_bits(), rec_agg.sum.to_bits());
    }

    /// Version-1 and version-2 images of `sample_store()` after
    /// `compact()`, as the writers of those versions laid them out. They
    /// were written with the versioned writer of commit `ea51218`, the
    /// last to have one: a test added to that commit's `persist::tests`
    /// called `store.snapshot_to_versioned(&mut buf, v)` on this store for
    /// `v` in 1 and 2 and saved each `buf` as
    /// `tests/data/sample_store_compacted.v{v}.tsnap`.
    #[test]
    fn version_1_and_2_fixtures_recover_bit_identically() {
        let store = sample_store();
        store.compact();
        let facility = store.lookup("facility").unwrap();
        assert!(
            store.with_series(facility, |s| s.chunks()[0].zones().is_some()).unwrap(),
            "the fixtures' store compacts into a zoned chunk"
        );
        let fixtures: [(u16, &[u8]); 2] = [
            (1, include_bytes!("../tests/data/sample_store_compacted.v1.tsnap")),
            (2, include_bytes!("../tests/data/sample_store_compacted.v2.tsnap")),
        ];
        for (version, image) in fixtures {
            assert_eq!(u16::from_le_bytes([image[13], image[14]]), version);
            let back = TsdbStore::open_snapshot(&mut &image[..], StoreConfig::default())
                .unwrap_or_else(|e| panic!("v{version}: {e}"));
            assert_eq!(back.series_count(), 2);
            for name in ["facility", "cabinet.0"] {
                let (id, rid) = (store.lookup(name).unwrap(), back.lookup(name).unwrap());
                let samples = |st: &TsdbStore, id| {
                    let rows = st.with_series(id, |s| s.scan(i64::MIN, i64::MAX)).unwrap();
                    rows.into_iter().map(|(t, v)| (t, v.to_bits())).collect::<Vec<_>>()
                };
                assert_eq!(samples(&store, id), samples(&back, rid), "v{version} {name}");
                assert_eq!(
                    store.with_series(id, derived_bits).unwrap(),
                    back.with_series(rid, derived_bits).unwrap(),
                    "v{version} {name}"
                );
                let zones = |st: &TsdbStore, id| {
                    st.with_series(id, |s| {
                        s.chunks().iter().map(|c| c.zones().map(<[Zone]>::to_vec)).collect::<Vec<_>>()
                    })
                    .unwrap()
                };
                if version == 1 {
                    assert!(zones(&back, rid).iter().all(Option::is_none), "v1 carries no zones");
                } else {
                    assert_eq!(zones(&back, rid), zones(&store, id), "v2 {name}");
                }
            }
        }
    }

    fn u32_at(b: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
    }

    /// Where the "facility" series of a `sample_store()` snapshot lies:
    /// its block, the end of the block's payload (where the CRC starts),
    /// and its two sealed-chunk records, `first..second` and `second..end`.
    struct FacilityLayout {
        block: usize,
        payload_end: usize,
        first: usize,
        second: usize,
        end: usize,
    }

    impl FacilityLayout {
        fn of(buf: &[u8]) -> Self {
            // The first series block after the header is "facility", id 0.
            let block = 8 + 5 + u32_at(buf, 9) as usize + 4;
            let payload_end = block + 5 + u32_at(buf, block + 1) as usize;
            let mut at = block + 5 + 8; // past the id
            at += 4 + u32_at(buf, at) as usize; // name
            at += 4 + u32_at(buf, at) as usize; // unit
            at += 8; // interval_hint
            assert_eq!(u32_at(buf, at), 2, "facility holds two sealed chunks");
            // A chunk record: count, first_ts, last_ts, len_bits, data_len
            // (32 bytes), the data, the chunk aggregate and a zero zone
            // count.
            let chunk_end = |at: usize| at + 32 + u32_at(buf, at + 28) as usize + 48 + 4;
            let first = at + 4;
            let second = chunk_end(first);
            FacilityLayout { block, payload_end, first, second, end: chunk_end(second) }
        }

        /// Open `evil` with the facility block's CRC recomputed, so every
        /// frame checks out and only the decoded structure can refuse it.
        fn open_resealed(&self, mut evil: Vec<u8>) -> Option<PersistError> {
            let crc = crc32(&evil[self.block..self.payload_end]);
            evil[self.payload_end..self.payload_end + 4].copy_from_slice(&crc.to_le_bytes());
            TsdbStore::open_snapshot(&mut &evil[..], StoreConfig::default()).err()
        }
    }

    #[test]
    fn swapped_or_mislabelled_chunks_are_malformed() {
        // Every frame checks out, but the chunks break what the rollup
        // rebuild assumes, which it must refuse, not panic on.
        let store = sample_store();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let l = FacilityLayout::of(&buf);
        let (first, second, end) = (l.first, l.second, l.end);
        // The samples run backwards across the chunk boundary.
        let mut swapped = buf.clone();
        swapped[first..end].copy_from_slice(&[&buf[second..end], &buf[first..second]].concat());
        let err = l.open_resealed(swapped);
        assert!(matches!(err, Some(PersistError::Malformed(_))), "{err:?}");
        // The first chunk's header claims a last timestamp its data lacks.
        let mut mislabelled = buf.clone();
        mislabelled[first + 12] ^= 1;
        let err = l.open_resealed(mislabelled);
        assert!(matches!(err, Some(PersistError::Malformed(_))), "{err:?}");
    }

    #[test]
    fn undecodable_chunk_data_is_malformed_not_a_panic() {
        // Recovery decodes every sealed chunk. A CRC-valid image whose
        // chunk data is not a stream the encoder wrote must be refused
        // with a typed error, not crash the process opening it.
        let store = sample_store();
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).unwrap();
        let l = FacilityLayout::of(&buf);
        let malformed = |err: Option<PersistError>| match err {
            Some(PersistError::Malformed(msg)) => assert!(msg.contains("chunk data"), "{msg}"),
            other => panic!("expected a malformed chunk, got {other:?}"),
        };
        // The first chunk claims one sample more than its stream holds.
        let mut overcounted = buf.clone();
        let count = u32_at(&buf, l.first);
        overcounted[l.first..l.first + 4].copy_from_slice(&(count + 1).to_le_bytes());
        malformed(l.open_resealed(overcounted));
        // The first chunk's data bytes are overwritten: all-ones bits read
        // as a 64-bit timestamp delta that overflows `i64`.
        let data = l.first + 32..l.first + 32 + u32_at(&buf, l.first + 28) as usize;
        let mut garbage = buf.clone();
        garbage[data].fill(0xFF);
        malformed(l.open_resealed(garbage));
    }

    #[test]
    fn snapshot_to_path_is_atomic_and_reopens() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tsdb-snap-test-{}.tsnap", std::process::id()));
        let store = sample_store();
        let stats = store.snapshot_to_path(&path).unwrap();
        assert!(stats.bytes > 0);
        assert!(!path.with_extension("tmp").exists(), "temp file left behind");
        let back = TsdbStore::open_snapshot_path(&path, StoreConfig::default()).unwrap();
        assert_eq!(back.total_samples(), store.total_samples());
        std::fs::remove_file(&path).unwrap();
    }
}
