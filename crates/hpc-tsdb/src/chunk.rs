//! Gorilla-style compressed chunks: delta-of-delta timestamps plus
//! XOR-encoded floats over a [`bytes`]-backed bit stream.
//!
//! ## Wire format (per chunk)
//!
//! The first sample is stored raw: 64-bit timestamp, 64-bit IEEE-754 value.
//! Every following sample appends two fields:
//!
//! **Timestamp** — `dod = (tₙ − tₙ₋₁) − (tₙ₋₁ − tₙ₋₂)` (the first delta is
//! encoded as its own dod with a previous delta of 0), zig-zagged and
//! prefix-coded by magnitude class:
//!
//! | prefix  | payload          | covers (zig-zag)     |
//! |---------|------------------|----------------------|
//! | `0`     | —                | dod = 0 (on cadence) |
//! | `10`    | 7 bits           | < 2⁷                 |
//! | `110`   | 10 bits          | < 2¹⁰                |
//! | `1110`  | 14 bits          | < 2¹⁴                |
//! | `1111`  | 64 bits          | anything             |
//!
//! **Value** — XOR against the previous value's bit pattern:
//!
//! | prefix | payload                                 | covers             |
//! |--------|-----------------------------------------|--------------------|
//! | `0`    | —                                       | identical bits     |
//! | `10`   | meaningful bits in the previous window  | window still fits  |
//! | `11`   | 6-bit leading, 6-bit (length−1), bits   | new window         |
//!
//! Operating on raw bit patterns makes the codec lossless for **every**
//! `f64`, including NaN payloads, ±0.0, infinities and subnormals.

use crate::bitstream::{zigzag, unzigzag, BitReader, BitWriter};
use crate::rollup::Aggregate;
use bytes::Bytes;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide chunk identity counter. Every sealed chunk gets a fresh
/// uid at construction; clones share it (they share the payload). The uid
/// is the decoded-chunk cache key, so compaction — which replaces many
/// sealed chunks with one re-encoded chunk — needs no cache invalidation
/// protocol: the new chunk has a new uid and the orphaned entries simply
/// age out of the LRU.
static NEXT_CHUNK_UID: AtomicU64 = AtomicU64::new(1);

fn fresh_uid() -> u64 {
    NEXT_CHUNK_UID.fetch_add(1, Ordering::Relaxed)
}

/// Timestamp-class payload widths, in prefix order.
const TS_CLASSES: [(u8, u64, u8); 3] = [
    // (payload width, class bound on zig-zagged dod, prefix length marker)
    (7, 1 << 7, 2),
    (10, 1 << 10, 3),
    (14, 1 << 14, 4),
];

/// An in-progress chunk accepting appends.
#[derive(Debug, Clone, Default)]
pub struct ChunkBuilder {
    bits: BitWriter,
    count: u32,
    first_ts: i64,
    last_ts: i64,
    prev_delta: i64,
    prev_value_bits: u64,
    /// Current XOR window: (leading zeros, meaningful length).
    window: Option<(u8, u8)>,
    agg: Aggregate,
}

impl ChunkBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples appended.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether no samples have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Timestamp of the last appended sample (undefined when empty).
    pub fn last_ts(&self) -> i64 {
        self.last_ts
    }

    /// Timestamp of the first appended sample (undefined when empty).
    pub fn first_ts(&self) -> i64 {
        self.first_ts
    }

    /// Running aggregate over the appended samples.
    pub fn aggregate(&self) -> &Aggregate {
        &self.agg
    }

    /// Compressed size so far in bytes (rounded up).
    pub fn size_bytes(&self) -> usize {
        self.bits.len_bits().div_ceil(8) as usize
    }

    /// Append one sample.
    ///
    /// # Panics
    /// Panics if `ts` is not strictly after the previous sample — series
    /// are append-only with strictly increasing timestamps.
    pub fn push(&mut self, ts: i64, value: f64) {
        let value_bits = value.to_bits();
        if self.count == 0 {
            self.bits.push_bits(ts as u64, 64);
            self.bits.push_bits(value_bits, 64);
            self.first_ts = ts;
            self.prev_delta = 0;
        } else {
            assert!(ts > self.last_ts, "timestamp {ts} not after {}", self.last_ts);
            let delta = ts - self.last_ts;
            let dod = delta - self.prev_delta;
            self.encode_dod(dod);
            self.encode_xor(value_bits);
            self.prev_delta = delta;
        }
        self.prev_value_bits = value_bits;
        self.last_ts = ts;
        self.count += 1;
        self.agg.push(value);
    }

    fn encode_dod(&mut self, dod: i64) {
        if dod == 0 {
            self.bits.push_bit(false);
            return;
        }
        let z = zigzag(dod);
        for (i, &(width, bound, _)) in TS_CLASSES.iter().enumerate() {
            if z < bound {
                // Prefix: i+1 ones then a zero.
                for _ in 0..=i {
                    self.bits.push_bit(true);
                }
                self.bits.push_bit(false);
                self.bits.push_bits(z, width);
                return;
            }
        }
        // Escape class: '1111' + full 64-bit zig-zag.
        self.bits.push_bits(0b1111, 4);
        self.bits.push_bits(z, 64);
    }

    fn encode_xor(&mut self, value_bits: u64) {
        let xor = value_bits ^ self.prev_value_bits;
        if xor == 0 {
            self.bits.push_bit(false);
            return;
        }
        self.bits.push_bit(true);
        let leading = (xor.leading_zeros() as u8).min(63);
        let trailing = xor.trailing_zeros() as u8;
        let fits_window = self.window.is_some_and(|(wl, wlen)| {
            leading >= wl && trailing >= 64 - wl - wlen
        });
        if fits_window {
            let (wl, wlen) = self.window.expect("window checked above");
            self.bits.push_bit(false);
            self.bits.push_bits(xor >> (64 - wl - wlen), wlen);
        } else {
            let len = 64 - leading - trailing; // 1..=64
            self.bits.push_bit(true);
            self.bits.push_bits(u64::from(leading), 6);
            self.bits.push_bits(u64::from(len - 1), 6);
            self.bits.push_bits(xor >> trailing, len);
            self.window = Some((leading, len));
        }
    }

    /// Decode the samples appended so far (exercises the same read path as
    /// sealed chunks, so the active chunk is never a special case).
    pub fn decode(&self) -> Vec<(i64, f64)> {
        let (bytes, len_bits) = self.bits.snapshot();
        decode_stream(&bytes, len_bits, self.count)
            .unwrap_or_else(|e| panic!("active chunk does not decode: {e}"))
    }

    /// Seal into an immutable [`Chunk`].
    pub fn seal(self) -> Chunk {
        let (data, len_bits) = self.bits.finish();
        Chunk {
            data,
            len_bits,
            count: self.count,
            first_ts: self.first_ts,
            last_ts: self.last_ts,
            agg: self.agg,
            uid: fresh_uid(),
            zones: None,
        }
    }
}

/// A block-level zone map entry: the time bounds and pre-computed
/// aggregate of one zone of a compacted chunk. Zones correspond exactly
/// to the original sealed chunks the compaction pass rewrote, and each
/// zone's [`Aggregate`] is carried over verbatim from its source chunk,
/// so zone-served answers are bit-identical to the pre-compaction
/// chunk-level answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    /// Timestamp of the first sample in the zone.
    pub first_ts: i64,
    /// Timestamp of the last sample in the zone.
    pub last_ts: i64,
    /// Pre-computed aggregate over every sample in the zone.
    pub agg: Aggregate,
}

impl Zone {
    /// Whether `[from, to)` overlaps this zone's time span.
    pub fn overlaps(&self, from: i64, to: i64) -> bool {
        self.first_ts < to && self.last_ts >= from
    }

    /// Whether every sample of this zone lies inside `[from, to)` — such
    /// a zone contributes its pre-computed aggregate without any decode.
    pub fn contained_in(&self, from: i64, to: i64) -> bool {
        self.first_ts >= from && self.last_ts < to
    }
}

/// A decoded chunk in columnar form: parallel flat vectors of timestamps
/// and values. Aggregation kernels run as tight loops over `values`
/// slices with time bounds found by binary search on `ts`, instead of
/// filtering `(i64, f64)` tuples sample by sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBlock {
    ts: Vec<i64>,
    values: Vec<f64>,
}

impl ColumnBlock {
    /// Build a block from parallel columns.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn new(ts: Vec<i64>, values: Vec<f64>) -> Self {
        assert_eq!(ts.len(), values.len(), "column length mismatch");
        ColumnBlock { ts, values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the block holds no samples.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The timestamp column.
    pub fn timestamps(&self) -> &[i64] {
        &self.ts
    }

    /// The value column.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Index range of the samples with timestamps in `[from, to)`, found
    /// by binary search (timestamps are strictly increasing).
    pub fn range(&self, from: i64, to: i64) -> Range<usize> {
        let lo = self.ts.partition_point(|&t| t < from);
        let hi = lo + self.ts[lo..].partition_point(|&t| t < to);
        lo..hi
    }

    /// Iterate `(timestamp, value)` pairs — the row-oriented view for
    /// callers that still need interleaved samples.
    pub fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        self.ts.iter().copied().zip(self.values.iter().copied())
    }
}

/// A sealed, immutable, compressed chunk. Clones share the underlying
/// buffer (and identity uid), so handing chunks to readers is O(1).
#[derive(Debug, Clone)]
pub struct Chunk {
    data: Bytes,
    len_bits: u64,
    count: u32,
    first_ts: i64,
    last_ts: i64,
    agg: Aggregate,
    uid: u64,
    zones: Option<Arc<Vec<Zone>>>,
}

impl Chunk {
    /// Number of samples.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether the chunk holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// First sample timestamp.
    pub fn first_ts(&self) -> i64 {
        self.first_ts
    }

    /// Last sample timestamp.
    pub fn last_ts(&self) -> i64 {
        self.last_ts
    }

    /// Pre-computed aggregate over the whole chunk.
    pub fn aggregate(&self) -> &Aggregate {
        &self.agg
    }

    /// Compressed payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw compressed payload. Together with [`Self::len_bits`] this is
    /// everything a snapshot needs to persist a sealed chunk verbatim.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Exact number of valid bits in [`Self::data`] (the final byte may be
    /// zero-padded).
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Reassemble a sealed chunk from persisted parts. The inverse of
    /// reading [`Self::data`]/[`Self::len_bits`] plus the header fields —
    /// used by snapshot recovery, which verifies a CRC over the serialised
    /// bytes before calling this and then checks the data with
    /// [`Self::try_decode`], so no structural validation happens here.
    pub fn from_parts(
        data: Bytes,
        len_bits: u64,
        count: u32,
        first_ts: i64,
        last_ts: i64,
        agg: Aggregate,
    ) -> Self {
        Chunk { data, len_bits, count, first_ts, last_ts, agg, uid: fresh_uid(), zones: None }
    }

    /// Process-unique identity of this sealed payload (shared by clones).
    /// The decoded-chunk cache keys on this, so a compaction pass that
    /// replaces chunks needs no explicit invalidation.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Attach a block-level zone map (compaction output or snapshot
    /// recovery). Zones must partition the chunk's samples in timestamp
    /// order; this is the builder's/recovery's contract, not validated
    /// here.
    pub fn with_zones(mut self, zones: Vec<Zone>) -> Self {
        self.zones = if zones.is_empty() { None } else { Some(Arc::new(zones)) };
        self
    }

    /// The chunk's zone map, if compaction attached one. `None` for
    /// ordinary sealed chunks (their whole-chunk aggregate plays the same
    /// role at chunk granularity).
    pub fn zones(&self) -> Option<&[Zone]> {
        self.zones.as_deref().map(Vec::as_slice)
    }

    /// Whether `[from, to)` overlaps this chunk's time span.
    pub fn overlaps(&self, from: i64, to: i64) -> bool {
        self.first_ts < to && self.last_ts >= from
    }

    /// Whether every sample of this chunk lies inside `[from, to)` — the
    /// whole-chunk shortcut: such a chunk contributes its pre-computed
    /// aggregate without being decoded.
    pub fn contained_in(&self, from: i64, to: i64) -> bool {
        self.first_ts >= from && self.last_ts < to
    }

    /// Decode every sample into interleaved `(timestamp, value)` rows.
    ///
    /// # Panics
    /// Panics if the data does not decode. A chunk the encoder sealed
    /// always does; one rebuilt from persisted bytes has been checked with
    /// [`Self::try_decode`] when it was loaded.
    pub fn decode(&self) -> Vec<(i64, f64)> {
        self.try_decode().unwrap_or_else(|e| panic!("sealed chunk does not decode: {e}"))
    }

    /// Decode every sample into interleaved `(timestamp, value)` rows, or
    /// say why the data is not a stream the encoder could have written.
    pub fn try_decode(&self) -> Result<Vec<(i64, f64)>, DecodeError> {
        decode_stream(&self.data, self.len_bits, self.count)
    }

    /// Decode every sample into a columnar block (flat timestamp and
    /// value vectors) — the form the query layer caches and aggregates
    /// over.
    ///
    /// # Panics
    /// Panics if the data does not decode, as [`Self::decode`] does.
    pub fn decode_columns(&self) -> ColumnBlock {
        let n = reserve_for(self.len_bits, self.count);
        let mut ts = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        decode_each(&self.data, self.len_bits, self.count, |t, v| {
            ts.push(t);
            values.push(v);
        })
        .unwrap_or_else(|e| panic!("sealed chunk does not decode: {e}"));
        ColumnBlock { ts, values }
    }
}

/// Why a chunk's bit stream did not decode. The encoder never writes such
/// a stream; these arise from persisted bytes whose frame checksum holds
/// but whose chunk data or sample count is not what the encoder wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ends before its `count` samples.
    Truncated {
        /// The sample count the chunk header claims.
        count: u32,
    },
    /// A value reuses the XOR bit window before one was set.
    WindowUnset {
        /// Index of the offending sample.
        sample: u32,
    },
    /// A new XOR window's leading zeros plus its length exceed 64 bits.
    WindowTooWide {
        /// Index of the offending sample.
        sample: u32,
        /// Leading zero bits.
        leading: u8,
        /// Meaningful bits.
        len: u8,
    },
    /// A timestamp (or the delta between two) leaves the `i64` range.
    TimestampOverflow {
        /// Index of the offending sample.
        sample: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::Truncated { count } => {
                write!(f, "bit stream ends before its {count} samples")
            }
            DecodeError::WindowUnset { sample } => {
                write!(f, "sample {sample} reuses an XOR window before one was set")
            }
            DecodeError::WindowTooWide { sample, leading, len } => write!(
                f,
                "sample {sample} sets an XOR window of {leading} leading + {len} bits"
            ),
            DecodeError::TimestampOverflow { sample } => {
                write!(f, "timestamp of sample {sample} overflows i64")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// How many samples a decode reserves room for: `count`, capped by what a
/// stream of `len_bits` can hold (128 bits for the first sample, at least
/// two for each later one), so a sample count read from persisted bytes
/// cannot reserve more memory than its data could fill.
fn reserve_for(len_bits: u64, count: u32) -> usize {
    let most = len_bits.saturating_sub(128) / 2 + 1;
    u64::from(count).min(most) as usize
}

fn decode_stream(data: &[u8], len_bits: u64, count: u32) -> Result<Vec<(i64, f64)>, DecodeError> {
    let mut out = Vec::with_capacity(reserve_for(len_bits, count));
    decode_each(data, len_bits, count, |t, v| out.push((t, v)))?;
    Ok(out)
}

/// The single Gorilla decode loop: feeds every `(timestamp, value)` pair
/// to `sink` in stream order. Row- and column-oriented decodes are thin
/// adapters over this, so there is exactly one read path to get right.
fn decode_each(
    data: &[u8],
    len_bits: u64,
    count: u32,
    mut sink: impl FnMut(i64, f64),
) -> Result<(), DecodeError> {
    if count == 0 {
        return Ok(());
    }
    let truncated = DecodeError::Truncated { count };
    let mut r = BitReader::new(data, len_bits);
    let mut ts = r.read_bits(64).ok_or(truncated)? as i64;
    let mut value_bits = r.read_bits(64).ok_or(truncated)?;
    let mut delta = 0i64;
    let mut window: Option<(u8, u8)> = None;
    sink(ts, f64::from_bits(value_bits));

    for sample in 1..count {
        // Timestamp field.
        let dod = if !r.read_bit().ok_or(truncated)? {
            0
        } else {
            let mut class = 0;
            while class < TS_CLASSES.len() && r.read_bit().ok_or(truncated)? {
                class += 1;
            }
            let width = TS_CLASSES.get(class).map_or(64, |&(width, _, _)| width);
            unzigzag(r.read_bits(width).ok_or(truncated)?)
        };
        let overflow = DecodeError::TimestampOverflow { sample };
        delta = delta.checked_add(dod).ok_or(overflow)?;
        ts = ts.checked_add(delta).ok_or(overflow)?;

        // Value field.
        if r.read_bit().ok_or(truncated)? {
            let (leading, len) = if r.read_bit().ok_or(truncated)? {
                let leading = r.read_bits(6).ok_or(truncated)? as u8;
                let len = r.read_bits(6).ok_or(truncated)? as u8 + 1;
                if leading + len > 64 {
                    return Err(DecodeError::WindowTooWide { sample, leading, len });
                }
                *window.insert((leading, len))
            } else {
                window.ok_or(DecodeError::WindowUnset { sample })?
            };
            let payload = r.read_bits(len).ok_or(truncated)?;
            value_bits ^= payload << (64 - leading - len);
        }
        sink(ts, f64::from_bits(value_bits));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(samples: &[(i64, f64)]) {
        let mut b = ChunkBuilder::new();
        for &(t, v) in samples {
            b.push(t, v);
        }
        // Active decode and sealed decode must agree bit-for-bit.
        let active = b.decode();
        let sealed = b.seal();
        let decoded = sealed.decode();
        assert_eq!(active.len(), samples.len());
        assert_eq!(decoded.len(), samples.len());
        for (i, &(t, v)) in samples.iter().enumerate() {
            for got in [&active[i], &decoded[i]] {
                assert_eq!(got.0, t, "timestamp {i}");
                assert_eq!(got.1.to_bits(), v.to_bits(), "value bits at {i}: {v}");
            }
        }
    }

    #[test]
    fn regular_cadence_smooth_values() {
        let samples: Vec<(i64, f64)> = (0..500)
            .map(|i| (1_640_995_200 + i * 60, 3220.0 + f64::from(i as i32 % 7) * 0.125))
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn irregular_cadence() {
        let gaps = [1i64, 59, 60, 61, 3600, 2, 86_400, 60, 60, 7, 123_456_789];
        let mut t = 0i64;
        let mut samples = Vec::new();
        for (i, g) in gaps.iter().enumerate() {
            t += g;
            samples.push((t, i as f64 * 0.1));
        }
        roundtrip(&samples);
    }

    #[test]
    fn pathological_bit_patterns_are_lossless() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling-ish NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),      // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        let samples: Vec<(i64, f64)> =
            specials.iter().enumerate().map(|(i, &v)| (i as i64 * 60, v)).collect();
        roundtrip(&samples);
    }

    #[test]
    fn constant_run_costs_two_bits_per_sample() {
        let mut b = ChunkBuilder::new();
        for i in 0..10_000 {
            b.push(i64::from(i) * 60, 42.5);
        }
        // 128-bit header + ~1 ts bit ('10'-class once, then '0') + 1 value
        // bit per sample.
        let bytes_per_sample = b.size_bytes() as f64 / 10_000.0;
        assert!(bytes_per_sample < 0.3, "constant run at {bytes_per_sample} B/sample");
        roundtrip(&(0..100).map(|i| (i64::from(i) * 60, 42.5)).collect::<Vec<_>>());
    }

    #[test]
    fn negative_timestamps_and_dod() {
        // Pre-epoch timestamps and shrinking deltas (negative dod).
        let samples = vec![
            (-10_000i64, 1.0),
            (-9_000, 2.0),
            (-8_500, 3.0),
            (-8_400, 4.0),
            (-8_399, 5.0),
        ];
        roundtrip(&samples);
    }

    #[test]
    fn columnar_decode_matches_row_decode_bit_for_bit() {
        let mut b = ChunkBuilder::new();
        let specials = [1.0, f64::NAN, -0.0, f64::from_bits(0x7ff8_0000_dead_beef), 5e-324];
        for i in 0..400 {
            b.push(i64::from(i) * 7 + 3, specials[i as usize % specials.len()] + f64::from(i % 5));
        }
        let c = b.seal();
        let rows = c.decode();
        let cols = c.decode_columns();
        assert_eq!(cols.len(), rows.len());
        for (i, &(t, v)) in rows.iter().enumerate() {
            assert_eq!(cols.timestamps()[i], t);
            assert_eq!(cols.values()[i].to_bits(), v.to_bits());
        }
        // Row view reconstructed from the columns agrees too.
        for ((ct, cv), &(t, v)) in cols.iter().zip(&rows) {
            assert_eq!(ct, t);
            assert_eq!(cv.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn column_block_range_binary_search() {
        let mut b = ChunkBuilder::new();
        for i in 0..100 {
            b.push(i64::from(i) * 10, f64::from(i));
        }
        let cols = b.seal().decode_columns();
        assert_eq!(cols.range(0, 1000), 0..100);
        assert_eq!(cols.range(i64::MIN, i64::MAX), 0..100);
        assert_eq!(cols.range(0, 1), 0..1); // [0, 1) holds only ts 0
        assert_eq!(cols.range(995, 2000), 100..100);
        assert_eq!(cols.range(-50, 0), 0..0); // to is exclusive
        assert_eq!(cols.range(35, 75), 4..8); // ts 40, 50, 60, 70
        assert_eq!(cols.range(40, 71), 4..8); // inclusive from, exclusive to
        let empty = ColumnBlock::default();
        assert!(empty.is_empty());
        assert_eq!(empty.range(0, 100), 0..0);
    }

    #[test]
    fn uids_are_unique_and_shared_by_clones() {
        let a = chunk_from(&[(0, 1.0), (60, 2.0)]);
        let b = chunk_from(&[(0, 1.0), (60, 2.0)]);
        assert_ne!(a.uid(), b.uid(), "identical payloads still have distinct identities");
        assert_eq!(a.uid(), a.clone().uid());
        // from_parts mints a fresh identity: recovery must not collide
        // with any live chunk.
        let rebuilt = Chunk::from_parts(
            bytes::Bytes::from(a.data().to_vec()),
            a.len_bits(),
            a.len(),
            a.first_ts(),
            a.last_ts(),
            *a.aggregate(),
        );
        assert_ne!(rebuilt.uid(), a.uid());
    }

    #[test]
    fn zones_attach_and_answer_containment() {
        let c = chunk_from(&(0..20).map(|i| (i64::from(i) * 60, 1.0)).collect::<Vec<_>>());
        assert!(c.zones().is_none());
        let mut z0 = Aggregate::default();
        let mut z1 = Aggregate::default();
        (0..10).for_each(|_| z0.push(1.0));
        (10..20).for_each(|_| z1.push(1.0));
        let zoned = c.clone().with_zones(vec![
            Zone { first_ts: 0, last_ts: 540, agg: z0 },
            Zone { first_ts: 600, last_ts: 1140, agg: z1 },
        ]);
        let zones = zoned.zones().expect("zones attached");
        assert_eq!(zones.len(), 2);
        assert!(zones[0].contained_in(0, 600));
        assert!(!zones[0].contained_in(0, 540)); // last sample at 540 excluded
        assert!(zones[1].overlaps(1140, 2000));
        assert!(!zones[1].overlaps(1141, 2000));
        // Empty zone list normalises to None.
        assert!(c.clone().with_zones(Vec::new()).zones().is_none());
    }

    /// A sealed chunk claiming `count` samples over the bits `write` emits
    /// after a first sample of `(ts0, 1.0)`.
    fn forged(ts0: i64, count: u32, write: impl FnOnce(&mut BitWriter)) -> Chunk {
        let mut w = BitWriter::new();
        w.push_bits(ts0 as u64, 64);
        w.push_bits(1.0f64.to_bits(), 64);
        write(&mut w);
        let (data, len_bits) = w.finish();
        Chunk::from_parts(data, len_bits, count, ts0, ts0, Aggregate::new())
    }

    #[test]
    fn streams_the_encoder_never_writes_are_typed_errors() {
        let samples: Vec<(i64, f64)> = (0..50).map(|i| (i64::from(i) * 60, f64::from(i))).collect();
        let good = chunk_from(&samples);
        assert_eq!(good.try_decode().map(|s| s.len()), Ok(50));
        // One sample more than the stream holds, and a count no stream of
        // this length could hold (which must not reserve room for itself).
        for count in [51, u32::MAX] {
            let over = Chunk::from_parts(
                bytes::Bytes::from(good.data().to_vec()),
                good.len_bits(),
                count,
                good.first_ts(),
                good.last_ts(),
                *good.aggregate(),
            );
            assert_eq!(over.try_decode(), Err(DecodeError::Truncated { count }));
        }
        // dod 0, then a value that reuses a window nobody set.
        let unset = forged(0, 2, |w| w.push_bits(0b010, 3));
        assert_eq!(unset.try_decode(), Err(DecodeError::WindowUnset { sample: 1 }));
        // dod 0, then a new window of 63 leading zeros and 64 bits.
        let wide = forged(0, 2, |w| {
            w.push_bits(0b011, 3);
            w.push_bits(63, 6);
            w.push_bits(63, 6);
            w.push_bits(u64::MAX, 64);
        });
        assert_eq!(
            wide.try_decode(),
            Err(DecodeError::WindowTooWide { sample: 1, leading: 63, len: 64 })
        );
        // A 64-bit dod of i64::MAX from a positive start leaves the range.
        let overflow = forged(1, 2, |w| {
            w.push_bits(0b1111, 4);
            w.push_bits(zigzag(i64::MAX), 64);
            w.push_bit(false);
        });
        assert_eq!(overflow.try_decode(), Err(DecodeError::TimestampOverflow { sample: 1 }));
    }

    fn chunk_from(samples: &[(i64, f64)]) -> Chunk {
        let mut b = ChunkBuilder::new();
        for &(t, v) in samples {
            b.push(t, v);
        }
        b.seal()
    }

    #[test]
    fn aggregate_tracks_all_samples() {
        let mut b = ChunkBuilder::new();
        for i in 0..100 {
            b.push(i64::from(i), f64::from(i));
        }
        let agg = b.aggregate();
        assert_eq!(agg.count, 100);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 99.0);
        assert!((agg.mean() - 49.5).abs() < 1e-12);
        let c = b.seal();
        assert_eq!(c.aggregate().count, 100);
        assert!(c.overlaps(99, 1_000));
        assert!(!c.overlaps(100, 1_000));
        assert!(!c.overlaps(-50, 0));
        assert!(c.overlaps(-50, 1));
    }
}
