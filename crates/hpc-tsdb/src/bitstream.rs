//! MSB-first bit-level reader/writer over [`bytes`] buffers.
//!
//! The Gorilla-style codec in [`crate::chunk`] appends variable-width
//! fields; this module is the only place that touches individual bits, so
//! the codec itself stays written in terms of `(value, width)` pairs.

use bytes::{BufMut, Bytes, BytesMut};

/// Append-only bit writer; bits fill each byte from the most-significant
/// end so the byte stream is readable in write order.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: BytesMut,
    /// Partially filled last byte (always left-aligned).
    current: u8,
    /// Number of valid bits in `current` (0..8).
    filled: u8,
    /// Total bits written.
    len_bits: u64,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with byte capacity pre-reserved.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter { buf: BytesMut::with_capacity(bytes), ..Self::default() }
    }

    /// Total bits written so far.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Append a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.current |= u8::from(bit) << (7 - self.filled);
        self.filled += 1;
        self.len_bits += 1;
        if self.filled == 8 {
            self.buf.put_u8(self.current);
            self.current = 0;
            self.filled = 0;
        }
    }

    /// Append the low `width` bits of `value`, most-significant first.
    ///
    /// # Panics
    /// Panics if `width > 64`.
    pub fn push_bits(&mut self, value: u64, width: u8) {
        assert!(width <= 64, "width {width} > 64");
        for i in (0..width).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Copy of the bytes written so far (including the partial last byte,
    /// zero-padded) plus the exact bit length. Used to decode a chunk that
    /// is still accepting appends.
    pub fn snapshot(&self) -> (Vec<u8>, u64) {
        let mut bytes = self.buf.to_vec();
        if self.filled > 0 {
            bytes.push(self.current);
        }
        (bytes, self.len_bits)
    }

    /// Finish, zero-padding the final partial byte, and freeze the buffer.
    /// Returns the bytes and the exact bit length (so readers know where
    /// the padding starts).
    pub fn finish(mut self) -> (Bytes, u64) {
        if self.filled > 0 {
            self.buf.put_u8(self.current);
        }
        (self.buf.freeze(), self.len_bits)
    }
}

/// Sequential reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next bit to read.
    pos: u64,
    /// One past the last valid bit.
    end: u64,
}

impl<'a> BitReader<'a> {
    /// Read `len_bits` bits from `data`.
    ///
    /// # Panics
    /// Panics if `data` is shorter than `len_bits` requires.
    pub fn new(data: &'a [u8], len_bits: u64) -> Self {
        assert!(
            (data.len() as u64) * 8 >= len_bits,
            "buffer of {} bytes cannot hold {len_bits} bits",
            data.len()
        );
        BitReader { data, pos: 0, end: len_bits }
    }

    /// Bits left to read.
    pub fn remaining_bits(&self) -> u64 {
        self.end - self.pos
    }

    /// Read one bit; `None` once the stream is exhausted (reading past the
    /// end means the stream is not one the writer produced).
    pub fn read_bit(&mut self) -> Option<bool> {
        (self.pos < self.end).then(|| self.take_bit())
    }

    /// Read `width` bits as the low bits of a `u64`; `None`, consuming
    /// nothing, when fewer than `width` bits remain.
    ///
    /// # Panics
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u8) -> Option<u64> {
        assert!(width <= 64, "width {width} > 64");
        if self.remaining_bits() < u64::from(width) {
            return None;
        }
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | u64::from(self.take_bit());
        }
        Some(v)
    }

    /// The bit at `pos`, which the caller has checked is before `end`.
    fn take_bit(&mut self) -> bool {
        let byte = self.data[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
        self.pos += 1;
        bit
    }
}

/// Zig-zag encode a signed delta so small magnitudes use few bits.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bits(0b1011, 4);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0, 7);
        w.push_bits(0x5A5A, 16);
        let (bytes, len) = w.finish();
        assert_eq!(len, 1 + 4 + 64 + 7 + 16);

        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(7), Some(0));
        assert_eq!(r.read_bits(16), Some(0x5A5A));
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, 1, -1, 60, -60, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag broke {v}");
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn reading_past_end_is_none() {
        let mut w = BitWriter::new();
        w.push_bits(3, 2);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        // The padding bits of the last byte are not part of the stream.
        assert_eq!(r.read_bits(3), None);
        assert_eq!(r.remaining_bits(), 2, "a refused read consumes nothing");
        assert_eq!(r.read_bits(2), Some(3));
        assert_eq!(r.read_bit(), None);
    }
}
