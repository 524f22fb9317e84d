//! Panic-free little-endian cursor primitives: the one byte codec behind
//! the message grammar and the `bsa-store` segment format.
//!
//! `Reader` never indexes past the buffer: every access goes through
//! [`Reader::bytes`], which returns [`ProtocolError::Truncated`] instead
//! of slicing out of bounds. `Writer` appends to a caller's `Vec<u8>`
//! (taken and handed back), so a frame header, the payload and the CRC
//! trailer share one buffer. Sample vectors move as bulk little-endian
//! runs ([`Writer::f64s`], [`Reader::f64s_into`]) rather than one call
//! per value, so a stored neuro frame and the samples of a `StreamData`
//! chunk are the same bytes.

use crate::error::ProtocolError;

/// Bounds-checked little-endian reader over a byte slice: every read is
/// total, so malformed input surfaces as a typed [`ProtocolError`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let truncated = ProtocolError::Truncated {
            needed: n,
            available: self.remaining(),
        };
        let end = self.pos.checked_add(n).ok_or(truncated)?;
        match self.buf.get(self.pos..end) {
            Some(slice) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(ProtocolError::Truncated {
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        let bytes = self.bytes(1)?;
        bytes.first().copied().ok_or(ProtocolError::Truncated {
            needed: 1,
            available: 0,
        })
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ProtocolError> {
        let bytes = self.bytes(2)?;
        let arr: [u8; 2] = bytes
            .try_into()
            .map_err(|_| ProtocolError::InvalidValue { what: "u16" })?;
        Ok(u16::from_le_bytes(arr))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        let bytes = self.bytes(4)?;
        let arr: [u8; 4] = bytes
            .try_into()
            .map_err(|_| ProtocolError::InvalidValue { what: "u32" })?;
        Ok(u32::from_le_bytes(arr))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        let bytes = self.bytes(8)?;
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| ProtocolError::InvalidValue { what: "u64" })?;
        Ok(u64::from_le_bytes(arr))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `n` little-endian `f64`s in one run. Callers validate `n`
    /// against the bytes left with [`Self::count`] first; an `n` that
    /// still overruns the buffer is [`ProtocolError::Truncated`].
    pub(crate) fn f64s(&mut self, n: usize) -> Result<Vec<f64>, ProtocolError> {
        let mut out = Vec::new();
        self.f64s_into(n, &mut out)?;
        Ok(out)
    }

    /// Appends `n` little-endian `f64`s, bit-exact, to `out`. The bytes
    /// are taken before `out` grows, so an `n` that overruns the buffer
    /// is [`ProtocolError::Truncated`] and allocates nothing.
    pub fn f64s_into(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), ProtocolError> {
        let bytes = self.bytes(n.saturating_mul(8))?;
        out.extend(bytes.chunks_exact(8).map(|c| {
            let mut arr = [0u8; 8];
            arr.copy_from_slice(c);
            f64::from_le_bytes(arr)
        }));
        Ok(())
    }

    pub(crate) fn bool(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::InvalidValue { what: "bool" }),
        }
    }

    /// Length-prefixed UTF-8 string (u32 length, then bytes).
    pub fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    /// Reads a u32 element count and validates it against the bytes left
    /// in the buffer, so a corrupted count cannot trigger a huge
    /// allocation. `min_elem_bytes` is the smallest possible encoding of
    /// one element (use 1 for variable-size elements).
    pub(crate) fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(ProtocolError::InvalidValue { what });
        }
        Ok(n)
    }

    /// Errors with [`ProtocolError::TrailingBytes`] if input remains.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(ProtocolError::TrailingBytes { count }),
        }
    }
}

/// Little-endian writer appending to an owned byte buffer.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer appending to `buf` after whatever it already holds.
    #[must_use]
    pub fn new(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Hands the buffer back.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, as they are.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The values as one little-endian run of raw IEEE-754 bits (no
    /// count prefix).
    pub fn f64s(&mut self, values: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * 8, 0);
        if let Some(run) = self.buf.get_mut(start..) {
            for (dst, v) in run.chunks_exact_mut(8).zip(values) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn string(&mut self, s: &str) {
        // Strings on this protocol are probe sequences and status text;
        // a >4 GiB string is a caller bug, not a wire condition.
        debug_assert!(s.len() <= u32::MAX as usize);
        let bytes = s.as_bytes();
        let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX) as usize;
        self.u32(len as u32);
        self.buf
            .extend_from_slice(bytes.get(..len).unwrap_or(bytes));
    }

    pub(crate) fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new(Vec::new());
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.f64(-2.5);
        w.bool(true);
        w.string("ACGT");
        w.f64s(&[1.5, -0.0]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "ACGT");
        assert_eq!(r.f64s(2).unwrap(), [1.5, -0.0]);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[0x01, 0x02]);
        assert!(matches!(r.u32(), Err(ProtocolError::Truncated { .. })));
    }

    #[test]
    fn oversized_count_rejected_before_allocation() {
        let mut w = Writer::new(Vec::new());
        w.u32(u32::MAX); // claims 4 billion elements in an empty buffer
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.count(8, "samples"),
            Err(ProtocolError::InvalidValue { .. })
        ));
    }

    #[test]
    fn bulk_f64s_past_the_end_is_truncated() {
        let bytes = [0u8; 15];
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.f64s(2),
            Err(ProtocolError::Truncated {
                needed: 16,
                available: 15
            })
        ));
        assert!(matches!(
            r.f64s(usize::MAX),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = Reader::new(&[7]);
        assert!(matches!(r.bool(), Err(ProtocolError::InvalidValue { .. })));
    }

    #[test]
    fn trailing_bytes_reported() {
        let r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.finish(),
            Err(ProtocolError::TrailingBytes { count: 3 })
        ));
    }
}
