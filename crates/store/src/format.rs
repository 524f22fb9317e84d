//! Byte-level segment format: header, per-frame records, index footer.
//!
//! ```text
//! HEADER
//!   magic        4 B   b"BSSG"
//!   version      u16   SEGMENT_VERSION
//!   kind         u8    0 = DNA, 1 = neuro (same mapping as the wire)
//!   flags        u8    reserved, 0
//!   chip         u32   session chip handle at record time
//!   rows         u16   frame height
//!   cols         u16   frame width
//!   config_hash  u64   FNV-1a-64 of the spec snapshot bytes
//!   spec_len     u32
//!   spec         spec_len B (UTF-8 chip-config snapshot)
//!   header_crc   u8    CRC-8 over every preceding header byte
//!
//! RECORD (× frame count, back to back)
//!   frame_index  u64   position in the segment (0, 1, 2, …)
//!   epoch        u32   acquisition epoch (stream request ordinal)
//!   payload_len  u32
//!   payload      payload_len B
//!   record_crc   u8    CRC-8 over the record's preceding bytes
//!
//! INDEX FOOTER
//!   offsets      frame_count × u64 (absolute offset of each record)
//!   frame_count  u64
//!   index_off    u64   absolute offset where offsets[] begins
//!   epochs       u32   number of acquisition epochs recorded
//!   footer_crc   u8    CRC-8 over offsets[] and the three fields above
//!   tail magic   4 B   b"BSIX"
//! ```
//!
//! Every byte of the file is guarded by exactly one of the three CRC-8
//! trailers or pinned by a structural equation (the offset table must
//! account for every byte between the records and the tail; the spec
//! length must account for every header byte before the first record), so
//! any single corrupted byte is detected before a frame is served: CRC-8
//! catches every error burst of eight bits or fewer, and the fields used
//! to locate CRC-guarded regions are cross-checked against the file size
//! first.
//!
//! All of it is written and read with `bsa-link`'s byte codec
//! ([`Writer`]/[`Reader`]) and sealed with its [`seal`]/[`crc::unseal`]
//! pair, the calls that frame wire messages. A neuro record payload is
//! the sample run of a `StreamData` chunk and a DNA record payload is
//! one `DnaCounts` reading, byte for byte.

use crate::error::StoreError;
use bsa_link::crc::{self, seal};
pub use bsa_link::fnv1a64;
use bsa_link::{ChipKind, PixelCount, ProtocolError, Reader, Writer};

/// First bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"BSSG";

/// Last bytes of every finalised segment file.
pub const FOOTER_MAGIC: &[u8; 4] = b"BSIX";

/// Segment format version this build reads and writes.
pub const SEGMENT_VERSION: u16 = 1;

/// Header length up to (not including) the spec bytes.
pub const HEADER_FIXED_LEN: usize = 4 + 2 + 1 + 1 + 4 + 2 + 2 + 8 + 4;

/// Fixed-size tail of the index footer: `frame_count`, `index_off`,
/// `epochs`, `footer_crc`, tail magic.
pub const FOOTER_TAIL_LEN: usize = 8 + 8 + 4 + 1 + 4;

/// Record bytes that are not payload: frame index, epoch, payload
/// length and the CRC trailer.
pub const RECORD_OVERHEAD: usize = 8 + 4 + 4 + 1;

/// Bytes one stored DNA reading occupies (`row`, `col`, `count`).
pub const DNA_READING_LEN: usize = PixelCount::ENCODED_LEN;

/// Bytes one frame payload of this kind/geometry must occupy: a neuro
/// frame is `rows × cols` raw IEEE-754 samples, a DNA "frame" is one
/// count reading.
#[must_use]
pub fn frame_payload_len(kind: ChipKind, rows: u16, cols: u16) -> usize {
    match kind {
        ChipKind::Neuro => usize::from(rows) * usize::from(cols) * 8,
        ChipKind::Dna => DNA_READING_LEN,
    }
}

/// Serialises a neuro frame payload: each sample as raw IEEE-754 bits,
/// little-endian, bit-exact.
#[must_use]
pub fn encode_neuro_frame(samples: &[f64]) -> Vec<u8> {
    encoded(samples.len() * 8, |w| w.f64s(samples))
}

/// Appends the samples stored in a neuro frame payload to `out`,
/// bit-exact (`f64::from_bits` of the stored words).
pub fn decode_neuro_frame(payload: &[u8], out: &mut Vec<f64>) -> Result<(), StoreError> {
    decoded(payload, |r| r.f64s_into(payload.len() / 8, out))
}

/// Serialises one DNA count reading payload.
#[must_use]
pub fn encode_dna_reading(reading: &PixelCount) -> Vec<u8> {
    encoded(DNA_READING_LEN, |w| reading.encode(w))
}

/// Decodes one DNA count reading payload.
pub fn decode_dna_reading(payload: &[u8]) -> Result<PixelCount, StoreError> {
    decoded(payload, PixelCount::decode)
}

/// The bytes `write` appends to an empty buffer of `capacity`.
fn encoded(capacity: usize, write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new(Vec::with_capacity(capacity));
    write(&mut w);
    w.into_bytes()
}

/// Runs `read` over `bytes`, which it must consume exactly.
fn decoded<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, ProtocolError>,
) -> Result<T, StoreError> {
    let mut r = Reader::new(bytes);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The bytes a region written by [`seal`] guards; a bad trailer is
/// reported as a CRC failure of `what`.
pub(crate) fn unseal<'a>(sealed: &'a [u8], what: &'static str) -> Result<&'a [u8], StoreError> {
    crc::unseal(sealed).map_err(|err| match err {
        ProtocolError::BadCrc { .. } => StoreError::BadCrc { what },
        err => err.into(),
    })
}

/// Everything the segment header records about the acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Session chip handle at record time (provenance only).
    pub chip: u32,
    /// Which array kind produced the frames.
    pub kind: ChipKind,
    /// Frame height in pixels.
    pub rows: u16,
    /// Frame width in pixels.
    pub cols: u16,
    /// FNV-1a-64 of the spec snapshot bytes.
    pub config_hash: u64,
    /// Human-readable chip-config snapshot captured at record time.
    pub spec: String,
}

impl SegmentMeta {
    /// Serialises the header, CRC trailer included.
    pub(crate) fn encode_header(&self) -> Vec<u8> {
        let mut out = encoded(HEADER_FIXED_LEN + self.spec.len() + 1, |w| {
            w.bytes(SEGMENT_MAGIC);
            w.u16(SEGMENT_VERSION);
            w.u8(self.kind.tag());
            w.u8(0); // flags, reserved
            w.u32(self.chip);
            w.u16(self.rows);
            w.u16(self.cols);
            w.u64(self.config_hash);
            w.u32(self.spec.len() as u32);
            w.bytes(self.spec.as_bytes());
        });
        seal(&mut out);
        out
    }

    /// Parses and CRC-checks a header occupying exactly `bytes`. The
    /// header region's size was already pinned by the caller; the stored
    /// spec length must account for every remaining byte.
    pub(crate) fn decode_header(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(unseal(bytes, "segment header")?);
        if r.bytes(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
            return Err(StoreError::BadMagic {
                what: "segment header",
            });
        }
        let version = r.u16()?;
        if version != SEGMENT_VERSION {
            return Err(StoreError::UnsupportedVersion { got: version });
        }
        let kind = ChipKind::from_tag(r.u8()?)?;
        let _flags = r.u8()?;
        let meta = Self {
            chip: r.u32()?,
            kind,
            rows: r.u16()?,
            cols: r.u16()?,
            config_hash: r.u64()?,
            spec: r.string()?,
        };
        r.finish()?;
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let meta = SegmentMeta {
            chip: 7,
            kind: ChipKind::Neuro,
            rows: 128,
            cols: 128,
            config_hash: fnv1a64(b"spec"),
            spec: "NeuroChipConfig { .. }".into(),
        };
        let bytes = meta.encode_header();
        assert_eq!(bytes.len(), HEADER_FIXED_LEN + meta.spec.len() + 1);
        let back = SegmentMeta::decode_header(&bytes).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn neuro_payload_roundtrips_bit_exact() {
        let samples = [0.0, -0.0, 1.5e-12, f64::MAX, -3.25];
        let payload = encode_neuro_frame(&samples);
        let mut back = Vec::new();
        decode_neuro_frame(&payload, &mut back).unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dna_payload_roundtrips() {
        let reading = PixelCount {
            row: 3,
            col: 15,
            count: 123_456_789,
        };
        let payload = encode_dna_reading(&reading);
        assert_eq!(payload.len(), DNA_READING_LEN);
        assert_eq!(decode_dna_reading(&payload).unwrap(), reading);
    }

    #[test]
    fn ragged_payloads_rejected() {
        let mut out = Vec::new();
        assert!(matches!(
            decode_neuro_frame(&[0u8; 7], &mut out),
            Err(StoreError::InvalidValue { .. })
        ));
        assert!(decode_dna_reading(&[0u8; 11]).is_err());
        assert!(decode_dna_reading(&[0u8; 13]).is_err());
    }
}
