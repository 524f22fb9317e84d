//! CRC-8 with polynomial 0x07, the single checksum shared by the chip
//! serial link (`bsa-core::dna_chip::interface`, 56-bit words), the host
//! wire protocol (frame trailer) and the `bsa-store` segment format
//! (header, record and footer trailers).
//!
//! Wire frames and segment regions are sealed the same way: [`seal`]
//! appends the CRC-8 of every preceding byte and [`unseal`] checks it, so
//! the trailer of every protocol and storage structure is one mechanism.
//! The module also holds [`fnv1a64`], the content hash of chip-config
//! snapshots and wire-ABI fingerprints.
//!
//! Parameters: polynomial x⁸+x²+x+1 (0x07), initial value 0x00, MSB-first,
//! no reflection, no final XOR — the same generator the paper's serial
//! interface uses to protect count words.
//!
//! The implementation is table-driven, slice-by-8: eight 256-entry
//! tables, built at compile time from the bitwise shift/xor step, fold
//! eight bytes per iteration. Because the CRC is linear over GF(2), the
//! state after eight bytes is the XOR of each byte's contribution pushed
//! through the zero bytes that follow it, so the result is bit-identical
//! to the bitwise definition (the unit tests check it exhaustively).
//!
//! CRC-8 detects every single-byte corruption (any burst up to 8 bits),
//! which is the property the corruption tests in `crates/link/tests/`
//! exercise exhaustively.

use crate::error::ProtocolError;

/// Generator polynomial x⁸ + x² + x + 1.
pub const CRC8_POLY: u8 = 0x07;

/// The bitwise definition: eight MSB-first shift/xor steps over one
/// state byte. Used only to build [`TABLES`] (and by the tests as the
/// oracle the tables must match).
const fn bitwise_step(mut crc: u8) -> u8 {
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 0x80 != 0 {
            (crc << 1) ^ CRC8_POLY
        } else {
            crc << 1
        };
        bit += 1;
    }
    crc
}

/// `TABLES[k][x]`: the state reached from state `x` after `k + 1` zero
/// bytes — the contribution of a byte followed by `k` more bytes within
/// an 8-byte slice. `TABLES[0]` is the plain one-byte table.
const TABLES: [[u8; 256]; 8] = [
    table(0),
    table(1),
    table(2),
    table(3),
    table(4),
    table(5),
    table(6),
    table(7),
];

const fn table(k: usize) -> [u8; 256] {
    let mut out = [0u8; 256];
    let mut x = 0;
    while x < out.len() {
        let mut crc = x as u8;
        let mut zeros = 0;
        while zeros <= k {
            crc = bitwise_step(crc);
            zeros += 1;
        }
        out[x] = crc;
        x += 1;
    }
    out
}

/// One table lookup. A `u8` index is always inside a 256-entry table, so
/// the fallback is unreachable and the bounds check compiles away.
#[inline(always)]
fn lookup(table: &[u8; 256], index: u8) -> u8 {
    table.get(usize::from(index)).copied().unwrap_or(0)
}

/// Streaming CRC-8 state, for callers that feed bytes incrementally
/// (e.g. framing code hashing a header and a payload held in separate
/// buffers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc8 {
    state: u8,
}

impl Crc8 {
    /// Fresh state (initial value 0x00).
    #[must_use]
    pub const fn new() -> Self {
        Self { state: 0 }
    }

    /// Folds one byte into the state, MSB first.
    pub fn update(&mut self, byte: u8) {
        let [t0, ..] = &TABLES;
        self.state = lookup(t0, self.state ^ byte);
    }

    /// Folds a byte slice into the state, eight bytes per table round.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut slices = bytes.chunks_exact(8);
        let mut crc = self.state;
        for s in &mut slices {
            let &[b0, b1, b2, b3, b4, b5, b6, b7] = s else {
                continue;
            };
            crc = lookup(t7, crc ^ b0)
                ^ lookup(t6, b1)
                ^ lookup(t5, b2)
                ^ lookup(t4, b3)
                ^ lookup(t3, b4)
                ^ lookup(t2, b5)
                ^ lookup(t1, b6)
                ^ lookup(t0, b7);
        }
        for &b in slices.remainder() {
            crc = lookup(t0, crc ^ b);
        }
        self.state = crc;
    }

    /// Returns the checksum of everything fed so far.
    #[must_use]
    pub const fn finish(self) -> u8 {
        self.state
    }
}

/// One-shot CRC-8 over a byte slice.
#[must_use]
pub fn crc8(bytes: &[u8]) -> u8 {
    let mut crc = Crc8::new();
    crc.update_bytes(bytes);
    crc.finish()
}

/// Appends the CRC-8 of everything in `buf` as its trailer byte.
pub fn seal(buf: &mut Vec<u8>) {
    let crc = crc8(buf);
    buf.push(crc);
}

/// Checks the trailer of a region written by [`seal`] and returns the
/// bytes it guards.
pub fn unseal(sealed: &[u8]) -> Result<&[u8], ProtocolError> {
    let Some((&got, body)) = sealed.split_last() else {
        return Err(ProtocolError::Truncated {
            needed: 1,
            available: 0,
        });
    };
    let expected = crc8(body);
    if expected != got {
        return Err(ProtocolError::BadCrc { expected, got });
    }
    Ok(body)
}

/// FNV-1a-64 over `bytes`: the hash of chip-config snapshots in segment
/// headers and of canonical encodings in the wire-ABI lock.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: the bitwise definition applied byte by byte.
    fn bitwise(mut state: u8, bytes: &[u8]) -> u8 {
        for &b in bytes {
            state = bitwise_step(state ^ b);
        }
        state
    }

    /// Deterministic xorshift bytes (no RNG dependency in this crate).
    fn pseudo_random(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_reference_vectors() {
        // Standard CRC-8/SMBUS-style check value for "123456789" with
        // poly 0x07, init 0x00, no reflect, no xorout is 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0x00);
        assert_eq!(crc8(&[0x00]), 0x00);
        assert_eq!(crc8(&[0x01]), 0x07);
    }

    #[test]
    fn table_equals_bitwise_for_every_state_and_byte() {
        for state in 0..=u8::MAX {
            for byte in 0..=u8::MAX {
                let want = bitwise(state, &[byte]);
                let mut one = Crc8 { state };
                one.update(byte);
                assert_eq!(one.finish(), want, "update state {state:#x} byte {byte:#x}");
                let mut sliced = Crc8 { state };
                sliced.update_bytes(&[byte]);
                assert_eq!(
                    sliced.finish(),
                    want,
                    "slice state {state:#x} byte {byte:#x}"
                );
            }
        }
    }

    #[test]
    fn sliced_equals_bitwise_at_every_length_and_split() {
        let data = pseudo_random(64, 0x5EED_0001);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = bitwise(0, msg);
            assert_eq!(crc8(msg), want, "len {len}");
            for split in 0..=len {
                let (a, b) = msg.split_at(split);
                let mut crc = Crc8::new();
                crc.update_bytes(a);
                crc.update_bytes(b);
                assert_eq!(crc.finish(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn sliced_equals_bitwise_on_a_multi_mib_buffer() {
        let data = pseudo_random(3 << 20, 0x0DDB_A11C);
        assert_eq!(crc8(&data), bitwise(0, &data));
        // An unaligned start and an odd tail take the remainder path.
        let inner = &data[3..data.len() - 5];
        assert_eq!(crc8(inner), bitwise(0, inner));
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox";
        let (a, b) = data.split_at(7);
        let mut crc = Crc8::new();
        crc.update_bytes(a);
        crc.update_bytes(b);
        assert_eq!(crc.finish(), crc8(data));
    }

    #[test]
    fn detects_every_single_byte_flip() {
        let data: Vec<u8> = (0u8..64).collect();
        let clean = crc8(&data);
        for i in 0..data.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = data.clone();
                if let Some(byte) = corrupt.get_mut(i) {
                    *byte ^= mask;
                }
                assert_ne!(crc8(&corrupt), clean, "flip at {i} mask {mask:#x}");
            }
        }
    }

    #[test]
    fn sealed_regions_roundtrip_and_reject_flips() {
        let mut sealed = b"segment".to_vec();
        seal(&mut sealed);
        assert_eq!(unseal(&sealed).unwrap(), b"segment");
        if let Some(byte) = sealed.first_mut() {
            *byte ^= 0x10;
        }
        assert!(matches!(unseal(&sealed), Err(ProtocolError::BadCrc { .. })));
        assert!(matches!(unseal(&[]), Err(ProtocolError::Truncated { .. })));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
