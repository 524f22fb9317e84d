//! Length-prefixed framing with a CRC-8 trailer.
//!
//! ```text
//! offset  0        2        3        7                 7+LEN
//!         +--------+--------+--------+-----------------+-------+
//!         | MAGIC  | VER    | LEN LE | PAYLOAD         | CRC-8 |
//!         | B5 A1  | 01     | 4 B    | LEN bytes       | 1 B   |
//!         +--------+--------+--------+-----------------+-------+
//! ```
//!
//! The CRC covers every byte before it (magic, version, length and
//! payload), so any single corrupted byte — including in the header —
//! is rejected. Decode order is magic → version → length bounds → CRC →
//! payload parse; each failure is a distinct [`ProtocolError`].
//!
//! Encoding is single-pass: header, payload and trailer are written into
//! one buffer sized up front. The length field is reserved, patched once
//! the payload is written, and the frame is sealed with its CRC-8
//! trailer by [`crate::crc::seal`], the same call that seals `bsa-store`
//! segment regions.

use crate::crc::{seal, unseal};
use crate::error::ProtocolError;
use crate::message::Message;
use std::io::{Read, Write};

/// Frame preamble: distinguishes protocol traffic from stray bytes.
pub const MAGIC: [u8; 2] = [0xB5, 0xA1];

/// Wire protocol version this build encodes and accepts.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size: magic (2) + version (1) + length (4).
pub const HEADER_LEN: usize = 7;

/// Bytes a frame adds around its payload (header + CRC trailer).
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 1;

/// Upper bound on the declared payload length (16 MiB), far above the
/// largest legitimate message but small enough that a corrupted length
/// field cannot demand an absurd allocation.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Hard cap on any frame-sized buffer allocation: the largest whole
/// frame (header, maximal payload and CRC trailer), checked explicitly
/// before `read_message` allocates. Guarantees the frame size cannot
/// overflow for any length that passes the bound checks.
pub const MAX_FRAME_LEN: usize = MAX_PAYLOAD + FRAME_OVERHEAD;

/// Encodes a message into one complete frame.
#[must_use]
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + msg.payload_size_hint());
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&[0; 4]); // length, patched below
    msg.encode_payload(&mut out);
    let len = out.len() - HEADER_LEN;
    // No legitimate message approaches MAX_PAYLOAD (the largest stream
    // chunk is bounded by the station's chunking policy); this is a
    // caller-bug guard, not a wire condition.
    assert!(len <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    if let Some(field) = out.get_mut(3..HEADER_LEN) {
        field.copy_from_slice(&(len as u32).to_le_bytes());
    }
    seal(&mut out);
    out
}

/// Decodes exactly one frame occupying the whole buffer. Trailing bytes
/// after the frame are an error; use [`decode_frame_prefix`] to consume
/// frames from a longer buffer.
pub fn decode_frame(buf: &[u8]) -> Result<Message, ProtocolError> {
    let (msg, consumed) = decode_frame_prefix(buf)?;
    match buf.len().saturating_sub(consumed) {
        0 => Ok(msg),
        count => Err(ProtocolError::TrailingBytes { count }),
    }
}

/// Decodes one frame from the front of `buf`, returning the message and
/// the number of bytes consumed.
pub fn decode_frame_prefix(buf: &[u8]) -> Result<(Message, usize), ProtocolError> {
    let header = buf
        .first_chunk::<HEADER_LEN>()
        .ok_or(ProtocolError::Truncated {
            needed: HEADER_LEN,
            available: buf.len(),
        })?;
    let total = HEADER_LEN + payload_len(header)? + 1;
    let frame = buf.get(..total).ok_or(ProtocolError::Truncated {
        needed: total,
        available: buf.len(),
    })?;
    let body = unseal(frame)?;
    let msg = Message::decode_payload(body.get(HEADER_LEN..).unwrap_or(&[]))?;
    Ok((msg, total))
}

/// Checks a frame header's magic and version and returns its declared
/// payload length, bounded by [`MAX_PAYLOAD`].
fn payload_len(header: &[u8; HEADER_LEN]) -> Result<usize, ProtocolError> {
    let [m0, m1, version, l0, l1, l2, l3] = *header;
    if [m0, m1] != MAGIC {
        return Err(ProtocolError::BadMagic { got: [m0, m1] });
    }
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion { got: version });
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    Ok(len)
}

/// Writes one framed message to a byte sink, returning the frame size.
pub fn write_message<W: Write>(writer: &mut W, msg: &Message) -> Result<usize, ProtocolError> {
    let frame = encode_frame(msg);
    writer.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one framed message from a byte source.
///
/// Blocks until a full frame arrives; transport failures (including a
/// clean EOF mid-frame) surface as [`ProtocolError::Io`], corruption as
/// the corresponding decode variant.
pub fn read_message<R: Read>(reader: &mut R) -> Result<Message, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    let len = payload_len(&header)?;
    // `len ≤ MAX_PAYLOAD`, so the whole frame (header, payload, CRC
    // trailer) cannot overflow; the explicit cap keeps the allocation
    // provably at most MAX_FRAME_LEN even if the bounds above ever drift.
    let total = HEADER_LEN + len + 1;
    if total > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let mut frame = Vec::with_capacity(total);
    frame.extend_from_slice(&header);
    frame.resize(total, 0);
    reader.read_exact(frame.get_mut(HEADER_LEN..).unwrap_or_default())?;
    decode_frame(&frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc8;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let msg = Message::Ping { token: 0xFEED };
        let frame = encode_frame(&msg);
        assert_eq!(decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn stream_roundtrip() {
        let msgs = vec![
            Message::Hello { client: "t".into() },
            Message::QueryStats,
            Message::Pong { token: 9 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for m in &msgs {
            assert_eq!(&read_message(&mut cursor).unwrap(), m);
        }
        // EOF after the last frame surfaces as Io.
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn prefix_decoding_consumes_one_frame() {
        let a = encode_frame(&Message::Ack);
        let b = encode_frame(&Message::Ping { token: 1 });
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let (msg, used) = decode_frame_prefix(&buf).unwrap();
        assert_eq!(msg, Message::Ack);
        assert_eq!(used, a.len());
        let (msg2, _) = decode_frame_prefix(buf.get(used..).unwrap()).unwrap();
        assert_eq!(msg2, Message::Ping { token: 1 });
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(&Message::Ack);
        if let Some(b) = frame.first_mut() {
            *b = 0x00;
        }
        assert!(matches!(
            decode_frame(&frame),
            Err(ProtocolError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_frame(&frame),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
        let mut cursor = Cursor::new(frame);
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn maximal_declared_length_is_read_not_rejected() {
        // A frame declaring exactly MAX_PAYLOAD must pass the length
        // bounds: the reader sizes its buffer at exactly MAX_FRAME_LEN
        // (the largest frame it accepts) and reads the full body. The
        // all-zero payload then fails at the decode stage — typed, never
        // FrameTooLarge and never a short read.
        let mut frame = Vec::with_capacity(MAX_FRAME_LEN);
        frame.extend_from_slice(&MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        frame.resize(HEADER_LEN + MAX_PAYLOAD, 0);
        frame.push(crc8(&frame));
        assert_eq!(frame.len(), MAX_FRAME_LEN);
        let mut cursor = Cursor::new(frame);
        let err = read_message(&mut cursor).unwrap_err();
        assert!(
            !matches!(
                err,
                ProtocolError::FrameTooLarge { .. } | ProtocolError::Io(_)
            ),
            "maximal frame rejected before decode: {err}"
        );
    }

    #[test]
    fn large_stream_chunk_roundtrips() {
        // A realistic worst-case payload (a 64-frame chunk of a
        // 128x128 neuro array, ~8 MiB of samples) survives the framed
        // write/read path bit-exactly.
        let samples: Vec<f64> = (0..64usize * 128 * 128)
            .map(|i| f64::from_bits(0x3FF0_0000_0000_0000 ^ i as u64))
            .collect();
        let msg = Message::StreamData {
            chip: 3,
            seq: 7,
            payload: crate::message::StreamPayload::NeuroFrames {
                first_frame: 0,
                rows: 128,
                cols: 128,
                samples,
            },
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        assert!(buf.len() < MAX_FRAME_LEN);
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_message(&mut cursor).unwrap(), msg);
    }

    #[test]
    fn stream_frame_is_written_into_one_exact_buffer() {
        let msg = Message::StreamData {
            chip: 1,
            seq: 0,
            payload: crate::message::StreamPayload::NeuroFrames {
                first_frame: 0,
                rows: 4,
                cols: 4,
                samples: vec![0.25; 3 * 16],
            },
        };
        let frame = encode_frame(&msg);
        assert_eq!(frame.capacity(), frame.len(), "frame buffer reallocated");
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        assert_eq!(frame.get(HEADER_LEN..frame.len() - 1), Some(&payload[..]));
        assert_eq!(decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = encode_frame(&Message::Ping { token: 3 });
        for cut in 0..frame.len() {
            let err = decode_frame(frame.get(..cut).unwrap()).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }
}
