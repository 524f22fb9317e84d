//! Segment store correctness: write → read roundtrips are bit-exact,
//! accounting always balances, and misuse surfaces as typed errors.

#![allow(clippy::unwrap_used)] // tests unwrap idiomatically

use bsa_link::{ChipKind, Message, PixelCount, StreamPayload};
use bsa_store::{
    decode_dna_reading, decode_neuro_frame, encode_dna_reading, encode_neuro_frame, fnv1a64,
    frame_payload_len, list_recordings, Offer, Recorder, SegmentMeta, SegmentReader, StoreError,
};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bsa-store-rt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn neuro_meta(rows: u16, cols: u16) -> SegmentMeta {
    let spec = format!("NeuroChipConfig {{ rows: {rows}, cols: {cols}, seed: 0x0EE51281 }}");
    SegmentMeta {
        chip: 1,
        kind: ChipKind::Neuro,
        rows,
        cols,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    }
}

/// Deterministic, bit-diverse sample values (subnormals, negatives,
/// exact powers of two) so "bit-identical" is a meaningful assertion.
fn frame_samples(frame: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let bits = (frame as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Clear NaN patterns: force a finite exponent.
            f64::from_bits(bits & !(0x7FFu64 << 52) | (0x3F0u64 << 52))
        })
        .collect()
}

/// The item bytes of an encoded `StreamData` message: everything after
/// the message and chunk headers.
fn stream_items(payload: StreamPayload, kind: ChipKind) -> Vec<u8> {
    let mut bytes = Vec::new();
    Message::StreamData {
        chip: 1,
        seq: 0,
        payload,
    }
    .encode_payload(&mut bytes);
    bytes.split_off(StreamPayload::message_len(kind, 0))
}

#[test]
fn neuro_write_read_is_bit_identical() {
    let root = temp_root("neuro");
    let meta = neuro_meta(3, 5);
    let payload_len = frame_payload_len(ChipKind::Neuro, 3, 5);
    let mut rec = Recorder::create(&root, "run-a", &meta, payload_len, 64).unwrap();
    let frames = 17usize;
    let mut payloads = Vec::new();
    let mut chunk_samples = Vec::new();
    for f in 0..frames {
        let samples = frame_samples(f, 15);
        let epoch = if f < 10 { 0 } else { 1 };
        payloads.extend(encode_neuro_frame(&samples));
        chunk_samples.extend(&samples);
        rec.offer(epoch, encode_neuro_frame(&samples)).unwrap();
    }
    // The same frames streamed as one `StreamData` chunk carry the
    // stored payloads laid end to end after the chunk's header.
    let chunk = StreamPayload::NeuroFrames {
        first_frame: 0,
        rows: 3,
        cols: 5,
        samples: chunk_samples,
    };
    assert_eq!(
        stream_items(chunk, ChipKind::Neuro),
        payloads,
        "stored neuro payloads and streamed samples differ in layout"
    );
    let summary = rec.finish().unwrap();
    assert_eq!(
        summary.frames_written + summary.frames_dropped,
        frames as u64
    );
    assert_eq!(summary.epochs, 2);

    let mut reader = SegmentReader::open_named(&root, "run-a").unwrap();
    assert_eq!(reader.meta(), &meta);
    assert_eq!(reader.frames(), summary.frames_written);
    assert_eq!(reader.epochs(), 2);
    assert_eq!(reader.bytes(), summary.bytes_written);
    for f in 0..reader.frames() {
        let frame = reader.frame(f).unwrap();
        assert_eq!(frame.index, f);
        let mut samples = Vec::new();
        decode_neuro_frame(frame.payload, &mut samples).unwrap();
        let want = frame_samples(f as usize, 15);
        assert_eq!(samples.len(), want.len());
        for (got, want) in samples.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dna_readings_roundtrip() {
    let root = temp_root("dna");
    let spec = "DnaChipConfig { rows: 8, cols: 16 }".to_string();
    let meta = SegmentMeta {
        chip: 2,
        kind: ChipKind::Dna,
        rows: 8,
        cols: 16,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    };
    let mut rec = Recorder::create(
        &root,
        "assay-1",
        &meta,
        frame_payload_len(ChipKind::Dna, 8, 16),
        // Queue covers every offer, so zero drops is deterministic.
        256,
    )
    .unwrap();
    let readings: Vec<PixelCount> = (0..128u16)
        .map(|i| PixelCount {
            row: i / 16,
            col: i % 16,
            count: u64::from(i) * 977 + 13,
        })
        .collect();
    for r in &readings {
        rec.offer(0, encode_dna_reading(r)).unwrap();
    }
    let stored: Vec<u8> = readings.iter().flat_map(encode_dna_reading).collect();
    let chunk = StreamPayload::DnaCounts {
        readings: readings.clone(),
    };
    assert_eq!(
        stream_items(chunk, ChipKind::Dna),
        stored,
        "stored DNA payloads and streamed readings differ in layout"
    );
    let summary = rec.finish().unwrap();
    assert_eq!(summary.frames_written, 128);
    assert_eq!(summary.frames_dropped, 0);

    let mut reader = SegmentReader::open_named(&root, "assay-1").unwrap();
    assert_eq!(reader.meta().kind, ChipKind::Dna);
    for (i, want) in readings.iter().enumerate() {
        let frame = reader.frame(i as u64).unwrap();
        assert_eq!(&decode_dna_reading(frame.payload).unwrap(), want);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn catalog_lists_valid_segments_sorted_and_skips_garbage() {
    let root = temp_root("catalog");
    for name in ["zeta", "alpha"] {
        let meta = neuro_meta(2, 2);
        let mut rec = Recorder::create(&root, name, &meta, 32, 8).unwrap();
        rec.offer(0, encode_neuro_frame(&[1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        rec.finish().unwrap();
    }
    // Garbage that must be skipped, not listed and not fatal.
    std::fs::write(root.join("torn.seg"), b"BSSGnot a real segment").unwrap();
    std::fs::write(root.join("notes.txt"), b"unrelated").unwrap();

    let entries = list_recordings(&root).unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["alpha", "zeta"]);
    for e in &entries {
        assert_eq!(e.frames, 1);
        assert_eq!((e.rows, e.cols), (2, 2));
        assert_eq!(e.config_hash, neuro_meta(2, 2).config_hash);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_root_is_an_empty_store() {
    let entries = list_recordings(&temp_root("absent")).unwrap();
    assert!(entries.is_empty());
}

#[test]
fn typed_misuse_errors() {
    let root = temp_root("misuse");
    let meta = neuro_meta(2, 2);

    // Bad names: empty, traversal, separators, hidden files.
    for bad in ["", "..", "a/b", "a\\b", ".hidden", "x y", &"n".repeat(65)] {
        assert!(
            matches!(
                Recorder::create(&root, bad, &meta, 32, 8),
                Err(StoreError::BadName { .. })
            ),
            "{bad:?} accepted"
        );
    }

    let mut rec = Recorder::create(&root, "dup", &meta, 32, 8).unwrap();
    // Wrong payload size for the segment's kind is a typed caller error.
    assert!(matches!(
        rec.offer(0, vec![0u8; 31]),
        Err(StoreError::PayloadSize {
            expected: 32,
            got: 31
        })
    ));
    rec.offer(0, encode_neuro_frame(&[0.5; 4])).unwrap();
    rec.finish().unwrap();

    // Duplicate names collide instead of overwriting data.
    assert!(matches!(
        Recorder::create(&root, "dup", &meta, 32, 8),
        Err(StoreError::AlreadyExists { .. })
    ));

    // Unknown recordings are NotFound, not Io.
    assert!(matches!(
        SegmentReader::open_named(&root, "ghost"),
        Err(StoreError::NotFound { .. })
    ));

    // Reading past the end is typed.
    let mut reader = SegmentReader::open_named(&root, "dup").unwrap();
    assert!(matches!(
        reader.frame(1),
        Err(StoreError::FrameOutOfRange {
            index: 1,
            frames: 1
        })
    ));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn accounting_balances_under_backpressure() {
    let root = temp_root("pressure");
    let meta = neuro_meta(16, 16);
    let payload_len = frame_payload_len(ChipKind::Neuro, 16, 16);
    // Depth-1 queue and a fast producer: some frames may drop, but the
    // sent/dropped split must always balance and the segment must hold
    // exactly the accepted frames.
    let mut rec = Recorder::create(&root, "burst", &meta, payload_len, 1).unwrap();
    let offered = 64u64;
    let mut accepted = 0u64;
    for f in 0..offered {
        let samples = frame_samples(f as usize, 256);
        if rec.offer(0, encode_neuro_frame(&samples)).unwrap() == Offer::Accepted {
            accepted += 1;
        }
    }
    let summary = rec.finish().unwrap();
    assert_eq!(summary.frames_written, accepted);
    assert_eq!(summary.frames_dropped, offered - accepted);
    let reader = SegmentReader::open_named(&root, "burst").unwrap();
    assert_eq!(reader.frames(), accepted);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dropped_recorder_still_finalizes_a_valid_segment() {
    let root = temp_root("drop");
    let meta = neuro_meta(2, 2);
    let mut rec = Recorder::create(&root, "abandoned", &meta, 32, 8).unwrap();
    rec.offer(3, encode_neuro_frame(&[1.0, -1.0, 0.0, 2.5]))
        .unwrap();
    drop(rec); // session died without StopRecording
    let mut reader = SegmentReader::open_named(&root, "abandoned").unwrap();
    assert_eq!(reader.frames(), 1);
    assert_eq!(reader.frame(0).unwrap().epoch, 3);
    let _ = std::fs::remove_dir_all(&root);
}

/// FNV-1a-64 of a neuro segment (3×5, 17 frames over two epochs) and a
/// DNA segment (all 128 readings of an 8×16 die) as `Recorder` writes
/// them. Pinned so any change to the segment codec that moves a single
/// byte fails here.
const GOLDEN_NEURO_SEGMENT: u64 = 0x1467_2a82_be4e_f6bd;
const GOLDEN_DNA_SEGMENT: u64 = 0xd093_ebc2_ccb0_c442;

#[test]
fn segment_bytes_match_golden() {
    let root = temp_root("golden");
    let meta = neuro_meta(3, 5);
    let mut rec = Recorder::create(&root, "neuro", &meta, 120, 64).unwrap();
    for f in 0..17 {
        let epoch = u32::from(f >= 10);
        rec.offer(epoch, encode_neuro_frame(&frame_samples(f, 15)))
            .unwrap();
    }
    rec.finish().unwrap();

    let spec = "DnaChipConfig { rows: 8, cols: 16 }".to_string();
    let meta = SegmentMeta {
        chip: 2,
        kind: ChipKind::Dna,
        rows: 8,
        cols: 16,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    };
    let mut rec = Recorder::create(&root, "dna", &meta, 12, 256).unwrap();
    for i in 0..128u16 {
        let reading = PixelCount {
            row: i / 16,
            col: i % 16,
            count: u64::from(i) * 977 + 13,
        };
        rec.offer(0, encode_dna_reading(&reading)).unwrap();
    }
    rec.finish().unwrap();

    let hash = |name: &str| fnv1a64(&std::fs::read(root.join(format!("{name}.seg"))).unwrap());
    let (neuro, dna) = (hash("neuro"), hash("dna"));
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        neuro, GOLDEN_NEURO_SEGMENT,
        "neuro segment bytes drifted: {neuro:#018x}"
    );
    assert_eq!(
        dna, GOLDEN_DNA_SEGMENT,
        "DNA segment bytes drifted: {dna:#018x}"
    );
}
