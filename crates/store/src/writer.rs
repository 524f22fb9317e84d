//! Append-only segment writer: a dedicated thread drains a bounded queue
//! and persists frames, so the acquisition path never blocks on disk.
//!
//! # Backpressure policy
//!
//! [`Recorder::offer`] is a `try_send`: past the queue's high-water mark
//! the frame is dropped on the spot and counted, mirroring the station's
//! `StreamEnd { sent, dropped }` contract. The writer thread finalises
//! the segment (index footer, fsync) when the channel closes — on
//! [`Recorder::finish`], on drop, or when the owning session dies — so an
//! abandoned recording is still a valid, replayable segment.

use crate::error::StoreError;
use crate::format::{SegmentMeta, FOOTER_MAGIC, RECORD_META_LEN};
use bsa_link::crc::Crc8;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::{Builder, JoinHandle};

/// Default bound on the writer queue, in frames.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// File extension of segment files in a store root.
pub const SEGMENT_EXT: &str = "seg";

/// Outcome of offering a frame to the writer queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The frame was queued for persistence.
    Accepted,
    /// The queue was at high-water (or the writer died); the frame was
    /// dropped and counted.
    Dropped,
}

/// Accounting returned when a recording is finalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteSummary {
    /// Frames persisted to the segment.
    pub frames_written: u64,
    /// Frames dropped by queue backpressure.
    pub frames_dropped: u64,
    /// Final segment size in bytes, index footer included.
    pub bytes_written: u64,
    /// Acquisition epochs the segment spans.
    pub epochs: u32,
}

struct Frame {
    epoch: u32,
    payload: Vec<u8>,
}

/// Handle on an in-progress recording. Owned by the acquisition side;
/// dropping it finalises the segment in the background thread.
#[derive(Debug)]
pub struct Recorder {
    name: String,
    expected_payload: usize,
    dropped: u64,
    tx: Option<SyncSender<Frame>>,
    join: Option<JoinHandle<Result<WriteSummary, StoreError>>>,
}

/// Validates a recording name: 1..=64 bytes of `[A-Za-z0-9._-]`, not
/// starting with a dot (no hidden files, no `..` traversal).
pub fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok_len = !name.is_empty() && name.len() <= 64;
    let ok_chars = name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok_len && ok_chars && !name.starts_with('.') {
        Ok(())
    } else {
        Err(StoreError::BadName {
            name: name.to_string(),
        })
    }
}

/// Path of the named segment inside a store root.
pub fn segment_path(root: &Path, name: &str) -> Result<PathBuf, StoreError> {
    validate_name(name)?;
    Ok(root.join(format!("{name}.{SEGMENT_EXT}")))
}

impl Recorder {
    /// Creates the segment file, writes its header synchronously (so
    /// creation errors surface here, not mid-stream) and spawns the
    /// writer thread. `expected_payload` is the byte size every offered
    /// frame must have — use [`crate::frame_payload_len`].
    pub fn create(
        root: &Path,
        name: &str,
        meta: &SegmentMeta,
        expected_payload: usize,
        queue_depth: usize,
    ) -> Result<Self, StoreError> {
        let path = segment_path(root, name)?;
        std::fs::create_dir_all(root)?;
        let file = match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(file) => file,
            Err(err) if err.kind() == ErrorKind::AlreadyExists => {
                return Err(StoreError::AlreadyExists {
                    name: name.to_string(),
                })
            }
            Err(err) => return Err(err.into()),
        };
        let header = meta.encode_header();
        let mut out = BufWriter::new(file);
        out.write_all(&header)?;
        let header_len = header.len() as u64;
        let (tx, rx) = sync_channel::<Frame>(queue_depth.max(1));
        let join = Builder::new()
            .name("bsa-store-writer".into())
            .spawn(move || run_writer(out, header_len, &rx))
            .map_err(StoreError::Io)?;
        Ok(Self {
            name: name.to_string(),
            expected_payload,
            dropped: 0,
            tx: Some(tx),
            join: Some(join),
        })
    }

    /// The recording's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames dropped so far: by backpressure, or rejected for their size.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Offers one frame payload to the writer queue. Never blocks: a full
    /// queue (or a dead writer thread) drops the frame and counts it. A
    /// payload of the wrong size for the segment's kind is a caller bug:
    /// it is rejected typed instead of being persisted, and counted as
    /// dropped so the loss shows in the final [`WriteSummary`] too.
    pub fn offer(&mut self, epoch: u32, payload: Vec<u8>) -> Result<Offer, StoreError> {
        if payload.len() != self.expected_payload {
            self.dropped += 1;
            return Err(StoreError::PayloadSize {
                expected: self.expected_payload,
                got: payload.len(),
            });
        }
        let Some(tx) = self.tx.as_ref() else {
            self.dropped += 1;
            return Ok(Offer::Dropped);
        };
        match tx.try_send(Frame { epoch, payload }) {
            Ok(()) => Ok(Offer::Accepted),
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.dropped += 1;
                Ok(Offer::Dropped)
            }
        }
    }

    /// Closes the queue, waits for the writer thread to finalise the
    /// segment (index footer + fsync) and returns the accounting.
    pub fn finish(mut self) -> Result<WriteSummary, StoreError> {
        self.tx = None; // close the channel: the writer drains and finalises
        let join = self.join.take().ok_or(StoreError::WriterGone)?;
        let mut summary = join.join().map_err(|_| StoreError::WriterGone)??;
        summary.frames_dropped = self.dropped;
        Ok(summary)
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(join) = self.join.take() {
            // Block until the footer is on disk so the segment a dying
            // session leaves behind is valid and replayable.
            let _ = join.join();
        }
    }
}

/// Writer-thread body: drain the queue, append records, then finalise
/// with the index footer. Any I/O error aborts persistence; the error is
/// surfaced by [`Recorder::finish`] and the unfinalised segment is
/// rejected (typed) by the reader.
fn run_writer(
    mut out: BufWriter<File>,
    header_len: u64,
    rx: &Receiver<Frame>,
) -> Result<WriteSummary, StoreError> {
    let mut offsets: Vec<u64> = Vec::new();
    let mut pos = header_len;
    let mut epochs: u32 = 0;
    let mut record = Vec::new();
    for frame in rx {
        record.clear();
        record.reserve(RECORD_META_LEN + frame.payload.len() + 1);
        record.extend_from_slice(&(offsets.len() as u64).to_le_bytes());
        record.extend_from_slice(&frame.epoch.to_le_bytes());
        record.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&frame.payload);
        let mut crc = Crc8::new();
        crc.update_bytes(&record);
        record.push(crc.finish());
        out.write_all(&record)?;
        offsets.push(pos);
        pos += record.len() as u64;
        epochs = epochs.max(frame.epoch.saturating_add(1));
    }
    let mut footer = Vec::with_capacity(offsets.len() * 8 + 25);
    for &off in &offsets {
        footer.extend_from_slice(&off.to_le_bytes());
    }
    footer.extend_from_slice(&(offsets.len() as u64).to_le_bytes());
    footer.extend_from_slice(&pos.to_le_bytes());
    footer.extend_from_slice(&epochs.to_le_bytes());
    let mut crc = Crc8::new();
    crc.update_bytes(&footer);
    footer.push(crc.finish());
    footer.extend_from_slice(FOOTER_MAGIC);
    out.write_all(&footer)?;
    out.flush()?;
    let file = out.into_inner().map_err(|err| StoreError::Io(err.into()))?;
    file.sync_all()?;
    Ok(WriteSummary {
        frames_written: offsets.len() as u64,
        frames_dropped: 0,
        bytes_written: pos + footer.len() as u64,
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_link::ChipKind;

    #[test]
    fn rejected_payloads_are_counted_as_dropped() {
        let root = std::env::temp_dir().join(format!("bsa-store-wr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let meta = SegmentMeta {
            chip: 1,
            kind: ChipKind::Neuro,
            rows: 2,
            cols: 2,
            config_hash: 0,
            spec: String::new(),
        };
        let mut rec = Recorder::create(&root, "sizes", &meta, 32, 8).unwrap();
        assert_eq!(rec.offer(0, vec![0; 32]).unwrap(), Offer::Accepted);
        for bad in [0, 31, 33] {
            assert!(matches!(
                rec.offer(0, vec![0; bad]),
                Err(StoreError::PayloadSize { expected: 32, got }) if got == bad
            ));
        }
        assert_eq!(rec.dropped(), 3);
        let summary = rec.finish().unwrap();
        assert_eq!(summary.frames_written, 1);
        assert_eq!(summary.frames_dropped, 3);
        let _ = std::fs::remove_dir_all(&root);
    }
}
