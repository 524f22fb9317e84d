//! One client session: a reader thread that owns the session's chips and
//! executes requests sequentially, plus a writer thread draining a
//! bounded outbound queue.
//!
//! # Backpressure policy
//!
//! The outbound queue is a `sync_channel` with a fixed capacity. Control
//! responses (acks, results, stream-end markers) use a *blocking* send —
//! they are few and must not be lost; if the writer died because the
//! socket broke, the send fails and the session ends. Stream data chunks
//! use `try_send`: when a slow consumer fills the queue the chunk is
//! dropped on the spot and counted, so the server never buffers without
//! bound and the consumer learns exactly how many frames it lost from
//! `StreamEnd { frames_dropped, .. }`.
//!
//! # Streams
//!
//! Live neuro streams, replays and assay count streams all go through
//! one `Emitter`, which numbers chunks, offers them, and counts their
//! frames into `frames_served`/`frames_dropped` when the stream ends. A
//! stream aborted by an error (a corrupt stored record, a vanished
//! client) still counts the frames it delivered before the abort.

use crate::registry::{
    culture_from_spec, dna_config_from_spec, injection_plan_from_spec, neuro_config_from_spec,
    yield_summary, Chip, Registry, MAX_PIXELS,
};
use crate::stats::StationStats;
use bsa_core::dna_chip::{DnaChip, SampleMix};
use bsa_core::health::PixelHealth;
use bsa_core::neuro_chip::NeuroChip;
use bsa_dsp::masking::PixelMask;
use bsa_electrochem::sequence::DnaSequence;
use bsa_link::{
    read_message, write_message, ChipId, ChipKind, ErrorCode, Message, PixelCount, ProtocolError,
    RecordingEntry, StreamPayload, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use bsa_store::{
    decode_dna_reading, decode_neuro_frame, encode_dna_reading, encode_neuro_frame, fnv1a64,
    frame_payload_len, list_recordings, Recorder, SegmentMeta, SegmentReader, StoreError,
    DEFAULT_QUEUE_DEPTH,
};
use bsa_units::{Molar, Seconds};
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Hard cap on frames per neuro stream request: 512 MiB of samples at
/// 128×128, about 2 s of acquisition at 2 kframes/s, so one request
/// cannot pin the server indefinitely. The scan holds one 32-frame chunk
/// (4 MiB at 128×128) at a time, so the cap bounds the request's
/// duration, not its memory.
pub(crate) const MAX_STREAM_FRAMES: u32 = 4096;

/// Default frames per `StreamData` chunk when the client passes 0.
pub(crate) const DEFAULT_CHUNK_FRAMES: u32 = 8;

/// DNA count readings per streamed chunk.
const DNA_CHUNK_READINGS: u32 = 64;

/// Upper bound on a recorded frame's rows/cols accepted for replay. The
/// geometry comes from a stored segment header — attacker/corruption
/// territory — and sizes the chunk sample buffer, so it must be bounded
/// before it feeds an allocation. Far above any real CMOS array axis.
const MAX_REPLAY_DIM: usize = 4096;

/// The receiving side of the session is gone (socket closed or writer
/// dead); the session should wind down.
#[derive(Debug)]
pub(crate) struct Gone;

/// Outcome of offering a stream chunk to the queue.
enum Offer {
    Sent,
    Dropped,
}

/// The session's handle on its outbound queue.
struct Outbound {
    tx: SyncSender<Message>,
    stats: Arc<StationStats>,
}

impl Outbound {
    /// Blocking send for control responses. Fails only when the writer
    /// thread has exited (socket gone).
    fn send_control(&self, msg: Message) -> Result<(), Gone> {
        self.stats.queue_enter();
        match self.tx.send(msg) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.stats.queue_exit();
                Err(Gone)
            }
        }
    }

    /// Non-blocking send for stream data. A full queue drops the chunk
    /// (the caller accounts for it); a disconnected queue ends the
    /// session.
    fn offer_stream(&self, msg: Message) -> Result<Offer, Gone> {
        self.stats.queue_enter();
        match self.tx.try_send(msg) {
            Ok(()) => {
                StationStats::add(&self.stats.chunks_sent, 1);
                Ok(Offer::Sent)
            }
            Err(TrySendError::Full(_)) => {
                self.stats.queue_exit();
                Ok(Offer::Dropped)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.stats.queue_exit();
                Err(Gone)
            }
        }
    }
}

/// Tuning knobs handed down from `StationConfig`.
#[derive(Debug, Clone)]
pub(crate) struct SessionLimits {
    pub(crate) queue_depth: usize,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) store_root: Option<PathBuf>,
}

/// Runs one session to completion on the current thread. Spawns the
/// writer thread internally and joins it before returning.
pub(crate) fn run_session(stream: TcpStream, stats: Arc<StationStats>, limits: &SessionLimits) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(limits.read_timeout);
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            // No writer thread can exist; tell the client why the session
            // is dying (best-effort, straight on the reader socket) —
            // this is the one condition that is the station's fault, not
            // the client's, hence `Internal` rather than `BadRequest`.
            let mut stream = stream;
            let _ = write_message(
                &mut stream,
                &Message::ErrorReply {
                    code: ErrorCode::Internal,
                    message: format!("cannot split session socket: {e}"),
                },
            );
            return;
        }
    };
    let (tx, rx) = sync_channel::<Message>(limits.queue_depth.max(1));
    let writer_stats = Arc::clone(&stats);
    let writer = thread::spawn(move || {
        let mut stream = writer_stream;
        for msg in rx {
            writer_stats.queue_exit();
            match write_message(&mut stream, &msg) {
                Ok(n) => StationStats::add(&writer_stats.bytes_sent, n as u64),
                Err(_) => break,
            }
        }
        // Drain without writing so blocked senders unblock promptly even
        // though the socket is gone; dropping the receiver then fails
        // all later sends.
        let _ = stream.shutdown(std::net::Shutdown::Both);
    });

    let mut session = Session {
        registry: Registry::default(),
        masks: BTreeMap::new(),
        recorders: BTreeMap::new(),
        store_root: limits.store_root.clone(),
        out: Outbound {
            tx,
            stats: Arc::clone(&stats),
        },
        stats: Arc::clone(&stats),
    };

    let mut reader = stream;
    loop {
        match read_message(&mut reader) {
            Ok(msg) => {
                StationStats::add(&stats.requests, 1);
                if session.handle(msg).is_err() {
                    break;
                }
            }
            Err(ProtocolError::Io(_)) => break, // EOF, reset or timeout
            Err(err) => {
                // Corrupt frame: tell the client (best-effort) and close —
                // framing sync cannot be trusted after a bad header.
                let _ = session.out.send_control(Message::ErrorReply {
                    code: ErrorCode::BadRequest,
                    message: format!("protocol error: {err}"),
                });
                break;
            }
        }
    }
    drop(session); // drops the sender; the writer drains and exits
    let _ = writer.join();
}

struct Session {
    registry: Registry,
    /// Client-masked pixels per chip (row-major indices). Neuro stream
    /// chunks are repaired over this mask by neighbor interpolation
    /// before they are queued; an empty/absent mask leaves the stream
    /// path bit-identical to an unmasked session.
    masks: BTreeMap<ChipId, BTreeSet<u32>>,
    /// Active recordings per chip. Streams from a recorded chip are teed
    /// into the store's bounded writer queue frame by frame (post-mask,
    /// so the segment holds exactly what a client would have received);
    /// dropping the session finalises any recording still open.
    recorders: BTreeMap<ChipId, ActiveRecording>,
    /// `bsa-store` root directory; `None` disables record/replay.
    store_root: Option<PathBuf>,
    out: Outbound,
    stats: Arc<StationStats>,
}

/// One in-flight recording: the store writer plus the next acquisition
/// epoch. The epoch is a stream-request ordinal (not wall time), so a
/// segment written by a deterministic acquisition is itself
/// deterministic.
struct ActiveRecording {
    name: String,
    recorder: Recorder,
    epoch: u32,
}

impl ActiveRecording {
    /// Claims the next epoch for one acquisition on the recorded chip.
    fn claim_epoch(&mut self) -> u32 {
        let epoch = self.epoch;
        self.epoch = self.epoch.wrapping_add(1);
        epoch
    }
}

impl Session {
    /// Handles one request and sends its reply. `Err(Gone)` means the
    /// connection is dead.
    fn handle(&mut self, msg: Message) -> Result<(), Gone> {
        let reply = match msg {
            Message::Hello { .. } => Message::HelloAck {
                server: format!("bsa-station/{}", env!("CARGO_PKG_VERSION")),
                version: PROTOCOL_VERSION,
            },
            Message::Ping { token } => Message::Pong { token },
            Message::AttachDna(spec) => self.attach_dna(&spec),
            Message::AttachNeuro(spec) => self.attach_neuro(&spec),
            Message::Detach { chip } => self.detach(chip),
            Message::ConfigureAssay {
                chip,
                probes,
                targets,
            } => self.configure_assay(chip, &probes, &targets),
            Message::Calibrate { chip } => self.calibrate(chip),
            Message::InjectFaults { chip, plan } => self.inject_faults(chip, &plan),
            Message::QueryHealth { chip } => self.query_health(chip),
            Message::MaskPixels { chip, pixels } => self.mask_pixels(chip, &pixels),
            Message::RunAssay {
                chip,
                stream_counts,
            } => self.run_assay(chip, stream_counts)?,
            Message::StartNeuroStream {
                chip,
                frames,
                chunk_frames,
                t0_s,
                culture,
            } => self.neuro_stream(chip, frames, chunk_frames, t0_s, &culture)?,
            Message::QueryStats => Message::StatsReport(self.stats.snapshot()),
            Message::StartRecording { chip, name } => self.start_recording(chip, &name),
            Message::StopRecording { chip } => self.stop_recording(chip),
            Message::ListRecordings => self.list_store(),
            Message::Replay { name, chunk_frames } => self.replay(&name, chunk_frames)?,
            // Server-to-client messages arriving at the server are a
            // client bug, not a transport failure: answer and carry on.
            other => error_reply(
                ErrorCode::BadRequest,
                format!("unexpected message at server: {other:?}"),
            ),
        };
        self.out.send_control(reply)
    }

    fn attach_dna(&mut self, spec: &bsa_link::DnaChipSpec) -> Message {
        let config = match dna_config_from_spec(spec) {
            Ok(c) => c,
            Err(err) => return error_reply(ErrorCode::BadRequest, err.to_string()),
        };
        if config.geometry.len() > MAX_PIXELS {
            return error_reply(ErrorCode::BadRequest, "array too large".into());
        }
        let rows = config.geometry.rows();
        let cols = config.geometry.cols();
        match DnaChip::new(config) {
            Ok(chip) => {
                let id = self.registry.attach(Chip::Dna {
                    chip: Box::new(chip),
                    sample: SampleMix::new(),
                });
                StationStats::add(&self.stats.chips_attached, 1);
                Message::Attached {
                    chip: id,
                    kind: ChipKind::Dna,
                    rows: rows as u16,
                    cols: cols as u16,
                }
            }
            Err(err) => error_reply(ErrorCode::ChipError, err.to_string()),
        }
    }

    fn attach_neuro(&mut self, spec: &bsa_link::NeuroChipSpec) -> Message {
        let config = match neuro_config_from_spec(spec) {
            Ok(c) => c,
            Err(err) => return error_reply(ErrorCode::BadRequest, err.to_string()),
        };
        if config.geometry.len() > MAX_PIXELS {
            return error_reply(ErrorCode::BadRequest, "array too large".into());
        }
        let rows = config.geometry.rows();
        let cols = config.geometry.cols();
        match NeuroChip::new(config) {
            Ok(chip) => {
                let id = self.registry.attach(Chip::Neuro(Box::new(chip)));
                StationStats::add(&self.stats.chips_attached, 1);
                Message::Attached {
                    chip: id,
                    kind: ChipKind::Neuro,
                    rows: rows as u16,
                    cols: cols as u16,
                }
            }
            Err(err) => error_reply(ErrorCode::ChipError, err.to_string()),
        }
    }

    fn detach(&mut self, id: ChipId) -> Message {
        if let Err(reply) = self.registry.chip(id) {
            return reply;
        }
        self.registry.detach(id);
        self.masks.remove(&id);
        // Dropping the recorder joins its writer thread and finalises the
        // segment; the client simply does not get the `RecordingStopped`
        // accounting.
        self.recorders.remove(&id);
        Message::Detached { chip: id }
    }

    fn configure_assay(
        &mut self,
        id: ChipId,
        probes: &[String],
        targets: &[bsa_link::TargetSpec],
    ) -> Message {
        let mut parsed = Vec::with_capacity(probes.len());
        for probe in probes {
            match probe.parse::<DnaSequence>() {
                Ok(seq) => parsed.push(seq),
                Err(err) => {
                    return error_reply(ErrorCode::BadRequest, format!("probe {probe:?}: {err}"))
                }
            }
        }
        let mut sample = SampleMix::new();
        for target in targets {
            let seq = match target.sequence.parse::<DnaSequence>() {
                Ok(seq) => seq,
                Err(err) => {
                    return error_reply(
                        ErrorCode::BadRequest,
                        format!("target {:?}: {err}", target.sequence),
                    )
                }
            };
            if !target.concentration_molar.is_finite() || target.concentration_molar < 0.0 {
                return error_reply(ErrorCode::BadRequest, "bad concentration".into());
            }
            sample = sample.with_target(seq, Molar::new(target.concentration_molar));
        }
        match self.registry.dna(id) {
            Ok((chip, slot)) => {
                chip.spot_all(&parsed);
                *slot = sample;
                Message::Ack
            }
            Err(reply) => reply,
        }
    }

    fn calibrate(&mut self, id: ChipId) -> Message {
        let chip = match self.registry.chip(id) {
            Ok(chip) => chip,
            Err(reply) => return reply,
        };
        match chip {
            Chip::Dna { chip, .. } => {
                let _ = chip.auto_calibrate();
            }
            Chip::Neuro(chip) => chip.calibrate(Seconds::new(0.0)),
        }
        let health = chip.health();
        Message::CalibrationDone {
            chip: id,
            healthy: health.count(PixelHealth::Healthy) as u32,
            out_of_family: health.count(PixelHealth::OutOfFamily) as u32,
            dead: health.count(PixelHealth::Dead) as u32,
        }
    }

    fn inject_faults(&mut self, id: ChipId, plan: &bsa_link::FaultPlanSpec) -> Message {
        let plan = injection_plan_from_spec(plan);
        match self.registry.chip(id).map(|chip| chip.inject_faults(&plan)) {
            Ok(Ok(())) => Message::Ack,
            Ok(Err(err)) => error_reply(ErrorCode::ChipError, err.to_string()),
            Err(reply) => reply,
        }
    }

    fn mask_pixels(&mut self, id: ChipId, pixels: &[u32]) -> Message {
        let len = match self.registry.chip(id) {
            Ok(chip) => chip.geometry().len(),
            Err(reply) => return reply,
        };
        if let Some(&bad) = pixels.iter().find(|&&p| p as usize >= len) {
            return error_reply(
                ErrorCode::BadRequest,
                format!("pixel {bad} out of range (array has {len} pixels)"),
            );
        }
        let mask = self.masks.entry(id).or_default();
        mask.extend(pixels.iter().copied());
        Message::Masked {
            chip: id,
            masked: mask.len() as u32,
        }
    }

    fn query_health(&mut self, id: ChipId) -> Message {
        match self.registry.chip(id) {
            Ok(chip) => Message::HealthReport {
                chip: id,
                report: yield_summary(&chip.yield_report()),
            },
            Err(reply) => reply,
        }
    }

    /// The store root; a station started without one answers
    /// `StoreError`.
    fn store_root(&self) -> Result<PathBuf, Message> {
        self.store_root
            .clone()
            .ok_or_else(|| store_error("station has no store root (start with --store DIR)"))
    }

    /// Opens a store segment and begins teeing the chip's streams to it.
    /// The spec snapshot is the Debug rendering of the *resolved* chip
    /// configuration (the same one the registry built from the wire
    /// spec), hashed with FNV-1a-64 so replay consumers can check which
    /// configuration produced a recording without parsing the spec.
    fn start_recording(&mut self, id: ChipId, name: &str) -> Message {
        let root = match self.store_root() {
            Ok(root) => root,
            Err(reply) => return reply,
        };
        if self.recorders.contains_key(&id) {
            return store_error(format!("chip {id} already recording"));
        }
        let (kind, g, spec) = match self.registry.chip(id) {
            Ok(chip) => (chip.kind(), chip.geometry(), chip.spec()),
            Err(reply) => return reply,
        };
        let (rows, cols) = (g.rows() as u16, g.cols() as u16);
        let meta = SegmentMeta {
            chip: id,
            kind,
            rows,
            cols,
            config_hash: fnv1a64(spec.as_bytes()),
            spec,
        };
        match Recorder::create(
            &root,
            name,
            &meta,
            frame_payload_len(kind, rows, cols),
            DEFAULT_QUEUE_DEPTH,
        ) {
            Ok(recorder) => {
                self.recorders.insert(
                    id,
                    ActiveRecording {
                        name: name.to_string(),
                        recorder,
                        epoch: 0,
                    },
                );
                Message::RecordingStarted {
                    chip: id,
                    name: name.to_string(),
                }
            }
            Err(err) => store_error(err),
        }
    }

    /// Finalises a chip's recording and reports the store's own
    /// sent/dropped accounting (the writer queue drops-and-counts past
    /// high water, exactly like the outbound stream queue).
    fn stop_recording(&mut self, id: ChipId) -> Message {
        let Some(active) = self.recorders.remove(&id) else {
            return store_error(format!("chip {id} is not recording"));
        };
        match active.recorder.finish() {
            Ok(summary) => Message::RecordingStopped {
                chip: id,
                name: active.name,
                frames_written: summary.frames_written,
                frames_dropped: summary.frames_dropped,
                bytes_written: summary.bytes_written,
            },
            Err(err) => store_error(err),
        }
    }

    fn list_store(&self) -> Message {
        let root = match self.store_root() {
            Ok(root) => root,
            Err(reply) => return reply,
        };
        match list_recordings(&root) {
            Ok(entries) => Message::RecordingList {
                recordings: entries
                    .into_iter()
                    .map(|e| RecordingEntry {
                        name: e.name,
                        kind: e.kind,
                        rows: e.rows,
                        cols: e.cols,
                        frames: e.frames,
                        bytes: e.bytes,
                        config_hash: e.config_hash,
                    })
                    .collect(),
            },
            Err(err) => store_error(err),
        }
    }

    /// Streams a stored recording back with the exact `StreamData`*
    /// `StreamEnd` grammar a live chip produces, under the recorded chip
    /// id. Neuro payloads are decoded from their raw IEEE-754 bits, so a
    /// replayed frame is `f64::to_bits`-identical to the recorded one.
    fn replay(&mut self, name: &str, chunk_frames: u32) -> Result<Message, Gone> {
        let root = match self.store_root() {
            Ok(root) => root,
            Err(reply) => return Ok(reply),
        };
        let mut reader = match SegmentReader::open_named(&root, name) {
            Ok(reader) => reader,
            Err(err) => return Ok(store_error(err)),
        };
        let meta = reader.meta();
        let (rows, cols) = (usize::from(meta.rows), usize::from(meta.cols));
        match meta.kind {
            ChipKind::Neuro if rows > MAX_REPLAY_DIM || cols > MAX_REPLAY_DIM => Ok(store_error(
                format!("recorded geometry {rows}x{cols} exceeds the replay limit"),
            )),
            ChipKind::Neuro => {
                replay_records(&self.out, &mut reader, chunk_frames, decode_neuro_frame)
            }
            ChipKind::Dna => {
                replay_records(&self.out, &mut reader, chunk_frames, |payload, buf| {
                    buf.push(decode_dna_reading(payload)?);
                    Ok(())
                })
            }
        }
    }

    fn run_assay(&mut self, id: ChipId, stream_counts: bool) -> Result<Message, Gone> {
        let readout = match self.registry.dna(id) {
            Ok((chip, sample)) => chip.run_assay(sample),
            Err(reply) => return Ok(reply),
        };
        let readings: Vec<PixelCount> = readout
            .to_readings()
            .iter()
            .map(|r| PixelCount {
                row: r.address.row as u16,
                col: r.address.col as u16,
                count: r.count,
            })
            .collect();
        // Tee the whole readout into an active recording (one record per
        // reading, whether or not the client streamed). Store
        // backpressure drops-and-counts; I/O failures surface in the
        // `RecordingStopped` accounting, never in the assay reply.
        if let Some(active) = self.recorders.get_mut(&id) {
            let epoch = active.claim_epoch();
            for reading in &readings {
                // Drops and rejections are counted by the recorder and
                // reported at `StopRecording`.
                let _ = active.recorder.offer(epoch, encode_dna_reading(reading));
            }
        }
        if stream_counts {
            let total = u32::try_from(readings.len()).unwrap_or(u32::MAX);
            let mut stream = match Emitter::new(&self.out, id, (0, 0), total, 0) {
                Ok(stream) => stream,
                Err(reply) => return Ok(reply),
            };
            let outcome = readings.iter().try_for_each(|reading| {
                stream.push(std::slice::from_ref(reading));
                stream.offer_full()
            });
            let end = stream.finish(outcome.map_err(Abort::from))?;
            self.out.send_control(end)?;
        }
        Ok(Message::AssayResult {
            chip: id,
            counts: readout.counts.clone(),
            estimated_currents_a: readout
                .estimated_currents
                .iter()
                .map(|i| i.value())
                .collect(),
        })
    }

    fn neuro_stream(
        &mut self,
        id: ChipId,
        frames: u32,
        chunk_frames: u32,
        t0_s: f64,
        culture_spec: &bsa_link::CultureSpec,
    ) -> Result<Message, Gone> {
        if frames == 0 || frames > MAX_STREAM_FRAMES {
            return Ok(error_reply(
                ErrorCode::BadRequest,
                format!("frames must be 1..={MAX_STREAM_FRAMES}"),
            ));
        }
        let t0 = if t0_s.is_finite() { t0_s } else { 0.0 };
        let chip = match self.registry.neuro(id) {
            Ok(chip) => chip,
            Err(reply) => return Ok(reply),
        };
        let g = chip.config().geometry;
        let shape = (g.rows() as u16, g.cols() as u16);
        let mut stream = match Emitter::new(&self.out, id, shape, frames, chunk_frames) {
            Ok(stream) => stream,
            Err(reply) => return Ok(reply),
        };
        let mask = self.masks.get(&id).filter(|m| !m.is_empty()).map(|m| {
            let mut usable = vec![true; g.len()];
            for &p in m {
                if let Some(slot) = usable.get_mut(p as usize) {
                    *slot = false;
                }
            }
            PixelMask::new(g.rows(), g.cols(), usable)
        });
        let culture = culture_from_spec(culture_spec);
        // Tee epoch for an active recording on this chip: claimed once
        // per stream request, so identical request sequences produce
        // identical segments.
        let tee_epoch = self
            .recorders
            .get_mut(&id)
            .map(ActiveRecording::claim_epoch);
        let mut outcome = Ok(());
        // One record call for the whole stream, since the chip re-seeds its
        // RNG streams at the start of every record. Its scan chunks come
        // through the sink as soon as they are gathered; each client chunk
        // is offered once full, so the writer thread encodes it while the
        // scan produces the next. The scan takes its frame buffers back
        // after each chunk.
        chip.record_streamed(
            &culture,
            Seconds::new(t0),
            frames as usize,
            &mut |scanned| {
                for frame in scanned {
                    let samples = stream.push(frame.samples());
                    if let Some(mask) = &mask {
                        // The per-pixel repair report is not part of the stream.
                        let _ = mask.interpolate(samples);
                    }
                    // Persist the post-mask frame *before* the outbound offer:
                    // the segment records what the chip produced for the
                    // client, independent of TCP backpressure.
                    if let (Some(epoch), Some(active)) = (tee_epoch, self.recorders.get_mut(&id)) {
                        // Drops and rejections are counted by the recorder and
                        // reported at `StopRecording`.
                        let _ = active.recorder.offer(epoch, encode_neuro_frame(samples));
                    }
                    if let Err(gone) = stream.offer_full() {
                        outcome = Err(gone);
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            },
        );
        stream.finish(outcome.map_err(Abort::from))
    }
}

/// Replays every record of an open segment, each decoded by `decode`
/// straight into the pending chunk. A corrupted record aborts the replay
/// with a typed `StoreError` reply; the client's stream loop surfaces it
/// as a server error.
fn replay_records<T: ChunkItem>(
    out: &Outbound,
    reader: &mut SegmentReader,
    chunk_frames: u32,
    mut decode: impl FnMut(&[u8], &mut Vec<T>) -> Result<(), StoreError>,
) -> Result<Message, Gone> {
    let meta = reader.meta();
    let total = u32::try_from(reader.frames()).unwrap_or(u32::MAX);
    let shape = (meta.rows, meta.cols);
    let mut stream = match Emitter::new(out, meta.chip, shape, total, chunk_frames) {
        Ok(stream) => stream,
        Err(reply) => return Ok(reply),
    };
    let outcome = (0..reader.frames()).try_for_each(|i| -> Result<(), Abort> {
        let frame = reader.frame(i).map_err(store_error)?;
        stream
            .push_with(|buf| decode(frame.payload, buf))
            .map_err(store_error)?;
        Ok(stream.offer_full()?)
    });
    stream.finish(outcome)
}

/// Why a stream ended before its `StreamEnd`.
enum Abort {
    /// A typed error reply takes the place of the `StreamEnd`.
    Reply(Message),
    /// The client is gone.
    Gone,
}

impl From<Gone> for Abort {
    fn from(_: Gone) -> Self {
        Self::Gone
    }
}

impl From<Message> for Abort {
    fn from(reply: Message) -> Self {
        Self::Reply(reply)
    }
}

/// What a stream chunk carries: neuro frame samples or DNA readings.
trait ChunkItem: Copy {
    const KIND: ChipKind;
    /// Frames per chunk when the client passes 0.
    const DEFAULT_CHUNK: u32;
    fn payload(first_frame: u32, rows: u16, cols: u16, items: Vec<Self>) -> StreamPayload;
}

impl ChunkItem for f64 {
    const KIND: ChipKind = ChipKind::Neuro;
    const DEFAULT_CHUNK: u32 = DEFAULT_CHUNK_FRAMES;
    fn payload(first_frame: u32, rows: u16, cols: u16, samples: Vec<Self>) -> StreamPayload {
        StreamPayload::NeuroFrames {
            first_frame,
            rows,
            cols,
            samples,
        }
    }
}

impl ChunkItem for PixelCount {
    const KIND: ChipKind = ChipKind::Dna;
    const DEFAULT_CHUNK: u32 = DNA_CHUNK_READINGS;
    fn payload(_: u32, _: u16, _: u16, readings: Vec<Self>) -> StreamPayload {
        StreamPayload::DnaCounts { readings }
    }
}

/// The one stream emitter behind live neuro streams, replays and assay
/// count streams. It packs a stream's frames (neuro frames, or single
/// DNA readings) into `StreamData` chunks of `chunk` frames, the last one
/// shorter, numbers them, offers each to the outbound queue and counts
/// its frames as sent or dropped. [`Emitter::finish`] ends every stream.
struct Emitter<'a, T> {
    out: &'a Outbound,
    id: ChipId,
    rows: u16,
    cols: u16,
    /// Items per frame: `rows * cols` samples, or one reading.
    frame_len: usize,
    /// Frames in the whole stream, which sizes the last chunk.
    total: u32,
    chunk: u32,
    /// Items of the pending chunk, one frame after another.
    items: Vec<T>,
    pending: u32,
    seq: u32,
    sent: u32,
    dropped: u32,
}

impl<'a, T: ChunkItem> Emitter<'a, T> {
    /// Starts a stream of `total` frames of `rows × cols` (ignored for DNA
    /// readings) in chunks of `chunk_frames`, 0 selecting the default. A
    /// chunk that cannot fit one wire frame is refused up front with a
    /// typed `BadRequest`, instead of tripping the frame encoder on the
    /// writer thread.
    fn new(
        out: &'a Outbound,
        id: ChipId,
        (rows, cols): (u16, u16),
        total: u32,
        chunk_frames: u32,
    ) -> Result<Self, Message> {
        let chunk = if chunk_frames == 0 {
            T::DEFAULT_CHUNK
        } else {
            chunk_frames
        };
        let frame_len = match T::KIND {
            ChipKind::Neuro => usize::from(rows).saturating_mul(usize::from(cols)),
            ChipKind::Dna => 1,
        };
        let largest = chunk.min(total);
        let len = StreamPayload::message_len(T::KIND, (largest as usize).saturating_mul(frame_len));
        if len > MAX_PAYLOAD {
            return Err(error_reply(
                ErrorCode::BadRequest,
                format!(
                    "a {largest}-frame chunk is {len} bytes, over the {MAX_PAYLOAD}-byte payload \
                     limit; request smaller chunks"
                ),
            ));
        }
        Ok(Self {
            out,
            id,
            rows,
            cols,
            frame_len,
            total,
            chunk,
            items: Vec::new(),
            pending: 0,
            seq: 0,
            sent: 0,
            dropped: 0,
        })
    }

    fn offered(&self) -> u32 {
        self.sent.saturating_add(self.dropped)
    }

    /// The pending chunk's buffer, reserved for the whole chunk when it
    /// is empty.
    fn buf(&mut self) -> &mut Vec<T> {
        if self.pending == 0 {
            let chunk = self.chunk.min(self.total.saturating_sub(self.offered()));
            self.items
                .reserve_exact((chunk as usize).saturating_mul(self.frame_len));
        }
        &mut self.items
    }

    /// Appends one frame and returns its copy in the pending chunk.
    fn push(&mut self, frame: &[T]) -> &mut [T] {
        let start = self.items.len();
        self.buf().extend_from_slice(frame);
        self.pending += 1;
        self.items.get_mut(start..).unwrap_or_default()
    }

    /// Appends one frame that `fill` decodes straight into the pending
    /// chunk.
    fn push_with<E>(&mut self, fill: impl FnOnce(&mut Vec<T>) -> Result<(), E>) -> Result<(), E> {
        fill(self.buf())?;
        self.pending += 1;
        Ok(())
    }

    /// Offers the pending chunk once it holds `chunk` frames.
    fn offer_full(&mut self) -> Result<(), Gone> {
        if self.pending < self.chunk {
            return Ok(());
        }
        self.offer()
    }

    /// Offers the pending frames, if any, as the next chunk.
    fn offer(&mut self) -> Result<(), Gone> {
        let n = std::mem::take(&mut self.pending);
        if n == 0 {
            return Ok(());
        }
        let items = std::mem::take(&mut self.items);
        let msg = Message::StreamData {
            chip: self.id,
            seq: self.seq,
            payload: T::payload(self.offered(), self.rows, self.cols, items),
        };
        self.seq = self.seq.wrapping_add(1);
        match self.out.offer_stream(msg)? {
            Offer::Sent => self.sent = self.sent.saturating_add(n),
            Offer::Dropped => self.dropped = self.dropped.saturating_add(n),
        }
        Ok(())
    }

    /// Ends the stream. One that ran to completion offers its last chunk
    /// and answers `StreamEnd`; an aborted one answers its error reply,
    /// or `Gone`. Whatever the exit, the frames offered so far are added
    /// to the station counters here, exactly once.
    fn finish(mut self, outcome: Result<(), Abort>) -> Result<Message, Gone> {
        let outcome = outcome.and_then(|()| self.offer().map_err(Abort::from));
        StationStats::add(&self.out.stats.frames_served, u64::from(self.sent));
        StationStats::add(&self.out.stats.frames_dropped, u64::from(self.dropped));
        match outcome {
            Ok(()) => Ok(Message::StreamEnd {
                chip: self.id,
                frames_sent: self.sent,
                frames_dropped: self.dropped,
            }),
            Err(Abort::Reply(reply)) => Ok(reply),
            Err(Abort::Gone) => Err(Gone),
        }
    }
}

pub(crate) fn error_reply(code: ErrorCode, message: String) -> Message {
    Message::ErrorReply { code, message }
}

fn store_error(err: impl ToString) -> Message {
    error_reply(ErrorCode::StoreError, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// Deterministic backpressure accounting at the queue level, no TCP:
    /// with a capacity-2 queue and no consumer, the first two chunks are
    /// accepted and every further offer is dropped — and the drop is
    /// visible in the stats.
    #[test]
    fn full_queue_drops_are_counted_not_buffered() {
        let stats = Arc::new(StationStats::default());
        let (tx, _rx) = sync_channel::<Message>(2);
        let out = Outbound {
            tx,
            stats: Arc::clone(&stats),
        };
        let mut sent = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match out.offer_stream(Message::Ack).unwrap() {
                Offer::Sent => sent += 1,
                Offer::Dropped => dropped += 1,
            }
        }
        assert_eq!(sent, 2);
        assert_eq!(dropped, 8);
        let snap = stats.snapshot();
        assert_eq!(snap.chunks_sent, 2);
        assert_eq!(snap.queue_peak, 3); // two enqueued + one in-flight attempt
    }

    /// A disconnected queue (writer thread gone) surfaces as `Gone` for
    /// both send flavors instead of blocking or panicking.
    #[test]
    fn disconnected_queue_reports_gone() {
        let stats = Arc::new(StationStats::default());
        let (tx, rx) = sync_channel::<Message>(1);
        drop(rx);
        let out = Outbound {
            tx,
            stats: Arc::clone(&stats),
        };
        assert!(out.send_control(Message::Ack).is_err());
        assert!(out.offer_stream(Message::Ack).is_err());
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 0);
    }
}
