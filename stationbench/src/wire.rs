//! The benchmark's own `bsa-link` client. It speaks the station protocol
//! directly, so it can timestamp the first `StreamData` and the
//! `StreamEnd` of a request, and time `decode_frame` on the bytes that
//! actually crossed the socket.

use bsa_link::{
    decode_frame, read_message, write_message, ErrorCode, Message, StreamPayload, HEADER_LEN,
    MAX_PAYLOAD,
};
use std::fmt;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub type Fallible<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The station answered a request with an `ErrorReply`: the operation
/// failed, but the connection is still usable.
#[derive(Debug)]
pub struct Refused {
    pub code: ErrorCode,
    pub message: String,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "station refused ({:?}): {}", self.code, self.message)
    }
}

impl std::error::Error for Refused {}

/// Order-sensitive 64-bit hash over the bit patterns of `f64` samples.
/// Each step `h -> (h ^ w) * P` is a bijection of `h` for a fixed word,
/// so changing any one sample always changes the result.
#[derive(Debug, Clone, Copy)]
pub struct SampleHash(u64);

impl Default for SampleHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl SampleHash {
    pub fn update(&mut self, samples: &[f64]) {
        for s in samples {
            self.0 = (self.0 ^ s.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One streamed request (live stream or replay) as the client saw it.
#[derive(Debug, Default)]
pub struct Streamed {
    /// Request write to the first decoded `StreamData`.
    pub first_chunk: Duration,
    /// Request write to the decoded `StreamEnd`.
    pub total: Duration,
    /// Frames received.
    pub frames: u32,
    /// Frames the station reports it dropped.
    pub dropped: u32,
    /// [`SampleHash`] over every received sample, in order.
    pub hash: u64,
    /// Time spent in `decode_frame`.
    pub decode: Duration,
    /// Messages read, `StreamEnd` included: each is one timed decode.
    pub messages: u32,
}

/// One protocol connection.
#[derive(Debug)]
pub struct Wire {
    stream: TcpStream,
    raw: Vec<u8>,
}

impl Wire {
    /// Connects and completes the `Hello` handshake.
    pub fn connect(addr: SocketAddr, identity: &str) -> Fallible<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut wire = Self {
            stream,
            raw: Vec::new(),
        };
        match wire.call(&Message::Hello {
            client: identity.to_string(),
        })? {
            Message::HelloAck { .. } => Ok(wire),
            other => Err(format!("expected HelloAck, got {other:?}").into()),
        }
    }

    /// Sends one request and reads its single reply.
    pub fn call(&mut self, request: &Message) -> Fallible<Message> {
        write_message(&mut self.stream, request)?;
        refused(read_message(&mut self.stream)?)
    }

    /// Sends a stream-producing request (`StartNeuroStream` or `Replay`)
    /// and consumes `StreamData`* `StreamEnd`. Each frame is read raw into
    /// a reused buffer and `decode_frame` is timed on it.
    pub fn stream(&mut self, request: &Message) -> Fallible<Streamed> {
        let start = Instant::now();
        write_message(&mut self.stream, request)?;
        let mut out = Streamed::default();
        let mut hash = SampleHash::default();
        loop {
            self.read_raw()?;
            let t = Instant::now();
            let msg = decode_frame(&self.raw)?;
            out.decode += t.elapsed();
            out.messages += 1;
            match &refused(msg)? {
                Message::StreamData {
                    payload:
                        StreamPayload::NeuroFrames {
                            rows,
                            cols,
                            samples,
                            ..
                        },
                    ..
                } => {
                    if out.frames == 0 {
                        out.first_chunk = start.elapsed();
                    }
                    let frame_len = usize::from(*rows) * usize::from(*cols);
                    if frame_len == 0 || samples.len() % frame_len != 0 {
                        return Err("stream chunk is not whole frames".into());
                    }
                    hash.update(samples);
                    out.frames += (samples.len() / frame_len) as u32;
                }
                Message::StreamEnd { frames_dropped, .. } => {
                    out.total = start.elapsed();
                    out.dropped = *frames_dropped;
                    out.hash = hash.finish();
                    return Ok(out);
                }
                other => return Err(format!("expected StreamData/StreamEnd, got {other:?}").into()),
            }
        }
    }

    /// Reads one whole frame (header, payload, CRC) into `self.raw`.
    fn read_raw(&mut self) -> Fallible<()> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_le_bytes([header[3], header[4], header[5], header[6]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(format!("declared payload {len} exceeds the protocol limit").into());
        }
        self.raw.clear();
        self.raw.extend_from_slice(&header);
        self.raw.resize(HEADER_LEN + len + 1, 0);
        self.stream.read_exact(&mut self.raw[HEADER_LEN..])?;
        Ok(())
    }
}

fn refused(msg: Message) -> Fallible<Message> {
    match msg {
        Message::ErrorReply { code, message } => Err(Box::new(Refused { code, message })),
        msg => Ok(msg),
    }
}

/// Whether `err` is a typed refusal (a failed operation) rather than a
/// broken connection or a benchmark bug.
pub fn is_refusal(err: &(dyn std::error::Error + Send + Sync + 'static)) -> bool {
    err.downcast_ref::<Refused>().is_some()
}
