//! The traced run: per-layer busy time and work.
//!
//! The station itself carries no spans yet, so the layers are timed from
//! this crate around their public entry points, on the inputs the
//! station processes in the workload: the same chip spec and cultures
//! (whose in-process recordings the correctness gate proves bit-identical
//! to the streamed ones), the same chunking and the same segment format.
//! `link.decode` alone is timed in place, on the bytes that crossed the
//! socket, as it is in every run. The station's own `QueryStats` counters
//! complete the table.
//!
//! A traced run has two equal parts: the workload's own operation, then
//! the stage replicas. `trace.residue_frac` reconciles the replicated
//! stages on the operation's blocking path against the operation time.

use crate::report::{Metric, Outcome, RunRecord};
use crate::stats::{median, median_interval, quartiles};
use crate::wire::Fallible;
use crate::workload::{
    recording_hash, Bench, Inputs, Kind, References, Shape, Share, Tally, CULTURES,
};
use bsa_core::dna_chip::DnaChip;
use bsa_core::neuro_chip::{NeuroChip, Recording};
use bsa_core::ScanOptions;
use bsa_dsp::masking::PixelMask;
use bsa_link::crc::crc8;
use bsa_link::{
    decode_frame, encode_frame, ChipId, ChipKind, CultureSpec, DnaChipSpec, Message, NeuroChipSpec,
    StatsSnapshot, StreamPayload,
};
use bsa_station::{culture_from_spec, dna_config_from_spec, neuro_config_from_spec, StationClient};
use bsa_store::{
    decode_neuro_frame, encode_neuro_frame, fnv1a64, frame_payload_len, segment_path, Offer,
    Recorder, SegmentMeta, SegmentReader, DEFAULT_QUEUE_DEPTH,
};
use bsa_units::{Ampere, Seconds};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One per-layer metric and the end-to-end metric it should move.
#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SCAN: &str = "realtime_x, first_chunk_ms_* (neuro_live); record_realtime_x, not \
                    replay_realtime_x (record_replay)";
const SETUP: &str = "first_chunk_ms_p50 (neuro_live); scenario_ms_* (control_loop)";
const CONTROL: &str = "scenario_ms_* (control_loop)";
const WIRE: &str = "realtime_x, stream_ms_p90 (neuro_live); replay_realtime_x (record_replay); \
                    not scenario_ms_* (control_loop)";
const TEE: &str = "record_realtime_x (record_replay)";
const READ: &str = "replay_realtime_x (record_replay)";
const COUNT: &str = "ok_frac (all workloads)";
const FIXED: &str = "nothing: fixed for a fixed seed (control_loop)";
const TRACE: &str = "nothing: checks the trace itself";

/// Every per-layer metric, in output order. Busy times are per operation
/// of the workload's own kind (stream request, record/replay cycle or
/// control scenario); station counters are totals at the end of the run.
pub const LAYERS: &[Layer] = &[
    layer("core.scan.busy_ms", "ms", "lower", SCAN),
    layer("core.scan.frames", "count", "higher", SCAN),
    layer("core.scan_1t.busy_ms", "ms", "lower", SCAN),
    layer("core.attach.busy_ms", "ms", "lower", CONTROL),
    layer("core.calibrate.busy_ms", "ms", "lower", SETUP),
    layer("core.linearize.busy_ms", "ms", "lower", SETUP),
    layer("core.culture_compile.busy_ms", "ms", "lower", SETUP),
    layer("core.culture_compile.pairs", "count", "lower", SETUP),
    layer("core.dna_measure.busy_ms", "ms", "lower", CONTROL),
    layer("core.dna_measure_1t.busy_ms", "ms", "lower", CONTROL),
    layer("dsp.mask.busy_ms", "ms", "lower", CONTROL),
    layer("link.encode.busy_ms", "ms", "lower", WIRE),
    layer("link.encode.bytes", "B", "lower", WIRE),
    layer("link.crc.busy_ms", "ms", "lower", WIRE),
    layer("link.decode.busy_ms", "ms", "lower", WIRE),
    layer("link.socket.busy_ms", "ms", "lower", WIRE),
    layer("store.tee_encode.busy_ms", "ms", "lower", TEE),
    layer("store.offer.busy_ms", "ms", "lower", TEE),
    layer("store.offer.dropped", "count", "lower", TEE),
    layer("store.finish.busy_ms", "ms", "lower", TEE),
    layer("store.read.busy_ms", "ms", "lower", READ),
    layer("store.read.bytes", "B", "lower", READ),
    layer("store.decode.busy_ms", "ms", "lower", READ),
    layer("station.requests", "count", "higher", COUNT),
    layer("station.frames_served", "count", "higher", COUNT),
    layer("station.frames_dropped", "count", "lower", COUNT),
    layer("station.chunks_sent", "count", "higher", COUNT),
    layer("station.bytes_sent", "B", "higher", COUNT),
    layer("station.queue_peak", "count", "lower", COUNT),
    layer("control.ticks", "count", "lower", FIXED),
    layer("control.actions", "count", "lower", FIXED),
    layer("trace.op_ms", "ms", "lower", TRACE),
    layer("trace.stage_sum_ms", "ms", "lower", TRACE),
    layer("trace.residue_frac", "frac", "lower", TRACE),
    layer("trace.overhead_frac", "frac", "lower", TRACE),
];

/// How far the 1-thread scan may stray from the serial scan, in either
/// order of the pair, before the benchmark calls its own timing invalid:
/// the two are the same configuration, so only the position in the rep
/// can tell them apart. A run fails when the 95% confidence interval of
/// the median ratio lies wholly outside 1 ± this bound, so that a few
/// dozen noisy reps of a long scan cannot fail it by chance.
const VALIDITY_BOUND: f64 = 0.05;
/// The scans of a rep (default threads, 1 thread, serial) run in every
/// order in turn, so each takes every position equally often.
const SCAN_ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];
/// Stage replicas run at least this often, whatever the budget.
const MIN_REPS: usize = 8;

/// Worker threads a default-option scan resolves to for the workload chip.
pub fn scan_threads(inputs: &Inputs) -> Fallible<usize> {
    let chip = NeuroChip::new(neuro_config_from_spec(&inputs.spec)?)?;
    Ok(chip.resolved_scan_threads(ScanOptions::default()))
}

/// Per-rep timings in ms, by metric name, and the validity pair's
/// per-rep time ratios (1 thread ÷ serial) by which of the two ran first.
#[derive(Debug, Default)]
struct Timers {
    spans: BTreeMap<&'static str, Vec<f64>>,
    /// `[1-thread first, serial first]`.
    validity: [Vec<f64>; 2],
}

impl Timers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        self.add(name, start.elapsed());
        out
    }

    fn add(&mut self, name: &'static str, elapsed: Duration) {
        self.spans
            .entry(name)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e3);
    }

    fn median(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |v| median(v))
    }
}

/// Runs the traced run of a workload's `shares` and returns its per-layer
/// outcome.
pub fn run(
    shares: &[Share],
    inputs: &Inputs,
    references: &References,
    store_root: &Path,
    seconds: f64,
    record: &mut RunRecord,
) -> Fallible<Outcome> {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let primary = shares[0].kind;
    let own = [Share {
        kind: primary,
        budget: half,
        min_ops: 3,
    }];
    let mut warm = Tally::default();
    let mut bench = Bench::setup(Shape::NEURO, inputs, store_root, &own, &mut warm)?;
    let before = station_stats(&bench)?;
    let mut pass = Tally::default();
    bench.run_mix(&own, &mut pass)?;
    let after = station_stats(&bench)?;
    for tally in [&mut warm, &mut pass] {
        references.check(tally);
    }

    let mut timers = Timers::default();
    let mut values = BTreeMap::new();
    let mut mismatches: Vec<String> = [&warm, &pass]
        .iter()
        .flat_map(|t| t.mismatches.iter().cloned())
        .collect();
    let stage_sum_ms = match primary {
        Kind::Stream | Kind::Cycle => neuro_stages(
            &bench,
            primary == Kind::Cycle,
            half,
            store_root,
            &pass,
            &mut timers,
            &mut values,
            &mut mismatches,
        )?,
        Kind::Scenario => {
            let requests = (after.requests - before.requests) as f64
                / pass.scenario_counts.scenarios.max(1) as f64;
            control_stages(
                inputs,
                half,
                &pass,
                requests,
                &mut timers,
                &mut values,
                &mut mismatches,
            )?
        }
    };
    let end = station_stats(&bench)?;
    bench.finish();

    // Median of per-rep ratios for each order of the pair on its own: a
    // scan that runs faster or slower for its position in the rep shows
    // as a ratio above 1 in one order and below 1 in the other.
    let ratios = timers.validity.each_ref().map(|r| median(r));
    for (r, order) in timers
        .validity
        .iter()
        .zip(["1-thread first", "serial first"])
    {
        let (lo, hi) = median_interval(r).ok_or("no validity reps")?;
        if lo > 1.0 + VALIDITY_BOUND || hi < 1.0 - VALIDITY_BOUND {
            mismatches.push(format!(
                "validity: with the {order}, the 1-thread scan takes {lo:.3}x to {hi:.3}x the \
                 serial scan (95% interval), outside 1 ± {VALIDITY_BOUND}"
            ));
        }
    }
    let op_ms = pass.mean_op_secs(primary) * 1e3;
    values.insert("trace.op_ms", op_ms);
    values.insert("trace.stage_sum_ms", stage_sum_ms);
    values.insert("trace.residue_frac", 1.0 - stage_sum_ms / op_ms);
    // The only spans inside an operation are the timed decodes, which
    // every run takes: two clock reads per message read.
    let clock_reads = 2.0 * pass.messages as f64 / pass.ops[primary.index()].max(1) as f64;
    values.insert("trace.overhead_frac", clock_reads * clock_read_ms() / op_ms);
    for (name, value) in [
        ("station.requests", end.requests),
        ("station.frames_served", end.frames_served),
        ("station.frames_dropped", end.frames_dropped),
        ("station.chunks_sent", end.chunks_sent),
        ("station.bytes_sent", end.bytes_sent),
        ("station.queue_peak", end.queue_peak),
    ] {
        values.insert(name, value as f64);
    }

    println!(
        "{:<30} {:>14} {:<6} {:<7} should move",
        "layer", "value", "unit", "better"
    );
    let metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|l| {
            let value = values.get(l.name).copied().unwrap_or(0.0);
            println!(
                "{:<30} {:>14.4} {:<6} {:<7} {}",
                l.name, value, l.unit, l.better, l.moves
            );
            Metric {
                name: l.name,
                value,
                unit: l.unit,
            }
        })
        .collect();
    println!(
        "residue: {:.1}% of the {op_ms:.3} ms {} is outside the traced stages; \
         1-thread/serial scan {:.3} (1-thread first), {:.3} (serial first)",
        100.0 * (1.0 - stage_sum_ms / op_ms),
        primary.name(),
        ratios[0],
        ratios[1]
    );

    record.operations = vec![(primary.name(), pass.ops[primary.index()])];
    for (name, samples) in &timers.spans {
        if let Some(q) = quartiles(samples) {
            record.reps.push((name, q, samples.len()));
        }
    }
    for m in &mismatches {
        eprintln!("correctness: {m}");
    }
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
    })
}

fn station_stats(bench: &Bench) -> Fallible<StatsSnapshot> {
    Ok(StationClient::connect(bench.addr(), "stationbench-stats")?.stats()?)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Cost of one `Instant::now` in ms, over many reads.
fn clock_read_ms() -> f64 {
    const READS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    ms(start.elapsed()) / f64::from(READS)
}

/// The `StreamData` messages the station sends for `recording`.
fn stream_chunks(chip: ChipId, recording: &Recording, chunk: u32) -> Vec<Message> {
    let mut first_frame = 0;
    recording
        .frames()
        .chunks(chunk as usize)
        .enumerate()
        .map(|(seq, frames)| {
            let samples: Vec<f64> = frames
                .iter()
                .flat_map(|f| f.samples().iter().copied())
                .collect();
            let msg = Message::StreamData {
                chip,
                seq: seq as u32,
                payload: StreamPayload::NeuroFrames {
                    first_frame,
                    rows: recording.geometry().rows() as u16,
                    cols: recording.geometry().cols() as u16,
                    samples,
                },
            };
            first_frame += frames.len() as u32;
            msg
        })
        .collect()
}

/// Scans `culture` at default threads, at one thread and serially (the
/// validity pair), each timed, in the order [`SCAN_ORDERS`] gives `rep`.
/// Returns the default-thread recording; the pair must reproduce it bit
/// for bit.
fn scan_triplet(
    chip: &mut NeuroChip,
    culture: &bsa_neuro::culture::Culture,
    frames: usize,
    rep: usize,
    timers: &mut Timers,
    mismatches: &mut Vec<String>,
) -> Recording {
    let scans = [
        ("core.scan.busy_ms", ScanOptions::default()),
        ("core.scan_1t.busy_ms", ScanOptions::with_threads(1)),
        ("core.scan_serial.busy_ms", ScanOptions::serial()),
    ];
    let order = SCAN_ORDERS[rep % SCAN_ORDERS.len()];
    // An untimed scan first, so that no timed scan pays for the caches
    // the rest of the rep's work evicted.
    let warm = chip.record_with(culture, Seconds::ZERO, frames, ScanOptions::default());
    chip.recycle(warm);
    let mut recordings: [Option<Recording>; 3] = [None, None, None];
    let mut elapsed = [Duration::ZERO; 3];
    for i in order {
        let (name, opts) = scans[i];
        let start = Instant::now();
        recordings[i] = Some(black_box(chip.record_with(
            culture,
            Seconds::ZERO,
            frames,
            opts,
        )));
        elapsed[i] = start.elapsed();
        timers.add(name, elapsed[i]);
    }
    let one_first = order.iter().position(|&i| i == 1) < order.iter().position(|&i| i == 2);
    timers.validity[usize::from(!one_first)]
        .push(elapsed[1].as_secs_f64() / elapsed[2].as_secs_f64());
    let [recording, one, serial] = recordings.map(|r| r.expect("every scan ran"));
    let hash = recording_hash(&recording);
    for (other, (name, _)) in [one, serial].into_iter().zip(&scans[1..]) {
        if recording_hash(&other) != hash {
            mismatches.push(format!(
                "{name}: frames differ from the default-thread scan"
            ));
        }
        chip.recycle(other);
    }
    recording
}

/// Encodes `chunks` as frames, CRCs them and pushes them through the
/// socket pair, each timed. Returns the encoded frames.
fn wire_stages(
    chunks: &[Message],
    socket: &mut SocketPair,
    timers: &mut Timers,
) -> Fallible<Vec<Vec<u8>>> {
    let encoded: Vec<Vec<u8>> = timers.time("link.encode.busy_ms", || {
        chunks.iter().map(encode_frame).collect()
    });
    timers.time("link.crc.busy_ms", || {
        encoded.iter().fold(0u8, |acc, f| acc ^ crc8(black_box(f)))
    });
    let elapsed = socket.transfer(&encoded)?;
    timers.add("link.socket.busy_ms", elapsed);
    Ok(encoded)
}

/// Stage replicas of a 128×128 stream request or record/replay cycle.
/// Returns the sum of the stages on the operation's blocking path: the
/// scan, then the writer thread's encode and socket writes, then the
/// client's decode of the last chunk (earlier chunks decode while later
/// ones are encoded). A cycle adds the wire stages of the replay, the tee
/// encode and offers, and the segment read and decode; `store.finish` is
/// left out, as the store's writer thread does that work while the live
/// stream is still being encoded.
#[allow(clippy::too_many_arguments)]
fn neuro_stages(
    bench: &Bench,
    cycle: bool,
    budget: Duration,
    store_root: &Path,
    pass: &Tally,
    timers: &mut Timers,
    values: &mut BTreeMap<&'static str, f64>,
    mismatches: &mut Vec<String>,
) -> Fallible<f64> {
    let shape: Shape = bench.shape;
    let frames = shape.frames as usize;
    let mut chip = NeuroChip::new(neuro_config_from_spec(&bench.inputs.spec)?)?;
    let cultures: Vec<_> = bench
        .inputs
        .cultures
        .iter()
        .map(culture_from_spec)
        .collect();
    let mut socket = SocketPair::new()?;
    let meta = SegmentMeta {
        chip: bench.chip(),
        kind: ChipKind::Neuro,
        rows: shape.rows,
        cols: shape.rows,
        config_hash: fnv1a64(format!("{:?}", chip.config()).as_bytes()),
        spec: format!("{:?}", chip.config()),
    };
    let payload_len = frame_payload_len(ChipKind::Neuro, shape.rows, shape.rows);
    let mut pairs = 0;
    let mut bytes = 0;
    let mut read_bytes = 0;
    let mut dropped = 0;
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || start.elapsed() < budget {
        let culture = &cultures[rep % CULTURES];
        let recording = scan_triplet(&mut chip, culture, frames, rep, timers, mismatches);
        timers.time("core.calibrate.busy_ms", || chip.calibrate(Seconds::ZERO));
        timers.time("core.linearize.busy_ms", || chip.relinearize(Seconds::ZERO));
        pairs = timers.time("core.culture_compile.busy_ms", || {
            chip.compile_culture_sources(culture)
        });
        let chunks = stream_chunks(bench.chip(), &recording, shape.chunk);
        bytes = wire_stages(&chunks, &mut socket, timers)?
            .iter()
            .map(Vec::len)
            .sum::<usize>();
        if cycle {
            let payloads: Vec<Vec<u8>> = timers.time("store.tee_encode.busy_ms", || {
                recording
                    .frames()
                    .iter()
                    .map(|f| encode_neuro_frame(f.samples()))
                    .collect()
            });
            let name = format!("trace-{rep}");
            let offer_start = Instant::now();
            let mut recorder =
                Recorder::create(store_root, &name, &meta, payload_len, DEFAULT_QUEUE_DEPTH)?;
            for payload in payloads {
                if matches!(recorder.offer(0, payload)?, Offer::Dropped) {
                    dropped += 1;
                }
            }
            timers.add("store.offer.busy_ms", offer_start.elapsed());
            timers.time("store.finish.busy_ms", || recorder.finish())?;

            let mut read = Duration::ZERO;
            let mut decode = Duration::ZERO;
            let t = Instant::now();
            let mut reader = SegmentReader::open_named(store_root, &name)?;
            read += t.elapsed();
            let mut samples = Vec::with_capacity(payload_len / 8);
            read_bytes = 0;
            for i in 0..reader.frames() {
                let t = Instant::now();
                let frame = reader.frame(i)?;
                read += t.elapsed();
                read_bytes += frame.payload.len();
                let t = Instant::now();
                samples.clear();
                decode_neuro_frame(frame.payload, &mut samples)?;
                decode += t.elapsed();
            }
            timers.add("store.read.busy_ms", read);
            timers.add("store.decode.busy_ms", decode);
            std::fs::remove_file(segment_path(store_root, &name)?)?;
        }
        chip.recycle(recording);
        rep += 1;
    }
    socket.close()?;

    // A cycle moves every frame over the wire twice: live, then replayed.
    let passes = if cycle { 2.0 } else { 1.0 };
    let kind = if cycle { Kind::Cycle } else { Kind::Stream };
    let decode_ms = ms(pass.decode) / pass.ops[kind.index()].max(1) as f64;
    let chunks = f64::from(shape.frames.div_ceil(shape.chunk));
    let t = |name| timers.median(name);
    for name in [
        "link.encode.busy_ms",
        "link.crc.busy_ms",
        "link.socket.busy_ms",
    ] {
        values.insert(name, passes * t(name));
    }
    values.insert("link.encode.bytes", passes * bytes as f64);
    values.insert("link.decode.busy_ms", decode_ms);
    values.insert("core.scan.frames", f64::from(shape.frames));
    values.insert("core.culture_compile.pairs", pairs as f64);
    for name in [
        "core.scan.busy_ms",
        "core.scan_1t.busy_ms",
        "core.calibrate.busy_ms",
        "core.linearize.busy_ms",
        "core.culture_compile.busy_ms",
        "store.tee_encode.busy_ms",
        "store.offer.busy_ms",
        "store.finish.busy_ms",
        "store.read.busy_ms",
        "store.decode.busy_ms",
    ] {
        values.insert(name, t(name));
    }
    if cycle {
        values.insert("store.read.bytes", read_bytes as f64);
        values.insert("store.offer.dropped", f64::from(dropped) / rep as f64);
    }
    let store = [
        "store.tee_encode.busy_ms",
        "store.offer.busy_ms",
        "store.read.busy_ms",
        "store.decode.busy_ms",
    ]
    .iter()
    .map(|n| t(n))
    .sum::<f64>();
    Ok(t("core.scan.busy_ms")
        + passes * (t("link.encode.busy_ms") + t("link.socket.busy_ms"))
        + decode_ms / chunks
        + store)
}

/// Stage replicas at the control scenarios' sizes (a 32×32/8-channel
/// neuro chip observed in 8-frame ticks, a 16×8 DNA chip), scaled by what
/// the traced scenarios did: attaches, calibrations, neuro ticks, masked
/// ticks and DNA assays from their recovery traces, and requests from the
/// station's counter. Returns the per-scenario stage sum.
fn control_stages(
    inputs: &Inputs,
    budget: Duration,
    pass: &Tally,
    requests_per_scenario: f64,
    timers: &mut Timers,
    values: &mut BTreeMap<&'static str, f64>,
    mismatches: &mut Vec<String>,
) -> Fallible<f64> {
    let shape = Shape::TICK;
    let seed = inputs.scenario_seeds[0];
    let neuro_spec = NeuroChipSpec {
        rows: shape.rows,
        cols: shape.rows,
        channels: shape.channels,
        seed,
        frame_rate_hz: crate::workload::REALTIME_HZ,
    };
    // The culture and DNA spec `bsa_control::scenario` uses.
    let culture = culture_from_spec(&CultureSpec {
        seed: 77,
        neuron_count: shape.neurons,
        spike_duration_s: 0.1,
    });
    let dna_spec = DnaChipSpec {
        rows: 8,
        cols: 16,
        seed,
        frame_time_s: 0.0,
    };
    let pixels = usize::from(shape.rows) * usize::from(shape.rows);
    // The dead-pixel scenario masks about 15% of the array.
    let mask = PixelMask::new(
        usize::from(shape.rows),
        usize::from(shape.rows),
        (0..pixels).map(|i| i % 7 != 3).collect(),
    );
    let control = [
        encode_frame(&Message::Ping { token: 1 }),
        encode_frame(&Message::Pong { token: 1 }),
    ];
    let mut socket = SocketPair::new()?;
    let mut pairs = 0;
    let mut bytes = 0;
    let mut counts = Vec::new();
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || start.elapsed() < budget {
        let mut chip = timers.time("core.attach.busy_ms", || {
            neuro_config_from_spec(&neuro_spec).and_then(NeuroChip::new)
        })?;
        timers.time("core.calibrate.busy_ms", || chip.calibrate(Seconds::ZERO));
        let recording = scan_triplet(
            &mut chip,
            &culture,
            shape.frames as usize,
            rep,
            timers,
            mismatches,
        );
        timers.time("core.linearize.busy_ms", || chip.relinearize(Seconds::ZERO));
        pairs = timers.time("core.culture_compile.busy_ms", || {
            chip.compile_culture_sources(&culture)
        });
        let mut frames: Vec<Vec<f64>> = recording
            .frames()
            .iter()
            .map(|f| f.samples().to_vec())
            .collect();
        timers.time("dsp.mask.busy_ms", || {
            for frame in &mut frames {
                mask.interpolate(frame);
            }
        });
        let chunks = stream_chunks(1, &recording, shape.chunk);
        let encoded = wire_stages(&chunks, &mut socket, timers)?;
        bytes = encoded.iter().map(Vec::len).sum::<usize>();
        let decoded = timers.time("link.decode.busy_ms", || {
            encoded.iter().all(|f| decode_frame(f).is_ok())
        });
        // One control request and its reply.
        let small: Vec<Vec<u8>> = timers.time("link.encode_control.busy_ms", || {
            [Message::Ping { token: 1 }, Message::Pong { token: 1 }]
                .iter()
                .map(encode_frame)
                .collect()
        });
        let decoded = decoded
            && timers.time("link.decode_control.busy_ms", || {
                small.iter().all(|f| decode_frame(f).is_ok())
            });
        if !decoded {
            mismatches.push("link: a re-encoded frame failed to decode".to_string());
        }
        timers.time("link.crc_control.busy_ms", || {
            control.iter().fold(0u8, |acc, f| acc ^ crc8(black_box(f)))
        });
        let elapsed = socket.transfer(&control)?;
        timers.add("link.socket_control.busy_ms", elapsed);
        chip.recycle(recording);

        let mut dna = timers.time("core.dna_attach.busy_ms", || {
            dna_config_from_spec(&dna_spec).and_then(DnaChip::new)
        })?;
        timers.time("core.dna_calibrate.busy_ms", || dna.auto_calibrate());
        let currents: Vec<Ampere> = (0..dna.geometry().len())
            .map(|k| Ampere::from_nano(1.0 + 0.05 * k as f64))
            .collect();
        let mut pair = [
            ("core.dna_measure_1t.busy_ms", Some(1)),
            ("core.dna_measure.busy_ms", None),
        ];
        if rep % 2 == 1 {
            pair.reverse();
        }
        for (name, threads) in pair {
            dna.set_scan_threads(threads);
            timers.time(name, || dna.measure_currents_into(&currents, &mut counts))?;
        }
        rep += 1;
    }
    socket.close()?;

    let c = pass.scenario_counts;
    let per = |n: u64| n as f64 / c.scenarios.max(1) as f64;
    let t = |name| timers.median(name);
    let streams = per(c.neuro_streams);
    let scaled = [
        (
            "core.attach.busy_ms",
            per(c.neuro_attaches) * t("core.attach.busy_ms")
                + per(c.dna_attaches) * t("core.dna_attach.busy_ms"),
        ),
        (
            "core.calibrate.busy_ms",
            per(c.neuro_calibrations) * t("core.calibrate.busy_ms")
                + per(c.dna_calibrations) * t("core.dna_calibrate.busy_ms"),
        ),
        ("core.scan.busy_ms", streams * t("core.scan.busy_ms")),
        ("core.scan_1t.busy_ms", streams * t("core.scan_1t.busy_ms")),
        ("core.scan.frames", streams * f64::from(shape.frames)),
        (
            "core.linearize.busy_ms",
            streams * t("core.linearize.busy_ms"),
        ),
        (
            "core.culture_compile.busy_ms",
            streams * t("core.culture_compile.busy_ms"),
        ),
        ("core.culture_compile.pairs", pairs as f64),
        (
            "core.dna_measure.busy_ms",
            per(c.dna_assays) * t("core.dna_measure.busy_ms"),
        ),
        (
            "core.dna_measure_1t.busy_ms",
            per(c.dna_assays) * t("core.dna_measure_1t.busy_ms"),
        ),
        (
            "dsp.mask.busy_ms",
            per(c.masked_streams) * t("dsp.mask.busy_ms"),
        ),
        (
            "link.encode.busy_ms",
            streams * t("link.encode.busy_ms")
                + requests_per_scenario * t("link.encode_control.busy_ms"),
        ),
        ("link.encode.bytes", streams * bytes as f64),
        (
            "link.crc.busy_ms",
            streams * t("link.crc.busy_ms") + requests_per_scenario * t("link.crc_control.busy_ms"),
        ),
        (
            "link.decode.busy_ms",
            streams * t("link.decode.busy_ms")
                + requests_per_scenario * t("link.decode_control.busy_ms"),
        ),
        (
            "link.socket.busy_ms",
            streams * t("link.socket.busy_ms")
                + requests_per_scenario * t("link.socket_control.busy_ms"),
        ),
        ("control.ticks", per(c.ticks)),
        ("control.actions", per(c.actions)),
    ];
    values.extend(scaled);
    Ok([
        "core.attach.busy_ms",
        "core.calibrate.busy_ms",
        "core.scan.busy_ms",
        "core.dna_measure.busy_ms",
        "dsp.mask.busy_ms",
        "link.encode.busy_ms",
        "link.decode.busy_ms",
        "link.socket.busy_ms",
    ]
    .iter()
    .map(|n| values[n])
    .sum())
}

/// A connected loopback TCP pair whose reader thread drains whatever the
/// writer sends, so a transfer's time covers the kernel copy both ways.
#[derive(Debug)]
struct SocketPair {
    writer: TcpStream,
    jobs: mpsc::Sender<usize>,
    done: mpsc::Receiver<()>,
    reader: JoinHandle<std::io::Result<()>>,
}

impl SocketPair {
    fn new() -> Fallible<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let writer = TcpStream::connect(listener.local_addr()?)?;
        writer.set_nodelay(true)?;
        let (mut reader_stream, _) = listener.accept()?;
        let (jobs, job_rx) = mpsc::channel::<usize>();
        let (done_tx, done) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1 << 20];
            for mut remaining in job_rx {
                while remaining > 0 {
                    let n = remaining.min(buf.len());
                    reader_stream.read_exact(&mut buf[..n])?;
                    remaining -= n;
                }
                if done_tx.send(()).is_err() {
                    break;
                }
            }
            Ok(())
        });
        Ok(Self {
            writer,
            jobs,
            done,
            reader,
        })
    }

    /// Writes every frame and waits until the reader has them all.
    fn transfer(&mut self, frames: &[Vec<u8>]) -> Fallible<Duration> {
        let total = frames.iter().map(Vec::len).sum();
        let start = Instant::now();
        self.jobs.send(total)?;
        for frame in frames {
            self.writer.write_all(frame)?;
        }
        self.done.recv()?;
        Ok(start.elapsed())
    }

    fn close(self) -> Fallible<()> {
        drop(self.jobs);
        drop(self.writer);
        self.reader.join().map_err(|_| "socket reader panicked")??;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly these per-layer metrics.
    #[test]
    fn benchmark_json_lists_every_layer() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        for l in LAYERS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name, l.unit, l.better
            );
            assert!(per_layer.contains(&entry), "missing {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), LAYERS.len());
    }
}
