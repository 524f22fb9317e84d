// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used)]
//! Benchmark-regression harness for the readout engine (experiment
//! E-PERF): times the neuro chip's frame scan serial vs parallel and the
//! DNA chip's 16×8 current-to-frequency conversion, and the station's
//! TCP loopback streaming path, then emits machine-readable JSON
//! (`BENCH_neuro.json`, `BENCH_dna.json`, `BENCH_station.json`) so CI
//! can track throughput across commits.
//!
//! The paper's neural chip streams 2 000 frames/s from 128×128 pixels;
//! `realtime_factor` reports how far the simulation is from that rate.
//! The DNA chip integrates for 10 s per measurement frame, so its
//! realtime reference is 0.1 frames/s.
//!
//! Usage: `bench_readout [--quick] [--frames N] [--threads N] [--out DIR]`

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use bsa_bench::banner;
use bsa_core::array::ArrayGeometry;
use bsa_core::dna_chip::{DnaChip, DnaChipConfig};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig};
use bsa_core::{ScanMode, ScanOptions};
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_units::{Ampere, Meter, Seconds};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The paper's full-array neural frame rate (§3).
const NEURO_REALTIME_HZ: f64 = 2000.0;

struct Args {
    quick: bool,
    frames: Option<usize>,
    threads: Option<usize>,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        frames: None,
        threads: None,
        out: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--frames" => {
                let v = it.next().expect("--frames needs a value");
                args.frames = Some(v.parse().expect("--frames must be a positive integer"));
            }
            "--threads" => {
                let v = it.next().expect("--threads needs a value");
                args.threads = Some(v.parse().expect("--threads must be a positive integer"));
            }
            "--out" => {
                let v = it.next().expect("--out needs a directory");
                args.out = PathBuf::from(v);
            }
            other => panic!("unknown argument {other:?} (try --quick/--frames/--threads/--out)"),
        }
    }
    args
}

/// A finite f64 as a JSON number (non-finite values would break parsers).
fn jnum(x: f64) -> String {
    assert!(x.is_finite(), "benchmark produced a non-finite number");
    format!("{x}")
}

/// Best-of-`reps` wall time of one warm-arena record call, in seconds.
fn time_neuro(
    chip: &mut NeuroChip,
    culture: &Culture,
    frames: usize,
    opts: ScanOptions,
    reps: usize,
) -> f64 {
    // Warm-up fills the arena so timed runs reuse every frame buffer.
    let warm = chip.record_with(culture, Seconds::ZERO, frames, opts);
    chip.recycle(warm);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let recording = chip.record_with(culture, Seconds::ZERO, frames, opts);
        best = best.min(start.elapsed().as_secs_f64());
        chip.recycle(recording);
    }
    best
}

fn bench_neuro(args: &Args) -> String {
    let (rows, channels, frames, reps) = if args.quick {
        (16usize, 4usize, args.frames.unwrap_or(16), 3usize)
    } else {
        // 128 frames = 64 ms of data: long enough to amortize the
        // per-recalibration-interval calibrate + re-linearize over the
        // steady-state inner loop, as a live acquisition loop would.
        // Five reps (min taken) because the realtime-factor headline is
        // gated in CI and single-core runners see multi-ms steal bursts.
        (128, 16, args.frames.unwrap_or(128), 5)
    };
    // The full EKV solve is ~30× slower per frame; cap its timed run so
    // the reference numbers stay affordable and compare per-frame rates.
    let ref_frames = frames.min(32);
    let config = NeuroChipConfig {
        geometry: ArrayGeometry::new(rows, rows, Meter::from_micro(7.8)).unwrap(),
        channels,
        ..NeuroChipConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(7);
    let cfg = CultureConfig {
        neuron_count: if args.quick { 5 } else { 20 },
        mean_rate_hz: 20.0,
        ..CultureConfig::default()
    };
    let mut culture = Culture::random(&cfg, &mut rng);
    culture.generate_spikes(Seconds::from_milli(100.0), &mut rng);

    let mut chip = NeuroChip::new(config).unwrap();
    chip.calibrate(Seconds::ZERO);
    let parallel_opts = match args.threads {
        Some(n) => ScanOptions::with_threads(n),
        None => ScanOptions::default(),
    };
    let threads_resolved = chip.resolved_scan_threads(parallel_opts);

    let fast_serial_s = time_neuro(&mut chip, &culture, frames, ScanOptions::serial(), reps);
    let fast_parallel_s = time_neuro(&mut chip, &culture, frames, parallel_opts, reps);
    let ref_serial_s = time_neuro(
        &mut chip,
        &culture,
        ref_frames,
        ScanOptions::serial().with_mode(ScanMode::Reference),
        reps,
    );
    let ref_parallel_s = time_neuro(
        &mut chip,
        &culture,
        ref_frames,
        parallel_opts.with_mode(ScanMode::Reference),
        reps,
    );

    // Per-stage costs of the fast path's setup work, measured through the
    // public stage entry points on warm buffers.
    let stage_calibrate_s = {
        let start = Instant::now();
        chip.calibrate(Seconds::ZERO);
        start.elapsed().as_secs_f64()
    };
    let stage_linearize_s = {
        chip.relinearize(Seconds::ZERO); // warm the coefficient tables
        let start = Instant::now();
        chip.relinearize(Seconds::ZERO);
        start.elapsed().as_secs_f64()
    };
    let (stage_culture_compile_s, culture_pairs) = {
        chip.compile_culture_sources(&culture); // warm the source tables
        let start = Instant::now();
        let pairs = chip.compile_culture_sources(&culture);
        (start.elapsed().as_secs_f64(), pairs)
    };

    let pixels = rows * rows;
    let fps_serial = frames as f64 / fast_serial_s;
    let fps_parallel = frames as f64 / fast_parallel_s;
    let fps_ref_serial = ref_frames as f64 / ref_serial_s;
    let fps_ref_parallel = ref_frames as f64 / ref_parallel_s;
    // Headline speedup: the tentpole comparison — reference full solve,
    // serial, vs the linearized fast path on the parallel fan-out.
    let speedup = fps_parallel / fps_ref_serial;
    let parallel_speedup = fps_parallel / fps_serial;
    let realtime = fps_parallel / NEURO_REALTIME_HZ;
    let stats = chip.arena_stats();

    println!(
        "neuro {rows}x{rows}/{channels}ch, {frames} frames ({threads_resolved} threads): \
         fast {fps_serial:.1}/{fps_parallel:.1} frames/s serial/parallel, \
         reference {fps_ref_serial:.1}/{fps_ref_parallel:.1} \
         (speedup x{speedup:.2} vs reference serial, {realtime:.3}x realtime)"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bsa-bench-readout/v1\",");
    let _ = writeln!(json, "  \"chip\": \"neuro\",");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"cols\": {rows},");
    let _ = writeln!(json, "  \"channels\": {channels},");
    let _ = writeln!(json, "  \"frames\": {frames},");
    let _ = writeln!(json, "  \"reference_frames\": {ref_frames},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(
        json,
        "  \"threads_requested\": {},",
        parallel_threads_label(args.threads)
    );
    let _ = writeln!(json, "  \"threads_resolved\": {threads_resolved},");
    let _ = writeln!(json, "  \"mode\": \"linearized\",");
    let _ = writeln!(json, "  \"serial_s\": {},", jnum(fast_serial_s));
    let _ = writeln!(json, "  \"parallel_s\": {},", jnum(fast_parallel_s));
    let _ = writeln!(json, "  \"reference_serial_s\": {},", jnum(ref_serial_s));
    let _ = writeln!(
        json,
        "  \"reference_parallel_s\": {},",
        jnum(ref_parallel_s)
    );
    let _ = writeln!(json, "  \"frames_per_s_serial\": {},", jnum(fps_serial));
    let _ = writeln!(json, "  \"frames_per_s_parallel\": {},", jnum(fps_parallel));
    let _ = writeln!(
        json,
        "  \"frames_per_s_reference_serial\": {},",
        jnum(fps_ref_serial)
    );
    let _ = writeln!(
        json,
        "  \"frames_per_s_reference_parallel\": {},",
        jnum(fps_ref_parallel)
    );
    let _ = writeln!(
        json,
        "  \"pixel_samples_per_s\": {},",
        jnum(fps_parallel * pixels as f64)
    );
    let _ = writeln!(json, "  \"speedup\": {},", jnum(speedup));
    let _ = writeln!(json, "  \"parallel_speedup\": {},", jnum(parallel_speedup));
    let _ = writeln!(json, "  \"realtime_hz\": {},", jnum(NEURO_REALTIME_HZ));
    let _ = writeln!(json, "  \"realtime_factor\": {},", jnum(realtime));
    let _ = writeln!(json, "  \"stages\": {{");
    let _ = writeln!(json, "    \"calibrate_s\": {},", jnum(stage_calibrate_s));
    let _ = writeln!(json, "    \"linearize_s\": {},", jnum(stage_linearize_s));
    let _ = writeln!(
        json,
        "    \"culture_compile_s\": {},",
        jnum(stage_culture_compile_s)
    );
    let _ = writeln!(json, "    \"culture_source_pairs\": {culture_pairs}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"arena_allocations\": {},", stats.allocations);
    let _ = writeln!(json, "  \"arena_reuses\": {}", stats.reuses);
    json.push('}');
    json.push('\n');
    json
}

fn parallel_threads_label(threads: Option<usize>) -> String {
    match threads {
        Some(n) => n.to_string(),
        None => "\"auto\"".to_string(),
    }
}

fn bench_dna(args: &Args) -> String {
    let reps = if args.quick { 20 } else { 200 };
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    let n = chip.geometry().len();
    let currents: Vec<Ampere> = (0..n)
        .map(|k| Ampere::from_nano(1.0 + 0.05 * k as f64))
        .collect();
    let frame_time = chip.config().frame_time.value();

    // Array conversions always run serially, so one timed loop serves
    // both the serial and the "parallel" fields of the record.
    let mut counts = Vec::new();
    chip.measure_currents_into(&currents, &mut counts).unwrap();
    let start = Instant::now();
    for _ in 0..reps {
        chip.measure_currents_into(&currents, &mut counts).unwrap();
    }
    let serial_s = start.elapsed().as_secs_f64() / reps as f64;
    let fps = 1.0 / serial_s;
    // The chip integrates 10 s per frame: realtime is 1/frame_time.
    let realtime_hz = 1.0 / frame_time;
    let realtime = fps / realtime_hz;

    println!("dna 16x8, {reps} conversions: serial {fps:.0} frames/s ({realtime:.0}x realtime)");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bsa-bench-readout/v1\",");
    let _ = writeln!(json, "  \"chip\": \"dna\",");
    let _ = writeln!(json, "  \"rows\": 16,");
    let _ = writeln!(json, "  \"cols\": 8,");
    let _ = writeln!(json, "  \"pixels\": {n},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"serial_s\": {},", jnum(serial_s));
    let _ = writeln!(json, "  \"parallel_s\": {},", jnum(serial_s));
    let _ = writeln!(json, "  \"frames_per_s_serial\": {},", jnum(fps));
    let _ = writeln!(json, "  \"frames_per_s_parallel\": {},", jnum(fps));
    let _ = writeln!(json, "  \"pixel_samples_per_s\": {},", jnum(fps * n as f64));
    let _ = writeln!(json, "  \"speedup\": 1,");
    let _ = writeln!(json, "  \"realtime_hz\": {},", jnum(realtime_hz));
    let _ = writeln!(json, "  \"realtime_factor\": {}", jnum(realtime));
    json.push('}');
    json.push('\n');
    json
}

/// Times the full wire path: an in-process station serves neuro frames
/// over real loopback TCP, measured end to end at the client. The figure
/// includes chip simulation, codec, CRC, and socket round trips — the
/// cost of serving vs the in-process `bench_neuro` numbers.
fn bench_station(args: &Args) -> String {
    use bsa_link::{CultureSpec, NeuroChipSpec};
    use bsa_station::{Station, StationClient, StationConfig};

    let (rows, channels, frames, reps) = if args.quick {
        (16u16, 4u16, args.frames.unwrap_or(32) as u32, 3usize)
    } else {
        (128, 16, args.frames.unwrap_or(64) as u32, 3)
    };
    let spec = NeuroChipSpec {
        rows,
        cols: rows,
        channels,
        seed: 0x0EE5_1281,
        frame_rate_hz: 0.0,
    };
    let culture = CultureSpec {
        seed: 7,
        neuron_count: if args.quick { 5 } else { 20 },
        spike_duration_s: f64::from(frames) / 2000.0,
    };

    let station = Station::bind(StationConfig::default()).expect("bind loopback station");
    let mut client = StationClient::connect(station.addr(), "bench").expect("connect");
    let attached = client.attach_neuro(&spec).expect("attach neuro chip");

    let chunk = 8u32;
    // Warm-up pass (fills the chip's frame arena, warms the stack).
    let bytes_before = station.stats().bytes_sent;
    client
        .stream_neuro(attached.chip, frames, chunk, Seconds::ZERO, &culture)
        .expect("warm-up stream");
    let bytes_per_stream = station.stats().bytes_sent - bytes_before;

    let mut best = f64::INFINITY;
    let mut dropped_total = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let stream = client
            .stream_neuro(attached.chip, frames, chunk, Seconds::ZERO, &culture)
            .expect("timed stream");
        best = best.min(start.elapsed().as_secs_f64());
        dropped_total += u64::from(stream.frames_dropped);
    }

    let fps = f64::from(frames) / best;
    let bytes_per_s = bytes_per_stream as f64 / best;
    let realtime = fps / NEURO_REALTIME_HZ;

    println!(
        "station {rows}x{rows}/{channels}ch loopback, {frames} frames: \
         {fps:.1} frames/s over TCP ({:.1} MB/s, {:.3}x realtime, {dropped_total} dropped)",
        bytes_per_s / 1e6,
        realtime
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bsa-bench-station/v1\",");
    let _ = writeln!(json, "  \"transport\": \"tcp-loopback\",");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"cols\": {rows},");
    let _ = writeln!(json, "  \"channels\": {channels},");
    let _ = writeln!(json, "  \"frames\": {frames},");
    let _ = writeln!(json, "  \"chunk_frames\": {chunk},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"stream_s\": {},", jnum(best));
    let _ = writeln!(json, "  \"frames_per_s\": {},", jnum(fps));
    let _ = writeln!(json, "  \"bytes_per_stream\": {bytes_per_stream},");
    let _ = writeln!(json, "  \"bytes_per_s\": {},", jnum(bytes_per_s));
    let _ = writeln!(json, "  \"frames_dropped\": {dropped_total},");
    let _ = writeln!(json, "  \"realtime_hz\": {},", jnum(NEURO_REALTIME_HZ));
    let _ = writeln!(json, "  \"realtime_factor\": {}", jnum(realtime));
    json.push('}');
    json.push('\n');
    json
}

/// Times the persistence path (experiment E-STORE): segment writes
/// through `bsa-store`'s queued writer thread, then wire-level replay of
/// the same segment through a loopback station — the record/replay cost
/// relative to the live streaming numbers above.
fn bench_store(args: &Args) -> String {
    use bsa_link::ChipKind;
    use bsa_station::{Station, StationClient, StationConfig};
    use bsa_store::{encode_neuro_frame, fnv1a64, frame_payload_len, Recorder, SegmentMeta};

    let (rows, frames, reps) = if args.quick {
        (16usize, args.frames.unwrap_or(256), 3usize)
    } else {
        (128, args.frames.unwrap_or(256), 5)
    };
    let pixels = rows * rows;
    let payload_len = frame_payload_len(ChipKind::Neuro, rows as u16, rows as u16);

    // Pre-encoded, bit-diverse frames: the timed loop measures the queue
    // hand-off and writer thread, not sample synthesis.
    let payloads: Vec<Vec<u8>> = (0..frames)
        .map(|f| {
            let samples: Vec<f64> = (0..pixels)
                .map(|p| (f * pixels + p) as f64 * 1e-6 - 0.5)
                .collect();
            encode_neuro_frame(&samples)
        })
        .collect();

    let root = std::env::temp_dir().join(format!("bsa-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let meta = SegmentMeta {
        chip: 1,
        kind: ChipKind::Neuro,
        rows: rows as u16,
        cols: rows as u16,
        config_hash: fnv1a64(b"bench"),
        spec: "bench".to_string(),
    };

    // Write path: best-of-reps over fresh segments; `finish` joins the
    // writer thread, so the elapsed time covers full persistence. The
    // queue is sized to the offer count so throughput is not distorted
    // by drop-and-count backpressure.
    let mut best_write = f64::INFINITY;
    let mut bytes_written = 0u64;
    for rep in 0..reps {
        let name = format!("bench-{rep}");
        let start = Instant::now();
        let mut recorder =
            Recorder::create(&root, &name, &meta, payload_len, frames).expect("create segment");
        for payload in &payloads {
            recorder.offer(0, payload.clone()).expect("offer frame");
        }
        let summary = recorder.finish().expect("finalize segment");
        best_write = best_write.min(start.elapsed().as_secs_f64());
        assert_eq!(summary.frames_dropped, 0, "queue sized to cover offers");
        bytes_written = summary.bytes_written;
    }
    let write_fps = frames as f64 / best_write;
    let write_bytes_per_s = bytes_written as f64 / best_write;

    // Replay path: the finished segment served back over loopback TCP
    // with the live-stream grammar, measured end to end at the client.
    let station = Station::bind(StationConfig {
        store_root: Some(root.clone()),
        ..StationConfig::default()
    })
    .expect("bind loopback station");
    let mut client = StationClient::connect(station.addr(), "bench").expect("connect");
    let bytes_before = station.stats().bytes_sent;
    let warm = client.replay("bench-0", 0).expect("warm-up replay");
    assert_eq!(warm.frames.len(), frames, "replay returns every frame");
    let bytes_per_replay = station.stats().bytes_sent - bytes_before;
    let mut best_replay = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        client.replay("bench-0", 0).expect("timed replay");
        best_replay = best_replay.min(start.elapsed().as_secs_f64());
    }
    let replay_fps = frames as f64 / best_replay;
    let replay_bytes_per_s = bytes_per_replay as f64 / best_replay;
    drop(client);
    let _ = std::fs::remove_dir_all(&root);

    println!(
        "store {rows}x{rows}, {frames} frames: write {write_fps:.0} frames/s \
         ({:.1} MB/s to disk), replay {replay_fps:.0} frames/s over TCP ({:.1} MB/s)",
        write_bytes_per_s / 1e6,
        replay_bytes_per_s / 1e6
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bsa-bench-store/v1\",");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"cols\": {rows},");
    let _ = writeln!(json, "  \"frames\": {frames},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"segment_bytes\": {bytes_written},");
    let _ = writeln!(json, "  \"write_s\": {},", jnum(best_write));
    let _ = writeln!(json, "  \"write_frames_per_s\": {},", jnum(write_fps));
    let _ = writeln!(
        json,
        "  \"write_bytes_per_s\": {},",
        jnum(write_bytes_per_s)
    );
    let _ = writeln!(json, "  \"replay_s\": {},", jnum(best_replay));
    let _ = writeln!(json, "  \"replay_frames_per_s\": {},", jnum(replay_fps));
    let _ = writeln!(
        json,
        "  \"replay_bytes_per_s\": {},",
        jnum(replay_bytes_per_s)
    );
    let _ = writeln!(json, "  \"replay_transport\": \"tcp-loopback\"");
    json.push('}');
    json.push('\n');
    json
}

fn main() {
    let args = parse_args();
    banner(
        "E-PERF",
        "readout-engine throughput (regression harness)",
        "128x128 pixels stream at 2 kframes/s over 16 parallel channels",
    );

    let neuro = bench_neuro(&args);
    let dna = bench_dna(&args);
    let station = bench_station(&args);
    let store = bench_store(&args);

    std::fs::create_dir_all(&args.out).expect("create output directory");
    let neuro_path = args.out.join("BENCH_neuro.json");
    let dna_path = args.out.join("BENCH_dna.json");
    let station_path = args.out.join("BENCH_station.json");
    let store_path = args.out.join("BENCH_store.json");
    std::fs::write(&neuro_path, neuro).expect("write BENCH_neuro.json");
    std::fs::write(&dna_path, dna).expect("write BENCH_dna.json");
    std::fs::write(&station_path, station).expect("write BENCH_station.json");
    std::fs::write(&store_path, store).expect("write BENCH_store.json");
    println!(
        "wrote {}, {}, {} and {}",
        neuro_path.display(),
        dna_path.display(),
        station_path.display(),
        store_path.display()
    );
}
