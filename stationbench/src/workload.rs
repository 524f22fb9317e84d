//! Workloads: the inputs derived from the seed, the station set-up, the
//! three operation kinds, the traffic mix and the correctness gate.
//!
//! Every workload is a closed loop over one client connection (plus one
//! connection per control scenario, which the scenario opens itself):
//! each request is sent only after the previous reply has ended. A
//! workload is a mix of the three operation kinds in which one kind
//! takes most of the run and sets the workload's character; the other
//! kinds run for a small share so that every end-to-end metric is
//! measured on every workload.

use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::wire::{is_refusal, Fallible, SampleHash, Streamed, Wire};
use bsa_control::{scenario, ScenarioReport, TraceEvent};
use bsa_core::neuro_chip::{NeuroChip, Recording};
use bsa_link::{ChipId, CultureSpec, Message, NeuroChipSpec};
use bsa_station::{
    culture_from_spec, neuro_config_from_spec, Station, StationConfig, StationHandle,
};
use bsa_store::segment_path;
use bsa_units::Seconds;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The neural array's frame rate (paper §3): `realtime_x` = 1 means the
/// station delivers frames as fast as the chip produces them.
pub const REALTIME_HZ: f64 = 2000.0;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Distinct cultures per run; requests cycle through them.
pub const CULTURES: usize = 4;
/// Distinct seeds per scenario kind; scenarios cycle through them, so
/// every seed repeats and its trace must repeat byte for byte.
const SCENARIO_SEEDS: usize = 8;
const SCENARIO_KINDS: u64 = 3;

/// The traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NeuroLive,
    RecordReplay,
    ControlLoop,
}

impl Workload {
    pub const ALL: [Self; 3] = [Self::NeuroLive, Self::RecordReplay, Self::ControlLoop];

    pub fn name(self) -> &'static str {
        match self {
            Self::NeuroLive => "neuro_live",
            Self::RecordReplay => "record_replay",
            Self::ControlLoop => "control_loop",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The mix for a run measuring for `seconds`. The first share is the
    /// workload's own operation. Minimum counts keep 100 samples under
    /// every p90. Streams and cycles use [`Shape::NEURO`]; the scenarios
    /// bring their own chips.
    pub fn shares(self, seconds: f64) -> Vec<Share> {
        let share = |kind, fraction: f64, min_ops| Share {
            kind,
            budget: Duration::from_secs_f64(seconds * fraction),
            min_ops,
        };
        match self {
            Self::NeuroLive => vec![
                share(Kind::Stream, 0.7, 100),
                share(Kind::Cycle, 0.15, 4),
                share(Kind::Scenario, 0.15, 100),
            ],
            // The cycles' live halves supply the stream metrics: a
            // separate stream share big enough for a p90 would not fit.
            Self::RecordReplay => vec![
                share(Kind::Cycle, 0.9, 100),
                share(Kind::Scenario, 0.1, 100),
            ],
            // Streams of the full array, not of the scenarios' small
            // chip: the p90 of a 3 ms request is mostly thread wake-ups and
            // moves with the host's load far more than with the program.
            Self::ControlLoop => vec![
                share(Kind::Scenario, 0.55, 100),
                share(Kind::Stream, 0.4, 100),
                share(Kind::Cycle, 0.05, 4),
            ],
        }
    }
}

/// Chip geometry and request size of a workload's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub rows: u16,
    pub channels: u16,
    pub neurons: u32,
    pub frames: u32,
    pub chunk: u32,
}

impl Shape {
    /// The paper's neural array: 128×128 over 16 channels, 128-frame
    /// requests in 16-frame chunks.
    pub const NEURO: Self = Self {
        rows: 128,
        channels: 16,
        neurons: 20,
        frames: 128,
        chunk: 16,
    };
    /// The control scenarios' neuro tick: 32×32 over 8 channels, 8 frames.
    pub const TICK: Self = Self {
        rows: 32,
        channels: 8,
        neurons: 24,
        frames: 8,
        chunk: 8,
    };
}

/// The three operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// One `StartNeuroStream` request.
    Stream,
    /// `StartRecording`, a stream teed to the store, `StopRecording`,
    /// then `Replay` of that segment, which is then deleted.
    Cycle,
    /// One `bsa_control::scenario` drill on a fresh connection.
    Scenario,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Self::Stream => "stream",
            Self::Cycle => "record_replay_cycle",
            Self::Scenario => "scenario",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One operation kind's part of a mix: it runs until it has used its
/// time budget and done its minimum count.
#[derive(Debug, Clone, Copy)]
pub struct Share {
    pub kind: Kind,
    pub budget: Duration,
    pub min_ops: u64,
}

/// Everything the station receives, derived from the workload seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub spec: NeuroChipSpec,
    pub cultures: Vec<CultureSpec>,
    pub scenario_seeds: Vec<u64>,
}

impl Inputs {
    pub fn new(shape: &Shape, seed: u64) -> Self {
        Self {
            spec: NeuroChipSpec {
                rows: shape.rows,
                cols: shape.rows,
                channels: shape.channels,
                seed: mix(seed, 1),
                frame_rate_hz: REALTIME_HZ,
            },
            // Sizes are fixed and only placements vary with the seed, so
            // the work per request does not depend on the seed.
            cultures: (0..CULTURES as u64)
                .map(|i| CultureSpec {
                    seed: mix(seed, 16 + i),
                    neuron_count: shape.neurons,
                    spike_duration_s: 0.1,
                })
                .collect(),
            scenario_seeds: (0..SCENARIO_SEEDS as u64)
                .map(|i| mix(seed, 64 + i))
                .collect(),
        }
    }
}

/// SplitMix64 of `seed + salt`: independent streams from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Client-side timings of one class of complete streamed requests.
#[derive(Debug, Default)]
pub struct Latencies {
    pub first_ms: Vec<f64>,
    pub total_ms: Vec<f64>,
}

impl Latencies {
    fn push(&mut self, s: &Streamed) {
        self.first_ms.push(s.first_chunk.as_secs_f64() * 1e3);
        self.total_ms.push(s.total.as_secs_f64() * 1e3);
    }
}

/// Frames per second of a request that moves `frames` frames in the
/// median of `ms`, as a multiple of the chip's frame rate. The median,
/// not the total, so a slow spell of a shared host moves it less.
fn realtime_x(frames: u32, ms: &[f64]) -> f64 {
    f64::from(frames) / (median(ms) / 1e3) / REALTIME_HZ
}

/// What the control scenarios did, from their recovery traces.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScenarioCounts {
    pub scenarios: u64,
    pub ticks: u64,
    pub actions: u64,
    pub neuro_attaches: u64,
    pub neuro_calibrations: u64,
    pub neuro_streams: u64,
    pub masked_streams: u64,
    pub dna_attaches: u64,
    pub dna_calibrations: u64,
    pub dna_assays: u64,
}

impl ScenarioCounts {
    /// Folds in one report. Every attach (the first and each reattach)
    /// calibrates and takes a baseline observation; each tick observes
    /// once; a mask holds until the next reattach.
    fn add(&mut self, report: &ScenarioReport, neuro: bool) {
        let mut attaches = 1;
        let mut calibrations = 1;
        let mut observations = 1;
        let mut masked = false;
        for event in &report.trace.events {
            match event {
                TraceEvent::Observed { .. } => {
                    observations += 1;
                    self.ticks += 1;
                    self.masked_streams += u64::from(neuro && masked);
                }
                TraceEvent::Executed { action, .. } => {
                    self.actions += 1;
                    match action.as_str() {
                        "reattach" => {
                            attaches += 1;
                            calibrations += 1;
                            observations += 1;
                            masked = false;
                        }
                        "recalibrate" => calibrations += 1,
                        "re_run_assay" => observations += 1,
                        label if label.starts_with("mask_pixels") => masked = true,
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        self.scenarios += 1;
        if neuro {
            self.neuro_attaches += attaches;
            self.neuro_calibrations += calibrations;
            self.neuro_streams += observations;
        } else {
            self.dna_attaches += attaches;
            self.dna_calibrations += calibrations;
            self.dna_assays += observations;
        }
    }
}

/// Everything one pass of operations measured and checked.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Error replies, dropped frames and unrecovered scenarios.
    pub failed: u64,
    /// Correctness-gate failures, each described.
    pub mismatches: Vec<String>,
    /// Operations and client-side seconds per [`Kind`].
    pub ops: [u64; 3],
    pub busy: [f64; 3],
    /// Plain live streams.
    pub live: Latencies,
    /// Live halves of record/replay cycles (streams teed to the store).
    pub teed: Latencies,
    /// Complete cycles: start to stop of the recorded stream, and replay.
    pub record_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    pub scenario_ms: Vec<f64>,
    pub scenario_counts: ScenarioCounts,
    /// `(culture index, hash)` of every complete live stream, checked
    /// against an in-process recording by [`References::check`].
    pub hashes: Vec<(usize, u64)>,
    /// Time in `decode_frame`, and the number of messages it decoded.
    pub decode: Duration,
    pub messages: u64,
}

impl Tally {
    fn add_reads(&mut self, s: &Streamed) {
        self.decode += s.decode;
        self.messages += u64::from(s.messages);
    }

    pub fn mean_op_secs(&self, kind: Kind) -> f64 {
        self.busy[kind.index()] / self.ops[kind.index()].max(1) as f64
    }
}

/// Segment names are unique per process, so a segment left behind by a
/// failed cycle cannot collide with a later one.
static SEGMENTS: AtomicU64 = AtomicU64::new(0);

/// A bound station with the workload's chip attached over one client
/// connection.
#[derive(Debug)]
pub struct Bench {
    station: StationHandle,
    wire: Wire,
    chip: ChipId,
    pub shape: Shape,
    pub inputs: Inputs,
    store_root: PathBuf,
    /// Operations issued per kind; selects the next input.
    issued: [u64; 3],
    /// First trace seen per (scenario kind, seed).
    traces: BTreeMap<(u64, u64), String>,
}

impl Bench {
    /// Binds a station on loopback, attaches the workload's chip and
    /// runs one operation of each kind in `warm_up` (into `tally`).
    pub fn setup(
        shape: Shape,
        inputs: &Inputs,
        store_root: &Path,
        warm_up: &[Share],
        tally: &mut Tally,
    ) -> Fallible<Self> {
        let station = Station::bind(StationConfig {
            store_root: Some(store_root.to_path_buf()),
            ..StationConfig::default()
        })?;
        let mut wire = Wire::connect(station.addr(), "stationbench")?;
        let chip = match wire.call(&Message::AttachNeuro(inputs.spec.clone()))? {
            Message::Attached { chip, .. } => chip,
            other => return Err(format!("expected Attached, got {other:?}").into()),
        };
        let mut bench = Self {
            station,
            wire,
            chip,
            shape,
            inputs: inputs.clone(),
            store_root: store_root.to_path_buf(),
            issued: [0; 3],
            traces: BTreeMap::new(),
        };
        for share in warm_up {
            bench.op(share.kind, tally)?;
        }
        Ok(bench)
    }

    pub fn addr(&self) -> SocketAddr {
        self.station.addr()
    }

    pub fn chip(&self) -> ChipId {
        self.chip
    }

    /// Shuts the station down, waiting for its threads.
    pub fn finish(self) {
        drop(self.wire);
        self.station.shutdown();
    }

    /// Runs the shares interleaved: the next operation always goes to the
    /// share furthest behind its budget, so slow spells of the host fall
    /// on every kind alike.
    pub fn run_mix(&mut self, shares: &[Share], tally: &mut Tally) -> Fallible<()> {
        let mut used = vec![Duration::ZERO; shares.len()];
        let mut done = vec![0u64; shares.len()];
        loop {
            let progress = |j: usize| {
                let share = &shares[j];
                if share.budget.is_zero() {
                    done[j] as f64 / share.min_ops.max(1) as f64
                } else {
                    used[j].as_secs_f64() / share.budget.as_secs_f64()
                }
            };
            let next = (0..shares.len())
                .filter(|&j| used[j] < shares[j].budget || done[j] < shares[j].min_ops)
                .min_by(|&a, &b| progress(a).total_cmp(&progress(b)));
            let Some(j) = next else {
                return Ok(());
            };
            used[j] += self.op(shares[j].kind, tally)?;
            done[j] += 1;
        }
    }

    /// Runs one operation; returns its client-side duration. Refusals and
    /// unrecovered scenarios count as failed; a broken connection aborts.
    pub fn op(&mut self, kind: Kind, tally: &mut Tally) -> Fallible<Duration> {
        let n = self.issued[kind.index()];
        self.issued[kind.index()] += 1;
        tally.attempted += 1;
        let start = Instant::now();
        let result = match kind {
            Kind::Stream => self.stream_op(n, tally),
            Kind::Cycle => self.cycle_op(n, tally),
            Kind::Scenario => self.scenario_op(n, tally),
        };
        let elapsed = start.elapsed();
        match result {
            Ok(true) => {}
            Ok(false) => tally.failed += 1,
            Err(err) if is_refusal(&*err) => tally.failed += 1,
            Err(err) => return Err(err),
        }
        tally.ops[kind.index()] += 1;
        tally.busy[kind.index()] += elapsed.as_secs_f64();
        Ok(elapsed)
    }

    fn stream_request(&self, culture: usize) -> Message {
        Message::StartNeuroStream {
            chip: self.chip,
            frames: self.shape.frames,
            chunk_frames: self.shape.chunk,
            t0_s: 0.0,
            culture: self.inputs.cultures[culture].clone(),
        }
    }

    /// Whether a live stream arrived whole; a whole one is queued for the
    /// reference check.
    fn accept_live(&self, s: &Streamed, culture: usize, tally: &mut Tally) -> bool {
        let whole = s.dropped == 0 && s.frames == self.shape.frames;
        if whole {
            tally.hashes.push((culture, s.hash));
        }
        whole
    }

    fn stream_op(&mut self, n: u64, tally: &mut Tally) -> Fallible<bool> {
        let culture = n as usize % CULTURES;
        let s = self.wire.stream(&self.stream_request(culture))?;
        tally.add_reads(&s);
        let whole = self.accept_live(&s, culture, tally);
        if whole {
            tally.live.push(&s);
        }
        Ok(whole)
    }

    fn cycle_op(&mut self, n: u64, tally: &mut Tally) -> Fallible<bool> {
        let culture = n as usize % CULTURES;
        let name = format!("cycle-{}", SEGMENTS.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        match self.wire.call(&Message::StartRecording {
            chip: self.chip,
            name: name.clone(),
        })? {
            Message::RecordingStarted { .. } => {}
            other => return Err(format!("expected RecordingStarted, got {other:?}").into()),
        }
        let live = self.wire.stream(&self.stream_request(culture))?;
        let stopped = self
            .wire
            .call(&Message::StopRecording { chip: self.chip })?;
        let record_ms = start.elapsed().as_secs_f64() * 1e3;
        let Message::RecordingStopped {
            frames_written,
            frames_dropped,
            ..
        } = stopped
        else {
            return Err(format!("expected RecordingStopped, got {stopped:?}").into());
        };
        let replay_start = Instant::now();
        let replayed = self.wire.stream(&Message::Replay {
            name: name.clone(),
            chunk_frames: self.shape.chunk,
        })?;
        let replay_ms = replay_start.elapsed().as_secs_f64() * 1e3;
        std::fs::remove_file(segment_path(&self.store_root, &name)?)?;

        tally.add_reads(&live);
        tally.add_reads(&replayed);
        if frames_dropped != 0 || frames_written != u64::from(live.frames) {
            tally.mismatches.push(format!(
                "segment {name}: store wrote {frames_written} and dropped {frames_dropped} \
                 of {} live frames",
                live.frames
            ));
        }
        if replayed.hash != live.hash || replayed.frames != live.frames {
            tally.mismatches.push(format!(
                "segment {name}: replay of {} frames differs from the {} live frames",
                replayed.frames, live.frames
            ));
        }
        let whole = self.accept_live(&live, culture, tally) && replayed.dropped == 0;
        if whole {
            tally.teed.push(&live);
            tally.record_ms.push(record_ms);
            tally.replay_ms.push(replay_ms);
        }
        Ok(whole)
    }

    fn scenario_op(&mut self, n: u64, tally: &mut Tally) -> Fallible<bool> {
        self.scenario_at(self.station.addr(), n, tally)
    }

    /// Runs scenario `n` against the station at `addr`. A scenario that
    /// ends in an error, like one that does not recover, fails the
    /// correctness gate as well as counting as failed.
    fn scenario_at(&mut self, addr: SocketAddr, n: u64, tally: &mut Tally) -> Fallible<bool> {
        let kind = n % SCENARIO_KINDS;
        let seed = self.inputs.scenario_seeds[(n / SCENARIO_KINDS) as usize % SCENARIO_SEEDS];
        let start = Instant::now();
        let result = match kind {
            0 => scenario::dead_pixels(addr, seed),
            1 => scenario::channel_loss(addr, seed),
            _ => scenario::baseline_drift(addr, seed),
        };
        let elapsed = start.elapsed();
        let report = match result {
            Ok(report) => report,
            Err(err) => {
                tally
                    .mismatches
                    .push(format!("scenario {kind} seed {seed} failed: {err}"));
                return Ok(false);
            }
        };
        tally.scenario_ms.push(elapsed.as_secs_f64() * 1e3);
        tally.scenario_counts.add(&report, kind != 2);
        if !report.recovered {
            tally.mismatches.push(format!(
                "scenario {} seed {seed} did not recover ({} permille)",
                report.name, report.final_yield_permille
            ));
        }
        match self.traces.entry((kind, seed)) {
            Entry::Vacant(slot) => {
                slot.insert(report.trace.to_json());
            }
            Entry::Occupied(first) => {
                if *first.get() != report.trace.to_json() {
                    tally.mismatches.push(format!(
                        "scenario {} seed {seed}: trace differs from its first run",
                        report.name
                    ));
                }
            }
        }
        Ok(report.recovered)
    }
}

/// [`SampleHash`] of an in-process `NeuroChip::record` of each culture:
/// what a correct stream of that culture carries. Recorded before the
/// station exists, so its memory does not add to the station's peak.
#[derive(Debug, Clone)]
pub struct References(Vec<u64>);

impl References {
    pub fn record(inputs: &Inputs, frames: u32) -> Fallible<Self> {
        let mut chip = NeuroChip::new(neuro_config_from_spec(&inputs.spec)?)?;
        let hashes = inputs
            .cultures
            .iter()
            .map(|culture| {
                let recording =
                    chip.record(&culture_from_spec(culture), Seconds::ZERO, frames as usize);
                let hash = recording_hash(&recording);
                chip.recycle(recording);
                hash
            })
            .collect();
        Ok(Self(hashes))
    }

    /// The correctness gate for streamed frames: every complete live
    /// stream must hash equal to the in-process recording.
    pub fn check(&self, tally: &mut Tally) {
        for &(culture, got) in &tally.hashes {
            if let Some(mismatch) = check_stream(culture, self.0[culture], got) {
                tally.mismatches.push(mismatch);
            }
        }
    }
}

/// [`SampleHash`] over every sample of `recording`, frame by frame: what
/// the station streams for it.
pub fn recording_hash(recording: &Recording) -> u64 {
    let mut hash = SampleHash::default();
    for frame in recording.frames() {
        hash.update(frame.samples());
    }
    hash.finish()
}

/// `None` when a streamed hash matches its reference, else the mismatch.
pub fn check_stream(culture: usize, expected: u64, got: u64) -> Option<String> {
    (expected != got).then(|| {
        format!(
            "culture {culture}: streamed frames hash {got:016x}, in-process record {expected:016x}"
        )
    })
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(tally: &Tally, frames: u32, setup_s: &[f64]) -> Fallible<Vec<Metric>> {
    let live = if tally.live.first_ms.is_empty() {
        &tally.teed
    } else {
        &tally.live
    };
    let pct = |samples: &[f64], p: u32, name: &str| {
        percentile(samples, p)
            .ok_or_else(|| format!("{name}: {} samples carry no p{p}", samples.len()))
    };
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        metric("setup_s", median(setup_s), "s"),
        metric("realtime_x", realtime_x(frames, &live.total_ms), "x"),
        metric(
            "first_chunk_ms_p50",
            pct(&live.first_ms, 50, "first_chunk_ms")?,
            "ms",
        ),
        metric(
            "first_chunk_ms_p90",
            pct(&live.first_ms, 90, "first_chunk_ms")?,
            "ms",
        ),
        metric("stream_ms_p90", pct(&live.total_ms, 90, "stream_ms")?, "ms"),
        metric(
            "record_realtime_x",
            realtime_x(frames, &tally.record_ms),
            "x",
        ),
        metric(
            "replay_realtime_x",
            realtime_x(frames, &tally.replay_ms),
            "x",
        ),
        metric(
            "scenario_ms_p50",
            pct(&tally.scenario_ms, 50, "scenario_ms")?,
            "ms",
        ),
        metric(
            "scenario_ms_p90",
            pct(&tally.scenario_ms, 90, "scenario_ms")?,
            "ms",
        ),
        metric(
            "ok_frac",
            (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
            "frac",
        ),
        metric("peak_heap_mb", crate::heap::peak_mb(), "MB"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        rows: 16,
        channels: 4,
        neurons: 5,
        frames: 16,
        chunk: 8,
    };

    /// Runs a tiny mix; `tag` keeps each test's segment store apart.
    fn run_tiny(workload: Workload, tag: &str) -> (Bench, Tally, References) {
        let mut shares = workload.shares(0.0);
        for share in &mut shares {
            share.min_ops = 4;
        }
        let inputs = Inputs::new(&TINY, 11);
        let references = References::record(&inputs, TINY.frames).expect("references");
        let root = std::env::temp_dir().join(format!("stationbench-{tag}-{}", std::process::id()));
        let mut tally = Tally::default();
        let mut bench = Bench::setup(TINY, &inputs, &root, &shares, &mut tally)
            .expect("set up a loopback station");
        bench.run_mix(&shares, &mut tally).expect("run the mix");
        references.check(&mut tally);
        (bench, tally, references)
    }

    fn assert_gate_passes(workload: Workload) {
        let (bench, tally, _) = run_tiny(workload, workload.name());
        assert!(tally.mismatches.is_empty(), "{:?}", tally.mismatches);
        assert_eq!(tally.failed, 0);
        // One warm-up operation plus four timed ones of each kind.
        assert_eq!(tally.attempted, 5 * workload.shares(0.0).len() as u64);
        assert!(!tally.hashes.is_empty());
        let _ = std::fs::remove_dir_all(&bench.store_root);
        bench.finish();
    }

    #[test]
    fn tiny_neuro_live_passes_its_gate() {
        assert_gate_passes(Workload::NeuroLive);
    }

    #[test]
    fn tiny_record_replay_passes_its_gate() {
        assert_gate_passes(Workload::RecordReplay);
    }

    #[test]
    fn tiny_control_loop_passes_its_gate() {
        assert_gate_passes(Workload::ControlLoop);
    }

    #[test]
    fn a_flipped_sample_fails_the_gate() {
        let (bench, mut tally, references) = run_tiny(Workload::NeuroLive, "flipped");
        assert!(tally.mismatches.is_empty());
        // The frames a correct stream of culture 0 carries, with one
        // sample's lowest bit flipped.
        let mut chip = NeuroChip::new(neuro_config_from_spec(&bench.inputs.spec).unwrap()).unwrap();
        let culture = culture_from_spec(&bench.inputs.cultures[0]);
        let recording = chip.record(&culture, Seconds::ZERO, bench.shape.frames as usize);
        let mut samples: Vec<f64> = recording
            .frames()
            .iter()
            .flat_map(|f| f.samples().to_vec())
            .collect();
        samples[77] = f64::from_bits(samples[77].to_bits() ^ 1);
        let mut flipped = SampleHash::default();
        flipped.update(&samples);
        tally.hashes.clear();
        tally.hashes.push((0, flipped.finish()));
        references.check(&mut tally);
        assert_eq!(tally.mismatches.len(), 1, "{:?}", tally.mismatches);
        let _ = std::fs::remove_dir_all(&bench.store_root);
        bench.finish();
    }

    #[test]
    fn an_errored_scenario_fails_the_gate() {
        let (mut bench, mut tally, _) = run_tiny(Workload::ControlLoop, "errored");
        assert!(tally.mismatches.is_empty());
        // A port nothing listens on: the scenario cannot connect.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free loopback port");
        assert!(!bench
            .scenario_at(dead, 0, &mut tally)
            .expect("a failed scenario is no abort"));
        assert_eq!(tally.mismatches.len(), 1, "{:?}", tally.mismatches);
        let _ = std::fs::remove_dir_all(&bench.store_root);
        bench.finish();
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = Inputs::new(&Shape::NEURO, 5);
        let b = Inputs::new(&Shape::NEURO, 5);
        let c = Inputs::new(&Shape::NEURO, 6);
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.cultures, b.cultures);
        assert_eq!(a.scenario_seeds, b.scenario_seeds);
        assert_ne!(a.spec.seed, c.spec.seed);
        assert_eq!(a.cultures[0].neuron_count, c.cultures[0].neuron_count);
    }
}
