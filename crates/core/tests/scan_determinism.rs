#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically
//! Determinism contracts for the parallel readout engine: recordings must
//! be bit-identical across runs and across worker-thread counts, because
//! every noise draw comes from a per-stream RNG seeded only by (die seed,
//! stream identity) — never from scheduling order.

use bsa_core::array::ArrayGeometry;
use bsa_core::dna_chip::{DnaChip, DnaChipConfig};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig, Recording};
use bsa_core::scan::{channel_stream_seed, conversion_stream_seed};
use bsa_core::ScanOptions;
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_units::{Ampere, Hertz, Meter, Seconds};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn neuro_config() -> NeuroChipConfig {
    NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        frame_rate: Hertz::from_kilo(2.0),
        channels: 4,
        ..NeuroChipConfig::default()
    }
}

fn test_culture() -> Culture {
    let cfg = CultureConfig::default();
    let mut rng = SmallRng::seed_from_u64(42);
    Culture::random(&cfg, &mut rng)
}

fn record_fresh(opts: ScanOptions) -> Recording {
    let mut chip = NeuroChip::new(neuro_config()).unwrap();
    chip.record_with(&test_culture(), Seconds::ZERO, 6, opts)
}

#[test]
fn neuro_recording_is_identical_across_runs() {
    let a = record_fresh(ScanOptions::default());
    let b = record_fresh(ScanOptions::default());
    assert_eq!(a, b, "two identically seeded runs must match bit-for-bit");
}

#[test]
fn neuro_recording_is_identical_across_thread_counts() {
    let serial = record_fresh(ScanOptions::serial());
    for threads in [2, 3, 4, 8] {
        let parallel = record_fresh(ScanOptions::with_threads(threads));
        assert_eq!(
            serial, parallel,
            "recording with {threads} worker threads diverged from serial"
        );
    }
    let auto = record_fresh(ScanOptions::default());
    assert_eq!(serial, auto, "auto thread count diverged from serial");
}

#[test]
fn neuro_uncalibrated_recording_is_thread_count_independent() {
    let culture = test_culture();
    let mut a = NeuroChip::new(neuro_config()).unwrap();
    let mut b = NeuroChip::new(neuro_config()).unwrap();
    let ra = a.record_uncalibrated_with(&culture, Seconds::ZERO, 4, ScanOptions::serial());
    let rb = b.record_uncalibrated_with(&culture, Seconds::ZERO, 4, ScanOptions::with_threads(4));
    assert_eq!(ra, rb);
}

/// Counts of the default DNA die over the 1 nA … 7.35 nA ramp for its
/// first two conversion epochs. Each pixel's noise comes from its own
/// (die seed, epoch, pixel) stream, so these values pin the conversion
/// path bit-for-bit.
const GOLDEN_EPOCH_0: [u64; 128] = [
    101276, 104705, 107346, 114762, 119922, 127760, 126234, 130518, 139854, 141416, 148549, 154737,
    162817, 161644, 172000, 165517, 184072, 187786, 183728, 187419, 202919, 205171, 215798, 221038,
    214275, 228627, 229551, 243679, 251221, 252581, 253551, 261771, 274771, 260621, 267833, 270069,
    281496, 284628, 289444, 301786, 304680, 312767, 311125, 296089, 310851, 332514, 335891, 336042,
    336123, 331954, 360813, 356529, 369804, 369715, 358174, 375777, 386624, 389134, 391122, 383138,
    408626, 416744, 409601, 399640, 414458, 419726, 421291, 427743, 443802, 453208, 443281, 452907,
    459194, 468827, 475493, 455775, 488032, 459437, 499102, 482968, 489265, 524333, 518505, 521172,
    513374, 522687, 509940, 512608, 553976, 550274, 546595, 578534, 551399, 554056, 562373, 560284,
    595068, 584811, 613581, 608606, 682650, 609470, 598409, 619511, 608038, 619972, 633712, 633630,
    644147, 622428, 628761, 659779, 670027, 677370, 656379, 676973, 643683, 667618, 674088, 678855,
    700376, 708496, 695652, 742763, 682230, 756709, 734302, 718686,
];
const GOLDEN_EPOCH_1: [u64; 128] = [
    101274, 104706, 107346, 114761, 119923, 127761, 126235, 130517, 139854, 141417, 148549, 154737,
    162816, 161644, 172000, 165515, 184073, 187786, 183727, 187418, 202918, 205169, 215797, 221037,
    214274, 228627, 229552, 243678, 251220, 252580, 253551, 261770, 274771, 260623, 267833, 270066,
    281496, 284628, 289444, 301785, 304680, 312766, 311125, 296090, 310851, 332515, 335892, 336043,
    336123, 331953, 360813, 356529, 369804, 369714, 358173, 375776, 386623, 389135, 391124, 383138,
    408625, 416742, 409601, 399640, 414456, 419727, 421290, 427741, 443802, 453205, 443282, 452907,
    459193, 468824, 475492, 455776, 488032, 459439, 499103, 482970, 489267, 524333, 518507, 521173,
    513374, 522684, 509940, 512606, 553976, 550274, 546595, 578534, 551399, 554055, 562371, 560283,
    595067, 584811, 613582, 608606, 682650, 609471, 598410, 619512, 608036, 619969, 633713, 633630,
    644146, 622429, 628761, 659780, 670030, 677369, 656380, 676971, 643685, 667616, 674089, 678853,
    700376, 708497, 695652, 742765, 682233, 756708, 734299, 718686,
];

#[test]
fn dna_conversion_counts_match_golden() {
    let currents: Vec<Ampere> = (0..128)
        .map(|k| Ampere::from_nano(1.0 + 0.05 * k as f64))
        .collect();
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    let mut counts = Vec::new();
    chip.measure_currents_into(&currents, &mut counts).unwrap();
    assert_eq!(counts, GOLDEN_EPOCH_0, "epoch 0 counts drifted");
    chip.measure_currents_into(&currents, &mut counts).unwrap();
    assert_eq!(counts, GOLDEN_EPOCH_1, "epoch 1 counts drifted");
}

#[test]
fn dna_repeated_conversions_draw_fresh_noise_but_reproduce() {
    // Same chip, two conversions: different epochs → different noise.
    let currents: Vec<Ampere> = vec![Ampere::from_nano(5.0); 128];
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    let first = chip.measure_currents(&currents).unwrap();
    let second = chip.measure_currents(&currents).unwrap();
    assert_ne!(first, second, "conversion epochs must advance the noise");

    // A fresh chip replays the exact same epoch sequence.
    let mut replay = DnaChip::new(DnaChipConfig::default()).unwrap();
    assert_eq!(replay.measure_currents(&currents).unwrap(), first);
    assert_eq!(replay.measure_currents(&currents).unwrap(), second);
}

proptest! {
    /// Channel streams never alias for any die seed: 256 channels (16×
    /// the paper's channel count) produce 256 distinct seeds, and none
    /// collides with the raw die seed itself.
    #[test]
    fn channel_streams_do_not_alias(die_seed in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for ch in 0..256usize {
            let s = channel_stream_seed(die_seed, ch);
            prop_assert!(seen.insert(s), "channel {ch} aliased another stream");
            prop_assert_ne!(s, die_seed);
        }
    }

    /// Conversion streams stay distinct across epochs and pixels for any
    /// die seed — repeated conversions of the 16×8 array never replay a
    /// pixel's noise stream.
    #[test]
    fn conversion_streams_do_not_alias(die_seed in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..16u64 {
            for pixel in 0..128usize {
                let s = conversion_stream_seed(die_seed, epoch, pixel);
                prop_assert!(
                    seen.insert(s),
                    "epoch {epoch} pixel {pixel} aliased another stream"
                );
            }
        }
    }
}

/// A streamed record lends each scan chunk to its sink and takes the
/// buffers back before scanning the next, so 128 frames of the paper's
/// 128×128 array draw at most one 32-frame chunk of fresh buffers, and
/// the frames are bit-identical to an owned record of the same request.
#[test]
fn streamed_record_holds_one_scan_chunk_of_frames() {
    let culture = test_culture();
    let mut chip = NeuroChip::new(NeuroChipConfig::default()).unwrap();
    let mut streamed = Vec::new();
    chip.record_streamed(&culture, Seconds::ZERO, 128, &mut |chunk| {
        streamed.extend(chunk.iter().map(|f| f.samples().to_vec()));
        std::ops::ControlFlow::Continue(())
    });
    let allocations = chip.arena_stats().allocations;
    assert!(
        allocations <= 32,
        "a 128-frame stream allocated {allocations} frame buffers"
    );

    let owned =
        NeuroChip::new(NeuroChipConfig::default())
            .unwrap()
            .record(&culture, Seconds::ZERO, 128);
    assert_eq!(streamed.len(), owned.len());
    for (s, o) in streamed.iter().zip(owned.frames()) {
        assert!(s
            .iter()
            .zip(o.samples())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
