//! Shared readout-engine infrastructure used by both chip pipelines:
//! scan options, deterministic RNG stream derivation, and the
//! allocation-free frame arena.
//!
//! Determinism contract: every noise draw in a scan comes from a stream
//! whose seed is a pure function of (die seed, stream identity). Workers
//! never share an RNG, so fanning the work out over any number of threads
//! cannot change a single sample — parallel and serial runs are
//! bit-identical.

use std::sync::{Mutex, PoisonError};

/// Salt folded into the die seed for the neuro chip's frame-noise stream
/// family, chosen so channel streams cannot collide with the other
/// per-die derived seeds (`seed ^ 0x6A1` for gain maps, `seed ^ 0xBEEF`
/// for offset maps).
const FRAME_STREAM_SALT: u64 = 0xF0F0;

/// Salt for the DNA chip's conversion-noise stream family.
const CONVERSION_STREAM_SALT: u64 = 0xD4A;

/// SplitMix64-style finalizer over a die seed, a family salt and a
/// stream index: decorrelates adjacent indices so per-stream `SmallRng`s
/// start in unrelated regions of the seed space.
pub fn stream_seed(die_seed: u64, salt: u64, index: u64) -> u64 {
    let mut z = die_seed ^ salt ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of one neuro-chip output channel's frame-noise RNG stream.
pub fn channel_stream_seed(die_seed: u64, channel: usize) -> u64 {
    stream_seed(die_seed, FRAME_STREAM_SALT, channel as u64)
}

/// Seed of one DNA-chip pixel's conversion-noise RNG stream for one
/// conversion epoch (each array-wide conversion advances the epoch, so
/// repeated conversions draw fresh noise yet stay reproducible).
pub fn conversion_stream_seed(die_seed: u64, epoch: u64, pixel: usize) -> u64 {
    stream_seed(
        stream_seed(die_seed, CONVERSION_STREAM_SALT, epoch),
        CONVERSION_STREAM_SALT,
        pixel as u64,
    )
}

/// Which evaluation path a neuro scan uses for the per-sample pixel
/// current. Either way the output is bit-identical across thread counts;
/// the two modes differ from each other only by the documented
/// linearization tolerance (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Calibrated linearized fast path: per-pixel small-signal transfer
    /// coefficients and precompiled culture source lists, re-linearized at
    /// every recalibration boundary. The default.
    #[default]
    Linearized,
    /// Full per-sample EKV circuit solve — the bit-exact reference path.
    Reference,
}

/// Options controlling how a readout is fanned out over worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanOptions {
    /// Worker count for a neuro scan: exactly this many workers (the
    /// caller plus scoped threads), capped at the channel count. `None`
    /// picks the OS-reported available parallelism; `Some(1)` runs every
    /// channel inline on the caller's thread. Output is identical for
    /// every setting — per-stream RNGs make the scan
    /// scheduling-independent. DNA conversions always run serially.
    pub threads: Option<usize>,
    /// Evaluation path for neuro scans (DNA conversions ignore this).
    pub mode: ScanMode,
}

impl ScanOptions {
    /// Options forcing fully serial execution.
    pub fn serial() -> Self {
        Self {
            threads: Some(1),
            mode: ScanMode::default(),
        }
    }

    /// Options requesting a specific worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
            mode: ScanMode::default(),
        }
    }

    /// Options selecting the full-solve reference path (auto threads).
    pub fn reference() -> Self {
        Self {
            threads: None,
            mode: ScanMode::Reference,
        }
    }

    /// Returns these options with the given evaluation mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ScanMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Resolves the effective worker count for `units` parallel work units:
/// the requested count (default: the OS-reported available parallelism),
/// at least 1 and at most `units`.
pub(crate) fn resolve_threads(units: usize, opts: ScanOptions) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, usize::from);
    opts.threads.unwrap_or(auto).max(1).min(units.max(1))
}

/// Runs `f` once on every item over exactly `min(threads, items.len())`
/// workers: the caller plus that many minus one scoped threads, each
/// claiming the next unclaimed item from a shared queue. At one worker the
/// items run inline and in order on the caller's thread. A panic in any
/// item propagates to the caller once every worker has stopped.
pub(crate) fn fan_out<T: Send>(threads: usize, items: Vec<T>, f: impl Fn(T) + Sync) {
    let workers = threads.min(items.len());
    if workers <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    let queue = Mutex::new(items.into_iter());
    let work = || loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some(item) => f(item),
            None => break,
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
}

/// Statistics of a [`FrameArena`]'s buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Frame buffers allocated fresh from the heap.
    pub allocations: u64,
    /// Frame buffers served from the recycle pool.
    pub reuses: u64,
}

/// A pool of frame buffers: recordings recycled into the arena donate
/// their sample buffers back, so a steady-state record loop allocates no
/// per-frame memory.
#[derive(Debug, Clone, Default)]
pub struct FrameArena {
    free: Vec<Vec<f64>>,
    /// Channel-major scratch for in-flight scan chunks, reused across
    /// chunks and record calls.
    pub(crate) stripe: Vec<f64>,
    stats: ArenaStats,
}

impl FrameArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires a zeroed buffer of `len` samples, reusing a pooled buffer
    /// when one is available.
    pub(crate) fn acquire(&mut self, len: usize) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                self.stats.reuses += 1;
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.stats.allocations += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a sample buffer to the pool.
    pub(crate) fn release(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }

    /// Number of pooled buffers currently available.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Pool statistics since the arena was created.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn channel_streams_do_not_collide_on_adjacent_indices() {
        let die = 0x0EE5_1281;
        let seeds: Vec<u64> = (0..16).map(|ch| channel_stream_seed(die, ch)).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "channels {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn conversion_streams_differ_across_epochs_and_pixels() {
        let die = 0xD9A_C819;
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..8u64 {
            for pixel in 0..128usize {
                assert!(
                    seen.insert(conversion_stream_seed(die, epoch, pixel)),
                    "epoch {epoch} pixel {pixel} aliases an earlier stream"
                );
            }
        }
    }

    #[test]
    fn arena_reuses_recycled_buffers() {
        let mut arena = FrameArena::new();
        let a = arena.acquire(64);
        assert_eq!(arena.stats().allocations, 1);
        arena.release(a);
        let b = arena.acquire(64);
        assert_eq!(arena.stats().reuses, 1);
        assert_eq!(arena.stats().allocations, 1);
        assert!(b.iter().all(|&x| x == 0.0), "reused buffers are zeroed");
    }

    #[test]
    fn thread_resolution_clamps_to_work_units() {
        assert_eq!(resolve_threads(16, ScanOptions::serial()), 1);
        let t = resolve_threads(4, ScanOptions::with_threads(64));
        assert!((1..=4).contains(&t));
        let auto = resolve_threads(16, ScanOptions::default());
        assert!((1..=16).contains(&auto));
    }

    #[test]
    fn fan_out_runs_every_item_exactly_once() {
        let n = 16;
        for threads in [1, 2, 3, n, n + 5] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            fan_out(threads, (0..n).collect(), |i: usize| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "item {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn fan_out_at_one_thread_runs_inline_in_order() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        fan_out(1, (0..8).collect(), |i: usize| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(seen.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_propagates_a_panicking_item() {
        for threads in [1, 3] {
            let result = std::panic::catch_unwind(|| {
                fan_out(threads, (0..8).collect(), |i: usize| {
                    assert_ne!(i, 5, "item 5 fails");
                });
            });
            assert!(result.is_err(), "panic lost at {threads} threads");
        }
    }
}
