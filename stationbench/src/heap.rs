//! Heap high-water mark of the whole process (station and client), kept
//! by a counting wrapper around the system allocator. Unlike `VmHWM` it
//! does not depend on how much freed memory the allocator's per-thread
//! arenas happen to retain (on a 2-vCPU VM, `VmHWM` of identical runs
//! ranged from 100 to 176 MB; this peak stayed within 2%).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and the most ever allocated at once.
/// `Relaxed` is enough: they are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug)]
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are only updated after a successful call and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came
        // from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr`,
        // `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// The heap high-water mark so far, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_large_live_allocation() {
        let before = peak_mb();
        let block = vec![1u8; 64 << 20];
        assert!(peak_mb() >= 64.0, "peak {} MiB with 64 MiB live", peak_mb());
        assert!(peak_mb() >= before);
        drop(block);
        assert!(peak_mb() >= 64.0, "the peak survives the free");
    }
}
