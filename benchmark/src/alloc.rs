//! A counting wrapper around the system allocator.
//!
//! Heap allocations per unit of simulated work are the one cost number two
//! commits can compare free of host noise: on the serial workloads the count
//! repeats exactly. The binary (and the allocator test) install
//! [`CountingAlloc`] as `#[global_allocator]`; without that the counters
//! simply stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed everywhere: the counters are statistics and publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static LIVE_PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with allocation, byte and live-high-water counters.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    LIVE_PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A grow or shrink is one allocation event of the new size.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Counter values since the last [`reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation events (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
    /// Highest number of live heap bytes seen.
    pub live_peak_bytes: u64,
}

/// Zeroes the event and byte counters and restarts the live high-water mark
/// from the bytes live right now.
pub fn reset() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE_PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Reads the counters.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live_peak_bytes: LIVE_PEAK.load(Relaxed),
    }
}
