//! A counting `#[global_allocator]` for the test binaries that pin
//! allocation counts (`alloc_free.rs`, `exact_costs.rs`; each includes this
//! file with `#[path]`, so only they run under it). The counters are per
//! thread: tests run in parallel without seeing each other's allocations,
//! and what a run's worker threads allocate is not counted. Beside the
//! count it keeps the thread's live bytes and their high-water mark
//! ([`peak_bytes_during`]); a `realloc` counts as the new block allocated
//! before the old one is freed, as it is when it cannot grow in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation events (alloc, alloc_zeroed, realloc) on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less bytes freed on it (negative once
    /// it frees more of another thread's than it allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since [`peak_bytes_during`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

// `try_with`: the allocator also runs while a thread's locals are torn down;
// a count lost there is not one a test reads.
fn note_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn note_free(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state
// and (a const-initialized `Cell` without a destructor) never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        note_free(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events on this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` and returns its value with the most bytes this thread held
/// live at once while it ran, above what it held before.
#[allow(dead_code)] // not every test binary that counts allocations asks
pub fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let value = f();
    (value, (PEAK.with(Cell::get) - start) as u64)
}
