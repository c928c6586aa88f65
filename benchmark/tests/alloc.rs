//! The counting allocator, installed for this test binary alone. One test
//! function: the counters are process-wide, so nothing else may allocate
//! while a pattern is counted.

use std::sync::{Arc, Barrier};

use bfc_benchmark::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// 100 boxes, one vector grown once by `reserve`, then everything freed:
/// 102 allocation events of 100*8 + 64 + 1024 bytes.
fn known_pattern() {
    let boxes: Vec<Box<u64>> = {
        let mut v = Vec::new();
        v.reserve_exact(100); // event 1: 800 bytes
        v.extend((0..100u64).map(Box::new)); // events 2..=101: 8 bytes each
        v
    };
    let mut bytes: Vec<u8> = Vec::with_capacity(64); // event 102: 64 bytes
    bytes.extend(std::iter::repeat_n(7u8, 64));
    bytes.reserve_exact(960); // event 103: a realloc to 1024 bytes
    std::hint::black_box((&boxes, &bytes));
}

const PATTERN_EVENTS: u64 = 103;
const PATTERN_BYTES: u64 = 800 + 100 * 8 + 64 + 1024;

#[test]
fn allocation_counts_are_exact_on_one_thread_and_across_two() {
    // One thread.
    alloc::reset();
    known_pattern();
    let one = alloc::stats();
    assert_eq!(one.allocs, PATTERN_EVENTS);
    assert_eq!(one.bytes, PATTERN_BYTES);
    // At the peak the 100 boxes, their vector and the grown buffer are live.
    assert!(one.live_peak_bytes >= 800 + 800 + 1024);

    // The counters restart from zero and repeat exactly.
    alloc::reset();
    known_pattern();
    assert_eq!(alloc::stats().allocs, PATTERN_EVENTS);

    // Two threads (the shard count of `incast_t1_shard2`) running the pattern
    // at the same moment: nothing is lost to the race. The barrier forces
    // the overlap; spawning is outside the counted region.
    let barrier = Arc::new(Barrier::new(3));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait(); // start line
                for _ in 0..50 {
                    known_pattern();
                }
                barrier.wait(); // finish line: counted region ends here
                barrier.wait(); // hold the thread until the count is read
            })
        })
        .collect();
    alloc::reset();
    barrier.wait();
    barrier.wait();
    let two = alloc::stats();
    barrier.wait();
    for worker in workers {
        worker.join().expect("worker thread panicked");
    }
    assert_eq!(two.allocs, 2 * 50 * PATTERN_EVENTS);
    assert_eq!(two.bytes, 2 * 50 * PATTERN_BYTES);
}
