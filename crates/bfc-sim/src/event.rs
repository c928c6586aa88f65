//! The event queue.
//!
//! Events are ordered by `(time, rank, seq)`: timestamp first, then an
//! optional caller-supplied **rank** (see [`EventQueue::push_ranked`]), then
//! insertion order. Plain [`EventQueue::push`] uses rank 0, so events pushed
//! that way keep the original FIFO-on-equal-timestamp contract. Ranks exist
//! for the sharded engine: a rank derived from an event's *content* gives
//! simultaneous events a total order that does not depend on which shard —
//! or in which global interleaving — they were scheduled, which is what lets
//! a sharded run reproduce the serial engine's results bit for bit.
//!
//! The queue is a **bucketed calendar queue**: events in the near future are
//! spread over fixed-width time windows organized as a ring, the current
//! window is a sorted run plus a small binary heap for keys that arrive
//! while it is being consumed, and events beyond the calendar horizon wait
//! in an overflow heap. The geometry is sized to the deltas the fabric
//! actually schedules at: serialization ends +5 ns (a 64-byte ACK) to
//! +80 ns (an MTU) ahead, arrivals one propagation delay (~1 µs) later,
//! pause-frame and pacing timers microseconds out, retransmission timeouts
//! milliseconds out. With ~131 ns windows only the serialization-scale
//! pushes can land in the window being consumed — about a fifth of all
//! pushes (19–23 % measured on the six-scheme lineup and the 128-host
//! incast workload): an egress schedules the end of a serialization only
//! when something is queued behind it, so most packets push nothing at that
//! scale. The heap those pushes go through holds a fraction of one window's
//! events (a 2.1 µs window put the arrivals there too: thousands of keys,
//! and heap sifts were 14 % of a run). Every other push is an O(1)
//! append to a future window's bucket, and each window is sorted once, as
//! one batch of a few hundred keys, when the clock reaches it. Ordering is
//! always decided by the `(time, rank, seq)` triple, never by which internal
//! structure an event passed through ([`ReferenceEventQueue`] keeps the
//! original heap implementation around for differential tests).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;

/// A single scheduled entry: time, rank, insertion sequence number, payload.
struct Entry<E> {
    time: SimTime,
    rank: u32,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then the
        // lowest rank, then the lowest sequence number) is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Log2 of the calendar window width in picoseconds: 2^17 ps ≈ 131 ns —
/// about one and a half MTU serialization times at 100 Gbps. Narrow enough
/// that a propagation delay (~1 µs) is several windows, so arrivals always
/// take the O(1) bucket path and a window's batch stays small; wide enough
/// that a busy fabric still amortizes one bitmap scan and one sort over
/// hundreds of events.
const WINDOW_SHIFT: u32 = 17;
/// Width of one calendar window in picoseconds.
const WINDOW_WIDTH: u64 = 1 << WINDOW_SHIFT;
/// Number of future windows the calendar covers (beyond the current one).
/// 2048 windows × 131 ns ≈ 268 µs of look-ahead before events spill into the
/// overflow heap — enough for transmission, propagation and pause timers;
/// only long retransmission timeouts routinely overflow.
const NUM_BUCKETS: usize = 2048;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;
/// End-of-list marker for the bucket chunk lists.
const NIL: u32 = u32::MAX;
/// Keys per bucket chunk: 21 × 24-byte keys + an 8-byte header = 512 bytes.
/// A sparse window (a seeded flow arrival, a lone timer) costs one chunk; a
/// busy one chains a few dozen.
const CHUNK_KEYS: usize = 21;
/// A compact scheduling key: the payload lives in the queue's slab and is
/// referenced by `slot`, so heap sifts and bucket moves shuffle 24 bytes
/// instead of the full event. The rank is deliberately `u32` so the key
/// stays at 24 bytes — the size the calendar's sort/sift traffic was tuned
/// for before ranks existed.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    rank: u32,
    slot: u32,
    seq: u64,
}

impl Key {
    #[inline]
    fn ord_key(&self) -> (SimTime, u32, u64) {
        (self.time, self.rank, self.seq)
    }
}

/// A fixed-size run of one bucket's keys. Buckets are singly linked lists of
/// chunks drawn from one arena shared by the whole ring.
#[derive(Clone, Copy)]
struct Chunk {
    keys: [Key; CHUNK_KEYS],
    len: u32,
    /// The bucket's next (full) chunk, or the next free chunk while this one
    /// sits on the free list.
    next: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.ord_key() == other.ord_key()
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then the
        // lowest rank, then the lowest sequence number) is popped first.
        other.ord_key().cmp(&self.ord_key())
    }
}

/// A time-ordered queue of simulation events.
///
/// The queue never reorders events scheduled for the same instant: they come
/// back in the order they were pushed.
///
/// # Internal invariant
///
/// After every `push`/`pop`, the `current` heap is non-empty whenever the
/// queue as a whole is non-empty and its front is the global minimum
/// `(time, rank, seq)` (so `peek_time` is O(1)). The calendar ring only
/// holds keys at or beyond the current window's end, and the overflow heap
/// only holds keys that were beyond the calendar horizon when pushed;
/// [`EventQueue::settle`] restores the invariant by advancing the window to
/// the earliest pending source (comparing the first non-empty bucket's
/// window against the overflow minimum) whenever `current` drains. Ordering
/// is always decided by `(time, rank, seq)`, never by which internal
/// structure an event passed through.
pub struct EventQueue<E> {
    /// Sorted (ascending `(time, rank, seq)`) keys of the current window,
    /// consumed from `cursor` on. Refilled in bulk by `settle`, which sorts
    /// once — sequential, cache-friendly — instead of sifting a heap per key.
    sorted: Vec<Key>,
    /// Next unconsumed index into `sorted`.
    cursor: usize,
    /// Keys pushed *after* the window was last refilled that fall inside the
    /// current window (or before it): the serialization-scale follow-ups a
    /// handler schedules less than a window ahead. Merged with `sorted` on
    /// pop.
    late: BinaryHeap<Key>,
    /// Start of the current window, picoseconds.
    window_start: u64,
    /// Physical ring index of logical bucket 0 (the window right after the
    /// current one).
    base: usize,
    /// The calendar ring: logical bucket `j` covers
    /// `[window_start + (j+1)·width, window_start + (j+2)·width)`. A bucket
    /// is the head of a list of chunks in `chunks` (`NIL` when empty); only
    /// the head chunk may be partly filled. Keys are in no particular order
    /// — `settle` sorts a window when it becomes current.
    heads: Vec<u32>,
    /// Bucket storage: one arena of fixed-size chunks for all 2048 buckets,
    /// so the ring as a whole stops allocating once the pending population
    /// has peaked, however the events spread over the windows (a `Vec` per
    /// bucket would grow 2048 times over). Pushes append to a bucket's head
    /// chunk and a drain reads whole chunks, so both stay sequential.
    chunks: Vec<Chunk>,
    /// Head of the free-chunk list through `Chunk::next`.
    free_chunk: u32,
    /// One bit per *physical* bucket: set iff that bucket is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Total events currently stored in the ring.
    in_buckets: usize,
    /// Keys beyond the calendar horizon at push time, ordered by
    /// `(time, seq)`.
    overflow: BinaryHeap<Key>,
    /// Payload storage indexed by `Key::slot`. Slots are recycled through
    /// `free`, so each event is written once on push and read once on pop
    /// no matter how many times its key migrates between heaps and buckets
    /// — network events carry whole packets (64 bytes), and sorts and sifts
    /// shuffle 24-byte keys instead.
    slab: Vec<Option<E>>,
    /// Free slots in `slab`.
    free: Vec<u32>,
    next_seq: u64,
    popped: u64,
    /// Lifetime count of keys pushed beyond the calendar horizon into the
    /// overflow heap (observability: calendar-geometry pressure).
    overflow_pushes: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            sorted: Vec::new(),
            cursor: 0,
            late: BinaryHeap::new(),
            window_start: 0,
            base: 0,
            heads: vec![NIL; NUM_BUCKETS],
            chunks: Vec::new(),
            free_chunk: NIL,
            occupied: [0; BITMAP_WORDS],
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            popped: 0,
            overflow_pushes: 0,
        }
    }

    /// Creates an empty queue with space for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.slab = Vec::with_capacity(capacity);
        q
    }

    /// End of the current window (saturating so times near `SimTime::MAX`
    /// degrade gracefully into the current window instead of overflowing).
    #[inline]
    fn window_end(&self) -> u64 {
        self.window_start.saturating_add(WINDOW_WIDTH)
    }

    /// True if the current window (sorted backbone + late heap) is drained.
    #[inline]
    fn current_is_empty(&self) -> bool {
        self.cursor == self.sorted.len() && self.late.is_empty()
    }

    /// `(time, rank, seq)` of the earliest key in the current window, if any.
    #[inline]
    fn current_front(&self) -> Option<(SimTime, u32, u64)> {
        let backbone = self.sorted.get(self.cursor).map(Key::ord_key);
        let late = self.late.peek().map(Key::ord_key);
        match (backbone, late) {
            (Some(b), Some(l)) => Some(b.min(l)),
            (b, l) => b.or(l),
        }
    }

    /// Removes and returns the earliest key in the current window.
    #[inline]
    fn current_pop(&mut self) -> Option<Key> {
        let take_backbone = match (self.sorted.get(self.cursor), self.late.peek()) {
            (Some(b), Some(l)) => b.ord_key() < l.ord_key(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_backbone {
            let k = self.sorted[self.cursor];
            self.cursor += 1;
            Some(k)
        } else {
            self.late.pop()
        }
    }

    /// Schedules `event` at absolute time `time` with rank 0 (pure FIFO
    /// among equal timestamps).
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, 0, event);
    }

    /// Schedules `event` at absolute time `time` with an explicit `rank`.
    /// Among equal timestamps, lower ranks pop first; equal `(time, rank)`
    /// pairs keep FIFO order. A rank derived from the event's content (rather
    /// than from scheduling order) makes the pop order independent of how
    /// concurrent events were interleaved at push time — the property the
    /// sharded engine's determinism rests on.
    pub fn push_ranked(&mut self, time: SimTime, rank: u32, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, rank, seq, event);
    }

    /// Places an entry with an explicit sequence number into the calendar.
    /// `push_ranked` is the only caller that mints sequence numbers;
    /// `restore_state` replays previously-minted ones.
    fn insert(&mut self, time: SimTime, rank: u32, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        let key = Key {
            time,
            rank,
            slot,
            seq,
        };
        let t = time.as_picos();
        let end = self.window_end();
        // A saturated window covers all representable time, `SimTime::MAX`
        // included (the rule `drain_overflow` applies too).
        if t < end || end == u64::MAX {
            self.late.push(key);
            return;
        }
        if self.current_is_empty() && self.in_buckets == 0 && self.overflow.is_empty() {
            // The queue is idle and simulated time has moved past the
            // window: re-anchor at this event instead of walking the ring.
            self.window_start = t;
            self.late.push(key);
            return;
        }
        let logical = (((t - self.window_start) >> WINDOW_SHIFT) - 1) as usize;
        if logical < NUM_BUCKETS {
            let phys = (self.base + logical) & BUCKET_MASK;
            self.bucket_push(phys, key);
            self.occupied[phys / 64] |= 1u64 << (phys % 64);
            self.in_buckets += 1;
        } else {
            self.overflow.push(key);
            self.overflow_pushes += 1;
        }
        if self.current_is_empty() {
            // Keep the peek invariant: the earliest pending event must sit
            // in the current window.
            self.settle();
        }
    }

    /// Appends `key` to physical bucket `phys`, taking a chunk from the free
    /// list (or growing the arena) when the bucket's head chunk is full.
    #[inline]
    fn bucket_push(&mut self, phys: usize, key: Key) {
        let head = self.heads[phys];
        if head != NIL && (self.chunks[head as usize].len as usize) < CHUNK_KEYS {
            let chunk = &mut self.chunks[head as usize];
            chunk.keys[chunk.len as usize] = key;
            chunk.len += 1;
            return;
        }
        let c = self.free_chunk;
        if c != NIL {
            // Recycle: only the first key and the header need writing.
            let chunk = &mut self.chunks[c as usize];
            self.free_chunk = chunk.next;
            chunk.keys[0] = key;
            chunk.len = 1;
            chunk.next = head;
            self.heads[phys] = c;
        } else {
            self.heads[phys] = self.chunks.len() as u32;
            self.chunks.push(Chunk {
                keys: [key; CHUNK_KEYS],
                len: 1,
                next: head,
            });
        }
    }

    /// Moves every key of physical bucket `phys` into the (empty) sorted
    /// backbone and returns the bucket's chunks to the free list.
    fn bucket_drain(&mut self, phys: usize) {
        let mut c = std::mem::replace(&mut self.heads[phys], NIL);
        while c != NIL {
            let chunk = &mut self.chunks[c as usize];
            self.sorted
                .extend_from_slice(&chunk.keys[..chunk.len as usize]);
            let next = chunk.next;
            chunk.next = self.free_chunk;
            self.free_chunk = c;
            c = next;
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.current_pop()?;
        self.popped += 1;
        let event = self.slab[key.slot as usize]
            .take()
            .expect("scheduled slot holds an event");
        self.free.push(key.slot);
        if self.current_is_empty() {
            self.settle();
        }
        Some((key.time, event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.current_front().map(|(t, _, _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        (self.sorted.len() - self.cursor) + self.late.len() + self.in_buckets + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events delivered over the queue's lifetime.
    pub fn total_delivered(&self) -> u64 {
        self.popped
    }

    /// Lifetime number of keys that landed in the overflow heap because
    /// they were scheduled beyond the calendar horizon.
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// Moves overflow keys that now fall inside the current window into
    /// the (empty) sorted backbone. Only called from `settle`, before the
    /// backbone is re-sorted. When the window end has saturated at
    /// `u64::MAX` the window covers all representable time, so everything
    /// drains (otherwise an event at exactly `SimTime::MAX` could never
    /// leave the overflow heap and `settle` would spin).
    fn drain_overflow(&mut self) {
        let end = self.window_end();
        while self
            .overflow
            .peek()
            .is_some_and(|k| k.time.as_picos() < end || end == u64::MAX)
        {
            let k = self.overflow.pop().expect("peeked key exists");
            self.sorted.push(k);
        }
    }

    /// Logical index of the first non-empty bucket. Caller guarantees
    /// `in_buckets > 0`.
    fn first_occupied_logical(&self) -> usize {
        let start_word = self.base / 64;
        let start_bit = self.base % 64;
        // First partial word: only bits at or after `base`.
        let mut word = self.occupied[start_word] & (!0u64 << start_bit);
        let mut widx = start_word;
        loop {
            if word != 0 {
                let phys = widx * 64 + word.trailing_zeros() as usize;
                return (phys + NUM_BUCKETS - self.base) & BUCKET_MASK;
            }
            widx = (widx + 1) % BITMAP_WORDS;
            word = self.occupied[widx];
            if widx == start_word {
                // Wrapped around: only bits strictly before `base` remain.
                word &= (1u64 << start_bit) - 1;
                if word != 0 {
                    let phys = widx * 64 + word.trailing_zeros() as usize;
                    return (phys + NUM_BUCKETS - self.base) & BUCKET_MASK;
                }
                unreachable!("in_buckets > 0 but the occupancy bitmap is empty");
            }
        }
    }

    /// Advances the window by `steps` widths, rotating the ring base. Every
    /// bucket passed over must already be empty.
    fn advance(&mut self, steps: usize) {
        self.window_start = self
            .window_start
            .saturating_add(steps as u64 * WINDOW_WIDTH);
        self.base = (self.base + steps) & BUCKET_MASK;
    }

    /// Restores the invariant that `current` holds the earliest pending
    /// events: advances the window to the next non-empty bucket (or
    /// re-anchors at the overflow minimum) and dumps that window into the
    /// current heap. No-op when the queue is empty.
    fn settle(&mut self) {
        debug_assert!(self.current_is_empty());
        self.sorted.clear();
        self.cursor = 0;
        while self.sorted.is_empty() {
            if self.in_buckets == 0 {
                let Some(top) = self.overflow.peek() else {
                    return; // queue is empty
                };
                // Every bucket is empty: the ring mapping is vacuous, so the
                // window can jump straight to the earliest overflow event.
                self.window_start = top.time.as_picos();
                self.drain_overflow();
                debug_assert!(!self.sorted.is_empty());
            } else {
                let j = self.first_occupied_logical();
                let bucket_window_start = self
                    .window_start
                    .saturating_add((j as u64 + 1) * WINDOW_WIDTH);
                match self.overflow.peek() {
                    // An overflow event precedes the earliest bucket: advance
                    // only up to the window containing it (crossing empty
                    // buckets exclusively) and pull it in.
                    Some(top) if top.time.as_picos() < bucket_window_start => {
                        let t = top.time.as_picos();
                        debug_assert!(t >= self.window_end());
                        let steps = ((t - self.window_start) >> WINDOW_SHIFT) as usize;
                        self.advance(steps);
                        self.drain_overflow();
                    }
                    _ => {
                        // Make bucket `j`'s window the current window and
                        // move its (unsorted) keys into the backbone.
                        let phys = (self.base + j) & BUCKET_MASK;
                        self.occupied[phys / 64] &= !(1u64 << (phys % 64));
                        self.bucket_drain(phys);
                        self.in_buckets -= self.sorted.len();
                        self.advance(j + 1);
                        self.drain_overflow();
                    }
                }
            }
        }
        // One contiguous sort restores (time, rank, seq) order for the
        // window. Every fabric push is ranked (`NetSink::send` attaches the
        // event's canonical rank), so there is no rank-free case to special
        // case.
        self.sorted.sort_unstable_by_key(Key::ord_key);
    }
}

impl<E: Snap> EventQueue<E> {
    /// Serializes the queue's *logical* state: every pending entry's
    /// `(time, rank, seq)` key and payload (in pop order), plus the lifetime
    /// counters. The physical calendar layout — which bucket or heap a key
    /// happens to sit in, slab slot numbers, window anchoring — is not
    /// captured: ordering is decided solely by `(time, rank, seq)`, so a
    /// restored queue pops the identical sequence regardless of layout.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let mut keys: Vec<Key> = Vec::with_capacity(self.len());
        keys.extend_from_slice(&self.sorted[self.cursor..]);
        keys.extend(self.late.iter());
        for &head in &self.heads {
            let mut c = head;
            while c != NIL {
                let chunk = &self.chunks[c as usize];
                keys.extend_from_slice(&chunk.keys[..chunk.len as usize]);
                c = chunk.next;
            }
        }
        keys.extend(self.overflow.iter());
        keys.sort_unstable_by_key(Key::ord_key);
        w.put_usize(keys.len());
        for k in &keys {
            k.time.save(w);
            k.rank.save(w);
            k.seq.save(w);
            self.slab[k.slot as usize]
                .as_ref()
                .expect("pending key references a live slab slot")
                .save(w);
        }
        self.next_seq.save(w);
        self.popped.save(w);
        self.overflow_pushes.save(w);
    }

    /// Rebuilds a queue from [`EventQueue::save_state`] output, handing each
    /// payload to `check` before it is scheduled (the queue cannot know what
    /// makes an event valid for the run it is restored into). Hand-written
    /// because the physical calendar layout is rebuilt by re-insertion, and
    /// to check that no pending `seq` is one the queue would mint again.
    pub fn restore_state(
        r: &mut SnapReader<'_>,
        mut check: impl FnMut(&E) -> Result<(), SnapError>,
    ) -> Result<Self, SnapError> {
        let n = r.get_count(SimTime::MIN_BYTES + u32::MIN_BYTES + u64::MIN_BYTES + E::MIN_BYTES)?;
        let mut q = Self::with_capacity(n);
        let mut max_seq = None;
        for _ in 0..n {
            let (time, rank, seq) = (r.get()?, r.get()?, r.get()?);
            let event = r.get()?;
            check(&event)?;
            q.insert(time, rank, seq, event);
            max_seq = max_seq.max(Some(seq));
        }
        q.next_seq = r.get()?;
        q.popped = r.get()?;
        // Overwrite, not accumulate: the re-insertions above may themselves
        // have landed keys in the overflow heap, but the lifetime counter is
        // logical state owned by the snapshot.
        q.overflow_pushes = r.get()?;
        if max_seq.is_some_and(|m| m >= q.next_seq) {
            return Err(SnapError::Corrupt("pending seq beyond next_seq"));
        }
        Ok(q)
    }
}

/// The original `BinaryHeap`-based event queue, kept as the executable
/// specification of the ordering contract. Differential tests (and anyone
/// suspicious of the calendar queue) can run the same schedule through both
/// implementations and compare pop sequences.
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` at absolute time `time` with rank 0 (pure FIFO
    /// among equal timestamps).
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, 0, event);
    }

    /// Schedules `event` at absolute time `time` with an explicit `rank`
    /// (see [`EventQueue::push_ranked`]).
    pub fn push_ranked(&mut self, time: SimTime, rank: u32, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            rank,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.popped += 1;
            (e.time, e.event)
        })
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3u32);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ranks_order_equal_timestamps_before_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        // Push in descending rank order; pops must come back ascending, with
        // FIFO only breaking (time, rank) ties.
        q.push_ranked(t, 3, 30u32);
        q.push_ranked(t, 1, 10);
        q.push_ranked(t, 2, 20);
        q.push_ranked(t, 1, 11);
        q.push_ranked(SimTime::from_nanos(1), 9, 0);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 10, 11, 20, 30]);
    }

    #[test]
    fn counters_track_scheduling() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_delivered(), 0);
        q.pop();
        assert_eq!(q.total_delivered(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_is_accurate_across_all_internal_structures() {
        let mut q = EventQueue::new();
        // Overflow first (far beyond the horizon), then a bucket event, then
        // a current-window event: peek must always name the true minimum.
        q.push(SimTime::from_micros(100_000), 3u32);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(100_000)));
        q.push(SimTime::from_micros(50), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(50)));
        q.push(SimTime::from_nanos(10), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn overflow_event_is_not_overtaken_by_later_bucket_event() {
        // Regression test for the subtle calendar-queue ordering case: an
        // event lands in overflow, the window then advances far enough that
        // a *later* event is pushed into a bucket whose window ends after
        // the overflow event's time. The overflow event must still pop first.
        let mut q = EventQueue::new();
        let horizon_ns = ((NUM_BUCKETS as u64 + 1) * WINDOW_WIDTH) / 1_000;
        q.push(SimTime::from_nanos(10), 1u32); // current window
        q.push(SimTime::from_nanos(horizon_ns + 100), 2); // overflow
        assert_eq!(q.pop().unwrap().1, 1);
        // The queue re-anchored at the overflow event; now schedule an event
        // slightly after it (same region, would have been a bucket event
        // under the old window).
        q.push(SimTime::from_nanos(horizon_ns + 200), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_push_at_the_end_of_time_into_a_saturated_window_pops_in_order() {
        // The window re-anchors at MAX − W/2, so its end saturates at
        // `u64::MAX`; a push at exactly `SimTime::MAX` lies inside it.
        let mut q = EventQueue::new();
        let max = SimTime::MAX.as_picos();
        q.push(SimTime::from_picos(max - WINDOW_WIDTH / 2), 1u32);
        q.push(SimTime::MAX, 2);
        q.push(SimTime::from_picos(max - 1), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 3, 2]);
    }

    #[test]
    fn pushes_into_the_past_still_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(500), 2u32);
        assert_eq!(q.pop().unwrap().1, 2);
        // The window has advanced to 500 µs; a push at an earlier absolute
        // time must still come out before later ones.
        q.push(SimTime::from_micros(400), 1);
        q.push(SimTime::from_micros(600), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn matches_reference_queue_on_random_interleaved_schedules() {
        // Differential test: random pushes (spanning current window, buckets
        // and overflow, with many equal timestamps) interleaved with pops
        // must produce byte-identical sequences from both implementations.
        let mut rng = SimRng::new(0xCA1E_17DA);
        for round in 0..50 {
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut reference: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
            let ops = 400 + round * 13;
            let mut payload = 0u64;
            for _ in 0..ops {
                if rng.chance(0.6) || cal.is_empty() {
                    // Mix of near, far and duplicate timestamps.
                    let t = match rng.next_below(4) {
                        0 => rng.next_below(1_000),         // dense ties, ns
                        1 => rng.next_below(100_000),       // within calendar
                        2 => rng.next_below(1_000_000_000), // far future
                        _ => 77,                            // constant tie
                    };
                    // A small rank universe so (time, rank) ties are common
                    // and the seq fallback is exercised in both queues.
                    let rank = rng.next_below(3) as u32;
                    cal.push_ranked(SimTime::from_nanos(t), rank, payload);
                    reference.push_ranked(SimTime::from_nanos(t), rank, payload);
                    payload += 1;
                } else {
                    assert_eq!(cal.pop(), reference.pop());
                }
                assert_eq!(cal.peek_time(), reference.peek_time());
                assert_eq!(cal.len(), reference.len());
            }
            loop {
                let (a, b) = (cal.pop(), reference.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// One push delta (picoseconds) drawn from the mix the fabric schedules
    /// at: serialization ends (+5 ns ACK, +80 ns MTU), arrivals one
    /// propagation delay later, pause/pacing timers, retransmission timeouts.
    fn fabric_delta_ps(rng: &mut SimRng) -> u64 {
        match rng.next_below(64) {
            0..=9 => 5_120,
            10..=29 => 80_000,
            30..=39 => 1_005_120,
            40..=59 => 1_080_000,
            60..=62 => 10_000_000,
            _ => 1_000_000_000 + rng.next_below(4_000_000_000),
        }
    }

    #[test]
    fn matches_reference_queue_under_the_fabric_delta_mix() {
        // Hold model around a moving clock: every pop schedules follow-ups
        // relative to the popped time, like a handler does. Bursts share one
        // timestamp, ranks are mostly a small universe (as cables are) with
        // rank-0 stretches, and the calendar is snapshotted and restored
        // mid-stream. Every pop, peek and length must equal the reference
        // heap's.
        let mut rng = SimRng::new(0xFAB1_C0DE);
        for population in [64usize, 2_000] {
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut reference: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
            let mut payload = 0u64;
            let mut push = |cal: &mut EventQueue<u64>,
                            reference: &mut ReferenceEventQueue<u64>,
                            t: u64,
                            rank: u32| {
                cal.push_ranked(SimTime::from_picos(t), rank, payload);
                reference.push_ranked(SimTime::from_picos(t), rank, payload);
                payload += 1;
            };
            for _ in 0..population {
                let t = rng.next_below(2_000_000);
                push(&mut cal, &mut reference, t, rng.next_below(8) as u32);
            }
            for step in 0..40_000u32 {
                let (a, b) = (cal.pop(), reference.pop());
                assert_eq!(a, b, "pop {step} at population {population}");
                let now = a.expect("population is held").0.as_picos();
                // Rank-0 stretches order by push sequence alone.
                let ranked = (step / 5_000) % 2 == 0;
                let burst = if rng.chance(0.05) {
                    1 + rng.next_below(6)
                } else {
                    1
                };
                let delta = fabric_delta_ps(&mut rng);
                for _ in 0..burst {
                    let rank = if ranked { rng.next_below(8) as u32 } else { 0 };
                    push(&mut cal, &mut reference, now + delta, rank);
                }
                // Bursts grow the population; shed the surplus.
                for _ in 1..burst {
                    assert_eq!(cal.pop(), reference.pop());
                }
                assert_eq!(cal.peek_time(), reference.peek_time());
                assert_eq!(cal.len(), reference.len());
                if step % 9_973 == 9_972 {
                    let mut w = SnapWriter::new();
                    cal.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut r = SnapReader::new(&bytes);
                    cal = EventQueue::restore_state(&mut r, |_| Ok(())).expect("restores");
                    r.expect_end().expect("payload fully consumed");
                }
            }
            loop {
                let (a, b) = (cal.pop(), reference.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    // (That every truncation of a saved queue is refused is checked for
    // generated queues by `tests/properties.rs`.)
    #[test]
    fn snapshot_round_trip_preserves_pop_order_and_counters() {
        // Fill the queue across all internal structures (current window,
        // buckets, overflow), pop some, snapshot, restore, and compare the
        // remaining pop sequence and lifetime counters exactly.
        let mut rng = SimRng::new(0x5AAF_E77E);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..500u64 {
            let t = match rng.next_below(4) {
                0 => rng.next_below(1_000),
                1 => rng.next_below(100_000),
                2 => rng.next_below(1_000_000_000),
                _ => 77,
            };
            q.push_ranked(SimTime::from_nanos(t), rng.next_below(3) as u32, i);
        }
        for _ in 0..123 {
            q.pop();
        }
        let mut w = SnapWriter::new();
        q.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = EventQueue::restore_state(&mut r, |_| Ok(())).expect("restores");
        r.expect_end().expect("payload fully consumed");
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.total_scheduled(), q.total_scheduled());
        assert_eq!(restored.total_delivered(), q.total_delivered());
        // The restored queue keeps minting fresh seq numbers correctly:
        // interleave new pushes with the drain on both queues.
        q.push(SimTime::from_nanos(50), 9_000);
        restored.push(SimTime::from_nanos(50), 9_000);
        loop {
            let (a, b) = (q.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(restored.total_delivered(), q.total_delivered());
    }
}
