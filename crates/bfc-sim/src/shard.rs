//! Epoch-based conservative synchronization for sharded simulations.
//!
//! A sharded simulation splits its state across N **shards**, each with its
//! own [`crate::EventQueue`]. Shards advance in lockstep **epochs**: given
//! the earliest pending event time `t0` across all shards and a **lookahead**
//! `L` (the minimum latency of any cross-shard interaction), every shard may
//! safely process all of its events in the window `[t0, t0 + L)` — any event
//! another shard could still send it lands at `t0 + L` or later. Events that
//! target another shard are collected into per-destination **outboxes**
//! during the window and exchanged at the epoch barrier.
//!
//! # Epoch batching
//!
//! Electing `t0` costs two barrier crossings (publish per-shard next-event
//! times, then distribute the leader's decision). Rather than pay that per
//! window, the driver elects once per **batch** and then runs windows on the
//! fixed grid `[t0 + i·L, t0 + (i+1)·L)` for `i < k`, exchanging boundary
//! events after each. The fixed grid is exactly as safe as re-electing: a
//! cross-shard event with time `T < t0 + (i+1)·L` was emitted while
//! processing some `t < t0 + i·L` — i.e. during an earlier window — and was
//! therefore exchanged before window `i` starts.
//!
//! Two mechanisms make the batch cheaper than `k` elections:
//!
//! * **One barrier per executed window.** Mailboxes and per-window stats are
//!   double-buffered by executed-window parity, so the slot a reader drains
//!   after barrier `i` is not rewritten until after barrier `i + 1`, which
//!   the reader necessarily crossed first.
//! * **Quiescent fast-forward.** After a window that exchanged nothing, no
//!   delivery can have changed any queue, so the shared pre-delivery
//!   `min_next` is exact — and every shard deterministically jumps to the
//!   grid window containing it, skipping the empty windows in between
//!   without a barrier each. If `min_next` lies at or beyond the batch (or
//!   past the deadline), the batch ends early and the driver re-elects.
//!
//! A batch of width `k` therefore costs `2 + executed windows` crossings
//! whatever `k` is, and the safety argument above never mentions traffic:
//! **a wider batch is never worse, so the width is never narrowed.**
//! [`BatchPolicy::Adaptive`] starts at one window and doubles the width
//! after every batch up to its cap — under dense cross-shard traffic as much
//! as across dead air. A dense fabric then pays one crossing per window plus
//! two per `cap` windows (≈ 1.02 per window at the default cap), and a
//! quiescent stretch (think 10 µs sample gaps over a sub-µs lookahead)
//! collapses many elections into one: a batch covering `E` sparse events
//! costs `2 + E` crossings instead of `3·E`.
//! [`BatchPolicy::Off`] pins the width to one window per election, the
//! classic three-crossings-per-window schedule, and stays as the reference
//! the batched schedule is tested and measured against.
//!
//! # The cost of a crossing
//!
//! With one crossing per window — every microsecond or so of simulated time
//! on a data-center fabric — the crossing itself decides whether a second
//! core pays. A waiter that sleeps in the kernel costs its peers a futex
//! wake-up (on a virtual machine: an inter-processor interrupt and a VM
//! entry, ≈ 44 µs measured here) where the work between two crossings is a
//! few hundred microseconds at most. [`EpochBarrier`]'s waiters therefore
//! **spin, then yield, then park**: the common case (the straggler is a few
//! microseconds behind, on its own core) never leaves user space; a waiter
//! whose core is wanted by somebody else gives it up after the spin budget;
//! and one that is still waiting after the yield budget sleeps on a condvar
//! like the Mutex-only barrier this replaces always did, so a run with more
//! shards than free cores degrades to that barrier's behaviour instead of
//! burning the quantum the straggler needs.
//!
//! # Determinism
//!
//! The driver is deterministic by construction, whether the epochs run on
//! one thread or on one thread per shard, batched or not:
//!
//! * the window grid is derived only from queue state (`min` of per-shard
//!   `next_time`) and the deterministic width schedule, never from thread
//!   timing;
//! * at each barrier, destination shards ingest boundary batches in **shard
//!   id order**, and each batch preserves its source's emission order;
//! * boundary events carry their scheduling `(time, rank)` key with them, so
//!   the destination queue orders them exactly as a global queue would have.
//!
//! With a content-derived rank (see [`crate::EventQueue::push_ranked`]) that
//! is unique among simultaneous events from different sources, the per-shard
//! pop order equals the serial engine's pop order restricted to that shard —
//! which is what makes sharded results bit-identical to serial ones, at any
//! shard count and under any batching policy.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::time::{SimDuration, SimTime};

/// Locks a mutex, recovering the guard when a panicking sibling poisoned it.
/// Everything behind these mutexes is discarded wholesale once any worker
/// panics (the run is abandoned and the original payload re-raised by the
/// driver), so the poison flag carries no information — and honoring it
/// would replace the worker's own panic message with an unrelated "lock"
/// error at whichever thread touches the mutex next.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one barrier crossing observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarrierWait {
    /// This thread is the single designated leader of the crossing: the last
    /// to arrive, so it never waited.
    Leader,
    /// Crossed normally, as a non-leader; `parked` says the wait outlasted
    /// the spin and yield budgets and ended asleep on the condvar.
    Follower { parked: bool },
    /// The barrier was aborted — a sibling worker panicked. The caller must
    /// stop immediately; no further crossing will ever complete.
    Aborted,
}

/// Checks of the generation a waiter makes with a `spin_loop` hint between
/// them before it starts yielding. [`EpochBarrier`] has the measurements
/// behind this and [`BARRIER_YIELDS`].
const BARRIER_SPINS: u32 = 1_000;

/// `yield_now` calls a waiter makes, one check each, before it parks.
const BARRIER_YIELDS: u32 = 2_000;

/// A reusable rendezvous barrier for `n` threads whose waiters do not sleep
/// unless they have to, plus [`EpochBarrier::abort`].
///
/// Arrivals are counted and completed crossings numbered (the
/// **generation**) in atomics. The last thread to arrive resets the count,
/// publishes the next generation (`Release`) and leaves as the crossing's
/// leader; every other thread watches the generation (`Acquire`) in three
/// stages: [`BARRIER_SPINS`] checks with a `spin_loop` hint in between, then
/// [`BARRIER_YIELDS`] checks with a `yield_now` in between, then a sleep on
/// the condvar. Each arrival is an `AcqRel` read-modify-write of one counter,
/// so the leader has acquired every earlier arriver's writes before it
/// publishes, and whatever any thread wrote before a crossing is visible to
/// every thread after it.
///
/// **No lost wake-up.** The generation is published, and `abort` raised,
/// while holding `sleepers`, the lock the condvar sleeps under, and only
/// then are the sleepers notified. A waiter that has just given up yielding
/// takes that lock and checks both once more before it sleeps: either it
/// gets the lock after the publisher and sees the new value, or it gets it
/// first — and is asleep, lock released, by the time the publisher can take
/// it — so the notification that follows reaches it.
///
/// **Abort.** A worker that unwinds mid-epoch never makes its remaining
/// arrivals, so its siblings would wait forever and the scope join would
/// hang silently. `abort` releases every current and future waiter with
/// [`BarrierWait::Aborted`], whichever stage it is in, letting them unwind
/// cleanly so the driver can re-raise the original panic payload.
///
/// **The two budgets** were chosen on the 2-vCPU build box (a shared VM,
/// so readings drift) with the repo benchmark's `incast_t1` inputs — ≈ 400 µs
/// of work per worker and window — as sharded ÷ serial wall-clock, every
/// reading eight runs of each in one process, every reading taken listed.
/// The parent (Mutex + Condvar, three crossings per window) read 0.72 and
/// 1.08 at two shards and 0.74 and 1.14 at four in the same sessions. One
/// thousand spins are 12–15 µs there and cover a peer a few microseconds
/// behind on its own core; a yield is 0.24–0.32 µs when nothing else is
/// runnable, so two thousand are about one window's work.
///
/// | spins, yields | 2 shards on 2 vCPUs | crossings parked | 4 shards on 2 vCPUs |
/// |---|---|---|---|
/// | 1 000, 2 000 (chosen) | 0.53 0.53 0.54 0.54 0.55 0.58 0.62 0.77 | 0.1–1.1 % | 0.60 0.62 0.63 0.64 |
/// | 1 000, 500 | 0.58 0.60 0.62 0.63 0.63 0.76 | 2–10 % | 0.63 0.82 |
/// | 1 000, 8 000 | 0.54 0.60 | < 0.1 % | 0.65 0.75 |
/// | 4 000, 2 000 | 0.59 0.59 | 0.1–0.2 % | 0.74 0.81 |
/// | 4 000, 500 | 0.54 0.57 | 1–3 % | 0.69 0.70 |
/// | 1 000, 0 and 200, 500 | 0.56 0.58 and 0.56 0.60 | 22–47 % and 4–11 % | — |
/// | 0, 0 (always park) | 0.58 0.62 | 41–59 % | 0.64 0.68 |
/// | 20 000, 0 (spin ≈ 270 µs, then park) | 0.60 0.61 | 1–2 % | **1.06 1.24** |
///
/// The last row is the trap: with more waiters than cores a spinning waiter
/// burns the quantum the straggler needs, which a yield hands over instead —
/// hence a short spin stage and a long yield stage rather than the reverse
/// (4 000 spins already cost at four shards). The row above it is why
/// waiting in user space is worth having at all: on `bfc-bench`'s
/// `sharded_epoch_quiescent` (2 shards, ≈ 1 µs of work between crossings;
/// `cargo run --release -p bfc-bench -- --filter sharded_epoch` times it
/// and its dense counterpart — a reading to compare in alternated runs,
/// not a gate) always parking reads 17 ms per run where the chosen budgets
/// read 2 ms.
/// Among the yield budgets the differences at two shards are small — a park
/// costs ≈ 44 µs, so even one crossing in ten parked is 1 % of such a run —
/// but 2 000 read lower than 500 in six interleaved pairs out of six, and
/// nothing was gained past it. The 0.76 and 0.77 are one run each during
/// which the host itself was busy (wait share ≈ 30 % on both workers).
struct EpochBarrier {
    n: usize,
    /// Arrivals at the crossing in progress.
    arrived: AtomicUsize,
    /// Completed crossings; only ever compared for equality, so it may wrap.
    generation: AtomicUsize,
    aborted: AtomicBool,
    /// Held to publish a generation or an abort, and to sleep on `cv`.
    sleepers: Mutex<()>,
    cv: Condvar,
}

impl EpochBarrier {
    fn new(n: usize) -> Self {
        EpochBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            sleepers: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> BarrierWait {
        self.wait_within(BARRIER_SPINS, BARRIER_YIELDS)
    }

    /// [`EpochBarrier::wait`] under the given budgets; the tests pin a
    /// waiter to one stage with them.
    fn wait_within(&self, spins: u32, yields: u32) -> BarrierWait {
        if self.aborted.load(Ordering::Acquire) {
            return BarrierWait::Aborted;
        }
        // This thread has not arrived yet, so the crossing in progress
        // cannot complete and the generation cannot move under this load.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset before publishing: nobody arrives at the next crossing
            // without having observed the new generation first.
            self.arrived.store(0, Ordering::Relaxed);
            {
                let _sleepers = lock(&self.sleepers);
                self.generation
                    .store(generation.wrapping_add(1), Ordering::Release);
            }
            self.cv.notify_all();
            return BarrierWait::Leader;
        }
        let released = || {
            self.generation.load(Ordering::Acquire) != generation
                || self.aborted.load(Ordering::Acquire)
        };
        let mut checks = 0u64;
        let parked = loop {
            if released() {
                break false;
            }
            if checks < u64::from(spins) {
                std::hint::spin_loop();
            } else if checks < u64::from(spins) + u64::from(yields) {
                std::thread::yield_now();
            } else {
                let mut sleepers = lock(&self.sleepers);
                while !released() {
                    sleepers = self
                        .cv
                        .wait(sleepers)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                break true;
            }
            checks += 1;
        };
        if self.aborted.load(Ordering::Acquire) {
            BarrierWait::Aborted
        } else {
            BarrierWait::Follower { parked }
        }
    }

    fn abort(&self) {
        {
            let _sleepers = lock(&self.sleepers);
            self.aborted.store(true, Ordering::Release);
        }
        self.cv.notify_all();
    }
}

/// A boundary event in flight between shards: `(time, rank, payload)`. The
/// scheduling key travels with the payload so the destination queue can slot
/// the event exactly where a global queue would have.
pub type Boundary<E> = (SimTime, u32, E);

/// One shard of a sharded simulation, as seen by the epoch driver.
///
/// Implementations own their local event queue and simulation state. The
/// driver only ever calls these methods in the fixed epoch sequence
/// (`next_time` → `run_window` → `outboxes` → `deliver`), with barriers
/// between phases when running threaded.
///
/// Boundary events travel in buffers that circulate instead of being
/// allocated per window: the driver swaps a filled outbox for an empty
/// buffer that keeps the capacity of an earlier window's batch, and hands
/// the filled one to the destination's `deliver`, which drains it. Once the
/// buffers have grown to the traffic, a window allocates nothing.
pub trait ShardHandler: Send {
    /// The event payload exchanged across shard boundaries.
    type Event: Send;

    /// Timestamp of this shard's earliest pending event, if any.
    fn next_time(&self) -> Option<SimTime>;

    /// Processes every local event with `time < window_end && time <=
    /// deadline`, buffering events for other shards in the outboxes.
    fn run_window(&mut self, window_end: SimTime, deadline: SimTime);

    /// The boundary events buffered during the last window, one outbox per
    /// destination shard of the run (this shard's own stays empty). The
    /// driver swaps each non-empty outbox for an empty buffer.
    fn outboxes(&mut self) -> &mut [Vec<Boundary<Self::Event>>];

    /// Ingests one source shard's boundary batch in order, leaving `batch`
    /// empty with its capacity intact.
    fn deliver(&mut self, batch: &mut Vec<Boundary<Self::Event>>);

    /// Timestamp of the last event this shard processed (`SimTime::ZERO` if
    /// none yet).
    fn last_processed(&self) -> SimTime;
}

/// How the epoch driver amortizes window elections. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// One election per window: the classic conservative-lockstep schedule
    /// (three barrier crossings per executed window). The reference the
    /// batched schedule is compared against, in tests and in wall-clock.
    Off,
    /// Elect once, then run up to `max_windows` grid windows at one barrier
    /// each with quiescent fast-forward. The width starts at one window and
    /// doubles after every batch; traffic never narrows it, because a batch
    /// of any width costs two crossings plus one per *executed* window.
    Adaptive {
        /// Upper bound on grid windows per election (≥ 1): what is left of
        /// the election's two crossings per window is `2 / max_windows` on a
        /// dense fabric, and a quiescent batch covering `E` sparse events
        /// costs `2 + E` barriers versus `3·E` unbatched.
        max_windows: u32,
    },
}

impl Default for BatchPolicy {
    /// `Adaptive { max_windows: 128 }`: a dense fabric pays 1.02 crossings
    /// per window, and typical quiescent stretches (e.g. 10 µs sample gaps
    /// over a sub-µs lookahead, ten to twenty windows per gap) fit several
    /// events per election. Nothing is gained past that: a batch also ends
    /// at the first quiescent window whose next event lies beyond it.
    fn default() -> Self {
        BatchPolicy::Adaptive { max_windows: 128 }
    }
}

impl BatchPolicy {
    fn cap(self) -> u32 {
        match self {
            BatchPolicy::Off => 1,
            BatchPolicy::Adaptive { max_windows } => max_windows.max(1),
        }
    }
}

/// Per-run counters from the epoch driver. The sequential driver counts the
/// synchronization points the threaded driver would have crossed, so the
/// numbers are identical for the same inputs whether or not threads ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Window elections that found work (one per batch of windows).
    pub batches: u64,
    /// Grid windows actually executed (quiescent-skipped windows are not
    /// counted — they cost nothing).
    pub windows: u64,
    /// Barrier crossings: two per election round — including the final
    /// round that detects termination — plus one per executed window.
    pub barriers: u64,
    /// Cross-shard boundary events exchanged.
    pub boundary_events: u64,
}

/// Where one worker thread of the threaded driver spent its wall-clock:
/// everything between two barrier crossings is `busy` (running the window,
/// publishing and ingesting boundary events, the election arithmetic),
/// everything inside [`EpochBarrier::wait`] is `wait`. Observability only:
/// unlike [`EpochStats`] these are timings, differ from run to run, and
/// belong in no equality and no registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardWall {
    /// Wall-clock between crossings.
    pub busy: Duration,
    /// Wall-clock inside crossings, whether spinning, yielding or asleep.
    pub wait: Duration,
    /// Crossings whose wait ended asleep on the condvar. Every worker makes
    /// [`EpochStats::barriers`] crossings, so that is the base of the share.
    pub parked: u64,
}

/// Runs a sharded simulation to completion (all queues empty) or until the
/// next event would fall strictly after `deadline`. Returns the timestamp of
/// the last event any shard processed, the epoch counters, and one
/// [`ShardWall`] per shard when threads ran (none from the sequential loop,
/// which has no barrier to wait at).
///
/// `lookahead` must lower-bound the scheduling delay of every cross-shard
/// event: an event emitted while processing time `t` must be scheduled at
/// `t + lookahead` or later. `parallel` selects one thread per shard
/// (barrier-synchronized) versus a single-threaded epoch loop; all
/// combinations of `parallel` and `batch` produce identical results and
/// identical stats.
pub fn run_conservative<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    parallel: bool,
    batch: BatchPolicy,
) -> (SimTime, EpochStats, Vec<ShardWall>) {
    assert!(
        !lookahead.is_zero(),
        "conservative synchronization needs a positive lookahead"
    );
    let (stats, walls) = if shards.len() > 1 && parallel {
        run_threaded(shards, lookahead, deadline, batch)
    } else {
        (
            run_sequential(shards, lookahead, deadline, batch),
            Vec::new(),
        )
    };
    let end = shards
        .iter()
        .map(|s| s.last_processed())
        .max()
        .unwrap_or(SimTime::ZERO);
    (end, stats, walls)
}

/// The deterministic width schedule plus the post-window decision, factored
/// out so the sequential and threaded drivers cannot drift apart. Every
/// thread runs its own copy from identical shared observations, so the
/// schedules stay in lockstep without extra communication.
struct BatchSchedule {
    width: u32,
    cap: u32,
}

/// What to do after one executed grid window.
#[derive(PartialEq, Eq, Debug)]
enum WindowOutcome {
    /// The window exchanged traffic: the very next grid window may receive
    /// deliveries, so run it.
    Next,
    /// No traffic, and the next event lies in a later window of this batch:
    /// jump straight to that window index.
    SkipTo(u32),
    /// No traffic and no event before the batch end (or the deadline): end
    /// the batch and re-elect.
    EndBatch,
}

impl BatchSchedule {
    fn new(policy: BatchPolicy) -> Self {
        BatchSchedule {
            width: 1,
            cap: policy.cap(),
        }
    }

    /// Decides the next step after grid window `w`. `min_next` must be the
    /// pre-delivery minimum next-event time across shards: when
    /// `total_sent == 0` no delivery happened, so it is exact — which is the
    /// only case where it steers anything.
    fn after_window(
        &self,
        w: u32,
        total_sent: u64,
        min_next: Option<SimTime>,
        t0: SimTime,
        lookahead: SimDuration,
        deadline: SimTime,
    ) -> WindowOutcome {
        if total_sent > 0 {
            return WindowOutcome::Next;
        }
        let Some(next) = min_next else {
            return WindowOutcome::EndBatch;
        };
        if next > deadline {
            return WindowOutcome::EndBatch;
        }
        // The grid window containing `next`. All events < window w's end
        // were processed, so `next >= t0 + (w+1)·L` and the index advances.
        let idx = (next.as_picos() - t0.as_picos()) / lookahead.as_picos();
        let idx = u32::try_from(idx).unwrap_or(u32::MAX);
        debug_assert!(idx > w, "fast-forward must advance the grid");
        if idx >= self.width {
            WindowOutcome::EndBatch
        } else {
            WindowOutcome::SkipTo(idx)
        }
    }

    /// Width for the next batch: twice this one's, up to the cap. What the
    /// batch carried is not an input — see the module docs.
    fn widen(&mut self) {
        self.width = self.width.saturating_mul(2).min(self.cap);
    }
}

fn run_sequential<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    batch: BatchPolicy,
) -> EpochStats {
    let n = shards.len();
    let mut sched = BatchSchedule::new(batch);
    let mut stats = EpochStats::default();
    // The one buffer in flight between an outbox and its destination: always
    // empty between deliveries, so each swap hands the outbox a drained
    // buffer and the capacities circulate.
    let mut parcel: Vec<Boundary<S::Event>> = Vec::new();
    loop {
        // Election: two synchronization points in the threaded driver.
        stats.barriers += 2;
        let Some(t0) = shards.iter().filter_map(|s| s.next_time()).min() else {
            return stats;
        };
        if t0 > deadline {
            return stats;
        }
        stats.batches += 1;
        let mut w = 0u32;
        while w < sched.width {
            let window_end = t0 + lookahead * u64::from(w + 1);
            for shard in shards.iter_mut() {
                shard.run_window(window_end, deadline);
            }
            // Pre-delivery counts, exactly what the threaded driver's
            // published per-window stats hold.
            let total_sent: u64 = shards
                .iter_mut()
                .flat_map(|s| s.outboxes().iter())
                .map(|b| b.len() as u64)
                .sum();
            let min_next = shards.iter().filter_map(|s| s.next_time()).min();
            stats.windows += 1;
            stats.barriers += 1;
            stats.boundary_events += total_sent;
            // Exchange boundary events: destinations ingest batches in
            // source shard id order, exactly like the threaded path.
            for src in 0..n {
                for dest in 0..n {
                    let outbox = &mut shards[src].outboxes()[dest];
                    if outbox.is_empty() {
                        continue;
                    }
                    debug_assert!(dest != src, "no self-addressed batches");
                    std::mem::swap(outbox, &mut parcel);
                    shards[dest].deliver(&mut parcel);
                    debug_assert!(parcel.is_empty(), "deliver drains its batch");
                }
            }
            match sched.after_window(w, total_sent, min_next, t0, lookahead, deadline) {
                WindowOutcome::Next => w += 1,
                WindowOutcome::SkipTo(idx) => w = idx,
                WindowOutcome::EndBatch => break,
            }
        }
        sched.widen();
    }
}

/// Leader-computed per-batch decision shared between worker threads.
struct BatchCtl {
    t0: SimTime,
    done: bool,
}

/// Per-shard, per-parity counters published just before the window barrier:
/// how many boundary events this shard sent, and its next local event time
/// *before* any of this window's deliveries.
#[derive(Default, Clone, Copy)]
struct WindowStat {
    sent: u64,
    next: Option<SimTime>,
}

/// One worker's view of the barrier: crosses it and books the wall-clock on
/// either side, two clock reads per crossing.
struct TimedBarrier<'a> {
    barrier: &'a EpochBarrier,
    wall: ShardWall,
    /// When this worker last left the barrier (or started).
    left: Instant,
}

impl TimedBarrier<'_> {
    fn wait(&mut self) -> BarrierWait {
        let arrived = Instant::now();
        let outcome = self.barrier.wait();
        let left = Instant::now();
        self.wall.busy += arrived - self.left;
        self.wall.wait += left - arrived;
        self.wall.parked += u64::from(outcome == BarrierWait::Follower { parked: true });
        self.left = left;
        outcome
    }
}

fn run_threaded<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    batch: BatchPolicy,
) -> (EpochStats, Vec<ShardWall>) {
    let n = shards.len();
    let barrier = EpochBarrier::new(n);
    let times: Vec<Mutex<Option<SimTime>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let ctl = Mutex::new(BatchCtl {
        t0: SimTime::ZERO,
        done: false,
    });
    // mailboxes[src][dest][parity]: filled only by worker `src` (by swapping
    // its outbox in), drained only by worker `dest`. The executed-window
    // parity double-buffer is what lets one barrier per window suffice: the
    // slot drained after barrier `i` is next filled while preparing window
    // `i + 2`, i.e. after barrier `i + 1`, which the drainer crossed first —
    // so a slot is empty when it is filled, and the mutexes are never
    // contended.
    let mailboxes: Vec<Vec<[Mutex<Vec<Boundary<S::Event>>>; 2]>> = (0..n)
        .map(|_| {
            (0..n)
                .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                .collect()
        })
        .collect();
    // window_stats[shard][parity], double-buffered for the same reason.
    let window_stats: Vec<[Mutex<WindowStat>; 2]> = (0..n)
        .map(|_| {
            [
                Mutex::new(WindowStat::default()),
                Mutex::new(WindowStat::default()),
            ]
        })
        .collect();
    // First panic payload from any worker; re-raised by the driver after the
    // scope joins, so a panicking `ShardHandler` surfaces its own message.
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    // What each worker hands back: its copy of the (identical) epoch stats
    // and its own wall-clock split, or nothing if the run was abandoned.
    let finished: Vec<Option<(EpochStats, ShardWall)>> = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(n);
        for (i, shard) in shards.iter_mut().enumerate() {
            let barrier = &barrier;
            let times = &times;
            let ctl = &ctl;
            let mailboxes = &mailboxes;
            let window_stats = &window_stats;
            let panic_slot = &panic_slot;
            let worker = scope.spawn(move || {
                // A worker that unwinds mid-epoch can never make its
                // remaining barrier arrivals: catch the panic, park its
                // payload, and abort the barrier so the other n-1 workers
                // drain out instead of waiting forever.
                let body = std::panic::AssertUnwindSafe(|| {
                    let mut barrier = TimedBarrier {
                        barrier,
                        wall: ShardWall::default(),
                        left: Instant::now(),
                    };
                    let mut sched = BatchSchedule::new(batch);
                    let mut stats = EpochStats::default();
                    // Executed-window counter across the whole run; its
                    // parity selects the mailbox/stat buffers.
                    let mut executed = 0u64;
                    loop {
                        // Election phase 1: publish this shard's next event
                        // time.
                        *lock(&times[i]) = shard.next_time();
                        match barrier.wait() {
                            BarrierWait::Aborted => return None,
                            BarrierWait::Leader => {
                                // Exactly one thread computes the batch
                                // anchor from the published times; which
                                // thread it is does not matter.
                                let t0 = times.iter().filter_map(|m| *lock(m)).min();
                                let mut c = lock(ctl);
                                match t0 {
                                    Some(t0) if t0 <= deadline => {
                                        c.t0 = t0;
                                        c.done = false;
                                    }
                                    _ => c.done = true,
                                }
                            }
                            BarrierWait::Follower { .. } => {}
                        }
                        if barrier.wait() == BarrierWait::Aborted {
                            return None;
                        }
                        stats.barriers += 2;
                        // Election phase 2: read the leader's decision.
                        let t0 = {
                            let c = lock(ctl);
                            if c.done {
                                break;
                            }
                            c.t0
                        };
                        stats.batches += 1;
                        let mut w = 0u32;
                        while w < sched.width {
                            let p = (executed & 1) as usize;
                            executed += 1;
                            let window_end = t0 + lookahead * u64::from(w + 1);
                            shard.run_window(window_end, deadline);
                            let mut sent = 0u64;
                            for (outbox, slot) in shard.outboxes().iter_mut().zip(&mailboxes[i]) {
                                if !outbox.is_empty() {
                                    sent += outbox.len() as u64;
                                    let mut slot = lock(&slot[p]);
                                    debug_assert!(slot.is_empty(), "slot was drained");
                                    std::mem::swap(outbox, &mut *slot);
                                }
                            }
                            *lock(&window_stats[i][p]) = WindowStat {
                                sent,
                                next: shard.next_time(),
                            };
                            if barrier.wait() == BarrierWait::Aborted {
                                return None;
                            }
                            stats.barriers += 1;
                            stats.windows += 1;
                            // Ingest batches in source shard id order.
                            for row in mailboxes.iter() {
                                let mut slot = lock(&row[i][p]);
                                if !slot.is_empty() {
                                    shard.deliver(&mut slot);
                                    debug_assert!(slot.is_empty(), "deliver drains its batch");
                                }
                            }
                            // Identical shared observations on every thread
                            // ⇒ identical fast-forward / end-batch decisions,
                            // keeping the barrier counts aligned.
                            let mut total_sent = 0u64;
                            let mut min_next: Option<SimTime> = None;
                            for s in window_stats.iter() {
                                let ws = *lock(&s[p]);
                                total_sent += ws.sent;
                                min_next = match (min_next, ws.next) {
                                    (Some(a), Some(b)) => Some(a.min(b)),
                                    (a, b) => a.or(b),
                                };
                            }
                            stats.boundary_events += total_sent;
                            match sched.after_window(
                                w, total_sent, min_next, t0, lookahead, deadline,
                            ) {
                                WindowOutcome::Next => w += 1,
                                WindowOutcome::SkipTo(idx) => w = idx,
                                WindowOutcome::EndBatch => break,
                            }
                        }
                        sched.widen();
                    }
                    Some((stats, barrier.wall))
                });
                std::panic::catch_unwind(body).unwrap_or_else(|payload| {
                    lock(panic_slot).get_or_insert(payload);
                    barrier.abort();
                    None
                })
            });
            workers.push(worker);
        }
        workers
            .into_iter()
            .map(|worker| worker.join().expect("a worker catches its own panic"))
            .collect()
    });
    if let Some(payload) = lock(&panic_slot).take() {
        std::panic::resume_unwind(payload);
    }
    let (stats, walls): (Vec<EpochStats>, Vec<ShardWall>) = finished
        .into_iter()
        .map(|worker| worker.expect("no worker stopped early without a panic"))
        .unzip();
    debug_assert!(stats.iter().all(|s| *s == stats[0]), "lockstep stats");
    (stats[0], walls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// A toy sharded simulation: `count` tokens hop every `hop` ns. With
    /// `cross` set, a token processed at time `t` in shard `s` re-schedules
    /// itself in shard `(s + 1) % n` at `t + hop` (all cross-shard traffic);
    /// without it, tokens stay shard-local (a fully quiescent fabric). Every
    /// shard logs `(time, token)` in processing order, until `deadline`.
    struct Ring {
        me: usize,
        n: usize,
        hop: SimDuration,
        cross: bool,
        queue: EventQueue<u32>,
        outbox: Vec<Vec<Boundary<u32>>>,
        log: Vec<(SimTime, u32)>,
        last: SimTime,
    }

    const HOP: SimDuration = SimDuration::from_nanos(50);

    impl ShardHandler for Ring {
        type Event = u32;
        fn next_time(&self) -> Option<SimTime> {
            self.queue.peek_time()
        }
        fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
            while let Some(t) = self.queue.peek_time() {
                if t >= window_end || t > deadline {
                    break;
                }
                let (now, token) = self.queue.pop().expect("peeked");
                self.last = now;
                self.log.push((now, token));
                let dest = if self.cross { (self.me + 1) % self.n } else { self.me };
                let at = now + self.hop;
                if dest == self.me {
                    self.queue.push_ranked(at, token, token);
                } else {
                    self.outbox[dest].push((at, token, token));
                }
            }
        }
        fn outboxes(&mut self) -> &mut [Vec<Boundary<u32>>] {
            &mut self.outbox
        }
        fn deliver(&mut self, batch: &mut Vec<Boundary<u32>>) {
            for (t, rank, e) in batch.drain(..) {
                self.queue.push_ranked(t, rank, e);
            }
        }
        fn last_processed(&self) -> SimTime {
            self.last
        }
    }

    fn ring_full(n: usize, tokens: u32, hop: SimDuration, cross: bool) -> Vec<Ring> {
        let mut shards: Vec<Ring> = (0..n)
            .map(|me| Ring {
                me,
                n,
                hop,
                cross,
                queue: EventQueue::new(),
                outbox: vec![Vec::new(); n],
                log: Vec::new(),
                last: SimTime::ZERO,
            })
            .collect();
        for token in 0..tokens {
            // All tokens start in shard 0 at t=0, distinguished by rank.
            shards[0].queue.push_ranked(SimTime::ZERO, token, token);
        }
        shards
    }

    fn ring(n: usize, tokens: u32) -> Vec<Ring> {
        ring_full(n, tokens, HOP, true)
    }

    fn merged_log(shards: &[Ring]) -> Vec<(SimTime, u32)> {
        let mut all: Vec<(SimTime, u32)> =
            shards.iter().flat_map(|s| s.log.iter().copied()).collect();
        all.sort();
        all
    }

    #[test]
    fn ring_produces_identical_logs_at_any_shard_count_mode_and_policy() {
        let deadline = SimTime::from_nanos(1_000);
        let mut reference: Option<Vec<(SimTime, u32)>> = None;
        for n in [1usize, 2, 3, 5] {
            for parallel in [false, true] {
                for policy in [BatchPolicy::Off, BatchPolicy::default()] {
                    let mut shards = ring(n, 4);
                    let (end, ..) = run_conservative(&mut shards, HOP, deadline, parallel, policy);
                    assert_eq!(end, SimTime::from_nanos(1_000));
                    let log = merged_log(&shards);
                    match &reference {
                        None => reference = Some(log),
                        Some(r) => assert_eq!(r, &log, "n={n} parallel={parallel} {policy:?}"),
                    }
                }
            }
        }
        let log = reference.expect("at least one run");
        // 4 tokens, hops at 0,50,...,1000 inclusive: 21 events per token.
        assert_eq!(log.len(), 4 * 21);
    }

    /// The sequential driver reports exactly the synchronization schedule
    /// the threaded driver executes — under both policies, for a dense ring
    /// whose every window carries cross-shard traffic (the width doubles to
    /// the cap all the same) and for a sparse shard-local workload (widening
    /// plus fast-forward, exercising the parity buffers across skips).
    #[test]
    fn epoch_stats_are_identical_sequential_vs_threaded() {
        for policy in [BatchPolicy::Off, BatchPolicy::default()] {
            for (hop, cross) in [(HOP, true), (SimDuration::from_nanos(650), false)] {
                let deadline = SimTime::from_nanos(10_000);
                let mut seq = ring_full(3, 2, hop, cross);
                let mut thr = ring_full(3, 2, hop, cross);
                let (end_a, stats_a, walls_a) =
                    run_conservative(&mut seq, HOP, deadline, false, policy);
                let (end_b, stats_b, walls_b) =
                    run_conservative(&mut thr, HOP, deadline, true, policy);
                assert_eq!(end_a, end_b, "{policy:?} hop={hop:?} cross={cross}");
                assert_eq!(stats_a, stats_b, "{policy:?} hop={hop:?} cross={cross}");
                assert_eq!(
                    merged_log(&seq),
                    merged_log(&thr),
                    "{policy:?} hop={hop:?} cross={cross}"
                );
                assert!(stats_a.windows >= stats_a.batches);
                assert_eq!(
                    stats_a.barriers,
                    2 * (stats_a.batches + 1) + stats_a.windows,
                    "two barriers per election round (plus the terminating \
                     round) and one per executed window"
                );
                if cross {
                    // Every one of the 200-odd windows exchanged something.
                    assert!(stats_a.boundary_events >= stats_a.windows - 1);
                    if policy != BatchPolicy::Off {
                        // Traffic does not narrow a batch: elections are a
                        // small share of the crossings, not two in three.
                        assert!(
                            stats_a.windows >= 8 * stats_a.batches,
                            "dense batches stayed narrow: {stats_a:?}"
                        );
                    }
                }
                // One wall-clock split per thread, none without threads.
                assert!(walls_a.is_empty());
                assert_eq!(walls_b.len(), 3);
                assert!(walls_b.iter().all(|w| w.parked <= stats_b.barriers));
            }
        }
    }

    /// On a quiescent workload — events spaced at many lookaheads, no
    /// cross-shard traffic — adaptive batching collapses elections and cuts
    /// the barrier count at least 2× versus `BatchPolicy::Off`, while the
    /// processed logs stay identical.
    #[test]
    fn adaptive_batching_cuts_barriers_at_least_2x_when_quiescent() {
        // Shard-local hops every 650 ns over a 50 ns lookahead: thirteen
        // grid windows per event, so wide batches cover many events.
        let hop = SimDuration::from_nanos(650);
        let deadline = SimTime::from_nanos(100_000);
        let run = |policy: BatchPolicy| {
            let mut shards = ring_full(2, 1, hop, false);
            let (_, stats, _) = run_conservative(&mut shards, HOP, deadline, true, policy);
            (merged_log(&shards), stats)
        };
        let (log_off, off) = run(BatchPolicy::Off);
        let (log_on, on) = run(BatchPolicy::default());
        assert_eq!(log_off, log_on);
        assert_eq!(off.windows, off.batches, "`Off` elects once per window");
        assert!(
            off.barriers >= 2 * on.barriers,
            "expected ≥2× barrier reduction, got off={} on={}",
            off.barriers,
            on.barriers
        );
    }

    #[test]
    fn deadline_cut_is_inclusive() {
        // Events exactly at the deadline are processed; later ones are not.
        let mut shards = ring(2, 1);
        let (end, ..) = run_conservative(
            &mut shards,
            HOP,
            SimTime::from_nanos(100),
            true,
            BatchPolicy::default(),
        );
        assert_eq!(end, SimTime::from_nanos(100));
        assert_eq!(merged_log(&shards).len(), 3); // t = 0, 50, 100
    }

    #[test]
    fn empty_queues_terminate_immediately() {
        let mut shards = ring(3, 0);
        let (end, stats, _) =
            run_conservative(&mut shards, HOP, SimTime::MAX, true, BatchPolicy::default());
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.barriers, 2);
    }

    /// A ring shard that detonates once its window reaches the fuse time.
    struct Bomb {
        inner: Ring,
        fuse: Option<SimTime>,
    }

    impl ShardHandler for Bomb {
        type Event = u32;
        fn next_time(&self) -> Option<SimTime> {
            self.inner.next_time()
        }
        fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
            if let Some(fuse) = self.fuse {
                if window_end > fuse {
                    panic!("ring handler exploded in shard {}", self.inner.me);
                }
            }
            self.inner.run_window(window_end, deadline);
        }
        fn outboxes(&mut self) -> &mut [Vec<Boundary<u32>>] {
            self.inner.outboxes()
        }
        fn deliver(&mut self, batch: &mut Vec<Boundary<u32>>) {
            self.inner.deliver(batch);
        }
        fn last_processed(&self) -> SimTime {
            self.inner.last_processed()
        }
    }

    /// A panicking handler must surface its *own* message through the
    /// threaded driver — not a poisoned-mutex error on another thread, and
    /// not a barrier hang.
    #[test]
    fn panicking_handler_surfaces_its_own_message() {
        let mut shards: Vec<Bomb> = ring(3, 2)
            .into_iter()
            .enumerate()
            .map(|(i, inner)| Bomb {
                inner,
                fuse: (i == 1).then(|| SimTime::from_nanos(200)),
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_conservative(
                &mut shards,
                HOP,
                SimTime::from_nanos(1_000),
                true,
                BatchPolicy::default(),
            );
        }))
        .expect_err("the worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        assert!(
            msg.contains("ring handler exploded in shard 1"),
            "expected the handler's own panic message, got: {msg}"
        );
    }

    /// `n` threads cross `crossings` times under the given budgets. Every
    /// thread bumps a shared counter before each crossing and reads it after:
    /// having left crossing `k` it must see all `n` bumps of every crossing
    /// up to `k` (nobody left early) and at most the `n - 1` bumps its peers
    /// can have made towards crossing `k + 1` (nobody was lapped: `k + 2`
    /// cannot start before this thread arrives at `k + 1`). Exactly one
    /// thread leads each crossing. Returns how many waits ended parked.
    fn cross_repeatedly(n: usize, crossings: usize, spins: u32, yields: u32) -> usize {
        let barrier = EpochBarrier::new(n);
        let bumps = AtomicUsize::new(0);
        let outcomes: Vec<Vec<BarrierWait>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|| {
                        (1..=crossings)
                            .map(|k| {
                                bumps.fetch_add(1, Ordering::Relaxed);
                                let outcome = barrier.wait_within(spins, yields);
                                let seen = bumps.load(Ordering::Relaxed);
                                assert!(
                                    (k * n..(k + 1) * n).contains(&seen),
                                    "crossing {k} of {n} threads saw {seen} bumps"
                                );
                                outcome
                            })
                            .collect()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("no thread failed its check"))
                .collect()
        });
        for k in 0..crossings {
            let leaders = outcomes
                .iter()
                .filter(|of| of[k] == BarrierWait::Leader)
                .count();
            assert_eq!(leaders, 1, "crossing {k} of {n} threads");
        }
        outcomes
            .iter()
            .flatten()
            .filter(|&&o| o == BarrierWait::Follower { parked: true })
            .count()
    }

    /// The barrier holds at two threads, at three, and at more threads than
    /// the machine has cores, where waiters run out of budget and park.
    #[test]
    fn barrier_releases_nobody_early_and_laps_nobody() {
        for n in [2, 3, 8] {
            cross_repeatedly(n, 20_000, BARRIER_SPINS, BARRIER_YIELDS);
        }
        // No budget at all: a follower that is not released by its first
        // check takes the sleepers' lock and re-checks under it, so the
        // publish / park race runs at nearly every crossing (the first of
        // two followers can only miss it by being preempted mid-arrival).
        let crossings = 2_000;
        let parked = cross_repeatedly(3, crossings, 0, 0);
        assert!(
            (crossings..=2 * crossings).contains(&parked),
            "a wait without budget ends parked: {parked} of {}",
            2 * crossings
        );
    }

    /// An aborted barrier releases a waiter in whichever stage the abort
    /// finds it — the budgets pin the stage — and every later waiter.
    #[test]
    fn aborted_barrier_releases_waiters() {
        // The parking case races the abort against the waiter falling
        // asleep; it runs often enough to see both orders.
        for (spins, yields, rounds) in [(u32::MAX, 0, 1), (0, u32::MAX, 1), (0, 0, 200)] {
            for _ in 0..rounds {
                let barrier = EpochBarrier::new(2);
                let (waiting, straggler) = std::sync::mpsc::channel();
                std::thread::scope(|scope| {
                    let waiter = scope.spawn(|| {
                        waiting.send(()).expect("the straggler listens");
                        barrier.wait_within(spins, yields)
                    });
                    // The straggler never arrives: it aborts instead.
                    straggler.recv().expect("the waiter announces itself");
                    barrier.abort();
                    assert_eq!(waiter.join().expect("no panic"), BarrierWait::Aborted);
                });
                // Post-abort waits return immediately.
                assert_eq!(barrier.wait(), BarrierWait::Aborted);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let mut shards = ring(2, 1);
        run_conservative(
            &mut shards,
            SimDuration::ZERO,
            SimTime::MAX,
            false,
            BatchPolicy::Off,
        );
    }
}
