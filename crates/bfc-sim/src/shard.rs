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
//! # The round
//!
//! The driver repeats one step, the **round**: every shard runs the round's
//! window if it has one, publishes how many boundary events it sent and its
//! next local event time, crosses the barrier — once — ingests what the
//! others sent it and reads what they published. Every worker then holds the
//! same two observations, the round's `total_sent` and the pre-delivery
//! `min_next`, and evaluates the same pure function on them ([`next_round`]),
//! so the schedule needs no leader and no second crossing to hand a decision
//! back:
//!
//! * **A window that exchanged traffic is followed by the next grid window**,
//!   `[end, end + L)`. The fixed grid is exactly as safe as re-electing: every
//!   local event before `end` has been processed, and a cross-shard event is
//!   scheduled at least `L` after the event that emitted it, so whatever the
//!   window `[end - L, end)` sent lands at `end` or later and whatever the
//!   next one sends lands at `end + L` or later.
//! * **A round that exchanged nothing has an exact `min_next`** — no delivery
//!   changed any queue — so the next window is anchored at it directly,
//!   `[min_next, min_next + L)`, and the dead air in between costs nothing.
//!   When there is no next event, or it lies past the deadline, the run is
//!   over.
//!
//! The opening round of a run has no window: it only publishes, which makes
//! it the one election a run pays, and [`EpochStats::barriers`] is
//! `windows + 1` per [`run_conservative`] call. With `batching` off, every
//! window is followed by such a round — the classic schedule that re-elects
//! before each window and relies on neither argument above, at two crossings
//! per window. It stays as the reference the batched schedule is tested and
//! measured against.
//!
//! **One crossing per round suffices** because mailboxes and published
//! observations are double-buffered by round parity: the slot a reader drains
//! after crossing `r` is not rewritten until round `r + 2`, that is after
//! crossing `r + 1`, which the reader necessarily made first.
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
//! * the windows are derived only from queue state (`min` of per-shard
//!   `next_time`) and the boundary-event counts, never from thread timing;
//! * at each barrier, destination shards ingest boundary batches in **shard
//!   id order**, and each batch preserves its source's emission order;
//! * boundary events carry their scheduling `(time, rank)` key with them, so
//!   the destination queue orders them exactly as a global queue would have.
//!
//! With a content-derived rank (see [`crate::EventQueue::push_ranked`]) that
//! is unique among simultaneous events from different sources, the per-shard
//! pop order equals the serial engine's pop order restricted to that shard —
//! which is what makes sharded results bit-identical to serial ones, at any
//! shard count, batching or not.

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
    /// Crossed; `parked` says the wait outlasted the spin and yield budgets
    /// and ended asleep on the condvar (never true of the last to arrive,
    /// who does not wait).
    Crossed { parked: bool },
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
/// publishes the next generation (`Release`) and leaves;
/// every other thread watches the generation (`Acquire`) in three
/// stages: [`BARRIER_SPINS`] checks with a `spin_loop` hint in between, then
/// [`BARRIER_YIELDS`] checks with a `yield_now` in between, then a sleep on
/// the condvar. Each arrival is an `AcqRel` read-modify-write of one counter,
/// so the last arriver has acquired every earlier arriver's writes before it
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
            return BarrierWait::Crossed { parked: false };
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
            BarrierWait::Crossed { parked }
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
/// driver only ever calls these methods in the fixed sequence of a round
/// (`run_window` → `outboxes` → `next_time` → `deliver`), with the barrier
/// before `deliver` when running threaded.
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

/// Per-run counters from the epoch driver. The sequential driver counts the
/// synchronization points the threaded driver would have crossed, so the
/// numbers are identical for the same inputs whether or not threads ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Windows anchored at an exact `min_next` instead of at the previous
    /// window's end: the runs of back-to-back grid windows. With batching
    /// off that is every window.
    pub batches: u64,
    /// Windows executed (the dead air between two anchors is not counted —
    /// it costs nothing).
    pub windows: u64,
    /// Barrier crossings, one per round: per [`run_conservative`] call
    /// `windows + 1` with batching on and `2 * windows + 1` with it off.
    pub barriers: u64,
    /// Cross-shard boundary events exchanged.
    pub boundary_events: u64,
}

impl EpochStats {
    /// Books the round that was just crossed, given the one that follows it.
    fn book(&mut self, ran: Round, total_sent: u64, next: Option<Round>) {
        self.barriers += 1;
        self.windows += u64::from(ran != Round::Elect);
        self.boundary_events += total_sent;
        // Only a round without traffic is followed by an anchored window.
        let anchored = total_sent == 0 && matches!(next, Some(Round::Window(_)));
        self.batches += u64::from(anchored);
    }
}

/// Where one worker thread of the threaded driver spent its wall-clock:
/// everything between two barrier crossings is `busy` (running the window,
/// publishing and ingesting boundary events, the round arithmetic),
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
/// (barrier-synchronized; a lone shard runs on the caller's) versus a
/// single-threaded epoch loop; `batching` off re-elects before every window
/// (see the module docs). All four combinations produce identical results,
/// and the two drivers identical stats.
pub fn run_conservative<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    parallel: bool,
    batching: bool,
) -> (SimTime, EpochStats, Vec<ShardWall>) {
    assert!(
        !lookahead.is_zero(),
        "conservative synchronization needs a positive lookahead"
    );
    let (stats, walls) = if shards.len() > 1 && parallel {
        run_threaded(shards, lookahead, deadline, batching)
    } else {
        (
            run_sequential(shards, lookahead, deadline, batching),
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

/// What a round runs before it publishes and crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// Nothing: the shards only publish their next event times.
    Elect,
    /// Every local event before this instant (and up to the deadline).
    Window(SimTime),
}

/// The round that follows `ran`, or `None` when the run is over — the whole
/// schedule, shared by the two drivers and evaluated by every worker thread
/// on identical observations, which is what keeps them in lockstep.
/// `min_next` is the pre-delivery minimum next-event time across shards: it
/// is exact when `total_sent == 0`, the only case where it steers anything.
fn next_round(
    ran: Round,
    total_sent: u64,
    min_next: Option<SimTime>,
    lookahead: SimDuration,
    deadline: SimTime,
    batching: bool,
) -> Option<Round> {
    match ran {
        Round::Window(_) if !batching => Some(Round::Elect),
        Round::Window(end) if total_sent > 0 => Some(Round::Window(end + lookahead)),
        _ => {
            let next = min_next.filter(|&next| next <= deadline)?;
            debug_assert!(
                !matches!(ran, Round::Window(end) if next < end),
                "a window leaves nothing before its end"
            );
            Some(Round::Window(next + lookahead))
        }
    }
}

fn run_sequential<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    batching: bool,
) -> EpochStats {
    let n = shards.len();
    let mut stats = EpochStats::default();
    // The one buffer in flight between an outbox and its destination: always
    // empty between deliveries, so each swap hands the outbox a drained
    // buffer and the capacities circulate.
    let mut parcel: Vec<Boundary<S::Event>> = Vec::new();
    let mut round = Some(Round::Elect);
    while let Some(ran) = round {
        if let Round::Window(end) = ran {
            for shard in shards.iter_mut() {
                shard.run_window(end, deadline);
            }
        }
        // Pre-delivery observations, exactly what the threaded driver's
        // workers publish.
        let total_sent: u64 = shards
            .iter_mut()
            .flat_map(|s| s.outboxes().iter())
            .map(|b| b.len() as u64)
            .sum();
        let min_next = shards.iter().filter_map(|s| s.next_time()).min();
        // Exchange boundary events: destinations ingest batches in source
        // shard id order, exactly like the threaded path.
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
        round = next_round(ran, total_sent, min_next, lookahead, deadline, batching);
        stats.book(ran, total_sent, round);
    }
    stats
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
        self.wall.parked += u64::from(outcome == BarrierWait::Crossed { parked: true });
        self.left = left;
        outcome
    }
}

fn run_threaded<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    batching: bool,
) -> (EpochStats, Vec<ShardWall>) {
    let n = shards.len();
    let barrier = EpochBarrier::new(n);
    // mailboxes[src][dest][parity]: filled only by worker `src` (by swapping
    // its outbox in), drained only by worker `dest`. Double-buffered by
    // round parity (see the module docs), so a slot is empty when it is
    // filled and the mutexes are never contended.
    let mailboxes: Vec<Vec<[Mutex<Vec<Boundary<S::Event>>>; 2]>> = (0..n)
        .map(|_| (0..n).map(|_| Default::default()).collect())
        .collect();
    // published[shard][parity]: how many boundary events the shard sent this
    // round, and its next local event time *before* this round's deliveries.
    let published: Vec<[Mutex<(u64, Option<SimTime>)>; 2]> =
        (0..n).map(|_| Default::default()).collect();
    // First panic payload from any worker; re-raised by the driver after the
    // scope joins, so a panicking `ShardHandler` surfaces its own message.
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    // What each worker hands back: its copy of the (identical) epoch stats
    // and its own wall-clock split, or nothing if the run was abandoned.
    let finished: Vec<Option<(EpochStats, ShardWall)>> = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(n);
        for (i, shard) in shards.iter_mut().enumerate() {
            let barrier = &barrier;
            let mailboxes = &mailboxes;
            let published = &published;
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
                    let mut stats = EpochStats::default();
                    let mut round = Some(Round::Elect);
                    while let Some(ran) = round {
                        // One crossing per round, so their count is the
                        // round's number and its parity the buffers'.
                        let p = (stats.barriers & 1) as usize;
                        let mut sent = 0u64;
                        if let Round::Window(end) = ran {
                            shard.run_window(end, deadline);
                            for (outbox, slot) in shard.outboxes().iter_mut().zip(&mailboxes[i]) {
                                if !outbox.is_empty() {
                                    sent += outbox.len() as u64;
                                    let mut slot = lock(&slot[p]);
                                    debug_assert!(slot.is_empty(), "slot was drained");
                                    std::mem::swap(outbox, &mut *slot);
                                }
                            }
                        }
                        *lock(&published[i][p]) = (sent, shard.next_time());
                        if barrier.wait() == BarrierWait::Aborted {
                            return None;
                        }
                        // What each source sent here and published, in
                        // source shard id order.
                        let mut total_sent = 0u64;
                        let mut min_next: Option<SimTime> = None;
                        for (row, slot) in mailboxes.iter().zip(published) {
                            let mut inbox = lock(&row[i][p]);
                            if !inbox.is_empty() {
                                shard.deliver(&mut inbox);
                                debug_assert!(inbox.is_empty(), "deliver drains its batch");
                            }
                            let (sent, next) = *lock(&slot[p]);
                            total_sent += sent;
                            min_next = min_next.into_iter().chain(next).min();
                        }
                        round =
                            next_round(ran, total_sent, min_next, lookahead, deadline, batching);
                        stats.book(ran, total_sent, round);
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
                let dest = if self.cross {
                    (self.me + 1) % self.n
                } else {
                    self.me
                };
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
    fn ring_produces_identical_logs_at_any_shard_count_and_mode_batching_or_not() {
        let deadline = SimTime::from_nanos(1_000);
        let mut reference: Option<Vec<(SimTime, u32)>> = None;
        for n in [1usize, 2, 3, 5] {
            for parallel in [false, true] {
                for batching in [false, true] {
                    let mut shards = ring(n, 4);
                    let (end, ..) =
                        run_conservative(&mut shards, HOP, deadline, parallel, batching);
                    assert_eq!(end, SimTime::from_nanos(1_000));
                    let log = merged_log(&shards);
                    match &reference {
                        None => reference = Some(log),
                        Some(r) => {
                            assert_eq!(r, &log, "n={n} parallel={parallel} batching={batching}")
                        }
                    }
                }
            }
        }
        let log = reference.expect("at least one run");
        // 4 tokens, hops at 0,50,...,1000 inclusive: 21 events per token.
        assert_eq!(log.len(), 4 * 21);
    }

    /// The schedule is a pure function of what a round observed.
    #[test]
    fn next_round_follows_traffic_on_the_grid_and_silence_to_the_next_event() {
        let ns = SimTime::from_nanos;
        let (deadline, ran) = (ns(1_000), Round::Window(ns(150)));
        let next = |ran, sent, min_next, batching| {
            next_round(ran, sent, min_next, HOP, deadline, batching)
        };
        // Traffic: the next grid window, wherever the next local event is.
        assert_eq!(
            next(ran, 3, Some(ns(700)), true),
            Some(Round::Window(ns(200)))
        );
        assert_eq!(next(ran, 3, None, true), Some(Round::Window(ns(200))));
        // Silence: the window anchored at the next event, if the run has one.
        assert_eq!(
            next(ran, 0, Some(ns(700)), true),
            Some(Round::Window(ns(750)))
        );
        assert_eq!(
            next(ran, 0, Some(deadline), true),
            Some(Round::Window(ns(1_050)))
        );
        assert_eq!(next(ran, 0, Some(ns(1_001)), true), None);
        assert_eq!(next(ran, 0, None, true), None);
        // An election is silent by construction, batching or not.
        for batching in [false, true] {
            assert_eq!(
                next(Round::Elect, 0, Some(ns(700)), batching),
                Some(Round::Window(ns(750)))
            );
            assert_eq!(next(Round::Elect, 0, None, batching), None);
        }
        // Without batching a window is followed by an election, always.
        assert_eq!(next(ran, 3, Some(ns(700)), false), Some(Round::Elect));
        assert_eq!(next(ran, 0, None, false), Some(Round::Elect));
    }

    /// The sequential driver reports exactly the synchronization schedule
    /// the threaded driver executes — batching or not, for a dense ring
    /// whose every window carries cross-shard traffic and for a sparse
    /// shard-local workload (every window anchored past a stretch of dead
    /// air, exercising the parity buffers across the jumps).
    #[test]
    fn epoch_stats_are_identical_sequential_vs_threaded() {
        for batching in [false, true] {
            for (hop, cross) in [(HOP, true), (SimDuration::from_nanos(650), false)] {
                let deadline = SimTime::from_nanos(10_000);
                let mut seq = ring_full(3, 2, hop, cross);
                let mut thr = ring_full(3, 2, hop, cross);
                let (end_a, stats_a, walls_a) =
                    run_conservative(&mut seq, HOP, deadline, false, batching);
                let (end_b, stats_b, walls_b) =
                    run_conservative(&mut thr, HOP, deadline, true, batching);
                let case = format!("batching={batching} hop={hop:?} cross={cross}");
                assert_eq!(end_a, end_b, "{case}");
                assert_eq!(stats_a, stats_b, "{case}");
                assert_eq!(merged_log(&seq), merged_log(&thr), "{case}");
                if batching {
                    assert_eq!(
                        stats_a.barriers,
                        stats_a.windows + 1,
                        "{case}: one crossing per window after the opening election"
                    );
                } else {
                    assert_eq!(
                        stats_a.barriers,
                        2 * stats_a.windows + 1,
                        "{case}: an election before every window and one to end the run"
                    );
                    assert_eq!(stats_a.batches, stats_a.windows, "{case}");
                }
                if cross {
                    // Every one of the 200-odd windows exchanged something,
                    // so batching anchored the first and no other.
                    assert!(stats_a.boundary_events >= stats_a.windows - 1);
                    assert_eq!(stats_a.batches, if batching { 1 } else { stats_a.windows });
                } else {
                    // No window exchanged anything: each was anchored.
                    assert_eq!(stats_a.boundary_events, 0);
                    assert_eq!(stats_a.batches, stats_a.windows, "{case}");
                }
                // One wall-clock split per thread, none without threads.
                assert!(walls_a.is_empty());
                assert_eq!(walls_b.len(), 3);
                assert!(walls_b.iter().all(|w| w.parked <= stats_b.barriers));
            }
        }
    }

    /// On a quiescent workload — events spaced at many lookaheads, no
    /// cross-shard traffic — both schedules anchor every window at the next
    /// event, so they run the same windows, and batching pays one crossing
    /// for each where re-electing pays two.
    #[test]
    fn batching_pays_one_crossing_per_quiescent_window_where_re_electing_pays_two() {
        // Shard-local hops every 650 ns over a 50 ns lookahead: thirteen
        // lookaheads of dead air between two windows.
        let hop = SimDuration::from_nanos(650);
        let deadline = SimTime::from_nanos(100_000);
        let run = |batching: bool| {
            let mut shards = ring_full(2, 1, hop, false);
            let (_, stats, _) = run_conservative(&mut shards, HOP, deadline, true, batching);
            (merged_log(&shards), stats)
        };
        let (log_off, off) = run(false);
        let (log_on, on) = run(true);
        assert_eq!(log_off, log_on);
        assert_eq!(on.windows, log_on.len() as u64, "one window per event");
        assert_eq!(off.windows, on.windows);
        assert_eq!(off.batches, on.batches);
        assert_eq!(on.barriers, on.windows + 1);
        assert_eq!(off.barriers, 2 * off.windows + 1);
    }

    #[test]
    fn deadline_cut_is_inclusive() {
        // Events exactly at the deadline are processed; later ones are not.
        let mut shards = ring(2, 1);
        let (end, ..) = run_conservative(&mut shards, HOP, SimTime::from_nanos(100), true, true);
        assert_eq!(end, SimTime::from_nanos(100));
        assert_eq!(merged_log(&shards).len(), 3); // t = 0, 50, 100
    }

    #[test]
    fn empty_queues_terminate_immediately() {
        let mut shards = ring(3, 0);
        for batching in [false, true] {
            let (end, stats, _) = run_conservative(&mut shards, HOP, SimTime::MAX, true, batching);
            assert_eq!(end, SimTime::ZERO);
            // The opening election finds nothing: one crossing, no window.
            let one_crossing = EpochStats {
                barriers: 1,
                ..EpochStats::default()
            };
            assert_eq!(stats, one_crossing);
        }
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
            run_conservative(&mut shards, HOP, SimTime::from_nanos(1_000), true, true);
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
    /// cannot start before this thread arrives at `k + 1`). Returns how many
    /// waits ended parked.
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
        outcomes
            .iter()
            .flatten()
            .filter(|&&o| o == BarrierWait::Crossed { parked: true })
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
        run_conservative(&mut shards, SimDuration::ZERO, SimTime::MAX, false, false);
    }
}
