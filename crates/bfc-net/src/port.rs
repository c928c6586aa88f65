//! Egress port model: physical queues, deficit-round-robin scheduling,
//! strict-priority control and high-priority queues, and pause state.
//!
//! Each full-duplex port has an egress side modelled here. The egress owns
//! the link toward its peer, a configurable number of physical FIFO queues
//! scheduled by deficit round robin (the paper's fair-queueing choice), plus
//! three special queues:
//!
//! * a **control queue** for ACK/CNP-class packets (strict priority, never
//!   paused by BFC),
//! * the **high-priority queue** that BFC uses for the first packet of every
//!   flow (§3.7), and
//! * an **overflow queue** for packets whose flow could not be tracked in the
//!   flow table (§3.8); it participates in DRR like a physical queue.
//!
//! Pause state is two-fold: PFC pauses the whole egress, while a received
//! BFC [`PauseFrame`] pauses individual physical queues based on the VFID of
//! their head packet, re-evaluated after every dequeue (§3.6).
//!
//! # Queue table
//!
//! Deficit round robin schedules one table of queues, physical queues first
//! and the overflow queue last, `Port::entry_of`: one `u32` per queue. An
//! empty queue has nothing else — no FIFO, no deficit, no flag — and its
//! `u32` is `NO_ENTRY`. A *backlogged* queue has an **entry**, a
//! `queue::DrrQueue` — its FIFO, its deficit, whether it is *eligible* —
//! in one slot of the port's packet arena, next to its packets, and its
//! `u32` is that slot. Three invariants:
//!
//! * a queue has an entry **iff** its FIFO is non-empty: it takes one on
//!   the empty → backlogged enqueue and gives it back when a pick drains it
//!   or a flush empties it, so a drained queue's deficit goes with it;
//! * an entry is in the `rotation` **iff** it exists: the backlogged queues
//!   are the rotation;
//! * an entry is `eligible` **iff** its head is not named by the installed
//!   pause frame (nothing tracks the overflow queue's flows: its entry is
//!   always eligible). The scheduler skips an ineligible entry; the pause
//!   threshold's `Nactive` (§3.4) counts the eligible ones.
//!
//! Two totals over the table are cached, because per-packet paths read them
//! and each replaced a measured scan: `eligible_count` (`Nactive`, on every
//! BFC enqueue and dequeue) and `data_bytes` (ECN, INT, the depth
//! histogram). Both are recounted over the rotation in a `debug_assert`,
//! as is the rotation against the table; no scan or check of a per-packet
//! path visits an empty queue. A snapshot stores every queue's FIFO and
//! deficit (an empty queue's are empty and zero) and the rotation as queue
//! indices, but no entry, flag or total: restore re-derives them all.
//!
//! # Storage
//!
//! The port's queues own no storage of their own. Every packet queued at the
//! egress — control, high-priority, physical or overflow — sits in one slot
//! of the port's packet arena (`crate::queue`), and each FIFO is a linked
//! list through it; so does every backlogged queue's entry. The port's
//! storage is a slice of the switch's shared buffer that grows with the
//! port's total backlog — packets plus backlogged queues — and once it has
//! reached its high-water mark enqueue and dequeue never allocate, however
//! the backlog moves between queues. What grows with the queue count is the
//! table's 4 bytes a queue: Ideal-FQ's 1 000 queues cost a port 4 KB, not
//! the 40 KB a dense table of entries would.
//!
//! The rotation is intrusive too: a ring through the `next` index of each
//! entry's slot, entered at the port's `rotation_back` — the last entry,
//! whose `next` is the front — so joining, leaving and turning it touch two
//! entries and never allocate, whether the port has 32 queues or Ideal-FQ's
//! 1 000.
//!
//! # The transmitter is an instant, not an event
//!
//! The wire behind an egress is a [`Transmitter`]: the instant its current
//! serialization ends (`busy_until`) and whether a `TxComplete` event is
//! already scheduled for that instant (`wake_pending`). The serialization
//! end only becomes an *event* when something could be dequeued at it —
//! [`Port::has_eligible`] when the transmission starts, or the first
//! `try_transmit` that finds the wire taken afterwards. A lone packet
//! through an idle egress therefore costs one event (its arrival at the
//! next hop), not two. Because a `TxComplete` ranks by its `(node, port)`
//! cable and an egress has at most one pending, the late-scheduled event
//! takes the `(time, rank)` slot an eagerly scheduled one would have held:
//! every event that is popped, is popped in the same order either way.
//!
//! # A paused egress costs nothing
//!
//! A pick that finds nothing eligible — every backlogged queue paused by the
//! frame — still rotates the queues and zeroes their deficits, and it does
//! so in closed form (`sweep_paused`), not in 2n+1 visits. A serialization
//! end that could only do that sweep is not an event either: `Port::arm_wake`
//! records it as *owed* at `busy_until`, and the owner pays it with
//! `Port::settle` at its first touch of the port strictly after that
//! instant. Nothing touched the port in between, so the sweep sees the
//! state the `TxComplete` would have seen; an arrival at exactly
//! `busy_until` ranks before that `TxComplete` and sees the unswept queues,
//! and one that makes something eligible schedules the real event instead.

use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use bfc_sim::{SimDuration, SimTime};

use crate::link::Link;
use crate::packet::{Packet, PauseFrame, MTU};
use crate::policy::QueueTarget;
use crate::queue::{DrrQueue, PacketArena, PhysQueue, QueuedPacket};
use crate::types::NodeId;

/// The serializer behind one egress — a switch port's or a NIC's.
///
/// "Busy" is a comparison against `busy_until`, not a flag an event has to
/// clear. The owner asks [`Transmitter::busy`] before dequeuing; when the
/// wire is taken and there is something to send it calls
/// [`Transmitter::arm_wake`] and schedules a `TxComplete` at the instant it
/// returns, and when that event pops it calls [`Transmitter::wake`].
///
/// Ties are decided by the event ranks ([`crate::NetEvent::canon_rank`]):
/// packet arrivals, flow starts and link dynamics rank *before* a
/// `TxComplete` of the same instant, so to them the wire is still taken at
/// `now == busy_until` ([`Transmitter::busy`]); host timers rank *after*
/// it, so to them it is free ([`Transmitter::busy_past_end`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Transmitter {
    /// End of the latest serialization; `SimTime::ZERO` until the first one
    /// (every serialization takes time, so no real end is zero).
    busy_until: SimTime,
    /// Whether a `TxComplete` for `busy_until` is in the event queue.
    wake_pending: bool,
}

impl Transmitter {
    /// End of the latest serialization (`SimTime::ZERO` before the first).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether a `TxComplete` is scheduled for [`Transmitter::busy_until`].
    pub fn wake_pending(&self) -> bool {
        self.wake_pending
    }

    /// Whether the wire is taken, as seen at `now` by an event that ranks
    /// before `TxComplete`: through `busy_until` inclusive, and until a
    /// pending wake has been delivered.
    #[inline]
    pub fn busy(&self, now: SimTime) -> bool {
        self.wake_pending || (now <= self.busy_until && self.busy_until != SimTime::ZERO)
    }

    /// [`Transmitter::busy`] as seen by an event that ranks after
    /// `TxComplete` (a host timer): the serialization ending at `now` is
    /// over.
    #[inline]
    pub fn busy_past_end(&self, now: SimTime) -> bool {
        self.wake_pending || now < self.busy_until
    }

    /// Asks for the serialization end to be delivered as an event. Returns
    /// the instant to schedule the `TxComplete` at, or `None` when one is
    /// already pending.
    #[inline]
    pub fn arm_wake(&mut self) -> Option<SimTime> {
        if self.wake_pending {
            return None;
        }
        self.wake_pending = true;
        Some(self.busy_until)
    }

    /// The `TxComplete` popped at `now`.
    #[inline]
    pub fn wake(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.busy_until,
            "TxComplete at {now} precedes the serialization end {}",
            self.busy_until
        );
        self.wake_pending = false;
    }

    /// Starts a serialization at `now` that ends at `end`.
    #[inline]
    pub fn start(&mut self, now: SimTime, end: SimTime) {
        // One packet on the wire: the property the old `busy` flag implied.
        debug_assert!(
            !self.wake_pending && now >= self.busy_until,
            "serialization starts at {now}, before the previous one ended at {}",
            self.busy_until
        );
        debug_assert!(end > now, "a serialization takes time");
        self.busy_until = end;
    }
}

bfc_sim::snap_struct! { Transmitter { busy_until, wake_pending } }

/// The entry of an empty queue: it has no state.
const NO_ENTRY: u32 = u32::MAX;

/// The egress side of one switch/host port.
#[derive(Debug)]
pub struct Port {
    /// The node on the other end of the cable and its local port index there.
    pub peer: Option<(NodeId, u32)>,
    /// The attached link (egress direction). Mutable under network dynamics
    /// (rate degradation) via [`Port::set_link_rate`].
    pub link: Link,

    /// The slots every queue below links its packets through, and the
    /// table's backlogged queues keep their DRR state in.
    arena: PacketArena,
    control: PhysQueue,
    high_priority: PhysQueue,

    /// The queue table, physical queues then the overflow queue: the arena
    /// slot holding each queue's [`DrrQueue`] — its *entry* — while the
    /// queue is backlogged, [`NO_ENTRY`] while it is empty.
    entry_of: Vec<u32>,
    /// The rotation: the entries in service order, a ring through their
    /// slots' `next`. This is its last entry, so its `next` is the front,
    /// the queue being visited; meaningless while `rotation_len` is zero.
    /// With Q queues per port but a handful backlogged, a pick is
    /// O(backlogged), not O(Q).
    rotation_back: u32,
    /// Entries in the rotation: the backlogged queues of the table.
    rotation_len: usize,
    /// Whether the front of the rotation was given this visit's quantum.
    drr_credited: bool,

    /// Entries with `eligible` set.
    eligible_count: usize,
    /// Bytes in the table and `high_priority` (control excluded).
    data_bytes: u64,

    /// The wire: when the current serialization ends and whether that end
    /// is scheduled as an event.
    pub(crate) tx: Transmitter,
    /// Whether the serialization ending at `tx.busy_until` found only
    /// paused backlog and was left without an event: the all-paused sweep
    /// its `TxComplete` would have made is owed (`Port::settle`).
    sweep_owed: bool,

    /// Whether the attached cable is up. A down egress never transmits; its
    /// queues are flushed by the owning switch when the link dies.
    up: bool,

    /// When the current PFC pause began; `Some` exactly while paused.
    pfc_pause_started: Option<SimTime>,
    pfc_paused_total: SimDuration,

    pause_frame: Option<PauseFrame>,

    tx_data_bytes: u64,
}

impl Port {
    /// Creates an egress port with `num_queues` physical queues; its DRR
    /// quantum is one [`MTU`].
    pub fn new(link: Link, peer: Option<(NodeId, u32)>, num_queues: usize) -> Self {
        assert!(num_queues > 0, "a port needs at least one physical queue");
        Port {
            peer,
            link,
            arena: PacketArena::new(),
            control: PhysQueue::default(),
            high_priority: PhysQueue::default(),
            entry_of: vec![NO_ENTRY; num_queues + 1],
            rotation_back: 0,
            rotation_len: 0,
            drr_credited: false,
            eligible_count: 0,
            data_bytes: 0,
            tx: Transmitter::default(),
            sweep_owed: false,
            up: true,
            pfc_pause_started: None,
            pfc_paused_total: SimDuration::ZERO,
            pause_frame: None,
            tx_data_bytes: 0,
        }
    }

    /// The transmitter behind this egress.
    pub fn tx(&self) -> &Transmitter {
        &self.tx
    }

    /// Whether the attached cable is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Marks the cable up or down. Going down also clears the pause state:
    /// PFC and per-flow pauses are MAC-level state that does not survive a
    /// link reset (accumulated pause time is preserved for metrics).
    pub fn set_up(&mut self, up: bool, now: SimTime) {
        self.up = up;
        if !up {
            self.set_pfc_paused(false, now);
            self.set_pause_frame(None);
        }
    }

    /// Changes the egress link rate (degradation / repair under dynamics).
    pub fn set_link_rate(&mut self, gbps: f64) {
        assert!(gbps > 0.0, "link rate must be positive");
        self.link.rate_gbps = gbps;
    }

    /// Number of physical queues (excluding control/high-priority/overflow).
    pub fn num_queues(&self) -> usize {
        self.entry_of.len() - 1
    }

    /// The FIFO a [`QueueTarget`] names.
    fn fifo(&self, target: QueueTarget) -> &PhysQueue {
        match target {
            QueueTarget::Control => &self.control,
            QueueTarget::HighPriority => &self.high_priority,
            _ => self.table_fifo(self.table_index(target)),
        }
    }

    /// The table index of a [`QueueTarget`] that names a physical queue or
    /// the overflow queue.
    #[inline]
    fn table_index(&self, target: QueueTarget) -> usize {
        match target {
            QueueTarget::Overflow => self.num_queues(),
            QueueTarget::Phys(i) => {
                assert!(i < self.num_queues(), "physical queue index out of range");
                i
            }
            _ => unreachable!("{target:?} is not in the queue table"),
        }
    }

    /// The FIFO of table queue `i`: its entry's, or an empty one.
    fn table_fifo(&self, i: usize) -> &PhysQueue {
        match self.entry_of[i] {
            NO_ENTRY => &PhysQueue::EMPTY,
            e => &self.arena.queue(e).fifo,
        }
    }

    /// The [`QueueTarget`] of table entry `i`.
    fn target_of(&self, i: usize) -> QueueTarget {
        if i < self.num_queues() {
            QueueTarget::Phys(i)
        } else {
            QueueTarget::Overflow
        }
    }

    /// Bytes queued in physical queue `i`.
    pub fn queue_bytes(&self, i: usize) -> u64 {
        self.fifo(QueueTarget::Phys(i)).bytes()
    }

    /// True if physical queue `i` holds no packets.
    pub fn queue_is_empty(&self, i: usize) -> bool {
        self.target_is_empty(QueueTarget::Phys(i))
    }

    /// True if the queue a [`QueueTarget`] names currently holds nothing.
    /// The switch probes this around enqueue/dequeue to detect the
    /// empty<->non-empty transitions the flight recorder reports.
    pub fn target_is_empty(&self, target: QueueTarget) -> bool {
        match target {
            QueueTarget::Control => self.control.is_empty(),
            QueueTarget::HighPriority => self.high_priority.is_empty(),
            _ => self.entry_of[self.table_index(target)] == NO_ENTRY,
        }
    }

    /// Total bytes queued across all data-plane queues (physical + high
    /// priority + overflow). Used for ECN marking, INT telemetry and the
    /// queue-depth histogram — all per-packet paths, so the total is a
    /// counter maintained on enqueue/dequeue/flush, not a scan.
    pub fn data_queued_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.data_bytes,
            self.rotation()
                .map(|e| self.arena.queue(e).fifo.bytes())
                .sum::<u64>()
                + self.high_priority.bytes(),
            "data-plane byte counter out of sync"
        );
        self.data_bytes
    }

    /// The most bytes queued in any one physical queue (the overflow queue
    /// left out), 0 when none holds any. O(backlogged): it reads the
    /// rotation.
    pub fn max_queue_bytes(&self) -> u64 {
        let overflow = self.num_queues();
        self.rotation()
            .filter(|&e| self.arena.queue_index(e) != overflow)
            .map(|e| self.arena.queue(e).fifo.bytes())
            .max()
            .unwrap_or(0)
    }

    /// Total bytes queued including the control queue.
    pub fn total_queued_bytes(&self) -> u64 {
        self.data_queued_bytes() + self.control.bytes()
    }

    /// Number of physical queues that currently hold packets. O(1): the
    /// rotation holds exactly the table's entries, one per backlogged queue.
    pub fn occupied_queue_count(&self) -> usize {
        debug_assert!(
            self.rotation().all(|e| {
                self.entry_of[self.arena.queue_index(e)] == e
                    && !self.arena.queue(e).fifo.is_empty()
            }),
            "the rotation is not the backlogged queues' entries"
        );
        self.rotation_len - usize::from(self.entry_of[self.num_queues()] != NO_ENTRY)
    }

    /// The entries of the rotation, from the front.
    fn rotation(&self) -> impl Iterator<Item = u32> + '_ {
        let mut e = self.rotation_back;
        (0..self.rotation_len).map(move |_| {
            e = self.arena.next(e);
            e
        })
    }

    /// Entry `e`, not in the rotation, joins it at the back.
    fn rotation_push_back(&mut self, e: u32) {
        if self.rotation_len == 0 {
            self.arena.set_next(e, e);
        } else {
            let back = self.rotation_back;
            self.arena.set_next(e, self.arena.next(back));
            self.arena.set_next(back, e);
        }
        self.rotation_back = e;
        self.rotation_len += 1;
    }

    /// Whether the installed pause frame names the VFID of `fifo`'s head.
    /// Short-circuits on the (common) no-frame case, so schemes that never
    /// install BFC pause frames pay one branch, not a head lookup.
    #[inline]
    fn head_paused(&self, fifo: &PhysQueue) -> bool {
        let Some(frame) = &self.pause_frame else {
            return false;
        };
        fifo.head(&self.arena)
            .is_some_and(|head| frame.contains(head.vfid))
    }

    /// What `eligible` of table queue `i` must be while `fifo` is its FIFO.
    /// Nothing tracks the overflow queue's flows, so no pause frame names
    /// its head.
    #[inline]
    fn eligible(&self, i: usize, fifo: &PhysQueue) -> bool {
        !fifo.is_empty() && (i == self.num_queues() || !self.head_paused(fifo))
    }

    /// What `eligible` of entry `e` must be.
    fn is_eligible(&self, e: u32) -> bool {
        self.eligible(self.arena.queue_index(e), &self.arena.queue(e).fifo)
    }

    /// Re-derives entry `e`'s `eligible` after the frame changed.
    fn refresh_eligible(&mut self, e: u32) {
        let eligible = self.is_eligible(e);
        let q = self.arena.queue_mut(e);
        if eligible != q.eligible {
            q.eligible = eligible;
            if eligible {
                self.eligible_count += 1;
            } else {
                self.eligible_count -= 1;
            }
        }
    }

    /// True if physical queue `i` is paused by the most recent BFC pause
    /// frame received from the downstream peer (head-of-queue VFID match).
    pub fn is_queue_paused(&self, i: usize) -> bool {
        self.head_paused(self.fifo(QueueTarget::Phys(i)))
    }

    /// Number of *active* queues: non-empty physical queues that are not
    /// paused, plus the high-priority and overflow queues if they hold data.
    /// This is the `Nactive` of the paper's pause threshold (§3.4). O(1):
    /// the BFC policy evaluates it on every enqueue and dequeue, so the
    /// table's part is a count of `eligible` flags instead of an O(Q) scan
    /// per packet.
    pub fn active_queue_count(&self) -> usize {
        debug_assert_eq!(
            self.eligible_count,
            self.rotation().filter(|&e| self.is_eligible(e)).count(),
            "eligible-queue counter out of sync"
        );
        self.eligible_count + usize::from(!self.high_priority.is_empty())
    }

    /// Installs the latest BFC pause frame received from the downstream peer.
    /// Passing `None` clears all per-queue pauses; so does an all-zero frame,
    /// which is stored as `None` so that an egress whose downstream has
    /// resumed everything goes back to the one-branch no-frame path.
    pub fn set_pause_frame(&mut self, frame: Option<PauseFrame>) {
        self.pause_frame = frame.filter(|f| !f.is_empty());
        // A new frame can pause or release any backlogged queue; an empty
        // one has no entry to flag.
        let mut e = self.rotation_back;
        for _ in 0..self.rotation_len {
            e = self.arena.next(e);
            self.refresh_eligible(e);
        }
    }

    /// The most recently installed pause frame, if any.
    pub fn pause_frame(&self) -> Option<&PauseFrame> {
        self.pause_frame.as_ref()
    }

    /// Whether the whole egress is paused by PFC.
    pub fn is_pfc_paused(&self) -> bool {
        self.pfc_pause_started.is_some()
    }

    /// Updates the PFC pause state, accumulating paused time for metrics.
    pub fn set_pfc_paused(&mut self, paused: bool, now: SimTime) {
        if paused == self.is_pfc_paused() {
            return;
        }
        if paused {
            self.pfc_pause_started = Some(now);
        } else if let Some(start) = self.pfc_pause_started.take() {
            self.pfc_paused_total += now.saturating_since(start);
        }
    }

    /// Total time this egress has spent paused by PFC. If currently paused,
    /// time up to `now` is included.
    pub fn pfc_paused_time(&self, now: SimTime) -> SimDuration {
        let mut total = self.pfc_paused_total;
        if let Some(start) = self.pfc_pause_started {
            total += now.saturating_since(start);
        }
        total
    }

    /// Total data bytes transmitted.
    pub fn tx_data_bytes(&self) -> u64 {
        self.tx_data_bytes
    }

    /// Enqueues a packet into the queue selected by the policy.
    pub fn enqueue(&mut self, target: QueueTarget, packet: Packet, ingress: u32) {
        if target != QueueTarget::Control {
            self.data_bytes += packet.size_bytes as u64;
        }
        let i = match target {
            QueueTarget::Control => return self.control.push(&mut self.arena, packet, ingress),
            QueueTarget::HighPriority => {
                return self.high_priority.push(&mut self.arena, packet, ingress)
            }
            _ => self.table_index(target),
        };
        let e = self.entry_of[i];
        if e != NO_ENTRY {
            let mut fifo = self.arena.queue(e).fifo;
            fifo.push(&mut self.arena, packet, ingress);
            self.arena.queue_mut(e).fifo = fifo;
            return;
        }
        // Empty -> backlogged: the queue takes a slot for its entry and
        // joins the rotation, and it has a head for the pause frame to name.
        let mut fifo = PhysQueue::EMPTY;
        fifo.push(&mut self.arena, packet, ingress);
        let eligible = self.eligible(i, &fifo);
        let state = DrrQueue {
            fifo,
            deficit: 0,
            eligible,
        };
        let e = self.arena.alloc_queue(i, state);
        self.entry_of[i] = e;
        self.eligible_count += usize::from(eligible);
        self.rotation_push_back(e);
    }

    /// Picks the next packet to transmit, honouring strict priority
    /// (control > high priority > DRR over physical + overflow queues) and
    /// pause state. Returns the packet, the ingress it arrived on, and the
    /// queue it came from. Does not consider the transmitter or PFC — the
    /// switch checks those before calling.
    pub fn dequeue_next(&mut self) -> Option<(QueuedPacket, QueueTarget)> {
        debug_assert!(!self.sweep_owed, "a pick before the owed sweep was paid");
        if let Some(qp) = self.control.pop(&mut self.arena) {
            return Some((qp, QueueTarget::Control));
        }
        if !self.high_priority.is_empty() {
            return self.high_priority.pop(&mut self.arena).map(|qp| {
                self.data_bytes -= qp.packet.size_bytes as u64;
                (qp, QueueTarget::HighPriority)
            });
        }
        self.drr_pick()
    }

    /// Whether [`Port::dequeue_next`] would have anything to look at: a
    /// control or high-priority packet, or a queue in the DRR rotation.
    /// When that is all paused backlog ([`Port::has_eligible`] is false) a
    /// pick sends nothing but still sweeps the rotation, so a serialization
    /// end that finds it owes that sweep instead of being an event
    /// (`Port::arm_wake`).
    #[inline]
    pub fn has_backlog(&self) -> bool {
        !self.control.is_empty() || !self.high_priority.is_empty() || self.rotation_len > 0
    }

    /// Whether the egress could transmit now, the wire and PFC permitting: a
    /// control or high-priority packet, or an eligible queue in the DRR
    /// rotation. When false, [`Port::dequeue_next`] returns `None` and its
    /// only effect is the all-paused sweep.
    #[inline]
    pub fn has_eligible(&self) -> bool {
        !self.control.is_empty() || !self.high_priority.is_empty() || self.eligible_count > 0
    }

    /// Asks for the end of the current serialization to do what a
    /// `TxComplete` would. Returns the instant to schedule one at when that
    /// takes an event — something is eligible and no wake is pending. When
    /// the backlog is all paused, the pick the event would make is only a
    /// sweep, so it is recorded as owed at `busy_until` instead, for
    /// `Port::settle` to pay.
    #[inline]
    pub(crate) fn arm_wake(&mut self) -> Option<SimTime> {
        if !self.has_backlog() {
            return None;
        }
        if self.has_eligible() {
            self.sweep_owed = false;
            self.tx.arm_wake()
        } else {
            self.sweep_owed |= !self.tx.wake_pending();
            None
        }
    }

    /// Pays the sweep owed at the serialization end, once `now` is strictly
    /// past it, and only if the egress is up and not PFC-paused — what the
    /// `TxComplete` at that end would have found, as nothing touched the
    /// port since. The owner calls this before anything at `now` reads or
    /// changes the queue table.
    #[inline]
    pub(crate) fn settle(&mut self, now: SimTime) {
        if self.sweep_owed && now > self.tx.busy_until() {
            self.sweep_owed = false;
            if self.up && !self.is_pfc_paused() {
                self.sweep_paused();
            }
        }
    }

    /// Moves the current (front) queue to the back of the rotation, closing
    /// out its visit. The rotation must not be empty.
    fn drr_rotate(&mut self) {
        self.rotation_back = self.arena.next(self.rotation_back);
        self.drr_credited = false;
    }

    /// The pick that finds nothing eligible, in closed form: its 2n+1
    /// visits to n paused queues zero every deficit — pausing must not bank
    /// credit to burst with on resume — and turn the rotation
    /// (2n+1) mod n = 1 mod n places, which one `drr_rotate` is for any n.
    /// Out of line: `settle`, which calls it, is inlined into every forward.
    #[inline(never)]
    fn sweep_paused(&mut self) {
        debug_assert!(!self.has_eligible(), "a sweep with something eligible");
        if self.rotation_len == 0 {
            return;
        }
        let mut e = self.rotation_back;
        for _ in 0..self.rotation_len {
            e = self.arena.next(e);
            self.arena.queue_mut(e).deficit = 0;
        }
        self.drr_rotate();
    }

    fn drr_pick(&mut self) -> Option<(QueuedPacket, QueueTarget)> {
        if self.eligible_count == 0 {
            self.sweep_paused();
            return None;
        }
        // Each queue in the rotation needs at most two visits per pass: one
        // to close out a previous partially-served visit (residual deficit
        // too small) and one freshly credited visit. Bounding by
        // 2·|rotation|+1 guarantees every backlogged, unpaused queue is
        // offered a full quantum before we conclude nothing is schedulable.
        // The walk visits `e`, the entry behind `prev`; the rotation turns
        // past the closed visits once, when the pick ends.
        let n = self.rotation_len;
        let mut prev = self.rotation_back;
        let mut e = self.arena.next(prev);
        for visit in 0..2 * n + 1 {
            debug_assert_eq!(
                self.arena.queue(e).eligible,
                self.is_eligible(e),
                "eligible flag of queue {} out of sync with its head and the pause frame",
                self.arena.queue_index(e)
            );
            let q = self.arena.queue_mut(e);
            if !q.eligible {
                // In the rotation, so non-empty, so paused: it forfeits its
                // residual deficit.
                q.deficit = 0;
                (prev, e) = (e, self.arena.next(e));
                continue;
            }
            if visit > 0 || !self.drr_credited {
                q.deficit = q.deficit.saturating_add(MTU as u64);
            }
            let (deficit, mut fifo) = (q.deficit, q.fifo);
            let head = fifo
                .head(&self.arena)
                .expect("an eligible queue has a head");
            let (head_size, head_vfid) = (head.size_bytes as u64, head.vfid);
            if deficit < head_size {
                // Deficit insufficient: move on, keeping the residual.
                (prev, e) = (e, self.arena.next(e));
                continue;
            }
            let qp = fifo.pop(&mut self.arena).expect("it has a head");
            let q = self.arena.queue_mut(e);
            q.fifo = fifo;
            q.deficit -= head_size;
            self.data_bytes -= head_size;
            // This visit's queue becomes the front, credited.
            self.rotation_back = prev;
            self.drr_credited = true;
            let i = self.arena.queue_index(e);
            if fifo.is_empty() {
                // Drained: it leaves the rotation and gives its entry's slot
                // back, its residual deficit discarded with it, per classic
                // DRR.
                self.eligible_count -= 1;
                self.arena.set_next(prev, self.arena.next(e));
                self.arena.free_queue(e);
                self.entry_of[i] = NO_ENTRY;
                self.rotation_len -= 1;
                self.drr_credited = false;
            } else if fifo.head(&self.arena).map(|h| h.vfid) != Some(head_vfid)
                && !self.eligible(i, &fifo)
            {
                // The pause status follows the head's VFID: a head of
                // another flow is paused, so move on, keeping the residual.
                self.arena.queue_mut(e).eligible = false;
                self.eligible_count -= 1;
                self.drr_rotate();
            }
            return Some((qp, self.target_of(i)));
        }
        // 2n+1 closed visits turn the rotation one place, as in the sweep.
        self.drr_rotate();
        None
    }

    /// Removes and returns every queued packet (control, high-priority,
    /// overflow and physical queues, in that order), resetting the DRR state.
    /// Used by the switch when the attached cable dies: the packets are
    /// handed back so buffer accounting and blackhole counting stay exact.
    pub fn flush_all(&mut self) -> Vec<(QueuedPacket, QueueTarget)> {
        let mut flushed = Vec::new();
        while let Some(qp) = self.control.pop(&mut self.arena) {
            flushed.push((qp, QueueTarget::Control));
        }
        while let Some(qp) = self.high_priority.pop(&mut self.arena) {
            flushed.push((qp, QueueTarget::HighPriority));
        }
        let overflow = self.num_queues();
        for i in std::iter::once(overflow).chain(0..overflow) {
            let e = std::mem::replace(&mut self.entry_of[i], NO_ENTRY);
            if e == NO_ENTRY {
                continue;
            }
            let target = self.target_of(i);
            let mut fifo = self.arena.queue(e).fifo;
            while let Some(qp) = fifo.pop(&mut self.arena) {
                flushed.push((qp, target));
            }
            self.arena.queue_mut(e).fifo = fifo;
            self.arena.free_queue(e);
        }
        self.rotation_len = 0;
        self.drr_credited = false;
        self.eligible_count = 0;
        self.data_bytes = 0;
        flushed
    }

    /// Records that a packet was handed to the transmitter.
    pub fn note_transmitted(&mut self, packet: &Packet) {
        if packet.is_data() {
            self.tx_data_bytes += packet.size_bytes as u64;
        }
    }

    /// Serializes the port's mutable state: transmitter and owed sweep,
    /// queues, DRR rotation, pause state, link rate (mutable under dynamics)
    /// and the data-byte transmit counter INT reads.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Port {
            // Configuration, but for the rate.
            peer: _,
            link,
            arena,
            control,
            high_priority,
            // Saved as every queue's FIFO and deficit, an empty queue's
            // empty and zero.
            entry_of: _,
            // Saved as the queues `Port::rotation` walks.
            rotation_back: _,
            rotation_len: _,
            drr_credited,
            tx,
            sweep_owed,
            up,
            pfc_pause_started,
            pfc_paused_total,
            pause_frame,
            tx_data_bytes,
            // Derived from the table and the pause frame (as is each
            // entry's `eligible`).
            eligible_count: _,
            data_bytes: _,
        } = self;
        link.rate_gbps.save(w);
        tx.save(w);
        sweep_owed.save(w);
        up.save(w);
        pfc_pause_started.save(w);
        pfc_paused_total.save(w);
        pause_frame.save(w);
        // Each FIFO is a `QueuedPacket` sequence, head first.
        control.save(arena, w);
        high_priority.save(arena, w);
        // The table's wire order: the overflow FIFO, the counted physical
        // FIFOs, then every queue's deficit.
        let overflow = self.num_queues();
        self.table_fifo(overflow).save(arena, w);
        w.put_usize(overflow);
        (0..overflow).for_each(|i| self.table_fifo(i).save(arena, w));
        for &e in &self.entry_of {
            let deficit = if e == NO_ENTRY {
                0
            } else {
                arena.queue(e).deficit
            };
            deficit.save(w);
        }
        // The DRR rotation order is scheduling state: serialized verbatim,
        // a count and the queues from the front.
        w.put_usize(self.rotation_len);
        self.rotation()
            .for_each(|e| w.put_usize(arena.queue_index(e)));
        drr_credited.save(w);
        tx_data_bytes.save(w);
    }

    /// Overlays state captured by [`Port::save_state`] onto this port, which
    /// was built from the same configuration: it checks the rate is positive,
    /// the queue count is this port's, an empty queue has no deficit and the
    /// DRR rotation is exactly the backlogged queues, each once, and rebuilds
    /// the backlogged queues' entries, their eligibility flags and the two
    /// cached totals from the restored queues and pause frame.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.link.rate_gbps = r.get()?;
        if !(self.link.rate_gbps > 0.0) {
            return Err(SnapError::Corrupt("non-positive link rate"));
        }
        self.tx = r.get()?;
        self.sweep_owed = r.get()?;
        self.up = r.get()?;
        self.pfc_pause_started = r.get()?;
        self.pfc_paused_total = r.get()?;
        self.pause_frame = r.get()?;
        let overflow = self.num_queues();
        self.arena = PacketArena::new();
        self.entry_of.fill(NO_ENTRY);
        self.control = PhysQueue::restore(&mut self.arena, r)?;
        self.high_priority = PhysQueue::restore(&mut self.arena, r)?;
        self.restore_table_fifo(overflow, r)?;
        r.expect_count(overflow, "physical queue count mismatch")?;
        for i in 0..overflow {
            self.restore_table_fifo(i, r)?;
        }
        for i in 0..=overflow {
            let deficit: u64 = r.get()?;
            match self.entry_of[i] {
                NO_ENTRY if deficit != 0 => {
                    return Err(SnapError::Corrupt("a deficit on an empty queue"))
                }
                NO_ENTRY => {}
                e => self.arena.queue_mut(e).deficit = deficit,
            }
        }
        let rotation: Vec<usize> = r.get()?;
        let mut listed = rotation.clone();
        listed.sort_unstable();
        let backlogged = (0..=overflow).filter(|&i| self.entry_of[i] != NO_ENTRY);
        if !listed.into_iter().eq(backlogged) {
            return Err(SnapError::Corrupt(
                "DRR rotation is not the backlogged queues",
            ));
        }
        self.rotation_len = 0;
        for i in rotation {
            self.rotation_push_back(self.entry_of[i]);
        }
        self.drr_credited = r.get()?;
        self.tx_data_bytes = r.get()?;
        self.eligible_count = 0;
        self.data_bytes = self.high_priority.bytes();
        let mut e = self.rotation_back;
        for _ in 0..self.rotation_len {
            e = self.arena.next(e);
            self.refresh_eligible(e);
            self.data_bytes += self.arena.queue(e).fifo.bytes();
        }
        Ok(())
    }

    /// Reads table queue `i`'s FIFO, giving it an entry if it is backlogged.
    fn restore_table_fifo(&mut self, i: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let fifo = PhysQueue::restore(&mut self.arena, r)?;
        if !fifo.is_empty() {
            let state = DrrQueue {
                fifo,
                deficit: 0,
                eligible: false,
            };
            self.entry_of[i] = self.arena.alloc_queue(i, state);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FlowId;

    fn port(nq: usize) -> Port {
        Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), nq)
    }

    fn data(flow: u32, seq: u64, size: u32, vfid: u32) -> Packet {
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), seq, size, vfid, false)
    }

    #[test]
    fn strict_priority_order() {
        let mut p = port(4);
        p.enqueue(QueueTarget::Phys(0), data(1, 0, 1000, 1), 0);
        p.enqueue(QueueTarget::HighPriority, data(2, 0, 1000, 2), 0);
        p.enqueue(
            QueueTarget::Control,
            Packet::cnp(FlowId(3), NodeId(5), NodeId(0)),
            0,
        );
        let (first, t1) = p.dequeue_next().unwrap();
        assert_eq!(t1, QueueTarget::Control);
        assert!(matches!(first.packet.kind, crate::packet::PacketKind::Cnp));
        let (_, t2) = p.dequeue_next().unwrap();
        assert_eq!(t2, QueueTarget::HighPriority);
        let (_, t3) = p.dequeue_next().unwrap();
        assert_eq!(t3, QueueTarget::Phys(0));
        assert!(p.dequeue_next().is_none());
    }

    #[test]
    fn drr_round_robins_among_queues() {
        let mut p = port(4);
        for q in 0..3usize {
            for s in 0..3u64 {
                p.enqueue(QueueTarget::Phys(q), data(q as u32, s, 1000, q as u32), 0);
            }
        }
        let mut order = Vec::new();
        while let Some((qp, _)) = p.dequeue_next() {
            order.push(qp.packet.flow.0);
        }
        assert_eq!(order.len(), 9);
        // Each round serves one packet from each backlogged queue (equal sizes).
        assert_eq!(&order[0..3], &[0, 1, 2]);
        assert_eq!(&order[3..6], &[0, 1, 2]);
        assert_eq!(&order[6..9], &[0, 1, 2]);
    }

    #[test]
    fn drr_is_byte_fair_for_unequal_packet_sizes() {
        // Queue 0 has 500 B packets, queue 1 has 1000 B packets. Over many
        // rounds both queues should transmit a similar number of bytes.
        let mut p = port(2);
        for s in 0..40u64 {
            p.enqueue(QueueTarget::Phys(0), data(0, s, 500, 0), 0);
        }
        for s in 0..20u64 {
            p.enqueue(QueueTarget::Phys(1), data(1, s, 1000, 1), 0);
        }
        let mut bytes = [0u64; 2];
        for _ in 0..30 {
            let (qp, _) = p.dequeue_next().unwrap();
            bytes[qp.packet.flow.0 as usize] += qp.packet.size_bytes as u64;
        }
        let diff = bytes[0].abs_diff(bytes[1]);
        assert!(diff <= 1000, "byte shares diverged: {bytes:?}");
    }

    #[test]
    fn paused_queue_is_skipped_and_resumes_on_new_frame() {
        let mut p = port(2);
        p.enqueue(QueueTarget::Phys(0), data(1, 0, 1000, 111), 0);
        p.enqueue(QueueTarget::Phys(1), data(2, 0, 1000, 222), 0);
        let mut frame = PauseFrame::new(128);
        frame.insert(111);
        p.set_pause_frame(Some(frame));
        assert!(p.is_queue_paused(0));
        assert!(!p.is_queue_paused(1));
        assert_eq!(p.active_queue_count(), 1);
        let (qp, _) = p.dequeue_next().unwrap();
        assert_eq!(qp.packet.vfid, 222);
        // Only the paused queue remains; nothing can be scheduled.
        assert!(p.dequeue_next().is_none());
        // A new, empty frame unpauses it.
        p.set_pause_frame(Some(PauseFrame::new(128)));
        let (qp, _) = p.dequeue_next().unwrap();
        assert_eq!(qp.packet.vfid, 111);
    }

    #[test]
    fn pfc_pause_time_accumulates() {
        let mut p = port(1);
        p.set_pfc_paused(true, SimTime::from_micros(10));
        p.set_pfc_paused(true, SimTime::from_micros(12)); // no-op
        p.set_pfc_paused(false, SimTime::from_micros(15));
        assert_eq!(
            p.pfc_paused_time(SimTime::from_micros(20)).as_nanos(),
            5_000
        );
        p.set_pfc_paused(true, SimTime::from_micros(30));
        assert_eq!(
            p.pfc_paused_time(SimTime::from_micros(31)).as_nanos(),
            6_000
        );
    }

    #[test]
    fn byte_accounting_and_counters() {
        let mut p = port(2);
        p.enqueue(QueueTarget::Phys(1), data(1, 0, 700, 5), 2);
        p.enqueue(QueueTarget::HighPriority, data(1, 1, 300, 5), 2);
        assert_eq!(p.data_queued_bytes(), 1000);
        assert_eq!(p.queue_bytes(1), 700);
        assert_eq!(p.occupied_queue_count(), 1);
        let (qp, _) = p.dequeue_next().unwrap();
        p.note_transmitted(&qp.packet);
        assert_eq!(p.tx_data_bytes(), 300);
    }

    #[test]
    fn overflow_queue_participates_in_drr() {
        let mut p = port(1);
        p.enqueue(QueueTarget::Phys(0), data(0, 0, 1000, 1), 0);
        p.enqueue(QueueTarget::Overflow, data(1, 0, 1000, 2), 0);
        p.enqueue(QueueTarget::Phys(0), data(0, 1, 1000, 1), 0);
        p.enqueue(QueueTarget::Overflow, data(1, 1, 1000, 2), 0);
        let mut flows = Vec::new();
        while let Some((qp, _)) = p.dequeue_next() {
            flows.push(qp.packet.flow.0);
        }
        assert_eq!(flows.len(), 4);
        assert_eq!(flows.iter().filter(|&&f| f == 0).count(), 2);
        assert_eq!(flows.iter().filter(|&&f| f == 1).count(), 2);
        // Interleaved, not back-to-back.
        assert_ne!(flows, vec![0, 0, 1, 1]);
    }

    /// `port`'s snapshot with its DRR rotation replaced by `rotation`.
    fn snapshot_with_rotation(port: &Port, rotation: &[usize]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        port.save_state(&mut w);
        let saved = w.into_bytes();
        // After the rotation come the credited flag and one `u64` counter;
        // the rotation itself is a `u64` count and a `u64` per entry.
        let tail = saved.len() - (1 + 8);
        let head = tail - 8 * (1 + port.rotation_len);
        let mut w = SnapWriter::new();
        rotation.to_vec().save(&mut w);
        [&saved[..head], &w.into_bytes(), &saved[tail..]].concat()
    }

    #[test]
    fn restore_rejects_a_rotation_that_is_not_the_backlogged_queues() {
        // Queues 2 and 0 are backlogged, in that service order; queue 1 and
        // the overflow queue (entry 3) are empty.
        let mut saved = port(3);
        saved.enqueue(QueueTarget::Phys(2), data(1, 0, 1000, 1), 0);
        saved.enqueue(QueueTarget::Phys(0), data(2, 0, 1000, 2), 0);
        let restore = |rotation: &[usize]| {
            let bytes = snapshot_with_rotation(&saved, rotation);
            let mut r = SnapReader::new(&bytes);
            port(3).restore_state(&mut r).and_then(|()| r.expect_end())
        };
        assert_eq!(restore(&[2, 0]), Ok(()), "the saved rotation restores");
        assert_eq!(
            restore(&[0, 2]),
            Ok(()),
            "any order of the backlogged queues is a rotation"
        );
        for (rotation, why) in [
            (&[2, 0, 1][..], "lists an empty queue"),
            (&[2], "omits a backlogged queue"),
            (&[2, 0, 2], "repeats an index"),
            (&[2, 0, 4], "names entry Q + 1"),
        ] {
            assert_eq!(
                restore(rotation),
                Err(SnapError::Corrupt(
                    "DRR rotation is not the backlogged queues"
                )),
                "a rotation that {why}"
            );
        }
    }

    #[test]
    fn restore_rejects_a_deficit_on_an_empty_queue() {
        // Queue 0 is backlogged with a residual deficit; queue 1, queue 2
        // and the overflow queue (entry 3) are empty.
        let mut saved = port(3);
        saved.enqueue(QueueTarget::Phys(0), data(1, 0, 600, 1), 0);
        saved.enqueue(QueueTarget::Phys(0), data(1, 1, 600, 1), 0);
        saved.dequeue_next().unwrap();
        let mut w = SnapWriter::new();
        saved.save_state(&mut w);
        let bytes = w.into_bytes();
        // The four `u64` deficits come just before the rotation, which is a
        // count and one entry, then the credited flag and one `u64`.
        let deficits = bytes.len() - (1 + 8) - 8 * 2 - 8 * 4;
        let deficit = |i: usize| {
            let at = deficits + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        };
        assert_eq!(
            (0..4).map(deficit).collect::<Vec<_>>(),
            [400, 0, 0, 0],
            "the backlogged queue kept 1 000 − 600 of its quantum"
        );
        let restore = |bytes: &[u8]| {
            let mut r = SnapReader::new(bytes);
            port(3).restore_state(&mut r).and_then(|()| r.expect_end())
        };
        assert_eq!(restore(&bytes), Ok(()));
        for empty in 1..4 {
            let mut corrupt = bytes.clone();
            corrupt[deficits + 8 * empty] = 1;
            assert_eq!(
                restore(&corrupt),
                Err(SnapError::Corrupt("a deficit on an empty queue")),
                "a deficit on empty entry {empty}"
            );
        }
    }

    #[test]
    fn an_empty_queue_has_no_entry_and_a_drained_one_gives_its_back() {
        let mut p = port(1_000);
        assert!(p.entry_of.iter().all(|&e| e == NO_ENTRY));
        p.enqueue(QueueTarget::Phys(700), data(1, 0, 1000, 1), 0);
        p.enqueue(QueueTarget::Phys(3), data(2, 0, 500, 2), 0);
        p.enqueue(QueueTarget::Phys(700), data(1, 1, 1000, 1), 0);
        assert_eq!(p.max_queue_bytes(), 2000);
        let entries = |p: &Port| p.entry_of.iter().filter(|&&e| e != NO_ENTRY).count();
        assert_eq!(entries(&p), 2);
        while p.dequeue_next().is_some() {}
        assert_eq!(entries(&p), 0);
        assert_eq!(p.max_queue_bytes(), 0);
        // Refilled through the freed slots: the overflow queue gets an entry
        // too, but neither counts it as a physical queue.
        p.enqueue(QueueTarget::Phys(999), data(3, 0, 1000, 3), 0);
        p.enqueue(QueueTarget::Overflow, data(4, 0, 1000, 4), 0);
        assert_eq!(p.occupied_queue_count(), 1);
        assert_eq!(p.max_queue_bytes(), 1000, "the overflow queue is left out");
        assert_eq!(p.flush_all().len(), 2);
        assert_eq!(entries(&p), 0);
    }

    #[test]
    #[should_panic(expected = "physical queue index out of range")]
    fn the_overflow_queue_is_not_a_physical_queue() {
        port(4).queue_bytes(4);
    }
}
