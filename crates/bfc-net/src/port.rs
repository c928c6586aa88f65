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
//! Everything deficit round robin schedules is one entry of one table,
//! `Port::drr` — a FIFO, its deficit, whether it is *eligible* — physical
//! queues first, the overflow queue last. Two invariants:
//!
//! * an entry is in the `rotation` **iff** its FIFO is non-empty: it joins
//!   on the empty → non-empty enqueue and leaves when a pick drains it, so
//!   the occupied queues are the rotation;
//! * an entry is `eligible` **iff** its FIFO is non-empty and its head is
//!   not named by the installed pause frame (nothing tracks the overflow
//!   queue's flows: for it, eligible is non-empty). The scheduler skips an
//!   ineligible entry; the pause threshold's `Nactive` (§3.4) counts the
//!   eligible ones.
//!
//! Two totals over the table are cached, because per-packet paths read them
//! and each replaced a measured O(Q) scan: `eligible_count` (`Nactive`, on
//! every BFC enqueue and dequeue) and `data_bytes` (ECN, INT, the depth
//! histogram). Both are recounted in a `debug_assert`; a snapshot stores
//! neither them nor the flags, and restore re-derives all three.
//!
//! # Storage
//!
//! The port's queues own no storage of their own. Every packet queued at the
//! egress — control, high-priority, physical or overflow — sits in one slot
//! of the port's packet arena (`crate::queue`), and each FIFO is a linked
//! list through it: the port's storage is a slice of the switch's shared
//! buffer that grows with the port's total backlog, and once it has reached
//! its high-water mark enqueue and dequeue never allocate, however the
//! backlog moves between queues.
//!
//! The rotation is intrusive too: a ring through a `next` index in each
//! table entry, entered at the port's `rotation_back` — the last entry, whose
//! `next` is the front — so joining, leaving and turning it touch two entries
//! and never allocate, whether the port has 32 queues or Ideal-FQ's 1 000.
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
use crate::queue::{PacketArena, PhysQueue, QueuedPacket};
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

/// One entry of an egress's queue table: a FIFO under deficit round robin.
#[derive(Debug, Default)]
struct DrrQueue {
    fifo: PhysQueue,
    deficit: u64,
    /// The entry behind this one in the rotation, while this one is in it.
    next: u32,
    /// Non-empty and the head not named by the installed pause frame; kept
    /// by [`Port::refresh_eligible`] so no reader re-hashes a head.
    eligible: bool,
}

/// The egress side of one switch/host port.
#[derive(Debug)]
pub struct Port {
    /// The node on the other end of the cable and its local port index there.
    pub peer: Option<(NodeId, u32)>,
    /// The attached link (egress direction). Mutable under network dynamics
    /// (rate degradation) via [`Port::set_link_rate`].
    pub link: Link,

    /// The slots every queue below links its packets through.
    arena: PacketArena,
    control: PhysQueue,
    high_priority: PhysQueue,

    /// The queue table: the physical queues, then the overflow queue.
    drr: Vec<DrrQueue>,
    /// The rotation: the non-empty entries of `drr` in service order, a ring
    /// through their `next`. This is its last entry, so its `next` is the
    /// front, the queue being visited; meaningless while `rotation_len` is
    /// zero. With Q queues per port but a handful backlogged, a pick is
    /// O(backlogged), not O(Q).
    rotation_back: u32,
    /// Entries in the rotation.
    rotation_len: usize,
    /// Whether the front of the rotation was given this visit's quantum.
    drr_credited: bool,

    /// Entries of `drr` with `eligible` set.
    eligible_count: usize,
    /// Bytes in `drr` and `high_priority` (control excluded).
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
            drr: (0..=num_queues).map(|_| DrrQueue::default()).collect(),
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
        self.drr.len() - 1
    }

    /// The FIFO a [`QueueTarget`] names.
    fn fifo(&self, target: QueueTarget) -> &PhysQueue {
        match target {
            QueueTarget::Control => &self.control,
            QueueTarget::HighPriority => &self.high_priority,
            QueueTarget::Overflow => &self.drr[self.num_queues()].fifo,
            QueueTarget::Phys(i) => {
                assert!(i < self.num_queues(), "physical queue index out of range");
                &self.drr[i].fifo
            }
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
        self.fifo(QueueTarget::Phys(i)).is_empty()
    }

    /// True if the queue a [`QueueTarget`] names currently holds nothing.
    /// The switch probes this around enqueue/dequeue to detect the
    /// empty<->non-empty transitions the flight recorder reports.
    pub fn target_is_empty(&self, target: QueueTarget) -> bool {
        self.fifo(target).is_empty()
    }

    /// Total bytes queued across all data-plane queues (physical + high
    /// priority + overflow). Used for ECN marking, INT telemetry and the
    /// queue-depth histogram — all per-packet paths, so the total is a
    /// counter maintained on enqueue/dequeue/flush, not an O(Q) scan.
    pub fn data_queued_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.data_bytes,
            self.drr.iter().map(|q| q.fifo.bytes()).sum::<u64>() + self.high_priority.bytes(),
            "data-plane byte counter out of sync"
        );
        self.data_bytes
    }

    /// Total bytes queued including the control queue.
    pub fn total_queued_bytes(&self) -> u64 {
        self.data_queued_bytes() + self.control.bytes()
    }

    /// Number of physical queues that currently hold packets. O(1): the
    /// rotation holds exactly the non-empty entries of the table.
    pub fn occupied_queue_count(&self) -> usize {
        debug_assert!(
            self.rotation().all(|i| !self.drr[i].fifo.is_empty())
                && self.rotation_len == self.drr.iter().filter(|q| !q.fifo.is_empty()).count(),
            "the rotation is not the non-empty queues"
        );
        self.rotation_len - usize::from(!self.target_is_empty(QueueTarget::Overflow))
    }

    /// The entries of the rotation, from the front.
    fn rotation(&self) -> impl Iterator<Item = usize> + '_ {
        let mut i = self.rotation_back as usize;
        (0..self.rotation_len).map(move |_| {
            i = self.drr[i].next as usize;
            i
        })
    }

    /// Entry `i`, not in the rotation, joins it at the back.
    fn rotation_push_back(&mut self, i: usize) {
        if self.rotation_len == 0 {
            self.drr[i].next = i as u32;
        } else {
            let back = self.rotation_back as usize;
            self.drr[i].next = self.drr[back].next;
            self.drr[back].next = i as u32;
        }
        self.rotation_back = i as u32;
        self.rotation_len += 1;
    }

    /// What `eligible` of table entry `i` must be. Nothing tracks the
    /// overflow queue's flows, so no pause frame names its head.
    fn is_eligible(&self, i: usize) -> bool {
        let paused = i < self.num_queues() && self.is_queue_paused(i);
        !self.drr[i].fifo.is_empty() && !paused
    }

    /// Re-derives entry `i`'s `eligible` after its head or the frame changed.
    #[inline]
    fn refresh_eligible(&mut self, i: usize) {
        let eligible = self.is_eligible(i);
        if eligible != self.drr[i].eligible {
            self.drr[i].eligible = eligible;
            if eligible {
                self.eligible_count += 1;
            } else {
                self.eligible_count -= 1;
            }
        }
    }

    /// True if physical queue `i` is paused by the most recent BFC pause
    /// frame received from the downstream peer (head-of-queue VFID match).
    /// Short-circuits on the (common) no-frame case, so schemes that never
    /// install BFC pause frames pay one branch, not a head lookup.
    pub fn is_queue_paused(&self, i: usize) -> bool {
        let Some(frame) = &self.pause_frame else {
            return false;
        };
        let head = self.fifo(QueueTarget::Phys(i)).head(&self.arena);
        head.is_some_and(|head| frame.contains(head.vfid))
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
            (0..self.drr.len()).filter(|&i| self.is_eligible(i)).count(),
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
        // one is ineligible under any frame.
        let mut i = self.rotation_back as usize;
        for _ in 0..self.rotation_len {
            i = self.drr[i].next as usize;
            self.refresh_eligible(i);
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
            QueueTarget::Overflow => self.num_queues(),
            QueueTarget::Phys(i) => {
                assert!(i < self.num_queues(), "physical queue index out of range");
                i
            }
        };
        let was_empty = self.drr[i].fifo.is_empty();
        self.drr[i].fifo.push(&mut self.arena, packet, ingress);
        if was_empty {
            // Empty -> non-empty: the queue joins the rotation, and it has
            // a head for the pause frame to name.
            self.rotation_push_back(i);
            self.refresh_eligible(i);
        }
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
        self.rotation_back = self.drr[self.rotation_back as usize].next;
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
        let mut i = self.rotation_back as usize;
        for _ in 0..self.rotation_len {
            i = self.drr[i].next as usize;
            self.drr[i].deficit = 0;
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
        // The walk visits `i`, the entry behind `prev`; the rotation turns
        // past the closed visits once, when the pick ends.
        let n = self.rotation_len;
        let mut prev = self.rotation_back as usize;
        let mut i = self.drr[prev].next as usize;
        for visit in 0..2 * n + 1 {
            debug_assert_eq!(
                self.drr[i].eligible,
                self.is_eligible(i),
                "eligible flag of queue {i} out of sync with its head and the pause frame"
            );
            let q = &mut self.drr[i];
            if !q.eligible {
                // In the rotation, so non-empty, so paused: it forfeits its
                // residual deficit.
                q.deficit = 0;
                (prev, i) = (i, q.next as usize);
                continue;
            }
            if visit > 0 || !self.drr_credited {
                q.deficit = q.deficit.saturating_add(MTU as u64);
            }
            let head = q
                .fifo
                .head(&self.arena)
                .expect("an eligible queue has a head");
            let (head_size, head_vfid) = (head.size_bytes as u64, head.vfid);
            if q.deficit < head_size {
                // Deficit insufficient: move on, keeping the residual.
                (prev, i) = (i, q.next as usize);
                continue;
            }
            let qp = q
                .fifo
                .pop(&mut self.arena)
                .expect("an eligible queue has a head");
            q.deficit -= head_size;
            self.data_bytes -= head_size;
            // The pause status follows the head's VFID: only a head of
            // another flow (or no head) can flip it.
            if q.fifo.head(&self.arena).map(|h| h.vfid) != Some(head_vfid) {
                self.refresh_eligible(i);
            }
            // This visit's queue becomes the front, credited.
            self.rotation_back = prev as u32;
            self.drr_credited = true;
            let q = &mut self.drr[i];
            if q.fifo.is_empty() {
                // Drained: it leaves the rotation and its residual deficit
                // is discarded, per classic DRR.
                q.deficit = 0;
                self.drr[prev].next = self.drr[i].next;
                self.rotation_len -= 1;
                self.drr_credited = false;
            } else if !q.eligible {
                // New head is paused: move on, keeping the residual.
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
            let target = self.target_of(i);
            while let Some(qp) = self.drr[i].fifo.pop(&mut self.arena) {
                flushed.push((qp, target));
            }
            self.drr[i].deficit = 0;
            self.drr[i].eligible = false;
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
            drr,
            // Saved as the entries `Port::rotation` walks.
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
        // FIFOs, then every entry's deficit.
        let overflow = drr.len() - 1;
        drr[overflow].fifo.save(arena, w);
        w.put_usize(overflow);
        drr[..overflow].iter().for_each(|q| q.fifo.save(arena, w));
        w.put_all(drr.iter().map(|q| &q.deficit));
        // The DRR rotation order is scheduling state: serialized verbatim,
        // a count and the entries from the front.
        w.put_usize(self.rotation_len);
        self.rotation().for_each(|i| w.put_usize(i));
        drr_credited.save(w);
        tx_data_bytes.save(w);
    }

    /// Overlays state captured by [`Port::save_state`] onto this port, which
    /// was built from the same configuration: it checks the rate is positive,
    /// the queue count is this port's and the DRR rotation is exactly the
    /// backlogged queues, each once, and rebuilds the eligibility flags and
    /// the two cached totals from the restored queues and pause frame.
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
        let arena = &mut self.arena;
        self.control = PhysQueue::restore(arena, r)?;
        self.high_priority = PhysQueue::restore(arena, r)?;
        self.drr[overflow].fifo = PhysQueue::restore(arena, r)?;
        r.expect_count(overflow, "physical queue count mismatch")?;
        for q in &mut self.drr[..overflow] {
            q.fifo = PhysQueue::restore(arena, r)?;
        }
        for q in &mut self.drr {
            q.deficit = r.get()?;
        }
        let rotation: Vec<usize> = r.get()?;
        let mut listed = rotation.clone();
        listed.sort_unstable();
        let backlogged = (0..self.drr.len()).filter(|&i| !self.drr[i].fifo.is_empty());
        if !listed.into_iter().eq(backlogged) {
            return Err(SnapError::Corrupt(
                "DRR rotation is not the backlogged queues",
            ));
        }
        self.rotation_len = 0;
        for i in rotation {
            self.rotation_push_back(i);
        }
        self.drr_credited = r.get()?;
        self.tx_data_bytes = r.get()?;
        for i in 0..self.drr.len() {
            self.drr[i].eligible = self.is_eligible(i);
        }
        self.eligible_count = self.drr.iter().filter(|q| q.eligible).count();
        self.data_bytes =
            self.drr.iter().map(|q| q.fifo.bytes()).sum::<u64>() + self.high_priority.bytes();
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
    fn a_table_entry_holds_its_rotation_link_in_padding() {
        // Ideal-FQ builds 1 001 of these per port.
        assert_eq!(std::mem::size_of::<DrrQueue>(), 40);
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
    #[should_panic(expected = "physical queue index out of range")]
    fn the_overflow_queue_is_not_a_physical_queue() {
        port(4).queue_bytes(4);
    }
}
