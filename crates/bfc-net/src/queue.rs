//! Physical FIFO queues, the deficit-round-robin state of the backlogged
//! ones, and the packet arena both live in.
//!
//! Modern switch ASICs give each egress port a small number of FIFO queues
//! (32 in the paper's hardware model) carved out of one shared buffer. A
//! `PhysQueue` is one such FIFO; it remembers, for every queued packet,
//! which ingress port it arrived on so that per-ingress buffer accounting
//! (needed for PFC) stays exact when the packet eventually leaves.
//!
//! # The arena
//!
//! A FIFO owns no storage. Every queue of one egress — control,
//! high-priority, the physical queues and the overflow queue — is a linked
//! list through that egress's `PacketArena`: the queue holds the indices of
//! its head and tail slot, its length and its bytes, and each slot holds the
//! index of the slot behind it. A slot is one 64-byte cache line: a 56-byte
//! body and two `u32`s in what would otherwise be padding. The body is
//! free, a [`Packet`], or a [`DrrQueue`] — the 40-byte deficit-round-robin
//! state of one *backlogged* queue of the port's table (its FIFO, deficit
//! and eligibility), which the port takes a slot for when the queue turns
//! backlogged and gives back when it drains, so an egress with 1 000 queues
//! and k of them backlogged holds k of these, not 1 000. The three-way tag
//! costs no space: the packet's kind tag has spare values. The two `u32`s
//! are, for a packet, its ingress port and the slot behind it in its FIFO;
//! for a queue state, its index in the table and the next queue state in
//! the DRR rotation; for a free slot, the next free slot.
//!
//! Freed slots form an intrusive free list through that `next` field, most
//! recently freed first, and a push takes its slot from there before it
//! grows the arena. The arena therefore grows with the egress's total
//! backlog — packets plus backlogged queues — not with any one queue's or
//! with the queue count, and never shrinks: once it has reached the port's
//! high-water mark, enqueue and dequeue never allocate. A packet's two
//! variable-size parts — HPCC's INT records (`packet::IntPath`) and a BFC
//! pause frame's bloom filter — live out of line behind 8-byte handles and
//! move with the packet, so queueing never copies or allocates them either.

use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

use crate::packet::Packet;

/// A packet waiting in a queue, tagged with the ingress port it arrived on.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// Ingress port (local index at this switch) the packet arrived on.
    pub ingress: u32,
}

bfc_sim::snap_struct! { QueuedPacket { packet, ingress } }

/// The end of the free list.
const NIL: u32 = u32::MAX;

/// What one slot of a [`PacketArena`] holds.
#[derive(Debug)]
enum Body {
    /// Nothing: the slot is on the free list.
    Free,
    /// A queued packet.
    Packet(Packet),
    /// The state of one backlogged queue of the port's table.
    Queue(DrrQueue),
}

/// One slot of a [`PacketArena`].
#[derive(Debug)]
struct Slot {
    body: Body,
    /// A packet's ingress port; a queue state's index in the port's table.
    tag: u32,
    /// The slot behind this one: in its FIFO (a packet), in the DRR
    /// rotation (a queue state), or in the free list.
    next: u32,
}

/// The packet storage every FIFO of one egress shares, and the home of its
/// backlogged queues' DRR state.
#[derive(Debug)]
pub(crate) struct PacketArena {
    slots: Vec<Slot>,
    /// Head of the free list, or [`NIL`].
    free: u32,
}

impl PacketArena {
    /// An arena with no slots.
    pub(crate) fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: NIL,
        }
    }

    /// Stores `body` in a free slot — the most recently freed one, or a new
    /// one at the end — and returns the slot's index. Always inlined: each
    /// caller builds one kind of body, which is then written in place.
    #[inline(always)]
    fn alloc(&mut self, body: Body, tag: u32) -> u32 {
        let slot = Slot {
            body,
            tag,
            next: NIL,
        };
        if self.free != NIL {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            return i;
        }
        assert!(self.slots.len() < NIL as usize, "the packet arena is full");
        self.slots.push(slot);
        self.slots.len() as u32 - 1
    }

    /// Empties slot `i` and puts it on the free list; returns what it held.
    #[inline]
    fn release(&mut self, i: u32) -> Body {
        let slot = &mut self.slots[i as usize];
        slot.next = self.free;
        self.free = i;
        std::mem::replace(&mut slot.body, Body::Free)
    }

    /// The packet in slot `i`, which holds one.
    #[inline]
    fn packet(&self, i: u32) -> &Packet {
        match &self.slots[i as usize].body {
            Body::Packet(packet) => packet,
            _ => unreachable!("a queued slot holds a packet"),
        }
    }

    /// Takes a slot for `state`, the state of queue `queue` of the port's
    /// table, linked to nothing.
    #[inline]
    pub(crate) fn alloc_queue(&mut self, queue: usize, state: DrrQueue) -> u32 {
        self.alloc(Body::Queue(state), queue as u32)
    }

    /// Gives back the slot of queue state `e`, whose FIFO has drained.
    #[inline]
    pub(crate) fn free_queue(&mut self, e: u32) {
        let Body::Queue(state) = self.release(e) else {
            unreachable!("an entry slot holds a queue state")
        };
        debug_assert!(
            state.fifo.is_empty(),
            "the state of a backlogged queue was freed"
        );
    }

    /// The queue state in slot `e`, which holds one.
    #[inline]
    pub(crate) fn queue(&self, e: u32) -> &DrrQueue {
        match &self.slots[e as usize].body {
            Body::Queue(queue) => queue,
            _ => unreachable!("an entry slot holds a queue state"),
        }
    }

    /// The queue state in slot `e`, mutably.
    #[inline]
    pub(crate) fn queue_mut(&mut self, e: u32) -> &mut DrrQueue {
        match &mut self.slots[e as usize].body {
            Body::Queue(queue) => queue,
            _ => unreachable!("an entry slot holds a queue state"),
        }
    }

    /// The table index of the queue whose state is in slot `e`.
    #[inline]
    pub(crate) fn queue_index(&self, e: u32) -> usize {
        self.slots[e as usize].tag as usize
    }

    /// The queue state behind `e` in the DRR rotation.
    #[inline]
    pub(crate) fn next(&self, e: u32) -> u32 {
        self.slots[e as usize].next
    }

    /// Links queue state `next` behind `e` in the DRR rotation.
    #[inline]
    pub(crate) fn set_next(&mut self, e: u32, next: u32) {
        self.slots[e as usize].next = next;
    }
}

/// The deficit-round-robin state of one backlogged queue of an egress's
/// table, kept in a slot of the egress's [`PacketArena`] while the queue
/// holds packets. Its table index and its link in the rotation are the
/// slot's.
#[derive(Debug)]
pub(crate) struct DrrQueue {
    pub(crate) fifo: PhysQueue,
    pub(crate) deficit: u64,
    /// The head is not named by the installed pause frame; kept by the
    /// port as heads and frames change, so no reader re-hashes a head.
    pub(crate) eligible: bool,
}

/// One FIFO queue of an egress port: a linked list through the port's
/// [`PacketArena`]. `head` and `tail` mean nothing while `len` is zero.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PhysQueue {
    head: u32,
    tail: u32,
    len: u32,
    bytes: u64,
}

impl PhysQueue {
    /// A FIFO with nothing queued: what an empty queue of a port's table
    /// reads as, having no state of its own.
    pub(crate) const EMPTY: PhysQueue = PhysQueue {
        head: 0,
        tail: 0,
        len: 0,
        bytes: 0,
    };

    /// Appends a packet that arrived on `ingress`. Always inlined: a port
    /// pushes onto a copy of a table queue's FIFO, which then stays in
    /// registers instead of making a round trip through the stack.
    #[inline(always)]
    pub(crate) fn push(&mut self, arena: &mut PacketArena, packet: Packet, ingress: u32) {
        let bytes = packet.size_bytes as u64;
        let i = arena.alloc(Body::Packet(packet), ingress);
        if self.len == 0 {
            self.head = i;
        } else {
            arena.slots[self.tail as usize].next = i;
        }
        self.tail = i;
        self.len += 1;
        self.bytes += bytes;
    }

    /// Removes and returns the packet at the head; its slot goes back on the
    /// arena's free list.
    #[inline]
    pub(crate) fn pop(&mut self, arena: &mut PacketArena) -> Option<QueuedPacket> {
        if self.len == 0 {
            return None;
        }
        let slot = &arena.slots[self.head as usize];
        let (ingress, behind) = (slot.tag, slot.next);
        let Body::Packet(packet) = arena.release(self.head) else {
            unreachable!("a queued slot holds a packet")
        };
        self.head = behind;
        self.len -= 1;
        self.bytes -= packet.size_bytes as u64;
        Some(QueuedPacket { packet, ingress })
    }

    /// The packet at the head, if any.
    #[inline]
    pub(crate) fn head<'a>(&self, arena: &'a PacketArena) -> Option<&'a Packet> {
        (self.len > 0).then(|| arena.packet(self.head))
    }

    /// Queue occupancy in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True if nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Serializes the queue as a [`QueuedPacket`] sequence in FIFO order: a
    /// count, then each packet and its ingress port.
    pub(crate) fn save(&self, arena: &PacketArena, w: &mut SnapWriter) {
        w.put_usize(self.len as usize);
        let mut i = self.head;
        for _ in 0..self.len {
            let slot = &arena.slots[i as usize];
            arena.packet(i).save(w);
            slot.tag.save(w);
            i = slot.next;
        }
    }

    /// Reads a queue [`PhysQueue::save`] wrote, storing its packets in
    /// `arena`.
    pub(crate) fn restore(
        arena: &mut PacketArena,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapError> {
        let mut queue = PhysQueue::default();
        r.get_seq(|qp: QueuedPacket| queue.push(arena, qp.packet, qp.ingress))?;
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FlowId, NodeId};

    fn pkt(seq: u64, size: u32) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, size, 7, false)
    }

    #[test]
    fn a_slot_is_one_cache_line_whether_it_holds_a_packet_or_a_queue_state() {
        // A queue state fits beside the packet's spare tag values, so
        // keeping Ideal-FQ's backlogged queues in the arena costs a slot
        // each and widens no slot.
        assert_eq!(std::mem::size_of::<DrrQueue>(), 40);
        assert_eq!(std::mem::size_of::<Body>(), 56);
        assert_eq!(std::mem::size_of::<Slot>(), 64);
    }

    #[test]
    fn fifo_order_and_byte_accounting() {
        let mut arena = PacketArena::new();
        let mut q = PhysQueue::default();
        assert!(q.is_empty());
        q.push(&mut arena, pkt(0, 1000), 3);
        q.push(&mut arena, pkt(1, 500), 4);
        assert_eq!(q.len, 2);
        assert_eq!(q.bytes(), 1500);
        assert_eq!(q.head(&arena).unwrap().seq, 0);
        let first = q.pop(&mut arena).unwrap();
        assert_eq!(first.packet.seq, 0);
        assert_eq!(first.ingress, 3);
        assert_eq!(q.bytes(), 500);
        let second = q.pop(&mut arena).unwrap();
        assert_eq!(second.packet.seq, 1);
        assert_eq!(second.ingress, 4);
        assert!(q.pop(&mut arena).is_none());
        assert!(q.head(&arena).is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn queues_sharing_an_arena_keep_their_own_order() {
        let mut arena = PacketArena::new();
        let mut qs: [PhysQueue; 3] = Default::default();
        for s in 0..30u64 {
            qs[(s * 7 % 3) as usize].push(&mut arena, pkt(s, 100), s as u32);
            if s % 4 == 3 {
                qs[(s % 3) as usize].pop(&mut arena);
            }
        }
        for q in &mut qs {
            let mut last = None;
            while let Some(qp) = q.pop(&mut arena) {
                assert_eq!(qp.ingress as u64, qp.packet.seq);
                assert!(last < Some(qp.packet.seq), "FIFO order within a queue");
                last = Some(qp.packet.seq);
            }
        }
        assert!(arena
            .slots
            .iter()
            .all(|slot| matches!(slot.body, Body::Free)));
    }

    #[test]
    fn storage_is_recycled_across_push_pop_cycles() {
        // Two queues of one arena, filled 16 packets each: the arena grows to
        // the pair's high-water mark of 32 slots, whichever queue held them.
        let mut arena = PacketArena::new();
        let mut qs: [PhysQueue; 2] = Default::default();
        for s in 0..32 {
            qs[s as usize % 2].push(&mut arena, pkt(s, 100), 0);
        }
        qs.iter_mut()
            .for_each(|q| while q.pop(&mut arena).is_some() {});
        let (slots, cap) = (arena.slots.len(), arena.slots.capacity());
        assert_eq!(slots, 32);
        // Refilling to the previous high-water mark, split any way between
        // the queues, must not grow storage.
        for cycle in 0..8u32 {
            for s in 0..32u64 {
                let q = if cycle % 2 == 0 { 0 } else { s as usize % 2 };
                qs[q].push(&mut arena, pkt(s, 100), cycle);
            }
            qs.iter_mut()
                .for_each(|q| while q.pop(&mut arena).is_some() {});
            assert_eq!(arena.slots.len(), slots, "every slot was reused");
            assert_eq!(
                arena.slots.capacity(),
                cap,
                "steady state must not reallocate"
            );
        }
    }

    #[test]
    fn save_writes_a_queued_packet_sequence_in_fifo_order() {
        let mut arena = PacketArena::new();
        let (mut q, mut other) = (PhysQueue::default(), PhysQueue::default());
        for s in 0..5 {
            q.push(&mut arena, pkt(s, 100), s as u32);
            other.push(&mut arena, pkt(s + 10, 100), 0);
        }
        q.pop(&mut arena);
        q.push(&mut arena, pkt(5, 100), 5);
        let mut w = SnapWriter::new();
        q.save(&arena, &mut w);
        let bytes = w.into_bytes();
        let expected: Vec<QueuedPacket> = (1..6)
            .map(|s| QueuedPacket {
                packet: pkt(s, 100),
                ingress: s as u32,
            })
            .collect();
        let mut w = SnapWriter::new();
        expected.save(&mut w);
        assert_eq!(
            bytes,
            w.into_bytes(),
            "the wire form of a `Vec<QueuedPacket>`"
        );
        let mut arena = PacketArena::new();
        let mut restored = PhysQueue::restore(&mut arena, &mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.bytes(), 500);
        let seqs: Vec<u64> = std::iter::from_fn(|| restored.pop(&mut arena))
            .map(|qp| qp.packet.seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }
}
