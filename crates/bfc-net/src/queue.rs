//! Physical FIFO queues.
//!
//! Modern switch ASICs give each egress port a small number of FIFO queues
//! (32 in the paper's hardware model). A [`PhysQueue`] is one such FIFO; it
//! remembers, for every queued packet, which ingress port it arrived on so
//! that per-ingress buffer accounting (needed for PFC) stays exact when the
//! packet eventually leaves.
//!
//! [`QueuedPacket`] storage is recycled: the backing ring buffer grows to
//! the queue's high-water mark and is then reused for every later packet, so
//! steady-state enqueue/dequeue never allocates. A slot is one 64-byte cache
//! line: a packet's two variable-size parts — HPCC's INT records
//! (`packet::IntPath`) and a BFC pause frame's bloom filter — live out of
//! line behind 8-byte handles and move with the packet, so queueing never
//! copies or allocates them either.

use std::collections::VecDeque;

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

/// One FIFO queue of an egress port.
#[derive(Debug, Default, PartialEq)]
pub struct PhysQueue {
    packets: VecDeque<QueuedPacket>,
    bytes: u64,
}

impl PhysQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PhysQueue::default()
    }

    /// Appends a packet that arrived on `ingress`.
    pub fn push(&mut self, packet: Packet, ingress: u32) {
        self.bytes += packet.size_bytes as u64;
        self.packets.push_back(QueuedPacket { packet, ingress });
    }

    /// Removes and returns the packet at the head.
    pub fn pop(&mut self) -> Option<QueuedPacket> {
        let qp = self.packets.pop_front()?;
        self.bytes -= qp.packet.size_bytes as u64;
        Some(qp)
    }

    /// The packet at the head, if any.
    pub fn head(&self) -> Option<&QueuedPacket> {
        self.packets.front()
    }

    /// Queue occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Iterates over the queued packets from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedPacket> {
        self.packets.iter()
    }

    /// Number of packet slots the queue can hold before its backing storage
    /// grows again. The storage never shrinks: it is recycled across
    /// enqueue/dequeue cycles, which is what keeps the steady-state packet
    /// path allocation-free.
    pub fn storage_capacity(&self) -> usize {
        self.packets.capacity()
    }
}

impl Snap for PhysQueue {
    const MIN_BYTES: usize = VecDeque::<QueuedPacket>::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        let PhysQueue { packets, bytes: _ } = self;
        packets.save(w);
    }

    // Hand-written to rebuild `bytes`, which is derived: the sum of the
    // queued packets' sizes.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let packets: VecDeque<QueuedPacket> = r.get()?;
        Ok(PhysQueue {
            bytes: packets
                .iter()
                .map(|qp| u64::from(qp.packet.size_bytes))
                .sum(),
            packets,
        })
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
    fn fifo_order_and_byte_accounting() {
        let mut q = PhysQueue::new();
        assert!(q.is_empty());
        q.push(pkt(0, 1000), 3);
        q.push(pkt(1, 500), 4);
        assert_eq!(q.len(), 2);
        assert_eq!(q.bytes(), 1500);
        assert_eq!(q.head().unwrap().packet.seq, 0);
        let first = q.pop().unwrap();
        assert_eq!(first.packet.seq, 0);
        assert_eq!(first.ingress, 3);
        assert_eq!(q.bytes(), 500);
        let second = q.pop().unwrap();
        assert_eq!(second.packet.seq, 1);
        assert_eq!(second.ingress, 4);
        assert!(q.pop().is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn storage_is_recycled_across_push_pop_cycles() {
        let mut q = PhysQueue::new();
        for s in 0..16 {
            q.push(pkt(s, 100), 0);
        }
        while q.pop().is_some() {}
        let cap = q.storage_capacity();
        assert!(cap >= 16);
        // Refilling to the previous high-water mark must not grow storage.
        for cycle in 0..8 {
            for s in 0..16 {
                q.push(pkt(s, 100), cycle);
            }
            while q.pop().is_some() {}
            assert_eq!(q.storage_capacity(), cap, "steady state must not reallocate");
        }
    }

    #[test]
    fn iter_sees_queue_contents() {
        let mut q = PhysQueue::new();
        for s in 0..5 {
            q.push(pkt(s, 100), 0);
        }
        let seqs: Vec<u64> = q.iter().map(|qp| qp.packet.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
