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

use bfc_sim::snapshot::{SnapError, SnapReader, SnapWriter};

use crate::packet::Packet;

/// A packet waiting in a queue, tagged with the ingress port it arrived on.
#[derive(Debug, Clone)]
pub struct QueuedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// Ingress port (local index at this switch) the packet arrived on.
    pub ingress: u32,
}

/// One FIFO queue of an egress port.
#[derive(Debug, Default)]
pub struct PhysQueue {
    packets: VecDeque<QueuedPacket>,
    bytes: u64,
    /// Running count of bytes ever enqueued (diagnostics).
    total_enqueued_bytes: u64,
}

impl PhysQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PhysQueue::default()
    }

    /// Appends a packet that arrived on `ingress`.
    pub fn push(&mut self, packet: Packet, ingress: u32) {
        self.bytes += packet.size_bytes as u64;
        self.total_enqueued_bytes += packet.size_bytes as u64;
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

    /// Total bytes ever enqueued (monotone counter).
    pub fn total_enqueued_bytes(&self) -> u64 {
        self.total_enqueued_bytes
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

    /// Serializes the queue contents (head-to-tail order) and the monotone
    /// enqueue counter for snapshot/restore. The byte occupancy is derived
    /// from the packets on restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.packets.len());
        for qp in &self.packets {
            qp.packet.save_state(w);
            w.put_u32(qp.ingress);
        }
        w.put_u64(self.total_enqueued_bytes);
    }

    /// Rebuilds a queue from [`PhysQueue::save_state`] output.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_count(1)?;
        let mut q = PhysQueue::new();
        for _ in 0..n {
            let packet = Packet::restore_state(r)?;
            let ingress = r.get_u32()?;
            q.bytes += packet.size_bytes as u64;
            q.packets.push_back(QueuedPacket { packet, ingress });
        }
        q.total_enqueued_bytes = r.get_u64()?;
        Ok(q)
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
        assert_eq!(q.total_enqueued_bytes(), 1500);
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
