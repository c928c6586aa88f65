//! The switch queue-assignment / flow-control policy interface.
//!
//! A [`SwitchPolicy`] decides, per data packet, which egress queue the packet
//! joins, and optionally generates per-flow pause frames toward upstream
//! nodes. The baseline policies (single FIFO and stochastic fair queueing)
//! live here; the BFC policy — the paper's contribution — implements this
//! trait in the `bfc-core` crate.

use std::collections::hash_map::Entry;

use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use bfc_sim::FastHashMap;

use crate::packet::{Packet, PauseFrame};
use crate::port::Port;
use crate::types::FlowId;

/// Which queue of an egress port a packet is placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueTarget {
    /// Strict-priority control queue (ACKs, CNPs). Chosen by the switch, not
    /// by policies.
    Control,
    /// The BFC high-priority queue for first packets of flows (§3.7).
    HighPriority,
    /// Physical FIFO queue `i`.
    Phys(usize),
    /// The per-egress overflow queue used when the flow table cannot track a
    /// flow (§3.8).
    Overflow,
}

/// Context handed to the policy when a data packet is enqueued: where the
/// packet came from, where it is going, and the state of the egress it joins.
/// A policy is one switch's and its decisions are functions of queue state,
/// so the context carries neither the switch's identity nor the time.
pub struct EnqueueCtx<'a> {
    /// Local ingress port the packet arrived on.
    pub ingress: u32,
    /// Local egress port the packet will leave from.
    pub egress: u32,
    /// Read-only view of the egress port (queue occupancy, pause state, link).
    pub port: &'a Port,
}

/// Context handed to the policy when a data packet is dequeued for
/// transmission (or flushed from a dead egress): the [`EnqueueCtx`] fields
/// plus the queue it left.
pub struct DequeueCtx<'a> {
    /// Local ingress port the packet originally arrived on.
    pub ingress: u32,
    /// Local egress port transmitting the packet.
    pub egress: u32,
    /// Read-only view of the egress port *after* the packet was removed.
    pub port: &'a Port,
    /// The queue the packet was scheduled from.
    pub queue: QueueTarget,
}

/// The policy's verdict for an arriving data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnqueueDecision {
    /// Queue to place the packet in.
    pub target: QueueTarget,
    /// True if the switch must ensure a pause-frame timer chain is running
    /// for the packet's ingress port (the policy has pending pause state to
    /// communicate upstream).
    pub start_pause_timer: bool,
}

impl EnqueueDecision {
    /// Places the packet in `target` with no pause-frame side effects.
    pub fn queue(target: QueueTarget) -> Self {
        EnqueueDecision {
            target,
            start_pause_timer: false,
        }
    }
}

/// Result of a periodic pause-frame tick for one ingress port.
#[derive(Debug, Clone)]
pub struct PauseTick {
    /// Pause frame to send upstream (None = nothing to send this interval).
    pub frame: Option<PauseFrame>,
    /// True if the switch should schedule another tick one interval later.
    pub reschedule: bool,
}

impl PauseTick {
    /// A tick that sends nothing and stops the timer chain.
    pub fn idle() -> Self {
        PauseTick {
            frame: None,
            reschedule: false,
        }
    }
}

/// Counters every policy exposes for the evaluation figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Number of distinct flow arrivals that required a queue assignment.
    pub flow_assignments: u64,
    /// Assignments that landed in a queue already occupied by another flow
    /// (the "collisions" of Figs. 7 and 12).
    pub collisions: u64,
    /// Packets that had to use the overflow queue because the flow table was
    /// full (Fig. 13).
    pub table_overflows: u64,
    /// Per-flow pause events generated (BFC only).
    pub pauses: u64,
    /// Per-flow resume events generated (BFC only).
    pub resumes: u64,
}

impl PolicyStats {
    /// Fraction of flow assignments that collided with another flow.
    pub fn collision_fraction(&self) -> f64 {
        if self.flow_assignments == 0 {
            0.0
        } else {
            self.collisions as f64 / self.flow_assignments as f64
        }
    }

    /// Fraction of flow assignments that overflowed the flow table.
    pub fn overflow_fraction(&self) -> f64 {
        if self.flow_assignments == 0 {
            0.0
        } else {
            self.table_overflows as f64 / self.flow_assignments as f64
        }
    }

    /// Accumulates another policy's counters (used to aggregate per-switch
    /// stats into fabric-wide totals).
    pub fn merge(&mut self, other: &PolicyStats) {
        self.flow_assignments += other.flow_assignments;
        self.collisions += other.collisions;
        self.table_overflows += other.table_overflows;
        self.pauses += other.pauses;
        self.resumes += other.resumes;
    }
}

bfc_sim::snap_struct! {
    PolicyStats {
        flow_assignments, collisions, table_overflows, pauses, resumes,
    }
}

/// Flow-table probing counters a policy may expose for the observability
/// registry. Kept separate from [`PolicyStats`] — which experiment results
/// compare bit-for-bit — so new instrumentation never perturbs the
/// evaluation figures. Schemes without a flow table report all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Flow-table lookups performed.
    pub lookups: u64,
    /// Total probe steps across all lookups (1 per lookup when every key
    /// sits in its home slot).
    pub probe_steps: u64,
    /// Longest single probe sequence observed.
    pub max_probe: u64,
}

/// A queue-assignment / flow-control policy for one switch.
///
/// Policies must be `Send` so a whole switch — and therefore a whole
/// experiment — can be handed to a worker thread by the parallel experiment
/// driver in `bfc-experiments`.
pub trait SwitchPolicy: Send {
    /// Chooses a queue for an arriving data packet.
    fn on_enqueue(&mut self, ctx: &EnqueueCtx<'_>, pkt: &Packet) -> EnqueueDecision;

    /// Observes a data packet leaving the switch (used to update flow state,
    /// reclaim queues and schedule resumes).
    fn on_dequeue(&mut self, ctx: &DequeueCtx<'_>, pkt: &Packet);

    /// Periodic pause-frame opportunity for one ingress port.
    fn pause_frame_tick(&mut self, _ingress: u32) -> PauseTick {
        PauseTick::idle()
    }

    /// Aggregated counters.
    fn stats(&self) -> PolicyStats;

    /// Flow-table probing counters for the observability registry. The
    /// default covers schemes without a flow table.
    fn probe_stats(&self) -> ProbeStats {
        ProbeStats::default()
    }

    /// Serializes the policy's *mutable* state (flow residency, counters,
    /// pause bookkeeping) for snapshot/restore. Configuration is not
    /// captured: restore overlays onto a freshly constructed policy of the
    /// same scheme.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restores state captured by [`SwitchPolicy::save_state`] into this
    /// (freshly constructed, same-configuration) policy.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// A policy whose queue for a data packet is a fixed function of the packet:
/// physical queue 0 for every packet ([`FifoPolicy`]), or the queue its VFID
/// hashes to ([`SfqPolicy`]). Whether the queue a flow joins is occupied is
/// read from the egress [`Port`]; the policy keeps only which flows have
/// packets queued, to tell a flow's arrival from its next packet.
#[derive(Debug, Default)]
pub struct StaticPolicy<const HASHED: bool> {
    stats: PolicyStats,
    /// Packets queued per (egress port, flow), for the flows with any. No
    /// queue in the key: a flow's queue at an egress follows from its VFID.
    /// Probed on every packet, hence the deterministic fast hasher.
    queued: FastHashMap<(u32, FlowId), u32>,
}

/// Single-FIFO policy: every data packet goes to physical queue 0. This is
/// the switch model used by DCQCN, DCQCN+Win and HPCC in the paper.
pub type FifoPolicy = StaticPolicy<false>;

/// Stochastic fair queueing: a flow is statically hashed to one of the
/// physical queues (the straw-man assignment of §3.2, and the scheduling used
/// by DCQCN+Win+SFQ and Ideal-FQ).
pub type SfqPolicy = StaticPolicy<true>;

impl<const HASHED: bool> StaticPolicy<HASHED> {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SfqPolicy {
    /// The static queue a VFID hashes to.
    pub fn queue_for(vfid: u32, num_queues: usize) -> usize {
        (bfc_sim::rng::mix64(vfid as u64) % num_queues as u64) as usize
    }
}

impl<const HASHED: bool> SwitchPolicy for StaticPolicy<HASHED> {
    fn on_enqueue(&mut self, ctx: &EnqueueCtx<'_>, pkt: &Packet) -> EnqueueDecision {
        let q = if HASHED {
            SfqPolicy::queue_for(pkt.vfid, ctx.port.num_queues())
        } else {
            0
        };
        let queued = self.queued.entry((ctx.egress, pkt.flow)).or_insert(0);
        if *queued == 0 {
            // A flow not queued here is a new assignment, and a collision
            // if another flow occupies its queue.
            self.stats.flow_assignments += 1;
            self.stats.collisions += u64::from(!ctx.port.queue_is_empty(q));
        }
        *queued += 1;
        EnqueueDecision::queue(QueueTarget::Phys(q))
    }

    fn on_dequeue(&mut self, ctx: &DequeueCtx<'_>, pkt: &Packet) {
        if let Entry::Occupied(mut queued) = self.queued.entry((ctx.egress, pkt.flow)) {
            *queued.get_mut() -= 1;
            if *queued.get() == 0 {
                queued.remove();
            }
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn save_state(&self, w: &mut SnapWriter) {
        let StaticPolicy { stats, queued } = self;
        stats.save(w);
        queued.save(w);
    }

    // Overlaid: the map keeps the storage it has grown.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = r.get()?;
        r.get_map(&mut self.queued, "duplicate flow in the residency map")?;
        if self.queued.values().any(|&n| n == 0) {
            return Err(SnapError::Corrupt("resident flow with no packet queued"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::types::NodeId;

    fn data(flow: u32, vfid: u32) -> Packet {
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, 1000, vfid, false)
    }

    /// Offers `pkt` to the policy at egress 0 and queues it where the policy
    /// says, as `Switch::forward` does.
    fn arrive(p: &mut dyn SwitchPolicy, port: &mut Port, pkt: Packet) -> QueueTarget {
        let ctx = EnqueueCtx {
            ingress: 0,
            egress: 0,
            port,
        };
        let target = p.on_enqueue(&ctx, &pkt).target;
        port.enqueue(target, pkt, 0);
        target
    }

    #[test]
    fn fifo_always_uses_queue_zero_and_counts_collisions() {
        let mut port = Port::new(Link::datacenter_default(), None, 8);
        let mut p = FifoPolicy::new();
        assert_eq!(arrive(&mut p, &mut port, data(1, 10)), QueueTarget::Phys(0));
        arrive(&mut p, &mut port, data(2, 20));
        let s = p.stats();
        assert_eq!(s.flow_assignments, 2);
        assert_eq!(s.collisions, 1);
        assert!((s.collision_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sfq_assignment_is_static_per_vfid() {
        let mut port = Port::new(Link::datacenter_default(), None, 32);
        let mut p = SfqPolicy::new();
        let t1 = arrive(&mut p, &mut port, data(1, 77));
        let t2 = arrive(&mut p, &mut port, data(1, 77));
        assert_eq!(t1, t2);
        assert!(matches!(t1, QueueTarget::Phys(_)));
    }

    #[test]
    fn sfq_collisions_require_same_queue() {
        let mut port = Port::new(Link::datacenter_default(), None, 32);
        let mut p = SfqPolicy::new();
        // Two flows with the same VFID necessarily share a queue.
        arrive(&mut p, &mut port, data(1, 9));
        arrive(&mut p, &mut port, data(2, 9));
        assert_eq!(p.stats().collisions, 1);
    }

    #[test]
    fn dequeue_releases_residency() {
        let mut port = Port::new(Link::datacenter_default(), None, 8);
        let mut p = FifoPolicy::new();
        arrive(&mut p, &mut port, data(1, 10));
        let (qp, queue) = port.dequeue_next().expect("queued");
        let dctx = DequeueCtx {
            ingress: 0,
            egress: 0,
            port: &port,
            queue,
        };
        p.on_dequeue(&dctx, &qp.packet);
        // A later flow should no longer count as a collision, and the
        // first one's return is a new assignment.
        arrive(&mut p, &mut port, data(2, 20));
        assert_eq!(p.stats().collisions, 0);
        arrive(&mut p, &mut port, data(1, 10));
        assert_eq!(p.stats().flow_assignments, 3);
        assert_eq!(p.stats().collisions, 1);
    }

    #[test]
    fn restore_refuses_a_resident_flow_with_no_packet_queued() {
        let mut port = Port::new(Link::datacenter_default(), None, 8);
        let mut p = SfqPolicy::new();
        arrive(&mut p, &mut port, data(1, 10));
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let mut bytes = w.into_bytes();
        let restore = |bytes: &[u8]| SfqPolicy::new().restore_state(&mut SnapReader::new(bytes));
        assert_eq!(restore(&bytes), Ok(()));
        // The one (egress, flow, count) entry ends the state.
        let count = bytes.len() - 4;
        assert_eq!(bytes[count..], 1u32.to_le_bytes());
        bytes[count..].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            restore(&bytes),
            Err(SnapError::Corrupt("resident flow with no packet queued"))
        );
    }

    #[test]
    fn default_pause_tick_is_idle() {
        let mut p = FifoPolicy::new();
        let tick = p.pause_frame_tick(0);
        assert!(tick.frame.is_none());
        assert!(!tick.reschedule);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let a = PolicyStats {
            flow_assignments: 10,
            collisions: 2,
            table_overflows: 1,
            pauses: 5,
            resumes: 4,
        };
        let mut b = PolicyStats::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.flow_assignments, 20);
        assert_eq!(b.collisions, 4);
        assert_eq!(b.pauses, 10);
        assert!((a.overflow_fraction() - 0.1).abs() < 1e-9);
    }
}
