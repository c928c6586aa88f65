//! The switch queue-assignment / flow-control policy interface.
//!
//! A [`SwitchPolicy`] decides, per data packet, which egress queue the packet
//! joins, and optionally generates per-flow pause frames toward upstream
//! nodes. The baseline policies (single FIFO and stochastic fair queueing)
//! live here; the BFC policy — the paper's contribution — implements this
//! trait in the `bfc-core` crate.

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

/// The flows resident in one queue, with their packet counts. Probed on every
/// packet, hence the deterministic fast hasher.
type Residents = FastHashMap<FlowId, usize>;

/// A packet of `flow` joins the queue `residents` describes: a flow not yet
/// resident is a new assignment, and a collision if the queue is occupied.
fn enter(residents: &mut Residents, stats: &mut PolicyStats, flow: FlowId) {
    if !residents.contains_key(&flow) {
        stats.flow_assignments += 1;
        if !residents.is_empty() {
            stats.collisions += 1;
        }
    }
    *residents.entry(flow).or_insert(0) += 1;
}

/// A packet of `flow` leaves the queue; its last one ends the residency.
fn leave(residents: &mut Residents, flow: FlowId) {
    if let Some(count) = residents.get_mut(&flow) {
        *count -= 1;
        if *count == 0 {
            residents.remove(&flow);
        }
    }
}

/// Single-FIFO policy: every data packet goes to physical queue 0. This is
/// the switch model used by DCQCN, DCQCN+Win and HPCC in the paper.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    stats: PolicyStats,
    /// Flows currently occupying queue 0, indexed by egress port (ports are
    /// dense small integers; the vector grows on demand).
    resident: Vec<Residents>,
}

impl FifoPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FifoPolicy::default()
    }
}

impl SwitchPolicy for FifoPolicy {
    fn on_enqueue(&mut self, ctx: &EnqueueCtx<'_>, pkt: &Packet) -> EnqueueDecision {
        let egress = ctx.egress as usize;
        if egress >= self.resident.len() {
            self.resident.resize_with(egress + 1, Residents::default);
        }
        enter(&mut self.resident[egress], &mut self.stats, pkt.flow);
        EnqueueDecision::queue(QueueTarget::Phys(0))
    }

    fn on_dequeue(&mut self, ctx: &DequeueCtx<'_>, pkt: &Packet) {
        if let Some(residents) = self.resident.get_mut(ctx.egress as usize) {
            leave(residents, pkt.flow);
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn save_state(&self, w: &mut SnapWriter) {
        let FifoPolicy { stats, resident } = self;
        stats.save(w);
        resident.save(w);
    }

    // Overlaid, not derived: the per-egress vector is refilled in place, so
    // it grows the way `on_enqueue` grows it.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = r.get()?;
        self.resident.clear();
        r.get_seq(|map| self.resident.push(map))
    }
}

/// Stochastic fair queueing: a flow is statically hashed to one of the
/// physical queues (the straw-man assignment of §3.2, and the scheduling used
/// by DCQCN+Win+SFQ and Ideal-FQ).
#[derive(Debug, Default)]
pub struct SfqPolicy {
    stats: PolicyStats,
    /// Flows resident per egress port (outer vector, grown on demand) and
    /// queue index (inner vector, sized on first touch of the port).
    resident: Vec<Vec<Residents>>,
}

impl SfqPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        SfqPolicy::default()
    }

    /// The static queue a VFID hashes to.
    pub fn queue_for(vfid: u32, num_queues: usize) -> usize {
        (bfc_sim::rng::mix64(vfid as u64) % num_queues as u64) as usize
    }
}

impl SwitchPolicy for SfqPolicy {
    fn on_enqueue(&mut self, ctx: &EnqueueCtx<'_>, pkt: &Packet) -> EnqueueDecision {
        let q = Self::queue_for(pkt.vfid, ctx.port.num_queues());
        let egress = ctx.egress as usize;
        if egress >= self.resident.len() {
            self.resident.resize_with(egress + 1, Vec::new);
        }
        let port_resident = &mut self.resident[egress];
        if port_resident.is_empty() {
            port_resident.resize_with(ctx.port.num_queues(), Residents::default);
        }
        enter(&mut port_resident[q], &mut self.stats, pkt.flow);
        EnqueueDecision::queue(QueueTarget::Phys(q))
    }

    fn on_dequeue(&mut self, ctx: &DequeueCtx<'_>, pkt: &Packet) {
        let QueueTarget::Phys(q) = ctx.queue else {
            return;
        };
        let port = self.resident.get_mut(ctx.egress as usize);
        if let Some(residents) = port.and_then(|port| port.get_mut(q)) {
            leave(residents, pkt.flow);
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn save_state(&self, w: &mut SnapWriter) {
        let SfqPolicy { stats, resident } = self;
        stats.save(w);
        resident.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = r.get()?;
        self.resident = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::types::NodeId;

    fn ctx<'a>(port: &'a Port, egress: u32) -> EnqueueCtx<'a> {
        EnqueueCtx {
            ingress: 0,
            egress,
            port,
        }
    }

    fn data(flow: u32, vfid: u32) -> Packet {
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, 1000, vfid, false)
    }

    #[test]
    fn fifo_always_uses_queue_zero_and_counts_collisions() {
        let port = Port::new(Link::datacenter_default(), None, 8, 1000);
        let mut p = FifoPolicy::new();
        let d1 = p.on_enqueue(&ctx(&port, 0), &data(1, 10));
        assert_eq!(d1.target, QueueTarget::Phys(0));
        let _ = p.on_enqueue(&ctx(&port, 0), &data(2, 20));
        let s = p.stats();
        assert_eq!(s.flow_assignments, 2);
        assert_eq!(s.collisions, 1);
        assert!((s.collision_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sfq_assignment_is_static_per_vfid() {
        let port = Port::new(Link::datacenter_default(), None, 32, 1000);
        let mut p = SfqPolicy::new();
        let d1 = p.on_enqueue(&ctx(&port, 0), &data(1, 77));
        let d2 = p.on_enqueue(&ctx(&port, 0), &data(1, 77));
        assert_eq!(d1.target, d2.target);
        assert!(matches!(d1.target, QueueTarget::Phys(_)));
    }

    #[test]
    fn sfq_collisions_require_same_queue() {
        let port = Port::new(Link::datacenter_default(), None, 32, 1000);
        let mut p = SfqPolicy::new();
        // Two flows with the same VFID necessarily share a queue.
        let _ = p.on_enqueue(&ctx(&port, 0), &data(1, 9));
        let _ = p.on_enqueue(&ctx(&port, 0), &data(2, 9));
        assert_eq!(p.stats().collisions, 1);
    }

    #[test]
    fn dequeue_releases_residency() {
        let port = Port::new(Link::datacenter_default(), None, 8, 1000);
        let mut p = FifoPolicy::new();
        let _ = p.on_enqueue(&ctx(&port, 0), &data(1, 10));
        let dctx = DequeueCtx {
            ingress: 0,
            egress: 0,
            port: &port,
            queue: QueueTarget::Phys(0),
        };
        p.on_dequeue(&dctx, &data(1, 10));
        // A later flow should no longer count as a collision.
        let _ = p.on_enqueue(&ctx(&port, 0), &data(2, 20));
        assert_eq!(p.stats().collisions, 0);
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
