//! The BFC switch policy.
//!
//! [`BfcPolicy`] implements [`bfc_net::SwitchPolicy`] and contains the whole
//! per-switch control plane of the paper: the flow table, dynamic queue
//! assignment, pause-threshold evaluation, the counting bloom filters and the
//! resume pacing. One instance serves one switch (or the NIC-facing ToR
//! ports); the data plane (queues, DRR, buffer, PFC) stays in `bfc-net`.

use std::collections::VecDeque;

use bfc_net::packet::Packet;
use bfc_net::policy::{
    DequeueCtx, EnqueueCtx, EnqueueDecision, PauseTick, PolicyStats, ProbeStats, QueueTarget,
    SfqPolicy, SwitchPolicy,
};
use bfc_net::port::Port;
use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use bfc_sim::{FastHashMap, SimRng};

use crate::config::{pause_threshold_bytes, BfcConfig};
use crate::counting_bloom::CountingBloom;
use crate::flow_table::{FlowKey, FlowTable, LookupOutcome};

/// Entries per flow-table bucket (§4.1: 4-entry buckets, one per VFID).
const BUCKET_SIZE: usize = 4;

/// Entries in the flow table's associative overflow cache (§4.1).
const OVERFLOW_CACHE_SIZE: usize = 100;

/// Flows resumed per physical queue per pause-frame interval when
/// [`BfcConfig::limit_resumes`] is on: one per interval, i.e. two per hop
/// RTT (§3.5).
const RESUMES_PER_TICK_PER_QUEUE: usize = 1;

/// A flow waiting to be resumed on one ingress link.
#[derive(Debug, Clone, Copy)]
struct ResumeItem {
    vfid: u32,
    egress: u32,
    /// Physical queue the flow was assigned to (for the per-queue resume
    /// limit). Flows that never got a physical queue use `usize::MAX`.
    queue: usize,
}

bfc_sim::snap_struct! { ResumeItem { vfid, egress, queue } }

/// Per-ingress-link pause state.
#[derive(Debug)]
struct IngressState {
    counting: CountingBloom,
    to_be_resumed: VecDeque<ResumeItem>,
    dirty: bool,
    /// Resumes already granted per physical queue this tick: scratch for
    /// `pause_frame_tick`, empty between ticks, kept here so a tick reuses
    /// its storage.
    served: FastHashMap<usize, usize>,
}

impl IngressState {
    fn new(config: &BfcConfig) -> Self {
        IngressState {
            counting: CountingBloom::new(config.bloom_bytes),
            to_be_resumed: VecDeque::new(),
            dirty: false,
            served: FastHashMap::default(),
        }
    }
}

/// Picks a physical queue of `port` for a new flow (§3.3): uniformly among
/// the empty queues, or uniformly among all of them when none is empty — HoL
/// blocking is then unavoidable and the paper's prototype picks at random
/// too. One RNG draw either way; the k-th empty queue is found by walking
/// the queues, so the per-flow path allocates nothing.
pub fn pick_queue(port: &Port, rng: &mut SimRng) -> usize {
    let num_queues = port.num_queues();
    let free = num_queues - port.occupied_queue_count();
    if free == 0 {
        return rng.next_index(num_queues);
    }
    let k = rng.next_index(free);
    (0..num_queues)
        .filter(|&q| port.queue_is_empty(q))
        .nth(k)
        .expect("k is below the number of free queues")
}

/// The Backpressure Flow Control policy for one switch.
pub struct BfcPolicy {
    config: BfcConfig,
    table: FlowTable,
    ingress: Vec<IngressState>,
    rng: SimRng,
    stats: PolicyStats,
}

impl BfcPolicy {
    /// Creates a policy instance with the given configuration. `seed` only
    /// affects the random choice among free physical queues.
    pub fn new(config: BfcConfig, seed: u64) -> Self {
        BfcPolicy {
            table: FlowTable::new(config.num_vfids, BUCKET_SIZE, OVERFLOW_CACHE_SIZE),
            ingress: Vec::new(),
            rng: SimRng::new(seed ^ 0xbfc0_bfc0_bfc0_bfc0),
            stats: PolicyStats::default(),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BfcConfig {
        &self.config
    }

    /// Number of flows currently tracked at this switch.
    pub fn tracked_flows(&self) -> usize {
        self.table.len()
    }

    fn ingress_mut(&mut self, ingress: u32) -> &mut IngressState {
        let idx = ingress as usize;
        while self.ingress.len() <= idx {
            self.ingress.push(IngressState::new(&self.config));
        }
        &mut self.ingress[idx]
    }

    /// Picks a physical queue for a newly tracked flow (§3.3).
    fn choose_queue(&mut self, ctx: &EnqueueCtx<'_>, vfid: u32) -> usize {
        if !self.config.dynamic_assignment {
            // BFC-VFID straw proposal: static hash, identical at every switch.
            return SfqPolicy::queue_for(vfid, ctx.port.num_queues());
        }
        pick_queue(ctx.port, &mut self.rng)
    }
}

impl SwitchPolicy for BfcPolicy {
    fn on_enqueue(&mut self, ctx: &EnqueueCtx<'_>, pkt: &Packet) -> EnqueueDecision {
        let key = FlowKey {
            vfid: pkt.vfid,
            ingress: ctx.ingress,
            egress: ctx.egress,
        };
        let slot = match self.table.lookup_or_insert(key) {
            LookupOutcome::Found(slot) | LookupOutcome::Inserted(slot) => slot,
            LookupOutcome::TableFull => {
                // Untracked flow: send it through the overflow queue; it will
                // not participate in per-flow pausing (§3.8).
                self.stats.table_overflows += 1;
                return EnqueueDecision::queue(QueueTarget::Overflow);
            }
        };

        let (paused, packets_queued, assigned_queue) = {
            let e = self.table.entry(slot);
            (e.paused, e.packets_queued, e.queue)
        };

        // First packet of a flow goes to the high-priority queue when the
        // flow is neither paused nor already backlogged here (§3.7).
        if self.config.use_high_priority_queue
            && pkt.first_of_flow
            && !paused
            && packets_queued == 0
        {
            self.table.entry_mut(slot).packets_queued += 1;
            return EnqueueDecision::queue(QueueTarget::HighPriority);
        }

        // Make sure the flow has a physical queue.
        let queue = match assigned_queue {
            Some(q) => q,
            None => {
                let q = self.choose_queue(ctx, pkt.vfid);
                self.stats.flow_assignments += 1;
                self.stats.collisions += u64::from(!ctx.port.queue_is_empty(q));
                self.table.entry_mut(slot).queue = Some(q);
                q
            }
        };

        // Pause decision (§3.4): pause the flow toward its upstream if its
        // physical queue, including this packet, exceeds the threshold that
        // keeps the link busy across the feedback delay.
        let mut start_pause_timer = false;
        if !paused {
            let queue_was_empty = ctx.port.queue_is_empty(queue);
            let n_active = ctx.port.active_queue_count() + usize::from(queue_was_empty);
            let threshold = pause_threshold_bytes(ctx.port.link.rate_gbps, n_active);
            let bytes_after = ctx.port.queue_bytes(queue) + pkt.size_bytes as u64;
            if bytes_after > threshold {
                self.table.entry_mut(slot).paused = true;
                self.stats.pauses += 1;
                let st = self.ingress_mut(ctx.ingress);
                st.counting.insert(pkt.vfid);
                st.dirty = true;
                start_pause_timer = true;
            }
        } else {
            // The flow is already paused; the timer chain for this ingress is
            // alive as long as the counting filter is non-empty, so nothing
            // more to do. Keep the chain going for safety if it had stopped.
            start_pause_timer = true;
        }

        self.table.entry_mut(slot).packets_queued += 1;
        EnqueueDecision {
            target: QueueTarget::Phys(queue),
            start_pause_timer,
        }
    }

    fn on_dequeue(&mut self, ctx: &DequeueCtx<'_>, pkt: &Packet) {
        let key = FlowKey {
            vfid: pkt.vfid,
            ingress: ctx.ingress,
            egress: ctx.egress,
        };
        let Some(slot) = self.table.find(key) else {
            // Overflow-queue packet of an untracked flow.
            return;
        };
        let (packets_left, paused, resume_pending, queue) = {
            let e = self.table.entry_mut(slot);
            debug_assert!(e.packets_queued > 0, "dequeue without matching enqueue");
            e.packets_queued -= 1;
            (e.packets_queued, e.paused, e.resume_pending, e.queue)
        };

        // Resume evaluation (§3.4/§3.5): a paused flow becomes eligible for
        // resuming once its physical queue has drained below the threshold,
        // or unconditionally once its last packet leaves this switch.
        if paused && !resume_pending {
            let eligible = match queue {
                Some(q) => {
                    let n_active = ctx.port.active_queue_count().max(1);
                    let threshold = pause_threshold_bytes(ctx.port.link.rate_gbps, n_active);
                    ctx.port.queue_bytes(q) <= threshold
                }
                None => true,
            };
            if eligible || packets_left == 0 {
                self.table.entry_mut(slot).resume_pending = true;
                let egress = ctx.egress;
                self.ingress_mut(ctx.ingress)
                    .to_be_resumed
                    .push_back(ResumeItem {
                        vfid: pkt.vfid,
                        egress,
                        queue: queue.unwrap_or(usize::MAX),
                    });
            }
        }

        if packets_left == 0 {
            self.table.remove(key);
        }
    }

    fn pause_frame_tick(&mut self, ingress: u32) -> PauseTick {
        let limit = self
            .config
            .limit_resumes
            .then_some(RESUMES_PER_TICK_PER_QUEUE);

        self.ingress_mut(ingress);
        let BfcPolicy {
            table,
            ingress: states,
            stats,
            ..
        } = self;
        let st = &mut states[ingress as usize];
        // Release the queued resumes in order, at most `limit` per physical
        // queue this interval (§3.5), clearing each released flow's pause
        // flags as it goes; the rest keep their place.
        st.to_be_resumed.retain(|item| {
            if let Some(limit) = limit {
                let served = st.served.entry(item.queue).or_insert(0);
                if *served >= limit {
                    return true;
                }
                *served += 1;
            }
            st.counting.remove(item.vfid);
            st.dirty = true;
            stats.resumes += 1;
            let key = FlowKey {
                vfid: item.vfid,
                ingress,
                egress: item.egress,
            };
            if let Some(slot) = table.find(key) {
                let e = table.entry_mut(slot);
                e.paused = false;
                e.resume_pending = false;
            }
            false
        });
        st.served.clear();
        // Refresh the bloom filter snapshot if anything changed.
        let frame = st.dirty.then(|| st.counting.snapshot());
        st.dirty = false;
        PauseTick {
            frame,
            reschedule: !st.counting.is_empty() || !st.to_be_resumed.is_empty(),
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn probe_stats(&self) -> ProbeStats {
        let (lookups, probe_steps, max_probe) = self.table.probe_counters();
        ProbeStats {
            lookups,
            probe_steps,
            max_probe,
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        let BfcPolicy {
            config: _, // configuration
            table,
            ingress,
            rng,
            stats,
        } = self;
        rng.save(w);
        stats.save(w);
        table.save_state(w);
        w.put_usize(ingress.len());
        for st in ingress {
            let IngressState {
                counting,
                to_be_resumed,
                dirty,
                // Scratch, empty between ticks.
                served: _,
            } = st;
            counting.save_state(w);
            to_be_resumed.save(w);
            dirty.save(w);
        }
    }

    // Overlaid: the flow table and each ingress's counting bloom are built
    // from `config` and check their geometry against it.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = r.get()?;
        self.stats = r.get()?;
        self.table.restore_state(r)?;
        let num_ingress = r.get_count(VecDeque::<ResumeItem>::MIN_BYTES + bool::MIN_BYTES)?;
        self.ingress.clear();
        for _ in 0..num_ingress {
            let mut st = IngressState::new(&self.config);
            st.counting.restore_state(r)?;
            st.to_be_resumed = r.get()?;
            st.dirty = r.get()?;
            self.ingress.push(st);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::link::Link;
    use bfc_net::packet::MTU;
    use bfc_net::types::{FlowId, NodeId};

    fn port() -> Port {
        port_with(32)
    }

    fn port_with(num_queues: usize) -> Port {
        Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), num_queues)
    }

    fn ectx<'a>(port: &'a Port, ingress: u32, egress: u32) -> EnqueueCtx<'a> {
        EnqueueCtx {
            ingress,
            egress,
            port,
        }
    }

    fn dctx<'a>(port: &'a Port, ingress: u32, egress: u32, queue: QueueTarget) -> DequeueCtx<'a> {
        DequeueCtx {
            ingress,
            egress,
            port,
            queue,
        }
    }

    fn pkt(flow: u32, vfid: u32, seq: u64, first: bool) -> Packet {
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), seq, MTU, vfid, first)
    }

    /// Drives `n` packets of one flow through enqueue + port enqueue so the
    /// port state stays consistent with what the policy believes.
    fn push_packets(
        policy: &mut BfcPolicy,
        port: &mut Port,
        flow: u32,
        vfid: u32,
        n: u64,
        ingress: u32,
    ) -> Vec<QueueTarget> {
        let mut targets = Vec::new();
        for seq in 0..n {
            let p = pkt(flow, vfid, seq, seq == 0);
            let decision = policy.on_enqueue(&ectx(port, ingress, 7), &p);
            port.enqueue(decision.target, p, ingress);
            targets.push(decision.target);
        }
        targets
    }

    #[test]
    fn first_packet_uses_high_priority_queue() {
        let mut policy = BfcPolicy::new(BfcConfig::default(), 1);
        let mut port = port();
        let targets = push_packets(&mut policy, &mut port, 1, 10, 3, 0);
        assert_eq!(targets[0], QueueTarget::HighPriority);
        assert!(matches!(targets[1], QueueTarget::Phys(_)));
        assert_eq!(targets[1], targets[2], "same flow keeps its queue");
    }

    #[test]
    fn high_priority_queue_disabled_by_ablation() {
        let mut policy = BfcPolicy::new(BfcConfig::without_high_priority_queue(), 1);
        let mut port = port();
        let targets = push_packets(&mut policy, &mut port, 1, 10, 1, 0);
        assert!(matches!(targets[0], QueueTarget::Phys(_)));
    }

    #[test]
    fn distinct_flows_get_distinct_queues_when_available() {
        let mut policy = BfcPolicy::new(BfcConfig::default(), 1);
        let mut port = port();
        let mut queues = std::collections::HashSet::new();
        for flow in 0..16u32 {
            let targets = push_packets(&mut policy, &mut port, flow, 100 + flow, 2, 0);
            if let QueueTarget::Phys(q) = targets[1] {
                queues.insert(q);
            }
        }
        assert_eq!(queues.len(), 16, "no collisions with free queues available");
        assert_eq!(policy.stats().collisions, 0);
    }

    #[test]
    fn static_assignment_collides_like_the_straw_proposal() {
        let mut dynamic_collisions = 0;
        let mut static_collisions = 0;
        for seed in 0..5u64 {
            let mut dynamic = BfcPolicy::new(BfcConfig::default(), seed);
            let mut straw = BfcPolicy::new(BfcConfig::vfid_straw(), seed);
            let mut port_a = port();
            let mut port_b = port();
            for flow in 0..20u32 {
                let vfid = 1000 + flow * 17;
                push_packets(&mut dynamic, &mut port_a, flow, vfid, 2, 0);
                push_packets(&mut straw, &mut port_b, flow, vfid, 2, 0);
            }
            dynamic_collisions += dynamic.stats().collisions;
            static_collisions += straw.stats().collisions;
        }
        assert_eq!(dynamic_collisions, 0);
        assert!(
            static_collisions > 0,
            "hashing 20 flows into 32 queues must collide sometimes (birthday paradox)"
        );
    }

    #[test]
    fn queue_reclaimed_after_last_packet_leaves() {
        let mut policy = BfcPolicy::new(BfcConfig::default(), 1);
        let mut port = port();
        push_packets(&mut policy, &mut port, 1, 10, 2, 0);
        assert_eq!(policy.tracked_flows(), 1);
        // Drain both packets through the port and notify the policy.
        while let Some((qp, target)) = port.dequeue_next() {
            policy.on_dequeue(&dctx(&port, 0, 7, target), &qp.packet);
        }
        assert_eq!(policy.tracked_flows(), 0);
        // The queue is free again: a later flow can take any queue without
        // colliding.
        push_packets(&mut policy, &mut port, 2, 20, 2, 0);
        assert_eq!(policy.stats().collisions, 0);
    }

    #[test]
    fn flow_is_paused_once_queue_exceeds_threshold() {
        let config = BfcConfig::default();
        let mut policy = BfcPolicy::new(config, 1);
        let mut port = port();
        // Threshold with one active queue: (2us+1us)*12.5GB/s = 37.5 KB, i.e.
        // 37 MTU packets; the 38th arrival must trigger a pause.
        let targets = push_packets(&mut policy, &mut port, 1, 10, 60, 0);
        assert!(targets.len() == 60);
        assert_eq!(policy.stats().pauses, 1, "exactly one pause for one flow");
        // The pause frame appears on the next tick and names the VFID.
        let tick = policy.pause_frame_tick(0);
        let frame = tick.frame.expect("dirty state must emit a frame");
        assert!(frame.contains(10));
        assert!(tick.reschedule);
    }

    #[test]
    fn resume_follows_drain_and_is_rate_limited() {
        // Force both flows to share one physical queue so the ≤1 resume per
        // queue per tick limit is exercised.
        let mut policy = BfcPolicy::new(BfcConfig::default(), 1);
        let mut port = port_with(1);
        push_packets(&mut policy, &mut port, 1, 10, 60, 0);
        push_packets(&mut policy, &mut port, 2, 20, 60, 0);
        assert_eq!(policy.stats().pauses, 2);
        let _ = policy.pause_frame_tick(0);
        // Drain everything: both flows become resume-eligible, but the
        // to-be-resumed list releases only one per tick for a shared queue.
        while let Some((qp, target)) = port.dequeue_next() {
            policy.on_dequeue(&dctx(&port, 0, 7, target), &qp.packet);
        }
        let t1 = policy.pause_frame_tick(0);
        assert!(t1.frame.is_some());
        assert_eq!(policy.stats().resumes, 1, "one resume per queue per tick");
        assert!(t1.reschedule);
        let t2 = policy.pause_frame_tick(0);
        assert!(t2.frame.is_some());
        assert_eq!(policy.stats().resumes, 2);
        // After both resumes the filter is empty and the chain stops.
        let t3 = policy.pause_frame_tick(0);
        assert!(!t3.reschedule);
        let final_frame = t2.frame.expect("second resume emits a frame");
        assert!(final_frame.is_empty(), "all pauses cleared");
    }

    #[test]
    fn buffer_opt_ablation_resumes_everything_at_once() {
        let mut policy = BfcPolicy::new(BfcConfig::without_resume_limit(), 1);
        // Same single-queue setup as the rate-limited test above: without the
        // limit, both flows sharing the queue resume in a single tick.
        let mut port = port_with(1);
        push_packets(&mut policy, &mut port, 1, 10, 60, 0);
        push_packets(&mut policy, &mut port, 2, 20, 60, 0);
        while let Some((qp, target)) = port.dequeue_next() {
            policy.on_dequeue(&dctx(&port, 0, 7, target), &qp.packet);
        }
        let _ = policy.pause_frame_tick(0);
        assert_eq!(policy.stats().resumes, 2, "no pacing without the limit");
    }

    #[test]
    fn paused_flows_do_not_use_high_priority_queue() {
        let mut policy = BfcPolicy::new(BfcConfig::default(), 1);
        let mut port = port();
        push_packets(&mut policy, &mut port, 1, 10, 60, 0);
        assert_eq!(policy.stats().pauses, 1);
        // A "first" packet arriving for the same (paused) VFID must not be
        // allowed to bypass the pause via the high-priority queue.
        let p = pkt(1, 10, 60, true);
        let d = policy.on_enqueue(&ectx(&port, 0, 7), &p);
        assert!(matches!(d.target, QueueTarget::Phys(_)));
    }

    #[test]
    fn table_overflow_routes_to_overflow_queue() {
        let mut policy = BfcPolicy::new(BfcConfig::default().with_num_vfids(1), 1);
        let mut port = port();
        // Flows with the one VFID but different ingress ports fill its
        // bucket, then the overflow cache; the next cannot be tracked.
        let tracked = (BUCKET_SIZE + OVERFLOW_CACHE_SIZE) as u32;
        let mut arrive = |ingress| {
            let p = pkt(ingress, 0, 0, false);
            let target = policy.on_enqueue(&ectx(&port, ingress, 7), &p).target;
            port.enqueue(target, p, ingress);
            target
        };
        for ingress in 0..tracked {
            assert!(matches!(arrive(ingress), QueueTarget::Phys(_)));
        }
        assert_eq!(arrive(tracked), QueueTarget::Overflow);
        assert_eq!(policy.stats().table_overflows, 1);
    }

    #[test]
    fn pause_threshold_scales_with_active_queues() {
        // With many active queues the per-queue threshold shrinks, so flows
        // pause earlier. Verify through the threshold helper (the policy test
        // above covers the single-queue case).
        assert!(pause_threshold_bytes(100.0, 8) < pause_threshold_bytes(100.0, 1));
        assert_eq!(
            pause_threshold_bytes(100.0, 8),
            pause_threshold_bytes(100.0, 1) / 8
        );
    }
}
