//! The shared-buffer switch.
//!
//! A [`Switch`] owns one egress [`Port`] per cable, a [`SharedBuffer`], and a
//! queue-assignment [`SwitchPolicy`]. Its packet path is:
//!
//! 1. **Link control frames** (PFC pause/resume, BFC flow-pause bloom
//!    filters) update the egress facing the sender and are consumed.
//! 2. **Forwarded packets** are admitted against the shared buffer (dropping
//!    on overflow), accounted per ingress for the dynamic PFC threshold,
//!    optionally ECN-marked, placed in the queue chosen by the policy and
//!    scheduled out of the egress port with strict priority for control
//!    traffic, then the high-priority queue, then deficit round robin.
//! 3. On dequeue the policy observes the departure (BFC reclaims queues and
//!    schedules resumes there) and, when HPCC telemetry is enabled, an INT
//!    record is appended to data packets.
//!
//! Pause frames and PFC frames are delivered out of band: they experience the
//! link's serialization and propagation delay but never wait behind data,
//! matching how MAC control frames behave on real hardware.
//!
//! An egress schedules the end of a serialization as a `TxComplete` event
//! only when there is something it could send then (see
//! [`crate::port::Transmitter`]): a packet forwarded through an idle port
//! costs the fabric one event — its arrival at the next hop — and a
//! backlogged port two. An end that finds only paused queues is owed
//! instead of scheduled, and every handler that touches an egress first
//! settles it (`Port::settle`).

use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use bfc_sim::{Hist, SimRng, SimTime};

use crate::buffer::SharedBuffer;
use crate::config::{ecn_marking_probability, SwitchConfig, PAUSE_FRAME_INTERVAL};
use crate::event::{NetEvent, NetSink};
use crate::packet::{Packet, PacketKind};
use crate::policy::{DequeueCtx, EnqueueCtx, QueueTarget, SwitchPolicy};
use crate::port::Port;
use crate::routing::RoutingTables;
use crate::topology::PortSpec;
use crate::trace::{self, TraceEvent};
use crate::types::NodeId;

/// Maps a policy queue target onto the trace-record queue encoding.
fn queue_code(target: QueueTarget) -> u32 {
    match target {
        QueueTarget::Control => trace::QUEUE_CONTROL,
        QueueTarget::HighPriority => trace::QUEUE_HIGH_PRIORITY,
        QueueTarget::Overflow => trace::QUEUE_OVERFLOW,
        QueueTarget::Phys(q) => q as u32,
    }
}

/// Counters a switch exposes to the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Data/ACK/CNP packets received for forwarding.
    pub rx_packets: u64,
    /// Packets dropped at admission because the shared buffer was full.
    pub drops: u64,
    /// Data packets marked with ECN CE.
    pub ecn_marked: u64,
    /// PFC pause frames sent upstream.
    pub pfc_pauses_sent: u64,
    /// BFC flow-pause frames sent upstream.
    pub flow_pause_frames_sent: u64,
    /// Data packets lost to network dynamics at this switch: flushed from a
    /// dead egress or arriving with no route to their destination.
    pub blackholed: u64,
}

bfc_sim::snap_struct! {
    SwitchCounters {
        rx_packets, drops, ecn_marked, pfc_pauses_sent, flow_pause_frames_sent, blackholed,
    }
}

/// A shared-buffer switch.
pub struct Switch {
    /// This switch's node ID.
    pub id: NodeId,
    /// Static configuration.
    pub config: SwitchConfig,
    ports: Vec<Port>,
    buffer: SharedBuffer,
    policy: Box<dyn SwitchPolicy>,
    rng: SimRng,
    pause_timer_active: Vec<bool>,
    counters: SwitchCounters,
    /// Egress data-queue depth (bytes) seen by every
    /// [`DEPTH_SAMPLE_STRIDE`]-th data packet as it enqueues — the
    /// distribution behind the registry's `bfc_switch_queue_depth_bytes`
    /// histogram.
    depth_hist: Hist,
    /// Data enqueues seen so far; drives the deterministic sampling phase
    /// (switch-local, so it is engine-independent and snapshot-safe).
    depth_ticks: u64,
}

/// Every `DEPTH_SAMPLE_STRIDE`-th data enqueue samples the queue-depth
/// histogram. Sampling keeps the observation off the per-packet budget
/// (full-rate observation costs ~10% on the paper lineup; the stride keeps
/// it under 2%) while the fixed stride and switch-local phase keep the
/// distribution deterministic across engines and shard counts.
const DEPTH_SAMPLE_STRIDE: u64 = 8;

impl Switch {
    /// Builds a switch from its ports in the topology. `policy` decides queue
    /// assignment and per-flow pausing; the `rng` seed only affects ECN
    /// marking randomness.
    pub fn new(
        id: NodeId,
        config: SwitchConfig,
        port_specs: &[PortSpec],
        policy: Box<dyn SwitchPolicy>,
        rng_seed: u64,
    ) -> Self {
        let ports: Vec<Port> = port_specs
            .iter()
            .map(|spec| {
                Port::new(spec.link, Some((spec.peer, spec.peer_port)), config.queues_per_port)
            })
            .collect();
        let buffer = SharedBuffer::new(config.buffer_bytes, ports.len());
        let pause_timer_active = vec![false; ports.len()];
        Switch {
            id,
            config,
            ports,
            buffer,
            policy,
            rng: SimRng::new(rng_seed ^ 0x5157_1c48_0000_0000 ^ id.0 as u64),
            pause_timer_active,
            counters: SwitchCounters::default(),
            depth_hist: Hist::new(),
            depth_ticks: 0,
        }
    }

    /// The queue-depth-at-enqueue distribution (bytes already queued on the
    /// chosen egress when the sampled data packet joined it), sampled every
    /// [`DEPTH_SAMPLE_STRIDE`]-th data enqueue.
    pub fn depth_hist(&self) -> &Hist {
        &self.depth_hist
    }

    /// Read access to a port (tests and metrics).
    pub fn port(&self, i: u32) -> &Port {
        &self.ports[i as usize]
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The shared buffer (metrics).
    pub fn buffer(&self) -> &SharedBuffer {
        &self.buffer
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// The policy's counters.
    pub fn policy_stats(&self) -> crate::policy::PolicyStats {
        self.policy.stats()
    }

    /// The policy's flow-table probing counters (observability registry).
    pub fn probe_stats(&self) -> crate::policy::ProbeStats {
        self.policy.probe_stats()
    }

    /// Serializes all mutable switch state — ports, shared buffer, policy,
    /// RNG, pause timers, counters — for snapshot/restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Switch {
            id: _,     // configuration
            config: _, // configuration
            ports,
            buffer,
            policy,
            rng,
            pause_timer_active,
            counters,
            depth_hist,
            depth_ticks,
        } = self;
        rng.save(w);
        counters.save(w);
        w.put_usize(ports.len());
        w.put_all(pause_timer_active);
        buffer.save_state(w);
        for port in ports {
            port.save_state(w);
        }
        policy.save_state(w);
        depth_hist.save(w);
        depth_ticks.save(w);
    }

    /// Overlays state captured by [`Switch::save_state`] onto this switch,
    /// which was built from the same topology, config and policy scheme:
    /// checks the port count, and hands each port, the buffer and the policy
    /// their own part.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = r.get()?;
        self.counters = r.get()?;
        r.expect_count(self.ports.len(), "switch port count mismatch")?;
        r.fill(&mut self.pause_timer_active)?;
        self.buffer.restore_state(r)?;
        for port in &mut self.ports {
            port.restore_state(r)?;
        }
        self.policy.restore_state(r)?;
        self.depth_hist = r.get()?;
        self.depth_ticks = r.get()?;
        Ok(())
    }

    /// Handles a packet whose last bit arrived on `ingress` at `now`.
    pub fn handle_packet(
        &mut self,
        now: SimTime,
        ingress: u32,
        packet: Packet,
        routes: &RoutingTables,
        events: &mut impl NetSink,
    ) {
        match &packet.kind {
            PacketKind::PfcPause { pause } => {
                let pause = *pause;
                let port = &mut self.ports[ingress as usize];
                port.settle(now);
                port.set_pfc_paused(pause, now);
                if !pause {
                    self.try_transmit(now, ingress, events);
                }
            }
            PacketKind::FlowPause { frame } => {
                // PauseFrame stores its bits inline, so installing the frame
                // is a plain copy — no allocation on the control path.
                let port = &mut self.ports[ingress as usize];
                port.settle(now);
                port.set_pause_frame(Some(**frame));
                self.try_transmit(now, ingress, events);
            }
            _ => self.forward(now, ingress, packet, routes, events),
        }
    }

    fn forward(
        &mut self,
        now: SimTime,
        ingress: u32,
        mut packet: Packet,
        routes: &RoutingTables,
        events: &mut impl NetSink,
    ) {
        self.counters.rx_packets += 1;
        let Some(egress) = routes.try_egress_port(self.id, packet.dst, packet.flow.0 as u64) else {
            // The destination is unreachable after a link failure: blackhole
            // the packet; Go-Back-N at the sender recovers once routing (or
            // the link) comes back.
            if packet.is_data() {
                self.counters.blackholed += 1;
                events.trace(
                    now,
                    TraceEvent::Blackhole {
                        node: self.id,
                        flow: packet.flow.0,
                        bytes: packet.size_bytes,
                    },
                );
            }
            return;
        };
        // `egress == ingress` is legitimate after a routing re-convergence: a
        // packet that was in flight toward a now-detoured region is sent back
        // the way it came. The recomputed tables are shortest-path over the
        // live graph, so distances strictly decrease from here and the packet
        // still cannot loop.

        if !self.buffer.admit(packet.size_bytes, ingress) {
            // Dropped: Go-Back-N at the sender recovers it.
            self.counters.drops += 1;
            events.trace(
                now,
                TraceEvent::Drop {
                    node: self.id,
                    port: egress,
                    flow: packet.flow.0,
                    bytes: packet.size_bytes,
                },
            );
            return;
        }
        self.maybe_send_pfc(now, ingress, events);

        self.ports[egress as usize].settle(now);
        let target = if !packet.is_data() {
            QueueTarget::Control
        } else {
            let decision = {
                let ctx = EnqueueCtx {
                    ingress,
                    egress,
                    port: &self.ports[egress as usize],
                };
                self.policy.on_enqueue(&ctx, &packet)
            };
            if decision.start_pause_timer && !self.pause_timer_active[ingress as usize] {
                self.pause_timer_active[ingress as usize] = true;
                events.send(
                    now + PAUSE_FRAME_INTERVAL,
                    NetEvent::PauseFrameTimer {
                        node: self.id,
                        port: ingress,
                    },
                );
            }
            decision.target
        };

        if self.config.ecn && packet.is_data() {
            let qlen = self.ports[egress as usize].data_queued_bytes();
            let p = ecn_marking_probability(qlen);
            if p > 0.0 && self.rng.chance(p) {
                packet.ecn_ce = true;
                self.counters.ecn_marked += 1;
            }
        }

        let queue = queue_code(target);
        let (flow, bytes, is_data) = (packet.flow.0, packet.size_bytes, packet.is_data());
        let was_empty = self.ports[egress as usize].target_is_empty(target);
        if is_data {
            if self.depth_ticks % DEPTH_SAMPLE_STRIDE == 0 {
                self.depth_hist
                    .observe(self.ports[egress as usize].data_queued_bytes());
            }
            self.depth_ticks = self.depth_ticks.wrapping_add(1);
        }
        self.ports[egress as usize].enqueue(target, packet, ingress);
        if is_data {
            events.trace(
                now,
                TraceEvent::Enqueue {
                    node: self.id,
                    port: egress,
                    queue,
                    flow,
                    bytes,
                },
            );
        }
        if was_empty {
            events.trace(
                now,
                TraceEvent::QueueActive {
                    node: self.id,
                    port: egress,
                    queue,
                },
            );
        }
        self.try_transmit(now, egress, events);
    }

    /// Sends a PFC pause/resume to the upstream of `ingress` if the dynamic
    /// threshold was just crossed.
    fn maybe_send_pfc(&mut self, now: SimTime, ingress: u32, events: &mut impl NetSink) {
        if let Some(pause) = self.buffer.pfc_transition(ingress, self.config.pfc) {
            let port = &self.ports[ingress as usize];
            if let Some((peer, peer_port)) = port.peer {
                let frame = Packet::pfc(self.id, peer, pause);
                let arrival = port.link.arrival_time(now, frame.size_bytes);
                self.counters.pfc_pauses_sent += u64::from(pause);
                events.trace(
                    now,
                    TraceEvent::PfcSent {
                        node: self.id,
                        port: ingress,
                        pause,
                    },
                );
                events.send(
                    arrival,
                    NetEvent::PacketArrive {
                        node: peer,
                        port: peer_port,
                        packet: frame,
                    },
                );
            }
        }
    }

    /// The egress at `port` finished serializing a packet and was asked to
    /// report it (there was, or there arrived, something more to send).
    pub fn handle_tx_complete(
        &mut self,
        now: SimTime,
        port: u32,
        events: &mut impl NetSink,
    ) {
        self.ports[port as usize].tx.wake(now);
        self.transmit_next(now, port, events);
    }

    /// Periodic BFC pause-frame opportunity for `ingress`.
    pub fn handle_pause_timer(
        &mut self,
        now: SimTime,
        ingress: u32,
        events: &mut impl NetSink,
    ) {
        let tick = self.policy.pause_frame_tick(ingress);
        if let Some(frame) = tick.frame {
            let port = &self.ports[ingress as usize];
            if let Some((peer, peer_port)) = port.peer {
                let packet = Packet::flow_pause(self.id, peer, frame);
                let arrival = port.link.arrival_time(now, packet.size_bytes);
                self.counters.flow_pause_frames_sent += 1;
                events.trace(
                    now,
                    TraceEvent::FlowPause {
                        node: self.id,
                        port: ingress,
                        bits: frame.popcount(),
                        pause: !frame.is_empty(),
                    },
                );
                events.send(
                    arrival,
                    NetEvent::PacketArrive {
                        node: peer,
                        port: peer_port,
                        packet,
                    },
                );
            }
        }
        if tick.reschedule {
            events.send(
                now + PAUSE_FRAME_INTERVAL,
                NetEvent::PauseFrameTimer {
                    node: self.id,
                    port: ingress,
                },
            );
        } else {
            self.pause_timer_active[ingress as usize] = false;
        }
    }

    /// Takes the egress at `port` down: flushes every queued packet (releasing
    /// shared-buffer space and counting flushed data packets as blackholed),
    /// clears the MAC-level pause state, and re-evaluates PFC for every
    /// ingress whose buffer usage just dropped. Returns the number of data
    /// packets blackholed by the flush.
    pub fn handle_link_down(
        &mut self,
        now: SimTime,
        port: u32,
        events: &mut impl NetSink,
    ) -> u64 {
        let idx = port as usize;
        self.ports[idx].settle(now);
        self.ports[idx].set_up(false, now);
        let flushed = self.ports[idx].flush_all();
        let mut blackholed = 0;
        for (qp, from_queue) in flushed {
            self.buffer.release(qp.packet.size_bytes, qp.ingress);
            if qp.packet.is_data() {
                blackholed += 1;
                events.trace(
                    now,
                    TraceEvent::Blackhole {
                        node: self.id,
                        flow: qp.packet.flow.0,
                        bytes: qp.packet.size_bytes,
                    },
                );
            }
            if from_queue != QueueTarget::Control {
                let ctx = DequeueCtx {
                    ingress: qp.ingress,
                    egress: port,
                    port: &self.ports[idx],
                    queue: from_queue,
                };
                // Tell the policy the packet left the switch so flow state
                // (queue residency, pause bookkeeping) does not leak.
                self.policy.on_dequeue(&ctx, &qp.packet);
            }
        }
        self.counters.blackholed += blackholed;
        // Releasing a burst of buffer can cross PFC resume thresholds.
        for ingress in 0..self.ports.len() {
            self.maybe_send_pfc(now, ingress as u32, events);
        }
        blackholed
    }

    /// Brings the egress at `port` back up and restarts transmission.
    pub fn handle_link_up(&mut self, now: SimTime, port: u32, events: &mut impl NetSink) {
        self.ports[port as usize].settle(now);
        self.ports[port as usize].set_up(true, now);
        self.try_transmit(now, port, events);
    }

    /// Applies a link-rate change (degradation / repair) to the egress at
    /// `port`. A packet already being serialized finishes at the old rate.
    pub fn set_port_rate(&mut self, port: u32, gbps: f64) {
        self.ports[port as usize].set_link_rate(gbps);
    }

    /// Schedules the `TxComplete` that ends the current serialization on
    /// `port` when something could be sent then and none is pending; paused
    /// backlog alone leaves the port owing a sweep instead
    /// (`Port::arm_wake`).
    fn arm_wake(&mut self, port: u32, events: &mut impl NetSink) {
        if let Some(at) = self.ports[port as usize].arm_wake() {
            events.send(
                at,
                NetEvent::TxComplete {
                    node: self.id,
                    port,
                },
            );
        }
    }

    /// Starts transmitting the next packet on `port` if the wire is free;
    /// if it is taken, makes sure the end of the serialization does what it
    /// must for what is queued. Every caller is a packet arrival or a
    /// link-up, both ranked before a `TxComplete` of the same instant, hence
    /// [`crate::port::Transmitter::busy`].
    fn try_transmit(&mut self, now: SimTime, port: u32, events: &mut impl NetSink) {
        if self.ports[port as usize].tx.busy(now) {
            self.arm_wake(port, events);
            return;
        }
        self.transmit_next(now, port, events);
    }

    /// Dequeues and transmits the next packet on `port`, whose wire is free.
    fn transmit_next(&mut self, now: SimTime, port: u32, events: &mut impl NetSink) {
        let idx = port as usize;
        if !self.ports[idx].is_up() || self.ports[idx].is_pfc_paused() {
            return;
        }
        let Some((queued, from_queue)) = self.ports[idx].dequeue_next() else {
            return;
        };
        let mut packet = queued.packet;
        let ingress = queued.ingress;

        let queue = queue_code(from_queue);
        if packet.is_data() {
            events.trace(
                now,
                TraceEvent::Dequeue {
                    node: self.id,
                    port,
                    queue,
                    flow: packet.flow.0,
                    bytes: packet.size_bytes,
                },
            );
        }
        if self.ports[idx].target_is_empty(from_queue) {
            events.trace(
                now,
                TraceEvent::QueueIdle {
                    node: self.id,
                    port,
                    queue,
                },
            );
        }

        self.buffer.release(packet.size_bytes, ingress);
        self.maybe_send_pfc(now, ingress, events);

        if from_queue != QueueTarget::Control {
            let ctx = DequeueCtx {
                ingress,
                egress: port,
                port: &self.ports[idx],
                queue: from_queue,
            };
            self.policy.on_dequeue(&ctx, &packet);
        }

        self.ports[idx].note_transmitted(&packet);
        if self.config.int_enabled && packet.is_data() {
            let p = &self.ports[idx];
            packet.int.push(crate::packet::IntHop {
                qlen_bytes: p.data_queued_bytes(),
                tx_bytes: p.tx_data_bytes(),
                timestamp_ps: now.as_picos(),
                link_gbps: p.link.rate_gbps,
            });
        }

        let p = &mut self.ports[idx];
        let serialization = p.link.serialization(packet.size_bytes);
        let arrival = now + serialization + p.link.propagation;
        let (peer, peer_port) = p.peer.expect("transmitting on a connected port");
        p.tx.start(now, now + serialization);
        // The end of this serialization is an event only if there is
        // something it could send; a packet that queues up or a frame that
        // resumes one later asks for it then (`try_transmit`).
        self.arm_wake(port, events);
        events.send(
            arrival,
            NetEvent::PacketArrive {
                node: peer,
                port: peer_port,
                packet,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ECN_KMAX_BYTES, ECN_KMIN_BYTES};
    use bfc_sim::EventQueue;
    use crate::policy::FifoPolicy;
    use crate::topology::{fat_tree, FatTreeParams};
    use crate::types::FlowId;

    /// Builds the tiny fat tree and returns (topology, routes, the first ToR
    /// switch with a FIFO policy).
    fn tor_under_test(config: SwitchConfig) -> (crate::topology::Topology, RoutingTables, Switch) {
        let topo = fat_tree(FatTreeParams::tiny());
        let routes = RoutingTables::compute(&topo);
        let tor = topo.switches()[0];
        let sw = Switch::new(
            tor,
            config,
            topo.ports(tor),
            Box::new(FifoPolicy::new()),
            1,
        );
        (topo, routes, sw)
    }

    fn data_packet(flow: u32, src: usize, dst: usize, seq: u64) -> Packet {
        Packet::data(
            FlowId(flow),
            NodeId(src as u32),
            NodeId(dst as u32),
            seq,
            1000,
            flow,
            seq == 0,
        )
    }

    #[test]
    fn forwards_toward_destination_host() {
        let (_topo, routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        // Host 0 and host 1 are both on ToR 0 in the tiny topology.
        let pkt = data_packet(1, 0, 1, 0);
        sw.handle_packet(SimTime::ZERO, 0, pkt, &routes, &mut events);
        // The only event is the arrival at host 1, one serialization (80 ns)
        // and one propagation delay out: nothing is queued behind the
        // packet, so the end of its serialization is not an event.
        let (t, e) = events.pop().expect("the packet was forwarded");
        match e {
            NetEvent::PacketArrive { node, packet, .. } => {
                assert_eq!(node, NodeId(1));
                assert!(packet.is_data());
                assert_eq!(t.as_nanos(), 1080);
            }
            other => panic!("expected the arrival at host 1, got {other:?}"),
        }
        assert!(events.is_empty());
        let tx = sw.port(1).tx();
        assert_eq!(tx.busy_until().as_nanos(), 80);
        assert!(!tx.wake_pending());
        assert!(tx.busy(SimTime::from_nanos(80)) && !tx.busy(SimTime::from_nanos(81)));
        assert_eq!(sw.counters().rx_packets, 1);
    }

    #[test]
    fn busy_port_serializes_back_to_back() {
        let (_topo, routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, 0), &routes, &mut events);
        sw.handle_packet(SimTime::ZERO, 2, data_packet(2, 2, 1, 0), &routes, &mut events);
        // Only one TxComplete so far: the port is busy with the first packet.
        let tx_completes = |q: &EventQueue<NetEvent>| q.len();
        assert_eq!(tx_completes(&events), 2, "one TxComplete + one arrival");
        // Drive the TxComplete; the second packet should then be serialized.
        let mut deliveries = 0;
        while let Some((t, e)) = events.pop() {
            match e {
                NetEvent::TxComplete { port, .. } => sw.handle_tx_complete(t, port, &mut events),
                NetEvent::PacketArrive { node, .. } => {
                    assert_eq!(node, NodeId(1));
                    deliveries += 1;
                }
                _ => {}
            }
        }
        assert_eq!(deliveries, 2);
    }

    #[test]
    fn drops_when_buffer_full_without_pfc() {
        let config = SwitchConfig::default()
            .without_pfc()
            .with_buffer_bytes(2_500);
        let (_topo, routes, mut sw) = tor_under_test(config);
        let mut events = EventQueue::new();
        // Host 1's egress can hold at most 2 queued packets (2.5 KB buffer);
        // the first is immediately being transmitted, so of 6 arriving
        // packets some must be dropped.
        for seq in 0..6 {
            sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, seq), &routes, &mut events);
        }
        assert!(sw.counters().drops >= 3, "drops = {}", sw.counters().drops);
    }

    #[test]
    fn pfc_pause_frame_sent_upstream_when_threshold_crossed() {
        let config = SwitchConfig::default().with_buffer_bytes(20_000);
        let (_topo, routes, mut sw) = tor_under_test(config);
        let mut events = EventQueue::new();
        // Flood from ingress 0 (host 0) toward host 1. Free buffer shrinks,
        // so the 11% dynamic threshold will be crossed quickly.
        for seq in 0..10 {
            sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, seq), &routes, &mut events);
        }
        let mut pfc_to_host0 = 0;
        while let Some((_, e)) = events.pop() {
            if let NetEvent::PacketArrive { node, packet, .. } = e {
                if let PacketKind::PfcPause { pause: true } = packet.kind {
                    assert_eq!(node, NodeId(0));
                    pfc_to_host0 += 1;
                }
            }
        }
        assert!(pfc_to_host0 >= 1);
        assert!(sw.counters().pfc_pauses_sent >= 1);
    }

    #[test]
    fn pfc_pause_stops_egress_until_resume() {
        let (_topo, routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        // Pause the egress toward host 1 (port index = host 1's port on ToR 0
        // is its local index 1 in the tiny topology).
        sw.handle_packet(
            SimTime::ZERO,
            1,
            Packet::pfc(NodeId(1), sw.id, true),
            &routes,
            &mut events,
        );
        sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, 0), &routes, &mut events);
        assert!(events.is_empty(), "nothing transmitted while paused");
        // Resume: the queued packet must now flow.
        sw.handle_packet(
            SimTime::from_micros(5),
            1,
            Packet::pfc(NodeId(1), sw.id, false),
            &routes,
            &mut events,
        );
        assert!(!events.is_empty());
        assert!(sw
            .port(1)
            .pfc_paused_time(SimTime::from_micros(5))
            .as_nanos() > 0);
    }

    #[test]
    fn ecn_marks_when_queue_exceeds_threshold() {
        let config = SwitchConfig {
            ecn: true,
            ..SwitchConfig::default()
        };
        let (_topo, routes, mut sw) = tor_under_test(config);
        let mut events = EventQueue::new();
        // A burst toward host 1 whose backlog sweeps from below Kmin to 50
        // MTUs above Kmax: the first packet leaves at once, so packet
        // `seq >= 1` is marked against `seq - 1` queued MTUs.
        let packets = ECN_KMAX_BYTES / 1_000 + 50;
        for seq in 0..packets {
            sw.handle_packet(
                SimTime::ZERO,
                0,
                data_packet(1, 0, 1, seq),
                &routes,
                &mut events,
            );
        }
        let (mut delivered, mut marked) = (0, 0);
        while let Some((t, e)) = events.pop() {
            match e {
                NetEvent::TxComplete { port, .. } => sw.handle_tx_complete(t, port, &mut events),
                NetEvent::PacketArrive { packet, .. } if packet.is_data() => {
                    let queued = packet.seq.saturating_sub(1) * 1_000;
                    if queued <= ECN_KMIN_BYTES {
                        assert!(
                            !packet.ecn_ce,
                            "seq {}: {queued} B is below Kmin",
                            packet.seq
                        );
                    }
                    if queued >= ECN_KMAX_BYTES {
                        assert!(
                            packet.ecn_ce,
                            "seq {}: {queued} B is above Kmax",
                            packet.seq
                        );
                    }
                    delivered += 1;
                    marked += u64::from(packet.ecn_ce);
                }
                _ => {}
            }
        }
        assert_eq!(delivered, packets);
        assert_eq!(sw.counters().ecn_marked, marked);
    }

    #[test]
    fn int_telemetry_appended_on_dequeue() {
        let config = SwitchConfig {
            int_enabled: true,
            ..SwitchConfig::default()
        };
        let (_topo, routes, mut sw) = tor_under_test(config);
        let mut events = EventQueue::new();
        sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, 0), &routes, &mut events);
        let mut found = false;
        while let Some((_, e)) = events.pop() {
            if let NetEvent::PacketArrive { packet, .. } = e {
                if packet.is_data() {
                    assert_eq!(packet.int.len(), 1);
                    assert_eq!(packet.int[0].link_gbps, 100.0);
                    assert_eq!(packet.int[0].tx_bytes, 1000);
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn flow_pause_frame_pauses_matching_queue() {
        let (_topo, routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        // Queue a packet for host 1 then pause its VFID via a bloom frame
        // received from host 1 (the downstream of that egress).
        sw.handle_packet(SimTime::ZERO, 0, data_packet(7, 0, 1, 1), &routes, &mut events);
        // Drain the immediate transmission events for the first packet.
        while events.pop().is_some() {}
        let mut frame = crate::packet::PauseFrame::new(128);
        frame.insert(7);
        sw.handle_packet(
            SimTime::ZERO,
            1,
            Packet::flow_pause(NodeId(1), sw.id, frame),
            &routes,
            &mut events,
        );
        // Add another packet of the same flow: it must stay queued because
        // the head of its queue matches the pause filter.
        sw.handle_packet(SimTime::ZERO, 0, data_packet(7, 0, 1, 2), &routes, &mut events);
        // Nothing could be sent at the end of the first packet's
        // serialization, so that end is not even an event.
        assert!(events.is_empty(), "the paused flow's packet must not be forwarded");
        assert!(!sw.port(1).tx().wake_pending());
        assert_eq!(sw.port(1).queue_bytes(0), 1_000);
        assert!(sw.port(1).is_queue_paused(0));
    }

    #[test]
    fn link_down_flushes_queues_and_counts_blackholed() {
        let (_topo, routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        // Queue several packets toward host 1: the first is serialized
        // immediately, the rest sit in the egress queue.
        for seq in 0..5 {
            sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, seq), &routes, &mut events);
        }
        let occupied_before = sw.buffer().occupancy();
        assert!(occupied_before > 0);
        let egress = 1; // host 1's port on ToR 0 in the tiny topology
        let blackholed = sw.handle_link_down(SimTime::from_nanos(100), egress, &mut events);
        assert_eq!(blackholed, 4, "all queued packets flushed");
        assert_eq!(sw.counters().blackholed, 4);
        assert_eq!(sw.buffer().occupancy(), 0, "buffer space released");
        assert!(!sw.port(egress).is_up());
        // While down, new arrivals for that egress queue but do not transmit.
        sw.handle_packet(SimTime::from_nanos(200), 0, data_packet(1, 0, 1, 9), &routes, &mut events);
        sw.handle_tx_complete(SimTime::from_nanos(200), egress, &mut events);
        while events.pop().is_some() {}
        assert!(sw.port(egress).total_queued_bytes() > 0);
        // Repair restarts transmission.
        sw.handle_link_up(SimTime::from_nanos(300), egress, &mut events);
        assert!(!events.is_empty(), "link up resumes the egress");
    }

    #[test]
    fn unroutable_packet_is_blackholed_not_forwarded() {
        let (topo, _routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        // Recompute routing with host 1's uplink dead: ToR 0 has no route.
        let dead_host = NodeId(1);
        let host_port = topo.port_towards(sw.id, dead_host).expect("adjacent");
        let sw_id = sw.id;
        let routes = RoutingTables::compute_filtered(&topo, |n, p| {
            !(n == sw_id && p == host_port) && !(n == dead_host && p == 0)
        });
        sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, 0), &routes, &mut events);
        assert_eq!(sw.counters().blackholed, 1);
        assert!(events.is_empty(), "nothing scheduled for a blackholed packet");
    }

    #[test]
    fn rate_degradation_slows_serialization() {
        let (_topo, routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        sw.set_port_rate(1, 25.0); // 100 -> 25 Gbps toward host 1
        sw.handle_packet(SimTime::ZERO, 0, data_packet(1, 0, 1, 0), &routes, &mut events);
        // 1000 B at 25 Gbps = 320 ns (was 80 ns at 100 Gbps), then 1 µs of
        // propagation.
        assert_eq!(sw.port(1).tx().busy_until().as_nanos(), 320);
        let (t, e) = events.pop().expect("the packet was forwarded");
        assert!(matches!(e, NetEvent::PacketArrive { .. }));
        assert_eq!(t.as_nanos(), 1320);
    }

    #[test]
    fn control_packets_bypass_the_policy_queue() {
        let (_topo, routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        let ack = Packet::ack(FlowId(1), NodeId(0), NodeId(1), 3, false, Default::default());
        sw.handle_packet(SimTime::ZERO, 0, ack, &routes, &mut events);
        // ACK forwarded without touching the FIFO policy's flow residency.
        assert_eq!(sw.policy_stats().flow_assignments, 0);
        assert!(!events.is_empty());
    }

    #[test]
    fn pause_timer_chain_stops_when_policy_is_idle() {
        let (_topo, _routes, mut sw) = tor_under_test(SwitchConfig::default());
        let mut events = EventQueue::new();
        // FIFO policy never wants pause frames: a stray timer fires once and
        // is not rescheduled.
        sw.handle_pause_timer(SimTime::from_micros(1), 0, &mut events);
        assert!(events.is_empty());
    }
}
