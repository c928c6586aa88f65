//! The host / RDMA NIC model.
//!
//! A [`Host`] plays both roles of the RDMA transport:
//!
//! * **Sender** — flows handed over by the workload driver are packetized and
//!   transmitted in round-robin order over the single uplink, subject to the
//!   configured congestion control (line-rate for BFC, windows and/or rates
//!   for the baselines), per-flow BFC pause frames from the ToR, and PFC.
//!   The congestion control also says what switches do to its data: DCQCN
//!   sends it ECN-capable (`Ect`), so it can be marked, and HPCC gives each
//!   packet an INT header, which every switch appends its record to. A
//!   header's storage is the thread's to recycle ([`IntPath`]): the host
//!   keeps no pool of its own and drops whatever header it is done with.
//!   Each flow's sequence numbers and Go-Back-N reliability are its own
//!   ([`SenderFlow`]); the host does what an ACK, a timer check or the next
//!   packet asks of it.
//! * **Receiver** — in-order data is acknowledged per packet (with HPCC INT
//!   echoed on the ACK), ECN marks are converted to CNPs at most once per
//!   DCQCN's `CNP_INTERVAL`, and a [`bfc_net::NetEvent::FlowCompleted`]
//!   event is emitted when the last byte arrives, which is where the paper
//!   measures flow completion time.
//!
//! ACKs and CNPs are sent with strict priority over data on the uplink, the
//! same treatment switches give them.
//!
//! The uplink is a [`Transmitter`], as a switch egress is: the end of a
//! serialization becomes a `TxComplete` event only when the control queue or
//! the send rotation holds something to look at then — a receiver's lone ACK
//! or a flow's last packet leaves no event behind. Host timers rank after a
//! `TxComplete` of the same instant and every other caller before it, which
//! is the one thing `try_send` needs to be told (see [`Transmitter::busy`]).

use std::collections::VecDeque;

use bfc_net::event::{NetEvent, NetSink, TransportTimer};
use bfc_net::link::Link;
use bfc_net::packet::{Ecn, IntPath, Packet, PacketKind, PauseFrame};
use bfc_net::port::Transmitter;
use bfc_net::types::{FlowId, NodeId};
use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use bfc_sim::{FastHashMap, SimTime};

use crate::config::{default_rto, CcKind, HostConfig};
use crate::dcqcn::{self, DcqcnState};
use crate::flow::{CcState, FlowSpec, ReceiverFlow, SenderAction, SenderFlow};
use crate::hpcc::HpccState;

/// Counters exposed by a host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Data bytes transmitted (including Go-Back-N retransmissions).
    pub tx_data_bytes: u64,
    /// Data bytes received in order (goodput).
    pub rx_data_bytes: u64,
    /// Data packets Go-Back-N rewound (by a NACK or a retransmission
    /// timeout), not packets sent again: a flow rewound twice before
    /// resending counts the packets of both rewinds, and one whose rewound
    /// packets are acknowledged before they go out again counts them too.
    pub retransmitted_packets: u64,
    /// CNPs generated as a receiver.
    pub cnps_sent: u64,
}

bfc_sim::snap_struct! {
    HostCounters {
        tx_data_bytes, rx_data_bytes, retransmitted_packets, cnps_sent,
    }
}

/// An end host with one NIC port.
pub struct Host {
    /// This host's node ID.
    pub id: NodeId,
    config: HostConfig,
    uplink: Link,
    peer: (NodeId, u32),
    line_rate_gbps: f64,

    tx: Transmitter,
    uplink_up: bool,
    pfc_paused: bool,
    pause_frame: Option<PauseFrame>,
    pending_wakeup: Option<SimTime>,

    control_queue: VecDeque<Packet>,
    sending: FastHashMap<FlowId, SenderFlow>,
    send_order: VecDeque<FlowId>,
    receiving: FastHashMap<FlowId, ReceiverFlow>,

    counters: HostCounters,
}

impl Host {
    /// Creates a host attached to `(peer, peer_port)` over `uplink`.
    pub fn new(id: NodeId, uplink: Link, peer: (NodeId, u32), config: HostConfig) -> Self {
        Host {
            id,
            line_rate_gbps: uplink.rate_gbps,
            uplink,
            peer,
            config,
            tx: Transmitter::default(),
            uplink_up: true,
            pfc_paused: false,
            pause_frame: None,
            pending_wakeup: None,
            control_queue: VecDeque::new(),
            sending: FastHashMap::default(),
            send_order: VecDeque::new(),
            receiving: FastHashMap::default(),
            counters: HostCounters::default(),
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> HostCounters {
        self.counters
    }

    /// Flows currently being sent by this host.
    pub fn active_sender_flows(&self) -> usize {
        self.sending.len()
    }

    /// The uplink's transmitter.
    pub fn tx(&self) -> &Transmitter {
        &self.tx
    }

    /// Applies an uplink state change from the dynamics subsystem. Going
    /// down clears MAC-level pause state (it does not survive a link reset);
    /// coming back up restarts transmission. Packets already in flight are
    /// the driver's concern (they are blackholed at delivery time).
    pub fn set_uplink_up(&mut self, now: SimTime, up: bool, events: &mut impl NetSink) {
        self.uplink_up = up;
        if up {
            self.try_send(now, events);
        } else {
            self.pfc_paused = false;
            self.pause_frame = None;
        }
    }

    /// Applies an uplink rate change (degradation / repair). Only the wire
    /// rate changes; congestion-control state keeps its configured line rate,
    /// like a real NIC unaware of a degraded cable.
    pub fn set_uplink_rate(&mut self, gbps: f64) {
        assert!(gbps > 0.0, "link rate must be positive");
        self.uplink.rate_gbps = gbps;
    }

    /// Serializes all mutable host state — transmitter, pause/link flags,
    /// control queue, sender and receiver flow tables, the round-robin
    /// rotation, counters — for snapshot/restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Host {
            // Configuration, but for the uplink's rate.
            id: _,
            config: _,
            uplink,
            peer: _,
            line_rate_gbps: _,
            tx,
            uplink_up,
            pfc_paused,
            pause_frame,
            pending_wakeup,
            control_queue,
            sending,
            send_order,
            receiving,
            counters,
        } = self;
        uplink.rate_gbps.save(w);
        tx.save(w);
        uplink_up.save(w);
        pfc_paused.save(w);
        pause_frame.save(w);
        pending_wakeup.save(w);
        control_queue.save(w);
        sending.save(w);
        // The rotation order itself is semantic: kept verbatim.
        send_order.save(w);
        receiving.save(w);
        counters.save(w);
    }

    /// Overlays state captured by [`Host::save_state`] onto this host, which
    /// was built with the same id, uplink and config: checks the rate is
    /// positive and no flow appears twice in a table, and refills the queue,
    /// the rotation and both tables in the storage they already own.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let rate: f64 = r.get()?;
        if !(rate > 0.0) {
            return Err(SnapError::Corrupt("non-positive uplink rate"));
        }
        self.uplink.rate_gbps = rate;
        self.tx = r.get()?;
        self.uplink_up = r.get()?;
        self.pfc_paused = r.get()?;
        self.pause_frame = r.get()?;
        self.pending_wakeup = r.get()?;
        self.control_queue.clear();
        r.get_seq(|packet| self.control_queue.push_back(packet))?;
        r.get_map(&mut self.sending, "duplicate sender flow")?;
        self.send_order.clear();
        r.get_seq(|flow| self.send_order.push_back(flow))?;
        r.get_map(&mut self.receiving, "duplicate receiver flow")?;
        self.counters = r.get()?;
        Ok(())
    }

    /// Registers a flow this host will receive, so completion can be
    /// detected. Must be called no later than the flow's start.
    pub fn expect_flow(&mut self, spec: FlowSpec) {
        self.receiving.insert(spec.flow, ReceiverFlow::new(spec));
    }

    /// Starts sending a flow. Schedules the congestion-control timers and the
    /// first transmission opportunity.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec, events: &mut impl NetSink) {
        let cc = match self.config.cc {
            CcKind::LineRate => CcState::None,
            CcKind::Dcqcn => CcState::Dcqcn(DcqcnState::new(self.line_rate_gbps)),
            CcKind::Hpcc => CcState::Hpcc(HpccState::new(
                self.line_rate_gbps,
                self.config.base_rtt.as_secs_f64(),
            )),
        };
        debug_assert_eq!(spec.src, self.id, "a flow starts at its source");
        let flow_id = spec.flow;
        let flow = SenderFlow::new(spec, cc, now);
        self.sending.insert(flow_id, flow);
        self.send_order.push_back(flow_id);

        let rto = now + default_rto(self.config.base_rtt);
        self.arm(rto, TransportTimer::Retransmit(flow_id), events);
        if self.config.cc == CcKind::Dcqcn {
            let increase = TransportTimer::RateIncrease(flow_id);
            self.arm(now + dcqcn::RATE_INCREASE_INTERVAL, increase, events);
            let alpha = TransportTimer::AlphaUpdate(flow_id);
            self.arm(now + dcqcn::ALPHA_UPDATE_INTERVAL, alpha, events);
        }
        self.try_send(now, events);
    }

    /// Handles a packet arriving at the NIC.
    pub fn handle_packet(&mut self, now: SimTime, mut packet: Packet, events: &mut impl NetSink) {
        // Match on a borrow of the kind (copying out only the small fields)
        // so no per-packet clone of the kind — which would allocate nothing
        // today but still memcpy the largest variant — is needed.
        match &packet.kind {
            PacketKind::PfcPause { pause } => {
                let pause = *pause;
                self.pfc_paused = pause;
                if !pause {
                    self.try_send(now, events);
                }
            }
            PacketKind::FlowPause { frame } => {
                // An all-zero frame pauses nothing: store it as `None` so
                // `try_send` skips the per-flow bloom lookups.
                self.pause_frame = (!frame.is_empty()).then_some(**frame);
                self.try_send(now, events);
            }
            PacketKind::Data => {
                self.receive_data(now, packet, events);
                self.try_send(now, events);
            }
            PacketKind::Ack { is_nack } => {
                let is_nack = *is_nack;
                if let Some(flow) = self.sending.get_mut(&packet.flow) {
                    // An ACK's `seq` is the receiver's next expected sequence
                    // number.
                    let action = flow.on_ack(packet.seq, is_nack, &mut packet.int);
                    self.apply(packet.flow, action);
                }
                self.try_send(now, events);
            }
            PacketKind::Cnp => {
                if let Some(flow) = self.sending.get_mut(&packet.flow) {
                    if let CcState::Dcqcn(state) = &mut flow.cc {
                        state.on_cnp();
                    }
                }
            }
        }
    }

    /// The uplink finished serializing a packet and was asked to report it
    /// (there was, or there arrived, something more to send).
    pub fn handle_tx_complete(&mut self, now: SimTime, events: &mut impl NetSink) {
        self.tx.wake(now);
        self.send_next(now, events);
    }

    /// A transport timer fired.
    pub fn handle_timer(&mut self, now: SimTime, timer: TransportTimer, events: &mut impl NetSink) {
        match timer {
            TransportTimer::NicWakeup => {
                self.pending_wakeup = None;
                self.try_send_from_timer(now, events);
            }
            TransportTimer::Retransmit(flow_id) => {
                if let Some(flow) = self.sending.get_mut(&flow_id) {
                    let action = flow.on_retransmit_timer();
                    self.apply(flow_id, action);
                    self.arm(now + default_rto(self.config.base_rtt), timer, events);
                    self.try_send_from_timer(now, events);
                }
            }
            TransportTimer::RateIncrease(flow_id) => {
                if let Some(flow) = self.sending.get_mut(&flow_id) {
                    if let CcState::Dcqcn(state) = &mut flow.cc {
                        state.on_rate_increase_timer();
                    }
                    self.arm(now + dcqcn::RATE_INCREASE_INTERVAL, timer, events);
                    self.try_send_from_timer(now, events);
                }
            }
            TransportTimer::AlphaUpdate(flow_id) => {
                if let Some(flow) = self.sending.get_mut(&flow_id) {
                    if let CcState::Dcqcn(state) = &mut flow.cc {
                        state.on_alpha_timer();
                    }
                    self.arm(now + dcqcn::ALPHA_UPDATE_INTERVAL, timer, events);
                }
            }
        }
    }

    /// Schedules one of this host's timers.
    fn arm(&self, at: SimTime, timer: TransportTimer, events: &mut impl NetSink) {
        let node = self.id;
        events.send(at, NetEvent::HostTimer { node, timer });
    }

    fn receive_data(&mut self, now: SimTime, packet: Packet, events: &mut impl NetSink) {
        let Some(rf) = self.receiving.get_mut(&packet.flow) else {
            return;
        };
        let (flow, id, sender) = (packet.flow, self.id, rf.spec.src);
        let ack = |seq, is_nack, int| Packet::ack(flow, id, sender, seq, is_nack, int);
        if packet.seq == rf.expected_seq {
            rf.expected_seq += 1;
            rf.nack_sent_for = None;
            self.counters.rx_data_bytes += packet.size_bytes as u64;

            if packet.ecn == Ecn::Ce {
                let due = rf
                    .last_cnp
                    .map_or(true, |t| now.saturating_since(t) >= dcqcn::CNP_INTERVAL);
                if due {
                    rf.last_cnp = Some(now);
                    self.counters.cnps_sent += 1;
                    self.control_queue
                        .push_back(Packet::cnp(packet.flow, self.id, sender));
                }
            }
            self.control_queue
                .push_back(ack(rf.expected_seq, false, packet.int));
            // A sender never sends `seq >= num_packets`, so this holds
            // exactly once: at the packet that completes the flow.
            if rf.expected_seq == rf.spec.num_packets() {
                events.send(now, NetEvent::FlowCompleted { flow: packet.flow });
            }
        } else if packet.seq > rf.expected_seq {
            // Out of order: ask the sender to go back, once per gap.
            if rf.nack_sent_for != Some(rf.expected_seq) {
                rf.nack_sent_for = Some(rf.expected_seq);
                self.control_queue
                    .push_back(ack(rf.expected_seq, true, IntPath::new()));
            }
        } else {
            // Duplicate of already-delivered data: re-acknowledge.
            self.control_queue
                .push_back(ack(rf.expected_seq, false, IntPath::new()));
        }
    }

    /// Does what a sender flow asked for after an ACK or a timer check.
    fn apply(&mut self, flow_id: FlowId, action: SenderAction) {
        match action {
            SenderAction::Keep => {}
            SenderAction::Rewind(packets) => {
                self.counters.retransmitted_packets += packets;
                if !self.send_order.contains(&flow_id) {
                    self.send_order.push_back(flow_id);
                }
            }
            SenderAction::Retire => {
                self.sending.remove(&flow_id);
            }
        }
    }

    /// Attempts to transmit one packet, on behalf of an event that ranks
    /// before a `TxComplete` of the same instant: a packet arrival, a flow
    /// start, an uplink repair.
    fn try_send(&mut self, now: SimTime, events: &mut impl NetSink) {
        if self.tx.busy(now) {
            self.wake_at_end(events);
        } else {
            self.send_next(now, events);
        }
    }

    /// [`Host::try_send`] on behalf of a host timer, which ranks after a
    /// `TxComplete` of the same instant: a serialization ending exactly now
    /// is over.
    fn try_send_from_timer(&mut self, now: SimTime, events: &mut impl NetSink) {
        if self.tx.busy_past_end(now) {
            self.wake_at_end(events);
        } else {
            self.send_next(now, events);
        }
    }

    /// The uplink is taken: if there is anything [`Host::send_next`] would
    /// look at, make sure the end of the serialization comes back as a
    /// `TxComplete`. A pass over a non-empty send rotation is never a no-op
    /// (it rotates, sheds finished flows, may set the pacing wake-up), so
    /// "something queued" is the test, not "something sendable".
    fn wake_at_end(&mut self, events: &mut impl NetSink) {
        if self.control_queue.is_empty() && self.send_order.is_empty() {
            return;
        }
        if let Some(at) = self.tx.arm_wake() {
            events.send(
                at,
                NetEvent::TxComplete {
                    node: self.id,
                    port: 0,
                },
            );
        }
    }

    /// Transmits one packet (control first, then data round-robin) on the
    /// free uplink.
    fn send_next(&mut self, now: SimTime, events: &mut impl NetSink) {
        if !self.uplink_up || self.pfc_paused {
            return;
        }
        if let Some(pkt) = self.control_queue.pop_front() {
            self.transmit(now, pkt, events);
            return;
        }

        let mut earliest_blocked: Option<SimTime> = None;
        let candidates = self.send_order.len();
        for _ in 0..candidates {
            let Some(flow_id) = self.send_order.pop_front() else {
                break;
            };
            let Some(flow) = self.sending.get_mut(&flow_id) else {
                // Fully acked and removed: drop from the rotation.
                continue;
            };
            if !flow.has_unsent() {
                // Everything transmitted; the flow re-enters the rotation only
                // if a NACK/timeout rewinds it.
                continue;
            }

            let paused = self
                .pause_frame
                .as_ref()
                .is_some_and(|f| f.contains(flow.spec.vfid));
            if paused || !flow.window_open(self.config.window_bytes) {
                // Wait for a pause release or an ACK; both trigger try_send.
                self.send_order.push_back(flow_id);
                continue;
            }
            if now < flow.next_allowed {
                earliest_blocked =
                    Some(earliest_blocked.map_or(flow.next_allowed, |t| t.min(flow.next_allowed)));
                self.send_order.push_back(flow_id);
                continue;
            }

            let packet = flow.next_packet(now);
            if flow.has_unsent() {
                self.send_order.push_back(flow_id);
            }
            self.counters.tx_data_bytes += packet.size_bytes as u64;
            self.transmit(now, packet, events);
            return;
        }

        if let Some(t) = earliest_blocked {
            let need_schedule = self.pending_wakeup.map_or(true, |w| t < w);
            if need_schedule {
                self.pending_wakeup = Some(t);
                self.arm(t, TransportTimer::NicWakeup, events);
            }
        }
    }

    fn transmit(&mut self, now: SimTime, packet: Packet, events: &mut impl NetSink) {
        let serialization = self.uplink.serialization(packet.size_bytes);
        let arrival = now + serialization + self.uplink.propagation;
        self.tx.start(now, now + serialization);
        self.wake_at_end(events);
        events.send(
            arrival,
            NetEvent::PacketArrive {
                node: self.peer.0,
                port: self.peer.1,
                packet,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_sim::{EventQueue, SimDuration};
    const BASE_RTT: SimDuration = SimDuration::from_micros(8);

    fn link() -> Link {
        Link::datacenter_default()
    }

    fn spec(flow: u32, src: u32, dst: u32, size: u64) -> FlowSpec {
        FlowSpec {
            flow: FlowId(flow),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: size,
            vfid: flow,
        }
    }

    fn sender(config: HostConfig) -> Host {
        Host::new(NodeId(0), link(), (NodeId(100), 3), config)
    }

    /// Collects the data packets a host emits when left to run with the given
    /// events (ACKs are not fed back, so window-limited hosts stall).
    fn drain_transmissions(host: &mut Host, events: &mut EventQueue<NetEvent>) -> Vec<Packet> {
        let mut sent = Vec::new();
        while let Some((t, ev)) = events.pop() {
            match ev {
                NetEvent::TxComplete { .. } => host.handle_tx_complete(t, events),
                NetEvent::PacketArrive { packet, .. } => sent.push(packet),
                NetEvent::HostTimer { timer, .. } => {
                    // Stop once only periodic timers remain.
                    if matches!(timer, TransportTimer::NicWakeup) {
                        host.handle_timer(t, timer, events);
                    }
                }
                _ => {}
            }
            if sent.len() > 10_000 {
                break;
            }
        }
        sent
    }

    #[test]
    fn bfc_host_sends_whole_flow_at_line_rate() {
        let mut host = sender(HostConfig::bfc(BASE_RTT));
        let mut events = EventQueue::new();
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 5_000), &mut events);
        let sent = drain_transmissions(&mut host, &mut events);
        let data: Vec<&Packet> = sent.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 5);
        assert!(data[0].first_of_flow);
        assert!(!data[1].first_of_flow);
        assert_eq!(host.counters().tx_data_bytes, 5_000);
    }

    #[test]
    fn window_limited_host_stalls_at_one_bdp() {
        let mut host = sender(HostConfig::window_limited(BASE_RTT, 3_000));
        let mut events = EventQueue::new();
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 50_000), &mut events);
        let sent = drain_transmissions(&mut host, &mut events);
        let data = sent.iter().filter(|p| p.is_data()).count();
        assert_eq!(data, 3, "only one window of packets without ACKs");
    }

    #[test]
    fn acks_open_the_window_and_complete_the_flow() {
        let mut host = sender(HostConfig::window_limited(BASE_RTT, 2_000));
        let mut events = EventQueue::new();
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 6_000), &mut events);
        let mut sent = 0;
        let mut t_now = SimTime::ZERO;
        // Run a loop that immediately acknowledges every data packet.
        while let Some((t, ev)) = events.pop() {
            t_now = t;
            match ev {
                NetEvent::TxComplete { .. } => host.handle_tx_complete(t, &mut events),
                NetEvent::PacketArrive { packet, .. } if packet.is_data() => {
                    sent += 1;
                    let ack = Packet::ack(
                        packet.flow,
                        packet.dst,
                        packet.src,
                        packet.seq + 1,
                        false,
                        Default::default(),
                    );
                    host.handle_packet(t, ack, &mut events);
                }
                NetEvent::HostTimer { timer, .. } => {
                    if matches!(timer, TransportTimer::NicWakeup) {
                        host.handle_timer(t, timer, &mut events);
                    }
                    // Periodic retransmit timers are dropped: the flow is
                    // progressing.
                }
                _ => {}
            }
            if sent == 6 && host.active_sender_flows() == 0 {
                break;
            }
        }
        assert_eq!(sent, 6);
        assert_eq!(
            host.active_sender_flows(),
            0,
            "flow removed once fully acked"
        );
        assert!(t_now > SimTime::ZERO);
    }

    #[test]
    fn uplink_down_blocks_and_repair_restarts() {
        let mut host = sender(HostConfig::bfc(BASE_RTT));
        let mut events = EventQueue::new();
        host.set_uplink_up(SimTime::ZERO, false, &mut events);
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 3_000), &mut events);
        // Only the retransmit timer is scheduled while the cable is dead.
        assert_eq!(events.total_scheduled(), 1, "down NIC transmits nothing");
        host.set_uplink_up(SimTime::from_micros(5), true, &mut events);
        assert!(events.total_scheduled() > 1, "repair restarts transmission");
    }

    #[test]
    fn uplink_degradation_stretches_serialization() {
        let mut host = sender(HostConfig::bfc(BASE_RTT));
        host.set_uplink_rate(10.0);
        let mut events = EventQueue::new();
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 1_000), &mut events);
        // 1000 B at 10 Gbps = 800 ns (100 Gbps would be 80 ns). The flow's
        // only packet leaves nothing to send, so the end of its
        // serialization is not an event: the packet's arrival, one
        // propagation delay later, is.
        assert_eq!(host.tx().busy_until().as_nanos(), 800);
        assert!(!host.tx().wake_pending());
        let (t, ev) = events.pop().expect("the packet was sent");
        assert!(matches!(ev, NetEvent::PacketArrive { .. }));
        assert_eq!(t.as_nanos(), 1_800);
    }

    #[test]
    fn the_serialization_end_is_busy_to_an_arrival_and_free_to_a_timer() {
        let end = SimTime::from_nanos(80);
        let one_packet_sent = || {
            let mut host = sender(HostConfig::bfc(BASE_RTT));
            let mut events = EventQueue::new();
            host.start_flow(SimTime::ZERO, spec(1, 0, 1, 1_000), &mut events);
            assert_eq!(host.tx().busy_until(), end);
            while events.pop().is_some() {}
            (host, events)
        };
        let nack = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 0, true, Default::default());

        // A NACK arriving at exactly 80 ns rewinds the flow, but an arrival
        // ranks before the `TxComplete` of its instant: the uplink still
        // counts as taken, so the resend waits for that event — at 80 ns.
        let (mut host, mut events) = one_packet_sent();
        host.handle_packet(end, nack.clone(), &mut events);
        assert!(host.tx().wake_pending());
        let (t, ev) = events.pop().expect("the wake was scheduled");
        assert!(matches!(ev, NetEvent::TxComplete { .. }));
        assert_eq!(t, end);
        host.handle_tx_complete(t, &mut events);
        assert_eq!(host.tx().busy_until().as_nanos(), 160);

        // The retransmission timer firing at exactly 80 ns ranks after it:
        // the serialization is over, and the timer's own rewind goes out at
        // once, with no event in between.
        let (mut host, mut events) = one_packet_sent();
        host.handle_timer(end, TransportTimer::Retransmit(FlowId(1)), &mut events);
        assert_eq!(host.tx().busy_until().as_nanos(), 160);
        assert!(!host.tx().wake_pending());
        assert!(std::iter::from_fn(|| events.pop())
            .all(|(_, ev)| !matches!(ev, NetEvent::TxComplete { .. })));
    }

    #[test]
    fn pfc_pause_blocks_and_resume_restarts() {
        let mut host = sender(HostConfig::bfc(BASE_RTT));
        let mut events = EventQueue::new();
        host.handle_packet(
            SimTime::ZERO,
            Packet::pfc(NodeId(100), NodeId(0), true),
            &mut events,
        );
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 3_000), &mut events);
        let transmissions = |q: &EventQueue<NetEvent>| {
            // Only timer events may be pending while paused; transmissions
            // would show up as TxComplete entries.
            q.total_scheduled()
        };
        let before = transmissions(&events);
        // Nothing but the retransmit timer was scheduled.
        assert_eq!(before, 1, "paused NIC transmits nothing");
        host.handle_packet(
            SimTime::from_micros(3),
            Packet::pfc(NodeId(100), NodeId(0), false),
            &mut events,
        );
        assert!(
            events.total_scheduled() > before,
            "resume restarts transmission"
        );
    }

    #[test]
    fn bfc_pause_frame_pauses_only_named_flows() {
        let mut host = sender(HostConfig::bfc(BASE_RTT));
        let mut events = EventQueue::new();
        let mut frame = PauseFrame::new(128);
        frame.insert(1); // pause flow 1 (vfid == flow id in these tests)
        host.handle_packet(
            SimTime::ZERO,
            Packet::flow_pause(NodeId(100), NodeId(0), frame),
            &mut events,
        );
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 3_000), &mut events);
        host.start_flow(SimTime::ZERO, spec(2, 0, 1, 3_000), &mut events);
        let sent = drain_transmissions(&mut host, &mut events);
        let flows: Vec<u32> = sent
            .iter()
            .filter(|p| p.is_data())
            .map(|p| p.flow.0)
            .collect();
        assert!(!flows.is_empty());
        assert!(
            flows.iter().all(|&f| f == 2),
            "only the unpaused flow sends"
        );
        // Clearing the pause releases flow 1.
        host.handle_packet(
            SimTime::from_micros(10),
            Packet::flow_pause(NodeId(100), NodeId(0), PauseFrame::new(128)),
            &mut events,
        );
        let sent = drain_transmissions(&mut host, &mut events);
        assert!(sent.iter().any(|p| p.is_data() && p.flow.0 == 1));
    }

    #[test]
    fn receiver_acks_in_order_data_and_reports_completion() {
        let mut rx = Host::new(
            NodeId(5),
            link(),
            (NodeId(100), 0),
            HostConfig::bfc(BASE_RTT),
        );
        let mut events = EventQueue::new();
        rx.expect_flow(spec(9, 0, 5, 2_500));
        for seq in 0..3u64 {
            let size = if seq == 2 { 500 } else { 1000 };
            let pkt = Packet::data(FlowId(9), NodeId(0), NodeId(5), seq, size, 9, seq == 0);
            rx.handle_packet(SimTime::from_micros(seq), pkt, &mut events);
        }
        // A duplicate of delivered data after completion is re-acknowledged
        // but does not complete the flow again.
        let dup = Packet::data(FlowId(9), NodeId(0), NodeId(5), 2, 500, 9, false);
        rx.handle_packet(SimTime::from_micros(3), dup, &mut events);
        let mut completions = 0;
        let mut acks = 0;
        while let Some((t, ev)) = events.pop() {
            match ev {
                NetEvent::FlowCompleted { flow } => {
                    assert_eq!(flow, FlowId(9));
                    completions += 1;
                }
                NetEvent::PacketArrive { packet, .. } => {
                    if matches!(packet.kind, PacketKind::Ack { .. }) {
                        acks += 1;
                    }
                }
                NetEvent::TxComplete { .. } => rx.handle_tx_complete(t, &mut events),
                _ => {}
            }
        }
        assert_eq!(completions, 1);
        assert!(acks >= 1);
        assert_eq!(rx.counters().rx_data_bytes, 2_500);
    }

    #[test]
    fn out_of_order_data_triggers_single_nack_and_gbn_rewind() {
        let mut rx = Host::new(
            NodeId(5),
            link(),
            (NodeId(100), 0),
            HostConfig::bfc(BASE_RTT),
        );
        let mut events = EventQueue::new();
        rx.expect_flow(spec(9, 0, 5, 10_000));
        // Deliver packet 0, then skip to 3, 4 (2 lost).
        for seq in [0u64, 3, 4] {
            let pkt = Packet::data(FlowId(9), NodeId(0), NodeId(5), seq, 1000, 9, seq == 0);
            rx.handle_packet(SimTime::from_micros(seq), pkt, &mut events);
        }
        let mut nacks = 0;
        while let Some((t, ev)) = events.pop() {
            match ev {
                NetEvent::PacketArrive { packet, .. }
                    if packet.kind == (PacketKind::Ack { is_nack: true }) =>
                {
                    assert_eq!(packet.seq, 1);
                    nacks += 1;
                }
                NetEvent::TxComplete { .. } => rx.handle_tx_complete(t, &mut events),
                _ => {}
            }
        }
        assert_eq!(
            nacks, 1,
            "duplicate out-of-order packets must not spam NACKs"
        );

        // Sender side: a NACK rewinds next_seq.
        let mut tx = sender(HostConfig::bfc(BASE_RTT));
        let mut ev2 = EventQueue::new();
        tx.start_flow(SimTime::ZERO, spec(9, 0, 5, 10_000), &mut ev2);
        let _ = drain_transmissions(&mut tx, &mut ev2);
        let nack = Packet::ack(FlowId(9), NodeId(5), NodeId(0), 1, true, Default::default());
        tx.handle_packet(SimTime::from_micros(50), nack, &mut ev2);
        let resent = drain_transmissions(&mut tx, &mut ev2);
        let seqs: Vec<u64> = resent
            .iter()
            .filter(|p| p.is_data())
            .map(|p| p.seq)
            .collect();
        assert_eq!(
            seqs.first(),
            Some(&1),
            "Go-Back-N resumes from the NACKed seq"
        );
        assert!(tx.counters().retransmitted_packets > 0);
    }

    #[test]
    fn retransmission_timeout_rewinds_without_acks() {
        let mut host = sender(HostConfig::bfc(BASE_RTT));
        let mut events = EventQueue::new();
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 2_000), &mut events);
        let first = drain_transmissions(&mut host, &mut events);
        assert_eq!(first.iter().filter(|p| p.is_data()).count(), 2);
        // Fire the retransmit timer twice with no ACK progress: the first
        // firing already finds the flow stalled and rewinds it, and the
        // second, with the packet re-sent since then still unacknowledged,
        // rewinds again.
        let rto = default_rto(BASE_RTT);
        host.handle_timer(
            SimTime::ZERO + rto,
            TransportTimer::Retransmit(FlowId(1)),
            &mut events,
        );
        host.handle_timer(
            SimTime::ZERO + rto * 2,
            TransportTimer::Retransmit(FlowId(1)),
            &mut events,
        );
        let resent = drain_transmissions(&mut host, &mut events);
        assert!(
            resent.iter().filter(|p| p.is_data()).count() >= 2,
            "timeout should retransmit the window"
        );
    }

    #[test]
    fn dcqcn_cnp_slows_the_sender_down() {
        let mut host = sender(HostConfig::dcqcn(BASE_RTT, None));
        let mut events = EventQueue::new();
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 200_000), &mut events);
        // Let a few packets go out, then deliver a CNP and compare pacing.
        let mut data_times: Vec<SimTime> = Vec::new();
        let mut cnp_sent = false;
        while let Some((t, ev)) = events.pop() {
            match ev {
                NetEvent::TxComplete { .. } => host.handle_tx_complete(t, &mut events),
                NetEvent::PacketArrive { packet, .. } if packet.is_data() => {
                    data_times.push(t);
                    if data_times.len() == 10 && !cnp_sent {
                        cnp_sent = true;
                        host.handle_packet(
                            t,
                            Packet::cnp(FlowId(1), NodeId(1), NodeId(0)),
                            &mut events,
                        );
                    }
                    if data_times.len() >= 30 {
                        break;
                    }
                }
                NetEvent::HostTimer { timer, .. } => host.handle_timer(t, timer, &mut events),
                _ => {}
            }
        }
        assert!(data_times.len() >= 30);
        let before = data_times[9].saturating_since(data_times[5]).as_nanos() as f64 / 4.0;
        let after = data_times[29].saturating_since(data_times[25]).as_nanos() as f64 / 4.0;
        assert!(
            after > before * 1.5,
            "inter-packet gap should grow after a CNP: before {before} ns, after {after} ns"
        );
    }

    #[test]
    fn receiver_generates_cnp_for_marked_packets_with_pacing() {
        let mut rx = Host::new(
            NodeId(5),
            link(),
            (NodeId(100), 0),
            HostConfig::dcqcn(BASE_RTT, None),
        );
        let mut events = EventQueue::new();
        rx.expect_flow(spec(9, 0, 5, 1_000_000));
        // 100 marked packets arriving 1 us apart: CNPs are paced to one per
        // 50 us, so only ~3 are generated.
        for seq in 0..100u64 {
            let mut pkt = Packet::data(FlowId(9), NodeId(0), NodeId(5), seq, 1000, 9, seq == 0);
            pkt.ecn = Ecn::Ce;
            rx.handle_packet(SimTime::from_micros(seq), pkt, &mut events);
        }
        assert!(rx.counters().cnps_sent >= 2);
        assert!(rx.counters().cnps_sent <= 3, "CNPs must be paced");
    }

    #[test]
    fn data_carries_what_the_congestion_control_reads() {
        let first_data = |config| {
            let mut host = sender(config);
            let mut events = EventQueue::new();
            host.start_flow(SimTime::ZERO, spec(1, 0, 1, 10_000), &mut events);
            let sent = drain_transmissions(&mut host, &mut events);
            let data = sent.into_iter().find(|p| p.is_data()).expect("data sent");
            (data.ecn, data.int.has_header())
        };
        assert_eq!(first_data(HostConfig::bfc(BASE_RTT)), (Ecn::NotEct, false));
        let window = HostConfig::window_limited(BASE_RTT, 100_000);
        assert_eq!(first_data(window), (Ecn::NotEct, false));
        let dcqcn = HostConfig::dcqcn(BASE_RTT, None);
        assert_eq!(first_data(dcqcn), (Ecn::Ect, false));
        assert_eq!(first_data(HostConfig::hpcc(BASE_RTT)), (Ecn::NotEct, true));
    }

    #[test]
    fn hpcc_host_paces_by_window_from_int() {
        let mut host = sender(HostConfig::hpcc(BASE_RTT));
        let mut events = EventQueue::new();
        host.start_flow(SimTime::ZERO, spec(1, 0, 1, 1_000_000), &mut events);
        // Without ACKs the HPCC host can send at most one BDP (100 KB).
        let sent = drain_transmissions(&mut host, &mut events);
        let data = sent.iter().filter(|p| p.is_data()).count();
        assert!(
            data <= 101,
            "HPCC must respect its initial window, sent {data}"
        );
        assert!(data >= 90);
    }
}
