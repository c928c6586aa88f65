//! `bfc-testkit` properties for `bfc-net`: the egress scheduler against a
//! reference that re-derives pause state from the frame on every look, the
//! FIFO and SFQ policies' counters against the per-queue resident maps they
//! once kept, shared-buffer accounting and PFC threshold invariants under
//! randomized admit/release sequences, and a switch that ECN-marks, records
//! INT and sends PFC only where the packet or its buffer asks.
//!
//! On failure the runner prints the per-case seed; rerun exactly that case
//! with `BFC_TESTKIT_SEED=<seed> cargo test <property_name>`.

use std::collections::{BTreeMap, VecDeque};

use backpressure_flow_control::experiments::Scheme;
use backpressure_flow_control::net::buffer::SharedBuffer;
use backpressure_flow_control::net::buffer::{pfc_pause_threshold, PFC_RESUME_FRACTION};
use backpressure_flow_control::net::event::NetSink;
use backpressure_flow_control::net::packet::{
    Ecn, IntHop, IntPath, Packet, PacketKind, PauseFrame, MTU,
};
use backpressure_flow_control::net::policy::{
    FifoPolicy, PolicyStats, QueueTarget, SfqPolicy, SwitchPolicy,
};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::{
    Link, NetEvent, Port, RoutingTables, Switch, SwitchConfig, TraceEvent,
};
use backpressure_flow_control::sim::snapshot::{SnapReader, SnapWriter};
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimTime};
use bfc_testkit::{int_range, pair, property, triple, vec_of};

const NUM_PORTS: usize = 4;

/// One randomized step: which ingress, how many bytes, and whether to admit
/// (0, 1) or release the oldest admitted packet (2).
type Op = (u64, u64, u64);

fn op_gen() -> impl bfc_testkit::Gen<Value = Vec<Op>> {
    vec_of(
        triple(
            int_range(0u64..NUM_PORTS as u64),
            int_range(64u64..3_000),
            int_range(0u64..3),
        ),
        1..400,
    )
}

/// The queue counts of the scheduler property: a few queues that every
/// flow shares, and Ideal-FQ's 1 000, of which a run backlogs a scattered
/// 64 — each queue's entry taken when it fills and given back when it
/// drains or is flushed, so entries come and go through reused slots.
const PORT_QUEUES: [usize; 2] = [4, 1_000];
/// The VFID universe of the scheduler property: few enough that a random
/// pause frame pauses a good share of the heads.
const VFIDS: [u32; 6] = [3, 17, 101, 4_242, 9_001, 16_000];

fn test_port(queues: usize) -> Port {
    Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), queues)
}

/// The egress scheduler written the slow, obviously-right way: strict
/// priority, then deficit round robin over the backlogged queues, asking the
/// pause frame about a queue's head (`PauseFrame::contains`, i.e. re-hashing
/// the VFID) every time the scheduler looks at it. `Port` must dequeue in
/// exactly this order while answering the same question from a cached flag.
struct ReferenceScheduler {
    control: VecDeque<(u64, u32, u32)>,
    high_priority: VecDeque<(u64, u32, u32)>,
    /// Physical queues, then the overflow queue at index `queues`; entries
    /// are `(packet id, vfid, size)`.
    drr: Vec<VecDeque<(u64, u32, u32)>>,
    queues: usize,
    deficit: Vec<u64>,
    active: VecDeque<usize>,
    credited: bool,
    frame: Option<PauseFrame>,
}

impl ReferenceScheduler {
    fn new(queues: usize) -> Self {
        ReferenceScheduler {
            control: VecDeque::new(),
            high_priority: VecDeque::new(),
            drr: vec![VecDeque::new(); queues + 1],
            queues,
            deficit: vec![0; queues + 1],
            active: VecDeque::new(),
            credited: false,
            frame: None,
        }
    }

    fn enqueue(&mut self, target: QueueTarget, pkt: (u64, u32, u32)) {
        let i = match target {
            QueueTarget::Control => return self.control.push_back(pkt),
            QueueTarget::HighPriority => return self.high_priority.push_back(pkt),
            QueueTarget::Overflow => self.queues,
            QueueTarget::Phys(i) => i,
        };
        self.drr[i].push_back(pkt);
        if !self.active.contains(&i) {
            self.active.push_back(i);
        }
    }

    fn paused(&self, i: usize) -> bool {
        i != self.queues
            && match (&self.frame, self.drr[i].front()) {
                (Some(frame), Some(&(_, vfid, _))) => frame.contains(vfid),
                _ => false,
            }
    }

    fn rotate(&mut self) {
        if let Some(i) = self.active.pop_front() {
            self.active.push_back(i);
        }
        self.credited = false;
    }

    fn deactivate_front(&mut self, i: usize) {
        self.deficit[i] = 0;
        self.active.pop_front();
        self.credited = false;
    }

    fn dequeue(&mut self) -> Option<(u64, QueueTarget)> {
        if let Some((id, _, _)) = self.control.pop_front() {
            return Some((id, QueueTarget::Control));
        }
        if let Some((id, _, _)) = self.high_priority.pop_front() {
            return Some((id, QueueTarget::HighPriority));
        }
        let mut scanned = 0;
        let limit = 2 * self.active.len() + 1;
        while scanned < limit {
            let &i = self.active.front()?;
            if self.drr[i].is_empty() {
                self.deactivate_front(i);
                continue;
            }
            if self.paused(i) {
                self.deficit[i] = 0;
                self.rotate();
                scanned += 1;
                continue;
            }
            if !self.credited {
                self.deficit[i] += MTU as u64;
                self.credited = true;
            }
            let size = self.drr[i].front().expect("non-empty").2 as u64;
            if self.deficit[i] >= size {
                let (id, _, _) = self.drr[i].pop_front().expect("non-empty");
                self.deficit[i] -= size;
                if self.drr[i].is_empty() {
                    self.deactivate_front(i);
                } else if self.paused(i) {
                    self.rotate();
                }
                let target = if i == self.queues {
                    QueueTarget::Overflow
                } else {
                    QueueTarget::Phys(i)
                };
                return Some((id, target));
            }
            self.rotate();
            scanned += 1;
        }
        None
    }

    /// Everything queued, in `Port::flush_all` order; resets the scheduler.
    fn flush(&mut self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.control.drain(..).map(|p| p.0).collect();
        ids.extend(self.high_priority.drain(..).map(|p| p.0));
        ids.extend(self.drr[self.queues].drain(..).map(|p| p.0));
        for q in &mut self.drr[..self.queues] {
            ids.extend(q.drain(..).map(|p| p.0));
        }
        self.active.clear();
        self.deficit.fill(0);
        self.credited = false;
        ids
    }
}

/// What a switch under test emits: its follow-up events, and the queue each
/// data packet joined or left. A flush leaves no such trace; the harness
/// knows when it took a link down.
struct Harness {
    events: EventQueue<NetEvent>,
    moves: Vec<TraceEvent>,
}

impl NetSink for Harness {
    fn send(&mut self, time: SimTime, event: NetEvent) {
        self.events.send(time, event);
    }

    fn trace(&mut self, _at: SimTime, event: TraceEvent) {
        if matches!(
            event,
            TraceEvent::Enqueue { .. } | TraceEvent::Dequeue { .. }
        ) {
            self.moves.push(event);
        }
    }
}

/// The residency the FIFO and SFQ policies kept before they read a queue's
/// occupancy from its port: per (egress, queue), the flows with packets
/// there and how many. A flow's first packet in a queue is an assignment,
/// and a collision if another flow is resident.
struct ResidentMaps {
    resident: Vec<Vec<BTreeMap<u32, usize>>>,
    stats: PolicyStats,
}

impl ResidentMaps {
    fn enter(&mut self, port: u32, queue: usize, flow: u32) {
        let residents = &mut self.resident[port as usize][queue];
        if !residents.contains_key(&flow) {
            self.stats.flow_assignments += 1;
            self.stats.collisions += u64::from(!residents.is_empty());
        }
        *residents.entry(flow).or_insert(0) += 1;
    }

    fn leave(&mut self, port: u32, queue: usize, flow: u32) {
        let residents = &mut self.resident[port as usize][queue];
        let count = residents
            .get_mut(&flow)
            .expect("a packet leaves a queue it joined");
        *count -= 1;
        if *count == 0 {
            residents.remove(&flow);
        }
    }

    fn flush(&mut self, port: u32) {
        self.resident[port as usize]
            .iter_mut()
            .for_each(BTreeMap::clear);
    }
}

property! {
    /// A `Switch` under the FIFO or the SFQ policy counts exactly the flow
    /// assignments and collisions of the per-(egress, queue) resident maps
    /// those policies kept before they read occupancy from the port, after
    /// every step of a run of arrivals (some dropped by a small shared
    /// buffer), transmissions, link-down flushes, link-ups and switch
    /// snapshot/restore round trips; and every packet joins queue 0 under
    /// FIFO and the queue its VFID hashes to under SFQ.
    fn fifo_and_sfq_count_what_the_resident_maps_counted(
        setup in triple(int_range(0u64..2), int_range(1u64..6), int_range(4u64..200)),
        flows in vec_of(pair(int_range(0u64..8), int_range(0u64..6)), 1..10),
        ops in vec_of(pair(int_range(0u64..10), int_range(0u64..1_000_000)), 1..300),
    ) {
        let (sfq, queues) = (setup.0 == 1, setup.1 as usize);
        let config = SwitchConfig {
            queues_per_port: queues,
            buffer_bytes: setup.2 * 1_000,
        };
        // The first ToR of the tiny fat tree: four host ports, two uplinks.
        let topo = fat_tree(FatTreeParams::tiny());
        let routes = RoutingTables::compute(&topo);
        let tor = topo.switches()[0];
        let ports = topo.ports(tor).len();
        let build = || {
            let policy: Box<dyn SwitchPolicy> = if sfq {
                Box::new(SfqPolicy::new())
            } else {
                Box::new(FifoPolicy::new())
            };
            Switch::new(tor, config.clone(), topo.ports(tor), policy, 1)
        };
        let mut sw = build();
        let mut h = Harness { events: EventQueue::new(), moves: Vec::new() };
        let mut model = ResidentMaps {
            resident: vec![vec![BTreeMap::new(); queues]; ports],
            stats: PolicyStats::default(),
        };
        let mut now = SimTime::ZERO;
        let mut up = vec![true; ports];
        // Delivers the next event, dispatching those addressed to the switch.
        let step = |sw: &mut Switch, h: &mut Harness, now: &mut SimTime| {
            let Some((at, event)) = h.events.pop() else {
                return false;
            };
            *now = at;
            match event {
                NetEvent::PacketArrive { node, port, packet } if node == tor => {
                    sw.handle_packet(at, port, packet, &routes, h)
                }
                NetEvent::TxComplete { node, port } if node == tor => {
                    sw.handle_tx_complete(at, port, h)
                }
                _ => {} // bound for a neighbour
            }
            true
        };
        let check = |h: &mut Harness, model: &mut ResidentMaps, sw: &Switch| {
            for event in h.moves.drain(..) {
                match event {
                    TraceEvent::Enqueue { port, queue, flow, .. } => {
                        let vfid = flows[flow as usize].1 as u32;
                        let expected = if sfq { SfqPolicy::queue_for(vfid, queues) } else { 0 };
                        assert_eq!(queue as usize, expected, "flow {flow} joined another queue");
                        model.enter(port.into(), queue.into(), flow);
                    }
                    TraceEvent::Dequeue { port, queue, flow, .. } => {
                        model.leave(port.into(), queue.into(), flow);
                    }
                    _ => unreachable!("the harness keeps only queue moves"),
                }
            }
            assert_eq!(sw.policy_stats(), model.stats);
        };
        for (seq, &(kind, arg)) in ops.iter().enumerate() {
            match kind {
                0..=3 => {
                    // A packet of one of the flows arrives a little later
                    // on some port.
                    let flow = arg as usize % flows.len();
                    let (dst, vfid) = flows[flow];
                    let size = 64 + (arg / 16) as u32 % (MTU - 63);
                    let packet = Packet::data(
                        FlowId(flow as u32),
                        NodeId(0),
                        NodeId(dst as u32),
                        seq as u64,
                        size,
                        vfid as u32,
                        false,
                    );
                    let port = (arg / 8 % ports as u64) as u32;
                    let at = now + SimDuration::from_nanos(arg % 100);
                    h.send(at, NetEvent::PacketArrive { node: tor, port, packet });
                }
                4..=7 => {
                    step(&mut sw, &mut h, &mut now);
                }
                8 => {
                    let port = arg as usize % ports;
                    if up[port] {
                        sw.handle_link_down(now, port as u32, &mut h);
                        model.flush(port as u32);
                    } else {
                        sw.handle_link_up(now, port as u32, &mut h);
                    }
                    up[port] = !up[port];
                }
                _ => {
                    let mut w = SnapWriter::new();
                    sw.save_state(&mut w);
                    let bytes = w.into_bytes();
                    sw = build();
                    let mut r = SnapReader::new(&bytes);
                    sw.restore_state(&mut r).expect("own snapshot restores");
                    r.expect_end().expect("snapshot fully consumed");
                }
            }
            check(&mut h, &mut model, &sw);
        }
        while step(&mut sw, &mut h, &mut now) {
            check(&mut h, &mut model, &sw);
        }
    }

    /// `Port`'s O(1) pause checks (a per-queue flag refreshed on head changes
    /// and frame installs) schedule exactly like a scheduler that re-hashes
    /// every head against the frame on every look — across enqueues to every
    /// queue class, dequeues, pause-frame installs (none, all-zero, every
    /// VFID, random subsets), link-down flushes and snapshot/restore round
    /// trips — and its O(1) readers (`active_queue_count`,
    /// `occupied_queue_count`, `data_queued_bytes`, `has_backlog`,
    /// `has_eligible`) and `max_queue_bytes` agree with the model after
    /// every step, on a 4-queue port and on a 1 000-queue one. The model
    /// keeps the literal 2n+1-visit loop, so the port's closed-form
    /// all-paused pick, and the rotation and deficits it leaves behind, are
    /// checked by every later dequeue.
    fn port_dequeue_order_matches_rehashing_scheduler(ops in vec_of(
        triple(int_range(0u64..12), int_range(0u64..64), int_range(0u64..1_000)),
        1..300,
    )) {
        let dequeue_both = |port: &mut Port, model: &mut ReferenceScheduler| {
            let got = port.dequeue_next().map(|(qp, target)| {
                // BFC's safety property, in release builds too: nothing
                // leaves a physical queue the installed frame pauses.
                if let (QueueTarget::Phys(_), Some(frame)) = (target, port.pause_frame()) {
                    assert!(!frame.contains(qp.packet.vfid), "transmitted from a paused queue");
                }
                (qp.packet.seq, target)
            });
            assert_eq!(got, model.dequeue(), "dequeue order diverged");
            got.is_some()
        };
        // Each op list runs on both ports. 997 is 1 mod 4, so the 4-queue
        // port sees queue a mod 4; the 1 000-queue one, 64 scattered queues.
        for queues in PORT_QUEUES {
            let mut port = test_port(queues);
            let mut model = ReferenceScheduler::new(queues);
            let mut next_id = 0u64;
            for &(kind, a, b) in &ops {
                match kind {
                    0..=4 => {
                        let target = match (kind, a % 3) {
                            (0..=3, _) => QueueTarget::Phys(a as usize * 997 % queues),
                            (_, 0) => QueueTarget::Overflow,
                            (_, 1) => QueueTarget::HighPriority,
                            _ => QueueTarget::Control,
                        };
                        let vfid = VFIDS[b as usize % VFIDS.len()];
                        let size = 100 + (b as u32 * 37) % 1_400;
                        let pkt = Packet::data(FlowId(vfid), NodeId(0), NodeId(1), next_id, size, vfid, false);
                        port.enqueue(target, pkt, 0);
                        model.enqueue(target, (next_id, vfid, size));
                        next_id += 1;
                    }
                    5..=8 => {
                        dequeue_both(&mut port, &mut model);
                    }
                    9 | 10 => {
                        let frame = match a % 5 {
                            0 => None,
                            1 => Some(PauseFrame::new(128)),
                            // Every VFID: the picks that follow find nothing
                            // eligible unless the overflow queue, control or
                            // high priority holds a packet.
                            2 => {
                                let mut f = PauseFrame::new(16);
                                VFIDS.iter().for_each(|&vfid| f.insert(vfid));
                                Some(f)
                            }
                            _ => {
                                let mut f = PauseFrame::new(16);
                                for (bit, &vfid) in VFIDS.iter().enumerate() {
                                    if b >> bit & 1 == 1 {
                                        f.insert(vfid);
                                    }
                                }
                                Some(f)
                            }
                        };
                        port.set_pause_frame(frame);
                        model.frame = frame;
                    }
                    _ if a % 4 == 0 => {
                        let flushed: Vec<u64> =
                            port.flush_all().iter().map(|(qp, _)| qp.packet.seq).collect();
                        assert_eq!(flushed, model.flush());
                    }
                    _ => {
                        let mut w = SnapWriter::new();
                        port.save_state(&mut w);
                        let bytes = w.into_bytes();
                        port = test_port(queues);
                        let mut r = SnapReader::new(&bytes);
                        port.restore_state(&mut r).expect("own snapshot restores");
                        r.expect_end().expect("snapshot fully consumed");
                    }
                }
                let paused_heads = (0..queues).filter(|&i| model.paused(i)).count();
                let backlogged = (0..queues).filter(|&i| !model.drr[i].is_empty()).count();
                assert_eq!(
                    port.active_queue_count(),
                    backlogged - paused_heads
                        + usize::from(!model.high_priority.is_empty())
                        + usize::from(!model.drr[queues].is_empty()),
                );
                assert_eq!(port.occupied_queue_count(), backlogged);
                let queue_bytes = |q: &VecDeque<(u64, u32, u32)>| {
                    q.iter().map(|&(_, _, size)| u64::from(size)).sum::<u64>()
                };
                assert_eq!(
                    port.max_queue_bytes(),
                    model.drr[..queues].iter().map(queue_bytes).max().unwrap_or(0),
                );
                let data_plane = model.drr.iter().chain([&model.high_priority]);
                assert_eq!(
                    port.data_queued_bytes(),
                    data_plane.flatten().map(|&(_, _, size)| u64::from(size)).sum::<u64>(),
                );
                let priority = !model.control.is_empty() || !model.high_priority.is_empty();
                assert_eq!(port.has_backlog(), priority || !model.active.is_empty());
                assert_eq!(
                    port.has_eligible(),
                    priority || model.active.iter().any(|&i| !model.paused(i)),
                    "could-transmit-now disagrees with the model",
                );
            }
            // Drain whatever the final frame lets through.
            while dequeue_both(&mut port, &mut model) {}
        }
    }

    /// Shared-buffer accounting never goes negative, never exceeds the
    /// capacity, and the per-ingress occupancies always sum to the switch
    /// total (the buffer is fully attributed to ingress ports).
    fn shared_buffer_accounting_is_exact(ops in op_gen()) {
        let capacity = 64_000u64;
        let mut buffer = SharedBuffer::new(capacity, NUM_PORTS);
        // Model: the admitted packets still held, per ingress, FIFO.
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); NUM_PORTS];

        for &(ingress, bytes, action) in &ops {
            let (ingress, bytes) = (ingress as u32, bytes as u32);
            if action < 2 {
                let fits = buffer.occupancy() + bytes as u64 <= capacity;
                let admitted = buffer.admit(bytes, ingress);
                assert_eq!(admitted, fits, "admit must succeed exactly when the packet fits");
                if admitted {
                    held[ingress as usize].push(bytes as u64);
                }
            } else if let Some(bytes) = held[ingress as usize].first().copied() {
                held[ingress as usize].remove(0);
                buffer.release(bytes as u32, ingress);
            }

            // Invariants after every step.
            let model_total: u64 = held.iter().flatten().sum();
            assert_eq!(buffer.occupancy(), model_total, "occupancy mirrors the held packets");
            assert!(buffer.occupancy() <= capacity, "occupancy never exceeds capacity");
            assert_eq!(buffer.free(), capacity - buffer.occupancy());
            let per_ingress_sum: u64 = (0..NUM_PORTS as u32)
                .map(|i| buffer.ingress_occupancy(i))
                .sum();
            assert_eq!(
                per_ingress_sum,
                buffer.occupancy(),
                "per-ingress occupancies must sum to the switch total"
            );
            for (i, packets) in held.iter().enumerate() {
                assert_eq!(
                    buffer.ingress_occupancy(i as u32),
                    packets.iter().sum::<u64>(),
                    "ingress {i} accounting must match its held packets"
                );
            }
        }
    }

    /// The dynamic PFC threshold is honored: a pause transition happens
    /// exactly when an unpaused ingress exceeds the threshold, a resume
    /// exactly when a paused ingress falls below the resume fraction of it,
    /// and nothing otherwise.
    fn pfc_pause_thresholds_are_honored(ops in op_gen()) {
        let capacity = 48_000u64;
        let mut buffer = SharedBuffer::new(capacity, NUM_PORTS);
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); NUM_PORTS];

        for &(ingress, bytes, action) in &ops {
            let (ingress, bytes) = (ingress as u32, bytes as u32);
            if action < 2 {
                if buffer.admit(bytes, ingress) {
                    held[ingress as usize].push(bytes as u64);
                }
            } else if let Some(bytes) = held[ingress as usize].first().copied() {
                held[ingress as usize].remove(0);
                buffer.release(bytes as u32, ingress);
            }

            // Evaluate the documented transition rule for the touched port.
            let threshold = pfc_pause_threshold(buffer.free());
            let occupancy = buffer.ingress_occupancy(ingress);
            let was_paused = buffer.upstream_paused(ingress);
            let transition = buffer.pfc_transition(ingress);
            match transition {
                Some(true) => {
                    assert!(!was_paused, "pause only fires from the unpaused state");
                    assert!(
                        occupancy > threshold,
                        "pause requires occupancy {occupancy} > threshold {threshold}"
                    );
                    assert!(buffer.upstream_paused(ingress));
                }
                Some(false) => {
                    assert!(was_paused, "resume only fires from the paused state");
                    assert!(
                        (occupancy as f64) < PFC_RESUME_FRACTION * threshold as f64,
                        "resume requires occupancy below the resume fraction"
                    );
                    assert!(!buffer.upstream_paused(ingress));
                }
                None => {
                    assert_eq!(
                        buffer.upstream_paused(ingress),
                        was_paused,
                        "no transition must not change the pause state"
                    );
                    if !was_paused {
                        assert!(occupancy <= threshold, "unpaused above threshold must pause");
                    } else {
                        assert!(
                            (occupancy as f64) >= PFC_RESUME_FRACTION * threshold as f64,
                            "paused below the resume point must resume"
                        );
                    }
                }
            }
        }
    }

    /// An infinite buffer disables PFC: it never produces a transition, no
    /// matter the load.
    fn disabled_pfc_never_transitions(ops in op_gen()) {
        let mut buffer = SharedBuffer::new(u64::MAX, NUM_PORTS);
        for &(ingress, bytes, _) in &ops {
            let ingress = ingress as u32;
            assert!(buffer.admit(bytes as u32 * 1_000_000, ingress));
            assert_eq!(buffer.pfc_transition(ingress), None);
            assert!(!buffer.upstream_paused(ingress));
        }
    }

    /// A switch runs no scheme. Under every lineup scheme's switch
    /// configuration, with a small, the paper's or an infinite buffer, a ToR
    /// that takes a burst of data and ACKs with random ECN codepoints and INT
    /// headers RED-marks only ECN-capable data (`Ect` to `Ce`, each counted
    /// as `ecn_marked`, or `Ce` again, not counted), appends one INT record
    /// to each data packet that carries a header and to nothing else, and
    /// sends no PFC frame when its buffer is infinite.
    fn a_switch_marks_records_and_pauses_only_what_packets_and_buffer_ask(
        setup in pair(int_range(0u64..6), int_range(0u64..3)),
        burst in vec_of(
            triple(int_range(0u64..3), int_range(0u64..3), int_range(0u64..48)),
            1..500,
        ),
    ) {
        let scheme = &Scheme::paper_lineup()[setup.0 as usize];
        let buffer = [40_000, 12_000_000, u64::MAX][setup.1 as usize];
        let config = scheme.switch_config(32, buffer, MTU);
        let infinite = config.buffer_bytes == u64::MAX;
        let topo = fat_tree(FatTreeParams::tiny());
        let routes = RoutingTables::compute(&topo);
        let tor = topo.switches()[0];
        let mut sw = Switch::new(tor, config, topo.ports(tor), scheme.make_policy(1), 1);
        let mut events: EventQueue<NetEvent> = EventQueue::new();
        let hop = IntHop { qlen_bytes: 1, tx_bytes: 2, timestamp_ps: 3, link_gbps: 4.0 };
        // What each packet (told apart by its `seq`) arrived with.
        let mut sent = Vec::new();
        for (seq, &(ecn, header, route)) in burst.iter().enumerate() {
            // Ports 0-3 face the ToR's hosts 0-3, ports 4 and 5 the spines;
            // two of the hosts are destinations, so their egresses queue up.
            let (ingress, dst, ack) = (route % 6, route / 6 % 2, route / 12 == 0);
            let dst = NodeId(if ingress == dst { 2 } else { dst as u32 });
            let (flow, src) = (FlowId(seq as u32 % 8), NodeId(ingress as u32));
            let int = match header {
                0 => IntPath::new(),
                1 => IntPath::header(),
                _ => IntPath::from_slice(&[hop]),
            };
            let packet = if ack {
                Packet::ack(flow, src, dst, seq as u64, false, int)
            } else {
                let mut packet = Packet::data(flow, src, dst, seq as u64, MTU, flow.0, false);
                packet.ecn = [Ecn::NotEct, Ecn::Ect, Ecn::Ce][ecn as usize];
                packet.int = int;
                packet
            };
            sent.push((packet.is_data(), packet.ecn, packet.int.clone()));
            sw.handle_packet(SimTime::ZERO, ingress as u32, packet, &routes, &mut events);
        }
        // Ect packets the switch marked (one that arrived marked may be
        // marked again, which leaves it `Ce` and is not counted).
        let mut marked = 0;
        while let Some((at, event)) = events.pop() {
            match event {
                NetEvent::TxComplete { node, port } if node == tor => {
                    sw.handle_tx_complete(at, port, &mut events)
                }
                NetEvent::PauseFrameTimer { node, port } if node == tor => {
                    sw.handle_pause_timer(at, port, &mut events)
                }
                NetEvent::PacketArrive { packet, .. } => match packet.kind {
                    PacketKind::PfcPause { .. } => {
                        assert!(!infinite, "{}: PFC from an infinite buffer", scheme.name());
                    }
                    PacketKind::Data | PacketKind::Ack { .. } => {
                        let (data, ecn, int) = &sent[packet.seq as usize];
                        if *ecn == Ecn::Ect && packet.ecn == Ecn::Ce {
                            marked += 1;
                        } else {
                            assert_eq!(packet.ecn, *ecn, "only ECN-capable data is marked");
                        }
                        let mut expected = int.clone();
                        if *data && int.has_header() {
                            assert_eq!(packet.int.len(), int.len() + 1, "one record per hop");
                            expected.push(packet.int[int.len()]);
                        }
                        assert_eq!(packet.int, expected, "INT only where a header asks");
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        assert_eq!(sw.counters().ecn_marked, marked, "marks counted and made");
        if infinite {
            assert_eq!(sw.counters().pfc_pauses_sent, 0);
            assert_eq!(sw.counters().drops, 0);
        }
    }
}
