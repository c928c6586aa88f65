//! The steady-state packet path does not allocate.
//!
//! The counting `#[global_allocator]` of `common/alloc.rs` (per-thread
//! counter, so the tests can run in parallel) watches three loops after a
//! warm-up that lets every ring buffer, slab and table reach its high-water
//! mark:
//!
//! * a stand-alone ToR [`Switch`] with the BFC policy forwarding contended
//!   bursts — flow-table inserts, dynamic queue choice, DRR, buffer and PFC
//!   accounting on every packet;
//! * an HPCC sender → INT-recording switch → receiver → ACK → sender loop,
//!   where the INT records travel with the packets and a header's storage
//!   goes back to the thread's free list when the sender drops it, for the
//!   next data packet to take — also when short flows follow one another
//!   and each completed flow drops its last sample; and because the engine
//!   empties that list when a run ends, the same HPCC run twice on one
//!   thread allocates the same count both times;
//! * service mode's live metrics: a [`MetricsHub`] that nobody scrapes takes
//!   a publish of a whole fabric's switches — counters and queue-depth
//!   histograms — after every burst, into the storage of the publish before.
//!
//! A fourth watches BFC's pause frames: a ToR held above its pause
//! threshold sends one upstream on every change, and each frame's
//! out-of-line storage comes back to the thread's free list when the
//! frame is consumed, by a switch or by a host.
//!
//! A fifth test watches the epoch driver instead: with steady cross-shard
//! traffic, a window's boundary buffers circulate between outboxes and
//! destinations, so a run's allocation count does not grow with its length.
//! A sixth watches a run's per-flow set-up: a flow's ideal FCT walks its
//! path through the routing tables without collecting it. A seventh counts
//! what an egress's queues cost to grow: they share one packet arena, so a
//! port's storage grows with its total backlog, a doubling at a time, and
//! not queue by queue; and an empty queue costs its port 4 bytes, whether
//! the port has 32 queues or Ideal-FQ's 1 000.
//!
//! An eighth weighs bytes, not allocations: a flight recorder holds what it
//! records as the `.flight` body it finishes with, so recording a million
//! packet records peaks at a small multiple of that body.

use std::collections::VecDeque;

use backpressure_flow_control::experiments::{
    run_experiment, snapshot_experiment, ExperimentConfig, MetricsHub, Scheme,
};
use backpressure_flow_control::net::packet::{IntPath, Packet, PacketKind, MTU};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::switch::Switch;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::net::trace::{FlightRecorder, TraceEvent};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::{Link, NetEvent, Port, QueueTarget};
use backpressure_flow_control::sim::shard::{run_conservative, Boundary, ShardHandler};
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimTime};
use backpressure_flow_control::transport::{FlowSpec, Host};
use backpressure_flow_control::workloads::{synthesize, TraceParams};

#[path = "common/alloc.rs"]
mod alloc;
use alloc::{allocs, peak_bytes_during};

/// The BFC switches of `topo`, in node order (the first is a ToR).
fn bfc_switches(topo: &Topology) -> Vec<Switch> {
    let scheme = Scheme::bfc();
    topo.switches()
        .into_iter()
        .map(|id| {
            Switch::new(
                id,
                scheme.switch_config(32, 12_000_000, MTU),
                topo.ports(id),
                scheme.make_policy(1),
                1,
            )
        })
        .collect()
}

/// One round at a T2 ToR, `sent` packets into the run: a burst of 16 packets
/// of 16 flows from four ingress ports lands on two egress ports at one
/// instant (queues build, flows get queues assigned and released), then the
/// egresses drain. The burst stays under the pause threshold, so only the
/// per-packet path runs; pause frames have a test of their own.
fn burst_round(
    switch: &mut Switch,
    routes: &RoutingTables,
    events: &mut EventQueue<NetEvent>,
    sent: &mut u64,
) {
    let now = SimTime::from_micros(*sent);
    for k in 0..16u64 {
        let flow = ((*sent + k) % 64) as u32;
        let dst = NodeId(4 + (k % 2) as u32);
        let packet = Packet::data(FlowId(flow), NodeId(0), dst, *sent / 64, MTU, flow, false);
        switch.handle_packet(now, (k % 4) as u32, packet, routes, events);
    }
    *sent += 16;
    while let Some((t, event)) = events.pop() {
        if let NetEvent::TxComplete { port, .. } = event {
            switch.handle_tx_complete(t, port, events);
        }
    }
}

#[test]
fn bfc_switch_path_is_allocation_free_after_warm_up() {
    let topo = fat_tree(FatTreeParams::t2());
    let routes = RoutingTables::compute(&topo);
    let mut switch = bfc_switches(&topo).swap_remove(0);
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    let mut sent = 0u64;
    for _ in 0..128 {
        burst_round(&mut switch, &routes, &mut events, &mut sent);
    }
    let before = allocs();
    for _ in 0..625 {
        burst_round(&mut switch, &routes, &mut events, &mut sent);
    }
    let during = allocs() - before;
    assert_eq!(switch.counters().rx_packets, 16 * (128 + 625));
    assert_eq!(switch.counters().drops, 0);
    assert!(
        switch.policy_stats().flow_assignments > 5_000,
        "queues were chosen"
    );
    assert_eq!(
        during, 0,
        "10k handle_packet + handle_tx_complete allocated {during} times"
    );
}

#[test]
fn live_publishes_nobody_scrapes_are_allocation_free_after_the_first() {
    let topo = fat_tree(FatTreeParams::t2());
    let routes = RoutingTables::compute(&topo);
    let mut switches = bfc_switches(&topo);
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    let mut sent = 0u64;
    for _ in 0..128 {
        burst_round(&mut switches[0], &routes, &mut events, &mut sent);
    }
    let hub = MetricsHub::new();
    hub.publish_live(&switches, 0, 0);
    let before = allocs();
    for admitted in 1..=1_000 {
        burst_round(&mut switches[0], &routes, &mut events, &mut sent);
        hub.publish_live(&switches, admitted, admitted / 2);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "1000 unscraped live publishes allocated {during} times"
    );
    // The one scrape renders what the last publish stored.
    let text = hub.render();
    let rx = switches[0].counters().rx_packets;
    assert_eq!(rx, 16 * (128 + 1_000));
    assert!(text.contains(&format!(
        "bfc_switch_rx_packets{{node=\"{}\"}} {rx}\n",
        switches[0].id.0
    )));
    assert!(text.contains("bfc_switch_queue_depth_bytes_bucket{"));
    assert!(
        text.contains("\nbfc_flows_admitted 1000\n")
            && text.contains("\nbfc_flows_completed 500\n")
    );
}

/// Hosts 0 and 1 of the tiny fat tree and the ToR between them, under HPCC:
/// each data packet leaves the sender with an INT header, the ToR appends
/// its record, and the receiver's ACK echoes it back.
struct HpccPair {
    routes: RoutingTables,
    tor: Switch,
    sender: Host,
    receiver: Host,
    events: EventQueue<NetEvent>,
}

impl HpccPair {
    const SRC: NodeId = NodeId(0);
    const DST: NodeId = NodeId(1);

    fn new() -> Self {
        let topo = fat_tree(FatTreeParams::tiny());
        let routes = RoutingTables::compute(&topo);
        let tor = topo.switches()[0];
        let scheme = Scheme::Hpcc;
        let base_rtt = routes.base_rtt(&topo, Self::SRC, Self::DST);
        let host = |id: NodeId| {
            let uplink = topo.host_uplink(id);
            assert_eq!(uplink.peer, tor);
            Host::new(
                id,
                uplink.link,
                (uplink.peer, uplink.peer_port),
                scheme.host_config(base_rtt, 0),
            )
        };
        HpccPair {
            tor: Switch::new(
                tor,
                scheme.switch_config(32, 12_000_000, MTU),
                topo.ports(tor),
                scheme.make_policy(1),
                1,
            ),
            routes,
            sender: host(Self::SRC),
            receiver: host(Self::DST),
            events: EventQueue::new(),
        }
    }

    /// Flow `id` of `packets` MTUs from the sender to the receiver.
    fn flow(id: u32, packets: u64) -> FlowSpec {
        FlowSpec {
            flow: FlowId(id),
            src: Self::SRC,
            dst: Self::DST,
            size_bytes: packets * MTU as u64,
            vfid: id,
        }
    }

    /// Handles the next event, if there is one: its time and, for an ACK
    /// arriving at the sender, how many INT records it echoes.
    fn step(&mut self) -> Option<(SimTime, Option<usize>)> {
        let (now, event) = self.events.pop()?;
        let tor = self.tor.id;
        let events = &mut self.events;
        let mut ack_records = None;
        // Indexed by node id: the sender is host 0, the receiver host 1.
        let hosts = [&mut self.sender, &mut self.receiver];
        match event {
            NetEvent::PacketArrive { node, port, packet } if node == tor => {
                self.tor
                    .handle_packet(now, port, packet, &self.routes, events);
            }
            NetEvent::PacketArrive { node, packet, .. } => {
                if node == Self::SRC && matches!(packet.kind, PacketKind::Ack { .. }) {
                    ack_records = Some(packet.int.len());
                }
                hosts[node.index()].handle_packet(now, packet, events);
            }
            NetEvent::TxComplete { node, port } if node == tor => {
                self.tor.handle_tx_complete(now, port, events);
            }
            NetEvent::TxComplete { node, .. } => {
                hosts[node.index()].handle_tx_complete(now, events)
            }
            NetEvent::HostTimer { node, timer } => {
                hosts[node.index()].handle_timer(now, timer, events)
            }
            _ => {}
        }
        Some((now, ack_records))
    }
}

#[test]
fn hpcc_data_ack_loop_is_allocation_free_after_warm_up() {
    let mut pair = HpccPair::new();
    let spec = HpccPair::flow(7, 20_000);
    pair.receiver.expect_flow(spec);
    pair.sender
        .start_flow(SimTime::ZERO, spec, &mut pair.events);

    let (mut acks, mut int_acks, mut before) = (0u64, 0u64, None);
    while acks < 12_000 {
        if acks == 2_000 && before.is_none() {
            before = Some(allocs());
        }
        let (_, records) = pair.step().expect("the flow outlasts the measurement");
        if let Some(records) = records {
            acks += 1;
            int_acks += u64::from(records == 1);
        }
    }
    let during = allocs() - before.expect("warm-up completed");
    assert_eq!(int_acks, acks, "every ACK echoed the switch's INT record");
    assert_eq!(pair.sender.counters().retransmitted_packets, 0);
    assert!(
        pair.events.peek_time().expect("flow still running")
            > SimTime::ZERO + SimDuration::from_micros(800)
    );
    assert_eq!(
        during, 0,
        "10k HPCC data→ACK round trips allocated {during} times"
    );
}

#[test]
fn back_to_back_hpcc_flows_reuse_their_int_headers_after_warm_up() {
    // Short flows, one after another: each starts when the one before is
    // fully acknowledged, and each one's last INT sample is dropped with
    // its sender state. The receiver expects every flow up front, so its
    // table has grown before anything is counted.
    const WARM_UP: u32 = 200;
    const COUNTED: u32 = 1_000;
    let mut pair = HpccPair::new();
    for id in 0..WARM_UP + COUNTED {
        pair.receiver.expect_flow(HpccPair::flow(id, 4));
    }
    let (mut now, mut acks, mut before) = (SimTime::ZERO, 0u64, 0);
    for id in 0..WARM_UP + COUNTED {
        if id == WARM_UP {
            before = allocs();
        }
        pair.sender
            .start_flow(now, HpccPair::flow(id, 4), &mut pair.events);
        while pair.sender.active_sender_flows() > 0 {
            let (t, records) = pair.step().expect("a started flow completes");
            now = t;
            acks += u64::from(records.is_some());
        }
    }
    let during = allocs() - before;
    assert_eq!(acks, 4 * u64::from(WARM_UP + COUNTED));
    assert_eq!(pair.sender.counters().retransmitted_packets, 0);
    assert_eq!(
        during, 0,
        "{COUNTED} short HPCC flows allocated {during} times"
    );
}

#[test]
fn no_int_header_outlives_its_run() {
    // The same HPCC run twice on a fresh thread: a free list carried from
    // the first run into the second would make the second allocate fewer
    // INT headers. After any run entry point returns, the thread's list is
    // empty, so the next header is a new box.
    let topo = fat_tree(FatTreeParams::tiny());
    let horizon = SimDuration::from_micros(30);
    let trace = synthesize(&topo.hosts(), &TraceParams::google_with_incast(horizon, 42));
    let config = ExperimentConfig::new(Scheme::Hpcc, horizon);
    let header_allocs = || {
        let before = allocs();
        let header = IntPath::header();
        let made = allocs() - before;
        drop(header);
        made
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let run = || {
                let before = allocs();
                let result = run_experiment(&topo, &trace, &config);
                let made = allocs() - before;
                assert!(result.registry.family_total("bfc_switch_rx_packets") > 1_000);
                made
            };
            let first = run();
            let second = run();
            assert_eq!(first, second, "the second run reused the first's boxes");
            assert_eq!(header_allocs(), 1, "a run left INT headers behind");
            snapshot_experiment(&topo, &trace, &config, SimTime::ZERO + horizon / 2, 1);
            assert_eq!(header_allocs(), 1, "a snapshot left INT headers behind");
        });
    });
}

/// One round at a T2 ToR: 96 MTU packets of one flow from ingress 0 land on
/// one egress at once, well past the pause threshold, so the flow is paused
/// toward host 0; then everything the switch scheduled runs — the egress
/// drains, and pause-frame ticks send the pause and, once the queue is
/// below the threshold, the resume. Each frame is consumed twice: by a
/// peer switch's `handle_packet`, which installs a clone, and by host 0.
/// Returns the frames the ToR sent.
fn pause_round(
    tor: &mut Switch,
    peer: &mut Switch,
    host: &mut Host,
    routes: &RoutingTables,
    events: &mut EventQueue<NetEvent>,
    round: u64,
) -> u64 {
    let now = SimTime::from_micros(100 * round);
    for seq in 0..96 {
        let packet = Packet::data(FlowId(1), NodeId(0), NodeId(4), seq, MTU, 1, false);
        tor.handle_packet(now, 0, packet, routes, events);
    }
    let mut frames = 0;
    while let Some((t, event)) = events.pop() {
        match event {
            NetEvent::TxComplete { node, port } if node == tor.id => {
                tor.handle_tx_complete(t, port, events);
            }
            NetEvent::PauseFrameTimer { port, .. } => tor.handle_pause_timer(t, port, events),
            NetEvent::PacketArrive { node, packet, .. } if node == NodeId(0) => {
                assert!(matches!(packet.kind, PacketKind::FlowPause { .. }));
                frames += 1;
                peer.handle_packet(t, 0, packet.clone(), routes, events);
                host.handle_packet(t, packet, events);
            }
            _ => {}
        }
    }
    frames
}

#[test]
fn pause_frames_reuse_their_storage_after_warm_up() {
    let topo = fat_tree(FatTreeParams::t2());
    let routes = RoutingTables::compute(&topo);
    let mut switches = bfc_switches(&topo);
    let mut peer = switches.swap_remove(1);
    let mut tor = switches.swap_remove(0);
    let uplink = topo.host_uplink(NodeId(0));
    assert_eq!((uplink.peer, uplink.peer_port), (tor.id, 0));
    let base_rtt = routes.base_rtt(&topo, NodeId(0), NodeId(4));
    let config = Scheme::bfc().host_config(base_rtt, 0);
    let mut host = Host::new(NodeId(0), uplink.link, (tor.id, 0), config);
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    let mut round = 0;
    let mut run = |rounds: u64| -> u64 {
        (0..rounds)
            .map(|_| {
                round += 1;
                pause_round(&mut tor, &mut peer, &mut host, &routes, &mut events, round)
            })
            .sum()
    };
    run(64);
    let before = allocs();
    let frames = run(500);
    let during = allocs() - before;
    assert!(frames >= 1_000, "a pause and a resume per round: {frames}");
    assert_eq!(
        during, 0,
        "{frames} pause frames sent and consumed allocated {during} times"
    );
    assert!(tor.policy_stats().pauses >= 500);
    assert!(tor.counters().flow_pause_frames_sent >= frames);
    assert_eq!(tor.counters().drops, 0);
}

/// One of two shards that bat eight tokens each back and forth: every token
/// handled at `t` goes to the other shard for `t + HOP`, so every window of
/// one `HOP` carries sixteen boundary events.
struct PingPong {
    me: usize,
    queue: VecDeque<Boundary<u32>>,
    outbox: Vec<Vec<Boundary<u32>>>,
    last: SimTime,
}

const HOP: SimDuration = SimDuration::from_nanos(100);

impl ShardHandler for PingPong {
    type Event = u32;
    fn next_time(&self) -> Option<SimTime> {
        self.queue.front().map(|&(t, ..)| t)
    }
    fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
        while let Some(&(t, rank, token)) = self.queue.front() {
            if t >= window_end || t > deadline {
                break;
            }
            self.queue.pop_front();
            self.last = t;
            self.outbox[1 - self.me].push((t + HOP, rank, token));
        }
    }
    fn outboxes(&mut self) -> &mut [Vec<Boundary<u32>>] {
        &mut self.outbox
    }
    fn deliver(&mut self, batch: &mut Vec<Boundary<u32>>) {
        self.queue.extend(batch.drain(..));
    }
    fn last_processed(&self) -> SimTime {
        self.last
    }
}

#[test]
fn epoch_windows_with_cross_traffic_allocate_nothing_once_buffers_have_grown() {
    let mut shards: Vec<PingPong> = (0..2)
        .map(|me| PingPong {
            me,
            queue: (0..8).map(|token| (SimTime::ZERO, token, token)).collect(),
            outbox: vec![Vec::new(); 2],
            last: SimTime::ZERO,
        })
        .collect();
    // Runs `windows` more windows on the calling thread (where the counter
    // is) and returns what that allocated.
    let mut until = SimTime::ZERO;
    let mut run = |windows: u64| {
        until += HOP * windows;
        let before = allocs();
        let (end, stats, _) = run_conservative(&mut shards, HOP, until, false, true);
        let during = allocs() - before;
        assert_eq!(end, until);
        assert!(stats.windows >= windows, "{stats:?}");
        assert!(stats.boundary_events >= 16 * windows, "{stats:?}");
        during
    };
    run(50);
    let (short, long) = (run(200), run(2_000));
    assert_eq!(
        short, long,
        "200 windows allocated {short} times, 2000 windows {long} times"
    );
}

#[test]
fn a_flows_ideal_fct_allocates_nothing() {
    let topo = fat_tree(FatTreeParams::t2());
    let routes = RoutingTables::compute(&topo);
    let hosts = topo.hosts();
    let before = allocs();
    let mut total = SimDuration::ZERO;
    for (i, &src) in hosts.iter().enumerate() {
        // Same rack for some pairs, across the spines for the rest.
        let dst = hosts[(i + 1 + i % 17) % hosts.len()];
        total += routes.ideal_fct(&topo, src, dst, 100_000, i as u64);
        total += routes.base_rtt(&topo, src, dst);
    }
    let allocated = allocs() - before;
    assert_eq!(
        allocated,
        0,
        "{} ideal FCTs allocated {allocated} times",
        3 * hosts.len()
    );
    assert!(total > SimDuration::ZERO);
}

#[test]
fn a_ports_queues_grow_one_shared_arena() {
    // 512 packets spread round robin over every queue of a 32-queue egress:
    // control, high-priority, the 32 physical queues and the overflow queue.
    let fill = |port: &mut Port| {
        for k in 0..512u64 {
            let target = match k % 35 {
                32 => QueueTarget::Control,
                33 => QueueTarget::HighPriority,
                34 => QueueTarget::Overflow,
                q => QueueTarget::Phys(q as usize),
            };
            let flow = (k % 35) as u32;
            let packet = Packet::data(FlowId(flow), NodeId(0), NodeId(1), k, MTU, flow, false);
            port.enqueue(target, packet, (k % 4) as u32);
        }
    };
    let mut port = Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), 32);
    let before = allocs();
    fill(&mut port);
    let mut drained = 0;
    while port.dequeue_next().is_some() {
        drained += 1;
    }
    let refill_start = allocs();
    fill(&mut port);
    let (first, refill) = (refill_start - before, allocs() - refill_start);
    assert_eq!(drained, 512);
    assert_eq!(port.occupied_queue_count(), 32);
    assert_eq!(
        refill, 0,
        "refilling to the high-water mark allocated {refill} times"
    );
    // One storage growing 4 → 8 → … → 1 024 slots, for the 512 packets and
    // the 33 backlogged queues' entries: ⌈log₂ 545⌉ − 1 allocations.
    assert!(
        first <= 9,
        "filling and draining 512 packets allocated {first} times"
    );
}

#[test]
fn an_egress_holds_state_only_for_its_backlogged_queues() {
    // The heap an egress holds once `backlogged` of its `queues` physical
    // queues, spread across the table, each hold one packet.
    let peak = |queues: usize, backlogged: usize| {
        let (port, peak) = peak_bytes_during(|| {
            let mut port = Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), queues);
            for k in 0..backlogged {
                let packet = Packet::data(FlowId(k as u32), NodeId(0), NodeId(1), 0, MTU, 0, false);
                port.enqueue(QueueTarget::Phys(k * queues / backlogged), packet, 0);
            }
            port
        });
        assert_eq!(port.occupied_queue_count(), backlogged);
        peak
    };
    for k in [1, 8, 32] {
        // Ideal-FQ's 1 000 queues cost a 32-queue port's heap plus a `u32`
        // each, an empty queue's whole footprint: its slot in the table.
        let (wide, narrow) = (peak(1_000, k), peak(32, k));
        assert_eq!(wide - narrow, 4 * (1_000 - 32), "{k} backlogged queues");
        // The rest is O(k): two 64-byte arena slots a backlogged queue (its
        // packet and its entry), in a `Vec` that doubles, so at most three
        // times that while it moves.
        assert!(
            wide <= 4 * 1_001 + 3 * 128 * k as u64,
            "1 000 queues, {k} backlogged: {wide} B"
        );
    }
}

#[test]
fn a_flight_recorder_peaks_near_the_body_it_finishes_with() {
    // `bfc-bench`'s `flight_parts` in one ring: four records per packet hop
    // at 16 nodes, two hops an instant, out of rank order within it.
    const HOPS: u32 = 250_000;
    let (trace, peak) = peak_bytes_during(|| {
        let mut recorder = FlightRecorder::new(4 * HOPS as usize);
        for hop in 0..HOPS {
            let at = SimTime::from_nanos(u64::from(hop / 2) * 80);
            let (node, port, queue) = (NodeId(15 - hop % 16), (hop % 7) as u16, (hop % 32) as u16);
            let (flow, bytes) = (hop % 4_096, 1_000);
            recorder.record(
                at,
                TraceEvent::Enqueue {
                    node,
                    port,
                    queue,
                    flow,
                    bytes,
                },
            );
            recorder.record(at, TraceEvent::QueueActive { node, port, queue });
            recorder.record(
                at,
                TraceEvent::Dequeue {
                    node,
                    port,
                    queue,
                    flow,
                    bytes,
                },
            );
            recorder.record(at, TraceEvent::QueueIdle { node, port, queue });
        }
        recorder.finish()
    });
    let (records, body) = (
        trace.records.len() as u64,
        trace.records.encoded_len() as u64,
    );
    assert_eq!(records, 4 * u64::from(HOPS));
    // The body grows by doubling, so it peaks at its last two capacities at
    // once (or at its last capacity and its final size while it shrinks).
    assert!(
        2 * peak < 5 * body,
        "{records} records peaked at {peak} B ({:.1} B a record) for a {body} B body ({:.1} B a record)",
        peak as f64 / records as f64,
        body as f64 / records as f64
    );
}
