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
//!   where the INT records travel with the packets and their storage is
//!   handed round the loop instead of being re-allocated;
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
//! not queue by queue.

use std::collections::VecDeque;

use backpressure_flow_control::experiments::{MetricsHub, Scheme};
use backpressure_flow_control::net::packet::{Packet, PacketKind, MTU};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::switch::Switch;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::{Link, NetEvent, Port, QueueTarget};
use backpressure_flow_control::sim::shard::{run_conservative, Boundary, ShardHandler};
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimTime};
use backpressure_flow_control::transport::{FlowSpec, Host};

#[path = "common/alloc.rs"]
mod alloc;
use alloc::allocs;

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
    assert!(switch.policy_stats().flow_assignments > 5_000, "queues were chosen");
    assert_eq!(during, 0, "10k handle_packet + handle_tx_complete allocated {during} times");
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

#[test]
fn hpcc_data_ack_loop_is_allocation_free_after_warm_up() {
    let topo = fat_tree(FatTreeParams::tiny());
    let routes = RoutingTables::compute(&topo);
    let tor = topo.switches()[0];
    let scheme = Scheme::Hpcc;
    let mut switch = Switch::new(
        tor,
        scheme.switch_config(32, 12_000_000, MTU),
        topo.ports(tor),
        scheme.make_policy(1),
        1,
    );
    // Hosts 0 and 1 hang off the first ToR of the tiny fat tree.
    let (src, dst) = (NodeId(0), NodeId(1));
    let base_rtt = routes.base_rtt(&topo, src, dst);
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
    let (mut sender, mut receiver) = (host(src), host(dst));
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    let spec = FlowSpec {
        flow: FlowId(7),
        src,
        dst,
        size_bytes: 20_000 * MTU as u64,
        vfid: 7,
    };
    receiver.expect_flow(spec);
    sender.start_flow(SimTime::ZERO, spec, &mut events);

    let (mut acks, mut int_acks, mut before) = (0u64, 0u64, None);
    while acks < 12_000 {
        let (now, event) = events.pop().expect("the flow outlasts the measurement");
        if acks == 2_000 && before.is_none() {
            before = Some(allocs());
        }
        match event {
            NetEvent::PacketArrive { node, port, packet } if node == tor => {
                switch.handle_packet(now, port, packet, &routes, &mut events);
            }
            NetEvent::PacketArrive { node, packet, .. } => {
                if node == src && matches!(packet.kind, PacketKind::Ack { .. }) {
                    acks += 1;
                    int_acks += u64::from(packet.int.len() == 1);
                }
                let host = if node == src { &mut sender } else { &mut receiver };
                host.handle_packet(now, packet, &mut events);
            }
            NetEvent::TxComplete { node, port } if node == tor => {
                switch.handle_tx_complete(now, port, &mut events);
            }
            NetEvent::TxComplete { node, .. } => {
                let host = if node == src { &mut sender } else { &mut receiver };
                host.handle_tx_complete(now, &mut events);
            }
            NetEvent::HostTimer { node, timer } => {
                let host = if node == src { &mut sender } else { &mut receiver };
                host.handle_timer(now, timer, &mut events);
            }
            _ => {}
        }
    }
    let during = allocs() - before.expect("warm-up completed");
    assert_eq!(int_acks, acks, "every ACK echoed the switch's INT record");
    assert_eq!(sender.counters().retransmitted_packets, 0);
    assert!(events.peek_time().expect("flow still running") > SimTime::ZERO + SimDuration::from_micros(800));
    assert_eq!(during, 0, "10k HPCC data→ACK round trips allocated {during} times");
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
    assert_eq!(during, 0, "{frames} pause frames sent and consumed allocated {during} times");
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
    assert_eq!(allocated, 0, "{} ideal FCTs allocated {allocated} times", 3 * hosts.len());
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
    assert_eq!(refill, 0, "refilling to the high-water mark allocated {refill} times");
    // One storage growing 4 → 8 → … → 512 slots: ⌈log₂ 512⌉ − 1 allocations.
    assert!(first <= 8, "filling and draining 512 packets allocated {first} times");
}
