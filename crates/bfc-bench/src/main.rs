//! `cargo run --release -p bfc-bench` — microbenchmarks of the simulator's
//! hot paths that nothing else times: the event queue under the fabric's own
//! delay mix, the BFC data structures (bloom filters, flow table), routing
//! (building the tables, one flow's ideal FCT), ports and buffers, the round
//! trip of an HPCC INT header's storage, the flight recorder's recording,
//! merge and container, and the epoch barrier at its two extremes. Prints a
//! table; informational — it keeps no baseline and judges nothing. Whole
//! runs, CSV import and export, FIFO forwarding at a ToR, the hot flow-table
//! lookup and the plain hold model are timed by `benchmark/`
//! (host-calibrated, as is the routing computation it judges); exact costs
//! are pinned by `tests/exact_costs.rs`.
//!
//! Options:
//!   --quick              fewer/shorter samples (for scripts/verify.sh)
//!   --filter <substr>    only run benchmarks whose name contains <substr>

use std::hint::black_box;
use std::process::ExitCode;

use bfc_bench::Harness;
use bfc_core::{BfcConfig, BfcPolicy, CountingBloom, FlowKey, FlowTable};
use bfc_experiments::cli::Args;
use bfc_experiments::{run_experiment_sharded, ExperimentConfig, MetricsHub, Scheme};
use bfc_net::packet::{IntPath, Packet, PauseFrame, MTU};
use bfc_net::policy::{DequeueCtx, EnqueueCtx, FifoPolicy, SwitchPolicy};
use bfc_net::routing::RoutingTables;
use bfc_net::switch::Switch;
use bfc_net::topology::{fat_tree, FatTreeParams};
use bfc_net::trace::{read_trace, write_trace, FlightRecorder, FlightTrace, TraceEvent};
use bfc_net::types::{FlowId, NodeId};
use bfc_net::{Link, NetEvent, Port, SwitchConfig};
use bfc_sim::snapshot::checksum64;
use bfc_sim::{EventQueue, ReferenceEventQueue, SimDuration, SimTime};
use bfc_transport::hpcc::HpccState;
use bfc_workloads::{synthesize, TraceParams, Workload};

const USAGE: &str = "usage: bfc-bench [--quick] [--filter <substr>]";

/// Every benchmark, in run order: what `--filter` is checked against before
/// anything is set up, and what a run's results are checked against after.
const BENCHES: &[&str] = &[
    "event_queue_push_pop_10k",
    "event_queue_hold_fabric_mix_2k",
    "reference_queue_hold_fabric_mix_2k",
    "event_queue_hold_fabric_mix_20k",
    "reference_queue_hold_fabric_mix_20k",
    "pause_frame_insert_contains",
    "counting_bloom_cycle",
    "flow_table_insert_lookup_remove_1k",
    "routing_compute_t1",
    "routing_ideal_fct_t2",
    "switch_idle_port_hop",
    "bfc_policy_enqueue_dequeue_1k",
    "flow_pause_send_consume",
    "hpcc_int_round_trip",
    "port_active_queue_count_32q",
    "port_drr_pick_32q_paused",
    "port_drr_pick_32q_all_paused",
    "port_enqueue_drain_32q_spread",
    "port_enqueue_drain_1000q_spread",
    "shared_buffer_pfc_transitions",
    "flight_record_1m",
    "flight_merge_1m_two_parts",
    "trace_write_1m",
    "trace_read_1m",
    "container_checksum_32mb",
    "hub_publish_live_t2",
    "sharded_epoch_quiescent",
    "sharded_epoch_dense",
];

#[derive(Debug, PartialEq)]
struct Options {
    quick: bool,
    filter: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Options, String> {
    let mut args = Args::new("bfc-bench", raw);
    let options = Options {
        quick: args.switch("quick"),
        filter: args.text("filter")?,
    };
    let [] = args.positional::<0>("")?;
    match &options.filter {
        Some(filter) if selected(Some(filter)).is_empty() => {
            Err(format!("bfc-bench: --filter {filter} matches no benchmark"))
        }
        _ => Ok(options),
    }
}

/// The benchmarks `filter` selects, in run order.
fn selected(filter: Option<&str>) -> Vec<&'static str> {
    let wanted = |name: &&str| filter.map_or(true, |f| name.contains(f));
    BENCHES.iter().copied().filter(wanted).collect()
}

fn bench_event_queue(h: &mut Harness) {
    h.bench("event_queue_push_pop_10k", || {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(10_000);
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos((i * 7919) % 100_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum += v;
        }
        sum
    });
}

fn bench_bloom(h: &mut Harness) {
    h.bench("pause_frame_insert_contains", || {
        let mut f = PauseFrame::new(128);
        for v in 0..32u32 {
            f.insert(v * 97);
        }
        let mut hits = 0;
        for v in 0..1_000u32 {
            if f.contains(v) {
                hits += 1;
            }
        }
        hits
    });
    h.bench("counting_bloom_cycle", || {
        let mut cb = CountingBloom::new(128);
        for v in 0..64u32 {
            cb.insert(v);
        }
        let snap = cb.snapshot();
        for v in 0..64u32 {
            cb.remove(v);
        }
        (snap.popcount(), cb.is_empty())
    });
}

fn bench_flow_table(h: &mut Harness) {
    h.bench("flow_table_insert_lookup_remove_1k", || {
        let mut t = FlowTable::new(16_384, 4, 100);
        for v in 0..1_000u32 {
            let key = FlowKey {
                vfid: v * 13 % 16_384,
                ingress: v % 24,
                egress: (v * 7) % 24,
            };
            black_box(t.lookup_or_insert(key));
        }
        t.len()
    });
}

fn bench_routing(h: &mut Harness) {
    // The tables every run builds, and rebuilds after each fault.
    let t1 = fat_tree(FatTreeParams::t1());
    h.bench("routing_compute_t1", || RoutingTables::compute(&t1));
    // One flow's ideal FCT, the path walk a run pays per flow: iteration `i`
    // goes from host i mod 64 to the host 1 + (i / 64 mod 63) places after
    // it, so every ordered pair comes round, with size and flow hash varying
    // as a trace's do.
    let t2 = fat_tree(FatTreeParams::t2());
    let routes = RoutingTables::compute(&t2);
    let hosts = t2.hosts();
    let n = hosts.len() as u64;
    let mut i = 0u64;
    h.bench("routing_ideal_fct_t2", || {
        let src = i % n;
        let dst = (src + 1 + (i / n) % (n - 1)) % n;
        let size = 1_000 + (i * 7_919) % 1_000_000;
        i += 1;
        routes.ideal_fct(&t2, hosts[src as usize], hosts[dst as usize], size, i)
    });
}

fn bench_switch_forwarding(h: &mut Harness) {
    let topo = fat_tree(FatTreeParams::t2());
    let routes = RoutingTables::compute(&topo);
    let tor = topo.switches()[0];
    // One hop through an idle egress, which is what most hops of a run are
    // (ACKs on the reverse path, the packets of a flow alone on its port):
    // lone MTU packets 100 ns apart, rotating over the ToR's fifteen other
    // host ports, so every packet finds its egress free and leaves it empty.
    // One iteration is one hop: `handle_packet` plus popping what it
    // scheduled. The switch and the queue persist across iterations.
    let mut sw = Switch::new(
        tor,
        SwitchConfig::default(),
        topo.ports(tor),
        Box::new(FifoPolicy::new()),
        1,
    );
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    let mut hops = 0u64;
    let ran = h.bench("switch_idle_port_hop", || {
        let flow = (hops % 64) as u32;
        let dst = NodeId((1 + hops % 15) as u32);
        let pkt = Packet::data(FlowId(flow), NodeId(0), dst, hops / 64, 1_000, flow, false);
        sw.handle_packet(
            SimTime::from_nanos(hops * 100),
            0,
            pkt,
            &routes,
            &mut events,
        );
        hops += 1;
        while let Some((t, ev)) = events.pop() {
            if let NetEvent::TxComplete { port, .. } = ev {
                sw.handle_tx_complete(t, port, &mut events);
            }
        }
    });
    if ran {
        h.note(format!(
            "switch_idle_port_hop: {} events scheduled over {hops} hops = {:.3} per hop",
            events.total_scheduled(),
            events.total_scheduled() as f64 / hops as f64
        ));
    }
    // BFC picks a queue by the occupancy its egress port holds, so each
    // packet goes into the port it was given a queue in, as in
    // `Switch::forward`, and then every one leaves through `on_dequeue`, as
    // in `Switch::transmit_next`: 50 flows on 32 occupied queues collide.
    let mut port = Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), 32);
    h.bench("bfc_policy_enqueue_dequeue_1k", || {
        let mut policy = BfcPolicy::new(BfcConfig::default(), 3);
        for i in 0..1_000u32 {
            let flow = i % 50;
            let pkt = Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, 1_000, flow, false);
            let ctx = EnqueueCtx {
                ingress: 0,
                egress: 1,
                port: &port,
            };
            let target = policy.on_enqueue(&ctx, &pkt).target;
            port.enqueue(target, pkt, 0);
        }
        while let Some((queued, queue)) = port.dequeue_next() {
            let ctx = DequeueCtx {
                ingress: queued.ingress,
                egress: 1,
                port: &port,
                queue,
            };
            policy.on_dequeue(&ctx, &queued.packet);
        }
        policy.stats().collisions
    });
    // One BFC pause frame's life on the wire: a 128-byte frame (eight
    // paused VFIDs) is put in a packet, as `Switch::handle_pause_timer`
    // does, and consumed by the ToR's `handle_packet`, which installs it on
    // the ingress port and finds nothing queued to send. One iteration is
    // one frame: its out-of-line storage, the packet and the install.
    let mut frame = PauseFrame::new(128);
    (0..8u32).for_each(|v| frame.insert(v * 97));
    let mut frames = 0u64;
    h.bench("flow_pause_send_consume", || {
        let packet = Packet::flow_pause(NodeId(0), tor, frame);
        sw.handle_packet(
            SimTime::from_nanos(frames * 100),
            0,
            packet,
            &routes,
            &mut events,
        );
        frames += 1;
        assert!(events.pop().is_none(), "a lone frame schedules nothing");
    });
    // One HPCC INT header's round trip: the sender gives an MTU data packet
    // a header, as `Host::send_next` does; the ToR's `handle_packet`
    // appends its hop on the way to an idle egress; at the far end the
    // receiver moves the header into the ACK, and the sender's
    // `HpccState::on_ack` swaps it for the previous sample, which is then
    // dropped. One iteration is one round trip of the header's storage.
    let mut hpcc = HpccState::new(100.0, 8e-6);
    let mut trips = 0u64;
    h.bench("hpcc_int_round_trip", || {
        let (flow, seq) = (FlowId(1), trips);
        let mut data = Packet::data(flow, NodeId(0), NodeId(1), seq, MTU, 1, false);
        data.int = IntPath::header();
        sw.handle_packet(
            SimTime::from_nanos(trips * 100),
            0,
            data,
            &routes,
            &mut events,
        );
        trips += 1;
        while let Some((t, event)) = events.pop() {
            match event {
                NetEvent::TxComplete { port, .. } => sw.handle_tx_complete(t, port, &mut events),
                NetEvent::PacketArrive { packet, .. } => {
                    let mut ack =
                        Packet::ack(flow, NodeId(1), NodeId(0), seq + 1, false, packet.int);
                    assert_eq!(ack.int.len(), 1, "the ToR appended its hop");
                    hpcc.on_ack(&mut ack.int, seq + 1, seq + 2);
                }
                _ => {}
            }
        }
    });
}

/// The two event queues behind one interface, so the fabric-mix hold model
/// below drives both with the same code.
trait HoldQueue {
    fn push(&mut self, time: SimTime, event: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl HoldQueue for EventQueue<u64> {
    fn push(&mut self, time: SimTime, event: u64) {
        EventQueue::push(self, time, event);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

impl HoldQueue for ReferenceEventQueue<u64> {
    fn push(&mut self, time: SimTime, event: u64) {
        ReferenceEventQueue::push(self, time, event);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        ReferenceEventQueue::pop(self)
    }
}

/// The delay (picoseconds) of the `i`-th push under the mix a running fabric
/// schedules at: per 64 pushes, 30 serialization ends (10 × a 64-byte ACK's
/// +5 ns, 20 × an MTU's +80 ns), 30 arrivals one propagation delay later
/// (+1.005 µs, +1.08 µs), 3 pause/pacing timers (+10 µs) and one
/// retransmission timeout (+1 ms, beyond the calendar horizon).
fn fabric_delta_ps(i: u64) -> u64 {
    match i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58 {
        0..=9 => 5_120,
        10..=29 => 80_000,
        30..=39 => 1_005_120,
        40..=59 => 1_080_000,
        60..=62 => 10_000_000,
        _ => 1_000_000_000,
    }
}

fn bench_fabric_mix(h: &mut Harness) {
    // Hold model under the fabric's own delta mix (the plain hold model
    // behind `benchmark/`'s `sim.event.hold_ns_per_op` pushes everything
    // +100 µs out, which no handler does): one iteration is 10k pops, each
    // scheduling one follow-up relative to the popped time, at a small (2k)
    // and a T1-sized (20k) pending population, calendar queue vs the
    // reference heap.
    fn hold(h: &mut Harness, name: &str, mut q: impl HoldQueue, population: u64) {
        for i in 0..population {
            q.push(SimTime::from_picos(fabric_delta_ps(i)), i);
        }
        let mut i = population;
        h.bench(name, || {
            let mut sum = 0u64;
            for _ in 0..10_000 {
                let (t, v) = q.pop().expect("the population is held constant");
                sum = sum.wrapping_add(v);
                q.push(t + SimDuration::from_picos(fabric_delta_ps(i)), i);
                i += 1;
            }
            sum
        });
    }
    for (label, population) in [("2k", 2_000u64), ("20k", 20_000)] {
        hold(
            h,
            &format!("event_queue_hold_fabric_mix_{label}"),
            EventQueue::<u64>::with_capacity(population as usize),
            population,
        );
        hold(
            h,
            &format!("reference_queue_hold_fabric_mix_{label}"),
            ReferenceEventQueue::<u64>::new(),
            population,
        );
    }
}

/// A million-record flight trace shaped like a packet run's: four records
/// per packet hop (enqueue, queue-active, dequeue, queue-idle) at 16 nodes,
/// two hops sharing each instant — so every instant holds a run that must be
/// rank-sorted — recorded into the rings `part_of` assigns each node to, and
/// each ring finished.
fn flight_parts(parts: usize, part_of: impl Fn(NodeId) -> usize) -> Vec<FlightTrace> {
    const HOPS: u32 = 250_000;
    let mut recorders: Vec<FlightRecorder> = (0..parts)
        .map(|_| FlightRecorder::new(4 * HOPS as usize))
        .collect();
    for hop in 0..HOPS {
        let at = SimTime::from_nanos(u64::from(hop / 2) * 80);
        // Descending node order within an instant: out of rank order.
        let (node, port, queue) = (NodeId(15 - hop % 16), (hop % 7) as u16, (hop % 32) as u16);
        let (flow, bytes) = (hop % 4_096, 1_000);
        let recorder = &mut recorders[part_of(node)];
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
    recorders.into_iter().map(FlightRecorder::finish).collect()
}

fn bench_flight_trace(h: &mut Harness) {
    // Recording is where a ring sorts and encodes, so this is the whole cost
    // of a traced run's trace up to the merge.
    h.bench("flight_record_1m", || flight_parts(1, |_| 0).len());
    // Merging consumes its parts, so each iteration merges a copy of two
    // finished parts: a 7 MB copy is part of the figure.
    let two = flight_parts(2, |node| node.index() % 2);
    h.bench("flight_merge_1m_two_parts", || {
        FlightTrace::merge(two.clone()).records.len()
    });
    let trace = FlightTrace::merge(two);
    h.bench("trace_write_1m", || write_trace("bench", &trace).len());
    let bytes = write_trace("bench", &trace);
    let ran = h.bench("trace_read_1m", || {
        let (_, back) = read_trace(&bytes).expect("a written trace reads back");
        back.records.len()
    });
    if ran {
        let records = trace.records.len();
        let held = trace.records.encoded_len();
        h.note(format!(
            "trace_read_1m: {} B file over {records} records = {:.2} B per record; \
             {:.2} B per record in memory",
            bytes.len(),
            bytes.len() as f64 / records as f64,
            held as f64 / records as f64
        ));
    }
    let file = vec![0xA5u8; 32 << 20];
    h.bench("container_checksum_32mb", || checksum64(&file));
}

fn bench_metrics_hub(h: &mut Harness) {
    // Service mode's per-admission publish with nobody scraping: T2's twelve
    // switches, each with forwarding counters and a queue-depth histogram
    // worth copying.
    let topo = fat_tree(FatTreeParams::t2());
    let routes = RoutingTables::compute(&topo);
    let scheme = Scheme::bfc();
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    let switches: Vec<Switch> = topo
        .switches()
        .into_iter()
        .map(|id| {
            let mut sw = Switch::new(
                id,
                scheme.switch_config(32, 12_000_000, MTU),
                topo.ports(id),
                scheme.make_policy(1),
                1,
            );
            for i in 0..512u64 {
                let flow = (i % 64) as u32;
                let dst = NodeId((i % 64) as u32);
                let pkt =
                    Packet::data(FlowId(flow), NodeId(63 - dst.0), dst, i, 1_000, flow, false);
                sw.handle_packet(SimTime::from_nanos(i), 0, pkt, &routes, &mut events);
            }
            while let Some((t, ev)) = events.pop() {
                if let NetEvent::TxComplete { port, .. } = ev {
                    sw.handle_tx_complete(t, port, &mut events);
                }
            }
            assert!(!sw.depth_hist().is_empty(), "every switch forwarded data");
            sw
        })
        .collect();
    let hub = MetricsHub::new();
    let mut admitted = 0usize;
    h.bench("hub_publish_live_t2", || {
        admitted += 1;
        hub.publish_live(&switches, admitted, admitted / 2);
    });
}

fn bench_port_counters(h: &mut Harness) {
    // The BFC pause-threshold path calls `active_queue_count` on every
    // enqueue and dequeue. This drives a 32-queue port through the same
    // enqueue/query/dequeue/query pattern the policy produces; the counter
    // is maintained incrementally, so each query is O(1) instead of an O(Q)
    // scan.
    h.bench("port_active_queue_count_32q", || {
        let mut port = Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), 32);
        let mut probe = 0usize;
        for i in 0..1_000u64 {
            let q = (i % 32) as usize;
            let pkt = Packet::data(
                FlowId(q as u32),
                NodeId(0),
                NodeId(1),
                i,
                1_000,
                q as u32,
                false,
            );
            port.enqueue(bfc_net::policy::QueueTarget::Phys(q), pkt, 0);
            probe += black_box(port.active_queue_count());
            if i % 2 == 1 {
                let _ = port.dequeue_next();
                probe += black_box(port.active_queue_count());
            }
        }
        probe
    });
    // The incast-upstream shape: 31 of 32 backlogged queues are paused by the
    // downstream's bloom filter and one is eligible. Every pick rotates past
    // all 31 paused queues before it serves the eligible one (which drains
    // and re-enters the rotation behind them), so this times the scheduler's
    // per-skip pause check: one flag read, no re-hash of the head's VFID.
    let mut port = Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), 32);
    let mut frame = PauseFrame::new(128);
    for q in 0..32u32 {
        let pkt = Packet::data(FlowId(q), NodeId(0), NodeId(1), 0, 1_000, q * 97, false);
        port.enqueue(bfc_net::policy::QueueTarget::Phys(q as usize), pkt, 0);
        if q != 0 {
            frame.insert(q * 97);
        }
    }
    port.set_pause_frame(Some(frame));
    assert_eq!(port.active_queue_count(), 1, "31 of 32 queues are paused");
    h.bench("port_drr_pick_32q_paused", || {
        let mut served = 0u64;
        for i in 0..1_000u64 {
            let (qp, _) = port.dequeue_next().expect("queue 0 is eligible");
            served += qp.packet.seq;
            let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), i, 1_000, 0, false);
            port.enqueue(bfc_net::policy::QueueTarget::Phys(0), pkt, 0);
        }
        served
    });
    // The same port once the downstream pauses queue 0 as well: a pick finds
    // nothing eligible and only zeroes the deficits and turns the rotation.
    let mut frame = PauseFrame::new(128);
    (0..32u32).for_each(|q| frame.insert(q * 97));
    port.set_pause_frame(Some(frame));
    assert_eq!(port.active_queue_count(), 0, "all 32 queues are paused");
    assert_eq!(
        port.occupied_queue_count(),
        32,
        "all 32 queues are backlogged"
    );
    h.bench("port_drr_pick_32q_all_paused", || {
        for _ in 0..1_000 {
            assert!(port.dequeue_next().is_none(), "every queue is paused");
        }
    });
    // A standing backlog of 512 packets spread over every queue of a
    // 32-queue egress (control, high-priority, the 32 physical queues and
    // the overflow queue, round robin), no pause frame. One iteration is one
    // packet: an enqueue onto the next queue in turn and one `dequeue_next`,
    // so this is the per-packet time of the queue storage and the DRR pick
    // together, with the storage at its high-water mark.
    let target = |k: u64| match k % 35 {
        32 => bfc_net::policy::QueueTarget::Control,
        33 => bfc_net::policy::QueueTarget::HighPriority,
        34 => bfc_net::policy::QueueTarget::Overflow,
        q => bfc_net::policy::QueueTarget::Phys(q as usize),
    };
    let packet = |k: u64| {
        let flow = (k % 35) as u32;
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), k, 1_000, flow, false)
    };
    let mut port = Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), 32);
    let mut k = 0u64;
    while k < 512 {
        port.enqueue(target(k), packet(k), 0);
        k += 1;
    }
    h.bench("port_enqueue_drain_32q_spread", || {
        port.enqueue(target(k), packet(k), 0);
        k += 1;
        let (qp, _) = port.dequeue_next().expect("512 packets are queued");
        qp.packet.seq
    });
    // Ideal-FQ's shape: a 1 000-queue egress with a standing backlog of 512
    // packets, packet k on physical queue 7k mod 1 000, so 512 queues hold
    // one packet each. One iteration is one packet: its enqueue fills an
    // empty queue, which takes an entry, and the `dequeue_next` drains the
    // oldest, which gives its entry back — the churn of per-flow queues.
    let spread = |k: u64| bfc_net::policy::QueueTarget::Phys((k * 7 % 1_000) as usize);
    let mut port = Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), 1_000);
    let mut k = 0u64;
    while k < 512 {
        port.enqueue(spread(k), packet(k), 0);
        k += 1;
    }
    assert_eq!(port.occupied_queue_count(), 512, "one packet a queue");
    h.bench("port_enqueue_drain_1000q_spread", || {
        port.enqueue(spread(k), packet(k), 0);
        k += 1;
        let (qp, _) = port.dequeue_next().expect("512 packets are queued");
        qp.packet.seq
    });
    assert_eq!(
        port.occupied_queue_count(),
        512,
        "every pick drained a queue"
    );
    // The dynamic PFC threshold: admit/release churn with a transition
    // check per buffer movement, plus the fault path's all-ingress sweep at
    // constant occupancy (where the per-occupancy cache pays off most).
    h.bench("shared_buffer_pfc_transitions", || {
        let mut buffer = bfc_net::buffer::SharedBuffer::new(1_000_000, 24);
        let mut transitions = 0usize;
        for i in 0..1_000u32 {
            let ingress = i % 24;
            buffer.admit(1_000, ingress);
            transitions += usize::from(buffer.pfc_transition(ingress).is_some());
            if i % 3 == 2 {
                buffer.release(1_000, ingress);
                transitions += usize::from(buffer.pfc_transition(ingress).is_some());
            }
            if i % 100 == 99 {
                for sweep in 0..24u32 {
                    transitions += usize::from(buffer.pfc_transition(sweep).is_some());
                }
            }
        }
        transitions
    });
}

fn bench_epoch_barrier(h: &mut Harness) {
    let topo = fat_tree(FatTreeParams::tiny());
    // A cross-shard-quiescent run: sparse load over a long horizon, where
    // most windows exchange nothing and the epoch driver anchors the next
    // one at the next event, past the dead air. Re-run with
    // `config.with_epoch_batching(false)` to see the barrier count (in
    // `result.epochs()`) go from `windows + 1` to `2 * windows + 1`.
    let quiet = synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.005, SimDuration::from_micros(2_000), 53),
    );
    let quiet_config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(2_000));
    h.bench("sharded_epoch_quiescent", || {
        run_experiment_sharded(&topo, &quiet, &quiet_config, 2)
            .epochs()
            .barriers
    });
    // Its dense counterpart: the repo benchmark's `incast_t1` shape (T1,
    // FbHadoop 40 % + 20 % 100-to-1 incast) over a short horizon, where
    // every window carries cross-shard traffic and the barrier is crossed
    // once per window — the case the epoch barrier's cost decides.
    let t1 = fat_tree(FatTreeParams::t1());
    let dense_horizon = SimDuration::from_micros(20);
    let dense = synthesize(
        &t1.hosts(),
        &TraceParams {
            workload: Workload::FbHadoop,
            load: 0.40,
            incast_load: 0.20,
            incast_fan_in: 100,
            incast_total_bytes: 2_000_000,
            ..TraceParams::google_with_incast(dense_horizon, 42)
        },
    );
    let dense_config = ExperimentConfig::new(Scheme::bfc(), dense_horizon);
    let ran = h.bench("sharded_epoch_dense", || {
        run_experiment_sharded(&t1, &dense, &dense_config, 2)
            .epochs()
            .barriers
    });
    if ran {
        let e = run_experiment_sharded(&t1, &dense, &dense_config, 2).epochs();
        h.note(format!(
            "sharded_epoch_dense: {} windows + 1 election = {} barriers, \
             {:.1} boundary events per window",
            e.windows,
            e.barriers,
            e.boundary_events as f64 / e.windows as f64
        ));
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut h = if args.quick {
        Harness::quick()
    } else {
        Harness::new()
    }
    .with_filter(args.filter.clone())
    .with_verbose(true);

    eprintln!(
        "bfc-bench: {} mode, {} samples per benchmark",
        if args.quick { "quick" } else { "full" },
        h.samples_per_bench()
    );
    bench_event_queue(&mut h);
    bench_fabric_mix(&mut h);
    bench_bloom(&mut h);
    bench_flow_table(&mut h);
    bench_routing(&mut h);
    bench_switch_forwarding(&mut h);
    bench_port_counters(&mut h);
    bench_flight_trace(&mut h);
    bench_metrics_hub(&mut h);
    bench_epoch_barrier(&mut h);

    let ran: Vec<&str> = h.results().iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        ran,
        selected(args.filter.as_deref()),
        "`BENCHES` and the bench functions disagree"
    );
    println!("\n{}", h.report());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_two_options_parse() {
        let options = |quick, filter: Option<&str>| Options {
            quick,
            filter: filter.map(str::to_string),
        };
        assert_eq!(parse(&[]), Ok(options(false, None)));
        assert_eq!(
            parse(&["--filter", "bloom", "--quick"]),
            Ok(options(true, Some("bloom")))
        );
    }

    #[test]
    fn an_unknown_flag_is_one_error_line() {
        // The baseline flags are gone with the baseline.
        for flag in ["--compare", "--out", "--no-json", "--bogus"] {
            assert_eq!(
                parse(&["--quick", flag]),
                Err(format!("bfc-bench: unknown option {flag}"))
            );
        }
    }

    #[test]
    fn a_stray_positional_is_one_error_line() {
        assert_eq!(
            parse(&["bloom"]),
            Err("bfc-bench: unexpected argument bloom".into())
        );
    }

    #[test]
    fn a_filter_that_matches_nothing_is_one_error_line() {
        assert_eq!(
            parse(&["--filter", "paper_lineup"]),
            Err("bfc-bench: --filter paper_lineup matches no benchmark".into())
        );
        assert_eq!(
            parse(&["--filter"]),
            Err("--filter requires a value".into())
        );
    }
}
