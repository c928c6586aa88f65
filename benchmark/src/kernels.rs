//! Stand-alone kernels: one layer's public functions driven in a loop, with
//! no simulator around them. Each returns the median over fixed-size chunks,
//! so a stall in one chunk does not move the number.

use std::hint::black_box;
use std::time::Instant;

use backpressure_flow_control::core::{FlowKey, FlowTable};
use backpressure_flow_control::experiments::Scheme;
use backpressure_flow_control::net::packet::Packet;
use backpressure_flow_control::net::policy::{FifoPolicy, SwitchPolicy};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::switch::Switch;
use backpressure_flow_control::net::topology::Topology;
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::NetEvent;
use backpressure_flow_control::sim::{EventQueue, ReferenceEventQueue, SimDuration, SimTime};

use crate::stats::median;

/// Events held in the queue by the hold model.
const HOLD_POPULATION: u64 = 10_000;

/// Median nanoseconds per operation over `chunks` runs of `chunk(ops)`.
fn ns_per_op(chunks: usize, ops: u64, mut chunk: impl FnMut(u64)) -> f64 {
    let walls: Vec<f64> = (0..chunks)
        .map(|_| {
            let start = Instant::now();
            chunk(ops);
            start.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&walls)
}

/// The two event queues behind one face, so one hold model drives both.
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

/// The hold model: the population stays at 10 k while simulated time
/// advances — one operation pops the earliest event and pushes a later one.
fn hold(mut queue: impl HoldQueue, chunks: usize) -> f64 {
    for i in 0..HOLD_POPULATION {
        queue.push(SimTime::from_nanos((i * 7919) % 100_000), i);
    }
    let mut i = 0u64;
    ns_per_op(chunks, HOLD_POPULATION, |ops| {
        let mut sum = 0u64;
        for _ in 0..ops {
            let (t, v) = queue.pop().expect("the population is held constant");
            sum = sum.wrapping_add(v);
            queue.push(t + SimDuration::from_nanos(100_000 + i % 977), i);
            i += 1;
        }
        black_box(sum);
    })
}

/// `sim.event.hold_ns_per_op`: the calendar queue under the hold model.
pub fn event_hold_ns(chunks: usize) -> f64 {
    hold(
        EventQueue::<u64>::with_capacity(HOLD_POPULATION as usize),
        chunks,
    )
}

/// `sim.event.hold_ref_ns_per_op`: the reference binary heap, same model.
pub fn event_hold_ref_ns(chunks: usize) -> f64 {
    hold(ReferenceEventQueue::<u64>::new(), chunks)
}

/// `core.flow_table.hot_lookup_ns`: `FlowTable::find` hits, 4 k resident
/// keys, 64 k lookups per chunk.
pub fn flow_table_hot_lookup_ns(chunks: usize) -> f64 {
    let mut table = FlowTable::new(16_384, 4, 100);
    let keys: Vec<FlowKey> = (0..4_096u32)
        .map(|v| FlowKey {
            vfid: v * 13 % 16_384,
            ingress: v % 24,
            egress: (v * 7) % 24,
        })
        .collect();
    for &key in &keys {
        table.lookup_or_insert(key);
    }
    ns_per_op(chunks, 65_536, |ops| {
        let mut found = 0u64;
        for i in 0..ops as usize {
            found += u64::from(table.find(keys[(i * 31) % keys.len()]).is_some());
        }
        assert_eq!(black_box(found), ops, "every resident key is found");
    })
}

/// One stand-alone ToR switch forwarding data packets from its first host
/// port to its other fifteen: `handle_packet` plus the `handle_tx_complete`
/// each transmission ends with. Nanoseconds per packet.
fn switch_ns_per_pkt(
    topo: &Topology,
    routes: &RoutingTables,
    policy: Box<dyn SwitchPolicy>,
    chunks: usize,
) -> f64 {
    let tor = topo.switches()[0];
    // Both policies run under BFC's switch configuration, so the difference
    // between them is the policy alone.
    let config = Scheme::bfc().switch_config(32, 12_000_000, 1_000);
    let mut switch = Switch::new(tor, config, topo.ports(tor), policy, 1);
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    let mut i = 0u64;
    ns_per_op(chunks, 4_096, |ops| {
        for _ in 0..ops {
            let flow = (i % 64) as u32;
            let packet = Packet::data(
                FlowId(flow),
                NodeId(0),
                NodeId((1 + i % 15) as u32),
                i / 64,
                1_000,
                flow,
                false,
            );
            switch.handle_packet(SimTime::from_nanos(i * 10), 0, packet, routes, &mut events);
            while let Some((t, event)) = events.pop() {
                if let NetEvent::TxComplete { port, .. } = event {
                    switch.handle_tx_complete(t, port, &mut events);
                }
            }
            i += 1;
        }
        black_box(switch.counters().rx_packets);
    })
}

/// `net.switch.fwd_ns_per_pkt`: the switch with the plain FIFO policy.
pub fn switch_fwd_ns(topo: &Topology, routes: &RoutingTables, chunks: usize) -> f64 {
    switch_ns_per_pkt(topo, routes, Box::new(FifoPolicy::new()), chunks)
}

/// The same switch with the BFC policy; `core.policy.ns_per_pkt` is this
/// minus [`switch_fwd_ns`].
pub fn switch_bfc_ns(topo: &Topology, routes: &RoutingTables, chunks: usize) -> f64 {
    switch_ns_per_pkt(topo, routes, Scheme::bfc().make_policy(1), chunks)
}
