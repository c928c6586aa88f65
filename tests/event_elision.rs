//! The end of a serialization is an event only when something waits for it.
//!
//! A transmitter is an instant (`busy_until`), not a flag an event clears:
//! a `TxComplete` is scheduled when a transmission starts with something
//! sendable queued behind it, or by the first arrival that finds the wire
//! taken — never for a packet that leaves its egress empty, and never for
//! one that leaves only paused queues behind (the sweep a pick over them
//! makes is owed, and paid at the egress's next touch). The engine that
//! scheduled every `TxComplete` is gone, so what it computed is the
//! reference here:
//!
//! * the result fingerprints of twelve generated scenarios were recorded at
//!   the last commit that scheduled eagerly (d7dc729) and must come out of
//!   every path through this engine — serial, 1/2/4 shards, a snapshot cut;
//! * event counts and departure times on a hand-driven fabric are checked
//!   against numbers worked out by hand;
//! * a run that used to end on a no-op `TxComplete` still ends then, and a
//!   served run admits its flows at the same instants.

use backpressure_flow_control::experiments::fuzz::{CaseGen, FuzzConfig, Reproducer};
use backpressure_flow_control::experiments::{
    resume_experiment, run_experiment, run_experiment_sharded, serve_experiment_with,
    snapshot_experiment, ExperimentConfig, Scheme,
};
use backpressure_flow_control::net::event::NetEvent;
use backpressure_flow_control::net::packet::{Packet, PauseFrame};
use backpressure_flow_control::net::policy::{FifoPolicy, SfqPolicy, SwitchPolicy};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::switch::Switch;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::SwitchConfig;
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimRng, SimTime};
use backpressure_flow_control::workloads::{synthesize, TraceFlow, TraceParams, Workload};
use bfc_testkit::{case_seed, f64_range, int_range, pair, triple, Config, Gen};

mod common;
use common::{cut_instant, fingerprint, Flows};

/// `common::fingerprint` of `tests/engine_equivalence.rs`'s twelve cases
/// (same generator, same seeds, the scheme each case draws), as computed by
/// commit d7dc729 — the last one whose transmitters scheduled a `TxComplete`
/// for every packet. A change that moves the simulation on purpose records
/// them again: the failure message prints the new table.
const EAGER_ENGINE_FINGERPRINTS: [u64; 12] = [
    0x6e26d0ddc0d8d3be,
    0x94d19b61366071d0,
    0x6e46598ef800fef4,
    0xdf9a0180d5d868a7,
    0x26f319718a5e551e,
    0xc0731dd3832c273d,
    0x309700fc877e1abf,
    0x605c8365b5d1d08d,
    0x16599705b1355299,
    0x733ce354406ebab5,
    0x36aa0516166054c,
    0x4422e01035ebd677,
];

#[test]
fn generated_scenarios_reproduce_the_eager_engines_results() {
    let lineup = Scheme::paper_lineup();
    let gen = triple(
        CaseGen::new(1),
        int_range(0..lineup.len() as u64),
        pair(int_range(0u64..4), f64_range(0.0..2.0)),
    );
    let mut got = Vec::new();
    for i in 0..EAGER_ENGINE_FINGERPRINTS.len() as u32 {
        let seed = case_seed(Config::default().seed, i);
        let (case, scheme, (kind, frac)) = gen.generate(&mut SimRng::new(seed));
        let mut fuzz = FuzzConfig::new();
        fuzz.scheme = lineup[scheme as usize].clone();
        let (topo, trace, config) = Reproducer::from_case(&fuzz, &case)
            .and_then(|r| r.materialize())
            .expect("generated cases resolve against the tiny fat-tree");
        let label = format!("case {i} ({})", config.scheme.name());

        let serial = fingerprint(&run_experiment(&topo, &trace, &config));
        for (j, shards) in [1usize, 2, 4].into_iter().enumerate() {
            let sharded = run_experiment_sharded(&topo, &trace, &config, shards);
            assert_eq!(fingerprint(&sharded), serial, "{label} @ {shards} shards");
            let at = cut_instant(kind + j as u64, frac, &config);
            let snap = snapshot_experiment(&topo, &trace, &config, at, shards);
            let resumed = resume_experiment(&topo, &trace, &config, &snap)
                .unwrap_or_else(|e| panic!("{label} @ {shards} shards, cut at {at}: {e}"));
            assert_eq!(
                fingerprint(&resumed),
                serial,
                "{label} @ {shards} shards, cut at {at}"
            );
        }
        got.push(serial);
    }
    assert_eq!(
        got, EAGER_ENGINE_FINGERPRINTS,
        "results moved against the recorded eager-engine run; if that is intended, record:\n{got:#x?}"
    );
}

/// The tiny fat tree's switches under FIFO policies, driven by hand: events
/// addressed to a host are collected instead of dispatched.
struct Fabric {
    topo: Topology,
    routes: RoutingTables,
    switches: Vec<Option<Switch>>,
    queue: EventQueue<NetEvent>,
    /// `(arrival instant, host, packet)` in delivery order.
    delivered: Vec<(SimTime, NodeId, Packet)>,
}

const HOST_PORT_3: u32 = 3;

impl Fabric {
    fn tiny() -> Fabric {
        Fabric::tiny_with(|| Box::new(FifoPolicy::new()))
    }

    /// The tiny fat tree with a `policy()` at every switch.
    fn tiny_with(policy: fn() -> Box<dyn SwitchPolicy>) -> Fabric {
        let topo = fat_tree(FatTreeParams::tiny());
        let routes = RoutingTables::compute(&topo);
        let mut switches: Vec<Option<Switch>> = (0..topo.num_nodes()).map(|_| None).collect();
        for id in topo.switches() {
            switches[id.index()] = Some(Switch::new(
                id,
                SwitchConfig::default(),
                topo.ports(id),
                policy(),
                1,
            ));
        }
        Fabric {
            topo,
            routes,
            switches,
            queue: EventQueue::new(),
            delivered: Vec::new(),
        }
    }

    /// ToR 0, the switch hosts 0–3 hang off (host `i` on its port `i`), and
    /// the queue its handlers schedule into.
    fn tor0(&mut self) -> (&mut Switch, &mut EventQueue<NetEvent>) {
        let id = self.topo.switches()[0];
        let tor = self.switches[id.index()].as_mut().expect("ToR 0 exists");
        (tor, &mut self.queue)
    }

    /// The last bit of `packet` reaches the ToR of `packet.src` at `at`.
    fn inject(&mut self, at: SimTime, packet: Packet) {
        let uplink = self.topo.host_uplink(packet.src);
        self.inject_on(at, uplink.peer, uplink.peer_port, packet);
    }

    /// The last bit of `packet` reaches `node` on `port` at `at`.
    fn inject_on(&mut self, at: SimTime, node: NodeId, port: u32, packet: Packet) {
        use backpressure_flow_control::net::event::NetSink;
        self.queue
            .send(at, NetEvent::PacketArrive { node, port, packet });
    }

    /// Processes every event with `t <= until`.
    fn run_until(&mut self, until: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            let (now, event) = self.queue.pop().expect("peeked");
            match event {
                NetEvent::PacketArrive { node, port, packet } => {
                    match self.switches[node.index()].as_mut() {
                        Some(sw) => {
                            sw.handle_packet(now, port, packet, &self.routes, &mut self.queue)
                        }
                        None => self.delivered.push((now, node, packet)),
                    }
                }
                NetEvent::TxComplete { node, port } => self.switches[node.index()]
                    .as_mut()
                    .expect("only switches transmit here")
                    .handle_tx_complete(now, port, &mut self.queue),
                other => panic!("FIFO and SFQ switches schedule nothing else, got {other:?}"),
            }
        }
    }

    fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// `(arrival in picoseconds, flow)` of every delivery so far.
    fn arrivals(&self) -> Vec<(u64, u32)> {
        self.delivered
            .iter()
            .map(|(t, _, p)| (t.as_picos(), p.flow.0))
            .collect()
    }
}

fn data(flow: u32, src: u32, dst: u32) -> Packet {
    Packet::data(
        FlowId(flow),
        NodeId(src),
        NodeId(dst),
        1,
        1_000,
        flow,
        false,
    )
}

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

#[test]
fn a_lone_packet_costs_one_event_per_hop() {
    let mut f = Fabric::tiny();
    // Host 0 to host 4: ToR 0, a spine, ToR 1.
    f.inject(ns(0), data(1, 0, 4));
    f.run();
    assert_eq!(f.arrivals(), vec![(3 * 1_080_000, 1)]);
    // The injected arrival plus one arrival per switch hop, and nothing
    // else: no egress had anything queued behind the packet.
    assert_eq!(f.queue.total_scheduled(), 1 + 3);
    assert_eq!(f.queue.total_delivered(), 1 + 3);
}

#[test]
fn a_backlogged_port_costs_two_events_per_packet() {
    let mut f = Fabric::tiny();
    // Hosts 0, 1 and 2 each send host 3 a packet that reaches ToR 0 at the
    // same instant: the egress to host 3 serializes them back to back.
    for src in 0..3 {
        f.inject(ns(0), data(src, src, 3));
    }
    f.run();
    assert_eq!(
        f.arrivals(),
        vec![(1_080_000, 0), (1_160_000, 1), (1_240_000, 2)]
    );
    // Three injected arrivals; per packet one arrival at host 3, and a
    // `TxComplete` for each of the two that left something queued behind
    // them. The last one leaves the egress empty: no event marks its end.
    assert_eq!(f.queue.total_scheduled(), 3 + 3 + 2);
    let tx = *f.tor0().0.port(HOST_PORT_3).tx();
    assert_eq!(tx.busy_until(), ns(240));
    assert!(!tx.wake_pending());
}

#[test]
fn an_arrival_at_the_serialization_end_still_queues_behind_it() {
    let mut f = Fabric::tiny();
    f.inject(ns(0), data(1, 0, 3)); // on the wire 0–80 ns, alone
                                    // At exactly 80 ns a data packet (ingress 1) and an ACK (ingress 2)
                                    // arrive. Arrivals rank before the `TxComplete` of their instant, so
                                    // both are queued when the egress picks its next packet, and the ACK —
                                    // strict priority — goes first. An egress that counted as free at
                                    // `now == busy_until` would have sent the data packet on arrival.
    f.inject(ns(80), data(2, 1, 3));
    let ack = Packet::ack(
        FlowId(3),
        NodeId(2),
        NodeId(3),
        1,
        false,
        Default::default(),
    );
    f.inject(ns(80), ack);
    f.run();
    assert_eq!(
        f.arrivals(),
        vec![
            (1_080_000, 1),
            (80_000 + 5_120 + 1_000_000, 3),
            (80_000 + 5_120 + 80_000 + 1_000_000, 2),
        ]
    );
}

#[test]
fn a_resume_frame_mid_serialization_waits_for_the_serialization_end() {
    let mut f = Fabric::tiny();
    let tor = f.topo.switches()[0];
    let mut paused = PauseFrame::new(128);
    paused.insert(7);
    let pause = |frame| Packet::flow_pause(NodeId(3), tor, frame);

    f.inject(ns(0), data(1, 0, 3)); // on the wire 0–80 ns
    f.inject_on(ns(5), tor, HOST_PORT_3, pause(paused)); // host 3 pauses VFID 7
    f.inject(ns(10), data(7, 1, 3)); // queues, paused
    f.inject_on(ns(40), tor, HOST_PORT_3, pause(PauseFrame::new(128))); // resumed at 40 ns
    f.run();
    // Resumed mid-serialization: flow 7 leaves when the wire frees, at 80 ns.
    assert_eq!(f.arrivals(), vec![(1_080_000, 1), (1_160_000, 7)]);

    // Resumed after the serialization end found only paused backlog: the
    // resume itself restarts the egress, at 120 ns.
    let mut f = Fabric::tiny();
    f.inject(ns(0), data(1, 0, 3));
    f.inject_on(ns(5), tor, HOST_PORT_3, pause(paused));
    f.inject(ns(10), data(7, 1, 3));
    f.inject_on(ns(120), tor, HOST_PORT_3, pause(PauseFrame::new(128)));
    f.run();
    assert_eq!(f.arrivals(), vec![(1_080_000, 1), (1_200_000, 7)]);
}

/// The tiny fabric on stochastic fair queueing. Flow 1 is on the wire to
/// host 3 over 0–80 ns; host 3 pauses VFIDs 7 and 8 at 5 ns; flows 7 and 8
/// then queue behind flow 1, paused, in two queues, in that rotation order.
/// Flow 9 hashes to a third queue. Returns the fabric and host 3's resume.
fn two_paused_queues() -> (Fabric, Packet) {
    let queue = |flow| SfqPolicy::queue_for(flow, SwitchConfig::default().queues_per_port);
    let [q7, q8, q9] = [7, 8, 9].map(queue);
    assert!(
        q7 != q8 && q8 != q9 && q9 != q7,
        "flows 7, 8, 9 share a queue"
    );
    let mut f = Fabric::tiny_with(|| Box::new(SfqPolicy::new()));
    let tor = f.topo.switches()[0];
    let mut paused = PauseFrame::new(128);
    paused.insert(7);
    paused.insert(8);
    f.inject(ns(0), data(1, 0, 3));
    f.inject_on(
        ns(5),
        tor,
        HOST_PORT_3,
        Packet::flow_pause(NodeId(3), tor, paused),
    );
    f.inject(ns(10), data(7, 1, 3));
    f.inject(ns(20), data(8, 2, 3));
    let resume = Packet::flow_pause(NodeId(3), tor, PauseFrame::new(128));
    (f, resume)
}

#[test]
fn a_serialization_end_that_finds_only_paused_queues_is_owed_not_scheduled() {
    let (mut f, resume) = two_paused_queues();
    f.run_until(ns(119));
    // The four injected arrivals and nothing else: the end of flow 1's
    // serialization at 80 ns could only have swept the two paused queues.
    assert_eq!(f.queue.total_delivered(), 4);
    let tx = *f.tor0().0.port(HOST_PORT_3).tx();
    assert_eq!(tx.busy_until(), ns(80));
    assert!(!tx.wake_pending());

    // Host 3 resumes both at 120 ns. The sweep owed since 80 ns is paid
    // first: 2·2 + 1 visits over two queues turned the rotation one place,
    // so flow 8 leaves before flow 7, as when that end was an event.
    let tor = f.topo.switches()[0];
    f.inject_on(ns(120), tor, HOST_PORT_3, resume);
    f.run();
    assert_eq!(
        f.arrivals(),
        vec![(1_080_000, 1), (1_200_000, 8), (1_280_000, 7)]
    );
    // Five injected arrivals, three at host 3, and one `TxComplete`: the
    // end of flow 8's serialization, with flow 7 queued behind it.
    assert_eq!(f.queue.total_scheduled(), 5 + 3 + 1);
}

#[test]
fn an_unpaused_arrival_at_the_owed_serialization_end_makes_it_an_event() {
    let (mut f, resume) = two_paused_queues();
    let tor = f.topo.switches()[0];
    // Flow 9 arrives at exactly 80 ns. It ranks before the serialization
    // end of its instant, so it sees the unswept rotation, and it can be
    // sent: the end at 80 ns is scheduled after all.
    f.inject(ns(80), data(9, 0, 3));
    f.inject_on(ns(200), tor, HOST_PORT_3, resume);
    f.run_until(ns(80));
    // The five injected arrivals up to 80 ns and the `TxComplete` at 80 ns,
    // which put flow 9 on the wire until 160 ns.
    assert_eq!(f.queue.total_delivered(), 5 + 1);
    assert_eq!(f.tor0().0.port(HOST_PORT_3).tx().busy_until(), ns(160));
    f.run();
    // That pick stepped past flows 7 and 8 to flow 9, which drained and
    // left them in their order; the end at 160 ns owes their sweep, paid
    // at the resume, so flow 8 again leaves first.
    assert_eq!(
        f.arrivals(),
        vec![
            (1_080_000, 1),
            (1_160_000, 9),
            (1_280_000, 8),
            (1_360_000, 7)
        ]
    );
}

#[test]
fn a_link_flap_mid_serialization_restarts_at_the_serialization_end() {
    let mut f = Fabric::tiny();
    f.inject(ns(0), data(1, 0, 3)); // on the wire 0–80 ns
    f.inject(ns(10), data(2, 1, 3)); // queued, flushed by the fault
    f.run_until(ns(19));
    let (tor, queue) = f.tor0();
    assert_eq!(tor.handle_link_down(ns(20), HOST_PORT_3, queue), 1);
    f.inject(ns(30), data(3, 2, 3)); // queues on the dead egress
    f.run_until(ns(49));
    let (tor, queue) = f.tor0();
    tor.handle_link_up(ns(50), HOST_PORT_3, queue);
    f.run();
    assert_eq!(f.arrivals(), vec![(1_080_000, 1), (1_160_000, 3)]);

    // Repaired after the serialization end: the repair restarts the egress.
    let mut f = Fabric::tiny();
    f.inject(ns(0), data(1, 0, 3));
    f.run_until(ns(19));
    let (tor, queue) = f.tor0();
    tor.handle_link_down(ns(20), HOST_PORT_3, queue);
    f.inject(ns(30), data(3, 2, 3));
    f.run_until(ns(99));
    let (tor, queue) = f.tor0();
    tor.handle_link_up(ns(100), HOST_PORT_3, queue);
    f.run();
    assert_eq!(f.arrivals(), vec![(1_080_000, 1), (1_180_000, 3)]);
}

#[test]
fn a_rate_change_mid_serialization_applies_from_the_next_packet() {
    let mut f = Fabric::tiny();
    f.inject(ns(0), data(1, 0, 3)); // 80 ns at 100 Gbps
    f.run_until(ns(39));
    f.tor0().0.set_port_rate(HOST_PORT_3, 25.0); // at 40 ns
    f.inject(ns(50), data(2, 1, 3));
    f.run();
    // The first packet finishes at the old rate, at 80 ns; the second then
    // takes 320 ns at 25 Gbps.
    assert_eq!(
        f.arrivals(),
        vec![(1_080_000, 1), (80_000 + 320_000 + 1_000_000, 2)]
    );
    assert_eq!(f.tor0().0.port(HOST_PORT_3).tx().busy_until(), ns(400));
}

/// One flow of one packet between two hosts of one ToR, cut by the deadline
/// right after the receiver's ACK left its NIC.
fn one_packet_run() -> (Topology, Vec<TraceFlow>, ExperimentConfig) {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = vec![TraceFlow {
        src: NodeId(0),
        dst: NodeId(1),
        size_bytes: 1_000,
        start: SimTime::ZERO,
        is_incast: false,
    }];
    // horizon + 4·horizon of drain = 2170 ns.
    let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_nanos(434));
    (topo, trace, config)
}

#[test]
fn a_run_that_ended_on_a_noop_tx_complete_still_ends_then() {
    let (topo, trace, config) = one_packet_run();
    // Data: 80 ns on the NIC, 1 µs of cable, 80 ns on the ToR egress, 1 µs of
    // cable — delivered (and the flow completed) at 2160 ns. The receiver's
    // 64-byte ACK is then on its NIC until 2165.12 ns, and nothing else
    // happens before the 2170 ns deadline. The eager engine popped a
    // `TxComplete` there; no event does now, and the run still ended then.
    let result = run_experiment(&topo, &trace, &config);
    assert_eq!(result.completed_flows, 1);
    assert_eq!(result.end_time, SimTime::from_picos(2_165_120));
    // FlowArrival, the packet's two arrivals, FlowCompleted.
    assert_eq!(result.events_popped, 4);
    for shards in [1, 2] {
        let sharded = run_experiment_sharded(&topo, &trace, &config, shards);
        assert_eq!(sharded.end_time, result.end_time, "{shards} shards");
        // Cut between the last event and the unmarked serialization end.
        let snap = snapshot_experiment(&topo, &trace, &config, ns(2_162), shards);
        let resumed = resume_experiment(&topo, &trace, &config, &snap).expect("resumes");
        assert_eq!(
            resumed.end_time, result.end_time,
            "{shards} shards, resumed"
        );
    }
}

/// `common::fingerprint` of the served runs below as computed by commit
/// d7dc729, per `(scheme, inflight cap)`. A flow admitted while the cap
/// binds starts at the engine's last processed instant, so its FCT record —
/// and with it the fingerprint — pins the instant it was admitted at.
const EAGER_ENGINE_SERVE_FINGERPRINTS: [u64; 4] = [
    0xb116bba52e7c3360,
    0xd1ac3ad6032f903b,
    0x89cc0a0465e278c7,
    0x7ef65808c4d3d381,
];

#[test]
fn a_capped_serve_admits_at_the_eager_engines_instants() {
    let topo = fat_tree(FatTreeParams::tiny());
    let horizon = SimDuration::from_micros(200);
    let params = TraceParams::background_only(Workload::Google, 0.5, horizon, 11);
    let trace = synthesize(&topo.hosts(), &params);
    let dcqcn_win = Scheme::Dcqcn {
        window: true,
        sfq: false,
    };
    let mut got = Vec::new();
    for scheme in [Scheme::bfc(), dcqcn_win] {
        for cap in [1, 3] {
            let config = ExperimentConfig::new(scheme.clone(), horizon);
            let mut source = Flows::new(&trace);
            let report =
                serve_experiment_with(&topo, &config, &mut source, cap, None).expect("serves");
            assert_eq!(report.admitted, trace.len());
            got.push(fingerprint(&report.result));
        }
    }
    assert_eq!(
        got, EAGER_ENGINE_SERVE_FINGERPRINTS,
        "served results moved against the recorded eager-engine run; if that is intended, record:\n{got:#x?}"
    );
}
