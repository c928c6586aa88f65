//! Tier-1 tests for the network-dynamics subsystem:
//!
//! 1. The failure-sweep acceptance scenario: every scheme in the paper lineup
//!    runs through the three canonical scenario shapes (single link down/up,
//!    degraded core link, flapping link) with **bit-identical** results at
//!    1, 2 and 4 worker threads, and the recovery metrics (blackholed
//!    packets, reroute count, time-to-recover) behave as specified.
//! 2. Property tests that routing recompute after *any* sequence of link
//!    down/up events is deterministic, loop-free, and never blackholes
//!    traffic between hosts that are still connected.

use backpressure_flow_control::experiments::scenario::ScenarioSpec;
use backpressure_flow_control::experiments::{
    run_experiment, ExperimentConfig, ParallelRunner, Scheme,
};
use backpressure_flow_control::net::dynamics::{
    FaultEvent, FaultSchedule, LinkAction, LinkStateMap,
};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::net::types::NodeId;
use backpressure_flow_control::sim::{SimDuration, SimTime};
use backpressure_flow_control::workloads::{synthesize, TraceParams, Workload};
use bfc_testkit::{int_range, pair, property, vec_of};

const WINDOW: SimDuration = SimDuration::from_micros(200);

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn trace(topo: &Topology, seed: u64) -> Vec<backpressure_flow_control::workloads::TraceFlow> {
    synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.6, WINDOW, seed),
    )
}

/// The three canonical shapes over the tiny topology, all faults comfortably
/// inside the measurement window so recovery is observable.
fn shapes() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "single down/up",
            ScenarioSpec::single_link_down_up("tor0", "spine0", us(50), us(120)),
        ),
        (
            "degraded core",
            ScenarioSpec::degraded_link("tor0", "spine1", us(50), 10.0, us(150), 100.0),
        ),
        (
            "flapping",
            ScenarioSpec::flapping_link("tor1", "spine0", us(40), us(20), us(140)),
        ),
    ]
}

/// Acceptance: all schemes × all three shapes, bit-identical at 1/2/4
/// threads, and every flow still completes (Go-Back-N recovers blackholed
/// packets end to end once the fabric heals).
#[test]
fn all_schemes_ride_out_all_shapes_bit_identically_at_1_2_4_threads() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = trace(&topo, 17);
    let mut configs = Vec::new();
    for (_, spec) in shapes() {
        let schedule = spec.resolve(&topo).expect("labels exist in tiny");
        for scheme in Scheme::paper_lineup() {
            let mut config = ExperimentConfig::new(scheme, WINDOW).with_dynamics(schedule.clone());
            config.drain = WINDOW * 16;
            configs.push(config);
        }
    }

    // Ground truth: plain serial calls to the pure per-run unit.
    let serial: Vec<_> = configs
        .iter()
        .map(|config| run_experiment(&topo, &trace, config))
        .collect();
    for result in &serial {
        assert_eq!(
            result.completed_flows, result.total_flows,
            "{}: every flow must complete despite the faults ({}/{})",
            result.scheme, result.completed_flows, result.total_flows
        );
        assert!(
            result.recovery.faults >= 2,
            "{}: faults applied",
            result.scheme
        );
    }

    for threads in [1, 2, 4] {
        let parallel = ParallelRunner::new(threads).run_experiments(&topo, &trace, &configs);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.scheme, b.scheme, "{threads} threads: scheme order");
            assert_eq!(a.fct, b.fct, "{threads} threads: FCT for {}", a.scheme);
            assert_eq!(a.records, b.records, "{threads} threads: raw records");
            assert_eq!(a.end_time, b.end_time);
            assert_eq!(a.drops, b.drops);
            assert_eq!(
                a.recovery, b.recovery,
                "{threads} threads: recovery metrics must be bit-identical for {}",
                a.scheme
            );
        }
    }
}

/// The recovery metrics carry the advertised meaning on the single
/// down/up shape: packets are blackholed, routing re-converges exactly once
/// per fault event, and goodput recovers after the repair.
#[test]
fn recovery_metrics_reflect_single_link_failure() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = trace(&topo, 17);
    let schedule = ScenarioSpec::single_link_down_up("tor0", "spine0", us(50), us(120))
        .resolve(&topo)
        .expect("labels exist");
    let mut config = ExperimentConfig::new(Scheme::bfc(), WINDOW).with_dynamics(schedule);
    config.drain = WINDOW * 16;
    let result = run_experiment(&topo, &trace, &config);

    assert_eq!(result.completed_flows, result.total_flows);
    assert!(
        result.recovery.blackholed_packets > 0,
        "a loaded link dying mid-run must blackhole packets"
    );
    assert_eq!(result.recovery.reroutes, 2, "one reroute per fault event");
    assert_eq!(result.recovery.faults, 2);
    let ttr = result
        .recovery
        .time_to_recover
        .expect("goodput must recover after the repair");
    assert!(
        ttr <= WINDOW,
        "recovery should happen within the window, took {ttr}"
    );
    // A run without dynamics reports empty recovery metrics.
    let baseline = run_experiment(&topo, &trace, &ExperimentConfig::new(Scheme::bfc(), WINDOW));
    assert_eq!(baseline.recovery.blackholed_packets, 0);
    assert_eq!(baseline.recovery.reroutes, 0);
    assert_eq!(baseline.recovery.time_to_recover, None);
}

/// A degraded (but alive) link never blackholes anything, and a flapped link
/// blackholes on every down edge.
#[test]
fn degradation_is_lossless_and_flapping_is_not() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = trace(&topo, 23);
    let degrade = ScenarioSpec::degraded_link("tor0", "spine1", us(50), 10.0, us(150), 100.0)
        .resolve(&topo)
        .expect("labels exist");
    let flap = ScenarioSpec::flapping_link("tor1", "spine0", us(40), us(20), us(140))
        .resolve(&topo)
        .expect("labels exist");
    let mut degrade_config = ExperimentConfig::new(Scheme::bfc(), WINDOW).with_dynamics(degrade);
    degrade_config.drain = WINDOW * 16;
    let mut flap_config = ExperimentConfig::new(Scheme::bfc(), WINDOW).with_dynamics(flap.clone());
    flap_config.drain = WINDOW * 16;

    let degraded = run_experiment(&topo, &trace, &degrade_config);
    assert_eq!(
        degraded.recovery.blackholed_packets, 0,
        "degradation only slows"
    );
    assert_eq!(degraded.completed_flows, degraded.total_flows);

    let flapped = run_experiment(&topo, &trace, &flap_config);
    assert!(flapped.recovery.blackholed_packets > 0);
    assert_eq!(flapped.recovery.reroutes as usize, flap.len());
    assert_eq!(flapped.completed_flows, flapped.total_flows);
}

/// The tiny fat tree's ToR↔spine cables, as (tor, spine, tor_port,
/// spine_port) tuples — the link population the property tests toggle.
fn fabric_links(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let mut links = Vec::new();
    for &sw in &topo.switches() {
        for spec in topo.ports(sw) {
            if !topo.is_host(spec.peer) && sw < spec.peer {
                links.push((sw, spec.peer));
            }
        }
    }
    links
}

/// Test-side connectivity oracle: BFS over the undirected up-graph.
fn connected(topo: &Topology, state: &LinkStateMap, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; topo.num_nodes()];
    let mut queue = std::collections::VecDeque::from([from]);
    seen[from.index()] = true;
    while let Some(u) = queue.pop_front() {
        if u == to {
            return true;
        }
        for (port, spec) in topo.ports(u).iter().enumerate() {
            if state.is_up(u, port as u32) && !seen[spec.peer.index()] {
                seen[spec.peer.index()] = true;
                queue.push_back(spec.peer);
            }
        }
    }
    false
}

property! {
    /// After ANY sequence of fabric-link down/up events, recomputed routing
    /// is (a) deterministic — two recomputes agree on every egress choice —
    /// (b) loop-free — every still-connected host pair is reached within the
    /// node-count bound — and (c) never blackholes a still-connected pair —
    /// `try_egress_port` yields a port at every hop.
    fn routing_recompute_is_deterministic_loop_free_and_blackhole_free(
        toggles in vec_of(pair(int_range(0u64..8), int_range(0u64..2)), 1..24),
        flow_hash in int_range(0u64..1_000_000),
    ) {
        let topo = fat_tree(FatTreeParams::tiny());
        let links = fabric_links(&topo);
        let mut state = LinkStateMap::new(&topo);
        for &(which, dir) in &toggles {
            let (a, b) = links[(which as usize) % links.len()];
            let action = if dir == 0 {
                LinkAction::Down { a, b }
            } else {
                LinkAction::Up { a, b }
            };
            state.apply(&topo, &action).expect("fabric links are adjacent");
        }
        let routes = RoutingTables::compute_filtered(&topo, |n, p| state.is_up(n, p));
        let routes_again = RoutingTables::compute_filtered(&topo, |n, p| state.is_up(n, p));

        let hosts = topo.hosts();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                let reachable = connected(&topo, &state, src, dst);
                let first_hop = routes.try_egress_port(src, dst, flow_hash);
                assert_eq!(
                    first_hop.is_some(),
                    reachable,
                    "routing and the BFS oracle disagree for {src}->{dst}"
                );
                assert_eq!(
                    first_hop,
                    routes_again.try_egress_port(src, dst, flow_hash),
                    "recompute must be deterministic"
                );
                if !reachable {
                    continue;
                }
                // Walk the path hop by hop: no blackholes, no loops.
                let mut node = src;
                let mut hops = 0;
                while node != dst {
                    let port = routes
                        .try_egress_port(node, dst, flow_hash)
                        .unwrap_or_else(|| panic!(
                            "{node} blackholes traffic to {dst} although they are connected"
                        ));
                    assert!(
                        state.is_up(node, port),
                        "route from {node} to {dst} uses a dead link"
                    );
                    node = topo.ports(node)[port as usize].peer;
                    hops += 1;
                    assert!(
                        hops <= topo.num_nodes(),
                        "routing loop between {src} and {dst}"
                    );
                }
            }
        }
    }
}

/// Mid-run fault schedules compose with everything else the driver does —
/// a schedule built directly from `FaultEvent`s (no scenario layer) behaves
/// identically to the same schedule via `ScenarioSpec`.
#[test]
fn raw_fault_schedule_equals_resolved_scenario() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = trace(&topo, 31);
    let tor0 = topo.switches()[0];
    let spine0 = topo.switches()[2];
    let raw = FaultSchedule::new(vec![
        FaultEvent {
            at: SimTime::from_micros(50),
            action: LinkAction::Down { a: tor0, b: spine0 },
        },
        FaultEvent {
            at: SimTime::from_micros(120),
            action: LinkAction::Up { a: tor0, b: spine0 },
        },
    ]);
    let resolved = ScenarioSpec::single_link_down_up("tor0", "spine0", us(50), us(120))
        .resolve(&topo)
        .expect("labels exist");
    assert_eq!(raw, resolved);
    let a = run_experiment(
        &topo,
        &trace,
        &ExperimentConfig::new(Scheme::bfc(), WINDOW).with_dynamics(raw),
    );
    let b = run_experiment(
        &topo,
        &trace,
        &ExperimentConfig::new(Scheme::bfc(), WINDOW).with_dynamics(resolved),
    );
    assert_eq!(a.fct, b.fct);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.end_time, b.end_time);
}
