//! Sharded-engine acceptance tests.
//!
//! 1. Partitioner properties: every node lands in exactly one shard, the
//!    partition is a pure function of `(topology, shard count)`, hosts stay
//!    in their ToR's shard, and every cross-shard cable's propagation delay
//!    is at least the epoch lookahead.
//! 2. The differential determinism suite: every paper-lineup scheme ×
//!    (synthetic workload, CSV trace replay, link-fault scenario) produces a
//!    bit-identical `ExperimentResult` at 1, 2 and 4 shards versus the
//!    serial engine.
//! 3. The epoch driver's round protocol on generated token rings: one log
//!    whichever driver ran and whether it batched, and the barrier count as
//!    an identity of the window count.

use backpressure_flow_control::experiments::{
    run_experiment, run_experiment_sharded, ExperimentConfig, ReplayTrace, ScenarioSpec, Scheme,
    ShardPlan,
};
use backpressure_flow_control::net::topology::{
    cross_dc, fat_tree, CrossDcParams, FatTreeParams, Topology,
};
use backpressure_flow_control::net::types::NodeId;
use backpressure_flow_control::sim::shard::{run_conservative, Boundary, EpochStats, ShardHandler};
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimTime};
use backpressure_flow_control::workloads::{
    export_csv, synthesize, TraceFlow, TraceParams, Workload,
};
use bfc_testkit::{int_range, one_of, pair, property, vec_of};

mod common;
use common::assert_identical;

const WINDOW: SimDuration = SimDuration::from_micros(120);

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn topologies() -> Vec<Topology> {
    vec![
        fat_tree(FatTreeParams::tiny()),
        fat_tree(FatTreeParams::t2()),
        cross_dc(CrossDcParams::paper_default()).topology,
    ]
}

property! {
    /// Partitioner invariants over every built-in topology shape and any
    /// requested shard count, including over-subscribed ones.
    fn shard_partition_is_total_deterministic_and_latency_safe(
        case in pair(int_range(0u64..3), int_range(1u64..12)),
    ) {
        let (which, requested) = case;
        let topo = &topologies()[which as usize];
        let plan = ShardPlan::partition(topo, requested as usize)
            .expect("built-in topologies partition at any count");

        // Exactly one shard per node, every shard id in range, and the
        // effective count is clamped to the switch count.
        assert!(plan.num_shards() >= 1);
        assert!(plan.num_shards() <= topo.switches().len());
        for idx in 0..topo.num_nodes() {
            assert!((plan.shard_of(NodeId(idx as u32)) as usize) < plan.num_shards());
        }

        // Pure function of (topology, count): a second partition is equal.
        let again = ShardPlan::partition(topo, requested as usize).expect("same inputs");
        assert_eq!(plan, again, "partitioning must be deterministic");

        // Hosts are co-located with their ToR, so the only cross-shard
        // cables are switch-switch; each carries at least the lookahead.
        for h in topo.hosts() {
            assert_eq!(plan.shard_of(h), plan.shard_of(topo.host_uplink(h).peer));
        }
        let mut cross = 0usize;
        for idx in 0..topo.num_nodes() {
            let node = NodeId(idx as u32);
            for spec in topo.ports(node) {
                if plan.shard_of(node) != plan.shard_of(spec.peer) {
                    cross += 1;
                    let lookahead = plan.lookahead().expect("cross-shard cable implies lookahead");
                    assert!(
                        spec.link.propagation >= lookahead,
                        "cross-shard cable faster than the epoch lookahead"
                    );
                    assert!(!lookahead.is_zero());
                }
            }
        }
        if plan.num_shards() == 1 {
            assert_eq!(cross, 0);
            assert_eq!(plan.lookahead(), None);
        }
    }
}

fn compare_all_shard_counts(
    label: &str,
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
) {
    let serial = run_experiment(topo, trace, config);
    for shards in [1usize, 2, 4] {
        let sharded = run_experiment_sharded(topo, trace, config, shards);
        assert_identical(&format!("{label} @ {shards} shards"), &serial, &sharded);
    }
}

fn synthetic_trace(topo: &Topology, seed: u64) -> Vec<TraceFlow> {
    synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.5, WINDOW, seed),
    )
}

/// Acceptance (synthetic): every paper-lineup scheme, bit-identical at
/// 1/2/4 shards versus the serial engine.
#[test]
fn paper_lineup_is_bit_identical_across_shard_counts_synthetic() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 23);
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, WINDOW);
        compare_all_shard_counts(&format!("synthetic/{name}"), &topo, &trace, &config);
    }
}

/// Acceptance (trace replay): the CSV round-trip path through the sharded
/// engine matches the serial engine for every lineup scheme.
#[test]
fn paper_lineup_is_bit_identical_across_shard_counts_trace_replay() {
    let topo = fat_tree(FatTreeParams::tiny());
    let params = TraceParams {
        incast_fan_in: 6,
        incast_total_bytes: 300_000,
        ..TraceParams::google_with_incast(WINDOW, 31)
    };
    let trace = synthesize(&topo.hosts(), &params);
    let replay = ReplayTrace::from_csv_str(&export_csv(&trace)).expect("round trip");
    assert_eq!(replay.flows(), &trace[..]);
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, WINDOW);
        compare_all_shard_counts(&format!("replay/{name}"), &topo, replay.flows(), &config);
    }
}

/// Acceptance (fault scenario): a link failure with repair — routing
/// re-convergence, dead-egress flushes, recovery metrics — stays
/// bit-identical at every shard count for every lineup scheme.
#[test]
fn paper_lineup_is_bit_identical_across_shard_counts_under_faults() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 37);
    let schedule = ScenarioSpec::single_link_down_up("tor0", "spine0", us(50), us(100))
        .resolve(&topo)
        .expect("tiny topology has tor0/spine0");
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, WINDOW).with_dynamics(schedule.clone());
        compare_all_shard_counts(&format!("faults/{name}"), &topo, &trace, &config);
    }
}

/// The cross-DC topology (gateways, a 200 µs long-haul cable) shards too,
/// and the asymmetric link latencies leave the lookahead at the fabric's
/// 1 µs minimum.
#[test]
fn cross_dc_topology_is_bit_identical_across_shard_counts() {
    let dc = cross_dc(CrossDcParams::paper_default());
    let plan = ShardPlan::partition(&dc.topology, 4).expect("partitionable");
    assert_eq!(plan.lookahead(), Some(us(1)));
    let hosts: Vec<NodeId> = dc
        .dc0_hosts
        .iter()
        .chain(dc.dc1_hosts.iter())
        .copied()
        .collect();
    let trace = synthesize(
        &hosts,
        &TraceParams::background_only(Workload::Google, 0.2, WINDOW, 41),
    );
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    compare_all_shard_counts("cross-dc/BFC", &dc.topology, &trace, &config);
}

/// Sharded runs end when the fabric drains, exactly like serial ones.
#[test]
fn sharded_end_time_matches_serial_drain() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 3);
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let serial = run_experiment(&topo, &trace, &config);
    let sharded = run_experiment_sharded(&topo, &trace, &config, 3);
    assert!(serial.end_time > SimTime::ZERO);
    assert_eq!(serial.end_time, sharded.end_time);
    assert_eq!(serial.completed_flows, serial.total_flows);
}

/// One shard of a token ring: a token handled at `t` is handled again at
/// `t + hop`, by the next shard round the ring with `cross` set and by this
/// one without (a fabric that exchanges nothing). Logs `(time, token)`, and
/// checks what makes a window safe: nothing it is handed after a window lies
/// inside that window.
struct Ring {
    me: usize,
    hop: SimDuration,
    cross: bool,
    queue: EventQueue<u32>,
    outbox: Vec<Vec<Boundary<u32>>>,
    log: Vec<(SimTime, u32)>,
    window_end: SimTime,
}

impl ShardHandler for Ring {
    type Event = u32;
    fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
    fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
        self.window_end = window_end;
        while self
            .queue
            .peek_time()
            .is_some_and(|t| t < window_end && t <= deadline)
        {
            let (now, token) = self.queue.pop().expect("peeked");
            self.log.push((now, token));
            let dest = (self.me + usize::from(self.cross)) % self.outbox.len();
            if dest == self.me {
                self.queue.push_ranked(now + self.hop, token, token);
            } else {
                self.outbox[dest].push((now + self.hop, token, token));
            }
        }
    }
    fn outboxes(&mut self) -> &mut [Vec<Boundary<u32>>] {
        &mut self.outbox
    }
    fn deliver(&mut self, batch: &mut Vec<Boundary<u32>>) {
        for (t, rank, token) in batch.drain(..) {
            assert!(
                t >= self.window_end,
                "{t:?} arrived after the window to {:?}",
                self.window_end
            );
            self.queue.push_ranked(t, rank, token);
        }
    }
    fn last_processed(&self) -> SimTime {
        self.log.last().map_or(SimTime::ZERO, |&(t, _)| t)
    }
}

const LOOKAHEAD: SimDuration = SimDuration::from_nanos(50);

property! {
    /// The round protocol over rings of 1–5 shards carrying 0–6 tokens that
    /// hop every 1–20 lookaheads, across shards or not, driven to two or
    /// three successive deadlines the way `Engine::advance` is for a
    /// snapshot cut. Threads or one loop, batching or re-electing: the same
    /// log and last instant; the two drivers count the same rounds; and per
    /// call every window costs one crossing (two when re-electing) after
    /// the one that opens it — which is all an empty ring pays.
    fn the_round_protocol_runs_one_schedule_on_any_driver_and_counts_it_exactly(
        ring in pair(
            pair(int_range(1usize..6), int_range(0u32..7)),
            pair(int_range(1u64..21), one_of(&[false, true])),
        ),
        cuts in vec_of(int_range(1u64..1_500), 2..4),
    ) {
        let ((n, tokens), (hop, cross)) = ring;
        let hop = LOOKAHEAD * hop;
        let deadlines: Vec<SimTime> = cuts
            .iter()
            .scan(0, |at, gap| {
                *at += gap;
                Some(SimTime::from_nanos(*at))
            })
            .collect();
        let run = |parallel: bool, batching: bool| {
            let mut shards: Vec<Ring> = (0..n)
                .map(|me| Ring {
                    me,
                    hop,
                    cross,
                    queue: EventQueue::new(),
                    outbox: vec![Vec::new(); n],
                    log: Vec::new(),
                    window_end: SimTime::ZERO,
                })
                .collect();
            for token in 0..tokens {
                shards[0].queue.push_ranked(SimTime::ZERO, token, token);
            }
            let calls: Vec<(SimTime, EpochStats)> = deadlines
                .iter()
                .map(|&deadline| {
                    let (end, stats, _) =
                        run_conservative(&mut shards, LOOKAHEAD, deadline, parallel, batching);
                    if batching {
                        assert_eq!(stats.barriers, stats.windows + 1, "{stats:?}");
                    } else {
                        assert_eq!(stats.barriers, 2 * stats.windows + 1, "{stats:?}");
                        assert_eq!(stats.batches, stats.windows, "{stats:?}");
                    }
                    if tokens == 0 {
                        assert_eq!((stats.windows, stats.barriers), (0, 1), "{stats:?}");
                    }
                    (end, stats)
                })
                .collect();
            let mut log: Vec<(SimTime, u32)> =
                shards.iter().flat_map(|s| s.log.iter().copied()).collect();
            log.sort();
            (log, calls)
        };
        let (log, calls) = run(false, true);
        // Every token is handled at 0, hop, 2·hop, … up to the last deadline.
        let last = *deadlines.last().expect("two or three deadlines");
        let handled = last.as_picos() / hop.as_picos() + 1;
        assert_eq!(log.len() as u64, u64::from(tokens) * handled);
        assert_eq!(run(true, true), (log.clone(), calls.clone()), "threaded");
        let (log_off, calls_off) = run(false, false);
        assert_eq!(log_off, log, "re-electing before every window");
        assert_eq!(run(true, false), (log_off, calls_off.clone()), "threaded, re-electing");
        // The schedule shows in the counters only: same last instant per call.
        let ends = |calls: &[(SimTime, EpochStats)]| -> Vec<SimTime> {
            calls.iter().map(|&(end, _)| end).collect()
        };
        assert_eq!(ends(&calls_off), ends(&calls));
    }
}
