//! Determinism regression tests:
//!
//! 1. The same `ExperimentConfig` run serially and through the
//!    `ParallelRunner` at 1, 2 and 4 threads yields identical `FctSummary`
//!    output (and identical scalar metrics).
//! 2. The calendar-queue `EventQueue` and the reference heap implementation
//!    deliver identical sequences on randomized event schedules.
//! 3. Traces replayed from CSV (including the bursty / clustered-incast
//!    variants) stay bit-identical through the `ParallelRunner` at 1, 2 and
//!    4 threads.

use backpressure_flow_control::experiments::{
    run_experiment, run_experiment_sharded, ExperimentConfig, ParallelRunner, ReplayTrace, Scheme,
};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::{EventQueue, ReferenceEventQueue, SimDuration, SimTime};
use backpressure_flow_control::workloads::{
    export_csv, synthesize, ArrivalShape, IncastSchedule, TraceFlow, TraceParams, Workload,
};
use bfc_testkit::{int_range, pair, property, vec_of};

mod common;
use common::assert_identical;

fn tiny_trace(topo: &backpressure_flow_control::net::Topology, seed: u64) -> Vec<TraceFlow> {
    synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.35, SimDuration::from_micros(150), seed),
    )
}

#[test]
fn parallel_runner_matches_serial_at_every_thread_count() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = tiny_trace(&topo, 21);
    let configs: Vec<ExperimentConfig> = Scheme::paper_lineup()
        .into_iter()
        .map(|scheme| ExperimentConfig::new(scheme, SimDuration::from_micros(150)))
        .collect();

    // Ground truth: plain serial calls to the pure per-run unit.
    let serial: Vec<_> = configs
        .iter()
        .map(|config| run_experiment(&topo, &trace, config))
        .collect();

    for threads in [1, 2, 4] {
        let parallel = ParallelRunner::new(threads).run_experiments(&topo, &trace, &configs);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.scheme, b.scheme, "{threads} threads: scheme order");
            assert_eq!(
                a.fct, b.fct,
                "{threads} threads: FctSummary must be bit-identical for {}",
                a.scheme
            );
            assert_eq!(a.records, b.records, "{threads} threads: raw FCT records");
            assert_eq!(a.completed_flows, b.completed_flows);
            assert_eq!(a.total_flows, b.total_flows);
            assert_eq!(a.end_time, b.end_time);
            assert_eq!(a.drops, b.drops);
            assert_eq!(a.utilization().to_bits(), b.utilization().to_bits());
            assert_eq!(
                a.pfc_pause_fraction().to_bits(),
                b.pfc_pause_fraction().to_bits()
            );
            assert_eq!(a.policy_stats(), b.policy_stats());
        }
    }
}

property! {
    /// The calendar queue and the reference heap deliver the exact same
    /// `(time, payload)` sequence — including FIFO order among equal
    /// timestamps — for schedules that interleave pushes and pops across
    /// the current window, the bucket ring, and the overflow heap.
    fn calendar_queue_matches_reference_heap(
        schedule in vec_of(
            pair(int_range(0u64..3), int_range(0u64..2_000_000)),
            1..600,
        ),
    ) {
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut reference: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
        let mut payload = 0u64;
        for &(op, t) in &schedule {
            if op < 2 || calendar.is_empty() {
                // Time scales stress all three tiers: ties, in-calendar
                // times, and far-future overflow times.
                let nanos = match op {
                    0 => t % 512,                 // dense ties, current window
                    1 => t % 150_000,             // spread across the ring
                    _ => t * 4,                   // up to 8 ms: overflow
                };
                calendar.push(SimTime::from_nanos(nanos), payload);
                reference.push(SimTime::from_nanos(nanos), payload);
                payload += 1;
            } else {
                assert_eq!(calendar.pop(), reference.pop());
            }
            assert_eq!(calendar.peek_time(), reference.peek_time());
            assert_eq!(calendar.len(), reference.len());
            assert_eq!(calendar.is_empty(), reference.is_empty());
        }
        loop {
            let (a, b) = (calendar.pop(), reference.pop());
            assert_eq!(a, b, "drain order must match exactly");
            if a.is_none() {
                break;
            }
        }
    }

}

/// A trace that went through the CSV format replays bit-identically through
/// the `ParallelRunner` at every thread count — for the paper-default
/// workload and for the bursty / log-normal-incast arrival variants.
#[test]
fn replayed_csv_traces_are_bit_identical_at_1_2_4_threads() {
    let topo = fat_tree(FatTreeParams::tiny());
    let variants = [
        TraceParams::google_with_incast(SimDuration::from_micros(150), 29),
        TraceParams::google_with_incast(SimDuration::from_micros(150), 29)
            .with_arrivals(ArrivalShape::bursty_default())
            .with_incast_schedule(IncastSchedule::LogNormalGaps { sigma: 1.0 }),
    ];
    for params in variants {
        let params = TraceParams {
            incast_fan_in: 6,
            incast_total_bytes: 400_000,
            ..params
        };
        let trace = synthesize(&topo.hosts(), &params);
        let replay = ReplayTrace::from_csv_str(&export_csv(&trace)).expect("round trip");
        assert_eq!(replay.flows(), &trace[..]);
        let configs = [ExperimentConfig::new(
            Scheme::bfc(),
            SimDuration::from_micros(150),
        )];
        let ground_truth = run_experiment(&topo, &trace, &configs[0]);
        for threads in [1, 2, 4] {
            let replayed = replay
                .run_all(&topo, &configs, &ParallelRunner::new(threads))
                .expect("valid trace");
            assert_eq!(replayed.len(), 1);
            assert_eq!(
                ground_truth.fct, replayed[0].fct,
                "{threads} threads, {:?}",
                params.arrivals
            );
            assert_eq!(ground_truth.records, replayed[0].records);
            assert_eq!(ground_truth.end_time, replayed[0].end_time);
            assert_eq!(ground_truth.drops, replayed[0].drops);
        }
    }
}

/// Epoch batching is scheduling-only: with it on or off, the sharded engine
/// at 2 and 4 shards reproduces the serial result bit for bit and exchanges
/// exactly the same boundary events — while the batched driver crosses the
/// barrier once per window after its one election, and the reference, which
/// re-elects before every window, twice. (Not "half as often": on this
/// quiescent workload, a trickle of flows between 10 µs sample ticks, the
/// grid window after a window with traffic is often an empty one that an
/// election would have skipped.)
#[test]
fn epoch_batching_is_bit_identical_and_cuts_barriers_when_quiescent() {
    let topo = fat_tree(FatTreeParams::tiny());
    let window = SimDuration::from_micros(2_000);
    let trace = synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.005, window, 53),
    );
    let config = ExperimentConfig::new(Scheme::bfc(), window);
    let serial = run_experiment(&topo, &trace, &config);
    for shards in [2usize, 4] {
        let on = run_experiment_sharded(
            &topo,
            &trace,
            &config.clone().with_epoch_batching(true),
            shards,
        );
        let off = run_experiment_sharded(
            &topo,
            &trace,
            &config.clone().with_epoch_batching(false),
            shards,
        );
        assert_identical(&format!("{shards} shards, batching on"), &serial, &on);
        assert_identical(&format!("{shards} shards, batching off"), &serial, &off);
        assert_eq!(
            on.epochs().boundary_events,
            off.epochs().boundary_events,
            "{shards} shards: same cross-shard events either way"
        );
        let (on, off) = (on.epochs(), off.epochs());
        assert_eq!(on.barriers, on.windows + 1, "{shards} shards: {on:?}");
        assert_eq!(
            off.barriers,
            2 * off.windows + 1,
            "{shards} shards: {off:?}"
        );
        assert_eq!(off.batches, off.windows, "{shards} shards: {off:?}");
        assert!(
            off.barriers > on.barriers,
            "{shards} shards: batching saved no crossing, off={off:?} on={on:?}"
        );
    }
}

/// Replaying the same seed through the full experiment pipeline is
/// bit-identical, independent of how many worker threads ran it. (Direct
/// `check` call with a reduced case count: each case runs two full
/// experiments, so the default 256 cases would dominate the suite.)
#[test]
fn experiment_is_deterministic_across_replays_and_threads() {
    bfc_testkit::check(
        "experiment_is_deterministic_across_replays_and_threads",
        bfc_testkit::Config::from_env().with_cases(16),
        pair(int_range(1u64..500), int_range(1u64..5)),
        |&(seed, threads)| {
            let topo = fat_tree(FatTreeParams::tiny());
            let trace = tiny_trace(&topo, seed);
            let config =
                ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(100)).with_seed(seed);
            let once = run_experiment(&topo, &trace, &config);
            let again = ParallelRunner::new(threads as usize).run_experiments(
                &topo,
                &trace,
                std::slice::from_ref(&config),
            );
            assert_eq!(again.len(), 1);
            assert_eq!(once.fct, again[0].fct);
            assert_eq!(once.end_time, again[0].end_time);
            assert_eq!(once.completed_flows, again[0].completed_flows);
        },
    );
}
