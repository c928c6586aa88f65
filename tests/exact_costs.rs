//! What a run costs, as counts that repeat exactly.
//!
//! The engine's cost is proportional to things it can count — events popped
//! per switch hop, pushes that miss the calendar's window, barrier crossings
//! per epoch window, registry series, snapshot bytes, heap allocations — and
//! a count, unlike a wall-clock reading on a shared box, is the same on
//! every run, in every build profile, on every machine. This suite pins them
//! with zero tolerance for short-horizon versions of the four workload
//! shapes `BENCHMARK.json` times:
//!
//! * Fig. 5's six-scheme lineup on T2, Google 60 % + 5 % incast;
//! * BFC alone on T1, FbHadoop 40 % + 20 % 100-to-1 incast, serial and
//!   through the 2-shard engine;
//! * DCQCN+Win on T2 with a link fault, served from an ingest source, then
//!   cut at half the horizon and resumed from the `.snap`.
//!
//! A change that moves a cost on purpose records it again: the failure
//! message prints the new table to paste. A change that moves one by
//! accident has its regression named here, before any timing is taken
//! (wall-clock is `benchmark/run.sh`'s to judge, in alternated pairs).
//! Allocations are counted on the calling thread only, so the sharded row
//! has none. A BFC pause frame takes its box from the thread's free list,
//! so each BFC row is the first run on its test thread: it counts the boxes
//! that list starts without. An HPCC INT header's box comes from a list of
//! its own, which the engine empties when a run ends, so the `hpcc` row
//! counts the boxes its run needs at its in-flight peak, whatever ran
//! before it.

use backpressure_flow_control::experiments::{
    resume_experiment, run_experiment_sharded, serve_experiment, snapshot_experiment,
    ExperimentConfig, ExperimentResult, ScenarioSpec, Scheme,
};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::sim::{SimDuration, SimTime};
use backpressure_flow_control::workloads::{synthesize, TraceFlow, TraceParams, Workload};

#[path = "common/alloc.rs"]
mod alloc;
mod common;
use alloc::allocs;
use common::Flows;

/// The exact costs of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    run: &'static str,
    /// Summed over the engine's workers: each shard pops its own copy of a
    /// flow arrival, a sample tick and a fault, so this — alone in the
    /// table — depends on the shard count.
    events_popped: u64,
    /// Packets received by switches: the unit of simulated work.
    switch_hops: u64,
    /// Pushes that landed beyond the calendar's horizon.
    overflow_pushes: u64,
    batches: u64,
    windows: u64,
    barriers: u64,
    boundary_events: u64,
    /// `registry.len()`.
    series: usize,
    /// Length of the `.snap` cut at half the horizon at this run's shard
    /// count (the one a resumed run resumed from); a served run has none.
    snap_bytes: Option<usize>,
    /// Heap allocation events during the run; `None` where worker threads
    /// did the allocating.
    allocs: Option<u64>,
}

fn cost(
    run: &'static str,
    result: &ExperimentResult,
    snap_bytes: Option<usize>,
    allocs: Option<u64>,
) -> Cost {
    let counter = |name: &str| {
        result
            .registry
            .counter(name)
            .unwrap_or_else(|| panic!("{run}: no counter {name}"))
    };
    Cost {
        run,
        events_popped: result.events_popped,
        switch_hops: result.registry.family_total("bfc_switch_rx_packets"),
        overflow_pushes: counter("bfc_engine_queue_overflow_pushes"),
        batches: counter("bfc_engine_epoch_batches"),
        windows: counter("bfc_engine_epoch_windows"),
        barriers: counter("bfc_engine_epoch_barriers"),
        boundary_events: counter("bfc_engine_epoch_boundary_events"),
        series: result.registry.len(),
        snap_bytes,
        allocs,
    }
}

/// `f`'s value and the allocation events this thread made computing it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let value = f();
    (value, allocs() - before)
}

fn half(config: &ExperimentConfig) -> SimTime {
    SimTime::ZERO + config.horizon / 2
}

/// One uninterrupted run at `shards`, and the length of its half-way cut.
fn run_cost(
    run: &'static str,
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    shards: usize,
) -> Cost {
    let (result, allocs) = counted(|| run_experiment_sharded(topo, trace, config, shards));
    let snap = snapshot_experiment(topo, trace, config, half(config), shards);
    cost(
        run,
        &result,
        Some(snap.len()),
        (shards == 1).then_some(allocs),
    )
}

fn assert_pinned(what: &str, got: &[Cost], pinned: &[Cost]) {
    let table: String = got.iter().map(|c| format!("    {c:?},\n")).collect();
    assert!(
        got == pinned,
        "{what}: exact costs moved; if that is intended, record:\n&[\n{table}]"
    );
}

/// 0.4 × `benchmark/`'s horizons (100 µs; 150 µs for the service shape):
/// two seconds of debug build for the whole suite.
const HORIZON: SimDuration = SimDuration::from_micros(40);

/// `lineup_t2`'s and `service_t2`'s traffic: Google 60 % + 5 % incast,
/// 40-to-1, 1 MB events.
fn google_incast(horizon: SimDuration) -> TraceParams {
    TraceParams {
        incast_fan_in: 40,
        incast_total_bytes: 1_000_000,
        ..TraceParams::google_with_incast(horizon, 42)
    }
}

#[rustfmt::skip]
const LINEUP_T2: &[Cost] = &[
    Cost { run: "bfc", events_popped: 127118, switch_hops: 59369, overflow_pushes: 0, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: Some(187260), allocs: Some(1780) },
    Cost { run: "ideal-fq", events_popped: 125373, switch_hops: 59708, overflow_pushes: 0, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: Some(2168599), allocs: Some(1443) },
    Cost { run: "dcqcn", events_popped: 130722, switch_hops: 59869, overflow_pushes: 0, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: Some(212606), allocs: Some(1455) },
    Cost { run: "dcqcn-win", events_popped: 127882, switch_hops: 59855, overflow_pushes: 0, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: Some(212533), allocs: Some(1455) },
    Cost { run: "hpcc", events_popped: 125074, switch_hops: 59347, overflow_pushes: 0, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: Some(236909), allocs: Some(4122) },
    Cost { run: "dcqcn-win-sfq", events_popped: 127994, switch_hops: 59983, overflow_pushes: 0, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: Some(212481), allocs: Some(1447) },
];

#[test]
fn the_six_scheme_lineup_costs_exactly_this() {
    let topo = fat_tree(FatTreeParams::t2());
    let trace = synthesize(&topo.hosts(), &google_incast(HORIZON));
    let got: Vec<Cost> = Scheme::paper_lineup()
        .into_iter()
        .map(|scheme| {
            let config = ExperimentConfig::new(scheme, HORIZON);
            run_cost(config.scheme.cli_key(), &topo, &trace, &config, 1)
        })
        .collect();
    assert_pinned("lineup on T2", &got, LINEUP_T2);
}

#[rustfmt::skip]
const INCAST_T1: &[Cost] = &[
    Cost { run: "bfc", events_popped: 288955, switch_hops: 131142, overflow_pushes: 0, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 142, snap_bytes: Some(1412661), allocs: Some(3574) },
    Cost { run: "bfc @ 2 shards", events_popped: 289381, switch_hops: 131142, overflow_pushes: 0, batches: 2, windows: 201, barriers: 202, boundary_events: 42064, series: 142, snap_bytes: Some(1418975), allocs: None },
];

#[test]
fn the_incast_costs_exactly_this_serial_and_on_two_shards() {
    let topo = fat_tree(FatTreeParams::t1());
    let params = TraceParams {
        workload: Workload::FbHadoop,
        load: 0.40,
        incast_load: 0.20,
        incast_fan_in: 100,
        incast_total_bytes: 2_000_000,
        ..TraceParams::google_with_incast(HORIZON, 42)
    };
    let trace = synthesize(&topo.hosts(), &params);
    let config = ExperimentConfig::new(Scheme::bfc(), HORIZON);
    let got = [
        run_cost("bfc", &topo, &trace, &config, 1),
        run_cost("bfc @ 2 shards", &topo, &trace, &config, 2),
    ];
    assert_pinned("incast on T1", &got, INCAST_T1);
    // The simulation, and what is reported about it, is the same on any
    // number of shards; what the engine does to get there is not.
    let [serial, sharded] = got;
    assert_eq!(serial.switch_hops, sharded.switch_hops);
    assert_eq!(serial.series, sharded.series);
    assert!(serial.events_popped < sharded.events_popped);
    // One crossing per window, and one for the election that opens the run.
    assert_eq!(sharded.barriers, sharded.windows + 1);
}

#[rustfmt::skip]
const SERVICE_T2: &[Cost] = &[
    Cost { run: "serve", events_popped: 212718, switch_hops: 100550, overflow_pushes: 3, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: None, allocs: Some(1594) },
    Cost { run: "resume", events_popped: 218503, switch_hops: 101061, overflow_pushes: 4, batches: 1, windows: 1, barriers: 2, boundary_events: 0, series: 114, snap_bytes: Some(336370), allocs: Some(1699) },
];

#[test]
fn serve_snapshot_resume_under_a_link_fault_costs_exactly_this() {
    let topo = fat_tree(FatTreeParams::t2());
    let horizon = SimDuration::from_micros(60);
    let trace = synthesize(&topo.hosts(), &google_incast(horizon));
    let fault = ScenarioSpec::single_link_down_up("tor0", "spine0", horizon / 4, horizon / 2)
        .resolve(&topo)
        .expect("tor0 and spine0 are adjacent in T2");
    let scheme = Scheme::from_cli_key("dcqcn-win").expect("a registered scheme");
    let config = ExperimentConfig::new(scheme, horizon).with_dynamics(fault);

    let mut source = Flows::new(&trace);
    let inflight_cap = 64; // `benchmark/`'s
    let (report, serve_allocs) =
        counted(|| serve_experiment(&topo, &config, &mut source, inflight_cap).expect("serves"));
    assert_eq!(report.admitted, trace.len());

    let snap = snapshot_experiment(&topo, &trace, &config, half(&config), 1);
    let (resumed, resume_allocs) =
        counted(|| resume_experiment(&topo, &trace, &config, &snap).expect("resumes"));

    let got = [
        cost("serve", &report.result, None, Some(serve_allocs)),
        cost("resume", &resumed, Some(snap.len()), Some(resume_allocs)),
    ];
    assert_pinned("service on T2", &got, SERVICE_T2);
}
