//! Smoke coverage for the two runnable examples, the library's API tour
//! (`quickstart`) and its CSV round trip (`trace_replay`): each test mirrors
//! one example's pipeline (same topology shape, same scheme, same driver) at
//! reduced scale, so the flows the examples exercise cannot silently rot.
//! (`cargo test` also compiles the example binaries themselves, so API drift
//! fails the build outright.) The paper's comparisons are figures, covered
//! by `tests/fig_smoke.rs`.

use backpressure_flow_control::experiments::{
    ExperimentConfig, ParallelRunner, ReplayTrace, Scheme,
};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::SimDuration;
use backpressure_flow_control::workloads::{
    export_csv, synthesize, ArrivalShape, IncastSchedule, TraceParams, Workload,
};

/// `examples/quickstart.rs`: one BFC run over a small incast-flavoured trace,
/// executed through the parallel driver.
#[test]
fn quickstart_pipeline_smoke() {
    let topo = fat_tree(FatTreeParams::tiny());
    let duration = SimDuration::from_micros(150);
    let trace = synthesize(
        &topo.hosts(),
        &TraceParams {
            workload: Workload::Google,
            load: 0.50,
            incast_load: 0.05,
            incast_fan_in: 6,
            incast_total_bytes: 300_000,
            duration,
            host_gbps: 100.0,
            seed: 42,
            arrivals: ArrivalShape::paper_default(),
            incast_schedule: IncastSchedule::paper_default(),
        },
    );
    let configs = [ExperimentConfig::new(Scheme::bfc(), duration)];
    let results = ParallelRunner::from_env().run_experiments(&topo, &trace, &configs);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].completed_flows, results[0].total_flows);
    assert!(results[0].utilization() > 0.0);
    assert!(
        results[0].fct.overall.is_some(),
        "quickstart prints this table"
    );
}

/// `examples/trace_replay.rs`: export → import → replay is bit-identical.
#[test]
fn trace_replay_pipeline_smoke() {
    let topo = fat_tree(FatTreeParams::tiny());
    let duration = SimDuration::from_micros(150);
    let trace = synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.4, duration, 9)
            .with_arrivals(ArrivalShape::bursty_default()),
    );
    let replay = ReplayTrace::from_csv_str(&export_csv(&trace)).expect("round trip");
    assert_eq!(replay.flows(), &trace[..]);
    let runner = ParallelRunner::from_env();
    let config = replay.config(Scheme::bfc());
    let original = runner.run_experiments(&topo, &trace, std::slice::from_ref(&config));
    let replayed = replay
        .run_all(&topo, std::slice::from_ref(&config), &runner)
        .expect("trace fits the topology");
    assert_eq!(original[0].fct, replayed[0].fct);
    assert_eq!(original[0].records, replayed[0].records);
}
