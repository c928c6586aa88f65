//! Quickstart: build a small leaf-spine fabric, synthesize a Google-like
//! workload, run it under BFC and print the tail-latency summary.
//!
//! Like every other example, the run goes through the parallel experiment
//! driver (`ParallelRunner::from_env`, thread count from `BFC_THREADS`);
//! with a single config it degenerates to a serial run, and the output is
//! identical at any thread count.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use backpressure_flow_control::experiments::table::{Cell, Table};
use backpressure_flow_control::experiments::{ExperimentConfig, ParallelRunner, Scheme};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::SimDuration;
use backpressure_flow_control::workloads::{
    synthesize, ArrivalShape, IncastSchedule, TraceParams, Workload,
};

fn main() {
    // A 2-rack, 8-host leaf-spine fabric with 100 Gbps links (use
    // `FatTreeParams::t1()` / `t2()` for the paper's full topologies).
    let topo = fat_tree(FatTreeParams::tiny());

    // 500 us of Google-distributed traffic at 50% load plus a 5% incast
    // component, exactly how the paper constructs its workloads.
    let duration = SimDuration::from_micros(500);
    let trace = synthesize(
        &topo.hosts(),
        &TraceParams {
            workload: Workload::Google,
            load: 0.50,
            incast_load: 0.05,
            incast_fan_in: 6,
            incast_total_bytes: 500_000,
            duration,
            host_gbps: 100.0,
            seed: 42,
            arrivals: ArrivalShape::paper_default(),
            incast_schedule: IncastSchedule::paper_default(),
        },
    );
    println!("synthesized {} flows over {duration}", trace.len());

    // Run the trace under BFC with the paper's switch parameters
    // (32 queues/port, 12 MB shared buffer, 1 KB MTU).
    let configs = [ExperimentConfig::new(Scheme::bfc(), duration)];
    let results = ParallelRunner::from_env().run_experiments(&topo, &trace, &configs);
    let result = &results[0];

    println!(
        "completed {}/{} flows, utilization {:.1}%, PFC pause time {:.3}%, drops {}",
        result.completed_flows,
        result.total_flows,
        result.utilization() * 100.0,
        result.pfc_pause_fraction() * 100.0,
        result.drops,
    );
    let policy = result.policy_stats();
    println!(
        "per-flow pauses sent: {}, resumes: {}, queue collisions: {:.2}%",
        policy.pauses,
        policy.resumes,
        policy.collision_fraction() * 100.0
    );
    println!();

    // The slowdown summary per flow-size bucket, as a results table.
    let columns = ["size", "flows", "mean", "p50", "p95", "p99"];
    let mut table = Table::new("FCT slowdown under BFC", columns);
    let buckets = result.fct.buckets.iter().map(|b| (b.bucket.label(), b));
    let overall = result.fct.overall.iter().map(|o| ("ALL".to_string(), o));
    for (size, b) in buckets.chain(overall) {
        table.push(vec![
            Cell::Text(size),
            Cell::Int(b.count as u64),
            Cell::Fixed(b.mean, 2),
            Cell::Fixed(b.p50, 2),
            Cell::Fixed(b.p95, 2),
            Cell::Fixed(b.p99, 2),
        ]);
    }
    println!("{table}");
}
