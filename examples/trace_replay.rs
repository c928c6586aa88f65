//! Trace replay: persist a synthesized workload as CSV, import it back, and
//! replay it through the experiment driver — demonstrating that a trace that
//! has been round-tripped through the on-disk format produces **bit-identical**
//! results to the in-memory trace it came from.
//!
//! The synthetic trace uses the two new arrival options on top of the paper's
//! setup: bursty (Markov-modulated on/off) background gaps and log-normal
//! incast inter-event gaps. The same CSV can be produced, inspected and
//! replayed from the command line with
//! `cargo run --release -p bfc-experiments --bin trace-tool`.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use backpressure_flow_control::experiments::{ParallelRunner, ReplayTrace, Scheme};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::SimDuration;
use backpressure_flow_control::workloads::io::{export_csv, TraceStats};
use backpressure_flow_control::workloads::{
    synthesize, ArrivalShape, IncastSchedule, TraceParams, Workload,
};

fn main() {
    let topo = fat_tree(FatTreeParams::tiny());
    let duration = SimDuration::from_micros(400);
    let params = TraceParams {
        workload: Workload::Google,
        load: 0.50,
        incast_load: 0.05,
        incast_fan_in: 6,
        incast_total_bytes: 500_000,
        duration,
        host_gbps: 100.0,
        seed: 9,
        arrivals: ArrivalShape::bursty_default(),
        incast_schedule: IncastSchedule::LogNormalGaps { sigma: 1.0 },
    };
    let trace = synthesize(&topo.hosts(), &params);

    // Export to CSV and import it back: the flow list survives bit for bit.
    let csv = export_csv(&trace);
    let path = std::env::temp_dir().join("bfc_trace_replay_example.csv");
    std::fs::write(&path, &csv).expect("write trace CSV");
    let replay = ReplayTrace::from_csv_path(&path).expect("re-import trace CSV");
    assert_eq!(replay.flows(), &trace[..], "CSV round trip must be exact");

    println!(
        "exported {} flows ({} bytes of CSV) to {} and re-imported them\n",
        trace.len(),
        csv.len(),
        path.display()
    );
    println!(
        "{}\n",
        TraceStats::from_flows(&trace, 100.0).expect("non-empty")
    );

    // Replay both the original and the imported trace under BFC; the runs
    // are the same pure function of (topology, trace, config), so every
    // statistic matches exactly.
    let runner = ParallelRunner::from_env();
    let config = replay.config(Scheme::bfc());
    let original = runner.run_experiments(&topo, &trace, std::slice::from_ref(&config));
    let replayed = replay
        .run_all(&topo, std::slice::from_ref(&config), &runner)
        .expect("trace fits the topology");
    assert_eq!(
        original[0].fct, replayed[0].fct,
        "FCT stats must be bit-identical"
    );
    assert_eq!(original[0].records, replayed[0].records);
    assert_eq!(original[0].end_time, replayed[0].end_time);

    println!(
        "replayed under {}: {}/{} flows, utilization {:.1}%, end time {}",
        replayed[0].scheme,
        replayed[0].completed_flows,
        replayed[0].total_flows,
        replayed[0].utilization() * 100.0,
        replayed[0].end_time,
    );
    println!("in-memory and replayed-from-CSV runs are bit-identical");
    let _ = std::fs::remove_file(&path);
}
