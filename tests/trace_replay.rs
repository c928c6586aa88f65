//! The trace-replay acceptance test: a trace exported with `export_csv` and
//! re-imported with `import_csv` replays through `run_experiment` with
//! **bit-identical** FCT statistics to the original in-memory trace — on the
//! paper's default workload and on the new bursty / clustered-incast
//! variants, serially and through the `ParallelRunner`.

use backpressure_flow_control::experiments::{
    run_experiment, ExperimentConfig, ParallelRunner, ReplayError, ReplayTrace, Scheme,
};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::{SimDuration, SimTime};
use backpressure_flow_control::workloads::io::{export_csv, write_csv_file};
use backpressure_flow_control::workloads::{
    synthesize, ArrivalShape, IncastSchedule, TraceFlow, TraceParams, Workload,
};
use bfc_net::types::NodeId;

fn incast_trace_params(seed: u64) -> TraceParams {
    TraceParams {
        workload: Workload::Google,
        load: 0.50,
        incast_load: 0.05,
        incast_fan_in: 6,
        incast_total_bytes: 400_000,
        duration: SimDuration::from_micros(200),
        host_gbps: 100.0,
        seed,
        arrivals: ArrivalShape::paper_default(),
        incast_schedule: IncastSchedule::paper_default(),
    }
}

#[test]
fn exported_and_reimported_trace_replays_bit_identically() {
    let topo = fat_tree(FatTreeParams::tiny());
    for params in [
        incast_trace_params(31),
        incast_trace_params(31)
            .with_arrivals(ArrivalShape::bursty_default())
            .with_incast_schedule(IncastSchedule::LogNormalGaps { sigma: 1.0 }),
    ] {
        let trace = synthesize(&topo.hosts(), &params);
        assert!(!trace.is_empty());

        // Through a real file, exactly the path `trace-tool replay` takes.
        let path = std::env::temp_dir().join(format!(
            "bfc_replay_test_{}_{:?}.csv",
            params.seed, params.arrivals
        ));
        write_csv_file(&path, &trace).expect("write trace CSV");
        let replay = ReplayTrace::from_csv_path(&path).expect("re-import trace CSV");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            replay.flows(),
            &trace[..],
            "flow list must round-trip exactly"
        );

        for scheme in [
            Scheme::bfc(),
            Scheme::Dcqcn {
                window: true,
                sfq: false,
            },
        ] {
            let config = ExperimentConfig::new(scheme, params.duration);
            let original = run_experiment(&topo, &trace, &config);
            let replayed = replay
                .run(&topo, &config, &ParallelRunner::serial())
                .expect("trace fits topology");
            assert_eq!(
                original.fct, replayed.fct,
                "{}: FCT summary",
                original.scheme
            );
            assert_eq!(
                original.records, replayed.records,
                "{}: raw records",
                original.scheme
            );
            assert_eq!(original.completed_flows, replayed.completed_flows);
            assert_eq!(original.total_flows, replayed.total_flows);
            assert_eq!(original.end_time, replayed.end_time);
            assert_eq!(original.drops, replayed.drops);
            assert_eq!(
                original.utilization().to_bits(),
                replayed.utilization().to_bits(),
                "{}: utilization",
                original.scheme
            );
            assert_eq!(original.policy_stats(), replayed.policy_stats());
        }
    }
}

#[test]
fn replay_through_parallel_runner_matches_serial_original() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthesize(&topo.hosts(), &incast_trace_params(17));
    let replay = ReplayTrace::from_csv_str(&export_csv(&trace)).expect("round trip");
    let configs: Vec<ExperimentConfig> = [Scheme::bfc(), Scheme::IdealFq]
        .into_iter()
        .map(|s| ExperimentConfig::new(s, SimDuration::from_micros(200)))
        .collect();
    let serial: Vec<_> = configs
        .iter()
        .map(|c| run_experiment(&topo, &trace, c))
        .collect();
    for threads in [1, 2, 4] {
        let parallel = replay
            .run_all(&topo, &configs, &ParallelRunner::new(threads))
            .expect("valid trace");
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.scheme, b.scheme, "{threads} threads");
            assert_eq!(a.fct, b.fct, "{threads} threads: {}", a.scheme);
            assert_eq!(a.records, b.records, "{threads} threads: {}", a.scheme);
            assert_eq!(a.end_time, b.end_time);
        }
    }
}

#[test]
fn replay_validation_rejects_bad_traces() {
    let topo = fat_tree(FatTreeParams::tiny());
    // Unknown endpoint: NodeId(500) is not a host of the tiny fabric.
    let replay = ReplayTrace::from_flows(vec![TraceFlow {
        src: topo.hosts()[0],
        dst: NodeId(500),
        size_bytes: 1_000,
        start: SimTime::ZERO,
        is_incast: false,
    }])
    .expect("non-empty");
    let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(10));
    assert!(matches!(
        replay.run(&topo, &config, &ParallelRunner::serial()),
        Err(ReplayError::UnknownHost {
            flow_index: 0,
            node: NodeId(500)
        })
    ));
    // Parse errors surface with their line numbers, empty traces are refused.
    let err = ReplayTrace::from_csv_str("src,dst,size_bytes,start_ns,is_incast\n1,1,5,0,0\n")
        .expect_err("self flow");
    assert!(err.to_string().contains("line 2"), "{err}");
    assert!(matches!(
        ReplayTrace::from_csv_str("src,dst,size_bytes,start_ns,is_incast\n"),
        Err(ReplayError::EmptyTrace)
    ));
}
