//! # Backpressure Flow Control (BFC)
//!
//! A from-scratch Rust reproduction of *Backpressure Flow Control* (Goyal,
//! Shah, Sharma, Alizadeh, Anderson — NSDI 2022): per-hop, per-flow flow
//! control for RDMA data-center networks, together with the packet-level
//! simulator, baseline congestion-control schemes, workload generators and
//! evaluation harness needed to regenerate every table and figure of the
//! paper.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | Module | Crate | What it contains |
//! |---|---|---|
//! | [`sim`] | `bfc-sim` | deterministic discrete-event engine (clock, event queue, PRNG) |
//! | [`net`] | `bfc-net` | packets, links, switches, shared buffers, PFC, topologies, routing |
//! | [`core`] | `bfc-core` | **the paper's contribution**: the BFC switch policy (flow table, dynamic queue assignment, bloom-filter pauses, thresholds, high-priority queue) |
//! | [`transport`] | `bfc-transport` | host / NIC models: Go-Back-N, DCQCN, HPCC, window caps |
//! | [`workloads`] | `bfc-workloads` | Google / FB_Hadoop / WebSearch traces, incast, cross-DC mixes, CSV trace import/export |
//! | [`metrics`] | `bfc-metrics` | FCT slowdown, percentiles, occupancy, utilization, pause time |
//! | [`experiments`] | `bfc-experiments` | scheme registry, simulation driver, one module per figure, the `trace-tool` / `fig` command line |
//!
//! ## Quick start
//!
//! ```
//! use backpressure_flow_control::experiments::{run_experiment, ExperimentConfig, Scheme};
//! use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
//! use backpressure_flow_control::sim::SimDuration;
//! use backpressure_flow_control::workloads::{synthesize, TraceParams, Workload};
//!
//! // A small leaf-spine fabric and a short Google-like trace at 30% load.
//! let topo = fat_tree(FatTreeParams::tiny());
//! let trace = synthesize(
//!     &topo.hosts(),
//!     &TraceParams::background_only(Workload::Google, 0.3, SimDuration::from_micros(200), 42),
//! );
//!
//! // Run it under BFC and look at the tail latency.
//! let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(200));
//! let result = run_experiment(&topo, &trace, &config);
//! assert_eq!(result.completed_flows, result.total_flows);
//! let overall = result.fct.overall.expect("flows completed");
//! println!("p99 slowdown {:.2} over {} flows", overall.p99, overall.count);
//! ```
//!
//! The runnable examples in `examples/` show the same flow end to end
//! (`quickstart`) and a CSV trace's round trip (`trace_replay`),
//! `cargo run --release -p bfc-experiments --bin fig -- 05`
//! (`fig <NN|all> [--full]`) regenerates the paper's figures — the scheme
//! comparisons among them — and `cargo run
//! --release -p bfc-experiments --bin trace-tool` synthesizes, summarizes
//! and replays CSV traces (see the README's "Trace I/O and replay"
//! section).

pub use bfc_core as core;
pub use bfc_experiments as experiments;
pub use bfc_metrics as metrics;
pub use bfc_net as net;
pub use bfc_sim as sim;
pub use bfc_transport as transport;
pub use bfc_workloads as workloads;
