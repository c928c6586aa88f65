//! # bfc-experiments — the paper's evaluation harness
//!
//! This crate glues the whole reproduction together:
//!
//! * [`scheme`] — the registry of evaluated schemes (BFC, BFC-VFID, Ideal-FQ,
//!   DCQCN, DCQCN+Win, DCQCN+Win+SFQ, HPCC, SFQ+InfBuffer) mapping each to a
//!   switch configuration, a queue policy and a host configuration.
//! * [`runner`] — what a run is made of: [`runner::ExperimentConfig`], the
//!   fabric model (switches, hosts and per-event handlers for the nodes one
//!   worker owns) and the merge of finished workers into an
//!   [`runner::ExperimentResult`] — FCT records, buffer occupancy samples,
//!   utilization, PFC pause time and policy statistics. Each run is a pure,
//!   `Send` unit of work.
//! * `engine` (crate-private) — the one engine every entry point composes:
//!   `build` / `restore` a fabric partitioned into workers, `advance` it to
//!   an instant (the only event loop in the crate; any instant is a valid
//!   cut at any shard count), `step` a one-worker engine by a single event,
//!   `admit` a flow, `save` it, `finish` it. [`run_experiment`] is
//!   build(1) · advance(deadline) · finish; the serial engine is the
//!   one-worker case, not a second implementation.
//! * [`parallel`] — the [`parallel::ParallelRunner`]: fans independent
//!   (scheme, sweep-point, seed) runs across `std::thread` workers with
//!   order-preserving result collection, so every figure is bit-identical
//!   at any thread count (`BFC_THREADS`, read once), and carries the shard
//!   count each run is split into (`--shards`).
//! * [`sharded`] — within-run parallelism: the [`sharded::ShardPlan`] that
//!   splits one large fabric's switches and hosts across shards advancing in
//!   conservative lockstep epochs ([`sharded::run_experiment_sharded`]),
//!   bit-identical at any shard count.
//! * [`replay`] — the [`replay::ReplayTrace`] path: imported CSV traces
//!   (see `bfc_workloads::io`) validated against a topology and replayed
//!   through the same driver with bit-identical results; the `trace-tool`
//!   binary (`synth` / `stats` / `replay` / `scenario`) is its CLI front end.
//! * [`scenario`] — the [`scenario::ScenarioSpec`] layer over
//!   `bfc_net::dynamics`: link-fault scenarios written by label (builder API
//!   or a small text format) and resolved into executable fault schedules
//!   that thread through `run_experiment` / `ParallelRunner` / `ReplayTrace`
//!   via `ExperimentConfig::dynamics`.
//! * [`fuzz`] — the adversarial scenario fuzzer: a seeded random search over
//!   (topology, workload, fault schedule) scored by tail latency, goodput
//!   dip, recovery time or safety violations, with greedy shrinking to
//!   minimal text reproducers (`trace-tool fuzz` is its CLI front end).
//! * [`service`] — service mode: deterministic snapshot/restore of complete
//!   runs ([`service::snapshot_experiment`] / [`service::resume_experiment`],
//!   bit-identical resumes from any instant at any shard count) and
//!   streaming ingest under an inflight cap
//!   ([`service::serve_experiment`]); `trace-tool`'s
//!   `snapshot` / `resume` / `serve` subcommands are its CLI front end.
//! * [`figures`] — one module per paper table/figure. Each `run` function
//!   regenerates the figure's [`table::Table`]s; [`figures::FIGURES`] lists
//!   them for the `fig` binary (`fig <NN|all>`), and the smoke tests
//!   (`tests/fig_smoke.rs`) call the same functions at quick scale and read
//!   the tables' cells.
//! * [`table`] — a results table as data, and the one renderer that pads
//!   its cells: every figure and every `trace-tool` results table prints
//!   through it.
//! * [`cli`] — the command-line shell as a library: one pull parser
//!   ([`cli::Args`]), an output pair ([`cli::Io`]) and every `trace-tool` /
//!   `fig` command as a function of the two, so the binaries are a dozen
//!   lines and `tests/cli.rs` drives each command in-process.
//!
//! Absolute numbers differ from the paper (different simulator, synthetic
//! CDFs, scaled-down run lengths by default) but the comparisons the paper
//! makes — who wins, by roughly what factor, and where behaviour crosses
//! over — are preserved. See the README section "Examples and figures".

pub mod cli;
mod engine;
pub mod figures;
pub mod fuzz;
pub mod parallel;
pub mod replay;
pub mod runner;
pub mod scenario;
pub mod scheme;
pub mod service;
pub mod sharded;
pub mod table;

pub use fuzz::{FuzzConfig, FuzzOutcome, Objective, Reproducer};
pub use parallel::ParallelRunner;
pub use replay::{ReplayError, ReplayTrace};
pub use bfc_sim::shard::{EpochStats, ShardWall};
pub use runner::{run_experiment, ExperimentConfig, ExperimentResult, MAX_HORIZON};
pub use scenario::{ScenarioError, ScenarioSpec};
pub use scheme::Scheme;
pub use service::{
    resume_experiment, serve_experiment, serve_experiment_with, snapshot_experiment,
    spawn_scrape_server, MetricsHub, ServeError, ServeReport, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use sharded::{run_experiment_sharded, ShardError, ShardPlan};
