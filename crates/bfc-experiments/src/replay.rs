//! Trace replay: feed an imported (or otherwise pre-built) trace through the
//! experiment driver instead of synthesizing one.
//!
//! [`ReplayTrace`] wraps a flow list loaded from the CSV format of
//! [`bfc_workloads::io`], validates it against the target topology (every
//! flow endpoint must be a real host), derives the measurement horizon from
//! the trace itself, and runs it through [`run_experiment`] — serially or
//! fanned across a [`ParallelRunner`]. Because `run_experiment` is a pure
//! function of `(topology, trace, config)`, a replayed trace produces
//! **bit-identical** results to the in-memory trace it was exported from.

use std::fmt;
use std::path::Path;

use bfc_net::topology::Topology;
use bfc_net::types::NodeId;
use bfc_sim::SimDuration;
use bfc_workloads::ingest::IngestError;
use bfc_workloads::io::{import_csv, read_csv_file, CsvError};
use bfc_workloads::TraceFlow;

use crate::parallel::ParallelRunner;
use crate::runner::{ExperimentConfig, ExperimentResult, MAX_HORIZON};
use crate::scheme::Scheme;

/// Why a trace could not be replayed.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace file could not be read.
    Io(std::io::Error),
    /// The trace file failed to parse (line-numbered).
    Csv(CsvError),
    /// The trace contains no flows.
    EmptyTrace,
    /// A flow endpoint is not a host of the topology.
    UnknownHost {
        /// Index of the offending flow in the trace.
        flow_index: usize,
        /// The unknown endpoint.
        node: NodeId,
    },
    /// The last arrival is later than [`MAX_HORIZON`].
    HorizonTooLong(SimDuration),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "reading trace: {e}"),
            ReplayError::Csv(e) => write!(f, "parsing trace: {e}"),
            ReplayError::EmptyTrace => write!(f, "trace contains no flows"),
            ReplayError::UnknownHost { flow_index, node } => write!(
                f,
                "flow {flow_index} uses {node:?}, which is not a host of the topology"
            ),
            ReplayError::HorizonTooLong(horizon) => write!(
                f,
                "the last flow starts at {horizon}, past the limit of {MAX_HORIZON} of simulated time"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<IngestError> for ReplayError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Io(e) => ReplayError::Io(e),
            IngestError::Csv(e) => ReplayError::Csv(e),
        }
    }
}

impl From<CsvError> for ReplayError {
    fn from(e: CsvError) -> Self {
        ReplayError::Csv(e)
    }
}

/// Checks that both endpoints of `flow`, the trace's flow `flow_index`, are
/// hosts of `topo`: the one check of a flow from outside, whether a replayed
/// trace holds it or a serve source streams it.
pub(crate) fn check_endpoints(
    topo: &Topology,
    flow_index: usize,
    flow: &TraceFlow,
) -> Result<(), ReplayError> {
    match [flow.src, flow.dst]
        .into_iter()
        .find(|&node| !topo.is_host(node))
    {
        Some(node) => Err(ReplayError::UnknownHost { flow_index, node }),
        None => Ok(()),
    }
}

/// A trace ready to be replayed through the experiment driver.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTrace {
    flows: Vec<TraceFlow>,
}

impl ReplayTrace {
    /// Wraps an in-memory flow list (must be non-empty, its last arrival no
    /// later than [`MAX_HORIZON`]).
    pub fn from_flows(flows: Vec<TraceFlow>) -> Result<Self, ReplayError> {
        if flows.is_empty() {
            return Err(ReplayError::EmptyTrace);
        }
        let replay = ReplayTrace { flows };
        match replay.horizon() {
            horizon if horizon > MAX_HORIZON => Err(ReplayError::HorizonTooLong(horizon)),
            _ => Ok(replay),
        }
    }

    /// Parses a trace from CSV text (see [`bfc_workloads::io`]).
    pub fn from_csv_str(text: &str) -> Result<Self, ReplayError> {
        ReplayTrace::from_flows(import_csv(text)?)
    }

    /// Reads and parses a trace CSV file.
    pub fn from_csv_path<P: AsRef<Path>>(path: P) -> Result<Self, ReplayError> {
        ReplayTrace::from_flows(read_csv_file(path)?)
    }

    /// The replayed flows, in arrival order.
    pub fn flows(&self) -> &[TraceFlow] {
        &self.flows
    }

    /// The measurement window the trace covers: the last arrival instant
    /// (clamped up to 1 µs so degenerate all-at-zero traces still get a
    /// non-empty window). Use it where a synthetic trace would use its
    /// `TraceParams::duration`.
    pub fn horizon(&self) -> SimDuration {
        let last = self
            .flows
            .iter()
            .map(|f| f.start)
            .max()
            .expect("ReplayTrace is never empty");
        last.saturating_since(bfc_sim::SimTime::ZERO)
            .max(SimDuration::from_micros(1))
    }

    /// A paper-default [`ExperimentConfig`] for this trace: the horizon is
    /// derived from the trace instead of from `TraceParams`.
    pub fn config(&self, scheme: Scheme) -> ExperimentConfig {
        ExperimentConfig::new(scheme, self.horizon())
    }

    /// Checks that every flow endpoint is a host of `topo`.
    pub fn validate(&self, topo: &Topology) -> Result<(), ReplayError> {
        for (flow_index, flow) in self.flows.iter().enumerate() {
            check_endpoints(topo, flow_index, flow)?;
        }
        Ok(())
    }

    /// Validates against `topo` and runs one experiment over the replayed
    /// trace — exactly [`run_experiment`] on the imported flows, split across
    /// `runner`'s shard count (results are identical at any).
    pub fn run(
        &self,
        topo: &Topology,
        config: &ExperimentConfig,
        runner: &ParallelRunner,
    ) -> Result<ExperimentResult, ReplayError> {
        self.validate(topo)?;
        Ok(runner.run_experiment(topo, &self.flows, config))
    }

    /// Validates once, then fans one run per config across `runner` —
    /// results in config order, bit-identical at any thread count.
    pub fn run_all(
        &self,
        topo: &Topology,
        configs: &[ExperimentConfig],
        runner: &ParallelRunner,
    ) -> Result<Vec<ExperimentResult>, ReplayError> {
        self.validate(topo)?;
        Ok(runner.run_experiments(topo, &self.flows, configs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use bfc_net::topology::{fat_tree, FatTreeParams};
    use bfc_sim::SimTime;
    use bfc_workloads::{export_csv, synthesize, TraceParams, Workload};

    fn small_trace(topo: &Topology) -> Vec<TraceFlow> {
        synthesize(
            &topo.hosts(),
            &TraceParams::background_only(Workload::Google, 0.3, SimDuration::from_micros(120), 5),
        )
    }

    #[test]
    fn replay_of_exported_csv_matches_in_memory_run() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = small_trace(&topo);
        let replay = ReplayTrace::from_csv_str(&export_csv(&trace)).expect("round trip");
        assert_eq!(replay.flows(), &trace[..]);
        let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(120));
        let original = run_experiment(&topo, &trace, &config);
        let replayed = replay
            .run(&topo, &config, &ParallelRunner::serial())
            .expect("valid trace");
        assert_eq!(original.fct, replayed.fct);
        assert_eq!(original.records, replayed.records);
        assert_eq!(original.end_time, replayed.end_time);
    }

    #[test]
    fn horizon_tracks_the_last_arrival() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = small_trace(&topo);
        let last = trace.iter().map(|f| f.start).max().expect("non-empty");
        let replay = ReplayTrace::from_flows(trace).expect("non-empty");
        assert_eq!(
            replay.horizon(),
            last.saturating_since(SimTime::ZERO)
                .max(SimDuration::from_micros(1))
        );
    }

    #[test]
    fn unknown_hosts_and_empty_traces_are_rejected() {
        let topo = fat_tree(FatTreeParams::tiny());
        assert!(matches!(
            ReplayTrace::from_flows(Vec::new()),
            Err(ReplayError::EmptyTrace)
        ));
        let bogus = vec![TraceFlow {
            src: NodeId(9_999),
            dst: topo.hosts()[0],
            size_bytes: 1_000,
            start: SimTime::ZERO,
            is_incast: false,
        }];
        let replay = ReplayTrace::from_flows(bogus).expect("non-empty");
        let err = replay
            .run(
                &topo,
                &ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(10)),
                &ParallelRunner::serial(),
            )
            .expect_err("bogus node id");
        assert!(matches!(
            err,
            ReplayError::UnknownHost {
                flow_index: 0,
                node: NodeId(9_999)
            }
        ));
    }
}
