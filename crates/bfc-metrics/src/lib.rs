//! # bfc-metrics — evaluation metrics
//!
//! The paper reports four metrics (§4.1): flow-completion-time slowdown at
//! the tail (99th percentile, per flow-size bucket), overall network
//! utilization, switch buffer occupancy, and the fraction of time links are
//! paused by PFC. This crate computes all of them from the raw observations
//! the simulation driver collects:
//!
//! * [`fct`] — per-flow FCT records, slowdown computation and the per-size
//!   bucketed percentile summaries used by every FCT figure.
//! * [`stats`] — percentiles, means and CDF construction.
//! * [`series`] — time-series sampling (buffer occupancy, cumulative
//!   goodput per tick) with the cross-shard merges, and the utilization and
//!   pause-time fractions as functions of a run's sums.
//! * [`recovery`] — fault-recovery metrics for runs with network dynamics
//!   (blackholed packets, reroute count, time-to-recover, goodput dip
//!   depth), one function of the run's blackhole count, applied faults and
//!   goodput.
//! * [`safety`] — the safety detectors the PFC/BFC community cares about:
//!   circular buffer-dependency (PFC deadlock) detection over the pause
//!   wait-for graph, pause-storm metrics, and livelock detection, with the
//!   pause-duration distribution from the same replay of the edge log.
//! * [`registry`] — the unified counter/gauge/histogram registry:
//!   per-switch, per-scheme and engine-internal series under
//!   Prometheus-style names, with deterministic cross-shard merge and text
//!   exposition.
//! * [`hist`] — deterministic log-bucketed histograms (fixed boundaries,
//!   exact cross-shard merge, ≤12.5% quantile error) backing the
//!   registry's native FCT/pause/queue-depth distributions.

pub mod fct;
pub mod hist;
pub mod recovery;
pub mod registry;
pub mod safety;
pub mod series;
pub mod stats;

pub use fct::{FctRecord, FctSummary, SizeBucket};
pub use hist::Hist;
pub use recovery::{recovery_metrics, RecoveryMetrics};
pub use registry::MetricsRegistry;
pub use safety::{SafetyReport, SafetyTracker};
pub use series::{pfc_pause_fraction, utilization, GoodputSeries, OccupancySeries};
pub use stats::{build_cdf, mean, percentile};
