//! # bfc-workloads — synthetic data-center traffic
//!
//! The paper evaluates BFC on synthetic traces whose flow sizes match three
//! published industry workloads (an aggregate of all applications in a Google
//! data center, a Facebook Hadoop cluster and the DCTCP web-search workload)
//! with log-normal (σ = 2) flow inter-arrival times, optionally mixed with
//! periodic large-fan-in incast events. This crate reproduces those traces:
//!
//! * [`distributions`] — empirical flow-size CDFs and samplers for the three
//!   workloads (plus helpers that regenerate the byte-weighted CDFs of
//!   Fig. 4).
//! * [`arrivals`] — offered-load arithmetic and the one arrival type,
//!   `ArrivalShape`: log-normal (paper default), Poisson, or bursty
//!   Markov-modulated on/off gaps, drawn at the mean a load asks for; plus
//!   the periodic / log-normal incast event schedules.
//! * [`trace`] — complete trace synthesis: random sender/receiver pairs over
//!   a host set, incast events (Fig. 5/8/11), long-lived flow patterns
//!   (Figs. 8 and 10) and the cross-data-center mix of Fig. 9.
//! * [`io`] — the std-only CSV trace format: `export_csv` / `import_csv`
//!   with strict line-numbered parse errors, file helpers (`read_csv_file`
//!   streams a file through `ingest::CsvTail`, one capped line resident at a
//!   time) and `TraceStats` summaries, so real cluster traces can be
//!   persisted and replayed.
//! * [`ingest`] — the one streaming reader of a trace file: `CsvTail` reads a
//!   finished file, a FIFO or (with `follow`) a growing file, with pull-based
//!   backpressure to the feeder; service mode admits flows from it.
//!
//! All generation is deterministic given a seed, and any trace round-trips
//! bit-exactly through the CSV form.

pub mod arrivals;
pub mod distributions;
pub mod ingest;
pub mod io;
pub mod trace;

pub use arrivals::{mean_interarrival_secs, ArrivalShape, IncastSchedule};
pub use distributions::{EmpiricalCdf, Workload};
pub use ingest::{CsvTail, IngestError, IngestSource, INGEST_END_MARKER};
pub use io::{export_csv, import_csv, CsvError, CsvErrorKind, TraceStats};
pub use trace::{
    concurrent_long_flows, cross_dc_trace, incast_trace, long_lived_per_receiver, synthesize,
    TraceFlow, TraceParams,
};
