//! The result comparator and fingerprint shared by the engine-equivalence
//! suites.
#![allow(dead_code)] // each suite uses its own half

use std::fmt::Write;

use backpressure_flow_control::experiments::{ExperimentConfig, ExperimentResult};
use backpressure_flow_control::sim::snapshot::checksum64;
use backpressure_flow_control::sim::{SimDuration, SimTime};
use backpressure_flow_control::workloads::ingest::{IngestError, IngestSource};
use backpressure_flow_control::workloads::TraceFlow;

/// A finished trace as an ingest source.
pub struct Flows(std::vec::IntoIter<TraceFlow>);

impl Flows {
    pub fn new(trace: &[TraceFlow]) -> Flows {
        Flows(trace.to_vec().into_iter())
    }
}

impl IngestSource for Flows {
    fn next_flow(&mut self) -> Result<Option<TraceFlow>, IngestError> {
        Ok(self.0.next())
    }
}

/// One of four kinds of snapshot cut instant; `frac` places the last kind.
pub fn cut_instant(kind: u64, frac: f64, config: &ExperimentConfig) -> SimTime {
    let deadline = SimTime::ZERO + config.horizon + config.drain;
    match kind % 4 {
        0 => SimTime::ZERO,
        // Half a microsecond into the first fault (the generator's faults
        // all last at least five).
        1 => config.dynamics.events()[0].at + SimDuration::from_nanos(500),
        2 => deadline + SimDuration::from_micros(1),
        // Anywhere in the busy part of the run, to the picosecond.
        _ => SimTime::from_picos((frac * config.horizon.as_picos() as f64) as u64),
    }
}

/// Field-by-field bit-identity, including every float compared by its bits.
pub fn assert_identical(label: &str, a: &ExperimentResult, b: &ExperimentResult) {
    assert_eq!(a.scheme, b.scheme, "{label}: scheme");
    assert_eq!(a.fct, b.fct, "{label}: FCT summary");
    assert_eq!(a.records, b.records, "{label}: per-flow records");
    assert_eq!(
        a.occupancy.samples(),
        b.occupancy.samples(),
        "{label}: occupancy series"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&a.peak_queue_samples),
        bits(&b.peak_queue_samples),
        "{label}: peak queue series"
    );
    assert_eq!(
        bits(&a.occupied_queue_samples),
        bits(&b.occupied_queue_samples),
        "{label}: occupied queue series"
    );
    assert_eq!(
        a.utilization().to_bits(),
        b.utilization().to_bits(),
        "{label}: utilization"
    );
    assert_eq!(
        a.pfc_pause_fraction().to_bits(),
        b.pfc_pause_fraction().to_bits(),
        "{label}: PFC pause fraction"
    );
    assert_eq!(a.policy_stats(), b.policy_stats(), "{label}: policy stats");
    assert_eq!(a.drops, b.drops, "{label}: drops");
    assert_eq!(a.completed_flows, b.completed_flows, "{label}: completions");
    assert_eq!(a.total_flows, b.total_flows, "{label}: flow count");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
    assert_eq!(a.recovery, b.recovery, "{label}: recovery metrics");
    assert_eq!(a.safety, b.safety, "{label}: safety report");
}

/// Every field [`assert_identical`] compares, floats by their bits, folded
/// into one number — so a result can be compared with one recorded by an
/// earlier commit, not just with another run of this one.
pub fn fingerprint(r: &ExperimentResult) -> u64 {
    let mut text = String::new();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    // `{:?}` of an `f64` is its shortest round-trip form: distinct values
    // print differently, so the Debug text of a struct pins its floats too.
    write!(
        text,
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{}|{}|{}|{}|{:?}|{:?}",
        r.scheme,
        r.fct,
        r.records,
        bits(r.occupancy.samples()),
        bits(&r.peak_queue_samples),
        bits(&r.occupied_queue_samples),
        r.utilization().to_bits(),
        r.pfc_pause_fraction().to_bits(),
        r.policy_stats(),
        r.drops,
        r.completed_flows,
        r.total_flows,
        r.end_time.as_picos(),
        r.recovery,
        r.safety,
    )
    .expect("writing to a String cannot fail");
    checksum64(text.as_bytes())
}
