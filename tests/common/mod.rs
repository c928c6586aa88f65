//! The result comparator shared by the engine-equivalence suites.

use backpressure_flow_control::experiments::ExperimentResult;

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
        a.utilization.to_bits(),
        b.utilization.to_bits(),
        "{label}: utilization"
    );
    assert_eq!(
        a.pfc_pause_fraction.to_bits(),
        b.pfc_pause_fraction.to_bits(),
        "{label}: PFC pause fraction"
    );
    assert_eq!(a.policy_stats, b.policy_stats, "{label}: policy stats");
    assert_eq!(a.drops, b.drops, "{label}: drops");
    assert_eq!(a.completed_flows, b.completed_flows, "{label}: completions");
    assert_eq!(a.total_flows, b.total_flows, "{label}: flow count");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
    assert_eq!(a.recovery, b.recovery, "{label}: recovery metrics");
    assert_eq!(a.safety, b.safety, "{label}: safety report");
}
