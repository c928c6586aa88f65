//! Cross-crate integration tests: full simulations on small fabrics checking
//! the qualitative results the paper reports.

use backpressure_flow_control::experiments::{run_experiment, ExperimentConfig, Scheme};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::SimDuration;
use backpressure_flow_control::workloads::{
    concurrent_long_flows, synthesize, ArrivalShape, IncastSchedule, TraceParams, Workload,
};

fn congested_trace(
    topo: &backpressure_flow_control::net::Topology,
    seed: u64,
) -> Vec<backpressure_flow_control::workloads::TraceFlow> {
    let params = TraceParams {
        workload: Workload::Google,
        load: 0.60,
        incast_load: 0.05,
        incast_fan_in: 6,
        incast_total_bytes: 400_000,
        duration: SimDuration::from_micros(300),
        host_gbps: 100.0,
        seed,
        arrivals: ArrivalShape::paper_default(),
        incast_schedule: IncastSchedule::paper_default(),
    };
    synthesize(&topo.hosts(), &params)
}

fn run(
    scheme: Scheme,
    topo: &backpressure_flow_control::net::Topology,
    trace: &[backpressure_flow_control::workloads::TraceFlow],
) -> backpressure_flow_control::experiments::ExperimentResult {
    let config = ExperimentConfig::new(scheme, SimDuration::from_micros(300));
    run_experiment(topo, trace, &config)
}

#[test]
fn all_schemes_deliver_every_flow_on_a_congested_fabric() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = congested_trace(&topo, 21);
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let r = run(scheme, &topo, &trace);
        assert_eq!(
            r.completed_flows, r.total_flows,
            "{name}: {}/{} flows completed",
            r.completed_flows, r.total_flows
        );
    }
}

#[test]
fn bfc_beats_dcqcn_at_the_tail_for_short_flows() {
    // The paper's headline claim (Fig. 5): BFC's 99th-percentile slowdown for
    // short flows is several times better than DCQCN's under load with
    // incast. Verify the ordering (not the exact factor) on a small fabric,
    // averaged over seeds to avoid flakiness.
    let topo = fat_tree(FatTreeParams::tiny());
    let mut bfc_total = 0.0;
    let mut dcqcn_total = 0.0;
    for seed in [3u64, 5, 8] {
        let trace = congested_trace(&topo, seed);
        let bfc = run(Scheme::bfc(), &topo, &trace);
        let dcqcn = run(
            Scheme::Dcqcn {
                window: false,
                sfq: false,
            },
            &topo,
            &trace,
        );
        let short_p99 = |r: &backpressure_flow_control::experiments::ExperimentResult| {
            r.fct
                .buckets
                .iter()
                .filter(|b| b.bucket.hi <= 10_000)
                .map(|b| b.p99)
                .fold(0.0, f64::max)
        };
        bfc_total += short_p99(&bfc);
        dcqcn_total += short_p99(&dcqcn);
    }
    assert!(
        bfc_total < dcqcn_total,
        "BFC short-flow p99 ({bfc_total:.2} summed) should beat DCQCN ({dcqcn_total:.2} summed)"
    );
}

#[test]
fn bfc_tracks_ideal_fq_within_a_small_factor() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = congested_trace(&topo, 4);
    let bfc = run(Scheme::bfc(), &topo, &trace);
    let ideal = run(Scheme::IdealFq, &topo, &trace);
    let b = bfc.fct.overall.as_ref().expect("bfc summary").p99;
    let i = ideal.fct.overall.as_ref().expect("ideal summary").p99;
    assert!(
        b <= i * 6.0 + 2.0,
        "BFC overall p99 ({b:.2}) should be within a small factor of Ideal-FQ ({i:.2})"
    );
}

#[test]
fn bfc_keeps_tail_buffer_occupancy_below_dcqcn() {
    // Fig. 6a: BFC's buffer occupancy distribution sits well below DCQCN's.
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = congested_trace(&topo, 13);
    let bfc = run(Scheme::bfc(), &topo, &trace);
    let dcqcn = run(
        Scheme::Dcqcn {
            window: false,
            sfq: false,
        },
        &topo,
        &trace,
    );
    let b = bfc.occupancy.percentile_bytes(99.0);
    let d = dcqcn.occupancy.percentile_bytes(99.0);
    assert!(
        b <= d,
        "BFC p99 occupancy ({b} B) should not exceed DCQCN's ({d} B)"
    );
}

#[test]
fn bfc_is_lossless_and_sustains_utilization_under_incast() {
    // Fig. 8: under a pure incast plus long-lived flows, BFC avoids drops
    // (PFC backstop) and keeps goodput high.
    let topo = fat_tree(FatTreeParams::tiny());
    let hosts = topo.hosts();
    let trace = concurrent_long_flows(&hosts, hosts[0], 7, 300_000);
    let mut config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(300));
    config.drain = SimDuration::from_micros(2_400);
    let r = run_experiment(&topo, &trace, &config);
    assert_eq!(
        r.drops, 0,
        "BFC with its PFC backstop must not drop packets"
    );
    assert_eq!(r.completed_flows, r.total_flows);
    let policy = r.policy_stats();
    assert!(
        policy.pauses > 0 && policy.resumes > 0,
        "hop-by-hop pauses must be exercised"
    );
}

#[test]
fn dynamic_queue_assignment_collides_less_than_static_hashing() {
    // Fig. 7b: BFC's dynamic assignment nearly eliminates queue collisions
    // compared with the BFC-VFID straw proposal.
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = congested_trace(&topo, 17);
    let bfc = run(Scheme::bfc(), &topo, &trace);
    let straw = run(Scheme::bfc_vfid(), &topo, &trace);
    let bfc = bfc.policy_stats().collision_fraction();
    let straw = straw.policy_stats().collision_fraction();
    assert!(
        bfc <= straw,
        "dynamic assignment ({bfc:.4}) must not collide more than static hashing ({straw:.4})"
    );
}

#[test]
fn resume_limiting_caps_per_queue_buffering() {
    // Fig. 10: with the resume limit, the largest physical queue stays near a
    // couple of hop-BDPs regardless of flow count; without it, it grows.
    let topo = fat_tree(FatTreeParams::tiny());
    let hosts = topo.hosts();
    let trace = concurrent_long_flows(&hosts, hosts[0], 7, 200_000);
    let mut limited_cfg = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(300));
    limited_cfg.drain = SimDuration::from_micros(2_400);
    let limited = run_experiment(&topo, &trace, &limited_cfg);
    let mut unlimited_cfg = ExperimentConfig::new(
        Scheme::Bfc(backpressure_flow_control::core::BfcConfig::without_resume_limit()),
        SimDuration::from_micros(300),
    );
    unlimited_cfg.drain = SimDuration::from_micros(2_400);
    let unlimited = run_experiment(&topo, &trace, &unlimited_cfg);
    let p99 = |r: &backpressure_flow_control::experiments::ExperimentResult| {
        backpressure_flow_control::metrics::percentile(&r.peak_queue_samples, 99.0).unwrap_or(0.0)
    };
    assert!(
        p99(&limited) <= p99(&unlimited) + 1.0,
        "resume limiting ({:.0} B) must not buffer more than BFC-BufferOpt ({:.0} B)",
        p99(&limited),
        p99(&unlimited)
    );
}

#[test]
fn results_are_reproducible_across_runs() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = congested_trace(&topo, 2);
    let a = run(Scheme::bfc(), &topo, &trace);
    let b = run(Scheme::bfc(), &topo, &trace);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.policy_stats(), b.policy_stats());
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(x.fct, y.fct);
    }
}
