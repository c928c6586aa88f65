//! Smoke tests for the whole evaluation surface: every scheme in
//! `Scheme::paper_lineup()` (plus the ablations that only appear in specific
//! figures) and every `figNN` figure function, all at quick scale on a tiny
//! config. The `fig` binary prints these same functions (`figures::FIGURES`),
//! so this suite keeps them from silently rotting.

use backpressure_flow_control::core::BfcConfig;
use backpressure_flow_control::experiments::figures::{
    self, failure_sweep, fig02, fig03, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12,
    fig13, fig14, Scale,
};
use backpressure_flow_control::experiments::{run_experiment, ExperimentConfig, Scheme};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::SimDuration;
use backpressure_flow_control::workloads::{synthesize, TraceParams, Workload};

/// Every scheme the paper evaluates — the Fig. 5 lineup plus the ablations
/// used by Figs. 7/10/11 — delivers all flows of a tiny trace.
#[test]
fn every_scheme_completes_a_tiny_trace() {
    let topo = fat_tree(FatTreeParams::tiny());
    let params = TraceParams::background_only(
        Workload::Google,
        0.3,
        SimDuration::from_micros(150),
        11,
    );
    let trace = synthesize(&topo.hosts(), &params);
    let mut schemes = Scheme::paper_lineup();
    schemes.push(Scheme::bfc_vfid());
    schemes.push(Scheme::Bfc(BfcConfig::without_resume_limit()));
    schemes.push(Scheme::Bfc(BfcConfig::without_high_priority_queue()));
    schemes.push(Scheme::SfqInfBuffer);
    for scheme in schemes {
        let name = scheme.name();
        let mut config = ExperimentConfig::new(scheme, SimDuration::from_micros(150));
        // Rate-based schemes (HPCC, DCQCN) can converge slowly on the last
        // straggler; give everyone a generous drain window.
        config.drain = SimDuration::from_micros(150) * 16;
        let result = run_experiment(&topo, &trace, &config);
        assert_eq!(
            result.completed_flows, result.total_flows,
            "{name}: {}/{} flows completed",
            result.completed_flows, result.total_flows
        );
    }
}

#[test]
fn fig01_hw_trends_smoke() {
    let t = figures::fig01::run();
    assert!(t.contains("Fig 1") && t.contains("Tomahawk3"));
}

#[test]
fn fig02_buffer_vs_speed_smoke() {
    let t = fig02::run(&Scale::quick());
    assert!(t.contains("Fig 2"), "unexpected output:\n{t}");
    // One row per swept link speed.
    for speed in ["10", "40", "100"] {
        assert!(t.contains(speed), "speed {speed} missing:\n{t}");
    }
}

#[test]
fn fig03_buffer_ratio_smoke() {
    let t = fig03::run(&Scale::quick());
    assert!(t.contains("Fig 3") && t.lines().count() >= 5, "unexpected output:\n{t}");
}

#[test]
fn fig04_workload_cdf_smoke() {
    let t = figures::fig04::run();
    for name in ["Google", "FB_Hadoop", "WebSearch"] {
        assert!(t.contains(name), "workload {name} missing:\n{t}");
    }
}

#[test]
fn fig05_all_panels_smoke() {
    let t = fig05::run(&Scale::quick());
    for panel in ["Fig 5a", "Fig 5b", "Fig 5c"] {
        assert!(t.contains(panel), "panel {panel} missing:\n{t}");
    }
    for scheme in ["BFC", "Ideal-FQ", "DCQCN", "DCQCN+Win", "HPCC", "DCQCN+Win+SFQ"] {
        assert!(t.contains(scheme), "scheme {scheme} missing:\n{t}");
    }
}

#[test]
fn fig06_buffer_pfc_smoke() {
    let t = fig06::run(&Scale::quick());
    assert!(t.contains("Fig 6") && t.contains("BFC"), "unexpected output:\n{t}");
}

#[test]
fn fig07_queue_assignment_smoke() {
    let t = fig07::run(&Scale::quick());
    assert!(t.contains("BFC-VFID") && t.contains("SFQ+InfBuffer"), "unexpected output:\n{t}");
}

#[test]
fn fig08_incast_fanin_smoke() {
    let scale = Scale::quick();
    let t = fig08::run(&scale);
    for f in fig08::fan_ins(&scale) {
        assert!(t.contains(&format!("{f:>6}")), "fan-in {f} missing:\n{t}");
    }
}

#[test]
fn fig09_cross_dc_smoke() {
    let t = fig09::run(&Scale::quick());
    assert!(t.contains("intra-DC") && t.contains("inter-DC"), "unexpected output:\n{t}");
}

#[test]
fn fig10_buffer_opt_smoke() {
    let t = fig10::run(&Scale::quick());
    assert!(t.contains("BFC-BufferOpt"), "unexpected output:\n{t}");
}

#[test]
fn fig11_high_priority_smoke() {
    let t = fig11::run(&Scale::quick());
    assert!(t.contains("BFC-HighPriorityQ"), "unexpected output:\n{t}");
}

#[test]
fn fig12_num_queues_smoke() {
    let scale = Scale::quick();
    let t = fig12::run(&scale);
    for q in fig12::queue_counts(&scale) {
        assert!(t.contains(&format!("{q:>6}")), "queue count {q} missing:\n{t}");
    }
}

#[test]
fn fig13_num_vfids_smoke() {
    let scale = Scale::quick();
    let t = fig13::run(&scale);
    for v in fig13::vfid_counts(&scale) {
        assert!(t.contains(&format!("{v:>6}")), "vfid count {v} missing:\n{t}");
    }
}

#[test]
fn fig14_bloom_size_smoke() {
    let t = fig14::run(&Scale::quick());
    for b in fig14::bloom_sizes() {
        assert!(t.contains(&format!("{b:>8}")), "bloom size {b} missing:\n{t}");
    }
}

#[test]
fn fig15_failure_sweep_smoke() {
    let t = failure_sweep::run(&Scale::quick());
    for shape in ["single down/up", "degraded core", "flapping"] {
        assert!(t.contains(shape), "shape {shape} missing:\n{t}");
    }
    for scheme in ["BFC", "DCQCN+Win", "HPCC"] {
        assert!(t.contains(scheme), "scheme {scheme} missing:\n{t}");
    }
    for k in failure_sweep::failure_counts() {
        assert!(
            t.contains(&format!("{k} links down")),
            "failure count {k} missing:\n{t}"
        );
    }
}
