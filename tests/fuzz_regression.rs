//! Fuzzer regression tests.
//!
//! Every shrunk reproducer committed under `tests/scenarios/` must keep
//! replaying bit-identically on the serial engine and at 2 and 4 shards —
//! the worst cases the fuzzer has found are pinned as permanent regression
//! inputs. The fuzzer itself must stay a pure function of its config, and
//! the safety detectors must stay quiet across the paper's scheme lineup on
//! a healthy trace.

use std::path::Path;

use bfc_experiments::fuzz::{self, fuzz, FuzzConfig, Objective, Reproducer};
use bfc_experiments::{run_experiment, ExperimentConfig, Scheme};
use bfc_sim::SimDuration;
use bfc_workloads::{synthesize, TraceParams, Workload};

mod common;
use common::assert_identical;

#[test]
fn committed_reproducers_replay_bit_identically_across_shards() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/scenarios must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 2,
        "expected at least two committed reproducers in {}",
        dir.display()
    );
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable reproducer");
        let repro = Reproducer::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: committed reproducer must parse: {e}"));
        assert!(!repro.scenario.is_empty(), "{name}: reproducer has faults");
        let serial = repro.replay(1).expect("serial replay");
        assert!(
            serial.total_flows > 0,
            "{name}: reproducer synthesizes flows"
        );
        for shards in [2usize, 4] {
            let sharded = repro.replay(shards).expect("sharded replay");
            assert_identical(&format!("{name} @ {shards} shards"), &serial, &sharded);
        }
    }
}

#[test]
fn fixed_seed_fuzz_is_deterministic_and_round_trips() {
    let mut cfg = FuzzConfig::new();
    cfg.seed = 3;
    cfg.budget = 3;
    cfg.shrink_evals = 4;
    cfg.objective = Objective::GoodputDip;
    let a = fuzz(&cfg).expect("fuzz succeeds");
    let b = fuzz(&cfg).expect("fuzz succeeds");
    assert_eq!(a.reproducer, b.reproducer, "same config, same reproducer");
    assert_eq!(a.score.to_bits(), b.score.to_bits(), "same score bits");
    assert_eq!(a.original_score.to_bits(), b.original_score.to_bits());
    assert_eq!(a.evals, b.evals, "same evaluation count");
    assert_eq!(a.shrink_steps, b.shrink_steps, "same shrink path");
    // The serialized artifact is byte-stable and parses back to itself.
    let text = a.reproducer.to_string();
    assert_eq!(text, b.reproducer.to_string());
    // The search, the shrink and the text format are pinned: this config
    // has always written exactly these bytes.
    assert_eq!(
        text,
        "objective dip\n\
         topo tiny\n\
         scheme bfc\n\
         workload google\n\
         load 0.2\n\
         incast-load 0\n\
         fan-in 6\n\
         incast-bytes 242736\n\
         duration-us 60\n\
         trace-seed 372364\n\
         at 59us down tor1 spine1\n\
         at 78us up tor1 spine1\n"
    );
    assert_eq!(
        Reproducer::parse(&text).expect("display output parses"),
        a.reproducer
    );
    // Shrinking never loses the offending behaviour entirely.
    assert!(a.score >= 0.9 * a.original_score);
}

#[test]
fn pfc_pause_frames_reach_the_safety_tracker() {
    // A hard incast into a small shared buffer forces the PFC backstop on;
    // the frames the switches exchange must show up in the safety report
    // (the wiring witness — the detectors themselves are unit-tested in
    // bfc-metrics).
    let topo = fuzz::topology_by_name("tiny").expect("tiny always builds");
    let hosts = topo.hosts();
    let duration = SimDuration::from_micros(150);
    let params = TraceParams {
        host_gbps: topo.host_uplink(hosts[0]).link.rate_gbps,
        incast_load: 0.6,
        incast_fan_in: hosts.len() - 1,
        ..TraceParams::google_with_incast(duration, 1)
    };
    let trace = synthesize(&hosts, &params);
    let config = ExperimentConfig::new(
        Scheme::Dcqcn {
            window: false,
            sfq: false,
        },
        duration,
    )
    .with_buffer_bytes(40_000);
    let result = run_experiment(&topo, &trace, &config);
    assert!(
        result.pfc_pause_fraction() > 0.0,
        "incast under a tiny buffer must trip PFC"
    );
    assert!(
        result.safety.pause_frames > 0,
        "PFC frames must be recorded by the safety tracker"
    );
    assert!(result.safety.max_pause_depth >= 1);
}

#[test]
fn paper_lineup_reports_no_safety_violations_on_a_healthy_trace() {
    let topo = fuzz::topology_by_name("tiny").expect("tiny always builds");
    let hosts = topo.hosts();
    let duration = SimDuration::from_micros(200);
    let params = TraceParams {
        host_gbps: topo.host_uplink(hosts[0]).link.rate_gbps,
        ..TraceParams::background_only(Workload::Google, 0.3, duration, 1)
    };
    let trace = synthesize(&hosts, &params);
    for scheme in Scheme::paper_lineup() {
        let config = ExperimentConfig::new(scheme, duration);
        let result = run_experiment(&topo, &trace, &config);
        assert_eq!(
            result.safety.violations(),
            0,
            "{}: healthy run must not trip the safety detectors \
             (deadlocks {}, livelock {})",
            result.scheme,
            result.safety.deadlocks,
            result.safety.livelock,
        );
        assert_eq!(result.safety.deadlocks, 0, "{}: deadlocks", result.scheme);
        assert!(!result.safety.livelock, "{}: livelock", result.scheme);
    }
}
