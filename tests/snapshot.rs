//! Checkpoint/restore acceptance tests.
//!
//! 1. The bit-identity contract: for every paper-lineup scheme ×
//!    (synthetic workload, CSV trace replay, link-fault scenario), a run
//!    snapshotted mid-flight and resumed produces an `ExperimentResult`
//!    identical field-for-field (floats by bits) to the uninterrupted run,
//!    for the serial engine and for the sharded engine at 1, 2 and 4 shards.
//! 2. Snapshot-instant coverage: the cut can land before the first event,
//!    anywhere in the middle, or after the last event; a shard request the
//!    plan clamps to one worker snapshots as one worker.
//! 3. Robustness: corrupted, truncated, version-skewed or mismatched
//!    snapshots are rejected with the right `SnapError`, never a wrong
//!    result.
//! 4. Streaming ingest: serving a finished trace through `CsvTail` with an
//!    uncontended inflight cap reproduces the batch run bit-identically,
//!    and a tight cap still completes every admitted flow.

use backpressure_flow_control::experiments::service::{
    resume_experiment, serve_experiment, snapshot_experiment,
};
use backpressure_flow_control::experiments::{
    run_experiment, run_experiment_sharded, ExperimentConfig, ExperimentResult, ReplayTrace,
    ScenarioSpec, Scheme,
};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::net::{Link, TopologyBuilder};
use backpressure_flow_control::sim::{SimDuration, SimTime, SnapError};
use backpressure_flow_control::workloads::{
    export_csv, synthesize, CsvTail, TraceFlow, TraceParams, Workload,
};

const WINDOW: SimDuration = SimDuration::from_micros(120);

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn synthetic_trace(topo: &Topology, seed: u64) -> Vec<TraceFlow> {
    synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.5, WINDOW, seed),
    )
}

/// Field-by-field bit-identity, including every float compared by its bits.
fn assert_identical(label: &str, a: &ExperimentResult, b: &ExperimentResult) {
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
}

/// Snapshot mid-run at each shard count, resume, and compare against the
/// uninterrupted run. The serial baseline doubles as the uninterrupted
/// sharded result: `tests/sharding.rs` proves the sharded engine equals the
/// serial one at every shard count, so one spot-check per call keeps the
/// chain honest without rerunning the whole cross product.
fn compare_resume(label: &str, topo: &Topology, trace: &[TraceFlow], config: &ExperimentConfig) {
    let uninterrupted = run_experiment(topo, trace, config);
    let at = SimTime::ZERO + us(60);
    for shards in [1usize, 2, 4] {
        let snap = snapshot_experiment(topo, trace, config, at, shards);
        let resumed = resume_experiment(topo, trace, config, &snap)
            .unwrap_or_else(|e| panic!("{label} @ {shards} shards: resume failed: {e}"));
        assert_identical(&format!("{label} @ {shards} shards"), &uninterrupted, &resumed);
    }
    let spot = run_experiment_sharded(topo, trace, config, 2);
    assert_identical(&format!("{label}: sharded baseline"), &uninterrupted, &spot);
}

/// Acceptance (synthetic): every paper-lineup scheme survives a mid-run
/// snapshot/resume bit-identically at 1/2/4 shards.
#[test]
fn paper_lineup_resumes_bit_identically_synthetic() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 23);
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, WINDOW);
        compare_resume(&format!("synthetic/{name}"), &topo, &trace, &config);
    }
}

/// Acceptance (trace replay): the CSV round-trip path snapshots and resumes
/// bit-identically for every lineup scheme.
#[test]
fn paper_lineup_resumes_bit_identically_trace_replay() {
    let topo = fat_tree(FatTreeParams::tiny());
    let params = TraceParams {
        incast_fan_in: 6,
        incast_total_bytes: 300_000,
        ..TraceParams::google_with_incast(WINDOW, 31)
    };
    let trace = synthesize(&topo.hosts(), &params);
    let replay = ReplayTrace::from_csv_str(&export_csv(&trace)).expect("round trip");
    assert_eq!(replay.flows(), &trace[..]);
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, WINDOW);
        compare_resume(&format!("replay/{name}"), &topo, replay.flows(), &config);
    }
}

/// Acceptance (fault scenario): a link failure with repair — including the
/// cut landing while the link is down, so restored routing tables must be
/// recomputed from degraded link-state — resumes bit-identically for every
/// lineup scheme.
#[test]
fn paper_lineup_resumes_bit_identically_under_faults() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 37);
    let schedule = ScenarioSpec::single_link_down_up("tor0", "spine0", us(50), us(100))
        .resolve(&topo)
        .expect("tiny topology has tor0/spine0");
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, WINDOW).with_dynamics(schedule.clone());
        compare_resume(&format!("faults/{name}"), &topo, &trace, &config);
    }
}

/// Epoch batching × checkpoint/restore: with the sharded engine's adaptive
/// batching forced on or forced off, a mid-run cut still resumes
/// bit-identically at 1, 2 and 4 shards — and both modes land on the same
/// uninterrupted serial result. Batching only reschedules barriers; it must
/// never move an event or change what a snapshot captures.
#[test]
fn batched_epoch_runs_snapshot_resume_bit_identically_in_both_modes() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 47);
    for batching in [true, false] {
        let config = ExperimentConfig::new(Scheme::bfc(), WINDOW).with_epoch_batching(batching);
        compare_resume(&format!("batching={batching}/BFC"), &topo, &trace, &config);
    }
}

/// The cut can land anywhere: before the first event, at several points in
/// the middle, and after the last event, serially and sharded.
#[test]
fn snapshot_instant_can_be_anywhere_in_the_run() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 41);
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let uninterrupted = run_experiment(&topo, &trace, &config);
    for at_us in [0u64, 1, 30, 90, 119, 100_000] {
        let at = SimTime::ZERO + us(at_us);
        for shards in [1usize, 2] {
            let snap = snapshot_experiment(&topo, &trace, &config, at, shards);
            let resumed = resume_experiment(&topo, &trace, &config, &snap)
                .unwrap_or_else(|e| panic!("at {at_us} us / {shards} shards: {e}"));
            assert_identical(
                &format!("cut at {at_us} us @ {shards} shards"),
                &uninterrupted,
                &resumed,
            );
        }
    }
}

/// A shard request the plan clamps: a one-switch star admits one worker, so
/// a 2-shard snapshot is the one-worker snapshot — same bytes, same resumed
/// result as the serial run.
#[test]
fn a_clamped_shard_request_snapshots_as_one_worker() {
    let topo = one_switch_star();
    let trace = synthetic_trace(&topo, 53);
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let uninterrupted = run_experiment(&topo, &trace, &config);
    let at = SimTime::ZERO + us(60);
    let snap = snapshot_experiment(&topo, &trace, &config, at, 2);
    assert_eq!(snap, snapshot_experiment(&topo, &trace, &config, at, 1));
    let resumed = resume_experiment(&topo, &trace, &config, &snap).expect("resumes");
    assert_identical("one-switch star, 2 shards requested", &uninterrupted, &resumed);
}

/// Four hosts on one switch: the smallest fabric that runs traffic, so its
/// snapshot is small enough to damage at every byte.
fn one_switch_star() -> Topology {
    let mut star = TopologyBuilder::new();
    let hub = star.add_switch("hub");
    for i in 0..4 {
        let host = star.add_host(format!("h{i}"));
        star.connect(host, hub, Link::datacenter_default());
    }
    star.build()
}

/// Corrupted containers are rejected with precise errors, never decoded.
#[test]
fn damaged_snapshots_are_rejected() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 43);
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let snap = snapshot_experiment(&topo, &trace, &config, SimTime::ZERO + us(60), 1);

    // A flipped payload byte fails the checksum.
    let mut flipped = snap.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(matches!(
        resume_experiment(&topo, &trace, &config, &flipped),
        Err(SnapError::BadChecksum)
    ));

    // Another format version — a future one, version 6 with a `busy` flag
    // where a transmitter's serialization end now is, or version 5 with its
    // bytewise checksum — is refused by number, not misdecoded.
    assert_eq!(snap[8..12], 7u32.to_le_bytes(), "this build writes version 7");
    for version in [99u32, 6, 5] {
        let mut versioned = snap.clone();
        versioned[8..12].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            resume_experiment(&topo, &trace, &config, &versioned),
            Err(SnapError::BadVersion(v)) if v == version
        ));
    }

    // Wrong magic: not one of ours.
    let mut magicked = snap.clone();
    magicked[0] ^= 0xFF;
    assert!(matches!(
        resume_experiment(&topo, &trace, &config, &magicked),
        Err(SnapError::BadMagic)
    ));

    // Truncations at every interesting boundary read as short input.
    for cut in [0, 4, 12, 19, snap.len() - 9, snap.len() - 1] {
        assert!(
            matches!(
                resume_experiment(&topo, &trace, &config, &snap[..cut]),
                Err(SnapError::UnexpectedEof)
            ),
            "truncation to {cut} bytes must be UnexpectedEof"
        );
    }

    // An intact snapshot resumed against different inputs (here: another
    // seed, hence another trace/config fingerprint) is rejected loudly.
    let other = ExperimentConfig::new(Scheme::bfc(), WINDOW).with_seed(99);
    assert!(matches!(
        resume_experiment(&topo, &trace, &other, &snap),
        Err(SnapError::Corrupt(_))
    ));

    // And the undamaged snapshot still resumes fine afterwards.
    assert!(resume_experiment(&topo, &trace, &config, &snap).is_ok());
}

/// A real snapshot damaged at every byte: each proper prefix reads as short
/// input and each single-byte flip is refused (by the magic, the version, the
/// length or the checksum) before any payload is decoded.
#[test]
fn a_snapshot_damaged_at_any_byte_is_rejected() {
    let topo = one_switch_star();
    let trace = synthetic_trace(&topo, 59);
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let snap = snapshot_experiment(&topo, &trace, &config, SimTime::ZERO + us(60), 1);
    assert!(resume_experiment(&topo, &trace, &config, &snap).is_ok());
    for cut in 0..snap.len() {
        assert!(
            matches!(
                resume_experiment(&topo, &trace, &config, &snap[..cut]),
                Err(SnapError::UnexpectedEof)
            ),
            "truncation to {cut} bytes must be UnexpectedEof"
        );
    }
    let mut bad = snap.clone();
    for i in 0..snap.len() {
        bad[i] ^= 0x01;
        assert!(
            resume_experiment(&topo, &trace, &config, &bad).is_err(),
            "flip at byte {i} accepted"
        );
        bad[i] ^= 0x01;
    }
}

/// Streaming ingest: a finished trace served through `CsvTail` with an
/// uncontended cap is bit-identical to the batch run on the same flows, and
/// a tight cap still admits and completes everything.
#[test]
fn serving_a_finished_trace_matches_the_batch_run() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 47);
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let batch = run_experiment(&topo, &trace, &config);

    let mut path = std::env::temp_dir();
    path.push(format!("bfc-snapshot-serve-{}.csv", std::process::id()));
    std::fs::write(&path, export_csv(&trace)).expect("write trace");

    // Cap >= trace length: admission never waits, so every flow keeps its
    // original start time and the run replays the batch schedule exactly.
    let mut tail = CsvTail::open(&path, false).expect("open");
    let wide = serve_experiment(&topo, &config, &mut tail, trace.len().max(1))
        .expect("serve with uncontended cap");
    assert_eq!(wide.admitted, trace.len());
    assert_identical("serve/uncontended", &batch, &wide.result);

    // A tight cap forces the backpressure path; timing may shift (arrivals
    // are clamped to the simulation's progress) but nothing is lost.
    let mut tail = CsvTail::open(&path, false).expect("open again");
    let tight = serve_experiment(&topo, &config, &mut tail, 4).expect("serve with tight cap");
    assert_eq!(tight.admitted, trace.len());
    assert_eq!(tight.result.total_flows, trace.len());
    assert_eq!(
        tight.result.completed_flows, tight.result.total_flows,
        "tight-cap serve must still complete every admitted flow"
    );
    let _ = std::fs::remove_file(&path);
}
