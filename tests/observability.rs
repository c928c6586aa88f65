//! Observability acceptance tests.
//!
//! 1. The flight recorder is a pure observer: with tracing on or off, every
//!    `ExperimentResult` field (floats compared by bits) is identical for
//!    every paper-lineup scheme, serially and at 1/2/4 shards.
//! 2. The unified counter registry is engine-independent: serial and
//!    sharded runs expose the same series (engine internals excepted — the
//!    barrier/batch counters legitimately describe the engine that ran).
//! 3. The trace container round-trips byte-stably and rejects damaged
//!    input (foreign magic, version skew, truncation, bit flips) exactly
//!    like snapshot files do, and a well-framed body that does not decode
//!    (an overlong varint, a field too wide, an unknown kind, a forged
//!    record count) is an error, not a panic.
//! 4. Counters survive snapshot/resume.
//! 5. The committed PFC-deadlock reproducer's flight trace carries the
//!    pause wait-for edges the safety report convicts on.

use backpressure_flow_control::experiments::{
    resume_experiment, run_experiment, run_experiment_sharded, snapshot_experiment,
    ExperimentConfig, ExperimentResult, Reproducer, Scheme,
};
use backpressure_flow_control::metrics::percentile;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::net::trace::{
    read_trace, write_trace, TraceEvent, TraceFilter, TRACE_MAGIC, TRACE_VERSION,
};
use backpressure_flow_control::sim::snapshot::{finalize, SnapError};
use backpressure_flow_control::sim::{SimDuration, SimTime};
use backpressure_flow_control::workloads::{synthesize, TraceFlow, TraceParams, Workload};

mod common;
use common::assert_identical;

const WINDOW: SimDuration = SimDuration::from_micros(120);

fn test_inputs() -> (backpressure_flow_control::net::Topology, Vec<TraceFlow>) {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthesize(
        &topo.hosts(),
        &TraceParams::background_only(Workload::Google, 0.5, WINDOW, 41),
    );
    (topo, trace)
}

/// The exposition text minus the `bfc_engine_*` families, which describe
/// the engine that ran (barriers, batches, overflow chains) and so may
/// legitimately differ between the serial and sharded engines.
fn expose_without_engine(r: &ExperimentResult) -> String {
    r.registry
        .expose()
        .lines()
        .filter(|l| !l.contains("bfc_engine_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Acceptance: tracing on vs off is bit-identical for every lineup scheme,
/// serially and at 1/2/4 shards, and the registry matches across engines.
#[test]
fn tracing_is_a_pure_observer_for_every_scheme_and_engine() {
    let (topo, trace) = test_inputs();
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let off = ExperimentConfig::new(scheme.clone(), WINDOW);
        // Big enough that nothing is shed: with shedding, "last N per
        // shard" is not "last N overall", so the serial/sharded trace
        // comparison below only holds for complete rings.
        let on = ExperimentConfig::new(scheme, WINDOW).with_trace_capacity(1 << 21);

        let base = run_experiment(&topo, &trace, &off);
        assert!(base.flight.is_none(), "{name}: no recorder when off");
        let traced = run_experiment(&topo, &trace, &on);
        assert_identical(&format!("{name} serial on-vs-off"), &base, &traced);
        assert_eq!(
            base.registry.expose(),
            traced.registry.expose(),
            "{name}: registry must not see the recorder"
        );
        let flight = traced.flight.as_ref().expect("recorder was on");
        assert!(!flight.records.is_empty(), "{name}: events were recorded");
        assert_eq!(flight.dropped, 0, "{name}: ring must hold the whole run");

        for shards in [1usize, 2, 4] {
            let s_on = run_experiment_sharded(&topo, &trace, &on, shards);
            let s_off = run_experiment_sharded(&topo, &trace, &off, shards);
            let label = format!("{name} @ {shards} shards");
            assert_identical(&format!("{label} on-vs-serial"), &base, &s_on);
            assert_eq!(
                s_on.registry.expose(),
                s_off.registry.expose(),
                "{label}: registry on-vs-off"
            );
            assert_eq!(
                expose_without_engine(&base),
                expose_without_engine(&s_on),
                "{label}: serial and sharded runs must expose the same series"
            );
            // The merged trace is engine-independent too: canonical
            // (time, rank, seq) order makes the sharded trace equal the
            // serial one record-for-record.
            assert_eq!(
                traced.flight, s_on.flight,
                "{label}: merged trace differs from serial"
            );
            // So is the diff: same run at any shard count diverges nowhere.
            let serial_flight = traced.flight.as_ref().expect("recorder was on");
            let sharded_flight = s_on.flight.as_ref().expect("recorder was on");
            assert!(
                serial_flight.diff(sharded_flight).is_none(),
                "{label}: same-run traces must diff empty"
            );
            // Native histograms merge exactly: the sharded run's registry
            // carries bit-identical distributions (expose equality above
            // already covers the text; this pins the bucket vectors).
            for key in ["bfc_fct_slowdown_milli", "bfc_pause_duration_ns"] {
                assert_eq!(
                    base.registry.hist(key),
                    s_on.registry.hist(key),
                    "{label}: {key} must merge bit-identically"
                );
            }
        }
    }
}

/// `FlightTrace::diff` localizes a real divergence: two schemes over the
/// same inputs share a prefix (both traces start from the same seeded
/// events), then split; the report names the first diverging record and its
/// per-kind tails, and is index-symmetric.
#[test]
fn trace_diff_localizes_scheme_divergence() {
    let (topo, trace) = test_inputs();
    let on = |scheme| ExperimentConfig::new(scheme, WINDOW).with_trace_capacity(1 << 21);
    let a = run_experiment(&topo, &trace, &on(Scheme::bfc()));
    let flight_a = a.flight.expect("recorder was on");
    let b = run_experiment(
        &topo,
        &trace,
        &on(Scheme::Dcqcn {
            window: true,
            sfq: false,
        }),
    );
    let flight_b = b.flight.expect("recorder was on");

    let diff = flight_a
        .diff(&flight_b)
        .expect("different schemes must diverge");
    assert!(
        diff.index < flight_a.records.len().min(flight_b.records.len()),
        "divergence is a real record, not a length mismatch"
    );
    let first_a = diff.first_a.as_ref().expect("record exists at the index");
    let first_b = diff.first_b.as_ref().expect("record exists at the index");
    assert!(
        flight_a
            .records
            .iter()
            .take(diff.index)
            .eq(flight_b.records.iter().take(diff.index)),
        "everything before the divergence is a common prefix"
    );
    assert_ne!(
        (first_a.at, first_a.rank(), &first_a.event),
        (first_b.at, first_b.rank(), &first_b.event),
        "the named records actually differ"
    );
    assert!(!diff.kinds.is_empty(), "divergent tails have kind tallies");
    assert_eq!(diff.tail_a, flight_a.records.len() - diff.index);
    assert_eq!(diff.tail_b, flight_b.records.len() - diff.index);

    let reverse = flight_b.diff(&flight_a).expect("diff is symmetric");
    assert_eq!(
        diff.index, reverse.index,
        "divergence index is direction-free"
    );
}

/// Record-time filtering is a pure observer too: results are bit-identical,
/// the kept records are exactly the admitted subsequence of the unfiltered
/// trace, and filtered events are not counted as ring drops.
#[test]
fn record_time_filter_prunes_without_perturbing() {
    let (topo, trace) = test_inputs();
    let unfiltered_config =
        ExperimentConfig::new(Scheme::bfc(), WINDOW).with_trace_capacity(1 << 21);
    let base = run_experiment(&topo, &trace, &unfiltered_config);
    let full = base.flight.as_ref().expect("recorder was on");

    // Kind 0 is `enqueue`; node 8 is the first ToR of the tiny fat-tree.
    let filter = TraceFilter::all()
        .with_kinds([0usize])
        .with_nodes([backpressure_flow_control::net::types::NodeId(8)]);
    let filtered_config = ExperimentConfig::new(Scheme::bfc(), WINDOW)
        .with_trace_capacity(1 << 21)
        .with_trace_filter(filter.clone());
    let run = run_experiment(&topo, &trace, &filtered_config);
    assert_identical("filter on-vs-off", &base, &run);
    let filtered = run.flight.expect("recorder was on");
    assert_eq!(filtered.dropped, 0, "filtered events are not ring drops");

    let want: Vec<_> = full
        .records
        .iter()
        .filter(|r| filter.admits(&r.event))
        .map(|r| (r.at, r.event.clone()))
        .collect();
    let got: Vec<_> = filtered
        .records
        .iter()
        .map(|r| (r.at, r.event.clone()))
        .collect();
    assert!(!got.is_empty(), "the filter admits some events in this run");
    assert_eq!(got, want, "kept records are the admitted subsequence");
}

/// The FCT slowdown histogram agrees with the exact per-flow records: same
/// population, and every bucket-quantile lands within one bucket width
/// (≤ 12.5% above) of the exact nearest-rank percentile from `fct.rs`.
#[test]
fn fct_histogram_quantiles_track_exact_percentiles() {
    let (topo, trace) = test_inputs();
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let result = run_experiment(&topo, &trace, &config);
    let hist = result
        .registry
        .hist("bfc_fct_slowdown_milli")
        .expect("FCT histogram is always recorded");

    // Recompute the exact milli-slowdowns the hot path observed.
    let milli: Vec<u64> = result
        .records
        .iter()
        .filter(|r| !r.is_incast)
        .map(|r| {
            let fct = r.fct.as_picos() as u128;
            let ideal = r.ideal_fct.as_picos().max(1) as u128;
            (fct * 1000 / ideal) as u64
        })
        .collect();
    assert!(!milli.is_empty(), "the run completes non-incast flows");
    assert_eq!(hist.count(), milli.len() as u64, "same population");
    assert_eq!(
        hist.sum(),
        milli.iter().map(|&v| v as u128).sum::<u128>(),
        "exact sum"
    );

    let values: Vec<f64> = milli.iter().map(|&v| v as f64).collect();
    for p in [50.0, 90.0, 99.0, 100.0] {
        let exact = percentile(&values, p).expect("non-empty") as u64;
        let est = hist.quantile(p / 100.0).expect("non-empty");
        assert!(
            est >= exact && est <= exact + exact / 8,
            "p{p}: bucket estimate {est} not within one bucket of exact {exact}"
        );
    }
}

/// The container format: a write/read/write round trip is byte-stable, and
/// damaged containers are rejected, never misdecoded.
#[test]
fn trace_container_round_trips_and_rejects_damage() {
    let (topo, trace) = test_inputs();
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW).with_trace_capacity(96);
    let result = run_experiment(&topo, &trace, &config);
    let flight = result.flight.expect("recorder was on");
    assert!(!flight.records.is_empty());

    let label = "round trip \"quoted\" label";
    let blob = write_trace(label, &flight);
    let (label2, flight2) = read_trace(&blob).expect("own output reads back");
    assert_eq!(label2, label);
    assert_eq!(flight2, flight, "records and shed count survive");
    assert_eq!(
        write_trace(&label2, &flight2),
        blob,
        "re-serialization is byte-stable"
    );

    // Foreign magic.
    let mut wrong_magic = blob.clone();
    wrong_magic[0] ^= 0x20;
    assert_eq!(read_trace(&wrong_magic).unwrap_err(), SnapError::BadMagic);
    // Version skew — a future version, version 2 with its fixed-width
    // records, or version 1 with its stored rank/seq and bytewise checksum —
    // is refused by number.
    for version in [99u32, 2, 1] {
        let mut skewed = blob.clone();
        skewed[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            read_trace(&skewed).unwrap_err(),
            SnapError::BadVersion(version)
        );
    }
    // Truncation at every prefix.
    for n in 0..blob.len() {
        assert!(read_trace(&blob[..n]).is_err(), "prefix {n} accepted");
    }
    // Every single-byte corruption is rejected (checksummed container).
    for i in 0..blob.len() {
        let mut bad = blob.clone();
        bad[i] ^= 0x01;
        assert!(read_trace(&bad).is_err(), "flip at byte {i} accepted");
    }
    // Trailing garbage is not silently ignored.
    let mut padded = blob.clone();
    padded.push(0);
    assert!(read_trace(&padded).is_err(), "trailing byte accepted");

    // Bodies behind a valid checksum, which only the decoder can refuse: a
    // record count, then record bytes (time delta, kind tag, fields).
    let forged = |count: u64, records: &[u8]| {
        let file = finalize(TRACE_MAGIC, TRACE_VERSION, |w| {
            w.put_str("forged");
            w.put_u64(0);
            w.put_u64(count);
            w.put_all(records);
        });
        read_trace(&file).map(|(_, trace)| trace)
    };
    let reroute = [0, 12, 5];
    let one = forged(1, &reroute).expect("a well-formed record reads back");
    assert_eq!(
        one.records.iter().map(|r| r.event).collect::<Vec<_>>(),
        [TraceEvent::Reroute { index: 5 }]
    );
    let corrupt = |what| Err(SnapError::Corrupt(what));
    assert_eq!(forged(1, &[0, 12, 0x85, 0x00]), corrupt("overlong varint"));
    let mut past_u64 = vec![0xff; 9];
    past_u64.extend([0x02, 12, 5]);
    assert_eq!(forged(1, &past_u64), corrupt("varint overflows u64"));
    // A PFC frame's port of 65 536.
    let wide_port = [0, 4, 1, 0x80, 0x80, 0x04, 1];
    assert_eq!(forged(1, &wide_port), corrupt("trace field exceeds u16"));
    assert_eq!(
        forged(1, &[0, 4, 1, 0, 2]),
        corrupt("trace flag out of range")
    );
    assert_eq!(forged(1, &[0, 13, 0]), corrupt("unknown trace event tag"));
    // A count the body cannot hold is refused before anything is reserved;
    // one it could hold runs out of records.
    for count in [u64::MAX, u64::MAX / 3, 2] {
        assert_eq!(forged(count, &reroute), Err(SnapError::UnexpectedEof));
    }
    let pfc_then_a_time = [0, 4, 1, 0, 1, 0];
    assert_eq!(forged(2, &pfc_then_a_time), Err(SnapError::UnexpectedEof));
}

/// Counters ride the snapshot: an interrupted-and-resumed run exposes the
/// same registry as the uninterrupted one.
#[test]
fn counters_survive_snapshot_resume() {
    let (topo, trace) = test_inputs();
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW);
    let mid = SimTime::ZERO + WINDOW / 2;

    let full = run_experiment(&topo, &trace, &config);
    let snap = snapshot_experiment(&topo, &trace, &config, mid, 1);
    let resumed = resume_experiment(&topo, &trace, &config, &snap).expect("snapshot resumes");
    assert_identical("serial resume", &full, &resumed);
    assert_eq!(
        full.registry.expose(),
        resumed.registry.expose(),
        "serial resume must reproduce every series, engine counters included"
    );

    let full2 = run_experiment_sharded(&topo, &trace, &config, 2);
    let snap2 = snapshot_experiment(&topo, &trace, &config, mid, 2);
    let resumed2 = resume_experiment(&topo, &trace, &config, &snap2).expect("snapshot resumes");
    assert_identical("sharded resume", &full2, &resumed2);
    assert_eq!(
        expose_without_engine(&full2),
        expose_without_engine(&resumed2),
        "sharded resume must reproduce every non-engine series"
    );

    // The native histograms ride the snapshot bit-for-bit, not just their
    // rendered text: bucket vectors, sums, and counts all survive.
    for key in ["bfc_fct_slowdown_milli", "bfc_pause_duration_ns"] {
        let want = full.registry.hist(key);
        assert!(want.is_some(), "{key} is always recorded");
        assert_eq!(want, resumed.registry.hist(key), "{key} serial resume");
        assert_eq!(want, full2.registry.hist(key), "{key} sharded merge");
        assert_eq!(want, resumed2.registry.hist(key), "{key} sharded resume");
    }
}

/// Acceptance: the committed PFC-deadlock reproducer convicts, and the
/// auto-dumpable flight trace carries the wait-for edges behind the
/// conviction — every consecutive pair of the first deadlock cycle is an
/// XOFF delivery in the trace, and the trace sees exactly the pause frames
/// the safety report counted.
#[test]
fn deadlock_reproducer_flight_trace_matches_safety_report() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/scenarios/pfc_deadlock_dcqcn_t1.scn"),
    )
    .expect("committed reproducer exists");
    let repro = Reproducer::parse(&text).expect("committed reproducer parses");
    let (topo, flows, config) = repro.materialize().expect("reproducer materializes");
    // A ring big enough to hold the whole run: nothing is shed, so the
    // trace must contain every pause frame the safety analysis saw.
    let config = config.with_trace_capacity(4_000_000);
    let result = run_experiment(&topo, &flows, &config);

    assert!(
        result.safety.deadlocks > 0,
        "the committed scenario must still deadlock"
    );
    let flight = result.flight.expect("recorder was on");
    assert_eq!(flight.dropped, 0, "ring was sized to hold the whole run");

    let edges = flight.pause_edges();
    let xoff: Vec<(u32, u32)> = edges
        .iter()
        .filter(|&&(_, _, _, pause)| pause)
        .map(|&(_, node, src, _)| (node.0, src.0))
        .collect();
    assert_eq!(
        xoff.len() as u64,
        result.safety.pause_frames,
        "trace and safety report must count the same pause frames"
    );

    let cycle = &result.safety.first_deadlock_cycle;
    assert!(
        cycle.len() >= 2,
        "a wait-for cycle has at least two members"
    );
    for i in 0..cycle.len() {
        let a = cycle[i];
        let b = cycle[(i + 1) % cycle.len()];
        assert!(
            xoff.contains(&(a.0, b.0)),
            "cycle edge sw{} -> sw{} missing from the flight trace",
            a.0,
            b.0
        );
    }

    // The divergence profiler pinpoints where BFC escapes the deadlock: the
    // same inputs under BFC split from the DCQCN trace no later than the
    // first safety violation — the root cause precedes the symptom.
    let mut bfc_config = config;
    bfc_config.scheme = Scheme::bfc();
    let bfc_result = run_experiment(&topo, &flows, &bfc_config);
    assert_eq!(
        bfc_result.safety.deadlocks, 0,
        "BFC must survive the reproducer"
    );
    let bfc_flight = bfc_result.flight.expect("recorder was on");
    let diff = flight
        .diff(&bfc_flight)
        .expect("different schemes must diverge");
    let first_at = diff
        .first_a
        .as_ref()
        .expect("divergence is inside both traces")
        .at;
    let deadlock_at = result
        .safety
        .first_deadlock_at
        .expect("deadlocking run records when");
    assert!(
        first_at <= deadlock_at,
        "first divergence {first_at:?} must not trail the deadlock {deadlock_at:?}"
    );
}
