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
//! 4. The format: the bytes of twelve snapshots and a flight trace are
//!    pinned to what the parent of the `Snap` trait wrote, and a pending
//!    event that does not fit the run is refused at load.
//! 5. Streaming ingest: serving a finished trace through `CsvTail` with an
//!    uncontended inflight cap reproduces the batch run bit-identically,
//!    and a tight cap still completes every admitted flow.

use backpressure_flow_control::core::BfcConfig;
use backpressure_flow_control::experiments::service::{
    resume_experiment, serve_experiment, snapshot_experiment, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use backpressure_flow_control::experiments::{
    run_experiment, run_experiment_sharded, ExperimentConfig, ReplayTrace,
    ScenarioSpec, Scheme,
};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::net::trace::write_trace;
use backpressure_flow_control::net::{
    FlowId, Link, NetEvent, NodeId, Packet, TopologyBuilder, TransportTimer,
};
use backpressure_flow_control::sim::snapshot::{self, Snap, SnapReader};
use backpressure_flow_control::sim::{SimDuration, SimTime, SnapError};
use backpressure_flow_control::workloads::{
    export_csv, synthesize, CsvTail, TraceFlow, TraceParams, Workload,
};

mod common;
use common::assert_identical;

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

/// A resume rebuilds the link state from the fault schedule's events at or
/// before the cut, so a cut exactly on a fault instant — the link just went
/// down, or just came back — and one a picosecond before it each resume
/// bit-identically, for every lineup scheme at 1 and 2 shards.
#[test]
fn a_cut_on_a_fault_instant_resumes_bit_identically() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 37);
    let (down, up) = (us(50), us(100));
    let schedule = ScenarioSpec::single_link_down_up("tor0", "spine0", down, up)
        .resolve(&topo)
        .expect("tiny topology has tor0/spine0");
    let ps = SimDuration::from_picos(1);
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, WINDOW).with_dynamics(schedule.clone());
        let uninterrupted = run_experiment(&topo, &trace, &config);
        for cut in [down - ps, down, up - ps, up] {
            for shards in [1usize, 2] {
                let label = format!("{name} cut at {cut} @ {shards} shards");
                let snap = snapshot_experiment(&topo, &trace, &config, SimTime::ZERO + cut, shards);
                let resumed = resume_experiment(&topo, &trace, &config, &snap)
                    .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
                assert_identical(&label, &uninterrupted, &resumed);
            }
        }
    }
}

/// Epoch batching × checkpoint/restore: with the sharded engine's batching
/// forced on or forced off, a mid-run cut still resumes
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

    // Another format version — a future one, version 14 with a hash count
    // in each pause frame and a packet count in each sender and receiver
    // flow, version 13 with each sim's link state and a packet's class and
    // an ACK's sequence number held twice, version 12 with two totals a resumed run recounts (completed flows, goodput's running total),
    // version 11 with the state nothing read (BFC counters, port transmit
    // totals, the recovery fault log), version 10 without the egresses'
    // owed-sweep flags, version 9 with a per-sim FCT histogram, version 8
    // with three counters nobody read, version 7 with a goodput series in
    // each of two trackers, version 6 with a `busy` flag where a
    // transmitter's serialization end now is, or version 5 with its bytewise
    // checksum — is refused by number, not misdecoded.
    assert_eq!(
        snap[8..12],
        15u32.to_le_bytes(),
        "this build writes version 15"
    );
    for version in [99u32, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5] {
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

    // An intact snapshot resumed against different inputs — another seed,
    // another scheme, or any one of BFC's settings flipped — is rejected
    // loudly: each is a different input fingerprint.
    let bfc = BfcConfig::default();
    let others = [
        ExperimentConfig::new(Scheme::bfc(), WINDOW).with_seed(99),
        ExperimentConfig::new(Scheme::Hpcc, WINDOW),
        ExperimentConfig::new(Scheme::Bfc(bfc.with_num_vfids(1_024)), WINDOW),
        ExperimentConfig::new(Scheme::Bfc(bfc.with_bloom_bytes(64)), WINDOW),
        ExperimentConfig::new(Scheme::Bfc(BfcConfig::vfid_straw()), WINDOW),
        ExperimentConfig::new(
            Scheme::Bfc(BfcConfig::without_high_priority_queue()),
            WINDOW,
        ),
        ExperimentConfig::new(Scheme::Bfc(BfcConfig::without_resume_limit()), WINDOW),
    ];
    for other in &others {
        assert!(
            matches!(
                resume_experiment(&topo, &trace, other, &snap),
                Err(SnapError::Corrupt(_))
            ),
            "resumed against {:?}, seed {}",
            other.scheme,
            other.seed
        );
    }

    // The same tiny fat tree with 10 Gbps links has the same node and host
    // counts: only its links tell it apart.
    let slow = Link::new(10.0, SimDuration::from_micros(1));
    let slow_topo = fat_tree(FatTreeParams {
        host_link: slow,
        fabric_link: slow,
        ..FatTreeParams::tiny()
    });
    assert!(matches!(
        resume_experiment(&slow_topo, &trace, &config, &snap),
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

/// `(length, trailing container checksum)` of a `.snap` / `.flight` file. The
/// container's own trailer is what gets pinned: a `checksum64` over the whole
/// file is 0 whenever the length is a multiple of 8 (the last word cancels
/// the state it was computed from).
fn trailer(file: &[u8]) -> (usize, u64) {
    let sum = file[file.len() - 8..].try_into().expect("8-byte trailer");
    (file.len(), u64::from_le_bytes(sum))
}

/// `trailer` of the twelve snapshots and the one flight trace below, so a
/// codec change that is meant to keep the wire format leaves them alone and
/// one that is meant to move it re-records them with its version bump.
///
/// The flight trace is as written by commit 0022cd3 (`TRACE_VERSION` 2), the
/// last one whose codec was 68 hand-written `save`/`restore` functions. The
/// snapshots are `SNAPSHOT_VERSION` 15, which drops from version 14 the
/// packet count of each sender and receiver flow (8 bytes each: it is the
/// flow's size over the constant MTU) and the hash count of each stored
/// pause frame (4 bytes: a constant), and whose fingerprint now covers the
/// topology's links (same length, other checksum): 2 160–2 216 bytes less
/// per row, the same at one shard and at two.
///
/// The two-shard rows also depend on where the epoch windows fall, at any
/// version: a pending event is saved with the sequence number its queue gave
/// it, and a worker's queue numbers local pushes and mailbox deliveries in
/// the order they happen, so a driver that delivers mailboxes at other
/// instants (PR 19's grid under traffic, PR 23's one-round schedule — which
/// moved exactly these six rows of the version 7 table, lengths unchanged)
/// writes other numbers. They only break ties between events of equal
/// `(time, rank)`, which pop in the same order either way: of a 106 705-byte
/// two-shard BFC snapshot that PR 19's `trace-tool` and its parent's took of
/// one run, 224 bytes differ, each by a few units, and the parent's file
/// resumed there to the uninterrupted run's result.
const PARENT_SNAPSHOTS: [(usize, u64); 12] = [
    (83_268, 0xcb25_a4b0_924c_8e9b), // BFC, 1 shard
    (92_075, 0xea14_8676_fd0f_7a32), // BFC, 2 shards
    (431_836, 0x0b02_ac3c_038b_452d), // Ideal-FQ
    (440_643, 0x9d3a_ddad_f1a6_dd3f),
    (72_798, 0x3a3c_acfb_4c47_c2d8), // DCQCN
    (81_605, 0xa44d_dab2_cb97_0649),
    (72_798, 0xadf5_6e27_2dce_a230), // DCQCN+Win
    (81_605, 0x530c_ff1b_ad79_97fa),
    (68_975, 0xe782_6109_760f_f127), // HPCC
    (77_782, 0x479c_3934_c69e_07bc),
    (76_089, 0xbc35_78b8_4ae9_f2ae), // DCQCN+Win+SFQ
    (84_896, 0x3f01_696d_0a3b_3a96),
];
const PARENT_FLIGHT: (usize, u64) = (1_256_716, 0x3704_4530_a583_d1d0);

/// The format is pinned to the parent's bytes: every lineup scheme at 1 and 2
/// shards, cut at a third of the horizon while a link is down, and BFC's
/// whole-run flight trace of the same scenario.
#[test]
fn the_format_is_pinned_to_the_parents_bytes() {
    let horizon = us(150);
    let topo = fat_tree(FatTreeParams::tiny());
    let params = TraceParams {
        incast_fan_in: 6,
        incast_total_bytes: 500_000,
        ..TraceParams::google_with_incast(horizon, 7)
    };
    let trace = synthesize(&topo.hosts(), &params);
    let schedule = ScenarioSpec::single_link_down_up("tor0", "spine0", horizon / 4, horizon / 2)
        .resolve(&topo)
        .expect("tiny topology has tor0/spine0");
    let cut = SimTime::ZERO + horizon / 3;
    let mut rows = Vec::new();
    for scheme in Scheme::paper_lineup() {
        let name = scheme.name();
        let config = ExperimentConfig::new(scheme, horizon).with_dynamics(schedule.clone());
        for shards in [1usize, 2] {
            let snap = snapshot_experiment(&topo, &trace, &config, cut, shards);
            rows.push((trailer(&snap), format!("{name}, {shards} shard(s)")));
        }
    }
    // Every row, not the first that moved: which rows move says what moved.
    let table: String = rows
        .iter()
        .zip(PARENT_SNAPSHOTS)
        .map(|((written, row), pin)| {
            let moved = if *written == pin { "" } else { " <- moved" };
            format!("    ({}, {:#018x}), // {row}{moved}\n", written.0, written.1)
        })
        .collect();
    let written = rows.iter().map(|(pin, _)| *pin);
    assert!(written.eq(PARENT_SNAPSHOTS), "this build writes\n{table}");
    let config = ExperimentConfig::new(Scheme::bfc(), horizon)
        .with_dynamics(schedule)
        .with_trace_capacity(1 << 16);
    let result = run_experiment(&topo, &trace, &config);
    let flight = result.flight.as_ref().expect("tracing was on");
    assert_eq!(trailer(&write_trace("format-pin", flight)), PARENT_FLIGHT);
}

/// A pending event that does not fit the run is refused when the snapshot is
/// read, not when the event is dispatched: every index `FabricSim::dispatch`
/// would take from it — node, port, trace position, fault-schedule position,
/// a timer's flow — is checked against the topology, the trace and the
/// schedule. The payload of a real snapshot is re-framed with its first
/// pending event replaced, so the checksum is valid and only the check stands
/// between the file and an out-of-bounds panic mid-run.
#[test]
fn a_pending_event_that_does_not_fit_the_run_is_refused() {
    let topo = fat_tree(FatTreeParams::tiny());
    let trace = synthetic_trace(&topo, 61);
    let schedule = ScenarioSpec::single_link_down_up("tor0", "spine0", us(50), us(100))
        .resolve(&topo)
        .expect("tiny topology has tor0/spine0");
    let faults = schedule.events().len();
    let config = ExperimentConfig::new(Scheme::bfc(), WINDOW).with_dynamics(schedule);
    let snap = snapshot_experiment(&topo, &trace, &config, SimTime::ZERO + us(60), 1);
    let payload = snapshot::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &snap).expect("own snapshot");

    // Fingerprint, cut, worker count, the worker's last instant, the queue's
    // event count, the first key (time, rank, seq) — then the first event.
    let start = 5 * 8 + (8 + 4 + 8);
    let mut r = SnapReader::new(&payload[start..]);
    let original = NetEvent::restore(&mut r).expect("a pending event");
    let end = payload.len() - r.remaining();
    let resume_with = |event: &NetEvent| {
        let file = snapshot::finalize(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |w| {
            w.put_all(&payload[..start]);
            event.save(w);
            w.put_all(&payload[end..]);
        });
        resume_experiment(&topo, &trace, &config, &file).map(|_| ())
    };
    assert_eq!(
        resume_with(&original),
        Ok(()),
        "the re-framing itself is sound"
    );

    let host = topo.hosts()[0];
    let switch = topo.switches()[0];
    let nowhere = NodeId(topo.num_nodes() as u32);
    let beyond = FlowId(trace.len() as u32);
    let packet = Packet::data(FlowId(0), host, host, 0, 1_000, 0, false);
    let misfits = [
        NetEvent::PacketArrive {
            node: nowhere,
            port: 0,
            packet: packet.clone(),
        },
        NetEvent::PacketArrive {
            node: host,
            port: 1,
            packet,
        },
        NetEvent::TxComplete {
            node: nowhere,
            port: 0,
        },
        NetEvent::TxComplete {
            node: switch,
            port: topo.ports(switch).len() as u32,
        },
        NetEvent::PauseFrameTimer {
            node: host,
            port: 0,
        },
        NetEvent::PauseFrameTimer {
            node: switch,
            port: u32::MAX,
        },
        NetEvent::HostTimer {
            node: switch,
            timer: TransportTimer::NicWakeup,
        },
        NetEvent::HostTimer {
            node: nowhere,
            timer: TransportTimer::NicWakeup,
        },
        NetEvent::HostTimer {
            node: host,
            timer: TransportTimer::Retransmit(beyond),
        },
        NetEvent::HostTimer {
            node: host,
            timer: TransportTimer::RateIncrease(beyond),
        },
        NetEvent::HostTimer {
            node: host,
            timer: TransportTimer::AlphaUpdate(beyond),
        },
        NetEvent::FlowArrival { index: trace.len() },
        NetEvent::FlowCompleted { flow: beyond },
        NetEvent::NetworkDynamics { index: faults },
    ];
    for event in &misfits {
        assert!(
            matches!(resume_with(event), Err(SnapError::Corrupt(_))),
            "{event:?} accepted"
        );
    }
}
