//! Trace I/O and arrival-process properties (tier-1):
//!
//! 1. Any trace — synthesized or arbitrary, at picosecond start resolution —
//!    round-trips bit-exactly through `export_csv` → `import_csv`.
//! 2. Malformed CSV input returns a line-numbered error for every failure
//!    mode (truncated rows, non-numeric fields, out-of-range node ids,
//!    unsorted starts) and never panics.
//! 3. The new arrival processes (bursty background gaps, log-normal incast
//!    inter-event gaps) hit the requested offered load and are bit-identical
//!    for a fixed seed.
//! 4. Any flight trace — times out of order or at `u64::MAX`, every field at
//!    the ends of its range — iterates back what it was built from,
//!    round-trips byte for byte through `write_trace` → `read_trace` →
//!    `write_trace`, comes out of a recorder stable-sorted by `(time, rank)`
//!    and diverges from another exactly where a `Vec` walk says it does.
//! 5. The three ways to read a trace CSV — `import_csv` over a string,
//!    `read_csv_file` and a drained non-follow `CsvTail` over a file — give
//!    the same flows or the same line-numbered error for the same bytes.

use backpressure_flow_control::net::trace::{
    read_trace, write_trace, FlightRecorder, FlightTrace, TraceEvent, TraceRecord, QUEUE_CONTROL,
    QUEUE_HIGH_PRIORITY, QUEUE_OVERFLOW,
};
use backpressure_flow_control::sim::{SimDuration, SimRng, SimTime};
use backpressure_flow_control::workloads::io::{
    export_csv, import_csv, read_csv_file, CsvError, CsvErrorKind, TraceStats, TRACE_CSV_HEADER,
};
use backpressure_flow_control::workloads::{
    synthesize, ArrivalShape, CsvTail, IncastSchedule, IngestError, IngestSource, TraceFlow,
    TraceParams, Workload,
};
use bfc_net::types::NodeId;
use bfc_testkit::{int_range, one_of, pair, property, triple, vec_of};

fn hosts(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId).collect()
}

fn shape_for(tag: u64) -> ArrivalShape {
    match tag % 3 {
        0 => ArrivalShape::paper_default(),
        1 => ArrivalShape::Poisson,
        _ => ArrivalShape::bursty_default(),
    }
}

property! {
    /// Synthesized traces — across seeds, loads, host counts and all three
    /// arrival shapes — survive a CSV round trip exactly.
    fn csv_round_trip_preserves_synthesized_traces(
        seed in int_range(0u64..10_000),
        load_pct in int_range(10u64..90),
        shape_tag in int_range(0u64..3),
    ) {
        let hosts = hosts(16);
        let params = TraceParams::background_only(
            Workload::Google,
            load_pct as f64 / 100.0,
            SimDuration::from_micros(120),
            seed,
        )
        .with_arrivals(shape_for(shape_tag));
        let flows = synthesize(&hosts, &params);
        let imported = import_csv(&export_csv(&flows)).expect("exported traces always parse");
        assert_eq!(imported, flows);
    }

    /// Hand-built flow lists with arbitrary picosecond-resolution start
    /// times, extreme sizes and extreme node ids round-trip exactly — the
    /// `start_ns` fractional encoding loses nothing.
    fn csv_round_trip_preserves_arbitrary_ps_starts(
        raw in vec_of(
            triple(
                pair(int_range(0u64..200), int_range(0u64..u32::MAX as u64)),
                int_range(1u64..u64::MAX),
                int_range(0u64..5_000_000),
            ),
            1..80,
        ),
    ) {
        let mut flows: Vec<TraceFlow> = raw
            .iter()
            .map(|&((a, b), size_bytes, start_ps)| {
                let src = NodeId(a as u32);
                // Guarantee src != dst without rejecting any sample.
                let dst = if b as u32 == src.0 { NodeId(src.0.wrapping_add(1)) } else { NodeId(b as u32) };
                TraceFlow {
                    src,
                    dst,
                    size_bytes,
                    start: SimTime::from_picos(start_ps),
                    is_incast: start_ps % 2 == 0,
                }
            })
            .collect();
        flows.sort_by_key(|f| f.start);
        let csv = export_csv(&flows);
        assert_eq!(import_csv(&csv).expect("valid by construction"), flows);
        // Exporting the re-import is byte-identical too: the format is
        // canonical.
        assert_eq!(export_csv(&import_csv(&csv).expect("parses")), csv);
    }

    /// Every kind of malformed row yields a line-numbered `CsvError` (line 3:
    /// one valid row sits between the header and the corruption) — never a
    /// panic, never silent acceptance.
    fn malformed_rows_fail_with_the_right_line_number(
        bad_row in one_of(&[
            "1,2,300",                    // truncated
            "1,2,300,5,0,extra",          // overlong
            "x,2,300,5,0",                // non-numeric src
            "1,y,300,5,0",                // non-numeric dst
            "1,2,zz,5,0",                 // non-numeric size
            "1,2,0,5,0",                  // zero size
            "1,2,300,nope,0",             // non-numeric start
            "1,2,300,5.2345,0",           // over-precise fraction
            "1,2,300,5.,0",               // bare trailing dot
            "1,2,300,.5,0",               // bare leading dot
            "1,2,300,5,maybe",            // bad is_incast
            "4294967296,2,300,5,0",       // src beyond u32
            "1,4294967296,300,5,0",       // dst beyond u32
            "7,7,300,5,0",                // self flow
            "1,2,300,1,0",                // unsorted (first row starts at 2ns)
        ]),
    ) {
        let csv = format!("{TRACE_CSV_HEADER}\n0,1,100,2,0\n{bad_row}\n");
        let err: CsvError = import_csv(&csv).expect_err(bad_row);
        assert_eq!(err.line, 3, "{bad_row}: wrong line in {err}");
        // The rendered message names the line for the operator.
        assert!(err.to_string().starts_with("line 3:"), "{err}");
    }
}

#[test]
fn error_kinds_match_the_failure_mode() {
    let case = |row: &str| {
        import_csv(&format!("{TRACE_CSV_HEADER}\n{row}\n"))
            .expect_err(row)
            .kind
    };
    assert_eq!(case("1,2,300"), CsvErrorKind::WrongFieldCount { found: 3 });
    assert_eq!(
        case("4294967296,2,300,5,0"),
        CsvErrorKind::NodeOutOfRange {
            column: "src",
            value: 4_294_967_296
        }
    );
    assert_eq!(case("7,7,300,5,0"), CsvErrorKind::SelfFlow);
    assert!(matches!(
        case("1,2,300,nope,0"),
        CsvErrorKind::BadField {
            column: "start_ns",
            ..
        }
    ));
    let unsorted = format!("{TRACE_CSV_HEADER}\n0,1,100,9,0\n2,3,100,8,0\n");
    assert_eq!(
        import_csv(&unsorted).expect_err("unsorted").kind,
        CsvErrorKind::UnsortedStart
    );
    assert_eq!(
        import_csv("").expect_err("empty").kind,
        CsvErrorKind::MissingHeader
    );
    assert!(matches!(
        import_csv("not,a,header\n").expect_err("bad header").kind,
        CsvErrorKind::BadHeader { .. }
    ));
}

/// The offered load of a generated trace tracks the requested `load` for the
/// new arrival processes, not just the paper's log-normal default.
#[test]
fn new_arrival_processes_hit_the_requested_load() {
    let hosts = hosts(64);
    for (shape, schedule) in [
        (
            ArrivalShape::bursty_default(),
            IncastSchedule::paper_default(),
        ),
        (
            ArrivalShape::paper_default(),
            IncastSchedule::LogNormalGaps { sigma: 1.0 },
        ),
        (
            ArrivalShape::bursty_default(),
            IncastSchedule::LogNormalGaps { sigma: 1.0 },
        ),
    ] {
        let params = TraceParams::google_with_incast(SimDuration::from_millis(5), 71)
            .with_arrivals(shape)
            .with_incast_schedule(schedule);
        let flows = synthesize(&hosts, &params);
        let stats = TraceStats::from_flows(&flows, 100.0).expect("non-empty");
        // Background: 60% requested. Bursty traces are noisier than the
        // smooth processes, so the tolerance is generous but still pins the
        // first digit of the load.
        let background: u64 = flows
            .iter()
            .filter(|f| !f.is_incast)
            .map(|f| f.size_bytes)
            .sum();
        let bg_load = background as f64 * 8.0 / 5e-3 / (64.0 * 100e9);
        assert!(
            (0.30..0.90).contains(&bg_load),
            "{shape:?}/{schedule:?}: background load {bg_load} should track 0.60"
        );
        // Incast: 5% requested.
        let incast: u64 = flows
            .iter()
            .filter(|f| f.is_incast)
            .map(|f| f.size_bytes)
            .sum();
        let incast_load = incast as f64 * 8.0 / 5e-3 / (64.0 * 100e9);
        assert!(
            (0.015..0.10).contains(&incast_load),
            "{shape:?}/{schedule:?}: incast load {incast_load} should track 0.05"
        );
        assert!(
            stats.offered_load > 0.3,
            "summary load {}",
            stats.offered_load
        );
    }
}

/// Fixed seed ⇒ bit-identical traces for the bursty and log-normal-incast
/// variants, and different seeds diverge.
#[test]
fn new_arrival_processes_are_deterministic_per_seed() {
    let hosts = hosts(16);
    let params = TraceParams::google_with_incast(SimDuration::from_micros(500), 5)
        .with_arrivals(ArrivalShape::bursty_default())
        .with_incast_schedule(IncastSchedule::LogNormalGaps { sigma: 1.0 });
    assert_eq!(synthesize(&hosts, &params), synthesize(&hosts, &params));
    let reseeded = TraceParams { seed: 6, ..params };
    assert_ne!(synthesize(&hosts, &params), synthesize(&hosts, &reseeded));
    // And the variants actually change the trace relative to the defaults.
    let default_params = TraceParams::google_with_incast(SimDuration::from_micros(500), 5);
    assert_ne!(
        synthesize(&hosts, &params),
        synthesize(&hosts, &default_params)
    );
}

/// A `u32` field: zero, the maximum or anything.
fn arb_u32(rng: &mut SimRng) -> u32 {
    match rng.next_below(4) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.next_u64() as u32,
    }
}

/// A `u16` field: zero, a special queue code (`QUEUE_CONTROL` is
/// `u16::MAX`) or anything.
fn arb_u16(rng: &mut SimRng) -> u16 {
    match rng.next_below(6) {
        0 => 0,
        1 => QUEUE_CONTROL,
        2 => QUEUE_HIGH_PRIORITY,
        3 => QUEUE_OVERFLOW,
        _ => rng.next_u64() as u16,
    }
}

/// A record's time: zero, the end of the clock, near the previous one or
/// anywhere — so consecutive records step forward, back and across the wrap.
fn arb_time(rng: &mut SimRng, prev: SimTime) -> SimTime {
    SimTime::from_picos(match rng.next_below(4) {
        0 => 0,
        1 => u64::MAX,
        2 => prev.as_picos().wrapping_add(rng.next_below(1 << 20)),
        _ => rng.next_u64(),
    })
}

fn arb_trace_event(rng: &mut SimRng) -> TraceEvent {
    let (node, a, b) = (
        NodeId(arb_u32(rng)),
        NodeId(arb_u32(rng)),
        NodeId(arb_u32(rng)),
    );
    let (port, queue, bytes) = (arb_u16(rng), arb_u16(rng), arb_u16(rng));
    let (flow, bits, pause) = (arb_u32(rng), arb_u32(rng), rng.next_below(2) == 1);
    match rng.next_below(13) {
        0 => TraceEvent::Enqueue {
            node,
            port,
            queue,
            flow,
            bytes,
        },
        1 => TraceEvent::Dequeue {
            node,
            port,
            queue,
            flow,
            bytes,
        },
        2 => TraceEvent::Drop {
            node,
            port,
            flow,
            bytes,
        },
        3 => TraceEvent::Blackhole { node, flow, bytes },
        4 => TraceEvent::PfcSent { node, port, pause },
        5 => TraceEvent::PfcDelivered {
            node,
            src: a,
            pause,
        },
        6 => TraceEvent::FlowPause {
            node,
            port,
            bits,
            pause,
        },
        7 => TraceEvent::QueueActive { node, port, queue },
        8 => TraceEvent::QueueIdle { node, port, queue },
        9 => TraceEvent::LinkDown { a, b },
        10 => TraceEvent::LinkUp { a, b },
        11 => TraceEvent::LinkRate { a, b },
        _ => TraceEvent::Reroute { index: flow },
    }
}

/// Up to 64 arbitrary records: times from [`arb_time`] (unordered, at the
/// ends of the clock), or, one trace in two, in time order with most
/// instants shared, ending at `u64::MAX` — what a recorder's clock gives.
fn arb_records(rng: &mut SimRng) -> Vec<TraceRecord> {
    let ordered = rng.next_below(2) == 0;
    let mut at = SimTime::ZERO;
    let mut records: Vec<TraceRecord> = (0..rng.next_below(64))
        .map(|_| {
            at = if ordered {
                SimTime::from_picos(at.as_picos() + rng.next_below(3) / 2)
            } else {
                arb_time(rng, at)
            };
            TraceRecord {
                at,
                event: arb_trace_event(rng),
            }
        })
        .collect();
    if let (true, Some(last)) = (ordered, records.last_mut()) {
        last.at = SimTime::from_picos(u64::MAX);
    }
    records
}

property! {
    /// Arbitrary flight traces read back equal to what was written, and
    /// writing what was read gives the same bytes: the `.flight` codec loses
    /// nothing at any field's extremes or on any order of times. A trace's
    /// records iterate back exactly as they were collected.
    fn flight_traces_round_trip_byte_for_byte(seed in int_range(0u64..u64::MAX)) {
        let rng = &mut SimRng::new(seed);
        let records = arb_records(rng);
        let trace = FlightTrace { records: records.iter().copied().collect(), dropped: rng.next_u64() };
        assert_eq!(trace.records.len(), records.len());
        assert_eq!(trace.records.iter().collect::<Vec<_>>(), records);
        let bytes = write_trace("arbitrary", &trace);
        let (label, back) = read_trace(&bytes).expect("a written trace reads back");
        assert_eq!((label.as_str(), &back), ("arbitrary", &trace));
        assert_eq!(write_trace(&label, &back), bytes);
    }
}

property! {
    /// A recorder's `finish` is the stable sort by `(time, rank)` of what it
    /// recorded, whether its clock ran forward (sorted instant by instant)
    /// or not (sorted whole).
    fn a_finished_recorder_is_its_records_stable_sorted(seed in int_range(0u64..u64::MAX)) {
        let rng = &mut SimRng::new(seed);
        let records = arb_records(rng);
        let mut recorder = FlightRecorder::new(64);
        for r in &records {
            recorder.record(r.at, r.event);
        }
        let mut expected = records;
        expected.sort_by_key(|r| (r.at, r.rank()));
        let trace = recorder.finish();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.records.iter().collect::<Vec<_>>(), expected);
    }
}

property! {
    /// `diff` is `None` exactly when two traces hold the same records, and
    /// otherwise names the first index where they differ — a record changed,
    /// cut off or added — with the records there and the tails after it, as
    /// a walk over two `Vec`s does.
    fn diff_finds_the_first_divergent_record(seed in int_range(0u64..u64::MAX)) {
        let rng = &mut SimRng::new(seed);
        let a = arb_records(rng);
        let mut b = a.clone();
        match rng.next_below(4) {
            0 => {}
            1 => b.truncate(rng.next_below(b.len() as u64 + 1) as usize),
            2 => b.extend(arb_records(rng)),
            _ if !b.is_empty() => {
                let i = rng.next_below(b.len() as u64) as usize;
                b[i] = TraceRecord { at: arb_time(rng, b[i].at), event: arb_trace_event(rng) };
            }
            _ => {}
        }
        let trace = |records: &[TraceRecord]| FlightTrace {
            records: records.iter().copied().collect(),
            dropped: 0,
        };
        let diff = trace(&a).diff(&trace(&b));
        let index = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        if a == b {
            assert_eq!(diff, None);
        } else {
            let diff = diff.expect("different records diverge");
            assert_eq!(diff.index, index);
            assert_eq!((diff.first_a, diff.first_b), (a.get(index).copied(), b.get(index).copied()));
            assert_eq!((diff.tail_a, diff.tail_b), (a.len() - index, b.len() - index));
        }
    }
}

/// A file reader's answer with its I/O failures ruled out: the reader-agreement
/// property writes only UTF-8 text to a file it owns.
fn parsed(answer: Result<Vec<TraceFlow>, IngestError>) -> Result<Vec<TraceFlow>, CsvError> {
    answer.map_err(|e| match e {
        IngestError::Csv(e) => e,
        IngestError::Io(e) => panic!("reading a written file failed: {e}"),
    })
}

property! {
    /// `import_csv`, `read_csv_file` and a drained non-follow `CsvTail` give
    /// the same flows, or the same error line and kind, for any text built
    /// from rows, comments, blank lines, a mid-file `#end` (a comment unless
    /// the stream is followed), a stray header or truncated row, with or
    /// without a header, with CRLF or LF endings, terminated or not.
    fn every_trace_reader_gives_the_same_answer(
        // A valid row is drawn four times as often as any other line, so a
        // fair share of the texts parse to flows.
        body in vec_of(
            one_of(&[
                "row", "# a note", "", "  ", "#end", "row", "row", "row", TRACE_CSV_HEADER,
                "1,2,300",
            ]),
            0..24,
        ),
        shape in triple(one_of(&[true, false]), one_of(&[false, true]), one_of(&[true, false])),
    ) {
        let (header, crlf, terminated) = shape;
        let lines: Vec<String> = header
            .then(|| TRACE_CSV_HEADER.to_string())
            .into_iter()
            .chain(body.iter().enumerate().map(|(i, &line)| match line {
                "row" => format!("{},{},{},{i},{}", i % 8, i % 8 + 1, 100 + i, i % 2),
                other => other.to_string(),
            }))
            .collect();
        let mut text = lines.join(if crlf { "\r\n" } else { "\n" });
        if terminated && !lines.is_empty() {
            text.push_str(if crlf { "\r\n" } else { "\n" });
        }
        let path = std::env::temp_dir().join(format!("bfc-readers-agree-{}.csv", std::process::id()));
        std::fs::write(&path, &text).expect("write the trace");
        let expected = import_csv(&text);
        assert_eq!(parsed(read_csv_file(&path)), expected, "read_csv_file of {text:?}");
        let mut tail = CsvTail::open(&path, false).expect("open the trace");
        let drained = std::iter::from_fn(|| tail.next_flow().transpose()).collect();
        assert_eq!(parsed(drained), expected, "a drained CsvTail of {text:?}");
        let _ = std::fs::remove_file(&path);
    }
}
