//! `FlightRecorder::finish` and `FlightTrace::merge` against their
//! specification: concatenate the parts each ring kept, then stable-sort by
//! `(at, canon_rank)`.
//!
//! Neither sorts a time-ordered input globally — `finish` sorts the runs of
//! simultaneous records as it streams its ring out, and `merge` merges the
//! canonical parts — so the property drives them with what those shortcuts
//! must survive: one to four parts, most records sharing an instant with
//! their neighbours, ranks that tie *across* parts (decided by part order),
//! rings that shed and rings that do not, empty parts, and a part whose clock
//! runs backwards (the global-sort fallback). The ring itself is checked
//! against a `Vec` model of what it keeps: the last N records of the
//! canonical order.

use backpressure_flow_control::net::trace::{
    FlightRecorder, FlightTrace, TraceEvent, TraceFilter, TraceRecord,
};
use backpressure_flow_control::net::types::NodeId;
use backpressure_flow_control::sim::SimTime;
use bfc_testkit::{int_range, pair, property, triple, vec_of};

/// An event of kind `kind` at one of two nodes and two ports, so ranks
/// collide within and across parts; `id` tells otherwise equal records apart
/// wherever the kind has a field to carry it.
fn event(kind: u64, place: u64, id: u32) -> TraceEvent {
    let (node, port) = (NodeId((place % 2) as u32), (place / 2) as u16);
    let peer = NodeId(2 + u32::from(port));
    match kind {
        0 => TraceEvent::Enqueue {
            node,
            port,
            queue: 0,
            flow: id,
            bytes: 1_000,
        },
        1 => TraceEvent::Dequeue {
            node,
            port,
            queue: 0,
            flow: id,
            bytes: 1_000,
        },
        2 => TraceEvent::Drop {
            node,
            port,
            flow: id,
            bytes: 1_000,
        },
        3 => TraceEvent::Blackhole {
            node,
            flow: id,
            bytes: 64,
        },
        4 => TraceEvent::PfcSent {
            node,
            port,
            pause: id % 2 == 0,
        },
        5 => TraceEvent::PfcDelivered {
            node,
            src: peer,
            pause: id % 2 == 0,
        },
        6 => TraceEvent::FlowPause {
            node,
            port,
            bits: id,
            pause: true,
        },
        7 => TraceEvent::QueueActive {
            node,
            port,
            queue: id as u16,
        },
        8 => TraceEvent::QueueIdle {
            node,
            port,
            queue: id as u16,
        },
        9 => TraceEvent::LinkDown { a: node, b: peer },
        10 => TraceEvent::LinkUp { a: node, b: peer },
        11 => TraceEvent::LinkRate { a: node, b: peer },
        _ => TraceEvent::Reroute {
            index: u32::from(port),
        },
    }
}

property! {
    /// Each part is `(ring capacity, [(time step, kind, place)])`; steps are
    /// mostly zero, so instants are shared. `backwards` names the part (if
    /// it exists) whose timestamps are issued in reverse.
    fn merge_is_concatenate_then_stable_sort(
        parts in vec_of(
            pair(
                int_range(1u64..48),
                vec_of(triple(int_range(0u64..3), int_range(0u64..13), int_range(0u64..4)), 0..64),
            ),
            1..5,
        ),
        backwards in int_range(0u64..8),
    ) {
        let mut id = 0u32;
        let traces: Vec<FlightTrace> = parts
            .iter()
            .enumerate()
            .map(|(p, (capacity, stream))| {
                let mut now = 0u64;
                let mut times: Vec<u64> = stream
                    .iter()
                    .map(|&(step, _, _)| {
                        // Two steps in three stay on the current instant.
                        now += step / 2;
                        now
                    })
                    .collect();
                if backwards as usize == p {
                    times.reverse();
                }
                let mut recorder = FlightRecorder::new(*capacity as usize);
                for (&at, &(_, kind, place)) in times.iter().zip(stream) {
                    id += 1;
                    recorder.record(SimTime::from_nanos(at), event(kind, place, id));
                }
                recorder.finish()
            })
            .collect();

        let mut expected: Vec<TraceRecord> =
            traces.iter().flat_map(|t| t.records.iter()).collect();
        expected.sort_by_key(|r| (r.at, r.event.canon_rank()));
        let shed: u64 = traces.iter().map(|t| t.dropped).sum();
        let sent: usize = parts.iter().map(|(_, stream)| stream.len()).sum();
        assert_eq!(expected.len() as u64 + shed, sent as u64, "every record is kept or counted");

        let merged = FlightTrace::merge(traces);
        assert_eq!(merged.dropped, shed);
        assert_eq!(merged.records.iter().collect::<Vec<_>>(), expected);
    }
}

#[test]
fn merging_nothing_is_the_empty_trace() {
    assert_eq!(FlightTrace::merge(Vec::new()), FlightTrace::default());
    assert_eq!(
        FlightTrace::merge(vec![FlightTrace::default(), FlightTrace::default()]),
        FlightTrace::default()
    );
}

/// What a ring of `capacity` behind `filter` keeps of `stream`, and how many
/// records it sheds: the admitted records in runs of one instant, each run
/// stable-sorted by rank, the last `capacity` of them — then, only if the
/// clock ran backwards, all of those stable-sorted by `(at, rank)`.
fn ring_model(
    stream: &[TraceRecord],
    capacity: usize,
    filter: &TraceFilter,
) -> (Vec<TraceRecord>, u64) {
    let admitted: Vec<TraceRecord> = stream
        .iter()
        .filter(|r| filter.admits(&r.event))
        .copied()
        .collect();
    let mut kept = Vec::with_capacity(admitted.len());
    let mut start = 0;
    for end in 1..=admitted.len() {
        if end == admitted.len() || admitted[end].at != admitted[start].at {
            let mut run = admitted[start..end].to_vec();
            run.sort_by_key(|r| r.event.canon_rank());
            kept.extend(run);
            start = end;
        }
    }
    let shed = kept.len().saturating_sub(capacity);
    kept.drain(..shed);
    if admitted.windows(2).any(|w| w[1].at < w[0].at) {
        kept.sort_by_key(|r| (r.at, r.event.canon_rank()));
    }
    (kept, shed as u64)
}

/// Records `stream` into a ring and checks what it holds and finishes with
/// against [`ring_model`].
fn check_ring(stream: &[TraceRecord], capacity: usize, filter: &TraceFilter) {
    let mut ring = FlightRecorder::with_filter(capacity, filter.clone());
    for r in stream {
        ring.record(r.at, r.event);
    }
    let (kept, shed) = ring_model(stream, capacity, filter);
    assert_eq!(ring.len(), kept.len(), "capacity {capacity}");
    let trace = ring.finish();
    assert_eq!(trace.dropped, shed, "capacity {capacity}");
    let differ = trace.records.iter().zip(&kept).position(|(a, b)| a != *b);
    assert_eq!(differ, None, "capacity {capacity}: first difference");
    assert_eq!(trace.records.len(), kept.len(), "capacity {capacity}");
}

property! {
    /// A ring keeps the last `capacity` records of the canonical order.
    /// Steps are mostly zero, so runs of one instant are often longer than
    /// the ring; in one case in four a step of 3 moves the clock back
    /// instead of forward, and the filter is all, the packet kinds or node 0.
    fn a_ring_keeps_the_last_n_of_the_canonical_order(
        capacity in int_range(1u64..24),
        stream in vec_of(triple(int_range(0u64..4), int_range(0u64..13), int_range(0u64..4)), 0..96),
        shape in pair(int_range(0u64..4), int_range(0u64..3)),
    ) {
        let (backwards, filter) = shape;
        let mut now = 10u64;
        let records: Vec<TraceRecord> = stream
            .iter()
            .enumerate()
            .map(|(id, &(step, kind, place))| {
                now = match step {
                    0 | 1 => now,
                    3 if backwards == 0 => now.saturating_sub(1),
                    _ => now + 1,
                };
                TraceRecord {
                    at: SimTime::from_nanos(now),
                    event: event(kind, place, id as u32),
                }
            })
            .collect();
        let filter = match filter {
            0 => TraceFilter::all(),
            1 => TraceFilter::all().with_kinds([0, 1, 7, 8]),
            _ => TraceFilter::all().with_nodes([NodeId(0)]),
        };
        check_ring(&records, capacity as usize, &filter);
    }
}

/// The property's check at capacities up to 3 × 64 Ki, around the block
/// size the ring once had: a capacity of one, one block less one, one
/// block, one block and one, and three blocks, each fed two blocks and three
/// records more than it holds, in runs of three records that share an
/// instant and are out of rank order, so a shed prefix is cut off many
/// times over records of every length.
#[test]
fn a_large_ring_keeps_the_last_n_of_the_canonical_order() {
    const BLOCK: usize = 64 * 1024;
    for capacity in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK] {
        let stream: Vec<TraceRecord> = (0..(capacity + 2 * BLOCK + 3) as u64)
            .map(|i| TraceRecord {
                at: SimTime::from_nanos(i / 3 * 1_000),
                event: event((i * 7) % 13, i % 4, i as u32),
            })
            .collect();
        check_ring(&stream, capacity, &TraceFilter::all());
    }
}
