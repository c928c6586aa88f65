//! `FlightTrace::merge` against its specification: concatenate the parts,
//! then stable-sort by `(at, canon_rank)`.
//!
//! The merge never sorts a time-ordered input globally — it sorts the runs of
//! simultaneous records where they lie and merges the parts from the back
//! into the first part's storage — so the property drives it with what those
//! shortcuts must survive: one to four parts, most records sharing an instant
//! with their neighbours, ranks that tie *across* parts (decided by part
//! order), rings that shed and rings that do not, empty parts, and a part
//! whose clock runs backwards (the global-sort fallback).

use backpressure_flow_control::net::trace::{FlightRecorder, FlightTrace, TraceEvent, TraceRecord};
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
            traces.iter().flat_map(|t| t.records.iter().copied()).collect();
        expected.sort_by_key(|r| (r.at, r.event.canon_rank()));
        let shed: u64 = traces.iter().map(|t| t.dropped).sum();
        let sent: usize = parts.iter().map(|(_, stream)| stream.len()).sum();
        assert_eq!(expected.len() as u64 + shed, sent as u64, "every record is kept or counted");

        let merged = FlightTrace::merge(traces);
        assert_eq!(merged.dropped, shed);
        assert_eq!(merged.records, expected);
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
