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
//! against a `VecDeque` at the capacities around its block size.

use std::collections::VecDeque;

use backpressure_flow_control::net::trace::{
    FlightRecorder, FlightTrace, TraceEvent, TraceRecord, BLOCK_RECORDS,
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

/// A ring of any capacity keeps what a `VecDeque` of that capacity keeps —
/// the last `capacity` records — and sheds as many, across its block
/// boundaries: a capacity of one, one block less one, one block, one block
/// and one, and three blocks.
#[test]
fn the_block_ring_keeps_what_a_vecdeque_keeps() {
    for capacity in [
        1,
        BLOCK_RECORDS - 1,
        BLOCK_RECORDS,
        BLOCK_RECORDS + 1,
        3 * BLOCK_RECORDS,
    ] {
        let mut ring = FlightRecorder::new(capacity);
        let mut model = VecDeque::new();
        let mut shed = 0u64;
        for i in 0..(capacity + 2 * BLOCK_RECORDS + 3) as u64 {
            // Distinct instants: the canonical order is the recording order.
            let record = TraceRecord {
                at: SimTime::from_picos(i),
                event: TraceEvent::Reroute { index: i as u32 },
            };
            ring.record(record.at, record.event);
            if model.len() == capacity {
                model.pop_front();
                shed += 1;
            }
            model.push_back(record);
            if i % 4_099 == 0 {
                assert_eq!(ring.len(), model.len(), "capacity {capacity}, record {i}");
            }
        }
        let trace = ring.finish();
        assert_eq!(trace.dropped, shed, "capacity {capacity}");
        assert!(
            trace.records.iter().eq(model.iter().copied()),
            "capacity {capacity}"
        );
    }
}
