//! Property-based tests (via the in-tree `bfc-testkit` harness) on the core
//! data structures and on the end-to-end invariants of the simulator.
//!
//! On failure the runner prints the per-case seed; rerun exactly that case
//! with `BFC_TESTKIT_SEED=<seed> cargo test <property_name>`.

use std::collections::{BTreeMap, VecDeque};

use backpressure_flow_control::core::config::pause_threshold_bytes;
use backpressure_flow_control::core::flow_table::EntrySlot;
use backpressure_flow_control::core::policy::pick_queue;
use backpressure_flow_control::core::{
    CountingBloom, FlowEntry, FlowKey, FlowTable, LookupOutcome,
};
use backpressure_flow_control::experiments::{run_experiment, ExperimentConfig, Scheme};
use backpressure_flow_control::metrics::{
    percentile, GoodputSeries, Hist, OccupancySeries, SafetyTracker,
};
use backpressure_flow_control::net::packet::{PauseFrame, MTU};
use backpressure_flow_control::net::switch::SwitchCounters;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::{
    Ecn, IntHop, IntPath, Link, NetEvent, Packet, PolicyStats, Port, QueueTarget, SharedBuffer,
    Transmitter, TransportTimer, WireFrame, MAX_INT_HOPS,
};
use backpressure_flow_control::sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use backpressure_flow_control::sim::{EventQueue, FastHashMap, SimDuration, SimRng, SimTime};
use backpressure_flow_control::transport::dcqcn::DcqcnState;
use backpressure_flow_control::transport::flow::CcState;
use backpressure_flow_control::transport::host::HostCounters;
use backpressure_flow_control::transport::hpcc::HpccState;
use backpressure_flow_control::transport::{FlowSpec, ReceiverFlow, SenderFlow};
use backpressure_flow_control::workloads::{TraceFlow, Workload};
use bfc_testkit::{
    assert_codec_laws, assert_snap_round_trip, f64_range, hash_set_of, int_range, one_of, pair,
    property, triple, vec_of,
};

property! {
    /// BFC's allocation-free queue choice (count the empty queues, draw, walk
    /// to the k-th) picks the queue the original collect-then-index code
    /// picked and consumes the RNG identically, for ports with none, some and
    /// all queues empty: `row[q]` packets wait in queue `q`.
    fn pick_queue_matches_collect_then_index(
        row in vec_of(int_range(0u64..3), 1..40),
        seed in int_range(0u64..u64::MAX),
    ) {
        let mut port = Port::new(Link::datacenter_default(), None, row.len());
        for (q, &packets) in row.iter().enumerate() {
            for seq in 0..packets {
                let pkt = Packet::data(FlowId(q as u32), NodeId(0), NodeId(1), seq, MTU, 0, false);
                port.enqueue(QueueTarget::Phys(q), pkt, 0);
            }
        }
        let (mut old_rng, mut new_rng) = (SimRng::new(seed), SimRng::new(seed));
        let free: Vec<usize> = (0..row.len()).filter(|&q| row[q] == 0).collect();
        let expected = if free.is_empty() {
            old_rng.next_index(row.len())
        } else {
            free[old_rng.next_index(free.len())]
        };
        assert_eq!(pick_queue(&port, &mut new_rng), expected);
        assert_eq!(new_rng, old_rng, "same single RNG draw");
    }

    /// The event queue always delivers events in non-decreasing time order,
    /// and FIFO within a timestamp.
    fn event_queue_is_time_ordered(times in vec_of(int_range(0u64..1_000), 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((t, idx)) = q.pop() {
            assert!(t >= last_time);
            if t == last_time {
                if let Some(&prev) = seen_at_time.last() {
                    if times[prev] == times[idx] {
                        assert!(prev < idx, "FIFO order within a timestamp");
                    }
                }
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_time = t;
        }
    }

    /// A bloom-filter pause frame never produces false negatives: every
    /// inserted VFID is reported as paused.
    fn pause_frame_has_no_false_negatives(
        vfids in hash_set_of(int_range(0u32..16_384), 1..64),
        size_bytes in one_of(&[16usize, 32, 64, 128]),
    ) {
        let mut frame = PauseFrame::new(size_bytes);
        for &v in &vfids {
            frame.insert(v);
        }
        for &v in &vfids {
            assert!(frame.contains(v));
        }
    }

    /// The counting bloom filter behaves like a multiset: after removing
    /// exactly the inserted elements it is empty, and elements that still
    /// have outstanding inserts keep matching.
    fn counting_bloom_is_a_multiset(
        ops in vec_of(pair(int_range(0u32..256), int_range(1usize..4)), 1..50),
    ) {
        let mut cb = CountingBloom::new(64);
        for &(vfid, count) in &ops {
            for _ in 0..count {
                cb.insert(vfid);
            }
        }
        for &(vfid, _) in &ops {
            assert!(cb.contains(vfid));
        }
        // Remove all but one instance of the first element.
        let (first, count) = ops[0];
        for _ in 0..count - 1 {
            cb.remove(first);
        }
        assert!(cb.contains(first), "one outstanding pause keeps the flow paused");
        // Remove everything.
        cb.remove(first);
        for &(vfid, count) in &ops[1..] {
            for _ in 0..count {
                cb.remove(vfid);
            }
        }
        assert!(cb.is_empty());
        assert!(cb.snapshot().is_empty());
    }

    /// The pause frame a counting bloom filter hands out is kept up to date
    /// bit by bit as counts cross zero; after any sequence of pauses and
    /// matching resumes it is the frame a scan would build — a bit for every
    /// hash position of every VFID still paused, and no other.
    fn counting_bloom_image_tracks_membership(
        ops in vec_of(pair(int_range(0u32..48), int_range(0u64..3)), 1..200),
        size_bytes in one_of(&[1usize, 16, 128]),
    ) {
        let mut cb = CountingBloom::new(size_bytes);
        let mut paused = [0u32; 48];
        for &(vfid, op) in &ops {
            // Two in three operations pause; a resume needs a pause to undo.
            if op < 2 || paused[vfid as usize] == 0 {
                cb.insert(vfid);
                paused[vfid as usize] += 1;
            } else {
                cb.remove(vfid);
                paused[vfid as usize] -= 1;
            }
            let mut scan = PauseFrame::new(size_bytes);
            for v in (0..48u32).filter(|&v| paused[v as usize] > 0) {
                scan.insert(v);
            }
            assert_eq!(cb.snapshot(), scan);
        }
    }

    /// Packetization conserves bytes: the per-packet sizes of a flow sum to
    /// the flow size, every packet is at most one MTU, and only the last
    /// packet may be smaller.
    fn packetization_conserves_bytes(size in int_range(1u64..5_000_000)) {
        let spec = FlowSpec {
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            vfid: 1,
        };
        let n = spec.num_packets();
        let mut total = 0u64;
        for seq in 0..n {
            let s = spec.packet_size(seq);
            assert!((1..=MTU).contains(&s));
            if seq + 1 < n {
                assert_eq!(s, MTU);
            }
            total += s as u64;
        }
        assert_eq!(total, size);
    }

    /// The pause threshold is monotone: more active queues or slower links
    /// never increase it.
    fn pause_threshold_is_monotone(
        n1 in int_range(1usize..64),
        n2 in int_range(1usize..64),
        gbps in f64_range(1.0..400.0),
    ) {
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        assert!(pause_threshold_bytes(gbps, hi) <= pause_threshold_bytes(gbps, lo));
        assert!(pause_threshold_bytes(gbps / 2.0, lo) <= pause_threshold_bytes(gbps, lo));
    }

    /// Percentiles are monotone in `p` and bounded by the extremes.
    fn percentiles_are_monotone(values in vec_of(f64_range(0.0..1e6), 1..200)) {
        let p50 = percentile(&values, 50.0).unwrap();
        let p95 = percentile(&values, 95.0).unwrap();
        let p99 = percentile(&values, 99.0).unwrap();
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= max && p50 >= min);
    }
}

/// End-to-end conservation: on a small fabric, for a random batch of flows
/// under BFC, every flow completes, its completion time is at least the
/// ideal time, and no packets are dropped.
///
/// Simulations are comparatively slow, so this property runs a reduced
/// number of cases (as the proptest original did) via an explicit config.
#[test]
fn random_traces_complete_under_bfc() {
    bfc_testkit::check(
        "random_traces_complete_under_bfc",
        bfc_testkit::Config::from_env().with_cases(8),
        pair(int_range(0u64..1_000), int_range(1usize..20)),
        |&(seed, n_flows)| {
            let topo = fat_tree(FatTreeParams::tiny());
            let hosts = topo.hosts();
            let cdf = Workload::Google.cdf();
            let mut rng = SimRng::new(seed);
            let trace: Vec<TraceFlow> = (0..n_flows)
                .map(|_| {
                    let src = hosts[rng.next_index(hosts.len())];
                    let dst = loop {
                        let d = hosts[rng.next_index(hosts.len())];
                        if d != src {
                            break d;
                        }
                    };
                    TraceFlow {
                        src,
                        dst,
                        size_bytes: cdf.sample(&mut rng).min(200_000).max(1),
                        start: SimTime::from_nanos(rng.next_below(100_000)),
                        is_incast: false,
                    }
                })
                .collect();
            let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(100));
            let result = run_experiment(&topo, &trace, &config);
            assert_eq!(result.completed_flows, result.total_flows);
            assert_eq!(result.drops, 0);
            for record in &result.records {
                assert!(record.slowdown() >= 1.0, "{record:?}");
            }
        },
    );
}

// ---- the snapshot codec ----------------------------------------------------
//
// One property over generated values of every `Snap` type the crates export
// (and the overlaid states `assert_codec_laws` can reach with a closure):
// `restore(save(x)) == x`, the re-save is byte-equal, every strict prefix is
// an `Err`, and no encoding is shorter than the type's `MIN_BYTES`. Values
// are drawn from one seeded `SimRng`, through the types' own constructors and
// mutators where their fields are private.

fn arb_time(rng: &mut SimRng) -> SimTime {
    SimTime::from_picos(rng.next_below(1 << 50))
}

fn arb_opt<T>(rng: &mut SimRng, value: impl FnOnce(&mut SimRng) -> T) -> Option<T> {
    (rng.next_below(2) == 1).then(|| value(rng))
}

fn arb_vec<T>(rng: &mut SimRng, max: u64, mut item: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
    (0..rng.next_below(max + 1)).map(|_| item(rng)).collect()
}

fn arb_int_path(rng: &mut SimRng) -> IntPath {
    let hops = arb_vec(rng, MAX_INT_HOPS as u64, |rng| IntHop {
        qlen_bytes: rng.next_u64(),
        tx_bytes: rng.next_u64(),
        timestamp_ps: rng.next_u64(),
        link_gbps: rng.next_f64() * 400.0,
    });
    match rng.next_below(4) {
        0 => IntPath::new(),    // no header
        1 => IntPath::header(), // a header no switch has recorded into yet
        _ => IntPath::from_slice(&hops),
    }
}

fn arb_pause_frame(rng: &mut SimRng) -> PauseFrame {
    let mut frame = PauseFrame::new(1 + rng.next_index(128));
    for _ in 0..rng.next_below(40) {
        frame.insert(rng.next_u64() as u32);
    }
    frame
}

fn arb_packet(rng: &mut SimRng) -> Packet {
    let (flow, src, dst) = (
        FlowId(rng.next_u64() as u32),
        NodeId(rng.next_u64() as u32),
        NodeId(rng.next_u64() as u32),
    );
    let mut packet = match rng.next_below(5) {
        0 => Packet::data(
            flow,
            src,
            dst,
            rng.next_u64(),
            1_000,
            7,
            rng.next_below(2) == 1,
        ),
        1 => Packet::ack(
            flow,
            src,
            dst,
            rng.next_u64(),
            rng.next_below(2) == 1,
            arb_int_path(rng),
        ),
        2 => Packet::cnp(flow, src, dst),
        3 => Packet::pfc(src, dst, rng.next_below(2) == 1),
        _ => Packet::flow_pause(src, dst, arb_pause_frame(rng)),
    };
    packet.size_bytes = rng.next_u64() as u32;
    packet.vfid = rng.next_u64() as u32;
    packet.ecn = [Ecn::NotEct, Ecn::Ect, Ecn::Ce][rng.next_index(3)];
    if packet.is_data() {
        packet.int = arb_int_path(rng);
    }
    packet
}

fn arb_timer(rng: &mut SimRng) -> TransportTimer {
    let flow = FlowId(rng.next_u64() as u32);
    match rng.next_below(4) {
        0 => TransportTimer::Retransmit(flow),
        1 => TransportTimer::RateIncrease(flow),
        2 => TransportTimer::AlphaUpdate(flow),
        _ => TransportTimer::NicWakeup,
    }
}

fn arb_event(rng: &mut SimRng) -> NetEvent {
    let (node, port) = (NodeId(rng.next_u64() as u32), rng.next_u64() as u32);
    match rng.next_below(8) {
        0 => NetEvent::PacketArrive {
            node,
            port,
            packet: arb_packet(rng),
        },
        1 => NetEvent::TxComplete { node, port },
        2 => NetEvent::PauseFrameTimer { node, port },
        3 => NetEvent::HostTimer {
            node,
            timer: arb_timer(rng),
        },
        4 => NetEvent::FlowArrival {
            index: rng.next_u64() as usize,
        },
        5 => NetEvent::FlowCompleted { flow: FlowId(port) },
        6 => NetEvent::Sample,
        _ => NetEvent::NetworkDynamics {
            index: rng.next_u64() as usize,
        },
    }
}

fn arb_spec(rng: &mut SimRng) -> FlowSpec {
    FlowSpec {
        flow: FlowId(rng.next_u64() as u32),
        src: NodeId(rng.next_u64() as u32),
        dst: NodeId(rng.next_u64() as u32),
        size_bytes: rng.next_u64(),
        vfid: rng.next_u64() as u32,
    }
}

fn arb_dcqcn(rng: &mut SimRng) -> DcqcnState {
    let mut state = DcqcnState::new(25.0 + rng.next_f64() * 375.0);
    for _ in 0..rng.next_below(12) {
        match rng.next_below(3) {
            0 => state.on_cnp(),
            1 => state.on_alpha_timer(),
            _ => state.on_rate_increase_timer(),
        }
    }
    state
}

fn arb_hpcc(rng: &mut SimRng) -> HpccState {
    let mut state = HpccState::new(100.0, 8e-6);
    for seq in 0..rng.next_below(6) {
        state.on_ack(&mut arb_int_path(rng), seq, seq + rng.next_below(50));
    }
    state
}

fn arb_sender(rng: &mut SimRng) -> SenderFlow {
    let cc = match rng.next_below(3) {
        0 => CcState::None,
        1 => CcState::Dcqcn(arb_dcqcn(rng)),
        _ => CcState::Hpcc(arb_hpcc(rng)),
    };
    // The Go-Back-N sequence numbers are private to the flow: an arbitrary
    // one is decoded from its fields, written in their `snap_struct!` order.
    let mut w = SnapWriter::new();
    arb_spec(rng).save(&mut w);
    w.put_u64(rng.next_u64()); // next_seq
    w.put_u64(rng.next_u64()); // acked_seq
    arb_time(rng).save(&mut w); // next_allowed
    cc.save(&mut w);
    w.put_u64(rng.next_u64()); // acked_at_last_timeout
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let flow = r.get().expect("a sender flow's fields decode");
    r.expect_end().expect("a sender flow reads all its fields");
    flow
}

fn arb_receiver(rng: &mut SimRng) -> ReceiverFlow {
    let mut flow = ReceiverFlow::new(arb_spec(rng));
    flow.expected_seq = rng.next_u64();
    flow.last_cnp = arb_opt(rng, arb_time);
    flow.nack_sent_for = arb_opt(rng, SimRng::next_u64);
    flow
}

/// An egress of 1–4 physical queues with packets in every kind of queue —
/// control, high-priority, physical and overflow — some of them picked off
/// again, so the FIFOs interleave in the port's arena and reuse its freed
/// slots, and maybe a pause frame over the few VFIDs the packets carry.
fn arb_port(rng: &mut SimRng) -> Port {
    let queues = 1 + rng.next_index(4);
    let mut port = Port::new(Link::datacenter_default(), None, queues);
    for _ in 0..rng.next_below(24) {
        let mut packet = arb_packet(rng);
        packet.vfid = rng.next_below(8) as u32;
        let target = match rng.next_below(4) {
            0 => QueueTarget::Control,
            1 => QueueTarget::HighPriority,
            2 => QueueTarget::Overflow,
            _ => QueueTarget::Phys(rng.next_index(queues)),
        };
        port.enqueue(target, packet, rng.next_u64() as u32);
        if rng.next_below(4) == 0 {
            port.dequeue_next();
        }
        if rng.next_below(8) == 0 {
            let mut frame = PauseFrame::new(16);
            (0..8)
                .filter(|_| rng.next_below(2) == 1)
                .for_each(|vfid| frame.insert(vfid));
            port.set_pause_frame(Some(frame));
        }
    }
    port
}

fn arb_hist(rng: &mut SimRng) -> Hist {
    let mut hist = Hist::new();
    for _ in 0..rng.next_below(30) {
        hist.observe_n(rng.next_u64() >> rng.next_below(64), 1 + rng.next_below(5));
    }
    hist
}

/// One PFC frame delivery: `(at, from, to, pause)`, as
/// `SafetyTracker::record_pause` takes it.
type PauseRecord = (SimTime, NodeId, NodeId, bool);

/// A PFC edge log in recording order: time never goes back, and equal
/// instants, refreshes and releases of edges that are not installed all
/// occur.
fn arb_pause_log(rng: &mut SimRng) -> Vec<PauseRecord> {
    let mut now = SimTime::ZERO;
    (0..rng.next_below(40))
        .map(|_| {
            now += SimDuration::from_nanos(rng.next_below(5_000));
            let (from, to) = (
                NodeId(rng.next_below(4) as u32),
                NodeId(rng.next_below(4) as u32),
            );
            (now, from, to, rng.next_below(2) == 1)
        })
        .collect()
}

fn tracker_of<'a>(log: impl IntoIterator<Item = &'a PauseRecord>) -> SafetyTracker {
    let mut tracker = SafetyTracker::new();
    for &(at, from, to, pause) in log {
        tracker.record_pause(at, from, to, pause);
    }
    tracker
}

fn arb_safety(rng: &mut SimRng) -> SafetyTracker {
    tracker_of(&arb_pause_log(rng))
}

/// The pause-duration histogram as a replay of its own, over the log in
/// recording order: an XOFF opens an interval on its edge (a refresh keeps
/// the original install instant), an XON closes it, and the intervals still
/// open close at `end`.
fn interval_replay(log: &[PauseRecord], end: SimTime) -> Hist {
    let mut hist = Hist::new();
    let mut open: BTreeMap<(NodeId, NodeId), SimTime> = BTreeMap::new();
    for &(at, from, to, pause) in log {
        if pause {
            open.entry((from, to)).or_insert(at);
        } else if let Some(start) = open.remove(&(from, to)) {
            hist.observe(at.saturating_since(start).as_nanos());
        }
    }
    for start in open.into_values() {
        hist.observe(end.saturating_since(start).as_nanos());
    }
    hist
}

/// The overlaid states: a fresh object of the same configuration restores
/// what `subject` saved and saves it back.
fn assert_overlay_laws<T>(
    subject: &T,
    fresh: impl Fn() -> T,
    save: impl Fn(&T, &mut SnapWriter),
    restore: impl Fn(&mut T, &mut SnapReader<'_>) -> Result<(), SnapError>,
) {
    let mut w = SnapWriter::new();
    save(subject, &mut w);
    assert_codec_laws(&w.into_bytes(), |r, w| {
        let mut target = fresh();
        restore(&mut target, r)?;
        save(&target, w);
        Ok(())
    });
}

property! {
    /// The pause-duration histogram `SafetyTracker::finish` builds in its
    /// one replay of the edge log equals a replay that tracks nothing but
    /// intervals, whether the log was recorded by one collector or split
    /// across 1–4 shards by the edge's `from` node (as the engine splits it)
    /// and merged.
    fn pause_histogram_matches_an_interval_replay(
        seed in int_range(0u64..u64::MAX),
        shards in int_range(1u64..5),
    ) {
        let rng = &mut SimRng::new(seed);
        let log = arb_pause_log(rng);
        let end = log.last().map_or(SimTime::ZERO, |r| r.0) + SimDuration::from_nanos(rng.next_below(5_000));
        let expected = interval_replay(&log, end);
        let parts: Vec<SafetyTracker> = (0..shards)
            .map(|shard| tracker_of(log.iter().filter(|r| u64::from(r.1 .0) % shards == shard)))
            .collect();
        let merged = SafetyTracker::merge(&parts);
        let (_, durations) = merged.finish(&GoodputSeries::new(), end, 0);
        assert_eq!(durations, expected);
    }
}

/// The flow table's quotas as a reference model: every tracked key (by its
/// index in the generated key space) with its admission class (true: the
/// shared cache) and the packet count last written to its entry, the bucket
/// residents per VFID and the cache's.
struct FlowTableModel {
    vfids: u64,
    entries: BTreeMap<u64, (bool, u32)>,
    bucket: Vec<usize>,
    bucket_size: usize,
    cache: usize,
    cache_capacity: usize,
}

impl FlowTableModel {
    /// Key `k` of the key space: a bijection, so the model's map needs no
    /// order on `FlowKey`.
    fn key(&self, k: u64) -> FlowKey {
        FlowKey {
            vfid: (k % self.vfids) as u32,
            ingress: (k / self.vfids % 4) as u32,
            egress: (k / self.vfids / 4) as u32,
        }
    }

    /// Checks the slot `table` reports for key `k` and the entry it holds.
    fn check_slot(&self, table: &FlowTable, k: u64, slot: EntrySlot) {
        let key = self.key(k);
        let (cached, packets) = self.entries[&k];
        match slot {
            EntrySlot::Cache { .. } => assert!(cached, "{key:?} admitted to its bucket"),
            EntrySlot::Bucket { vfid, .. } => assert!(!cached && vfid == key.vfid, "{slot:?}"),
        }
        assert_eq!(table.entry(slot).key, key);
        assert_eq!(table.entry(slot).packets_queued, packets);
    }

    /// Checks `find` for key `k` against the model.
    fn check_find(&self, table: &FlowTable, k: u64) {
        match table.find(self.key(k)) {
            Some(slot) => self.check_slot(table, k, slot),
            None => assert!(!self.entries.contains_key(&k), "key {k} lost"),
        }
    }
}

fn saved(table: &FlowTable) -> Vec<u8> {
    let mut w = SnapWriter::new();
    table.save_state(&mut w);
    w.into_bytes()
}

property! {
    /// The flow table's outcomes, admission classes, entries and length are
    /// those of a map plus the per-VFID bucket and shared cache quotas, over
    /// any sequence of `lookup_or_insert`, `find` and `remove` — across
    /// growth, backward-shift deletion and save → restore into a fresh or a
    /// non-empty table, which saves back to the same bytes.
    fn flow_table_matches_a_quota_model(
        geometry in triple(int_range(1u64..8), int_range(1u64..4), int_range(0u64..8)),
        ops in vec_of(pair(int_range(0u64..5), int_range(0u64..64)), 0..400),
    ) {
        let (vfids, bucket_size, cache_capacity) = (geometry.0, geometry.1 as usize, geometry.2 as usize);
        let fresh = || FlowTable::new(vfids as u32, bucket_size, cache_capacity);
        let mut model = FlowTableModel {
            vfids,
            entries: BTreeMap::new(),
            bucket: vec![0; vfids as usize],
            bucket_size,
            cache: 0,
            cache_capacity,
        };
        let mut table = fresh();
        let mut used = Vec::new();
        for (step, &(op, k)) in ops.iter().enumerate() {
            let key = model.key(k);
            used.push(k);
            match op {
                0 | 1 => {
                    let slot = match table.lookup_or_insert(key) {
                        LookupOutcome::Found(slot) => slot,
                        LookupOutcome::Inserted(slot) => {
                            assert!(!model.entries.contains_key(&k), "{key:?} inserted twice");
                            let bucket = &mut model.bucket[key.vfid as usize];
                            let cached = *bucket == model.bucket_size;
                            if cached {
                                assert!(model.cache < model.cache_capacity, "cache over quota");
                                model.cache += 1;
                            } else {
                                *bucket += 1;
                            }
                            model.entries.insert(k, (cached, 0));
                            slot
                        }
                        LookupOutcome::TableFull => {
                            assert!(!model.entries.contains_key(&k), "{key:?} is tracked");
                            assert_eq!(model.bucket[key.vfid as usize], model.bucket_size);
                            assert_eq!(model.cache, model.cache_capacity);
                            continue;
                        }
                    };
                    model.check_slot(&table, k, slot);
                    // Non-zero, as for every flow the policy tracks: a
                    // restore refuses an entry with no packet queued.
                    let packets = step as u32 + 1;
                    table.entry_mut(slot).packets_queued = packets;
                    model.entries.get_mut(&k).expect("tracked").1 = packets;
                }
                2 => {
                    table.remove(key);
                    if let Some((cached, _)) = model.entries.remove(&k) {
                        if cached {
                            model.cache -= 1;
                        } else {
                            model.bucket[key.vfid as usize] -= 1;
                        }
                    }
                }
                3 => model.check_find(&table, k),
                _ => {
                    // Save, then restore into a fresh table or into one
                    // holding other flows (ingress 9 is outside the key
                    // space), and carry on with the restored table.
                    let bytes = saved(&table);
                    let mut target = fresh();
                    if k % 2 == 1 {
                        for other in 0..k {
                            target.lookup_or_insert(FlowKey { ingress: 9, ..model.key(other) });
                        }
                    }
                    target
                        .restore_state(&mut SnapReader::new(&bytes))
                        .expect("a table restores what it saved");
                    assert_eq!(saved(&target), bytes);
                    table = target;
                    used.iter().for_each(|&k| model.check_find(&table, k));
                }
            }
            assert_eq!(table.len(), model.entries.len());
        }
        used.iter().for_each(|&k| model.check_find(&table, k));
    }
}

property! {
    fn every_snapshot_encoding_round_trips(seed in int_range(0u64..u64::MAX)) {
        let rng = &mut SimRng::new(seed);
        // bfc-sim: scalars, containers, clock, generator, histogram.
        assert_snap_round_trip(&(rng.next_u64() as u8, rng.next_below(2) == 1));
        assert_snap_round_trip(&(rng.next_u64() as u32, rng.next_u64()));
        assert_snap_round_trip(&(rng.next_u64() as usize, f64::from_bits(rng.next_u64()).abs().min(1e300)));
        assert_snap_round_trip(&(arb_time(rng), SimDuration::from_picos(rng.next_u64())));
        assert_snap_round_trip(&arb_opt(rng, arb_time));
        assert_snap_round_trip(&[rng.next_u64(), rng.next_u64(), rng.next_u64()]);
        assert_snap_round_trip(&arb_vec(rng, 9, |rng| arb_opt(rng, SimRng::next_u64)));
        assert_snap_round_trip(&VecDeque::from(arb_vec(rng, 9, |rng| FlowId(rng.next_u64() as u32))));
        let map: FastHashMap<FlowId, Vec<u32>> = arb_vec(rng, 9, |rng| {
            (FlowId(rng.next_below(30) as u32), arb_vec(rng, 4, |rng| rng.next_u64() as u32))
        })
        .into_iter()
        .collect();
        assert_snap_round_trip(&map);
        assert_snap_round_trip(&rng.clone());
        assert_snap_round_trip(&arb_hist(rng));
        // bfc-net: what travels, what waits, what is recorded.
        assert_snap_round_trip(&arb_int_path(rng));
        assert_snap_round_trip(&WireFrame::new(arb_pause_frame(rng)));
        assert_snap_round_trip(&arb_packet(rng));
        assert_snap_round_trip(&arb_event(rng));
        let mut tx = Transmitter::default();
        tx.start(SimTime::ZERO, arb_time(rng) + SimDuration::from_nanos(1));
        if rng.next_below(2) == 1 {
            tx.arm_wake();
        }
        assert_snap_round_trip(&tx);
        assert_snap_round_trip(&PolicyStats {
            flow_assignments: rng.next_u64(),
            collisions: rng.next_u64(),
            table_overflows: rng.next_u64(),
            pauses: rng.next_u64(),
            resumes: rng.next_u64(),
        });
        assert_snap_round_trip(&SwitchCounters {
            rx_packets: rng.next_u64(),
            drops: rng.next_u64(),
            ecn_marked: rng.next_u64(),
            pfc_pauses_sent: rng.next_u64(),
            flow_pause_frames_sent: rng.next_u64(),
            blackholed: rng.next_u64(),
        });
        // bfc-transport: both ends of a flow and its congestion control.
        assert_snap_round_trip(&arb_sender(rng));
        assert_snap_round_trip(&arb_receiver(rng));
        assert_snap_round_trip(&HostCounters {
            tx_data_bytes: rng.next_u64(),
            rx_data_bytes: rng.next_u64(),
            retransmitted_packets: rng.next_u64(),
            cnps_sent: rng.next_u64(),
        });
        // bfc-core and bfc-metrics.
        assert_snap_round_trip(&FlowEntry {
            key: FlowKey {
                vfid: rng.next_u64() as u32,
                ingress: rng.next_u64() as u32,
                egress: rng.next_u64() as u32,
            },
            queue: arb_opt(rng, |rng| rng.next_index(32)),
            packets_queued: rng.next_u64() as u32,
            paused: rng.next_below(2) == 1,
            resume_pending: rng.next_below(2) == 1,
        });
        let mut occupancy = OccupancySeries::new();
        for _ in 0..rng.next_below(30) {
            occupancy.record(rng.next_below(12_000_000));
        }
        assert_snap_round_trip(&occupancy);
        let mut goodput = GoodputSeries::new();
        for _ in 0..rng.next_below(30) {
            goodput.record(arb_time(rng), rng.next_below(1 << 40));
        }
        assert_snap_round_trip(&goodput);
        assert_snap_round_trip(&arb_safety(rng));

        // Overlaid states.
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..rng.next_below(60) {
            let at = SimTime::from_nanos(rng.next_below(1_000_000) >> rng.next_below(20));
            queue.push_ranked(at, rng.next_below(3) as u32, i);
            if rng.next_below(4) == 0 {
                queue.pop();
            }
        }
        let mut w = SnapWriter::new();
        queue.save_state(&mut w);
        assert_codec_laws(&w.into_bytes(), |r, w| {
            EventQueue::<u64>::restore_state(r, |_| Ok(()))?.save_state(w);
            Ok(())
        });

        let ports = 1 + rng.next_index(6);
        let mut buffer = SharedBuffer::new(200_000, ports);
        for _ in 0..rng.next_below(60) {
            let ingress = rng.next_index(ports) as u32;
            if rng.next_below(3) > 0 {
                buffer.admit(1 + rng.next_below(9_000) as u32, ingress);
            } else {
                let held = buffer.ingress_occupancy(ingress).min(9_000) as u32;
                buffer.release(held, ingress);
            }
            buffer.pfc_transition(ingress);
        }
        assert_overlay_laws(
            &buffer,
            || SharedBuffer::new(200_000, ports),
            SharedBuffer::save_state,
            SharedBuffer::restore_state,
        );

        let port = arb_port(rng);
        let queues = port.num_queues();
        assert_overlay_laws(
            &port,
            || Port::new(Link::datacenter_default(), None, queues),
            Port::save_state,
            Port::restore_state,
        );
    }
}
