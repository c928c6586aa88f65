//! Property-based tests (via the in-tree `bfc-testkit` harness) on the core
//! data structures and on the end-to-end invariants of the simulator.
//!
//! On failure the runner prints the per-case seed; rerun exactly that case
//! with `BFC_TESTKIT_SEED=<seed> cargo test <property_name>`.

use backpressure_flow_control::core::policy::pick_queue;
use backpressure_flow_control::core::{BfcConfig, CountingBloom};
use backpressure_flow_control::experiments::{run_experiment, ExperimentConfig, Scheme};
use backpressure_flow_control::metrics::percentile;
use backpressure_flow_control::net::packet::PauseFrame;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimRng, SimTime};
use backpressure_flow_control::transport::FlowSpec;
use backpressure_flow_control::workloads::{TraceFlow, Workload};
use bfc_testkit::{f64_range, hash_set_of, int_range, one_of, pair, property, vec_of};

property! {
    /// BFC's allocation-free queue choice (count the free queues, draw, walk
    /// to the k-th) picks the queue the original collect-then-index code
    /// picked and consumes the RNG identically, for rows with none, some and
    /// all queues free.
    fn pick_queue_matches_collect_then_index(
        row in vec_of(int_range(0u64..3), 1..40),
        seed in int_range(0u64..u64::MAX),
    ) {
        let row: Vec<u32> = row.iter().map(|&c| c as u32).collect();
        let (mut old_rng, mut new_rng) = (SimRng::new(seed), SimRng::new(seed));
        let free: Vec<usize> = (0..row.len()).filter(|&q| row[q] == 0).collect();
        let expected = if free.is_empty() {
            old_rng.next_index(row.len())
        } else {
            free[old_rng.next_index(free.len())]
        };
        assert_eq!(pick_queue(&row, &mut new_rng), expected);
        assert_eq!(new_rng.state(), old_rng.state(), "same single RNG draw");
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
        let mut frame = PauseFrame::new(size_bytes, 4);
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
        let mut cb = CountingBloom::new(64, 4);
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
        let mut cb = CountingBloom::new(size_bytes, 4);
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
            let mut scan = PauseFrame::new(size_bytes, 4);
            for v in (0..48u32).filter(|&v| paused[v as usize] > 0) {
                scan.insert(v);
            }
            assert_eq!(cb.snapshot(), scan);
        }
    }

    /// Packetization conserves bytes: the per-packet sizes of a flow sum to
    /// the flow size, every packet is at most one MTU, and only the last
    /// packet may be smaller.
    fn packetization_conserves_bytes(
        size in int_range(1u64..5_000_000),
        mtu in one_of(&[500u32, 1000, 1500]),
    ) {
        let spec = FlowSpec {
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            vfid: 1,
        };
        let n = spec.num_packets(mtu);
        let mut total = 0u64;
        for seq in 0..n {
            let s = spec.packet_size(seq, mtu);
            assert!(s >= 1 && s <= mtu);
            if seq + 1 < n {
                assert_eq!(s, mtu);
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
        let cfg = BfcConfig::default();
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        assert!(cfg.pause_threshold_bytes(gbps, hi) <= cfg.pause_threshold_bytes(gbps, lo));
        assert!(cfg.pause_threshold_bytes(gbps / 2.0, lo) <= cfg.pause_threshold_bytes(gbps, lo));
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
                assert!(record.fct >= record.ideal_fct || record.slowdown() >= 1.0);
            }
        },
    );
}
