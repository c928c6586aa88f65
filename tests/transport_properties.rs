//! `bfc-testkit` property for `bfc-transport`: Go-Back-N delivers every byte
//! exactly once, in order, under randomized loss patterns.
//!
//! Two hosts are wired back to back (no switch in between) and the test
//! harness plays packet carrier: every data packet and every ACK consults a
//! generated loss pattern before delivery. Once the pattern is exhausted the
//! link becomes lossless, so Go-Back-N must eventually finish the flow —
//! every retransmission driven by NACKs and the retransmit timer.
//!
//! On failure the runner prints the per-case seed; rerun exactly that case
//! with `BFC_TESTKIT_SEED=<seed> cargo test <property_name>`.

use backpressure_flow_control::net::event::NetEvent;
use backpressure_flow_control::net::packet::{PacketKind, MTU};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::Link;
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimTime};
use backpressure_flow_control::transport::{FlowSpec, Host, HostConfig};
use bfc_testkit::{check, int_range, pair, vec_of, Config};

const SENDER: NodeId = NodeId(0);
const RECEIVER: NodeId = NodeId(1);

/// Outcome of one lossy Go-Back-N session.
struct SessionReport {
    delivered_bytes: u64,
    completions: u64,
    data_drops: usize,
    ack_drops: usize,
    cumulative_acks: Vec<u64>,
}

/// Runs one flow of `size_bytes` from SENDER to RECEIVER, dropping the
/// `i`-th data packet when `data_loss[i]` and the `i`-th ACK-class packet
/// when `ack_loss[i]` (losses beyond the pattern length never happen).
fn run_lossy_session(size_bytes: u64, data_loss: &[bool], ack_loss: &[bool]) -> SessionReport {
    let link = Link::datacenter_default();
    let config = HostConfig::bfc(SimDuration::from_micros(8));
    let mut sender = Host::new(SENDER, link, (RECEIVER, 0), config);
    let mut receiver = Host::new(RECEIVER, link, (SENDER, 0), config);

    let spec = FlowSpec {
        flow: FlowId(1),
        src: SENDER,
        dst: RECEIVER,
        size_bytes,
        vfid: 1,
    };
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    receiver.expect_flow(spec);
    sender.start_flow(SimTime::ZERO, spec, &mut events);

    let mut report = SessionReport {
        delivered_bytes: 0,
        completions: 0,
        data_drops: 0,
        ack_drops: 0,
        cumulative_acks: Vec::new(),
    };
    let (mut data_seen, mut ack_seen) = (0usize, 0usize);
    let mut steps = 0u64;
    while let Some((now, event)) = events.pop() {
        steps += 1;
        assert!(
            steps < 2_000_000,
            "session did not converge: {} of {} bytes delivered",
            report.delivered_bytes,
            size_bytes
        );
        match event {
            NetEvent::PacketArrive { node, packet, .. } => {
                let drop = if packet.is_data() {
                    let drop = data_loss.get(data_seen).copied().unwrap_or(false);
                    data_seen += 1;
                    report.data_drops += drop as usize;
                    drop
                } else {
                    if let PacketKind::Ack { .. } = packet.kind {
                        report.cumulative_acks.push(packet.seq);
                    }
                    let drop = ack_loss.get(ack_seen).copied().unwrap_or(false);
                    ack_seen += 1;
                    report.ack_drops += drop as usize;
                    drop
                };
                if drop {
                    continue;
                }
                if node == RECEIVER {
                    receiver.handle_packet(now, packet, &mut events);
                } else {
                    sender.handle_packet(now, packet, &mut events);
                }
            }
            NetEvent::TxComplete { node, .. } => {
                if node == RECEIVER {
                    receiver.handle_tx_complete(now, &mut events);
                } else {
                    sender.handle_tx_complete(now, &mut events);
                }
            }
            NetEvent::HostTimer { node, timer } => {
                // Stop re-arming timers once the transfer is fully done,
                // otherwise the periodic retransmit timer runs forever.
                if report.completions > 0 && sender.active_sender_flows() == 0 {
                    continue;
                }
                if node == RECEIVER {
                    receiver.handle_timer(now, timer, &mut events);
                } else {
                    sender.handle_timer(now, timer, &mut events);
                }
            }
            NetEvent::FlowCompleted { flow } => {
                assert_eq!(flow, FlowId(1));
                report.completions += 1;
            }
            _ => {}
        }
    }
    report.delivered_bytes = receiver.counters().rx_data_bytes;
    report
}

#[test]
fn go_back_n_delivers_every_byte_exactly_once_under_loss() {
    // (flow size in packets, loss die rolls): a roll of 0 drops a data
    // packet, a roll of 1 drops an ACK — 25% data loss, 25% ACK loss over
    // the pattern's reach, lossless afterwards.
    let gen = pair(
        int_range(1u64..60),
        vec_of(int_range(0u64..4), 1..120),
    );
    check(
        "go_back_n_delivers_every_byte_exactly_once_under_loss",
        Config::from_env().with_cases(48),
        gen,
        |&(packets, ref rolls)| {
            let size_bytes = packets * MTU as u64 - 137.min(packets * MTU as u64 - 1);
            let data_loss: Vec<bool> = rolls.iter().map(|&r| r == 0).collect();
            let ack_loss: Vec<bool> = rolls.iter().map(|&r| r == 1).collect();
            let report = run_lossy_session(size_bytes, &data_loss, &ack_loss);

            // Every byte arrives exactly once (the receiver only counts
            // in-order first deliveries) and completion fires exactly once.
            assert_eq!(
                report.delivered_bytes, size_bytes,
                "every byte must be delivered exactly once"
            );
            assert_eq!(report.completions, 1, "completion must fire exactly once");

            // In-order delivery: the receiver's expected sequence number is
            // monotone, so the cumulative acknowledgement stream it emits
            // never decreases (the carrier preserves order and drops are
            // not reorderings), and its maximum covers the whole flow.
            for w in report.cumulative_acks.windows(2) {
                assert!(
                    w[1] >= w[0],
                    "cumulative ACKs must be non-decreasing: {} then {}",
                    w[0],
                    w[1]
                );
            }
            let total_packets = size_bytes.div_ceil(MTU as u64);
            assert_eq!(
                report.cumulative_acks.last().copied(),
                Some(total_packets),
                "the final ACK covers the flow"
            );
        },
    );
}

#[test]
fn go_back_n_is_exact_on_a_lossless_link() {
    let report = run_lossy_session(10 * MTU as u64, &[], &[]);
    assert_eq!(report.delivered_bytes, 10 * MTU as u64);
    assert_eq!(report.completions, 1);
    assert_eq!(report.data_drops, 0);
    // Without loss the cumulative ACK sequence is strictly increasing.
    for w in report.cumulative_acks.windows(2) {
        assert!(w[1] > w[0], "lossless ACKs must be strictly increasing");
    }
}
