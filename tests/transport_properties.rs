//! `bfc-testkit` properties for `bfc-transport`: Go-Back-N delivers every
//! byte exactly once, in order, under randomized loss patterns and under
//! ACKs delayed past the retransmission timeout.
//!
//! Two hosts are wired back to back (no switch in between) and the test
//! harness plays packet carrier: every data packet and every ACK consults a
//! generated loss pattern before delivery, and every ACK may be held back a
//! fixed extra delay. Once the pattern is exhausted the link becomes
//! lossless, so Go-Back-N must eventually finish the flow — every
//! retransmission driven by NACKs and the retransmit timer.
//!
//! On failure the runner prints the per-case seed; rerun exactly that case
//! with `BFC_TESTKIT_SEED=<seed> cargo test <property_name>`.

use backpressure_flow_control::net::event::{NetEvent, NetSink};
use backpressure_flow_control::net::packet::{PacketKind, MTU};
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::Link;
use backpressure_flow_control::sim::{EventQueue, SimDuration, SimTime};
use backpressure_flow_control::transport::{FlowSpec, Host, HostConfig};
use bfc_testkit::{check, int_range, pair, vec_of, Config};

const SENDER: NodeId = NodeId(0);
const RECEIVER: NodeId = NodeId(1);
/// The port a held-back ACK-class packet arrives on; a host's one port is 0.
const DELAYED: u32 = 1;

/// Outcome of one lossy Go-Back-N session.
struct SessionReport {
    delivered_bytes: u64,
    rewound_packets: u64,
    completions: u64,
    data_drops: usize,
    ack_drops: usize,
    cumulative_acks: Vec<u64>,
}

/// Runs one flow of `size_bytes` from SENDER to RECEIVER, dropping the
/// `i`-th data packet when `data_loss[i]` and the `i`-th ACK-class packet
/// when `ack_loss[i]` (losses beyond the pattern length never happen), and
/// delivering every ACK-class packet that is not dropped `ack_delay` late.
/// The delay is the same for all of them, so they stay in order.
fn run_lossy_session(
    size_bytes: u64,
    data_loss: &[bool],
    ack_loss: &[bool],
    ack_delay: SimDuration,
) -> SessionReport {
    let link = Link::datacenter_default();
    let config = HostConfig::bfc(SimDuration::from_micros(8));
    // Indexed by node: the sender is node 0, the receiver node 1.
    let mut hosts = [
        Host::new(SENDER, link, (RECEIVER, 0), config),
        Host::new(RECEIVER, link, (SENDER, 0), config),
    ];

    let spec = FlowSpec {
        flow: FlowId(1),
        src: SENDER,
        dst: RECEIVER,
        size_bytes,
        vfid: 1,
    };
    let mut events: EventQueue<NetEvent> = EventQueue::new();
    hosts[RECEIVER.index()].expect_flow(spec);
    hosts[SENDER.index()].start_flow(SimTime::ZERO, spec, &mut events);

    let mut report = SessionReport {
        delivered_bytes: 0,
        rewound_packets: 0,
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
            hosts[RECEIVER.index()].counters().rx_data_bytes,
            size_bytes
        );
        match event {
            // An ACK-class packet held back: it was counted and spared when
            // it first arrived.
            NetEvent::PacketArrive {
                node,
                port: DELAYED,
                packet,
            } => hosts[node.index()].handle_packet(now, packet, &mut events),
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
                if packet.is_data() || ack_delay == SimDuration::ZERO {
                    hosts[node.index()].handle_packet(now, packet, &mut events);
                } else {
                    let port = DELAYED;
                    events.send(
                        now + ack_delay,
                        NetEvent::PacketArrive { node, port, packet },
                    );
                }
            }
            NetEvent::TxComplete { node, .. } => {
                hosts[node.index()].handle_tx_complete(now, &mut events)
            }
            NetEvent::HostTimer { node, timer } => {
                // Stop re-arming timers once the transfer is fully done,
                // otherwise the periodic retransmit timer runs forever.
                if report.completions > 0 && hosts[SENDER.index()].active_sender_flows() == 0 {
                    continue;
                }
                hosts[node.index()].handle_timer(now, timer, &mut events);
            }
            NetEvent::FlowCompleted { flow } => {
                assert_eq!(flow, FlowId(1));
                report.completions += 1;
            }
            _ => {}
        }
    }
    report.delivered_bytes = hosts[RECEIVER.index()].counters().rx_data_bytes;
    report.rewound_packets = hosts[SENDER.index()].counters().retransmitted_packets;
    report
}

/// Every byte arrives exactly once (the receiver only counts in-order first
/// deliveries), completion fires exactly once, and the cumulative
/// acknowledgements the receiver emits never decrease and end covering the
/// whole flow.
fn assert_exactly_once(report: &SessionReport, size_bytes: u64) {
    assert_eq!(
        report.delivered_bytes, size_bytes,
        "every byte must be delivered exactly once"
    );
    assert_eq!(report.completions, 1, "completion must fire exactly once");

    // In-order delivery: the receiver's expected sequence number is
    // monotone, so the cumulative acknowledgement stream it emits never
    // decreases (the carrier preserves order, and neither drops nor a
    // common delay are reorderings), and its maximum covers the whole flow.
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
}

#[test]
fn go_back_n_delivers_every_byte_exactly_once_under_loss() {
    // (flow size in packets, loss die rolls): a roll of 0 drops a data
    // packet, a roll of 1 drops an ACK — 25% data loss, 25% ACK loss over
    // the pattern's reach, lossless afterwards.
    let gen = pair(int_range(1u64..60), vec_of(int_range(0u64..4), 1..120));
    check(
        "go_back_n_delivers_every_byte_exactly_once_under_loss",
        Config::from_env().with_cases(48),
        gen,
        |&(packets, ref rolls)| {
            let size_bytes = packets * MTU as u64 - 137.min(packets * MTU as u64 - 1);
            let data_loss: Vec<bool> = rolls.iter().map(|&r| r == 0).collect();
            let ack_loss: Vec<bool> = rolls.iter().map(|&r| r == 1).collect();
            let report = run_lossy_session(size_bytes, &data_loss, &ack_loss, SimDuration::ZERO);
            assert_exactly_once(&report, size_bytes);
        },
    );
}

#[test]
fn go_back_n_delivers_every_byte_exactly_once_with_acks_delayed_past_the_rto() {
    // (flow size in packets, extra ACK delay in µs): every ACK arrives, in
    // order, but later than the 40 µs retransmission timeout, so the timer
    // fires with the first ACK still on its way and Go-Back-N rewinds data
    // the receiver already holds.
    let gen = pair(int_range(1u64..101), int_range(41u64..400));
    check(
        "go_back_n_delivers_every_byte_exactly_once_with_acks_delayed_past_the_rto",
        Config::from_env().with_cases(48),
        gen,
        |&(packets, delay_us)| {
            let size_bytes = packets * MTU as u64;
            let delay = SimDuration::from_micros(delay_us);
            let report = run_lossy_session(size_bytes, &[], &[], delay);
            assert_exactly_once(&report, size_bytes);
            assert!(report.rewound_packets > 0, "the timer fired before an ACK");
        },
    );
}

#[test]
fn go_back_n_is_exact_on_a_lossless_link() {
    let report = run_lossy_session(10 * MTU as u64, &[], &[], SimDuration::ZERO);
    assert_eq!(report.delivered_bytes, 10 * MTU as u64);
    assert_eq!(report.completions, 1);
    assert_eq!(report.data_drops, 0);
    // Without loss the cumulative ACK sequence is strictly increasing.
    for w in report.cumulative_acks.windows(2) {
        assert!(w[1] > w[0], "lossless ACKs must be strictly increasing");
    }
}
