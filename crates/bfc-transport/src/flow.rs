//! Per-flow sender and receiver state.

use bfc_net::types::{FlowId, NodeId};
use bfc_sim::SimTime;

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
    /// Number of MTU-sized packets needed (at least one).
    pub fn num_packets(&self, mtu: u32) -> u64 {
        self.size_bytes.div_ceil(mtu as u64).max(1)
    }

    /// Wire size of packet `seq` (the last packet carries the remainder).
    pub fn packet_size(&self, seq: u64, mtu: u32) -> u32 {
        let total = self.num_packets(mtu);
        debug_assert!(seq < total);
        if seq + 1 < total {
            mtu
        } else {
            let rem = self.size_bytes - (total - 1) * mtu as u64;
            (rem.max(1)).min(mtu as u64) as u32
        }
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

/// Sender-side state of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SenderFlow {
    /// The flow's static description.
    pub spec: FlowSpec,
    /// Total packets to send.
    pub num_packets: u64,
    /// Next packet sequence number to transmit.
    pub next_seq: u64,
    /// Highest cumulative acknowledgement received.
    pub acked_seq: u64,
    /// Earliest time the pacer allows the next transmission.
    pub next_allowed: SimTime,
    /// Congestion-control state.
    pub cc: CcState,
    /// `acked_seq` observed at the last retransmission-timer check.
    pub acked_at_last_timeout: u64,
}

impl SenderFlow {
    /// Creates sender state for `spec`, allowed to send from `now`.
    pub fn new(spec: FlowSpec, mtu: u32, cc: CcState, now: SimTime) -> Self {
        SenderFlow {
            num_packets: spec.num_packets(mtu),
            spec,
            next_seq: 0,
            acked_seq: 0,
            next_allowed: now,
            cc,
            acked_at_last_timeout: 0,
        }
    }

    /// True once every packet has been cumulatively acknowledged.
    pub fn fully_acked(&self) -> bool {
        self.acked_seq >= self.num_packets
    }

    /// True while there are packets that have not been transmitted (or that
    /// must be retransmitted after a Go-Back-N rewind).
    pub fn has_unsent(&self) -> bool {
        self.next_seq < self.num_packets
    }

    /// Approximate bytes in flight (unacknowledged), assuming MTU-sized
    /// packets; used for window checks.
    pub fn inflight_bytes(&self, mtu: u32) -> u64 {
        self.next_seq.saturating_sub(self.acked_seq) * mtu as u64
    }
}

bfc_sim::snap_struct! {
    SenderFlow {
        spec, num_packets, next_seq, acked_seq, next_allowed, cc, acked_at_last_timeout,
    }
}

/// Receiver-side state of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverFlow {
    /// The flow's static description.
    pub spec: FlowSpec,
    /// Total packets expected.
    pub num_packets: u64,
    /// Next in-order packet sequence expected.
    pub expected_seq: u64,
    /// Last time a CNP was generated for this flow.
    pub last_cnp: Option<SimTime>,
    /// Sequence for which a NACK was already sent (suppresses duplicates).
    pub nack_sent_for: Option<u64>,
}

impl ReceiverFlow {
    /// Creates receiver state for `spec`.
    pub fn new(spec: FlowSpec, mtu: u32) -> Self {
        ReceiverFlow {
            num_packets: spec.num_packets(mtu),
            spec,
            expected_seq: 0,
            last_cnp: None,
            nack_sent_for: None,
        }
    }
}

bfc_sim::snap_struct! {
    ReceiverFlow {
        spec, num_packets, expected_seq, last_cnp, nack_sent_for,
    }
}

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
        assert_eq!(spec(1).num_packets(1000), 1);
        assert_eq!(spec(1000).num_packets(1000), 1);
        assert_eq!(spec(1001).num_packets(1000), 2);
        assert_eq!(spec(20_000_000).num_packets(1000), 20_000);
    }

    #[test]
    fn last_packet_carries_remainder() {
        let s = spec(2500);
        assert_eq!(s.packet_size(0, 1000), 1000);
        assert_eq!(s.packet_size(1, 1000), 1000);
        assert_eq!(s.packet_size(2, 1000), 500);
        assert_eq!(spec(1000).packet_size(0, 1000), 1000);
        assert_eq!(spec(64).packet_size(0, 1000), 64);
    }

    #[test]
    fn sender_flow_progress_flags() {
        let mut f = SenderFlow::new(spec(2500), 1000, CcState::None, SimTime::ZERO);
        assert!(f.has_unsent());
        assert!(!f.fully_acked());
        f.next_seq = 3;
        assert!(!f.has_unsent());
        assert_eq!(f.inflight_bytes(1000), 3000);
        f.acked_seq = 3;
        assert!(f.fully_acked());
        assert_eq!(f.inflight_bytes(1000), 0);
    }

    #[test]
    fn receiver_flow_initial_state() {
        let r = ReceiverFlow::new(spec(5000), 1000);
        assert_eq!(r.num_packets, 5);
        assert_eq!(r.expected_seq, 0);
    }
}
