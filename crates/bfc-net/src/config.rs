//! Switch configuration — a switch's queue count and shared buffer — and
//! the paper's fixed ECN and pause-frame constants (§4.1). A switch runs no
//! scheme: it ECN-marks packets whose codepoint asks for it, appends INT to
//! packets that carry a header ([`crate::packet`]), and sends PFC frames
//! when its buffer is finite ([`crate::buffer`]). The MTU, which is every
//! egress port's DRR quantum, is [`crate::packet::MTU`].

use bfc_sim::SimDuration;

/// Interval τ between BFC pause-frame emissions: half the paper's 2 µs
/// one-hop RTT. The switch's pause-frame timer and BFC's §3.4 pause
/// threshold (`bfc_core::config::pause_threshold_bytes`) both read it.
pub const PAUSE_FRAME_INTERVAL: SimDuration = SimDuration::from_micros(1);

/// Queue length at or below which ECN marks no packet. The paper configures
/// marking to trigger before PFC: `Kmin = 100 KB`, `Kmax = 400 KB`.
pub(crate) const ECN_KMIN_BYTES: u64 = 100_000;
/// Queue length at or above which ECN marks every packet.
pub(crate) const ECN_KMAX_BYTES: u64 = 400_000;
/// Marking probability just below [`ECN_KMAX_BYTES`].
const ECN_PMAX: f64 = 0.2;

/// RED/ECN marking probability for an (egress-port) queue of `qlen` bytes:
/// 0 up to `Kmin`, rising linearly to `pmax` at `Kmax`, 1 from `Kmax` on.
pub(crate) fn ecn_marking_probability(qlen: u64) -> f64 {
    if qlen <= ECN_KMIN_BYTES {
        0.0
    } else if qlen >= ECN_KMAX_BYTES {
        1.0
    } else {
        let span = (ECN_KMAX_BYTES - ECN_KMIN_BYTES) as f64;
        ECN_PMAX * (qlen - ECN_KMIN_BYTES) as f64 / span
    }
}

/// Full configuration of one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Number of physical queues per egress port available to the queue
    /// assignment policy (32 in the paper's hardware model).
    pub queues_per_port: usize,
    /// Shared packet buffer capacity in bytes. The paper's switches have
    /// 12 MB; `u64::MAX` models the infinite-buffer baselines, which run no
    /// PFC.
    pub buffer_bytes: u64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            queues_per_port: 32,
            buffer_bytes: 12_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecn_probability_is_piecewise_linear() {
        assert_eq!(ecn_marking_probability(0), 0.0);
        assert_eq!(ecn_marking_probability(100_000), 0.0);
        assert_eq!(ecn_marking_probability(400_000), 1.0);
        assert_eq!(ecn_marking_probability(1_000_000), 1.0);
        let mid = ecn_marking_probability(250_000);
        assert!((mid - 0.1).abs() < 1e-9, "got {mid}");
    }
}
