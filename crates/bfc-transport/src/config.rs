//! Host-side configuration: which congestion-control scheme runs on the NIC.
//! The DCQCN and HPCC constants live with their algorithms ([`crate::dcqcn`],
//! [`crate::hpcc`]); the MTU data packets are cut to is
//! [`bfc_net::packet::MTU`].

use bfc_sim::SimDuration;

/// Which congestion-control algorithm the sender NIC runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Send at line rate whenever the flow is not paused (the BFC host
    /// model; flow control happens hop by hop in the fabric).
    LineRate,
    /// Only a static in-flight window cap (Ideal-FQ and SFQ+InfBuffer use a
    /// one-BDP cap).
    WindowLimited,
    /// DCQCN rate control (optionally with the DCQCN+Win one-BDP cap).
    Dcqcn,
    /// HPCC INT-based window control.
    Hpcc,
}

/// Full host configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Congestion-control algorithm.
    pub cc: CcKind,
    /// In-flight byte cap (`None` = unlimited). The paper's DCQCN+Win,
    /// Ideal-FQ and SFQ+InfBuffer variants use one end-to-end BDP.
    pub window_bytes: Option<u64>,
    /// Network-wide base (unloaded) end-to-end RTT; used by HPCC as its
    /// reference `T`, and to set the Go-Back-N retransmission timeout
    /// ([`default_rto`]).
    pub base_rtt: SimDuration,
}

impl HostConfig {
    /// A BFC host: line rate, no window, pauses obeyed per flow.
    pub fn bfc(base_rtt: SimDuration) -> Self {
        HostConfig {
            cc: CcKind::LineRate,
            window_bytes: None,
            base_rtt,
        }
    }

    /// A host limited only by a window of `window_bytes` (Ideal-FQ /
    /// SFQ+InfBuffer).
    pub fn window_limited(base_rtt: SimDuration, window_bytes: u64) -> Self {
        HostConfig {
            cc: CcKind::WindowLimited,
            window_bytes: Some(window_bytes),
            ..HostConfig::bfc(base_rtt)
        }
    }

    /// A DCQCN host; pass `window_bytes` to get the DCQCN+Win variant.
    pub fn dcqcn(base_rtt: SimDuration, window_bytes: Option<u64>) -> Self {
        HostConfig {
            cc: CcKind::Dcqcn,
            window_bytes,
            ..HostConfig::bfc(base_rtt)
        }
    }

    /// An HPCC host.
    pub fn hpcc(base_rtt: SimDuration) -> Self {
        HostConfig {
            cc: CcKind::Hpcc,
            ..HostConfig::bfc(base_rtt)
        }
    }
}

/// The Go-Back-N retransmission timeout: a handful of base RTTs, floored
/// so that timers stay coarse relative to the simulation step.
pub fn default_rto(base_rtt: SimDuration) -> SimDuration {
    let four = base_rtt * 4;
    if four < SimDuration::from_micros(40) {
        SimDuration::from_micros(40)
    } else {
        four
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_constructors() {
        let rtt = SimDuration::from_micros(8);
        let bfc = HostConfig::bfc(rtt);
        assert_eq!(bfc.cc, CcKind::LineRate);
        assert_eq!(bfc.window_bytes, None);
        let win = HostConfig::window_limited(rtt, 100_000);
        assert_eq!(win.cc, CcKind::WindowLimited);
        assert_eq!(win.window_bytes, Some(100_000));
        let d = HostConfig::dcqcn(rtt, Some(100_000));
        assert_eq!(d.cc, CcKind::Dcqcn);
        let h = HostConfig::hpcc(rtt);
        assert_eq!(h.cc, CcKind::Hpcc);
    }

    #[test]
    fn rto_floor() {
        assert_eq!(
            default_rto(SimDuration::from_micros(8)),
            SimDuration::from_micros(40)
        );
        assert_eq!(
            default_rto(SimDuration::from_micros(400)),
            SimDuration::from_micros(1600)
        );
    }
}
