//! HPCC: high-precision congestion control (Li et al., SIGCOMM 2019).
//!
//! HPCC is the second end-to-end baseline in the paper. Switches append
//! in-band network telemetry (INT) to every data packet: queue length,
//! cumulative transmitted bytes, a timestamp and the link capacity. The
//! receiver echoes the telemetry on ACKs and the sender computes, per link,
//! an estimate of bytes-in-flight relative to the bandwidth-delay product,
//! then sets its window multiplicatively toward the target utilization
//! `η = 0.95`, with at most `maxStage = 5` additive steps between multiplicative
//! updates (the HPCC paper's constants, as used in §4.1).

use bfc_net::packet::{IntHop, IntPath};

/// Target utilization η.
const ETA: f64 = 0.95;
/// Maximum number of additive-increase stages per reference-window update
/// (maxStage).
const MAX_STAGE: u32 = 5;
/// Additive window increase per update, as a fraction of the
/// bandwidth-delay product.
const W_AI_FRACTION: f64 = 0.0125;

/// Sender-side HPCC state for one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct HpccState {
    /// Current window in bytes (also drives the pacing rate `W / T`).
    pub window_bytes: f64,
    /// Reference window updated once per RTT.
    reference_window: f64,
    /// Additive-increase stages since the last multiplicative update.
    inc_stage: u32,
    /// Sequence number that must be acknowledged before the reference window
    /// may be updated again (the "per-ACK vs per-RTT" guard of the paper).
    update_after_seq: u64,
    /// Last INT record seen per hop. Holds the storage of the ACK that
    /// delivered it (swapped in by `on_ack`, never copied).
    last_int: IntPath,
    /// Additive increase in bytes.
    w_ai: f64,
    /// Base RTT in seconds.
    base_rtt_secs: f64,
    /// One bandwidth-delay product in bytes (window upper bound).
    max_window: f64,
}

impl HpccState {
    /// Creates the state for a flow on a `line_rate_gbps` access link with
    /// the given network base RTT.
    pub fn new(line_rate_gbps: f64, base_rtt_secs: f64) -> Self {
        let bdp = line_rate_gbps * 1e9 / 8.0 * base_rtt_secs;
        HpccState {
            window_bytes: bdp,
            reference_window: bdp,
            inc_stage: 0,
            update_after_seq: 0,
            last_int: IntPath::new(),
            w_ai: bdp * W_AI_FRACTION,
            base_rtt_secs,
            max_window: bdp,
        }
    }

    /// Current pacing rate in Gbps implied by the window.
    pub fn rate_gbps(&self) -> f64 {
        (self.window_bytes * 8.0 / self.base_rtt_secs) / 1e9
    }

    /// The normalized utilization `U` of the most congested hop, given fresh
    /// telemetry and the previous sample. Returns `None` until two samples of
    /// the same path are available.
    fn max_utilization(&self, int: &[IntHop]) -> Option<f64> {
        if self.last_int.len() != int.len() || int.is_empty() {
            return None;
        }
        let mut u_max: f64 = 0.0;
        for (cur, prev) in int.iter().zip(self.last_int.iter()) {
            let link_bps = cur.link_gbps * 1e9;
            let dt_secs = (cur.timestamp_ps.saturating_sub(prev.timestamp_ps)) as f64 / 1e12;
            let tx_rate_bps = if dt_secs > 0.0 {
                (cur.tx_bytes.saturating_sub(prev.tx_bytes)) as f64 * 8.0 / dt_secs
            } else {
                0.0
            };
            let qlen = cur.qlen_bytes.min(prev.qlen_bytes) as f64;
            let u = qlen * 8.0 / (link_bps * self.base_rtt_secs) + tx_rate_bps / link_bps;
            u_max = u_max.max(u);
        }
        Some(u_max)
    }

    /// Processes the INT echoed on an ACK. `acked_seq` is the cumulative
    /// acknowledgement and `snd_nxt` the sender's next unsent sequence number
    /// (both in packets); they gate the once-per-RTT reference-window update.
    ///
    /// `int` is *swapped* with the stored previous sample rather than copied:
    /// on return it holds the previous sample (and its storage), which the
    /// caller recycles into its next data packet.
    pub fn on_ack(&mut self, int: &mut IntPath, acked_seq: u64, snd_nxt: u64) {
        let utilization = self.max_utilization(int);
        std::mem::swap(&mut self.last_int, int);
        let Some(u) = utilization else {
            return;
        };

        if u >= ETA || self.inc_stage >= MAX_STAGE {
            self.window_bytes = self.reference_window / (u / ETA) + self.w_ai;
            if acked_seq >= self.update_after_seq {
                self.reference_window = self.window_bytes;
                self.inc_stage = 0;
                self.update_after_seq = snd_nxt;
            }
        } else {
            self.window_bytes = self.reference_window + self.w_ai;
            if acked_seq >= self.update_after_seq {
                self.reference_window = self.window_bytes;
                self.inc_stage += 1;
                self.update_after_seq = snd_nxt;
            }
        }
        let floor = self.w_ai.max(1_500.0);
        self.window_bytes = self.window_bytes.clamp(floor, self.max_window);
        self.reference_window = self.reference_window.clamp(floor, self.max_window);
    }

    /// Current additive-increase stage (diagnostics).
    pub fn inc_stage(&self) -> u32 {
        self.inc_stage
    }
}

bfc_sim::snap_struct! {
    HpccState {
        window_bytes, reference_window, inc_stage, update_after_seq, last_int, w_ai, base_rtt_secs,
        max_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE_RTT: f64 = 8e-6;

    fn hop(qlen: u64, tx: u64, ts_ps: u64) -> IntHop {
        IntHop {
            qlen_bytes: qlen,
            tx_bytes: tx,
            timestamp_ps: ts_ps,
            link_gbps: 100.0,
        }
    }

    #[test]
    fn starts_at_one_bdp() {
        let s = HpccState::new(100.0, BASE_RTT);
        assert!((s.window_bytes - 100_000.0).abs() < 1.0);
        assert!((s.rate_gbps() - 100.0).abs() < 0.1);
    }

    #[test]
    fn congested_link_shrinks_window() {
        let mut s = HpccState::new(100.0, BASE_RTT);
        // First sample primes last_int with an already-deep queue.
        s.on_ack(&mut IntPath::from_slice(&[hop(400_000, 100_000, 0)]), 1, 10);
        // Second sample: the link transmitted a full BDP during one RTT and
        // still holds a deep queue → utilization well above η.
        s.on_ack(&mut IntPath::from_slice(&[hop(400_000, 200_000, 8_000_000)]), 2, 12);
        assert!(
            s.window_bytes < 50_000.0,
            "window should shrink sharply, got {}",
            s.window_bytes
        );
    }

    #[test]
    fn idle_link_lets_window_grow_back_to_cap() {
        let mut s = HpccState::new(100.0, BASE_RTT);
        // Prime, then congest to shrink the window.
        s.on_ack(&mut IntPath::from_slice(&[hop(400_000, 100_000, 0)]), 1, 10);
        s.on_ack(&mut IntPath::from_slice(&[hop(400_000, 200_000, 8_000_000)]), 2, 12);
        let small = s.window_bytes;
        // Now a long series of samples from an almost idle link.
        let mut ts = 16_000_000u64;
        let mut tx = 200_000u64;
        for ack in 3..200u64 {
            ts += 8_000_000;
            tx += 10_000; // 10 KB per RTT ≈ 10% utilization
            s.on_ack(&mut IntPath::from_slice(&[hop(0, tx, ts)]), ack, ack + 10);
        }
        assert!(s.window_bytes > small);
        assert!(s.window_bytes <= 100_000.0 + 1.0, "never exceeds one BDP");
    }

    #[test]
    fn utilization_needs_two_samples_of_same_path_length() {
        let mut s = HpccState::new(100.0, BASE_RTT);
        let w0 = s.window_bytes;
        s.on_ack(&mut IntPath::from_slice(&[hop(0, 0, 0), hop(0, 0, 0)]), 1, 5);
        assert_eq!(s.window_bytes, w0, "first sample must not move the window");
        // A path-length change (reroute) re-primes instead of computing
        // nonsense utilization.
        s.on_ack(&mut IntPath::from_slice(&[hop(0, 0, 8_000_000)]), 2, 6);
        assert_eq!(s.window_bytes, w0);
    }

    #[test]
    fn window_never_collapses_below_floor() {
        let mut s = HpccState::new(100.0, BASE_RTT);
        s.on_ack(&mut IntPath::from_slice(&[hop(0, 0, 0)]), 1, 10);
        let mut ts = 8_000_000u64;
        let mut tx = 0u64;
        for ack in 2..100 {
            ts += 8_000_000;
            tx += 100_000;
            s.on_ack(&mut IntPath::from_slice(&[hop(4_000_000, tx, ts)]), ack, ack + 10);
        }
        assert!(s.window_bytes >= 1_500.0);
    }

    #[test]
    fn inc_stage_counts_additive_steps() {
        let mut s = HpccState::new(100.0, BASE_RTT);
        s.on_ack(&mut IntPath::from_slice(&[hop(0, 0, 0)]), 1, 2);
        let mut ts = 8_000_000u64;
        for ack in 2..6u64 {
            ts += 8_000_000;
            s.on_ack(&mut IntPath::from_slice(&[hop(0, 1_000 * ack, ts)]), ack, ack + 1);
        }
        assert!(s.inc_stage() >= 1);
        assert!(s.inc_stage() <= MAX_STAGE);
    }
}
