//! The DCQCN rate-control algorithm (Zhu et al., SIGCOMM 2015).
//!
//! DCQCN is the deployed RDMA congestion control the paper compares against.
//! Switches ECN-mark packets above a queue threshold; the receiver NIC
//! reflects marks back as congestion-notification packets (CNPs) at most once
//! per `cnp_interval`; the sender multiplicatively decreases on CNPs and
//! recovers through fast-recovery / additive-increase / hyper-increase stages
//! driven by a periodic timer. Flows start at line rate.
//!
//! Only the sender-side state machine lives here; CNP generation is part of
//! the receiving [`crate::host::Host`].

use crate::config::DcqcnParams;

/// Sender-side DCQCN state for one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct DcqcnState {
    /// Current sending rate in Gbps.
    pub rate_gbps: f64,
    /// Target rate used by the increase phases.
    pub target_gbps: f64,
    /// Congestion estimate.
    pub alpha: f64,
    /// Consecutive rate-increase events since the last CNP.
    pub increase_stage: u32,
    /// True if a CNP arrived since the last alpha-decay tick.
    cnp_since_alpha_update: bool,
    line_rate_gbps: f64,
}

impl DcqcnState {
    /// A new flow starts at line rate with `alpha = 1`.
    pub fn new(line_rate_gbps: f64) -> Self {
        DcqcnState {
            rate_gbps: line_rate_gbps,
            target_gbps: line_rate_gbps,
            alpha: 1.0,
            increase_stage: 0,
            cnp_since_alpha_update: false,
            line_rate_gbps,
        }
    }

    /// Reaction to a congestion-notification packet: cut the rate by
    /// `alpha / 2`, remember the pre-cut rate as the recovery target and
    /// freshen alpha.
    pub fn on_cnp(&mut self, params: &DcqcnParams) {
        self.target_gbps = self.rate_gbps;
        self.rate_gbps = (self.rate_gbps * (1.0 - self.alpha / 2.0)).max(params.min_rate_gbps);
        self.alpha = ((1.0 - params.g) * self.alpha + params.g).min(1.0);
        self.increase_stage = 0;
        self.cnp_since_alpha_update = true;
    }

    /// Periodic alpha decay (runs only if no CNP arrived during the interval).
    pub fn on_alpha_timer(&mut self, params: &DcqcnParams) {
        if self.cnp_since_alpha_update {
            self.cnp_since_alpha_update = false;
        } else {
            self.alpha *= 1.0 - params.g;
        }
    }

    /// Periodic rate increase: fast recovery toward the target for the first
    /// few stages, then additive increase, then hyper increase.
    pub fn on_rate_increase_timer(&mut self, params: &DcqcnParams) {
        self.increase_stage += 1;
        if self.increase_stage > 2 * params.fast_recovery_stages {
            self.target_gbps += params.rate_hai_gbps;
        } else if self.increase_stage > params.fast_recovery_stages {
            self.target_gbps += params.rate_ai_gbps;
        }
        self.target_gbps = self.target_gbps.min(self.line_rate_gbps);
        self.rate_gbps = ((self.rate_gbps + self.target_gbps) / 2.0).min(self.line_rate_gbps);
    }

    /// The flow's configured line rate.
    pub fn line_rate_gbps(&self) -> f64 {
        self.line_rate_gbps
    }
}

bfc_sim::snap_struct! {
    DcqcnState {
        rate_gbps, target_gbps, alpha, increase_stage, cnp_since_alpha_update, line_rate_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DcqcnParams {
        DcqcnParams::default()
    }

    #[test]
    fn starts_at_line_rate() {
        let s = DcqcnState::new(100.0);
        assert_eq!(s.rate_gbps, 100.0);
        assert_eq!(s.alpha, 1.0);
    }

    #[test]
    fn cnp_halves_rate_when_alpha_is_one() {
        let mut s = DcqcnState::new(100.0);
        s.on_cnp(&params());
        assert!((s.rate_gbps - 50.0).abs() < 1e-9);
        assert_eq!(s.target_gbps, 100.0);
        assert!(s.alpha <= 1.0);
    }

    #[test]
    fn repeated_cnps_drive_rate_toward_minimum() {
        let p = params();
        let mut s = DcqcnState::new(100.0);
        for _ in 0..200 {
            s.on_cnp(&p);
        }
        assert!(s.rate_gbps >= p.min_rate_gbps);
        assert!(s.rate_gbps < 1.0, "rate should collapse under persistent CNPs");
    }

    #[test]
    fn fast_recovery_converges_back_to_target() {
        let p = params();
        let mut s = DcqcnState::new(100.0);
        s.on_cnp(&p);
        let after_cut = s.rate_gbps;
        for _ in 0..p.fast_recovery_stages {
            s.on_rate_increase_timer(&p);
        }
        assert!(s.rate_gbps > after_cut);
        assert!(s.rate_gbps <= s.target_gbps + 1e-9);
        // Five halvings of the gap leave ~3% of it.
        assert!((s.target_gbps - s.rate_gbps) / (s.target_gbps - after_cut) < 0.05);
    }

    #[test]
    fn additive_then_hyper_increase_raise_target() {
        let p = params();
        let mut s = DcqcnState::new(100.0);
        s.on_cnp(&p);
        s.on_cnp(&p);
        let target_after_cnp = s.target_gbps;
        for _ in 0..(2 * p.fast_recovery_stages + 10) {
            s.on_rate_increase_timer(&p);
        }
        assert!(s.target_gbps > target_after_cnp);
        assert!(s.rate_gbps <= 100.0 + 1e-9, "never exceeds line rate");
    }

    #[test]
    fn alpha_decays_only_without_cnps() {
        let p = params();
        let mut s = DcqcnState::new(100.0);
        s.on_cnp(&p);
        let alpha_after_cnp = s.alpha;
        // First timer tick after a CNP only clears the flag.
        s.on_alpha_timer(&p);
        assert_eq!(s.alpha, alpha_after_cnp);
        s.on_alpha_timer(&p);
        assert!(s.alpha < alpha_after_cnp);
        for _ in 0..2000 {
            s.on_alpha_timer(&p);
        }
        assert!(s.alpha < 0.01, "alpha decays toward zero in calm periods");
    }
}
